#![allow(dead_code)] // each test target uses its own part
//! Test support shared by `host_tape.rs` and `proptests.rs` (a module,
//! not a test target): a [`Machine`] decorator that logs every call a
//! real run makes in the shape of a [`StaticProfile`], so the static
//! profile can be held to it site for site, and that can be told to
//! fail the n-th call of one class.

use std::cell::Cell;
use std::collections::HashMap;

use f90y_backend::fe::HostExecutor;
use f90y_backend::plan::{DispatchSite, ShiftSite, StaticProfile};
use f90y_backend::{CompiledProgram, Machine};
use f90y_cm2::{Cm2, Cm2Config, Cm2Error, ReduceOp};
use f90y_peac::Routine;

pub fn cm2() -> Cm2 {
    Cm2::new(Cm2Config::slicewise(16))
}

/// Every call a real run of `compiled` makes, class by class and site
/// by site, is the static profile.
pub fn assert_profile_is_the_call_log(ctx: &str, compiled: &CompiledProgram) {
    let profile = f90y_backend::plan::profile(compiled)
        .unwrap_or_else(|e| panic!("{ctx}: no exact static profile: {e}"));
    let mut logged = CallLog::new(cm2());
    HostExecutor::new(&mut logged)
        .run(compiled)
        .unwrap_or_else(|e| panic!("{ctx}: fails to run: {e}"));
    let (_, log) = logged.finish();
    assert_eq!(profile, log, "{ctx}: the profile is not what the run did");
}

/// The classes of machine call that can be made to fail (all that can
/// fail but `free`: a machine that cannot free cannot be left clean).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Read,
    Write,
    Dispatch,
    Shift,
    Reduce,
    Router,
    ElemRead,
    ElemWrite,
}

/// `assign` and `take` are left to the trait's default bodies, so a
/// hand-off is logged as the reads, writes and frees it is specified as.
pub struct CallLog<M: Machine> {
    pub inner: M,
    log: StaticProfile,
    dims: HashMap<M::Id, Vec<usize>>,
    reads: Cell<usize>,
    /// Fail this class's n-th call (0-based) without reaching `inner`.
    fail: Option<(Class, usize)>,
    seen: Cell<usize>,
}

impl<M: Machine> CallLog<M> {
    pub fn new(inner: M) -> Self {
        CallLog {
            inner,
            log: StaticProfile::default(),
            dims: HashMap::new(),
            reads: Cell::new(0),
            fail: None,
            seen: Cell::new(0),
        }
    }

    pub fn failing(inner: M, class: Class, nth: usize) -> Self {
        let mut log = CallLog::new(inner);
        log.fail = Some((class, nth));
        log
    }

    /// How many calls of the failing class were made.
    pub fn seen(&self) -> usize {
        self.seen.get()
    }

    pub fn injected(class: Class) -> Cm2Error {
        Cm2Error::Runtime(format!("injected {class:?} failure"))
    }

    /// Everything logged, as the profile a static walk should equal.
    pub fn finish(mut self) -> (M, StaticProfile) {
        self.log.array_reads = self.reads.get();
        (self.inner, self.log)
    }

    fn call(&self, class: Class) -> Result<(), Cm2Error> {
        match self.fail {
            Some((failing, nth)) if failing == class => {
                self.seen.set(self.seen.get() + 1);
                if self.seen.get() - 1 == nth {
                    return Err(Self::injected(class));
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }

    fn shifted(&mut self, src: M::Id, axis: usize, shift: i64, eoshift: bool, out: M::Id) -> M::Id {
        let dims = self.dims[&src].clone();
        self.dims.insert(out, dims.clone());
        self.log.shifts.push(ShiftSite {
            dims: dims.into(),
            axis,
            shift,
            eoshift,
        });
        out
    }
}

impl<M: Machine> Machine for CallLog<M> {
    type Id = M::Id;

    fn alloc_with_bounds(&mut self, dims: &[usize], lower: &[i64]) -> M::Id {
        let id = self.inner.alloc_with_bounds(dims, lower);
        self.dims.insert(id, dims.to_vec());
        id
    }

    fn alloc_from(&mut self, dims: &[usize], data: Vec<f64>) -> M::Id {
        self.log.allocs_from += 1;
        let id = self.inner.alloc_from(dims, data);
        self.dims.insert(id, dims.to_vec());
        id
    }

    fn free(&mut self, id: M::Id) -> Result<(), Cm2Error> {
        self.inner.free(id)
    }

    fn read(&self, id: M::Id) -> Result<Vec<f64>, Cm2Error> {
        self.call(Class::Read)?;
        self.reads.set(self.reads.get() + 1);
        self.inner.read(id)
    }

    fn write(&mut self, id: M::Id, data: &[f64]) -> Result<(), Cm2Error> {
        self.call(Class::Write)?;
        self.log.array_writes += 1;
        self.inner.write(id, data)
    }

    fn dispatch(&mut self, r: &Routine, ptrs: &[M::Id], scalars: &[f64]) -> Result<(), Cm2Error> {
        self.call(Class::Dispatch)?;
        self.log.dispatches.push(DispatchSite {
            routine: r.name().into(),
            array_args: ptrs.len(),
            scalar_args: scalars.len(),
            elems: self.dims[&ptrs[0]].iter().product(),
        });
        self.inner.dispatch(r, ptrs, scalars)
    }

    fn cshift(&mut self, src: M::Id, axis: usize, shift: i64) -> Result<M::Id, Cm2Error> {
        self.call(Class::Shift)?;
        let out = self.inner.cshift(src, axis, shift)?;
        Ok(self.shifted(src, axis, shift, false, out))
    }

    fn eoshift(&mut self, src: M::Id, axis: usize, shift: i64, b: f64) -> Result<M::Id, Cm2Error> {
        self.call(Class::Shift)?;
        let out = self.inner.eoshift(src, axis, shift, b)?;
        Ok(self.shifted(src, axis, shift, true, out))
    }

    fn reduce(&mut self, src: M::Id, op: ReduceOp) -> Result<f64, Cm2Error> {
        self.call(Class::Reduce)?;
        self.log.reduces += 1;
        self.inner.reduce(src, op)
    }

    fn coordinates(&mut self, dims: &[usize], lower: &[i64], axis: usize) -> M::Id {
        let key = (dims.to_vec(), lower.to_vec(), axis);
        self.log.coord_keys.insert(key);
        let id = self.inner.coordinates(dims, lower, axis);
        self.dims.insert(id, dims.to_vec());
        id
    }

    fn charge_router_move(&mut self, id: M::Id) -> Result<(), Cm2Error> {
        self.call(Class::Router)?;
        self.log.router_moves += 1;
        self.inner.charge_router_move(id)
    }

    fn charge_host_ops(&mut self, n: u64) {
        self.log.host_ops += n;
        self.inner.charge_host_ops(n);
    }

    fn host_read_elem(&mut self, id: M::Id, flat: usize) -> Result<f64, Cm2Error> {
        self.call(Class::ElemRead)?;
        self.log.host_elem_reads += 1;
        self.inner.host_read_elem(id, flat)
    }

    fn host_write_elem(&mut self, id: M::Id, flat: usize, v: f64) -> Result<(), Cm2Error> {
        self.call(Class::ElemWrite)?;
        self.log.host_elem_writes += 1;
        self.inner.host_write_elem(id, flat, v)
    }
}
