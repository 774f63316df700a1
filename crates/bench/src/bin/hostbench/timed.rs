//! `TimedMachine`: a decorator over any [`Machine`] that times and
//! counts every runtime call from outside and delegates unchanged.
//!
//! This is how the simulators get per-layer numbers without a line of
//! instrumentation inside them: the host executor is generic over
//! `Machine`, so wrapping the machine puts a clock on the exact seam the
//! paper's host/node split runs through.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use f90y_backend::Machine;
use f90y_cm2::runtime::ReduceOp;
use f90y_cm2::Cm2Error;
use f90y_peac::Routine;

/// The classes machine calls are accounted under — one per-layer metric
/// family each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `dispatch`: PEAC block compilation, argument staging, the
    /// kernel loop.
    Dispatch,
    /// `cshift` / `eoshift`.
    Shift,
    /// `reduce`.
    Reduce,
    /// `alloc*`, `free`, `read`, `write`, `coordinates`: whole-array
    /// copies in and out of machine memory.
    Staging,
    /// `host_read_elem` / `host_write_elem`.
    HostElem,
    /// `charge_router_move`.
    Router,
}

impl Class {
    pub const ALL: [Class; 6] = [
        Class::Dispatch,
        Class::Shift,
        Class::Reduce,
        Class::Staging,
        Class::HostElem,
        Class::Router,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Dispatch => "dispatch",
            Class::Shift => "shift",
            Class::Reduce => "reduce",
            Class::Staging => "staging",
            Class::HostElem => "host_elem",
            Class::Router => "router",
        }
    }
}

/// One logged call: class, start and end in nanoseconds since the
/// decorator's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub class: Class,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// How many individual calls a decorator logs for the trace file. The
/// totals below are always exact; the log only feeds the timeline, and
/// a 100,000-call run would make a trace nobody can open.
pub const CALL_LOG_CAP: usize = 2048;

/// Busy time and call count per class, plus the capped call log.
#[derive(Debug)]
pub struct CallProfile {
    nanos: [Cell<u64>; 6],
    calls: [Cell<u64>; 6],
    log: RefCell<Vec<Call>>,
    epoch: Instant,
}

impl CallProfile {
    fn new(epoch: Instant) -> Self {
        CallProfile {
            nanos: Default::default(),
            calls: Default::default(),
            log: RefCell::new(Vec::new()),
            epoch,
        }
    }

    pub fn nanos(&self, class: Class) -> u64 {
        self.nanos[class as usize].get()
    }

    pub fn calls(&self, class: Class) -> u64 {
        self.calls[class as usize].get()
    }

    /// Time inside the machine, all classes.
    pub fn total_nanos(&self) -> u64 {
        Class::ALL.iter().map(|&c| self.nanos(c)).sum()
    }

    /// Calls dropped from the log by [`CALL_LOG_CAP`].
    pub fn unlogged_calls(&self) -> u64 {
        let logged = self.log.borrow().len() as u64;
        Class::ALL.iter().map(|&c| self.calls(c)).sum::<u64>() - logged
    }

    pub fn into_log(self) -> Vec<Call> {
        self.log.into_inner()
    }

    fn record(&self, class: Class, start: Instant, end: Instant) {
        let i = class as usize;
        let dur = end.duration_since(start).as_nanos() as u64;
        self.nanos[i].set(self.nanos[i].get() + dur);
        self.calls[i].set(self.calls[i].get() + 1);
        let mut log = self.log.borrow_mut();
        if log.len() < CALL_LOG_CAP {
            let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
            log.push(Call {
                class,
                start_ns,
                end_ns: start_ns + dur,
            });
        }
    }
}

/// A [`Machine`] that times every call and delegates to `inner`.
///
/// `charge_host_ops` is forwarded untimed: it is a counter increment
/// the host executor issues several times per statement, cheaper than
/// the two clock reads that would time it.
pub struct TimedMachine<M: Machine> {
    pub inner: M,
    pub profile: CallProfile,
}

impl<M: Machine> TimedMachine<M> {
    /// Wrap `inner`; logged call times are relative to `epoch`.
    pub fn new(inner: M, epoch: Instant) -> Self {
        TimedMachine {
            inner,
            profile: CallProfile::new(epoch),
        }
    }

    fn timed<T>(&mut self, class: Class, f: impl FnOnce(&mut M) -> T) -> T {
        let start = Instant::now();
        let out = f(&mut self.inner);
        self.profile.record(class, start, Instant::now());
        out
    }
}

impl<M: Machine> Machine for TimedMachine<M> {
    type Id = M::Id;

    fn alloc_with_bounds(&mut self, dims: &[usize], lower: &[i64]) -> Self::Id {
        self.timed(Class::Staging, |m| m.alloc_with_bounds(dims, lower))
    }

    fn alloc(&mut self, dims: &[usize]) -> Self::Id {
        self.timed(Class::Staging, |m| m.alloc(dims))
    }

    fn alloc_from(&mut self, dims: &[usize], data: Vec<f64>) -> Self::Id {
        self.timed(Class::Staging, |m| m.alloc_from(dims, data))
    }

    fn free(&mut self, id: Self::Id) -> Result<(), Cm2Error> {
        self.timed(Class::Staging, |m| m.free(id))
    }

    fn read(&self, id: Self::Id) -> Result<Vec<f64>, Cm2Error> {
        let start = Instant::now();
        let out = self.inner.read(id);
        self.profile.record(Class::Staging, start, Instant::now());
        out
    }

    fn write(&mut self, id: Self::Id, data: &[f64]) -> Result<(), Cm2Error> {
        self.timed(Class::Staging, |m| m.write(id, data))
    }

    fn dispatch(
        &mut self,
        routine: &Routine,
        ptr_args: &[Self::Id],
        scalar_args: &[f64],
    ) -> Result<(), Cm2Error> {
        self.timed(Class::Dispatch, |m| {
            m.dispatch(routine, ptr_args, scalar_args)
        })
    }

    fn cshift(&mut self, src: Self::Id, axis: usize, shift: i64) -> Result<Self::Id, Cm2Error> {
        self.timed(Class::Shift, |m| m.cshift(src, axis, shift))
    }

    fn eoshift(
        &mut self,
        src: Self::Id,
        axis: usize,
        shift: i64,
        boundary: f64,
    ) -> Result<Self::Id, Cm2Error> {
        self.timed(Class::Shift, |m| m.eoshift(src, axis, shift, boundary))
    }

    fn reduce(&mut self, src: Self::Id, op: ReduceOp) -> Result<f64, Cm2Error> {
        self.timed(Class::Reduce, |m| m.reduce(src, op))
    }

    fn coordinates(&mut self, dims: &[usize], lower: &[i64], axis: usize) -> Self::Id {
        self.timed(Class::Staging, |m| m.coordinates(dims, lower, axis))
    }

    fn charge_router_move(&mut self, id: Self::Id) -> Result<(), Cm2Error> {
        self.timed(Class::Router, |m| m.charge_router_move(id))
    }

    fn charge_host_ops(&mut self, n: u64) {
        self.inner.charge_host_ops(n);
    }

    fn host_read_elem(&mut self, id: Self::Id, flat: usize) -> Result<f64, Cm2Error> {
        self.timed(Class::HostElem, |m| m.host_read_elem(id, flat))
    }

    fn host_write_elem(&mut self, id: Self::Id, flat: usize, v: f64) -> Result<(), Cm2Error> {
        self.timed(Class::HostElem, |m| m.host_write_elem(id, flat, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f90y_backend::fe::HostExecutor;
    use f90y_core::{Accel, AccelConfig, Compiler, Pipeline};
    use f90y_mimd::{MimdConfig, MimdMachine};

    /// A small program that reaches every call class except the router.
    const SRC: &str = "
REAL a(8,8), b(8,8), d(8)
REAL s
FORALL (i=1:8, j=1:8) a(i,j) = MOD(i*3 + j, 7) + 0.5
b = CSHIFT(a, DIM=1, SHIFT=1) + EOSHIFT(a, DIM=2, SHIFT=-1)
s = SUM(b)
DO 20 i = 1, 8
  d(i) = b(i,i)
20 CONTINUE
a = b*s
";

    /// Fingerprint (names and bit patterns) of a run's finals on `machine`.
    fn finals_of<M: Machine>(machine: &mut M) -> String {
        let exe = Compiler::new(Pipeline::F90y).compile(SRC).unwrap();
        let run = HostExecutor::new(machine).run(&exe.compiled).unwrap();
        f90y_serve::engine::finals_fingerprint(&run)
    }

    /// Decorated and bare runs must agree on finals and on `stats`.
    fn assert_transparent<M: Machine, S: std::fmt::Debug>(
        make: impl Fn() -> M,
        stats: impl Fn(&M) -> S,
    ) {
        let mut bare = make();
        let bare_finals = finals_of(&mut bare);
        let mut timed = TimedMachine::new(make(), Instant::now());
        let timed_finals = finals_of(&mut timed);
        assert_eq!(bare_finals, timed_finals);
        assert_eq!(
            format!("{:?}", stats(&bare)),
            format!("{:?}", stats(&timed.inner))
        );
        let p = &timed.profile;
        for class in [
            Class::Dispatch,
            Class::Shift,
            Class::Reduce,
            Class::Staging,
            Class::HostElem,
        ] {
            assert!(p.calls(class) > 0, "{class:?} never called");
        }
        assert_eq!(p.calls(Class::Shift), 2);
        assert_eq!(p.calls(Class::Reduce), 1);
        assert_eq!(p.calls(Class::HostElem), 16);
        assert_eq!(p.unlogged_calls(), 0);
    }

    #[test]
    fn decorator_is_transparent_on_all_three_machines() {
        assert_transparent(|| Pipeline::F90y.machine(16), |m| m.stats());
        assert_transparent(
            || MimdMachine::new(MimdConfig::new(16)),
            |m| m.stats().clone(),
        );
        assert_transparent(|| Accel::new(AccelConfig::new(16)), |m| m.stats());
    }
}
