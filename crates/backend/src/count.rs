//! The counting machine: a [`Machine`] that keeps each array's extents,
//! holds no data, and tallies every call into a [`StaticProfile`].
//! Reads hand back nothing and reductions zero — a profiling run of the
//! tape loop treats whatever the machine returns as unknown.

use std::cell::Cell;
use std::collections::HashSet;
use std::sync::Arc;

use f90y_cm2::runtime::ReduceOp;
use f90y_cm2::Cm2Error;
use f90y_peac::Routine;

use crate::machine::Machine;
use crate::plan::{DispatchSite, ShiftSite, StaticProfile};

#[derive(Default)]
pub(crate) struct Counter {
    out: StaticProfile,
    /// Extents of each array, by handle; shift sites share them.
    dims: Vec<Arc<[usize]>>,
    /// Freed handles, reused so a long loop of temporaries stays small.
    spare: Vec<usize>,
    routines: HashSet<Arc<str>>,
    /// `Machine::read` takes `&self`.
    reads: Cell<usize>,
}

impl Counter {
    /// What was counted.
    pub(crate) fn finish(mut self) -> StaticProfile {
        self.out.array_reads = self.reads.get();
        // The profile outlives the walk (executables keep it).
        self.out.dispatches.shrink_to_fit();
        self.out.shifts.shrink_to_fit();
        self.out
    }

    fn adopt(&mut self, dims: Arc<[usize]>) -> usize {
        match self.spare.pop() {
            Some(id) => {
                self.dims[id] = dims;
                id
            }
            None => {
                self.dims.push(dims);
                self.dims.len() - 1
            }
        }
    }

    fn shift(&mut self, src: usize, axis: usize, shift: i64, eoshift: bool) -> usize {
        let dims = self.dims[src].clone();
        self.out.shifts.push(ShiftSite {
            dims: dims.clone(),
            axis,
            shift,
            eoshift,
        });
        self.adopt(dims)
    }
}

impl Machine for Counter {
    type Id = usize;

    fn alloc_with_bounds(&mut self, dims: &[usize], _: &[i64]) -> usize {
        self.adopt(dims.into())
    }

    fn alloc_from(&mut self, dims: &[usize], _: Vec<f64>) -> usize {
        self.out.allocs_from += 1;
        self.adopt(dims.into())
    }

    fn free(&mut self, id: usize) -> Result<(), Cm2Error> {
        self.spare.push(id);
        Ok(())
    }

    fn read(&self, _: usize) -> Result<Vec<f64>, Cm2Error> {
        self.reads.set(self.reads.get() + 1);
        Ok(Vec::new())
    }

    fn write(&mut self, _: usize, _: &[f64]) -> Result<(), Cm2Error> {
        self.out.array_writes += 1;
        Ok(())
    }

    fn dispatch(
        &mut self,
        routine: &Routine,
        ptrs: &[usize],
        scalars: &[f64],
    ) -> Result<(), Cm2Error> {
        let routine = match self.routines.get(routine.name()) {
            Some(shared) => shared.clone(),
            None => {
                let shared: Arc<str> = routine.name().into();
                self.routines.insert(shared.clone());
                shared
            }
        };
        self.out.dispatches.push(DispatchSite {
            routine,
            array_args: ptrs.len(),
            scalar_args: scalars.len(),
            elems: ptrs.first().map_or(0, |&id| self.dims[id].iter().product()),
        });
        Ok(())
    }

    fn cshift(&mut self, src: usize, axis: usize, shift: i64) -> Result<usize, Cm2Error> {
        Ok(self.shift(src, axis, shift, false))
    }

    fn eoshift(&mut self, src: usize, axis: usize, shift: i64, _: f64) -> Result<usize, Cm2Error> {
        Ok(self.shift(src, axis, shift, true))
    }

    fn reduce(&mut self, _: usize, _: ReduceOp) -> Result<f64, Cm2Error> {
        self.out.reduces += 1;
        Ok(0.0)
    }

    fn coordinates(&mut self, dims: &[usize], lower: &[i64], axis: usize) -> usize {
        let key = (dims.to_vec(), lower.to_vec(), axis);
        self.out.coord_keys.insert(key);
        self.adopt(dims.into())
    }

    fn charge_router_move(&mut self, _: usize) -> Result<(), Cm2Error> {
        self.out.router_moves += 1;
        Ok(())
    }

    fn charge_host_ops(&mut self, n: u64) {
        self.out.host_ops += n;
    }

    fn host_read_elem(&mut self, _: usize, _: usize) -> Result<f64, Cm2Error> {
        self.out.host_elem_reads += 1;
        Ok(0.0)
    }

    fn host_write_elem(&mut self, _: usize, _: usize, _: f64) -> Result<(), Cm2Error> {
        self.out.host_elem_writes += 1;
        Ok(())
    }
}
