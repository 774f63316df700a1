//! The machine abstraction the host program runs against.
//!
//! The paper's retargeting claim (§5.3.1) is that the compiler splits a
//! program once and only the *machine model* underneath changes. This
//! trait is that seam made executable: [`crate::fe::HostExecutor`] is
//! generic over [`Machine`], so the identical compiled host program
//! drives either the SIMD CM/2 simulator ([`f90y_cm2::Cm2`]) or the
//! MIMD CM/5 runtime (`f90y-mimd`'s sharded multi-node engine) — and
//! differential tests can assert the final arrays are bit-identical.
//!
//! The surface is exactly the CM runtime system (CMRT) calls the FE/NIR
//! compiler emits: allocation, PEAC dispatch, grid shifts, router
//! moves, reductions, coordinate subgrids, and slow serial host access
//! to distributed memory. Errors stay [`f90y_cm2::Cm2Error`] — it is
//! the runtime-error currency of the whole backend regardless of which
//! machine is underneath.

use std::fmt::Debug;
use std::hash::Hash;

use f90y_cm2::runtime::ReduceOp;
use f90y_cm2::{ArrayId, Cm2, Cm2Error};
use f90y_peac::Routine;

/// A simulated target machine executing the compiled host program's
/// runtime calls.
///
/// Data-carrying operations must be *exact* (every implementation
/// computes the same IEEE results); time and traffic accounting is the
/// implementation's own model.
pub trait Machine {
    /// Handle to an array living in this machine's memory.
    type Id: Copy + Eq + Hash + Debug;

    /// Allocate a zeroed array with explicit per-axis lower bounds.
    fn alloc_with_bounds(&mut self, dims: &[usize], lower: &[i64]) -> Self::Id;

    /// Allocate a zeroed array with unit lower bounds.
    fn alloc(&mut self, dims: &[usize]) -> Self::Id {
        self.alloc_with_bounds(dims, &vec![1; dims.len()])
    }

    /// Allocate and initialise an array (row-major data).
    fn alloc_from(&mut self, dims: &[usize], data: Vec<f64>) -> Self::Id;

    /// Free an array.
    ///
    /// # Errors
    ///
    /// Fails on a stale handle.
    fn free(&mut self, id: Self::Id) -> Result<(), Cm2Error>;

    /// A copy of an array's elements (row-major). What it costs on the
    /// simulated clock is the machine's own model: nothing on the CM/2
    /// and the CM/5 engine (the front end peeks at node memory — a
    /// harness affordance, not a runtime call), one device→host
    /// transfer of the whole array on the accelerator (the D2H
    /// `predict` counts).
    ///
    /// # Errors
    ///
    /// Fails on a stale handle.
    fn read(&self, id: Self::Id) -> Result<Vec<f64>, Cm2Error>;

    /// Overwrite an array's elements. Free on the CM/2 and the CM/5
    /// engine, one host→device transfer of the whole array on the
    /// accelerator.
    ///
    /// # Errors
    ///
    /// Fails on a stale handle or a length mismatch.
    fn write(&mut self, id: Self::Id, data: &[f64]) -> Result<(), Cm2Error>;

    /// `dst` takes `tmp`'s elements and `tmp` dies: how the host program
    /// lands a shifted temporary in its target. This default body is the
    /// specification — a machine that overrides it (all three do, as a
    /// buffer move) must charge and trace exactly what `read(tmp)`,
    /// `write(dst, …)`, `free(tmp)` charge, in that order, fail with the
    /// same error at the same point, and leave both arrays as the
    /// composition leaves them.
    ///
    /// # Errors
    ///
    /// Fails on a stale handle or when the element counts differ.
    fn assign(&mut self, dst: Self::Id, tmp: Self::Id) -> Result<(), Cm2Error> {
        let data = self.read(tmp)?;
        self.write(dst, &data)?;
        self.free(tmp)
    }

    /// An array's elements, moved out: the array is freed. Charged like
    /// the `read` then `free` of this default body, which is the
    /// specification the machines' buffer-moving overrides are tested
    /// against.
    ///
    /// # Errors
    ///
    /// Fails on a stale handle.
    fn take(&mut self, id: Self::Id) -> Result<Vec<f64>, Cm2Error> {
        let data = self.read(id)?;
        self.free(id)?;
        Ok(data)
    }

    /// Dispatch a PEAC routine elementwise over the given arrays.
    ///
    /// # Errors
    ///
    /// Fails on stale handles, mismatched extents or PEAC faults.
    fn dispatch(
        &mut self,
        routine: &Routine,
        ptr_args: &[Self::Id],
        scalar_args: &[f64],
    ) -> Result<(), Cm2Error>;

    /// Grid circular shift (Fortran `CSHIFT` semantics) along `axis`
    /// (0-based), returning a new array.
    ///
    /// # Errors
    ///
    /// Fails on a stale handle or a bad axis.
    fn cshift(&mut self, src: Self::Id, axis: usize, shift: i64) -> Result<Self::Id, Cm2Error>;

    /// Grid end-off shift (Fortran `EOSHIFT`): vacated positions take
    /// `boundary`.
    ///
    /// # Errors
    ///
    /// Fails on a stale handle or a bad axis.
    fn eoshift(
        &mut self,
        src: Self::Id,
        axis: usize,
        shift: i64,
        boundary: f64,
    ) -> Result<Self::Id, Cm2Error>;

    /// Global reduction to the front end.
    ///
    /// # Errors
    ///
    /// Fails on a stale handle.
    fn reduce(&mut self, src: Self::Id, op: ReduceOp) -> Result<f64, Cm2Error>;

    /// The coordinate subgrid of `axis` (0-based) for arrays of the
    /// given extents and lower bounds.
    fn coordinates(&mut self, dims: &[usize], lower: &[i64], axis: usize) -> Self::Id;

    /// Charge a general-router data movement over an array's layout
    /// without moving data (the host executor moves the data itself).
    ///
    /// # Errors
    ///
    /// Fails on a stale handle.
    fn charge_router_move(&mut self, id: Self::Id) -> Result<(), Cm2Error>;

    /// Charge host-side work: `n` host program operations.
    fn charge_host_ops(&mut self, n: u64);

    /// Read a single element from the front end (serial host access to
    /// distributed memory — slow).
    ///
    /// # Errors
    ///
    /// Fails on a stale handle or an out-of-range flat index.
    fn host_read_elem(&mut self, id: Self::Id, flat: usize) -> Result<f64, Cm2Error>;

    /// Write a single element from the front end.
    ///
    /// # Errors
    ///
    /// Fails on a stale handle or an out-of-range flat index.
    fn host_write_elem(&mut self, id: Self::Id, flat: usize, v: f64) -> Result<(), Cm2Error>;
}

impl Machine for Cm2 {
    type Id = ArrayId;

    fn alloc_with_bounds(&mut self, dims: &[usize], lower: &[i64]) -> ArrayId {
        Cm2::alloc_with_bounds(self, dims, lower)
    }

    fn alloc_from(&mut self, dims: &[usize], data: Vec<f64>) -> ArrayId {
        Cm2::alloc_from(self, dims, data)
    }

    fn free(&mut self, id: ArrayId) -> Result<(), Cm2Error> {
        Cm2::free(self, id)
    }

    fn read(&self, id: ArrayId) -> Result<Vec<f64>, Cm2Error> {
        Cm2::read(self, id)
    }

    fn write(&mut self, id: ArrayId, data: &[f64]) -> Result<(), Cm2Error> {
        Cm2::write(self, id, data)
    }

    fn assign(&mut self, dst: ArrayId, tmp: ArrayId) -> Result<(), Cm2Error> {
        Cm2::assign(self, dst, tmp)
    }

    fn take(&mut self, id: ArrayId) -> Result<Vec<f64>, Cm2Error> {
        Cm2::take(self, id)
    }

    fn dispatch(
        &mut self,
        routine: &Routine,
        ptr_args: &[ArrayId],
        scalar_args: &[f64],
    ) -> Result<(), Cm2Error> {
        Cm2::dispatch(self, routine, ptr_args, scalar_args)
    }

    fn cshift(&mut self, src: ArrayId, axis: usize, shift: i64) -> Result<ArrayId, Cm2Error> {
        Cm2::cshift(self, src, axis, shift)
    }

    fn eoshift(
        &mut self,
        src: ArrayId,
        axis: usize,
        shift: i64,
        boundary: f64,
    ) -> Result<ArrayId, Cm2Error> {
        Cm2::eoshift(self, src, axis, shift, boundary)
    }

    fn reduce(&mut self, src: ArrayId, op: ReduceOp) -> Result<f64, Cm2Error> {
        Cm2::reduce(self, src, op)
    }

    fn coordinates(&mut self, dims: &[usize], lower: &[i64], axis: usize) -> ArrayId {
        Cm2::coordinates(self, dims, lower, axis)
    }

    fn charge_router_move(&mut self, id: ArrayId) -> Result<(), Cm2Error> {
        Cm2::charge_router_move(self, id)
    }

    fn charge_host_ops(&mut self, n: u64) {
        Cm2::charge_host_ops(self, n)
    }

    fn host_read_elem(&mut self, id: ArrayId, flat: usize) -> Result<f64, Cm2Error> {
        Cm2::host_read_elem(self, id, flat)
    }

    fn host_write_elem(&mut self, id: ArrayId, flat: usize, v: f64) -> Result<(), Cm2Error> {
        Cm2::host_write_elem(self, id, flat, v)
    }
}
