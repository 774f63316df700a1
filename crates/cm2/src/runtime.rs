//! The CM runtime system (CMRT) surface.
//!
//! The FE/NIR compiler "replaces certain primitive function calls which
//! represent communication intrinsics by calls to their CM runtime
//! library implementations" and "inserts calling code to push PEAC
//! procedure arguments over the IFIFO to the processors" (paper §5.2).
//! These are those runtime entry points, with the cost model of
//! [`crate::costs`] attached.

use f90y_obs::trace::Actor;
use f90y_peac::isa::Routine;

use crate::costs;
use crate::dispatch::{dispatch_in_place, ArrayStore};
use crate::machine::{ArrayId, Cm2};
use crate::Cm2Error;

/// Reduction operators supported by the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Global sum.
    Sum,
    /// Global maximum.
    Max,
    /// Global minimum.
    Min,
}

impl ArrayStore for Cm2 {
    type Id = ArrayId;

    fn data_mut(&mut self, id: ArrayId) -> Result<&mut Vec<f64>, Cm2Error> {
        Ok(&mut self.array_mut(id)?.data)
    }
}

impl Cm2 {
    /// Dispatch a PEAC routine elementwise over the given CM arrays.
    ///
    /// All pointer arguments must have equal element counts (they share
    /// one shape and one blockwise layout). Every element executes, in
    /// place in CM memory ([`crate::dispatch`]). Charges dispatch
    /// overhead plus the per-node virtual-subgrid loop cost.
    ///
    /// # Errors
    ///
    /// Fails on stale handles, mismatched extents or PEAC faults.
    pub fn dispatch(
        &mut self,
        routine: &Routine,
        ptr_args: &[ArrayId],
        scalar_args: &[f64],
    ) -> Result<(), Cm2Error> {
        let total = dispatch_in_place(self, routine, ptr_args, scalar_args)?;
        let kernel = routine.kernel();

        // Time: per-node subgrid iterations at the configured
        // multipliers; flops: machine-wide over valid elements.
        let layout = self.layout(ptr_args[0])?;
        let iters = layout.iterations_per_node();
        let body = kernel.body_cycles();
        let overhead = costs::DISPATCH_BASE_CYCLES
            + costs::DISPATCH_PER_ARG_CYCLES
                * (routine.nargs_ptr() + routine.nargs_scalar()) as u64;
        let phase = kernel.dispatch_label();
        let t0 = self.flight_clock();
        self.charge_dispatch_overhead(
            phase,
            (overhead as f64 * self.config.dispatch_multiplier) as u64,
        );
        let compute = (body as f64 * iters as f64 * self.config.compute_multiplier) as u64;
        self.charge_compute(phase, compute);
        self.flight_phase(Actor::Machine, phase, t0);
        if let Some(map) = &mut self.opcodes {
            map.entry(routine.name().to_string())
                .or_default()
                .record_scaled(routine.body(), iters, compute);
        }
        self.overlap_pool = self.overlap_pool.saturating_add(compute);
        let flops_per_elem = kernel.flops_per_elem();
        self.stats.flops += flops_per_elem * total as u64;
        self.stats.dispatches += 1;
        if self.trace.is_some() {
            use f90y_peac::isa::Instr;
            let mut arith = 0u64;
            let mut mem = 0u64;
            let mut div = 0u64;
            let mut lib = 0u64;
            for i in routine.body() {
                match i {
                    Instr::Fdivv { .. } => div += 1,
                    Instr::Flib { .. } => lib += 1,
                    Instr::Flodv { .. }
                    | Instr::Fstrv { .. }
                    | Instr::SpillLoad { .. }
                    | Instr::SpillStore { .. } => mem += 1,
                    other if other.is_arith() => arith += 1,
                    _ => {}
                }
            }
            self.record(crate::machine::TraceEvent::Dispatch {
                iterations: iters,
                elements: total,
                arith,
                mem,
                div,
                lib,
                nargs: routine.nargs_ptr() + routine.nargs_scalar(),
                flops: flops_per_elem * total as u64,
            });
        }
        Ok(())
    }

    /// Grid (NEWS) circular shift: a new array whose element `i` along
    /// `axis` (0-based) holds the source's element `i + shift`, wrapped
    /// (Fortran `CSHIFT` semantics).
    ///
    /// # Errors
    ///
    /// Fails on stale handles or a bad axis.
    pub fn cshift(&mut self, src: ArrayId, axis: usize, shift: i64) -> Result<ArrayId, Cm2Error> {
        self.grid_shift("cshift", src, axis, shift, None)
    }

    /// Grid end-off shift (Fortran `EOSHIFT`): vacated positions take
    /// `boundary`.
    ///
    /// # Errors
    ///
    /// Fails on stale handles or a bad axis.
    pub fn eoshift(
        &mut self,
        src: ArrayId,
        axis: usize,
        shift: i64,
        boundary: f64,
    ) -> Result<ArrayId, Cm2Error> {
        self.grid_shift("eoshift", src, axis, shift, Some(boundary))
    }

    fn grid_shift(
        &mut self,
        kind: &str,
        src: ArrayId,
        axis: usize,
        shift: i64,
        boundary: Option<f64>,
    ) -> Result<ArrayId, Cm2Error> {
        let arr = self.array(src)?;
        if axis >= arr.dims.len() {
            return Err(Cm2Error::Runtime(format!(
                "{kind} axis {axis} out of range for rank {}",
                arr.dims.len()
            )));
        }
        let shifted = shift_data(&arr.data, &arr.dims, axis, shift, boundary);
        let id = self.adopt(arr.dims.clone(), arr.lower.clone(), shifted);
        self.charge_grid_comm(src, axis, shift)?;
        Ok(id)
    }

    fn charge_grid_comm(&mut self, src: ArrayId, axis: usize, shift: i64) -> Result<(), Cm2Error> {
        let layout = self.layout(src)?;
        let mut cost = costs::grid_comm_cycles(&layout, axis, shift);
        if self.config.pipelined_comm {
            // §5.3.2 model study: hide the transfer behind compute
            // accumulated since the last communication. The runtime-call
            // entry overhead cannot hide (the sequencer is busy issuing
            // it).
            let hideable = cost.saturating_sub(costs::RT_CALL_CYCLES);
            let hidden = hideable.min(self.overlap_pool);
            self.overlap_pool -= hidden;
            cost -= hidden;
        }
        let t0 = self.flight_clock();
        self.charge_comm("news", cost);
        self.flight_phase(Actor::Machine, "news", t0);
        self.stats.comm_calls += 1;
        self.record(crate::machine::TraceEvent::GridComm {
            iterations: layout.iterations_per_node(),
            crossing: layout.crossing_per_node(axis, shift),
        });
        Ok(())
    }

    /// General router copy: clone an array paying worst-case
    /// communication (used when no grid pattern applies).
    ///
    /// # Errors
    ///
    /// Fails on stale handles.
    pub fn router_copy(&mut self, src: ArrayId) -> Result<ArrayId, Cm2Error> {
        let (dims, lower, data) = {
            let arr = self.array(src)?;
            (arr.dims.clone(), arr.lower.clone(), arr.data.clone())
        };
        let layout = self.layout(src)?;
        let id = self.adopt(dims, lower, data);
        let t0 = self.flight_clock();
        self.charge_comm("router", costs::router_comm_cycles(&layout));
        self.flight_phase(Actor::Machine, "router", t0);
        self.stats.comm_calls += 1;
        self.record(crate::machine::TraceEvent::Router {
            subgrid: layout.subgrid(),
        });
        Ok(id)
    }

    /// Charge a general-router data movement over an array's layout
    /// without moving data (the host executor moves the data itself
    /// after computing a gather/scatter it could not express as a grid
    /// pattern).
    ///
    /// # Errors
    ///
    /// Fails on stale handles.
    pub fn charge_router_move(&mut self, id: ArrayId) -> Result<(), Cm2Error> {
        let layout = self.layout(id)?;
        let t0 = self.flight_clock();
        self.charge_comm("router", costs::router_comm_cycles(&layout));
        self.flight_phase(Actor::Machine, "router", t0);
        self.stats.comm_calls += 1;
        self.record(crate::machine::TraceEvent::Router {
            subgrid: layout.subgrid(),
        });
        Ok(())
    }

    /// Global reduction to the front end.
    ///
    /// # Errors
    ///
    /// Fails on stale handles.
    pub fn reduce(&mut self, src: ArrayId, op: ReduceOp) -> Result<f64, Cm2Error> {
        let value = {
            let arr = self.array(src)?;
            match op {
                ReduceOp::Sum => arr.data.iter().sum(),
                ReduceOp::Max => arr.data.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                ReduceOp::Min => arr.data.iter().copied().fold(f64::INFINITY, f64::min),
            }
        };
        let layout = self.layout(src)?;
        let t0 = self.flight_clock();
        self.charge_comm(
            "reduce",
            costs::reduction_cycles(&layout, self.config.nodes),
        );
        self.flight_phase(Actor::Machine, "reduce", t0);
        self.stats.reductions += 1;
        self.record(crate::machine::TraceEvent::Reduce {
            iterations: layout.iterations_per_node(),
        });
        Ok(value)
    }

    /// The coordinate subgrid of `axis` (0-based) for arrays of the
    /// given extents and lower bounds: element values are the Fortran
    /// coordinate along that axis. Cached per (extents, bounds, axis);
    /// generation is charged once.
    pub fn coordinates(&mut self, dims: &[usize], lower: &[i64], axis: usize) -> ArrayId {
        let key = (dims.to_vec(), lower.to_vec(), axis);
        if let Some(&id) = self.coord_cache.get(&key) {
            return id;
        }
        let data = coordinate_data(dims, lower, axis);
        let layout = crate::layout::Layout::blockwise(data.len(), self.config.nodes);
        let t0 = self.flight_clock();
        self.charge_comm("coord", costs::coordinate_gen_cycles(&layout));
        self.flight_phase(Actor::Machine, "coord", t0);
        let id = self.adopt(dims.to_vec(), lower.to_vec(), data);
        self.coord_cache.insert(key, id);
        id
    }

    /// Charge host-side work: `n` host program operations.
    pub fn charge_host_ops(&mut self, n: u64) {
        let t0 = self.flight_clock();
        self.charge_host("host", n * costs::HOST_OP_CYCLES);
        self.flight_phase(Actor::Host, "host", t0);
        self.record(crate::machine::TraceEvent::HostOps(n));
    }

    /// Read a single element from the front end (serial host access to
    /// CM memory — slow, used by host-executed serial loops).
    ///
    /// # Errors
    ///
    /// Fails on stale handles or out-of-range flat index.
    pub fn host_read_elem(&mut self, id: ArrayId, flat: usize) -> Result<f64, Cm2Error> {
        let arr = self.array(id)?;
        let v = *arr
            .data
            .get(flat)
            .ok_or_else(|| Cm2Error::Runtime(format!("element {flat} out of range")))?;
        let t0 = self.flight_clock();
        self.charge_host("host", costs::HOST_OP_CYCLES);
        self.charge_comm("host", costs::WIRE_CYCLES_PER_ELEM);
        self.flight_phase(Actor::Host, "host", t0);
        Ok(v)
    }

    /// Write a single element from the front end.
    ///
    /// # Errors
    ///
    /// Fails on stale handles or out-of-range flat index.
    pub fn host_write_elem(&mut self, id: ArrayId, flat: usize, v: f64) -> Result<(), Cm2Error> {
        let t0 = self.flight_clock();
        self.charge_host("host", costs::HOST_OP_CYCLES);
        self.charge_comm("host", costs::WIRE_CYCLES_PER_ELEM);
        self.flight_phase(Actor::Host, "host", t0);
        let arr = self.array_mut(id)?;
        let slot = arr
            .data
            .get_mut(flat)
            .ok_or_else(|| Cm2Error::Runtime(format!("element {flat} out of range")))?;
        *slot = v;
        Ok(())
    }
}

/// Row-major shift along an axis; `boundary: None` wraps (CSHIFT),
/// `Some(b)` end-off fills (EOSHIFT).
///
/// Public because it is *the* reference semantics for Fortran shifts in
/// this reproduction: the MIMD runtime's halo exchange and the property
/// suites compare their distributed results against this single-image
/// function.
pub fn shift_data(
    data: &[f64],
    dims: &[usize],
    axis: usize,
    shift: i64,
    boundary: Option<f64>,
) -> Vec<f64> {
    let mut out = vec![0.0; data.len()];
    shift_into(&mut out, data, dims, axis, shift, boundary);
    out
}

/// [`shift_data`] into a caller-owned buffer, every element of which is
/// written: how the MIMD engine's nodes shift their slabs of one array
/// into disjoint ranges of one result.
///
/// # Panics
///
/// Panics when `out` and `data` differ in length.
pub fn shift_into(
    out: &mut [f64],
    data: &[f64],
    dims: &[usize],
    axis: usize,
    shift: i64,
    boundary: Option<f64>,
) {
    assert_eq!(out.len(), data.len(), "a shift keeps the shape");
    let inner: usize = dims[axis + 1..].iter().product();
    let n = dims[axis] as i64;
    // One plane per outer index: `extent` rows of `inner` contiguous
    // elements. Destination row `a` takes source row `a + shift`, so
    // within a plane whole runs of rows move as one copy.
    let plane = dims[axis] * inner;
    if plane == 0 {
        return;
    }
    let row = |r: i64| r as usize * inner;
    for (dst, src) in out.chunks_exact_mut(plane).zip(data.chunks_exact(plane)) {
        match boundary {
            None => {
                let (wrapped, straight) = src.split_at(row(shift.rem_euclid(n)));
                let (head, tail) = dst.split_at_mut(straight.len());
                head.copy_from_slice(straight);
                tail.copy_from_slice(wrapped);
            }
            Some(b) => {
                // Destination rows `lo..hi` have a source row in range;
                // the rows before and after them are vacated.
                let lo = shift.saturating_neg().clamp(0, n);
                let hi = n.saturating_sub(shift).clamp(lo, n);
                dst[..row(lo)].fill(b);
                if lo < hi {
                    dst[row(lo)..row(hi)].copy_from_slice(&src[row(lo + shift)..row(hi + shift)]);
                }
                dst[row(hi)..].fill(b);
            }
        }
    }
}

/// The coordinate subgrid of `axis` (0-based) for arrays of the given
/// extents and lower bounds, row-major: element values are the Fortran
/// coordinate along that axis. Every machine's `coordinates` call
/// generates its subgrid here.
///
/// A coordinate holds for a run of `stride` consecutive elements (the
/// product of the inner extents) and the runs cycle through the axis's
/// extent, so the fill is by runs: no division per element.
pub fn coordinate_data(dims: &[usize], lower: &[i64], axis: usize) -> Vec<f64> {
    let total: usize = dims.iter().product();
    let stride: usize = dims[axis + 1..].iter().product();
    let mut data = Vec::with_capacity(total);
    while data.len() < total {
        for coord in 0..dims[axis] {
            let value = (lower[axis] + coord as i64) as f64;
            data.resize(data.len() + stride, value);
        }
    }
    data
}

/// The per-element formula [`coordinate_data`] replaced, kept as its
/// oracle.
#[cfg(test)]
fn coordinate_data_per_element(dims: &[usize], lower: &[i64], axis: usize) -> Vec<f64> {
    let total: usize = dims.iter().product();
    let stride: usize = dims[axis + 1..].iter().product();
    let extent = dims[axis];
    let mut data = Vec::with_capacity(total);
    for flat in 0..total {
        let coord = (flat / stride) % extent;
        data.push((lower[axis] + coord as i64) as f64);
    }
    data
}

/// The per-element formula [`shift_data`] replaced, kept as its oracle.
#[cfg(test)]
fn shift_data_per_element(
    data: &[f64],
    dims: &[usize],
    axis: usize,
    shift: i64,
    boundary: Option<f64>,
) -> Vec<f64> {
    let inner: usize = dims[axis + 1..].iter().product();
    let extent = dims[axis];
    let outer: usize = dims[..axis].iter().product();
    let n = extent as i64;
    let mut out = vec![0.0; data.len()];
    for o in 0..outer {
        for a in 0..extent {
            let src_a = a as i64 + shift;
            for i in 0..inner {
                let dst = (o * extent + a) * inner + i;
                out[dst] = match boundary {
                    None => {
                        let sa = src_a.rem_euclid(n) as usize;
                        data[(o * extent + sa) * inner + i]
                    }
                    Some(b) => {
                        if src_a < 0 || src_a >= n {
                            b
                        } else {
                            data[(o * extent + src_a as usize) * inner + i]
                        }
                    }
                };
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Cm2Config;
    use f90y_peac::isa::{Instr, Mem, Operand, VReg};

    fn machine() -> Cm2 {
        Cm2::new(Cm2Config::slicewise(16))
    }

    fn add_one_routine() -> Routine {
        Routine::new(
            "inc",
            2,
            0,
            vec![
                Instr::Fimmv {
                    value: 1.0,
                    dst: VReg(1),
                },
                Instr::Flodv {
                    src: Mem::arg(0),
                    dst: VReg(0),
                    overlapped: false,
                },
                Instr::Faddv {
                    a: Operand::V(VReg(0)),
                    b: Operand::V(VReg(1)),
                    dst: VReg(2),
                },
                Instr::Fstrv {
                    src: VReg(2),
                    dst: Mem::arg(1),
                    overlapped: false,
                },
            ],
        )
        .expect("valid routine")
    }

    #[test]
    fn dispatch_computes_and_charges() {
        let mut cm = machine();
        let a = cm.alloc_from(&[64], (0..64).map(|i| i as f64).collect());
        let b = cm.alloc(&[64]);
        cm.dispatch(&add_one_routine(), &[a, b], &[]).unwrap();
        let out = cm.read(b).unwrap();
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i as f64 + 1.0);
        }
        let s = cm.stats();
        assert_eq!(s.dispatches, 1);
        assert!(s.compute_cycles > 0);
        assert!(s.dispatch_overhead_cycles > 0);
        assert_eq!(s.flops, 64); // one add per element
    }

    #[test]
    fn dispatch_time_uses_per_node_subgrid() {
        // Same total work on more nodes → fewer compute cycles.
        let mut small = Cm2::new(Cm2Config::slicewise(4));
        let mut large = Cm2::new(Cm2Config::slicewise(64));
        for cm in [&mut small, &mut large] {
            let a = cm.alloc(&[1024]);
            let b = cm.alloc(&[1024]);
            cm.dispatch(&add_one_routine(), &[a, b], &[]).unwrap();
        }
        assert!(small.stats().compute_cycles > large.stats().compute_cycles);
        assert_eq!(small.stats().flops, large.stats().flops);
    }

    #[test]
    fn mismatched_extents_are_rejected() {
        let mut cm = machine();
        let a = cm.alloc(&[64]);
        let b = cm.alloc(&[32]);
        assert!(cm.dispatch(&add_one_routine(), &[a, b], &[]).is_err());
    }

    #[test]
    fn cshift_matches_fortran_convention() {
        let mut cm = machine();
        let a = cm.alloc_from(&[5], vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let s = cm.cshift(a, 0, 1).unwrap();
        assert_eq!(cm.read(s).unwrap(), vec![2.0, 3.0, 4.0, 5.0, 1.0]);
        let s = cm.cshift(a, 0, -1).unwrap();
        assert_eq!(cm.read(s).unwrap(), vec![5.0, 1.0, 2.0, 3.0, 4.0]);
        assert_eq!(cm.stats().comm_calls, 2);
        assert!(cm.stats().comm_cycles > 0);
    }

    #[test]
    fn cshift_2d_axes() {
        let mut cm = machine();
        let a = cm.alloc_from(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let rows = cm.cshift(a, 0, 1).unwrap();
        assert_eq!(cm.read(rows).unwrap(), vec![4.0, 5.0, 6.0, 1.0, 2.0, 3.0]);
        let cols = cm.cshift(a, 1, -1).unwrap();
        assert_eq!(cm.read(cols).unwrap(), vec![3.0, 1.0, 2.0, 6.0, 4.0, 5.0]);
    }

    #[test]
    fn eoshift_fills_boundary() {
        let mut cm = machine();
        let a = cm.alloc_from(&[4], vec![1.0, 2.0, 3.0, 4.0]);
        let s = cm.eoshift(a, 0, 2, 0.0).unwrap();
        assert_eq!(cm.read(s).unwrap(), vec![3.0, 4.0, 0.0, 0.0]);
    }

    #[test]
    fn eoshift_negative_shift_fills_from_the_front() {
        let mut cm = machine();
        let a = cm.alloc_from(&[4], vec![1.0, 2.0, 3.0, 4.0]);
        let s = cm.eoshift(a, 0, -1, -7.5).unwrap();
        assert_eq!(cm.read(s).unwrap(), vec![-7.5, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn eoshift_nonzero_boundary_on_2d_axes() {
        let mut cm = machine();
        let a = cm.alloc_from(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        // Shift whole rows up: the vacated row takes the boundary.
        let rows = cm.eoshift(a, 0, 1, 9.0).unwrap();
        assert_eq!(cm.read(rows).unwrap(), vec![4.0, 5.0, 6.0, 9.0, 9.0, 9.0]);
        // Shift columns right: the vacated column takes the boundary.
        let cols = cm.eoshift(a, 1, -1, 9.0).unwrap();
        assert_eq!(cm.read(cols).unwrap(), vec![9.0, 1.0, 2.0, 9.0, 4.0, 5.0]);
    }

    #[test]
    fn eoshift_overlong_shift_is_all_boundary() {
        let mut cm = machine();
        let a = cm.alloc_from(&[3], vec![1.0, 2.0, 3.0]);
        let s = cm.eoshift(a, 0, 5, 0.25).unwrap();
        assert_eq!(cm.read(s).unwrap(), vec![0.25, 0.25, 0.25]);
    }

    proptest::proptest! {
        /// The run-copying `shift_data` is the per-element formula, bit
        /// for bit: any rank-1..3 shape, any axis, shifts well past the
        /// extent, both boundary modes.
        #[test]
        fn shift_data_matches_the_per_element_formula(
            dims in proptest::collection::vec(1usize..6, 1..4),
            axis_pick in 0usize..3,
            shift in -20i64..20,
            end_off in proptest::any::<bool>(),
            fill in -9.0f64..9.0,
        ) {
            let axis = axis_pick % dims.len();
            let boundary = end_off.then_some(fill);
            let total: usize = dims.iter().product();
            // Distinct values with a NaN and a -0.0 among them: a move
            // must not canonicalise anything.
            let mut data: Vec<f64> = (0..total).map(|i| (i as f64 + 0.5) * -1.25).collect();
            data[0] = f64::NAN;
            data[total - 1] = -0.0;
            let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<u64>>();
            proptest::prop_assert_eq!(
                bits(shift_data(&data, &dims, axis, shift, boundary)),
                bits(shift_data_per_element(&data, &dims, axis, shift, boundary))
            );
        }
    }

    proptest::proptest! {
        /// The run-filling `coordinate_data` is the per-element formula,
        /// bit for bit: any rank-1..3 shape (empty axes included), every
        /// axis, lower bounds on both sides of zero.
        #[test]
        fn coordinate_data_matches_the_per_element_formula(
            dims in proptest::collection::vec(0usize..6, 1..4),
            lower in proptest::collection::vec(-40i64..40, 3),
        ) {
            let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<u64>>();
            for axis in 0..dims.len() {
                proptest::prop_assert_eq!(
                    bits(coordinate_data(&dims, &lower, axis)),
                    bits(coordinate_data_per_element(&dims, &lower, axis))
                );
            }
        }
    }

    #[test]
    fn shift_data_takes_empty_axes_and_extreme_shifts() {
        assert!(shift_data(&[], &[3, 0, 2], 1, 1, None).is_empty());
        assert!(shift_data(&[], &[0], 0, -1, Some(1.0)).is_empty());
        for shift in [i64::MIN, i64::MAX] {
            assert_eq!(shift_data(&[1.0, 2.0], &[2], 0, shift, Some(7.0)), [7.0; 2]);
        }
        // i64::MAX ≡ 1 (mod 3): a rotation by one.
        assert_eq!(
            shift_data(&[1.0, 2.0, 3.0], &[3], 0, i64::MAX, None),
            [2.0, 3.0, 1.0]
        );
    }

    #[test]
    fn shifts_along_unsplit_axes_are_cheaper() {
        // A tall array: all node splits land on axis 0, so axis-1
        // shifts stay node-local and cost only the runtime call plus
        // the local copy — no wire traffic.
        let mut cm = Cm2::new(Cm2Config::slicewise(16));
        let a = cm.alloc(&[1024, 4]);
        cm.cshift(a, 1, 1).unwrap();
        let cheap = cm.stats().comm_cycles;
        cm.reset_stats();
        cm.cshift(a, 0, 1).unwrap();
        let dear = cm.stats().comm_cycles;
        assert!(
            dear > cheap,
            "split-axis shift ({dear}) should out-cost node-local shift ({cheap})"
        );
    }

    #[test]
    fn reductions_reduce_and_charge() {
        let mut cm = machine();
        let a = cm.alloc_from(&[10], (1..=10).map(|i| i as f64).collect());
        assert_eq!(cm.reduce(a, ReduceOp::Sum).unwrap(), 55.0);
        assert_eq!(cm.reduce(a, ReduceOp::Max).unwrap(), 10.0);
        assert_eq!(cm.reduce(a, ReduceOp::Min).unwrap(), 1.0);
        assert_eq!(cm.stats().reductions, 3);
    }

    #[test]
    fn reductions_over_negative_values() {
        // MAX and MIN must not confuse magnitude with order, and SUM
        // must not drop sign.
        let mut cm = machine();
        let a = cm.alloc_from(&[4], vec![-3.0, -1.0, -4.0, -2.0]);
        assert_eq!(cm.reduce(a, ReduceOp::Sum).unwrap(), -10.0);
        assert_eq!(cm.reduce(a, ReduceOp::Max).unwrap(), -1.0);
        assert_eq!(cm.reduce(a, ReduceOp::Min).unwrap(), -4.0);
    }

    #[test]
    fn reductions_on_a_singleton() {
        let mut cm = machine();
        let a = cm.alloc_from(&[1], vec![6.5]);
        for op in [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min] {
            assert_eq!(cm.reduce(a, op).unwrap(), 6.5);
        }
    }

    #[test]
    fn coordinates_are_cached() {
        let mut cm = machine();
        let c1 = cm.coordinates(&[4, 4], &[1, 1], 0);
        let after_first = cm.stats().comm_cycles;
        let c2 = cm.coordinates(&[4, 4], &[1, 1], 0);
        assert_eq!(c1, c2);
        assert_eq!(cm.stats().comm_cycles, after_first, "second call is cached");
        let data = cm.read(c1).unwrap();
        assert_eq!(data[0], 1.0);
        assert_eq!(data[4], 2.0); // row 2
        let cc = cm.coordinates(&[4, 4], &[1, 1], 1);
        let data = cm.read(cc).unwrap();
        assert_eq!(data[0], 1.0);
        assert_eq!(data[1], 2.0); // column 2
    }

    #[test]
    fn flight_phases_tile_the_cycle_clock() {
        use f90y_obs::trace::TraceEvent as E;
        let mut cm = machine();
        cm.enable_flight_recorder();
        let a = cm.alloc_from(&[64], (0..64).map(|i| i as f64).collect());
        let b = cm.alloc(&[64]);
        cm.dispatch(&add_one_routine(), &[a, b], &[]).unwrap();
        cm.cshift(a, 0, 1).unwrap();
        cm.reduce(a, ReduceOp::Sum).unwrap();
        cm.host_read_elem(a, 0).unwrap();
        let phases: Vec<(String, u64, u64)> = cm
            .flight()
            .unwrap()
            .events()
            .iter()
            .filter_map(|e| match e {
                E::Phase {
                    label, start, end, ..
                } => Some((label.clone(), *start, *end)),
                _ => None,
            })
            .collect();
        let labels: Vec<&str> = phases.iter().map(|p| p.0.as_str()).collect();
        assert_eq!(labels, ["dispatch.inc", "news", "reduce", "host"]);
        // The clock only moves through charge_* calls, so consecutive
        // phases tile the cycle axis with no gaps or overlaps.
        assert_eq!(phases[0].1, 0);
        for w in phases.windows(2) {
            assert_eq!(w[1].1, w[0].2, "phase {} starts off-clock", w[1].0);
        }
        let s = cm.stats();
        assert_eq!(
            phases.last().unwrap().2,
            s.node_cycles() + s.host_cycles,
            "last phase ends at the final clock"
        );
    }

    #[test]
    fn opcode_profile_reconciles_with_cycle_profile_to_the_cycle() {
        let mut cm = machine();
        cm.enable_profile();
        cm.enable_opcode_profile();
        let a = cm.alloc_from(&[100], (0..100).map(|i| i as f64).collect());
        let b = cm.alloc(&[100]);
        let routine = add_one_routine();
        cm.dispatch(&routine, &[a, b], &[]).unwrap();
        cm.dispatch(&routine, &[b, a], &[]).unwrap();
        let ops = cm.opcode_profiles().unwrap();
        let hist = ops.get("inc").expect("routine profiled");
        let charged = cm
            .profile()
            .unwrap()
            .phase("dispatch.inc")
            .unwrap()
            .compute_cycles;
        assert!(charged > 0);
        assert_eq!(hist.total_cycles(), charged);
    }

    #[test]
    fn reset_stats_clears_flight_and_opcode_state() {
        let mut cm = machine();
        cm.enable_flight_recorder();
        cm.enable_opcode_profile();
        let a = cm.alloc(&[64]);
        let b = cm.alloc(&[64]);
        cm.dispatch(&add_one_routine(), &[a, b], &[]).unwrap();
        assert!(!cm.flight().unwrap().events().is_empty());
        assert!(!cm.opcode_profiles().unwrap().is_empty());
        cm.reset_stats();
        assert!(cm.flight().unwrap().events().is_empty());
        assert!(cm.opcode_profiles().unwrap().is_empty());
    }

    #[test]
    fn host_element_access_charges_host_and_wire() {
        let mut cm = machine();
        let a = cm.alloc_from(&[4], vec![9.0, 8.0, 7.0, 6.0]);
        assert_eq!(cm.host_read_elem(a, 2).unwrap(), 7.0);
        cm.host_write_elem(a, 0, 1.0).unwrap();
        assert_eq!(cm.read(a).unwrap()[0], 1.0);
        assert!(cm.stats().host_cycles > 0);
        assert!(cm.stats().comm_cycles > 0);
    }
}
