//! Device memory, kernel launches, transfers and accounting.
//!
//! The execution model is ForOpenCL's (PAPERS.md): the host program
//! runs on the front end and *directs* the device — every array lives in
//! device memory, every elementwise computation is a kernel launch, and
//! every byte the host touches crosses the host↔device bus as an
//! explicit transfer event on the simulated clock. That last point is
//! the deliberate departure from the CM targets: the CM/2 front end can
//! peek at PE memory as a free harness affordance, but on an
//! accelerator nothing crosses the bus free of charge — [`Accel::read`]
//! is a D2H transfer, [`Accel::write`] and `alloc_from` are H2D
//! transfers, and the differential suite runs with those costs on the
//! clock.
//!
//! Data is exact and shared with the CM/2 machine model: kernels run
//! through the same in-place dispatch (`f90y_cm2::dispatch`), shifts
//! use the reference [`f90y_cm2::runtime::shift_data`], and reductions
//! fold in canonical element order — so finals are bit-identical across
//! all three targets by construction, which `tests/target_differential`
//! asserts.

use std::cell::RefCell;
use std::collections::HashMap;

use f90y_backend::machine::Machine;
use f90y_cm2::dispatch::{check_write, dispatch_in_place, ArrayStore};
use f90y_cm2::runtime::{coordinate_data, shift_data};
use f90y_cm2::{Cm2Error, ReduceOp};
use f90y_obs::trace::{Actor, ClockDomain, Trace, TraceEvent as FlightEvent};
use f90y_peac::costs::{MEM_CYCLES, VOP_CYCLES};
use f90y_peac::isa::{Routine, VLEN};

use crate::config::AccelConfig;

/// Handle to an array living in (simulated) device memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeviceId(pub(crate) usize);

#[derive(Debug, Clone)]
struct DeviceArray {
    dims: Vec<usize>,
    lower: Vec<i64>,
    data: Vec<f64>,
}

/// Cycle, flop, launch and transfer accounting for one simulated run.
///
/// Device cycles split by what the device was doing — kernel bodies,
/// launch overhead, device-side communication, bus transfers — and sum
/// to the device's elapsed time ([`AccelStats::device_cycles`]); host
/// cycles accumulate separately at the host clock and serialise with
/// device time, the same conservative choice the CM/2 model makes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccelStats {
    /// Device cycles spent executing kernel bodies.
    pub kernel_cycles: u64,
    /// Device cycles of kernel-launch overhead (queue submission,
    /// argument binding).
    pub launch_cycles: u64,
    /// Device cycles in device-side communication and reductions
    /// (shifts, gathers, combine trees, coordinate generation).
    pub comm_cycles: u64,
    /// Device cycles moving bytes over the host↔device bus.
    pub transfer_cycles: u64,
    /// Host (front end) cycles.
    pub host_cycles: u64,
    /// Floating-point operations executed device-wide.
    pub flops: u64,
    /// Kernel launches.
    pub kernel_launches: u64,
    /// Host→device transfer calls.
    pub h2d_transfers: u64,
    /// Bytes moved host→device.
    pub h2d_bytes: u64,
    /// Device→host transfer calls.
    pub d2h_transfers: u64,
    /// Bytes moved device→host.
    pub d2h_bytes: u64,
    /// Device-side communication calls (shifts and gathers).
    pub comm_calls: u64,
    /// Reduction calls.
    pub reductions: u64,
}

impl AccelStats {
    /// Total device cycles (the device's elapsed time).
    pub fn device_cycles(&self) -> u64 {
        self.kernel_cycles + self.launch_cycles + self.comm_cycles + self.transfer_cycles
    }

    /// Elapsed seconds: device time plus host time, serialised.
    pub fn elapsed_seconds(&self, config: &AccelConfig) -> f64 {
        self.device_cycles() as f64 / config.costs.device_clock_hz
            + self.host_cycles as f64 / config.costs.host_clock_hz
    }

    /// Sustained GFLOPS over the run.
    pub fn gflops(&self, config: &AccelConfig) -> f64 {
        let secs = self.elapsed_seconds(config);
        if secs == 0.0 {
            0.0
        } else {
            self.flops as f64 / secs / 1e9
        }
    }

    /// Check internal consistency: transfer byte counts agree with the
    /// call counts' minimum sizes, and categories are self-consistent.
    ///
    /// # Errors
    ///
    /// Returns which invariant failed.
    pub fn verify(&self) -> Result<(), String> {
        if self.h2d_bytes < self.h2d_transfers * 8 {
            return Err(format!(
                "h2d bytes ({}) below one element per transfer ({})",
                self.h2d_bytes, self.h2d_transfers
            ));
        }
        if self.d2h_bytes < self.d2h_transfers * 8 {
            return Err(format!(
                "d2h bytes ({}) below one element per transfer ({})",
                self.d2h_bytes, self.d2h_transfers
            ));
        }
        if self.kernel_launches > 0 && self.launch_cycles == 0 {
            return Err("kernels launched but no launch overhead charged".into());
        }
        Ok(())
    }
}

/// Interior-mutable accounting: [`Accel::read`] is `&self` by the
/// [`Machine`] trait's signature but must still put a D2H transfer on
/// the clock, so stats and the flight recorder live behind a `RefCell`.
#[derive(Debug, Default)]
struct AccelState {
    stats: AccelStats,
    flight: Option<Trace>,
}

/// A simulated accelerator: configuration, device memory, accounting.
#[derive(Debug)]
pub struct Accel {
    config: AccelConfig,
    arrays: Vec<Option<DeviceArray>>,
    coord_cache: HashMap<(Vec<usize>, Vec<i64>, usize), DeviceId>,
    state: RefCell<AccelState>,
}

impl Accel {
    /// A device with the given configuration.
    pub fn new(config: AccelConfig) -> Self {
        Accel {
            config,
            arrays: Vec::new(),
            coord_cache: HashMap::new(),
            state: RefCell::new(AccelState::default()),
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &AccelConfig {
        &self.config
    }

    /// Accounting so far.
    pub fn stats(&self) -> AccelStats {
        self.state.borrow().stats
    }

    /// Start the flight recorder (clears any previous flight trace).
    /// Events are stamped with the device's deterministic cycle clock.
    pub fn enable_flight_recorder(&mut self) {
        self.state.borrow_mut().flight = Some(Trace::new(ClockDomain::Cycle));
    }

    /// Take ownership of the flight-recorder trace, leaving it disabled.
    pub fn take_flight(&mut self) -> Option<Trace> {
        self.state.borrow_mut().flight.take()
    }

    /// The flight recorder's clock: all simulated cycles charged so far
    /// (device cycles plus host cycles).
    fn flight_clock(&self) -> u64 {
        let s = &self.state.borrow().stats;
        s.device_cycles() + s.host_cycles
    }

    /// Record a phase slice spanning from `start` (a clock captured
    /// before charging) to the current clock. Because every cycle is
    /// charged between a `flight_clock()` capture and the matching
    /// `flight_phase`, phases tile the clock with no gaps.
    fn flight_phase(&self, actor: Actor, label: &str, start: u64) {
        let end = self.flight_clock();
        if let Some(t) = &mut self.state.borrow_mut().flight {
            t.record(FlightEvent::Phase {
                actor,
                label: label.to_string(),
                start,
                end,
            });
        }
    }

    /// The per-unit kernel loop trip count for `total` elements:
    /// elements divide blockwise over the compute units, and each unit
    /// strides its share in `VLEN`-lane vectors (the same virtual-
    /// subgrid looping the CM targets use, with units in place of PEs).
    fn iterations(&self, total: usize) -> u64 {
        let per_unit = total.div_ceil(self.config.compute_units);
        per_unit.div_ceil(VLEN) as u64
    }

    fn array(&self, id: DeviceId) -> Result<&DeviceArray, Cm2Error> {
        self.arrays
            .get(id.0)
            .and_then(Option::as_ref)
            .ok_or_else(|| Cm2Error::Runtime(format!("unknown array {id:?}")))
    }

    fn array_mut(&mut self, id: DeviceId) -> Result<&mut DeviceArray, Cm2Error> {
        self.arrays
            .get_mut(id.0)
            .and_then(Option::as_mut)
            .ok_or_else(|| Cm2Error::Runtime(format!("unknown array {id:?}")))
    }

    /// Allocate a zeroed device array (device-side, nothing crosses the
    /// bus).
    pub fn alloc_device(&mut self, dims: &[usize], lower: &[i64]) -> DeviceId {
        let total = dims.iter().product();
        self.adopt(dims.to_vec(), lower.to_vec(), vec![0.0; total])
    }

    /// A new device array that owns `data` as its elements (nothing
    /// crosses the bus: the caller charges what producing `data` cost).
    fn adopt(&mut self, dims: Vec<usize>, lower: Vec<i64>, data: Vec<f64>) -> DeviceId {
        let id = DeviceId(self.arrays.len());
        self.arrays.push(Some(DeviceArray { dims, lower, data }));
        id
    }

    /// Live device arrays other than the cached coordinate subgrids:
    /// what a program has allocated and not yet freed or taken.
    pub fn program_arrays(&self) -> usize {
        let live = self.arrays.iter().enumerate().filter(|(_, a)| a.is_some());
        live.filter(|&(i, _)| !self.coord_cache.values().any(|c| c.0 == i))
            .count()
    }

    /// Charge one host→device transfer of `elems` elements.
    fn charge_h2d(&self, elems: usize) {
        let t0 = self.flight_clock();
        {
            let s = &mut self.state.borrow_mut().stats;
            s.transfer_cycles += self.config.costs.transfer_setup_cycles
                + elems as u64 * self.config.costs.transfer_cycles_per_elem;
            s.h2d_transfers += 1;
            s.h2d_bytes += elems as u64 * 8;
        }
        self.flight_phase(Actor::Host, "h2d", t0);
    }

    /// Charge one device→host transfer of `elems` elements.
    fn charge_d2h(&self, elems: usize) {
        let t0 = self.flight_clock();
        {
            let s = &mut self.state.borrow_mut().stats;
            s.transfer_cycles += self.config.costs.transfer_setup_cycles
                + elems as u64 * self.config.costs.transfer_cycles_per_elem;
            s.d2h_transfers += 1;
            s.d2h_bytes += elems as u64 * 8;
        }
        self.flight_phase(Actor::Host, "d2h", t0);
    }

    /// Launch a kernel: run the PEAC routine in place over the device
    /// arrays (the exact arithmetic, and the exact data plane, every
    /// target executes), charge launch overhead plus the per-unit loop
    /// cost.
    ///
    /// # Errors
    ///
    /// Fails on stale handles, mismatched extents or PEAC faults — the
    /// same contract, with the same messages, as the CM/2 dispatch.
    pub fn launch(
        &mut self,
        routine: &Routine,
        ptr_args: &[DeviceId],
        scalar_args: &[f64],
    ) -> Result<(), Cm2Error> {
        let total = dispatch_in_place(self, routine, ptr_args, scalar_args)?;
        let kernel = routine.kernel();
        let iters = self.iterations(total);
        let nargs = (routine.nargs_ptr() + routine.nargs_scalar()) as u64;
        let t0 = self.flight_clock();
        {
            let s = &mut self.state.borrow_mut().stats;
            s.launch_cycles += self.config.costs.kernel_launch_cycles
                + self.config.costs.launch_per_arg_cycles * nargs;
            s.kernel_cycles += kernel.body_cycles() * iters;
            s.kernel_launches += 1;
            s.flops += kernel.flops_per_elem() * total as u64;
        }
        self.flight_phase(Actor::Machine, kernel.kernel_label(), t0);
        Ok(())
    }

    fn shift(
        &mut self,
        src: DeviceId,
        axis: usize,
        shift: i64,
        boundary: Option<f64>,
    ) -> Result<DeviceId, Cm2Error> {
        let kind = if boundary.is_none() {
            "cshift"
        } else {
            "eoshift"
        };
        let arr = self.array(src)?;
        if axis >= arr.dims.len() {
            return Err(Cm2Error::Runtime(format!(
                "{kind} axis {axis} out of range for rank {}",
                arr.dims.len()
            )));
        }
        let shifted = shift_data(&arr.data, &arr.dims, axis, shift, boundary);
        let total = shifted.len();
        let id = self.adopt(arr.dims.clone(), arr.lower.clone(), shifted);
        // Device-to-device: a structured copy kernel, no bus traffic.
        let iters = self.iterations(total);
        let t0 = self.flight_clock();
        {
            let s = &mut self.state.borrow_mut().stats;
            s.comm_cycles += self.config.costs.comm_call_cycles + 2 * iters * MEM_CYCLES;
            s.comm_calls += 1;
        }
        self.flight_phase(Actor::Machine, "shift", t0);
        Ok(id)
    }
}

impl ArrayStore for Accel {
    type Id = DeviceId;

    fn data_mut(&mut self, id: DeviceId) -> Result<&mut Vec<f64>, Cm2Error> {
        Ok(&mut self.array_mut(id)?.data)
    }
}

impl Machine for Accel {
    type Id = DeviceId;

    fn alloc_with_bounds(&mut self, dims: &[usize], lower: &[i64]) -> DeviceId {
        self.alloc_device(dims, lower)
    }

    fn alloc_from(&mut self, dims: &[usize], data: Vec<f64>) -> DeviceId {
        let total: usize = dims.iter().product();
        assert_eq!(data.len(), total, "data length must match extents");
        let id = self.adopt(dims.to_vec(), vec![1; dims.len()], data);
        self.charge_h2d(total);
        id
    }

    fn free(&mut self, id: DeviceId) -> Result<(), Cm2Error> {
        let slot = self
            .arrays
            .get_mut(id.0)
            .ok_or_else(|| Cm2Error::Runtime(format!("unknown array {id:?}")))?;
        if slot.take().is_none() {
            return Err(Cm2Error::Runtime(format!("double free of {id:?}")));
        }
        Ok(())
    }

    fn read(&self, id: DeviceId) -> Result<Vec<f64>, Cm2Error> {
        let data = self.array(id)?.data.clone();
        self.charge_d2h(data.len());
        Ok(data)
    }

    fn write(&mut self, id: DeviceId, data: &[f64]) -> Result<(), Cm2Error> {
        let arr = self.array_mut(id)?;
        check_write(data.len(), arr.data.len())?;
        arr.data.copy_from_slice(data);
        self.charge_h2d(data.len());
        Ok(())
    }

    fn assign(&mut self, dst: DeviceId, tmp: DeviceId) -> Result<(), Cm2Error> {
        // The transfers `read(tmp)` then `write(dst, …)` put on the
        // clock, around the same checks in the same order; the elements
        // themselves never leave the device, so the buffer just moves.
        let moving = self.array(tmp)?.data.len();
        self.charge_d2h(moving);
        check_write(moving, self.array(dst)?.data.len())?;
        let data = self.arrays[tmp.0].take().expect("live above").data;
        if dst != tmp {
            self.array_mut(dst)?.data = data;
        }
        self.charge_h2d(moving);
        Ok(())
    }

    fn take(&mut self, id: DeviceId) -> Result<Vec<f64>, Cm2Error> {
        let data = self
            .arrays
            .get_mut(id.0)
            .and_then(Option::take)
            .map(|a| a.data)
            .ok_or_else(|| Cm2Error::Runtime(format!("unknown array {id:?}")))?;
        self.charge_d2h(data.len());
        Ok(data)
    }

    fn dispatch(
        &mut self,
        routine: &Routine,
        ptr_args: &[DeviceId],
        scalar_args: &[f64],
    ) -> Result<(), Cm2Error> {
        self.launch(routine, ptr_args, scalar_args)
    }

    fn cshift(&mut self, src: DeviceId, axis: usize, shift: i64) -> Result<DeviceId, Cm2Error> {
        self.shift(src, axis, shift, None)
    }

    fn eoshift(
        &mut self,
        src: DeviceId,
        axis: usize,
        shift: i64,
        boundary: f64,
    ) -> Result<DeviceId, Cm2Error> {
        self.shift(src, axis, shift, Some(boundary))
    }

    fn reduce(&mut self, src: DeviceId, op: ReduceOp) -> Result<f64, Cm2Error> {
        // Canonical element order, exactly as the CM/2 folds (and as
        // the CM/5 combine trees reproduce): bit-identical results.
        let (value, total) = {
            let arr = self.array(src)?;
            let v = match op {
                ReduceOp::Sum => arr.data.iter().sum(),
                ReduceOp::Max => arr.data.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                ReduceOp::Min => arr.data.iter().copied().fold(f64::INFINITY, f64::min),
            };
            (v, arr.data.len())
        };
        let iters = self.iterations(total);
        let units = self.config.compute_units;
        let t0 = self.flight_clock();
        {
            let s = &mut self.state.borrow_mut().stats;
            s.comm_cycles += self.config.costs.comm_call_cycles
                + iters * (MEM_CYCLES + VOP_CYCLES)
                + u64::from(units.max(2).trailing_zeros()) * VOP_CYCLES;
            s.reductions += 1;
        }
        self.flight_phase(Actor::Machine, "reduce", t0);
        // The scalar result crosses the bus to the host.
        self.charge_d2h(1);
        Ok(value)
    }

    fn coordinates(&mut self, dims: &[usize], lower: &[i64], axis: usize) -> DeviceId {
        let key = (dims.to_vec(), lower.to_vec(), axis);
        if let Some(&id) = self.coord_cache.get(&key) {
            return id;
        }
        let data = coordinate_data(dims, lower, axis);
        let iters = self.iterations(data.len());
        let t0 = self.flight_clock();
        {
            let s = &mut self.state.borrow_mut().stats;
            s.comm_cycles += self.config.costs.comm_call_cycles + iters * (VOP_CYCLES + MEM_CYCLES);
            s.comm_calls += 1;
        }
        self.flight_phase(Actor::Machine, "coord", t0);
        let id = self.adopt(dims.to_vec(), lower.to_vec(), data);
        self.coord_cache.insert(key, id);
        id
    }

    fn charge_router_move(&mut self, id: DeviceId) -> Result<(), Cm2Error> {
        // A general gather: arbitrary addressing defeats coalescing, so
        // each unit's share pays the manifest's gather factor per
        // element on top of the call overhead.
        let total = self.array(id)?.data.len();
        let per_unit = total.div_ceil(self.config.compute_units) as u64;
        let t0 = self.flight_clock();
        {
            let s = &mut self.state.borrow_mut().stats;
            s.comm_cycles +=
                self.config.costs.comm_call_cycles + per_unit * self.config.costs.gather_factor;
            s.comm_calls += 1;
        }
        self.flight_phase(Actor::Machine, "gather", t0);
        Ok(())
    }

    fn charge_host_ops(&mut self, n: u64) {
        let t0 = self.flight_clock();
        self.state.borrow_mut().stats.host_cycles += n * self.config.costs.host_op_cycles;
        self.flight_phase(Actor::Host, "host", t0);
    }

    fn host_read_elem(&mut self, id: DeviceId, flat: usize) -> Result<f64, Cm2Error> {
        let arr = self.array(id)?;
        let v = *arr
            .data
            .get(flat)
            .ok_or_else(|| Cm2Error::Runtime(format!("element {flat} out of range")))?;
        let t0 = self.flight_clock();
        self.state.borrow_mut().stats.host_cycles += self.config.costs.host_op_cycles;
        self.flight_phase(Actor::Host, "host", t0);
        self.charge_d2h(1);
        Ok(v)
    }

    fn host_write_elem(&mut self, id: DeviceId, flat: usize, v: f64) -> Result<(), Cm2Error> {
        let t0 = self.flight_clock();
        self.state.borrow_mut().stats.host_cycles += self.config.costs.host_op_cycles;
        self.flight_phase(Actor::Host, "host", t0);
        self.charge_h2d(1);
        let arr = self.array_mut(id)?;
        let slot = arr
            .data
            .get_mut(flat)
            .ok_or_else(|| Cm2Error::Runtime(format!("element {flat} out of range")))?;
        *slot = v;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f90y_peac::isa::{Instr, Mem, Operand, VReg};

    fn device() -> Accel {
        Accel::new(AccelConfig::new(16))
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
    fn launch_computes_and_charges() {
        let mut dev = device();
        let a = dev.alloc_from(&[64], (0..64).map(|i| i as f64).collect());
        let b = dev.alloc(&[64]);
        dev.dispatch(&add_one_routine(), &[a, b], &[]).unwrap();
        let out = dev.read(b).unwrap();
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i as f64 + 1.0);
        }
        let s = dev.stats();
        assert_eq!(s.kernel_launches, 1);
        assert!(s.kernel_cycles > 0);
        assert!(s.launch_cycles > 0);
        assert_eq!(s.flops, 64);
        s.verify().expect("stats invariants");
    }

    #[test]
    fn every_host_touch_is_a_transfer() {
        let mut dev = device();
        // alloc_from = H2D; read = D2H; write = H2D; element access =
        // one-element transfers. Nothing crosses the bus free.
        let a = dev.alloc_from(&[32], vec![0.5; 32]);
        assert_eq!(dev.stats().h2d_transfers, 1);
        assert_eq!(dev.stats().h2d_bytes, 32 * 8);
        dev.read(a).unwrap();
        assert_eq!(dev.stats().d2h_transfers, 1);
        assert_eq!(dev.stats().d2h_bytes, 32 * 8);
        dev.write(a, &[1.0; 32]).unwrap();
        assert_eq!(dev.stats().h2d_transfers, 2);
        dev.host_read_elem(a, 3).unwrap();
        assert_eq!(dev.stats().d2h_transfers, 2);
        assert_eq!(dev.stats().d2h_bytes, 32 * 8 + 8);
        dev.host_write_elem(a, 0, 2.0).unwrap();
        assert_eq!(dev.stats().h2d_transfers, 3);
        assert!(dev.stats().transfer_cycles > 0);
        dev.stats().verify().expect("stats invariants");
    }

    #[test]
    fn device_data_plane_matches_the_cm2_bit_for_bit() {
        // Same routine, same shifts, same reductions on both machines:
        // finals must agree to the bit (the three-way differential's
        // foundation, in miniature).
        let mut dev = device();
        let mut cm = f90y_cm2::Cm2::new(f90y_cm2::Cm2Config::slicewise(16));
        let init: Vec<f64> = (0..60).map(|i| (i as f64).sin()).collect();
        let da = dev.alloc_from(&[6, 10], init.clone());
        let db = dev.alloc(&[6, 10]);
        let ca = cm.alloc_from(&[6, 10], init);
        let cb = cm.alloc(&[6, 10]);
        dev.dispatch(&add_one_routine(), &[da, db], &[]).unwrap();
        cm.dispatch(&add_one_routine(), &[ca, cb], &[]).unwrap();
        let ds = dev.cshift(db, 1, -3).unwrap();
        let cs = cm.cshift(cb, 1, -3).unwrap();
        assert_eq!(dev.read(ds).unwrap(), cm.read(cs).unwrap());
        let de = dev.eoshift(db, 0, 2, -1.5).unwrap();
        let ce = cm.eoshift(cb, 0, 2, -1.5).unwrap();
        assert_eq!(dev.read(de).unwrap(), cm.read(ce).unwrap());
        for op in [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min] {
            assert_eq!(
                dev.reduce(db, op).unwrap().to_bits(),
                cm.reduce(cb, op).unwrap().to_bits()
            );
        }
        let dc = Machine::coordinates(&mut dev, &[6, 10], &[1, 1], 0);
        let cc = cm.coordinates(&[6, 10], &[1, 1], 0);
        assert_eq!(dev.read(dc).unwrap(), cm.read(cc).unwrap());
    }

    #[test]
    fn dispatch_contract_matches_the_cm2() {
        let mut dev = device();
        let a = dev.alloc(&[64]);
        let b = dev.alloc(&[32]);
        let err = dev
            .dispatch(&add_one_routine(), &[a, b], &[])
            .expect_err("mismatched extents");
        assert!(err.to_string().contains("disagree on element count"));
        let err = dev
            .dispatch(&add_one_routine(), &[], &[])
            .expect_err("no array args");
        assert!(err.to_string().contains("at least one array argument"));
    }

    #[test]
    fn free_invalidates_handles() {
        let mut dev = device();
        let a = dev.alloc(&[8]);
        dev.free(a).unwrap();
        assert!(dev.read(a).is_err());
        let err = dev.free(a).expect_err("double free");
        assert!(err.to_string().contains("double free"));
    }

    #[test]
    fn more_units_fewer_kernel_cycles() {
        let mut small = Accel::new(AccelConfig::new(4));
        let mut large = Accel::new(AccelConfig::new(64));
        for dev in [&mut small, &mut large] {
            let a = dev.alloc(&[4096]);
            let b = dev.alloc(&[4096]);
            dev.dispatch(&add_one_routine(), &[a, b], &[]).unwrap();
        }
        assert!(small.stats().kernel_cycles > large.stats().kernel_cycles);
        assert_eq!(small.stats().flops, large.stats().flops);
    }

    #[test]
    fn coordinates_are_cached_and_charged_once() {
        let mut dev = device();
        let c1 = Machine::coordinates(&mut dev, &[4, 4], &[1, 1], 1);
        let after = dev.stats().comm_cycles;
        let c2 = Machine::coordinates(&mut dev, &[4, 4], &[1, 1], 1);
        assert_eq!(c1, c2);
        assert_eq!(dev.stats().comm_cycles, after);
    }

    #[test]
    fn flight_phases_tile_the_device_clock() {
        use f90y_obs::trace::TraceEvent as E;
        let mut dev = device();
        dev.enable_flight_recorder();
        let a = dev.alloc_from(&[64], (0..64).map(|i| i as f64).collect());
        let b = dev.alloc(&[64]);
        dev.dispatch(&add_one_routine(), &[a, b], &[]).unwrap();
        dev.cshift(a, 0, 1).unwrap();
        dev.reduce(a, ReduceOp::Sum).unwrap();
        dev.charge_host_ops(2);
        let trace = dev.take_flight().unwrap();
        let phases: Vec<(String, u64, u64)> = trace
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
        assert_eq!(
            labels,
            ["h2d", "kernel.inc", "shift", "reduce", "d2h", "host"]
        );
        assert_eq!(phases[0].1, 0);
        for w in phases.windows(2) {
            assert_eq!(w[1].1, w[0].2, "phase {} starts off-clock", w[1].0);
        }
        let s = dev.stats();
        assert_eq!(
            phases.last().unwrap().2,
            s.device_cycles() + s.host_cycles,
            "last phase ends at the final clock"
        );
    }
}
