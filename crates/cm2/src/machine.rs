//! CM arrays, machine state and accounting.

use std::collections::{BTreeMap, HashMap};

use f90y_obs::trace::{Actor, ClockDomain, Trace, TraceEvent as FlightEvent};
use f90y_peac::profile::OpcodeProfile;

use crate::config::Cm2Config;
use crate::costs;
use crate::dispatch::check_write;
use crate::layout::Layout;
use crate::Cm2Error;

/// Handle to an array living in (simulated) CM memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArrayId(pub(crate) usize);

#[derive(Debug, Clone)]
pub(crate) struct CmArray {
    /// Per-axis extents (row-major storage).
    pub dims: Vec<usize>,
    /// Per-axis inclusive lower bounds (Fortran bounds for coordinate
    /// generation).
    pub lower: Vec<i64>,
    /// The elements.
    pub data: Vec<f64>,
}

/// Cycle, flop and call accounting for one simulated run.
///
/// The machine executes in SIMD lockstep, so `node_cycles` — per-node
/// busy cycles summed over operations — is the machine's elapsed time in
/// cycles. Host cycles accumulate separately at the host clock; the
/// model serialises host and CM time (a conservative choice the
/// host-fraction experiment quantifies).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MachineStats {
    /// Per-node CM cycles spent in dispatched computation.
    pub compute_cycles: u64,
    /// Per-node CM cycles spent in communication and reductions.
    pub comm_cycles: u64,
    /// Per-node CM cycles spent in dispatch/IFIFO overhead.
    pub dispatch_overhead_cycles: u64,
    /// Host (front end) cycles.
    pub host_cycles: u64,
    /// Floating-point operations executed machine-wide.
    pub flops: u64,
    /// PEAC routine dispatches.
    pub dispatches: u64,
    /// Communication runtime calls.
    pub comm_calls: u64,
    /// Reduction runtime calls.
    pub reductions: u64,
}

impl MachineStats {
    /// Total per-node CM cycles.
    pub fn node_cycles(&self) -> u64 {
        self.compute_cycles + self.comm_cycles + self.dispatch_overhead_cycles
    }

    /// Elapsed seconds: CM time plus host time, serialised.
    pub fn elapsed_seconds(&self, clock_hz: f64) -> f64 {
        self.node_cycles() as f64 / clock_hz + self.host_cycles as f64 / costs::HOST_CLOCK_HZ
    }

    /// Sustained GFLOPS over the run.
    pub fn gflops(&self, clock_hz: f64) -> f64 {
        let secs = self.elapsed_seconds(clock_hz);
        if secs == 0.0 {
            0.0
        } else {
            self.flops as f64 / secs / 1e9
        }
    }

    /// Fraction of elapsed time spent on the host.
    pub fn host_fraction(&self, clock_hz: f64) -> f64 {
        let total = self.elapsed_seconds(clock_hz);
        if total == 0.0 {
            0.0
        } else {
            (self.host_cycles as f64 / costs::HOST_CLOCK_HZ) / total
        }
    }
}

/// Cycles one phase charged, split by the same categories as
/// [`MachineStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseCycles {
    /// Per-node CM cycles of dispatched computation.
    pub compute_cycles: u64,
    /// Per-node CM cycles of communication and reductions.
    pub comm_cycles: u64,
    /// Per-node CM cycles of dispatch/IFIFO overhead.
    pub dispatch_overhead_cycles: u64,
    /// Host (front end) cycles.
    pub host_cycles: u64,
}

impl PhaseCycles {
    /// Total per-node CM cycles this phase charged.
    pub fn node_cycles(&self) -> u64 {
        self.compute_cycles + self.comm_cycles + self.dispatch_overhead_cycles
    }
}

/// Per-phase cycle attribution: every cycle a run charges to
/// [`MachineStats`] is also charged here under a phase tag (the
/// dispatched routine's name, or a runtime-call category such as
/// `news`, `router`, `reduce`, `coord`, `host`). Because all stat
/// mutation is routed through the `charge_*` helpers, the per-phase
/// cycles sum exactly to the totals — no lost or double-counted
/// cycles, which `verify_against` asserts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CycleProfile {
    phases: BTreeMap<String, PhaseCycles>,
}

impl CycleProfile {
    /// The named phase's cycles, if the phase charged anything.
    pub fn phase(&self, name: &str) -> Option<&PhaseCycles> {
        self.phases.get(name)
    }

    /// All phases, sorted by name.
    pub fn phases(&self) -> impl Iterator<Item = (&str, &PhaseCycles)> {
        self.phases.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Compute cycles summed over phases.
    pub fn compute_total(&self) -> u64 {
        self.phases.values().map(|p| p.compute_cycles).sum()
    }

    /// Communication cycles summed over phases.
    pub fn comm_total(&self) -> u64 {
        self.phases.values().map(|p| p.comm_cycles).sum()
    }

    /// Dispatch-overhead cycles summed over phases.
    pub fn dispatch_overhead_total(&self) -> u64 {
        self.phases
            .values()
            .map(|p| p.dispatch_overhead_cycles)
            .sum()
    }

    /// Host cycles summed over phases.
    pub fn host_total(&self) -> u64 {
        self.phases.values().map(|p| p.host_cycles).sum()
    }

    /// Check the attribution invariant: per-phase sums equal the
    /// machine totals in every category.
    ///
    /// # Errors
    ///
    /// Returns which category diverged, with both values.
    pub fn verify_against(&self, stats: &MachineStats) -> Result<(), String> {
        let checks = [
            ("compute_cycles", self.compute_total(), stats.compute_cycles),
            ("comm_cycles", self.comm_total(), stats.comm_cycles),
            (
                "dispatch_overhead_cycles",
                self.dispatch_overhead_total(),
                stats.dispatch_overhead_cycles,
            ),
            ("host_cycles", self.host_total(), stats.host_cycles),
        ];
        for (name, profiled, total) in checks {
            if profiled != total {
                return Err(format!(
                    "cycle profile diverges on {name}: phases sum to {profiled}, \
                     machine total is {total}"
                ));
            }
        }
        Ok(())
    }

    fn entry(&mut self, phase: &str) -> &mut PhaseCycles {
        // A plain `entry(phase.to_string())` would allocate on every
        // charge; profile maps are small, so probe first.
        if !self.phases.contains_key(phase) {
            self.phases
                .insert(phase.to_string(), PhaseCycles::default());
        }
        self.phases.get_mut(phase).expect("just inserted")
    }
}

/// One machine-level event, recorded when tracing is enabled. Traces
/// let retargeting studies replay a run under a different cost model
/// without re-executing ([`f90y_hal::replay()`]). The event vocabulary
/// lives in the HAL so any machine can emit replay traces; re-exported
/// here under its historical path.
pub use f90y_hal::TraceEvent;

/// A simulated CM/2: configuration, CM memory, and accounting.
#[derive(Debug)]
pub struct Cm2 {
    pub(crate) config: Cm2Config,
    pub(crate) arrays: Vec<Option<CmArray>>,
    pub(crate) coord_cache: HashMap<(Vec<usize>, Vec<i64>, usize), ArrayId>,
    pub(crate) stats: MachineStats,
    pub(crate) trace: Option<Vec<TraceEvent>>,
    pub(crate) profile: Option<CycleProfile>,
    /// The flight recorder: cycle-clocked phase events for the obs
    /// trace layer (distinct from `trace`, the estimator replay log).
    pub(crate) flight: Option<Trace>,
    /// Per-routine opcode histograms, recorded at dispatch time.
    pub(crate) opcodes: Option<BTreeMap<String, OpcodeProfile>>,
    /// Compute cycles accumulated since the last communication call,
    /// available to hide pipelined communication behind (§5.3.2 model).
    pub(crate) overlap_pool: u64,
}

impl Cm2 {
    /// A machine with the given configuration.
    pub fn new(config: Cm2Config) -> Self {
        Cm2 {
            config,
            arrays: Vec::new(),
            coord_cache: HashMap::new(),
            stats: MachineStats::default(),
            trace: None,
            profile: None,
            flight: None,
            opcodes: None,
            overlap_pool: 0,
        }
    }

    /// Start recording machine events (clears any previous trace). The
    /// first event always identifies the traced machine's node count.
    pub fn enable_trace(&mut self) {
        self.trace = Some(vec![TraceEvent::Machine {
            nodes: self.config.nodes,
        }]);
    }

    /// The recorded events, if tracing was enabled.
    pub fn trace(&self) -> Option<&[TraceEvent]> {
        self.trace.as_deref()
    }

    /// Start per-phase cycle attribution (clears any previous profile).
    pub fn enable_profile(&mut self) {
        self.profile = Some(CycleProfile::default());
    }

    /// The cycle profile, if profiling was enabled.
    pub fn profile(&self) -> Option<&CycleProfile> {
        self.profile.as_ref()
    }

    /// Start the flight recorder (clears any previous flight trace).
    /// Events are stamped with the machine's deterministic cycle clock.
    pub fn enable_flight_recorder(&mut self) {
        self.flight = Some(Trace::new(ClockDomain::Cycle));
    }

    /// The flight-recorder trace, if enabled.
    pub fn flight(&self) -> Option<&Trace> {
        self.flight.as_ref()
    }

    /// Take ownership of the flight-recorder trace, leaving it disabled.
    pub fn take_flight(&mut self) -> Option<Trace> {
        self.flight.take()
    }

    /// Start per-routine opcode profiling (clears any previous map).
    pub fn enable_opcode_profile(&mut self) {
        self.opcodes = Some(BTreeMap::new());
    }

    /// Per-routine opcode histograms, if opcode profiling was enabled.
    /// Each routine's cycle sum equals the compute cycles the machine
    /// charged for that routine's dispatches, to the cycle.
    pub fn opcode_profiles(&self) -> Option<&BTreeMap<String, OpcodeProfile>> {
        self.opcodes.as_ref()
    }

    /// The flight recorder's clock: all simulated cycles charged so far
    /// (PE-array node cycles plus host cycles).
    pub(crate) fn flight_clock(&self) -> u64 {
        self.stats.node_cycles() + self.stats.host_cycles
    }

    /// Record a phase slice on the flight recorder spanning from
    /// `start` (a clock captured before charging) to the current clock.
    pub(crate) fn flight_phase(&mut self, actor: Actor, label: &str, start: u64) {
        let end = self.flight_clock();
        if let Some(t) = &mut self.flight {
            t.record(FlightEvent::Phase {
                actor,
                label: label.to_string(),
                start,
                end,
            });
        }
    }

    pub(crate) fn record(&mut self, e: TraceEvent) {
        if let Some(t) = &mut self.trace {
            t.push(e);
        }
    }

    // Every cycle charged to `stats` goes through one of these four
    // helpers, which mirror the charge into the phase profile. Keeping
    // this the only mutation path is what makes the profile's
    // sums-to-total invariant structural rather than accidental.

    /// Charge dispatched-computation cycles to a phase.
    pub(crate) fn charge_compute(&mut self, phase: &str, cycles: u64) {
        self.stats.compute_cycles += cycles;
        if let Some(p) = &mut self.profile {
            p.entry(phase).compute_cycles += cycles;
        }
    }

    /// Charge communication cycles to a phase.
    pub(crate) fn charge_comm(&mut self, phase: &str, cycles: u64) {
        self.stats.comm_cycles += cycles;
        if let Some(p) = &mut self.profile {
            p.entry(phase).comm_cycles += cycles;
        }
    }

    /// Charge dispatch/IFIFO overhead cycles to a phase.
    pub(crate) fn charge_dispatch_overhead(&mut self, phase: &str, cycles: u64) {
        self.stats.dispatch_overhead_cycles += cycles;
        if let Some(p) = &mut self.profile {
            p.entry(phase).dispatch_overhead_cycles += cycles;
        }
    }

    /// Charge host cycles to a phase.
    pub(crate) fn charge_host(&mut self, phase: &str, cycles: u64) {
        self.stats.host_cycles += cycles;
        if let Some(p) = &mut self.profile {
            p.entry(phase).host_cycles += cycles;
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &Cm2Config {
        &self.config
    }

    /// Accounting so far.
    pub fn stats(&self) -> MachineStats {
        self.stats
    }

    /// Reset the accounting (arrays survive). An enabled cycle profile
    /// is cleared with the stats so the sums-to-total invariant holds;
    /// likewise the flight recorder and opcode histograms, whose clocks
    /// and totals are derived from the stats.
    pub fn reset_stats(&mut self) {
        self.stats = MachineStats::default();
        if let Some(p) = &mut self.profile {
            *p = CycleProfile::default();
        }
        if let Some(t) = &mut self.flight {
            *t = Trace::new(ClockDomain::Cycle);
        }
        if let Some(m) = &mut self.opcodes {
            m.clear();
        }
    }

    /// Allocate a zeroed CM array with the given extents and unit lower
    /// bounds.
    pub fn alloc(&mut self, dims: &[usize]) -> ArrayId {
        self.alloc_with_bounds(dims, &vec![1; dims.len()])
    }

    /// Allocate a zeroed CM array with explicit lower bounds.
    pub fn alloc_with_bounds(&mut self, dims: &[usize], lower: &[i64]) -> ArrayId {
        let total = dims.iter().product();
        self.adopt(dims.to_vec(), lower.to_vec(), vec![0.0; total])
    }

    /// Allocate and initialise a CM array.
    ///
    /// # Panics
    ///
    /// Panics when `data.len()` does not match the extents.
    pub fn alloc_from(&mut self, dims: &[usize], data: Vec<f64>) -> ArrayId {
        let total: usize = dims.iter().product();
        assert_eq!(data.len(), total, "data length must match extents");
        self.adopt(dims.to_vec(), vec![1; dims.len()], data)
    }

    /// A new array that owns `data` as its elements.
    pub(crate) fn adopt(&mut self, dims: Vec<usize>, lower: Vec<i64>, data: Vec<f64>) -> ArrayId {
        let id = ArrayId(self.arrays.len());
        self.arrays.push(Some(CmArray { dims, lower, data }));
        id
    }

    /// Free an array.
    ///
    /// # Errors
    ///
    /// Fails when the handle is stale.
    pub fn free(&mut self, id: ArrayId) -> Result<(), Cm2Error> {
        let slot = self
            .arrays
            .get_mut(id.0)
            .ok_or_else(|| Cm2Error::Runtime(format!("unknown array {id:?}")))?;
        if slot.take().is_none() {
            return Err(Cm2Error::Runtime(format!("double free of {id:?}")));
        }
        Ok(())
    }

    pub(crate) fn array(&self, id: ArrayId) -> Result<&CmArray, Cm2Error> {
        self.arrays
            .get(id.0)
            .and_then(Option::as_ref)
            .ok_or_else(|| Cm2Error::Runtime(format!("unknown array {id:?}")))
    }

    pub(crate) fn array_mut(&mut self, id: ArrayId) -> Result<&mut CmArray, Cm2Error> {
        self.arrays
            .get_mut(id.0)
            .and_then(Option::as_mut)
            .ok_or_else(|| Cm2Error::Runtime(format!("unknown array {id:?}")))
    }

    /// The extents of an array.
    ///
    /// # Errors
    ///
    /// Fails when the handle is stale.
    pub fn dims(&self, id: ArrayId) -> Result<Vec<usize>, Cm2Error> {
        Ok(self.array(id)?.dims.clone())
    }

    /// A copy of an array's elements (row-major), free of charge — a
    /// harness/verification affordance, not a runtime call.
    ///
    /// # Errors
    ///
    /// Fails when the handle is stale.
    pub fn read(&self, id: ArrayId) -> Result<Vec<f64>, Cm2Error> {
        Ok(self.array(id)?.data.clone())
    }

    /// Overwrite an array's elements, free of charge (harness
    /// affordance).
    ///
    /// # Errors
    ///
    /// Fails when the handle is stale or the length mismatches.
    pub fn write(&mut self, id: ArrayId, data: &[f64]) -> Result<(), Cm2Error> {
        let arr = self.array_mut(id)?;
        check_write(data.len(), arr.data.len())?;
        arr.data.copy_from_slice(data);
        Ok(())
    }

    /// `dst` takes `tmp`'s elements and `tmp` is freed: `read(tmp)`,
    /// `write(dst, …)`, `free(tmp)` as one buffer move — no element is
    /// copied. Free of charge, like the calls it stands for.
    ///
    /// # Errors
    ///
    /// Fails when a handle is stale or the lengths mismatch, as `read`
    /// and `write` would; both arrays are then untouched.
    pub fn assign(&mut self, dst: ArrayId, tmp: ArrayId) -> Result<(), Cm2Error> {
        let moving = self.array(tmp)?.data.len();
        check_write(moving, self.array(dst)?.data.len())?;
        let data = self.take(tmp)?;
        if dst != tmp {
            self.array_mut(dst)?.data = data;
        }
        Ok(())
    }

    /// An array's elements, moved out; the array is freed. Free of
    /// charge, like `read`.
    ///
    /// # Errors
    ///
    /// Fails when the handle is stale.
    pub fn take(&mut self, id: ArrayId) -> Result<Vec<f64>, Cm2Error> {
        self.arrays
            .get_mut(id.0)
            .and_then(Option::take)
            .map(|a| a.data)
            .ok_or_else(|| Cm2Error::Runtime(format!("unknown array {id:?}")))
    }

    /// Live arrays other than the cached coordinate subgrids: what a
    /// program has allocated and not yet freed or taken.
    pub fn program_arrays(&self) -> usize {
        let live = self.arrays.iter().enumerate().filter(|(_, a)| a.is_some());
        live.filter(|&(i, _)| !self.coord_cache.values().any(|c| c.0 == i))
            .count()
    }

    /// The blockwise layout of an array on this machine.
    ///
    /// # Errors
    ///
    /// Fails when the handle is stale.
    pub fn layout(&self, id: ArrayId) -> Result<Layout, Cm2Error> {
        Ok(Layout::grid(&self.array(id)?.dims, self.config.nodes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_read_write_roundtrip() {
        let mut cm = Cm2::new(Cm2Config::slicewise(16));
        let a = cm.alloc(&[4, 4]);
        assert_eq!(cm.read(a).unwrap(), vec![0.0; 16]);
        cm.write(a, &[1.5; 16]).unwrap();
        assert_eq!(cm.read(a).unwrap(), vec![1.5; 16]);
    }

    #[test]
    fn free_invalidates_handle() {
        let mut cm = Cm2::new(Cm2Config::slicewise(16));
        let a = cm.alloc(&[8]);
        cm.free(a).unwrap();
        assert!(cm.read(a).is_err());
        assert!(cm.free(a).is_err());
    }

    #[test]
    fn stats_start_at_zero_and_reset() {
        let mut cm = Cm2::new(Cm2Config::slicewise(16));
        assert_eq!(cm.stats().node_cycles(), 0);
        cm.stats.compute_cycles = 100;
        cm.reset_stats();
        assert_eq!(cm.stats().node_cycles(), 0);
    }

    #[test]
    fn gflops_accounting() {
        let stats = MachineStats {
            compute_cycles: 7_000_000, // one second at 7 MHz
            flops: 3_000_000_000,
            ..MachineStats::default()
        };
        assert!((stats.gflops(7.0e6) - 3.0).abs() < 1e-9);
    }
}
