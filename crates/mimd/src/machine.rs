//! The MIMD machine: N simulated nodes really executing the compiled
//! program's runtime calls.
//!
//! Every CM array is sharded along its outermost axis
//! ([`crate::shard::ShardMap`]) and stored as one row-major buffer in
//! which each node owns a contiguous range; each runtime call becomes
//! one bulk-synchronous superstep:
//!
//! * **dispatch** — the control processor broadcasts the routine and
//!   its arguments down a binomial tree, then every node runs the PEAC
//!   routine in place over its own ranges through `f90y-peac`'s slab
//!   kernel. No data moves: arrays of one shape shard identically, so
//!   each node already holds matching slabs of every argument.
//! * **grid shifts** — a halo exchange. Rows a node needs but does not
//!   own arrive as one message per (owner → needer) pair; shifts along
//!   inner axes never cross a shard boundary and stay message-free.
//! * **router moves** — an all-to-all batch: each node scatters its
//!   slab uniformly over the other N−1.
//! * **reductions** — local partials combine up a binary tree
//!   (N−1 messages), and the root returns the scalar to the host.
//!   The *value* is computed in canonical element order, so it is
//!   bit-identical to the single-image runtime — the determinism the
//!   CM-5 control network guaranteed in hardware.
//! * **host element access** — one message between the owning node and
//!   the host.
//!
//! Supersteps make time attribution simple: each call advances the
//! modelled clock by the busiest node's compute plus the batch's
//! network time ([`crate::net::Net::deliver`]). There is no wall
//! clock and no randomness anywhere — two runs of one program produce
//! identical arrays, stats and message logs.
//!
//! ## Host parallelism
//!
//! The compute phase of every superstep — per-node routine execution
//! in dispatches, slab construction in shifts — fans out over
//! [`MimdConfig::host_threads`] host workers via [`crate::pool`].
//! Between barriers the nodes share nothing mutable (a dispatch hands
//! each node `&mut` to its own ranges and runs in place); results merge
//! at the barrier in node-index order — of several faulting nodes the
//! lowest-numbered one's error is the dispatch's, and the arrays of a
//! failed dispatch are unspecified — and messages are sequenced
//! canonically by `(src, dst)` before delivery (see [`crate::net`]),
//! so the thread count changes wall-clock time only: finals,
//! telemetry and trace digests are bit-identical at any value,
//! including under fault injection (superstep bodies are pure
//! functions of the machine state, so checkpoint/replay reproduces
//! them exactly regardless of how wide they ran).
//!
//! ## Fault recovery
//!
//! With a [`crate::fault::FaultPlan`] in the configuration, each
//! runtime call is a numbered superstep and the machine survives the
//! plan's faults: the network retries dropped messages and dedups
//! duplicates ([`crate::net`]); stalled nodes make the barrier (and so
//! the modelled clock) wait; and when the plan kills a node, the
//! machine restores the barrier checkpoint captured at the superstep's
//! start ([`crate::checkpoint`]) and replays the superstep. The replay
//! recomputes the identical pure function of the restored state, so
//! in-budget fault plans leave final values **bit-identical** to a
//! fault-free run; exhausted budgets surface as
//! [`Cm2Error::Unrecoverable`], never as a hang.

use std::collections::{HashMap, HashSet};

use f90y_backend::Machine;
use f90y_cm2::dispatch::{self, SlabArgs};
use f90y_cm2::runtime::{coordinate_data, shift_into, ReduceOp};
use f90y_cm2::Cm2Error;
use f90y_obs::trace::{Actor, ClockDomain, Trace, TraceEvent};
use f90y_peac::isa::Instr;
use f90y_peac::Routine;

use crate::checkpoint::{Checkpoint, CheckpointEntry};
use crate::config::MimdConfig;
use crate::net::{Message, MessageKind, Net, HOST};
use crate::pool;
use crate::shard::ShardMap;
use crate::stats::MimdStats;

/// Handle to an array in MIMD node memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MimdId(usize);

/// One array, laid across the nodes as outer-axis slabs.
#[derive(Debug, Clone)]
struct MimdArray {
    dims: Vec<usize>,
    lower: Vec<i64>,
    /// The whole array, row-major, in one buffer: node `k`'s slab is
    /// the range [`ShardMap::elems`] gives it.
    data: Vec<f64>,
}

impl MimdArray {
    fn rows(&self) -> usize {
        self.dims.first().copied().unwrap_or(1)
    }

    fn inner(&self) -> usize {
        self.dims.iter().skip(1).product()
    }

    fn map(&self, nodes: usize) -> ShardMap {
        ShardMap::new(self.rows(), nodes)
    }
}

/// `write`'s length check, which `assign` shares.
fn check_write(writing: usize, have: usize) -> Result<(), Cm2Error> {
    if writing == have {
        return Ok(());
    }
    Err(Cm2Error::Runtime(format!(
        "write length {writing} disagrees with array size {have}"
    )))
}

fn stale(id: MimdId) -> Cm2Error {
    Cm2Error::Runtime(format!("stale MIMD array handle {id:?}"))
}

/// The sharded multi-node execution engine.
#[derive(Debug, Clone)]
pub struct MimdMachine {
    config: MimdConfig,
    arrays: HashMap<usize, MimdArray>,
    next: usize,
    coord_cache: HashMap<(Vec<usize>, Vec<i64>, usize), MimdId>,
    stats: MimdStats,
    net: Net,
    /// The superstep clock: one tick per runtime call.
    superstep: u64,
    /// Node restarts consumed against the plan's budget.
    restarts_used: u32,
    /// Plan kill entries already fired (a named kill fires once).
    fired_kills: HashSet<usize>,
    /// Plan stall entries already fired.
    fired_stalls: HashSet<usize>,
    /// The flight recorder, clocked by the superstep counter.
    trace: Option<Trace>,
}

impl MimdMachine {
    /// A fresh machine.
    ///
    /// # Panics
    ///
    /// Panics when the configuration's fault plan targets a node the
    /// partition does not have (drivers that want a typed error call
    /// [`crate::fault::FaultPlan::validate`] first, as
    /// [`crate::run`] does).
    pub fn new(config: MimdConfig) -> Self {
        if let Some(plan) = &config.fault_plan {
            if let Err(msg) = plan.validate(config.nodes) {
                panic!("invalid fault plan: {msg}");
            }
        }
        let net = Net::new(
            config.nodes,
            config.net_call_seconds,
            config.network_bytes_per_sec,
            config.message_log_capacity,
            config.fault_plan.clone(),
        );
        MimdMachine {
            stats: MimdStats::new(config.nodes),
            arrays: HashMap::new(),
            next: 0,
            coord_cache: HashMap::new(),
            net,
            config,
            superstep: 0,
            restarts_used: 0,
            fired_kills: HashSet::new(),
            fired_stalls: HashSet::new(),
            trace: None,
        }
    }

    /// Start the flight recorder (clears any previous trace). Events
    /// are stamped with the superstep clock: each runtime call's phase
    /// occupies `[step, step + 1)` on every node's track, and its
    /// messages record send/recv flow edges within that window.
    pub fn enable_trace(&mut self) {
        self.trace = Some(Trace::new(ClockDomain::Superstep));
    }

    /// The flight-recorder trace, if enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Take ownership of the flight-recorder trace, leaving it disabled.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.trace.take()
    }

    /// Record the current superstep as a phase slice on every node's
    /// track (the engine is bulk-synchronous: all nodes participate in
    /// every superstep).
    fn trace_phase_all_nodes(&mut self, label: &str) {
        let step = self.superstep;
        let nodes = self.config.nodes;
        if let Some(t) = &mut self.trace {
            for k in 0..nodes {
                t.record(TraceEvent::Phase {
                    actor: Actor::Node(k),
                    label: label.to_string(),
                    start: step,
                    end: step + 1,
                });
            }
        }
    }

    /// Record the current superstep as a phase slice on the host track.
    fn trace_phase_host(&mut self, label: &str) {
        let step = self.superstep;
        if let Some(t) = &mut self.trace {
            t.record(TraceEvent::Phase {
                actor: Actor::Host,
                label: label.to_string(),
                start: step,
                end: step + 1,
            });
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MimdConfig {
        &self.config
    }

    /// Execution statistics so far.
    pub fn stats(&self) -> &MimdStats {
        &self.stats
    }

    /// The message log, when [`MimdConfig::message_log_capacity`] is
    /// set.
    pub fn message_log(&self) -> Option<&[Message]> {
        self.net.log()
    }

    fn array(&self, id: MimdId) -> Result<&MimdArray, Cm2Error> {
        self.arrays.get(&id.0).ok_or_else(|| stale(id))
    }

    fn array_mut(&mut self, id: MimdId) -> Result<&mut MimdArray, Cm2Error> {
        self.arrays.get_mut(&id.0).ok_or_else(|| stale(id))
    }

    /// A new array that owns `data` as its row-major elements.
    fn adopt(&mut self, dims: Vec<usize>, lower: Vec<i64>, data: Vec<f64>) -> MimdId {
        assert_eq!(
            data.len(),
            dims.iter().product::<usize>(),
            "data length must match extents"
        );
        let id = self.next;
        self.next += 1;
        self.arrays.insert(id, MimdArray { dims, lower, data });
        MimdId(id)
    }

    /// Live arrays other than the cached coordinate subgrids: what a
    /// program has allocated and not yet freed or taken.
    pub fn program_arrays(&self) -> usize {
        let cached = |id: &usize| self.coord_cache.values().any(|c| c.0 == *id);
        self.arrays.keys().filter(|id| !cached(id)).count()
    }

    /// The superstep clock so far (one tick per runtime call).
    pub fn superstep(&self) -> u64 {
        self.superstep
    }

    /// A barrier snapshot of every sharded array plus the allocation
    /// cursor — what node recovery restores from.
    pub fn checkpoint(&self) -> Checkpoint {
        let entries = self
            .arrays
            .iter()
            .map(|(&id, a)| CheckpointEntry {
                id,
                dims: a.dims.clone(),
                lower: a.lower.clone(),
                data: a.data.clone(),
            })
            .collect();
        Checkpoint::new(entries, self.next)
    }

    /// Roll all sharded array state back to `ckpt`. Arrays allocated
    /// after the capture vanish; the allocation cursor rewinds so a
    /// replayed superstep reuses the same handles. (The coordinate
    /// cache is left alone: stale entries miss the liveness check in
    /// [`Machine::coordinates`] and are re-filled deterministically.)
    pub fn restore(&mut self, ckpt: &Checkpoint) {
        self.arrays = ckpt
            .entries()
            .iter()
            .map(|e| {
                (
                    e.id,
                    MimdArray {
                        dims: e.dims.clone(),
                        lower: e.lower.clone(),
                        data: e.data.clone(),
                    },
                )
            })
            .collect();
        self.next = ckpt.next_id();
    }

    fn sync_net_stats(&mut self) {
        self.stats.messages = self.net.messages();
        self.stats.bytes = self.net.bytes();
        let c = *self.net.fault_counters();
        self.stats.msgs_dropped = c.drops;
        self.stats.msgs_duplicated = c.duplicates;
        self.stats.msgs_delayed = c.delays;
        self.stats.retries = c.retries;
        self.stats.dedup_suppressed = c.dedup_suppressed;
    }

    fn deliver(&mut self, batch: Vec<Message>) -> Result<(), Cm2Error> {
        let result = self
            .net
            .deliver_traced(self.superstep, batch, self.trace.as_mut());
        self.sync_net_stats();
        match result {
            Ok(secs) => {
                self.stats.network_seconds += secs;
                Ok(())
            }
            Err(u) => Err(Cm2Error::Unrecoverable(u.to_string())),
        }
    }

    /// Run one runtime call as a numbered, recoverable superstep.
    ///
    /// Without a fault plan this is just the tick. With one: stalled
    /// nodes hold the barrier; if the plan has kills, the sharded state
    /// is checkpointed first, and a kill fired at this step discards
    /// the superstep's effects, restores the checkpoint and replays —
    /// `body` must therefore be a pure function of machine state, which
    /// every runtime call is.
    fn run_superstep<T>(
        &mut self,
        body: impl Fn(&mut Self) -> Result<T, Cm2Error>,
    ) -> Result<T, Cm2Error> {
        self.superstep += 1;
        self.stats.supersteps += 1;
        let step = self.superstep;
        let Some(plan) = self.config.fault_plan.clone() else {
            return body(self);
        };
        for (i, &(s, node, secs)) in plan.stalls.iter().enumerate() {
            if s == step && self.fired_stalls.insert(i) {
                // The whole barrier waits for the stalled node.
                self.stats.node_stalls += 1;
                self.stats.compute_seconds += secs;
                self.stats.node_busy_seconds[node] += secs;
                if let Some(t) = &mut self.trace {
                    t.record(TraceEvent::Fault {
                        step,
                        actor: Actor::Node(node),
                        kind: "stall".into(),
                    });
                }
            }
        }
        if !plan.has_kills() {
            return body(self);
        }
        let ckpt = self.checkpoint();
        self.stats.checkpoints += 1;
        self.stats.checkpoint_bytes += ckpt.bytes();
        if let Some(t) = &mut self.trace {
            t.record(TraceEvent::Checkpoint {
                step,
                bytes: ckpt.bytes(),
            });
        }
        // Agreeing to cut a checkpoint is one barrier synchronization.
        self.stats.network_seconds += self.config.net_call_seconds;
        let kills: Vec<usize> = plan
            .kills
            .iter()
            .enumerate()
            .filter(|&(i, &(s, _))| s == step && !self.fired_kills.contains(&i))
            .map(|(i, _)| i)
            .collect();
        if kills.is_empty() {
            return body(self);
        }
        if self.restarts_used + kills.len() as u32 > plan.max_restarts {
            return Err(Cm2Error::Unrecoverable(format!(
                "superstep {step} kills {} node(s) but only {} of {} restart(s) remain; \
                 raise the fault plan's restart budget or name fewer kills",
                kills.len(),
                plan.max_restarts - self.restarts_used,
                plan.max_restarts,
            )));
        }
        // The doomed attempt: the work runs, the kill surfaces at the
        // barrier, and the superstep's effects are thrown away.
        body(self)?;
        let mut restored_bytes = 0u64;
        for &i in &kills {
            let (_, node) = plan.kills[i];
            self.fired_kills.insert(i);
            self.stats.node_kills += 1;
            self.stats.node_restarts += 1;
            restored_bytes += ckpt.node_bytes(node, self.config.nodes);
            if let Some(t) = &mut self.trace {
                t.record(TraceEvent::Fault {
                    step,
                    actor: Actor::Node(node),
                    kind: "kill".into(),
                });
            }
        }
        self.restarts_used += kills.len() as u32;
        // Recovery: re-ship the killed nodes' checkpointed slabs, then
        // replay the superstep from the restored barrier state.
        let restore_secs =
            plan.retry_timeout_seconds + restored_bytes as f64 / self.config.network_bytes_per_sec;
        self.stats.network_seconds += restore_secs;
        self.stats.recovery_seconds += restore_secs;
        if let Some(t) = &mut self.trace {
            t.record(TraceEvent::Restore {
                step,
                bytes: restored_bytes,
            });
        }
        self.restore(&ckpt);
        body(self)
    }

    /// The binomial broadcast tree rooted at the host: N−1 edges, built
    /// doubling round by doubling round.
    fn broadcast_batch(&self, bytes: u64) -> Vec<Message> {
        let n = self.config.nodes;
        let mut batch = Vec::with_capacity(n);
        if n == 0 {
            return batch;
        }
        batch.push(Message {
            src: HOST,
            dst: 0,
            bytes,
            kind: MessageKind::Broadcast,
        });
        let mut have = 1;
        while have < n {
            for src in 0..have.min(n - have) {
                batch.push(Message {
                    src,
                    dst: src + have,
                    bytes,
                    kind: MessageKind::Broadcast,
                });
            }
            have *= 2;
        }
        batch
    }

    /// Charge a per-node compute superstep: the clock advances by the
    /// busiest node.
    fn charge_compute(&mut self, busy: &[f64]) {
        let max = busy.iter().cloned().fold(0.0, f64::max);
        self.stats.compute_seconds += max;
        for (k, b) in busy.iter().enumerate() {
            self.stats.node_busy_seconds[k] += b;
        }
    }

    /// Per-element VU beats of a routine body, classified the same way
    /// the CM/2 tracer classifies instructions (so the analytic
    /// estimator and this engine time identical beat counts).
    fn beats_per_elem(routine: &Routine) -> f64 {
        let mut beats = 0.0;
        for i in routine.body() {
            match i {
                Instr::Fdivv { .. } => beats += 5.0,
                Instr::Flib { .. } => beats += 10.0,
                Instr::Flodv { .. }
                | Instr::Fstrv { .. }
                | Instr::SpillLoad { .. }
                | Instr::SpillStore { .. } => beats += 0.5,
                other if other.is_arith() => beats += 1.0,
                _ => {}
            }
        }
        beats
    }

    /// The shift superstep behind both `cshift` and `eoshift`:
    /// `boundary: None` wraps, `Some(b)` end-off fills.
    fn shift_step(
        &mut self,
        src: MimdId,
        axis: usize,
        shift: i64,
        boundary: Option<f64>,
    ) -> Result<MimdId, Cm2Error> {
        let arr = self.array(src)?;
        if axis >= arr.dims.len() {
            return Err(Cm2Error::Runtime(format!(
                "shift axis {axis} out of range for rank {}",
                arr.dims.len()
            )));
        }
        let dims = arr.dims.clone();
        let lower = arr.lower.clone();
        let nodes = self.config.nodes;
        let map = arr.map(nodes);
        let inner = arr.inner();
        let rows = arr.rows();
        let elems = arr.data.len();
        let host_threads = self.config.host_threads;

        // Every node fills its own range of one result buffer —
        // concurrently on the host pool — reading only the source array.
        let mut data = vec![0.0; elems];
        let mut slabs = map.split_mut(inner, &mut data);
        let batch = if axis == 0 {
            // Halo exchange: destination row `a` takes source row
            // `a + shift`; rows outside the local slab arrive as ghost
            // rows, one message per (owner → needer) pair. Ghost counts
            // merge at the barrier in node order (delivery re-sorts the
            // batch by `(src, dst)` before sequencing anyway — see
            // `Net::deliver_traced` — so batch assembly order cannot
            // perturb the trace).
            let source_row = |r: usize| &arr.data[r * inner..(r + 1) * inner];
            let ghosts_of = |k: usize, slab: &mut &mut [f64]| {
                // (owner, ghost-row-count) tallies.
                let mut ghosts: Vec<(usize, u64)> = Vec::new();
                for (local, a) in (map.row_start(k)..map.row_end(k)).enumerate() {
                    let dst = &mut slab[local * inner..(local + 1) * inner];
                    let src_row = a as i64 + shift;
                    match boundary {
                        Some(b) if src_row < 0 || src_row >= rows as i64 => dst.fill(b),
                        _ => {
                            let r = src_row.rem_euclid(rows.max(1) as i64) as usize;
                            let owner = map.owner(r);
                            if owner != k {
                                // Few distinct owners per node
                                // (|shift| is small): linear scan.
                                match ghosts.iter_mut().find(|(o, _)| *o == owner) {
                                    Some((_, n)) => *n += 1,
                                    None => ghosts.push((owner, 1)),
                                }
                            }
                            dst.copy_from_slice(source_row(r));
                        }
                    }
                }
                ghosts
            };
            let per_node = pool::run_indexed_mut(host_threads, elems, &mut slabs, ghosts_of);
            let mut batch = Vec::new();
            for (k, ghosts) in per_node.into_iter().enumerate() {
                for (owner, ghost_rows) in ghosts {
                    batch.push(Message {
                        src: owner,
                        dst: k,
                        bytes: ghost_rows * inner as u64 * 8,
                        kind: MessageKind::Halo,
                    });
                }
            }
            batch
        } else {
            // Inner-axis shifts never cross a slab boundary: each node
            // shifts its own slab, viewed as an array whose outer
            // extent is its row count.
            pool::run_indexed_mut(host_threads, elems, &mut slabs, |k, slab| {
                let mut local_dims = dims.clone();
                local_dims[0] = map.rows_of(k);
                let own = &arr.data[map.elems(k, inner)];
                shift_into(slab, own, &local_dims, axis, shift, boundary);
            });
            Vec::new()
        };

        // Local copy work: two memory beats per element on each node.
        let busy: Vec<f64> = (0..nodes)
            .map(|k| {
                let elems = map.rows_of(k) * inner;
                2.0 * elems as f64 / self.config.vus_per_node as f64 / self.config.vu_clock_hz
            })
            .collect();
        self.charge_compute(&busy);
        self.stats.comm_calls += 1;
        self.trace_phase_all_nodes(if batch.is_empty() {
            "shift.local"
        } else {
            "halo"
        });
        if !batch.is_empty() {
            self.stats.halo_exchanges += 1;
        }
        // Every grid shift pays the runtime-call software overhead even
        // when no ghost row moves — the same floor the analytic
        // estimator charges per grid-communication event.
        self.stats.network_seconds += self.config.net_call_seconds;
        self.deliver(batch)?;
        Ok(self.adopt(dims, lower, data))
    }

    /// The dispatch superstep body (see [`Machine::dispatch`]).
    fn dispatch_step(
        &mut self,
        routine: &Routine,
        ptr_args: &[MimdId],
        scalar_args: &[f64],
    ) -> Result<(), Cm2Error> {
        // Stricter than the SIMD machine's element-count check: shards
        // only align when the *shapes* agree, so a dispatch mixing
        // dims would hand nodes mismatched slabs.
        let dims_of = |id| Ok(&self.array(id)?.dims);
        let why = ": shards would not align across nodes";
        let dims = dispatch::common(ptr_args, dims_of, "shape", why)?.clone();
        let args = SlabArgs::new(ptr_args);
        let nodes = self.config.nodes;
        let map = ShardMap::new(dims.first().copied().unwrap_or(1), nodes);
        let inner: usize = dims.iter().skip(1).product();

        // The control processor broadcasts the dispatch: routine handle
        // plus every argument word, down the binomial tree.
        let arg_bytes = 8 * (1 + ptr_args.len() + scalar_args.len()) as u64;
        let batch = self.broadcast_batch(arg_bytes);
        self.deliver(batch)?;
        self.stats.control_seconds += (self.config.cp_dispatch_cycles
            + self.config.cp_per_arg_cycles * (ptr_args.len() + scalar_args.len()) as u64)
            as f64
            / self.config.sparc_clock_hz;

        // Every node runs the routine in place over its own ranges —
        // concurrently on the host pool when `host_threads > 1`. All
        // workers share the routine's one kernel; node `k` is handed
        // `&mut` to its range of each distinct argument array and
        // nothing else, so the thread count is unobservable. The arrays
        // leave the table while their ranges are lent out and are back
        // before anything can return early.
        let kernel = routine.kernel();
        let beats = Self::beats_per_elem(routine);
        let vus_per_node = self.config.vus_per_node as f64;
        let vu_clock_hz = self.config.vu_clock_hz;
        let mut lent: Vec<MimdArray> = args
            .ids
            .iter()
            .map(|id| self.arrays.remove(&id.0).expect("checked above"))
            .collect();
        let mut ranges: Vec<_> = lent
            .iter_mut()
            .map(|a| map.split_mut(inner, &mut a.data).into_iter())
            .collect();
        let mut node_slabs: Vec<Vec<&mut [f64]>> = (0..nodes)
            .map(|_| {
                let own = ranges.iter_mut();
                own.map(|r| r.next().expect("a range per node")).collect()
            })
            .collect();
        let results = pool::run_indexed_mut(
            self.config.host_threads,
            map.rows() * inner,
            &mut node_slabs,
            |k, slabs| -> Result<f64, Cm2Error> {
                let elems = map.rows_of(k) * inner;
                if elems == 0 {
                    return Ok(0.0);
                }
                kernel.run_slabs(slabs, &args.slab_of_arg, scalar_args, elems)?;
                Ok(beats * (elems as f64 / vus_per_node) / vu_clock_hz)
            },
        );
        for (id, array) in args.ids.iter().zip(lent) {
            self.arrays.insert(id.0, array);
        }
        // The barrier: the first fault in node-index order wins. A
        // faulting node wrote nothing (the kernel checks before it
        // writes) but the others have run, so the arrays of a failed
        // dispatch are unspecified; a killed superstep is restored from
        // its checkpoint regardless.
        let busy = results.into_iter().collect::<Result<Vec<f64>, _>>()?;
        self.charge_compute(&busy);

        self.stats.flops += kernel.flops_per_elem() * (map.rows() * inner) as u64;
        self.stats.dispatches += 1;
        self.trace_phase_all_nodes(kernel.dispatch_label());
        Ok(())
    }

    /// The reduction superstep body (see [`Machine::reduce`]).
    fn reduce_step(&mut self, src: MimdId, op: ReduceOp) -> Result<f64, Cm2Error> {
        let arr = self.array(src)?;
        // The value folds in canonical element order — the buffer *is*
        // the row-major array — so it is bit-identical
        // to the single-image runtime's fold, the determinism the CM-5
        // control network guaranteed in hardware. Deliberately kept
        // sequential at any `host_threads`: parallel partial sums
        // would change the FP rounding, breaking bit-identity.
        let elems = arr.data.iter().copied();
        let value = match op {
            ReduceOp::Sum => elems.sum(),
            ReduceOp::Max => elems.fold(f64::NEG_INFINITY, f64::max),
            ReduceOp::Min => elems.fold(f64::INFINITY, f64::min),
        };
        let nodes = self.config.nodes;
        let map = arr.map(nodes);
        let inner = arr.inner();

        // Local partials: one beat per element.
        let busy: Vec<f64> = (0..nodes)
            .map(|k| {
                let elems = map.rows_of(k) * inner;
                elems as f64 / self.config.vus_per_node as f64 / self.config.vu_clock_hz
            })
            .collect();
        self.charge_compute(&busy);

        // Partials climb a binary tree: in round r, node k (with
        // k mod 2^(r+1) = 2^r) sends its partial to k − 2^r. N−1 tree
        // edges, then the root hands the scalar to the host.
        let mut batch = Vec::with_capacity(nodes);
        let mut stride = 1;
        while stride < nodes {
            let mut k = stride;
            while k < nodes {
                batch.push(Message {
                    src: k,
                    dst: k - stride,
                    bytes: 8,
                    kind: MessageKind::ReduceTree,
                });
                k += 2 * stride;
            }
            stride *= 2;
        }
        batch.push(Message {
            src: 0,
            dst: HOST,
            bytes: 8,
            kind: MessageKind::HostElem,
        });
        self.stats.network_seconds += self.config.net_call_seconds;
        self.deliver(batch)?;
        self.stats.comm_calls += 1;
        self.stats.reductions += 1;
        self.trace_phase_all_nodes("reduce");
        Ok(value)
    }

    /// The router all-to-all superstep body (see
    /// [`Machine::charge_router_move`]).
    fn router_move_step(&mut self, id: MimdId) -> Result<(), Cm2Error> {
        let arr = self.array(id)?;
        let nodes = self.config.nodes;
        let map = arr.map(nodes);
        let inner = arr.inner();
        // All-to-all: each node scatters its slab uniformly over the
        // other N−1 (the router has no grid pattern to exploit).
        let mut batch = Vec::new();
        if nodes > 1 {
            for src in 0..nodes {
                let slab_bytes = (map.rows_of(src) * inner * 8) as u64;
                let per_peer = slab_bytes.div_ceil(nodes as u64 - 1);
                for dst in 0..nodes {
                    if src != dst {
                        batch.push(Message {
                            src,
                            dst,
                            bytes: per_peer,
                            kind: MessageKind::Router,
                        });
                    }
                }
            }
        }
        self.stats.network_seconds += self.config.net_call_seconds;
        self.deliver(batch)?;
        self.stats.comm_calls += 1;
        self.stats.router_batches += 1;
        self.trace_phase_all_nodes("router");
        Ok(())
    }

    /// The host element-read superstep body (see
    /// [`Machine::host_read_elem`]).
    fn host_read_step(&mut self, id: MimdId, flat: usize) -> Result<f64, Cm2Error> {
        let arr = self.array(id)?;
        let Some(&v) = arr.data.get(flat) else {
            return Err(Cm2Error::Runtime(format!("element {flat} out of range")));
        };
        let owner = arr.map(self.config.nodes).owner(flat / arr.inner());
        self.charge_host_ops(1);
        self.deliver(vec![Message {
            src: owner,
            dst: HOST,
            bytes: 8,
            kind: MessageKind::HostElem,
        }])?;
        self.trace_phase_host("host.read");
        Ok(v)
    }

    /// The host element-write superstep body (see
    /// [`Machine::host_write_elem`]).
    fn host_write_step(&mut self, id: MimdId, flat: usize, v: f64) -> Result<(), Cm2Error> {
        let nodes = self.config.nodes;
        let arr = self.array_mut(id)?;
        let Some(slot) = arr.data.get_mut(flat) else {
            return Err(Cm2Error::Runtime(format!("element {flat} out of range")));
        };
        *slot = v;
        let owner = arr.map(nodes).owner(flat / arr.inner());
        self.charge_host_ops(1);
        self.deliver(vec![Message {
            src: HOST,
            dst: owner,
            bytes: 8,
            kind: MessageKind::HostElem,
        }])?;
        self.trace_phase_host("host.write");
        Ok(())
    }
}

impl Machine for MimdMachine {
    type Id = MimdId;

    fn alloc_with_bounds(&mut self, dims: &[usize], lower: &[i64]) -> MimdId {
        let total = dims.iter().product();
        self.adopt(dims.to_vec(), lower.to_vec(), vec![0.0; total])
    }

    fn alloc_from(&mut self, dims: &[usize], data: Vec<f64>) -> MimdId {
        self.adopt(dims.to_vec(), vec![1; dims.len()], data)
    }

    fn free(&mut self, id: MimdId) -> Result<(), Cm2Error> {
        self.take(id).map(drop)
    }

    fn read(&self, id: MimdId) -> Result<Vec<f64>, Cm2Error> {
        Ok(self.array(id)?.data.clone())
    }

    fn write(&mut self, id: MimdId, data: &[f64]) -> Result<(), Cm2Error> {
        let arr = self.array_mut(id)?;
        check_write(data.len(), arr.data.len())?;
        arr.data.copy_from_slice(data);
        Ok(())
    }

    // `read`, `write` and `free` are no runtime calls here — no
    // superstep, no message, no charge — so neither are their moves.

    fn assign(&mut self, dst: MimdId, tmp: MimdId) -> Result<(), Cm2Error> {
        let moving = self.array(tmp)?.data.len();
        check_write(moving, self.array(dst)?.data.len())?;
        let data = self.take(tmp)?;
        if dst != tmp {
            self.array_mut(dst)?.data = data;
        }
        Ok(())
    }

    fn take(&mut self, id: MimdId) -> Result<Vec<f64>, Cm2Error> {
        let arr = self.arrays.remove(&id.0).ok_or_else(|| stale(id))?;
        Ok(arr.data)
    }

    fn dispatch(
        &mut self,
        routine: &Routine,
        ptr_args: &[MimdId],
        scalar_args: &[f64],
    ) -> Result<(), Cm2Error> {
        self.run_superstep(|m| m.dispatch_step(routine, ptr_args, scalar_args))
    }

    fn cshift(&mut self, src: MimdId, axis: usize, shift: i64) -> Result<MimdId, Cm2Error> {
        self.run_superstep(|m| m.shift_step(src, axis, shift, None))
    }

    fn eoshift(
        &mut self,
        src: MimdId,
        axis: usize,
        shift: i64,
        boundary: f64,
    ) -> Result<MimdId, Cm2Error> {
        self.run_superstep(|m| m.shift_step(src, axis, shift, Some(boundary)))
    }

    fn reduce(&mut self, src: MimdId, op: ReduceOp) -> Result<f64, Cm2Error> {
        self.run_superstep(|m| m.reduce_step(src, op))
    }

    fn coordinates(&mut self, dims: &[usize], lower: &[i64], axis: usize) -> MimdId {
        let key = (dims.to_vec(), lower.to_vec(), axis);
        if let Some(&id) = self.coord_cache.get(&key) {
            if self.arrays.contains_key(&id.0) {
                return id;
            }
        }
        // Coordinates are a function of the global element index, so
        // every node generates its slab locally — no messages.
        let data = coordinate_data(dims, lower, axis);
        let id = self.adopt(dims.to_vec(), lower.to_vec(), data);
        let map = ShardMap::new(dims.first().copied().unwrap_or(1), self.config.nodes);
        let inner: usize = dims.iter().skip(1).product();
        let busy: Vec<f64> = (0..self.config.nodes)
            .map(|k| {
                let elems = map.rows_of(k) * inner;
                elems as f64 / self.config.vus_per_node as f64 / self.config.vu_clock_hz
            })
            .collect();
        self.charge_compute(&busy);
        self.coord_cache.insert(key, id);
        id
    }

    fn charge_router_move(&mut self, id: MimdId) -> Result<(), Cm2Error> {
        self.run_superstep(|m| m.router_move_step(id))
    }

    fn charge_host_ops(&mut self, n: u64) {
        self.stats.host_seconds += n as f64 * 2.0 / self.config.sparc_clock_hz;
    }

    fn host_read_elem(&mut self, id: MimdId, flat: usize) -> Result<f64, Cm2Error> {
        self.run_superstep(|m| m.host_read_step(id, flat))
    }

    fn host_write_elem(&mut self, id: MimdId, flat: usize, v: f64) -> Result<(), Cm2Error> {
        self.run_superstep(|m| m.host_write_step(id, flat, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use f90y_peac::isa::{Mem, Operand, VReg};

    fn inc_routine() -> Routine {
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

    fn drive(m: &mut MimdMachine) {
        let a = m.alloc_from(&[16], (0..16).map(|i| i as f64).collect());
        let b = m.alloc_with_bounds(&[16], &[1]);
        m.dispatch(&inc_routine(), &[a, b], &[]).unwrap();
        let s = m.cshift(a, 0, 1).unwrap();
        m.reduce(s, ReduceOp::Sum).unwrap();
        m.host_read_elem(a, 3).unwrap();
    }

    #[test]
    fn traced_run_pairs_every_send_with_one_recv() {
        let mut m = MimdMachine::new(MimdConfig::new(4));
        m.enable_trace();
        drive(&mut m);
        let messages = m.stats().messages;
        let trace = m.take_trace().unwrap();
        let paired = trace.verify_flow_pairing().unwrap();
        assert_eq!(paired as u64, messages, "one flow edge per message");
        assert_eq!(trace.sends(), trace.recvs());
        let has = |label: &str| {
            trace
                .events()
                .iter()
                .any(|e| matches!(e, TraceEvent::Phase { label: l, .. } if l == label))
        };
        assert!(has("dispatch.inc"));
        assert!(has("halo"));
        assert!(has("reduce"));
        assert!(has("host.read"));
    }

    #[test]
    fn traced_run_is_deterministic() {
        let run = || {
            let mut m = MimdMachine::new(MimdConfig::new(4));
            m.enable_trace();
            drive(&mut m);
            m.take_trace().unwrap().digest()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn host_threads_leave_trace_and_finals_bit_identical() {
        let run = |threads: usize| {
            let mut m = MimdMachine::new(MimdConfig::new(4).with_host_threads(threads));
            m.enable_trace();
            drive(&mut m);
            let mut ids: Vec<usize> = m.arrays.keys().copied().collect();
            ids.sort_unstable();
            let finals: Vec<Vec<u64>> = ids
                .iter()
                .map(|id| m.arrays[id].data.iter().map(|x| x.to_bits()).collect())
                .collect();
            (m.take_trace().unwrap().digest(), finals, m.stats().clone())
        };
        let baseline = run(1);
        for threads in [2, 8] {
            assert_eq!(run(threads), baseline, "host_threads={threads}");
        }
    }

    #[test]
    fn a_faulting_dispatch_is_the_same_error_at_any_thread_count() {
        // `inc` takes no scalars: every node's kernel refuses the call.
        // The barrier reports the lowest-numbered node's fault, which
        // does not depend on which worker got there first; the arrays
        // are back in the table (contents unspecified), not lost.
        let run = |threads: usize| {
            let mut m = MimdMachine::new(MimdConfig::new(8).with_host_threads(threads));
            let a = m.alloc_from(&[16], (0..16).map(|i| i as f64).collect());
            let b = m.alloc_with_bounds(&[16], &[1]);
            let err = m
                .dispatch(&inc_routine(), &[a, b], &[2.0])
                .expect_err("one scalar too many");
            assert_eq!(m.read(a).unwrap().len(), 16);
            assert_eq!(m.read(b).unwrap().len(), 16);
            m.dispatch(&inc_routine(), &[a, b], &[])
                .expect("the machine survives a faulted dispatch");
            (err, m.read(b).unwrap())
        };
        let (err, after) = run(1);
        assert!(matches!(&err, Cm2Error::Peac(m) if m.contains("expects 0 scalar arguments")));
        assert_eq!(after, (1..=16).map(|i| i as f64).collect::<Vec<_>>());
        assert_eq!(run(4), (err, after));
    }

    #[test]
    fn faulty_run_traces_recovery_and_still_pairs_flows() {
        let plan = FaultPlan::seeded(7)
            .drop_per_mille(200)
            .retries(16)
            .kill(2, 1)
            .restarts(1);
        let mut m = MimdMachine::new(MimdConfig::new(4).with_faults(plan));
        m.enable_trace();
        drive(&mut m);
        let trace = m.take_trace().unwrap();
        trace.verify_flow_pairing().unwrap();
        let kind_of = |want: &str| {
            trace
                .events()
                .iter()
                .filter(|e| matches!(e, TraceEvent::Fault { kind, .. } if kind == want))
                .count()
        };
        assert_eq!(kind_of("kill"), 1, "the planned kill is in the trace");
        assert!(
            trace
                .events()
                .iter()
                .any(|e| matches!(e, TraceEvent::Checkpoint { .. })),
            "kill plans checkpoint every superstep"
        );
        assert!(
            trace
                .events()
                .iter()
                .any(|e| matches!(e, TraceEvent::Restore { .. })),
            "the kill forces a restore"
        );
    }
}
