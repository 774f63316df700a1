//! Static per-target prediction: what a run *will* count, before it
//! runs.
//!
//! The backend's [`StaticProfile`] is an exact interpretation of the
//! compiled host program with no data — every dispatch, shift, router
//! move, reduction and element touch the host executor would perform,
//! with the geometry of each. This module folds that profile into the
//! counters each target's machine keeps, so a caller can compare a
//! prediction against [`Run`](crate::Run) reports and the flight
//! recorder **bit-exactly**:
//!
//! * CM/2: `dispatches`, `comm_calls`, `reductions`;
//! * CM/5 MIMD: those plus `supersteps`, `messages` (dispatch fan-out,
//!   per-shift halo pairs from the shard geometry, reduction trees,
//!   router batches, host element traffic), `halo_exchanges` and
//!   `router_batches`;
//! * accelerator: `kernel_launches`, `h2d_transfers`, `d2h_transfers`,
//!   `comm_calls`, `reductions`.
//!
//! The reconciliation suite (`tests/comm_plan_differential.rs`) holds
//! every one of these equal to the dynamic counters on every shipped
//! workload, pipeline, node count and target.

pub use f90y_backend::plan::{PlanError, StaticProfile};
use f90y_mimd::shard::halo_messages;

use crate::{Executable, Target};

/// Predicted machine counters for one target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TargetPrediction {
    /// What a [`Target::Cm2`] run will count.
    Cm2 {
        /// Node-block dispatches.
        dispatches: u64,
        /// Grid-shift plus router communication calls.
        comm_calls: u64,
        /// Reduction intrinsics executed.
        reductions: u64,
    },
    /// What a [`Target::Cm5Mimd`] run will count.
    Cm5 {
        /// Node-block dispatches.
        dispatches: u64,
        /// Grid-shift plus router communication calls.
        comm_calls: u64,
        /// Outer-axis shifts that exchanged at least one halo message.
        halo_exchanges: u64,
        /// All-to-all router batches.
        router_batches: u64,
        /// Reduction intrinsics executed.
        reductions: u64,
        /// Bulk-synchronous supersteps.
        supersteps: u64,
        /// Total messages on the wire (equals the flight recorder's
        /// `Send` event count).
        messages: u64,
    },
    /// What a [`Target::Accel`] run will count.
    Accel {
        /// Kernel launches.
        kernel_launches: u64,
        /// Host-to-device transfers.
        h2d_transfers: u64,
        /// Device-to-host transfers.
        d2h_transfers: u64,
        /// Device-side communication calls (shifts, gathers,
        /// coordinate generations).
        comm_calls: u64,
        /// Reduction intrinsics executed.
        reductions: u64,
    },
}

impl TargetPrediction {
    /// The prediction as abstract scheduling cost units — what one run
    /// is worth to an admission controller. Supersteps on the MIMD
    /// engine; dispatch + communication + reduction calls on the CM/2;
    /// launches + transfers + calls on the accelerator.
    #[must_use]
    pub fn cost_units(&self) -> u64 {
        match *self {
            TargetPrediction::Cm2 {
                dispatches,
                comm_calls,
                reductions,
            } => dispatches + comm_calls + reductions,
            TargetPrediction::Cm5 { supersteps, .. } => supersteps,
            TargetPrediction::Accel {
                kernel_launches,
                h2d_transfers,
                d2h_transfers,
                comm_calls,
                reductions,
            } => kernel_launches + h2d_transfers + d2h_transfers + comm_calls + reductions,
        }
    }
}

/// Fold a static profile into the counters a target's machine keeps.
#[must_use]
pub fn fold(profile: &StaticProfile, target: Target) -> TargetPrediction {
    match target {
        Target::Cm2 { .. } => TargetPrediction::Cm2 {
            dispatches: profile.dispatch_calls() as u64,
            comm_calls: (profile.shift_calls() + profile.router_moves) as u64,
            reductions: profile.reduces as u64,
        },
        Target::Cm5Mimd { nodes } => {
            let n = nodes.max(1) as u64;
            let dispatches = profile.dispatch_calls() as u64;
            let shifts = profile.shift_calls() as u64;
            let reductions = profile.reduces as u64;
            let router_batches = profile.router_moves as u64;
            let host_elems = profile.host_elem_reads as u64 + profile.host_elem_writes as u64;

            let mut halo_exchanges = 0u64;
            let mut halo_msgs = 0u64;
            for s in &profile.shifts {
                if s.axis != 0 {
                    continue; // inner-axis shifts are slab-local
                }
                let rows = s.dims.first().copied().unwrap_or(0);
                let m = halo_messages(rows, nodes.max(1), s.shift, !s.eoshift) as u64;
                halo_msgs += m;
                if m > 0 {
                    halo_exchanges += 1;
                }
            }

            let router_msgs = if n > 1 {
                router_batches * n * (n - 1)
            } else {
                0
            };
            TargetPrediction::Cm5 {
                dispatches,
                // The MIMD engine counts reductions as comm calls too
                // (they ride its combine tree).
                comm_calls: shifts + router_batches + reductions,
                halo_exchanges,
                router_batches,
                reductions,
                supersteps: dispatches + shifts + reductions + router_batches + host_elems,
                messages: dispatches * n + halo_msgs + reductions * n + router_msgs + host_elems,
            }
        }
        Target::Accel { .. } => TargetPrediction::Accel {
            kernel_launches: profile.dispatch_calls() as u64,
            h2d_transfers: (profile.array_writes + profile.allocs_from + profile.host_elem_writes)
                as u64,
            d2h_transfers: (profile.array_reads + profile.host_elem_reads + profile.reduces) as u64,
            comm_calls: (profile.shift_calls() + profile.router_moves + profile.coord_keys.len())
                as u64,
            reductions: profile.reduces as u64,
        },
    }
}

impl Executable {
    /// The exact static machine-call profile of the compiled program:
    /// every machine call the host executor will make, derived without
    /// running. Fails honestly with [`PlanError::DataDependent`] when
    /// control flow reads machine data, rather than guessing.
    ///
    /// The walk unrolls every loop of the host program, so it runs once,
    /// on first use, and the executable keeps the answer: every later
    /// call (and every [`Executable::predict`]) is a lookup.
    ///
    /// # Errors
    ///
    /// [`PlanError`] when no exact static plan exists.
    pub fn static_profile(&self) -> Result<&StaticProfile, PlanError> {
        let memo = self
            .profile
            .get_or_init(|| f90y_backend::plan::profile(&self.compiled));
        memo.as_ref().map_err(PlanError::clone)
    }

    /// Predict the machine counters of a run on `target` — the static
    /// side of the plan↔trace reconciliation.
    ///
    /// # Errors
    ///
    /// [`PlanError`] when no exact static plan exists.
    pub fn predict(&self, target: Target) -> Result<TargetPrediction, PlanError> {
        Ok(fold(self.static_profile()?, target))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Compiler, Pipeline};

    #[test]
    fn predictions_match_a_real_run_on_all_three_targets() {
        let exe = Compiler::new(Pipeline::F90y)
            .compile(
                "REAL A(16,16), B(16,16), S\nB = CSHIFT(A, 1, 1) + CSHIFT(A, 1, 2)\nS = SUM(B)\n",
            )
            .unwrap();

        let p = exe.predict(Target::Cm2 { nodes: 16 }).unwrap();
        let r = exe
            .session(Target::Cm2 { nodes: 16 })
            .run()
            .unwrap()
            .into_cm2();
        assert_eq!(
            p,
            TargetPrediction::Cm2 {
                dispatches: r.stats.dispatches,
                comm_calls: r.stats.comm_calls,
                reductions: r.stats.reductions,
            }
        );

        let p = exe.predict(Target::Cm5Mimd { nodes: 16 }).unwrap();
        let r = exe
            .session(Target::Cm5Mimd { nodes: 16 })
            .run()
            .unwrap()
            .into_mimd();
        assert_eq!(
            p,
            TargetPrediction::Cm5 {
                dispatches: r.stats.dispatches,
                comm_calls: r.stats.comm_calls,
                halo_exchanges: r.stats.halo_exchanges,
                router_batches: r.stats.router_batches,
                reductions: r.stats.reductions,
                supersteps: r.stats.supersteps,
                messages: r.stats.messages,
            }
        );

        let p = exe.predict(Target::Accel { nodes: 16 }).unwrap();
        let r = exe
            .session(Target::Accel { nodes: 16 })
            .run()
            .unwrap()
            .into_accel();
        assert_eq!(
            p,
            TargetPrediction::Accel {
                kernel_launches: r.stats.kernel_launches,
                h2d_transfers: r.stats.h2d_transfers,
                d2h_transfers: r.stats.d2h_transfers,
                comm_calls: r.stats.comm_calls,
                reductions: r.stats.reductions,
            }
        );
    }

    #[test]
    fn cost_units_are_positive_for_real_work() {
        let exe = Compiler::new(Pipeline::F90y)
            .compile("REAL A(8)\nA = A + 1.0\n")
            .unwrap();
        for target in [
            Target::Cm2 { nodes: 8 },
            Target::Cm5Mimd { nodes: 8 },
            Target::Accel { nodes: 8 },
        ] {
            assert!(exe.predict(target).unwrap().cost_units() > 0, "{target:?}");
        }
    }
}
