//! The correctness gate. Every check returns `Err(reason)` and the
//! caller counts the operation as failed; nothing here panics on a
//! wrong answer, so one bad run cannot hide the rest.
//!
//! The reference is the NIR evaluator over the *unoptimized* program —
//! an interpreter that shares no code with the transform passes, the
//! backend or the three simulators it judges.

use std::collections::HashMap;

use f90y_backend::fe::{Final, HostRun};
use f90y_core::{Executable, Run, Target, TargetPrediction};

/// Environment variables that silently change what a run does (the
/// MIMD thread count, per-pass verification, per-pass audits). A
/// benchmark taken with one of them set measures a different program.
pub const FORBIDDEN_ENV: [&str; 3] = [
    "F90Y_HOST_THREADS",
    "F90Y_VERIFY_PASSES",
    "F90Y_AUDIT_PASSES",
];

/// The first forbidden variable that is set, if any.
pub fn forbidden_env_set() -> Option<&'static str> {
    FORBIDDEN_ENV
        .into_iter()
        .find(|name| std::env::var_os(name).is_some())
}

/// Final values the reference evaluator computed, by variable name.
pub struct Reference {
    finals: HashMap<String, Final>,
}

/// Evaluate `exe.nir` with the reference interpreter.
pub fn reference(exe: &Executable) -> Result<Reference, String> {
    let mut ev = f90y_nir::eval::Evaluator::new();
    ev.run(&exe.nir)
        .map_err(|e| format!("reference evaluator: {e}"))?;
    let mut finals = HashMap::new();
    for (name, cell) in ev.finals() {
        let value = match cell {
            f90y_nir::eval::Cell::Array(_) => Final::Array(
                ev.final_array_f64(name)
                    .map_err(|e| format!("reference evaluator, '{name}': {e}"))?,
            ),
            f90y_nir::eval::Cell::Scalar(_) => Final::Scalar(
                ev.final_scalar_f64(name)
                    .map_err(|e| format!("reference evaluator, '{name}': {e}"))?,
            ),
        };
        finals.insert(name.to_string(), value);
    }
    if finals.is_empty() {
        return Err("reference evaluator captured no finals".into());
    }
    Ok(Reference { finals })
}

/// Every final the reference has must come out of the machine
/// bit-identical. (Finals only the machine has are temporaries the
/// transform passes introduced; the unoptimized program never had
/// them.)
pub fn check_finals(reference: &Reference, got: &HostRun) -> Result<(), String> {
    let bits_differ = |a: f64, b: f64| a.to_bits() != b.to_bits();
    for (name, want) in &reference.finals {
        match (want, got.finals().get(name)) {
            (_, None) => return Err(format!("'{name}' missing from the machine's finals")),
            (Final::Scalar(w), Some(Final::Scalar(g))) => {
                if bits_differ(*w, *g) {
                    return Err(format!("{name}: evaluator={w:e} machine={g:e}"));
                }
            }
            (Final::Array(w), Some(Final::Array(g))) => {
                if w.len() != g.len() {
                    return Err(format!("{name}: {} elements vs {}", w.len(), g.len()));
                }
                if let Some(i) = (0..w.len()).find(|&i| bits_differ(w[i], g[i])) {
                    return Err(format!(
                        "{name}[{i}]: evaluator={:e} machine={:e}",
                        w[i], g[i]
                    ));
                }
            }
            _ => return Err(format!("'{name}': scalar on one side, array on the other")),
        }
    }
    Ok(())
}

/// The counters `Executable::predict` promises, read off a finished run.
fn observed(run: &Run) -> TargetPrediction {
    match run {
        Run::Cm2(r) => TargetPrediction::Cm2 {
            dispatches: r.stats.dispatches,
            comm_calls: r.stats.comm_calls,
            reductions: r.stats.reductions,
        },
        Run::Mimd(r) => TargetPrediction::Cm5 {
            dispatches: r.stats.dispatches,
            comm_calls: r.stats.comm_calls,
            halo_exchanges: r.stats.halo_exchanges,
            router_batches: r.stats.router_batches,
            reductions: r.stats.reductions,
            supersteps: r.stats.supersteps,
            messages: r.stats.messages,
        },
        Run::Accel(r) => TargetPrediction::Accel {
            kernel_launches: r.stats.kernel_launches,
            h2d_transfers: r.stats.h2d_transfers,
            d2h_transfers: r.stats.d2h_transfers,
            comm_calls: r.stats.comm_calls,
            reductions: r.stats.reductions,
        },
    }
}

/// The machine's counters must equal the static prediction exactly.
pub fn check_prediction(exe: &Executable, target: Target, run: &Run) -> Result<(), String> {
    let predicted = exe
        .predict(target)
        .map_err(|e| format!("no static plan for {target:?}: {e}"))?;
    let observed = observed(run);
    if predicted == observed {
        Ok(())
    } else {
        Err(format!(
            "predicted {predicted:?}, machine counted {observed:?}"
        ))
    }
}

/// Every simulated statistic of a run, rendered: two runs of one
/// executable on one target must render alike whatever the repetition
/// or the host thread count.
pub fn sim_stats(run: &Run) -> String {
    match run {
        Run::Cm2(r) => format!("{:?}", r.stats),
        Run::Mimd(r) => format!("{:?}", r.stats),
        Run::Accel(r) => format!("{:?}", r.stats),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f90y_core::{Compiler, Pipeline};

    const TARGETS: [Target; 3] = [
        Target::Cm2 { nodes: 16 },
        Target::Cm5Mimd { nodes: 16 },
        Target::Accel { nodes: 16 },
    ];

    /// The gate applied to one program on every target: what "passes
    /// the gate" means in the generator tests.
    pub fn passes_gate(src: &str) -> Result<(), String> {
        let exe = Compiler::new(Pipeline::F90y)
            .compile(src)
            .map_err(|e| e.to_string())?;
        let reference = reference(&exe)?;
        for target in TARGETS {
            let run = exe.session(target).run().map_err(|e| e.to_string())?;
            check_finals(&reference, run.finals())?;
            check_prediction(&exe, target, &run)?;
        }
        Ok(())
    }

    #[test]
    fn generated_programs_pass_the_gate_at_toy_sizes() {
        for seed in [1, 2] {
            passes_gate(&crate::gen::swe_program(seed, 8, 1)).unwrap();
            passes_gate(&crate::gen::comm_program(seed, 8, 3)).unwrap();
            passes_gate(&crate::gen::gen_program(seed, 46)).unwrap();
        }
    }

    /// Shuffling statements out of their loops must not manufacture a
    /// failing program (a zero divisor, say) on some unlucky seed.
    #[test]
    fn generated_programs_evaluate_on_every_seed() {
        for seed in 0..32 {
            let exe = Compiler::new(Pipeline::F90y)
                .compile(&crate::gen::gen_program(seed, 46))
                .unwrap();
            reference(&exe).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn a_wrong_final_is_caught() {
        let exe = Compiler::new(Pipeline::F90y)
            .compile("REAL A(8), S\nA = A + 1.5\nS = SUM(A)\n")
            .unwrap();
        let other = Compiler::new(Pipeline::F90y)
            .compile("REAL A(8), S\nA = A + 2.5\nS = SUM(A)\n")
            .unwrap();
        let reference = reference(&exe).unwrap();
        let good = exe.session(TARGETS[0]).run().unwrap();
        let bad = other.session(TARGETS[0]).run().unwrap();
        check_finals(&reference, good.finals()).unwrap();
        assert!(check_finals(&reference, bad.finals()).is_err());
    }

    #[test]
    fn a_wrong_prediction_is_caught() {
        let exe = Compiler::new(Pipeline::F90y)
            .compile("REAL A(8,8)\nA = CSHIFT(A, 1, 1) + 1.0\n")
            .unwrap();
        let run = exe.session(TARGETS[0]).run().unwrap();
        check_prediction(&exe, TARGETS[0], &run).unwrap();
        // A CM/2 run can never match the MIMD prediction.
        assert!(check_prediction(&exe, TARGETS[1], &run).is_err());
    }

    #[test]
    fn sim_stats_repeat_and_ignore_host_threads() {
        let exe = Compiler::new(Pipeline::F90y)
            .compile(&crate::gen::comm_program(1, 8, 2))
            .unwrap();
        let t1 = exe.session(TARGETS[1]).run().unwrap();
        let t2 = exe.session(TARGETS[1]).host_threads(2).run().unwrap();
        assert_eq!(sim_stats(&t1), sim_stats(&t2));
    }
}
