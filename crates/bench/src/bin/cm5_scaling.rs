//! CM/5 MIMD scaling sweep: really execute the paper's workloads on the
//! sharded multi-node engine at increasing node counts and report how
//! sustained GFLOPS, message counts and time-per-phase scale.
//!
//! Unlike `table_cm5` (which *estimates* CM/5 time from a CM/2 trace),
//! this harness runs the `f90y-mimd` engine: arrays are sharded across
//! nodes, halo exchanges and reduction trees send counted messages, and
//! the final arrays are checked bit-identical to the CM/2 simulator's.
//!
//! A second sweep injects deterministic message-drop fault plans and
//! reports the recovery overhead (retries and added network time) while
//! re-checking that finals stay bit-identical — the numbers behind the
//! EXPERIMENTS.md fault-overhead table.
//!
//! A final host-core sweep runs the large SWE workload at increasing
//! `host_threads`, re-checks that finals and flight-recorder digests
//! are bit-identical at every width, asserts the wall-clock speedup on
//! multi-core hosts, and rewrites `BENCH_scaling.json` (determinism
//! evidence only — the committed file never carries wall time).
//!
//! Telemetry for each node count lands under
//! `target/telemetry/cm5_scaling_<workload>_n<N>.json`.

use f90y_bench::{compile, emit_telemetry, rule};
use f90y_core::{workloads, Compiler, Executable, FaultPlan, Pipeline, Target, TraceBuffer};
use f90y_obs::Telemetry;

const NODE_COUNTS: [usize; 3] = [4, 16, 64];

/// Message-drop rates for the fault-overhead sweep, in per-mille
/// (0 = fault-free baseline, then 1% and 5%).
const DROP_RATES: [u16; 3] = [0, 10, 50];

fn sweep(title: &str, slug: &str, exe: &Executable, check: &[&str]) {
    // The CM/2 reference run: the MIMD finals must match it exactly.
    let simd = exe
        .session(Target::Cm2 { nodes: 64 })
        .run()
        .expect("CM/2 reference run")
        .into_cm2();

    println!("\n{title}:");
    rule(92);
    println!(
        "{:>6} {:>10} {:>12} {:>12} {:>10} {:>10} {:>12} {:>10}",
        "nodes", "GFLOPS", "elapsed", "compute", "halos", "reduces", "messages", "bytes"
    );
    rule(92);
    for nodes in NODE_COUNTS {
        let mut tel = Telemetry::new();
        let run = exe
            .session(Target::Cm5Mimd { nodes })
            .telemetry(&mut tel)
            .run()
            .expect("MIMD run")
            .into_mimd();
        for &name in check {
            assert_eq!(
                run.finals.final_array(name).expect("final array"),
                simd.finals.final_array(name).expect("final array"),
                "array '{name}' diverged from the CM/2 simulator at {nodes} nodes"
            );
        }
        run.stats.verify().expect("stats invariants");
        println!(
            "{:>6} {:>10.4} {:>11.4}s {:>11.4}s {:>10} {:>10} {:>12} {:>10}",
            nodes,
            run.gflops,
            run.elapsed_seconds,
            run.stats.compute_seconds,
            run.stats.halo_exchanges,
            run.stats.reductions,
            run.stats.messages,
            run.stats.bytes,
        );
        emit_telemetry(&tel, &format!("cm5_scaling_{slug}_n{nodes}"));
    }
    rule(92);
    println!("finals bit-identical to the CM/2 simulator at every node count");
}

/// Inject message drops at increasing rates and report the overhead of
/// reliable delivery: every drop costs one retransmission plus an
/// acknowledgement timeout on the modelled clock.
fn fault_sweep(title: &str, exe: &Executable, nodes: usize, check: &[&str]) {
    let clean = exe
        .session(Target::Cm5Mimd { nodes })
        .run()
        .expect("fault-free run")
        .into_mimd();

    println!("\n{title} — fault-injection overhead at {nodes} nodes:");
    rule(76);
    println!(
        "{:>7} {:>12} {:>10} {:>12} {:>12} {:>12}",
        "drop", "messages", "retries", "elapsed", "overhead", "finals"
    );
    rule(76);
    for rate in DROP_RATES {
        let mut session = exe.session(Target::Cm5Mimd { nodes });
        if rate > 0 {
            session = session.faults(FaultPlan::seeded(0xC0F_FEE).drop_per_mille(rate));
        }
        let run = session.run().expect("fault run").into_mimd();
        let mut identical = true;
        for &name in check {
            identical &= run.finals.final_array(name).expect("final array")
                == clean.finals.final_array(name).expect("final array");
        }
        assert!(identical, "faults changed final values at {rate} per-mille");
        run.stats.verify().expect("stats invariants");
        println!(
            "{:>5}%o {:>12} {:>10} {:>11.4}s {:>11.2}% {:>12}",
            rate,
            run.stats.messages,
            run.stats.retries,
            run.elapsed_seconds,
            (run.elapsed_seconds / clean.elapsed_seconds - 1.0) * 100.0,
            "identical",
        );
    }
    rule(76);
}

/// Node count of the host-core sweep: big enough that the per-superstep
/// compute phase dominates thread-pool overhead.
const HOST_SWEEP_NODES: usize = 1024;

/// Minimum wall-clock speedup the sweep must show at its widest thread
/// count on a host with at least [`SPEEDUP_MIN_CORES`] cores.
const SPEEDUP_MIN: f64 = 2.0;
const SPEEDUP_MIN_CORES: usize = 4;

/// Host-core sweep: the same MIMD run at increasing `host_threads`.
/// Results must be bit-identical — finals and flight-recorder digests
/// are re-checked at every width — while wall-clock time drops on
/// multi-core hosts (asserted ≥[`SPEEDUP_MIN`]x at the widest count on
/// [`SPEEDUP_MIN_CORES`]+ cores). Wall-clock numbers are printed, never
/// committed: the committed `BENCH_scaling.json` carries determinism
/// evidence only.
fn host_sweep(title: &str, exe: &Executable, nodes: usize, check: &[&str]) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let counts: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&t| t == 1 || t <= cores)
        .collect();

    println!("\n{title} — host-core sweep at {nodes} nodes ({cores} cores available):");
    rule(70);
    println!(
        "{:>8} {:>12} {:>9} {:>12} {:>24}",
        "threads", "wall-clock", "speedup", "finals", "trace digest"
    );
    rule(70);

    let mut base: Option<(f64, Vec<Vec<f64>>, String)> = None;
    let mut last_speedup = 1.0;
    for &threads in &counts {
        // Timed run, untraced: the flight recorder must not bill the
        // thread pool for its own bookkeeping.
        let start = std::time::Instant::now();
        let run = exe
            .session(Target::Cm5Mimd { nodes })
            .host_threads(threads)
            .run()
            .expect("MIMD run")
            .into_mimd();
        let wall = start.elapsed().as_secs_f64();

        // Separate traced run for the digest, excluded from the timing.
        let mut buf = TraceBuffer::new();
        exe.session(Target::Cm5Mimd { nodes })
            .host_threads(threads)
            .trace(&mut buf)
            .run()
            .expect("traced MIMD run");
        let digest = buf.trace.expect("trace captured").digest();

        let finals: Vec<Vec<f64>> = check
            .iter()
            .map(|&name| run.finals.final_array(name).expect("final array"))
            .collect();
        let speedup = match &base {
            None => {
                base = Some((wall, finals, digest.clone()));
                1.0
            }
            Some((base_wall, base_finals, base_digest)) => {
                assert_eq!(
                    &finals, base_finals,
                    "host_threads={threads} changed final values at {nodes} nodes"
                );
                assert_eq!(
                    &digest, base_digest,
                    "host_threads={threads} changed the trace digest at {nodes} nodes"
                );
                base_wall / wall
            }
        };
        last_speedup = speedup;
        println!(
            "{threads:>8} {wall:>11.3}s {speedup:>8.2}x {:>12} {digest:>24}",
            "identical"
        );
    }
    rule(70);
    println!("finals and trace digests bit-identical at every host-thread count");

    if cores >= SPEEDUP_MIN_CORES {
        assert!(
            last_speedup >= SPEEDUP_MIN,
            "expected >= {SPEEDUP_MIN}x wall-clock speedup at {} host threads \
             on a {cores}-core host, measured {last_speedup:.2}x",
            counts.last().expect("at least one thread count"),
        );
        println!(
            "speedup {last_speedup:.2}x at {} threads (>= {SPEEDUP_MIN}x required on {cores} cores)",
            counts.last().expect("at least one thread count"),
        );
    } else {
        println!("speedup assertion skipped: only {cores} core(s) available");
    }
}

/// The comm-cse ablation: the same workload with and without the
/// hoist-deduplication pass, comparing communication calls (static,
/// per host program) and messages/halo exchanges (dynamic, on the
/// MIMD engine) at each node count. Finals must stay bit-identical.
fn cse_ablation(title: &str, src: &str, check: &[&str]) {
    let with_cse = compile(src, Pipeline::F90y);
    let without_cse = Compiler::new(Pipeline::F90y)
        .passes(["comm-split", "mask-pad", "blocking", "dce-temps"])
        .compile(src)
        .expect("compiles without comm-cse");

    println!("\n{title} — comm-cse ablation:");
    println!(
        "  comm calls in the host program: {} without comm-cse, {} with \
         ({} hoists merged, {} temps deleted)",
        without_cse.compiled.host.counts.comms,
        with_cse.compiled.host.counts.comms,
        with_cse.report.comm_merged,
        with_cse.report.temps_deleted,
    );
    rule(72);
    println!(
        "{:>6} {:>16} {:>16} {:>14} {:>14}",
        "nodes", "halos (off)", "halos (on)", "msgs (off)", "msgs (on)"
    );
    rule(72);
    for nodes in NODE_COUNTS {
        let off = without_cse
            .session(Target::Cm5Mimd { nodes })
            .run()
            .expect("MIMD run without comm-cse")
            .into_mimd();
        let on = with_cse
            .session(Target::Cm5Mimd { nodes })
            .run()
            .expect("MIMD run with comm-cse")
            .into_mimd();
        for &name in check {
            assert_eq!(
                on.finals.final_array(name).expect("final array"),
                off.finals.final_array(name).expect("final array"),
                "comm-cse changed array '{name}' at {nodes} nodes"
            );
        }
        assert!(
            on.stats.messages <= off.stats.messages,
            "comm-cse must not add messages at {nodes} nodes"
        );
        println!(
            "{:>6} {:>16} {:>16} {:>14} {:>14}",
            nodes,
            off.stats.halo_exchanges,
            on.stats.halo_exchanges,
            off.stats.messages,
            on.stats.messages,
        );
    }
    rule(72);
    println!("finals bit-identical with and without comm-cse at every node count");
}

fn main() {
    println!("CM/5 MIMD scaling — sharded execution with counted messages");

    let swe = compile(&workloads::swe_source(64, 3), Pipeline::F90y);
    sweep("SWE 64x64, 3 steps", "swe", &swe, &["u", "v", "p"]);

    let fig9 = compile(workloads::fig9_source(), Pipeline::F90y);
    sweep("Fig. 9 blocked stencil", "fig9", &fig9, &["a", "b", "c"]);

    fault_sweep("SWE 64x64, 3 steps", &swe, 16, &["u", "v", "p"]);
    fault_sweep("Fig. 9 blocked stencil", &fig9, 16, &["a", "b", "c"]);

    cse_ablation(
        "SWE 64x64, 3 steps",
        &workloads::swe_source(64, 3),
        &["u", "v", "p"],
    );

    let big = compile(&workloads::swe_source(HOST_SWEEP_NODES, 1), Pipeline::F90y);
    host_sweep(
        &format!("SWE {HOST_SWEEP_NODES}x{HOST_SWEEP_NODES}, 1 step"),
        &big,
        HOST_SWEEP_NODES,
        &["u", "v", "p"],
    );

    let json = f90y_bench::scaling_bench_json();
    match std::fs::write("BENCH_scaling.json", &json) {
        Ok(()) => println!("\nwrote BENCH_scaling.json ({} bytes)", json.len()),
        Err(e) => println!("\nBENCH_scaling.json not written ({e}) — read-only checkout?"),
    }
}
