//! The traced pass: every layer timed from outside, through public
//! functions that already exist. Compilation is redone stage by stage,
//! each run is redone over a [`TimedMachine`], and serve requests are
//! replayed with a span per request. Nothing here feeds the end-to-end
//! numbers; those come from [`crate::measure::timed_pass`] with all of
//! this off.

use std::hint::black_box;
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Instant;

use f90y_backend::fe::{HostExecutor, HostRun};
use f90y_backend::{CompiledProgram, Machine};
use f90y_core::{Accel, AccelConfig, ChromeTraceSink, Compiler, Pipeline, Telemetry};
use f90y_mimd::{MimdConfig, MimdMachine};
use f90y_obs::TelemetryReport;
use f90y_peac::{CompiledBlock, NodeMemory};
use f90y_serve::cache::{CacheKey, CompileCache};
use f90y_serve::engine::{Engine, ServeConfig};
use f90y_transform::pass::{pass_by_name, MAX_FIXPOINT_ITERS, PASS_NAMES};
use f90y_transform::ProgramBody;

use crate::gate;
use crate::measure::{
    self, serve_phase, Ops, Phase, Prepared, RequestTrace, Timed, OUTSTANDING, SERVE_CONFIG,
};
use crate::report::Metric;
use crate::spans::Recorder;
use crate::stats::{self, median};
use crate::timed::{CallProfile, Class, TimedMachine};
use crate::workload::{RunConfig, MIMD_T2, NODES, RUN_CONFIGS};

/// Staged compiles per traced pass; each stage reports its median.
const COMPILE_REPS: usize = 5;

/// Shortest transform stage on which "the pass times add up to the
/// stage, within a tenth" is held as a gate.
const PASS_SUM_GATE_MS: f64 = 5.0;

/// The default pipeline as scheduling units: a single pass, or the
/// passes of a fixpoint group. Read off the pass manager's own
/// rendering (`fixpoint(a, b)`), so a pipeline change shows up here
/// without an edit.
fn pipeline_units() -> Vec<Vec<String>> {
    f90y_transform::default_passes()
        .pass_names()
        .into_iter()
        .map(|unit| {
            match unit
                .strip_prefix("fixpoint(")
                .and_then(|u| u.strip_suffix(')'))
            {
                Some(group) => group.split(", ").map(str::to_string).collect(),
                None => vec![unit],
            }
        })
        .collect()
}

/// Total rewrites each pass applied during one staged compile.
type Rewrites = Vec<(String, u64)>;

/// One compile, stage by stage, the way `Compiler::compile` runs it:
/// parse, lower, one `ProgramBody::decompose`, every pass on that same
/// body (fixpoint groups iterated to convergence), one recompose, the
/// backend. Timing each pass through its own `PassManager::run` would
/// measure a different program: a pass is fast or slow depending on
/// what the passes before it left in the body.
fn staged_compile(rec: &mut Recorder, source: &str) -> Result<(CompiledProgram, Rewrites), String> {
    rec.begin_op();
    // `parse_file` lexes for itself; this extra scan only prices the
    // lexer and sits outside the `compile` span.
    rec.span("frontend.lex", |_| {
        f90y_frontend::lexer::lex(black_box(source)).map(|tokens| tokens.len())
    })
    .0
    .map_err(|e| e.to_string())?;
    rec.span("compile", |rec| {
        let file = rec
            .span("frontend.parse", |_| {
                f90y_frontend::parse_file(black_box(source))
            })
            .0
            .map_err(|e| e.to_string())?;
        let nir = rec
            .span("lowering.lower", |_| f90y_lowering::lower_file(&file))
            .0
            .map_err(|e| e.to_string())?;
        let mut rewrites: Rewrites = PASS_NAMES.iter().map(|p| (p.to_string(), 0)).collect();
        let optimized = rec
            .span("transform", |rec| {
                let mut body = rec
                    .span("transform.decompose", |_| ProgramBody::decompose(&nir))
                    .0
                    .map_err(|e| e.to_string())?;
                let mut run_pass = |rec: &mut Recorder, name: &str| -> Result<u64, String> {
                    let pass = pass_by_name(name).ok_or(format!("unregistered pass '{name}'"))?;
                    let outcome = rec
                        .span(&format!("transform.pass.{name}"), |_| pass.run(&mut body))
                        .0
                        .map_err(|e| e.to_string())?;
                    if let Some(total) = rewrites.iter_mut().find(|(p, _)| p == name) {
                        total.1 += outcome.rewrites as u64;
                    }
                    Ok(outcome.rewrites as u64)
                };
                for unit in pipeline_units() {
                    if let [single] = unit.as_slice() {
                        run_pass(rec, single)?;
                        continue;
                    }
                    for _ in 0..MAX_FIXPOINT_ITERS {
                        let mut applied = 0;
                        for name in &unit {
                            applied += run_pass(rec, name)?;
                        }
                        if applied == 0 {
                            break;
                        }
                    }
                }
                Ok::<_, String>(rec.span("transform.recompose", |_| body.recompose()).0)
            })
            .0?;
        let compiled = rec
            .span("backend.compile", |_| f90y_backend::compile(&optimized))
            .0
            .map_err(|e| e.to_string())?;
        Ok((compiled, rewrites))
    })
    .0
}

/// One run over a [`TimedMachine`]: what the machine calls cost, what
/// the host executor cost around them, and the machine's own counters.
struct TracedRun {
    profile: CallProfile,
    /// `HostExecutor::run`, wall.
    host_exec_ns: u64,
    /// The whole `run.<layer>` span: machine construction included.
    run_ns: u64,
    host_exec_span: usize,
    sim_units: u64,
    /// MIMD only.
    messages: u64,
    bytes: u64,
}

/// What [`traced_run`] reads off a machine when the run is over:
/// rendered stats, simulated time units, messages, bytes.
type MachineReadout = (String, u64, u64, u64);

fn traced_run<M: Machine>(
    rec: &mut Recorder,
    p: &Prepared,
    cfg: &RunConfig,
    // The simulated stats this run must reproduce, rendered.
    expect: &str,
    make: impl FnOnce() -> M,
    readout: impl FnOnce(&M) -> MachineReadout,
    ops: &mut Ops,
) -> Result<TracedRun, String> {
    rec.begin_op();
    let epoch = rec.epoch;
    let mut host_exec_span = 0;
    let ((result, machine, host_exec_ns), run_ns) =
        rec.span(&format!("run.{}", cfg.layer), |rec| {
            let mut machine = TimedMachine::new(make(), epoch);
            host_exec_span = rec.spans().len();
            let (result, ns): (Result<HostRun, _>, u64) = rec.span("backend.host_exec", |_| {
                HostExecutor::new(&mut machine).run(black_box(&p.exe.compiled))
            });
            (result, machine, ns)
        });
    let (rendered, sim_units, messages, bytes) = readout(&machine.inner);
    let outcome = result
        .as_ref()
        .map_err(|e| e.to_string())
        .and_then(|finals| gate::check_finals(&p.reference, finals))
        .and_then(|()| {
            // Neither the decorator nor the host thread count may be
            // visible to the simulation.
            if rendered == expect {
                Ok(())
            } else {
                Err(format!(
                    "simulated stats differ under TimedMachine: {expect} vs {rendered}"
                ))
            }
        });
    ops.record(&format!("traced {}", cfg.metric), outcome);
    result.map_err(|e| e.to_string())?;
    Ok(TracedRun {
        profile: machine.profile,
        host_exec_ns,
        run_ns,
        host_exec_span,
        sim_units,
        messages,
        bytes,
    })
}

/// The PEAC layer on its own, per routine of the executable:
/// `CompiledBlock::compile`, `CompiledBlock::run` over memory staged
/// beforehand, and `sim::run_routine` (compile + run, the way the
/// machines call it on every dispatch).
struct PeacTimes {
    block_compile_us: f64,
    kernel_ns_per_elem_instr: f64,
    run_routine_us: f64,
    elem_instrs: u64,
}

fn peac_layer(rec: &mut Recorder, p: &Prepared, ops: &mut Ops) -> PeacTimes {
    rec.begin_op();
    let mut out = PeacTimes {
        block_compile_us: 0.0,
        kernel_ns_per_elem_instr: 0.0,
        run_routine_us: 0.0,
        elem_instrs: 0,
    };
    let mut kernel_ns = 0.0;
    rec.span("peac", |rec| {
        for block in &p.exe.compiled.blocks {
            let routine = &block.routine;
            let elems: usize = block.shape.extents().iter().map(|e| e.len()).product();
            let elem_instrs = (elems * routine.len()) as u64;

            let compiles: Vec<f64> = (0..5)
                .map(|_| {
                    rec.span("peac.block_compile", |_| {
                        black_box(CompiledBlock::compile(black_box(routine)));
                    })
                    .1 as f64
                        / 1e3
                })
                .collect();
            out.block_compile_us += median(&compiles);

            // Benign operands: no zero divisors, nothing denormal.
            let mut mem = NodeMemory::new();
            let ptrs: Vec<usize> = (0..routine.nargs_ptr())
                .map(|_| mem.alloc(&vec![1.5; elems]))
                .collect();
            let scalars = vec![0.5; routine.nargs_scalar()];
            let compiled = CompiledBlock::compile(routine);
            // Enough repetitions that a 256-element block is timed over
            // milliseconds, not over one clock tick.
            let reps = (4_000_000 / elem_instrs.max(1)).clamp(1, 2_000);
            let (result, ns) = rec.span("peac.kernel", |_| {
                (0..reps).try_for_each(|_| {
                    compiled.run(&mut mem, &ptrs, &scalars, elems).map(|stats| {
                        black_box(stats);
                    })
                })
            });
            ops.record(
                "peac kernel",
                result.map_err(|e| format!("{}: {e}", routine.name())),
            );
            kernel_ns += ns as f64 / reps as f64;
            out.elem_instrs += elem_instrs;

            let (result, ns) = rec.span("peac.run_routine", |_| {
                f90y_peac::run_routine(routine, &mut mem, &ptrs, &scalars, elems)
            });
            ops.record(
                "peac run_routine",
                result
                    .map(drop)
                    .map_err(|e| format!("{}: {e}", routine.name())),
            );
            out.run_routine_us += ns as f64 / 1e3;
        }
    });
    out.kernel_ns_per_elem_instr = kernel_ns / out.elem_instrs.max(1) as f64;
    out
}

/// How often a side measurement of something that takes `per_ms` is
/// repeated: about 0.4 s worth, between 3 and 15 times.
fn reps_for(per_ms: f64) -> usize {
    ((400.0 / per_ms.max(0.01)) as usize).clamp(3, 15)
}

/// `(with − without) ÷ without`, in percent.
fn overhead_pct(with: f64, without: f64) -> f64 {
    (with - without) / without * 100.0
}

fn counter(report: &TelemetryReport, name: &str) -> f64 {
    report.counter(name).unwrap_or(0) as f64
}

/// The serve layer under trace: a fresh engine, the warm mix replayed
/// for one rate window, then as many cold requests.
struct ServeLayer {
    warm: Phase,
    cold: Phase,
    warm_trace: Vec<RequestTrace>,
    cold_trace: Vec<RequestTrace>,
    evictions: u64,
    queue_depth_max: f64,
    overloaded: u64,
    /// Wall of the traced warm window, for the overhead figure.
    warm_wall_ns: u64,
}

fn serve_layer(rec: &mut Recorder, p: &Prepared, ops: &mut Ops) -> ServeLayer {
    let engine = Engine::new(SERVE_CONFIG);
    let w = &p.workload;
    let mix_len = w.mix.len() as u64;
    let window = w.rate_window() as u64;
    // Fill the cache untraced, as set-up does for the timed pass.
    serve_phase(
        &engine,
        false,
        OUTSTANDING,
        |n| (n < mix_len).then(|| w.warm_request(n)),
        ops,
        None,
    );

    let mut replay = |cold: bool| {
        let mut trace = Vec::new();
        let name = if cold { "serve.cold" } else { "serve.warm" };
        let base_ns = rec.epoch.elapsed().as_nanos() as u64;
        rec.begin_op();
        let (phase, wall_ns) = rec.span(name, |_| {
            serve_phase(
                &engine,
                cold,
                OUTSTANDING,
                |n| (n < window).then(|| w.request(n, cold)),
                ops,
                Some(&mut trace),
            )
        });
        // One operation per request: parse, queue + service, serialise.
        let phase_span = rec.spans().len() - 1;
        for r in &trace {
            rec.begin_op();
            let submit = base_ns + r.submit_ns;
            let reply = base_ns + r.reply_ns;
            let request = rec.add_under(
                Some(phase_span),
                "serve.request",
                submit,
                reply + r.to_json_ns,
            );
            rec.add_under(Some(request), "serve.parse", submit, submit + r.parse_ns);
            rec.add_under(
                Some(request),
                "serve.queue+service",
                submit + r.parse_ns,
                reply,
            );
            rec.add_under(Some(request), "serve.to_json", reply, reply + r.to_json_ns);
        }
        (phase, trace, wall_ns)
    };
    let (warm, warm_trace, warm_wall_ns) = replay(false);
    let (cold, cold_trace, _) = replay(true);
    let stats = engine.stats();
    let report = engine.telemetry_report();
    ServeLayer {
        warm,
        cold,
        warm_trace,
        cold_trace,
        evictions: stats.cache.evictions,
        queue_depth_max: report.gauge("serve.queue.depth").unwrap_or(0.0),
        overloaded: stats.rejected,
        warm_wall_ns,
    }
}

/// `Engine::drain` of one replay of the mix on a worker-less engine
/// with an empty cache: the deterministic replay `bench_serve` commits,
/// on the host clock.
fn drain_mix_ms(rec: &mut Recorder, p: &Prepared, ops: &mut Ops) -> f64 {
    let engine = Engine::new(ServeConfig {
        workers: 0,
        ..SERVE_CONFIG
    });
    let (tx, rx) = channel();
    for n in 0..p.workload.mix.len() as u64 {
        let admitted = engine.submit(p.workload.warm_request(n), tx.clone());
        ops.record(
            "drain submit",
            admitted.map_err(|refusal| refusal.to_json()),
        );
    }
    drop(tx);
    rec.begin_op();
    let ((), ns) = rec.span("serve.drain", |_| engine.drain());
    let answered = rx.iter().count();
    if answered != p.workload.mix.len() {
        ops.record(
            "drain",
            Err(format!(
                "{answered} responses for {} requests",
                p.workload.mix.len()
            )),
        );
    }
    ns as f64 / 1e6
}

/// Key construction plus `CompileCache::lookup`, per request of the
/// mix, on a cache that holds the whole mix: the median in µs.
fn cache_lookup_us(p: &Prepared) -> f64 {
    let mut cache = CompileCache::new(SERVE_CONFIG.cache_capacity);
    // Any artifact will do: a lookup never looks inside it.
    let artifact = Arc::new(
        measure::compile("REAL A(8)\nA = A + 1.0\n").expect("the one-line program compiles"),
    );
    for req in &p.workload.mix {
        cache.insert(&CacheKey::for_request(req), Arc::clone(&artifact));
    }
    let samples: Vec<f64> = (0..20)
        .flat_map(|_| p.workload.mix.iter())
        .map(|req| {
            let t = Instant::now();
            let key = CacheKey::for_request(black_box(req));
            black_box(cache.lookup(&key));
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    median(&samples)
}

/// Everything the traced pass measured, as per-layer metrics, plus the
/// trace itself (Chrome JSON) for the caller to write out.
pub struct Traced {
    pub metrics: Vec<Metric>,
    pub trace_json: String,
}

/// The traced pass. `timed` supplies the untraced medians the overhead
/// figures compare against.
pub fn traced_pass(p: &Prepared, timed: &Timed, ops: &mut Ops) -> Result<Traced, String> {
    let mut rec = Recorder::new();
    let mut m: Vec<Metric> = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        m.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    };
    let source = &p.workload.program;
    let compile_ms = median(&timed.compile_ms);

    // ── compile, stage by stage ────────────────────────────────────
    let mut staged = None;
    for _ in 0..COMPILE_REPS {
        let outcome = staged_compile(&mut rec, source);
        ops.record("staged compile", measure::status(&outcome));
        staged = Some(outcome?);
    }
    let (staged_program, staged_rewrites) = staged.expect("COMPILE_REPS > 0");
    let stage = |rec: &Recorder, name: &str| median(&rec.millis_of(name));
    put("frontend.lex_ms", stage(&rec, "frontend.lex"), "ms");
    put("frontend.parse_ms", stage(&rec, "frontend.parse"), "ms");
    put("lowering.lower_ms", stage(&rec, "lowering.lower"), "ms");
    let transform_total: f64 = rec.millis_of("transform").iter().sum();
    put(
        "transform.total_ms",
        transform_total / COMPILE_REPS as f64,
        "ms",
    );
    let mut passes_total = 0.0;
    for pass in PASS_NAMES {
        // A fixpoint pass runs several times per compile: per compile,
        // its busy time is the sum of its runs.
        let all: f64 = rec
            .millis_of(&format!("transform.pass.{pass}"))
            .iter()
            .sum();
        passes_total += all;
        put(
            &format!("transform.pass.{pass}_ms"),
            all / COMPILE_REPS as f64,
            "ms",
        );
    }
    put(
        "transform.pass_share_pct",
        passes_total / transform_total * 100.0,
        "%",
    );
    put("backend.compile_ms", stage(&rec, "backend.compile"), "ms");
    let staged_ms = stage(&rec, "compile");

    // Counts come from the compiler's own telemetry, which the same
    // call also prices.
    let reps = reps_for(compile_ms);
    let mut with_telemetry = Vec::new();
    let mut report = None;
    for _ in 0..reps {
        let mut tel = Telemetry::new();
        let t = Instant::now();
        let compiled = Compiler::new(Pipeline::F90y).compile_with(black_box(source), &mut tel);
        with_telemetry.push(t.elapsed().as_secs_f64() * 1e3);
        ops.record(
            "compile with telemetry",
            compiled.map(drop).map_err(|e| e.to_string()),
        );
        report = Some(tel.report());
    }
    let report = report.expect("reps >= 3");
    put(
        "frontend.tokens",
        counter(&report, "frontend.tokens"),
        "count",
    );
    put(
        "lowering.moves",
        counter(&report, "transform.moves_before"),
        "count",
    );
    for pass in PASS_NAMES {
        put(
            &format!("transform.pass.{pass}.rewrites"),
            counter(&report, &format!("pass.{pass}.rewrites")),
            "count",
        );
    }
    put(
        "transform.moves_after",
        counter(&report, "transform.moves_after"),
        "count",
    );
    put(
        "transform.blocks_after",
        counter(&report, "transform.blocks_after"),
        "count",
    );
    put(
        "backend.node_blocks",
        counter(&report, "backend.node_blocks"),
        "count",
    );
    put(
        "backend.pe_instructions",
        counter(&report, "backend.pe.instructions"),
        "count",
    );
    put(
        "backend.spill_stores",
        counter(&report, "backend.pe.spill_stores"),
        "count",
    );
    put(
        "backend.host_stmts",
        counter(&report, "backend.host_stmts"),
        "count",
    );

    // The staged compile must be the compile: same passes doing the
    // same rewrites, same program out.
    let same_rewrites = staged_rewrites
        .iter()
        .all(|(pass, n)| *n as f64 == counter(&report, &format!("pass.{pass}.rewrites")));
    let same_program = staged_program.blocks == p.exe.compiled.blocks
        && staged_program.host == p.exe.compiled.host;
    ops.record(
        "staged compile reproduces Compiler::compile",
        match (same_rewrites, same_program) {
            (true, true) => Ok(()),
            (false, _) => Err(format!("rewrites differ: staged {staged_rewrites:?}")),
            (_, false) => Err("the staged compile emitted a different program".into()),
        },
    );
    // The passes are the transform stage: decompose and recompose may
    // not hide a tenth of it. Held only where the stage is long enough
    // to time — under a few milliseconds the fixed cost of cloning the
    // statement list in and out is a real share (11 % on `comm_mix`'s
    // 0.2 ms), and `transform.pass_share_pct` reports it instead.
    if transform_total / COMPILE_REPS as f64 >= PASS_SUM_GATE_MS {
        ops.record(
            "pass times add up to the transform stage",
            if (transform_total - passes_total).abs() <= 0.10 * transform_total {
                Ok(())
            } else {
                Err(format!(
                    "passes {passes_total:.3} ms of transform {transform_total:.3} ms"
                ))
            },
        );
    }

    // ── side measurements of the remaining compile-side layers ─────
    rec.begin_op();
    let (profiled, ns) = rec.span("backend.plan_profile", |_| {
        f90y_backend::plan::profile(&p.exe.compiled).map(drop)
    });
    ops.record("static profile", profiled.map_err(|e| e.to_string()));
    put("backend.plan_profile_ms", ns as f64 / 1e6, "ms");
    let (predicted, ns) = rec.span("core.predict", |_| {
        RUN_CONFIGS
            .iter()
            .try_for_each(|cfg| p.exe.predict(cfg.target).map(drop))
    });
    ops.record("predict", predicted.map_err(|e| e.to_string()));
    put("core.predict_ms", ns as f64 / 1e6, "ms");
    put("nir.eval_ms", p.reference_eval_ms, "ms");
    // `Compiler::lint` is the public entry: parse and lowering included.
    let (linted, ns) = rec.span("analysis.lint", |_| {
        Compiler::new(Pipeline::F90y).lint(source).map(drop)
    });
    ops.record("lint", linted.map_err(|e| e.to_string()));
    put("analysis.lint_ms", ns as f64 / 1e6, "ms");
    let (cmf, ns) = rec.span("baselines.compile_cmf", |_| {
        f90y_baselines::compile_cmf(&p.exe.nir).map(drop)
    });
    ops.record("CMF baseline compile", cmf.map_err(|e| e.to_string()));
    put("baselines.compile_cmf_ms", ns as f64 / 1e6, "ms");
    let (starlisp, ns) = rec.span("baselines.compile_starlisp", |_| {
        f90y_baselines::compile_starlisp(&p.exe.nir).map(drop)
    });
    ops.record(
        "*Lisp baseline compile",
        starlisp.map_err(|e| e.to_string()),
    );
    put("baselines.compile_starlisp_ms", ns as f64 / 1e6, "ms");

    // ── the runs, over TimedMachine ────────────────────────────────
    let mimd_readout = |mm: &MimdMachine| {
        let s = mm.stats();
        (format!("{s:?}"), s.supersteps, s.messages, s.bytes)
    };
    let [cm2, mimd, accel] = &RUN_CONFIGS;
    let runs = [
        traced_run(
            &mut rec,
            p,
            cm2,
            &p.sim_stats[0],
            || Pipeline::F90y.machine(NODES),
            |cm| (format!("{:?}", cm.stats()), cm.stats().node_cycles(), 0, 0),
            ops,
        )?,
        traced_run(
            &mut rec,
            p,
            mimd,
            &p.sim_stats[1],
            || MimdMachine::new(MimdConfig::new(NODES)),
            mimd_readout,
            ops,
        )?,
        traced_run(
            &mut rec,
            p,
            accel,
            &p.sim_stats[2],
            || Accel::new(AccelConfig::new(NODES)),
            |ac| {
                (
                    format!("{:?}", ac.stats()),
                    ac.stats().device_cycles(),
                    0,
                    0,
                )
            },
            ops,
        )?,
    ];
    // Two host threads must simulate exactly what one does.
    let t2 = traced_run(
        &mut rec,
        p,
        &MIMD_T2,
        &p.sim_stats[1],
        || MimdMachine::new(MimdConfig::new(NODES).with_host_threads(MIMD_T2.host_threads)),
        mimd_readout,
        ops,
    )?;
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut host_exec_self_ns = 0;
    for (cfg, run) in RUN_CONFIGS.iter().zip(&runs) {
        host_exec_self_ns += run.host_exec_ns.saturating_sub(run.profile.total_nanos());
        let prof = &run.profile;
        let layer = cfg.layer;
        for (class, timed_only) in [
            (Class::Dispatch, false),
            (Class::Shift, false),
            (Class::Reduce, true),
            (Class::Staging, true),
            (Class::HostElem, true),
            (Class::Router, true),
        ] {
            let name = class.name();
            put(&format!("{layer}.{name}_ms"), ms(prof.nanos(class)), "ms");
            if !timed_only {
                put(
                    &format!("{layer}.{name}_calls"),
                    prof.calls(class) as f64,
                    "count",
                );
            }
        }
        put(&format!("{layer}.sim_units"), run.sim_units as f64, "count");
    }
    put("mimd.messages", runs[1].messages as f64, "count");
    put("mimd.bytes", runs[1].bytes as f64, "count");
    // Same calls and counters as `mimd.`; only the times are news.
    put(MIMD_T2.metric, ms(t2.run_ns), "ms");
    put(
        "mimd.t2.dispatch_ms",
        ms(t2.profile.nanos(Class::Dispatch)),
        "ms",
    );
    put("mimd.t2.shift_ms", ms(t2.profile.nanos(Class::Shift)), "ms");
    put("backend.host_exec_self_ms", ms(host_exec_self_ns), "ms");
    let host_exec_ns: u64 = runs.iter().map(|r| r.host_exec_ns).sum();
    put(
        "backend.host_exec_self_pct",
        host_exec_self_ns as f64 / host_exec_ns as f64 * 100.0,
        "%",
    );

    // ── PEAC on its own ────────────────────────────────────────────
    let peac = peac_layer(&mut rec, p, ops);
    put("peac.block_compile_us", peac.block_compile_us, "us");
    put(
        "peac.kernel_ns_per_elem_instr",
        peac.kernel_ns_per_elem_instr,
        "ns",
    );
    put("peac.run_routine_us", peac.run_routine_us, "us");
    put("peac.elem_instrs", peac.elem_instrs as f64, "count");

    // ── what the repo's own observability costs ────────────────────
    put(
        "obs.telemetry_overhead_pct",
        overhead_pct(median(&with_telemetry), compile_ms),
        "%",
    );
    let cm2_ms = median(&timed.run_ms[0]);
    let with_sink: Vec<f64> = (0..reps_for(cm2_ms).min(5))
        .map(|_| {
            let mut sink = ChromeTraceSink::new(Vec::new());
            let t = Instant::now();
            let run = p.exe.session(RUN_CONFIGS[0].target).trace(&mut sink).run();
            let elapsed = t.elapsed().as_secs_f64() * 1e3;
            ops.record(
                "run with a trace sink",
                run.map(drop).map_err(|e| e.to_string()),
            );
            elapsed
        })
        .collect();
    put(
        "obs.trace_sink_overhead_pct",
        overhead_pct(median(&with_sink), cm2_ms),
        "%",
    );

    // ── serve ──────────────────────────────────────────────────────
    let serve = serve_layer(&mut rec, p, ops);
    let field_us = |trace: &[RequestTrace], f: fn(&RequestTrace) -> u64| {
        median(&trace.iter().map(|r| f(r) as f64 / 1e3).collect::<Vec<_>>())
    };
    let both: Vec<RequestTrace> = serve
        .warm_trace
        .iter()
        .chain(&serve.cold_trace)
        .copied()
        .collect();
    put("serve.parse_us", field_us(&both, |r| r.parse_ns), "us");
    put("serve.to_json_us", field_us(&both, |r| r.to_json_ns), "us");
    put("serve.cache_lookup_us", cache_lookup_us(p), "us");
    put("serve.cache_hit_rate", serve.warm.hit_rate(), "ratio");
    put("serve.cold_hit_rate", serve.cold.hit_rate(), "ratio");
    put("serve.cache_evictions", serve.evictions as f64, "count");
    put("serve.queue_depth_max", serve.queue_depth_max, "count");
    let latency_of = |phase: &Phase, hit: bool| {
        let xs: Vec<f64> = phase
            .latencies_ms
            .iter()
            .zip(&phase.cache_hit)
            .filter(|(_, h)| **h == Some(hit))
            .map(|(l, _)| *l)
            .collect();
        if xs.is_empty() {
            0.0
        } else {
            median(&xs)
        }
    };
    put("serve.hit_latency_ms", latency_of(&serve.warm, true), "ms");
    put(
        "serve.miss_latency_ms",
        latency_of(&serve.cold, false),
        "ms",
    );
    // The tail comes from the timed pass's warm phase, the largest
    // sample there is. Always p90: two rate windows are 200 requests,
    // which leaves ten samples beyond p90 and too few beyond p99.
    let tail = stats::p90(&timed.warm.latencies_ms);
    put("serve.latency_p90_ms", tail, "ms");
    put("serve.drain_mix_ms", drain_mix_ms(&mut rec, p, ops), "ms");
    put("serve.overloaded", serve.overloaded as f64, "count");

    // ── does the trace account for the time, and what did it cost ──
    // Traced operations against the untraced medians of the same
    // operations: one compile, the three runs (machine construction
    // included on both sides), one warm rate window.
    let window = p.workload.rate_window();
    let traced_ms =
        staged_ms + runs.iter().map(|r| ms(r.run_ns)).sum::<f64>() + ms(serve.warm_wall_ns);
    let untraced_ms = compile_ms
        + timed.run_ms.iter().map(|r| median(r)).sum::<f64>()
        + window as f64 / timed.warm.rps(window) * 1e3;
    put(
        "bench.trace_overhead_pct",
        overhead_pct(traced_ms, untraced_ms),
        "%",
    );
    // Layer spans against the operations that contain them: stages
    // inside `compile`, `HostExecutor::run` inside `run.*`. (A request
    // is parse + service + serialise with nothing between.)
    let compile_roots: f64 = rec.millis_of("compile").iter().sum();
    let compile_layers: f64 = [
        "frontend.parse",
        "lowering.lower",
        "transform",
        "backend.compile",
    ]
    .iter()
    .flat_map(|name| rec.millis_of(name))
    .sum();
    let run_roots: f64 = runs.iter().map(|r| ms(r.run_ns)).sum();
    let run_layers: f64 = runs.iter().map(|r| ms(r.host_exec_ns)).sum();
    let roots = compile_roots + run_roots;
    put(
        "bench.layer_sum_gap_pct",
        (roots - compile_layers - run_layers).abs() / roots * 100.0,
        "%",
    );
    put(
        "bench.compile_stage_gap_pct",
        (compile_roots - compile_layers).abs() / compile_roots * 100.0,
        "%",
    );

    // ── the trace file ─────────────────────────────────────────────
    // Machine calls go in last, under their run's executor span, and
    // each executor span notes what the capped log left out.
    let mut notes = Vec::new();
    for (cfg, run) in RUN_CONFIGS
        .iter()
        .chain([&MIMD_T2])
        .zip(runs.into_iter().chain([t2]))
    {
        let parent = run.host_exec_span;
        notes.push((
            parent,
            "unlogged_calls",
            run.profile.unlogged_calls() as f64,
        ));
        for class in Class::ALL {
            notes.push((parent, class.name(), ms(run.profile.nanos(class))));
        }
        for call in run.profile.into_log() {
            rec.add_under(
                Some(parent),
                &format!("{}.{}", cfg.layer, call.class.name()),
                call.start_ns,
                call.end_ns,
            );
        }
    }
    Ok(Traced {
        metrics: m,
        trace_json: rec.to_chrome_json(p.workload.name, &notes),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{setup, timed_pass};
    use crate::workload::{Sizes, NAMES};

    #[test]
    fn staged_pipeline_is_the_default_pipeline() {
        let units = pipeline_units();
        assert_eq!(
            units,
            [
                vec!["comm-split".to_string()],
                vec!["comm-cse".to_string()],
                vec!["mask-pad".to_string()],
                vec!["blocking-reorder".to_string(), "blocking-fuse".to_string()],
                vec!["dce-temps".to_string()],
            ]
        );
        for name in units.iter().flatten() {
            assert!(PASS_NAMES.contains(&name.as_str()));
        }
    }

    #[test]
    fn traced_pass_emits_every_per_layer_metric_on_every_workload() {
        for name in NAMES {
            let mut ops = Ops::default();
            let p = setup(name, 1, Sizes::TOY, &mut ops).unwrap();
            let timed = timed_pass(&p, 0.0, &mut ops);
            let traced = traced_pass(&p, &timed, &mut ops).unwrap();
            assert_eq!(ops.failed, 0, "{name}: {:?}", ops.reasons);
            let mut names: Vec<&str> = traced.metrics.iter().map(|m| m.name.as_str()).collect();
            let emitted = names.len();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), emitted, "{name}: a metric is emitted twice");
            let mut want = crate::report::per_layer_names();
            want.sort_unstable();
            assert_eq!(names, want, "{name}");
            assert!(traced.metrics.iter().all(|m| m.value.is_finite()), "{name}");
            f90y_obs::json::parse(&traced.trace_json).unwrap();
        }
    }

    #[test]
    fn call_counts_repeat_exactly() {
        let counts = || {
            let mut ops = Ops::default();
            let p = setup("comm_mix", 1, Sizes::TOY, &mut ops).unwrap();
            let timed = timed_pass(&p, 0.0, &mut ops);
            let traced = traced_pass(&p, &timed, &mut ops).unwrap();
            traced
                .metrics
                .into_iter()
                // Everything counted is deterministic except how deep
                // the queue happened to get.
                .filter(|m| m.unit == "count" && m.name != "serve.queue_depth_max")
                .map(|m| (m.name, m.value))
                .collect::<Vec<_>>()
        };
        assert_eq!(counts(), counts());
    }
}
