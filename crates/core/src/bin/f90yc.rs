//! `f90yc` — the Fortran-90-Y command-line compiler driver.
//!
//! ```text
//! f90yc [options] <file.f90 | ->
//! f90yc --list-targets
//!
//!   --pipeline f90y|cmf|starlisp   compiler to model       (default f90y)
//!   --target cm2|cm5|accel         execution engine         (default cm2)
//!   --list-targets                 print every registered target manifest
//!                                  (name, vector width, topology, node
//!                                  constraints) and exit
//!   --nodes N                      nodes, power of 2        (default 2048)
//!   --host-threads N               host worker threads for the MIMD
//!                                  compute phase (cm5 only, default 1;
//!                                  results are bit-identical at any N)
//!   --emit nir|opt|peac|host       print a stage and stop
//!   --lint[=deny|=json]            print diagnostics and stop (W-RACE,
//!                                  W-UNINIT, W-DEADSTORE, W-WIDE-HALO,
//!                                  W-REDUNDANT-COMM, W-ALLTOALL; =deny
//!                                  exits 1 on any, =json prints the
//!                                  f90y-lint-v1 document)
//!   --analyze-comm[=json]          print the static communication plan —
//!                                  classified ops, per-target predicted
//!                                  counters at --nodes, modelled comm
//!                                  seconds — and stop (=json prints the
//!                                  f90y-comm-plan-v1 document)
//!   --passes a,b,c                 override the middle-end pass list
//!   --emit-after <pass>            print the NIR after that pass and stop
//!   --print-ir-after-all           print the NIR after every pass, then go on
//!   --verify-passes                check types/shapes/behaviour between passes
//!   --audit-passes                 check def-use legality between passes
//!   --run                          execute and report       (default)
//!   --validate                     also check against the reference evaluator
//!   --finals a,b,c                 print these variables after the run
//!   --timings                      print a phase-timing/counter table on stderr
//!   --emit-telemetry <path>        write the telemetry report as JSON
//!   --emit-trace <path>            write a Chrome trace-event JSON flight
//!                                  recording of the run (open in Perfetto)
//!   --emit-trace-jsonl <path>      write the flight recording as compact JSONL
//!   --profile                      print a PEAC opcode/cycle hot-spot report
//!                                  (cm2 only), cross-checked to the cycle
//!   --fault-seed S                 seed a deterministic fault plan (cm5 only)
//!   --fault-drop P                 drop P‰ of messages      (implies a plan)
//!   --fault-kill STEP:NODE         kill NODE at superstep STEP (repeatable)
//! ```
//!
//! Pass names: `comm-split`, `comm-cse`, `mask-pad`, `blocking-reorder`,
//! `blocking-fuse`, `dce-temps`, plus the pseudo-name `blocking` for the
//! reorder/fuse fixpoint group. `--passes`, `--emit-after` and
//! `--verify-passes` also accept `--flag=value` spelling; inter-pass
//! verification can be forced globally with `F90Y_VERIFY_PASSES=1` and
//! the static def-use audit with `F90Y_AUDIT_PASSES=1`.
//!
//! `--lint` parses and lowers, then runs the `f90y-analysis`
//! diagnostics engine over the lowered NIR (`W-RACE`, `W-UNINIT`,
//! `W-DEADSTORE`) plus the communication lints over the *optimized*
//! NIR (`W-WIDE-HALO`, `W-REDUNDANT-COMM`, `W-ALLTOALL`, judged
//! against the selected `--target`'s topology): each warning carries a
//! stable code and the offending statement, and `--timings`
//! additionally shows the `analysis.*` counters. `--lint=deny` turns
//! any warning into exit status 1 — the CI spelling.
//!
//! `--lint=json` emits one `f90y-lint-v1` JSON document on stdout:
//!
//! ```json
//! {"schema":"f90y-lint-v1","clean":false,"stmts_analyzed":12,"facts":34,
//!  "warnings":1,"diagnostics":[{"code":"W-RACE","var":"a",
//!  "message":"…","stmt":"MOVE …","phase":"lowered"}]}
//! ```
//!
//! `phase` is `"lowered"` for the dataflow codes and `"optimized"` for
//! the communication codes; `stmt` is `null` when no single statement
//! anchors the warning. The schema is stable: fields are only added,
//! never renamed or removed.
//!
//! `--analyze-comm` compiles through the middle end, computes the
//! static communication plan of the optimized program, prices it
//! against every registered target manifest, and folds the backend's
//! exact static profile into per-target predicted counters at
//! `--nodes` (the same numbers the machines will report — see the
//! plan↔trace reconciliation suite). `--analyze-comm=json` emits one
//! `f90y-comm-plan-v1` document:
//!
//! ```json
//! {"schema":"f90y-comm-plan-v1","nodes":16,"exact":true,
//!  "ops":[{"stmt":3,"kind":"halo","axis":1,"width":1,"shift":1,
//!  "eoshift":false,"array":"a","multiplicity":1,"in_while":false}],
//!  "halo_widths":[{"array":"a","axis":1,"width":1}],
//!  "priced_seconds":{"cm2":0.001,"cm5":0.0001,"accel":0.00001},
//!  "predicted":{"cm2":{…},"cm5":{…},"accel":{…}},"plan_error":null}
//! ```
//!
//! `axis` is 1-based (the Fortran `DIM` convention); `width` is `null`
//! for a dynamic shift distance; `predicted` is `null` — and
//! `plan_error` a message — when control flow depends on machine data
//! and no exact static plan exists.
//!
//! Examples:
//!
//! ```text
//! cargo run -p f90y-core --bin f90yc -- --emit peac prog.f90
//! echo 'INTEGER K(64,64)
//! K = 2*K + 5' | cargo run -p f90y-core --bin f90yc -- --validate -
//! cargo run -p f90y-core --bin f90yc -- --lint prog.f90
//! cargo run -p f90y-core --bin f90yc -- --lint=deny --timings prog.f90
//! cargo run -p f90y-core --bin f90yc -- --emit-after=blocking-fuse prog.f90
//! cargo run -p f90y-core --bin f90yc -- --passes=comm-split,mask-pad \
//!     --verify-passes prog.f90
//! cargo run -p f90y-core --bin f90yc -- --target cm5 --nodes 64 prog.f90
//! cargo run -p f90y-core --bin f90yc -- --target cm5 --nodes 64 \
//!     --host-threads 4 prog.f90
//! cargo run -p f90y-core --bin f90yc -- --target cm5 --nodes 16 \
//!     --fault-seed 7 --fault-drop 20 --fault-kill 3:1 prog.f90
//! ```

use std::io::Read;
use std::process::ExitCode;

use f90y_core::{
    comm_plan, price, ChromeTraceSink, Cm2, CommKind, CommOp, CommPlan, Compiler, Diagnostic,
    DumpPoint, Executable, FaultPlan, JsonSink, JsonlTraceSink, LintReport, Pipeline, PrettySink,
    Run, Target, TargetPrediction, Telemetry, WarnCode,
};
use f90y_peac::OpcodeProfile;

/// Which execution engine runs the compiled program.
#[derive(Clone, Copy, PartialEq, Eq)]
enum TargetKind {
    /// The lock-step CM/2 SIMD simulator (the default).
    Cm2,
    /// The CM/5 MIMD engine: sharded arrays, real message passing.
    Cm5,
    /// The accelerator model: kernel launches over device memory.
    Accel,
}

struct Options {
    pipeline: Pipeline,
    target: TargetKind,
    nodes: usize,
    host_threads: usize,
    emit: Option<String>,
    lint: bool,
    lint_deny: bool,
    lint_json: bool,
    analyze_comm: bool,
    analyze_comm_json: bool,
    passes: Option<Vec<String>>,
    emit_after: Option<String>,
    print_ir_after_all: bool,
    verify_passes: bool,
    audit_passes: bool,
    validate: bool,
    finals: Vec<String>,
    timings: bool,
    emit_telemetry: Option<String>,
    emit_trace: Option<String>,
    emit_trace_jsonl: Option<String>,
    profile: bool,
    fault_seed: Option<u64>,
    fault_drop: Option<u16>,
    fault_kills: Vec<(u64, usize)>,
    input: Option<String>,
}

impl Options {
    /// The fault plan the fault flags describe, if any was asked for.
    fn fault_plan(&self) -> Option<FaultPlan> {
        if self.fault_seed.is_none() && self.fault_drop.is_none() && self.fault_kills.is_empty() {
            return None;
        }
        let mut plan = FaultPlan::seeded(self.fault_seed.unwrap_or(0));
        if let Some(p) = self.fault_drop {
            plan = plan.drop_per_mille(p);
        }
        for &(step, node) in &self.fault_kills {
            plan = plan.kill(step, node);
        }
        Some(plan)
    }
}

const USAGE: &str = "usage: f90yc [options] <file.f90 | ->
       f90yc --list-targets

  --pipeline f90y|cmf|starlisp   compiler to model       (default f90y)
  --target cm2|cm5|accel         execution engine         (default cm2)
  --list-targets                 print every registered target manifest
                                 (name, vector width, topology, node
                                 constraints) and exit
  --nodes N                      nodes, power of 2        (default 2048)
  --host-threads N               host worker threads for the MIMD
                                 compute phase (cm5 only, default 1;
                                 results are bit-identical at any N)
  --emit nir|opt|peac|host       print a stage and stop
  --lint[=deny|=json]            print diagnostics and stop (W-RACE, W-UNINIT,
                                 W-DEADSTORE, W-WIDE-HALO, W-REDUNDANT-COMM,
                                 W-ALLTOALL; =deny exits 1 on any, =json
                                 prints the f90y-lint-v1 document)
  --analyze-comm[=json]          print the static communication plan (ops,
                                 per-target predicted counters at --nodes,
                                 modelled comm seconds) and stop
  --passes a,b,c                 override the middle-end pass list
  --emit-after <pass>            print the NIR after that pass and stop
  --print-ir-after-all           print the NIR after every pass, then go on
  --verify-passes                check types/shapes/behaviour between passes
  --audit-passes                 check def-use legality between passes
  --validate                     also check against the reference evaluator
  --finals a,b,c                 print these variables after the run
  --timings                      print a phase-timing/counter table on stderr
  --emit-telemetry <path>        write the telemetry report as JSON
  --emit-trace <path>            write a Chrome trace-event JSON flight
                                 recording of the run (open in Perfetto)
  --emit-trace-jsonl <path>      write the flight recording as compact JSONL
  --profile                      print a PEAC opcode/cycle hot-spot report
                                 (cm2 only), cross-checked to the cycle
  --fault-seed S                 seed a deterministic fault plan (cm5 only)
  --fault-drop P                 drop P per-mille of messages (implies a plan)
  --fault-kill STEP:NODE         kill NODE at superstep STEP (repeatable)";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        pipeline: Pipeline::F90y,
        target: TargetKind::Cm2,
        nodes: 2048,
        host_threads: 1,
        emit: None,
        lint: false,
        lint_deny: false,
        lint_json: false,
        analyze_comm: false,
        analyze_comm_json: false,
        passes: None,
        emit_after: None,
        print_ir_after_all: false,
        verify_passes: false,
        audit_passes: false,
        validate: false,
        finals: Vec::new(),
        timings: false,
        emit_telemetry: None,
        emit_trace: None,
        emit_trace_jsonl: None,
        profile: false,
        fault_seed: None,
        fault_drop: None,
        fault_kills: Vec::new(),
        input: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--pipeline" => {
                opts.pipeline = match args.next().as_deref() {
                    Some("f90y") => Pipeline::F90y,
                    Some("cmf") => Pipeline::Cmf,
                    Some("starlisp") => Pipeline::StarLisp,
                    _ => usage(),
                }
            }
            "--target" => {
                opts.target = match args.next().as_deref() {
                    Some("cm2") => TargetKind::Cm2,
                    Some("cm5") => TargetKind::Cm5,
                    Some("accel") => TargetKind::Accel,
                    _ => usage(),
                }
            }
            "--list-targets" => {
                print_targets();
                std::process::exit(0);
            }
            "--nodes" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) => opts.nodes = n,
                None => usage(),
            },
            "--host-threads" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) if n >= 1 => opts.host_threads = n,
                _ => usage(),
            },
            "--emit" => match args.next() {
                Some(e) if ["nir", "opt", "peac", "host"].contains(&e.as_str()) => {
                    opts.emit = Some(e)
                }
                _ => usage(),
            },
            "--passes" => match args.next() {
                Some(list) => opts.passes = Some(split_names(&list)),
                None => usage(),
            },
            "--emit-after" => match args.next() {
                Some(p) => opts.emit_after = Some(p),
                None => usage(),
            },
            "--print-ir-after-all" => opts.print_ir_after_all = true,
            "--verify-passes" => opts.verify_passes = true,
            "--audit-passes" => opts.audit_passes = true,
            "--lint" => opts.lint = true,
            "--lint=deny" => {
                opts.lint = true;
                opts.lint_deny = true;
            }
            "--lint=json" => {
                opts.lint = true;
                opts.lint_json = true;
            }
            "--analyze-comm" => opts.analyze_comm = true,
            "--analyze-comm=json" => {
                opts.analyze_comm = true;
                opts.analyze_comm_json = true;
            }
            "--validate" => opts.validate = true,
            "--timings" => opts.timings = true,
            "--emit-telemetry" => match args.next() {
                Some(path) => opts.emit_telemetry = Some(path),
                None => usage(),
            },
            "--emit-trace" => match args.next() {
                Some(path) => opts.emit_trace = Some(path),
                None => usage(),
            },
            "--emit-trace-jsonl" => match args.next() {
                Some(path) => opts.emit_trace_jsonl = Some(path),
                None => usage(),
            },
            "--profile" => opts.profile = true,
            "--finals" => match args.next() {
                Some(list) => opts.finals = list.split(',').map(str::to_string).collect(),
                None => usage(),
            },
            "--fault-seed" => match args.next().and_then(|n| n.parse().ok()) {
                Some(s) => opts.fault_seed = Some(s),
                None => usage(),
            },
            "--fault-drop" => match args.next().and_then(|n| n.parse().ok()) {
                Some(p) if p <= 1000 => opts.fault_drop = Some(p),
                _ => usage(),
            },
            "--fault-kill" => match args.next().as_deref().and_then(parse_kill) {
                Some(kill) => opts.fault_kills.push(kill),
                None => usage(),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => {
                if let Some(list) = other.strip_prefix("--passes=") {
                    opts.passes = Some(split_names(list));
                } else if let Some(p) = other.strip_prefix("--emit-after=") {
                    opts.emit_after = Some(p.to_string());
                } else if let Some(p) = other.strip_prefix("--emit-trace=") {
                    opts.emit_trace = Some(p.to_string());
                } else if let Some(p) = other.strip_prefix("--emit-trace-jsonl=") {
                    opts.emit_trace_jsonl = Some(p.to_string());
                } else if !other.starts_with('-') || other == "-" {
                    opts.input = Some(other.to_string());
                } else {
                    usage();
                }
            }
        }
    }
    if opts.input.is_none() {
        usage();
    }
    if opts.target != TargetKind::Cm5 && opts.fault_plan().is_some() {
        eprintln!("f90yc: fault injection needs --target cm5");
        std::process::exit(2);
    }
    if opts.target != TargetKind::Cm2 && opts.profile {
        eprintln!("f90yc: --profile attributes PEAC opcode cycles and needs --target cm2");
        std::process::exit(2);
    }
    if opts.target != TargetKind::Cm5 && opts.host_threads > 1 {
        eprintln!(
            "f90yc: --host-threads parallelises the MIMD compute phase and needs --target cm5"
        );
        std::process::exit(2);
    }
    opts
}

/// Print every registered target manifest — the machine facts the
/// session layer validates against, straight from the HAL registry.
fn print_targets() {
    let registry = f90y_core::Registry::builtin();
    println!("registered targets ({}):", registry.len());
    for m in registry.iter() {
        println!("\n  {} — {} ({} model)", m.name, m.display, m.kind);
        println!(
            "    vector width:   {} lanes × {} unit(s)/node",
            m.vector_lanes, m.units_per_node
        );
        println!(
            "    clock:          {:.0} MHz {}",
            m.clock_hz / 1e6,
            match m.kind {
                f90y_hal::TargetKind::Simd => "node",
                f90y_hal::TargetKind::Mimd => "vector unit",
                f90y_hal::TargetKind::Accel => "device",
            }
        );
        println!("    topology:       {}", m.topology);
        println!("    nodes:          {}", m.nodes.describe());
        let regions: Vec<&str> = m.memory_regions.iter().map(|r| r.name).collect();
        println!("    memory regions: {}", regions.join(", "));
    }
}

/// Parse a `STEP:NODE` kill spec.
fn parse_kill(spec: &str) -> Option<(u64, usize)> {
    let (step, node) = spec.split_once(':')?;
    Some((step.parse().ok()?, node.parse().ok()?))
}

/// Split a comma-separated pass list, ignoring empty segments.
fn split_names(list: &str) -> Vec<String> {
    list.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

fn main() -> ExitCode {
    let opts = parse_args();
    let path = opts.input.as_deref().expect("checked in parse_args");
    let source = if path == "-" {
        let mut s = String::new();
        if std::io::stdin().read_to_string(&mut s).is_err() {
            eprintln!("f90yc: cannot read stdin");
            return ExitCode::FAILURE;
        }
        s
    } else {
        match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("f90yc: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    let mut tel = if opts.timings || opts.emit_telemetry.is_some() {
        Telemetry::new()
    } else {
        Telemetry::disabled()
    };

    let mut compiler = Compiler::new(opts.pipeline)
        .verify_passes(opts.verify_passes)
        .audit_passes(opts.audit_passes);
    if let Some(names) = &opts.passes {
        compiler = compiler.passes(names.iter().cloned());
    }

    if opts.lint {
        let report = match compiler.lint_with(&source, &mut tel) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("f90yc: {e}");
                return ExitCode::FAILURE;
            }
        };
        let comm = match compiler.lint_comm(&source, target_topology(opts.target)) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("f90yc: {e}");
                return ExitCode::FAILURE;
            }
        };
        let clean = report.is_clean() && comm.is_empty();
        if opts.lint_json {
            println!("{}", lint_json(&report, &comm));
        } else {
            for d in &report.diagnostics {
                println!("{d}");
            }
            for d in &comm {
                println!("{d}");
            }
            if clean {
                println!(
                    "lint: clean ({} statements analysed, {} dataflow facts)",
                    report.stmts_analyzed, report.facts
                );
            } else {
                let by_code: Vec<String> = [
                    WarnCode::Race,
                    WarnCode::Uninit,
                    WarnCode::DeadStore,
                    WarnCode::WideHalo,
                    WarnCode::RedundantComm,
                    WarnCode::AllToAll,
                ]
                .iter()
                .filter_map(|&c| {
                    let n = report.count_of(c) + comm.iter().filter(|d| d.code == c).count();
                    (n > 0).then(|| format!("{c}: {n}"))
                })
                .collect();
                println!(
                    "lint: {} warning(s) ({})",
                    report.diagnostics.len() + comm.len(),
                    by_code.join(", ")
                );
            }
        }
        let sinks = finish(&tel, &opts);
        if opts.lint_deny && !clean {
            return ExitCode::FAILURE;
        }
        return sinks;
    }
    if let Some(pass) = &opts.emit_after {
        compiler = compiler.dump_ir(DumpPoint::After(pass.clone()));
    } else if opts.print_ir_after_all {
        compiler = compiler.dump_ir(DumpPoint::All);
    }
    let exe = match compiler.compile_with(&source, &mut tel) {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("f90yc: {e}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(pass) = &opts.emit_after {
        match exe.pass_reports.dump_after(pass) {
            Some(dump) => {
                println!("{dump}");
                return finish(&tel, &opts);
            }
            None => {
                let ran: Vec<&str> = exe
                    .pass_reports
                    .passes
                    .iter()
                    .map(|p| p.name.as_str())
                    .collect();
                eprintln!(
                    "f90yc: pass '{pass}' did not run (pipeline ran: {})",
                    ran.join(", ")
                );
                return ExitCode::FAILURE;
            }
        }
    }
    if opts.print_ir_after_all {
        for (i, (pass, dump)) in exe.pass_reports.dumps.iter().enumerate() {
            println!(";; --- IR after {pass} (run {i}) ---");
            println!("{dump}");
        }
    }

    if opts.analyze_comm {
        print_comm_analysis(&exe, &opts);
        return finish(&tel, &opts);
    }

    match opts.emit.as_deref() {
        Some("nir") => {
            println!("{}", f90y_nir::pretty::print_imp(&exe.nir));
            return finish(&tel, &opts);
        }
        Some("opt") => {
            println!("{}", f90y_nir::pretty::print_imp(&exe.optimized));
            return finish(&tel, &opts);
        }
        Some("peac") => {
            print!("{}", exe.compiled.listings());
            return finish(&tel, &opts);
        }
        Some("host") => {
            print!("{}", exe.compiled.host);
            return finish(&tel, &opts);
        }
        _ => {}
    }

    let target = match opts.target {
        TargetKind::Cm2 => Target::Cm2 { nodes: opts.nodes },
        TargetKind::Cm5 => Target::Cm5Mimd { nodes: opts.nodes },
        TargetKind::Accel => Target::Accel { nodes: opts.nodes },
    };
    let mut chrome_sink = match &opts.emit_trace {
        Some(path) => match ChromeTraceSink::create(path) {
            Ok(sink) => Some(sink),
            Err(e) => {
                eprintln!("f90yc: cannot create trace file {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let mut jsonl_sink = match &opts.emit_trace_jsonl {
        Some(path) => match JsonlTraceSink::create(path) {
            Ok(sink) => Some(sink),
            Err(e) => {
                eprintln!("f90yc: cannot create trace file {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let mut profiled_cm = if opts.profile {
        let mut cm = exe.pipeline.machine(opts.nodes);
        cm.enable_profile();
        cm.enable_opcode_profile();
        Some(cm)
    } else {
        None
    };
    let mut session = exe
        .session(target)
        .host_threads(opts.host_threads)
        .telemetry(&mut tel);
    if let Some(plan) = opts.fault_plan() {
        session = session.faults(plan);
    }
    if let Some(sink) = chrome_sink.as_mut() {
        session = session.trace(sink);
    }
    if let Some(sink) = jsonl_sink.as_mut() {
        session = session.trace(sink);
    }
    if let Some(cm) = profiled_cm.as_mut() {
        session = session.on_machine(cm);
    }
    let run = match session.run() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("f90yc: execution failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    match &run {
        Run::Cm2(r) => println!(
            "{} on {} CM/2 nodes: {:.4} GFLOPS sustained ({:.3} ms modelled, \
             {} dispatches, {} comm calls, host {:.2}%)",
            opts.pipeline.name(),
            opts.nodes,
            r.gflops,
            r.elapsed_seconds * 1e3,
            r.stats.dispatches,
            r.stats.comm_calls,
            r.host_fraction * 100.0,
        ),
        Run::Mimd(r) => {
            println!(
                "{} on {} CM/5 nodes: {:.4} GFLOPS sustained ({:.3} ms modelled, \
                 {} dispatches, {} comm calls, {} messages, {} bytes)",
                opts.pipeline.name(),
                opts.nodes,
                r.gflops,
                r.elapsed_seconds * 1e3,
                r.stats.dispatches,
                r.stats.comm_calls,
                r.stats.messages,
                r.stats.bytes,
            );
            if opts.fault_plan().is_some() {
                println!(
                    "faults: {} injected ({} dropped, {} duplicated, {} delayed, \
                     {} kills, {} stalls); {} retries, {} restarts, recovery {:.3} ms",
                    r.stats.faults_injected(),
                    r.stats.msgs_dropped,
                    r.stats.msgs_duplicated,
                    r.stats.msgs_delayed,
                    r.stats.node_kills,
                    r.stats.node_stalls,
                    r.stats.retries,
                    r.stats.node_restarts,
                    r.stats.recovery_seconds * 1e3,
                );
            }
        }
        Run::Accel(r) => println!(
            "{} on {} accel units: {:.4} GFLOPS sustained ({:.3} ms modelled, \
             {} kernel launches, {} H2D + {} D2H transfers, {} bytes moved)",
            opts.pipeline.name(),
            opts.nodes,
            r.gflops,
            r.elapsed_seconds * 1e3,
            r.stats.kernel_launches,
            r.stats.h2d_transfers,
            r.stats.d2h_transfers,
            r.stats.h2d_bytes + r.stats.d2h_bytes,
        ),
    }
    if let Some(cm) = &profiled_cm {
        if let Err(e) = print_profile(cm) {
            eprintln!("f90yc: PROFILE RECONCILIATION FAILED: {e}");
            return ExitCode::FAILURE;
        }
    }
    let finals = run.finals();
    for name in &opts.finals {
        match finals.final_array(name) {
            Ok(a) => {
                let head: Vec<String> = a.iter().take(8).map(|x| format!("{x}")).collect();
                println!(
                    "{name} = [{}{}]",
                    head.join(", "),
                    if a.len() > 8 { ", …" } else { "" }
                );
            }
            Err(_) => match finals.final_scalar(name) {
                Ok(s) => println!("{name} = {s}"),
                Err(e) => eprintln!("f90yc: {e}"),
            },
        }
    }
    if opts.validate {
        if let Err(e) = exe.validate() {
            eprintln!("f90yc: VALIDATION FAILED: {e}");
            return ExitCode::FAILURE;
        }
        println!("validated against the NIR reference evaluator");
    }
    finish(&tel, &opts)
}

/// How many hot statements and hot opcodes the `--profile` report
/// shows.
const PROFILE_TOP_K: usize = 8;

/// Print the PEAC hot-spot report: the comm/compute cycle split from
/// the [`CycleProfile`](f90y_cm2::CycleProfile), the top-K dispatched
/// statements by compute-cycle share, and the per-opcode histogram —
/// after cross-checking every routine's opcode cycle total against the
/// cycle profile's `dispatch.*` compute cycles.
///
/// # Errors
///
/// Returns a description of the first routine whose opcode histogram
/// does not reconcile with the cycle profile to the cycle.
fn print_profile(cm: &Cm2) -> Result<(), String> {
    let profile = cm
        .profile()
        .ok_or_else(|| "cycle profile was not recorded".to_string())?;
    let opcodes = cm
        .opcode_profiles()
        .ok_or_else(|| "opcode profile was not recorded".to_string())?;

    // Reconcile: each routine's opcode cycles must equal the cycle
    // profile's compute attribution for that dispatch phase, exactly.
    let mut dispatch_compute: u64 = 0;
    for (name, hist) in opcodes {
        let phase = format!("dispatch.{name}");
        let attributed = profile.phase(&phase).map(|p| p.compute_cycles).unwrap_or(0);
        if hist.total_cycles() != attributed {
            return Err(format!(
                "routine '{name}': opcode histogram has {} cycles but the cycle \
                 profile attributes {attributed}",
                hist.total_cycles()
            ));
        }
        dispatch_compute += attributed;
    }
    if dispatch_compute != profile.compute_total() {
        return Err(format!(
            "opcode histograms cover {dispatch_compute} compute cycles but the \
             cycle profile totals {}",
            profile.compute_total()
        ));
    }

    let compute = profile.compute_total();
    let comm = profile.comm_total();
    let overhead = profile.dispatch_overhead_total();
    let host = profile.host_total();
    let all = compute + comm + overhead + host;
    let pct = |c: u64| {
        if all == 0 {
            0.0
        } else {
            100.0 * c as f64 / all as f64
        }
    };
    println!(
        "profile: {all} modelled cycles on {} CM/2 nodes",
        cm.config().nodes
    );
    println!(
        "  compute {compute} ({:.1}%) | comm {comm} ({:.1}%) | dispatch overhead \
         {overhead} ({:.1}%) | host {host} ({:.1}%)",
        pct(compute),
        pct(comm),
        pct(overhead),
        pct(host)
    );

    // Top-K dispatched statements by compute-cycle share.
    let mut hot: Vec<(&str, u64, u64)> = opcodes
        .iter()
        .map(|(name, hist)| (name.as_str(), hist.total_cycles(), hist.total_hits()))
        .collect();
    hot.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    println!("  hot statements (by compute-cycle share):");
    for (rank, (name, cycles, hits)) in hot.iter().take(PROFILE_TOP_K).enumerate() {
        let share = if compute == 0 {
            0.0
        } else {
            100.0 * *cycles as f64 / compute as f64
        };
        println!(
            "    {:>2}. {name:<24} {cycles:>12} cycles  {share:>5.1}%  ({hits} ops)",
            rank + 1
        );
    }
    if hot.len() > PROFILE_TOP_K {
        println!("    … and {} more", hot.len() - PROFILE_TOP_K);
    }

    // Per-opcode histogram, merged across every routine.
    let mut merged = OpcodeProfile::new();
    for hist in opcodes.values() {
        merged.merge(hist);
    }
    let mut rows: Vec<_> = merged.rows().collect();
    rows.sort_by(|a, b| b.1.cycles.cmp(&a.1.cycles).then(a.0.cmp(b.0)));
    println!("  hot opcodes:");
    for (mnemonic, row) in rows.iter().take(PROFILE_TOP_K) {
        let share = if compute == 0 {
            0.0
        } else {
            100.0 * row.cycles as f64 / compute as f64
        };
        println!(
            "    {mnemonic:<16} {:>12} cycles  {share:>5.1}%  ({} hits)",
            row.cycles, row.hits
        );
    }
    println!(
        "  reconciled: opcode cycle totals match the cycle profile to the cycle \
         ({dispatch_compute} == {compute})"
    );
    Ok(())
}

/// The network topology of the selected target's manifest — what the
/// communication lints judge transpose-shaped traffic against.
fn target_topology(target: TargetKind) -> f90y_core::Topology {
    match target {
        TargetKind::Cm2 => f90y_hal::CM2.topology,
        TargetKind::Cm5 => f90y_hal::CM5.topology,
        TargetKind::Accel => f90y_hal::ACCEL.topology,
    }
}

/// Escape a string as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The `f90y-lint-v1` document: classic dataflow diagnostics (over the
/// lowered NIR) and communication diagnostics (over the optimized NIR)
/// in one array, tagged by `phase`.
fn lint_json(report: &LintReport, comm: &[Diagnostic]) -> String {
    let mut out = format!(
        "{{\"schema\":\"f90y-lint-v1\",\"clean\":{},\"stmts_analyzed\":{},\
         \"facts\":{},\"warnings\":{},\"diagnostics\":[",
        report.is_clean() && comm.is_empty(),
        report.stmts_analyzed,
        report.facts,
        report.diagnostics.len() + comm.len()
    );
    let all = report
        .diagnostics
        .iter()
        .map(|d| ("lowered", d))
        .chain(comm.iter().map(|d| ("optimized", d)));
    for (i, (phase, d)) in all.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"code\":{},\"var\":{},\"message\":{},\"stmt\":{},\"phase\":{}}}",
            json_str(&d.code.to_string()),
            json_str(&d.var),
            json_str(&d.message),
            d.stmt.as_deref().map_or_else(|| "null".into(), json_str),
            json_str(phase)
        ));
    }
    out.push_str("]}");
    out
}

/// One comm op as a `f90y-comm-plan-v1` JSON object (`axis` 1-based).
fn op_json(op: &CommOp) -> String {
    let (kind, extra) = match &op.kind {
        CommKind::Halo { axis, width } => (
            "halo",
            format!(
                ",\"axis\":{},\"width\":{}",
                axis + 1,
                width.map_or_else(|| "null".into(), |w: u64| w.to_string())
            ),
        ),
        CommKind::Broadcast => ("broadcast", String::new()),
        CommKind::Reduce { op } => ("reduce", format!(",\"op\":{}", json_str(op))),
        CommKind::AllToAll => ("alltoall", String::new()),
    };
    format!(
        "{{\"stmt\":{},\"kind\":{}{extra},\"array\":{},\"shift\":{},\"eoshift\":{},\
         \"multiplicity\":{},\"in_while\":{}}}",
        op.stmt,
        json_str(kind),
        op.array.as_deref().map_or_else(|| "null".into(), json_str),
        op.shift.map_or_else(|| "null".into(), |s| s.to_string()),
        op.eoshift,
        op.multiplicity,
        op.in_while
    )
}

/// One predicted-counter block as JSON.
fn prediction_json(p: &TargetPrediction) -> String {
    match *p {
        TargetPrediction::Cm2 {
            dispatches,
            comm_calls,
            reductions,
        } => format!(
            "{{\"dispatches\":{dispatches},\"comm_calls\":{comm_calls},\
             \"reductions\":{reductions}}}"
        ),
        TargetPrediction::Cm5 {
            dispatches,
            comm_calls,
            halo_exchanges,
            router_batches,
            reductions,
            supersteps,
            messages,
        } => format!(
            "{{\"dispatches\":{dispatches},\"comm_calls\":{comm_calls},\
             \"halo_exchanges\":{halo_exchanges},\"router_batches\":{router_batches},\
             \"reductions\":{reductions},\"supersteps\":{supersteps},\
             \"messages\":{messages}}}"
        ),
        TargetPrediction::Accel {
            kernel_launches,
            h2d_transfers,
            d2h_transfers,
            comm_calls,
            reductions,
        } => format!(
            "{{\"kernel_launches\":{kernel_launches},\"h2d_transfers\":{h2d_transfers},\
             \"d2h_transfers\":{d2h_transfers},\"comm_calls\":{comm_calls},\
             \"reductions\":{reductions}}}"
        ),
    }
}

/// The `f90y-comm-plan-v1` document.
fn comm_json(
    plan: &CommPlan,
    priced: &[(&str, f64)],
    predicted: Option<&(TargetPrediction, TargetPrediction, TargetPrediction)>,
    plan_error: Option<&f90y_core::PlanError>,
    nodes: usize,
) -> String {
    let ops: Vec<String> = plan.ops.iter().map(op_json).collect();
    let widths: Vec<String> = plan
        .halo_widths
        .iter()
        .map(|((a, ax), w)| {
            format!(
                "{{\"array\":{},\"axis\":{},\"width\":{w}}}",
                json_str(a),
                ax + 1
            )
        })
        .collect();
    let secs: Vec<String> = priced
        .iter()
        .map(|(n, s)| format!("{}:{s}", json_str(n)))
        .collect();
    let predicted = match predicted {
        Some((cm2, cm5, accel)) => format!(
            "{{\"cm2\":{},\"cm5\":{},\"accel\":{}}}",
            prediction_json(cm2),
            prediction_json(cm5),
            prediction_json(accel)
        ),
        None => "null".into(),
    };
    format!(
        "{{\"schema\":\"f90y-comm-plan-v1\",\"nodes\":{nodes},\"exact\":{},\
         \"stmts_analyzed\":{},\"ops\":[{}],\"halo_widths\":[{}],\
         \"priced_seconds\":{{{}}},\"predicted\":{predicted},\"plan_error\":{}}}",
        plan.exact,
        plan.stmts_analyzed,
        ops.join(","),
        widths.join(","),
        secs.join(","),
        plan_error.map_or_else(|| "null".into(), |e| json_str(&e.to_string()))
    )
}

/// The `--analyze-comm` report: the NIR-level plan, its model price
/// against every registered manifest, and the exact per-target
/// predicted counters from the backend's static profile.
fn print_comm_analysis(exe: &Executable, opts: &Options) {
    let plan = comm_plan(&exe.optimized);
    let nodes = opts.nodes;
    let registry = f90y_core::Registry::builtin();
    let priced: Vec<(&str, f64)> = registry
        .iter()
        .map(|m| (m.name, price(&plan, m, nodes).total_seconds))
        .collect();
    let profile = exe.static_profile();
    let predicted = profile.as_ref().ok().map(|p| {
        (
            f90y_core::predict::fold(p, Target::Cm2 { nodes }),
            f90y_core::predict::fold(p, Target::Cm5Mimd { nodes }),
            f90y_core::predict::fold(p, Target::Accel { nodes }),
        )
    });

    if opts.analyze_comm_json {
        println!(
            "{}",
            comm_json(
                &plan,
                &priced,
                predicted.as_ref(),
                profile.as_ref().err(),
                nodes
            )
        );
        return;
    }

    println!(
        "static communication plan: {} op(s){}",
        plan.ops.len(),
        if plan.exact {
            ""
        } else {
            " (inexact: data-dependent control flow)"
        }
    );
    if !plan.ops.is_empty() {
        println!(
            "  {:>4}  {:<28} {:<12} {:>6} {:>7}",
            "stmt", "op", "array", "shift", "mult"
        );
        for op in &plan.ops {
            println!(
                "  {:>4}  {:<28} {:<12} {:>6} {:>7}",
                op.stmt,
                op.kind.to_string(),
                op.array.as_deref().unwrap_or("-"),
                op.shift.map_or_else(|| "-".into(), |s| s.to_string()),
                op.multiplicity
            );
        }
    }
    if !plan.halo_widths.is_empty() {
        let widths: Vec<String> = plan
            .halo_widths
            .iter()
            .map(|((a, ax), w)| format!("{a} axis {}: {w}", ax + 1))
            .collect();
        println!("halo widths: {}", widths.join(", "));
    }
    let secs: Vec<String> = priced
        .iter()
        .map(|(n, s)| format!("{n} {s:.3e}s"))
        .collect();
    println!("modelled comm time @ {nodes} nodes: {}", secs.join(" | "));
    match (&predicted, profile.as_ref().err()) {
        (Some((cm2, cm5, accel)), _) => {
            println!("predicted counters @ {nodes} nodes:");
            if let TargetPrediction::Cm2 {
                dispatches,
                comm_calls,
                reductions,
            } = cm2
            {
                println!(
                    "  cm2:   {dispatches} dispatches, {comm_calls} comm calls, \
                     {reductions} reductions"
                );
            }
            if let TargetPrediction::Cm5 {
                supersteps,
                messages,
                halo_exchanges,
                router_batches,
                ..
            } = cm5
            {
                println!(
                    "  cm5:   {supersteps} supersteps, {messages} messages, \
                     {halo_exchanges} halo exchanges, {router_batches} router batches"
                );
            }
            if let TargetPrediction::Accel {
                kernel_launches,
                h2d_transfers,
                d2h_transfers,
                comm_calls,
                ..
            } = accel
            {
                println!(
                    "  accel: {kernel_launches} kernel launches, {h2d_transfers} H2D + \
                     {d2h_transfers} D2H transfers, {comm_calls} comm calls"
                );
            }
        }
        (None, Some(e)) => println!("no exact static prediction: {e}"),
        (None, None) => unreachable!("profile is Ok or Err"),
    }
}

/// Deliver collected telemetry to the requested sinks.
fn finish(tel: &Telemetry, opts: &Options) -> ExitCode {
    if opts.timings {
        if let Err(e) = tel.emit(&mut PrettySink::stderr()) {
            eprintln!("f90yc: cannot write timings: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &opts.emit_telemetry {
        let result = JsonSink::create(path).and_then(|mut sink| tel.emit(&mut sink));
        if let Err(e) = result {
            eprintln!("f90yc: cannot write telemetry to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
