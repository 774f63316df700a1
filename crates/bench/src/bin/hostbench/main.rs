//! `hostbench` — the host-clock benchmark.
//!
//! The repo's simulated clock (cycles, supersteps, messages) is pinned
//! by the `BENCH_*.json` artefacts. This binary measures the other
//! clock: how long the compiler, the three simulators and the service
//! really take on the host, end to end and layer by layer, with every
//! layer timed from outside through public functions. See `README.md`
//! beside this file for the metric glossary and the reasons behind each
//! workload.
//!
//! ```text
//! hostbench [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Without `--workload`, all four run, one child process each. Without
//! `--trace`, both passes run and both metric sets are printed. The
//! last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, `metrics`. The exit code is non-zero when any
//! operation failed.

mod gate;
mod gen;
mod layers;
mod measure;
mod report;
mod spans;
mod stats;
mod timed;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use measure::Ops;
use report::Metric;
use workload::{Sizes, NAMES, RUN_CONFIGS};

/// `run_seconds` of `BENCHMARK.json`: how long the timed pass measures
/// when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 10.0;

/// Set-up is done this many times per run and `setup_s` is the median,
/// so one slow page-in does not pass for a set-up regression.
const SETUP_REPS: usize = 3;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    /// `Some(false)`: end-to-end metrics only. `Some(true)`: per-layer
    /// metrics in the result line. `None`: both, for a person.
    trace: Option<bool>,
}

fn usage() -> String {
    format!(
        "usage: hostbench [--workload <{}>] [--seed <n>] [--seconds <s>] [--trace <0|1>]",
        NAMES.join("|")
    )
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: None,
    };
    let mut argv = argv;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !NAMES.contains(&name.as_str()) {
                    return Err(format!("unknown workload '{name}'"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                });
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

/// First line of a command's standard output, or `unknown`.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The host the numbers were taken on. Results from different hosts do
/// not compare; anything that depends on threads names the core count.
fn print_host_descriptor() {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    println!("host: nproc={nproc} cpu=\"{cpu}\"");
    println!("host: {}", first_line_of("rustc", &["-V"]));
    println!(
        "host: commit={}",
        first_line_of("git", &["rev-parse", "HEAD"])
    );
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Where the trace goes: `<target dir>/hostbench/<workload>.trace.json`.
/// The target directory is read off the binary's own path
/// (`<target dir>/<profile>/hostbench`), so the trace lands beside the
/// build whichever manifest or `CARGO_TARGET_DIR` produced it.
fn trace_path(workload: &str) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or(format!("{}: not in a target directory", exe.display()))?;
    Ok(target
        .join("hostbench")
        .join(format!("{workload}.trace.json")))
}

/// A timing sample for the table: median, spread, tail, count.
fn describe(name: &str, unit: &str, xs: &[f64]) {
    let spread = stats::iqr_share(xs).map_or("-".into(), |s| format!("{:.1}%", s * 100.0));
    let tail =
        stats::highest_percentile(xs).map_or("-".into(), |(label, v)| format!("{label}={v:.4}"));
    println!(
        "{name:<40} median={:<12.4} {unit:<4} iqr={spread:<7} {tail:<16} n={}",
        stats::median(xs),
        xs.len()
    );
}

/// One workload, in this process.
fn run_workload(name: &str, args: &Args) -> Result<ExitCode, String> {
    let mut ops = Ops::default();

    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        // The previous set-up's engine and arrays go first, so peak
        // memory is one set-up's, not three.
        drop(prepared.take());
        let t = Instant::now();
        prepared = Some(measure::setup(name, args.seed, Sizes::FULL, &mut ops)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let p = prepared.expect("SETUP_REPS > 0");

    let timed = measure::timed_pass(&p, args.seconds, &mut ops);
    let window = p.workload.rate_window();
    let value_of = |metric: &str| -> Result<f64, String> {
        Ok(match metric {
            "setup_s" => stats::median(&setup_s),
            "compile_ms" => stats::median(&timed.compile_ms),
            "serve_cold_rps" => timed.cold.rps(window),
            "serve_warm_rps" => timed.warm.rps(window),
            "serve_p50_ms" => stats::median(&timed.unloaded.latencies_ms),
            "peak_rss_mb" => peak_rss_mb()?,
            run => {
                let i = RUN_CONFIGS
                    .iter()
                    .position(|cfg| cfg.metric == run)
                    .ok_or(format!("no such metric '{run}'"))?;
                stats::median(&timed.run_ms[i])
            }
        })
    };
    let end_to_end = report::END_TO_END
        .iter()
        .map(|&(name, unit)| {
            Ok(Metric {
                name: name.to_string(),
                value: value_of(name)?,
                unit,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;

    println!("== {name} seed={} seconds={}", args.seed, args.seconds);
    report::print_table("end to end (tracing off)", &end_to_end);
    describe("setup_s", "s", &setup_s);
    describe("compile_ms", "ms", &timed.compile_ms);
    for (cfg, xs) in RUN_CONFIGS.iter().zip(&timed.run_ms) {
        describe(cfg.metric, "ms", xs);
    }
    describe("serve warm latency", "ms", &timed.warm.latencies_ms);
    describe("serve unloaded latency", "ms", &timed.unloaded.latencies_ms);
    describe("serve cold latency", "ms", &timed.cold.latencies_ms);
    println!(
        "serve: warm {} requests, hit rate {:.4}; cold {} requests, hit rate {:.4}; rate window {window}",
        timed.warm.latencies_ms.len(),
        timed.warm.hit_rate(),
        timed.cold.latencies_ms.len(),
        timed.cold.hit_rate(),
    );

    let mut per_layer = Vec::new();
    if args.trace != Some(false) {
        let traced = layers::traced_pass(&p, &timed, &mut ops)?;
        let path = trace_path(name)?;
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, traced.trace_json));
        match written {
            Ok(()) => println!("trace: {}", path.display()),
            Err(e) => return Err(format!("{}: {e}", path.display())),
        }
        report::print_table("per layer (traced pass)", &traced.metrics);
        per_layer = traced.metrics;
    }

    println!(
        "{:<40} {:>16.6} ratio  ({} failed of {} attempted)",
        "fail_share",
        ops.failed as f64 / ops.attempted.max(1) as f64,
        ops.failed,
        ops.attempted
    );
    for reason in &ops.reasons {
        println!("FAILED {reason}");
    }
    let metrics: Vec<Metric> = match args.trace {
        Some(false) => end_to_end,
        Some(true) => per_layer,
        None => end_to_end.into_iter().chain(per_layer).collect(),
    };
    println!(
        "{}",
        report::result_line(ops.attempted, ops.failed, &metrics)
    );
    Ok(if ops.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// All four workloads, each in a child process of its own so that
/// `peak_rss_mb` and every warm-up belong to one workload only.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut failed = Vec::new();
    for name in NAMES {
        let mut child = Command::new(&exe);
        child
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()]);
        if let Some(trace) = args.trace {
            child.args(["--trace", if trace { "1" } else { "0" }]);
        }
        let status = child.status().map_err(|e| format!("{name}: {e}"))?;
        if !status.success() {
            failed.push(name);
        }
    }
    if failed.is_empty() {
        println!("hostbench: all {} workloads passed", NAMES.len());
        Ok(ExitCode::SUCCESS)
    } else {
        println!("hostbench: FAILED {}", failed.join(", "));
        Ok(ExitCode::FAILURE)
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("hostbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Some(var) = gate::forbidden_env_set() {
        eprintln!("hostbench: {var} is set; it changes what a run does, so nothing measured under it is a baseline. Unset it.");
        return ExitCode::from(2);
    }
    let outcome = match &args.workload {
        Some(name) => {
            print_host_descriptor();
            run_workload(name, &args)
        }
        None => run_all(&args),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("hostbench: {e}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse("--workload comm_mix --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("comm_mix"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, Some(true)));
        let a = parse("").unwrap();
        assert_eq!((a.workload, a.seed, a.trace), (None, 1, None));
        assert_eq!(a.seconds, DEFAULT_SECONDS);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for line in [
            "--workload nope",
            "--seed x",
            "--seconds -1",
            "--seconds nan",
            "--trace 2",
            "--seed",
            "--frobnicate",
        ] {
            assert!(parse(line).is_err(), "{line}");
        }
    }

    #[test]
    fn peak_rss_reads_as_a_positive_number() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }

    #[test]
    fn trace_path_is_under_the_target_directory() {
        let path = trace_path("swe_sim").unwrap();
        assert!(path.ends_with("hostbench/swe_sim.trace.json"));
        let exe = std::env::current_exe().unwrap();
        assert!(exe.starts_with(path.parent().unwrap().parent().unwrap()));
    }
}
