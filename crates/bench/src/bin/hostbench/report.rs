//! Metric names and the two renderings of a result: the table a person
//! reads and the one-line JSON object the benchmark driver reads.

use f90y_obs::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// End-to-end metrics, in `BENCHMARK.json`'s order: name and unit.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("compile_ms", "ms"),
    ("run_cm2_ms", "ms"),
    ("run_cm5_ms", "ms"),
    ("run_accel_ms", "ms"),
    ("serve_cold_rps", "1/s"),
    ("serve_warm_rps", "1/s"),
    ("serve_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-machine metric suffixes, emitted under `cm2.`, `mimd.` and
/// `accel.`.
#[cfg(test)]
const MACHINE_SUFFIXES: [&str; 9] = [
    "dispatch_ms",
    "dispatch_calls",
    "shift_ms",
    "shift_calls",
    "reduce_ms",
    "staging_ms",
    "host_elem_ms",
    "router_ms",
    "sim_units",
];

#[cfg(test)]
const OTHER_LAYER_METRICS: [&str; 48] = [
    "frontend.lex_ms",
    "frontend.parse_ms",
    "frontend.tokens",
    "lowering.lower_ms",
    "lowering.moves",
    "transform.total_ms",
    "transform.moves_after",
    "transform.blocks_after",
    "backend.compile_ms",
    "backend.node_blocks",
    "backend.pe_instructions",
    "backend.spill_stores",
    "backend.host_stmts",
    "backend.plan_profile_ms",
    "backend.host_exec_self_ms",
    "backend.host_exec_self_pct",
    "peac.block_compile_us",
    "peac.kernel_ns_per_elem_instr",
    "peac.run_routine_us",
    "peac.elem_instrs",
    "mimd.messages",
    "mimd.bytes",
    "mimd.t2.run_ms",
    "mimd.t2.dispatch_ms",
    "mimd.t2.shift_ms",
    "nir.eval_ms",
    "analysis.lint_ms",
    "core.predict_ms",
    "baselines.compile_cmf_ms",
    "baselines.compile_starlisp_ms",
    "obs.telemetry_overhead_pct",
    "obs.trace_sink_overhead_pct",
    "serve.parse_us",
    "serve.to_json_us",
    "serve.cache_lookup_us",
    "serve.cache_hit_rate",
    "serve.cold_hit_rate",
    "serve.cache_evictions",
    "serve.queue_depth_max",
    "serve.hit_latency_ms",
    "serve.miss_latency_ms",
    "serve.latency_p90_ms",
    "serve.drain_mix_ms",
    "serve.overloaded",
    "bench.trace_overhead_pct",
    "bench.layer_sum_gap_pct",
    "bench.compile_stage_gap_pct",
    "transform.pass_share_pct",
];

/// Every per-layer metric name the traced pass emits — the mirror of
/// `BENCHMARK.json`'s `per_layer`, which the tests hold both the file
/// and the traced pass to.
#[cfg(test)]
pub fn per_layer_names() -> Vec<String> {
    let mut names: Vec<String> = OTHER_LAYER_METRICS.iter().map(|s| s.to_string()).collect();
    for pass in f90y_transform::pass::PASS_NAMES {
        names.push(format!("transform.pass.{pass}_ms"));
        names.push(format!("transform.pass.{pass}.rewrites"));
    }
    for machine in ["cm2", "mimd", "accel"] {
        for suffix in MACHINE_SUFFIXES {
            names.push(format!("{machine}.{suffix}"));
        }
    }
    names
}

/// The table: one metric per line, name, value, unit.
pub fn print_table(title: &str, metrics: &[Metric]) {
    println!("-- {title}");
    for m in metrics {
        println!("{:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

/// The driver's line: `correct`, `attempted`, `failed`, `metrics`.
/// Values go out with every digit they were measured with.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(m.value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(failed == 0)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn field<'a>(doc: &'a Json, name: &str) -> &'a Json {
        match doc {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("no field '{name}'")),
            other => panic!("not an object: {other}"),
        }
    }

    fn names_of(doc: &Json, list: &str) -> Vec<String> {
        let Json::Arr(items) = field(doc, list) else {
            panic!("'{list}' is not an array")
        };
        items
            .iter()
            .map(|item| match field(item, "name") {
                Json::Str(s) => s.clone(),
                other => panic!("name is not a string: {other}"),
            })
            .collect()
    }

    /// `BENCHMARK.json`, found by walking up from this package (the
    /// walk is one step longer when built as the package of its own).
    fn benchmark_json() -> Json {
        let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        loop {
            let candidate = dir.join("BENCHMARK.json");
            if candidate.is_file() {
                let text = std::fs::read_to_string(candidate).unwrap();
                return f90y_obs::json::parse(&text).unwrap();
            }
            assert!(dir.pop(), "no BENCHMARK.json above this package");
        }
    }

    /// Names under `[dependencies]` in a manifest.
    fn dependencies_of(manifest: &std::path::Path) -> Vec<String> {
        let text = std::fs::read_to_string(manifest)
            .unwrap_or_else(|e| panic!("{}: {e}", manifest.display()));
        text.lines()
            .skip_while(|l| l.trim() != "[dependencies]")
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .filter_map(|l| l.split(['=', '.']).next())
            .map(|name| name.trim().to_string())
            .filter(|name| !name.is_empty() && !name.starts_with('#'))
            .collect()
    }

    /// This directory builds two ways: as the `hostbench` bin of
    /// `f90y-bench` and as the package of its own that `BENCHMARK.json`
    /// runs. The second manifest may name only what the first does
    /// (plus `f90y-bench` itself), and every path in it must lead to a
    /// crate — so the two cannot drift apart unnoticed.
    #[test]
    fn own_manifest_depends_on_what_f90y_bench_depends_on() {
        let manifest_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let nested = manifest_dir.join("src/bin/hostbench");
        let here = if nested.is_dir() {
            nested
        } else {
            manifest_dir
        };
        let bench = here.join("../../..");
        let mut allowed = dependencies_of(&bench.join("Cargo.toml"));
        allowed.push("f90y-bench".into());
        let own = dependencies_of(&here.join("Cargo.toml"));
        assert!(!own.is_empty());
        for dep in &own {
            assert!(
                allowed.contains(dep),
                "{dep} is not a dependency of f90y-bench"
            );
        }
        let text = std::fs::read_to_string(here.join("Cargo.toml")).unwrap();
        let paths: Vec<&str> = text
            .lines()
            .filter_map(|l| l.split_once("path = \"")?.1.split('"').next())
            .filter(|path| !path.ends_with(".rs"))
            .collect();
        assert_eq!(paths.len(), own.len());
        for path in paths {
            assert!(here.join(path).join("Cargo.toml").is_file(), "{path}");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_binary_emits() {
        let doc = benchmark_json();
        assert_eq!(names_of(&doc, "workloads"), crate::workload::NAMES);
        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names_of(&doc, "end_to_end"), e2e);
        let mut listed = names_of(&doc, "per_layer");
        listed.sort_unstable();
        let mut emitted = per_layer_names();
        emitted.sort_unstable();
        assert_eq!(listed, emitted);
        assert!(emitted.len() <= 128);
    }

    #[test]
    fn result_line_has_the_four_keys_and_full_precision() {
        let line = result_line(
            7,
            0,
            &[Metric {
                name: "compile_ms".into(),
                value: 1.234_567_890_123,
                unit: "ms",
            }],
        );
        let doc = f90y_obs::json::parse(&line).unwrap();
        assert_eq!(field(&doc, "correct"), &Json::Bool(true));
        assert_eq!(field(&doc, "attempted"), &Json::Num(7.0));
        assert_eq!(field(&doc, "failed"), &Json::Num(0.0));
        let m = field(field(&doc, "metrics"), "compile_ms");
        assert_eq!(field(m, "value"), &Json::Num(1.234_567_890_123));
        assert_eq!(field(m, "unit"), &Json::Str("ms".into()));
        assert!(line.contains("1.234567890123"));
        let failed = result_line(7, 1, &[]);
        assert!(failed.contains("\"correct\":false"));
    }
}
