//! The four workloads: what each feeds the compiler, the simulators and
//! the service, and how it splits the measuring time between them.
//!
//! Every workload drives all three user-visible surfaces — compile,
//! run on each target, serve — with inputs of its own family, so every
//! end-to-end metric exists on every workload. What differs is where
//! the time goes; `README.md` has the reasons and the predictions.

use f90y_bench::serve_bench::SERVE_TENANTS;
use f90y_core::{Pipeline, Target};
use f90y_serve::protocol::{Request, RequestKind};

use crate::gen;

pub const NAMES: [&str; 4] = ["swe_sim", "comm_mix", "compile_large", "serve_mix"];

/// Input sizes. `FULL` is what the benchmark measures; `TOY` lets the
/// unit tests push every code path through in a debug build in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub swe_n: usize,
    pub swe_steps: usize,
    pub swe_serve_n: usize,
    pub comm_n: usize,
    pub comm_steps: usize,
    pub comm_serve_steps: usize,
    pub gen_stmts: usize,
    pub gen_serve_stmts: usize,
    /// Fewest requests a serve rate is taken over (see
    /// [`Workload::rate_window`]).
    pub rate_window: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        swe_n: 512,
        swe_steps: 2,
        swe_serve_n: 64,
        comm_n: 16,
        comm_steps: 2000,
        comm_serve_steps: 10,
        gen_stmts: 400,
        gen_serve_stmts: 40,
        rate_window: 100,
    };

    #[cfg(test)]
    pub const TOY: Sizes = Sizes {
        swe_n: 8,
        swe_steps: 1,
        swe_serve_n: 8,
        comm_n: 8,
        comm_steps: 3,
        comm_serve_steps: 2,
        gen_stmts: 30,
        gen_serve_stmts: 12,
        rate_window: 10,
    };
}

/// One way of running the compiled program: a target, a host thread
/// count, the end-to-end metric it reports under and the prefix of its
/// per-layer metrics.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub metric: &'static str,
    pub layer: &'static str,
    pub target: Target,
    pub host_threads: usize,
}

/// Machine size of every run. Sixteen nodes keeps two host threads
/// meaningful (eight shards each) and is the size the serve mix uses.
pub const NODES: usize = 16;

/// The run configurations with an end-to-end metric.
pub const RUN_CONFIGS: [RunConfig; 3] = [
    RunConfig {
        metric: "run_cm2_ms",
        layer: "cm2",
        target: Target::Cm2 { nodes: NODES },
        host_threads: 1,
    },
    RunConfig {
        metric: "run_cm5_ms",
        layer: "mimd",
        target: Target::Cm5Mimd { nodes: NODES },
        host_threads: 1,
    },
    RunConfig {
        metric: "run_accel_ms",
        layer: "accel",
        target: Target::Accel { nodes: NODES },
        host_threads: 1,
    },
];

/// The MIMD engine on two host threads: run in the traced pass only and
/// reported per layer (`mimd.t2.*`), not end to end. The pool spawns its
/// threads on every machine call, so on anything but a few large calls
/// this run is thread-spawn latency — which on a virtual machine has two
/// regimes a factor of two apart, each lasting minutes. A metric that
/// flips between them cannot hold a regression bound.
pub const MIMD_T2: RunConfig = RunConfig {
    metric: "mimd.t2.run_ms",
    layer: "mimd.t2",
    target: Target::Cm5Mimd { nodes: NODES },
    host_threads: 2,
};

/// How `--seconds` is split between the three timed phases.
#[derive(Debug, Clone, Copy)]
pub struct Shares {
    pub compile: f64,
    pub run: f64,
    pub serve: f64,
}

pub struct Workload {
    pub name: &'static str,
    /// The program compiled and run on every target.
    pub program: String,
    /// The request mix. The warm phase replays it unmodified, over and
    /// over; the cold phase replays it with one literal of each source
    /// varied per request, so no two cold requests share a cache key.
    pub mix: Vec<Request>,
    pub shares: Shares,
    seed: u64,
    sizes: Sizes,
}

fn request(i: usize, kind: RequestKind, source: String, target: Target) -> Request {
    Request {
        id: i as u64 + 1,
        tenant: SERVE_TENANTS[i % SERVE_TENANTS.len()].to_string(),
        kind,
        source,
        pipeline: Pipeline::F90y,
        passes: None,
        target,
        host_threads: 1,
        faults: None,
    }
}

/// `source` as a run request on each of the three targets.
fn on_every_target(source: &str) -> Vec<Request> {
    [
        Target::Cm2 { nodes: NODES },
        Target::Cm5Mimd { nodes: NODES },
        Target::Accel { nodes: NODES },
    ]
    .into_iter()
    .enumerate()
    .map(|(i, target)| request(i, RequestKind::Run, source.to_string(), target))
    .collect()
}

impl Workload {
    /// The named workload for `seed`, or `None` for an unknown name.
    pub fn build(name: &str, seed: u64, sizes: Sizes) -> Option<Workload> {
        let (name, program, mix, shares) = match name {
            "swe_sim" => (
                NAMES[0],
                gen::swe_program(seed, sizes.swe_n, sizes.swe_steps),
                on_every_target(&gen::swe_program(seed, sizes.swe_serve_n, 1)),
                Shares {
                    compile: 0.05,
                    run: 0.80,
                    serve: 0.15,
                },
            ),
            "comm_mix" => (
                NAMES[1],
                gen::comm_program(seed, sizes.comm_n, sizes.comm_steps),
                on_every_target(&gen::comm_program(
                    seed,
                    sizes.comm_n,
                    sizes.comm_serve_steps,
                )),
                Shares {
                    compile: 0.05,
                    run: 0.80,
                    serve: 0.15,
                },
            ),
            "compile_large" => (
                NAMES[2],
                gen::gen_program(seed, sizes.gen_stmts),
                (0..5)
                    .map(|i| {
                        request(
                            i,
                            RequestKind::Compile,
                            gen::gen_program(
                                seed.wrapping_add(1 + i as u64),
                                sizes.gen_serve_stmts,
                            ),
                            Target::Cm2 { nodes: NODES },
                        )
                    })
                    .collect(),
                Shares {
                    compile: 0.70,
                    run: 0.10,
                    serve: 0.20,
                },
            ),
            "serve_mix" => (
                NAMES[3],
                // The mix's most frequent program, so the compile and
                // run metrics here describe a typical request's body.
                gen::swe_program(seed, 16, 1),
                f90y_bench::serve_workload(),
                Shares {
                    compile: 0.05,
                    run: 0.15,
                    serve: 0.80,
                },
            ),
            _ => return None,
        };
        Some(Workload {
            name,
            program,
            mix,
            shares,
            seed,
            sizes,
        })
    }

    /// Requests per serve rate sample: the smallest whole number of mix
    /// replays that reaches `Sizes::rate_window`, so every window holds
    /// the same requests.
    pub fn rate_window(&self) -> usize {
        self.mix.len() * self.sizes.rate_window.div_ceil(self.mix.len())
    }

    /// The `n`-th warm request (ids count up so every in-flight request
    /// has its own).
    pub fn warm_request(&self, n: u64) -> Request {
        let mut req = self.mix[n as usize % self.mix.len()].clone();
        req.id = n;
        req
    }

    /// The `n`-th cold request: the mix entry with one numeric literal
    /// varied by `(seed, n)`. Lint requests bypass the cache and are
    /// replayed as they are.
    pub fn cold_request(&self, n: u64) -> Request {
        let mut req = self.warm_request(n);
        if cacheable(&req) {
            // Distinct for distinct n; mixing the seed in keeps two
            // seeds' cold phases from compiling the same sources.
            let k = (self.seed % 1000) * 1_000_000 + n + 1;
            req.source = gen::vary_literal(&req.source, k).unwrap_or_else(|| {
                panic!(
                    "request {} of the {} mix has no literal to vary",
                    req.id, self.name
                )
            });
        }
        req
    }
}

impl Workload {
    /// The `n`-th request of a cold or a warm phase.
    pub fn request(&self, n: u64, cold: bool) -> Request {
        if cold {
            self.cold_request(n)
        } else {
            self.warm_request(n)
        }
    }
}

/// Whether the service compiles this request through its cache.
pub fn cacheable(req: &Request) -> bool {
    req.kind != RequestKind::Lint
}

#[cfg(test)]
mod tests {
    use super::*;
    use f90y_serve::cache::CacheKey;
    use std::collections::HashSet;

    #[test]
    fn every_workload_builds_and_unknown_names_do_not() {
        for name in NAMES {
            let w = Workload::build(name, 1, Sizes::TOY).unwrap();
            assert_eq!(w.name, name);
            assert!(!w.mix.is_empty());
            let s = w.shares;
            assert!((s.compile + s.run + s.serve - 1.0).abs() < 1e-9);
        }
        assert!(Workload::build("nope", 1, Sizes::TOY).is_none());
    }

    #[test]
    fn cold_phase_keys_are_pairwise_distinct_and_differ_from_warm() {
        for name in NAMES {
            let w = Workload::build(name, 1, Sizes::TOY).unwrap();
            let mut keys = HashSet::new();
            for n in 0..w.mix.len() as u64 {
                keys.insert(CacheKey::for_request(&w.warm_request(n)).text);
            }
            let warm_keys = keys.len();
            let mut cold = 0;
            for n in 0..300 {
                let req = w.cold_request(n);
                if cacheable(&req) {
                    cold += 1;
                    assert!(
                        keys.insert(CacheKey::for_request(&req).text),
                        "{name}: cold request {n} repeats a key"
                    );
                }
            }
            assert_eq!(keys.len(), warm_keys + cold);
        }
    }

    #[test]
    fn cold_requests_differ_between_seeds_and_still_compile() {
        let a = Workload::build("serve_mix", 1, Sizes::TOY).unwrap();
        let b = Workload::build("serve_mix", 2, Sizes::TOY).unwrap();
        for n in 0..a.mix.len() as u64 {
            let (ra, rb) = (a.cold_request(n), b.cold_request(n));
            if cacheable(&ra) {
                assert_ne!(ra.source, rb.source);
            }
            f90y_core::Compiler::new(Pipeline::F90y)
                .compile(&ra.source)
                .unwrap_or_else(|e| panic!("cold request {n} does not compile: {e}"));
        }
    }

    #[test]
    fn rate_window_is_whole_replays_of_at_least_the_minimum() {
        let window = |name| Workload::build(name, 1, Sizes::FULL).unwrap().rate_window();
        assert_eq!(window("serve_mix"), 100); // 2 x 50
        assert_eq!(window("swe_sim"), 102); // 34 x 3
        assert_eq!(window("compile_large"), 100); // 20 x 5
        let toy = Workload::build("serve_mix", 1, Sizes::TOY).unwrap();
        assert_eq!(toy.rate_window(), 50);
    }

    #[test]
    fn requests_round_trip_through_the_wire_format() {
        let w = Workload::build("comm_mix", 1, Sizes::TOY).unwrap();
        let req = w.cold_request(7);
        let back = Request::parse(&req.to_json()).unwrap();
        assert_eq!((back.id, &back.source), (7, &req.source));
    }
}
