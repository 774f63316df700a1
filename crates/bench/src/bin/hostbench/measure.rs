//! Set-up and the timed pass: the end-to-end numbers, taken with
//! tracing off — a bare `Instant` around each whole public call, no
//! `Telemetry`, no decorator.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

use f90y_core::{Compiler, Executable, Pipeline, Run};
use f90y_serve::engine::{Engine, ServeConfig};
use f90y_serve::protocol::{Request, Response};

use crate::gate::{self, Reference};
use crate::stats;
use crate::workload::{cacheable, RunConfig, Sizes, Workload, RUN_CONFIGS};

/// Attempted and failed operations (a compile, a run, a request). Any
/// gate mismatch fails the operation it was found on.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// The first few reasons, for the report.
    pub reasons: Vec<String>,
}

impl Ops {
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = outcome {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(format!("{what}: {reason}"));
            }
        }
    }
}

/// The service configuration every workload measures: one worker (so
/// worker plus client never exceed two busy threads), the default queue
/// bound, and a cache the cold phase's working set dwarfs.
pub const SERVE_CONFIG: ServeConfig = ServeConfig {
    queue_capacity: 256,
    cache_capacity: 32,
    workers: 1,
};

/// Requests the closed-loop client keeps in flight when it measures
/// rates: enough that the worker never waits for the client.
pub const OUTSTANDING: usize = 4;

/// Everything set-up produces and the timed passes consume.
pub struct Prepared {
    pub workload: Workload,
    pub exe: Executable,
    pub reference: Reference,
    /// How long the reference evaluation took (the `nir.eval_ms` layer
    /// metric; timed here because set-up is its only run).
    pub reference_eval_ms: f64,
    /// Rendered simulated stats of the warm-up run per run config —
    /// what every later repetition must reproduce.
    pub sim_stats: [String; 3],
    pub engine: Engine,
}

/// Whether `result` succeeded, for [`Ops::record`], leaving the value
/// where it is.
pub fn status<T>(result: &Result<T, String>) -> Result<(), String> {
    result.as_ref().map(|_| ()).map_err(Clone::clone)
}

pub fn compile(source: &str) -> Result<Executable, String> {
    Compiler::new(Pipeline::F90y)
        .compile(source)
        .map_err(|e| e.to_string())
}

pub fn run(exe: &Executable, cfg: &RunConfig) -> Result<Run, String> {
    exe.session(cfg.target)
        .host_threads(cfg.host_threads)
        .run()
        .map_err(|e| e.to_string())
}

/// The gate on one finished run: finals against the evaluator, counters
/// against the static prediction, simulated stats against `expect`.
fn check_run(
    exe: &Executable,
    reference: &Reference,
    cfg: &RunConfig,
    run: &Run,
    expect: Option<&str>,
) -> Result<(), String> {
    gate::check_finals(reference, run.finals())?;
    gate::check_prediction(exe, cfg.target, run)?;
    match expect {
        Some(want) if want != gate::sim_stats(run) => Err(format!(
            "simulated stats moved: {want} then {}",
            gate::sim_stats(run)
        )),
        _ => Ok(()),
    }
}

/// Set-up: generate the inputs, compile once, evaluate the reference,
/// warm every target up (gated), build the engine and fill its cache
/// with the warm mix.
pub fn setup(name: &str, seed: u64, sizes: Sizes, ops: &mut Ops) -> Result<Prepared, String> {
    let workload =
        Workload::build(name, seed, sizes).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let compiled = compile(&workload.program);
    ops.record("first compile", status(&compiled));
    let exe = compiled?;
    let t = Instant::now();
    let reference = gate::reference(&exe)?;
    let reference_eval_ms = t.elapsed().as_secs_f64() * 1e3;

    let mut sim_stats: [String; 3] = Default::default();
    for (i, cfg) in RUN_CONFIGS.iter().enumerate() {
        let outcome = run(&exe, cfg);
        ops.record(
            &format!("warm-up {}", cfg.metric),
            outcome
                .as_ref()
                .map_err(Clone::clone)
                .and_then(|r| check_run(&exe, &reference, cfg, r, None)),
        );
        sim_stats[i] = gate::sim_stats(&outcome?);
    }

    let engine = Engine::new(SERVE_CONFIG);
    let mix_len = workload.mix.len() as u64;
    let warmed = serve_phase(
        &engine,
        false,
        OUTSTANDING,
        |n| (n < mix_len).then(|| workload.warm_request(n)),
        ops,
        None,
    );
    if warmed.latencies_ms.len() as u64 != mix_len {
        return Err("the engine did not answer the warm-up mix".into());
    }
    Ok(Prepared {
        workload,
        exe,
        reference,
        reference_eval_ms,
        sim_stats,
        engine,
    })
}

/// What one closed-loop phase observed.
#[derive(Debug, Default)]
pub struct Phase {
    /// Host latency of each answered request, submit → reply, in
    /// completion order.
    pub latencies_ms: Vec<f64>,
    /// When each reply arrived, seconds since the phase began.
    pub completed_at_s: Vec<f64>,
    /// Whether each answered request was served from the cache
    /// (`None` for lint requests, which bypass it).
    pub cache_hit: Vec<Option<bool>>,
}

/// What the traced pass additionally observes about one request.
/// Times are nanoseconds; `submit_ns` and `reply_ns` count from the
/// beginning of the phase.
#[derive(Debug, Clone, Copy)]
pub struct RequestTrace {
    pub submit_ns: u64,
    /// `Request::parse`.
    pub parse_ns: u64,
    pub reply_ns: u64,
    /// `Response::to_json`.
    pub to_json_ns: u64,
}

struct InFlight {
    submitted: Instant,
    parse_ns: u64,
    /// A cold, cacheable request: the reply must say `miss`.
    must_miss: bool,
}

/// One closed-loop phase: keep `outstanding` requests in flight until
/// `next` runs dry, each going `Request::parse(line)` → `submit` →
/// reply → `Response::to_json()`. `next(n)` yields the `n`-th request;
/// `cold` says whether they are a cold phase's.
///
/// Gate, per request: exactly one response per id, none of them an
/// error, and `cache: miss` on every cacheable cold request.
pub fn serve_phase(
    engine: &Engine,
    cold: bool,
    outstanding: usize,
    mut next: impl FnMut(u64) -> Option<Request>,
    ops: &mut Ops,
    mut trace: Option<&mut Vec<RequestTrace>>,
) -> Phase {
    let (tx, rx) = channel();
    let mut phase = Phase::default();
    let mut in_flight: HashMap<u64, InFlight> = HashMap::new();
    let began = Instant::now();
    let mut n = 0u64;
    let mut dry = false;
    loop {
        while !dry && in_flight.len() < outstanding {
            let Some(req) = next(n) else {
                dry = true;
                break;
            };
            n += 1;
            // The generator's side of the wire: not part of the service.
            let line = req.to_json();
            let must_miss = cold && cacheable(&req);

            let submitted = Instant::now();
            let parsed = Request::parse(black_box(&line));
            let parse_ns = match trace {
                Some(_) => submitted.elapsed().as_nanos() as u64,
                None => 0,
            };
            let admitted = parsed.and_then(|r| {
                let id = r.id;
                engine
                    .submit(r, tx.clone())
                    .map(|()| id)
                    .map_err(|refusal| refusal.to_json())
            });
            match admitted {
                Ok(id) => {
                    in_flight.insert(
                        id,
                        InFlight {
                            submitted,
                            parse_ns,
                            must_miss,
                        },
                    );
                }
                Err(reason) => ops.record("request", Err(reason)),
            }
        }
        if in_flight.is_empty() {
            break;
        }
        let Ok(response) = rx.recv_timeout(Duration::from_secs(60)) else {
            ops.record("request", Err("no reply within 60 s".into()));
            break;
        };
        let replied = Instant::now();
        drop(black_box(response.to_json()));
        let to_json_ns = match trace {
            Some(_) => replied.elapsed().as_nanos() as u64,
            None => 0,
        };

        let Some(sent) = in_flight.remove(&response.id()) else {
            ops.record(
                "request",
                Err(format!(
                    "a second or stray response for id {}",
                    response.id()
                )),
            );
            continue;
        };
        let outcome = match &response {
            Response::Error(e) => Err(format!("{}: {}", e.kind.as_str(), e.message)),
            Response::Done(d) if sent.must_miss && d.cache != "miss" => {
                Err(format!("cold request {} was served as '{}'", d.id, d.cache))
            }
            Response::Done(_) => Ok(()),
        };
        ops.record("request", outcome);
        phase
            .latencies_ms
            .push(replied.duration_since(sent.submitted).as_secs_f64() * 1e3);
        phase
            .completed_at_s
            .push(replied.duration_since(began).as_secs_f64());
        phase.cache_hit.push(match &response {
            Response::Done(d) if d.cache == "hit" => Some(true),
            Response::Done(d) if d.cache == "miss" => Some(false),
            _ => None,
        });
        if let Some(t) = trace.as_deref_mut() {
            t.push(RequestTrace {
                submit_ns: sent.submitted.duration_since(began).as_nanos() as u64,
                parse_ns: sent.parse_ns,
                reply_ns: replied.duration_since(began).as_nanos() as u64,
                to_json_ns,
            });
        }
    }
    for id in in_flight.keys() {
        ops.record("request", Err(format!("no response for id {id}")));
    }
    phase
}

impl Phase {
    /// Requests per second: the median over consecutive windows of
    /// `window` completions ([`Workload::rate_window`]: a whole number
    /// of mix replays), which one scheduling hiccup
    /// cannot drag the way it drags completed ÷ wall. With less than
    /// one full window it is completed ÷ wall.
    pub fn rps(&self, window: usize) -> f64 {
        let t = &self.completed_at_s;
        let rates: Vec<f64> = (1..=t.len() / window.max(1))
            .map(|w| {
                let start = if w == 1 { 0.0 } else { t[(w - 1) * window - 1] };
                window as f64 / (t[w * window - 1] - start)
            })
            .collect();
        match (rates.is_empty(), t.last()) {
            (false, _) => stats::median(&rates),
            (true, Some(&wall)) if wall > 0.0 => t.len() as f64 / wall,
            _ => 0.0,
        }
    }

    /// Hits ÷ cacheable requests answered (lint requests excluded).
    pub fn hit_rate(&self) -> f64 {
        let cacheable = self.cache_hit.iter().flatten().count();
        let hits = self.cache_hit.iter().flatten().filter(|&&h| h).count();
        if cacheable == 0 {
            0.0
        } else {
            hits as f64 / cacheable as f64
        }
    }
}

/// Samples of the timed pass.
#[derive(Debug, Default)]
pub struct Timed {
    pub compile_ms: Vec<f64>,
    /// One sample vector per entry of [`RUN_CONFIGS`].
    pub run_ms: [Vec<f64>; 3],
    pub warm: Phase,
    /// The warm mix again with one request outstanding: latency
    /// without queueing.
    pub unloaded: Phase,
    pub cold: Phase,
}

/// Fewest samples a median is taken over, however short `--seconds`.
const MIN_COMPILES: usize = 11;
const MIN_RUN_ROUNDS: usize = 5;

/// The timed pass: compile, then rounds over the three run
/// configurations, then the warm, the unloaded and the cold serve
/// phase, each for its share of `seconds`.
pub fn timed_pass(p: &Prepared, seconds: f64, ops: &mut Ops) -> Timed {
    let mut out = Timed::default();
    let shares = p.workload.shares;

    let began = Instant::now();
    while out.compile_ms.len() < MIN_COMPILES
        || began.elapsed().as_secs_f64() < seconds * shares.compile
    {
        let t = Instant::now();
        let compiled = compile(black_box(&p.workload.program));
        out.compile_ms.push(t.elapsed().as_secs_f64() * 1e3);
        ops.record("compile", compiled.map(|_| ()));
    }

    let began = Instant::now();
    while out.run_ms[0].len() < MIN_RUN_ROUNDS
        || began.elapsed().as_secs_f64() < seconds * shares.run
    {
        for (i, cfg) in RUN_CONFIGS.iter().enumerate() {
            let t = Instant::now();
            let outcome = run(black_box(&p.exe), cfg);
            out.run_ms[i].push(t.elapsed().as_secs_f64() * 1e3);
            ops.record(
                cfg.metric,
                outcome
                    .and_then(|r| check_run(&p.exe, &p.reference, cfg, &r, Some(&p.sim_stats[i]))),
            );
        }
    }

    // Warm first, while the cache still holds what set-up put there;
    // the cold phase then evicts all of it. Rates take two fifths of
    // the serve share each, the unloaded latency one fifth.
    let window = p.workload.rate_window() as u64;
    let mut phase = |cold: bool, outstanding: usize, share: f64| {
        let began = Instant::now();
        serve_phase(
            &p.engine,
            cold,
            outstanding,
            |n| {
                // Stop on a window boundary once the time is up, but
                // never before two full windows.
                let time_up = began.elapsed().as_secs_f64() >= seconds * shares.serve * share;
                let stop = n % window == 0 && n >= 2 * window && time_up;
                (!stop).then(|| p.workload.request(n, cold))
            },
            ops,
            None,
        )
    };
    out.warm = phase(false, OUTSTANDING, 0.4);
    out.unloaded = phase(false, 1, 0.2);
    out.cold = phase(true, OUTSTANDING, 0.4);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_one_and_two_set_up_and_pass_a_short_timed_pass() {
        // (Every workload goes through here again, and on through the
        // traced pass, in the `layers` tests.)
        for name in ["comm_mix", "compile_large"] {
            for seed in [1, 2] {
                let mut ops = Ops::default();
                let p = setup(name, seed, Sizes::TOY, &mut ops).unwrap();
                let t = timed_pass(&p, 0.0, &mut ops);
                assert_eq!(ops.failed, 0, "{name} seed {seed}: {:?}", ops.reasons);
                assert!(t.compile_ms.len() >= MIN_COMPILES);
                assert!(t.run_ms.iter().all(|r| r.len() >= MIN_RUN_ROUNDS));
                let window = p.workload.rate_window();
                assert_eq!(t.warm.latencies_ms.len(), 2 * window);
                assert_eq!(t.unloaded.latencies_ms.len(), 2 * window);
                assert_eq!(t.cold.latencies_ms.len(), 2 * window);
                assert!(t.warm.hit_rate() > 0.99, "{name}: {}", t.warm.hit_rate());
                assert_eq!(t.unloaded.hit_rate(), 1.0, "{name}");
                assert_eq!(t.cold.hit_rate(), 0.0, "{name}");
                assert!(t.warm.rps(window) > 0.0 && t.cold.rps(window) > 0.0);
            }
        }
    }

    #[test]
    fn rps_is_the_median_window_rate() {
        let phase = Phase {
            // Three windows of two: 2 in 1 s, 2 in 0.5 s, 2 in 4 s.
            completed_at_s: vec![0.5, 1.0, 1.25, 1.5, 3.5, 5.5],
            ..Phase::default()
        };
        assert_eq!(phase.rps(2), 2.0);
        // Less than a window: completed over wall.
        assert_eq!(phase.rps(7), 6.0 / 5.5);
        assert_eq!(Phase::default().rps(2), 0.0);
    }

    #[test]
    fn a_failed_operation_is_counted_with_its_reason() {
        let mut ops = Ops::default();
        ops.record("x", Ok(()));
        ops.record("y", Err("broke".into()));
        assert_eq!((ops.attempted, ops.failed), (2, 1));
        assert_eq!(ops.reasons, ["y: broke"]);
    }
}
