//! # f90y-core — the Fortran-90-Y compiler, assembled
//!
//! A Rust reproduction of Chen & Cowie, *Prototyping Fortran-90
//! Compilers for Massively Parallel Machines* (PLDI 1992): a formally
//! specified data-parallel Fortran 90 compiler for the Connection
//! Machine CM/2, together with the machine simulator, the CM Fortran and
//! \*Lisp comparator models, and the benchmark workloads of the paper's
//! evaluation.
//!
//! This crate is the front door; the pipeline stages live in their own
//! crates (see DESIGN.md for the inventory):
//!
//! ```text
//! source ──f90y-frontend──► AST ──f90y-lowering──► NIR
//!        ──f90y-transform──► blocked NIR ──f90y-backend──► PEAC + host
//!        ──f90y-cm2 (simulated CM/2)──► results + cycle counts
//! ```
//!
//! ## Quickstart
//!
//! ```
//! use f90y_core::{Compiler, Pipeline, Target};
//!
//! let exe = Compiler::new(Pipeline::F90y)
//!     .compile("INTEGER K(64,64)\nK = 2*K + 5\n")?;
//! let run = exe.session(Target::Cm2 { nodes: 64 }).run()?; // a 64-node CM/2
//! assert!(run.finals().final_array("k")?.iter().all(|&x| x == 5.0));
//! println!("sustained: {:.2} GFLOPS", run.gflops());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Running is one API for every target: [`Executable::session`] opens a
//! [`Session`], chainable options configure it, and [`Session::run`]
//! returns a [`Run`] report (or a typed [`RunError`]). The same
//! executable retargets to the CM/5 MIMD engine — optionally under a
//! deterministic fault plan — by swapping the [`Target`]:
//!
//! ```
//! use f90y_core::{Compiler, FaultPlan, Pipeline, Target};
//!
//! let exe = Compiler::new(Pipeline::F90y)
//!     .compile("REAL A(32,32), S\nA = A + 1.0\nS = SUM(A)\n")?;
//! let clean = exe.session(Target::Cm5Mimd { nodes: 16 }).run()?;
//! let faulty = exe
//!     .session(Target::Cm5Mimd { nodes: 16 })
//!     .faults(FaultPlan::seeded(7).drop_per_mille(20).duplicate_per_mille(10))
//!     .run()?;
//! // Reliable delivery + recovery keep finals bit-identical.
//! assert_eq!(
//!     clean.finals().final_scalar("s")?,
//!     faulty.finals().final_scalar("s")?,
//! );
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod predict;
pub mod workloads;

use std::error::Error;
use std::fmt;
use std::sync::OnceLock;

pub use f90y_accel::{Accel, AccelConfig, AccelStats};
pub use f90y_analysis::{
    comm_lints, comm_plan, price, CommKind, CommOp, CommPlan, Diagnostic, LintReport, PricedPlan,
    WarnCode,
};
pub use f90y_backend::fe::HostRun;
pub use f90y_backend::CompiledProgram;
pub use f90y_cm2::{Cm2, Cm2Config, MachineStats};
pub use f90y_hal::{Registry, TargetManifest, Topology};
pub use f90y_mimd::{FaultPlan, MimdConfig, MimdStats};
pub use f90y_nir::Imp;
pub use f90y_obs::trace::{
    Actor, ChromeTraceSink, ClockDomain, JsonlTraceSink, Trace, TraceBuffer, TraceEvent, TraceSink,
};
pub use f90y_obs::{EventSink, JsonSink, PrettySink, Telemetry, TelemetryReport};
pub use f90y_transform::{DumpPoint, PassManager, PassReport, PipelineReport, TransformReport};

pub use predict::{PlanError, StaticProfile, TargetPrediction};

use f90y_backend::fe::HostExecutor;
use f90y_baselines::Baseline;
use f90y_frontend::ast::SourceFile;

/// Which compiler to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pipeline {
    /// The Fortran-90-Y prototype: full blocking and PE optimization.
    F90y,
    /// The CM Fortran slicewise v1.1 model: per-statement phases.
    Cmf,
    /// The \*Lisp fieldwise model: per-statement, naive PE code, the
    /// fieldwise machine multipliers.
    StarLisp,
}

impl Pipeline {
    /// Display name for tables.
    pub fn name(self) -> &'static str {
        match self {
            Pipeline::F90y => "Fortran-90-Y",
            Pipeline::Cmf => "CM Fortran (slicewise)",
            Pipeline::StarLisp => "*Lisp (fieldwise)",
        }
    }

    /// The machine configuration this pipeline's code runs on.
    pub fn machine(self, nodes: usize) -> Cm2 {
        match self {
            Pipeline::StarLisp => Cm2::new(Cm2Config::fieldwise(nodes)),
            _ => Cm2::new(Cm2Config::slicewise(nodes)),
        }
    }
}

/// Any error along the compilation pipeline.
#[derive(Debug)]
pub enum CompileError {
    /// Syntax error.
    Parse(f90y_frontend::ParseError),
    /// Semantic-lowering error.
    Lower(f90y_lowering::LowerError),
    /// Transformation error.
    Transform(f90y_nir::NirError),
    /// Backend or execution error.
    Backend(f90y_backend::BackendError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "{e}"),
            CompileError::Lower(e) => write!(f, "{e}"),
            CompileError::Transform(e) => write!(f, "{e}"),
            CompileError::Backend(e) => write!(f, "{e}"),
        }
    }
}

impl Error for CompileError {}

impl From<f90y_frontend::ParseError> for CompileError {
    fn from(e: f90y_frontend::ParseError) -> Self {
        CompileError::Parse(e)
    }
}

impl From<f90y_lowering::LowerError> for CompileError {
    fn from(e: f90y_lowering::LowerError) -> Self {
        CompileError::Lower(e)
    }
}

impl From<f90y_nir::NirError> for CompileError {
    fn from(e: f90y_nir::NirError) -> Self {
        CompileError::Transform(e)
    }
}

impl From<f90y_backend::BackendError> for CompileError {
    fn from(e: f90y_backend::BackendError) -> Self {
        CompileError::Backend(e)
    }
}

/// A runtime error, distinct from [`CompileError`]: the latter means
/// the *program* could not be built, these mean a built program's *run*
/// went wrong (bad session configuration, a dynamic execution fault, an
/// exhausted fault-recovery budget, a validation mismatch).
#[derive(Debug)]
pub enum RunError {
    /// The session was configured inconsistently — a node count the
    /// target cannot honour, a fault plan aimed at the wrong target or
    /// at nodes the partition does not have.
    InvalidSession(String),
    /// A dynamic error during host execution.
    Execution(f90y_backend::BackendError),
    /// An injected fault plan exhausted its recovery budgets (message
    /// retries or node restarts) and the run could not complete.
    Unrecoverable(String),
    /// The machine's results disagree with the NIR reference evaluator.
    Validation(String),
    /// The NIR reference evaluator itself failed.
    Reference(f90y_nir::NirError),
    /// A configured trace sink failed to accept the run's trace (an
    /// I/O error writing the export).
    Trace(std::io::Error),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::InvalidSession(m) => write!(f, "invalid session: {m}"),
            RunError::Execution(e) => write!(f, "{e}"),
            RunError::Unrecoverable(m) => write!(f, "unrecoverable fault: {m}"),
            RunError::Validation(m) => write!(f, "validation failed: {m}"),
            RunError::Reference(e) => write!(f, "reference evaluator: {e}"),
            RunError::Trace(e) => write!(f, "trace sink: {e}"),
        }
    }
}

impl Error for RunError {}

impl From<f90y_backend::BackendError> for RunError {
    fn from(e: f90y_backend::BackendError) -> Self {
        match e {
            f90y_backend::BackendError::Machine(f90y_cm2::Cm2Error::Unrecoverable(m)) => {
                RunError::Unrecoverable(m)
            }
            other => RunError::Execution(other),
        }
    }
}

/// The compiler driver.
#[derive(Debug, Clone)]
pub struct Compiler {
    pipeline: Pipeline,
    passes: Option<Vec<String>>,
    verify: bool,
    audit: bool,
    dump: DumpPoint,
}

impl Compiler {
    /// A driver for the given pipeline, with that pipeline's default
    /// middle-end passes (see [`Compiler::passes`] to override them).
    pub fn new(pipeline: Pipeline) -> Self {
        Compiler {
            pipeline,
            passes: None,
            verify: false,
            audit: false,
            dump: DumpPoint::None,
        }
    }

    /// The selected pipeline.
    pub fn pipeline(&self) -> Pipeline {
        self.pipeline
    }

    /// Override the middle-end pass list (registered pass names plus
    /// the `blocking` pseudo-name for the reorder/fuse fixpoint group).
    /// Unknown names fail at [`Compiler::compile`] time.
    #[must_use]
    pub fn passes<S: Into<String>>(mut self, names: impl IntoIterator<Item = S>) -> Self {
        self.passes = Some(names.into_iter().map(Into::into).collect());
        self
    }

    /// Enable inter-pass verification: after every middle-end pass the
    /// type and shape checkers re-run and evaluator finals are compared
    /// against the input program's; a miscompiling pass fails the build
    /// with an error naming it. Also switched on by the
    /// `F90Y_VERIFY_PASSES` environment variable (any value but `0`).
    #[must_use]
    pub fn verify_passes(mut self, on: bool) -> Self {
        self.verify = on;
        self
    }

    /// Enable the static def-use legality audit: after every middle-end
    /// pass, reaching-definition facts are recomputed and a pass that
    /// leaves a read no longer covered by any definition fails the
    /// build with an error naming it — the static sibling of
    /// [`Compiler::verify_passes`]. Also switched on by the
    /// `F90Y_AUDIT_PASSES` environment variable (any value but `0`).
    #[must_use]
    pub fn audit_passes(mut self, on: bool) -> Self {
        self.audit = on;
        self
    }

    /// Capture pretty-printed NIR dumps after the named pass (or after
    /// every pass); they land in [`Executable::pass_reports`].
    #[must_use]
    pub fn dump_ir(mut self, dump: DumpPoint) -> Self {
        self.dump = dump;
        self
    }

    /// The configured middle end as a [`PassManager`].
    ///
    /// # Errors
    ///
    /// Fails on an unknown pass name from [`Compiler::passes`].
    fn pass_manager(&self) -> Result<PassManager, f90y_nir::NirError> {
        let mgr = match &self.passes {
            Some(names) => PassManager::from_names(names)?,
            None => match self.pipeline {
                Pipeline::F90y => f90y_transform::default_passes(),
                // The baseline compilers model per-statement
                // compilation: no deduplication, no blocking.
                Pipeline::Cmf | Pipeline::StarLisp => f90y_transform::per_statement_passes(),
            },
        };
        let verify = self.verify || env_verify_passes();
        let audit = self.audit || env_audit_passes();
        Ok(mgr.verify(verify).audit(audit).dump(self.dump.clone()))
    }

    /// Lint Fortran 90 source without compiling it to the machine:
    /// parse, lower to NIR, and run the `f90y-analysis` diagnostics
    /// engine (`W-RACE`, `W-UNINIT`, `W-DEADSTORE`) over the lowered
    /// program. The middle end does not run — diagnostics describe the
    /// program as written, not as optimized.
    ///
    /// # Errors
    ///
    /// Fails on syntax or semantic-lowering errors; a program that
    /// merely warns still returns `Ok` (inspect
    /// [`LintReport::is_clean`]).
    pub fn lint(&self, source: &str) -> Result<LintReport, CompileError> {
        self.lint_with(source, &mut Telemetry::disabled())
    }

    /// [`Compiler::lint`] with telemetry: the analysis runs inside an
    /// `analysis.lint` span and lands `analysis.*` counters (statements
    /// analysed, dataflow facts computed, warnings by code).
    ///
    /// # Errors
    ///
    /// As [`Compiler::lint`].
    pub fn lint_with(&self, source: &str, tel: &mut Telemetry) -> Result<LintReport, CompileError> {
        let span = tel.start("compile.frontend.parse");
        let file = f90y_frontend::parse_file(source)?;
        tel.finish(span);
        let span = tel.start("compile.lowering");
        let nir = f90y_lowering::lower_file(&file)?;
        tel.finish(span);
        Ok(f90y_analysis::lint_with(&nir, tel))
    }

    /// Communication diagnostics (`W-WIDE-HALO`, `W-REDUNDANT-COMM`,
    /// `W-ALLTOALL`): run the configured middle end, then the comm
    /// lints over the *optimized* NIR — unlike [`Compiler::lint`],
    /// these describe the program as the machine will run it, flagging
    /// exactly the communication the pipeline had its chance to
    /// improve and did not. `topology` decides whether transpose-shaped
    /// traffic warrants `W-ALLTOALL` (it does on a hypercube mesh).
    ///
    /// # Errors
    ///
    /// Fails on syntax, semantic or transformation errors; a program
    /// that merely warns still returns `Ok`.
    pub fn lint_comm(
        &self,
        source: &str,
        topology: Topology,
    ) -> Result<Vec<Diagnostic>, CompileError> {
        let file = f90y_frontend::parse_file(source)?;
        let nir = f90y_lowering::lower_file(&file)?;
        let (optimized, _) = self
            .pass_manager()?
            .run_with(&nir, &mut Telemetry::disabled())?;
        Ok(comm_lints(&optimized, topology))
    }

    /// Compile Fortran 90 source to an executable for the simulated
    /// machine.
    ///
    /// # Errors
    ///
    /// Fails on syntax, semantic, transformation or code-generation
    /// errors.
    pub fn compile(&self, source: &str) -> Result<Executable, CompileError> {
        self.compile_with(source, &mut Telemetry::disabled())
    }

    /// [`Compiler::compile`] with telemetry: every stage runs inside a
    /// span, and each stage's characteristic counters land in `tel`
    /// (see DESIGN.md "Observability" for the glossary). With a
    /// disabled collector this is exactly [`Compiler::compile`].
    ///
    /// # Errors
    ///
    /// As [`Compiler::compile`].
    pub fn compile_with(
        &self,
        source: &str,
        tel: &mut Telemetry,
    ) -> Result<Executable, CompileError> {
        let whole = tel.start("compile");

        let span = tel.start("compile.frontend.parse");
        let file = f90y_frontend::parse_file(source)?;
        tel.finish(span);
        if tel.is_enabled() {
            // Re-lexing costs a second scan, but only when someone is
            // listening; the parse above already proved it lexes.
            if let Ok(tokens) = f90y_frontend::lexer::lex(source) {
                tel.count("frontend.tokens", tokens.len() as u64);
            }
            tel.count("frontend.ast_stmts", ast_stmt_count(&file) as u64);
            tel.count("frontend.ast_decls", ast_decl_count(&file) as u64);
        }

        let span = tel.start("compile.lowering");
        let nir = f90y_lowering::lower_file(&file)?;
        tel.finish(span);

        let span = tel.start("compile.transform");
        let (optimized, pass_reports) = self.pass_manager()?.run_with(&nir, tel)?;
        let report = TransformReport::from_pipeline(&pass_reports);
        tel.finish(span);
        if tel.is_enabled() {
            tel.count("transform.moves_before", report.moves_before as u64);
            tel.count("transform.moves_after", report.moves_after as u64);
            tel.count("transform.comm_temps", report.comm_temps as u64);
            tel.count("transform.comm_merged", report.comm_merged as u64);
            tel.count("transform.masked_pads", report.masked_pads as u64);
            tel.count("transform.temps_deleted", report.temps_deleted as u64);
            tel.count("transform.blocking_swaps", report.swaps as u64);
            tel.count("transform.blocks_after", report.blocks_after as u64);
            tel.count("transform.clauses_after", report.clauses_after as u64);
        }

        let span = tel.start("compile.backend");
        let compiled = match self.pipeline {
            Pipeline::F90y => f90y_backend::compile(&optimized)?,
            Pipeline::Cmf => f90y_baselines::compile_baseline(&nir, Baseline::Cmf)?,
            Pipeline::StarLisp => f90y_baselines::compile_baseline(&nir, Baseline::StarLisp)?,
        };
        tel.finish(span);
        if tel.is_enabled() {
            let pe = compiled.pe_stats();
            tel.count("backend.pe.dead_ops_removed", pe.dead_ops_removed as u64);
            tel.count("backend.pe.madds_fused", pe.madds_fused as u64);
            tel.count("backend.pe.loads_chained", pe.loads_chained as u64);
            tel.count("backend.pe.spill_stores", pe.spill_stores as u64);
            tel.count("backend.pe.spill_loads", pe.spill_loads as u64);
            tel.count("backend.pe.instructions", pe.instructions as u64);
            tel.gauge_max("backend.pe.vreg_pressure", pe.vregs_used as f64);
            tel.count("backend.node_blocks", compiled.blocks.len() as u64);
            tel.count("backend.host_stmts", compiled.host.counts.total() as u64);
        }

        tel.finish(whole);
        Ok(Executable {
            pipeline: self.pipeline,
            nir,
            optimized,
            report,
            pass_reports,
            compiled,
            profile: OnceLock::new(),
        })
    }
}

/// Whether the `F90Y_VERIFY_PASSES` environment variable asks for
/// inter-pass verification (set to anything but `0` or empty).
fn env_verify_passes() -> bool {
    std::env::var("F90Y_VERIFY_PASSES")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}

/// Whether the `F90Y_AUDIT_PASSES` environment variable asks for the
/// static def-use legality audit (set to anything but `0` or empty).
fn env_audit_passes() -> bool {
    std::env::var("F90Y_AUDIT_PASSES")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}

/// Executable statements in a parsed file (main program plus
/// subroutines), top level only — a size signal, not a deep node count.
fn ast_stmt_count(file: &SourceFile) -> usize {
    file.program.stmts.len()
        + file
            .subroutines
            .iter()
            .map(|s| s.stmts.len())
            .sum::<usize>()
}

fn ast_decl_count(file: &SourceFile) -> usize {
    file.program.decls.len()
}

/// A compiled program plus everything the harnesses want to inspect.
#[derive(Debug)]
pub struct Executable {
    /// The pipeline that produced it.
    pub pipeline: Pipeline,
    /// The lowered (unoptimized) NIR.
    pub nir: Imp,
    /// The NIR after the transformation pipeline.
    pub optimized: Imp,
    /// What the transformations did, summed up (a derived view over
    /// [`Executable::pass_reports`]).
    pub report: TransformReport,
    /// The middle end's per-pass reports and captured IR dumps.
    pub pass_reports: PipelineReport,
    /// The node routines and host program.
    pub compiled: CompiledProgram,
    /// The static profile, computed on first use (see
    /// [`Executable::static_profile`]).
    profile: OnceLock<Result<StaticProfile, PlanError>>,
}

impl Executable {
    /// Open a [`Session`] on `target` — the one entry point for running
    /// a compiled program. Chain [`Session::telemetry`],
    /// [`Session::faults`], [`Session::host_threads`] or
    /// [`Session::on_machine`] to configure, then [`Session::run`].
    pub fn session(&self, target: Target) -> Session<'_> {
        Session {
            exe: self,
            target,
            tel: None,
            faults: None,
            machine: None,
            sinks: Vec::new(),
            host_threads: 1,
        }
    }

    /// The CM/2 execution behind every session: runs inside a `run`
    /// span; the run's cycle/flop deltas land as `sim.*` counters, and
    /// — with a recording collector — the machine's per-phase cycle
    /// profile is enabled for the run and lands as `sim.phase.<tag>.*`
    /// counters whose sums equal the `sim.*` category totals exactly.
    /// With `want_trace`, the machine's cycle-clocked flight recorder
    /// is enabled for the run and its trace returned alongside.
    fn run_cm2_impl(
        &self,
        cm: &mut Cm2,
        tel: &mut Telemetry,
        want_trace: bool,
    ) -> Result<(RunReport, Option<Trace>), RunError> {
        if tel.is_enabled() {
            // A fresh profile for this run, so phase sums equal the
            // stats delta reported below.
            cm.enable_profile();
        }
        if want_trace {
            cm.enable_flight_recorder();
        }
        let span = tel.start("run");
        let before = cm.stats();
        let finals = HostExecutor::new(cm).run(&self.compiled)?;
        let after = cm.stats();
        tel.finish(span);
        let trace = if want_trace { cm.take_flight() } else { None };
        let stats = MachineStats {
            compute_cycles: after.compute_cycles - before.compute_cycles,
            comm_cycles: after.comm_cycles - before.comm_cycles,
            dispatch_overhead_cycles: after.dispatch_overhead_cycles
                - before.dispatch_overhead_cycles,
            host_cycles: after.host_cycles - before.host_cycles,
            flops: after.flops - before.flops,
            dispatches: after.dispatches - before.dispatches,
            comm_calls: after.comm_calls - before.comm_calls,
            reductions: after.reductions - before.reductions,
        };
        if tel.is_enabled() {
            tel.count("sim.compute_cycles", stats.compute_cycles);
            tel.count("sim.comm_cycles", stats.comm_cycles);
            tel.count(
                "sim.dispatch_overhead_cycles",
                stats.dispatch_overhead_cycles,
            );
            tel.count("sim.host_cycles", stats.host_cycles);
            tel.count("sim.flops", stats.flops);
            tel.count("sim.dispatches", stats.dispatches);
            tel.count("sim.comm_calls", stats.comm_calls);
            tel.count("sim.reductions", stats.reductions);
            if let Some(profile) = cm.profile() {
                for (phase, cycles) in profile.phases() {
                    let categories = [
                        ("compute_cycles", cycles.compute_cycles),
                        ("comm_cycles", cycles.comm_cycles),
                        ("dispatch_overhead_cycles", cycles.dispatch_overhead_cycles),
                        ("host_cycles", cycles.host_cycles),
                    ];
                    for (category, value) in categories {
                        if value > 0 {
                            tel.count(&format!("sim.phase.{phase}.{category}"), value);
                        }
                    }
                }
            }
        }
        let clock = cm.config().clock_hz;
        Ok((
            RunReport {
                gflops: stats.gflops(clock),
                elapsed_seconds: stats.elapsed_seconds(clock),
                host_fraction: stats.host_fraction(clock),
                stats,
                finals,
            },
            trace,
        ))
    }

    /// The MIMD execution behind every session: runs inside a
    /// `run.mimd` span and the machine's counters land under `mimd.*` —
    /// message/byte/collective counts plus per-phase seconds (as
    /// gauges) and the busiest/least-busy node times. With a fault
    /// plan, the injection and recovery counters additionally land
    /// under `mimd.fault.*`. `host_threads` sets the host-side compute
    /// pool width (wall-clock only; deliberately *not* a telemetry
    /// counter, so reports stay bit-identical across widths).
    fn run_mimd_impl(
        &self,
        nodes: usize,
        faults: Option<FaultPlan>,
        host_threads: usize,
        tel: &mut Telemetry,
        want_trace: bool,
    ) -> Result<(MimdRunReport, Option<Trace>), RunError> {
        let fault_run = faults.is_some();
        let mut config = f90y_mimd::MimdConfig::new(nodes).with_host_threads(host_threads);
        if let Some(plan) = faults {
            config = config.with_faults(plan);
        }
        let mut machine = f90y_mimd::MimdMachine::new(config);
        if want_trace {
            machine.enable_trace();
        }
        let span = tel.start("run.mimd");
        let result = HostExecutor::new(&mut machine).run(&self.compiled);
        tel.finish(span);
        let finals = result.map_err(RunError::from)?;
        let trace = machine.take_trace();
        let stats = machine.stats().clone();
        if tel.is_enabled() {
            tel.count("mimd.nodes", nodes as u64);
            tel.count("mimd.flops", stats.flops);
            tel.count("mimd.dispatches", stats.dispatches);
            tel.count("mimd.comm_calls", stats.comm_calls);
            tel.count("mimd.halo_exchanges", stats.halo_exchanges);
            tel.count("mimd.router_batches", stats.router_batches);
            tel.count("mimd.reductions", stats.reductions);
            tel.count("mimd.messages", stats.messages);
            tel.count("mimd.bytes", stats.bytes);
            tel.gauge("mimd.elapsed_seconds", stats.elapsed_seconds());
            tel.gauge("mimd.compute_seconds", stats.compute_seconds);
            tel.gauge("mimd.network_seconds", stats.network_seconds);
            tel.gauge("mimd.control_seconds", stats.control_seconds);
            tel.gauge("mimd.host_seconds", stats.host_seconds);
            tel.gauge("mimd.gflops", stats.gflops());
            tel.gauge("mimd.imbalance", stats.imbalance());
            for &busy in &stats.node_busy_seconds {
                tel.gauge_max("mimd.node_busy_max_seconds", busy);
                tel.gauge_min("mimd.node_busy_min_seconds", busy);
            }
            tel.count("mimd.supersteps", stats.supersteps);
            if fault_run {
                tel.count("mimd.fault.injected", stats.faults_injected());
                tel.count("mimd.fault.msgs_dropped", stats.msgs_dropped);
                tel.count("mimd.fault.msgs_duplicated", stats.msgs_duplicated);
                tel.count("mimd.fault.msgs_delayed", stats.msgs_delayed);
                tel.count("mimd.fault.retries", stats.retries);
                tel.count("mimd.fault.dedup_suppressed", stats.dedup_suppressed);
                tel.count("mimd.fault.node_kills", stats.node_kills);
                tel.count("mimd.fault.node_restarts", stats.node_restarts);
                tel.count("mimd.fault.node_stalls", stats.node_stalls);
                tel.count("mimd.fault.checkpoints", stats.checkpoints);
                tel.count("mimd.fault.checkpoint_bytes", stats.checkpoint_bytes);
                tel.gauge("mimd.fault.recovery_seconds", stats.recovery_seconds);
            }
        }
        Ok((
            MimdRunReport {
                gflops: stats.gflops(),
                elapsed_seconds: stats.elapsed_seconds(),
                stats,
                finals,
            },
            trace,
        ))
    }

    /// The accelerator execution behind every session: runs inside a
    /// `run.accel` span and the machine's counters land under
    /// `accel.*` — kernel-launch and transfer counts, byte totals, and
    /// per-category device cycles. With `want_trace`, the device's
    /// cycle-clocked flight recorder is enabled for the run (kernel,
    /// shift/gather/reduce and h2d/d2h transfer phases tiling the
    /// clock) and its trace returned alongside.
    fn run_accel_impl(
        &self,
        nodes: usize,
        tel: &mut Telemetry,
        want_trace: bool,
    ) -> Result<(AccelRunReport, Option<Trace>), RunError> {
        let config = f90y_accel::AccelConfig::new(nodes);
        let mut machine = f90y_accel::Accel::new(config.clone());
        if want_trace {
            machine.enable_flight_recorder();
        }
        let span = tel.start("run.accel");
        let result = HostExecutor::new(&mut machine).run(&self.compiled);
        tel.finish(span);
        let finals = result.map_err(RunError::from)?;
        let trace = machine.take_flight();
        let stats = machine.stats();
        if tel.is_enabled() {
            tel.count("accel.units", nodes as u64);
            tel.count("accel.flops", stats.flops);
            tel.count("accel.kernel_launches", stats.kernel_launches);
            tel.count("accel.kernel_cycles", stats.kernel_cycles);
            tel.count("accel.launch_cycles", stats.launch_cycles);
            tel.count("accel.comm_cycles", stats.comm_cycles);
            tel.count("accel.transfer_cycles", stats.transfer_cycles);
            tel.count("accel.host_cycles", stats.host_cycles);
            tel.count("accel.h2d_transfers", stats.h2d_transfers);
            tel.count("accel.h2d_bytes", stats.h2d_bytes);
            tel.count("accel.d2h_transfers", stats.d2h_transfers);
            tel.count("accel.d2h_bytes", stats.d2h_bytes);
            tel.count("accel.comm_calls", stats.comm_calls);
            tel.count("accel.reductions", stats.reductions);
            tel.gauge("accel.elapsed_seconds", stats.elapsed_seconds(&config));
            tel.gauge("accel.gflops", stats.gflops(&config));
        }
        Ok((
            AccelRunReport {
                gflops: stats.gflops(&config),
                elapsed_seconds: stats.elapsed_seconds(&config),
                stats,
                finals,
            },
            trace,
        ))
    }

    /// The compile-time pass events a traced session prepends to its
    /// machine trace: one [`TraceEvent::Pass`] per middle-end pass, in
    /// pipeline order.
    fn pass_trace_events(&self) -> Vec<TraceEvent> {
        self.pass_reports
            .passes
            .iter()
            .enumerate()
            .map(|(i, p)| TraceEvent::Pass {
                ordinal: i as u64,
                name: p.name.clone(),
                rewrites: p.rewrites as u64,
            })
            .collect()
    }

    /// Validate the compiled program against the NIR reference
    /// evaluator on a small machine: every captured array and scalar
    /// must agree to within floating-point roundoff.
    ///
    /// # Errors
    ///
    /// [`RunError::Validation`] if any value disagrees;
    /// [`RunError::Reference`] or [`RunError::Execution`] when either
    /// side fails to run.
    pub fn validate(&self) -> Result<(), RunError> {
        let mut ev = f90y_nir::eval::Evaluator::new();
        ev.run(&self.nir).map_err(RunError::Reference)?;
        let run = self.session(Target::Cm2 { nodes: 16 }).run()?;
        for (name, value) in run.finals().finals() {
            // Transformation-introduced temporaries have no counterpart
            // in the unoptimized program.
            if ev.final_cell(name).is_none() {
                continue;
            }
            match value {
                f90y_backend::fe::Final::Array(got) => {
                    let expect = ev.final_array_f64(name).map_err(RunError::Reference)?;
                    for (i, (e, g)) in expect.iter().zip(got).enumerate() {
                        if (e - g).abs() > 1e-9 * e.abs().max(1.0) {
                            return Err(RunError::Validation(format!(
                                "{name}[{i}] evaluator={e} machine={g}"
                            )));
                        }
                    }
                }
                f90y_backend::fe::Final::Scalar(got) => {
                    let expect = ev.final_scalar_f64(name).map_err(RunError::Reference)?;
                    if (expect - got).abs() > 1e-9 * expect.abs().max(1.0) {
                        return Err(RunError::Validation(format!(
                            "{name} evaluator={expect} machine={got}"
                        )));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Where a [`Session`] runs the compiled program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// The simulated CM/2 SIMD machine — slicewise or fieldwise
    /// according to the pipeline that compiled the executable.
    Cm2 {
        /// Processing-element (node) count.
        nodes: usize,
    },
    /// The CM/5 MIMD execution engine: genuinely distributed sharded
    /// arrays, halo exchanges, combine trees (see `f90y-mimd`).
    Cm5Mimd {
        /// Processing-node count (must be a power of two).
        nodes: usize,
    },
    /// The accelerator model: array statements as kernel launches over
    /// device memory, with every host↔device byte an explicit transfer
    /// on the simulated clock (see `f90y-accel`).
    Accel {
        /// Device compute-unit count (must satisfy the manifest's node
        /// constraints: a power of two).
        nodes: usize,
    },
}

/// One configured run of an [`Executable`] — the single entry point
/// that replaced the old `run*` family.
///
/// Built by [`Executable::session`], configured by chaining, executed
/// by [`Session::run`]:
///
/// ```
/// use f90y_core::{Compiler, Pipeline, Target, Telemetry};
///
/// let exe = Compiler::new(Pipeline::F90y).compile("REAL A(32)\nA = A + 1.0\n")?;
/// let mut tel = Telemetry::new();
/// let run = exe
///     .session(Target::Cm5Mimd { nodes: 8 })
///     .telemetry(&mut tel)
///     .run()?;
/// assert!(run.finals().final_array("a")?.iter().all(|&x| x == 1.0));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Session<'a> {
    exe: &'a Executable,
    target: Target,
    tel: Option<&'a mut Telemetry>,
    faults: Option<FaultPlan>,
    machine: Option<&'a mut Cm2>,
    sinks: Vec<&'a mut dyn TraceSink>,
    host_threads: usize,
}

impl<'a> Session<'a> {
    /// Record compilation-style telemetry for the run (spans plus
    /// `sim.*` / `mimd.*` counters; `mimd.fault.*` under a fault plan).
    #[must_use]
    pub fn telemetry(mut self, tel: &'a mut Telemetry) -> Self {
        self.tel = Some(tel);
        self
    }

    /// Inject the plan's deterministic faults
    /// ([`Target::Cm5Mimd`] only).
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Execute each superstep's compute phase on `n` host worker
    /// threads ([`Target::Cm5Mimd`] only; default 1 = sequential).
    /// Purely a wall-clock knob: node shards partition over the
    /// workers and results merge at the barrier in node-index order,
    /// so finals, telemetry and trace digests are bit-identical at
    /// any width — including under a fault plan. Validated by
    /// [`Session::run`] (`n ≥ 1`). Sessions that keep the default can
    /// be widened globally with `F90Y_HOST_THREADS=<n>` (the CI hook
    /// for re-running whole suites parallel); an explicit call here
    /// always wins.
    #[must_use]
    pub fn host_threads(mut self, n: usize) -> Self {
        self.host_threads = n;
        self
    }

    /// Record the run's flight-recorder trace and deliver it to `sink`
    /// when the run finishes. Superstep-clocked on [`Target::Cm5Mimd`]
    /// (per-node phases, send/recv flow edges, fault and recovery
    /// events), cycle-clocked on [`Target::Cm2`] (runtime-call phase
    /// slices), and always prefixed with one [`TraceEvent::Pass`] per
    /// middle-end pass. Chain several times to feed several sinks from
    /// one run (e.g. a [`ChromeTraceSink`] and a [`JsonlTraceSink`]).
    #[must_use]
    pub fn trace(mut self, sink: &'a mut dyn TraceSink) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Run on an existing CM/2 instead of a fresh one, accumulating its
    /// stats ([`Target::Cm2`] only; the machine's node count must match
    /// the target's).
    #[must_use]
    pub fn on_machine(mut self, cm: &'a mut Cm2) -> Self {
        self.machine = Some(cm);
        self
    }

    /// Execute the session.
    ///
    /// # Errors
    ///
    /// [`RunError::InvalidSession`] when the configuration is
    /// inconsistent (non-power-of-two MIMD node count, a fault plan on
    /// the CM/2 target or targeting absent nodes, a zero or CM/2
    /// `host_threads` setting, a provided machine of the wrong size);
    /// [`RunError::Unrecoverable`] when an injected fault plan
    /// exhausts its recovery budgets; [`RunError::Execution`] on any
    /// other dynamic error.
    pub fn run(self) -> Result<Run, RunError> {
        let Session {
            exe,
            target,
            tel,
            faults,
            machine,
            mut sinks,
            host_threads,
        } = self;
        if host_threads == 0 {
            return Err(RunError::InvalidSession(
                "host_threads must be at least 1 (1 = sequential)".into(),
            ));
        }
        let mut local = Telemetry::disabled();
        let tel = tel.unwrap_or(&mut local);
        let want_trace = !sinks.is_empty();
        let (run, trace) = match target {
            Target::Cm2 { nodes } => {
                if faults.is_some() {
                    return Err(RunError::InvalidSession(
                        "fault plans apply to Target::Cm5Mimd only — the SIMD machine \
                         has no message layer to perturb"
                            .into(),
                    ));
                }
                if host_threads > 1 {
                    return Err(RunError::InvalidSession(format!(
                        "host_threads({host_threads}) applies to Target::Cm5Mimd only — \
                         the SIMD machine's cycle model is single-image"
                    )));
                }
                let (report, trace) = match machine {
                    Some(cm) => {
                        let have = cm.config().nodes;
                        if have != nodes {
                            return Err(RunError::InvalidSession(format!(
                                "on_machine provides a {have}-node CM/2 but the target \
                                 asks for {nodes} nodes"
                            )));
                        }
                        exe.run_cm2_impl(cm, tel, want_trace)?
                    }
                    None => {
                        let mut cm = exe.pipeline.machine(nodes);
                        exe.run_cm2_impl(&mut cm, tel, want_trace)?
                    }
                };
                (Run::Cm2(report), trace)
            }
            Target::Cm5Mimd { nodes } => {
                if machine.is_some() {
                    return Err(RunError::InvalidSession(
                        "on_machine provides a CM/2; it cannot host a Target::Cm5Mimd \
                         session"
                            .into(),
                    ));
                }
                if !nodes.is_power_of_two() {
                    return Err(RunError::InvalidSession(format!(
                        "MIMD node count must be a power of two, got {nodes}"
                    )));
                }
                if let Some(plan) = &faults {
                    plan.validate(nodes).map_err(RunError::InvalidSession)?;
                }
                // CI hook: `F90Y_HOST_THREADS` re-runs any MIMD suite
                // with a parallel compute phase without touching call
                // sites (results are bit-identical at any width, so
                // this can never change what a test observes). An
                // explicit `.host_threads()` call always wins.
                let host_threads = if host_threads == 1 {
                    std::env::var("F90Y_HOST_THREADS")
                        .ok()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n >= 1)
                        .unwrap_or(1)
                } else {
                    host_threads
                };
                let (report, trace) =
                    exe.run_mimd_impl(nodes, faults, host_threads, tel, want_trace)?;
                (Run::Mimd(report), trace)
            }
            Target::Accel { nodes } => {
                if faults.is_some() {
                    return Err(RunError::InvalidSession(
                        "fault plans apply to Target::Cm5Mimd only — the accelerator \
                         model has no message layer to perturb"
                            .into(),
                    ));
                }
                if host_threads > 1 {
                    return Err(RunError::InvalidSession(format!(
                        "host_threads({host_threads}) applies to Target::Cm5Mimd only — \
                         the accelerator's device clock is single-image"
                    )));
                }
                if machine.is_some() {
                    return Err(RunError::InvalidSession(
                        "on_machine provides a CM/2; it cannot host a Target::Accel \
                         session"
                            .into(),
                    ));
                }
                f90y_hal::ACCEL
                    .check_nodes(nodes)
                    .map_err(RunError::InvalidSession)?;
                let (report, trace) = exe.run_accel_impl(nodes, tel, want_trace)?;
                (Run::Accel(report), trace)
            }
        };
        if let Some(mut trace) = trace {
            trace.prepend(exe.pass_trace_events());
            for sink in &mut sinks {
                sink.emit(&trace).map_err(RunError::Trace)?;
            }
        }
        Ok(run)
    }
}

/// What a [`Session`] produced: one report type across targets, with
/// target-independent accessors plus typed access to each report.
#[derive(Debug)]
pub enum Run {
    /// A CM/2 (SIMD) run.
    Cm2(RunReport),
    /// A CM/5 MIMD-engine run.
    Mimd(MimdRunReport),
    /// An accelerator run.
    Accel(AccelRunReport),
}

impl Run {
    /// Final variable values.
    pub fn finals(&self) -> &HostRun {
        match self {
            Run::Cm2(r) => &r.finals,
            Run::Mimd(r) => &r.finals,
            Run::Accel(r) => &r.finals,
        }
    }

    /// Sustained GFLOPS over the run.
    pub fn gflops(&self) -> f64 {
        match self {
            Run::Cm2(r) => r.gflops,
            Run::Mimd(r) => r.gflops,
            Run::Accel(r) => r.gflops,
        }
    }

    /// Modelled elapsed time in seconds.
    pub fn elapsed_seconds(&self) -> f64 {
        match self {
            Run::Cm2(r) => r.elapsed_seconds,
            Run::Mimd(r) => r.elapsed_seconds,
            Run::Accel(r) => r.elapsed_seconds,
        }
    }

    /// The CM/2 report, when the session targeted the CM/2.
    pub fn as_cm2(&self) -> Option<&RunReport> {
        match self {
            Run::Cm2(r) => Some(r),
            _ => None,
        }
    }

    /// The MIMD report, when the session targeted the MIMD engine.
    pub fn as_mimd(&self) -> Option<&MimdRunReport> {
        match self {
            Run::Mimd(r) => Some(r),
            _ => None,
        }
    }

    /// The accelerator report, when the session targeted the
    /// accelerator.
    pub fn as_accel(&self) -> Option<&AccelRunReport> {
        match self {
            Run::Accel(r) => Some(r),
            _ => None,
        }
    }

    /// Unwrap the CM/2 report.
    ///
    /// # Panics
    ///
    /// Panics when the session ran on another target.
    pub fn into_cm2(self) -> RunReport {
        match self {
            Run::Cm2(r) => r,
            Run::Mimd(_) => panic!("session ran on Target::Cm5Mimd; use into_mimd()"),
            Run::Accel(_) => panic!("session ran on Target::Accel; use into_accel()"),
        }
    }

    /// Unwrap the MIMD report.
    ///
    /// # Panics
    ///
    /// Panics when the session ran on another target.
    pub fn into_mimd(self) -> MimdRunReport {
        match self {
            Run::Cm2(_) => panic!("session ran on Target::Cm2; use into_cm2()"),
            Run::Mimd(r) => r,
            Run::Accel(_) => panic!("session ran on Target::Accel; use into_accel()"),
        }
    }

    /// Unwrap the accelerator report.
    ///
    /// # Panics
    ///
    /// Panics when the session ran on another target.
    pub fn into_accel(self) -> AccelRunReport {
        match self {
            Run::Cm2(_) => panic!("session ran on Target::Cm2; use into_cm2()"),
            Run::Mimd(_) => panic!("session ran on Target::Cm5Mimd; use into_mimd()"),
            Run::Accel(r) => r,
        }
    }
}

/// One accelerator run's results and accounting.
#[derive(Debug)]
pub struct AccelRunReport {
    /// Sustained GFLOPS over the run.
    pub gflops: f64,
    /// Modelled elapsed time in seconds.
    pub elapsed_seconds: f64,
    /// The device's counters (launches, transfers, per-category
    /// cycles).
    pub stats: f90y_accel::AccelStats,
    /// Final variable values.
    pub finals: HostRun,
}

/// One MIMD run's results and accounting.
#[derive(Debug)]
pub struct MimdRunReport {
    /// Sustained GFLOPS over the run.
    pub gflops: f64,
    /// Modelled elapsed time in seconds.
    pub elapsed_seconds: f64,
    /// The MIMD machine's counters (messages, collectives, per-node
    /// busy time).
    pub stats: f90y_mimd::MimdStats,
    /// Final variable values.
    pub finals: HostRun,
}

/// One run's results and accounting.
#[derive(Debug)]
pub struct RunReport {
    /// Sustained GFLOPS over the run.
    pub gflops: f64,
    /// Modelled elapsed time in seconds.
    pub elapsed_seconds: f64,
    /// Fraction of elapsed time spent on the front end.
    pub host_fraction: f64,
    /// Raw counters.
    pub stats: MachineStats,
    /// Final variable values.
    pub finals: HostRun,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The serving layer (`f90y-serve`) shares one compiled artifact
    /// across worker threads as an `Arc<Executable>`; this compile-time
    /// audit keeps `Executable` — and transitively the NIR, the pass
    /// reports and the compiled program — `Send + Sync`. If any layer
    /// grows interior mutability, this stops building and names it.
    #[test]
    fn executable_is_send_sync_for_artifact_sharing() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Executable>();
        assert_send_sync::<Compiler>();
        assert_send_sync::<CompileError>();
        assert_send_sync::<RunError>();
        assert_send_sync::<Run>();
    }

    #[test]
    fn quickstart_compiles_and_runs() {
        let exe = Compiler::new(Pipeline::F90y)
            .compile("INTEGER K(64,64)\nK = 2*K + 5\n")
            .unwrap();
        let run = exe.session(Target::Cm2 { nodes: 64 }).run().unwrap();
        assert!(run
            .finals()
            .final_array("k")
            .unwrap()
            .iter()
            .all(|&x| x == 5.0));
        assert!(run.gflops() > 0.0);
    }

    #[test]
    fn validate_catches_nothing_on_correct_programs() {
        let exe = Compiler::new(Pipeline::F90y)
            .compile(&workloads::swe_source(16, 2))
            .unwrap();
        exe.validate().unwrap();
    }

    #[test]
    fn all_three_pipelines_agree_on_swe() {
        let src = workloads::swe_source(16, 2);
        let mut finals = Vec::new();
        for p in [Pipeline::F90y, Pipeline::Cmf, Pipeline::StarLisp] {
            let exe = Compiler::new(p).compile(&src).unwrap();
            let run = exe.session(Target::Cm2 { nodes: 16 }).run().unwrap();
            finals.push(run.finals().final_array("p").unwrap().to_vec());
        }
        assert_eq!(finals[0], finals[1]);
        assert_eq!(finals[0], finals[2]);
    }

    #[test]
    fn session_rejects_inconsistent_configurations() {
        let exe = Compiler::new(Pipeline::F90y)
            .compile("REAL A(8)\nA = A + 1.0\n")
            .unwrap();
        // Faults on the SIMD target.
        let err = exe
            .session(Target::Cm2 { nodes: 8 })
            .faults(FaultPlan::seeded(1))
            .run()
            .unwrap_err();
        assert!(matches!(err, RunError::InvalidSession(_)));
        // Non-power-of-two MIMD partition.
        let err = exe.session(Target::Cm5Mimd { nodes: 6 }).run().unwrap_err();
        assert!(matches!(err, RunError::InvalidSession(_)));
        // A fault plan aimed at a node the partition does not have.
        let err = exe
            .session(Target::Cm5Mimd { nodes: 4 })
            .faults(FaultPlan::seeded(1).kill(1, 9))
            .run()
            .unwrap_err();
        assert!(matches!(err, RunError::InvalidSession(_)));
        // A machine of the wrong size.
        let mut cm = Pipeline::F90y.machine(16);
        let err = exe
            .session(Target::Cm2 { nodes: 8 })
            .on_machine(&mut cm)
            .run()
            .unwrap_err();
        assert!(matches!(err, RunError::InvalidSession(_)));
        // Zero host threads.
        let err = exe
            .session(Target::Cm5Mimd { nodes: 8 })
            .host_threads(0)
            .run()
            .unwrap_err();
        assert!(matches!(err, RunError::InvalidSession(_)));
        // A host pool on the single-image SIMD target.
        let err = exe
            .session(Target::Cm2 { nodes: 8 })
            .host_threads(2)
            .run()
            .unwrap_err();
        assert!(matches!(err, RunError::InvalidSession(_)));
    }

    #[test]
    fn accel_sessions_reject_inapplicable_options_with_typed_errors() {
        let exe = Compiler::new(Pipeline::F90y)
            .compile("REAL A(8)\nA = A + 1.0\n")
            .unwrap();
        // Faults are a message-layer concept; the accelerator opts out
        // with a typed error, like the CM/2.
        let err = exe
            .session(Target::Accel { nodes: 8 })
            .faults(FaultPlan::seeded(1))
            .run()
            .unwrap_err();
        let msg = match err {
            RunError::InvalidSession(m) => m,
            other => panic!("expected InvalidSession, got {other:?}"),
        };
        assert!(msg.contains("no message layer"), "{msg}");
        // Host pools and borrowed CM/2s are equally inapplicable.
        let err = exe
            .session(Target::Accel { nodes: 8 })
            .host_threads(4)
            .run()
            .unwrap_err();
        assert!(matches!(err, RunError::InvalidSession(_)));
        let mut cm = Pipeline::F90y.machine(8);
        let err = exe
            .session(Target::Accel { nodes: 8 })
            .on_machine(&mut cm)
            .run()
            .unwrap_err();
        assert!(matches!(err, RunError::InvalidSession(_)));
        // Node counts are checked against the manifest, not a panic.
        let err = exe.session(Target::Accel { nodes: 6 }).run().unwrap_err();
        let msg = match err {
            RunError::InvalidSession(m) => m,
            other => panic!("expected InvalidSession, got {other:?}"),
        };
        assert!(msg.contains("power of two"), "{msg}");
    }

    #[test]
    fn accel_sessions_report_launches_and_transfers() {
        let exe = Compiler::new(Pipeline::F90y)
            .compile("REAL A(32,32), S\nA = A + 3.0\nS = SUM(A)\n")
            .unwrap();
        let cm2 = exe.session(Target::Cm2 { nodes: 16 }).run().unwrap();
        let accel = exe.session(Target::Accel { nodes: 16 }).run().unwrap();
        assert_eq!(
            cm2.finals().final_array("a").unwrap(),
            accel.finals().final_array("a").unwrap()
        );
        let report = accel.into_accel();
        assert!(report.stats.kernel_launches > 0);
        assert!(report.stats.d2h_transfers > 0, "finals cross the bus");
        assert!(report.gflops > 0.0);
    }

    #[test]
    fn host_threads_change_nothing_observable() {
        let exe = Compiler::new(Pipeline::F90y)
            .compile("REAL A(32,32), S\nA = A + 3.0\nA = CSHIFT(A, 1, 1)\nS = SUM(A)\n")
            .unwrap();
        let observe = |threads: usize| {
            let mut tel = Telemetry::new();
            let run = exe
                .session(Target::Cm5Mimd { nodes: 16 })
                .host_threads(threads)
                .telemetry(&mut tel)
                .run()
                .unwrap();
            let finals: Vec<u64> = run
                .finals()
                .final_array("a")
                .unwrap()
                .iter()
                .map(|x| x.to_bits())
                .collect();
            // Spans carry wall-clock nanos, so compare only the
            // deterministic halves of the report.
            let report = tel.report();
            (finals, report.counters, report.gauges)
        };
        let baseline = observe(1);
        assert_eq!(observe(2), baseline);
        assert_eq!(observe(8), baseline);
    }

    #[test]
    fn session_targets_agree_and_faults_keep_finals_identical() {
        let exe = Compiler::new(Pipeline::F90y)
            .compile("REAL A(32,32), S\nA = A + 3.0\nS = SUM(A)\n")
            .unwrap();
        let cm2 = exe.session(Target::Cm2 { nodes: 16 }).run().unwrap();
        let mimd = exe.session(Target::Cm5Mimd { nodes: 16 }).run().unwrap();
        let faulty = exe
            .session(Target::Cm5Mimd { nodes: 16 })
            .faults(
                FaultPlan::seeded(11)
                    .drop_per_mille(50)
                    .duplicate_per_mille(20),
            )
            .run()
            .unwrap();
        let a = cm2.finals().final_array("a").unwrap().to_vec();
        assert_eq!(a, mimd.finals().final_array("a").unwrap());
        assert_eq!(a, faulty.finals().final_array("a").unwrap());
        assert!(faulty.as_mimd().unwrap().stats.faults_injected() > 0);
    }
}
