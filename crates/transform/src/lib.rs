//! # f90y-transform — NIR source-to-source transformations
//!
//! The paper's NIR optimization stage (§4.2): "The object is to produce
//! programs in which computations over like shapes are blocked as much
//! as possible, forming computation phases sometimes punctuated by
//! communication."
//!
//! The middle end is a [`pass::PassManager`] over named, individually
//! verifiable passes (see [`pass`] for the registry and the
//! verification contract). The default pipeline ([`optimize`],
//! [`default_passes`]) runs:
//!
//! 1. `comm-split` ([`comm_split`]) — hoist communication intrinsics
//!    (`cshift`, `eoshift`) out of computation expressions into moves
//!    to fresh temporaries, separating communication phases from
//!    computation phases (this produces the `tmp0`/`tmp1` temporaries
//!    visible in the paper's Figure 12 NIR excerpt);
//! 2. `comm-cse` ([`comm_cse`]) — deduplicate textually identical
//!    hoisted shifts so repeated shifts of the same array share one
//!    temporary and one communication phase;
//! 3. `mask-pad` ([`mask_pad`]) — pad computations over array
//!    subsections to full-array operations under generated parity
//!    masks, "increasing the pool of sibling computations which could
//!    be implemented in the same computation block" (Fig. 10);
//! 4. `fixpoint(blocking-reorder, blocking-fuse)` ([`blocking`]) —
//!    dependence-respecting code motion that groups computations over
//!    like shapes (Fig. 9), then fusion of adjacent like-shape moves
//!    into multi-clause `MOVE` blocks, iterated to convergence;
//! 5. `dce-temps` ([`dce`]) — delete temporaries the passes above left
//!    dead.
//!
//! Every pass is semantics-preserving; the pass manager can check this
//! *between* passes (type + shape checks and evaluator-equivalence spot
//! checks) when verification is enabled, and the test suite checks
//! evaluator-equivalence on the paper's programs and on random programs.

pub mod blocking;
pub mod comm_cse;
pub mod comm_split;
#[cfg(test)]
mod comm_split_reference;
pub mod dce;
pub mod mask_pad;
pub mod pass;
pub mod program;

use f90y_nir::{Imp, NirError};
use f90y_obs::Telemetry;

pub use pass::{DumpPoint, PassManager, PassOutcome, PassReport, PipelineReport};
pub use program::{ProgramBody, StmtClass};

/// A report of what the pipeline did, for the Fig. 9/Fig. 11 harnesses.
///
/// Since the pass-manager refactor this is a *derived view* over the
/// per-pass [`PassReport`]s (see [`TransformReport::from_pipeline`]);
/// the harness-facing counters keep their historical names.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransformReport {
    /// `MOVE` statements before any transformation.
    pub moves_before: usize,
    /// Communication temporaries introduced.
    pub comm_temps: usize,
    /// Duplicate communication hoists merged by `comm-cse`.
    pub comm_merged: usize,
    /// Section assignments padded to masked full-array moves.
    pub masked_pads: usize,
    /// Adjacent-statement swaps performed by the blocking reorder.
    pub swaps: usize,
    /// Multi-clause computation blocks after fusion.
    pub blocks_after: usize,
    /// Total clauses inside those blocks.
    pub clauses_after: usize,
    /// Dead temporaries deleted by `dce-temps`.
    pub temps_deleted: usize,
    /// `MOVE` statements after the full pipeline.
    pub moves_after: usize,
}

impl TransformReport {
    /// Derive the harness view from a pipeline report: sums over every
    /// run of each pass, except the fusion block/clause counts, which
    /// are absolute and come from the last `blocking-fuse` run.
    #[must_use]
    pub fn from_pipeline(p: &PipelineReport) -> Self {
        let last_fuse = p.last_run_of("blocking-fuse");
        TransformReport {
            moves_before: p.moves_before,
            comm_temps: p.rewrites_of("comm-split"),
            comm_merged: p.rewrites_of("comm-cse"),
            masked_pads: p.rewrites_of("mask-pad"),
            swaps: p.rewrites_of("blocking-reorder"),
            blocks_after: last_fuse.and_then(|r| r.counter("blocks")).unwrap_or(0) as usize,
            clauses_after: last_fuse.and_then(|r| r.counter("clauses")).unwrap_or(0) as usize,
            temps_deleted: p.rewrites_of("dce-temps"),
            moves_after: p.moves_after,
        }
    }
}

/// The full Fortran-90-Y pipeline:
/// `comm-split, comm-cse, mask-pad, fixpoint(blocking-reorder,
/// blocking-fuse), dce-temps`.
#[must_use]
pub fn default_passes() -> PassManager {
    PassManager::from_names(&[
        "comm-split",
        "comm-cse",
        "mask-pad",
        "blocking",
        "dce-temps",
    ])
    .expect("default pass names are registered")
}

/// Per-statement compilation, as the CMF/\*Lisp baselines model it:
/// communication extraction and mask padding, but no deduplication and
/// no blocking — every statement stays its own phase.
#[must_use]
pub fn per_statement_passes() -> PassManager {
    PassManager::from_names(&["comm-split", "mask-pad"])
        .expect("per-statement pass names are registered")
}

/// Run the full optimization pipeline.
///
/// # Errors
///
/// Fails when the program is not a lowered unit (binders then a
/// statement sequence) or on a static error while classifying shapes.
pub fn optimize(imp: &Imp) -> Result<Imp, NirError> {
    Ok(optimize_with_report(imp)?.0)
}

/// Run the pipeline and report what it did.
///
/// # Errors
///
/// As [`optimize`].
pub fn optimize_with_report(imp: &Imp) -> Result<(Imp, TransformReport), NirError> {
    let (out, pipeline) = default_passes().run(imp)?;
    Ok((out, TransformReport::from_pipeline(&pipeline)))
}

/// [`optimize_with_report`] with telemetry: pass spans and `pass.*`
/// counters land in `tel` (see [`PassManager::run_with`]).
///
/// # Errors
///
/// As [`optimize`].
pub fn optimize_with_telemetry(
    imp: &Imp,
    tel: &mut Telemetry,
) -> Result<(Imp, TransformReport), NirError> {
    let (out, pipeline) = default_passes().run_with(imp, tel)?;
    Ok((out, TransformReport::from_pipeline(&pipeline)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use f90y_nir::build::*;
    use f90y_nir::eval::Evaluator;

    /// The Fig. 9 program in NIR. (The figure binds `beta` as a
    /// `serial_interval` shared by the array `alpha` and the `DO`; our
    /// lowering keeps array shapes parallel and gives the `DO` its own
    /// serial domain — same program, transform-friendlier binders.)
    fn fig9_program() -> Imp {
        with_domain(
            "gamma",
            interval(1, 64),
            with_domain(
                "beta",
                interval(1, 64),
                with_domain(
                    "alpha",
                    prod(vec![domain("beta"), domain("gamma")]),
                    with_decl(
                        declset(vec![
                            decl("a", dfield(domain("alpha"), int32())),
                            decl("b", dfield(domain("alpha"), int32())),
                            decl("c", dfield(domain("beta"), int32())),
                        ]),
                        seq(vec![
                            // a = b + local_under(alpha, 2)
                            mv(
                                avar("a", everywhere()),
                                add(ld("b", everywhere()), local_under(domain("alpha"), 2)),
                            ),
                            // DO i over serial 1..64: c(i) = a(i,i)
                            do_over(
                                "i",
                                serial_interval(1, 64),
                                mv(
                                    avar("c", subscript(vec![do_index("i", 1)])),
                                    ld("a", subscript(vec![do_index("i", 1), do_index("i", 1)])),
                                ),
                            ),
                            // b = a
                            mv(avar("b", everywhere()), ld("a", everywhere())),
                        ]),
                    ),
                ),
            ),
        )
    }

    #[test]
    fn fig9_like_domain_moves_are_blocked_past_the_do() {
        // Dependences: the DO writes only 'c' and reads 'a'; the final
        // move writes 'b' and reads 'a'. Reads never conflict, so the DO
        // and the final move commute, letting the two alpha-shape moves
        // form one computation block — exactly the Fig. 9 rewrite.
        let p = fig9_program();
        let (opt, report) = optimize_with_report(&p).unwrap();
        assert!(report.swaps >= 1, "the DO should move past the b=a move");
        assert!(
            report.blocks_after >= 1,
            "the two alpha moves should form one block"
        );
        // The fused block holds both alpha clauses.
        assert_eq!(report.clauses_after, 2);

        // Semantics preserved.
        let mut ev1 = Evaluator::new();
        ev1.run(&p).unwrap();
        let mut ev2 = Evaluator::new();
        ev2.run(&opt).unwrap();
        for name in ["a", "b", "c"] {
            assert_eq!(
                ev1.final_array_f64(name).unwrap(),
                ev2.final_array_f64(name).unwrap(),
                "{name} differs after optimization"
            );
        }
    }

    #[test]
    fn report_counts_are_consistent() {
        let p = fig9_program();
        let (_, report) = optimize_with_report(&p).unwrap();
        assert_eq!(report.moves_before, 3);
        assert!(report.moves_after <= report.moves_before);
    }
}
