//! # f90y-analysis — dataflow analyses and diagnostics over NIR
//!
//! The paper's §4.2 transformations are legal only "where dependencies
//! allow the code movement". This crate turns the one-off syntactic
//! checks scattered through the middle end into reusable dataflow facts
//! over NIR programs, and builds three clients on top of them:
//!
//! * **[`reaching`]** — forward reaching definitions with an
//!   uninitialised-use bit per variable (def-use chains);
//! * **[`liveness`]** — backward per-variable liveness at section
//!   granularity, reusing [`f90y_nir::deps::Access`] as the lattice
//!   element; its *faint-variable* mode drives `dce-temps`;
//! * **[`mod@lint`]** — a diagnostics engine with stable warning codes
//!   (`W-RACE`, `W-UNINIT`, `W-DEADSTORE`), surfaced as `f90yc --lint`;
//! * **[`audit`]** — a static def-use legality check for middle-end
//!   passes, complementing the evaluator oracle of `--verify-passes`;
//! * **[`comm`]** — the static communication plan: every shift,
//!   broadcast, reduction and all-to-all a program will perform,
//!   classified and priced per target before any machine runs, with
//!   its own lint codes and pass-audit facts.
//!
//! Statements are identified by their pre-order position in one analysed
//! tree (see [`index::StmtIndex`]); all analyses and their facts refer to
//! the same borrowed root.

pub mod audit;
pub mod comm;
pub mod index;
pub mod lint;
pub mod liveness;
pub mod reaching;
#[cfg(test)]
mod reaching_reference;

pub use audit::AuditFacts;
pub use comm::{comm_lints, comm_plan, price, CommFacts, CommKind, CommOp, CommPlan, PricedPlan};
pub use index::StmtIndex;
pub use lint::{lint, lint_with, Diagnostic, LintReport, WarnCode};
pub use liveness::{faint_temps, DeadStore, Liveness};
pub use reaching::{DefId, DefState, ReachingFacts};
