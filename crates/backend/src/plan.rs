//! Static machine-call profiling: every runtime call a
//! [`CompiledProgram`] will make, before any machine runs.
//!
//! [`profile`] runs the host tape through the same loop that executes
//! it ([`crate::fe`]), over a machine that keeps geometry and counts
//! calls but holds no data ([`crate::count`]). Literals, loop indices
//! and what folds from them are known; anything read back from the
//! machine is not. The [`StaticProfile`] is what that machine counted,
//! so it reconciles with the counters and flight-recorder events of a
//! real run by construction. Where control flow or call geometry
//! depends on a value only known at run time (an `IF` on a reduction
//! result, a shift distance read from an array) no exact profile
//! exists, and [`PlanError::DataDependent`] names the value — the
//! honest answer, rather than an approximate count.

use std::collections::BTreeSet;
use std::sync::Arc;

use crate::count::Counter;
use crate::fe::{execute, Halt};
use crate::{BackendError, CompiledProgram};

/// One predicted dispatch: which routine launches, with how many
/// arguments, over how many elements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchSite {
    /// The node routine's name (shared by every site of the routine).
    pub routine: Arc<str>,
    /// Array (pointer) arguments, coordinate streams included.
    pub array_args: usize,
    /// Scalar arguments pushed over the IFIFO.
    pub scalar_args: usize,
    /// Elements of the dispatch shape (per-node iteration count scales
    /// with this).
    pub elems: usize,
}

/// One predicted grid shift (`CSHIFT`/`EOSHIFT` runtime call).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShiftSite {
    /// Extents of the shifted array (shared by every site on one array).
    pub dims: Arc<[usize]>,
    /// Zero-based shift axis.
    pub axis: usize,
    /// Shift distance (sign = direction).
    pub shift: i64,
    /// `true` for the end-off variant.
    pub eoshift: bool,
}

/// Every machine call a program will make, counted statically.
///
/// Raw call tallies, deliberately target-neutral: each target prices
/// the same calls differently (the CM/2 counts `comm_calls`, the MIMD
/// engine supersteps and messages, the accelerator bus transfers), so
/// the per-target fold lives with the code that knows those rules.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StaticProfile {
    /// Dispatches, in issue order.
    pub dispatches: Vec<DispatchSite>,
    /// Grid shifts, in issue order.
    pub shifts: Vec<ShiftSite>,
    /// Router (general-permutation) moves: masked/sectioned host moves,
    /// `SPREAD`, `TRANSPOSE`.
    pub router_moves: usize,
    /// Full-array reductions (`SUM`/`MAXVAL`/`MINVAL` runtime calls).
    pub reduces: usize,
    /// Data-carrying device allocations (`alloc_from`): host→machine.
    pub allocs_from: usize,
    /// Whole-array reads (machine→host), scope captures included.
    pub array_reads: usize,
    /// Whole-array writes (host→machine), initializers included.
    pub array_writes: usize,
    /// Single-element reads (host subscript evaluation).
    pub host_elem_reads: usize,
    /// Single-element writes (host subscripted assignment).
    pub host_elem_writes: usize,
    /// Distinct coordinate streams generated (machines cache by
    /// `(dims, lower, axis)`).
    pub coord_keys: BTreeSet<(Vec<usize>, Vec<i64>, usize)>,
    /// Host bookkeeping operations charged.
    pub host_ops: u64,
}

impl StaticProfile {
    /// Total grid-shift calls.
    pub fn shift_calls(&self) -> usize {
        self.shifts.len()
    }

    /// Total dispatch calls.
    pub fn dispatch_calls(&self) -> usize {
        self.dispatches.len()
    }
}

/// Why a static profile could not be computed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// A value that decides control flow or communication geometry is
    /// only known at run time.
    DataDependent(String),
    /// The host program is malformed (a run fails the same way).
    Malformed(String),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::DataDependent(m) => write!(f, "data-dependent: {m}"),
            PlanError::Malformed(m) => write!(f, "malformed host program: {m}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// Compute the static machine-call profile of a compiled program. The
/// walk unrolls every loop, so callers that ask repeatedly keep the
/// answer (`f90y_core::Executable` does).
///
/// # Errors
///
/// [`PlanError::DataDependent`] when a control-flow or communication
/// decision depends on runtime data; [`PlanError::Malformed`] when a
/// run would fail too.
pub fn profile(program: &CompiledProgram) -> Result<StaticProfile, PlanError> {
    let bare = |e| match e {
        BackendError::Host(m) => m,
        other => other.to_string(),
    };
    let mut counter = Counter::default();
    match execute::<_, true>(&mut counter, program) {
        Ok(_) => Ok(counter.finish()),
        Err(Halt::DataDependent(e)) => Err(PlanError::DataDependent(bare(e))),
        Err(Halt::Error(e)) => Err(PlanError::Malformed(bare(e))),
    }
}
