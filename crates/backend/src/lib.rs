//! # f90y-backend — the target-specific compilation phase
//!
//! The paper's §5: "The problem of compiling a valid NIR program into
//! code for the CM/2 is broken down into a hierarchy of NIR compilers
//! for different levels of target abstraction."
//!
//! * **CM2/NIR** ([`split`]) — "models the CM/2 host and nodes together
//!   as a single machine, and then partitions input NIR programs into
//!   NIR subprograms for each half … just cuts out the computation
//!   phases and patches the remaining program to include appropriate
//!   NIR calling code."
//! * **PE/NIR** ([`pe`]) — compiles each excised computation block to a
//!   PEAC virtual-subgrid loop: vectorization, chained multiply-add
//!   recognition, load chaining, lifetime-analysis register allocation
//!   with spill placement, and load/store overlap scheduling.
//! * **FE/NIR** ([`tape`], [`fe`]) — compiles the remainder program for
//!   the host: memory allocation, serial loops and scalar code, CM
//!   runtime communication calls, and PEAC dispatch over the IFIFO. (In
//!   this reproduction the "SPARC assembly" half of FE/NIR is a flat,
//!   slot-resolved [`tape::HostTape`] run by one loop with a
//!   per-operation cost model — the documented substitution of
//!   DESIGN.md; the paper itself used "a simple memory-to-memory
//!   load/store model" here.)
//!
//! [`compile`] runs CM2/NIR over an optimized program and lowers the
//! host remainder to its tape; [`fe::HostExecutor`] runs the result on
//! a simulated machine, and [`plan::profile`] runs the same loop over a
//! machine that only counts.
//!
//! ## Example
//!
//! ```
//! use f90y_cm2::{Cm2, Cm2Config};
//!
//! let unit = f90y_frontend::parse("INTEGER K(64,64)\nK = 2*K + 5\n")?;
//! let nir = f90y_lowering::lower(&unit)?;
//! let optimized = f90y_transform::optimize(&nir)?;
//! let compiled = f90y_backend::compile(&optimized)?;
//! assert_eq!(compiled.blocks.len(), 1);
//!
//! let mut cm = Cm2::new(Cm2Config::slicewise(64));
//! let run = f90y_backend::fe::HostExecutor::new(&mut cm).run(&compiled)?;
//! assert!(run.final_array("k")?.iter().all(|&x| x == 5.0));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod count;
pub mod fe;
pub mod machine;
pub mod pe;
pub mod plan;
pub mod split;
pub mod tape;

pub use machine::Machine;

use std::error::Error;
use std::fmt;

use f90y_nir::{Imp, MoveClause, Shape, Value};
use f90y_peac::Routine;

/// Errors from the target-specific phase.
#[derive(Debug, Clone, PartialEq)]
pub enum BackendError {
    /// The program does not have the form the phase expects.
    Malformed(String),
    /// A static error surfaced while partitioning.
    Nir(f90y_nir::NirError),
    /// PEAC assembly failed.
    Peac(f90y_peac::PeacError),
    /// A machine/runtime error at host-execution time.
    Machine(f90y_cm2::Cm2Error),
    /// A dynamic error in host-executed code.
    Host(String),
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::Malformed(m) => write!(f, "malformed input to backend: {m}"),
            BackendError::Nir(e) => write!(f, "{e}"),
            BackendError::Peac(e) => write!(f, "{e}"),
            BackendError::Machine(e) => write!(f, "{e}"),
            BackendError::Host(m) => write!(f, "host execution error: {m}"),
        }
    }
}

impl Error for BackendError {}

impl From<f90y_nir::NirError> for BackendError {
    fn from(e: f90y_nir::NirError) -> Self {
        BackendError::Nir(e)
    }
}

impl From<f90y_peac::PeacError> for BackendError {
    fn from(e: f90y_peac::PeacError) -> Self {
        BackendError::Peac(e)
    }
}

impl From<f90y_cm2::Cm2Error> for BackendError {
    fn from(e: f90y_cm2::Cm2Error) -> Self {
        BackendError::Machine(e)
    }
}

/// How one pointer argument of a node routine is fed at dispatch time.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrayParam {
    /// A load stream over the named CM array.
    Read(String),
    /// A store stream over the named CM array.
    Write(String),
    /// A load stream over the runtime's coordinate subgrid for the given
    /// 1-based axis of the block shape.
    Coord(usize),
}

/// One excised computation block: its source clauses, compiled PEAC
/// routine and dispatch signature.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeBlock {
    /// Block index (the dispatch label).
    pub index: usize,
    /// The resolved parallel shape the block computes over.
    pub shape: Shape,
    /// The grid-local clauses the block came from.
    pub clauses: Vec<MoveClause>,
    /// The compiled PEAC routine.
    pub routine: Routine,
    /// Pointer arguments, in routine order.
    pub array_params: Vec<ArrayParam>,
    /// Scalar arguments: host expressions evaluated per dispatch, in
    /// routine order.
    pub scalar_params: Vec<Value>,
    /// What PE code generation did to this block.
    pub stats: pe::PeStats,
}

impl NodeBlock {
    /// Whether this block can be sharded row-wise across MIMD nodes.
    ///
    /// A block is shardable when it computes a parallel shape of rank
    /// ≥ 1 elementwise: PEAC routines advance every pointer stream one
    /// vector per iteration and have no cross-element addressing, so
    /// any contiguous row-major slice of the element space computes
    /// independently of the rest. All blocks the CM2/NIR splitter
    /// excises have this form (communication is hoisted into separate
    /// `Comm` host statements first); the method exists so a MIMD
    /// runtime can *check* the invariant instead of assuming it.
    pub fn shardable(&self) -> bool {
        !self.shape.extents().is_empty() && !self.routine.body().is_empty()
    }

    /// Extent of the outermost axis — the axis a MIMD runtime shards
    /// the block's element space along (rows of the row-major layout).
    pub fn shard_extent(&self) -> usize {
        self.shape.extents().first().map_or(1, |e| e.len())
    }
}

/// The output of the CM2/NIR compiler: node routines plus the host
/// remainder program.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// Compiled computation blocks.
    pub blocks: Vec<NodeBlock>,
    /// The host remainder program, outer binders included, compiled.
    pub host: tape::HostTape,
}

impl CompiledProgram {
    /// Total PEAC instructions across all blocks (a Figure 12 metric).
    pub fn total_node_instructions(&self) -> usize {
        self.blocks.iter().map(|b| b.routine.len()).sum()
    }

    /// PE code-generation statistics aggregated over all blocks
    /// (counts sum; register pressure takes the maximum).
    pub fn pe_stats(&self) -> pe::PeStats {
        self.blocks
            .iter()
            .fold(pe::PeStats::default(), |acc, b| acc.merge(&b.stats))
    }

    /// Pretty listing of every node routine (Figure 12 style).
    pub fn listings(&self) -> String {
        let mut out = String::new();
        for b in &self.blocks {
            out.push_str(&b.routine.listing());
            out.push('\n');
        }
        out
    }
}

/// Compile an optimized NIR program for the CM/2 (the CM2/NIR phase).
///
/// # Errors
///
/// Fails when the program is not a lowered unit or a computation block
/// cannot be compiled.
pub fn compile(optimized: &Imp) -> Result<CompiledProgram, BackendError> {
    split::split(optimized)
}

/// [`compile`] with explicit PE code-generation switches (used by the
/// baseline compilers).
///
/// # Errors
///
/// As [`compile`].
pub fn compile_with_options(
    optimized: &Imp,
    options: pe::PeOptions,
) -> Result<CompiledProgram, BackendError> {
    split::split_with_options(optimized, options)
}
