//! # f90y-peac — Processing Element Assembly Code
//!
//! PEAC is "the programming language designed by the CM Fortran group"
//! for the slicewise CM/2 processing element (paper §2.2): it programs
//! the Weitek WTL3164 as a **four-wide vector processor**, supports
//! overlapping memory access with arithmetic, load chaining (one
//! in-memory operand per arithmetic instruction) and the chained
//! multiply-add.
//!
//! This crate provides:
//!
//! * [`isa`] — the instruction set, register files and routine form, with
//!   a textual rendering matching the paper's Figure 12 listings;
//! * [`validate`] — the assembler-level well-formedness checks (register
//!   ranges, one memory operand per instruction, overlap legality);
//! * [`costs`] — the cycle model, with each constant justified from the
//!   paper or public CM-2 facts;
//! * [`asm`] — the text assembler: Figure 12-style listings parse back
//!   into routines (round-trip stable with [`isa::Routine::listing`]);
//! * [`sim`] — an *executing* simulator: a routine runs its virtual
//!   subgrid loop over real `f64` node memory, producing both numerical
//!   results (for translation validation against the NIR evaluator) and
//!   a deterministic cycle count (for the performance tables);
//! * [`threaded`] — the slab kernel under it: [`CompiledBlock`]
//!   pre-decodes a routine once (cached in the [`Routine`]) and runs it
//!   in place over caller-owned slabs, strip by strip, shared
//!   (`Send + Sync`) across every node and thread of a dispatch;
//! * [`profile`] — the opt-in opcode profiler: per-opcode hit/cycle
//!   histograms whose sums reconcile with the simulator's and the
//!   machine's cycle charges exactly.
//!
//! ## Example
//!
//! ```
//! use f90y_peac::isa::{Instr, Mem, Operand, Routine, VReg};
//! use f90y_peac::sim::{NodeMemory, run_routine};
//!
//! // b = a + 1.0 over an 8-element subgrid.
//! let routine = Routine::new("demo", 2, 0, vec![
//!     Instr::Fimmv { value: 1.0, dst: VReg(1) },
//!     Instr::Flodv { src: Mem::arg(0), dst: VReg(0), overlapped: false },
//!     Instr::Faddv { a: Operand::V(VReg(0)), b: Operand::V(VReg(1)), dst: VReg(2) },
//!     Instr::Fstrv { src: VReg(2), dst: Mem::arg(1), overlapped: false },
//! ])?;
//! let mut mem = NodeMemory::new();
//! let a = mem.alloc(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
//! let b = mem.alloc(&[0.0; 8]);
//! let stats = run_routine(&routine, &mut mem, &[a, b], &[], 8)?;
//! assert_eq!(mem.read(b, 8), vec![2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
//! assert!(stats.cycles > 0);
//! # Ok::<(), f90y_peac::PeacError>(())
//! ```

pub mod asm;
pub mod costs;
pub mod isa;
pub mod profile;
#[cfg(test)]
mod reference;
pub mod sim;
pub mod threaded;
pub mod validate;

pub use asm::parse_listing;
pub use isa::{CmpOp, Instr, Mem, Operand, PReg, Routine, SReg, VReg};
pub use profile::{OpcodeProfile, OpcodeRow};
pub use sim::{run_routine, run_routine_profiled, ExecStats, NodeMemory};
pub use threaded::CompiledBlock;

use std::error::Error;
use std::fmt;

/// Errors from PEAC validation or execution.
#[derive(Debug, Clone, PartialEq)]
pub enum PeacError {
    /// The routine failed assembler-level validation.
    Invalid(String),
    /// A runtime fault in the simulator (bad pointer, missing argument).
    Fault(String),
}

impl fmt::Display for PeacError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PeacError::Invalid(m) => write!(f, "invalid PEAC routine: {m}"),
            PeacError::Fault(m) => write!(f, "PEAC execution fault: {m}"),
        }
    }
}

impl Error for PeacError {}
