//! The PEAC instruction set, register files and routine form.
//!
//! The textual rendering ([`Routine::listing`]) follows the paper's
//! Figure 12: `flodv [aP7+0]1++ aV3`, `fsubv aV3 [aP4+0]1++ aV1`,
//! `fmulv aS28 aV1 aV3`, closing with `jnz ac2 <label>`. Instructions
//! that the scheduler has overlapped with memory traffic are rendered on
//! a shared line with a trailing comma, as in the optimized listing of
//! Figure 12 (`fsubv aV3 aV4 aV1, flodv [aP5+0]1++ aV2`).

use std::fmt;
use std::sync::OnceLock;

use crate::threaded::CompiledBlock;
use crate::PeacError;

/// Number of lanes of a PEAC vector register (the Weitek programmed
/// four-wide, paper §2.2).
pub const VLEN: usize = 4;

/// Number of vector registers. The WTL3164 exposes 32 64-bit registers;
/// grouped four-wide that is 8 vector registers — scarce enough that
/// "vector registers tend to be the limiting resource" (paper §5.2).
pub const NUM_VREGS: u8 = 8;

/// Number of scalar (broadcast) registers.
pub const NUM_SREGS: u8 = 32;

/// Number of pointer registers.
pub const NUM_PREGS: u8 = 16;

/// A vector register `aVn`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VReg(pub u8);

/// A scalar register `aSn` holding one broadcast `f64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SReg(pub u8);

/// A pointer register `aPn`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PReg(pub u8);

impl fmt::Display for VReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "aV{}", self.0)
    }
}

impl fmt::Display for SReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "aS{}", self.0)
    }
}

impl fmt::Display for PReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "aP{}", self.0)
    }
}

/// A post-incrementing memory reference `[aPn+0]1++`: the pointer
/// advances by one vector (VLEN elements) per loop iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mem {
    /// The pointer register.
    pub ptr: PReg,
}

impl Mem {
    /// The memory reference through argument pointer `n` (arguments are
    /// loaded into `aP0..` by the dispatch prologue).
    pub fn arg(n: u8) -> Mem {
        Mem { ptr: PReg(n) }
    }
}

impl fmt::Display for Mem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}+0]1++", self.ptr)
    }
}

/// An arithmetic operand: a vector register, a broadcast scalar
/// register, or (via load chaining) one in-memory operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Vector register.
    V(VReg),
    /// Broadcast scalar register.
    S(SReg),
    /// Chained in-memory operand (at most one per instruction).
    M(Mem),
}

impl Operand {
    /// `true` for the chained-memory form.
    pub fn is_mem(&self) -> bool {
        matches!(self, Operand::M(_))
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::V(r) => write!(f, "{r}"),
            Operand::S(r) => write!(f, "{r}"),
            Operand::M(m) => write!(f, "{m}"),
        }
    }
}

/// Comparison predicates for `fcmpv` (result lanes are 1.0/0.0 masks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater or equal.
    Ge,
}

impl CmpOp {
    /// Evaluate the predicate.
    pub fn apply(self, a: f64, b: f64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
        };
        f.write_str(s)
    }
}

/// Vector library operations (transcendentals and friends) implemented
/// by the PE runtime rather than a Weitek opcode; costed accordingly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LibOp {
    /// Square root.
    Sqrt,
    /// Sine.
    Sin,
    /// Cosine.
    Cos,
    /// Natural exponential.
    Exp,
    /// Natural logarithm.
    Log,
    /// General power `a ** b`.
    Pow,
}

impl fmt::Display for LibOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LibOp::Sqrt => "fsqrtv",
            LibOp::Sin => "fsinv",
            LibOp::Cos => "fcosv",
            LibOp::Exp => "fexpv",
            LibOp::Log => "flogv",
            LibOp::Pow => "fpowv",
        };
        f.write_str(s)
    }
}

/// One PEAC instruction of the virtual subgrid loop body.
///
/// The `overlapped` flag on memory instructions records the scheduler's
/// decision to hide the access behind arithmetic ("wherever possible,
/// loads and stores of data have been … overlapped with unrelated
/// computations", paper §6); the validator bounds how many accesses can
/// hide behind the available arithmetic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Instr {
    /// Vector load `flodv [aP+0]1++ aV`.
    Flodv {
        /// Source memory reference.
        src: Mem,
        /// Destination register.
        dst: VReg,
        /// Hidden behind arithmetic by the scheduler.
        overlapped: bool,
    },
    /// Vector store `fstrv aV [aP+0]1++`.
    Fstrv {
        /// Source register.
        src: VReg,
        /// Destination memory reference.
        dst: Mem,
        /// Hidden behind arithmetic by the scheduler.
        overlapped: bool,
    },
    /// `faddv a b dst`.
    Faddv {
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
        /// Destination register.
        dst: VReg,
    },
    /// `fsubv a b dst`.
    Fsubv {
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
        /// Destination register.
        dst: VReg,
    },
    /// `fmulv a b dst`.
    Fmulv {
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
        /// Destination register.
        dst: VReg,
    },
    /// `fdivv a b dst` (expensive on the Weitek).
    Fdivv {
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
        /// Destination register.
        dst: VReg,
    },
    /// `fmaxv a b dst`.
    Fmaxv {
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
        /// Destination register.
        dst: VReg,
    },
    /// `fminv a b dst`.
    Fminv {
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
        /// Destination register.
        dst: VReg,
    },
    /// Chained multiply-add `fmaddv a b c dst`: `dst = a*b + c` in one
    /// instruction (paper §2.2: "supports the Weitek chained
    /// multiply-add instruction").
    Fmaddv {
        /// Multiplicand.
        a: Operand,
        /// Multiplier.
        b: Operand,
        /// Addend.
        c: Operand,
        /// Destination register.
        dst: VReg,
    },
    /// Negate `fnegv a dst`.
    Fnegv {
        /// Operand.
        a: Operand,
        /// Destination register.
        dst: VReg,
    },
    /// Absolute value `fabsv a dst`.
    Fabsv {
        /// Operand.
        a: Operand,
        /// Destination register.
        dst: VReg,
    },
    /// Truncate toward zero `ftruncv a dst` (integer semantics on the
    /// float datapath).
    Ftruncv {
        /// Operand.
        a: Operand,
        /// Destination register.
        dst: VReg,
    },
    /// Compare `fcmpv.<op> a b dst`: lanes become 1.0 where the
    /// predicate holds, else 0.0.
    Fcmpv {
        /// Predicate.
        op: CmpOp,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
        /// Destination mask register.
        dst: VReg,
    },
    /// Masked select `fselv mask a b dst`: per lane,
    /// `dst = mask != 0 ? a : b` — "the programmer must use masked moves
    /// to simulate conditional assignment" (paper §2.2).
    Fselv {
        /// Mask register (1.0/0.0 lanes).
        mask: VReg,
        /// Value where the mask holds.
        a: Operand,
        /// Value where it does not.
        b: Operand,
        /// Destination register.
        dst: VReg,
    },
    /// Broadcast immediate `fimmv value dst`.
    Fimmv {
        /// The immediate.
        value: f64,
        /// Destination register.
        dst: VReg,
    },
    /// A vector library call (transcendental / general power).
    Flib {
        /// Which routine.
        op: LibOp,
        /// First operand.
        a: Operand,
        /// Second operand (`Pow` only).
        b: Option<Operand>,
        /// Destination register.
        dst: VReg,
    },
    /// Spill a vector register to the spill area (half of the paper's
    /// 18-cycle spill/restore pair).
    SpillStore {
        /// Register to spill.
        src: VReg,
        /// Spill slot index.
        slot: u16,
        /// Hidden behind arithmetic by the scheduler.
        overlapped: bool,
    },
    /// Restore a vector register from the spill area.
    SpillLoad {
        /// Spill slot index.
        slot: u16,
        /// Destination register.
        dst: VReg,
        /// Hidden behind arithmetic by the scheduler.
        overlapped: bool,
    },
}

impl Instr {
    /// The assembler mnemonic, as in [`Routine::listing`] — the bucket
    /// key for opcode-level profiling (see [`crate::profile`]). Spill
    /// traffic gets its own `.spill` buckets because the cost model
    /// prices it differently from ordinary loads and stores.
    pub fn mnemonic(&self) -> &'static str {
        use Instr::*;
        match self {
            Flodv { .. } => "flodv",
            Fstrv { .. } => "fstrv",
            Faddv { .. } => "faddv",
            Fsubv { .. } => "fsubv",
            Fmulv { .. } => "fmulv",
            Fdivv { .. } => "fdivv",
            Fmaxv { .. } => "fmaxv",
            Fminv { .. } => "fminv",
            Fmaddv { .. } => "fmaddv",
            Fnegv { .. } => "fnegv",
            Fabsv { .. } => "fabsv",
            Ftruncv { .. } => "ftruncv",
            Fcmpv { .. } => "fcmpv",
            Fselv { .. } => "fselv",
            Fimmv { .. } => "fimmv",
            Flib { op, .. } => match op {
                LibOp::Sqrt => "fsqrtv",
                LibOp::Sin => "fsinv",
                LibOp::Cos => "fcosv",
                LibOp::Exp => "fexpv",
                LibOp::Log => "flogv",
                LibOp::Pow => "fpowv",
            },
            SpillStore { .. } => "fstrv.spill",
            SpillLoad { .. } => "flodv.spill",
        }
    }

    /// The register this instruction defines, if any.
    pub fn def(&self) -> Option<VReg> {
        use Instr::*;
        match self {
            Flodv { dst, .. }
            | Faddv { dst, .. }
            | Fsubv { dst, .. }
            | Fmulv { dst, .. }
            | Fdivv { dst, .. }
            | Fmaxv { dst, .. }
            | Fminv { dst, .. }
            | Fmaddv { dst, .. }
            | Fnegv { dst, .. }
            | Fabsv { dst, .. }
            | Ftruncv { dst, .. }
            | Fcmpv { dst, .. }
            | Fselv { dst, .. }
            | Fimmv { dst, .. }
            | Flib { dst, .. }
            | SpillLoad { dst, .. } => Some(*dst),
            Fstrv { .. } | SpillStore { .. } => None,
        }
    }

    /// The vector registers this instruction reads.
    pub fn uses(&self) -> Vec<VReg> {
        use Instr::*;
        let mut out = Vec::new();
        let mut op = |o: &Operand| {
            if let Operand::V(r) = o {
                out.push(*r);
            }
        };
        match self {
            Faddv { a, b, .. }
            | Fsubv { a, b, .. }
            | Fmulv { a, b, .. }
            | Fdivv { a, b, .. }
            | Fmaxv { a, b, .. }
            | Fminv { a, b, .. }
            | Fcmpv { a, b, .. } => {
                op(a);
                op(b);
            }
            Fmaddv { a, b, c, .. } => {
                op(a);
                op(b);
                op(c);
            }
            Fselv { mask, a, b, .. } => {
                op(&Operand::V(*mask));
                op(a);
                op(b);
            }
            Fnegv { a, .. } | Fabsv { a, .. } | Ftruncv { a, .. } => op(a),
            Flib { a, b, .. } => {
                op(a);
                if let Some(b) = b {
                    op(b);
                }
            }
            Fstrv { src, .. } | SpillStore { src, .. } => op(&Operand::V(*src)),
            Flodv { .. } | Fimmv { .. } | SpillLoad { .. } => {}
        }
        let _ = op;
        out
    }

    /// The chained-memory operands of the instruction.
    pub fn mem_operands(&self) -> Vec<Mem> {
        use Instr::*;
        let mut out = Vec::new();
        let mut op = |o: &Operand| {
            if let Operand::M(m) = o {
                out.push(*m);
            }
        };
        match self {
            Faddv { a, b, .. }
            | Fsubv { a, b, .. }
            | Fmulv { a, b, .. }
            | Fdivv { a, b, .. }
            | Fmaxv { a, b, .. }
            | Fminv { a, b, .. }
            | Fcmpv { a, b, .. } => {
                op(a);
                op(b);
            }
            Fmaddv { a, b, c, .. } => {
                op(a);
                op(b);
                op(c);
            }
            Fselv { a, b, .. } => {
                op(a);
                op(b);
            }
            Fnegv { a, .. } | Fabsv { a, .. } | Ftruncv { a, .. } => op(a),
            Flib { a, b, .. } => {
                op(a);
                if let Some(b) = b {
                    op(b);
                }
            }
            Flodv { .. } | Fstrv { .. } | Fimmv { .. } | SpillStore { .. } | SpillLoad { .. } => {}
        }
        out
    }

    /// `true` for pure-arithmetic instructions (which memory traffic can
    /// hide behind).
    pub fn is_arith(&self) -> bool {
        !matches!(
            self,
            Instr::Flodv { .. }
                | Instr::Fstrv { .. }
                | Instr::SpillStore { .. }
                | Instr::SpillLoad { .. }
                | Instr::Fimmv { .. }
        )
    }

    /// `true` when the scheduler marked this memory access overlapped.
    pub fn is_overlapped(&self) -> bool {
        matches!(
            self,
            Instr::Flodv {
                overlapped: true,
                ..
            } | Instr::Fstrv {
                overlapped: true,
                ..
            } | Instr::SpillStore {
                overlapped: true,
                ..
            } | Instr::SpillLoad {
                overlapped: true,
                ..
            }
        )
    }

    /// Floating-point operations per *element* this instruction
    /// contributes (peak-rate accounting; comparisons, selects, moves
    /// and converts count zero).
    pub fn flops_per_elem(&self) -> u64 {
        use Instr::*;
        match self {
            Faddv { .. }
            | Fsubv { .. }
            | Fmulv { .. }
            | Fdivv { .. }
            | Fmaxv { .. }
            | Fminv { .. }
            | Fnegv { .. }
            | Fabsv { .. } => 1,
            Fmaddv { .. } => 2,
            Flib { .. } => 1,
            _ => 0,
        }
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Instr::*;
        match self {
            Flodv { src, dst, .. } => write!(f, "flodv {src} {dst}"),
            Fstrv { src, dst, .. } => write!(f, "fstrv {src} {dst}"),
            Faddv { a, b, dst } => write!(f, "faddv {a} {b} {dst}"),
            Fsubv { a, b, dst } => write!(f, "fsubv {a} {b} {dst}"),
            Fmulv { a, b, dst } => write!(f, "fmulv {a} {b} {dst}"),
            Fdivv { a, b, dst } => write!(f, "fdivv {a} {b} {dst}"),
            Fmaxv { a, b, dst } => write!(f, "fmaxv {a} {b} {dst}"),
            Fminv { a, b, dst } => write!(f, "fminv {a} {b} {dst}"),
            Fmaddv { a, b, c, dst } => write!(f, "fmaddv {a} {b} {c} {dst}"),
            Fnegv { a, dst } => write!(f, "fnegv {a} {dst}"),
            Fabsv { a, dst } => write!(f, "fabsv {a} {dst}"),
            Ftruncv { a, dst } => write!(f, "ftruncv {a} {dst}"),
            Fcmpv { op, a, b, dst } => write!(f, "fcmpv.{op} {a} {b} {dst}"),
            Fselv { mask, a, b, dst } => write!(f, "fselv {mask} {a} {b} {dst}"),
            Fimmv { value, dst } => write!(f, "fimmv {value} {dst}"),
            Flib { op, a, b, dst } => match b {
                Some(b) => write!(f, "{op} {a} {b} {dst}"),
                None => write!(f, "{op} {a} {dst}"),
            },
            SpillStore { src, slot, .. } => write!(f, "fstrv {src} [spill+{slot}]"),
            SpillLoad { slot, dst, .. } => write!(f, "flodv [spill+{slot}] {dst}"),
        }
    }
}

/// A PEAC routine: one virtual subgrid loop (a single basic block with a
/// single back-edge, paper §5.2), plus its argument signature.
#[derive(Debug, Clone, PartialEq)]
pub struct Routine {
    name: String,
    nargs_ptr: usize,
    nargs_scalar: usize,
    body: Vec<Instr>,
    spill_slots: u16,
    kernel: KernelCache,
}

/// The routine's slab kernel, built on first dispatch. A pure function
/// of the other fields, so it takes no part in equality.
#[derive(Debug, Clone, Default)]
struct KernelCache(OnceLock<CompiledBlock>);

impl PartialEq for KernelCache {
    fn eq(&self, _: &KernelCache) -> bool {
        true
    }
}

impl Routine {
    /// Assemble a routine, running the validator.
    ///
    /// # Errors
    ///
    /// Fails when the body violates the assembler rules (register
    /// ranges, chained-memory limits, overlap budget, use of undefined
    /// registers).
    pub fn new(
        name: &str,
        nargs_ptr: usize,
        nargs_scalar: usize,
        body: Vec<Instr>,
    ) -> Result<Routine, PeacError> {
        let spill_slots = crate::validate::validate(nargs_ptr, nargs_scalar, &body)?;
        Ok(Routine {
            name: name.to_string(),
            nargs_ptr,
            nargs_scalar,
            body,
            spill_slots,
            kernel: KernelCache::default(),
        })
    }

    /// The routine compiled for execution (see [`crate::threaded`]):
    /// built once, on first use, and shared by every later dispatch and
    /// every thread that holds this routine.
    pub fn kernel(&self) -> &CompiledBlock {
        self.kernel.0.get_or_init(|| CompiledBlock::compile(self))
    }

    /// The routine's name (the dispatch label).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of pointer (array) arguments.
    pub fn nargs_ptr(&self) -> usize {
        self.nargs_ptr
    }

    /// Number of broadcast scalar arguments.
    pub fn nargs_scalar(&self) -> usize {
        self.nargs_scalar
    }

    /// The loop body.
    pub fn body(&self) -> &[Instr] {
        &self.body
    }

    /// Number of spill slots the routine uses.
    pub fn spill_slots(&self) -> u16 {
        self.spill_slots
    }

    /// Number of instructions in the loop body (the Figure 12 metric).
    pub fn len(&self) -> usize {
        self.body.len()
    }

    /// `true` when the body is empty.
    pub fn is_empty(&self) -> bool {
        self.body.is_empty()
    }

    /// Render the routine as a Figure 12 style listing. Overlapped
    /// memory instructions share the line of the instruction they issue
    /// alongside (the preceding one in body order), mirroring the
    /// figure's `fsubv aV3 aV4 aV1, flodv [aP5+0]1++ aV2` form. The text
    /// is stable under [`crate::asm::parse_listing`].
    pub fn listing(&self) -> String {
        let mut lines: Vec<String> = Vec::new();
        for i in &self.body {
            if i.is_overlapped() {
                if let Some(last) = lines.last_mut() {
                    last.push_str(&format!(", {i}"));
                    continue;
                }
            }
            lines.push(format!("    {i}"));
        }
        let mut out = format!("{}_\n", self.name);
        for l in lines {
            out.push_str(&l);
            out.push('\n');
        }
        out.push_str(&format!("    jnz ac2 {}_\n", self.name));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_fig12_syntax() {
        let i = Instr::Flodv {
            src: Mem::arg(7),
            dst: VReg(3),
            overlapped: false,
        };
        assert_eq!(i.to_string(), "flodv [aP7+0]1++ aV3");
        let i = Instr::Fsubv {
            a: Operand::V(VReg(3)),
            b: Operand::M(Mem::arg(4)),
            dst: VReg(1),
        };
        assert_eq!(i.to_string(), "fsubv aV3 [aP4+0]1++ aV1");
        let i = Instr::Fmulv {
            a: Operand::S(SReg(28)),
            b: Operand::V(VReg(1)),
            dst: VReg(3),
        };
        assert_eq!(i.to_string(), "fmulv aS28 aV1 aV3");
    }

    #[test]
    fn def_use_sets() {
        let i = Instr::Fmaddv {
            a: Operand::V(VReg(1)),
            b: Operand::S(SReg(0)),
            c: Operand::V(VReg(2)),
            dst: VReg(3),
        };
        assert_eq!(i.def(), Some(VReg(3)));
        assert_eq!(i.uses(), vec![VReg(1), VReg(2)]);
        assert_eq!(i.flops_per_elem(), 2);
    }

    #[test]
    fn listing_groups_overlapped_instructions() {
        let r = Routine::new(
            "Pk51vs1",
            3,
            0,
            vec![
                Instr::Flodv {
                    src: Mem::arg(0),
                    dst: VReg(0),
                    overlapped: false,
                },
                Instr::Flodv {
                    src: Mem::arg(1),
                    dst: VReg(1),
                    overlapped: true,
                },
                Instr::Faddv {
                    a: Operand::V(VReg(0)),
                    b: Operand::V(VReg(0)),
                    dst: VReg(2),
                },
                Instr::Fstrv {
                    src: VReg(2),
                    dst: Mem::arg(2),
                    overlapped: false,
                },
            ],
        )
        .unwrap();
        let text = r.listing();
        assert!(text.starts_with("Pk51vs1_\n"));
        // The overlapped load shares the line of its predecessor.
        assert!(
            text.contains("flodv [aP0+0]1++ aV0, flodv [aP1+0]1++ aV1"),
            "{text}"
        );
        assert!(text.trim_end().ends_with("jnz ac2 Pk51vs1_"));
    }
}
