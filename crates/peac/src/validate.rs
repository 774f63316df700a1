//! Assembler-level validation of PEAC routines.
//!
//! Rules enforced (all grounded in the paper's machine model):
//!
//! 1. Register indices within the files (`aV0..aV7`, `aS0..aS31`,
//!    `aP0..aP15`).
//! 2. Pointer registers only reference declared pointer arguments;
//!    scalar registers only declared scalar arguments.
//! 3. **Load chaining**: at most one in-memory operand per arithmetic
//!    instruction (paper §5.2: "one in-memory operand to be substituted
//!    for a register operand").
//! 4. **Overlap budget**: at most one overlapped memory access per
//!    arithmetic instruction in the body — memory can hide behind
//!    arithmetic, not behind other memory.
//! 5. No use of a vector register before it is defined in the body
//!    (every live range is loop-internal; cross-iteration values would
//!    break the "single basic block with a single back-edge" model).
//! 6. A pointer is consistently used for loading or for storing, not
//!    both (post-increment streams are single-direction).

use std::collections::{HashMap, HashSet};

use crate::isa::{Instr, Mem, Operand, NUM_PREGS, NUM_SREGS, NUM_VREGS};
use crate::PeacError;

fn check_operand(o: &Operand, nargs_ptr: usize, nargs_scalar: usize) -> Result<(), PeacError> {
    match o {
        Operand::V(r) => {
            if r.0 >= NUM_VREGS {
                return Err(PeacError::Invalid(format!(
                    "vector register {r} out of range (file size {NUM_VREGS})"
                )));
            }
        }
        Operand::S(r) => {
            if r.0 >= NUM_SREGS {
                return Err(PeacError::Invalid(format!(
                    "scalar register {r} out of range (file size {NUM_SREGS})"
                )));
            }
            if (r.0 as usize) >= nargs_scalar {
                return Err(PeacError::Invalid(format!(
                    "scalar register {r} reads beyond the {nargs_scalar} scalar arguments"
                )));
            }
        }
        Operand::M(m) => check_mem(m, nargs_ptr)?,
    }
    Ok(())
}

fn check_mem(m: &Mem, nargs_ptr: usize) -> Result<(), PeacError> {
    if m.ptr.0 >= NUM_PREGS {
        return Err(PeacError::Invalid(format!(
            "pointer register {} out of range (file size {NUM_PREGS})",
            m.ptr
        )));
    }
    if (m.ptr.0 as usize) >= nargs_ptr {
        return Err(PeacError::Invalid(format!(
            "pointer register {} references beyond the {nargs_ptr} pointer arguments",
            m.ptr
        )));
    }
    Ok(())
}

/// Validate a routine body; returns the number of spill slots used.
///
/// # Errors
///
/// Fails with [`PeacError::Invalid`] on any rule violation.
pub fn validate(nargs_ptr: usize, nargs_scalar: usize, body: &[Instr]) -> Result<u16, PeacError> {
    if nargs_ptr > NUM_PREGS as usize {
        return Err(PeacError::Invalid(format!(
            "{nargs_ptr} pointer arguments exceed the pointer file ({NUM_PREGS})"
        )));
    }
    if nargs_scalar > NUM_SREGS as usize {
        return Err(PeacError::Invalid(format!(
            "{nargs_scalar} scalar arguments exceed the scalar file ({NUM_SREGS})"
        )));
    }

    let mut defined: HashSet<u8> = HashSet::new();
    let mut spill_defined: HashSet<u16> = HashSet::new();
    let mut max_slot: u16 = 0;
    let mut arith_count: u64 = 0;
    let mut overlap_count: u64 = 0;
    // Direction per pointer: load/store streams must not mix.
    let mut direction: HashMap<u8, bool> = HashMap::new(); // true = load

    for (ix, i) in body.iter().enumerate() {
        // Memory-operand discipline.
        let mems = i.mem_operands();
        if mems.len() > 1 {
            return Err(PeacError::Invalid(format!(
                "instruction {ix} ('{i}') chains {} memory operands; at most one",
                mems.len()
            )));
        }
        for m in &mems {
            check_mem(m, nargs_ptr)?;
            set_direction(&mut direction, m.ptr.0, true, ix, i)?;
        }
        match i {
            Instr::Flodv { src, dst, .. } => {
                check_mem(src, nargs_ptr)?;
                set_direction(&mut direction, src.ptr.0, true, ix, i)?;
                check_operand(&Operand::V(*dst), nargs_ptr, nargs_scalar)?;
            }
            Instr::Fstrv { src, dst, .. } => {
                check_operand(&Operand::V(*src), nargs_ptr, nargs_scalar)?;
                check_mem(dst, nargs_ptr)?;
                set_direction(&mut direction, dst.ptr.0, false, ix, i)?;
            }
            Instr::SpillStore { slot, .. } => {
                spill_defined.insert(*slot);
                max_slot = max_slot.max(*slot + 1);
            }
            Instr::SpillLoad { slot, .. } => {
                if !spill_defined.contains(slot) {
                    return Err(PeacError::Invalid(format!(
                        "instruction {ix} restores spill slot {slot} before any spill"
                    )));
                }
                max_slot = max_slot.max(*slot + 1);
            }
            other => {
                // Validate operand files via uses/def walk below; here
                // check S-register operands, which `uses` does not cover.
                let _ = other;
            }
        }
        // Generic operand checks for arithmetic forms.
        for o in operand_list(i) {
            check_operand(&o, nargs_ptr, nargs_scalar)?;
        }
        // Use-before-def.
        for u in i.uses() {
            if !defined.contains(&u.0) {
                return Err(PeacError::Invalid(format!(
                    "instruction {ix} ('{i}') reads {u} before it is defined in the body"
                )));
            }
        }
        if let Some(d) = i.def() {
            if d.0 >= NUM_VREGS {
                return Err(PeacError::Invalid(format!(
                    "vector register {d} out of range (file size {NUM_VREGS})"
                )));
            }
            defined.insert(d.0);
        }
        if i.is_arith() {
            arith_count += 1;
        }
        if i.is_overlapped() {
            overlap_count += 1;
        }
    }
    if overlap_count > arith_count {
        return Err(PeacError::Invalid(format!(
            "{overlap_count} overlapped memory accesses but only {arith_count} \
             arithmetic instructions to hide them behind"
        )));
    }
    Ok(max_slot)
}

fn set_direction(
    direction: &mut HashMap<u8, bool>,
    ptr: u8,
    is_load: bool,
    ix: usize,
    i: &Instr,
) -> Result<(), PeacError> {
    match direction.insert(ptr, is_load) {
        Some(prev) if prev != is_load => Err(PeacError::Invalid(format!(
            "instruction {ix} ('{i}') mixes load and store streams on aP{ptr}"
        ))),
        _ => Ok(()),
    }
}

/// The operands of an arithmetic instruction, in assembler order
/// (`fselv`'s mask is a register, not an operand).
pub(crate) fn operand_list(i: &Instr) -> Vec<Operand> {
    use Instr::*;
    match i {
        Faddv { a, b, .. }
        | Fsubv { a, b, .. }
        | Fmulv { a, b, .. }
        | Fdivv { a, b, .. }
        | Fmaxv { a, b, .. }
        | Fminv { a, b, .. }
        | Fcmpv { a, b, .. } => vec![*a, *b],
        Fmaddv { a, b, c, .. } => vec![*a, *b, *c],
        Fselv { a, b, .. } => vec![*a, *b],
        Fnegv { a, .. } | Fabsv { a, .. } | Ftruncv { a, .. } => vec![*a],
        Flib { a, b, .. } => {
            let mut v = vec![*a];
            if let Some(b) = b {
                v.push(*b);
            }
            v
        }
        _ => vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Mem, Operand, Routine, SReg, VReg};

    fn load(p: u8, v: u8) -> Instr {
        Instr::Flodv {
            src: Mem::arg(p),
            dst: VReg(v),
            overlapped: false,
        }
    }

    fn add(a: u8, b: u8, d: u8) -> Instr {
        Instr::Faddv {
            a: Operand::V(VReg(a)),
            b: Operand::V(VReg(b)),
            dst: VReg(d),
        }
    }

    #[test]
    fn valid_routine_assembles() {
        Routine::new(
            "ok",
            2,
            0,
            vec![
                load(0, 0),
                add(0, 0, 1),
                Instr::Fstrv {
                    src: VReg(1),
                    dst: Mem::arg(1),
                    overlapped: false,
                },
            ],
        )
        .unwrap();
    }

    #[test]
    fn use_before_def_is_rejected() {
        let err = Routine::new("bad", 1, 0, vec![add(0, 0, 1)]).unwrap_err();
        assert!(err.to_string().contains("before it is defined"));
    }

    #[test]
    fn double_memory_operand_is_rejected() {
        let err = Routine::new(
            "bad",
            2,
            0,
            vec![Instr::Faddv {
                a: Operand::M(Mem::arg(0)),
                b: Operand::M(Mem::arg(1)),
                dst: VReg(0),
            }],
        )
        .unwrap_err();
        assert!(err.to_string().contains("at most one"));
    }

    #[test]
    fn pointer_beyond_arguments_is_rejected() {
        let err = Routine::new("bad", 1, 0, vec![load(3, 0)]).unwrap_err();
        assert!(err.to_string().contains("beyond the 1 pointer arguments"));
    }

    #[test]
    fn scalar_beyond_arguments_is_rejected() {
        let err = Routine::new(
            "bad",
            1,
            1,
            vec![
                load(0, 0),
                Instr::Fmulv {
                    a: Operand::S(SReg(5)),
                    b: Operand::V(VReg(0)),
                    dst: VReg(1),
                },
            ],
        )
        .unwrap_err();
        assert!(err.to_string().contains("beyond the 1 scalar arguments"));
    }

    #[test]
    fn overlap_budget_is_enforced() {
        // Two overlapped loads but only one arithmetic instruction.
        let err = Routine::new(
            "bad",
            3,
            0,
            vec![
                Instr::Flodv {
                    src: Mem::arg(0),
                    dst: VReg(0),
                    overlapped: true,
                },
                Instr::Flodv {
                    src: Mem::arg(1),
                    dst: VReg(1),
                    overlapped: true,
                },
                add(0, 1, 2),
                Instr::Fstrv {
                    src: VReg(2),
                    dst: Mem::arg(2),
                    overlapped: false,
                },
            ],
        )
        .unwrap_err();
        assert!(err.to_string().contains("hide them behind"));
    }

    #[test]
    fn mixed_direction_pointer_is_rejected() {
        let err = Routine::new(
            "bad",
            1,
            0,
            vec![
                load(0, 0),
                Instr::Fstrv {
                    src: VReg(0),
                    dst: Mem::arg(0),
                    overlapped: false,
                },
            ],
        )
        .unwrap_err();
        assert!(err.to_string().contains("mixes load and store"));
    }

    #[test]
    fn restore_before_spill_is_rejected() {
        let err = Routine::new(
            "bad",
            1,
            0,
            vec![Instr::SpillLoad {
                slot: 0,
                dst: VReg(0),
                overlapped: false,
            }],
        )
        .unwrap_err();
        assert!(err.to_string().contains("before any spill"));
    }

    #[test]
    fn spill_slots_are_counted() {
        let r = Routine::new(
            "s",
            1,
            0,
            vec![
                load(0, 0),
                Instr::SpillStore {
                    src: VReg(0),
                    slot: 3,
                    overlapped: false,
                },
                Instr::SpillLoad {
                    slot: 3,
                    dst: VReg(1),
                    overlapped: false,
                },
            ],
        )
        .unwrap();
        assert_eq!(r.spill_slots(), 4);
    }

    #[test]
    fn vreg_out_of_range_is_rejected() {
        let err = Routine::new("bad", 1, 0, vec![load(0, 9)]).unwrap_err();
        assert!(err.to_string().contains("out of range"));
    }
}
