//! The slab kernel's oracle (test-only): a scalar evaluator that runs a
//! body one element at a time, straight off the [`Instr`] enum, and the
//! property suite pinning [`CompiledBlock`] to it bit for bit — through
//! the slab entry point and through the [`NodeMemory`] adapter.

use proptest::prelude::*;

use crate::costs::body_cycles;
use crate::isa::{CmpOp, Instr, LibOp, Mem, Operand, Routine, SReg, VReg, NUM_VREGS, VLEN};
use crate::sim::{run_routine, ExecStats, NodeMemory};
use crate::threaded::{CompiledBlock, CHUNK};
use crate::PeacError;

/// Execute `body` for element `j` alone: registers and spill slots are
/// plain scalars, pointer argument `p` reads and writes
/// `slabs[slab_of_arg[p]][j]`.
fn eval_element(
    body: &[Instr],
    slabs: &mut [Vec<f64>],
    slab_of_arg: &[usize],
    scalars: &[f64],
    j: usize,
) {
    let mut v = [0.0f64; NUM_VREGS as usize];
    let mut spill = [0.0f64; 4];
    for i in body {
        let get = |o: &Operand, v: &[f64], slabs: &[Vec<f64>]| match o {
            Operand::V(r) => v[r.0 as usize],
            Operand::S(r) => scalars[r.0 as usize],
            Operand::M(m) => slabs[slab_of_arg[m.ptr.0 as usize]][j],
        };
        use Instr::*;
        let (dst, value) = match i {
            Fstrv { src, dst, .. } => {
                slabs[slab_of_arg[dst.ptr.0 as usize]][j] = v[src.0 as usize];
                continue;
            }
            SpillStore { src, slot, .. } => {
                spill[*slot as usize] = v[src.0 as usize];
                continue;
            }
            Flodv { src, dst, .. } => (dst, slabs[slab_of_arg[src.ptr.0 as usize]][j]),
            SpillLoad { slot, dst, .. } => (dst, spill[*slot as usize]),
            Fimmv { value, dst } => (dst, *value),
            Faddv { a, b, dst } => (dst, get(a, &v, slabs) + get(b, &v, slabs)),
            Fsubv { a, b, dst } => (dst, get(a, &v, slabs) - get(b, &v, slabs)),
            Fmulv { a, b, dst } => (dst, get(a, &v, slabs) * get(b, &v, slabs)),
            Fdivv { a, b, dst } => (dst, get(a, &v, slabs) / get(b, &v, slabs)),
            Fmaxv { a, b, dst } => (dst, get(a, &v, slabs).max(get(b, &v, slabs))),
            Fminv { a, b, dst } => (dst, get(a, &v, slabs).min(get(b, &v, slabs))),
            Fmaddv { a, b, c, dst } => (
                dst,
                get(a, &v, slabs) * get(b, &v, slabs) + get(c, &v, slabs),
            ),
            Fnegv { a, dst } => (dst, -get(a, &v, slabs)),
            Fabsv { a, dst } => (dst, get(a, &v, slabs).abs()),
            Ftruncv { a, dst } => (dst, get(a, &v, slabs).trunc()),
            Fcmpv { op, a, b, dst } => {
                let holds = op.apply(get(a, &v, slabs), get(b, &v, slabs));
                (dst, if holds { 1.0 } else { 0.0 })
            }
            Fselv { mask, a, b, dst } => {
                let (x, y) = (get(a, &v, slabs), get(b, &v, slabs));
                (dst, if v[mask.0 as usize] != 0.0 { x } else { y })
            }
            Flib { op, a, b, dst } => {
                let x = get(a, &v, slabs);
                let y = b.as_ref().map(|b| get(b, &v, slabs));
                let value = match op {
                    LibOp::Sqrt => x.sqrt(),
                    LibOp::Sin => x.sin(),
                    LibOp::Cos => x.cos(),
                    LibOp::Exp => x.exp(),
                    LibOp::Log => x.ln(),
                    LibOp::Pow => x.powf(y.expect("validator guarantees Pow arity")),
                };
                (dst, value)
            }
        };
        v[dst.0 as usize] = value;
    }
}

const SPECIALS: [f64; 7] = [
    0.0,
    -0.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1.5,
    -2.25,
];

/// Pointer arguments 0 and 1 are load streams, 2 and 3 store streams;
/// two scalar arguments.
const NARGS_PTR: usize = 4;

/// A valid body from raw draws: every register is defined before it is
/// read, at most one operand per instruction is chained from memory,
/// spill slots are stored before they are restored, and the last
/// definition is stored so every body has an observable result.
fn body_from(draws: &[(u8, u8, u8, u8, u8)]) -> Vec<Instr> {
    let mut body = vec![Instr::Flodv {
        src: Mem::arg(0),
        dst: VReg(0),
        overlapped: false,
    }];
    let mut defined = vec![0u8];
    let mut spilled: Vec<u16> = Vec::new();
    for &(kind, x, y, z, d) in draws {
        let reg = |pick: u8| VReg(defined[pick as usize % defined.len()]);
        // Operand `pos` of an instruction: position `z % 4` may chain
        // from memory, the others are registers or scalars.
        let operand = |pos: u8, pick: u8| {
            if z % 4 == pos {
                Operand::M(Mem::arg(pick % 2))
            } else if pick.is_multiple_of(3) {
                Operand::S(SReg(pick % 2))
            } else {
                Operand::V(reg(pick))
            }
        };
        let (a, b, c) = (operand(0, x), operand(1, y), operand(2, x ^ y));
        let dst = VReg(d % NUM_VREGS);
        let lib = |op, b| Instr::Flib { op, a, b, dst };
        let instr = match kind % 24 {
            0 => Instr::Flodv {
                src: Mem::arg(x % 2),
                dst,
                overlapped: false,
            },
            1 => Instr::Fstrv {
                src: reg(x),
                dst: Mem::arg(2 + y % 2),
                overlapped: false,
            },
            2 => Instr::Faddv { a, b, dst },
            3 => Instr::Fsubv { a, b, dst },
            4 => Instr::Fmulv { a, b, dst },
            5 => Instr::Fdivv { a, b, dst },
            6 => Instr::Fmaxv { a, b, dst },
            7 => Instr::Fminv { a, b, dst },
            8 => Instr::Fmaddv { a, b, c, dst },
            9 => Instr::Fnegv { a, dst },
            10 => Instr::Fabsv { a, dst },
            11 => Instr::Ftruncv { a, dst },
            12 => Instr::Fcmpv {
                op: [
                    CmpOp::Eq,
                    CmpOp::Ne,
                    CmpOp::Lt,
                    CmpOp::Le,
                    CmpOp::Gt,
                    CmpOp::Ge,
                ][d as usize % 6],
                a,
                b,
                dst,
            },
            13 => Instr::Fselv {
                mask: reg(z),
                a,
                b,
                dst,
            },
            14 => Instr::Fimmv {
                value: SPECIALS[x as usize % SPECIALS.len()],
                dst,
            },
            15 => lib(LibOp::Sqrt, None),
            16 => lib(LibOp::Sin, None),
            17 => lib(LibOp::Cos, None),
            18 => lib(LibOp::Exp, None),
            19 => lib(LibOp::Log, None),
            20 => lib(LibOp::Pow, Some(b)),
            21 | 22 => {
                spilled.push(u16::from(y % 3));
                Instr::SpillStore {
                    src: reg(x),
                    slot: u16::from(y % 3),
                    overlapped: false,
                }
            }
            _ if spilled.is_empty() => Instr::Fimmv { value: 1.0, dst },
            _ => Instr::SpillLoad {
                slot: spilled[x as usize % spilled.len()],
                dst,
                overlapped: false,
            },
        };
        if let Some(VReg(d)) = instr.def() {
            if !defined.contains(&d) {
                defined.push(d);
            }
        }
        body.push(instr);
    }
    body.push(Instr::Fstrv {
        src: VReg(*defined.last().expect("aV0 is defined")),
        dst: Mem::arg(2),
        overlapped: false,
    });
    body
}

/// Which slab each pointer argument streams: all distinct; two load
/// pointers on one array (`&[a, a]`, as the backend's emitter passes
/// them); a store pointer on the array a load pointer reads, either
/// side first in the body; two store pointers on one array.
const SLAB_MAPS: [[usize; NARGS_PTR]; 5] = [
    [0, 1, 2, 3],
    [0, 0, 1, 2],
    [0, 1, 1, 2],
    [0, 1, 0, 2],
    [0, 1, 2, 2],
];

const LENGTHS: [usize; 8] = [
    0,
    1,
    VLEN - 1,
    CHUNK - 1,
    CHUNK,
    CHUNK + 1,
    3 * CHUNK + 7,
    17,
];

/// Memory as bit patterns, with every NaN folded onto one: IEEE leaves
/// the sign and payload of a NaN computed from two NaN operands to the
/// implementation, and the compiler is free to commute a multiply in the
/// vectorised loop and not in the scalar one. Everything else — signed
/// zeros, infinities, which lanes are NaN at all — must match exactly.
fn bits(slabs: &[Vec<f64>]) -> Vec<Vec<u64>> {
    let fold = |x: &f64| if x.is_nan() { f64::NAN } else { *x }.to_bits();
    slabs.iter().map(|s| s.iter().map(fold).collect()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn kernel_is_the_per_element_evaluator_bit_for_bit(
        draws in proptest::collection::vec((0u8..24, 0u8..255, 0u8..255, 0u8..255, 0u8..255), 1..28),
        palette in proptest::collection::vec(-4.0f64..4.0, 9),
        map_pick in 0usize..SLAB_MAPS.len(),
        len_pick in 0usize..LENGTHS.len(),
        scalar_pick in 0usize..SPECIALS.len(),
    ) {
        let routine = Routine::new("r", NARGS_PTR, 2, body_from(&draws))
            .expect("the generator only builds valid bodies");
        let slab_of_arg = SLAB_MAPS[map_pick];
        let n = LENGTHS[len_pick];
        let scalars = [palette[8], SPECIALS[scalar_pick]];
        // Finite values of both signs with every special sprinkled in.
        let init: Vec<Vec<f64>> = (0..NARGS_PTR)
            .map(|s| {
                (0..n)
                    .map(|j| match (j + 3 * s) % 11 {
                        k if k < SPECIALS.len() && j.is_multiple_of(2) => SPECIALS[k],
                        k => palette[(j + s) % 8] * (k as f64 - 4.5),
                    })
                    .collect()
            })
            .collect();

        let mut want = init.clone();
        for j in 0..n {
            eval_element(routine.body(), &mut want, &slab_of_arg, &scalars, j);
        }

        let mut in_place = init.clone();
        let mut slabs: Vec<&mut [f64]> = in_place.iter_mut().map(Vec::as_mut_slice).collect();
        let slab_stats = routine
            .kernel()
            .run_slabs(&mut slabs, &slab_of_arg, &scalars, n)
            .expect("runs");
        prop_assert_eq!(bits(&in_place), bits(&want));

        let mut mem = NodeMemory::new();
        let bases: Vec<usize> = init.iter().map(|s| mem.alloc(s)).collect();
        let ptrs: Vec<usize> = slab_of_arg.iter().map(|&s| bases[s]).collect();
        let heap_stats = run_routine(&routine, &mut mem, &ptrs, &scalars, n).expect("runs");
        let staged: Vec<Vec<f64>> = bases.iter().map(|&b| mem.read(b, n)).collect();
        prop_assert_eq!(bits(&staged), bits(&want));

        let iterations = n.div_ceil(VLEN) as u64;
        prop_assert_eq!(slab_stats, heap_stats);
        prop_assert_eq!(slab_stats, ExecStats {
            iterations,
            cycles: iterations * body_cycles(routine.body()),
            flops: routine.body().iter().map(Instr::flops_per_elem).sum::<u64>() * n as u64,
            instructions: iterations * routine.len() as u64,
        });
    }
}

fn copy_routine() -> Routine {
    Routine::new(
        "copy",
        2,
        0,
        vec![
            Instr::Flodv {
                src: Mem::arg(0),
                dst: VReg(0),
                overlapped: false,
            },
            Instr::Fstrv {
                src: VReg(0),
                dst: Mem::arg(1),
                overlapped: false,
            },
        ],
    )
    .expect("valid")
}

#[test]
fn a_short_slab_faults_before_anything_is_written() {
    let (mut src, mut dst) = (vec![1.0; 8], vec![0.0; 7]);
    let err = copy_routine()
        .kernel()
        .run_slabs(&mut [&mut src[..], &mut dst[..]], &[0, 1], &[], 8)
        .expect_err("the store stream is one element short");
    assert!(matches!(err, PeacError::Fault(m) if m.contains("aP1 ran off its slab")));
    assert_eq!(dst, [0.0; 7]);
    // A slab index with no slab behind it is a short slab too.
    let err = copy_routine()
        .kernel()
        .run_slabs(&mut [&mut src[..]], &[0, 1], &[], 8);
    assert!(matches!(err, Err(PeacError::Fault(m)) if m.contains("ran off its slab")));
}

#[test]
fn partially_overlapping_heap_streams_are_a_typed_fault() {
    let block = CompiledBlock::compile(&copy_routine());
    let mut mem = NodeMemory::new();
    let base = mem.alloc(&[1.0; 16]);
    for ptrs in [[base, base + 2], [base + 7, base]] {
        let err = block.run(&mut mem, &ptrs, &[], 8).expect_err("overlap");
        assert!(matches!(err, PeacError::Fault(m) if m.contains("partially overlap")));
    }
    // Adjacent and equal streams are both fine.
    block.run(&mut mem, &[base, base + 8], &[], 8).unwrap();
    block.run(&mut mem, &[base, base], &[], 8).unwrap();
    assert_eq!(mem.read(base, 16), [1.0; 16]);
}
