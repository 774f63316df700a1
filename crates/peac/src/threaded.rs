//! The slab kernel: a routine pre-decoded once, executed in place.
//!
//! [`CompiledBlock::compile`] resolves a body into ops whose operands
//! are *strips*: lanes of a scratch buffer (one per vector register,
//! spill slot and scalar argument) or pointer-argument streams.
//! [`CompiledBlock::run_slabs`] strip-mines the element space: for each
//! chunk of [`CHUNK`] elements every op runs as one tight lanewise loop,
//! so the `match` on the op is paid once per chunk instead of once per
//! `VLEN` elements and the compiler vectorises the loop. It works on
//! caller-owned **slabs** — nothing is staged in or out. Two pointer
//! arguments name either the same slab (one array streamed through a
//! load and a store pointer) or disjoint ones; that is the whole
//! aliasing rule. [`CompiledBlock::run`] adapts the historical flat-heap
//! convention onto it.
//!
//! Results are bit-identical to running the body one element at a time:
//! every op is lanewise (position `j` of the output depends only on
//! position `j` of its operands), the validator forbids reading a
//! register the body has not yet defined (so nothing crosses from one
//! chunk, or one historical `VLEN`-wide iteration, into the next), and
//! each position computes the same IEEE operations in the same order —
//! no `mul_add`, no reassociation. [`ExecStats`] keep the vector
//! machine's formulas (`iterations = ceil(n / VLEN)`).
//!
//! The kernel is immutable and `Send + Sync`; [`Routine::kernel`] builds
//! it on first use and caches it in the routine, so every dispatch, and
//! every worker thread of one, shares the same block.

use crate::costs;
use crate::isa::{CmpOp, Instr, LibOp, Operand, PReg, Routine, VReg, NUM_VREGS, VLEN};
use crate::sim::{ExecStats, NodeMemory, Ptr};
use crate::validate::operand_list;
use crate::PeacError;

/// Elements per strip: 2 KB per lane, so the live lanes of a typical
/// body and its streams stay in L1.
pub const CHUNK: usize = 256;

/// Where a strip of elements lives: a scratch lane (a vector register,
/// spill slot or broadcast scalar) or the stream of a pointer argument.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Loc {
    Lane(usize),
    Arg(usize),
}

/// One instruction with its operands resolved to strips. `dst` is never
/// a lane the op also reads (see [`CompiledBlock::compile`]), so the
/// output strip borrows mutably beside its operands.
#[derive(Debug, Clone)]
struct Op {
    instr: Instr,
    src: Vec<Loc>,
    dst: Loc,
}

/// A routine compiled to the slab kernel: ops pre-decoded, signature,
/// cost constants and phase labels captured.
///
/// `Send + Sync` by construction — build once, execute from many
/// threads (each run owns its scratch lanes; only the read-only op list
/// is shared).
#[derive(Debug, Clone)]
pub struct CompiledBlock {
    name: String,
    dispatch_label: String,
    kernel_label: String,
    nargs_ptr: usize,
    nargs_scalar: usize,
    ops: Vec<Op>,
    /// Scalar argument `s` is broadcast on lane `scalar_base + s`, the
    /// last lanes of the scratch buffer.
    scalar_base: usize,
    body_cycles: u64,
    flops_per_elem: u64,
}

impl CompiledBlock {
    /// Pre-decode `routine`'s body. [`Routine::kernel`] is the cached
    /// form of this.
    #[must_use]
    pub fn compile(routine: &Routine) -> CompiledBlock {
        use Instr::*;
        let body = routine.body();
        // Lanes: the registers, one spare, the spill slots, the scalars.
        let mut lane_of: [usize; NUM_VREGS as usize] = std::array::from_fn(|r| r);
        let mut spare = NUM_VREGS as usize;
        let spill_base = NUM_VREGS as usize + 1;
        let scalar_base = spill_base + routine.spill_slots() as usize;
        let decode = |i: &Instr| {
            let reg = |r: &VReg| Loc::Lane(lane_of[r.0 as usize]);
            let operand = |o: &Operand| match o {
                Operand::V(r) => reg(r),
                Operand::S(r) => Loc::Lane(scalar_base + r.0 as usize),
                Operand::M(m) => Loc::Arg(m.ptr.0 as usize),
            };
            let src: Vec<Loc> = match i {
                Flodv { src, .. } => vec![Loc::Arg(src.ptr.0 as usize)],
                Fstrv { src, .. } | SpillStore { src, .. } => vec![reg(src)],
                SpillLoad { slot, .. } => vec![Loc::Lane(spill_base + *slot as usize)],
                Fselv { mask, a, b, .. } => vec![reg(mask), operand(a), operand(b)],
                other => operand_list(other).iter().map(operand).collect(),
            };
            let dst = match (i, i.def()) {
                // `faddv aV0 aV1 aV0` must not write the strip it is
                // reading: such a definition moves the register onto the
                // spare lane and its old lane becomes the spare. The body
                // is straight-line and defines every register before
                // reading it, so one static assignment serves every chunk.
                (_, Some(VReg(d))) => {
                    let lane = &mut lane_of[d as usize];
                    if src.contains(&Loc::Lane(*lane)) {
                        std::mem::swap(lane, &mut spare);
                    }
                    Loc::Lane(*lane)
                }
                (Fstrv { dst, .. }, None) => Loc::Arg(dst.ptr.0 as usize),
                (SpillStore { slot, .. }, None) => Loc::Lane(spill_base + *slot as usize),
                (other, None) => unreachable!("'{other}' defines a register"),
            };
            Op {
                instr: *i,
                src,
                dst,
            }
        };
        CompiledBlock {
            name: routine.name().to_string(),
            dispatch_label: format!("dispatch.{}", routine.name()),
            kernel_label: format!("kernel.{}", routine.name()),
            nargs_ptr: routine.nargs_ptr(),
            nargs_scalar: routine.nargs_scalar(),
            ops: body.iter().map(decode).collect(),
            scalar_base,
            body_cycles: costs::body_cycles(body),
            flops_per_elem: body.iter().map(Instr::flops_per_elem).sum(),
        }
    }

    /// `dispatch.<name>`: the phase label of a CM dispatch.
    pub fn dispatch_label(&self) -> &str {
        &self.dispatch_label
    }

    /// `kernel.<name>`: the phase label of an accelerator launch.
    pub fn kernel_label(&self) -> &str {
        &self.kernel_label
    }

    /// Cycles of one `VLEN`-wide iteration of the body
    /// ([`costs::body_cycles`]).
    pub fn body_cycles(&self) -> u64 {
        self.body_cycles
    }

    /// Floating-point operations the body performs per element.
    pub fn flops_per_elem(&self) -> u64 {
        self.flops_per_elem
    }

    fn check_arity(&self, ptrs: usize, scalars: usize) -> Result<(), PeacError> {
        for (kind, want, got) in [
            ("pointer", self.nargs_ptr, ptrs),
            ("scalar", self.nargs_scalar, scalars),
        ] {
            if want != got {
                return Err(PeacError::Fault(format!(
                    "routine '{}' expects {want} {kind} arguments, got {got}",
                    self.name
                )));
            }
        }
        Ok(())
    }

    /// Execute the routine in place over the first `n_elems` elements of
    /// the caller's slabs. Pointer argument `p` streams through
    /// `slabs[slab_of_arg[p]]`; arguments that name one array share its
    /// slab.
    ///
    /// # Errors
    ///
    /// Fails — before anything is written — when arguments do not match
    /// the routine signature or a slab is shorter than `n_elems`.
    pub fn run_slabs(
        &self,
        slabs: &mut [&mut [f64]],
        slab_of_arg: &[usize],
        scalar_args: &[f64],
        n_elems: usize,
    ) -> Result<ExecStats, PeacError> {
        self.check_arity(slab_of_arg.len(), scalar_args.len())?;
        for (p, &s) in slab_of_arg.iter().enumerate() {
            let len = slabs.get(s).map_or(0, |slab| slab.len());
            if len < n_elems {
                return Err(PeacError::Fault(format!(
                    "pointer {} ran off its slab ({len} elements, {n_elems} needed)",
                    PReg(p as u8)
                )));
            }
        }
        // Scratch is sized by the work, not by CHUNK: a 16-element shard
        // must not pay for 256-element lanes.
        let width = n_elems.min(CHUNK);
        let mut lanes = vec![0.0f64; (self.scalar_base + self.nargs_scalar) * width];
        for (s, &value) in scalar_args.iter().enumerate() {
            lanes[(self.scalar_base + s) * width..][..width].fill(value);
        }
        for off in (0..n_elems).step_by(CHUNK) {
            let len = width.min(n_elems - off);
            for op in &self.ops {
                exec(op, &mut lanes, width, slabs, slab_of_arg, off, len);
            }
        }
        let iterations = n_elems.div_ceil(VLEN) as u64;
        Ok(ExecStats {
            iterations,
            cycles: iterations * self.body_cycles,
            flops: self.flops_per_elem * n_elems as u64,
            instructions: iterations * self.ops.len() as u64,
        })
    }

    /// Execute over a flat node heap: the historical calling convention,
    /// adapted onto [`CompiledBlock::run_slabs`]. Each distinct base
    /// pointer becomes the slab `heap[base..base + n_elems]`; equal
    /// bases share a slab.
    ///
    /// # Errors
    ///
    /// As [`CompiledBlock::run_slabs`], plus: a stream that runs off the
    /// heap, and streams that overlap without being equal (no machine
    /// produces those, and position-by-position execution could not
    /// honour them).
    pub fn run(
        &self,
        mem: &mut NodeMemory,
        ptr_args: &[Ptr],
        scalar_args: &[f64],
        n_elems: usize,
    ) -> Result<ExecStats, PeacError> {
        self.check_arity(ptr_args.len(), scalar_args.len())?;
        if n_elems == 0 {
            return Ok(ExecStats::default());
        }
        // Visit the arguments in address order, so the heap splits left
        // to right into one `&mut` per distinct base.
        let mut order: Vec<usize> = (0..ptr_args.len()).collect();
        order.sort_by_key(|&p| ptr_args[p]);
        let mut slabs: Vec<&mut [f64]> = Vec::with_capacity(order.len());
        let mut slab_of_arg = vec![0; ptr_args.len()];
        let (mut rest, mut carved) = (mem.heap.as_mut_slice(), 0);
        for (k, &p) in order.iter().enumerate() {
            let base = ptr_args[p];
            if k == 0 || base != ptr_args[order[k - 1]] {
                if base < carved {
                    return Err(PeacError::Fault(format!(
                        "pointer streams {} and {} partially overlap",
                        PReg(order[k - 1] as u8),
                        PReg(p as u8)
                    )));
                }
                let tail = std::mem::take(&mut rest).get_mut(base - carved..);
                let Some((slab, after)) = tail.and_then(|t| t.split_at_mut_checked(n_elems)) else {
                    let reg = PReg(p as u8);
                    return Err(PeacError::Fault(format!("pointer {reg} ran off the heap")));
                };
                slabs.push(slab);
                (rest, carved) = (after, base + n_elems);
            }
            slab_of_arg[p] = slabs.len() - 1;
        }
        self.run_slabs(&mut slabs, &slab_of_arg, scalar_args, n_elems)
    }
}

#[inline(always)]
fn map1(out: &mut [f64], x: &[f64], f: impl Fn(f64) -> f64) {
    for (o, &x) in out.iter_mut().zip(x) {
        *o = f(x);
    }
}

#[inline(always)]
fn map2(out: &mut [f64], x: &[f64], y: &[f64], f: impl Fn(f64, f64) -> f64) {
    for ((o, &x), &y) in out.iter_mut().zip(x).zip(y) {
        *o = f(x, y);
    }
}

#[inline(always)]
fn map3(out: &mut [f64], x: &[f64], y: &[f64], z: &[f64], f: impl Fn(f64, f64, f64) -> f64) {
    for (((o, &x), &y), &z) in out.iter_mut().zip(x).zip(y).zip(z) {
        *o = f(x, y, z);
    }
}

/// One op over one chunk: `len` elements starting at `off` of every
/// stream, lanes `width` apart in the scratch buffer. Each arm is one
/// lanewise loop the compiler can vectorise.
fn exec(
    op: &Op,
    lanes: &mut [f64],
    width: usize,
    slabs: &mut [&mut [f64]],
    slab_of_arg: &[usize],
    off: usize,
    len: usize,
) {
    let out_lane = match (op.dst, &op.src[..]) {
        (Loc::Lane(lane), _) => lane,
        (Loc::Arg(p), &[Loc::Lane(from)]) => {
            let stream = &mut slabs[slab_of_arg[p]][off..off + len];
            return stream.copy_from_slice(&lanes[from * width..][..len]);
        }
        (Loc::Arg(_), _) => unreachable!("only a register store writes a stream"),
    };
    // The output strip, and every other lane beside it.
    let (below, rest) = lanes.split_at_mut(out_lane * width);
    let (out, above) = rest.split_at_mut(width);
    let out = &mut out[..len];
    let strip = |k: usize| match op.src[k] {
        Loc::Arg(p) => &slabs[slab_of_arg[p]][off..off + len],
        Loc::Lane(t) if t < out_lane => &below[t * width..][..len],
        Loc::Lane(t) => &above[(t - out_lane - 1) * width..][..len],
    };
    use Instr::*;
    match op.instr {
        // (`fstrv`, the one op that writes a stream, returned above.)
        Flodv { .. } | Fstrv { .. } | SpillStore { .. } | SpillLoad { .. } => {
            out.copy_from_slice(strip(0));
        }
        Fimmv { value, .. } => out.fill(value),
        Fnegv { .. } => map1(out, strip(0), |p| -p),
        Fabsv { .. } => map1(out, strip(0), f64::abs),
        Ftruncv { .. } => map1(out, strip(0), f64::trunc),
        Flib { op, .. } => match op {
            LibOp::Sqrt => map1(out, strip(0), f64::sqrt),
            LibOp::Sin => map1(out, strip(0), f64::sin),
            LibOp::Cos => map1(out, strip(0), f64::cos),
            LibOp::Exp => map1(out, strip(0), f64::exp),
            LibOp::Log => map1(out, strip(0), f64::ln),
            LibOp::Pow => map2(out, strip(0), strip(1), f64::powf),
        },
        Faddv { .. } => map2(out, strip(0), strip(1), |p, q| p + q),
        Fsubv { .. } => map2(out, strip(0), strip(1), |p, q| p - q),
        Fmulv { .. } => map2(out, strip(0), strip(1), |p, q| p * q),
        Fdivv { .. } => map2(out, strip(0), strip(1), |p, q| p / q),
        Fmaxv { .. } => map2(out, strip(0), strip(1), f64::max),
        Fminv { .. } => map2(out, strip(0), strip(1), f64::min),
        Fcmpv { op, .. } => match op {
            CmpOp::Eq => map2(out, strip(0), strip(1), |p, q| f64::from(p == q)),
            CmpOp::Ne => map2(out, strip(0), strip(1), |p, q| f64::from(p != q)),
            CmpOp::Lt => map2(out, strip(0), strip(1), |p, q| f64::from(p < q)),
            CmpOp::Le => map2(out, strip(0), strip(1), |p, q| f64::from(p <= q)),
            CmpOp::Gt => map2(out, strip(0), strip(1), |p, q| f64::from(p > q)),
            CmpOp::Ge => map2(out, strip(0), strip(1), |p, q| f64::from(p >= q)),
        },
        Fmaddv { .. } => map3(out, strip(0), strip(1), strip(2), |p, q, r| p * q + r),
        Fselv { .. } => map3(out, strip(0), strip(1), strip(2), |m, p, q| {
            if m != 0.0 {
                p
            } else {
                q
            }
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Instr, Mem, Operand, VReg};
    use crate::sim::run_routine;

    fn saxpyish() -> Routine {
        // z = s*x + y, with y as a chained memory operand; streams are
        // single-direction so the output is a distinct pointer.
        Routine::new(
            "t",
            3,
            1,
            vec![
                Instr::Flodv {
                    src: Mem::arg(0),
                    dst: VReg(0),
                    overlapped: false,
                },
                Instr::Fmaddv {
                    a: Operand::S(crate::isa::SReg(0)),
                    b: Operand::V(VReg(0)),
                    c: Operand::M(Mem::arg(1)),
                    dst: VReg(1),
                },
                Instr::Fstrv {
                    src: VReg(1),
                    dst: Mem::arg(2),
                    overlapped: false,
                },
            ],
        )
        .expect("valid test routine")
    }

    #[test]
    fn block_is_send_sync_and_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompiledBlock>();
        assert_send_sync::<Routine>();

        // One block, many threads, disjoint memories: every node must
        // compute the identical bits.
        let block = CompiledBlock::compile(&saxpyish());
        let outputs: Vec<Vec<f64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let block = &block;
                    scope.spawn(move || {
                        let mut mem = NodeMemory::new();
                        let x = mem.alloc(&[1.0, 2.0, 3.0, 4.0]);
                        let y = mem.alloc(&[0.5, 0.5, 0.5, 0.5]);
                        let z = mem.alloc_zeroed(4);
                        block.run(&mut mem, &[x, y, z], &[3.0], 4).unwrap();
                        mem.read(z, 4)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for out in &outputs {
            assert_eq!(out, &vec![3.5, 6.5, 9.5, 12.5]);
        }
    }

    #[test]
    fn stats_match_the_interpreter_formulas() {
        let r = saxpyish();
        let block = CompiledBlock::compile(&r);
        let mut mem = NodeMemory::new();
        let x = mem.alloc(&[0.0; 10]);
        let y = mem.alloc(&[0.0; 10]);
        let z = mem.alloc_zeroed(10);
        let fast = block.run(&mut mem, &[x, y, z], &[1.0], 10).unwrap();

        let mut mem2 = NodeMemory::new();
        let x2 = mem2.alloc(&[0.0; 10]);
        let y2 = mem2.alloc(&[0.0; 10]);
        let z2 = mem2.alloc_zeroed(10);
        let slow = run_routine(&r, &mut mem2, &[x2, y2, z2], &[1.0], 10).unwrap();
        assert_eq!(fast, slow);
        assert_eq!(fast.iterations, 3);
    }

    #[test]
    fn arity_and_bounds_faults_are_preserved() {
        let block = CompiledBlock::compile(&saxpyish());
        let mut mem = NodeMemory::new();
        assert!(block.run(&mut mem, &[], &[1.0], 4).is_err());
        // Pointer past the heap: the stream bounds check must fire.
        let err = block.run(&mut mem, &[1_000_000, 0, 0], &[1.0], 4);
        assert!(matches!(err, Err(PeacError::Fault(m)) if m.contains("ran off the heap")));
    }

    #[test]
    fn a_redefinition_that_reads_its_own_register_moves_to_the_spare_lane() {
        // aV0 = aV0 + aV0, twice: each op reads the lane the register
        // was on and writes the other one.
        let double = Instr::Faddv {
            a: Operand::V(VReg(0)),
            b: Operand::V(VReg(0)),
            dst: VReg(0),
        };
        let r = Routine::new(
            "quad",
            2,
            0,
            vec![
                Instr::Flodv {
                    src: Mem::arg(0),
                    dst: VReg(0),
                    overlapped: false,
                },
                double,
                double,
                Instr::Fstrv {
                    src: VReg(0),
                    dst: Mem::arg(1),
                    overlapped: false,
                },
            ],
        )
        .unwrap();
        let n = 2 * CHUNK + 3;
        let mut x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mut y = vec![0.0; n];
        r.kernel()
            .run_slabs(&mut [&mut x[..], &mut y[..]], &[0, 1], &[], n)
            .unwrap();
        assert!(y.iter().enumerate().all(|(i, &v)| v == 4.0 * i as f64));
    }
}
