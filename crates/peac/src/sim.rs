//! The executing PEAC simulator.
//!
//! A routine runs its virtual subgrid loop over real node memory: every
//! element is computed, so translation validation can compare the
//! bytes a compiled program produces against the NIR reference
//! evaluator. Cycle accounting comes from [`crate::costs`] and is
//! deterministic.
//!
//! Execution itself lives in [`crate::threaded`]: the body is
//! pre-decoded once per [`Routine`] into a slab kernel that the
//! machines run in place over their own arrays, computing exactly the
//! `n_elems` it is asked for — no buffer is padded to whole vectors.
//! [`NodeMemory`] and [`run_routine`] keep the historical flat-heap API
//! on top of that kernel.

use crate::isa::Routine;
use crate::PeacError;

/// A processing node's local memory: a flat `f64` heap.
#[derive(Debug, Clone, Default)]
pub struct NodeMemory {
    pub(crate) heap: Vec<f64>,
}

/// A base offset into a [`NodeMemory`] heap, as passed over the IFIFO to
/// a PEAC routine.
pub type Ptr = usize;

impl NodeMemory {
    /// An empty node memory.
    pub fn new() -> Self {
        NodeMemory { heap: Vec::new() }
    }

    /// Allocate a buffer initialised from `data`. Returns its base
    /// pointer.
    pub fn alloc(&mut self, data: &[f64]) -> Ptr {
        let base = self.heap.len();
        self.heap.extend_from_slice(data);
        base
    }

    /// Allocate an uninitialised (zeroed) buffer of `n` elements.
    pub fn alloc_zeroed(&mut self, n: usize) -> Ptr {
        let base = self.heap.len();
        self.heap.resize(base + n, 0.0);
        base
    }

    /// Read `n` elements starting at `base`.
    pub fn read(&self, base: Ptr, n: usize) -> Vec<f64> {
        self.heap[base..base + n].to_vec()
    }

    /// Overwrite `n` elements starting at `base`.
    ///
    /// # Panics
    ///
    /// Panics if the region is out of bounds.
    pub fn write(&mut self, base: Ptr, data: &[f64]) {
        self.heap[base..base + data.len()].copy_from_slice(data);
    }

    /// Total words allocated.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when nothing is allocated.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Execution statistics for one routine dispatch on one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecStats {
    /// Virtual subgrid loop iterations executed.
    pub iterations: u64,
    /// Node cycles consumed (deterministic, from the cost model).
    pub cycles: u64,
    /// Floating-point operations over the elements.
    pub flops: u64,
    /// Instructions executed (body length × iterations).
    pub instructions: u64,
}

impl ExecStats {
    /// Accumulate another dispatch's statistics.
    pub fn add(&mut self, other: ExecStats) {
        self.iterations += other.iterations;
        self.cycles += other.cycles;
        self.flops += other.flops;
        self.instructions += other.instructions;
    }
}

/// Execute a routine's virtual subgrid loop over `n_elems` elements.
///
/// `ptr_args` are base pointers (one per pointer argument), `scalar_args`
/// fill the scalar registers. All pointer streams advance one vector per
/// iteration.
///
/// A thin adapter: the routine's cached kernel ([`Routine::kernel`])
/// run over the heap through [`crate::threaded::CompiledBlock::run`].
///
/// # Errors
///
/// Fails when arguments do not match the routine signature, a pointer
/// stream runs off the heap, or two streams partially overlap.
pub fn run_routine(
    routine: &Routine,
    mem: &mut NodeMemory,
    ptr_args: &[Ptr],
    scalar_args: &[f64],
    n_elems: usize,
) -> Result<ExecStats, PeacError> {
    routine.kernel().run(mem, ptr_args, scalar_args, n_elems)
}

/// [`run_routine`] with the opt-in opcode profiler: on success the
/// run's per-opcode hit/cycle histogram is folded into `profile`, whose
/// cycle sum grows by exactly [`ExecStats::cycles`] (the per-iteration
/// loop overhead gets its own [`crate::profile::LOOP_BUCKET`] row).
///
/// # Errors
///
/// As [`run_routine`]; on error nothing is recorded.
pub fn run_routine_profiled(
    routine: &Routine,
    mem: &mut NodeMemory,
    ptr_args: &[Ptr],
    scalar_args: &[f64],
    n_elems: usize,
    profile: &mut crate::profile::OpcodeProfile,
) -> Result<ExecStats, PeacError> {
    let stats = run_routine(routine, mem, ptr_args, scalar_args, n_elems)?;
    profile.record_exec(routine.body(), stats.iterations);
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{CmpOp, Instr, Mem, Operand, SReg, VReg};

    fn routine(nptr: usize, nsc: usize, body: Vec<Instr>) -> Routine {
        Routine::new("t", nptr, nsc, body).expect("valid test routine")
    }

    #[test]
    fn axpy_computes_and_counts() {
        // z = a*x + y over 10 elements (non-multiple of VLEN). The
        // output stream is a distinct pointer: post-increment streams
        // are single-direction, so in-place y would not validate.
        let x: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let y: Vec<f64> = (0..10).map(|i| 100.0 + i as f64).collect();
        let r2 = routine(
            3,
            1,
            vec![
                Instr::Flodv {
                    src: Mem::arg(0),
                    dst: VReg(0),
                    overlapped: false,
                },
                Instr::Flodv {
                    src: Mem::arg(1),
                    dst: VReg(1),
                    overlapped: false,
                },
                Instr::Fmaddv {
                    a: Operand::S(SReg(0)),
                    b: Operand::V(VReg(0)),
                    c: Operand::V(VReg(1)),
                    dst: VReg(2),
                },
                Instr::Fstrv {
                    src: VReg(2),
                    dst: Mem::arg(2),
                    overlapped: false,
                },
            ],
        );
        let mut mem = NodeMemory::new();
        let px = mem.alloc(&x);
        let py = mem.alloc(&y);
        let pz = mem.alloc_zeroed(10);
        let stats = run_routine(&r2, &mut mem, &[px, py, pz], &[2.0], 10).unwrap();
        let z = mem.read(pz, 10);
        for i in 0..10 {
            assert_eq!(z[i], 2.0 * x[i] + y[i], "element {i}");
        }
        assert_eq!(stats.iterations, 3); // ceil(10/4)
        assert_eq!(stats.flops, 2 * 10); // fmadd: 2 flops/element, 10 valid
        assert!(stats.cycles > 0);
    }

    #[test]
    fn chained_memory_operand_loads_inline() {
        // out = in0 - in1 with in1 as a chained memory operand (Fig. 12
        // optimized form: `fsubv aV3 [aP4+0]1++ aV1`).
        let r = routine(
            3,
            0,
            vec![
                Instr::Flodv {
                    src: Mem::arg(0),
                    dst: VReg(3),
                    overlapped: false,
                },
                Instr::Fsubv {
                    a: Operand::V(VReg(3)),
                    b: Operand::M(Mem::arg(1)),
                    dst: VReg(1),
                },
                Instr::Fstrv {
                    src: VReg(1),
                    dst: Mem::arg(2),
                    overlapped: false,
                },
            ],
        );
        let mut mem = NodeMemory::new();
        let a = mem.alloc(&[10.0, 20.0, 30.0, 40.0]);
        let b = mem.alloc(&[1.0, 2.0, 3.0, 4.0]);
        let c = mem.alloc_zeroed(4);
        run_routine(&r, &mut mem, &[a, b, c], &[], 4).unwrap();
        assert_eq!(mem.read(c, 4), vec![9.0, 18.0, 27.0, 36.0]);
    }

    #[test]
    fn masked_select_simulates_conditional_assignment() {
        // The Fig. 10 pattern: B = (coord mod 2 == 0) ? A : 5*A.
        let r = routine(
            3,
            0,
            vec![
                Instr::Flodv {
                    src: Mem::arg(0),
                    dst: VReg(0),
                    overlapped: false,
                }, // coord
                Instr::Flodv {
                    src: Mem::arg(1),
                    dst: VReg(1),
                    overlapped: false,
                }, // A
                Instr::Fimmv {
                    value: 2.0,
                    dst: VReg(2),
                },
                Instr::Fdivv {
                    a: Operand::V(VReg(0)),
                    b: Operand::V(VReg(2)),
                    dst: VReg(3),
                },
                Instr::Ftruncv {
                    a: Operand::V(VReg(3)),
                    dst: VReg(3),
                },
                Instr::Fmulv {
                    a: Operand::V(VReg(3)),
                    b: Operand::V(VReg(2)),
                    dst: VReg(3),
                },
                Instr::Fsubv {
                    a: Operand::V(VReg(0)),
                    b: Operand::V(VReg(3)),
                    dst: VReg(3),
                },
                // mask = (coord mod 2) == 0
                Instr::Fimmv {
                    value: 0.0,
                    dst: VReg(4),
                },
                Instr::Fcmpv {
                    op: CmpOp::Eq,
                    a: Operand::V(VReg(3)),
                    b: Operand::V(VReg(4)),
                    dst: VReg(5),
                },
                Instr::Fimmv {
                    value: 5.0,
                    dst: VReg(6),
                },
                Instr::Fmulv {
                    a: Operand::V(VReg(6)),
                    b: Operand::V(VReg(1)),
                    dst: VReg(6),
                },
                Instr::Fselv {
                    mask: VReg(5),
                    a: Operand::V(VReg(1)),
                    b: Operand::V(VReg(6)),
                    dst: VReg(7),
                },
                Instr::Fstrv {
                    src: VReg(7),
                    dst: Mem::arg(2),
                    overlapped: false,
                },
            ],
        );
        let mut mem = NodeMemory::new();
        let coord = mem.alloc(&[1.0, 2.0, 3.0, 4.0]);
        let a = mem.alloc(&[10.0, 10.0, 10.0, 10.0]);
        let b = mem.alloc_zeroed(4);
        run_routine(&r, &mut mem, &[coord, a, b], &[], 4).unwrap();
        assert_eq!(mem.read(b, 4), vec![50.0, 10.0, 50.0, 10.0]);
    }

    #[test]
    fn spill_roundtrip_preserves_values() {
        let r = routine(
            2,
            0,
            vec![
                Instr::Flodv {
                    src: Mem::arg(0),
                    dst: VReg(0),
                    overlapped: false,
                },
                Instr::SpillStore {
                    src: VReg(0),
                    slot: 0,
                    overlapped: false,
                },
                Instr::Fimmv {
                    value: 0.0,
                    dst: VReg(0),
                },
                Instr::SpillLoad {
                    slot: 0,
                    dst: VReg(1),
                    overlapped: false,
                },
                Instr::Fstrv {
                    src: VReg(1),
                    dst: Mem::arg(1),
                    overlapped: false,
                },
            ],
        );
        let mut mem = NodeMemory::new();
        let a = mem.alloc(&[7.0, 8.0, 9.0, 10.0]);
        let b = mem.alloc_zeroed(4);
        run_routine(&r, &mut mem, &[a, b], &[], 4).unwrap();
        assert_eq!(mem.read(b, 4), vec![7.0, 8.0, 9.0, 10.0]);
    }

    #[test]
    fn wrong_arity_faults() {
        let r = routine(
            1,
            0,
            vec![Instr::Flodv {
                src: Mem::arg(0),
                dst: VReg(0),
                overlapped: false,
            }],
        );
        let mut mem = NodeMemory::new();
        assert!(run_routine(&r, &mut mem, &[], &[], 4).is_err());
        assert!(run_routine(&r, &mut mem, &[0], &[1.0], 4).is_err());
    }

    #[test]
    fn zero_elements_runs_no_iterations() {
        let r = routine(
            1,
            0,
            vec![Instr::Flodv {
                src: Mem::arg(0),
                dst: VReg(0),
                overlapped: false,
            }],
        );
        let mut mem = NodeMemory::new();
        let a = mem.alloc(&[1.0; 4]);
        let stats = run_routine(&r, &mut mem, &[a], &[], 0).unwrap();
        assert_eq!(stats.iterations, 0);
        assert_eq!(stats.cycles, 0);
    }
}
