//! The contiguous MIMD array store: every array is one row-major buffer
//! and node `k` owns the range `ShardMap::elems(k, inner)` of it. The
//! ranges must tile the buffer for any geometry; lending them to host
//! workers must be unobservable; and a killed superstep must come back
//! from its checkpoint bit for bit.

use proptest::prelude::*;

use f90y_backend::Machine;
use f90y_cm2::ReduceOp;
use f90y_mimd::pool::PAR_MIN_ELEMS;
use f90y_mimd::shard::ShardMap;
use f90y_mimd::{FaultPlan, MimdConfig, MimdId, MimdMachine};
use f90y_peac::isa::{Instr, Mem, Operand, VReg};
use f90y_peac::Routine;

proptest! {
    /// Node ranges tile `0..rows·inner` in node order, with the row
    /// counts the map reports — more nodes than rows (so zero-row nodes)
    /// and empty arrays included — and `split_mut` carves exactly them.
    #[test]
    fn node_ranges_tile_the_buffer(rows in 0usize..40, inner in 0usize..7, nodes in 1usize..70) {
        let map = ShardMap::new(rows, nodes);
        let mut covered = 0;
        for k in 0..nodes {
            let range = map.elems(k, inner);
            prop_assert_eq!(range.start, covered, "node {}'s range starts where {}'s ended", k, k.wrapping_sub(1));
            prop_assert_eq!(range.len(), map.rows_of(k) * inner);
            covered = range.end;
        }
        prop_assert_eq!(covered, rows * inner);

        let mut buffer: Vec<f64> = (0..rows * inner).map(|i| i as f64).collect();
        let slabs = map.split_mut(inner, &mut buffer);
        prop_assert_eq!(slabs.len(), nodes);
        for (k, slab) in slabs.iter().enumerate() {
            let range = map.elems(k, inner);
            prop_assert_eq!(slab.len(), range.len());
            prop_assert!(slab.first().is_none_or(|&x| x == range.start as f64));
        }
    }
}

/// `b = a*a + 1`: enough arithmetic that a wrong slab shows.
fn square_plus_one() -> Routine {
    Routine::new(
        "sq1",
        2,
        0,
        vec![
            Instr::Fimmv {
                value: 1.0,
                dst: VReg(1),
            },
            Instr::Flodv {
                src: Mem::arg(0),
                dst: VReg(0),
                overlapped: false,
            },
            Instr::Fmulv {
                a: Operand::V(VReg(0)),
                b: Operand::V(VReg(0)),
                dst: VReg(2),
            },
            Instr::Faddv {
                a: Operand::V(VReg(2)),
                b: Operand::V(VReg(1)),
                dst: VReg(3),
            },
            Instr::Fstrv {
                src: VReg(3),
                dst: Mem::arg(1),
                overlapped: false,
            },
        ],
    )
    .expect("valid routine")
}

fn fill(total: usize) -> Vec<f64> {
    (0..total)
        .map(|i| ((i * 37 + 11) % 101) as f64 * 0.125 - 6.0)
        .collect()
}

/// Dispatch, an outer-axis `CSHIFT` (halo exchange), an inner-axis
/// `EOSHIFT` (node-local), a dispatch over the results, a reduction, and
/// both hand-off moves; returns every surviving array's bits, the
/// reduction's bits and the rendered stats.
fn drive(m: &mut MimdMachine, dims: &[usize]) -> (Vec<Vec<u64>>, u64, String) {
    let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<u64>>();
    let a = m.alloc_from(dims, fill(dims.iter().product()));
    let b = m.alloc(dims);
    m.dispatch(&square_plus_one(), &[a, b], &[]).unwrap();
    let halo = m.cshift(b, 0, -1).unwrap();
    let local = m.eoshift(halo, dims.len() - 1, 1, -2.5).unwrap();
    m.dispatch(&square_plus_one(), &[local, a], &[]).unwrap();
    let sum = m.reduce(a, ReduceOp::Sum).unwrap();
    m.assign(b, halo).unwrap();
    let finals: Vec<MimdId> = vec![a, b, local];
    let finals = finals.into_iter().map(|id| bits(m.take(id).unwrap()));
    (finals.collect(), sum.to_bits(), format!("{:?}", m.stats()))
}

/// Shapes on both sides of the pool's inline threshold, one with fewer
/// rows than nodes (most nodes own nothing).
fn shapes() -> [Vec<usize>; 3] {
    let wide = PAR_MIN_ELEMS / 64 + 3;
    [vec![40, 9], vec![5, 3, 4], vec![wide, 64]]
}

#[test]
fn host_threads_are_unobservable_over_the_contiguous_store() {
    for dims in shapes() {
        let run = |threads: usize| {
            let config = MimdConfig::new(16).with_host_threads(threads);
            drive(&mut MimdMachine::new(config), &dims)
        };
        assert_eq!(run(1), run(4), "dims {dims:?}");
    }
}

#[test]
fn a_killed_superstep_restores_the_contiguous_store_bit_for_bit() {
    for dims in shapes() {
        let clean = drive(&mut MimdMachine::new(MimdConfig::new(16)), &dims);
        // Kill a node that owns rows in the halo exchange (superstep 2)
        // and one in the second dispatch (superstep 4).
        let plan = FaultPlan::seeded(3).kill(2, 0).kill(4, 1).restarts(2);
        let mut m = MimdMachine::new(MimdConfig::new(16).with_faults(plan));
        let (finals, sum, _) = drive(&mut m, &dims);
        assert_eq!((&finals, sum), (&clean.0, clean.1), "dims {dims:?}");
        assert_eq!(m.stats().node_restarts, 2);
        assert!(m.stats().checkpoint_bytes > 0);
        assert_eq!(m.program_arrays(), 0);
    }
}
