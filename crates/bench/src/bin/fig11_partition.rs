//! Regenerates the paper's Figure 11: the naive, blocked and
//! partitioned forms of a program whose iterations alternate between
//! two shapes ("A" nodes and "B" nodes), with communications on the
//! edges.
//!
//! The harness builds such a program, shows how many computation phases
//! exist naively and after blocking, and how the CM2/NIR compiler then
//! cuts the blocked program into node procedures and host code.

use f90y_bench::compile;
use f90y_core::{Pipeline, Target};

fn source(n_a: usize, n_b: usize) -> String {
    // Alternating independent computations over shape A (1D) and shape
    // B (2D), joined by one communication.
    format!(
        "
REAL a1({n_a}), a2({n_a}), a3({n_a}), t({n_a})
REAL b1({n_b},{n_b}), b2({n_b},{n_b})
FORALL (i=1:{n_a}) a1(i) = i
FORALL (i=1:{n_b}, j=1:{n_b}) b1(i,j) = i + j
a2 = a1 * 2.0
b2 = b1 + 1.0
a3 = a1 + a2
t = CSHIFT(a3, 1, 1)
b2 = b2 * 2.0
a2 = a2 + t
"
    )
}

fn main() {
    let src = source(4096, 64);
    println!("FIGURE 11 — naive, blocked, and partitioned program\n");

    let naive = compile(&src, Pipeline::Cmf); // per-statement = the naive graph
    let blocked = compile(&src, Pipeline::F90y);

    println!(
        "naive:   {} computation phases (one per statement)",
        naive.compiled.blocks.len()
    );
    println!(
        "blocked: {} computation phases after shape blocking ({} fused clauses)",
        blocked.compiled.blocks.len(),
        blocked.report.clauses_after,
    );

    let counts = blocked.compiled.host.counts;
    let (d, c, h) = (counts.dispatches, counts.comms, counts.control());
    println!("\npartitioned (CM2/NIR split of the blocked program):");
    println!(
        "  node side: {} PEAC procedures",
        blocked.compiled.blocks.len()
    );
    println!(
        "  host side: {d} dispatch calls, {c} runtime communication calls, {h} host statements"
    );
    for b in &blocked.compiled.blocks {
        println!(
            "    block {}: shape {:?} extents, {} clauses, {} instructions",
            b.index,
            b.shape
                .extents()
                .iter()
                .map(|e| e.len())
                .collect::<Vec<_>>(),
            b.clauses.len(),
            b.routine.len(),
        );
    }

    assert!(blocked.compiled.blocks.len() < naive.compiled.blocks.len());

    // Dispatch overhead series: the figure's point is that fusing
    // like-shape iterations shrinks the cut.
    let run_naive = naive
        .session(Target::Cm2 { nodes: 64 })
        .run()
        .expect("runs")
        .into_cm2();
    let run_blocked = blocked
        .session(Target::Cm2 { nodes: 64 })
        .run()
        .expect("runs")
        .into_cm2();
    println!(
        "\ndispatch overhead: naive {} cycles vs blocked {} cycles ({:.2}x)",
        run_naive.stats.dispatch_overhead_cycles,
        run_blocked.stats.dispatch_overhead_cycles,
        run_naive.stats.dispatch_overhead_cycles as f64
            / run_blocked.stats.dispatch_overhead_cycles.max(1) as f64,
    );
}
