//! The middle end's cost must grow with the program, not with its
//! square: `comm-split` types every hoisted call and `comm-cse` asks
//! reaching definitions about every hoisted definition, and both once
//! paid for the whole declaration list per question.

use std::time::{Duration, Instant};

use f90y_nir::Imp;
use f90y_transform::default_passes;

/// `n` whole-array statements over eight arrays, two shifts each: every
/// statement hoists two temporaries, and every second statement repeats
/// a shift its predecessor made of an array not written in between.
fn shifted_statements(n: usize) -> Imp {
    let mut src = String::from("REAL a0(8,8), a1(8,8), a2(8,8), a3(8,8)\n");
    src.push_str("REAL a4(8,8), a5(8,8), a6(8,8), a7(8,8)\n");
    for k in 0..8 {
        src.push_str(&format!("a{k} = {k}.5\n"));
    }
    for i in 0..n {
        let (d, p, q, r) = (i % 8, (i + 1) % 8, (i + 3) % 8, (i / 2 * 2 + 5) % 8);
        let shift = i % 3 + 1;
        src.push_str(&format!(
            "a{d} = 0.25*a{p} + CSHIFT(a{q}, {shift}, 1) - 0.5*CSHIFT(a{r}, -1, 2)\n"
        ));
    }
    let unit = f90y_frontend::parse(&src).expect("parses");
    f90y_lowering::lower(&unit).expect("lowers")
}

fn min_of_5(nir: &Imp) -> Duration {
    (0..5)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(default_passes().run(nir).expect("optimizes"));
            start.elapsed()
        })
        .min()
        .expect("five runs")
}

#[test]
fn pipeline_time_grows_linearly_with_statement_count() {
    let (small, large) = (shifted_statements(200), shifted_statements(800));
    let (t_small, t_large) = (min_of_5(&small), min_of_5(&large));
    let ratio = t_large.as_secs_f64() / t_small.as_secs_f64();
    // Linear is 4; with comm-split and comm-cse quadratic this read 15.
    assert!(
        ratio < 8.0,
        "800 statements took {t_large:?}, 200 took {t_small:?}: ratio {ratio:.1}"
    );
}

#[test]
fn two_thousand_statements_survive_verification_and_audit() {
    let nir = shifted_statements(2000);
    let (out, report) = default_passes()
        .verify(true)
        .audit(true)
        .run(&nir)
        .expect("every pass verifies");
    assert!(report.verified && report.audited);
    assert_eq!(report.rewrites_of("comm-split"), 4000);
    assert_eq!(report.rewrites_of("comm-cse"), 1000);
    assert_eq!(
        report.rewrites_of("comm-cse"),
        report.rewrites_of("dce-temps"),
        "every merged temporary's declaration is swept"
    );
    assert!(out.count_moves() < nir.count_moves() + 4000);
}
