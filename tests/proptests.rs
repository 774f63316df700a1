//! Property-based tests over the whole pipeline.
//!
//! The central property is *translation validation on random programs*:
//! any generated data-parallel program must produce identical results
//! from (a) the NIR reference evaluator, (b) the fully optimized
//! Fortran-90-Y pipeline on the simulated CM/2, and (c) both baseline
//! pipelines — exercising lowering, every transformation, the PE
//! compiler's register allocator, and the machine in one sweep.

mod call_log;

use proptest::prelude::*;

use f90y_core::{Compiler, Pipeline, Target};
use f90y_nir::eval::Evaluator;
use f90y_nir::SectionRange;
use f90y_nir::Shape;

// ---------------------------------------------------------------------
// Random program generation (source level)
// ---------------------------------------------------------------------

/// A random arithmetic expression over arrays a, b, c, scalar s and the
/// FORALL-style coordinates. Division is avoided (denominator zero) and
/// `**` is limited to squares to keep values tame.
fn arb_expr(depth: u32) -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        Just("a".to_string()),
        Just("b".to_string()),
        Just("c".to_string()),
        Just("s".to_string()),
        (1i32..9).prop_map(|k| k.to_string()),
        (1i32..5).prop_map(|k| format!("{k}.5")),
    ];
    leaf.prop_recursive(depth, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(x, y)| format!("({x} + {y})")),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| format!("({x} - {y})")),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| format!("({x} * {y})")),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| format!("MAX({x}, {y})")),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| format!("MIN({x}, {y})")),
            inner.clone().prop_map(|x| format!("(-{x})")),
            inner.clone().prop_map(|x| format!("ABS({x})")),
            inner.clone().prop_map(|x| format!("CSHIFT({x} + a, 1, 1)")),
        ]
    })
}

/// One random statement: plain assignment, masked WHERE, or a strided
/// section self-assignment.
fn arb_stmt() -> impl Strategy<Value = String> {
    let target = prop_oneof![Just("a"), Just("b"), Just("c")];
    prop_oneof![
        (target.clone(), arb_expr(2)).prop_map(|(t, e)| format!("{t} = {e}\n")),
        (target.clone(), arb_expr(1), arb_expr(1), 0i32..6)
            .prop_map(|(t, e, m, k)| format!("WHERE ({m} > {k}.0) {t} = {e}\n")),
        (target, arb_expr(1))
            .prop_map(|(t, e)| { format!("{t}(1:15:2) = {e}(1:15:2)\n", e = e_guard(&e)) }),
    ]
}

/// Section RHS must itself be a plain variable for a section-aligned
/// statement; non-variables fall back to `a`.
fn e_guard(e: &str) -> &str {
    match e {
        "a" | "b" | "c" => e,
        _ => "a",
    }
}

fn arb_program() -> impl Strategy<Value = String> {
    (proptest::collection::vec(arb_stmt(), 1..6), 1i32..9).prop_map(|(stmts, s0)| {
        let mut src = String::from("REAL a(16), b(16), c(16)\nREAL s\n");
        src.push_str(&format!("s = {s0}.25\n"));
        src.push_str("FORALL (i=1:16) a(i) = MOD(i*3, 7) - 3\n");
        src.push_str("FORALL (i=1:16) b(i) = MOD(i*5, 11) - 5\n");
        src.push_str("FORALL (i=1:16) c(i) = i - 8\n");
        for st in stmts {
            src.push_str(&st);
        }
        src
    })
}

/// Remove clause `clause` of the statement whose pre-order id is
/// `target`, mirroring the numbering of [`f90y_analysis::StmtIndex`]
/// (which follows `Imp::walk` exactly).
fn remove_clause(imp: &mut f90y_nir::Imp, target: usize, clause: usize, counter: &mut usize) {
    use f90y_nir::Imp;
    let my_id = *counter;
    *counter += 1;
    if my_id == target {
        if let Imp::Move(cs) = imp {
            cs.remove(clause);
        }
        return;
    }
    match imp {
        Imp::Program(b)
        | Imp::Do(_, _, b)
        | Imp::WithDecl(_, b)
        | Imp::WithDomain(_, _, b)
        | Imp::While(_, b) => remove_clause(b, target, clause, counter),
        Imp::Sequentially(xs) | Imp::Concurrently(xs) => {
            for x in xs {
                remove_clause(x, target, clause, counter);
            }
        }
        Imp::IfThenElse(_, t, e) => {
            remove_clause(t, target, clause, counter);
            remove_clause(e, target, clause, counter);
        }
        Imp::Move(_) | Imp::Skip => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The centrepiece: random programs agree between the evaluator and
    /// all three compiled pipelines.
    #[test]
    fn random_programs_translation_validate(src in arb_program()) {
        let unit = f90y_frontend::parse(&src).expect("generated programs parse");
        let nir = match f90y_lowering::lower(&unit) {
            Ok(n) => n,
            // Some generated programs are legitimately rejected (e.g.
            // a masked section target); rejection is fine, miscompiling
            // is not.
            Err(_) => return Ok(()),
        };
        let mut ev = Evaluator::new();
        ev.run(&nir).expect("reference evaluation succeeds");

        for pipeline in [Pipeline::F90y, Pipeline::Cmf, Pipeline::StarLisp] {
            let exe = Compiler::new(pipeline).compile(&src).expect("compiles");
            let run = exe
                .session(Target::Cm2 { nodes: 8 })
                .run()
                .expect("runs")
                .into_cm2();
            for name in ["a", "b", "c"] {
                let expect = ev.final_array_f64(name).expect("captured");
                let got = run.finals.final_array(name).expect("captured");
                for (i, (e, g)) in expect.iter().zip(&got).enumerate() {
                    prop_assert!(
                        (e - g).abs() <= 1e-9 * e.abs().max(1.0),
                        "{}: {name}[{i}] evaluator={e} machine={g}\n{src}",
                        pipeline.name()
                    );
                }
            }
        }
    }

    /// The lexer and parser never panic, whatever bytes arrive.
    #[test]
    fn frontend_is_total(src in "\\PC*") {
        let _ = f90y_frontend::parse(&src);
    }

    /// Shape geometry: the point iterator agrees with the size formula,
    /// and conformance is reflexive and symmetric.
    #[test]
    fn shape_points_match_size(
        extents in proptest::collection::vec((0i64..6, -3i64..4), 1..4)
    ) {
        let dims: Vec<Shape> = extents
            .iter()
            .map(|&(len, lo)| Shape::Interval(lo, lo + len - 1))
            .collect();
        let s = Shape::Product(dims);
        prop_assert_eq!(s.points().count(), s.size());
        prop_assert!(s.conforms(&s));
    }

    /// Section disjointness is symmetric and sound: if `disjoint`, no
    /// index is in both.
    #[test]
    fn section_disjointness_is_sound(
        lo1 in 1i64..20, len1 in 0i64..20, st1 in 1i64..5,
        lo2 in 1i64..20, len2 in 0i64..20, st2 in 1i64..5,
    ) {
        let s1 = SectionRange::strided(lo1, lo1 + len1, st1);
        let s2 = SectionRange::strided(lo2, lo2 + len2, st2);
        prop_assert_eq!(s1.disjoint(&s2), s2.disjoint(&s1));
        if s1.disjoint(&s2) {
            for i in lo1..=(lo1 + len1) {
                prop_assert!(
                    !(s1.contains(i) && s2.contains(i)),
                    "{s1} and {s2} share {i}"
                );
            }
        }
    }

    /// The full default pass list under `--verify-passes` never trips
    /// the inter-pass checks on a random well-formed program: every
    /// pass preserves static well-formedness and final values, and the
    /// verifier must agree.
    #[test]
    fn verified_pipeline_never_trips_on_random_programs(src in arb_program()) {
        let unit = f90y_frontend::parse(&src).expect("parses");
        let nir = match f90y_lowering::lower(&unit) {
            Ok(n) => n,
            Err(_) => return Ok(()),
        };
        let result = f90y_transform::default_passes().verify(true).run(&nir);
        prop_assert!(
            result.is_ok(),
            "inter-pass verification fired on a correct pipeline: {}\n{src}",
            result.err().map(|e| e.to_string()).unwrap_or_default()
        );
        let (_, report) = result.unwrap();
        prop_assert!(report.verified);
    }

    /// `dce-temps` never changes what the evaluator computes: running
    /// it after the rest of the pipeline leaves every final array
    /// bit-identical.
    #[test]
    fn dce_temps_preserves_evaluator_results(src in arb_program()) {
        let unit = f90y_frontend::parse(&src).expect("parses");
        let nir = match f90y_lowering::lower(&unit) {
            Ok(n) => n,
            Err(_) => return Ok(()),
        };
        let (pre, _) = f90y_transform::PassManager::from_names(&[
            "comm-split", "comm-cse", "mask-pad", "blocking",
        ])
        .expect("known names")
        .run(&nir)
        .expect("optimizes");
        let (post, report) = f90y_transform::PassManager::from_names(&["dce-temps"])
            .expect("known name")
            .run(&pre)
            .expect("dce runs");

        let mut ev_pre = Evaluator::new();
        ev_pre.run(&pre).expect("pre-dce program evaluates");
        let mut ev_post = Evaluator::new();
        ev_post.run(&post).expect("post-dce program evaluates");
        for name in ["a", "b", "c"] {
            let before = ev_pre.final_array_f64(name).expect("captured");
            let after = ev_post.final_array_f64(name).expect("captured");
            prop_assert_eq!(
                before, after,
                "dce-temps changed {} (deleted {} temps)\n{}",
                name, report.rewrites_of("dce-temps"), src
            );
        }
    }

    /// The blocking transformation never duplicates computation, and
    /// the cleanup passes (comm-cse, dce-temps) only ever remove
    /// clauses.
    #[test]
    fn transforms_conserve_clauses(src in arb_program()) {
        let unit = f90y_frontend::parse(&src).expect("parses");
        let nir = match f90y_lowering::lower(&unit) {
            Ok(n) => n,
            Err(_) => return Ok(()),
        };
        let (optimized, report) = f90y_transform::optimize_with_report(&nir).expect("optimizes");
        let count_clauses = |imp: &f90y_nir::Imp| {
            let mut n = 0usize;
            imp.walk(&mut |i| {
                if let f90y_nir::Imp::Move(cs) = i {
                    n += cs.len();
                }
            });
            n
        };
        // comm_split adds one clause per hoisted temporary; blocking
        // must not change the count further, while comm-cse and
        // dce-temps strictly remove. Compare against the per-statement
        // pipeline, which runs the same comm_split and mask padding but
        // none of the cleanups.
        let (per_stmt, _) = f90y_transform::per_statement_passes()
            .run(&nir)
            .expect("optimizes");
        let full = count_clauses(&optimized);
        let per = count_clauses(&per_stmt);
        prop_assert!(
            full <= per,
            "full pipeline produced {} clauses, per-statement {}", full, per
        );
        let removed = report.comm_merged + report.temps_deleted;
        prop_assert!(
            per - full <= removed,
            "clause deficit {} exceeds what cse/dce account for ({})",
            per - full, removed
        );
    }

    /// Every store the liveness analysis flags as `W-DEADSTORE` really
    /// is dead: deleting the flagged clause (one at a time) leaves the
    /// evaluator's final arrays and scalars bit-identical.
    #[test]
    fn flagged_dead_stores_are_deletable(src in arb_program()) {
        let unit = f90y_frontend::parse(&src).expect("parses");
        let nir = match f90y_lowering::lower(&unit) {
            Ok(n) => n,
            Err(_) => return Ok(()),
        };
        let index = f90y_analysis::StmtIndex::of(&nir);
        let live = f90y_analysis::Liveness::of(&nir, &index);
        if live.dead_stores.is_empty() {
            return Ok(());
        }
        let mut ev_ref = Evaluator::new();
        ev_ref.run(&nir).expect("reference evaluation succeeds");

        for ds in &live.dead_stores {
            let mut pruned = nir.clone();
            let mut counter = 0usize;
            remove_clause(&mut pruned, ds.stmt, ds.clause, &mut counter);
            let mut ev = Evaluator::new();
            ev.run(&pruned).expect("pruned program evaluates");
            for name in ["a", "b", "c"] {
                prop_assert_eq!(
                    ev_ref.final_array_f64(name).expect("captured"),
                    ev.final_array_f64(name).expect("captured"),
                    "deleting flagged dead store to '{}' (stmt {}) changed {}\n{}",
                    ds.var, ds.stmt, name, src
                );
            }
            prop_assert_eq!(
                ev_ref.final_scalar_f64("s").expect("captured"),
                ev.final_scalar_f64("s").expect("captured"),
                "deleting flagged dead store to '{}' (stmt {}) changed s\n{}",
                ds.var, ds.stmt, src
            );
        }
    }

    /// The liveness-driven `dce-temps` is at least as strong as the old
    /// syntactic scan: every temp the fixpoint of "no remaining reads"
    /// finds faint is also faint under the dataflow analysis.
    #[test]
    fn liveness_dce_subsumes_the_syntactic_scan(src in arb_program()) {
        let unit = f90y_frontend::parse(&src).expect("parses");
        let nir = match f90y_lowering::lower(&unit) {
            Ok(n) => n,
            Err(_) => return Ok(()),
        };
        let mut body = match f90y_transform::ProgramBody::decompose(&nir) {
            Ok(b) => b,
            Err(_) => return Ok(()),
        };
        f90y_transform::comm_split::run(&mut body).expect("comm-split runs");
        f90y_transform::comm_cse::run(&mut body).expect("comm-cse runs");
        let syntactic = f90y_transform::dce::dead_temps_syntactic(&body);
        let ghosts: std::collections::HashSet<String> =
            body.temps.iter().cloned().collect();
        let faint = f90y_analysis::faint_temps(&body.recompose(), &ghosts);
        prop_assert!(
            syntactic.is_subset(&faint),
            "syntactic scan found dead temps the liveness analysis kept: {:?}\n{}",
            syntactic.difference(&faint).collect::<Vec<_>>(), src
        );
    }

    /// The static profile of a random program is the call log of a real
    /// run of it, site for site (DESIGN.md §16): both are the one loop
    /// over the host tape, and this holds them together.
    #[test]
    fn static_profile_is_the_call_log_of_a_real_run(src in arb_program()) {
        for pipeline in [Pipeline::F90y, Pipeline::Cmf] {
            let Ok(exe) = Compiler::new(pipeline).compile(&src) else {
                return Ok(()); // legitimately rejected, as above
            };
            call_log::assert_profile_is_the_call_log(&src, &exe.compiled);
        }
    }
}
