//! Focused tests of the FE/NIR host executor: serial loops, element
//! moves, reductions, dynamic communication arguments, router-path
//! moves, and error reporting.

use f90y_backend::fe::HostExecutor;
use f90y_backend::CompiledProgram;
use f90y_cm2::{Cm2, Cm2Config};

fn compile(src: &str) -> CompiledProgram {
    let unit = f90y_frontend::parse(src).expect("parses");
    let nir = f90y_lowering::lower(&unit).expect("lowers");
    let optimized = f90y_transform::optimize(&nir).expect("optimizes");
    f90y_backend::compile(&optimized).expect("compiles")
}

fn run(src: &str) -> (f90y_backend::fe::HostRun, f90y_cm2::MachineStats) {
    let compiled = compile(src);
    let mut cm = Cm2::new(Cm2Config::slicewise(16));
    let run = HostExecutor::new(&mut cm).run(&compiled).expect("executes");
    (run, cm.stats())
}

#[test]
fn serial_do_with_element_moves_charges_host_and_wire() {
    let (r, stats) = run("
        INTEGER a(8), b(8)
        FORALL (i=1:8) a(i) = i*i
        DO 10 k=1,8
           b(k) = a(k) + 1
  10    CONTINUE
        ");
    let b = r.final_array("b").unwrap();
    let expect: Vec<f64> = (1..=8).map(|i| (i * i + 1) as f64).collect();
    assert_eq!(b, expect);
    assert!(stats.host_cycles > 0, "element moves run on the host");
    assert!(
        stats.comm_cycles > 0,
        "host element access crosses the wire"
    );
}

#[test]
fn dynamic_shift_amounts_evaluate_on_the_host() {
    // CSHIFT with a shift that depends on a host scalar.
    let (r, _) = run("
        REAL v(8), w(8)
        INTEGER s
        FORALL (i=1:8) v(i) = i
        s = 2
        w = CSHIFT(v, s, 1)
        ");
    let w = r.final_array("w").unwrap();
    assert_eq!(w, vec![3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 1.0, 2.0]);
}

#[test]
fn shift_depending_on_do_index_runs_each_iteration() {
    let (r, _) = run("
        REAL v(8), acc(8)
        FORALL (i=1:8) v(i) = i
        acc = 0.0
        DO k = 1, 3
          acc = acc + CSHIFT(v, k, 1)
        END DO
        ");
    let acc = r.final_array("acc").unwrap();
    // acc(i) = v(i+1)+v(i+2)+v(i+3) cyclically.
    for (i, &got) in acc.iter().enumerate() {
        let expect: f64 = (1..=3).map(|k| ((i + k) % 8 + 1) as f64).sum();
        assert_eq!(got, expect, "acc({})", i + 1);
    }
}

#[test]
fn reductions_of_expressions_materialise_temporaries() {
    let (r, stats) = run("
        REAL a(10), b(10)
        REAL s
        FORALL (i=1:10) a(i) = i
        FORALL (i=1:10) b(i) = 2*i
        s = SUM(a*b)
        ");
    let s = r.final_scalar("s").unwrap();
    let expect: f64 = (1..=10).map(|i| (i * 2 * i) as f64).sum();
    assert_eq!(s, expect);
    assert!(stats.reductions >= 1);
}

#[test]
fn misaligned_section_copy_takes_the_router() {
    let (r, stats) = run("
        INTEGER l(16)
        FORALL (i=1:16) l(i) = i
        l(1:4) = l(9:12)
        ");
    let l = r.final_array("l").unwrap();
    assert_eq!(&l[..4], &[9.0, 10.0, 11.0, 12.0]);
    let tail: Vec<f64> = (5..=16).map(|i| i as f64).collect();
    assert_eq!(&l[4..], &tail[..]);
    assert!(stats.comm_calls >= 1, "section copy is communication");
}

#[test]
fn host_while_loops_and_scalar_state() {
    let (r, _) = run("
        INTEGER n, total
        n = 1
        total = 0
        DO WHILE (n <= 10)
          total = total + n
          n = n + 1
        END DO
        ");
    assert_eq!(r.final_scalar("total").unwrap(), 55.0);
    assert_eq!(r.final_scalar("n").unwrap(), 11.0);
}

#[test]
fn host_if_branches_on_machine_reductions() {
    let (r, _) = run("
        REAL a(8)
        INTEGER flag
        FORALL (i=1:8) a(i) = i
        IF (MAXVAL(a) > 7.5) THEN
          flag = 1
        ELSE
          flag = 0
        END IF
        ");
    assert_eq!(r.final_scalar("flag").unwrap(), 1.0);
}

#[test]
fn masked_element_move_under_scalar_condition() {
    let (r, _) = run("
        INTEGER a(6)
        FORALL (i=1:6) a(i) = i
        DO 10 k=1,6
           IF (a(k) > 3) a(k) = 0
  10    CONTINUE
        ");
    assert_eq!(
        r.final_array("a").unwrap(),
        vec![1.0, 2.0, 3.0, 0.0, 0.0, 0.0]
    );
}

#[test]
fn finals_report_missing_names_as_errors() {
    let (r, _) = run("REAL a(4)\na = 1.0\n");
    assert!(r.final_array("a").is_ok());
    assert!(r.final_array("ghost").is_err());
    assert!(r.final_scalar("a").is_err(), "a is an array, not a scalar");
}

#[test]
fn integer_division_on_host_truncates_like_the_evaluator() {
    let (r, _) = run("
        INTEGER q
        INTEGER a(4)
        FORALL (i=1:4) a(i) = 10*i
        q = a(3) / 7
        ");
    assert_eq!(r.final_scalar("q").unwrap(), 4.0); // 30/7 = 4
}

#[test]
fn stats_isolate_per_run_when_machine_is_reused() {
    let compiled = compile("REAL a(64)\na = 1.5\n");
    let mut cm = Cm2::new(Cm2Config::slicewise(16));
    HostExecutor::new(&mut cm).run(&compiled).unwrap();
    let first = cm.stats().node_cycles();
    HostExecutor::new(&mut cm).run(&compiled).unwrap();
    let second = cm.stats().node_cycles();
    assert!(
        second > first,
        "stats accumulate across runs on one machine"
    );
    assert_eq!(second - first, first, "equal work charges equal cycles");
}

/// What `backend::compile` refuses `optimized` with.
fn refusal(optimized: &f90y_nir::Imp) -> String {
    match f90y_backend::compile(optimized) {
        Err(f90y_backend::BackendError::Malformed(why)) => why,
        other => panic!("expected a Malformed refusal, got {other:?}"),
    }
}

#[test]
fn a_literal_shift_dim_outside_the_rank_is_refused_at_lowering() {
    // Every static check passes these; they used to fail only when run.
    for (call, name) in [
        ("CSHIFT(a, SHIFT=1, DIM=7)", "CSHIFT"),
        ("EOSHIFT(a, SHIFT=1, DIM=2)", "EOSHIFT"),
        ("CSHIFT(a, SHIFT=1, DIM=0)", "CSHIFT"),
    ] {
        let unit = f90y_frontend::parse(&format!("REAL a(8), b(8)\nb = {call}\n")).unwrap();
        let nir = f90y_lowering::lower(&unit).expect("lowers");
        let optimized = f90y_transform::optimize(&nir).expect("optimizes");
        let why = refusal(&optimized);
        assert!(why.starts_with(&format!("{name} DIM=")), "{why}");
        assert!(
            why.ends_with("is outside the rank of 'a' (rank 1)"),
            "{why}"
        );
    }
    // In range, and a DIM only the run knows, still compile.
    compile("REAL a(8,8), b(8,8)\nb = CSHIFT(a, SHIFT=1, DIM=2)\n");
    compile("REAL a(8,8), b(8,8)\nINTEGER k\nk = 2\nb = CSHIFT(a, SHIFT=1, DIM=k)\n");
}

#[test]
fn a_subscript_count_that_is_not_the_rank_is_refused_at_lowering() {
    use f90y_nir::build::*;
    let with_a = |body| {
        let decls = declset(vec![
            decl("a", dfield(domain("s"), float64())),
            decl("x", float64()),
        ]);
        program(with_domain("s", grid(&[4, 4]), with_decl(decls, body)))
    };
    let read = with_a(mv(svar_lv("x"), ld("a", subscript(vec![int(1)]))));
    let write = with_a(mv(
        avar("a", subscript(vec![int(1), int(2), int(3)])),
        f64c(1.0),
    ));
    assert_eq!(refusal(&read), "'a' has rank 2 but is given 1 subscripts");
    assert_eq!(refusal(&write), "'a' has rank 2 but is given 3 subscripts");
}
