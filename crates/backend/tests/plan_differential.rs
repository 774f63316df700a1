//! The static machine-call profile must agree with a real CM/2 run on
//! every counter the machine keeps: the plan is a prediction of the
//! exact call sequence, not an estimate.

use f90y_backend::fe::HostExecutor;
use f90y_backend::plan::{self, StaticProfile};
use f90y_cm2::{Cm2, Cm2Config};

fn compile(src: &str) -> f90y_backend::CompiledProgram {
    let unit = f90y_frontend::parse(src).expect("parses");
    let nir = f90y_lowering::lower(&unit).expect("lowers");
    let optimized = f90y_transform::optimize(&nir).expect("optimizes");
    f90y_backend::compile(&optimized).expect("compiles")
}

/// Statically profile `src`, run it on the CM/2, and require every
/// machine counter to match the prediction.
fn reconcile(src: &str) -> StaticProfile {
    let compiled = compile(src);
    let profile = plan::profile(&compiled).expect("static profile");

    let mut cm = Cm2::new(Cm2Config::slicewise(16));
    HostExecutor::new(&mut cm).run(&compiled).expect("executes");
    let stats = cm.stats();

    assert_eq!(
        profile.dispatch_calls() as u64,
        stats.dispatches,
        "dispatch count\nsource:\n{src}"
    );
    assert_eq!(
        (profile.shift_calls() + profile.router_moves) as u64,
        stats.comm_calls,
        "comm call count\nsource:\n{src}"
    );
    assert_eq!(
        profile.reduces as u64, stats.reductions,
        "reduction count\nsource:\n{src}"
    );
    profile
}

#[test]
fn whole_array_compute_has_no_comm() {
    let p = reconcile("INTEGER K(32,16), L(32)\nL = 6\nK = 2*K + 5\n");
    assert!(p.shifts.is_empty());
    assert_eq!(p.router_moves, 0);
}

#[test]
fn cshift_chain_is_counted_with_geometry() {
    let p = reconcile("REAL, ARRAY(16,16) :: A, B\nB = CSHIFT(A, 1, 1) + CSHIFT(A, -1, 2)\n");
    assert_eq!(p.shift_calls(), 2);
    let mut axes: Vec<(usize, i64)> = p.shifts.iter().map(|s| (s.axis, s.shift)).collect();
    axes.sort_unstable();
    assert_eq!(axes, vec![(0, 1), (1, -1)]);
    assert!(p.shifts.iter().all(|s| *s.dims == [16, 16]));
}

#[test]
fn eoshift_and_reduction_inside_do() {
    let p = reconcile(
        "
        REAL, ARRAY(8,8) :: A, B
        REAL S
        INTEGER I
        DO I = 1, 3
          B = EOSHIFT(A, 1, 1)
          S = S + SUM(A)
        END DO
        ",
    );
    assert_eq!(p.shift_calls(), 3);
    assert!(p.shifts.iter().all(|s| s.eoshift && s.shift == 1));
    assert_eq!(p.reduces, 3);
}

#[test]
fn masked_where_with_sections_reconciles() {
    // Sections and WHERE masks compile to dispatched node blocks, not
    // router traffic; the profile must agree either way.
    let p = reconcile(
        "
        INTEGER, ARRAY(16,16) :: A, B
        INTEGER N
        N = 7
        A(1:16:2, :) = 3
        WHERE (B > N) A = A + 1
        ",
    );
    assert!(p.dispatch_calls() >= 1);
}

#[test]
fn transpose_rides_the_router() {
    // One move for TRANSPOSE itself, one for the merging host move.
    let p = reconcile("REAL, ARRAY(8,4) :: A\nREAL, ARRAY(4,8) :: B\nB = TRANSPOSE(A)\n");
    assert_eq!(p.router_moves, 2);
}

#[test]
fn serial_subscripts_count_element_traffic() {
    let compiled = compile(
        "
        INTEGER, ARRAY(8) :: A
        INTEGER I
        DO I = 1, 8
          A(I) = A(I) + I
        END DO
        ",
    );
    let p = plan::profile(&compiled).expect("static profile");
    assert_eq!(p.host_elem_reads, 8);
    assert_eq!(p.host_elem_writes, 8);
}

#[test]
fn data_dependent_branch_is_an_honest_error() {
    // The IF condition reads machine data, so no exact static plan
    // exists; the profiler must say so rather than guess.
    let compiled = compile(
        "
        REAL, ARRAY(8) :: A, B
        IF (SUM(A) > 0.0) THEN
          B = CSHIFT(A, 1, 1)
        END IF
        ",
    );
    match plan::profile(&compiled) {
        Err(plan::PlanError::DataDependent(_)) => {}
        other => panic!("expected DataDependent, got {other:?}"),
    }
}

/// What a [`plan::PlanError::DataDependent`] names, for `compiled`.
fn data_dependence(compiled: &f90y_backend::CompiledProgram) -> String {
    match plan::profile(compiled) {
        Err(plan::PlanError::DataDependent(what)) => what,
        other => panic!("expected DataDependent, got {other:?}"),
    }
}

#[test]
fn data_dependence_names_the_offending_value() {
    // An IF on a reduction result.
    let branch = compile("REAL, ARRAY(8) :: A, B\nIF (SUM(A) > 0.0) THEN\nB = A\nEND IF\n");
    assert_eq!(
        data_dependence(&branch),
        "IF condition is only known at run time"
    );

    // A shift distance read from an array.
    let distance =
        compile("REAL, ARRAY(8) :: A, B\nINTEGER, ARRAY(4) :: K\nB = CSHIFT(A, K(2), 1)\n");
    assert_eq!(
        data_dependence(&distance),
        "CSHIFT SHIFT is only known at run time"
    );

    // An element write under a guard read from the machine: whether the
    // write happens is the data's business.
    use f90y_nir::build::*;
    let first = || ld("a", subscript(vec![int(1)]));
    let guarded = program(with_domain(
        "s",
        interval(1, 4),
        with_decl(
            decl("a", dfield(domain("s"), float64())),
            mv_masked(
                bin(f90y_nir::BinOp::Gt, first(), f64c(0.0)),
                avar("a", subscript(vec![int(2)])),
                f64c(1.0),
            ),
        ),
    ));
    let guarded = f90y_backend::compile(&guarded).expect("compiles");
    assert_eq!(
        data_dependence(&guarded),
        "masked element write into 'a' guards machine traffic"
    );
    assert_eq!(
        plan::profile(&guarded).unwrap_err().to_string(),
        "data-dependent: masked element write into 'a' guards machine traffic"
    );
}
