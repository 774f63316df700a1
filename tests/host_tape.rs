//! The host tape, held to what a run really does.
//!
//! The static profile is the tape loop over a machine that only counts
//! (DESIGN.md §16), so it should equal the calls of a real run not in
//! total but site for site. Here a real CM/2 run is wrapped in a
//! logging [`Machine`](f90y_backend::Machine) decorator and the two are
//! compared whole. The same decorator, told to fail the n-th call of a
//! class, shows that a failed run reports that failure and leaves no
//! array on the machine; and a hand-built program shows a shadowing
//! `WITH_DECL` resolving to the right slots.

mod call_log;

use call_log::{assert_profile_is_the_call_log, cm2, CallLog, Class};
use f90y_backend::fe::{Final, HostExecutor};
use f90y_backend::BackendError;
use f90y_cm2::Cm2;
use f90y_core::{workloads, Compiler, Pipeline};
use f90y_nir::build::*;

#[test]
fn shipped_workloads_make_exactly_the_profiled_calls() {
    let sources: Vec<(&str, String)> = vec![
        ("swe", workloads::swe_source(8, 2)),
        ("heat", workloads::heat_source(8, 3)),
        ("life", workloads::life_source(8, 2)),
        ("redblack", workloads::redblack_source(8, 2)),
        ("fig_2_1_f77", workloads::fig_section21_f77().into()),
        ("fig_2_1_f90", workloads::fig_section21_f90().into()),
        ("fig7", workloads::fig7_source().into()),
        ("fig9", workloads::fig9_source().into()),
        ("fig10", workloads::fig10_source().into()),
        ("fig12", workloads::fig12_source(8)),
        ("quickstart", "INTEGER K(64,64)\nK = 2*K + 5\n".into()),
        ("every call class", EVERY_CLASS.into()),
    ];
    for (name, src) in sources {
        for pipeline in [Pipeline::F90y, Pipeline::Cmf, Pipeline::StarLisp] {
            let exe = Compiler::new(pipeline).compile(&src).expect("compiles");
            let ctx = format!("{name} / {}", pipeline.name());
            assert_profile_is_the_call_log(&ctx, &exe.compiled);
        }
    }
}

/// A program through every class of machine call: dispatches (with
/// coordinate streams), a grid shift and its hand-off, a reduction, a
/// router move, and front-end element reads and writes.
const EVERY_CLASS: &str = "
REAL a(8,8), b(8,8)
REAL d(8)
REAL s
INTEGER i
FORALL (i=1:8, j=1:8) a(i,j) = i + 0.5*j
b = CSHIFT(a, 1, 1)
s = SUM(b)
b = TRANSPOSE(a)
DO i = 1, 8
  d(i) = a(i,i) + s
END DO
";

/// Whichever call fails, the run fails with that call's error and the
/// machine is left holding no program array. (`free` is the exception
/// by nature: a machine that cannot free cannot be left clean.)
#[test]
fn a_failed_call_is_the_runs_error_and_nothing_stays_allocated() {
    let exe = Compiler::new(Pipeline::F90y)
        .compile(EVERY_CLASS)
        .expect("compiles");
    let classes = [
        Class::Read,
        Class::Write,
        Class::Dispatch,
        Class::Shift,
        Class::Reduce,
        Class::Router,
        Class::ElemRead,
        Class::ElemWrite,
    ];
    for class in classes {
        let mut clean = CallLog::failing(cm2(), class, usize::MAX);
        HostExecutor::new(&mut clean)
            .run(&exe.compiled)
            .expect("runs");
        assert!(clean.seen() > 0, "the program makes no {class:?} call");
        for nth in 0..clean.seen() {
            let mut m = CallLog::failing(cm2(), class, nth);
            let err = HostExecutor::new(&mut m).run(&exe.compiled).unwrap_err();
            let injected = BackendError::Machine(CallLog::<Cm2>::injected(class));
            assert_eq!(err, injected, "{class:?} call {nth}");
            let (cm, _) = m.finish();
            assert_eq!(cm.program_arrays(), 0, "after {class:?} call {nth} failed");
        }
    }
}

/// An inner `WITH_DECL` array hiding an outer one of another shape:
/// dispatch arguments, element reads and the captured finals all see
/// the declaration that is lexically in force — and the inner scope
/// exits first, so its capture of the shared name is the one kept.
#[test]
fn a_shadowing_declaration_resolves_to_its_own_slot() {
    let coords_of = |dom: &str| local_under(domain(dom), 1);
    let elem2 = || ld("a", subscript(vec![int(2)]));
    let inner = with_decl(
        decl("a", dfield(domain("small"), float64())),
        seq(vec![
            mv(avar("a", everywhere()), mul(coords_of("small"), f64c(10.0))),
            mv(svar_lv("x"), elem2()),
        ]),
    );
    let body = seq(vec![
        mv(avar("a", everywhere()), coords_of("big")),
        inner,
        mv(svar_lv("y"), elem2()),
    ]);
    let decls = declset(vec![
        decl("a", dfield(domain("big"), float64())),
        decl("x", float64()),
        decl("y", float64()),
    ]);
    let p = program(with_domain(
        "big",
        interval(1, 8),
        with_domain("small", interval(1, 4), with_decl(decls, body)),
    ));
    let compiled = f90y_backend::compile(&p).expect("compiles");

    let profile = f90y_backend::plan::profile(&compiled).expect("static profile");
    let elems: Vec<usize> = profile.dispatches.iter().map(|d| d.elems).collect();
    assert_eq!(elems, [8, 4], "each dispatch runs over its own `a`");
    assert_profile_is_the_call_log("shadowing", &compiled);

    let mut cm = cm2();
    let run = HostExecutor::new(&mut cm).run(&compiled).expect("runs");
    assert_eq!(run.final_scalar("x").unwrap(), 20.0, "inner a(2)");
    assert_eq!(run.final_scalar("y").unwrap(), 2.0, "outer a(2)");
    assert_eq!(
        run.finals()["a"],
        Final::Array(vec![10.0, 20.0, 30.0, 40.0]),
        "the first capture of a name wins"
    );
    assert_eq!(cm.program_arrays(), 0);
}
