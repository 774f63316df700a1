//! `Machine::assign` and `Machine::take` on the three machines, held to
//! the trait's default bodies — `read`/`write`/`free` composed, which is
//! their specification: the same element bits, the same rendered stats,
//! the same flight-trace digest, and the same error (variant and string)
//! at the same point. Then the consequence for the host executor: a
//! finished run leaves no program array on the machine.

use std::collections::BTreeMap;

use f90y_accel::{Accel, AccelConfig};
use f90y_backend::fe::{Final, HostExecutor};
use f90y_backend::{CompiledProgram, Machine};
use f90y_cm2::{Cm2, Cm2Config, Cm2Error, ReduceOp};
use f90y_mimd::{MimdConfig, MimdMachine};
use f90y_nir::build::*;
use f90y_peac::Routine;

/// `M` with `assign` and `take` left to the trait's default bodies;
/// every other call goes straight through.
struct Composed<M>(M);

impl<M: Machine> Machine for Composed<M> {
    type Id = M::Id;

    fn alloc_with_bounds(&mut self, dims: &[usize], lower: &[i64]) -> M::Id {
        self.0.alloc_with_bounds(dims, lower)
    }
    fn alloc_from(&mut self, dims: &[usize], data: Vec<f64>) -> M::Id {
        self.0.alloc_from(dims, data)
    }
    fn free(&mut self, id: M::Id) -> Result<(), Cm2Error> {
        self.0.free(id)
    }
    fn read(&self, id: M::Id) -> Result<Vec<f64>, Cm2Error> {
        self.0.read(id)
    }
    fn write(&mut self, id: M::Id, data: &[f64]) -> Result<(), Cm2Error> {
        self.0.write(id, data)
    }
    fn dispatch(&mut self, r: &Routine, ptrs: &[M::Id], scalars: &[f64]) -> Result<(), Cm2Error> {
        self.0.dispatch(r, ptrs, scalars)
    }
    fn cshift(&mut self, src: M::Id, axis: usize, shift: i64) -> Result<M::Id, Cm2Error> {
        self.0.cshift(src, axis, shift)
    }
    fn eoshift(&mut self, src: M::Id, axis: usize, shift: i64, b: f64) -> Result<M::Id, Cm2Error> {
        self.0.eoshift(src, axis, shift, b)
    }
    fn reduce(&mut self, src: M::Id, op: ReduceOp) -> Result<f64, Cm2Error> {
        self.0.reduce(src, op)
    }
    fn coordinates(&mut self, dims: &[usize], lower: &[i64], axis: usize) -> M::Id {
        self.0.coordinates(dims, lower, axis)
    }
    fn charge_router_move(&mut self, id: M::Id) -> Result<(), Cm2Error> {
        self.0.charge_router_move(id)
    }
    fn charge_host_ops(&mut self, n: u64) {
        self.0.charge_host_ops(n)
    }
    fn host_read_elem(&mut self, id: M::Id, flat: usize) -> Result<f64, Cm2Error> {
        self.0.host_read_elem(id, flat)
    }
    fn host_write_elem(&mut self, id: M::Id, flat: usize, v: f64) -> Result<(), Cm2Error> {
        self.0.host_write_elem(id, flat, v)
    }
}

/// What the suite needs of a machine beyond the runtime calls.
trait Probe: Machine {
    /// A fresh 16-node machine with its flight recorder running.
    fn fresh() -> Self;
    /// Rendered stats and the flight-trace digest (taking the trace).
    fn observed(&mut self) -> (String, String);
    fn program_arrays(&self) -> usize;
}

impl Probe for Cm2 {
    fn fresh() -> Self {
        let mut cm = Cm2::new(Cm2Config::slicewise(16));
        cm.enable_flight_recorder();
        cm
    }
    fn observed(&mut self) -> (String, String) {
        let digest = self.take_flight().expect("recorder on").digest();
        (format!("{:?}", self.stats()), digest)
    }
    fn program_arrays(&self) -> usize {
        Cm2::program_arrays(self)
    }
}

impl Probe for Accel {
    fn fresh() -> Self {
        let mut dev = Accel::new(AccelConfig::new(16));
        dev.enable_flight_recorder();
        dev
    }
    fn observed(&mut self) -> (String, String) {
        let digest = self.take_flight().expect("recorder on").digest();
        (format!("{:?}", self.stats()), digest)
    }
    fn program_arrays(&self) -> usize {
        Accel::program_arrays(self)
    }
}

impl Probe for MimdMachine {
    fn fresh() -> Self {
        let mut m = MimdMachine::new(MimdConfig::new(16));
        m.enable_trace();
        m
    }
    fn observed(&mut self) -> (String, String) {
        let digest = self.take_trace().expect("recorder on").digest();
        (format!("{:?}", self.stats()), digest)
    }
    fn program_arrays(&self) -> usize {
        MimdMachine::program_arrays(self)
    }
}

impl<M: Probe> Probe for Composed<M> {
    fn fresh() -> Self {
        Composed(M::fresh())
    }
    fn observed(&mut self) -> (String, String) {
        self.0.observed()
    }
    fn program_arrays(&self) -> usize {
        self.0.program_arrays()
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Distinct values with a NaN and a −0.0 among them: a move must not
/// canonicalise anything.
fn irregular(n: usize) -> Vec<f64> {
    let mut data: Vec<f64> = (0..n).map(|i| (i as f64 + 0.5) * -1.25).collect();
    data[0] = f64::NAN;
    data[n - 1] = -0.0;
    data
}

/// Everything one scripted session can show: each step's outcome (moved
/// elements as bits, or the error), then stats, digest and live arrays.
#[derive(Debug, PartialEq)]
struct Transcript {
    steps: Vec<Result<Vec<u64>, Cm2Error>>,
    stats: String,
    digest: String,
    program_arrays: usize,
}

/// The happy paths and every error path of both moves, with the arrays
/// read back after each failure (a failed move must leave what the
/// composition leaves).
fn script<M: Probe>() -> Transcript {
    let mut m = M::fresh();
    let mut steps = Vec::new();
    let a = m.alloc_from(&[6, 4], irregular(24));
    let b = m.alloc_with_bounds(&[6, 4], &[0, -2]);
    let short = m.alloc(&[5]);
    let unit = |r: Result<(), Cm2Error>| r.map(|()| Vec::new());
    let elems = |r: Result<Vec<f64>, Cm2Error>| r.map(|v| bits(&v));

    // A shifted temporary lands in another array, then in its own source
    // (`A = EOSHIFT(A, …)`).
    let s = m.cshift(a, 0, 1).unwrap();
    steps.push(unit(m.assign(b, s)));
    steps.push(elems(m.read(b)));
    let e = m.eoshift(a, 1, -1, 9.5).unwrap();
    steps.push(unit(m.assign(a, e)));
    steps.push(elems(m.read(a)));
    // The temporaries died with their moves.
    steps.push(elems(m.read(s)));
    steps.push(unit(m.free(e)));

    // Length mismatch: both arrays survive untouched.
    let s = m.cshift(a, 1, 2).unwrap();
    steps.push(unit(m.assign(short, s)));
    steps.push(elems(m.read(short)));
    steps.push(elems(m.read(s)));
    // Stale destination: the temporary survives.
    m.free(short).unwrap();
    steps.push(unit(m.assign(short, s)));
    steps.push(elems(m.read(s)));
    // Stale temporary, and a temporary moved twice.
    steps.push(unit(m.assign(b, short)));
    steps.push(unit(m.assign(b, s)));
    steps.push(unit(m.assign(b, s)));
    steps.push(elems(m.read(b)));
    // An array assigned to itself is read, rewritten and freed.
    let lone = m.alloc_from(&[3], vec![1.0, 2.0, 3.0]);
    steps.push(unit(m.assign(lone, lone)));
    steps.push(elems(m.read(lone)));

    // Finals moved out; a handle taken or freed twice.
    steps.push(elems(m.take(a)));
    steps.push(elems(m.take(a)));
    steps.push(unit(m.free(a)));
    steps.push(elems(m.take(b)));
    steps.push(unit(m.assign(b, b)));

    let (stats, digest) = m.observed();
    Transcript {
        steps,
        stats,
        digest,
        program_arrays: m.program_arrays(),
    }
}

fn moves_match_the_composition<M: Probe>() {
    let moved = script::<M>();
    assert_eq!(moved, script::<Composed<M>>());
    assert_eq!(moved.program_arrays, 0);
    let failures = moved.steps.iter().filter(|s| s.is_err()).count();
    assert_eq!(failures, 10, "every error path ran: {:?}", moved.steps);
}

#[test]
fn cm2_moves_match_the_default_composition() {
    moves_match_the_composition::<Cm2>();
}

#[test]
fn accel_moves_match_the_default_composition() {
    moves_match_the_composition::<Accel>();
}

#[test]
fn mimd_moves_match_the_default_composition() {
    moves_match_the_composition::<MimdMachine>();
}

/// A host program through every hand-off the executor makes: `A =
/// CSHIFT(A, …)` and an `EOSHIFT` into another array (`assign`), an
/// array declared inside a `DO` (captured and freed per trip), a
/// host-context `CSHIFT` of a composite argument (`take` of the shifted
/// temporary), and the finals. All arrays share one shape, so the
/// accelerator's transfers are the same whatever order the finals leave
/// in.
fn hand_off_program() -> CompiledProgram {
    let field = || dfield(domain("s"), float64());
    let whole = |name: &str| ld(name, everywhere());
    let shift_of = |name: &str, arg, extra: Vec<_>| {
        let mut args = vec![(float64(), arg), (int32(), int(1)), (int32(), int(1))];
        args.extend(extra);
        fcncall(name, args)
    };
    let trip = with_decl(
        decl("w", field()),
        seq(vec![
            mv(avar("w", everywhere()), add(whole("a"), whole("b"))),
            mv(avar("b", everywhere()), mul(whole("w"), f64c(0.5))),
        ]),
    );
    let body = seq(vec![
        mv(avar("a", everywhere()), local_under(domain("s"), 1)),
        mv(
            avar("a", everywhere()),
            shift_of("cshift", whole("a"), vec![]),
        ),
        mv(
            avar("b", everywhere()),
            shift_of("eoshift", whole("a"), vec![(float64(), f64c(-3.5))]),
        ),
        do_over("t", serial_interval(1, 3), trip),
        mv(
            avar("c", everywhere()),
            shift_of("cshift", add(whole("a"), whole("b")), vec![]),
        ),
    ]);
    let decls = declset(vec![
        decl("a", field()),
        decl("b", field()),
        decl("c", field()),
    ]);
    let p = program(with_domain("s", interval(1, 32), with_decl(decls, body)));
    f90y_backend::compile(&p).expect("compiles")
}

/// Finals (as bits, by name), stats, digest and live program arrays of
/// one run of `program` on a fresh machine.
fn executed<M: Probe>(program: &CompiledProgram) -> (BTreeMap<String, Vec<u64>>, Transcript) {
    let mut m = M::fresh();
    let run = HostExecutor::new(&mut m).run(program).expect("runs");
    let finals = run.finals().iter().map(|(name, f)| {
        let elems = match f {
            Final::Scalar(x) => vec![x.to_bits()],
            Final::Array(v) => bits(v),
        };
        (name.clone(), elems)
    });
    let finals = finals.collect();
    let (stats, digest) = m.observed();
    let rest = Transcript {
        steps: Vec::new(),
        stats,
        digest,
        program_arrays: m.program_arrays(),
    };
    (finals, rest)
}

fn runs_match_and_leave_nothing_behind<M: Probe>() {
    let program = hand_off_program();
    let moved = executed::<M>(&program);
    assert_eq!(moved, executed::<Composed<M>>(&program));
    let (finals, rest) = moved;
    assert_eq!(rest.program_arrays, 0, "only the coordinate cache stays");
    for name in ["a", "b", "c", "w"] {
        assert_eq!(finals[name].len(), 32, "{name} captured whole");
    }
}

#[test]
fn a_finished_run_leaves_no_program_array_on_the_cm2() {
    runs_match_and_leave_nothing_behind::<Cm2>();
}

#[test]
fn a_finished_run_leaves_no_program_array_on_the_accelerator() {
    runs_match_and_leave_nothing_behind::<Accel>();
}

#[test]
fn a_finished_run_leaves_no_program_array_on_the_mimd_engine() {
    runs_match_and_leave_nothing_behind::<MimdMachine>();
}

/// The same through the front end: source programs, all three targets'
/// finals bit-identical, nothing left allocated.
#[test]
fn compiled_sources_leave_no_program_array_on_any_machine() {
    let sources = [
        "REAL a(16,16)\nFORALL (i=1:16, j=1:16) a(i,j) = i + 0.25*j\na = CSHIFT(a, 1, 1)\n",
        "REAL a(8,8), b(8,8)\nREAL s\nINTEGER k\na = 2.0\n\
         DO 10 k = 1, 3\nb = EOSHIFT(a, DIM=2, SHIFT=-1) + a\na = b*0.5\n10 CONTINUE\ns = SUM(a)\n",
    ];
    for src in sources {
        let exe = f90y_core::Compiler::new(f90y_core::Pipeline::F90y)
            .compile(src)
            .expect("compiles");
        let cm2 = executed::<Cm2>(&exe.compiled);
        let accel = executed::<Accel>(&exe.compiled);
        let mimd = executed::<MimdMachine>(&exe.compiled);
        assert_eq!(cm2.0, accel.0);
        assert_eq!(cm2.0, mimd.0);
        for rest in [cm2.1, accel.1, mimd.1] {
            assert_eq!(rest.program_arrays, 0);
        }
    }
}
