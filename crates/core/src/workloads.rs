//! Benchmark workload generators.
//!
//! Every workload is a Fortran 90 *source generator* parameterised by
//! problem size, so the same text goes through whichever pipeline a
//! harness selects. Sizes are emitted as literals (the front end
//! requires literal array bounds; see `f90y-lowering` docs).

/// The shallow-water-equations benchmark of the paper's §6: "an updated
/// Fortran-90 version of a dusty deck code to implement a meteorological
/// model … It has good locality, consisting of a series of circular
/// shifts interspersed with blocks of local computation, and so
/// represents an ideal problem for a SIMD, data-parallel machine like
/// the CM/2."
///
/// This is the Sadourny scheme on a periodic `n × n` grid (the classic
/// `swm256` structure): per time step, the `cu`/`cv`/`z`/`h` stage, the
/// `unew`/`vnew`/`pnew` update stage, and the Robert–Asselin time
/// smoothing — 13 whole-array statements and 17 circular shifts.
/// Coefficients are scaled small so long runs stay numerically tame for
/// validation.
pub fn swe_source(n: usize, itmax: usize) -> String {
    format!(
        "
PROGRAM swe
REAL u({n},{n}), v({n},{n}), p({n},{n})
REAL unew({n},{n}), vnew({n},{n}), pnew({n},{n})
REAL uold({n},{n}), vold({n},{n}), pold({n},{n})
REAL cu({n},{n}), cv({n},{n}), z({n},{n}), h({n},{n})
REAL fsdx, fsdy, tdts8, tdtsdx, tdtsdy, alpha

fsdx = 0.004
fsdy = 0.004
tdts8 = 0.0000125
tdtsdx = 0.0001
tdtsdy = 0.0001
alpha = 0.001

! Smooth periodic-ish initial conditions.
FORALL (i=1:{n}, j=1:{n}) p(i,j) = 2000.0 + 10*MOD(i*j, 17)
FORALL (i=1:{n}, j=1:{n}) u(i,j) = MOD(i + 2*j, 5) - 2
FORALL (i=1:{n}, j=1:{n}) v(i,j) = MOD(3*i + j, 7) - 3
uold = u
vold = v
pold = p

DO 100 ncycle = 1, {itmax}
  ! Stage 1: capital U, capital V, vorticity Z, height H.
  cu = 0.5*(p + CSHIFT(p, DIM=1, SHIFT=-1))*u
  cv = 0.5*(p + CSHIFT(p, DIM=2, SHIFT=-1))*v
  z = (fsdx*(v - CSHIFT(v, DIM=1, SHIFT=-1)) - fsdy*(u - CSHIFT(u, DIM=2, SHIFT=-1))) &
      / (p + CSHIFT(p, DIM=1, SHIFT=-1) + CSHIFT(p, DIM=2, SHIFT=-1) &
         + CSHIFT(CSHIFT(p, DIM=1, SHIFT=-1), DIM=2, SHIFT=-1))
  h = p + 0.25*(u*u + CSHIFT(u, DIM=1, SHIFT=1)*CSHIFT(u, DIM=1, SHIFT=1)) &
        + 0.25*(v*v + CSHIFT(v, DIM=2, SHIFT=1)*CSHIFT(v, DIM=2, SHIFT=1))

  ! Stage 2: the leapfrog update.
  unew = uold + tdts8*(CSHIFT(z, DIM=2, SHIFT=1) + z) &
                *(CSHIFT(cv, DIM=2, SHIFT=1) + cv + CSHIFT(cv, DIM=1, SHIFT=-1)) &
              - tdtsdx*(CSHIFT(h, DIM=1, SHIFT=1) - h)
  vnew = vold - tdts8*(CSHIFT(z, DIM=1, SHIFT=1) + z) &
                *(CSHIFT(cu, DIM=1, SHIFT=1) + cu + CSHIFT(cu, DIM=2, SHIFT=-1)) &
              - tdtsdy*(CSHIFT(h, DIM=2, SHIFT=1) - h)
  pnew = pold - tdtsdx*(cu - CSHIFT(cu, DIM=1, SHIFT=-1)) &
              - tdtsdy*(cv - CSHIFT(cv, DIM=2, SHIFT=-1))

  ! Stage 3: Robert–Asselin time smoothing, then rotate time levels.
  uold = u + alpha*(unew - 2.0*u + uold)
  vold = v + alpha*(vnew - 2.0*v + vold)
  pold = p + alpha*(pnew - 2.0*p + pold)
  u = unew
  v = vnew
  p = pnew
100 CONTINUE
END PROGRAM swe
"
    )
}

/// A 2D heat-diffusion (five-point stencil) kernel — the kind of
/// fine-grain stencil code the paper's introduction says motivated
/// Thinking Machines' separate convolution compiler.
pub fn heat_source(n: usize, steps: usize) -> String {
    format!(
        "
PROGRAM heat
REAL t({n},{n}), tnew({n},{n})
REAL kappa
kappa = 0.1
FORALL (i=1:{n}, j=1:{n}) t(i,j) = MOD(i*31 + j*17, 100)
DO 10 step = 1, {steps}
  tnew = t + kappa*(CSHIFT(t, DIM=1, SHIFT=1) + CSHIFT(t, DIM=1, SHIFT=-1) &
                  + CSHIFT(t, DIM=2, SHIFT=1) + CSHIFT(t, DIM=2, SHIFT=-1) - 4.0*t)
  t = tnew
10 CONTINUE
END PROGRAM heat
"
    )
}

/// Conway's Game of Life via masked whole-array assignment — exercises
/// comparisons, logical masks and `WHERE`-style conditional moves.
pub fn life_source(n: usize, steps: usize) -> String {
    format!(
        "
PROGRAM life
INTEGER g({n},{n}), neigh({n},{n})
FORALL (i=1:{n}, j=1:{n}) g(i,j) = MOD(i*7 + j*13 + i*j, 3)/2
DO 10 step = 1, {steps}
  neigh = CSHIFT(g, DIM=1, SHIFT=1) + CSHIFT(g, DIM=1, SHIFT=-1) &
        + CSHIFT(g, DIM=2, SHIFT=1) + CSHIFT(g, DIM=2, SHIFT=-1) &
        + CSHIFT(CSHIFT(g, DIM=1, SHIFT=1), DIM=2, SHIFT=1) &
        + CSHIFT(CSHIFT(g, DIM=1, SHIFT=1), DIM=2, SHIFT=-1) &
        + CSHIFT(CSHIFT(g, DIM=1, SHIFT=-1), DIM=2, SHIFT=1) &
        + CSHIFT(CSHIFT(g, DIM=1, SHIFT=-1), DIM=2, SHIFT=-1)
  WHERE (neigh < 2)
    g = 0
  END WHERE
  WHERE (neigh > 3)
    g = 0
  END WHERE
  WHERE (neigh == 3)
    g = 1
  END WHERE
10 CONTINUE
END PROGRAM life
"
    )
}

/// A red-black Gauss–Seidel relaxation sweep: the strided-section
/// masked-assignment pattern of the paper's Figure 10 in a realistic
/// kernel. Each half-sweep updates one parity class of a checkerboard;
/// the mask-padding transformation turns the strided sections into
/// masked full-array moves that block together.
pub fn redblack_source(n: usize, sweeps: usize) -> String {
    format!(
        "
PROGRAM redblack
REAL u({n},{n}), rhs({n},{n}), nb({n},{n})
FORALL (i=1:{n}, j=1:{n}) u(i,j) = MOD(i*5 + j*11, 23)
FORALL (i=1:{n}, j=1:{n}) rhs(i,j) = MOD(i + j, 7) - 3
DO 10 sweep = 1, {sweeps}
  nb = 0.25*(CSHIFT(u, DIM=1, SHIFT=1) + CSHIFT(u, DIM=1, SHIFT=-1) &
           + CSHIFT(u, DIM=2, SHIFT=1) + CSHIFT(u, DIM=2, SHIFT=-1) - rhs)
  u(1:{m}:2,:) = nb(1:{m}:2,:)
  nb = 0.25*(CSHIFT(u, DIM=1, SHIFT=1) + CSHIFT(u, DIM=1, SHIFT=-1) &
           + CSHIFT(u, DIM=2, SHIFT=1) + CSHIFT(u, DIM=2, SHIFT=-1) - rhs)
  u(2:{n}:2,:) = nb(2:{n}:2,:)
10 CONTINUE
END PROGRAM redblack
",
        m = n - 1
    )
}

/// The paper's §2.1 dusty-deck fragment (Fortran 77 form).
pub fn fig_section21_f77() -> &'static str {
    "
INTEGER K(128,64), L(128)
DO 10 I=1,128
   L(I) = 6
   DO 20 J=1,64
      K(I,J) = 2*K(I,J) + 5
20 CONTINUE
10 CONTINUE
"
}

/// The paper's §2.1 Fortran 90 replacement.
pub fn fig_section21_f90() -> &'static str {
    "INTEGER K(128,64), L(128)\nL = 6\nK = 2*K + 5\n"
}

/// The paper's Figure 7 FORALL example.
pub fn fig7_source() -> &'static str {
    "INTEGER, ARRAY(32,32) :: A\nFORALL (i=1:32, j=1:32) A(i,j) = i+j\n"
}

/// The paper's Figure 9 program (source form).
pub fn fig9_source() -> &'static str {
    "
INTEGER, ARRAY(64,64) :: A, B
INTEGER, ARRAY(64) :: C
FORALL (i=1:64, j=1:64) B(i,j) = 10*i + j
FORALL (i=1:64, j=1:64) A(i,j) = B(i,j) + j
DO 20 I=1,64
   C(I) = A(I,I)
20 CONTINUE
B = A
"
}

/// The paper's Figure 10 program (source form).
pub fn fig10_source() -> &'static str {
    "
INTEGER, ARRAY(32,32) :: A, B
INTEGER, ARRAY(32) :: C
INTEGER N
N = 7
A = N
B(1:31:2,:) = A(1:31:2,:)
C = N+1
B(2:32:2,:) = 5*A(2:32:2,:)
"
}

/// The paper's Figure 12 SWE excerpt: the single statement it compiles
/// to PEAC, with the temporaries pre-communicated as its NIR shows.
pub fn fig12_source(n: usize) -> String {
    format!(
        "
PROGRAM excerpt
REAL u({n},{n}), v({n},{n}), p({n},{n}), z({n},{n})
REAL fsdx, fsdy
fsdx = 0.004
fsdy = 0.004
FORALL (i=1:{n}, j=1:{n}) u(i,j) = MOD(i + 2*j, 5) - 2
FORALL (i=1:{n}, j=1:{n}) v(i,j) = MOD(3*i + j, 7) - 3
FORALL (i=1:{n}, j=1:{n}) p(i,j) = 2000.0 + 10*MOD(i*j, 17)
z = (fsdx*(v - CSHIFT(v, DIM=1, SHIFT=-1)) - fsdy*(u - CSHIFT(u, DIM=2, SHIFT=-1))) &
    / (p + CSHIFT(p, DIM=1, SHIFT=-1))
END PROGRAM excerpt
"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Compiler, Pipeline};

    #[test]
    fn swe_compiles_and_validates() {
        let exe = Compiler::new(Pipeline::F90y)
            .compile(&swe_source(8, 2))
            .unwrap();
        exe.validate().unwrap();
        assert!(!exe.compiled.blocks.is_empty());
    }

    #[test]
    fn heat_compiles_and_validates() {
        Compiler::new(Pipeline::F90y)
            .compile(&heat_source(8, 3))
            .unwrap()
            .validate()
            .unwrap();
    }

    #[test]
    fn life_compiles_and_validates() {
        Compiler::new(Pipeline::F90y)
            .compile(&life_source(8, 2))
            .unwrap()
            .validate()
            .unwrap();
    }

    #[test]
    fn paper_figures_compile_and_validate() {
        for src in [
            fig_section21_f77().to_string(),
            fig_section21_f90().to_string(),
            fig7_source().to_string(),
            fig9_source().to_string(),
            fig10_source().to_string(),
            fig12_source(8),
        ] {
            Compiler::new(Pipeline::F90y)
                .compile(&src)
                .unwrap()
                .validate()
                .unwrap();
        }
    }

    /// The comm-cse satellite: the SWE time step re-reads the same
    /// shifted arrays (`CSHIFT(p, DIM=1, SHIFT=-1)` feeds `cu`, `z` and
    /// `h`), so deduplicating identical hoists must shrink both the
    /// temporary count and the Fig. 11 partition's communication side.
    #[test]
    fn swe_comm_cse_prunes_temporaries_and_comm_phases() {
        let src = swe_source(8, 1);
        let with_cse = Compiler::new(Pipeline::F90y).compile(&src).unwrap();
        let without_cse = Compiler::new(Pipeline::F90y)
            .passes(["comm-split", "mask-pad", "blocking", "dce-temps"])
            .compile(&src)
            .unwrap();
        assert!(with_cse.report.comm_merged > 0, "SWE must trigger comm-cse");

        // Fewer tmp* declarations survive in the optimized NIR.
        let count_tmps = |imp: &f90y_nir::Imp| {
            let mut n = 0usize;
            imp.walk(&mut |i| {
                if let f90y_nir::Imp::WithDecl(d, _) = i {
                    n += d
                        .bindings()
                        .iter()
                        .filter(|(id, _, _)| id.starts_with("tmp"))
                        .count();
                }
            });
            n
        };
        let tmps_with = count_tmps(&with_cse.optimized);
        let tmps_without = count_tmps(&without_cse.optimized);
        assert!(
            tmps_with < tmps_without,
            "comm-cse must delete temporaries: {tmps_with} vs {tmps_without}"
        );

        // Strictly fewer runtime communication calls in the partition.
        let comm_with = with_cse.compiled.host.counts.comms;
        let comm_without = without_cse.compiled.host.counts.comms;
        assert!(
            comm_with < comm_without,
            "comm-cse must cut communication phases: {comm_with} vs {comm_without}"
        );

        // And the cleanup must not change what the program computes.
        with_cse.validate().unwrap();
    }

    #[test]
    fn swe_blocking_groups_statements() {
        let exe = Compiler::new(Pipeline::F90y)
            .compile(&swe_source(16, 2))
            .unwrap();
        let cmf = Compiler::new(Pipeline::Cmf)
            .compile(&swe_source(16, 2))
            .unwrap();
        assert!(
            exe.compiled.blocks.len() < cmf.compiled.blocks.len(),
            "blocking must reduce SWE phases: {} vs {}",
            exe.compiled.blocks.len(),
            cmf.compiled.blocks.len()
        );
    }
}
