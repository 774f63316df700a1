//! # f90y-accel — an accelerator-style third target
//!
//! The paper's §5.3 argues the prototype's value is how cheaply it
//! retargets: the CM/5 port "retains the majority of its structure".
//! This crate pushes the claim past the paper's two machines to a third
//! execution model — a host-directed accelerator in the mold of
//! ForOpenCL's Fortran-to-OpenCL translation (PAPERS.md): array
//! statements become **kernel launches** over a device memory region,
//! and every host↔device byte is an explicit **transfer event** on the
//! simulated clock.
//!
//! The same compiled host program drives all three targets through
//! [`f90y_backend::Machine`]; nothing upstream of the machine changes.
//! What distinguishes this target is entirely in its capability
//! manifest ([`f90y_hal::ACCEL`]) and its accounting:
//!
//! * [`config`] — [`AccelConfig`]: compute units and the manifest cost
//!   table (device clock, launch overhead, bus transfer costs);
//! * [`machine`] — [`Accel`]: device arrays, kernel launches run in
//!   place by the shared PEAC kernel, device-side shifts/reductions,
//!   and the transfer ledger ([`AccelStats`]) in which — unlike the
//!   CM/2's free front-end peek — **every** host read or write of
//!   device memory is a charged DMA transfer.
//!
//! Data is bit-identical to the other targets by construction (shared
//! arithmetic, shared shift reference, canonical reduction order); the
//! three-way differential suite asserts it end to end.
//!
//! ## Example
//!
//! ```
//! use f90y_accel::{run, AccelConfig};
//!
//! let unit = f90y_frontend::parse("REAL A(32,32), S\nA = A + 1.0\nS = SUM(A)\n")?;
//! let nir = f90y_lowering::lower(&unit)?;
//! let optimized = f90y_transform::optimize(&nir)?;
//! let compiled = f90y_backend::compile(&optimized)?;
//!
//! let (run, stats) = run(&compiled, &AccelConfig::new(16))?;
//! assert_eq!(run.final_scalar("s")?, 1024.0);
//! assert_eq!(stats.kernel_launches, 1);
//! assert!(stats.h2d_transfers + stats.d2h_transfers > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod config;
pub mod machine;

pub use config::AccelConfig;
pub use machine::{Accel, AccelStats, DeviceId};

use f90y_backend::fe::{HostExecutor, HostRun};
use f90y_backend::{BackendError, CompiledProgram};

/// Execute a compiled program on a fresh accelerator; returns the
/// host-run results and the machine statistics.
///
/// # Errors
///
/// Fails on host-execution or runtime errors.
pub fn run(
    compiled: &CompiledProgram,
    config: &AccelConfig,
) -> Result<(HostRun, AccelStats), BackendError> {
    let mut machine = Accel::new(config.clone());
    let run = HostExecutor::new(&mut machine).run(compiled)?;
    let stats = machine.stats();
    Ok((run, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile(src: &str) -> CompiledProgram {
        let unit = f90y_frontend::parse(src).expect("parses");
        let nir = f90y_lowering::lower(&unit).expect("lowers");
        let optimized = f90y_transform::optimize(&nir).expect("optimizes");
        f90y_backend::compile(&optimized).expect("compiles")
    }

    #[test]
    fn whole_program_matches_the_cm2() {
        let compiled = compile(
            "
REAL v(32,32), t(32,32), s
FORALL (i=1:32, j=1:32) v(i,j) = MOD(i+j, 7)
DO step = 1, 3
  t = CSHIFT(v, DIM=1, SHIFT=1)
  v = 0.5*(v + t) + 0.25*v*t
END DO
s = SUM(v)
",
        );
        let (accel_run, stats) = run(&compiled, &AccelConfig::new(16)).expect("accel run");
        let mut cm = f90y_cm2::Cm2::new(f90y_cm2::Cm2Config::slicewise(16));
        let cm_run = f90y_backend::fe::HostExecutor::new(&mut cm)
            .run(&compiled)
            .expect("cm2 run");
        assert_eq!(
            accel_run.final_array("v").unwrap(),
            cm_run.final_array("v").unwrap()
        );
        assert_eq!(
            accel_run.final_scalar("s").unwrap().to_bits(),
            cm_run.final_scalar("s").unwrap().to_bits()
        );
        assert!(stats.kernel_launches > 0);
        assert!(stats.comm_calls > 0);
        // The finals read-back itself crossed the bus.
        assert!(stats.d2h_transfers > 0);
        stats.verify().expect("stats invariants");
    }

    #[test]
    fn gflops_are_positive_and_below_peak() {
        let compiled = compile("REAL a(64,64)\na = a + 1.0\n");
        let config = AccelConfig::new(64);
        let (_, stats) = run(&compiled, &config).expect("runs");
        assert!(stats.gflops(&config) > 0.0);
        assert!(stats.gflops(&config) < config.peak_gflops());
    }
}
