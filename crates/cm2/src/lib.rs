//! # f90y-cm2 — Connection Machine CM/2 slicewise machine simulator
//!
//! The paper's target (its §2.2): "up to 2,048 Slicewise Processing
//! Elements (nodes or PEs), each consisting of 32 bit-serial processors
//! coupled with one Weitek WTL3164 64-bit floating-point ALU … connected
//! by a 12-dimensional boolean hypercube with two wires along each
//! dimension." Each PE synchronously executes PEAC instructions issued
//! from the CM sequencer.
//!
//! The real machine is gone; this crate is the documented substitution
//! (DESIGN.md §2): a deterministic machine model with
//!
//! * [`config`] — machine configuration (node count, clock, cost
//!   multipliers for the fieldwise execution model);
//! * [`layout`] — the runtime system's blockwise layout of shapes onto
//!   PEs and the virtual-subgrid geometry;
//! * [`costs`] — dispatch, grid-communication, router and reduction cost
//!   models with their justifications;
//! * [`dispatch`] — the in-place PEAC dispatch data plane (argument
//!   validation, argument→slab mapping) shared with the other machines;
//! * [`machine`] — CM arrays in (simulated) CM memory plus the machine
//!   state and cycle/flop accounting;
//! * [`runtime`] — the CM runtime system (CMRT) surface the compiled
//!   host program calls: allocation, coordinate subgrids, `CSHIFT`/
//!   `EOSHIFT` grid communication, router copies, reductions, and PEAC
//!   dispatch over the IFIFO.
//!
//! Numerical results are exact (communication runs on the full arrays;
//! PEAC dispatch executes every lane through `f90y-peac`), while time is
//! *modelled*: every runtime call charges node cycles from [`costs`],
//! and `GFLOPS = flops / (node_cycles / clock)`.

pub mod config;
pub mod costs;
pub mod dispatch;
pub mod layout;
pub mod machine;
pub mod runtime;

pub use config::Cm2Config;
pub use layout::Layout;
pub use machine::{ArrayId, Cm2, CycleProfile, MachineStats, PhaseCycles, TraceEvent};
pub use runtime::ReduceOp;

use std::error::Error;
use std::fmt;

/// Errors from the machine model.
#[derive(Debug, Clone, PartialEq)]
pub enum Cm2Error {
    /// A bad runtime call (unknown array, rank mismatch, bad axis).
    Runtime(String),
    /// A PEAC-level fault surfaced through dispatch.
    Peac(String),
    /// A fault-injected run exhausted its recovery budgets (message
    /// retries or node restarts) and cannot make progress. Carried as a
    /// distinct variant so drivers can tell "the program is wrong" from
    /// "the injected faults exceeded what recovery was provisioned
    /// for".
    Unrecoverable(String),
}

impl fmt::Display for Cm2Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cm2Error::Runtime(m) => write!(f, "CM runtime error: {m}"),
            Cm2Error::Peac(m) => write!(f, "PEAC fault: {m}"),
            Cm2Error::Unrecoverable(m) => write!(f, "unrecoverable fault: {m}"),
        }
    }
}

impl Error for Cm2Error {}

impl From<f90y_peac::PeacError> for Cm2Error {
    fn from(e: f90y_peac::PeacError) -> Self {
        Cm2Error::Peac(e.to_string())
    }
}
