//! # fluidicl-suite — umbrella crate for the FluidiCL reproduction
//!
//! A full reimplementation of *Fluidic Kernels: Cooperative Execution of
//! OpenCL Programs on Multiple Heterogeneous Devices* (Pandit &
//! Govindarajan, CGO 2014) in Rust, over a simulated CPU+GPU node.
//!
//! This crate re-exports the workspace members under stable paths and hosts
//! the runnable examples (`examples/`) and cross-crate integration tests
//! (`tests/`). Start with [`runtime::Fluidicl`] and the `quickstart`
//! example:
//!
//! ```bash
//! cargo run --release --example quickstart
//! cargo run --release -p fluidicl-bench --bin repro all
//! ```
//!
//! Crate map:
//!
//! * [`des`] — deterministic discrete-event engine (virtual time).
//! * [`hetsim`] — CPU/GPU/link performance models of the paper's testbed.
//! * [`vcl`] — the OpenCL-style runtime (buffers, kernels, NDRanges,
//!   single-device execution).
//! * [`runtime`] — FluidiCL itself.
//! * [`polybench`] — the benchmark applications: nine Polybench apps (the
//!   paper's six plus MVT, GEMM and 2MM) and the BATCHMM kernel-graph
//!   workload.
//! * [`baselines`] — static partitioning, OracleSP and SOCL (eager/dmda).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use fluidicl as runtime;
pub use fluidicl_baselines as baselines;
pub use fluidicl_des as des;
pub use fluidicl_hetsim as hetsim;
pub use fluidicl_polybench as polybench;
pub use fluidicl_vcl as vcl;

/// Convenience prelude importing the types most host programs need.
pub mod prelude {
    pub use fluidicl::{Fluidicl, FluidiclConfig};
    pub use fluidicl_hetsim::{AbortMode, KernelProfile, MachineConfig};
    pub use fluidicl_vcl::{
        ArgRole, ArgSpec, ClDriver, ClError, ClResult, DeviceKind, KernelArg, KernelDef, NdRange,
        Program, SingleDeviceRuntime,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_reexports_compile() {
        use crate::prelude::*;
        let _ = MachineConfig::paper_testbed();
        let _ = FluidiclConfig::default();
        let _ = Program::new();
    }
}
