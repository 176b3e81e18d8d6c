//! # fluidicl-vcl — a virtual OpenCL runtime
//!
//! A from-scratch implementation of the OpenCL subset the FluidiCL paper
//! builds on (paper §2, §7), running over the simulated heterogeneous
//! machine from [`fluidicl_hetsim`]:
//!
//! * [`NdRange`] — 1–3-D index spaces with work-group flattening (paper
//!   Figure 5) and the covering-slice offset computation of paper §5.2;
//! * [`Memory`] / [`BufferId`] — discrete per-device address spaces and the
//!   [`diff_merge`] coherence primitive of paper §4.3, with the
//!   [`WorkCounters`] of the host work done in each;
//! * [`KernelDef`] / [`Program`] — kernels as per-work-item Rust closures
//!   (optionally paired with a bit-identical work-group range [`GroupBody`])
//!   with declared `in`/`out`/`inout` signatures, cost profiles, and
//!   alternate versions for online profiling (paper §6.6);
//! * [`exec`] — the functional executor that really computes kernel results
//!   for any flattened work-group range, so partitioning bugs corrupt real
//!   data;
//! * [`access`] — a shadow-memory layer over the executor recording
//!   per-work-group read/write sets for the `fluidicl-check` sanitizer;
//! * [`ClDriver`] — the driver trait every runtime (single-device, FluidiCL,
//!   static partition, SOCL) implements, letting one host program run on all
//!   of them;
//! * [`SingleDeviceRuntime`] — the vendor-runtime stand-in used for the
//!   paper's CPU-only and GPU-only baselines: one in-order device queue
//!   (paper §2) over its own address space and clock.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod dirty;
mod driver;
mod error;
pub mod exec;
pub mod fault;
pub mod footprint;
mod kernel;
mod memory;
mod ndrange;
mod single;
mod work;

pub use access::{
    execute_groups_shadowed, execute_groups_shadowed_per_item, AccessRecord, WriteMap,
};
pub use dirty::DirtyRanges;
pub use driver::{ClDriver, DeviceKind};
pub use error::{ClError, ClResult};
pub use exec::{execute_groups_injected, execute_groups_per_item, Launch, LaunchPlan};
pub use fault::{
    payload_checksum, payload_checksum_with, FaultInjector, FaultKind, FaultPlan, TransferFate,
};
pub use footprint::{AccessPattern, RangeFn};
pub use kernel::{
    ArgRole, ArgSpec, GroupBody, Inputs, KernelArg, KernelBody, KernelDef, KernelVersion, Outputs,
    Program, Scalars,
};
pub use memory::{diff_merge, diff_merge_ranged, BufferId, Memory};
pub use ndrange::{NdRange, WorkItem};
pub use single::SingleDeviceRuntime;
pub use work::WorkCounters;
