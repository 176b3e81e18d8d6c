//! # fluidicl — the FluidiCL runtime
//!
//! Reproduction of the runtime from *Fluidic Kernels: Cooperative Execution
//! of OpenCL Programs on Multiple Heterogeneous Devices* (Pandit &
//! Govindarajan, CGO 2014). FluidiCL takes an OpenCL program written for a
//! single device and executes **every kernel on both the CPU and the GPU**:
//!
//! * the GPU starts work-groups from flattened ID 0 upward; CPU *subkernels*
//!   take them from the top downward, so the devices close in on each other
//!   and the kernel "flows" toward the faster device;
//! * after each subkernel the CPU ships its results and a status message to
//!   the GPU over an in-order queue, so work only counts as CPU-complete
//!   once its data has arrived — transfer overhead is part of the decision;
//! * GPU work-groups poll the status and abort when already covered; a
//!   diff-merge kernel folds the CPU results into the GPU buffer;
//! * buffer versions and data-location tracking keep multi-kernel programs
//!   coherent while overlapping transfers with execution.
//!
//! The crate exposes [`Fluidicl`], which implements the same
//! [`fluidicl_vcl::ClDriver`] API as the single-device runtime — host
//! programs swap runtimes without modification, mirroring the paper's
//! find-and-replace integration (§5). Execution is *functional over virtual
//! time*: results are really computed, timings come from the
//! [`fluidicl_hetsim`] machine models, and the interleaving is played out by
//! a deterministic event simulation.
//!
//! # Example
//!
//! See [`Fluidicl`] for a complete end-to-end example.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffers;
mod chunk;
mod coexec;
mod config;
mod endpoint;
mod frontier;
pub mod graph;
pub mod heft;
mod lint;
mod recover;
pub mod replay;
mod roster;
mod runtime;
mod stats;
mod trace;

pub use buffers::{BufferState, BufferTable, KernelId, PoolStats, ScratchPool};
pub use chunk::ChunkController;
pub use config::FluidiclConfig;
pub use endpoint::{CpuEndpoint, NonOwnerEndpoint, PeerGpuEndpoint};
pub use fluidicl_vcl::WorkCounters;
pub use frontier::{Coverage, Frontier};
pub use graph::{DepKind, GraphEdge, GraphNodeSummary, GraphSchedule, NodeAccess};
pub use heft::{HeftEdge, HeftPlan, WeightTable};
pub use lint::{lint_report, lint_trace, LintDiagnostic, LintSeverity};
pub use roster::DeviceRoster;
pub use runtime::Fluidicl;
pub use stats::{Finisher, KernelReport, LaunchMeta, RuntimeSummary};
pub use trace::{render_lanes, render_timeline, Lane, TraceEvent, TraceKind, STATUS_MSG_BYTES};
