//! # fluidicl-des — deterministic discrete-event simulation engine
//!
//! Virtual-time substrate for the FluidiCL reproduction. The paper's runtime
//! coordinates a CPU and a GPU with asynchronous data transfers; everything
//! schedule-dependent in that protocol (when a status message reaches the
//! GPU, whether the GPU wave had already started, which device finishes a
//! kernel first) is a question about *event ordering in time*. This crate
//! provides the timeline:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time.
//! * [`Simulation`] — a generic event queue with deterministic total
//!   ordering `(timestamp, scheduling sequence)`, lazy cancellation, and a
//!   caller-owned dispatch loop.
//! * [`SplitMix64`] — the seeded generator behind fault plans, benchmark
//!   data and the randomized property tests.
//! * [`geomean`] — the geometric mean the experiment harness reports.
//!
//! A resource that serializes timed operations (a transfer link, a
//! staging-copy engine) needs no type of its own: its clock is a plain
//! [`SimTime`] advanced as `free = free.max(now) + duration`.
//!
//! The engine is intentionally synchronous and single-threaded: determinism
//! is a feature. Two runs of the same experiment produce bit-identical
//! timelines, which makes the paper's figures reproducible artifacts rather
//! than noisy measurements.
//!
//! # Example
//!
//! ```
//! use fluidicl_des::{SimDuration, Simulation};
//!
//! #[derive(Debug)]
//! enum Ev {
//!     TransferDone,
//!     KernelDone,
//! }
//!
//! let mut sim = Simulation::new();
//! let start = sim.now();
//! sim.schedule_at(start + SimDuration::from_micros(25), Ev::KernelDone);
//! sim.schedule_at(start + SimDuration::from_micros(10), Ev::TransferDone);
//! let (t, first) = sim.pop().unwrap();
//! assert!(matches!(first, Ev::TransferDone));
//! assert_eq!(t, fluidicl_des::SimTime::from_nanos(10_000));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod rng;
mod sim;
mod stats;
mod time;

pub use rng::SplitMix64;
pub use sim::{EventToken, Simulation};
pub use stats::geomean;
pub use time::{SimDuration, SimTime};
