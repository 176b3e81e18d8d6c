//! End-to-end benchmark of the FluidiCL reproduction.
//!
//! The system runs on two clocks. *Virtual time* is the reproduction's
//! result: the simulated makespan of each app, transfers included, which is
//! deterministic. *Host time* is how fast the runtime and simulator produce
//! it. Each workload is a closed loop over a fixed list of cells; the
//! untraced run measures the end-to-end metrics, and a separate traced run
//! splits host time across layers with spans recorded around the calls
//! into each layer. See `README.md` for the metric and workload tables.

pub mod cells;
pub mod json;
pub mod run;
pub mod trace;
pub mod virt;

pub use cells::{all_cells, Cell, Machine, Workload};
pub use run::{
    lint_reports, median, race_reports, run_app, run_workload, Failure, Metric, Options, Outcome,
    Tally, DEFAULT_SEED,
};
pub use trace::{Layer, NullDriver, Recorder, Span, TimedDriver};
