//! What the benchmark runs: cells (one app at one size on one machine) and
//! the four workloads built from them.

use fluidicl_hetsim::MachineConfig;
use fluidicl_polybench::{all_benchmarks, benchmarks, pipeline_benchmark, BenchmarkSpec};

/// A simulated machine a cell runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Machine {
    /// The paper's CPU + GPU testbed: the two-device watermark protocol.
    TwoDev,
    /// The testbed plus a mid-range peer GPU: the shared-frontier protocol.
    ThreeDev,
}

impl Machine {
    /// Name used in cell keys.
    pub fn name(self) -> &'static str {
        match self {
            Machine::TwoDev => "paper-testbed",
            Machine::ThreeDev => "paper-testbed-3dev",
        }
    }

    /// The machine model.
    pub fn config(self) -> MachineConfig {
        match self {
            Machine::TwoDev => MachineConfig::paper_testbed(),
            Machine::ThreeDev => MachineConfig::paper_testbed_3dev(),
        }
    }
}

/// One app at one problem size on one machine, run with the default
/// `FluidiclConfig` on a fresh runtime.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// The Polybench application.
    pub app: BenchmarkSpec,
    /// Problem size.
    pub n: usize,
    /// Machine it runs on.
    pub machine: Machine,
}

impl Cell {
    /// Stable identifier, `machine/APP/n`.
    pub fn key(&self) -> String {
        format!("{}/{}/{}", self.machine.name(), self.app.name, self.n)
    }
}

/// The nine registry apps plus the BATCHMM pipeline.
fn ten_apps() -> Vec<BenchmarkSpec> {
    let mut apps = all_benchmarks();
    apps.push(pipeline_benchmark());
    apps
}

/// Small sizes: per-work-group compute is tiny, so the co-execution
/// machinery dominates host time.
fn small_n(app: &BenchmarkSpec) -> usize {
    match app.name {
        "ATAX" | "BICG" | "MVT" | "GESUMMV" => 256,
        _ => 64,
    }
}

/// A benchmark workload: a fixed list of cells run back to back per pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's six apps at Table-2 sizes on the two-device testbed.
    Paper2Dev,
    /// All ten apps at default sizes on the three-device testbed.
    Ndev3Dev,
    /// The ten apps at small sizes on both testbeds.
    SmallKernels,
    /// `SmallKernels` plus the protocol linter and race checker on every
    /// kernel report.
    Checked,
}

impl Workload {
    /// Every workload, in the order `all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::Paper2Dev,
        Workload::Ndev3Dev,
        Workload::SmallKernels,
        Workload::Checked,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper2Dev => "paper-2dev",
            Workload::Ndev3Dev => "ndev-3dev",
            Workload::SmallKernels => "small-kernels",
            Workload::Checked => "checked",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The cells of one pass, in run order.
    pub fn cells(self) -> Vec<Cell> {
        match self {
            Workload::Paper2Dev => benchmarks()
                .into_iter()
                .map(|app| Cell {
                    app,
                    n: app.default_n,
                    machine: Machine::TwoDev,
                })
                .collect(),
            Workload::Ndev3Dev => ten_apps()
                .into_iter()
                .map(|app| Cell {
                    app,
                    n: app.default_n,
                    machine: Machine::ThreeDev,
                })
                .collect(),
            Workload::SmallKernels | Workload::Checked => [Machine::TwoDev, Machine::ThreeDev]
                .into_iter()
                .flat_map(|machine| {
                    ten_apps().into_iter().map(move |app| Cell {
                        app,
                        n: small_n(&app),
                        machine,
                    })
                })
                .collect(),
        }
    }

    /// Whether every kernel report is linted and race-checked inside the
    /// timed app run.
    pub fn checked(self) -> bool {
        self == Workload::Checked
    }

    /// Untimed passes in set-up, after which allocator and caches are
    /// warm: one for the heavy workloads, whose passes take seconds, and
    /// about a second's worth for the small ones.
    pub fn warmup_passes(self) -> usize {
        match self {
            Workload::Paper2Dev | Workload::Ndev3Dev => 1,
            Workload::SmallKernels | Workload::Checked => 50,
        }
    }
}

/// Every distinct cell across the workloads, in workload order: the set
/// the virtual fingerprint covers.
pub fn all_cells() -> Vec<Cell> {
    let mut seen = Vec::new();
    let mut cells = Vec::new();
    for cell in Workload::ALL.into_iter().flat_map(Workload::cells) {
        let key = cell.key();
        if !seen.contains(&key) {
            seen.push(key);
            cells.push(cell);
        }
    }
    cells
}
