//! Setting up and running one workload: the closed loop, failure
//! accounting, and the end-to-end and per-layer metrics.

use std::fmt;
use std::time::Instant;

use fluidicl::{lint_report, Fluidicl, FluidiclConfig, KernelReport, LintSeverity};
use fluidicl_check::race_check_report;
use fluidicl_des::{geomean, SimDuration};
use fluidicl_hetsim::MachineConfig;
use fluidicl_polybench::outputs_match;
use fluidicl_vcl::{ClDriver, ClError, DeviceKind, Program, SingleDeviceRuntime};

use crate::cells::{Cell, Workload};
use crate::trace::{Layer, NullDriver, Recorder, TimedDriver};
use crate::virt::{cell_line, ratio, Ledger};

/// Default input seed (the CGO'14 conference date).
pub const DEFAULT_SEED: u64 = 20140215;

/// Why one cell run failed.
#[derive(Debug)]
pub enum Failure {
    /// The driver returned an error.
    Driver(ClError),
    /// The outputs differ from the reference in at least one bit.
    Mismatch,
    /// The protocol linter or the race checker reported an error.
    Finding {
        /// Which checker.
        stage: &'static str,
        /// Kernel and rule.
        message: String,
    },
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Driver(e) => write!(f, "driver error: {e}"),
            Failure::Mismatch => write!(f, "output differs from the reference"),
            Failure::Finding { stage, message } => write!(f, "{stage} error: {message}"),
        }
    }
}

/// Runs `cell`'s host program on `driver` and compares every output bit
/// with `reference`.
///
/// # Errors
///
/// A driver error or an output mismatch.
pub fn run_app(
    cell: &Cell,
    driver: &mut dyn ClDriver,
    seed: u64,
    reference: &[Vec<f32>],
) -> Result<(), Failure> {
    let got = (cell.app.run)(driver, cell.n, seed).map_err(Failure::Driver)?;
    if outputs_match(&got, reference) {
        Ok(())
    } else {
        Err(Failure::Mismatch)
    }
}

/// Runs the protocol linter on every report.
///
/// # Errors
///
/// The first error-severity diagnostic.
pub fn lint_reports(reports: &[KernelReport]) -> Result<(), Failure> {
    for r in reports {
        if let Some(d) = lint_report(r)
            .into_iter()
            .find(|d| d.severity == LintSeverity::Error)
        {
            return Err(Failure::Finding {
                stage: "lint",
                message: format!("kernel `{}`: {d}", r.kernel),
            });
        }
    }
    Ok(())
}

/// Runs the happens-before race checker on every report.
///
/// # Errors
///
/// The first error-severity finding, or a report of an unknown kernel.
pub fn race_reports(program: &Program, reports: &[KernelReport]) -> Result<(), Failure> {
    for r in reports {
        let def = program.kernel(&r.kernel).map_err(Failure::Driver)?;
        if let Some(d) = race_check_report(&def, r)
            .into_iter()
            .find(|d| d.severity == LintSeverity::Error)
        {
            return Err(Failure::Finding {
                stage: "race",
                message: format!("kernel `{}`: {d}", r.kernel),
            });
        }
    }
    Ok(())
}

/// Counts cell runs and failures.
#[derive(Debug, Default)]
pub struct Tally {
    /// Cell runs attempted.
    pub attempted: u64,
    /// Cell runs that failed.
    pub failed: u64,
    /// The first few failures, for the log.
    pub messages: Vec<String>,
}

impl Tally {
    /// Records the outcome of one cell run.
    pub fn record(&mut self, key: &str, outcome: Result<(), Failure>) {
        self.attempted += 1;
        if let Err(f) = outcome {
            self.failed += 1;
            if self.messages.len() < 10 {
                self.messages.push(format!("{key}: {f}"));
            }
        }
    }
}

/// A cell with everything set-up caches for it.
struct Prepared {
    cell: Cell,
    key: String,
    machine: MachineConfig,
    program: Program,
    reference: Vec<Vec<f32>>,
    /// Virtual time of the faster single device.
    best_single: SimDuration,
}

impl Prepared {
    fn runtime(&self) -> Fluidicl {
        Fluidicl::new(
            self.machine.clone(),
            FluidiclConfig::default(),
            self.program.clone(),
        )
    }
}

/// Builds each cell's program and reference outputs.
fn prepare(cells: Vec<Cell>, seed: u64) -> Vec<Prepared> {
    cells
        .into_iter()
        .map(|cell| Prepared {
            key: cell.key(),
            machine: cell.machine.config(),
            program: (cell.app.program)(cell.n),
            reference: (cell.app.reference)(cell.n, seed),
            best_single: SimDuration::ZERO,
            cell,
        })
        .collect()
}

/// Runs each cell on the CPU alone and on the GPU alone and keeps the
/// faster virtual time.
fn baselines(cells: &mut [Prepared], seed: u64) -> Result<(), String> {
    for p in cells {
        let mut best = None;
        for device in [DeviceKind::Cpu, DeviceKind::Gpu] {
            let mut rt = SingleDeviceRuntime::new(p.machine.clone(), device, p.program.clone());
            run_app(&p.cell, &mut rt, seed, &p.reference)
                .map_err(|f| format!("{} {}-only baseline: {f}", p.key, device.name()))?;
            best = Some(best.map_or(rt.elapsed(), |b: SimDuration| b.min(rt.elapsed())));
        }
        p.best_single = best.unwrap_or(SimDuration::ZERO);
    }
    Ok(())
}

/// What one untraced pass observed in virtual time.
#[derive(Debug, Default)]
struct VirtualPass {
    lines: Vec<String>,
    ledger: Ledger,
    vs_best: Vec<f64>,
    /// Sum of the faster single device's virtual times.
    best_ns: u64,
}

/// Runs every cell once, untraced. Returns each cell's wall time in
/// seconds.
fn run_pass(
    cells: &[Prepared],
    seed: u64,
    checked: bool,
    tally: &mut Tally,
    mut observe: Option<&mut VirtualPass>,
) -> Vec<f64> {
    let mut times = Vec::with_capacity(cells.len());
    for p in cells {
        let start = Instant::now();
        let mut rt = p.runtime();
        let mut outcome = run_app(&p.cell, &mut rt, seed, &p.reference);
        if checked {
            outcome = outcome
                .and_then(|()| lint_reports(rt.reports()))
                .and_then(|()| race_reports(&p.program, rt.reports()));
        }
        times.push(start.elapsed().as_secs_f64());
        if let Some(v) = observe.as_deref_mut() {
            v.lines.push(cell_line(&p.key, rt.elapsed(), rt.reports()));
            v.ledger.add_run(rt.elapsed(), rt.reports());
            v.vs_best.push(ratio(
                rt.elapsed().as_nanos() as f64,
                p.best_single.as_nanos() as f64,
            ));
            v.best_ns += p.best_single.as_nanos();
        }
        tally.record(&p.key, outcome);
    }
    times
}

/// Runs every cell once under the timing wrapper, then replays it on the
/// single-device runtime and on the null driver and, where the workload
/// does not already, lints and race-checks it, all outside the app span.
/// Returns each cell's app-span time in seconds.
fn run_pass_traced(
    cells: &[Prepared],
    seed: u64,
    checked: bool,
    tally: &mut Tally,
    rec: &mut Recorder,
) -> Vec<f64> {
    let mut times = Vec::with_capacity(cells.len());
    for p in cells {
        rec.begin_app(p.key.clone());
        let app_start = rec.now();
        let mut rt = p.runtime();
        rec.close("runtime.new", app_start);
        let mut outcome = run_app(
            &p.cell,
            &mut TimedDriver::new(&mut rt, rec, Layer::Runtime),
            seed,
            &p.reference,
        );
        let check = |rec: &mut Recorder| {
            let t = rec.now();
            let lint = lint_reports(rt.reports());
            rec.close("lint", t);
            let t = rec.now();
            let race = race_reports(&p.program, rt.reports());
            rec.close("race", t);
            lint.and(race)
        };
        if checked {
            outcome = outcome.and_then(|()| check(rec));
        }
        times.push(rec.close("app", app_start) as f64 / 1e9);

        let t = rec.now();
        let mut single =
            SingleDeviceRuntime::new(p.machine.clone(), DeviceKind::Gpu, p.program.clone());
        let replay = run_app(
            &p.cell,
            &mut TimedDriver::new(&mut single, rec, Layer::Vcl),
            seed,
            &p.reference,
        );
        rec.close("replay.vcl_exec", t);
        outcome = outcome.and(replay);

        let t = rec.now();
        let host = (p.cell.app.run)(&mut NullDriver::default(), p.cell.n, seed);
        rec.close("replay.host_program", t);
        outcome = outcome.and(host.map(drop).map_err(Failure::Driver));

        if !checked {
            outcome = outcome.and(check(rec));
        }
        tally.record(&p.key, outcome);
    }
    times
}

/// How long and how often to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// Input seed.
    pub seed: u64,
    /// Seconds the timed loop runs (split evenly between the untraced and
    /// the traced loop when tracing).
    pub seconds: f64,
    /// Minimum passes of each loop, however long they take.
    pub min_passes: usize,
    /// Times set-up is repeated; `setup_s` is the median.
    pub setup_reps: usize,
    /// Whether to run the traced loop for per-layer metrics.
    pub trace: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            seed: DEFAULT_SEED,
            seconds: 10.0,
            min_passes: 3,
            setup_reps: 3,
            trace: false,
        }
    }
}

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one workload run produced.
#[derive(Debug)]
pub struct Outcome {
    /// The workload.
    pub workload: Workload,
    /// Cell runs and failures, set-up included.
    pub tally: Tally,
    /// End-to-end metrics untraced; per-layer metrics traced.
    pub metrics: Vec<Metric>,
    /// Virtual fingerprint line of each cell.
    pub lines: Vec<String>,
    /// Virtual ledger of one pass.
    pub ledger: Ledger,
    /// Wall time of each timed (untraced) pass, in seconds.
    pub pass_s: Vec<f64>,
    /// Spans of the traced loop.
    pub recorder: Option<Recorder>,
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Runs `pass` until `seconds` have elapsed and at least `min_passes`
/// passes ran; returns what each pass returned.
fn timed_loop<T>(seconds: f64, min_passes: usize, mut pass: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_passes || start.elapsed().as_secs_f64() < seconds {
        out.push(pass());
    }
    out
}

/// The time of a pass in which every cell ran as fast as its fastest run
/// in `passes`. A cell's work is deterministic; what varies is
/// interference from other load on the machine, and the fastest run is
/// the one it disturbed least.
fn fastest_pass_s(passes: &[Vec<f64>]) -> f64 {
    let cells = passes.first().map_or(0, Vec::len);
    (0..cells)
        .map(|c| passes.iter().map(|p| p[c]).fold(f64::INFINITY, f64::min))
        .sum()
}

/// The result of one set-up.
struct Setup {
    cells: Vec<Prepared>,
    observed: VirtualPass,
    reference_s: f64,
    baselines_s: f64,
    warmup_s: f64,
}

/// Program build and reference outputs, single-device baselines, and
/// warm-up passes; the first warm-up pass records virtual results.
fn setup(w: Workload, seed: u64, tally: &mut Tally) -> Result<Setup, String> {
    let t = Instant::now();
    let mut cells = prepare(w.cells(), seed);
    let reference_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    baselines(&mut cells, seed)?;
    let baselines_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut observed = VirtualPass::default();
    run_pass(&cells, seed, w.checked(), tally, Some(&mut observed));
    for _ in 1..w.warmup_passes() {
        run_pass(&cells, seed, w.checked(), tally, None);
    }
    let warmup_s = t.elapsed().as_secs_f64();
    Ok(Setup {
        cells,
        observed,
        reference_s,
        baselines_s,
        warmup_s,
    })
}

/// Peak resident set size of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Sets `w` up `opts.setup_reps` times, then runs its timed loop and, if
/// asked, its traced loop.
///
/// # Errors
///
/// A set-up failure (a wrong single-device baseline) or an unreadable
/// process status. Failed cell runs are counted in the tally instead.
pub fn run_workload(w: Workload, opts: &Options) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut phases = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    let mut last = None;
    for _ in 0..opts.setup_reps.max(1) {
        let t = Instant::now();
        let s = setup(w, opts.seed, &mut tally)?;
        phases[0].push(t.elapsed().as_secs_f64());
        phases[1].push(s.reference_s);
        phases[2].push(s.baselines_s);
        phases[3].push(s.warmup_s);
        last = Some(s);
    }
    let Setup {
        cells, observed, ..
    } = last.ok_or("no set-up ran")?;
    let [setup_s, reference_s, baselines_s, warmup_s] = phases.map(|p| median(&p));
    let n_cells = cells.len() as f64;
    let checked = w.checked();
    let seed = opts.seed;

    let loop_s = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let passes = timed_loop(loop_s, opts.min_passes, || {
        run_pass(&cells, seed, checked, &mut tally, None)
    });
    let apps_per_s = n_cells / fastest_pass_s(&passes);

    let (metrics, recorder) = if opts.trace {
        let mut rec = Recorder::default();
        let traced = timed_loop(loop_s, opts.min_passes, || {
            run_pass_traced(&cells, seed, checked, &mut tally, &mut rec)
        });
        let mut metrics = layer_metrics(
            &rec,
            &observed,
            traced.len() as f64,
            1.0 - (n_cells / fastest_pass_s(&traced)) / apps_per_s,
        );
        metrics.extend([
            metric("setup.reference_s", reference_s, "s"),
            metric("setup.baselines_s", baselines_s, "s"),
            metric("setup.warmup_s", warmup_s, "s"),
        ]);
        (metrics, Some(rec))
    } else {
        // A run that failed before its first kernel has no virtual time;
        // it is already counted as failed, and the ratio reads 0.
        let vs_best = if observed.vs_best.iter().all(|&v| v > 0.0) {
            geomean(&observed.vs_best).unwrap_or(0.0)
        } else {
            0.0
        };
        let metrics = vec![
            metric("apps_per_s", apps_per_s, "1/s"),
            metric("virt_vs_best_device", vs_best, "ratio"),
            metric("setup_s", setup_s, "s"),
            metric("peak_rss_mb", peak_rss_mb()?, "MB"),
        ];
        (metrics, None)
    };
    Ok(Outcome {
        workload: w,
        tally,
        metrics,
        lines: observed.lines,
        ledger: observed.ledger,
        pass_s: passes.iter().map(|p| p.iter().sum()).collect(),
        recorder,
    })
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Per-layer metrics from the traced loop's spans (host time, per pass)
/// and from one pass's virtual results.
fn layer_metrics(
    rec: &Recorder,
    observed: &VirtualPass,
    passes: f64,
    overhead_frac: f64,
) -> Vec<Metric> {
    let v = &observed.ledger;
    let best = observed.best_ns as f64;
    let per_pass = |name: &str| rec.total_ms(name) / passes;
    let enqueue = per_pass("runtime.enqueue");
    let exec = per_pass("vcl.enqueue");
    let engine = enqueue - exec * v.redundancy();
    let events = v.events as f64;
    let race = per_pass("race");
    let kernel_ns = v.kernel_ns as f64;
    let executed = v.executed_wgs() as f64;
    vec![
        metric("app_ms", per_pass("app"), "ms"),
        metric("runtime.new_ms", per_pass("runtime.new"), "ms"),
        metric(
            "runtime.create_buffer_ms",
            per_pass("runtime.create_buffer"),
            "ms",
        ),
        metric(
            "runtime.write_buffer_ms",
            per_pass("runtime.write_buffer"),
            "ms",
        ),
        metric("runtime.enqueue_ms", enqueue, "ms"),
        metric(
            "runtime.read_buffer_ms",
            per_pass("runtime.read_buffer"),
            "ms",
        ),
        metric("vcl.exec_ms", exec, "ms"),
        metric("coexec.overhead_ms", enqueue - exec, "ms"),
        metric("coexec.engine_ms_est", engine, "ms"),
        metric("coexec.us_per_event", ratio(engine * 1e3, events), "us"),
        metric("coexec.redundancy", v.redundancy(), "ratio"),
        metric("lint.ms", per_pass("lint"), "ms"),
        metric("race.ms", race, "ms"),
        metric("race.us_per_event", ratio(race * 1e3, events), "us"),
        metric("polybench.host_ms", per_pass("replay.host_program"), "ms"),
        metric("trace.events", events, "count"),
        metric("trace.overhead_frac", overhead_frac, "ratio"),
        metric("virt.kernel_vs_best", ratio(kernel_ns, best), "ratio"),
        metric(
            "virt.outside_kernel_vs_best",
            ratio(v.makespan_ns.saturating_sub(v.kernel_ns) as f64, best),
            "ratio",
        ),
        metric("virt.hd_mb", v.hd_bytes as f64 / 1e6, "MB"),
        metric("virt.dh_mb", v.dh_bytes as f64 / 1e6, "MB"),
        metric(
            "virt.gpu_busy_frac",
            ratio(v.gpu_busy_ns as f64, kernel_ns),
            "ratio",
        ),
        metric(
            "virt.cpu_busy_frac",
            ratio(v.cpu_busy_ns as f64, kernel_ns),
            "ratio",
        ),
        metric(
            "virt.peer_busy_frac",
            ratio(v.peer_busy_ns as f64, kernel_ns),
            "ratio",
        ),
        metric(
            "virt.merge_frac",
            ratio(v.merge_ns as f64, kernel_ns),
            "ratio",
        ),
        metric("virt.cpu_share", ratio(v.cpu_wgs as f64, executed), "ratio"),
        metric(
            "virt.peer_share",
            ratio(v.peer_wgs as f64, executed),
            "ratio",
        ),
        metric("virt.sends", v.sends as f64, "count"),
        metric("virt.subkernels", v.subkernels as f64, "count"),
        metric("virt.aborted_waves", v.aborted_waves as f64, "count"),
        metric(
            "virt.dup_wgs",
            v.executed_wgs().saturating_sub(v.total_wgs) as f64,
            "count",
        ),
    ]
}
