//! Fault-injection sweep: every Polybench benchmark × every [`FaultKind`]
//! × N seeds, with protocol validation on.
//!
//! Each cell runs one benchmark under a seeded, deterministic
//! [`FaultPlan`]. The recovery contract says the run must either
//! **recover** — outputs bit-identical to the sequential reference, i.e.
//! byte-identical to a fault-free run — or surface a **typed** error
//! ([`ClError::DeviceLost`] / [`ClError::Timeout`]); anything else
//! (mismatched output, an untyped error) is a sweep failure. Every cell
//! executes twice and both executions must reach the same outcome,
//! pinning the determinism the fault layer promises: same seed, same
//! schedule, same result.
//!
//! The sweep binary runs this via `fluidicl-check --faults [--seeds N]`
//! and writes a `FAULTS_summary.json` artifact in hand-written JSON, one
//! record per line.

use fluidicl::{Fluidicl, FluidiclConfig, KernelReport, RecoveryPolicy, TraceKind};
use fluidicl_hetsim::MachineConfig;
use fluidicl_polybench::{all_benchmarks, BenchmarkSpec};
use fluidicl_vcl::{ClError, FaultKind, FaultPlan};

use crate::{json_escape, sweep_size, SWEEP_SEED};

/// Outcome of one (benchmark × fault kind × seed) sweep cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CellOutcome {
    /// Outputs bit-identical to the sequential reference (and therefore to
    /// a fault-free run, which is validated against the same reference).
    Recovered,
    /// The run surfaced a typed, contract-sanctioned error.
    TypedError(String),
    /// Outputs diverged from the reference — a sweep failure.
    Mismatch,
    /// An error outside the fault contract — a sweep failure.
    UnexpectedError(String),
}

impl CellOutcome {
    /// Whether this outcome satisfies the recovery contract.
    pub fn is_ok(&self) -> bool {
        matches!(self, CellOutcome::Recovered | CellOutcome::TypedError(_))
    }

    /// Stable label used in the JSON summary.
    pub fn label(&self) -> &'static str {
        match self {
            CellOutcome::Recovered => "recovered",
            CellOutcome::TypedError(_) => "typed-error",
            CellOutcome::Mismatch => "mismatch",
            CellOutcome::UnexpectedError(_) => "unexpected-error",
        }
    }
}

/// One fully-described sweep cell.
#[derive(Clone, Debug)]
pub struct FaultCell {
    /// Benchmark name.
    pub bench: &'static str,
    /// Injected fault kind.
    pub kind: FaultKind,
    /// Sweep seed index (0..seeds).
    pub seed: u64,
    /// Derived fault-plan seed the cell actually ran with.
    pub plan_seed: u64,
    /// Outcome of the first execution.
    pub outcome: CellOutcome,
    /// Whether the planned fault actually triggered (small benchmarks may
    /// finish before the trigger point is reached — then the run is simply
    /// fault-free).
    pub fired: bool,
    /// Whether the second execution reproduced the first bit-for-bit.
    pub deterministic: bool,
    /// Simulated instant the first fault-vocabulary trace event was
    /// recorded at, if any fired.
    pub fault_at_ns: Option<u64>,
    /// Simulated completion instant of the last kernel the run finished.
    pub complete_ns: Option<u64>,
    /// Simulated completion instant of the fault-free reference run of the
    /// same benchmark on the same machine and config.
    pub fault_free_ns: u64,
    /// Simulated recovery latency: how much later than the fault-free
    /// reference the run completed. Only meaningful when the fault fired
    /// and the run recovered.
    pub recovery_latency_ns: Option<u64>,
}

impl FaultCell {
    /// Whether this cell fails the sweep.
    pub fn is_failure(&self) -> bool {
        !self.outcome.is_ok() || !self.deterministic
    }
}

/// Derives the per-cell fault seed from the sweep seed and the cell
/// coordinates (splitmix64 finalizer: stable across runs, well mixed).
fn plan_seed(bench_idx: u64, kind_idx: u64, seed: u64) -> u64 {
    let mut z = SWEEP_SEED
        .wrapping_add(bench_idx.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(kind_idx.wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
        .wrapping_add(seed.wrapping_mul(0x1656_67B1_9E37_79F9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Everything one execution of a sweep cell observed, compared wholesale
/// between the two runs for the determinism check.
#[derive(Clone, Debug, PartialEq)]
struct RunProbe {
    outcome: CellOutcome,
    fired: bool,
    /// Whether any kernel's trace recorded an owner promotion.
    promoted: bool,
    fault_at_ns: Option<u64>,
    complete_ns: Option<u64>,
}

/// Simulated instant of the first fault-vocabulary event in `report`, if
/// any: the moment the injected damage became visible to the runtime.
fn first_fault_ns(report: &KernelReport) -> Option<u64> {
    report
        .trace
        .iter()
        .find(|ev| {
            matches!(
                ev.kind,
                TraceKind::OwnerLost
                    | TraceKind::NonOwnerLost { .. }
                    | TraceKind::EpTransferFault { .. }
                    | TraceKind::EpTransferRejected { .. }
                    | TraceKind::EpTransferTimeout { .. }
            )
        })
        .map(|ev| ev.at.as_nanos())
}

fn run_probe(
    machine: &MachineConfig,
    b: &BenchmarkSpec,
    plan: Option<FaultPlan>,
    base: FluidiclConfig,
) -> RunProbe {
    let n = sweep_size(b.name);
    let config = base.with_validate_protocol(true).with_faults(plan);
    let mut rt = Fluidicl::new(machine.clone(), config, (b.program)(n));
    let defs = (b.program)(n);
    let mut outcome = match b.run_and_validate_sized(&mut rt, n, SWEEP_SEED) {
        Ok(true) => CellOutcome::Recovered,
        Ok(false) => CellOutcome::Mismatch,
        Err(e @ (ClError::DeviceLost { .. } | ClError::Timeout { .. })) => {
            CellOutcome::TypedError(e.to_string())
        }
        Err(e) => CellOutcome::UnexpectedError(e.to_string()),
    };
    // Happens-before check over the faulted traces: a fault edge must
    // excuse exactly the transfer it damaged, nothing more, so even a
    // recovered run with a racy merge fails the cell.
    if outcome == CellOutcome::Recovered {
        'reports: for report in rt.reports() {
            let kdef = defs
                .kernel(&report.kernel)
                .expect("reported kernel is registered");
            for d in crate::race_check_report(&kdef, report) {
                if d.severity == fluidicl::LintSeverity::Error {
                    outcome = CellOutcome::UnexpectedError(format!(
                        "race in kernel `{}`: {d}",
                        report.kernel
                    ));
                    break 'reports;
                }
            }
        }
    }
    let fault_at_ns = rt.reports().iter().filter_map(first_fault_ns).min();
    let complete_ns = rt
        .reports()
        .iter()
        .flat_map(|r| r.trace.iter().map(|ev| ev.at.as_nanos()))
        .max();
    let promoted = rt.reports().iter().any(|r| {
        r.trace
            .iter()
            .any(|ev| matches!(ev.kind, TraceKind::OwnerPromoted { .. }))
    });
    RunProbe {
        outcome,
        fired: rt.fault_fired(),
        promoted,
        fault_at_ns,
        complete_ns,
    }
}

/// Simulated completion instant of a fault-free run of `b` on `machine`
/// under `base`: the reference the recovery-latency numbers are measured
/// against.
fn fault_free_complete_ns(machine: &MachineConfig, b: &BenchmarkSpec, base: FluidiclConfig) -> u64 {
    let p = run_probe(machine, b, None, base);
    assert_eq!(
        p.outcome,
        CellOutcome::Recovered,
        "{}: fault-free reference run must validate",
        b.name
    );
    p.complete_ns.expect("fault-free run completed kernels")
}

/// Runs one sweep cell against a precomputed fault-free reference
/// completion time: two executions of `bench` under `kind` with the given
/// plan seed, checking the recovery contract and determinism.
fn run_fault_cell_with_ref(
    b: &BenchmarkSpec,
    kind: FaultKind,
    seed: u64,
    plan_seed: u64,
    fault_free_ns: u64,
) -> FaultCell {
    let machine = MachineConfig::paper_testbed();
    let plan = Some(FaultPlan::new(kind, plan_seed));
    let p = run_probe(&machine, b, plan, FluidiclConfig::default());
    let again = run_probe(&machine, b, plan, FluidiclConfig::default());
    let recovery_latency_ns = (p.fired && p.outcome == CellOutcome::Recovered).then(|| {
        p.complete_ns
            .unwrap_or(fault_free_ns)
            .saturating_sub(fault_free_ns)
    });
    FaultCell {
        bench: b.name,
        kind,
        seed,
        plan_seed,
        deterministic: p == again,
        outcome: p.outcome,
        fired: p.fired,
        fault_at_ns: p.fault_at_ns,
        complete_ns: p.complete_ns,
        fault_free_ns,
        recovery_latency_ns,
    }
}

/// Runs one sweep cell: two executions of `bench` under `kind` with the
/// given plan seed, checking the recovery contract and determinism. The
/// fault-free latency reference is computed on the spot; the sweep proper
/// hoists it per benchmark instead.
pub fn run_fault_cell(b: &BenchmarkSpec, kind: FaultKind, seed: u64, plan_seed: u64) -> FaultCell {
    let ff = fault_free_complete_ns(
        &MachineConfig::paper_testbed(),
        b,
        FluidiclConfig::default(),
    );
    run_fault_cell_with_ref(b, kind, seed, plan_seed, ff)
}

/// Runs the full sweep — every benchmark × fault kind × `seeds` seed
/// indices — fanned out over the worker pool, in stable cell order.
pub fn run_fault_sweep(seeds: u64) -> Vec<FaultCell> {
    let machine = MachineConfig::paper_testbed();
    let mut units = Vec::new();
    for (bi, b) in all_benchmarks().into_iter().enumerate() {
        // One fault-free reference per benchmark: every cell of the row
        // measures its recovery latency against the same baseline.
        let ff = fault_free_complete_ns(&machine, &b, FluidiclConfig::default());
        for (ki, kind) in FaultKind::all().into_iter().enumerate() {
            for s in 0..seeds {
                units.push((b, kind, s, plan_seed(bi as u64, ki as u64, s), ff));
            }
        }
    }
    fluidicl_par::par_map(units, |(b, kind, s, ps, ff)| {
        run_fault_cell_with_ref(&b, kind, s, ps, ff)
    })
}

/// One cell of the owner-failover sweep: a three-device machine loses its
/// acting owner mid-kernel and a surviving peer GPU is promoted in its
/// place (epoch-fenced failover).
///
/// Three families ride the same harness: `owner-loss-promote` (plain
/// owner loss at the sweep's problem sizes), `owner-then-peer-cascade`
/// (the owner dies, a peer is promoted, then the subkernel-kill latch
/// takes the non-owner endpoints too), and `promote-mid-batch` (owner
/// loss on a disjoint set of plan seeds, where promotion lands while
/// coalesced batches are in flight). All three run the default, pipelined
/// config. Every cell must recover bit-identically to the sequential
/// reference — race-checked — or surface a typed error, twice over.
#[derive(Clone, Debug)]
pub struct FailoverCell {
    /// Benchmark name.
    pub bench: &'static str,
    /// Which failover family the cell belongs to.
    pub family: &'static str,
    /// Injected fault kind.
    pub kind: FaultKind,
    /// Sweep seed index (0..seeds).
    pub seed: u64,
    /// Derived fault-plan seed the cell ran with.
    pub plan_seed: u64,
    /// Outcome of the first execution.
    pub outcome: CellOutcome,
    /// Whether the planned fault actually triggered.
    pub fired: bool,
    /// Whether an owner promotion appeared in any kernel trace.
    pub promoted: bool,
    /// Whether the second execution reproduced the first bit-for-bit.
    pub deterministic: bool,
    /// Simulated instant the first fault-vocabulary trace event fired at.
    pub fault_at_ns: Option<u64>,
    /// Simulated completion instant of the last kernel the run finished.
    pub complete_ns: Option<u64>,
    /// Fault-free reference completion for the same benchmark and config.
    pub fault_free_ns: u64,
    /// Simulated recovery latency vs the fault-free reference (fired,
    /// recovered cells only).
    pub recovery_latency_ns: Option<u64>,
}

impl FailoverCell {
    /// Whether this cell fails the sweep: anything but a deterministic
    /// bit-identical recovery or a deterministic typed error.
    pub fn is_failure(&self) -> bool {
        !self.outcome.is_ok() || !self.deterministic
    }
}

/// The three owner-failover families: (name, fault kind, plan-seed kind
/// offset). Offsets keep the derived plan seeds disjoint from the
/// two-device sweep's (0..7) and the N=3 non-owner sweep's (100+).
const FAILOVER_FAMILIES: [(&str, FaultKind, u64); 3] = [
    ("owner-loss-promote", FaultKind::GpuLost, 200),
    ("owner-then-peer-cascade", FaultKind::DoubleLoss, 300),
    ("promote-mid-batch", FaultKind::GpuLost, 400),
];

/// Runs the owner-failover sweep: every benchmark × failover family ×
/// `seeds` seed indices on [`MachineConfig::paper_testbed_3dev`], where
/// the injected owner loss exercises peer promotion instead of the
/// two-device survivor fallback.
pub fn run_failover_sweep(seeds: u64) -> Vec<FailoverCell> {
    let machine = MachineConfig::paper_testbed_3dev();
    let mut units = Vec::new();
    for (family, kind, offset) in FAILOVER_FAMILIES {
        let kind_idx = FaultKind::all()
            .iter()
            .position(|k| *k == kind)
            .expect("failover kind") as u64;
        for (bi, b) in all_benchmarks().into_iter().enumerate() {
            let ff = fault_free_complete_ns(&machine, &b, FluidiclConfig::default());
            for s in 0..seeds {
                let ps = plan_seed(bi as u64, offset + kind_idx, s);
                units.push((family, kind, b, s, ps, ff));
            }
        }
    }
    fluidicl_par::par_map(units, |(family, kind, b, s, ps, ff)| {
        let machine = MachineConfig::paper_testbed_3dev();
        let plan = Some(FaultPlan::new(kind, ps));
        let p = run_probe(&machine, &b, plan, FluidiclConfig::default());
        let again = run_probe(&machine, &b, plan, FluidiclConfig::default());
        let recovery_latency_ns = (p.fired && p.outcome == CellOutcome::Recovered)
            .then(|| p.complete_ns.unwrap_or(ff).saturating_sub(ff));
        FailoverCell {
            bench: b.name,
            family,
            kind,
            seed: s,
            plan_seed: ps,
            deterministic: p == again,
            outcome: p.outcome,
            fired: p.fired,
            promoted: p.promoted,
            fault_at_ns: p.fault_at_ns,
            complete_ns: p.complete_ns,
            fault_free_ns: ff,
            recovery_latency_ns,
        }
    })
}

/// One cell of the N=3 non-owner-loss sweep: a three-device machine
/// (CPU + owner GPU + peer GPU) loses a non-owner endpoint mid-kernel.
///
/// The injector's subkernel-kill trigger counts launches across *all*
/// non-owner endpoints, so across seeds the victim alternates between the
/// CPU and the peer GPU. The contract is stricter than the two-device
/// sweep's: the owner survives a non-owner loss by construction, so the
/// survivors must always finish with output bit-identical to the sequential
/// reference (and therefore to a fault-free run) — a typed error is a
/// failure here, not an accepted outcome. Recovered traces are additionally
/// happens-before checked, and every cell runs twice for determinism.
#[derive(Clone, Debug)]
pub struct NdevLossCell {
    /// Benchmark name.
    pub bench: &'static str,
    /// Sweep seed index (0..seeds).
    pub seed: u64,
    /// Derived fault-plan seed the cell ran with.
    pub plan_seed: u64,
    /// Outcome of the first execution.
    pub outcome: CellOutcome,
    /// Whether the planned loss actually triggered.
    pub fired: bool,
    /// Whether the second execution reproduced the first bit-for-bit.
    pub deterministic: bool,
    /// Simulated instant the first fault-vocabulary trace event fired at.
    pub fault_at_ns: Option<u64>,
    /// Simulated completion instant of the last kernel the run finished.
    pub complete_ns: Option<u64>,
    /// Fault-free reference completion for the same benchmark and machine.
    pub fault_free_ns: u64,
    /// Simulated recovery latency vs the fault-free reference (fired,
    /// recovered cells only).
    pub recovery_latency_ns: Option<u64>,
}

impl NdevLossCell {
    /// Whether this cell fails the sweep (anything but a deterministic,
    /// bit-identical recovery).
    pub fn is_failure(&self) -> bool {
        self.outcome != CellOutcome::Recovered || !self.deterministic
    }
}

/// Runs the N=3 non-owner-loss sweep: every benchmark × `seeds` seed
/// indices on [`MachineConfig::paper_testbed_3dev`] under a
/// [`FaultKind::CpuLost`] plan (the subkernel-kill fault, which on a
/// three-device machine strikes whichever non-owner launch hits the
/// trigger).
pub fn run_ndev_loss_sweep(seeds: u64) -> Vec<NdevLossCell> {
    let kind_idx = FaultKind::all()
        .iter()
        .position(|k| *k == FaultKind::CpuLost)
        .expect("subkernel-kill kind") as u64;
    let machine = MachineConfig::paper_testbed_3dev();
    let mut units = Vec::new();
    for (bi, b) in all_benchmarks().into_iter().enumerate() {
        let ff = fault_free_complete_ns(&machine, &b, FluidiclConfig::default());
        for s in 0..seeds {
            // Offset the kind coordinate so these cells draw plan seeds
            // disjoint from the two-device sweep's.
            units.push((b, s, plan_seed(bi as u64, 100 + kind_idx, s), ff));
        }
    }
    fluidicl_par::par_map(units, |(b, s, ps, ff)| {
        let machine = MachineConfig::paper_testbed_3dev();
        let plan = Some(FaultPlan::new(FaultKind::CpuLost, ps));
        let p = run_probe(&machine, &b, plan, FluidiclConfig::default());
        let again = run_probe(&machine, &b, plan, FluidiclConfig::default());
        let recovery_latency_ns = (p.fired && p.outcome == CellOutcome::Recovered)
            .then(|| p.complete_ns.unwrap_or(ff).saturating_sub(ff));
        NdevLossCell {
            bench: b.name,
            seed: s,
            plan_seed: ps,
            deterministic: p == again,
            outcome: p.outcome,
            fired: p.fired,
            fault_at_ns: p.fault_at_ns,
            complete_ns: p.complete_ns,
            fault_free_ns: ff,
            recovery_latency_ns,
        }
    })
}

/// One row of the fault-aware chunk-shrink comparison: the same benchmark
/// under the same `TransferTransient` fault plan, once with
/// `shrink_chunk_on_retry` on (the default) and once with it off.
///
/// With the shrink enabled the controller halves the CPU chunk as soon as
/// a transfer needs a retry, so every subkernel launched after the fault
/// is smaller: its results reach the GPU in finer batches, and the work
/// stranded un-acknowledged on the flaky link at any instant — the work a
/// later watchdog abandonment would lose — shrinks with it. `at_risk_*`
/// measures exactly that: the largest subkernel launched after the first
/// transfer fault (in work-groups). The merged counts are reported for
/// context; the *contract* is that the shrink never enlarges the at-risk
/// window and keeps strictly more CPU work mergeable somewhere in the
/// sweep.
#[derive(Clone, Debug)]
pub struct ShrinkCell {
    /// Benchmark name.
    pub bench: &'static str,
    /// Derived fault-plan seed the cell ran with.
    pub plan_seed: u64,
    /// Whether the transient fault actually fired.
    pub fired: bool,
    /// Largest post-fault subkernel (work-groups) with the shrink enabled.
    pub at_risk_with_shrink: u64,
    /// Largest post-fault subkernel (work-groups) with the shrink disabled.
    pub at_risk_without_shrink: u64,
    /// CPU work-groups merged with shrink-on-retry enabled.
    pub merged_with_shrink: u64,
    /// CPU work-groups merged with shrink-on-retry disabled.
    pub merged_without_shrink: u64,
}

impl ShrinkCell {
    /// Whether this cell violates the shrink contract: halving the chunk
    /// on retry must never launch a *larger* post-fault subkernel.
    pub fn is_failure(&self) -> bool {
        self.at_risk_with_shrink > self.at_risk_without_shrink
    }

    /// Whether the shrink strictly reduced the post-fault at-risk window.
    pub fn improved(&self) -> bool {
        self.at_risk_with_shrink < self.at_risk_without_shrink
    }
}

/// Runs one benchmark under a transient-transfer plan and extracts the
/// merged work-group total plus the largest subkernel launched after the
/// first transfer fault (0 if no subkernel starts after the fault).
fn transient_run(b: &BenchmarkSpec, plan_seed: u64, shrink: bool) -> (u64, u64, bool) {
    let n = sweep_size(b.name);
    let config = FluidiclConfig::default()
        .with_validate_protocol(true)
        .with_recovery(RecoveryPolicy::default().with_shrink_chunk_on_retry(shrink))
        .with_faults(Some(FaultPlan::new(
            FaultKind::TransferTransient,
            plan_seed,
        )));
    let mut rt = Fluidicl::new(MachineConfig::paper_testbed(), config, (b.program)(n));
    let ok = b
        .run_and_validate_sized(&mut rt, n, SWEEP_SEED)
        .expect("transient transfer faults are always recoverable");
    assert!(
        ok,
        "{}: transient-fault run diverged from reference",
        b.name
    );
    let merged = rt.reports().iter().map(|r| r.cpu_merged_wgs).sum();
    let mut at_risk = 0u64;
    for r in rt.reports() {
        let mut fault_at = None;
        for ev in &r.trace {
            match ev.kind {
                TraceKind::EpTransferFault { .. } if fault_at.is_none() => fault_at = Some(ev.at),
                TraceKind::EpSubkernelStart { from, to, .. }
                    if fault_at.is_some_and(|f| ev.at >= f) =>
                {
                    at_risk = at_risk.max(to.saturating_sub(from));
                }
                _ => {}
            }
        }
    }
    (merged, at_risk, rt.fault_fired())
}

/// Runs the chunk-shrink comparison over every benchmark × `seeds` seed
/// indices (reusing the sweep's per-cell seed derivation so the transient
/// fault lands at the same point in both runs).
pub fn run_shrink_comparison(seeds: u64) -> Vec<ShrinkCell> {
    let kind_idx = FaultKind::all()
        .iter()
        .position(|k| *k == FaultKind::TransferTransient)
        .expect("transient kind") as u64;
    let mut units = Vec::new();
    for (bi, b) in all_benchmarks().into_iter().enumerate() {
        for s in 0..seeds {
            units.push((b, plan_seed(bi as u64, kind_idx, s)));
        }
    }
    fluidicl_par::par_map(units, |(b, ps)| {
        let (merged_on, risk_on, fired_on) = transient_run(&b, ps, true);
        let (merged_off, risk_off, fired_off) = transient_run(&b, ps, false);
        ShrinkCell {
            bench: b.name,
            plan_seed: ps,
            fired: fired_on || fired_off,
            at_risk_with_shrink: risk_on,
            at_risk_without_shrink: risk_off,
            merged_with_shrink: merged_on,
            merged_without_shrink: merged_off,
        }
    })
}

/// The `detail` field of a cell row: the error text of a typed or
/// unexpected error, empty for every other outcome.
fn detail_field(outcome: &CellOutcome) -> String {
    match outcome {
        CellOutcome::TypedError(d) | CellOutcome::UnexpectedError(d) => {
            format!(", \"detail\": \"{}\"", json_escape(d))
        }
        _ => String::new(),
    }
}

/// Renders an `Option<u64>` as a JSON number or `null`.
fn opt(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_string(), |n| n.to_string())
}

/// The shared latency tail of every cell row: when the fault fired and
/// when the run completed relative to its fault-free reference.
fn latency_fields(
    fault_at_ns: Option<u64>,
    complete_ns: Option<u64>,
    fault_free_ns: u64,
    recovery_latency_ns: Option<u64>,
) -> String {
    format!(
        ", \"fault_at_ns\": {}, \"complete_ns\": {}, \"fault_free_ns\": {fault_free_ns}, \
         \"recovery_latency_ns\": {}",
        opt(fault_at_ns),
        opt(complete_ns),
        opt(recovery_latency_ns)
    )
}

/// Renders the sweep as hand-written JSON, one cell per line so the file
/// diffs line by line: the CI artifact `FAULTS_summary.json`.
pub fn render_faults_json(
    cells: &[FaultCell],
    ndev: &[NdevLossCell],
    failover: &[FailoverCell],
    shrink: &[ShrinkCell],
    seeds: u64,
) -> String {
    let recovered = cells
        .iter()
        .filter(|c| c.outcome == CellOutcome::Recovered)
        .count();
    let typed = cells
        .iter()
        .filter(|c| matches!(c.outcome, CellOutcome::TypedError(_)))
        .count();
    let fired = cells.iter().filter(|c| c.fired).count();
    let failures = cells.iter().filter(|c| c.is_failure()).count();
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"seeds\": {seeds},\n"));
    s.push_str(&format!("  \"cells\": {},\n", cells.len()));
    s.push_str(&format!("  \"fired\": {fired},\n"));
    s.push_str(&format!("  \"recovered\": {recovered},\n"));
    s.push_str(&format!("  \"typed_errors\": {typed},\n"));
    s.push_str(&format!("  \"failures\": {failures},\n"));
    s.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let comma = if i + 1 < cells.len() { "," } else { "" };
        let detail = detail_field(&c.outcome);
        let latency = latency_fields(
            c.fault_at_ns,
            c.complete_ns,
            c.fault_free_ns,
            c.recovery_latency_ns,
        );
        s.push_str(&format!(
            "    {{\"bench\": \"{}\", \"kind\": \"{}\", \"seed\": {}, \"plan_seed\": {}, \
             \"outcome\": \"{}\", \"fired\": {}, \"deterministic\": {}{latency}{detail}}}{comma}\n",
            c.bench,
            c.kind.name(),
            c.seed,
            c.plan_seed,
            c.outcome.label(),
            c.fired,
            c.deterministic
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"ndev_loss\": [\n");
    for (i, c) in ndev.iter().enumerate() {
        let comma = if i + 1 < ndev.len() { "," } else { "" };
        let detail = detail_field(&c.outcome);
        let latency = latency_fields(
            c.fault_at_ns,
            c.complete_ns,
            c.fault_free_ns,
            c.recovery_latency_ns,
        );
        s.push_str(&format!(
            "    {{\"bench\": \"{}\", \"machine\": \"paper-testbed-3dev\", \"seed\": {}, \
             \"plan_seed\": {}, \"outcome\": \"{}\", \"fired\": {}, \
             \"deterministic\": {}{latency}{detail}}}{comma}\n",
            c.bench,
            c.seed,
            c.plan_seed,
            c.outcome.label(),
            c.fired,
            c.deterministic
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"owner_failover\": [\n");
    for (i, c) in failover.iter().enumerate() {
        let comma = if i + 1 < failover.len() { "," } else { "" };
        let detail = detail_field(&c.outcome);
        let latency = latency_fields(
            c.fault_at_ns,
            c.complete_ns,
            c.fault_free_ns,
            c.recovery_latency_ns,
        );
        s.push_str(&format!(
            "    {{\"bench\": \"{}\", \"family\": \"{}\", \"kind\": \"{}\", \
             \"machine\": \"paper-testbed-3dev\", \"seed\": {}, \"plan_seed\": {}, \
             \"outcome\": \"{}\", \"fired\": {}, \"promoted\": {}, \
             \"deterministic\": {}{latency}{detail}}}{comma}\n",
            c.bench,
            c.family,
            c.kind.name(),
            c.seed,
            c.plan_seed,
            c.outcome.label(),
            c.fired,
            c.promoted,
            c.deterministic
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"shrink_on_retry\": [\n");
    for (i, c) in shrink.iter().enumerate() {
        let comma = if i + 1 < shrink.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"bench\": \"{}\", \"plan_seed\": {}, \"fired\": {}, \
             \"at_risk_with_shrink\": {}, \"at_risk_without_shrink\": {}, \
             \"merged_with_shrink\": {}, \"merged_without_shrink\": {}}}{comma}\n",
            c.bench,
            c.plan_seed,
            c.fired,
            c.at_risk_with_shrink,
            c.at_risk_without_shrink,
            c.merged_with_shrink,
            c.merged_without_shrink
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_seed_is_stable_and_distinct() {
        assert_eq!(plan_seed(0, 0, 0), plan_seed(0, 0, 0));
        let seeds: Vec<u64> = (0..4)
            .flat_map(|b| (0..7).flat_map(move |k| (0..4).map(move |s| plan_seed(b, k, s))))
            .collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(seeds.len(), dedup.len(), "cell seeds must not collide");
    }

    #[test]
    fn error_details_render_as_valid_json_strings() {
        let cell = FaultCell {
            bench: "GEMM",
            kind: FaultKind::GpuLost,
            seed: 0,
            plan_seed: 1,
            outcome: CellOutcome::TypedError("a \"b\" \\c\nline\u{1}end".to_string()),
            fired: true,
            deterministic: true,
            fault_at_ns: None,
            complete_ns: None,
            fault_free_ns: 0,
            recovery_latency_ns: None,
        };
        let json = render_faults_json(&[cell], &[], &[], &[], 1);
        assert!(
            json.contains(r#""detail": "a \"b\" \\c\nline\u0001end""#),
            "{json}"
        );
        assert!(
            !json.chars().any(|c| c.is_control() && c != '\n'),
            "no raw control characters"
        );
    }
}
