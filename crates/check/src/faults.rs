//! Fault-injection sweep: every Polybench benchmark × every fault family
//! × N seeds, with protocol validation on.
//!
//! Each cell runs one benchmark under a seeded, deterministic
//! [`FaultPlan`]. The recovery contract says the run must either
//! **recover** — outputs bit-identical to the sequential reference, i.e.
//! byte-identical to a fault-free run — or surface a **typed** error
//! ([`ClError::DeviceLost`] / [`ClError::Timeout`]) where its family
//! accepts one; anything else (mismatched output, an untyped error, a race
//! in a recovered trace, a finding of the schedule checker) is a sweep
//! failure. Every cell executes twice and both executions must reach the
//! same outcome, pinning the determinism the fault layer promises: same
//! seed, same schedule, same result.
//!
//! [`fault_summary`] renders the sweep as the hand-written JSON of the
//! tracked `FAULTS_summary.json`, one record per line; the `faults_summary`
//! test compares it byte for byte, and its ignored twin rewrites it. Each
//! cell records its [`timing_hash`], so the file pins every event time of
//! a faulted run (retry backoffs, watchdogs, re-sends), not only its
//! first-fault and last-event instants.

use fluidicl::{Fluidicl, FluidiclConfig, KernelReport, TraceKind};
use fluidicl_hetsim::MachineConfig;
use fluidicl_polybench::{all_benchmarks, BenchmarkSpec};
use fluidicl_vcl::{ClError, FaultKind, FaultPlan};

use crate::{json_escape, sweep_size, timing_hash, SWEEP_SEED};

/// Outcome of one sweep cell.
#[derive(Clone, Debug, PartialEq, Eq)]
enum CellOutcome {
    /// Outputs bit-identical to the sequential reference (and therefore to
    /// a fault-free run, which is validated against the same reference).
    Recovered,
    /// The run surfaced a typed, contract-sanctioned error.
    TypedError(String),
    /// Outputs diverged from the reference.
    Mismatch,
    /// An error outside the fault contract, or a race in a recovered trace.
    UnexpectedError(String),
}

impl CellOutcome {
    /// Stable label used in the JSON summary.
    fn label(&self) -> &'static str {
        match self {
            CellOutcome::Recovered => "recovered",
            CellOutcome::TypedError(_) => "typed-error",
            CellOutcome::Mismatch => "mismatch",
            CellOutcome::UnexpectedError(_) => "unexpected-error",
        }
    }
}

/// A machine by its summary name.
type Machine = (&'static str, fn() -> MachineConfig);

const TWO_DEV: Machine = ("paper-testbed", MachineConfig::paper_testbed);
const THREE_DEV: Machine = ("paper-testbed-3dev", MachineConfig::paper_testbed_3dev);

/// One family of sweep cells: the machine it runs on, the fault it
/// injects, the offset that keeps its plan seeds disjoint from the other
/// families', and whether a typed error satisfies its contract.
#[derive(Clone, Copy, Debug)]
struct FaultFamily {
    name: &'static str,
    machine: Machine,
    kind: FaultKind,
    seed_offset: u64,
    typed_error_ok: bool,
}

/// Three-device non-owner loss: the subkernel-kill fault strikes whichever
/// non-owner launch hits the trigger (the CPU on some seeds, the peer GPU
/// on others, and only that device dies). The owner survives a non-owner
/// loss by construction, so a typed error fails the cell.
const NDEV_LOSS: FaultFamily = FaultFamily {
    name: "ndev-loss",
    machine: THREE_DEV,
    kind: FaultKind::CpuLost,
    seed_offset: 100,
    typed_error_ok: false,
};

/// Owner failover on the three-device machine: the acting owner is killed
/// and a surviving peer GPU is promoted in its place (epoch-fenced).
/// `owner-then-peer-cascade` then takes every non-owner endpoint too — a
/// promoted peer's own waves included — and may end in a typed error when
/// no device is left.
const FAILOVER: [FaultFamily; 2] = [
    FaultFamily {
        name: "owner-loss-promote",
        machine: THREE_DEV,
        kind: FaultKind::GpuLost,
        seed_offset: 200,
        typed_error_ok: true,
    },
    FaultFamily {
        name: "owner-then-peer-cascade",
        machine: THREE_DEV,
        kind: FaultKind::DoubleLoss,
        seed_offset: 300,
        typed_error_ok: true,
    },
];

/// Every family: each fault kind on the two-device testbed, then
/// [`NDEV_LOSS`] and [`FAILOVER`].
fn families() -> Vec<FaultFamily> {
    let two_device = FaultKind::all().map(|kind| FaultFamily {
        name: kind.name(),
        machine: TWO_DEV,
        kind,
        seed_offset: 0,
        typed_error_ok: true,
    });
    two_device
        .into_iter()
        .chain([NDEV_LOSS])
        .chain(FAILOVER)
        .collect()
}

/// One fully-described sweep cell.
#[derive(Clone, Debug)]
struct FaultCell {
    bench: &'static str,
    family: FaultFamily,
    /// Sweep seed index (0..seeds).
    seed: u64,
    /// Derived fault-plan seed the cell actually ran with.
    plan_seed: u64,
    /// Outcome of the first execution.
    outcome: CellOutcome,
    /// Whether the planned fault actually triggered (small benchmarks may
    /// finish before the trigger point is reached — then the run is simply
    /// fault-free).
    fired: bool,
    /// Whether an owner promotion appeared in any kernel trace.
    promoted: bool,
    /// Devices the runtime's roster reports lost at the end of the run.
    lost: usize,
    /// Whether the second execution reproduced the first bit-for-bit.
    deterministic: bool,
    /// Simulated instant the first fault-vocabulary trace event was
    /// recorded at, if any fired.
    fault_at_ns: Option<u64>,
    /// Simulated completion instant of the last kernel the run finished.
    complete_ns: Option<u64>,
    /// Simulated completion instant of the fault-free reference run of the
    /// same benchmark on the same machine.
    fault_free_ns: u64,
    /// How much later than the fault-free reference the run completed;
    /// only for a fired, recovered cell.
    recovery_latency_ns: Option<u64>,
    /// [`timing_hash`] of the first execution: pins every event time of
    /// the run, retries and backoffs included.
    timing_hash: u64,
}

impl FaultCell {
    /// Whether this cell breaks the one-device contract: a fired plan that
    /// strikes a single device (`GpuLost`, `CpuLost`) must leave exactly
    /// that device lost, while the devices it did not strike keep working.
    fn loses_other_devices(&self) -> bool {
        matches!(self.family.kind, FaultKind::GpuLost | FaultKind::CpuLost)
            && self.fired
            && self.lost != 1
    }

    /// Whether this cell fails the sweep: anything but a deterministic
    /// bit-identical recovery, or a deterministic typed error where the
    /// family accepts one.
    fn is_failure(&self) -> bool {
        let ok = match self.outcome {
            CellOutcome::Recovered => true,
            CellOutcome::TypedError(_) => self.family.typed_error_ok,
            _ => false,
        };
        !ok || !self.deterministic
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
/// between the two runs for the determinism check: the timing hash makes
/// that a comparison of whole timelines.
#[derive(Clone, Debug, PartialEq)]
struct RunProbe {
    outcome: CellOutcome,
    fired: bool,
    /// Whether any kernel's trace recorded an owner promotion.
    promoted: bool,
    /// Devices the roster reports lost at the end of the run.
    lost: usize,
    fault_at_ns: Option<u64>,
    complete_ns: Option<u64>,
    timing_hash: u64,
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

/// One execution of `b` on `machine` under the default config and `plan`.
fn run_probe(machine: &MachineConfig, b: &BenchmarkSpec, plan: Option<FaultPlan>) -> RunProbe {
    let n = sweep_size(b.name);
    let config = FluidiclConfig::default()
        .with_validate_protocol(true)
        .with_faults(plan);
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
    // Faults flow through the kernel graph, so every flushed schedule must
    // be clean too: a finding fails the cell whatever its outcome.
    if let Some(d) = rt
        .graph_schedules()
        .iter()
        .flat_map(crate::check_schedule)
        .next()
    {
        outcome = CellOutcome::UnexpectedError(format!("schedule: {d}"));
    }
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
    let roster = rt.roster();
    let lost = usize::from(!roster.cpu_healthy())
        + usize::from(!roster.gpu_healthy())
        + roster.dead_peers().len();
    RunProbe {
        outcome,
        fired: rt.fault_fired(),
        promoted,
        lost,
        fault_at_ns,
        complete_ns,
        timing_hash: timing_hash(&rt),
    }
}

/// Runs every benchmark × family × `seeds` seed indices, each cell twice,
/// fanned out over the worker pool, in stable benchmark-major order. Each
/// (benchmark, family) unit first runs fault-free on the family's machine:
/// the reference its cells' recovery latencies are measured against.
fn run_fault_sweep(seeds: u64) -> Vec<FaultCell> {
    let mut units = Vec::new();
    for (bi, b) in all_benchmarks().into_iter().enumerate() {
        for family in families() {
            units.push((bi as u64, b, family));
        }
    }
    let rows = fluidicl_par::par_map(units, |(bi, b, family)| {
        let machine = (family.machine.1)();
        let reference = run_probe(&machine, &b, None);
        assert_eq!(
            reference.outcome,
            CellOutcome::Recovered,
            "{}: fault-free reference run must validate",
            b.name
        );
        let ff = reference
            .complete_ns
            .expect("fault-free run completed kernels");
        let kind_idx = FaultKind::all()
            .iter()
            .position(|k| *k == family.kind)
            .expect("listed kind") as u64;
        (0..seeds)
            .map(|seed| {
                let plan_seed = plan_seed(bi, family.seed_offset + kind_idx, seed);
                let plan = Some(FaultPlan::new(family.kind, plan_seed));
                let p = run_probe(&machine, &b, plan);
                let again = run_probe(&machine, &b, plan);
                FaultCell {
                    bench: b.name,
                    family,
                    seed,
                    plan_seed,
                    deterministic: p == again,
                    recovery_latency_ns: (p.fired && p.outcome == CellOutcome::Recovered)
                        .then(|| p.complete_ns.unwrap_or(ff).saturating_sub(ff)),
                    outcome: p.outcome,
                    fired: p.fired,
                    promoted: p.promoted,
                    lost: p.lost,
                    fault_at_ns: p.fault_at_ns,
                    complete_ns: p.complete_ns,
                    fault_free_ns: ff,
                    timing_hash: p.timing_hash,
                }
            })
            .collect::<Vec<_>>()
    });
    rows.into_iter().flatten().collect()
}

/// Renders an `Option<u64>` as a JSON number or `null`.
fn opt(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_string(), |n| n.to_string())
}

/// One cell's JSON record. `head` follows the benchmark name (the fields
/// that place the cell in its section); `promoted` adds the promotion flag.
fn cell_row(c: &FaultCell, head: &str, promoted: bool) -> String {
    let promoted = if promoted {
        format!(", \"promoted\": {}", c.promoted)
    } else {
        String::new()
    };
    let detail = match &c.outcome {
        CellOutcome::TypedError(d) | CellOutcome::UnexpectedError(d) => {
            format!(", \"detail\": \"{}\"", json_escape(d))
        }
        _ => String::new(),
    };
    format!(
        "{{\"bench\": \"{}\"{head}, \"seed\": {}, \"plan_seed\": {}, \"outcome\": \"{}\", \
         \"fired\": {}{promoted}, \"deterministic\": {}, \"fault_at_ns\": {}, \
         \"complete_ns\": {}, \"fault_free_ns\": {}, \"recovery_latency_ns\": {}, \
         \"timing_hash\": \"{:016x}\"{detail}}}",
        c.bench,
        c.seed,
        c.plan_seed,
        c.outcome.label(),
        c.fired,
        c.deterministic,
        opt(c.fault_at_ns),
        opt(c.complete_ns),
        c.fault_free_ns,
        opt(c.recovery_latency_ns),
        c.timing_hash
    )
}

/// Appends `"key": [rows]` with one record per line; `last` drops the
/// trailing comma of the list.
fn push_list(s: &mut String, key: &str, rows: Vec<String>, last: bool) {
    s.push_str(&format!("  \"{key}\": [\n"));
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        s.push_str(&format!("    {row}{comma}\n"));
    }
    s.push_str(if last { "  ]\n" } else { "  ],\n" });
}

/// Renders the sweep as hand-written JSON, one cell per line so the file
/// diffs line by line. The header counts the two-device cells, listed
/// under `results`; the non-owner-loss cells follow under `ndev_loss`, and
/// the failover cells under `owner_failover`, family by family.
fn render_faults_json(cells: &[FaultCell], seeds: u64) -> String {
    let two_device: Vec<&FaultCell> = cells
        .iter()
        .filter(|c| c.family.machine.0 == TWO_DEV.0)
        .collect();
    let count = |pred: &dyn Fn(&FaultCell) -> bool| two_device.iter().filter(|c| pred(c)).count();
    let mut s = String::from("{\n");
    for (key, value) in [
        ("seeds", seeds as usize),
        ("cells", two_device.len()),
        ("fired", count(&|c| c.fired)),
        ("recovered", count(&|c| c.outcome == CellOutcome::Recovered)),
        (
            "typed_errors",
            count(&|c| matches!(c.outcome, CellOutcome::TypedError(_))),
        ),
        ("failures", count(&|c| c.is_failure())),
    ] {
        s.push_str(&format!("  \"{key}\": {value},\n"));
    }
    let results = two_device
        .iter()
        .map(|c| {
            cell_row(
                c,
                &format!(", \"kind\": \"{}\"", c.family.kind.name()),
                false,
            )
        })
        .collect();
    push_list(&mut s, "results", results, false);
    let ndev = cells
        .iter()
        .filter(|c| c.family.name == NDEV_LOSS.name)
        .map(|c| {
            cell_row(
                c,
                &format!(", \"machine\": \"{}\"", c.family.machine.0),
                false,
            )
        })
        .collect();
    push_list(&mut s, "ndev_loss", ndev, false);
    let failover = FAILOVER
        .iter()
        .flat_map(|f| cells.iter().filter(move |c| c.family.name == f.name))
        .map(|c| {
            let head = format!(
                ", \"family\": \"{}\", \"kind\": \"{}\", \"machine\": \"{}\"",
                c.family.name,
                c.family.kind.name(),
                c.family.machine.0
            );
            cell_row(c, &head, true)
        })
        .collect();
    push_list(&mut s, "owner_failover", failover, true);
    s.push_str("}\n");
    s
}

/// Runs the fault sweep over `seeds` seed indices and renders it as the
/// JSON of `FAULTS_summary.json`.
///
/// # Panics
///
/// Panics, naming every violation, if the sweep breaks its contract: a
/// failing cell, a fired single-device plan that did not end with exactly
/// one device lost, or no failover cell that promoted a peer.
pub fn fault_summary(seeds: u64) -> String {
    let cells = run_fault_sweep(seeds);
    let mut violations: Vec<String> = cells
        .iter()
        .filter(|c| c.is_failure())
        .map(|c| {
            let twice = if c.deterministic {
                ""
            } else {
                ", not reproduced"
            };
            format!(
                "  {} {} seed {}: {:?}{twice}",
                c.bench, c.family.name, c.seed, c.outcome
            )
        })
        .collect();
    violations.extend(cells.iter().filter(|c| c.loses_other_devices()).map(|c| {
        format!(
            "  {} {} seed {}: a single-device fault left {} devices lost",
            c.bench, c.family.name, c.seed, c.lost
        )
    }));
    if !cells.iter().any(|c| c.promoted) {
        violations.push("  owner failover: no cell promoted a peer to owner".to_string());
    }
    assert!(
        violations.is_empty(),
        "the fault sweep breaks its contract:\n{}",
        violations.join("\n")
    );
    render_faults_json(&cells, seeds)
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
            family: families()[0],
            seed: 0,
            plan_seed: 1,
            outcome: CellOutcome::TypedError("a \"b\" \\c\nline\u{1}end".to_string()),
            fired: true,
            promoted: false,
            lost: 0,
            deterministic: true,
            fault_at_ns: None,
            complete_ns: None,
            fault_free_ns: 0,
            recovery_latency_ns: None,
            timing_hash: 0,
        };
        let json = render_faults_json(&[cell], 1);
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
