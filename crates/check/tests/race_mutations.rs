//! Mutation harness for the happens-before race detector.
//!
//! Runs real benchmarks under FluidiCL, takes their (race-free) kernel
//! reports, and applies targeted trace mutations that each reintroduce a
//! protocol race the implementation is designed to exclude. The detector
//! must flag **every** mutation with the expected rule, and must stay
//! silent on every unmutated benchmark across the whole runtime
//! configuration matrix — together those pin both the detector's recall
//! and its false-positive rate.

use std::sync::Arc;

use fluidicl::{Fluidicl, FluidiclConfig, KernelReport, TraceKind};
use fluidicl_check::{race_check_report, sweep_size, SWEEP_SEED};
use fluidicl_hetsim::{AbortMode, MachineConfig};
use fluidicl_polybench::all_benchmarks;
use fluidicl_vcl::KernelDef;

mod common;

/// Every benchmark × every runtime config must produce race-free traces:
/// the detector's false-positive contract over the real protocol.
#[test]
fn all_benchmarks_race_free_across_configs() {
    let configs = [
        ("default", FluidiclConfig::default()),
        (
            "abort=wg-start",
            FluidiclConfig::default().with_abort_mode(AbortMode::WorkGroupStart),
        ),
        (
            "abort=in-loop",
            FluidiclConfig::default().with_abort_mode(AbortMode::InLoop),
        ),
        (
            "no-opts",
            FluidiclConfig::default()
                .with_wg_split(false)
                .with_buffer_pool(false)
                .with_location_tracking(false),
        ),
        (
            "whole-buffer",
            FluidiclConfig::default().with_dirty_range_transfers(false),
        ),
        (
            "pipeline=1",
            FluidiclConfig::default().with_pipelining(false),
        ),
    ];
    let mut checked = 0usize;
    for b in all_benchmarks() {
        let n = sweep_size(b.name);
        for (cname, config) in &configs {
            let config = config.clone().with_validate_protocol(true);
            let mut rt = Fluidicl::new(MachineConfig::paper_testbed(), config, (b.program)(n));
            let ok = b
                .run_and_validate_sized(&mut rt, n, SWEEP_SEED)
                .expect("benchmark runs");
            assert!(ok, "{}/{cname}: output mismatch", b.name);
            let defs = (b.program)(n);
            for report in rt.reports() {
                let kdef = defs.kernel(&report.kernel).expect("kernel registered");
                let diags = race_check_report(&kdef, report);
                assert!(
                    diags.is_empty(),
                    "{}/{cname} kernel `{}`: unexpected race findings {diags:?}",
                    b.name,
                    report.kernel
                );
                checked += 1;
            }
        }
    }
    assert!(
        checked >= all_benchmarks().len() * configs.len(),
        "expected full matrix, checked {checked}"
    );
}

/// Finds a cooperative report rich enough to mutate: at least two CPU
/// subkernel completions, two status acks, a merge, and a non-zero final
/// watermark. The serial protocol ships every subkernel individually, so
/// acks and sends pair one-to-one — the richest trace shape to mutate.
fn cooperative_base() -> (Arc<KernelDef>, KernelReport) {
    let mut seen = Vec::new();
    for (machine, b) in [
        MachineConfig::weak_gpu_laptop(),
        MachineConfig::paper_testbed(),
    ]
    .iter()
    .flat_map(|m| all_benchmarks().into_iter().map(move |b| (m.clone(), b)))
    {
        let n = sweep_size(b.name);
        let config = FluidiclConfig::default()
            .with_validate_protocol(true)
            .with_pipelining(false);
        let mut rt = Fluidicl::new(machine, config, (b.program)(n));
        let ok = b
            .run_and_validate_sized(&mut rt, n, SWEEP_SEED)
            .expect("benchmark runs");
        assert!(ok, "{}: output mismatch", b.name);
        let defs = (b.program)(n);
        for report in rt.reports() {
            let subs = count(&report.trace, |k| {
                matches!(k, TraceKind::EpSubkernelDone { .. })
            });
            let acks = count(&report.trace, |k| matches!(k, TraceKind::EpStatus { .. }));
            let merges = count(&report.trace, |k| matches!(k, TraceKind::MergeDone));
            let wm = report
                .trace
                .iter()
                .filter_map(|e| match e.kind {
                    TraceKind::EpStatus { watermark, .. } => Some(watermark),
                    _ => None,
                })
                .min();
            if subs >= 2 && acks >= 2 && merges == 1 && wm.is_some_and(|w| w > 0) {
                let kdef = defs.kernel(&report.kernel).expect("kernel registered");
                return (kdef, report.clone());
            }
            seen.push(format!(
                "{}/{}: subs={subs} acks={acks} merges={merges} wm={wm:?}",
                b.name, report.kernel
            ));
        }
    }
    panic!(
        "no benchmark produced a cooperative trace rich enough to mutate:\n{}",
        seen.join("\n")
    );
}

fn count(trace: &[fluidicl::TraceEvent], pred: impl Fn(&TraceKind) -> bool) -> usize {
    trace.iter().filter(|e| pred(&e.kind)).count()
}

fn final_watermark(report: &KernelReport) -> u64 {
    report
        .trace
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::EpStatus { watermark, .. } => Some(watermark),
            _ => None,
        })
        .min()
        .expect("cooperative trace has status acks")
}

fn position(trace: &[fluidicl::TraceEvent], pred: impl Fn(&TraceKind) -> bool) -> Option<usize> {
    trace.iter().position(|e| pred(&e.kind))
}

fn rules(kdef: &KernelDef, report: &KernelReport) -> Vec<&'static str> {
    race_check_report(kdef, report)
        .iter()
        .map(|d| d.rule)
        .collect()
}

/// Mutation 1 — merge before data arrival: the last status ack (the one
/// carrying the final watermark's data) is delayed until after the merge.
/// The merge then covers a region whose contribution exists but has not
/// arrived: `race-merge-order`.
#[test]
fn mutation_merge_before_data_arrival_is_flagged() {
    let (kdef, base) = cooperative_base();
    assert!(rules(&kdef, &base).is_empty(), "base report must be clean");
    let mut report = base.clone();
    let last_ack = report
        .trace
        .iter()
        .rposition(|e| matches!(e.kind, TraceKind::EpStatus { .. }))
        .expect("has acks");
    let merge = position(&report.trace, |k| matches!(k, TraceKind::MergeDone)).expect("has merge");
    assert!(last_ack < merge, "clean trace acks before merging");
    let ack = report.trace.remove(last_ack);
    // `merge` shifted down by one after the removal; insert right after it.
    report.trace.insert(merge, ack);
    let flagged = rules(&kdef, &report);
    assert!(
        flagged.contains(&"race-merge-order"),
        "expected race-merge-order, got {flagged:?}"
    );
}

/// Mutation 2 — overlapping subkernel write ranges: the second CPU
/// subkernel's range is extended so its write footprint overlaps the
/// first's. Two contributions consumed by the same merge now write the
/// same elements: `race-overlapping-writes` (they are program-ordered on
/// the CPU lane, so not a concurrency violation — but the merge result
/// silently depends on apply order).
#[test]
fn mutation_overlapping_subkernel_writes_is_flagged() {
    let (kdef, base) = cooperative_base();
    let mut report = base.clone();
    // CPU subkernels descend: the first completion covers the highest
    // range and the second ends exactly where the first starts.
    let first = position(&report.trace, |k| {
        matches!(k, TraceKind::EpSubkernelDone { .. })
    })
    .expect("has subkernels");
    let TraceKind::EpSubkernelDone {
        from: f1, to: t1, ..
    } = report.trace[first].kind
    else {
        unreachable!()
    };
    let second = report.trace[first + 1..]
        .iter()
        .position(|e| matches!(e.kind, TraceKind::EpSubkernelDone { .. }))
        .map(|i| first + 1 + i)
        .expect("has a second subkernel");
    let TraceKind::EpSubkernelDone {
        dev,
        from: f2,
        to: t2,
    } = report.trace[second].kind
    else {
        unreachable!()
    };
    assert_eq!(t2, f1, "descending subkernels are contiguous");
    // Extend the second subkernel one work-group into the first's range.
    report.trace[second].kind = TraceKind::EpSubkernelDone {
        dev,
        from: f2,
        to: t2 + 1,
    };
    assert!(t2 < t1, "overlap stays inside the first subkernel");
    let flagged = rules(&kdef, &report);
    assert!(
        flagged.contains(&"race-overlapping-writes"),
        "expected race-overlapping-writes, got {flagged:?}"
    );
}

/// Mutation 3 — status-ack reorder across batches: the first status ack
/// is moved before any data send was enqueued. An ack with no in-flight
/// transfer to acknowledge is a broken message edge:
/// `race-recv-without-send`.
#[test]
fn mutation_status_ack_reorder_is_flagged() {
    let (kdef, base) = cooperative_base();
    let mut report = base.clone();
    let first_ack =
        position(&report.trace, |k| matches!(k, TraceKind::EpStatus { .. })).expect("has acks");
    let first_send =
        position(&report.trace, |k| matches!(k, TraceKind::EpSend { .. })).expect("has sends");
    assert!(first_send < first_ack, "clean trace sends before acking");
    let ack = report.trace.remove(first_ack);
    report.trace.insert(first_send, ack);
    let flagged = rules(&kdef, &report);
    assert!(
        flagged.contains(&"race-recv-without-send"),
        "expected race-recv-without-send, got {flagged:?}"
    );
}

/// Mutation 4 — stale-snapshot read: the final status ack reports a lower
/// watermark than any data actually shipped, so the merge covers elements
/// whose contribution was never sent — it would read a stale snapshot of
/// the owner's copy: `race-stale-read`.
#[test]
fn mutation_stale_snapshot_read_is_flagged() {
    let (kdef, base) = cooperative_base();
    let mut report = base.clone();
    let wm = final_watermark(&report);
    assert!(wm > 0, "cooperative_base guarantees a non-zero watermark");
    let stale_ack = report
        .trace
        .iter()
        .position(|e| matches!(e.kind, TraceKind::EpStatus { watermark, .. } if watermark == wm))
        .expect("watermark ack exists");
    if let TraceKind::EpStatus { watermark, .. } = &mut report.trace[stale_ack].kind {
        *watermark = 0;
    }
    let flagged = rules(&kdef, &report);
    assert!(
        flagged.contains(&"race-stale-read"),
        "expected race-stale-read, got {flagged:?}"
    );
}

/// Mutation 5 — forged watermark on an N-device trace: a status from a
/// peer-assisted kernel reports watermark 0, so the owner's walk would stop
/// at once and the merge would have to establish the whole NDRange. The
/// merge region includes the reported covered suffix on every trace, so
/// the uncovered part is a stale read here too.
#[test]
fn mutation_forged_watermark_on_a_peer_trace_is_flagged() {
    let (defs, mut report) = all_benchmarks()
        .into_iter()
        .find_map(|b| {
            // Twice the sweep size: the peer's begin broadcast is amortised
            // and its results reach the owner before the exit.
            let n = 2 * sweep_size(b.name);
            let config = FluidiclConfig::default().with_validate_protocol(true);
            let mut rt = Fluidicl::new(MachineConfig::paper_testbed_3dev(), config, (b.program)(n));
            assert!(b.run_and_validate_sized(&mut rt, n, SWEEP_SEED).unwrap());
            let report = rt.reports().iter().find(|r| {
                r.trace
                    .iter()
                    .any(|e| matches!(e.kind, TraceKind::EpStatus { dev: 1.., .. }))
                    && count(&r.trace, |k| matches!(k, TraceKind::MergeDone)) == 1
                    && final_watermark(r) > 0
            })?;
            Some(((b.program)(n), report.clone()))
        })
        .expect("a peer delivered results on some benchmark");
    let kdef = defs.kernel(&report.kernel).expect("kernel registered");
    assert!(
        rules(&kdef, &report).is_empty(),
        "base report must be clean"
    );
    let last_ack = report
        .trace
        .iter()
        .rposition(|e| matches!(e.kind, TraceKind::EpStatus { .. }))
        .expect("has acks");
    if let TraceKind::EpStatus { watermark, .. } = &mut report.trace[last_ack].kind {
        *watermark = 0;
    }
    let flagged = rules(&kdef, &report);
    assert!(
        flagged.contains(&"race-stale-read"),
        "expected race-stale-read, got {flagged:?}"
    );
}

/// Mutation 6 — a status outliving its transfer on a fault trace: a
/// transient fault voids a transfer and its re-send is deleted, so the
/// re-send's status acknowledges a transfer that never delivered. Another
/// send of the endpoint is in flight at that moment; the status must not
/// pair with it: `race-recv-without-send`.
#[test]
fn mutation_status_of_a_deleted_resend_is_flagged() {
    let (kdef, base, resend) = common::resend_behind_a_live_send();
    assert!(rules(&kdef, &base).is_empty(), "base report must be clean");
    let mut report = base;
    report.trace.remove(resend);
    let flagged = rules(&kdef, &report);
    assert!(
        flagged.contains(&"race-recv-without-send"),
        "expected race-recv-without-send, got {flagged:?}"
    );
}
