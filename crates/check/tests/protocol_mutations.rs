//! Mutation harness for the protocol-trace linter: take genuine traces from
//! co-executed Polybench kernels, verify they lint clean, then inject
//! protocol bugs and verify every one is flagged.

use fluidicl::{Finisher, Fluidicl, FluidiclConfig, KernelReport, TraceEvent, TraceKind};
use fluidicl_check::{lint_report, lint_trace, sweep_size, LintSeverity, SWEEP_SEED};
use fluidicl_hetsim::MachineConfig;
use fluidicl_polybench::all_benchmarks;

mod common;

/// Runs a few benchmarks under FluidiCL and returns every kernel report.
/// The weak-GPU laptop makes the CPU competitive, so SYRK there yields
/// traces with several waves *and* several arrived statuses.
fn real_reports() -> Vec<KernelReport> {
    let mut reports = Vec::new();
    for (machine, names) in [
        (MachineConfig::paper_testbed(), ["ATAX", "CORR"].as_slice()),
        (
            MachineConfig::weak_gpu_laptop(),
            ["SYRK", "GEMM"].as_slice(),
        ),
    ] {
        for b in all_benchmarks()
            .into_iter()
            .filter(|b| names.contains(&b.name))
        {
            let n = sweep_size(b.name);
            let mut rt = Fluidicl::new(machine.clone(), FluidiclConfig::default(), (b.program)(n));
            let ok = b.run_and_validate_sized(&mut rt, n, SWEEP_SEED).unwrap();
            assert!(ok, "{} diverged from reference", b.name);
            reports.extend(rt.reports().iter().cloned());
        }
    }
    assert!(!reports.is_empty());
    reports
}

/// A real trace rich enough for every mutation: it has arrived statuses and
/// at least two GPU waves.
fn rich_trace(reports: &[KernelReport]) -> Vec<TraceEvent> {
    reports
        .iter()
        .map(|r| &r.trace)
        .find(|t| {
            let statuses = t
                .iter()
                .filter(|e| matches!(e.kind, TraceKind::EpStatus { .. }))
                .count();
            let waves = t
                .iter()
                .filter(|e| matches!(e.kind, TraceKind::GpuWaveDone { .. }))
                .count();
            statuses >= 1 && waves >= 2
        })
        .expect("some kernel produced statuses and multiple waves")
        .clone()
}

fn errors(trace: &[TraceEvent]) -> Vec<String> {
    lint_trace(trace)
        .into_iter()
        .filter(|d| d.severity == LintSeverity::Error)
        .map(|d| d.rule.to_string())
        .collect()
}

#[test]
fn real_traces_lint_clean() {
    for r in &real_reports() {
        let diags = lint_report(r);
        assert!(
            diags.is_empty(),
            "kernel `{}` trace should be clean, got {diags:?}",
            r.kernel
        );
    }
}

#[test]
fn mutation_missing_enqueue_record() {
    let t = rich_trace(&real_reports());
    let rules = errors(&t[1..]);
    assert!(rules.contains(&"trace-shape".to_string()), "{rules:?}");
}

#[test]
fn mutation_rising_watermark() {
    let reports = real_reports();
    let mut t = rich_trace(&reports);
    let total = match t[0].kind {
        TraceKind::Enqueued { total_wgs, .. } => total_wgs,
        _ => unreachable!(),
    };
    // Make the last status report a watermark above the whole NDRange:
    // the watermark would have to rise.
    let last_status = t
        .iter_mut()
        .rev()
        .find(|e| matches!(e.kind, TraceKind::EpStatus { .. }))
        .unwrap();
    if let TraceKind::EpStatus { watermark, .. } = &mut last_status.kind {
        *watermark = total + 1;
    }
    let rules = errors(&t);
    assert!(
        rules.contains(&"watermark-monotone".to_string()),
        "{rules:?}"
    );
}

#[test]
fn mutation_status_without_data() {
    let reports = real_reports();
    let mut t = rich_trace(&reports);
    // Drop every data transfer: the in-order queue now delivers statuses
    // whose payload was never sent.
    t.retain(|e| !matches!(e.kind, TraceKind::EpSend { .. }));
    let rules = errors(&t);
    assert!(
        rules.contains(&"data-before-status".to_string()),
        "{rules:?}"
    );
}

#[test]
fn mutation_dropped_wave() {
    let reports = real_reports();
    let mut t = rich_trace(&reports);
    // Remove the first wave's start/done pair: the next wave no longer
    // starts at the expected work-group.
    let mut dropped_start = false;
    let mut dropped_done = false;
    t.retain(|e| match e.kind {
        TraceKind::GpuWaveStart { .. } if !dropped_start => {
            dropped_start = true;
            false
        }
        TraceKind::GpuWaveDone { .. } if !dropped_done => {
            dropped_done = true;
            false
        }
        _ => true,
    });
    let rules = errors(&t);
    assert!(rules.contains(&"wave-contiguity".to_string()), "{rules:?}");
}

#[test]
fn mutation_missing_gpu_exit() {
    let reports = real_reports();
    let mut t = rich_trace(&reports);
    t.retain(|e| !matches!(e.kind, TraceKind::GpuExit));
    let rules = errors(&t);
    assert!(rules.contains(&"gpu-exit".to_string()), "{rules:?}");
}

#[test]
fn mutation_missing_merge() {
    let reports = real_reports();
    let mut t = rich_trace(&reports);
    t.retain(|e| !matches!(e.kind, TraceKind::MergeDone));
    let rules = errors(&t);
    assert!(rules.contains(&"merge".to_string()), "{rules:?}");
}

#[test]
fn mutation_duplicated_completion() {
    let reports = real_reports();
    let mut t = rich_trace(&reports);
    let last = t.last().unwrap().clone();
    t.push(TraceEvent {
        at: last.at,
        kind: TraceKind::KernelComplete {
            finisher: Finisher::Gpu,
        },
    });
    let rules = errors(&t);
    assert!(rules.contains(&"completion".to_string()), "{rules:?}");
}

#[test]
fn mutation_broken_subkernel_descent() {
    let reports = real_reports();
    let mut t = rich_trace(&reports);
    // Shift the first subkernel's range up by one: it no longer starts the
    // descent at the top of the NDRange.
    let first = t
        .iter_mut()
        .find(|e| matches!(e.kind, TraceKind::EpSubkernelStart { .. }))
        .unwrap();
    if let TraceKind::EpSubkernelStart { from, to, .. } = &mut first.kind {
        *from += 1;
        *to += 1;
    }
    let rules = errors(&t);
    assert!(rules.contains(&"claim-descent".to_string()), "{rules:?}");
}

#[test]
fn mutation_peer_claim_below_the_frontier_top() {
    // The descent rule covers every endpoint of an N-device trace: a peer
    // claim that skips the current top of the frontier leaves unclaimed
    // work-groups above it.
    let b = all_benchmarks()
        .into_iter()
        .find(|b| b.name == "SYRK")
        .unwrap();
    let n = sweep_size(b.name);
    let mut rt = Fluidicl::new(
        MachineConfig::paper_testbed_3dev(),
        FluidiclConfig::default(),
        (b.program)(n),
    );
    assert!(b.run_and_validate_sized(&mut rt, n, SWEEP_SEED).unwrap());
    let mut t = rt
        .reports()
        .iter()
        .map(|r| r.trace.clone())
        .find(|t| {
            t.iter()
                .any(|e| matches!(e.kind, TraceKind::EpSubkernelStart { dev: 1.., .. }))
        })
        .expect("a peer claimed work");
    assert!(
        errors(&t).is_empty(),
        "unmutated 3-device trace lints clean"
    );
    let peer = t
        .iter_mut()
        .find(|e| matches!(e.kind, TraceKind::EpSubkernelStart { dev: 1.., .. }))
        .unwrap();
    if let TraceKind::EpSubkernelStart { from, to, .. } = &mut peer.kind {
        *from -= 1;
        *to -= 1;
    }
    let rules = errors(&t);
    assert!(rules.contains(&"claim-descent".to_string()), "{rules:?}");
}

#[test]
fn mutation_cpu_finish_hiding_credited_peer_work() {
    // A CPU finish makes the CPU's copy final, so it is legal only when no
    // peer's work was credited: claiming it on a kernel a peer helped with
    // would drop the peer's ranges, which exist only in the owner's merge.
    let b = all_benchmarks()
        .into_iter()
        .find(|b| b.name == "SYRK")
        .unwrap();
    let n = sweep_size(b.name);
    let mut rt = Fluidicl::new(
        MachineConfig::paper_testbed_3dev(),
        FluidiclConfig::default(),
        (b.program)(n),
    );
    assert!(b.run_and_validate_sized(&mut rt, n, SWEEP_SEED).unwrap());
    let report = rt
        .reports()
        .iter()
        .find(|r| r.peer_executed_wgs.iter().any(|&w| w > 0))
        .expect("a peer executed work-groups");
    assert_eq!(report.finished_by, Finisher::Gpu);
    let mut t = report.trace.clone();
    assert!(
        errors(&t).is_empty(),
        "unmutated 3-device trace lints clean"
    );
    for e in &mut t {
        if let TraceKind::KernelComplete { finisher } = &mut e.kind {
            *finisher = Finisher::Cpu;
        }
    }
    let diags = lint_trace(&t);
    assert!(
        diags
            .iter()
            .any(|d| d.rule == "completion" && d.message.contains("credited to a peer")),
        "{diags:?}"
    );
}

#[test]
fn mutation_unsorted_timestamps() {
    let reports = real_reports();
    let mut t = rich_trace(&reports);
    // Move the GPU launch to the very end of the log.
    let pos = t
        .iter()
        .position(|e| matches!(e.kind, TraceKind::GpuLaunch))
        .unwrap();
    let ev = t.remove(pos);
    t.push(ev);
    let rules = errors(&t);
    assert!(rules.contains(&"chronology".to_string()), "{rules:?}");
}

#[test]
fn mutation_inconsistent_report_counters() {
    let reports = real_reports();
    let mut r = reports
        .iter()
        .find(|r| r.gpu_executed_wgs > 0)
        .unwrap()
        .clone();
    r.gpu_executed_wgs += 1;
    let diags = lint_report(&r);
    assert!(
        diags.iter().any(|d| d.rule == "report-consistency"),
        "{diags:?}"
    );
}

#[test]
fn runtime_rejects_protocol_violations_when_enabled() {
    // The config flag is what wires the linter into the runtime; with it on
    // (the debug/test default) every report returned to callers has already
    // been vetted, so its trace lints clean here.
    let machine = MachineConfig::paper_testbed();
    let b = all_benchmarks()
        .into_iter()
        .find(|b| b.name == "SYRK")
        .unwrap();
    let n = sweep_size(b.name);
    let config = FluidiclConfig::default().with_validate_protocol(true);
    let mut rt = Fluidicl::new(machine, config, (b.program)(n));
    assert!(b.run_and_validate_sized(&mut rt, n, SWEEP_SEED).unwrap());
    assert!(rt.config().validate_protocol);
    for r in rt.reports() {
        assert!(lint_report(r).is_empty());
    }
}

#[test]
fn mutation_status_of_a_deleted_resend() {
    // A transient fault voids a transfer; deleting its re-send leaves a
    // status acknowledging data that never reached the owner.
    let (_, report, resend) = common::resend_behind_a_live_send();
    assert!(
        errors(&report.trace).is_empty(),
        "unmutated fault trace lints clean"
    );
    let mut t = report.trace;
    t.remove(resend);
    let rules = errors(&t);
    assert!(
        rules.contains(&"data-before-status".to_string()),
        "{rules:?}"
    );
}
