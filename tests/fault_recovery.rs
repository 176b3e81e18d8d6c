//! Recovery contract under injected faults (`FluidiclConfig::with_faults`):
//! every run either **recovers** — outputs bit-identical to the sequential
//! reference — or surfaces a **typed** error (`ClError::DeviceLost` /
//! `ClError::Timeout`). Never a panic, never a hang, never silent
//! corruption; and the same plan seed always reproduces the same schedule.
//!
//! The full 9-benchmark × 7-kind × 8-seed grid runs in the fault sweep
//! (`crates/check/tests/faults_summary.rs`); these tests pin one
//! hand-picked scenario per fault kind plus the chunk-rule,
//! pool-accounting and determinism guarantees.

use fluidicl::{lint_report, render_timeline, Finisher, Fluidicl, FluidiclConfig, Lane, TraceKind};
use fluidicl_check::{check_schedule, race_check_report, sweep_size, SWEEP_SEED};
use fluidicl_hetsim::MachineConfig;
use fluidicl_polybench::{all_benchmarks, pipeline_benchmark};
use fluidicl_vcl::{ClError, ClResult, FaultKind};

mod common;
use common::{assert_no_stray_holders, faulty, has_event, SCAN};

fn test_size(name: &str) -> usize {
    match name {
        "ATAX" | "BICG" | "MVT" => 256,
        "CORR" => 128,
        "GESUMMV" => 512,
        "SYRK" | "SYR2K" | "GEMM" | "2MM" => 64,
        other => panic!("unknown benchmark {other}"),
    }
}

fn run_with(name: &str, config: FluidiclConfig) -> (Fluidicl, ClResult<bool>) {
    common::run(
        &MachineConfig::paper_testbed(),
        name,
        test_size(name),
        config,
    )
}

fn scan(
    name: &str,
    kind: FaultKind,
    pred: impl Fn(&Fluidicl, &ClResult<bool>) -> bool,
) -> (Fluidicl, ClResult<bool>) {
    let machine = MachineConfig::paper_testbed();
    common::scan(&machine, name, test_size(name), |ps| faulty(kind, ps), pred)
}

#[test]
fn gpu_loss_recovers_bit_identically_on_the_cpu() {
    let (rt, res) = scan("SYRK", FaultKind::GpuLost, |rt, _| {
        !rt.roster().gpu_healthy()
    });
    assert!(res.unwrap(), "survivor output must match the reference");
    assert!(rt.fault_fired());
    assert!(has_event(&rt, |k| matches!(k, TraceKind::OwnerLost)));
    assert_eq!(rt.reports()[0].finished_by, Finisher::Cpu);
}

#[test]
fn cpu_loss_recovers_bit_identically_on_the_gpu() {
    let (rt, res) = scan("SYRK", FaultKind::CpuLost, |rt, _| {
        !rt.roster().cpu_healthy() && rt.roster().gpu_healthy()
    });
    assert!(res.unwrap(), "survivor output must match the reference");
    assert!(has_event(&rt, |k| matches!(
        k,
        TraceKind::NonOwnerLost { dev: 0 }
    )));
    assert_eq!(rt.reports()[0].finished_by, Finisher::Gpu);
}

#[test]
fn transient_transfer_faults_retry_and_recover() {
    let (rt, res) = scan("SYRK", FaultKind::TransferTransient, |rt, _| {
        has_event(rt, |k| matches!(k, TraceKind::EpTransferFault { .. }))
    });
    assert!(res.unwrap(), "retried run must match the reference");
    assert!(!rt.roster().any_lost(), "a transient fault loses no device");
}

#[test]
fn corrupt_payloads_are_rejected_and_resent() {
    let (rt, res) = scan("SYRK", FaultKind::CorruptPayload, |rt, _| {
        has_event(rt, |k| matches!(k, TraceKind::EpTransferRejected { .. }))
    });
    assert!(res.unwrap(), "resent run must match the reference");
    assert!(!rt.roster().any_lost());
}

#[test]
fn corrupt_statuses_are_rejected_and_resent() {
    let (rt, res) = scan("SYRK", FaultKind::CorruptStatus, |rt, _| {
        has_event(rt, |k| matches!(k, TraceKind::EpTransferRejected { .. }))
    });
    assert!(res.unwrap(), "resent run must match the reference");
    assert!(!rt.roster().any_lost());
}

#[test]
fn transfer_stalls_hit_the_watchdog_and_the_run_still_completes() {
    // GESUMMV: long enough that the GPU is still executing when the
    // transfer watchdog fires (on tiny kernels the GPU finishes first and
    // the wedged link is simply never needed again).
    let (rt, res) = scan("GESUMMV", FaultKind::TransferStall, |rt, _| {
        has_event(rt, |k| matches!(k, TraceKind::EpTransferTimeout { .. }))
    });
    assert!(res.unwrap(), "stalled-link run must match the reference");
    assert!(!rt.roster().any_lost(), "a stalled link loses no device");
}

#[test]
fn double_loss_surfaces_a_typed_device_lost_error() {
    // A launch that errors mid-flight must hand back every scratch buffer
    // it acquired — the free count after the error must equal that after
    // a clean run — and must leave no output buffer shared with the
    // abandoned launch's snapshots.
    let (clean, res) = run_with(
        "SYRK",
        FluidiclConfig::default().with_validate_protocol(true),
    );
    assert!(res.unwrap());
    assert_no_stray_holders(&clean);
    let (rt, res) = scan("SYRK", FaultKind::DoubleLoss, |_, res| res.is_err());
    match res {
        Err(ClError::DeviceLost { .. }) => {}
        other => panic!("double loss must surface ClError::DeviceLost, got {other:?}"),
    }
    assert_no_stray_holders(&rt);
    assert_eq!(
        rt.scratch_free_count(),
        clean.scratch_free_count(),
        "scratch pool leaked across a mid-flight error"
    );
}

#[test]
fn permanent_loss_degrades_follow_on_kernels() {
    // CORR enqueues four kernels; once the GPU dies in an early one, every
    // later kernel must run single-device on the CPU (a solo span)
    // and the whole benchmark must still match the reference.
    let (rt, res) = scan("CORR", FaultKind::GpuLost, |rt, res| {
        matches!(res, Ok(true)) && has_event(rt, |k| matches!(k, TraceKind::SoloRun { .. }))
    });
    assert!(res.unwrap());
    assert!(!rt.roster().gpu_healthy() && rt.roster().cpu_healthy());
    let lost_at = rt
        .reports()
        .iter()
        .position(|r| {
            r.trace
                .iter()
                .any(|e| matches!(e.kind, TraceKind::OwnerLost))
        })
        .expect("some report records the loss");
    for r in &rt.reports()[lost_at + 1..] {
        let degraded: Vec<_> = r
            .trace
            .iter()
            .filter_map(|e| match e.kind {
                TraceKind::SoloRun { lane, from, to, .. } => Some((lane, from, to)),
                _ => None,
            })
            .collect();
        assert!(
            !degraded.is_empty(),
            "{}: kernels after a permanent loss run degraded",
            r.kernel
        );
        assert!(
            degraded.iter().all(|(d, _, _)| *d == Lane::Cpu),
            "{}: the survivor is the CPU",
            r.kernel
        );
        assert_eq!(r.finished_by, Finisher::Cpu);
    }
}

#[test]
fn same_plan_seed_reproduces_the_same_schedule() {
    for kind in FaultKind::all() {
        // Find a seed where the fault actually triggers, then re-run it
        // twice: outcome, timings and full rendered traces must agree.
        let ps = (0..SCAN)
            .find(|ps| run_with("SYRK", faulty(kind, *ps)).0.fault_fired())
            .unwrap_or_else(|| panic!("{kind:?} never fired in 0..{SCAN}"));
        let (rt_a, res_a) = run_with("SYRK", faulty(kind, ps));
        let (rt_b, res_b) = run_with("SYRK", faulty(kind, ps));
        let render = |res: &ClResult<bool>| match res {
            Ok(ok) => format!("ok({ok})"),
            Err(e) => format!("err({e})"),
        };
        assert_eq!(render(&res_a), render(&res_b), "{kind:?}: outcome differs");
        assert_eq!(rt_a.reports().len(), rt_b.reports().len());
        for (ra, rb) in rt_a.reports().iter().zip(rt_b.reports()) {
            assert_eq!(ra.duration, rb.duration, "{kind:?}: duration differs");
            assert_eq!(
                render_timeline(&ra.kernel, &ra.trace),
                render_timeline(&rb.kernel, &rb.trace),
                "{kind:?}: rendered traces differ"
            );
        }
    }
}

/// The chunk rule after a transfer retry: the first retry (or checksum
/// reject) on the CPU's link halves its chunk, never below the floor of
/// one work-group per hardware thread, and stops its growth. A claim off
/// the frontier takes exactly the chunk unless it ends the descent at
/// work-group 0, where it may absorb a tail of up to one floor. So the
/// first subkernel launched after the retry is at most half the one
/// launched just before it (when no completion in between could have grown
/// the chunk), and no later one is larger than its predecessor.
#[test]
fn subkernels_launched_after_a_retry_never_outgrow_the_chunk_rule() {
    let machine = MachineConfig::paper_testbed();
    let floor = u64::from(machine.cpu.threads());
    let mut checked = 0;
    for b in all_benchmarks() {
        let n = sweep_size(b.name);
        for kind in [
            FaultKind::TransferTransient,
            FaultKind::CorruptPayload,
            FaultKind::CorruptStatus,
        ] {
            for ps in 0..8 {
                let (rt, res) = common::run(&machine, b.name, n, faulty(kind, ps));
                assert!(res.unwrap(), "{} {kind:?} plan seed {ps}", b.name);
                for r in rt.reports() {
                    // The chunk in force, where the trace pins it.
                    let mut chunk = None;
                    let mut retried = false;
                    for e in &r.trace {
                        match e.kind {
                            TraceKind::EpTransferFault { dev: 0, .. }
                            | TraceKind::EpTransferRejected { dev: 0, .. }
                                if !retried =>
                            {
                                retried = true;
                                chunk = chunk.map(|c: u64| (c / 2).max(floor));
                            }
                            TraceKind::EpSubkernelDone { dev: 0, .. } if !retried => chunk = None,
                            TraceKind::EpSubkernelStart {
                                dev: 0, from, to, ..
                            } => {
                                let wgs = to - from;
                                if let Some(c) = chunk.filter(|_| retried) {
                                    let bound = if from == 0 { c + floor } else { c };
                                    assert!(
                                        wgs <= bound,
                                        "{} {kind:?} plan seed {ps}, {}: a {wgs}-group \
                                         subkernel after a retry, where the chunk is {c}",
                                        b.name,
                                        r.kernel
                                    );
                                    checked += 1;
                                }
                                chunk = Some(wgs);
                            }
                            _ => {}
                        }
                    }
                }
            }
        }
    }
    assert!(checked > 0, "no subkernel launched after a retry");
}

/// Fault plans run through the kernel graph like every other launch. On
/// the three-device BATCHMM pipeline HEFT gives one of the four products
/// to the peer lane. A primary-GPU loss in the first lane-0 node leaves
/// every later node of the same flush on the survivors: the peer runs its
/// own node, the CPU the next lane-0 nodes, and the CPU joined by the idle
/// peer the last. The output matches the reference, the schedule is clean,
/// and every report is lint- and race-clean.
#[test]
fn fault_plans_run_through_the_kernel_graph() {
    let b = pipeline_benchmark();
    let n = sweep_size(b.name);
    let run = |ps: u64| {
        let config = faulty(FaultKind::GpuLost, ps);
        let mut rt = Fluidicl::new(MachineConfig::paper_testbed_3dev(), config, (b.program)(n));
        let res = b.run_and_validate_sized(&mut rt, n, SWEEP_SEED);
        (rt, res)
    };
    let lost_first = |rt: &Fluidicl| {
        rt.reports().first().is_some_and(|r| {
            r.finished_by == Finisher::Cpu && r.trace.iter().any(|e| e.kind == TraceKind::OwnerLost)
        })
    };
    let (rt, res) = (0..SCAN)
        .map(run)
        .find(|(rt, _)| lost_first(rt))
        .unwrap_or_else(|| panic!("no plan seed in 0..{SCAN} lost the GPU in the first node"));
    assert!(res.unwrap(), "BATCHMM must recover bit-exactly");
    assert!(!rt.roster().gpu_healthy() && rt.roster().cpu_healthy());

    let schedules = rt.graph_schedules();
    assert_eq!(schedules.len(), 1, "every kernel ran in the read's flush");
    let findings = check_schedule(&schedules[0]);
    assert!(findings.is_empty(), "{findings:?}");
    let lanes: Vec<(usize, Vec<usize>)> = schedules[0]
        .nodes
        .iter()
        .map(|nd| (nd.lane, nd.joined.clone()))
        .collect();
    assert_eq!(
        lanes,
        [
            (0, vec![]),
            (1, vec![]),
            (0, vec![]),
            (0, vec![]),
            (0, vec![1])
        ],
        "the peer keeps its node, then joins the reduction"
    );
    // Where each node ran alone: the peer its own product, the CPU the two
    // lane-0 products after the loss. The first node and the reduction
    // co-execute.
    let reports = rt.reports();
    let solo: Vec<Vec<Lane>> = reports
        .iter()
        .map(|r| {
            r.trace
                .iter()
                .filter_map(|e| match e.kind {
                    TraceKind::SoloRun { lane, .. } => Some(lane),
                    _ => None,
                })
                .collect()
        })
        .collect();
    assert_eq!(
        solo,
        [
            vec![],
            vec![Lane::Peer(1)],
            vec![Lane::Cpu],
            vec![Lane::Cpu],
            vec![]
        ]
    );
    let defs = (b.program)(n);
    for report in reports {
        assert!(lint_report(report).is_empty(), "{}", report.kernel);
        let kdef = defs.kernel(&report.kernel).unwrap();
        let findings = race_check_report(&kdef, report);
        assert!(findings.is_empty(), "{}: {findings:?}", report.kernel);
    }
}
