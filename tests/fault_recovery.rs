//! Recovery contract under injected faults (`FluidiclConfig::with_faults`):
//! every run either **recovers** — outputs bit-identical to the sequential
//! reference — or surfaces a **typed** error (`ClError::DeviceLost` /
//! `ClError::Timeout`). Never a panic, never a hang, never silent
//! corruption; and the same plan seed always reproduces the same schedule.
//!
//! The full 9-benchmark × 7-kind × 8-seed grid runs in the fault sweep
//! (`crates/check/tests/faults_summary.rs`); these tests pin one
//! hand-picked scenario per fault kind plus the pool-accounting and
//! determinism guarantees.

use fluidicl::{
    lint_report, render_timeline, Finisher, Fluidicl, FluidiclConfig, Lane, RecoveryPolicy,
    TraceKind,
};
use fluidicl_check::{race_check_report, SWEEP_SEED};
use fluidicl_hetsim::MachineConfig;
use fluidicl_polybench::{all_benchmarks, syrk};
use fluidicl_vcl::{ClError, ClResult, FaultKind, FaultPlan};

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
    let (_, res) = scan("SYRK", FaultKind::DoubleLoss, |_, res| res.is_err());
    match res {
        Err(ClError::DeviceLost { .. }) => {}
        other => panic!("double loss must surface ClError::DeviceLost, got {other:?}"),
    }
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

#[test]
fn exhausted_retries_surface_a_typed_timeout_and_pools_stay_balanced() {
    // Satellite: a launch that errors mid-flight must hand back every
    // scratch buffer it acquired — the free count after the error must
    // equal that after a clean run — must leave no output buffer shared
    // with the abandoned launch's snapshots, and the runtime must stay
    // usable for follow-on launches.
    let n = 64;
    let machine = MachineConfig::paper_testbed();
    let mut clean = Fluidicl::new(
        machine.clone(),
        FluidiclConfig::default().with_validate_protocol(true),
        syrk::program(n),
    );
    assert_eq!(
        syrk::run(&mut clean, n, SWEEP_SEED).unwrap(),
        syrk::reference(n, SWEEP_SEED)
    );
    let scf_ok = clean.scratch_free_count();
    assert_no_stray_holders(&clean);

    for ps in 0..SCAN {
        let config = FluidiclConfig::default()
            .with_validate_protocol(true)
            .with_faults(Some(FaultPlan::new(FaultKind::TransferTransient, ps)))
            .with_recovery(RecoveryPolicy::default().with_max_transfer_retries(0));
        let mut rt = Fluidicl::new(machine.clone(), config, syrk::program(n));
        match syrk::run(&mut rt, n, SWEEP_SEED) {
            Err(ClError::Timeout { .. }) => {
                assert_no_stray_holders(&rt);
                assert_eq!(
                    rt.scratch_free_count(),
                    scf_ok,
                    "scratch pool leaked across a mid-flight error"
                );
                // The transient trigger is consumed: a follow-on launch on
                // the same runtime succeeds and matches the reference.
                assert_eq!(
                    syrk::run(&mut rt, n, SWEEP_SEED).unwrap(),
                    syrk::reference(n, SWEEP_SEED)
                );
                return;
            }
            Ok(_) => continue, // fault never fired on this seed
            Err(e) => panic!("expected a typed timeout, got {e}"),
        }
    }
    panic!("no plan seed in 0..{SCAN} exhausted the zero-retry budget");
}

#[test]
fn chunk_shrink_on_retry_keeps_more_cpu_work_mergeable() {
    // The fault-aware shrink contract, end to end: under transient
    // transfer faults, halving the CPU chunk on retry must never launch a
    // *larger* subkernel after the fault than the no-shrink run would
    // (that post-fault batch is exactly the work a watchdog abandonment
    // strands un-merged), and must strictly shrink it somewhere in the
    // sweep — finer batches keep more of the CPU's work acknowledged and
    // mergeable on a flaky link.
    let cells = fluidicl_check::run_shrink_comparison(2);
    assert!(cells.iter().any(|c| c.fired), "no transient fault fired");
    for c in &cells {
        assert!(
            !c.is_failure(),
            "{} (plan_seed {}): shrink-on-retry launched a larger post-fault \
             subkernel ({} wgs vs {} without)",
            c.bench,
            c.plan_seed,
            c.at_risk_with_shrink,
            c.at_risk_without_shrink
        );
    }
    assert!(
        cells.iter().any(|c| c.improved()),
        "shrink-on-retry never reduced the post-fault at-risk window"
    );
}

/// Graph scheduling does not compose with fault plans yet: `enqueue` keeps
/// the eager path whenever a plan is set (documented on
/// `FluidiclConfig::graph_scheduling`). Pinned on the multi-kernel 2MM on
/// the three-device machine: one report per launch in enqueue order, no
/// graph node, the same schedule as the graph-off run, output bit-exact
/// with the reference, and every report lint- and race-clean.
#[test]
fn fault_plans_keep_graph_scheduling_on_the_eager_path() {
    let b = all_benchmarks()
        .into_iter()
        .find(|b| b.name == "2MM")
        .expect("benchmark");
    let n = test_size(b.name);
    let run = |graph: bool, ps: u64| {
        let config = faulty(FaultKind::TransferTransient, ps).with_graph_scheduling(graph);
        let mut rt = Fluidicl::new(MachineConfig::paper_testbed_3dev(), config, (b.program)(n));
        let res = b.run_and_validate_sized(&mut rt, n, SWEEP_SEED);
        (rt, res)
    };
    let ps = (0..SCAN)
        .find(|ps| run(true, *ps).0.fault_fired())
        .unwrap_or_else(|| panic!("no transient fault fired on 2MM in 0..{SCAN}"));
    let (graph, res) = run(true, ps);
    assert!(res.unwrap(), "2MM must recover bit-exactly");
    let kernels: Vec<&str> = graph.reports().iter().map(|r| r.kernel.as_str()).collect();
    assert_eq!(kernels, ["mm2_tmp", "mm2_d"], "one report per launch");
    assert!(graph.reports()[0].kernel_id < graph.reports()[1].kernel_id);
    assert!(!has_event(&graph, |k| matches!(
        k,
        TraceKind::SoloRun { node: Some(_), .. }
    )));

    let (eager, res) = run(false, ps);
    assert!(res.unwrap());
    assert_eq!(graph.reports().len(), eager.reports().len());
    for (g, e) in graph.reports().iter().zip(eager.reports()) {
        assert_eq!(
            render_timeline(&g.kernel, &g.trace),
            render_timeline(&e.kernel, &e.trace),
            "graph scheduling must be inert under a fault plan"
        );
    }

    let defs = (b.program)(n);
    for report in graph.reports() {
        assert!(lint_report(report).is_empty(), "{}", report.kernel);
        let kdef = defs.kernel(&report.kernel).unwrap();
        let findings = race_check_report(&kdef, report);
        assert!(findings.is_empty(), "{}: {findings:?}", report.kernel);
    }
}
