//! Owner-failover contract on the 3-device testbed: when the acting owner
//! GPU misses its wave watchdog, a surviving peer is promoted to owner
//! under a new epoch and the kernel still completes bit-identically to the
//! sequential reference — stale old-epoch messages are rejected, the
//! promoted peer's pre-promotion contributions are rolled back and
//! recomputed exactly once, and follow-on kernels co-execute on every
//! healthy survivor, the peer owning them, instead of degrading to a
//! single device.
//!
//! The full grid runs in the fault sweep's owner-failover families
//! (`crates/check/tests/faults_summary.rs`); these tests pin one
//! hand-picked scenario per guarantee.

use fluidicl::{render_timeline, Fluidicl, FluidiclConfig, TraceKind};
use fluidicl_hetsim::MachineConfig;
use fluidicl_vcl::{ClError, ClResult, FaultKind};

mod common;
use common::{faulty, has_event, SCAN};

fn test_size(name: &str) -> usize {
    match name {
        "BICG" | "MVT" => 256,
        "ATAX" => 512,
        "CORR" => 128,
        "GESUMMV" => 512,
        "SYRK" | "SYR2K" | "GEMM" | "2MM" => 64,
        other => panic!("unknown benchmark {other}"),
    }
}

/// Runs `name` on the paper testbed extended with one peer GPU (a CPU, the
/// primary owner card and one midrange peer — the smallest machine where
/// owner loss leaves two survivors).
fn run3(name: &str, config: FluidiclConfig) -> (Fluidicl, ClResult<bool>) {
    common::run(
        &MachineConfig::paper_testbed_3dev(),
        name,
        test_size(name),
        config,
    )
}

fn scan3(
    name: &str,
    config: impl Fn(u64) -> FluidiclConfig,
    pred: impl Fn(&Fluidicl, &ClResult<bool>) -> bool,
) -> (Fluidicl, ClResult<bool>) {
    let machine = MachineConfig::paper_testbed_3dev();
    common::scan(&machine, name, test_size(name), config, pred)
}

fn promoted(rt: &Fluidicl) -> bool {
    has_event(rt, |k| matches!(k, TraceKind::OwnerPromoted { .. }))
}

#[test]
fn owner_loss_promotes_a_surviving_peer_and_recovers_bit_identically() {
    let (rt, res) = scan3(
        "SYRK",
        |ps| faulty(FaultKind::GpuLost, ps),
        |rt, _| promoted(rt),
    );
    assert!(res.unwrap(), "promoted run must match the reference");
    assert!(rt.fault_fired());
    // The promotion migrates ownership under a fresh epoch (primary owner
    // is epoch 0) and the trace still records the primary card's loss.
    assert!(has_event(&rt, |k| matches!(
        k,
        TraceKind::OwnerPromoted { dev, epoch } if *dev > 0 && *epoch > 0
    )));
    assert!(has_event(&rt, |k| matches!(k, TraceKind::OwnerLost)));
    // The roster charges the loss to the primary card only: the CPU and
    // the promoted peer stay healthy for follow-on kernels.
    assert!(!rt.roster().gpu_healthy());
    assert!(rt.roster().cpu_healthy());
    assert!(rt.roster().dead_peers().is_empty());
}

#[test]
fn promotion_rejects_stale_old_epoch_messages() {
    // SYRK at n = 128 keeps several CPU sends in flight at the instant the
    // owner dies, so some status messages arrive addressed to the dead
    // epoch. The new owner must reject them (their ranges stay below the
    // watermark and the wave walk re-covers them) and still validate.
    let (rt, res) = common::scan(
        &MachineConfig::paper_testbed_3dev(),
        "SYRK",
        128,
        |ps| faulty(FaultKind::GpuLost, ps),
        |rt, _| promoted(rt) && has_event(rt, |k| matches!(k, TraceKind::EpochRejected { .. })),
    );
    assert!(res.unwrap(), "epoch-fenced run must match the reference");
    assert!(rt.fault_fired());
}

#[test]
fn follow_on_kernels_reform_on_cpu_and_peer_after_owner_loss() {
    // Once the owner GPU dies in a kernel and a peer is promoted, every
    // later kernel must co-execute on the two survivors, the CPU and the
    // peer that now owns it: never a single-device run, and never a loss
    // of the healthy peer, which the GPU-loss fault did not strike. CORR
    // enqueues four kernels and 2MM two; every plan seed that promotes
    // before the last kernel is checked.
    let mut checked = 0;
    for name in ["CORR", "2MM"] {
        for ps in 0..SCAN {
            let (rt, res) = run3(name, faulty(FaultKind::GpuLost, ps));
            let Some(lost_at) = rt.reports().iter().position(|r| {
                r.trace
                    .iter()
                    .any(|e| matches!(e.kind, TraceKind::OwnerPromoted { .. }))
            }) else {
                continue;
            };
            if lost_at + 1 == rt.reports().len() {
                continue;
            }
            checked += 1;
            assert!(
                res.unwrap(),
                "{name} plan seed {ps}: must match the reference"
            );
            assert!(!rt.roster().gpu_healthy() && rt.roster().cpu_healthy());
            assert!(
                rt.roster().dead_peers().is_empty(),
                "{name} plan seed {ps}: the healthy peer was lost"
            );
            for r in &rt.reports()[lost_at + 1..] {
                let has = |pred: &dyn Fn(&TraceKind) -> bool| r.trace.iter().any(|e| pred(&e.kind));
                assert!(
                    !has(&|k| matches!(k, TraceKind::SoloRun { .. } | TraceKind::OwnerLost)),
                    "{name} plan seed {ps}, {}: the survivors must co-execute",
                    r.kernel
                );
                // The peer owner runs waves and the CPU runs subkernels:
                // both survivors execute work-groups.
                assert!(
                    has(&|k| matches!(k, TraceKind::GpuWaveStart { .. }))
                        && has(&|k| matches!(k, TraceKind::EpSubkernelStart { dev: 0, .. })),
                    "{name} plan seed {ps}, {}: both survivors must execute work-groups",
                    r.kernel
                );
            }
        }
    }
    assert!(checked > 0, "no plan seed promoted before the last kernel");
}

#[test]
fn follow_on_kernels_reform_on_owner_and_peer_after_cpu_loss() {
    // Losing the CPU in a 3-device machine leaves two healthy GPUs: later
    // kernels keep co-executing on the owner with the peer as a claimant
    // instead of collapsing onto the owner alone. The peer claims only
    // what it can deliver before the owner's walk would do the range, so
    // CORR runs at 256 here: at 128 every peer claim of `corr_corr` would
    // land after the owner finished it (forced, the peer duplicated 32
    // work-groups and the kernel took exactly as long).
    let (rt, res) = common::scan(
        &MachineConfig::paper_testbed_3dev(),
        "CORR",
        256,
        |ps| faulty(FaultKind::CpuLost, ps),
        |rt, res| {
            if !matches!(res, Ok(true)) {
                return false;
            }
            rt.reports()
                .iter()
                .position(|r| {
                    r.trace
                        .iter()
                        .any(|e| matches!(e.kind, TraceKind::NonOwnerLost { dev: 0 }))
                })
                .is_some_and(|i| i + 1 < rt.reports().len())
        },
    );
    assert!(res.unwrap());
    assert!(!rt.roster().cpu_healthy() && rt.roster().gpu_healthy());
    let lost_at = rt
        .reports()
        .iter()
        .position(|r| {
            r.trace
                .iter()
                .any(|e| matches!(e.kind, TraceKind::NonOwnerLost { dev: 0 }))
        })
        .unwrap();
    let follow_on = &rt.reports()[lost_at + 1..];
    for r in follow_on {
        let degraded = r
            .trace
            .iter()
            .any(|e| matches!(e.kind, TraceKind::SoloRun { .. }));
        assert!(
            !degraded,
            "{}: kernels after CPU loss must co-execute on the GPUs",
            r.kernel
        );
        let owner_ran = r
            .trace
            .iter()
            .any(|e| matches!(e.kind, TraceKind::GpuWaveStart { .. }));
        assert!(owner_ran, "{}: the owner must run waves", r.kernel);
        // The peer stays a claimant, declining what it cannot deliver in
        // time: `corr_center` is one 116 µs walk it leaves to the owner.
        assert_eq!(
            r.peer_executed_wgs.len(),
            1,
            "{}: the peer must stay a claimant in the co-execution",
            r.kernel
        );
    }
    let corr = follow_on
        .iter()
        .find(|r| r.kernel == "corr_corr")
        .expect("the loss comes before the last kernel");
    assert!(
        corr.gpu_executed_wgs > 0 && corr.peer_executed_wgs[0] > 0,
        "corr_corr: both surviving GPUs must execute work-groups"
    );
}

#[test]
fn promoted_runs_are_deterministic() {
    // Same plan seed, same machine: a run that promotes mid-kernel must
    // reproduce its outcome, timings and full rendered trace exactly.
    let ps = (0..SCAN)
        .find(|ps| promoted(&run3("SYRK", faulty(FaultKind::GpuLost, *ps)).0))
        .expect("some plan seed promotes");
    let (rt_a, res_a) = run3("SYRK", faulty(FaultKind::GpuLost, ps));
    let (rt_b, res_b) = run3("SYRK", faulty(FaultKind::GpuLost, ps));
    let render = |res: &ClResult<bool>| match res {
        Ok(ok) => format!("ok({ok})"),
        Err(e) => format!("err({e})"),
    };
    assert_eq!(render(&res_a), render(&res_b), "outcome differs");
    assert_eq!(rt_a.reports().len(), rt_b.reports().len());
    for (ra, rb) in rt_a.reports().iter().zip(rt_b.reports()) {
        assert_eq!(ra.duration, rb.duration, "duration differs");
        assert_eq!(
            render_timeline(&ra.kernel, &ra.trace),
            render_timeline(&rb.kernel, &rb.trace),
            "rendered traces differ"
        );
    }
}

#[test]
fn cascading_owner_losses_end_in_a_typed_error_or_a_valid_run() {
    // DoubleLoss with promotion on: the owner dies, a peer is promoted,
    // and the sticky kill verdicts keep eating survivors — the promoted
    // peer's own waves included. Whatever the interleaving, the run must
    // end bit-identical or in a typed DeviceLost — never a panic, a hang
    // or silent corruption — and a promoted owner's death is blamed on
    // that peer, not on the primary card.
    let mut cascades = 0;
    for ps in 0..SCAN {
        let (_, res) = run3("ATAX", faulty(FaultKind::DoubleLoss, ps));
        match res {
            Ok(ok) => assert!(ok, "plan seed {ps}: recovered run must validate"),
            Err(ClError::DeviceLost { detail, .. }) => {
                if detail.contains("peer GPU ep1 (acting owner)") {
                    cascades += 1;
                }
            }
            Err(e) => panic!("plan seed {ps}: expected DeviceLost, got {e}"),
        }
    }
    assert!(cascades > 0, "no plan seed lost a promoted owner");
}
