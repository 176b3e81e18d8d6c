//! The fault-injection gate (`FluidiclConfig::with_faults`):
//!
//! * **off** (the default) the fault layer is inert — no watchdog events
//!   are scheduled, traces carry none of the fault/recovery event kinds,
//!   and the recovery policy is never consulted, so runs are byte-for-byte
//!   the fault-free protocol;
//! * **on**, recovery is exercised by `tests/fault_recovery.rs` and the
//!   `fluidicl-check --faults` sweep.

use fluidicl::{
    render_lanes, render_timeline, Fluidicl, FluidiclConfig, RecoveryPolicy, TraceKind,
};
use fluidicl_hetsim::MachineConfig;
use fluidicl_polybench::all_benchmarks;

fn test_size(name: &str) -> usize {
    match name {
        "ATAX" | "BICG" | "MVT" => 256,
        "CORR" => 64,
        "GESUMMV" => 512,
        "SYRK" | "SYR2K" | "GEMM" | "2MM" => 64,
        other => panic!("unknown benchmark {other}"),
    }
}

const SEED: u64 = 0xF1D1C1;

fn run(name: &str, config: FluidiclConfig) -> Fluidicl {
    let b = all_benchmarks()
        .into_iter()
        .find(|b| b.name == name)
        .expect("benchmark");
    let n = test_size(name);
    let mut rt = Fluidicl::new(MachineConfig::paper_testbed(), config, (b.program)(n));
    assert!(
        b.run_and_validate_sized(&mut rt, n, SEED).unwrap(),
        "{name} diverged from reference"
    );
    rt
}

fn is_fault_event(kind: &TraceKind) -> bool {
    matches!(
        kind,
        TraceKind::OwnerLost
            | TraceKind::SoloRun { node: None, .. }
            | TraceKind::EpTransferFault { .. }
            | TraceKind::EpTransferRejected { .. }
            | TraceKind::EpTransferTimeout { .. }
            | TraceKind::NonOwnerLost { .. }
            | TraceKind::OwnerPromoted { .. }
            | TraceKind::EpochRejected { .. }
    )
}

#[test]
fn gate_off_traces_carry_no_fault_machinery() {
    for b in all_benchmarks() {
        let rt = run(
            b.name,
            FluidiclConfig::default().with_validate_protocol(true),
        );
        assert!(!rt.fault_fired(), "{}: no injector exists gate-off", b.name);
        assert!(!rt.roster().any_lost(), "{}: no device can be lost", b.name);
        for report in rt.reports() {
            assert!(
                !report.trace.iter().any(|e| is_fault_event(&e.kind)),
                "{}: gate-off trace must not contain fault/recovery events",
                b.name
            );
        }
    }
}

#[test]
fn recovery_policy_is_inert_when_faults_are_off() {
    // With no fault plan, nothing consults the recovery policy: an extreme
    // policy must leave every report — timings, byte counts, rendered
    // timelines and lanes — bit-identical to the default. This pins the
    // gate-off protocol (and its traces) to the pre-fault-layer behaviour.
    let extreme = RecoveryPolicy::default().with_max_transfer_retries(0);
    for name in ["ATAX", "SYRK", "CORR", "2MM"] {
        let a = run(name, FluidiclConfig::default().with_validate_protocol(true));
        let b = run(
            name,
            FluidiclConfig::default()
                .with_validate_protocol(true)
                .with_recovery(extreme),
        );
        assert_eq!(a.reports().len(), b.reports().len());
        for (ra, rb) in a.reports().iter().zip(b.reports()) {
            assert_eq!(ra.duration, rb.duration, "{name}: duration differs");
            assert_eq!(ra.hd_bytes, rb.hd_bytes, "{name}: hd bytes differ");
            assert_eq!(ra.dh_bytes, rb.dh_bytes, "{name}: dh bytes differ");
            assert_eq!(
                render_timeline(&ra.kernel, &ra.trace),
                render_timeline(&rb.kernel, &rb.trace),
                "{name}: rendered timelines differ"
            );
            assert_eq!(
                render_lanes(&ra.kernel, &ra.trace, 60),
                render_lanes(&rb.kernel, &rb.trace, 60),
                "{name}: rendered lanes differ"
            );
        }
    }
}
