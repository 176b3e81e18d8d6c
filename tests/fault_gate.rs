//! The fault-injection gate (`FluidiclConfig::with_faults`):
//!
//! * **off** (the default) the fault layer is inert — no watchdog events
//!   are scheduled and traces carry none of the fault/recovery event
//!   kinds, so runs are byte-for-byte the fault-free protocol;
//! * **on**, recovery is exercised by `tests/fault_recovery.rs` and the
//!   fault sweep (`crates/check/tests/faults_summary.rs`).

use fluidicl::{Fluidicl, FluidiclConfig, TraceKind};
use fluidicl_check::{sweep_size, SWEEP_SEED};
use fluidicl_hetsim::MachineConfig;
use fluidicl_polybench::all_benchmarks;

fn run(name: &str, config: FluidiclConfig) -> Fluidicl {
    let b = all_benchmarks()
        .into_iter()
        .find(|b| b.name == name)
        .expect("benchmark");
    let n = sweep_size(name);
    let mut rt = Fluidicl::new(MachineConfig::paper_testbed(), config, (b.program)(n));
    assert!(
        b.run_and_validate_sized(&mut rt, n, SWEEP_SEED).unwrap(),
        "{name} diverged from reference"
    );
    rt
}

/// Whether `kind` belongs to fault handling. On the two-device testbed only
/// a device loss runs a kernel alone, so a solo run counts too.
fn is_fault_event(kind: &TraceKind) -> bool {
    matches!(
        kind,
        TraceKind::OwnerLost
            | TraceKind::SoloRun { .. }
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
