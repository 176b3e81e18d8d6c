//! Fault traces for the mutation harnesses to damage.

use std::sync::Arc;

use fluidicl::{Fluidicl, FluidiclConfig, KernelReport, TraceEvent, TraceKind};
use fluidicl_check::{sweep_size, SWEEP_SEED};
use fluidicl_hetsim::MachineConfig;
use fluidicl_polybench::all_benchmarks;
use fluidicl_vcl::{FaultKind, FaultPlan, KernelDef};

/// Scans transient-fault plan seeds, the way `tests/fault_recovery.rs`
/// does, for a serial SYRK trace in which a faulted batch is re-sent and
/// the re-send's status arrives while another send of that endpoint is in
/// flight, with a send still in flight when the trace ends. Returns the
/// kernel, its report and the index of the re-send.
///
/// Deleting that re-send leaves a status that acknowledges a transfer
/// that never delivered. A checker that pairs the status with whatever
/// transfer is oldest in the queue, instead of the one carrying its
/// boundary, never runs the queue dry on such a trace.
pub fn resend_behind_a_live_send() -> (Arc<KernelDef>, KernelReport, usize) {
    let b = all_benchmarks()
        .into_iter()
        .find(|b| b.name == "SYRK")
        .expect("SYRK is a benchmark");
    let n = sweep_size(b.name);
    for plan_seed in 0..64 {
        let config = FluidiclConfig::default()
            .with_validate_protocol(true)
            .with_pipelining(false)
            .with_faults(Some(FaultPlan::new(
                FaultKind::TransferTransient,
                plan_seed,
            )));
        let mut rt = Fluidicl::new(MachineConfig::paper_testbed(), config, (b.program)(n));
        if !b
            .run_and_validate_sized(&mut rt, n, SWEEP_SEED)
            .unwrap_or(false)
        {
            continue;
        }
        for report in rt.reports() {
            if let Some(resend) = resend_index(&report.trace) {
                let kdef = (b.program)(n)
                    .kernel(&report.kernel)
                    .expect("kernel registered");
                return (kdef, report.clone(), resend);
            }
        }
    }
    panic!("no plan seed in 0..64 re-sent a faulted SYRK batch behind a live send");
}

fn resend_index(t: &[TraceEvent]) -> Option<usize> {
    t.iter().enumerate().find_map(|(i, e)| {
        let TraceKind::EpTransferFault { dev, boundary, .. } = e.kind else {
            return None;
        };
        // The batch's next two events are its re-send and that re-send's
        // status.
        let next = |from: usize| {
            (from + 1..t.len()).find(|&j| {
                matches!(
                    t[j].kind,
                    TraceKind::EpSend { dev: d, boundary: b, .. }
                        | TraceKind::EpStatus { dev: d, boundary: b, .. }
                        | TraceKind::EpTransferFault { dev: d, boundary: b, .. }
                        if d == dev && b == boundary
                )
            })
        };
        let resend = next(i).filter(|&j| matches!(t[j].kind, TraceKind::EpSend { .. }))?;
        let status = next(resend).filter(|&k| matches!(t[k].kind, TraceKind::EpStatus { .. }))?;
        (in_flight(&t[..status], dev) >= 2 && in_flight(t, dev) >= 1).then_some(resend)
    })
}

/// Sends of endpoint `dev` that `t` neither acknowledges nor voids.
fn in_flight(t: &[TraceEvent], dev: u32) -> i64 {
    t.iter()
        .map(|e| match e.kind {
            TraceKind::EpSend { dev: d, .. } if d == dev => 1,
            TraceKind::EpStatus { dev: d, .. } | TraceKind::EpTransferFault { dev: d, .. }
                if d == dev =>
            {
                -1
            }
            _ => 0,
        })
        .sum()
}
