//! Helpers shared by the integration tests.

use fluidicl::{Finisher, Fluidicl};

/// The timing values of every kernel a run reported, in report order:
/// each report's enqueue and completion times, work-group and byte
/// counters, subkernel log, finisher and trace event times.
#[allow(dead_code)] // each test binary compiles its own copy of this module
pub fn report_timings(rt: &Fluidicl) -> Vec<u64> {
    let mut v = Vec::new();
    for r in rt.reports() {
        v.extend([
            r.enqueued_at.as_nanos(),
            r.complete_at.as_nanos(),
            r.total_wgs,
            r.gpu_executed_wgs,
            r.cpu_executed_wgs,
            r.cpu_merged_wgs,
            r.subkernels,
            r.hd_bytes,
            r.dh_bytes,
            r.cpu_version_used as u64,
            u64::from(r.finished_by == Finisher::Cpu),
        ]);
        v.extend(r.peer_executed_wgs.iter().copied());
        v.extend(
            r.subkernel_log
                .iter()
                .flat_map(|(wgs, d)| [*wgs, d.as_nanos()]),
        );
        v.push(r.trace.len() as u64);
        v.extend(r.trace.iter().map(|e| e.at.as_nanos()));
    }
    v
}

/// Asserts that every buffer's storage is held by the runtime's own CPU
/// and GPU address spaces alone — shared by both or private to each — so
/// no original snapshot or peer copy of an earlier launch still shares it.
#[allow(dead_code)] // each test binary compiles its own copy of this module
pub fn assert_no_stray_holders(rt: &Fluidicl) {
    let (cpu, gpu) = rt.address_spaces();
    for id in cpu.ids() {
        assert!(gpu.contains(id), "buffer {id:?} missing on the GPU side");
        let live = if cpu.shares_with(gpu, id) { 2 } else { 1 };
        assert_eq!(
            (cpu.holders(id), gpu.holders(id)),
            (live, live),
            "buffer {id:?} is still shared with a dead snapshot or peer"
        );
    }
}
