//! The timing and host-work contract of the co-execution engine, pinned
//! per cell.
//!
//! For 9 benchmarks × 4 machines × 8 configs this records one line per cell
//! of `tests/golden/timing_fingerprint.txt`:
//!
//! ```text
//! cell makespan_ns hash groups_executed body_calls merged_bytes copied_bytes des_events
//! ```
//!
//! The hash covers every kernel's virtual timing — each trace event's
//! timestamp, the report's enqueue and completion times, byte and
//! work-group counters, subkernel log and finisher. Event kinds and
//! rendered text are left out on purpose: renaming or re-rendering events
//! keeps the contract, while moving any event in time, or adding or
//! dropping one, breaks it.
//!
//! The last five columns are the runtime's `WorkCounters`: the host work
//! that produced those timings. They are exact on every machine and build
//! profile, so a reintroduced buffer copy (`copied_bytes`), a range
//! executed twice (`groups_executed`), a kernel falling back to its
//! per-item body (`body_calls`), a merge walking whole buffers instead of
//! dirty ranges (`merged_bytes`) or extra simulated events (`des_events`)
//! fails here even when no virtual time moves. A mismatch names the column
//! that moved. The same runs also check that the default protocol copies no
//! more host bytes than the whole-buffer one for any machine and benchmark:
//! shipping dirty ranges must never make the functional mirror copy more.
//!
//! Regenerate with `cargo test --test timing_fingerprint -- --ignored` only
//! for an intentional change, and explain every changed cell: a moved
//! makespan or hash is a virtual-timing change; a moved counter alone is a
//! host-work change, legitimate when the runtime deliberately does more or
//! less work for the same virtual result (say, sharing a buffer it used to
//! copy).

use fluidicl::{Fluidicl, FluidiclConfig};
use fluidicl_check::{sweep_size, SWEEP_SEED};
use fluidicl_hetsim::{AbortMode, MachineConfig};
use fluidicl_polybench::all_benchmarks;

mod common;
use common::report_timings;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/timing_fingerprint.txt"
);

/// FNV-1a over the little-endian bytes of each value.
fn fnv(values: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Column names of a fingerprint line, in order.
const COLUMNS: [&str; 8] = [
    "cell",
    "makespan",
    "hash",
    "groups_executed",
    "body_calls",
    "merged_bytes",
    "copied_bytes",
    "des_events",
];

/// Every work-group a run executed, by its reports: the owner's, the CPU's
/// and each peer's executed counts. A solo run credits its lane with the
/// whole range, and an aborted wave only the groups it executed, exactly as
/// the executor ran them, so this equals `WorkCounters::groups_executed`
/// in every cell: any execution the reports do not account for is a stray.
fn reported_groups(rt: &Fluidicl) -> u64 {
    rt.reports()
        .iter()
        .map(|r| r.gpu_executed_wgs + r.cpu_executed_wgs + r.peer_executed_wgs.iter().sum::<u64>())
        .sum()
}

/// One line per machine × config × benchmark (columns: [`COLUMNS`]), and
/// the cells whose run itself went wrong: output diverged from the
/// reference, work-groups executed that the reports do not credit, or the
/// default protocol copied more host bytes than whole-buffer.
fn fingerprint() -> (String, Vec<String>) {
    let machines = [
        ("paper-testbed", MachineConfig::paper_testbed()),
        ("weak-gpu-laptop", MachineConfig::weak_gpu_laptop()),
        ("big-gpu-node", MachineConfig::big_gpu_node()),
        ("paper-testbed-3dev", MachineConfig::paper_testbed_3dev()),
    ];
    let base = FluidiclConfig::default;
    let configs = [
        ("default", base()),
        (
            "abort=wg-start",
            base().with_abort_mode(AbortMode::WorkGroupStart),
        ),
        ("abort=in-loop", base().with_abort_mode(AbortMode::InLoop)),
        (
            "no-opts",
            base()
                .with_wg_split(false)
                .with_buffer_pool(false)
                .with_location_tracking(false),
        ),
        ("whole-buffer", base().with_dirty_range_transfers(false)),
        ("pipeline=1", base().with_pipelining(false)),
        (
            "serial-whole-buffer",
            base()
                .with_dirty_range_transfers(false)
                .with_pipelining(false),
        ),
        ("graph-sched", base().with_graph_scheduling(true)),
    ];
    let mut out = String::new();
    let mut faults = Vec::new();
    for (mname, machine) in &machines {
        // `copied_bytes` of the `default` run per benchmark, checked
        // against the `whole-buffer` run (which comes later in `configs`).
        let mut default_copied = Vec::new();
        for (cname, config) in &configs {
            for (bi, b) in all_benchmarks().into_iter().enumerate() {
                let cell = format!("{mname}/{cname}/{}", b.name);
                let n = sweep_size(b.name);
                let mut rt = Fluidicl::new(machine.clone(), config.clone(), (b.program)(n));
                if !b.run_and_validate_sized(&mut rt, n, SWEEP_SEED).unwrap() {
                    faults.push(format!("  {cell}: diverged from reference"));
                }
                let work = rt.work_counters();
                let credited = reported_groups(&rt);
                if work.groups_executed != credited {
                    faults.push(format!(
                        "  {cell}: executed {} work-groups, the reports credit {credited}",
                        work.groups_executed
                    ));
                }
                match *cname {
                    "default" => default_copied.push(work.copied_bytes),
                    "whole-buffer" if default_copied[bi] > work.copied_bytes => {
                        faults.push(format!(
                            "  {mname}/{}: default copied {} bytes, whole-buffer {}",
                            b.name, default_copied[bi], work.copied_bytes
                        ));
                    }
                    _ => {}
                }
                out.push_str(&format!(
                    "{cell} {} {:016x} {} {} {} {} {}\n",
                    fluidicl_vcl::ClDriver::elapsed(&rt).as_nanos(),
                    fnv(&report_timings(&rt)),
                    work.groups_executed,
                    work.body_calls,
                    work.merged_bytes,
                    work.copied_bytes,
                    work.des_events
                ));
            }
        }
    }
    (out, faults)
}

/// What moved between a pinned line and a new one: `cell: column pinned ->
/// now` for every differing column.
fn moved_columns(pinned: &str, now: &str) -> String {
    let (p, n): (Vec<&str>, Vec<&str>) = (pinned.split(' ').collect(), now.split(' ').collect());
    let moved: Vec<String> = (0..p.len().max(n.len()))
        .filter(|&i| p.get(i) != n.get(i))
        .map(|i| {
            format!(
                "{} {} -> {}",
                COLUMNS.get(i).unwrap_or(&"extra column"),
                p.get(i).unwrap_or(&"(none)"),
                n.get(i).unwrap_or(&"(none)")
            )
        })
        .collect();
    format!(
        "  {}: {}",
        n.first().unwrap_or(&"(missing line)"),
        moved.join(", ")
    )
}

#[test]
fn virtual_timings_match_the_pinned_fingerprint() {
    let golden = std::fs::read_to_string(GOLDEN).expect("read the pinned fingerprint");
    let (now, faults) = fingerprint();
    let changed: Vec<String> = now
        .lines()
        .zip(golden.lines())
        .filter(|(a, b)| a != b)
        .map(|(a, b)| moved_columns(b, a))
        .collect();
    assert!(
        faults.is_empty() && changed.is_empty() && now.lines().count() == golden.lines().count(),
        "{} faulty run(s):\n{}\nfingerprint changed in {} cell(s) ({} pinned lines, {} now):\n{}",
        faults.len(),
        faults.join("\n"),
        changed.len(),
        golden.lines().count(),
        now.lines().count(),
        changed.join("\n")
    );
}

#[test]
#[ignore = "rewrites tests/golden/timing_fingerprint.txt; run only for an intentional timing change"]
fn regenerate_timing_fingerprint() {
    let (now, faults) = fingerprint();
    assert!(
        faults.is_empty(),
        "refusing to pin faulty runs:\n{}",
        faults.join("\n")
    );
    std::fs::write(GOLDEN, now).expect("write the fingerprint");
}
