//! The timing contract of the co-execution engine, pinned per cell.
//!
//! For 9 benchmarks × 4 machines × 9 configs this records every kernel's
//! virtual timing — each trace event's timestamp, the report's enqueue and
//! completion times, byte and work-group counters, subkernel log and
//! finisher — hashed into one line per cell of
//! `tests/golden/timing_fingerprint.txt`. Event kinds and rendered text
//! are left out on purpose: renaming or re-rendering events keeps the
//! contract, while moving any event in time, or adding or dropping one,
//! breaks it.
//!
//! Regenerate with `cargo test --test timing_fingerprint -- --ignored` only
//! for an intentional timing change, and explain every changed cell.

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

/// One `cell elapsed_ns hash` line per machine × config × benchmark.
fn fingerprint() -> String {
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
        ("pipeline=1", base().with_pipeline_depth(1)),
        ("pipeline=4", base().with_pipeline_depth(4)),
        (
            "serial-whole-buffer",
            base()
                .with_dirty_range_transfers(false)
                .with_pipeline_depth(1),
        ),
        ("graph-sched", base().with_graph_scheduling(true)),
    ];
    let mut out = String::new();
    for (mname, machine) in &machines {
        for (cname, config) in &configs {
            for b in all_benchmarks() {
                let n = sweep_size(b.name);
                let mut rt = Fluidicl::new(machine.clone(), config.clone(), (b.program)(n));
                assert!(
                    b.run_and_validate_sized(&mut rt, n, SWEEP_SEED).unwrap(),
                    "{mname}/{cname}/{}: diverged from reference",
                    b.name
                );
                out.push_str(&format!(
                    "{mname}/{cname}/{} {} {:016x}\n",
                    b.name,
                    fluidicl_vcl::ClDriver::elapsed(&rt).as_nanos(),
                    fnv(&report_timings(&rt))
                ));
            }
        }
    }
    out
}

#[test]
fn virtual_timings_match_the_pinned_fingerprint() {
    let golden = std::fs::read_to_string(GOLDEN).expect("read the pinned fingerprint");
    let now = fingerprint();
    let changed: Vec<String> = now
        .lines()
        .zip(golden.lines())
        .filter(|(a, b)| a != b)
        .map(|(a, b)| format!("  pinned {b}\n  now    {a}"))
        .collect();
    assert!(
        changed.is_empty() && now.lines().count() == golden.lines().count(),
        "virtual timings changed in {} cell(s):\n{}",
        changed.len(),
        changed.join("\n")
    );
}

#[test]
#[ignore = "rewrites tests/golden/timing_fingerprint.txt; run only for an intentional timing change"]
fn regenerate_timing_fingerprint() {
    std::fs::write(GOLDEN, fingerprint()).expect("write the fingerprint");
}
