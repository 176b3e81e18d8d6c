//! The tracked 8-seed fault summary is a contract: every fault-sweep
//! family — the two-device grid, three-device non-owner loss, owner
//! failover and shrink-on-retry — must reproduce `FAULTS_summary.json`
//! byte for byte. No timing-fingerprint config carries a fault plan, so
//! this is the exact gate on degraded, peer-solo and re-formed timings.
//!
//! After an intended change to those timings, regenerate the file with
//! `cargo run --release -p fluidicl-check -- --faults --seeds 8` and
//! review its diff.

use fluidicl_check::{
    render_faults_json, run_failover_sweep, run_fault_sweep, run_ndev_loss_sweep,
    run_shrink_comparison,
};

const SEEDS: u64 = 8;

#[test]
fn fault_sweep_reproduces_the_tracked_summary() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../FAULTS_summary.json");
    let tracked = std::fs::read_to_string(path).expect("read the tracked FAULTS_summary.json");
    let json = render_faults_json(
        &run_fault_sweep(SEEDS),
        &run_ndev_loss_sweep(SEEDS),
        &run_failover_sweep(SEEDS),
        &run_shrink_comparison(SEEDS),
        SEEDS,
    );
    if json != tracked {
        let line = json
            .lines()
            .zip(tracked.lines())
            .position(|(a, b)| a != b)
            .map_or_else(
                || "the line count".to_string(),
                |i| format!("line {}", i + 1),
            );
        panic!("the 8-seed fault sweep no longer reproduces {path}: first difference at {line}");
    }
}
