//! The tracked 8-seed fault summary is a contract: every fault-sweep
//! family — the two-device grid, three-device non-owner loss and owner
//! failover — must reproduce `FAULTS_summary.json` byte for byte. No
//! timing-fingerprint config carries a fault plan, so this is the exact
//! gate on degraded, peer-solo and peer-owned timings.
//!
//! After an intended change to those timings, regenerate the file with
//! `cargo test --release -p fluidicl-check --test faults_summary --
//! --ignored` and review its diff.

use fluidicl_check::fault_summary;

const SEEDS: u64 = 8;
const TRACKED: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../FAULTS_summary.json");

#[test]
fn fault_sweep_reproduces_the_tracked_summary() {
    let tracked = std::fs::read_to_string(TRACKED).expect("read the tracked FAULTS_summary.json");
    let json = fault_summary(SEEDS);
    if json != tracked {
        let line = json
            .lines()
            .zip(tracked.lines())
            .position(|(a, b)| a != b)
            .map_or_else(
                || "the line count".to_string(),
                |i| format!("line {}", i + 1),
            );
        panic!("the 8-seed fault sweep no longer reproduces {TRACKED}: first difference at {line}");
    }
}

/// `fault_summary` refuses a sweep with a failing cell, a fired
/// single-device plan that did not end with exactly one device lost, or
/// no promotion, so a faulty sweep is never written.
#[test]
#[ignore = "rewrites FAULTS_summary.json; run only for an intentional change"]
fn regenerate_fault_summary() {
    std::fs::write(TRACKED, fault_summary(SEEDS)).expect("write FAULTS_summary.json");
}
