//! The central correctness property of the reproduction: every runtime —
//! single-device, FluidiCL under any configuration, static partitioning at
//! any split, SOCL under any scheduler — computes **bit-identical** results
//! for every benchmark, equal to the sequential reference.
//!
//! Because kernels really execute over device memories at the instants the
//! co-execution protocol decides, any partitioning, merging, coherence or
//! version-tracking bug shows up here as wrong numbers.

use fluidicl::{Fluidicl, FluidiclConfig};
use fluidicl_baselines::{SoclRuntime, SoclScheduler, StaticPartitionRuntime};
use fluidicl_check::{sweep_size, SWEEP_SEED};
use fluidicl_hetsim::{AbortMode, MachineConfig};
use fluidicl_polybench::{all_benchmarks, benchmarks};
use fluidicl_vcl::{DeviceKind, SingleDeviceRuntime};

/// Reduced sizes for test speed; kernel structure is preserved.

#[test]
fn single_device_runtimes_match_reference() {
    let machine = MachineConfig::paper_testbed();
    for b in all_benchmarks() {
        let n = sweep_size(b.name);
        for device in [DeviceKind::Cpu, DeviceKind::Gpu] {
            let mut rt = SingleDeviceRuntime::new(machine.clone(), device, (b.program)(n));
            let ok = b.run_and_validate_sized(&mut rt, n, SWEEP_SEED).unwrap();
            assert!(ok, "{} on {device:?} diverged from reference", b.name);
        }
    }
}

#[test]
fn fluidicl_matches_reference_under_default_config() {
    let machine = MachineConfig::paper_testbed();
    for b in all_benchmarks() {
        let n = sweep_size(b.name);
        let mut rt = Fluidicl::new(machine.clone(), FluidiclConfig::default(), (b.program)(n));
        let ok = b.run_and_validate_sized(&mut rt, n, SWEEP_SEED).unwrap();
        assert!(ok, "{} under FluidiCL diverged from reference", b.name);
    }
}

#[test]
fn fluidicl_matches_reference_under_every_abort_mode() {
    let machine = MachineConfig::paper_testbed();
    for mode in [
        AbortMode::WorkGroupStart,
        AbortMode::InLoop,
        AbortMode::InLoopUnrolled,
    ] {
        for b in benchmarks() {
            let n = sweep_size(b.name);
            let config = FluidiclConfig::default().with_abort_mode(mode);
            let mut rt = Fluidicl::new(machine.clone(), config, (b.program)(n));
            let ok = b.run_and_validate_sized(&mut rt, n, SWEEP_SEED).unwrap();
            assert!(ok, "{} with {mode:?} diverged from reference", b.name);
        }
    }
}

#[test]
fn fluidicl_matches_reference_with_extreme_chunk_settings() {
    let machine = MachineConfig::paper_testbed();
    for (chunk, step) in [(1.0, 0.0), (1.0, 9.0), (75.0, 2.0), (100.0, 0.0)] {
        for b in benchmarks() {
            let n = sweep_size(b.name);
            let config = FluidiclConfig::default().with_chunk(chunk, step);
            let mut rt = Fluidicl::new(machine.clone(), config, (b.program)(n));
            let ok = b.run_and_validate_sized(&mut rt, n, SWEEP_SEED).unwrap();
            assert!(
                ok,
                "{} with chunk {chunk}%/{step}% diverged from reference",
                b.name
            );
        }
    }
}

#[test]
fn fluidicl_matches_reference_with_optimizations_disabled() {
    let machine = MachineConfig::paper_testbed();
    let config = FluidiclConfig::default()
        .with_wg_split(false)
        .with_buffer_pool(false)
        .with_location_tracking(false)
        .with_online_profiling(true);
    for b in benchmarks() {
        let n = sweep_size(b.name);
        let mut rt = Fluidicl::new(machine.clone(), config.clone(), (b.program)(n));
        let ok = b.run_and_validate_sized(&mut rt, n, SWEEP_SEED).unwrap();
        assert!(ok, "{} with opts disabled diverged from reference", b.name);
    }
}

#[test]
fn static_partition_matches_reference_at_every_split() {
    let machine = MachineConfig::paper_testbed();
    for b in all_benchmarks() {
        let n = sweep_size(b.name);
        for i in 0..=10 {
            let f = i as f64 / 10.0;
            let mut rt = StaticPartitionRuntime::new(machine.clone(), (b.program)(n), f);
            let ok = b.run_and_validate_sized(&mut rt, n, SWEEP_SEED).unwrap();
            assert!(ok, "{} at static split {f} diverged from reference", b.name);
        }
    }
}

#[test]
fn socl_matches_reference_under_both_schedulers() {
    let machine = MachineConfig::paper_testbed();
    for scheduler in [SoclScheduler::Eager, SoclScheduler::Dmda] {
        for b in benchmarks() {
            let n = sweep_size(b.name);
            let mut rt = SoclRuntime::new(machine.clone(), (b.program)(n), scheduler);
            let ok = b.run_and_validate_sized(&mut rt, n, SWEEP_SEED).unwrap();
            assert!(ok, "{} under SOCL {scheduler:?} diverged", b.name);
        }
    }
}

#[test]
fn results_are_seed_sensitive_but_runtime_insensitive() {
    // Different seeds must give different data (the generators are live),
    // while different runtimes with the same seed agree exactly.
    let machine = MachineConfig::paper_testbed();
    let b = benchmarks().into_iter().find(|b| b.name == "SYRK").unwrap();
    let n = sweep_size("SYRK");
    let run = |seed: u64| {
        let mut rt = Fluidicl::new(machine.clone(), FluidiclConfig::default(), (b.program)(n));
        (b.run)(&mut rt, n, seed).unwrap()
    };
    assert_ne!(run(1), run(2), "different seeds must change the data");
    assert_eq!(run(3), (b.reference)(n, 3), "same seed must agree");
}
