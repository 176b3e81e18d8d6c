//! Randomized property tests of the performance models: the monotonicity
//! and ordering laws the co-execution protocol's decisions depend on. A
//! model violating these could make the simulated FluidiCL take nonsensical
//! decisions without failing any functional test. Cases come from the
//! in-tree deterministic generator so failures replay bit-for-bit.

use fluidicl_des::{SimDuration, SplitMix64};
use fluidicl_hetsim::{AbortMode, CpuModel, GpuModel, KernelProfile, LinkModel, MachineConfig};

const CASES: u64 = 128;

fn arb_profile(rng: &mut SplitMix64) -> KernelProfile {
    KernelProfile::new("p")
        .flops_per_item(rng.range_f64(1.0, 8192.0))
        .bytes_read_per_item(rng.range_f64(0.0, 8192.0))
        .bytes_written_per_item(4.0)
        .inner_loop_trips(rng.range_u64(1, 1024) as u32)
        .gpu_coalescing(rng.next_f64())
        .gpu_divergence(rng.next_f64())
        .cpu_cache_locality(rng.next_f64())
        .cpu_simd_friendliness(rng.next_f64())
}

/// GPU range time is monotone in the work-group count.
#[test]
fn gpu_range_time_monotone_in_wgs() {
    let mut rng = SplitMix64::new(0x4E51);
    let gpu = GpuModel::tesla_c2070_like();
    for _ in 0..CASES {
        let p = arb_profile(&mut rng);
        let items = rng.range_u64(1, 1024);
        let a = rng.range_u64(0, 5000);
        let b = rng.range_u64(0, 5000);
        let (lo, hi) = (a.min(b), a.max(b));
        assert!(
            gpu.range_time(&p, items, lo, AbortMode::None)
                <= gpu.range_time(&p, items, hi, AbortMode::None)
        );
    }
}

/// More arithmetic per item never makes a kernel faster, on either device.
#[test]
fn more_flops_never_faster() {
    let mut rng = SplitMix64::new(0x4E52);
    let gpu = GpuModel::tesla_c2070_like();
    let cpu = CpuModel::xeon_w3550_like();
    for _ in 0..CASES {
        let p = arb_profile(&mut rng);
        let items = rng.range_u64(1, 1024);
        let extra = rng.range_f64(1.0, 4096.0);
        let heavier = p.clone().flops_per_item(p.flops() + extra);
        assert!(
            gpu.wg_time(&p, items, AbortMode::None)
                <= gpu.wg_time(&heavier, items, AbortMode::None)
        );
        assert!(cpu.wg_time(&p, items) <= cpu.wg_time(&heavier, items));
    }
}

/// Better coalescing never hurts the GPU; better locality never hurts the
/// CPU.
#[test]
fn friction_factors_are_monotone() {
    let mut rng = SplitMix64::new(0x4E53);
    let gpu = GpuModel::tesla_c2070_like();
    let cpu = CpuModel::xeon_w3550_like();
    for _ in 0..CASES {
        let p = arb_profile(&mut rng);
        let items = rng.range_u64(1, 1024);
        let bump = rng.next_f64();
        let better_coal = p.clone().gpu_coalescing((p.coalescing() + bump).min(1.0));
        assert!(
            gpu.wg_time(&better_coal, items, AbortMode::None)
                <= gpu.wg_time(&p, items, AbortMode::None)
        );
        let better_loc = p
            .clone()
            .cpu_cache_locality((p.cache_locality() + bump).min(1.0));
        assert!(cpu.wg_time(&better_loc, items) <= cpu.wg_time(&p, items));
    }
}

/// The Figure-15 ordering holds for every profile: the unrolled-abort
/// kernel is never slower than the raw in-loop one.
#[test]
fn abort_mode_ordering() {
    let mut rng = SplitMix64::new(0x4E54);
    let gpu = GpuModel::tesla_c2070_like();
    for _ in 0..CASES {
        let p = arb_profile(&mut rng);
        let items = rng.range_u64(1, 1024);
        let unrolled = gpu.wg_time(&p, items, AbortMode::InLoopUnrolled);
        let raw = gpu.wg_time(&p, items, AbortMode::InLoop);
        assert!(
            unrolled <= raw,
            "manual unrolling must never lose to raw checks"
        );
    }
}

/// Early-abort modes always expose a finite, positive quantum.
#[test]
fn abort_quantum_is_positive() {
    let mut rng = SplitMix64::new(0x4E55);
    let gpu = GpuModel::tesla_c2070_like();
    for _ in 0..CASES {
        let p = arb_profile(&mut rng);
        let items = rng.range_u64(1, 1024);
        for mode in [AbortMode::InLoop, AbortMode::InLoopUnrolled] {
            let q = gpu.abort_quantum(&p, items, mode).expect("quantum exists");
            assert!(!q.is_zero());
            assert!(q <= gpu.wg_time(&p, items, mode).max(SimDuration::from_nanos(1)));
        }
        assert!(gpu.abort_quantum(&p, items, AbortMode::None).is_none());
        assert!(gpu
            .abort_quantum(&p, items, AbortMode::WorkGroupStart)
            .is_none());
    }
}

/// CPU subkernel time is monotone in the allocation and always at least
/// the launch overhead.
#[test]
fn cpu_subkernel_monotone() {
    let mut rng = SplitMix64::new(0x4E56);
    let cpu = CpuModel::xeon_w3550_like();
    for _ in 0..CASES {
        let p = arb_profile(&mut rng);
        let items = rng.range_u64(1, 1024);
        let a = rng.range_u64(1, 2000);
        let b = rng.range_u64(1, 2000);
        let split = rng.next_bool();
        let (lo, hi) = (a.min(b), a.max(b));
        assert!(
            cpu.subkernel_time(&p, items, lo, split) <= cpu.subkernel_time(&p, items, hi, split)
        );
        assert!(cpu.subkernel_time(&p, items, lo, split) >= cpu.launch_overhead());
    }
}

/// Work-group splitting never hurts (it only engages below the thread
/// count, where it strictly helps up to its overhead bound).
#[test]
fn splitting_never_hurts() {
    let mut rng = SplitMix64::new(0x4E57);
    let cpu = CpuModel::xeon_w3550_like();
    for _ in 0..CASES {
        let p = arb_profile(&mut rng);
        let items = rng.range_u64(1, 1024);
        let wgs = rng.range_u64(1, 64);
        let with = cpu.subkernel_time(&p, items, wgs, true);
        let without = cpu.subkernel_time(&p, items, wgs, false);
        assert!(with <= without);
    }
}

/// Link transfers are monotone in size and dominated by latency at zero
/// bytes.
#[test]
fn link_transfer_monotone() {
    let mut rng = SplitMix64::new(0x4E58);
    let link = LinkModel::pcie2_x16();
    for _ in 0..CASES {
        let a = rng.range_u64(0, 1 << 30);
        let b = rng.range_u64(0, 1 << 30);
        let (lo, hi) = (a.min(b), a.max(b));
        assert!(link.transfer_time(lo) <= link.transfer_time(hi));
    }
    assert_eq!(link.transfer_time(0), link.latency());
}

/// The three machine presets all satisfy basic sanity: positive rates and
/// identical CPUs (the migration experiments vary only the GPU side).
#[test]
fn machine_presets_sane() {
    for m in [
        MachineConfig::paper_testbed(),
        MachineConfig::weak_gpu_laptop(),
        MachineConfig::big_gpu_node(),
    ] {
        assert!(m.gpu.peak_flops_per_ns() > 0.0);
        assert!(m.gpu.copy_time(1 << 20) > SimDuration::ZERO);
        assert!(m.h2d.bandwidth() > 0.0);
        assert_eq!(m.cpu.threads(), 8);
    }
}
