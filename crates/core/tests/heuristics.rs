//! Randomized property tests for the runtime's heuristics: the adaptive
//! chunk controller (paper §5.1) under arbitrary inputs, plus correctness
//! under arbitrary machine configurations (model fuzzing). Cases come from
//! the in-tree deterministic generator so failures replay bit-for-bit.

use fluidicl::{ChunkController, Fluidicl, FluidiclConfig};
use fluidicl_des::{SimDuration, SplitMix64};
use fluidicl_hetsim::{CpuModel, GpuModel, HostModel, KernelProfile, LinkModel, MachineConfig};
use fluidicl_vcl::{
    ArgRole, ArgSpec, ClDriver, DeviceKind, KernelArg, KernelDef, NdRange, Program,
    SingleDeviceRuntime,
};

/// The chunk never leaves `[1, total]` and `next_chunk` never exceeds the
/// remaining work, whatever observations arrive.
#[test]
fn chunk_controller_stays_in_bounds() {
    let mut rng = SplitMix64::new(0xC051);
    for _ in 0..128 {
        let total = rng.range_u64(1, 100_000);
        let initial = rng.range_f64(0.1, 100.0);
        let step = rng.range_f64(0.0, 100.0);
        let min_chunk = rng.range_u64(1, 64);
        let mut c = ChunkController::new(total, initial, step, min_chunk, 0.02);
        for _ in 0..rng.range_usize(0, 50) {
            let wgs = rng.range_u64(1, 500);
            let ns = rng.range_u64(1, 1_000_000);
            assert!(c.chunk() >= 1 && c.chunk() <= total.max(min_chunk));
            let remaining = total.min(wgs * 3 + 1);
            let next = c.next_chunk(remaining);
            assert!(next >= 1);
            assert!(next <= remaining.max(1));
            c.observe(wgs, SimDuration::from_nanos(ns));
        }
    }
}

/// Once growth stops it never restarts, so the chunk sequence is
/// non-decreasing and eventually constant.
#[test]
fn chunk_growth_is_monotone_then_flat() {
    let mut rng = SplitMix64::new(0xC052);
    for _ in 0..128 {
        let total = rng.range_u64(100, 10_000);
        let mut c = ChunkController::new(total, 2.0, 2.0, 8, 0.02);
        let mut sizes = vec![c.chunk()];
        let mut stopped_at: Option<usize> = None;
        let observations: Vec<(u64, u64)> = (0..rng.range_usize(1, 40))
            .map(|_| (rng.range_u64(1, 200), rng.range_u64(1, 1_000_000)))
            .collect();
        for (i, (wgs, ns)) in observations.iter().enumerate() {
            c.observe(*wgs, SimDuration::from_nanos(*ns));
            sizes.push(c.chunk());
            if !c.is_growing() && stopped_at.is_none() {
                stopped_at = Some(i);
            }
        }
        assert!(
            sizes.windows(2).all(|w| w[0] <= w[1]),
            "chunk shrank: {sizes:?}"
        );
        if let Some(stop) = stopped_at {
            // After growth stops, the size is constant.
            let tail = &sizes[stop + 1..];
            assert!(tail.windows(2).all(|w| w[0] == w[1]));
        }
    }
}

fn arb_machine(rng: &mut SplitMix64) -> MachineConfig {
    MachineConfig {
        cpu: CpuModel::xeon_w3550_like()
            .with_threads(rng.range_u64(1, 16) as u32)
            .with_launch_overhead(SimDuration::from_micros(rng.range_u64(1, 200))),
        gpu: GpuModel::tesla_c2070_like()
            .with_wave(rng.range_u64(1, 32) as u32, rng.range_u64(1, 10) as u32)
            .with_rates(rng.range_f64(2.0, 4000.0), rng.range_f64(5.0, 400.0)),
        h2d: LinkModel::new(
            SimDuration::from_micros(rng.range_u64(1, 200)),
            rng.range_f64(0.5, 20.0),
        ),
        d2h: LinkModel::new(
            SimDuration::from_micros(rng.range_u64(1, 200)),
            rng.range_f64(0.5, 20.0),
        ),
        host: HostModel::new(rng.range_f64(1.0, 32.0)),
        peers: Vec::new(),
    }
}

fn stencil_program() -> Program {
    let mut p = Program::new();
    p.register(KernelDef::new(
        "stencil",
        vec![
            ArgSpec::new("src", ArgRole::In),
            ArgSpec::new("dst", ArgRole::Out),
            ArgSpec::new("n", ArgRole::Scalar),
        ],
        KernelProfile::new("stencil")
            .flops_per_item(3.0)
            .bytes_read_per_item(12.0)
            .bytes_written_per_item(4.0)
            .gpu_coalescing(0.6)
            .cpu_cache_locality(0.8),
        |item, scalars, ins, outs| {
            let n = scalars.usize(0);
            let i = item.global_linear();
            let s = ins.get(0);
            let left = if i == 0 { 0.0 } else { s[i - 1] };
            let right = if i + 1 == n { 0.0 } else { s[i + 1] };
            outs.at(0)[i] = 0.25 * left + 0.5 * s[i] + 0.25 * right;
        },
    ));
    p
}

fn run_stencil(driver: &mut dyn ClDriver, n: usize) -> Vec<f32> {
    let src: Vec<f32> = (0..n).map(|i| ((i * 7919) % 101) as f32).collect();
    let a = driver.create_buffer(n);
    let b = driver.create_buffer(n);
    driver.write_buffer(a, &src).unwrap();
    driver
        .enqueue_kernel(
            "stencil",
            NdRange::d1(n, 16).unwrap(),
            &[
                KernelArg::Buffer(a),
                KernelArg::Buffer(b),
                KernelArg::Usize(n),
            ],
        )
        .unwrap();
    driver.read_buffer(b).unwrap()
}

/// Machine-model fuzzing: whatever the (positive-rate) machine looks like,
/// FluidiCL computes exactly what a single device computes. The protocol's
/// correctness must not depend on the performance landscape.
#[test]
fn correct_on_arbitrary_machines() {
    let mut rng = SplitMix64::new(0xC054);
    for _ in 0..32 {
        let machine = arb_machine(&mut rng);
        let n = 512;
        let mut single =
            SingleDeviceRuntime::new(machine.clone(), DeviceKind::Cpu, stencil_program());
        let want = run_stencil(&mut single, n);
        let mut fcl = Fluidicl::new(machine, FluidiclConfig::default(), stencil_program());
        let got = run_stencil(&mut fcl, n);
        assert_eq!(got, want);
        assert!(!fcl.elapsed().is_zero());
    }
}
