//! SYRK: symmetric rank-k update `C = α·A·Aᵀ + β·C`.
//!
//! The paper's star case for cooperative execution: the best static split
//! lies strictly between the devices (Figure 2) and *moves with the input
//! size* (Figure 3 — roughly 60/40 GPU/CPU for small inputs, 40/60 for
//! large ones, as the working set outgrows the GPU's cache). FluidiCL beats
//! the better single device by a wide margin and even beats OracleSP, whose
//! 10%-granular static split cannot express the fine-grained optimum
//! (§9.1–§9.2).

use fluidicl_hetsim::KernelProfile;
use fluidicl_vcl::{
    AccessPattern, ArgRole, ArgSpec, ClDriver, ClResult, KernelArg, KernelDef, NdRange, Program,
};

use crate::data::gen_matrix;
use crate::group::pair_tiles;

/// Default (scaled) problem size.
pub const DEFAULT_N: usize = 384;
/// 2-D work-group edge (8×8 work-items per group — many small groups give
/// the runtime fine distribution granularity, as in the paper's Table 2).
pub const WG: usize = 8;

const ALPHA: f32 = 1.5;
const BETA: f32 = 2.5;

/// GPU cache efficiency decays as the per-wave working set outgrows the
/// L2: for small `n` two matrix rows per work-item stay resident, for large
/// `n` every loop iteration misses. This is what moves SYRK's optimal
/// split with input size (paper Figure 3).
fn gpu_efficiency(n: usize) -> f64 {
    // ≈0.66 at n=192, 0.47 at n=384, 0.26 at n=768: the two streamed rows
    // per work-item stop fitting the C2070's small L2 as n grows.
    0.85 / (1.0 + (n as f64 / 450.0).powf(1.3))
}

fn profile(n: usize) -> KernelProfile {
    KernelProfile::new("syrk")
        .flops_per_item(2.0 * n as f64)
        .bytes_read_per_item(8.0 * n as f64)
        .bytes_written_per_item(4.0)
        .inner_loop_trips(n as u32)
        .gpu_coalescing(gpu_efficiency(n))
        .cpu_cache_locality(0.85)
        .cpu_simd_friendliness(0.8)
}

/// Builds the SYRK program for problem size `n`.
pub fn program(n: usize) -> Program {
    let mut p = Program::new();
    p.register(
        KernelDef::new(
            "syrk",
            vec![
                // Each item reads rows i and j of `a`; across a wave that
                // gathers from arbitrary rows, so declare the whole buffer.
                ArgSpec::new("a", ArgRole::In).with_access(AccessPattern::WholeBuffer),
                ArgSpec::new("c", ArgRole::InOut).with_access(AccessPattern::Element),
                ArgSpec::new("alpha", ArgRole::Scalar),
                ArgSpec::new("beta", ArgRole::Scalar),
                ArgSpec::new("n", ArgRole::Scalar),
            ],
            profile(n),
            |item, scalars, ins, outs| {
                let alpha = scalars.f32(0);
                let beta = scalars.f32(1);
                let n = scalars.usize(2);
                let i = item.global[1];
                let j = item.global[0];
                let a = ins.get(0);
                let mut acc = 0.0f32;
                for k in 0..n {
                    acc += a[i * n + k] * a[j * n + k];
                }
                let c = outs.at(0);
                c[i * n + j] = beta * c[i * n + j] + alpha * acc;
            },
        )
        .with_group_body(|nd, groups, scalars, ins, outs| {
            let alpha = scalars.f32(0);
            let beta = scalars.f32(1);
            let n = scalars.usize(2);
            let c = outs.at(0);
            pair_tiles::<1, 4>(
                [ins.get(0)],
                n,
                nd.row_spans(groups),
                |[aik], [ajk]| aik * ajk,
                |i, j, acc| c[i * n + j] = beta * c[i * n + j] + alpha * acc,
            );
        }),
    );
    p
}

/// Runs SYRK on `driver`, returning `[c]`.
///
/// # Errors
///
/// Propagates driver errors.
pub fn run(driver: &mut dyn ClDriver, n: usize, seed: u64) -> ClResult<Vec<Vec<f32>>> {
    let a = gen_matrix(n, n, seed);
    let c0 = gen_matrix(n, n, seed.wrapping_add(1));
    let a_buf = driver.create_buffer(n * n);
    let c_buf = driver.create_buffer(n * n);
    driver.write_buffer_owned(a_buf, a)?;
    driver.write_buffer_owned(c_buf, c0)?;
    driver.enqueue_kernel(
        "syrk",
        NdRange::d2(n, n, WG, WG)?,
        &[
            KernelArg::Buffer(a_buf),
            KernelArg::Buffer(c_buf),
            KernelArg::F32(ALPHA),
            KernelArg::F32(BETA),
            KernelArg::Usize(n),
        ],
    )?;
    Ok(vec![driver.read_buffer(c_buf)?])
}

/// Sequential reference.
pub fn reference(n: usize, seed: u64) -> Vec<Vec<f32>> {
    let a = gen_matrix(n, n, seed);
    let mut c = gen_matrix(n, n, seed.wrapping_add(1));
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0.0f32;
            for k in 0..n {
                acc += a[i * n + k] * a[j * n + k];
            }
            c[i * n + j] = BETA * c[i * n + j] + ALPHA * acc;
        }
    }
    vec![c]
}

/// Work-group counts per kernel.
pub fn workgroups(n: usize) -> Vec<u64> {
    vec![((n / WG) * (n / WG)) as u64]
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluidicl_hetsim::MachineConfig;
    use fluidicl_vcl::{DeviceKind, SingleDeviceRuntime};

    #[test]
    fn matches_reference_on_both_devices() {
        let n = 64;
        for device in [DeviceKind::Cpu, DeviceKind::Gpu] {
            let mut rt =
                SingleDeviceRuntime::new(MachineConfig::paper_testbed(), device, program(n));
            assert_eq!(run(&mut rt, n, 9).unwrap(), reference(n, 9));
        }
    }

    #[test]
    fn gpu_efficiency_decays_with_size() {
        assert!(gpu_efficiency(128) > gpu_efficiency(1024));
    }

    #[test]
    fn devices_are_comparable_at_default_size() {
        // SYRK is the cooperative sweet spot: neither device dominates by
        // more than ~4×, so splitting wins.
        let n = DEFAULT_N;
        let m = MachineConfig::paper_testbed();
        let cpu = SingleDeviceRuntime::new(m.clone(), DeviceKind::Cpu, program(n));
        let gpu = SingleDeviceRuntime::new(m, DeviceKind::Gpu, program(n));
        let nd = NdRange::d2(n, n, WG, WG).unwrap();
        let tc = cpu.kernel_duration("syrk", nd).unwrap().as_nanos() as f64;
        let tg = gpu.kernel_duration("syrk", nd).unwrap().as_nanos() as f64;
        let ratio = tc.max(tg) / tc.min(tg);
        assert!(ratio < 4.0, "CPU/GPU ratio {ratio} too lopsided for SYRK");
    }
}
