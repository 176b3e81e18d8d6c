//! SYR2K: symmetric rank-2k update `C = α·(A·Bᵀ + B·Aᵀ) + β·C`.
//!
//! Like SYRK but with twice the memory traffic per iteration, which pushes
//! the balance further toward cooperative execution: in the paper ("SYRK2"
//! in the figures) FluidiCL beats the better single device by the largest
//! margin of the suite (≈1.4×) and SOCL-dmda by >2.4× (§9.1, §9.4).

use fluidicl_hetsim::KernelProfile;
use fluidicl_vcl::{
    AccessPattern, ArgRole, ArgSpec, ClDriver, ClResult, KernelArg, KernelDef, NdRange, Program,
};

use crate::data::gen_matrix;
use crate::group::pair_tiles;

/// Default (scaled) problem size.
pub const DEFAULT_N: usize = 384;
/// 2-D work-group edge (8×8, matching SYRK's fine granularity).
pub const WG: usize = 8;

const ALPHA: f32 = 1.5;
const BETA: f32 = 2.5;

fn gpu_efficiency(n: usize) -> f64 {
    // Four streamed rows per work-item: the cache working set is twice
    // SYRK's, so efficiency decays faster with n.
    0.7 / (1.0 + (n as f64 / 640.0))
}

fn profile(n: usize) -> KernelProfile {
    KernelProfile::new("syr2k")
        .flops_per_item(4.0 * n as f64)
        .bytes_read_per_item(16.0 * n as f64)
        .bytes_written_per_item(4.0)
        .inner_loop_trips(n as u32)
        .gpu_coalescing(gpu_efficiency(n))
        .cpu_cache_locality(0.8)
        .cpu_simd_friendliness(0.8)
}

/// Builds the SYR2K program for problem size `n`.
pub fn program(n: usize) -> Program {
    let mut p = Program::new();
    p.register(
        KernelDef::new(
            "syr2k",
            vec![
                ArgSpec::new("a", ArgRole::In).with_access(AccessPattern::WholeBuffer),
                ArgSpec::new("b", ArgRole::In).with_access(AccessPattern::WholeBuffer),
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
                let b = ins.get(1);
                let mut acc = 0.0f32;
                for k in 0..n {
                    acc += a[i * n + k] * b[j * n + k] + b[i * n + k] * a[j * n + k];
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
            pair_tiles::<2, 2>(
                [ins.get(0), ins.get(1)],
                n,
                nd.row_spans(groups),
                |[aik, bik], [ajk, bjk]| aik * bjk + bik * ajk,
                |i, j, acc| c[i * n + j] = beta * c[i * n + j] + alpha * acc,
            );
        }),
    );
    p
}

/// Runs SYR2K on `driver`, returning `[c]`.
///
/// # Errors
///
/// Propagates driver errors.
pub fn run(driver: &mut dyn ClDriver, n: usize, seed: u64) -> ClResult<Vec<Vec<f32>>> {
    let a = gen_matrix(n, n, seed);
    let b = gen_matrix(n, n, seed.wrapping_add(1));
    let c0 = gen_matrix(n, n, seed.wrapping_add(2));
    let a_buf = driver.create_buffer(n * n);
    let b_buf = driver.create_buffer(n * n);
    let c_buf = driver.create_buffer(n * n);
    driver.write_buffer_owned(a_buf, a)?;
    driver.write_buffer_owned(b_buf, b)?;
    driver.write_buffer_owned(c_buf, c0)?;
    driver.enqueue_kernel(
        "syr2k",
        NdRange::d2(n, n, WG, WG)?,
        &[
            KernelArg::Buffer(a_buf),
            KernelArg::Buffer(b_buf),
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
    let b = gen_matrix(n, n, seed.wrapping_add(1));
    let mut c = gen_matrix(n, n, seed.wrapping_add(2));
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0.0f32;
            for k in 0..n {
                acc += a[i * n + k] * b[j * n + k] + b[i * n + k] * a[j * n + k];
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
            assert_eq!(run(&mut rt, n, 13).unwrap(), reference(n, 13));
        }
    }

    #[test]
    fn devices_are_closely_matched() {
        let n = DEFAULT_N;
        let m = MachineConfig::paper_testbed();
        let cpu = SingleDeviceRuntime::new(m.clone(), DeviceKind::Cpu, program(n));
        let gpu = SingleDeviceRuntime::new(m, DeviceKind::Gpu, program(n));
        let nd = NdRange::d2(n, n, WG, WG).unwrap();
        let tc = cpu.kernel_duration("syr2k", nd).unwrap().as_nanos() as f64;
        let tg = gpu.kernel_duration("syr2k", nd).unwrap().as_nanos() as f64;
        let ratio = tc.max(tg) / tc.min(tg);
        assert!(ratio < 3.0, "CPU/GPU ratio {ratio} too lopsided for SYR2K");
    }
}
