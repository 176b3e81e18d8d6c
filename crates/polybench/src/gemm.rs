//! GEMM (extension): `C = α·A·B + β·C`, the canonical dense kernel.
//!
//! Not part of the paper's six-benchmark suite; included because it is the
//! first workload any heterogeneous-runtime user tries. Compute-heavy and
//! well coalesced, it is GPU-leaning at small sizes and becomes cooperative
//! as the working set outgrows the GPU's cache (same mechanism as SYRK).

use fluidicl_hetsim::KernelProfile;
use fluidicl_vcl::{
    AccessPattern, ArgRole, ArgSpec, ClDriver, ClResult, KernelArg, KernelDef, NdRange, Program,
};

use crate::data::gen_matrix;
use crate::group::matmul;

/// Default (scaled) problem size.
pub const DEFAULT_N: usize = 320;
/// 2-D work-group edge.
pub const WG: usize = 8;

const ALPHA: f32 = 1.5;
const BETA: f32 = 2.5;

fn gpu_efficiency(n: usize) -> f64 {
    0.9 / (1.0 + (n as f64 / 520.0).powf(1.2))
}

fn profile(n: usize) -> KernelProfile {
    KernelProfile::new("gemm")
        .flops_per_item(2.0 * n as f64)
        .bytes_read_per_item(8.0 * n as f64)
        .bytes_written_per_item(4.0)
        .inner_loop_trips(n as u32)
        .gpu_coalescing(gpu_efficiency(n))
        .cpu_cache_locality(0.8)
        .cpu_simd_friendliness(0.85)
}

/// Builds the GEMM program for problem size `n`.
pub fn program(n: usize) -> Program {
    let mut p = Program::new();
    p.register(
        KernelDef::new(
            "gemm",
            vec![
                ArgSpec::new("a", ArgRole::In).with_access(AccessPattern::Row {
                    dim: 1,
                    width_scalar: 2,
                }),
                ArgSpec::new("b", ArgRole::In).with_access(AccessPattern::Col {
                    dim: 0,
                    width_scalar: 2,
                }),
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
                    acc += a[i * n + k] * b[k * n + j];
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
            for (rows, cols) in nd.row_spans(groups) {
                matmul(ins.get(0), ins.get(1), n, rows, cols, |i, j, acc| {
                    c[i * n + j] = beta * c[i * n + j] + alpha * acc;
                });
            }
        }),
    );
    p
}

/// Runs GEMM on `driver`, returning `[c]`.
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
        "gemm",
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
    matmul(&a, &b, n, 0..n, 0..n, |i, j, acc| {
        c[i * n + j] = BETA * c[i * n + j] + ALPHA * acc;
    });
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
            assert_eq!(run(&mut rt, n, 23).unwrap(), reference(n, 23));
        }
    }

    #[test]
    fn efficiency_decays_with_size() {
        assert!(gpu_efficiency(128) > gpu_efficiency(768));
    }
}
