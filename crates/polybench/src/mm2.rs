//! 2MM (extension): `D = α·(A·B)·C + β·D` as two chained matrix products.
//!
//! Not part of the paper's six-benchmark suite; included because the second
//! kernel consumes the first one's *entire* output, which stresses the
//! cross-kernel coherence machinery hardest: the CPU scheduler must wait
//! for the device-to-host thread of kernel 1 (buffer ready times, paper §5.3)
//! while the GPU proceeds immediately from its merged copy.

use fluidicl_hetsim::KernelProfile;
use fluidicl_vcl::{
    AccessPattern, ArgRole, ArgSpec, ClDriver, ClResult, KernelArg, KernelDef, NdRange, Program,
};

use crate::data::gen_matrix;
use crate::group::matmul;

/// Default (scaled) problem size.
pub const DEFAULT_N: usize = 256;
/// 2-D work-group edge.
pub const WG: usize = 8;

const ALPHA: f32 = 1.5;
const BETA: f32 = 2.5;

fn profile(name: &str, n: usize) -> KernelProfile {
    KernelProfile::new(name)
        .flops_per_item(2.0 * n as f64)
        .bytes_read_per_item(8.0 * n as f64)
        .bytes_written_per_item(4.0)
        .inner_loop_trips(n as u32)
        .gpu_coalescing(0.9 / (1.0 + (n as f64 / 520.0).powf(1.2)))
        .cpu_cache_locality(0.8)
        .cpu_simd_friendliness(0.85)
}

/// Builds the 2MM program for problem size `n`.
pub fn program(n: usize) -> Program {
    let mut p = Program::new();
    p.register(
        KernelDef::new(
            "mm2_tmp",
            vec![
                ArgSpec::new("a", ArgRole::In).with_access(AccessPattern::Row {
                    dim: 1,
                    width_scalar: 1,
                }),
                ArgSpec::new("b", ArgRole::In).with_access(AccessPattern::Col {
                    dim: 0,
                    width_scalar: 1,
                }),
                ArgSpec::new("tmp", ArgRole::Out).with_access(AccessPattern::Element),
                ArgSpec::new("alpha", ArgRole::Scalar),
                ArgSpec::new("n", ArgRole::Scalar),
            ],
            profile("mm2_tmp", n),
            |item, scalars, ins, outs| {
                let alpha = scalars.f32(0);
                let n = scalars.usize(1);
                let i = item.global[1];
                let j = item.global[0];
                let a = ins.get(0);
                let b = ins.get(1);
                let mut acc = 0.0f32;
                for k in 0..n {
                    acc += a[i * n + k] * b[k * n + j];
                }
                outs.at(0)[i * n + j] = alpha * acc;
            },
        )
        .with_group_body(|nd, groups, scalars, ins, outs| {
            let alpha = scalars.f32(0);
            let n = scalars.usize(1);
            let tmp = outs.at(0);
            for (rows, cols) in nd.row_spans(groups) {
                matmul(ins.get(0), ins.get(1), n, rows, cols, |i, j, acc| {
                    tmp[i * n + j] = alpha * acc;
                });
            }
        }),
    );
    p.register(
        KernelDef::new(
            "mm2_d",
            vec![
                ArgSpec::new("tmp", ArgRole::In).with_access(AccessPattern::Row {
                    dim: 1,
                    width_scalar: 1,
                }),
                ArgSpec::new("c", ArgRole::In).with_access(AccessPattern::Col {
                    dim: 0,
                    width_scalar: 1,
                }),
                ArgSpec::new("d", ArgRole::InOut).with_access(AccessPattern::Element),
                ArgSpec::new("beta", ArgRole::Scalar),
                ArgSpec::new("n", ArgRole::Scalar),
            ],
            profile("mm2_d", n),
            |item, scalars, ins, outs| {
                let beta = scalars.f32(0);
                let n = scalars.usize(1);
                let i = item.global[1];
                let j = item.global[0];
                let tmp = ins.get(0);
                let c = ins.get(1);
                let mut acc = 0.0f32;
                for k in 0..n {
                    acc += tmp[i * n + k] * c[k * n + j];
                }
                let d = outs.at(0);
                d[i * n + j] = beta * d[i * n + j] + acc;
            },
        )
        .with_group_body(|nd, groups, scalars, ins, outs| {
            let beta = scalars.f32(0);
            let n = scalars.usize(1);
            let d = outs.at(0);
            for (rows, cols) in nd.row_spans(groups) {
                matmul(ins.get(0), ins.get(1), n, rows, cols, |i, j, acc| {
                    d[i * n + j] = beta * d[i * n + j] + acc;
                });
            }
        }),
    );
    p
}

/// Runs 2MM on `driver`, returning `[d]`.
///
/// # Errors
///
/// Propagates driver errors.
pub fn run(driver: &mut dyn ClDriver, n: usize, seed: u64) -> ClResult<Vec<Vec<f32>>> {
    let a = gen_matrix(n, n, seed);
    let b = gen_matrix(n, n, seed.wrapping_add(1));
    let c = gen_matrix(n, n, seed.wrapping_add(2));
    let d0 = gen_matrix(n, n, seed.wrapping_add(3));
    let a_buf = driver.create_buffer(n * n);
    let b_buf = driver.create_buffer(n * n);
    let c_buf = driver.create_buffer(n * n);
    let d_buf = driver.create_buffer(n * n);
    let tmp_buf = driver.create_buffer(n * n);
    driver.write_buffer_owned(a_buf, a)?;
    driver.write_buffer_owned(b_buf, b)?;
    driver.write_buffer_owned(c_buf, c)?;
    driver.write_buffer_owned(d_buf, d0)?;
    let nd = NdRange::d2(n, n, WG, WG)?;
    driver.enqueue_kernel(
        "mm2_tmp",
        nd,
        &[
            KernelArg::Buffer(a_buf),
            KernelArg::Buffer(b_buf),
            KernelArg::Buffer(tmp_buf),
            KernelArg::F32(ALPHA),
            KernelArg::Usize(n),
        ],
    )?;
    driver.enqueue_kernel(
        "mm2_d",
        nd,
        &[
            KernelArg::Buffer(tmp_buf),
            KernelArg::Buffer(c_buf),
            KernelArg::Buffer(d_buf),
            KernelArg::F32(BETA),
            KernelArg::Usize(n),
        ],
    )?;
    Ok(vec![driver.read_buffer(d_buf)?])
}

/// Sequential reference.
pub fn reference(n: usize, seed: u64) -> Vec<Vec<f32>> {
    let a = gen_matrix(n, n, seed);
    let b = gen_matrix(n, n, seed.wrapping_add(1));
    let c = gen_matrix(n, n, seed.wrapping_add(2));
    let mut d = gen_matrix(n, n, seed.wrapping_add(3));
    let mut tmp = vec![0.0f32; n * n];
    matmul(&a, &b, n, 0..n, 0..n, |i, j, acc| {
        tmp[i * n + j] = ALPHA * acc
    });
    matmul(&tmp, &c, n, 0..n, 0..n, |i, j, acc| {
        d[i * n + j] = BETA * d[i * n + j] + acc;
    });
    vec![d]
}

/// Work-group counts per kernel.
pub fn workgroups(n: usize) -> Vec<u64> {
    let wgs = ((n / WG) * (n / WG)) as u64;
    vec![wgs, wgs]
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
            assert_eq!(run(&mut rt, n, 29).unwrap(), reference(n, 29));
        }
    }

    #[test]
    fn two_dependent_kernels() {
        let p = program(DEFAULT_N);
        assert_eq!(p.len(), 2);
        assert_eq!(workgroups(DEFAULT_N), vec![1024, 1024]);
    }
}
