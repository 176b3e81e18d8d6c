//! BICG: the BiCG sub-kernel of BiCGStab — `q = A·p` and `s = Aᵀ·r`.
//!
//! The paper's motivating multi-kernel case (Table 1): each of the two
//! kernels runs faster on a *different* device, so any static whole-kernel
//! device choice loses, and the coherence traffic between kernels must be
//! managed. `bicg_q` (row-wise) favours the GPU; `bicg_s` (column-wise,
//! scattered access) favours the CPU.

use fluidicl_hetsim::KernelProfile;
use fluidicl_vcl::{
    AccessPattern, ArgRole, ArgSpec, ClDriver, ClResult, KernelArg, KernelDef, NdRange, Program,
};

use crate::data::{gen_matrix, gen_vector};
use crate::group::{column_dots, row_dots};

/// Default (scaled) problem size (paper: 4576²).
pub const DEFAULT_N: usize = 4096;
/// 1-D work-group size.
pub const WG: usize = 16;

fn profile_q(n: usize) -> KernelProfile {
    KernelProfile::new("bicg_q")
        .flops_per_item(2.0 * n as f64)
        .bytes_read_per_item(4.0 * n as f64)
        .bytes_written_per_item(4.0)
        .inner_loop_trips(n as u32)
        .gpu_coalescing(0.9)
        .cpu_cache_locality(0.9)
        .cpu_simd_friendliness(0.9)
}

fn profile_s(n: usize) -> KernelProfile {
    // Work-item j walks column j: fully scattered on the GPU (stride-n
    // across the warp) and divergent; the CPU's caches cope far better.
    KernelProfile::new("bicg_s")
        .flops_per_item(2.0 * n as f64)
        .bytes_read_per_item(4.0 * n as f64)
        .bytes_written_per_item(4.0)
        .inner_loop_trips(n as u32)
        .gpu_coalescing(0.0)
        .gpu_divergence(0.5)
        .cpu_cache_locality(0.5)
        .cpu_simd_friendliness(0.6)
}

/// Builds the BICG program for problem size `n`.
pub fn program(n: usize) -> Program {
    let mut p = Program::new();
    p.register(
        KernelDef::new(
            "bicg_q",
            vec![
                ArgSpec::new("a", ArgRole::In).with_access(AccessPattern::Row {
                    dim: 0,
                    width_scalar: 0,
                }),
                ArgSpec::new("p", ArgRole::In).with_access(AccessPattern::WholeBuffer),
                ArgSpec::new("q", ArgRole::Out).with_access(AccessPattern::Element),
                ArgSpec::new("n", ArgRole::Scalar),
            ],
            profile_q(n),
            |item, scalars, ins, outs| {
                let n = scalars.usize(0);
                let i = item.global[0];
                let a = ins.get(0);
                let p = ins.get(1);
                let mut acc = 0.0f32;
                for j in 0..n {
                    acc += a[i * n + j] * p[j];
                }
                outs.at(0)[i] = acc;
            },
        )
        .with_group_body(|nd, groups, scalars, ins, outs| {
            let q = outs.at(0);
            let rows = nd.range_items(groups);
            row_dots::<1, 8>(
                [ins.get(0)],
                ins.get(1),
                scalars.usize(0),
                rows,
                |i, [acc]| {
                    q[i] = acc;
                },
            );
        }),
    );
    p.register(
        KernelDef::new(
            "bicg_s",
            vec![
                ArgSpec::new("a", ArgRole::In).with_access(AccessPattern::Col {
                    dim: 0,
                    width_scalar: 0,
                }),
                ArgSpec::new("r", ArgRole::In).with_access(AccessPattern::WholeBuffer),
                ArgSpec::new("s", ArgRole::Out).with_access(AccessPattern::Element),
                ArgSpec::new("n", ArgRole::Scalar),
            ],
            profile_s(n),
            |item, scalars, ins, outs| {
                let n = scalars.usize(0);
                let j = item.global[0];
                let a = ins.get(0);
                let r = ins.get(1);
                let mut acc = 0.0f32;
                for i in 0..n {
                    acc += a[i * n + j] * r[i];
                }
                outs.at(0)[j] = acc;
            },
        )
        .with_group_body(|nd, groups, scalars, ins, outs| {
            let s = outs.at(0);
            let cols = nd.range_items(groups);
            column_dots(ins.get(0), ins.get(1), scalars.usize(0), cols, |j, acc| {
                s[j] = acc;
            });
        }),
    );
    p
}

/// Runs BICG on `driver`, returning `[s, q]`.
///
/// # Errors
///
/// Propagates driver errors.
pub fn run(driver: &mut dyn ClDriver, n: usize, seed: u64) -> ClResult<Vec<Vec<f32>>> {
    let a = gen_matrix(n, n, seed);
    let p = gen_vector(n, seed.wrapping_add(1));
    let r = gen_vector(n, seed.wrapping_add(2));
    let a_buf = driver.create_buffer(n * n);
    let p_buf = driver.create_buffer(n);
    let r_buf = driver.create_buffer(n);
    let q_buf = driver.create_buffer(n);
    let s_buf = driver.create_buffer(n);
    driver.write_buffer_owned(a_buf, a)?;
    driver.write_buffer_owned(p_buf, p)?;
    driver.write_buffer_owned(r_buf, r)?;
    let nd = NdRange::d1(n, WG)?;
    driver.enqueue_kernel(
        "bicg_s",
        nd,
        &[
            KernelArg::Buffer(a_buf),
            KernelArg::Buffer(r_buf),
            KernelArg::Buffer(s_buf),
            KernelArg::Usize(n),
        ],
    )?;
    driver.enqueue_kernel(
        "bicg_q",
        nd,
        &[
            KernelArg::Buffer(a_buf),
            KernelArg::Buffer(p_buf),
            KernelArg::Buffer(q_buf),
            KernelArg::Usize(n),
        ],
    )?;
    Ok(vec![driver.read_buffer(s_buf)?, driver.read_buffer(q_buf)?])
}

/// Sequential reference.
pub fn reference(n: usize, seed: u64) -> Vec<Vec<f32>> {
    let a = gen_matrix(n, n, seed);
    let p = gen_vector(n, seed.wrapping_add(1));
    let r = gen_vector(n, seed.wrapping_add(2));
    // Row-major walk: every s[j] still adds its terms in `i` order.
    let mut s = vec![0.0f32; n];
    for (i, &ri) in r.iter().enumerate() {
        for (sj, &aij) in s.iter_mut().zip(&a[i * n..i * n + n]) {
            *sj += aij * ri;
        }
    }
    let mut q = vec![0.0f32; n];
    for (i, qi) in q.iter_mut().enumerate() {
        let mut acc = 0.0f32;
        for j in 0..n {
            acc += a[i * n + j] * p[j];
        }
        *qi = acc;
    }
    vec![s, q]
}

/// Work-group counts per kernel.
pub fn workgroups(n: usize) -> Vec<u64> {
    vec![(n / WG) as u64, (n / WG) as u64]
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluidicl_hetsim::MachineConfig;
    use fluidicl_vcl::{DeviceKind, SingleDeviceRuntime};

    #[test]
    fn matches_reference_on_both_devices() {
        let n = 128;
        for device in [DeviceKind::Cpu, DeviceKind::Gpu] {
            let mut rt =
                SingleDeviceRuntime::new(MachineConfig::paper_testbed(), device, program(n));
            assert_eq!(run(&mut rt, n, 3).unwrap(), reference(n, 3));
        }
    }

    #[test]
    fn kernels_prefer_different_devices() {
        // The paper's Table 1 property: bicg_q faster on GPU, bicg_s faster
        // on CPU.
        let n = DEFAULT_N;
        let m = MachineConfig::paper_testbed();
        let cpu = SingleDeviceRuntime::new(m.clone(), DeviceKind::Cpu, program(n));
        let gpu = SingleDeviceRuntime::new(m, DeviceKind::Gpu, program(n));
        let nd = NdRange::d1(n, WG).unwrap();
        let q_cpu = cpu.kernel_duration("bicg_q", nd).unwrap();
        let q_gpu = gpu.kernel_duration("bicg_q", nd).unwrap();
        let s_cpu = cpu.kernel_duration("bicg_s", nd).unwrap();
        let s_gpu = gpu.kernel_duration("bicg_s", nd).unwrap();
        assert!(q_gpu < q_cpu, "bicg_q should be GPU-favoured");
        assert!(s_cpu < s_gpu, "bicg_s should be CPU-favoured");
    }
}
