//! MVT (extension): `x1 += A·y1` and `x2 += Aᵀ·y2` — two independent
//! matrix-vector kernels over the same matrix, one row-major and one
//! column-major, both with `InOut` result vectors.
//!
//! Not part of the paper's six-benchmark suite; included to exercise
//! FluidiCL on independent kernels sharing a large read-only input and on
//! `InOut` vectors (the diff-merge must preserve unmodified elements).

use fluidicl_hetsim::KernelProfile;
use fluidicl_vcl::{
    AccessPattern, ArgRole, ArgSpec, ClDriver, ClResult, KernelArg, KernelDef, NdRange, Program,
};

use crate::data::{gen_matrix, gen_vector};
use crate::group::{column_dots, row_dots};

/// Default (scaled) problem size.
pub const DEFAULT_N: usize = 4096;
/// 1-D work-group size.
pub const WG: usize = 16;

fn profile_x1(n: usize) -> KernelProfile {
    KernelProfile::new("mvt_x1")
        .flops_per_item(2.0 * n as f64)
        .bytes_read_per_item(4.0 * n as f64)
        .bytes_written_per_item(4.0)
        .inner_loop_trips(n as u32)
        .gpu_coalescing(0.9)
        .cpu_cache_locality(0.85)
        .cpu_simd_friendliness(0.85)
}

fn profile_x2(n: usize) -> KernelProfile {
    KernelProfile::new("mvt_x2")
        .flops_per_item(2.0 * n as f64)
        .bytes_read_per_item(4.0 * n as f64)
        .bytes_written_per_item(4.0)
        .inner_loop_trips(n as u32)
        .gpu_coalescing(0.05)
        .gpu_divergence(0.3)
        .cpu_cache_locality(0.45)
        .cpu_simd_friendliness(0.5)
}

/// Builds the MVT program for problem size `n`.
pub fn program(n: usize) -> Program {
    let mut p = Program::new();
    p.register(
        KernelDef::new(
            "mvt_x1",
            vec![
                ArgSpec::new("a", ArgRole::In).with_access(AccessPattern::Row {
                    dim: 0,
                    width_scalar: 0,
                }),
                ArgSpec::new("y1", ArgRole::In).with_access(AccessPattern::WholeBuffer),
                ArgSpec::new("x1", ArgRole::InOut).with_access(AccessPattern::Element),
                ArgSpec::new("n", ArgRole::Scalar),
            ],
            profile_x1(n),
            |item, scalars, ins, outs| {
                let n = scalars.usize(0);
                let i = item.global[0];
                let a = ins.get(0);
                let y1 = ins.get(1);
                let mut acc = 0.0f32;
                for j in 0..n {
                    acc += a[i * n + j] * y1[j];
                }
                outs.at(0)[i] += acc;
            },
        )
        .with_group_body(|nd, groups, scalars, ins, outs| {
            let x1 = outs.at(0);
            let rows = nd.range_items(groups);
            row_dots::<1, 8>(
                [ins.get(0)],
                ins.get(1),
                scalars.usize(0),
                rows,
                |i, [acc]| {
                    x1[i] += acc;
                },
            );
        }),
    );
    p.register(
        KernelDef::new(
            "mvt_x2",
            vec![
                ArgSpec::new("a", ArgRole::In).with_access(AccessPattern::Col {
                    dim: 0,
                    width_scalar: 0,
                }),
                ArgSpec::new("y2", ArgRole::In).with_access(AccessPattern::WholeBuffer),
                ArgSpec::new("x2", ArgRole::InOut).with_access(AccessPattern::Element),
                ArgSpec::new("n", ArgRole::Scalar),
            ],
            profile_x2(n),
            |item, scalars, ins, outs| {
                let n = scalars.usize(0);
                let i = item.global[0];
                let a = ins.get(0);
                let y2 = ins.get(1);
                let mut acc = 0.0f32;
                for j in 0..n {
                    acc += a[j * n + i] * y2[j];
                }
                outs.at(0)[i] += acc;
            },
        )
        .with_group_body(|nd, groups, scalars, ins, outs| {
            let x2 = outs.at(0);
            let cols = nd.range_items(groups);
            column_dots(ins.get(0), ins.get(1), scalars.usize(0), cols, |i, acc| {
                x2[i] += acc;
            });
        }),
    );
    p
}

/// Runs MVT on `driver`, returning `[x1, x2]`.
///
/// # Errors
///
/// Propagates driver errors.
pub fn run(driver: &mut dyn ClDriver, n: usize, seed: u64) -> ClResult<Vec<Vec<f32>>> {
    let a = gen_matrix(n, n, seed);
    let x1 = gen_vector(n, seed.wrapping_add(1));
    let x2 = gen_vector(n, seed.wrapping_add(2));
    let y1 = gen_vector(n, seed.wrapping_add(3));
    let y2 = gen_vector(n, seed.wrapping_add(4));
    let a_buf = driver.create_buffer(n * n);
    let x1_buf = driver.create_buffer(n);
    let x2_buf = driver.create_buffer(n);
    let y1_buf = driver.create_buffer(n);
    let y2_buf = driver.create_buffer(n);
    driver.write_buffer_owned(a_buf, a)?;
    driver.write_buffer_owned(x1_buf, x1)?;
    driver.write_buffer_owned(x2_buf, x2)?;
    driver.write_buffer_owned(y1_buf, y1)?;
    driver.write_buffer_owned(y2_buf, y2)?;
    let nd = NdRange::d1(n, WG)?;
    driver.enqueue_kernel(
        "mvt_x1",
        nd,
        &[
            KernelArg::Buffer(a_buf),
            KernelArg::Buffer(y1_buf),
            KernelArg::Buffer(x1_buf),
            KernelArg::Usize(n),
        ],
    )?;
    driver.enqueue_kernel(
        "mvt_x2",
        nd,
        &[
            KernelArg::Buffer(a_buf),
            KernelArg::Buffer(y2_buf),
            KernelArg::Buffer(x2_buf),
            KernelArg::Usize(n),
        ],
    )?;
    Ok(vec![
        driver.read_buffer(x1_buf)?,
        driver.read_buffer(x2_buf)?,
    ])
}

/// Sequential reference.
pub fn reference(n: usize, seed: u64) -> Vec<Vec<f32>> {
    let a = gen_matrix(n, n, seed);
    let mut x1 = gen_vector(n, seed.wrapping_add(1));
    let mut x2 = gen_vector(n, seed.wrapping_add(2));
    let y1 = gen_vector(n, seed.wrapping_add(3));
    let y2 = gen_vector(n, seed.wrapping_add(4));
    for (i, v) in x1.iter_mut().enumerate() {
        let mut acc = 0.0f32;
        for j in 0..n {
            acc += a[i * n + j] * y1[j];
        }
        *v += acc;
    }
    // Row-major walk: every sum still adds its terms in `j` order.
    let mut acc = vec![0.0f32; n];
    for (j, &y) in y2.iter().enumerate() {
        for (s, &aji) in acc.iter_mut().zip(&a[j * n..j * n + n]) {
            *s += aji * y;
        }
    }
    for (v, s) in x2.iter_mut().zip(acc) {
        *v += s;
    }
    vec![x1, x2]
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
            assert_eq!(run(&mut rt, n, 21).unwrap(), reference(n, 21));
        }
    }

    #[test]
    fn kernels_prefer_different_devices() {
        let n = DEFAULT_N;
        let m = MachineConfig::paper_testbed();
        let cpu = SingleDeviceRuntime::new(m.clone(), DeviceKind::Cpu, program(n));
        let gpu = SingleDeviceRuntime::new(m, DeviceKind::Gpu, program(n));
        let nd = NdRange::d1(n, WG).unwrap();
        assert!(
            gpu.kernel_duration("mvt_x1", nd).unwrap() < cpu.kernel_duration("mvt_x1", nd).unwrap()
        );
        assert!(
            cpu.kernel_duration("mvt_x2", nd).unwrap() < gpu.kernel_duration("mvt_x2", nd).unwrap()
        );
    }
}
