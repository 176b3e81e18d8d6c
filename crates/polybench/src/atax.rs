//! ATAX: `y = Aᵀ(Ax)` — two kernels, both strongly GPU-friendly.
//!
//! In the paper's evaluation ATAX runs best on the GPU alone (Figure 2's
//! monotone curve); FluidiCL must track GPU-only performance within a few
//! percent, losing only the one-time scratch-buffer creation cost (§9.1).

use fluidicl_hetsim::KernelProfile;
use fluidicl_vcl::{
    AccessPattern, ArgRole, ArgSpec, ClDriver, ClResult, KernelArg, KernelDef, NdRange, Program,
};

use crate::data::{gen_matrix, gen_vector};
use crate::group::{column_dots, row_dots};

/// Default (scaled) problem size: the paper uses 8672²; we scale down so
/// functional execution stays fast while the cost models keep the paper's
/// large-input behaviour.
pub const DEFAULT_N: usize = 4096;
/// 1-D work-group size.
pub const WG: usize = 16;

fn profile_k1(n: usize) -> KernelProfile {
    KernelProfile::new("atax_k1")
        .flops_per_item(2.0 * n as f64)
        .bytes_read_per_item(4.0 * n as f64)
        .bytes_written_per_item(4.0)
        .inner_loop_trips(n as u32)
        .gpu_coalescing(0.92)
        .cpu_cache_locality(0.35)
        .cpu_simd_friendliness(0.45)
}

fn profile_k2(n: usize) -> KernelProfile {
    // Column-major walk: still fine on the GPU (texture-like reuse across
    // the wave) but cache-hostile on the CPU.
    KernelProfile::new("atax_k2")
        .flops_per_item(2.0 * n as f64)
        .bytes_read_per_item(4.0 * n as f64)
        .bytes_written_per_item(4.0)
        .inner_loop_trips(n as u32)
        .gpu_coalescing(0.9)
        .cpu_cache_locality(0.15)
        .cpu_simd_friendliness(0.3)
}

/// Builds the ATAX program for problem size `n`.
pub fn program(n: usize) -> Program {
    let mut p = Program::new();
    p.register(
        KernelDef::new(
            "atax_k1",
            vec![
                ArgSpec::new("a", ArgRole::In).with_access(AccessPattern::Row {
                    dim: 0,
                    width_scalar: 0,
                }),
                ArgSpec::new("x", ArgRole::In).with_access(AccessPattern::WholeBuffer),
                ArgSpec::new("tmp", ArgRole::Out).with_access(AccessPattern::Element),
                ArgSpec::new("n", ArgRole::Scalar),
            ],
            profile_k1(n),
            |item, scalars, ins, outs| {
                let n = scalars.usize(0);
                let i = item.global[0];
                let a = ins.get(0);
                let x = ins.get(1);
                let mut acc = 0.0f32;
                for j in 0..n {
                    acc += a[i * n + j] * x[j];
                }
                outs.at(0)[i] = acc;
            },
        )
        .with_group_body(|nd, groups, scalars, ins, outs| {
            let tmp = outs.at(0);
            let rows = nd.range_items(groups);
            row_dots::<1, 8>(
                [ins.get(0)],
                ins.get(1),
                scalars.usize(0),
                rows,
                |i, [acc]| {
                    tmp[i] = acc;
                },
            );
        }),
    );
    p.register(
        KernelDef::new(
            "atax_k2",
            vec![
                ArgSpec::new("a", ArgRole::In).with_access(AccessPattern::Col {
                    dim: 0,
                    width_scalar: 0,
                }),
                ArgSpec::new("tmp", ArgRole::In).with_access(AccessPattern::WholeBuffer),
                ArgSpec::new("y", ArgRole::Out).with_access(AccessPattern::Element),
                ArgSpec::new("n", ArgRole::Scalar),
            ],
            profile_k2(n),
            |item, scalars, ins, outs| {
                let n = scalars.usize(0);
                let j = item.global[0];
                let a = ins.get(0);
                let tmp = ins.get(1);
                let mut acc = 0.0f32;
                for i in 0..n {
                    acc += a[i * n + j] * tmp[i];
                }
                outs.at(0)[j] = acc;
            },
        )
        .with_group_body(|nd, groups, scalars, ins, outs| {
            let y = outs.at(0);
            let cols = nd.range_items(groups);
            column_dots(ins.get(0), ins.get(1), scalars.usize(0), cols, |j, acc| {
                y[j] = acc;
            });
        }),
    );
    p
}

/// Runs ATAX on `driver` and returns the output buffers (`[y]`).
///
/// # Errors
///
/// Propagates driver errors.
pub fn run(driver: &mut dyn ClDriver, n: usize, seed: u64) -> ClResult<Vec<Vec<f32>>> {
    let a = gen_matrix(n, n, seed);
    let x = gen_vector(n, seed.wrapping_add(1));
    let a_buf = driver.create_buffer(n * n);
    let x_buf = driver.create_buffer(n);
    let tmp_buf = driver.create_buffer(n);
    let y_buf = driver.create_buffer(n);
    driver.write_buffer_owned(a_buf, a)?;
    driver.write_buffer_owned(x_buf, x)?;
    let nd = NdRange::d1(n, WG)?;
    driver.enqueue_kernel(
        "atax_k1",
        nd,
        &[
            KernelArg::Buffer(a_buf),
            KernelArg::Buffer(x_buf),
            KernelArg::Buffer(tmp_buf),
            KernelArg::Usize(n),
        ],
    )?;
    driver.enqueue_kernel(
        "atax_k2",
        nd,
        &[
            KernelArg::Buffer(a_buf),
            KernelArg::Buffer(tmp_buf),
            KernelArg::Buffer(y_buf),
            KernelArg::Usize(n),
        ],
    )?;
    Ok(vec![driver.read_buffer(y_buf)?])
}

/// Sequential reference implementation (same accumulation order as the
/// kernels, so results match bit for bit).
pub fn reference(n: usize, seed: u64) -> Vec<Vec<f32>> {
    let a = gen_matrix(n, n, seed);
    let x = gen_vector(n, seed.wrapping_add(1));
    let mut tmp = vec![0.0f32; n];
    for i in 0..n {
        let mut acc = 0.0f32;
        for j in 0..n {
            acc += a[i * n + j] * x[j];
        }
        tmp[i] = acc;
    }
    // Row-major walk: every y[j] still adds its terms in `i` order.
    let mut y = vec![0.0f32; n];
    for (i, &t) in tmp.iter().enumerate() {
        for (yj, &aij) in y.iter_mut().zip(&a[i * n..i * n + n]) {
            *yj += aij * t;
        }
    }
    vec![y]
}

/// Work-group counts per kernel for problem size `n` (Table 2 reporting).
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
            let got = run(&mut rt, n, 11).unwrap();
            assert_eq!(got, reference(n, 11), "device {device:?}");
        }
    }

    #[test]
    fn workgroup_counts() {
        assert_eq!(workgroups(4096), vec![256, 256]);
    }
}
