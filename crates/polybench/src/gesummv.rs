//! GESUMMV: `y = α·A·x + β·B·x` in a single kernel.
//!
//! The paper's CPU-favoured benchmark: one kernel with only a handful of
//! long-running work-groups, which under-utilises the GPU's wave width and
//! is exactly the case CPU work-group splitting (§6.3) targets. GESUMMV is
//! also where large initial chunk sizes pay off (Figure 17's outlier).

use fluidicl_hetsim::KernelProfile;
use fluidicl_vcl::{
    AccessPattern, ArgRole, ArgSpec, ClDriver, ClResult, KernelArg, KernelDef, NdRange, Program,
};

use crate::data::{gen_matrix, gen_vector};
use crate::group::row_dots;

/// Default (scaled) problem size (paper: 4096 rows).
pub const DEFAULT_N: usize = 2048;
/// 1-D work-group size: large groups → few work-groups (paper Table 2
/// reports 8 work-groups for GESUMMV).
pub const WG: usize = 256;

const ALPHA: f32 = 1.5;
const BETA: f32 = 2.5;

fn profile(n: usize) -> KernelProfile {
    KernelProfile::new("gesummv")
        .flops_per_item(4.0 * n as f64)
        .bytes_read_per_item(8.0 * n as f64)
        .bytes_written_per_item(4.0)
        .inner_loop_trips(n as u32)
        .gpu_coalescing(0.15)
        .cpu_cache_locality(0.9)
        .cpu_simd_friendliness(0.85)
}

/// Builds the GESUMMV program for problem size `n`.
pub fn program(n: usize) -> Program {
    let mut p = Program::new();
    p.register(
        KernelDef::new(
            "gesummv",
            vec![
                ArgSpec::new("a", ArgRole::In).with_access(AccessPattern::Row {
                    dim: 0,
                    width_scalar: 2,
                }),
                ArgSpec::new("b", ArgRole::In).with_access(AccessPattern::Row {
                    dim: 0,
                    width_scalar: 2,
                }),
                ArgSpec::new("x", ArgRole::In).with_access(AccessPattern::WholeBuffer),
                ArgSpec::new("y", ArgRole::Out).with_access(AccessPattern::Element),
                ArgSpec::new("alpha", ArgRole::Scalar),
                ArgSpec::new("beta", ArgRole::Scalar),
                ArgSpec::new("n", ArgRole::Scalar),
            ],
            profile(n),
            |item, scalars, ins, outs| {
                let alpha = scalars.f32(0);
                let beta = scalars.f32(1);
                let n = scalars.usize(2);
                let i = item.global[0];
                let a = ins.get(0);
                let b = ins.get(1);
                let x = ins.get(2);
                let mut acc_a = 0.0f32;
                let mut acc_b = 0.0f32;
                for j in 0..n {
                    acc_a += a[i * n + j] * x[j];
                    acc_b += b[i * n + j] * x[j];
                }
                outs.at(0)[i] = alpha * acc_a + beta * acc_b;
            },
        )
        .with_group_body(|nd, groups, scalars, ins, outs| {
            let alpha = scalars.f32(0);
            let beta = scalars.f32(1);
            let y = outs.at(0);
            let rows = nd.range_items(groups);
            let mats = [ins.get(0), ins.get(1)];
            row_dots::<2, 4>(
                mats,
                ins.get(2),
                scalars.usize(2),
                rows,
                |i, [acc_a, acc_b]| {
                    y[i] = alpha * acc_a + beta * acc_b;
                },
            );
        }),
    );
    p
}

/// Runs GESUMMV on `driver`, returning `[y]`.
///
/// # Errors
///
/// Propagates driver errors.
pub fn run(driver: &mut dyn ClDriver, n: usize, seed: u64) -> ClResult<Vec<Vec<f32>>> {
    let a = gen_matrix(n, n, seed);
    let b = gen_matrix(n, n, seed.wrapping_add(1));
    let x = gen_vector(n, seed.wrapping_add(2));
    let a_buf = driver.create_buffer(n * n);
    let b_buf = driver.create_buffer(n * n);
    let x_buf = driver.create_buffer(n);
    let y_buf = driver.create_buffer(n);
    driver.write_buffer_owned(a_buf, a)?;
    driver.write_buffer_owned(b_buf, b)?;
    driver.write_buffer_owned(x_buf, x)?;
    driver.enqueue_kernel(
        "gesummv",
        NdRange::d1(n, WG)?,
        &[
            KernelArg::Buffer(a_buf),
            KernelArg::Buffer(b_buf),
            KernelArg::Buffer(x_buf),
            KernelArg::Buffer(y_buf),
            KernelArg::F32(ALPHA),
            KernelArg::F32(BETA),
            KernelArg::Usize(n),
        ],
    )?;
    Ok(vec![driver.read_buffer(y_buf)?])
}

/// Sequential reference.
pub fn reference(n: usize, seed: u64) -> Vec<Vec<f32>> {
    let a = gen_matrix(n, n, seed);
    let b = gen_matrix(n, n, seed.wrapping_add(1));
    let x = gen_vector(n, seed.wrapping_add(2));
    let mut y = vec![0.0f32; n];
    for (i, yi) in y.iter_mut().enumerate() {
        let mut acc_a = 0.0f32;
        let mut acc_b = 0.0f32;
        for j in 0..n {
            acc_a += a[i * n + j] * x[j];
            acc_b += b[i * n + j] * x[j];
        }
        *yi = ALPHA * acc_a + BETA * acc_b;
    }
    vec![y]
}

/// Work-group counts per kernel.
pub fn workgroups(n: usize) -> Vec<u64> {
    vec![(n / WG) as u64]
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluidicl_hetsim::MachineConfig;
    use fluidicl_vcl::{DeviceKind, SingleDeviceRuntime};

    #[test]
    fn matches_reference_on_both_devices() {
        let n = 512;
        for device in [DeviceKind::Cpu, DeviceKind::Gpu] {
            let mut rt =
                SingleDeviceRuntime::new(MachineConfig::paper_testbed(), device, program(n));
            assert_eq!(run(&mut rt, n, 5).unwrap(), reference(n, 5));
        }
    }

    #[test]
    fn cpu_is_the_better_single_device() {
        // The paper's GESUMMV runs best on the CPU alone.
        let n = DEFAULT_N;
        let m = MachineConfig::paper_testbed();
        let cpu = SingleDeviceRuntime::new(m.clone(), DeviceKind::Cpu, program(n));
        let gpu = SingleDeviceRuntime::new(m, DeviceKind::Gpu, program(n));
        let nd = NdRange::d1(n, WG).unwrap();
        assert!(
            cpu.kernel_duration("gesummv", nd).unwrap()
                < gpu.kernel_duration("gesummv", nd).unwrap()
        );
    }

    #[test]
    fn few_workgroups() {
        assert_eq!(workgroups(DEFAULT_N), vec![8]);
    }
}
