//! BATCHMM (extension): `G = Σᵢ Aᵢ·Bᵢ` over [`CHAINS`] independent matrix
//! products feeding one elementwise reduction.
//!
//! Not part of the paper's six-benchmark suite — this is the kernel-graph
//! scheduling workload: the products share no buffers, so the dependence
//! DAG is a [`CHAINS`]-wide fan-in and a graph-scheduling runtime may run
//! sibling products on different devices concurrently, while the final sum
//! carries a true dependence on every product. A serial runtime executes
//! the same five launches back to back; both orders produce bit-identical
//! results.
//!
//! BATCHMM is exposed through [`spec`] only — it is deliberately **not**
//! registered in [`crate::all_benchmarks`], so pre-existing sweep outputs
//! keep their exact row set.

use fluidicl_hetsim::KernelProfile;
use fluidicl_vcl::{
    AccessPattern, ArgRole, ArgSpec, ClDriver, ClResult, KernelArg, KernelDef, NdRange, Program,
};

use crate::data::gen_matrix;
use crate::group::matmul;
use crate::spec::BenchmarkSpec;

/// Default (scaled) problem size (matrix edge).
pub const DEFAULT_N: usize = 128;
/// 2-D work-group edge.
pub const WG: usize = 8;
/// Number of independent product chains feeding the reduction.
pub const CHAINS: usize = 4;

fn mul_profile(n: usize) -> KernelProfile {
    KernelProfile::new("batchmm_mul")
        .flops_per_item(2.0 * n as f64)
        .bytes_read_per_item(8.0 * n as f64)
        .bytes_written_per_item(4.0)
        .inner_loop_trips(n as u32)
        .gpu_coalescing(0.9 / (1.0 + (n as f64 / 520.0).powf(1.2)))
        .cpu_cache_locality(0.8)
        .cpu_simd_friendliness(0.85)
}

fn sum_profile() -> KernelProfile {
    KernelProfile::new("batchmm_sum")
        .flops_per_item(CHAINS as f64)
        .bytes_read_per_item(4.0 * CHAINS as f64)
        .bytes_written_per_item(4.0)
        .cpu_cache_locality(0.95)
        .cpu_simd_friendliness(0.95)
}

/// Builds the BATCHMM program for problem size `n`.
pub fn program(n: usize) -> Program {
    let mut p = Program::new();
    p.register(
        KernelDef::new(
            "batchmm_mul",
            vec![
                ArgSpec::new("a", ArgRole::In).with_access(AccessPattern::Row {
                    dim: 1,
                    width_scalar: 0,
                }),
                ArgSpec::new("b", ArgRole::In).with_access(AccessPattern::Col {
                    dim: 0,
                    width_scalar: 0,
                }),
                ArgSpec::new("e", ArgRole::Out).with_access(AccessPattern::Element),
                ArgSpec::new("n", ArgRole::Scalar),
            ],
            mul_profile(n),
            |item, scalars, ins, outs| {
                let n = scalars.usize(0);
                let i = item.global[1];
                let j = item.global[0];
                let a = ins.get(0);
                let b = ins.get(1);
                let mut acc = 0.0f32;
                for k in 0..n {
                    acc += a[i * n + k] * b[k * n + j];
                }
                outs.at(0)[i * n + j] = acc;
            },
        )
        .with_group_body(|nd, groups, scalars, ins, outs| {
            let n = scalars.usize(0);
            let e = outs.at(0);
            for (rows, cols) in nd.row_spans(groups) {
                matmul(ins.get(0), ins.get(1), n, rows, cols, |i, j, acc| {
                    e[i * n + j] = acc;
                });
            }
        }),
    );
    p.register(
        KernelDef::new(
            "batchmm_sum",
            vec![
                ArgSpec::new("e0", ArgRole::In).with_access(AccessPattern::Element),
                ArgSpec::new("e1", ArgRole::In).with_access(AccessPattern::Element),
                ArgSpec::new("e2", ArgRole::In).with_access(AccessPattern::Element),
                ArgSpec::new("e3", ArgRole::In).with_access(AccessPattern::Element),
                ArgSpec::new("g", ArgRole::Out).with_access(AccessPattern::Element),
            ],
            sum_profile(),
            |item, _, ins, outs| {
                let at = item.global_linear();
                outs.at(0)[at] = ins.get(0)[at] + ins.get(1)[at] + ins.get(2)[at] + ins.get(3)[at];
            },
        )
        .with_group_body(|nd, groups, _, ins, outs| {
            let n = nd.global()[0];
            let (e0, e1, e2, e3) = (ins.get(0), ins.get(1), ins.get(2), ins.get(3));
            let g = outs.at(0);
            for (rows, cols) in nd.row_spans(groups) {
                for i in rows {
                    let span = i * n + cols.start..i * n + cols.end;
                    let terms = e0[span.clone()]
                        .iter()
                        .zip(&e1[span.clone()])
                        .zip(&e2[span.clone()])
                        .zip(&e3[span.clone()]);
                    for (x, (((&a, &b), &c), &d)) in g[span].iter_mut().zip(terms) {
                        *x = a + b + c + d;
                    }
                }
            }
        }),
    );
    p
}

/// Runs BATCHMM on `driver`, returning `[g]`.
///
/// # Errors
///
/// Propagates driver errors.
pub fn run(driver: &mut dyn ClDriver, n: usize, seed: u64) -> ClResult<Vec<Vec<f32>>> {
    let nd = NdRange::d2(n, n, WG, WG)?;
    // Per chain: the `a`, `b` and `e` buffers, and the two inputs, which
    // are handed to the driver in chain order once every buffer exists.
    let mut chains = Vec::with_capacity(CHAINS);
    let mut inputs = Vec::with_capacity(2 * CHAINS);
    for c in 0..CHAINS as u64 {
        let a = gen_matrix(n, n, seed.wrapping_add(2 * c));
        let b = gen_matrix(n, n, seed.wrapping_add(2 * c + 1));
        let a_buf = driver.create_buffer(n * n);
        let b_buf = driver.create_buffer(n * n);
        let e_buf = driver.create_buffer(n * n);
        inputs.extend([(a_buf, a), (b_buf, b)]);
        chains.push([a_buf, b_buf, e_buf]);
    }
    let g_buf = driver.create_buffer(n * n);
    for (buf, data) in inputs {
        driver.write_buffer_owned(buf, data)?;
    }
    for &[a_buf, b_buf, e_buf] in &chains {
        driver.enqueue_kernel(
            "batchmm_mul",
            nd,
            &[
                KernelArg::Buffer(a_buf),
                KernelArg::Buffer(b_buf),
                KernelArg::Buffer(e_buf),
                KernelArg::Usize(n),
            ],
        )?;
    }
    let sum_args: Vec<KernelArg> = chains
        .iter()
        .map(|&[_, _, e_buf]| KernelArg::Buffer(e_buf))
        .chain([KernelArg::Buffer(g_buf)])
        .collect();
    driver.enqueue_kernel("batchmm_sum", nd, &sum_args)?;
    Ok(vec![driver.read_buffer(g_buf)?])
}

/// Sequential reference.
pub fn reference(n: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut g = vec![0.0f32; n * n];
    for c in 0..CHAINS as u64 {
        let a = gen_matrix(n, n, seed.wrapping_add(2 * c));
        let b = gen_matrix(n, n, seed.wrapping_add(2 * c + 1));
        matmul(&a, &b, n, 0..n, 0..n, |i, j, acc| g[i * n + j] += acc);
    }
    vec![g]
}

/// Work-group counts per kernel.
pub fn workgroups(n: usize) -> Vec<u64> {
    let wgs = ((n / WG) * (n / WG)) as u64;
    vec![wgs; CHAINS + 1]
}

/// The BATCHMM spec handle (standalone — not in the sweep registries).
pub fn spec() -> BenchmarkSpec {
    BenchmarkSpec {
        name: "BATCHMM",
        default_n: DEFAULT_N,
        kernel_count: CHAINS + 1,
        program,
        run,
        reference,
        workgroups,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluidicl_hetsim::MachineConfig;
    use fluidicl_vcl::{DeviceKind, SingleDeviceRuntime};

    #[test]
    fn matches_reference_on_both_devices() {
        let n = 32;
        for device in [DeviceKind::Cpu, DeviceKind::Gpu] {
            let mut rt =
                SingleDeviceRuntime::new(MachineConfig::paper_testbed(), device, program(n));
            assert_eq!(run(&mut rt, n, 29).unwrap(), reference(n, 29));
        }
    }

    #[test]
    fn reduction_sums_independent_products() {
        // The reference of the summed batch equals the sum of 1-chain
        // references computed by hand on a tiny size.
        let n = 8;
        let got = &reference(n, 7)[0];
        let mut want = vec![0.0f32; n * n];
        for c in 0..CHAINS as u64 {
            let a = gen_matrix(n, n, 7u64.wrapping_add(2 * c));
            let b = gen_matrix(n, n, 7u64.wrapping_add(2 * c + 1));
            for i in 0..n {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for k in 0..n {
                        acc += a[i * n + k] * b[k * n + j];
                    }
                    want[i * n + j] += acc;
                }
            }
        }
        assert_eq!(got, &want);
        assert_eq!(workgroups(DEFAULT_N).len(), CHAINS + 1);
        assert_eq!(spec().kernel_count, CHAINS + 1);
    }
}
