//! CORR: Pearson correlation matrix — four kernels of very different
//! shapes (tiny column reductions, an element-wise normalisation, and a
//! heavy triangular correlation kernel).
//!
//! CORR is the paper's online-profiling showcase (Table 3): the baseline
//! correlation kernel is GPU-oriented and cache-hostile on the CPU; a
//! loop-interchanged alternative makes the CPU competitive, and FluidiCL's
//! online profiling (§6.6) finds it without user intervention.

use std::ops::Range;

use fluidicl_hetsim::KernelProfile;
use fluidicl_vcl::{
    AccessPattern, ArgRole, ArgSpec, ClDriver, ClResult, KernelArg, KernelDef, NdRange, Program,
    Scalars, WorkItem,
};

use crate::data::gen_positive;
use crate::group::{accumulate, blocks, column_sums};

/// Default (scaled) problem size (paper: 2048²).
pub const DEFAULT_N: usize = 576;
/// Work-group size of the 1-D reduction kernels.
pub const WG_1D: usize = 32;
/// Work-group edge of the 2-D centering kernel.
pub const WG_2D: usize = 16;
/// Work-group size of the triangular correlation kernel.
pub const WG_CORR: usize = 2;

const EPS: f32 = 0.005;

fn profile_mean(n: usize) -> KernelProfile {
    KernelProfile::new("corr_mean")
        .flops_per_item(n as f64 + 1.0)
        .bytes_read_per_item(4.0 * n as f64)
        .bytes_written_per_item(4.0)
        .inner_loop_trips(n as u32)
        .gpu_coalescing(0.95)
        .cpu_cache_locality(0.3)
        .cpu_simd_friendliness(0.5)
}

fn profile_std(n: usize) -> KernelProfile {
    KernelProfile::new("corr_std")
        .flops_per_item(3.0 * n as f64 + 4.0)
        .bytes_read_per_item(4.0 * n as f64)
        .bytes_written_per_item(4.0)
        .inner_loop_trips(n as u32)
        .gpu_coalescing(0.95)
        .cpu_cache_locality(0.3)
        .cpu_simd_friendliness(0.5)
}

fn profile_center(_n: usize) -> KernelProfile {
    KernelProfile::new("corr_center")
        .flops_per_item(3.0)
        .bytes_read_per_item(12.0)
        .bytes_written_per_item(4.0)
        .gpu_coalescing(1.0)
        .cpu_cache_locality(0.95)
        .cpu_simd_friendliness(0.95)
}

fn profile_corr_base(n: usize) -> KernelProfile {
    // Naive GPU-oriented version: the k-loop walks columns, which the GPU
    // coalesces across the warp but the CPU cache hates.
    KernelProfile::new("corr_corr")
        .flops_per_item((n as f64) * (n as f64))
        .bytes_read_per_item(4.0 * (n as f64) * (n as f64))
        .bytes_written_per_item(4.0 * n as f64)
        .inner_loop_trips(n as u32)
        .gpu_coalescing(0.8)
        .gpu_divergence(0.3)
        .cpu_cache_locality(0.05)
        .cpu_simd_friendliness(0.1)
}

fn profile_corr_interchanged(n: usize) -> KernelProfile {
    // The hand-written CPU alternative of paper Table 3: loops interchanged
    // for cache locality. Identical semantics, far better CPU behaviour.
    KernelProfile::new("corr_corr_interchanged")
        .flops_per_item((n as f64) * (n as f64))
        // Loop interchange enables cache blocking: each matrix element is
        // loaded once per block instead of once per j2, cutting DRAM
        // traffic by ~4x on top of the improved access pattern.
        .bytes_read_per_item((n as f64) * (n as f64))
        .bytes_written_per_item(4.0 * n as f64)
        .inner_loop_trips(n as u32)
        .gpu_coalescing(0.2)
        .gpu_divergence(0.3)
        .cpu_cache_locality(0.95)
        .cpu_simd_friendliness(0.9)
}

fn corr_body(
    item: &WorkItem,
    scalars: &Scalars,
    ins: &fluidicl_vcl::Inputs<'_>,
    outs: &mut fluidicl_vcl::Outputs<'_>,
) {
    let n = scalars.usize(0);
    let j1 = item.global[0];
    let data = ins.get(0);
    let symmat = outs.at(0);
    symmat[j1 * n + j1] = 1.0;
    for j2 in (j1 + 1)..n {
        let mut acc = 0.0f32;
        for k in 0..n {
            acc += data[k * n + j1] * data[k * n + j2];
        }
        symmat[j1 * n + j2] = acc;
        symmat[j2 * n + j1] = acc;
    }
}

/// `j1` items per tile of the group body.
const CORR_ROWS: usize = 4;
/// `j2` accumulators per item of a tile.
const CORR_BLOCK: usize = 16;

/// Group body of both `corr_corr` versions: the range's items in tiles of
/// [`CORR_ROWS`] `j1`, each tile sweeping blocks of [`CORR_BLOCK`] `j2`
/// with `k` outer, so each step reads one row segment of `data` for four
/// items instead of two column elements per pair. The blocks start at the
/// tile's first `j1 + 1`; the pairs with `j2 ≤ j1` that the later items
/// compute there are dropped, never stored, and lanes past a short tile's
/// end repeat its last item. Each pair still sums over `k` in order, so
/// the stored bits match `corr_body`.
fn corr_group(
    nd: &NdRange,
    groups: Range<u64>,
    scalars: &Scalars,
    ins: &fluidicl_vcl::Inputs<'_>,
    outs: &mut fluidicl_vcl::Outputs<'_>,
) {
    let n = scalars.usize(0);
    let data = ins.get(0);
    let symmat = outs.at(0);
    for tile in blocks::<CORR_ROWS>(nd.range_items(groups)) {
        let j1s: [usize; CORR_ROWS] = std::array::from_fn(|r| (tile.start + r).min(tile.end - 1));
        for j1 in tile.clone() {
            symmat[j1 * n + j1] = 1.0;
        }
        for blk in blocks::<CORR_BLOCK>(tile.start + 1..n) {
            let mut acc = [[0.0f32; CORR_BLOCK]; CORR_ROWS];
            for row in data[..n * n].chunks_exact(n) {
                let seg = &row[blk.clone()];
                for (acc, &j1) in acc.iter_mut().zip(&j1s) {
                    let x = row[j1];
                    accumulate(acc, seg, |y| x * y);
                }
            }
            for (j1, acc) in tile.clone().zip(&acc) {
                for (j2, &s) in blk.clone().zip(acc).filter(|&(j2, _)| j2 > j1) {
                    symmat[j1 * n + j2] = s;
                    symmat[j2 * n + j1] = s;
                }
            }
        }
    }
}

/// Write footprint of `corr_corr` on `symmat` for work-groups
/// `[from, to)`. Item j1 owns the tail of row j1 (the diagonal onward)
/// plus the mirrored cells `symmat[j2][j1]` below it — exactly what
/// `corr_body` writes. For the items `[a, b)` of a slice that is one row
/// tail per item plus, in each row j2, the column segment
/// `[a, min(b, j2))`: O(n) ranges, not one per mirrored cell.
fn symmat_footprint(
    nd: &NdRange,
    scalars: &Scalars,
    _len: usize,
    from: u64,
    to: u64,
) -> Vec<(usize, usize)> {
    debug_assert_eq!(nd.dims(), 1, "corr_corr is launched 1-D");
    let n = scalars.usize(0);
    let l = nd.local()[0];
    let (a, b) = (from as usize * l, to as usize * l);
    let tails = (a..b).map(|j1| (j1 * n + j1, j1 * n + n));
    let mirrored = (a + 1..n).map(|j2| (j2 * n + a, j2 * n + b.min(j2)));
    tails.chain(mirrored).collect()
}

/// Builds the CORR program for problem size `n`. The correlation kernel
/// carries the loop-interchanged alternate version for online profiling.
pub fn program(n: usize) -> Program {
    let mut p = Program::new();
    p.register(
        KernelDef::new(
            "corr_mean",
            vec![
                ArgSpec::new("data", ArgRole::In).with_access(AccessPattern::Col {
                    dim: 0,
                    width_scalar: 0,
                }),
                ArgSpec::new("mean", ArgRole::Out).with_access(AccessPattern::Element),
                ArgSpec::new("n", ArgRole::Scalar),
            ],
            profile_mean(n),
            |item, scalars, ins, outs| {
                let n = scalars.usize(0);
                let j = item.global[0];
                let data = ins.get(0);
                let mut acc = 0.0f32;
                for i in 0..n {
                    acc += data[i * n + j];
                }
                outs.at(0)[j] = acc / n as f32;
            },
        )
        .with_group_body(|nd, groups, scalars, ins, outs| {
            let n = scalars.usize(0);
            let mean = outs.at(0);
            column_sums(
                ins.get(0),
                n,
                nd.range_items(groups),
                |x, _| x,
                |j, s| {
                    mean[j] = s / n as f32;
                },
            );
        }),
    );
    p.register(
        KernelDef::new(
            "corr_std",
            vec![
                ArgSpec::new("data", ArgRole::In).with_access(AccessPattern::Col {
                    dim: 0,
                    width_scalar: 0,
                }),
                ArgSpec::new("mean", ArgRole::In).with_access(AccessPattern::Element),
                ArgSpec::new("std", ArgRole::Out).with_access(AccessPattern::Element),
                ArgSpec::new("n", ArgRole::Scalar),
            ],
            profile_std(n),
            |item, scalars, ins, outs| {
                let n = scalars.usize(0);
                let j = item.global[0];
                let data = ins.get(0);
                let mean = ins.get(1);
                let mut acc = 0.0f32;
                for i in 0..n {
                    let d = data[i * n + j] - mean[j];
                    acc += d * d;
                }
                let sd = (acc / n as f32).sqrt();
                outs.at(0)[j] = if sd <= EPS { 1.0 } else { sd };
            },
        )
        .with_group_body(|nd, groups, scalars, ins, outs| {
            let n = scalars.usize(0);
            let mean = ins.get(1);
            let std = outs.at(0);
            let square = |x: f32, j: usize| {
                let d = x - mean[j];
                d * d
            };
            column_sums(ins.get(0), n, nd.range_items(groups), square, |j, s| {
                let sd = (s / n as f32).sqrt();
                std[j] = if sd <= EPS { 1.0 } else { sd };
            });
        }),
    );
    p.register(
        KernelDef::new(
            "corr_center",
            vec![
                ArgSpec::new("mean", ArgRole::In).with_access(AccessPattern::WholeBuffer),
                ArgSpec::new("std", ArgRole::In).with_access(AccessPattern::WholeBuffer),
                ArgSpec::new("data", ArgRole::InOut).with_access(AccessPattern::Element),
                ArgSpec::new("n", ArgRole::Scalar),
            ],
            profile_center(n),
            |item, scalars, ins, outs| {
                let n = scalars.usize(0);
                let j = item.global[0];
                let i = item.global[1];
                let mean = ins.get(0);
                let std = ins.get(1);
                let data = outs.at(0);
                data[i * n + j] = (data[i * n + j] - mean[j]) / ((n as f32).sqrt() * std[j]);
            },
        )
        .with_group_body(|nd, groups, scalars, ins, outs| {
            let n = scalars.usize(0);
            let (mean, std) = (ins.get(0), ins.get(1));
            let data = outs.at(0);
            for (rows, cols) in nd.row_spans(groups) {
                let (mean, std) = (&mean[cols.clone()], &std[cols.clone()]);
                for i in rows {
                    let row = &mut data[i * n + cols.start..i * n + cols.end];
                    for ((x, &m), &s) in row.iter_mut().zip(mean).zip(std) {
                        *x = (*x - m) / ((n as f32).sqrt() * s);
                    }
                }
            }
        }),
    );
    p.register(
        KernelDef::new(
            "corr_corr",
            vec![
                ArgSpec::new("data", ArgRole::In).with_access(AccessPattern::WholeBuffer),
                ArgSpec::new("symmat", ArgRole::Out)
                    .with_access(AccessPattern::custom(symmat_footprint)),
                ArgSpec::new("n", ArgRole::Scalar),
            ],
            profile_corr_base(n),
            corr_body,
        )
        .with_group_body(corr_group)
        .with_version("loop-interchanged", profile_corr_interchanged(n), corr_body)
        .with_group_body(corr_group),
    );
    p
}

/// Runs CORR on `driver`, returning `[symmat]`.
///
/// # Errors
///
/// Propagates driver errors.
pub fn run(driver: &mut dyn ClDriver, n: usize, seed: u64) -> ClResult<Vec<Vec<f32>>> {
    let data = gen_positive(n * n, seed);
    let data_buf = driver.create_buffer(n * n);
    let mean_buf = driver.create_buffer(n);
    let std_buf = driver.create_buffer(n);
    let symmat_buf = driver.create_buffer(n * n);
    driver.write_buffer_owned(data_buf, data)?;
    let nd1 = NdRange::d1(n, WG_1D)?;
    driver.enqueue_kernel(
        "corr_mean",
        nd1,
        &[
            KernelArg::Buffer(data_buf),
            KernelArg::Buffer(mean_buf),
            KernelArg::Usize(n),
        ],
    )?;
    driver.enqueue_kernel(
        "corr_std",
        nd1,
        &[
            KernelArg::Buffer(data_buf),
            KernelArg::Buffer(mean_buf),
            KernelArg::Buffer(std_buf),
            KernelArg::Usize(n),
        ],
    )?;
    driver.enqueue_kernel(
        "corr_center",
        NdRange::d2(n, n, WG_2D, WG_2D)?,
        &[
            KernelArg::Buffer(mean_buf),
            KernelArg::Buffer(std_buf),
            KernelArg::Buffer(data_buf),
            KernelArg::Usize(n),
        ],
    )?;
    driver.enqueue_kernel(
        "corr_corr",
        NdRange::d1(n, WG_CORR)?,
        &[
            KernelArg::Buffer(data_buf),
            KernelArg::Buffer(symmat_buf),
            KernelArg::Usize(n),
        ],
    )?;
    Ok(vec![driver.read_buffer(symmat_buf)?])
}

/// Sequential reference.
pub fn reference(n: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut data = gen_positive(n * n, seed);
    let nf = n as f32;
    // Row-major walks throughout: every column sum still adds its terms in
    // row order, as the kernels do.
    let mut mean = vec![0.0f32; n];
    for row in data.chunks_exact(n) {
        for (m, &x) in mean.iter_mut().zip(row) {
            *m += x;
        }
    }
    for m in &mut mean {
        *m /= nf;
    }
    let mut std = vec![0.0f32; n];
    for row in data.chunks_exact(n) {
        for ((s, &x), &m) in std.iter_mut().zip(row).zip(&mean) {
            let d = x - m;
            *s += d * d;
        }
    }
    for s in &mut std {
        let sd = (*s / nf).sqrt();
        *s = if sd <= EPS { 1.0 } else { sd };
    }
    for i in 0..n {
        for j in 0..n {
            data[i * n + j] = (data[i * n + j] - mean[j]) / (nf.sqrt() * std[j]);
        }
    }
    let mut symmat = vec![0.0f32; n * n];
    let mut sums = vec![0.0f32; n];
    for j1 in 0..n {
        symmat[j1 * n + j1] = 1.0;
        let sums = &mut sums[j1 + 1..];
        sums.fill(0.0);
        for row in data.chunks_exact(n) {
            let x = row[j1];
            for (s, &y) in sums.iter_mut().zip(&row[j1 + 1..]) {
                *s += x * y;
            }
        }
        for (j2, &s) in (j1 + 1..n).zip(sums.iter()) {
            symmat[j1 * n + j2] = s;
            symmat[j2 * n + j1] = s;
        }
    }
    vec![symmat]
}

/// Work-group counts per kernel.
pub fn workgroups(n: usize) -> Vec<u64> {
    vec![
        (n / WG_1D) as u64,
        (n / WG_1D) as u64,
        ((n / WG_2D) * (n / WG_2D)) as u64,
        (n / WG_CORR) as u64,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluidicl_des::SplitMix64;
    use fluidicl_hetsim::MachineConfig;
    use fluidicl_vcl::{BufferId, DeviceKind, DirtyRanges, SingleDeviceRuntime};

    #[test]
    fn matches_reference_on_both_devices() {
        let n = 64;
        for device in [DeviceKind::Cpu, DeviceKind::Gpu] {
            let mut rt =
                SingleDeviceRuntime::new(MachineConfig::paper_testbed(), device, program(n));
            assert_eq!(run(&mut rt, n, 17).unwrap(), reference(n, 17));
        }
    }

    #[test]
    fn has_four_kernels_with_alternate_version() {
        let p = program(DEFAULT_N);
        assert_eq!(p.len(), 4);
        let corr = p.kernel("corr_corr").unwrap();
        assert_eq!(corr.versions().len(), 2);
        assert_eq!(corr.versions()[1].label, "loop-interchanged");
    }

    #[test]
    fn interchange_improves_cpu_profile() {
        let base = profile_corr_base(256);
        let alt = profile_corr_interchanged(256);
        assert!(alt.cache_locality() > base.cache_locality());
    }

    #[test]
    fn workgroup_shape() {
        assert_eq!(workgroups(256), vec![8, 8, 256, 128]);
    }

    /// The range-level `symmat` footprint equals the per-item rule it
    /// replaced — item j1 writes `[j1*n + j1, j1*n + n)` and every
    /// `j2*n + j1` with `j2 > j1` — over random sizes, work-group sizes,
    /// slices and buffer lengths (short buffers clip).
    #[test]
    fn symmat_footprint_matches_the_per_item_rule() {
        let mut rng = SplitMix64::new(0x0C0_4417);
        for case in 0..1000 {
            let l = rng.range_usize(1, 5);
            let n = l * rng.range_usize(1, 12);
            let nd = NdRange::d1(n, l).unwrap();
            let total = nd.num_groups();
            let from = rng.range_u64(0, total + 1);
            let to = rng.range_u64(from, total + 1);
            let len = rng.range_usize(0, 2 * n * n + 2);
            let def = program(n).kernel("corr_corr").unwrap();
            let (_, _, scalars) = def
                .classify_args(&[
                    KernelArg::Buffer(BufferId(0)),
                    KernelArg::Buffer(BufferId(1)),
                    KernelArg::Usize(n),
                ])
                .unwrap();
            let declared = def
                .write_footprints(&nd, &scalars, &[len], from, to)
                .unwrap();
            let mut per_item = Vec::new();
            for j1 in from as usize * l..to as usize * l {
                per_item.push((j1 * n + j1, j1 * n + n));
                for j2 in (j1 + 1)..n {
                    per_item.push((j2 * n + j1, j2 * n + j1 + 1));
                }
            }
            let oracle =
                DirtyRanges::from_ranges(per_item.into_iter().map(|(s, e)| (s, e.min(len))));
            assert_eq!(
                declared[0], oracle,
                "case {case}: n={n}, l={l}, groups {from}..{to}, len={len}"
            );
        }
    }
}
