//! Seeded property test: every group body against its per-item body on
//! random problem sizes, local sizes and work-group ranges.
//!
//! Each case starts from one memory — random inputs and `InOut` buffers,
//! sentinel-poisoned `Out` buffers — runs group range `[a, b)` once through
//! each body (the group body in one call), and compares every buffer bit
//! for bit. Comparing whole buffers, not only the range's elements, makes
//! a write outside the range show as well as a wrong or missing one.

use fluidicl_check::SENTINEL_A;
use fluidicl_des::SplitMix64;
use fluidicl_polybench::{all_benchmarks, pipeline_benchmark};
use fluidicl_vcl::exec::execute_groups;
use fluidicl_vcl::{
    execute_groups_per_item, ArgRole, BufferId, KernelArg, KernelDef, Launch, Memory, NdRange,
    Program,
};

/// Launch dimensions of each kernel that has a group body.
fn dims(kernel: &str) -> usize {
    match kernel {
        "atax_k1" | "atax_k2" | "bicg_q" | "bicg_s" | "mvt_x1" | "mvt_x2" | "gesummv"
        | "corr_corr" | "corr_mean" | "corr_std" => 1,
        "gemm" | "mm2_tmp" | "mm2_d" | "batchmm_mul" | "batchmm_sum" | "syrk" | "syr2k"
        | "corr_center" => 2,
        other => panic!("add the launch dimensions of `{other}` here"),
    }
}

/// Every benchmark's program builder, BATCHMM's included.
fn programs() -> Vec<fn(usize) -> Program> {
    let mut all: Vec<fn(usize) -> Program> = all_benchmarks().iter().map(|b| b.program).collect();
    all.push(pipeline_benchmark().program);
    all
}

/// A launch of version `version` of `kernel` on `nd` with size scalar `n`,
/// over fresh memory: every buffer holds `n²` elements, `Out` buffers
/// carry the sentinel, everything else is random.
fn setup(
    kernel: std::sync::Arc<KernelDef>,
    version: usize,
    nd: NdRange,
    n: usize,
    rng: &mut SplitMix64,
) -> (Launch, Memory) {
    let mut mem = Memory::new();
    let mut args = Vec::new();
    for (id, spec) in kernel.args().iter().enumerate() {
        args.push(match (spec.role, spec.name.as_str()) {
            (ArgRole::Scalar, "n") => KernelArg::Usize(n),
            (ArgRole::Scalar, _) => KernelArg::F32(rng.range_f32(0.5, 2.5)),
            (role, _) => {
                let data: Vec<f32> = if role == ArgRole::Out {
                    vec![SENTINEL_A; n * n]
                } else {
                    (0..n * n).map(|_| rng.range_f32(-1.0, 1.0)).collect()
                };
                mem.install(BufferId(id as u64), data);
                KernelArg::Buffer(BufferId(id as u64))
            }
        });
    }
    let mut launch = Launch::new(kernel, nd, args);
    launch.version = version;
    (launch, mem)
}

/// Runs groups `[a, b)` through both bodies and requires bit-identical
/// memories.
fn assert_bodies_agree(launch: &Launch, mem: &Memory, a: u64, b: u64, case: &str) {
    let mut by_group = mem.clone();
    let mut by_item = mem.clone();
    execute_groups(launch, &mut by_group, a, b).unwrap();
    execute_groups_per_item(launch, &mut by_item, a, b).unwrap();
    for id in by_item.ids() {
        let bits =
            |m: &Memory| -> Vec<u32> { m.get(id).unwrap().iter().map(|v| v.to_bits()).collect() };
        assert!(
            bits(&by_group) == bits(&by_item),
            "{case}: buffer {id:?} differs between the group and per-item bodies"
        );
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[test]
fn group_bodies_match_their_per_item_bodies_on_random_slices() {
    let mut rng = SplitMix64::new(0x06B0_D1E5);
    let mut covered = 0;
    for program in programs() {
        let listing = program(8);
        for name in listing.kernel_names() {
            let def = listing.kernel(name).unwrap();
            for (version, v) in def.versions().iter().enumerate() {
                if v.group_body.is_none() {
                    continue;
                }
                covered += 1;
                for case in 0..40 {
                    let (nd, n) = if dims(name) == 1 {
                        // Every other case has an odd local size, so some
                        // ranges cover a row count that is not a multiple
                        // of the interleaved rows of a row walk.
                        let l = if case % 2 == 0 {
                            2 * rng.range_usize(0, 10) + 1
                        } else {
                            rng.range_usize(1, 21)
                        };
                        let n = l * rng.range_usize(1, 5);
                        (NdRange::d1(n, l).unwrap(), n)
                    } else {
                        let (lx, ly) = (rng.range_usize(1, 11), rng.range_usize(1, 11));
                        let base = lx / gcd(lx, ly) * ly;
                        let n = base * rng.range_usize(1, 48 / base + 2);
                        (NdRange::d2(n, n, lx, ly).unwrap(), n)
                    };
                    let kernel = program(n).kernel(name).unwrap();
                    let (launch, mem) = setup(kernel, version, nd, n, &mut rng);
                    let total = nd.num_groups();
                    let a = rng.range_u64(0, total);
                    let b = rng.range_u64(a + 1, total + 1);
                    let label = format!(
                        "{name} v{version} case {case}: n={n}, local={:?}, groups {a}..{b}",
                        nd.local()
                    );
                    assert_bodies_agree(&launch, &mem, a, b, &label);
                }
            }
        }
    }
    assert_eq!(covered, 19, "every group body is exercised");
}

/// CORR sizes where the last `j2` block of an item is shorter than the
/// eight accumulators (`n - j2 < 8`), including sizes below one block.
#[test]
fn corr_group_body_handles_short_j2_tails() {
    let mut rng = SplitMix64::new(0xC022_7A11);
    let program = fluidicl_polybench::corr::program;
    for (n, l) in [(1, 1), (5, 1), (7, 7), (9, 3), (13, 13), (17, 1), (23, 23)] {
        for version in 0..2 {
            let nd = NdRange::d1(n, l).unwrap();
            let kernel = program(n).kernel("corr_corr").unwrap();
            let (launch, mem) = setup(kernel, version, nd, n, &mut rng);
            let total = nd.num_groups();
            for (a, b) in [(0, total), (total - 1, total), (0, 1)] {
                let label = format!("corr_corr v{version}: n={n}, l={l}, groups {a}..{b}");
                assert_bodies_agree(&launch, &mem, a, b, &label);
            }
        }
    }
}

/// The matrix–vector bodies on ranges wider than one block of column
/// accumulators (1024 columns), with odd and even local sizes, so block
/// boundaries, tail blocks and row-walk tails all run.
#[test]
fn matrix_vector_bodies_handle_wide_ranges() {
    let mut rng = SplitMix64::new(0x3A7E_B10C);
    let kernels = [
        "atax_k1", "atax_k2", "bicg_q", "bicg_s", "mvt_x1", "mvt_x2", "gesummv",
    ];
    let mut covered = 0;
    for program in programs() {
        for name in kernels {
            let n = 1160;
            let Ok(kernel) = program(n).kernel(name) else {
                continue;
            };
            covered += 1;
            for l in [8, 5] {
                let nd = NdRange::d1(n, l).unwrap();
                let (launch, mem) = setup(kernel.clone(), 0, nd, n, &mut rng);
                let total = nd.num_groups();
                for (a, b) in [(0, total), (1, total - 1), (total / 3, total)] {
                    let label = format!("{name}: n={n}, l={l}, groups {a}..{b}");
                    assert_bodies_agree(&launch, &mem, a, b, &label);
                }
            }
        }
    }
    assert_eq!(covered, kernels.len());
}

/// The 2-D range bodies on sizes that are not multiples of their tiles:
/// local sizes whose rows are not a multiple of the 4- or 2-row `i` tile
/// or whose columns are not a multiple of an 8-wide pack, n ≥ 120 so a
/// span holds several packs, and ranges that start and end mid group-row.
#[test]
fn two_d_bodies_handle_partial_tiles_and_rows() {
    let mut rng = SplitMix64::new(0x7113_5EA5);
    let kernels = [
        "syrk",
        "syr2k",
        "gemm",
        "mm2_tmp",
        "mm2_d",
        "batchmm_mul",
        "corr_center",
    ];
    let mut covered = 0;
    for program in programs() {
        for name in kernels {
            if program(8).kernel(name).is_err() {
                continue;
            }
            covered += 1;
            for (n, lx, ly) in [(120, 3, 5), (126, 7, 6), (128, 8, 8)] {
                let nd = NdRange::d2(n, n, lx, ly).unwrap();
                let kernel = program(n).kernel(name).unwrap();
                let (launch, mem) = setup(kernel, 0, nd, n, &mut rng);
                let (width, total) = (nd.groups()[0] as u64, nd.num_groups());
                for (a, b) in [
                    (0, total),
                    (width / 2, total - width / 2 - 1),
                    (width + 1, 3 * width - 2),
                    (2 * width + 3, 2 * width + 5),
                ] {
                    let label = format!("{name}: n={n}, local=[{lx}, {ly}], groups {a}..{b}");
                    assert_bodies_agree(&launch, &mem, a, b, &label);
                }
            }
        }
    }
    assert_eq!(covered, kernels.len());
}

/// CORR ranges whose items do not fill the 4-item `j1` tiles: prime sizes
/// with odd local sizes, and ranges whose tiles straddle their ends.
#[test]
fn corr_group_body_handles_partial_j1_tiles() {
    let mut rng = SplitMix64::new(0xC022_711E);
    let program = fluidicl_polybench::corr::program;
    for n in [37, 101] {
        for l in [1, n] {
            for version in 0..2 {
                let nd = NdRange::d1(n, l).unwrap();
                let kernel = program(n).kernel("corr_corr").unwrap();
                let (launch, mem) = setup(kernel, version, nd, n, &mut rng);
                let total = nd.num_groups();
                let ranges = [
                    (0, total),
                    (1, total),
                    (3, 10),
                    (5, 6),
                    (total.saturating_sub(6), total - 1),
                ];
                for (a, b) in ranges.into_iter().filter(|&(a, b)| a < b && b <= total) {
                    let label = format!("corr_corr v{version}: n={n}, l={l}, groups {a}..{b}");
                    assert_bodies_agree(&launch, &mem, a, b, &label);
                }
            }
        }
    }
}
