//! Randomized property tests of the virtual OpenCL substrate: geometry
//! round-trips, covering slices, diff-merge and dirty-range algebra, and
//! the partitioning property the whole FluidiCL design rests on —
//! executing disjoint work-group ranges composes to the full-kernel
//! result. Cases come from the in-tree deterministic generator so failures
//! replay bit-for-bit.

use std::sync::Arc;
use std::time::Instant;

use fluidicl_des::SplitMix64;
use fluidicl_hetsim::KernelProfile;
use fluidicl_vcl::exec::{execute_all, execute_groups, Launch};
use fluidicl_vcl::{diff_merge, ArgRole, ArgSpec, BufferId, KernelArg, KernelDef, Memory, NdRange};

const CASES: u64 = 64;

fn arb_ndrange(rng: &mut SplitMix64) -> NdRange {
    match rng.range_u64(0, 3) {
        0 => {
            let g = rng.range_usize(1, 40);
            let l = rng.range_usize(1, 16);
            NdRange::d1(g * l, l).expect("valid 1d")
        }
        1 => {
            let (gx, gy) = (rng.range_usize(1, 8), rng.range_usize(1, 8));
            let (lx, ly) = (rng.range_usize(1, 6), rng.range_usize(1, 6));
            NdRange::d2(gx * lx, gy * ly, lx, ly).expect("valid 2d")
        }
        _ => {
            let (gx, gy, gz) = (
                rng.range_usize(1, 4),
                rng.range_usize(1, 4),
                rng.range_usize(1, 4),
            );
            let (lx, ly, lz) = (
                rng.range_usize(1, 3),
                rng.range_usize(1, 3),
                rng.range_usize(1, 3),
            );
            NdRange::d3(gx * lx, gy * ly, gz * lz, lx, ly, lz).expect("valid 3d")
        }
    }
}

fn stamp_kernel() -> Arc<KernelDef> {
    Arc::new(KernelDef::new(
        "stamp",
        vec![
            ArgSpec::new("src", ArgRole::In),
            ArgSpec::new("dst", ArgRole::Out),
        ],
        KernelProfile::new("stamp"),
        |item, _, ins, outs| {
            let i = item.global_linear();
            outs.at(0)[i] = ins.get(0)[i] * 2.0 + i as f32;
        },
    ))
}

/// Flatten/unflatten is a bijection over the whole group space.
#[test]
fn flatten_roundtrip() {
    let mut rng = SplitMix64::new(0x7C51);
    for _ in 0..CASES {
        let nd = arb_ndrange(&mut rng);
        for flat in 0..nd.num_groups() {
            let coords = nd.unflatten_group(flat);
            assert_eq!(nd.flatten_group(coords), flat);
            let g = nd.groups();
            assert!(coords[0] < g[0] && coords[1] < g[1] && coords[2] < g[2]);
        }
    }
}

/// Flattening is dense: ids are exactly 0..num_groups.
#[test]
fn flattening_is_dense() {
    let mut rng = SplitMix64::new(0x7C52);
    for _ in 0..CASES {
        let nd = arb_ndrange(&mut rng);
        let g = nd.groups();
        let mut seen = vec![false; nd.num_groups() as usize];
        for z in 0..g[2] {
            for y in 0..g[1] {
                for x in 0..g[0] {
                    let flat = nd.flatten_group([x, y, z]) as usize;
                    assert!(!seen[flat], "duplicate flattened id");
                    seen[flat] = true;
                }
            }
        }
        assert!(seen.iter().all(|&b| b));
    }
}

/// The §5.2 covering slice contains every requested flattened id.
#[test]
fn covering_slice_contains_range() {
    let mut rng = SplitMix64::new(0x7C53);
    for _ in 0..CASES {
        let nd = arb_ndrange(&mut rng);
        let split = rng.next_f64();
        let width = rng.next_f64();
        let total = nd.num_groups();
        let start = ((total - 1) as f64 * split) as u64;
        let len = (((total - start) as f64 * width) as u64).max(1);
        let end = (start + len).min(total);
        let (off, cnt) = nd.covering_slice(start, end);
        let mut covered = std::collections::HashSet::new();
        for z in off[2]..off[2] + cnt[2] {
            for y in off[1]..off[1] + cnt[1] {
                for x in off[0]..off[0] + cnt[0] {
                    covered.insert(nd.flatten_group([x, y, z]));
                }
            }
        }
        for flat in start..end {
            assert!(covered.contains(&flat), "id {flat} not covered");
        }
        // The slice is itself contiguous in flattened space.
        let min = covered.iter().min().copied().expect("non-empty");
        let max = covered.iter().max().copied().expect("non-empty");
        assert_eq!(covered.len() as u64, max - min + 1);
    }
}

/// FluidiCL's partitioning axiom: executing [0, k) on one memory and
/// [k, N) on another, then diff-merging against the original, equals
/// executing everything on one device.
#[test]
fn partitioned_execution_plus_merge_equals_whole() {
    let mut rng = SplitMix64::new(0x7C54);
    for _ in 0..CASES {
        let nd = arb_ndrange(&mut rng);
        let frac = rng.next_f64();
        let items = nd.num_items() as usize;
        let src: Vec<f32> = (0..items).map(|i| (i % 13) as f32 - 6.0).collect();
        let kernel = stamp_kernel();
        let args = vec![
            KernelArg::Buffer(BufferId(0)),
            KernelArg::Buffer(BufferId(1)),
        ];
        let launch = Launch::new(kernel, nd, args);

        // Whole-kernel reference.
        let mut whole = Memory::new();
        whole.install(BufferId(0), src.clone());
        whole.alloc(BufferId(1), items);
        execute_all(&launch, &mut whole).expect("whole run");
        let want = whole.get(BufferId(1)).expect("dst").to_vec();

        // Partitioned: GPU memory takes [0, k), CPU memory takes [k, N).
        let total = nd.num_groups();
        let k = ((total as f64) * frac).round() as u64;
        let mut gpu = Memory::new();
        gpu.install(BufferId(0), src.clone());
        gpu.alloc(BufferId(1), items);
        let mut cpu = Memory::new();
        cpu.install(BufferId(0), src);
        cpu.alloc(BufferId(1), items);
        let orig = gpu.get(BufferId(1)).expect("dst").to_vec();
        execute_groups(&launch, &mut gpu, 0, k).expect("gpu part");
        execute_groups(&launch, &mut cpu, k, total).expect("cpu part");
        let cpu_data = cpu.get(BufferId(1)).expect("dst").to_vec();
        diff_merge(gpu.get_mut(BufferId(1)).expect("dst"), &cpu_data, &orig);
        assert_eq!(gpu.get(BufferId(1)).expect("dst"), want.as_slice());
    }
}

/// Overlapping (duplicated) execution is harmless: both sides compute
/// identical values, so merging after overlap still matches.
#[test]
fn overlapping_execution_is_idempotent() {
    let mut rng = SplitMix64::new(0x7C55);
    for _ in 0..CASES {
        let nd = arb_ndrange(&mut rng);
        let lo = rng.next_f64();
        let hi = rng.next_f64();
        let total = nd.num_groups();
        let a = ((total as f64) * lo.min(hi)).round() as u64;
        let b = ((total as f64) * lo.max(hi)).round() as u64;
        let items = nd.num_items() as usize;
        let src: Vec<f32> = (0..items).map(|i| (i % 7) as f32).collect();
        let kernel = stamp_kernel();
        let args = vec![
            KernelArg::Buffer(BufferId(0)),
            KernelArg::Buffer(BufferId(1)),
        ];
        let launch = Launch::new(kernel, nd, args);

        let mut whole = Memory::new();
        whole.install(BufferId(0), src.clone());
        whole.alloc(BufferId(1), items);
        execute_all(&launch, &mut whole).expect("whole run");
        let want = whole.get(BufferId(1)).expect("dst").to_vec();

        // GPU computes [0, b) and CPU computes [a, N): overlap is [a, b).
        let mut gpu = Memory::new();
        gpu.install(BufferId(0), src.clone());
        gpu.alloc(BufferId(1), items);
        let mut cpu = Memory::new();
        cpu.install(BufferId(0), src);
        cpu.alloc(BufferId(1), items);
        let orig = gpu.get(BufferId(1)).expect("dst").to_vec();
        execute_groups(&launch, &mut gpu, 0, b).expect("gpu part");
        execute_groups(&launch, &mut cpu, a, total).expect("cpu part");
        let cpu_data = cpu.get(BufferId(1)).expect("dst").to_vec();
        diff_merge(gpu.get_mut(BufferId(1)).expect("dst"), &cpu_data, &orig);
        assert_eq!(gpu.get(BufferId(1)).expect("dst"), want.as_slice());
    }
}

/// diff-merge algebra: merging an unmodified copy is the identity, and
/// merging is idempotent.
#[test]
fn diff_merge_identity_and_idempotence() {
    let mut rng = SplitMix64::new(0x7C56);
    for _ in 0..CASES {
        let len = rng.range_usize(1, 200);
        let data: Vec<f32> = (0..len).map(|_| rng.range_f32(-100.0, 100.0)).collect();
        let changes: Vec<bool> = (0..len).map(|_| rng.next_bool()).collect();
        let orig = data.clone();
        let mut gpu: Vec<f32> = data.iter().map(|v| v + 1.0).collect();
        // Identity: cpu == orig changes nothing.
        let before = gpu.clone();
        diff_merge(&mut gpu, &orig, &orig);
        assert_eq!(&gpu, &before);
        // Idempotence: applying the same merge twice equals once.
        let cpu: Vec<f32> = data
            .iter()
            .zip(changes.iter())
            .map(|(v, &c)| if c { v * 3.0 + 1.0 } else { *v })
            .collect();
        diff_merge(&mut gpu, &cpu, &orig);
        let once = gpu.clone();
        diff_merge(&mut gpu, &cpu, &orig);
        assert_eq!(gpu, once);
    }
}

/// Arbitrary `f32` bit patterns: NaNs with random payloads, infinities,
/// denormals and signed zeros all occur.
fn arb_bits(rng: &mut SplitMix64) -> f32 {
    f32::from_bits((rng.next_u64() >> 32) as u32)
}

/// A merge case `(orig, cpu, gpu0)` of small buffers of ordinary values,
/// each element rewritten by the CPU with probability 1/2.
fn ordinary_merge_case(rng: &mut SplitMix64) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let len = rng.range_usize(1, 300);
    let orig: Vec<f32> = (0..len).map(|_| rng.range_f32(-50.0, 50.0)).collect();
    let cpu: Vec<f32> = orig
        .iter()
        .map(|v| if rng.next_bool() { v * 1.5 + 0.25 } else { *v })
        .collect();
    let gpu0: Vec<f32> = orig.iter().map(|v| v - 2.0).collect();
    (orig, cpu, gpu0)
}

/// A merge case `(orig, cpu, gpu0)` of arbitrary bit patterns spanning
/// several 4096-element blocks, usually with a ragged tail, where the CPU
/// rewrites scattered single elements and short runs.
fn arb_bits_merge_case(rng: &mut SplitMix64) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let len = rng.range_usize(1, 4 * 4096 + 37);
    let orig: Vec<f32> = (0..len).map(|_| arb_bits(rng)).collect();
    let mut cpu = orig.clone();
    for _ in 0..rng.range_usize(0, 65) {
        let at = rng.range_usize(0, len);
        let run = rng.range_usize(1, 9).min(len - at);
        for v in &mut cpu[at..at + run] {
            *v = arb_bits(rng);
        }
    }
    let gpu0: Vec<f32> = (0..len).map(|_| arb_bits(rng)).collect();
    (orig, cpu, gpu0)
}

/// Ranged merge over any superset of the true dirty set equals the full
/// merge bit-for-bit — the equivalence the dirty-range protocol rests on —
/// and the captured dirty set is exactly the elements whose bits differ.
/// Odd cases draw arbitrary bit patterns (NaN payloads, signed zeros,
/// denormals) over buffers longer than the ordinary cases.
#[test]
fn ranged_merge_over_covering_ranges_equals_full_merge() {
    use fluidicl_vcl::{diff_merge_ranged, DirtyRanges};
    let mut rng = SplitMix64::new(0x7C57);
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    for case in 0..2 * CASES {
        let (orig, cpu, gpu0) = if case % 2 == 0 {
            ordinary_merge_case(&mut rng)
        } else {
            arb_bits_merge_case(&mut rng)
        };
        let len = orig.len();

        let mut full = gpu0.clone();
        diff_merge(&mut full, &cpu, &orig);
        let want = bits(&full);

        // The capture is exact: no clean element, no missed write...
        let exact = DirtyRanges::from_diff(&cpu, &orig);
        let differing =
            DirtyRanges::from_indices((0..len).filter(|&i| cpu[i].to_bits() != orig[i].to_bits()));
        assert_eq!(exact, differing, "case {case}: capture is not exact");

        // ...the exact dirty set suffices...
        let mut ranged = gpu0.clone();
        diff_merge_ranged(&mut ranged, &cpu, &orig, &exact).expect("exact");
        assert_eq!(bits(&ranged), want, "case {case}: exact ranges diverged");

        // ...and so does any superset (extra clean ranges merge nothing).
        let extra = DirtyRanges::from_ranges((0..rng.range_usize(1, 5)).filter_map(|_| {
            let s = rng.range_usize(0, len);
            let e = (s + rng.range_usize(1, 24)).min(len);
            (s < e).then_some((s, e))
        }));
        let superset = exact.union(&extra);
        let mut ranged = gpu0.clone();
        diff_merge_ranged(&mut ranged, &cpu, &orig, &superset).expect("superset");
        assert_eq!(bits(&ranged), want, "case {case}: superset diverged");
    }
}

/// Coalescing algebra: building from ranges is order-independent,
/// idempotent, and agrees with building from the individual indices.
#[test]
fn dirty_range_coalescing_is_canonical() {
    use fluidicl_vcl::DirtyRanges;
    let mut rng = SplitMix64::new(0x7C58);
    for _ in 0..CASES {
        let len = rng.range_usize(8, 400);
        let raw: Vec<(usize, usize)> = (0..rng.range_usize(1, 12))
            .filter_map(|_| {
                let s = rng.range_usize(0, len);
                let e = (s + rng.range_usize(1, 40)).min(len);
                (s < e).then_some((s, e))
            })
            .collect();
        let forward = DirtyRanges::from_ranges(raw.iter().copied());
        let backward = DirtyRanges::from_ranges(raw.iter().rev().copied());
        assert_eq!(forward, backward, "order must not matter");
        let again = DirtyRanges::from_ranges(forward.iter());
        assert_eq!(forward, again, "coalescing is idempotent");
        let from_idx = DirtyRanges::from_indices(raw.iter().flat_map(|&(s, e)| s..e));
        assert_eq!(forward, from_idx, "ranges and their indices agree");
        // Canonical form: sorted, non-overlapping, non-adjacent.
        let v: Vec<_> = forward.iter().collect();
        for w in v.windows(2) {
            assert!(w[0].1 < w[1].0, "ranges stay separated: {v:?}");
        }
        assert_eq!(
            forward.element_count(),
            v.iter().map(|(s, e)| e - s).sum::<usize>()
        );
    }
}

/// Bulk construction from 1M scattered indices stays linearithmic: the
/// sort-then-coalesce path finishes in interactive time where repeated
/// range-list splicing would degrade quadratically (minutes). The bound
/// is deliberately generous — it pins the complexity class, not the
/// constant factor.
#[test]
fn from_indices_handles_1m_scattered_indices() {
    use fluidicl_vcl::DirtyRanges;
    let mut rng = SplitMix64::new(0xD1E7_0004);
    const N: usize = 1_000_000;
    const SPACE: usize = 16 * 1024 * 1024;
    let indices: Vec<usize> = (0..N).map(|_| rng.range_usize(0, SPACE)).collect();
    let start = Instant::now();
    let ranges = DirtyRanges::from_indices(indices.iter().copied());
    let elapsed = start.elapsed();
    assert!(
        elapsed.as_secs_f64() < 5.0,
        "1M scattered indices took {elapsed:?}; the bulk path must be sort-then-coalesce"
    );
    // Cross-check against an independent dedup count.
    let mut sorted = indices;
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(ranges.element_count(), sorted.len());
    assert!(ranges.contains(sorted[0]));
    assert!(ranges.contains(*sorted.last().unwrap()));
}

/// The splice-based `insert` agrees with bulk construction under random
/// interleavings of overlapping, adjacent and disjoint ranges.
#[test]
fn insert_agrees_with_bulk_construction() {
    use fluidicl_vcl::DirtyRanges;
    let mut rng = SplitMix64::new(0xD1E7_0005);
    for case in 0..CASES {
        let mut incremental = DirtyRanges::empty();
        let mut all: Vec<(usize, usize)> = Vec::new();
        for _ in 0..rng.range_usize(0, 60) {
            let s = rng.range_usize(0, 10_000);
            let e = s + rng.range_usize(1, 300);
            incremental.insert(s, e);
            all.push((s, e));
        }
        assert_eq!(
            incremental,
            DirtyRanges::from_ranges(all.iter().copied()),
            "case {case}"
        );
    }
}
