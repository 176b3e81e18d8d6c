//! The access sanitizer against deliberately lying kernels — every
//! `ArgRole` misdeclaration class must be flagged, every group body that
//! departs from its per-item body must be flagged, and honest kernels must
//! pass with zero diagnostics.

use std::ops::Range;
use std::sync::Arc;

use fluidicl_check::{sanitize_launch, LintSeverity, SENTINEL_A};
use fluidicl_hetsim::KernelProfile;
use fluidicl_vcl::{
    execute_groups_shadowed, execute_groups_shadowed_per_item, ArgRole, ArgSpec, BufferId, Inputs,
    KernelArg, KernelDef, Launch, Memory, NdRange, Outputs, Scalars,
};

fn mem_with(n: usize, bufs: &[(u64, f32)]) -> Memory {
    let mut mem = Memory::new();
    for (id, fill) in bufs {
        mem.install(BufferId(*id), vec![*fill; n]);
    }
    mem
}

fn rules(launch: &Launch, mem: &Memory) -> Vec<(String, LintSeverity)> {
    sanitize_launch(launch, mem)
        .into_iter()
        .map(|d| (d.rule.to_string(), d.severity))
        .collect()
}

#[test]
fn honest_kernel_is_clean() {
    let k = Arc::new(KernelDef::new(
        "axpy",
        vec![
            ArgSpec::new("x", ArgRole::In),
            ArgSpec::new("y", ArgRole::InOut),
            ArgSpec::new("out", ArgRole::Out),
            ArgSpec::new("a", ArgRole::Scalar),
        ],
        KernelProfile::new("axpy"),
        |item, scalars, ins, outs| {
            let i = item.global_linear();
            let y = outs.read(0)[i];
            outs.at(0)[i] = y + 1.0;
            outs.at(1)[i] = scalars.f32(0) * ins.get(0)[i] + y;
        },
    ));
    let mem = mem_with(16, &[(0, 2.0), (1, 3.0), (2, 0.0)]);
    let launch = Launch::new(
        k,
        NdRange::d1(16, 4).unwrap(),
        vec![
            KernelArg::Buffer(BufferId(0)),
            KernelArg::Buffer(BufferId(1)),
            KernelArg::Buffer(BufferId(2)),
            KernelArg::F32(1.5),
        ],
    );
    assert_eq!(rules(&launch, &mem), vec![]);
}

#[test]
fn out_accumulation_is_flagged() {
    // The classic lie: `dst` accumulates (`+=`) but is declared `Out`.
    // Under co-execution each device starts from its own poison garbage.
    let k = Arc::new(KernelDef::new(
        "acc",
        vec![
            ArgSpec::new("src", ArgRole::In),
            ArgSpec::new("dst", ArgRole::Out),
        ],
        KernelProfile::new("acc"),
        |item, _, ins, outs| {
            let i = item.global_linear();
            outs.at(0)[i] += ins.get(0)[i];
        },
    ));
    let mem = mem_with(16, &[(0, 2.0), (1, 0.0)]);
    let launch = Launch::new(
        k,
        NdRange::d1(16, 4).unwrap(),
        vec![
            KernelArg::Buffer(BufferId(0)),
            KernelArg::Buffer(BufferId(1)),
        ],
    );
    let r = rules(&launch, &mem);
    assert!(
        r.contains(&("out-read-before-write".to_string(), LintSeverity::Error)),
        "{r:?}"
    );
}

#[test]
fn conflicting_cross_group_writes_are_flagged() {
    // Every work-group writes its own id into element 0: the final value
    // depends on which device ran last.
    let race = Arc::new(KernelDef::new(
        "race",
        vec![ArgSpec::new("dst", ArgRole::Out)],
        KernelProfile::new("race"),
        |item, _, _, outs| {
            outs.at(0)[0] = item.group[0] as f32;
        },
    ));
    let launch = Launch::new(
        race,
        NdRange::d1(16, 4).unwrap(),
        vec![KernelArg::Buffer(BufferId(0))],
    );
    let r = rules(&launch, &mem_with(16, &[(0, 0.0)]));
    assert!(
        r.contains(&("write-conflict".to_string(), LintSeverity::Error)),
        "{r:?}"
    );

    // The same collision with an input-derived, per-item value: every item
    // of every group stores `src[i] + i` into element 0 of `dst`.
    let collider = Arc::new(KernelDef::new(
        "collider",
        vec![
            ArgSpec::new("src", ArgRole::In),
            ArgSpec::new("dst", ArgRole::Out),
        ],
        KernelProfile::new("collider"),
        |item, _, ins, outs| {
            let i = item.global_linear();
            outs.at(0)[0] = ins.get(0)[i] + i as f32;
        },
    ));
    let mut mem = Memory::new();
    mem.install(BufferId(0), (0..16).map(|i| i as f32).collect::<Vec<f32>>());
    mem.install(BufferId(1), vec![0.0; 16]);
    let launch = Launch::new(
        collider,
        NdRange::d1(16, 4).unwrap(),
        vec![
            KernelArg::Buffer(BufferId(0)),
            KernelArg::Buffer(BufferId(1)),
        ],
    );
    let r = rules(&launch, &mem);
    assert!(
        r.contains(&("write-conflict".to_string(), LintSeverity::Error)),
        "{r:?}"
    );
}

#[test]
fn identical_duplicate_writes_are_benign() {
    // Every group writes the same constant into element 0 (and its own
    // slot): idempotent duplication, exactly what FluidiCL's overlapping
    // wave/subkernel execution produces. Must NOT be flagged.
    let k = Arc::new(KernelDef::new(
        "dup",
        vec![ArgSpec::new("dst", ArgRole::Out)],
        KernelProfile::new("dup"),
        |item, _, _, outs| {
            let i = item.global_linear();
            outs.at(0)[0] = 42.0;
            if i > 0 {
                outs.at(0)[i] = i as f32;
            }
        },
    ));
    let mem = mem_with(16, &[(0, 0.0)]);
    let launch = Launch::new(
        k,
        NdRange::d1(16, 4).unwrap(),
        vec![KernelArg::Buffer(BufferId(0))],
    );
    assert_eq!(rules(&launch, &mem), vec![]);
}

#[test]
fn unused_input_is_warned() {
    let k = Arc::new(KernelDef::new(
        "copy1",
        vec![
            ArgSpec::new("used", ArgRole::In),
            ArgSpec::new("unused", ArgRole::In),
            ArgSpec::new("dst", ArgRole::Out),
        ],
        KernelProfile::new("copy1"),
        |item, _, ins, outs| {
            let i = item.global_linear();
            outs.at(0)[i] = ins.get(0)[i] + 1.0;
        },
    ));
    let mem = mem_with(8, &[(0, 1.0), (1, 1.0), (2, 0.0)]);
    let launch = Launch::new(
        k,
        NdRange::d1(8, 4).unwrap(),
        vec![
            KernelArg::Buffer(BufferId(0)),
            KernelArg::Buffer(BufferId(1)),
            KernelArg::Buffer(BufferId(2)),
        ],
    );
    let r = rules(&launch, &mem);
    assert_eq!(r, vec![("unused-input".to_string(), LintSeverity::Warning)]);
}

#[test]
fn write_only_inout_is_warned() {
    // Declared InOut but never reads its previous contents: the forced
    // pre-kernel transfer is wasted.
    let k = Arc::new(KernelDef::new(
        "wronly",
        vec![
            ArgSpec::new("src", ArgRole::In),
            ArgSpec::new("dst", ArgRole::InOut),
        ],
        KernelProfile::new("wronly"),
        |item, _, ins, outs| {
            let i = item.global_linear();
            outs.at(0)[i] = ins.get(0)[i] * 2.0;
        },
    ));
    let mem = mem_with(8, &[(0, 3.0), (1, 7.0)]);
    let launch = Launch::new(
        k,
        NdRange::d1(8, 4).unwrap(),
        vec![
            KernelArg::Buffer(BufferId(0)),
            KernelArg::Buffer(BufferId(1)),
        ],
    );
    let r = rules(&launch, &mem);
    assert_eq!(
        r,
        vec![("inout-never-read".to_string(), LintSeverity::Warning)]
    );
}

#[test]
fn never_written_output_is_warned() {
    let k = Arc::new(KernelDef::new(
        "lazy",
        vec![
            ArgSpec::new("dst", ArgRole::Out),
            ArgSpec::new("ghost", ArgRole::Out),
        ],
        KernelProfile::new("lazy"),
        |item, _, _, outs| {
            let i = item.global_linear();
            outs.at(0)[i] = i as f32 + 1.0;
        },
    ));
    let mem = mem_with(8, &[(0, 0.0), (1, 0.0)]);
    let launch = Launch::new(
        k,
        NdRange::d1(8, 4).unwrap(),
        vec![
            KernelArg::Buffer(BufferId(0)),
            KernelArg::Buffer(BufferId(1)),
        ],
    );
    let r = rules(&launch, &mem);
    assert_eq!(
        r,
        vec![("output-never-written".to_string(), LintSeverity::Warning)]
    );
}

#[test]
fn scalar_passed_a_buffer_is_a_signature_error() {
    let k = Arc::new(KernelDef::new(
        "sig",
        vec![
            ArgSpec::new("dst", ArgRole::Out),
            ArgSpec::new("n", ArgRole::Scalar),
        ],
        KernelProfile::new("sig"),
        |item, _, _, outs| {
            let i = item.global_linear();
            outs.at(0)[i] = 0.0;
        },
    ));
    let mem = mem_with(8, &[(0, 0.0), (1, 0.0)]);
    let launch = Launch::new(
        k,
        NdRange::d1(8, 4).unwrap(),
        vec![
            KernelArg::Buffer(BufferId(0)),
            KernelArg::Buffer(BufferId(1)),
        ],
    );
    let r = rules(&launch, &mem);
    assert_eq!(r, vec![("signature".to_string(), LintSeverity::Error)]);
}

#[test]
fn sanitizer_leaves_caller_memory_untouched() {
    let k = Arc::new(KernelDef::new(
        "scale2",
        vec![
            ArgSpec::new("src", ArgRole::In),
            ArgSpec::new("dst", ArgRole::Out),
        ],
        KernelProfile::new("scale2"),
        |item, _, ins, outs| {
            let i = item.global_linear();
            outs.at(0)[i] = ins.get(0)[i] * 2.0;
        },
    ));
    let mem = mem_with(8, &[(0, 5.0), (1, 9.0)]);
    let launch = Launch::new(
        k,
        NdRange::d1(8, 4).unwrap(),
        vec![
            KernelArg::Buffer(BufferId(0)),
            KernelArg::Buffer(BufferId(1)),
        ],
    );
    let _ = sanitize_launch(&launch, &mem);
    assert_eq!(mem.get(BufferId(0)).unwrap(), &[5.0; 8]);
    assert_eq!(mem.get(BufferId(1)).unwrap(), &[9.0; 8], "dst not poisoned");
}

/// Column sums over a 12×12 matrix, one work-item per column, in groups of
/// `local`: the per-item body sums `a[i*n + j]` over `i` in order. `group`
/// is the group body under test.
fn column_sum_launch(
    local: usize,
    group: impl Fn(&NdRange, Range<u64>, &Scalars, &Inputs<'_>, &mut Outputs<'_>)
        + Send
        + Sync
        + 'static,
) -> (Launch, Memory) {
    const N: usize = 12;
    let k = KernelDef::new(
        "colsum",
        vec![
            ArgSpec::new("a", ArgRole::In),
            ArgSpec::new("sums", ArgRole::Out),
            ArgSpec::new("n", ArgRole::Scalar),
        ],
        KernelProfile::new("colsum"),
        |item, scalars, ins, outs| {
            let n = scalars.usize(0);
            let j = item.global[0];
            let a = ins.get(0);
            let mut acc = 0.0f32;
            for i in 0..n {
                acc += a[i * n + j];
            }
            outs.at(0)[j] = acc;
        },
    )
    .with_group_body(group);
    let mut mem = Memory::new();
    // Terms of mixed sign and magnitude, so a different summation order
    // rounds differently.
    let a: Vec<f32> = (0..N * N)
        .map(|i| (1.0 + i as f32).recip() * if i % 3 == 0 { -1e4 } else { 1.0 })
        .collect();
    mem.install(BufferId(0), a);
    mem.alloc(BufferId(1), N);
    let launch = Launch::new(
        Arc::new(k),
        NdRange::d1(N, local).unwrap(),
        vec![
            KernelArg::Buffer(BufferId(0)),
            KernelArg::Buffer(BufferId(1)),
            KernelArg::Usize(N),
        ],
    );
    (launch, mem)
}

/// Column sums of `cols` in blocks of `w` accumulators, `i` outer — the
/// shape of a real group body. `keep_tail = false` drops the last, short
/// block; `rev` sums the rows backwards.
fn blocked_column_sums(
    a: &[f32],
    n: usize,
    cols: Range<usize>,
    w: usize,
    keep_tail: bool,
    rev: bool,
    out: &mut [f32],
) {
    for c in cols.clone().step_by(w) {
        let end = (c + w).min(cols.end);
        if end - c < w && !keep_tail {
            continue;
        }
        let mut acc = [0.0f32; 8];
        let rows: Vec<usize> = if rev {
            (0..n).rev().collect()
        } else {
            (0..n).collect()
        };
        for i in rows {
            for (s, &x) in acc.iter_mut().zip(&a[i * n + c..i * n + end]) {
                *s += x;
            }
        }
        out[c..end].copy_from_slice(&acc[..end - c]);
    }
}

#[test]
fn honest_group_body_is_clean() {
    // Two groups of six, and six groups of two (split unevenly at 3).
    for local in [6, 2] {
        let (launch, mem) = column_sum_launch(local, |nd, groups, scalars, ins, outs| {
            let n = scalars.usize(0);
            let cols = nd.range_items(groups);
            blocked_column_sums(ins.get(0), n, cols, 4, true, false, outs.at(0));
        });
        assert_eq!(rules(&launch, &mem), vec![], "local size {local}");
    }
}

#[test]
fn group_body_summing_in_reverse_is_flagged() {
    let (launch, mem) = column_sum_launch(6, |nd, groups, scalars, ins, outs| {
        let n = scalars.usize(0);
        let cols = nd.range_items(groups);
        blocked_column_sums(ins.get(0), n, cols, 4, true, true, outs.at(0));
    });
    let r = rules(&launch, &mem);
    assert!(
        r.contains(&("group-body-divergence".to_string(), LintSeverity::Error)),
        "{r:?}"
    );
}

#[test]
fn group_body_writing_into_the_next_group_is_flagged() {
    let (launch, mem) = column_sum_launch(6, |nd, groups, scalars, ins, outs| {
        let n = scalars.usize(0);
        let cols = nd.range_items(groups);
        let next = cols.end;
        blocked_column_sums(ins.get(0), n, cols, 4, true, false, outs.at(0));
        if let Some(v) = outs.at(0).get_mut(next) {
            *v = 0.5;
        }
    });
    let r = rules(&launch, &mem);
    assert!(
        r.contains(&("group-body-divergence".to_string(), LintSeverity::Error)),
        "{r:?}"
    );
}

#[test]
fn group_body_dropping_its_tail_block_is_flagged() {
    // Six items per group in blocks of four: the two-item tail is lost.
    let (launch, mem) = column_sum_launch(6, |nd, groups, scalars, ins, outs| {
        let n = scalars.usize(0);
        let cols = nd.range_items(groups);
        blocked_column_sums(ins.get(0), n, cols, 4, false, false, outs.at(0));
    });
    let r = rules(&launch, &mem);
    assert!(
        r.contains(&("group-body-divergence".to_string(), LintSeverity::Error)),
        "{r:?}"
    );
}

/// The group body under `launch` records the same per-group writes as the
/// per-item body when run one group at a time, from poisoned outputs.
fn per_group_records_agree(launch: &Launch, mem: &Memory) -> bool {
    let total = launch.ndrange.num_groups();
    let run = |per_item: bool| {
        let mut m = mem.clone();
        m.get_mut(BufferId(1)).unwrap().fill(SENTINEL_A);
        let rec = if per_item {
            execute_groups_shadowed_per_item(launch, &mut m, 0, total)
        } else {
            execute_groups_shadowed(launch, &mut m, 0, total)
        };
        rec.unwrap().groups
    };
    run(false) == run(true)
}

/// Diagnostics of `rule`, by message.
fn messages(launch: &Launch, mem: &Memory, rule: &str) -> Vec<String> {
    sanitize_launch(launch, mem)
        .into_iter()
        .filter(|d| d.rule == rule)
        .map(|d| d.message)
        .collect()
}

#[test]
fn range_body_computing_only_its_first_group_is_flagged() {
    // Exact on every single-group range, so the per-group shadow check
    // passes; the run over the whole launch leaves group 1 unwritten.
    let (launch, mem) = column_sum_launch(6, |nd, groups, scalars, ins, outs| {
        let n = scalars.usize(0);
        let first = groups.start..(groups.start + 1).min(groups.end);
        blocked_column_sums(
            ins.get(0),
            n,
            nd.range_items(first),
            4,
            true,
            false,
            outs.at(0),
        );
    });
    assert!(per_group_records_agree(&launch, &mem));
    let found = messages(&launch, &mem, "group-body-divergence");
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].contains("work-groups [0, 2]"), "{found:?}");
}

#[test]
fn range_body_assuming_it_starts_at_group_zero_is_flagged() {
    // Right on single groups and on ranges that start at group 0: only the
    // second part of the uneven split (groups 3..6) computes the wrong
    // columns.
    let (launch, mem) = column_sum_launch(2, |nd, groups, scalars, ins, outs| {
        let n = scalars.usize(0);
        let groups = if groups.end - groups.start > 1 {
            0..groups.end - groups.start
        } else {
            groups
        };
        blocked_column_sums(
            ins.get(0),
            n,
            nd.range_items(groups),
            4,
            true,
            false,
            outs.at(0),
        );
    });
    assert!(per_group_records_agree(&launch, &mem));
    let found = messages(&launch, &mem, "group-body-divergence");
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].contains("work-groups [0, 3, 6]"), "{found:?}");
}

/// Row-pair dot products over a 12×12 matrix, one work-item per `(i, j)`
/// in groups of `local`: the per-item body sums `a[i*n + k] * a[j*n + k]`
/// over `k` in order, like SYRK. `group` is the group body under test.
fn pair_dot_launch(
    local: [usize; 2],
    group: impl Fn(&NdRange, Range<u64>, &Scalars, &Inputs<'_>, &mut Outputs<'_>)
        + Send
        + Sync
        + 'static,
) -> (Launch, Memory) {
    const N: usize = 12;
    let k = KernelDef::new(
        "pairdot",
        vec![
            ArgSpec::new("a", ArgRole::In),
            ArgSpec::new("c", ArgRole::Out),
            ArgSpec::new("n", ArgRole::Scalar),
        ],
        KernelProfile::new("pairdot"),
        |item, scalars, ins, outs| {
            let n = scalars.usize(0);
            let (i, j) = (item.global[1], item.global[0]);
            let a = ins.get(0);
            let mut acc = 0.0f32;
            for k in 0..n {
                acc += a[i * n + k] * a[j * n + k];
            }
            outs.at(0)[i * n + j] = acc;
        },
    )
    .with_group_body(group);
    let mut mem = Memory::new();
    let a: Vec<f32> = (0..N * N).map(|i| (1.0 + i as f32).recip()).collect();
    mem.install(BufferId(0), a);
    mem.alloc(BufferId(1), N * N);
    let launch = Launch::new(
        Arc::new(k),
        NdRange::d2(N, N, local[0], local[1]).unwrap(),
        vec![
            KernelArg::Buffer(BufferId(0)),
            KernelArg::Buffer(BufferId(1)),
            KernelArg::Usize(N),
        ],
    );
    (launch, mem)
}

/// Pair dots over the row spans of `groups` in tiles of four `i` rows —
/// the shape of the SYRK tile. `keep_tail = false` skips each span's last,
/// short row tile.
fn tiled_pair_dots(
    nd: &NdRange,
    groups: Range<u64>,
    a: &[f32],
    n: usize,
    keep_tail: bool,
    out: &mut [f32],
) {
    for (rows, cols) in nd.row_spans(groups) {
        for i0 in rows.clone().step_by(4) {
            let tile = i0..(i0 + 4).min(rows.end);
            if tile.len() < 4 && !keep_tail {
                continue;
            }
            for i in tile {
                for j in cols.clone() {
                    let mut acc = 0.0f32;
                    for k in 0..n {
                        acc += a[i * n + k] * a[j * n + k];
                    }
                    out[i * n + j] = acc;
                }
            }
        }
    }
}

#[test]
fn honest_row_tile_body_is_clean() {
    for local in [[3, 6], [4, 4], [2, 3]] {
        let (launch, mem) = pair_dot_launch(local, |nd, groups, scalars, ins, outs| {
            tiled_pair_dots(nd, groups, ins.get(0), scalars.usize(0), true, outs.at(0));
        });
        assert_eq!(rules(&launch, &mem), vec![], "local size {local:?}");
    }
}

#[test]
fn row_tile_body_skipping_its_partial_last_tile_is_flagged() {
    // Six rows per group row in tiles of four: rows 4 and 5 are lost.
    let (launch, mem) = pair_dot_launch([3, 6], |nd, groups, scalars, ins, outs| {
        tiled_pair_dots(nd, groups, ins.get(0), scalars.usize(0), false, outs.at(0));
    });
    let r = rules(&launch, &mem);
    assert!(
        r.contains(&("group-body-divergence".to_string(), LintSeverity::Error)),
        "{r:?}"
    );
}

/// A triangular correlation over a 12×12 matrix, one work-item per `j1`
/// in groups of three: the per-item body stores 1 on the diagonal and
/// `Σ_k d[k*n + j1] * d[k*n + j2]` at `(j1, j2)` and `(j2, j1)` for every
/// `j2 > j1`, like CORR. `group` is the group body under test.
fn triangle_launch(
    group: impl Fn(&NdRange, Range<u64>, &Scalars, &Inputs<'_>, &mut Outputs<'_>)
        + Send
        + Sync
        + 'static,
) -> (Launch, Memory) {
    const N: usize = 12;
    let k = KernelDef::new(
        "triangle",
        vec![
            ArgSpec::new("d", ArgRole::In),
            ArgSpec::new("sym", ArgRole::Out),
            ArgSpec::new("n", ArgRole::Scalar),
        ],
        KernelProfile::new("triangle"),
        |item, scalars, ins, outs| {
            let n = scalars.usize(0);
            let j1 = item.global[0];
            let d = ins.get(0);
            let sym = outs.at(0);
            sym[j1 * n + j1] = 1.0;
            for j2 in j1 + 1..n {
                let mut acc = 0.0f32;
                for k in 0..n {
                    acc += d[k * n + j1] * d[k * n + j2];
                }
                sym[j1 * n + j2] = acc;
                sym[j2 * n + j1] = acc;
            }
        },
    )
    .with_group_body(group);
    let mut mem = Memory::new();
    let d: Vec<f32> = (0..N * N)
        .map(|i| (1.0 + i as f32).recip() * if i % 3 == 0 { -1.0 } else { 1.0 })
        .collect();
    mem.install(BufferId(0), d);
    mem.alloc(BufferId(1), N * N);
    let launch = Launch::new(
        Arc::new(k),
        NdRange::d1(N, 3).unwrap(),
        vec![
            KernelArg::Buffer(BufferId(0)),
            KernelArg::Buffer(BufferId(1)),
            KernelArg::Usize(N),
        ],
    );
    (launch, mem)
}

/// The triangle in tiles of four `j1` — the shape of the CORR tile: every
/// lane of a tile sums the `j2` from the tile's first `j1 + 1`.
/// `store_lower = true` also stores the lanes with `j2 ≤ j1`.
fn tiled_triangle(
    nd: &NdRange,
    groups: Range<u64>,
    d: &[f32],
    n: usize,
    store_lower: bool,
    sym: &mut [f32],
) {
    let items = nd.range_items(groups);
    for t0 in items.clone().step_by(4) {
        let tile = t0..(t0 + 4).min(items.end);
        for j1 in tile.clone() {
            sym[j1 * n + j1] = 1.0;
        }
        for j1 in tile {
            for j2 in t0 + 1..n {
                if j2 <= j1 && !store_lower {
                    continue;
                }
                let mut acc = 0.0f32;
                for k in 0..n {
                    acc += d[k * n + j1] * d[k * n + j2];
                }
                sym[j1 * n + j2] = acc;
                sym[j2 * n + j1] = acc;
            }
        }
    }
}

#[test]
fn honest_triangle_tile_body_is_clean() {
    let (launch, mem) = triangle_launch(|nd, groups, scalars, ins, outs| {
        tiled_triangle(nd, groups, ins.get(0), scalars.usize(0), false, outs.at(0));
    });
    assert_eq!(rules(&launch, &mem), vec![]);
}

#[test]
fn triangle_tile_body_storing_its_lower_lanes_is_flagged() {
    let (launch, mem) = triangle_launch(|nd, groups, scalars, ins, outs| {
        tiled_triangle(nd, groups, ins.get(0), scalars.usize(0), true, outs.at(0));
    });
    let r = rules(&launch, &mem);
    assert!(
        r.contains(&("group-body-divergence".to_string(), LintSeverity::Error)),
        "{r:?}"
    );
}
