//! The access sanitizer against deliberately lying kernels — every
//! `ArgRole` misdeclaration class must be flagged, and honest kernels must
//! pass with zero diagnostics.

use std::sync::Arc;

use fluidicl_check::{sanitize_launch, LintSeverity};
use fluidicl_hetsim::KernelProfile;
use fluidicl_vcl::{ArgRole, ArgSpec, BufferId, KernelArg, KernelDef, Launch, Memory, NdRange};

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
