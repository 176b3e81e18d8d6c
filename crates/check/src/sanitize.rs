//! The kernel access sanitizer.
//!
//! FluidiCL trusts each kernel's declared signature: `Out` buffers are
//! poison-initialized per device and reconciled by diff-merge, `InOut`
//! buffers force a pre-kernel transfer, `In` buffers are never copied back.
//! A misdeclared kernel therefore computes correct results single-device
//! but corrupts them under co-execution. The sanitizer detects the lies by
//! running the kernel a few times over cloned memory with controlled
//! initial states and comparing shadow-memory write maps
//! ([`fluidicl_vcl::execute_groups_shadowed`]):
//!
//! * **`out-read-before-write`** — run twice with every `Out` buffer filled
//!   with two different sentinel values. A kernel that never reads its
//!   `Out` buffers writes bit-identical values both times; any divergence
//!   proves a read of uninitialized output (the argument must be `InOut`).
//! * **`write-conflict`** — two work-groups writing *different* values to
//!   the same element of one output buffer. Under co-execution those
//!   groups can land on different devices and the final value depends on
//!   the merge order. Writing the *same* value twice is benign (symmetric
//!   fills do this) and is not flagged.
//! * **`inout-never-read`** — perturb one `InOut` buffer's initial
//!   contents; if nothing the kernel writes changes, the buffer is
//!   write-only and should be declared `Out` (an `InOut` declaration costs
//!   an extra host-to-device transfer per launch).
//! * **`unused-input`** — an `In` buffer no work-item ever read.
//! * **`output-never-written`** — a writable buffer the kernel never
//!   touched.
//! * **`group-body-divergence`** — a kernel version's group body stores
//!   different bits, or writes different elements, than its per-item body
//!   in some work-group, or reads a different set of inputs. Both bodies
//!   run shadowed, one group at a time, under both sentinels. The group
//!   body then also runs over the whole launch in one call, and in two
//!   calls split at an uneven group, and every output bit is compared with
//!   the per-item run: a range body can be right on every single group and
//!   still wrong across group boundaries. Every version with a group body
//!   is checked, not only the launched one, because online profiling
//!   (paper §6.6) may run any of them.
//! * **`signature`** — the argument list does not match the declared
//!   signature at all (scalar passed for a buffer, aliasing, wrong arity).
//!
//! Everything the sanitizer runs happens on clones of the caller's
//! [`Memory`]; the observable state is untouched.

use fluidicl::LintDiagnostic;
use fluidicl_vcl::exec::execute_groups;
use fluidicl_vcl::{
    execute_groups_shadowed, execute_groups_shadowed_per_item, AccessRecord, ArgRole, ArgSpec,
    BufferId, ClResult, Launch, Memory,
};

/// First sentinel for `Out`-buffer poisoning. Finite (not `NaN`, whose
/// propagation collapses both runs to the same bits) and of moderate
/// magnitude: a huge sentinel would absorb typical addends under f32
/// rounding (`1e30 + 2.0 == 1e30`), hiding an accumulating kernel's reads.
/// The literal spells out the exact f32 value (a multiple of 2⁻⁷).
#[allow(clippy::excessive_precision)]
pub const SENTINEL_A: f32 = 104_729.531_25;

/// Second sentinel for `Out`-buffer poisoning; opposite sign from
/// [`SENTINEL_A`] so even sign-dependent reads (`max`, `abs`, branches)
/// diverge between the runs.
#[allow(clippy::excessive_precision)]
pub const SENTINEL_B: f32 = -88_211.406_25;

/// Sanitizes one kernel launch against `mem` (cloned, never modified).
///
/// Returns one diagnostic per violated rule (see the module docs); an empty
/// vector means the kernel's behaviour matches its declared signature.
pub fn sanitize_launch(launch: &Launch, mem: &Memory) -> Vec<LintDiagnostic> {
    let mut out = Vec::new();
    let out_ids = match launch.kernel.classify_args(&launch.args) {
        Ok((_ins, outs, _scalars)) => outs,
        Err(e) => return vec![LintDiagnostic::error("signature", e.to_string())],
    };
    let specs = launch.kernel.args();
    let out_specs: Vec<&ArgSpec> = specs.iter().filter(|s| s.role.is_output()).collect();
    let in_specs: Vec<&ArgSpec> = specs.iter().filter(|s| s.role == ArgRole::In).collect();
    let total = launch.ndrange.num_groups();

    // A clone of `mem` with every `Out` buffer poisoned and, optionally,
    // one output buffer perturbed.
    let prepared = |poison: f32, perturb: Option<usize>| -> ClResult<Memory> {
        let mut m = mem.clone();
        for (k, id) in out_ids.iter().enumerate() {
            if out_specs[k].role == ArgRole::Out {
                m.get_mut(*id)?.fill(poison);
            }
        }
        if let Some(k) = perturb {
            for v in m.get_mut(out_ids[k])?.iter_mut() {
                *v = *v * 1.5 + 0.25;
            }
        }
        Ok(m)
    };
    let run_body = |launch: &Launch,
                    poison: f32,
                    perturb: Option<usize>,
                    per_item: bool|
     -> ClResult<(AccessRecord, Memory)> {
        let mut m = prepared(poison, perturb)?;
        let rec = if per_item {
            execute_groups_shadowed_per_item(launch, &mut m, 0, total)
        } else {
            execute_groups_shadowed(launch, &mut m, 0, total)
        }?;
        Ok((rec, m))
    };
    let run = |poison: f32, perturb: Option<usize>| {
        run_body(launch, poison, perturb, false).map(|(rec, _)| rec)
    };

    let (rec_a, rec_b) = match (run(SENTINEL_A, None), run(SENTINEL_B, None)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            return vec![LintDiagnostic::error("execution", e.to_string())]
        }
    };

    // out-read-before-write: identical inputs, different Out poison — any
    // difference in what got written proves the kernel read an Out buffer.
    for (k, spec) in out_specs.iter().enumerate() {
        if spec.role != ArgRole::Out {
            continue;
        }
        if let Some(((g, _), _)) = rec_a
            .groups
            .iter()
            .zip(&rec_b.groups)
            .find(|((_, ma), (_, mb))| ma[k] != mb[k])
        {
            out.push(LintDiagnostic::error(
                "out-read-before-write",
                format!(
                    "`Out` arg `{}` influences the kernel's writes (first seen in \
                     work-group {g}): the kernel reads it before writing, so it must \
                     be declared `InOut`",
                    spec.name
                ),
            ));
        }
    }

    // write-conflict: a later work-group overwrote an element with a
    // different value. (An identical rewrite never enters the later
    // group's write map — the shadow diff is against the advanced
    // baseline — so benign duplicate writes pass.)
    for (k, spec) in out_specs.iter().enumerate() {
        let mut owner: std::collections::BTreeMap<usize, u64> = std::collections::BTreeMap::new();
        'conflict: for (g, maps) in &rec_a.groups {
            for &i in maps[k].keys() {
                if let Some(&g0) = owner.get(&i) {
                    out.push(LintDiagnostic::error(
                        "write-conflict",
                        format!(
                            "work-groups {g0} and {g} write different values to element \
                             {i} of `{}`: the co-executed result depends on which device \
                             ran which group",
                            spec.name
                        ),
                    ));
                    break 'conflict;
                }
                owner.insert(i, *g);
            }
        }
    }

    // inout-never-read: perturb each InOut buffer in isolation.
    for (k, spec) in out_specs.iter().enumerate() {
        if spec.role != ArgRole::InOut {
            continue;
        }
        match run(SENTINEL_A, Some(k)) {
            Ok(rec_c) if rec_c.groups == rec_a.groups => {
                out.push(LintDiagnostic::warning(
                    "inout-never-read",
                    format!(
                        "`InOut` arg `{}`: perturbing its initial contents changed \
                         nothing the kernel wrote; declaring it `Out` would save a \
                         host-to-device transfer per launch",
                        spec.name
                    ),
                ));
            }
            Ok(_) => {}
            Err(e) => out.push(LintDiagnostic::error("execution", e.to_string())),
        }
    }

    // output-never-written: a writable buffer with an empty write map in
    // both sentinel runs.
    for (k, spec) in out_specs.iter().enumerate() {
        if mem.len_of(out_ids[k]).unwrap_or(0) > 0
            && rec_a.total_writes(k).is_empty()
            && rec_b.total_writes(k).is_empty()
        {
            out.push(LintDiagnostic::warning(
                "output-never-written",
                format!(
                    "buffer arg `{}` is declared writable but the kernel never wrote it",
                    spec.name
                ),
            ));
        }
    }

    // group-body-divergence: each group body against its per-item oracle,
    // under both sentinels — group by group, then over the whole launch in
    // one call and, with two or more groups, in two calls split at an odd
    // group (so neither part is a power-of-two number of groups).
    let split = (total / 3) | 1;
    let mut range_runs = vec![vec![0, total]];
    if split < total {
        range_runs.push(vec![0, split, total]);
    }
    for (v, version) in launch.kernel.versions().iter().enumerate() {
        if version.group_body.is_none() {
            continue;
        }
        let mut alt = launch.clone();
        alt.version = v;
        for poison in [SENTINEL_A, SENTINEL_B] {
            let divergence = (|| -> ClResult<Option<String>> {
                let (by_group, _) = run_body(&alt, poison, None, false)?;
                let (by_item, oracle) = run_body(&alt, poison, None, true)?;
                if let Some(d) = divergence(&by_group, &by_item, &out_specs, &in_specs) {
                    return Ok(Some(d));
                }
                for parts in &range_runs {
                    let mut m = prepared(poison, None)?;
                    for w in parts.windows(2) {
                        execute_groups(&alt, &mut m, w[0], w[1])?;
                    }
                    if let Some(d) = range_divergence(&m, &oracle, &out_ids, &out_specs)? {
                        return Ok(Some(format!(
                            "run over work-groups {parts:?} with one call per part, {d}"
                        )));
                    }
                }
                Ok(None)
            })();
            let divergence = match divergence {
                Ok(d) => d,
                Err(e) => {
                    out.push(LintDiagnostic::error("execution", e.to_string()));
                    break;
                }
            };
            if let Some(detail) = divergence {
                out.push(LintDiagnostic::error(
                    "group-body-divergence",
                    format!(
                        "version `{}`: {detail}; the group body must store exactly what \
                         the per-item body stores",
                        version.label
                    ),
                ));
                break;
            }
        }
    }

    // unused-input: In buffers no work-item read in either run.
    for (k, spec) in in_specs.iter().enumerate() {
        if !rec_a.inputs_read[k] && !rec_b.inputs_read[k] {
            out.push(LintDiagnostic::warning(
                "unused-input",
                format!("`In` arg `{}` is never read by any work-item", spec.name),
            ));
        }
    }
    out
}

/// The first difference between a group-body record and its per-item
/// oracle: a work-group whose write map differs on some output, or an
/// input one body read and the other did not.
fn divergence(
    group: &AccessRecord,
    item: &AccessRecord,
    out_specs: &[&ArgSpec],
    in_specs: &[&ArgSpec],
) -> Option<String> {
    for ((g, by_group), (_, by_item)) in group.groups.iter().zip(&item.groups) {
        for (k, spec) in out_specs.iter().enumerate() {
            let (a, b) = (&by_group[k], &by_item[k]);
            if a == b {
                continue;
            }
            let first = a
                .keys()
                .chain(b.keys())
                .copied()
                .filter(|i| a.get(i) != b.get(i))
                .min()
                .expect("the maps differ");
            let at = |m: &fluidicl_vcl::WriteMap| {
                m.get(&first).map_or("nothing".to_string(), |bits| {
                    format!("{:?}", f32::from_bits(*bits))
                })
            };
            return Some(format!(
                "in work-group {g}, element {first} of `{}` gets {} from the group body \
                 and {} from the per-item body",
                spec.name,
                at(a),
                at(b)
            ));
        }
    }
    for (k, spec) in in_specs.iter().enumerate() {
        if group.inputs_read[k] != item.inputs_read[k] {
            return Some(format!(
                "`In` arg `{}` is read by only one of the two bodies",
                spec.name
            ));
        }
    }
    None
}

/// The first output element a range run of the group body stored
/// differently from the per-item run `oracle`.
///
/// # Errors
///
/// A missing output buffer.
fn range_divergence(
    got: &Memory,
    oracle: &Memory,
    out_ids: &[BufferId],
    out_specs: &[&ArgSpec],
) -> ClResult<Option<String>> {
    for (id, spec) in out_ids.iter().zip(out_specs) {
        let (a, b) = (got.get(*id)?, oracle.get(*id)?);
        if let Some(i) = (0..a.len()).find(|&i| a[i].to_bits() != b[i].to_bits()) {
            return Ok(Some(format!(
                "element {i} of `{}` gets {:?} from the group body and {:?} from the \
                 per-item body",
                spec.name, a[i], b[i]
            )));
        }
    }
    Ok(None)
}
