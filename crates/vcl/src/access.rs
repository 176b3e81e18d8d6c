//! Shadow-memory access recording for the kernel sanitizer.
//!
//! [`execute_groups_shadowed`] runs a launch exactly like
//! [`execute_groups`](crate::exec::execute_groups) but one work-group at a
//! time (a group body sees single-group ranges `[g, g + 1)`), diffing
//! every output buffer against a pre-group snapshot. The result is, per
//! work-group, the exact set of elements it wrote (index → bit
//! pattern) plus, per `In` argument, whether the kernel body ever read it.
//! `fluidicl-check` compares these records across sentinel-poisoned runs to
//! detect `ArgRole` misdeclarations and cross-work-group write conflicts.
//!
//! Like the diff-merge of paper §4.3, the snapshot diff cannot see a write
//! that stores the value already present. The sanitizer compensates by
//! poisoning `Out` buffers with sentinels no kernel computes, which makes
//! every genuine write visible.

use std::collections::BTreeMap;

use crate::exec::{check_range, out_slices, restore_outputs, take_outputs, Body, Launch};
use crate::kernel::{Inputs, Outputs};
use crate::{ClResult, Memory, WorkCounters};

/// Elements one work-group wrote to one output buffer: index → stored bit
/// pattern (`f32::to_bits`, so `NaN`s and signed zeros compare exactly).
pub type WriteMap = BTreeMap<usize, u32>;

/// Access record of one executed work-group range.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AccessRecord {
    /// Per executed work-group: its flattened id and, per output argument
    /// (in signature order among `Out`/`InOut` arguments), the elements it
    /// wrote.
    pub groups: Vec<(u64, Vec<WriteMap>)>,
    /// Per `In` argument (signature order): whether any work-item read it.
    pub inputs_read: Vec<bool>,
}

impl AccessRecord {
    /// Union of all per-group write maps for output argument `out_idx`.
    pub fn total_writes(&self, out_idx: usize) -> WriteMap {
        let mut all = WriteMap::new();
        for (_, maps) in &self.groups {
            all.extend(maps[out_idx].iter().map(|(&i, &b)| (i, b)));
        }
        all
    }
}

/// Executes flattened work-groups `[from, to)` of `launch` against `mem`,
/// recording per-group write sets and input-read flags.
///
/// Semantically identical to `execute_groups` (the same values end up in
/// `mem`, computed by the same body: the group body when the version has
/// one), just slower: every group pays a snapshot + diff over the output
/// buffers, so this is a debugging/verification tool, not an execution path.
///
/// # Errors
///
/// Same conditions as `execute_groups`: signature mismatch, missing buffer,
/// or an out-of-bounds range.
pub fn execute_groups_shadowed(
    launch: &Launch,
    mem: &mut Memory,
    from: u64,
    to: u64,
) -> ClResult<AccessRecord> {
    shadowed(launch, mem, from, to, false)
}

/// [`execute_groups_shadowed`] through the per-item body even when the
/// version has a group body — the oracle record a group body must match.
///
/// # Errors
///
/// Same as [`execute_groups_shadowed`].
pub fn execute_groups_shadowed_per_item(
    launch: &Launch,
    mem: &mut Memory,
    from: u64,
    to: u64,
) -> ClResult<AccessRecord> {
    shadowed(launch, mem, from, to, true)
}

fn shadowed(
    launch: &Launch,
    mem: &mut Memory,
    from: u64,
    to: u64,
    per_item: bool,
) -> ClResult<AccessRecord> {
    check_range(launch, from, to)?;
    let plan = launch.plan()?;
    let body = Body::of(launch.resolved_version(), per_item);

    let mut work = WorkCounters {
        groups_executed: to - from,
        ..WorkCounters::default()
    };
    let mut taken = take_outputs(mem, &plan.outs)?;
    let result = (|| -> ClResult<AccessRecord> {
        let mut in_slices = Vec::with_capacity(plan.ins.len());
        for id in &plan.ins {
            in_slices.push(mem.get(*id)?);
        }
        let ins = Inputs::with_read_tracking(in_slices);
        let mut outs = Outputs::new(out_slices(&mut taken, &mut work));
        let mut shadow = ShadowMemory::capture(&outs);
        let mut groups = Vec::with_capacity((to - from) as usize);
        for flat in from..to {
            work.body_calls += body.run(
                &launch.ndrange,
                flat..flat + 1,
                &plan.scalars,
                &ins,
                &mut outs,
            );
            groups.push((flat, shadow.diff_and_advance(&outs)));
        }
        Ok(AccessRecord {
            groups,
            inputs_read: ins.reads().expect("tracking inputs carry flags"),
        })
    })();
    restore_outputs(mem, taken);
    if result.is_ok() {
        mem.work += work;
    }
    result
}

/// Snapshot of every output buffer, advanced group by group so each diff
/// isolates exactly one work-group's writes.
struct ShadowMemory {
    baselines: Vec<Vec<u32>>,
}

impl ShadowMemory {
    fn capture(outs: &Outputs<'_>) -> Self {
        let baselines = (0..outs.len())
            .map(|i| outs.read(i).iter().map(|v| v.to_bits()).collect())
            .collect();
        ShadowMemory { baselines }
    }

    /// Bit-level diff of each output buffer against the baseline, then
    /// folds the new content into the baseline for the next group.
    fn diff_and_advance(&mut self, outs: &Outputs<'_>) -> Vec<WriteMap> {
        self.baselines
            .iter_mut()
            .enumerate()
            .map(|(o, base)| {
                let mut writes = WriteMap::new();
                for (i, v) in outs.read(o).iter().enumerate() {
                    let bits = v.to_bits();
                    if bits != base[i] {
                        writes.insert(i, bits);
                        base[i] = bits;
                    }
                }
                writes
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::exec::execute_groups;
    use crate::kernel::{ArgRole, ArgSpec, KernelDef};
    use crate::ClError;
    use crate::{BufferId, KernelArg, NdRange};
    use fluidicl_hetsim::KernelProfile;

    fn scale_kernel() -> Arc<KernelDef> {
        Arc::new(KernelDef::new(
            "scale",
            vec![
                ArgSpec::new("src", ArgRole::In),
                ArgSpec::new("unused", ArgRole::In),
                ArgSpec::new("dst", ArgRole::Out),
            ],
            KernelProfile::new("scale"),
            |item, _, ins, outs| {
                let i = item.global_linear();
                outs.at(0)[i] = ins.get(0)[i] * 2.0;
            },
        ))
    }

    fn setup(n: usize) -> (Memory, Launch) {
        let mut mem = Memory::new();
        mem.install(BufferId(0), (1..=n).map(|i| i as f32).collect::<Vec<f32>>());
        mem.install(BufferId(1), vec![0.5; n]);
        mem.alloc(BufferId(2), n);
        let launch = Launch::new(
            scale_kernel(),
            NdRange::d1(n, 4).unwrap(),
            vec![
                KernelArg::Buffer(BufferId(0)),
                KernelArg::Buffer(BufferId(1)),
                KernelArg::Buffer(BufferId(2)),
            ],
        );
        (mem, launch)
    }

    #[test]
    fn shadowed_execution_matches_plain_execution() {
        let (mut shadowed, launch) = setup(16);
        let (mut plain, _) = setup(16);
        execute_groups_shadowed(&launch, &mut shadowed, 0, 4).unwrap();
        execute_groups(&launch, &mut plain, 0, 4).unwrap();
        assert_eq!(
            shadowed.get(BufferId(2)).unwrap(),
            plain.get(BufferId(2)).unwrap()
        );
    }

    #[test]
    fn records_per_group_write_footprints() {
        let (mut mem, launch) = setup(16);
        let rec = execute_groups_shadowed(&launch, &mut mem, 1, 3).unwrap();
        assert_eq!(rec.groups.len(), 2);
        let (flat, maps) = &rec.groups[0];
        assert_eq!(*flat, 1);
        // Group 1 covers items 4..8 of the single output buffer.
        assert_eq!(
            maps[0].keys().copied().collect::<Vec<_>>(),
            vec![4, 5, 6, 7]
        );
        assert_eq!(maps[0][&4], 10.0f32.to_bits());
        assert_eq!(rec.total_writes(0).len(), 8);
    }

    #[test]
    fn tracks_which_inputs_were_read() {
        let (mut mem, launch) = setup(8);
        let rec = execute_groups_shadowed(&launch, &mut mem, 0, 2).unwrap();
        assert_eq!(rec.inputs_read, vec![true, false]);
    }

    #[test]
    fn rewriting_the_same_value_is_invisible() {
        // Documented caveat: the shadow diff, like diff-merge, cannot see a
        // write that stores the existing value. Sentinel poisoning in
        // fluidicl-check is what makes real kernels' writes visible.
        let k = Arc::new(KernelDef::new(
            "noopwrite",
            vec![ArgSpec::new("dst", ArgRole::InOut)],
            KernelProfile::new("noopwrite"),
            |item, _, _, outs| {
                let i = item.global_linear();
                let v = outs.read(0)[i];
                outs.at(0)[i] = v;
            },
        ));
        let mut mem = Memory::new();
        mem.install(BufferId(0), vec![3.0; 4]);
        let launch = Launch::new(
            k,
            NdRange::d1(4, 4).unwrap(),
            vec![KernelArg::Buffer(BufferId(0))],
        );
        let rec = execute_groups_shadowed(&launch, &mut mem, 0, 1).unwrap();
        assert!(rec.groups[0].1[0].is_empty());
    }

    #[test]
    fn out_of_range_is_rejected() {
        let (mut mem, launch) = setup(16);
        assert!(matches!(
            execute_groups_shadowed(&launch, &mut mem, 0, 9),
            Err(ClError::InvalidNdRange(_))
        ));
    }
}
