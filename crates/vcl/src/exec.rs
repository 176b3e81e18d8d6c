//! Functional kernel execution.
//!
//! The executor actually *computes* kernel results over device memory: when
//! FluidiCL assigns flattened work-groups `[a, b)` to one device, this module
//! runs exactly those work-items against that device's buffers. Partitioning
//! or merging bugs therefore corrupt real output and are caught by the
//! benchmark validation against sequential references — the timing models
//! only decide *when* things happen, never *what* is computed.

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use crate::kernel::{GroupBody, Inputs, KernelBody, KernelDef, KernelVersion, Outputs, Scalars};
use crate::memory::make_private;
use crate::ndrange::for_each_item_in_group;
use crate::{BufferId, ClError, ClResult, KernelArg, Memory, NdRange, WorkCounters};

/// The launch-wide execution plan: the argument classification that every
/// wave and subkernel of one launch shares.
///
/// Deriving it means validating the argument list against the kernel
/// signature and building three vectors; re-deriving it on every
/// [`execute_groups`] call made it the per-launch constant most frequently
/// recomputed in the hot loop. The plan is computed once per [`Launch`] and
/// cached (cloned launches share it through an [`Arc`]).
#[derive(Clone, Debug)]
pub struct LaunchPlan {
    /// `In`-role buffers, in signature order.
    pub ins: Vec<BufferId>,
    /// `Out`/`InOut`-role buffers, in signature order.
    pub outs: Vec<BufferId>,
    /// Scalar arguments of the launch.
    pub scalars: Scalars,
}

/// A fully specified kernel launch (kernel + version + geometry + arguments).
#[derive(Clone, Debug)]
pub struct Launch {
    /// The kernel to run.
    pub kernel: Arc<KernelDef>,
    /// Which implementation to use (index into [`KernelDef::versions`]).
    pub version: usize,
    /// Index space.
    pub ndrange: NdRange,
    /// Argument values matching the kernel signature.
    ///
    /// Mutating the arguments after the launch has executed is unsupported:
    /// the classification is cached on first use (see [`Launch::plan`]).
    pub args: Vec<KernelArg>,
    plan: OnceLock<Arc<LaunchPlan>>,
}

impl Launch {
    /// Creates a launch of the default kernel version.
    pub fn new(kernel: Arc<KernelDef>, ndrange: NdRange, args: Vec<KernelArg>) -> Self {
        Launch {
            kernel,
            version: 0,
            ndrange,
            args,
            plan: OnceLock::new(),
        }
    }

    /// The cached argument classification of this launch.
    ///
    /// The first call validates the arguments against the kernel signature
    /// and memoizes the result; later calls (every wave and subkernel of a
    /// co-execution) return the cached plan. Classification *errors* are
    /// not cached — they abort the launch before any hot loop runs.
    ///
    /// # Errors
    ///
    /// Propagates signature validation errors from
    /// [`KernelDef::classify_args`].
    pub fn plan(&self) -> ClResult<&LaunchPlan> {
        if let Some(plan) = self.plan.get() {
            return Ok(plan);
        }
        let (ins, outs, scalars) = self.kernel.classify_args(&self.args)?;
        let _ = self.plan.set(Arc::new(LaunchPlan { ins, outs, scalars }));
        Ok(self.plan.get().expect("plan just initialized"))
    }

    /// The kernel version this launch resolves to (falling back to the
    /// default implementation for an out-of-range index).
    pub fn resolved_version(&self) -> &KernelVersion {
        self.kernel
            .versions()
            .get(self.version)
            .unwrap_or_else(|| self.kernel.default_version())
    }

    /// Buffers the launch may modify (`Out`/`InOut`), in signature order.
    ///
    /// # Errors
    ///
    /// Propagates signature validation errors.
    pub fn output_buffers(&self) -> ClResult<Vec<BufferId>> {
        Ok(self.plan()?.outs.clone())
    }

    /// Buffers the launch reads (`In`), in signature order.
    ///
    /// # Errors
    ///
    /// Propagates signature validation errors.
    pub fn input_buffers(&self) -> ClResult<Vec<BufferId>> {
        Ok(self.plan()?.ins.clone())
    }
}

/// Executes flattened work-groups `[from, to)` of `launch` against `mem`.
///
/// The version's group body, when it has one, runs once over the whole
/// range; otherwise the per-item body runs once per work-item. Both store
/// the same bits. The groups, body calls and any copy that makes an output
/// private are counted in `mem`'s [`Memory::work`].
///
/// # Errors
///
/// Returns an error if the arguments do not match the kernel signature, a
/// buffer is missing from `mem`, or the range is out of bounds.
pub fn execute_groups(launch: &Launch, mem: &mut Memory, from: u64, to: u64) -> ClResult<()> {
    execute(launch, mem, from, to, false)
}

/// [`execute_groups`] through the per-item body even when the version has
/// a group body: the oracle a group body is compared against.
///
/// # Errors
///
/// Same as [`execute_groups`].
pub fn execute_groups_per_item(
    launch: &Launch,
    mem: &mut Memory,
    from: u64,
    to: u64,
) -> ClResult<()> {
    execute(launch, mem, from, to, true)
}

fn execute(launch: &Launch, mem: &mut Memory, from: u64, to: u64, per_item: bool) -> ClResult<()> {
    check_range(launch, from, to)?;
    let plan = launch.plan()?;
    let body = Body::of(launch.resolved_version(), per_item);

    // Split borrows: move output buffers out of the memory map, then borrow
    // inputs immutably from what remains. Each output is made private to
    // this address space on the way (copied only if it is still shared).
    let mut work = WorkCounters {
        groups_executed: to - from,
        ..WorkCounters::default()
    };
    let mut taken = take_outputs(mem, &plan.outs)?;
    let result = (|| -> ClResult<()> {
        let mut in_slices = Vec::with_capacity(plan.ins.len());
        for id in &plan.ins {
            in_slices.push(mem.get(*id)?);
        }
        let ins = Inputs::new(in_slices);
        let mut outs = Outputs::new(out_slices(&mut taken, &mut work));
        work.body_calls = body.run(&launch.ndrange, from..to, &plan.scalars, &ins, &mut outs);
        Ok(())
    })();
    restore_outputs(mem, taken);
    if result.is_ok() {
        mem.work += work;
    }
    result
}

/// Rejects a group range that is reversed or runs past the launch.
pub(crate) fn check_range(launch: &Launch, from: u64, to: u64) -> ClResult<()> {
    let total = launch.ndrange.num_groups();
    if from > to || to > total {
        return Err(ClError::InvalidNdRange(format!(
            "group range {from}..{to} exceeds {total} groups"
        )));
    }
    Ok(())
}

/// The function that computes a range of work-groups of a launch.
#[derive(Clone, Copy)]
pub(crate) enum Body<'a> {
    /// The version's group body, called once per range.
    Group(&'a GroupBody),
    /// The per-item body, called once per work-item of the range.
    Item(&'a KernelBody),
}

impl<'a> Body<'a> {
    /// The group body of `version` unless `per_item` or it has none.
    pub(crate) fn of(version: &'a KernelVersion, per_item: bool) -> Self {
        match &version.group_body {
            Some(g) if !per_item => Body::Group(g.as_ref()),
            _ => Body::Item(version.body.as_ref()),
        }
    }

    /// Computes flattened work-groups `groups` of `nd` and returns how many
    /// times it called the body.
    pub(crate) fn run(
        self,
        nd: &NdRange,
        groups: Range<u64>,
        scalars: &Scalars,
        ins: &Inputs<'_>,
        outs: &mut Outputs<'_>,
    ) -> u64 {
        match self {
            Body::Group(body) => {
                body(nd, groups, scalars, ins, outs);
                1
            }
            Body::Item(body) => {
                let mut calls = 0;
                for group in nd.groups_in(groups) {
                    for_each_item_in_group(nd, group, |item| {
                        body(item, scalars, ins, outs);
                        calls += 1;
                    });
                }
                calls
            }
        }
    }
}

/// Output buffers moved out of a [`Memory`] for the duration of a launch.
pub(crate) type Taken = Vec<(BufferId, Arc<Vec<f32>>)>;

/// Removes the output buffers from `mem` in signature order, restoring any
/// already-taken buffers if one is missing. The allocations move out with
/// their sharing intact; [`out_slices`] makes them writable.
pub(crate) fn take_outputs(mem: &mut Memory, out_ids: &[BufferId]) -> ClResult<Taken> {
    let mut taken: Taken = Vec::with_capacity(out_ids.len());
    for id in out_ids {
        match mem.take(*id) {
            Ok(v) => taken.push((*id, v)),
            Err(e) => {
                restore_outputs(mem, taken);
                return Err(e);
            }
        }
    }
    Ok(taken)
}

/// Writable views of taken outputs, in signature order. A buffer this
/// address space owns alone is borrowed in place (no allocation); one still
/// shared with another address space is copied first, and counted in
/// `work`.
pub(crate) fn out_slices<'t>(taken: &'t mut Taken, work: &mut WorkCounters) -> Vec<&'t mut [f32]> {
    taken
        .iter_mut()
        .map(|(_, v)| make_private(v, work))
        .collect()
}

/// Puts taken outputs back into `mem` — the same allocations, so a launch
/// on private buffers neither allocates nor copies.
pub(crate) fn restore_outputs(mem: &mut Memory, taken: Taken) {
    for (id, v) in taken {
        mem.install(id, v);
    }
}

/// Fault-aware variant of [`execute_groups`]: consults `injector` (when
/// present) before touching `mem`, so an execution attributed to a lost
/// `device` fails with [`ClError::DeviceLost`] instead of computing results
/// a dead device could never have produced. Used by the degraded
/// (single-survivor) path of the cooperative runtime.
///
/// # Errors
///
/// [`ClError::DeviceLost`] when `device` is dead, otherwise the same as
/// [`execute_groups`].
pub fn execute_groups_injected(
    launch: &Launch,
    mem: &mut Memory,
    from: u64,
    to: u64,
    injector: Option<&crate::fault::FaultInjector>,
    device: crate::DeviceKind,
) -> ClResult<()> {
    if let Some(inj) = injector {
        if inj.device_lost(device) {
            return Err(ClError::DeviceLost {
                device,
                detail: format!("cannot execute groups {from}..{to} on a lost device"),
            });
        }
    }
    execute_groups(launch, mem, from, to)
}

/// Executes the entire NDRange of `launch` against `mem`.
///
/// # Errors
///
/// Same as [`execute_groups`].
pub fn execute_all(launch: &Launch, mem: &mut Memory) -> ClResult<()> {
    let total = launch.ndrange.num_groups();
    execute_groups(launch, mem, 0, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{ArgRole, ArgSpec, KernelDef};
    use fluidicl_hetsim::KernelProfile;

    fn scale_kernel() -> Arc<KernelDef> {
        Arc::new(KernelDef::new(
            "scale",
            vec![
                ArgSpec::new("src", ArgRole::In),
                ArgSpec::new("dst", ArgRole::Out),
                ArgSpec::new("factor", ArgRole::Scalar),
            ],
            KernelProfile::new("scale"),
            |item, scalars, ins, outs| {
                let i = item.global_linear();
                outs.at(0)[i] = ins.get(0)[i] * scalars.f32(0);
            },
        ))
    }

    fn setup(n: usize) -> (Memory, Arc<KernelDef>) {
        let mut mem = Memory::new();
        mem.install(BufferId(0), (0..n).map(|i| i as f32).collect::<Vec<f32>>());
        mem.alloc(BufferId(1), n);
        (mem, scale_kernel())
    }

    #[test]
    fn executes_full_range() {
        let (mut mem, k) = setup(16);
        let launch = Launch::new(
            k,
            NdRange::d1(16, 4).unwrap(),
            vec![
                KernelArg::Buffer(BufferId(0)),
                KernelArg::Buffer(BufferId(1)),
                KernelArg::F32(2.0),
            ],
        );
        execute_all(&launch, &mut mem).unwrap();
        let out = mem.get(BufferId(1)).unwrap();
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, 2.0 * i as f32);
        }
    }

    #[test]
    fn executes_partial_range_only() {
        let (mut mem, k) = setup(16);
        let launch = Launch::new(
            k,
            NdRange::d1(16, 4).unwrap(),
            vec![
                KernelArg::Buffer(BufferId(0)),
                KernelArg::Buffer(BufferId(1)),
                KernelArg::F32(2.0),
            ],
        );
        // Only groups 2 and 3 → items 8..16.
        execute_groups(&launch, &mut mem, 2, 4).unwrap();
        let out = mem.get(BufferId(1)).unwrap();
        for (i, &v) in out.iter().enumerate() {
            if i < 8 {
                assert_eq!(v, 0.0, "untouched region must stay zero");
            } else {
                assert_eq!(v, 2.0 * i as f32);
            }
        }
    }

    #[test]
    fn disjoint_ranges_compose_to_full_result() {
        let (mut mem, k) = setup(16);
        let launch = Launch::new(
            k,
            NdRange::d1(16, 4).unwrap(),
            vec![
                KernelArg::Buffer(BufferId(0)),
                KernelArg::Buffer(BufferId(1)),
                KernelArg::F32(3.0),
            ],
        );
        execute_groups(&launch, &mut mem, 0, 2).unwrap();
        execute_groups(&launch, &mut mem, 2, 4).unwrap();
        let out = mem.get(BufferId(1)).unwrap();
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, 3.0 * i as f32);
        }
    }

    #[test]
    fn out_of_range_is_rejected() {
        let (mut mem, k) = setup(16);
        let launch = Launch::new(
            k,
            NdRange::d1(16, 4).unwrap(),
            vec![
                KernelArg::Buffer(BufferId(0)),
                KernelArg::Buffer(BufferId(1)),
                KernelArg::F32(1.0),
            ],
        );
        assert!(matches!(
            execute_groups(&launch, &mut mem, 0, 5),
            Err(ClError::InvalidNdRange(_))
        ));
    }

    #[test]
    fn missing_buffer_restores_memory() {
        let (mut mem, k) = setup(16);
        let launch = Launch::new(
            k,
            NdRange::d1(16, 4).unwrap(),
            vec![
                KernelArg::Buffer(BufferId(0)),
                KernelArg::Buffer(BufferId(99)), // missing output
                KernelArg::F32(1.0),
            ],
        );
        assert!(execute_all(&launch, &mut mem).is_err());
        assert!(mem.contains(BufferId(0)), "inputs must survive failure");
    }

    #[test]
    fn inout_buffers_read_their_previous_content() {
        let k = Arc::new(KernelDef::new(
            "incr",
            vec![ArgSpec::new("data", ArgRole::InOut)],
            KernelProfile::new("incr"),
            |item, _, _, outs| {
                let i = item.global_linear();
                outs.at(0)[i] += 1.0;
            },
        ));
        let mut mem = Memory::new();
        mem.install(BufferId(5), vec![10.0, 20.0]);
        let launch = Launch::new(
            k,
            NdRange::d1(2, 1).unwrap(),
            vec![KernelArg::Buffer(BufferId(5))],
        );
        execute_all(&launch, &mut mem).unwrap();
        assert_eq!(mem.get(BufferId(5)).unwrap(), &[11.0, 21.0]);
    }

    #[test]
    fn range_body_runs_once_per_call_over_exactly_its_range() {
        use std::sync::Mutex;
        // The group body logs its ranges and stores the group id + 100, so
        // the two paths are told apart; a real group body must match the
        // per-item body.
        let calls = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&calls);
        let k = Arc::new(
            KernelDef::new(
                "ids",
                vec![ArgSpec::new("dst", ArgRole::Out)],
                KernelProfile::new("ids"),
                |item, _, _, outs| outs.at(0)[item.global_linear()] = item.group[0] as f32,
            )
            .with_group_body(move |nd, groups, _, _, outs| {
                log.lock()
                    .expect("no panic while logging")
                    .push(groups.clone());
                for g in groups.clone() {
                    for v in &mut outs.at(0)[nd.range_items(g..g + 1)] {
                        *v = g as f32 + 100.0;
                    }
                }
            }),
        );
        let launch = Launch::new(
            k,
            NdRange::d1(16, 2).unwrap(),
            vec![KernelArg::Buffer(BufferId(0))],
        );
        let mut mem = Memory::new();
        mem.alloc(BufferId(0), 16);
        execute_groups(&launch, &mut mem, 1, 4).unwrap();
        execute_groups(&launch, &mut mem, 4, 7).unwrap();
        assert_eq!(*calls.lock().unwrap(), vec![1..4, 4..7]);

        // The shadowed run hands the body one group at a time and records
        // one entry per group.
        calls.lock().unwrap().clear();
        let rec = crate::access::execute_groups_shadowed(&launch, &mut mem, 2, 5).unwrap();
        assert_eq!(*calls.lock().unwrap(), vec![2..3, 3..4, 4..5]);
        assert_eq!(
            rec.groups.iter().map(|(g, _)| *g).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );

        // The per-item path never calls the group body.
        calls.lock().unwrap().clear();
        execute_groups_per_item(&launch, &mut mem, 0, 1).unwrap();
        assert!(calls.lock().unwrap().is_empty());
        let out = mem.get(BufferId(0)).unwrap();
        assert_eq!(out[..2], [0.0, 0.0]);
        assert_eq!(
            out[2..14],
            [101., 101., 102., 102., 103., 103., 104., 104., 105., 105., 106., 106.]
        );
        assert_eq!(out[14..], [0.0, 0.0]);
        assert!(matches!(
            execute_groups_per_item(&launch, &mut mem, 0, 9),
            Err(ClError::InvalidNdRange(_))
        ));
    }

    #[test]
    fn plan_is_cached_across_calls() {
        let (_, k) = setup(4);
        let launch = Launch::new(
            k,
            NdRange::d1(4, 4).unwrap(),
            vec![
                KernelArg::Buffer(BufferId(0)),
                KernelArg::Buffer(BufferId(1)),
                KernelArg::F32(1.0),
            ],
        );
        let first: *const LaunchPlan = launch.plan().unwrap();
        let second: *const LaunchPlan = launch.plan().unwrap();
        assert_eq!(first, second, "second call must return the cached plan");
    }

    #[test]
    fn plan_errors_are_not_cached() {
        let (_, k) = setup(4);
        let launch = Launch::new(k, NdRange::d1(4, 4).unwrap(), vec![]);
        assert!(launch.plan().is_err());
        assert!(launch.plan().is_err(), "error repeats, no stale cache");
    }

    #[test]
    fn injected_execution_refuses_a_lost_device() {
        use crate::fault::{FaultInjector, FaultKind, FaultPlan};
        let (mut mem, k) = setup(16);
        let launch = Launch::new(
            k,
            NdRange::d1(16, 4).unwrap(),
            vec![
                KernelArg::Buffer(BufferId(0)),
                KernelArg::Buffer(BufferId(1)),
                KernelArg::F32(2.0),
            ],
        );
        let mut inj = FaultInjector::new(FaultPlan::new(FaultKind::GpuLost, 1));
        while !inj.kill_gpu_wave() {}
        assert!(matches!(
            execute_groups_injected(&launch, &mut mem, 0, 4, Some(&inj), crate::DeviceKind::Gpu),
            Err(ClError::DeviceLost { .. })
        ));
        // The surviving device still executes.
        execute_groups_injected(&launch, &mut mem, 0, 4, Some(&inj), crate::DeviceKind::Cpu)
            .unwrap();
        assert_eq!(mem.get(BufferId(1)).unwrap()[8], 16.0);
    }

    #[test]
    fn launch_exposes_buffer_classification() {
        let (_, k) = setup(4);
        let launch = Launch::new(
            k,
            NdRange::d1(4, 4).unwrap(),
            vec![
                KernelArg::Buffer(BufferId(0)),
                KernelArg::Buffer(BufferId(1)),
                KernelArg::F32(1.0),
            ],
        );
        assert_eq!(launch.input_buffers().unwrap(), vec![BufferId(0)]);
        assert_eq!(launch.output_buffers().unwrap(), vec![BufferId(1)]);
    }
}
