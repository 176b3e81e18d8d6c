//! Footprint validation sweep: every Polybench kernel's declared
//! [`AccessPattern`]s against the sanitizer's shadow write-maps and
//! against a per-work-item walk.
//!
//! For every launch of every benchmark (at the sweep sizes), the declared
//! symbolic write footprint of each work-group range must **equal or
//! conservatively contain** the elements the kernel body actually wrote
//! ([`execute_groups_shadowed`] is the ground truth). A subset would let
//! the race detector under-approximate what a subkernel shipped — the
//! one direction that is unsound — so it fails the test; slack (declared
//! but unwritten elements) is sound and reported per kernel.
//!
//! Footprints are computed in closed form from work-group geometry; every
//! read and write footprint must also equal, exactly, the union of the
//! declared per-item ranges over every work-item of the slice.

use fluidicl_check::{sweep_size, SWEEP_SEED};
use fluidicl_des::SimDuration;
use fluidicl_polybench::all_benchmarks;
use fluidicl_vcl::exec::execute_all;
use fluidicl_vcl::{
    execute_groups_shadowed, AccessPattern, BufferId, ClDriver, ClResult, DirtyRanges, KernelArg,
    Launch, Memory, NdRange, Scalars, WorkItem,
};

/// The per-item ranges `pattern` declares for `item`. CORR's `symmat` is
/// the suite's only `Custom` declaration; its per-item rule is spelled
/// out here: item j1 writes the tail of row j1 and the mirrored cells
/// `symmat[j2][j1]` below the diagonal.
fn item_ranges(
    kernel: &str,
    pattern: &AccessPattern,
    item: &WorkItem,
    s: &Scalars,
    len: usize,
) -> Vec<(usize, usize)> {
    match pattern {
        AccessPattern::Element => {
            let i = item.global_linear();
            vec![(i, i + 1)]
        }
        AccessPattern::Row { dim, width_scalar } => {
            let (k, w) = (item.global[*dim], s.usize(*width_scalar));
            vec![(k * w, (k + 1) * w)]
        }
        AccessPattern::Col { dim, width_scalar } => {
            let (k, w) = (item.global[*dim], s.usize(*width_scalar));
            let rows = if w == 0 { 0 } else { len.div_ceil(w) };
            (0..rows).map(|r| (k + r * w, k + r * w + 1)).collect()
        }
        AccessPattern::WholeBuffer => vec![(0, len)],
        AccessPattern::Custom(_) => {
            assert_eq!(kernel, "corr_corr", "no per-item rule for `{kernel}`");
            let (n, j1) = (s.usize(0), item.global[0]);
            std::iter::once((j1 * n + j1, j1 * n + n))
                .chain((j1 + 1..n).map(|j2| (j2 * n + j1, j2 * n + j1 + 1)))
                .collect()
        }
    }
}

/// Reference footprint: walks every work-item of groups `[from, to)`.
fn item_walk(
    kernel: &str,
    pattern: &AccessPattern,
    nd: &NdRange,
    s: &Scalars,
    len: usize,
    from: u64,
    to: u64,
) -> DirtyRanges {
    let (local, global) = (nd.local(), nd.global());
    let mut ranges = Vec::new();
    for flat in from..to {
        let group = nd.unflatten_group(flat);
        for lz in 0..local[2] {
            for ly in 0..local[1] {
                for lx in 0..local[0] {
                    let l = [lx, ly, lz];
                    let item = WorkItem {
                        global: [0, 1, 2].map(|d| group[d] * local[d] + l[d]),
                        local: l,
                        group,
                        local_size: local,
                        global_size: global,
                    };
                    ranges.extend(
                        item_ranges(kernel, pattern, &item, s, len)
                            .into_iter()
                            .map(|(a, b)| (a, b.min(len))),
                    );
                }
            }
        }
    }
    DirtyRanges::from_ranges(ranges)
}

/// Compares the closed-form footprint of every declared buffer argument
/// with the item walk over groups `[from, to)`; returns one message per
/// mismatch.
fn oracle_mismatches(
    launch: &Launch,
    mem: &Memory,
    s: &Scalars,
    from: u64,
    to: u64,
) -> ClResult<Vec<String>> {
    let name = launch.kernel.name();
    let mut out = Vec::new();
    for (spec, arg) in launch.kernel.args().iter().zip(&launch.args) {
        let (Some(p), KernelArg::Buffer(id)) = (&spec.access, arg) else {
            continue;
        };
        let len = mem.get(*id)?.len();
        let closed = p.footprint(&launch.ndrange, s, len, from, to);
        if closed != item_walk(name, p, &launch.ndrange, s, len, from, to) {
            out.push(format!(
                "kernel `{name}` arg `{}` ({p:?}), groups {from}..{to}: closed-form \
                 footprint differs from the per-item walk",
                spec.name
            ));
        }
    }
    Ok(out)
}

/// A [`ClDriver`] that, on every enqueue, checks the kernel's declared
/// write footprints against shadow-executed ground truth — whole-launch
/// and per-quarter work-group ranges (the race detector consumes
/// arbitrary `[from, to)` slices, so the parametrization must hold below
/// whole-launch granularity too).
struct FootprintDriver {
    program: fluidicl_vcl::Program,
    mem: Memory,
    next_id: u64,
    violations: Vec<String>,
    slack: Vec<String>,
    checked_kernels: Vec<String>,
}

impl FootprintDriver {
    fn new(program: fluidicl_vcl::Program) -> Self {
        FootprintDriver {
            program,
            mem: Memory::new(),
            next_id: 0,
            violations: Vec::new(),
            slack: Vec::new(),
            checked_kernels: Vec::new(),
        }
    }

    fn check_launch(&mut self, kernel: &str, launch: &Launch) -> ClResult<()> {
        let total = launch.ndrange.num_groups();
        let (_ins, outs, scalars) = launch.kernel.classify_args(&launch.args)?;
        let out_lens: Vec<usize> = outs
            .iter()
            .map(|id| self.mem.get(*id).map(<[f32]>::len))
            .collect::<ClResult<_>>()?;
        assert!(
            launch.kernel.has_write_footprints(),
            "kernel `{kernel}` must declare an AccessPattern on every output argument"
        );
        // Whole launch plus four quarters: the race detector slices
        // footprints at subkernel boundaries, not just 0..total.
        let quarter = (total / 4).max(1);
        let mut ranges = vec![(0, total)];
        let mut lo = 0;
        while lo < total {
            let hi = (lo + quarter).min(total);
            ranges.push((lo, hi));
            lo = hi;
        }
        for (from, to) in ranges {
            let mismatches = oracle_mismatches(launch, &self.mem, &scalars, from, to)?;
            self.violations.extend(mismatches);
            let declared = launch
                .kernel
                .write_footprints(&launch.ndrange, &scalars, &out_lens, from, to)
                .expect("has_write_footprints checked above");
            let mut m = self.mem.clone();
            let rec = execute_groups_shadowed(launch, &mut m, from, to)?;
            for (k, decl) in declared.iter().enumerate() {
                let observed =
                    DirtyRanges::from_ranges(rec.total_writes(k).keys().map(|&i| (i, i + 1)));
                let inside = observed.intersect(decl);
                if inside.element_count() != observed.element_count() {
                    self.violations.push(format!(
                        "kernel `{kernel}` out arg {k}, groups {from}..{to}: kernel wrote \
                         {} element(s) outside its declared footprint",
                        observed.element_count() - inside.element_count()
                    ));
                }
                let slack = decl.element_count() - inside.element_count();
                if slack > 0 && (from, to) == (0, total) {
                    self.slack.push(format!(
                        "kernel `{kernel}` out arg {k}: declared footprint exceeds observed \
                         writes by {slack} element(s) (conservative, sound)"
                    ));
                }
            }
        }
        self.checked_kernels.push(kernel.to_string());
        Ok(())
    }
}

impl ClDriver for FootprintDriver {
    fn create_buffer(&mut self, len: usize) -> BufferId {
        let id = BufferId(self.next_id);
        self.next_id += 1;
        self.mem.alloc(id, len);
        id
    }

    fn write_buffer(&mut self, id: BufferId, data: &[f32]) -> ClResult<()> {
        self.mem.write(id, data)
    }

    fn enqueue_kernel(
        &mut self,
        kernel: &str,
        ndrange: NdRange,
        args: &[KernelArg],
    ) -> ClResult<()> {
        let def = self.program.kernel(kernel)?;
        let launch = Launch::new(def, ndrange, args.to_vec());
        self.check_launch(kernel, &launch)?;
        execute_all(&launch, &mut self.mem)
    }

    fn read_buffer(&mut self, id: BufferId) -> ClResult<Vec<f32>> {
        self.mem.get(id).map(<[f32]>::to_vec)
    }

    fn elapsed(&self) -> SimDuration {
        SimDuration::ZERO
    }

    fn kernel_times(&self) -> Vec<(String, SimDuration)> {
        Vec::new()
    }
}

#[test]
fn declared_footprints_contain_shadow_write_maps() {
    let mut kernels_checked = 0usize;
    for b in all_benchmarks() {
        let n = sweep_size(b.name);
        let mut driver = FootprintDriver::new((b.program)(n));
        let ok = b
            .run_and_validate_sized(&mut driver, n, SWEEP_SEED)
            .expect("benchmark runs");
        assert!(ok, "{}: output mismatch", b.name);
        assert!(
            driver.violations.is_empty(),
            "{}: declared footprints under-approximate real writes or differ from the \
             per-item walk:\n{}",
            b.name,
            driver.violations.join("\n")
        );
        for line in &driver.slack {
            println!("{}: {line}", b.name);
        }
        kernels_checked += driver.checked_kernels.len();
    }
    // 15 registered kernels across the suite, all launched at least once.
    assert!(
        kernels_checked >= 15,
        "expected every kernel checked, saw {kernels_checked} launches"
    );
}
