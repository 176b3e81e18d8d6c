//! Static access-footprint analysis.
//!
//! FluidiCL's correctness tooling needs to know *which elements* a
//! work-group range reads and writes without replaying the kernel body —
//! the race detector in `fluidicl-check` consults footprints for every
//! wave, subkernel and merge of a trace, and the kernel-graph builder
//! (`fluidicl::graph`) turns them into buffer read/write-set DAG edges.
//! An [`AccessPattern`] declared on an [`ArgSpec`](crate::ArgSpec)
//! describes the element ranges each work-item touches; the footprint of
//! a flattened work-group range `[from, to)` is the union over its items.
//! That union is computed in closed form from the work-group geometry:
//! neither the kernel body nor a per-item walk runs, so a call costs
//! O(group rows × local rows), not O(work-items). The sanitizer's shadow
//! write-maps ([`execute_groups_shadowed`](crate::execute_groups_shadowed))
//! are the ground truth these declarations are validated against: a
//! declared footprint must equal — or conservatively contain — the
//! observed one.

use std::fmt;
use std::sync::Arc;

use crate::dirty::DirtyRanges;
use crate::kernel::{KernelDef, Scalars};
use crate::ndrange::NdRange;

/// Range function of a [`AccessPattern::Custom`] declaration: given the
/// launch geometry, the launch scalars, the buffer length and a non-empty
/// flattened work-group range `[from, to)`, the half-open element ranges
/// the whole slice touches. Ranges may come in any order and overlap;
/// the caller clips them to the buffer and normalises the set.
pub type RangeFn = dyn Fn(&NdRange, &Scalars, usize, u64, u64) -> Vec<(usize, usize)> + Send + Sync;

/// Declared element-access shape of one buffer argument, per work-item.
///
/// Patterns describe *writes* for `Out` arguments, *reads* for `In`
/// arguments and both for `InOut` (each item reads and writes the same
/// elements). Declarations may be conservative: a superset of the real
/// footprint is sound (it only widens what the race detector considers
/// touched), a subset is a bug the footprint validation sweep catches.
#[derive(Clone)]
pub enum AccessPattern {
    /// One element at the work-item's flattened global id
    /// ([`WorkItem::global_linear`](crate::WorkItem::global_linear)).
    Element,
    /// Row `global[dim]` of a row-major matrix whose row width is scalar
    /// argument `width_scalar`: elements `[g*w, (g+1)*w)`.
    Row {
        /// Global-id dimension selecting the row.
        dim: usize,
        /// Scalar-argument index holding the row width.
        width_scalar: usize,
    },
    /// Column `global[dim]` of a row-major matrix whose row width is
    /// scalar argument `width_scalar`: elements `g + k*w` for every row
    /// `k` of the buffer.
    Col {
        /// Global-id dimension selecting the column.
        dim: usize,
        /// Scalar-argument index holding the row width.
        width_scalar: usize,
    },
    /// Every element of the buffer (the conservative catch-all for
    /// gather-style reads).
    WholeBuffer,
    /// Arbitrary ranges for shapes the fixed vocabulary cannot express
    /// (e.g. CORR's triangular row+column write), computed for a whole
    /// work-group slice at once (see [`RangeFn`]).
    Custom(Arc<RangeFn>),
}

/// Calls `f(first, end_x)` once per maximal run of consecutive flattened
/// work-groups in `[from, to)` that share one `(y, z)` group row: the run
/// is groups `first[0]..end_x` of row `(first[1], first[2])`.
fn for_each_group_run(nd: &NdRange, from: u64, to: u64, mut f: impl FnMut([usize; 3], usize)) {
    let row_len = nd.groups()[0] as u64;
    let mut flat = from;
    while flat < to {
        let first = nd.unflatten_group(flat);
        let run = (row_len - first[0] as u64).min(to - flat);
        f(first, first[0] + run as usize);
        flat += run;
    }
}

impl AccessPattern {
    /// Builds a [`AccessPattern::Custom`] from a range-level closure (see
    /// [`RangeFn`] for its arguments).
    pub fn custom(
        f: impl Fn(&NdRange, &Scalars, usize, u64, u64) -> Vec<(usize, usize)> + Send + Sync + 'static,
    ) -> Self {
        AccessPattern::Custom(Arc::new(f))
    }

    /// Short stable label for machine-readable kernel summaries.
    pub fn label(&self) -> &'static str {
        match self {
            AccessPattern::Element => "element",
            AccessPattern::Row { .. } => "row",
            AccessPattern::Col { .. } => "col",
            AccessPattern::WholeBuffer => "whole-buffer",
            AccessPattern::Custom(_) => "custom",
        }
    }

    /// The element footprint of flattened work-groups `[from, to)` of a
    /// launch with geometry `nd` and scalar arguments `scalars`, for a
    /// buffer of `buf_len` elements. Ranges are clipped to the buffer.
    ///
    /// The result is exactly the union of the pattern over every
    /// work-item of the slice, but it is derived from group coordinates:
    /// the slice splits into runs of groups sharing a `(y, z)` group row,
    /// and each local item row of a run is one contiguous range.
    ///
    /// # Panics
    ///
    /// Panics if `[from, to)` exceeds the group count, or if a
    /// `Row`/`Col` pattern names a scalar index that is absent or not a
    /// `usize` (the same contract as the kernel body reading it).
    pub fn footprint(
        &self,
        nd: &NdRange,
        scalars: &Scalars,
        buf_len: usize,
        from: u64,
        to: u64,
    ) -> DirtyRanges {
        if from >= to || buf_len == 0 {
            return DirtyRanges::empty();
        }
        if let AccessPattern::WholeBuffer = self {
            return DirtyRanges::full(buf_len);
        }
        assert!(
            to <= nd.num_groups(),
            "work-group range {from}..{to} exceeds the launch's {} groups",
            nd.num_groups()
        );
        let clip = |(s, e): (usize, usize)| (s, e.min(buf_len));
        let (local, global) = (nd.local(), nd.global());
        let mut ranges: Vec<(usize, usize)> = Vec::new();
        match self {
            AccessPattern::Element => for_each_group_run(nd, from, to, |first, end_x| {
                let (x0, x1) = (first[0] * local[0], end_x * local[0]);
                for z in first[2] * local[2]..(first[2] + 1) * local[2] {
                    for y in first[1] * local[1]..(first[1] + 1) * local[1] {
                        let row = (z * global[1] + y) * global[0];
                        ranges.push(clip((row + x0, row + x1)));
                    }
                }
            }),
            // Row/Col footprints depend only on the *set* of index values
            // along `dim`: group coordinate `c` contributes keys
            // `c*l .. (c+1)*l`, so a run of groups is one key interval.
            AccessPattern::Row { dim, width_scalar } | AccessPattern::Col { dim, width_scalar } => {
                let w = scalars.usize(*width_scalar);
                let l = local[*dim];
                let mut coords: Vec<(usize, usize)> = Vec::new();
                for_each_group_run(nd, from, to, |first, end_x| {
                    let c = first[*dim];
                    coords.push(if *dim == 0 { (c, end_x) } else { (c, c + 1) });
                });
                let keys =
                    DirtyRanges::from_ranges(coords.into_iter().map(|(a, b)| (a * l, b * l)));
                for (ka, kb) in keys.iter() {
                    if let AccessPattern::Row { .. } = self {
                        ranges.push(clip((ka * w, kb * w)));
                    } else if w > 0 {
                        for k in 0..buf_len.div_ceil(w) {
                            ranges.push(clip((ka + k * w, kb + k * w)));
                        }
                    }
                }
            }
            AccessPattern::Custom(f) => {
                ranges.extend(f(nd, scalars, buf_len, from, to).into_iter().map(clip));
            }
            AccessPattern::WholeBuffer => unreachable!("handled above"),
        }
        DirtyRanges::from_ranges(ranges)
    }
}

impl fmt::Debug for AccessPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessPattern::Element => write!(f, "Element"),
            AccessPattern::Row { dim, width_scalar } => f
                .debug_struct("Row")
                .field("dim", dim)
                .field("width_scalar", width_scalar)
                .finish(),
            AccessPattern::Col { dim, width_scalar } => f
                .debug_struct("Col")
                .field("dim", dim)
                .field("width_scalar", width_scalar)
                .finish(),
            AccessPattern::WholeBuffer => write!(f, "WholeBuffer"),
            AccessPattern::Custom(_) => write!(f, "Custom(..)"),
        }
    }
}

impl PartialEq for AccessPattern {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (AccessPattern::Element, AccessPattern::Element)
            | (AccessPattern::WholeBuffer, AccessPattern::WholeBuffer) => true,
            (
                AccessPattern::Row {
                    dim: a,
                    width_scalar: b,
                },
                AccessPattern::Row {
                    dim: c,
                    width_scalar: d,
                },
            )
            | (
                AccessPattern::Col {
                    dim: a,
                    width_scalar: b,
                },
                AccessPattern::Col {
                    dim: c,
                    width_scalar: d,
                },
            ) => a == c && b == d,
            // Closures have no structural equality; pointer identity is the
            // honest approximation (reflexive, symmetric, transitive).
            (AccessPattern::Custom(a), AccessPattern::Custom(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Eq for AccessPattern {}

impl KernelDef {
    /// Whether every output (`Out`/`InOut`) argument declares an
    /// [`AccessPattern`] — the precondition for symbolic write footprints.
    pub fn has_write_footprints(&self) -> bool {
        self.args()
            .iter()
            .filter(|a| a.role.is_output())
            .all(|a| a.access.is_some())
    }

    /// Symbolic *write* footprints of flattened work-groups `[from, to)`:
    /// one [`DirtyRanges`] per output argument, in signature order among
    /// `Out`/`InOut` arguments, against buffer lengths `out_lens`.
    ///
    /// Returns `None` if any output argument lacks a declaration.
    pub fn write_footprints(
        &self,
        nd: &NdRange,
        scalars: &Scalars,
        out_lens: &[usize],
        from: u64,
        to: u64,
    ) -> Option<Vec<DirtyRanges>> {
        let outs: Vec<&crate::kernel::ArgSpec> =
            self.args().iter().filter(|a| a.role.is_output()).collect();
        debug_assert_eq!(outs.len(), out_lens.len(), "one length per output arg");
        outs.iter()
            .zip(out_lens)
            .map(|(a, &len)| {
                a.access
                    .as_ref()
                    .map(|p| p.footprint(nd, scalars, len, from, to))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{ArgRole, ArgSpec, KernelArg, KernelDef};
    use crate::ndrange::{for_each_item_in_group, WorkItem};
    use fluidicl_des::SplitMix64;
    use fluidicl_hetsim::KernelProfile;

    fn scalars_n(n: usize) -> Scalars {
        Scalars::from_args(
            "test",
            &[KernelArg::Usize(n)],
            &[ArgSpec::new("n", ArgRole::Scalar)],
        )
    }

    /// The definition closed-form footprints must reproduce: walk every
    /// work-item of `[from, to)`, collect the ranges `rule` gives each
    /// one, clip them to the buffer and normalise.
    fn walk_items(
        nd: &NdRange,
        buf_len: usize,
        from: u64,
        to: u64,
        mut rule: impl FnMut(&WorkItem) -> Vec<(usize, usize)>,
    ) -> DirtyRanges {
        let mut ranges = Vec::new();
        for flat in from..to {
            for_each_item_in_group(nd, nd.unflatten_group(flat), |item| {
                ranges.extend(rule(item).into_iter().map(|(s, e)| (s, e.min(buf_len))));
            });
        }
        DirtyRanges::from_ranges(ranges)
    }

    /// Per-item oracle for the fixed vocabulary.
    fn oracle(
        p: &AccessPattern,
        nd: &NdRange,
        s: &Scalars,
        len: usize,
        from: u64,
        to: u64,
    ) -> DirtyRanges {
        match p {
            AccessPattern::Element => walk_items(nd, len, from, to, |it| {
                let i = it.global_linear();
                vec![(i, i + 1)]
            }),
            AccessPattern::Row { dim, width_scalar } => {
                let w = s.usize(*width_scalar);
                walk_items(nd, len, from, to, |it| {
                    let g = it.global[*dim];
                    vec![(g * w, (g + 1) * w)]
                })
            }
            AccessPattern::Col { dim, width_scalar } => {
                let w = s.usize(*width_scalar);
                let rows = if w == 0 { 0 } else { len.div_ceil(w) };
                walk_items(nd, len, from, to, |it| {
                    let g = it.global[*dim];
                    (0..rows).map(|k| (g + k * w, g + k * w + 1)).collect()
                })
            }
            AccessPattern::WholeBuffer if from < to => DirtyRanges::full(len),
            AccessPattern::WholeBuffer => DirtyRanges::empty(),
            AccessPattern::Custom(_) => unreachable!("custom patterns carry their own rule"),
        }
    }

    /// A random 1-D, 2-D or 3-D launch of at most 9 items per dimension.
    fn random_geometry(rng: &mut SplitMix64) -> NdRange {
        let mut dim = || {
            let l = rng.range_usize(1, 4);
            (l * rng.range_usize(1, 4), l)
        };
        let (gx, lx) = dim();
        let (gy, ly) = dim();
        let (gz, lz) = dim();
        match rng.range_usize(1, 4) {
            1 => NdRange::d1(gx, lx),
            2 => NdRange::d2(gx, gy, lx, ly),
            _ => NdRange::d3(gx, gy, gz, lx, ly, lz),
        }
        .unwrap()
    }

    #[test]
    fn closed_form_matches_the_per_item_walk() {
        let mut rng = SplitMix64::new(0x00F0_07F1);
        for case in 0..3000 {
            let nd = random_geometry(&mut rng);
            let total = nd.num_groups();
            let from = rng.range_u64(0, total + 1);
            let to = rng.range_u64(from, total + 1);
            let items = nd.num_items() as usize;
            // Row widths and buffer lengths on both sides of the launch
            // size, so clipping at the buffer end is exercised both ways.
            let w = rng.range_usize(0, items + 3);
            let len = rng.range_usize(0, 2 * items.max(w) + 4);
            let s = scalars_n(w);
            let dim = rng.range_usize(0, 3);
            for p in [
                AccessPattern::Element,
                AccessPattern::Row {
                    dim,
                    width_scalar: 0,
                },
                AccessPattern::Col {
                    dim,
                    width_scalar: 0,
                },
                AccessPattern::WholeBuffer,
            ] {
                assert_eq!(
                    p.footprint(&nd, &s, len, from, to),
                    oracle(&p, &nd, &s, len, from, to),
                    "case {case}: {p:?} over groups {from}..{to} of {nd:?}, w={w}, len={len}"
                );
            }
        }
    }

    #[test]
    fn element_footprint_is_the_item_range() {
        let nd = NdRange::d1(16, 4).unwrap();
        let fp = AccessPattern::Element.footprint(&nd, &Scalars::default(), 16, 1, 3);
        assert_eq!(fp.as_slice(), &[(4, 12)]);
        assert!(AccessPattern::Element
            .footprint(&nd, &Scalars::default(), 16, 2, 2)
            .is_empty());
    }

    #[test]
    fn element_footprint_2d_follows_global_linear() {
        // 4x4 items in 2x2 groups: group 1 covers globals (2..4, 0..2),
        // i.e. linear elements {2, 3, 6, 7}.
        let nd = NdRange::d2(4, 4, 2, 2).unwrap();
        let fp = AccessPattern::Element.footprint(&nd, &Scalars::default(), 16, 1, 2);
        assert_eq!(fp.as_slice(), &[(2, 4), (6, 8)]);
    }

    #[test]
    fn row_and_col_footprints() {
        let nd = NdRange::d1(8, 2).unwrap();
        let s = scalars_n(8);
        let row = AccessPattern::Row {
            dim: 0,
            width_scalar: 0,
        };
        // Groups [1, 2): items 2..4 -> rows 2..4 -> elements 16..32.
        assert_eq!(row.footprint(&nd, &s, 64, 1, 2).as_slice(), &[(16, 32)]);
        let col = AccessPattern::Col {
            dim: 0,
            width_scalar: 0,
        };
        // Columns 2 and 3 of an 8x8 matrix: {2,3} + 8k.
        let fp = col.footprint(&nd, &s, 64, 1, 2);
        assert_eq!(fp.element_count(), 16);
        assert!(fp.contains(2) && fp.contains(3) && fp.contains(10));
        assert!(!fp.contains(4));
    }

    #[test]
    fn whole_buffer_and_clipping() {
        let nd = NdRange::d1(8, 2).unwrap();
        let s = scalars_n(8);
        let fp = AccessPattern::WholeBuffer.footprint(&nd, &s, 10, 0, 1);
        assert!(fp.is_full(10));
        // A row pattern over a short buffer clips to the buffer.
        let row = AccessPattern::Row {
            dim: 0,
            width_scalar: 0,
        };
        assert_eq!(row.footprint(&nd, &s, 20, 1, 2).as_slice(), &[(16, 20)]);
        assert!(row.footprint(&nd, &s, 0, 0, 4).is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds the launch")]
    fn slices_past_the_launch_panic() {
        let nd = NdRange::d1(8, 2).unwrap();
        AccessPattern::Element.footprint(&nd, &Scalars::default(), 8, 2, 5);
    }

    #[test]
    fn custom_footprint_runs_the_range_fn() {
        let nd = NdRange::d1(4, 2).unwrap();
        let p = AccessPattern::custom(|nd, _, len, from, to| {
            let l = nd.local()[0];
            (from as usize * l..to as usize * l)
                .flat_map(|i| [(i, i + 1), (len - 1 - i, len - i)])
                .chain([(len - 1, len + 5)])
                .collect()
        });
        let fp = p.footprint(&nd, &Scalars::default(), 10, 0, 1);
        assert_eq!(fp.as_slice(), &[(0, 2), (8, 10)], "clipped to the buffer");
        assert!(p.footprint(&nd, &Scalars::default(), 10, 1, 1).is_empty());
    }

    #[test]
    fn pattern_equality_and_labels() {
        assert_eq!(AccessPattern::Element, AccessPattern::Element);
        assert_ne!(AccessPattern::Element, AccessPattern::WholeBuffer);
        assert_eq!(
            AccessPattern::Row {
                dim: 0,
                width_scalar: 1
            },
            AccessPattern::Row {
                dim: 0,
                width_scalar: 1
            }
        );
        assert_ne!(
            AccessPattern::Row {
                dim: 0,
                width_scalar: 1
            },
            AccessPattern::Col {
                dim: 0,
                width_scalar: 1
            }
        );
        let c = AccessPattern::custom(|_, _, _, _, _| vec![]);
        assert_eq!(c, c.clone(), "custom compares by pointer identity");
        assert_ne!(c, AccessPattern::custom(|_, _, _, _, _| vec![]));
        assert_eq!(c.label(), "custom");
        assert_eq!(AccessPattern::WholeBuffer.label(), "whole-buffer");
    }

    #[test]
    fn kernel_footprints_by_signature_order() {
        let k = KernelDef::new(
            "k",
            vec![
                ArgSpec::new("src", ArgRole::In).with_access(AccessPattern::WholeBuffer),
                ArgSpec::new("dst", ArgRole::Out).with_access(AccessPattern::Element),
                ArgSpec::new("n", ArgRole::Scalar),
            ],
            KernelProfile::new("k"),
            |_, _, _, _| {},
        );
        assert!(k.has_write_footprints());
        let nd = NdRange::d1(8, 2).unwrap();
        let s = scalars_n(8);
        let w = k.write_footprints(&nd, &s, &[8], 0, 2).unwrap();
        assert_eq!(w[0].as_slice(), &[(0, 4)]);
    }

    #[test]
    fn missing_declaration_yields_none() {
        let k = KernelDef::new(
            "k",
            vec![
                ArgSpec::new("src", ArgRole::In),
                ArgSpec::new("dst", ArgRole::Out),
            ],
            KernelProfile::new("k"),
            |_, _, _, _| {},
        );
        assert!(!k.has_write_footprints());
        let nd = NdRange::d1(8, 2).unwrap();
        assert!(k
            .write_footprints(&nd, &Scalars::default(), &[8], 0, 2)
            .is_none());
    }
}
