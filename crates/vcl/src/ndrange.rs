//! NDRange geometry: work-items, work-groups, and flattened work-group IDs.
//!
//! FluidiCL's unit of work distribution is the OpenCL work-group, addressed
//! by a *flattened* one-dimensional ID (paper §4, Figure 5): dimension 0
//! varies fastest, so for a 2-D range of `ng0 × ng1` groups the group at
//! coordinates `(g0, g1)` has flattened ID `g1 * ng0 + g0`. The GPU executes
//! flattened IDs from 0 upward while CPU subkernels take them from the top
//! downward, so the two devices work on non-overlapping ends of the range.

use std::ops::Range;

use crate::{ClError, ClResult};

/// An OpenCL index space: up to three dimensions of work-items grouped into
/// work-groups.
///
/// # Examples
///
/// ```
/// use fluidicl_vcl::NdRange;
///
/// let nd = NdRange::d2(1024, 512, 16, 16).unwrap();
/// assert_eq!(nd.num_groups(), 64 * 32);
/// assert_eq!(nd.items_per_group(), 256);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NdRange {
    global: [usize; 3],
    local: [usize; 3],
    dims: u8,
}

impl NdRange {
    /// Creates a one-dimensional NDRange.
    ///
    /// # Errors
    ///
    /// Returns [`ClError::InvalidNdRange`] if any size is zero or `global`
    /// is not a multiple of `local`.
    pub fn d1(global: usize, local: usize) -> ClResult<Self> {
        Self::new([global, 1, 1], [local, 1, 1], 1)
    }

    /// Creates a two-dimensional NDRange.
    ///
    /// # Errors
    ///
    /// Returns [`ClError::InvalidNdRange`] if any size is zero or a global
    /// size is not a multiple of the corresponding local size.
    pub fn d2(gx: usize, gy: usize, lx: usize, ly: usize) -> ClResult<Self> {
        Self::new([gx, gy, 1], [lx, ly, 1], 2)
    }

    /// Creates a three-dimensional NDRange.
    ///
    /// # Errors
    ///
    /// Returns [`ClError::InvalidNdRange`] if any size is zero or a global
    /// size is not a multiple of the corresponding local size.
    pub fn d3(gx: usize, gy: usize, gz: usize, lx: usize, ly: usize, lz: usize) -> ClResult<Self> {
        Self::new([gx, gy, gz], [lx, ly, lz], 3)
    }

    fn new(global: [usize; 3], local: [usize; 3], dims: u8) -> ClResult<Self> {
        for d in 0..3 {
            if global[d] == 0 || local[d] == 0 {
                return Err(ClError::InvalidNdRange(format!(
                    "dimension {d} has zero size (global={global:?}, local={local:?})"
                )));
            }
            if !global[d].is_multiple_of(local[d]) {
                return Err(ClError::InvalidNdRange(format!(
                    "global size {} not divisible by local size {} in dimension {d}",
                    global[d], local[d]
                )));
            }
        }
        Ok(NdRange {
            global,
            local,
            dims,
        })
    }

    /// Number of dimensions (1–3).
    pub fn dims(&self) -> u8 {
        self.dims
    }

    /// Global work-item count per dimension.
    pub fn global(&self) -> [usize; 3] {
        self.global
    }

    /// Local (work-group) size per dimension.
    pub fn local(&self) -> [usize; 3] {
        self.local
    }

    /// Number of work-groups per dimension.
    pub fn groups(&self) -> [usize; 3] {
        [
            self.global[0] / self.local[0],
            self.global[1] / self.local[1],
            self.global[2] / self.local[2],
        ]
    }

    /// Total number of work-groups across all dimensions.
    pub fn num_groups(&self) -> u64 {
        let g = self.groups();
        (g[0] as u64) * (g[1] as u64) * (g[2] as u64)
    }

    /// Work-items in one work-group.
    pub fn items_per_group(&self) -> u64 {
        (self.local[0] as u64) * (self.local[1] as u64) * (self.local[2] as u64)
    }

    /// Total work-items in the NDRange.
    pub fn num_items(&self) -> u64 {
        self.num_groups() * self.items_per_group()
    }

    /// Global indices of the work-items in the flattened work-groups
    /// `groups` of a 1-D range — the loop bounds of a 1-D group body.
    ///
    /// # Panics
    ///
    /// Panics if the range is not 1-D.
    pub fn range_items(&self, groups: Range<u64>) -> Range<usize> {
        assert_eq!(self.dims, 1, "range_items needs a 1-D NDRange");
        let l = self.local[0];
        groups.start as usize * l..groups.end as usize * l
    }

    /// The flattened work-groups `groups` of a 2-D range as one
    /// `(rows, cols)` span of global indices per group row they touch, in
    /// flattened order — the loop bounds of a 2-D group body. Every row but
    /// the first and last spans the full width; those two may be partial.
    ///
    /// # Panics
    ///
    /// Panics if the range is not 2-D or `groups` ends past the last group.
    pub fn row_spans(
        &self,
        groups: Range<u64>,
    ) -> impl Iterator<Item = (Range<usize>, Range<usize>)> {
        assert_eq!(self.dims, 2, "row_spans needs a 2-D NDRange");
        assert!(
            groups.end <= self.num_groups(),
            "group range {groups:?} out of range"
        );
        let width = self.groups()[0] as u64;
        let [lx, ly, _] = self.local;
        let group_rows = if groups.is_empty() {
            0..0
        } else {
            groups.start / width..(groups.end - 1) / width + 1
        };
        group_rows.map(move |gy| {
            let row0 = gy * width;
            let g0 = groups.start.max(row0) - row0;
            let g1 = groups.end.min(row0 + width) - row0;
            let gy = gy as usize;
            (gy * ly..(gy + 1) * ly, g0 as usize * lx..g1 as usize * lx)
        })
    }

    /// Coordinates of the flattened work-groups `groups`, in flattened
    /// order.
    ///
    /// # Panics
    ///
    /// The iterator panics on a flattened id out of range.
    pub fn groups_in(&self, groups: Range<u64>) -> impl Iterator<Item = [usize; 3]> {
        let nd = *self;
        groups.map(move |flat| nd.unflatten_group(flat))
    }

    /// Flattens work-group coordinates to a 1-D ID (dimension 0 fastest;
    /// paper Figure 5).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `coords` is out of range.
    pub fn flatten_group(&self, coords: [usize; 3]) -> u64 {
        let g = self.groups();
        debug_assert!(
            coords[0] < g[0] && coords[1] < g[1] && coords[2] < g[2],
            "group coords {coords:?} out of range {g:?}"
        );
        (coords[2] as u64) * (g[0] as u64) * (g[1] as u64)
            + (coords[1] as u64) * (g[0] as u64)
            + (coords[0] as u64)
    }

    /// Inverse of [`NdRange::flatten_group`].
    ///
    /// # Panics
    ///
    /// Panics if `flat` is out of range.
    pub fn unflatten_group(&self, flat: u64) -> [usize; 3] {
        let g = self.groups();
        assert!(flat < self.num_groups(), "flattened id {flat} out of range");
        let plane = (g[0] as u64) * (g[1] as u64);
        let z = flat / plane;
        let rem = flat % plane;
        let y = rem / g[0] as u64;
        let x = rem % g[0] as u64;
        [x as usize, y as usize, z as usize]
    }

    /// The rectangular work-group slice the CPU scheduler launches to cover
    /// the flattened range `[start, end)` (paper §5.2 and Figure 10): the
    /// smallest whole-row/plane-aligned region containing the range. The
    /// subkernel then skips groups outside `[start, end)` by comparing
    /// flattened IDs.
    ///
    /// Returns `(group_offset, group_count)` in group coordinates.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or out of bounds.
    pub fn covering_slice(&self, start: u64, end: u64) -> ([usize; 3], [usize; 3]) {
        assert!(
            start < end && end <= self.num_groups(),
            "bad range {start}..{end}"
        );
        let g = self.groups();
        match self.dims {
            1 => ([start as usize, 0, 0], [(end - start) as usize, 1, 1]),
            2 => {
                // Whole rows between the rows containing start and end-1.
                let row0 = (start / g[0] as u64) as usize;
                let row1 = ((end - 1) / g[0] as u64) as usize;
                ([0, row0, 0], [g[0], row1 - row0 + 1, 1])
            }
            _ => {
                let plane = (g[0] as u64) * (g[1] as u64);
                let z0 = (start / plane) as usize;
                let z1 = ((end - 1) / plane) as usize;
                ([0, 0, z0], [g[0], g[1], z1 - z0 + 1])
            }
        }
    }
}

/// Identity of one work-item during functional kernel execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkItem {
    /// Global work-item coordinates.
    pub global: [usize; 3],
    /// Coordinates within the work-group.
    pub local: [usize; 3],
    /// Work-group coordinates.
    pub group: [usize; 3],
    /// Work-group size.
    pub local_size: [usize; 3],
    /// Global size.
    pub global_size: [usize; 3],
}

impl WorkItem {
    /// Global linear index with dimension 0 fastest (matches OpenCL's
    /// `get_global_id(0)`-major layouts used by the Polybench kernels).
    pub fn global_linear(&self) -> usize {
        (self.global[2] * self.global_size[1] + self.global[1]) * self.global_size[0]
            + self.global[0]
    }
}

/// Iterates every work-item of one work-group, invoking `f`.
pub(crate) fn for_each_item_in_group(
    nd: &NdRange,
    group: [usize; 3],
    mut f: impl FnMut(&WorkItem),
) {
    let local = nd.local();
    let global = nd.global();
    for lz in 0..local[2] {
        for ly in 0..local[1] {
            for lx in 0..local[0] {
                let item = WorkItem {
                    global: [
                        group[0] * local[0] + lx,
                        group[1] * local[1] + ly,
                        group[2] * local[2] + lz,
                    ],
                    local: [lx, ly, lz],
                    group,
                    local_size: local,
                    global_size: global,
                };
                f(&item);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn d2_matches_paper_figure5() {
        // Figure 5: 25 groups in 5 rows × 5 columns; group (row=x, col=y) —
        // in our convention dimension 0 fastest — has flattened id x + 5*y.
        let nd = NdRange::d2(5, 5, 1, 1).unwrap();
        assert_eq!(nd.num_groups(), 25);
        assert_eq!(nd.flatten_group([0, 0, 0]), 0);
        assert_eq!(nd.flatten_group([4, 0, 0]), 4);
        assert_eq!(nd.flatten_group([0, 1, 0]), 5);
        assert_eq!(nd.flatten_group([4, 4, 0]), 24);
    }

    #[test]
    fn flatten_unflatten_roundtrip_3d() {
        let nd = NdRange::d3(8, 6, 4, 2, 3, 2).unwrap();
        for flat in 0..nd.num_groups() {
            assert_eq!(nd.flatten_group(nd.unflatten_group(flat)), flat);
        }
    }

    #[test]
    fn rejects_indivisible_sizes() {
        assert!(matches!(
            NdRange::d1(10, 3),
            Err(ClError::InvalidNdRange(_))
        ));
        assert!(matches!(NdRange::d1(0, 1), Err(ClError::InvalidNdRange(_))));
    }

    #[test]
    fn counts_are_consistent() {
        let nd = NdRange::d2(64, 32, 8, 4).unwrap();
        assert_eq!(nd.groups(), [8, 8, 1]);
        assert_eq!(nd.num_groups(), 64);
        assert_eq!(nd.items_per_group(), 32);
        assert_eq!(nd.num_items(), 64 * 32);
    }

    #[test]
    fn covering_slice_1d_is_exact() {
        let nd = NdRange::d1(100, 10).unwrap();
        assert_eq!(nd.covering_slice(3, 7), ([3, 0, 0], [4, 1, 1]));
    }

    #[test]
    fn covering_slice_2d_rounds_to_rows() {
        let nd = NdRange::d2(50, 40, 10, 10).unwrap(); // 5 x 4 groups
                                                       // Range 7..12 spans the end of row 1 and start of row 2.
        let (off, cnt) = nd.covering_slice(7, 12);
        assert_eq!(off, [0, 1, 0]);
        assert_eq!(cnt, [5, 2, 1]);
        // The covering slice contains the requested flattened range.
        let mut covered = Vec::new();
        for y in off[1]..off[1] + cnt[1] {
            for x in off[0]..off[0] + cnt[0] {
                covered.push(nd.flatten_group([x, y, 0]));
            }
        }
        for flat in 7..12 {
            assert!(covered.contains(&flat));
        }
    }

    #[test]
    fn covering_slice_3d_rounds_to_planes() {
        let nd = NdRange::d3(4, 4, 8, 2, 2, 2).unwrap(); // 2x2x4 groups
        let (off, cnt) = nd.covering_slice(5, 6);
        assert_eq!(off, [0, 0, 1]);
        assert_eq!(cnt, [2, 2, 1]);
    }

    #[test]
    fn work_item_enumeration_is_complete() {
        let nd = NdRange::d2(4, 4, 2, 2).unwrap();
        let mut seen = Vec::new();
        for_each_item_in_group(&nd, [1, 1, 0], |it| {
            seen.push(it.global);
            assert_eq!(it.group, [1, 1, 0]);
            assert_eq!(it.local_size, [2, 2, 1]);
        });
        assert_eq!(seen.len(), 4);
        assert!(seen.contains(&[2, 2, 0]));
        assert!(seen.contains(&[3, 3, 0]));
    }

    #[test]
    fn range_helpers_cover_the_groups_of_a_range() {
        let nd = NdRange::d1(40, 5).unwrap();
        assert_eq!(nd.range_items(3..6), 15..30);
        assert_eq!(nd.range_items(2..2), 10..10);
        let nd = NdRange::d2(12, 8, 3, 4).unwrap(); // 4 x 2 groups
        let coords: Vec<_> = nd.groups_in(3..6).collect();
        assert_eq!(coords, vec![[3, 0, 0], [0, 1, 0], [1, 1, 0]]);
        assert!(coords
            .iter()
            .zip(3..)
            .all(|(&c, flat)| nd.flatten_group(c) == flat));
    }

    /// The items of every span, in span order.
    fn span_items(nd: &NdRange, groups: Range<u64>) -> Vec<[usize; 2]> {
        let mut items = Vec::new();
        for (rows, cols) in nd.row_spans(groups) {
            for y in rows {
                items.extend(cols.clone().map(|x| [x, y]));
            }
        }
        items
    }

    /// The items of the groups `groups`, one group at a time.
    fn group_items_of(nd: &NdRange, groups: Range<u64>) -> Vec<[usize; 2]> {
        let mut items = Vec::new();
        for g in nd.groups_in(groups) {
            for_each_item_in_group(nd, g, |it| items.push([it.global[0], it.global[1]]));
        }
        items
    }

    #[test]
    fn row_spans_of_an_empty_range_and_of_one_group() {
        let nd = NdRange::d2(12, 8, 3, 4).unwrap(); // 4 x 2 groups
        assert_eq!(nd.row_spans(0..0).count(), 0);
        assert_eq!(nd.row_spans(5..5).count(), 0);
        assert_eq!(nd.row_spans(8..8).count(), 0);
        let spans: Vec<_> = nd.row_spans(5..6).collect();
        assert_eq!(spans, vec![(4..8, 3..6)]);
    }

    #[test]
    fn row_spans_have_partial_first_and_last_rows() {
        let nd = NdRange::d2(15, 20, 3, 5).unwrap(); // 5 x 4 groups
        let spans: Vec<_> = nd.row_spans(3..17).collect();
        assert_eq!(
            spans,
            vec![
                (0..5, 9..15),
                (5..10, 0..15),
                (10..15, 0..15),
                (15..20, 0..6)
            ]
        );
        // Start and end inside one group row.
        let spans: Vec<_> = nd.row_spans(6..9).collect();
        assert_eq!(spans, vec![(5..10, 3..12)]);
    }

    #[test]
    fn row_spans_of_the_full_grid_are_whole_rows() {
        let nd = NdRange::d2(14, 12, 7, 6).unwrap(); // 2 x 2 groups
        let spans: Vec<_> = nd.row_spans(0..nd.num_groups()).collect();
        assert_eq!(spans, vec![(0..6, 0..14), (6..12, 0..14)]);
    }

    #[test]
    fn row_spans_cover_exactly_the_items_of_their_groups() {
        let nd = NdRange::d2(15, 20, 3, 5).unwrap();
        let total = nd.num_groups();
        for from in 0..=total {
            for to in from..=total {
                let mut spans = span_items(&nd, from..to);
                let mut groups = group_items_of(&nd, from..to);
                spans.sort_unstable();
                groups.sort_unstable();
                assert_eq!(spans, groups, "groups {from}..{to}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "row_spans needs a 2-D NDRange")]
    fn row_spans_reject_a_1d_range() {
        let _ = NdRange::d1(8, 2).unwrap().row_spans(0..1);
    }

    #[test]
    fn global_linear_is_dim0_fastest() {
        let nd = NdRange::d2(4, 4, 2, 2).unwrap();
        let mut linears = Vec::new();
        for_each_item_in_group(&nd, [0, 0, 0], |it| linears.push(it.global_linear()));
        assert_eq!(linears, vec![0, 1, 4, 5]);
        let _ = nd;
    }
}
