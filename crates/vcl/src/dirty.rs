//! Dirty element tracking.
//!
//! FluidiCL only needs to ship the elements a CPU subkernel actually
//! wrote (paper §4.2): everything else is bit-identical to the pristine
//! original on both devices. [`DirtyRanges`] tracks "which elements
//! changed" exactly: a sorted, coalesced set of half-open element ranges,
//! cheap to union/intersect and to turn into a byte count for transfer
//! costing. Capture ([`DirtyRanges::from_diff`]) and the ranged merge
//! ([`diff_merge_ranged`]) walk the same eight-lane bit blocks, so byte
//! counts are exact and a merge over the captured ranges equals the full
//! merge bit for bit.
//!
//! [`diff_merge_ranged`]: crate::memory::diff_merge_ranged

use crate::{ClError, ClResult};

/// A sorted, coalesced set of half-open `[start, end)` element ranges.
///
/// Invariants: ranges are sorted by start, non-empty, non-overlapping
/// and non-adjacent (touching ranges are merged on construction), so
/// equality of two `DirtyRanges` is equality of the element sets.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DirtyRanges {
    ranges: Vec<(usize, usize)>,
}

impl DirtyRanges {
    /// The empty set: nothing dirty.
    pub fn empty() -> Self {
        Self::default()
    }

    /// The full buffer `[0, len)` (empty when `len == 0`).
    pub fn full(len: usize) -> Self {
        if len == 0 {
            Self::empty()
        } else {
            Self {
                ranges: vec![(0, len)],
            }
        }
    }

    /// Builds from arbitrary `(start, end)` ranges in any order; empty,
    /// overlapping and adjacent input ranges are normalised away.
    pub fn from_ranges(iter: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut v: Vec<(usize, usize)> = iter.into_iter().filter(|(s, e)| s < e).collect();
        v.sort_unstable();
        let mut ranges: Vec<(usize, usize)> = Vec::with_capacity(v.len());
        for (s, e) in v {
            match ranges.last_mut() {
                Some((_, last_end)) if s <= *last_end => *last_end = (*last_end).max(e),
                _ => ranges.push((s, e)),
            }
        }
        Self { ranges }
    }

    /// Builds from single element indices in any order (duplicates fine).
    ///
    /// Bulk construction sorts the raw index stream once and coalesces in
    /// a single pass — O(n log n) regardless of how scattered the indices
    /// are, where repeated [`DirtyRanges::insert`] calls would pay a
    /// range-list splice per index.
    pub fn from_indices(iter: impl IntoIterator<Item = usize>) -> Self {
        let mut v: Vec<usize> = iter.into_iter().collect();
        v.sort_unstable();
        let mut ranges: Vec<(usize, usize)> = Vec::new();
        for i in v {
            match ranges.last_mut() {
                Some((_, end)) if i < *end => {} // duplicate
                Some((_, end)) if i == *end => *end += 1,
                _ => ranges.push((i, i + 1)),
            }
        }
        Self { ranges }
    }

    /// The ranges where `a` and `b` differ bitwise.
    ///
    /// This is the capture primitive coexec uses to learn what a CPU
    /// subkernel wrote: diff the device copy against the pristine
    /// original. The scan compares eight `f32`s at a time as `u32` bit
    /// blocks (clean blocks are skipped without per-element branches)
    /// with a scalar tail, mirroring [`diff_merge_ranged`]'s walk.
    ///
    /// [`diff_merge_ranged`]: crate::memory::diff_merge_ranged
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths. See
    /// [`DirtyRanges::try_from_diff`] for the fallible twin.
    pub fn from_diff(a: &[f32], b: &[f32]) -> Self {
        assert_eq!(a.len(), b.len(), "from_diff requires equally sized buffers");
        Self::diff_scan(a, b)
    }

    /// Fallible twin of [`DirtyRanges::from_diff`] for callers fed by
    /// untrusted data (e.g. replaying a recorded trace): a length
    /// mismatch surfaces as [`ClError::ProtocolViolation`] instead of a
    /// panic. The error's `kernel` field carries the primitive name,
    /// since the violation happens outside any kernel context.
    ///
    /// # Errors
    ///
    /// Returns [`ClError::ProtocolViolation`] if the slices differ in
    /// length.
    pub fn try_from_diff(a: &[f32], b: &[f32]) -> ClResult<Self> {
        if a.len() != b.len() {
            return Err(ClError::ProtocolViolation {
                kernel: "from_diff".to_string(),
                detail: format!(
                    "diff over unequal buffers: {} vs {} elements",
                    a.len(),
                    b.len()
                ),
            });
        }
        Ok(Self::diff_scan(a, b))
    }

    fn diff_scan(a: &[f32], b: &[f32]) -> Self {
        let mut ranges: Vec<(usize, usize)> = Vec::new();
        let push = |ranges: &mut Vec<(usize, usize)>, i: usize| match ranges.last_mut() {
            Some((_, end)) if *end == i => *end += 1,
            _ => ranges.push((i, i + 1)),
        };
        let mut ac = a.chunks_exact(8);
        let mut bc = b.chunks_exact(8);
        let mut base = 0usize;
        for (ab, bb) in (&mut ac).zip(&mut bc) {
            let mut diff = 0u32;
            for (x, y) in ab.iter().zip(bb) {
                diff |= x.to_bits() ^ y.to_bits();
            }
            if diff != 0 {
                for (k, (x, y)) in ab.iter().zip(bb).enumerate() {
                    if x.to_bits() != y.to_bits() {
                        push(&mut ranges, base + k);
                    }
                }
            }
            base += 8;
        }
        for (k, (x, y)) in ac.remainder().iter().zip(bc.remainder()).enumerate() {
            if x.to_bits() != y.to_bits() {
                push(&mut ranges, base + k);
            }
        }
        Self { ranges }
    }

    /// Adds `[start, end)` to the set (no-op when `start >= end`).
    ///
    /// Binary-searches the splice window and patches the list in place —
    /// O(log n) plus the shift — instead of rebuilding the whole range
    /// vector per call, which made scattered insert streams quadratic.
    /// For bulk index streams prefer [`DirtyRanges::from_indices`], which
    /// sorts once and coalesces in a single pass.
    pub fn insert(&mut self, start: usize, end: usize) {
        if start >= end {
            return;
        }
        // First range that could merge with the insertion (its end reaches
        // `start`), and first range strictly beyond it (its start is past
        // `end`); adjacency in either direction coalesces.
        let lo = self.ranges.partition_point(|&(_, e)| e < start);
        let hi = self.ranges.partition_point(|&(s, _)| s <= end);
        if lo == hi {
            self.ranges.insert(lo, (start, end));
            return;
        }
        let merged = (start.min(self.ranges[lo].0), end.max(self.ranges[hi - 1].1));
        self.ranges[lo] = merged;
        self.ranges.drain(lo + 1..hi);
    }

    /// Set union, preserving the coalesced invariants.
    pub fn union(&self, other: &Self) -> Self {
        Self::from_ranges(
            self.ranges
                .iter()
                .chain(other.ranges.iter())
                .copied()
                .collect::<Vec<_>>(),
        )
    }

    /// Set intersection (two-pointer walk over both sorted lists).
    pub fn intersect(&self, other: &Self) -> Self {
        let mut ranges = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.ranges.len() && j < other.ranges.len() {
            let (as_, ae) = self.ranges[i];
            let (bs, be) = other.ranges[j];
            let s = as_.max(bs);
            let e = ae.min(be);
            if s < e {
                ranges.push((s, e));
            }
            if ae <= be {
                i += 1;
            } else {
                j += 1;
            }
        }
        Self { ranges }
    }

    /// Set difference `self \ other`: the elements of `self` not in
    /// `other` (the uncovered-remainder primitive the race detector's
    /// coverage rules are built on).
    ///
    /// One two-pointer walk over both sorted lists, like
    /// [`DirtyRanges::intersect`]: `other`'s cursor only moves forward, so
    /// the cost is O(|self| + |other|).
    pub fn subtract(&self, other: &Self) -> Self {
        let mut ranges = Vec::new();
        let mut j = 0usize;
        for &(mut s, e) in &self.ranges {
            // Skip subtrahends wholly below this range; they lie below
            // every later range of `self` too.
            while j < other.ranges.len() && other.ranges[j].1 <= s {
                j += 1;
            }
            let mut k = j;
            while s < e && k < other.ranges.len() && other.ranges[k].0 < e {
                let (bs, be) = other.ranges[k];
                if bs > s {
                    ranges.push((s, bs));
                }
                s = s.max(be);
                k += 1;
            }
            if s < e {
                ranges.push((s, e));
            }
        }
        // The pieces of one input range are separated by removed parts,
        // and input ranges are non-adjacent, so the result is normalised.
        Self { ranges }
    }

    /// Total number of dirty elements.
    pub fn element_count(&self) -> usize {
        self.ranges.iter().map(|(s, e)| e - s).sum()
    }

    /// Total dirty bytes (`f32` elements, 4 bytes each) — the transfer
    /// payload a partial CPU→GPU shipment of this set would move.
    pub fn byte_count(&self) -> u64 {
        self.element_count() as u64 * 4
    }

    /// Whether no element is dirty.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Whether the set is exactly `[0, len)`.
    pub fn is_full(&self, len: usize) -> bool {
        *self == Self::full(len)
    }

    /// One past the highest dirty index (0 when empty).
    pub fn bound(&self) -> usize {
        self.ranges.last().map_or(0, |&(_, e)| e)
    }

    /// Number of coalesced ranges.
    pub fn range_count(&self) -> usize {
        self.ranges.len()
    }

    /// Whether `idx` is dirty.
    pub fn contains(&self, idx: usize) -> bool {
        self.ranges
            .binary_search_by(|&(s, e)| {
                if idx < s {
                    std::cmp::Ordering::Greater
                } else if idx >= e {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// Iterates the coalesced `(start, end)` ranges in order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.ranges.iter().copied()
    }

    /// The coalesced ranges as a slice.
    pub fn as_slice(&self) -> &[(usize, usize)] {
        &self.ranges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_coalesces_any_order() {
        let a = DirtyRanges::from_ranges([(4, 6), (0, 2), (2, 4), (10, 12)]);
        assert_eq!(a.as_slice(), &[(0, 6), (10, 12)]);
        let b = DirtyRanges::from_ranges([(10, 12), (0, 6)]);
        assert_eq!(a, b, "order-independent");
        assert_eq!(a.union(&a), a, "idempotent");
        assert_eq!(a.element_count(), 8);
        assert_eq!(a.byte_count(), 32);
        assert_eq!(a.bound(), 12);
    }

    #[test]
    fn from_indices_merges_adjacent_and_duplicates() {
        let r = DirtyRanges::from_indices([3, 1, 2, 2, 7]);
        assert_eq!(r.as_slice(), &[(1, 4), (7, 8)]);
        assert!(r.contains(3));
        assert!(!r.contains(4));
        assert!(!r.contains(0));
    }

    #[test]
    fn full_and_empty() {
        assert!(DirtyRanges::empty().is_empty());
        assert!(DirtyRanges::full(0).is_empty());
        let f = DirtyRanges::full(5);
        assert!(f.is_full(5));
        assert!(!f.is_full(6));
        assert_eq!(f.element_count(), 5);
    }

    #[test]
    fn union_and_intersect() {
        let a = DirtyRanges::from_ranges([(0, 4), (8, 12)]);
        let b = DirtyRanges::from_ranges([(2, 9), (20, 22)]);
        assert_eq!(a.union(&b).as_slice(), &[(0, 12), (20, 22)]);
        assert_eq!(a.intersect(&b).as_slice(), &[(2, 4), (8, 9)]);
        assert_eq!(a.intersect(&DirtyRanges::empty()), DirtyRanges::empty());
        assert_eq!(a.union(&DirtyRanges::empty()), a);
    }

    #[test]
    fn subtract_splits_and_clips() {
        let a = DirtyRanges::from_ranges([(0, 10), (20, 30)]);
        let b = DirtyRanges::from_ranges([(3, 5), (8, 22), (28, 40)]);
        assert_eq!(a.subtract(&b).as_slice(), &[(0, 3), (5, 8), (22, 28)]);
        assert!(a.subtract(&a).is_empty());
        assert_eq!(a.subtract(&DirtyRanges::empty()), a);
        assert_eq!(DirtyRanges::empty().subtract(&a), DirtyRanges::empty());
    }

    #[test]
    fn subtract_matches_element_set_difference() {
        let mut rng = fluidicl_des::SplitMix64::new(0xD1FF);
        let random_set = |rng: &mut fluidicl_des::SplitMix64| {
            let n = rng.range_usize(0, 12);
            DirtyRanges::from_ranges((0..n).map(|_| {
                let s = rng.range_usize(0, 200);
                (s, s + rng.range_usize(0, 30))
            }))
        };
        for case in 0..2000 {
            let a = random_set(&mut rng);
            let b = random_set(&mut rng);
            let diff = a.subtract(&b);
            let expected =
                DirtyRanges::from_indices((0..240).filter(|&i| a.contains(i) && !b.contains(i)));
            assert_eq!(diff, expected, "case {case}: {a:?} \\ {b:?}");
        }
    }

    #[test]
    fn insert_extends_in_place() {
        let mut r = DirtyRanges::empty();
        r.insert(4, 6);
        r.insert(0, 2);
        r.insert(2, 4); // bridges the gap
        r.insert(9, 9); // empty: no-op
        assert_eq!(r.as_slice(), &[(0, 6)]);
    }

    #[test]
    fn insert_splices_every_window_shape() {
        // Disjoint before, after and between existing ranges.
        let mut r = DirtyRanges::from_ranges([(10, 12), (20, 22)]);
        r.insert(0, 2);
        r.insert(30, 32);
        r.insert(15, 17);
        assert_eq!(
            r.as_slice(),
            &[(0, 2), (10, 12), (15, 17), (20, 22), (30, 32)]
        );
        // Overlapping several ranges collapses the whole window.
        r.insert(11, 21);
        assert_eq!(r.as_slice(), &[(0, 2), (10, 22), (30, 32)]);
        // Contained insert is a no-op; adjacency coalesces on both sides.
        r.insert(12, 18);
        assert_eq!(r.as_slice(), &[(0, 2), (10, 22), (30, 32)]);
        r.insert(2, 10);
        assert_eq!(r.as_slice(), &[(0, 22), (30, 32)]);
        // Equivalent to from_ranges over the same inputs.
        let mut s = DirtyRanges::empty();
        for (a, b) in [(5usize, 7usize), (0, 2), (6, 10), (3, 5), (2, 3)] {
            s.insert(a, b);
        }
        assert_eq!(s, DirtyRanges::from_ranges([(0, 10)]));
    }

    #[test]
    fn from_diff_finds_bitwise_differences() {
        let a: Vec<f32> = (0..20).map(|i| i as f32).collect();
        let mut b = a.clone();
        b[3] = -3.0;
        b[4] = -4.0;
        b[17] = 0.5; // in the scalar tail
        let r = DirtyRanges::from_diff(&a, &b);
        assert_eq!(r.as_slice(), &[(3, 5), (17, 18)]);
        assert_eq!(DirtyRanges::from_diff(&a, &a), DirtyRanges::empty());
        // -0.0 vs 0.0 and distinct NaN payloads are bitwise diffs.
        let r2 = DirtyRanges::from_diff(&[0.0], &[-0.0]);
        assert_eq!(r2.as_slice(), &[(0, 1)]);
    }

    #[test]
    fn fallible_twins_report_instead_of_panicking() {
        assert_eq!(
            DirtyRanges::try_from_diff(&[0.0; 2], &[0.0; 3]),
            Err(ClError::ProtocolViolation {
                kernel: "from_diff".to_string(),
                detail: "diff over unequal buffers: 2 vs 3 elements".to_string(),
            })
        );
        assert_eq!(
            DirtyRanges::try_from_diff(&[0.0, 1.5], &[0.0, 2.5]),
            Ok(DirtyRanges::from_ranges([(1, 2)]))
        );
    }
}
