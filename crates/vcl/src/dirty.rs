//! Dirty element tracking.
//!
//! FluidiCL only needs to ship the elements a CPU subkernel actually
//! wrote (paper §4.2): everything else is bit-identical to the pristine
//! original on both devices. Two representations track "which elements
//! changed":
//!
//! * [`DirtyRanges`] — the exact currency: a sorted, coalesced set of
//!   half-open element ranges, cheap to union/intersect and to turn into
//!   a byte count for transfer costing. Exact byte counts, but insert
//!   and capture costs grow with the number of distinct ranges.
//! * [`PageMap`] — softmmu-style page-granular tracking for huge
//!   buffers: one bit per [`PAGE_ELEMS`]-element page in a fixed-size
//!   bitmap, O(1) to mark, with coalesced [`DirtyRanges`] synthesized
//!   lazily only when a transfer or lint needs them. Byte counts are a
//!   page-granular over-approximation (never an undercount of the real
//!   write set).
//!
//! [`DirtyTracker`] unifies both behind one interface and auto-selects
//! the representation by buffer size (and, for incrementally marked
//! trackers, by write density): small regular kernels keep today's exact
//! ranges and byte counts bit-for-bit, while scattered writes over
//! 10M–100M-element buffers mark dirt in O(1) instead of degrading to
//! quadratic range maintenance.

use crate::access::WriteMap;
use crate::simd;
use crate::{ClError, ClResult};

/// Elements per dirty-tracking page (16 KiB of `f32`s) — the granularity
/// of [`PageMap`] and the span the per-page diff-merge walks at a time.
pub const PAGE_ELEMS: usize = 4096;

/// Buffer length (elements) at which [`DirtyTracker`] auto-selects the
/// paged representation: 4M elements (16 MiB). Every Polybench workload
/// in the repo sits far below this, so all existing traces and byte
/// counts keep the exact representation bit-for-bit.
pub const PAGED_MIN_LEN: usize = 1 << 22;

/// Exact range count past which an incrementally marked [`DirtyTracker`]
/// on a paged-eligible buffer promotes itself to a [`PageMap`] — the
/// write-density half of representation auto-selection.
const MAX_EXACT_RANGES: usize = 4096;

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

    /// Builds from a sanitizer write map (element index → written bits).
    ///
    /// `BTreeMap` keys are already sorted, so this is a single coalescing
    /// pass over the map — the bulk sibling of [`DirtyRanges::from_indices`],
    /// with the sort already paid by the map.
    pub fn from_write_map(map: &WriteMap) -> Self {
        let mut ranges: Vec<(usize, usize)> = Vec::new();
        for &i in map.keys() {
            match ranges.last_mut() {
                Some((_, end)) if *end == i => *end += 1,
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

    /// Copies `src[s..e]` into `dst[s..e]` for every dirty range — the
    /// partial-mirror primitive for refreshing a stale copy without
    /// touching clean elements.
    ///
    /// # Panics
    ///
    /// Panics if `dst` and `src` differ in length or a range exceeds it.
    /// See [`DirtyRanges::try_copy_ranges`] for the fallible twin.
    pub fn copy_ranges(&self, src: &[f32], dst: &mut [f32]) {
        assert_eq!(
            src.len(),
            dst.len(),
            "copy_ranges requires equally sized buffers"
        );
        for &(s, e) in &self.ranges {
            dst[s..e].copy_from_slice(&src[s..e]);
        }
    }

    /// Fallible twin of [`DirtyRanges::copy_ranges`]: mismatched buffer
    /// lengths or an out-of-bounds range — what a corrupted trace's
    /// recorded ranges look like — surface as
    /// [`ClError::ProtocolViolation`] instead of a panic. The error's
    /// `kernel` field carries the primitive name, since the violation
    /// happens outside any kernel context.
    ///
    /// # Errors
    ///
    /// Returns [`ClError::ProtocolViolation`] if `dst` and `src` differ
    /// in length or a range exceeds the buffers.
    pub fn try_copy_ranges(&self, src: &[f32], dst: &mut [f32]) -> ClResult<()> {
        if src.len() != dst.len() {
            return Err(ClError::ProtocolViolation {
                kernel: "copy_ranges".to_string(),
                detail: format!(
                    "copy over unequal buffers: {} vs {} elements",
                    src.len(),
                    dst.len()
                ),
            });
        }
        if self.bound() > src.len() {
            return Err(ClError::ProtocolViolation {
                kernel: "copy_ranges".to_string(),
                detail: format!(
                    "range bound {} exceeds the {}-element buffer",
                    self.bound(),
                    src.len()
                ),
            });
        }
        for &(s, e) in &self.ranges {
            dst[s..e].copy_from_slice(&src[s..e]);
        }
        Ok(())
    }
}

/// Softmmu-style page-granular dirty bitmap: one bit per
/// [`PAGE_ELEMS`]-element page of a fixed-length buffer.
///
/// Marking is O(1) per page regardless of how scattered the writes are;
/// coalesced [`DirtyRanges`] are synthesized lazily via
/// [`PageMap::synthesize`] only when a transfer or lint needs them. A
/// page map never *misses* a write it was told about — synthesized
/// ranges are a superset of the exact write set, rounded out to page
/// boundaries (and clipped to the buffer length).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PageMap {
    /// Buffer length in elements.
    len: usize,
    /// Fixed-size bitmap: bit `p` of word `p / 64` is page `p`.
    words: Vec<u64>,
}

impl PageMap {
    /// A clean map for a `len`-element buffer.
    pub fn new(len: usize) -> Self {
        let pages = len.div_ceil(PAGE_ELEMS);
        Self {
            len,
            words: vec![0; pages.div_ceil(64)],
        }
    }

    /// Builds a map with every page containing an element of `ranges`
    /// marked — the exact→paged promotion conversion.
    pub fn from_ranges(len: usize, ranges: &DirtyRanges) -> Self {
        let mut pm = Self::new(len);
        for (s, e) in ranges.iter() {
            pm.mark_range(s, e);
        }
        pm
    }

    /// Marks every page overlapping a bitwise difference between `a` and
    /// `b`. The scan runs page-at-a-time through the blockwise (SIMD
    /// when available) compare and stops at the first differing block of
    /// each page, so heavily written pages cost a few cache lines, not a
    /// full page scan.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn from_diff(a: &[f32], b: &[f32]) -> Self {
        assert_eq!(a.len(), b.len(), "from_diff requires equally sized buffers");
        let mut pm = Self::new(a.len());
        let mut s = 0usize;
        while s < a.len() {
            let e = (s + PAGE_ELEMS).min(a.len());
            if simd::span_differs(&a[s..e], &b[s..e]) {
                pm.mark(s);
            }
            s = e;
        }
        pm
    }

    /// Buffer length in elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no page is dirty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of pages the buffer spans.
    pub fn page_count(&self) -> usize {
        self.len.div_ceil(PAGE_ELEMS)
    }

    /// Number of dirty pages.
    pub fn dirty_page_count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether page `p` is dirty (false for pages past the buffer).
    pub fn page_is_dirty(&self, p: usize) -> bool {
        self.words
            .get(p / 64)
            .is_some_and(|w| w & (1u64 << (p % 64)) != 0)
    }

    /// Marks the page containing element `idx` dirty — O(1). Indices past
    /// the buffer are ignored.
    pub fn mark(&mut self, idx: usize) {
        if idx < self.len {
            let p = idx / PAGE_ELEMS;
            self.words[p / 64] |= 1u64 << (p % 64);
        }
    }

    /// Marks every page overlapping `[start, end)` dirty, word-filling
    /// interior runs. Clipped to the buffer; a no-op when empty.
    pub fn mark_range(&mut self, start: usize, end: usize) {
        let end = end.min(self.len);
        if start >= end {
            return;
        }
        let p0 = start / PAGE_ELEMS;
        let p1 = (end - 1) / PAGE_ELEMS;
        let (w0, b0) = (p0 / 64, (p0 % 64) as u32);
        let (w1, b1) = (p1 / 64, (p1 % 64) as u32);
        if w0 == w1 {
            self.words[w0] |= (!0u64 << b0) & (!0u64 >> (63 - b1));
        } else {
            self.words[w0] |= !0u64 << b0;
            for w in &mut self.words[w0 + 1..w1] {
                *w = !0;
            }
            self.words[w1] |= !0u64 >> (63 - b1);
        }
    }

    /// Bitwise union with another map of the same buffer.
    ///
    /// # Panics
    ///
    /// Panics if the maps track different buffer lengths.
    pub fn union_with(&mut self, other: &Self) {
        assert_eq!(self.len, other.len, "union over differently sized maps");
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// Iterates maximal runs of dirty pages as half-open element spans,
    /// clipped to the buffer length.
    pub fn dirty_spans(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let pages = self.page_count();
        let mut p = 0usize;
        std::iter::from_fn(move || {
            while p < pages && !self.page_is_dirty(p) {
                p += 1;
            }
            if p >= pages {
                return None;
            }
            let start = p;
            while p < pages && self.page_is_dirty(p) {
                p += 1;
            }
            Some((start * PAGE_ELEMS, (p * PAGE_ELEMS).min(self.len)))
        })
    }

    /// Synthesizes the coalesced page-granular [`DirtyRanges`] — the lazy
    /// conversion a transfer or lint calls when it needs real ranges.
    /// Runs of adjacent dirty pages become one range; runs are separated
    /// by at least one clean page, so the result satisfies the
    /// [`DirtyRanges`] invariants by construction.
    pub fn synthesize(&self) -> DirtyRanges {
        DirtyRanges {
            ranges: self.dirty_spans().collect(),
        }
    }

    /// Whether every element of `ranges` lies in a dirty page — the
    /// "synthesized ⊇ exact" coverage check.
    pub fn covers(&self, ranges: &DirtyRanges) -> bool {
        ranges.iter().all(|(s, e)| {
            e <= self.len && (s / PAGE_ELEMS..=(e - 1) / PAGE_ELEMS).all(|p| self.page_is_dirty(p))
        })
    }

    /// Dirty elements at page granularity: full pages, with a dirty final
    /// partial page counted only up to the buffer length.
    pub fn element_count(&self) -> usize {
        let mut n = self.dirty_page_count() * PAGE_ELEMS;
        let pages = self.page_count();
        if pages > 0 && self.page_is_dirty(pages - 1) {
            n -= pages * PAGE_ELEMS - self.len;
        }
        n
    }

    /// Dirty bytes at page granularity (`f32` elements, 4 bytes each).
    pub fn byte_count(&self) -> u64 {
        self.element_count() as u64 * 4
    }
}

/// Unified dirty tracker: exact ranges for small buffers, a page-granular
/// bitmap for huge ones, auto-selected so existing workloads keep exact
/// byte counts while 10M+-element buffers with scattered writes mark
/// dirt in O(1).
///
/// Selection happens on two axes:
///
/// * **size** — [`DirtyTracker::new`] and [`DirtyTracker::from_diff`]
///   pick the paged representation when the buffer has at least
///   [`PAGED_MIN_LEN`] elements;
/// * **write density** — an exact tracker on a paged-eligible buffer
///   promotes itself to a [`PageMap`] once incremental marking fragments
///   it past `MAX_EXACT_RANGES` coalesced ranges.
///
/// Equality is representation-sensitive (an exact and a paged tracker
/// never compare equal), which is what the byte-identical gates want:
/// a representation switch is a real behavioural change.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DirtyTracker {
    len: usize,
    repr: Repr,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Repr {
    Exact(DirtyRanges),
    Paged(PageMap),
}

impl DirtyTracker {
    /// A clean tracker for a `len`-element buffer, representation chosen
    /// by size.
    pub fn new(len: usize) -> Self {
        let repr = if len >= PAGED_MIN_LEN {
            Repr::Paged(PageMap::new(len))
        } else {
            Repr::Exact(DirtyRanges::empty())
        };
        Self { len, repr }
    }

    /// An exact tracker seeded with `ranges`, regardless of buffer size
    /// (it may still promote itself under later incremental marking).
    pub fn exact(len: usize, ranges: DirtyRanges) -> Self {
        Self {
            len,
            repr: Repr::Exact(ranges),
        }
    }

    /// Captures the bitwise difference of two equally sized buffers:
    /// exact ranges below [`PAGED_MIN_LEN`], a page map at or above it.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths. See
    /// [`DirtyTracker::try_from_diff`] for the fallible twin.
    pub fn from_diff(a: &[f32], b: &[f32]) -> Self {
        assert_eq!(a.len(), b.len(), "from_diff requires equally sized buffers");
        let len = a.len();
        let repr = if len >= PAGED_MIN_LEN {
            Repr::Paged(PageMap::from_diff(a, b))
        } else {
            Repr::Exact(DirtyRanges::from_diff(a, b))
        };
        Self { len, repr }
    }

    /// Fallible twin of [`DirtyTracker::from_diff`].
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
        Ok(Self::from_diff(a, b))
    }

    /// Buffer length in elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is dirty.
    pub fn is_empty(&self) -> bool {
        match &self.repr {
            Repr::Exact(r) => r.is_empty(),
            Repr::Paged(pm) => pm.is_empty(),
        }
    }

    /// Whether the tracker currently uses the paged representation.
    pub fn is_paged(&self) -> bool {
        matches!(self.repr, Repr::Paged(_))
    }

    /// The exact ranges, when the tracker holds them.
    pub fn as_exact(&self) -> Option<&DirtyRanges> {
        match &self.repr {
            Repr::Exact(r) => Some(r),
            Repr::Paged(_) => None,
        }
    }

    /// The page map, when the tracker holds one.
    pub fn as_paged(&self) -> Option<&PageMap> {
        match &self.repr {
            Repr::Exact(_) => None,
            Repr::Paged(pm) => Some(pm),
        }
    }

    /// Marks `[start, end)` dirty (clipped to the buffer). O(1) on the
    /// paged representation; on the exact one, a range-list splice plus
    /// the density check that promotes a fragmented tracker on a
    /// paged-eligible buffer to a page map.
    pub fn mark_range(&mut self, start: usize, end: usize) {
        let end = end.min(self.len);
        match &mut self.repr {
            Repr::Exact(r) => {
                r.insert(start, end);
                if self.len >= PAGED_MIN_LEN && r.range_count() > MAX_EXACT_RANGES {
                    self.repr = Repr::Paged(PageMap::from_ranges(self.len, r));
                }
            }
            Repr::Paged(pm) => pm.mark_range(start, end),
        }
    }

    /// Synthesizes coalesced [`DirtyRanges`]: the exact set as-is, or the
    /// page map's lazy page-granular ranges. On every workload that stays
    /// exact this equals today's ranges bit-for-bit.
    pub fn synthesize(&self) -> DirtyRanges {
        match &self.repr {
            Repr::Exact(r) => r.clone(),
            Repr::Paged(pm) => pm.synthesize(),
        }
    }

    /// Dirty elements: exact, or the page-granular over-approximation.
    pub fn element_count(&self) -> usize {
        match &self.repr {
            Repr::Exact(r) => r.element_count(),
            Repr::Paged(pm) => pm.element_count(),
        }
    }

    /// Dirty bytes (`f32` elements, 4 bytes each).
    pub fn byte_count(&self) -> u64 {
        match &self.repr {
            Repr::Exact(r) => r.byte_count(),
            Repr::Paged(pm) => pm.byte_count(),
        }
    }

    /// Copies the dirty spans of `src` into `dst`: exact ranges, or whole
    /// dirty pages (a superset — the extra elements are bitwise identical
    /// whenever the tracker was captured from these buffers' diff).
    ///
    /// # Errors
    ///
    /// Returns [`ClError::ProtocolViolation`] if the buffers differ in
    /// length or disagree with the tracked length.
    pub fn copy_ranges(&self, src: &[f32], dst: &mut [f32]) -> ClResult<()> {
        if src.len() != self.len {
            return Err(ClError::ProtocolViolation {
                kernel: "copy_ranges".to_string(),
                detail: format!(
                    "tracker for {} elements applied to a {}-element buffer",
                    self.len,
                    src.len()
                ),
            });
        }
        match &self.repr {
            Repr::Exact(r) => r.try_copy_ranges(src, dst),
            Repr::Paged(pm) => {
                if src.len() != dst.len() || src.len() != pm.len() {
                    return Err(ClError::ProtocolViolation {
                        kernel: "copy_ranges".to_string(),
                        detail: format!(
                            "paged copy over mismatched buffers: {} vs {} elements (tracking {})",
                            src.len(),
                            dst.len(),
                            pm.len()
                        ),
                    });
                }
                for (s, e) in pm.dirty_spans() {
                    dst[s..e].copy_from_slice(&src[s..e]);
                }
                Ok(())
            }
        }
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
    fn from_write_map_coalesces_sorted_keys() {
        let mut map = WriteMap::new();
        for i in [5usize, 6, 7, 12] {
            map.insert(i, 1.0f32.to_bits());
        }
        let r = DirtyRanges::from_write_map(&map);
        assert_eq!(r.as_slice(), &[(5, 8), (12, 13)]);
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
        let mut dst = [0.0f32; 2];
        assert!(matches!(
            DirtyRanges::full(2).try_copy_ranges(&[0.0; 3], &mut dst),
            Err(ClError::ProtocolViolation { kernel, .. }) if kernel == "copy_ranges"
        ));
        // An out-of-bounds range from a corrupted trace is a typed error.
        assert!(matches!(
            DirtyRanges::full(9).try_copy_ranges(&[1.0; 2], &mut dst),
            Err(ClError::ProtocolViolation { kernel, .. }) if kernel == "copy_ranges"
        ));
        DirtyRanges::from_ranges([(1, 2)])
            .try_copy_ranges(&[3.0, 4.0], &mut dst)
            .unwrap();
        assert_eq!(dst, [0.0, 4.0]);
    }

    #[test]
    fn copy_ranges_mirrors_only_dirty_spans() {
        let src = [1.0, 2.0, 3.0, 4.0, 5.0];
        let mut dst = [0.0; 5];
        DirtyRanges::from_ranges([(1, 3), (4, 5)]).copy_ranges(&src, &mut dst);
        assert_eq!(dst, [0.0, 2.0, 3.0, 0.0, 5.0]);
    }

    #[test]
    fn page_map_marks_and_synthesizes() {
        let len = 3 * PAGE_ELEMS + 100; // 4 pages, the last partial
        let mut pm = PageMap::new(len);
        assert_eq!(pm.page_count(), 4);
        assert!(pm.is_empty());
        assert!(pm.synthesize().is_empty());
        pm.mark(0);
        pm.mark(PAGE_ELEMS); // page 1: adjacent to page 0, one run
        pm.mark(3 * PAGE_ELEMS + 50); // partial last page
        assert_eq!(pm.dirty_page_count(), 3);
        assert!(pm.page_is_dirty(1));
        assert!(!pm.page_is_dirty(2));
        assert_eq!(
            pm.synthesize().as_slice(),
            &[(0, 2 * PAGE_ELEMS), (3 * PAGE_ELEMS, len)]
        );
        assert_eq!(pm.element_count(), 2 * PAGE_ELEMS + 100);
        // Out-of-buffer marks are ignored.
        pm.mark(len + 5);
        assert_eq!(pm.dirty_page_count(), 3);
    }

    #[test]
    fn page_map_mark_range_word_fills() {
        // A range spanning >64 pages exercises the interior word fill.
        let pages = 200;
        let len = pages * PAGE_ELEMS;
        let mut pm = PageMap::new(len);
        pm.mark_range(3 * PAGE_ELEMS + 1, 190 * PAGE_ELEMS + 1);
        assert_eq!(pm.dirty_page_count(), 188); // pages 3..=190
        assert!(pm.page_is_dirty(3));
        assert!(pm.page_is_dirty(190));
        assert!(!pm.page_is_dirty(2));
        assert!(!pm.page_is_dirty(191));
        assert_eq!(
            pm.synthesize().as_slice(),
            &[(3 * PAGE_ELEMS, 191 * PAGE_ELEMS)]
        );
        // Clipped and empty ranges.
        let mut pm2 = PageMap::new(PAGE_ELEMS);
        pm2.mark_range(5, 5);
        assert!(pm2.is_empty());
        pm2.mark_range(0, usize::MAX);
        assert_eq!(pm2.dirty_page_count(), 1);
    }

    #[test]
    fn page_map_from_diff_and_covers() {
        let len = 2 * PAGE_ELEMS + 7;
        let a: Vec<f32> = vec![1.0; len];
        let mut b = a.clone();
        b[PAGE_ELEMS + 3] = 2.0; // page 1
        b[len - 1] = 3.0; // partial page 2
        let pm = PageMap::from_diff(&a, &b);
        let exact = DirtyRanges::from_diff(&a, &b);
        assert!(!pm.page_is_dirty(0));
        assert!(pm.page_is_dirty(1));
        assert!(pm.page_is_dirty(2));
        assert!(pm.covers(&exact), "page map covers every exact write");
        assert!(
            !pm.covers(&DirtyRanges::from_ranges([(0, 1)])),
            "clean pages are not covered"
        );
        assert!(
            !pm.covers(&DirtyRanges::from_ranges([(len, len + 4)])),
            "ranges past the buffer are never covered"
        );
        assert!(PageMap::from_diff(&a, &a).is_empty());
    }

    #[test]
    fn page_map_union_accumulates() {
        let len = 4 * PAGE_ELEMS;
        let mut a = PageMap::new(len);
        a.mark(0);
        let mut b = PageMap::new(len);
        b.mark(2 * PAGE_ELEMS);
        a.union_with(&b);
        assert_eq!(a.dirty_page_count(), 2);
        assert!(a.page_is_dirty(0) && a.page_is_dirty(2));
    }

    #[test]
    fn tracker_selects_representation_by_size() {
        assert!(!DirtyTracker::new(1024).is_paged());
        assert!(DirtyTracker::new(PAGED_MIN_LEN).is_paged());
        let small: Vec<f32> = vec![0.0; 64];
        let mut small2 = small.clone();
        small2[5] = 1.0;
        let t = DirtyTracker::from_diff(&small, &small2);
        assert!(!t.is_paged());
        assert_eq!(t.synthesize().as_slice(), &[(5, 6)]);
        assert_eq!(t.element_count(), 1);
        assert_eq!(t.byte_count(), 4);
        assert_eq!(t.len(), 64);
    }

    #[test]
    fn tracker_promotes_on_write_density() {
        // A paged-eligible buffer marked scattered: the exact repr
        // fragments past MAX_EXACT_RANGES and flips to the page map.
        let mut t = DirtyTracker::exact(PAGED_MIN_LEN, DirtyRanges::empty());
        assert!(!t.is_paged());
        for i in 0..(MAX_EXACT_RANGES + 2) {
            t.mark_range(i * 3, i * 3 + 1); // non-adjacent single elements
        }
        assert!(t.is_paged(), "density promotion kicked in");
        // Every marked element is still covered after promotion.
        let exact =
            DirtyRanges::from_ranges((0..(MAX_EXACT_RANGES + 2)).map(|i| (i * 3, i * 3 + 1)));
        assert!(t.as_paged().unwrap().covers(&exact));
        // Small buffers never promote, however fragmented.
        let mut small = DirtyTracker::new(100_000);
        for i in 0..(MAX_EXACT_RANGES + 2) {
            small.mark_range(i * 2, i * 2 + 1);
        }
        assert!(!small.is_paged());
    }

    #[test]
    fn tracker_copy_ranges_exact_and_paged() {
        // Exact: surgical copy.
        let t = DirtyTracker::exact(5, DirtyRanges::from_ranges([(1, 3)]));
        let src = [1.0, 2.0, 3.0, 4.0, 5.0];
        let mut dst = [0.0f32; 5];
        t.copy_ranges(&src, &mut dst).unwrap();
        assert_eq!(dst, [0.0, 2.0, 3.0, 0.0, 0.0]);
        // Paged: whole dirty pages come across.
        let len = 2 * PAGE_ELEMS;
        let mut big_src = vec![0.0f32; len];
        big_src[PAGE_ELEMS + 9] = 9.0;
        // len sits below PAGED_MIN_LEN, so build the paged variant by hand.
        let mut pm = PageMap::new(len);
        pm.mark(PAGE_ELEMS + 9);
        let tp = DirtyTracker {
            len,
            repr: Repr::Paged(pm),
        };
        let mut big_dst = vec![1.0f32; len];
        tp.copy_ranges(&big_src, &mut big_dst).unwrap();
        assert_eq!(big_dst[PAGE_ELEMS + 9], 9.0);
        assert_eq!(big_dst[0], 1.0, "clean page untouched");
        assert_eq!(big_dst[PAGE_ELEMS], 0.0, "dirty page fully mirrored");
        // Mismatched lengths surface as typed errors on both reprs.
        assert!(tp.copy_ranges(&big_src, &mut dst[..]).is_err());
        assert!(t.copy_ranges(&src[..3], &mut dst[..3]).is_err());
    }

    #[test]
    fn tracker_try_from_diff_reports_mismatch() {
        assert!(matches!(
            DirtyTracker::try_from_diff(&[0.0; 2], &[0.0; 3]),
            Err(ClError::ProtocolViolation { .. })
        ));
        assert!(DirtyTracker::try_from_diff(&[0.0; 2], &[0.0; 2])
            .unwrap()
            .is_empty());
    }
}
