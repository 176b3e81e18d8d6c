//! Shared work frontier and arrival coverage for N-way co-execution.
//!
//! The paper's two-device protocol is a race over flattened work-group IDs:
//! the GPU walks up from 0, the CPU claims chunks down from the top, and a
//! single watermark (the lowest shipped CPU boundary) tells the GPU where
//! to stop. With more than one non-owner that pair of counters no longer
//! describes the unexecuted region, so this module generalizes both ends:
//!
//! * [`Frontier`] is the shared pool of unclaimed work-group IDs. Non-owner
//!   devices claim contiguous ranges off its top (preserving the paper's
//!   top-down descent), and recovery returns a lost device's claimed-but-
//!   unshipped ranges to the pool.
//! * [`Coverage`] is the merged set of ranges whose results have arrived at
//!   the owner. Its contiguous top suffix yields the watermark the GPU's
//!   wave loop and early-abort check consume — with a single non-owner it
//!   is exactly the paper's boundary watermark.

/// Pool of unclaimed work-group IDs shared by all non-owner devices.
///
/// Work is handed out top-down: the pool is `[0, top)` plus any ranges
/// returned by recovery. With one claimant and no returns this degenerates
/// to the paper's single descending `cpu_top` counter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frontier {
    /// Top of the untouched region: `[0, top)` is unclaimed.
    top: u64,
    /// Disjoint ranges handed back by recovery, each inside `[top, total)`.
    returned: Vec<(u64, u64)>,
}

impl Frontier {
    /// A frontier over `total` flattened work-group IDs, all unclaimed.
    pub fn new(total: u64) -> Self {
        Frontier {
            top: total,
            returned: Vec::new(),
        }
    }

    /// Number of work-group IDs still claimable.
    pub fn available(&self) -> u64 {
        self.top + self.returned.iter().map(|(f, t)| t - f).sum::<u64>()
    }

    /// Whether every work-group ID has been claimed.
    pub fn is_empty(&self) -> bool {
        self.available() == 0
    }

    /// The most work-group IDs the next claim can take, which is what
    /// sizes a claim: the returned range [`Frontier::claim`] draws from,
    /// or else the untouched region.
    pub fn claimable(&self) -> u64 {
        let highest = self.returned.iter().max_by_key(|(_, to)| *to);
        highest.map_or(self.top, |(from, to)| to - from)
    }

    /// The top of the range the next claim draws from: the highest
    /// returned range's, or else the untouched region's.
    pub fn claim_top(&self) -> u64 {
        self.returned
            .iter()
            .map(|(_, to)| *to)
            .max()
            .unwrap_or(self.top)
    }

    /// Claims up to `want` contiguous work-group IDs off the top of the
    /// pool, preferring returned ranges (they sit above `top`, closest to
    /// where the owner's wave walk will arrive last). Returns `None` when
    /// the pool is empty; otherwise the claimed `(from, to)` range, which
    /// may be shorter than `want` — a claimant needing more work asks again.
    pub fn claim(&mut self, want: u64) -> Option<(u64, u64)> {
        if want == 0 {
            return None;
        }
        // Returned ranges first, highest top wins: recovery work re-enters
        // where the original claimant would have been executing.
        if let Some(idx) = (0..self.returned.len()).max_by_key(|&i| self.returned[i].1) {
            let (from, to) = self.returned[idx];
            let k = want.min(to - from);
            let claimed = (to - k, to);
            if k == to - from {
                self.returned.swap_remove(idx);
            } else {
                self.returned[idx].1 = to - k;
            }
            return Some(claimed);
        }
        if self.top == 0 {
            return None;
        }
        let k = want.min(self.top);
        let claimed = (self.top - k, self.top);
        self.top -= k;
        Some(claimed)
    }

    /// Returns a claimed-but-unexecuted range to the pool (recovery after a
    /// non-owner device loss). Merges with the untouched region when the
    /// range sits directly on top of it.
    ///
    /// # Panics
    ///
    /// Panics if `from >= to`.
    pub fn return_range(&mut self, from: u64, to: u64) {
        assert!(from < to, "returned range must be non-empty");
        if from == self.top {
            self.top = to;
            // A previously returned range may now touch the new top.
            while let Some(idx) = self.returned.iter().position(|&(f, _)| f == self.top) {
                self.top = self.returned.swap_remove(idx).1;
            }
        } else {
            self.returned.push((from, to));
        }
    }
}

/// Merged set of work-group ranges whose results have arrived at the owner.
///
/// The owner's wave loop stops below the *watermark*: the start of the
/// maximal contiguous suffix of covered IDs ending at `total`. Covered
/// islands below the watermark (a faster peer's results arriving before a
/// slower one's) do not move it — the GPU may re-execute those IDs, which
/// the diff-merge makes harmless, exactly like the paper's duplicated
/// boundary work-groups.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Coverage {
    total: u64,
    /// Disjoint, sorted-by-start covered ranges.
    ranges: Vec<(u64, u64)>,
}

impl Coverage {
    /// Empty coverage over `total` work-group IDs.
    pub fn new(total: u64) -> Self {
        Coverage {
            total,
            ranges: Vec::new(),
        }
    }

    /// Records that results for `[from, to)` arrived, merging adjacent and
    /// overlapping ranges.
    ///
    /// # Panics
    ///
    /// Panics if `from >= to` or `to > total`.
    pub fn add(&mut self, from: u64, to: u64) {
        assert!(
            from < to && to <= self.total,
            "coverage range out of bounds"
        );
        let mut from = from;
        let mut to = to;
        self.ranges.retain(|&(f, t)| {
            if t < from || f > to {
                true
            } else {
                from = from.min(f);
                to = to.max(t);
                false
            }
        });
        let at = self.ranges.partition_point(|&(f, _)| f < from);
        self.ranges.insert(at, (from, to));
    }

    /// Start of the maximal contiguous covered suffix ending at `total` —
    /// the owner's watermark. `total` when nothing borders the top yet.
    pub fn suffix_start(&self) -> u64 {
        match self.ranges.last() {
            Some(&(f, t)) if t == self.total => f,
            _ => self.total,
        }
    }

    /// Total number of covered work-group IDs.
    pub fn covered_count(&self) -> u64 {
        self.ranges.iter().map(|(f, t)| t - f).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluidicl_des::SplitMix64;

    #[test]
    fn single_claimant_descends_like_the_paper() {
        let mut f = Frontier::new(100);
        assert_eq!(f.claim(30), Some((70, 100)));
        assert_eq!(f.claim(30), Some((40, 70)));
        assert_eq!(f.claim(50), Some((0, 40)), "short claim at the bottom");
        assert!(f.is_empty());
        assert_eq!(f.claim(10), None);
    }

    #[test]
    fn returned_ranges_are_reclaimed_top_down_first() {
        let mut f = Frontier::new(100);
        assert_eq!(f.claim(20), Some((80, 100)));
        assert_eq!(f.claim(20), Some((60, 80)));
        assert_eq!(f.claim(20), Some((40, 60)), "third claim keeps the top low");
        // Neither return touches the top (40), so both stay detached.
        f.return_range(80, 100);
        f.return_range(60, 80);
        assert_eq!(f.available(), 80);
        // Highest returned range wins, clipped from its top.
        assert_eq!(f.claim(10), Some((90, 100)));
        assert_eq!(f.claim(10), Some((80, 90)));
        assert_eq!(f.claim(30), Some((60, 80)), "short claim drains the range");
        assert_eq!(f.claim(60), Some((0, 40)), "top descent is clipped at 0");
        assert!(f.is_empty());
    }

    #[test]
    fn claims_are_sized_by_the_range_one_claim_draws_from() {
        let mut rng = SplitMix64::new(0x5EED_C1A1);
        let mut f = Frontier::new(300);
        let mut claimed: Vec<(u64, u64)> = Vec::new();
        for _ in 0..400 {
            let mut probe = f.clone();
            let whole = probe.claim(u64::MAX).map_or(0, |(from, to)| to - from);
            assert_eq!(f.claimable(), whole);
            if !claimed.is_empty() && rng.range_usize(0, 3) == 0 {
                let (from, to) = claimed.swap_remove(rng.range_usize(0, claimed.len()));
                f.return_range(from, to);
            } else if let Some(range) = f.claim(1 + rng.range_usize(0, 40) as u64) {
                claimed.push(range);
            }
        }
    }

    #[test]
    fn return_adjacent_to_top_merges_back() {
        let mut f = Frontier::new(100);
        let (a_from, a_to) = f.claim(10).unwrap();
        let (b_from, b_to) = f.claim(10).unwrap();
        // Return in claim order: b sits on the new top after a merges.
        f.return_range(b_from, b_to);
        f.return_range(a_from, a_to);
        assert_eq!(f, Frontier::new(100), "full merge back to pristine");
    }

    #[test]
    fn claims_never_overlap_and_union_covers_everything() {
        let mut rng = SplitMix64::new(0xF1D1_C1A0);
        for trial in 0..200 {
            let total = 1 + rng.range_usize(0, 400) as u64;
            let mut f = Frontier::new(total);
            let mut claimed: Vec<(u64, u64)> = Vec::new();
            let mut steps = 0;
            while !f.is_empty() {
                steps += 1;
                assert!(steps < 10_000, "trial {trial} did not converge");
                let want = 1 + rng.range_usize(0, 32) as u64;
                let (from, to) = f.claim(want).expect("non-empty frontier claims");
                assert!(from < to && to <= total, "claim in bounds");
                assert!(to - from <= want, "claim never exceeds the ask");
                for &(cf, ct) in &claimed {
                    assert!(to <= cf || from >= ct, "claims must be disjoint");
                }
                // Occasionally return a claimed range, recovery-style.
                if rng.range_usize(0, 8) == 0 {
                    f.return_range(from, to);
                } else {
                    claimed.push((from, to));
                }
            }
            claimed.sort_unstable();
            let mut cursor = 0;
            for (from, to) in claimed {
                assert_eq!(from, cursor, "union must have no gaps");
                cursor = to;
            }
            assert_eq!(cursor, total, "union must cover [0, total)");
            assert_eq!(f.claim(5), None);
        }
    }

    #[test]
    fn coverage_suffix_is_the_boundary_watermark_for_one_claimant() {
        // One non-owner shipping descending boundaries: the suffix start
        // must track the lowest shipped boundary, the paper's watermark.
        let mut c = Coverage::new(100);
        assert_eq!(c.suffix_start(), 100);
        c.add(80, 100);
        assert_eq!(c.suffix_start(), 80);
        c.add(50, 80);
        assert_eq!(c.suffix_start(), 50);
        assert_eq!(c.covered_count(), 50);
    }

    #[test]
    fn coverage_islands_do_not_move_the_watermark() {
        let mut c = Coverage::new(100);
        c.add(90, 100);
        c.add(40, 60); // a faster peer's island below the suffix
        assert_eq!(c.suffix_start(), 90);
        assert_eq!(c.covered_count(), 30);
        c.add(60, 90); // bridge: suffix now reaches down through the island
        assert_eq!(c.suffix_start(), 40);
        assert_eq!(c.covered_count(), 60);
    }

    #[test]
    fn coverage_merges_overlaps_without_double_counting() {
        let mut c = Coverage::new(64);
        c.add(10, 30);
        c.add(20, 40);
        c.add(40, 50); // adjacent
        assert_eq!(c.covered_count(), 40);
        assert_eq!(c.suffix_start(), 64);
        c.add(50, 64);
        assert_eq!(c.suffix_start(), 10);
    }

    #[test]
    fn coverage_random_adds_match_a_bitmap_model() {
        let mut rng = SplitMix64::new(0xF1D1_C1A1);
        for _ in 0..100 {
            let total = 1 + rng.range_usize(0, 200) as u64;
            let mut c = Coverage::new(total);
            let mut bits = vec![false; total as usize];
            for _ in 0..rng.range_usize(0, 20) {
                let from = rng.range_usize(0, total as usize) as u64;
                let to = from + 1 + rng.range_usize(0, (total - from) as usize) as u64;
                let to = to.min(total);
                c.add(from, to);
                for b in &mut bits[from as usize..to as usize] {
                    *b = true;
                }
                let count = bits.iter().filter(|&&b| b).count() as u64;
                assert_eq!(c.covered_count(), count);
                let suffix = (0..=total)
                    .rev()
                    .take_while(|&i| i == total || bits[i as usize])
                    .last()
                    .unwrap_or(total);
                assert_eq!(c.suffix_start(), suffix);
            }
        }
    }

    /// Property test for the owner-failover accounting: claimants claim
    /// descending ranges, ship them (crediting [`Coverage`]), die mid-claim
    /// (in-flight work returns, shipped work stays) or get promoted to
    /// owner — the failover rollback, which un-credits everything they
    /// shipped and returns it to the frontier while coverage is rebuilt
    /// from the survivors. Under arbitrary interleavings of those events
    /// (including cascades of several promotions) no work-group may be
    /// lost — every one ends either credited to exactly one claimant or
    /// strictly below the watermark where the acting owner's wave walk
    /// picks it up — and none may be credited twice.
    #[test]
    fn loss_and_promotion_interleavings_never_lose_or_duplicate_work() {
        let mut rng = SplitMix64::new(0xF1D1_C1A2);
        for trial in 0..200 {
            let total = 8 + rng.range_usize(0, 256) as u64;
            let claimants = 2 + rng.range_usize(0, 3);
            let mut f = Frontier::new(total);
            let mut coverage = Coverage::new(total);
            // credit[wg] = the claimant whose shipped send currently holds
            // the work-group; exactly-once is `Option`, not a count.
            let mut credit: Vec<Option<usize>> = vec![None; total as usize];
            let mut in_flight: Vec<Vec<(u64, u64)>> = vec![Vec::new(); claimants];
            let mut applied: Vec<Vec<(u64, u64)>> = vec![Vec::new(); claimants];
            let mut alive = vec![true; claimants];
            let mut steps = 0;
            while !(f.is_empty() && in_flight.iter().all(Vec::is_empty)) {
                steps += 1;
                assert!(steps < 100_000, "trial {trial} did not converge");
                let live: Vec<usize> = (0..claimants).filter(|&c| alive[c]).collect();
                if live.is_empty() {
                    break;
                }
                let c = live[rng.range_usize(0, live.len())];
                match rng.range_usize(0, 10) {
                    0..=5 => {
                        let want = 1 + rng.range_usize(0, 16) as u64;
                        if let Some((from, to)) = f.claim(want) {
                            for wg in from..to {
                                assert!(
                                    credit[wg as usize].is_none(),
                                    "trial {trial}: frontier handed out a credited work-group"
                                );
                            }
                            for ranges in &in_flight {
                                for &(cf, ct) in ranges {
                                    assert!(
                                        to <= cf || from >= ct,
                                        "trial {trial}: claim overlaps an outstanding claim"
                                    );
                                }
                            }
                            in_flight[c].push((from, to));
                        }
                    }
                    6 | 7 => {
                        if !in_flight[c].is_empty() {
                            let i = rng.range_usize(0, in_flight[c].len());
                            let (from, to) = in_flight[c].swap_remove(i);
                            for wg in from..to {
                                assert!(
                                    credit[wg as usize].replace(c).is_none(),
                                    "trial {trial}: work-group credited twice"
                                );
                            }
                            coverage.add(from, to);
                            applied[c].push((from, to));
                        }
                    }
                    8 => {
                        // Plain loss: in-flight claims return, shipped work
                        // stays credited (in-order sends already delivered).
                        alive[c] = false;
                        for (from, to) in in_flight[c].drain(..) {
                            f.return_range(from, to);
                        }
                    }
                    _ => {
                        // Promotion rollback: the claimant becomes the
                        // acting owner from a pristine slate — everything
                        // it shipped is un-credited and returned alongside
                        // its in-flight claims, and coverage is rebuilt
                        // from the surviving claimants' shipped ranges.
                        alive[c] = false;
                        for (from, to) in in_flight[c].drain(..) {
                            f.return_range(from, to);
                        }
                        for (from, to) in applied[c].drain(..) {
                            for wg in from..to {
                                assert_eq!(credit[wg as usize].take(), Some(c));
                            }
                            f.return_range(from, to);
                        }
                        let mut rebuilt = Coverage::new(total);
                        for ranges in &applied {
                            for &(af, at) in ranges {
                                rebuilt.add(af, at);
                            }
                        }
                        coverage = rebuilt;
                    }
                }
            }
            let credited = credit.iter().filter(|c| c.is_some()).count() as u64;
            assert_eq!(
                coverage.covered_count(),
                credited,
                "trial {trial}: coverage disagrees with the credit ledger"
            );
            // The watermark splits the range exactly: everything at or
            // above it is credited to exactly one claimant, everything
            // below it that is uncredited sits in the frontier (or was
            // never claimed) where the acting owner's walk re-covers it.
            let wm = coverage.suffix_start();
            for wg in wm..total {
                assert!(
                    credit[wg as usize].is_some(),
                    "trial {trial}: work-group {wg} above the watermark {wm} lost"
                );
            }
            let mut walked = vec![false; total as usize];
            while let Some((from, to)) = f.claim(16) {
                assert!(
                    to <= wm,
                    "trial {trial}: frontier holds [{from}, {to}) above the watermark {wm}"
                );
                for wg in from..to {
                    assert!(
                        credit[wg as usize].is_none() && !walked[wg as usize],
                        "trial {trial}: work-group {wg} both credited and walkable"
                    );
                    walked[wg as usize] = true;
                }
            }
        }
    }
}
