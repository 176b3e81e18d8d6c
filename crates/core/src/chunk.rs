//! Adaptive CPU chunk sizing (paper §5.1).
//!
//! The CPU executes subkernels of a few work-groups at a time; too small a
//! chunk drowns in per-launch overhead, too large a chunk starves the GPU of
//! status updates. FluidiCL starts small and grows the chunk in fixed steps
//! *while the observed average time per work-group keeps improving* — a
//! training-free heuristic that lands near the launch-overhead knee on any
//! machine.
//!
//! Refinements on top of the paper's controller:
//!
//! * the chunk grows in whole waves: each grown chunk rounds up to a
//!   multiple of the compute-unit floor, so no subkernel leaves a second
//!   wave mostly idle (which would read as a worse time per work-group and
//!   stop growth after one step);
//! * [`ChunkController::next_claim`] absorbs a tail of at most one floor
//!   into the current claim when one launch is predicted to beat two: on a
//!   small kernel the CPU then pays its launch overhead once;
//! * [`ChunkController::next_peer_claim`] keeps a peer GPU's claim to what
//!   it can deliver before the owner would run the range itself: the chunk,
//!   else one floor, else nothing;
//! * the growth decision is fed **compute** time only, never the transfer
//!   stall between finishing a subkernel and launching the next, so the
//!   serial and pipelined protocols grow the chunk on the same schedule;
//! * when the transfer layer reports a retry ([`ChunkController::
//!   on_transfer_retry`]), the next chunk is halved and growth stops: on a
//!   flaky link, smaller batches produce more frequent statuses, so more
//!   CPU work is acknowledged (and stays mergeable) before a watchdog
//!   abandons the link.

use fluidicl_des::SimDuration;

/// The adaptive chunk-size controller for one kernel execution.
#[derive(Clone, Debug)]
pub struct ChunkController {
    total_wgs: u64,
    chunk: u64,
    step: u64,
    min_chunk: u64,
    growing: bool,
    best_per_wg: Option<SimDuration>,
    tolerance: f64,
}

impl ChunkController {
    /// Creates a controller for a kernel of `total_wgs` work-groups.
    ///
    /// `initial_pct`/`step_pct` are percentages of `total_wgs`; `min_chunk`
    /// is the CPU compute-unit count (allocations below it under-utilise the
    /// device, paper §5.1). A `step_pct` of zero freezes the chunk.
    ///
    /// # Panics
    ///
    /// Panics if `total_wgs` or `min_chunk` is zero, or percentages are out
    /// of range.
    pub fn new(
        total_wgs: u64,
        initial_pct: f64,
        step_pct: f64,
        min_chunk: u64,
        tolerance: f64,
    ) -> Self {
        assert!(total_wgs > 0, "kernel must have work-groups");
        assert!(min_chunk > 0, "minimum chunk must be positive");
        assert!(
            initial_pct > 0.0 && initial_pct <= 100.0,
            "initial percent out of range"
        );
        assert!(
            (0.0..=100.0).contains(&step_pct),
            "step percent out of range"
        );
        let pct = |p: f64| ((total_wgs as f64 * p / 100.0).ceil() as u64).max(1);
        let chunk = pct(initial_pct).max(min_chunk).min(total_wgs);
        ChunkController {
            total_wgs,
            chunk,
            step: if step_pct == 0.0 { 0 } else { pct(step_pct) },
            min_chunk,
            growing: step_pct > 0.0,
            best_per_wg: None,
            tolerance,
        }
    }

    /// The chunk size the next subkernel should use, clamped to `remaining`.
    pub fn next_chunk(&self, remaining: u64) -> u64 {
        self.chunk.min(remaining).max(1)
    }

    /// The work-groups the next subkernel should claim out of `remaining`,
    /// given `launch_cost(n)`, the endpoint's predicted time for one launch
    /// of `n` work-groups: the next chunk, or the whole of `remaining` when
    /// the tail past the chunk is at most one minimum chunk and one launch
    /// of everything is predicted to take no longer than the chunk's launch
    /// followed by the tail's. A short tail then costs no extra launch
    /// overhead, while a tail the device splits more cheaply than it runs as
    /// a second, part-filled wave stays separate.
    pub fn next_claim(&self, remaining: u64, launch_cost: impl Fn(u64) -> SimDuration) -> u64 {
        let chunk = self.next_chunk(remaining);
        let tail = remaining.saturating_sub(chunk);
        if tail > 0
            && tail <= self.min_chunk
            && launch_cost(remaining) <= launch_cost(chunk) + launch_cost(tail)
        {
            remaining
        } else {
            chunk
        }
    }

    /// The work-groups a peer should claim out of `remaining`, given
    /// `in_time(n)`, whether a claim of `n` work-groups is predicted to
    /// deliver before the owner would finish the range itself: the next
    /// chunk if it does, else one minimum chunk if that does, else zero.
    pub fn next_peer_claim(&self, remaining: u64, in_time: impl Fn(u64) -> bool) -> u64 {
        let chunk = self.next_chunk(remaining);
        let floor = self.min_chunk.min(chunk);
        if in_time(chunk) {
            chunk
        } else if floor < chunk && in_time(floor) {
            floor
        } else {
            0
        }
    }

    /// Current unclamped chunk size.
    pub fn chunk(&self) -> u64 {
        self.chunk
    }

    /// Whether the controller is still in its growth phase.
    pub fn is_growing(&self) -> bool {
        self.growing
    }

    /// Feeds back one completed subkernel: `wgs` work-groups and its pure
    /// `compute` duration. Grows the chunk by one step if the average
    /// compute time per work-group improved by more than the tolerance;
    /// otherwise stops growing.
    pub fn observe(&mut self, wgs: u64, compute: SimDuration) {
        if wgs == 0 {
            return;
        }
        let per_wg = compute.div_count(wgs);
        match self.best_per_wg {
            None => {
                self.best_per_wg = Some(per_wg);
                if self.growing {
                    self.grow();
                }
            }
            Some(best) => {
                let improved =
                    (per_wg.as_nanos() as f64) < (best.as_nanos() as f64) * (1.0 - self.tolerance);
                if per_wg < best {
                    self.best_per_wg = Some(per_wg);
                }
                if self.growing {
                    if improved {
                        self.grow();
                    } else {
                        self.growing = false;
                    }
                }
            }
        }
    }

    /// Reacts to a transfer retry on the hd link: the next chunk is halved
    /// (never below the compute-unit floor) and growth stops. Smaller
    /// chunks mean more frequent statuses, so on a link that is about to be
    /// abandoned more of the CPU's work is already acknowledged — and
    /// therefore mergeable — when the watchdog fires.
    pub fn on_transfer_retry(&mut self) {
        self.chunk = (self.chunk / 2).max(self.min_chunk);
        self.growing = false;
    }

    /// Grows the chunk by one step, rounded up to whole waves of
    /// `min_chunk`: a chunk that spills a few work-groups into a second,
    /// mostly idle wave takes longer per work-group and would end growth.
    fn grow(&mut self) {
        self.chunk = (self.chunk + self.step)
            .next_multiple_of(self.min_chunk)
            .min(self.total_wgs)
            .max(self.min_chunk);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> ChunkController {
        // 1000 work-groups, 2% initial, 2% step, 8 compute units.
        ChunkController::new(1000, 2.0, 2.0, 8, 0.02)
    }

    #[test]
    fn initial_chunk_is_percentage_clamped_to_min() {
        let c = controller();
        assert_eq!(c.chunk(), 20);
        // Tiny NDRange: percentage would be below the compute-unit count.
        let tiny = ChunkController::new(100, 1.0, 1.0, 8, 0.02);
        assert_eq!(tiny.chunk(), 8, "chunk is clamped up to the CPU units");
    }

    #[test]
    fn chunk_grows_while_per_wg_time_improves() {
        let mut c = controller();
        c.observe(20, SimDuration::from_micros(200)); // 10 µs/wg
        assert_eq!(c.chunk(), 40);
        c.observe(40, SimDuration::from_micros(320)); // 8 µs/wg — improving
        assert_eq!(c.chunk(), 64, "40 + 20 rounds up to eight waves of 8");
        c.observe(64, SimDuration::from_micros(512)); // 8 µs/wg — flat
        assert_eq!(c.chunk(), 64, "growth stops when improvement stalls");
        assert!(!c.is_growing());
        c.observe(64, SimDuration::from_micros(128)); // improvement after stop
        assert_eq!(c.chunk(), 64, "growth never restarts");
    }

    #[test]
    fn transfer_retry_halves_the_chunk_and_stops_growth() {
        let mut c = controller();
        c.observe(20, SimDuration::from_micros(200));
        c.observe(40, SimDuration::from_micros(320));
        assert_eq!(c.chunk(), 64);
        c.on_transfer_retry();
        assert_eq!(c.chunk(), 32);
        assert!(!c.is_growing(), "a flaky link ends the growth phase");
        c.observe(32, SimDuration::from_micros(64));
        assert_eq!(c.chunk(), 32, "growth never restarts after a retry");
        // Repeated retries bottom out at the compute-unit floor.
        for _ in 0..8 {
            c.on_transfer_retry();
        }
        assert_eq!(c.chunk(), 8);
    }

    #[test]
    fn growth_comes_in_whole_waves() {
        // 8 threads and a 2-group step: 8 + 2 would leave a second wave a
        // quarter full, so each grown chunk rounds up to a multiple of 8.
        let mut c = ChunkController::new(100, 2.0, 2.0, 8, 0.02);
        assert_eq!(c.chunk(), 8);
        c.observe(8, SimDuration::from_micros(80));
        assert_eq!(c.chunk(), 16);
        c.observe(16, SimDuration::from_micros(120));
        assert_eq!(c.chunk(), 24);
        // Rounding never carries the chunk past the kernel.
        let mut small = ChunkController::new(20, 40.0, 50.0, 8, 0.02);
        small.observe(8, SimDuration::from_micros(80));
        assert_eq!(small.chunk(), 20);
    }

    /// One launch on 8 threads, with work-group splitting: a 25 µs launch
    /// overhead, then `wg` per wave, or a fair share of one group's work
    /// per thread (plus 10%) for fewer groups than threads.
    fn cpu_launch(wg: SimDuration) -> impl Fn(u64) -> SimDuration {
        move |n| {
            let body = if n < 8 {
                (wg * n).div_count(8).mul_f64(1.1)
            } else {
                wg * n.div_ceil(8)
            };
            SimDuration::from_micros(25) + body
        }
    }

    #[test]
    fn a_short_tail_is_absorbed_when_one_launch_wins() {
        // 16 cheap groups on 8 threads: one launch of two waves saves the
        // second launch's overhead.
        let c = ChunkController::new(16, 2.0, 2.0, 8, 0.02);
        let launch = cpu_launch(SimDuration::from_micros(4));
        assert_eq!(c.next_chunk(16), 8);
        assert_eq!(c.next_claim(16, &launch), 16);
        // A tail longer than one minimum chunk is never absorbed, and
        // nothing is left to absorb when the chunk covers everything.
        assert_eq!(c.next_claim(17, &launch), 8);
        assert_eq!(c.next_claim(8, &launch), 8);
        assert_eq!(c.next_claim(5, &launch), 5);
    }

    #[test]
    fn a_split_tail_stays_separate_when_two_launches_win() {
        // 8 + 2 costly groups: absorbing the 2 would run them as a second
        // wave of 2 on 8 threads, while their own launch splits them over
        // every thread.
        let c = ChunkController::new(10, 2.0, 2.0, 8, 0.02);
        let launch = cpu_launch(SimDuration::from_micros(400));
        assert!(launch(10) > launch(8) + launch(2));
        assert_eq!(c.next_claim(10, &launch), 8);
    }

    #[test]
    fn a_peer_claim_falls_back_to_one_floor_then_to_nothing() {
        let c = controller();
        assert_eq!(c.next_peer_claim(1000, |_| true), 20);
        assert_eq!(c.next_peer_claim(1000, |n| n <= 8), 8);
        assert_eq!(c.next_peer_claim(1000, |_| false), 0);
        // A chunk clamped to the floor is tried once.
        assert_eq!(c.next_peer_claim(5, |n| n < 5), 0);
    }

    #[test]
    fn zero_step_freezes_chunk() {
        let mut c = ChunkController::new(1000, 2.0, 0.0, 8, 0.02);
        assert!(!c.is_growing());
        c.observe(20, SimDuration::from_micros(100));
        c.observe(20, SimDuration::from_micros(10));
        assert_eq!(c.chunk(), 20);
    }

    #[test]
    fn next_chunk_clamps_to_remaining() {
        let c = controller();
        assert_eq!(c.next_chunk(5), 5);
        assert_eq!(c.next_chunk(1000), 20);
        assert_eq!(c.next_chunk(0), 1, "never returns zero");
    }

    #[test]
    fn chunk_never_exceeds_total() {
        let mut c = ChunkController::new(10, 50.0, 50.0, 8, 0.02);
        for i in 0..20 {
            // Strictly improving observations try to grow forever.
            c.observe(5, SimDuration::from_micros(1000 / (i + 1)));
        }
        assert!(c.chunk() <= 10);
    }

    #[test]
    fn large_initial_percentages_work() {
        let c = ChunkController::new(400, 75.0, 2.0, 8, 0.02);
        assert_eq!(c.chunk(), 300);
    }
}
