//! GPU throughput model.
//!
//! Models a discrete GPU in the spirit of the paper's NVidia Tesla C2070: a
//! set of SMs executing work-groups in *waves* (as many concurrent
//! work-groups as the device holds resident), with throughput bounded by
//! whichever of arithmetic or memory bandwidth saturates first. Coalescing
//! and divergence penalties make irregular kernels proportionally slower,
//! which is what lets the CPU catch up on some Polybench kernels (paper §3).
//!
//! The model also prices FluidiCL's kernel transformations (paper §6.4–6.5):
//! abort checks inside loops cost extra instructions and inhibit compiler
//! loop unrolling unless the manual-unroll transformation is applied.

use fluidicl_des::{SimDuration, SimTime};

use crate::KernelProfile;

/// Where the GPU kernel performs CPU-completion abort checks (paper §4.2,
/// §6.4, §6.5).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AbortMode {
    /// Unmodified kernel: no checks at all (used by single-device baselines).
    None,
    /// Check once at the start of every work-group ("NoAbortUnroll" in
    /// Fig. 15): a work-group that already started runs to completion.
    WorkGroupStart,
    /// Checks inside the innermost loop, but without the manual unrolling
    /// that restores compiler optimisation ("NoUnroll" in Fig. 15).
    InLoop,
    /// Checks inside the innermost loop with manual unrolling around them
    /// ("AllOpt" in Fig. 15).
    InLoopUnrolled,
}

impl AbortMode {
    /// Whether a running work-group can terminate before finishing its loop.
    pub fn allows_early_abort(self) -> bool {
        matches!(self, AbortMode::InLoop | AbortMode::InLoopUnrolled)
    }
}

/// Analytic performance model of a discrete GPU.
///
/// # Examples
///
/// ```
/// use fluidicl_hetsim::{AbortMode, GpuModel, KernelProfile};
///
/// let gpu = GpuModel::tesla_c2070_like();
/// let p = KernelProfile::new("k").flops_per_item(512.0).inner_loop_trips(256);
/// let t = gpu.range_time(&p, 256, 1024, AbortMode::None);
/// assert!(!t.is_zero());
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct GpuModel {
    /// Number of streaming multiprocessors.
    sms: u32,
    /// Work-groups resident per SM; `sms * wgs_per_sm` is the wave width.
    wgs_per_sm: u32,
    /// Device-wide sustained arithmetic throughput, flops per nanosecond.
    flops_per_ns: f64,
    /// Device-wide sustained memory bandwidth, bytes per nanosecond.
    mem_bytes_per_ns: f64,
    /// Slowdown factor for fully uncoalesced access (effective bandwidth is
    /// divided by this for the scattered fraction of traffic).
    uncoalesced_penalty: f64,
    /// Extra time multiplier at full divergence: `1 + divergence * this`.
    divergence_penalty: f64,
    /// Fixed cost of launching a kernel.
    launch_overhead: SimDuration,
    /// Flop-equivalent cost of one abort check (status load + branch).
    check_cost_flops: f64,
    /// Manual unroll factor applied around in-loop checks (paper §6.5).
    unroll_factor: u32,
    /// Peak body slowdown when an in-loop check inhibits compiler unrolling;
    /// scaled down for loop bodies with more arithmetic per trip.
    unroll_inhibition: f64,
    /// Fixed cost of allocating a device buffer.
    alloc_overhead: SimDuration,
    /// Allocation throughput (page mapping), bytes per nanosecond.
    alloc_bytes_per_ns: f64,
    /// Memory-pipeline improvement from FluidiCL's manual loop unrolling on
    /// imperfectly coalesced kernels (the paper observes SYRK's modified
    /// kernel beating the unmodified one through "improved GPU cache
    /// performance", §9.1). Scaled by `1 − coalescing`.
    unroll_cache_bonus: f64,
}

impl GpuModel {
    /// A model calibrated to behave like the paper's Tesla C2070 relative to
    /// [`crate::CpuModel::xeon_w3550_like`].
    pub fn tesla_c2070_like() -> Self {
        GpuModel {
            sms: 14,
            wgs_per_sm: 6,
            flops_per_ns: 515.0,
            mem_bytes_per_ns: 110.0,
            uncoalesced_penalty: 8.0,
            divergence_penalty: 3.0,
            launch_overhead: SimDuration::from_micros(12),
            check_cost_flops: 6.0,
            unroll_factor: 8,
            unroll_inhibition: 0.9,
            alloc_overhead: SimDuration::from_micros(15),
            alloc_bytes_per_ns: 800.0,
            unroll_cache_bonus: 0.15,
        }
    }

    /// Number of work-groups that execute concurrently (one "wave").
    pub fn wave_width(&self) -> u64 {
        u64::from(self.sms) * u64::from(self.wgs_per_sm)
    }

    /// Kernel-launch fixed overhead.
    pub fn launch_overhead(&self) -> SimDuration {
        self.launch_overhead
    }

    /// Effective per-item arithmetic cost in flops, including abort-check
    /// instructions.
    fn effective_flops(&self, p: &KernelProfile, abort: AbortMode) -> f64 {
        let trips = f64::from(p.loop_trips());
        match abort {
            AbortMode::None => p.flops(),
            // One check at work-group entry is negligible per item but we
            // charge it once per item for simplicity — it is tiny.
            AbortMode::WorkGroupStart => p.flops() + self.check_cost_flops / trips.max(1.0),
            // A check every iteration of the innermost loop.
            AbortMode::InLoop => p.flops() + self.check_cost_flops * trips,
            // Manual unrolling amortises the check over `unroll_factor`
            // iterations (paper §6.5).
            AbortMode::InLoopUnrolled => {
                p.flops() + self.check_cost_flops * trips / f64::from(self.unroll_factor)
            }
        }
    }

    /// Whole-body slowdown when an in-loop check inhibits compiler loop
    /// unrolling (paper §6.5): fewer independent instructions per iteration
    /// hurt both the arithmetic pipeline and latency hiding for loads, and
    /// short loop bodies suffer most.
    fn unroll_dilution(&self, p: &KernelProfile, abort: AbortMode) -> f64 {
        match abort {
            AbortMode::InLoop => 1.0 + self.unroll_inhibition / (1.0 + p.flops_per_trip() / 8.0),
            // Manual unrolling batches loads and improves cache behaviour on
            // kernels the hardware cannot fully coalesce — the paper's
            // explanation for SYRK's >1 speedup over the GPU (§9.1).
            AbortMode::InLoopUnrolled => 1.0 - self.unroll_cache_bonus * (1.0 - p.coalescing()),
            _ => 1.0,
        }
    }

    /// Time for one work-group of `items` work-items, assuming a full wave
    /// shares the device.
    pub fn wg_time(&self, p: &KernelProfile, items: u64, abort: AbortMode) -> SimDuration {
        let slots = self.wave_width() as f64;
        let slot_flops = self.flops_per_ns / slots;
        let slot_bw = self.mem_bytes_per_ns / slots;
        let compute_ns = items as f64 * self.effective_flops(p, abort) / slot_flops;
        let coalesced = p.coalescing() + (1.0 - p.coalescing()) / self.uncoalesced_penalty;
        let mem_ns = items as f64 * p.bytes() / (slot_bw * coalesced);
        let base = compute_ns.max(mem_ns) * self.unroll_dilution(p, abort);
        let total = base * (1.0 + p.divergence() * self.divergence_penalty);
        SimDuration::from_nanos(total.ceil() as u64)
    }

    /// Time to execute `wg_count` work-groups of `items` items each, issued
    /// in waves of [`GpuModel::wave_width`]. Does not include launch
    /// overhead.
    pub fn range_time(
        &self,
        p: &KernelProfile,
        items: u64,
        wg_count: u64,
        abort: AbortMode,
    ) -> SimDuration {
        if wg_count == 0 {
            return SimDuration::ZERO;
        }
        let waves = wg_count.div_ceil(self.wave_width());
        self.wg_time(p, items, abort) * waves
    }

    /// Time of one whole launch of the unmodified kernel (no abort checks)
    /// over `wg_count` work-groups: launch overhead plus the wave walk.
    /// What a single-device queue, the baselines' schedulers and a peer
    /// GPU's claimed range each pay per launch.
    pub fn launch_time(&self, p: &KernelProfile, items: u64, wg_count: u64) -> SimDuration {
        self.launch_overhead + self.range_time(p, items, wg_count, AbortMode::None)
    }

    /// The granularity at which a *running* wave can abort: the virtual time
    /// between consecutive in-loop checks. Returns `None` when the abort mode
    /// only checks at work-group start (the wave then runs to completion).
    pub fn abort_quantum(
        &self,
        p: &KernelProfile,
        items: u64,
        abort: AbortMode,
    ) -> Option<SimDuration> {
        if !abort.allows_early_abort() {
            return None;
        }
        let checks_per_wg = match abort {
            AbortMode::InLoop => u64::from(p.loop_trips()),
            AbortMode::InLoopUnrolled => {
                u64::from(p.loop_trips()).div_ceil(u64::from(self.unroll_factor))
            }
            _ => unreachable!(),
        }
        .max(1);
        let wg = self.wg_time(p, items, abort);
        Some((wg / checks_per_wg).max(SimDuration::from_nanos(1)))
    }

    /// Time for the diff-and-merge kernel (paper §4.3) over `bytes` of
    /// output data: reads the CPU copy and the original copy, conditionally
    /// writes the destination — about 3 bytes of traffic per payload byte.
    pub fn merge_time(&self, bytes: u64) -> SimDuration {
        let traffic = 3.0 * bytes as f64;
        self.launch_overhead + SimDuration::from_nanos((traffic / self.mem_bytes_per_ns) as u64)
    }

    /// Time for an on-device copy of `bytes` (the diff-merge snapshot of
    /// paper §5.5): each byte is read once and written once.
    pub fn copy_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_nanos((2.0 * bytes as f64 / self.mem_bytes_per_ns) as u64)
    }

    /// Time to allocate a device buffer of `bytes` (paper §6.1 motivates the
    /// buffer pool by this cost). Work already on the GPU's own timeline
    /// (scratch buffers at launch, a single in-order device queue) adds it
    /// as a duration; [`GpuModel::allocate`] places a host-issued one.
    pub fn buffer_create_time(&self, bytes: u64) -> SimDuration {
        self.alloc_overhead
            + SimDuration::from_nanos((bytes as f64 / self.alloc_bytes_per_ns) as u64)
    }

    /// When a `bytes`-byte GPU buffer the host creates at `host` exists on
    /// the GPU, whose in-order queue is busy until `queue`: nothing on that
    /// queue that touches the buffer, its first host-to-device copy
    /// included, may start earlier. Every runtime creates buffers through
    /// this rule, so the co-execution runtime and its baselines pay the
    /// same.
    ///
    /// OpenCL runtimes allocate lazily: `clCreateBuffer` returns at once,
    /// and the GPU pays for the allocation on its queue, ahead of the
    /// buffer's first transfer. So the host clock does not advance, and a
    /// host that never uses the GPU never waits for it.
    pub fn allocate(&self, bytes: u64, host: SimTime, queue: SimTime) -> SimTime {
        host.max(queue) + self.buffer_create_time(bytes)
    }

    /// Device-wide arithmetic throughput in flops/ns (for reporting).
    pub fn peak_flops_per_ns(&self) -> f64 {
        self.flops_per_ns
    }

    /// Returns a copy with a different wave width (for sensitivity tests).
    #[must_use]
    pub fn with_wave(mut self, sms: u32, wgs_per_sm: u32) -> Self {
        assert!(
            sms > 0 && wgs_per_sm > 0,
            "wave dimensions must be positive"
        );
        self.sms = sms;
        self.wgs_per_sm = wgs_per_sm;
        self
    }

    /// Returns a copy with different peak rates (for calibration).
    #[must_use]
    pub fn with_rates(mut self, flops_per_ns: f64, mem_bytes_per_ns: f64) -> Self {
        assert!(
            flops_per_ns > 0.0 && mem_bytes_per_ns > 0.0,
            "rates must be positive"
        );
        self.flops_per_ns = flops_per_ns;
        self.mem_bytes_per_ns = mem_bytes_per_ns;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu() -> GpuModel {
        GpuModel::tesla_c2070_like()
    }

    fn profile() -> KernelProfile {
        KernelProfile::new("t")
            .flops_per_item(1024.0)
            .bytes_read_per_item(2048.0)
            .bytes_written_per_item(4.0)
            .inner_loop_trips(256)
    }

    #[test]
    fn zero_workgroups_cost_nothing() {
        assert_eq!(
            gpu().range_time(&profile(), 256, 0, AbortMode::None),
            SimDuration::ZERO
        );
    }

    #[test]
    fn range_time_scales_in_waves() {
        let g = gpu();
        let p = profile();
        let one_wave = g.range_time(&p, 256, 1, AbortMode::None);
        let full_wave = g.range_time(&p, 256, g.wave_width(), AbortMode::None);
        let two_waves = g.range_time(&p, 256, g.wave_width() + 1, AbortMode::None);
        assert_eq!(one_wave, full_wave, "a partial wave costs a full wave slot");
        assert_eq!(two_waves, full_wave * 2);
    }

    #[test]
    fn uncoalesced_access_is_slower() {
        let g = gpu();
        let good = profile().gpu_coalescing(1.0);
        let bad = profile().gpu_coalescing(0.0);
        assert!(
            g.wg_time(&bad, 256, AbortMode::None) > g.wg_time(&good, 256, AbortMode::None),
            "scattered access must cost more"
        );
    }

    #[test]
    fn divergence_is_slower() {
        let g = gpu();
        let uniform = profile();
        let divergent = profile().gpu_divergence(0.8);
        assert!(
            g.wg_time(&divergent, 256, AbortMode::None) > g.wg_time(&uniform, 256, AbortMode::None)
        );
    }

    #[test]
    fn abort_modes_order_as_in_fig15() {
        // NoUnroll (InLoop) must be the slowest variant; AllOpt
        // (InLoopUnrolled) only slightly slower than no checks at all.
        let g = gpu();
        let p = profile();
        let none = g.wg_time(&p, 256, AbortMode::None);
        let wg_start = g.wg_time(&p, 256, AbortMode::WorkGroupStart);
        let unrolled = g.wg_time(&p, 256, AbortMode::InLoopUnrolled);
        let in_loop = g.wg_time(&p, 256, AbortMode::InLoop);
        assert!(none <= wg_start);
        assert!(wg_start <= unrolled);
        assert!(
            unrolled < in_loop,
            "unrolling must recover most of the cost"
        );
    }

    #[test]
    fn abort_quantum_only_for_in_loop_modes() {
        let g = gpu();
        let p = profile();
        assert!(g.abort_quantum(&p, 256, AbortMode::None).is_none());
        assert!(g
            .abort_quantum(&p, 256, AbortMode::WorkGroupStart)
            .is_none());
        let q_unrolled = g.abort_quantum(&p, 256, AbortMode::InLoopUnrolled).unwrap();
        let q_raw = g.abort_quantum(&p, 256, AbortMode::InLoop).unwrap();
        assert!(!q_unrolled.is_zero());
        // Unrolled kernels check less often, so the quantum is coarser
        // relative to the (smaller) work-group time.
        let wg_unrolled = g.wg_time(&p, 256, AbortMode::InLoopUnrolled);
        let wg_raw = g.wg_time(&p, 256, AbortMode::InLoop);
        assert!(q_unrolled.as_nanos() * 256 >= wg_unrolled.as_nanos());
        assert!(q_raw.as_nanos() * 256 <= wg_raw.as_nanos() + 256);
    }

    #[test]
    fn unrolled_kernels_gain_cache_bonus_when_uncoalesced() {
        // The paper's SYRK observation (§9.1): FluidiCL's unrolled kernel
        // outruns the unmodified one on imperfectly coalesced loops.
        let g = gpu();
        let scattered = profile().gpu_coalescing(0.4);
        assert!(
            g.wg_time(&scattered, 256, AbortMode::InLoopUnrolled)
                < g.wg_time(&scattered, 256, AbortMode::None)
        );
        // Fully coalesced kernels get no bonus.
        let coalesced = profile().gpu_coalescing(1.0);
        assert!(
            g.wg_time(&coalesced, 256, AbortMode::InLoopUnrolled)
                >= g.wg_time(&coalesced, 256, AbortMode::None)
        );
    }

    #[test]
    fn merge_time_grows_with_bytes() {
        let g = gpu();
        assert!(g.merge_time(1 << 20) < g.merge_time(1 << 24));
        assert!(g.merge_time(0) >= g.launch_overhead());
    }

    #[test]
    fn buffer_create_has_fixed_and_linear_parts() {
        let g = gpu();
        let small = g.buffer_create_time(4);
        let big = g.buffer_create_time(1 << 26);
        assert!(small >= SimDuration::from_micros(15));
        assert!(big > small);
    }

    #[test]
    fn allocation_queues_behind_the_later_of_host_and_gpu() {
        let g = gpu();
        let cost = g.buffer_create_time(4096);
        let (early, late) = (SimTime::from_nanos(1_000), SimTime::from_nanos(50_000));
        assert_eq!(g.allocate(4096, early, late), late + cost);
        assert_eq!(g.allocate(4096, late, early), late + cost);
    }

    #[test]
    fn memory_bound_kernel_ignores_flop_changes() {
        let g = gpu();
        let mem_bound = KernelProfile::new("m")
            .flops_per_item(1.0)
            .bytes_read_per_item(4096.0);
        let slightly_more_flops = KernelProfile::new("m")
            .flops_per_item(2.0)
            .bytes_read_per_item(4096.0);
        assert_eq!(
            g.wg_time(&mem_bound, 256, AbortMode::None),
            g.wg_time(&slightly_more_flops, 256, AbortMode::None)
        );
    }
}
