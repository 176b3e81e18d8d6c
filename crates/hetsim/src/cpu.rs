//! CPU (OpenCL-on-multicore) performance model.
//!
//! Models the paper's quad-core Xeon W3550 with hyper-threading running the
//! AMD APP CPU OpenCL runtime: each work-group executes as a single thread
//! with its work-items run in a loop (paper §6.3), so a subkernel of `k`
//! work-groups on `t` hardware threads takes `ceil(k/t)` serial rounds. Each
//! subkernel launch pays a fixed runtime overhead — the term the adaptive
//! chunk-size heuristic (paper §5.1) amortises.

use fluidicl_des::SimDuration;

use crate::KernelProfile;

/// Analytic performance model of a multicore CPU OpenCL device.
///
/// # Examples
///
/// ```
/// use fluidicl_hetsim::{CpuModel, KernelProfile};
///
/// let cpu = CpuModel::xeon_w3550_like();
/// let p = KernelProfile::new("k").flops_per_item(512.0);
/// let t = cpu.subkernel_time(&p, 256, 16, false);
/// assert!(t > cpu.launch_overhead());
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct CpuModel {
    /// Hardware threads (compute units as OpenCL reports them).
    threads: u32,
    /// Per-thread scalar arithmetic throughput, flops per nanosecond.
    scalar_flops_per_ns: f64,
    /// Additional per-thread throughput unlocked by full SIMD utilisation.
    simd_extra_flops_per_ns: f64,
    /// Whole-socket memory bandwidth, bytes per nanosecond.
    mem_bytes_per_ns: f64,
    /// Fraction of streaming bandwidth still achieved by a fully
    /// cache-hostile access pattern.
    worst_case_bw_fraction: f64,
    /// Fixed cost of launching one subkernel through the vendor runtime.
    launch_overhead: SimDuration,
    /// Relative overhead of CPU work-group splitting (paper §6.3): custom
    /// barrier helper plus `local`→`global` buffer rewriting.
    split_overhead: f64,
}

impl CpuModel {
    /// A model calibrated to behave like the paper's Xeon W3550 (4 cores,
    /// 8 hardware threads) under the AMD APP CPU runtime.
    pub fn xeon_w3550_like() -> Self {
        CpuModel {
            threads: 8,
            scalar_flops_per_ns: 2.2,
            simd_extra_flops_per_ns: 6.5,
            mem_bytes_per_ns: 24.0,
            worst_case_bw_fraction: 0.22,
            launch_overhead: SimDuration::from_micros(25),
            split_overhead: 0.12,
        }
    }

    /// Number of hardware threads (the minimum useful work allocation;
    /// paper §5.1 clamps the chunk size to this).
    pub fn threads(&self) -> u32 {
        self.threads
    }

    /// Fixed per-subkernel launch overhead.
    pub fn launch_overhead(&self) -> SimDuration {
        self.launch_overhead
    }

    /// Time for one work-group of `items` items executed serially on one
    /// hardware thread.
    pub fn wg_time(&self, p: &KernelProfile, items: u64) -> SimDuration {
        let flop_rate =
            self.scalar_flops_per_ns + self.simd_extra_flops_per_ns * p.simd_friendliness();
        let compute_ns = items as f64 * p.flops() / flop_rate;
        let per_thread_bw = self.mem_bytes_per_ns / f64::from(self.threads);
        let eff_bw = per_thread_bw
            * (self.worst_case_bw_fraction
                + (1.0 - self.worst_case_bw_fraction) * p.cache_locality());
        let mem_ns = items as f64 * p.bytes() / eff_bw;
        // CPUs overlap arithmetic with outstanding loads less perfectly than
        // GPUs hide latency; charge the larger term plus a fraction of the
        // smaller.
        let total = compute_ns.max(mem_ns) + 0.25 * compute_ns.min(mem_ns);
        SimDuration::from_nanos(total.ceil() as u64)
    }

    /// Time for a subkernel of `wg_count` work-groups of `items` items,
    /// including the launch overhead.
    ///
    /// With `split` enabled and fewer work-groups than hardware threads, each
    /// work-group is divided across all threads (paper §6.3), trading a small
    /// overhead for full utilisation.
    pub fn subkernel_time(
        &self,
        p: &KernelProfile,
        items: u64,
        wg_count: u64,
        split: bool,
    ) -> SimDuration {
        if wg_count == 0 {
            return SimDuration::ZERO;
        }
        let wg = self.wg_time(p, items);
        let threads = u64::from(self.threads);
        let body = if split && wg_count < threads {
            // Work of `wg_count` groups spread evenly over every thread.
            (wg * wg_count)
                .div_count(threads)
                .mul_f64(1.0 + self.split_overhead)
        } else {
            wg * wg_count.div_ceil(threads)
        };
        self.launch_overhead + body
    }

    /// Returns a copy with a different thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: u32) -> Self {
        assert!(threads > 0, "a CPU has at least one thread");
        self.threads = threads;
        self
    }

    /// Returns a copy with a different launch overhead (for sensitivity
    /// studies).
    #[must_use]
    pub fn with_launch_overhead(mut self, overhead: SimDuration) -> Self {
        self.launch_overhead = overhead;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu() -> CpuModel {
        CpuModel::xeon_w3550_like()
    }

    fn profile() -> KernelProfile {
        KernelProfile::new("t")
            .flops_per_item(1024.0)
            .bytes_read_per_item(2048.0)
            .inner_loop_trips(256)
    }

    #[test]
    fn zero_workgroups_cost_nothing() {
        assert_eq!(
            cpu().subkernel_time(&profile(), 256, 0, false),
            SimDuration::ZERO
        );
    }

    #[test]
    fn rounds_scale_with_thread_count() {
        let c = cpu();
        let p = profile();
        let one_round = c.subkernel_time(&p, 256, 8, false);
        let two_rounds = c.subkernel_time(&p, 256, 9, false);
        let wg = c.wg_time(&p, 256);
        assert_eq!(two_rounds - one_round, wg);
    }

    #[test]
    fn splitting_helps_below_thread_count() {
        let c = cpu();
        let p = profile();
        let unsplit = c.subkernel_time(&p, 256, 2, false);
        let split = c.subkernel_time(&p, 256, 2, true);
        assert!(split < unsplit, "2 work-groups on 8 threads should split");
    }

    #[test]
    fn splitting_is_a_no_op_at_or_above_thread_count() {
        let c = cpu();
        let p = profile();
        assert_eq!(
            c.subkernel_time(&p, 256, 8, true),
            c.subkernel_time(&p, 256, 8, false)
        );
        assert_eq!(
            c.subkernel_time(&p, 256, 100, true),
            c.subkernel_time(&p, 256, 100, false)
        );
    }

    #[test]
    fn cache_locality_matters() {
        let c = cpu();
        let friendly = profile().cpu_cache_locality(1.0);
        let hostile = profile().cpu_cache_locality(0.0);
        assert!(c.wg_time(&hostile, 256) > c.wg_time(&friendly, 256));
    }

    #[test]
    fn simd_friendliness_matters() {
        let c = cpu();
        let vectorized = KernelProfile::new("v").flops_per_item(4096.0);
        let scalar = KernelProfile::new("s")
            .flops_per_item(4096.0)
            .cpu_simd_friendliness(0.0);
        assert!(c.wg_time(&scalar, 256) > c.wg_time(&vectorized, 256));
    }

    #[test]
    fn with_threads_changes_rounds() {
        let c = cpu().with_threads(4);
        let p = profile();
        let t8 = cpu().subkernel_time(&p, 256, 32, false);
        let t4 = c.subkernel_time(&p, 256, 32, false);
        assert!(t4 > t8);
    }
}
