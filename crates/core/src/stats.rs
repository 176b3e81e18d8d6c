//! Per-kernel execution reports and runtime-level statistics.

use fluidicl_des::{SimDuration, SimTime};
use fluidicl_vcl::{NdRange, Scalars};

use crate::trace::TraceEvent;

/// Static launch metadata recorded alongside a [`KernelReport`]: the
/// geometry, scalar arguments and output-buffer lengths a trace checker
/// needs to turn work-group ranges into element footprints (via
/// [`KernelDef::write_footprints`](fluidicl_vcl::KernelDef::write_footprints))
/// without access to the original [`Launch`](fluidicl_vcl::Launch).
#[derive(Clone, Debug)]
pub struct LaunchMeta {
    /// Index space of the launch.
    pub ndrange: NdRange,
    /// Scalar arguments of the launch.
    pub scalars: Scalars,
    /// Length of each output buffer, in signature order among `Out`/`InOut`
    /// arguments.
    pub out_lens: Vec<usize>,
}

/// Which side established the final data of a kernel (paper §4.2: the
/// faster device always does more work; either can finish the NDRange).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Finisher {
    /// The GPU reached the CPU watermark; results were merged on the GPU.
    Gpu,
    /// The CPU computed the entire NDRange first; the GPU results were
    /// ignored and no device-to-host transfer was needed.
    Cpu,
}

/// Statistics of one co-executed kernel launch.
#[derive(Clone, Debug)]
pub struct KernelReport {
    /// Kernel name.
    pub kernel: String,
    /// Monotonic kernel id, in placement order.
    pub kernel_id: u64,
    /// Host time of the blocking enqueue call.
    pub enqueued_at: SimTime,
    /// Host time the call returned.
    pub complete_at: SimTime,
    /// Total work-groups in the NDRange.
    pub total_wgs: u64,
    /// Work-groups the GPU executed (may overlap CPU work).
    pub gpu_executed_wgs: u64,
    /// Work-groups the CPU executed (may overlap GPU work).
    pub cpu_executed_wgs: u64,
    /// Work-groups whose results came from the CPU at merge time
    /// (`total_wgs − final watermark`).
    pub cpu_merged_wgs: u64,
    /// Number of CPU subkernels launched.
    pub subkernels: u64,
    /// Per-subkernel (work-groups, duration) log, in launch order.
    pub subkernel_log: Vec<(u64, SimDuration)>,
    /// Bytes moved host→device for this kernel (CPU results + statuses).
    pub hd_bytes: u64,
    /// Bytes moved device→host (final results).
    pub dh_bytes: u64,
    /// Kernel version the CPU settled on (index 0 unless online profiling
    /// selected an alternate, paper §6.6). Degraded runs report the version
    /// the last co-executed kernel selected — selection survives a device
    /// loss.
    pub cpu_version_used: usize,
    /// Work-groups each peer-GPU endpoint executed, in endpoint order
    /// (empty on the paper's two-device testbed).
    pub peer_executed_wgs: Vec<u64>,
    /// Which device finished the kernel.
    pub finished_by: Finisher,
    /// `complete_at − enqueued_at`.
    pub duration: SimDuration,
    /// Chronological protocol trace (see [`crate::render_timeline`]).
    pub trace: Vec<TraceEvent>,
    /// Launch geometry and arguments for footprint-based trace checkers;
    /// `None` only for hand-constructed reports.
    pub launch_meta: Option<LaunchMeta>,
}

impl KernelReport {
    /// Fraction of merged work contributed by the CPU, in `[0, 1]`.
    pub fn cpu_share(&self) -> f64 {
        if self.total_wgs == 0 {
            0.0
        } else {
            self.cpu_merged_wgs as f64 / self.total_wgs as f64
        }
    }

    /// Work-groups computed on both devices (wasted duplicated work; the
    /// price of the paper's decentralised protocol).
    pub fn duplicated_wgs(&self) -> u64 {
        (self.gpu_executed_wgs + self.cpu_executed_wgs).saturating_sub(self.total_wgs)
    }
}

/// Aggregate statistics across every kernel a runtime executed.
#[derive(Clone, Debug, Default)]
pub struct RuntimeSummary {
    /// Number of kernel launches.
    pub kernels: u64,
    /// Sum of kernel durations.
    pub total_kernel_time: SimDuration,
    /// Total host→device traffic.
    pub hd_bytes: u64,
    /// Total device→host traffic.
    pub dh_bytes: u64,
    /// Total work-groups merged from the CPU.
    pub cpu_merged_wgs: u64,
    /// Total work-groups in all NDRanges.
    pub total_wgs: u64,
    /// Kernels finished by the CPU.
    pub cpu_finished_kernels: u64,
}

impl RuntimeSummary {
    /// Builds a summary from individual reports.
    pub fn from_reports(reports: &[KernelReport]) -> Self {
        let mut s = RuntimeSummary::default();
        for r in reports {
            s.kernels += 1;
            s.total_kernel_time += r.duration;
            s.hd_bytes += r.hd_bytes;
            s.dh_bytes += r.dh_bytes;
            s.cpu_merged_wgs += r.cpu_merged_wgs;
            s.total_wgs += r.total_wgs;
            if r.finished_by == Finisher::Cpu {
                s.cpu_finished_kernels += 1;
            }
        }
        s
    }

    /// Overall CPU share of merged work.
    pub fn cpu_share(&self) -> f64 {
        if self.total_wgs == 0 {
            0.0
        } else {
            self.cpu_merged_wgs as f64 / self.total_wgs as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(total: u64, gpu: u64, cpu_exec: u64, cpu_merged: u64) -> KernelReport {
        KernelReport {
            kernel: "k".into(),
            kernel_id: 0,
            enqueued_at: SimTime::ZERO,
            complete_at: SimTime::from_nanos(100),
            total_wgs: total,
            gpu_executed_wgs: gpu,
            cpu_executed_wgs: cpu_exec,
            cpu_merged_wgs: cpu_merged,
            subkernels: 1,
            subkernel_log: vec![(cpu_exec, SimDuration::from_nanos(10))],
            hd_bytes: 64,
            dh_bytes: 32,
            cpu_version_used: 0,
            peer_executed_wgs: Vec::new(),
            finished_by: Finisher::Gpu,
            duration: SimDuration::from_nanos(100),
            trace: Vec::new(),
            launch_meta: None,
        }
    }

    #[test]
    fn cpu_share_and_duplication() {
        let r = report(100, 80, 30, 20);
        assert!((r.cpu_share() - 0.2).abs() < 1e-12);
        assert_eq!(r.duplicated_wgs(), 10);
        let exact = report(100, 80, 20, 20);
        assert_eq!(exact.duplicated_wgs(), 0);
    }

    #[test]
    fn summary_accumulates() {
        let reports = vec![report(100, 80, 30, 20), report(50, 10, 45, 40)];
        let s = RuntimeSummary::from_reports(&reports);
        assert_eq!(s.kernels, 2);
        assert_eq!(s.total_wgs, 150);
        assert_eq!(s.cpu_merged_wgs, 60);
        assert_eq!(s.hd_bytes, 128);
        assert_eq!(s.total_kernel_time, SimDuration::from_nanos(200));
        assert!((s.cpu_share() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn empty_summary_is_zero() {
        let s = RuntimeSummary::from_reports(&[]);
        assert_eq!(s.kernels, 0);
        assert_eq!(s.cpu_share(), 0.0);
    }
}
