//! Runtime configuration: chunk-sizing parameters and optimization toggles.

use fluidicl_hetsim::AbortMode;
use fluidicl_vcl::FaultPlan;

use crate::recover::RecoveryPolicy;

/// Configuration of the FluidiCL runtime.
///
/// Defaults follow the paper's experimental setup (§5.1, §9.5): an initial
/// CPU chunk of 2% of the work-groups growing in 2% steps, all optimizations
/// of §6 enabled except online profiling (which §9.1 runs separately).
///
/// Every field is either a knob the paper varies (chunk sizing, abort
/// mode, the §6 optimizations), a protocol the experiments compare
/// (dirty-range transfers, pipelining, graph scheduling), or a test
/// and robustness gate (protocol validation, fault injection and its
/// recovery tuning). The defaults need no tuning: the runtime co-executes
/// on every device the machine declares.
///
/// # Examples
///
/// ```
/// use fluidicl::FluidiclConfig;
///
/// let cfg = FluidiclConfig::default().with_chunk(5.0, 1.0);
/// assert_eq!(cfg.initial_chunk_pct, 5.0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct FluidiclConfig {
    /// Initial CPU subkernel allocation, percent of total work-groups.
    pub initial_chunk_pct: f64,
    /// Chunk growth step, percent of total work-groups. Zero freezes the
    /// chunk at its initial size (paper §9.5).
    pub step_pct: f64,
    /// Where GPU kernels check for CPU completion (paper §6.4–6.5):
    /// `InLoopUnrolled` is the paper's "AllOpt", `InLoop` is "NoUnroll",
    /// `WorkGroupStart` is "NoAbortUnroll".
    pub abort_mode: AbortMode,
    /// CPU work-group splitting when the allocation is smaller than the
    /// hardware thread count (paper §6.3).
    pub wg_split: bool,
    /// Reuse a pool of GPU scratch buffers across kernels instead of
    /// creating/destroying them per launch (paper §6.1).
    pub buffer_pool: bool,
    /// Online profiling over alternate kernel versions (paper §6.6).
    pub online_profiling: bool,
    /// Track where the freshest copy of each buffer lives to skip redundant
    /// device-to-host transfers on reads (paper §6.2).
    pub location_tracking: bool,
    /// Run the protocol-trace linter after every co-executed kernel and fail
    /// the enqueue with `ClError::ProtocolViolation` if an invariant broke.
    /// On by default in debug/test builds, off in release builds.
    pub validate_protocol: bool,
    /// Ship only the dirty (written) element ranges of each CPU subkernel
    /// through the H2D queue instead of whole output buffers, charge the
    /// GPU merge for the shipped bytes only, and track per-buffer dirty
    /// ranges so snapshot refreshes and D2H read-backs copy only stale
    /// data. On by default; `with_dirty_range_transfers(false)` restores
    /// the legacy whole-buffer protocol.
    pub dirty_range_transfers: bool,
    /// Overlap each endpoint's compute with its transfers: subkernel *k+1*
    /// computes while *k*'s data+status is still in flight, and
    /// back-to-back completed subkernels waiting on a busy link are
    /// coalesced into one data+status batch. Off is the serial protocol:
    /// each subkernel waits for the previous one's staging copy and ships
    /// alone. On by default.
    pub pipelined: bool,
    /// Seeded fault-injection plan. `None` (the default) means no faults
    /// *and* no recovery machinery on the event timeline — traces and
    /// timings stay byte-identical to a build without the fault subsystem.
    pub faults: Option<FaultPlan>,
    /// Watchdog/retry tuning used when `faults` is set.
    pub recovery: RecoveryPolicy,
    /// Defer enqueued kernels into a dependence DAG and dispatch
    /// independent nodes concurrently across devices (HEFT-style lookahead
    /// over footprint-derived edges). Off by default: single-kernel
    /// programs and the gate-off path stay byte-identical to the serial
    /// enqueue protocol. When on, launches accumulate until a buffer read
    /// (or an explicit [`Fluidicl::flush_graph`](crate::Fluidicl::flush_graph))
    /// forces the graph to execute.
    ///
    /// Ignored while `faults` is set: the watchdog and failover protocol is
    /// defined over immediate execution order, so every launch then runs
    /// eagerly, one report per launch in enqueue order, exactly as with
    /// this flag off.
    pub graph_scheduling: bool,
}

impl Default for FluidiclConfig {
    fn default() -> Self {
        FluidiclConfig {
            initial_chunk_pct: 2.0,
            step_pct: 2.0,
            abort_mode: AbortMode::InLoopUnrolled,
            wg_split: true,
            buffer_pool: true,
            online_profiling: false,
            location_tracking: true,
            validate_protocol: cfg!(debug_assertions),
            dirty_range_transfers: true,
            pipelined: true,
            faults: None,
            recovery: RecoveryPolicy::default(),
            graph_scheduling: false,
        }
    }
}

impl FluidiclConfig {
    /// Returns a copy with different chunk-sizing parameters.
    ///
    /// # Panics
    ///
    /// Panics if `initial_pct` is not in `(0, 100]` or `step_pct` is
    /// negative.
    #[must_use]
    pub fn with_chunk(mut self, initial_pct: f64, step_pct: f64) -> Self {
        assert!(
            initial_pct > 0.0 && initial_pct <= 100.0,
            "initial chunk must be in (0, 100] percent"
        );
        assert!(step_pct >= 0.0, "step must be non-negative");
        self.initial_chunk_pct = initial_pct;
        self.step_pct = step_pct;
        self
    }

    /// Returns a copy with a different abort mode.
    #[must_use]
    pub fn with_abort_mode(mut self, mode: AbortMode) -> Self {
        self.abort_mode = mode;
        self
    }

    /// Returns a copy with online profiling enabled or disabled.
    #[must_use]
    pub fn with_online_profiling(mut self, enabled: bool) -> Self {
        self.online_profiling = enabled;
        self
    }

    /// Returns a copy with work-group splitting enabled or disabled.
    #[must_use]
    pub fn with_wg_split(mut self, enabled: bool) -> Self {
        self.wg_split = enabled;
        self
    }

    /// Returns a copy with the buffer pool enabled or disabled.
    #[must_use]
    pub fn with_buffer_pool(mut self, enabled: bool) -> Self {
        self.buffer_pool = enabled;
        self
    }

    /// Returns a copy with location tracking enabled or disabled.
    #[must_use]
    pub fn with_location_tracking(mut self, enabled: bool) -> Self {
        self.location_tracking = enabled;
        self
    }

    /// Returns a copy with post-kernel protocol validation enabled or
    /// disabled.
    #[must_use]
    pub fn with_validate_protocol(mut self, enabled: bool) -> Self {
        self.validate_protocol = enabled;
        self
    }

    /// Returns a copy with dirty-range transfer modelling enabled or
    /// disabled.
    #[must_use]
    pub fn with_dirty_range_transfers(mut self, enabled: bool) -> Self {
        self.dirty_range_transfers = enabled;
        self
    }

    /// Returns a copy with pipelined subkernels enabled or disabled
    /// (disabled is the serial protocol).
    #[must_use]
    pub fn with_pipelining(mut self, enabled: bool) -> Self {
        self.pipelined = enabled;
        self
    }

    /// Returns a copy with a seeded fault-injection plan (or `None` to
    /// disable injection).
    #[must_use]
    pub fn with_faults(mut self, plan: Option<FaultPlan>) -> Self {
        self.faults = plan;
        self
    }

    /// Returns a copy with different recovery tuning.
    #[must_use]
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = policy;
        self
    }

    /// Returns a copy with kernel-graph scheduling enabled or disabled.
    #[must_use]
    pub fn with_graph_scheduling(mut self, enabled: bool) -> Self {
        self.graph_scheduling = enabled;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let cfg = FluidiclConfig::default();
        assert_eq!(cfg.initial_chunk_pct, 2.0);
        assert_eq!(cfg.step_pct, 2.0);
        assert_eq!(cfg.abort_mode, AbortMode::InLoopUnrolled);
        assert!(cfg.wg_split);
        assert!(cfg.buffer_pool);
        assert!(!cfg.online_profiling);
        assert!(cfg.location_tracking);
        assert_eq!(cfg.validate_protocol, cfg!(debug_assertions));
        assert!(
            cfg.dirty_range_transfers,
            "dirty-range transfers are the default; whole-buffer is the compat path"
        );
        assert!(cfg.pipelined, "one subkernel overlaps its ship");
        assert_eq!(cfg.faults, None, "fault injection is opt-in");
        assert_eq!(cfg.recovery, RecoveryPolicy::default());
        assert!(!cfg.graph_scheduling, "graph scheduling is opt-in");
    }

    #[test]
    fn builders_compose() {
        let cfg = FluidiclConfig::default()
            .with_chunk(10.0, 0.0)
            .with_abort_mode(AbortMode::WorkGroupStart)
            .with_wg_split(false)
            .with_buffer_pool(false)
            .with_online_profiling(true)
            .with_location_tracking(false)
            .with_validate_protocol(true)
            .with_dirty_range_transfers(false)
            .with_pipelining(false);
        assert_eq!(cfg.initial_chunk_pct, 10.0);
        assert_eq!(cfg.step_pct, 0.0);
        assert_eq!(cfg.abort_mode, AbortMode::WorkGroupStart);
        assert!(!cfg.wg_split);
        assert!(!cfg.buffer_pool);
        assert!(cfg.online_profiling);
        assert!(!cfg.location_tracking);
        assert!(cfg.validate_protocol);
        assert!(!cfg.dirty_range_transfers, "whole-buffer protocol selected");
        assert!(!cfg.pipelined, "serial protocol selected");
        let cfg = cfg.with_dirty_range_transfers(true).with_pipelining(true);
        assert!(cfg.dirty_range_transfers);
        assert!(cfg.pipelined);
        let cfg = cfg.with_graph_scheduling(true);
        assert!(cfg.graph_scheduling);
        assert!(!cfg.with_graph_scheduling(false).graph_scheduling);
    }

    #[test]
    fn fault_builders_compose() {
        use fluidicl_vcl::FaultKind;
        let plan = FaultPlan::new(FaultKind::TransferStall, 3);
        let cfg = FluidiclConfig::default()
            .with_faults(Some(plan))
            .with_recovery(RecoveryPolicy::default().with_max_transfer_retries(1));
        assert_eq!(cfg.faults, Some(plan));
        assert_eq!(cfg.recovery.max_transfer_retries, 1);
        assert_eq!(cfg.with_faults(None).faults, None);
    }

    #[test]
    #[should_panic(expected = "initial chunk")]
    fn rejects_zero_initial_chunk() {
        let _ = FluidiclConfig::default().with_chunk(0.0, 1.0);
    }
}
