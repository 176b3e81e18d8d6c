//! The co-execution engine: one kernel, N devices, one virtual timeline.
//!
//! This module is the paper's Section 4 and 5 made executable, generalized
//! from the paper's two-device race to N devices. For a single kernel
//! launch it simulates — and functionally performs — the FluidiCL
//! protocol:
//!
//! * the **owner GPU** executes flattened work-groups from 0 upward in
//!   waves, checking an arrived-status watermark and aborting work already
//!   covered by the non-owners (Figures 6 and 8);
//! * every **non-owner endpoint** (the CPU, plus any peer GPUs) claims
//!   contiguous work-group ranges off the top of a shared [`Frontier`] —
//!   with one endpoint this is exactly the paper's top-down *subkernel*
//!   descent (Figure 7) — each claim followed by an intermediate staging
//!   copy, an in-order data + status transfer to the owner over the
//!   endpoint's own link, and an adaptive per-endpoint chunk-size update
//!   (§5.1);
//! * a work-group only counts as complete once its *data has arrived at
//!   the owner* — arrivals accumulate in a [`Coverage`] set whose
//!   contiguous top suffix is the watermark (with one endpoint, the
//!   paper's boundary watermark of §4.2);
//! * when the owner reaches the watermark it exits and a **diff-merge**
//!   folds each endpoint's results into the owner's buffers as a merge
//!   tree (§4.3) — one endpoint makes that the paper's single merge;
//! * if a single non-owner endpoint (the CPU) computes the whole NDRange
//!   first, its copy is authoritative and no device-to-host transfer is
//!   needed (§4.2, §6.2);
//! * pipelined (the default), an endpoint starts subkernel *k+1* while
//!   subkernel *k*'s data + status is still being staged and shipped, and
//!   copies that complete while its link is busy are coalesced into one
//!   data payload + one status message; unpipelined is the serial
//!   protocol;
//! * recovery is per-endpoint: a lost endpoint's claimed-but-unshipped
//!   ranges return to the frontier for the survivors, and a dead link
//!   stops only its own endpoint.
//!
//! Work-groups are *really executed* against device memory at the moments
//! the protocol decides, so a scheduling bug produces wrong numbers, not
//! just wrong timings.

use fluidicl_des::{SimDuration, SimTime, Simulation};
use fluidicl_hetsim::{MachineConfig, PeerGpu};
use fluidicl_vcl::exec::{execute_groups, Launch};
use fluidicl_vcl::{
    diff_merge_ranged, payload_checksum, payload_checksum_with, BufferId, ClError, ClResult,
    DeviceKind, DirtyRanges, FaultInjector, Memory, TransferFate, WorkCounters,
};

use crate::chunk::ChunkController;
use crate::config::FluidiclConfig;
use crate::endpoint::{CpuEndpoint, NonOwnerEndpoint, PeerGpuEndpoint};
use crate::frontier::{Coverage, Frontier};
use crate::recover;
use crate::stats::{Finisher, KernelReport, LaunchMeta};
use crate::trace::{TraceEvent, TraceKind, STATUS_MSG_BYTES};

/// Relative improvement in time-per-work-group an endpoint's chunk needs
/// to keep growing (paper §5.1: "so long as the average time per
/// work-group keeps decreasing").
const CHUNK_GROWTH_TOLERANCE: f64 = 0.02;

/// Completed-but-unshipped subkernels an endpoint may hold before its
/// scheduler stops taking work. 1 is the serial protocol: each subkernel
/// waits for the previous one's staging copy and ships alone. 2 lets
/// subkernel *k+1* compute while *k* ships; a deeper window reproduced
/// depth 2's timings on every fingerprint cell, so none is offered.
pub(crate) const fn in_flight_window(pipelined: bool) -> u32 {
    if pipelined {
        2
    } else {
        1
    }
}

/// One active peer-GPU slot: the machine-config peer plus the stable
/// endpoint index it traces under (indices survive earlier peers dying in
/// previous kernels, so a trace's `ep2` always means the same card).
#[derive(Clone, Debug)]
pub(crate) struct PeerSlot {
    pub dev: u32,
    pub peer: PeerGpu,
}

/// Inputs to one co-executed kernel launch, carrying the global timeline
/// state the runtime threads across kernels.
#[derive(Debug)]
pub(crate) struct CoexecInput<'a> {
    pub machine: &'a MachineConfig,
    pub config: &'a FluidiclConfig,
    pub launch: &'a Launch,
    pub kernel_id: u64,
    /// Host time of the blocking enqueue call.
    pub enqueue_at: SimTime,
    /// Earliest time the owner's card can begin (card free + GPU data
    /// ready), after the primary GPU's scratch set-up (paper §6.1).
    pub gpu_start: SimTime,
    /// Earliest time the CPU scheduler can begin (its input data ready).
    pub cpu_start: SimTime,
    /// Host-to-device channel availability.
    pub hd_free: SimTime,
    /// Device-to-host channel availability.
    pub dh_free: SimTime,
    pub cpu_mem: &'a mut Memory,
    pub gpu_mem: &'a mut Memory,
    /// Peer GPUs, each an endpoint of its own; with `dead_gpu` the first
    /// owns the kernel. Empty on the paper's two-device protocol.
    pub peers: Vec<PeerSlot>,
    /// Fault oracle shared across the runtime's kernels. `None` disables
    /// injection *and* every watchdog, keeping the event timeline
    /// byte-identical to the fault-free engine.
    pub injector: Option<&'a mut FaultInjector>,
    /// The CPU endpoint is already dead (roster state from an earlier
    /// kernel): it is constructed lost and never scheduled, so the kernel
    /// co-executes on the owner plus the surviving peers alone.
    pub dead_cpu: bool,
    /// The primary GPU is already dead (roster state from an earlier
    /// kernel): the first peer owns the kernel from its start, through the
    /// same hand-off a promotion ends with, and `gpu_mem` is not touched.
    pub dead_gpu: bool,
    /// The runtime's host-work counters: this kernel adds its simulated
    /// events, merges and mirror copies, and the work done in the peers'
    /// transient address spaces (work in `cpu_mem` and `gpu_mem` is
    /// counted there).
    pub work: &'a mut WorkCounters,
}

/// Timeline outcome of one co-executed kernel.
#[derive(Clone, Debug)]
pub(crate) struct CoexecOutcome {
    /// When the blocking host call returns.
    pub complete_at: SimTime,
    /// When the GPU device becomes free for the next kernel.
    pub gpu_busy_until: SimTime,
    /// Updated channel availability.
    pub hd_free: SimTime,
    /// Updated channel availability.
    pub dh_free: SimTime,
    /// When the final output content is usable on the CPU side.
    pub cpu_results_at: SimTime,
    /// When the merged output content is usable on the GPU side.
    pub gpu_results_at: SimTime,
    /// Per-kernel statistics.
    pub report: KernelReport,
    /// The CPU endpoint was declared permanently lost during this kernel
    /// (the run still completed on the survivors).
    pub lost_cpu: bool,
    /// The primary GPU missed a wave deadline in this kernel, whether or not
    /// a peer was promoted to finish the run; the runtime drops it from its
    /// roster. A peer owner's loss reaches the roster through `lost_peers`.
    pub lost_gpu: bool,
    /// Peer endpoints (by stable dev index) declared lost during this
    /// kernel; the runtime excludes them from later launches.
    pub lost_peers: Vec<u32>,
}

#[derive(Debug)]
enum Ev {
    GpuBegin,
    GpuWaveDone {
        gen: u32,
    },
    GpuWaveAbort {
        gen: u32,
    },
    GpuMergeDone,
    /// A non-owner endpoint's scheduler thread begins (index into `eps`).
    EpBegin {
        dev: u32,
    },
    SubkernelDone {
        idx: u32,
    },
    CopyDone {
        idx: u32,
    },
    /// Flush an endpoint's pending coalesced batch once its link frees up
    /// (pipelined only; the serial protocol ships each subkernel directly).
    HdFlush {
        dev: u32,
    },
    StatusArrived {
        seq: u32,
    },
    // Fault-recovery events: none of these are ever scheduled without an
    // injector, so the fault-free event stream is unchanged.
    /// Deadline check on a launched GPU wave.
    WaveWatchdog {
        gen: u32,
    },
    /// Deadline check on a launched endpoint subkernel.
    SubkernelWatchdog {
        idx: u32,
    },
    /// Deadline check on an enqueued transfer.
    TransferWatchdog {
        seq: u32,
    },
    /// A transfer attempt failed transiently (detected at its expected
    /// completion).
    TransferNack {
        seq: u32,
    },
    /// Backed-off retry of send `seq`'s batch (re-enqueues the same
    /// subkernels as a fresh send with an incremented attempt number).
    TransferRetry {
        seq: u32,
        attempt: u32,
    },
    /// A delivered transfer turned out corrupt (checksum verification).
    TransferCorrupt {
        seq: u32,
    },
}

struct Wave {
    start: u64,
    end: u64,
    started_at: SimTime,
    /// When the wave is due to complete, for the owner's walk ETA.
    due_at: SimTime,
    gen: u32,
    /// Completion-event token; `None` for a wave the injector killed (it
    /// will never complete — only its watchdog notices).
    token: Option<fluidicl_des::EventToken>,
}

struct Subkernel {
    /// Endpoint that claimed and executes this range.
    dev: u32,
    from: u64,
    to: u64,
    version: usize,
    duration: SimDuration,
    /// Bytes this subkernel newly dirtied (coalesced, across all output
    /// buffers) — its partial-transfer payload. Zero until the subkernel
    /// completes; only maintained when dirty-range transfers are on.
    dirty_bytes: u64,
    /// Whether the subkernel reported completion (watchdogs check this).
    done: bool,
    /// The claiming endpoint was promoted to owner while this subkernel
    /// was in flight: the claim went back to the frontier and the result
    /// is discarded when the completion event fires.
    abandoned: bool,
    /// Whether this is an online-profiling trial (CPU endpoint only).
    trial: bool,
}

/// One in-order send (data + status) and its recovery bookkeeping. A send
/// carries one subkernel's results in the serial protocol, or a coalesced
/// batch of back-to-back completed subkernels under pipelined execution.
struct SendOp {
    /// Endpoint whose link carries this send.
    dev: u32,
    /// Subkernels whose results this send carries, in completion order.
    subs: Vec<u32>,
    /// Completion boundary the status message carries: the lowest `from`
    /// across the batch (the watermark of the whole batch).
    boundary: u64,
    /// Data payload bytes of the batch (excluding the status message) —
    /// the single source for both link accounting and merge charging.
    payload: u64,
    /// 1-based attempt number (retries and resends re-enqueue with +1).
    attempt: u32,
    /// Ownership epoch that enqueued this send. A delivery whose epoch is
    /// older than the current one is rejected at acceptance — its data
    /// landed on a dead owner (the epoch fence of owner failover).
    epoch: u32,
    /// Whether the send reached a terminal state (status arrived, failure
    /// detected, or timed out) — watchdogs no-op on resolved sends.
    resolved: bool,
    /// Whether the send was accepted and folded into [`Coverage`]. Owner
    /// failover un-credits the promoted endpoint's applied sends (their
    /// ranges leave coverage and return to the frontier), so this flag is
    /// the single source of truth for what coverage currently holds.
    applied: bool,
}

/// Per-endpoint protocol state: the paper's CPU-side loop, one instance
/// per non-owner device.
struct EpState {
    /// Stable endpoint index (0 = CPU, 1.. = peer GPUs).
    dev: u32,
    /// Cost model for this endpoint's claim/compute/ship loop.
    model: Box<dyn NonOwnerEndpoint>,
    /// This endpoint's adaptive chunk controller (§5.1).
    chunk: ChunkController,
    /// Clone of the launch used for this endpoint's subkernels: its
    /// `version` field is rewritten per subkernel instead of cloning the
    /// whole launch (the cached argument plan is shared through an `Arc`).
    launch: Launch,
    /// The endpoint's address space. `None` for the CPU endpoint, which
    /// computes directly in the runtime's CPU memory; peers get a fresh
    /// memory sharing the (coherent) CPU copy at kernel start, so a peer
    /// copies only the output buffers it writes.
    mem: Option<Memory>,
    /// Cumulative dirty ranges of this endpoint's copy vs the original
    /// snapshot, one entry per `out_ids` slot; what the merge tree walks
    /// for this endpoint.
    cum_dirty: Vec<DirtyRanges>,
    /// A subkernel is currently computing on this endpoint.
    busy: bool,
    /// Completed subkernels whose staging copy has not finished yet.
    unshipped: u32,
    /// This endpoint's upstream link availability. The CPU endpoint's
    /// clock is the machine's hd queue (threaded across kernels by the
    /// runtime); peer clocks are kernel-local.
    hd_free: SimTime,
    /// When this endpoint's staging-copy engine is free: it copies one
    /// subkernel's results at a time, in completion order (kernel-local).
    staging_free: SimTime,
    /// Copies that completed while the link was busy, waiting to be
    /// coalesced into one data+status batch at the next link-free instant.
    pending_batch: Vec<u32>,
    /// The endpoint missed a subkernel deadline and is permanently gone.
    lost: bool,
    /// The endpoint was promoted to acting owner: it stops claiming and
    /// shipping (the owner's wave walk is its execution now), but keeps
    /// its memory and `cum_dirty` as the merge destination.
    promoted: bool,
    /// A send stalled: this endpoint's in-order queue is blocked until the
    /// send's watchdog gives up on it.
    link_wedged: bool,
    /// The link was abandoned after a stalled send timed out; no further
    /// sends are attempted and this endpoint stops taking work.
    link_dead: bool,
    /// Rejected/failed sends awaiting a successful re-delivery. While a
    /// hole is open, later statuses from this endpoint are buffered
    /// instead of applied — coverage must only ever hold in-order-accepted
    /// data per link (paper §4.2's in-order queue argument, kept sound
    /// under reordering by recovery).
    holes: u32,
    /// Send sequence numbers received while a hole was open, applied once
    /// the re-delivery closes it.
    buffered_statuses: Vec<u32>,
    /// Work-groups this endpoint actually executed.
    wgs_executed: u64,
}

pub(crate) struct Coexec<'a> {
    input: CoexecInput<'a>,
    /// Non-owner endpoints: `eps[0]` is always the CPU, the rest peers.
    /// With the CPU alone this is the paper's two-device protocol.
    eps: Vec<EpState>,
    // Geometry.
    total: u64,
    items: u64,
    out_bytes: u64,
    out_ids: Vec<BufferId>,
    /// Element length of each output buffer, captured at construction so the
    /// report's [`LaunchMeta`] survives a later GPU loss.
    out_lens: Vec<usize>,
    /// Total bytes of every launch buffer — what a peer's begin broadcast
    /// ships.
    launch_bytes: u64,
    /// The pristine originals of the output buffers (paper §4.3): an
    /// address space sharing the owner's copies at kernel start. The
    /// owner's first write to a buffer copies it, leaving the original
    /// here; a buffer the owner never writes is never copied.
    orig: Memory,
    // Dirty-range transfer modelling (config.dirty_range_transfers).
    /// Whether subkernels ship only their dirty ranges (paper §4.2's data
    /// message shrunk to what was actually written).
    dirty_enabled: bool,
    /// Total dirty payload bytes actually shipped to the owner — what the
    /// merge kernel is charged for.
    shipped_dirty_bytes: u64,
    // GPU (owner) state.
    gpu_next: u64,
    /// Start of the contiguous covered suffix — the owner's wave limit.
    watermark: u64,
    /// Merged set of ranges whose results have arrived at the owner.
    coverage: Coverage,
    wave: Option<Wave>,
    wave_gen: u32,
    /// When the acting owner's walk begins (its first wave launches).
    owner_begin: SimTime,
    gpu_exited_at: Option<SimTime>,
    merge_done_at: Option<SimTime>,
    gpu_wgs_executed: u64,
    // Shared non-owner state.
    /// Unclaimed work-group IDs; endpoints claim contiguous ranges off it.
    frontier: Frontier,
    subkernels: Vec<Subkernel>,
    /// When the non-owners finished computing the entire NDRange (frontier
    /// empty and every endpoint idle) — the paper's CPU-finished instant.
    cpu_finished_at: Option<SimTime>,
    /// CPU-endpoint subkernels launched so far (profiling-trial counter).
    ep0_subkernels: usize,
    /// Whether endpoints overlap compute with shipping
    /// ([`FluidiclConfig::pipelined`]).
    pipelined: bool,
    // Online profiling (paper §6.6) — CPU endpoint only.
    trial_versions: usize,
    trial_results: Vec<(usize, SimDuration)>,
    selected_version: usize,
    // Owner-link clock and transfer totals.
    dh_free: SimTime,
    hd_bytes: u64,
    dh_bytes: u64,
    subkernel_log: Vec<(u64, SimDuration)>,
    trace: Vec<TraceEvent>,
    // Fault-recovery state. All of it stays at its initial value when no
    // injector is attached, and none of it affects the fault-free timeline.
    /// Every send attempted this kernel, in enqueue order.
    sends: Vec<SendOp>,
    /// The GPU missed a wave deadline and is considered permanently gone
    /// with no failover target: the CPU finishes the range alone.
    gpu_lost: bool,
    /// Ownership epoch: 0 under the primary owner, incremented at every
    /// promotion. Sends are stamped with the epoch that enqueued them.
    epoch: u32,
    /// Acting owner after a hand-off: index into `eps` of the peer that
    /// owns the kernel (`None` while the primary GPU owns it).
    owner_ep: Option<usize>,
    /// The acting owner's card, its device model and link pair: the
    /// primary GPU's until a hand-off swaps in a peer's.
    owner: PeerGpu,
}

impl<'a> Coexec<'a> {
    pub(crate) fn new(input: CoexecInput<'a>) -> ClResult<Self> {
        let total = input.launch.ndrange.num_groups();
        let items = input.launch.ndrange.items_per_group();
        let out_ids = input.launch.output_buffers()?;
        // The originals come from the owner's copy at kernel start: the
        // primary GPU's, or the host copy a peer owner is seeded from.
        let owner_copy: &Memory = if input.dead_gpu {
            input.cpu_mem
        } else {
            input.gpu_mem
        };
        let mut orig = Memory::new();
        let mut out_lens = Vec::with_capacity(out_ids.len());
        for id in &out_ids {
            orig.share_from(owner_copy, *id)?;
            out_lens.push(orig.len_of(*id)?);
        }
        let out_bytes = out_lens.iter().map(|len| *len as u64 * 4).sum();
        let min_chunk = u64::from(input.machine.cpu.threads());
        let chunk = ChunkController::new(
            total,
            input.config.initial_chunk_pct,
            input.config.step_pct,
            min_chunk,
            CHUNK_GROWTH_TOLERANCE,
        );
        let versions = input.launch.kernel.versions().len();
        let trial_versions = if input.config.online_profiling && versions > 1 {
            versions
        } else {
            0
        };
        let dirty_enabled = input.config.dirty_range_transfers;
        // Every buffer the launch touches, deduplicated: what a peer needs
        // resident before its first claim, and what its begin broadcast is
        // charged for.
        let plan = input.launch.plan()?;
        let mut all_ids: Vec<BufferId> = plan.ins.iter().chain(plan.outs.iter()).copied().collect();
        all_ids.sort_unstable_by_key(|id| id.0);
        all_ids.dedup();
        let mut launch_bytes = 0u64;
        for id in &all_ids {
            launch_bytes += input.cpu_mem.bytes_of(*id)?;
        }
        let mut eps = Vec::with_capacity(1 + input.peers.len());
        eps.push(EpState {
            dev: 0,
            model: Box::new(CpuEndpoint::new(input.machine)),
            chunk,
            launch: input.launch.clone(),
            mem: None,
            cum_dirty: vec![DirtyRanges::empty(); out_lens.len()],
            busy: false,
            unshipped: 0,
            hd_free: input.hd_free,
            staging_free: SimTime::ZERO,
            pending_batch: Vec::new(),
            lost: input.dead_cpu,
            promoted: false,
            link_wedged: false,
            link_dead: false,
            holes: 0,
            buffered_statuses: Vec::new(),
            wgs_executed: 0,
        });
        for slot in &input.peers {
            // The peer's address space, seeded from the coherent CPU copy:
            // only what this launch touches is broadcast and resident. The
            // seed is a share; the peer's first write to a buffer copies it.
            let mut mem = Memory::new();
            for id in &all_ids {
                mem.share_from(input.cpu_mem, *id)?;
            }
            let model = PeerGpuEndpoint::new(&slot.peer);
            let peer_chunk = ChunkController::new(
                total,
                input.config.initial_chunk_pct,
                input.config.step_pct,
                model.min_chunk(),
                CHUNK_GROWTH_TOLERANCE,
            );
            eps.push(EpState {
                dev: slot.dev,
                model: Box::new(model),
                chunk: peer_chunk,
                launch: input.launch.clone(),
                mem: Some(mem),
                cum_dirty: vec![DirtyRanges::empty(); out_lens.len()],
                busy: false,
                unshipped: 0,
                // Peer link clocks are kernel-local (the link belongs to
                // this kernel's shipping alone); the CPU's hd clock above
                // is the one the runtime threads across kernels.
                hd_free: SimTime::ZERO,
                staging_free: SimTime::ZERO,
                pending_batch: Vec::new(),
                lost: false,
                promoted: false,
                link_wedged: false,
                link_dead: false,
                holes: 0,
                buffered_statuses: Vec::new(),
                wgs_executed: 0,
            });
        }
        let dh_free = input.dh_free;
        Ok(Coexec {
            eps,
            total,
            items,
            out_bytes,
            out_ids,
            out_lens,
            launch_bytes,
            orig,
            dirty_enabled,
            shipped_dirty_bytes: 0,
            gpu_next: 0,
            watermark: total,
            coverage: Coverage::new(total),
            wave: None,
            wave_gen: 0,
            owner_begin: SimTime::ZERO,
            gpu_exited_at: None,
            merge_done_at: None,
            gpu_wgs_executed: 0,
            frontier: Frontier::new(total),
            subkernels: Vec::new(),
            cpu_finished_at: None,
            ep0_subkernels: 0,
            pipelined: input.config.pipelined,
            trial_versions,
            trial_results: Vec::new(),
            selected_version: 0,
            dh_free,
            hd_bytes: 0,
            dh_bytes: 0,
            subkernel_log: Vec::new(),
            trace: Vec::new(),
            sends: Vec::new(),
            gpu_lost: false,
            epoch: 0,
            owner_ep: None,
            owner: PeerGpu {
                gpu: input.machine.gpu.clone(),
                h2d: input.machine.h2d.clone(),
                d2h: input.machine.d2h.clone(),
            },
            input,
        })
    }

    // ---- Fault plumbing -------------------------------------------------

    /// Whether fault injection (and therefore the watchdog machinery) is on.
    fn faulty(&self) -> bool {
        self.input.injector.is_some()
    }

    fn kill_gpu_wave(&mut self) -> bool {
        let Some(injector) = self.input.injector.as_deref_mut() else {
            return false;
        };
        match self.owner_ep {
            // A peer owner's waves run on its own device: they die with the
            // injector's sticky verdict on that endpoint (a double loss),
            // never with the primary card's gpu-kill latch, which a single
            // loss would otherwise extend to the healthy peer.
            Some(p) => injector.endpoint_lost(self.eps[p].dev),
            None => injector.kill_gpu_wave(),
        }
    }

    fn kill_subkernel(&mut self, dev: u32) -> bool {
        self.input
            .injector
            .as_deref_mut()
            .is_some_and(|injector| injector.kill_subkernel(dev))
    }

    fn transfer_fate(&mut self, attempt: u32) -> TransferFate {
        match self.input.injector.as_deref_mut() {
            Some(inj) => inj.transfer_fate(attempt),
            None => TransferFate::Deliver,
        }
    }

    /// Runs the co-execution to completion.
    pub(crate) fn run(mut self) -> ClResult<CoexecOutcome> {
        let start = self.input.enqueue_at;
        // Launch geometry first, so the trace is self-describing and the
        // protocol linter can check every later event against `total_wgs`.
        self.record(
            start,
            TraceKind::Enqueued {
                total_wgs: self.total,
                pipelined: self.pipelined,
            },
        );
        let mut sim = Simulation::starting_at(start);
        let ep_start = self.input.cpu_start.max(start);
        if self.input.dead_gpu {
            // The first peer owns the kernel. Its launch-buffer broadcast
            // waits for both copies to be current and the card to be free.
            let broadcast_at = self.input.gpu_start.max(ep_start);
            self.hand_off(&mut sim, 1, start, broadcast_at);
        } else {
            self.owner_begin =
                self.input.gpu_start.max(start) + self.input.machine.gpu.launch_overhead();
            sim.schedule_at(self.owner_begin, Ev::GpuBegin);
        }
        // Non-owners: each scheduler thread begins once its data is ready —
        // the CPU as soon as the host copy is current, peers after their
        // launch-buffer broadcast and launch overhead.
        if !self.eps[0].lost {
            sim.schedule_at(ep_start, Ev::EpBegin { dev: 0 });
        }
        for e in 1..self.eps.len() {
            let delay = self.eps[e].model.begin_delay(self.launch_bytes);
            sim.schedule_at(ep_start + delay, Ev::EpBegin { dev: e as u32 });
        }

        let mut exec_err: Option<fluidicl_vcl::ClError> = None;
        while let Some((t, ev)) = sim.pop() {
            let r = self.dispatch(&mut sim, t, ev);
            if let Err(e) = r {
                exec_err = Some(e);
                break;
            }
        }
        self.input.work.des_events += sim.delivered();
        self.collect_peer_work();
        if let Some(e) = exec_err {
            return Err(e);
        }
        self.finish()
    }

    /// Moves the work done in the peers' address spaces into the runtime's
    /// counters, before those address spaces are released.
    fn collect_peer_work(&mut self) {
        for ep in &mut self.eps {
            if let Some(mem) = ep.mem.as_mut() {
                *self.input.work += mem.take_work();
            }
        }
    }

    fn dispatch(&mut self, sim: &mut Simulation<Ev>, t: SimTime, ev: Ev) -> ClResult<()> {
        match ev {
            Ev::GpuBegin => {
                self.record(t, TraceKind::GpuLaunch);
                self.start_wave(sim, t)?;
            }
            Ev::GpuWaveDone { gen } => self.on_wave_done(sim, t, gen)?,
            Ev::GpuWaveAbort { gen } => self.on_wave_abort(sim, t, gen)?,
            Ev::GpuMergeDone => self.on_merge_done(t),
            Ev::EpBegin { dev } => self.maybe_launch_subkernel(sim, t, dev as usize),
            Ev::SubkernelDone { idx } => self.on_subkernel_done(sim, t, idx)?,
            Ev::CopyDone { idx } => self.on_copy_done(sim, t, idx),
            Ev::HdFlush { dev } => self.on_hd_flush(sim, t, dev as usize),
            Ev::StatusArrived { seq } => self.on_status_arrived(sim, t, seq)?,
            Ev::WaveWatchdog { gen } => self.on_wave_watchdog(sim, t, gen)?,
            Ev::SubkernelWatchdog { idx } => self.on_subkernel_watchdog(sim, t, idx)?,
            Ev::TransferWatchdog { seq } => self.on_transfer_watchdog(t, seq),
            Ev::TransferNack { seq } => self.on_transfer_nack(sim, t, seq)?,
            Ev::TransferRetry { seq, attempt } => {
                let subs = self.sends[seq as usize].subs.clone();
                self.send_batch(sim, t, subs, attempt);
            }
            Ev::TransferCorrupt { seq } => self.on_transfer_corrupt(sim, t, seq)?,
        }
        Ok(())
    }

    fn record(&mut self, at: SimTime, kind: TraceKind) {
        self.trace.push(TraceEvent { at, kind });
    }

    // ---- GPU side -------------------------------------------------------

    fn gpu_profile(&self) -> &fluidicl_hetsim::KernelProfile {
        // The owner GPU (and any peer GPU) always runs the default kernel
        // version; alternates are CPU-oriented (paper §6.6 profiles CPU
        // kernels).
        &self.input.launch.kernel.default_version().profile
    }

    fn start_wave(&mut self, sim: &mut Simulation<Ev>, t: SimTime) -> ClResult<()> {
        let limit = self.watermark.min(self.total);
        if self.gpu_next >= limit {
            return self.gpu_exit(sim, t);
        }
        let width = self.owner.gpu.wave_width();
        let start = self.gpu_next;
        let end = (start + width).min(limit);
        let dur = self.owner.gpu.range_time(
            self.gpu_profile(),
            self.items,
            end - start,
            self.input.config.abort_mode,
        );
        self.wave_gen += 1;
        let gen = self.wave_gen;
        self.record(
            t,
            TraceKind::GpuWaveStart {
                from: start,
                to: end,
            },
        );
        // A killed wave starts but never completes: its completion event is
        // simply never scheduled, and only the watchdog below notices.
        let token = if self.kill_gpu_wave() {
            None
        } else {
            Some(sim.schedule_at(t + dur, Ev::GpuWaveDone { gen }))
        };
        if self.faulty() {
            sim.schedule_at(t + recover::deadline(dur), Ev::WaveWatchdog { gen });
        }
        self.wave = Some(Wave {
            start,
            end,
            started_at: t,
            due_at: t + dur,
            gen,
            token,
        });
        Ok(())
    }

    fn on_wave_watchdog(&mut self, sim: &mut Simulation<Ev>, t: SimTime, gen: u32) -> ClResult<()> {
        let Some(wave) = self.wave.take() else {
            return Ok(());
        };
        if wave.gen != gen {
            self.wave = Some(wave);
            return Ok(());
        }
        // The wave is still open past its deadline: the acting owner is
        // gone, and its executed prefix died with its memory.
        if let Some(token) = wave.token {
            sim.cancel(token);
        }
        let dead_peer = self.owner_ep.take().map(|p| {
            // A promoted owner died in turn. Its pre-promotion results were
            // already rolled back when it was promoted, and its dirty
            // accounting cleared, so the merge folds nothing from it; its
            // post-promotion wave writes die with its memory and the next
            // acting owner's walk re-covers them.
            self.eps[p].lost = true;
            self.eps[p].dev
        });
        self.record(t, TraceKind::OwnerLost);
        // Owner failover (epoch-fenced): promote the lowest surviving peer
        // to owner instead of abandoning the run to survivor-finishes.
        let candidate = self
            .eps
            .iter()
            .position(|e| e.dev > 0 && !e.lost && !e.promoted);
        if let Some(p) = candidate {
            return self.promote_owner(sim, t, p);
        }
        // No failover target, so every peer is dead: the CPU keeps
        // claiming (its gpu-exit guard never fires, since a dead GPU never
        // exits) and the kernel completes if it covers the whole range.
        self.gpu_lost = true;
        if self.eps.iter().all(|e| e.lost || e.promoted) {
            let owner = match dead_peer {
                Some(dev) => format!("peer GPU ep{dev} (acting owner)"),
                None => "GPU".to_string(),
            };
            return Err(ClError::DeviceLost {
                device: DeviceKind::Gpu,
                detail: format!(
                    "{owner} wave missed its watchdog deadline after the CPU was already lost"
                ),
            });
        }
        Ok(())
    }

    /// Epoch-fenced ownership migration (owner failover): endpoint `p`
    /// becomes the acting owner. It inherits the surviving endpoints'
    /// arrival [`Coverage`] — with its *own* prior contributions rolled
    /// back — returns its claimed and delivered ranges to the [`Frontier`]
    /// for the surviving non-owners, and resumes the owner's wave walk
    /// from 0 against the rebuilt watermark — the old owner's executed
    /// prefix died with its memory. Every send is stamped with the epoch
    /// that enqueued it; a delivery from a previous epoch is rejected at
    /// acceptance (its data landed on a dead device), which is sound
    /// because an unaccepted range is never part of the covered suffix,
    /// so the new owner's walk re-executes it.
    fn promote_owner(&mut self, sim: &mut Simulation<Ev>, t: SimTime, p: usize) -> ClResult<()> {
        self.epoch += 1;
        self.eps[p].promoted = true;
        let dev = self.eps[p].dev;
        self.record(
            t,
            TraceKind::OwnerPromoted {
                dev,
                epoch: self.epoch,
            },
        );
        // The promoted endpoint stops being a claimant: its in-flight
        // subkernel is abandoned (the result is discarded — the owner's
        // walk covers the range) and its claimed-but-undelivered ranges go
        // back to the frontier for the survivors.
        for sk in self.subkernels.iter_mut() {
            if sk.dev == dev && !sk.done {
                sk.abandoned = true;
            }
        }
        self.return_lost_ranges(p);
        // Un-credit the promoted endpoint's own delivered results. Its
        // memory already holds every subkernel it completed, and the owner
        // wave walk re-executes everything below the watermark in that
        // same memory — for a read-modify-write kernel a second pass
        // double-applies the update, so re-execution is only
        // value-identical against pristine inputs. Roll the endpoint back
        // to a pristine owner instead: its delivered ranges leave coverage
        // and return to the frontier, its output buffers are restored from
        // the original snapshot, and its dirty accounting is cleared.
        // Everything it ever computed is then recomputed exactly once — by
        // its own wave walk below the rebuilt watermark, or by a surviving
        // claimant whose results fold in at the merge.
        let mut credited: Vec<u32> = Vec::new();
        for s in self.sends.iter_mut().filter(|s| s.applied && s.dev == dev) {
            s.applied = false;
            credited.extend_from_slice(&s.subs);
        }
        credited.sort_unstable();
        credited.dedup();
        let mut coverage = Coverage::new(self.total);
        for s in self.sends.iter().filter(|s| s.applied) {
            for &sub in &s.subs {
                let sk = &self.subkernels[sub as usize];
                coverage.add(sk.from, sk.to);
            }
        }
        self.coverage = coverage;
        self.watermark = self.coverage.suffix_start();
        for sub in credited {
            let sk = &self.subkernels[sub as usize];
            self.frontier.return_range(sk.from, sk.to);
        }
        let mem = self.eps[p]
            .mem
            .as_mut()
            .expect("a promoted peer has its own address space");
        for id in &self.out_ids {
            mem.share_from(&self.orig, *id)?;
        }
        self.eps[p].cum_dirty = vec![DirtyRanges::empty(); self.out_lens.len()];
        // Fresh in-order view per epoch: open holes and buffered statuses
        // described the dead owner's receive queue. Stale deliveries are
        // rejected by the epoch fence instead, and retries re-enqueue
        // under the current epoch and are accepted normally.
        for e in self.eps.iter_mut() {
            e.holes = 0;
            e.buffered_statuses.clear();
        }
        // The peer's broadcast began with its scheduler thread.
        let broadcast_at = self.input.cpu_start.max(self.input.enqueue_at);
        self.hand_off(sim, p, t, broadcast_at);
        // Survivors take over the returned work immediately.
        for e in 0..self.eps.len() {
            self.maybe_launch_subkernel(sim, t, e);
        }
        Ok(())
    }

    /// Hands the owner role to peer endpoint `p` at `t`: its card prices
    /// the owner's work and its memory is the merge destination. Its walk
    /// starts from work-group 0 once the card holds the launch buffers
    /// (broadcast from `broadcast_at`), has created §4.1's two scratch
    /// buffers per output and copied the originals, and has launched.
    fn hand_off(&mut self, sim: &mut Simulation<Ev>, p: usize, t: SimTime, broadcast_at: SimTime) {
        // `eps[p]` is the endpoint of `peers[p - 1]`.
        self.owner = self.input.peers[p - 1].peer.clone();
        self.eps[p].promoted = true;
        self.owner_ep = Some(p);
        self.gpu_next = 0;
        let held_at = broadcast_at + self.owner.h2d.transfer_time(self.launch_bytes);
        let card = &self.owner.gpu;
        let mut begin = t.max(held_at) + card.launch_overhead();
        for len in &self.out_lens {
            let bytes = *len as u64 * 4;
            begin += card.buffer_create_time(bytes) * 2 + card.copy_time(bytes);
        }
        self.owner_begin = begin;
        sim.schedule_at(begin, Ev::GpuBegin);
    }

    fn on_wave_done(&mut self, sim: &mut Simulation<Ev>, t: SimTime, gen: u32) -> ClResult<()> {
        let Some(wave) = self.wave.take() else {
            return Ok(());
        };
        if wave.gen != gen {
            self.wave = Some(wave);
            return Ok(());
        }
        // Work-groups covered by non-owner results that arrived *mid-wave*
        // abort at an in-loop check and never write; the rest complete.
        // Without in-loop checks everything that started runs to
        // completion.
        let exec_end = if self.input.config.abort_mode.allows_early_abort() {
            wave.end.min(self.watermark.max(wave.start))
        } else {
            wave.end
        };
        if exec_end > wave.start {
            let launch = self.input.launch;
            // Waves execute in the acting owner's address space: the
            // primary GPU's, or a promoted peer's own memory.
            let mem: &mut Memory = match self.owner_ep {
                Some(p) => self.eps[p]
                    .mem
                    .as_mut()
                    .expect("promoted owner is a peer with its own memory"),
                None => self.input.gpu_mem,
            };
            execute_groups(launch, mem, wave.start, exec_end)?;
            self.gpu_wgs_executed += exec_end - wave.start;
        }
        self.record(
            t,
            TraceKind::GpuWaveDone {
                from: wave.start,
                to: wave.end,
                executed_to: exec_end.max(wave.start),
            },
        );
        self.gpu_next = wave.end;
        self.start_wave(sim, t)
    }

    fn on_wave_abort(&mut self, sim: &mut Simulation<Ev>, t: SimTime, gen: u32) -> ClResult<()> {
        let Some(wave) = self.wave.take() else {
            return Ok(());
        };
        if wave.gen != gen {
            self.wave = Some(wave);
            return Ok(());
        }
        // The whole wave was covered by the non-owners: nothing is written,
        // the GPU kernel proceeds to its exit check with `gpu_next`
        // unchanged.
        debug_assert!(self.watermark <= wave.start);
        self.record(
            t,
            TraceKind::GpuWaveAborted {
                from: wave.start,
                to: wave.end,
            },
        );
        self.start_wave(sim, t)
    }

    fn gpu_exit(&mut self, sim: &mut Simulation<Ev>, t: SimTime) -> ClResult<()> {
        self.gpu_exited_at = Some(t);
        self.record(t, TraceKind::GpuExit);
        if self.watermark < self.total {
            // Non-owner data arrived: run the diff-merge kernel (paper
            // §4.3). Under dirty-range transfers the merge only walks the
            // bytes that were actually shipped, not whole output buffers.
            let merge_bytes = if self.dirty_enabled {
                self.shipped_dirty_bytes
            } else {
                self.out_bytes
            };
            let dur = self.owner.gpu.merge_time(merge_bytes);
            sim.schedule_at(t + dur, Ev::GpuMergeDone);
        } else {
            // GPU executed the entire NDRange; the merge is skipped.
            self.merge_results()?;
            self.on_merge_done(t);
        }
        Ok(())
    }

    fn on_merge_done(&mut self, t: SimTime) {
        if self.merge_done_at.is_none() {
            self.merge_done_at = Some(t);
            self.record(t, TraceKind::MergeDone);
        }
    }

    /// Folds every endpoint's computed data into the GPU buffers exactly as
    /// the merge kernel of paper Figure 9 does — element-wise, wherever an
    /// endpoint's copy differs from the pristine original. With several
    /// endpoints this is the merge tree: a sequential fold, CPU first, then
    /// each peer; claimed ranges are disjoint, so the fold order never
    /// changes the result.
    fn merge_results(&mut self) -> ClResult<()> {
        // Destination: the acting owner's address space — a promoted
        // peer's own memory after failover, the primary GPU's otherwise.
        // The promoted owner's copy is taken out for the fold and put back
        // afterwards, so the source loop can still borrow `eps` freely.
        // (On the error paths the kernel is abandoned and the copy stays
        // out — harmless, nothing reads it again.)
        let owner = self.owner_ep;
        let mut promoted_mem = owner.and_then(|p| self.eps[p].mem.take());
        let dst: &mut Memory = match promoted_mem.as_mut() {
            Some(m) => m,
            None => self.input.gpu_mem,
        };
        for (e, ep) in self.eps.iter().enumerate() {
            if owner != Some(e) {
                let src = ep.mem.as_ref().unwrap_or(self.input.cpu_mem);
                self.input.work.merged_bytes +=
                    fold_endpoint(dst, src, ep, &self.out_ids, &self.orig, self.dirty_enabled)?;
            }
        }
        if let Some(p) = owner {
            self.eps[p].mem = promoted_mem;
        }
        Ok(())
    }

    // ---- Non-owner side -------------------------------------------------

    fn cpu_profile(&self, version: usize) -> &fluidicl_hetsim::KernelProfile {
        &self.input.launch.kernel.versions()[version].profile
    }

    fn maybe_launch_subkernel(&mut self, sim: &mut Simulation<Ev>, t: SimTime, d: usize) {
        // The scheduler stops once the GPU kernel has exited (paper §5),
        // when the frontier is drained, when this endpoint was declared
        // lost, or when its link was abandoned (further results could never
        // reach the GPU, so the GPU covers the rest).
        {
            let ep = &self.eps[d];
            if self.gpu_exited_at.is_some()
                || self.frontier.is_empty()
                || ep.lost
                || ep.promoted
                || ep.link_dead
                || ep.busy
            {
                return;
            }
            // Bounded in-flight window: with a full window of subkernels
            // computed but not yet staged, the scheduler waits for a copy
            // to complete before taking more work.
            if ep.unshipped >= in_flight_window(self.pipelined) {
                return;
            }
        }
        let idx = self.subkernels.len();
        let trial = d == 0 && self.ep0_subkernels < self.trial_versions;
        let version = if d == 0 {
            if trial {
                self.ep0_subkernels
            } else {
                self.selected_version
            }
        } else {
            0
        };
        let want = if trial {
            // Profiling trials run a small fixed allocation (paper §6.6).
            self.eps[d].model.min_chunk()
        } else if d == 0 {
            // The CPU absorbs a short tail when one launch is predicted to
            // win: its launch overhead is what a second subkernel costs.
            let ep = &self.eps[0];
            let profile = self.cpu_profile(version);
            ep.chunk.next_claim(self.frontier.claimable(), |wgs| {
                ep.model
                    .compute_time(profile, self.items, wgs, self.input.config.wg_split)
            })
        } else {
            self.peer_claim(d, t)
        };
        let Some((from, to)) = self.frontier.claim(want) else {
            return;
        };
        let wgs = to - from;
        let duration = {
            let profile = if d == 0 {
                self.cpu_profile(version)
            } else {
                self.gpu_profile()
            };
            self.eps[d]
                .model
                .compute_time(profile, self.items, wgs, self.input.config.wg_split)
        };
        let dev = self.eps[d].dev;
        self.record(
            t,
            TraceKind::EpSubkernelStart {
                dev,
                from,
                to,
                version,
            },
        );
        self.subkernels.push(Subkernel {
            dev,
            from,
            to,
            version,
            duration,
            dirty_bytes: 0,
            done: false,
            abandoned: false,
            trial,
        });
        if d == 0 {
            self.ep0_subkernels += 1;
        }
        self.eps[d].busy = true;
        // A killed subkernel launches but never reports completion (and
        // never executes, so no partial writes are published); only its
        // watchdog notices.
        if !self.kill_subkernel(dev) {
            sim.schedule_at(t + duration, Ev::SubkernelDone { idx: idx as u32 });
        }
        if self.faulty() {
            sim.schedule_at(
                t + recover::deadline(duration),
                Ev::SubkernelWatchdog { idx: idx as u32 },
            );
        }
    }

    /// The work-groups peer endpoint `d` claims at `t`: the chunk its
    /// controller proposes, or else one minimum chunk, if the peer's results
    /// are predicted to reach the owner no later than the owner's walk would
    /// finish the claimed range itself; else nothing. The prediction is the
    /// claim's launch, its staging copy, and the ship of its data and
    /// status. A claim that lands later only duplicates the owner's work. A
    /// declined peer needs no wake-up: the owner only gets closer, until a
    /// loss or a promotion returns work and asks every endpoint again.
    fn peer_claim(&self, d: usize, t: SimTime) -> u64 {
        let ep = &self.eps[d];
        let deadline = self.owner_eta(self.frontier.claim_top());
        ep.chunk.next_peer_claim(self.frontier.claimable(), |wgs| {
            // A range is credited when its status lands behind its data.
            // The payload is the range's share of the outputs, also under
            // whole-buffer transfers, and what the peer already queued on
            // its staging engine and link is ignored: pricing either moved
            // no fingerprint makespan.
            let bytes = self.out_bytes * wgs / self.total;
            let delivery = ep.model.compute_time(
                self.gpu_profile(),
                self.items,
                wgs,
                self.input.config.wg_split,
            ) + ep.model.stage_time(bytes)
                + ep.model.ship_time(&self.owner.h2d, bytes)
                + ep.model.ship_time(&self.owner.h2d, STATUS_MSG_BYTES);
            t + delivery <= deadline
        })
    }

    /// When the acting owner's wave walk is predicted to have executed every
    /// work-group below `top`: full waves from the end of the current wave,
    /// or from the walk's beginning. There is always a walk to price: the
    /// ownerless endgame begins only once no peer is left to claim.
    fn owner_eta(&self, top: u64) -> SimTime {
        debug_assert!(!self.gpu_lost, "no owner walk runs in the endgame");
        let (at, pos) = match &self.wave {
            Some(w) => (w.due_at, w.end),
            None => (self.owner_begin, self.gpu_next),
        };
        let width = self.owner.gpu.wave_width();
        let wave = self.owner.gpu.range_time(
            self.gpu_profile(),
            self.items,
            width,
            self.input.config.abort_mode,
        );
        at + wave * top.saturating_sub(pos).div_ceil(width)
    }

    /// Index into `eps` of the endpoint that owns subkernel `idx`.
    fn ep_of(&self, idx: u32) -> usize {
        self.ep_index(self.subkernels[idx as usize].dev)
    }

    /// Index into `eps` of the endpoint that owns send `seq`.
    fn ep_of_send(&self, seq: u32) -> usize {
        self.ep_index(self.sends[seq as usize].dev)
    }

    /// Index into `eps` of endpoint `dev` (stable indices may skip peers
    /// lost in earlier kernels).
    fn ep_index(&self, dev: u32) -> usize {
        self.eps
            .iter()
            .position(|e| e.dev == dev)
            .expect("dev indexes a configured endpoint")
    }

    fn on_subkernel_watchdog(
        &mut self,
        sim: &mut Simulation<Ev>,
        t: SimTime,
        idx: u32,
    ) -> ClResult<()> {
        let d = self.ep_of(idx);
        if self.subkernels[idx as usize].done
            || self.subkernels[idx as usize].abandoned
            || self.eps[d].lost
            || self.eps[d].promoted
        {
            return Ok(());
        }
        // The subkernel is still open past its deadline: the endpoint is
        // gone. Its claimed-but-unexecuted range (and any completed ranges
        // that never made it into a send) return to the frontier, where the
        // surviving endpoints — or the owner's descent of everything below
        // the watermark — pick them up.
        self.eps[d].lost = true;
        let dev = self.eps[d].dev;
        self.record(t, TraceKind::NonOwnerLost { dev });
        self.return_lost_ranges(d);
        if self.gpu_lost && self.eps.iter().all(|e| e.lost || e.promoted) {
            // The owner is lost only once no peer is left to promote, so
            // the last endpoint to miss a deadline is the CPU.
            debug_assert_eq!(dev, 0, "a live peer would have been promoted");
            return Err(ClError::DeviceLost {
                device: DeviceKind::Cpu,
                detail: "CPU subkernel missed its watchdog deadline after the GPU was already lost"
                    .into(),
            });
        }
        // Survivors take over the returned work immediately.
        for e in 0..self.eps.len() {
            self.maybe_launch_subkernel(sim, t, e);
        }
        Ok(())
    }

    /// Returns a lost endpoint's claimed-but-undelivered ranges to the
    /// frontier: the killed in-flight subkernel, plus every completed
    /// subkernel that never entered a send (in-flight sends still deliver
    /// and count — their data reaches the owner regardless of the device's
    /// fate, exactly like the paper's in-order queue semantics).
    fn return_lost_ranges(&mut self, d: usize) {
        let dev = self.eps[d].dev;
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        for (i, sk) in self.subkernels.iter().enumerate() {
            if sk.dev != dev {
                continue;
            }
            if !sk.done {
                ranges.push((sk.from, sk.to));
                continue;
            }
            let sent = self.sends.iter().any(|s| s.subs.contains(&(i as u32)));
            if !sent {
                ranges.push((sk.from, sk.to));
            }
        }
        // The dead endpoint's unsent results never ship: the returned
        // ranges belong to whoever claims them next (or to the owner's walk).
        self.eps[d].pending_batch.clear();
        for (f, t) in ranges {
            self.frontier.return_range(f, t);
        }
    }

    fn on_subkernel_done(
        &mut self,
        sim: &mut Simulation<Ev>,
        t: SimTime,
        idx: u32,
    ) -> ClResult<()> {
        let d = self.ep_of(idx);
        if self.subkernels[idx as usize].abandoned {
            // The endpoint was promoted to owner while this subkernel was
            // in flight: its claim went back to the frontier at promotion
            // and the result is discarded without executing — the owner's
            // wave walk (or a surviving claimant) covers the range.
            self.eps[d].busy = false;
            return Ok(());
        }
        let (dev, from, to, version, duration, trial) = {
            let sk = &mut self.subkernels[idx as usize];
            sk.done = true;
            (sk.dev, sk.from, sk.to, sk.version, sk.duration, sk.trial)
        };
        {
            let ep = &mut self.eps[d];
            ep.busy = false;
            // The subkernel really computes its work-groups on the
            // endpoint's copy, using the selected kernel version's body.
            ep.launch.version = version;
            let mem = ep.mem.as_mut().unwrap_or(self.input.cpu_mem);
            execute_groups(&ep.launch, mem, from, to)?;
        }
        // Dirty-range capture: diff the endpoint's copy against the
        // pristine original to learn exactly which elements this subkernel
        // wrote (the same write evidence the shadowed sanitizer run
        // produces, obtained blockwise). The diff is cumulative across the
        // endpoint's subkernels, so this subkernel's payload is the newly
        // dirtied delta.
        let mut dirty_delta = 0u64;
        if self.dirty_enabled {
            let ep = &mut self.eps[d];
            let mem = ep.mem.as_ref().unwrap_or(self.input.cpu_mem);
            for (j, id) in self.out_ids.iter().enumerate() {
                let cur = DirtyRanges::from_diff(mem.get(*id)?, self.orig.get(*id)?);
                let prev = ep.cum_dirty[j].element_count();
                dirty_delta += 4 * cur.element_count().saturating_sub(prev) as u64;
                ep.cum_dirty[j] = cur;
            }
            self.subkernels[idx as usize].dirty_bytes = dirty_delta;
        }
        let wgs = to - from;
        self.eps[d].wgs_executed += wgs;
        self.subkernel_log.push((wgs, duration));
        self.record(t, TraceKind::EpSubkernelDone { dev, from, to });
        if trial {
            self.trial_results.push((version, duration.div_count(wgs)));
            if self.trial_results.len() == self.trial_versions {
                self.selected_version = self
                    .trial_results
                    .iter()
                    .min_by_key(|(_, per_wg)| *per_wg)
                    .map(|(v, _)| *v)
                    .unwrap_or(0);
            }
        } else {
            self.eps[d].chunk.observe(wgs, duration);
        }
        if self.cpu_finished_at.is_none()
            && self.frontier.is_empty()
            && self.eps.iter().all(|e| !e.busy || e.lost)
        {
            // The non-owners computed the entire NDRange: with a single
            // endpoint the final data lives on the CPU (paper §4.2) and
            // the GPU execution's results are ignored.
            self.cpu_finished_at = Some(t);
        }
        if self.gpu_lost {
            // No owner to ship to: skip the host copy and the transfer and
            // keep claiming — the CPU is finishing the range alone.
            self.maybe_launch_subkernel(sim, t, d);
            return Ok(());
        }
        if self.gpu_exited_at.is_some() {
            // The kernel already completed on the GPU; the scheduler exits
            // without copying or transferring this late result.
            return Ok(());
        }
        // Intermediate staging copy so the next subkernel can proceed while
        // the data is in flight (paper §5.5); with dirty tracking only the
        // newly dirtied ranges are staged. Each endpoint's staging engine
        // copies one subkernel at a time, in completion order.
        let copy_bytes = if self.dirty_enabled {
            dirty_delta
        } else {
            self.out_bytes
        };
        let ep = &mut self.eps[d];
        ep.unshipped += 1;
        ep.staging_free = ep.staging_free.max(t) + ep.model.stage_time(copy_bytes);
        let copy_done = ep.staging_free;
        sim.schedule_at(copy_done, Ev::CopyDone { idx });
        // Pipelined launch: the next subkernel starts now, while this
        // one's data+status is still in flight. Unpipelined the window is
        // full (`unshipped == 1`) and this is a no-op — the launch happens
        // at copy completion, exactly the serial protocol.
        self.maybe_launch_subkernel(sim, t, d);
        Ok(())
    }

    fn on_copy_done(&mut self, sim: &mut Simulation<Ev>, t: SimTime, idx: u32) {
        let d = self.ep_of(idx);
        self.eps[d].unshipped = self.eps[d].unshipped.saturating_sub(1);
        if self.eps[d].lost || self.eps[d].promoted {
            // The endpoint died (or was promoted to owner) after this copy
            // was enqueued; its range already returned to the frontier, so
            // the result must not ship (a survivor owns the range now).
            return;
        }
        if !self.pipelined {
            // Serial protocol: each subkernel ships alone, immediately.
            self.send_batch(sim, t, vec![idx], 1);
        } else if !self.eps[d].pending_batch.is_empty() {
            // A flush is already scheduled for the link-free instant; this
            // subkernel's results join the batch.
            self.eps[d].pending_batch.push(idx);
        } else if self.eps[d].hd_free <= t {
            // The link is idle: nothing to coalesce with, ship now.
            self.send_batch(sim, t, vec![idx], 1);
        } else {
            // The link is busy: open a batch and flush it the moment the
            // queue frees up, coalescing any copies that complete until
            // then into one data payload + one status message.
            let flush_at = self.eps[d].hd_free;
            self.eps[d].pending_batch.push(idx);
            sim.schedule_at(flush_at, Ev::HdFlush { dev: d as u32 });
        }
        self.maybe_launch_subkernel(sim, t, d);
    }

    /// Ships an endpoint's pending coalesced batch. Scheduled for the
    /// instant its link was expected to free up when the batch was opened;
    /// the gates in [`Coexec::send_batch`] drop it if the world changed
    /// since (GPU exited or lost, link wedged or abandoned).
    fn on_hd_flush(&mut self, sim: &mut Simulation<Ev>, t: SimTime, d: usize) {
        let batch = std::mem::take(&mut self.eps[d].pending_batch);
        if !batch.is_empty() {
            self.send_batch(sim, t, batch, 1);
        }
    }

    /// Batch payload bytes (excluding the status message): the dirty sum
    /// across the batch, or one whole-buffer image under whole-buffer
    /// transfers (a batch
    /// ships the buffers once, regardless of how many subkernels it
    /// carries — later results overwrite earlier ones in the same image).
    fn batch_payload(&self, subs: &[u32]) -> u64 {
        if self.dirty_enabled {
            subs.iter()
                .map(|&i| self.subkernels[i as usize].dirty_bytes)
                .sum()
        } else {
            self.out_bytes
        }
    }

    /// Ship accounting shared by the healthy delivery path and the
    /// recovery path that accepts a corrupted-in-vain delivery: the bytes
    /// that actually landed on the GPU are what the merge kernel is
    /// charged for.
    fn note_shipped(&mut self, seq: u32) {
        if self.dirty_enabled {
            self.shipped_dirty_bytes += self.sends[seq as usize].payload;
        }
    }

    /// Enqueues a batch of completed subkernels as one data + status send
    /// on the owning endpoint's in-order queue (attempt 1), or re-enqueues
    /// a batch after a transient failure or a checksum rejection
    /// (attempt > 1). The attached injector decides the send's fate;
    /// without one every send simply delivers.
    fn send_batch(&mut self, sim: &mut Simulation<Ev>, t: SimTime, subs: Vec<u32>, attempt: u32) {
        let d = self.ep_of(subs[0]);
        if self.gpu_exited_at.is_some()
            || self.gpu_lost
            || self.eps[d].link_wedged
            || self.eps[d].link_dead
            || self.eps[d].lost
            || self.eps[d].promoted
        {
            // Nobody is listening (or the queue is blocked, or the range
            // went back to the frontier): the send is dropped; the GPU
            // covers the range below the watermark itself.
            return;
        }
        // The status message carries the lowest completion boundary in the
        // batch — coverage only ever holds data that is on the GPU.
        let boundary = subs
            .iter()
            .map(|&i| self.subkernels[i as usize].from)
            .min()
            .expect("a send carries at least one subkernel");
        // In-order queue per endpoint: computed data first, then the status
        // message, so a work-group only counts as complete when its results
        // are already on the GPU (paper §4.2). With dirty tracking the data
        // message carries only the batch's coalesced dirty ranges.
        let payload = self.batch_payload(&subs);
        let dirty_bytes = self.dirty_enabled.then_some(payload);
        let fate = self.transfer_fate(attempt);
        let model = &self.eps[d].model;
        let data_arrival = self.eps[d].hd_free.max(t) + model.ship_time(&self.owner.h2d, payload);
        let status_arrival = data_arrival + model.ship_time(&self.owner.h2d, STATUS_MSG_BYTES);
        self.hd_bytes += payload + STATUS_MSG_BYTES;
        let bytes = payload + STATUS_MSG_BYTES;
        let dev = self.eps[d].dev;
        self.record(
            t,
            TraceKind::EpSend {
                dev,
                boundary,
                bytes,
                dirty_bytes,
                subkernels: subs.len() as u32,
            },
        );
        let seq = self.sends.len() as u32;
        self.sends.push(SendOp {
            dev,
            subs,
            boundary,
            payload,
            attempt,
            epoch: self.epoch,
            resolved: false,
            applied: false,
        });
        match fate {
            TransferFate::Deliver => {
                self.eps[d].hd_free = status_arrival;
                self.note_shipped(seq);
                sim.schedule_at(status_arrival, Ev::StatusArrived { seq });
                if self.faulty() {
                    let deadline = recover::deadline(status_arrival.saturating_since(t));
                    sim.schedule_at(t + deadline, Ev::TransferWatchdog { seq });
                }
            }
            TransferFate::Stall => {
                // The op never completes and the in-order queue is blocked
                // behind it; only the watchdog gets the link unstuck (by
                // abandoning it).
                self.eps[d].link_wedged = true;
                let deadline = recover::deadline(status_arrival.saturating_since(t));
                sim.schedule_at(t + deadline, Ev::TransferWatchdog { seq });
            }
            TransferFate::TransientFail => {
                // The link time is spent, but the payload is lost; the
                // failure is detected when the completion should have come.
                self.eps[d].hd_free = status_arrival;
                sim.schedule_at(status_arrival, Ev::TransferNack { seq });
            }
            TransferFate::CorruptPayload => {
                // Delivered on time, but the payload arrives damaged; the
                // checksum check at data arrival catches it.
                self.eps[d].hd_free = status_arrival;
                sim.schedule_at(data_arrival, Ev::TransferCorrupt { seq });
            }
            TransferFate::CorruptStatus => {
                // The status word itself is damaged; caught when the status
                // message arrives.
                self.eps[d].hd_free = status_arrival;
                sim.schedule_at(status_arrival, Ev::TransferCorrupt { seq });
            }
        }
    }

    fn on_status_arrived(
        &mut self,
        sim: &mut Simulation<Ev>,
        t: SimTime,
        seq: u32,
    ) -> ClResult<()> {
        self.sends[seq as usize].resolved = true;
        if self.gpu_exited_at.is_some() || self.gpu_lost {
            // Late message: the GPU already finished without it, so it is
            // discarded (paper §5.3).
            return Ok(());
        }
        self.accept_status(sim, t, seq)
    }

    /// Receiver-side acceptance of a delivered send. While an earlier send
    /// from the same endpoint awaits re-delivery (an open *hole*), later
    /// statuses from that endpoint are buffered: applying them early would
    /// cover data that is not on the GPU yet. The successful re-delivery
    /// closes the hole and applies everything buffered behind it.
    fn accept_status(&mut self, sim: &mut Simulation<Ev>, t: SimTime, seq: u32) -> ClResult<()> {
        let d = self.ep_of_send(seq);
        // Epoch fence (owner failover): a delivery enqueued under a
        // previous owner landed on a dead device. It is rejected here —
        // never folded into coverage — which keeps the range below the
        // watermark, where the acting owner's wave walk re-executes it.
        // Retries of the same batch re-enqueue under the current epoch and
        // are accepted normally.
        if self.sends[seq as usize].epoch != self.epoch {
            let (dev, boundary) = {
                let s = &self.sends[seq as usize];
                (s.dev, s.boundary)
            };
            self.record(t, TraceKind::EpochRejected { dev, boundary });
            return Ok(());
        }
        let attempt = self.sends[seq as usize].attempt;
        if attempt > 1 {
            self.eps[d].holes = self.eps[d].holes.saturating_sub(1);
        }
        if self.eps[d].holes > 0 {
            self.eps[d].buffered_statuses.push(seq);
            return Ok(());
        }
        let mut seqs = vec![seq];
        seqs.append(&mut self.eps[d].buffered_statuses);
        for s in seqs {
            self.apply_arrival(sim, t, s)?;
        }
        Ok(())
    }

    /// Folds an accepted send's ranges into coverage, moves the watermark
    /// to the new contiguous-suffix start, and aborts a fully covered
    /// running wave.
    fn apply_arrival(&mut self, sim: &mut Simulation<Ev>, t: SimTime, seq: u32) -> ClResult<()> {
        let (dev, boundary) = {
            let s = &self.sends[seq as usize];
            (s.dev, s.boundary)
        };
        self.sends[seq as usize].applied = true;
        for i in 0..self.sends[seq as usize].subs.len() {
            let sub = self.sends[seq as usize].subs[i];
            let sk = &self.subkernels[sub as usize];
            self.coverage.add(sk.from, sk.to);
        }
        self.watermark = self.coverage.suffix_start();
        self.record(
            t,
            TraceKind::EpStatus {
                dev,
                boundary,
                watermark: self.watermark,
            },
        );
        // A running wave fully covered by the non-owners aborts at its next
        // in-loop check (paper §6.4).
        if !self.input.config.abort_mode.allows_early_abort() {
            return Ok(());
        }
        let Some(wave) = &self.wave else {
            return Ok(());
        };
        if self.watermark > wave.start {
            return Ok(());
        }
        let Some(quantum) = self.owner.gpu.abort_quantum(
            self.gpu_profile(),
            self.items,
            self.input.config.abort_mode,
        ) else {
            // An abort mode that allows early abort always defines a check
            // quantum; a machine model violating that is a configuration
            // breach, not a reason to crash the host program.
            return Err(ClError::ProtocolViolation {
                kernel: self.input.launch.kernel.name().to_string(),
                detail: format!(
                    "abort mode {:?} allows early abort but defines no check quantum",
                    self.input.config.abort_mode
                ),
            });
        };
        let elapsed = t.saturating_since(wave.started_at).as_nanos();
        let q = quantum.as_nanos().max(1);
        let checks = elapsed.div_ceil(q).max(1);
        let abort_at = wave.started_at + SimDuration::from_nanos(checks * q);
        let natural_done = wave.started_at
            + self.owner.gpu.range_time(
                self.gpu_profile(),
                self.items,
                wave.end - wave.start,
                self.input.config.abort_mode,
            );
        if abort_at < natural_done {
            let gen = wave.gen;
            // A killed wave has no completion event to cancel; its watchdog
            // will declare the GPU lost instead of an abort racing it.
            if let Some(token) = wave.token {
                sim.cancel(token);
                sim.schedule_at(abort_at, Ev::GpuWaveAbort { gen });
            }
        }
        Ok(())
    }

    fn on_transfer_watchdog(&mut self, t: SimTime, seq: u32) {
        let d = self.ep_of_send(seq);
        if self.sends[seq as usize].resolved
            || self.gpu_exited_at.is_some()
            || self.gpu_lost
            || self.eps[d].link_dead
        {
            return;
        }
        // The send never completed: abandon this endpoint's link. The
        // endpoint stops taking work and the GPU executes everything still
        // above the watermark (the stalled subkernel's range is below it,
        // so nothing is lost — only re-executed).
        let (dev, boundary) = {
            let s = &self.sends[seq as usize];
            (s.dev, s.boundary)
        };
        self.sends[seq as usize].resolved = true;
        self.record(t, TraceKind::EpTransferTimeout { dev, boundary });
        self.eps[d].link_wedged = false;
        self.eps[d].link_dead = true;
        self.eps[d].hd_free = self.eps[d].hd_free.max(t);
    }

    fn on_transfer_nack(&mut self, sim: &mut Simulation<Ev>, t: SimTime, seq: u32) -> ClResult<()> {
        self.sends[seq as usize].resolved = true;
        if self.gpu_exited_at.is_some() || self.gpu_lost {
            return Ok(());
        }
        let d = self.ep_of_send(seq);
        let (dev, boundary, attempt) = {
            let s = &self.sends[seq as usize];
            (s.dev, s.boundary, s.attempt)
        };
        self.record(
            t,
            TraceKind::EpTransferFault {
                dev,
                boundary,
                attempt,
            },
        );
        let Some(backoff) = recover::backoff(attempt) else {
            return Err(ClError::Timeout {
                op: "h2d transfer".into(),
                detail: format!(
                    "transfer for boundary {boundary} still failing after {attempt} attempts"
                ),
            });
        };
        if attempt == 1 {
            self.eps[d].holes += 1;
        }
        // A retry is evidence of a flaky link: the endpoint's next
        // subkernel is halved, so its results are acknowledged sooner.
        self.eps[d].chunk.on_transfer_retry();
        sim.schedule_at(
            t + backoff,
            Ev::TransferRetry {
                seq,
                attempt: attempt + 1,
            },
        );
        Ok(())
    }

    fn on_transfer_corrupt(
        &mut self,
        sim: &mut Simulation<Ev>,
        t: SimTime,
        seq: u32,
    ) -> ClResult<()> {
        self.sends[seq as usize].resolved = true;
        if self.gpu_exited_at.is_some() || self.gpu_lost {
            return Ok(());
        }
        let d = self.ep_of_send(seq);
        let (dev, boundary, attempt) = {
            let s = &self.sends[seq as usize];
            (s.dev, s.boundary, s.attempt)
        };
        if self.checksum_rejects(d)? {
            // Reject-and-resend: the damaged delivery is discarded and the
            // batch's results are re-enqueued immediately (the payload is
            // still staged host-side from the intermediate copies).
            self.record(t, TraceKind::EpTransferRejected { dev, boundary });
            if attempt == 1 {
                self.eps[d].holes += 1;
            }
            self.eps[d].chunk.on_transfer_retry();
            let subs = self.sends[seq as usize].subs.clone();
            self.send_batch(sim, t, subs, attempt + 1);
            return Ok(());
        }
        // The injected flip collided with the checksum (or there was
        // nothing to corrupt): the delivery is accepted as-is.
        self.note_shipped(seq);
        self.accept_status(sim, t, seq)
    }

    /// Verifies the per-transfer checksum the way the receiving device
    /// would: computes the checksum of the staged payload and of the
    /// payload with the injector's single-word corruption substituted, and
    /// compares. Returns whether the delivery must be rejected.
    fn checksum_rejects(&self, d: usize) -> ClResult<bool> {
        let Some(inj) = self.input.injector.as_deref() else {
            return Ok(false);
        };
        let Some(id) = self.out_ids.first() else {
            return Ok(false);
        };
        let mem = self.eps[d].mem.as_ref().unwrap_or(self.input.cpu_mem);
        let data = mem.get(*id)?;
        if data.is_empty() {
            return Ok(false);
        }
        let i = inj.corrupt_index(data.len());
        let flipped = f32::from_bits(data[i].to_bits() ^ inj.flip_mask());
        Ok(payload_checksum_with(data, i, flipped) != payload_checksum(data))
    }

    // ---- Completion -----------------------------------------------------

    fn finish(mut self) -> ClResult<CoexecOutcome> {
        if self.gpu_lost {
            return self.finish_after_gpu_loss();
        }
        let Some(merge_done) = self.merge_done_at else {
            // With a healthy GPU the wave loop always reaches the exit and
            // the merge; an empty event queue without one is an engine
            // defect — surfaced as a typed error, never a panic.
            return Err(ClError::ProtocolViolation {
                kernel: self.input.launch.kernel.name().to_string(),
                detail: "co-execution drained its event queue without reaching merge completion"
                    .into(),
            });
        };
        // Merge the functional results now if the timed merge ran (the
        // no-arrivals path already merged inside `gpu_exit`).
        if self.watermark < self.total {
            self.merge_results()?;
        }
        self.collect_peer_work();
        // Every peer copy is folded into the owner now: release the
        // non-owner peers' shares, so no allocation outlives the kernel
        // through an endpoint that is done with it.
        for (e, ep) in self.eps.iter_mut().enumerate().skip(1) {
            if self.owner_ep != Some(e) {
                ep.mem = Some(Memory::new());
            }
        }
        // The paper's shortcut (§4.2): a CPU that computed the whole
        // NDRange holds the authoritative data and the host call returns
        // at that instant. That holds beside peers too when no peer
        // work-group was credited on a healthy roster (epoch 0, nothing
        // lost). After a loss or a promotion the final data exists only
        // assembled on the owner, so the kernel completes through the
        // merge.
        let cpu_alone = self.eps.len() == 1
            || (self.epoch == 0
                && self.eps.iter().all(|e| !e.lost)
                && self.eps[1..].iter().all(|e| e.wgs_executed == 0));
        let (complete_at, finished_by) = match self.cpu_finished_at {
            Some(tc) if cpu_alone && tc < merge_done => (tc, Finisher::Cpu),
            _ => (merge_done, Finisher::Gpu),
        };
        // Host-stale ranges: where the merged GPU content differs from the
        // CPU copy — i.e. everything the host does not already hold. The
        // D2H return and the functional mirror only need these ranges.
        // Empty when the CPU finished the whole range.
        let owner = owner_mem(&self.eps, self.owner_ep, self.input.gpu_mem);
        let stales: Vec<DirtyRanges> = if self.dirty_enabled {
            self.out_ids
                .iter()
                .map(|id| DirtyRanges::try_from_diff(owner.get(*id)?, self.input.cpu_mem.get(*id)?))
                .collect::<ClResult<_>>()?
        } else {
            Vec::new()
        };
        // Device-to-host transfers of modified buffers (paper §4.4, §5.6),
        // skipped when the CPU already holds the final data (paper §6.2).
        let (cpu_results_at, dh_free) = if finished_by == Finisher::Cpu {
            (complete_at, self.dh_free)
        } else {
            let mut t = self.dh_free.max(merge_done);
            for (i, id) in self.out_ids.iter().enumerate() {
                let bytes = if self.dirty_enabled {
                    stales[i].byte_count()
                } else {
                    owner.get(*id)?.len() as u64 * 4
                };
                t += self.owner.d2h.transfer_time(bytes);
                self.dh_bytes += bytes;
            }
            (t, t)
        };
        // After the merge the GPU copies the out buffers into their
        // "original" scratch buffers so the next kernel can start while the
        // device-to-host transfer proceeds (paper §5.5). With dirty
        // tracking only the ranges this kernel actually changed (vs the
        // still-valid snapshot) are refreshed.
        let orig_copy_bytes = if self.dirty_enabled {
            let mut bytes = 0u64;
            for id in &self.out_ids {
                bytes +=
                    DirtyRanges::try_from_diff(owner.get(*id)?, self.orig.get(*id)?)?.byte_count();
            }
            bytes
        } else {
            self.out_bytes
        };
        // The originals are done with: release their shares too.
        self.orig = Memory::new();
        let orig_copy = self.owner.gpu.copy_time(orig_copy_bytes);
        // Functional epilogue: the merged GPU content is the authoritative
        // final value (identical to each endpoint's copy wherever both
        // computed), so the CPU address space shares it, as the DH thread's
        // copy would leave it. The virtual D2H cost above is charged for
        // the stale ranges alone; a buffer with none is already current.
        for (i, id) in self.out_ids.iter().enumerate() {
            if !self.dirty_enabled || !stales[i].is_empty() {
                self.input.cpu_mem.share_from(owner, *id)?;
            }
        }
        self.outcome(
            complete_at,
            finished_by,
            merge_done + orig_copy,
            dh_free,
            cpu_results_at,
            merge_done,
        )
    }

    /// Records the completion and assembles the kernel report and timeline
    /// outcome.
    fn outcome(
        mut self,
        complete_at: SimTime,
        finished_by: Finisher,
        gpu_busy_until: SimTime,
        dh_free: SimTime,
        cpu_results_at: SimTime,
        gpu_results_at: SimTime,
    ) -> ClResult<CoexecOutcome> {
        self.record(
            complete_at,
            TraceKind::KernelComplete {
                finisher: finished_by,
            },
        );
        // The trace is recorded in handler order; sort by timestamp so the
        // rendered timeline is chronological even across the final events.
        self.trace.sort_by_key(|e| e.at);
        let report = KernelReport {
            kernel: self.input.launch.kernel.name().to_string(),
            kernel_id: self.input.kernel_id,
            enqueued_at: self.input.enqueue_at,
            complete_at,
            total_wgs: self.total,
            gpu_executed_wgs: self.gpu_wgs_executed,
            cpu_executed_wgs: self.eps[0].wgs_executed,
            // A lost owner merges nothing: the CPU computed the result.
            cpu_merged_wgs: if self.gpu_lost {
                0
            } else {
                self.coverage.covered_count()
            },
            subkernels: self.subkernels.len() as u64,
            subkernel_log: self.subkernel_log,
            hd_bytes: self.hd_bytes,
            dh_bytes: self.dh_bytes,
            cpu_version_used: self.selected_version,
            peer_executed_wgs: self.eps[1..].iter().map(|e| e.wgs_executed).collect(),
            finished_by,
            duration: complete_at.saturating_since(self.input.enqueue_at),
            trace: self.trace,
            launch_meta: Some(LaunchMeta {
                ndrange: self.input.launch.ndrange,
                scalars: self.input.launch.plan()?.scalars.clone(),
                out_lens: self.out_lens,
            }),
        };
        Ok(CoexecOutcome {
            complete_at,
            gpu_busy_until,
            hd_free: self.eps[0].hd_free,
            dh_free,
            cpu_results_at,
            gpu_results_at,
            report,
            // A lost CPU still completes: the owner finished the kernel
            // normally (the un-delivered ranges stayed above the
            // watermark), but the runtime must stop scheduling CPU work.
            // A nonzero epoch means the primary card died and a promoted
            // peer finished the kernel — the primary leaves the roster,
            // while the healthy promoted peer stays available.
            lost_cpu: self.eps[0].lost,
            lost_gpu: self.gpu_lost || self.epoch > 0,
            lost_peers: self.eps[1..]
                .iter()
                .filter(|e| e.lost)
                .map(|e| e.dev)
                .collect(),
        })
    }

    /// Graceful degradation after a permanent owner loss with no peer left
    /// to promote: every peer is lost (or was promoted and died in turn),
    /// and its memory with it. The CPU's copy is authoritative exactly as
    /// in the paper's CPU-finishes-first case (§4.2) — no owner merge, no
    /// D2H transfer — if the CPU's own subkernels covered every work-group;
    /// otherwise part of the NDRange exists only on dead devices.
    fn finish_after_gpu_loss(self) -> ClResult<CoexecOutcome> {
        // The CPU's claims are disjoint: only a lost or promoted endpoint's
        // ranges return to the frontier, so its count is its coverage.
        let complete_at = match self.cpu_finished_at {
            Some(t) if self.eps[0].wgs_executed == self.total => t,
            _ => {
                return Err(ClError::DeviceLost {
                    device: DeviceKind::Gpu,
                    detail: "GPU lost and the CPU did not complete the NDRange".into(),
                })
            }
        };
        let dh_free = self.dh_free;
        self.outcome(
            complete_at,
            Finisher::Cpu,
            complete_at,
            dh_free,
            complete_at,
            complete_at,
        )
    }
}

/// The acting owner's address space: a promoted peer's own memory after
/// failover, the primary GPU's otherwise.
fn owner_mem<'m>(eps: &'m [EpState], owner_ep: Option<usize>, gpu_mem: &'m Memory) -> &'m Memory {
    match owner_ep {
        Some(p) => eps[p]
            .mem
            .as_ref()
            .expect("promoted owner is a peer with its own memory"),
        None => gpu_mem,
    }
}

/// Folds endpoint `ep`'s copy `src` of the `out_ids` buffers into `dst`
/// wherever it differs from the pristine `orig` — the merge kernel of paper
/// Figure 9, element-wise.
/// With dirty tracking the fold walks only what the endpoint changed:
/// `cum_dirty` covers every element where its copy differs from the
/// snapshot, so it is functionally the full fold. Returns the bytes walked.
fn fold_endpoint(
    dst: &mut Memory,
    src: &Memory,
    ep: &EpState,
    out_ids: &[BufferId],
    orig: &Memory,
    dirty_enabled: bool,
) -> ClResult<u64> {
    let mut walked = 0;
    for (j, id) in out_ids.iter().enumerate() {
        let orig = orig.get(*id)?;
        let from = src.get(*id)?;
        let into = dst.get_mut(*id)?;
        if into.len() != from.len() || from.len() != orig.len() {
            // A mis-sized buffer mid-simulation is a protocol breach, not a
            // programming error in the merge itself: surface it through
            // the runtime's error path instead of panicking.
            return Err(ClError::ProtocolViolation {
                kernel: ep.launch.kernel.name().to_string(),
                detail: format!(
                    "diff-merge size mismatch on buffer {}: destination {} vs ep{} {} vs original {} elements",
                    id.0,
                    into.len(),
                    ep.dev,
                    from.len(),
                    orig.len()
                ),
            });
        }
        walked += if dirty_enabled {
            diff_merge_ranged(into, from, orig, &ep.cum_dirty[j])?
        } else {
            fluidicl_vcl::diff_merge(into, from, orig)
        };
    }
    Ok(walked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluidicl_hetsim::{KernelProfile, LinkModel};
    use fluidicl_vcl::{ArgRole, ArgSpec, KernelArg, KernelDef, NdRange};
    use std::sync::Arc;

    /// `dst = 2 × src` over `n` elements: the launch, and CPU and GPU
    /// address spaces that share the initialised buffers.
    fn scale_launch(n: usize) -> (Launch, Memory, Memory) {
        let def = Arc::new(KernelDef::new(
            "scale",
            vec![
                ArgSpec::new("src", ArgRole::In),
                ArgSpec::new("dst", ArgRole::Out),
            ],
            KernelProfile::new("scale")
                .flops_per_item(65536.0)
                .bytes_read_per_item(4.0)
                .bytes_written_per_item(4.0),
            |item, _, ins, outs| {
                let i = item.global_linear();
                outs.at(0)[i] = 2.0 * ins.get(0)[i];
            },
        ));
        let (src, dst) = (BufferId(0), BufferId(1));
        let launch = Launch::new(
            def,
            NdRange::d1(n, 64).unwrap(),
            vec![KernelArg::Buffer(src), KernelArg::Buffer(dst)],
        );
        let mut cpu_mem = Memory::new();
        cpu_mem.install(src, (0..n).map(|i| i as f32).collect::<Vec<f32>>());
        cpu_mem.alloc(dst, n);
        let mut gpu_mem = Memory::new();
        for id in [src, dst] {
            gpu_mem.share_from(&cpu_mem, id).unwrap();
        }
        (launch, cpu_mem, gpu_mem)
    }

    /// A fault-free launch of `launch` at time zero on `machine`, with
    /// every peer joining.
    fn input<'a>(
        machine: &'a MachineConfig,
        config: &'a FluidiclConfig,
        launch: &'a Launch,
        cpu_mem: &'a mut Memory,
        gpu_mem: &'a mut Memory,
        work: &'a mut WorkCounters,
    ) -> CoexecInput<'a> {
        CoexecInput {
            machine,
            config,
            launch,
            kernel_id: 1,
            enqueue_at: SimTime::ZERO,
            gpu_start: SimTime::ZERO,
            cpu_start: SimTime::ZERO,
            hd_free: SimTime::ZERO,
            dh_free: SimTime::ZERO,
            cpu_mem,
            gpu_mem,
            peers: machine
                .peers
                .iter()
                .enumerate()
                .map(|(i, p)| PeerSlot {
                    dev: i as u32 + 1,
                    peer: p.clone(),
                })
                .collect(),
            injector: None,
            dead_cpu: false,
            dead_gpu: false,
            work,
        }
    }

    #[test]
    fn peers_are_seeded_by_sharing_and_release_their_shares() {
        let n = 1 << 14;
        let (src, dst) = (BufferId(0), BufferId(1));
        let (launch, mut cpu_mem, mut gpu_mem) = scale_launch(n);
        let machine = MachineConfig::paper_testbed_3dev();
        let config = FluidiclConfig::default();
        let mut work = WorkCounters::default();
        let input = input(
            &machine,
            &config,
            &launch,
            &mut cpu_mem,
            &mut gpu_mem,
            &mut work,
        );
        let coexec = Coexec::new(input).unwrap();
        assert_eq!(coexec.eps.len(), 2, "one peer endpoint");
        let peer = coexec.eps[1].mem.as_ref().unwrap();
        for id in [src, dst] {
            assert!(
                peer.shares_with(coexec.input.cpu_mem, id),
                "peer seed of {id:?} is a share, not a copy"
            );
        }
        // CPU, GPU, originals and the peer hold one allocation of `dst`.
        assert_eq!(coexec.input.cpu_mem.holders(dst), 4);
        let outcome = coexec.run().unwrap();
        assert!(
            outcome.report.peer_executed_wgs[0] > 0,
            "the peer took work"
        );
        let want: Vec<f32> = (0..n).map(|i| 2.0 * i as f32).collect();
        assert_eq!(cpu_mem.get(dst).unwrap(), want.as_slice());
        assert_eq!(gpu_mem.get(dst).unwrap(), want.as_slice());
        // The read-only input was never copied, the CPU mirrors the merged
        // output by sharing the GPU's allocation, and no endpoint or
        // snapshot of the finished kernel still holds any buffer.
        for id in [src, dst] {
            assert!(cpu_mem.shares_with(&gpu_mem, id));
            assert_eq!(cpu_mem.holders(id), 2);
        }
        // Every work-group the report credits ran exactly once, in one of
        // the three address spaces; the peer's work reached the counters
        // before its address space was released.
        let r = &outcome.report;
        let credited = r.gpu_executed_wgs + r.cpu_executed_wgs + r.peer_executed_wgs[0];
        let total = work + cpu_mem.work() + gpu_mem.work();
        assert_eq!(total.groups_executed, credited);
        assert_eq!(work.groups_executed, r.peer_executed_wgs[0]);
        assert!(work.des_events > 0 && work.merged_bytes > 0);
    }

    #[test]
    fn after_a_promotion_the_cpu_ships_over_the_promoted_cards_link() {
        let (launch, mut cpu_mem, mut gpu_mem) = scale_launch(1 << 14);
        let machine = MachineConfig::paper_testbed_3dev();
        let config = FluidiclConfig::default();
        let mut work = WorkCounters::default();
        let input = input(
            &machine,
            &config,
            &launch,
            &mut cpu_mem,
            &mut gpu_mem,
            &mut work,
        );
        let mut c = Coexec::new(input).unwrap();
        let mut sim = Simulation::starting_at(SimTime::ZERO);
        let t = SimTime::from_nanos(50_000);
        // The peer takes the kernel over; the CPU, a survivor, claims its
        // first subkernel at once.
        c.promote_owner(&mut sim, t, 1).unwrap();
        assert_eq!(c.subkernels[0].dev, 0, "the CPU claimed work");
        c.subkernels[0].done = true;
        c.subkernels[0].dirty_bytes = 4096;
        let sent = SimTime::from_nanos(80_000);
        c.send_batch(&mut sim, sent, vec![0], 1);
        let payload = c.batch_payload(&[0]);
        let price =
            |link: &LinkModel| link.transfer_time(payload) + link.transfer_time(STATUS_MSG_BYTES);
        let peer = &machine.peers[0].h2d;
        assert_ne!(price(peer), price(&machine.h2d));
        assert_eq!(c.eps[0].hd_free, sent + price(peer));
    }

    #[test]
    fn a_promoted_peer_starts_its_walk_after_its_set_up_price() {
        let n = 1 << 14;
        let (launch, mut cpu_mem, mut gpu_mem) = scale_launch(n);
        let machine = MachineConfig::paper_testbed_3dev();
        let config = FluidiclConfig::default();
        let peer = &machine.peers[0];
        // The peer's broadcast of both launch buffers, then two scratch
        // buffers and a copy of the original for the one output, then its
        // launch overhead.
        let bytes = n as u64 * 4;
        let held_at = SimTime::ZERO + peer.h2d.transfer_time(2 * bytes);
        let setup = peer.gpu.buffer_create_time(bytes) * 2
            + peer.gpu.copy_time(bytes)
            + peer.gpu.launch_overhead();
        // Promoted before the broadcast lands, the card waits for it first.
        for t in [SimTime::ZERO, held_at + SimDuration::from_micros(500)] {
            let mut work = WorkCounters::default();
            let input = input(
                &machine,
                &config,
                &launch,
                &mut cpu_mem,
                &mut gpu_mem,
                &mut work,
            );
            let mut c = Coexec::new(input).unwrap();
            let mut sim = Simulation::starting_at(SimTime::ZERO);
            c.promote_owner(&mut sim, t, 1).unwrap();
            let begin = std::iter::from_fn(|| sim.pop())
                .find_map(|(at, ev)| matches!(ev, Ev::GpuBegin).then_some(at));
            assert_eq!(begin, Some(t.max(held_at) + setup), "promoted at {t:?}");
        }
    }

    /// A three-device co-execution of `scale` over 256 work-groups whose
    /// owner walk begins at 1 ms, and whose peer proposes half of the
    /// kernel per claim, four of its minimum chunks.
    fn peer_claim_case(run: impl FnOnce(&mut Coexec)) {
        let (launch, mut cpu_mem, mut gpu_mem) = scale_launch(1 << 14);
        let machine = MachineConfig::paper_testbed_3dev();
        let config = FluidiclConfig::default();
        let mut work = WorkCounters::default();
        let input = input(
            &machine,
            &config,
            &launch,
            &mut cpu_mem,
            &mut gpu_mem,
            &mut work,
        );
        let mut c = Coexec::new(input).unwrap();
        c.owner_begin = SimTime::from_nanos(1_000_000);
        let floor = c.eps[1].model.min_chunk();
        c.eps[1].chunk = ChunkController::new(c.total, 50.0, 2.0, floor, CHUNK_GROWTH_TOLERANCE);
        assert_eq!(c.eps[1].chunk.next_chunk(c.total), 4 * floor);
        run(&mut c);
    }

    /// The owner walk's predicted finish of the whole kernel, and the latest
    /// instant a peer claim of `wgs` work-groups off its top can start and
    /// still deliver by then: its launch, staging copy, data and status.
    fn latest_start(c: &Coexec, wgs: u64) -> SimTime {
        let card = &c.owner.gpu;
        let wave = card.range_time(
            c.gpu_profile(),
            c.items,
            card.wave_width(),
            c.input.config.abort_mode,
        );
        let deadline = c.owner_eta(c.total);
        assert_eq!(
            deadline,
            c.owner_begin + wave * c.total.div_ceil(card.wave_width())
        );
        let ep = &c.eps[1];
        let bytes = c.out_bytes * wgs / c.total;
        let delivery = ep.model.compute_time(c.gpu_profile(), c.items, wgs, false)
            + ep.model.stage_time(bytes)
            + ep.model.ship_time(&c.owner.h2d, bytes)
            + ep.model.ship_time(&c.owner.h2d, STATUS_MSG_BYTES);
        SimTime::from_nanos(deadline.as_nanos() - delivery.as_nanos())
    }

    #[test]
    fn a_peer_takes_its_full_chunk_when_it_lands_before_the_owner() {
        peer_claim_case(|c| {
            let chunk = c.eps[1].chunk.next_chunk(c.total);
            let t = latest_start(c, chunk);
            assert_eq!(c.peer_claim(1, t), chunk);
            assert_eq!(c.peer_claim(1, SimTime::ZERO), chunk);
        });
    }

    #[test]
    fn a_peer_takes_one_minimum_chunk_when_only_that_lands_in_time() {
        peer_claim_case(|c| {
            let chunk = c.eps[1].chunk.next_chunk(c.total);
            let floor = c.eps[1].model.min_chunk();
            let t = latest_start(c, chunk) + SimDuration::from_nanos(1);
            assert_eq!(c.peer_claim(1, t), floor);
            assert_eq!(c.peer_claim(1, latest_start(c, floor)), floor);
        });
    }

    #[test]
    fn the_owner_eta_counts_whole_waves_from_the_current_wave_end() {
        peer_claim_case(|c| {
            let card = &c.owner.gpu;
            let width = card.wave_width();
            let wave = card.range_time(c.gpu_profile(), c.items, width, c.input.config.abort_mode);
            let due = c.owner_begin + SimDuration::from_micros(3);
            c.wave = Some(Wave {
                start: 0,
                end: width,
                started_at: c.owner_begin,
                due_at: due,
                gen: 1,
                token: None,
            });
            assert_eq!(c.owner_eta(width), due);
            assert_eq!(c.owner_eta(width + 1), due + wave);
            assert_eq!(c.owner_eta(3 * width), due + wave * 2);
        });
    }

    #[test]
    fn a_peer_declines_when_nothing_lands_in_time() {
        peer_claim_case(|c| {
            let floor = c.eps[1].model.min_chunk();
            let t = latest_start(c, floor) + SimDuration::from_nanos(1);
            assert_eq!(c.peer_claim(1, t), 0);
            assert_eq!(c.peer_claim(1, SimTime::from_nanos(1 << 40)), 0);
        });
    }
}
