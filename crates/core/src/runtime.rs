//! The FluidiCL runtime: the public, OpenCL-shaped API.
//!
//! `Fluidicl` is the drop-in layer of paper Figure 4: the application calls
//! the usual buffer/kernel functions as if one device existed, and the
//! runtime manages both devices underneath — duplicating buffers and writes
//! (§4.1), co-executing every kernel (§4.2), merging results (§4.3),
//! returning data to the host in a background thread (§4.4, §5.6), and
//! tracking buffer versions and locations across kernels (§5.3, §6.2).
//!
//! Every kernel executes through one placement routine, `place`: a prepared
//! launch on a set of healthy lanes. Two or more lanes co-execute; one lane
//! runs the whole NDRange alone (a degraded run, or a graph node on a peer).

use fluidicl_des::{SimDuration, SimTime};
use fluidicl_hetsim::MachineConfig;
use fluidicl_vcl::exec::Launch;
use fluidicl_vcl::{
    execute_groups_injected, BufferId, ClDriver, ClError, ClResult, DeviceKind, DirtyRanges,
    FaultInjector, KernelArg, Memory, NdRange, Program, WorkCounters,
};

use crate::buffers::{BufferTable, KernelId, PoolStats, ScratchPool};
use crate::coexec::{Coexec, CoexecInput, PeerSlot};
use crate::config::FluidiclConfig;
use crate::graph::{self, GraphNodeSummary, GraphSchedule};
use crate::heft::{self, HeftEdge, WeightTable};
use crate::roster::DeviceRoster;
use crate::stats::{Finisher, KernelReport, LaunchMeta, RuntimeSummary};
use crate::trace::{Lane, TraceEvent, TraceKind};

/// The FluidiCL runtime over a simulated CPU+GPU machine.
///
/// # Examples
///
/// ```
/// use fluidicl::{Fluidicl, FluidiclConfig};
/// use fluidicl_hetsim::{KernelProfile, MachineConfig};
/// use fluidicl_vcl::{ArgRole, ArgSpec, ClDriver, KernelArg, KernelDef, NdRange, Program};
///
/// let mut program = Program::new();
/// program.register(KernelDef::new(
///     "scale",
///     vec![
///         ArgSpec::new("src", ArgRole::In),
///         ArgSpec::new("dst", ArgRole::Out),
///     ],
///     KernelProfile::new("scale").flops_per_item(1.0).bytes_read_per_item(4.0),
///     |item, _, ins, outs| {
///         let i = item.global_linear();
///         outs.at(0)[i] = 2.0 * ins.get(0)[i];
///     },
/// ));
/// let mut rt = Fluidicl::new(
///     MachineConfig::paper_testbed(),
///     FluidiclConfig::default(),
///     program,
/// );
/// let src = rt.create_buffer(1024);
/// let dst = rt.create_buffer(1024);
/// rt.write_buffer_owned(src, vec![1.0; 1024])?;
/// rt.enqueue_kernel(
///     "scale",
///     NdRange::d1(1024, 64)?,
///     &[KernelArg::Buffer(src), KernelArg::Buffer(dst)],
/// )?;
/// assert_eq!(rt.read_buffer(dst)?, vec![2.0; 1024]);
/// # Ok::<(), fluidicl_vcl::ClError>(())
/// ```
#[derive(Debug)]
pub struct Fluidicl {
    machine: MachineConfig,
    config: FluidiclConfig,
    program: Program,
    cpu_mem: Memory,
    gpu_mem: Memory,
    buffers: BufferTable,
    pool: ScratchPool,
    host_clock: SimTime,
    gpu_free: SimTime,
    hd_free: SimTime,
    dh_free: SimTime,
    next_kernel_id: KernelId,
    reports: Vec<KernelReport>,
    /// Fault oracle derived from `config.faults`; `None` disables injection
    /// and every watchdog.
    injector: Option<FaultInjector>,
    /// Health of every device across kernels. Later kernels re-form
    /// co-execution on whatever the roster reports healthy and degrade to a
    /// single device only when one remains.
    roster: DeviceRoster,
    /// Kernel version online profiling last settled on; degraded runs keep
    /// reporting it (selection survives a device loss).
    last_cpu_version: usize,
    /// Unrecoverable device loss: every later enqueue returns a clone of it
    /// instead of touching dead hardware.
    fatal: Option<ClError>,
    /// Launches deferred by kernel-graph scheduling, awaiting a flush.
    pending: Vec<PreparedLaunch>,
    /// Online-profiled per-(kernel, lane) node weights for HEFT lookahead,
    /// carried across flushes.
    weights: WeightTable,
    /// One record per flushed kernel graph, for inspection and the check
    /// tooling.
    graph_schedules: Vec<GraphSchedule>,
    /// Host work done outside the CPU and GPU address spaces (which count
    /// their own): merges, host copies, simulated events, and the work of
    /// the peers' transient address spaces.
    work: WorkCounters,
}

/// A launch validated at enqueue time: signature, scalars and buffer
/// handles are checked once, eager or deferred, and the launch keeps its
/// cached argument classification until it runs.
#[derive(Debug)]
struct PreparedLaunch {
    kernel: String,
    launch: Launch,
    /// Every buffer the launch touches: its inputs, then its outputs.
    buffers: Vec<BufferId>,
    /// Buffers the launch writes (`Out` and `InOut`).
    out_ids: Vec<BufferId>,
}

/// The healthy devices one placement may use.
#[derive(Debug)]
struct Lanes {
    cpu: bool,
    gpu: bool,
    peers: Vec<PeerSlot>,
}

impl Fluidicl {
    /// Creates a runtime on `machine` with `config` and a compiled
    /// `program` (kernels are built for both devices, paper §4.1).
    pub fn new(machine: MachineConfig, config: FluidiclConfig, program: Program) -> Self {
        let pool = ScratchPool::new(config.buffer_pool);
        let injector = config.faults.map(FaultInjector::new);
        Fluidicl {
            machine,
            config,
            program,
            cpu_mem: Memory::new(),
            gpu_mem: Memory::new(),
            buffers: BufferTable::new(),
            pool,
            host_clock: SimTime::ZERO,
            gpu_free: SimTime::ZERO,
            hd_free: SimTime::ZERO,
            dh_free: SimTime::ZERO,
            next_kernel_id: 1,
            reports: Vec::new(),
            injector,
            roster: DeviceRoster::new(),
            last_cpu_version: 0,
            fatal: None,
            pending: Vec::new(),
            weights: WeightTable::new(),
            graph_schedules: Vec::new(),
            work: WorkCounters::default(),
        }
    }

    /// The runtime configuration.
    pub fn config(&self) -> &FluidiclConfig {
        &self.config
    }

    /// Per-kernel execution reports, in launch order.
    pub fn reports(&self) -> &[KernelReport] {
        &self.reports
    }

    /// Aggregate statistics.
    pub fn summary(&self) -> RuntimeSummary {
        RuntimeSummary::from_reports(&self.reports)
    }

    /// Schedules recorded by kernel-graph flushes, in flush order (empty
    /// unless [`FluidiclConfig::with_graph_scheduling`] is on).
    pub fn graph_schedules(&self) -> &[GraphSchedule] {
        &self.graph_schedules
    }

    /// The host work this runtime has done so far, in exact counts: work
    /// groups executed and body calls on every device, bytes diff-merged and
    /// copied, and events delivered by every co-execution's simulation.
    /// Deterministic, so equal on every machine and build profile.
    pub fn work_counters(&self) -> WorkCounters {
        self.work + self.cpu_mem.work() + self.gpu_mem.work()
    }

    /// Scratch-buffer pool statistics (paper §6.1).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// The CPU and GPU address spaces, read-only: how buffer storage is
    /// shared between them can be inspected with [`Memory::shares_with`]
    /// and [`Memory::holders`].
    pub fn address_spaces(&self) -> (&Memory, &Memory) {
        (&self.cpu_mem, &self.gpu_mem)
    }

    /// Number of scratch buffers currently sitting free in the pool.
    pub fn scratch_free_count(&self) -> usize {
        self.pool.free_count()
    }

    /// Whether the configured fault plan has fired yet.
    pub fn fault_fired(&self) -> bool {
        self.injector.as_ref().is_some_and(FaultInjector::fired)
    }

    /// Health of every device in the machine, tracked across kernels.
    /// Later kernels co-execute on the healthy survivors when at least two
    /// remain, and run alone on the last one.
    pub fn roster(&self) -> &DeviceRoster {
        &self.roster
    }

    /// Peer GPUs that can join a launch: every peer the machine declares,
    /// minus peers lost in earlier kernels. Dev indices are stable (peer
    /// slot + 1), so traces and reports name the same card across kernels
    /// even after losses.
    fn healthy_peers(&self) -> Vec<PeerSlot> {
        self.machine
            .peers
            .iter()
            .enumerate()
            .map(|(i, p)| PeerSlot {
                dev: i as u32 + 1,
                peer: p.clone(),
            })
            .filter(|s| !self.roster.peer_dead(s.dev))
            .collect()
    }

    fn scratch_setup_cost(&mut self, out_ids: &[BufferId]) -> SimDuration {
        let mut cost = SimDuration::ZERO;
        for id in out_ids {
            let state = self.buffers.state(*id);
            let len = state.len;
            let bytes = state.bytes();
            let snapshot_current = state.orig_snapshot_current;
            // Under dirty-range transfers a stale snapshot only re-copies
            // the ranges the GPU copy changed since the last refresh.
            let refresh_bytes = if self.config.dirty_range_transfers {
                state.snapshot_refresh_bytes()
            } else {
                bytes
            };
            // Two scratch buffers per modified buffer: the CPU-data landing
            // area and the pristine original (paper §4.1).
            for _ in 0..2 {
                if !self.pool.acquire(len) {
                    cost += self.machine.gpu.buffer_create_time(bytes);
                }
            }
            // Snapshot the original on the GPU unless the previous kernel's
            // end-of-kernel copy already did (paper §5.5).
            if !snapshot_current {
                let copy_ns = 2.0 * refresh_bytes as f64 / self.machine.gpu.peak_mem_bytes_per_ns();
                cost += SimDuration::from_nanos(copy_ns as u64);
            }
        }
        cost
    }

    fn release_scratch(&mut self, out_ids: &[BufferId]) {
        for id in out_ids {
            let len = self.buffers.state(*id).len;
            self.pool.release(len);
            self.pool.release(len);
        }
    }

    /// Re-establishes cross-device coherence on the output buffers of a
    /// kernel that failed mid-flight: the two copies have diverged (partial
    /// CPU subkernels vs partial GPU waves, no merge), which would poison
    /// the *next* kernel's diff-merge. The GPU copy is taken as the
    /// authority — exactly what its "original" scratch snapshot would hold
    /// — and the CPU address space shares it.
    fn restore_coherence(&mut self, out_ids: &[BufferId]) {
        for id in out_ids {
            // Both memories allocated this id at create_buffer; a missing
            // entry here means the failure happened before any divergence.
            let _ = self.cpu_mem.share_from(&self.gpu_mem, *id);
        }
    }

    /// Bytes of every distinct buffer in `bufs`: what a peer starting from
    /// a clean slate receives before it can run the launch.
    fn broadcast_bytes(&self, bufs: &[BufferId]) -> u64 {
        let mut ids = bufs.to_vec();
        ids.sort_unstable_by_key(|id| id.0);
        ids.dedup();
        ids.iter().map(|id| self.buffers.state(*id).bytes()).sum()
    }

    /// Runs the per-report protocol gate ([`FluidiclConfig::validate_protocol`])
    /// and converts the first error-severity finding into a typed
    /// [`ClError::ProtocolViolation`].
    fn gate_report(&self, kernel: &str, report: &KernelReport) -> ClResult<()> {
        if self.config.validate_protocol {
            let diags = crate::lint::lint_report(report);
            if let Some(first) = diags
                .iter()
                .find(|d| d.severity == crate::lint::LintSeverity::Error)
            {
                return Err(ClError::ProtocolViolation {
                    kernel: kernel.to_string(),
                    detail: format!("{first} ({} finding(s) total)", diags.len()),
                });
            }
        }
        Ok(())
    }

    /// Validates a launch against the program and the buffer table. Eager
    /// and deferred enqueues both come through here, so a malformed launch
    /// fails with the same typed error at enqueue time either way, and
    /// every later table access may index infallibly.
    fn prepare(
        &self,
        kernel: &str,
        ndrange: NdRange,
        args: &[KernelArg],
    ) -> ClResult<PreparedLaunch> {
        let launch = Launch::new(self.program.kernel(kernel)?, ndrange, args.to_vec());
        let mut buffers = launch.input_buffers()?;
        let out_ids = launch.output_buffers()?;
        buffers.extend(out_ids.iter().copied());
        for id in &buffers {
            self.buffers.try_state(*id)?;
        }
        Ok(PreparedLaunch {
            kernel: kernel.to_string(),
            launch,
            buffers,
            out_ids,
        })
    }

    /// What running `p` alone on `lane` costs, as `(lead_in, run)`: the
    /// lead-in precedes the solo span (a GPU's launch overhead; a peer
    /// first receives a host-to-device broadcast of every launch buffer,
    /// since it starts from a clean slate), and the run is the span itself.
    fn solo_cost(&self, p: &PreparedLaunch, lane: Lane) -> (SimDuration, SimDuration) {
        let total = p.launch.ndrange.num_groups();
        let items = p.launch.ndrange.items_per_group();
        let profile = &p.launch.kernel.default_version().profile;
        let abort = self.config.abort_mode;
        match lane {
            Lane::Cpu => (
                SimDuration::ZERO,
                self.machine
                    .cpu
                    .subkernel_time(profile, items, total, self.config.wg_split),
            ),
            Lane::Gpu => (
                self.machine.gpu.launch_overhead(),
                self.machine.gpu.range_time(profile, items, total, abort),
            ),
            Lane::Peer(dev) => {
                let peer = &self.machine.peers[dev as usize - 1];
                let broadcast = peer.h2d.transfer_time(self.broadcast_bytes(&p.buffers));
                (
                    broadcast + peer.gpu.launch_overhead(),
                    peer.gpu.range_time(profile, items, total, abort),
                )
            }
        }
    }

    /// Runs one prepared launch on `lanes`, no earlier than `ready`, and
    /// reports it as enqueued at `enqueued_at` — the one routine every
    /// kernel executes through. No lane is a stable typed error, one lane
    /// runs the whole NDRange alone, and two or more co-execute under the
    /// fluidic protocol. `node` names the graph node a flush is placing.
    /// The launch takes the next kernel id. Returns when the placement
    /// started and when the kernel completed.
    fn place(
        &mut self,
        p: &PreparedLaunch,
        node: Option<usize>,
        lanes: Lanes,
        ready: SimTime,
        enqueued_at: SimTime,
    ) -> ClResult<(SimTime, SimTime)> {
        let kid = self.next_kernel_id;
        self.next_kernel_id += 1;
        for id in &p.out_ids {
            self.buffers.begin_kernel_write(*id, kid);
        }
        let times = (ready, enqueued_at);
        let placed = match (lanes.cpu, lanes.gpu, lanes.peers.as_slice()) {
            (false, false, []) => Err(ClError::DeviceLost {
                device: DeviceKind::Gpu,
                detail: "no healthy device remains to execute the kernel".into(),
            }),
            (true, false, []) => self.place_solo(p, kid, node, Lane::Cpu, times),
            (false, true, []) => self.place_solo(p, kid, node, Lane::Gpu, times),
            (false, false, [slot]) => self.place_solo(p, kid, node, Lane::Peer(slot.dev), times),
            _ => self.place_coexec(p, kid, lanes, times),
        };
        if let Err(e @ ClError::DeviceLost { .. }) = &placed {
            // Unrecoverable: every later enqueue replays the loss instead
            // of touching dead hardware.
            self.fatal = Some(e.clone());
        }
        placed
    }

    /// Runs a launch alone on `lane` over its whole NDRange: no subkernels,
    /// no transfers — the protocol reduces to plain single-device OpenCL.
    /// A peer computes into the authoritative host copy (host memory
    /// outlives its compute device), which the primary GPU's address space
    /// mirrors while that card is healthy; its arrival there is charged one
    /// primary-link transfer that rides the link without occupying it, like
    /// host writes' DMA. The fault plan's device kills target the primary
    /// CPU/GPU pair, so a peer's run is not subject to injection.
    fn place_solo(
        &mut self,
        p: &PreparedLaunch,
        kid: KernelId,
        node: Option<usize>,
        lane: Lane,
        (ready, enqueued_at): (SimTime, SimTime),
    ) -> ClResult<(SimTime, SimTime)> {
        let total = p.launch.ndrange.num_groups();
        let mirror = matches!(lane, Lane::Peer(_)) && self.roster.gpu_healthy();
        // The GPU reads its own copy, everyone else the host copy. `gpu_free`
        // is the timeline of the primary GPU, or of the peer standing in for
        // it once it is lost.
        let on_gpu_timeline = lane != Lane::Cpu && !mirror;
        let data_ready = match lane {
            Lane::Gpu => self.buffers.gpu_ready_time(&p.buffers).max(self.gpu_free),
            _ if on_gpu_timeline => self.buffers.cpu_ready_time(&p.buffers).max(self.gpu_free),
            Lane::Cpu | Lane::Peer(_) => self.buffers.cpu_ready_time(&p.buffers),
        };
        let (lead_in, run) = self.solo_cost(p, lane);
        let start = data_ready.max(ready) + lead_in;
        let complete_at = start + run;
        let (mem, injector, device) = match lane {
            Lane::Cpu => (&mut self.cpu_mem, self.injector.as_ref(), DeviceKind::Cpu),
            Lane::Gpu => (&mut self.gpu_mem, self.injector.as_ref(), DeviceKind::Gpu),
            Lane::Peer(_) => (&mut self.cpu_mem, None, DeviceKind::Gpu),
        };
        execute_groups_injected(&p.launch, mem, 0, total, injector, device)?;
        if mirror {
            for id in &p.out_ids {
                self.gpu_mem.share_from(&self.cpu_mem, *id)?;
            }
        }
        let (gpu_executed_wgs, cpu_executed_wgs, peer_executed_wgs, finished_by) = match lane {
            Lane::Cpu => (0, total, Vec::new(), Finisher::Cpu),
            Lane::Gpu => (total, 0, Vec::new(), Finisher::Gpu),
            Lane::Peer(_) => (0, 0, vec![total], Finisher::Gpu),
        };
        let span = TraceKind::SoloRun {
            lane,
            node: node.map(|n| n as u32),
            from: 0,
            to: total,
        };
        let event = |at, kind| TraceEvent { at, kind };
        // A solo run has no overlap to pipeline, so its trace always reads
        // as the serial protocol.
        let enqueued = TraceKind::Enqueued {
            total_wgs: total,
            pipelined: false,
        };
        let report = KernelReport {
            kernel: p.kernel.clone(),
            kernel_id: kid,
            enqueued_at,
            complete_at,
            total_wgs: total,
            gpu_executed_wgs,
            cpu_executed_wgs,
            cpu_merged_wgs: 0,
            subkernels: 0,
            subkernel_log: Vec::new(),
            hd_bytes: 0,
            dh_bytes: 0,
            // A solo run still reports the version online profiling
            // settled on earlier — selection is runtime state, not
            // per-kernel state, so the report must not reset it to 0.
            cpu_version_used: self.last_cpu_version,
            peer_executed_wgs,
            finished_by,
            duration: complete_at.saturating_since(enqueued_at),
            trace: vec![
                event(enqueued_at, enqueued),
                event(start, span),
                event(
                    complete_at,
                    TraceKind::KernelComplete {
                        finisher: finished_by,
                    },
                ),
            ],
            launch_meta: Some(LaunchMeta {
                ndrange: p.launch.ndrange,
                scalars: p.launch.plan()?.scalars.clone(),
                out_lens: p
                    .out_ids
                    .iter()
                    .map(|id| self.buffers.state(*id).len)
                    .collect(),
            }),
        };
        self.gate_report(&p.kernel, &report)?;
        for id in &p.out_ids {
            if lane == Lane::Gpu {
                self.buffers.record_gpu_arrival(*id, kid, complete_at);
            } else {
                self.buffers.record_cpu_arrival(*id, kid, complete_at);
            }
            if mirror {
                let bytes = self.buffers.state(*id).bytes();
                let at = complete_at + self.machine.h2d.transfer_time(bytes);
                self.buffers.record_gpu_arrival(*id, kid, at);
            }
        }
        if on_gpu_timeline {
            self.gpu_free = complete_at;
        }
        self.reports.push(report);
        Ok((start, complete_at))
    }

    /// Co-executes a launch on two or more lanes under the fluidic
    /// protocol. The primary GPU owns the launch while it is healthy;
    /// otherwise the first peer takes the owner slot of a synthetic
    /// machine (owner re-formation) and the remaining peers keep their
    /// endpoint indices. Without the CPU its endpoint starts dead.
    fn place_coexec(
        &mut self,
        p: &PreparedLaunch,
        kid: KernelId,
        lanes: Lanes,
        (ready, enqueued_at): (SimTime, SimTime),
    ) -> ClResult<(SimTime, SimTime)> {
        // Each side waits for its copy of the launch buffers to be current
        // (paper §5.3); `begin_kernel_write` leaves the ready times alone.
        let cpu_start = self.buffers.cpu_ready_time(&p.buffers).max(ready);
        let mut gpu_start = self
            .buffers
            .gpu_ready_time(&p.buffers)
            .max(ready)
            .max(self.gpu_free);
        let scratch_setup = self.scratch_setup_cost(&p.out_ids);
        let mut peers = lanes.peers;
        let acting = (!lanes.gpu).then(|| peers.remove(0));
        let mut reformed_machine: Option<MachineConfig> = None;
        if let Some(acting) = &acting {
            // The acting owner starts each kernel from a clean slate, so its
            // launch buffers are re-broadcast from the host copy —
            // functionally, the device copy is refreshed *before* the
            // engine snapshots originals from it.
            for id in &p.buffers {
                self.gpu_mem.share_from(&self.cpu_mem, *id)?;
            }
            let bytes = self.broadcast_bytes(&p.buffers);
            gpu_start = gpu_start.max(cpu_start) + acting.peer.h2d.transfer_time(bytes);
            reformed_machine = Some(MachineConfig {
                cpu: self.machine.cpu.clone(),
                gpu: acting.peer.gpu.clone(),
                h2d: acting.peer.h2d.clone(),
                d2h: acting.peer.d2h.clone(),
                host: self.machine.host.clone(),
                peers: Vec::new(),
            });
        }
        let input = CoexecInput {
            machine: reformed_machine.as_ref().unwrap_or(&self.machine),
            config: &self.config,
            launch: &p.launch,
            kernel_id: kid,
            enqueue_at: enqueued_at,
            gpu_start,
            cpu_start,
            scratch_setup,
            hd_free: self.hd_free,
            dh_free: self.dh_free,
            cpu_mem: &mut self.cpu_mem,
            gpu_mem: &mut self.gpu_mem,
            peers,
            injector: self.injector.as_mut(),
            dead_cpu: !lanes.cpu,
            work: &mut self.work,
        };
        let outcome = match Coexec::new(input).and_then(Coexec::run) {
            Ok(outcome) => outcome,
            Err(e) => {
                // The launch is abandoned: return the scratch buffers the
                // setup acquired and re-align the two address spaces so a
                // later kernel's diff-merge cannot fold stale divergence.
                self.release_scratch(&p.out_ids);
                self.restore_coherence(&p.out_ids);
                return Err(e);
            }
        };
        if let Err(e) = self.gate_report(&p.kernel, &outcome.report) {
            self.release_scratch(&p.out_ids);
            return Err(e);
        }
        self.gpu_free = outcome.gpu_busy_until;
        self.hd_free = outcome.hd_free;
        self.dh_free = outcome.dh_free;
        // On a re-formed run the primary card stays dead and its buffer
        // tracking stays frozen — the next launch re-broadcasts anyway.
        let record_gpu = acting.is_none() && !outcome.lost_gpu;
        for id in &p.out_ids {
            self.buffers
                .record_cpu_arrival(*id, kid, outcome.cpu_results_at);
            if record_gpu {
                self.buffers
                    .record_gpu_arrival(*id, kid, outcome.gpu_results_at);
                // The end-of-kernel copy refreshed the original snapshot
                // (paper §5.5).
                self.buffers.state_mut(*id).orig_snapshot_current = true;
                if self.config.dirty_range_transfers {
                    // The epilogue just refreshed the snapshot and the
                    // return path (D2H thread or CPU finish, §4.4) brought
                    // the host copy current, so both dirty sets collapse to
                    // empty.
                    self.buffers.record_kernel_dirty(
                        *id,
                        DirtyRanges::empty(),
                        DirtyRanges::empty(),
                    );
                }
            }
        }
        self.release_scratch(&p.out_ids);
        if outcome.lost_cpu {
            self.roster.lose_cpu();
        }
        if outcome.lost_gpu {
            // In a re-formed run the engine's "gpu" is the acting peer: its
            // loss costs that peer, not the (already dead) primary card.
            match &acting {
                Some(a) => self.roster.lose_peer(a.dev),
                None => self.roster.lose_gpu(),
            }
        }
        for dev in outcome.lost_peers {
            self.roster.lose_peer(dev);
        }
        self.last_cpu_version = outcome.report.cpu_version_used;
        let complete = outcome.complete_at;
        self.reports.push(outcome.report);
        Ok((ready, complete))
    }

    /// Executes every deferred launch according to a HEFT placement over
    /// the kernel dependence graph, then clears the pending queue.
    ///
    /// Called automatically before any buffer read or write; applications
    /// may also call it directly as an explicit synchronization point.
    /// Reports, kernel times and the clock only reflect deferred launches
    /// once a flush has run, so query statistics after the flush (or after
    /// the buffer read that forced it).
    ///
    /// # Errors
    ///
    /// Propagates execution and protocol-gate errors from the flushed
    /// nodes; nodes already executed when the error surfaces stay
    /// executed, and the remaining pending launches are dropped.
    pub fn flush_graph(&mut self) -> ClResult<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let pending = std::mem::take(&mut self.pending);
        let n = pending.len();
        // Footprints and dependence edges over the deferred launches.
        let buffers = &self.buffers;
        let accesses = pending
            .iter()
            .map(|p| graph::node_access(&p.launch, |id| buffers.state(id).len))
            .collect::<ClResult<Vec<_>>>()?;
        let edges = graph::build_edges(&accesses);
        // Execution lanes: lane 0 is the owner co-execution path, lane
        // p >= 1 is a healthy peer GPU running nodes alone.
        let peers = self.healthy_peers();
        // HEFT node weights: the profiled EWMA estimate when the (kernel,
        // lane) pair has run before, a device-model seed otherwise (the
        // paper's offline profiling trials, §6.6). A peer's seed is what
        // placing the node there alone costs.
        let weights: Vec<Vec<u64>> = pending
            .iter()
            .map(|p| {
                // The owner lane is seeded with the primary GPU's range alone.
                let (_, owner_run) = self.solo_cost(p, Lane::Gpu);
                let owner_seed = owner_run.as_nanos();
                let mut row = vec![self.weights.estimate_ns(&p.kernel, 0, owner_seed)];
                for (l, slot) in peers.iter().enumerate() {
                    let (lead_in, run) = self.solo_cost(p, Lane::Peer(slot.dev));
                    let seed = (lead_in + run).as_nanos();
                    row.push(self.weights.estimate_ns(&p.kernel, l + 1, seed));
                }
                row
            })
            .collect();
        // Edge weights: only a true dependence moves data across lanes;
        // anti/output edges order execution but transfer nothing.
        let heft_edges: Vec<HeftEdge> = edges
            .iter()
            .map(|e| HeftEdge {
                from: e.from,
                to: e.to,
                cost_ns: if e.kind == graph::DepKind::True {
                    self.machine.h2d.transfer_time(e.overlap_bytes).as_nanos()
                } else {
                    0
                },
            })
            .collect();
        let plan = heft::plan(&weights, &heft_edges);
        // Execute in rank order. Every edge kind serializes its endpoints
        // (conservative: anti/output deps wait for full completion too), so
        // memory effects match the serial enqueue order exactly.
        let flush_at = self.host_clock;
        let mut node_start = vec![SimTime::ZERO; n];
        let mut node_complete = vec![SimTime::ZERO; n];
        let mut node_kid = vec![0u64; n];
        let mut lane_free = vec![flush_at; 1 + peers.len()];
        for &node in &plan.order {
            let p = &pending[node];
            let dep_ready = edges
                .iter()
                .filter(|e| e.to == node)
                .map(|e| node_complete[e.from])
                .fold(flush_at, SimTime::max);
            let lane = plan.lane[node];
            let ready = dep_ready.max(lane_free[lane]);
            // Sibling nodes occupy the peers, so the owner lane
            // co-executes on the CPU and the primary GPU alone.
            let lanes = Lanes {
                cpu: lane == 0,
                gpu: lane == 0,
                peers: if lane == 0 {
                    Vec::new()
                } else {
                    vec![peers[lane - 1].clone()]
                },
            };
            node_kid[node] = self.next_kernel_id;
            let (start, complete) = self.place(p, Some(node), lanes, ready, flush_at)?;
            lane_free[lane] = complete;
            node_start[node] = start;
            node_complete[node] = complete;
            self.weights
                .observe_ns(&p.kernel, lane, complete.saturating_since(start).as_nanos());
        }
        self.host_clock = node_complete.iter().copied().fold(flush_at, SimTime::max);
        let nodes = (0..n)
            .map(|i| GraphNodeSummary {
                node: i,
                kernel: pending[i].kernel.clone(),
                kernel_id: node_kid[i],
                lane: plan.lane[i],
                start_at: node_start[i],
                complete_at: node_complete[i],
                reads: accesses[i].reads.clone(),
                writes: accesses[i].writes.clone(),
            })
            .collect();
        self.graph_schedules.push(GraphSchedule { nodes, edges });
        Ok(())
    }
}

impl ClDriver for Fluidicl {
    fn create_buffer(&mut self, len: usize) -> BufferId {
        // clCreateBuffer allocates on both devices (paper §4.1); the GPU
        // allocation dominates the cost.
        let t = self.machine.gpu.buffer_create_time(len as u64 * 4);
        self.host_clock += t;
        let id = self.buffers.register(len, self.host_clock);
        self.cpu_mem.alloc(id, len);
        self.gpu_mem
            .share_from(&self.cpu_mem, id)
            .expect("allocated just above");
        id
    }

    fn write_buffer(&mut self, id: BufferId, data: &[f32]) -> ClResult<()> {
        self.work.copied_bytes += data.len() as u64 * 4;
        self.write_buffer_owned(id, data.to_vec())
    }

    fn write_buffer_owned(&mut self, id: BufferId, data: Vec<f32>) -> ClResult<()> {
        // A host write is a synchronization point for the kernel graph:
        // deferred launches that touch this buffer must run first.
        self.flush_graph()?;
        // Functionally the application's allocation becomes the one host
        // copy serving both address spaces: the CPU memory takes it and the
        // GPU memory shares it until either side writes the buffer.
        let bytes = data.len() as u64 * 4;
        self.cpu_mem.replace(id, data)?;
        self.gpu_mem.share_from(&self.cpu_mem, id)?;
        // One clEnqueueWriteBuffer becomes two: a host-side copy for the CPU
        // device and an h2d transfer for the GPU (paper §4.1). The h2d is
        // DMA on the in-order hd queue; the host only performs the copy,
        // and whoever needs the GPU copy waits for its arrival (§5.5).
        // After a permanent GPU loss nothing crosses the link any more.
        let cpu_at = self.host_clock + self.machine.host.copy_time(bytes);
        let gpu_at = if !self.roster.gpu_healthy() {
            // A re-formed acting owner re-broadcasts its launch buffers per
            // kernel, so host writes stop paying the primary link here.
            cpu_at
        } else {
            let at = self.hd_free.max(self.host_clock) + self.machine.h2d.transfer_time(bytes);
            self.hd_free = at;
            at
        };
        self.buffers.record_host_write(id, cpu_at, gpu_at);
        self.host_clock = cpu_at;
        Ok(())
    }

    fn enqueue_kernel(
        &mut self,
        kernel: &str,
        ndrange: NdRange,
        args: &[KernelArg],
    ) -> ClResult<()> {
        if let Some(fatal) = &self.fatal {
            // The runtime lost a device it could not recover from. The
            // original failure is replayed so the application sees a stable
            // error.
            return Err(fatal.clone());
        }
        let prepared = self.prepare(kernel, ndrange, args)?;
        // Kernel-graph scheduling: defer into the DAG instead of executing
        // now. Fault plans keep the eager path — the watchdog/failover
        // protocol is defined over immediate execution order.
        if self.config.graph_scheduling && self.injector.is_none() {
            self.pending.push(prepared);
            return Ok(());
        }
        // An eager launch is the next node of a chain: ready when the host
        // issues it, placed on every healthy lane. With both the CPU and the
        // primary GPU lost no owner pair remains: the first peer runs alone.
        let mut lanes = Lanes {
            cpu: self.roster.cpu_healthy(),
            gpu: self.roster.gpu_healthy(),
            peers: self.healthy_peers(),
        };
        if !lanes.cpu && !lanes.gpu {
            lanes.peers.truncate(1);
        }
        let now = self.host_clock;
        let (_, complete) = self.place(&prepared, None, lanes, now, now)?;
        self.host_clock = complete;
        Ok(())
    }

    fn read_buffer(&mut self, id: BufferId) -> ClResult<Vec<f32>> {
        // Reading a buffer forces any deferred kernel graph to execute.
        self.flush_graph()?;
        // Borrows only the buffer table, so the clocks below stay writable.
        let state = self.buffers.try_state(id)?;
        // After a device loss the surviving copy is the only valid one,
        // regardless of what location tracking would prefer. With the
        // primary GPU dead the host copy is authoritative even if the CPU
        // device also died — host memory outlives its compute device, and
        // re-formed runs and solo peer runs leave their results in it.
        let use_cpu_copy = if !self.roster.gpu_healthy() {
            true
        } else if !self.roster.cpu_healthy() {
            false
        } else {
            self.config.location_tracking && !state.cpu_is_stale()
        };
        if use_cpu_copy {
            // Data-location tracking (paper §6.2): the device-to-host thread
            // (or a CPU-finished kernel) already placed the data on the CPU;
            // wait for it and hand it out without touching the link.
            let data = self.cpu_mem.get(id)?.to_vec();
            let bytes = data.len() as u64 * 4;
            self.work.copied_bytes += bytes;
            self.host_clock =
                self.host_clock.max(state.cpu_ready_at) + self.machine.host.copy_time(bytes);
            Ok(data)
        } else {
            let data = self.gpu_mem.get(id)?.to_vec();
            self.work.copied_bytes += data.len() as u64 * 4;
            // Under dirty-range transfers only the ranges where the host
            // copy is stale cross the link; the rest is already resident.
            let bytes = if self.config.dirty_range_transfers {
                state.read_back_bytes()
            } else {
                data.len() as u64 * 4
            };
            let start = self.host_clock.max(state.gpu_ready_at).max(self.dh_free);
            let arrival = start + self.machine.d2h.transfer_time(bytes);
            self.dh_free = arrival;
            self.host_clock = arrival;
            Ok(data)
        }
    }

    fn elapsed(&self) -> SimDuration {
        self.host_clock.saturating_since(SimTime::ZERO)
    }

    fn kernel_times(&self) -> Vec<(String, SimDuration)> {
        self.reports
            .iter()
            .map(|r| (r.kernel.clone(), r.duration))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluidicl_hetsim::KernelProfile;
    use fluidicl_vcl::{ArgRole, ArgSpec, KernelDef};

    fn scale_program() -> Program {
        let mut p = Program::new();
        p.register(KernelDef::new(
            "scale",
            vec![
                ArgSpec::new("src", ArgRole::In),
                ArgSpec::new("dst", ArgRole::Out),
                ArgSpec::new("f", ArgRole::Scalar),
            ],
            KernelProfile::new("scale")
                .flops_per_item(4.0)
                .bytes_read_per_item(4.0)
                .bytes_written_per_item(4.0),
            |item, scalars, ins, outs| {
                let i = item.global_linear();
                outs.at(0)[i] = scalars.f32(0) * ins.get(0)[i];
            },
        ));
        p
    }

    fn runtime() -> Fluidicl {
        Fluidicl::new(
            MachineConfig::paper_testbed(),
            FluidiclConfig::default(),
            scale_program(),
        )
    }

    #[test]
    fn single_kernel_end_to_end() {
        let mut rt = runtime();
        let n = 4096;
        let src = rt.create_buffer(n);
        let dst = rt.create_buffer(n);
        let input: Vec<f32> = (0..n).map(|i| i as f32).collect();
        rt.write_buffer(src, &input).unwrap();
        rt.enqueue_kernel(
            "scale",
            NdRange::d1(n, 64).unwrap(),
            &[
                KernelArg::Buffer(src),
                KernelArg::Buffer(dst),
                KernelArg::F32(3.0),
            ],
        )
        .unwrap();
        let out = rt.read_buffer(dst).unwrap();
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, 3.0 * i as f32);
        }
        assert!(!rt.elapsed().is_zero());
        assert_eq!(rt.reports().len(), 1);
        let r = &rt.reports()[0];
        assert_eq!(r.total_wgs, 64);
        assert!(r.gpu_executed_wgs + r.cpu_executed_wgs >= r.total_wgs);
    }

    #[test]
    fn chained_kernels_stay_coherent() {
        let mut rt = runtime();
        let n = 2048;
        let a = rt.create_buffer(n);
        let b = rt.create_buffer(n);
        rt.write_buffer(a, &vec![1.0; n]).unwrap();
        // a -> b (x2), b -> a (x2): a should end at 4.0.
        rt.enqueue_kernel(
            "scale",
            NdRange::d1(n, 64).unwrap(),
            &[
                KernelArg::Buffer(a),
                KernelArg::Buffer(b),
                KernelArg::F32(2.0),
            ],
        )
        .unwrap();
        rt.enqueue_kernel(
            "scale",
            NdRange::d1(n, 64).unwrap(),
            &[
                KernelArg::Buffer(b),
                KernelArg::Buffer(a),
                KernelArg::F32(2.0),
            ],
        )
        .unwrap();
        assert_eq!(rt.read_buffer(a).unwrap(), vec![4.0; n]);
        assert_eq!(rt.reports().len(), 2);
        // Kernel ids are assigned monotonically.
        assert!(rt.reports()[0].kernel_id < rt.reports()[1].kernel_id);
    }

    #[test]
    fn reports_and_summary_are_consistent() {
        let mut rt = runtime();
        let n = 1024;
        let a = rt.create_buffer(n);
        let b = rt.create_buffer(n);
        rt.write_buffer(a, &vec![1.0; n]).unwrap();
        rt.enqueue_kernel(
            "scale",
            NdRange::d1(n, 32).unwrap(),
            &[
                KernelArg::Buffer(a),
                KernelArg::Buffer(b),
                KernelArg::F32(1.5),
            ],
        )
        .unwrap();
        let summary = rt.summary();
        assert_eq!(summary.kernels, 1);
        assert_eq!(summary.total_wgs, 32);
        let times = rt.kernel_times();
        assert_eq!(times.len(), 1);
        assert_eq!(times[0].0, "scale");
    }

    #[test]
    fn location_tracking_skips_dh_transfer_on_reads() {
        let run = |tracking: bool| {
            // Whole-buffer transfers: the untracked read pays a full
            // device-to-host transfer, so the CPU-copy path must win. (With
            // dirty-range transfers the untracked read ships only stale
            // ranges, which can legitimately undercut a full-buffer host
            // memcpy — the tracked read's virtue there is staying off the
            // link, asserted separately below.)
            let mut rt = Fluidicl::new(
                MachineConfig::paper_testbed(),
                FluidiclConfig::default()
                    .with_dirty_range_transfers(false)
                    .with_location_tracking(tracking),
                scale_program(),
            );
            let n = 1 << 16;
            let a = rt.create_buffer(n);
            let b = rt.create_buffer(n);
            rt.write_buffer(a, &vec![1.0; n]).unwrap();
            rt.enqueue_kernel(
                "scale",
                NdRange::d1(n, 64).unwrap(),
                &[
                    KernelArg::Buffer(a),
                    KernelArg::Buffer(b),
                    KernelArg::F32(2.0),
                ],
            )
            .unwrap();
            let v = rt.read_buffer(b).unwrap();
            assert_eq!(v[0], 2.0);
            rt.elapsed()
        };
        // Reading via the CPU copy must never be slower than an extra
        // device-to-host transfer.
        assert!(run(true) <= run(false));
    }

    #[test]
    fn location_tracking_keeps_reads_off_the_link() {
        let run = |tracking: bool| {
            let mut rt = Fluidicl::new(
                MachineConfig::paper_testbed(),
                FluidiclConfig::default().with_location_tracking(tracking),
                scale_program(),
            );
            let n = 1 << 16;
            let a = rt.create_buffer(n);
            let b = rt.create_buffer(n);
            rt.write_buffer(a, &vec![1.0; n]).unwrap();
            rt.enqueue_kernel(
                "scale",
                NdRange::d1(n, 64).unwrap(),
                &[
                    KernelArg::Buffer(a),
                    KernelArg::Buffer(b),
                    KernelArg::F32(2.0),
                ],
            )
            .unwrap();
            let before = rt.dh_free;
            let v = rt.read_buffer(b).unwrap();
            assert_eq!(v[0], 2.0);
            rt.dh_free > before
        };
        // Under the dirty-range default, the tracked read serves the CPU
        // copy without occupying the device-to-host link; the untracked
        // read pays a (ranged) transfer.
        assert!(!run(true), "tracked read must not touch the dh link");
        assert!(run(false), "untracked read pays a dh transfer");
    }

    #[test]
    fn dirty_range_transfers_cut_bytes_and_preserve_results() {
        // A kernel that writes only the first half of its output: the
        // dirty-range protocol should ship roughly half the H2D payload.
        let half_program = || {
            let mut p = Program::new();
            p.register(KernelDef::new(
                "halfscale",
                vec![
                    ArgSpec::new("src", ArgRole::In),
                    ArgSpec::new("dst", ArgRole::Out),
                ],
                KernelProfile::new("halfscale")
                    .flops_per_item(4.0)
                    .bytes_read_per_item(4.0)
                    .bytes_written_per_item(2.0),
                |item, _, ins, outs| {
                    let i = item.global_linear();
                    let half = outs.at(0).len() / 2;
                    if i < half {
                        outs.at(0)[i] = 2.0 * ins.get(0)[i] + 1.0;
                    }
                },
            ));
            p
        };
        let run = |dirty: bool| {
            let mut rt = Fluidicl::new(
                MachineConfig::paper_testbed(),
                FluidiclConfig::default()
                    .with_validate_protocol(true)
                    .with_dirty_range_transfers(dirty),
                half_program(),
            );
            let n = 1 << 15;
            let a = rt.create_buffer(n);
            let b = rt.create_buffer(n);
            rt.write_buffer(a, &vec![1.0; n]).unwrap();
            for _ in 0..2 {
                rt.enqueue_kernel(
                    "halfscale",
                    NdRange::d1(n, 64).unwrap(),
                    &[KernelArg::Buffer(a), KernelArg::Buffer(b)],
                )
                .unwrap();
            }
            let hd: u64 = rt.reports().iter().map(|r| r.hd_bytes).sum();
            (rt.read_buffer(b).unwrap(), rt.elapsed(), hd)
        };
        let (full_v, full_t, full_hd) = run(false);
        let (dirty_v, dirty_t, dirty_hd) = run(true);
        assert_eq!(
            full_v.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            dirty_v.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "dirty-range transfers must not change functional results"
        );
        assert!(
            dirty_hd < full_hd,
            "partial writes must ship fewer H2D bytes ({dirty_hd} vs {full_hd})"
        );
        assert!(dirty_t <= full_t, "shipping less must never slow the model");
    }

    #[test]
    fn graph_scheduling_defers_until_read_then_matches_serial_results() {
        let mut rt = Fluidicl::new(
            MachineConfig::paper_testbed(),
            FluidiclConfig::default()
                .with_graph_scheduling(true)
                .with_validate_protocol(true),
            scale_program(),
        );
        let n = 2048;
        let a = rt.create_buffer(n);
        let b = rt.create_buffer(n);
        rt.write_buffer(a, &vec![1.0; n]).unwrap();
        // a -> b (x2), b -> a (x2): a should end at 4.0, exactly like the
        // eager chained test — the graph serializes the true dependences.
        for (src, dst) in [(a, b), (b, a)] {
            rt.enqueue_kernel(
                "scale",
                NdRange::d1(n, 64).unwrap(),
                &[
                    KernelArg::Buffer(src),
                    KernelArg::Buffer(dst),
                    KernelArg::F32(2.0),
                ],
            )
            .unwrap();
        }
        assert!(rt.reports().is_empty(), "launches are deferred");
        assert_eq!(rt.read_buffer(a).unwrap(), vec![4.0; n]);
        assert_eq!(rt.reports().len(), 2, "the read flushed the graph");
        let sched = rt.graph_schedules();
        assert_eq!(sched.len(), 1);
        assert_eq!(sched[0].nodes.len(), 2);
        assert!(
            sched[0]
                .edges
                .iter()
                .any(|e| e.from == 0 && e.to == 1 && e.kind == crate::graph::DepKind::True),
            "chain has a true edge"
        );
        // A dependent chain cannot overlap: node 1 starts after node 0.
        assert!(sched[0].nodes[1].start_at >= sched[0].nodes[0].complete_at);
    }

    #[test]
    fn graph_scheduling_overlaps_independent_kernels_on_peers() {
        // Compute-heavy independent launches: serial co-execution leaves
        // the mid-range peer nearly idle (it joins each kernel too late to
        // claim waves), while the graph dedicates it whole sibling nodes.
        let heavy_program = || {
            let mut p = Program::new();
            p.register(KernelDef::new(
                "heavy",
                vec![
                    ArgSpec::new("src", ArgRole::In),
                    ArgSpec::new("dst", ArgRole::Out),
                    ArgSpec::new("f", ArgRole::Scalar),
                ],
                KernelProfile::new("heavy")
                    .flops_per_item(4096.0)
                    .bytes_read_per_item(4.0)
                    .bytes_written_per_item(4.0),
                |item, scalars, ins, outs| {
                    let i = item.global_linear();
                    outs.at(0)[i] = scalars.f32(0) * ins.get(0)[i];
                },
            ));
            p
        };
        let run = |graph: bool| {
            let mut rt = Fluidicl::new(
                MachineConfig::paper_testbed_3dev(),
                FluidiclConfig::default()
                    .with_graph_scheduling(graph)
                    .with_validate_protocol(true),
                heavy_program(),
            );
            let n = 1 << 13;
            let bufs: Vec<(BufferId, BufferId)> = (0..4)
                .map(|_| (rt.create_buffer(n), rt.create_buffer(n)))
                .collect();
            for (src, _) in &bufs {
                rt.write_buffer(*src, &vec![1.0; n]).unwrap();
            }
            let before = rt.elapsed();
            for (src, dst) in &bufs {
                rt.enqueue_kernel(
                    "heavy",
                    NdRange::d1(n, 64).unwrap(),
                    &[
                        KernelArg::Buffer(*src),
                        KernelArg::Buffer(*dst),
                        KernelArg::F32(3.0),
                    ],
                )
                .unwrap();
            }
            rt.flush_graph().unwrap();
            let makespan = rt.elapsed() - before;
            for (_, dst) in &bufs {
                assert_eq!(rt.read_buffer(*dst).unwrap(), vec![3.0; n]);
            }
            (makespan, rt.graph_schedules().to_vec())
        };
        let (serial, s0) = run(false);
        let (graphed, s1) = run(true);
        assert!(s0.is_empty(), "gate off records no schedules");
        assert_eq!(s1.len(), 1);
        assert!(
            s1[0].nodes.iter().any(|nd| nd.lane >= 1),
            "HEFT offloads at least one node to a peer lane"
        );
        assert!(
            graphed < serial,
            "independent kernels must overlap across devices ({graphed:?} vs {serial:?})"
        );
    }

    #[test]
    fn eager_and_deferred_enqueues_reject_malformed_launches_alike() {
        let run = |graph: bool| {
            let mut rt = Fluidicl::new(
                MachineConfig::paper_testbed_3dev(),
                FluidiclConfig::default().with_graph_scheduling(graph),
                scale_program(),
            );
            let n = 1024;
            let (a, b) = (rt.create_buffer(n), rt.create_buffer(n));
            rt.write_buffer(a, &vec![1.0; n]).unwrap();
            let nd = NdRange::d1(n, 64).unwrap();
            let forged = BufferId(a.0 + b.0 + 100);
            let launches = [
                ("nope", vec![KernelArg::Buffer(a), KernelArg::Buffer(b)]),
                ("scale", vec![KernelArg::Buffer(a), KernelArg::Buffer(b)]),
                (
                    "scale",
                    vec![
                        KernelArg::Buffer(forged),
                        KernelArg::Buffer(b),
                        KernelArg::F32(2.0),
                    ],
                ),
            ];
            let errors: Vec<ClError> = launches
                .iter()
                .map(|(kernel, args)| rt.enqueue_kernel(kernel, nd, args).unwrap_err())
                .collect();
            // Rejected at enqueue time: nothing was deferred or executed.
            assert!(rt.pending.is_empty() && rt.reports().is_empty());
            rt.flush_graph().unwrap();
            assert!(rt.reports().is_empty() && rt.graph_schedules().is_empty());
            errors
        };
        let eager = run(false);
        assert_eq!(eager, run(true), "deferral must not change the error");
        assert_eq!(eager[0], ClError::UnknownKernel("nope".into()));
        assert!(
            matches!(&eager[1], ClError::ArgMismatch { kernel, .. } if kernel == "scale"),
            "{:?}",
            eager[1]
        );
        assert!(
            matches!(eager[2], ClError::InvalidBuffer(_)),
            "{:?}",
            eager[2]
        );
    }

    #[test]
    fn graph_flush_is_explicit_and_idempotent() {
        let mut rt = Fluidicl::new(
            MachineConfig::paper_testbed_3dev(),
            FluidiclConfig::default().with_graph_scheduling(true),
            scale_program(),
        );
        let n = 1024;
        let a = rt.create_buffer(n);
        let b = rt.create_buffer(n);
        rt.write_buffer(a, &vec![1.0; n]).unwrap();
        rt.enqueue_kernel(
            "scale",
            NdRange::d1(n, 64).unwrap(),
            &[
                KernelArg::Buffer(a),
                KernelArg::Buffer(b),
                KernelArg::F32(2.0),
            ],
        )
        .unwrap();
        rt.flush_graph().unwrap();
        assert_eq!(rt.reports().len(), 1);
        let clock = rt.elapsed();
        rt.flush_graph().unwrap();
        assert_eq!(rt.reports().len(), 1, "empty flush is a no-op");
        assert_eq!(rt.elapsed(), clock, "empty flush does not move the clock");
        assert_eq!(rt.read_buffer(b).unwrap(), vec![2.0; n]);
    }

    #[test]
    fn graph_peer_lane_weights_are_profiled_online() {
        // Two flushes of the same independent pair: the second flush plans
        // from observed EWMA weights rather than model seeds, and results
        // stay correct either way.
        let mut rt = Fluidicl::new(
            MachineConfig::paper_testbed_3dev(),
            FluidiclConfig::default().with_graph_scheduling(true),
            scale_program(),
        );
        let n = 4096;
        let pairs: Vec<(BufferId, BufferId)> = (0..2)
            .map(|_| (rt.create_buffer(n), rt.create_buffer(n)))
            .collect();
        for round in 0..2 {
            for (src, _) in &pairs {
                rt.write_buffer(*src, &vec![round as f32 + 1.0; n]).unwrap();
            }
            for (src, dst) in &pairs {
                rt.enqueue_kernel(
                    "scale",
                    NdRange::d1(n, 64).unwrap(),
                    &[
                        KernelArg::Buffer(*src),
                        KernelArg::Buffer(*dst),
                        KernelArg::F32(2.0),
                    ],
                )
                .unwrap();
            }
            rt.flush_graph().unwrap();
            for (_, dst) in &pairs {
                assert_eq!(
                    rt.read_buffer(*dst).unwrap(),
                    vec![2.0 * (round as f32 + 1.0); n]
                );
            }
        }
        assert_eq!(rt.graph_schedules().len(), 2);
        assert_eq!(rt.reports().len(), 4);
    }

    #[test]
    fn buffer_pool_reduces_scratch_creation_cost() {
        let run = |pooled: bool| {
            let mut rt = Fluidicl::new(
                MachineConfig::paper_testbed(),
                FluidiclConfig::default().with_buffer_pool(pooled),
                scale_program(),
            );
            let n = 1 << 18;
            let a = rt.create_buffer(n);
            let b = rt.create_buffer(n);
            rt.write_buffer(a, &vec![1.0; n]).unwrap();
            for _ in 0..4 {
                rt.enqueue_kernel(
                    "scale",
                    NdRange::d1(n, 64).unwrap(),
                    &[
                        KernelArg::Buffer(a),
                        KernelArg::Buffer(b),
                        KernelArg::F32(2.0),
                    ],
                )
                .unwrap();
            }
            (rt.elapsed(), rt.pool_stats())
        };
        let (t_pool, s_pool) = run(true);
        let (t_nopool, s_nopool) = run(false);
        assert!(s_pool.hits > 0, "pool must be reused across kernels");
        assert_eq!(s_nopool.hits, 0);
        assert!(t_pool <= t_nopool);
    }
}
