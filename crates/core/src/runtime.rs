//! The FluidiCL runtime: the public, OpenCL-shaped API.
//!
//! `Fluidicl` is the drop-in layer of paper Figure 4: the application calls
//! the usual buffer/kernel functions as if one device existed, and the
//! runtime manages both devices underneath — duplicating buffers and writes
//! (§4.1), co-executing every kernel (§4.2), merging results (§4.3),
//! returning data to the host in a background thread (§4.4, §5.6), and
//! tracking buffer coherence and locations across kernels (§5.3, §6.2).
//!
//! Every enqueue is deferred into a kernel graph, and every kernel executes
//! when the graph is flushed, through one placement routine, `place`: a
//! prepared launch on a set of healthy lanes. Two or more lanes co-execute;
//! one lane runs the whole NDRange alone (a degraded run, or a graph node
//! on a peer).

use fluidicl_des::{SimDuration, SimTime};
use fluidicl_hetsim::{AbortMode, MachineConfig};
use fluidicl_vcl::exec::Launch;
use fluidicl_vcl::{
    execute_groups_injected, BufferId, ClDriver, ClError, ClResult, DeviceKind, FaultInjector,
    KernelArg, Memory, NdRange, Program, WorkCounters,
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
    /// Enqueued launches awaiting the next flush.
    pending: Vec<PreparedLaunch>,
    /// The error of a flush that a buffer creation forced, returned by the
    /// next flush: `create_buffer` has no error to return it with.
    flush_error: Option<ClError>,
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
/// handles are checked once, and the launch keeps its cached argument
/// classification until a flush runs it.
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
            flush_error: None,
            weights: WeightTable::new(),
            graph_schedules: Vec::new(),
            work: WorkCounters::default(),
        }
    }

    /// The runtime configuration.
    pub fn config(&self) -> &FluidiclConfig {
        &self.config
    }

    /// Per-kernel execution reports of the flushed kernels, in enqueue
    /// order. A kernel reports once a flush has run it: after a buffer
    /// read, write or creation, or an explicit [`Fluidicl::flush_graph`].
    pub fn reports(&self) -> &[KernelReport] {
        &self.reports
    }

    /// Aggregate statistics over the flushed kernels' reports.
    pub fn summary(&self) -> RuntimeSummary {
        RuntimeSummary::from_reports(&self.reports)
    }

    /// One schedule per kernel-graph flush that ran a kernel, in flush
    /// order.
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

    /// What the primary GPU pays before its launch to set up the
    /// diff-merge scratch of `out_ids` (paper §4.1): two scratch buffers
    /// per modified buffer, the CPU-data landing area and the pristine
    /// original, plus a refresh of the original. The buffers come from the
    /// pool when it has them, and the refresh is skipped when the previous
    /// kernel's end-of-kernel copy already made it (§5.5). A kernel holds
    /// its scratch until it ends, and the primary card runs one kernel at
    /// a time, so the buffers go back to the pool here, exactly as the
    /// kernel's end would leave it.
    fn scratch_setup_cost(&mut self, out_ids: &[BufferId]) -> SimDuration {
        let gpu = &self.machine.gpu;
        let mut cost = SimDuration::ZERO;
        for id in out_ids {
            let state = self.buffers.state(*id);
            for _ in 0..2 {
                if !self.pool.acquire(state.len) {
                    cost += gpu.buffer_create_time(state.bytes());
                }
            }
            cost += gpu.copy_time(state.snapshot_refresh_bytes());
        }
        for id in out_ids {
            let len = self.buffers.state(*id).len;
            self.pool.release(len);
            self.pool.release(len);
        }
        cost
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

    /// Validates a launch against the program and the buffer table, so a
    /// malformed launch fails with a typed error at enqueue time, and every
    /// later table access may index infallibly.
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
    /// A peer only ever runs unmodified ranges it claimed, so it has no
    /// abort-checked binary: its pair sums to the broadcast plus
    /// [`GpuModel::launch_time`](fluidicl_hetsim::GpuModel::launch_time),
    /// the price `PeerGpuEndpoint::compute_time` charges. The launch
    /// overhead stays in the lead-in, as on the primary GPU, because the
    /// solo span in the trace begins when the kernel starts computing.
    fn solo_cost(&self, p: &PreparedLaunch, lane: Lane) -> (SimDuration, SimDuration) {
        let total = p.launch.ndrange.num_groups();
        let items = p.launch.ndrange.items_per_group();
        let profile = &p.launch.kernel.default_version().profile;
        match lane {
            Lane::Cpu => (
                SimDuration::ZERO,
                self.machine
                    .cpu
                    .subkernel_time(profile, items, total, self.config.wg_split),
            ),
            Lane::Gpu => (
                self.machine.gpu.launch_overhead(),
                self.machine
                    .gpu
                    .range_time(profile, items, total, self.config.abort_mode),
            ),
            Lane::Peer(dev) => {
                let peer = &self.machine.peers[dev as usize - 1];
                let broadcast = peer.h2d.transfer_time(self.broadcast_bytes(&p.buffers));
                (
                    broadcast + peer.gpu.launch_overhead(),
                    peer.gpu.range_time(profile, items, total, AbortMode::None),
                )
            }
        }
    }

    /// The cold HEFT weight of `p` on each graph lane, in ns: what running
    /// it alone costs, lead-in included. Lane 0 co-executes, which tracks
    /// the better of the CPU and the primary GPU, so it takes the cheaper
    /// of the two; peer lane `l >= 1` takes `peers[l - 1]`'s.
    fn lane_seeds(&self, p: &PreparedLaunch, peers: &[PeerSlot]) -> Vec<u64> {
        let alone = |lane| {
            let (lead_in, run) = self.solo_cost(p, lane);
            lead_in + run
        };
        let owner = alone(Lane::Cpu).min(alone(Lane::Gpu));
        std::iter::once(owner)
            .chain(peers.iter().map(|slot| alone(Lane::Peer(slot.dev))))
            .map(SimDuration::as_nanos)
            .collect()
    }

    /// Runs one prepared launch on `lanes`, no earlier than `ready`, and
    /// reports it as enqueued at `ready` — the one routine every kernel
    /// executes through. No lane is a stable typed error, one lane runs the
    /// whole NDRange alone, and two or more co-execute under the fluidic
    /// protocol. `node` names the graph node the flush is placing. The
    /// launch takes the next kernel id. Returns when the placement started
    /// and when the kernel completed.
    fn place(
        &mut self,
        p: &PreparedLaunch,
        node: usize,
        lanes: Lanes,
        ready: SimTime,
    ) -> ClResult<(SimTime, SimTime)> {
        let kid = self.next_kernel_id;
        self.next_kernel_id += 1;
        for id in &p.out_ids {
            self.buffers.begin_kernel_write(*id);
        }
        let placed = match (lanes.cpu, lanes.gpu, lanes.peers.as_slice()) {
            (false, false, []) => Err(ClError::DeviceLost {
                device: DeviceKind::Gpu,
                detail: "no healthy device remains to execute the kernel".into(),
            }),
            (true, false, []) => self.place_solo(p, kid, node, Lane::Cpu, ready),
            (false, true, []) => self.place_solo(p, kid, node, Lane::Gpu, ready),
            (false, false, [slot]) => self.place_solo(p, kid, node, Lane::Peer(slot.dev), ready),
            _ => self.place_coexec(p, kid, lanes, ready),
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
        node: usize,
        lane: Lane,
        ready: SimTime,
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
            node: node as u32,
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
            enqueued_at: ready,
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
            duration: complete_at.saturating_since(ready),
            trace: vec![
                event(ready, enqueued),
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
            // The GPU computes into its own copy; everyone else into the
            // host copy, which the mirror ships on to the GPU's. The run
            // wrote the outputs without refreshing any diff-merge snapshot.
            let (cpu_at, gpu_at) = if lane == Lane::Gpu {
                (None, Some(complete_at))
            } else if mirror {
                let bytes = self.buffers.state(*id).bytes();
                let at = complete_at + self.machine.h2d.transfer_time(bytes);
                (Some(complete_at), Some(at))
            } else {
                (Some(complete_at), None)
            };
            self.buffers.record_kernel(*id, cpu_at, gpu_at, false);
        }
        if on_gpu_timeline {
            self.gpu_free = complete_at;
        }
        self.reports.push(report);
        Ok((start, complete_at))
    }

    /// Co-executes a launch on two or more lanes under the fluidic
    /// protocol. The primary GPU owns the launch while it is healthy;
    /// otherwise the engine hands the owner role to the first peer at
    /// kernel start, and every peer keeps its endpoint index. Without the
    /// CPU its endpoint starts dead.
    fn place_coexec(
        &mut self,
        p: &PreparedLaunch,
        kid: KernelId,
        lanes: Lanes,
        ready: SimTime,
    ) -> ClResult<(SimTime, SimTime)> {
        // Each side waits for its copy of the launch buffers to be current
        // (paper §5.3); `begin_kernel_write` leaves the ready times alone.
        let cpu_start = self.buffers.cpu_ready_time(&p.buffers).max(ready);
        let mut gpu_start = self
            .buffers
            .gpu_ready_time(&p.buffers)
            .max(ready)
            .max(self.gpu_free);
        if lanes.gpu {
            // A peer owner's set-up is priced in the engine's hand-off.
            gpu_start += self.scratch_setup_cost(&p.out_ids);
        }
        let input = CoexecInput {
            machine: &self.machine,
            config: &self.config,
            launch: &p.launch,
            kernel_id: kid,
            enqueue_at: ready,
            gpu_start,
            cpu_start,
            hd_free: self.hd_free,
            dh_free: self.dh_free,
            cpu_mem: &mut self.cpu_mem,
            gpu_mem: &mut self.gpu_mem,
            peers: lanes.peers,
            injector: self.injector.as_mut(),
            dead_cpu: !lanes.cpu,
            dead_gpu: !lanes.gpu,
            work: &mut self.work,
        };
        let outcome = match Coexec::new(input).and_then(Coexec::run) {
            Ok(outcome) => outcome,
            Err(e) => {
                // The launch is abandoned with the two copies diverged
                // (partial CPU subkernels vs partial waves, no merge),
                // which would poison the next kernel's diff-merge. The GPU
                // copy is taken as the authority, as its original snapshot
                // would be, and the CPU address space shares it. Without
                // the primary GPU the host copy is the only one a later
                // kernel reads. A missing entry means the failure came
                // before any divergence.
                if lanes.gpu {
                    for id in &p.out_ids {
                        let _ = self.cpu_mem.share_from(&self.gpu_mem, *id);
                    }
                }
                return Err(e);
            }
        };
        self.gate_report(&p.kernel, &outcome.report)?;
        self.gpu_free = outcome.gpu_busy_until;
        self.hd_free = outcome.hd_free;
        self.dh_free = outcome.dh_free;
        // The return path (D2H thread or CPU finish, §4.4) brings the host
        // copy current, and the end-of-kernel copy refreshed the original
        // snapshot (paper §5.5) — which outlives the kernel only in a
        // scratch buffer the pool keeps. Once the primary card is dead its
        // buffer tracking stays frozen: a peer owner receives its launch
        // buffers from the host copy.
        let record_gpu = lanes.gpu && !outcome.lost_gpu;
        let gpu_at = record_gpu.then_some(outcome.gpu_results_at);
        let snapshot_kept = record_gpu && self.config.buffer_pool;
        for id in &p.out_ids {
            self.buffers
                .record_kernel(*id, Some(outcome.cpu_results_at), gpu_at, snapshot_kept);
        }
        if outcome.lost_cpu {
            self.roster.lose_cpu();
        }
        if outcome.lost_gpu {
            self.roster.lose_gpu();
        }
        for dev in outcome.lost_peers {
            self.roster.lose_peer(dev);
        }
        self.last_cpu_version = outcome.report.cpu_version_used;
        let complete = outcome.complete_at;
        self.reports.push(outcome.report);
        Ok((ready, complete))
    }

    /// The graph lane a node planned on `planned` runs on, and the peer
    /// lanes that join it, by the roster at placement. Lane 0 is the healthy
    /// CPU and primary GPU, joined by every healthy peer lane `idle` admits;
    /// peer lane `l >= 1` is `peers[l - 1]` alone. A planned lane with no
    /// healthy device falls back to every healthy device: lane 0 joined by
    /// every healthy peer or, with neither the CPU nor the GPU left, the
    /// first healthy peer alone.
    fn node_lanes(
        &self,
        peers: &[PeerSlot],
        planned: usize,
        idle: impl Fn(usize) -> bool,
    ) -> (usize, Vec<usize>) {
        let live = |l: usize| !self.roster.peer_dead(peers[l - 1].dev);
        if planned > 0 && live(planned) {
            return (planned, Vec::new());
        }
        let owner_pair = self.roster.cpu_healthy() || self.roster.gpu_healthy();
        let fallback = planned > 0 || !owner_pair;
        let joined: Vec<usize> = (1..=peers.len())
            .filter(|&l| live(l) && (fallback || idle(l)))
            .collect();
        match joined.first() {
            Some(&first) if !owner_pair => (first, Vec::new()),
            _ => (0, joined),
        }
    }

    /// Executes every enqueued launch over its kernel dependence graph,
    /// then clears the pending queue: the one place a kernel is placed.
    ///
    /// HEFT picks each node's lane, and the nodes execute in enqueue order,
    /// which every dependence edge already respects. A node is ready once
    /// its producers have completed and its lanes are free, and reports
    /// itself enqueued at that instant, so a chain on lane 0 runs exactly as
    /// if each kernel had been placed when it was enqueued. Lanes are read
    /// from the roster as each node is placed, so a device lost earlier in
    /// the flush takes no later node.
    ///
    /// Called automatically before any buffer read, write or creation;
    /// applications may also call it directly as an explicit
    /// synchronization point. Reports, kernel times and the clock reflect
    /// an enqueued launch only once a flush has run it.
    ///
    /// # Errors
    ///
    /// Propagates execution and protocol-gate errors from the flushed
    /// nodes, and the error of a flush a buffer creation forced; nodes
    /// already executed when the error surfaces stay executed, and the
    /// remaining pending launches are dropped.
    pub fn flush_graph(&mut self) -> ClResult<()> {
        if let Some(e) = self.flush_error.take() {
            return Err(e);
        }
        if self.pending.is_empty() {
            return Ok(());
        }
        let pending = std::mem::take(&mut self.pending);
        // Footprints and dependence edges over the enqueued launches.
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
        // paper's offline profiling trials, §6.6).
        let weights: Vec<Vec<u64>> = pending
            .iter()
            .map(|p| {
                self.lane_seeds(p, &peers)
                    .into_iter()
                    .enumerate()
                    .map(|(lane, seed)| self.weights.estimate_ns(&p.kernel, lane, seed))
                    .collect()
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
        // Every edge kind serializes its endpoints (conservative: anti and
        // output dependences wait for full completion too), so memory
        // effects match the enqueue order exactly.
        let mut producers = vec![Vec::new(); pending.len()];
        for e in &edges {
            producers[e.to].push(e.from);
        }
        let flush_at = self.host_clock;
        let mut lane_free = vec![flush_at; 1 + peers.len()];
        // Nodes the plan still has to place on each lane.
        let mut unplaced = vec![0usize; lane_free.len()];
        for &lane in &plan.lane {
            unplaced[lane] += 1;
        }
        let mut nodes: Vec<GraphNodeSummary> = Vec::with_capacity(pending.len());
        for (node, (p, access)) in pending.iter().zip(accesses).enumerate() {
            let dep_ready = producers[node]
                .iter()
                .map(|&from| nodes[from].complete_at)
                .fold(flush_at, SimTime::max);
            let planned = plan.lane[node];
            unplaced[planned] -= 1;
            // A lane-0 node co-executes with every peer the plan has no
            // further node for and that is idle when the node starts.
            let owner_ready = dep_ready.max(lane_free[0]);
            let (lane, joined) = self.node_lanes(&peers, planned, |l| {
                unplaced[l] == 0 && lane_free[l] <= owner_ready
            });
            let used = || std::iter::once(lane).chain(joined.iter().copied());
            let ready = used().map(|l| lane_free[l]).fold(dep_ready, SimTime::max);
            let lanes = Lanes {
                cpu: lane == 0 && self.roster.cpu_healthy(),
                gpu: lane == 0 && self.roster.gpu_healthy(),
                peers: used()
                    .filter(|&l| l > 0)
                    .map(|l| peers[l - 1].clone())
                    .collect(),
            };
            let kernel_id = self.next_kernel_id;
            let (start, complete) = self.place(p, node, lanes, ready)?;
            for l in used() {
                lane_free[l] = complete;
            }
            self.weights
                .observe_ns(&p.kernel, lane, complete.saturating_since(start).as_nanos());
            nodes.push(GraphNodeSummary {
                node,
                kernel: access.kernel,
                kernel_id,
                lane,
                joined,
                start_at: start,
                complete_at: complete,
                reads: access.reads,
                writes: access.writes,
            });
        }
        self.host_clock = nodes
            .iter()
            .map(|n| n.complete_at)
            .fold(flush_at, SimTime::max);
        self.graph_schedules.push(GraphSchedule { nodes, edges });
        Ok(())
    }
}

impl ClDriver for Fluidicl {
    fn create_buffer(&mut self, len: usize) -> BufferId {
        // A buffer creation is a synchronization point for the kernel
        // graph: the allocation must see the clocks and the roster the
        // enqueued kernels leave.
        if let Err(e) = self.flush_graph() {
            self.flush_error = Some(e);
        }
        // clCreateBuffer allocates on both devices (paper §4.1); the GPU
        // allocation dominates the cost. It sits on the in-order hd queue
        // ahead of the buffer's first host-to-device copy. After a permanent
        // GPU loss nothing is allocated there: a peer owner receives its
        // launch buffers per kernel.
        let id = self.buffers.register(len, self.host_clock);
        if self.roster.gpu_healthy() {
            let at = self
                .machine
                .gpu
                .allocate(len as u64 * 4, self.host_clock, self.hd_free);
            self.hd_free = at;
            self.buffers.state_mut(id).gpu_ready_at = at;
        }
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
            // A peer owner receives its launch buffers per kernel, so host
            // writes stop paying the primary link here.
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
        // Deferred into the kernel graph; the next flush places it.
        let prepared = self.prepare(kernel, ndrange, args)?;
        self.pending.push(prepared);
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
        // peer-owned runs and solo peer runs leave their results in it.
        let use_cpu_copy = if !self.roster.gpu_healthy() {
            true
        } else if !self.roster.cpu_healthy() {
            false
        } else {
            self.config.location_tracking && state.host_current
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
            // Under dirty-range transfers a host copy that is already
            // current ships nothing.
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

    /// The host clock, which reflects an enqueued kernel only once a flush
    /// has run it.
    fn elapsed(&self) -> SimDuration {
        self.host_clock.saturating_since(SimTime::ZERO)
    }

    /// The flushed kernels' durations, in enqueue order.
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
    use fluidicl_vcl::{ArgRole, ArgSpec, FaultKind, FaultPlan, KernelDef};

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

    /// `scale` plus two kernels with its body and signature: `heavy`, at
    /// 4096 flops per item, and `walk`, a scattered, divergent walk the CPU
    /// runs better than the GPU.
    fn heavy_program() -> Program {
        let mut p = scale_program();
        let walk = KernelProfile::new("walk")
            .flops_per_item(64.0)
            .bytes_read_per_item(64.0)
            .gpu_coalescing(0.0)
            .gpu_divergence(1.0)
            .cpu_cache_locality(1.0)
            .cpu_simd_friendliness(1.0);
        let heavy = KernelProfile::new("heavy")
            .flops_per_item(4096.0)
            .bytes_read_per_item(4.0)
            .bytes_written_per_item(4.0);
        for (name, profile) in [("walk", walk), ("heavy", heavy)] {
            p.register(KernelDef::new(
                name,
                vec![
                    ArgSpec::new("src", ArgRole::In),
                    ArgSpec::new("dst", ArgRole::Out),
                    ArgSpec::new("f", ArgRole::Scalar),
                ],
                profile,
                |item, scalars, ins, outs| {
                    let i = item.global_linear();
                    outs.at(0)[i] = scalars.f32(0) * ins.get(0)[i];
                },
            ));
        }
        p
    }

    fn runtime() -> Fluidicl {
        Fluidicl::new(
            MachineConfig::paper_testbed(),
            FluidiclConfig::default(),
            scale_program(),
        )
    }

    fn scale_args(src: BufferId, dst: BufferId, f: f32) -> [KernelArg; 3] {
        [
            KernelArg::Buffer(src),
            KernelArg::Buffer(dst),
            KernelArg::F32(f),
        ]
    }

    /// Places `dst = f × src` on `lanes` as the only node of a flush: ready
    /// and enqueued at the host clock, which then advances to completion.
    /// Returns the instant the placement was ready.
    fn place_scale(
        rt: &mut Fluidicl,
        lanes: Lanes,
        src: BufferId,
        dst: BufferId,
        f: f32,
    ) -> SimTime {
        let nd = NdRange::d1(rt.buffers.state(src).len, 64).unwrap();
        let p = rt.prepare("scale", nd, &scale_args(src, dst, f)).unwrap();
        let now = rt.host_clock;
        let (_, complete) = rt.place(&p, 0, lanes, now).unwrap();
        rt.host_clock = complete;
        now
    }

    fn cpu_and_gpu() -> Lanes {
        Lanes {
            cpu: true,
            gpu: true,
            peers: Vec::new(),
        }
    }

    /// When a co-executed launch of `bufs` enqueued now may start on the
    /// GPU: its GPU copies are current and the card is free.
    fn gpu_start(rt: &Fluidicl, bufs: &[BufferId]) -> SimTime {
        rt.buffers
            .gpu_ready_time(bufs)
            .max(rt.host_clock)
            .max(rt.gpu_free)
    }

    /// When the last report's GPU kernel launched.
    fn last_gpu_launch(rt: &Fluidicl) -> SimTime {
        rt.reports()
            .last()
            .and_then(|r| r.trace.iter().find(|e| e.kind == TraceKind::GpuLaunch))
            .expect("a co-executed kernel launches on the GPU")
            .at
    }

    #[test]
    fn a_whole_buffer_chain_pays_each_snapshot_once() {
        // The first kernel's epilogue copies its output into the diff-merge
        // original (paper §5.5). With the pool, the second kernel writing
        // that buffer gets it back and starts without a refresh; without
        // it, the snapshot was destroyed with its scratch buffer, so the
        // second kernel creates and fills a new one.
        for pool in [true, false] {
            let mut rt = Fluidicl::new(
                MachineConfig::paper_testbed(),
                FluidiclConfig::default()
                    .with_dirty_range_transfers(false)
                    .with_buffer_pool(pool),
                scale_program(),
            );
            let n = 1 << 14;
            let (a, b) = (rt.create_buffer(n), rt.create_buffer(n));
            rt.write_buffer(a, &vec![1.0; n]).unwrap();
            place_scale(&mut rt, cpu_and_gpu(), a, b, 2.0);
            let start = gpu_start(&rt, &[a, b]);
            place_scale(&mut rt, cpu_and_gpu(), a, b, 3.0);
            let gpu = &rt.machine.gpu;
            let bytes = n as u64 * 4;
            let setup = if pool {
                SimDuration::ZERO
            } else {
                gpu.buffer_create_time(bytes) * 2 + gpu.copy_time(bytes)
            };
            assert_eq!(
                last_gpu_launch(&rt),
                start + setup + gpu.launch_overhead(),
                "the second kernel's snapshot set-up is wrong (pool {pool})"
            );
            assert_eq!(rt.read_buffer(b).unwrap(), vec![3.0; n]);
        }
    }

    #[test]
    fn a_solo_run_leaves_the_next_co_executed_kernel_a_snapshot_to_refresh() {
        let mut rt = runtime();
        let n = 1 << 14;
        let (a, b) = (rt.create_buffer(n), rt.create_buffer(n));
        rt.write_buffer(a, &vec![1.0; n]).unwrap();
        // Co-executed: the epilogue leaves b's snapshot current.
        place_scale(&mut rt, cpu_and_gpu(), a, b, 2.0);
        // The GPU alone overwrites b, so the snapshot falls behind it.
        let gpu_alone = Lanes {
            cpu: false,
            gpu: true,
            peers: Vec::new(),
        };
        place_scale(&mut rt, gpu_alone, a, b, 3.0);
        let start = gpu_start(&rt, &[a, b]);
        place_scale(&mut rt, cpu_and_gpu(), a, b, 4.0);
        let gpu = &rt.machine.gpu;
        assert_eq!(
            last_gpu_launch(&rt),
            start + gpu.copy_time(n as u64 * 4) + gpu.launch_overhead(),
            "the kernel after a solo run must refresh its snapshot"
        );
        assert_eq!(rt.read_buffer(b).unwrap(), vec![4.0; n]);
    }

    #[test]
    fn a_peer_owner_creates_its_scratch_at_its_own_price() {
        // The first kernel leaves the primary card's scratch buffers in the
        // pool and b's snapshot current. Without the primary GPU, the
        // engine hands the kernel to the first peer at its start, and that
        // owner cannot use either: it creates both scratch buffers and
        // copies the whole original, at its own model's price.
        let mut rt = Fluidicl::new(
            MachineConfig::paper_testbed_3dev(),
            FluidiclConfig::default(),
            scale_program(),
        );
        let n = 1 << 14;
        let (a, b) = (rt.create_buffer(n), rt.create_buffer(n));
        rt.write_buffer(a, &vec![1.0; n]).unwrap();
        place_scale(&mut rt, cpu_and_gpu(), a, b, 2.0);
        let peers = rt.healthy_peers();
        let owner = peers[0].peer.gpu.clone();
        let bytes = n as u64 * 4;
        // The owner's broadcast waits for both copies to be current.
        let ready = gpu_start(&rt, &[a, b]).max(rt.buffers.cpu_ready_time(&[a, b]));
        let start = ready + peers[0].peer.h2d.transfer_time(2 * bytes);
        let lanes = Lanes {
            cpu: true,
            gpu: false,
            peers,
        };
        place_scale(&mut rt, lanes, a, b, 3.0);
        let setup = owner.buffer_create_time(bytes) * 2 + owner.copy_time(bytes);
        assert_eq!(
            last_gpu_launch(&rt),
            start + setup + owner.launch_overhead()
        );
        assert_eq!(rt.cpu_mem.get(b).unwrap(), &vec![3.0; n][..]);
    }

    #[test]
    fn a_solo_peer_pays_the_price_of_its_co_executed_ranges() {
        // A peer runs only ranges it owns, so it never carries abort
        // checks: alone it pays its broadcast plus one unmodified launch,
        // whatever abort mode the owner's kernels use.
        let mut rt = Fluidicl::new(
            MachineConfig::paper_testbed_3dev(),
            FluidiclConfig::default().with_abort_mode(AbortMode::InLoop),
            scale_program(),
        );
        let n = 1 << 14;
        let (a, b) = (rt.create_buffer(n), rt.create_buffer(n));
        rt.write_buffer(a, &vec![1.0; n]).unwrap();
        let slot = rt.healthy_peers().remove(0);
        let peer = slot.peer.clone();
        let lanes = Lanes {
            cpu: false,
            gpu: false,
            peers: vec![slot],
        };
        let ready = place_scale(&mut rt, lanes, a, b, 2.0);
        let nd = NdRange::d1(n, 64).unwrap();
        let kernel = rt.program.kernel("scale").unwrap();
        let profile = &kernel.default_version().profile;
        let launch = peer
            .gpu
            .launch_time(profile, nd.items_per_group(), nd.num_groups());
        let broadcast = peer.h2d.transfer_time(2 * n as u64 * 4);
        assert_eq!(rt.host_clock, ready + broadcast + launch);
        assert_eq!(rt.read_buffer(b).unwrap(), vec![2.0; n]);
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
        assert!(rt.reports().is_empty(), "the kernel waits for a flush");
        rt.flush_graph().unwrap();
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
            rt.flush_graph().unwrap();
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
            rt.flush_graph().unwrap();
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
    fn enqueues_defer_until_a_read_then_match_serial_results() {
        let mut rt = Fluidicl::new(
            MachineConfig::paper_testbed(),
            FluidiclConfig::default().with_validate_protocol(true),
            scale_program(),
        );
        let n = 2048;
        let a = rt.create_buffer(n);
        let b = rt.create_buffer(n);
        rt.write_buffer(a, &vec![1.0; n]).unwrap();
        // a -> b (x2), b -> a (x2): a should end at 4.0 — the graph
        // serializes the true dependences.
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
    fn graph_flushes_overlap_independent_kernels_on_peers() {
        // Compute-heavy independent launches: flushed one by one, they run
        // back to back, while one flush over all four dedicates the
        // mid-range peer whole sibling nodes next to the owner pair.
        let run = |flush_each: bool| {
            let mut rt = Fluidicl::new(
                MachineConfig::paper_testbed_3dev(),
                FluidiclConfig::default().with_validate_protocol(true),
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
                let nd = NdRange::d1(n, 64).unwrap();
                rt.enqueue_kernel("heavy", nd, &scale_args(*src, *dst, 3.0))
                    .unwrap();
                if flush_each {
                    rt.flush_graph().unwrap();
                }
            }
            rt.flush_graph().unwrap();
            let makespan = rt.elapsed() - before;
            for (_, dst) in &bufs {
                assert_eq!(rt.read_buffer(*dst).unwrap(), vec![3.0; n]);
            }
            (makespan, rt.graph_schedules().to_vec())
        };
        let (serial, s0) = run(true);
        let (graphed, s1) = run(false);
        assert!(s0.len() == 4 && s0.iter().all(|s| s.nodes.len() == 1));
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
    fn the_owner_lane_is_seeded_with_the_better_of_the_cpu_and_the_gpu() {
        let mut rt = Fluidicl::new(
            MachineConfig::paper_testbed_3dev(),
            FluidiclConfig::default(),
            heavy_program(),
        );
        let peers = rt.healthy_peers();
        // A scattered, divergent kernel runs best on the CPU, a
        // compute-heavy one on the GPU. The owner lane co-executes on both,
        // so its seed is the better solo run either way.
        for (kernel, n, better, worse) in [
            ("walk", 1 << 14, Lane::Cpu, Lane::Gpu),
            ("heavy", 1 << 14, Lane::Gpu, Lane::Cpu),
        ] {
            let (src, dst) = (rt.create_buffer(n), rt.create_buffer(n));
            let nd = NdRange::d1(n, 64).unwrap();
            let p = rt.prepare(kernel, nd, &scale_args(src, dst, 2.0)).unwrap();
            let seeds = rt.lane_seeds(&p, &peers);
            let alone = |lane| {
                let (lead_in, run) = rt.solo_cost(&p, lane);
                (lead_in + run).as_nanos()
            };
            assert_eq!(seeds.len(), 1 + peers.len());
            assert_eq!(seeds[0], alone(better), "`{kernel}` seeds lane 0");
            assert!(
                seeds[0] < alone(worse),
                "`{kernel}` runs better on {better:?}"
            );
        }
    }

    #[test]
    fn a_lane_zero_node_co_executes_with_every_idle_peer() {
        // One enqueued kernel: HEFT keeps it on lane 0 and has no node for
        // the peer, so the peer joins it, exactly as placing it directly on
        // every device does.
        let setup = || {
            let mut rt = Fluidicl::new(
                MachineConfig::paper_testbed_3dev(),
                FluidiclConfig::default(),
                heavy_program(),
            );
            let n = 1 << 14;
            let (src, dst) = (rt.create_buffer(n), rt.create_buffer(n));
            rt.write_buffer(src, &vec![1.0; n]).unwrap();
            let nd = NdRange::d1(n, 64).unwrap();
            (rt, nd, scale_args(src, dst, 3.0))
        };
        let (mut rt, nd, args) = setup();
        rt.enqueue_kernel("heavy", nd, &args).unwrap();
        rt.flush_graph().unwrap();
        let lanes: Vec<(usize, Vec<usize>)> = rt
            .graph_schedules()
            .iter()
            .flat_map(|s| s.nodes.iter().map(|nd| (nd.lane, nd.joined.clone())))
            .collect();
        // The schedule names the peer the node kept busy.
        assert_eq!(lanes, [(0, vec![1])]);
        let report = &rt.reports()[0];
        assert_eq!(report.peer_executed_wgs.len(), 1, "the idle peer joins");
        assert!(report.peer_executed_wgs.iter().all(|&wgs| wgs > 0));

        let (mut direct, nd, args) = setup();
        let p = direct.prepare("heavy", nd, &args).unwrap();
        let everywhere = Lanes {
            cpu: true,
            gpu: true,
            peers: direct.healthy_peers(),
        };
        let now = direct.host_clock;
        direct.place(&p, 0, everywhere, now).unwrap();
        let placed = &direct.reports()[0];
        assert_eq!(
            (&report.peer_executed_wgs, report.complete_at),
            (&placed.peer_executed_wgs, placed.complete_at)
        );
    }

    #[test]
    fn a_node_whose_lane_was_lost_runs_on_every_healthy_device() {
        let mut rt = Fluidicl::new(
            MachineConfig::paper_testbed_3dev(),
            FluidiclConfig::default(),
            scale_program(),
        );
        // The lanes a flush planned on, before any loss.
        let peers = rt.healthy_peers();
        let busy = |_| false;
        assert_eq!(rt.node_lanes(&peers, 1, busy), (1, vec![]));
        assert_eq!(rt.node_lanes(&peers, 0, busy), (0, vec![]));
        assert_eq!(rt.node_lanes(&peers, 0, |_| true), (0, vec![1]));
        // A peer lost earlier in the flush hands its node to the CPU and
        // the GPU; without them, lane 0 falls to the first healthy peer.
        rt.roster.lose_peer(1);
        assert_eq!(rt.node_lanes(&peers, 1, busy), (0, vec![]));
        let mut rt = Fluidicl::new(
            MachineConfig::paper_testbed_3dev(),
            FluidiclConfig::default(),
            scale_program(),
        );
        rt.roster.lose_cpu();
        rt.roster.lose_gpu();
        assert_eq!(rt.node_lanes(&peers, 0, busy), (1, vec![]));
        // The flush places the node there, and it validates.
        let n = 1024;
        let (a, b) = (rt.create_buffer(n), rt.create_buffer(n));
        rt.write_buffer(a, &vec![1.0; n]).unwrap();
        let nd = NdRange::d1(n, 64).unwrap();
        rt.enqueue_kernel("scale", nd, &scale_args(a, b, 2.0))
            .unwrap();
        assert_eq!(rt.read_buffer(b).unwrap(), vec![2.0; n]);
        assert!(rt.reports()[0].trace.iter().any(|e| matches!(
            e.kind,
            TraceKind::SoloRun {
                lane: Lane::Peer(1),
                ..
            }
        )));
        // With no device left the node is a typed loss.
        rt.roster.lose_peer(1);
        assert_eq!(rt.node_lanes(&peers, 1, busy), (0, vec![]));
        rt.enqueue_kernel("scale", nd, &scale_args(a, b, 2.0))
            .unwrap();
        assert!(matches!(rt.read_buffer(b), Err(ClError::DeviceLost { .. })));
    }

    #[test]
    fn enqueues_reject_malformed_launches_before_deferring() {
        let mut rt = Fluidicl::new(
            MachineConfig::paper_testbed_3dev(),
            FluidiclConfig::default(),
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
        assert_eq!(errors[0], ClError::UnknownKernel("nope".into()));
        assert!(
            matches!(&errors[1], ClError::ArgMismatch { kernel, .. } if kernel == "scale"),
            "{:?}",
            errors[1]
        );
        assert!(
            matches!(errors[2], ClError::InvalidBuffer(_)),
            "{:?}",
            errors[2]
        );
    }

    #[test]
    fn graph_flush_is_explicit_and_idempotent() {
        let mut rt = Fluidicl::new(
            MachineConfig::paper_testbed_3dev(),
            FluidiclConfig::default(),
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
            FluidiclConfig::default(),
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
    fn a_buffer_created_after_gpu_loss_waits_for_no_gpu_allocation() {
        let n = 4096;
        let scale = |rt: &mut Fluidicl, src, dst| {
            rt.enqueue_kernel(
                "scale",
                NdRange::d1(n, 64).unwrap(),
                &[
                    KernelArg::Buffer(src),
                    KernelArg::Buffer(dst),
                    KernelArg::F32(2.0),
                ],
            )
        };
        // An output buffer created after the first kernel is never
        // host-written, so only its creation could tie it to the dead card.
        // `flush` first runs the kernel explicitly, showing the clocks the
        // creation must see.
        let run = |seed, flush: bool| {
            let plan = FaultPlan::new(FaultKind::GpuLost, seed);
            let mut rt = Fluidicl::new(
                MachineConfig::paper_testbed_3dev(),
                FluidiclConfig::default().with_faults(Some(plan)),
                scale_program(),
            );
            let src = rt.create_buffer(n);
            let mid = rt.create_buffer(n);
            rt.write_buffer(src, &vec![1.0; n]).unwrap();
            scale(&mut rt, src, mid).unwrap();
            if flush {
                rt.flush_graph().unwrap();
            }
            let clocks = (rt.hd_free, rt.host_clock);
            let dst = rt.create_buffer(1 << 22);
            (rt, mid, dst, clocks)
        };
        let seed = (0..16)
            .find(|&seed| !run(seed, false).0.roster().gpu_healthy())
            .expect("some seed loses the primary GPU in the first kernel");
        let (flushed, _, _, (hd_free, host_clock)) = run(seed, true);
        assert_eq!(flushed.hd_free, hd_free, "nothing queues on a dead GPU");
        // The creation alone flushes the kernel and sees the loss.
        let (mut rt, mid, dst, _) = run(seed, false);
        assert_eq!((rt.hd_free, rt.host_clock), (hd_free, host_clock));
        assert_eq!(rt.buffers.state(dst).gpu_ready_at, host_clock);
        scale(&mut rt, mid, dst).unwrap();
        assert_eq!(&rt.read_buffer(dst).unwrap()[..n], &vec![4.0; n][..]);
    }

    #[test]
    fn buffer_pool_reduces_scratch_creation_cost() {
        let run = |pool: bool| {
            let mut rt = Fluidicl::new(
                MachineConfig::paper_testbed(),
                FluidiclConfig::default().with_buffer_pool(pool),
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
            rt.flush_graph().unwrap();
            (rt.elapsed(), rt.pool_stats())
        };
        let (t_pool, s_pool) = run(true);
        let (t_nopool, s_nopool) = run(false);
        assert!(s_pool.hits > 0, "pool must be reused across kernels");
        assert_eq!(s_nopool.hits, 0);
        assert!(t_pool <= t_nopool);
    }
}
