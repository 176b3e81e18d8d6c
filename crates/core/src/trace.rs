//! Execution traces: a per-kernel timeline of every protocol event.
//!
//! FluidiCL's behaviour — waves, subkernels, transfers, aborts, the merge —
//! is an interleaving in time. The co-execution engine records each event
//! with its virtual timestamp, and [`render_timeline`] prints the protocol
//! as it played out, which is how most scheduling questions ("why did the
//! GPU duplicate that range?") get answered.
//!
//! Every co-execution speaks one vocabulary: the owner GPU's wave walk
//! (`Gpu*`, [`TraceKind::MergeDone`]) plus the shared-frontier endpoint
//! events (`Ep*`), where endpoint 0 is the CPU and endpoints 1 and up are
//! peer GPUs. The paper's two-device protocol is the case of a single
//! endpoint, `ep0`.

use std::fmt;

use fluidicl_des::SimTime;
use fluidicl_vcl::DeviceKind;

use crate::coexec::in_flight_window;
use crate::stats::Finisher;

/// Size of the completion-status message sent after each subkernel's data
/// (paper §4.2: subkernel number + boundary). Shared by the coexec engine
/// (which charges it per H2D send) and the protocol linter (which checks
/// transferred bytes against dirty payload + status).
pub const STATUS_MSG_BYTES: u64 = 16;

/// A device one launch can be placed on alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Lane {
    /// The CPU (endpoint 0).
    Cpu,
    /// The primary GPU, the machine's configured owner card.
    Gpu,
    /// Peer GPU endpoint `dev` (1 and up).
    Peer(u32),
}

impl fmt::Display for Lane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lane::Cpu => f.write_str(DeviceKind::Cpu.name()),
            Lane::Gpu => f.write_str(DeviceKind::Gpu.name()),
            Lane::Peer(dev) => write!(f, "ep{dev}"),
        }
    }
}

/// One protocol event of a co-executed kernel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// The host enqueued the kernel: the launch geometry every other event
    /// is judged against. Always the first event of a trace; the protocol
    /// linter reads `total_wgs` from here.
    Enqueued {
        /// Total flattened work-groups of the launch.
        total_wgs: u64,
        /// Whether endpoints pipelined their subkernels; rendered as the
        /// in-flight window (`pipeline depth 2`, or 1 for the serial
        /// protocol). The linter reads this to decide which send-ordering
        /// rules apply.
        pipelined: bool,
    },
    /// The GPU kernel was launched (after scratch setup).
    GpuLaunch,
    /// A GPU wave over flattened work-groups `[from, to)` started.
    GpuWaveStart {
        /// First flattened work-group of the wave.
        from: u64,
        /// One past the last work-group of the wave.
        to: u64,
    },
    /// A wave completed; work-groups `[from, executed_to)` produced results
    /// (the rest had been covered by non-owner data arriving mid-wave).
    GpuWaveDone {
        /// First flattened work-group of the wave.
        from: u64,
        /// One past the last work-group of the wave.
        to: u64,
        /// One past the last work-group that actually wrote results.
        executed_to: u64,
    },
    /// A running wave aborted at an in-loop check: the non-owners had
    /// already covered everything from the wave's start (paper §6.4).
    GpuWaveAborted {
        /// First flattened work-group of the aborted wave.
        from: u64,
        /// One past the last work-group of the aborted wave.
        to: u64,
    },
    /// The GPU kernel exited (reached the watermark).
    GpuExit,
    /// The diff-merge kernel finished on the GPU (paper §4.3).
    MergeDone,
    /// The kernel completed from the host's perspective.
    KernelComplete {
        /// Which device established the final data.
        finisher: Finisher,
    },
    /// The acting owner GPU missed a wave watchdog deadline and was
    /// declared lost: a surviving peer is promoted, or the non-owners
    /// finish the range alone.
    OwnerLost,
    /// One device executed work-groups `[from, to)` alone: a launch placed
    /// on a single healthy lane — a degraded run after permanent losses,
    /// or a graph node placed on a peer lane.
    SoloRun {
        /// The device that ran the span.
        lane: Lane,
        /// Node index within the flushed kernel graph (enqueue order) when
        /// a graph flush placed the run; `None` for an eager launch.
        node: Option<u32>,
        /// First flattened work-group of the run.
        from: u64,
        /// One past the last work-group of the run.
        to: u64,
    },
    /// A non-owner endpoint launched a subkernel over a range it claimed
    /// from the shared frontier. Endpoint 0 is the CPU; endpoints 1 and up
    /// are peer GPUs.
    EpSubkernelStart {
        /// Endpoint index (0 = CPU, 1.. = peer GPUs).
        dev: u32,
        /// First flattened work-group of the subkernel.
        from: u64,
        /// One past the last work-group of the subkernel.
        to: u64,
        /// Kernel version index used (paper §6.6).
        version: usize,
    },
    /// A non-owner endpoint's subkernel finished computing.
    EpSubkernelDone {
        /// Endpoint index.
        dev: u32,
        /// First flattened work-group of the subkernel.
        from: u64,
        /// One past the last work-group of the subkernel.
        to: u64,
    },
    /// A non-owner endpoint enqueued results + one status message on its
    /// own upstream link (paper §5.4). One subkernel is the plain send;
    /// several are a coalesced batch (pipelined runs only), whose dirty
    /// ranges are unioned into one payload.
    EpSend {
        /// Endpoint index.
        dev: u32,
        /// Completion boundary the status message carries — the lowest
        /// `from` of the batched subkernels.
        boundary: u64,
        /// Payload size in bytes.
        bytes: u64,
        /// Unioned dirty payload in bytes when dirty-range transfers are
        /// on (`bytes` must equal this plus [`STATUS_MSG_BYTES`]); `None`
        /// under the whole-buffer protocol.
        dirty_bytes: Option<u64>,
        /// How many completed subkernels the send carries (≥ 1).
        subkernels: u32,
    },
    /// A non-owner endpoint's status message reached the owner: the send's
    /// ranges joined the coverage set, whose contiguous top suffix is the
    /// owner's new watermark (with one endpoint, the paper's §4.2
    /// boundary watermark).
    EpStatus {
        /// Endpoint index the status came from.
        dev: u32,
        /// Boundary the status message carried.
        boundary: u64,
        /// Owner watermark after folding this arrival into coverage.
        watermark: u64,
    },
    /// A non-owner endpoint's transfer attempt failed transiently and will
    /// be retried after a backoff.
    EpTransferFault {
        /// Endpoint index.
        dev: u32,
        /// Boundary the failed send carried.
        boundary: u64,
        /// 1-based attempt number that failed.
        attempt: u32,
    },
    /// A non-owner endpoint's delivered transfer failed its checksum and
    /// was rejected; the endpoint resends.
    EpTransferRejected {
        /// Endpoint index.
        dev: u32,
        /// Boundary the rejected send carried.
        boundary: u64,
    },
    /// A non-owner endpoint's transfer missed its watchdog deadline: that
    /// endpoint's link is abandoned (the other endpoints keep working).
    EpTransferTimeout {
        /// Endpoint index.
        dev: u32,
        /// Boundary the stalled send carried.
        boundary: u64,
    },
    /// A non-owner endpoint missed a subkernel watchdog deadline and was
    /// declared lost; its claimed-but-unshipped ranges return to the
    /// frontier for the survivors.
    NonOwnerLost {
        /// Endpoint index that died.
        dev: u32,
    },
    /// A surviving peer GPU was promoted to owner after the acting owner
    /// missed a wave watchdog: ownership migrated under a new epoch, the
    /// promoted peer inherited the coverage map, and its un-acked claims
    /// returned to the frontier.
    OwnerPromoted {
        /// Endpoint index of the promoted peer.
        dev: u32,
        /// Ownership epoch that begins with this promotion (the primary
        /// owner is epoch 0).
        epoch: u32,
    },
    /// The acting owner rejected a status whose send was enqueued under an
    /// older ownership epoch: the data went to a dead owner, so its ranges
    /// never join coverage (the new owner's wave walk re-covers them).
    EpochRejected {
        /// Endpoint whose stale send was rejected.
        dev: u32,
        /// Boundary the stale send carried.
        boundary: u64,
    },
    // Retired two-device vocabulary. Co-execution records the CPU as
    // endpoint 0 of the `Ep*` family, so none of these is ever emitted and
    // the linter rejects them; they remain only so that code matching on
    // them keeps compiling. The fieldless ones keep a braced shape because
    // that code matches them as `{ .. }`, which a unit variant would turn
    // into a clippy error.
    /// Retired: the CPU's subkernel start is [`TraceKind::EpSubkernelStart`]
    /// with `dev` 0.
    CpuSubkernelStart {
        /// First flattened work-group of the subkernel.
        from: u64,
        /// One past the last work-group of the subkernel.
        to: u64,
    },
    /// Retired: the CPU's subkernel completion is
    /// [`TraceKind::EpSubkernelDone`] with `dev` 0.
    CpuSubkernelDone {
        /// First flattened work-group of the subkernel.
        from: u64,
        /// One past the last work-group of the subkernel.
        to: u64,
    },
    /// Retired: every send, plain or coalesced, is [`TraceKind::EpSend`].
    HdEnqueued {},
    /// Retired: every send, plain or coalesced, is [`TraceKind::EpSend`].
    CoalescedSend {},
}

impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceKind::Enqueued {
                total_wgs,
                pipelined,
            } => write!(
                f,
                "[all] kernel enqueued ({total_wgs} work-groups, pipeline depth {})",
                in_flight_window(*pipelined)
            ),
            TraceKind::GpuLaunch => write!(f, "[gpu] kernel launched"),
            TraceKind::GpuWaveStart { from, to } => {
                write!(f, "[gpu] wave {from}..{to} start")
            }
            TraceKind::GpuWaveDone {
                from,
                to,
                executed_to,
            } => {
                if executed_to == to {
                    write!(f, "[gpu] wave {from}..{to} done")
                } else {
                    write!(
                        f,
                        "[gpu] wave {from}..{to} done (wrote {from}..{executed_to}, rest covered by non-owners)"
                    )
                }
            }
            TraceKind::GpuWaveAborted { from, to } => {
                write!(f, "[gpu] wave {from}..{to} ABORTED (non-owners covered it)")
            }
            TraceKind::GpuExit => write!(f, "[gpu] kernel exit"),
            TraceKind::MergeDone => write!(f, "[gpu] diff-merge done"),
            TraceKind::KernelComplete { finisher } => {
                write!(f, "[all] kernel complete (finished by {finisher:?})")
            }
            TraceKind::OwnerLost => write!(f, "[flt] owner gpu lost (watchdog deadline missed)"),
            TraceKind::SoloRun {
                lane,
                node,
                from,
                to,
            } => match node {
                None => write!(f, "[deg] {lane} finishing {from}..{to} alone"),
                Some(node) => write!(f, "[gph] node {node} ran {from}..{to} on {lane}"),
            },
            TraceKind::EpSubkernelStart {
                dev,
                from,
                to,
                version,
            } => {
                write!(
                    f,
                    "[ep{dev}] subkernel {from}..{to} start (version {version})"
                )
            }
            TraceKind::EpSubkernelDone { dev, from, to } => {
                write!(f, "[ep{dev}] subkernel {from}..{to} done")
            }
            TraceKind::EpSend {
                dev,
                boundary,
                bytes,
                dirty_bytes,
                subkernels,
            } => {
                write!(f, "[ep{dev}] data+status enqueued (")?;
                if *subkernels != 1 {
                    write!(f, "{subkernels} subkernels, ")?;
                }
                write!(f, "boundary {boundary}, {bytes} B")?;
                if let Some(d) = dirty_bytes {
                    write!(f, ", dirty {d} B")?;
                }
                write!(f, ")")
            }
            TraceKind::EpStatus {
                dev,
                boundary,
                watermark,
            } => {
                write!(
                    f,
                    "[ep{dev}] status arrived (boundary {boundary}): watermark -> {watermark}"
                )
            }
            TraceKind::EpTransferFault {
                dev,
                boundary,
                attempt,
            } => {
                write!(
                    f,
                    "[flt] ep{dev} transfer for boundary {boundary} failed (attempt {attempt}), retrying"
                )
            }
            TraceKind::EpTransferRejected { dev, boundary } => {
                write!(
                    f,
                    "[flt] ep{dev} transfer for boundary {boundary} failed checksum, resending"
                )
            }
            TraceKind::EpTransferTimeout { dev, boundary } => {
                write!(
                    f,
                    "[flt] ep{dev} transfer for boundary {boundary} missed its deadline, link abandoned"
                )
            }
            TraceKind::NonOwnerLost { dev } => {
                write!(f, "[flt] ep{dev} lost (watchdog deadline missed)")
            }
            TraceKind::OwnerPromoted { dev, epoch } => {
                write!(f, "[flt] ep{dev} promoted to owner (epoch {epoch})")
            }
            TraceKind::EpochRejected { dev, boundary } => {
                write!(
                    f,
                    "[flt] ep{dev} status for boundary {boundary} rejected (stale epoch)"
                )
            }
            TraceKind::CpuSubkernelStart { .. }
            | TraceKind::CpuSubkernelDone { .. }
            | TraceKind::HdEnqueued {}
            | TraceKind::CoalescedSend {} => write!(f, "[old] retired event {self:?}"),
        }
    }
}

/// A timestamped protocol event.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Virtual time of the event.
    pub at: SimTime,
    /// What happened.
    pub kind: TraceKind,
}

/// Renders a kernel's trace as a chronological text timeline.
///
/// # Examples
///
/// ```
/// use fluidicl::{render_timeline, TraceEvent, TraceKind};
/// use fluidicl_des::SimTime;
///
/// let events = vec![TraceEvent {
///     at: SimTime::from_nanos(1_000),
///     kind: TraceKind::GpuLaunch,
/// }];
/// let text = render_timeline("syrk", &events);
/// assert!(text.contains("syrk"));
/// assert!(text.contains("kernel launched"));
/// ```
pub fn render_timeline(kernel: &str, events: &[TraceEvent]) -> String {
    let mut out = format!("timeline of `{kernel}` ({} events)\n", events.len());
    let t0 = events.first().map_or(SimTime::ZERO, |e| e.at);
    for e in events {
        let rel = e.at.saturating_since(t0);
        out.push_str(&format!(
            "  +{:>10.3}us  {}\n",
            rel.as_nanos() as f64 / 1e3,
            e.kind
        ));
    }
    out
}

/// Renders a compact per-lane utilization view of a kernel's trace: one
/// lane for the owner GPU, one for the non-owner endpoints' compute and one
/// for their upstream links, each event bucketed into a fixed-width strip.
/// Coarser than [`render_timeline`] but shows overlap at a glance.
///
/// # Examples
///
/// ```
/// use fluidicl::{render_lanes, TraceEvent, TraceKind};
/// use fluidicl_des::SimTime;
///
/// let events = vec![
///     TraceEvent { at: SimTime::from_nanos(0), kind: TraceKind::GpuLaunch },
///     TraceEvent { at: SimTime::from_nanos(500), kind: TraceKind::GpuExit },
/// ];
/// let text = render_lanes("k", &events, 40);
/// assert!(text.contains("gpu"));
/// ```
pub fn render_lanes(kernel: &str, events: &[TraceEvent], width: usize) -> String {
    let width = width.max(10);
    let (Some(first), Some(last)) = (events.first(), events.last()) else {
        return format!("lanes of `{kernel}`: no events\n");
    };
    let t0 = first.at;
    let span = last.at.saturating_since(t0).as_nanos().max(1);
    let mut gpu = vec![' '; width];
    let mut cpu = vec![' '; width];
    let mut hd = vec![' '; width];
    let bucket = |at: SimTime| -> usize {
        let rel = at.saturating_since(t0).as_nanos();
        (((rel as u128 * (width as u128 - 1)) / span as u128) as usize).min(width - 1)
    };
    for e in events {
        let b = bucket(e.at);
        match &e.kind {
            // The enqueue is a host-side bookkeeping event with no lane, and
            // retired events are never recorded.
            TraceKind::Enqueued { .. }
            | TraceKind::CpuSubkernelStart { .. }
            | TraceKind::CpuSubkernelDone { .. }
            | TraceKind::HdEnqueued {}
            | TraceKind::CoalescedSend {} => {}
            TraceKind::GpuLaunch => gpu[b] = 'L',
            TraceKind::GpuWaveStart { .. } => gpu[b] = '[',
            TraceKind::GpuWaveDone { .. } => gpu[b] = ']',
            TraceKind::GpuWaveAborted { .. } => gpu[b] = 'x',
            TraceKind::GpuExit => gpu[b] = 'E',
            TraceKind::MergeDone => gpu[b] = 'M',
            TraceKind::KernelComplete { .. } => gpu[b] = '!',
            TraceKind::OwnerLost => gpu[b] = 'X',
            // A solo run occupies its device's lane: `D` for a degraded
            // run, `G` for a graph node; peer GPUs draw on the gpu lane.
            TraceKind::SoloRun { lane, node, .. } => {
                let mark = if node.is_some() { 'G' } else { 'D' };
                match lane {
                    Lane::Cpu => cpu[b] = mark,
                    Lane::Gpu | Lane::Peer(_) => gpu[b] = mark,
                }
            }
            // Every non-owner endpoint computes on the cpu lane and ships
            // on the hd lane.
            TraceKind::EpSubkernelStart { .. } => cpu[b] = '[',
            TraceKind::EpSubkernelDone { .. } => cpu[b] = ']',
            TraceKind::EpSend { .. } => hd[b] = '>',
            TraceKind::EpStatus { .. } => hd[b] = '*',
            TraceKind::EpTransferFault { .. } => hd[b] = 'f',
            TraceKind::EpTransferRejected { .. } => hd[b] = 'r',
            TraceKind::EpTransferTimeout { .. } => hd[b] = 'T',
            TraceKind::NonOwnerLost { .. } => cpu[b] = 'X',
            // Failover vocabulary: the promoted peer takes over the gpu
            // (owner) lane; a stale-epoch rejection is link traffic.
            TraceKind::OwnerPromoted { .. } => gpu[b] = 'P',
            TraceKind::EpochRejected { .. } => hd[b] = 'e',
        }
    }
    let lane =
        |name: &str, cells: &[char]| format!("  {name:4}|{}|\n", cells.iter().collect::<String>());
    let mut out = format!(
        "lanes of `{kernel}` over {:.1}us ([ start, ] done, x abort, > send, * status, M merge, ! complete)\n",
        span as f64 / 1e3
    );
    out.push_str(&lane("gpu", &gpu));
    out.push_str(&lane("cpu", &cpu));
    out.push_str(&lane("hd", &hd));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ns: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            at: SimTime::from_nanos(ns),
            kind,
        }
    }

    #[test]
    fn display_covers_every_variant() {
        let kinds = vec![
            TraceKind::Enqueued {
                total_wgs: 120,
                pipelined: true,
            },
            TraceKind::GpuLaunch,
            TraceKind::GpuWaveStart { from: 0, to: 84 },
            TraceKind::GpuWaveDone {
                from: 0,
                to: 84,
                executed_to: 84,
            },
            TraceKind::GpuWaveDone {
                from: 84,
                to: 120,
                executed_to: 100,
            },
            TraceKind::GpuWaveAborted { from: 84, to: 120 },
            TraceKind::GpuExit,
            TraceKind::MergeDone,
            TraceKind::KernelComplete {
                finisher: Finisher::Gpu,
            },
            TraceKind::OwnerLost,
            TraceKind::SoloRun {
                lane: Lane::Cpu,
                node: None,
                from: 0,
                to: 120,
            },
            TraceKind::EpSubkernelStart {
                dev: 1,
                from: 100,
                to: 150,
                version: 0,
            },
            TraceKind::EpSubkernelDone {
                dev: 1,
                from: 100,
                to: 150,
            },
            TraceKind::EpSend {
                dev: 1,
                boundary: 100,
                bytes: 2048 + STATUS_MSG_BYTES,
                dirty_bytes: Some(2048),
                subkernels: 1,
            },
            TraceKind::EpSend {
                dev: 0,
                boundary: 150,
                bytes: 4096,
                dirty_bytes: None,
                subkernels: 2,
            },
            TraceKind::EpStatus {
                dev: 1,
                boundary: 100,
                watermark: 100,
            },
            TraceKind::EpTransferFault {
                dev: 1,
                boundary: 100,
                attempt: 1,
            },
            TraceKind::EpTransferRejected {
                dev: 1,
                boundary: 100,
            },
            TraceKind::EpTransferTimeout {
                dev: 1,
                boundary: 100,
            },
            TraceKind::NonOwnerLost { dev: 1 },
            TraceKind::OwnerPromoted { dev: 1, epoch: 1 },
            TraceKind::EpochRejected {
                dev: 0,
                boundary: 100,
            },
            TraceKind::SoloRun {
                lane: Lane::Peer(2),
                node: Some(1),
                from: 0,
                to: 120,
            },
            TraceKind::CpuSubkernelStart { from: 0, to: 8 },
            TraceKind::CpuSubkernelDone { from: 0, to: 8 },
            TraceKind::HdEnqueued {},
            TraceKind::CoalescedSend {},
        ];
        for k in kinds {
            assert!(!k.to_string().is_empty());
        }
    }

    #[test]
    fn graph_run_renders_node_and_endpoint() {
        let k = TraceKind::SoloRun {
            lane: Lane::Peer(1),
            node: Some(3),
            from: 0,
            to: 64,
        };
        assert_eq!(k.to_string(), "[gph] node 3 ran 0..64 on ep1");
        let events = vec![ev(0, TraceKind::GpuLaunch), ev(100, k)];
        let text = render_lanes("k", &events, 40);
        assert!(text.contains('G'), "graph run marks the gpu lane: {text}");
    }

    #[test]
    fn failover_events_render_with_their_devices() {
        assert_eq!(
            TraceKind::OwnerPromoted { dev: 2, epoch: 1 }.to_string(),
            "[flt] ep2 promoted to owner (epoch 1)"
        );
        assert_eq!(
            TraceKind::EpochRejected {
                dev: 0,
                boundary: 48
            }
            .to_string(),
            "[flt] ep0 status for boundary 48 rejected (stale epoch)"
        );
        assert_eq!(
            TraceKind::SoloRun {
                lane: Lane::Peer(1),
                node: None,
                from: 0,
                to: 64
            }
            .to_string(),
            "[deg] ep1 finishing 0..64 alone"
        );
        assert_eq!(
            TraceKind::SoloRun {
                lane: Lane::Cpu,
                node: None,
                from: 0,
                to: 64
            }
            .to_string(),
            "[deg] CPU finishing 0..64 alone"
        );
        let events = vec![
            ev(0, TraceKind::OwnerPromoted { dev: 1, epoch: 1 }),
            ev(
                100,
                TraceKind::EpochRejected {
                    dev: 0,
                    boundary: 48,
                },
            ),
        ];
        let text = render_lanes("k", &events, 40);
        assert!(text.contains('P'), "promotion marks the gpu lane: {text}");
        assert!(text.contains('e'), "rejection marks the hd lane: {text}");
    }

    #[test]
    fn sends_render_batch_size_and_dirty_payload() {
        let batch = TraceKind::EpSend {
            dev: 1,
            boundary: 8,
            bytes: 128 + STATUS_MSG_BYTES,
            dirty_bytes: Some(128),
            subkernels: 2,
        };
        assert_eq!(
            batch.to_string(),
            "[ep1] data+status enqueued (2 subkernels, boundary 8, 144 B, dirty 128 B)"
        );
        let plain = TraceKind::EpSend {
            dev: 0,
            boundary: 3,
            bytes: 80,
            dirty_bytes: None,
            subkernels: 1,
        };
        assert_eq!(
            plain.to_string(),
            "[ep0] data+status enqueued (boundary 3, 80 B)"
        );
        let status = TraceKind::EpStatus {
            dev: 0,
            boundary: 8,
            watermark: 8,
        };
        assert_eq!(
            status.to_string(),
            "[ep0] status arrived (boundary 8): watermark -> 8"
        );
        assert_eq!(
            TraceKind::Enqueued {
                total_wgs: 16,
                pipelined: false,
            }
            .to_string(),
            "[all] kernel enqueued (16 work-groups, pipeline depth 1)"
        );
    }

    #[test]
    fn timeline_is_relative_to_first_event() {
        let events = vec![
            ev(5_000, TraceKind::GpuLaunch),
            ev(8_000, TraceKind::GpuExit),
        ];
        let text = render_timeline("k", &events);
        assert!(text.contains("+     0.000us"), "{text}");
        assert!(text.contains("+     3.000us"), "{text}");
    }

    #[test]
    fn lanes_render_all_actors() {
        let events = vec![
            ev(
                0,
                TraceKind::EpSubkernelStart {
                    dev: 0,
                    from: 8,
                    to: 16,
                    version: 0,
                },
            ),
            ev(
                100,
                TraceKind::EpSubkernelDone {
                    dev: 0,
                    from: 8,
                    to: 16,
                },
            ),
            ev(
                120,
                TraceKind::EpSend {
                    dev: 0,
                    boundary: 8,
                    bytes: 64,
                    dirty_bytes: None,
                    subkernels: 1,
                },
            ),
            ev(200, TraceKind::GpuLaunch),
            ev(
                300,
                TraceKind::EpStatus {
                    dev: 0,
                    boundary: 8,
                    watermark: 8,
                },
            ),
            ev(400, TraceKind::GpuExit),
            ev(
                500,
                TraceKind::KernelComplete {
                    finisher: Finisher::Gpu,
                },
            ),
        ];
        let text = render_lanes("k", &events, 50);
        assert!(text.contains("gpu"), "{text}");
        assert!(text.contains('*'), "status marker missing: {text}");
        assert!(text.contains('>'), "send marker missing: {text}");
        assert!(text.contains('!'), "complete marker missing: {text}");
    }

    #[test]
    fn lanes_handle_empty_trace() {
        assert!(render_lanes("k", &[], 40).contains("no events"));
    }

    #[test]
    fn fault_events_render_with_their_own_markers() {
        let events = vec![
            ev(
                0,
                TraceKind::EpTransferFault {
                    dev: 0,
                    boundary: 8,
                    attempt: 1,
                },
            ),
            ev(100, TraceKind::OwnerLost),
            ev(
                200,
                TraceKind::SoloRun {
                    lane: Lane::Cpu,
                    node: None,
                    from: 0,
                    to: 16,
                },
            ),
            ev(300, TraceKind::NonOwnerLost { dev: 1 }),
        ];
        let text = render_lanes("k", &events, 40);
        assert!(text.contains('f'), "fault marker missing: {text}");
        assert!(text.contains('X'), "loss marker missing: {text}");
        assert!(text.contains('D'), "degraded marker missing: {text}");
        assert!(text.starts_with(
            "lanes of `k` over 0.3us ([ start, ] done, x abort, > send, * status, M merge, ! complete)\n"
        ));
    }

    #[test]
    fn partial_wave_mentions_non_owner_coverage() {
        let k = TraceKind::GpuWaveDone {
            from: 0,
            to: 10,
            executed_to: 7,
        };
        assert!(k.to_string().contains("covered by non-owners"));
    }
}
