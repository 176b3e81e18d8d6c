//! One fold over a co-executed kernel's trace: the protocol facts both
//! trace checkers build on.
//!
//! [`Replay::step`] consumes the trace one [`TraceEvent`] at a time and
//! returns a [`Step`]: what the event *means* on its endpoint's in-order
//! queue — which completed subkernels a send carries, which send a status
//! acknowledges, which send a fault voids. It keeps the running state: the
//! frontier top and live claims, per-endpoint completions and sends, the
//! recomputed [`Coverage`], the reported watermark, the epoch and the
//! report totals. The protocol linter checks its rules against each event,
//! step and state; the race checker maps them to happens-before edges.
//! The pairing rule, stated once:
//!
//! * **Ship.** An `EpSend` of `k` subkernels is a *fresh batch* — the
//!   endpoint's `k` oldest unshipped completions, whose lowest `from` is
//!   the boundary — or a *re-send* repeating the boundary and `k` of a
//!   voided send of that endpoint. Anything else is unpaired.
//! * **Void.** A transfer fault, rejection or timeout, or a stale-epoch
//!   rejection, voids the live send of that endpoint with its boundary.
//! * **Ack.** An `EpStatus` acks the live send with its boundary and
//!   credits its ranges to coverage. It may skip the endpoint's oldest
//!   live send only while a voided send of that endpoint awaits its re-ack
//!   (the receiver buffers later statuses behind such a hole).
//! * **Promote.** `OwnerPromoted` un-credits the promoted endpoint's acked
//!   sends and rebuilds coverage, and the watermark, from the rest.

use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;

use fluidicl_des::SimTime;

use crate::frontier::Coverage;
use crate::stats::Finisher;
use crate::trace::{Lane, TraceEvent, TraceKind};

/// What the fold decided about one event, beyond the event itself. A
/// field an event's kind does not name keeps its default.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Step {
    /// `EpSend`: the send it enqueued. `EpStatus`: the live send it acked.
    /// A fault, rejection, timeout or `EpochRejected`: the live send it
    /// voided. `None` when no live send carries the boundary.
    pub send: Option<usize>,
    /// `EpSend`: neither a fresh batch nor a re-send, so it carries
    /// nothing. `EpStatus`: it skipped an older live send while no hole
    /// was open.
    pub unpaired: bool,
    /// `EpSubkernelStart`/`EpSubkernelDone`: the subkernel that was running
    /// on that endpoint.
    pub running: Option<(u64, u64)>,
    /// `EpSubkernelStart`: the frontier top the claim had to end at, while
    /// the descent is exact (no loss or promotion returned ranges yet).
    pub top: Option<u64>,
    /// `NonOwnerLost`/`OwnerPromoted`: the endpoint was already lost, or
    /// already promoted.
    pub again: bool,
}

/// Where a send stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendState {
    /// Enqueued, not yet acked or voided.
    Live,
    /// Its status was accepted: its ranges are credited to coverage.
    Acked,
    /// Damaged or rejected: it delivered nothing.
    Voided,
    /// Acked, then rolled back when its endpoint was promoted to owner.
    Uncredited,
}

/// One enqueued send.
#[derive(Clone, Debug)]
pub struct Send {
    /// Endpoint index.
    pub dev: u32,
    /// Boundary the send carries.
    boundary: u64,
    /// Indices into its endpoint's completions, in completion order, that it
    /// carries.
    pub subs: Range<usize>,
    /// Where it stands.
    pub state: SendState,
}

/// Per-endpoint replay state.
#[derive(Clone, Debug, Default)]
pub struct Endpoint {
    /// The subkernel running now.
    pub(crate) running: Option<(u64, u64)>,
    /// Completed subkernels `(at, from, to)` in completion order.
    pub(crate) done: Vec<(SimTime, u64, u64)>,
    /// How many completions fresh batches have shipped.
    shipped: usize,
    /// Live sends, oldest first (indices into [`Replay::sends`]).
    live: VecDeque<usize>,
    /// Voided sends whose batch has not been acked since.
    holes: Vec<usize>,
    /// Declared lost.
    pub lost: bool,
    /// Promoted to owner.
    pub promoted: bool,
}

/// Counters the kernel report must agree with.
#[derive(Clone, Debug, Default)]
pub(crate) struct Totals {
    /// Work-groups owner waves and GPU solo spans executed.
    pub gpu_wgs: u64,
    /// Work-groups the CPU (endpoint 0) executed.
    pub cpu_wgs: u64,
    /// Work-groups peer endpoints executed.
    pub peer_wgs: u64,
    /// Subkernels launched.
    pub subkernels: u64,
    /// Bytes shipped by every send.
    pub hd_bytes: u64,
    /// Some device was declared lost.
    pub device_lost: bool,
}

/// The running state of the fold. Only [`Replay::step`] changes it; the
/// race checker reads the sends, the endpoints and the watermark.
#[derive(Clone, Debug)]
pub struct Replay {
    /// Work-groups of the launch.
    pub(crate) total: u64,
    /// Top of the frontier's untouched region.
    pub(crate) frontier_top: u64,
    /// Whether every claim must still end at `frontier_top`: false once a
    /// loss or a promotion returned ranges to the frontier.
    pub(crate) exact_descent: bool,
    /// Claims `(from, to, dev)` of endpoints neither lost nor promoted.
    pub(crate) claims: Vec<(u64, u64, u32)>,
    /// Per-endpoint state, by endpoint index.
    pub eps: BTreeMap<u32, Endpoint>,
    /// Every send in enqueue order.
    pub sends: Vec<Send>,
    /// Ranges of the credited sends.
    pub(crate) coverage: Coverage,
    /// Lowest watermark reported since the last promotion, which resets it
    /// to the rebuilt coverage's suffix (the engine's un-credit).
    pub watermark: u64,
    /// Promotions so far.
    pub(crate) epoch: u32,
    /// How many completion records the trace holds.
    pub(crate) completions: usize,
    /// The last completion record `(at, finisher)`.
    pub(crate) complete: Option<(SimTime, Finisher)>,
    /// Report counters.
    pub(crate) totals: Totals,
}

impl Replay {
    /// A fold over a launch of `total` work-groups.
    pub fn new(total: u64) -> Self {
        Replay {
            total,
            frontier_top: total,
            exact_descent: true,
            claims: Vec::new(),
            eps: BTreeMap::new(),
            sends: Vec::new(),
            coverage: Coverage::new(total),
            watermark: total,
            epoch: 0,
            completions: 0,
            complete: None,
            totals: Totals::default(),
        }
    }

    /// Folds one event into the state and says what the fold decided.
    pub fn step(&mut self, e: &TraceEvent) -> Step {
        let mut step = Step::default();
        match e.kind {
            TraceKind::GpuWaveDone {
                from, executed_to, ..
            } => self.totals.gpu_wgs += executed_to.saturating_sub(from),
            TraceKind::SoloRun { lane, from, to, .. } => {
                *self.executed(lane) += to.saturating_sub(from);
            }
            TraceKind::KernelComplete { finisher } => {
                self.completions += 1;
                self.complete = Some((e.at, finisher));
            }
            TraceKind::OwnerLost => self.totals.device_lost = true,
            TraceKind::EpSubkernelStart { dev, from, to, .. } => {
                self.totals.subkernels += 1;
                step.top = self.exact_descent.then_some(self.frontier_top);
                self.frontier_top = self.frontier_top.min(from);
                self.claims.push((from, to, dev));
                step.running = self.eps.entry(dev).or_default().running.replace((from, to));
            }
            TraceKind::EpSubkernelDone { dev, from, to } => {
                let lane = if dev == 0 { Lane::Cpu } else { Lane::Peer(dev) };
                *self.executed(lane) += to.saturating_sub(from);
                let ep = self.eps.entry(dev).or_default();
                ep.done.push((e.at, from, to));
                step.running = ep.running.take();
            }
            TraceKind::EpSend {
                dev,
                boundary,
                bytes,
                subkernels,
                ..
            } => {
                self.totals.hd_bytes += bytes;
                let k = subkernels as usize;
                let ep = self.eps.entry(dev).or_default();
                let fresh = ep.shipped..ep.shipped + k;
                let subs = if ep
                    .done
                    .get(fresh.clone())
                    .and_then(|b| b.iter().map(|d| d.1).min())
                    == Some(boundary)
                {
                    ep.shipped = fresh.end;
                    fresh
                } else if let Some(v) = ep
                    .holes
                    .iter()
                    .map(|&v| &self.sends[v])
                    .find(|v| v.boundary == boundary && v.subs.len() == k)
                {
                    v.subs.clone()
                } else {
                    step.unpaired = true;
                    ep.shipped..ep.shipped
                };
                step.send = Some(self.sends.len());
                ep.live.push_back(self.sends.len());
                self.sends.push(Send {
                    dev,
                    boundary,
                    subs,
                    state: SendState::Live,
                });
            }
            TraceKind::EpStatus {
                dev,
                boundary,
                watermark,
            } => {
                self.watermark = self.watermark.min(watermark);
                let ep = self.eps.entry(dev).or_default();
                let taken = take_live(&mut ep.live, &self.sends, boundary);
                step.unpaired = taken.is_some_and(|(at, _)| at > 0) && ep.holes.is_empty();
                step.send = taken.map(|(_, s)| s);
                if let Some(s) = step.send {
                    let subs = self.sends[s].subs.clone();
                    self.sends[s].state = SendState::Acked;
                    ep.holes.retain(|&v| self.sends[v].subs != subs);
                    credit(&mut self.coverage, self.total, &ep.done[subs]);
                }
            }
            TraceKind::EpTransferFault { dev, boundary, .. }
            | TraceKind::EpTransferRejected { dev, boundary }
            | TraceKind::EpTransferTimeout { dev, boundary }
            | TraceKind::EpochRejected { dev, boundary } => {
                let ep = self.eps.entry(dev).or_default();
                step.send = take_live(&mut ep.live, &self.sends, boundary).map(|(_, s)| s);
                if let Some(s) = step.send {
                    self.sends[s].state = SendState::Voided;
                    ep.holes.push(s);
                }
            }
            TraceKind::NonOwnerLost { dev } => {
                self.totals.device_lost = true;
                self.return_claims(dev);
                step.again = std::mem::replace(&mut self.eps.entry(dev).or_default().lost, true);
            }
            TraceKind::OwnerPromoted { dev, .. } => {
                self.return_claims(dev);
                let ep = self.eps.entry(dev).or_default();
                step.again = ep.lost || std::mem::replace(&mut ep.promoted, true);
                self.epoch += 1;
                let mut coverage = Coverage::new(self.total);
                for s in &mut self.sends {
                    if s.state == SendState::Acked && s.dev == dev {
                        s.state = SendState::Uncredited;
                    } else if s.state == SendState::Acked {
                        credit(
                            &mut coverage,
                            self.total,
                            &self.eps[&s.dev].done[s.subs.clone()],
                        );
                    }
                }
                self.watermark = coverage.suffix_start();
                self.coverage = coverage;
            }
            TraceKind::Enqueued { .. }
            | TraceKind::GpuLaunch
            | TraceKind::GpuWaveStart { .. }
            | TraceKind::GpuWaveAborted { .. }
            | TraceKind::GpuExit
            | TraceKind::MergeDone
            | TraceKind::CpuSubkernelStart { .. }
            | TraceKind::CpuSubkernelDone { .. }
            | TraceKind::HdEnqueued {}
            | TraceKind::CoalescedSend {} => {}
        }
        step
    }

    /// A loss or promotion returns the endpoint's claims to the frontier:
    /// the survivors may claim them again.
    fn return_claims(&mut self, dev: u32) {
        self.exact_descent = false;
        self.claims.retain(|c| c.2 != dev);
    }

    fn executed(&mut self, lane: Lane) -> &mut u64 {
        match lane {
            Lane::Gpu => &mut self.totals.gpu_wgs,
            Lane::Cpu => &mut self.totals.cpu_wgs,
            Lane::Peer(_) => &mut self.totals.peer_wgs,
        }
    }
}

/// Takes the oldest live send carrying `boundary` off an endpoint's queue:
/// its queue position and its index into `sends`.
fn take_live(live: &mut VecDeque<usize>, sends: &[Send], boundary: u64) -> Option<(usize, usize)> {
    let at = live.iter().position(|&s| sends[s].boundary == boundary)?;
    Some((at, live.remove(at)?))
}

/// Credits completed subkernels to `coverage`. Out-of-bounds ranges were
/// reported at their claim and never enter it (its bounds are asserted).
fn credit(coverage: &mut Coverage, total: u64, done: &[(SimTime, u64, u64)]) {
    for &(_, f, t) in done {
        if f < t && t <= total {
            coverage.add(f, t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: TraceKind) -> TraceEvent {
        TraceEvent {
            at: SimTime::ZERO,
            kind,
        }
    }

    fn fold(r: &mut Replay, kinds: Vec<TraceKind>) -> Vec<Step> {
        kinds.into_iter().map(|k| r.step(&ev(k))).collect()
    }

    fn claim_done(dev: u32, from: u64, to: u64) -> Vec<TraceKind> {
        vec![
            TraceKind::EpSubkernelStart {
                dev,
                from,
                to,
                version: 0,
            },
            TraceKind::EpSubkernelDone { dev, from, to },
        ]
    }

    fn send(dev: u32, boundary: u64) -> TraceKind {
        TraceKind::EpSend {
            dev,
            boundary,
            bytes: 64,
            dirty_bytes: None,
            subkernels: 1,
        }
    }

    fn status(dev: u32, boundary: u64, watermark: u64) -> TraceKind {
        TraceKind::EpStatus {
            dev,
            boundary,
            watermark,
        }
    }

    fn fault(dev: u32, boundary: u64) -> TraceKind {
        TraceKind::EpTransferFault {
            dev,
            boundary,
            attempt: 1,
        }
    }

    #[test]
    fn a_resend_repeats_the_voided_batch_and_its_status_acks_it() {
        let mut r = Replay::new(4);
        fold(&mut r, claim_done(0, 3, 4));
        let steps = fold(
            &mut r,
            vec![send(0, 3), fault(0, 3), send(0, 3), status(0, 3, 3)],
        );
        assert_eq!(steps[0].send, Some(0));
        assert_eq!(steps[1].send, Some(0), "the fault voids the live send");
        assert_eq!((steps[2].send, steps[2].unpaired), (Some(1), false));
        assert_eq!(r.sends[1].subs, r.sends[0].subs, "same batch, new attempt");
        assert_eq!((steps[3].send, steps[3].unpaired), (Some(1), false));
        assert_eq!(r.sends[0].state, SendState::Voided);
        assert_eq!(r.sends[1].state, SendState::Acked);
        assert_eq!((r.coverage.suffix_start(), r.watermark), (3, 3));
    }

    #[test]
    fn a_send_that_is_no_batch_and_no_resend_is_unpaired() {
        let mut r = Replay::new(4);
        fold(&mut r, claim_done(0, 3, 4));
        // The boundary names no completion; then a second send with no
        // completion left to carry.
        let steps = fold(&mut r, vec![send(0, 2), send(0, 3), send(0, 3)]);
        assert!(steps[0].unpaired);
        assert!(!steps[1].unpaired);
        assert!(
            steps[2].unpaired,
            "a fresh batch ships each completion once"
        );
    }

    #[test]
    fn a_status_overtakes_an_older_send_only_behind_a_hole() {
        let two_sends = || {
            let mut r = Replay::new(4);
            fold(&mut r, claim_done(0, 3, 4));
            fold(&mut r, vec![send(0, 3)]);
            fold(&mut r, claim_done(0, 2, 3));
            r
        };
        let mut r = two_sends();
        let steps = fold(&mut r, vec![send(0, 2), status(0, 2, 4)]);
        assert_eq!((steps[1].send, steps[1].unpaired), (Some(1), true));

        // The boundary-3 transfer faults before the boundary-2 one is
        // enqueued: the receiver holds later statuses behind the hole
        // until the re-send is acked.
        let mut r = two_sends();
        let steps = fold(
            &mut r,
            vec![fault(0, 3), send(0, 2), send(0, 3), status(0, 3, 3)],
        );
        assert_eq!((steps[3].send, steps[3].unpaired), (Some(2), false));
        let steps = fold(&mut r, vec![status(0, 2, 2)]);
        assert_eq!((steps[0].send, steps[0].unpaired), (Some(1), false));
    }

    #[test]
    fn a_promotion_uncredits_the_promoted_endpoint_and_rebuilds_the_watermark() {
        let mut r = Replay::new(4);
        fold(&mut r, claim_done(0, 3, 4));
        fold(&mut r, claim_done(1, 2, 3));
        fold(
            &mut r,
            vec![send(0, 3), status(0, 3, 3), send(1, 2), status(1, 2, 2)],
        );
        assert_eq!(r.watermark, 2);
        let step = fold(
            &mut r,
            vec![
                TraceKind::OwnerLost,
                TraceKind::OwnerPromoted { dev: 1, epoch: 1 },
            ],
        )[1];
        assert!(!step.again);
        assert_eq!(r.sends[1].state, SendState::Uncredited);
        assert_eq!((r.coverage.suffix_start(), r.watermark, r.epoch), (3, 3, 1));
        assert!(r.claims.iter().all(|c| c.2 != 1), "its claims return");
        assert!(!r.exact_descent);
    }
}
