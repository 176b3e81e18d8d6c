//! Vector-clock happens-before race detector over protocol traces.
//!
//! The protocol linter ([`fluidicl::lint_trace`]) checks the *shape* of a
//! co-executed kernel's event log — watermark monotonicity, queue order,
//! contiguity, coverage in work-groups. This module checks the *data-flow*
//! underneath it at element granularity: every merge and every final read
//! of a buffer range must be happens-before-ordered after the writes that
//! produced it, and no two contributions consumed by one merge may write
//! overlapping elements.
//!
//! The detector is two layers:
//!
//! * a generic **happens-before engine** ([`check_hb`]) over N endpoints:
//!   each endpoint carries a [`VClock`]; program order ticks it, message
//!   delivery ([`HbOp::Send`]/[`HbOp::Recv`]) joins the sender's clock into
//!   the receiver's. The engine knows nothing about CPUs, GPUs or the
//!   FluidiCL protocol — only writes, messages, merges and reads over
//!   per-endpoint buffer copies;
//! * a **trace lowering** ([`race_check_report`]) that maps a
//!   [`KernelReport`]'s trace onto the engine: owner waves and endpoint
//!   subkernels become writes (their element footprints computed
//!   symbolically from the kernel's
//!   [`AccessPattern`](fluidicl_vcl::AccessPattern) declarations via
//!   [`KernelDef::write_footprints`] — no re-execution), sends and status
//!   arrivals become the message edges of each endpoint's in-order
//!   upstream queue, paired by the same [`Replay`] fold the protocol
//!   linter checks, fault events void exactly the transfer they damaged,
//!   and the diff-merge and the finisher's final read become
//!   [`HbOp::Merge`] / [`HbOp::Read`] checks. The paper's two-device
//!   protocol is the single-endpoint case: the CPU is endpoint 0.
//!
//! Writes land in per-endpoint device copies, so duplicated work — the GPU
//! recomputing a range the CPU also computed, which the paper's protocol
//! permits by design (§4.2) — is *not* a race: the merge owner's local
//! writes are the base the merge overlays, and only contributions shipped
//! by *other* endpoints must be disjoint and ordered.

use std::collections::{BTreeMap, HashMap};

use fluidicl::replay::{Replay, SendState};
use fluidicl::{Finisher, KernelReport, Lane, LaunchMeta, LintDiagnostic, TraceKind};
use fluidicl_vcl::{DirtyRanges, KernelDef};

/// Engine endpoint index of the merge owner (the GPU lane of a FluidiCL
/// trace): it receives contributions and runs the diff-merge.
pub const OWNER: usize = 0;
/// Engine endpoint index of the contributor (the CPU lane of a FluidiCL
/// trace): it computes subkernels and ships them to the owner.
pub const CONTRIB: usize = 1;

/// A vector clock over a fixed set of endpoints.
///
/// `a.leq(b)` is the happens-before relation's reflexive closure: event A
/// (with clock `a`) happened before or is event B (with clock `b`). Two
/// clocks with neither `leq` the other belong to concurrent events.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VClock(Vec<u64>);

impl VClock {
    /// The zero clock over `endpoints` components.
    pub fn new(endpoints: usize) -> Self {
        VClock(vec![0; endpoints])
    }

    /// Number of endpoint components.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the clock has no components.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The component of `endpoint`.
    pub fn get(&self, endpoint: usize) -> u64 {
        self.0[endpoint]
    }

    /// Advances `endpoint`'s own component (a program-order step).
    pub fn tick(&mut self, endpoint: usize) {
        self.0[endpoint] += 1;
    }

    /// Component-wise maximum: the clock after receiving a message sent at
    /// `other`.
    #[must_use]
    pub fn join(&self, other: &Self) -> Self {
        VClock(
            self.0
                .iter()
                .zip(&other.0)
                .map(|(a, b)| (*a).max(*b))
                .collect(),
        )
    }

    /// Component-wise `≤`: the event with this clock happened before (or
    /// is) the event with `other`'s clock.
    pub fn leq(&self, other: &Self) -> bool {
        self.0.iter().zip(&other.0).all(|(a, b)| a <= b)
    }

    /// Strict happens-before: `leq` and not equal.
    pub fn lt(&self, other: &Self) -> bool {
        self.leq(other) && self != other
    }

    /// Neither happened before the other.
    pub fn concurrent(&self, other: &Self) -> bool {
        !self.leq(other) && !other.leq(self)
    }
}

/// One operation of a happens-before event stream. Every `ranges` vector
/// holds one [`DirtyRanges`] per checked buffer, in a fixed order shared
/// by the whole stream.
#[derive(Clone, Debug)]
pub enum HbOp {
    /// The endpoint wrote `ranges` into its local buffer copies.
    Write {
        /// Element ranges written, per buffer.
        ranges: Vec<DirtyRanges>,
    },
    /// The endpoint shipped the current content of `ranges` as message
    /// `msg` (all its program-order-prior writes intersecting the ranges
    /// travel with it).
    Send {
        /// Stream-unique message id pairing this send with its receive.
        msg: u64,
        /// Element ranges shipped, per buffer.
        ranges: Vec<DirtyRanges>,
    },
    /// The endpoint received message `msg`: the sender's clock joins the
    /// receiver's, and the shipped ranges become an arrival available to a
    /// later [`HbOp::Merge`].
    Recv {
        /// Message id of the matching [`HbOp::Send`].
        msg: u64,
    },
    /// The endpoint merged every arrived contribution overlapping `ranges`
    /// into its local copies. Checked: the region must be covered by
    /// arrived contributions, every contributing write must be
    /// happens-before the merge, and contributions must not overlap each
    /// other.
    Merge {
        /// Element ranges the merge must establish, per buffer.
        ranges: Vec<DirtyRanges>,
    },
    /// The endpoint read `ranges` from its local copies (e.g. the final
    /// device-to-host transfer). Checked: the region must be covered by
    /// local writes and merged contributions.
    Read {
        /// Element ranges read, per buffer.
        ranges: Vec<DirtyRanges>,
    },
}

/// One event of a happens-before stream: an operation at an endpoint, with
/// a label used in diagnostics.
#[derive(Clone, Debug)]
pub struct HbEvent {
    /// Endpoint executing the operation (`0..endpoints`).
    pub endpoint: usize,
    /// Human-readable description used in findings (e.g. `subkernel
    /// 24..32`).
    pub label: String,
    /// The operation.
    pub op: HbOp,
}

impl HbEvent {
    /// Convenience constructor.
    pub fn new(endpoint: usize, label: impl Into<String>, op: HbOp) -> Self {
        HbEvent {
            endpoint,
            label: label.into(),
            op,
        }
    }
}

fn fmt_ranges(r: &DirtyRanges) -> String {
    let parts: Vec<String> = r
        .as_slice()
        .iter()
        .take(4)
        .map(|(s, e)| format!("[{s}, {e})"))
        .collect();
    let ell = if r.range_count() > 4 { ", …" } else { "" };
    format!("{}{ell}", parts.join(", "))
}

struct WriteRec {
    endpoint: usize,
    clock: VClock,
    ranges: Vec<DirtyRanges>,
    label: String,
}

struct SendRec {
    from: usize,
    clock: VClock,
    ranges: Vec<DirtyRanges>,
    label: String,
    /// Indices into the write log of the sender's prior writes that
    /// intersect the shipped ranges — the data the message carries.
    writes: Vec<usize>,
    received: bool,
}

/// Checks a happens-before event stream over `endpoints` endpoints and
/// `buffers` buffers. Returns one diagnostic per violation; an empty
/// vector means every merge and read is properly ordered and covered.
///
/// Rules (all error severity):
///
/// * `race-recv-without-send` — a [`HbOp::Recv`] names a message never
///   sent (or already consumed);
/// * `race-merge-order` — a merge consumed a region whose contribution
///   exists in the stream but is not happens-before the merge (the merge
///   ran before the data arrived);
/// * `race-stale-read` — a merged or read region is not covered by any
///   write at all;
/// * `race-overlapping-writes` — two contributions consumed by the same
///   merge wrote overlapping elements (ordered by happens-before, so the
///   merge result silently depends on apply order);
/// * `race-unordered-writes` — as above, but the two contributing sends
///   are concurrent: a true data race.
pub fn check_hb(endpoints: usize, buffers: usize, events: &[HbEvent]) -> Vec<LintDiagnostic> {
    let mut out = Vec::new();
    let mut clocks: Vec<VClock> = (0..endpoints).map(|_| VClock::new(endpoints)).collect();
    let mut writes: Vec<WriteRec> = Vec::new();
    let mut sends: HashMap<u64, SendRec> = HashMap::new();
    // Per endpoint: message ids received, in receive order.
    let mut arrivals: Vec<Vec<u64>> = vec![Vec::new(); endpoints];
    // Per endpoint per buffer: elements written locally / merged in.
    let mut local: Vec<Vec<DirtyRanges>> = (0..endpoints)
        .map(|_| vec![DirtyRanges::empty(); buffers])
        .collect();
    let mut merged = local.clone();

    for ev in events {
        let ep = ev.endpoint;
        clocks[ep].tick(ep);
        match &ev.op {
            HbOp::Write { ranges } => {
                for (b, r) in ranges.iter().enumerate() {
                    local[ep][b] = local[ep][b].union(r);
                }
                writes.push(WriteRec {
                    endpoint: ep,
                    clock: clocks[ep].clone(),
                    ranges: ranges.clone(),
                    label: ev.label.clone(),
                });
            }
            HbOp::Send { msg, ranges } => {
                let carried: Vec<usize> = writes
                    .iter()
                    .enumerate()
                    .filter(|(_, w)| {
                        w.endpoint == ep
                            && w.ranges
                                .iter()
                                .zip(ranges)
                                .any(|(wr, sr)| !wr.intersect(sr).is_empty())
                    })
                    .map(|(i, _)| i)
                    .collect();
                sends.insert(
                    *msg,
                    SendRec {
                        from: ep,
                        clock: clocks[ep].clone(),
                        ranges: ranges.clone(),
                        label: ev.label.clone(),
                        writes: carried,
                        received: false,
                    },
                );
            }
            HbOp::Recv { msg } => match sends.get_mut(msg) {
                Some(s) if !s.received && s.from != ep => {
                    s.received = true;
                    let joined = clocks[ep].join(&s.clock);
                    clocks[ep] = joined;
                    arrivals[ep].push(*msg);
                }
                _ => out.push(LintDiagnostic::error(
                    "race-recv-without-send",
                    format!(
                        "endpoint {ep} received `{}` (msg {msg}) with no prior matching send",
                        ev.label
                    ),
                )),
            },
            HbOp::Merge { ranges } => {
                let merge_clock = clocks[ep].clone();
                // Contributions: arrived sends from other endpoints,
                // clipped to the merge region.
                let contribs: Vec<(&SendRec, Vec<DirtyRanges>)> = arrivals[ep]
                    .iter()
                    .filter_map(|m| sends.get(m))
                    .filter(|s| s.from != ep)
                    .map(|s| {
                        let clipped: Vec<DirtyRanges> = s
                            .ranges
                            .iter()
                            .zip(ranges)
                            .map(|(sr, mr)| sr.intersect(mr))
                            .collect();
                        (s, clipped)
                    })
                    .filter(|(_, clipped)| clipped.iter().any(|r| !r.is_empty()))
                    .collect();
                // Every contributing write must be happens-before the
                // merge (the vector clocks are load-bearing here: a recv
                // processed at this endpoint joined the send's clock, so a
                // violation means the lowering fed us a merge that ran
                // before its data arrived).
                for (s, _) in &contribs {
                    for &wi in &s.writes {
                        let w = &writes[wi];
                        if !w.clock.leq(&merge_clock) {
                            out.push(LintDiagnostic::error(
                                "race-merge-order",
                                format!(
                                    "`{}` merged `{}` before it happened-before the merge",
                                    ev.label, w.label
                                ),
                            ));
                        }
                    }
                }
                // Contributions must be pairwise disjoint: the merge
                // applies each on top of the owner copy, so overlap makes
                // the result depend on apply order.
                for i in 0..contribs.len() {
                    for j in (i + 1)..contribs.len() {
                        let (si, ci) = &contribs[i];
                        let (sj, cj) = &contribs[j];
                        for b in 0..buffers {
                            let ov = ci[b].intersect(&cj[b]);
                            if ov.is_empty() {
                                continue;
                            }
                            let rule = if si.clock.concurrent(&sj.clock) {
                                "race-unordered-writes"
                            } else {
                                "race-overlapping-writes"
                            };
                            out.push(LintDiagnostic::error(
                                rule,
                                format!(
                                    "`{}` consumed contributions `{}` and `{}` both writing \
                                     buffer {b} elements {}",
                                    ev.label,
                                    si.label,
                                    sj.label,
                                    fmt_ranges(&ov)
                                ),
                            ));
                        }
                    }
                }
                // Coverage: the merge region must be covered by arrived
                // contributions. An uncovered region overlapping a send
                // that exists but has not arrived is a merge-order
                // violation; a region no send covers at all is stale.
                for b in 0..buffers {
                    let mut covered = DirtyRanges::empty();
                    for (_, c) in &contribs {
                        covered = covered.union(&c[b]);
                    }
                    let uncovered = ranges[b].subtract(&covered);
                    if uncovered.is_empty() {
                        continue;
                    }
                    let mut pending = DirtyRanges::empty();
                    for s in sends.values() {
                        if s.from != ep && !s.received {
                            pending = pending.union(&s.ranges[b].intersect(&uncovered));
                        }
                    }
                    if !pending.is_empty() {
                        out.push(LintDiagnostic::error(
                            "race-merge-order",
                            format!(
                                "`{}` covers buffer {b} elements {} whose contribution had \
                                 not arrived yet",
                                ev.label,
                                fmt_ranges(&pending)
                            ),
                        ));
                    }
                    let stale = uncovered.subtract(&pending);
                    if !stale.is_empty() {
                        out.push(LintDiagnostic::error(
                            "race-stale-read",
                            format!(
                                "`{}` covers buffer {b} elements {} that no contribution wrote",
                                ev.label,
                                fmt_ranges(&stale)
                            ),
                        ));
                    }
                }
                for (b, r) in ranges.iter().enumerate() {
                    merged[ep][b] = merged[ep][b].union(r);
                }
            }
            HbOp::Read { ranges } => {
                for (b, r) in ranges.iter().enumerate() {
                    let valid = local[ep][b].union(&merged[ep][b]);
                    let stale = r.subtract(&valid);
                    if !stale.is_empty() {
                        out.push(LintDiagnostic::error(
                            "race-stale-read",
                            format!(
                                "`{}` reads buffer {b} elements {} never written or merged \
                                 at endpoint {ep}",
                                ev.label,
                                fmt_ranges(&stale)
                            ),
                        ));
                    }
                }
            }
        }
    }
    out
}

/// Lowers a co-executed kernel's trace onto the happens-before engine and
/// checks it. Returns the engine's findings; an empty vector means every
/// merge and final read is ordered after the writes that produced it and
/// no merged contributions overlap.
///
/// Requires the kernel to declare an
/// [`AccessPattern`](fluidicl_vcl::AccessPattern) on every output argument
/// (a warning finding is returned otherwise) and the report to carry
/// [`LaunchMeta`] (hand-constructed reports without it are skipped
/// silently — the runtime always fills it).
pub fn race_check_report(kernel: &KernelDef, report: &KernelReport) -> Vec<LintDiagnostic> {
    let Some(meta) = &report.launch_meta else {
        return Vec::new();
    };
    if !kernel.has_write_footprints() {
        return vec![LintDiagnostic::warning(
            "race-no-footprints",
            format!(
                "kernel `{}` lacks an AccessPattern on some output argument; \
                 happens-before checking skipped",
                kernel.name()
            ),
        )];
    }
    let events = lower_trace(kernel, meta, report);
    // The owner is engine endpoint 0 and trace endpoint `dev` lowers to
    // engine endpoint `dev + 1`, so ep0 — the CPU — is CONTRIB.
    let endpoints = events.iter().map(|e| e.endpoint + 1).fold(2, usize::max);
    check_hb(endpoints, meta.out_lens.len(), &events)
}

/// Maps a protocol trace onto [`HbEvent`]s, one [`Replay`] step at a time
/// (see the module docs for the step → edge table, mirrored in DESIGN.md
/// §12).
fn lower_trace(kernel: &KernelDef, meta: &LaunchMeta, report: &KernelReport) -> Vec<HbEvent> {
    let total = meta.ndrange.num_groups();
    let buffers = meta.out_lens.len();
    let fp = |from: u64, to: u64| -> Vec<DirtyRanges> {
        kernel
            .write_footprints(&meta.ndrange, &meta.scalars, &meta.out_lens, from, to)
            .expect("checked by has_write_footprints")
    };
    let none = || vec![DirtyRanges::empty(); buffers];
    let union_fp = |a: Vec<DirtyRanges>, b: &[DirtyRanges]| -> Vec<DirtyRanges> {
        a.iter().zip(b).map(|(x, y)| x.union(y)).collect()
    };
    let mut replay = Replay::new(total);
    // `Option` slots: once the whole trace is folded, a voided send's slot
    // is emptied and each merge's slot filled in.
    let mut events: Vec<Option<HbEvent>> = Vec::with_capacity(report.trace.len());
    // Event slots of each endpoint's subkernel writes, indexed like the
    // replay's completion list: footprints are computed once, at
    // completion, and read back from there.
    let mut done_slots: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    // Event slot of each replay send. A send's message id is its replay
    // index; synthesized messages count on from the trace length, past
    // every send.
    let mut sent: Vec<usize> = Vec::new();
    let mut next_msg = report.trace.len() as u64;
    // Each merge's event slot, filled in once the final watermark is known.
    let mut merges: Vec<usize> = Vec::new();
    // A solo run reads its result where it ran — for a peer lane that is
    // the peer's endpoint, not the (possibly dead) owner.
    let mut solo_ep: Option<usize> = None;

    for ev in &report.trace {
        let step = replay.step(ev);
        match ev.kind {
            TraceKind::GpuWaveDone {
                from, executed_to, ..
            } if executed_to > from => {
                events.push(Some(HbEvent::new(
                    OWNER,
                    format!("wave {from}..{executed_to}"),
                    HbOp::Write {
                        ranges: fp(from, executed_to),
                    },
                )));
            }
            TraceKind::EpSubkernelDone { dev, from, to } => {
                done_slots.entry(dev).or_default().push(events.len());
                events.push(Some(HbEvent::new(
                    dev as usize + 1,
                    format!("ep{dev} subkernel {from}..{to}"),
                    HbOp::Write {
                        ranges: fp(from, to),
                    },
                )));
            }
            TraceKind::EpSend { dev, boundary, .. } => {
                // A fresh batch or a re-send carries the union of its
                // completions; an unpaired send (the linter flags it) ships
                // nothing, so coverage checks surface the damage.
                let subs = replay.sends.last().map_or(0..0, |s| s.subs.clone());
                let ranges = done_slots.get(&dev).map_or_else(none, |slots| {
                    slots[subs]
                        .iter()
                        .fold(none(), |a, &w| union_fp(a, carried(&events[w])))
                });
                let msg = sent.len() as u64;
                sent.push(events.len());
                events.push(Some(HbEvent::new(
                    dev as usize + 1,
                    format!("ep{dev} send boundary {boundary}"),
                    HbOp::Send { msg, ranges },
                )));
            }
            TraceKind::EpStatus { dev, .. } => {
                // With no live send carrying the boundary, this receives
                // a message never sent.
                let msg = step.send.map_or_else(
                    || {
                        next_msg += 1;
                        next_msg - 1
                    },
                    |s| s as u64,
                );
                events.push(Some(HbEvent::new(
                    OWNER,
                    format!("ep{dev} status ack"),
                    HbOp::Recv { msg },
                )));
            }
            TraceKind::OwnerPromoted { dev, .. } => {
                // Promotion is a synchronous handoff: the new owner's prior
                // program order (its subkernels, its sends) happens-before
                // everything the owner role does from here on. An
                // empty-ranges message carries the clock join without
                // shipping any data — the new owner's wave walk re-executes
                // everything below the watermark instead.
                events.push(Some(HbEvent::new(
                    dev as usize + 1,
                    format!("ep{dev} promotion handoff"),
                    HbOp::Send {
                        msg: next_msg,
                        ranges: none(),
                    },
                )));
                events.push(Some(HbEvent::new(
                    OWNER,
                    format!("ep{dev} promotion join"),
                    HbOp::Recv { msg: next_msg },
                )));
                next_msg += 1;
            }
            TraceKind::SoloRun { lane, from, to, .. } => {
                // One endpoint runs the whole launch: its writes happen
                // there and the final read joins on the same endpoint.
                let ep = match lane {
                    Lane::Gpu => OWNER,
                    Lane::Cpu => CONTRIB,
                    Lane::Peer(dev) => dev as usize + 1,
                };
                solo_ep = Some(ep);
                events.push(Some(HbEvent::new(
                    ep,
                    format!("{lane} solo run {from}..{to}"),
                    HbOp::Write {
                        ranges: fp(from, to),
                    },
                )));
            }
            TraceKind::MergeDone => {
                merges.push(events.len());
                events.push(None);
            }
            TraceKind::KernelComplete { finisher } => {
                // A CPU finisher reads its own copy, and nothing folds
                // into it: on a healthy roster the CPU executed every
                // work-group, and after an owner loss every peer is dead.
                let read_ep = solo_ep.unwrap_or(match finisher {
                    Finisher::Gpu => OWNER,
                    Finisher::Cpu => CONTRIB,
                });
                events.push(Some(HbEvent::new(
                    read_ep,
                    format!("final read 0..{total}"),
                    HbOp::Read {
                        ranges: fp(0, total),
                    },
                )));
            }
            _ => {}
        }
    }
    // A send's final state decides its edge. A voided transfer never
    // delivered (or was never applied): no edge — faults excuse exactly
    // their own damage. A send un-credited at a promotion keeps its edge
    // for ordering but ships nothing: the engine rolled the promoted
    // endpoint back to a pristine owner. The merge folds in every credited
    // send (claim islands below the watermark merge too) and, since the
    // owner's walk stops at the final watermark — the lowest one reported
    // since the last ownership change — the covered suffix above it
    // (paper §4.3). A legal trace delivered that suffix; a forged
    // watermark, or a status that arrives only after the merge, surfaces
    // as a stale or premature merge.
    let mut ranges = none();
    for (rec, &slot) in replay.sends.iter().zip(&sent) {
        match rec.state {
            SendState::Acked if !merges.is_empty() => {
                ranges = union_fp(ranges, carried(&events[slot]));
            }
            SendState::Voided => events[slot] = None,
            SendState::Uncredited => {
                if let Some(HbEvent {
                    op: HbOp::Send { ranges, .. },
                    ..
                }) = events[slot].as_mut()
                {
                    *ranges = none();
                }
            }
            _ => {}
        }
    }
    let wm = replay.watermark;
    if !merges.is_empty() && wm < total {
        ranges = union_fp(ranges, &fp(wm, total));
    }
    for slot in merges {
        events[slot] = Some(HbEvent::new(
            OWNER,
            format!("diff-merge of arrivals (watermark {wm})"),
            HbOp::Merge {
                ranges: ranges.clone(),
            },
        ));
    }
    events.into_iter().flatten().collect()
}

/// The element ranges the `Write` or `Send` event in `slot` carries. Only
/// writes and sends never voided are looked up.
fn carried(slot: &Option<HbEvent>) -> &[DirtyRanges] {
    match slot {
        Some(HbEvent {
            op: HbOp::Write { ranges } | HbOp::Send { ranges, .. },
            ..
        }) => ranges,
        _ => unreachable!("slot holds a write or a live send"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluidicl::LintSeverity;

    fn r(ranges: &[(usize, usize)]) -> Vec<DirtyRanges> {
        vec![DirtyRanges::from_ranges(ranges.iter().copied())]
    }

    #[test]
    fn subtract_splits_and_clips() {
        let a = DirtyRanges::from_ranges([(0, 10), (20, 30)]);
        let b = DirtyRanges::from_ranges([(3, 5), (8, 22), (28, 40)]);
        assert_eq!(a.subtract(&b).as_slice(), &[(0, 3), (5, 8), (22, 28)]);
        assert!(a.subtract(&a).is_empty());
        assert_eq!(a.subtract(&DirtyRanges::empty()), a);
    }

    #[test]
    fn clean_two_endpoint_exchange() {
        // Contributor writes [8, 16), ships it, owner wrote [0, 8) itself,
        // merges the contribution and reads everything.
        let events = vec![
            HbEvent::new(
                0,
                "wave",
                HbOp::Write {
                    ranges: r(&[(0, 8)]),
                },
            ),
            HbEvent::new(
                1,
                "sub",
                HbOp::Write {
                    ranges: r(&[(8, 16)]),
                },
            ),
            HbEvent::new(
                1,
                "send",
                HbOp::Send {
                    msg: 0,
                    ranges: r(&[(8, 16)]),
                },
            ),
            HbEvent::new(0, "ack", HbOp::Recv { msg: 0 }),
            HbEvent::new(
                0,
                "merge",
                HbOp::Merge {
                    ranges: r(&[(8, 16)]),
                },
            ),
            HbEvent::new(
                0,
                "read",
                HbOp::Read {
                    ranges: r(&[(0, 16)]),
                },
            ),
        ];
        assert!(check_hb(2, 1, &events).is_empty());
    }

    #[test]
    fn duplicated_owner_work_is_not_a_race() {
        // The owner also computed [8, 12) — duplicated work the protocol
        // permits; the merged contribution simply wins.
        let events = vec![
            HbEvent::new(
                0,
                "wave",
                HbOp::Write {
                    ranges: r(&[(0, 12)]),
                },
            ),
            HbEvent::new(
                1,
                "sub",
                HbOp::Write {
                    ranges: r(&[(8, 16)]),
                },
            ),
            HbEvent::new(
                1,
                "send",
                HbOp::Send {
                    msg: 0,
                    ranges: r(&[(8, 16)]),
                },
            ),
            HbEvent::new(0, "ack", HbOp::Recv { msg: 0 }),
            HbEvent::new(
                0,
                "merge",
                HbOp::Merge {
                    ranges: r(&[(8, 16)]),
                },
            ),
            HbEvent::new(
                0,
                "read",
                HbOp::Read {
                    ranges: r(&[(0, 16)]),
                },
            ),
        ];
        assert!(check_hb(2, 1, &events).is_empty());
    }

    #[test]
    fn merge_before_arrival_is_flagged() {
        let events = vec![
            HbEvent::new(
                1,
                "sub",
                HbOp::Write {
                    ranges: r(&[(8, 16)]),
                },
            ),
            HbEvent::new(
                1,
                "send",
                HbOp::Send {
                    msg: 0,
                    ranges: r(&[(8, 16)]),
                },
            ),
            HbEvent::new(
                0,
                "merge",
                HbOp::Merge {
                    ranges: r(&[(8, 16)]),
                },
            ),
            HbEvent::new(0, "ack", HbOp::Recv { msg: 0 }),
        ];
        let diags = check_hb(2, 1, &events);
        assert!(
            diags.iter().any(|d| d.rule == "race-merge-order"),
            "{diags:?}"
        );
    }

    #[test]
    fn recv_without_send_is_flagged() {
        let events = vec![HbEvent::new(0, "ack", HbOp::Recv { msg: 7 })];
        let diags = check_hb(2, 1, &events);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "race-recv-without-send");
        assert_eq!(diags[0].severity, LintSeverity::Error);
    }

    #[test]
    fn uncovered_merge_region_is_stale() {
        let events = vec![HbEvent::new(
            0,
            "merge",
            HbOp::Merge {
                ranges: r(&[(0, 8)]),
            },
        )];
        let diags = check_hb(2, 1, &events);
        assert!(diags.iter().any(|d| d.rule == "race-stale-read"));
    }

    #[test]
    fn unread_region_is_stale() {
        let events = vec![
            HbEvent::new(
                0,
                "wave",
                HbOp::Write {
                    ranges: r(&[(0, 8)]),
                },
            ),
            HbEvent::new(
                0,
                "read",
                HbOp::Read {
                    ranges: r(&[(0, 16)]),
                },
            ),
        ];
        let diags = check_hb(2, 1, &events);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "race-stale-read");
        assert!(diags[0].message.contains("[8, 16)"), "{}", diags[0].message);
    }

    #[test]
    fn three_endpoint_trace_checks_without_device_assumptions() {
        // Three endpoints: 1 and 2 both contribute to a merge at 0. The
        // engine is generic over the endpoint count — nothing in it knows
        // about a CPU or a GPU.
        let clean = vec![
            HbEvent::new(
                0,
                "local",
                HbOp::Write {
                    ranges: r(&[(0, 4)]),
                },
            ),
            HbEvent::new(
                1,
                "w1",
                HbOp::Write {
                    ranges: r(&[(4, 8)]),
                },
            ),
            HbEvent::new(
                2,
                "w2",
                HbOp::Write {
                    ranges: r(&[(8, 12)]),
                },
            ),
            HbEvent::new(
                1,
                "s1",
                HbOp::Send {
                    msg: 1,
                    ranges: r(&[(4, 8)]),
                },
            ),
            HbEvent::new(
                2,
                "s2",
                HbOp::Send {
                    msg: 2,
                    ranges: r(&[(8, 12)]),
                },
            ),
            HbEvent::new(0, "a1", HbOp::Recv { msg: 1 }),
            HbEvent::new(0, "a2", HbOp::Recv { msg: 2 }),
            HbEvent::new(
                0,
                "merge",
                HbOp::Merge {
                    ranges: r(&[(4, 12)]),
                },
            ),
            HbEvent::new(
                0,
                "read",
                HbOp::Read {
                    ranges: r(&[(0, 12)]),
                },
            ),
        ];
        assert!(check_hb(3, 1, &clean).is_empty());

        // Same shape, but the two contributors overlap on [6, 10): their
        // sends are concurrent, so this is a true unordered-write race.
        let racy = vec![
            HbEvent::new(
                1,
                "w1",
                HbOp::Write {
                    ranges: r(&[(4, 10)]),
                },
            ),
            HbEvent::new(
                2,
                "w2",
                HbOp::Write {
                    ranges: r(&[(6, 12)]),
                },
            ),
            HbEvent::new(
                1,
                "s1",
                HbOp::Send {
                    msg: 1,
                    ranges: r(&[(4, 10)]),
                },
            ),
            HbEvent::new(
                2,
                "s2",
                HbOp::Send {
                    msg: 2,
                    ranges: r(&[(6, 12)]),
                },
            ),
            HbEvent::new(0, "a1", HbOp::Recv { msg: 1 }),
            HbEvent::new(0, "a2", HbOp::Recv { msg: 2 }),
            HbEvent::new(
                0,
                "merge",
                HbOp::Merge {
                    ranges: r(&[(4, 12)]),
                },
            ),
        ];
        let diags = check_hb(3, 1, &racy);
        assert!(
            diags.iter().any(|d| d.rule == "race-unordered-writes"),
            "{diags:?}"
        );
        assert!(diags[0].message.contains("[6, 10)"), "{}", diags[0].message);
    }

    #[test]
    fn ordered_overlapping_contributions_still_flagged() {
        // Contributor 1's two sends overlap each other; they are program-
        // ordered (not concurrent) but the merge still cannot apply both.
        let events = vec![
            HbEvent::new(
                1,
                "w1",
                HbOp::Write {
                    ranges: r(&[(0, 6)]),
                },
            ),
            HbEvent::new(
                1,
                "s1",
                HbOp::Send {
                    msg: 1,
                    ranges: r(&[(0, 6)]),
                },
            ),
            HbEvent::new(
                1,
                "w2",
                HbOp::Write {
                    ranges: r(&[(4, 8)]),
                },
            ),
            HbEvent::new(
                1,
                "s2",
                HbOp::Send {
                    msg: 2,
                    ranges: r(&[(4, 8)]),
                },
            ),
            HbEvent::new(0, "a1", HbOp::Recv { msg: 1 }),
            HbEvent::new(0, "a2", HbOp::Recv { msg: 2 }),
            HbEvent::new(
                0,
                "merge",
                HbOp::Merge {
                    ranges: r(&[(0, 8)]),
                },
            ),
        ];
        let diags = check_hb(2, 1, &events);
        assert!(
            diags.iter().any(|d| d.rule == "race-overlapping-writes"),
            "{diags:?}"
        );
    }

    #[test]
    fn clock_basics() {
        let mut a = VClock::new(2);
        let mut b = VClock::new(2);
        assert!(a.leq(&b) && b.leq(&a));
        a.tick(0);
        assert!(b.lt(&a) && !a.leq(&b));
        b.tick(1);
        assert!(a.concurrent(&b));
        let j = a.join(&b);
        assert!(a.leq(&j) && b.leq(&j));
        assert_eq!(j.get(0), 1);
        assert_eq!(j.get(1), 1);
        assert_eq!(j.len(), 2);
        assert!(!j.is_empty());
    }
}
