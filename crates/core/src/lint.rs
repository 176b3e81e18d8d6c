//! Protocol-trace linter: checks a co-executed kernel's [`TraceEvent`] log
//! against the FluidiCL protocol invariants.
//!
//! The co-execution engine records every protocol event with its virtual
//! timestamp (sorted chronologically, ties in processing order), so the
//! trace is a complete replayable record of one kernel's execution. Every
//! co-execution uses one vocabulary — the owner's wave walk plus the
//! shared-frontier endpoint events, with the paper's CPU as endpoint 0 —
//! so one replay checks them all; the paper's two-device protocol is the
//! case of a single endpoint. The replay verifies:
//!
//! * non-owner **claims descend the frontier**: until recovery returns a
//!   range, every claim ends at the top of the unclaimed region (§4.2,
//!   Fig. 7); claims of live endpoints never overlap, and each endpoint
//!   runs one subkernel at a time;
//! * **data precedes status** on each endpoint's in-order queue: the k-th
//!   status corresponds to the k-th send, which carries exactly the next
//!   completed-but-unshipped subkernels and names the lowest of their
//!   starts as its boundary (§4.2, §5.4); a batch of several subkernels
//!   may not appear in a serial (depth-1) trace;
//! * the **watermark only decreases** and every status reports exactly the
//!   covered suffix of the ranges delivered so far (§4.2);
//! * GPU **waves stay below the watermark** known when they start, ascend
//!   contiguously from 0, never run past the kernel exit, and an aborted
//!   wave is followed by the exit (§4.2, §6.4, Fig. 6);
//! * GPU-executed ranges and the merged suffix together **cover**
//!   `[0, total)` — no work-group is lost (§4.3);
//! * exactly one **exit → merge → complete** sequence, in order; a CPU
//!   finisher completes strictly before the merge, and only when the CPU
//!   is the sole endpoint (§4.2–4.4);
//! * under dirty-range transfers, every send ships exactly its **coalesced
//!   dirty payload plus the status message**.
//!
//! When the trace contains fault or recovery events (transfer faults,
//! rejections and timeouts, endpoint or owner losses, promotions, stale
//! epochs) the replay switches to a *recovery-aware* mode: resent
//! transfers may repeat boundaries, statuses may apply out of send order
//! behind a redelivery, returned ranges may be claimed again, and a lost
//! owner's kernel is finished by the survivors without exit or merge.
//! Everything that is *not* explained by a recorded recovery event is
//! still an error — faults excuse exactly the damage they cause.
//!
//! Single-device runs — degraded runs after a permanent loss and graph
//! nodes placed on a peer — record one solo span instead and are checked
//! for exactly that shape.
//!
//! [`lint_trace`] checks a bare event log; [`lint_report`] additionally
//! cross-checks the log against the [`KernelReport`] counters. The runtime
//! calls `lint_report` after every co-executed kernel when
//! [`FluidiclConfig::validate_protocol`](crate::FluidiclConfig) is set
//! (the default in debug and test builds) and fails the enqueue with
//! [`ClError::ProtocolViolation`](fluidicl_vcl::ClError) on any error.

use std::collections::BTreeMap;
use std::fmt;

use fluidicl_des::SimTime;

use crate::frontier::Coverage;
use crate::stats::{Finisher, KernelReport};
use crate::trace::{Lane, TraceEvent, TraceKind, STATUS_MSG_BYTES};

/// How bad a lint finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintSeverity {
    /// Suspicious but not provably wrong.
    Warning,
    /// A protocol invariant is violated; results cannot be trusted.
    Error,
}

/// One finding of the protocol linter (or of the `fluidicl-check` access
/// sanitizer, which reuses the same diagnostic vocabulary).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LintDiagnostic {
    /// Stable rule identifier (e.g. `watermark-monotone`).
    pub rule: &'static str,
    /// Severity of the finding.
    pub severity: LintSeverity,
    /// Human-readable description.
    pub message: String,
}

impl LintDiagnostic {
    /// Creates an error-severity diagnostic.
    pub fn error(rule: &'static str, message: impl Into<String>) -> Self {
        LintDiagnostic {
            rule,
            severity: LintSeverity::Error,
            message: message.into(),
        }
    }

    /// Creates a warning-severity diagnostic.
    pub fn warning(rule: &'static str, message: impl Into<String>) -> Self {
        LintDiagnostic {
            rule,
            severity: LintSeverity::Warning,
            message: message.into(),
        }
    }
}

impl fmt::Display for LintDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            LintSeverity::Warning => "warning",
            LintSeverity::Error => "error",
        };
        write!(f, "[{sev}] {}: {}", self.rule, self.message)
    }
}

/// Lints a protocol trace. Returns every violated invariant; an empty vector
/// means the trace is a legal FluidiCL execution.
///
/// The trace must be chronologically sorted with ties in processing order —
/// exactly what the engine stores in [`KernelReport::trace`].
pub fn lint_trace(events: &[TraceEvent]) -> Vec<LintDiagnostic> {
    let mut out = Vec::new();
    let Some(first) = events.first() else {
        out.push(LintDiagnostic::error("trace-shape", "trace is empty"));
        return out;
    };
    let TraceKind::Enqueued {
        total_wgs: total,
        pipeline_depth: depth,
    } = first.kind
    else {
        out.push(LintDiagnostic::error(
            "trace-shape",
            format!(
                "first event is `{}`, expected the enqueue record",
                first.kind
            ),
        ));
        return out;
    };
    let mut prev_at = first.at;
    for e in &events[1..] {
        if e.at < prev_at {
            out.push(LintDiagnostic::error(
                "chronology",
                format!("event `{}` is timestamped before its predecessor", e.kind),
            ));
        }
        prev_at = e.at;
        match &e.kind {
            TraceKind::Enqueued { .. } => out.push(LintDiagnostic::error(
                "trace-shape",
                "duplicate enqueue record",
            )),
            TraceKind::CpuSubkernelStart { .. }
            | TraceKind::CpuSubkernelDone { .. }
            | TraceKind::HdEnqueued {}
            | TraceKind::CoalescedSend {} => out.push(LintDiagnostic::error(
                "trace-shape",
                format!("retired two-device event `{}` in a trace", e.kind),
            )),
            _ => {}
        }
    }
    if events
        .iter()
        .any(|e| matches!(e.kind, TraceKind::SoloRun { .. }))
    {
        lint_solo(events, total, &mut out);
    } else {
        lint_coexec(events, total, depth, &mut out);
    }
    out
}

/// Reports every gap in `[0, total)` that `spans` leave uncovered.
fn check_cover(out: &mut Vec<LintDiagnostic>, mut spans: Vec<(u64, u64)>, total: u64, by: &str) {
    spans.sort_unstable();
    let mut reach = 0u64;
    for (from, to) in spans {
        if from > reach {
            out.push(LintDiagnostic::error(
                "coverage",
                format!("work-groups {reach}..{from} were never executed by {by}"),
            ));
        }
        reach = reach.max(to);
    }
    if reach < total {
        out.push(LintDiagnostic::error(
            "coverage",
            format!("work-groups {reach}..{total} were never executed by {by}"),
        ));
    }
}

/// One enqueued send in the replay: `(at, boundary, consumed ranges)`.
type EpSendRec = (SimTime, u64, Vec<(u64, u64)>);

/// Per-endpoint replay state.
#[derive(Default)]
struct EpReplay {
    open_sub: Option<(u64, u64)>,
    /// Completed subkernels `(at, from, to)` in completion order.
    done: Vec<(SimTime, u64, u64)>,
    /// How many completed subkernels earlier sends already carried.
    shipped: usize,
    /// Every send in enqueue order.
    sends: Vec<EpSendRec>,
    statuses: usize,
    lost: bool,
}

/// Replays a co-execution trace: the owner's wave walk, per endpoint the
/// subkernel pairing and the send/status queue, and globally the frontier
/// descent, claim disjointness and the coverage watermark.
fn lint_coexec(events: &[TraceEvent], total: u64, depth: u32, out: &mut Vec<LintDiagnostic>) {
    // Fault and recovery events switch the replay into recovery-aware
    // mode (see the module docs).
    let relaxed = events.iter().any(|e| {
        matches!(
            e.kind,
            TraceKind::EpTransferFault { .. }
                | TraceKind::EpTransferRejected { .. }
                | TraceKind::EpTransferTimeout { .. }
                | TraceKind::NonOwnerLost { .. }
                | TraceKind::OwnerLost
                | TraceKind::OwnerPromoted { .. }
                | TraceKind::EpochRejected { .. }
        )
    });
    let mut eps: BTreeMap<u32, EpReplay> = BTreeMap::new();
    // All claimed ranges with their claimant, for frontier disjointness.
    let mut claims: Vec<(u64, u64, u32)> = Vec::new();
    // Top of the frontier's untouched region. Every claim takes the top of
    // it until a loss or a promotion returns ranges to the frontier.
    let mut frontier_top = total;
    let mut frontier_exact = true;
    let mut lost_devs: Vec<u32> = Vec::new();
    // Owner-failover replay: every promotion hands the owner role to a
    // surviving peer, bumps the epoch, and restarts the wave walk from 0.
    let mut promotions = 0usize;
    let mut owner_losses = 0usize;
    let mut promoted_devs: Vec<u32> = Vec::new();
    // Watermark replay: EpStatus events carry the engine's value; the
    // linter recomputes it from delivered ranges and cross-checks.
    let mut watermark = total;
    let mut coverage = Coverage::new(total);
    // Delivered-and-credited ranges per endpoint. Owner failover
    // un-credits the promoted endpoint's deliveries, so the post-promotion
    // watermark is the covered suffix of the *other* endpoints' ranges —
    // this map is what lets the replay rebuild it exactly.
    let mut applied_by_dev: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    // Owner wave replay.
    let mut expected_next = 0u64;
    let mut open_wave: Option<(u64, u64)> = None;
    let mut wave_aborted = false;
    let mut launches = 0usize;
    let mut exec_ranges: Vec<(u64, u64)> = Vec::new();
    let mut exit_at: Option<SimTime> = None;
    let mut merge_at: Option<SimTime> = None;
    let mut completes: Vec<(SimTime, Finisher)> = Vec::new();

    for e in &events[1..] {
        let exited = exit_at.is_some();
        match &e.kind {
            TraceKind::GpuLaunch => {
                launches += 1;
                // Each promotion legally relaunches the owner walk once.
                if launches > promotions + 1 {
                    out.push(LintDiagnostic::error("trace-shape", "gpu launched twice"));
                }
                if exited {
                    out.push(LintDiagnostic::error(
                        "gpu-exit",
                        "gpu launch recorded after the gpu exit",
                    ));
                }
            }
            TraceKind::GpuWaveStart { from, to } => {
                if exited {
                    out.push(LintDiagnostic::error(
                        "gpu-exit",
                        format!("wave {from}..{to} started after the gpu exit"),
                    ));
                }
                if wave_aborted {
                    out.push(LintDiagnostic::error(
                        "wave-contiguity",
                        format!("wave {from}..{to} started after an abort; the gpu must exit next"),
                    ));
                }
                if open_wave.is_some() {
                    out.push(LintDiagnostic::error(
                        "wave-contiguity",
                        format!("wave {from}..{to} started while another wave is running"),
                    ));
                }
                if *from != expected_next {
                    out.push(LintDiagnostic::error(
                        "wave-contiguity",
                        format!("wave starts at {from}, expected {expected_next}"),
                    ));
                }
                if from >= to {
                    out.push(LintDiagnostic::error(
                        "wave-bounds",
                        format!("wave {from}..{to} is empty or reversed"),
                    ));
                }
                let limit = watermark.min(total);
                if *to > limit {
                    out.push(LintDiagnostic::error(
                        "wave-bounds",
                        format!(
                            "wave {from}..{to} runs past the watermark {limit} known at its start"
                        ),
                    ));
                }
                open_wave = Some((*from, *to));
            }
            TraceKind::GpuWaveDone {
                from,
                to,
                executed_to,
            } => match open_wave.take() {
                Some((wf, wt)) if wf == *from && wt == *to => {
                    if executed_to < from || executed_to > to {
                        out.push(LintDiagnostic::error(
                            "wave-bounds",
                            format!("wave {from}..{to} reports executing up to {executed_to}"),
                        ));
                    }
                    if *executed_to > *from {
                        exec_ranges.push((*from, *executed_to));
                    }
                    expected_next = *to;
                }
                other => {
                    out.push(LintDiagnostic::error(
                        "wave-contiguity",
                        format!("wave {from}..{to} finished but {other:?} was running"),
                    ));
                }
            },
            TraceKind::GpuWaveAborted { from, to } => match open_wave.take() {
                Some((wf, wt)) if wf == *from && wt == *to => {
                    wave_aborted = true;
                    if watermark > *from {
                        out.push(LintDiagnostic::error(
                            "wave-bounds",
                            format!(
                                "wave {from}..{to} aborted although the watermark {watermark} \
                                 had not covered it"
                            ),
                        ));
                    }
                }
                other => {
                    out.push(LintDiagnostic::error(
                        "wave-contiguity",
                        format!("wave {from}..{to} aborted but {other:?} was running"),
                    ));
                }
            },
            TraceKind::GpuExit => {
                if exited {
                    out.push(LintDiagnostic::error("gpu-exit", "gpu exited twice"));
                } else {
                    if let Some((wf, wt)) = open_wave {
                        out.push(LintDiagnostic::error(
                            "gpu-exit",
                            format!("gpu exited while wave {wf}..{wt} is still running"),
                        ));
                    }
                    let limit = watermark.min(total);
                    if expected_next < limit {
                        out.push(LintDiagnostic::error(
                            "gpu-exit",
                            format!(
                                "gpu exited at work-group {expected_next}, below the \
                                 watermark {limit}"
                            ),
                        ));
                    }
                    exit_at = Some(e.at);
                }
            }
            TraceKind::MergeDone => {
                if merge_at.is_some() {
                    out.push(LintDiagnostic::error("merge", "diff-merge completed twice"));
                } else {
                    if exit_at.is_none() {
                        out.push(LintDiagnostic::error(
                            "merge",
                            "diff-merge completed before the gpu exited",
                        ));
                    }
                    merge_at = Some(e.at);
                }
            }
            TraceKind::EpSubkernelStart { dev, from, to, .. } => {
                if exited {
                    out.push(LintDiagnostic::error(
                        "ep-pairing",
                        format!("ep{dev} subkernel {from}..{to} started after the gpu exit"),
                    ));
                }
                if from >= to || *to > total {
                    out.push(LintDiagnostic::error(
                        "ep-pairing",
                        format!("ep{dev} subkernel {from}..{to} is empty, reversed or oversized"),
                    ));
                }
                let ep = eps.entry(*dev).or_default();
                if ep.open_sub.is_some() {
                    out.push(LintDiagnostic::error(
                        "ep-pairing",
                        format!(
                            "ep{dev} subkernel {from}..{to} started while another is running \
                             on the same endpoint"
                        ),
                    ));
                }
                ep.open_sub = Some((*from, *to));
                if promoted_devs.contains(dev) {
                    out.push(LintDiagnostic::error(
                        "recovery",
                        format!(
                            "ep{dev} subkernel {from}..{to} started after its promotion to owner"
                        ),
                    ));
                }
                if frontier_exact && *to != frontier_top {
                    out.push(LintDiagnostic::error(
                        "claim-descent",
                        format!(
                            "ep{dev} claim {from}..{to} breaks the descent; expected it to end \
                             at the frontier top {frontier_top}"
                        ),
                    ));
                }
                frontier_top = frontier_top.min(*from);
                // Frontier disjointness: a claim may only overlap a range a
                // *lost* or *promoted* endpoint claimed — the frontier
                // returned it (promotion re-enqueues un-acked claims).
                for (cf, ct, cdev) in &claims {
                    if from < ct
                        && cf < to
                        && !lost_devs.contains(cdev)
                        && !promoted_devs.contains(cdev)
                    {
                        out.push(LintDiagnostic::error(
                            "claim-disjoint",
                            format!(
                                "ep{dev} claim {from}..{to} overlaps ep{cdev} claim {cf}..{ct} \
                                 although ep{cdev} was never lost"
                            ),
                        ));
                    }
                }
                claims.push((*from, *to, *dev));
            }
            TraceKind::EpSubkernelDone { dev, from, to } => {
                let ep = eps.entry(*dev).or_default();
                match ep.open_sub.take() {
                    Some((sf, st)) if sf == *from && st == *to => {
                        ep.done.push((e.at, *from, *to));
                    }
                    other => {
                        out.push(LintDiagnostic::error(
                            "ep-pairing",
                            format!(
                                "ep{dev} subkernel {from}..{to} finished but {other:?} was \
                                 running on that endpoint"
                            ),
                        ));
                    }
                }
            }
            TraceKind::EpSend {
                dev,
                boundary,
                bytes,
                dirty_bytes,
                subkernels,
            } => {
                if exited {
                    out.push(LintDiagnostic::error(
                        "data-before-status",
                        format!(
                            "ep{dev} transfer (boundary {boundary}) enqueued after the gpu exit"
                        ),
                    ));
                }
                if promoted_devs.contains(dev) {
                    out.push(LintDiagnostic::error(
                        "recovery",
                        format!(
                            "ep{dev} transfer (boundary {boundary}) enqueued after its \
                             promotion to owner"
                        ),
                    ));
                }
                if *subkernels == 0 {
                    out.push(LintDiagnostic::error(
                        "data-before-status",
                        format!("ep{dev} transfer (boundary {boundary}) carries no subkernels"),
                    ));
                }
                if *subkernels > 1 && depth <= 1 {
                    out.push(LintDiagnostic::error(
                        "coalesced-send",
                        format!(
                            "ep{dev} batch of {subkernels} subkernels in a serial trace \
                             (pipeline depth {depth})"
                        ),
                    ));
                }
                if let Some(d) = dirty_bytes {
                    if *bytes != d + STATUS_MSG_BYTES {
                        out.push(LintDiagnostic::error(
                            "transfer-bytes",
                            format!(
                                "ep{dev} transfer (boundary {boundary}) ships {bytes} B but its \
                                 dirty payload is {d} B + {STATUS_MSG_BYTES} B status"
                            ),
                        ));
                    }
                }
                let ep = eps.entry(*dev).or_default();
                let batch = *subkernels as usize;
                if relaxed {
                    // Resends repeat already-shipped ranges; the surviving
                    // invariant is that the boundary names one of this
                    // endpoint's completed subkernels.
                    if !ep.done.iter().any(|(_, f, _)| f == boundary) {
                        out.push(LintDiagnostic::error(
                            "data-before-status",
                            format!(
                                "ep{dev} transfer carries boundary {boundary} but no completed \
                                 subkernel of that endpoint starts there"
                            ),
                        ));
                    }
                    // Reconstruct the batch for the credit ledger: a send
                    // (and any resend of it) carries a consecutive
                    // completion-order window of this endpoint's done
                    // subkernels whose lowest start is the boundary.
                    let consumed: Vec<(u64, u64)> = if batch == 0 || batch > ep.done.len() {
                        Vec::new()
                    } else {
                        (0..=ep.done.len() - batch)
                            .map(|i| &ep.done[i..i + batch])
                            .find(|w| {
                                w.iter().all(|(at, _, _)| *at <= e.at)
                                    && w.iter().map(|(_, f, _)| *f).min() == Some(*boundary)
                            })
                            .map(|w| w.iter().map(|(_, f, t)| (*f, *t)).collect())
                            .unwrap_or_default()
                    };
                    ep.sends.push((e.at, *boundary, consumed));
                } else {
                    // Fault-free shipping consumes this endpoint's completed
                    // subkernels strictly in completion order; the boundary
                    // is the lowest start in the batch.
                    let end = ep.shipped + batch;
                    if end > ep.done.len() {
                        out.push(LintDiagnostic::error(
                            "data-before-status",
                            format!(
                                "ep{dev} batch of {batch} (boundary {boundary}) outruns the \
                                 {} completed subkernels of that endpoint",
                                ep.done.len()
                            ),
                        ));
                        ep.sends.push((e.at, *boundary, Vec::new()));
                    } else {
                        let consumed: Vec<(u64, u64)> = ep.done[ep.shipped..end]
                            .iter()
                            .map(|(_, f, t)| (*f, *t))
                            .collect();
                        let lowest = consumed.iter().map(|(f, _)| *f).min().unwrap_or(total);
                        if lowest != *boundary {
                            out.push(LintDiagnostic::error(
                                "data-before-status",
                                format!(
                                    "ep{dev} batch of {batch} carries boundary {boundary} but \
                                     its lowest subkernel starts at {lowest}"
                                ),
                            ));
                        }
                        ep.sends.push((e.at, *boundary, consumed));
                        ep.shipped = end;
                    }
                }
            }
            TraceKind::EpStatus {
                dev,
                boundary,
                watermark: wm,
            } => {
                if exited {
                    out.push(LintDiagnostic::error(
                        "gpu-exit",
                        format!("ep{dev} status (boundary {boundary}) arrived after the gpu exit"),
                    ));
                }
                if *wm > watermark {
                    out.push(LintDiagnostic::error(
                        "watermark-monotone",
                        format!("watermark rose from {watermark} to {wm}"),
                    ));
                }
                let ep = eps.entry(*dev).or_default();
                if relaxed {
                    match ep
                        .sends
                        .iter()
                        .find(|(sent_at, b, _)| b == boundary && *sent_at <= e.at)
                    {
                        None => out.push(LintDiagnostic::error(
                            "data-before-status",
                            format!(
                                "ep{dev} status (boundary {boundary}) arrived without a prior \
                                 transfer carrying it"
                            ),
                        )),
                        Some((_, _, ranges)) => {
                            // A retry re-ships the same subkernels, so any
                            // send matching the boundary carries the same
                            // ranges — good enough for the credit ledger.
                            let credited = applied_by_dev.entry(*dev).or_default();
                            for &(f, t) in ranges {
                                if f < t && t <= total {
                                    credited.push((f, t));
                                }
                            }
                        }
                    }
                } else {
                    match ep.sends.get(ep.statuses) {
                        None => out.push(LintDiagnostic::error(
                            "data-before-status",
                            format!(
                                "ep{dev} status (boundary {boundary}) arrived without a \
                                 matching enqueued transfer"
                            ),
                        )),
                        Some((sent_at, sent_boundary, ranges)) => {
                            if sent_boundary != boundary {
                                out.push(LintDiagnostic::error(
                                    "data-before-status",
                                    format!(
                                        "ep{dev} status boundary {boundary} does not match its \
                                         in-order queue (transfer {} carried {sent_boundary})",
                                        ep.statuses
                                    ),
                                ));
                            }
                            if e.at < *sent_at {
                                out.push(LintDiagnostic::error(
                                    "data-before-status",
                                    format!(
                                        "ep{dev} status (boundary {boundary}) arrived before \
                                         it was sent"
                                    ),
                                ));
                            }
                            let credited = applied_by_dev.entry(*dev).or_default();
                            for (f, t) in ranges {
                                // Out-of-bounds ranges were already reported
                                // at their claim; never feed them to the
                                // coverage set (its bounds are asserted).
                                if f < t && *t <= total {
                                    coverage.add(*f, *t);
                                    credited.push((*f, *t));
                                }
                            }
                            let suffix = coverage.suffix_start();
                            if *wm != suffix {
                                out.push(LintDiagnostic::error(
                                    "watermark-monotone",
                                    format!(
                                        "ep{dev} status reports watermark {wm} but the \
                                         delivered ranges put the covered suffix at {suffix}"
                                    ),
                                ));
                            }
                        }
                    }
                }
                ep.statuses += 1;
                watermark = watermark.min(*wm);
            }
            TraceKind::EpTransferFault { dev, boundary, .. }
            | TraceKind::EpTransferRejected { dev, boundary }
            | TraceKind::EpTransferTimeout { dev, boundary } => {
                let ep = eps.entry(*dev).or_default();
                if !ep.sends.iter().any(|(_, b, _)| b == boundary) {
                    out.push(LintDiagnostic::error(
                        "recovery",
                        format!(
                            "ep{dev} transfer fault reported for boundary {boundary} but no \
                             enqueued transfer of that endpoint carried it"
                        ),
                    ));
                }
            }
            TraceKind::NonOwnerLost { dev } => {
                let ep = eps.entry(*dev).or_default();
                if ep.lost {
                    out.push(LintDiagnostic::error(
                        "recovery",
                        format!("ep{dev} was declared lost twice"),
                    ));
                }
                ep.lost = true;
                lost_devs.push(*dev);
                // The lost endpoint's unshipped claims return to the
                // frontier.
                frontier_exact = false;
            }
            TraceKind::OwnerLost => {
                // A second owner loss is legal only when a promotion
                // installed a new owner in between (cascading failover).
                if owner_losses > promotions {
                    out.push(LintDiagnostic::error(
                        "recovery",
                        "the owner gpu was declared lost twice",
                    ));
                }
                owner_losses += 1;
                // The acting owner died mid-walk: its running wave is
                // abandoned, never completed.
                open_wave = None;
            }
            TraceKind::OwnerPromoted { dev, epoch } => {
                if promotions >= owner_losses {
                    out.push(LintDiagnostic::error(
                        "recovery",
                        format!("ep{dev} promoted although the acting owner was not lost"),
                    ));
                }
                if *epoch as usize != promotions + 1 {
                    out.push(LintDiagnostic::error(
                        "recovery",
                        format!(
                            "ep{dev} promoted to epoch {epoch}, expected epoch {} (epochs are \
                             strictly sequential)",
                            promotions + 1
                        ),
                    ));
                }
                if lost_devs.contains(dev) || promoted_devs.contains(dev) {
                    out.push(LintDiagnostic::error(
                        "recovery",
                        format!("ep{dev} promoted although it is lost or already the owner"),
                    ));
                }
                promotions += 1;
                promoted_devs.push(*dev);
                frontier_exact = false;
                // The new owner resumes the wave walk from work-group 0.
                expected_next = 0;
                wave_aborted = false;
                // Promotion un-credits the promoted endpoint's delivered
                // ranges (they leave coverage and return to the frontier
                // for the survivors), so the engine's watermark may legally
                // rise here: rebuild it as the covered suffix of the other
                // endpoints' still-credited deliveries.
                applied_by_dev.remove(dev);
                let mut rebuilt = Coverage::new(total);
                for ranges in applied_by_dev.values() {
                    for &(f, t) in ranges {
                        rebuilt.add(f, t);
                    }
                }
                watermark = rebuilt.suffix_start();
                coverage = rebuilt;
            }
            TraceKind::EpochRejected { dev, boundary } => {
                if promotions == 0 {
                    out.push(LintDiagnostic::error(
                        "recovery",
                        format!(
                            "ep{dev} status (boundary {boundary}) rejected as stale although \
                             no promotion occurred"
                        ),
                    ));
                }
                let ep = eps.entry(*dev).or_default();
                if !ep.sends.iter().any(|(_, b, _)| b == boundary) {
                    out.push(LintDiagnostic::error(
                        "recovery",
                        format!(
                            "ep{dev} stale-epoch rejection for boundary {boundary} but no \
                             enqueued transfer of that endpoint carried it"
                        ),
                    ));
                }
            }
            TraceKind::KernelComplete { finisher } => {
                completes.push((e.at, *finisher));
            }
            // Reported by `lint_trace`; solo spans never reach this replay.
            TraceKind::Enqueued { .. }
            | TraceKind::SoloRun { .. }
            | TraceKind::CpuSubkernelStart { .. }
            | TraceKind::CpuSubkernelDone { .. }
            | TraceKind::HdEnqueued {}
            | TraceKind::CoalescedSend {} => {}
        }
    }

    if launches == 0 && total > 0 {
        out.push(LintDiagnostic::error(
            "trace-shape",
            "gpu was never launched",
        ));
    }
    for (dev, ep) in &eps {
        if let Some((sf, st)) = ep.open_sub {
            // A lost endpoint legally leaves exactly its killed subkernel
            // open, and so does a promoted one (its in-flight subkernel is
            // abandoned when it takes the owner role); any other dangling
            // subkernel is an engine defect.
            if !ep.lost && !promoted_devs.contains(dev) {
                out.push(LintDiagnostic::error(
                    "ep-pairing",
                    format!("ep{dev} subkernel {sf}..{st} never completed"),
                ));
            }
        }
    }
    let all_done: Vec<(SimTime, u64, u64)> = eps
        .values()
        .flat_map(|ep| ep.done.iter().copied())
        .collect();
    // The lost-owner endgame applies only when the *final* acting owner is
    // dead — a promotion that installed a healthy new owner means the
    // kernel still exits, merges and completes through the owner role.
    if owner_losses > promotions {
        // A lost owner never exits and never merges; the non-owners finish
        // the whole NDRange among themselves and the host assembles.
        if exit_at.is_some() {
            out.push(LintDiagnostic::error(
                "recovery",
                "gpu exited although it was declared lost",
            ));
        }
        if merge_at.is_some() {
            out.push(LintDiagnostic::error(
                "recovery",
                "diff-merge completed although the gpu was lost",
            ));
        }
        match completes.as_slice() {
            [(at, Finisher::Cpu)] => {
                if !all_done.iter().any(|(t, _, _)| t == at) {
                    out.push(LintDiagnostic::error(
                        "completion",
                        "cpu finisher without any subkernel completing at that time",
                    ));
                }
            }
            [(_, Finisher::Gpu)] => out.push(LintDiagnostic::error(
                "completion",
                "a kernel whose gpu was lost cannot be finished by the gpu",
            )),
            other => out.push(completion_count_error(other.len())),
        }
        let done_spans = all_done.iter().map(|(_, f, t)| (*f, *t)).collect();
        check_cover(out, done_spans, total, "any survivor");
        return;
    }
    if let Some((wf, wt)) = open_wave {
        if exit_at.is_none() {
            out.push(LintDiagnostic::error(
                "gpu-exit",
                format!("wave {wf}..{wt} never completed and the gpu never exited"),
            ));
        }
    }
    let Some(exit) = exit_at else {
        out.push(LintDiagnostic::error("gpu-exit", "gpu never exited"));
        return;
    };
    let Some(merge) = merge_at else {
        out.push(LintDiagnostic::error("merge", "diff-merge never completed"));
        return;
    };
    if merge < exit {
        out.push(LintDiagnostic::error(
            "merge",
            "diff-merge completed before the gpu exit",
        ));
    }
    match completes.as_slice() {
        [(at, Finisher::Gpu)] => {
            if *at != merge {
                out.push(LintDiagnostic::error(
                    "completion",
                    "gpu-finished kernel must complete exactly at merge time",
                ));
            }
        }
        // The CPU's copy is authoritative only when it was the sole
        // endpoint (paper §4.2); with peers the final data only ever exists
        // assembled on the owner.
        [(at, Finisher::Cpu)] => {
            if eps.keys().any(|&dev| dev > 0) {
                out.push(LintDiagnostic::error(
                    "completion",
                    "a kernel with peer endpoints and a healthy owner must be finished by the gpu",
                ));
            }
            if *at >= merge {
                out.push(LintDiagnostic::error(
                    "completion",
                    "cpu-finished kernel must complete strictly before the merge",
                ));
            }
            if !eps
                .get(&0)
                .is_some_and(|ep| ep.done.iter().any(|(t, f, _)| *f == 0 && t == at))
            {
                out.push(LintDiagnostic::error(
                    "completion",
                    "cpu finisher without a subkernel reaching work-group 0 at that time",
                ));
            }
        }
        other => out.push(completion_count_error(other.len())),
    }
    // Coverage: the owner's executed ranges plus the delivered suffix
    // [watermark, total) must cover every work-group (delivered islands
    // below the watermark are re-executed by the owner — duplicated, never
    // lost).
    if watermark < total {
        exec_ranges.push((watermark, total));
    }
    check_cover(out, exec_ranges, total, "any device");
}

/// The finding for a kernel that completed `n != 1` times.
fn completion_count_error(n: usize) -> LintDiagnostic {
    LintDiagnostic::error(
        "completion",
        if n == 0 {
            "kernel never completed"
        } else {
            "kernel completed more than once"
        },
    )
}

/// Degraded runs after a permanent loss and graph nodes placed on a peer
/// record `[Enqueued, solo span(s), KernelComplete]`: one device executes
/// the whole NDRange alone, so no co-execution machinery (waves,
/// subkernels, transfers) may appear.
fn lint_solo(events: &[TraceEvent], total: u64, out: &mut Vec<LintDiagnostic>) {
    let mut spans: Vec<(u64, u64)> = Vec::new();
    let mut devices: Vec<Lane> = Vec::new();
    let mut completes = 0usize;
    for e in &events[1..] {
        let (device, from, to) = match e.kind {
            TraceKind::SoloRun { lane, from, to, .. } => (lane, from, to),
            TraceKind::KernelComplete { .. } => {
                completes += 1;
                continue;
            }
            // Reported by `lint_trace`.
            TraceKind::Enqueued { .. }
            | TraceKind::CpuSubkernelStart { .. }
            | TraceKind::CpuSubkernelDone { .. }
            | TraceKind::HdEnqueued {}
            | TraceKind::CoalescedSend {} => continue,
            ref other => {
                out.push(LintDiagnostic::error(
                    "solo-shape",
                    format!("event `{other}` has no place in a single-device trace"),
                ));
                continue;
            }
        };
        if from >= to {
            out.push(LintDiagnostic::error(
                "solo-shape",
                format!("single-device span {from}..{to} is empty or reversed"),
            ));
        }
        spans.push((from, to));
        if !devices.contains(&device) {
            devices.push(device);
        }
    }
    if completes != 1 {
        out.push(LintDiagnostic::error(
            "completion",
            format!("single-device run completed {completes} times, expected exactly once"),
        ));
    }
    if devices.len() > 1 {
        out.push(LintDiagnostic::error(
            "solo-shape",
            format!(
                "one single-device run spans more than one device ({})",
                devices
                    .iter()
                    .map(Lane::to_string)
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ));
    }
    check_cover(out, spans, total, "the sole device");
}

/// Lints a kernel report: runs [`lint_trace`] on its trace and cross-checks
/// the report counters against what the trace records.
pub fn lint_report(report: &KernelReport) -> Vec<LintDiagnostic> {
    let mut out = lint_trace(&report.trace);
    let mut gpu_executed = 0u64;
    let mut cpu_executed = 0u64;
    let mut peer_executed = 0u64;
    let mut subkernel_starts = 0u64;
    let mut trace_hd_bytes = 0u64;
    let mut final_watermark = report.total_wgs;
    let mut complete: Option<(SimTime, Finisher)> = None;
    let mut trace_total: Option<u64> = None;
    let mut device_lost = false;
    let mut peers = false;
    for e in &report.trace {
        match &e.kind {
            TraceKind::Enqueued { total_wgs, .. } => {
                trace_total.get_or_insert(*total_wgs);
                if e.at != report.enqueued_at {
                    out.push(LintDiagnostic::error(
                        "report-consistency",
                        "trace enqueue time differs from the report",
                    ));
                }
            }
            TraceKind::GpuWaveDone {
                from, executed_to, ..
            } => gpu_executed += executed_to.saturating_sub(*from),
            TraceKind::EpSubkernelStart { dev, .. } => {
                peers |= *dev > 0;
                subkernel_starts += 1;
            }
            TraceKind::EpSubkernelDone { dev, from, to } => {
                if *dev == 0 {
                    cpu_executed += to - from;
                } else {
                    peer_executed += to - from;
                }
            }
            TraceKind::EpSend { bytes, .. } => trace_hd_bytes += bytes,
            TraceKind::EpStatus { watermark, .. } => {
                final_watermark = final_watermark.min(*watermark);
            }
            TraceKind::KernelComplete { finisher } => complete = Some((e.at, *finisher)),
            TraceKind::SoloRun { lane, from, to, .. } => match lane {
                Lane::Cpu => cpu_executed += to - from,
                Lane::Gpu => gpu_executed += to - from,
                Lane::Peer(_) => peer_executed += to - from,
            },
            TraceKind::OwnerLost | TraceKind::NonOwnerLost { .. } => device_lost = true,
            _ => {}
        }
    }
    let mut mismatch = |what: &str, trace_v: u64, report_v: u64| {
        if trace_v != report_v {
            out.push(LintDiagnostic::error(
                "report-consistency",
                format!("trace shows {trace_v} {what}, report claims {report_v}"),
            ));
        }
    };
    mismatch(
        "total work-groups",
        trace_total.unwrap_or(report.total_wgs),
        report.total_wgs,
    );
    mismatch(
        "gpu-executed work-groups",
        gpu_executed,
        report.gpu_executed_wgs,
    );
    mismatch(
        "cpu-executed work-groups",
        cpu_executed,
        report.cpu_executed_wgs,
    );
    mismatch(
        "peer-executed work-groups",
        peer_executed,
        report.peer_executed_wgs.iter().sum(),
    );
    mismatch("subkernels", subkernel_starts, report.subkernels);
    mismatch("hd bytes", trace_hd_bytes, report.hd_bytes);
    // After a device loss the merged region is decoupled from the
    // watermark (a lost owner merges nothing at all). Otherwise the CPU
    // alone delivers a contiguous suffix, so the merged count is exactly
    // the suffix; with peers, delivered islands below the final watermark
    // merge too, so the suffix bounds the count from below and the
    // endpoints' executed total bounds it from above.
    if !device_lost {
        let suffix = report.total_wgs - final_watermark;
        if !peers {
            mismatch("cpu-merged work-groups", suffix, report.cpu_merged_wgs);
        } else if report.cpu_merged_wgs < suffix {
            out.push(LintDiagnostic::error(
                "report-consistency",
                format!(
                    "report merges {} work-groups but the delivered suffix alone covers {suffix}",
                    report.cpu_merged_wgs
                ),
            ));
        } else if report.cpu_merged_wgs > cpu_executed + peer_executed {
            out.push(LintDiagnostic::error(
                "report-consistency",
                format!(
                    "report merges {} work-groups but the endpoints only executed {}",
                    report.cpu_merged_wgs,
                    cpu_executed + peer_executed
                ),
            ));
        }
    }
    if let Some((at, finisher)) = complete {
        if at != report.complete_at || finisher != report.finished_by {
            out.push(LintDiagnostic::error(
                "report-consistency",
                "trace completion event disagrees with the report",
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluidicl_des::SimTime;

    fn ev(ns: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            at: SimTime::from_nanos(ns),
            kind,
        }
    }

    fn start(dev: u32, from: u64, to: u64) -> TraceKind {
        TraceKind::EpSubkernelStart {
            dev,
            from,
            to,
            version: 0,
        }
    }

    fn done(dev: u32, from: u64, to: u64) -> TraceKind {
        TraceKind::EpSubkernelDone { dev, from, to }
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

    fn enqueued(total_wgs: u64) -> TraceKind {
        TraceKind::Enqueued {
            total_wgs,
            pipeline_depth: 1,
        }
    }

    fn complete(finisher: Finisher) -> TraceKind {
        TraceKind::KernelComplete { finisher }
    }

    /// A legal two-device co-execution over 4 work-groups: the CPU (ep0)
    /// takes the top two one at a time, the first status arrives in time,
    /// the second never does (its transfer is in flight when the GPU
    /// exits).
    fn legal_trace() -> Vec<TraceEvent> {
        vec![
            ev(0, enqueued(4)),
            ev(5, start(0, 3, 4)),
            ev(10, TraceKind::GpuLaunch),
            ev(10, TraceKind::GpuWaveStart { from: 0, to: 2 }),
            ev(20, done(0, 3, 4)),
            ev(25, send(0, 3)),
            ev(25, start(0, 2, 3)),
            ev(
                30,
                TraceKind::GpuWaveDone {
                    from: 0,
                    to: 2,
                    executed_to: 2,
                },
            ),
            ev(30, TraceKind::GpuWaveStart { from: 2, to: 4 }),
            ev(35, status(0, 3, 3)),
            ev(38, done(0, 2, 3)),
            ev(39, send(0, 2)),
            ev(
                40,
                TraceKind::GpuWaveDone {
                    from: 2,
                    to: 4,
                    executed_to: 3,
                },
            ),
            ev(40, TraceKind::GpuExit),
            ev(45, TraceKind::MergeDone),
            ev(45, complete(Finisher::Gpu)),
        ]
    }

    fn rules(t: &[TraceEvent]) -> Vec<&'static str> {
        lint_trace(t).iter().map(|d| d.rule).collect()
    }

    #[test]
    fn legal_trace_is_clean() {
        assert_eq!(lint_trace(&legal_trace()), vec![]);
    }

    #[test]
    fn empty_trace_is_flagged() {
        assert!(rules(&[]).contains(&"trace-shape"));
    }

    #[test]
    fn missing_enqueue_record_is_flagged() {
        assert!(rules(&legal_trace()[1..]).contains(&"trace-shape"));
    }

    #[test]
    fn retired_events_are_flagged() {
        let mut t = legal_trace();
        t.insert(2, ev(5, TraceKind::HdEnqueued {}));
        assert!(rules(&t).contains(&"trace-shape"), "{:?}", lint_trace(&t));
    }

    #[test]
    fn rising_watermark_is_flagged() {
        let mut t = legal_trace();
        // The status claims a watermark above the current one (4).
        for e in &mut t {
            if let TraceKind::EpStatus { watermark, .. } = &mut e.kind {
                *watermark = 5;
            }
        }
        assert!(rules(&t).contains(&"watermark-monotone"));
    }

    #[test]
    fn watermark_disagreeing_with_delivered_ranges_is_flagged() {
        let mut t = legal_trace();
        for e in &mut t {
            if let TraceKind::EpStatus { watermark, .. } = &mut e.kind {
                *watermark = 2;
            }
        }
        assert!(rules(&t).contains(&"watermark-monotone"));
    }

    #[test]
    fn status_without_transfer_is_flagged() {
        let mut t = legal_trace();
        t.retain(|e| !matches!(e.kind, TraceKind::EpSend { .. }));
        assert!(rules(&t).contains(&"data-before-status"));
    }

    #[test]
    fn status_faster_than_its_data_is_flagged() {
        let mut t = legal_trace();
        for e in &mut t {
            if matches!(e.kind, TraceKind::EpStatus { .. }) {
                e.at = SimTime::from_nanos(24); // before the 25ns send
            }
        }
        t.sort_by_key(|e| e.at);
        assert!(rules(&t).contains(&"data-before-status"));
    }

    #[test]
    fn batch_in_a_serial_trace_is_flagged() {
        let mut t = legal_trace();
        if let TraceKind::EpSend { subkernels, .. } = &mut t[11].kind {
            *subkernels = 2;
        }
        assert!(rules(&t).contains(&"coalesced-send"));
    }

    #[test]
    fn wave_past_watermark_is_flagged() {
        let mut t = legal_trace();
        // Deliver the status before the second wave starts: the 2..4 wave
        // then runs past the watermark 3 known at its start.
        for e in &mut t {
            if matches!(e.kind, TraceKind::EpStatus { .. }) {
                e.at = SimTime::from_nanos(28);
            }
        }
        t.sort_by_key(|e| e.at);
        assert!(rules(&t).contains(&"wave-bounds"));
    }

    #[test]
    fn wave_after_abort_is_flagged() {
        let mut t = legal_trace();
        t[12] = ev(36, TraceKind::GpuWaveAborted { from: 2, to: 4 });
        t.insert(13, ev(37, TraceKind::GpuWaveStart { from: 2, to: 3 }));
        t.sort_by_key(|e| e.at);
        assert!(
            rules(&t).contains(&"wave-contiguity"),
            "{:?}",
            lint_trace(&t)
        );
    }

    #[test]
    fn missing_wave_leaves_a_coverage_gap() {
        let mut t = legal_trace();
        t.retain(|e| {
            !matches!(
                e.kind,
                TraceKind::GpuWaveStart { from: 0, .. } | TraceKind::GpuWaveDone { from: 0, .. }
            )
        });
        let r = rules(&t);
        assert!(r.contains(&"coverage"), "{r:?}");
        assert!(r.contains(&"wave-contiguity"), "{r:?}");
    }

    #[test]
    fn merge_before_exit_is_flagged() {
        let mut t = legal_trace();
        for e in &mut t {
            if matches!(e.kind, TraceKind::MergeDone) {
                e.at = SimTime::from_nanos(39);
            }
        }
        t.sort_by_key(|e| e.at);
        assert!(rules(&t).contains(&"merge"));
    }

    #[test]
    fn missing_merge_is_flagged() {
        let mut t = legal_trace();
        t.retain(|e| !matches!(e.kind, TraceKind::MergeDone));
        assert!(rules(&t).contains(&"merge"));
    }

    #[test]
    fn claim_off_the_frontier_top_is_flagged() {
        let mut t = legal_trace();
        // Second claim skips a work-group: 1..2 instead of 2..3.
        t[6] = ev(25, start(0, 1, 2));
        assert!(rules(&t).contains(&"claim-descent"));
    }

    #[test]
    fn overlapping_live_claims_are_flagged() {
        let mut t = legal_trace();
        t.insert(7, ev(25, start(1, 2, 4)));
        let r = rules(&t);
        assert!(r.contains(&"claim-disjoint"), "{r:?}");
    }

    #[test]
    fn double_completion_is_flagged() {
        let mut t = legal_trace();
        t.push(ev(50, complete(Finisher::Gpu)));
        assert!(rules(&t).contains(&"completion"));
    }

    #[test]
    fn unsorted_trace_is_flagged() {
        let mut t = legal_trace();
        t.swap(3, 12);
        assert!(rules(&t).contains(&"chronology"));
    }

    #[test]
    fn cpu_finisher_requires_reaching_zero_before_the_merge() {
        let mut t = legal_trace();
        for e in &mut t {
            if let TraceKind::KernelComplete { finisher } = &mut e.kind {
                *finisher = Finisher::Cpu;
            }
        }
        assert!(rules(&t).contains(&"completion"));
    }

    /// A single endpoint that computed the whole NDRange before the merge:
    /// its copy is authoritative and the kernel completes at that instant.
    fn cpu_finished_trace(dev: u32) -> Vec<TraceEvent> {
        vec![
            ev(0, enqueued(2)),
            ev(1, start(dev, 0, 2)),
            ev(2, TraceKind::GpuLaunch),
            ev(2, TraceKind::GpuWaveStart { from: 0, to: 2 }),
            ev(5, done(dev, 0, 2)),
            ev(5, complete(Finisher::Cpu)),
            ev(
                8,
                TraceKind::GpuWaveDone {
                    from: 0,
                    to: 2,
                    executed_to: 2,
                },
            ),
            ev(8, TraceKind::GpuExit),
            ev(8, TraceKind::MergeDone),
        ]
    }

    #[test]
    fn cpu_finisher_is_legal_only_for_a_sole_cpu_endpoint() {
        assert_eq!(lint_trace(&cpu_finished_trace(0)), vec![]);
        assert!(rules(&cpu_finished_trace(1)).contains(&"completion"));
    }

    #[test]
    fn consistent_dirty_byte_accounting_is_clean() {
        let mut t = legal_trace();
        for e in &mut t {
            if let TraceKind::EpSend {
                bytes, dirty_bytes, ..
            } = &mut e.kind
            {
                *dirty_bytes = Some(48);
                *bytes = 48 + STATUS_MSG_BYTES;
            }
        }
        assert_eq!(lint_trace(&t), vec![]);
    }

    #[test]
    fn over_shipped_transfer_is_flagged() {
        let mut t = legal_trace();
        for e in &mut t {
            if let TraceKind::EpSend {
                bytes, dirty_bytes, ..
            } = &mut e.kind
            {
                // Claims 32 dirty bytes but ships a 64 B payload.
                *dirty_bytes = Some(32);
                *bytes = 64 + STATUS_MSG_BYTES;
            }
        }
        assert!(rules(&t).contains(&"transfer-bytes"));
    }

    /// A legal owner-loss recovery over 4 work-groups: the first wave is
    /// killed (never completes), the CPU keeps descending to work-group 0
    /// and finishes the kernel alone — no exit, no merge.
    fn owner_loss_trace() -> Vec<TraceEvent> {
        vec![
            ev(0, enqueued(4)),
            ev(5, start(0, 3, 4)),
            ev(10, TraceKind::GpuLaunch),
            ev(10, TraceKind::GpuWaveStart { from: 0, to: 2 }),
            ev(20, done(0, 3, 4)),
            ev(25, send(0, 3)),
            ev(25, start(0, 2, 3)),
            ev(35, status(0, 3, 3)),
            ev(38, done(0, 2, 3)),
            ev(39, send(0, 2)),
            ev(39, start(0, 1, 2)),
            ev(45, done(0, 1, 2)),
            ev(46, start(0, 0, 1)),
            ev(50, TraceKind::OwnerLost),
            ev(52, done(0, 0, 1)),
            ev(52, complete(Finisher::Cpu)),
        ]
    }

    #[test]
    fn owner_loss_recovery_trace_is_legal() {
        assert_eq!(lint_trace(&owner_loss_trace()), vec![]);
    }

    #[test]
    fn gpu_finisher_after_owner_loss_is_flagged() {
        let mut t = owner_loss_trace();
        for e in &mut t {
            if let TraceKind::KernelComplete { finisher } = &mut e.kind {
                *finisher = Finisher::Gpu;
            }
        }
        assert!(rules(&t).contains(&"completion"));
    }

    #[test]
    fn owner_loss_with_incomplete_descent_is_flagged() {
        let mut t = owner_loss_trace();
        // Drop the final 0..1 subkernel: nobody executed work-group 0.
        t.retain(|e| {
            !matches!(
                e.kind,
                TraceKind::EpSubkernelStart { from: 0, .. }
                    | TraceKind::EpSubkernelDone { from: 0, .. }
            )
        });
        assert!(rules(&t).contains(&"coverage"));
    }

    #[test]
    fn lost_endpoint_may_leave_its_subkernel_open() {
        // The kernel completes normally on the GPU while the killed CPU
        // subkernel stays open; the loss is detected (and recorded) only
        // when the watchdog drains after completion.
        let mut t = legal_trace();
        t.insert(12, ev(39, start(0, 1, 2)));
        t.push(ev(60, TraceKind::NonOwnerLost { dev: 0 }));
        assert_eq!(lint_trace(&t), vec![]);
    }

    #[test]
    fn open_subkernel_without_recorded_loss_is_still_flagged() {
        let mut t = legal_trace();
        t.insert(12, ev(39, start(0, 1, 2)));
        assert!(rules(&t).contains(&"ep-pairing"));
    }

    #[test]
    fn transient_retry_resend_is_legal() {
        // The first transfer (boundary 3) fails transiently and is resent;
        // its status arrives late, interleaved with the boundary-2 send.
        let t = vec![
            ev(0, enqueued(4)),
            ev(5, start(0, 3, 4)),
            ev(10, TraceKind::GpuLaunch),
            ev(10, TraceKind::GpuWaveStart { from: 0, to: 2 }),
            ev(20, done(0, 3, 4)),
            ev(25, send(0, 3)),
            ev(25, start(0, 2, 3)),
            ev(
                30,
                TraceKind::GpuWaveDone {
                    from: 0,
                    to: 2,
                    executed_to: 2,
                },
            ),
            ev(30, TraceKind::GpuWaveStart { from: 2, to: 4 }),
            ev(
                35,
                TraceKind::EpTransferFault {
                    dev: 0,
                    boundary: 3,
                    attempt: 1,
                },
            ),
            ev(36, send(0, 3)),
            ev(38, done(0, 2, 3)),
            ev(39, send(0, 2)),
            ev(39, status(0, 3, 3)),
            ev(
                40,
                TraceKind::GpuWaveDone {
                    from: 2,
                    to: 4,
                    executed_to: 3,
                },
            ),
            ev(40, TraceKind::GpuExit),
            ev(45, TraceKind::MergeDone),
            ev(45, complete(Finisher::Gpu)),
        ];
        assert_eq!(lint_trace(&t), vec![]);
    }

    #[test]
    fn fault_event_for_unsent_boundary_is_flagged() {
        let mut t = legal_trace();
        t.insert(
            10,
            ev(
                36,
                TraceKind::EpTransferFault {
                    dev: 0,
                    boundary: 1,
                    attempt: 1,
                },
            ),
        );
        t.sort_by_key(|e| e.at);
        assert!(rules(&t).contains(&"recovery"));
    }

    fn solo_trace(span: TraceKind, finisher: Finisher) -> Vec<TraceEvent> {
        vec![ev(0, enqueued(8)), ev(3, span), ev(90, complete(finisher))]
    }

    fn degraded(lane: Lane, to: u64) -> TraceKind {
        TraceKind::SoloRun {
            lane,
            node: None,
            from: 0,
            to,
        }
    }

    fn graph_run(dev: u32, from: u64, to: u64) -> TraceKind {
        TraceKind::SoloRun {
            lane: Lane::Peer(dev),
            node: Some(1),
            from,
            to,
        }
    }

    #[test]
    fn solo_traces_are_legal() {
        let cpu = solo_trace(degraded(Lane::Cpu, 8), Finisher::Cpu);
        assert_eq!(lint_trace(&cpu), vec![]);
        let peer = solo_trace(degraded(Lane::Peer(1), 8), Finisher::Gpu);
        assert_eq!(lint_trace(&peer), vec![]);
        let node = solo_trace(graph_run(1, 0, 8), Finisher::Gpu);
        assert_eq!(lint_trace(&node), vec![]);
    }

    #[test]
    fn solo_trace_with_coverage_gap_is_flagged() {
        let t = solo_trace(degraded(Lane::Gpu, 6), Finisher::Gpu);
        assert!(rules(&t).contains(&"coverage"));
        let t = solo_trace(graph_run(1, 0, 6), Finisher::Gpu);
        assert!(rules(&t).contains(&"coverage"));
    }

    #[test]
    fn coexec_machinery_inside_solo_trace_is_flagged() {
        let mut t = solo_trace(degraded(Lane::Gpu, 8), Finisher::Gpu);
        t.insert(1, ev(2, TraceKind::GpuLaunch));
        assert!(rules(&t).contains(&"solo-shape"));
        let mut t = solo_trace(graph_run(1, 0, 8), Finisher::Gpu);
        t.insert(1, ev(2, TraceKind::GpuLaunch));
        assert!(rules(&t).contains(&"solo-shape"));
    }

    #[test]
    fn solo_run_rejects_device_migration() {
        let mut t = solo_trace(graph_run(1, 0, 4), Finisher::Gpu);
        t.insert(2, ev(20, graph_run(2, 4, 8)));
        let diags = lint_trace(&t);
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("more than one device")),
            "{diags:?}"
        );
    }

    #[test]
    fn diagnostics_render_with_rule_and_severity() {
        let d = LintDiagnostic::error("coverage", "gap at 3..5");
        assert_eq!(d.to_string(), "[error] coverage: gap at 3..5");
        let w = LintDiagnostic::warning("unused-input", "arg `x` never read");
        assert!(w.to_string().starts_with("[warning]"));
        assert!(LintSeverity::Warning < LintSeverity::Error);
    }
}
