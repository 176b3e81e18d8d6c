//! Protocol-trace linter: checks a co-executed kernel's [`TraceEvent`] log
//! against the FluidiCL protocol invariants.
//!
//! The co-execution engine records every protocol event with its virtual
//! timestamp (sorted chronologically, ties in processing order), so the
//! trace is a complete replayable record of one kernel's execution. Every
//! co-execution uses one vocabulary — the owner's wave walk plus the
//! shared-frontier endpoint events, with the paper's CPU as endpoint 0 —
//! and one fold, [`Replay`], decides what each event means; the rules
//! below check its steps. The paper's two-device protocol is the case of
//! a single endpoint. The linter verifies:
//!
//! * non-owner **claims descend the frontier**: until recovery returns a
//!   range, every claim ends at the top of the unclaimed region (§4.2,
//!   Fig. 7); claims of live endpoints never overlap, and each endpoint
//!   runs one subkernel at a time;
//! * **data precedes status** on each endpoint's in-order queue (§4.2,
//!   §5.4), by one ship/void/ack rule on fault-free and fault traces
//!   alike. A send ships a *fresh batch* — the endpoint's oldest
//!   completed-but-unshipped subkernels, named by the lowest of their
//!   starts as boundary — or *re-sends* the batch of a transfer a fault,
//!   rejection, timeout or stale epoch voided; a fault must void a live
//!   send; a status acks the live send carrying its boundary, and may
//!   overtake an older live send only while a voided send of that
//!   endpoint awaits its re-ack. A batch of several subkernels may not
//!   appear in a serial (unpipelined) trace;
//! * the **watermark only decreases** and every status reports exactly the
//!   covered suffix of the ranges acked so far — a promotion un-credits
//!   the promoted endpoint's acks and rebuilds it (§4.2);
//! * GPU **waves stay below the watermark** known when they start, ascend
//!   contiguously from 0, never run past the kernel exit, and an aborted
//!   wave is followed by the exit (§4.2, §6.4, Fig. 6);
//! * GPU-executed ranges and the merged suffix together **cover**
//!   `[0, total)` — no work-group is lost (§4.3);
//! * exactly one **exit → merge → complete** sequence, in order; a CPU
//!   finisher completes strictly before the merge, and only when the CPU
//!   is the sole endpoint (§4.2–4.4); a lost owner's kernel is finished
//!   by the survivors without exit or merge;
//! * under dirty-range transfers, every send ships exactly its **coalesced
//!   dirty payload plus the status message**.
//!
//! Faults excuse exactly the damage they cause: a fault event names the
//! transfer it voided, a loss or promotion returns ranges that may be
//! claimed again, and nothing else is forgiven.
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

use std::fmt;

use fluidicl_des::SimTime;

use crate::replay::{Replay, Step};
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
    lint(events).0
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

/// What the linter tracks beyond the [`Replay`]: the owner's wave walk and
/// endgame, or a single-device run's spans.
#[derive(Default)]
struct Owner {
    launches: usize,
    losses: usize,
    next_wave: u64,
    wave: Option<(u64, u64)>,
    aborted: bool,
    /// Ranges the owner waves (or the solo spans) executed.
    executed: Vec<(u64, u64)>,
    solo_lanes: Vec<Lane>,
    exit_at: Option<SimTime>,
    merge_at: Option<SimTime>,
}

/// Lints `events` in one pass of the [`Replay`] fold. Returns the findings
/// and, for a trace with an enqueue record, the fold's final state.
fn lint(events: &[TraceEvent]) -> (Vec<LintDiagnostic>, Option<Replay>) {
    let mut out = Vec::new();
    let Some(first) = events.first() else {
        out.push(LintDiagnostic::error("trace-shape", "trace is empty"));
        return (out, None);
    };
    let TraceKind::Enqueued {
        total_wgs: total,
        pipelined,
    } = first.kind
    else {
        out.push(LintDiagnostic::error(
            "trace-shape",
            format!(
                "first event is `{}`, expected the enqueue record",
                first.kind
            ),
        ));
        return (out, None);
    };
    // Degraded runs and graph nodes placed on a peer record solo spans
    // instead of co-execution, and are checked for exactly that shape.
    let solo = events
        .iter()
        .any(|e| matches!(e.kind, TraceKind::SoloRun { .. }));
    let mut replay = Replay::new(total);
    let mut owner = Owner::default();
    let mut prev_at = first.at;
    for e in &events[1..] {
        if e.at < prev_at {
            out.push(LintDiagnostic::error(
                "chronology",
                format!("event `{}` is timestamped before its predecessor", e.kind),
            ));
        }
        prev_at = e.at;
        let step = replay.step(e);
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
            _ if solo => lint_solo_event(e, &mut owner, &mut out),
            _ => lint_event(e, step, &replay, &mut owner, pipelined, &mut out),
        }
    }
    if solo {
        finish_solo(&replay, owner, &mut out);
    } else {
        finish_coexec(&replay, owner, &mut out);
    }
    (out, Some(replay))
}

/// Checks one co-execution event against the protocol: the owner's wave
/// walk — waves ascend contiguously from 0 below the known watermark, then
/// exactly one exit and one merge — owner loss and promotion, and on the
/// endpoints subkernel pairing, the frontier descent and claim
/// disjointness, each in-order queue's ship/void/ack pairing and the
/// coverage watermark.
fn lint_event(
    e: &TraceEvent,
    step: Step,
    r: &Replay,
    owner: &mut Owner,
    pipelined: bool,
    out: &mut Vec<LintDiagnostic>,
) {
    let exited = owner.exit_at.is_some();
    let mut err =
        |rule: &'static str, message: String| out.push(LintDiagnostic::error(rule, message));
    match e.kind {
        TraceKind::GpuLaunch => {
            owner.launches += 1;
            // Each promotion legally relaunches the owner walk once.
            if owner.launches > r.epoch as usize + 1 {
                err("trace-shape", "gpu launched twice".into());
            }
            if exited {
                err("gpu-exit", "gpu launch recorded after the gpu exit".into());
            }
        }
        TraceKind::GpuWaveStart { from, to } => {
            if exited {
                err(
                    "gpu-exit",
                    format!("wave {from}..{to} started after the gpu exit"),
                );
            }
            if owner.aborted {
                err(
                    "wave-contiguity",
                    format!("wave {from}..{to} started after an abort; the gpu must exit next"),
                );
            }
            if owner.wave.is_some() {
                err(
                    "wave-contiguity",
                    format!("wave {from}..{to} started while another wave is running"),
                );
            }
            if from != owner.next_wave {
                err(
                    "wave-contiguity",
                    format!("wave starts at {from}, expected {}", owner.next_wave),
                );
            }
            if from >= to {
                err(
                    "wave-bounds",
                    format!("wave {from}..{to} is empty or reversed"),
                );
            }
            if to > r.watermark {
                err(
                    "wave-bounds",
                    format!(
                        "wave {from}..{to} runs past the watermark {} known at its start",
                        r.watermark
                    ),
                );
            }
            owner.wave = Some((from, to));
        }
        TraceKind::GpuWaveDone {
            from,
            to,
            executed_to,
        } => match owner.wave.take() {
            Some(w) if w == (from, to) => {
                if executed_to < from || executed_to > to {
                    err(
                        "wave-bounds",
                        format!("wave {from}..{to} reports executing up to {executed_to}"),
                    );
                }
                if executed_to > from {
                    owner.executed.push((from, executed_to));
                }
                owner.next_wave = to;
            }
            other => err(
                "wave-contiguity",
                format!("wave {from}..{to} finished but {other:?} was running"),
            ),
        },
        TraceKind::GpuWaveAborted { from, to } => match owner.wave.take() {
            Some(w) if w == (from, to) => {
                owner.aborted = true;
                if r.watermark > from {
                    err(
                        "wave-bounds",
                        format!(
                            "wave {from}..{to} aborted although the watermark {} had not \
                             covered it",
                            r.watermark
                        ),
                    );
                }
            }
            other => err(
                "wave-contiguity",
                format!("wave {from}..{to} aborted but {other:?} was running"),
            ),
        },
        TraceKind::GpuExit => {
            if exited {
                err("gpu-exit", "gpu exited twice".into());
                return;
            }
            if let Some((wf, wt)) = owner.wave {
                err(
                    "gpu-exit",
                    format!("gpu exited while wave {wf}..{wt} is still running"),
                );
            }
            if owner.next_wave < r.watermark {
                err(
                    "gpu-exit",
                    format!(
                        "gpu exited at work-group {}, below the watermark {}",
                        owner.next_wave, r.watermark
                    ),
                );
            }
            owner.exit_at = Some(e.at);
        }
        TraceKind::MergeDone => {
            if owner.merge_at.is_some() {
                err("merge", "diff-merge completed twice".into());
                return;
            }
            if !exited {
                err("merge", "diff-merge completed before the gpu exited".into());
            }
            owner.merge_at = Some(e.at);
        }
        TraceKind::OwnerLost => {
            // A second owner loss is legal only when a promotion installed
            // a new owner in between (cascading failover).
            if owner.losses > r.epoch as usize {
                err("recovery", "the owner gpu was declared lost twice".into());
            }
            owner.losses += 1;
            // The acting owner died mid-walk: its running wave is
            // abandoned, never completed.
            owner.wave = None;
        }
        TraceKind::OwnerPromoted { dev, epoch } => {
            if r.epoch as usize > owner.losses {
                err(
                    "recovery",
                    format!("ep{dev} promoted although the acting owner was not lost"),
                );
            }
            if epoch != r.epoch {
                err(
                    "recovery",
                    format!(
                        "ep{dev} promoted to epoch {epoch}, expected epoch {} (epochs are \
                         strictly sequential)",
                        r.epoch
                    ),
                );
            }
            if step.again {
                err(
                    "recovery",
                    format!("ep{dev} promoted although it is lost or already the owner"),
                );
            }
            // The new owner resumes the wave walk from work-group 0.
            owner.next_wave = 0;
            owner.aborted = false;
        }
        TraceKind::EpSubkernelStart { dev, from, to, .. } => {
            if exited {
                err(
                    "ep-pairing",
                    format!("ep{dev} subkernel {from}..{to} started after the gpu exit"),
                );
            }
            if from >= to || to > r.total {
                err(
                    "ep-pairing",
                    format!("ep{dev} subkernel {from}..{to} is empty, reversed or oversized"),
                );
            }
            if step.running.is_some() {
                err(
                    "ep-pairing",
                    format!(
                        "ep{dev} subkernel {from}..{to} started while another is running on \
                         the same endpoint"
                    ),
                );
            }
            if r.eps[&dev].promoted {
                err(
                    "recovery",
                    format!("ep{dev} subkernel {from}..{to} started after its promotion to owner"),
                );
            }
            if let Some(top) = step.top.filter(|&top| top != to) {
                err(
                    "claim-descent",
                    format!(
                        "ep{dev} claim {from}..{to} breaks the descent; expected it to end at \
                         the frontier top {top}"
                    ),
                );
            }
            // A claim may only overlap a range the frontier returned: one
            // a lost or promoted endpoint claimed.
            let (_, earlier) = r.claims.split_last().expect("the claim was just recorded");
            for (cf, ct, cdev) in earlier {
                if from < *ct && *cf < to {
                    err(
                        "claim-disjoint",
                        format!(
                            "ep{dev} claim {from}..{to} overlaps ep{cdev} claim {cf}..{ct} \
                             although ep{cdev} was never lost"
                        ),
                    );
                }
            }
        }
        TraceKind::EpSubkernelDone { dev, from, to } if step.running != Some((from, to)) => err(
            "ep-pairing",
            format!(
                "ep{dev} subkernel {from}..{to} finished but {:?} was running on that endpoint",
                step.running
            ),
        ),
        TraceKind::EpSend {
            dev,
            boundary,
            bytes,
            dirty_bytes,
            subkernels,
        } => {
            if exited {
                err(
                    "data-before-status",
                    format!("ep{dev} transfer (boundary {boundary}) enqueued after the gpu exit"),
                );
            }
            if r.eps[&dev].promoted {
                err(
                    "recovery",
                    format!(
                        "ep{dev} transfer (boundary {boundary}) enqueued after its promotion \
                         to owner"
                    ),
                );
            }
            if step.unpaired {
                err(
                    "data-before-status",
                    format!(
                        "ep{dev} transfer of {subkernels} subkernels (boundary {boundary}) is \
                         neither its next completed batch nor a re-send of a voided transfer"
                    ),
                );
            }
            if subkernels > 1 && !pipelined {
                err(
                    "coalesced-send",
                    format!(
                        "ep{dev} batch of {subkernels} subkernels in a serial trace (pipeline \
                         depth 1)"
                    ),
                );
            }
            if let Some(d) = dirty_bytes.filter(|d| bytes != d + STATUS_MSG_BYTES) {
                err(
                    "transfer-bytes",
                    format!(
                        "ep{dev} transfer (boundary {boundary}) ships {bytes} B but its dirty \
                         payload is {d} B + {STATUS_MSG_BYTES} B status"
                    ),
                );
            }
        }
        TraceKind::EpStatus {
            dev,
            boundary,
            watermark,
        } => {
            if exited {
                err(
                    "gpu-exit",
                    format!("ep{dev} status (boundary {boundary}) arrived after the gpu exit"),
                );
            }
            // The fold keeps the lowest reported value, so a rise leaves
            // the status above it.
            if watermark > r.watermark {
                err(
                    "watermark-monotone",
                    format!("watermark rose from {} to {watermark}", r.watermark),
                );
            }
            if step.send.is_none() {
                err(
                    "data-before-status",
                    format!(
                        "ep{dev} status (boundary {boundary}) arrived without a live transfer \
                         carrying it"
                    ),
                );
                return;
            }
            if step.unpaired {
                err(
                    "data-before-status",
                    format!(
                        "ep{dev} status (boundary {boundary}) overtook an older transfer on its \
                         in-order queue with no re-send pending"
                    ),
                );
            }
            let suffix = r.coverage.suffix_start();
            if watermark != suffix {
                err(
                    "watermark-monotone",
                    format!(
                        "ep{dev} status reports watermark {watermark} but the delivered ranges \
                         put the covered suffix at {suffix}"
                    ),
                );
            }
        }
        TraceKind::EpTransferFault { dev, boundary, .. }
        | TraceKind::EpTransferRejected { dev, boundary }
        | TraceKind::EpTransferTimeout { dev, boundary }
        | TraceKind::EpochRejected { dev, boundary } => {
            if matches!(e.kind, TraceKind::EpochRejected { .. }) && r.epoch == 0 {
                err(
                    "recovery",
                    format!(
                        "ep{dev} status (boundary {boundary}) rejected as stale although no \
                         promotion occurred"
                    ),
                );
            }
            if step.send.is_none() {
                err(
                    "recovery",
                    format!("`{}` names no live transfer of ep{dev}", e.kind),
                );
            }
        }
        TraceKind::NonOwnerLost { dev } if step.again => {
            err("recovery", format!("ep{dev} was declared lost twice"));
        }
        _ => {}
    }
}

/// The end of a co-execution trace: every subkernel completed, exactly one
/// exit → merge → complete sequence (or the lost-owner endgame), and full
/// coverage.
fn finish_coexec(r: &Replay, mut owner: Owner, out: &mut Vec<LintDiagnostic>) {
    let total = r.total;
    if owner.launches == 0 && total > 0 {
        out.push(LintDiagnostic::error(
            "trace-shape",
            "gpu was never launched",
        ));
    }
    for (dev, ep) in &r.eps {
        if let Some((sf, st)) = ep.running {
            // A lost endpoint legally leaves exactly its killed subkernel
            // open, and so does a promoted one (its in-flight subkernel is
            // abandoned when it takes the owner role); any other dangling
            // subkernel is an engine defect.
            if !ep.lost && !ep.promoted {
                out.push(LintDiagnostic::error(
                    "ep-pairing",
                    format!("ep{dev} subkernel {sf}..{st} never completed"),
                ));
            }
        }
    }
    let all_done: Vec<_> = r.eps.values().flat_map(|ep| &ep.done).collect();
    // The lost-owner endgame applies only when the *final* acting owner is
    // dead — a promotion that installed a healthy new owner means the
    // kernel still exits, merges and completes through the owner role.
    if owner.losses > r.epoch as usize {
        // A lost owner never exits and never merges; the non-owners finish
        // the whole NDRange among themselves and the host assembles.
        if owner.exit_at.is_some() {
            out.push(LintDiagnostic::error(
                "recovery",
                "gpu exited although it was declared lost",
            ));
        }
        if owner.merge_at.is_some() {
            out.push(LintDiagnostic::error(
                "recovery",
                "diff-merge completed although the gpu was lost",
            ));
        }
        match (r.completions, r.complete) {
            (1, Some((at, Finisher::Cpu))) => {
                if !all_done.iter().any(|&&(t, _, _)| t == at) {
                    out.push(LintDiagnostic::error(
                        "completion",
                        "cpu finisher without any subkernel completing at that time",
                    ));
                }
            }
            (1, Some((_, Finisher::Gpu))) => out.push(LintDiagnostic::error(
                "completion",
                "a kernel whose gpu was lost cannot be finished by the gpu",
            )),
            (n, _) => out.push(completion_count_error(n)),
        }
        let done_spans = all_done.iter().map(|&&(_, f, t)| (f, t)).collect();
        check_cover(out, done_spans, total, "any survivor");
        return;
    }
    if let Some((wf, wt)) = owner.wave {
        if owner.exit_at.is_none() {
            out.push(LintDiagnostic::error(
                "gpu-exit",
                format!("wave {wf}..{wt} never completed and the gpu never exited"),
            ));
        }
    }
    let Some(exit) = owner.exit_at else {
        out.push(LintDiagnostic::error("gpu-exit", "gpu never exited"));
        return;
    };
    let Some(merge) = owner.merge_at else {
        out.push(LintDiagnostic::error("merge", "diff-merge never completed"));
        return;
    };
    if merge < exit {
        out.push(LintDiagnostic::error(
            "merge",
            "diff-merge completed before the gpu exit",
        ));
    }
    match (r.completions, r.complete) {
        (1, Some((at, Finisher::Gpu))) => {
            if at != merge {
                out.push(LintDiagnostic::error(
                    "completion",
                    "gpu-finished kernel must complete exactly at merge time",
                ));
            }
        }
        // The CPU's copy is authoritative only when it was the sole
        // endpoint (paper §4.2); with peers the final data only ever exists
        // assembled on the owner.
        (1, Some((at, Finisher::Cpu))) => {
            if r.eps.keys().any(|&dev| dev > 0) {
                out.push(LintDiagnostic::error(
                    "completion",
                    "a kernel with peer endpoints and a healthy owner must be finished by the gpu",
                ));
            }
            if at >= merge {
                out.push(LintDiagnostic::error(
                    "completion",
                    "cpu-finished kernel must complete strictly before the merge",
                ));
            }
            if !r
                .eps
                .get(&0)
                .is_some_and(|ep| ep.done.iter().any(|&(t, f, _)| f == 0 && t == at))
            {
                out.push(LintDiagnostic::error(
                    "completion",
                    "cpu finisher without a subkernel reaching work-group 0 at that time",
                ));
            }
        }
        (n, _) => out.push(completion_count_error(n)),
    }
    // Coverage: the owner's executed ranges plus the delivered suffix
    // [watermark, total) must cover every work-group (delivered islands
    // below the watermark are re-executed by the owner — duplicated, never
    // lost).
    if r.watermark < total {
        owner.executed.push((r.watermark, total));
    }
    check_cover(out, owner.executed, total, "any device");
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
fn lint_solo_event(e: &TraceEvent, owner: &mut Owner, out: &mut Vec<LintDiagnostic>) {
    match e.kind {
        TraceKind::SoloRun { lane, from, to, .. } => {
            if from >= to {
                out.push(LintDiagnostic::error(
                    "solo-shape",
                    format!("single-device span {from}..{to} is empty or reversed"),
                ));
            }
            owner.executed.push((from, to));
            if !owner.solo_lanes.contains(&lane) {
                owner.solo_lanes.push(lane);
            }
        }
        // Judged at the end.
        TraceKind::KernelComplete { .. } => {}
        _ => out.push(LintDiagnostic::error(
            "solo-shape",
            format!("event `{}` has no place in a single-device trace", e.kind),
        )),
    }
}

fn finish_solo(r: &Replay, owner: Owner, out: &mut Vec<LintDiagnostic>) {
    if r.completions != 1 {
        out.push(LintDiagnostic::error(
            "completion",
            format!(
                "single-device run completed {} times, expected exactly once",
                r.completions
            ),
        ));
    }
    if owner.solo_lanes.len() > 1 {
        out.push(LintDiagnostic::error(
            "solo-shape",
            format!(
                "one single-device run spans more than one device ({})",
                owner
                    .solo_lanes
                    .iter()
                    .map(Lane::to_string)
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ));
    }
    check_cover(out, owner.executed, r.total, "the sole device");
}

/// Lints a kernel report: runs [`lint_trace`] on its trace and cross-checks
/// the report counters against the totals of the same replay.
pub fn lint_report(report: &KernelReport) -> Vec<LintDiagnostic> {
    let (mut out, replay) = lint(&report.trace);
    let Some(r) = replay else {
        return out;
    };
    if report.trace[0].at != report.enqueued_at {
        out.push(LintDiagnostic::error(
            "report-consistency",
            "trace enqueue time differs from the report",
        ));
    }
    let t = &r.totals;
    let mut mismatch = |what: &str, trace_v: u64, report_v: u64| {
        if trace_v != report_v {
            out.push(LintDiagnostic::error(
                "report-consistency",
                format!("trace shows {trace_v} {what}, report claims {report_v}"),
            ));
        }
    };
    mismatch("total work-groups", r.total, report.total_wgs);
    mismatch(
        "gpu-executed work-groups",
        t.gpu_wgs,
        report.gpu_executed_wgs,
    );
    mismatch(
        "cpu-executed work-groups",
        t.cpu_wgs,
        report.cpu_executed_wgs,
    );
    mismatch(
        "peer-executed work-groups",
        t.peer_wgs,
        report.peer_executed_wgs.iter().sum(),
    );
    mismatch("subkernels", t.subkernels, report.subkernels);
    mismatch("hd bytes", t.hd_bytes, report.hd_bytes);
    // After a device loss the merged region is decoupled from the
    // watermark (a lost owner merges nothing at all). Otherwise the CPU
    // alone delivers a contiguous suffix, so the merged count is exactly
    // the suffix; with peers, delivered islands below the final watermark
    // merge too, so the suffix bounds the count from below and the
    // endpoints' executed total bounds it from above.
    if !t.device_lost {
        let suffix = report.total_wgs.saturating_sub(r.watermark);
        if !r.eps.keys().any(|&dev| dev > 0) {
            mismatch("cpu-merged work-groups", suffix, report.cpu_merged_wgs);
        } else if report.cpu_merged_wgs < suffix {
            out.push(LintDiagnostic::error(
                "report-consistency",
                format!(
                    "report merges {} work-groups but the delivered suffix alone covers {suffix}",
                    report.cpu_merged_wgs
                ),
            ));
        } else if report.cpu_merged_wgs > t.cpu_wgs + t.peer_wgs {
            out.push(LintDiagnostic::error(
                "report-consistency",
                format!(
                    "report merges {} work-groups but the endpoints only executed {}",
                    report.cpu_merged_wgs,
                    t.cpu_wgs + t.peer_wgs
                ),
            ));
        }
    }
    if let Some((at, finisher)) = r.complete {
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
            pipelined: false,
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

    /// The first transfer (boundary 3) fails transiently and is resent;
    /// its status arrives late, interleaved with the boundary-2 send.
    fn transient_retry_trace() -> Vec<TraceEvent> {
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
        ]
    }

    #[test]
    fn transient_retry_resend_is_legal() {
        assert_eq!(lint_trace(&transient_retry_trace()), vec![]);
    }

    #[test]
    fn watermark_disagreeing_with_a_resent_delivery_is_flagged() {
        // Fault traces get the same covered-suffix check: the re-sent
        // boundary-3 delivery puts the watermark at 3, not 2.
        let mut t = transient_retry_trace();
        for e in &mut t {
            if let TraceKind::EpStatus { watermark, .. } = &mut e.kind {
                *watermark = 2;
            }
        }
        assert!(rules(&t).contains(&"watermark-monotone"));
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
