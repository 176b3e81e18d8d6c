//! Virtual-time results: the exact per-cell fingerprint committed in
//! `virtual_cells.json`, and the virtual per-layer ledger derived from
//! kernel reports and their traces.
//!
//! Virtual time is deterministic, so everything here repeats exactly from
//! run to run and from seed to seed.

use std::collections::BTreeMap;

use fluidicl::{Finisher, Fluidicl, FluidiclConfig, KernelReport, TraceKind};
use fluidicl_des::SimDuration;
use fluidicl_vcl::ClDriver;

use crate::cells::Cell;
use crate::json::escape;

/// Path of the committed fingerprint, one cell per line.
pub const COMMITTED_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/virtual_cells.json");

/// Renders the fingerprint of one cell run as a single JSON line: the
/// virtual makespan, and per kernel its duration, transfer bytes, the
/// work-groups each device executed and which device finished.
pub fn cell_line(key: &str, elapsed: SimDuration, reports: &[KernelReport]) -> String {
    let kernels: Vec<String> = reports
        .iter()
        .map(|r| {
            let peers: Vec<String> = r.peer_executed_wgs.iter().map(u64::to_string).collect();
            format!(
                "{{\"kernel\":\"{}\",\"duration_ns\":{},\"hd_bytes\":{},\"dh_bytes\":{},\
                 \"gpu_wgs\":{},\"cpu_wgs\":{},\"peer_wgs\":[{}],\"finished_by\":\"{}\"}}",
                escape(&r.kernel),
                r.duration.as_nanos(),
                r.hd_bytes,
                r.dh_bytes,
                r.gpu_executed_wgs,
                r.cpu_executed_wgs,
                peers.join(","),
                match r.finished_by {
                    Finisher::Gpu => "gpu",
                    Finisher::Cpu => "cpu",
                }
            )
        })
        .collect();
    format!(
        "{{\"cell\":\"{}\",\"makespan_ns\":{},\"kernels\":[{}]}}",
        escape(key),
        elapsed.as_nanos(),
        kernels.join(",")
    )
}

/// Runs each cell once with the default config and returns its
/// fingerprint line. Virtual time does not depend on the input seed.
///
/// # Errors
///
/// The first driver error, with its cell.
pub fn fingerprint(cells: &[Cell], seed: u64) -> Result<Vec<String>, String> {
    cells
        .iter()
        .map(|cell| {
            let mut rt = Fluidicl::new(
                cell.machine.config(),
                FluidiclConfig::default(),
                (cell.app.program)(cell.n),
            );
            (cell.app.run)(&mut rt, cell.n, seed).map_err(|e| format!("{}: {e}", cell.key()))?;
            Ok(cell_line(&cell.key(), rt.elapsed(), rt.reports()))
        })
        .collect()
}

/// Assembles cell lines into the file format of `virtual_cells.json`.
pub fn render_file(lines: &[String]) -> String {
    format!("{{\"cells\":[\n{}\n]}}\n", lines.join(",\n"))
}

/// The cell key of a line produced by [`cell_line`].
fn line_key(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("{\"cell\":\"")?;
    rest.split('"').next()
}

/// The line of each cell in a fingerprint file, by key.
pub fn file_lines(text: &str) -> BTreeMap<&str, &str> {
    text.lines()
        .map(|l| l.trim_end_matches(','))
        .filter_map(|l| line_key(l).map(|k| (k, l)))
        .collect()
}

/// Compares freshly computed cell lines with the fingerprint file text
/// `committed`. Returns one message per cell that differs, is missing, or
/// is extra.
pub fn diff_lines(lines: &[String], committed: &str) -> Vec<String> {
    let committed = file_lines(committed);
    let mut out = Vec::new();
    for line in lines {
        let key = line_key(line).unwrap_or("?");
        match committed.get(key) {
            Some(want) if *want == line => {}
            Some(want) => out.push(format!(
                "{key}: differs\n  committed: {want}\n  now:       {line}"
            )),
            None => out.push(format!("{key}: not in virtual_cells.json\n  now: {line}")),
        }
    }
    for key in committed.keys() {
        if !lines.iter().any(|l| line_key(l) == Some(key)) {
            out.push(format!("{key}: committed but no longer run"));
        }
    }
    out
}

/// Virtual totals over cell runs, the source of the `virt.*` per-layer
/// metrics. Times are in virtual nanoseconds.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Ledger {
    /// Sum of app makespans (`ClDriver::elapsed`).
    pub makespan_ns: u64,
    /// Sum of kernel durations.
    pub kernel_ns: u64,
    /// Host-to-device bytes.
    pub hd_bytes: u64,
    /// Device-to-host bytes.
    pub dh_bytes: u64,
    /// Owner GPU busy time: waves and the diff-merge.
    pub gpu_busy_ns: u64,
    /// CPU busy time: subkernels.
    pub cpu_busy_ns: u64,
    /// Peer GPU busy time, summed over peers.
    pub peer_busy_ns: u64,
    /// Diff-merge time on the owner GPU.
    pub merge_ns: u64,
    /// Result sends from non-owner endpoints (plain and coalesced).
    pub sends: u64,
    /// Subkernels launched on non-owner endpoints.
    pub subkernels: u64,
    /// GPU waves aborted because non-owners had covered them.
    pub aborted_waves: u64,
    /// Work-groups in every NDRange.
    pub total_wgs: u64,
    /// Work-groups executed on the owner GPU.
    pub gpu_wgs: u64,
    /// Work-groups executed on the CPU.
    pub cpu_wgs: u64,
    /// Work-groups executed on peer GPUs.
    pub peer_wgs: u64,
    /// Trace events recorded.
    pub events: u64,
}

/// Busy lane of a trace event: `None` is the owner GPU, `Some(dev)` a
/// non-owner endpoint (0 = CPU, 1.. = peers).
type Lane = Option<u32>;

/// Total length of the union of `spans`.
fn union_ns(mut spans: Vec<(u64, u64)>) -> u64 {
    spans.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for (from, to) in spans {
        let from = from.max(reach);
        if to > from {
            total += to - from;
            reach = to;
        }
    }
    total
}

impl Ledger {
    /// Adds one app run.
    pub fn add_run(&mut self, elapsed: SimDuration, reports: &[KernelReport]) {
        self.makespan_ns += elapsed.as_nanos();
        for r in reports {
            self.add_report(r);
        }
    }

    fn add_report(&mut self, r: &KernelReport) {
        self.kernel_ns += r.duration.as_nanos();
        self.hd_bytes += r.hd_bytes;
        self.dh_bytes += r.dh_bytes;
        self.total_wgs += r.total_wgs;
        self.gpu_wgs += r.gpu_executed_wgs;
        self.cpu_wgs += r.cpu_executed_wgs;
        self.peer_wgs += r.peer_executed_wgs.iter().sum::<u64>();
        self.events += r.trace.len() as u64;

        let mut open: BTreeMap<(Lane, u64, u64), u64> = BTreeMap::new();
        let mut busy: BTreeMap<Lane, Vec<(u64, u64)>> = BTreeMap::new();
        let mut gpu_exit = None;
        for ev in &r.trace {
            let at = ev.at.as_nanos();
            let mut start = |lane: Lane, from: u64, to: u64| {
                open.insert((lane, from, to), at);
            };
            match ev.kind {
                TraceKind::GpuWaveStart { from, to } => start(None, from, to),
                TraceKind::CpuSubkernelStart { from, to, .. } => {
                    self.subkernels += 1;
                    start(Some(0), from, to);
                }
                TraceKind::EpSubkernelStart { dev, from, to, .. } => {
                    self.subkernels += 1;
                    start(Some(dev), from, to);
                }
                _ => {}
            }
            let done = match ev.kind {
                TraceKind::GpuWaveDone { from, to, .. } => Some((None, from, to)),
                TraceKind::GpuWaveAborted { from, to } => {
                    self.aborted_waves += 1;
                    Some((None, from, to))
                }
                TraceKind::CpuSubkernelDone { from, to } => Some((Some(0), from, to)),
                TraceKind::EpSubkernelDone { dev, from, to } => Some((Some(dev), from, to)),
                _ => None,
            };
            if let Some(key) = done {
                if let Some(begin) = open.remove(&key) {
                    busy.entry(key.0).or_default().push((begin, at));
                }
            }
            match ev.kind {
                TraceKind::HdEnqueued { .. }
                | TraceKind::CoalescedSend { .. }
                | TraceKind::EpSend { .. } => self.sends += 1,
                TraceKind::GpuExit => gpu_exit = gpu_exit.or(Some(at)),
                TraceKind::MergeDone => {
                    if let Some(exit) = gpu_exit {
                        self.merge_ns += at.saturating_sub(exit);
                        busy.entry(None).or_default().push((exit, at));
                    }
                }
                _ => {}
            }
        }
        // Non-owner work still running when the kernel completes is
        // discarded; the device counts as busy until completion only.
        let (begin, end) = (r.enqueued_at.as_nanos(), r.complete_at.as_nanos());
        for ((lane, _, _), at) in open {
            busy.entry(lane).or_default().push((at, end));
        }
        for (lane, spans) in busy {
            let clipped = spans
                .into_iter()
                .map(|(from, to)| (from.max(begin), to.min(end)))
                .collect();
            let ns = union_ns(clipped);
            match lane {
                None => self.gpu_busy_ns += ns,
                Some(0) => self.cpu_busy_ns += ns,
                Some(_) => self.peer_busy_ns += ns,
            }
        }
    }

    /// Work-groups executed on any device.
    pub fn executed_wgs(&self) -> u64 {
        self.gpu_wgs + self.cpu_wgs + self.peer_wgs
    }

    /// Executed ÷ total work-groups: 1 means no work was duplicated.
    pub fn redundancy(&self) -> f64 {
        ratio(self.executed_wgs() as f64, self.total_wgs as f64)
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_gaps() {
        assert_eq!(union_ns(vec![(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(union_ns(vec![(20, 30), (0, 40)]), 40);
        assert_eq!(union_ns(Vec::new()), 0);
    }

    #[test]
    fn line_keys_round_trip() {
        let line = cell_line("m/APP/8", SimDuration::from_nanos(5), &[]);
        assert_eq!(line_key(&line), Some("m/APP/8"));
        assert!(render_file(std::slice::from_ref(&line)).contains(&line));
    }
}
