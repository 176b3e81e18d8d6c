//! # fluidicl-check — correctness tooling for the FluidiCL reproduction
//!
//! Two complementary checkers, both producing [`LintDiagnostic`]s:
//!
//! * the **access sanitizer** ([`sanitize`]) verifies that a kernel's
//!   behaviour matches its declared [`ArgRole`](fluidicl_vcl::ArgRole)
//!   signature — the "simple compiler analysis at the whole variable level"
//!   the paper relies on (§4.1). FluidiCL's partitioning, diff-merge and
//!   transfer decisions are all driven by those declarations, so a kernel
//!   that reads an `Out` buffer before writing it, or whose work-groups
//!   write conflicting values to the same element, silently corrupts
//!   co-executed results. [`sanitize_launch`] catches both with sentinel
//!   poisoning and shadow-memory write maps, plus warns about declared but
//!   unused inputs;
//! * the **protocol-trace linter** (re-exported from [`fluidicl`]) replays a
//!   co-executed kernel's event trace and checks the watermark, queue
//!   ordering, wave/subkernel contiguity, coverage and transfer-byte
//!   invariants.
//!
//! [`AuditDriver`] packages the sanitizer as a drop-in
//! [`ClDriver`](fluidicl_vcl::ClDriver), so any host program — every
//! Polybench benchmark — can be audited unmodified. The race checker
//! ([`race_check_report`]), the graph-schedule checker ([`check_schedule`])
//! and the fault sweep ([`fault_summary`]) complete the set; the test
//! suites run them all over the Polybench suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
pub mod faults;
pub mod graph;
pub mod race;
pub mod sanitize;

use fluidicl::{Finisher, Fluidicl};

pub use audit::{AuditDriver, KernelFinding};
pub use faults::fault_summary;
pub use fluidicl::{lint_report, lint_trace, LintDiagnostic, LintSeverity};
pub use graph::{check_schedule, max_overlap};
pub use race::{check_hb, race_check_report, HbEvent, HbOp, VClock, CONTRIB, OWNER};
pub use sanitize::{sanitize_launch, SENTINEL_A, SENTINEL_B};

/// Reduced Polybench problem sizes used by the test suites (kernel structure is preserved, runtimes stay in milliseconds).
///
/// # Panics
///
/// Panics on an unknown benchmark name.
pub fn sweep_size(name: &str) -> usize {
    match name {
        "ATAX" | "BICG" | "MVT" => 256,
        "CORR" => 64,
        "GESUMMV" => 512,
        "SYRK" | "SYR2K" | "GEMM" | "2MM" => 64,
        "BATCHMM" => 32,
        other => panic!("unknown benchmark {other}"),
    }
}

/// Data seed shared by the test suites.
pub const SWEEP_SEED: u64 = 0xF1D1C1;

/// Escapes `s` for use inside a JSON string literal: quotes, backslashes
/// and every control character (the `detail` fields of
/// `FAULTS_summary.json`).
///
/// # Examples
///
/// ```
/// assert_eq!(fluidicl_check::json_escape("a\"b\n"), "a\\\"b\\n");
/// ```
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// FNV-1a hash of every kernel's virtual timing in `rt`'s reports, in
/// report order: each report's enqueue and completion times, work-group
/// and byte counters, subkernel log, finisher and trace event times.
///
/// Event kinds and rendered text are left out on purpose: renaming or
/// re-rendering events keeps the hash, while moving any event in time, or
/// adding or dropping one, changes it. The timing fingerprint and the
/// fault sweep pin runs by this hash.
pub fn timing_hash(rt: &Fluidicl) -> u64 {
    let mut v = Vec::new();
    for r in rt.reports() {
        v.extend([
            r.enqueued_at.as_nanos(),
            r.complete_at.as_nanos(),
            r.total_wgs,
            r.gpu_executed_wgs,
            r.cpu_executed_wgs,
            r.cpu_merged_wgs,
            r.subkernels,
            r.hd_bytes,
            r.dh_bytes,
            r.cpu_version_used as u64,
            u64::from(r.finished_by == Finisher::Cpu),
        ]);
        v.extend(r.peer_executed_wgs.iter().copied());
        v.extend(
            r.subkernel_log
                .iter()
                .flat_map(|(wgs, d)| [*wgs, d.as_nanos()]),
        );
        v.push(r.trace.len() as u64);
        v.extend(r.trace.iter().map(|e| e.at.as_nanos()));
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in v.iter().flat_map(|x| x.to_le_bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
