//! The dirty-range transfer gate (`with_dirty_range_transfers`):
//!
//! * **on** (the default since the pipelined-subkernel PR) every transfer
//!   ships only the subkernel's written element ranges plus the status
//!   message, traces carry dirty-byte annotations, functional results stay
//!   bit-identical to the reference, every protocol lint (including the
//!   transfer-bytes accounting rule) passes, and the modelled H2D traffic
//!   never grows relative to whole-buffer shipping;
//! * **off** (`with_dirty_range_transfers(false)`) the protocol
//!   is the historical whole-buffer one — traces carry no dirty
//!   annotations, every transfer ships full output buffers, and rendered
//!   timelines carry no dirty-byte figures.

use fluidicl::{
    lint_report, render_timeline, Fluidicl, FluidiclConfig, TraceKind, STATUS_MSG_BYTES,
};
use fluidicl_hetsim::MachineConfig;
use fluidicl_polybench::all_benchmarks;

fn test_size(name: &str) -> usize {
    match name {
        "ATAX" | "BICG" | "MVT" => 256,
        "CORR" => 64,
        "GESUMMV" => 512,
        "SYRK" | "SYR2K" | "GEMM" | "2MM" => 64,
        other => panic!("unknown benchmark {other}"),
    }
}

const SEED: u64 = 0xF1D1C1;

fn run_with(name: &str, config: FluidiclConfig) -> Fluidicl {
    let b = all_benchmarks()
        .into_iter()
        .find(|b| b.name == name)
        .expect("benchmark");
    let n = test_size(name);
    let mut rt = Fluidicl::new(
        MachineConfig::paper_testbed(),
        config.with_validate_protocol(true),
        (b.program)(n),
    );
    assert!(
        b.run_and_validate_sized(&mut rt, n, SEED).unwrap(),
        "{name} diverged from reference"
    );
    rt
}

fn run(name: &str, dirty: bool) -> Fluidicl {
    let config = if dirty {
        FluidiclConfig::default()
    } else {
        // The full legacy protocol: whole buffers, serial subkernels.
        FluidiclConfig::default()
            .with_dirty_range_transfers(false)
            .with_pipelining(false)
    };
    run_with(name, config)
}

#[test]
fn dirty_range_transfers_are_the_default() {
    let config = FluidiclConfig::default();
    assert!(
        config.dirty_range_transfers,
        "dirty-range transfers must be on by default"
    );
    assert!(
        !config
            .with_dirty_range_transfers(false)
            .dirty_range_transfers,
        "turning the gate off must restore the legacy protocol"
    );
    // The default protocol annotates every H2D data transfer.
    let rt = run_with("ATAX", FluidiclConfig::default());
    let mut saw_transfer = false;
    for report in rt.reports() {
        for ev in &report.trace {
            if let TraceKind::EpSend { dirty_bytes, .. } = &ev.kind {
                saw_transfer = true;
                assert!(
                    dirty_bytes.is_some(),
                    "default-config transfers carry dirty accounting"
                );
            }
        }
    }
    assert!(saw_transfer, "ATAX must ship CPU results");
}

#[test]
fn whole_buffer_compat_traces_use_the_legacy_format() {
    for b in all_benchmarks() {
        let rt = run(b.name, false);
        for report in rt.reports() {
            for ev in &report.trace {
                if let TraceKind::EpSend {
                    dirty_bytes,
                    subkernels,
                    ..
                } = &ev.kind
                {
                    assert_eq!(
                        *dirty_bytes, None,
                        "{}: compat transfers carry no dirty accounting",
                        b.name
                    );
                    assert_eq!(
                        *subkernels, 1,
                        "{}: the serial compat protocol never coalesces sends",
                        b.name
                    );
                }
            }
            let rendered = render_timeline(&report.kernel, &report.trace);
            assert!(
                !rendered.contains("dirty"),
                "{}: compat timeline must render no dirty-byte figures",
                b.name
            );
        }
    }
}

#[test]
fn default_matches_compat_bit_for_bit_and_lints_clean() {
    for b in all_benchmarks() {
        let off = run(b.name, false);
        let on = run(b.name, true);
        // Same kernels, same work split decisions only if timings agree —
        // we only require the *functional* contract: both validated against
        // the reference above. Accounting must satisfy the lints and the
        // H2D total must never grow.
        let hd = |rt: &Fluidicl| rt.reports().iter().map(|r| r.hd_bytes).sum::<u64>();
        assert!(
            hd(&on) <= hd(&off),
            "{}: dirty-range H2D bytes grew ({} vs {})",
            b.name,
            hd(&on),
            hd(&off)
        );
        for report in on.reports() {
            assert!(
                lint_report(report).is_empty(),
                "{}: dirty-range run must pass every protocol lint",
                b.name
            );
            for ev in &report.trace {
                if let TraceKind::EpSend {
                    bytes, dirty_bytes, ..
                } = &ev.kind
                {
                    let d = dirty_bytes.expect("default transfers are annotated");
                    assert_eq!(
                        *bytes,
                        d + STATUS_MSG_BYTES,
                        "{}: shipped bytes must equal dirty payload + status",
                        b.name
                    );
                }
            }
        }
    }
}

#[test]
fn both_protocols_run_deterministically() {
    // Two independent runs of either protocol produce identical reports:
    // same timings, byte counts and rendered traces. This pins both the
    // default and the compat configuration against accidental dependence
    // on hidden state.
    for dirty in [false, true] {
        for name in ["ATAX", "SYRK", "2MM"] {
            let a = run(name, dirty);
            let b = run(name, dirty);
            assert_eq!(a.reports().len(), b.reports().len());
            for (ra, rb) in a.reports().iter().zip(b.reports()) {
                assert_eq!(ra.duration, rb.duration, "{name}: duration differs");
                assert_eq!(ra.hd_bytes, rb.hd_bytes, "{name}: hd bytes differ");
                assert_eq!(ra.dh_bytes, rb.dh_bytes, "{name}: dh bytes differ");
                assert_eq!(
                    render_timeline(&ra.kernel, &ra.trace),
                    render_timeline(&rb.kernel, &rb.trace),
                    "{name}: rendered traces differ"
                );
            }
        }
    }
}
