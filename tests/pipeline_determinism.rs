//! The pipelined CPU subkernel executor is a *scheduling* change, never a
//! *functional* one:
//!
//! * pipelined (the default) and serial, each benchmark's final buffers
//!   are bit-identical to the sequential reference — and therefore to each
//!   other — and every protocol lint passes;
//! * serial under whole-buffer transfers is byte-for-byte the pre-pipeline
//!   protocol: its rendered traces reproduce `tests/golden/` exactly.
//!
//! Repeated runs of both protocols are pinned deterministic by
//! `tests/dirty_range_gate.rs` and `tests/timing_fingerprint.rs`.

use fluidicl::{lint_report, render_lanes, render_timeline, Fluidicl, FluidiclConfig};
use fluidicl_check::{sweep_size, SWEEP_SEED};
use fluidicl_hetsim::MachineConfig;
use fluidicl_polybench::all_benchmarks;

fn run(name: &str, config: FluidiclConfig) -> Fluidicl {
    let b = all_benchmarks()
        .into_iter()
        .find(|b| b.name == name)
        .expect("benchmark");
    let n = sweep_size(name);
    let mut rt = Fluidicl::new(
        MachineConfig::paper_testbed(),
        config.with_validate_protocol(true),
        (b.program)(n),
    );
    assert!(
        b.run_and_validate_sized(&mut rt, n, SWEEP_SEED).unwrap(),
        "{name} diverged from reference"
    );
    rt
}

#[test]
fn every_depth_computes_identical_buffers_and_lints_clean() {
    for b in all_benchmarks() {
        for pipelined in [false, true] {
            // `run` validates bit-for-bit against the sequential reference,
            // so both settings necessarily agree with each other.
            let rt = run(b.name, FluidiclConfig::default().with_pipelining(pipelined));
            for report in rt.reports() {
                assert!(
                    lint_report(report).is_empty(),
                    "{} pipelined={pipelined}: protocol lints must pass, got {:?}",
                    b.name,
                    lint_report(report)
                );
            }
        }
    }
}

/// Renders a run exactly the way `tests/golden_gen.rs` does.
fn render_serial_run(name: &str) -> String {
    let rt = run(
        name,
        FluidiclConfig::default()
            .with_dirty_range_transfers(false)
            .with_pipelining(false),
    );
    let mut out = String::new();
    for r in rt.reports() {
        out.push_str(&format!(
            "kernel {} duration {} hd {} dh {} gpu {} cpu {} merged {} subs {}\n",
            r.kernel,
            r.duration.as_nanos(),
            r.hd_bytes,
            r.dh_bytes,
            r.gpu_executed_wgs,
            r.cpu_executed_wgs,
            r.cpu_merged_wgs,
            r.subkernels
        ));
        out.push_str(&render_timeline(&r.kernel, &r.trace));
        out.push_str(&render_lanes(&r.kernel, &r.trace, 60));
    }
    out
}

#[test]
fn depth_one_whole_buffer_reproduces_the_golden_serial_traces() {
    for b in all_benchmarks() {
        let golden_path = format!(
            "{}/tests/golden/serial_{}.txt",
            env!("CARGO_MANIFEST_DIR"),
            b.name.to_lowercase()
        );
        let golden = std::fs::read_to_string(&golden_path)
            .unwrap_or_else(|e| panic!("read {golden_path}: {e}"));
        let rendered = render_serial_run(b.name);
        assert_eq!(
            rendered, golden,
            "{}: the serial compat configuration must reproduce the \
             pre-pipeline wire protocol byte-for-byte (regenerate with \
             `cargo test --test golden_gen -- --ignored` only for an \
             intentional protocol change)",
            b.name
        );
    }
}
