//! Regenerates the golden serial-protocol traces in `tests/golden/`.
//!
//! The goldens pin the pre-pipeline wire protocol: whole-buffer transfers,
//! no pipelining (one subkernel in flight, shipped before the next
//! launches). `tests/pipeline_determinism.rs` asserts that the compat
//! configuration still reproduces these bytes exactly.
//!
//! Run with `cargo test --test golden_gen -- --ignored` after an
//! intentional protocol change, then review the diff.

use fluidicl::{render_lanes, render_timeline, Fluidicl, FluidiclConfig};
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

/// The configuration whose traces the goldens pin: the legacy serial
/// protocol (whole-buffer transfers, no pipelining).
fn serial_config() -> FluidiclConfig {
    FluidiclConfig::default()
        .with_validate_protocol(true)
        .with_dirty_range_transfers(false)
        .with_pipelining(false)
}

fn render_run(name: &str) -> String {
    let b = all_benchmarks()
        .into_iter()
        .find(|b| b.name == name)
        .expect("benchmark");
    let n = test_size(name);
    let mut rt = Fluidicl::new(
        MachineConfig::paper_testbed(),
        serial_config(),
        (b.program)(n),
    );
    assert!(
        b.run_and_validate_sized(&mut rt, n, SEED).unwrap(),
        "{name} diverged from reference"
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
#[ignore = "regenerates tests/golden/*; run explicitly after intentional protocol changes"]
fn regenerate_golden_serial_traces() {
    let dir = format!("{}/tests/golden", env!("CARGO_MANIFEST_DIR"));
    std::fs::create_dir_all(&dir).expect("create tests/golden");
    for b in all_benchmarks() {
        let text = render_run(b.name);
        let path = format!("{dir}/serial_{}.txt", b.name.to_lowercase());
        std::fs::write(&path, text).expect("write golden");
        eprintln!("wrote {path}");
    }
}
