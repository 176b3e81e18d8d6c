//! One-pass runs of every workload: no failures, and virtual results equal
//! to the committed fingerprint whether or not tracing is on.

use fluidicl_benchmark::virt::{file_lines, COMMITTED_PATH};
use fluidicl_benchmark::{run_workload, Options, Outcome, Workload};

fn one_pass(w: Workload, trace: bool) -> Outcome {
    let opts = Options {
        seconds: 0.0,
        min_passes: 1,
        setup_reps: 1,
        trace,
        ..Options::default()
    };
    run_workload(w, &opts).expect("set-up succeeds")
}

#[test]
fn every_workload_runs_clean_and_matches_the_committed_fingerprint() {
    let committed = std::fs::read_to_string(COMMITTED_PATH).expect("virtual_cells.json exists");
    let committed = file_lines(&committed);
    for w in Workload::ALL {
        let out = one_pass(w, false);
        assert_eq!(
            out.tally.failed,
            0,
            "{}: {:?}",
            w.name(),
            out.tally.messages
        );
        assert!(out.tally.attempted > 0);
        assert_eq!(out.lines.len(), w.cells().len());
        for line in &out.lines {
            assert!(
                committed.values().any(|c| c == line),
                "{}: virtual result not in virtual_cells.json:\n{line}",
                w.name()
            );
        }
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
        assert_eq!(
            names,
            [
                "apps_per_s",
                "virt_vs_best_device",
                "setup_s",
                "peak_rss_mb"
            ]
        );
        assert!(
            out.metrics.iter().all(|m| m.value > 0.0),
            "{:?}",
            out.metrics
        );
        if w == Workload::Paper2Dev {
            // The paper's Fig. 13 geomean as EXPERIMENTS.md reproduces it.
            let vs_best = out.metrics[1].value;
            assert!((vs_best - 0.864).abs() <= 0.001, "geomean {vs_best}");
        }
    }
}

#[test]
fn tracing_leaves_virtual_results_unchanged() {
    let plain = one_pass(Workload::Checked, false);
    let traced = one_pass(Workload::Checked, true);
    assert_eq!(plain.lines, traced.lines);
    assert_eq!(plain.ledger, traced.ledger);
    assert_eq!(traced.tally.failed, 0, "{:?}", traced.tally.messages);
    let rec = traced.recorder.expect("traced run keeps its spans");
    for name in [
        "app",
        "runtime.new",
        "runtime.write_buffer",
        "runtime.enqueue",
        "runtime.read_buffer",
        "lint",
        "race",
        "replay.vcl_exec",
        "vcl.enqueue",
        "replay.host_program",
    ] {
        assert!(rec.total_ms(name) > 0.0, "no time in span `{name}`");
    }
}
