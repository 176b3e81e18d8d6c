//! End-to-end wiring of the correctness tooling: the umbrella crate's
//! runtimes, the `fluidicl-check` sanitizer and the protocol linter all
//! compose over one benchmark run.

use fluidicl::{lint_report, Fluidicl, FluidiclConfig};
use fluidicl_check::{AuditDriver, SWEEP_SEED};
use fluidicl_hetsim::MachineConfig;
use fluidicl_polybench::find;

#[test]
fn sanitizer_and_linter_pass_on_a_co_executed_benchmark() {
    let b = find("BICG").unwrap();
    let n = 256;

    // Access sanitizer: audit the host program's launches functionally.
    let mut audit = AuditDriver::new((b.program)(n));
    assert!(b.run_and_validate_sized(&mut audit, n, SWEEP_SEED).unwrap());
    assert_eq!(audit.diagnostic_count(), 0);

    // Protocol linter: co-execute with validation enabled, then re-lint
    // every report through the public API.
    let config = FluidiclConfig::default().with_validate_protocol(true);
    let mut rt = Fluidicl::new(MachineConfig::paper_testbed(), config, (b.program)(n));
    assert!(b.run_and_validate_sized(&mut rt, n, SWEEP_SEED).unwrap());
    assert!(!rt.reports().is_empty());
    for report in rt.reports() {
        assert!(lint_report(report).is_empty(), "kernel `{}`", report.kernel);
    }
}
