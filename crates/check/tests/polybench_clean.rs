//! Regression guard for the Polybench `ArgRole` declarations: the access
//! sanitizer must find nothing to say about any kernel in the suite, at
//! every launch of every benchmark, and the audited (functional) execution
//! must still match the sequential references.
//!
//! A misdeclared role here would silently corrupt co-executed results (the
//! runtime's transfer/merge decisions are driven by the declarations), so
//! any new kernel added to the suite gets vetted by this test. The
//! sanitizer's `group-body-divergence` rule also holds every group body
//! (every version, BATCHMM's included) to its per-item body here.

use fluidicl_check::{sweep_size, AuditDriver, SWEEP_SEED};
use fluidicl_polybench::{all_benchmarks, pipeline_benchmark, BenchmarkSpec};
use fluidicl_vcl::ClDriver;

/// The nine sweep benchmarks plus the BATCHMM pipeline.
fn suite() -> Vec<BenchmarkSpec> {
    let mut all = all_benchmarks();
    all.push(pipeline_benchmark());
    all
}

#[test]
fn every_polybench_kernel_sanitizes_clean() {
    for b in suite() {
        let n = sweep_size(b.name);
        let mut driver = AuditDriver::new((b.program)(n));
        let ok = b
            .run_and_validate_sized(&mut driver, n, SWEEP_SEED)
            .unwrap();
        assert!(
            ok,
            "{} diverged from reference under the audit driver",
            b.name
        );
        assert!(
            !driver.findings().is_empty(),
            "{} launched no kernels",
            b.name
        );
        for finding in driver.findings() {
            assert!(
                finding.diagnostics.is_empty(),
                "{} kernel `{}` was flagged: {:?}",
                b.name,
                finding.kernel,
                finding.diagnostics
            );
        }
    }
}

/// The group bodies the audit above covers: a kernel added with one is
/// counted here, so dropping one (or its coverage) shows.
#[test]
fn the_suite_has_nineteen_group_bodies() {
    let mut with_group_body = Vec::new();
    for b in suite() {
        let program = (b.program)(sweep_size(b.name));
        for name in program.kernel_names() {
            let k = program.kernel(name).unwrap();
            for v in k.versions() {
                if v.group_body.is_some() {
                    with_group_body.push(format!("{name}/{}", v.label));
                }
            }
        }
    }
    with_group_body.sort();
    assert_eq!(
        with_group_body,
        [
            "atax_k1/baseline",
            "atax_k2/baseline",
            "batchmm_mul/baseline",
            "batchmm_sum/baseline",
            "bicg_q/baseline",
            "bicg_s/baseline",
            "corr_center/baseline",
            "corr_corr/baseline",
            "corr_corr/loop-interchanged",
            "corr_mean/baseline",
            "corr_std/baseline",
            "gemm/baseline",
            "gesummv/baseline",
            "mm2_d/baseline",
            "mm2_tmp/baseline",
            "mvt_x1/baseline",
            "mvt_x2/baseline",
            "syr2k/baseline",
            "syrk/baseline",
        ]
    );
}

#[test]
fn audit_driver_reports_kernel_names_in_order() {
    let b = all_benchmarks()
        .into_iter()
        .find(|b| b.name == "ATAX")
        .unwrap();
    let n = sweep_size(b.name);
    let mut driver = AuditDriver::new((b.program)(n));
    assert!(b
        .run_and_validate_sized(&mut driver, n, SWEEP_SEED)
        .unwrap());
    assert_eq!(driver.findings().len(), b.kernel_count);
    assert_eq!(driver.kernel_times().len(), b.kernel_count);
    assert_eq!(driver.diagnostic_count(), 0);
}
