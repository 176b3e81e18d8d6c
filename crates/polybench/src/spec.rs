//! Benchmark registry: one uniform handle per Polybench application.

use fluidicl_vcl::{ClDriver, ClResult, Program};

/// Host-program entry point: runs the benchmark on any driver and returns
/// the output buffers.
pub type RunFn = fn(&mut dyn ClDriver, usize, u64) -> ClResult<Vec<Vec<f32>>>;

/// A benchmark from the paper's Table 2: program factory, host driver,
/// sequential reference, and reporting metadata.
///
/// # Examples
///
/// ```
/// use fluidicl_polybench::benchmarks;
///
/// let suite = benchmarks();
/// assert_eq!(suite.len(), 6);
/// assert!(suite.iter().any(|b| b.name == "SYRK"));
/// ```
#[derive(Clone, Copy)]
pub struct BenchmarkSpec {
    /// Display name, as in the paper's figures.
    pub name: &'static str,
    /// Default (scaled) problem size.
    pub default_n: usize,
    /// Number of kernels the application launches.
    pub kernel_count: usize,
    /// Builds the program for a problem size.
    pub program: fn(usize) -> Program,
    /// Runs the host program on any driver, returning the output buffers.
    pub run: RunFn,
    /// Sequential reference producing the same output buffers.
    pub reference: fn(usize, u64) -> Vec<Vec<f32>>,
    /// Work-group count per kernel for a problem size (Table 2).
    pub workgroups: fn(usize) -> Vec<u64>,
}

impl std::fmt::Debug for BenchmarkSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BenchmarkSpec")
            .field("name", &self.name)
            .field("default_n", &self.default_n)
            .field("kernel_count", &self.kernel_count)
            .finish_non_exhaustive()
    }
}

impl BenchmarkSpec {
    /// Runs the benchmark on `driver` at size `n` and validates the outputs
    /// against the sequential reference.
    ///
    /// # Errors
    ///
    /// Propagates driver errors; a mismatch against the reference is
    /// reported as `Ok(false)`.
    pub fn run_and_validate_sized(
        &self,
        driver: &mut dyn ClDriver,
        n: usize,
        seed: u64,
    ) -> ClResult<bool> {
        let got = (self.run)(driver, n, seed)?;
        let want = (self.reference)(n, seed);
        Ok(outputs_match(&got, &want))
    }
}

/// Bit-exact comparison of output buffer sets (every device executes the
/// same Rust kernel bodies in the same per-element order, so results must
/// agree exactly; any difference is a partitioning or merging bug).
pub fn outputs_match(got: &[Vec<f32>], want: &[Vec<f32>]) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| {
            g.len() == w.len() && g.iter().zip(w).all(|(a, b)| a.to_bits() == b.to_bits())
        })
}

/// Extended workloads beyond the paper's suite (MVT, GEMM, 2MM): same
/// interface, not included in the paper-reproduction experiments.
pub fn extended_benchmarks() -> Vec<BenchmarkSpec> {
    vec![
        BenchmarkSpec {
            name: "MVT",
            default_n: crate::mvt::DEFAULT_N,
            kernel_count: 2,
            program: crate::mvt::program,
            run: crate::mvt::run,
            reference: crate::mvt::reference,
            workgroups: crate::mvt::workgroups,
        },
        BenchmarkSpec {
            name: "GEMM",
            default_n: crate::gemm::DEFAULT_N,
            kernel_count: 1,
            program: crate::gemm::program,
            run: crate::gemm::run,
            reference: crate::gemm::reference,
            workgroups: crate::gemm::workgroups,
        },
        BenchmarkSpec {
            name: "2MM",
            default_n: crate::mm2::DEFAULT_N,
            kernel_count: 2,
            program: crate::mm2::program,
            run: crate::mm2::run,
            reference: crate::mm2::reference,
            workgroups: crate::mm2::workgroups,
        },
    ]
}

/// Both suites: the paper's six plus the extended workloads.
pub fn all_benchmarks() -> Vec<BenchmarkSpec> {
    let mut all = benchmarks();
    all.extend(extended_benchmarks());
    all
}

/// The paper's six benchmarks (Table 2), in figure order.
pub fn benchmarks() -> Vec<BenchmarkSpec> {
    vec![
        BenchmarkSpec {
            name: "ATAX",
            default_n: crate::atax::DEFAULT_N,
            kernel_count: 2,
            program: crate::atax::program,
            run: crate::atax::run,
            reference: crate::atax::reference,
            workgroups: crate::atax::workgroups,
        },
        BenchmarkSpec {
            name: "BICG",
            default_n: crate::bicg::DEFAULT_N,
            kernel_count: 2,
            program: crate::bicg::program,
            run: crate::bicg::run,
            reference: crate::bicg::reference,
            workgroups: crate::bicg::workgroups,
        },
        BenchmarkSpec {
            name: "CORR",
            default_n: crate::corr::DEFAULT_N,
            kernel_count: 4,
            program: crate::corr::program,
            run: crate::corr::run,
            reference: crate::corr::reference,
            workgroups: crate::corr::workgroups,
        },
        BenchmarkSpec {
            name: "GESUMMV",
            default_n: crate::gesummv::DEFAULT_N,
            kernel_count: 1,
            program: crate::gesummv::program,
            run: crate::gesummv::run,
            reference: crate::gesummv::reference,
            workgroups: crate::gesummv::workgroups,
        },
        BenchmarkSpec {
            name: "SYRK",
            default_n: crate::syrk::DEFAULT_N,
            kernel_count: 1,
            program: crate::syrk::program,
            run: crate::syrk::run,
            reference: crate::syrk::reference,
            workgroups: crate::syrk::workgroups,
        },
        BenchmarkSpec {
            name: "SYR2K",
            default_n: crate::syr2k::DEFAULT_N,
            kernel_count: 1,
            program: crate::syr2k::program,
            run: crate::syr2k::run,
            reference: crate::syr2k::reference,
            workgroups: crate::syr2k::workgroups,
        },
    ]
}

/// The BATCHMM kernel-graph pipeline workload: [`crate::batchmm::CHAINS`]
/// independent matrix products feeding one reduction. Standalone — not part
/// of [`benchmarks`]/[`extended_benchmarks`]/[`all_benchmarks`], so the
/// sweep row set (and every output derived from it) is unchanged.
pub fn pipeline_benchmark() -> BenchmarkSpec {
    crate::batchmm::spec()
}

/// Looks up a benchmark by (case-insensitive) name, across both suites.
pub fn find(name: &str) -> Option<BenchmarkSpec> {
    all_benchmarks()
        .into_iter()
        .find(|b| b.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_the_paper_suite() {
        let names: Vec<_> = benchmarks().iter().map(|b| b.name).collect();
        assert_eq!(
            names,
            vec!["ATAX", "BICG", "CORR", "GESUMMV", "SYRK", "SYR2K"]
        );
    }

    #[test]
    fn find_is_case_insensitive() {
        assert!(find("syrk").is_some());
        assert!(find("Syr2k").is_some());
        assert!(find("nope").is_none());
    }

    #[test]
    fn extended_registry() {
        let names: Vec<_> = extended_benchmarks().iter().map(|b| b.name).collect();
        assert_eq!(names, vec!["MVT", "GEMM", "2MM"]);
        assert_eq!(all_benchmarks().len(), 9);
        assert!(find("gemm").is_some());
    }

    #[test]
    fn kernel_counts_match_workgroup_lists() {
        for b in all_benchmarks() {
            assert_eq!(
                (b.workgroups)(b.default_n).len(),
                b.kernel_count,
                "benchmark {}",
                b.name
            );
            assert_eq!((b.program)(b.default_n).len(), b.kernel_count);
        }
    }

    #[test]
    fn outputs_match_is_exact() {
        assert!(outputs_match(&[vec![1.0, 2.0]], &[vec![1.0, 2.0]]));
        assert!(!outputs_match(&[vec![1.0]], &[vec![1.0, 2.0]]));
        assert!(!outputs_match(&[vec![1.0]], &[vec![1.0 + 1e-7]]));
        assert!(outputs_match(&[vec![f32::NAN]], &[vec![f32::NAN]]));
        assert!(!outputs_match(&[vec![0.0]], &[vec![-0.0]]));
    }
}
