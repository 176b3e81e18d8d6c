//! # fluidicl-polybench — the paper's benchmark suite
//!
//! Re-implementations of the six Polybench applications the FluidiCL paper
//! evaluates (Table 2): ATAX, BICG, CORR, GESUMMV, SYRK and SYR2K. Each
//! module provides the kernel program (bodies + cost profiles), a host
//! driver written against [`fluidicl_vcl::ClDriver`] so the identical
//! program runs on every runtime, a bit-exact sequential reference, and
//! seeded input generators.
//!
//! Problem sizes are scaled down from the paper's (functional execution of
//! 8672² matrices would dominate wall-clock time); the device cost profiles
//! are calibrated so the *relative* CPU/GPU behaviour matches the paper's
//! large-input observations — see `DESIGN.md` for the substitution
//! rationale and `EXPERIMENTS.md` for the per-benchmark mapping.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atax;
pub mod batchmm;
pub mod bicg;
pub mod corr;
pub mod data;
pub mod gemm;
pub mod gesummv;
mod group;
pub mod mm2;
pub mod mvt;
pub mod spec;
pub mod syr2k;
pub mod syrk;

pub use spec::{
    all_benchmarks, benchmarks, extended_benchmarks, find, outputs_match, pipeline_benchmark,
    BenchmarkSpec, RunFn,
};
