//! Uniform runner helpers: execute one benchmark application on each
//! runtime, validate against the sequential reference, and return the
//! virtual total running time (the paper's metric: total time including all
//! data-transfer overheads, §8).

use fluidicl::{Fluidicl, FluidiclConfig, KernelReport};
use fluidicl_baselines::{SoclRuntime, SoclScheduler, StaticPartitionRuntime};
use fluidicl_des::SimDuration;
use fluidicl_hetsim::MachineConfig;
use fluidicl_polybench::BenchmarkSpec;
use fluidicl_vcl::{ClDriver, DeviceKind, SingleDeviceRuntime};

/// Default seed: every experiment runs over the same inputs.
pub const SEED: u64 = 20140215; // CGO'14 conference date.

fn check(name: &str, runtime: &str, ok: bool) {
    assert!(ok, "{runtime} produced wrong results for {name}");
}

/// Runs on the CPU alone via the vendor-runtime stand-in.
pub fn run_cpu_only(machine: &MachineConfig, bench: &BenchmarkSpec, n: usize) -> SimDuration {
    let mut rt = SingleDeviceRuntime::new(machine.clone(), DeviceKind::Cpu, (bench.program)(n));
    let ok = bench
        .run_and_validate_sized(&mut rt, n, SEED)
        .expect("cpu-only run failed");
    check(bench.name, "CPU-only", ok);
    rt.elapsed()
}

/// Runs on the GPU alone via the vendor-runtime stand-in.
pub fn run_gpu_only(machine: &MachineConfig, bench: &BenchmarkSpec, n: usize) -> SimDuration {
    let mut rt = SingleDeviceRuntime::new(machine.clone(), DeviceKind::Gpu, (bench.program)(n));
    let ok = bench
        .run_and_validate_sized(&mut rt, n, SEED)
        .expect("gpu-only run failed");
    check(bench.name, "GPU-only", ok);
    rt.elapsed()
}

/// Runs under FluidiCL with `config`, returning total time and the
/// per-kernel reports.
pub fn run_fluidicl(
    machine: &MachineConfig,
    config: &FluidiclConfig,
    bench: &BenchmarkSpec,
    n: usize,
) -> (SimDuration, Vec<KernelReport>) {
    let mut rt = Fluidicl::new(machine.clone(), config.clone(), (bench.program)(n));
    let ok = bench
        .run_and_validate_sized(&mut rt, n, SEED)
        .expect("fluidicl run failed");
    check(bench.name, "FluidiCL", ok);
    (rt.elapsed(), rt.reports().to_vec())
}

/// Runs under a fixed static split (`cpu_fraction` of the work-groups to
/// the CPU).
pub fn run_static(
    machine: &MachineConfig,
    bench: &BenchmarkSpec,
    n: usize,
    cpu_fraction: f64,
) -> SimDuration {
    let mut rt = StaticPartitionRuntime::new(machine.clone(), (bench.program)(n), cpu_fraction);
    let ok = bench
        .run_and_validate_sized(&mut rt, n, SEED)
        .expect("static run failed");
    check(bench.name, "StaticPartition", ok);
    rt.elapsed()
}

/// Runs under SOCL. For `Dmda` with `calibrated = true` the application is
/// first replayed once to record kernel geometries, a fresh runtime is
/// calibrated on them, and the measured run follows — mirroring the paper's
/// calibration-then-measure methodology (§9.4).
pub fn run_socl(
    machine: &MachineConfig,
    bench: &BenchmarkSpec,
    n: usize,
    scheduler: SoclScheduler,
    calibrated: bool,
) -> SimDuration {
    let mut rt = SoclRuntime::new(machine.clone(), (bench.program)(n), scheduler);
    if calibrated {
        let mut probe = SoclRuntime::new(machine.clone(), (bench.program)(n), SoclScheduler::Eager);
        let _ = bench
            .run_and_validate_sized(&mut probe, n, SEED)
            .expect("socl probe run failed");
        for (kernel, nd) in probe.geometry_log() {
            rt.calibrate(kernel, *nd).expect("calibration failed");
        }
    }
    let ok = bench
        .run_and_validate_sized(&mut rt, n, SEED)
        .expect("socl run failed");
    check(bench.name, "SOCL", ok);
    rt.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluidicl_polybench::find;

    #[test]
    fn all_runners_validate_on_a_small_case() {
        let machine = MachineConfig::paper_testbed();
        let bench = find("ATAX").unwrap();
        let n = 256;
        let cpu = run_cpu_only(&machine, &bench, n);
        let gpu = run_gpu_only(&machine, &bench, n);
        let (fcl, reports) = run_fluidicl(&machine, &FluidiclConfig::default(), &bench, n);
        let st = run_static(&machine, &bench, n, 0.5);
        let eager = run_socl(&machine, &bench, n, SoclScheduler::Eager, false);
        let dmda = run_socl(&machine, &bench, n, SoclScheduler::Dmda, true);
        for t in [cpu, gpu, fcl, st, eager, dmda] {
            assert!(!t.is_zero());
        }
        assert_eq!(reports.len(), 2);
    }
}
