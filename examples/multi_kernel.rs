//! Multi-kernel coherence: the paper's BICG scenario (§3, Table 1).
//!
//! ```bash
//! cargo run --release --example multi_kernel
//! ```
//!
//! BICG launches two kernels with opposite device preferences over shared
//! data. A fixed device choice loses on one of them; FluidiCL executes each
//! kernel cooperatively and lets the work flow to whichever device is
//! faster *per kernel*, while buffer coherence tracking keeps the shared
//! matrix coherent between launches.

use fluidicl_suite::polybench::{bicg, find};
use fluidicl_suite::prelude::*;

fn main() -> ClResult<()> {
    let bench = find("BICG").expect("BICG registered");
    let n = bench.default_n;
    let seed = 7;
    let machine = MachineConfig::paper_testbed();

    println!("BICG ({n}x{n}): two kernels, opposite device preferences\n");

    // Per-kernel single-device times (the paper's Table 1).
    for device in [DeviceKind::Cpu, DeviceKind::Gpu] {
        let mut rt = SingleDeviceRuntime::new(machine.clone(), device, bicg::program(n));
        let ok = bench.run_and_validate_sized(&mut rt, n, seed)?;
        assert!(ok, "single-device BICG must match the reference");
        println!("{}-only:", device.name());
        for (kernel, t) in rt.kernel_times() {
            println!("  {kernel:8} {t}");
        }
        println!("  total    {}\n", rt.elapsed());
    }

    // FluidiCL: one program, both devices, per-kernel fluid split.
    let mut fcl = Fluidicl::new(machine, FluidiclConfig::default(), bicg::program(n));
    let ok = bench.run_and_validate_sized(&mut fcl, n, seed)?;
    assert!(ok, "FluidiCL BICG must match the reference");
    println!("FluidiCL:");
    for report in fcl.reports() {
        println!(
            "  {:8} {}  cpu share {:>5.1}%  ({} subkernels, finished by {:?})",
            report.kernel,
            report.duration,
            100.0 * report.cpu_share(),
            report.subkernels,
            report.finished_by
        );
    }
    println!("  total    {}", fcl.elapsed());
    println!(
        "\nThe CPU-leaning kernel (bicg_s) gets a large CPU share, the \
         GPU-leaning one (bicg_q) a small one — no profiling, no tuning."
    );
    Ok(())
}
