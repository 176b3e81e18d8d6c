//! Quickstart: take a single-device OpenCL-style program and run it
//! cooperatively on the CPU *and* the GPU with FluidiCL.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```
//!
//! The program is a SAXPY-like kernel written once against the `ClDriver`
//! API. We run it three times — CPU-only, GPU-only, and under FluidiCL —
//! and print the virtual total running times plus FluidiCL's work split.

use fluidicl_suite::prelude::*;

/// Builds a one-kernel program: an iterated SAXPY, `y[i] += a * x[i]`
/// applied `STEPS` times per item — enough arithmetic per element that
/// co-execution pays off, with an access pattern the GPU only partially
/// coalesces.
const STEPS: usize = 64;

fn saxpy_program(n: usize) -> Program {
    let mut program = Program::new();
    program.register(KernelDef::new(
        "saxpy",
        vec![
            ArgSpec::new("x", ArgRole::In),
            ArgSpec::new("y", ArgRole::InOut),
            ArgSpec::new("a", ArgRole::Scalar),
        ],
        KernelProfile::new("saxpy")
            .flops_per_item(2.0 * STEPS as f64)
            .bytes_read_per_item(8.0 * STEPS as f64)
            .bytes_written_per_item(4.0)
            .inner_loop_trips(STEPS as u32)
            .gpu_coalescing(0.35)
            .cpu_cache_locality(0.9),
        |item, scalars, ins, outs| {
            let i = item.global_linear();
            let mut acc = outs.at(0)[i];
            for _ in 0..STEPS {
                acc += scalars.f32(0) * ins.get(0)[i] / STEPS as f32;
            }
            outs.at(0)[i] = acc;
        },
    ));
    let _ = n;
    program
}

/// The host program, written once for any runtime.
fn host_program(driver: &mut dyn ClDriver, n: usize) -> ClResult<Vec<f32>> {
    let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
    let y0 = vec![1.0f32; n];
    let x_buf = driver.create_buffer(n);
    let y_buf = driver.create_buffer(n);
    driver.write_buffer_owned(x_buf, x)?;
    driver.write_buffer_owned(y_buf, y0)?;
    driver.enqueue_kernel(
        "saxpy",
        NdRange::d1(n, 64)?,
        &[
            KernelArg::Buffer(x_buf),
            KernelArg::Buffer(y_buf),
            KernelArg::F32(3.0),
        ],
    )?;
    driver.read_buffer(y_buf)
}

fn main() -> ClResult<()> {
    let n = 1 << 18;
    let machine = MachineConfig::paper_testbed();

    let mut cpu = SingleDeviceRuntime::new(machine.clone(), DeviceKind::Cpu, saxpy_program(n));
    let y_cpu = host_program(&mut cpu, n)?;

    let mut gpu = SingleDeviceRuntime::new(machine.clone(), DeviceKind::Gpu, saxpy_program(n));
    let y_gpu = host_program(&mut gpu, n)?;

    let mut fcl = Fluidicl::new(machine, FluidiclConfig::default(), saxpy_program(n));
    let y_fcl = host_program(&mut fcl, n)?;

    assert_eq!(y_cpu, y_gpu, "single-device runs must agree");
    assert_eq!(y_cpu, y_fcl, "FluidiCL must compute the same result");
    // Accumulated in STEPS fractional increments; check against the CPU run.
    assert!((y_fcl[2] - (3.0 * 2.0 + 1.0)).abs() < 1e-3);

    println!("saxpy over {n} elements (virtual time):");
    println!("  CPU-only : {}", cpu.elapsed());
    println!("  GPU-only : {}", gpu.elapsed());
    println!("  FluidiCL : {}", fcl.elapsed());
    let report = &fcl.reports()[0];
    println!(
        "  FluidiCL split: {} of {} work-groups merged from the CPU \
         ({} CPU subkernels), finished by {:?}",
        report.cpu_merged_wgs, report.total_wgs, report.subkernels, report.finished_by
    );
    Ok(())
}
