//! Copy-on-write address spaces, end to end: a host write stores one copy
//! that the CPU and GPU address spaces share, an owned host write hands the
//! application's allocation over as that copy, co-executed kernels copy only
//! the buffers they write, and results stay bit-exact.

use fluidicl::{Fluidicl, FluidiclConfig};
use fluidicl_check::{sweep_size, timing_hash, SWEEP_SEED};
use fluidicl_des::SimDuration;
use fluidicl_hetsim::{KernelProfile, MachineConfig};
use fluidicl_polybench::{all_benchmarks, pipeline_benchmark, BenchmarkSpec};
use fluidicl_vcl::{
    ArgRole, ArgSpec, BufferId, ClDriver, ClResult, DeviceKind, KernelArg, KernelDef, NdRange,
    Program, SingleDeviceRuntime,
};

mod common;
use common::assert_no_stray_holders;

/// `dst[i] = f * src[i]`, with enough modelled work per item that the CPU
/// and the peers claim a share of the NDRange.
fn scale_program() -> Program {
    let mut p = Program::new();
    p.register(KernelDef::new(
        "scale",
        vec![
            ArgSpec::new("src", ArgRole::In),
            ArgSpec::new("dst", ArgRole::Out),
            ArgSpec::new("f", ArgRole::Scalar),
        ],
        KernelProfile::new("scale")
            .flops_per_item(65536.0)
            .bytes_read_per_item(4.0)
            .bytes_written_per_item(4.0),
        |item, scalars, ins, outs| {
            let i = item.global_linear();
            outs.at(0)[i] = scalars.f32(0) * ins.get(0)[i];
        },
    ));
    p
}

#[test]
fn write_buffer_stores_one_copy_for_both_devices() {
    let mut rt = Fluidicl::new(
        MachineConfig::paper_testbed(),
        FluidiclConfig::default(),
        scale_program(),
    );
    let a = rt.create_buffer(1024);
    for fill in [1.0, 2.0] {
        rt.write_buffer(a, &vec![fill; 1024]).unwrap();
        let (cpu, gpu) = rt.address_spaces();
        assert!(
            cpu.shares_with(gpu, a),
            "one allocation serves both devices"
        );
        assert_eq!(cpu.holders(a), 2);
        assert_eq!(gpu.get(a).unwrap(), vec![fill; 1024].as_slice());
    }
}

#[test]
fn write_buffer_owned_installs_the_callers_allocation() {
    let mut rt = Fluidicl::new(
        MachineConfig::paper_testbed(),
        FluidiclConfig::default(),
        scale_program(),
    );
    let a = rt.create_buffer(1024);
    for fill in [1.0, 2.0] {
        let data = vec![fill; 1024];
        let ptr = data.as_ptr();
        rt.write_buffer_owned(a, data).unwrap();
        let (cpu, gpu) = rt.address_spaces();
        assert_eq!(
            cpu.get(a).unwrap().as_ptr(),
            ptr,
            "the host copy is the app's"
        );
        assert!(cpu.shares_with(gpu, a), "the GPU shares it");
        assert_eq!((cpu.holders(a), gpu.holders(a)), (2, 2));
        assert_eq!(gpu.get(a).unwrap(), vec![fill; 1024].as_slice());
    }
}

#[test]
fn a_rejected_owned_write_fails_like_the_slice_form_and_changes_nothing() {
    let mut rt = Fluidicl::new(
        MachineConfig::paper_testbed(),
        FluidiclConfig::default(),
        scale_program(),
    );
    let a = rt.create_buffer(64);
    rt.write_buffer(a, &[3.0; 64]).unwrap();
    let before = rt.elapsed();
    let (cpu, _) = rt.address_spaces();
    let kept = cpu.get(a).unwrap().as_ptr();
    for (id, len) in [(BufferId(99), 64), (a, 63), (a, 65)] {
        let slice = rt.write_buffer(id, &vec![7.0; len]);
        let owned = rt.write_buffer_owned(id, vec![7.0; len]);
        assert!(owned.is_err(), "{id:?} len {len}");
        assert_eq!(owned, slice, "{id:?} len {len}");
        assert_eq!(rt.elapsed(), before, "the clock did not move");
        let (cpu, gpu) = rt.address_spaces();
        assert_eq!(cpu.get(a).unwrap().as_ptr(), kept);
        assert_eq!(cpu.get(a).unwrap(), [3.0; 64].as_slice());
        assert!(cpu.shares_with(gpu, a));
    }
    let mut single = SingleDeviceRuntime::new(
        MachineConfig::paper_testbed(),
        DeviceKind::Gpu,
        scale_program(),
    );
    let a = single.create_buffer(64);
    single.write_buffer(a, &[3.0; 64]).unwrap();
    let before = single.elapsed();
    for (id, len) in [(BufferId(99), 64), (a, 63)] {
        let slice = single.write_buffer(id, &vec![7.0; len]);
        let owned = single.write_buffer_owned(id, vec![7.0; len]);
        assert!(owned.is_err(), "{id:?} len {len}");
        assert_eq!(owned, slice, "{id:?} len {len}");
        assert_eq!(single.elapsed(), before, "the clock did not move");
    }
    assert_eq!(single.read_buffer(a).unwrap(), vec![3.0; 64]);
}

#[test]
fn co_executed_kernels_keep_inputs_shared_and_outputs_exact() {
    let n = 1 << 14;
    for machine in [
        MachineConfig::paper_testbed(),
        MachineConfig::paper_testbed_3dev(),
    ] {
        for dirty in [true, false] {
            let config = FluidiclConfig::default()
                .with_validate_protocol(true)
                .with_dirty_range_transfers(dirty);
            let mut rt = Fluidicl::new(machine.clone(), config, scale_program());
            let src = rt.create_buffer(n);
            let dst = rt.create_buffer(n);
            let input: Vec<f32> = (0..n).map(|i| (i as f32).sin()).collect();
            rt.write_buffer(src, &input).unwrap();
            for f in [3.0f32, -0.5] {
                rt.enqueue_kernel(
                    "scale",
                    NdRange::d1(n, 64).unwrap(),
                    &[
                        KernelArg::Buffer(src),
                        KernelArg::Buffer(dst),
                        KernelArg::F32(f),
                    ],
                )
                .unwrap();
                rt.flush_graph().unwrap();
                let report = rt.reports().last().unwrap();
                assert!(report.cpu_executed_wgs > 0, "the CPU took part");
                assert!(report.peer_executed_wgs.iter().all(|w| *w > 0));
                let (cpu, gpu) = rt.address_spaces();
                assert!(
                    cpu.shares_with(gpu, src),
                    "the `In` buffer was never copied"
                );
                assert_no_stray_holders(&rt);
                let got = rt.read_buffer(dst).unwrap();
                let want: Vec<u32> = input.iter().map(|v| (f * v).to_bits()).collect();
                assert_eq!(
                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    want,
                    "dirty={dirty} f={f}"
                );
            }
        }
    }
}

/// Every Polybench app, plus the BATCHMM pipeline.
fn every_app() -> Vec<BenchmarkSpec> {
    let mut apps = all_benchmarks();
    apps.push(pipeline_benchmark());
    apps
}

/// Every app hands its inputs over on both testbeds, and afterwards each
/// buffer is held by the runtime's own address spaces alone.
#[test]
fn polybench_runs_leave_no_stray_holders() {
    for machine in [
        MachineConfig::paper_testbed(),
        MachineConfig::paper_testbed_3dev(),
    ] {
        for b in every_app() {
            let n = sweep_size(b.name);
            let mut rt = Fluidicl::new(
                machine.clone(),
                FluidiclConfig::default().with_validate_protocol(true),
                (b.program)(n),
            );
            assert!(
                b.run_and_validate_sized(&mut rt, n, SWEEP_SEED).unwrap(),
                "{}",
                b.name
            );
            assert_no_stray_holders(&rt);
        }
    }
}

/// Forwards every call to the wrapped runtime except
/// [`ClDriver::write_buffer_owned`], which it leaves to the trait's copying
/// default — the path a driver wrapper that predates the owned form takes.
struct Copying<'a, D>(&'a mut D);

impl<D: ClDriver> ClDriver for Copying<'_, D> {
    fn create_buffer(&mut self, len: usize) -> BufferId {
        self.0.create_buffer(len)
    }

    fn write_buffer(&mut self, id: BufferId, data: &[f32]) -> ClResult<()> {
        self.0.write_buffer(id, data)
    }

    fn enqueue_kernel(
        &mut self,
        kernel: &str,
        ndrange: NdRange,
        args: &[KernelArg],
    ) -> ClResult<()> {
        self.0.enqueue_kernel(kernel, ndrange, args)
    }

    fn read_buffer(&mut self, id: BufferId) -> ClResult<Vec<f32>> {
        self.0.read_buffer(id)
    }

    fn elapsed(&self) -> SimDuration {
        self.0.elapsed()
    }

    fn kernel_times(&self) -> Vec<(String, SimDuration)> {
        self.0.kernel_times()
    }
}

/// What a run observably produced: output bits, the clock and the
/// per-kernel times.
type Observed = (Vec<Vec<u32>>, SimDuration, Vec<(String, SimDuration)>);

fn observe(b: &BenchmarkSpec, driver: &mut dyn ClDriver, n: usize) -> Observed {
    let out = (b.run)(driver, n, SWEEP_SEED).unwrap();
    let bits = out
        .iter()
        .map(|v| v.iter().map(|x| x.to_bits()).collect())
        .collect();
    (bits, driver.elapsed(), driver.kernel_times())
}

/// Handing inputs over cannot move the virtual contract: every app runs
/// identically whether the runtime takes the allocation or the copying
/// default copies it first.
#[test]
fn owned_and_copied_host_writes_are_virtually_identical() {
    for (label, machine) in [
        ("paper-testbed", MachineConfig::paper_testbed()),
        ("paper-testbed-3dev", MachineConfig::paper_testbed_3dev()),
    ] {
        for b in every_app() {
            let n = sweep_size(b.name);
            let fluidicl =
                || Fluidicl::new(machine.clone(), FluidiclConfig::default(), (b.program)(n));
            let mut owned = fluidicl();
            let mut copied = fluidicl();
            assert_eq!(
                observe(&b, &mut owned, n),
                observe(&b, &mut Copying(&mut copied), n),
                "{} on {label}",
                b.name
            );
            assert_eq!(timing_hash(&owned), timing_hash(&copied), "{}", b.name);
            for device in [DeviceKind::Cpu, DeviceKind::Gpu] {
                let single = || SingleDeviceRuntime::new(machine.clone(), device, (b.program)(n));
                assert_eq!(
                    observe(&b, &mut single(), n),
                    observe(&b, &mut Copying(&mut single()), n),
                    "{} on {label} {device:?}",
                    b.name
                );
            }
        }
    }
}
