//! Copy-on-write address spaces, end to end: a host write stores one copy
//! that the CPU and GPU address spaces share, co-executed kernels copy only
//! the buffers they write, and results stay bit-exact.

use fluidicl::{Fluidicl, FluidiclConfig};
use fluidicl_check::{sweep_size, SWEEP_SEED};
use fluidicl_hetsim::{KernelProfile, MachineConfig};
use fluidicl_polybench::all_benchmarks;
use fluidicl_vcl::{ArgRole, ArgSpec, ClDriver, KernelArg, KernelDef, NdRange, Program};

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

#[test]
fn polybench_runs_leave_no_stray_holders() {
    for b in all_benchmarks() {
        let n = sweep_size(b.name);
        let mut rt = Fluidicl::new(
            MachineConfig::paper_testbed_3dev(),
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
