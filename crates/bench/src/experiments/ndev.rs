//! N-device scaling (extension): the shared-frontier protocol with a
//! mid-range peer GPU added to the paper testbed, against the paper's
//! two-device configuration and both single devices.
//!
//! The peer pays an up-front begin broadcast (kernel buffers over its own,
//! slower link) before its first claim, so the third device only pays off
//! once kernels are large enough to amortise it — the sizes here are double
//! the test-suite sizes for exactly that reason. Three devices are never
//! slower than two here: the memory-bound kernels (ATAX, BICG, GESUMMV,
//! MVT) tie, because the CPU computes them alone and finishes next to the
//! idle peer just as it does on two devices. A peer claims a range only
//! when its results are predicted to land before the owner's walk would
//! finish that range itself, so it no longer pays a duplicated range, or
//! holds the owner's single watermark until a late result lands.

use fluidicl::FluidiclConfig;
use fluidicl_des::geomean;
use fluidicl_hetsim::MachineConfig;
use fluidicl_polybench::all_benchmarks;

use crate::runners::{run_cpu_only, run_fluidicl, run_gpu_only};
use crate::table::{ratio, Table};

use super::ExperimentResult;

/// Double the test-suite sizes (kept in lockstep with
/// `fluidicl_check::sweep_size`, which bench cannot depend on).
fn scaling_n(name: &str) -> usize {
    match name {
        "ATAX" | "BICG" | "MVT" => 512,
        "GESUMMV" => 1024,
        _ => 128, // CORR, SYRK, SYR2K, GEMM, 2MM
    }
}

pub(super) fn run(_machine: &MachineConfig) -> ExperimentResult {
    let two_dev = MachineConfig::paper_testbed();
    let three_dev = MachineConfig::paper_testbed_3dev();
    let config = FluidiclConfig::default();
    let mut table = Table::new(
        "Time normalized to the best single device: 2-device vs 3-device",
        &[
            "benchmark",
            "CPU",
            "GPU",
            "FCL-2dev",
            "FCL-3dev",
            "3dev/2dev",
        ],
    );
    let units = fluidicl_par::par_map(all_benchmarks(), |b| {
        let n = scaling_n(b.name);
        let cpu = run_cpu_only(&two_dev, &b, n);
        let gpu = run_gpu_only(&two_dev, &b, n);
        let (two, _) = run_fluidicl(&two_dev, &config, &b, n);
        let (three, _) = run_fluidicl(&three_dev, &config, &b, n);
        (b.name, cpu, gpu, two, three)
    });
    let mut ratios = Vec::new();
    let mut wins = 0usize;
    for (name, cpu, gpu, two, three) in units {
        let best = cpu.min(gpu).as_nanos() as f64;
        let r = three.as_nanos() as f64 / two.as_nanos() as f64;
        ratios.push(r);
        if three < two {
            wins += 1;
        }
        table.row(vec![
            name.to_string(),
            ratio(cpu.as_nanos() as f64 / best),
            ratio(gpu.as_nanos() as f64 / best),
            ratio(two.as_nanos() as f64 / best),
            ratio(three.as_nanos() as f64 / best),
            ratio(r),
        ]);
    }
    let g = geomean(&ratios).expect("non-empty");
    ExperimentResult {
        id: "ndev",
        title: "N-device scaling: paper testbed + mid-range peer GPU (extension)",
        tables: vec![table],
        notes: vec![format!(
            "3-device total virtual time beats 2-device on {wins} of 9 \
             benchmarks (geomean 3dev/2dev {g:.3}); the peer helps once its \
             begin broadcast amortises, and stays idle where the CPU \
             finishes a kernel alone."
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn third_device_wins_on_at_least_three_benchmarks() {
        let r = run(&MachineConfig::paper_testbed());
        let csv = r.tables[0].to_csv();
        assert_eq!(r.tables[0].len(), 9);
        let mut wins = 0;
        for line in csv.lines().skip(1) {
            let cells: Vec<&str> = line.split(',').collect();
            let ratio: f64 = cells[5].parse().unwrap();
            assert!(
                ratio <= 1.0,
                "{}: 3-device config at {ratio} over 2-device",
                cells[0]
            );
            if ratio < 1.0 {
                wins += 1;
            }
        }
        assert!(wins >= 3, "third device won on only {wins} benchmarks");
    }
}
