//! Optimization ablation (extension): each Section-6 optimization toggled
//! off individually.
//!
//! Figure 15 covers the GPU-kernel transformations; this experiment covers
//! the host-side optimizations the paper describes but does not ablate in a
//! figure: the GPU scratch-buffer pool (§6.1), data-location tracking
//! (§6.2) and CPU work-group splitting (§6.3). Each column disables exactly
//! one of them; values are normalized to the fully-optimized runtime, so
//! numbers above 1 are the cost of losing that optimization.
//!
//! A second table compares the dirty-range transfer protocol (an extension
//! beyond the paper, now the default) against the legacy whole-buffer
//! protocol, reporting modelled H2D bytes and total time per benchmark. A
//! third ablates CPU subkernel pipelining: depth 1 is the serial protocol,
//! depth 2 (the default) overlaps compute with in-flight transfers and
//! coalesces back-to-back result shipments.
//!
//! The host-side table runs under the legacy whole-buffer serial protocol
//! (the paper's §6 setting) so that each column isolates exactly one
//! optimization: under dirty-range read-backs the untracked read ships only
//! stale ranges, which can legitimately undercut location tracking's
//! full-buffer host memcpy and would muddy the "disabling never helps"
//! property the table demonstrates.

use fluidicl::{FluidiclConfig, KernelReport};
use fluidicl_des::geomean;
use fluidicl_hetsim::MachineConfig;
use fluidicl_polybench::benchmarks;

use crate::runners::run_fluidicl;
use crate::table::{ratio, Table};

use super::ExperimentResult;

pub(super) fn run(machine: &MachineConfig) -> ExperimentResult {
    // The paper's protocol setting: whole-buffer transfers, serial CPU
    // subkernels (see the module docs for why this table pins both).
    let paper = || {
        FluidiclConfig::default()
            .with_dirty_range_transfers(false)
            .with_pipelining(false)
    };
    let variants: [(&str, FluidiclConfig); 4] = [
        ("AllOpt", paper()),
        ("NoPool", paper().with_buffer_pool(false)),
        ("NoLocTrack", paper().with_location_tracking(false)),
        ("NoWgSplit", paper().with_wg_split(false)),
    ];
    let mut header = vec!["benchmark"];
    header.extend(variants.iter().map(|(name, _)| *name));
    let mut table = Table::new(
        "FluidiCL time normalized to AllOpt, per disabled optimization",
        &header,
    );
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); variants.len()];
    let units = fluidicl_par::par_map(benchmarks(), |b| {
        // GESUMMV runs with 10 work-groups here (instead of Table 2's 8):
        // an allocation tail smaller than the thread count is what CPU
        // work-group splitting (§6.3) exists for, and 8 work-groups on 8
        // threads never produce one.
        let n = if b.name == "GESUMMV" {
            2560
        } else {
            b.default_n
        };
        let times: Vec<f64> = variants
            .iter()
            .map(|(_, config)| run_fluidicl(machine, config, &b, n).0.as_nanos() as f64)
            .collect();
        (b.name, times)
    });
    for (name, times) in units {
        let base = times[0];
        let mut row = vec![name.to_string()];
        row.extend(times.iter().map(|t| ratio(t / base)));
        table.row(row);
        for (c, t) in cols.iter_mut().zip(&times) {
            c.push(t / base);
        }
    }
    let mut geo_row = vec!["GeoMean".to_string()];
    for c in &cols {
        geo_row.push(ratio(geomean(c).expect("non-empty")));
    }
    table.row(geo_row);

    let mut dirty_table = Table::new(
        "Dirty-range transfers: H2D bytes and time vs the whole-buffer protocol",
        &[
            "benchmark",
            "hd_bytes_full",
            "hd_bytes_dirty",
            "bytes_ratio",
            "time_ratio",
        ],
    );
    let hd = |reports: &[KernelReport]| reports.iter().map(|r| r.hd_bytes).sum::<u64>();
    let dirty_units = fluidicl_par::par_map(benchmarks(), |b| {
        let n = if b.name == "GESUMMV" {
            2560
        } else {
            b.default_n
        };
        let (full_t, full_reports) = run_fluidicl(
            machine,
            &FluidiclConfig::default().with_dirty_range_transfers(false),
            &b,
            n,
        );
        let (dirty_t, dirty_reports) = run_fluidicl(machine, &FluidiclConfig::default(), &b, n);
        (
            b.name,
            hd(&full_reports),
            hd(&dirty_reports),
            full_t,
            dirty_t,
        )
    });
    for (name, full_hd, dirty_hd, full_t, dirty_t) in dirty_units {
        dirty_table.row(vec![
            name.to_string(),
            full_hd.to_string(),
            dirty_hd.to_string(),
            ratio(dirty_hd as f64 / full_hd as f64),
            ratio(dirty_t.as_nanos() as f64 / full_t.as_nanos() as f64),
        ]);
    }

    // The depth ablation runs on the weak-GPU laptop, not the passed
    // machine: on the paper testbed the GPU reaches the CPU/GPU boundary
    // long after every status has arrived, and its exit is quantized to
    // wave boundaries, so the sub-microsecond send shifts pipelining buys
    // never move the modelled total. On the weak-GPU machine the CPU
    // subkernel path sits on the critical path and overlapping compute
    // with staging copies pays on every benchmark.
    let pipe_machine = MachineConfig::weak_gpu_laptop();
    let mut pipe_table = Table::new(
        "Pipelined subkernels: total time by pipeline depth \
         (dirty-range protocol, weak-GPU laptop)",
        &["benchmark", "depth1_ns", "depth2_ns", "d2_vs_d1"],
    );
    let pipe_units = fluidicl_par::par_map(benchmarks(), |b| {
        let n = if b.name == "GESUMMV" {
            2560
        } else {
            b.default_n
        };
        let time = |pipelined: bool| {
            run_fluidicl(
                &pipe_machine,
                &FluidiclConfig::default().with_pipelining(pipelined),
                &b,
                n,
            )
            .0
        };
        (b.name, time(false), time(true))
    });
    for (name, t1, t2) in pipe_units {
        pipe_table.row(vec![
            name.to_string(),
            t1.as_nanos().to_string(),
            t2.as_nanos().to_string(),
            ratio(t2.as_nanos() as f64 / t1.as_nanos() as f64),
        ]);
    }

    ExperimentResult {
        id: "ablation",
        title: "Host-side optimization ablation (extension)",
        tables: vec![table, dirty_table, pipe_table],
        notes: vec![
            "Work-group splitting matters for few-work-group kernels \
             (GESUMMV); the pool and location tracking shave fixed overheads \
             everywhere and matter most for short-kernel applications."
                .to_string(),
            "Dirty-range transfers ship only each CPU subkernel's written \
             element ranges (plus the 16 B status message) through the H2D \
             queue and copy only stale ranges on snapshot refreshes and \
             read-backs; functional results are bit-identical to the \
             whole-buffer protocol."
                .to_string(),
            "Pipeline depth 1 serializes each subkernel behind the previous \
             one's staging copy; depth 2 starts the next subkernel while \
             the previous results are in flight and coalesces back-to-back \
             completions into one data+status batch. Final buffers are \
             bit-identical at both depths. The depth table uses the \
             weak-GPU laptop, where the CPU subkernel path is on the \
             critical path; on the paper testbed the GPU's wave-quantized \
             exit absorbs the sub-microsecond send shifts and both depths \
             tie."
                .to_string(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_optimization_helps_when_disabled() {
        let r = run(&MachineConfig::paper_testbed());
        let csv = r.tables[0].to_csv();
        let geo = csv
            .lines()
            .find(|l| l.starts_with("GeoMean"))
            .expect("geomean row");
        let cells: Vec<f64> = geo.split(',').skip(1).map(|c| c.parse().unwrap()).collect();
        assert!((cells[0] - 1.0).abs() < 1e-9, "baseline normalizes to 1");
        for (i, v) in cells.iter().enumerate().skip(1) {
            assert!(
                *v >= 0.999,
                "disabling optimization {i} should never help (got {v})"
            );
        }
    }

    #[test]
    fn dirty_range_transfers_reduce_bytes_on_every_benchmark() {
        let r = run(&MachineConfig::paper_testbed());
        let csv = r.tables[1].to_csv();
        for line in csv.lines().skip(1) {
            let cells: Vec<&str> = line.split(',').collect();
            let (name, full, dirty) = (cells[0], cells[1], cells[2]);
            let full: u64 = full.parse().unwrap();
            let dirty: u64 = dirty.parse().unwrap();
            assert!(
                dirty < full,
                "{name}: dirty-range H2D bytes must shrink ({dirty} vs {full})"
            );
            let time_ratio: f64 = cells[4].parse().unwrap();
            assert!(
                time_ratio <= 1.0 + 1e-9,
                "{name}: shipping less must never slow the model ({time_ratio})"
            );
        }
    }

    #[test]
    fn pipelining_helps_transfer_bound_benchmarks() {
        let r = run(&MachineConfig::paper_testbed());
        let csv = r.tables[2].to_csv();
        let transfer_bound = ["ATAX", "BICG", "GESUMMV"];
        let mut improved = 0usize;
        for line in csv.lines().skip(1) {
            let cells: Vec<&str> = line.split(',').collect();
            let name = cells[0];
            let t1: u64 = cells[1].parse().unwrap();
            let t2: u64 = cells[2].parse().unwrap();
            if transfer_bound.contains(&name) && t2 < t1 {
                improved += 1;
            }
        }
        assert!(
            improved >= 3,
            "pipeline depth 2 must beat the serial protocol on at least 3 \
             transfer-bound benchmarks (improved on {improved})"
        );
    }

    #[test]
    fn wg_split_matters_for_gesummv() {
        let r = run(&MachineConfig::paper_testbed());
        let csv = r.tables[0].to_csv();
        let row = csv.lines().find(|l| l.starts_with("GESUMMV")).unwrap();
        let cells: Vec<f64> = row.split(',').skip(1).map(|c| c.parse().unwrap()).collect();
        let no_split = cells[3];
        assert!(
            no_split > 1.001,
            "GESUMMV must regress without work-group splitting (got {no_split})"
        );
    }
}
