//! The checked cell matrix: the timing and host-work contract of the
//! co-execution engine, pinned per cell, with every protocol check run on
//! every cell.
//!
//! For 10 benchmarks (the nine Polybench apps plus the BATCHMM pipeline) ×
//! 4 machines × 7 configs this records one line per cell of
//! `tests/golden/timing_fingerprint.txt`:
//!
//! ```text
//! cell makespan_ns hash groups_executed body_calls merged_bytes copied_bytes des_events [best_single_ns]
//! ```
//!
//! The hash is `fluidicl_check::timing_hash`: every kernel's virtual
//! timing — each trace event's timestamp, the report's enqueue and
//! completion times, byte and work-group counters, subkernel log and
//! finisher. Event kinds and rendered text are left out on purpose:
//! renaming or re-rendering events keeps the contract, while moving any
//! event in time, or adding or dropping one, breaks it.
//!
//! The last five columns are the runtime's `WorkCounters`: the host work
//! that produced those timings. They are exact on every machine and build
//! profile, so a reintroduced buffer copy (`copied_bytes`), a range
//! executed twice (`groups_executed`), a kernel falling back to its
//! per-item body (`body_calls`), a merge walking whole buffers instead of
//! dirty ranges (`merged_bytes`) or extra simulated events (`des_events`)
//! fails here even when no virtual time moves. A mismatch names the column
//! that moved. A `default` cell has a ninth column: the app's virtual time
//! on the faster of the CPU and the primary GPU alone
//! (`SingleDeviceRuntime`), the paper's headline comparison. FluidiCL may
//! take at most [`BEST_DEVICE_SLACK`] times that in any `default` cell.
//! The same runs also check three invariants in every cell: the default
//! protocol copies no more host bytes than the whole-buffer one for any
//! machine and benchmark (shipping dirty ranges must never make the
//! functional mirror copy more); no run calls a body more often than it
//! executes work-groups (every kernel has a range body); and a kernel the
//! CPU finished credits no peer work-group and copies nothing back to the
//! host (the CPU's copy is final).
//!
//! Every cell runs with protocol validation on, and every finding of the
//! three trace checkers fails it, warnings included: the protocol linter
//! (`lint_report`) and the happens-before race checker
//! (`race_check_report`) on each kernel report, and the schedule checker
//! (`check_schedule`) on each graph flush schedule.
//!
//! Regenerate with `cargo test --test timing_fingerprint -- --ignored` only
//! for an intentional change, and explain every changed cell: a moved
//! makespan or hash is a virtual-timing change; a moved counter alone is a
//! host-work change, legitimate when the runtime deliberately does more or
//! less work for the same virtual result (say, sharing a buffer it used to
//! copy).

use fluidicl::{lint_report, Finisher, Fluidicl, FluidiclConfig};
use fluidicl_check::{check_schedule, race_check_report, sweep_size, timing_hash, SWEEP_SEED};
use fluidicl_des::geomean;
use fluidicl_hetsim::{AbortMode, MachineConfig};
use fluidicl_polybench::{all_benchmarks, pipeline_benchmark, BenchmarkSpec};
use fluidicl_vcl::{ClDriver, DeviceKind, SingleDeviceRuntime};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/timing_fingerprint.txt"
);

/// How much longer than the faster single device a `default` cell may
/// take: the measured worst cell, to be tightened as the small-input gap
/// closes.
const BEST_DEVICE_SLACK: f64 = 1.666;

/// Column names of a fingerprint line, in order.
const COLUMNS: [&str; 9] = [
    "cell",
    "makespan",
    "hash",
    "groups_executed",
    "body_calls",
    "merged_bytes",
    "copied_bytes",
    "des_events",
    "best_single",
];

/// Every work-group a run executed, by its reports: the owner's, the CPU's
/// and each peer's executed counts. A solo run credits its lane with the
/// whole range, and an aborted wave only the groups it executed, exactly as
/// the executor ran them, so this equals `WorkCounters::groups_executed`
/// in every cell: any execution the reports do not account for is a stray.
fn reported_groups(rt: &Fluidicl) -> u64 {
    rt.reports()
        .iter()
        .map(|r| r.gpu_executed_wgs + r.cpu_executed_wgs + r.peer_executed_wgs.iter().sum::<u64>())
        .sum()
}

/// The nine Polybench apps plus the BATCHMM pipeline.
fn suite() -> Vec<BenchmarkSpec> {
    let mut all = all_benchmarks();
    all.push(pipeline_benchmark());
    all
}

/// The app's virtual time on the faster of the CPU and the primary GPU of
/// `machine` alone, or why a run failed or diverged.
fn best_single_device(machine: &MachineConfig, b: &BenchmarkSpec, n: usize) -> Result<u64, String> {
    let mut best = u64::MAX;
    for device in [DeviceKind::Cpu, DeviceKind::Gpu] {
        let mut rt = SingleDeviceRuntime::new(machine.clone(), device, (b.program)(n));
        match b.run_and_validate_sized(&mut rt, n, SWEEP_SEED) {
            Ok(true) => best = best.min(rt.elapsed().as_nanos()),
            Ok(false) => {
                return Err(format!(
                    "{}-only run diverged from reference",
                    device.name()
                ))
            }
            Err(e) => return Err(format!("{}-only run failed: {e}", device.name())),
        }
    }
    Ok(best)
}

/// One line per machine × config × benchmark (columns: [`COLUMNS`]), and
/// the cells whose run itself went wrong: output diverged from the
/// reference or the run failed, a lint, race or schedule finding,
/// work-groups executed that the reports do not credit, more body calls
/// than executed work-groups, a CPU-finished kernel with peer work or a
/// D2H copy, the default protocol copied more host bytes than
/// whole-buffer, or a `default` cell took more than
/// [`BEST_DEVICE_SLACK`] times the faster single device.
fn fingerprint() -> (String, Vec<String>) {
    let machines = [
        ("paper-testbed", MachineConfig::paper_testbed()),
        ("weak-gpu-laptop", MachineConfig::weak_gpu_laptop()),
        ("big-gpu-node", MachineConfig::big_gpu_node()),
        ("paper-testbed-3dev", MachineConfig::paper_testbed_3dev()),
    ];
    let base = FluidiclConfig::default;
    let configs = [
        ("default", base()),
        (
            "abort=wg-start",
            base().with_abort_mode(AbortMode::WorkGroupStart),
        ),
        ("abort=in-loop", base().with_abort_mode(AbortMode::InLoop)),
        (
            "no-opts",
            base()
                .with_wg_split(false)
                .with_buffer_pool(false)
                .with_location_tracking(false),
        ),
        ("whole-buffer", base().with_dirty_range_transfers(false)),
        ("pipeline=1", base().with_pipelining(false)),
        (
            "serial-whole-buffer",
            base()
                .with_dirty_range_transfers(false)
                .with_pipelining(false),
        ),
    ];
    let mut out = String::new();
    let mut faults = Vec::new();
    // FluidiCL ÷ best single device, per `default` cell.
    let mut vs_best = Vec::new();
    for (mname, machine) in &machines {
        // `copied_bytes` of the `default` run per benchmark, checked
        // against the `whole-buffer` run (which comes later in `configs`).
        let mut defaults = Vec::new();
        for (cname, config) in &configs {
            for (bi, b) in suite().into_iter().enumerate() {
                let cell = format!("{mname}/{cname}/{}", b.name);
                let n = sweep_size(b.name);
                let config = config.clone().with_validate_protocol(true);
                let mut rt = Fluidicl::new(machine.clone(), config, (b.program)(n));
                match b.run_and_validate_sized(&mut rt, n, SWEEP_SEED) {
                    Ok(true) => {}
                    Ok(false) => faults.push(format!("  {cell}: diverged from reference")),
                    Err(e) => faults.push(format!("  {cell}: {e}")),
                }
                // The runtime consumed the first program; the race checker
                // lowers each trace through the declared access patterns.
                let defs = (b.program)(n);
                for r in rt.reports() {
                    let kdef = defs
                        .kernel(&r.kernel)
                        .expect("reported kernel is registered");
                    for d in lint_report(r).iter().chain(&race_check_report(&kdef, r)) {
                        faults.push(format!("  {cell} kernel `{}`: {d}", r.kernel));
                    }
                }
                for d in rt.graph_schedules().iter().flat_map(check_schedule) {
                    faults.push(format!("  {cell} schedule: {d}"));
                }
                let work = rt.work_counters();
                let credited = reported_groups(&rt);
                if work.groups_executed != credited {
                    faults.push(format!(
                        "  {cell}: executed {} work-groups, the reports credit {credited}",
                        work.groups_executed
                    ));
                }
                if work.body_calls > work.groups_executed {
                    faults.push(format!(
                        "  {cell}: {} body calls for {} executed work-groups",
                        work.body_calls, work.groups_executed
                    ));
                }
                for r in rt.reports() {
                    let peer_wgs: u64 = r.peer_executed_wgs.iter().sum();
                    if r.finished_by == Finisher::Cpu && (peer_wgs > 0 || r.dh_bytes > 0) {
                        faults.push(format!(
                            "  {cell}: cpu-finished `{}` credits {peer_wgs} peer work-groups \
                             and copies {} bytes back",
                            r.kernel, r.dh_bytes
                        ));
                    }
                }
                let makespan = rt.elapsed().as_nanos();
                let mut best_column = String::new();
                match *cname {
                    "default" => {
                        defaults.push(work.copied_bytes);
                        match best_single_device(machine, &b, n) {
                            Ok(best) => {
                                vs_best.push((cell.clone(), makespan, best));
                                best_column = format!(" {best}");
                            }
                            Err(e) => faults.push(format!("  {cell}: {e}")),
                        }
                    }
                    "whole-buffer" if defaults[bi] > work.copied_bytes => {
                        faults.push(format!(
                            "  {mname}/{}: default copied {} bytes, whole-buffer {}",
                            b.name, defaults[bi], work.copied_bytes
                        ));
                    }
                    _ => {}
                }
                out.push_str(&format!(
                    "{cell} {makespan} {:016x} {} {} {} {} {}{best_column}\n",
                    timing_hash(&rt),
                    work.groups_executed,
                    work.body_calls,
                    work.merged_bytes,
                    work.copied_bytes,
                    work.des_events
                ));
            }
        }
    }
    let ratios: Vec<f64> = vs_best
        .iter()
        .map(|(_, ns, best)| *ns as f64 / *best as f64)
        .collect();
    let geomean = geomean(&ratios).unwrap_or(1.0);
    for ((cell, ns, best), ratio) in vs_best.iter().zip(&ratios) {
        if *ratio > BEST_DEVICE_SLACK {
            faults.push(format!(
                "  {cell}: {ns} ns is {ratio:.4}x the best single device's {best} ns \
                 (bound {BEST_DEVICE_SLACK}; geomean over {} default cells {geomean:.4})",
                ratios.len()
            ));
        }
    }
    (out, faults)
}

/// What moved between a pinned line and a new one: `cell: column pinned ->
/// now` for every differing column.
fn moved_columns(pinned: &str, now: &str) -> String {
    let (p, n): (Vec<&str>, Vec<&str>) = (pinned.split(' ').collect(), now.split(' ').collect());
    let moved: Vec<String> = (0..p.len().max(n.len()))
        .filter(|&i| p.get(i) != n.get(i))
        .map(|i| {
            format!(
                "{} {} -> {}",
                COLUMNS.get(i).unwrap_or(&"extra column"),
                p.get(i).unwrap_or(&"(none)"),
                n.get(i).unwrap_or(&"(none)")
            )
        })
        .collect();
    format!(
        "  {}: {}",
        n.first().unwrap_or(&"(missing line)"),
        moved.join(", ")
    )
}

#[test]
fn virtual_timings_match_the_pinned_fingerprint() {
    let golden = std::fs::read_to_string(GOLDEN).expect("read the pinned fingerprint");
    let (now, faults) = fingerprint();
    let changed: Vec<String> = now
        .lines()
        .zip(golden.lines())
        .filter(|(a, b)| a != b)
        .map(|(a, b)| moved_columns(b, a))
        .collect();
    assert!(
        faults.is_empty() && changed.is_empty() && now.lines().count() == golden.lines().count(),
        "{} faulty run(s):\n{}\nfingerprint changed in {} cell(s) ({} pinned lines, {} now):\n{}",
        faults.len(),
        faults.join("\n"),
        changed.len(),
        golden.lines().count(),
        now.lines().count(),
        changed.join("\n")
    );
}

#[test]
#[ignore = "rewrites tests/golden/timing_fingerprint.txt; run only for an intentional timing change"]
fn regenerate_timing_fingerprint() {
    let (now, faults) = fingerprint();
    assert!(
        faults.is_empty(),
        "refusing to pin faulty runs:\n{}",
        faults.join("\n")
    );
    std::fs::write(GOLDEN, now).expect("write the fingerprint");
}
