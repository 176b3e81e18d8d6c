//! `perf` — wall-clock performance harness for the reproduction itself.
//!
//! The experiments measure *virtual* time; this binary measures the *real*
//! time the harness spends producing them, so regressions in the executor
//! hot paths show up in CI. It times:
//!
//! * the repro sweep (all experiments, or the `--quick` subset), fanned out
//!   over the [`fluidicl_par`] pool exactly as `repro` runs it;
//! * the micro-hotspots: `execute_groups` on SYRK, the `diff_merge` /
//!   `diff_merge_ranged` coherence primitives, dirty-range coalescing, and
//!   a host buffer write.
//!
//! Results go to `BENCH_repro.json` at the repository root (one section per
//! line: median/p10/p90 nanoseconds, worker-thread count, git revision,
//! runner key).
//!
//! `--check` compares medians against `ci/bench_baseline.json`. The
//! baseline holds a fallback section list (compared at a generous blanket
//! factor, because unknown machines differ from the one that recorded it)
//! plus optional per-runner blocks keyed by `<os>-<cpus>cpu` — a runner
//! block carries its own, tighter factor and wins over the fallback when
//! its key matches the current machine. A run in the other mode than the
//! baseline's `"quick"` flag is refused, and a section the selected block
//! lists but the run did not produce fails the check.
//!
//! ```text
//! perf                    # full sweep + micro-hotspots
//! perf --quick            # fast subset (CI)
//! perf --jobs 4           # cap the worker pool
//! perf --check            # also compare against ci/bench_baseline.json;
//!                         # exit 1 on a median regression beyond the
//!                         # baseline's factor for this runner
//! perf --out PATH         # write the JSON somewhere else
//! ```

use std::time::Instant;

use fluidicl::{Fluidicl, FluidiclConfig};
use fluidicl_bench::experiments::{experiments, find, Experiment};
use fluidicl_check::json_escape;
use fluidicl_hetsim::MachineConfig;
use fluidicl_polybench::data::gen_matrix;
use fluidicl_polybench::syrk;
use fluidicl_vcl::{
    diff_merge, diff_merge_ranged, BufferId, ClDriver, DirtyRanges, KernelArg, Launch, Memory,
    NdRange, Program,
};

/// Experiment ids of the `--quick` sweep (mirrors `repro --quick`).
const QUICK_IDS: [&str; 4] = ["table1", "table2", "table3", "extended"];

/// Allowed median slowdown vs the committed *fallback* baseline before
/// `--check` fails: generous because unknown machines differ from the
/// machine that recorded it. Per-runner baseline blocks override this
/// with their own (tighter) factor.
const REGRESSION_FACTOR: f64 = 3.0;

/// Allowed median slowdown of a `with_dirty_range_transfers` co-execution
/// over the ungated protocol. Self-relative (both states measured in the
/// same process on the same machine), so the bound holds everywhere.
const DIRTY_GATE_FACTOR: f64 = 3.0;

/// Key identifying the machine class a baseline was recorded on.
fn runner_key() -> String {
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    format!("{}-{cpus}cpu", std::env::consts::OS)
}

/// One timed section of the harness.
struct Section {
    name: &'static str,
    iters: usize,
    median_ns: u128,
    p10_ns: u128,
    p90_ns: u128,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut check = false;
    let mut out: Option<String> = None;
    let mut baseline = default_path("ci/bench_baseline.json");
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--check" => check = true,
            "--jobs" => {
                let Some(n) = it.next().and_then(|v| v.parse::<usize>().ok()) else {
                    eprintln!("--jobs requires a positive integer argument");
                    std::process::exit(2);
                };
                fluidicl_par::configure_jobs(n);
            }
            "--out" => {
                out = it.next();
                if out.is_none() {
                    eprintln!("--out requires a path argument");
                    std::process::exit(2);
                }
            }
            "--baseline" => {
                baseline = it.next().unwrap_or_else(|| {
                    eprintln!("--baseline requires a path argument");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!(
                    "usage: perf [--quick] [--check] [--jobs N] [--out PATH] [--baseline PATH]"
                );
                eprintln!("unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }
    let out = out.unwrap_or_else(|| default_path("BENCH_repro.json"));
    let jobs = fluidicl_par::jobs();
    eprintln!(
        "perf: {} sweep, {jobs} worker threads",
        if quick { "quick" } else { "full" }
    );

    let mut sections = Vec::new();
    sections.push(time_sweep(quick));
    sections.extend(micro_hotspots());
    let (gate_sections, gate_factor) = dirty_gate_sections();
    sections.extend(gate_sections);
    sections.extend(pipeline_sections());
    sections.extend(ndev_sections());
    sections.extend(graph_sched_sections());

    let json = render_json(&sections, quick, jobs);
    std::fs::write(&out, &json).expect("write BENCH_repro.json");
    eprintln!("wrote {out}");
    for s in &sections {
        eprintln!(
            "  {:24} median {:>10.3} ms  (p10 {:.3}, p90 {:.3})",
            s.name,
            s.median_ns as f64 / 1e6,
            s.p10_ns as f64 / 1e6,
            s.p90_ns as f64 / 1e6
        );
    }
    eprintln!(
        "  dirty-range gate overhead: {gate_factor:.2}x ungated (bound {DIRTY_GATE_FACTOR}x)"
    );
    if gate_factor > DIRTY_GATE_FACTOR {
        eprintln!(
            "perf: dirty-range gated co-execution exceeds {DIRTY_GATE_FACTOR}x the ungated path"
        );
        std::process::exit(1);
    }
    if check && !check_against_baseline(&sections, quick, &baseline) {
        std::process::exit(1);
    }
}

/// Times a full SYRK co-execution with `with_dirty_range_transfers` off
/// and on — both gate states exercised every CI run — and returns the
/// sections plus the gated/ungated median ratio, which `main` holds to
/// [`DIRTY_GATE_FACTOR`].
fn dirty_gate_sections() -> (Vec<Section>, f64) {
    let b = fluidicl_polybench::find("SYRK").expect("SYRK registered");
    let n = 128;
    let machine = MachineConfig::paper_testbed();
    let run_once = |dirty: bool| {
        let mut rt = Fluidicl::new(
            machine.clone(),
            FluidiclConfig::default().with_dirty_range_transfers(dirty),
            (b.program)(n),
        );
        let started = Instant::now();
        let ok = b
            .run_and_validate_sized(&mut rt, n, 0xF1D1C1)
            .expect("SYRK co-execution");
        let ns = started.elapsed().as_nanos();
        assert!(ok, "SYRK diverged from reference (dirty={dirty})");
        ns
    };
    let iters = 7;
    let off = collect(iters, || run_once(false));
    let on = collect(iters, || run_once(true));
    let off = stats("coexec_dirty_off", iters, off);
    let on = stats("coexec_dirty_on", iters, on);
    let factor = on.median_ns as f64 / off.median_ns.max(1) as f64;
    (vec![off, on], factor)
}

/// Times a full SYRK co-execution at pipeline depths 1, 2 and 4: the
/// harness cost of the pipelined CPU subkernel executor (the copy channel,
/// batch coalescing and exposed-stall bookkeeping) at the serial, default
/// and deep settings.
fn pipeline_sections() -> Vec<Section> {
    let b = fluidicl_polybench::find("SYRK").expect("SYRK registered");
    let n = 128;
    let machine = MachineConfig::paper_testbed();
    let run_once = |depth: u32| {
        let mut rt = Fluidicl::new(
            machine.clone(),
            FluidiclConfig::default().with_pipeline_depth(depth),
            (b.program)(n),
        );
        let started = Instant::now();
        let ok = b
            .run_and_validate_sized(&mut rt, n, 0xF1D1C1)
            .expect("SYRK co-execution");
        let ns = started.elapsed().as_nanos();
        assert!(ok, "SYRK diverged from reference (depth={depth})");
        ns
    };
    let iters = 7;
    [1u32, 2, 4]
        .into_iter()
        .map(|depth| {
            let samples = collect(iters, || run_once(depth));
            stats(
                match depth {
                    1 => "coexec_pipeline_1",
                    2 => "coexec_pipeline_2",
                    _ => "coexec_pipeline_4",
                },
                iters,
                samples,
            )
        })
        .collect()
}

/// Times a full SYRK co-execution on the two-device paper testbed and the
/// three-device machine: the harness cost of the shared-frontier protocol
/// with a peer-GPU endpoint (second endpoint loop, per-device staging
/// channels, coverage bookkeeping and the merge fold) relative to the
/// watermark-pair baseline.
fn ndev_sections() -> Vec<Section> {
    let b = fluidicl_polybench::find("SYRK").expect("SYRK registered");
    let n = 128;
    let run_once = |machine: &MachineConfig| {
        let mut rt = Fluidicl::new(machine.clone(), FluidiclConfig::default(), (b.program)(n));
        let started = Instant::now();
        let ok = b
            .run_and_validate_sized(&mut rt, n, 0xF1D1C1)
            .expect("SYRK co-execution");
        let ns = started.elapsed().as_nanos();
        assert!(ok, "SYRK diverged from reference");
        ns
    };
    let iters = 7;
    let two = MachineConfig::paper_testbed();
    let three = MachineConfig::paper_testbed_3dev();
    let ndev2 = collect(iters, || run_once(&two));
    let ndev3 = collect(iters, || run_once(&three));
    vec![
        stats("coexec_ndev_2", iters, ndev2),
        stats("coexec_ndev_3", iters, ndev3),
    ]
}

/// Times the BATCHMM pipeline with kernel-graph scheduling off and on: the
/// harness cost of deferral, DAG construction, HEFT placement and the
/// per-node dispatch loop, on the workload the `graph` experiment uses.
/// Wall-clock, not virtual time — the scheduling *win* lives in the
/// virtual makespans (EXPERIMENTS.md `[graph]`); this gate catches the
/// host-side overhead of the graph machinery regressing.
fn graph_sched_sections() -> Vec<Section> {
    let b = fluidicl_polybench::pipeline_benchmark();
    let n = 96;
    let three = MachineConfig::paper_testbed_3dev();
    let run_once = |graph: bool| {
        let mut rt = Fluidicl::new(
            three.clone(),
            FluidiclConfig::default().with_graph_scheduling(graph),
            (b.program)(n),
        );
        let started = Instant::now();
        let ok = b
            .run_and_validate_sized(&mut rt, n, 0xF1D1C1)
            .expect("BATCHMM run");
        let ns = started.elapsed().as_nanos();
        assert!(ok, "BATCHMM diverged from reference (graph={graph})");
        ns
    };
    let iters = 7;
    let off = collect(iters, || run_once(false));
    let on = collect(iters, || run_once(true));
    vec![
        stats("graph_sched_off", iters, off),
        stats("graph_sched_on", iters, on),
    ]
}

/// Resolves `rel` against the repository root (two levels above this
/// crate's manifest).
fn default_path(rel: &str) -> String {
    format!("{}/../../{rel}", env!("CARGO_MANIFEST_DIR"))
}

/// Times the repro sweep: every selected experiment fanned out over the
/// pool, like `repro all` / `repro --quick`.
fn time_sweep(quick: bool) -> Section {
    let selected: Vec<Experiment> = if quick {
        QUICK_IDS
            .iter()
            .map(|id| find(id).expect("quick experiment registered"))
            .collect()
    } else {
        experiments()
    };
    let machine = MachineConfig::paper_testbed();
    let iters = 3;
    let samples = collect(iters, || {
        let sel = selected.clone();
        let started = Instant::now();
        let results = fluidicl_par::par_map(sel, |e| (e.run)(&machine));
        let ns = started.elapsed().as_nanos();
        assert!(!results.is_empty());
        ns
    });
    stats(
        if quick { "sweep_quick" } else { "sweep_full" },
        iters,
        samples,
    )
}

/// Times the executor hot paths the coexec engine leans on.
/// `execute_groups_seq` is SYRK at n = 256, so it times SYRK's group body
/// (one call over the whole launch's work-group range), not the per-item
/// body.
fn micro_hotspots() -> Vec<Section> {
    let n = 256;
    let program = syrk::program(n);
    let kernel = program.kernel("syrk").expect("syrk kernel");
    let a = gen_matrix(n, n, 7);
    let c0 = gen_matrix(n, n, 8);
    let a_buf = BufferId(0);
    let c_buf = BufferId(1);
    let launch = Launch::new(
        kernel,
        NdRange::d2(n, n, syrk::WG, syrk::WG).expect("ndrange"),
        vec![
            KernelArg::Buffer(a_buf),
            KernelArg::Buffer(c_buf),
            KernelArg::F32(1.5),
            KernelArg::F32(2.5),
            KernelArg::Usize(n),
        ],
    );
    let groups = launch.ndrange.num_groups();
    let mut mem = Memory::new();
    mem.install(a_buf, a);
    mem.install(c_buf, c0.clone());

    let iters = 10;
    let seq = collect(iters, || {
        mem.write(c_buf, &c0).expect("reset c");
        let started = Instant::now();
        fluidicl_vcl::exec::execute_groups(&launch, &mut mem, 0, groups).expect("execute");
        started.elapsed().as_nanos()
    });

    // diff_merge over a 1M-element buffer with every 16th element changed —
    // the §4.3 coherence primitive the CPU->GPU result path runs per
    // subkernel.
    let len = 1 << 20;
    let original: Vec<f32> = (0..len).map(|i| i as f32).collect();
    let mut cpu = original.clone();
    for (i, v) in cpu.iter_mut().enumerate() {
        if i % 16 == 0 {
            *v += 1.0;
        }
    }
    let mut dst = original.clone();
    let merge = collect(iters, || {
        dst.copy_from_slice(&original);
        let started = Instant::now();
        diff_merge(&mut dst, &cpu, &original);
        started.elapsed().as_nanos()
    });

    // diff_merge_ranged over the same 1M buffer with a realistic captured
    // footprint: 128 spans of 512 dirty elements (1/16 of the buffer) —
    // what the dirty-range protocol hands the merge per subkernel.
    let span = 512;
    let stride = len / 128;
    let ranges = DirtyRanges::from_ranges((0..128).map(|j| (j * stride, j * stride + span)));
    let mut cpu_spans = original.clone();
    for (s, e) in ranges.iter() {
        for v in &mut cpu_spans[s..e] {
            *v += 1.0;
        }
    }
    let merge_ranged = collect(iters, || {
        dst.copy_from_slice(&original);
        let started = Instant::now();
        diff_merge_ranged(&mut dst, &cpu_spans, &original, &ranges).expect("ranged merge");
        started.elapsed().as_nanos()
    });

    // Coalescing 65536 scattered dirty indices (every 16th element) into
    // ranges — the capture-side cost of the dirty-range protocol.
    let indices: Vec<usize> = (0..len).filter(|i| i % 16 == 0).collect();
    let coalesce = collect(iters, || {
        let started = Instant::now();
        let r = DirtyRanges::from_indices(indices.iter().copied());
        let ns = started.elapsed().as_nanos();
        assert_eq!(r.element_count(), indices.len());
        ns
    });

    // Host write: `write_buffer` of a 16M-element buffer on a fresh
    // runtime. The CPU and GPU address spaces share the one host copy it
    // makes. Applications hand their inputs over with `write_buffer_owned`
    // and pay no copy at all; this section stays on the copying slice path
    // because its gate in `ci/bench_baseline.json` was measured on it.
    let big = vec![1.5f32; 1 << 24];
    let host_write = collect(iters, || {
        let mut rt = Fluidicl::new(
            MachineConfig::paper_testbed(),
            FluidiclConfig::default(),
            Program::new(),
        );
        let id = rt.create_buffer(big.len());
        let started = Instant::now();
        rt.write_buffer(id, &big).expect("write_buffer");
        started.elapsed().as_nanos()
    });

    vec![
        stats("execute_groups_seq", iters, seq),
        stats("diff_merge_1m", iters, merge),
        stats("diff_merge_ranged_1m", iters, merge_ranged),
        stats("dirty_coalesce", iters, coalesce),
        stats("write_buffer_16m", iters, host_write),
    ]
}

fn collect(iters: usize, mut f: impl FnMut() -> u128) -> Vec<u128> {
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        samples.push(f());
    }
    samples
}

fn stats(name: &'static str, iters: usize, mut samples: Vec<u128>) -> Section {
    samples.sort_unstable();
    let q = |p: f64| samples[((samples.len() - 1) as f64 * p).round() as usize];
    Section {
        name,
        iters,
        median_ns: q(0.5),
        p10_ns: q(0.1),
        p90_ns: q(0.9),
    }
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Hand-written JSON: one section object per line, so the file diffs
/// cleanly and the `--check` parser can stay a line scanner. Every string
/// value goes through the shared escaper.
fn render_json(sections: &[Section], quick: bool, jobs: usize) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!(
        "  \"git_rev\": \"{}\",\n",
        json_escape(&git_rev())
    ));
    s.push_str(&format!("  \"jobs\": {jobs},\n"));
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str(&format!(
        "  \"runner\": \"{}\",\n",
        json_escape(&runner_key())
    ));
    s.push_str("  \"sections\": [\n");
    for (i, sec) in sections.iter().enumerate() {
        let comma = if i + 1 < sections.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"iters\": {}, \"median_ns\": {}, \"p10_ns\": {}, \"p90_ns\": {}}}{comma}\n",
            json_escape(sec.name),
            sec.iters,
            sec.median_ns,
            sec.p10_ns,
            sec.p90_ns
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Extracts a quoted string value for `key` from a JSON line.
fn json_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let at = line.find(&pat)?;
    let rest = &line[at + pat.len()..];
    Some(rest[..rest.find('"')?].to_string())
}

/// Extracts a bare numeric value for `key` from a JSON line.
fn json_num(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": ");
    let at = line.find(&pat)?;
    Some(
        line[at + pat.len()..]
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.')
            .collect(),
    )
}

/// One baseline block: a section list compared at `factor`. The fallback
/// block has `runner == None` and applies to machines without a matching
/// per-runner block.
struct BaselineBlock {
    runner: Option<String>,
    factor: f64,
    sections: Vec<(String, u128)>,
}

/// A parsed baseline file: the sweep mode it was recorded in (its
/// top-level `"quick"` flag, if present) and its blocks.
struct Baseline {
    quick: Option<bool>,
    blocks: Vec<BaselineBlock>,
}

/// Parses a baseline file in the line-per-section format: `"name"` lines
/// before any `"runner"` line form the fallback block (compared at
/// [`REGRESSION_FACTOR`]); each `"runner"` line opens a per-runner block
/// whose `"factor"` (same line) governs its sections.
fn parse_baseline(text: &str) -> Baseline {
    let mut quick = None;
    let mut blocks = vec![BaselineBlock {
        runner: None,
        factor: REGRESSION_FACTOR,
        sections: Vec::new(),
    }];
    for line in text.lines() {
        if let Some(rest) = line.trim().strip_prefix("\"quick\": ") {
            quick = Some(rest.starts_with("true"));
            continue;
        }
        if let Some(runner) = json_str(line, "runner") {
            let factor = json_num(line, "factor")
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or(REGRESSION_FACTOR);
            blocks.push(BaselineBlock {
                runner: Some(runner),
                factor,
                sections: Vec::new(),
            });
            continue;
        }
        let (Some(name), Some(med)) = (json_str(line, "name"), json_num(line, "median_ns")) else {
            continue;
        };
        if let Ok(v) = med.parse::<u128>() {
            blocks
                .last_mut()
                .expect("fallback block")
                .sections
                .push((name, v));
        }
    }
    Baseline { quick, blocks }
}

/// Compares section medians against the committed baseline; returns false
/// (CI failure) when the comparison fails (see [`compare_to_baseline`]).
fn check_against_baseline(sections: &[Section], quick: bool, path: &str) -> bool {
    let Ok(text) = std::fs::read_to_string(path) else {
        eprintln!("perf --check: no baseline at {path}; skipping comparison");
        return true;
    };
    match compare_to_baseline(sections, quick, &text, &runner_key()) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("perf --check: {e}");
            false
        }
    }
}

/// Compares a run's sections with the baseline block for runner `key`.
///
/// # Errors
///
/// Fails when the run's mode (`quick`) differs from the baseline's, when
/// the selected block lists a section the run did not produce (a stale
/// entry would otherwise never be compared), or on a median regression
/// beyond the block's factor.
fn compare_to_baseline(
    sections: &[Section],
    quick: bool,
    text: &str,
    key: &str,
) -> Result<(), String> {
    let baseline = parse_baseline(text);
    if baseline.quick != Some(quick) {
        let mode = |q: Option<bool>| match q {
            Some(true) => "quick",
            Some(false) => "full",
            None => "unrecorded",
        };
        return Err(format!(
            "{} run against a baseline recorded in {} mode",
            mode(Some(quick)),
            mode(baseline.quick)
        ));
    }
    let blocks = &baseline.blocks;
    let block = blocks
        .iter()
        .find(|b| b.runner.as_deref() == Some(key))
        .or_else(|| blocks.iter().find(|b| !b.sections.is_empty()))
        .expect("fallback block always present");
    match &block.runner {
        Some(r) => eprintln!(
            "perf --check: runner baseline `{r}` (factor {})",
            block.factor
        ),
        None => eprintln!(
            "perf --check: no baseline for runner `{key}`; using fallback (factor {})",
            block.factor
        ),
    }
    let stale: Vec<&str> = block
        .sections
        .iter()
        .map(|(n, _)| n.as_str())
        .filter(|n| sections.iter().all(|s| s.name != *n))
        .collect();
    if !stale.is_empty() {
        return Err(format!(
            "baseline lists sections this run did not produce: {}",
            stale.join(", ")
        ));
    }
    let mut ok = true;
    for s in sections {
        let Some((_, base_med)) = block.sections.iter().find(|(n, _)| n == s.name) else {
            eprintln!("  {:24} no baseline entry; skipped", s.name);
            continue;
        };
        let factor = s.median_ns as f64 / (*base_med).max(1) as f64;
        let verdict = if factor > block.factor {
            ok = false;
            "REGRESSION"
        } else {
            "ok"
        };
        eprintln!("  {:24} {factor:>6.2}x baseline  {verdict}", s.name);
    }
    if ok {
        Ok(())
    } else {
        Err(format!(
            "median regression beyond {}x baseline",
            block.factor
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn section(name: &'static str, median_ns: u128) -> Section {
        Section {
            name,
            iters: 1,
            median_ns,
            p10_ns: median_ns,
            p90_ns: median_ns,
        }
    }

    const BASELINE: &str = r#"{
  "quick": true,
  "sections": [
    {"name": "sweep_quick", "iters": 3, "median_ns": 1000},
    {"name": "diff_merge_1m", "iters": 10, "median_ns": 100}
  ],
  "runners": [
    {"runner": "linux-1cpu", "factor": 2.5, "sections": [
      {"name": "sweep_quick", "median_ns": 1000},
      {"name": "diff_merge_1m", "median_ns": 100},
      {"name": "diff_merge_10m", "median_ns": 900}
    ]}
  ]
}
"#;

    #[test]
    fn matching_baseline_passes() {
        let run = [section("sweep_quick", 1500), section("diff_merge_1m", 90)];
        assert_eq!(
            compare_to_baseline(&run, true, BASELINE, "linux-2cpu"),
            Ok(())
        );
    }

    #[test]
    fn stale_entry_fails_and_is_named() {
        // The `linux-1cpu` block lists a section the run never produces.
        let run = [section("sweep_quick", 1000), section("diff_merge_1m", 100)];
        let err = compare_to_baseline(&run, true, BASELINE, "linux-1cpu").unwrap_err();
        assert!(err.contains("diff_merge_10m"), "{err}");
    }

    #[test]
    fn mode_mismatch_is_refused() {
        let run = [section("sweep_full", 1000), section("diff_merge_1m", 100)];
        let err = compare_to_baseline(&run, false, BASELINE, "linux-2cpu").unwrap_err();
        assert!(
            err.contains("full run") && err.contains("quick mode"),
            "{err}"
        );
        let unrecorded = BASELINE.replace("  \"quick\": true,\n", "");
        assert!(compare_to_baseline(&run, true, &unrecorded, "linux-2cpu").is_err());
    }

    #[test]
    fn rendered_strings_are_escaped() {
        let json = render_json(&[section("odd\"name\\", 5)], true, 1);
        assert!(
            json.contains(r#"{"name": "odd\"name\\", "iters": 1"#),
            "{json}"
        );
        let plain = render_json(&[section("diff_merge_1m", 5)], true, 1);
        let line = plain.lines().find(|l| l.contains("median_ns")).unwrap();
        assert_eq!(json_str(line, "name").as_deref(), Some("diff_merge_1m"));
    }

    #[test]
    fn regression_beyond_the_factor_fails() {
        let run = [section("sweep_quick", 4000), section("diff_merge_1m", 100)];
        let err = compare_to_baseline(&run, true, BASELINE, "linux-2cpu").unwrap_err();
        assert!(err.contains("regression"), "{err}");
    }
}
