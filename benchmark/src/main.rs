//! Command-line front end of the benchmark.
//!
//! ```text
//! benchmark --workload W [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]
//! benchmark all [--seed N] [--seconds S] [--out-dir DIR]
//! benchmark check-virtual [--write-virtual]
//! ```
//!
//! A workload run prints every metric by name and unit, then one JSON
//! object as its last line. It exits 1 if any cell run failed and 2 on a
//! usage or set-up error.

use std::fs::File;
use std::io::BufWriter;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use fluidicl_benchmark::json::{escape, number};
use fluidicl_benchmark::virt::{diff_lines, fingerprint, render_file, COMMITTED_PATH};
use fluidicl_benchmark::{
    all_cells, median, run_workload, Options, Outcome, Workload, DEFAULT_SEED,
};

const USAGE: &str = "usage:
  benchmark --workload W [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]
  benchmark all [--seed N] [--seconds S] [--out-dir DIR]
  benchmark check-virtual [--write-virtual]
workloads: paper-2dev, ndev-3dev, small-kernels, checked";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("all") => all(&args[1..]),
        Some("check-virtual") => check_virtual(&args[1..]),
        _ => one(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::from(2)
    })
}

/// Parsed `--flag value` pairs; rejects unknown flags and missing values.
fn flags<'a>(args: &'a [String], known: &[&str]) -> Result<Vec<(&'a str, &'a str)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !known.contains(&flag.as_str()) {
            return Err(format!("unknown argument `{flag}`\n{USAGE}"));
        }
        let value = it
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value\n{USAGE}"))?;
        out.push((flag.as_str(), value.as_str()));
    }
    Ok(out)
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("`{flag}`: cannot parse `{value}`"))
}

fn seconds(flag: &str, value: &str) -> Result<f64, String> {
    let s: f64 = parse(flag, value)?;
    if s.is_finite() && (0.0..=3600.0).contains(&s) {
        Ok(s)
    } else {
        Err(format!("`{flag}` must be between 0 and 3600"))
    }
}

/// Runs one workload in this process.
fn one(args: &[String]) -> Result<ExitCode, String> {
    let mut opts = Options::default();
    let mut workload = None;
    let mut trace_out = None;
    for (flag, value) in flags(
        args,
        &[
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--trace-out",
        ],
    )? {
        match flag {
            "--workload" => {
                workload = Some(
                    Workload::parse(value)
                        .ok_or_else(|| format!("unknown workload `{value}`\n{USAGE}"))?,
                );
            }
            "--seed" => opts.seed = parse(flag, value)?,
            "--seconds" => opts.seconds = seconds(flag, value)?,
            "--trace" => {
                opts.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("`--trace` takes 0 or 1, not `{value}`")),
                };
            }
            _ => trace_out = Some(PathBuf::from(value)),
        }
    }
    let w = workload.ok_or_else(|| format!("no workload given\n{USAGE}"))?;
    let out = run_workload(w, &opts)?;
    if let (Some(path), Some(rec)) = (trace_out, &out.recorder) {
        let write = || {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir)?;
            }
            rec.write_jsonl(&mut BufWriter::new(File::create(&path)?))
        };
        write().map_err(|e| format!("{}: {e}", path.display()))?;
    }
    report(&out, &opts);
    Ok(if out.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// The highest of a few standard percentiles that has at least ten samples
/// beyond it, by nearest rank.
fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len() as f64;
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0)
        .map(|p| {
            let rank = ((p / 100.0 * n).ceil() as usize).clamp(1, sorted.len());
            (p, sorted[rank - 1])
        })
}

fn report(out: &Outcome, opts: &Options) {
    let w = out.workload;
    println!(
        "workload {} ({} cells, seed {}, {}):",
        w.name(),
        w.cells().len(),
        opts.seed,
        if opts.trace { "traced" } else { "untraced" }
    );
    let mut pass_ms: Vec<f64> = out.pass_s.iter().map(|s| s * 1e3).collect();
    pass_ms.sort_by(f64::total_cmp);
    print!(
        "  pass time p50 {:.3} ms over {} passes",
        median(&pass_ms),
        pass_ms.len()
    );
    match tail(&pass_ms) {
        Some((p, v)) => println!(", p{p} {v:.3} ms"),
        None => println!(" (too few for a tail percentile)"),
    }
    for m in &out.metrics {
        println!("  {} = {} {}", m.name, number(m.value), m.unit);
    }
    for msg in &out.tally.messages {
        eprintln!("  FAILED {msg}");
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                escape(m.name),
                number(m.value),
                escape(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.tally.failed == 0,
        out.tally.attempted,
        out.tally.failed,
        metrics.join(", ")
    );
}

/// Runs every workload in a fresh child process, one at a time: untraced
/// for the end-to-end metrics, then traced for the per-layer split.
fn all(args: &[String]) -> Result<ExitCode, String> {
    let mut seed = DEFAULT_SEED.to_string();
    let mut secs = "10".to_string();
    let mut out_dir = PathBuf::from(".bench_out");
    for (flag, value) in flags(args, &["--seed", "--seconds", "--out-dir"])? {
        match flag {
            "--seed" => seed = parse::<u64>(flag, value)?.to_string(),
            "--seconds" => secs = seconds(flag, value)?.to_string(),
            _ => out_dir = PathBuf::from(value),
        }
    }
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let mut ok = true;
    for w in Workload::ALL {
        for trace in ["0", "1"] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name(), "--seed", &seed, "--seconds", &secs])
                .args(["--trace", trace]);
            if trace == "1" {
                cmd.arg("--trace-out")
                    .arg(out_dir.join(format!("{}.spans.jsonl", w.name())));
            }
            let status = cmd
                .status()
                .map_err(|e| format!("running {}: {e}", w.name()))?;
            if !status.success() {
                eprintln!(
                    "benchmark: {} --trace {trace} exited with {status}",
                    w.name()
                );
                ok = false;
            }
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Compares the virtual fingerprint of every cell with
/// `virtual_cells.json`, or rewrites the file.
fn check_virtual(args: &[String]) -> Result<ExitCode, String> {
    let write = match args {
        [] => false,
        [flag] if flag == "--write-virtual" => true,
        _ => return Err(format!("unexpected arguments {args:?}\n{USAGE}")),
    };
    let lines = fingerprint(&all_cells(), DEFAULT_SEED)?;
    if write {
        std::fs::write(COMMITTED_PATH, render_file(&lines))
            .map_err(|e| format!("{COMMITTED_PATH}: {e}"))?;
        println!("wrote {} cells to virtual_cells.json", lines.len());
        return Ok(ExitCode::SUCCESS);
    }
    let committed =
        std::fs::read_to_string(COMMITTED_PATH).map_err(|e| format!("{COMMITTED_PATH}: {e}"))?;
    let diffs = diff_lines(&lines, &committed);
    for d in &diffs {
        println!("{d}");
    }
    println!(
        "check-virtual: {} cells, {} differ from virtual_cells.json",
        lines.len(),
        diffs.len()
    );
    Ok(if diffs.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
