//! `fluidicl-check` — sweep the Polybench suite through both checkers.
//!
//! Stage 1 audits every benchmark's kernels with the access sanitizer
//! ([`fluidicl_check::AuditDriver`]) and validates results against the
//! sequential references. Stage 2 co-executes every benchmark under
//! FluidiCL across three machine models and several runtime
//! configurations with protocol validation on, then lints every kernel
//! report again explicitly. Exits non-zero if anything is flagged.
//!
//! Both stages fan their independent units out over the [`fluidicl_par`]
//! pool; per-unit output is buffered and printed in sweep order, so the
//! report and the exit code are identical to a sequential (`--jobs 1`)
//! run. `--quick` restricts stage 2 to the paper-testbed machine (CI's
//! fast path); `--jobs N` caps the worker threads.
//!
//! `--faults [--seeds N]` switches to the fault-injection sweep instead:
//! every benchmark × fault kind × seed must recover bit-identically or
//! fail with a typed error, twice over (determinism); the summary goes to
//! `FAULTS_summary.json` and any contract violation fails the run.

use fluidicl::{lint_report, Fluidicl, FluidiclConfig, LintSeverity};
use fluidicl_check::{json_escape, race_check_report, AuditDriver, CellOutcome, SWEEP_SEED};
use fluidicl_hetsim::{AbortMode, MachineConfig};
use fluidicl_polybench::all_benchmarks;

/// One machine-readable finding of the sweep, for `--report-json`.
#[derive(Clone)]
struct JsonFinding {
    stage: &'static str,
    machine: String,
    config: String,
    bench: String,
    kernel: String,
    rule: String,
    severity: LintSeverity,
    message: String,
}

/// Buffered result of one sweep unit: the lines it prints plus its error
/// and warning counts and machine-readable findings.
#[derive(Default)]
struct UnitReport {
    lines: Vec<String>,
    problems: usize,
    warnings: usize,
    findings: Vec<JsonFinding>,
}

/// Renders the sweep's findings plus per-kernel access summaries as one
/// JSON artifact (the `--report-json` output CI uploads).
fn render_report_json(findings: &[JsonFinding]) -> String {
    let mut out = String::from("{\n  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        let sev = match f.severity {
            LintSeverity::Error => "error",
            LintSeverity::Warning => "warning",
        };
        out.push_str(&format!(
            "    {{\"stage\": \"{}\", \"machine\": \"{}\", \"config\": \"{}\", \
             \"bench\": \"{}\", \"kernel\": \"{}\", \"rule\": \"{}\", \
             \"severity\": \"{sev}\", \"message\": \"{}\"}}{}\n",
            json_escape(f.stage),
            json_escape(&f.machine),
            json_escape(&f.config),
            json_escape(&f.bench),
            json_escape(&f.kernel),
            json_escape(&f.rule),
            json_escape(&f.message),
            if i + 1 < findings.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"kernel_summaries\": [\n");
    let mut rows = Vec::new();
    for b in all_benchmarks() {
        let n = fluidicl_check::sweep_size(b.name);
        let program = (b.program)(n);
        let mut names: Vec<&str> = program.kernel_names().collect();
        names.sort_unstable();
        for name in names {
            let k = program.kernel(name).expect("listed kernel exists");
            let args = k
                .args()
                .iter()
                .map(|a| {
                    let access = a
                        .access
                        .as_ref()
                        .map_or("null".to_string(), |p| format!("\"{}\"", p.label()));
                    format!(
                        "{{\"name\": \"{}\", \"role\": \"{:?}\", \"access\": {access}}}",
                        json_escape(&a.name),
                        a.role
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            rows.push(format!(
                "    {{\"bench\": \"{}\", \"kernel\": \"{}\", \
                 \"write_footprints\": {}, \"args\": [{args}]}}",
                json_escape(b.name),
                json_escape(name),
                k.has_write_footprints()
            ));
        }
    }
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// Resolves `rel` against the repository root (two levels above this
/// crate's manifest), so artifact paths work from any working directory.
fn repo_path(rel: &str) -> String {
    format!("{}/../../{rel}", env!("CARGO_MANIFEST_DIR"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut faults = false;
    let mut seeds = 4u64;
    let mut faults_out = repo_path("FAULTS_summary.json");
    let mut report_json: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--faults" => faults = true,
            "--report-json" => {
                report_json = Some(it.next().unwrap_or_else(|| {
                    eprintln!("--report-json requires a path argument");
                    std::process::exit(2);
                }));
            }
            "--seeds" => {
                let Some(n) = it.next().and_then(|v| v.parse::<u64>().ok()) else {
                    eprintln!("--seeds requires a positive integer argument");
                    std::process::exit(2);
                };
                seeds = n.max(1);
            }
            "--faults-out" => {
                faults_out = it.next().unwrap_or_else(|| {
                    eprintln!("--faults-out requires a path argument");
                    std::process::exit(2);
                });
            }
            "--jobs" => {
                let Some(n) = it.next().and_then(|v| v.parse::<usize>().ok()) else {
                    eprintln!("--jobs requires a positive integer argument");
                    std::process::exit(2);
                };
                fluidicl_par::configure_jobs(n);
            }
            other => {
                eprintln!(
                    "usage: fluidicl-check [--quick] [--jobs N] [--report-json PATH] \
                     [--faults [--seeds N] [--faults-out PATH]]"
                );
                eprintln!("unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }

    if faults {
        run_faults_mode(seeds, &faults_out);
        return;
    }

    let mut problems = 0usize;
    let mut warnings = 0usize;
    let mut findings: Vec<JsonFinding> = Vec::new();

    println!("== stage 1: access sanitizer over the Polybench suite ==");
    let stage1 = fluidicl_par::par_map(all_benchmarks(), |b| {
        let mut r = UnitReport::default();
        let n = fluidicl_check::sweep_size(b.name);
        let mut driver = AuditDriver::new((b.program)(n));
        match b.run_and_validate_sized(&mut driver, n, SWEEP_SEED) {
            Ok(true) => {}
            Ok(false) => {
                r.lines.push(format!(
                    "  {:8} n={n}: output mismatch vs reference",
                    b.name
                ));
                r.problems += 1;
                r.findings.push(JsonFinding {
                    stage: "sanitizer",
                    machine: String::new(),
                    config: String::new(),
                    bench: b.name.to_string(),
                    kernel: String::new(),
                    rule: "output-mismatch".to_string(),
                    severity: LintSeverity::Error,
                    message: "output mismatch vs reference".to_string(),
                });
            }
            Err(e) => {
                r.lines
                    .push(format!("  {:8} n={n}: driver error: {e}", b.name));
                r.problems += 1;
                r.findings.push(JsonFinding {
                    stage: "sanitizer",
                    machine: String::new(),
                    config: String::new(),
                    bench: b.name.to_string(),
                    kernel: String::new(),
                    rule: "driver-error".to_string(),
                    severity: LintSeverity::Error,
                    message: e.to_string(),
                });
            }
        }
        let mut flagged = 0usize;
        for finding in driver.findings() {
            for d in &finding.diagnostics {
                r.lines
                    .push(format!("  {:8} kernel `{}`: {d}", b.name, finding.kernel));
                match d.severity {
                    LintSeverity::Error => r.problems += 1,
                    LintSeverity::Warning => r.warnings += 1,
                }
                r.findings.push(JsonFinding {
                    stage: "sanitizer",
                    machine: String::new(),
                    config: String::new(),
                    bench: b.name.to_string(),
                    kernel: finding.kernel.clone(),
                    rule: d.rule.to_string(),
                    severity: d.severity,
                    message: d.message.clone(),
                });
                flagged += 1;
            }
        }
        if flagged == 0 {
            r.lines.push(format!(
                "  {:8} n={n}: {} launch(es) clean",
                b.name,
                driver.findings().len()
            ));
        }
        r
    });
    for r in stage1 {
        for line in &r.lines {
            println!("{line}");
        }
        problems += r.problems;
        warnings += r.warnings;
        findings.extend(r.findings);
    }

    println!("== stage 2: protocol linter across machines and configs ==");
    let mut machines = vec![("paper-testbed", MachineConfig::paper_testbed())];
    if !quick {
        machines.push(("weak-gpu-laptop", MachineConfig::weak_gpu_laptop()));
        machines.push(("big-gpu-node", MachineConfig::big_gpu_node()));
        // Three-device machine: exercises the shared-frontier protocol and
        // the N-endpoint lint/race vocabulary on every config cell.
        machines.push(("paper-testbed-3dev", MachineConfig::paper_testbed_3dev()));
    }
    let configs = [
        ("default", FluidiclConfig::default()),
        (
            "abort=wg-start",
            FluidiclConfig::default().with_abort_mode(AbortMode::WorkGroupStart),
        ),
        (
            "abort=in-loop",
            FluidiclConfig::default().with_abort_mode(AbortMode::InLoop),
        ),
        (
            "no-opts",
            FluidiclConfig::default()
                .with_wg_split(false)
                .with_buffer_pool(false)
                .with_location_tracking(false),
        ),
        (
            "whole-buffer",
            FluidiclConfig::default().with_dirty_range_transfers(false),
        ),
        (
            "pipeline=1",
            FluidiclConfig::default().with_pipeline_depth(1),
        ),
        (
            "pipeline=4",
            FluidiclConfig::default().with_pipeline_depth(4),
        ),
        (
            "graph-sched",
            FluidiclConfig::default().with_graph_scheduling(true),
        ),
    ];
    let mut units = Vec::new();
    for (mname, machine) in &machines {
        for (cname, config) in &configs {
            units.push((*mname, machine.clone(), *cname, config.clone()));
        }
    }
    let stage2 = fluidicl_par::par_map(units, |(mname, machine, cname, config)| {
        let mut r = UnitReport::default();
        let mut kernels = 0usize;
        let mut flagged = 0usize;
        for b in all_benchmarks() {
            let n = fluidicl_check::sweep_size(b.name);
            let config = config.clone().with_validate_protocol(true);
            let mut rt = Fluidicl::new(machine.clone(), config, (b.program)(n));
            // Second program instance for kernel-def lookups: the runtime
            // consumed the first, and the race detector needs the declared
            // access patterns to lower each trace symbolically.
            let defs = (b.program)(n);
            match b.run_and_validate_sized(&mut rt, n, SWEEP_SEED) {
                Ok(true) => {}
                Ok(false) => {
                    r.lines.push(format!(
                        "  {mname}/{cname} {:8}: output mismatch vs reference",
                        b.name
                    ));
                    r.problems += 1;
                    r.findings.push(JsonFinding {
                        stage: "protocol",
                        machine: mname.to_string(),
                        config: cname.to_string(),
                        bench: b.name.to_string(),
                        kernel: String::new(),
                        rule: "output-mismatch".to_string(),
                        severity: LintSeverity::Error,
                        message: "output mismatch vs reference".to_string(),
                    });
                }
                Err(e) => {
                    r.lines.push(format!("  {mname}/{cname} {:8}: {e}", b.name));
                    r.problems += 1;
                    r.findings.push(JsonFinding {
                        stage: "protocol",
                        machine: mname.to_string(),
                        config: cname.to_string(),
                        bench: b.name.to_string(),
                        kernel: String::new(),
                        rule: "runtime-error".to_string(),
                        severity: LintSeverity::Error,
                        message: e.to_string(),
                    });
                }
            }
            for report in rt.reports() {
                kernels += 1;
                let kdef = defs
                    .kernel(&report.kernel)
                    .expect("reported kernel is registered");
                let race = race_check_report(&kdef, report);
                for (stage, d) in lint_report(report)
                    .iter()
                    .map(|d| ("protocol", d))
                    .chain(race.iter().map(|d| ("race", d)))
                {
                    r.lines.push(format!(
                        "  {mname}/{cname} {:8} kernel `{}`: {d}",
                        b.name, report.kernel
                    ));
                    match d.severity {
                        LintSeverity::Error => r.problems += 1,
                        LintSeverity::Warning => r.warnings += 1,
                    }
                    r.findings.push(JsonFinding {
                        stage,
                        machine: mname.to_string(),
                        config: cname.to_string(),
                        bench: b.name.to_string(),
                        kernel: report.kernel.clone(),
                        rule: d.rule.to_string(),
                        severity: d.severity,
                        message: d.message.clone(),
                    });
                    flagged += 1;
                }
            }
            // Graph-scheduling cells also validate every recorded flush
            // schedule: conservative edge coverage, edge ordering, and the
            // absence of concurrently-scheduled conflicting nodes.
            for schedule in rt.graph_schedules() {
                for d in fluidicl_check::check_schedule(schedule) {
                    r.lines
                        .push(format!("  {mname}/{cname} {:8} schedule: {d}", b.name));
                    match d.severity {
                        LintSeverity::Error => r.problems += 1,
                        LintSeverity::Warning => r.warnings += 1,
                    }
                    r.findings.push(JsonFinding {
                        stage: "graph",
                        machine: mname.to_string(),
                        config: cname.to_string(),
                        bench: b.name.to_string(),
                        kernel: String::new(),
                        rule: d.rule.to_string(),
                        severity: d.severity,
                        message: d.message.clone(),
                    });
                    flagged += 1;
                }
            }
        }
        if flagged == 0 {
            r.lines.push(format!(
                "  {mname}/{cname}: {kernels} kernel trace(s) clean"
            ));
        }
        r
    });
    for r in stage2 {
        for line in &r.lines {
            println!("{line}");
        }
        problems += r.problems;
        warnings += r.warnings;
        findings.extend(r.findings);
    }

    if let Some(path) = &report_json {
        std::fs::write(path, render_report_json(&findings)).expect("write report JSON");
        println!(
            "  wrote {path} ({} finding(s), kernel summaries for {} benchmark(s))",
            findings.len(),
            all_benchmarks().len()
        );
    }

    println!("== sweep done: {problems} error(s), {warnings} warning(s) ==");
    if problems > 0 {
        std::process::exit(1);
    }
}

/// The `--faults` sweep: checks the recovery contract over every
/// benchmark × fault kind × seed cell and writes the JSON artifact.
fn run_faults_mode(seeds: u64, out: &str) {
    let kinds = fluidicl_vcl::FaultKind::all().len();
    let benches = all_benchmarks().len();
    println!(
        "== fault-injection sweep: {benches} benchmarks x {kinds} fault kinds x \
         {seeds} seed(s), each cell twice =="
    );
    let cells = fluidicl_check::run_fault_sweep(seeds);
    let mut failures = 0usize;
    for c in &cells {
        if c.is_failure() {
            failures += 1;
            let what = if c.deterministic {
                c.outcome.label()
            } else {
                "NON-DETERMINISTIC"
            };
            let detail = match &c.outcome {
                CellOutcome::TypedError(d) | CellOutcome::UnexpectedError(d) => d.as_str(),
                _ => "",
            };
            println!(
                "  {:8} {:18} seed {}: {what} {detail}",
                c.bench,
                c.kind.name(),
                c.seed
            );
        }
    }
    let fired = cells.iter().filter(|c| c.fired).count();
    let recovered = cells
        .iter()
        .filter(|c| c.outcome == CellOutcome::Recovered)
        .count();
    let typed = cells
        .iter()
        .filter(|c| matches!(c.outcome, CellOutcome::TypedError(_)))
        .count();
    println!(
        "  {} cell(s): {recovered} recovered, {typed} typed error(s), {fired} fault(s) \
         fired, {failures} failure(s)",
        cells.len()
    );
    // Three-device non-owner loss: on paper-testbed-3dev the subkernel-kill
    // fault strikes the CPU or the peer GPU; the survivors must always
    // finish bit-identically (typed errors are failures here — the owner
    // survives by construction), with race-clean recovered traces.
    let ndev = fluidicl_check::run_ndev_loss_sweep(seeds);
    let mut ndev_failures = 0usize;
    for c in &ndev {
        if c.is_failure() {
            ndev_failures += 1;
            let what = if c.deterministic {
                c.outcome.label()
            } else {
                "NON-DETERMINISTIC"
            };
            let detail = match &c.outcome {
                CellOutcome::TypedError(d) | CellOutcome::UnexpectedError(d) => d.as_str(),
                _ => "",
            };
            println!(
                "  {:8} 3dev non-owner-loss seed {}: {what} {detail}",
                c.bench, c.seed
            );
        }
    }
    let ndev_fired = ndev.iter().filter(|c| c.fired).count();
    println!(
        "  3dev non-owner loss: {} cell(s), {ndev_fired} loss(es) fired, \
         {ndev_failures} failure(s)",
        ndev.len()
    );
    failures += ndev_failures;
    // Owner failover: on paper-testbed-3dev the acting owner itself is
    // killed; a surviving peer GPU must be promoted (epoch-fenced) and the
    // run must still finish bit-identically — or, when the cascade takes
    // every device, fail with a typed error. Cells are race-checked and
    // run twice; the sweep as a whole must exercise at least one actual
    // promotion, otherwise the failover path silently went untested.
    let failover = fluidicl_check::run_failover_sweep(seeds);
    let mut failover_failures = 0usize;
    for c in &failover {
        if c.is_failure() {
            failover_failures += 1;
            let what = if c.deterministic {
                c.outcome.label()
            } else {
                "NON-DETERMINISTIC"
            };
            let detail = match &c.outcome {
                CellOutcome::TypedError(d) | CellOutcome::UnexpectedError(d) => d.as_str(),
                _ => "",
            };
            println!(
                "  {:8} {:24} seed {}: {what} {detail}",
                c.bench, c.family, c.seed
            );
        }
    }
    let promoted = failover.iter().filter(|c| c.promoted).count();
    if promoted == 0 {
        println!("  owner failover: no cell promoted a peer to owner");
        failover_failures += 1;
    }
    let failover_fired = failover.iter().filter(|c| c.fired).count();
    let failover_recovered = failover
        .iter()
        .filter(|c| c.outcome == CellOutcome::Recovered)
        .count();
    println!(
        "  owner failover: {} cell(s), {failover_fired} fault(s) fired, \
         {promoted} promotion(s), {failover_recovered} recovered, \
         {failover_failures} failure(s)",
        failover.len()
    );
    failures += failover_failures;
    // Fault-aware chunk shrink: under transient transfer faults, halving
    // the chunk on retry must never launch a *larger* post-fault subkernel
    // (the work a watchdog abandonment would strand un-merged), and must
    // strictly shrink that at-risk window somewhere in the sweep.
    let shrink = fluidicl_check::run_shrink_comparison(seeds);
    let mut shrink_regressions = 0usize;
    for c in &shrink {
        if c.is_failure() {
            shrink_regressions += 1;
            println!(
                "  {:8} plan_seed {}: shrink-on-retry at-risk window grew \
                 ({} wgs vs {} without)",
                c.bench, c.plan_seed, c.at_risk_with_shrink, c.at_risk_without_shrink
            );
        }
    }
    let shrink_gains = shrink.iter().filter(|c| c.improved()).count();
    if shrink_gains == 0 {
        println!("  shrink-on-retry: no cell shrank its at-risk window");
        shrink_regressions += 1;
    }
    println!(
        "  shrink-on-retry: {} comparison(s), {shrink_gains} with a smaller \
         post-fault at-risk window, {shrink_regressions} regression(s)",
        shrink.len()
    );
    failures += shrink_regressions;
    let json = fluidicl_check::render_faults_json(&cells, &ndev, &failover, &shrink, seeds);
    std::fs::write(out, &json).expect("write FAULTS_summary.json");
    println!("  wrote {out}");
    if failures > 0 {
        std::process::exit(1);
    }
}
