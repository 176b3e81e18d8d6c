//! The command line: usage errors print no result, and a run prints exactly
//! the metrics `BENCHMARK.json` lists, as the last line of its output.

use std::process::Command;

fn benchmark(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .output()
        .expect("benchmark binary runs");
    (
        out.status.code(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

/// Metric names of one section of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json exists");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().expect("closing quote").to_string())
        .collect()
}

fn assert_result_lists(stdout: &str, names: &[String]) {
    let last = stdout.lines().last().expect("some output");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(last.contains("\"failed\": 0, \"metrics\": {"), "{last}");
    assert_eq!(last.matches("\"value\": ").count(), names.len(), "{last}");
    for name in names {
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name}"
        );
        assert!(
            stdout.contains(&format!("  {name} = ")),
            "{name} not printed"
        );
    }
}

#[test]
fn usage_errors_exit_2_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload"],
        &["--trace", "2", "--workload", "checked"],
        &["--frobnicate", "1"],
        &[],
    ] {
        let (code, stdout) = benchmark(args);
        assert_eq!(code, Some(2), "{args:?}");
        assert!(!stdout.contains("\"correct\""), "{args:?}");
    }
}

#[test]
fn a_run_reports_exactly_the_listed_metrics() {
    let args = [
        "--workload",
        "small-kernels",
        "--seed",
        "3",
        "--seconds",
        "0",
    ];
    let (code, stdout) = benchmark(&[&args[..], &["--trace", "0"]].concat());
    assert_eq!(code, Some(0));
    assert_result_lists(&stdout, &listed("end_to_end"));
    let (code, stdout) = benchmark(&[&args[..], &["--trace", "1"]].concat());
    assert_eq!(code, Some(0));
    assert_result_lists(&stdout, &listed("per_layer"));
}
