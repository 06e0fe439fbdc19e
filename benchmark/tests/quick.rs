//! Every workload and the traced run at 1/20 size (`--quick`), through the
//! binary exactly as the driver calls it.

use rescue::telemetry::json::{self, Value};
use std::process::{Command, Output};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rescue-benchmark"))
        .args(args)
        .env_remove("RESCUE_EVAL_THREADS")
        .output()
        .expect("the benchmark binary starts")
}

fn names(section: &str) -> Vec<(String, String)> {
    let spec = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    spec.get(section)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json: {section}"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Run one workload in driver mode; return (stdout, parsed last line).
fn driver(workload: &str, trace: &str, extra: &[&str]) -> (Output, String, Value) {
    let mut args = vec![
        "--workload",
        workload,
        "--seed",
        "11",
        "--seconds",
        "1",
        "--trace",
        trace,
        "--quick",
    ];
    args.extend_from_slice(extra);
    let out = bench(&args);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let last = stdout.trim_end().lines().last().unwrap_or("").to_owned();
    let result = json::parse(&last).unwrap_or_else(|e| {
        panic!(
            "{workload}: last line is not JSON ({e}): {last:?}\nstderr: {}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    (out, stdout, result)
}

/// The result object has exactly the contract's keys, every listed metric
/// with its unit, and no failed op.
fn check_result(workload: &str, result: &Value, metrics: &[(String, String)], nonzero: bool) {
    let keys: Vec<&String> = result.as_object().expect("an object").keys().collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{workload}"
    );
    assert_eq!(
        result.get("failed").and_then(Value::as_number),
        Some(0.0),
        "{workload}: fail_share must be 0"
    );
    assert!(result.get("attempted").and_then(Value::as_number).unwrap() >= 1.0);
    let got = result.get("metrics").and_then(Value::as_object).unwrap();
    assert_eq!(got.len(), metrics.len(), "{workload}: metric set");
    for (name, unit) in metrics {
        let m = got
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: metric {name} missing"));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
        let v = m.get("value").and_then(Value::as_number).unwrap();
        assert!(v.is_finite(), "{workload}: {name} = {v}");
        assert!(!nonzero || v > 0.0, "{workload}: {name} must never be 0");
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    let metrics = names("end_to_end");
    assert!(metrics.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for (workload, _) in names("workloads") {
        let (out, stdout, result) = driver(&workload, "0", &[]);
        assert!(out.status.success(), "{workload}: {stdout}");
        check_result(&workload, &result, &metrics, true);
        for (name, unit) in &metrics {
            assert!(
                stdout.lines().any(
                    |l| l.trim_start().starts_with(name.as_str()) && l.ends_with(unit.as_str())
                ),
                "{workload}: {name} not printed with its unit"
            );
        }
    }
}

/// Each `budget:` block must sum: layers + residual = façade.
fn assert_budgets_close(workload: &str, stdout: &str) {
    let mut budgets = 0;
    let mut sum = 0.0;
    let mut open = false;
    for line in stdout.lines() {
        if line.starts_with("budget:") {
            open = true;
            sum = 0.0;
            continue;
        }
        if !open {
            continue;
        }
        // "  name   value unit   share %"
        let cols: Vec<&str> = line.split_whitespace().collect();
        let value: f64 = cols[cols.len() - 4].parse().expect("a budget value");
        if line.trim_start().starts_with("= facade") {
            assert!(
                (sum - value).abs() <= 1e-3 * value.abs().max(1.0),
                "{workload}: budget does not close: {sum} vs {value}"
            );
            budgets += 1;
            open = false;
        } else {
            sum += value;
        }
    }
    assert!(budgets >= 1, "{workload}: no budget printed");
}

#[test]
fn the_traced_run_fills_every_layer_metric_and_closes_its_budgets() {
    let metrics = names("per_layer");
    for (workload, _) in names("workloads") {
        let (out, stdout, result) = driver(&workload, "1", &[]);
        assert!(out.status.success(), "{workload}: {stdout}");
        check_result(&workload, &result, &metrics, false);
        assert_budgets_close(&workload, &stdout);
        assert!(stdout.contains("bench.trace_overhead_ratio"), "{workload}");
    }
}

#[test]
fn a_wrong_reference_fails_the_op_and_the_command() {
    for workload in ["batch_qsq", "serve_churn"] {
        let (out, _, result) = driver(workload, "0", &["--corrupt-reference"]);
        assert!(!out.status.success(), "{workload} must exit nonzero");
        assert_eq!(result.get("correct"), Some(&Value::Bool(false)));
        assert!(result.get("failed").and_then(Value::as_number).unwrap() >= 1.0);
    }
}

#[test]
fn run_collects_every_workload_and_agree_accepts_a_set_against_itself() {
    let path = format!("{}/run-quick.json", env!("CARGO_TARGET_TMPDIR"));
    let out = bench(&[
        "run",
        "--seed",
        "11",
        "--seconds",
        "1",
        "--quick",
        "--out",
        &path,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let set = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    for (workload, _) in names("workloads") {
        assert!(set.get("workloads").unwrap().get(&workload).is_some());
    }
    assert!(bench(&["agree", &path, &path]).status.success());
}

#[test]
fn refuses_to_run_with_eval_threads_pinned() {
    let out = Command::new(env!("CARGO_BIN_EXE_rescue-benchmark"))
        .args([
            "--workload",
            "batch_qsq",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .env("RESCUE_EVAL_THREADS", "4")
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result may be printed");
}
