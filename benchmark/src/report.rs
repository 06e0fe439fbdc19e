//! Results in and out: the driver's one-line JSON, the `run`/`trace`
//! result sets, and `agree`. Metric names, units and bounds are read from
//! `BENCHMARK.json`; what that file's fixed schema has no room for (which
//! counts are exact, the pinned input fingerprints) from `spec.json`.

use crate::bench::{self, Args, WORKLOADS};
use crate::Flags;
use rescue::telemetry::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
const SPEC_JSON: &str = include_str!("../spec.json");

pub struct MetricDef {
    pub name: String,
    pub unit: String,
    /// End-to-end metrics only.
    pub bound: Option<f64>,
}

pub struct Spec {
    pub run_seconds: f64,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
    /// Per-layer counts that must repeat exactly.
    pub exact: Vec<String>,
    pub pinned_seed: u64,
    /// workload → `petri.inputs_fingerprint` at the pinned seed.
    pub pinned: BTreeMap<String, u64>,
}

fn metric_defs(v: &Value, key: &str) -> Vec<MetricDef> {
    v.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|d| {
            let field = |k: &str| {
                d.get(k)
                    .and_then(Value::as_str)
                    .unwrap_or_else(|| panic!("BENCHMARK.json {key}: missing {k}"))
                    .to_owned()
            };
            MetricDef {
                name: field("name"),
                unit: field("unit"),
                bound: d.get("bound").and_then(Value::as_number),
            }
        })
        .collect()
}

pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| {
        let b = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
        let s = json::parse(SPEC_JSON).expect("spec.json is valid JSON");
        let pins = s.get("pinned_inputs").expect("spec.json: pinned_inputs");
        Spec {
            run_seconds: b
                .get("run_seconds")
                .and_then(Value::as_number)
                .expect("BENCHMARK.json: run_seconds"),
            end_to_end: metric_defs(&b, "end_to_end"),
            per_layer: metric_defs(&b, "per_layer"),
            exact: s
                .get("exact")
                .and_then(Value::as_array)
                .expect("spec.json: exact")
                .iter()
                .map(|v| v.as_str().expect("exact names are strings").to_owned())
                .collect(),
            pinned_seed: pins
                .get("seed")
                .and_then(Value::as_number)
                .expect("spec.json: pinned_inputs.seed") as u64,
            pinned: pins
                .get("fingerprints")
                .and_then(Value::as_object)
                .expect("spec.json: pinned_inputs.fingerprints")
                .iter()
                .map(|(k, v)| (k.clone(), v.as_number().expect("a fingerprint") as u64))
                .collect(),
        }
    })
}

/// The metrics of one run in `BENCHMARK.json`'s order, with its units.
fn ordered<'a>(
    defs: &'a [MetricDef],
    measured: &BTreeMap<String, f64>,
    require_all: bool,
) -> Result<Vec<(&'a MetricDef, f64)>, String> {
    if let Some(stray) = measured
        .keys()
        .find(|k| !defs.iter().any(|d| d.name == **k))
    {
        return Err(format!("metric {stray} is not listed in BENCHMARK.json"));
    }
    defs.iter()
        .map(|d| match measured.get(&d.name) {
            Some(v) if v.is_finite() => Ok((d, *v)),
            Some(v) => Err(format!("metric {} is {v}", d.name)),
            None if require_all => Err(format!("metric {} was not measured", d.name)),
            // A layer this workload never enters did no work.
            None => Ok((d, 0.0)),
        })
        .collect()
}

fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&MetricDef, f64)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (d, v)) in metrics.iter().enumerate() {
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            if i > 0 { ", " } else { "" },
            d.name,
            d.unit
        );
    }
    out.push_str("}}");
    out
}

/// Driver mode: run one workload in this process, print every metric by
/// name with its unit, and the result object as the last line of stdout.
pub fn one_workload(args: &Args) -> Result<bool, String> {
    let spec = spec();
    println!(
        "workload {} seed {} seconds {} trace {} eval_threads {} (RESCUE_EVAL_THREADS unset)",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        crate::layers::eval_threads(),
    );
    let outcome = bench::run(args)?;
    println!("petri.inputs_fingerprint {}", outcome.fingerprint);
    if args.seed == spec.pinned_seed && !args.quick && !args.corrupt {
        let want = spec.pinned.get(&args.workload).copied();
        if want != Some(outcome.fingerprint) {
            eprintln!(
                "INPUTS CHANGED: {} at seed {} fingerprints to {}, spec.json pins {:?}. \
                 The generator or the instance class moved; earlier results no longer compare.",
                args.workload, args.seed, outcome.fingerprint, want
            );
            return Ok(false);
        }
    }
    let defs = if args.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let metrics = ordered(defs, &outcome.metrics, !args.trace)?;
    for (d, v) in &metrics {
        // A layer the workload never enters reads 0; leave it to the JSON.
        if *v != 0.0 {
            println!("  {:<34} {v:>18.4} {}", d.name, d.unit);
        }
    }
    let correct = outcome.failed == 0;
    println!(
        "fail_share {} ({} failed / {} attempted)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    println!(
        "{}",
        result_json(correct, outcome.attempted.max(1), outcome.failed, &metrics)
    );
    Ok(correct)
}

/// `run` / `trace`: one child process per workload (so `peak_rss_mb` is
/// per workload), its report echoed, the results collected into one file.
pub fn all_workloads(trace: bool, f: &Flags) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_correct = true;
    let mut set = format!(
        "{{\"seed\": {}, \"seconds\": {}, \"trace\": {trace}, \"workloads\": {{\n",
        f.run.seed, f.run.seconds
    );
    for (i, w) in WORKLOADS.iter().map(|d| d.name).enumerate() {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", w, "--seed", &f.run.seed.to_string()])
            .args(["--seconds", &f.run.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }]);
        if f.run.quick {
            cmd.arg("--quick");
        }
        if f.run.corrupt {
            cmd.arg("--corrupt-reference");
        }
        let out = cmd.output().map_err(|e| format!("spawn {w}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let (report, result) = stdout
            .trim_end()
            .rsplit_once('\n')
            .unwrap_or(("", stdout.trim_end()));
        println!("{report}");
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        if json::parse(result).is_err() {
            return Err(format!("{w} printed no result (exit {})", out.status));
        }
        all_correct &= out.status.success();
        let _ = writeln!(
            set,
            "\"{w}\": {result}{}",
            if i + 1 < WORKLOADS.len() { "," } else { "" }
        );
    }
    set.push_str("}}\n");
    let default = format!(
        "{}/out/{}-seed{}.json",
        env!("CARGO_MANIFEST_DIR"),
        if trace { "trace" } else { "run" },
        f.run.seed
    );
    let path = f.out.as_deref().unwrap_or(&default);
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, set).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "result set written to {path}; {}",
        if all_correct {
            "every output correct"
        } else {
            "SOME OUTPUT WAS WRONG"
        }
    );
    Ok(all_correct)
}

fn load_set(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn metric_value(set: &Value, workload: &str, metric: &str) -> Option<f64> {
    set.get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_number()
}

/// Two result sets of the same code must agree: every end-to-end metric
/// within its bound in both directions, every exact count identical.
pub fn agree(a_path: &str, b_path: &str) -> Result<bool, String> {
    let spec = spec();
    let a = load_set(a_path)?;
    let b = load_set(b_path)?;
    let mut ok = true;
    let mut compared = 0;
    for w in WORKLOADS.map(|d| d.name) {
        for d in &spec.end_to_end {
            let (Some(x), Some(y)) = (metric_value(&a, w, &d.name), metric_value(&b, w, &d.name))
            else {
                continue;
            };
            compared += 1;
            let bound = d.bound.expect("end-to-end metrics carry a bound");
            let apart = (x - y).abs() / x.min(y);
            let within = apart <= bound;
            ok &= within;
            println!(
                "{w:<15} {:<12} {x:>12.4} {y:>12.4} {:<5} apart {:>5.1} % (bound {:.0} %) {}",
                d.name,
                d.unit,
                100.0 * apart,
                100.0 * bound,
                if within { "ok" } else { "DISAGREE" }
            );
        }
        for name in &spec.exact {
            let (Some(x), Some(y)) = (metric_value(&a, w, name), metric_value(&b, w, name)) else {
                continue;
            };
            compared += 1;
            if x != y {
                ok = false;
                println!("{w:<15} {name:<32} {x} != {y} EXACT COUNT DIFFERS");
            }
        }
    }
    if compared == 0 {
        return Err("the two files share no metric".to_owned());
    }
    println!(
        "{compared} values compared: {}",
        if ok {
            "the sets agree"
        } else {
            "the sets DISAGREE"
        }
    );
    Ok(ok)
}
