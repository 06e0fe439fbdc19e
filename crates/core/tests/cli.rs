//! End-to-end tests of the `dlog` and `diagnose` command-line tools.

use std::io::Write as _;
use std::process::Command;

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("rescue-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(contents.as_bytes()).unwrap();
    path
}

const FIG1_NET: &str = "\
place 1 @p1 marked\n\
place 2 @p1\n\
place 3 @p1\n\
place 4 @p2 marked\n\
place 5 @p2\n\
place 6 @p2\n\
place 7 @p2 marked\n\
trans i   @p1 [b] : 1, 7 -> 2, 3\n\
trans ii  @p2 [a] : 4 -> 5\n\
trans iii @p1 [c] : 2 -> 1\n\
trans iv  @p2 [d] : 5 -> 6\n\
trans v   @p2 [e] : 4 -> 6\n";

#[test]
fn dlog_answers_queries_across_engines() {
    let prog = write_temp(
        "tc.dl",
        "Edge@p(a, b). Edge@p(b, c). Edge@p(c, d).\n\
         Path@p(X, Y) :- Edge@p(X, Y).\n\
         Path@p(X, Y) :- Edge@p(X, Z), Path@p(Z, Y).\n",
    );
    for engine in ["semi", "stratified", "qsq", "magic"] {
        let out = Command::new(env!("CARGO_BIN_EXE_dlog"))
            .args([
                prog.to_str().unwrap(),
                "--query",
                "Path@p(a, Y)",
                "--engine",
                engine,
            ])
            .output()
            .expect("dlog runs");
        assert!(out.status.success(), "engine {engine} failed");
        let stdout = String::from_utf8(out.stdout).unwrap();
        let mut lines: Vec<&str> = stdout.lines().collect();
        lines.sort();
        assert_eq!(lines, vec!["a, b", "a, c", "a, d"], "engine {engine}");
    }
    // There is no naive engine: the one bottom-up mode is semi-naive.
    let out = Command::new(env!("CARGO_BIN_EXE_dlog"))
        .args([prog.to_str().unwrap(), "--query", "Path@p(a, Y)"])
        .args(["--engine", "naive"])
        .output()
        .expect("dlog runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("unknown engine naive: the engines are semi, stratified, qsq and magic"),
        "{stderr}"
    );
}

#[test]
fn dlog_explains_derivations() {
    let prog = write_temp(
        "tc2.dl",
        "Edge@p(a, b). Edge@p(b, c).\n\
         Path@p(X, Y) :- Edge@p(X, Y).\n\
         Path@p(X, Y) :- Edge@p(X, Z), Path@p(Z, Y).\n",
    );
    let out = Command::new(env!("CARGO_BIN_EXE_dlog"))
        .args([
            prog.to_str().unwrap(),
            "--query",
            "Path@p(a, c)",
            "--engine",
            "semi",
            "--explain",
        ])
        .output()
        .expect("dlog runs");
    assert!(out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("derivation of the first answer"));
    assert!(stderr.contains("Edge@p(a, b)"));
}

#[test]
fn dlog_rejects_bad_input() {
    let prog = write_temp("bad.dl", "R@p(X) :- .");
    let out = Command::new(env!("CARGO_BIN_EXE_dlog"))
        .args([prog.to_str().unwrap(), "--query", "R@p(X)"])
        .output()
        .expect("dlog runs");
    // `R@p(X) :- .` parses as a bodiless rule with a head variable —
    // validation must reject it.
    assert!(!out.status.success());
}

#[test]
fn diagnose_reproduces_the_running_example() {
    let net = write_temp("fig1.pn", FIG1_NET);
    let out = Command::new(env!("CARGO_BIN_EXE_diagnose"))
        .args([
            net.to_str().unwrap(),
            "--alarms",
            "b@p1 a@p2 c@p1",
            "--engine",
            "qsq",
        ])
        .output()
        .expect("diagnose runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("1 explanation(s):"));
    assert!(stdout.contains("f(i, g(r, 1), g(r, 7))"));

    // The infeasible ordering.
    let out = Command::new(env!("CARGO_BIN_EXE_diagnose"))
        .args([
            net.to_str().unwrap(),
            "--alarms",
            "c@p1 b@p1 a@p2",
            "--engine",
            "baseline",
        ])
        .output()
        .expect("diagnose runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("no explanation"));
}

#[test]
fn diagnose_hidden_mode_and_dot_output() {
    let net = write_temp("fig1b.pn", FIG1_NET);
    let dot = std::env::temp_dir().join("rescue-cli-tests/out.dot");
    let out = Command::new(env!("CARGO_BIN_EXE_diagnose"))
        .args([
            net.to_str().unwrap(),
            "--alarms",
            "b@p1 c@p1",
            "--hidden",
            "a",
            "--fuel",
            "1",
            "--dot",
            dot.to_str().unwrap(),
        ])
        .output()
        .expect("diagnose runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("2 explanation(s):"));
    let dot_src = std::fs::read_to_string(&dot).unwrap();
    assert!(dot_src.starts_with("digraph unfolding"));
}

#[test]
fn diagnose_follow_accepts_hidden_transitions() {
    // Regression: `--follow --hidden` used to be rejected outright. The
    // streaming mode now re-derives the §4.4 extended program per alarm,
    // so the per-alarm updates match the batch hidden-mode answers.
    use std::process::Stdio;
    let net = write_temp("fig1e.pn", FIG1_NET);
    let mut child = Command::new(env!("CARGO_BIN_EXE_diagnose"))
        .args([
            net.to_str().unwrap(),
            "--follow",
            "--hidden",
            "a",
            "--fuel",
            "1",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("diagnose spawns");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"b@p1\n# a comment line\n\nc@p1\n")
        .unwrap();
    let out = child.wait_with_output().expect("diagnose runs");
    assert!(out.status.success(), "stderr: {:?}", out.stderr);
    let stdout = String::from_utf8(out.stdout).unwrap();
    // After `b` alone, hidden `a` may or may not have fired: {i} and
    // {ii, i} both explain the observation. After `b c` the batch hidden
    // run (see diagnose_hidden_mode_and_dot_output) finds 2 explanations.
    assert!(stdout.contains("[1] b@p1 -> 2 explanation(s)"), "{stdout}");
    assert!(stdout.contains("[2] c@p1 -> 2 explanation(s)"), "{stdout}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("2 alarm(s), hidden {a}, fuel 1"),
        "{stderr}"
    );
}

#[test]
fn diagnose_metrics_jsonl_streams_tagged_points_in_follow_mode() {
    use rescue::telemetry::json::{parse, Value};
    use std::process::Stdio;
    let net = write_temp("fig1j.pn", FIG1_NET);
    let series = write_temp("fig1j.jsonl", "");
    let mut child = Command::new(env!("CARGO_BIN_EXE_diagnose"))
        .args([
            net.to_str().unwrap(),
            "--follow",
            "--metrics-jsonl",
            series.to_str().unwrap(),
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("diagnose spawns");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"b@p1\na@p2\nc@p1\n")
        .unwrap();
    let out = child.wait_with_output().expect("diagnose runs");
    assert!(out.status.success(), "stderr: {:?}", out.stderr);
    let text = std::fs::read_to_string(&series).unwrap();
    let points: Vec<Value> = text
        .lines()
        .map(|l| parse(l).unwrap_or_else(|e| panic!("{e}: {l}")))
        .collect();
    assert!(!points.is_empty(), "no series points written");
    for (i, p) in points.iter().enumerate() {
        assert_eq!(
            p.get("schema").and_then(Value::as_str),
            Some("rescue-series-v1")
        );
        assert_eq!(p.get("seq").and_then(Value::as_number), Some(i as f64));
    }
    // Follow mode pushes each input line through the session manager as a
    // batch of one alarm, so every absorbed alarm leaves one `batch` point
    // (the rest are the fixpoint's `round` points).
    let label = |p: &Value| p.get("label").and_then(Value::as_str).unwrap().to_owned();
    let per_alarm = points.iter().filter(|p| label(p) == "batch").count();
    assert_eq!(per_alarm, 3, "{text}");
    assert!(points
        .iter()
        .all(|p| ["round", "batch"].contains(&label(p).as_str())));
}

#[test]
fn diagnose_peer_stats_prints_dashboard_and_merged_trace() {
    let net = write_temp("fig1c.pn", FIG1_NET);
    let trace = std::env::temp_dir().join("rescue-cli-tests/merged.json");
    let out = Command::new(env!("CARGO_BIN_EXE_diagnose"))
        .args([
            net.to_str().unwrap(),
            "--alarms",
            "b@p1 a@p2 c@p1",
            "--peer-stats",
            "--trace-out",
            trace.to_str().unwrap(),
        ])
        .output()
        .expect("diagnose runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    // One dashboard row per peer: p1, p2 and the supervisor.
    assert!(stdout.contains("peer"), "dashboard header:\n{stdout}");
    for peer in ["p1", "p2", "supervisor"] {
        assert!(stdout.contains(peer), "row for {peer}:\n{stdout}");
    }
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("merged:"), "merged trace note:\n{stderr}");
    // The written file is the merged multi-process trace.
    let json = std::fs::read_to_string(&trace).unwrap();
    let summary = rescue::telemetry::json::validate_trace(&json).unwrap();
    assert_eq!(summary.processes, 3);
    assert_eq!(summary.unmatched_sends, 0);
    assert!(summary.flow_sends > 0);
}

#[test]
fn diagnose_peer_stats_rejects_other_engines() {
    let net = write_temp("fig1d.pn", FIG1_NET);
    let out = Command::new(env!("CARGO_BIN_EXE_diagnose"))
        .args([
            net.to_str().unwrap(),
            "--alarms",
            "b@p1",
            "--engine",
            "qsq",
            "--peer-stats",
        ])
        .output()
        .expect("diagnose runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--peer-stats needs --engine dqsq"));
}
