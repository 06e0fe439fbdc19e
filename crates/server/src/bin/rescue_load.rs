//! `rescue-load` — drive a running `rescue-server` with many concurrent
//! sessions and report client-side latency/throughput.
//!
//! ```text
//! rescue-load ADDR [NET.pn] [--sessions N] [--alarms N] [--batch N]
//!             [--connections N] [--seed N] [--net NAME]
//!             [--no-verify] [--detach-reattach] [--shutdown]
//!             [--json-out FILE] [--trace-out FILE]
//! ```
//!
//! `ADDR` is the `HOST:PORT` the server printed. `NET.pn` must be the
//! same net the server serves (used to sample alarm sequences and verify
//! final diagnoses); without it the built-in `figure1` net is assumed.
//! Verification is on by default: every session's final diagnosis is
//! compared byte-for-byte against a local single-session batch run, and
//! any mismatch makes the exit status nonzero. `--shutdown` sends the
//! shutdown verb after the run (used by the CI smoke job that owns the
//! server process).
//!
//! `--trace-out FILE` records client-side spans and stamps every request
//! with a trace context (`"flow"`/`"lamport"`); merge the written file
//! with a server `--trace-out` via `merge_traces` and the timeline shows
//! each client send flow-paired with the server-side handling span.

use rescue_petri::parse_net;
use rescue_server::{run_load, LoadReport, LoadSpec};
use rescue_telemetry::export::chrome_trace;
use rescue_telemetry::json::Obj;
use rescue_telemetry::{Collector, DEFAULT_EVENT_CAPACITY};
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: rescue-load ADDR [NET.pn] [--sessions N] [--alarms N] [--batch N] \
         [--connections N] [--seed N] [--net NAME] [--no-verify] \
         [--detach-reattach] [--shutdown] [--json-out FILE] [--trace-out FILE]"
    );
    exit(2)
}

fn parse_args() -> Result<(String, LoadSpec, Option<String>, Option<String>), String> {
    let mut spec = LoadSpec::default();
    let mut addr = None;
    let mut json_out = None;
    let mut trace_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--sessions" => {
                spec.sessions = value("--sessions")?
                    .parse()
                    .map_err(|e| format!("--sessions: {e}"))?
            }
            "--alarms" => {
                spec.alarms_per_session = value("--alarms")?
                    .parse()
                    .map_err(|e| format!("--alarms: {e}"))?
            }
            "--batch" => {
                spec.batch = value("--batch")?
                    .parse()
                    .map_err(|e| format!("--batch: {e}"))?
            }
            "--connections" => {
                spec.connections = value("--connections")?
                    .parse()
                    .map_err(|e| format!("--connections: {e}"))?
            }
            "--seed" => {
                spec.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--net" => spec.net_name = Some(value("--net")?),
            "--no-verify" => spec.verify = false,
            "--detach-reattach" => spec.detach_reattach = true,
            "--shutdown" => spec.shutdown = true,
            "--json-out" => json_out = Some(value("--json-out")?),
            "--trace-out" => trace_out = Some(value("--trace-out")?),
            "--help" | "-h" => usage(),
            pos if !pos.starts_with('-') => {
                if addr.is_none() {
                    addr = Some(pos.to_owned());
                } else {
                    let src =
                        std::fs::read_to_string(pos).map_err(|e| format!("reading {pos}: {e}"))?;
                    spec.net = parse_net(&src).map_err(|e| format!("parsing {pos}: {e}"))?;
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if trace_out.is_some() {
        // Namespace 1 keeps client flow ids disjoint from a tracing
        // server's (which allocates in its own namespace).
        spec.collector = Collector::with_namespace(DEFAULT_EVENT_CAPACITY, 1);
    }
    Ok((
        addr.ok_or("missing server ADDR")?,
        spec,
        json_out,
        trace_out,
    ))
}

fn report_json(r: &LoadReport) -> String {
    Obj::new()
        .num("sessions", r.sessions as u64)
        .num("pushes", r.pushes)
        .num("alarms", r.alarms)
        .num("p50_us", r.p50_us)
        .num("p99_us", r.p99_us)
        .num("max_us", r.max_us)
        .fixed("wall_s", r.wall_s, 3)
        .fixed("sessions_per_sec", r.sessions_per_sec, 1)
        .fixed("pushes_per_sec", r.pushes_per_sec, 1)
        .num("backpressure_replies", r.backpressure_replies)
        .num("rejected_sessions", r.rejected_sessions)
        .num("failed_sessions", r.failed_sessions)
        .num("mismatches", r.mismatches)
        .finish()
}

fn main() {
    let (addr, spec, json_out, trace_out) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("rescue-load: {e}");
            usage()
        }
    };
    let verify = spec.verify;
    let collector = spec.collector.clone();
    let r = match run_load(&addr, spec) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("rescue-load: {e}");
            exit(1)
        }
    };
    println!(
        "{} session(s) in {:.3}s ({:.1} sessions/s, {:.1} pushes/s)",
        r.sessions, r.wall_s, r.sessions_per_sec, r.pushes_per_sec
    );
    println!(
        "push latency p50 {}us  p99 {}us  max {}us  ({} pushes, {} alarms accepted)",
        r.p50_us, r.p99_us, r.max_us, r.pushes, r.alarms
    );
    println!(
        "backpressure {}  rejected {}  failed {}  mismatches {}",
        r.backpressure_replies, r.rejected_sessions, r.failed_sessions, r.mismatches
    );
    if verify {
        println!(
            "verify: {}",
            if r.mismatches == 0 {
                "every final diagnosis matched the local batch run"
            } else {
                "DIVERGED from the local batch run"
            }
        );
    }
    if let Some(path) = json_out {
        if let Err(e) = std::fs::write(&path, report_json(&r) + "\n") {
            eprintln!("rescue-load: writing {path}: {e}");
            exit(1)
        }
    }
    if let Some(path) = trace_out {
        if let Err(e) = std::fs::write(&path, chrome_trace(&collector)) {
            eprintln!("rescue-load: writing {path}: {e}");
            exit(1)
        }
        eprintln!("client trace written to {path}");
    }
    if r.mismatches > 0 {
        exit(1)
    }
}
