//! `rescue-server` — serve diagnosis sessions over TCP.
//!
//! ```text
//! rescue-server NET.pn [NET2.pn ...] [--addr HOST] [--port P]
//!               [--max-sessions N] [--ingest-capacity N] [--max-facts N]
//!               [--supervisor NAME]
//!               [--trace-out TRACE.json] [--metrics] [--slo KEY=VALUE ...]
//! ```
//!
//! Each `NET.pn` (the `rescue_petri::text` format) is registered under
//! its file stem; the first is the default net for `create` requests that
//! name none. With no net file, the built-in `figure1` net is served —
//! handy for smoke tests. The listening address is printed to stderr
//! (`listening on HOST:PORT`); the process runs until a client sends
//! `{"op":"shutdown"}`, then drains every connection, prints a run
//! summary to stderr, and exits 0.
//!
//! `--trace-out` records the whole run (request spans, manager counters,
//! per-session engine telemetry) as Chrome `trace_event` JSON;
//! `--metrics` prints the flat counter dump to stdout on shutdown (the
//! *live* exposition is served over the wire by the `metrics` verb).
//! `--slo KEY=VALUE` (repeatable: `push_p50_ms`, `push_p99_ms`,
//! `backpressure_max`, `errors_max`) declares service objectives the
//! watchdog evaluates; any of `--trace-out`/`--metrics`/`--slo` turns
//! the collector on.

use rescue_diagnosis::ManagerConfig;
use rescue_petri::{figure1, parse_net, PetriNet};
use rescue_server::{serve, ServerConfig, SloSpec};
use rescue_telemetry::export::{chrome_trace, metrics_text};
use rescue_telemetry::Collector;
use std::net::TcpListener;
use std::process::exit;

struct Options {
    nets: Vec<(String, PetriNet)>,
    addr: String,
    port: u16,
    manager: ManagerConfig,
    trace_out: Option<String>,
    metrics: bool,
    slo: SloSpec,
}

fn usage() -> ! {
    eprintln!(
        "usage: rescue-server [NET.pn ...] [--addr HOST] [--port P] \
         [--max-sessions N] [--ingest-capacity N] [--max-facts N] \
         [--supervisor NAME] [--trace-out FILE] [--metrics] \
         [--slo KEY=VALUE ...]"
    );
    exit(2)
}

fn parse_args() -> Result<Options, String> {
    let mut o = Options {
        nets: Vec::new(),
        addr: "127.0.0.1".to_owned(),
        port: 0,
        manager: ManagerConfig::default(),
        trace_out: None,
        metrics: false,
        slo: SloSpec::default(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--addr" => o.addr = value("--addr")?,
            "--port" => {
                o.port = value("--port")?
                    .parse()
                    .map_err(|e| format!("--port: {e}"))?
            }
            "--max-sessions" => {
                o.manager.max_sessions = value("--max-sessions")?
                    .parse()
                    .map_err(|e| format!("--max-sessions: {e}"))?
            }
            "--ingest-capacity" => {
                o.manager.ingest_capacity = value("--ingest-capacity")?
                    .parse()
                    .map_err(|e| format!("--ingest-capacity: {e}"))?
            }
            "--max-facts" => {
                o.manager.budget.max_facts = value("--max-facts")?
                    .parse()
                    .map_err(|e| format!("--max-facts: {e}"))?
            }
            "--supervisor" => o.manager.supervisor = value("--supervisor")?,
            "--trace-out" => o.trace_out = Some(value("--trace-out")?),
            "--metrics" => o.metrics = true,
            "--slo" => o.slo.apply_flag(&value("--slo")?)?,
            "--help" | "-h" => usage(),
            path if !path.starts_with('-') => {
                let src =
                    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
                let net = parse_net(&src).map_err(|e| format!("parsing {path}: {e}"))?;
                let name = std::path::Path::new(path)
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_else(|| path.to_owned());
                o.nets.push((name, net));
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if o.nets.is_empty() {
        o.nets.push(("figure1".to_owned(), figure1()));
    }
    Ok(o)
}

fn main() {
    let o = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("rescue-server: {e}");
            usage()
        }
    };
    // SLO evaluation reads the collector's latency histograms.
    let collector = if o.trace_out.is_some() || o.metrics || !o.slo.is_empty() {
        Collector::enabled()
    } else {
        Collector::disabled()
    };
    let listener = match TcpListener::bind((o.addr.as_str(), o.port)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("rescue-server: binding {}:{}: {e}", o.addr, o.port);
            exit(1)
        }
    };
    let addr = listener
        .local_addr()
        .expect("bound listener has an address");
    let names: Vec<&str> = o.nets.iter().map(|(n, _)| n.as_str()).collect();
    eprintln!("listening on {addr} (nets: {})", names.join(", "));
    let report = match serve(
        listener,
        ServerConfig {
            manager: o.manager,
            nets: o.nets,
            collector: collector.clone(),
            slo: o.slo,
        },
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("rescue-server: {e}");
            exit(1)
        }
    };
    if let Some(path) = &o.trace_out {
        if let Err(e) = std::fs::write(path, chrome_trace(&collector)) {
            eprintln!("rescue-server: writing {path}: {e}");
            exit(1)
        }
        eprintln!("trace written to {path}");
    }
    if o.metrics {
        print!("{}", metrics_text(&collector));
    }
    let m = &report.manager;
    eprintln!(
        "shutdown: {} connection(s), {} request(s) ({} error replies); \
         sessions created {} / destroyed {} / evicted {} / rejected {} / failed {}; \
         {} alarm(s) accepted, {} backpressure repl(ies)",
        report.connections,
        report.requests,
        report.errors,
        m.created,
        m.destroyed,
        m.evicted,
        m.rejected,
        m.failed,
        m.alarms_accepted,
        m.backpressure_replies,
    );
}
