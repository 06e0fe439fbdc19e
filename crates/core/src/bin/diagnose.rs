//! `diagnose` — the supervisor as a command-line tool.
//!
//! ```text
//! diagnose NET.pn --alarms 'b@p1 a@p2 c@p1' [--engine oracle|baseline|bottomup|qsq|magic|dqsq]
//!          [--hidden sym1,sym2 --fuel N] [--dot OUT.dot]
//!          [--trace-out TRACE.json] [--metrics] [--peer-stats] [--quiet]
//! diagnose NET.pn --follow [--hidden sym1,sym2 --fuel N]
//! ```
//!
//! `NET.pn` uses the `rescue::petri::text` format (see
//! `examples/visualize.rs` for a sample). Alarms are `symbol@peer` tokens
//! in observation order. With `--hidden`, the §4.4 extension is used
//! (hidden symbols may occur unobserved, up to `--fuel` total events).
//! With `--dot`, the first explanation is rendered into a Graphviz file.
//!
//! With `--follow`, the supervisor runs *online*: alarms are read
//! line-by-line from stdin (one or more `symbol@peer` tokens per line;
//! blank lines and `#` comments are skipped) and the explanation set of
//! everything observed so far is printed after each alarm. The engine is
//! the incremental [`rescue::DiagnosisSession`] — each alarm resumes the
//! supervisor's fixpoint instead of recomputing it. `--alarms`, if also
//! given, is replayed before stdin is consulted.
//!
//! `--follow` composes with `--hidden`: the explanation set is still
//! reprinted after every alarm, but each update re-derives the §4.4
//! extended program for the whole sequence observed so far. The
//! extension's observation automata are built from the complete sequence,
//! so hidden-mode updates cannot resume the incremental session's
//! alarm-independent fixpoint — streaming stays correct, each update just
//! costs a batch evaluation instead of a delta join.
//!
//! `--trace-out FILE` records the run — fixpoint strata/rules, per-peer
//! message flow, per-alarm sessions — as Chrome `trace_event` JSON,
//! loadable in Perfetto or `chrome://tracing`. `--metrics` prints the
//! flat counter/histogram dump of the same recording to stdout.
//! `--quiet` suppresses the explanation listing (useful with either).
//!
//! `--peer-stats` (dQSQ engine only) gives every peer its own collector
//! and prints the per-peer dashboard after the run: facts owned/cached,
//! messages and bytes each way, queue-depth percentiles, busy vs idle
//! wall time. Combined with `--trace-out`, the file holds the *merged*
//! multi-process trace — the per-peer recordings aligned on the Lamport
//! clocks their messages carry, one Perfetto process row per peer.
//!
//! Continuous-profiling surfaces:
//!
//! * `--profile-out FILE` writes the run's per-rule hot-spot attribution
//!   as folded stacks (`stratum;rule;variant wall_us` lines, one frame
//!   per line — feed to any flamegraph renderer) and prints the top-5
//!   table to stderr. Exact even when the event ring overflows: the
//!   attribution rides the engine's merge phase, not the trace.
//! * `--metrics-jsonl FILE` attaches a time-series sampler to the run and
//!   writes one JSON line per sample point (per fixpoint round, and per
//!   absorbed alarm with `--follow` — where lines stream out as alarms
//!   arrive, so the file tails cleanly while the session runs).
//! * `--flight-out FILE` arms the flight recorder: if the run dies — a
//!   panic or an evaluation error such as an exhausted fact budget — the
//!   last trace events, the metrics snapshot, and the partial profile are
//!   written to `FILE` as one self-contained postmortem document
//!   (schema `rescue-flight-v1`, checkable with `validate_trace`).
//!   Nothing is written when the run succeeds.
//! * `--max-facts N` caps the evaluation's fact budget (default: the
//!   engine's 10M). Mostly a test/CI knob: a cap the workload blows
//!   through is the deterministic way to exercise the flight recorder.

use rescue::diagnosis::{
    complete_with_empty, extended_program, AlarmSeq, ExtendedSpec, ManagerConfig, ManagerError,
    SessionManager,
};
use rescue::petri::{events_by_terms, parse_net, unfolding_to_dot, UnfoldLimits, Unfolding};
use rescue::telemetry::export::{chrome_trace, metrics_text};
use rescue::{Alarm, Collector, Diagnoser, Engine};
use std::io::BufRead;
use std::process::ExitCode;

const USAGE: &str = "usage: diagnose NET.pn --alarms 'b@p1 a@p2' \
[--engine oracle|baseline|bottomup|qsq|magic|dqsq] [--hidden s1,s2 --fuel N] \
[--dot OUT.dot] [--trace-out TRACE.json] [--metrics] [--peer-stats] [--quiet] \
[--profile-out STACKS.txt] [--metrics-jsonl SERIES.jsonl] [--flight-out DUMP.json] \
[--max-facts N]\n\
       diagnose NET.pn --follow [--hidden s1,s2 --fuel N]   (alarms stream in on stdin, one per line)";

struct Options {
    net_path: String,
    alarms: String,
    engine: String,
    hidden: Vec<String>,
    fuel: usize,
    dot: Option<String>,
    follow: bool,
    trace_out: Option<String>,
    metrics: bool,
    peer_stats: bool,
    quiet: bool,
    profile_out: Option<String>,
    metrics_jsonl: Option<String>,
    flight_out: Option<String>,
    max_facts: Option<usize>,
}

impl Options {
    /// The evaluation budget the options ask for (`--max-facts`, else the
    /// engine default).
    fn budget(&self) -> rescue::datalog::EvalBudget {
        match self.max_facts {
            Some(n) => rescue::datalog::EvalBudget {
                max_facts: n,
                ..Default::default()
            },
            None => Default::default(),
        }
    }
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let mut o = Options {
        net_path: String::new(),
        alarms: String::new(),
        engine: "dqsq".to_owned(),
        hidden: Vec::new(),
        fuel: 0,
        dot: None,
        follow: false,
        trace_out: None,
        metrics: false,
        peer_stats: false,
        quiet: false,
        profile_out: None,
        metrics_jsonl: None,
        flight_out: None,
        max_facts: None,
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--alarms" => o.alarms = args.next().ok_or("--alarms needs a value")?,
            "--follow" => o.follow = true,
            "--engine" => o.engine = args.next().ok_or("--engine needs a value")?,
            "--hidden" => {
                o.hidden = args
                    .next()
                    .ok_or("--hidden needs a value")?
                    .split(',')
                    .map(|s| s.trim().to_owned())
                    .collect()
            }
            "--fuel" => {
                o.fuel = args
                    .next()
                    .ok_or("--fuel needs a value")?
                    .parse()
                    .map_err(|e| format!("--fuel: {e}"))?
            }
            "--dot" => o.dot = Some(args.next().ok_or("--dot needs a value")?),
            "--trace-out" => o.trace_out = Some(args.next().ok_or("--trace-out needs a value")?),
            "--profile-out" => {
                o.profile_out = Some(args.next().ok_or("--profile-out needs a value")?)
            }
            "--metrics-jsonl" => {
                o.metrics_jsonl = Some(args.next().ok_or("--metrics-jsonl needs a value")?)
            }
            "--flight-out" => o.flight_out = Some(args.next().ok_or("--flight-out needs a value")?),
            "--max-facts" => {
                o.max_facts = Some(
                    args.next()
                        .ok_or("--max-facts needs a value")?
                        .parse()
                        .map_err(|e| format!("--max-facts: {e}"))?,
                )
            }
            "--metrics" => o.metrics = true,
            "--peer-stats" => o.peer_stats = true,
            "--quiet" => o.quiet = true,
            "--help" | "-h" => return Err(USAGE.to_owned()),
            path if !path.starts_with('-') && o.net_path.is_empty() => o.net_path = path.to_owned(),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if o.net_path.is_empty() || (o.alarms.is_empty() && !o.follow) {
        return Err(USAGE.to_owned());
    }
    if o.peer_stats && (o.follow || !o.hidden.is_empty()) {
        return Err("--peer-stats needs a plain batch run (dqsq engine)".to_owned());
    }
    if o.peer_stats && o.engine != "dqsq" {
        return Err(format!(
            "--peer-stats needs --engine dqsq, not {}",
            o.engine
        ));
    }
    Ok(o)
}

fn parse_alarms(src: &str) -> Result<AlarmSeq, String> {
    let mut pairs = Vec::new();
    for tok in src.split_whitespace() {
        let (sym, peer) = tok
            .split_once('@')
            .ok_or_else(|| format!("alarm {tok} must be symbol@peer"))?;
        pairs.push((sym.to_owned(), peer.to_owned()));
    }
    Ok(AlarmSeq::from_pairs(
        &pairs
            .iter()
            .map(|(a, p)| (a.as_str(), p.as_str()))
            .collect::<Vec<_>>(),
    ))
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Print one streaming update: the alarm just absorbed and the current
/// explanation set, one configuration per line.
fn print_follow_update(n: usize, alarm: &Alarm, diagnosis: &rescue::Diagnosis) {
    println!(
        "[{n}] {}@{} -> {} explanation(s)",
        alarm.symbol,
        alarm.peer,
        diagnosis.len()
    );
    for config in &diagnosis.configurations {
        println!("    {{{}}}", config.join(", "));
    }
}

/// One summary line per alarm off the collector: latency of the resume,
/// database growth, messages exchanged (zero for the local session).
fn print_follow_summary(collector: &Collector, prev: &mut rescue::telemetry::MetricsSnapshot) {
    let now = collector.snapshot();
    println!(
        "    {} us, +{} fact(s), {} message(s)",
        // The manager ingests every push as a (singleton) batch.
        now.histogram("session.batch_latency_us").last,
        now.counter("session.facts_delta") - prev.counter("session.facts_delta"),
        now.counter("net.messages") - prev.counter("net.messages"),
    );
    *prev = now;
}

/// One §4.4 hidden-transition evaluation: build the extended program for
/// `alarms` + `hidden` and saturate it from scratch.
fn diagnose_hidden(
    net: &rescue::PetriNet,
    alarms: &AlarmSeq,
    o: &Options,
    collector: &Collector,
) -> Result<rescue::Diagnosis, String> {
    use rescue::datalog::{seminaive_opts, Database, EvalBudget, EvalOptions, TermStore};
    let hidden: Vec<&str> = o.hidden.iter().map(String::as_str).collect();
    let spec = ExtendedSpec::from_sequence(alarms).with_hidden(&hidden, o.fuel.max(1));
    let mut store = TermStore::new();
    let ep = extended_program(net, &spec, "supervisor0", &mut store);
    let mut db = Database::new();
    let budget = EvalBudget {
        max_term_depth: Some(2 * (spec.max_events as u32 + 1) + 2),
        ..o.budget()
    };
    let options = EvalOptions {
        collector: collector.clone(),
        ..Default::default()
    };
    seminaive_opts(&ep.program, &mut store, &mut db, &budget, &options)
        .map_err(|e| e.to_string())?;
    Ok(complete_with_empty(
        rescue::diagnosis::extract_from_db(&db, &store, &ep.query),
        &spec,
    ))
}

/// The online hidden-transition mode: same input protocol as
/// [`run_follow`], but every alarm re-derives the §4.4 extended program
/// for the sequence so far (see the module docs for why the incremental
/// session cannot absorb hidden transitions).
fn run_follow_hidden(
    net: &rescue::PetriNet,
    initial: &AlarmSeq,
    o: &Options,
    collector: &Collector,
) -> Result<(), String> {
    let mut seen: Vec<Alarm> = Vec::new();
    let absorb = |seen: &mut Vec<Alarm>, a: Alarm| -> Result<(), String> {
        seen.push(a);
        let seq = AlarmSeq::new(seen.clone());
        let d = diagnose_hidden(net, &seq, o, collector)?;
        print_follow_update(seen.len(), seen.last().expect("just pushed"), &d);
        Ok(())
    };
    for a in &initial.alarms {
        absorb(&mut seen, a.clone())?;
    }
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| format!("reading stdin: {e}"))?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        for a in parse_alarms(line)?.alarms {
            absorb(&mut seen, a)?;
        }
    }
    eprintln!(
        "{} alarm(s), hidden {{{}}}, fuel {} (batch re-evaluation per alarm)",
        seen.len(),
        o.hidden.join(", "),
        o.fuel.max(1)
    );
    Ok(())
}

/// Append every buffered series point to `path` as JSON lines. Called
/// after each absorbed alarm in `--follow` (so the file tails cleanly
/// while the session runs) and once at the end of a batch run.
fn stream_series(collector: &Collector, path: &str) -> Result<(), String> {
    use std::io::Write as _;
    let points = collector.drain_series();
    if points.is_empty() {
        return Ok(());
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("opening {path}: {e}"))?;
    for p in &points {
        writeln!(f, "{}", p.to_json_line()).map_err(|e| format!("writing {path}: {e}"))?;
    }
    Ok(())
}

/// A `--follow` failure off the manager. A blown budget
/// ([`ManagerError::SessionFailed`]) always leaves a postmortem: the
/// manager-captured flight dump is written to `--flight-out` (or
/// `rescue-flight.json` when the flag was not given) and the path is
/// printed to stderr, before the error surfaces as a nonzero exit.
fn follow_failure(o: &Options, e: ManagerError) -> String {
    if let ManagerError::SessionFailed { flight, .. } = &e {
        let path = o
            .flight_out
            .clone()
            .unwrap_or_else(|| "rescue-flight.json".to_owned());
        match std::fs::write(&path, flight) {
            Ok(()) => eprintln!("wrote flight dump {path}"),
            Err(w) => eprintln!("writing flight dump {path}: {w}"),
        }
    }
    e.to_string()
}

/// The online mode: replay `--alarms` (if any), then absorb stdin
/// line-by-line, re-printing the diagnosis after every alarm.
///
/// The session lives in a [`SessionManager`] — the *same* lifecycle code
/// the multi-tenant `rescue-server` hosts thousands of sessions with —
/// so budget handling, flight capture and accounting cannot drift
/// between the CLI and the service. `--follow` is simply the
/// single-tenant, stdin-transport client of that manager.
fn run_follow(
    net: rescue::PetriNet,
    initial: &AlarmSeq,
    o: &Options,
    collector: &Collector,
) -> Result<(), String> {
    let mut mgr = SessionManager::new(ManagerConfig {
        max_sessions: 1,
        budget: o.budget(),
        ..ManagerConfig::default()
    });
    mgr.set_collector(collector.clone());
    mgr.register_net(&o.net_path, net);
    let id = mgr.create(None, None).map_err(|e| follow_failure(o, e))?;
    let mut prev = collector.is_enabled().then(|| collector.snapshot());
    let mut n = 0usize;
    let absorb = |mgr: &mut SessionManager,
                  n: &mut usize,
                  prev: &mut Option<rescue::telemetry::MetricsSnapshot>,
                  a: &Alarm|
     -> Result<(), String> {
        *n += 1;
        let reply = mgr
            .push(&id, std::slice::from_ref(a))
            .map_err(|e| follow_failure(o, e))?;
        print_follow_update(*n, a, &reply.diagnosis);
        if let Some(prev) = prev.as_mut() {
            print_follow_summary(collector, prev);
        }
        if let Some(path) = &o.metrics_jsonl {
            stream_series(collector, path)?;
        }
        Ok(())
    };
    for a in &initial.alarms {
        absorb(&mut mgr, &mut n, &mut prev, a)?;
    }
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| format!("reading stdin: {e}"))?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        for a in parse_alarms(line)?.alarms {
            absorb(&mut mgr, &mut n, &mut prev, &a)?;
        }
    }
    let stats = mgr.session_stats(&id).map_err(|e| follow_failure(o, e))?;
    eprintln!(
        "{} alarm(s), {} fact(s) materialized, {} rule firing(s)",
        n, stats.facts, stats.eval.rule_firings
    );
    Ok(())
}

/// Write `--trace-out` and print `--metrics` from the run's recording.
/// With `--peer-stats` the trace file is the causally merged multi-process
/// trace instead of the run collector's single-process one.
fn finish_telemetry(
    o: &Options,
    collector: &Collector,
    merged: Option<&rescue::telemetry::merge::MergedTrace>,
) -> Result<(), String> {
    if let Some(path) = &o.trace_out {
        match merged {
            Some(m) => {
                std::fs::write(path, &m.json).map_err(|e| format!("writing {path}: {e}"))?;
                eprintln!(
                    "wrote {path} (merged: {} peer(s), {} cross-peer flow(s), {} unresolved)",
                    m.offsets_us.len(),
                    m.cross_flows,
                    m.unresolved
                );
            }
            None => {
                std::fs::write(path, chrome_trace(collector))
                    .map_err(|e| format!("writing {path}: {e}"))?;
                eprintln!("wrote {path}");
            }
        }
    }
    if o.metrics {
        print!("{}", metrics_text(collector));
    }
    if let Some(path) = &o.metrics_jsonl {
        // Whatever the run sampled but has not yet streamed (everything,
        // for a batch run; usually nothing after `--follow`).
        stream_series(collector, path)?;
        eprintln!("wrote {path}");
    }
    if let Some(path) = &o.profile_out {
        let report =
            rescue::telemetry::profile::ProfileReport::from_snapshot(&collector.snapshot());
        std::fs::write(path, report.folded()).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path} ({} frame(s))", report.entries.len());
        if !report.is_empty() {
            eprint!("{}", report.table(5));
        }
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let o = parse_args()?;
    let src = std::fs::read_to_string(&o.net_path).map_err(|e| format!("reading net: {e}"))?;
    let net = parse_net(&src).map_err(|e| e.to_string())?;
    let alarms = parse_alarms(&o.alarms)?;
    let observing = o.trace_out.is_some()
        || o.metrics
        || o.profile_out.is_some()
        || o.metrics_jsonl.is_some()
        || o.flight_out.is_some();
    let collector = if observing {
        Collector::enabled()
    } else {
        Collector::disabled()
    };
    if let Some(path) = &o.metrics_jsonl {
        collector.attach_series(rescue::telemetry::series::DEFAULT_SERIES_CAPACITY);
        // Truncate up front; every later write appends (streaming under
        // `--follow`, one flush at the end otherwise).
        std::fs::write(path, "").map_err(|e| format!("creating {path}: {e}"))?;
    }
    if let Some(path) = &o.flight_out {
        // Arm the flight recorder against panics: dump the collector's
        // postmortem before the default hook reports the panic itself.
        let (c, p) = (collector.clone(), path.clone());
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let _ = std::fs::write(&p, c.flight_dump(&info.to_string()));
            eprintln!("wrote flight dump {p}");
            default_hook(info);
        }));
    }
    // Evaluation errors (exhausted budgets, depth blowups) leave the same
    // postmortem before surfacing.
    let fail = |e: String| -> String {
        if let Some(path) = &o.flight_out {
            match std::fs::write(path, collector.flight_dump(&e)) {
                Ok(()) => eprintln!("wrote flight dump {path}"),
                Err(w) => eprintln!("writing flight dump {path}: {w}"),
            }
        }
        e
    };

    if o.follow {
        if o.hidden.is_empty() {
            // run_follow handles its own postmortems (follow_failure
            // writes the manager-captured flight dump unconditionally).
            run_follow(net, &alarms, &o, &collector)?;
        } else {
            run_follow_hidden(&net, &alarms, &o, &collector).map_err(fail)?;
        }
        return finish_telemetry(&o, &collector, None);
    }

    let mut peer_report: Option<rescue::Report> = None;
    let diagnosis = if o.hidden.is_empty() {
        let engine = match o.engine.as_str() {
            "oracle" => Engine::Oracle,
            "baseline" => Engine::Baseline,
            "bottomup" => Engine::BottomUp,
            "qsq" => Engine::Qsq,
            "magic" => Engine::Magic,
            "dqsq" => Engine::Dqsq,
            other => return Err(format!("unknown engine {other}\n{USAGE}")),
        };
        let report = Diagnoser::new(net.clone())
            .engine(engine)
            .collector(collector.clone())
            .per_peer_trace(o.peer_stats)
            .budget(o.budget())
            .diagnose(&alarms)
            .map_err(|e| fail(e.to_string()))?;
        if let Some(ev) = report.events_materialized {
            eprintln!("events materialized: {ev}");
        }
        if let Some(m) = report.messages {
            eprintln!("messages: {m}");
        }
        let diagnosis = report.diagnosis.clone();
        peer_report = Some(report);
        diagnosis
    } else {
        // §4.4 hidden-transition diagnosis via the extended program.
        diagnose_hidden(&net, &alarms, &o, &collector).map_err(fail)?
    };

    if o.quiet {
        eprintln!("{} explanation(s)", diagnosis.len());
    } else if diagnosis.is_empty() {
        println!("no explanation: the observation is inconsistent with the net");
    } else {
        println!("{} explanation(s):", diagnosis.len());
        for (i, config) in diagnosis.configurations.iter().enumerate() {
            println!("  [{i}]");
            for event in config {
                println!("    {event}");
            }
        }
    }
    let merged = match peer_report.as_ref() {
        Some(r) if o.peer_stats => {
            print!("{}", r.peer_table());
            r.merged_trace()
        }
        _ => None,
    };
    finish_telemetry(&o, &collector, merged.as_ref())?;

    if let Some(path) = o.dot {
        let depth = (alarms.len() + o.fuel).max(1) as u32;
        let u = Unfolding::build(&net, &UnfoldLimits::depth(depth));
        let first = diagnosis
            .configurations
            .first()
            .cloned()
            .unwrap_or_default();
        let hl = events_by_terms(&net, &u, &first);
        std::fs::write(&path, unfolding_to_dot(&net, &u, &hl))
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}
