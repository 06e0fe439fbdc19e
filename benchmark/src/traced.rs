//! The traced run: each workload's ops repeated, decomposed into the layer
//! calls of [`crate::layers`] with a span around each, after an untraced
//! façade phase over the same ops. It checks that the decomposed path
//! gives the façade's (and the reference's) diagnosis, fills the
//! per-layer metrics, prints a closed time budget, and writes
//! `benchmark/out/trace-<workload>.json`.

use crate::bench::{Args, Def, Kind, Setup, HEAVY_ALARMS};
use crate::client::Script;
use crate::inputs::Instance;
use crate::layers;
use crate::stats::{mean, percentile, sorted};
use crate::trace::{Budget, Recorder};
use crate::workloads::{self, Engine, ExactCounts, Server};
use rescue::datalog::{Database, TermStore};
use std::collections::BTreeMap;
use std::time::Instant;

pub struct Traced {
    pub attempted: u64,
    pub failed: u64,
}

type Metrics = BTreeMap<String, f64>;

fn set(m: &mut Metrics, name: &str, v: f64) {
    m.insert(name.to_owned(), v);
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

pub fn run(d: &Def, s: &mut Setup, args: &Args, m: &mut Metrics) -> Traced {
    set(m, "petri.gen_ms", s.cost.gen_ms);
    set(m, "petri.inputs_fingerprint", s.fingerprint as f64);
    set(
        m,
        "baseline.diag_ms",
        s.cost.baseline_ms / s.cost.baseline_calls.max(1) as f64,
    );
    let mut rec = Recorder::new(true);
    let mut t = Traced {
        attempted: 0,
        failed: 0,
    };
    let budgets = match d.kind {
        Kind::Batch(engine) => batch(engine, s, args.seconds, &mut rec, m, &mut t),
        Kind::Online => online(s, args.seconds, &mut rec, m, &mut t),
        Kind::Churn => churn(d, s, args, &mut rec, m, &mut t),
        Kind::Mixed => mixed(d, s, args, &mut rec, m, &mut t),
    };
    for b in &budgets {
        print!("{}", b.render());
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}.json", d.name));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, rec.to_json(d.name))) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    t
}

/// Per-op mean of a layer's self time, over `ops` traced ops.
fn per_op(rec: &Recorder, layer: &str, ops: usize) -> f64 {
    rec.layers().get(layer).map_or(0.0, |l| l.self_ms) / ops as f64
}

fn set_datalog(m: &mut Metrics, counts: &ExactCounts, eval_ms_total: f64) {
    let [candidates, facts, probes, iterations, firings, duplicates, sip, plans] = counts.eval;
    set(m, "datalog.candidates_scanned", candidates as f64);
    set(m, "datalog.facts_derived", facts as f64);
    set(m, "datalog.index_probes", probes as f64);
    set(m, "datalog.iterations", iterations as f64);
    set(m, "datalog.rule_firings", firings as f64);
    set(m, "datalog.duplicate_derivations", duplicates as f64);
    set(m, "datalog.sip_filtered", sip as f64);
    set(m, "datalog.plans_compiled", plans as f64);
    set(
        m,
        "datalog.candidates_per_fact",
        candidates as f64 / (facts as f64).max(1.0),
    );
    set(
        m,
        "datalog.ns_per_candidate",
        eval_ms_total * 1e6 / (candidates as f64).max(1.0),
    );
}

fn add(total: &mut ExactCounts, c: &ExactCounts) {
    for (t, v) in total.eval.iter_mut().zip(c.eval) {
        *t += v;
    }
    for (t, v) in total.net.iter_mut().zip(c.net) {
        *t += v;
    }
}

/// `batch_qsq` / `batch_dqsq`: the façade, then encode → rewrite →
/// fixpoint (or distributed run + collect) → extract under spans.
fn batch(
    engine: Engine,
    s: &Setup,
    seconds: f64,
    rec: &mut Recorder,
    m: &mut Metrics,
    t: &mut Traced,
) -> Vec<Budget> {
    let insts = &s.instances;
    let n = insts.len();
    let facade = workloads::batch(engine, insts, seconds / 2.0);
    t.attempted += facade.attempted;
    t.failed += facade.failed;
    let facade_ms = mean(&facade.op_ms);

    let traced_start = Instant::now();
    let mut counts = ExactCounts::default();
    let mut rules_in = 0usize;
    let mut rules_out = 0usize;
    let mut tuples_sent = 0u64;
    for (i, inst) in insts.iter().enumerate() {
        let op = i as u64;
        rec.open("op", op);
        let mut store = TermStore::new();
        let dp = rec.timed("encode", op, || {
            layers::encode(&inst.net, &inst.alarms, &mut store)
        });
        rules_in += dp.program.rules.len();
        let diagnosis = match engine {
            Engine::Qsq => {
                let r = rec.timed("qsq", op, || layers::qsq_rewrite(&dp, &mut store));
                rules_out += r.rw.program.rules.len();
                let mut db = Database::new();
                let stats = rec.timed("datalog", op, || {
                    layers::datalog_eval(&r, &mut store, &mut db)
                });
                add(&mut counts, &ExactCounts::of(&stats, None));
                let d = rec.timed("extract", op, || layers::extract(&r, &store, &db));
                rec.timed("teardown", op, || drop((db, r)));
                d
            }
            Engine::Dqsq => {
                let (r, dist) = rec.timed("qsq", op, || {
                    let r = layers::dqsq_rewrite(&dp, &mut store);
                    let dist = layers::dqsq_program(&r);
                    (r, dist)
                });
                rules_out += r.rw.program.rules.len();
                let run = rec.timed("dqsq.run", op, || layers::dqsq_run(&dist, &store));
                add(
                    &mut counts,
                    &ExactCounts::of(&run.total_stats(), Some(&run.net)),
                );
                tuples_sent += layers::dqsq_tuples_sent(&run);
                let rows = rec.timed("dqsq.collect", op, || {
                    layers::dqsq_collect(&run, &r, &mut store)
                });
                let d = rec.timed("extract", op, || layers::extract_rows(&rows, &store));
                rec.timed("teardown", op, || drop((run, dist, r)));
                d
            }
        };
        rec.timed("teardown", op, || drop((dp, store)));
        rec.close();
        t.attempted += 1;
        t.failed += (diagnosis != *inst.reference()) as u64;
    }
    let traced_ms = ms_since(traced_start) / n as f64;

    set(m, "encode.program_ms", per_op(rec, "encode", n));
    set(m, "encode.rules", rules_in as f64 / n as f64);
    set(m, "qsq.rewrite_ms", per_op(rec, "qsq", n));
    set(m, "qsq.rules_out", rules_out as f64 / n as f64);
    set(m, "extract.answers_ms", per_op(rec, "extract", n));
    set(m, "bench.trace_overhead_ratio", traced_ms / facade_ms);

    let mut layers_ms = vec![
        ("encode".to_owned(), per_op(rec, "encode", n)),
        ("qsq".to_owned(), per_op(rec, "qsq", n)),
    ];
    match engine {
        Engine::Qsq => {
            let eval_ms = per_op(rec, "datalog", n);
            set(m, "datalog.eval_ms", eval_ms);
            set_datalog(m, &counts, eval_ms * n as f64);
            layers_ms.push(("datalog".to_owned(), eval_ms));

            // The paper's "generic vs dedicated" gap, and what an enabled
            // telemetry collector costs the façade.
            let sample = &insts[..n.min(8)];
            let mut base = 0.0;
            let mut plain = 0.0;
            let mut collected = 0.0;
            for (i, inst) in sample.iter().enumerate() {
                let b = Instant::now();
                rec.timed("baseline", i as u64, || {
                    layers::baseline(&inst.net, &inst.alarms)
                });
                base += ms_since(b);
                plain += facade.unit_ms[i];
                let c = Instant::now();
                let opts = rescue::diagnosis::PipelineOptions {
                    collector: rescue::Collector::enabled(),
                    ..Default::default()
                };
                let r = rescue::diagnosis::diagnose_qsq(&inst.net, &inst.alarms, &opts);
                collected += ms_since(c);
                t.attempted += 1;
                t.failed += !matches!(&r, Ok(r) if r.diagnosis == *inst.reference()) as u64;
            }
            set(m, "baseline.vs_qsq_ratio", plain / base);
            set(m, "telemetry.collector_ratio", collected / plain);
        }
        Engine::Dqsq => {
            let run_ms = per_op(rec, "dqsq.run", n);
            let collect_ms = per_op(rec, "dqsq.collect", n);
            set(m, "dqsq.run_ms", run_ms);
            set(m, "dqsq.collect_ms", collect_ms);
            set(m, "dqsq.tuples_sent", tuples_sent as f64);
            set(m, "dqsq.eval_candidates", counts.eval[0] as f64);
            set(m, "dqsq.plans_compiled", counts.eval[7] as f64);
            set(m, "net.messages", counts.net[0] as f64);
            set(m, "net.bytes", counts.net[1] as f64);
            set(m, "net.sim_steps", counts.net[2] as f64);
            set(
                m,
                "dqsq.us_per_message",
                run_ms * n as f64 * 1e3 / (counts.net[0] as f64).max(1.0),
            );
            layers_ms.push(("dqsq.run (dqsq + net)".to_owned(), run_ms));
            layers_ms.push(("dqsq.collect".to_owned(), collect_ms));

            // The same rewritten programs evaluated centrally, and on the
            // threaded transport: what distribution itself costs.
            let sample = &insts[..n.min(8)];
            let mut central = ExactCounts::default();
            let mut central_ms = 0.0;
            let mut threaded_ms = 0.0;
            for (i, inst) in sample.iter().enumerate() {
                let op = (n + i) as u64;
                let mut store = TermStore::new();
                let dp = layers::encode(&inst.net, &inst.alarms, &mut store);
                let r = layers::dqsq_rewrite(&dp, &mut store);
                let dist = layers::dqsq_program(&r);
                let th = Instant::now();
                rec.timed("dqsq.run_threaded", op, || {
                    layers::dqsq_run_threaded(&dist, &store)
                });
                threaded_ms += ms_since(th);
                let mut db = Database::new();
                let c = Instant::now();
                let stats = rec.timed("datalog", op, || {
                    layers::datalog_eval(&r, &mut store, &mut db)
                });
                central_ms += ms_since(c);
                add(&mut central, &ExactCounts::of(&stats, None));
                t.attempted += 1;
                t.failed += (layers::extract(&r, &store, &db) != *inst.reference()) as u64;
            }
            let k = sample.len() as f64;
            set(m, "datalog.eval_ms", central_ms / k);
            set_datalog(m, &central, central_ms);
            set(m, "dqsq.threaded_run_ms", threaded_ms / k);
            set(m, "dqsq.overhead_ratio", run_ms / (central_ms / k));
        }
    }
    layers_ms.push(("extract".to_owned(), per_op(rec, "extract", n)));
    layers_ms.push(("teardown".to_owned(), per_op(rec, "teardown", n)));
    set(m, "pipeline.teardown_ms", per_op(rec, "teardown", n));
    let budget = Budget {
        title: format!(
            "mean per diagnosis over {n} ops; facade = {}",
            match engine {
                Engine::Qsq => "diagnose_qsq",
                Engine::Dqsq => "diagnose_dqsq",
            }
        ),
        unit: "ms",
        facade: facade_ms,
        layers: layers_ms,
        residual_name: "pipeline.residual",
    };
    set(m, "pipeline.residual_ms", budget.residual());
    set(
        m,
        "pipeline.residual_share",
        budget.residual() / budget.facade,
    );
    println!(
        "attributed to named layers: {:.1} % of the facade wall",
        100.0 * budget.attributed_share()
    );
    vec![budget]
}

const PUSH_SPANS: [&str; 5] = [
    "session.push.k1",
    "session.push.k2",
    "session.push.k3",
    "session.push.k4",
    "session.push.k5",
];

/// The first `alarms` alarms of one stream through `DiagnosisSession`, a
/// span per call.
fn traced_stream(rec: &mut Recorder, op: u64, inst: &Instance, alarms: usize, t: &mut Traced) {
    rec.open("op", op);
    let mut session = rec.timed("session.create", op, || layers::session_create(&inst.net));
    for (k, alarm) in inst.alarms.alarms.iter().take(alarms).enumerate() {
        let d = rec.timed(PUSH_SPANS[k.min(4)], op, || {
            layers::session_push(&mut session, alarm)
        });
        t.attempted += 1;
        t.failed += (d != inst.prefix_refs[k]) as u64;
    }
    let d = rec.timed("session.diagnosis", op, || {
        layers::session_diagnosis(&session)
    });
    t.failed += (d != inst.prefix_refs[alarms.min(inst.alarms.len()) - 1]) as u64;
    rec.timed("session.drop", op, || drop(session));
    rec.close();
}

fn set_session(m: &mut Metrics, rec: &Recorder) {
    let layers = rec.layers();
    let mean_of = |name: &str| layers.get(name).map_or(0.0, |l| l.mean_ms());
    set(m, "session.create_ms", mean_of("session.create"));
    for (k, name) in PUSH_SPANS.iter().enumerate() {
        set(m, &format!("session.push_ms.k{}", k + 1), mean_of(name));
    }
    set(m, "session.diagnosis_ms", mean_of("session.diagnosis"));
    set(m, "session.drop_ms", mean_of("session.drop"));
}

/// `online_session`: the façade streams, then the same streams with a
/// span per session call, then batch QSQ on the whole sequences.
fn online(
    s: &Setup,
    seconds: f64,
    rec: &mut Recorder,
    m: &mut Metrics,
    t: &mut Traced,
) -> Vec<Budget> {
    let streams = &s.instances;
    let n = streams.len();
    let facade = workloads::online(streams, seconds / 2.0);
    t.attempted += facade.attempted;
    t.failed += facade.failed;
    let facade_ms = mean(&facade.unit_ms);

    let traced_start = Instant::now();
    for (i, inst) in streams.iter().enumerate() {
        traced_stream(rec, i as u64, inst, usize::MAX, t);
    }
    let traced_ms = ms_since(traced_start) / n as f64;
    set_session(m, rec);
    set(m, "bench.trace_overhead_ratio", traced_ms / facade_ms);

    // Totals of the model each stream leaves behind, and the same
    // sequences through batch QSQ: what incrementality costs or saves.
    let sample = &streams[..n.min(16)];
    let mut counts = ExactCounts::default();
    let mut facts = 0usize;
    let mut stream_ms = 0.0;
    let mut qsq_ms = 0.0;
    for (i, inst) in sample.iter().enumerate() {
        let mut session = layers::session_create(&inst.net);
        for alarm in &inst.alarms.alarms {
            layers::session_push(&mut session, alarm);
        }
        let (total_facts, stats) = layers::session_totals(&session);
        facts += total_facts;
        add(&mut counts, &ExactCounts::of(&stats, None));
        stream_ms += facade.unit_ms[i];
        let q = Instant::now();
        let r = workloads::facade(Engine::Qsq, inst);
        qsq_ms += ms_since(q);
        t.attempted += 1;
        t.failed += !matches!(&r, Ok(r) if r.diagnosis == *inst.reference()) as u64;
    }
    let pushes_ms: f64 = PUSH_SPANS.iter().map(|p| per_op(rec, p, n)).sum();
    set_datalog(m, &counts, pushes_ms * sample.len() as f64);
    set(m, "session.facts_total", facts as f64);
    set(m, "session.candidates_total", counts.eval[0] as f64);
    set(m, "session.plans_compiled", counts.eval[7] as f64);
    set(m, "session.vs_qsq_ratio", stream_ms / qsq_ms);

    let mut layers_ms = vec![(
        "session.create".to_owned(),
        per_op(rec, "session.create", n),
    )];
    for p in PUSH_SPANS {
        layers_ms.push((p.to_owned(), per_op(rec, p, n)));
    }
    layers_ms.push(("session.drop".to_owned(), per_op(rec, "session.drop", n)));
    vec![Budget {
        title: format!("mean per stream over {n} streams; facade = new + 5 x push_alarm + drop"),
        unit: "ms",
        facade: facade_ms,
        layers: layers_ms,
        residual_name: "residual (verify)",
    }]
}

/// Light lifecycles in-process, a span per layer call: parse the request
/// line, call the manager, render the reply. `rec` off prices the spans.
fn decomposed_lifecycles(
    rec: &mut Recorder,
    s: &Setup,
    lifecycles: usize,
    t: &mut Traced,
) -> (f64, f64, f64) {
    let mut manager = layers::manager_new(&s.nets);
    let mut script = Script::new(&s.light_streams, "m", false);
    let mut request_bytes = 0usize;
    let mut reply_bytes = 0usize;
    let start = Instant::now();
    for l in 0..lifecycles {
        let op = l as u64;
        let inst = &s.light[l % s.light.len()];
        rec.open("op", op);
        let id = rec
            .timed("wire.parse", op, || layers::wire_parse(&script.next().line))
            .session
            .expect("create names its session");
        rec.timed("manager.create", op, || {
            layers::manager_create(&mut manager, &id, "figure1")
        });
        for (k, _) in inst.alarms.alarms.iter().enumerate() {
            let line = script.next().line;
            request_bytes += line.len();
            let req = rec.timed("wire.parse", op, || layers::wire_parse(&line));
            let reply = rec.timed("manager.push", op, || {
                layers::manager_push(&mut manager, &id, &req.alarms[0])
            });
            reply_bytes += rec
                .timed("wire.render", op, || layers::wire_render(&id, &reply))
                .len();
            t.attempted += 1;
            t.failed += (reply.diagnosis != inst.prefix_refs[k]) as u64;
        }
        rec.timed("wire.parse", op, || layers::wire_parse(&script.next().line));
        rec.timed("manager.destroy", op, || {
            layers::manager_destroy(&mut manager, &id)
        });
        rec.close();
    }
    let pushes = (lifecycles * s.light[0].alarms.len()) as f64;
    (
        ms_since(start),
        request_bytes as f64 / pushes,
        reply_bytes as f64 / pushes,
    )
}

fn set_manager(m: &mut Metrics, rec: &Recorder, report: &rescue_server::ServerReport) {
    let layers = rec.layers();
    let mean_of = |name: &str| layers.get(name).map_or(0.0, |l| l.mean_ms());
    set(m, "manager.create_ms", mean_of("manager.create"));
    set(m, "manager.push_ms", mean_of("manager.push"));
    set(m, "manager.destroy_ms", mean_of("manager.destroy"));
    set(m, "wire.parse_us", mean_of("wire.parse") * 1e3);
    set(m, "wire.render_us", mean_of("wire.render") * 1e3);
    set(
        m,
        "manager.backpressure",
        report.manager.backpressure_replies as f64,
    );
    set(m, "manager.rejected", report.manager.rejected as f64);
    set(m, "manager.evictions", report.manager.evicted as f64);
    set(m, "server.requests", report.requests as f64);
    set(m, "server.errors", report.errors as f64);
}

/// Push latencies (sorted), read latencies (sorted), lifecycles, tallies.
struct Served {
    push: Vec<f64>,
    read: Vec<f64>,
    lifecycles: u64,
    max_lag_ms: f64,
    late: u64,
    attempted: u64,
    measured_s: f64,
}

fn served(conns: Vec<crate::client::ConnResult>, t: &mut Traced) -> Served {
    let mut out = Served {
        push: Vec::new(),
        read: Vec::new(),
        lifecycles: 0,
        max_lag_ms: 0.0,
        late: 0,
        attempted: 0,
        measured_s: 0.0,
    };
    for c in conns {
        t.attempted += c.attempted;
        t.failed += c.failed;
        out.attempted += c.attempted;
        out.lifecycles += c.lifecycles;
        out.max_lag_ms = out.max_lag_ms.max(c.max_lag_ms);
        out.late += c.late;
        out.measured_s = out.measured_s.max(c.measured_s);
        out.push.extend(c.push_ms);
        out.read.extend(c.read_ms);
    }
    out.push = sorted(out.push);
    out.read = sorted(out.read);
    out
}

fn ping_round_trips(server: &Server, n: usize) -> Vec<f64> {
    let mut client = server.connect();
    let mut us = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        client.call("{\"op\":\"ping\"}").expect("ping is answered");
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    sorted(us)
}

/// `serve_churn`: the façade churn, pings, the in-process decomposition
/// of a light lifecycle, and the same churn against a tracing server.
fn churn(
    d: &Def,
    s: &mut Setup,
    args: &Args,
    rec: &mut Recorder,
    m: &mut Metrics,
    t: &mut Traced,
) -> Vec<Budget> {
    let (seconds, seed) = (args.seconds, args.seed);
    let server = s.server.take().expect("set-up started the server");
    let plain = served(
        workloads::serve(&server, &s.lanes(d.kind, true), seconds / 2.0, seed),
        t,
    );
    let push_p50_us = percentile(&plain.push, 50.0) * 1e3;
    set(m, "serve.read_p50_ms", percentile(&plain.read, 50.0));
    set(
        m,
        "serve.sessions_per_s",
        plain.lifecycles as f64 / plain.measured_s,
    );
    set(m, "server.push_p999_ms", percentile(&plain.push, 99.9));

    let pings = ping_round_trips(&server, 2000);
    set(m, "server.ping_p50_us", percentile(&pings, 50.0));
    set(m, "server.ping_p99_us", percentile(&pings, 99.0));

    let lifecycles = (plain.lifecycles as usize / 4).clamp(10, 2000);
    let (untraced_ms, _, _) = decomposed_lifecycles(&mut Recorder::new(false), s, lifecycles, t);
    let (traced_ms, request_bytes, reply_bytes) = decomposed_lifecycles(rec, s, lifecycles, t);
    set(m, "bench.trace_overhead_ratio", traced_ms / untraced_ms);
    set(m, "wire.request_bytes", request_bytes);
    set(m, "wire.reply_bytes", reply_bytes);

    let sessions = 200.min(lifecycles);
    for i in 0..sessions {
        let inst = &s.light[i % s.light.len()];
        traced_stream(rec, (lifecycles + i) as u64, inst, usize::MAX, t);
    }
    set_session(m, rec);

    let tracing = Server::spawn(s.nets.clone(), rescue::Collector::enabled());
    let collected = served(
        workloads::serve(&tracing, &s.lanes(d.kind, true), seconds / 4.0, seed),
        t,
    );
    tracing.shutdown();
    set(
        m,
        "telemetry.collector_ratio",
        percentile(&collected.push, 50.0) * 1e3 / push_p50_us,
    );

    let report = server.shutdown();
    set_manager(m, rec, &report);
    let layers = rec.layers();
    let mean_us = |name: &str| layers.get(name).map_or(0.0, |l| l.mean_ms()) * 1e3;
    let budget = Budget {
        title: format!(
            "one light push over TCP, 2 connections; facade = push_p50 over {} pushes; \
             the residual includes the wait for the manager lock",
            plain.push.len()
        ),
        unit: "us",
        facade: push_p50_us,
        layers: vec![
            (
                "server.ping (transport)".to_owned(),
                percentile(&pings, 50.0),
            ),
            ("wire.parse".to_owned(), mean_us("wire.parse")),
            ("manager.push".to_owned(), mean_us("manager.push")),
            ("wire.render".to_owned(), mean_us("wire.render")),
        ],
        residual_name: "server.residual_us",
    };
    set(m, "server.residual_us", budget.residual());
    set(
        m,
        "server.push_overhead_us",
        push_p50_us - mean_us("manager.push"),
    );
    vec![budget]
}

/// `serve_mixed`: the light tenants alone (control), then beside the
/// heavy tenant, then the heavy streams in-process under spans.
fn mixed(
    d: &Def,
    s: &mut Setup,
    args: &Args,
    rec: &mut Recorder,
    m: &mut Metrics,
    t: &mut Traced,
) -> Vec<Budget> {
    let (seconds, seed) = (args.seconds, args.seed);
    let server = s.server.take().expect("set-up started the server");
    let alone = served(
        workloads::serve(&server, &s.lanes(d.kind, false), seconds / 3.0, seed),
        t,
    );
    let alone_p99 = percentile(&alone.push, 99.0);

    let conns = workloads::serve(&server, &s.lanes(d.kind, true), seconds / 2.0, seed);
    let mut conns = conns.into_iter();
    let light = served(vec![conns.next().expect("the light lane")], t);
    let heavy = served(conns.collect(), t);
    let light_p99 = percentile(&light.push, 99.0);
    set(m, "server.light_alone_p99_ms", alone_p99);
    set(m, "server.interference_ratio", light_p99 / alone_p99);
    set(m, "server.push_p999_ms", percentile(&light.push, 99.9));
    set(m, "serve.read_p50_ms", percentile(&light.read, 50.0));
    set(
        m,
        "serve.sessions_per_s",
        light.lifecycles as f64 / light.measured_s,
    );
    set(m, "serve.heavy_push_p50_ms", percentile(&heavy.push, 50.0));
    set(m, "serve.heavy_push_p90_ms", percentile(&heavy.push, 90.0));
    set(
        m,
        "loadgen.max_lag_ms",
        light.max_lag_ms.max(heavy.max_lag_ms),
    );
    set(
        m,
        "loadgen.late_share",
        (light.late + heavy.late) as f64 / (light.attempted + heavy.attempted).max(1) as f64,
    );

    let sample = &s.instances[..s.instances.len().min(16)];
    let untraced = Instant::now();
    let mut off = Recorder::new(false);
    for (i, inst) in sample.iter().enumerate() {
        traced_stream(&mut off, i as u64, inst, HEAVY_ALARMS, t);
    }
    let untraced_ms = ms_since(untraced);
    let traced = Instant::now();
    for (i, inst) in sample.iter().enumerate() {
        traced_stream(rec, i as u64, inst, HEAVY_ALARMS, t);
    }
    set(
        m,
        "bench.trace_overhead_ratio",
        ms_since(traced) / untraced_ms,
    );
    set_session(m, rec);

    let report = server.shutdown();
    set_manager(m, rec, &report);
    vec![Budget {
        title: format!(
            "light push p99 beside the heavy tenant ({} light, {} heavy pushes; \
             the heavy tenant's last push holds the manager lock {:.1} ms)",
            light.push.len(),
            heavy.push.len(),
            per_op(rec, PUSH_SPANS[HEAVY_ALARMS - 1], sample.len())
        ),
        unit: "ms",
        facade: light_p99,
        layers: vec![("light tenants alone (p99)".to_owned(), alone_p99)],
        residual_name: "wait behind the heavy tenant",
    }]
}
