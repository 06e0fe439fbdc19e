//! One workload, one process: set-up (timed, repeated), then either the
//! timed run (tracing off, end-to-end metrics) or the traced run
//! (per-layer metrics). Sizes and instance classes live here.

use crate::client::{Script, Stream};
use crate::inputs::{self, Class, Fingerprint, GenCost, Instance};
use crate::stats::{median, peak_rss_mb, percentile, sorted};
use crate::traced;
use crate::workloads::{self, Engine, Lane, Server};
use rescue::petri::PetriNet;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Set-up runs this many times; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;

/// |A| = 6 split 1/2/3 over the peers, 32–40 explanation states: about
/// 0.1 s of `diagnose_qsq` each, within ±25 %.
const QSQ_CLASS: Class = Class {
    alarms: 6,
    shape: &[1, 2, 3],
    states: (32, 40),
    unfolding: None,
};

/// |A| = 4 with all three peers alarmed (1/1/2), 12 explanation states:
/// about 0.17 s of `diagnose_dqsq` each, within ±15 %.
const DQSQ_CLASS: Class = Class {
    alarms: 4,
    shape: &[1, 1, 2],
    states: (12, 12),
    unfolding: None,
};

/// |A| = 5 split 1/2/2, 24 explanation states, on nets whose depth-6
/// unfolding has 150–200 events: the last push of a stream costs 16–34 ms
/// and its model holds 38–61 k facts. An odd stream length puts the median
/// of all pushes inside the k = 3 pushes, not between two modes.
const STREAM_CLASS: Class = Class {
    alarms: 5,
    shape: &[1, 2, 2],
    states: (24, 24),
    unfolding: Some((6, 150, 200)),
};

/// Alarms per light (Figure 1) session.
const LIGHT_ALARMS: usize = 3;
/// `serve_mixed`, open loop. The light tenant: a request every 1 ms on
/// average (create, 3 pushes, read, destroy: 500 pushes/s) …
const LIGHT_GAP: Duration = Duration::from_millis(1);
/// … beside one heavy tenant: a request every 12 ms on average (create,
/// the first 4 alarms of a stream, destroy: 55 alarms/s), holding the
/// manager lock about 15 % of the time, 3–7 ms at a stretch in its last
/// push. Every gap (≥ 9 ms) outlasts the longest hold, so the heavy lane
/// never queues behind itself and each hold delays the light tenant on its
/// own. A fifth alarm would hold the lock 16–34 ms six times a second: too
/// few holds in a run for a tail that repeats from seed to seed.
const HEAVY_GAP: Duration = Duration::from_millis(12);
pub const HEAVY_ALARMS: usize = 4;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Batch(Engine),
    Online,
    Churn,
    Mixed,
}

pub struct Def {
    pub name: &'static str,
    pub kind: Kind,
    /// Telecom instances (batch ops, online streams, heavy tenants).
    pub instances: usize,
    /// Figure 1 streams the light tenants cycle through.
    pub light: usize,
    /// The percentile `op_tail_ms` reports: at least ten samples lie
    /// beyond it at the recorded sizes, and it repeats from seed to seed.
    pub tail: f64,
}

const fn workload(
    name: &'static str,
    kind: Kind,
    instances: usize,
    light: usize,
    tail: f64,
) -> Def {
    Def {
        name,
        kind,
        instances,
        light,
        tail,
    }
}

pub const WORKLOADS: [Def; 5] = [
    workload("batch_qsq", Kind::Batch(Engine::Qsq), 50, 0, 90.0),
    workload("batch_dqsq", Kind::Batch(Engine::Dqsq), 32, 0, 80.0),
    workload("online_session", Kind::Online, 150, 0, 90.0),
    // p95 lies among the pushes that waited for the other connection's
    // `create` under the manager lock; p99 lies above them, where the
    // box's scheduling sets it, and spreads 0.07–0.14 over seeds.
    workload("serve_churn", Kind::Churn, 0, 256, 95.0),
    // p99 rests on the 50 slowest pushes of a run, and one stall of the
    // box adds five of them; p97 spreads 0.6 times as wide over seeds.
    workload("serve_mixed", Kind::Mixed, 128, 256, 97.0),
];

pub fn workload_names() -> String {
    WORKLOADS.map(|d| d.name).join(", ")
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// 1/20 size, for `tests/quick.rs`.
    pub quick: bool,
    /// Negative test: make the first reference wrong.
    pub corrupt: bool,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
    pub fingerprint: u64,
}

/// Everything a workload needs before its first timed op.
pub struct Setup {
    pub instances: Vec<Instance>,
    pub light: Vec<Instance>,
    pub light_streams: Vec<Stream>,
    pub heavy_streams: Vec<Stream>,
    pub nets: Vec<(String, PetriNet)>,
    pub server: Option<Server>,
    pub fingerprint: u64,
    pub cost: GenCost,
}

impl Setup {
    /// The lanes of a serving run: `serve_churn` drives two closed-loop
    /// light connections; `serve_mixed` one open-loop light connection
    /// and, unless `heavy` is off (the control phase), one heavy one.
    pub fn lanes(&self, kind: Kind, heavy: bool) -> Vec<Lane<'_>> {
        let light = |tag, mean_gap| Lane {
            streams: &self.light_streams,
            tag,
            read: true,
            mean_gap,
        };
        match kind {
            Kind::Churn => vec![light("a", None), light("b", None)],
            Kind::Mixed => {
                let mut lanes = vec![light("a", Some(LIGHT_GAP))];
                if heavy {
                    lanes.push(Lane {
                        streams: &self.heavy_streams,
                        tag: "h",
                        read: false,
                        mean_gap: Some(HEAVY_GAP),
                    });
                }
                lanes
            }
            _ => unreachable!("only serving workloads have lanes"),
        }
    }
}

fn scaled(n: usize, quick: bool) -> usize {
    if quick && n > 0 {
        (n / 20).max(2)
    } else {
        n
    }
}

/// Generate inputs and references, start the server, run the warm-up.
fn setup(d: &Def, args: &Args) -> Setup {
    let mut fp = Fingerprint::default();
    let mut cost = GenCost::default();
    let n = scaled(d.instances, args.quick);
    let class = match d.kind {
        Kind::Batch(Engine::Qsq) => &QSQ_CLASS,
        Kind::Batch(Engine::Dqsq) => &DQSQ_CLASS,
        _ => &STREAM_CLASS,
    };
    let mut instances = inputs::telecom(args.seed, 1, class, n, &mut fp, &mut cost);
    let mut light = inputs::figure1(
        args.seed,
        2,
        LIGHT_ALARMS,
        scaled(d.light, args.quick),
        &mut fp,
        &mut cost,
    );
    if args.corrupt {
        inputs::corrupt_reference(if light.is_empty() {
            &mut instances
        } else {
            &mut light
        });
    }
    let mut s = Setup {
        light_streams: light.iter().map(|i| Stream::of("figure1", i)).collect(),
        heavy_streams: Vec::new(),
        nets: Vec::new(),
        server: None,
        fingerprint: fp.value(),
        cost,
        instances,
        light,
    };
    let warm = (n / 10).max(2).min(n);
    match d.kind {
        Kind::Batch(engine) => {
            workloads::batch(engine, &s.instances[..warm], 0.0);
        }
        Kind::Online => {
            workloads::online(&s.instances[..warm], 0.0);
        }
        Kind::Churn | Kind::Mixed => {
            s.nets.push(("figure1".to_owned(), s.light[0].net.clone()));
            if d.kind == Kind::Mixed {
                for (i, inst) in s.instances.iter().enumerate() {
                    let name = format!("telecom{i}");
                    s.heavy_streams
                        .push(Stream::of(&name, inst).truncated(HEAVY_ALARMS));
                    s.nets.push((name, inst.net.clone()));
                }
            }
            let server = Server::spawn(s.nets.clone(), rescue::Collector::disabled());
            let mut client = server.connect();
            let mut warm_up = |streams: &[Stream], lifecycles: usize| {
                if streams.is_empty() {
                    return;
                }
                let mut script = Script::new(streams, "w", true);
                for _ in 0..lifecycles {
                    loop {
                        client
                            .call(&script.next().line)
                            .expect("the warm-up request is answered");
                        if !script.mid_lifecycle() {
                            break;
                        }
                    }
                }
            };
            warm_up(&s.light_streams, scaled(100, args.quick));
            // Every heavy stream once: the process's peak RSS is then set
            // by the whole pool, not by which streams the schedule reaches.
            warm_up(&s.heavy_streams, s.heavy_streams.len());
            s.server = Some(server);
        }
    }
    s
}

fn teardown(s: &mut Setup) {
    if let Some(server) = s.server.take() {
        server.shutdown();
    }
}

/// The timed run: tracing off, only façade calls.
fn timed(d: &Def, s: &Setup, seconds: f64, seed: u64) -> workloads::Timed {
    match d.kind {
        Kind::Batch(engine) => workloads::batch(engine, &s.instances, seconds),
        Kind::Online => workloads::online(&s.instances, seconds),
        Kind::Churn | Kind::Mixed => {
            let server = s.server.as_ref().expect("set-up started the server");
            println!("cpu placement: {}", server.placement());
            let conns = workloads::serve(server, &s.lanes(d.kind, true), seconds, seed);
            let mut out = workloads::Timed {
                passes: 1,
                ..Default::default()
            };
            for (lane, c) in conns.into_iter().enumerate() {
                out.attempted += c.attempted;
                out.failed += c.failed;
                out.wall_s = out.wall_s.max(c.measured_s);
                // The op is the light tenants' push; on `serve_mixed` the
                // heavy lane (the last) only supplies the interference.
                if d.kind == Kind::Churn || lane == 0 {
                    out.op_ms.extend(c.push_ms);
                }
            }
            out
        }
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let d = WORKLOADS
        .iter()
        .find(|d| d.name == args.workload)
        .ok_or_else(|| {
            format!(
                "unknown workload {} (one of {})",
                args.workload,
                workload_names()
            )
        })?;
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut s = None;
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    for _ in 0..repeats {
        if let Some(mut old) = s.take() {
            teardown(&mut old);
        }
        let t = Instant::now();
        s = Some(setup(d, args));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut s = s.expect("set-up ran at least once");

    let mut metrics = BTreeMap::new();
    let (attempted, failed) = if args.trace {
        let t = traced::run(d, &mut s, args, &mut metrics);
        (t.attempted, t.failed)
    } else {
        let t = timed(d, &s, args.seconds, args.seed);
        if t.op_ms.is_empty() {
            return Err("the timed run completed no op".to_owned());
        }
        let lat = sorted(t.op_ms);
        metrics.insert("setup_s".to_owned(), median(&setup_s));
        metrics.insert("op_p50_ms".to_owned(), percentile(&lat, 50.0));
        metrics.insert("op_tail_ms".to_owned(), percentile(&lat, d.tail));
        metrics.insert("ops_per_s".to_owned(), lat.len() as f64 / t.wall_s);
        metrics.insert("peak_rss_mb".to_owned(), peak_rss_mb());
        println!(
            "{}: {} ops in {} pass(es), {:.2} s; op = {}; tail = p{} ({} samples beyond)",
            d.name,
            lat.len(),
            t.passes,
            t.wall_s,
            match d.kind {
                Kind::Batch(_) => "one diagnosis",
                _ => "one alarm push",
            },
            d.tail,
            crate::stats::samples_beyond(lat.len(), d.tail),
        );
        println!(
            "op latency ms: p50 {:.4} p80 {:.4} p90 {:.4} p95 {:.4} p97 {:.4} p99 {:.4} max {:.4}",
            percentile(&lat, 50.0),
            percentile(&lat, 80.0),
            percentile(&lat, 90.0),
            percentile(&lat, 95.0),
            percentile(&lat, 97.0),
            percentile(&lat, 99.0),
            percentile(&lat, 100.0),
        );
        (t.attempted, t.failed)
    };
    teardown(&mut s);
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        fingerprint: s.fingerprint,
    })
}
