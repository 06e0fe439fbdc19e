//! The TCP service: one listener, one thread per connection, one shared
//! [`SessionManager`].
//!
//! Concurrency shape (mirroring `rescue_net::threaded`): connection
//! threads block on short read timeouts and poll a shared shutdown flag,
//! so a `shutdown` verb on *any* connection quiesces the whole process —
//! the accept loop stops, every connection drains its buffered requests
//! and exits, and [`serve`] joins them all before returning the final
//! report. No thread is ever killed mid-request.
//!
//! The manager synchronises itself (see its module doc): a short registry
//! lock for lookup, LRU and admission, and one lock per session, never
//! nested the wrong way round. So evaluation runs under the lock of the
//! session it belongs to and nothing else — one session's pushes are
//! serialised, which keeps replies deterministic per session stream (what
//! the byte-identical acceptance tests pin), while a connection never
//! waits behind another tenant's fixpoint, and a panic in one tenant's
//! evaluation is that session's `session_failed`, not an outage. `ping`,
//! `shutdown`, unknown ops and unparseable lines take no lock at all.
//! Input is bounded where it enters: a line may not exceed [`MAX_LINE`].
//!
//! Observability (DESIGN.md §16): when the collector is enabled the
//! server additionally runs a watchdog thread that samples the collector
//! once per tick — feeding both the SLO [`Watchdog`] (health state served
//! by `ping`/`metrics`) and a [`RollingWindow`] whose deltas back the
//! Prometheus-style exposition of the `metrics` verb. Requests carrying a
//! trace context (`"flow"`/`"lamport"`) are `flow_recv`ed into the
//! collector, linking the client's send span to the server-side op span
//! in a merged trace.

use crate::slo::{Health, SloSpec, Watchdog};
use crate::wire::{self, Obj, Request};
use rescue_diagnosis::{ManagerConfig, ManagerError, PushReply, SessionManager, SessionStats};
use rescue_petri::PetriNet;
use rescue_telemetry::merge::keys;
use rescue_telemetry::window::RollingWindow;
use rescue_telemetry::{expose, Arg, Collector};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Everything a server run needs: the manager policy, the nets sessions
/// may be created against, and a telemetry sink.
pub struct ServerConfig {
    pub manager: ManagerConfig,
    /// `(name, net)` registrations; the first is the default for `create`
    /// requests that name no net.
    pub nets: Vec<(String, PetriNet)>,
    /// Enabled => per-request spans + `server.*`/`manager.*` counters
    /// (exportable as a Chrome trace after shutdown).
    pub collector: Collector,
    /// Service objectives the watchdog evaluates (needs an enabled
    /// collector — latency SLOs are read off its series sampler).
    pub slo: SloSpec,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            manager: ManagerConfig::default(),
            nets: Vec::new(),
            collector: Collector::disabled(),
            slo: SloSpec::default(),
        }
    }
}

/// What a completed (shut down) server run did.
#[derive(Clone, Debug)]
pub struct ServerReport {
    pub connections: u64,
    pub requests: u64,
    /// Protocol errors answered (malformed lines and unknown ops; manager
    /// refusals like unknown sessions are counted by the manager).
    pub errors: u64,
    pub manager: rescue_diagnosis::ManagerStats,
}

struct Shared {
    manager: SessionManager,
    shutdown: AtomicBool,
    connections: AtomicU64,
    requests: AtomicU64,
    errors: AtomicU64,
    collector: Collector,
    /// Current [`Health`] code, written by the watchdog, read by
    /// `ping`/`metrics` replies.
    health: AtomicU8,
    /// Rolling window of collector snapshots backing the `metrics`
    /// exposition (fed by the watchdog tick and by each scrape).
    window: Mutex<RollingWindow>,
    /// Wall-clock start, for `uptime_us` even without a collector.
    start: Instant,
}

/// How long blocked reads and idle accepts wait before re-checking the
/// shutdown flag — the *initial* per-connection read timeout.
const POLL: Duration = Duration::from_millis(20);

/// Idle connections double their read timeout up to this cap, so a
/// thousand parked clients don't wake 50×/s each; the first byte of
/// traffic resets them to [`POLL`].
const POLL_MAX: Duration = Duration::from_millis(200);

/// Longest request line accepted. A client that sends more without a
/// newline is answered `bad_request` and disconnected, so one connection
/// cannot grow server memory without bound.
pub const MAX_LINE: usize = 1 << 20;

/// Watchdog cadence: one series sample + SLO evaluation per tick.
const WATCHDOG_TICK: Duration = Duration::from_millis(100);

/// Serve `listener` until a `shutdown` request arrives; returns the run
/// report after every connection thread has drained and joined.
pub fn serve(listener: TcpListener, config: ServerConfig) -> std::io::Result<ServerReport> {
    let mut manager = SessionManager::new(config.manager);
    manager.set_collector(config.collector.clone());
    for (name, net) in config.nets {
        manager.register_net(&name, net);
    }
    let shared = Arc::new(Shared {
        manager,
        shutdown: AtomicBool::new(false),
        connections: AtomicU64::new(0),
        requests: AtomicU64::new(0),
        errors: AtomicU64::new(0),
        collector: config.collector,
        health: AtomicU8::new(Health::Ok.as_u8()),
        window: Mutex::new(RollingWindow::default()),
        start: Instant::now(),
    });
    listener.set_nonblocking(true)?;
    // The SLO/window watchdog needs collector data; without a collector
    // there is nothing to sample and health stays `ok`.
    let watchdog = shared.collector.is_enabled().then(|| {
        let shared = Arc::clone(&shared);
        let spec = config.slo.clone();
        std::thread::spawn(move || watchdog_loop(&shared, spec))
    });
    let mut handles = Vec::new();
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                shared.connections.fetch_add(1, Ordering::Relaxed);
                shared.collector.count("server.connections", 1);
                let shared = Arc::clone(&shared);
                handles.push(std::thread::spawn(move || {
                    handle_connection(stream, &shared)
                }));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                std::thread::sleep(POLL);
            }
            Err(e) => return Err(e),
        }
    }
    for h in handles {
        // A connection thread never panics on protocol input (errors are
        // replies), so a join failure is a real bug worth surfacing.
        h.join().expect("connection thread panicked");
    }
    if let Some(w) = watchdog {
        w.join().expect("watchdog thread panicked");
    }
    let shared =
        Arc::try_unwrap(shared).unwrap_or_else(|_| unreachable!("all connection threads joined"));
    Ok(ServerReport {
        connections: shared.connections.into_inner(),
        requests: shared.requests.into_inner(),
        errors: shared.errors.into_inner(),
        manager: shared.manager.stats(),
    })
}

/// A [`serve`] loop on its own thread, bound to an ephemeral localhost
/// port — the in-process form the tests and experiment E18 drive.
pub struct ServerHandle {
    pub addr: SocketAddr,
    thread: std::thread::JoinHandle<std::io::Result<ServerReport>>,
}

impl ServerHandle {
    /// Wait for the server to shut down (a client must send `shutdown`).
    pub fn join(self) -> std::io::Result<ServerReport> {
        self.thread.join().expect("server thread panicked")
    }
}

pub fn spawn(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let thread = std::thread::spawn(move || serve(listener, config));
    Ok(ServerHandle { addr, thread })
}

/// The per-tick observability loop: sample the collector's series (one
/// [`rescue_telemetry::series::SeriesPoint`] of deltas since the last
/// tick), evaluate the SLO spec over it, publish the health code, emit a
/// structured instant on every state transition, and feed the rolling
/// window behind the `metrics` exposition.
fn watchdog_loop(shared: &Shared, spec: SloSpec) {
    if !shared.collector.has_series() {
        shared
            .collector
            .attach_series(rescue_telemetry::series::DEFAULT_SERIES_CAPACITY);
    }
    let mut watchdog = Watchdog::new(spec);
    while !shared.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(WATCHDOG_TICK);
        let resident = shared.connections.load(Ordering::Relaxed);
        shared
            .collector
            .sample_series("watchdog", &[("connections", resident)]);
        let Some(point) = shared.collector.series_points().into_iter().next_back() else {
            continue;
        };
        let obs = watchdog.observe(&point);
        shared.health.store(obs.health.as_u8(), Ordering::Relaxed);
        if obs.changed {
            let name = if obs.health == Health::Ok {
                "slo.recovered"
            } else {
                "slo.crossed"
            };
            let mut args: Vec<(String, Arg)> = vec![(
                "health".to_owned(),
                Arg::Str(obs.health.as_str().to_owned()),
            )];
            for (i, b) in obs.breaches.iter().enumerate() {
                args.push((format!("breach{i}"), Arg::Str(b.clone())));
            }
            shared.collector.instant(name, "slo", args);
            shared.collector.count(&format!("server.{name}"), 1);
        }
        shared
            .window
            .lock()
            .expect("window mutex poisoned")
            .observe(shared.collector.elapsed_us(), shared.collector.snapshot());
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let mut timeout = POLL;
    let _ = stream.set_read_timeout(Some(timeout));
    let mut acc: Vec<u8> = Vec::new();
    // `acc[..scanned]` is known to hold no newline: each byte is searched
    // once and the buffer shifts once per read, however many lines it held.
    let mut scanned = 0;
    let mut buf = [0u8; 8 * 1024];
    loop {
        // Answer complete lines before reading more, so a shutdown seen
        // mid-buffer still answers everything the client already sent.
        let mut start = 0;
        while let Some(len) = acc[scanned..].iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&acc[start..scanned + len]);
            start = scanned + len + 1;
            scanned = start;
            if !line.trim().is_empty() && !respond(&line, &mut stream, shared) {
                return;
            }
        }
        acc.drain(..start);
        scanned = acc.len();
        if scanned > MAX_LINE {
            let _ = writeln!(stream, "{}", bad_request(shared, "line too long"));
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => {
                acc.extend_from_slice(&buf[..n]);
                shared.collector.count("server.poll.busy", 1);
                if timeout != POLL {
                    // Traffic resumed: back to the responsive timeout.
                    timeout = POLL;
                    let _ = stream.set_read_timeout(Some(timeout));
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                shared.collector.count("server.poll.idle", 1);
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if timeout < POLL_MAX {
                    // Exponential backoff while idle: 20 → 40 → 80 → 160
                    // → 200ms, bounding shutdown latency at POLL_MAX.
                    timeout = (timeout * 2).min(POLL_MAX);
                    let _ = stream.set_read_timeout(Some(timeout));
                }
            }
            Err(_) => return,
        }
    }
}

/// Handle one request line; false = tear the connection down (write
/// failure — the client is gone).
fn respond(line: &str, stream: &mut TcpStream, shared: &Shared) -> bool {
    shared.requests.fetch_add(1, Ordering::Relaxed);
    shared.collector.count("server.requests", 1);
    let replies = match wire::parse_request(line) {
        Ok(req) => dispatch(&req, shared),
        Err(e) => vec![bad_request(shared, &e)],
    };
    for reply in replies {
        if stream
            .write_all(reply.as_bytes())
            .and_then(|()| stream.write_all(b"\n"))
            .is_err()
        {
            shared.collector.count("server.write_failures", 1);
            return false;
        }
    }
    true
}

/// Count and render the reply to input that never became a request.
fn bad_request(shared: &Shared, detail: &str) -> String {
    shared.errors.fetch_add(1, Ordering::Relaxed);
    shared.collector.count("server.errors", 1);
    wire::err("?", "bad_request", detail).finish()
}

/// Render a manager error as the protocol reply for `op`.
fn manager_err(op: &str, e: &ManagerError) -> Obj {
    let code = match e {
        ManagerError::UnknownSession(_) => "unknown_session",
        ManagerError::DuplicateSession(_) => "duplicate_session",
        ManagerError::UnknownNet(_) => "unknown_net",
        ManagerError::SupervisorCollision(_) => "supervisor_collision",
        ManagerError::AdmissionDenied { .. } => "admission_denied",
        ManagerError::SessionFailed { .. } => "session_failed",
    };
    let mut obj = wire::err(op, code, &e.to_string());
    if let ManagerError::SessionFailed { id, flight, .. } = e {
        obj = obj.str("session", id);
        if !flight.is_empty() {
            // The flight dump is itself JSON (pretty-printed): compact it
            // onto the reply line, don't double-encode it as a string.
            obj = obj.raw("flight", &wire::compact(flight));
        }
    }
    if let ManagerError::AdmissionDenied { resident, cap } = e {
        obj = obj
            .num("resident", *resident as u64)
            .num("cap", *cap as u64);
    }
    obj
}

fn push_summary(req: &Request, id: &str, r: &PushReply) -> String {
    let ok = r.dropped == 0;
    let mut obj = Obj::new()
        .bool("ok", ok)
        .str("op", "push")
        .str("session", id);
    if !ok {
        obj = obj.str("error", "backpressure").str(
            "detail",
            "batch overflowed the ingest queue; retry the remainder",
        );
    }
    obj = obj
        .num("accepted", r.accepted as u64)
        .num("dropped", r.dropped as u64)
        .num("capacity", r.capacity as u64)
        .num("alarms", r.alarms_total as u64)
        .num("explanations", r.diagnosis.len() as u64);
    if req.include_diagnosis {
        obj = obj.raw("diagnosis", &wire::diagnosis_json(&r.diagnosis));
    }
    obj.finish()
}

/// The `metrics` reply's per-session table (MRU-first), one compact
/// object per session — everything `rescue-top` renders a row from.
fn session_rows_json(rows: &[SessionStats]) -> String {
    let rendered: Vec<String> = rows
        .iter()
        .map(|r| {
            Obj::new()
                .str("id", &r.id)
                .num("alarms", r.alarms as u64)
                .num("facts", r.facts as u64)
                .bool("attached", r.attached)
                .bool("failed", r.failed.is_some())
                .num("pushes", r.pushes)
                .num("last_batch", r.last_batch as u64)
                .num("push_p50_us", r.push_p50_us)
                .num("push_p99_us", r.push_p99_us)
                .finish()
        })
        .collect();
    format!("[{}]", rendered.join(","))
}

/// Execute one request against the shared state. Returns the reply lines
/// (streamed pushes produce several).
fn dispatch(req: &Request, shared: &Shared) -> Vec<String> {
    let op = req.op.as_str();
    let traced = shared.collector.is_enabled();
    let _span = traced.then(|| shared.collector.span(format!("op {op}"), "server"));
    if traced {
        shared.collector.count(&format!("server.op.{op}"), 1);
        // Trace context: bind the client's send to this op span, so the
        // merged trace draws the arrow client → connection thread →
        // manager → fixpoint. Only the Lamport stamp crosses the wire
        // (Instants cannot); merged-timeline feasibility comes from the
        // offset solver, exactly as for dQSQ peer messages.
        if let Some(flow) = req.flow {
            let merged = shared.collector.lamport_observe(req.lamport.unwrap_or(0));
            shared.collector.flow_recv(
                format!("op {op}"),
                "wire",
                flow,
                vec![(keys::LAMPORT.to_owned(), Arg::Num(merged))],
            );
        }
    }
    let t0 = Instant::now();
    let replies = dispatch_op(req, shared);
    if traced {
        // Per-op service latency (µs) — the histograms behind the
        // `metrics` exposition and the rescue-top latency columns.
        shared.collector.record(
            &format!("server.latency.{op}"),
            t0.elapsed().as_micros() as u64,
        );
    }
    replies
}

fn dispatch_op(req: &Request, shared: &Shared) -> Vec<String> {
    let op = req.op.as_str();
    let traced = shared.collector.is_enabled();
    let need_session = || -> Result<&str, Vec<String>> {
        req.session
            .as_deref()
            .ok_or_else(|| vec![wire::err(op, "bad_request", "missing \"session\"").finish()])
    };
    let mgr = &shared.manager;
    match op {
        "ping" => {
            let health = Health::from_u8(shared.health.load(Ordering::Relaxed));
            vec![wire::ok("pong")
                .str("health", health.as_str())
                .num("uptime_us", shared.start.elapsed().as_micros() as u64)
                .finish()]
        }
        "create" => match mgr.create(req.session.as_deref(), req.net.as_deref()) {
            Ok(id) => {
                let net = req
                    .net
                    .clone()
                    .or_else(|| mgr.net_names().first().cloned())
                    .unwrap_or_default();
                vec![wire::ok("create")
                    .str("session", &id)
                    .str("net", &net)
                    .finish()]
            }
            Err(e) => vec![manager_err(op, &e).finish()],
        },
        "attach" => match need_session() {
            Err(r) => r,
            Ok(id) => match mgr.attach(id) {
                Ok(alarms) => vec![wire::ok("attach")
                    .str("session", id)
                    .num("alarms", alarms as u64)
                    .finish()],
                Err(e) => vec![manager_err(op, &e).finish()],
            },
        },
        "detach" => match need_session() {
            Err(r) => r,
            Ok(id) => match mgr.detach(id) {
                Ok(()) => vec![wire::ok("detach").str("session", id).finish()],
                Err(e) => vec![manager_err(op, &e).finish()],
            },
        },
        "destroy" => match need_session() {
            Err(r) => r,
            Ok(id) => match mgr.destroy(id) {
                Ok(()) => vec![wire::ok("destroy").str("session", id).finish()],
                Err(e) => vec![manager_err(op, &e).finish()],
            },
        },
        "push" => match need_session() {
            Err(r) => r,
            Ok(id) => {
                let t0 = Instant::now();
                let mut lines = Vec::new();
                let outcome = if req.stream && !req.alarms.is_empty() {
                    // Streaming: one delta reply per alarm, each a
                    // singleton batch through the same manager path.
                    let mut last: Result<PushReply, ManagerError> =
                        Err(ManagerError::UnknownSession(id.to_owned()));
                    let mut n_before = None;
                    for alarm in &req.alarms {
                        let r = mgr.push(id, std::slice::from_ref(alarm));
                        if let Ok(ok) = &r {
                            n_before.get_or_insert(ok.alarms_total - ok.accepted);
                            let mut obj = wire::ok("delta")
                                .str("session", id)
                                .str("alarm", &format!("{}@{}", alarm.symbol, alarm.peer))
                                .num("n", ok.alarms_total as u64)
                                .num("explanations", ok.diagnosis.len() as u64);
                            if req.include_diagnosis {
                                obj = obj.raw("diagnosis", &wire::diagnosis_json(&ok.diagnosis));
                            }
                            lines.push(obj.finish());
                        }
                        let failed = r.is_err();
                        last = r;
                        if failed {
                            break;
                        }
                    }
                    last.map(|mut r| {
                        // The summary line accounts for the whole payload.
                        r.accepted = r.alarms_total - n_before.unwrap_or(r.alarms_total);
                        r.dropped = 0;
                        r
                    })
                } else {
                    mgr.push(id, &req.alarms)
                };
                if traced {
                    shared
                        .collector
                        .record("server.push_latency_us", t0.elapsed().as_micros() as u64);
                }
                match outcome {
                    Ok(r) => lines.push(push_summary(req, id, &r)),
                    Err(e) => lines.push(manager_err(op, &e).finish()),
                }
                lines
            }
        },
        "diagnosis" => match need_session() {
            Err(r) => r,
            Ok(id) => match mgr.diagnosis(id) {
                Ok(d) => {
                    let mut obj = wire::ok("diagnosis")
                        .str("session", id)
                        .num("explanations", d.len() as u64);
                    if req.include_diagnosis {
                        obj = obj.raw("diagnosis", &wire::diagnosis_json(&d));
                    }
                    vec![obj.finish()]
                }
                Err(e) => vec![manager_err(op, &e).finish()],
            },
        },
        "stats" => match &req.session {
            Some(id) => match mgr.session_stats(id) {
                Ok(s) => {
                    let mut obj = wire::ok("stats")
                        .str("session", id)
                        .num("alarms", s.alarms as u64)
                        .num("facts", s.facts as u64)
                        .bool("attached", s.attached)
                        .num("rule_firings", s.eval.rule_firings as u64)
                        .num("candidates_scanned", s.eval.candidates_scanned as u64)
                        .num("facts_derived", s.eval.facts_derived as u64)
                        .num("plans_compiled", s.eval.plans_compiled as u64)
                        .num("iterations", s.eval.iterations as u64);
                    if let Some(reason) = &s.failed {
                        obj = obj.str("failed", reason);
                    }
                    vec![obj.finish()]
                }
                Err(e) => vec![manager_err(op, &e).finish()],
            },
            None => {
                let s = mgr.stats();
                vec![wire::ok("stats")
                    .num("resident", s.resident as u64)
                    .num("attached", s.attached as u64)
                    .num("created", s.created)
                    .num("destroyed", s.destroyed)
                    .num("evicted", s.evicted)
                    .num("rejected", s.rejected)
                    .num("failed", s.failed)
                    .num("alarms_accepted", s.alarms_accepted)
                    .num("backpressure_replies", s.backpressure_replies)
                    .num("rule_firings", s.eval.rule_firings as u64)
                    .num("candidates_scanned", s.eval.candidates_scanned as u64)
                    .num("facts_derived", s.eval.facts_derived as u64)
                    .num("plans_compiled", s.eval.plans_compiled as u64)
                    .finish()]
            }
        },
        "metrics" => {
            let s = mgr.stats_lite();
            let rows = mgr.session_table(req.top);
            let ingest_capacity = mgr.config().ingest_capacity;
            let health = Health::from_u8(shared.health.load(Ordering::Relaxed));
            let mut obj = wire::ok("metrics")
                .str("health", health.as_str())
                .num("uptime_us", shared.start.elapsed().as_micros() as u64)
                .num("resident", s.resident as u64)
                .num("attached", s.attached as u64)
                .num("created", s.created)
                .num("destroyed", s.destroyed)
                .num("evicted", s.evicted)
                .num("rejected", s.rejected)
                .num("failed", s.failed)
                .num("alarms_accepted", s.alarms_accepted)
                .num("backpressure_replies", s.backpressure_replies)
                .num("ingest_capacity", ingest_capacity as u64)
                .raw("sessions", &session_rows_json(&rows));
            if traced {
                // Scrapes double as window samples, so exposition rates
                // stay fresh even between watchdog ticks.
                let snap = shared.collector.snapshot();
                let delta = {
                    let mut w = shared.window.lock().expect("window mutex poisoned");
                    w.observe(shared.collector.elapsed_us(), snap.clone());
                    w.delta()
                };
                let gauges = vec![
                    ("sessions_resident".to_owned(), s.resident as f64),
                    ("sessions_attached".to_owned(), s.attached as f64),
                    ("sessions_evicted_total".to_owned(), s.evicted as f64),
                    (
                        "backpressure_replies_total".to_owned(),
                        s.backpressure_replies as f64,
                    ),
                    ("ingest_capacity".to_owned(), ingest_capacity as f64),
                    ("health".to_owned(), health.as_u8() as f64),
                ];
                let text = expose::prometheus_text("rescue", &snap, &gauges, Some(&delta));
                obj = obj.num("window_us", delta.span_us).str("exposition", &text);
            }
            vec![obj.finish()]
        }
        "profile" => match need_session() {
            Err(r) => r,
            Ok(id) => match mgr.session_profile(id) {
                Ok(p) => {
                    let frames: Vec<String> = p
                        .top_k(req.top)
                        .into_iter()
                        .map(|r| {
                            Obj::new()
                                .str("frame", &r.frame())
                                .num("wall_us", r.wall_us)
                                .num("candidates", r.candidates)
                                .finish()
                        })
                        .collect();
                    vec![wire::ok("profile")
                        .str("session", id)
                        .num("frames", frames.len() as u64)
                        .raw("top", &format!("[{}]", frames.join(",")))
                        .finish()]
                }
                Err(e) => vec![manager_err(op, &e).finish()],
            },
        },
        "list" => {
            let ids = mgr.session_ids();
            let rendered: Vec<String> = ids.iter().map(|s| wire::esc(s)).collect();
            vec![wire::ok("list")
                .num("resident", ids.len() as u64)
                .raw("sessions", &format!("[{}]", rendered.join(",")))
                .finish()]
        }
        "shutdown" => {
            shared.shutdown.store(true, Ordering::SeqCst);
            vec![wire::ok("shutdown").finish()]
        }
        other => {
            shared.errors.fetch_add(1, Ordering::Relaxed);
            vec![wire::err(other, "unknown_op", &format!("unknown op {other}")).finish()]
        }
    }
}
