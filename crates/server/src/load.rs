//! The `rescue-load` generator: many concurrent connections driving
//! interleaved alarm streams over many sessions against one server.
//!
//! Each session gets a deterministic alarm sequence sampled from the
//! net's own behaviour (`random_run(net, seed ^ session_index)`), pushed
//! in batches interleaved round-robin across the sessions a connection
//! owns — so the server sees thousands of live sessions advancing
//! together, not one session at a time. Latency is measured client-side
//! per push (request written → summary reply read) and reported as
//! p50/p99/max.
//!
//! With [`LoadSpec::verify`] on, every session's final diagnosis is
//! compared byte-for-byte (canonical JSON) against a local
//! single-session [`DiagnosisSession::push_all`] over the same sequence —
//! the acceptance check that multi-tenancy, batching, backpressure
//! retries and detach/reattach cycles never perturb a diagnosis.
//! Expected diagnoses are memoized per distinct sequence, so verification
//! stays cheap even at thousands of sessions.

use crate::wire;
use rescue_diagnosis::{Alarm, AlarmSeq, Diagnosis, DiagnosisSession};
use rescue_petri::{exec::random_run, PetriNet};
use rescue_telemetry::json::{self, Obj, Value};
use rescue_telemetry::merge::keys;
use rescue_telemetry::{Arg, Collector};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What to drive at the server.
#[derive(Clone, Debug)]
pub struct LoadSpec {
    /// The net the *server* will diagnose against; the client uses it to
    /// sample alarm sequences and (under `verify`) compute expectations.
    pub net: PetriNet,
    /// Net name to pass on `create` (None = server default).
    pub net_name: Option<String>,
    pub sessions: usize,
    pub alarms_per_session: usize,
    /// Alarms per `push` request.
    pub batch: usize,
    /// Concurrent client connections; session `i` is driven by
    /// connection `i % connections`.
    pub connections: usize,
    pub seed: u64,
    /// Compare every final diagnosis against a local batch run.
    pub verify: bool,
    /// Detach and re-attach every session after its first batch —
    /// exercises the lifecycle path under load.
    pub detach_reattach: bool,
    /// Send `shutdown` after the run (for smoke tests owning the server).
    pub shutdown: bool,
    /// Client-side trace collector. When enabled, every request is
    /// wrapped in a client span and stamped with a trace context
    /// (`"flow"`/`"lamport"`) that a tracing server `flow_recv`s, so a
    /// merged trace shows the causal chain client → connection thread →
    /// session. Give it a namespace distinct from the server's
    /// ([`Collector::with_namespace`]) so flow ids never collide.
    pub collector: Collector,
}

impl Default for LoadSpec {
    fn default() -> Self {
        LoadSpec {
            net: rescue_petri::figure1(),
            net_name: None,
            sessions: 100,
            alarms_per_session: 3,
            batch: 2,
            connections: 4,
            seed: 42,
            verify: true,
            detach_reattach: false,
            shutdown: false,
            collector: Collector::disabled(),
        }
    }
}

/// Client-side results of one load run.
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// Sessions successfully created and driven to completion.
    pub sessions: usize,
    /// Push requests answered (including backpressure retries).
    pub pushes: u64,
    /// Alarms the server accepted.
    pub alarms: u64,
    pub p50_us: u64,
    pub p99_us: u64,
    pub max_us: u64,
    pub wall_s: f64,
    pub sessions_per_sec: f64,
    pub pushes_per_sec: f64,
    /// Backpressure replies observed (each was retried).
    pub backpressure_replies: u64,
    /// `create` requests refused by admission control.
    pub rejected_sessions: u64,
    /// Sessions that died mid-stream (blown budget etc.).
    pub failed_sessions: u64,
    /// Final diagnoses that differed from the local expectation
    /// (only counted under `verify`; must be 0).
    pub mismatches: u64,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One line-JSON connection: write a request, read reply lines.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            writer: stream,
            reader,
        })
    }

    /// Send one request, read exactly one reply object.
    fn call(&mut self, req: &str) -> io::Result<Value> {
        self.writer.write_all(req.as_bytes())?;
        self.writer.write_all(b"\n")?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        json::parse(line.trim_end()).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad reply {line:?}: {e}"),
            )
        })
    }
}

/// Send one request with the client's trace context appended: a fresh
/// flow id plus the Lamport stamp after a local tick, recorded as a
/// `flow_send` inside a client span covering write + reply read. With a
/// disabled collector this is exactly [`Client::call`].
fn traced_call(client: &mut Client, col: &Collector, label: &str, req: Obj) -> io::Result<Value> {
    if !col.is_enabled() {
        return client.call(&req.finish());
    }
    let _span = col.span(label.to_owned(), "client");
    let flow = col.flow_id();
    let lamport = col.lamport_tick();
    col.flow_send(
        label.to_owned(),
        "wire",
        flow,
        vec![(keys::LAMPORT.to_owned(), Arg::Num(lamport))],
    );
    client.call(&req.num("flow", flow).num("lamport", lamport).finish())
}

/// A request for `op` on one session, before any further fields.
fn request(op: &str, session: &str) -> Obj {
    Obj::new().str("op", op).str("session", session)
}

fn get_bool(v: &Value, key: &str) -> bool {
    matches!(v.get(key), Some(Value::Bool(true)))
}

fn get_num(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_number).unwrap_or(0.0) as u64
}

fn get_str<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).unwrap_or("")
}

/// The alarm sequence session `i` replays: a random legal run of the net,
/// deterministic in `(spec.seed, i)`.
fn session_sequence(spec: &LoadSpec, i: usize) -> AlarmSeq {
    let run = random_run(&spec.net, spec.seed ^ i as u64, spec.alarms_per_session)
        .expect("random_run only fires enabled transitions");
    AlarmSeq::from_run(&spec.net, &run)
}

fn alarms_payload(alarms: &[Alarm]) -> String {
    let toks: Vec<String> = alarms
        .iter()
        .map(|a| format!("{}@{}", a.symbol, a.peer))
        .collect();
    toks.join(" ")
}

/// Canonical JSON for the diagnosis embedded in a reply.
fn reply_diagnosis_json(reply: &Value) -> Option<String> {
    let sets = reply.get("diagnosis")?.as_array()?;
    let mut out: Vec<Vec<String>> = Vec::with_capacity(sets.len());
    for s in sets {
        out.push(
            s.as_array()?
                .iter()
                .map(|e| e.as_str().map(str::to_owned))
                .collect::<Option<Vec<_>>>()?,
        );
    }
    Some(wire::diagnosis_json(&Diagnosis::from_sets(out)))
}

/// Expected final diagnosis for a sequence, memoized per distinct
/// sequence (rendered canonically for byte comparison).
struct Expectations {
    net: PetriNet,
    memo: Mutex<rustc_hash::FxHashMap<String, String>>,
}

impl Expectations {
    fn lookup(&self, seq: &AlarmSeq) -> String {
        let key = alarms_payload(&seq.alarms);
        if let Some(hit) = self.memo.lock().unwrap().get(&key) {
            return hit.clone();
        }
        let mut session =
            DiagnosisSession::new(&self.net, "supervisor0").expect("local verification session");
        let d = session.push_all(seq).expect("local verification run");
        let rendered = wire::diagnosis_json(&d);
        self.memo.lock().unwrap().insert(key, rendered.clone());
        rendered
    }
}

#[derive(Default)]
struct Tally {
    sessions: usize,
    pushes: u64,
    alarms: u64,
    backpressure: u64,
    rejected: u64,
    failed: u64,
    mismatches: u64,
    latencies_us: Vec<u64>,
}

/// Drive `spec` against the server at `addr` and report client-side
/// throughput, latency percentiles, and verification mismatches.
pub fn run_load(addr: &str, spec: LoadSpec) -> io::Result<LoadReport> {
    let spec = Arc::new(spec);
    let expect = Arc::new(Expectations {
        net: spec.net.clone(),
        memo: Mutex::new(rustc_hash::FxHashMap::default()),
    });
    let t0 = Instant::now();
    let conns = spec.connections.max(1);
    let mut handles = Vec::with_capacity(conns);
    for conn in 0..conns {
        let spec = Arc::clone(&spec);
        let expect = Arc::clone(&expect);
        let addr = addr.to_owned();
        handles.push(std::thread::spawn(move || -> io::Result<Tally> {
            drive_connection(&addr, conn, &spec, &expect)
        }));
    }
    let mut total = Tally::default();
    for h in handles {
        let t = h.join().expect("load connection thread panicked")?;
        total.sessions += t.sessions;
        total.pushes += t.pushes;
        total.alarms += t.alarms;
        total.backpressure += t.backpressure;
        total.rejected += t.rejected;
        total.failed += t.failed;
        total.mismatches += t.mismatches;
        total.latencies_us.extend(t.latencies_us);
    }
    if spec.shutdown {
        let mut c = Client::connect(addr)?;
        traced_call(
            &mut c,
            &spec.collector,
            "shutdown",
            Obj::new().str("op", "shutdown"),
        )?;
    }
    let wall_s = t0.elapsed().as_secs_f64().max(1e-9);
    total.latencies_us.sort_unstable();
    Ok(LoadReport {
        sessions: total.sessions,
        pushes: total.pushes,
        alarms: total.alarms,
        p50_us: percentile(&total.latencies_us, 50.0),
        p99_us: percentile(&total.latencies_us, 99.0),
        max_us: total.latencies_us.last().copied().unwrap_or(0),
        wall_s,
        sessions_per_sec: total.sessions as f64 / wall_s,
        pushes_per_sec: total.pushes as f64 / wall_s,
        backpressure_replies: total.backpressure,
        rejected_sessions: total.rejected,
        failed_sessions: total.failed,
        mismatches: total.mismatches,
    })
}

/// One connection's work: create its sessions, interleave batched pushes
/// round-robin across them, optionally cycle detach/attach, then fetch
/// and (optionally) verify every final diagnosis.
fn drive_connection(
    addr: &str,
    conn: usize,
    spec: &LoadSpec,
    expect: &Expectations,
) -> io::Result<Tally> {
    let mut client = Client::connect(addr)?;
    let mut tally = Tally::default();

    struct Live {
        index: usize,
        id: String,
        seq: AlarmSeq,
        /// Next alarm offset to push.
        cursor: usize,
        cycled: bool,
        /// Stopped early (failed or evicted); skip the final fetch.
        dead: bool,
    }
    let mut live: Vec<Live> = Vec::new();
    for index in (conn..spec.sessions).step_by(spec.connections.max(1)) {
        let id = format!("load-{index}");
        let mut req = request("create", &id);
        if let Some(net) = &spec.net_name {
            req = req.str("net", net);
        }
        let reply = traced_call(&mut client, &spec.collector, &format!("create {id}"), req)?;
        if !get_bool(&reply, "ok") {
            if get_str(&reply, "error") == "admission_denied" {
                tally.rejected += 1;
                continue;
            }
            return Err(io::Error::other(format!(
                "create {id} failed: {}",
                get_str(&reply, "detail")
            )));
        }
        live.push(Live {
            index,
            id,
            seq: session_sequence(spec, index),
            cursor: 0,
            cycled: false,
            dead: false,
        });
    }

    // Interleaved rounds: every live session advances one batch per round,
    // so the streams overlap instead of running back-to-back.
    let batch = spec.batch.max(1);
    loop {
        let mut any = false;
        for s in &mut live {
            if s.cursor >= s.seq.alarms.len() {
                continue;
            }
            any = true;
            if spec.detach_reattach && !s.cycled && s.cursor > 0 {
                s.cycled = true;
                traced_call(
                    &mut client,
                    &spec.collector,
                    &format!("detach {}", s.id),
                    request("detach", &s.id),
                )?;
                let reply = traced_call(
                    &mut client,
                    &spec.collector,
                    &format!("attach {}", s.id),
                    request("attach", &s.id),
                )?;
                if !get_bool(&reply, "ok") {
                    // Evicted while detached (admission pressure): the
                    // session is gone; count it and stop driving it.
                    tally.failed += 1;
                    s.cursor = s.seq.alarms.len();
                    s.dead = true;
                    continue;
                }
            }
            let end = (s.cursor + batch).min(s.seq.alarms.len());
            let mut window = &s.seq.alarms[s.cursor..end];
            // Push, retrying the remainder after any backpressure reply.
            while !window.is_empty() {
                let t = Instant::now();
                let reply = traced_call(
                    &mut client,
                    &spec.collector,
                    &format!("push {}", s.id),
                    request("push", &s.id)
                        .str("alarms", &alarms_payload(window))
                        .bool("diagnosis", false),
                )?;
                tally.latencies_us.push(t.elapsed().as_micros() as u64);
                tally.pushes += 1;
                let accepted = get_num(&reply, "accepted") as usize;
                tally.alarms += accepted as u64;
                if get_bool(&reply, "ok") {
                    window = &window[accepted.min(window.len())..];
                } else if get_str(&reply, "error") == "backpressure" {
                    tally.backpressure += 1;
                    window = &window[accepted.min(window.len())..];
                } else {
                    tally.failed += 1;
                    s.cursor = s.seq.alarms.len();
                    s.dead = true;
                    window = &[];
                }
            }
            if s.cursor < s.seq.alarms.len() {
                s.cursor = end;
            }
        }
        if !any {
            break;
        }
    }

    // Final diagnosis per surviving session, verified if asked.
    for s in &live {
        if s.dead {
            continue;
        }
        let reply = traced_call(
            &mut client,
            &spec.collector,
            &format!("diagnosis {}", s.id),
            request("diagnosis", &s.id),
        )?;
        if !get_bool(&reply, "ok") {
            tally.failed += 1;
            continue;
        }
        tally.sessions += 1;
        if spec.verify {
            let got = reply_diagnosis_json(&reply).unwrap_or_default();
            let want = expect.lookup(&s.seq);
            if got != want {
                tally.mismatches += 1;
                eprintln!(
                    "rescue-load: session {} (index {}) diverged:\n  got  {got}\n  want {want}",
                    s.id, s.index
                );
            }
        }
    }
    Ok(tally)
}
