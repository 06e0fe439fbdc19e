//! End-to-end protocol tests: a real `rescue-server` loop on an
//! ephemeral port, driven over real sockets.

use rescue_datalog::EvalBudget;
use rescue_diagnosis::ManagerConfig;
use rescue_petri::figure1;
use rescue_server::{spawn, LoadSpec, ServerConfig, ServerHandle};
use rescue_telemetry::json::{self, Value};
use rescue_telemetry::Collector;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

fn server(manager: ManagerConfig) -> ServerHandle {
    spawn(ServerConfig {
        manager,
        nets: vec![("figure1".to_owned(), figure1())],
        ..ServerConfig::default()
    })
    .expect("spawn server")
}

/// A server with tracing on (namespace 2; test clients use namespace 1
/// so flow ids can never collide in a merged trace).
fn traced_server(manager: ManagerConfig, collector: Collector) -> ServerHandle {
    spawn(ServerConfig {
        manager,
        nets: vec![("figure1".to_owned(), figure1())],
        collector,
        ..ServerConfig::default()
    })
    .expect("spawn server")
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(handle: &ServerHandle) -> Client {
        let stream = TcpStream::connect(handle.addr).expect("connect");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Client {
            writer: stream,
            reader,
        }
    }

    fn send(&mut self, req: &str) {
        self.writer.write_all(req.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
    }

    fn recv(&mut self) -> Value {
        let mut line = String::new();
        assert!(self.reader.read_line(&mut line).unwrap() > 0, "server EOF");
        json::parse(line.trim_end()).unwrap_or_else(|e| panic!("bad reply {line:?}: {e}"))
    }

    fn call(&mut self, req: &str) -> Value {
        self.send(req);
        self.recv()
    }
}

fn ok(v: &Value) -> bool {
    v.get("ok") == Some(&Value::Bool(true))
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_number).unwrap_or(f64::NAN)
}

fn s<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).unwrap_or("")
}

fn diagnosis_of(v: &Value) -> String {
    format!("{:?}", v.get("diagnosis").expect("diagnosis present"))
}

#[test]
fn lifecycle_over_tcp_detach_attach_equals_uninterrupted() {
    let h = server(ManagerConfig::default());
    let mut c = Client::connect(&h);

    assert!(ok(&c.call(r#"{"op":"ping"}"#)));

    // Interrupted session.
    let r = c.call(r#"{"op":"create","session":"a"}"#);
    assert!(ok(&r), "{r:?}");
    assert_eq!(s(&r, "net"), "figure1");
    assert!(ok(&c.call(r#"{"op":"push","session":"a","alarms":"b@p1"}"#)));
    assert!(ok(&c.call(r#"{"op":"detach","session":"a"}"#)));
    let att = c.call(r#"{"op":"attach","session":"a"}"#);
    assert!(ok(&att));
    assert_eq!(num(&att, "alarms"), 1.0);
    let ra = c.call(r#"{"op":"push","session":"a","alarms":"a@p2 c@p1"}"#);
    assert!(ok(&ra));
    assert_eq!(num(&ra, "alarms"), 3.0);

    // Uninterrupted control in a second session, batched differently.
    assert!(ok(&c.call(r#"{"op":"create","session":"ctl"}"#)));
    let rc = c.call(r#"{"op":"push","session":"ctl","alarms":[["b","p1"],["a","p2"],["c","p1"]]}"#);
    assert!(ok(&rc));
    assert_eq!(diagnosis_of(&ra), diagnosis_of(&rc));

    // diagnosis verb agrees with the last push reply.
    let d = c.call(r#"{"op":"diagnosis","session":"a"}"#);
    assert!(ok(&d));
    assert_eq!(diagnosis_of(&d), diagnosis_of(&rc));

    // stats: per-session and rollup.
    let st = c.call(r#"{"op":"stats","session":"a"}"#);
    assert_eq!(num(&st, "alarms"), 3.0);
    assert!(num(&st, "facts") > 0.0);
    let roll = c.call(r#"{"op":"stats"}"#);
    assert_eq!(num(&roll, "resident"), 2.0);
    assert_eq!(num(&roll, "created"), 2.0);
    assert_eq!(num(&roll, "alarms_accepted"), 6.0);

    let l = c.call(r#"{"op":"list"}"#);
    assert_eq!(num(&l, "resident"), 2.0);

    // Unknown ops/sessions are error replies, never hangs.
    let bad = c.call(r#"{"op":"nope"}"#);
    assert!(!ok(&bad));
    assert_eq!(s(&bad, "error"), "unknown_op");
    let gone = c.call(r#"{"op":"push","session":"ghost","alarms":"b@p1"}"#);
    assert_eq!(s(&gone, "error"), "unknown_session");
    let mal = c.call("{broken");
    assert_eq!(s(&mal, "error"), "bad_request");

    assert!(ok(&c.call(r#"{"op":"destroy","session":"ctl"}"#)));
    assert!(ok(&c.call(r#"{"op":"shutdown"}"#)));
    let report = h.join().expect("serve");
    assert_eq!(report.manager.created, 2);
    assert_eq!(report.manager.destroyed, 1);
    assert!(report.requests >= 10);
    // unknown_op + bad_request (unknown_session is a manager refusal).
    assert_eq!(report.errors, 2);
}

#[test]
fn backpressure_reply_and_retry_over_tcp() {
    let h = server(ManagerConfig {
        ingest_capacity: 2,
        ..ManagerConfig::default()
    });
    let mut c = Client::connect(&h);
    assert!(ok(&c.call(r#"{"op":"create","session":"bp"}"#)));
    let r = c.call(r#"{"op":"push","session":"bp","alarms":"b@p1 a@p2 c@p1","diagnosis":false}"#);
    assert!(!ok(&r), "{r:?}");
    assert_eq!(s(&r, "error"), "backpressure");
    assert_eq!(num(&r, "accepted"), 2.0);
    assert_eq!(num(&r, "dropped"), 1.0);
    assert_eq!(num(&r, "capacity"), 2.0);
    assert!(r.get("diagnosis").is_none(), "diagnosis:false respected");
    // Retry the remainder; the session converges.
    let r2 = c.call(r#"{"op":"push","session":"bp","alarms":"c@p1"}"#);
    assert!(ok(&r2));
    assert_eq!(num(&r2, "alarms"), 3.0);
    let roll = c.call(r#"{"op":"stats"}"#);
    assert_eq!(num(&roll, "backpressure_replies"), 1.0);
    assert!(ok(&c.call(r#"{"op":"shutdown"}"#)));
    h.join().unwrap();
}

#[test]
fn streamed_push_emits_one_delta_per_alarm_then_a_summary() {
    let h = server(ManagerConfig::default());
    let mut c = Client::connect(&h);
    assert!(ok(&c.call(r#"{"op":"create","session":"st"}"#)));
    c.send(r#"{"op":"push","session":"st","alarms":"b@p1 a@p2 c@p1","stream":true}"#);
    for n in 1..=3 {
        let delta = c.recv();
        assert!(ok(&delta), "{delta:?}");
        assert_eq!(s(&delta, "op"), "delta");
        assert_eq!(num(&delta, "n"), n as f64);
        assert!(delta.get("diagnosis").is_some());
    }
    let summary = c.recv();
    assert!(ok(&summary));
    assert_eq!(s(&summary, "op"), "push");
    assert_eq!(num(&summary, "accepted"), 3.0);

    // The streamed session ends up byte-identical to a batched one.
    assert!(ok(&c.call(r#"{"op":"create","session":"ctl"}"#)));
    let rc = c.call(r#"{"op":"push","session":"ctl","alarms":"b@p1 a@p2 c@p1"}"#);
    let ds = c.call(r#"{"op":"diagnosis","session":"st"}"#);
    assert_eq!(
        format!("{:?}", ds.get("diagnosis").unwrap()),
        format!("{:?}", rc.get("diagnosis").unwrap())
    );
    assert!(ok(&c.call(r#"{"op":"shutdown"}"#)));
    h.join().unwrap();
}

#[test]
fn blown_budget_answers_session_failed_with_a_flight_dump() {
    let h = server(ManagerConfig {
        // Enough for figure1's create-time saturation, not for 3 alarms.
        budget: EvalBudget {
            max_facts: 120,
            ..EvalBudget::default()
        },
        ..ManagerConfig::default()
    });
    let mut c = Client::connect(&h);
    assert!(ok(&c.call(r#"{"op":"create","session":"tight"}"#)));
    let r = c.call(r#"{"op":"push","session":"tight","alarms":"b@p1 a@p2 c@p1"}"#);
    assert!(!ok(&r));
    assert_eq!(s(&r, "error"), "session_failed");
    let flight = r.get("flight").expect("flight dump embedded");
    assert!(flight.as_object().is_some(), "flight is a JSON object");
    // Sticky: the next push fails the same way, and stats show it.
    let again = c.call(r#"{"op":"push","session":"tight","alarms":"b@p1"}"#);
    assert_eq!(s(&again, "error"), "session_failed");
    let st = c.call(r#"{"op":"stats","session":"tight"}"#);
    assert!(!s(&st, "failed").is_empty());
    assert!(ok(&c.call(r#"{"op":"shutdown"}"#)));
    let report = h.join().unwrap();
    assert_eq!(report.manager.failed, 1);
}

#[test]
fn admission_denied_is_a_protocol_reply() {
    let h = server(ManagerConfig {
        max_sessions: 1,
        ..ManagerConfig::default()
    });
    let mut c = Client::connect(&h);
    assert!(ok(&c.call(r#"{"op":"create","session":"only"}"#)));
    let r = c.call(r#"{"op":"create","session":"more"}"#);
    assert!(!ok(&r));
    assert_eq!(s(&r, "error"), "admission_denied");
    assert_eq!(num(&r, "cap"), 1.0);
    // Detaching the resident session lets the next create evict it.
    assert!(ok(&c.call(r#"{"op":"detach","session":"only"}"#)));
    assert!(ok(&c.call(r#"{"op":"create","session":"more"}"#)));
    let roll = c.call(r#"{"op":"stats"}"#);
    assert_eq!(num(&roll, "rejected"), 1.0);
    assert_eq!(num(&roll, "evicted"), 1.0);
    assert!(ok(&c.call(r#"{"op":"shutdown"}"#)));
    h.join().unwrap();
}

#[test]
fn ping_reports_health_and_uptime() {
    let h = server(ManagerConfig::default());
    let mut c = Client::connect(&h);
    let p = c.call(r#"{"op":"ping"}"#);
    assert!(ok(&p));
    assert_eq!(s(&p, "health"), "ok");
    assert!(p.get("uptime_us").is_some());
    assert!(ok(&c.call(r#"{"op":"shutdown"}"#)));
    h.join().unwrap();
}

#[test]
fn metrics_verb_reports_rollup_session_table_and_exposition() {
    let collector = Collector::with_namespace(1 << 14, 2);
    let h = traced_server(ManagerConfig::default(), collector);
    let mut c = Client::connect(&h);
    assert!(ok(&c.call(r#"{"op":"create","session":"m1"}"#)));
    assert!(ok(&c.call(r#"{"op":"create","session":"m2"}"#)));
    assert!(ok(&c.call(
        r#"{"op":"push","session":"m1","alarms":"b@p1 a@p2","diagnosis":false}"#
    )));

    let m = c.call(r#"{"op":"metrics","top":10}"#);
    assert!(ok(&m), "{m:?}");
    assert_eq!(s(&m, "health"), "ok");
    assert_eq!(num(&m, "resident"), 2.0);
    assert_eq!(num(&m, "attached"), 2.0);
    assert_eq!(num(&m, "alarms_accepted"), 2.0);
    assert!(num(&m, "uptime_us") > 0.0);

    // Per-session rows, MRU first: m1 pushed last, so it leads.
    let rows = m.get("sessions").and_then(Value::as_array).expect("rows");
    assert_eq!(rows.len(), 2);
    assert_eq!(s(&rows[0], "id"), "m1");
    assert_eq!(num(&rows[0], "pushes"), 1.0);
    assert_eq!(num(&rows[0], "alarms"), 2.0);
    assert_eq!(num(&rows[0], "last_batch"), 2.0);
    assert!(num(&rows[0], "push_p99_us") >= num(&rows[0], "push_p50_us"));
    assert_eq!(num(&rows[1], "pushes"), 0.0);

    // The exposition is present (tracing server) and self-consistent
    // with the rollup fields of the same reply.
    let text = s(&m, "exposition");
    assert!(
        text.contains("rescue_sessions_resident 2"),
        "gauge disagrees with rollup:\n{text}"
    );
    assert!(text.contains("# TYPE rescue_sessions_resident gauge"));
    assert!(
        text.contains("rescue_server_latency_push_count 1"),
        "push latency histogram missing:\n{text}"
    );
    assert!(text.contains("rescue_health 0"));

    // `top` truncates the table but not the rollup.
    let one = c.call(r#"{"op":"metrics","top":1}"#);
    assert_eq!(
        one.get("sessions").and_then(Value::as_array).unwrap().len(),
        1
    );
    assert_eq!(num(&one, "resident"), 2.0);

    assert!(ok(&c.call(r#"{"op":"shutdown"}"#)));
    h.join().unwrap();
}

#[test]
fn metrics_without_tracing_still_serves_the_rollup() {
    let h = server(ManagerConfig::default());
    let mut c = Client::connect(&h);
    assert!(ok(&c.call(r#"{"op":"create","session":"plain"}"#)));
    let m = c.call(r#"{"op":"metrics"}"#);
    assert!(ok(&m));
    assert_eq!(num(&m, "resident"), 1.0);
    assert!(m.get("exposition").is_none(), "no collector, no exposition");
    assert!(ok(&c.call(r#"{"op":"shutdown"}"#)));
    h.join().unwrap();
}

#[test]
fn client_and_server_traces_flow_pair_in_a_merged_timeline() {
    let server_col = Collector::with_namespace(1 << 14, 2);
    let client_col = Collector::with_namespace(1 << 14, 1);
    let h = traced_server(ManagerConfig::default(), server_col.clone());
    let report = rescue_server::run_load(
        &h.addr.to_string(),
        LoadSpec {
            sessions: 8,
            alarms_per_session: 3,
            batch: 2,
            connections: 2,
            verify: false,
            shutdown: true,
            collector: client_col.clone(),
            ..LoadSpec::default()
        },
    )
    .expect("run_load");
    assert_eq!(report.sessions, 8);
    h.join().unwrap();

    let merged = rescue_telemetry::merge::merge_traces(&[
        ("client".to_owned(), client_col),
        ("server".to_owned(), server_col),
    ]);
    assert_eq!(merged.unresolved, 0, "offsets must solve");
    assert!(merged.cross_flows > 0, "no client→server flows resolved");
    let summary = json::validate_trace(&merged.json).expect("merged trace validates");
    assert!(
        summary.cross_process_flows > 0,
        "client sends must pair with server recvs: {summary:?}"
    );
}

#[test]
fn idle_connections_back_off_their_poll_interval() {
    let collector = Collector::with_namespace(1 << 14, 2);
    let h = traced_server(ManagerConfig::default(), collector.clone());
    let mut c = Client::connect(&h);
    assert!(ok(&c.call(r#"{"op":"ping"}"#)));
    // Sit idle long enough for the 20ms poll to escalate a few times.
    std::thread::sleep(std::time::Duration::from_millis(250));
    assert!(ok(&c.call(r#"{"op":"ping"}"#)));
    assert!(ok(&c.call(r#"{"op":"shutdown"}"#)));
    h.join().unwrap();
    let snap = collector.snapshot();
    assert!(snap.counter("server.poll.idle") > 0, "{:?}", snap.counters);
    assert!(snap.counter("server.poll.busy") > 0, "{:?}", snap.counters);
    // Backoff means far fewer idle wakeups than 250ms/20ms would give
    // under a constant poll — but the exact count is scheduling noise;
    // what matters is both paths were exercised.
}

#[test]
fn run_load_verifies_every_session_against_a_local_batch_run() {
    let h = server(ManagerConfig::default());
    let report = rescue_server::run_load(
        &h.addr.to_string(),
        LoadSpec {
            sessions: 40,
            alarms_per_session: 3,
            batch: 2,
            connections: 4,
            seed: 7,
            verify: true,
            detach_reattach: true,
            shutdown: true,
            ..LoadSpec::default()
        },
    )
    .expect("run_load");
    assert_eq!(report.sessions, 40);
    assert_eq!(report.mismatches, 0, "diagnoses must be byte-identical");
    assert_eq!(report.failed_sessions, 0);
    assert_eq!(report.rejected_sessions, 0);
    assert!(report.pushes >= 40);
    let server_report = h.join().unwrap();
    assert_eq!(server_report.manager.created, 40);
    assert_eq!(server_report.connections, 5); // 4 load + 1 shutdown
}

// ---- hostile clients: bounded, linear input handling --------------------

#[test]
fn twenty_thousand_pipelined_pings_are_all_answered_in_order() {
    const PINGS: usize = 20_000;
    let h = server(ManagerConfig::default());
    let mut c = Client::connect(&h);
    // One write carries the whole pipeline (and a marker after it); the
    // writer runs beside the reader so neither side's socket buffer can
    // wedge the other.
    let mut writer = c.writer.try_clone().unwrap();
    let pipeline = "{\"op\":\"ping\"}\n".repeat(PINGS) + "{\"op\":\"marker\"}\n";
    let sent = std::thread::spawn(move || writer.write_all(pipeline.as_bytes()));
    let mut last_uptime = 0.0;
    for i in 0..PINGS {
        let r = c.recv();
        assert_eq!(s(&r, "op"), "pong", "reply {i}: {r:?}");
        assert!(
            num(&r, "uptime_us") >= last_uptime,
            "reply {i} out of order"
        );
        last_uptime = num(&r, "uptime_us");
    }
    // Exactly PINGS pongs came before the marker's reply.
    assert_eq!(s(&c.recv(), "op"), "marker");
    sent.join().unwrap().unwrap();
    assert!(ok(&c.call(r#"{"op":"shutdown"}"#)));
    let report = h.join().unwrap();
    assert_eq!(report.requests, PINGS as u64 + 2);
    assert_eq!(report.errors, 1, "the marker is the only unknown op");
}

#[test]
fn an_unterminated_oversized_line_closes_that_connection_only() {
    let h = server(ManagerConfig::default());
    let mut hog = Client::connect(&h);
    // 2 MiB and never a newline. The server hangs up part-way through,
    // so the tail of the write may fail; that is the point.
    let mut writer = hog.writer.try_clone().unwrap();
    let sent = std::thread::spawn(move || {
        let _ = writer.write_all(&vec![b'x'; 2 * rescue_server::server::MAX_LINE]);
    });
    let r = hog.recv();
    assert_eq!(s(&r, "error"), "bad_request", "{r:?}");
    assert_eq!(s(&r, "detail"), "line too long");
    sent.join().unwrap();
    let mut rest = String::new();
    let eof = hog.reader.read_line(&mut rest);
    assert!(matches!(eof, Ok(0) | Err(_)), "connection closed: {eof:?}");

    // The server itself is fine: a second client is served as usual.
    let mut c = Client::connect(&h);
    assert!(ok(&c.call(r#"{"op":"create","session":"a"}"#)));
    let r = c.call(r#"{"op":"push","session":"a","alarms":"b@p1 a@p2 c@p1"}"#);
    assert_eq!(num(&r, "explanations"), 1.0);
    assert!(ok(&c.call(r#"{"op":"shutdown"}"#)));
    let report = h.join().unwrap();
    assert_eq!(report.errors, 1);
    assert_eq!(report.connections, 2);
}

#[test]
fn hostile_nesting_is_a_bad_request_and_the_connection_survives() {
    let h = server(ManagerConfig::default());
    let mut c = Client::connect(&h);
    for hostile in ["[".repeat(100_000), r#"{"op":"#.repeat(100_000)] {
        let r = c.call(&hostile);
        assert_eq!(s(&r, "error"), "bad_request", "{r:?}");
        assert!(s(&r, "detail").contains("nesting deeper than"), "{r:?}");
    }
    // Same connection, same server process: the next request is served.
    assert_eq!(s(&c.call(r#"{"op":"ping"}"#), "op"), "pong");
    assert!(ok(&c.call(r#"{"op":"shutdown"}"#)));
    assert_eq!(h.join().unwrap().errors, 2);
}
