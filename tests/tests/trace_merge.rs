//! Causal merging of per-peer recordings, end to end: every cross-peer
//! flow pairs exactly once in the merged trace, no receive is ordered
//! before its send (the Lamport piggyback at work), and merging is
//! deterministic — both for fixed recordings and across runs of the
//! deterministic simulator.

use rescue_datalog::{parse_program, TermStore};
use rescue_dqsq::{run_distributed, DistOptions};
use rescue_telemetry::json::{parse, validate_trace, Value};
use rescue_telemetry::merge::{keys, merge_recordings, PeerRecording};
use rescue_telemetry::{Arg, Event};

const PROGRAM: &str = r#"
    % Mutual recursion across three peers with function terms.
    Ping@a(z).
    Ping@a(s(N)) :- Pong@b(N).
    Pong@b(s(N)) :- Ping@a(N), Fuel@c(N).
    Fuel@c(z). Fuel@c(s(z)). Fuel@c(s(s(z))).
    Out@c(N) :- Ping@a(N).
"#;

fn traced_run() -> rescue_dqsq::DistRun {
    let mut store = TermStore::new();
    let prog = parse_program(PROGRAM, &mut store).unwrap();
    let opts = DistOptions {
        per_peer_trace: true,
        ..Default::default()
    };
    run_distributed(&prog, &store, &opts).unwrap()
}

/// The merged trace's event records, in emitted order.
fn events_of(json: &str) -> Vec<Value> {
    parse(json)
        .unwrap()
        .get("traceEvents")
        .and_then(Value::as_array)
        .unwrap()
        .to_vec()
}

fn field<'a>(ev: &'a Value, key: &str) -> Option<&'a Value> {
    ev.get(key)
}

#[test]
fn every_cross_peer_flow_pairs_exactly_once() {
    let run = traced_run();
    let merged = run.merged_trace().unwrap();
    assert_eq!(merged.unresolved, 0);
    let summary = validate_trace(&merged.json).unwrap();
    assert_eq!(summary.unmatched_sends, 0);
    assert_eq!(summary.flow_sends, summary.flow_recvs);

    // Count sends and finishes per flow id by hand: exactly one each.
    use std::collections::BTreeMap;
    let mut sends: BTreeMap<String, usize> = BTreeMap::new();
    let mut recvs: BTreeMap<String, usize> = BTreeMap::new();
    for ev in events_of(&merged.json) {
        let ph = field(&ev, "ph").and_then(Value::as_str).unwrap_or("");
        if ph != "s" && ph != "f" {
            continue;
        }
        let id = field(&ev, "id").and_then(Value::as_str).unwrap().to_owned();
        *if ph == "s" {
            sends.entry(id).or_default()
        } else {
            recvs.entry(id).or_default()
        } += 1;
    }
    assert!(!sends.is_empty(), "the run exchanged traced messages");
    assert_eq!(sends.len(), recvs.len());
    for (id, n) in &sends {
        assert_eq!(*n, 1, "flow {id} sent more than once");
        assert_eq!(recvs.get(id), Some(&1), "flow {id} recv count");
    }
}

#[test]
fn no_receive_precedes_its_send_and_lamport_orders_pairs() {
    let run = traced_run();
    let merged = run.merged_trace().unwrap();
    use std::collections::BTreeMap;
    let mut send_pos: BTreeMap<String, (usize, u64, u64)> = BTreeMap::new();
    let lamport_of = |ev: &Value| -> u64 {
        field(ev, "args")
            .and_then(|a| a.get(keys::LAMPORT))
            .and_then(Value::as_number)
            .map(|n| n as u64)
            .unwrap_or(0)
    };
    for (pos, ev) in events_of(&merged.json).iter().enumerate() {
        let ph = field(ev, "ph").and_then(Value::as_str).unwrap_or("");
        if ph != "s" && ph != "f" {
            continue;
        }
        let id = field(ev, "id").and_then(Value::as_str).unwrap().to_owned();
        let ts = field(ev, "ts").and_then(Value::as_number).unwrap() as u64;
        if ph == "s" {
            send_pos.insert(id, (pos, ts, lamport_of(ev)));
        } else {
            let (spos, sts, slam) = *send_pos
                .get(&id)
                .unwrap_or_else(|| panic!("flow {id} finished before it started"));
            assert!(spos < pos, "flow {id}: recv emitted before its send");
            assert!(sts < ts, "flow {id}: recv timestamp not after send");
            let rlam = lamport_of(ev);
            assert!(
                slam < rlam,
                "flow {id}: Lamport clock did not advance ({slam} -> {rlam})"
            );
        }
    }
}

#[test]
fn merging_fixed_recordings_is_deterministic() {
    // Hand-built skewed recordings: peer b's clock starts far behind the
    // send it observes, so the merge must shift it — and must do so
    // identically on every call.
    let send = |id: u64, ts_us: u64, lamport: u64| Event::FlowSend {
        name: "dmsg".into(),
        cat: "net",
        id,
        tid: 1,
        ts_us,
        args: vec![(keys::LAMPORT.into(), Arg::Num(lamport))],
    };
    let recv = |id: u64, ts_us: u64, lamport: u64| Event::FlowRecv {
        name: "dmsg".into(),
        cat: "net",
        id,
        tid: 1,
        ts_us,
        args: vec![(keys::LAMPORT.into(), Arg::Num(lamport))],
    };
    let rec = |peer: &str, events: Vec<Event>| PeerRecording {
        peer: peer.into(),
        events,
        dropped: 0,
        ring_capacity: 64,
    };
    let (fa, fb) = (1 << 40, 2 << 40);
    let peers = vec![
        rec("a", vec![send(fa, 9_000, 1), recv(fb, 9_500, 4)]),
        rec("b", vec![recv(fa, 10, 2), send(fb, 20, 3)]),
    ];
    let m1 = merge_recordings(&peers);
    let m2 = merge_recordings(&peers);
    assert_eq!(m1.json, m2.json, "merge is not a function of its inputs");
    assert_eq!(m1.offsets_us, m2.offsets_us);
    validate_trace(&m1.json).unwrap();
}

#[test]
fn flow_structure_is_identical_across_runs() {
    // The simulator's delivery order is seed-deterministic, and so is
    // what each peer derives and sends — so each peer's *own* sequence of
    // flow events in the merged trace is the same in every run. The
    // cross-peer interleaving is NOT compared: the merge orders events by
    // (offset-adjusted) wall clock, so events on different peers with no
    // causal link between them may swap under load jitter without anything
    // being wrong.
    let project = |json: &str| -> std::collections::BTreeMap<u64, Vec<(String, String)>> {
        let mut per_peer: std::collections::BTreeMap<u64, Vec<(String, String)>> =
            std::collections::BTreeMap::new();
        for ev in events_of(json) {
            let Some(ph) = field(&ev, "ph").and_then(Value::as_str) else {
                continue;
            };
            if ph != "s" && ph != "f" {
                continue;
            }
            let pid = field(&ev, "pid").and_then(Value::as_number).unwrap() as u64;
            let id = field(&ev, "id").and_then(Value::as_str).unwrap().to_owned();
            per_peer.entry(pid).or_default().push((ph.to_owned(), id));
        }
        per_peer
    };
    let m1 = traced_run().merged_trace().unwrap();
    let m2 = traced_run().merged_trace().unwrap();
    let p1 = project(&m1.json);
    assert!(!p1.is_empty());
    assert_eq!(p1, project(&m2.json), "a peer's flow sequence changed");
    assert_eq!(m1.cross_flows, m2.cross_flows);
    assert_eq!(m1.unresolved, 0);
    assert_eq!(m2.unresolved, 0);
}
