//! Causally-consistent merging of per-peer recordings.
//!
//! Each dQSQ peer records into its own [`Collector`], whose timestamps
//! count microseconds since *that collector* was created — the peers'
//! clocks share a rate (one process) but not an origin. Merging their
//! recordings into one global trace therefore needs a per-peer time
//! offset such that every cross-peer message is delivered *after* it was
//! sent. The transports piggyback a Lamport clock on their envelopes
//! (see [`Collector::lamport_tick`]) which gives the causal order; the
//! merge recovers offsets from the send/recv timestamp pairs directly:
//!
//! For every cross-peer flow (send at peer `s`, time `t_s`; delivery at
//! peer `r`, time `t_r`) the merged timeline must satisfy
//!
//! ```text
//! off[r] + t_r >= off[s] + t_s + 1        (delivery strictly after send)
//! ```
//!
//! a difference-constraint system whose least solution is found by
//! Bellman-Ford-style relaxation (longest paths from an implicit source).
//! The system is feasible whenever the recordings came from a real run —
//! the peers' true clock offsets are a witness — so relaxation converges
//! in at most `peers` sweeps; a cap guards against degenerate inputs.
//!
//! The merged trace renders each peer as its own Chrome-trace *process*
//! (`pid = index + 1`, named via `process_name` metadata), so Perfetto
//! shows one row per peer with flow arrows crossing between them.
//!
//! The same per-peer recordings also feed the plain-text "peer table"
//! dashboard ([`peer_table`]): per-peer facts, messages, bytes, queue
//! depth percentiles, and busy-vs-idle wall time, for a one-glance read
//! of load imbalance.

use crate::export::{event_json_with, trace_doc, ts_of};
use crate::json::{Arr, Obj};
use crate::{Arg, Collector, Event};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Counter names the transports/engines record into per-peer collectors;
/// the peer table reads them back.
pub mod keys {
    pub const MSGS_SENT: &str = "peer.msgs_sent";
    pub const MSGS_RECV: &str = "peer.msgs_recv";
    pub const BYTES_SENT: &str = "peer.bytes_sent";
    pub const BYTES_RECV: &str = "peer.bytes_recv";
    pub const FACTS_OWNED: &str = "peer.facts_owned";
    pub const FACTS_CACHED: &str = "peer.facts_cached";
    pub const QUEUE_DEPTH: &str = "net.queue_depth";
    /// Event-arg key carrying the Lamport value on flow events.
    pub const LAMPORT: &str = "lamport";
}

/// One peer's recording, extracted from its collector (events cloned out
/// so the merge works on a stable snapshot).
#[derive(Clone, Debug)]
pub struct PeerRecording {
    pub peer: String,
    pub events: Vec<Event>,
    pub dropped: u64,
    pub ring_capacity: u64,
}

impl PeerRecording {
    pub fn from_collector(peer: impl Into<String>, c: &Collector) -> Self {
        PeerRecording {
            peer: peer.into(),
            events: c.with_events(|evs| evs.cloned().collect()),
            dropped: c.dropped_events(),
            ring_capacity: c.event_capacity() as u64,
        }
    }
}

/// The result of a merge: the Chrome-trace JSON plus the fidelity
/// numbers experiment E15 reports.
#[derive(Clone, Debug)]
pub struct MergedTrace {
    pub json: String,
    /// Per-peer offsets (µs) added to each recording's timestamps.
    pub offsets_us: Vec<i64>,
    /// Cross-peer send/recv pairs that constrained the offsets.
    pub cross_flows: usize,
    /// Constraints still violated when relaxation hit its sweep cap
    /// (0 for any recording produced by a real run).
    pub unresolved: usize,
}

fn flow_parts(ev: &Event) -> Option<(bool, u64, u64)> {
    match ev {
        Event::FlowSend { id, ts_us, .. } => Some((true, *id, *ts_us)),
        Event::FlowRecv { id, ts_us, .. } => Some((false, *id, *ts_us)),
        _ => None,
    }
}

/// The Lamport value attached to a flow event, if any.
pub fn lamport_of(ev: &Event) -> Option<u64> {
    let args = match ev {
        Event::FlowSend { args, .. } | Event::FlowRecv { args, .. } => args,
        _ => return None,
    };
    args.iter().find_map(|(k, v)| match v {
        Arg::Num(n) if k == keys::LAMPORT => Some(*n),
        _ => None,
    })
}

/// Solve the per-peer offset system from cross-peer flow pairs. Returns
/// `(offsets, cross_flows, unresolved)`.
fn solve_offsets(peers: &[PeerRecording]) -> (Vec<i64>, usize, usize) {
    // Flow id -> (peer, ts) of its send; recvs paired as encountered.
    let mut sends: BTreeMap<u64, (usize, u64)> = BTreeMap::new();
    for (p, rec) in peers.iter().enumerate() {
        for ev in &rec.events {
            if let Some((true, id, ts)) = flow_parts(ev) {
                sends.insert(id, (p, ts));
            }
        }
    }
    // Constraints off[r] >= off[s] + w with w = ts_send + 1 - ts_recv.
    let mut constraints: Vec<(usize, usize, i64)> = Vec::new();
    for (r, rec) in peers.iter().enumerate() {
        for ev in &rec.events {
            if let Some((false, id, ts_r)) = flow_parts(ev) {
                if let Some(&(s, ts_s)) = sends.get(&id) {
                    if s != r {
                        constraints.push((s, r, ts_s as i64 + 1 - ts_r as i64));
                    }
                }
            }
        }
    }
    let cross = constraints.len();
    let mut off = vec![0i64; peers.len()];
    // Longest-path relaxation; converges in <= peers sweeps when the
    // system is feasible (true for recordings of a real run).
    for _ in 0..peers.len().max(1) + 1 {
        let mut changed = false;
        for &(s, r, w) in &constraints {
            if off[r] < off[s] + w {
                off[r] = off[s] + w;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let unresolved = constraints
        .iter()
        .filter(|&&(s, r, w)| off[r] < off[s] + w)
        .count();
    // Normalize so the earliest peer starts at offset 0.
    let base = off.iter().copied().min().unwrap_or(0);
    for o in &mut off {
        *o -= base;
    }
    (off, cross, unresolved)
}

/// Merge per-peer recordings into one causally-consistent Chrome trace:
/// offsets solved from cross-peer flow pairs, every peer rendered as its
/// own process row, events globally sorted on the adjusted timeline.
pub fn merge_recordings(peers: &[PeerRecording]) -> MergedTrace {
    let (off, cross_flows, unresolved) = solve_offsets(peers);

    // (adjusted ts, peer index, per-peer seq) — the sort key. Per-peer
    // sequence numbers keep each recording's internal order even under
    // timestamp ties.
    let mut merged: Vec<(i64, usize, usize, &Event)> = Vec::new();
    for (p, rec) in peers.iter().enumerate() {
        for (seq, ev) in rec.events.iter().enumerate() {
            merged.push((ts_of(ev) as i64 + off[p], p, seq, ev));
        }
    }
    merged.sort_by_key(|&(ts, p, seq, _)| (ts, p, seq));

    let mut events = Arr::lines();
    for (p, rec) in peers.iter().enumerate() {
        let pid = p as u64 + 1;
        let meta = |name: &str, args: Obj| {
            Obj::new()
                .str("name", name)
                .str("ph", "M")
                .str("cat", "__metadata")
                .num("ts", 0)
                .num("pid", pid)
                .num("tid", 0)
                .raw("args", &args.finish())
                .finish()
        };
        events = events
            .raw(&meta(
                "process_name",
                Obj::new().str("name", &format!("peer {}", rec.peer)),
            ))
            .raw(&meta(
                "process_sort_index",
                Obj::new().num("sort_index", pid),
            ));
    }
    for &(ts, p, _, ev) in &merged {
        events = events.raw(&event_json_with(ev, (p + 1) as u64, ts.max(0) as u64));
    }
    let other = Obj::new()
        .num("dropped_events", peers.iter().map(|r| r.dropped).sum())
        .num("ring_capacity", peers.iter().map(|r| r.ring_capacity).sum())
        .num("peers", peers.len() as u64)
        .num("cross_flows", cross_flows as u64)
        .num("unresolved", unresolved as u64);
    MergedTrace {
        json: trace_doc(events, other),
        offsets_us: off,
        cross_flows,
        unresolved,
    }
}

/// Convenience: extract + merge straight from named collectors.
pub fn merge_traces(peers: &[(String, Collector)]) -> MergedTrace {
    let recs: Vec<PeerRecording> = peers
        .iter()
        .map(|(name, c)| PeerRecording::from_collector(name.clone(), c))
        .collect();
    merge_recordings(&recs)
}

/// One row of the peer dashboard.
#[derive(Clone, Debug, Default)]
pub struct PeerStat {
    pub peer: String,
    pub facts_owned: u64,
    pub facts_cached: u64,
    pub msgs_sent: u64,
    pub msgs_recv: u64,
    pub bytes_sent: u64,
    pub bytes_recv: u64,
    /// Queue-depth percentiles (p50, p95, p99) at this peer's inbox.
    pub queue_p50: u64,
    pub queue_p95: u64,
    pub queue_p99: u64,
    /// Wall time inside top-level spans of this peer's recording (µs).
    pub busy_us: u64,
    /// Recording wall span minus busy time (µs).
    pub idle_us: u64,
    pub dropped_events: u64,
}

/// Sum of top-level (depth-1) span durations, and the recording's wall
/// extent, both in µs.
fn busy_and_wall(events: &[Event]) -> (u64, u64) {
    let mut busy = 0u64;
    let mut depth: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let (mut lo, mut hi) = (u64::MAX, 0u64);
    for ev in events {
        let ts = ts_of(ev);
        lo = lo.min(ts);
        hi = hi.max(ts);
        match ev {
            Event::Begin { tid, ts_us, .. } => depth.entry(*tid).or_default().push(*ts_us),
            Event::End { tid, ts_us, .. } => {
                let stack = depth.entry(*tid).or_default();
                if let Some(t0) = stack.pop() {
                    if stack.is_empty() {
                        busy += ts_us.saturating_sub(t0);
                    }
                }
            }
            _ => {}
        }
    }
    let wall = if lo == u64::MAX { 0 } else { hi - lo };
    (busy, wall)
}

/// Roll one peer's recording up into a dashboard row. Fact counts come
/// from the `peer.facts_*` counters when the runner recorded them (the
/// dQSQ driver does); callers may overwrite them afterwards.
pub fn peer_stat(peer: impl Into<String>, c: &Collector) -> PeerStat {
    let snap = c.snapshot();
    let q = snap.histogram(keys::QUEUE_DEPTH);
    let (p50, p95, p99) = q.percentiles();
    let (busy, wall) = c.with_events(|evs| {
        let events: Vec<Event> = evs.cloned().collect();
        busy_and_wall(&events)
    });
    PeerStat {
        peer: peer.into(),
        facts_owned: snap.counter(keys::FACTS_OWNED),
        facts_cached: snap.counter(keys::FACTS_CACHED),
        msgs_sent: snap.counter(keys::MSGS_SENT),
        msgs_recv: snap.counter(keys::MSGS_RECV),
        bytes_sent: snap.counter(keys::BYTES_SENT),
        bytes_recv: snap.counter(keys::BYTES_RECV),
        queue_p50: p50,
        queue_p95: p95,
        queue_p99: p99,
        busy_us: busy,
        idle_us: wall.saturating_sub(busy),
        dropped_events: snap.dropped_events,
    }
}

/// Dashboard rows for a set of named per-peer collectors.
pub fn peer_stats(peers: &[(String, Collector)]) -> Vec<PeerStat> {
    peers.iter().map(|(n, c)| peer_stat(n.clone(), c)).collect()
}

fn fmt_ms(us: u64) -> String {
    format!("{:.1}", us as f64 / 1000.0)
}

/// Render the rows as an aligned plain-text table (the `--peer-stats`
/// dashboard).
pub fn peer_table(stats: &[PeerStat]) -> String {
    let headers = [
        "peer", "facts", "cached", "sent", "recv", "bytes>", "bytes<", "q p50", "q p95", "q p99",
        "busy ms", "idle ms", "busy%",
    ];
    let mut rows: Vec<Vec<String>> = vec![headers.iter().map(|h| h.to_string()).collect()];
    for st in stats {
        let total = st.busy_us + st.idle_us;
        let pct = if total == 0 {
            0.0
        } else {
            100.0 * st.busy_us as f64 / total as f64
        };
        rows.push(vec![
            st.peer.clone(),
            st.facts_owned.to_string(),
            st.facts_cached.to_string(),
            st.msgs_sent.to_string(),
            st.msgs_recv.to_string(),
            st.bytes_sent.to_string(),
            st.bytes_recv.to_string(),
            st.queue_p50.to_string(),
            st.queue_p95.to_string(),
            st.queue_p99.to_string(),
            fmt_ms(st.busy_us),
            fmt_ms(st.idle_us),
            format!("{pct:.0}"),
        ]);
    }
    let widths: Vec<usize> = (0..headers.len())
        .map(|i| rows.iter().map(|r| r[i].len()).max().unwrap_or(0))
        .collect();
    let mut out = String::new();
    for (ri, row) in rows.iter().enumerate() {
        for (i, cell) in row.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            if i == 0 {
                let _ = write!(out, "{cell:<w$}", w = widths[0]);
            } else {
                let _ = write!(out, "{cell:>w$}", w = widths[i]);
            }
        }
        out.push('\n');
        if ri == 0 {
            let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
            out.push_str(&"-".repeat(total));
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_trace;

    fn ev_send(id: u64, ts: u64, lamport: u64) -> Event {
        Event::FlowSend {
            name: "m".into(),
            cat: "net",
            id,
            tid: 1,
            ts_us: ts,
            args: vec![(keys::LAMPORT.into(), Arg::Num(lamport))],
        }
    }

    fn ev_recv(id: u64, ts: u64, lamport: u64) -> Event {
        Event::FlowRecv {
            name: "m".into(),
            cat: "net",
            id,
            tid: 1,
            ts_us: ts,
            args: vec![(keys::LAMPORT.into(), Arg::Num(lamport))],
        }
    }

    fn rec(peer: &str, events: Vec<Event>) -> PeerRecording {
        PeerRecording {
            peer: peer.into(),
            events,
            dropped: 0,
            ring_capacity: 64,
        }
    }

    /// Parse the merged JSON into (ph, pid, ts, id) tuples, skipping
    /// metadata events.
    fn parsed(json: &str) -> Vec<(String, u64, u64, Option<String>)> {
        let doc = crate::json::parse(json).unwrap();
        doc.get("traceEvents")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .filter_map(|ev| {
                let ph = ev.get("ph").unwrap().as_str().unwrap().to_owned();
                if ph == "M" {
                    return None;
                }
                Some((
                    ph,
                    ev.get("pid").unwrap().as_number().unwrap() as u64,
                    ev.get("ts").unwrap().as_number().unwrap() as u64,
                    ev.get("id").and_then(|v| v.as_str()).map(str::to_owned),
                ))
            })
            .collect()
    }

    #[test]
    fn skewed_clocks_are_aligned_so_recv_follows_send() {
        // Peer b's clock started much later: numerically, the recv
        // timestamp (5) is far before the send timestamp (1000).
        let a = rec("a", vec![ev_send(1, 1000, 1)]);
        let b = rec("b", vec![ev_recv(1, 5, 2)]);
        let m = merge_recordings(&[a, b]);
        assert_eq!(m.cross_flows, 1);
        assert_eq!(m.unresolved, 0);
        let evs = parsed(&m.json);
        assert_eq!(evs.len(), 2);
        // Send (pid 1) must come strictly before recv (pid 2).
        assert_eq!(evs[0].1, 1);
        assert_eq!(evs[1].1, 2);
        assert!(evs[1].2 > evs[0].2, "recv ts after send ts: {evs:?}");
        validate_trace(&m.json).expect("merged trace validates");
    }

    #[test]
    fn chained_constraints_propagate_through_middle_peers() {
        // a -> b at (a:100 -> b:0), b -> c at (b:50 -> c:0): c's offset
        // must absorb both hops.
        let a = rec("a", vec![ev_send(1, 100, 1)]);
        let b = rec("b", vec![ev_recv(1, 0, 2), ev_send(2, 50, 3)]);
        let c = rec("c", vec![ev_recv(2, 0, 4)]);
        let m = merge_recordings(&[a, b, c]);
        assert_eq!(m.cross_flows, 2);
        assert_eq!(m.unresolved, 0);
        let evs = parsed(&m.json);
        let ts_of = |pid: u64, ph: &str| {
            evs.iter()
                .find(|(p, q, _, _)| p == ph && *q == pid)
                .unwrap()
                .2
        };
        assert!(ts_of(2, "f") > ts_of(1, "s"));
        assert!(ts_of(3, "f") > ts_of(2, "s"));
    }

    #[test]
    fn same_microsecond_turnaround_stays_feasible() {
        // Regression: a message answered within the microsecond it was
        // sent used to make the offset system infeasible (the merge needs
        // every delivery a full µs after its send, but the recordings
        // only had µs resolution). The HLC floor (`observe_send_instant`)
        // advances the receiver's clock past the physical send time, so
        // merges of arbitrarily fast in-process runs stay resolvable.
        let a = Collector::with_namespace(256, 1);
        let b = Collector::with_namespace(256, 2);
        let bounce = |tx: &Collector, rx: &Collector| {
            let f = tx.flow_id();
            let l = tx.lamport_tick();
            tx.flow_send("m", "net", f, vec![(keys::LAMPORT.into(), Arg::Num(l))]);
            let sent = tx.send_stamp().expect("collector enabled");
            let merged = rx.lamport_observe(l);
            rx.observe_send_instant(sent);
            rx.flow_recv(
                "m",
                "net",
                f,
                vec![(keys::LAMPORT.into(), Arg::Num(merged))],
            );
        };
        for _ in 0..8 {
            bounce(&a, &b);
            bounce(&b, &a); // the immediate reply that closes the cycle
        }
        let m = merge_traces(&[("a".into(), a), ("b".into(), b)]);
        assert_eq!(m.cross_flows, 16);
        assert_eq!(m.unresolved, 0);
        // Every delivery lands strictly after its send on the merged
        // timeline, despite sub-µs turnarounds.
        let mut send_ts = BTreeMap::new();
        for (ph, _, ts, id) in parsed(&m.json) {
            let id = id.expect("only flow events recorded");
            if ph == "s" {
                send_ts.insert(id, ts);
            } else {
                assert!(ts > send_ts[&id], "flow {id} recv not after send");
            }
        }
        validate_trace(&m.json).expect("merged trace validates");
    }

    #[test]
    fn merge_is_deterministic() {
        let peers = [
            rec("a", vec![ev_send(1, 10, 1), ev_recv(2, 30, 4)]),
            rec("b", vec![ev_recv(1, 2, 2), ev_send(2, 4, 3)]),
        ];
        let m1 = merge_recordings(&peers);
        let m2 = merge_recordings(&peers);
        assert_eq!(m1.json, m2.json);
        assert_eq!(m1.offsets_us, m2.offsets_us);
    }

    #[test]
    fn each_peer_is_its_own_process_row() {
        let peers = [
            rec("x", vec![ev_send(1, 0, 1)]),
            rec("y", vec![ev_recv(1, 10, 2)]),
        ];
        let m = merge_recordings(&peers);
        let doc = crate::json::parse(&m.json).unwrap();
        let names: Vec<String> = doc
            .get("traceEvents")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("process_name"))
            .map(|e| {
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(|n| n.as_str())
                    .unwrap()
                    .to_owned()
            })
            .collect();
        assert_eq!(names, vec!["peer x", "peer y"]);
    }

    #[test]
    fn peer_table_renders_one_row_per_peer() {
        let c = Collector::enabled();
        c.count(keys::MSGS_SENT, 3);
        c.count(keys::BYTES_SENT, 120);
        c.record(keys::QUEUE_DEPTH, 1);
        c.record(keys::QUEUE_DEPTH, 4);
        {
            let _s = c.span("work", "test");
        }
        let rows = peer_stats(&[("p1".into(), c)]);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].msgs_sent, 3);
        let table = peer_table(&rows);
        assert!(table.contains("p1"));
        assert!(table.contains("busy"));
        assert_eq!(table.lines().count(), 3); // header, rule, one row
    }

    #[test]
    fn lamport_values_are_extractable() {
        assert_eq!(lamport_of(&ev_send(1, 0, 42)), Some(42));
        let bare = Event::Instant {
            name: "i".into(),
            cat: "t",
            tid: 1,
            ts_us: 0,
            args: Vec::new(),
        };
        assert_eq!(lamport_of(&bare), None);
    }
}
