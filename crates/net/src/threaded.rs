//! Thread-per-peer transport over crossbeam channels.
//!
//! Unlike [`sim`](crate::sim), delivery order here is decided by the OS
//! scheduler — real asynchrony. A peer thread that wakes on a message
//! drains its receiver before ending the activation
//! ([`PeerLogic::on_activation_end`]), so one activation handles every
//! message that arrived while the last one ran. Quiescence is detected
//! with a counting termination detector (Mattern-style credit counting,
//! in the family of distributed termination-detection algorithms the
//! paper cites \[19, 33\]):
//!
//! * a shared `outstanding` counter is **incremented before** every send
//!   and **decremented after** the receiving peer's activation has
//!   dispatched what it sent, so while any handler runs the counter is ≥ 1;
//! * when `outstanding == 0` no message is in flight and no handler is
//!   running, hence no handler can ever run again — the coordinator then
//!   flips a shutdown flag that idle peers observe on their receive
//!   timeout.

use crate::{NetError, NetStats, NodeId, Outbox, PeerLogic};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use rescue_telemetry::{Arg, Collector};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Shared {
    outstanding: AtomicU64,
    messages: AtomicU64,
    bytes: AtomicU64,
    shutdown: AtomicBool,
    /// Threads that have completed `on_start` — quiescence detection only
    /// begins once every peer has had its initial sends counted, closing
    /// the startup race where a slow-to-schedule thread's first messages
    /// would otherwise be missed by an early zero reading.
    started: AtomicU64,
}

/// Run `peers` on one thread each until global quiescence. Returns each
/// peer (for state inspection) plus the run statistics.
pub fn run_threaded<M, P>(
    peers: Vec<P>,
    sizer: fn(&M) -> usize,
) -> Result<(Vec<P>, NetStats), NetError>
where
    M: Send + 'static,
    P: PeerLogic<M> + 'static,
{
    run_threaded_traced(peers, sizer, &Collector::disabled())
}

/// [`run_threaded`] recording per-message flow events (send/recv pairs
/// across threads), per-edge counters, in-flight message samples and
/// handler spans into `collector`. Each peer thread shows up as its own
/// `tid` lane in the exported trace.
pub fn run_threaded_traced<M, P>(
    peers: Vec<P>,
    sizer: fn(&M) -> usize,
    collector: &Collector,
) -> Result<(Vec<P>, NetStats), NetError>
where
    M: Send + 'static,
    P: PeerLogic<M> + 'static,
{
    let shared = vec![collector.clone(); peers.len()];
    run_threaded_collectors(peers, sizer, shared, collector)
}

/// What travels on a channel: `(from, flow, lamport, sent, msg)`. The
/// flow id is allocated at send time — so the receiving thread can record
/// the matching `f` event — the sender's Lamport clock is merged by the
/// receiver on delivery (both 0 when disabled), and `sent` is the
/// sender's hybrid-logical-clock stamp, raising the receiver's clock
/// floor so the recorded receive always lands after the recorded send.
/// Observability envelope, excluded from the byte accounting.
type Envelope<M> = (NodeId, u64, u64, Option<Instant>, M);

/// [`run_threaded_traced`] with one collector per peer (in `NodeId`
/// order): each thread records its sends, deliveries and handler spans
/// into its own recording, Lamport clocks piggyback on the channel
/// envelopes, and the final [`NetStats`] folds into `run_collector`. The
/// per-peer recordings can then be causally merged
/// (`rescue_telemetry::merge`) into one multi-process trace.
pub fn run_threaded_collectors<M, P>(
    peers: Vec<P>,
    sizer: fn(&M) -> usize,
    collectors: Vec<Collector>,
    run_collector: &Collector,
) -> Result<(Vec<P>, NetStats), NetError>
where
    M: Send + 'static,
    P: PeerLogic<M> + 'static,
{
    let n = peers.len();
    assert_eq!(collectors.len(), n, "one collector per peer");
    let shared = Arc::new(Shared {
        outstanding: AtomicU64::new(0),
        messages: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
        shutdown: AtomicBool::new(false),
        started: AtomicU64::new(0),
    });

    let mut senders: Vec<Sender<Envelope<M>>> = Vec::with_capacity(n);
    let mut receivers: Vec<Receiver<Envelope<M>>> = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = unbounded();
        senders.push(tx);
        receivers.push(rx);
    }

    let dispatch = move |shared: &Shared,
                         collector: &Collector,
                         senders: &[Sender<Envelope<M>>],
                         from: NodeId,
                         out: Outbox<M>,
                         sizer: fn(&M) -> usize| {
        for (to, msg) in out.queued {
            let size = sizer(&msg) as u64;
            shared.bytes.fetch_add(size, Ordering::Relaxed);
            // Count before send so the counter can never transiently read 0
            // while a message is in flight.
            let in_flight = shared.outstanding.fetch_add(1, Ordering::SeqCst) + 1;
            let mut flow = 0;
            let mut lamport = 0;
            let mut sent = None;
            if collector.is_enabled() {
                flow = collector.flow_id();
                lamport = collector.lamport_tick();
                collector.flow_send(
                    format!("msg {from}->{to}"),
                    "net",
                    flow,
                    vec![
                        ("bytes".to_owned(), Arg::Num(size)),
                        ("lamport".to_owned(), Arg::Num(lamport)),
                    ],
                );
                collector.count(&format!("net.edge.{from}->{to}.msgs"), 1);
                collector.count(&format!("net.edge.{from}->{to}.bytes"), size);
                collector.count("peer.msgs_sent", 1);
                collector.count("peer.bytes_sent", size);
                collector.record("net.in_flight", in_flight);
                // Stamped after the `s` event is recorded, so the
                // receiver's clock floor clears the send timestamp.
                sent = collector.send_stamp();
            }
            senders[to.0]
                .send((from, flow, lamport, sent, msg))
                .expect("receiver thread alive until shutdown");
        }
    };

    let mut handles = Vec::with_capacity(n);
    for ((i, mut peer), collector) in peers.into_iter().enumerate().zip(collectors) {
        let rx = receivers[i].clone();
        let txs = senders.clone();
        let shared = Arc::clone(&shared);
        handles.push(std::thread::spawn(move || {
            let me = NodeId(i);
            let mut out = Outbox::new(me);
            peer.on_start(&mut out);
            dispatch(&shared, &collector, &txs, me, out, sizer);
            shared.started.fetch_add(1, Ordering::SeqCst);
            loop {
                match rx.recv_timeout(Duration::from_millis(1)) {
                    Ok(first) => {
                        // One activation: this message and every one
                        // already queued behind it, then the hook.
                        let mut _handler_span = None;
                        if collector.is_enabled() {
                            _handler_span = Some(collector.span(format!("deliver {me}"), "net"));
                        }
                        let mut out = Outbox::new(me);
                        let mut delivered = 0;
                        let mut next = Some(first);
                        while let Some((from, flow, lamport, sent, msg)) = next {
                            delivered += 1;
                            shared.messages.fetch_add(1, Ordering::Relaxed);
                            if collector.is_enabled() {
                                let merged = collector.lamport_observe(lamport);
                                if let Some(sent) = sent {
                                    collector.observe_send_instant(sent);
                                }
                                collector.flow_recv(
                                    format!("msg {from}->{me}"),
                                    "net",
                                    flow,
                                    vec![("lamport".to_owned(), Arg::Num(merged))],
                                );
                                collector.count("peer.msgs_recv", 1);
                                collector.count("peer.bytes_recv", sizer(&msg) as u64);
                            }
                            peer.on_message(from, msg, &mut out);
                            next = rx.try_recv().ok();
                        }
                        peer.on_activation_end(&mut out);
                        dispatch(&shared, &collector, &txs, me, out, sizer);
                        drop(_handler_span);
                        // Only now are these messages fully accounted for.
                        shared.outstanding.fetch_sub(delivered, Ordering::SeqCst);
                    }
                    Err(RecvTimeoutError::Timeout) => {
                        if shared.shutdown.load(Ordering::SeqCst) {
                            return peer;
                        }
                    }
                    Err(RecvTimeoutError::Disconnected) => return peer,
                }
            }
        }));
    }
    drop(senders);
    drop(receivers);

    // Coordinator: wait for every peer's on_start to be accounted for,
    // then for quiescence; only then release the threads.
    while shared.started.load(Ordering::SeqCst) < n as u64 {
        std::thread::yield_now();
    }
    loop {
        if shared.outstanding.load(Ordering::SeqCst) == 0 {
            shared.shutdown.store(true, Ordering::SeqCst);
            break;
        }
        std::thread::yield_now();
    }

    let mut out_peers = Vec::with_capacity(n);
    for (i, h) in handles.into_iter().enumerate() {
        match h.join() {
            Ok(p) => out_peers.push(p),
            Err(_) => return Err(NetError::PeerPanicked { node: NodeId(i) }),
        }
    }
    let stats = NetStats {
        messages: shared.messages.load(Ordering::Relaxed),
        bytes: shared.bytes.load(Ordering::Relaxed),
        sim_steps: 0,
        events_processed: shared.messages.load(Ordering::Relaxed),
    };
    stats.fold_into(run_collector);
    Ok((out_peers, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    struct RingPeer {
        next: NodeId,
        rounds: u32,
        seen: u32,
        start_token: bool,
    }

    impl PeerLogic<u32> for RingPeer {
        fn on_start(&mut self, out: &mut Outbox<u32>) {
            if self.start_token {
                out.send(self.next, 0);
            }
        }
        fn on_message(&mut self, _from: NodeId, msg: u32, out: &mut Outbox<u32>) {
            self.seen += 1;
            if msg < self.rounds {
                out.send(self.next, msg + 1);
            }
        }
    }

    #[test]
    fn threaded_ring_terminates_with_exact_counts() {
        let peers: Vec<RingPeer> = (0..4)
            .map(|i| RingPeer {
                next: NodeId((i + 1) % 4),
                rounds: 99,
                seen: 0,
                start_token: i == 0,
            })
            .collect();
        let (peers, stats) = run_threaded(peers, |_| 8).unwrap();
        assert_eq!(stats.messages, 100);
        assert_eq!(stats.bytes, 800);
        let total: u32 = peers.iter().map(|p| p.seen).sum();
        assert_eq!(total, 100);
    }

    /// Forwards the largest token of an activation from its hook.
    struct HookRing {
        next: NodeId,
        rounds: u32,
        held: Option<u32>,
        activations: u32,
        start_token: bool,
    }

    impl PeerLogic<u32> for HookRing {
        fn on_start(&mut self, out: &mut Outbox<u32>) {
            if self.start_token {
                out.send(self.next, 0);
            }
        }
        fn on_message(&mut self, _from: NodeId, msg: u32, _out: &mut Outbox<u32>) {
            self.held = self.held.max(Some(msg));
        }
        fn on_activation_end(&mut self, out: &mut Outbox<u32>) {
            self.activations += 1;
            if let Some(msg) = self.held.take().filter(|&m| m < self.rounds) {
                out.send(self.next, msg + 1);
            }
        }
    }

    #[test]
    fn sends_from_the_activation_hook_are_dispatched_before_quiescence() {
        let peers: Vec<HookRing> = (0..4)
            .map(|i| HookRing {
                next: NodeId((i + 1) % 4),
                rounds: 99,
                held: None,
                activations: 0,
                start_token: i == 0,
            })
            .collect();
        let (peers, stats) = run_threaded(peers, |_| 8).unwrap();
        assert_eq!(stats.messages, 100);
        assert_eq!(stats.events_processed, 100);
        // One token circulates, so every activation holds one message.
        let total: u32 = peers.iter().map(|p| p.activations).sum();
        assert_eq!(total, 100);
    }

    /// Fan-out/fan-in: node 0 broadcasts, others reply, node 0 accumulates.
    enum Node {
        Root { want: usize, got: usize },
        Leaf,
    }
    impl PeerLogic<u8> for Node {
        fn on_start(&mut self, out: &mut Outbox<u8>) {
            if let Node::Root { want, .. } = self {
                for i in 1..=*want {
                    out.send(NodeId(i), 1);
                }
            }
        }
        fn on_message(&mut self, from: NodeId, msg: u8, out: &mut Outbox<u8>) {
            match self {
                Node::Leaf => {
                    if msg == 1 {
                        out.send(NodeId(0), 2);
                    }
                }
                Node::Root { got, .. } => {
                    assert_eq!(msg, 2);
                    assert_ne!(from, NodeId(0));
                    *got += 1;
                }
            }
        }
    }

    #[test]
    fn threaded_fan_out_fan_in() {
        let mut peers = vec![Node::Root { want: 7, got: 0 }];
        for _ in 0..7 {
            peers.push(Node::Leaf);
        }
        let (peers, stats) = run_threaded(peers, |_| 1).unwrap();
        assert_eq!(stats.messages, 14);
        let Node::Root { got, .. } = &peers[0] else {
            panic!()
        };
        assert_eq!(*got, 7);
    }

    #[test]
    fn traced_threaded_run_exports_balanced_trace() {
        let collector = Collector::enabled();
        let peers: Vec<RingPeer> = (0..4)
            .map(|i| RingPeer {
                next: NodeId((i + 1) % 4),
                rounds: 49,
                seen: 0,
                start_token: i == 0,
            })
            .collect();
        let (_, stats) = run_threaded_traced(peers, |_| 8, &collector).unwrap();
        assert_eq!(stats.events_processed, stats.messages);
        assert_eq!(stats.sim_steps, 0);
        let snap = collector.snapshot();
        assert_eq!(snap.counter("net.messages"), stats.messages);
        assert_eq!(snap.counter("net.bytes"), stats.bytes);
        let trace = rescue_telemetry::export::chrome_trace(&collector);
        let summary = rescue_telemetry::json::validate_trace(&trace).unwrap();
        assert_eq!(summary.flow_sends, stats.messages as usize);
        assert_eq!(summary.flow_recvs, stats.messages as usize);
        assert_eq!(summary.unmatched_sends, 0);
    }

    #[test]
    fn per_peer_threaded_recordings_merge_causally() {
        let run_collector = Collector::enabled();
        let collectors: Vec<Collector> = (0..4)
            .map(|i| Collector::with_namespace(1 << 12, i + 1))
            .collect();
        let peers: Vec<RingPeer> = (0..4)
            .map(|i| RingPeer {
                next: NodeId((i + 1) % 4),
                rounds: 49,
                seen: 0,
                start_token: i == 0,
            })
            .collect();
        let (_, stats) =
            run_threaded_collectors(peers, |_| 8, collectors.clone(), &run_collector).unwrap();
        assert_eq!(
            run_collector.snapshot().counter("net.messages"),
            stats.messages
        );
        let named: Vec<(String, Collector)> = collectors
            .into_iter()
            .enumerate()
            .map(|(i, c)| (format!("n{i}"), c))
            .collect();
        let m = rescue_telemetry::merge::merge_traces(&named);
        assert_eq!(m.unresolved, 0, "offsets must resolve for a real run");
        let summary = rescue_telemetry::json::validate_trace(&m.json).unwrap();
        assert_eq!(summary.processes, 4);
        assert_eq!(summary.flow_sends, stats.messages as usize);
        assert_eq!(summary.flow_recvs, stats.messages as usize);
        // Ordering: the validator itself rejects any recv before its send.
        assert_eq!(summary.unmatched_sends, 0);
    }

    #[test]
    fn empty_network_terminates_immediately() {
        let peers: Vec<RingPeer> = vec![];
        let (_, stats) = run_threaded(peers, |_: &u32| 1).unwrap();
        assert_eq!(stats.messages, 0);
    }
}
