//! Deterministic network simulator.
//!
//! Messages sit in per-`(sender, receiver)` channels. The scheduler picks
//! a nonempty channel at random and *activates* its receiver: it delivers
//! every message queued for that peer, one scheduler step each, taking
//! each step's message from one of the peer's nonempty channels at random,
//! and then ends the activation ([`PeerLogic::on_activation_end`]). So:
//!
//! * with [`Delivery::FifoPerChannel`] a step delivers its channel's head
//!   message and every channel is FIFO — exactly the paper's assumption
//!   about a peer's alarms ("for each individual peer the relative order
//!   of its alarms respects the order in which they were sent") — while
//!   the interleaving *across* channels is random;
//! * with [`Delivery::Random`] a step delivers any message of its channel,
//!   so even a single channel is reordered, exercising fully unordered
//!   delivery.
//!
//! The simulation is fully determined by the seed, making every experiment
//! and failure reproducible.

use crate::{NetError, NetStats, NodeId, Outbox, PeerLogic};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rescue_telemetry::{Arg, Collector};
use rustc_hash::FxHashMap;
use std::collections::VecDeque;

/// Message delivery policy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Delivery {
    /// FIFO within each `(sender, receiver)` channel; random interleaving
    /// across channels.
    FifoPerChannel,
    /// Any queued message may be delivered next.
    Random,
}

/// Configuration for a simulated run.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    pub seed: u64,
    pub delivery: Delivery,
    /// Abort if quiescence is not reached within this many deliveries.
    pub max_steps: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0xD1A6_0515, // "diagnosis"
            delivery: Delivery::FifoPerChannel,
            max_steps: 10_000_000,
        }
    }
}

/// An in-flight message with its observability envelope: the flow id
/// allocated at send time — so the collector can pair each `s` event with
/// its `f` even under Random delivery — plus the sender's Lamport clock,
/// which the receiver merges on delivery, and the physical send `Instant`
/// the receiver's clock observes (all zero/`None` when telemetry is
/// disabled). None of these count toward the byte accounting: they are
/// envelope, not protocol payload.
type InFlight<M> = (u64, u64, Option<std::time::Instant>, M);

/// A deterministic simulated network over a set of peers.
pub struct SimNet<M, P> {
    peers: Vec<P>,
    channels: FxHashMap<(NodeId, NodeId), VecDeque<InFlight<M>>>,
    nonempty: Vec<(NodeId, NodeId)>,
    rng: StdRng,
    config: SimConfig,
    stats: NetStats,
    sizer: fn(&M) -> usize,
    collector: Collector,
    /// One collector per peer; send-side events land in the sender's,
    /// deliveries in the receiver's. Empty unless
    /// [`set_peer_collectors`](Self::set_peer_collectors) was called.
    peer_collectors: Vec<Collector>,
}

impl<M, P: PeerLogic<M>> SimNet<M, P> {
    /// Build a network over `peers`; `sizer` estimates a message's size in
    /// bytes for the [`NetStats`] accounting (use `|_| 1` to count only
    /// messages).
    pub fn new(peers: Vec<P>, config: SimConfig, sizer: fn(&M) -> usize) -> Self {
        SimNet {
            peers,
            channels: FxHashMap::default(),
            nonempty: Vec::new(),
            rng: StdRng::seed_from_u64(config.seed),
            config,
            stats: NetStats::default(),
            sizer,
            collector: Collector::disabled(),
            peer_collectors: Vec::new(),
        }
    }

    /// Record per-message flow events, per-edge counters, queue-depth
    /// samples and handler spans into `collector`. Must be set before
    /// [`run`](Self::run); the default collector is disabled.
    pub fn set_collector(&mut self, collector: Collector) {
        self.collector = collector;
    }

    /// Give every peer its own collector (one per peer, in `NodeId`
    /// order): send-side flow events and counters are attributed to the
    /// sending peer's collector, deliveries and handler spans to the
    /// receiving peer's. The run-level collector set with
    /// [`set_collector`](Self::set_collector) keeps receiving the final
    /// [`NetStats`] fold.
    pub fn set_peer_collectors(&mut self, collectors: Vec<Collector>) {
        assert_eq!(collectors.len(), self.peers.len(), "one collector per peer");
        self.peer_collectors = collectors;
    }

    /// The collector owning peer `n`'s events.
    fn coll(&self, n: NodeId) -> &Collector {
        self.peer_collectors.get(n.0).unwrap_or(&self.collector)
    }

    pub fn num_peers(&self) -> usize {
        self.peers.len()
    }

    fn enqueue(&mut self, from: NodeId, to: NodeId, msg: M) {
        assert!(to.0 < self.peers.len(), "message to unknown peer {to}");
        let size = (self.sizer)(&msg) as u64;
        self.stats.bytes += size;
        let mut flow = 0;
        let mut lamport = 0;
        let mut sent = None;
        let sender = self.coll(from);
        if sender.is_enabled() {
            flow = sender.flow_id();
            lamport = sender.lamport_tick();
            sender.flow_send(
                format!("msg {from}->{to}"),
                "net",
                flow,
                vec![
                    ("bytes".to_owned(), Arg::Num(size)),
                    ("lamport".to_owned(), Arg::Num(lamport)),
                ],
            );
            // Stamped after the `s` event is recorded, so the receiver's
            // clock floor provably clears the recorded send timestamp.
            sent = sender.send_stamp();
            sender.count(&format!("net.edge.{from}->{to}.msgs"), 1);
            sender.count(&format!("net.edge.{from}->{to}.bytes"), size);
            sender.count("peer.msgs_sent", 1);
            sender.count("peer.bytes_sent", size);
        }
        let q = self.channels.entry((from, to)).or_default();
        if q.is_empty() {
            self.nonempty.push((from, to));
        }
        q.push_back((flow, lamport, sent, msg));
        let depth = q.len() as u64;
        // The queue belongs to the receiving peer's inbox.
        self.coll(to).record("net.queue_depth", depth);
    }

    fn flush_outbox(&mut self, out: Outbox<M>) {
        let from = out.me;
        for (to, msg) in out.queued {
            self.enqueue(from, to, msg);
        }
    }

    /// Run to quiescence; returns the accumulated statistics.
    pub fn run(&mut self) -> Result<NetStats, NetError> {
        // Start every peer.
        for i in 0..self.peers.len() {
            let mut out = Outbox::new(NodeId(i));
            self.peers[i].on_start(&mut out);
            self.flush_outbox(out);
        }
        // Activate the receiver of a random nonempty channel until no
        // channel is nonempty.
        while !self.nonempty.is_empty() {
            let ci = self.rng.gen_range(0..self.nonempty.len());
            let to = self.nonempty[ci].1;
            self.activate(to)?;
        }
        self.stats.fold_into(&self.collector);
        Ok(self.stats)
    }

    /// Deliver every message queued for `to`, then end its activation.
    /// Each step takes the next message of one of `to`'s channels, chosen
    /// at random, so the channels interleave; within a channel the
    /// delivery policy picks the message. Nothing the peer sends reaches a
    /// channel before the activation ends.
    fn activate(&mut self, to: NodeId) -> Result<(), NetError> {
        let mut inbox: Vec<(NodeId, NodeId)> = Vec::new();
        self.nonempty.retain(|&key| {
            if key.1 == to {
                inbox.push(key);
            }
            key.1 != to
        });
        let receiver = self.coll(to);
        let _handler_span =
            (receiver.is_enabled()).then(|| receiver.span(format!("deliver {to}"), "net"));
        let mut out = Outbox::new(to);
        while !inbox.is_empty() {
            if self.stats.sim_steps >= self.config.max_steps {
                return Err(NetError::StepBudgetExceeded {
                    limit: self.config.max_steps,
                });
            }
            self.stats.sim_steps += 1;
            let ci = self.rng.gen_range(0..inbox.len());
            let key = inbox[ci];
            let q = self.channels.get_mut(&key).expect("tracked channel");
            let (flow, lamport, sent, msg) = match self.config.delivery {
                Delivery::FifoPerChannel => q.pop_front().expect("nonempty"),
                Delivery::Random => {
                    let mi = self.rng.gen_range(0..q.len());
                    q.remove(mi).expect("index in range")
                }
            };
            if q.is_empty() {
                inbox.swap_remove(ci);
            }
            let from = key.0;
            self.stats.messages += 1;
            let receiver = self.coll(to);
            if receiver.is_enabled() {
                let merged = receiver.lamport_observe(lamport);
                if let Some(sent) = sent {
                    receiver.observe_send_instant(sent);
                }
                receiver.flow_recv(
                    format!("msg {from}->{to}"),
                    "net",
                    flow,
                    vec![("lamport".to_owned(), Arg::Num(merged))],
                );
                receiver.count("peer.msgs_recv", 1);
                receiver.count("peer.bytes_recv", (self.sizer)(&msg) as u64);
            }
            self.peers[to.0].on_message(from, msg, &mut out);
        }
        self.peers[to.0].on_activation_end(&mut out);
        self.flush_outbox(out);
        Ok(())
    }

    /// The peers, for post-run inspection.
    pub fn peers(&self) -> &[P] {
        &self.peers
    }

    pub fn into_peers(self) -> Vec<P> {
        self.peers
    }

    pub fn stats(&self) -> NetStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A peer that forwards a counter around a ring `rounds` times.
    struct RingPeer {
        next: NodeId,
        rounds: u32,
        seen: Vec<u32>,
        start_token: bool,
    }

    impl PeerLogic<u32> for RingPeer {
        fn on_start(&mut self, out: &mut Outbox<u32>) {
            if self.start_token {
                out.send(self.next, 0);
            }
        }
        fn on_message(&mut self, _from: NodeId, msg: u32, out: &mut Outbox<u32>) {
            self.seen.push(msg);
            if msg < self.rounds {
                out.send(self.next, msg + 1);
            }
        }
    }

    fn ring(n: usize, rounds: u32) -> Vec<RingPeer> {
        (0..n)
            .map(|i| RingPeer {
                next: NodeId((i + 1) % n),
                rounds,
                seen: Vec::new(),
                start_token: i == 0,
            })
            .collect()
    }

    #[test]
    fn ring_quiesces_and_counts() {
        let mut net = SimNet::new(ring(4, 11), SimConfig::default(), |_| 4);
        let stats = net.run().unwrap();
        assert_eq!(stats.messages, 12); // tokens 0..=11
        assert_eq!(stats.bytes, 48);
        let total_seen: usize = net.peers().iter().map(|p| p.seen.len()).sum();
        assert_eq!(total_seen, 12);
    }

    #[test]
    fn traced_sim_counters_match_stats() {
        // Shadowed below by the test helper struct, so fully qualify.
        let collector = rescue_telemetry::Collector::enabled();
        let mut net = SimNet::new(ring(4, 11), SimConfig::default(), |_| 4);
        net.set_collector(collector.clone());
        let stats = net.run().unwrap();
        let snap = collector.snapshot();
        assert_eq!(snap.counter("net.messages"), stats.messages);
        assert_eq!(snap.counter("net.bytes"), stats.bytes);
        assert_eq!(snap.counter("net.sim_steps"), stats.sim_steps);
        assert_eq!(stats.sim_steps, stats.messages);
        assert_eq!(stats.events_processed, 0);
        // Every send has a matching delivery in the trace.
        let trace = rescue_telemetry::export::chrome_trace(&collector);
        let summary = rescue_telemetry::json::validate_trace(&trace).unwrap();
        assert_eq!(summary.flow_sends, stats.messages as usize);
        assert_eq!(summary.flow_recvs, stats.messages as usize);
        assert_eq!(summary.unmatched_sends, 0);
    }

    #[test]
    fn per_peer_collectors_merge_into_multi_process_trace() {
        let collectors: Vec<rescue_telemetry::Collector> = (0..4)
            .map(|i| rescue_telemetry::Collector::with_namespace(1 << 12, i as u64 + 1))
            .collect();
        let mut net = SimNet::new(ring(4, 11), SimConfig::default(), |_| 4);
        net.set_peer_collectors(collectors.clone());
        let stats = net.run().unwrap();
        // Send-side counters landed in senders, deliveries in receivers.
        let sent: u64 = collectors
            .iter()
            .map(|c| c.snapshot().counter("peer.msgs_sent"))
            .sum();
        let recv: u64 = collectors
            .iter()
            .map(|c| c.snapshot().counter("peer.msgs_recv"))
            .sum();
        assert_eq!(sent, stats.messages);
        assert_eq!(recv, stats.messages);
        let named: Vec<(String, rescue_telemetry::Collector)> = collectors
            .into_iter()
            .enumerate()
            .map(|(i, c)| (format!("n{i}"), c))
            .collect();
        let m = rescue_telemetry::merge::merge_traces(&named);
        assert_eq!(m.unresolved, 0);
        let summary = rescue_telemetry::json::validate_trace(&m.json).unwrap();
        assert_eq!(summary.processes, 4);
        assert_eq!(summary.flow_sends, stats.messages as usize);
        assert_eq!(summary.flow_recvs, stats.messages as usize);
        assert_eq!(summary.unmatched_sends, 0);
    }

    #[test]
    fn deterministic_under_same_seed() {
        let run = |seed: u64| {
            let cfg = SimConfig {
                seed,
                ..Default::default()
            };
            let mut net = SimNet::new(ring(5, 20), cfg, |_| 1);
            net.run().unwrap();
            net.into_peers()
                .into_iter()
                .map(|p| p.seen)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
    }

    /// Two senders to one receiver: per-channel FIFO must hold under
    /// FifoPerChannel even though cross-channel interleaving is random.
    struct Collector {
        got: Vec<(NodeId, u32)>,
        activations: usize,
    }
    struct Burst {
        to: NodeId,
        count: u32,
    }
    enum Node {
        C(Collector),
        B(Burst),
    }
    impl PeerLogic<u32> for Node {
        fn on_start(&mut self, out: &mut Outbox<u32>) {
            if let Node::B(b) = self {
                for i in 0..b.count {
                    out.send(b.to, i);
                }
            }
        }
        fn on_message(&mut self, from: NodeId, msg: u32, _out: &mut Outbox<u32>) {
            if let Node::C(c) = self {
                c.got.push((from, msg));
            }
        }
        fn on_activation_end(&mut self, _out: &mut Outbox<u32>) {
            if let Node::C(c) = self {
                c.activations += 1;
            }
        }
    }

    #[test]
    fn fifo_per_channel_preserves_sender_order() {
        for seed in 0..20 {
            let peers = vec![
                Node::C(Collector {
                    got: Vec::new(),
                    activations: 0,
                }),
                Node::B(Burst {
                    to: NodeId(0),
                    count: 10,
                }),
                Node::B(Burst {
                    to: NodeId(0),
                    count: 10,
                }),
            ];
            let cfg = SimConfig {
                seed,
                delivery: Delivery::FifoPerChannel,
                ..Default::default()
            };
            let mut net = SimNet::new(peers, cfg, |_| 1);
            net.run().unwrap();
            let peers = net.into_peers();
            let Node::C(c) = &peers[0] else { panic!() };
            for sender in [NodeId(1), NodeId(2)] {
                let from_sender: Vec<u32> = c
                    .got
                    .iter()
                    .filter(|(f, _)| *f == sender)
                    .map(|(_, m)| *m)
                    .collect();
                assert_eq!(from_sender, (0..10).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn an_activation_drains_the_inbox_and_interleaves_channels() {
        let mut interleaved = [false; 2];
        for seed in 0..20 {
            for (i, delivery) in [Delivery::FifoPerChannel, Delivery::Random]
                .into_iter()
                .enumerate()
            {
                let peers = vec![
                    Node::C(Collector {
                        got: Vec::new(),
                        activations: 0,
                    }),
                    Node::B(Burst {
                        to: NodeId(0),
                        count: 10,
                    }),
                    Node::B(Burst {
                        to: NodeId(0),
                        count: 10,
                    }),
                ];
                let cfg = SimConfig {
                    seed,
                    delivery,
                    ..Default::default()
                };
                let mut net = SimNet::new(peers, cfg, |_| 1);
                let stats = net.run().unwrap();
                let peers = net.into_peers();
                let Node::C(c) = &peers[0] else { panic!() };
                // Both bursts are queued before the first step, so one
                // activation delivers all twenty, each counted.
                assert_eq!(c.activations, 1);
                assert_eq!(c.got.len(), 20);
                assert_eq!((stats.messages, stats.sim_steps), (20, 20));
                let senders: Vec<NodeId> = c.got.iter().map(|(f, _)| *f).collect();
                let first = |n| senders.iter().position(|&f| f == n).unwrap();
                let last = |n| senders.iter().rposition(|&f| f == n).unwrap();
                let (a, b) = (NodeId(1), NodeId(2));
                interleaved[i] |= first(b) < last(a) && first(a) < last(b);
            }
        }
        assert_eq!(interleaved, [true, true], "channels never interleaved");
    }

    #[test]
    fn random_delivery_can_reorder_a_channel() {
        // With enough seeds, Random must produce at least one non-FIFO
        // ordering on a single channel.
        let mut saw_reorder = false;
        for seed in 0..50 {
            let peers = vec![
                Node::C(Collector {
                    got: Vec::new(),
                    activations: 0,
                }),
                Node::B(Burst {
                    to: NodeId(0),
                    count: 8,
                }),
            ];
            let cfg = SimConfig {
                seed,
                delivery: Delivery::Random,
                ..Default::default()
            };
            let mut net = SimNet::new(peers, cfg, |_| 1);
            net.run().unwrap();
            let peers = net.into_peers();
            let Node::C(c) = &peers[0] else { panic!() };
            let order: Vec<u32> = c.got.iter().map(|(_, m)| *m).collect();
            if order != (0..8).collect::<Vec<_>>() {
                saw_reorder = true;
                break;
            }
        }
        assert!(saw_reorder, "Random delivery never reordered in 50 seeds");
    }

    /// A peer that floods itself forever — must hit the step budget.
    struct Flood;
    impl PeerLogic<u32> for Flood {
        fn on_start(&mut self, out: &mut Outbox<u32>) {
            out.send(out.me(), 0);
        }
        fn on_message(&mut self, _f: NodeId, m: u32, out: &mut Outbox<u32>) {
            out.send(out.me(), m);
        }
    }

    #[test]
    fn step_budget_guards_against_livelock() {
        let cfg = SimConfig {
            max_steps: 100,
            ..Default::default()
        };
        let mut net = SimNet::new(vec![Flood], cfg, |_| 1);
        assert_eq!(net.run(), Err(NetError::StepBudgetExceeded { limit: 100 }));
    }
}
