//! # rescue-net
//!
//! The asynchronous peer-to-peer substrate of *datalog-rescue*.
//!
//! The paper's setting (§1–§2) is a set of autonomous, distributed peers
//! with **asynchronous** communication: no global clock, messages may
//! interleave arbitrarily across channels, but each individual channel
//! preserves the order of its sender (the same assumption the supervisor
//! makes about each peer's alarms). This crate provides:
//!
//! * [`sim`] — a deterministic, seeded, single-threaded network simulator
//!   that exercises exactly those interleavings and counts every message;
//! * [`threaded`] — a crossbeam-channel, thread-per-peer transport with a
//!   counting termination detector (in the style of the distributed
//!   termination detection the paper points to via \[19, 33\]);
//! * [`PeerLogic`] — the event-driven peer interface shared by both.
//!
//! Distributed Datalog evaluation (`rescue-dqsq`) runs the same peer logic
//! on either transport; integration tests check they agree.

pub mod sim;
pub mod threaded;

use rescue_telemetry::{Absorb, Collector};
use std::fmt;

/// Identifies a peer within one network run (dense, 0-based).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Outbound actions a peer may take while handling an event.
pub struct Outbox<M> {
    pub(crate) me: NodeId,
    pub(crate) queued: Vec<(NodeId, M)>,
}

impl<M> Outbox<M> {
    pub(crate) fn new(me: NodeId) -> Self {
        Outbox {
            me,
            queued: Vec::new(),
        }
    }

    /// This peer's own id.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Queue a message to `to` (may be `self.me()`; self-messages are
    /// delivered like any other).
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.queued.push((to, msg));
    }
}

/// Event-driven peer behaviour. All computation happens inside the
/// handlers; a network run ends when every peer is idle and no message is
/// in flight (quiescence).
///
/// A transport delivers messages in *activations*: it hands one peer every
/// message waiting for it, each channel in its own order, through
/// [`on_message`](Self::on_message), then calls
/// [`on_activation_end`](Self::on_activation_end) once. What the peer
/// queued in its [`Outbox`] during the whole activation is sent after that
/// call.
pub trait PeerLogic<M>: Send {
    /// Called once before any message flows.
    fn on_start(&mut self, out: &mut Outbox<M>);
    /// Called for each delivered message.
    fn on_message(&mut self, from: NodeId, msg: M, out: &mut Outbox<M>);
    /// Called once after the last message of an activation.
    fn on_activation_end(&mut self, _out: &mut Outbox<M>) {}
}

/// Message and byte counters for one network run.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct NetStats {
    /// Messages delivered.
    pub messages: u64,
    /// Sum of the per-message size estimates.
    pub bytes: u64,
    /// Scheduler deliveries performed by the deterministic simulator.
    /// Zero on the threaded transport.
    pub sim_steps: u64,
    /// Messages handled on the thread-per-peer transport. Zero on the
    /// simulator (whose deliveries are counted as [`sim_steps`](Self::sim_steps)).
    pub events_processed: u64,
}

impl Absorb for NetStats {
    fn absorb(&mut self, other: &NetStats) {
        self.messages += other.messages;
        self.bytes += other.bytes;
        self.sim_steps += other.sim_steps;
        self.events_processed += other.events_processed;
    }
}

impl NetStats {
    /// Fold the run's counters into `collector` under the `net.*`
    /// namespace. Both transports call this exactly once per run, so the
    /// collector totals byte-match the accumulated `NetStats`.
    pub fn fold_into(&self, collector: &Collector) {
        if !collector.is_enabled() {
            return;
        }
        collector.count("net.messages", self.messages);
        collector.count("net.bytes", self.bytes);
        collector.count("net.sim_steps", self.sim_steps);
        collector.count("net.events_processed", self.events_processed);
    }
}

/// Errors from a network run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum NetError {
    /// The simulator exceeded its step budget without quiescing.
    StepBudgetExceeded { limit: u64 },
    /// A peer thread panicked (threaded transport).
    PeerPanicked { node: NodeId },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::StepBudgetExceeded { limit } => {
                write!(f, "network did not quiesce within {limit} steps")
            }
            NetError::PeerPanicked { node } => write!(f, "peer {node} panicked"),
        }
    }
}

impl std::error::Error for NetError {}
