//! # rescue-telemetry
//!
//! Unified tracing and metrics for *datalog-rescue*: hierarchical spans
//! with monotonic timings, typed counters and histograms, and a bounded
//! event ring — all behind a cheap [`Collector`] handle that the rest of
//! the workspace threads through its hot layers (the datalog fixpoint, the
//! dQSQ peer network, diagnosis sessions).
//!
//! Design constraints, in order:
//!
//! 1. **Disabled must be (nearly) free.** A disabled collector is a
//!    `None`; every recording call is one branch. The hot loops
//!    additionally gate their label formatting on
//!    [`Collector::is_enabled`], so production runs pay a null check per
//!    *phase*, not per tuple.
//! 2. **No dependencies.** The build environment is offline and this
//!    crate sits below every other one; it uses only `std`.
//! 3. **Bounded memory.** Events land in a fixed-capacity ring
//!    ([`ring::Ring`]) with overflow accounting — long-running sessions
//!    keep the earliest prefix of the trace plus exact drop counts.
//!    Counters and histograms aggregate in place and never grow with run
//!    length.
//!
//! One recording exports two ways (see [`export`]): Chrome `trace_event`
//! JSON for `chrome://tracing` / Perfetto, and a flat metrics dump
//! (JSON or text) for experiment tables. [`json`] is the workspace's one
//! JSON codec: the writer every emitter uses, and the parser behind the
//! trace schema validator, the server's requests and the tests.

pub mod export;
pub mod expose;
pub mod flight;
pub mod json;
pub mod merge;
pub mod profile;
pub mod ring;
pub mod series;
pub mod window;

use ring::Ring;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Merge one statistics block into another — the one accumulation idiom
/// shared by every counter struct of the workspace (`EvalStats`,
/// `NetStats`, the collector's own snapshots), so per-peer / per-run
/// aggregation is written once.
pub trait Absorb {
    fn absorb(&mut self, other: &Self);
}

/// Fold many statistics blocks into one (`T::default()` absorbing each in
/// turn). The workspace's "sum over peers / runs" loops all route here.
pub fn merged<'a, T, I>(items: I) -> T
where
    T: Absorb + Default + 'a,
    I: IntoIterator<Item = &'a T>,
{
    let mut acc = T::default();
    for item in items {
        acc.absorb(item);
    }
    acc
}

/// A typed argument value attached to a trace event.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Arg {
    Num(u64),
    Str(String),
}

impl From<u64> for Arg {
    fn from(v: u64) -> Self {
        Arg::Num(v)
    }
}

impl From<usize> for Arg {
    fn from(v: usize) -> Self {
        Arg::Num(v as u64)
    }
}

impl From<&str> for Arg {
    fn from(v: &str) -> Self {
        Arg::Str(v.to_owned())
    }
}

impl From<String> for Arg {
    fn from(v: String) -> Self {
        Arg::Str(v)
    }
}

/// One recorded trace event. Timestamps are microseconds since the
/// collector was created (monotonic, comparable across threads).
#[derive(Clone, Debug)]
pub enum Event {
    /// Span open (`ph: "B"`).
    Begin {
        name: String,
        cat: &'static str,
        tid: u64,
        ts_us: u64,
        args: Vec<(String, Arg)>,
    },
    /// Span close (`ph: "E"`); `name` repeats the opening name so the
    /// exported trace is self-describing even when truncated.
    End {
        name: String,
        cat: &'static str,
        tid: u64,
        ts_us: u64,
        args: Vec<(String, Arg)>,
    },
    /// Point event (`ph: "i"`).
    Instant {
        name: String,
        cat: &'static str,
        tid: u64,
        ts_us: u64,
        args: Vec<(String, Arg)>,
    },
    /// Flow start (`ph: "s"`) — a message leaving its sender.
    FlowSend {
        name: String,
        cat: &'static str,
        id: u64,
        tid: u64,
        ts_us: u64,
        args: Vec<(String, Arg)>,
    },
    /// Flow finish (`ph: "f"`) — the same message being delivered.
    FlowRecv {
        name: String,
        cat: &'static str,
        id: u64,
        tid: u64,
        ts_us: u64,
        args: Vec<(String, Arg)>,
    },
}

/// Number of log₂ buckets a [`Histogram`] keeps. Bucket `i` counts values
/// `v` with `⌊log₂ v⌋ = i - 1` (bucket 0 holds `v == 0`), covering the
/// full `u64` range in 65 slots of fixed size.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Aggregated distribution of one metric (all values in the unit the
/// caller recorded — the workspace convention is microseconds for
/// latencies). Alongside the exact count/sum/min/max, the histogram keeps
/// fixed log₂ buckets so percentile estimates ([`Histogram::percentile`])
/// cost O(1) memory regardless of run length.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Histogram {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    /// Most recently recorded value (what a `--follow` summary line wants).
    pub last: u64,
    /// Log₂ bucket counts; see [`HISTOGRAM_BUCKETS`].
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            last: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

/// Which log₂ bucket a value lands in: 0 for 0, else `⌊log₂ v⌋ + 1`.
fn bucket_of(v: u64) -> usize {
    match v {
        0 => 0,
        v => (63 - v.leading_zeros()) as usize + 1,
    }
}

impl Histogram {
    /// Fold one sample in. Public so callers that keep standalone
    /// histograms (per-session latency in the `SessionManager`) can feed
    /// them without going through a collector.
    pub fn record(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        self.last = v;
        self.buckets[bucket_of(v)] += 1;
    }

    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Estimated `q`-quantile (`q` in `[0, 1]`), from the log₂ buckets:
    /// the upper bound of the bucket holding the `⌈q·count⌉`-th smallest
    /// sample, clamped into `[min, max]`. Exact when every sample in the
    /// deciding bucket is equal; otherwise off by at most a factor of 2
    /// (one bucket's width).
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Upper bound of bucket i: 0 for bucket 0, else 2^i - 1
                // (saturating at u64::MAX for the last bucket).
                let hi = match 1u64.checked_shl(i as u32) {
                    _ if i == 0 => 0,
                    Some(p) => p - 1,
                    None => u64::MAX,
                };
                return hi.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// The `(p50, p95, p99)` triple the peer dashboard prints.
    pub fn percentiles(&self) -> (u64, u64, u64) {
        (
            self.percentile(0.50),
            self.percentile(0.95),
            self.percentile(0.99),
        )
    }
}

impl Absorb for Histogram {
    fn absorb(&mut self, other: &Self) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum += other.sum;
        self.last = other.last;
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }
}

/// A point-in-time copy of every aggregate the collector holds. Cheap to
/// diff (see [`MetricsSnapshot::counter`]) — the CLI takes one before and
/// after each alarm to print per-alarm deltas.
#[derive(Clone, Default, Debug)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, Histogram>,
    /// Events refused by the full ring (trace truncation indicator).
    pub dropped_events: u64,
    /// Capacity of the event ring the snapshot was taken from — printed
    /// next to `dropped_events` so a truncated dump says how big the
    /// window was.
    pub ring_capacity: u64,
}

impl MetricsSnapshot {
    /// The counter's value, zero when never touched.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn histogram(&self, name: &str) -> Histogram {
        self.histograms.get(name).copied().unwrap_or_default()
    }
}

impl Absorb for MetricsSnapshot {
    fn absorb(&mut self, other: &Self) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().absorb(h);
        }
        self.dropped_events += other.dropped_events;
        self.ring_capacity += other.ring_capacity;
    }
}

struct State {
    events: Ring<Event>,
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    /// Time-series sampler, present once [`Collector::attach_series`] ran.
    series: Option<series::Series>,
}

impl State {
    fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
            histograms: self.histograms.clone(),
            dropped_events: self.events.dropped(),
            ring_capacity: self.events.capacity() as u64,
        }
    }
}

struct Inner {
    start: Instant,
    state: Mutex<State>,
    next_flow: AtomicU64,
    /// Namespace OR-ed into allocated flow ids (see
    /// [`Collector::with_namespace`]); 0 for plain collectors.
    flow_ns: u64,
    /// Lamport logical clock, piggybacked on message envelopes so traces
    /// from peers with independent monotonic clocks can be causally
    /// merged (see [`merge`]).
    lamport: AtomicU64,
    /// Hybrid-logical-clock floor (µs): timestamps never read below this.
    /// Advanced by [`Collector::observe_send_instant`] so a message
    /// delivered within the same microsecond it was sent still records a
    /// receive strictly after the send — keeping the merge's offset
    /// constraint system (see [`merge`]) feasible.
    ts_floor: AtomicU64,
}

/// Bits below the flow-id namespace: peer `k`'s collector allocates ids
/// `k << FLOW_NS_SHIFT | n`, so per-peer recordings never collide when
/// merged into one trace.
pub const FLOW_NS_SHIFT: u32 = 40;

/// Default event-ring capacity (events, not bytes).
pub const DEFAULT_EVENT_CAPACITY: usize = 1 << 16;

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Dense per-thread id used as the `tid` of exported events. Stable for
/// the life of the thread; assigned on first use.
pub fn current_tid() -> u64 {
    TID.with(|t| *t)
}

/// The recording handle. Clones share one recording; a disabled collector
/// ([`Collector::disabled`], also `Default`) turns every call into a
/// single branch and allocates nothing.
#[derive(Clone, Default)]
pub struct Collector {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "Collector(disabled)"),
            Some(inner) => {
                let st = lock(&inner.state);
                write!(
                    f,
                    "Collector(events: {}, dropped: {}, counters: {})",
                    st.events.len(),
                    st.events.dropped(),
                    st.counters.len()
                )
            }
        }
    }
}

fn lock(m: &Mutex<State>) -> MutexGuard<'_, State> {
    // A peer thread may panic mid-record; the recording stays readable.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Collector {
    /// A collector that records nothing. Every recording call is one
    /// `Option` branch.
    pub fn disabled() -> Self {
        Collector { inner: None }
    }

    /// An active collector with the default event capacity.
    pub fn enabled() -> Self {
        Self::with_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// An active collector whose event ring holds at most `capacity`
    /// events (counters and histograms are unaffected by the cap).
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_namespace(capacity, 0)
    }

    /// An active collector whose flow ids live in namespace `ns`
    /// (`id = ns << FLOW_NS_SHIFT | n`). Per-peer collectors each get a
    /// distinct namespace so flow ids stay globally unique across the
    /// recordings a [`merge`] combines.
    pub fn with_namespace(capacity: usize, ns: u64) -> Self {
        Collector {
            inner: Some(Arc::new(Inner {
                start: Instant::now(),
                state: Mutex::new(State {
                    events: Ring::new(capacity),
                    counters: BTreeMap::new(),
                    histograms: BTreeMap::new(),
                    series: None,
                }),
                next_flow: AtomicU64::new(1),
                flow_ns: ns << FLOW_NS_SHIFT,
                lamport: AtomicU64::new(0),
                ts_floor: AtomicU64::new(0),
            })),
        }
    }

    /// Whether recording calls do anything. Hot paths gate label
    /// formatting on this.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn now_us(inner: &Inner) -> u64 {
        (inner.start.elapsed().as_micros() as u64).max(inner.ts_floor.load(Ordering::Relaxed))
    }

    /// This collector's logical clock as an absolute `Instant`: real time
    /// when the clock is running on real time, further ahead when an HLC
    /// floor has pushed it forward. Transports stamp outgoing envelopes
    /// with this (after recording the `s` event) so the receiver's
    /// [`observe_send_instant`](Collector::observe_send_instant) chains
    /// floors across hops instead of resetting to real time each hop.
    pub fn send_stamp(&self) -> Option<Instant> {
        self.inner
            .as_ref()
            .map(|inner| inner.start + std::time::Duration::from_micros(Self::now_us(inner)))
    }

    /// Hybrid-logical-clock observation of a message's send time: advance
    /// this collector's clock past `sent`, so the delivery events
    /// recorded next (and everything after them) timestamp strictly later
    /// than the send on the merged timeline even when the transport
    /// delivered within the same microsecond. The +3µs slack absorbs the
    /// sub-microsecond truncation of both peers' clock origins. It is the
    /// timestamp analogue of [`Collector::lamport_observe`]; `sent` comes
    /// from the sender's [`send_stamp`](Collector::send_stamp).
    pub fn observe_send_instant(&self, sent: Instant) {
        if let Some(inner) = &self.inner {
            let min_ts = sent.saturating_duration_since(inner.start).as_micros() as u64 + 3;
            inner.ts_floor.fetch_max(min_ts, Ordering::Relaxed);
        }
    }

    /// Open a span; it closes (records its `End` event) when the returned
    /// guard drops. Use [`Span::arg`] to attach results known only at the
    /// end, e.g. facts derived.
    pub fn span(&self, name: impl Into<String>, cat: &'static str) -> Span {
        let Some(inner) = &self.inner else {
            return Span {
                inner: None,
                name: String::new(),
                cat,
                end_args: Vec::new(),
            };
        };
        let name = name.into();
        let ev = Event::Begin {
            name: name.clone(),
            cat,
            tid: current_tid(),
            ts_us: Self::now_us(inner),
            args: Vec::new(),
        };
        lock(&inner.state).events.push(ev);
        Span {
            inner: Some(Arc::clone(inner)),
            name,
            cat,
            end_args: Vec::new(),
        }
    }

    /// Record a point event.
    pub fn instant(&self, name: impl Into<String>, cat: &'static str, args: Vec<(String, Arg)>) {
        if let Some(inner) = &self.inner {
            let ev = Event::Instant {
                name: name.into(),
                cat,
                tid: current_tid(),
                ts_us: Self::now_us(inner),
                args,
            };
            lock(&inner.state).events.push(ev);
        }
    }

    /// Add `delta` to the named counter.
    pub fn count(&self, name: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            if delta == 0 {
                return;
            }
            let mut st = lock(&inner.state);
            match st.counters.get_mut(name) {
                Some(v) => *v += delta,
                None => {
                    st.counters.insert(name.to_owned(), delta);
                }
            }
        }
    }

    /// Record one sample of the named distribution.
    pub fn record(&self, name: &str, value: u64) {
        if let Some(inner) = &self.inner {
            let mut st = lock(&inner.state);
            match st.histograms.get_mut(name) {
                Some(h) => h.record(value),
                None => {
                    let mut h = Histogram::default();
                    h.record(value);
                    st.histograms.insert(name.to_owned(), h);
                }
            }
        }
    }

    /// Allocate a fresh flow id for a send/recv event pair. Ids are unique
    /// within this recording, and across recordings when each collector
    /// was given a distinct namespace ([`Collector::with_namespace`]).
    pub fn flow_id(&self) -> u64 {
        match &self.inner {
            None => 0,
            Some(inner) => inner.flow_ns | inner.next_flow.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Advance the Lamport clock for a local event (a message send) and
    /// return the new value; the sender ships it in the envelope. Always
    /// `>= 1` when enabled, 0 when disabled.
    pub fn lamport_tick(&self) -> u64 {
        match &self.inner {
            None => 0,
            Some(inner) => inner.lamport.fetch_add(1, Ordering::Relaxed) + 1,
        }
    }

    /// Merge a Lamport value received in a message envelope:
    /// `max(local, seen) + 1`, returned for recording on the delivery
    /// event. 0 when disabled.
    pub fn lamport_observe(&self, seen: u64) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        let mut cur = inner.lamport.load(Ordering::Relaxed);
        loop {
            let next = cur.max(seen) + 1;
            match inner.lamport.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return next,
                Err(v) => cur = v,
            }
        }
    }

    /// Record a message leaving its sender (`ph: "s"`). Pair with
    /// [`flow_recv`](Self::flow_recv) under the same `id`.
    pub fn flow_send(
        &self,
        name: impl Into<String>,
        cat: &'static str,
        id: u64,
        args: Vec<(String, Arg)>,
    ) {
        if let Some(inner) = &self.inner {
            let ev = Event::FlowSend {
                name: name.into(),
                cat,
                id,
                tid: current_tid(),
                ts_us: Self::now_us(inner),
                args,
            };
            lock(&inner.state).events.push(ev);
        }
    }

    /// Record the matching delivery (`ph: "f"`).
    pub fn flow_recv(
        &self,
        name: impl Into<String>,
        cat: &'static str,
        id: u64,
        args: Vec<(String, Arg)>,
    ) {
        if let Some(inner) = &self.inner {
            let ev = Event::FlowRecv {
                name: name.into(),
                cat,
                id,
                tid: current_tid(),
                ts_us: Self::now_us(inner),
                args,
            };
            lock(&inner.state).events.push(ev);
        }
    }

    /// Microseconds since this collector was created (0 when disabled).
    pub fn elapsed_us(&self) -> u64 {
        match &self.inner {
            None => 0,
            Some(inner) => Self::now_us(inner),
        }
    }

    /// Events refused because the ring was full.
    pub fn dropped_events(&self) -> u64 {
        match &self.inner {
            None => 0,
            Some(inner) => lock(&inner.state).events.dropped(),
        }
    }

    /// Number of events currently recorded.
    pub fn event_count(&self) -> usize {
        match &self.inner {
            None => 0,
            Some(inner) => lock(&inner.state).events.len(),
        }
    }

    /// Capacity of the event ring (0 when disabled).
    pub fn event_capacity(&self) -> usize {
        match &self.inner {
            None => 0,
            Some(inner) => lock(&inner.state).events.capacity(),
        }
    }

    /// Copy of every counter and histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            None => MetricsSnapshot::default(),
            Some(inner) => lock(&inner.state).snapshot(),
        }
    }

    /// Attach (or replace) a time-series sampler holding at most
    /// `capacity` delta points (see [`series`]). No-op when disabled.
    pub fn attach_series(&self, capacity: usize) {
        if let Some(inner) = &self.inner {
            lock(&inner.state).series = Some(series::Series::new(capacity));
        }
    }

    /// Take one series sample: the delta of every counter/histogram since
    /// the previous sample, labeled with why it was taken (`"round"`,
    /// `"alarm"`) plus caller-supplied point-in-time gauges. No-op when
    /// disabled or when no series is attached.
    pub fn sample_series(&self, label: &str, gauges: &[(&str, u64)]) {
        let Some(inner) = &self.inner else { return };
        let t_us = Self::now_us(inner);
        let mut st = lock(&inner.state);
        if let Some(mut series) = st.series.take() {
            series.sample(&st.snapshot(), t_us, label, gauges);
            st.series = Some(series);
        }
    }

    /// Remove and return every buffered series point, oldest first — the
    /// streaming (JSONL) consumer's read. Empty when disabled or when no
    /// series is attached.
    pub fn drain_series(&self) -> Vec<series::SeriesPoint> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => lock(&inner.state)
                .series
                .as_mut()
                .map(|s| s.drain())
                .unwrap_or_default(),
        }
    }

    /// Render a flight-recorder dump (see [`flight`]): the last
    /// [`flight::DEFAULT_FLIGHT_EVENTS`] events, the metrics snapshot, and
    /// the partial per-rule profile, as one self-contained JSON document.
    /// Valid (if empty) even on a disabled collector, so error paths can
    /// call it unconditionally.
    pub fn flight_dump(&self, reason: &str) -> String {
        flight::flight_json(self, reason, flight::DEFAULT_FLIGHT_EVENTS)
    }

    /// Run `f` over the recorded events, oldest first.
    pub fn with_events<R>(&self, f: impl FnOnce(&mut dyn Iterator<Item = &Event>) -> R) -> R {
        match &self.inner {
            None => f(&mut std::iter::empty()),
            Some(inner) => {
                let st = lock(&inner.state);
                f(&mut st.events.iter())
            }
        }
    }

    /// Per-span-name rollup: `(count, total inclusive µs)`, from the
    /// recorded Begin/End pairs. Spans still open (or whose End was
    /// dropped) are excluded.
    pub fn span_rollup(&self) -> BTreeMap<String, (u64, u64)> {
        let mut out: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        self.with_events(|events| {
            // Per-tid stack of open (name, begin-ts).
            let mut open: BTreeMap<u64, Vec<(String, u64)>> = BTreeMap::new();
            for ev in events {
                match ev {
                    Event::Begin {
                        name, tid, ts_us, ..
                    } => open.entry(*tid).or_default().push((name.clone(), *ts_us)),
                    Event::End { tid, ts_us, .. } => {
                        if let Some((name, t0)) = open.entry(*tid).or_default().pop() {
                            let e = out.entry(name).or_insert((0, 0));
                            e.0 += 1;
                            e.1 += ts_us.saturating_sub(t0);
                        }
                    }
                    _ => {}
                }
            }
        });
        out
    }
}

/// An open span. Closes on drop; attach end-of-span results with
/// [`arg`](Self::arg).
pub struct Span {
    inner: Option<Arc<Inner>>,
    name: String,
    cat: &'static str,
    end_args: Vec<(String, Arg)>,
}

impl Span {
    /// Attach an argument to the span's closing event (merged with the
    /// opening event by trace viewers).
    pub fn arg(&mut self, key: &str, value: impl Into<Arg>) {
        if self.inner.is_some() {
            self.end_args.push((key.to_owned(), value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let ev = Event::End {
                name: std::mem::take(&mut self.name),
                cat: self.cat,
                tid: current_tid(),
                ts_us: Collector::now_us(&inner),
                args: std::mem::take(&mut self.end_args),
            };
            lock(&inner.state).events.push(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_collector_records_nothing() {
        let c = Collector::disabled();
        let mut s = c.span("x", "test");
        s.arg("k", 1u64);
        drop(s);
        c.count("n", 5);
        c.record("h", 9);
        c.flow_send("m", "test", c.flow_id(), Vec::new());
        assert_eq!(c.event_count(), 0);
        assert_eq!(c.snapshot().counters.len(), 0);
        assert!(!c.is_enabled());
    }

    #[test]
    fn spans_nest_and_close_in_lifo_order() {
        let c = Collector::enabled();
        {
            let _outer = c.span("outer", "test");
            {
                let _inner = c.span("inner", "test");
            }
        }
        let kinds: Vec<String> = c.with_events(|evs| {
            evs.map(|e| match e {
                Event::Begin { name, .. } => format!("B:{name}"),
                Event::End { name, .. } => format!("E:{name}"),
                _ => "?".into(),
            })
            .collect()
        });
        assert_eq!(kinds, vec!["B:outer", "B:inner", "E:inner", "E:outer"]);
        let rollup = c.span_rollup();
        assert_eq!(rollup.get("outer").unwrap().0, 1);
        assert_eq!(rollup.get("inner").unwrap().0, 1);
        // The outer span's inclusive time covers the inner's.
        assert!(rollup["outer"].1 >= rollup["inner"].1);
    }

    #[test]
    fn counters_and_histograms_aggregate() {
        let c = Collector::enabled();
        c.count("facts", 3);
        c.count("facts", 4);
        c.record("lat", 10);
        c.record("lat", 2);
        c.record("lat", 6);
        let s = c.snapshot();
        assert_eq!(s.counter("facts"), 7);
        let h = s.histogram("lat");
        assert_eq!((h.count, h.sum, h.min, h.max, h.last), (3, 18, 2, 10, 6));
        assert_eq!(h.mean(), 6);
    }

    #[test]
    fn ring_overflow_is_accounted_not_silent() {
        let c = Collector::with_capacity(4);
        for i in 0..10 {
            c.instant(format!("e{i}"), "test", Vec::new());
        }
        assert_eq!(c.event_count(), 4);
        assert_eq!(c.dropped_events(), 6);
        assert_eq!(c.snapshot().dropped_events, 6);
    }

    #[test]
    fn flow_ids_are_unique_and_pair_events() {
        let c = Collector::enabled();
        let a = c.flow_id();
        let b = c.flow_id();
        assert_ne!(a, b);
        c.flow_send("msg", "net", a, Vec::new());
        c.flow_recv("msg", "net", a, Vec::new());
        let ids: Vec<(bool, u64)> = c.with_events(|evs| {
            evs.filter_map(|e| match e {
                Event::FlowSend { id, .. } => Some((true, *id)),
                Event::FlowRecv { id, .. } => Some((false, *id)),
                _ => None,
            })
            .collect()
        });
        assert_eq!(ids, vec![(true, a), (false, a)]);
    }

    #[test]
    fn histogram_percentiles_estimate_from_buckets() {
        let c = Collector::enabled();
        for v in 1..=100u64 {
            c.record("lat", v);
        }
        let h = c.snapshot().histogram("lat");
        // Rank 50 lands in the 32..=63 bucket; its upper bound is exact
        // enough (within one power of two of the true 50).
        assert_eq!(h.percentile(0.50), 63);
        // High quantiles clamp into [min, max].
        assert_eq!(h.percentile(0.95), 100);
        assert_eq!(h.percentile(0.99), 100);
        assert_eq!(h.percentiles(), (63, 100, 100));
        // Degenerate distributions are exact.
        let d = Collector::enabled();
        for _ in 0..10 {
            d.record("k", 7);
        }
        let h = d.snapshot().histogram("k");
        assert_eq!(h.percentiles(), (7, 7, 7));
        assert_eq!(Histogram::default().percentile(0.5), 0);
    }

    #[test]
    fn histogram_percentile_edge_cases() {
        // Empty histogram: every quantile (and the mean) is 0.
        let h = Histogram::default();
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.percentile(1.0), 0);
        assert_eq!(h.percentiles(), (0, 0, 0));
        assert_eq!(h.mean(), 0);
        // Single sample: every quantile is exactly that sample.
        let c = Collector::enabled();
        c.record("one", 37);
        let h = c.snapshot().histogram("one");
        assert_eq!(h.percentile(0.0), 37);
        assert_eq!(h.percentiles(), (37, 37, 37));
        // All samples in one bucket (32..=63 share ⌊log₂⌋ = 5): the
        // estimate is the bucket's upper bound clamped into [min, max].
        let c = Collector::enabled();
        for v in [40u64, 44, 50, 63] {
            c.record("b", v);
        }
        let h = c.snapshot().histogram("b");
        assert_eq!(h.percentile(0.5), 63);
        assert_eq!(h.percentile(0.99), 63);
        // All-zero samples stay in bucket 0 and report 0 exactly.
        let c = Collector::enabled();
        c.record("z", 0);
        c.record("z", 0);
        let h = c.snapshot().histogram("z");
        assert_eq!(h.percentiles(), (0, 0, 0));
        assert_eq!((h.min, h.max, h.count), (0, 0, 2));
    }

    #[test]
    fn series_attaches_samples_and_drains() {
        let c = Collector::enabled();
        c.sample_series("round", &[]); // no-op without a series
        assert!(c.drain_series().is_empty());
        c.attach_series(4);
        c.count("facts", 3);
        c.sample_series("round", &[("delta", 1)]);
        c.count("facts", 4);
        c.sample_series("alarm", &[]);
        let pts = c.drain_series();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].counters["facts"], 3);
        assert_eq!(pts[1].counters["facts"], 4);
        assert_eq!(pts[1].label, "alarm");
        assert!(c.drain_series().is_empty());
        // Disabled collectors ignore the whole API.
        let d = Collector::disabled();
        d.attach_series(4);
        d.sample_series("round", &[]);
        assert!(d.drain_series().is_empty());
    }

    #[test]
    fn histogram_absorb_merges_buckets() {
        let a = Collector::enabled();
        a.record("h", 1);
        a.record("h", 1000);
        let b = Collector::enabled();
        b.record("h", 1000);
        b.record("h", 1000);
        let mut m = a.snapshot().histogram("h");
        m.absorb(&b.snapshot().histogram("h"));
        assert_eq!(m.count, 4);
        assert_eq!(m.percentile(0.99), 1000);
        assert_eq!(m.buckets.iter().sum::<u64>(), 4);
    }

    #[test]
    fn merged_histograms_equal_a_collector_recording_the_union() {
        // Two collectors recording disjoint halves, absorbed, must agree
        // with a single collector that recorded the union in the same
        // order — field for field, bucket for bucket, so every percentile
        // estimate is identical by construction.
        let samples_a: Vec<u64> = vec![1, 3, 7, 120, 4096, 0, 999_999];
        let samples_b: Vec<u64> = vec![2, 2, 63, 64, 65, 1_000_000, 5];
        let a = Collector::enabled();
        let b = Collector::enabled();
        let union = Collector::enabled();
        for &v in &samples_a {
            a.record("h", v);
            union.record("h", v);
        }
        for &v in &samples_b {
            b.record("h", v);
            union.record("h", v);
        }
        let mut merged = a.snapshot().histogram("h");
        merged.absorb(&b.snapshot().histogram("h"));
        let expect = union.snapshot().histogram("h");
        assert_eq!(merged, expect);
        for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(merged.percentile(q), expect.percentile(q), "q={q}");
        }
        assert_eq!(merged.percentiles(), expect.percentiles());
    }

    #[test]
    fn absorbing_an_empty_histogram_is_a_no_op_in_both_directions() {
        let c = Collector::enabled();
        for v in [10u64, 20, 30] {
            c.record("h", v);
        }
        let full = c.snapshot().histogram("h");

        // empty.absorb(full) copies; full.absorb(empty) changes nothing.
        let mut lhs = Histogram::default();
        lhs.absorb(&full);
        assert_eq!(lhs, full);
        let mut rhs = full;
        rhs.absorb(&Histogram::default());
        assert_eq!(rhs, full);
        // empty ⊕ empty stays empty, and its percentiles are all 0.
        let mut e = Histogram::default();
        e.absorb(&Histogram::default());
        assert_eq!(e, Histogram::default());
        assert_eq!(e.percentiles(), (0, 0, 0));
    }

    #[test]
    fn single_bucket_merges_keep_percentiles_exact() {
        // All samples share one log₂ bucket, so the estimator is exact:
        // merged percentiles must equal the union's for every quantile.
        let a = Collector::enabled();
        let b = Collector::enabled();
        let union = Collector::enabled();
        for &v in &[64u64, 100, 127] {
            a.record("h", v);
            union.record("h", v);
        }
        for &v in &[65u64, 90] {
            b.record("h", v);
            union.record("h", v);
        }
        let mut merged = a.snapshot().histogram("h");
        merged.absorb(&b.snapshot().histogram("h"));
        assert_eq!(merged, union.snapshot().histogram("h"));
        // Deciding bucket's upper bound (127) clamps into [min, max].
        assert_eq!(merged.percentile(0.5), 127);
        assert_eq!(merged.min, 64);
        assert_eq!(merged.max, 127);
        assert_eq!(merged.buckets.iter().filter(|&&n| n > 0).count(), 1);
    }

    #[test]
    fn lamport_clock_orders_cross_collector_messages() {
        let a = Collector::enabled();
        let b = Collector::enabled();
        let send1 = a.lamport_tick();
        let recv1 = b.lamport_observe(send1);
        assert!(recv1 > send1);
        let send2 = b.lamport_tick();
        assert!(send2 > recv1);
        let recv2 = a.lamport_observe(send2);
        assert!(recv2 > send2);
        assert_eq!(Collector::disabled().lamport_tick(), 0);
        assert_eq!(Collector::disabled().lamport_observe(9), 0);
    }

    #[test]
    fn namespaced_flow_ids_never_collide_across_collectors() {
        let a = Collector::with_namespace(16, 1);
        let b = Collector::with_namespace(16, 2);
        for _ in 0..4 {
            let ia = a.flow_id();
            let ib = b.flow_id();
            assert_ne!(ia, ib);
            assert_eq!(ia >> FLOW_NS_SHIFT, 1);
            assert_eq!(ib >> FLOW_NS_SHIFT, 2);
        }
    }

    #[test]
    fn snapshot_reports_ring_capacity() {
        let c = Collector::with_capacity(8);
        assert_eq!(c.event_capacity(), 8);
        assert_eq!(c.snapshot().ring_capacity, 8);
        assert_eq!(Collector::disabled().event_capacity(), 0);
    }

    #[test]
    fn absorb_merges_snapshots() {
        let a = Collector::enabled();
        a.count("x", 1);
        a.record("h", 5);
        let b = Collector::enabled();
        b.count("x", 2);
        b.count("y", 7);
        b.record("h", 3);
        let total: MetricsSnapshot = merged([a.snapshot(), b.snapshot()].iter());
        assert_eq!(total.counter("x"), 3);
        assert_eq!(total.counter("y"), 7);
        let h = total.histogram("h");
        assert_eq!((h.count, h.min, h.max), (2, 3, 5));
    }

    #[test]
    fn clones_share_one_recording() {
        let c = Collector::enabled();
        let c2 = c.clone();
        c.count("n", 1);
        c2.count("n", 2);
        assert_eq!(c.snapshot().counter("n"), 3);
    }
}
