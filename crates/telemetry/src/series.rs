//! Time-series sampler: periodic [`MetricsSnapshot`] deltas in a bounded
//! ring, streamed as JSONL.
//!
//! One end-of-run metrics dump answers *how much*; it cannot answer
//! *when*. A [`Series`] attached to a collector
//! ([`Collector::attach_series`]) turns the cumulative counter registry
//! into a sequence of [`SeriesPoint`]s — each the **delta** since the
//! previous sample, taken at round boundaries and per `push_alarm` — so a
//! long session exposes p50/p99-over-time instead of one terminal number.
//! Each point is the one snapshot diff, [`delta`], written as a JSONL
//! line by the crate's JSON writer.
//!
//! Unlike the event ring (which keeps the *earliest* prefix, because a
//! trace must start at t=0 to be readable), the series ring keeps the
//! *latest* window: when full it evicts the **oldest** point, folding the
//! evicted deltas into a retirement accumulator so sums stay exact —
//! `retired + Σ(points in ring) == cumulative counters`, always, no matter
//! how many points rolled off or were drained by a streaming consumer
//! ([`Collector::drain_series`]).
//!
//! [`Collector::attach_series`]: crate::Collector::attach_series
//! [`Collector::drain_series`]: crate::Collector::drain_series

use crate::json::Obj;
use crate::{Histogram, MetricsSnapshot};
use std::collections::{BTreeMap, VecDeque};

/// Schema tag on every JSONL line a series emits.
pub const SERIES_SCHEMA: &str = "rescue-series-v1";

/// Default series-ring capacity (points, not bytes).
pub const DEFAULT_SERIES_CAPACITY: usize = 1 << 10;

/// Windowed view of one histogram between two samples: the delta counts
/// plus percentile estimates computed from the **bucket deltas** (i.e.
/// percentiles of the samples recorded inside this window only).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistWindow {
    /// Samples recorded inside the window.
    pub count: u64,
    /// Sum of those samples.
    pub sum: u64,
    /// Most recent sample at window end.
    pub last: u64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
}

/// One sample: the delta of every counter/histogram since the previous
/// sample, plus caller-supplied gauges (point-in-time values that are not
/// cumulative, e.g. the current delta-relation size).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SeriesPoint {
    /// Monotone sample index (survives eviction — the first point in a
    /// wrapped ring has `seq > 0`).
    pub seq: u64,
    /// Collector-relative timestamp of the sample, microseconds.
    pub t_us: u64,
    /// Why the sample was taken (`"round"`, `"alarm"`, ...).
    pub label: String,
    /// Counter deltas since the previous sample; zero deltas are omitted.
    pub counters: BTreeMap<String, u64>,
    /// Histogram windows since the previous sample; empty windows omitted.
    pub hists: BTreeMap<String, HistWindow>,
    /// Caller-supplied point-in-time values.
    pub gauges: Vec<(String, u64)>,
}

impl HistWindow {
    /// Windowed view between two cumulative histograms (`cur` minus
    /// `prev`): delta counts plus percentile estimates from the bucket
    /// deltas. The window's min/max are unknown (only cumulative extremes
    /// are kept), so percentiles clamp against the cumulative range — at
    /// worst one bucket-width of slack, same as the base estimator.
    /// `None` when the window saw no samples.
    pub fn between(cur: &Histogram, prev: &Histogram) -> Option<HistWindow> {
        let dcount = cur.count.saturating_sub(prev.count);
        if dcount == 0 {
            return None;
        }
        let mut w = Histogram {
            count: dcount,
            sum: cur.sum.saturating_sub(prev.sum),
            min: cur.min,
            max: cur.max,
            last: cur.last,
            buckets: [0; crate::HISTOGRAM_BUCKETS],
        };
        for (i, b) in w.buckets.iter_mut().enumerate() {
            *b = cur.buckets[i].saturating_sub(prev.buckets[i]);
        }
        let (p50, p95, p99) = w.percentiles();
        Some(HistWindow {
            count: w.count,
            sum: w.sum,
            last: w.last,
            p50,
            p95,
            p99,
        })
    }
}

/// What moved between two cumulative snapshots: the delta of every
/// counter (zero deltas omitted) and the window of every histogram (empty
/// windows omitted). The crate's one snapshot diff: series points,
/// rolling windows and the server's watchdog ticks all take it.
pub fn delta(
    cur: &MetricsSnapshot,
    prev: &MetricsSnapshot,
) -> (BTreeMap<String, u64>, BTreeMap<String, HistWindow>) {
    let counters = cur
        .counters
        .iter()
        .filter_map(|(k, &v)| {
            let d = v.saturating_sub(prev.counter(k));
            (d > 0).then(|| (k.clone(), d))
        })
        .collect();
    let hists = cur
        .histograms
        .iter()
        .filter_map(|(k, h)| Some((k.clone(), HistWindow::between(h, &prev.histogram(k))?)))
        .collect();
    (counters, hists)
}

impl SeriesPoint {
    /// Render the point as one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let counters = self
            .counters
            .iter()
            .fold(Obj::new(), |o, (k, v)| o.num(k, *v));
        let hists = self.hists.iter().fold(Obj::new(), |o, (k, h)| {
            let h = Obj::new()
                .num("count", h.count)
                .num("sum", h.sum)
                .num("last", h.last)
                .num("p50", h.p50)
                .num("p95", h.p95)
                .num("p99", h.p99);
            o.raw(k, &h.finish())
        });
        let gauges = self
            .gauges
            .iter()
            .fold(Obj::new(), |o, (k, v)| o.num(k, *v));
        Obj::new()
            .str("schema", SERIES_SCHEMA)
            .num("seq", self.seq)
            .num("t_us", self.t_us)
            .str("label", &self.label)
            .raw("counters", &counters.finish())
            .raw("hists", &hists.finish())
            .raw("gauges", &gauges.finish())
            .finish()
    }
}

/// The bounded delta ring. Owned by a collector's state once attached;
/// also usable standalone (the tests do).
#[derive(Debug)]
pub struct Series {
    capacity: usize,
    points: VecDeque<SeriesPoint>,
    /// Cumulative snapshot at the last sample — next sample diffs against
    /// this.
    last: MetricsSnapshot,
    next_seq: u64,
    /// Points that left the ring (evicted on overflow or drained by a
    /// streaming consumer).
    retired: u64,
    /// Counter-delta sums of every retired point, so
    /// `retired_counters + Σ ring == cumulative` stays exact.
    retired_counters: BTreeMap<String, u64>,
}

impl Series {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "series capacity must be positive");
        Series {
            capacity,
            points: VecDeque::new(),
            last: MetricsSnapshot::default(),
            next_seq: 0,
            retired: 0,
            retired_counters: BTreeMap::new(),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Points that left the ring so far (evicted + drained).
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Points currently held, oldest first.
    pub fn points(&self) -> impl Iterator<Item = &SeriesPoint> {
        self.points.iter()
    }

    /// Take one sample: diff `snap` against the previous sample, push the
    /// delta point, evict the oldest point if the ring is over capacity.
    pub fn sample(
        &mut self,
        snap: &MetricsSnapshot,
        t_us: u64,
        label: &str,
        gauges: &[(&str, u64)],
    ) {
        let (counters, hists) = delta(snap, &self.last);
        let point = SeriesPoint {
            seq: self.next_seq,
            t_us,
            label: label.to_owned(),
            counters,
            hists,
            gauges: gauges.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect(),
        };
        self.next_seq += 1;
        self.last = snap.clone();
        self.points.push_back(point);
        while self.points.len() > self.capacity {
            let old = self.points.pop_front().expect("nonempty");
            self.retire(&old);
        }
    }

    /// Remove and return every held point, oldest first (the streaming
    /// consumer's read). Retired sums still account for them.
    pub fn drain(&mut self) -> Vec<SeriesPoint> {
        let out: Vec<SeriesPoint> = self.points.drain(..).collect();
        for p in &out {
            self.retire(p);
        }
        out
    }

    fn retire(&mut self, p: &SeriesPoint) {
        self.retired += 1;
        for (k, v) in &p.counters {
            *self.retired_counters.entry(k.clone()).or_insert(0) += v;
        }
    }

    /// `retired_counters + Σ(points in ring)` — by construction equal to
    /// the counters of the last sampled snapshot. The wraparound tests
    /// pin this invariant.
    pub fn accounted_counters(&self) -> BTreeMap<String, u64> {
        let mut acc = self.retired_counters.clone();
        for p in &self.points {
            for (k, v) in &p.counters {
                *acc.entry(k.clone()).or_insert(0) += v;
            }
        }
        acc
    }

    /// Counters of the last sampled snapshot (what
    /// [`accounted_counters`](Self::accounted_counters) must equal).
    pub fn cumulative_counters(&self) -> &BTreeMap<String, u64> {
        &self.last.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Collector;

    fn snap_with(counters: &[(&str, u64)]) -> MetricsSnapshot {
        let mut s = MetricsSnapshot::default();
        for (k, v) in counters {
            s.counters.insert((*k).to_owned(), *v);
        }
        s
    }

    #[test]
    fn points_hold_deltas_not_cumulatives() {
        let mut s = Series::new(8);
        s.sample(&snap_with(&[("a", 5)]), 10, "round", &[]);
        s.sample(&snap_with(&[("a", 12), ("b", 3)]), 20, "round", &[]);
        let pts: Vec<&SeriesPoint> = s.points().collect();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].counters["a"], 5);
        assert_eq!(pts[1].counters["a"], 7);
        assert_eq!(pts[1].counters["b"], 3);
        assert_eq!(pts[1].seq, 1);
    }

    #[test]
    fn wraparound_evicts_oldest_and_keeps_sums_consistent() {
        let mut s = Series::new(3);
        for i in 1..=10u64 {
            s.sample(&snap_with(&[("a", i * 2)]), i, "round", &[]);
        }
        // Ring holds the latest window ...
        assert_eq!(s.len(), 3);
        let seqs: Vec<u64> = s.points().map(|p| p.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9]);
        assert_eq!(s.retired(), 7);
        // ... and retired + held deltas still sum to the cumulative value.
        assert_eq!(s.accounted_counters(), s.cumulative_counters().clone());
        assert_eq!(s.accounted_counters()["a"], 20);
    }

    #[test]
    fn drain_returns_everything_and_accounts_for_it() {
        let mut s = Series::new(4);
        s.sample(&snap_with(&[("a", 1)]), 1, "alarm", &[]);
        s.sample(&snap_with(&[("a", 4)]), 2, "alarm", &[]);
        let drained = s.drain();
        assert_eq!(drained.len(), 2);
        assert!(s.is_empty());
        assert_eq!(s.accounted_counters()["a"], 4);
        // New samples keep diffing against the cumulative snapshot.
        s.sample(&snap_with(&[("a", 9)]), 3, "alarm", &[]);
        assert_eq!(s.points().next().unwrap().counters["a"], 5);
        assert_eq!(s.accounted_counters()["a"], 9);
    }

    #[test]
    fn histogram_windows_are_per_interval() {
        let c = Collector::enabled();
        let mut s = Series::new(8);
        for _ in 0..10 {
            c.record("lat", 4);
        }
        s.sample(&c.snapshot(), 1, "round", &[]);
        for _ in 0..5 {
            c.record("lat", 1024);
        }
        s.sample(&c.snapshot(), 2, "round", &[]);
        let pts: Vec<&SeriesPoint> = s.points().collect();
        assert_eq!(pts[0].hists["lat"].count, 10);
        assert_eq!(pts[0].hists["lat"].p99, 4);
        // The second window sees only the slow samples, unlike the
        // cumulative histogram whose p50 would still sit in the fast bucket.
        assert_eq!(pts[1].hists["lat"].count, 5);
        assert_eq!(pts[1].hists["lat"].sum, 5 * 1024);
        assert!(pts[1].hists["lat"].p50 >= 1024);
    }

    #[test]
    fn json_line_is_parseable_and_tagged() {
        let mut s = Series::new(2);
        s.sample(&snap_with(&[("a.b", 2)]), 7, "round", &[("delta_facts", 3)]);
        let line = s.points().next().unwrap().to_json_line();
        assert!(!line.contains('\n'));
        let v = crate::json::parse(&line).expect("valid JSON");
        let crate::json::Value::Object(o) = v else {
            panic!("object")
        };
        assert_eq!(
            o["schema"],
            crate::json::Value::String(SERIES_SCHEMA.into())
        );
        let crate::json::Value::Object(g) = &o["gauges"] else {
            panic!("gauges")
        };
        assert_eq!(g["delta_facts"], crate::json::Value::Number(3.0));
    }

    #[test]
    fn empty_deltas_are_omitted() {
        let mut s = Series::new(4);
        s.sample(&snap_with(&[("a", 5)]), 1, "round", &[]);
        s.sample(&snap_with(&[("a", 5)]), 2, "round", &[]);
        let pts: Vec<&SeriesPoint> = s.points().collect();
        assert!(pts[1].counters.is_empty());
        assert!(pts[1].hists.is_empty());
    }
}
