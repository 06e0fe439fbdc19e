//! Rolling-window aggregation over cumulative metrics snapshots.
//!
//! The collector's counters and histograms are *cumulative*: they answer
//! "how much since the process started", which is the wrong shape for a
//! live dashboard — an operator scraping a server that has been up for an
//! hour wants rates and percentiles over the last few seconds, not the
//! lifetime average. A [`RollingWindow`] keeps a short ring of timestamped
//! [`MetricsSnapshot`]s and derives the **delta over the window**
//! ([`RollingWindow::delta`]): counter deltas (and per-second rates), and
//! histogram percentiles computed from the bucket deltas. It is the one
//! snapshot diff, [`series::delta`], that every series point takes,
//! applied across a sliding span instead of between consecutive points.
//!
//! Unlike [`crate::series::Series`] (a bounded log of every sample, built
//! for streaming and retirement accounting), the window keeps only what
//! the sliding span needs: the newest snapshot plus one *baseline* at or
//! before `newest - window` (so a freshly scraped delta always spans the
//! whole window, not just the distance to the next retained sample).

use crate::series::{self, HistWindow};
use crate::MetricsSnapshot;
use std::collections::{BTreeMap, VecDeque};

/// Default window span: rates/percentiles reflect the last 10 seconds.
pub const DEFAULT_WINDOW_US: u64 = 10_000_000;

/// Default bound on retained snapshots (protects against a caller
/// observing far more often than the span needs).
pub const DEFAULT_WINDOW_SLOTS: usize = 256;

/// The delta of every counter and histogram across the window, plus the
/// span it was computed over.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WindowDelta {
    /// Microseconds between the baseline and the newest snapshot (0 when
    /// fewer than two snapshots have been observed).
    pub span_us: u64,
    /// Counter deltas across the window; zero deltas are omitted.
    pub counters: BTreeMap<String, u64>,
    /// Histogram windows across the span; empty windows are omitted.
    pub hists: BTreeMap<String, HistWindow>,
}

impl WindowDelta {
    /// The counter's delta across the window, zero when it never moved.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The counter's per-second rate over the window (0 when the window
    /// is empty or spans no time).
    pub fn rate_per_sec(&self, name: &str) -> f64 {
        if self.span_us == 0 {
            return 0.0;
        }
        self.counter(name) as f64 * 1_000_000.0 / self.span_us as f64
    }
}

/// The ring of timestamped cumulative snapshots a window derives from.
#[derive(Debug)]
pub struct RollingWindow {
    window_us: u64,
    max_slots: usize,
    /// `(t_us, cumulative snapshot)`, oldest first. The front slot is the
    /// baseline: the newest snapshot at or before `back.t - window_us`
    /// (or simply the oldest seen, early in a run).
    slots: VecDeque<(u64, MetricsSnapshot)>,
}

impl RollingWindow {
    pub fn new(window_us: u64, max_slots: usize) -> Self {
        assert!(window_us > 0, "window span must be positive");
        assert!(max_slots >= 2, "a window needs at least two slots");
        RollingWindow {
            window_us,
            max_slots,
            slots: VecDeque::new(),
        }
    }

    /// Snapshots currently retained.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Record one cumulative snapshot taken at `t_us` (collector-relative
    /// microseconds, monotone across calls). Snapshots older than the
    /// span are pruned, always keeping one baseline at or before the
    /// window start.
    pub fn observe(&mut self, t_us: u64, snap: MetricsSnapshot) {
        // Ignore out-of-order observations rather than corrupting deltas.
        if self.slots.back().is_some_and(|&(t, _)| t_us < t) {
            return;
        }
        self.slots.push_back((t_us, snap));
        let cutoff = t_us.saturating_sub(self.window_us);
        // Drop a front slot only while the *next* one is still at or
        // before the cutoff — the front must stay a valid baseline.
        while self.slots.len() > 1 && self.slots[1].0 <= cutoff {
            self.slots.pop_front();
        }
        while self.slots.len() > self.max_slots {
            self.slots.pop_front();
        }
    }

    /// Delta between the newest snapshot and the window baseline. Empty
    /// (span 0) until two snapshots have been observed.
    pub fn delta(&self) -> WindowDelta {
        let (Some((t0, base)), Some((t1, cur))) = (self.slots.front(), self.slots.back()) else {
            return WindowDelta::default();
        };
        if t1 == t0 && self.slots.len() < 2 {
            return WindowDelta::default();
        }
        let (counters, hists) = series::delta(cur, base);
        WindowDelta {
            span_us: t1 - t0,
            counters,
            hists,
        }
    }
}

impl Default for RollingWindow {
    fn default() -> Self {
        RollingWindow::new(DEFAULT_WINDOW_US, DEFAULT_WINDOW_SLOTS)
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
    fn empty_and_single_snapshot_windows_are_zero() {
        let mut w = RollingWindow::new(1_000_000, 8);
        assert_eq!(w.delta(), WindowDelta::default());
        w.observe(10, snap_with(&[("a", 5)]));
        let d = w.delta();
        assert_eq!(d.span_us, 0);
        assert_eq!(d.rate_per_sec("a"), 0.0);
    }

    #[test]
    fn delta_spans_the_window_not_the_lifetime() {
        let mut w = RollingWindow::new(1_000_000, 64);
        // At t=3s the 1s window starts at t=2s: the t=2s snapshot is the
        // baseline and the t=0 one must have been pruned, so the delta
        // only sees the last jump (20), not the lifetime total (130).
        w.observe(0, snap_with(&[("a", 100)]));
        w.observe(2_000_000, snap_with(&[("a", 110)]));
        w.observe(3_000_000, snap_with(&[("a", 130)]));
        let d = w.delta();
        assert_eq!(d.counter("a"), 20);
        assert_eq!(d.span_us, 1_000_000);
        assert!((d.rate_per_sec("a") - 20.0).abs() < 1e-9);
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn a_baseline_at_or_before_the_window_start_is_retained() {
        let mut w = RollingWindow::new(1_000_000, 64);
        w.observe(0, snap_with(&[("a", 1)]));
        // Nothing else for 5 windows: the t=0 snapshot must survive as
        // the baseline so the delta still spans back to it.
        w.observe(5_000_000, snap_with(&[("a", 9)]));
        let d = w.delta();
        assert_eq!(d.counter("a"), 8);
        assert_eq!(d.span_us, 5_000_000);
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn slot_cap_bounds_memory() {
        let mut w = RollingWindow::new(u64::MAX / 2, 4);
        for i in 0..100u64 {
            w.observe(i, snap_with(&[("a", i)]));
        }
        assert_eq!(w.len(), 4);
        // The delta still works over whatever baseline survived.
        assert_eq!(w.delta().counter("a"), 3);
    }

    #[test]
    fn out_of_order_observations_are_ignored() {
        let mut w = RollingWindow::new(1_000_000, 8);
        w.observe(100, snap_with(&[("a", 5)]));
        w.observe(50, snap_with(&[("a", 99)]));
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn histogram_windows_reflect_only_the_window() {
        let c = Collector::enabled();
        let mut w = RollingWindow::new(1_000_000, 8);
        for _ in 0..10 {
            c.record("lat", 4);
        }
        w.observe(0, c.snapshot());
        for _ in 0..5 {
            c.record("lat", 1024);
        }
        w.observe(500_000, c.snapshot());
        let d = w.delta();
        let h = &d.hists["lat"];
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 5 * 1024);
        assert!(h.p50 >= 1024, "window p50 must ignore pre-window samples");
        // Counters that never moved are omitted.
        assert!(d.counters.is_empty());
    }
}
