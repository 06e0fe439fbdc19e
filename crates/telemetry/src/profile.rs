//! Per-rule hot-spot attribution: the continuous-profiling report.
//!
//! The datalog fixpoint accumulates one [`RuleStat`] per
//! `(stratum, rule, plan variant)` it executed — wall microseconds, rounds
//! fired, candidate rows scanned, facts derived, SIP-filtered bindings —
//! **exactly**, from the same per-job counters that feed `EvalStats`, so
//! the attribution still adds up when the event ring has long overflowed.
//! A [`ProfileReport`] aggregates those entries (keyed merge, same
//! [`Absorb`] idiom as every other stat struct), renders a top-k table for
//! terminals, and exports folded stacks (`stratum;rule;variant wall_us`)
//! that flamegraph tooling loads directly.
//!
//! The report also round-trips through a [`Collector`]: [`record_into`]
//! folds every entry into `profile.*` counters and [`from_snapshot`]
//! parses them back, which is how the flight recorder captures a partial
//! profile of a dying run and how per-peer profiles merge (counters
//! absorb; so do profiles).
//!
//! [`record_into`]: ProfileReport::record_into
//! [`from_snapshot`]: ProfileReport::from_snapshot

use crate::{Absorb, Collector, MetricsSnapshot};
use std::fmt::Write as _;

/// Prefix of the collector counters a profile folds into.
pub const COUNTER_PREFIX: &str = "profile.";

/// The metric suffixes of one entry's counters, in export order.
const METRICS: [&str; 6] = ["wall_us", "rounds", "firings", "cands", "facts", "sip"];

/// Exact accumulated work of one `(stratum, rule, plan variant)`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RuleStat {
    /// Stratum index of the fixpoint that ran the rule (0 outside
    /// stratified evaluation).
    pub stratum: u32,
    /// Rule label, `Head@peer#idx` (`idx` disambiguates rules sharing a
    /// head predicate).
    pub rule: String,
    /// Plan-variant label: `full`, `delta#j`, optionally suffixed
    /// ` reordered` and/or ` shared` (shared-prefix group execution).
    pub variant: String,
    /// Wall microseconds spent enumerating this entry's jobs (the merge
    /// phase is not included) — attribution, not elapsed time.
    pub wall_us: u64,
    /// Rounds in which this pass actually ran (nonempty delta).
    pub rounds: u64,
    /// Complete body matches (rule firings, incl. duplicates).
    pub firings: u64,
    /// Candidate rows enumerated by this entry's jobs.
    pub candidates: u64,
    /// New facts this pass inserted.
    pub facts: u64,
    /// Bindings pruned by SIP existence probes in this entry's jobs.
    pub sip_filtered: u64,
}

impl RuleStat {
    /// The folded-stack frame of this entry: `stratum<N>;<rule>;<variant>`.
    pub fn frame(&self) -> String {
        format!("stratum{};{};{}", self.stratum, self.rule, self.variant)
    }

    fn add(&mut self, other: &RuleStat) {
        self.wall_us += other.wall_us;
        self.rounds += other.rounds;
        self.firings += other.firings;
        self.candidates += other.candidates;
        self.facts += other.facts;
        self.sip_filtered += other.sip_filtered;
    }
}

/// An aggregated per-rule profile: entries keyed by
/// `(stratum, rule, variant)`, in first-insertion order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfileReport {
    pub entries: Vec<RuleStat>,
}

impl ProfileReport {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Merge one entry in (summing into an existing entry with the same
    /// key, appending otherwise).
    pub fn push(&mut self, stat: RuleStat) {
        match self
            .entries
            .iter_mut()
            .find(|e| e.stratum == stat.stratum && e.rule == stat.rule && e.variant == stat.variant)
        {
            Some(e) => e.add(&stat),
            None => self.entries.push(stat),
        }
    }

    /// Column sums over every entry (`stratum`/`rule`/`variant` left
    /// empty) — what the exactness invariant compares against `EvalStats`.
    pub fn totals(&self) -> RuleStat {
        let mut t = RuleStat::default();
        for e in &self.entries {
            t.add(e);
        }
        t
    }

    /// Entries sorted by wall time, heaviest first (ties broken by frame
    /// so the order is deterministic).
    pub fn sorted_by_wall(&self) -> Vec<&RuleStat> {
        let mut v: Vec<&RuleStat> = self.entries.iter().collect();
        v.sort_by(|a, b| {
            b.wall_us
                .cmp(&a.wall_us)
                .then_with(|| a.frame().cmp(&b.frame()))
        });
        v
    }

    /// The `k` heaviest entries by wall time.
    pub fn top_k(&self, k: usize) -> Vec<&RuleStat> {
        let mut v = self.sorted_by_wall();
        v.truncate(k);
        v
    }

    /// Folded-stack export, one line per entry:
    /// `stratum<N>;<rule>;<variant> <wall_us>` — the format
    /// `inferno`/`flamegraph.pl` consume directly. Lines are sorted by
    /// frame so the output is byte-stable for identical profiles.
    pub fn folded(&self) -> String {
        let mut lines: Vec<String> = self
            .entries
            .iter()
            .map(|e| format!("{} {}", e.frame(), e.wall_us))
            .collect();
        lines.sort();
        let mut s = lines.join("\n");
        if !s.is_empty() {
            s.push('\n');
        }
        s
    }

    /// Top-k text table for terminals: wall share, counters, one entry per
    /// line, heaviest first.
    pub fn table(&self, k: usize) -> String {
        let total_wall = self.totals().wall_us.max(1);
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:>7}  {:>5}  {:>10}  {:>10}  {:>10}  {:>8}  rule",
            "wall_us", "share", "candidates", "firings", "facts", "rounds"
        );
        for e in self.top_k(k) {
            let _ = writeln!(
                s,
                "{:>7}  {:>4.0}%  {:>10}  {:>10}  {:>10}  {:>8}  {}",
                e.wall_us,
                e.wall_us as f64 * 100.0 / total_wall as f64,
                e.candidates,
                e.firings,
                e.facts,
                e.rounds,
                e.frame(),
            );
        }
        s
    }

    /// JSON array of entries (hand-rolled like every exporter here).
    pub fn to_json(&self) -> String {
        let inner: Vec<String> = self
            .sorted_by_wall()
            .iter()
            .map(|e| {
                format!(
                    "{{\"frame\": {}, \"wall_us\": {}, \"rounds\": {}, \"firings\": {}, \
                     \"candidates\": {}, \"facts\": {}, \"sip_filtered\": {}}}",
                    crate::export::json_escape(&e.frame()),
                    e.wall_us,
                    e.rounds,
                    e.firings,
                    e.candidates,
                    e.facts,
                    e.sip_filtered,
                )
            })
            .collect();
        format!("[{}]", inner.join(", "))
    }

    /// Fold every entry into `collector`'s counter registry under
    /// `profile.<frame>.<metric>` — the durable form the flight recorder
    /// snapshots and [`from_snapshot`](Self::from_snapshot) parses back.
    pub fn record_into(&self, collector: &Collector) {
        if !collector.is_enabled() {
            return;
        }
        for e in &self.entries {
            let frame = e.frame();
            let vals = [
                e.wall_us,
                e.rounds,
                e.firings,
                e.candidates,
                e.facts,
                e.sip_filtered,
            ];
            for (metric, v) in METRICS.iter().zip(vals) {
                collector.count(&format!("{COUNTER_PREFIX}{frame}.{metric}"), v);
            }
        }
    }

    /// Reconstruct a profile from a snapshot's `profile.*` counters (the
    /// inverse of [`record_into`](Self::record_into)). Counters that don't
    /// parse as profile entries are ignored.
    pub fn from_snapshot(snap: &MetricsSnapshot) -> Self {
        let mut report = ProfileReport::new();
        for (name, &v) in &snap.counters {
            let Some(rest) = name.strip_prefix(COUNTER_PREFIX) else {
                continue;
            };
            // `<frame>.<metric>`: the metric is the last dot-component.
            let Some((frame, metric)) = rest.rsplit_once('.') else {
                continue;
            };
            let mut parts = frame.splitn(3, ';');
            let (Some(sp), Some(rule), Some(variant)) = (parts.next(), parts.next(), parts.next())
            else {
                continue;
            };
            let Some(stratum) = sp.strip_prefix("stratum").and_then(|s| s.parse().ok()) else {
                continue;
            };
            let mut stat = RuleStat {
                stratum,
                rule: rule.to_owned(),
                variant: variant.to_owned(),
                ..Default::default()
            };
            match metric {
                "wall_us" => stat.wall_us = v,
                "rounds" => stat.rounds = v,
                "firings" => stat.firings = v,
                "cands" => stat.candidates = v,
                "facts" => stat.facts = v,
                "sip" => stat.sip_filtered = v,
                _ => continue,
            }
            report.push(stat);
        }
        report
    }
}

impl Absorb for ProfileReport {
    fn absorb(&mut self, other: &Self) {
        for e in &other.entries {
            self.push(e.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(rule: &str, variant: &str, wall: u64, cands: u64) -> RuleStat {
        RuleStat {
            stratum: 0,
            rule: rule.into(),
            variant: variant.into(),
            wall_us: wall,
            rounds: 1,
            firings: 2,
            candidates: cands,
            facts: 1,
            sip_filtered: 0,
        }
    }

    #[test]
    fn push_merges_by_key_and_totals_sum() {
        let mut r = ProfileReport::new();
        r.push(stat("A@p#0", "full", 10, 100));
        r.push(stat("A@p#0", "full", 5, 50));
        r.push(stat("A@p#0", "delta#0", 1, 7));
        assert_eq!(r.entries.len(), 2);
        assert_eq!(r.entries[0].wall_us, 15);
        assert_eq!(r.entries[0].candidates, 150);
        let t = r.totals();
        assert_eq!((t.wall_us, t.candidates, t.firings), (16, 157, 6));
    }

    #[test]
    fn folded_lines_carry_frame_and_wall() {
        let mut r = ProfileReport::new();
        r.push(stat("B@q#1", "delta#2", 42, 0));
        r.push(stat("A@p#0", "full", 7, 0));
        assert_eq!(
            r.folded(),
            "stratum0;A@p#0;full 7\nstratum0;B@q#1;delta#2 42\n"
        );
    }

    #[test]
    fn top_k_orders_by_wall_descending() {
        let mut r = ProfileReport::new();
        r.push(stat("A@p#0", "full", 1, 0));
        r.push(stat("B@p#1", "full", 9, 0));
        r.push(stat("C@p#2", "full", 5, 0));
        let top: Vec<&str> = r.top_k(2).iter().map(|e| e.rule.as_str()).collect();
        assert_eq!(top, vec!["B@p#1", "C@p#2"]);
        assert!(r.table(2).contains("B@p#1"));
    }

    #[test]
    fn collector_round_trip_preserves_entries() {
        let mut r = ProfileReport::new();
        let mut a = stat("Trans2@supervisor#3", "delta#1 reordered shared", 123, 456);
        a.stratum = 2;
        a.sip_filtered = 9;
        r.push(a);
        r.push(stat("A@p#0", "full", 7, 11));
        let c = Collector::enabled();
        r.record_into(&c);
        let back = ProfileReport::from_snapshot(&c.snapshot());
        assert_eq!(back.totals(), r.totals());
        let mut want: Vec<String> = r.entries.iter().map(|e| e.frame()).collect();
        let mut got: Vec<String> = back.entries.iter().map(|e| e.frame()).collect();
        want.sort();
        got.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn disabled_collector_records_no_profile() {
        let c = Collector::disabled();
        let mut r = ProfileReport::new();
        r.push(stat("A@p#0", "full", 7, 11));
        r.record_into(&c);
        assert!(ProfileReport::from_snapshot(&c.snapshot()).is_empty());
    }

    #[test]
    fn absorb_merges_reports() {
        let mut a = ProfileReport::new();
        a.push(stat("A@p#0", "full", 10, 1));
        let mut b = ProfileReport::new();
        b.push(stat("A@p#0", "full", 10, 1));
        b.push(stat("B@p#1", "full", 3, 2));
        a.absorb(&b);
        assert_eq!(a.entries.len(), 2);
        assert_eq!(a.entries[0].wall_us, 20);
    }
}
