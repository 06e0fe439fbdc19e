//! SLO thresholds, the health state machine, and the watchdog that
//! evaluates them once per tick.
//!
//! An operator declares objectives on the `rescue-server` command line
//! (`--slo push_p99_ms=250 --slo backpressure_max=0`); the serving loop
//! snapshots the collector once per tick, diffs the snapshot against the
//! previous tick's with [`series::delta`], and feeds the result as a
//! [`SeriesPoint`] — counter deltas plus windowed latency percentiles
//! since the previous tick — into a [`Watchdog`]. The watchdog is a
//! small hysteresis machine:
//!
//! * no breach → [`Health::Ok`], streak resets;
//! * any breach → [`Health::Degraded`] immediately;
//! * `FAIL_AFTER` consecutive breached ticks → [`Health::Failing`].
//!
//! Ticks with no traffic (no pushes in the window) cannot breach a
//! latency objective — an idle server is healthy, not degraded. Every
//! state *transition* is emitted as a structured instant event
//! (`slo.crossed` / `slo.recovered`, cat `slo`) carrying the breach
//! descriptions, so the trace timeline shows exactly when and why the
//! server left its objectives. `ping` and `metrics` replies report the
//! current state as `"health":"ok|degraded|failing"`.
//!
//! [`series::delta`]: rescue_telemetry::series::delta
//! [`SeriesPoint`]: rescue_telemetry::series::SeriesPoint

use rescue_telemetry::series::SeriesPoint;
use std::fmt;

/// Consecutive breached ticks before `degraded` escalates to `failing`.
pub const FAIL_AFTER: u32 = 3;

/// The health tristate served by `ping` and `metrics`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Health {
    #[default]
    Ok,
    Degraded,
    Failing,
}

impl Health {
    pub fn as_str(self) -> &'static str {
        match self {
            Health::Ok => "ok",
            Health::Degraded => "degraded",
            Health::Failing => "failing",
        }
    }

    /// Stable numeric code for atomics and gauges (0/1/2).
    pub fn as_u8(self) -> u8 {
        match self {
            Health::Ok => 0,
            Health::Degraded => 1,
            Health::Failing => 2,
        }
    }

    pub fn from_u8(v: u8) -> Health {
        match v {
            0 => Health::Ok,
            1 => Health::Degraded,
            _ => Health::Failing,
        }
    }
}

impl fmt::Display for Health {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Declared objectives. All optional; an empty spec means the watchdog
/// has nothing to evaluate and health stays `ok`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SloSpec {
    /// p50 of `server.push_latency_us` per watchdog tick must stay under
    /// this many milliseconds.
    pub push_p50_ms: Option<u64>,
    /// p99 of `server.push_latency_us` per watchdog tick must stay under
    /// this many milliseconds.
    pub push_p99_ms: Option<u64>,
    /// Backpressure replies per tick must not exceed this count.
    pub backpressure_max: Option<u64>,
    /// Protocol error replies per tick must not exceed this count.
    pub errors_max: Option<u64>,
}

impl SloSpec {
    pub fn is_empty(&self) -> bool {
        *self == SloSpec::default()
    }

    /// Parse one `--slo KEY=VALUE` flag into the spec. Unknown keys and
    /// non-numeric values are errors (listing the known keys).
    pub fn apply_flag(&mut self, flag: &str) -> Result<(), String> {
        let (key, value) = flag
            .split_once('=')
            .ok_or_else(|| format!("--slo {flag}: expected KEY=VALUE"))?;
        let v: u64 = value
            .parse()
            .map_err(|_| format!("--slo {flag}: value must be a non-negative integer"))?;
        match key {
            "push_p50_ms" => self.push_p50_ms = Some(v),
            "push_p99_ms" => self.push_p99_ms = Some(v),
            "backpressure_max" => self.backpressure_max = Some(v),
            "errors_max" => self.errors_max = Some(v),
            other => {
                return Err(format!(
                    "--slo {other}: unknown objective (known: push_p50_ms, push_p99_ms, \
                     backpressure_max, errors_max)"
                ))
            }
        }
        Ok(())
    }
}

/// One watchdog evaluation: the state after this tick, whether the tick
/// changed it, and what breached (empty when within objectives).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Observation {
    pub health: Health,
    pub changed: bool,
    pub breaches: Vec<String>,
}

/// The hysteresis machine. Feed it one [`SeriesPoint`] per tick.
#[derive(Debug)]
pub struct Watchdog {
    spec: SloSpec,
    streak: u32,
    health: Health,
}

impl Watchdog {
    pub fn new(spec: SloSpec) -> Self {
        Watchdog {
            spec,
            streak: 0,
            health: Health::Ok,
        }
    }

    pub fn health(&self) -> Health {
        self.health
    }

    /// Evaluate one tick's deltas against the objectives.
    pub fn observe(&mut self, point: &SeriesPoint) -> Observation {
        let mut breaches = Vec::new();
        if let Some(lat) = point.hists.get("server.push_latency_us") {
            if let Some(cap_ms) = self.spec.push_p50_ms {
                if lat.p50 > cap_ms * 1000 {
                    breaches.push(format!(
                        "push_p50_ms: {}ms > {cap_ms}ms over {} push(es)",
                        lat.p50 / 1000,
                        lat.count
                    ));
                }
            }
            if let Some(cap_ms) = self.spec.push_p99_ms {
                if lat.p99 > cap_ms * 1000 {
                    breaches.push(format!(
                        "push_p99_ms: {}ms > {cap_ms}ms over {} push(es)",
                        lat.p99 / 1000,
                        lat.count
                    ));
                }
            }
        }
        if let Some(cap) = self.spec.backpressure_max {
            let n = point
                .counters
                .get("manager.backpressure_replies")
                .copied()
                .unwrap_or(0);
            if n > cap {
                breaches.push(format!("backpressure_max: {n} repl(ies) > {cap}"));
            }
        }
        if let Some(cap) = self.spec.errors_max {
            let n = point.counters.get("server.errors").copied().unwrap_or(0);
            if n > cap {
                breaches.push(format!("errors_max: {n} error repl(ies) > {cap}"));
            }
        }
        if breaches.is_empty() {
            self.streak = 0;
        } else {
            self.streak = self.streak.saturating_add(1);
        }
        let next = if self.streak == 0 {
            Health::Ok
        } else if self.streak < FAIL_AFTER {
            Health::Degraded
        } else {
            Health::Failing
        };
        let changed = next != self.health;
        self.health = next;
        Observation {
            health: next,
            changed,
            breaches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescue_telemetry::series::HistWindow;
    use std::collections::BTreeMap;

    fn point(p50: u64, p99: u64, count: u64, counters: &[(&str, u64)]) -> SeriesPoint {
        let mut hists = BTreeMap::new();
        if count > 0 {
            hists.insert(
                "server.push_latency_us".to_owned(),
                HistWindow {
                    count,
                    sum: p50 * count,
                    last: p99,
                    p50,
                    p95: p99,
                    p99,
                },
            );
        }
        SeriesPoint {
            counters: counters
                .iter()
                .map(|(k, v)| ((*k).to_owned(), *v))
                .collect(),
            hists,
            ..SeriesPoint::default()
        }
    }

    #[test]
    fn flag_parsing_accepts_known_keys_and_rejects_the_rest() {
        let mut spec = SloSpec::default();
        assert!(spec.is_empty());
        spec.apply_flag("push_p99_ms=250").unwrap();
        spec.apply_flag("push_p50_ms=50").unwrap();
        spec.apply_flag("backpressure_max=0").unwrap();
        spec.apply_flag("errors_max=10").unwrap();
        assert_eq!(spec.push_p99_ms, Some(250));
        assert_eq!(spec.backpressure_max, Some(0));
        assert!(!spec.is_empty());
        assert!(SloSpec::default().apply_flag("nope=1").is_err());
        assert!(SloSpec::default().apply_flag("push_p99_ms").is_err());
        assert!(SloSpec::default().apply_flag("push_p99_ms=fast").is_err());
    }

    #[test]
    fn breaches_escalate_ok_degraded_failing_and_recover() {
        let mut spec = SloSpec::default();
        spec.apply_flag("push_p99_ms=10").unwrap();
        let mut w = Watchdog::new(spec);

        let good = point(1_000, 5_000, 10, &[]);
        let bad = point(1_000, 50_000, 10, &[]);

        assert_eq!(w.observe(&good).health, Health::Ok);
        let first = w.observe(&bad);
        assert_eq!(first.health, Health::Degraded);
        assert!(first.changed);
        assert_eq!(first.breaches.len(), 1);
        assert!(first.breaches[0].contains("push_p99_ms"), "{first:?}");
        assert!(!w.observe(&bad).changed, "still degraded");
        // Third consecutive breach crosses into failing ...
        let third = w.observe(&bad);
        assert_eq!(third.health, Health::Failing);
        assert!(third.changed);
        // ... and one clean tick recovers all the way to ok.
        let rec = w.observe(&good);
        assert_eq!(rec.health, Health::Ok);
        assert!(rec.changed);
        assert!(rec.breaches.is_empty());
    }

    #[test]
    fn idle_ticks_cannot_breach_latency_objectives() {
        let mut spec = SloSpec::default();
        spec.apply_flag("push_p50_ms=1").unwrap();
        let mut w = Watchdog::new(spec);
        // No pushes in the window: no latency histogram, no breach.
        let idle = point(0, 0, 0, &[]);
        assert_eq!(w.observe(&idle).health, Health::Ok);
    }

    #[test]
    fn counter_objectives_fire_on_deltas() {
        let mut spec = SloSpec::default();
        spec.apply_flag("backpressure_max=0").unwrap();
        spec.apply_flag("errors_max=2").unwrap();
        let mut w = Watchdog::new(spec);
        let o = w.observe(&point(
            0,
            0,
            0,
            &[("manager.backpressure_replies", 1), ("server.errors", 3)],
        ));
        assert_eq!(o.health, Health::Degraded);
        assert_eq!(o.breaches.len(), 2);
        // Exactly at the cap is within the objective.
        let ok = w.observe(&point(0, 0, 0, &[("server.errors", 2)]));
        assert_eq!(ok.health, Health::Ok);
    }

    #[test]
    fn health_codes_round_trip() {
        for h in [Health::Ok, Health::Degraded, Health::Failing] {
            assert_eq!(Health::from_u8(h.as_u8()), h);
        }
        assert_eq!(Health::Ok.to_string(), "ok");
    }
}
