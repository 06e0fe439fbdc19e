//! Flight recorder: a postmortem dump for runs that die.
//!
//! A panic or a blown fact/step budget used to take the whole recording
//! with it — the trace was only written on the happy path. A flight dump
//! ([`Collector::flight_dump`]) renders, at the moment of failure, one
//! self-contained JSON document holding:
//!
//! - the **last N events** of the held trace window (the most recent
//!   context before death, bounded so the dump stays small),
//! - the full **metrics snapshot** (counters + histograms, the exact
//!   aggregates — these never truncate),
//! - the **partial profile** (per-rule attribution recovered from the
//!   `profile.*` counters, see [`crate::profile`]), covering every
//!   fixpoint that completed before the failure.
//!
//! The document carries [`FLIGHT_SCHEMA`] so tooling (and the
//! `validate_trace` binary, which auto-detects it) can tell a flight dump
//! from a Chrome trace, and [`validate_flight`] schema-checks it the same
//! way `validate_trace` checks traces.
//!
//! [`Collector::flight_dump`]: crate::Collector::flight_dump

use crate::export::{event_json_with, metrics_json, ts_of};
use crate::json::{check_event, parse, Arr, Obj, Value};
use crate::profile::ProfileReport;
use crate::Collector;

/// Schema tag of a flight-recorder dump.
pub const FLIGHT_SCHEMA: &str = "rescue-flight-v1";

/// How many trailing events a default dump keeps.
pub const DEFAULT_FLIGHT_EVENTS: usize = 256;

/// Render a flight dump: `reason` says why the run died (panic message,
/// budget kind), `last_n` bounds the event tail. Works on a disabled
/// collector too (empty events/metrics), so error paths need no gating.
/// The document is compact (one line), so a wire reply embeds it as is.
pub fn flight_json(collector: &Collector, reason: &str, last_n: usize) -> String {
    let snap = collector.snapshot();
    let profile = ProfileReport::from_snapshot(&snap);
    let total_events = collector.event_count();
    let skip = total_events.saturating_sub(last_n);
    let events = collector.with_events(|events| {
        events.skip(skip).fold(Arr::new(), |a, ev| {
            a.raw(&event_json_with(ev, 1, ts_of(ev)))
        })
    });
    Obj::new()
        .str("schema", FLIGHT_SCHEMA)
        .str("reason", reason)
        .num("elapsed_us", collector.elapsed_us())
        .num("events_recorded", total_events as u64)
        .num("events_kept", (total_events - skip) as u64)
        .num("dropped_events", snap.dropped_events)
        .num("ring_capacity", snap.ring_capacity)
        .raw("events", &events.finish())
        .raw("metrics", &metrics_json(collector))
        .raw("profile", &profile.to_json())
        .finish()
}

/// What a validated flight dump contained.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlightSummary {
    pub reason: String,
    /// Events present in the dump's tail window.
    pub events: usize,
    /// Events the live ring had refused before the dump.
    pub dropped_events: u64,
    /// Per-rule profile entries recovered.
    pub profile_entries: usize,
    /// Counters in the embedded metrics snapshot.
    pub counters: usize,
}

/// Whether a parsed JSON document is a flight dump (vs a Chrome trace).
pub fn is_flight_doc(doc: &Value) -> bool {
    doc.get("schema").and_then(Value::as_str) == Some(FLIGHT_SCHEMA)
}

/// Validate a flight-recorder dump against the schema [`flight_json`]
/// emits: the schema tag, a `reason`, an `events` array of well-formed
/// trace events, an embedded `metrics` object, and a `profile` array
/// whose entries carry a frame and numeric attribution fields.
pub fn validate_flight(src: &str) -> Result<FlightSummary, String> {
    let doc = parse(src).map_err(|e| e.to_string())?;
    if !is_flight_doc(&doc) {
        return Err(format!(
            "missing or wrong \"schema\" (expected {FLIGHT_SCHEMA:?})"
        ));
    }
    let reason = doc
        .get("reason")
        .and_then(Value::as_str)
        .ok_or("missing string field \"reason\"")?
        .to_owned();
    for key in ["elapsed_us", "events_recorded", "dropped_events"] {
        if doc.get(key).and_then(Value::as_number).is_none() {
            return Err(format!("missing numeric field \"{key}\""));
        }
    }
    let events = doc
        .get("events")
        .and_then(Value::as_array)
        .ok_or("missing \"events\" array")?;
    for (i, ev) in events.iter().enumerate() {
        check_event(i, ev)?;
    }
    let metrics = doc.get("metrics").ok_or("missing \"metrics\" object")?;
    let counters = metrics
        .get("counters")
        .and_then(Value::as_object)
        .ok_or("metrics: missing \"counters\" object")?;
    if metrics
        .get("histograms")
        .and_then(Value::as_object)
        .is_none()
    {
        return Err("metrics: missing \"histograms\" object".into());
    }
    let profile = doc
        .get("profile")
        .and_then(Value::as_array)
        .ok_or("missing \"profile\" array")?;
    for (i, entry) in profile.iter().enumerate() {
        if entry.get("frame").and_then(Value::as_str).is_none() {
            return Err(format!("profile entry {i}: missing string \"frame\""));
        }
        for key in ["wall_us", "rounds", "firings", "candidates", "facts"] {
            if entry.get(key).and_then(Value::as_number).is_none() {
                return Err(format!("profile entry {i}: missing numeric \"{key}\""));
            }
        }
    }
    Ok(FlightSummary {
        reason,
        events: events.len(),
        dropped_events: doc
            .get("dropped_events")
            .and_then(Value::as_number)
            .unwrap_or(0.0) as u64,
        profile_entries: profile.len(),
        counters: counters.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::RuleStat;

    fn recorded_collector() -> Collector {
        let c = Collector::enabled();
        {
            let mut sp = c.span("round", "eval");
            sp.arg("facts", 3u64);
        }
        c.count("eval.facts_derived", 3);
        c.record("alarm_latency_us", 120);
        let mut p = ProfileReport::new();
        p.push(RuleStat {
            stratum: 0,
            rule: "Path@server#0".into(),
            variant: "delta#0".into(),
            wall_us: 42,
            rounds: 2,
            firings: 5,
            candidates: 17,
            facts: 3,
            sip_filtered: 1,
        });
        p.record_into(&c);
        c
    }

    #[test]
    fn dump_validates_and_carries_profile_and_metrics() {
        let c = recorded_collector();
        let dump = flight_json(&c, "fact budget exhausted", 64);
        let s = validate_flight(&dump).expect("valid flight dump");
        assert_eq!(s.reason, "fact budget exhausted");
        assert_eq!(s.events, 2); // span B + E
        assert_eq!(s.profile_entries, 1);
        assert!(s.counters >= 1);
        // Round-trips through the generic parser as one document.
        assert!(is_flight_doc(&parse(&dump).unwrap()));
    }

    #[test]
    fn last_n_bounds_the_event_tail() {
        let c = Collector::enabled();
        for i in 0..10 {
            c.instant(format!("e{i}"), "test", Vec::new());
        }
        let dump = flight_json(&c, "panic", 3);
        let s = validate_flight(&dump).unwrap();
        assert_eq!(s.events, 3);
        // The tail keeps the *latest* events.
        assert!(dump.contains("\"e9\"") && !dump.contains("\"e0\""));
        let doc = parse(&dump).unwrap();
        assert_eq!(
            doc.get("events_recorded").and_then(Value::as_number),
            Some(10.0)
        );
    }

    #[test]
    fn disabled_collector_still_dumps_a_valid_document() {
        let dump = flight_json(&Collector::disabled(), "panic: oh no", 64);
        let s = validate_flight(&dump).unwrap();
        assert_eq!(s.events, 0);
        assert_eq!(s.profile_entries, 0);
        assert_eq!(s.reason, "panic: oh no");
    }

    #[test]
    fn wrong_schema_is_rejected() {
        assert!(validate_flight("{\"schema\": \"other\"}").is_err());
        assert!(validate_flight("{\"traceEvents\": []}").is_err());
        let truncated = "{\"schema\": \"rescue-flight-v1\", \"reason\": \"x\"}";
        assert!(validate_flight(truncated).is_err());
    }
}
