//! Export a recording two ways: Chrome `trace_event` JSON (loadable in
//! `chrome://tracing` and Perfetto) and a flat metrics dump (JSON or
//! text). Both are rendered from the same [`Collector`] state, so the
//! numbers in a metrics dump and the spans in a trace always describe the
//! same run.
//!
//! The JSON goes through the crate's one writer ([`crate::json::Obj`]);
//! [`crate::json::parse`] reads it back for the schema validator and the
//! tests.

use crate::json::{Arr, Obj};
use crate::{Arg, Collector, Event};
use std::fmt::Write as _;

/// The recording timestamp of any event variant.
pub(crate) fn ts_of(ev: &Event) -> u64 {
    match ev {
        Event::Begin { ts_us, .. }
        | Event::End { ts_us, .. }
        | Event::Instant { ts_us, .. }
        | Event::FlowSend { ts_us, .. }
        | Event::FlowRecv { ts_us, .. } => *ts_us,
    }
}

/// Render one event with an explicit process id and (possibly adjusted)
/// timestamp — the merge module maps each peer to its own `pid` and
/// shifts timestamps onto a common causal timeline.
pub(crate) fn event_json_with(ev: &Event, pid: u64, ts_us: u64) -> String {
    let (name, cat, ph, tid, id, args) = match ev {
        Event::Begin {
            name,
            cat,
            tid,
            args,
            ..
        } => (name, cat, "B", tid, None, args),
        Event::End {
            name,
            cat,
            tid,
            args,
            ..
        } => (name, cat, "E", tid, None, args),
        Event::Instant {
            name,
            cat,
            tid,
            args,
            ..
        } => (name, cat, "i", tid, None, args),
        Event::FlowSend {
            name,
            cat,
            id,
            tid,
            args,
            ..
        } => (name, cat, "s", tid, Some(*id), args),
        Event::FlowRecv {
            name,
            cat,
            id,
            tid,
            args,
            ..
        } => (name, cat, "f", tid, Some(*id), args),
    };
    let mut o = Obj::new()
        .str("name", name)
        .str("cat", cat)
        .str("ph", ph)
        .num("ts", ts_us)
        .num("pid", pid)
        .num("tid", *tid);
    if let Some(id) = id {
        o = o.str("id", &format!("0x{id:x}"));
    }
    match ph {
        // Bind the flow finish to the enclosing slice's end, the Perfetto
        // convention for "this event consumed the message".
        "f" => o = o.str("bp", "e"),
        "i" => o = o.str("s", "t"),
        _ => {}
    }
    if !args.is_empty() {
        let args = args.iter().fold(Obj::new(), |a, (k, v)| match v {
            Arg::Num(n) => a.num(k, *n),
            Arg::Str(t) => a.str(k, t),
        });
        o = o.raw("args", &args.finish());
    }
    o.finish()
}

/// Render the recording as Chrome `trace_event` JSON (the "JSON object
/// format": `traceEvents` array plus metadata), one event per line.
pub fn chrome_trace(collector: &Collector) -> String {
    let events = collector.with_events(|events| {
        events.fold(Arr::lines(), |a, ev| {
            a.raw(&event_json_with(ev, 1, ts_of(ev)))
        })
    });
    let other = Obj::new()
        .num("dropped_events", collector.dropped_events())
        .num("ring_capacity", collector.event_capacity() as u64);
    trace_doc(events, other)
}

/// The Chrome-trace envelope around rendered events and `otherData`.
pub(crate) fn trace_doc(events: Arr, other: Obj) -> String {
    Obj::new()
        .str("displayTimeUnit", "ms")
        .raw("traceEvents", &events.finish())
        .raw("otherData", &other.finish())
        .finish()
        + "\n"
}

/// Render every counter and histogram as one flat JSON object.
pub fn metrics_json(collector: &Collector) -> String {
    let snap = collector.snapshot();
    let counters = snap
        .counters
        .iter()
        .fold(Obj::new(), |o, (k, v)| o.num(k, *v));
    let hists = snap.histograms.iter().fold(Obj::new(), |o, (k, h)| {
        let (p50, p95, p99) = h.percentiles();
        let h = Obj::new()
            .num("count", h.count)
            .num("sum", h.sum)
            .num("min", h.min)
            .num("max", h.max)
            .num("mean", h.mean())
            .num("last", h.last)
            .num("p50", p50)
            .num("p95", p95)
            .num("p99", p99);
        o.raw(k, &h.finish())
    });
    Obj::new()
        .raw("counters", &counters.finish())
        .raw("histograms", &hists.finish())
        .num("dropped_events", snap.dropped_events)
        .num("ring_capacity", snap.ring_capacity)
        .finish()
}

/// Render every counter and histogram as aligned text, for terminals.
pub fn metrics_text(collector: &Collector) -> String {
    let snap = collector.snapshot();
    let mut s = String::new();
    let width = snap
        .counters
        .keys()
        .chain(snap.histograms.keys())
        .map(|k| k.len())
        .max()
        .unwrap_or(0);
    for (k, v) in &snap.counters {
        let _ = writeln!(s, "{k:width$}  {v}");
    }
    for (k, h) in &snap.histograms {
        let (p50, p95, p99) = h.percentiles();
        let _ = writeln!(
            s,
            "{k:width$}  count={} sum={} min={} max={} mean={} p50={p50} p95={p95} p99={p99}",
            h.count,
            h.sum,
            h.min,
            h.max,
            h.mean()
        );
    }
    if snap.dropped_events > 0 {
        let _ = writeln!(
            s,
            "(trace ring dropped {} events; capacity {})",
            snap.dropped_events, snap.ring_capacity
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    #[test]
    fn chrome_trace_round_trips_through_the_parser() {
        let c = Collector::enabled();
        {
            let mut span = c.span("phase \"one\"", "eval");
            span.arg("facts", 12u64);
            let id = c.flow_id();
            c.flow_send("msg", "net", id, vec![("bytes".into(), Arg::Num(7))]);
            c.flow_recv("msg", "net", id, Vec::new());
        }
        let trace = chrome_trace(&c);
        let v = parse(&trace).expect("valid JSON");
        let Value::Object(top) = v else {
            panic!("top-level object")
        };
        let Value::Array(events) = &top["traceEvents"] else {
            panic!("traceEvents array")
        };
        assert_eq!(events.len(), 4); // B, s, f, E
        for ev in events {
            let Value::Object(o) = ev else { panic!() };
            assert!(o.contains_key("name") && o.contains_key("ph") && o.contains_key("ts"));
        }
    }

    #[test]
    fn metrics_json_parses_and_carries_the_numbers() {
        let c = Collector::enabled();
        c.count("eval.facts_derived", 41);
        c.record("push_us", 100);
        let m = metrics_json(&c);
        let Value::Object(top) = parse(&m).unwrap() else {
            panic!()
        };
        let Value::Object(counters) = &top["counters"] else {
            panic!()
        };
        assert_eq!(counters["eval.facts_derived"], Value::Number(41.0));
        let Value::Object(hists) = &top["histograms"] else {
            panic!()
        };
        let Value::Object(h) = &hists["push_us"] else {
            panic!()
        };
        assert_eq!(h["count"], Value::Number(1.0));
    }

    #[test]
    fn metrics_text_lists_everything() {
        let c = Collector::enabled();
        c.count("a.b", 2);
        c.record("lat_us", 5);
        let t = metrics_text(&c);
        assert!(t.contains("a.b"));
        assert!(t.contains("lat_us"));
        assert!(t.contains("count=1"));
    }
}
