//! The `rescue-wire-v1` protocol: line-delimited JSON over TCP.
//!
//! One request object per line, one (or, for streamed pushes, several)
//! reply objects per line. Both sides use the workspace's one JSON codec,
//! [`rescue_telemetry::json`]: requests are read with its parser, and
//! replies are built with its compact writer, so every reply is one line.
//!
//! Grammar (all requests are objects with an `"op"` discriminator):
//!
//! ```text
//! {"op":"create"[,"session":ID][,"net":NAME]}
//! {"op":"attach","session":ID}
//! {"op":"detach","session":ID}
//! {"op":"destroy","session":ID}
//! {"op":"push","session":ID,"alarms":ALARMS[,"stream":true][,"diagnosis":false]}
//! {"op":"diagnosis","session":ID}
//! {"op":"stats"[,"session":ID]}
//! {"op":"metrics"[,"top":K]}
//! {"op":"profile","session":ID[,"top":K]}
//! {"op":"list"}
//! {"op":"ping"}
//! {"op":"shutdown"}
//! ```
//!
//! `ALARMS` is either a string of `symbol@peer` tokens (`"b@p1 a@p2"`) or
//! an array of `[symbol, peer]` pairs. Replies always carry `"ok"` and
//! echo `"op"`; failures carry `"error"` (a machine-checkable code) and
//! `"detail"`. A `push` that overflows the session's bounded ingest queue
//! is answered with `"ok":false,"error":"backpressure"` plus the counts
//! of accepted vs dropped alarms — the accepted prefix *was* evaluated,
//! and the client retries the remainder. A blown per-session budget is
//! answered with `"error":"session_failed"` embedding the session's
//! flight dump as a nested object.
//!
//! **Trace context.** Every request may additionally carry
//! `"flow":N,"lamport":N` — the sender's flow id and Lamport stamp, the
//! same envelope scheme dQSQ peer messages use (`rescue_telemetry::merge`).
//! A tracing server `flow_recv`s the pair into its collector, so a merged
//! client+server Chrome trace renders one unbroken causal chain from the
//! client's send span through the connection thread into the session's
//! fixpoint rounds. Servers without a collector ignore the fields; they
//! are never echoed back.

use rescue_diagnosis::{Alarm, Diagnosis};
use rescue_telemetry::json::{self, Arr, Obj, Value};

/// A parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    pub op: String,
    pub session: Option<String>,
    pub net: Option<String>,
    pub alarms: Vec<Alarm>,
    /// `push` only: emit one `delta` reply line per alarm before the
    /// final summary (streaming diagnosis responses).
    pub stream: bool,
    /// `push`/`diagnosis` replies include the explanation sets themselves
    /// (default); `"diagnosis":false` keeps replies to counts only.
    pub include_diagnosis: bool,
    /// `profile`/`metrics` only: how many of the hottest rules / MRU
    /// sessions to return.
    pub top: usize,
    /// Optional trace context: the sender's flow id, to be `flow_recv`ed
    /// into the server collector (see the module docs).
    pub flow: Option<u64>,
    /// Optional trace context: the sender's Lamport stamp at send time.
    pub lamport: Option<u64>,
}

fn as_bool(v: &Value) -> Option<bool> {
    match v {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

/// Parse `symbol@peer` tokens out of a whitespace-separated string.
pub fn parse_alarm_tokens(src: &str) -> Result<Vec<Alarm>, String> {
    let mut out = Vec::new();
    for tok in src.split_whitespace() {
        let (sym, peer) = tok
            .split_once('@')
            .ok_or_else(|| format!("alarm {tok} must be symbol@peer"))?;
        out.push(Alarm {
            symbol: sym.to_owned(),
            peer: peer.to_owned(),
        });
    }
    Ok(out)
}

fn parse_alarms(v: &Value) -> Result<Vec<Alarm>, String> {
    match v {
        Value::String(s) => parse_alarm_tokens(s),
        Value::Array(items) => {
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                let pair = item
                    .as_array()
                    .filter(|p| p.len() == 2)
                    .ok_or("each alarm must be a [symbol, peer] pair")?;
                let sym = pair[0].as_str().ok_or("alarm symbol must be a string")?;
                let peer = pair[1].as_str().ok_or("alarm peer must be a string")?;
                out.push(Alarm {
                    symbol: sym.to_owned(),
                    peer: peer.to_owned(),
                });
            }
            Ok(out)
        }
        _ => Err("\"alarms\" must be a string or an array of pairs".to_owned()),
    }
}

/// Parse one request line. Unknown ops are accepted here and refused by
/// the dispatcher (so the error reply can echo the op).
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = json::parse(line).map_err(|e| e.to_string())?;
    let obj = v.as_object().ok_or("request must be a JSON object")?;
    let op = obj
        .get("op")
        .and_then(Value::as_str)
        .ok_or("request needs a string \"op\"")?
        .to_owned();
    let alarms = match obj.get("alarms") {
        Some(a) => parse_alarms(a)?,
        None => Vec::new(),
    };
    Ok(Request {
        op,
        session: obj
            .get("session")
            .and_then(Value::as_str)
            .map(str::to_owned),
        net: obj.get("net").and_then(Value::as_str).map(str::to_owned),
        alarms,
        stream: obj.get("stream").and_then(as_bool).unwrap_or(false),
        include_diagnosis: obj.get("diagnosis").and_then(as_bool).unwrap_or(true),
        top: obj
            .get("top")
            .and_then(Value::as_number)
            .map(|n| n as usize)
            .unwrap_or(5),
        flow: obj.get("flow").and_then(Value::as_number).map(|n| n as u64),
        lamport: obj
            .get("lamport")
            .and_then(Value::as_number)
            .map(|n| n as u64),
    })
}

/// An `"ok":true` reply echoing `op`.
pub fn ok(op: &str) -> Obj {
    Obj::new().bool("ok", true).str("op", op)
}

/// An `"ok":false` reply with a machine-checkable `error` code and a
/// human-readable `detail`.
pub fn err(op: &str, code: &str, detail: &str) -> Obj {
    Obj::new()
        .bool("ok", false)
        .str("op", op)
        .str("error", code)
        .str("detail", detail)
}

/// The diagnosis as a JSON array of sorted explanation arrays — the
/// canonical form, so two byte-identical diagnoses render byte-identically.
pub fn diagnosis_json(d: &Diagnosis) -> String {
    d.configurations
        .iter()
        .fold(Arr::new(), |a, config| a.raw(&json::strings(config)))
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_both_alarm_encodings() {
        let a = parse_request(r#"{"op":"push","session":"s0","alarms":"b@p1 a@p2"}"#).unwrap();
        let b = parse_request(r#"{"op":"push","session":"s0","alarms":[["b","p1"],["a","p2"]]}"#)
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(a.alarms.len(), 2);
        assert_eq!(a.alarms[0].symbol, "b");
        assert_eq!(a.alarms[1].peer, "p2");
        assert!(a.include_diagnosis);
        assert!(!a.stream);
    }

    #[test]
    fn trace_context_is_optional_and_parsed_when_present() {
        let bare = parse_request(r#"{"op":"ping"}"#).unwrap();
        assert_eq!(bare.flow, None);
        assert_eq!(bare.lamport, None);
        let stamped = parse_request(
            r#"{"op":"push","session":"s0","alarms":"b@p1","flow":1099511627777,"lamport":42}"#,
        )
        .unwrap();
        assert_eq!(stamped.flow, Some(1_099_511_627_777)); // ns 1 << 40 | 1
        assert_eq!(stamped.lamport, Some(42));
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"session":"s0"}"#).is_err());
        assert!(parse_request(r#"{"op":"push","alarms":"nopeer"}"#).is_err());
        assert!(parse_request(r#"{"op":"push","alarms":[["b"]]}"#).is_err());
    }

    #[test]
    fn replies_round_trip_through_the_parser() {
        let d = Diagnosis::from_sets(vec![vec!["e\"2".to_owned(), "e1".to_owned()], vec![]]);
        let line = ok("push")
            .str("session", "s0")
            .num("accepted", 2)
            .raw("diagnosis", &diagnosis_json(&d))
            .finish();
        let v = rescue_telemetry::json::parse(&line).unwrap();
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(v.get("accepted").unwrap().as_number(), Some(2.0));
        let sets = v.get("diagnosis").unwrap().as_array().unwrap();
        assert_eq!(sets.len(), 2);
        // from_sets canonicalizes: empty set first, events sorted.
        assert!(sets[0].as_array().unwrap().is_empty());
        assert_eq!(sets[1].as_array().unwrap()[0].as_str(), Some("e\"2"));
    }
}
