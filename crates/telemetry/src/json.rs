//! A minimal JSON parser plus the trace schema validator.
//!
//! The workspace writes its JSON by hand (no serde offline); this module
//! is the matching *reader*, used by the CI schema check
//! (`validate_trace` binary), the integration tests that assert span
//! balance and message pairing, and the export unit tests. It accepts
//! strict JSON (no comments, no trailing commas) and parses numbers as
//! `f64` — ample for trace timestamps and counters. It is also the
//! server's request parser, so it bounds what the network can make it do:
//! nesting deeper than [`MAX_DEPTH`] is an error, not a stack overflow.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Clone, PartialEq, Debug)]
pub enum Value {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(BTreeMap<String, Value>),
}

impl Value {
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_number(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Member of an object, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|o| o.get(key))
    }
}

/// A parse failure with its byte offset.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JsonError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, and a request line arrives from the network: without
/// a bound, one line of `[[[[…` overflows a connection thread's stack and
/// aborts the whole process.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, JsonError> {
        Err(JsonError {
            offset: self.pos,
            message: message.into(),
        })
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", b as char))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => self.err(format!("unexpected character '{}'", c as char)),
            None => self.err("unexpected end of input"),
        }
    }

    /// Parse one array or object, refusing to go deeper than [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Value, JsonError>,
    ) -> Result<Value, JsonError> {
        if self.depth == MAX_DEPTH {
            return self.err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            self.err(format!("expected '{word}'"))
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii slice");
        match text.parse::<f64>() {
            Ok(n) => Ok(Value::Number(n)),
            Err(_) => self.err(format!("invalid number '{text}'")),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or(JsonError {
                                    offset: self.pos,
                                    message: "truncated \\u escape".into(),
                                })?;
                            let cp = u32::from_str_radix(hex, 16).map_err(|_| JsonError {
                                offset: self.pos,
                                message: format!("bad \\u escape '{hex}'"),
                            })?;
                            // Surrogates are not emitted by our writers;
                            // map unpaired ones to the replacement char.
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Bulk-consume the plain run up to the next quote or
                    // escape and validate just that slice — validating
                    // from `pos` to the end of the document per character
                    // would make string parsing quadratic (multi-MB
                    // traces took minutes instead of milliseconds).
                    let start = self.pos;
                    while self
                        .bytes
                        .get(self.pos)
                        .is_some_and(|&b| b != b'"' && b != b'\\')
                    {
                        self.pos += 1;
                    }
                    let chunk =
                        std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| {
                            JsonError {
                                offset: start,
                                message: "invalid UTF-8".into(),
                            }
                        })?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

/// Parse one JSON document (trailing whitespace allowed, nothing else).
pub fn parse(src: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing content after JSON document");
    }
    Ok(v)
}

/// What a validated trace contained.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct TraceSummary {
    pub events: usize,
    pub spans_opened: usize,
    pub spans_closed: usize,
    pub flow_sends: usize,
    pub flow_recvs: usize,
    /// Messages sent but never delivered by the end of the recording.
    pub unmatched_sends: usize,
    /// Flow pairs whose finish landed on a different `pid` than the
    /// matching start — the signature of a message crossing a process
    /// boundary in a merged multi-peer trace (client→server wire
    /// requests, dQSQ peer messages). Zero in a single-process trace.
    pub cross_process_flows: usize,
    pub dropped_events: u64,
    /// Distinct `pid`s among non-metadata events — a merged multi-peer
    /// trace has one per peer.
    pub processes: usize,
    /// Anomalies that are *expected consequences of ring overflow*
    /// (unbalanced spans, orphan flow finishes when `dropped_events > 0`):
    /// not errors — the overflow explains them — but surfaced so a
    /// truncated trace never validates silently. `--strict` (in the
    /// `validate_trace` binary) promotes them back to failures.
    pub warnings: Vec<String>,
}

/// Validate a Chrome `trace_event` JSON document against the schema this
/// workspace emits: a top-level object with a `traceEvents` array whose
/// entries carry `name`/`cat`/`ph`/`ts`/`pid`/`tid`, flow events carrying
/// `id`, flow-finishes paired with their flow-starts (an orphan finish is
/// a warning, not an error — it is how one peer's half of a multi-process
/// recording looks), and — when the ring dropped nothing —
/// balanced span open/close per `(pid, tid)`
/// (merged multi-peer traces interleave independent processes whose
/// thread ids may coincide). Metadata events (`ph: "M"`) are schema-checked
/// but otherwise skipped.
pub fn validate_trace(src: &str) -> Result<TraceSummary, String> {
    let doc = parse(src).map_err(|e| e.to_string())?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("top-level object must contain a \"traceEvents\" array")?;
    let dropped = doc
        .get("otherData")
        .and_then(|o| o.get("dropped_events"))
        .and_then(Value::as_number)
        .unwrap_or(0.0) as u64;

    let mut summary = TraceSummary {
        events: events.len(),
        dropped_events: dropped,
        ..Default::default()
    };
    let mut depth: BTreeMap<(u64, u64), i64> = BTreeMap::new();
    let mut pids: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    // Pids of starts still awaiting their finish, per flow id (a stack:
    // re-used ids pair LIFO, matching how nested re-sends would appear).
    let mut open_flows: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    let mut closes_without_open = 0usize;
    let mut orphan_finishes = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let obj = ev
            .as_object()
            .ok_or_else(|| format!("event {i}: not an object"))?;
        for key in ["name", "cat", "ph"] {
            if !matches!(obj.get(key), Some(Value::String(_))) {
                return Err(format!("event {i}: missing string field \"{key}\""));
            }
        }
        for key in ["ts", "pid", "tid"] {
            if !matches!(obj.get(key), Some(Value::Number(_))) {
                return Err(format!("event {i}: missing numeric field \"{key}\""));
            }
        }
        let pid = obj["pid"].as_number().expect("checked") as u64;
        let tid = obj["tid"].as_number().expect("checked") as u64;
        let ph = obj["ph"].as_str().expect("checked");
        if ph != "M" {
            pids.insert(pid);
        }
        match ph {
            "B" => {
                summary.spans_opened += 1;
                *depth.entry((pid, tid)).or_insert(0) += 1;
            }
            "E" => {
                summary.spans_closed += 1;
                let d = depth.entry((pid, tid)).or_insert(0);
                *d -= 1;
                if *d < 0 {
                    if dropped == 0 {
                        return Err(format!(
                            "event {i}: span close without open on pid {pid} tid {tid}"
                        ));
                    }
                    closes_without_open += 1;
                    *d = 0;
                }
            }
            "i" | "M" => {}
            "s" | "f" => {
                let id = obj
                    .get("id")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("event {i}: flow event without \"id\""))?
                    .to_owned();
                if ph == "s" {
                    summary.flow_sends += 1;
                    open_flows.entry(id).or_default().push(pid);
                } else {
                    summary.flow_recvs += 1;
                    match open_flows.get_mut(&id).and_then(Vec::pop) {
                        Some(sender_pid) => {
                            if sender_pid != pid {
                                summary.cross_process_flows += 1;
                            }
                        }
                        None => orphan_finishes += 1,
                    }
                }
            }
            other => return Err(format!("event {i}: unknown ph \"{other}\"")),
        }
    }
    let unbalanced: Vec<(u64, u64, i64)> = depth
        .iter()
        .filter(|(_, d)| **d != 0)
        .map(|(&(pid, tid), &d)| (pid, tid, d))
        .collect();
    if dropped == 0 {
        if let Some((pid, tid, d)) = unbalanced.first() {
            return Err(format!(
                "unbalanced spans on pid {pid} tid {tid} (depth {d} at end)"
            ));
        }
    } else {
        // The ring refused `dropped` events, so missing opens/closes are
        // the overflow's expected shadow — warn, don't fail, and point at
        // the cause so the reader knows the trace (not the run) is short.
        if !unbalanced.is_empty() || closes_without_open > 0 {
            summary.warnings.push(format!(
                "unbalanced spans on {} (pid, tid) pair(s), {} close(s) without open — \
                 expected: the event ring dropped {} event(s) (capacity in otherData); \
                 rerun with a larger ring for a complete trace",
                unbalanced.len(),
                closes_without_open,
                dropped
            ));
        }
        if orphan_finishes > 0 {
            summary.warnings.push(format!(
                "{orphan_finishes} flow finish(es) without a recorded start — expected: \
                 the event ring dropped {dropped} event(s)"
            ));
        }
    }
    if dropped == 0 && orphan_finishes > 0 {
        // One peer's half of a conversation: a server recording holds the
        // flow_recv of every trace-stamped wire request whose flow_send
        // lives in the client's recording (and vice versa). Legitimate on
        // its own — merge the peers for the paired view — but surfaced so
        // a merged trace with unstitched flows never validates silently.
        summary.warnings.push(format!(
            "{orphan_finishes} flow finish(es) without a recorded start — this looks \
             like one peer's half of a multi-process recording; merge it with the \
             sending peer's trace for the paired timeline"
        ));
    }
    summary.unmatched_sends = open_flows.values().map(Vec::len).sum();
    summary.processes = pids.len();
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_arrays_objects() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("-12.5e1").unwrap(), Value::Number(-125.0));
        assert_eq!(
            parse(r#""a\n\"b\" A""#).unwrap(),
            Value::String("a\n\"b\" A".into())
        );
        let v = parse(r#"{"a": [1, 2, {"b": []}]}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,]", "{\"a\" 1}", "1 2", "\"unterminated", "nul"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        let arrays = |n: usize| "[".repeat(n) + &"]".repeat(n);
        let objects = |n: usize| "{\"k\":".repeat(n) + "0" + &"}".repeat(n);
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        for hostile in [
            arrays(MAX_DEPTH + 1),
            objects(MAX_DEPTH + 1),
            "[".repeat(100_000),
            "[{\"k\":".repeat(50_000),
        ] {
            let e = parse(&hostile).expect_err("accepted hostile nesting");
            assert!(e.message.contains("nesting deeper than"), "{e}");
        }
        // Siblings are not depth: a long flat array still parses.
        assert!(parse(&format!("[{}[]]", "[],".repeat(10_000))).is_ok());
    }

    #[test]
    fn validates_a_balanced_trace() {
        let src = r#"{
          "traceEvents": [
            {"name": "a", "cat": "t", "ph": "B", "ts": 0, "pid": 1, "tid": 1},
            {"name": "m", "cat": "n", "ph": "s", "ts": 1, "pid": 1, "tid": 1, "id": "0x1"},
            {"name": "m", "cat": "n", "ph": "f", "ts": 2, "pid": 1, "tid": 2, "id": "0x1", "bp": "e"},
            {"name": "a", "cat": "t", "ph": "E", "ts": 3, "pid": 1, "tid": 1}
          ],
          "otherData": {"dropped_events": 0}
        }"#;
        let s = validate_trace(src).unwrap();
        assert_eq!(s.spans_opened, 1);
        assert_eq!(s.spans_closed, 1);
        assert_eq!(s.flow_sends, 1);
        assert_eq!(s.flow_recvs, 1);
        assert_eq!(s.unmatched_sends, 0);
        assert_eq!(s.cross_process_flows, 0, "same-pid pair is in-process");
    }

    #[test]
    fn counts_cross_process_flow_pairs() {
        // One flow crossing pid 1 → pid 2 (a merged client/server trace),
        // one staying inside pid 2, one left unmatched.
        let src = r#"{"traceEvents": [
            {"name": "m", "cat": "w", "ph": "s", "ts": 0, "pid": 1, "tid": 1, "id": "7"},
            {"name": "m", "cat": "w", "ph": "f", "bp": "e", "ts": 5, "pid": 2, "tid": 1, "id": "7"},
            {"name": "n", "cat": "w", "ph": "s", "ts": 6, "pid": 2, "tid": 1, "id": "8"},
            {"name": "n", "cat": "w", "ph": "f", "bp": "e", "ts": 7, "pid": 2, "tid": 2, "id": "8"},
            {"name": "o", "cat": "w", "ph": "s", "ts": 8, "pid": 1, "tid": 1, "id": "9"}
        ]}"#;
        let s = validate_trace(src).unwrap();
        assert_eq!(s.flow_sends, 3);
        assert_eq!(s.flow_recvs, 2);
        assert_eq!(s.cross_process_flows, 1);
        assert_eq!(s.unmatched_sends, 1);
        assert_eq!(s.processes, 2);
    }

    #[test]
    fn rejects_unbalanced_spans_and_warns_on_orphan_flows() {
        let unbalanced = r#"{"traceEvents": [
            {"name": "a", "cat": "t", "ph": "B", "ts": 0, "pid": 1, "tid": 1}
        ]}"#;
        assert!(validate_trace(unbalanced)
            .unwrap_err()
            .contains("unbalanced"));
        // An orphan flow finish without overflow is one peer's half of a
        // multi-process recording (a server trace holds the flow_recv of
        // a client-stamped request) — a warning, not an error, so the
        // half validates standalone while `--strict` still rejects it.
        let orphan = r#"{"traceEvents": [
            {"name": "m", "cat": "n", "ph": "f", "ts": 0, "pid": 1, "tid": 1, "id": "0x9"}
        ]}"#;
        let s = validate_trace(orphan).expect("half trace validates");
        assert_eq!(s.flow_recvs, 1);
        assert_eq!(s.warnings.len(), 1);
        assert!(
            s.warnings[0].contains("without a recorded start"),
            "{:?}",
            s.warnings
        );
    }

    #[test]
    fn overflowed_traces_warn_instead_of_failing() {
        // A dangling open, a close without open, and an orphan flow
        // finish — all of which the ring overflow explains.
        let src = r#"{"traceEvents": [
            {"name": "a", "cat": "t", "ph": "B", "ts": 0, "pid": 1, "tid": 1},
            {"name": "m", "cat": "n", "ph": "f", "ts": 1, "pid": 1, "tid": 1, "id": "0x9"},
            {"name": "x", "cat": "t", "ph": "E", "ts": 2, "pid": 1, "tid": 2}
        ], "otherData": {"dropped_events": 5}}"#;
        let s = validate_trace(src).expect("overflowed trace validates");
        assert_eq!(s.dropped_events, 5);
        assert_eq!(s.warnings.len(), 2);
        assert!(s.warnings[0].contains("dropped 5"), "{:?}", s.warnings);
        assert!(s.warnings[1].contains("flow finish"), "{:?}", s.warnings);
        // A clean overflowed trace carries no warnings.
        let clean = r#"{"traceEvents": [
            {"name": "a", "cat": "t", "ph": "B", "ts": 0, "pid": 1, "tid": 1},
            {"name": "a", "cat": "t", "ph": "E", "ts": 1, "pid": 1, "tid": 1}
        ], "otherData": {"dropped_events": 5}}"#;
        assert!(validate_trace(clean).unwrap().warnings.is_empty());
    }

    #[test]
    fn span_balance_is_per_process() {
        // Two processes share tid 1; their spans interleave but each is
        // balanced within its own pid — valid only with (pid, tid) keys.
        let src = r#"{"traceEvents": [
            {"name": "p", "cat": "m", "ph": "M", "ts": 0, "pid": 1, "tid": 0},
            {"name": "a", "cat": "t", "ph": "B", "ts": 0, "pid": 1, "tid": 1},
            {"name": "b", "cat": "t", "ph": "B", "ts": 1, "pid": 2, "tid": 1},
            {"name": "a", "cat": "t", "ph": "E", "ts": 2, "pid": 1, "tid": 1},
            {"name": "b", "cat": "t", "ph": "E", "ts": 3, "pid": 2, "tid": 1}
        ]}"#;
        let s = validate_trace(src).unwrap();
        assert_eq!(s.spans_opened, 2);
        assert_eq!(s.processes, 2);
        // A close on a pid that never opened is still an error.
        let bad = r#"{"traceEvents": [
            {"name": "a", "cat": "t", "ph": "B", "ts": 0, "pid": 1, "tid": 1},
            {"name": "a", "cat": "t", "ph": "E", "ts": 1, "pid": 2, "tid": 1}
        ]}"#;
        assert!(validate_trace(bad).unwrap_err().contains("without open"));
    }

    #[test]
    fn missing_fields_are_schema_errors() {
        let src = r#"{"traceEvents": [{"cat": "t", "ph": "B", "ts": 0, "pid": 1, "tid": 1}]}"#;
        assert!(validate_trace(src).unwrap_err().contains("name"));
    }
}
