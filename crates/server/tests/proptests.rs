//! Property-based tests for the `rescue-wire-v1` encoding: whatever the
//! workspace's one JSON writer emits must parse back to the same value,
//! for arbitrary JSON trees — escaped quotes, backslashes, control
//! characters, unicode, and the flight-dump payloads the server embeds in
//! `session_failed` replies.

use proptest::prelude::*;
use rescue_server::wire;
use rescue_telemetry::json::{self, Arr, Obj, Value};

// ---------- generators ----------

/// Strings that exercise every escaping path: plain ASCII, quotes and
/// backslashes, control characters, and non-ASCII unicode.
fn json_string() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-z0-9 _.-]{0,10}".prop_map(|s| s),
        Just(String::new()),
        Just("say \"hi\" \\ twice".to_owned()),
        Just("tab\there\nnewline\rreturn".to_owned()),
        Just("control \u{1} \u{1f} chars".to_owned()),
        Just("unicode: λ→∅ 日本語 ☃".to_owned()),
        Just("trailing backslash \\".to_owned()),
        "[a-z]{0,3}".prop_map(|s| format!("{s}\"{s}\\{s}")),
    ]
}

/// Arbitrary JSON trees (numbers kept integral so text round-trips are
/// exact; the wire format never emits non-integral numbers anyway).
fn value() -> BoxedStrategy<Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        (0u8..2).prop_map(|b| Value::Bool(b == 1)),
        (0u64..1_000_000).prop_map(|n| Value::Number(n as f64)),
        json_string().prop_map(Value::String),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
            prop::collection::vec(("[a-z][a-z0-9]{0,4}".prop_map(|s| s), inner), 0..4)
                .prop_map(|pairs| Value::Object(pairs.into_iter().collect())),
        ]
    })
}

/// `s` as a JSON string literal, through the workspace's one escaper.
fn literal(s: &str) -> String {
    let mut out = String::new();
    json::quote(&mut out, s);
    out
}

/// Render `v` compactly with the workspace's one JSON writer — what a
/// flight dump looks like when the server embeds it.
fn render(v: &Value) -> String {
    match v {
        Value::Null => "null".to_owned(),
        Value::Bool(b) => b.to_string(),
        Value::Number(n) => (*n as u64).to_string(),
        Value::String(s) => literal(s),
        Value::Array(xs) => xs
            .iter()
            .fold(Arr::new(), |a, x| a.raw(&render(x)))
            .finish(),
        Value::Object(m) => m
            .iter()
            .fold(Obj::new(), |o, (k, x)| o.raw(k, &render(x)))
            .finish(),
    }
}

// ---------- properties ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn esc_round_trips_arbitrary_strings(s in json_string()) {
        let lit = literal(&s);
        prop_assert!(!lit.contains('\n'), "esc left a raw newline: {lit:?}");
        prop_assert_eq!(json::parse(&lit).unwrap(), Value::String(s));
    }

    #[test]
    fn embedded_flight_dumps_survive_the_protocol_line(dump in value()) {
        // What the server does for `session_failed`: splice the compact
        // dump into a one-line reply as it is.
        let line = wire::err("push", "session_failed", "budget exceeded")
            .raw("flight", &render(&dump))
            .finish();
        prop_assert!(!line.contains('\n'));
        let reply = json::parse(&line).unwrap();
        prop_assert_eq!(reply.get("flight").unwrap(), &dump);
        prop_assert_eq!(reply.get("error").and_then(Value::as_str), Some("session_failed"));
    }
}
