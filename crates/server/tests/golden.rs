//! Golden wire bytes. Line-JSON clients match on reply substrings — the
//! benchmark client looks for `"ok":true` and `"diagnosis":[…]` — so the
//! exact bytes of a reply, key order and spacing included, are part of
//! the protocol. These are the bytes the server has always sent.

use rescue_diagnosis::ManagerConfig;
use rescue_petri::figure1;
use rescue_server::{spawn, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// Send `requests` in order on one connection to a fresh untraced server
/// and return the raw reply lines.
fn exchange(requests: &[&str]) -> Vec<String> {
    let h = spawn(ServerConfig {
        manager: ManagerConfig::default(),
        nets: vec![("figure1".to_owned(), figure1())],
        ..ServerConfig::default()
    })
    .expect("spawn server");
    let stream = TcpStream::connect(h.addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut replies = Vec::new();
    for req in requests.iter().chain(&[r#"{"op":"shutdown"}"#]) {
        writeln!(writer, "{req}").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        replies.push(line.trim_end_matches('\n').to_owned());
    }
    h.join().unwrap();
    assert_eq!(replies.pop().unwrap(), r#"{"ok":true,"op":"shutdown"}"#);
    replies
}

#[test]
fn replies_keep_their_bytes() {
    let r = exchange(&[
        r#"{"op":"create","session":"g0"}"#,
        r#"{"op":"create","session":"g\"1\\"}"#,
        r#"{"op":"metrics","top":5}"#,
        r#"{"op":"push","session":"g0","alarms":"b@p1 a@p2 c@p1"}"#,
        r#"{"op":"push","session":"nope","alarms":"b@p1"}"#,
        r#"{"op":"list"}"#,
    ]);
    assert_eq!(
        r[0],
        r#"{"ok":true,"op":"create","session":"g0","net":"figure1"}"#
    );
    assert_eq!(
        r[1],
        r#"{"ok":true,"op":"create","session":"g\"1\\","net":"figure1"}"#
    );
    // The metrics rollup and its per-session rows; only the uptime varies.
    let (head, tail) = r[2].split_once(r#""uptime_us":"#).expect("uptime_us");
    assert_eq!(head, r#"{"ok":true,"op":"metrics","health":"ok","#);
    let tail = tail.trim_start_matches(|c: char| c.is_ascii_digit());
    assert_eq!(
        tail,
        concat!(
            r#","resident":2,"attached":2,"created":2,"destroyed":0,"evicted":0,"#,
            r#""rejected":0,"failed":0,"alarms_accepted":0,"backpressure_replies":0,"#,
            r#""ingest_capacity":1024,"sessions":["#,
            r#"{"id":"g\"1\\","alarms":0,"facts":79,"attached":true,"failed":false,"#,
            r#""pushes":0,"last_batch":0,"push_p50_us":0,"push_p99_us":0},"#,
            r#"{"id":"g0","alarms":0,"facts":79,"attached":true,"failed":false,"#,
            r#""pushes":0,"last_batch":0,"push_p50_us":0,"push_p99_us":0}]}"#,
        )
    );
    assert_eq!(
        r[3],
        concat!(
            r#"{"ok":true,"op":"push","session":"g0","accepted":3,"dropped":0,"#,
            r#""capacity":1024,"alarms":3,"explanations":1,"diagnosis":"#,
            r#"[["f(i, g(r, 1), g(r, 7))","f(ii, g(r, 4))","#,
            r#""f(iii, g(f(i, g(r, 1), g(r, 7)), 2))"]]}"#,
        )
    );
    assert_eq!(
        r[4],
        r#"{"ok":false,"op":"push","error":"unknown_session","detail":"unknown session nope"}"#
    );
    assert_eq!(
        r[5],
        r#"{"ok":true,"op":"list","resident":2,"sessions":["g0","g\"1\\"]}"#
    );
}
