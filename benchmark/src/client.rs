//! The load generator's side of `rescue-wire-v1`: a line client, session
//! lifecycles as request scripts, and one driver for closed and open loops.
//! Only wire text crosses to the server.

use crate::inputs::{alarm_token, mix, Instance};
use crate::layers::wire_diagnosis;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            writer: stream,
            reader,
            line: String::new(),
        })
    }

    /// Send one request line, read the one reply line.
    pub fn call(&mut self, req: &str) -> io::Result<&str> {
        self.writer.write_all(req.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(self.line.trim_end())
    }
}

/// One tenant's alarm stream as the server sees it: the net it names on
/// `create`, the alarm tokens, and the reply fragment each push must carry.
pub struct Stream {
    pub net: String,
    pub tokens: Vec<String>,
    /// `"diagnosis":[…]` after push `k` (canonical JSON of the reference).
    pub expect: Vec<String>,
}

impl Stream {
    pub fn of(net: &str, inst: &Instance) -> Stream {
        Stream {
            net: net.to_owned(),
            tokens: inst.alarms.alarms.iter().map(alarm_token).collect(),
            expect: inst
                .prefix_refs
                .iter()
                .map(|d| format!("\"diagnosis\":{}", wire_diagnosis(d)))
                .collect(),
        }
    }

    /// The stream cut to its first `alarms` alarms.
    pub fn truncated(mut self, alarms: usize) -> Stream {
        self.tokens.truncate(alarms);
        self.expect.truncate(alarms);
        self
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verb {
    Create,
    Push,
    Read,
    Destroy,
}

/// Session lifecycles, one request at a time: create, one push per alarm,
/// optionally a `diagnosis` read, destroy; then the next stream.
pub struct Script<'a> {
    streams: &'a [Stream],
    /// Session-id prefix, distinct per connection.
    tag: &'a str,
    read: bool,
    session: usize,
    step: usize,
}

pub struct Request<'a> {
    pub verb: Verb,
    pub line: String,
    /// Fragment the reply must contain beside `"ok":true`.
    pub expect: Option<&'a str>,
}

impl<'a> Script<'a> {
    pub fn new(streams: &'a [Stream], tag: &'a str, read: bool) -> Self {
        Script {
            streams,
            tag,
            read,
            session: 0,
            step: 0,
        }
    }

    fn stream(&self) -> &'a Stream {
        &self.streams[self.session % self.streams.len()]
    }

    /// True between a `create` and its `destroy`.
    pub fn mid_lifecycle(&self) -> bool {
        self.step != 0
    }

    pub fn next(&mut self) -> Request<'a> {
        let s = self.stream();
        let id = format!("{}{}", self.tag, self.session);
        let pushes = s.tokens.len();
        let step = self.step;
        self.step += 1;
        if step == 0 {
            Request {
                verb: Verb::Create,
                line: format!(
                    "{{\"op\":\"create\",\"session\":\"{id}\",\"net\":\"{}\"}}",
                    s.net
                ),
                expect: None,
            }
        } else if step <= pushes {
            Request {
                verb: Verb::Push,
                line: format!(
                    "{{\"op\":\"push\",\"session\":\"{id}\",\"alarms\":\"{}\"}}",
                    s.tokens[step - 1]
                ),
                expect: Some(&s.expect[step - 1]),
            }
        } else if self.read && step == pushes + 1 {
            Request {
                verb: Verb::Read,
                line: format!("{{\"op\":\"diagnosis\",\"session\":\"{id}\"}}"),
                expect: Some(&s.expect[pushes - 1]),
            }
        } else {
            self.step = 0;
            self.session += 1;
            Request {
                verb: Verb::Destroy,
                line: format!("{{\"op\":\"destroy\",\"session\":\"{id}\"}}"),
                expect: None,
            }
        }
    }
}

/// What one connection did.
#[derive(Default)]
pub struct ConnResult {
    pub attempted: u64,
    pub failed: u64,
    pub lifecycles: u64,
    pub push_ms: Vec<f64>,
    pub read_ms: Vec<f64>,
    /// From the end of the ramp to this connection's last timed reply.
    pub measured_s: f64,
    /// Open loop: how late the generator sent, and how often by > 1 ms.
    pub max_lag_ms: f64,
    pub late: u64,
}

/// Sub-seed streams 1 and 2 draw the inputs (`bench::setup`); the lanes'
/// arrival times come after them.
const ARRIVAL_STREAM: u64 = 3;

/// How long past the end of its schedule an open loop keeps sending.
const GIVE_UP: Duration = Duration::from_secs(2);

/// When an open loop's requests are due: gaps drawn from `seed`, uniform
/// within ±25 % of `mean_gap`. A fixed period would phase-lock the lanes
/// to each other; exponential gaps let a lane's requests bunch, so that its
/// lock holds run together and the load of a run depends on its seed.
pub struct Arrivals {
    pub mean_gap: Duration,
    pub seed: u64,
    /// Which connection of the run this is.
    pub lane: u64,
    /// Gaps drawn so far.
    pub sent: u64,
}

impl Arrivals {
    /// The next gap: uniform in [0.75, 1.25) × mean.
    fn next_gap(&mut self) -> Duration {
        let x = mix(self.seed, ARRIVAL_STREAM + self.lane, self.sent);
        self.sent += 1;
        let u = (x >> 11) as f64 / (1u64 << 53) as f64;
        self.mean_gap.mul_f64(0.75 + 0.5 * u)
    }
}

/// Drive `script` over `client` from `start` until `end`; requests due
/// before `measure_from` are the ramp: sent and checked, not timed.
///
/// Closed loop (`arrivals` = None): the next request goes out when the
/// previous reply is in, and is timed from its send. Open loop: each
/// request has a due time fixed in advance, whatever happened before; it
/// is sent at its due time or as soon after as the connection is free, and
/// timed **from its due time**, so a stall charges every request it delays.
/// Every request due before `end` is sent, late if need be; a backlog still
/// there [`GIVE_UP`] after `end` is abandoned and counts as failed.
pub fn drive(
    client: &mut Client,
    script: &mut Script<'_>,
    mut arrivals: Option<Arrivals>,
    start: Instant,
    measure_from: Instant,
    end: Instant,
) -> ConnResult {
    let mut out = ConnResult::default();
    let mut next_due = start;
    loop {
        let now = Instant::now();
        let due = match &mut arrivals {
            None => now,
            Some(a) => {
                next_due += a.next_gap();
                next_due
            }
        };
        if due >= end {
            break;
        }
        if now >= end + GIVE_UP {
            // Open loop fell behind for good: the rest of the schedule
            // was due and never went out.
            let a = arrivals.as_ref().expect("closed loops are never behind");
            let unsent = ((end - due).as_secs_f64() / a.mean_gap.as_secs_f64()).ceil() as u64;
            out.attempted += unsent;
            out.failed += unsent;
            break;
        }
        if due > now {
            std::thread::sleep(due - now);
        }
        let lag_ms = due.elapsed().as_secs_f64() * 1e3;
        out.max_lag_ms = out.max_lag_ms.max(lag_ms);
        out.late += (lag_ms > 1.0) as u64;
        let req = script.next();
        out.attempted += 1;
        let ok = match client.call(&req.line) {
            Ok(reply) => {
                reply.contains("\"ok\":true") && req.expect.is_none_or(|e| reply.contains(e))
            }
            Err(_) => false,
        };
        let ms = due.elapsed().as_secs_f64() * 1e3;
        out.failed += !ok as u64;
        if due < measure_from {
            continue;
        }
        match req.verb {
            Verb::Push => out.push_ms.push(ms),
            Verb::Read => out.read_ms.push(ms),
            Verb::Destroy => out.lifecycles += 1,
            Verb::Create => {}
        }
    }
    out.measured_s = measure_from.elapsed().as_secs_f64();
    // Leave no session behind: finish the lifecycle in flight, untimed.
    while script.mid_lifecycle() {
        let _ = client.call(&script.next().line);
    }
    out
}
