//! The five timed workloads. This file calls only the façades a user
//! calls: `diagnose_qsq`, `diagnose_dqsq`, `DiagnosisSession`,
//! `rescue_server::spawn`, and wire text through [`crate::client`].
//! Every op's answer is checked against the instance's reference.

use crate::client::{drive, Arrivals, Client, ConnResult, Script, Stream};
use crate::cpu::{self, Placement};
use crate::inputs::Instance;
use rescue::datalog::EvalStats;
use rescue::diagnosis::{diagnose_dqsq, diagnose_qsq, EngineReport, PipelineOptions};
use rescue::net::NetStats;
use rescue::petri::PetriNet;
use rescue::DiagnosisSession;
use rescue_server::{ServerConfig, ServerHandle, ServerReport};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    Qsq,
    Dqsq,
}

/// The counts that must repeat exactly, pass after pass and run after run.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ExactCounts {
    pub eval: [usize; 8],
    pub net: [u64; 3],
}

impl ExactCounts {
    pub fn of(stats: &EvalStats, net: Option<&NetStats>) -> Self {
        ExactCounts {
            eval: [
                stats.candidates_scanned,
                stats.facts_derived,
                stats.index_probes,
                stats.iterations,
                stats.rule_firings,
                stats.duplicate_derivations,
                stats.sip_filtered,
                stats.plans_compiled,
            ],
            net: net.map_or([0; 3], |n| [n.messages, n.bytes, n.sim_steps]),
        }
    }
}

/// What a timed phase measured.
#[derive(Default)]
pub struct Timed {
    pub attempted: u64,
    pub failed: u64,
    pub wall_s: f64,
    pub passes: u32,
    /// Latency of every primary op (a diagnosis, or one alarm push).
    pub op_ms: Vec<f64>,
    /// Wall of each whole unit of the first pass (one batch op, or one
    /// stream's create + pushes + drop): the traced run's façade reference.
    pub unit_ms: Vec<f64>,
}

pub fn facade(engine: Engine, inst: &Instance) -> Result<EngineReport, String> {
    let opts = PipelineOptions::default();
    match engine {
        Engine::Qsq => diagnose_qsq(&inst.net, &inst.alarms, &opts).map_err(|e| e.to_string()),
        Engine::Dqsq => diagnose_dqsq(&inst.net, &inst.alarms, &opts).map_err(|e| e.to_string()),
    }
}

/// Closed loop, one thread: whole passes over `instances` until `seconds`
/// have gone by (at least one pass), so two commits do identical work per
/// pass and differ only in how many passes fit.
pub fn batch(engine: Engine, instances: &[Instance], seconds: f64) -> Timed {
    let mut out = Timed::default();
    let mut first_pass: Vec<ExactCounts> = Vec::with_capacity(instances.len());
    let start = Instant::now();
    loop {
        for (i, inst) in instances.iter().enumerate() {
            let t = Instant::now();
            let report = facade(engine, inst);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            out.op_ms.push(ms);
            out.attempted += 1;
            let ok = match report {
                Ok(r) => {
                    let counts = ExactCounts::of(&r.stats, r.net.as_ref());
                    if out.passes == 0 {
                        first_pass.push(counts);
                        out.unit_ms.push(ms);
                    } else if counts != first_pass[i] {
                        eprintln!("instance {i}: engine counts changed between passes");
                        out.failed += 1;
                    }
                    r.diagnosis == *inst.reference()
                }
                Err(e) => {
                    eprintln!("instance {i}: {e}");
                    false
                }
            };
            out.failed += !ok as u64;
        }
        out.passes += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

/// Closed loop, in-process: per stream a fresh session and one
/// `push_alarm` per alarm, each answer checked against the prefix's
/// reference. The op is the push; creating and dropping the session are
/// in the wall.
pub fn online(streams: &[Instance], seconds: f64) -> Timed {
    let mut out = Timed::default();
    let start = Instant::now();
    loop {
        for (i, inst) in streams.iter().enumerate() {
            let unit = Instant::now();
            let mut session = match DiagnosisSession::new(&inst.net, crate::layers::SUPERVISOR) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("stream {i}: create: {e}");
                    out.attempted += inst.alarms.len() as u64;
                    out.failed += inst.alarms.len() as u64;
                    continue;
                }
            };
            for (k, alarm) in inst.alarms.alarms.iter().enumerate() {
                let t = Instant::now();
                let d = session.push_alarm(alarm);
                out.op_ms.push(t.elapsed().as_secs_f64() * 1e3);
                out.attempted += 1;
                out.failed += !matches!(&d, Ok(d) if *d == inst.prefix_refs[k]) as u64;
            }
            // Freeing the model is part of what a stream costs its host.
            drop(session);
            if out.passes == 0 {
                out.unit_ms.push(unit.elapsed().as_secs_f64() * 1e3);
            }
        }
        out.passes += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

/// An in-process `rescue-server` on an ephemeral localhost port.
pub struct Server {
    handle: ServerHandle,
    /// None where the threads could not be placed (see [`crate::cpu`]).
    placement: Option<&'static Placement>,
}

impl Server {
    /// The server's threads get every CPU but the first; the calling thread,
    /// and the generator threads it spawns later, stay on the first.
    pub fn spawn(nets: Vec<(String, PetriNet)>, collector: rescue::Collector) -> Server {
        // Threads inherit the CPUs of the thread that spawns them.
        let placement = cpu::apart().filter(|p| cpu::confine(&p.server));
        let handle = rescue_server::spawn(ServerConfig {
            nets,
            collector,
            ..Default::default()
        })
        .expect("bind an ephemeral localhost port");
        if let Some(p) = placement {
            cpu::confine(&p.generator);
        }
        Server { handle, placement }
    }

    pub fn placement(&self) -> String {
        match self.placement {
            Some(p) => format!(
                "generator on cpus {:?}, server on cpus {:?}",
                p.generator.cpus(),
                p.server.cpus()
            ),
            None => "unpinned".to_owned(),
        }
    }

    pub fn connect(&self) -> Client {
        Client::connect(self.handle.addr).expect("connect to the in-process server")
    }

    /// Send `shutdown`, wait for every server thread to end.
    pub fn shutdown(self) -> ServerReport {
        let mut c = self.connect();
        c.call("{\"op\":\"shutdown\"}")
            .expect("the server acknowledges shutdown");
        drop(c);
        self.handle.join().expect("the server thread exits cleanly")
    }
}

/// One connection's share of a serving run.
pub struct Lane<'a> {
    pub streams: &'a [Stream],
    /// Session-id prefix; distinct per lane.
    pub tag: &'a str,
    /// Send a `diagnosis` read before each destroy.
    pub read: bool,
    /// None = closed loop; Some(gap) = open loop, a request every `gap` on
    /// average.
    pub mean_gap: Option<Duration>,
}

/// Untimed start of every serving run: threads settle on their cores and
/// the first sessions fault their memory in. The first second's p99 read
/// up to twice that of the seconds after it.
pub const RAMP: Duration = Duration::from_secs(1);

/// Run every lane on its own connection and thread for [`RAMP`] and then
/// `seconds` of measurement; `seed` fixes the open-loop lanes' arrival times.
pub fn serve(server: &Server, lanes: &[Lane<'_>], seconds: f64, seed: u64) -> Vec<ConnResult> {
    let mut clients: Vec<Client> = lanes.iter().map(|_| server.connect()).collect();
    let start = Instant::now();
    let measure_from = start + RAMP;
    let end = measure_from + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter()
            .zip(clients.iter_mut())
            .enumerate()
            .map(|(i, (lane, client))| {
                scope.spawn(move || {
                    let mut script = Script::new(lane.streams, lane.tag, lane.read);
                    let arrivals = lane.mean_gap.map(|mean_gap| Arrivals {
                        mean_gap,
                        seed,
                        lane: i as u64,
                        sent: 0,
                    });
                    drive(client, &mut script, arrivals, start, measure_from, end)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a load-generator thread panicked"))
            .collect()
    })
}
