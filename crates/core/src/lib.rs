//! # rescue — *Datalog to the Rescue!*
//!
//! A Rust reproduction of Abiteboul, Abrams, Haar & Milo,
//! **“Diagnosis of Asynchronous Discrete Event Systems: Datalog to the
//! Rescue!”** (PODS 2005).
//!
//! A distributed telecom system is modeled as a safe Petri net whose
//! places and transitions are spread over autonomous peers; transitions
//! emit alarms collected asynchronously by a supervisor. *Diagnosis* asks
//! for every run of the system (configuration of the net's unfolding) that
//! explains an observed alarm sequence. The paper's thesis — reproduced
//! and validated here — is that this is a *database* problem: encode the
//! unfolding and the supervisor logic as a distributed Datalog (dDatalog)
//! program, and the classic Query-Sub-Query optimization, lifted to peers
//! (dQSQ), automatically materializes **exactly** the fragment of the
//! infinite unfolding that the best dedicated diagnosis algorithm \[8\]
//! builds (Theorem 4), while terminating with no ad-hoc bounds
//! (Proposition 1) and generalizing to richer observations (§4.4).
//!
//! ## Quick start
//!
//! ```
//! use rescue::{AlarmSeq, Diagnoser, Engine};
//!
//! // The paper's Figure 1 running example: two peers, seven places.
//! let net = rescue::petri::figure1();
//! let alarms = AlarmSeq::from_pairs(&[("b", "p1"), ("a", "p2"), ("c", "p1")]);
//!
//! // Diagnose with distributed QSQ over a simulated asynchronous network.
//! let report = Diagnoser::new(net)
//!     .engine(Engine::Dqsq)
//!     .diagnose(&alarms)
//!     .unwrap();
//! assert_eq!(report.diagnosis.len(), 1); // the shaded set of Figure 2
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`datalog`] | dDatalog: terms with function symbols, parser, the semi-naive engine |
//! | [`qsq`] | binding patterns and the QSQ rewriting (Figure 4) |
//! | [`net`] | the asynchronous peer network (simulated + threaded) |
//! | [`dqsq`] | distributed evaluation, dQSQ (Figure 5), peer-local rewrite protocol, Theorem 1 |
//! | [`petri`] | safe Petri nets, unfoldings, configurations (§2) |
//! | [`diagnosis`] | the §4.1/§4.2 encodings, oracle + dedicated \[8\] baseline, §4.4 extensions |

pub use rescue_datalog as datalog;
pub use rescue_diagnosis as diagnosis;
pub use rescue_dqsq as dqsq;
pub use rescue_net as net;
pub use rescue_petri as petri;
pub use rescue_qsq as qsq;

pub use rescue_diagnosis::{Alarm, AlarmSeq, Automaton, Diagnosis, DiagnosisSession, ExtendedSpec};
pub use rescue_petri::{NetBuilder, PetriNet};
pub use rescue_telemetry as telemetry;
pub use rescue_telemetry::Collector;

use rescue_diagnosis::pipeline::{
    diagnose_dqsq, diagnose_magic, diagnose_qsq, diagnose_seminaive, EngineReport, PipelineOptions,
};
use std::fmt;

/// Which machinery answers the diagnosis query.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Engine {
    /// Brute-force oracle on the unfolding (§2 definition; tiny inputs).
    Oracle,
    /// The dedicated incremental diagnoser of \[8\] (§4.3).
    Baseline,
    /// Semi-naive bottom-up Datalog with a depth bound.
    BottomUp,
    /// Centralized QSQ (Figure 4 route).
    Qsq,
    /// Magic Sets \[7\], the sibling optimization, evaluated centrally.
    Magic,
    /// Distributed QSQ over the simulated peer network (Figure 5 route).
    #[default]
    Dqsq,
}

/// Any failure along a diagnosis run.
#[derive(Clone, Debug)]
pub enum Error {
    Eval(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Eval(m) => write!(f, "diagnosis failed: {m}"),
        }
    }
}

impl std::error::Error for Error {}

/// The outcome of a [`Diagnoser`] run.
#[derive(Clone, Debug)]
pub struct Report {
    /// The diagnosis set: each configuration as the sorted Skolem terms of
    /// its events.
    pub diagnosis: Diagnosis,
    /// Distinct unfolding events materialized (engines that track it).
    pub events_materialized: Option<usize>,
    /// Messages exchanged (distributed engines).
    pub messages: Option<u64>,
    /// Facts derived beyond the base data (Datalog engines).
    pub facts_derived: Option<usize>,
    /// Dashboard rows, one per peer (dQSQ with
    /// [`Diagnoser::per_peer_trace`] only; empty otherwise).
    pub peer_stats: Vec<rescue_telemetry::merge::PeerStat>,
    /// Per-peer recordings for causal trace merging (same availability as
    /// `peer_stats`).
    pub recordings: Vec<(String, Collector)>,
}

impl Report {
    fn from_engine(r: EngineReport) -> Self {
        Report {
            diagnosis: r.diagnosis,
            events_materialized: Some(r.distinct_events),
            messages: r.net.map(|n| n.messages),
            facts_derived: Some(r.derived_facts),
            peer_stats: r.peer_stats,
            recordings: r.recordings,
        }
    }

    /// Causally merge the per-peer recordings into one multi-process
    /// Chrome trace (`None` unless the run used per-peer tracing).
    pub fn merged_trace(&self) -> Option<rescue_telemetry::merge::MergedTrace> {
        if self.recordings.is_empty() {
            return None;
        }
        Some(rescue_telemetry::merge::merge_traces(&self.recordings))
    }

    /// The plain-text per-peer dashboard (empty string unless the run
    /// used per-peer tracing).
    pub fn peer_table(&self) -> String {
        if self.peer_stats.is_empty() {
            return String::new();
        }
        rescue_telemetry::merge::peer_table(&self.peer_stats)
    }
}

/// High-level entry point: configure once, diagnose many sequences.
#[derive(Clone, Debug)]
pub struct Diagnoser {
    net: PetriNet,
    engine: Engine,
    options: PipelineOptions,
    /// Configuration-enumeration cap for the oracle engine.
    oracle_cap: usize,
}

impl Diagnoser {
    pub fn new(net: PetriNet) -> Self {
        Diagnoser {
            net,
            engine: Engine::default(),
            options: PipelineOptions::default(),
            oracle_cap: 1_000_000,
        }
    }

    /// Select the diagnosis engine (default: [`Engine::Dqsq`]).
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Override the evaluation budget of the Datalog engines.
    pub fn budget(mut self, budget: rescue_datalog::EvalBudget) -> Self {
        self.options.budget = budget;
        self
    }

    /// Record spans, counters and message flows of every run into
    /// `collector` (export with [`telemetry::export`]).
    pub fn collector(mut self, collector: Collector) -> Self {
        self.options.collector = collector;
        self
    }

    /// Give every dQSQ peer its own namespaced collector; the [`Report`]
    /// then carries per-peer dashboard rows and recordings that
    /// [`Report::merged_trace`] aligns into one causally-consistent
    /// multi-process Chrome trace. Only the dQSQ engine honors this.
    pub fn per_peer_trace(mut self, enabled: bool) -> Self {
        self.options.per_peer_trace = enabled;
        self
    }

    /// The net under diagnosis.
    pub fn net(&self) -> &PetriNet {
        &self.net
    }

    /// Diagnose one alarm sequence.
    pub fn diagnose(&self, alarms: &AlarmSeq) -> Result<Report, Error> {
        match self.engine {
            Engine::Oracle => {
                let d = rescue_diagnosis::diagnose_oracle(&self.net, alarms, self.oracle_cap);
                Ok(Report {
                    diagnosis: d,
                    events_materialized: None,
                    messages: None,
                    facts_derived: None,
                    peer_stats: Vec::new(),
                    recordings: Vec::new(),
                })
            }
            Engine::Baseline => {
                let (d, stats) = rescue_diagnosis::diagnose_baseline(&self.net, alarms);
                Ok(Report {
                    diagnosis: d,
                    events_materialized: Some(stats.events),
                    messages: None,
                    facts_derived: None,
                    peer_stats: Vec::new(),
                    recordings: Vec::new(),
                })
            }
            Engine::BottomUp => diagnose_seminaive(&self.net, alarms, &self.options)
                .map(Report::from_engine)
                .map_err(|e| Error::Eval(e.to_string())),
            Engine::Qsq => diagnose_qsq(&self.net, alarms, &self.options)
                .map(Report::from_engine)
                .map_err(|e| Error::Eval(e.to_string())),
            Engine::Magic => diagnose_magic(&self.net, alarms, &self.options)
                .map(Report::from_engine)
                .map_err(|e| Error::Eval(e.to_string())),
            Engine::Dqsq => diagnose_dqsq(&self.net, alarms, &self.options)
                .map(Report::from_engine)
                .map_err(|e| Error::Eval(e.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_engines_agree_on_the_running_example() {
        let net = petri::figure1();
        let alarms = AlarmSeq::from_pairs(&[("b", "p1"), ("a", "p2"), ("c", "p1")]);
        let mut results = Vec::new();
        for engine in [
            Engine::Oracle,
            Engine::Baseline,
            Engine::BottomUp,
            Engine::Qsq,
            Engine::Magic,
            Engine::Dqsq,
        ] {
            let report = Diagnoser::new(net.clone())
                .engine(engine)
                .diagnose(&alarms)
                .unwrap();
            results.push((engine, report.diagnosis));
        }
        for w in results.windows(2) {
            assert_eq!(w[0].1, w[1].1, "{:?} vs {:?}", w[0].0, w[1].0);
        }
        assert_eq!(results[0].1.len(), 1);
    }

    #[test]
    fn theorem4_surface_check() {
        let net = petri::figure1();
        let alarms = AlarmSeq::from_pairs(&[("b", "p1"), ("a", "p2"), ("c", "p1")]);
        let base = Diagnoser::new(net.clone())
            .engine(Engine::Baseline)
            .diagnose(&alarms)
            .unwrap();
        let dqsq = Diagnoser::new(net)
            .engine(Engine::Dqsq)
            .diagnose(&alarms)
            .unwrap();
        assert_eq!(base.events_materialized, dqsq.events_materialized);
        assert!(dqsq.messages.unwrap() > 0);
    }
}
