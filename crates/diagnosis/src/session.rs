//! Online (incremental) diagnosis: the supervisor absorbs alarms one at a
//! time and keeps the explanation set current after each.
//!
//! The batch route ([`crate::pipeline::diagnose_seminaive`]) rebuilds and
//! re-saturates the whole §4.2 program for every alarm sequence. A
//! [`DiagnosisSession`] instead owns one resumable fixpoint
//! ([`rescue_datalog::EvalSession`]) over an alarm-independent program,
//! made by the one supervisor generator
//! ([`crate::extensions::extended_program`]) from one *empty* chain
//! automaton per **net** peer:
//!
//! * the unfolding rules and `PetriNet` facts, the `TransInConf` and
//!   `Cut` closures, and one extension rule per net peer × preset
//!   arity (the batch program has them per *alarm* peer; a session cannot
//!   know in advance which peers will raise alarms, and silent peers'
//!   state columns simply never advance). For the same reason the
//!   `Gate<k>` tables of the greedy-interleaving reduction rank the net
//!   peers in net order, where the batch program ranks alarm peers;
//! * **no** `Diag` rule — its body pins the *current* final-state
//!   constants, which change with every alarm. The session reads the
//!   answer off `ConfigPrefixes`/`TransInConf` directly instead
//!   (`Diag` is a join of those two with constants, so this is the same
//!   computation, done once per query instead of being re-derived).
//!
//! [`push_alarm`](DiagnosisSession::push_alarm) extends the pushing
//! peer's chain by one transition — one `AlarmSeq` fact from `st_{p}_{m}`
//! to `st_{p}_{m+1}` — raises the term-depth bound by one alarm's worth
//! (the deferred frontier recorded by the [`EvalSession`] replays exactly
//! the unfolding slice the new bound admits), and resumes the fixpoint —
//! so each alarm costs a delta join, not a re-saturation.

use crate::alarm::{Alarm, AlarmSeq};
use crate::direct::Diagnosis;
use crate::encode::names;
use crate::extensions::{alarm_fact, state_constant, supervisor_program, Automaton, ExtendedSpec};
use crate::supervisor::sup_names;
use rescue_datalog::{
    Database, EvalBudget, EvalError, EvalOptions, EvalSession, EvalStats, Peer, PredId, Rule,
    TermId, TermStore,
};
use rescue_petri::{PeerId, PetriNet};
use rescue_telemetry::Collector;
use rustc_hash::{FxHashMap, FxHashSet};
use std::time::Instant;

/// A streaming diagnosis engine: feed alarms, read explanations.
///
/// A clone is an independent session at the same point, with its own
/// [`TermStore`] and database; it shares the immutable program and
/// compiled plans with the original (see [`EvalSession`]). Cloning a
/// zero-alarm session is how [`SessionManager`](crate::SessionManager)
/// makes a net's sessions without rebuilding them.
#[derive(Clone)]
pub struct DiagnosisSession {
    store: TermStore,
    eval: EvalSession,
    supervisor: String,
    /// Net peer names, in state-vector order (one `ConfigPrefixes` column
    /// each).
    peers: Vec<String>,
    /// Alarms pushed so far, per peer.
    counts: Vec<usize>,
    /// Current final state per peer (`st_{pj}_{counts[j]}`).
    finals: Vec<TermId>,
    cp_pred: PredId,
    tic_pred: PredId,
    /// Total alarms pushed (drives the depth bound, like `|A|` in batch).
    n_alarms: usize,
    /// Set once an alarm from a peer unknown to the net arrives: no
    /// configuration can ever explain the sequence after that.
    unexplainable: bool,
    collector: Collector,
}

impl DiagnosisSession {
    /// Start a session for `net` with the supervisor peer named
    /// `supervisor` (must not collide with a net peer).
    pub fn new(net: &PetriNet, supervisor: &str) -> Result<Self, EvalError> {
        Self::with_budget(net, supervisor, EvalBudget::default())
    }

    /// Like [`new`](Self::new) with explicit fact/iteration limits; the
    /// term-depth bound is managed by the session and overrides whatever
    /// `base` carries.
    pub fn with_budget(
        net: &PetriNet,
        supervisor: &str,
        base: EvalBudget,
    ) -> Result<Self, EvalError> {
        let peers: Vec<String> = (0..net.num_peers())
            .map(|i| net.peer_name(PeerId(i as u32)).to_owned())
            .collect();
        let spec = ExtendedSpec {
            patterns: peers
                .iter()
                .map(|p| (p.clone(), Automaton::chain(&[])))
                .collect(),
            hidden: Vec::new(),
            max_events: 0,
        };
        let mut store = TermStore::new();
        let prog = supervisor_program(net, &spec, supervisor, &mut store, false);
        let finals: Vec<TermId> = peers
            .iter()
            .map(|p| state_constant(&mut store, p, 0))
            .collect();

        let p0 = Peer(store.sym(supervisor));
        let cp_pred = PredId {
            name: store.sym(sup_names::CONFIG_PREFIXES),
            peer: p0,
        };
        let tic_pred = PredId {
            name: store.sym(sup_names::TRANS_IN_CONF),
            peer: p0,
        };

        // Zero alarms: the batch bound 2·(|A|+1)+2 at |A| = 0.
        let budget = EvalBudget {
            max_term_depth: Some(4),
            depth_policy: rescue_datalog::DepthPolicy::Skip,
            ..base
        };
        let eval = EvalSession::new(prog, &mut store, budget)?;
        let counts = vec![0; peers.len()];
        Ok(DiagnosisSession {
            store,
            eval,
            supervisor: supervisor.to_owned(),
            peers,
            counts,
            finals,
            cp_pred,
            tic_pred,
            n_alarms: 0,
            unexplainable: false,
            collector: Collector::disabled(),
        })
    }

    /// Route the session's own per-alarm telemetry (and the underlying
    /// fixpoint's spans and counters) to `collector`.
    pub fn set_collector(&mut self, collector: Collector) {
        self.eval.set_options(EvalOptions {
            collector: collector.clone(),
            ..self.eval.options().clone()
        });
        self.collector = collector;
    }

    /// Toggle plan caching across [`push_alarm`](Self::push_alarm) resumes
    /// (on by default). A pure performance knob: diagnoses are identical
    /// either way; off forces every resume to recompile its rule plans,
    /// which exists mainly as the control arm for benchmarks.
    pub fn set_plan_cache(&mut self, on: bool) {
        self.eval.set_options(EvalOptions {
            plan_cache: on,
            ..self.eval.options().clone()
        });
    }

    /// Absorb one alarm and re-saturate; returns the diagnosis of the
    /// whole sequence pushed so far.
    pub fn push_alarm(&mut self, alarm: &Alarm) -> Result<Diagnosis, EvalError> {
        self.n_alarms += 1;
        let traced = self.collector.is_enabled();
        let start = traced.then(Instant::now);
        let facts_before = if traced {
            self.eval.database().total_facts()
        } else {
            0
        };
        let mut alarm_span = traced.then(|| {
            self.collector.span(
                format!("push_alarm {}@{}", alarm.symbol, alarm.peer),
                "session",
            )
        });
        // An unknown peer's alarm needs no fact: it poisons the sequence.
        if let Some(fact) = self.chain_step(alarm) {
            // One more alarm admits one more unfolding layer: the batch
            // driver's 2·(|A|+1)+2.
            let depth = 2 * (self.n_alarms as u32 + 1) + 2;
            self.eval.set_depth_bound(&self.store, depth);
            self.eval.resume(
                &mut self.store,
                [(fact.head.pred, fact.head.args.into_boxed_slice())],
            )?;
        }
        if traced {
            let facts_delta = self.eval.database().total_facts() - facts_before;
            if let Some(sp) = alarm_span.as_mut() {
                sp.arg("facts_delta", facts_delta as u64);
            }
            drop(alarm_span);
            self.collector.count("session.alarms", 1);
            self.collector
                .count("session.facts_delta", facts_delta as u64);
            if let Some(t0) = start {
                self.collector
                    .record("session.alarm_latency_us", t0.elapsed().as_micros() as u64);
            }
            // One time-series point per absorbed alarm (a no-op unless a
            // sampler ring is attached): per-alarm latency and growth
            // trends fall out of the deltas between consecutive points.
            self.collector.sample_series(
                "alarm",
                &[
                    ("alarms", self.n_alarms as u64),
                    ("facts_total", self.eval.database().total_facts() as u64),
                    ("facts_delta", facts_delta as u64),
                ],
            );
        }
        Ok(self.diagnosis())
    }

    /// A postmortem snapshot of the session's collector — the event-ring
    /// tail, the counters and histograms, and the per-rule profile of
    /// every fixpoint that completed before the failure — as a
    /// self-contained `rescue-flight-v1` JSON document. Call it from the
    /// error arm of [`push_alarm`](Self::push_alarm) (budget exhaustion,
    /// depth errors) before surfacing the error. Valid (if empty) even
    /// when the session was never given an enabled collector, so error
    /// paths need no gating.
    pub fn flight_dump(&self, reason: &str) -> String {
        self.collector.flight_dump(reason)
    }

    /// Push every alarm of `seq` in order; returns the final diagnosis.
    /// Batched: the whole sequence is absorbed by **one** fixpoint resume
    /// (see [`push_batch`](Self::push_batch)).
    pub fn push_all(&mut self, seq: &AlarmSeq) -> Result<Diagnosis, EvalError> {
        self.push_batch(&seq.alarms)
    }

    /// Absorb a batch of alarms with a single fixpoint resume: every
    /// alarm fact is queued, the term-depth bound is raised once to what
    /// the whole batch admits, and one resume saturates the lot. The
    /// resume takes the same plan-cache fast-path as a repeated
    /// [`push_alarm`](Self::push_alarm) (plans compile once per session,
    /// not once per batch), and the resulting diagnosis is byte-identical
    /// to pushing the alarms one at a time — the model is monotone and
    /// the deferred-frontier replay makes depth-bound growth
    /// order-insensitive.
    ///
    /// This is the ingestion path of batched `push` payloads in the
    /// multi-tenant server (`SessionManager`): per-alarm pushes pay one
    /// delta join each, batches pay one for the whole payload.
    pub fn push_batch(&mut self, alarms: &[Alarm]) -> Result<Diagnosis, EvalError> {
        if alarms.is_empty() {
            return Ok(self.diagnosis());
        }
        let traced = self.collector.is_enabled();
        let start = traced.then(Instant::now);
        let facts_before = if traced {
            self.eval.database().total_facts()
        } else {
            0
        };
        let mut batch_span = traced.then(|| {
            self.collector
                .span(format!("push_batch {}", alarms.len()), "session")
        });
        let mut queued = 0usize;
        for alarm in alarms {
            self.n_alarms += 1;
            if let Some(fact) = self.chain_step(alarm) {
                self.eval
                    .push_fact(fact.head.pred, fact.head.args.into_boxed_slice());
                queued += 1;
            }
        }
        if queued > 0 {
            // The batch admits one unfolding layer per alarm, exactly as
            // |batch| individual pushes would (the bound depends only on
            // the total count, so one raise covers the lot).
            let depth = 2 * (self.n_alarms as u32 + 1) + 2;
            self.eval.set_depth_bound(&self.store, depth);
            self.eval.resume(&mut self.store, [])?;
        }
        if traced {
            let facts_delta = self.eval.database().total_facts() - facts_before;
            if let Some(sp) = batch_span.as_mut() {
                sp.arg("alarms", alarms.len() as u64);
                sp.arg("facts_delta", facts_delta as u64);
            }
            drop(batch_span);
            self.collector.count("session.alarms", alarms.len() as u64);
            self.collector.count("session.batches", 1);
            self.collector
                .count("session.facts_delta", facts_delta as u64);
            if let Some(t0) = start {
                self.collector
                    .record("session.batch_latency_us", t0.elapsed().as_micros() as u64);
            }
            self.collector.sample_series(
                "batch",
                &[
                    ("alarms", self.n_alarms as u64),
                    ("facts_total", self.eval.database().total_facts() as u64),
                    ("facts_delta", facts_delta as u64),
                ],
            );
        }
        Ok(self.diagnosis())
    }

    /// Extend the pushing peer's chain automaton by `alarm`: the
    /// `AlarmSeq` fact of its next transition. `None` for a peer the net
    /// does not know — no extension rule can ever explain its alarm, so it
    /// poisons the sequence and the model need not grow at all.
    fn chain_step(&mut self, alarm: &Alarm) -> Option<Rule> {
        let Some(j) = self.peers.iter().position(|p| *p == alarm.peer) else {
            self.unexplainable = true;
            return None;
        };
        let m = self.counts[j];
        let fact = alarm_fact(
            &mut self.store,
            &self.supervisor,
            &alarm.peer,
            m,
            &alarm.symbol,
            m + 1,
        );
        self.counts[j] += 1;
        self.finals[j] = state_constant(&mut self.store, &alarm.peer, m + 1);
        Some(fact)
    }

    /// The diagnosis of the alarms pushed so far. Zero alarms are
    /// explained by the empty configuration; a sequence containing an
    /// alarm from an unknown peer by nothing.
    pub fn diagnosis(&self) -> Diagnosis {
        if self.unexplainable {
            return Diagnosis::from_sets(Vec::new());
        }
        let db = self.eval.database();
        let k = self.peers.len();
        // Complete explanations: ConfigPrefixes rows whose state vector
        // equals the current final states (what the batch Diag rule pins).
        let mut by_id: FxHashMap<TermId, Vec<String>> = FxHashMap::default();
        if let Some(rel) = db.relation(self.cp_pred) {
            for row in rel.rows() {
                if row[3..3 + k] == self.finals[..] {
                    by_id.entry(row[0]).or_default();
                }
            }
        }
        // Their events.
        if let Some(rel) = db.relation(self.tic_pred) {
            for row in rel.rows() {
                if let Some(events) = by_id.get_mut(&row[0]) {
                    events.push(self.store.display(row[1]));
                }
            }
        }
        Diagnosis::from_sets(by_id.into_values().collect())
    }

    /// Total alarms pushed.
    pub fn len(&self) -> usize {
        self.n_alarms
    }

    pub fn is_empty(&self) -> bool {
        self.n_alarms == 0
    }

    /// The materialized database (for accounting and provenance).
    pub fn database(&self) -> &Database {
        self.eval.database()
    }

    /// Aggregate engine counters over every resume so far.
    pub fn total_stats(&self) -> EvalStats {
        self.eval.total_stats().clone()
    }

    /// Distinct unfolding event nodes materialized so far (the Theorem 4
    /// metric, as reported by the batch drivers).
    pub fn distinct_events(&self) -> usize {
        let mut events: FxHashSet<String> = FxHashSet::default();
        for (pred, rel) in self.eval.database().iter() {
            if names::is_trans(self.store.sym_str(pred.name)) {
                for row in rel.rows() {
                    events.insert(self.store.display(row[1]));
                }
            }
        }
        events.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{diagnose_seminaive, PipelineOptions};
    use rescue_petri::figure1;

    fn batch(net: &PetriNet, alarms: &AlarmSeq) -> Diagnosis {
        diagnose_seminaive(net, alarms, &PipelineOptions::default())
            .unwrap()
            .diagnosis
    }

    #[test]
    fn empty_session_is_explained_by_the_empty_configuration() {
        let net = figure1();
        let s = DiagnosisSession::new(&net, "p0").unwrap();
        assert_eq!(s.diagnosis().configurations, vec![Vec::<String>::new()]);
    }

    #[test]
    fn incremental_matches_batch_at_every_prefix() {
        let net = figure1();
        for pairs in [
            vec![("b", "p1"), ("a", "p2"), ("c", "p1")],
            vec![("b", "p1"), ("c", "p1"), ("a", "p2")],
            vec![("c", "p1"), ("b", "p1"), ("a", "p2")],
            vec![("e", "p2"), ("a", "p2")],
        ] {
            let alarms = AlarmSeq::from_pairs(&pairs);
            let mut session = DiagnosisSession::new(&net, "p0").unwrap();
            for (i, a) in alarms.alarms.iter().enumerate() {
                let got = session.push_alarm(a).unwrap();
                let prefix = AlarmSeq::new(alarms.alarms[..=i].to_vec());
                let want = batch(&net, &prefix);
                assert_eq!(got, want, "diverged on prefix {prefix}");
            }
        }
    }

    #[test]
    fn incremental_agrees_with_the_oracle() {
        let net = figure1();
        let alarms = AlarmSeq::from_pairs(&[("b", "p1"), ("a", "p2"), ("c", "p1")]);
        let mut session = DiagnosisSession::new(&net, "p0").unwrap();
        let got = session.push_all(&alarms).unwrap();
        let want = crate::direct::diagnose_oracle(&net, &alarms, 100_000);
        assert_eq!(got, want);
    }

    #[test]
    fn unknown_peer_poisons_the_sequence() {
        let net = figure1();
        let mut session = DiagnosisSession::new(&net, "p0").unwrap();
        session
            .push_alarm(&Alarm {
                symbol: "b".into(),
                peer: "p1".into(),
            })
            .unwrap();
        let d = session
            .push_alarm(&Alarm {
                symbol: "z".into(),
                peer: "nowhere".into(),
            })
            .unwrap();
        assert!(d.is_empty());
        // Matches the batch semantics for the same sequence.
        let alarms = AlarmSeq::from_pairs(&[("b", "p1"), ("z", "nowhere")]);
        assert_eq!(d, batch(&net, &alarms));
    }

    #[test]
    fn traced_session_counts_one_span_and_latency_sample_per_alarm() {
        let net = figure1();
        let alarms = AlarmSeq::from_pairs(&[("b", "p1"), ("a", "p2"), ("c", "p1")]);
        let collector = Collector::enabled();
        let mut session = DiagnosisSession::new(&net, "p0").unwrap();
        session.set_collector(collector.clone());
        let facts_at_start = session.database().total_facts();
        for a in &alarms.alarms {
            session.push_alarm(a).unwrap();
        }

        let snap = collector.snapshot();
        assert_eq!(snap.counter("session.alarms"), alarms.len() as u64);
        // Per-push database growth sums to the total growth exactly.
        assert_eq!(
            snap.counter("session.facts_delta"),
            (session.database().total_facts() - facts_at_start) as u64
        );
        let lat = snap.histogram("session.alarm_latency_us");
        assert_eq!(lat.count, alarms.len() as u64);
        // The underlying fixpoint resumes were traced through the same
        // collector: every span opened was closed.
        let trace = rescue_telemetry::export::chrome_trace(&collector);
        let summary = rescue_telemetry::json::validate_trace(&trace).unwrap();
        assert_eq!(summary.spans_opened, summary.spans_closed);
        assert!(summary.spans_opened > alarms.len());
    }

    #[test]
    fn push_all_equals_per_alarm_pushes_byte_for_byte() {
        let net = figure1();
        for pairs in [
            vec![("b", "p1"), ("a", "p2"), ("c", "p1")],
            vec![("c", "p1"), ("b", "p1"), ("a", "p2")],
            // An unknown peer inside the batch poisons it, as it would
            // one-at-a-time.
            vec![("b", "p1"), ("z", "nowhere"), ("a", "p2")],
        ] {
            let alarms = AlarmSeq::from_pairs(&pairs);
            let mut batched = DiagnosisSession::new(&net, "p0").unwrap();
            let got = batched.push_all(&alarms).unwrap();
            let mut one_by_one = DiagnosisSession::new(&net, "p0").unwrap();
            let mut want = one_by_one.diagnosis();
            for a in &alarms.alarms {
                want = one_by_one.push_alarm(a).unwrap();
            }
            assert_eq!(got, want, "batched diverged on {alarms}");
            assert_eq!(
                batched.database().total_facts(),
                one_by_one.database().total_facts(),
                "batched model diverged on {alarms}"
            );
        }
    }

    #[test]
    fn push_all_is_one_resume_and_hits_the_plan_cache() {
        let net = figure1();
        let alarms = AlarmSeq::from_pairs(&[("b", "p1"), ("a", "p2"), ("c", "p1")]);
        let collector = Collector::enabled();
        let mut session = DiagnosisSession::new(&net, "p0").unwrap();
        session.set_collector(collector.clone());
        let warm = session.total_stats().plans_compiled;
        assert!(warm > 0, "session construction compiles the plans once");
        session.push_all(&alarms).unwrap();
        // The batch re-entered eval exactly once and on the resume
        // fast-path: zero plans recompiled, one batch span recorded.
        assert_eq!(
            session.total_stats().plans_compiled,
            warm,
            "a batched push_all must hit the session plan cache"
        );
        let snap = collector.snapshot();
        assert_eq!(snap.counter("session.batches"), 1);
        assert_eq!(snap.counter("session.alarms"), alarms.len() as u64);
        assert_eq!(snap.histogram("session.batch_latency_us").count, 1);
    }

    #[test]
    fn session_never_rederives_the_saturated_prefix() {
        // The headline property: pushing alarm i must not re-fire the
        // joins that saturated alarms 1..i-1. Duplicate derivations stay
        // near zero while a from-scratch loop re-pays the whole prefix.
        let net = figure1();
        let alarms = AlarmSeq::from_pairs(&[("b", "p1"), ("a", "p2"), ("c", "p1")]);
        let mut session = DiagnosisSession::new(&net, "p0").unwrap();
        session.push_all(&alarms).unwrap();
        let inc = session.total_stats();

        let mut scratch_firings = 0usize;
        for i in 0..alarms.len() {
            let prefix = AlarmSeq::new(alarms.alarms[..=i].to_vec());
            let r = diagnose_seminaive(&net, &prefix, &PipelineOptions::default()).unwrap();
            scratch_firings += r.stats.rule_firings;
        }
        assert!(
            inc.rule_firings < scratch_firings,
            "incremental should fire fewer joins: {} vs {}",
            inc.rule_firings,
            scratch_firings
        );
    }
}
