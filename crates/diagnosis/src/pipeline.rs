//! End-to-end diagnosis drivers for the Datalog route, one per engine,
//! with the materialization accounting behind the Theorem 4 experiments.
//!
//! * [`diagnose_seminaive`] — bottom-up over the full program; requires a
//!   depth bound (the program's model is infinite — the paper's motivation
//!   for QSQ);
//! * [`diagnose_qsq`] — the QSQ rewriting evaluated centrally; terminates
//!   **without any bound** (Proposition 1);
//! * [`diagnose_dqsq`] — the same rewriting executed by the distributed
//!   runtime, peers exchanging tuples over the simulated network.
//!
//! Each driver reports the *distinct unfolding nodes it materialized*
//! (events = first-column terms of any `Trans1`/`Trans2`-derived relation,
//! conditions likewise from `Places`), the quantity Theorem 4 compares
//! with the dedicated diagnoser of \[8\], and the distinct explanation ids
//! of `ConfigPrefixes`, the supervisor's counterpart of \[8\]'s states.

use crate::alarm::AlarmSeq;
use crate::direct::Diagnosis;
use crate::encode::names;
use crate::supervisor::{diagnosis_program, extract_diagnosis, extract_from_db, sup_names};
use rescue_datalog::{
    seminaive_opts, Database, EvalBudget, EvalError, EvalOptions, EvalStats, ExportedTerm, TermId,
    TermStore,
};
use rescue_dqsq::{dqsq_distributed, DistOptions, DqsqError};
use rescue_net::NetStats;
use rescue_petri::PetriNet;
use rescue_qsq::{
    base_name, classify_name, magic_answer, qsq_answer_traced_opts, QsqError, RelKind, Scheme,
};
use rescue_telemetry::Collector;
use rustc_hash::FxHashSet;

/// Options shared by the pipeline drivers.
#[derive(Clone, Debug)]
pub struct PipelineOptions {
    /// Engine budget. For the bottom-up driver a term-depth bound is
    /// derived from the alarm count and merged in automatically.
    pub budget: EvalBudget,
    pub sim: rescue_net::sim::SimConfig,
    /// Supervisor peer name.
    pub supervisor: &'static str,
    /// Telemetry sink threaded through the engine, transport and drivers
    /// (disabled by default).
    pub collector: Collector,
    /// Give every dQSQ peer its own namespaced [`Collector`]. The report
    /// then carries the per-peer recordings (for causal trace merging)
    /// and the dashboard rows. Only the distributed driver honors this.
    pub per_peer_trace: bool,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            budget: EvalBudget::default(),
            sim: rescue_net::sim::SimConfig::default(),
            supervisor: "supervisor",
            collector: Collector::disabled(),
            per_peer_trace: false,
        }
    }
}

impl PipelineOptions {
    /// Default engine options recording into this pipeline's collector.
    fn eval_options(&self) -> EvalOptions {
        EvalOptions {
            collector: self.collector.clone(),
            ..Default::default()
        }
    }
}

/// What one engine did on one diagnosis problem.
#[derive(Clone, Debug)]
pub struct EngineReport {
    pub diagnosis: Diagnosis,
    /// Total facts materialized beyond the given base facts.
    pub derived_facts: usize,
    /// Distinct unfolding event nodes materialized (Theorem 4 metric).
    pub distinct_events: usize,
    /// Distinct unfolding condition nodes materialized.
    pub distinct_conditions: usize,
    /// Distinct `ConfigPrefixes` ids (explanation prefixes) materialized.
    pub explanation_ids: usize,
    /// Engine counters (summed over peers for dQSQ).
    pub stats: EvalStats,
    /// Network statistics (dQSQ only).
    pub net: Option<NetStats>,
    /// Dashboard rows, one per peer (dQSQ with
    /// [`PipelineOptions::per_peer_trace`] only; empty otherwise).
    pub peer_stats: Vec<rescue_telemetry::merge::PeerStat>,
    /// The raw per-peer recordings, for causal trace merging
    /// (same availability as `peer_stats`).
    pub recordings: Vec<(String, Collector)>,
}

impl EngineReport {
    /// Causally merge the per-peer recordings into one multi-process
    /// Chrome trace. `None` unless the run populated [`Self::recordings`].
    pub fn merged_trace(&self) -> Option<rescue_telemetry::merge::MergedTrace> {
        if self.recordings.is_empty() {
            return None;
        }
        Some(rescue_telemetry::merge::merge_traces(&self.recordings))
    }
}

fn is_explanation_relation(name: &str) -> bool {
    base_name(name) == sup_names::CONFIG_PREFIXES
}

/// The distinct node ids read off one engine's model.
#[derive(Default)]
struct Census {
    events: FxHashSet<String>,
    conditions: FxHashSet<String>,
    explanation_ids: usize,
}

impl Census {
    /// The set relation `name` feeds and the column holding its node id:
    /// the event of `Trans*`, the condition of `Places`. `None` for every
    /// other relation.
    fn column(&mut self, name: &str) -> Option<(&mut FxHashSet<String>, usize)> {
        let base = base_name(name);
        if names::is_trans(base) {
            Some((&mut self.events, 1))
        } else if base == names::PLACES {
            Some((&mut self.conditions, 0))
        } else {
            None
        }
    }

    /// The census of a central model, over the relations `counted` admits.
    /// Explanation ids are counted as interned terms: rendering an `h`-chain
    /// would spell out every event's causal history.
    fn of_db(db: &Database, store: &TermStore, counted: impl Fn(&str) -> bool) -> Self {
        let mut census = Census::default();
        let mut ids: FxHashSet<TermId> = FxHashSet::default();
        for (pred, rel) in db.iter() {
            let name = store.sym_str(pred.name);
            if !counted(name) {
                continue;
            }
            if is_explanation_relation(name) {
                ids.extend(rel.rows().iter().map(|row| row[0]));
            } else if let Some((set, col)) = census.column(name) {
                set.extend(rel.rows().iter().map(|row| store.display(row[col])));
            }
        }
        census.explanation_ids = ids.len();
        census
    }

    /// Fill the census fields of a report.
    fn report(self, diagnosis: Diagnosis, derived_facts: usize, stats: EvalStats) -> EngineReport {
        EngineReport {
            diagnosis,
            derived_facts,
            distinct_events: self.events.len(),
            distinct_conditions: self.conditions.len(),
            explanation_ids: self.explanation_ids,
            stats,
            net: None,
            peer_stats: Vec::new(),
            recordings: Vec::new(),
        }
    }
}

/// Adorned copies only — the base relations are not populated by a
/// rewritten program, and its `in_`/`sup_` relations hold bindings, not
/// derivations.
fn is_qsq_derivation(name: &str) -> bool {
    classify_name(name) == RelKind::Adorned
}

/// Render an exported term the way `TermStore::display` would.
pub fn exported_display(t: &ExportedTerm) -> String {
    match t {
        ExportedTerm::Const(c) | ExportedTerm::Var(c) => c.clone(),
        ExportedTerm::App(f, args) => {
            let inner: Vec<String> = args.iter().map(exported_display).collect();
            format!("{}({})", f, inner.join(", "))
        }
    }
}

/// Bottom-up (semi-naive) evaluation of the full diagnosis program with a
/// term-depth bound of `2·(|A|+1)+2` — without it the evaluation would
/// enumerate the infinite unfolding.
pub fn diagnose_seminaive(
    net: &PetriNet,
    alarms: &AlarmSeq,
    opts: &PipelineOptions,
) -> Result<EngineReport, EvalError> {
    if alarms.is_empty() {
        return Ok(empty_report());
    }
    let mut store = TermStore::new();
    let dp = diagnosis_program(net, alarms, opts.supervisor, &mut store);
    let mut db = Database::new();
    let base_facts = dp.program.rules.iter().filter(|r| r.is_fact()).count();
    let budget = EvalBudget {
        max_term_depth: Some(2 * (alarms.len() as u32 + 1) + 2),
        ..opts.budget
    };
    let stats = seminaive_opts(
        &dp.program,
        &mut store,
        &mut db,
        &budget,
        &opts.eval_options(),
    )?;
    let diagnosis = extract_from_db(&db, &store, &dp.query);
    let derived = db.total_facts().saturating_sub(base_facts);
    Ok(Census::of_db(&db, &store, |_| true).report(diagnosis, derived, stats))
}

/// QSQ: rewrite for the `Diag@p0(?, ?)` query and evaluate centrally.
/// No depth bound — Proposition 1 guarantees termination.
pub fn diagnose_qsq(
    net: &PetriNet,
    alarms: &AlarmSeq,
    opts: &PipelineOptions,
) -> Result<EngineReport, QsqError> {
    if alarms.is_empty() {
        return Ok(empty_report());
    }
    let mut store = TermStore::new();
    let dp = diagnosis_program(net, alarms, opts.supervisor, &mut store);
    let mut db = Database::new();
    let run = qsq_answer_traced_opts(
        &dp.program,
        &dp.query,
        &mut store,
        &mut db,
        &opts.budget,
        &opts.eval_options(),
    )?;
    let diagnosis = extract_diagnosis(&run.answers, &store);
    let derived = run.materialized.derived_total();
    Ok(Census::of_db(&db, &store, is_qsq_derivation).report(diagnosis, derived, run.stats))
}

/// Magic Sets: the paper's sibling optimization \[7\], evaluated centrally.
/// Terminates unbounded for the same binding-propagation reason as QSQ.
pub fn diagnose_magic(
    net: &PetriNet,
    alarms: &AlarmSeq,
    opts: &PipelineOptions,
) -> Result<EngineReport, QsqError> {
    if alarms.is_empty() {
        return Ok(empty_report());
    }
    let mut store = TermStore::new();
    let dp = diagnosis_program(net, alarms, opts.supervisor, &mut store);
    let mut db = Database::new();
    let _sp = opts.collector.span("magic eval", "qsq");
    let run = magic_answer(&dp.program, &dp.query, &mut store, &mut db, &opts.budget)?;
    drop(_sp);
    let diagnosis = extract_diagnosis(&run.answers, &store);
    let derived = run.materialized.derived_total();
    let counted = |name: &str| Scheme::Magic.classify(name) == RelKind::Adorned;
    Ok(Census::of_db(&db, &store, counted).report(diagnosis, derived, run.stats))
}

/// dQSQ: the same rewriting, executed by autonomous peers over the
/// simulated asynchronous network.
pub fn diagnose_dqsq(
    net: &PetriNet,
    alarms: &AlarmSeq,
    opts: &PipelineOptions,
) -> Result<EngineReport, DqsqError> {
    if alarms.is_empty() {
        return Ok(empty_report());
    }
    let mut store = TermStore::new();
    let dp = diagnosis_program(net, alarms, opts.supervisor, &mut store);
    let dist_opts = DistOptions {
        budget: opts.budget,
        sim: opts.sim,
        collector: opts.collector.clone(),
        eval: opts.eval_options(),
        per_peer_trace: opts.per_peer_trace,
    };
    let out = dqsq_distributed(&dp.program, &dp.query, &mut store, &dist_opts)?;
    let diagnosis = extract_diagnosis(&out.answers, &store);

    let mut census = Census::default();
    let mut ids: FxHashSet<ExportedTerm> = FxHashSet::default();
    for peer in &out.run.peers {
        // Only the node-id column of each relation is read, so only that
        // column is exported.
        for (name, _) in peer.owned_counts() {
            if !is_qsq_derivation(name) {
                continue;
            }
            if is_explanation_relation(name) {
                ids.extend(peer.owned_column(name, 0));
            } else if let Some((set, col)) = census.column(name) {
                set.extend(peer.owned_column(name, col).iter().map(exported_display));
            }
        }
    }
    census.explanation_ids = ids.len();
    let report = census.report(
        diagnosis,
        out.materialized.derived_total(),
        out.run.total_stats(),
    );
    Ok(EngineReport {
        net: Some(out.run.net),
        peer_stats: out.run.peer_stats(),
        recordings: out.run.recordings,
        ..report
    })
}

fn empty_report() -> EngineReport {
    Census::default().report(Diagnosis::from_sets(vec![vec![]]), 0, EvalStats::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::diagnose_baseline;
    use crate::direct::diagnose_oracle;
    use rescue_petri::figure1;

    fn paper_sequences() -> Vec<AlarmSeq> {
        vec![
            AlarmSeq::from_pairs(&[("b", "p1"), ("a", "p2"), ("c", "p1")]),
            AlarmSeq::from_pairs(&[("b", "p1"), ("c", "p1"), ("a", "p2")]),
            AlarmSeq::from_pairs(&[("c", "p1"), ("b", "p1"), ("a", "p2")]),
            AlarmSeq::from_pairs(&[("e", "p2"), ("a", "p2")]),
        ]
    }

    #[test]
    fn qsq_diagnosis_matches_oracle_without_depth_bound() {
        // Proposition 1: QSQ terminates on the diagnosis query with no
        // term-depth gadget, even though the program's model is infinite.
        let net = figure1();
        for alarms in paper_sequences() {
            let report = diagnose_qsq(&net, &alarms, &PipelineOptions::default()).unwrap();
            let want = diagnose_oracle(&net, &alarms, 100_000);
            assert_eq!(report.diagnosis, want, "QSQ diverged on {alarms}");
        }
    }

    #[test]
    fn dqsq_diagnosis_matches_oracle() {
        let net = figure1();
        for alarms in paper_sequences() {
            let report = diagnose_dqsq(&net, &alarms, &PipelineOptions::default()).unwrap();
            let want = diagnose_oracle(&net, &alarms, 100_000);
            assert_eq!(report.diagnosis, want, "dQSQ diverged on {alarms}");
            assert!(report.net.expect("dqsq reports net stats").messages > 0);
        }
    }

    #[test]
    fn seminaive_matches_oracle_with_depth_bound() {
        let net = figure1();
        for alarms in paper_sequences() {
            let report = diagnose_seminaive(&net, &alarms, &PipelineOptions::default()).unwrap();
            let want = diagnose_oracle(&net, &alarms, 100_000);
            assert_eq!(report.diagnosis, want, "semi-naive diverged on {alarms}");
        }
    }

    #[test]
    fn theorem4_dqsq_materializes_the_dedicated_prefix() {
        let net = figure1();
        for alarms in paper_sequences() {
            let report = diagnose_dqsq(&net, &alarms, &PipelineOptions::default()).unwrap();
            let (_, base) = diagnose_baseline(&net, &alarms);
            assert_eq!(
                report.distinct_events, base.events,
                "Theorem 4 event-count mismatch on {alarms}"
            );
            // Conditions: dQSQ touches only the conditions it is asked
            // about, a subset of the baseline's materialized conditions.
            assert!(report.distinct_conditions <= base.conditions);
        }
    }

    #[test]
    fn qsq_materializes_less_than_bottom_up() {
        let net = figure1();
        let alarms = AlarmSeq::from_pairs(&[("b", "p1"), ("a", "p2"), ("c", "p1")]);
        let qsq = diagnose_qsq(&net, &alarms, &PipelineOptions::default()).unwrap();
        let bu = diagnose_seminaive(&net, &alarms, &PipelineOptions::default()).unwrap();
        assert_eq!(qsq.diagnosis, bu.diagnosis);
        assert!(
            qsq.distinct_events <= bu.distinct_events,
            "QSQ should not materialize more of the unfolding ({} vs {})",
            qsq.distinct_events,
            bu.distinct_events
        );
    }

    #[test]
    fn arity_three_presets_work_end_to_end() {
        // A 3-way join: the paper's "straightforward generalization" of the
        // two-parent presentation, end to end through QSQ and dQSQ.
        let mut b = rescue_petri::NetBuilder::new();
        let pa = b.peer("pa");
        let pb = b.peer("pb");
        let a1 = b.place("a1", pa);
        let a2 = b.place("a2", pa);
        let b1 = b.place("b1", pb);
        let b2 = b.place("b2", pb);
        let c1 = b.place("c1", pb);
        let done = b.place("done", pa);
        b.transition("preA", pa, "prep", &[a1], &[a2]);
        b.transition("preB", pb, "prep", &[b1], &[b2]);
        b.transition("join3", pa, "go", &[a2, b2, c1], &[done]);
        b.mark(a1);
        b.mark(b1);
        b.mark(c1);
        let net = b.build().unwrap();
        assert_eq!(net.max_preset(), 3);

        let opts = PipelineOptions::default();
        let alarms = AlarmSeq::from_pairs(&[("prep", "pa"), ("prep", "pb"), ("go", "pa")]);
        let oracle = diagnose_oracle(&net, &alarms, 100_000);
        assert_eq!(oracle.len(), 1);
        assert_eq!(oracle.configurations[0].len(), 3);
        let qsq = diagnose_qsq(&net, &alarms, &opts).unwrap();
        assert_eq!(qsq.diagnosis, oracle);
        let dqsq = diagnose_dqsq(&net, &alarms, &opts).unwrap();
        assert_eq!(dqsq.diagnosis, oracle);
        let bu = diagnose_seminaive(&net, &alarms, &opts).unwrap();
        assert_eq!(bu.diagnosis, oracle);
        // Theorem 4 still exact with ternary presets.
        let (_, base) = diagnose_baseline(&net, &alarms);
        assert_eq!(dqsq.distinct_events, base.events);
        // And without the join's third token seen, no explanation.
        let missing = AlarmSeq::from_pairs(&[("go", "pa")]);
        assert!(diagnose_qsq(&net, &missing, &opts)
            .unwrap()
            .diagnosis
            .is_empty());
    }

    #[test]
    fn dqsq_per_peer_trace_reports_dashboard_and_merged_trace() {
        let net = figure1();
        let alarms = AlarmSeq::from_pairs(&[("b", "p1"), ("a", "p2"), ("c", "p1")]);
        let opts = PipelineOptions {
            per_peer_trace: true,
            ..Default::default()
        };
        let report = diagnose_dqsq(&net, &alarms, &opts).unwrap();
        let want = diagnose_oracle(&net, &alarms, 100_000);
        assert_eq!(report.diagnosis, want, "tracing must not change the answer");
        // figure1 has peers p1, p2 plus the supervisor.
        assert_eq!(report.peer_stats.len(), 3);
        assert_eq!(report.recordings.len(), 3);
        let merged = report.merged_trace().expect("recordings present");
        assert_eq!(merged.unresolved, 0);
        let summary = rescue_telemetry::json::validate_trace(&merged.json).unwrap();
        assert_eq!(summary.processes, 3);
        assert_eq!(summary.unmatched_sends, 0);
        // Fact counters in the dashboard cover everything the peers own.
        let owned: u64 = report.peer_stats.iter().map(|s| s.facts_owned).sum();
        assert!(owned > 0);
    }

    #[test]
    fn empty_sequence_short_circuits() {
        let net = figure1();
        let r = diagnose_qsq(&net, &AlarmSeq::default(), &PipelineOptions::default()).unwrap();
        assert_eq!(r.diagnosis.configurations, vec![Vec::<String>::new()]);
    }
}
