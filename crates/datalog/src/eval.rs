//! Bottom-up evaluation of dDatalog programs: semi-naive iteration. Each
//! round joins every rule once per positive body position whose relation
//! grew, that position against only the facts new since the previous round
//! (its Δ), and stops when a round derives nothing. The paper gives
//! dDatalog its meaning by naive iteration (§3.1); the integration tests'
//! reference evaluator is that loop, and it shares no code with this one.
//!
//! Because dDatalog has function symbols, evaluation may not terminate
//! (paper, §3); every run therefore carries an [`EvalBudget`] and returns a
//! typed [`EvalError`] when a budget is exhausted. [`EvalStats`] reports the
//! quantities the paper's optimization argument is about: facts materialized
//! and rule firings.
//!
//! A round runs in two phases: its passes first **enumerate** matches
//! against a sealed snapshot (frozen row ranges, read-only [`RulePlan`]
//! execution), then the driver **merges** the buffered bindings in pass
//! order through the single-writer `TermStore` and `Database`. A round's
//! match set is therefore a pure function of its snapshot (DESIGN.md §10).
//!
//! There are two ways in. A **one-shot** call ([`seminaive`],
//! [`seminaive_opts`], and per stratum [`seminaive_stratified`]) evaluates
//! a borrowed program over a borrowed [`Database`] and forgets everything
//! it compiled, so it compiles a Δ-plan only in the first round that
//! schedules it. An [`EvalSession`] holds its program and database and
//! **resumes**: it keeps watermarks, the depth-suppressed frontier and
//! the compiled plans, all of them compiled at its first fixpoint, so each
//! resume pays for its delta. A resume on cached
//! plans (the warm path) also skips the per-call sweeps over the program:
//! its facts, its index needs and its relation lengths. Its clones share
//! the program and the plans.

use crate::database::{ColMask, Database, Inserted};
use crate::language::{PredId, Program, Rule};
use crate::plan::{
    run_job, Job, JobOutput, JoinOrder, JoinScratch, PassOutput, RulePlan, ShareGroup, SharedPass,
    SigInterner, StepMeta, TrieNode,
};
use crate::symbol::Sym;
use crate::term::{Subst, TermId, TermStore};
use rescue_telemetry::profile::{ProfileReport, RuleStat};
use rescue_telemetry::{Absorb, Collector};
use rustc_hash::{FxHashMap, FxHashSet};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Heads that were derived but not inserted because they exceeded the
/// term-depth bound. An [`EvalSession`] records these so that raising the
/// bound later can replay exactly the suppressed frontier instead of
/// re-deriving the whole model.
pub type DeferredFacts = FxHashSet<(PredId, Box<[TermId]>)>;

/// Resource limits for one evaluation run.
#[derive(Clone, Copy, Debug)]
pub struct EvalBudget {
    /// Abort when the database would exceed this many facts.
    pub max_facts: usize,
    /// Abort after this many fixpoint rounds.
    pub max_iterations: usize,
    /// If set, derived facts containing a term nested deeper than this are
    /// handled per [`depth_policy`](Self::depth_policy). This is the
    /// paper's §4.4 "gadget to prevent non-terminating computations, such
    /// as bounding the depth of the unfolding".
    pub max_term_depth: Option<u32>,
    /// What to do with a too-deep derived fact.
    pub depth_policy: DepthPolicy,
}

/// Behaviour when a derived fact exceeds `max_term_depth`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DepthPolicy {
    /// Silently do not derive the fact (truncates the model — fine for
    /// depth-bounded unfolding construction).
    Skip,
    /// Fail the evaluation.
    Error,
}

impl Default for EvalBudget {
    fn default() -> Self {
        EvalBudget {
            max_facts: 10_000_000,
            max_iterations: 1_000_000,
            max_term_depth: None,
            depth_policy: DepthPolicy::Skip,
        }
    }
}

impl EvalBudget {
    /// A budget with a term-depth bound and the [`DepthPolicy::Skip`] policy.
    pub fn depth_bounded(depth: u32) -> Self {
        EvalBudget {
            max_term_depth: Some(depth),
            ..Default::default()
        }
    }
}

/// Evaluation failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EvalError {
    /// `max_facts` exceeded.
    FactBudgetExceeded { limit: usize },
    /// `max_iterations` exceeded without reaching a fixpoint.
    IterationBudgetExceeded { limit: usize },
    /// A derived fact exceeded `max_term_depth` under [`DepthPolicy::Error`].
    TermDepthExceeded { limit: u32 },
    /// The program uses negation; only [`seminaive_stratified`] evaluates
    /// negation (with well-defined stratified semantics).
    NegationRequiresStratification,
    /// Negation through recursion: the program is not stratifiable.
    NotStratified { through: String },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::FactBudgetExceeded { limit } => {
                write!(f, "fact budget exceeded ({limit} facts)")
            }
            EvalError::IterationBudgetExceeded { limit } => {
                write!(f, "iteration budget exceeded ({limit} rounds)")
            }
            EvalError::TermDepthExceeded { limit } => {
                write!(f, "derived term deeper than {limit}")
            }
            EvalError::NegationRequiresStratification => {
                write!(
                    f,
                    "program uses negation; evaluate with seminaive_stratified"
                )
            }
            EvalError::NotStratified { through } => {
                write!(
                    f,
                    "negation through recursion (via {through}): not stratifiable"
                )
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// Counters for one evaluation run.
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct EvalStats {
    /// Fixpoint rounds executed.
    pub iterations: usize,
    /// Facts newly added to the database by this run.
    pub facts_derived: usize,
    /// Complete body matches that produced an already-known fact.
    pub duplicate_derivations: usize,
    /// Complete body matches (successful rule firings, incl. duplicates).
    pub rule_firings: usize,
    /// Facts skipped by the term-depth bound.
    pub depth_skipped: usize,
    /// Secondary-index probes issued by the join executor.
    pub index_probes: usize,
    /// Candidate rows enumerated by the join executor (indexed probes plus
    /// full scans) — the paper-facing measure of join work.
    pub candidates_scanned: usize,
    /// Compiled rule plans whose atom order differs from the source order,
    /// counted over the plans the run's compile holds: every Δ-plan for a
    /// session, the Δ-plans its rounds scheduled for a one-shot run.
    pub plan_reorders: usize,
    /// Bindings pruned by a SIP existence probe (a later body atom had no
    /// match for the columns bound so far, so the partial binding could
    /// never complete — see [`EvalOptions::sip_filters`]).
    pub sip_filtered: usize,
    /// Pass steps skipped because a shared-prefix group enumerated them
    /// once for several passes (see [`EvalOptions::subplan_sharing`]).
    pub subplans_shared: usize,
    /// Rule plans actually compiled by this run, all of them Δ-plans: an
    /// [`EvalSession`] one per positive body atom, up front, and a one-shot
    /// run each Δ-pass in the first round that schedules it. Zero on a
    /// plan-cache hit (see [`EvalOptions::plan_cache`]): a resumed session
    /// that keeps paying compilation has lost its cache, which is exactly
    /// what the online-latency regression test pins.
    pub plans_compiled: usize,
    /// Exact per-`(stratum, rule, plan-variant)` attribution: wall µs,
    /// rounds fired, candidates scanned, facts derived, SIP prunes — the
    /// continuous-profiling payload. Accumulated from the same per-job
    /// counters that feed the totals above, so the column sums equal them
    /// exactly (and survive event-ring overflow, which only loses *spans*).
    /// Empty unless the run was traced with [`EvalOptions::profile`] on.
    /// `wall_us` is measured time and therefore varies run to run; every
    /// other field is deterministic.
    pub per_rule: Vec<RuleStat>,
}

impl Absorb for EvalStats {
    /// Accumulate another run's counters into this one.
    fn absorb(&mut self, s: &EvalStats) {
        self.iterations += s.iterations;
        self.facts_derived += s.facts_derived;
        self.duplicate_derivations += s.duplicate_derivations;
        self.rule_firings += s.rule_firings;
        self.depth_skipped += s.depth_skipped;
        self.index_probes += s.index_probes;
        self.candidates_scanned += s.candidates_scanned;
        self.plan_reorders += s.plan_reorders;
        self.sip_filtered += s.sip_filtered;
        self.subplans_shared += s.subplans_shared;
        self.plans_compiled += s.plans_compiled;
        for stat in &s.per_rule {
            match self.per_rule.iter_mut().find(|e| {
                e.stratum == stat.stratum && e.rule == stat.rule && e.variant == stat.variant
            }) {
                Some(e) => {
                    e.wall_us += stat.wall_us;
                    e.rounds += stat.rounds;
                    e.firings += stat.firings;
                    e.candidates += stat.candidates;
                    e.facts += stat.facts;
                    e.sip_filtered += stat.sip_filtered;
                }
                None => self.per_rule.push(stat.clone()),
            }
        }
    }
}

impl EvalStats {
    /// Fold the run's counters into `collector`'s metric registry under
    /// the `eval.*` namespace. The resulting totals byte-match the sum of
    /// the `EvalStats` values returned by the instrumented calls — the
    /// collector is a second view on the same numbers, not a re-count.
    pub fn fold_into(&self, collector: &Collector) {
        if !collector.is_enabled() {
            return;
        }
        collector.count("eval.iterations", self.iterations as u64);
        collector.count("eval.facts_derived", self.facts_derived as u64);
        collector.count(
            "eval.duplicate_derivations",
            self.duplicate_derivations as u64,
        );
        collector.count("eval.rule_firings", self.rule_firings as u64);
        collector.count("eval.depth_skipped", self.depth_skipped as u64);
        collector.count("eval.index_probes", self.index_probes as u64);
        collector.count("eval.candidates_scanned", self.candidates_scanned as u64);
        collector.count("eval.plan_reorders", self.plan_reorders as u64);
        collector.count("eval.sip_filtered", self.sip_filtered as u64);
        collector.count("eval.subplans_shared", self.subplans_shared as u64);
        collector.count("eval.plans_compiled", self.plans_compiled as u64);
        // The per-rule attribution folds in under `profile.*` (see
        // `rescue_telemetry::profile`), which is how the flight recorder
        // captures a partial profile and how per-peer profiles merge.
        self.profile().record_into(collector);
    }

    /// The run's per-rule attribution as a [`ProfileReport`] (empty when
    /// the run was not profiled).
    pub fn profile(&self) -> ProfileReport {
        let mut report = ProfileReport::new();
        for e in &self.per_rule {
            report.push(e.clone());
        }
        report
    }

    /// This stats value with every per-rule wall clock zeroed. Wall time
    /// is the only nondeterministic field of [`EvalStats`], so two
    /// profiled runs of the same program compare equal after this, and a
    /// profiled run equals an unprofiled one after additionally clearing
    /// `per_rule`.
    pub fn with_walls_zeroed(mut self) -> EvalStats {
        for r in &mut self.per_rule {
            r.wall_us = 0;
        }
        self
    }
}

/// Execution settings for one evaluation run, handed down through every
/// engine layer (`qsq::eval`, each `dqsq::dist` peer, the diagnosis
/// pipeline, and the CLIs). None of them changes the model: each is the
/// control arm of a test or an experiment.
#[derive(Clone, Debug)]
pub struct EvalOptions {
    /// Body-atom order for compiled plans (experiment E12's knob).
    pub order: JoinOrder,
    /// Compile SIP existence filters into plans: partial bindings are
    /// probed against later body atoms and pruned when no completion can
    /// exist (Yannakakis-style semi-join reduction). Pure performance
    /// knob — the model is byte-identical either way, only the work to
    /// reach it changes ([`EvalStats::sip_filtered`] counts the prunes).
    pub sip_filters: bool,
    /// Detect passes with identical join prefixes each round and enumerate
    /// every shared prefix once for the whole group
    /// ([`EvalStats::subplans_shared`] counts the steps saved). Also a
    /// pure performance knob.
    pub subplan_sharing: bool,
    /// Let an [`EvalSession`] reuse its compiled plans, sharing signatures,
    /// head-variable maps and index requirements across resumes, keyed on
    /// `(order, sip_filters)`. On by default; `false`
    /// recompiles everything per resume (the no-cache control of
    /// experiment E16). Yet another pure performance knob — a cache hit
    /// replays byte-identical plans, so the model and every counter except
    /// [`EvalStats::plans_compiled`] are unchanged. One-shot calls compile
    /// what they run, once per call, either way.
    pub plan_cache: bool,
    /// Accumulate exact per-rule attribution ([`EvalStats::per_rule`])
    /// when the run is traced. On by default; only active together with an
    /// enabled collector, so untraced runs pay nothing either way. A pure
    /// observability knob: models, stamps, and every pre-existing counter
    /// are byte-identical with profiling on or off.
    pub profile: bool,
    /// Where the run records its spans (one per fixpoint, per round and
    /// per productive rule pass) and, folded under `eval.*`, its
    /// [`EvalStats`]. Disabled by default — a disabled collector is one
    /// branch per call site.
    pub collector: Collector,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            order: JoinOrder::Planned,
            sip_filters: true,
            subplan_sharing: true,
            plan_cache: true,
            profile: true,
            collector: Collector::disabled(),
        }
    }
}

/// Always 1: the engine is single-threaded. Kept only because
/// `benchmark/src/layers.rs::eval_threads`, its one caller, prints it in
/// the run header; it goes with that header field.
pub fn default_threads() -> usize {
    1
}

/// Run semi-naive evaluation of `prog` over `db` until fixpoint.
pub fn seminaive(
    prog: &Program,
    store: &mut TermStore,
    db: &mut Database,
    budget: &EvalBudget,
) -> Result<EvalStats, EvalError> {
    seminaive_opts(prog, store, db, budget, &EvalOptions::default())
}

/// [`seminaive`] with explicit [`EvalOptions`] (join order, optimizer
/// switches, telemetry collector).
pub fn seminaive_opts(
    prog: &Program,
    store: &mut TermStore,
    db: &mut Database,
    budget: &EvalBudget,
    options: &EvalOptions,
) -> Result<EvalStats, EvalError> {
    if prog.has_negation() {
        return Err(EvalError::NegationRequiresStratification);
    }
    fixpoint(prog, store, db, budget, 0, options)
}

/// The cache key of one compiled program: recompilation is needed exactly
/// when any component changes. The program is not part of it — the only
/// cache that outlives a call belongs to an [`EvalSession`], which never
/// mutates its program and shares it only with its own clones, alongside
/// the cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct PlanKey {
    order: JoinOrder,
    sip_filters: bool,
}

/// Everything [`fixpoint_cached`] derives from the program text alone —
/// independent of the database and the budget, so it can be replayed
/// verbatim by every later fixpoint over the same program. Immutable once
/// built (the labels fill at most once), so clones of an [`EvalSession`]
/// share one behind an `Arc`.
#[derive(Clone)]
struct CompiledProgram {
    key: PlanKey,
    /// Positions of the non-fact rules in `Program::rules`; every other
    /// per-rule vector here is parallel to this one.
    rule_ids: Vec<usize>,
    /// [`Program::predicates`] — a predicate's position is its dense id,
    /// which is how the round loop addresses relation lengths.
    preds: Vec<PredId>,
    /// The inverse of `preds`: how a warm resume finds the lengths of the
    /// relations its queue grew.
    pid: FxHashMap<PredId, u32>,
    /// Dense id of each rule's head predicate.
    head_pids: Vec<u32>,
    /// Each rule's body atoms by body position: the dense predicate id and
    /// whether the atom is positive. A round reads a Δ-pass's windows and
    /// their emptiness off these, before any plan exists for it.
    body_pids: Vec<Vec<(u32, bool)>>,
    /// `delta_deps[pred]`: every `(rule, body position)` where `pred`
    /// occurs positively, ascending — the Δ-passes a round owes when
    /// `pred` grew, found without walking the rules that do not read it.
    delta_deps: Vec<Vec<(u32, u32)>>,
    /// The compiled plans. A caller that keeps the compile (an
    /// [`EvalSession`]) gets every plan its fixpoints can run, compiled
    /// here; a one-shot run gets an empty Δ-plan table, which its rounds
    /// fill on first use.
    table: PlanTable,
    /// Rule-head variables in first-occurrence order (what the merge phase
    /// re-binds).
    head_vars: Vec<Vec<Sym>>,
    /// Per-rule telemetry span labels, built on the first *traced*
    /// fixpoint and reused afterwards (untraced runs never pay for them).
    rule_labels: OnceLock<Vec<String>>,
    /// Per-rule profile frame labels (`head@peer#idx`, the index
    /// disambiguating rules with the same head), built on the first
    /// *profiled* fixpoint and reused afterwards.
    profile_labels: OnceLock<Vec<String>>,
}

/// One compiled rule plan and its per-step sharing signatures.
#[derive(Clone)]
struct Slot {
    plan: RulePlan,
    /// Interned through the compile's [`SigInterner`], which a one-shot
    /// run's fills share. The dense ids are only ever compared *within* a
    /// round, so replaying a session's ids across fixpoints groups exactly
    /// the passes a fresh interner would.
    metas: Vec<StepMeta>,
}

/// The plans a fixpoint executes, and what is derived from exactly those
/// plans: the indexes to seal and the reorder count.
#[derive(Clone, Default)]
struct PlanTable {
    /// `delta[rule][j]`: the Δ-pass variant with body position `j` as the
    /// delta. None when position `j` is negated, and in a one-shot run
    /// until a round first schedules the pass.
    delta: Vec<Vec<Option<Slot>>>,
    /// Deduplicated `(predicate, column mask)` pairs across every plan in
    /// the table, in compile order — the indexes to prepare before a round
    /// runs the plans that probe them.
    index_needs: Vec<(PredId, ColMask)>,
    /// Membership test for `index_needs`.
    need_set: FxHashSet<(PredId, ColMask)>,
    /// Plans in the table whose atom order differs from the source order;
    /// counted into [`EvalStats::plan_reorders`] once per fixpoint, cache
    /// hit or not, so the counter keeps its per-run meaning.
    reorders: usize,
}

impl PlanTable {
    /// Fill the Δ-slot of rule `r` at body position `j`: compile `rule`'s
    /// plan with `j` as its Δ-position, intern its step signatures, and
    /// record its index needs and reorder.
    fn fill(
        &mut self,
        r: usize,
        j: usize,
        rule: &Rule,
        store: &TermStore,
        key: PlanKey,
        sigs: &mut SigInterner,
    ) {
        let plan = RulePlan::compile_opts(rule, store, key.order, &[], j, key.sip_filters);
        self.reorders += usize::from(plan.reordered());
        for need in plan.index_needs() {
            if self.need_set.insert(need) {
                self.index_needs.push(need);
            }
        }
        let metas = plan.step_metas(sigs);
        self.delta[r][j] = Some(Slot { plan, metas });
    }

    /// Plans compiled into the table.
    fn len(&self) -> usize {
        self.delta.iter().flatten().flatten().count()
    }
}

impl CompiledProgram {
    /// Compile `prog` under `key`. The Δ-plans compile here when `eager` —
    /// for a caller that keeps the compile, whose later fixpoints must not
    /// compile — and are otherwise left to the rounds that first schedule
    /// them.
    fn new(
        prog: &Program,
        store: &TermStore,
        key: PlanKey,
        eager: bool,
        sigs: &mut SigInterner,
    ) -> CompiledProgram {
        let (rule_ids, rules): (Vec<usize>, Vec<&Rule>) = prog
            .rules
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.is_fact())
            .unzip();
        let preds: Vec<PredId> = prog.predicates().into_iter().map(|(p, _)| p).collect();
        let pid: FxHashMap<PredId, u32> = preds.iter().zip(0u32..).map(|(&p, i)| (p, i)).collect();
        let head_pids: Vec<u32> = rules.iter().map(|r| pid[&r.head.pred]).collect();
        let body_pids: Vec<Vec<(u32, bool)>> = rules
            .iter()
            .map(|r| r.body.iter().map(|a| (pid[&a.pred], !a.negated)).collect())
            .collect();
        // Negated atoms reference lower strata, which do not grow during
        // this fixpoint — never a delta.
        let mut delta_deps: Vec<Vec<(u32, u32)>> = vec![Vec::new(); preds.len()];
        for (r, body) in body_pids.iter().enumerate() {
            for (j, &(p, positive)) in body.iter().enumerate() {
                if positive {
                    delta_deps[p as usize].push((r as u32, j as u32));
                }
            }
        }
        // One Δ-pass variant per positive body position — the delta atom
        // is the smallest window of its pass, so the planned order
        // enumerates it first.
        let mut table = PlanTable {
            delta: rules.iter().map(|r| vec![None; r.body.len()]).collect(),
            ..PlanTable::default()
        };
        if eager {
            for (r, rule) in rules.iter().enumerate() {
                for j in (0..rule.body.len()).filter(|&j| !rule.body[j].negated) {
                    table.fill(r, j, rule, store, key, sigs);
                }
            }
        }
        // Rule-head variables in first-occurrence order: a pass emits
        // one binding per head variable per match, and the merge phase
        // re-binds exactly these to intern the instantiated head.
        let head_vars: Vec<Vec<Sym>> = rules.iter().map(|r| r.head.vars(store)).collect();
        CompiledProgram {
            key,
            rule_ids,
            preds,
            pid,
            head_pids,
            body_pids,
            delta_deps,
            table,
            head_vars,
            rule_labels: OnceLock::new(),
            profile_labels: OnceLock::new(),
        }
    }
}

/// A resumable semi-naive evaluation: the database, per-predicate
/// watermarks, and the depth-suppressed frontier of one ongoing fixpoint,
/// owned together so callers can keep injecting facts and re-saturating
/// without ever re-joining the already-saturated prefix.
///
/// This is the paper's online-diagnosis story (§4.4): each alarm extends
/// the model by a small delta, so the supervisor should pay for the delta,
/// not for the whole unfolding again. Two mechanisms cooperate:
///
/// * **watermarks** — rows below a relation's watermark were saturated by a
///   previous resume and act as "old" from the start, so only the newer
///   rows are initial deltas. A resume on cached plans starts from them
///   and recounts only the relations its queue grew;
/// * **deferred facts** — heads skipped by the term-depth bound are
///   recorded, and [`EvalSession::set_depth_bound`] re-injects the ones
///   that fit a raised bound as fresh deltas. Any derivation missing from
///   the truncated model passes through one of these recorded heads, so
///   replaying them restores exactly the model of a from-scratch run at
///   the larger bound.
///
/// A clone is an independent session that continues from the same point:
/// it copies the database, watermarks, deferred frontier, queue, stats and
/// options, and shares the program and the compiled plans (both immutable)
/// with the original. Resume the clone under a [`TermStore`] that agrees
/// with the original's on every id the session has seen — a clone of that
/// store, in practice.
#[derive(Clone)]
pub struct EvalSession {
    prog: Arc<Program>,
    /// `prog.has_negation()`, computed once: every resume of such a
    /// session is refused.
    has_negation: bool,
    db: Database,
    budget: EvalBudget,
    sat: Saturation,
    deferred: DeferredFacts,
    /// Facts queued for the next [`resume`](Self::resume) call.
    queue: Vec<(PredId, Box<[TermId]>)>,
    /// Aggregate stats over every fixpoint run by this session.
    total: EvalStats,
    /// Execution options (and telemetry sink) of every fixpoint the
    /// session runs.
    options: EvalOptions,
    /// Compiled plans, reused by every resume — the session's program is
    /// fixed, so after the first fixpoint each `push_fact`/`resume` pays
    /// for its delta joins, not for recompilation. Shared with clones; a
    /// miss compiles into a fresh `Arc`, so a shared compile is never
    /// rewritten.
    compiled: Option<Arc<CompiledProgram>>,
}

impl EvalSession {
    /// Start a session for `prog` and saturate its own facts and rules.
    /// The program is fixed for the session's lifetime; later calls only
    /// add extensional facts. Negation is rejected (sessions are
    /// single-stratum, like [`seminaive`]).
    pub fn new(
        prog: Program,
        store: &mut TermStore,
        budget: EvalBudget,
    ) -> Result<Self, EvalError> {
        let mut session = Self::idle(prog, budget);
        session.resume(store, [])?;
        Ok(session)
    }

    /// A session for `prog` that has not evaluated anything yet: the first
    /// [`resume`](Self::resume) performs the initial saturation (and
    /// reports a program with negation). For owners that set the session's
    /// options before its first fixpoint, as a distributed peer does.
    pub fn idle(prog: Program, budget: EvalBudget) -> Self {
        EvalSession {
            has_negation: prog.has_negation(),
            prog: Arc::new(prog),
            db: Database::new(),
            budget,
            sat: Saturation::default(),
            deferred: DeferredFacts::default(),
            queue: Vec::new(),
            total: EvalStats::default(),
            options: EvalOptions::default(),
            compiled: None,
        }
    }

    /// Replace the execution options of every subsequent fixpoint. A change
    /// to a plan-shaping option recompiles on the next resume (the cache
    /// is keyed on them); the derived model is identical either way.
    pub fn set_options(&mut self, options: EvalOptions) {
        self.options = options;
    }

    /// The options the next [`resume`](Self::resume) runs under.
    pub fn options(&self) -> &EvalOptions {
        &self.options
    }

    /// The materialized model so far (truncated at the current depth bound).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Aggregate statistics over every fixpoint this session has run.
    pub fn total_stats(&self) -> &EvalStats {
        &self.total
    }

    /// Number of derived heads currently suppressed by the depth bound.
    pub fn deferred_len(&self) -> usize {
        self.deferred.len()
    }

    /// The budget applied to the next [`resume`](Self::resume).
    pub fn budget(&self) -> &EvalBudget {
        &self.budget
    }

    /// Queue a fact for the next [`resume`](Self::resume) without
    /// evaluating yet (useful to batch several injections into one run).
    pub fn push_fact(&mut self, pred: PredId, row: Box<[TermId]>) {
        self.queue.push((pred, row));
    }

    /// Raise the term-depth bound. Deferred heads that fit the new bound
    /// are re-queued and will act as deltas on the next resume; the rest
    /// stay deferred. Panics if the bound would shrink — rows already in
    /// the database cannot be un-derived.
    pub fn set_depth_bound(&mut self, store: &TermStore, depth: u32) {
        if let Some(old) = self.budget.max_term_depth {
            assert!(
                depth >= old,
                "depth bound must be non-decreasing ({old} -> {depth})"
            );
        }
        self.budget.max_term_depth = Some(depth);
        let fits = |row: &[TermId]| row.iter().all(|&t| store.term_depth(t) <= depth);
        let replay: Vec<(PredId, Box<[TermId]>)> = self
            .deferred
            .iter()
            .filter(|(_, row)| fits(row))
            .cloned()
            .collect();
        for entry in replay {
            self.deferred.remove(&entry);
            self.queue.push(entry);
        }
    }

    /// Inject `new_facts` (plus anything queued) and run the fixpoint to
    /// saturation, joining only against what is new since the last call.
    pub fn resume(
        &mut self,
        store: &mut TermStore,
        new_facts: impl IntoIterator<Item = (PredId, Box<[TermId]>)>,
    ) -> Result<EvalStats, EvalError> {
        if self.has_negation {
            return Err(EvalError::NegationRequiresStratification);
        }
        self.queue.extend(new_facts);
        // Rows land above the watermark, so they are the initial deltas of
        // the run below. Duplicates insert nothing, so they never trip the
        // budget. The fact that does trip it, and everything queued behind
        // it, stays queued for a resume under a larger budget.
        let limit = self.budget.max_facts;
        let touched = &mut self.sat.touched;
        let over = (self.queue.iter()).position(|(pred, row)| {
            match self.db.insert_within(*pred, row, limit) {
                Inserted::New if !touched.contains(pred) => touched.push(*pred),
                Inserted::New | Inserted::Duplicate => {}
                Inserted::OverBudget => return true,
            }
            false
        });
        self.queue.drain(..over.unwrap_or(self.queue.len()));
        if over.is_some() {
            self.sat.warm = false;
            return Err(EvalError::FactBudgetExceeded { limit });
        }
        let stats = fixpoint_cached(
            &self.prog,
            store,
            &mut self.db,
            &self.budget,
            0,
            &mut self.sat,
            Some(&mut self.deferred),
            &self.options,
            Some(&mut self.compiled),
        )?;
        self.total.absorb(&stats);
        Ok(stats)
    }
}

/// One pass of a round: a compiled plan variant plus the frozen `[lo, hi)`
/// row windows per original body position.
struct Pass<'p> {
    rule_idx: usize,
    slot: &'p Slot,
    /// `(delta body position, delta rows)`.
    delta: (usize, usize),
    /// This pass's stretch of the round's window buffer.
    ranges: &'p [(usize, usize)],
}

/// Pseudo rule index attributing program seed-fact inserts in the
/// profile, so the per-rule fact sum equals [`EvalStats::facts_derived`].
const SEED_RULE: usize = usize::MAX;

/// Attribution key of the profiling accumulator: `(rule index, Δ body
/// position, shared-prefix flag)`.
type ProfKey = (usize, usize, bool);

/// Per-(rule, variant) accumulator behind [`EvalStats::per_rule`]. Wall
/// time is the only nondeterministic field; everything else is a pure
/// function of the sealed snapshots.
#[derive(Default, Clone, Copy)]
struct RuleAcc {
    wall: u64,
    rounds: u64,
    firings: u64,
    cands: u64,
    facts: u64,
    sip: u64,
}

fn plan_label(pass: &Pass<'_>) -> String {
    let j = pass.delta.0;
    match pass.slot.plan.reordered() {
        true => format!("delta#{j} reordered"),
        false => format!("delta#{j}"),
    }
}

/// The pass's sharing metadata at plan step `depth`, if the step can be
/// shared at all.
fn share_meta<'p>(pass: &Pass<'p>, depth: usize) -> Option<&'p StepMeta> {
    pass.slot.metas.get(depth).filter(|m| m.shareable)
}

/// A pass being bucketed at some trie depth: the sort key of its step
/// there (0 when the step cannot be shared, else its interned signature
/// plus one) and its index in the round's pass list.
type Keyed = (u32, usize);

/// Order two keyed passes by what they do at plan step `depth`: passes
/// that cannot share the step first, then by the step's signature and the
/// runtime row windows it (and its SIP probes) reads, compared in place.
/// Two passes that compare equal and can share enumerate identical
/// candidates and extend the substitution identically there.
fn step_order(passes: &[Pass<'_>], depth: usize, a: Keyed, b: Keyed) -> Ordering {
    a.0.cmp(&b.0).then_with(|| {
        if a.0 == 0 {
            return Ordering::Equal;
        }
        let (pa, pb) = (&passes[a.1], &passes[b.1]);
        let (ma, mb) = (&pa.slot.metas[depth], &pb.slot.metas[depth]);
        let wa = ma.range_idxs.iter().map(|&i| pa.ranges[i]);
        wa.cmp(mb.range_idxs.iter().map(|&i| pb.ranges[i]))
    })
}

/// Key `ids` at `depth`, sort them by [`step_order`] (pass index last, so
/// the order is total) and hand each maximal run of passes that share the
/// step to `visit`; a pass that cannot share it is a run of one. Nothing
/// is allocated.
fn for_each_run(
    ids: &mut [Keyed],
    depth: usize,
    passes: &[Pass<'_>],
    mut visit: impl FnMut(&mut [Keyed]),
) {
    for id in ids.iter_mut() {
        id.0 = share_meta(&passes[id.1], depth).map_or(0, |m| m.sig + 1);
    }
    ids.sort_unstable_by(|&a, &b| step_order(passes, depth, a, b).then(a.1.cmp(&b.1)));
    let mut rest = ids;
    while let Some(&first) = rest.first() {
        let same = |&&id: &&Keyed| step_order(passes, depth, first, id).is_eq();
        let len = match first.0 {
            0 => 1,
            _ => 1 + rest[1..].iter().take_while(same).count(),
        };
        let (run, tail) = std::mem::take(&mut rest).split_at_mut(len);
        visit(run);
        rest = tail;
    }
}

/// Partition `ids` (passes sharing a common prefix up to `depth`,
/// exclusive) into leaves — passes whose sharing ends here, each
/// continuing solo from `depth` — and shared child nodes executing step
/// `depth` once per run, adding each node's saved steps to `shared`. The
/// trie is a pure function of the pass list.
fn split_group(
    ids: &mut [Keyed],
    depth: usize,
    passes: &[Pass<'_>],
    shared: &mut usize,
) -> (Vec<usize>, Vec<TrieNode>) {
    let (mut leaves, mut children) = (Vec::new(), Vec::new());
    for_each_run(ids, depth, passes, |run| {
        if let [(_, only)] = run {
            leaves.push(*only);
            return;
        }
        *shared += run.len() - 1;
        let rep = run[0].1;
        let (sub_leaves, sub_children) = split_group(run, depth + 1, passes, shared);
        children.push(TrieNode {
            rep,
            depth,
            children: sub_children,
            leaves: sub_leaves,
        });
    });
    (leaves, children)
}

/// Partition the round's passes into shared-prefix groups and solo passes.
/// Only passes that are eligible (sharing enabled, no pre-step checks,
/// nonempty windows, a shareable first step) enter groups; everything else
/// stays solo, and so does an eligible pass whose first step no other
/// eligible pass shares.
fn build_share_groups(passes: &[Pass<'_>], sharing: bool) -> (Vec<ShareGroup>, Vec<usize>) {
    let mut solo = Vec::new();
    let mut eligible = Vec::new();
    for (i, pass) in passes.iter().enumerate() {
        let can = sharing
            && !pass.slot.plan.share_blocked()
            && !pass.slot.plan.has_empty_window(pass.ranges)
            && share_meta(pass, 0).is_some();
        if can {
            eligible.push((0, i));
        } else {
            solo.push(i);
        }
    }
    let mut groups = Vec::new();
    for_each_run(&mut eligible, 0, passes, |run| {
        if let [(_, only)] = run {
            solo.push(*only);
            return;
        }
        let rep = run[0].1;
        let mut shared = run.len() - 1;
        let (leaves, children) = split_group(run, 1, passes, &mut shared);
        // Every member is a leaf of the trie, and the run holds them all.
        let mut members: Vec<usize> = run.iter().map(|&(_, p)| p).collect();
        members.sort_unstable();
        let max_depth = (members.iter())
            .map(|&m| passes[m].slot.plan.num_steps())
            .max()
            .unwrap_or(0);
        groups.push(ShareGroup {
            root: TrieNode {
                rep,
                depth: 0,
                children,
                leaves,
            },
            members,
            shared_steps: shared,
            max_depth,
        });
    });
    solo.sort_unstable();
    (groups, solo)
}

/// What a session's last saturation leaves for its next resume.
#[derive(Clone, Default)]
struct Saturation {
    /// The watermarks: relation lengths by dense predicate id when the
    /// last fixpoint saturated (empty before the first). The dense ids are
    /// [`Program::predicates`] positions, so they outlive a recompile.
    lens: Vec<usize>,
    /// Whether the database is still that saturation's but for the rows
    /// the queue added to `touched`, with every index need of the cached
    /// compile sealed. False before the first fixpoint and after an error,
    /// which may leave the rows of an unfinished round behind.
    warm: bool,
    /// The predicates the queue added rows to since that saturation.
    touched: Vec<PredId>,
}

/// The one-shot way in: [`fixpoint_cached`] from empty watermarks, keeping
/// nothing it compiled — so its rounds compile only the Δ-plans they run.
/// [`EvalSession::resume`] is the other.
fn fixpoint(
    prog: &Program,
    store: &mut TermStore,
    db: &mut Database,
    budget: &EvalBudget,
    stratum: u32,
    options: &EvalOptions,
) -> Result<EvalStats, EvalError> {
    fixpoint_cached(
        prog,
        store,
        db,
        budget,
        stratum,
        &mut Saturation::default(),
        None,
        options,
        None,
    )
}

/// The evaluator. `cache` is the caller's compiled program for `prog` when
/// the caller keeps one (None for a one-shot run); it must never be shown a
/// second program. A miss replaces the caller's `Arc` and never writes
/// through it, so a compile shared with other sessions stays as it was. A
/// kept compile holds every plan a fixpoint can run, so a hit compiles
/// nothing; a one-shot run compiles each Δ-plan in the first round that
/// schedules it. `sat` is the caller's last saturation; the call leaves its
/// own there when it saturates.
#[allow(clippy::too_many_arguments)]
fn fixpoint_cached(
    prog: &Program,
    store: &mut TermStore,
    db: &mut Database,
    budget: &EvalBudget,
    stratum: u32,
    sat: &mut Saturation,
    mut deferred: Option<&mut DeferredFacts>,
    options: &EvalOptions,
    cache: Option<&mut Option<Arc<CompiledProgram>>>,
) -> Result<EvalStats, EvalError> {
    let collector = &options.collector;
    let mut stats = EvalStats::default();
    let key = PlanKey {
        order: options.order,
        sip_filters: options.sip_filters,
    };
    let hit = options.plan_cache
        && (cache.as_deref())
            .and_then(Option::as_deref)
            .is_some_and(|c| c.key == key);
    // Warm: the last call saturated under this very compile, so the
    // program's facts are in, every index need is sealed (the database
    // keeps its indexes and parks the needs of absent relations), and only
    // the touched relations changed length. Reset until this call
    // saturates in its turn.
    let warm = hit && sat.warm;
    sat.warm = false;
    // Facts of the program itself seed the database (a warm call's are in).
    if !warm {
        for rule in prog.rules.iter().filter(|r| r.is_fact()) {
            debug_assert!(rule.head.is_ground(store), "facts must be ground");
            // Duplicates insert nothing, so they never trip the budget.
            match db.insert_within(rule.head.pred, &rule.head.args, budget.max_facts) {
                Inserted::New => stats.facts_derived += 1,
                Inserted::Duplicate => {}
                Inserted::OverBudget => {
                    return Err(EvalError::FactBudgetExceeded {
                        limit: budget.max_facts,
                    });
                }
            }
        }
    }

    // Compile on a cache miss only. A hit replays the previous fixpoint's
    // rule list, predicate ids, plans, sharing signatures, head-variable
    // maps and index needs verbatim — all of them pure functions of
    // (rules, order, sip); the rules are the cache owner's and fixed,
    // the key covers the rest, so nothing on the hit path walks the
    // program. A one-shot run takes its compile's plan table out, Δ-slots
    // empty, to fill them as its rounds go.
    let mut sigs = SigInterner::default();
    let mut one_shot = None;
    let (compiled, mut table): (&CompiledProgram, Cow<PlanTable>) = match cache {
        Some(cache) => {
            if !hit {
                let c = CompiledProgram::new(prog, store, key, true, &mut sigs);
                stats.plans_compiled += c.table.len();
                *cache = Some(Arc::new(c));
            }
            let c: &CompiledProgram = cache.as_deref().expect("compiled above");
            (c, Cow::Borrowed(&c.table))
        }
        None => {
            let mut c = CompiledProgram::new(prog, store, key, false, &mut sigs);
            stats.plans_compiled += c.table.len();
            let table = std::mem::take(&mut c.table);
            (&*one_shot.insert(c), Cow::Owned(table))
        }
    };
    // Telemetry labels are formatted once per *compile* (lazily, on the
    // first traced fixpoint), never inside the round loop — a disabled
    // collector costs one branch per call site.
    let head_label = |i: usize| {
        let head = &prog.rules[i].head.pred;
        format!(
            "{}@{}",
            store.sym_str(head.name),
            store.sym_str(head.peer.0)
        )
    };
    let traced = collector.is_enabled();
    let rule_labels: &[String] = if traced {
        compiled.rule_labels.get_or_init(|| {
            let labels = compiled.rule_ids.iter();
            labels.map(|&i| format!("rule {}", head_label(i))).collect()
        })
    } else {
        &[]
    };
    // Exact per-rule attribution: collected only when the collector can
    // observe it AND the options ask for it, into a per-(rule, variant)
    // accumulator that every round folds into. The accumulation runs in
    // the merge phase over job-level sums, so the attribution is exact
    // even when the event ring overflows, and deterministic in everything
    // but wall time.
    let profiling = traced && options.profile;
    let profile_labels: &[String] = if profiling {
        compiled.profile_labels.get_or_init(|| {
            let labels = compiled.rule_ids.iter().enumerate();
            labels
                .map(|(idx, &i)| format!("{}#{idx}", head_label(i)))
                .collect()
        })
    } else {
        &[]
    };
    let mut prof: FxHashMap<ProfKey, RuleAcc> = FxHashMap::default();
    if profiling && stats.facts_derived > 0 {
        // Facts inserted by the seed loop above, attributed to a
        // pseudo-rule so the per-rule fact sum equals `facts_derived`.
        prof.entry((SEED_RULE, 0, false)).or_default().facts += stats.facts_derived as u64;
    }
    let head_vars = &compiled.head_vars;
    // Seal: every round first builds (or registers) the indexes its plans
    // will probe that are not sealed yet — from there on the executors
    // only ever *read* the database. The first round seals every need of
    // the table as it stands; a warm resume finds them all in place.
    let mut sealed = if warm { table.index_needs.len() } else { 0 };
    let mut fix_span = traced.then(|| {
        let mut sp = collector.span("fixpoint", "eval");
        sp.arg("rules", compiled.rule_ids.len() as u64);
        sp
    });
    let mut scratch = JoinScratch::new();
    let mut subst = Subst::new();
    let mut head_buf: Vec<TermId> = Vec::new();
    let mut merge_subst = Subst::new();
    let mut out = JobOutput::default();
    let rule_at = |idx: usize| &prog.rules[compiled.rule_ids[idx]];
    // Relation lengths by dense predicate id. `prev_len` is where the
    // previous round's snapshot ended, `start_len` where this round's
    // does; the delta of a relation in round k is the slice grown during
    // round k-1. Rows below a starting watermark were saturated by an
    // earlier call and act as "old" from the start. The two vectors differ
    // exactly on `delta`, and after the first round only the heads that
    // derived something (`grown`) are re-counted — a round's bookkeeping
    // is proportional to what the previous round changed. A warm call
    // starts the same way: it recounts only the relations its queue grew.
    let preds = &compiled.preds;
    let mut prev_len: Vec<usize> = if sat.lens.is_empty() {
        vec![0; preds.len()]
    } else {
        sat.lens.clone()
    };
    let mut start_len: Vec<usize> = if warm {
        let mut lens = prev_len.clone();
        for p in &sat.touched {
            if let Some(&i) = compiled.pid.get(p) {
                lens[i as usize] = db.count(*p);
            }
        }
        lens
    } else {
        preds.iter().map(|&p| db.count(p)).collect()
    };
    sat.touched.clear();
    let mut delta: Vec<u32> = (0..preds.len())
        .filter(|&p| prev_len[p] != start_len[p])
        .map(|p| p as u32)
        .collect();
    let mut grown: Vec<u32> = Vec::new();
    let mut delta_sites: Vec<(u32, u32)> = Vec::new();
    // Reused by every round: the scheduled passes as `(rule, Δ-position,
    // start in windows)`, and all their row windows back to back.
    let mut sched: Vec<(usize, usize, usize)> = Vec::new();
    let mut windows: Vec<(usize, usize)> = Vec::new();

    loop {
        if stats.iterations >= budget.max_iterations {
            return Err(EvalError::IterationBudgetExceeded {
                limit: budget.max_iterations,
            });
        }
        stats.iterations += 1;
        let mut round_span =
            traced.then(|| collector.span(format!("round {}", stats.iterations), "eval"));

        // Snapshot: rows below `start_len` are visible this round; rows in
        // `[prev_len, start_len)` are the deltas. Every window is frozen
        // *before* any pass runs, so each pass's match set is a pure
        // function of the sealed snapshot: merge-phase inserts land at rows
        // >= start_len, above every window, and negated atoms reference
        // strictly lower strata, which never grow during this fixpoint.
        // That is the whole determinism argument — enumerate-then-merge
        // (in any pass interleaving) equals the old enumerate-and-insert
        // engine match for match.
        let mut derived_this_round = 0usize;

        // Phase 1 — the round's passes, with frozen windows.
        sched.clear();
        windows.clear();
        // Δ-rewriting: one pass per rule and positive body position j
        // whose predicate grew, with
        //   positions < j  -> old  = [0, prev_len)
        //   position  j    -> Δ    = [prev_len, start_len)
        //   positions > j  -> new  = [0, start_len)
        // The sites come from the grown predicates' dependency lists,
        // sorted back into (rule, position) order — the order a walk over
        // every rule and position would have produced them in.
        delta_sites.clear();
        for &p in &delta {
            delta_sites.extend_from_slice(&compiled.delta_deps[p as usize]);
        }
        delta_sites.sort_unstable();
        for &(rule_idx, j) in &delta_sites {
            let (rule_idx, j) = (rule_idx as usize, j as usize);
            let start = windows.len();
            let mut empty = false;
            for (i, &(p, positive)) in compiled.body_pids[rule_idx].iter().enumerate() {
                let w = match i.cmp(&j) {
                    Ordering::Less => (0, prev_len[p as usize]),
                    Ordering::Equal => (prev_len[p as usize], start_len[p as usize]),
                    Ordering::Greater => (0, start_len[p as usize]),
                };
                empty |= positive && w.0 >= w.1;
                windows.push(w);
            }
            // A join over an empty window has no matches: `execute` would
            // return before touching any counter, so the pass is not worth
            // a plan, a job and a merge.
            if empty {
                windows.truncate(start);
                continue;
            }
            if table.delta[rule_idx][j].is_none() {
                // Only a one-shot run's own table has holes, so this never
                // copies a session's.
                let rule = rule_at(rule_idx);
                table
                    .to_mut()
                    .fill(rule_idx, j, rule, store, key, &mut sigs);
                stats.plans_compiled += 1;
            }
            sched.push((rule_idx, j, start));
        }
        for &(pred, mask) in &table.index_needs[sealed..] {
            db.prepare_index(pred, mask);
        }
        sealed = table.index_needs.len();
        let passes: Vec<Pass> = (sched.iter())
            .map(|&(rule_idx, j, start)| {
                let ranges = &windows[start..start + compiled.body_pids[rule_idx].len()];
                Pass {
                    rule_idx,
                    slot: table.delta[rule_idx][j].as_ref().expect("filled above"),
                    delta: (j, ranges[j].1 - ranges[j].0),
                    ranges,
                }
            })
            .collect();
        #[cfg(debug_assertions)]
        assert_full_walk_agrees(&passes, prog, compiled, &prev_len, db);

        // Group passes with identical join prefixes (same step signatures
        // over the same frozen windows) into shared-prefix tries. The
        // grouping is a pure function of the sealed snapshot, and
        // `subplans_shared` is counted here, at build time.
        let (groups, solo) = build_share_groups(&passes, options.subplan_sharing);
        stats.subplans_shared += groups.iter().map(|g| g.shared_steps).sum::<usize>();
        let shared_passes: Vec<SharedPass> = passes
            .iter()
            .map(|p| SharedPass {
                rule: rule_at(p.rule_idx),
                plan: &p.slot.plan,
                head_vars: &head_vars[p.rule_idx],
                ranges: p.ranges,
            })
            .collect();

        // Phase 2 — one job per solo pass or share group, ordered by
        // smallest member pass: a total order that, like the job list
        // itself, depends only on the sealed snapshot.
        let mut jobs: Vec<(usize, Job)> = (solo.iter().map(|&p| (p, Job::Solo(p))))
            .chain(groups.iter().map(|g| (g.members[0], Job::Group(g))))
            .collect();
        jobs.sort_by_key(|&(min_pass, _)| min_pass);

        // Phase 3 — enumerate each job into `out` and merge it before the
        // next one runs (buffer memory is bounded by one job), members of
        // a group ascending. The merge only appends rows at or above
        // `start_len`, which no window of this round reaches, so a later
        // job still enumerates the sealed snapshot.
        for (_, job) in &jobs {
            run_job(
                job,
                &shared_passes,
                store,
                db,
                &mut subst,
                &mut scratch,
                &mut out,
                profiling,
            );
            stats.index_probes += out.probes;
            stats.candidates_scanned += out.cands;
            stats.sip_filtered += out.sip;
            // A solo pass merges like a group of one, minus the group span.
            let (members, group): (&[usize], Option<&ShareGroup>) = match job {
                Job::Solo(p) => (std::slice::from_ref(p), None),
                Job::Group(g) => (&g.members, Some(g)),
            };
            let mut group_span = group.filter(|_| traced).map(|g| {
                let mut sp = collector.span(format!("shared prefix ×{}", g.members.len()), "eval");
                sp.arg("steps_saved", g.shared_steps as u64);
                sp
            });
            let mut job_produced = 0usize;
            for (slot, &p) in members.iter().enumerate() {
                let pass = &passes[p];
                let mut pass_span = traced.then(|| {
                    let mut sp = collector.span(rule_labels[pass.rule_idx].clone(), "eval");
                    if group.is_some() {
                        sp.arg("plan", format!("{} shared", plan_label(pass)));
                    } else {
                        sp.arg("plan", plan_label(pass));
                        sp.arg("delta_rows", pass.delta.1 as u64);
                    }
                    sp
                });
                let produced = merge_output(
                    rule_at(pass.rule_idx),
                    &head_vars[pass.rule_idx],
                    &out.passes[slot],
                    store,
                    db,
                    budget,
                    &mut stats,
                    deferred.as_deref_mut(),
                    &mut merge_subst,
                    &mut head_buf,
                )?;
                if let Some(sp) = pass_span.as_mut() {
                    sp.arg("new_facts", produced as u64);
                }
                if profiling {
                    let key = (pass.rule_idx, pass.delta.0, group.is_some());
                    let acc = prof.entry(key).or_default();
                    acc.rounds += 1;
                    acc.firings += out.passes[slot].firings as u64;
                    acc.facts += produced as u64;
                    if slot == 0 {
                        // Job-level counters (scan work, SIP hits, wall
                        // time) cover the whole shared trie; hand them to
                        // the job's first member so per-rule sums stay
                        // exact, never doubled.
                        acc.cands += out.cands as u64;
                        acc.sip += out.sip as u64;
                        acc.wall += out.wall_us;
                    }
                }
                if produced > 0 {
                    grown.push(compiled.head_pids[pass.rule_idx]);
                }
                job_produced += produced;
            }
            if let Some(sp) = group_span.as_mut() {
                sp.arg("new_facts", job_produced as u64);
            }
            derived_this_round += job_produced;
        }

        if let Some(sp) = round_span.as_mut() {
            sp.arg("new_facts", derived_this_round as u64);
        }
        if traced {
            // Round boundary: one time-series point per round (a no-op
            // unless a sampler ring is attached to the collector).
            collector.sample_series(
                "round",
                &[
                    ("round", stats.iterations as u64),
                    ("new_facts", derived_this_round as u64),
                    ("facts_total", db.total_facts() as u64),
                ],
            );
        }
        // This round's deltas are old from now on; the heads that derived
        // something are the next round's deltas.
        for &p in &delta {
            prev_len[p as usize] = start_len[p as usize];
        }
        delta.clear();
        grown.sort_unstable();
        grown.dedup();
        for &p in &grown {
            start_len[p as usize] = db.count(preds[p as usize]);
        }
        std::mem::swap(&mut delta, &mut grown);
        if derived_this_round == 0 {
            // Saturated: `prev_len` and `start_len` now agree, and each is
            // every relation's length.
            sat.lens = start_len;
            sat.warm = true;
            stats.plan_reorders += table.reorders;
            if let Some(sp) = fix_span.as_mut() {
                sp.arg("rounds", stats.iterations as u64);
                sp.arg("facts_derived", stats.facts_derived as u64);
            }
            if profiling && !prof.is_empty() {
                // Deterministic order: by (rule index, variant, shared),
                // with the seed pseudo-rule (usize::MAX) sorting last.
                let mut keys: Vec<ProfKey> = prof.keys().copied().collect();
                keys.sort_unstable();
                for key @ (rule_idx, j, shared) in keys {
                    let acc = prof[&key];
                    let (rule, variant) = if rule_idx == SEED_RULE {
                        ("(seed)".to_owned(), "edb".to_owned())
                    } else {
                        let reordered = table.delta[rule_idx][j]
                            .as_ref()
                            .is_some_and(|s| s.plan.reordered());
                        let mut v = format!("delta#{j}");
                        if reordered {
                            v.push_str(" reordered");
                        }
                        if shared {
                            v.push_str(" shared");
                        }
                        (profile_labels[rule_idx].clone(), v)
                    };
                    stats.per_rule.push(RuleStat {
                        stratum,
                        rule,
                        variant,
                        wall_us: acc.wall,
                        rounds: acc.rounds,
                        firings: acc.firings,
                        candidates: acc.cands,
                        facts: acc.facts,
                        sip_filtered: acc.sip,
                    });
                }
            }
            stats.fold_into(collector);
            return Ok(stats);
        }
    }
}

/// The scheduler the dependency index replaced, kept as the debug-build
/// oracle: walk every rule × positive body position, count each relation
/// afresh, keep the positions whose Δ-window — and every other positive
/// window — is non-empty, and require the round's delta-driven `passes` to
/// be exactly those — same rule, same
/// Δ-position, same ranges, same order.
#[cfg(debug_assertions)]
fn assert_full_walk_agrees(
    passes: &[Pass<'_>],
    prog: &Program,
    compiled: &CompiledProgram,
    prev_len: &[usize],
    db: &Database,
) {
    let old: FxHashMap<PredId, usize> = compiled
        .preds
        .iter()
        .copied()
        .zip(prev_len.iter().copied())
        .collect();
    let mut scheduled = passes.iter();
    for (rule_idx, &i) in compiled.rule_ids.iter().enumerate() {
        let body = &prog.rules[i].body;
        for j in (0..body.len()).filter(|&j| !body[j].negated) {
            if old[&body[j].pred] == db.count(body[j].pred) {
                continue;
            }
            let window = |(i, atom): (usize, &crate::language::Atom)| match i.cmp(&j) {
                Ordering::Less => (0, old[&atom.pred]),
                Ordering::Equal => (old[&atom.pred], db.count(atom.pred)),
                Ordering::Greater => (0, db.count(atom.pred)),
            };
            let ranges: Vec<(usize, usize)> = body.iter().enumerate().map(window).collect();
            if (body.iter().zip(&ranges)).any(|(atom, &(lo, hi))| !atom.negated && lo >= hi) {
                continue;
            }
            let got = scheduled.next().map(|p| (p.rule_idx, p.delta, p.ranges));
            let rows = ranges[j].1 - ranges[j].0;
            assert_eq!(got, Some((rule_idx, (j, rows), ranges.as_slice())));
        }
    }
    assert!(scheduled.next().is_none(), "a pass without a grown delta");
}

/// Stratified semi-naive evaluation: the program's predicate dependency
/// graph is split into strongly connected components, which are evaluated
/// to fixpoint one at a time in dependency order. Equivalent to
/// [`seminaive`] (positive programs have a unique minimal model) but rules
/// of converged components are never revisited while later strata iterate.
/// The only engine that evaluates negation. With a collector in `options`
/// it records a span per stratum (labelled with the stratum's member
/// predicates), the inner fixpoints' round and rule spans nested beneath.
pub fn seminaive_stratified(
    prog: &Program,
    store: &mut TermStore,
    db: &mut Database,
    budget: &EvalBudget,
    options: &EvalOptions,
) -> Result<EvalStats, EvalError> {
    let graph = crate::graph::DepGraph::build(prog);
    if let Err((from, to)) = graph.check_stratifiable() {
        return Err(EvalError::NotStratified {
            through: format!(
                "{} -> not {}",
                store.sym_str(from.name),
                store.sym_str(to.name)
            ),
        });
    }
    let collector = &options.collector;
    let traced = collector.is_enabled();
    let mut total = EvalStats::default();
    let mut rules_assigned = 0usize;
    for (stratum_idx, component) in graph.sccs().into_iter().enumerate() {
        let members: FxHashSet<PredId> = component.iter().map(|&i| graph.preds[i]).collect();
        let mut sub = Program::new();
        for r in &prog.rules {
            if members.contains(&r.head.pred) {
                sub.push(r.clone());
            }
        }
        rules_assigned += sub.rules.len();
        if sub.is_empty() {
            continue;
        }
        let mut stratum_span = traced.then(|| {
            let mut names: Vec<&str> = members.iter().map(|p| store.sym_str(p.name)).collect();
            names.sort_unstable();
            let mut sp = collector.span(
                format!("stratum {} [{}]", stratum_idx, names.join(",")),
                "eval",
            );
            sp.arg("rules", sub.rules.len() as u64);
            sp
        });
        // Negated atoms in this stratum reference strictly lower strata,
        // already complete in `db` — negation-as-failure is sound here.
        let s = fixpoint(&sub, store, db, budget, stratum_idx as u32, options)?;
        if let Some(sp) = stratum_span.as_mut() {
            sp.arg("facts_derived", s.facts_derived as u64);
        }
        total.absorb(&s);
    }
    // Every rule's head predicate lies in exactly one SCC, so the strata
    // must partition the rule set — anything else means the dependency
    // graph dropped a predicate.
    assert_eq!(
        rules_assigned,
        prog.rules.len(),
        "strata must partition the program's rules"
    );
    Ok(total)
}

/// Merge one job's buffered output into the database — the single-writer
/// phase. Each match's head-variable tuple is re-bound, the instantiated
/// head interned (the only term creation in the whole round), and the
/// depth-bound / duplicate / fact-budget pipeline applied, in the job's
/// emission order — verbatim the sequential engine's per-match epilogue,
/// which is why buffering is invisible to the model and to every counter.
/// Returns the number of new facts.
#[allow(clippy::too_many_arguments)]
fn merge_output(
    rule: &Rule,
    head_vars: &[Sym],
    out: &PassOutput,
    store: &mut TermStore,
    db: &mut Database,
    budget: &EvalBudget,
    stats: &mut EvalStats,
    mut deferred: Option<&mut DeferredFacts>,
    subst: &mut Subst,
    head_buf: &mut Vec<TermId>,
) -> Result<usize, EvalError> {
    let width = head_vars.len();
    debug_assert_eq!(out.rows.len(), out.firings * width);
    let mut new_facts = 0usize;
    for firing in 0..out.firings {
        stats.rule_firings += 1;
        subst.truncate(0);
        for (k, &v) in head_vars.iter().enumerate() {
            subst.bind(v, out.rows[firing * width + k]);
        }
        head_buf.clear();
        for &a in &rule.head.args {
            head_buf.push(store.substitute(a, subst));
        }
        debug_assert!(
            head_buf.iter().all(|&a| store.is_ground(a)),
            "range restriction guarantees ground heads"
        );
        if let Some(limit) = budget.max_term_depth {
            if head_buf.iter().any(|&a| store.term_depth(a) > limit) {
                match budget.depth_policy {
                    DepthPolicy::Skip => {
                        stats.depth_skipped += 1;
                        if let Some(d) = deferred.as_deref_mut() {
                            d.insert((rule.head.pred, head_buf.as_slice().into()));
                        }
                        continue;
                    }
                    DepthPolicy::Error => {
                        return Err(EvalError::TermDepthExceeded { limit });
                    }
                }
            }
        }
        // One probe decides all three outcomes; the fact budget can only
        // fail on a head that is genuinely new.
        match db.insert_within(rule.head.pred, head_buf, budget.max_facts) {
            Inserted::New => new_facts += 1,
            Inserted::Duplicate => stats.duplicate_derivations += 1,
            Inserted::OverBudget => {
                return Err(EvalError::FactBudgetExceeded {
                    limit: budget.max_facts,
                });
            }
        }
    }
    stats.facts_derived += new_facts;
    Ok(new_facts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_atom, parse_program};

    fn run(src: &str, query: &str) -> (Vec<String>, EvalStats, usize) {
        let mut st = TermStore::new();
        let prog = parse_program(src, &mut st).unwrap();
        prog.validate(&st).unwrap();
        let q = parse_atom(query, &mut st).unwrap();
        let mut db = Database::new();
        let stats = seminaive(&prog, &mut st, &mut db, &EvalBudget::default()).unwrap();
        // The query's answers: its relation's rows that match its pattern.
        let mut out = Vec::new();
        for row in db.relation(q.pred).iter().flat_map(|rel| rel.rows().iter()) {
            let mut s = Subst::new();
            if (row.iter().zip(&q.args)).all(|(&g, &p)| st.match_term(p, g, &mut s)) {
                let cells: Vec<String> = row.iter().map(|&t| st.display(t)).collect();
                out.push(cells.join(","));
            }
        }
        out.sort();
        (out, stats, db.total_facts())
    }

    const TC: &str = r#"
        Edge@p(a, b). Edge@p(b, c). Edge@p(c, d).
        Path@p(X, Y) :- Edge@p(X, Y).
        Path@p(X, Y) :- Edge@p(X, Z), Path@p(Z, Y).
    "#;

    #[test]
    fn transitive_closure_seminaive_agrees() {
        let (rows, stats, _) = run(TC, "Path@p(X, Y)");
        assert_eq!(rows.len(), 6); // ab ac ad bc bd cd
        assert!(rows.contains(&"a,d".to_owned()));
        // The longest path needs three rounds.
        assert!(stats.iterations >= 3);
    }

    #[test]
    fn query_with_bound_argument_filters() {
        let (rows, _, _) = run(TC, "Path@p(b, Y)");
        assert_eq!(rows, vec!["b,c".to_owned(), "b,d".to_owned()]);
    }

    #[test]
    fn diseq_filters_matches() {
        let src = r#"
            N@p(a). N@p(b).
            Pair@p(X, Y) :- N@p(X), N@p(Y), X != Y.
        "#;
        let (rows, _, _) = run(src, "Pair@p(X, Y)");
        assert_eq!(rows, vec!["a,b".to_owned(), "b,a".to_owned()]);
    }

    #[test]
    fn function_symbols_construct_terms() {
        let src = r#"
            Seed@p(c0).
            Node@p(f(X)) :- Seed@p(X).
            Node@p(f(X)) :- Node@p(X), Stop@p(X).
        "#;
        let (rows, _, _) = run(src, "Node@p(X)");
        assert_eq!(rows, vec!["f(c0)".to_owned()]);
    }

    #[test]
    fn nonterminating_program_hits_budget() {
        let src = r#"
            Seed@p(c0).
            Node@p(f(X)) :- Seed@p(X).
            Node@p(f(X)) :- Node@p(X).
        "#;
        let mut st = TermStore::new();
        let prog = parse_program(src, &mut st).unwrap();
        let mut db = Database::new();
        let budget = EvalBudget {
            max_facts: 50,
            ..Default::default()
        };
        let err = seminaive(&prog, &mut st, &mut db, &budget).unwrap_err();
        assert_eq!(err, EvalError::FactBudgetExceeded { limit: 50 });
    }

    /// The merge phase's single probe keeps PR 2's rule: at the cap a
    /// duplicate derivation is not a failure, the next *new* head is.
    #[test]
    fn fact_budget_fails_on_the_first_new_head_not_on_a_duplicate_at_the_cap() {
        // A(a) A(b) B(a) B(b) C(c) fill the budget of 5 exactly; the
        // second firing of the C rule then re-derives C(c) at the cap.
        let at_cap = r#"
            A@p(a). A@p(b).
            B@p(X) :- A@p(X).
            C@p(c) :- B@p(X).
        "#;
        let budget = EvalBudget {
            max_facts: 5,
            ..Default::default()
        };
        let mut st = TermStore::new();
        let prog = parse_program(at_cap, &mut st).unwrap();
        let mut db = Database::new();
        let stats = seminaive(&prog, &mut st, &mut db, &budget).unwrap();
        assert_eq!((db.total_facts(), stats.duplicate_derivations), (5, 1));

        // One more rule after the duplicate: its first head is new.
        let past_cap = format!("{at_cap} D@p(X) :- B@p(X).");
        let mut st = TermStore::new();
        let prog = parse_program(&past_cap, &mut st).unwrap();
        let mut db = Database::new();
        let err = seminaive(&prog, &mut st, &mut db, &budget).unwrap_err();
        assert_eq!(err, EvalError::FactBudgetExceeded { limit: 5 });
        // The refused head left nothing behind, not even its relation.
        assert_eq!(db.total_facts(), 5);
        let d = parse_atom("D@p(X)", &mut st).unwrap().pred;
        assert!(db.relation(d).is_none());
    }

    #[test]
    fn depth_bound_truncates_model() {
        let src = r#"
            Seed@p(c0).
            Node@p(f(X)) :- Seed@p(X).
            Node@p(f(X)) :- Node@p(X).
        "#;
        let mut st = TermStore::new();
        let prog = parse_program(src, &mut st).unwrap();
        let mut db = Database::new();
        let budget = EvalBudget::depth_bounded(4);
        let stats = seminaive(&prog, &mut st, &mut db, &budget).unwrap();
        // c0 (depth 1) .. f(f(f(c0))) (depth 4): Seed + 3 Node facts.
        assert_eq!(db.total_facts(), 4);
        assert!(stats.depth_skipped > 0);
    }

    #[test]
    fn matching_function_patterns_in_bodies() {
        let src = r#"
            Wrap@p(g(a, b)).
            Wrap@p(g(b, c)).
            First@p(X) :- Wrap@p(g(X, Y)).
        "#;
        let (rows, _, _) = run(src, "First@p(X)");
        assert_eq!(rows, vec!["a".to_owned(), "b".to_owned()]);
    }

    #[test]
    fn seminaive_avoids_rederivation() {
        // On a linear chain, naive iteration would refire the recursive
        // rule for every already-known path each round; semi-naive only
        // extends the deltas, so each path is derived exactly once.
        let mut src = String::new();
        for i in 0..30 {
            src.push_str(&format!("Edge@p(n{}, n{}).\n", i, i + 1));
        }
        src.push_str("Path@p(X, Y) :- Edge@p(X, Y).\n");
        src.push_str("Path@p(X, Y) :- Edge@p(X, Z), Path@p(Z, Y).\n");
        let (rows, stats, _) = run(&src, "Path@p(X, Y)");
        assert_eq!(rows.len(), 30 * 31 / 2);
        assert_eq!(stats.rule_firings, rows.len());
        assert_eq!(stats.duplicate_derivations, 0);
    }

    #[test]
    fn traced_run_counters_match_stats() {
        // The collector is a second view on the same numbers: folded
        // counters must equal the returned EvalStats exactly.
        let mut st = TermStore::new();
        let prog = parse_program(TC, &mut st).unwrap();
        let mut db = Database::new();
        let collector = Collector::enabled();
        let opts = EvalOptions {
            collector: collector.clone(),
            ..Default::default()
        };
        let stats = seminaive_opts(&prog, &mut st, &mut db, &EvalBudget::default(), &opts).unwrap();
        let snap = collector.snapshot();
        assert_eq!(
            snap.counter("eval.facts_derived"),
            stats.facts_derived as u64
        );
        assert_eq!(snap.counter("eval.rule_firings"), stats.rule_firings as u64);
        assert_eq!(snap.counter("eval.iterations"), stats.iterations as u64);
        assert_eq!(
            snap.counter("eval.candidates_scanned"),
            stats.candidates_scanned as u64
        );
        assert!(collector.event_count() > 0, "spans should be recorded");
        assert_eq!(collector.dropped_events(), 0);
    }

    /// Each entry point compiles what its fixpoints can run: a one-shot run
    /// the Δ-passes its rounds scheduled, and a session every Δ-plan, so no
    /// resume compiles.
    #[test]
    fn each_entry_point_compiles_what_it_runs() {
        let mut st = TermStore::new();
        let prog = parse_program(TC, &mut st).unwrap();
        let traced = || EvalOptions {
            collector: Collector::enabled(),
            ..Default::default()
        };
        // The profile has one frame per (rule, variant) a round scheduled.
        let variants = |stats: &EvalStats| {
            let mut v: Vec<(String, String)> = (stats.per_rule.iter())
                .filter(|r| r.rule != "(seed)")
                .map(|r| (r.rule.clone(), r.variant.replace(" shared", "")))
                .collect();
            v.sort();
            v.dedup();
            v
        };

        let budget = EvalBudget::default();
        let mut db = Database::new();
        let semi = seminaive_opts(&prog, &mut st, &mut db, &budget, &traced()).unwrap();
        let scheduled = variants(&semi);
        assert!(scheduled.iter().all(|(_, v)| v.starts_with("delta#")));
        // Round 1 skips the recursive rule's Edge-Δ pass (Path is still
        // empty), so 2 of the 3 Δ-slots ever run.
        assert_eq!(scheduled.len(), 2);
        assert_eq!(semi.plans_compiled, scheduled.len());

        let session = EvalSession::new(prog, &mut st, budget).unwrap();
        let table = &session.compiled.as_ref().unwrap().table;
        assert_eq!(
            session.total_stats().plans_compiled,
            3,
            "one per positive atom"
        );
        assert_eq!(table.len(), 3);
    }

    #[test]
    fn stratified_traced_emits_stratum_spans() {
        let mut st = TermStore::new();
        let prog = parse_program(TC, &mut st).unwrap();
        let mut db = Database::new();
        let collector = Collector::enabled();
        let opts = EvalOptions {
            collector: collector.clone(),
            ..Default::default()
        };
        seminaive_stratified(&prog, &mut st, &mut db, &EvalBudget::default(), &opts).unwrap();
        let rollup = collector.span_rollup();
        assert!(
            rollup.keys().any(|k| k.starts_with("stratum ")),
            "no stratum span in {:?}",
            rollup.keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn stratified_agrees_with_seminaive() {
        for src in [
            TC,
            r#"
            Even@p(z).
            Even@p(s(N)) :- Odd@p(N).
            Odd@p(s(N)) :- Even@p(N), Fuel@p(N).
            Fuel@p(z). Fuel@p(s(z)).
            Probe@p(X) :- Even@p(X), Odd@p(X).
            "#,
        ] {
            let mut st = TermStore::new();
            let prog = parse_program(src, &mut st).unwrap();
            let mut db1 = Database::new();
            let mut db2 = Database::new();
            seminaive(&prog, &mut st, &mut db1, &EvalBudget::default()).unwrap();
            seminaive_stratified(
                &prog,
                &mut st,
                &mut db2,
                &EvalBudget::default(),
                &EvalOptions::default(),
            )
            .unwrap();
            assert_eq!(db1.total_facts(), db2.total_facts());
            for pred in db1.predicates() {
                for row in db1.relation(pred).unwrap().rows() {
                    assert!(db2.contains(pred, row));
                }
            }
        }
    }

    #[test]
    fn incremental_seminaive_absorbs_new_facts() {
        // Resuming from the session's watermarks: feeding facts in two
        // batches reaches the same fixpoint as feeding them at once.
        let rules = r#"
            Path@p(X, Y) :- Edge@p(X, Y).
            Path@p(X, Y) :- Edge@p(X, Z), Path@p(Z, Y).
        "#;
        let mut st = TermStore::new();
        let prog = parse_program(rules, &mut st).unwrap();
        let edge = rescue_pred(&mut st, "Edge");
        let path = rescue_pred(&mut st, "Path");
        let mut session = EvalSession::idle(prog, EvalBudget::default());
        // Batch 1: a -> b.
        let (a, b, c) = (st.constant("a"), st.constant("b"), st.constant("c"));
        session.resume(&mut st, [(edge, [a, b].into())]).unwrap();
        assert_eq!(session.database().count(path), 1);
        // Batch 2: b -> c — incremental run must derive a->c too.
        let s2 = session.resume(&mut st, [(edge, [b, c].into())]).unwrap();
        assert_eq!(session.database().count(path), 3);
        // And it did so without re-deriving the old fact.
        assert_eq!(s2.facts_derived, 2);
    }

    #[test]
    fn resume_keeps_the_facts_queued_behind_a_blown_budget() {
        let rules = "Edge@p(z, z). Path@p(X, Y) :- Edge@p(X, Y).";
        let mut st = TermStore::new();
        let prog = parse_program(rules, &mut st).unwrap();
        let edge = rescue_pred(&mut st, "Edge");
        let (a, b, c) = (st.constant("a"), st.constant("b"), st.constant("c"));
        let facts: [(PredId, Box<[TermId]>); 3] = [
            (edge, [a, b].into()),
            (edge, [b, c].into()),
            (edge, [c, a].into()),
        ];
        // The initial model is Edge(z,z), Path(z,z): room for one more.
        let budget = EvalBudget {
            max_facts: 3,
            ..Default::default()
        };
        let mut session = EvalSession::new(prog, &mut st, budget).unwrap();
        assert_eq!(session.database().total_facts(), 2);
        assert_eq!(
            session.resume(&mut st, facts.clone()),
            Err(EvalError::FactBudgetExceeded { limit: 3 })
        );
        assert!(session.database().contains(edge, &facts[0].1));
        assert_eq!(session.database().total_facts(), 3);
        assert_eq!(session.queue, facts[1..]);
    }

    fn rescue_pred(st: &mut TermStore, name: &str) -> crate::language::PredId {
        crate::language::PredId {
            name: st.sym(name),
            peer: crate::language::Peer(st.sym("p")),
        }
    }

    #[test]
    fn session_incremental_equals_batch() {
        // Injecting edges one at a time through an EvalSession reaches the
        // same model as evaluating with all edges present from the start.
        let rules = r#"
            Path@p(X, Y) :- Edge@p(X, Y).
            Path@p(X, Y) :- Edge@p(X, Z), Path@p(Z, Y).
        "#;
        let mut st = TermStore::new();
        let prog = parse_program(rules, &mut st).unwrap();
        let edge = rescue_pred(&mut st, "Edge");
        let path = rescue_pred(&mut st, "Path");
        let chain: Vec<TermId> = (0..8).map(|i| st.constant(&format!("n{i}"))).collect();

        let mut session = EvalSession::new(prog.clone(), &mut st, EvalBudget::default()).unwrap();
        for w in chain.windows(2) {
            session
                .resume(&mut st, [(edge, vec![w[0], w[1]].into_boxed_slice())])
                .unwrap();
        }

        let mut batch_db = Database::new();
        for w in chain.windows(2) {
            batch_db.insert(edge, [w[0], w[1]]);
        }
        seminaive(&prog, &mut st, &mut batch_db, &EvalBudget::default()).unwrap();

        assert_eq!(session.database().count(path), batch_db.count(path));
        for row in batch_db.relation(path).unwrap().rows() {
            assert!(session.database().contains(path, row));
        }
        // The session's last resume only extended by the new edge's paths;
        // it never re-derived the saturated prefix.
        assert_eq!(session.database().count(path), 7 + 6 + 5 + 4 + 3 + 2 + 1);
    }

    /// Every fact of `db`, sorted: a model comparable across databases
    /// whose term ids come from clones of one store.
    fn model(db: &Database) -> Vec<(PredId, Vec<TermId>)> {
        let mut facts: Vec<_> = (db.iter())
            .flat_map(|(p, rel)| rel.rows().iter().map(move |r| (p, r.to_vec())))
            .collect();
        facts.sort_unstable();
        facts
    }

    #[test]
    fn a_cloned_session_resumes_independently_and_shares_its_plans() {
        let rules = r#"
            Path@p(X, Y) :- Edge@p(X, Y).
            Path@p(X, Y) :- Edge@p(X, Z), Path@p(Z, Y).
        "#;
        let mut st = TermStore::new();
        let prog = parse_program(rules, &mut st).unwrap();
        let edge = rescue_pred(&mut st, "Edge");
        let n: Vec<TermId> = (0..6).map(|i| st.constant(&format!("n{i}"))).collect();
        let e = |a: usize, b: usize| (edge, Box::from([n[a], n[b]]));
        // Every term the sessions will meet is interned now, so each clone
        // of `st` below assigns the same ids.
        let prefix = [e(0, 1), e(1, 2)];
        let (left, right) = ([e(2, 3), e(3, 4)], [e(2, 5), e(5, 0)]);

        let mut st_a = st.clone();
        let mut a = EvalSession::new(prog.clone(), &mut st_a, EvalBudget::default()).unwrap();
        a.resume(&mut st_a, prefix.clone()).unwrap();
        let (mut b, mut st_b) = (a.clone(), st_a.clone());
        assert!(Arc::ptr_eq(&a.prog, &b.prog));
        a.resume(&mut st_a, left.clone()).unwrap();
        b.resume(&mut st_b, right.clone()).unwrap();

        for (session, tail) in [(&a, &left), (&b, &right)] {
            let mut st_f = st.clone();
            let mut fresh =
                EvalSession::new(prog.clone(), &mut st_f, EvalBudget::default()).unwrap();
            fresh.resume(&mut st_f, prefix.clone()).unwrap();
            fresh.resume(&mut st_f, tail.clone()).unwrap();
            assert_eq!(model(session.database()), model(fresh.database()));
            assert_eq!(session.total_stats(), fresh.total_stats());
        }

        // A cache miss on one clone compiles into its own Arc: the
        // sibling keeps the shared compile and never recompiles.
        let shared = a.compiled.clone().expect("compiled by the first resume");
        b.set_options(EvalOptions {
            plan_cache: false,
            ..Default::default()
        });
        let compiled_a = a.total_stats().plans_compiled;
        assert!(b.resume(&mut st_b, [e(4, 0)]).unwrap().plans_compiled > 0);
        assert_eq!(a.resume(&mut st_a, [e(4, 0)]).unwrap().plans_compiled, 0);
        assert_eq!(a.total_stats().plans_compiled, compiled_a);
        assert!(Arc::ptr_eq(a.compiled.as_ref().unwrap(), &shared));
        assert!(!Arc::ptr_eq(b.compiled.as_ref().unwrap(), &shared));
    }

    #[test]
    fn a_warm_resume_equals_a_one_shot_run_over_every_fact_so_far() {
        let src = r#"
            Seed@p(c0).
            Orphan@p(o1).
            Node@p(f(X)) :- Seed@p(X).
            Node@p(f(X)) :- Node@p(X).
            Pair@p(X, Y) :- Node@p(X), Mark@p(Y).
            Link@p(X, Y) :- Edge@p(X, Y).
            Link@p(X, Z) :- Link@p(X, Y), Edge@p(Y, Z).
            Tag@p(g(X, Y)) :- Link@p(X, Y), Pair@p(Y, Z).
        "#;
        let mut st = TermStore::new();
        let prog = parse_program(src, &mut st).unwrap();
        enum Step {
            /// Facts to push, in program syntax.
            Push(&'static str),
            Depth(u32),
            Options(EvalOptions),
        }
        // The session starts on source-order plans without SIP filters and
        // switches to the default ones, whose compile needs indexes the
        // first one never sealed.
        let plain = EvalOptions {
            order: JoinOrder::Leftmost,
            sip_filters: false,
            ..Default::default()
        };
        let steps = [
            Step::Push(""),
            Step::Push("Edge@p(a, b). Edge@p(b, f(c0))."),
            Step::Push(""),
            // `Noise` is in no rule; `Orphan` is in the program, read by none.
            Step::Push("Noise@q(z). Orphan@p(o2)."),
            Step::Depth(4),
            Step::Push("Mark@p(m1)."),
            Step::Push(""),
            Step::Options(EvalOptions::default()),
            Step::Push("Edge@p(d, a)."),
            Step::Depth(6),
            Step::Push("Mark@p(a). Edge@p(f(c0), d)."),
            Step::Push(""),
        ];

        let mut depth = 3;
        let mut session = EvalSession::idle(prog.clone(), EvalBudget::depth_bounded(depth));
        session.set_options(plain);
        session.resume(&mut st, []).unwrap();
        let mut pushed: Vec<(PredId, Box<[TermId]>)> = Vec::new();
        // Heads the session re-queued from its deferred frontier. A one-shot
        // run at the raised bound derives each of them, where the session
        // counted its derivations as depth-skipped and then inserted it.
        let mut replayed = 0;
        let mut compiles = session.total_stats().plans_compiled;
        for (i, step) in steps.into_iter().enumerate() {
            let miss = matches!(step, Step::Options(_));
            match step {
                Step::Push(src) => {
                    let rules = parse_program(src, &mut st).unwrap().rules;
                    let facts: Vec<(PredId, Box<[TermId]>)> = (rules.into_iter())
                        .map(|r| (r.head.pred, r.head.args.into()))
                        .collect();
                    pushed.extend(facts.iter().cloned());
                    session.resume(&mut st, facts).unwrap();
                }
                Step::Depth(d) => {
                    depth = d;
                    let before = session.deferred_len();
                    session.set_depth_bound(&st, d);
                    replayed += before - session.deferred_len();
                    session.resume(&mut st, []).unwrap();
                }
                Step::Options(options) => {
                    session.set_options(options);
                    session.resume(&mut st, []).unwrap();
                }
            }
            let mut db = Database::new();
            for (p, row) in &pushed {
                db.insert(*p, row);
            }
            let budget = EvalBudget::depth_bounded(depth);
            let one_shot = seminaive(&prog, &mut st, &mut db, &budget).unwrap();
            assert_eq!(model(session.database()), model(&db), "model at step {i}");
            let s = session.total_stats();
            assert_eq!(
                (
                    s.facts_derived + replayed,
                    s.rule_firings,
                    s.duplicate_derivations + s.depth_skipped - replayed,
                ),
                (
                    one_shot.facts_derived,
                    one_shot.rule_firings,
                    one_shot.duplicate_derivations + one_shot.depth_skipped,
                ),
                "counters at step {i}"
            );
            if replayed == 0 {
                assert_eq!(
                    (s.facts_derived, s.duplicate_derivations, s.depth_skipped),
                    (
                        one_shot.facts_derived,
                        one_shot.duplicate_derivations,
                        one_shot.depth_skipped
                    ),
                    "counters at step {i}"
                );
            }
            assert_eq!(s.plans_compiled > compiles, miss, "compiles at step {i}");
            compiles = s.plans_compiled;
        }
        assert!(replayed > 0, "a raised bound replayed deferred heads");
    }

    #[test]
    fn session_replays_deferred_heads_when_bound_grows() {
        // f-chain generator truncated at depth 2, then the bound is raised
        // step by step; the session must match a fresh run at each bound.
        let src = r#"
            Seed@p(c0).
            Node@p(f(X)) :- Seed@p(X).
            Node@p(f(X)) :- Node@p(X).
        "#;
        let mut st = TermStore::new();
        let prog = parse_program(src, &mut st).unwrap();
        let node = rescue_pred(&mut st, "Node");

        let mut session =
            EvalSession::new(prog.clone(), &mut st, EvalBudget::depth_bounded(2)).unwrap();
        assert_eq!(session.database().count(node), 1); // f(c0)
        assert_eq!(session.deferred_len(), 1); // f(f(c0)) suppressed

        for depth in 3..=6 {
            session.set_depth_bound(&st, depth);
            session.resume(&mut st, []).unwrap();

            let mut fresh = Database::new();
            seminaive(
                &prog,
                &mut st,
                &mut fresh,
                &EvalBudget::depth_bounded(depth),
            )
            .unwrap();
            assert_eq!(
                session.database().count(node),
                fresh.count(node),
                "model diverged at depth {depth}"
            );
        }
    }

    #[test]
    fn session_rejects_negation() {
        let src = r#"
            Node@p(a).
            Bad@p(X) :- Node@p(X), not Node@p(X).
        "#;
        let mut st = TermStore::new();
        let prog = parse_program(src, &mut st).unwrap();
        assert_eq!(
            EvalSession::new(prog, &mut st, EvalBudget::default()).err(),
            Some(EvalError::NegationRequiresStratification)
        );
    }

    #[test]
    fn stratified_negation_computes_complement() {
        // Remark 4 flavour: unreachable = nodes with no path from the
        // source — needs negation, evaluated stratum by stratum.
        let src = r#"
            Node@p(a). Node@p(b). Node@p(c). Node@p(d).
            Edge@p(a, b). Edge@p(b, c).
            Reach@p(a).
            Reach@p(Y) :- Reach@p(X), Edge@p(X, Y).
            Unreach@p(X) :- Node@p(X), not Reach@p(X).
        "#;
        let mut st = TermStore::new();
        let prog = parse_program(src, &mut st).unwrap();
        prog.validate(&st).unwrap();
        assert!(prog.has_negation());
        // Non-stratified entry points refuse.
        let mut db = Database::new();
        assert_eq!(
            seminaive(&prog, &mut st, &mut db, &EvalBudget::default()),
            Err(EvalError::NegationRequiresStratification)
        );
        // The stratified engine computes the complement.
        let mut db = Database::new();
        let opts = EvalOptions::default();
        seminaive_stratified(&prog, &mut st, &mut db, &EvalBudget::default(), &opts).unwrap();
        let unreach = crate::language::PredId {
            name: st.sym_get("Unreach").unwrap(),
            peer: crate::language::Peer(st.sym_get("p").unwrap()),
        };
        let got: Vec<String> = db
            .relation(unreach)
            .unwrap()
            .rows()
            .iter()
            .map(|r| st.display(r[0]))
            .collect();
        assert_eq!(got, vec!["d"]);
    }

    #[test]
    fn negation_through_recursion_is_rejected() {
        let src = r#"
            Base@p(a).
            Win@p(X) :- Base@p(X), not Lose@p(X).
            Lose@p(X) :- Base@p(X), not Win@p(X).
        "#;
        let mut st = TermStore::new();
        let prog = parse_program(src, &mut st).unwrap();
        let mut db = Database::new();
        let opts = EvalOptions::default();
        let err = seminaive_stratified(&prog, &mut st, &mut db, &EvalBudget::default(), &opts)
            .unwrap_err();
        assert!(matches!(err, EvalError::NotStratified { .. }));
    }

    #[test]
    fn unsafe_negation_rejected_by_validation() {
        let src = "Bad@p(X) :- Node@p(X), not Edge@p(X, Y).";
        let mut st = TermStore::new();
        let prog = parse_program(src, &mut st).unwrap();
        assert!(matches!(
            prog.validate(&st),
            Err(crate::language::ValidationError::UnsafeNegatedVar { .. })
        ));
    }

    #[test]
    fn cross_peer_rules_evaluate() {
        let src = r#"
            A@r(x1, x2).
            B@s(x2, x3).
            J@r(X, Z) :- A@r(X, Y), B@s(Y, Z).
        "#;
        let (rows, _, _) = run(src, "J@r(X, Z)");
        assert_eq!(rows, vec!["x1,x3".to_owned()]);
    }
}
