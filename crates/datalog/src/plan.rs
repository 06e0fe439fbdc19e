//! Compiled rule plans and the streaming join executor.
//!
//! The interpreted join walked every rule body leftmost-first, re-deciding
//! at every recursion step which columns were ground (substituting all
//! pattern arguments), copying candidate lists through freshly allocated
//! `Vec`s, and cloning a full [`Subst`] per complete match. This module
//! compiles each [`Rule`] once, ahead of its joins, into a [`RulePlan`]:
//!
//! * **atom order** — positive body atoms are reordered by a bound-variable
//!   heuristic: the ground-most atom first, then greedily the atom with the
//!   most statically bound columns, with a deterministic tie-break on the
//!   original body position ([`JoinOrder::Planned`]); [`JoinOrder::Leftmost`]
//!   keeps the source order and exists as the experiment baseline;
//! * **column masks and key slots** — which columns of each atom are ground
//!   under the bindings of the *earlier* plan atoms is a static property, so
//!   the index mask and the recipe for each key column (`KeySlot`) are
//!   precomputed; the executor never substitutes a pattern just to discover
//!   it is still open;
//! * **check schedules** — every disequality and negated atom is pinned to
//!   the earliest plan step after which it is ground, instead of being
//!   re-tested (disequalities) or deferred to complete matches (negation);
//! * **streaming matches** — the executor drives an `emit` callback per
//!   complete match with the live binding stack; nothing is cloned and no
//!   match set is materialized. Candidate row ids are copied into per-depth
//!   scratch buffers ([`JoinScratch`]) that are reused across every rule
//!   firing of a fixpoint, so the steady-state join allocates nothing;
//! * **read-only execution** — [`RulePlan::execute`] takes `&TermStore` and
//!   `&Database`: it never interns a term (keys use
//!   [`TermStore::substitute_existing`], disequalities use
//!   [`TermStore::eq_under_subst`]) and never writes a fact, so what a
//!   pass matches is a pure function of the round's sealed snapshot
//!   (DESIGN.md §10); matches are buffered as head-variable bindings
//!   (`run_job`) for the driver's merge phase. The indexes a plan probes
//!   are a static property ([`RulePlan::index_needs`]) prepared by the
//!   driver before execution.
//!
//! Index probes are *delta-aware*: each atom's row range `[lo, hi)` (the
//! semi-naive old/Δ/new windows) is resolved by
//! [`Relation::lookup_range_into`](crate::database::Relation::lookup_range_into),
//! which walks the key's newest-first row chain only as far down as the
//! window reaches.

use crate::database::{ColMask, Database};
use crate::eval::EvalError;
use crate::language::{Diseq, PredId, Rule};
use crate::symbol::Sym;
use crate::term::{Subst, TermData, TermId, TermStore};
use rustc_hash::FxHashMap;

/// Which body-atom order the executor follows.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JoinOrder {
    /// Selectivity-ordered: ground-most atom first, then greedily the atom
    /// with the most bound columns (tie-break: original position).
    Planned,
    /// The source order of the rule body — the pre-plan behaviour, kept as
    /// the measurable baseline (experiment E12).
    Leftmost,
}

/// How to produce one ground key column at probe time.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum KeySlot {
    /// The pattern is ground at compile time; the key is the term itself.
    Const(TermId),
    /// The pattern is a bare variable bound by an earlier plan step.
    Var(Sym),
    /// A function pattern whose variables are all bound: substitute.
    Pattern(TermId),
}

/// A sideways-information-passing existence probe: after this step binds
/// its variables, a *later* plan atom (two or more steps away) has some of
/// its columns newly ground. If that atom has **no** row matching those
/// columns in its frozen window, no binding reachable from here can
/// complete the body — the candidate is pruned without enumerating the
/// intermediate steps (Yannakakis-style semi-join reduction).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct ExistCheck {
    pred: PredId,
    /// Position of the probed atom in the original body (its window).
    body_idx: usize,
    /// The columns ground after this step (may be a subset of the mask the
    /// atom is eventually probed with — existence under fewer bound
    /// columns is the weaker, still necessary condition).
    mask: ColMask,
    key: Vec<KeySlot>,
}

/// One positive body atom, compiled.
#[derive(Clone, Debug)]
struct AtomStep {
    /// Position in the original rule body (selects the semi-naive range).
    body_idx: usize,
    pred: PredId,
    /// Columns ground under the bindings of earlier plan steps.
    mask: ColMask,
    /// Key recipes, one per set bit of `mask`, in column order.
    key: Vec<KeySlot>,
    /// Open columns: `(column, pattern)` pairs matched against each
    /// candidate row (binding new variables).
    match_cols: Vec<(usize, TermId)>,
    /// Disequalities whose two sides first become ground after this step.
    diseqs: Vec<Diseq>,
    /// Negated body atoms (by body position) first ground after this step.
    negs: Vec<usize>,
    /// SIP existence probes for later atoms whose ground mask grew here.
    exists: Vec<ExistCheck>,
}

/// A compiled rule body: ordered atom steps plus the checks that are
/// already ground before the first step (constant disequalities, variable
/// free negations, or — with a pre-seeded substitution — anything bound by
/// the caller).
#[derive(Clone, Debug)]
pub struct RulePlan {
    steps: Vec<AtomStep>,
    initial_diseqs: Vec<Diseq>,
    initial_negs: Vec<usize>,
    reordered: bool,
}

/// `true` iff every variable of `t` is in `bound`.
fn ground_under(store: &TermStore, t: TermId, bound: &[Sym]) -> bool {
    if store.is_ground(t) {
        return true;
    }
    match store.data(t) {
        TermData::Const(_) => true,
        TermData::Var(v) => bound.contains(v),
        TermData::App(_, args) => args.iter().all(|&a| ground_under(store, a, bound)),
    }
}

fn add_vars(store: &TermStore, t: TermId, bound: &mut Vec<Sym>) {
    store.collect_vars(t, bound);
}

fn diseq_ground(store: &TermStore, d: &Diseq, bound: &[Sym]) -> bool {
    ground_under(store, d.lhs, bound) && ground_under(store, d.rhs, bound)
}

impl RulePlan {
    /// Compile `rule` for execution. `initial_bound` names variables the
    /// caller will have bound in the substitution before
    /// [`execute`](Self::execute) — empty for fixpoint evaluation,
    /// the head variables for provenance reconstruction (which matches the
    /// stored fact against the head first).
    pub fn compile(
        rule: &Rule,
        store: &TermStore,
        order: JoinOrder,
        initial_bound: &[Sym],
    ) -> RulePlan {
        Self::compile_inner(rule, store, order, initial_bound, None, false)
    }

    /// [`compile`](Self::compile) / [`compile_delta`](Self::compile_delta)
    /// with the SIP existence filter toggled explicitly — the fixpoint
    /// driver's entry point ([`EvalOptions::sip_filters`]).
    ///
    /// [`EvalOptions::sip_filters`]: crate::eval::EvalOptions::sip_filters
    pub fn compile_opts(
        rule: &Rule,
        store: &TermStore,
        order: JoinOrder,
        initial_bound: &[Sym],
        delta_idx: Option<usize>,
        sip: bool,
    ) -> RulePlan {
        Self::compile_inner(rule, store, order, initial_bound, delta_idx, sip)
    }

    /// Compile the semi-naive Δ-pass variant: body atom `delta_idx` (which
    /// must be positive) is restricted to the delta window, so under
    /// [`JoinOrder::Planned`] it is enumerated *first* — the delta is the
    /// smallest window of the pass, and every later atom then probes with
    /// its variables bound. [`JoinOrder::Leftmost`] ignores the hint.
    pub fn compile_delta(
        rule: &Rule,
        store: &TermStore,
        order: JoinOrder,
        initial_bound: &[Sym],
        delta_idx: usize,
    ) -> RulePlan {
        Self::compile_inner(rule, store, order, initial_bound, Some(delta_idx), false)
    }

    fn compile_inner(
        rule: &Rule,
        store: &TermStore,
        order: JoinOrder,
        initial_bound: &[Sym],
        delta_idx: Option<usize>,
        sip: bool,
    ) -> RulePlan {
        let positive: Vec<usize> = (0..rule.body.len())
            .filter(|&i| !rule.body[i].negated)
            .collect();

        // Number of columns of atom `i` ground under `bound`.
        let bound_cols = |i: usize, bound: &[Sym]| -> usize {
            rule.body[i]
                .args
                .iter()
                .filter(|&&a| ground_under(store, a, bound))
                .count()
        };

        // Choose the atom order.
        let chosen: Vec<usize> = match order {
            JoinOrder::Leftmost => positive.clone(),
            JoinOrder::Planned => {
                let mut bound: Vec<Sym> = initial_bound.to_vec();
                let mut remaining = positive.clone();
                let mut out = Vec::with_capacity(remaining.len());
                // Δ-pass variant: lead with the delta atom — but only when
                // no other atom enters better keyed (a strictly higher
                // initial score means an index probe that is almost
                // certainly more selective than enumerating the delta
                // window of a possibly large relation).
                if let Some(j) = delta_idx {
                    let best = positive
                        .iter()
                        .map(|&i| bound_cols(i, &bound))
                        .max()
                        .unwrap_or(0);
                    if bound_cols(j, &bound) >= best {
                        let slot = remaining
                            .iter()
                            .position(|&i| i == j)
                            .expect("delta atom must be positive");
                        remaining.remove(slot);
                        for &a in &rule.body[j].args {
                            add_vars(store, a, &mut bound);
                        }
                        out.push(j);
                    }
                }
                while !remaining.is_empty() {
                    // Most statically bound columns wins; ties go to the
                    // earlier body position (deterministic, and identical
                    // to Leftmost when nothing distinguishes the atoms).
                    let (slot, _) = remaining
                        .iter()
                        .enumerate()
                        .max_by_key(|&(_, &i)| (bound_cols(i, &bound), std::cmp::Reverse(i)))
                        .expect("remaining is nonempty");
                    let i = remaining.remove(slot);
                    for &a in &rule.body[i].args {
                        add_vars(store, a, &mut bound);
                    }
                    out.push(i);
                }
                out
            }
        };
        let reordered = chosen != positive;

        // Schedule checks and precompute masks along the chosen order.
        let mut bound: Vec<Sym> = initial_bound.to_vec();
        let mut diseq_done = vec![false; rule.diseqs.len()];
        let mut neg_done: Vec<bool> = rule.body.iter().map(|a| !a.negated).collect();

        let mut initial_diseqs = Vec::new();
        for (di, d) in rule.diseqs.iter().enumerate() {
            if diseq_ground(store, d, &bound) {
                diseq_done[di] = true;
                initial_diseqs.push(*d);
            }
        }
        let mut initial_negs = Vec::new();
        for (ni, atom) in rule.body.iter().enumerate() {
            if atom.negated && atom.args.iter().all(|&a| ground_under(store, a, &bound)) {
                neg_done[ni] = true;
                initial_negs.push(ni);
            }
        }

        let mut steps = Vec::with_capacity(chosen.len());
        // Snapshot of the bound-variable set after each step — the SIP
        // post-pass below re-derives which later atoms' masks grew where.
        let mut bound_after: Vec<Vec<Sym>> = Vec::with_capacity(chosen.len());
        for &i in &chosen {
            let atom = &rule.body[i];
            let mut mask: ColMask = 0;
            let mut key = Vec::new();
            let mut match_cols = Vec::new();
            for (col, &a) in atom.args.iter().enumerate() {
                if ground_under(store, a, &bound) {
                    mask |= 1 << col;
                    key.push(if store.is_ground(a) {
                        KeySlot::Const(a)
                    } else if let TermData::Var(v) = store.data(a) {
                        KeySlot::Var(*v)
                    } else {
                        KeySlot::Pattern(a)
                    });
                } else {
                    match_cols.push((col, a));
                }
            }
            for &a in &atom.args {
                add_vars(store, a, &mut bound);
            }
            let mut diseqs = Vec::new();
            for (di, d) in rule.diseqs.iter().enumerate() {
                if !diseq_done[di] && diseq_ground(store, d, &bound) {
                    diseq_done[di] = true;
                    diseqs.push(*d);
                }
            }
            let mut negs = Vec::new();
            for (ni, natom) in rule.body.iter().enumerate() {
                if !neg_done[ni] && natom.args.iter().all(|&a| ground_under(store, a, &bound)) {
                    neg_done[ni] = true;
                    negs.push(ni);
                }
            }
            steps.push(AtomStep {
                body_idx: i,
                pred: atom.pred,
                mask,
                key,
                match_cols,
                diseqs,
                negs,
                exists: Vec::new(),
            });
            bound_after.push(bound.clone());
        }
        debug_assert!(
            diseq_done.iter().all(|&d| d) && neg_done.iter().all(|&n| n),
            "range restriction / negation safety guarantee every check schedules"
        );

        if sip {
            // SIP existence filters: at step `k`, probe every atom two or
            // more steps away whose set of ground columns grew when `k`
            // bound its variables. The atom immediately after `k` is
            // skipped — its own keyed probe at step `k+1` is the same
            // lookup, so a check there prunes nothing earlier.
            let key_slot = |a: TermId, bound: &[Sym]| {
                if store.is_ground(a) {
                    KeySlot::Const(a)
                } else if let TermData::Var(v) = store.data(a) {
                    debug_assert!(bound.contains(v));
                    KeySlot::Var(*v)
                } else {
                    KeySlot::Pattern(a)
                }
            };
            let step_body: Vec<usize> = steps.iter().map(|s| s.body_idx).collect();
            let mask_of = |body_idx: usize, bound: &[Sym]| -> ColMask {
                let mut mask: ColMask = 0;
                for (col, &a) in rule.body[body_idx].args.iter().enumerate() {
                    if ground_under(store, a, bound) {
                        mask |= 1 << col;
                    }
                }
                mask
            };
            for k in 0..step_body.len() {
                for &later in step_body.get((k + 2)..).unwrap_or(&[]) {
                    let now = mask_of(later, &bound_after[k]);
                    let before = if k == 0 {
                        mask_of(later, initial_bound)
                    } else {
                        mask_of(later, &bound_after[k - 1])
                    };
                    if now == 0 || now == before {
                        continue;
                    }
                    let atom = &rule.body[later];
                    let key: Vec<KeySlot> = atom
                        .args
                        .iter()
                        .enumerate()
                        .filter(|&(col, _)| now & (1 << col) != 0)
                        .map(|(_, &a)| key_slot(a, &bound_after[k]))
                        .collect();
                    steps[k].exists.push(ExistCheck {
                        pred: atom.pred,
                        body_idx: later,
                        mask: now,
                        key,
                    });
                }
            }
        }

        RulePlan {
            steps,
            initial_diseqs,
            initial_negs,
            reordered,
        }
    }

    /// Did [`JoinOrder::Planned`] move any atom off its source position?
    pub fn reordered(&self) -> bool {
        self.reordered
    }

    /// The `(predicate, column-mask)` pairs this plan probes — exactly the
    /// indexes [`Database::prepare_index`] must build before the read-only
    /// executor runs (probing cannot build an index from `&Database`).
    pub fn index_needs(&self) -> impl Iterator<Item = (PredId, ColMask)> + '_ {
        self.steps
            .iter()
            .filter(|s| s.mask != 0)
            .map(|s| (s.pred, s.mask))
            .chain(
                self.steps
                    .iter()
                    .flat_map(|s| s.exists.iter().map(|e| (e.pred, e.mask))),
            )
    }

    /// Is some positive atom's window empty under `ranges` (in which case
    /// the join trivially has no matches)?
    pub(crate) fn has_empty_window(&self, ranges: &[(usize, usize)]) -> bool {
        self.steps.iter().any(|s| {
            let (lo, hi) = ranges[s.body_idx];
            lo >= hi
        })
    }

    /// Plans with checks that run *before* the first step never join a
    /// shared-prefix group: the group executor has nowhere to put them.
    pub(crate) fn share_blocked(&self) -> bool {
        !self.initial_diseqs.is_empty() || !self.initial_negs.is_empty()
    }

    pub(crate) fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// Per-step sharing signatures (see [`StepMeta`]), interned through
    /// `sigs`. Computed once per compiled plan.
    pub(crate) fn step_metas(&self, sigs: &mut SigInterner) -> Vec<StepMeta> {
        self.steps
            .iter()
            .map(|s| {
                let sig = sigs.intern(StepSig {
                    pred: s.pred,
                    mask: s.mask,
                    key: s.key.clone(),
                    match_cols: s.match_cols.clone(),
                    diseqs: s.diseqs.iter().map(|d| (d.lhs, d.rhs)).collect(),
                    exists: s.exists.clone(),
                });
                let mut range_idxs = vec![s.body_idx];
                range_idxs.extend(s.exists.iter().map(|e| e.body_idx));
                StepMeta {
                    sig,
                    range_idxs,
                    // Negations probe the whole relation (not a window), so
                    // their semantics depend on nothing the signature
                    // captures — conservatively end the shareable prefix.
                    shareable: s.negs.is_empty(),
                }
            })
            .collect()
    }

    /// Enumerate every match of the rule body, with each positive atom `i`
    /// of the *original* body restricted to rows `ranges[i].0 ..
    /// ranges[i].1` of its relation. `emit` runs once per complete match
    /// with the live substitution (negations and disequalities already
    /// checked); it returns `Ok(false)` to stop the enumeration early.
    /// Returns `Ok(false)` iff `emit` stopped the run.
    ///
    /// The executor is **read-only**: `store` and `db` are shared
    /// references. Every index the plan probes (see
    /// [`index_needs`](Self::index_needs)) must have been prepared, and
    /// head interning / fact insertion belongs to the caller's merge
    /// phase, not to `emit`.
    ///
    /// `subst` may be pre-seeded by the caller, but only with the
    /// variables declared via `initial_bound` at compile time.
    #[allow(clippy::too_many_arguments)]
    pub fn execute(
        &self,
        rule: &Rule,
        store: &TermStore,
        db: &Database,
        ranges: &[(usize, usize)],
        subst: &mut Subst,
        scratch: &mut JoinScratch,
        emit: &mut impl FnMut(&Subst) -> Result<bool, EvalError>,
    ) -> Result<bool, EvalError> {
        scratch.ensure_depth(self.steps.len());
        // If any positive atom's window is empty the join has no matches;
        // bail before enumerating anything (regardless of plan order).
        if self.has_empty_window(ranges) {
            return Ok(true);
        }
        for d in &self.initial_diseqs {
            if store.eq_under_subst(d.lhs, d.rhs, subst) {
                return Ok(true);
            }
        }
        for &ni in &self.initial_negs {
            if neg_holds(store, db, &rule.body[ni], subst, &mut scratch.neg_key) {
                return Ok(true);
            }
        }
        self.step(0, rule, store, db, ranges, subst, scratch, emit)
    }

    #[allow(clippy::too_many_arguments)]
    fn step(
        &self,
        depth: usize,
        rule: &Rule,
        store: &TermStore,
        db: &Database,
        ranges: &[(usize, usize)],
        subst: &mut Subst,
        scratch: &mut JoinScratch,
        emit: &mut impl FnMut(&Subst) -> Result<bool, EvalError>,
    ) -> Result<bool, EvalError> {
        let Some(step) = self.steps.get(depth) else {
            return emit(subst);
        };
        let (lo, hi) = ranges[step.body_idx];
        if lo >= hi {
            return Ok(true);
        }

        // Candidate row ids are copied into this depth's scratch buffer.
        // The buffers are taken out of the scratch for the duration of the
        // loop and put back afterwards, preserving their capacity across
        // firings.
        let mut cands = std::mem::take(&mut scratch.frames[depth].cands);
        cands.clear();
        if step.mask != 0 {
            let mut key = std::mem::take(&mut scratch.frames[depth].key);
            key.clear();
            let mut key_exists = true;
            for slot in &step.key {
                match slot {
                    KeySlot::Const(t) => key.push(*t),
                    KeySlot::Var(v) => key.push(subst.get(*v).expect("plan: key variable unbound")),
                    // A key term that was never interned cannot equal any
                    // stored row: the probe (still counted) finds nothing.
                    KeySlot::Pattern(t) => match store.substitute_existing(*t, subst) {
                        Some(k) => key.push(k),
                        None => {
                            key_exists = false;
                            break;
                        }
                    },
                }
            }
            scratch.index_probes += 1;
            if key_exists {
                db.relation(step.pred)
                    .expect("nonempty window implies the relation exists")
                    .lookup_range_into(step.mask, &key, lo, hi, &mut cands);
            }
            scratch.frames[depth].key = key;
        } else {
            cands.extend(lo as u32..hi as u32);
        }
        scratch.candidates_scanned += cands.len();

        let mut cont = true;
        for &cand in &cands {
            let mark = subst.mark();
            let mut ok = true;
            if !step.match_cols.is_empty() {
                let row = db
                    .relation(step.pred)
                    .expect("candidate row exists")
                    .row(cand);
                for &(col, pat) in &step.match_cols {
                    if !store.match_term(pat, row[col], subst) {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                for d in &step.diseqs {
                    if store.eq_under_subst(d.lhs, d.rhs, subst) {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                for &ni in &step.negs {
                    if neg_holds(store, db, &rule.body[ni], subst, &mut scratch.neg_key) {
                        ok = false;
                        break;
                    }
                }
            }
            if ok && !step.exists.is_empty() {
                for ec in &step.exists {
                    if !exist_holds(ec, store, db, ranges, subst, scratch) {
                        scratch.sip_filtered += 1;
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                cont = self.step(depth + 1, rule, store, db, ranges, subst, scratch, emit)?;
            }
            subst.truncate(mark);
            if !cont {
                break;
            }
        }
        scratch.frames[depth].cands = cands;
        Ok(cont)
    }
}

/// The sharing signature of one compiled step: two steps with equal
/// signatures, run over equal row windows, enumerate the same candidates
/// and extend the substitution identically (key slots and match patterns
/// are hash-consed term ids, so structural equality is id equality).
#[derive(Clone, PartialEq, Eq, Hash)]
struct StepSig {
    pred: PredId,
    mask: ColMask,
    key: Vec<KeySlot>,
    match_cols: Vec<(usize, TermId)>,
    diseqs: Vec<(TermId, TermId)>,
    exists: Vec<ExistCheck>,
}

/// Interner mapping [`StepSig`]s to dense ids, one per compile (a one-shot
/// run's plans, compiled as its rounds first schedule them, share one) —
/// the round driver compares steps by id instead of re-hashing structures.
#[derive(Default)]
pub(crate) struct SigInterner {
    map: FxHashMap<StepSig, u32>,
}

impl SigInterner {
    fn intern(&mut self, sig: StepSig) -> u32 {
        let next = self.map.len() as u32;
        *self.map.entry(sig).or_insert(next)
    }
}

/// Per-step sharing metadata of a compiled plan: the interned signature,
/// which body positions' runtime windows must coincide for two passes to
/// share the step, and whether the prefix may extend past it.
#[derive(Clone)]
pub(crate) struct StepMeta {
    pub sig: u32,
    /// The step's own atom first, then each existence check's atom.
    pub range_idxs: Vec<usize>,
    pub shareable: bool,
}

/// A pass of the current round as the shared-prefix executor sees it,
/// indexed by pass position in the round's pass list.
pub(crate) struct SharedPass<'a> {
    pub rule: &'a Rule,
    pub plan: &'a RulePlan,
    pub head_vars: &'a [Sym],
    pub ranges: &'a [(usize, usize)],
}

/// One pass's matches, in the order the executor emitted them.
#[derive(Default)]
pub(crate) struct PassOutput {
    /// Head-variable bindings, flattened: `firings × head_vars.len()`
    /// term ids. Empty (with `firings` counting) for ground-head rules.
    pub rows: Vec<TermId>,
    /// Complete body matches enumerated.
    pub firings: usize,
}

/// One enumeration job of a round, and with it one unit of the merge
/// order: a solo pass (by position in the round's pass list), or a whole
/// shared-prefix group.
pub(crate) enum Job<'a> {
    Solo(usize),
    Group(&'a ShareGroup),
}

/// Everything one job produced: per-pass match streams plus the job's
/// join-work counters (shared-prefix work belongs to the job, not to any
/// single member pass). The driver reuses one across a whole fixpoint, so
/// steady-state rounds allocate nothing per job.
#[derive(Default)]
pub(crate) struct JobOutput {
    /// The match streams: one for a solo job, the group's members in
    /// ascending order for a group job.
    pub passes: Vec<PassOutput>,
    /// Cleared [`PassOutput`]s with their row capacity intact, ready for
    /// the next job that runs through this buffer.
    spare: Vec<PassOutput>,
    /// Index probes issued by this job's executor.
    pub probes: usize,
    /// Candidate rows enumerated by this job's executor.
    pub cands: usize,
    /// Bindings pruned by SIP existence probes.
    pub sip: usize,
    /// Wall microseconds this job spent enumerating. Only filled when the
    /// job is `timed` (profiling); 0 otherwise, so untimed runs never read
    /// the clock per job.
    pub wall_us: u64,
}

impl JobOutput {
    fn clear(&mut self) {
        while let Some(mut po) = self.passes.pop() {
            po.rows.clear();
            po.firings = 0;
            self.spare.push(po);
        }
        self.probes = 0;
        self.cands = 0;
        self.sip = 0;
        self.wall_us = 0;
    }

    /// A cleared per-pass buffer, recycled when one is available.
    fn take_spare(&mut self) -> PassOutput {
        self.spare.pop().unwrap_or_default()
    }
}

/// Run one job over the sealed snapshot, collecting matches into `out`.
/// Nothing is interned and nothing is inserted here: that is the driver's
/// merge phase.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_job(
    job: &Job<'_>,
    passes: &[SharedPass<'_>],
    store: &TermStore,
    db: &Database,
    subst: &mut Subst,
    scratch: &mut JoinScratch,
    out: &mut JobOutput,
    timed: bool,
) {
    out.clear();
    subst.truncate(0);
    let t0 = timed.then(std::time::Instant::now);
    match *job {
        Job::Solo(pass) => {
            let p = &passes[pass];
            let mut po = out.take_spare();
            let rows = &mut po.rows;
            let firings = &mut po.firings;
            let result = p
                .plan
                .execute(p.rule, store, db, p.ranges, subst, scratch, &mut |s| {
                    *firings += 1;
                    for &v in p.head_vars {
                        rows.push(s.get(v).expect("head variable bound by a complete match"));
                    }
                    Ok(true)
                });
            // The emit callback never errors and never stops the
            // enumeration; all fallible work (depth bound, fact budget)
            // happens at merge time.
            debug_assert!(matches!(result, Ok(true)));
            out.passes.push(po);
        }
        Job::Group(group) => {
            for _ in 0..group.members.len() {
                let po = out.take_spare();
                out.passes.push(po);
            }
            let result = group.execute(passes, store, db, subst, scratch, &mut out.passes);
            debug_assert!(result.is_ok());
        }
    }
    let (probes, cands, sip) = scratch.drain_counters();
    out.probes = probes;
    out.cands = cands;
    out.sip = sip;
    if let Some(t0) = t0 {
        out.wall_us = t0.elapsed().as_micros() as u64;
    }
}

/// One node of a shared-prefix trie: executes the step at `depth` of the
/// representative pass once per parent binding, then fans the binding out
/// to `leaves` (passes whose sharing ends here — each runs its remaining
/// steps solo from `depth + 1`) and to `children` (deeper shared steps).
pub(crate) struct TrieNode {
    /// Representative pass (any member — their steps at `depth` agree).
    pub rep: usize,
    pub depth: usize,
    pub children: Vec<TrieNode>,
    pub leaves: Vec<usize>,
}

/// A maximal group of passes sharing at least their first step. Built per
/// round by the fixpoint driver; executed as one job.
pub(crate) struct ShareGroup {
    pub root: TrieNode,
    /// Member pass indices in ascending order — `outs[slot]` in
    /// [`execute_trie`] belongs to `members[slot]`, and the merge phase
    /// replays members in exactly this order.
    pub members: Vec<usize>,
    /// Steps saved by sharing: Σ over trie nodes of (passes through − 1).
    pub shared_steps: usize,
    /// Longest member plan (scratch depth to reserve).
    pub max_depth: usize,
}

impl ShareGroup {
    fn slot_of(&self, pass: usize) -> usize {
        self.members
            .binary_search(&pass)
            .expect("leaf pass is a group member")
    }

    /// Run the whole group over the sealed snapshot, collecting each
    /// member's matches into `outs[slot]` in exactly the order the member
    /// would have emitted them solo: the shared prefix enumerates
    /// candidates in window order (as `execute` would), and every member's
    /// suffix runs under each prefix binding before the next candidate is
    /// taken.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn execute(
        &self,
        passes: &[SharedPass<'_>],
        store: &TermStore,
        db: &Database,
        subst: &mut Subst,
        scratch: &mut JoinScratch,
        outs: &mut [PassOutput],
    ) -> Result<(), EvalError> {
        debug_assert_eq!(outs.len(), self.members.len());
        scratch.ensure_depth(self.max_depth);
        self.node(&self.root, passes, store, db, subst, scratch, outs)
    }

    #[allow(clippy::too_many_arguments)]
    fn node(
        &self,
        node: &TrieNode,
        passes: &[SharedPass<'_>],
        store: &TermStore,
        db: &Database,
        subst: &mut Subst,
        scratch: &mut JoinScratch,
        outs: &mut [PassOutput],
    ) -> Result<(), EvalError> {
        let rep = &passes[node.rep];
        let step = &rep.plan.steps[node.depth];
        debug_assert!(step.negs.is_empty(), "shareable steps schedule no negation");
        let (lo, hi) = rep.ranges[step.body_idx];
        debug_assert!(lo < hi, "group members have nonempty windows");

        let mut cands = std::mem::take(&mut scratch.frames[node.depth].cands);
        cands.clear();
        if step.mask != 0 {
            let mut key = std::mem::take(&mut scratch.frames[node.depth].key);
            key.clear();
            let mut key_exists = true;
            for slot in &step.key {
                match slot {
                    KeySlot::Const(t) => key.push(*t),
                    KeySlot::Var(v) => key.push(subst.get(*v).expect("plan: key variable unbound")),
                    KeySlot::Pattern(t) => match store.substitute_existing(*t, subst) {
                        Some(k) => key.push(k),
                        None => {
                            key_exists = false;
                            break;
                        }
                    },
                }
            }
            scratch.index_probes += 1;
            if key_exists {
                db.relation(step.pred)
                    .expect("nonempty window implies the relation exists")
                    .lookup_range_into(step.mask, &key, lo, hi, &mut cands);
            }
            scratch.frames[node.depth].key = key;
        } else {
            cands.extend(lo as u32..hi as u32);
        }
        scratch.candidates_scanned += cands.len();

        for &cand in &cands {
            let mark = subst.mark();
            let mut ok = true;
            if !step.match_cols.is_empty() {
                let row = db
                    .relation(step.pred)
                    .expect("candidate row exists")
                    .row(cand);
                for &(col, pat) in &step.match_cols {
                    if !store.match_term(pat, row[col], subst) {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                for d in &step.diseqs {
                    if store.eq_under_subst(d.lhs, d.rhs, subst) {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                for ec in &step.exists {
                    if !exist_holds(ec, store, db, rep.ranges, subst, scratch) {
                        scratch.sip_filtered += 1;
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                for &leaf in &node.leaves {
                    let p = &passes[leaf];
                    let out = &mut outs[self.slot_of(leaf)];
                    let rows = &mut out.rows;
                    let firings = &mut out.firings;
                    let cont = p.plan.step(
                        node.depth + 1,
                        p.rule,
                        store,
                        db,
                        p.ranges,
                        subst,
                        scratch,
                        &mut |s| {
                            *firings += 1;
                            for &v in p.head_vars {
                                rows.push(s.get(v).expect("head variable bound"));
                            }
                            Ok(true)
                        },
                    )?;
                    debug_assert!(cont, "group emit never stops the enumeration");
                }
                for child in &node.children {
                    self.node(child, passes, store, db, subst, scratch, outs)?;
                }
            }
            subst.truncate(mark);
        }
        scratch.frames[node.depth].cands = cands;
        Ok(())
    }
}

/// Does the probed atom of `ec` have *any* matching row in its frozen
/// window? A key pattern that was never interned cannot equal any stored
/// row, so the atom is empty without a lookup (the prune still counts).
fn exist_holds(
    ec: &ExistCheck,
    store: &TermStore,
    db: &Database,
    ranges: &[(usize, usize)],
    subst: &Subst,
    scratch: &mut JoinScratch,
) -> bool {
    let (lo, hi) = ranges[ec.body_idx];
    debug_assert!(lo < hi, "execute() bails on empty positive windows");
    let key = &mut scratch.exist_key;
    key.clear();
    for slot in &ec.key {
        match slot {
            KeySlot::Const(t) => key.push(*t),
            KeySlot::Var(v) => key.push(subst.get(*v).expect("plan: key variable unbound")),
            KeySlot::Pattern(t) => match store.substitute_existing(*t, subst) {
                Some(k) => key.push(k),
                None => return false,
            },
        }
    }
    scratch.index_probes += 1;
    db.relation(ec.pred)
        .expect("nonempty window implies the relation exists")
        .exists_in_range(ec.mask, key, lo, hi)
}

/// Does the (scheduled, hence ground) negated `atom` hold in `db` under
/// `subst`? Read-only: an argument term that was never interned cannot
/// occur in any stored fact, so the atom is absent without a lookup.
fn neg_holds(
    store: &TermStore,
    db: &Database,
    atom: &crate::language::Atom,
    subst: &Subst,
    buf: &mut Vec<TermId>,
) -> bool {
    buf.clear();
    for &a in &atom.args {
        match store.substitute_existing(a, subst) {
            Some(t) => {
                debug_assert!(store.is_ground(t), "scheduled negation must be ground");
                buf.push(t);
            }
            None => return false,
        }
    }
    db.contains(atom.pred, buf)
}

/// Reusable per-depth buffers for the executor, plus the join-work
/// counters it accumulates (drained into
/// [`EvalStats`](crate::eval::EvalStats) by the fixpoint driver).
#[derive(Default, Debug)]
pub struct JoinScratch {
    frames: Vec<Frame>,
    /// Reusable buffer for instantiating negated atoms.
    neg_key: Vec<TermId>,
    /// Reusable buffer for SIP existence-probe keys.
    exist_key: Vec<TermId>,
    /// Secondary-index probes issued ([`Relation::lookup_range_into`] and
    /// [`Relation::exists_in_range`] calls).
    ///
    /// [`Relation::lookup_range_into`]: crate::database::Relation::lookup_range_into
    /// [`Relation::exists_in_range`]: crate::database::Relation::exists_in_range
    pub index_probes: usize,
    /// Candidate rows enumerated across all probes and full scans.
    pub candidates_scanned: usize,
    /// Bindings pruned by a SIP existence probe that came back empty.
    pub sip_filtered: usize,
}

#[derive(Default, Debug)]
struct Frame {
    cands: Vec<u32>,
    key: Vec<TermId>,
}

impl JoinScratch {
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure_depth(&mut self, n: usize) {
        if self.frames.len() < n {
            self.frames.resize_with(n, Frame::default);
        }
    }

    /// Take and reset the counters.
    pub fn drain_counters(&mut self) -> (usize, usize, usize) {
        let out = (
            self.index_probes,
            self.candidates_scanned,
            self.sip_filtered,
        );
        self.index_probes = 0;
        self.candidates_scanned = 0;
        self.sip_filtered = 0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn compile_first(src: &str, order: JoinOrder) -> (TermStore, Rule, RulePlan) {
        let mut st = TermStore::new();
        let prog = parse_program(src, &mut st).unwrap();
        let rule = prog.rules[0].clone();
        let plan = RulePlan::compile(&rule, &st, order, &[]);
        (st, rule, plan)
    }

    #[test]
    fn planned_order_puts_ground_most_atom_first() {
        // B has a constant column; the planner probes it first even though
        // A is leftmost in the source.
        let src = "H@p(X, Y) :- A@p(X, Y), B@p(Y, c).";
        let (_, _, plan) = compile_first(src, JoinOrder::Planned);
        assert!(plan.reordered());
        assert_eq!(plan.steps[0].body_idx, 1);
        // B's constant column is a static key; after it binds Y, atom A
        // probes with its second column bound.
        assert_eq!(plan.steps[0].mask, 0b10);
        assert_eq!(plan.steps[1].body_idx, 0);
        assert_eq!(plan.steps[1].mask, 0b10);
    }

    #[test]
    fn leftmost_order_preserves_source_positions() {
        let src = "H@p(X, Y) :- A@p(X, Y), B@p(Y, c).";
        let (_, _, plan) = compile_first(src, JoinOrder::Leftmost);
        assert!(!plan.reordered());
        assert_eq!(plan.steps[0].body_idx, 0);
        assert_eq!(plan.steps[0].mask, 0);
    }

    #[test]
    fn checks_schedule_at_earliest_ground_step() {
        let src = "H@p(X) :- A@p(X), B@p(X, Y), X != Y.";
        let (_, _, plan) = compile_first(src, JoinOrder::Leftmost);
        // X != Y needs Y, which only B binds.
        assert!(plan.steps[0].diseqs.is_empty());
        assert_eq!(plan.steps[1].diseqs.len(), 1);
    }

    #[test]
    fn negation_schedules_when_its_vars_are_bound() {
        let src = "H@p(X) :- A@p(X), B@p(X, Y), not C@p(X).";
        let (_, _, plan) = compile_first(src, JoinOrder::Planned);
        // `not C(X)` is ground as soon as X is — after the first step.
        assert_eq!(plan.steps.len(), 2);
        assert_eq!(plan.steps[0].negs.len(), 1);
        assert!(plan.steps[1].negs.is_empty());
    }

    #[test]
    fn delta_pass_leads_with_delta_atom_on_ties() {
        // No atom enters better keyed than the delta atom (all score 0),
        // so the Δ variant enumerates the small delta window first and the
        // other atom probes keyed by the variables it binds.
        let src = "Co@p(U, V) :- Co@p(V, U), Map@p(U, C).";
        let mut st = TermStore::new();
        let prog = parse_program(src, &mut st).unwrap();
        let rule = prog.rules[0].clone();
        let plan = RulePlan::compile_delta(&rule, &st, JoinOrder::Planned, &[], 1);
        assert!(plan.reordered());
        assert_eq!(plan.steps[0].body_idx, 1);
        assert_eq!(plan.steps[0].mask, 0);
        // Co(V, U) then probes with U (column 1) bound.
        assert_eq!(plan.steps[1].body_idx, 0);
        assert_eq!(plan.steps[1].mask, 0b10);
    }

    #[test]
    fn delta_pass_defers_to_better_keyed_atom() {
        // T enters with a constant key, strictly better than enumerating
        // the delta window of Co — the Δ variant keeps the greedy order.
        let src = "H@p(X) :- T@p(c, X, U), Co@p(U, W).";
        let mut st = TermStore::new();
        let prog = parse_program(src, &mut st).unwrap();
        let rule = prog.rules[0].clone();
        let plan = RulePlan::compile_delta(&rule, &st, JoinOrder::Planned, &[], 1);
        assert!(!plan.reordered());
        assert_eq!(plan.steps[0].body_idx, 0);
        assert_eq!(plan.steps[0].mask, 0b001);
        assert_eq!(plan.steps[1].body_idx, 1);
        assert_eq!(plan.steps[1].mask, 0b01);
    }

    #[test]
    fn initial_bound_variables_become_key_columns() {
        let src = "H@p(X, Y) :- A@p(X, Y).";
        let mut st = TermStore::new();
        let prog = parse_program(src, &mut st).unwrap();
        let rule = prog.rules[0].clone();
        let head_vars = rule.head.vars(&st);
        let plan = RulePlan::compile(&rule, &st, JoinOrder::Planned, &head_vars);
        // With X and Y pre-bound (provenance), both columns are keys.
        assert_eq!(plan.steps[0].mask, 0b11);
        assert!(plan.steps[0].match_cols.is_empty());
    }
}
