//! The Figure 4 body walk, written once.
//!
//! A [`Cursor`] walks one rule body left to right under a head adornment.
//! [`Cursor::start`] emits `sup_{i,0} :- in-R^a(…)`; each
//! [`Cursor::step`] adorns the next atom, feeds the callee's input
//! relation when it is intensional, attaches the disequalities that just
//! became ground and emits `sup_{i,j}` over the variables still needed;
//! [`Cursor::finish`] emits `R^a(head) :- sup_{i,n}`. The driver decides
//! where each sup lives and whether an atom is intensional, and owns the
//! [`Emitted`] sink: the global rewriter drives every step itself, while
//! the peer-local protocol of `rescue-dqsq` ships the cursor to the owner
//! of the next atom, which alone knows the answer.

use crate::adorn::{adorn_and_bind, bind_head, bound_args, AdornedPred, Adornment};
use crate::names::Names;
use rescue_datalog::{Atom, Diseq, Peer, PredId, Program, Rule, Sym, TermData, TermId, TermStore};
use rustc_hash::{FxHashMap, FxHashSet};
use std::collections::hash_map::Entry;

/// A rule body part-way through the walk.
#[derive(Clone, Debug)]
pub struct Cursor {
    /// Global id of the rule.
    pub rule_idx: usize,
    /// The head adornment of the walk.
    pub adornment: Adornment,
    /// The 1-based position of the next body atom, which is also the
    /// index of the next sup the walk defines.
    pub pos: usize,
    /// The variables bound so far, in first-binding order.
    pub bound: Vec<Sym>,
    /// Disequalities not yet ground.
    pub pending: Vec<Diseq>,
    /// The last supplementary atom emitted (its canonical relation).
    pub prev_sup: Atom,
    /// The rule's head.
    pub head: Atom,
    /// The body atoms at positions `pos..=n`.
    pub rest: Vec<Atom>,
}

impl Cursor {
    /// Begin rule `rule_idx` under head adornment `adornment`, with
    /// `sup_{i,0}` placed at `sup_peer`.
    pub fn start(
        rule_idx: usize,
        rule: &Rule,
        adornment: Adornment,
        sup_peer: Peer,
        store: &mut TermStore,
        out: &mut Emitted,
    ) -> Cursor {
        let ap = AdornedPred {
            base: rule.head.pred,
            adornment,
        };
        let input = Atom::new(
            out.names.input(store, ap),
            bound_args(&rule.head, adornment),
        );
        let mut cursor = Cursor {
            rule_idx,
            adornment,
            pos: 0,
            bound: bind_head(store, &rule.head, adornment),
            pending: rule.diseqs.clone(),
            prev_sup: input,
            head: rule.head.clone(),
            rest: rule.body.clone(),
        };
        cursor.define_sup(None, sup_peer, store, out);
        cursor
    }

    /// The next body atom, `None` once the body is exhausted.
    pub fn next_atom(&self) -> Option<&Atom> {
        self.rest.first()
    }

    /// Walk over the next body atom, with `sup_{i,j}` placed at
    /// `sup_peer`. Returns the adorned callee to rewrite when the atom is
    /// intensional.
    pub fn step(
        &mut self,
        callee_is_idb: bool,
        sup_peer: Peer,
        store: &mut TermStore,
        out: &mut Emitted,
    ) -> Option<AdornedPred> {
        let mut atom = self.rest.remove(0);
        let ad = adorn_and_bind(store, &atom, &mut self.bound);
        let callee = callee_is_idb.then_some(AdornedPred {
            base: atom.pred,
            adornment: ad,
        });
        if let Some(sub) = callee {
            // in-S^a(bound args) :- sup_{i,j-1}(…).
            let feed = Atom::new(out.names.input(store, sub), bound_args(&atom, ad));
            out.emit(feed, self.prev_sup.clone());
            atom.pred = out.names.adorned(store, sub);
        }
        self.define_sup(Some(atom), sup_peer, store, out);
        callee
    }

    /// Close the walk: `R^a(head) :- sup_{i,n}(…)`.
    pub fn finish(self, store: &mut TermStore, out: &mut Emitted) {
        debug_assert!(self.rest.is_empty() && self.pending.is_empty());
        let ap = AdornedPred {
            base: self.head.pred,
            adornment: self.adornment,
        };
        let head = Atom::new(out.names.adorned(store, ap), self.head.args);
        out.emit(head, self.prev_sup);
    }

    /// `sup_{i,pos}(bound ∩ needed) :- prev, atom, ready diseqs`, where a
    /// variable is needed when the head, a later atom or a disequality
    /// checked here or later mentions it.
    fn define_sup(
        &mut self,
        atom: Option<Atom>,
        sup_peer: Peer,
        store: &mut TermStore,
        out: &mut Emitted,
    ) {
        let bound = &self.bound;
        let ground = |t| store.vars(t).iter().all(|v| bound.contains(v));
        let (ready, pending): (Vec<Diseq>, Vec<Diseq>) = self
            .pending
            .iter()
            .partition(|d| ground(d.lhs) && ground(d.rhs));
        self.pending = pending;
        let mut needed = Vec::new();
        let later = self.rest.iter().chain(std::iter::once(&self.head));
        for &t in later.flat_map(|a| &a.args) {
            store.collect_vars(t, &mut needed);
        }
        for d in ready.iter().chain(&self.pending) {
            store.collect_vars(d.lhs, &mut needed);
            store.collect_vars(d.rhs, &mut needed);
        }
        let vars = self.bound.iter().filter(|v| needed.contains(v));
        let args: Vec<_> = vars.map(|&v| store.var_sym(v)).collect();
        let pred = PredId {
            name: out
                .names
                .sup(store, self.rule_idx, self.pos, self.adornment),
            peer: sup_peer,
        };
        out.sources.insert(pred, self.head.pred);
        let prev = std::mem::replace(&mut self.prev_sup, Atom::new(pred, args.clone()));
        let body = std::iter::once(prev).chain(atom).collect();
        let head = Atom::new(pred, args);
        self.prev_sup.pred = out.define_sup(
            Rule {
                head,
                body,
                diseqs: ready,
            },
            store,
        );
        self.pos += 1;
    }
}

/// What walks write: the relations they name and the rules they emit,
/// deduplicated where they are defined. A sup whose defining rule has the
/// `SupSignature` of one already defined is not emitted, and the cursor
/// carries the earlier relation on. Every reference is to an earlier sup,
/// so this keeps the first sup of each class. A rule emitted before is
/// not emitted again.
#[derive(Default, Debug)]
pub struct Emitted {
    pub(crate) names: Names,
    pub program: Program,
    /// The supplementary relations defined, in definition order.
    pub(crate) sups: Vec<PredId>,
    /// Every merged sup ↦ the relation that carries its tuples.
    pub(crate) sup_canon: FxHashMap<PredId, PredId>,
    /// Every sup, merged or not ↦ the head relation of its rule.
    pub(crate) sources: FxHashMap<PredId, PredId>,
    sigs: FxHashMap<SupSignature, PredId>,
    seen: FxHashSet<Rule>,
}

impl Emitted {
    /// Emit `head :- prev`, unless it was emitted before.
    fn emit(&mut self, head: Atom, prev: Atom) {
        let rule = Rule {
            head,
            body: vec![prev],
            diseqs: vec![],
        };
        if self.seen.insert(rule.clone()) {
            self.program.push(rule);
        }
    }

    /// Define a sup; returns the relation that carries it.
    fn define_sup(&mut self, rule: Rule, store: &TermStore) -> PredId {
        let pred = rule.head.pred;
        match self.sigs.entry(sup_signature(&rule, store)) {
            Entry::Occupied(e) => {
                self.sup_canon.insert(pred, *e.get());
                *e.get()
            }
            Entry::Vacant(e) => {
                e.insert(pred);
                self.sups.push(pred);
                self.program.push(rule);
                pred
            }
        }
    }
}

/// A term with variables replaced by first-occurrence indices — the
/// alpha-invariant shape two rules must share to be structurally equal.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum CanonTerm {
    Var(usize),
    Const(Sym),
    App(Sym, Vec<CanonTerm>),
}

fn canon_term(store: &TermStore, t: TermId, vars: &mut FxHashMap<Sym, usize>) -> CanonTerm {
    match store.data(t) {
        TermData::Const(s) => CanonTerm::Const(*s),
        TermData::Var(v) => {
            let next = vars.len();
            CanonTerm::Var(*vars.entry(*v).or_insert(next))
        }
        TermData::App(f, args) => CanonTerm::App(
            *f,
            args.iter().map(|&a| canon_term(store, a, vars)).collect(),
        ),
    }
}

/// The alpha-invariant signature of a supplementary relation's defining
/// rule. Two sups with equal signatures hold the same tuples in every
/// model (their defining rules are the same rule up to variable names,
/// with references to earlier sups already canonical), so one can carry
/// for both. Signatures are only comparable within one `TermStore`.
#[derive(PartialEq, Eq, Hash, Debug)]
struct SupSignature {
    peer: Peer,
    head: Vec<CanonTerm>,
    body: Vec<(PredId, Vec<CanonTerm>)>,
    diseqs: Vec<(CanonTerm, CanonTerm)>,
}

/// Compute the [`SupSignature`] of a sup's defining rule. Variable
/// indices are assigned in first-occurrence order across head args, then
/// body args, then disequalities, so alpha-variant rules agree.
fn sup_signature(rule: &Rule, store: &TermStore) -> SupSignature {
    let mut vars = FxHashMap::default();
    let mut canon = |t| canon_term(store, t, &mut vars);
    let head = rule.head.args.iter().map(|&t| canon(t)).collect();
    let body = rule
        .body
        .iter()
        .map(|a| (a.pred, a.args.iter().map(|&t| canon(t)).collect()))
        .collect();
    let diseqs = rule
        .diseqs
        .iter()
        .map(|d| (canon(d.lhs), canon(d.rhs)))
        .collect();
    SupSignature {
        peer: rule.head.pred.peer,
        head,
        body,
        diseqs,
    }
}
