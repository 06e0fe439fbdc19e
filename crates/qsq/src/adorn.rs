//! Binding patterns (adornments).
//!
//! QSQ (paper §3.1) analyses the top-down, left-to-right propagation of
//! bindings through a program: for each relation it considers *adorned
//! versions* such as `R^bf` — first argument bound, second free. An
//! argument term is **bound** when every variable inside it is bound
//! (constants are always bound); this is the natural lifting of the classic
//! definition to dDatalog's function terms, where e.g. `trans(f(C,U,V),U,V)`
//! with a bound first argument binds `U` and `V` by structural matching.
//!
//! It also holds the adornment driver that QSQ and Magic Sets share.

use crate::names::Names;
use crate::rewrite::RewriteError;
use rescue_datalog::{Atom, PredId, Program, Rule, Sym, TermId, TermStore};
use rustc_hash::FxHashSet;
use std::fmt::{self, Write};

/// A binding pattern: bit `i` set ⇔ argument `i` is bound.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Adornment {
    mask: u32,
    arity: u8,
}

impl Adornment {
    /// Build from per-argument boundness flags.
    pub fn from_bools(bound: impl IntoIterator<Item = bool>) -> Self {
        let mut ad = Adornment { mask: 0, arity: 0 };
        for b in bound {
            assert!(ad.arity < 32, "arity exceeds 32");
            ad.mask |= (b as u32) << ad.arity;
            ad.arity += 1;
        }
        ad
    }

    /// Parse from a string like `"bf"`.
    pub fn parse(s: &str) -> Option<Self> {
        let flag = |c| match c {
            'b' => Some(true),
            'f' => Some(false),
            _ => None,
        };
        let flags: Option<Vec<bool>> = s.chars().map(flag).collect();
        flags.filter(|f| f.len() <= 32).map(Self::from_bools)
    }

    pub fn arity(&self) -> usize {
        self.arity as usize
    }

    /// Is argument `i` bound?
    #[inline]
    pub fn is_bound(&self, i: usize) -> bool {
        debug_assert!(i < self.arity());
        self.mask & (1 << i) != 0
    }

    /// Number of bound arguments.
    pub fn bound_count(&self) -> usize {
        self.mask.count_ones() as usize
    }

    /// A query's adornment: its ground arguments are the bound ones.
    pub fn of_query(store: &TermStore, args: &[TermId]) -> Self {
        Self::from_bools(args.iter().map(|&a| store.is_ground(a)))
    }

    /// Indices of bound arguments, ascending.
    pub fn bound_positions(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.arity()).filter(|&i| self.is_bound(i))
    }

    /// The `bf`-string of this adornment.
    pub fn label(&self) -> String {
        self.to_string()
    }
}

impl fmt::Debug for Adornment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Adornment({})", self.label())
    }
}

impl fmt::Display for Adornment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (0..self.arity()).try_for_each(|i| f.write_char(if self.is_bound(i) { 'b' } else { 'f' }))
    }
}

/// An adorned predicate `R^a`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct AdornedPred {
    pub base: PredId,
    pub adornment: Adornment,
}

/// Compute the adornment of an atom's arguments given the currently bound
/// variables: argument `i` is bound iff all its variables are in `bound`.
pub fn adorn_args(store: &TermStore, args: &[TermId], bound: &[Sym]) -> Adornment {
    Adornment::from_bools(
        args.iter()
            .map(|&a| store.vars(a).iter().all(|v| bound.contains(v))),
    )
}

/// The variables a head called under `ad` binds: those of its bound
/// arguments, in first-occurrence order.
pub(crate) fn bind_head(store: &TermStore, head: &Atom, ad: Adornment) -> Vec<Sym> {
    let mut bound = Vec::new();
    for pos in ad.bound_positions() {
        store.collect_vars(head.args[pos], &mut bound);
    }
    bound
}

/// One left-to-right step over a body atom: its adornment under `bound`,
/// after which every variable of the atom is bound.
pub(crate) fn adorn_and_bind(store: &TermStore, atom: &Atom, bound: &mut Vec<Sym>) -> Adornment {
    let ad = adorn_args(store, &atom.args, bound);
    for &a in &atom.args {
        store.collect_vars(a, bound);
    }
    ad
}

/// The arguments of `atom` at the bound positions of `ad`.
pub(crate) fn bound_args(atom: &Atom, ad: Adornment) -> Vec<TermId> {
    ad.bound_positions().map(|p| atom.args[p]).collect()
}

/// The adornment driver both rewritings share: the query checks and seed,
/// and the worklist of adorned predicates still to rewrite. Each rewriting
/// walks the rules [`Adorner::pop`] hands it and [`Adorner::call`]s every
/// intensional body atom it adorns.
pub(crate) struct Adorner<'a> {
    program: &'a Program,
    idb: FxHashSet<PredId>,
    worklist: Vec<AdornedPred>,
    seen: FxHashSet<AdornedPred>,
}

/// The query block of a rewriting: the seed `in-Q^a(query constants)` and
/// the adorned query atom whose rows, filtered, are the answers.
pub(crate) struct Seed {
    pub pred: PredId,
    pub row: Box<[TermId]>,
    pub answer_pred: PredId,
    pub answer_atom: Atom,
}

impl<'a> Adorner<'a> {
    /// Check `program` and `query`, name the query's input and adorned
    /// relations in `names`, and queue the query's adorned predicate.
    pub(crate) fn new(
        program: &'a Program,
        query: &Atom,
        store: &mut TermStore,
        names: &mut Names,
    ) -> Result<(Self, Seed), RewriteError> {
        if program.has_negation() {
            return Err(RewriteError::NegationUnsupported);
        }
        let idb: FxHashSet<PredId> = program.rules.iter().map(|r| r.head.pred).collect();
        if !idb.contains(&query.pred) {
            return Err(RewriteError::ExtensionalQuery {
                pred: store.sym_str(query.pred.name).to_owned(),
            });
        }
        let ap = AdornedPred {
            base: query.pred,
            adornment: Adornment::of_query(store, &query.args),
        };
        let mut adorner = Adorner {
            program,
            idb,
            worklist: Vec::new(),
            seen: FxHashSet::default(),
        };
        adorner.call(ap);
        let pred = names.input(store, ap);
        let answer_pred = names.adorned(store, ap);
        let seed = Seed {
            pred,
            row: bound_args(query, ap.adornment).into(),
            answer_pred,
            answer_atom: Atom::new(answer_pred, query.args.clone()),
        };
        Ok((adorner, seed))
    }

    /// Is `pred` defined by some rule?
    pub(crate) fn is_idb(&self, pred: PredId) -> bool {
        self.idb.contains(&pred)
    }

    /// Queue `ap` for rewriting unless it was queued before.
    pub(crate) fn call(&mut self, ap: AdornedPred) {
        if self.seen.insert(ap) {
            self.worklist.push(ap);
        }
    }

    /// The next adorned predicate to rewrite, with the ids of its rules.
    pub(crate) fn pop(&mut self) -> Option<(AdornedPred, impl Iterator<Item = (usize, &'a Rule)>)> {
        let ap = self.worklist.pop()?;
        let rules = self.program.rules.iter().enumerate();
        Some((ap, rules.filter(move |(_, r)| r.head.pred == ap.base)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescue_datalog::TermStore;

    #[test]
    fn label_round_trips() {
        for s in ["", "b", "f", "bf", "fb", "bbff"] {
            let a = Adornment::parse(s).unwrap();
            assert_eq!(a.label(), s);
            assert_eq!(a.arity(), s.len());
        }
        assert_eq!(Adornment::parse("bx"), None);
    }

    #[test]
    fn bound_positions_and_count() {
        let a = Adornment::parse("bfb").unwrap();
        assert_eq!(a.bound_count(), 2);
        assert_eq!(a.bound_positions().collect::<Vec<_>>(), vec![0, 2]);
        assert!(a.is_bound(0));
        assert!(!a.is_bound(1));
    }

    #[test]
    fn adorn_args_lifts_to_function_terms() {
        let mut st = TermStore::new();
        let x = st.var("X");
        let y = st.var("Y");
        let c = st.constant("c");
        let fxy = st.app("f", vec![x, y]);
        let fxc = st.app("f", vec![x, c]);
        let xs = st.sym("X");
        // X bound, Y free.
        let ad = adorn_args(&st, &[x, y, fxy, fxc, c], &[xs]);
        assert_eq!(ad.label(), "bffbb");
    }
}
