//! Hash-consed terms.
//!
//! dDatalog (Section 3 of the paper) departs from classical Datalog by
//! allowing *function symbols*: the diagnosis encoding of Section 4 uses
//! Skolem functions `f`, `g`, `h` to mint identifiers for the nodes of the
//! Petri-net unfolding, so terms are trees such as `f(c, g(r, c1), g(r, c7))`.
//!
//! Terms are hash-consed inside a [`TermStore`]: structurally equal terms get
//! the same [`TermId`], so term equality — including equality of deep ground
//! trees — is a 4-byte comparison, and relations store plain `TermId` rows.

use crate::symbol::{Interner, Sym};
use rustc_hash::FxHashMap;
use std::fmt;

/// A handle to a hash-consed term inside a [`TermStore`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub(crate) u32);

impl TermId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TermId({})", self.0)
    }
}

/// The structure of a term.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum TermData {
    /// A constant, e.g. `"1"`, `c7`, a peer name.
    Const(Sym),
    /// A variable, e.g. `X`.
    Var(Sym),
    /// A function application, e.g. `f(c, U, V)`.
    App(Sym, Vec<TermId>),
}

/// A portable, store-independent representation of a ground term.
///
/// Peers in the distributed runtimes each own a private [`TermStore`]
/// (mirroring the paper's autonomous peers, which share no memory); terms
/// that travel in messages are *exported* to this structural form and
/// re-interned on receipt.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum ExportedTerm {
    Const(String),
    /// Only produced by [`TermStore::export_pattern`]; ground exports
    /// ([`TermStore::export`]) never contain variables.
    Var(String),
    App(String, Vec<ExportedTerm>),
}

impl ExportedTerm {
    /// Rough wire-size estimate in bytes (tag + name + payload), used by
    /// the network statistics.
    pub fn size_estimate(&self) -> usize {
        match self {
            ExportedTerm::Const(s) | ExportedTerm::Var(s) => 1 + s.len(),
            ExportedTerm::App(f, args) => {
                1 + f.len() + args.iter().map(|a| a.size_estimate()).sum::<usize>()
            }
        }
    }
}

/// Interns symbols and hash-conses terms.
#[derive(Default, Clone)]
pub struct TermStore {
    pub(crate) syms: Interner,
    data: Vec<TermData>,
    /// `true` iff the term contains no variables. Cached at construction.
    ground: Vec<bool>,
    /// Maximum nesting depth of the term (constants/variables have depth 1).
    depth: Vec<u32>,
    consed: FxHashMap<TermData, TermId>,
}

impl TermStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a raw string (for symbol-level APIs).
    pub fn sym(&mut self, s: &str) -> Sym {
        self.syms.intern(s)
    }

    /// The string behind a symbol.
    pub fn sym_str(&self, s: Sym) -> &str {
        self.syms.resolve(s)
    }

    /// Look up an already-interned string without inserting.
    pub fn sym_get(&self, s: &str) -> Option<Sym> {
        self.syms.get(s)
    }

    fn insert(&mut self, data: TermData) -> TermId {
        if let Some(&id) = self.consed.get(&data) {
            return id;
        }
        let (ground, depth) = match &data {
            TermData::Const(_) => (true, 1),
            TermData::Var(_) => (false, 1),
            TermData::App(_, args) => {
                let mut g = true;
                let mut d = 0u32;
                for a in args {
                    g &= self.ground[a.index()];
                    d = d.max(self.depth[a.index()]);
                }
                (g, d + 1)
            }
        };
        let id = TermId(u32::try_from(self.data.len()).expect("term store overflow"));
        self.data.push(data.clone());
        self.ground.push(ground);
        self.depth.push(depth);
        self.consed.insert(data, id);
        id
    }

    /// Make (or find) a constant term.
    pub fn constant(&mut self, name: &str) -> TermId {
        let s = self.syms.intern(name);
        self.insert(TermData::Const(s))
    }

    /// Make (or find) a variable term.
    pub fn var(&mut self, name: &str) -> TermId {
        let s = self.syms.intern(name);
        self.insert(TermData::Var(s))
    }

    /// Make (or find) a function application `func(args…)`.
    pub fn app(&mut self, func: &str, args: Vec<TermId>) -> TermId {
        let s = self.syms.intern(func);
        self.insert(TermData::App(s, args))
    }

    /// Function application with an already-interned function symbol.
    pub fn app_sym(&mut self, func: Sym, args: Vec<TermId>) -> TermId {
        self.insert(TermData::App(func, args))
    }

    /// Constant from an already-interned symbol.
    pub fn const_sym(&mut self, sym: Sym) -> TermId {
        self.insert(TermData::Const(sym))
    }

    /// Variable from an already-interned symbol.
    pub fn var_sym(&mut self, sym: Sym) -> TermId {
        self.insert(TermData::Var(sym))
    }

    /// The structure of `t`.
    #[inline]
    pub fn data(&self, t: TermId) -> &TermData {
        &self.data[t.index()]
    }

    /// `true` iff `t` contains no variables.
    #[inline]
    pub fn is_ground(&self, t: TermId) -> bool {
        self.ground[t.index()]
    }

    /// Maximum nesting depth of `t` (constants and variables have depth 1).
    #[inline]
    pub fn term_depth(&self, t: TermId) -> u32 {
        self.depth[t.index()]
    }

    /// Number of distinct terms ever created.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Collect the variables of `t` (each once, in first-occurrence order)
    /// into `out`.
    pub fn collect_vars(&self, t: TermId, out: &mut Vec<Sym>) {
        match self.data(t) {
            TermData::Const(_) => {}
            TermData::Var(v) => {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
            TermData::App(_, args) => {
                for &a in args {
                    self.collect_vars(a, out);
                }
            }
        }
    }

    /// The variables of `t` in first-occurrence order.
    pub fn vars(&self, t: TermId) -> Vec<Sym> {
        let mut out = Vec::new();
        self.collect_vars(t, &mut out);
        out
    }

    /// Apply a substitution to `t`, building new terms as needed.
    /// Unmapped variables are left in place.
    pub fn substitute(&mut self, t: TermId, subst: &Subst) -> TermId {
        if self.is_ground(t) {
            return t;
        }
        // Interning below needs `&mut self`: copy the function symbol and
        // arity out, and fetch the argument ids one at a time.
        let (f, arity) = match self.data(t) {
            TermData::Const(_) => return t,
            TermData::Var(v) => return subst.get(*v).unwrap_or(t),
            TermData::App(f, args) => (*f, args.len()),
        };
        let mut new_args = Vec::with_capacity(arity);
        for i in 0..arity {
            let TermData::App(_, args) = self.data(t) else {
                unreachable!("terms are immutable once interned");
            };
            new_args.push(self.substitute(args[i], subst));
        }
        if matches!(self.data(t), TermData::App(_, args) if *args == new_args) {
            t
        } else {
            self.insert(TermData::App(f, new_args))
        }
    }

    /// [`substitute`](Self::substitute) without the ability to intern:
    /// apply `subst` to `t`, returning `None` when the substituted term
    /// does not already exist in the store.
    ///
    /// This is the read-only probe the join executor uses: a key term that
    /// was never interned cannot equal any stored row, so `None` means
    /// "zero matches" — the caller still counts the probe, keeping the
    /// statistics identical to the interning path. The fixpoint driver's
    /// merge phase keeps the only `&mut TermStore`.
    pub fn substitute_existing(&self, t: TermId, subst: &Subst) -> Option<TermId> {
        if self.is_ground(t) {
            return Some(t);
        }
        match self.data(t) {
            TermData::Const(_) => Some(t),
            TermData::Var(v) => Some(subst.get(*v).unwrap_or(t)),
            TermData::App(f, args) => {
                let new_args: Vec<TermId> = args
                    .iter()
                    .map(|&a| self.substitute_existing(a, subst))
                    .collect::<Option<_>>()?;
                if new_args == *args {
                    Some(t)
                } else {
                    self.consed.get(&TermData::App(*f, new_args)).copied()
                }
            }
        }
    }

    /// Structural equality of `a[subst]` and `b[subst]` without interning
    /// either side — the read-only form of `substitute(a) == substitute(b)`
    /// used by disequality checks in the join executor.
    ///
    /// Both sides must be ground under `subst` (the planner schedules
    /// disequalities only once they are).
    pub fn eq_under_subst(&self, a: TermId, b: TermId, subst: &Subst) -> bool {
        let ra = match self.data(a) {
            TermData::Var(v) => subst.get(*v).unwrap_or(a),
            _ => a,
        };
        let rb = match self.data(b) {
            TermData::Var(v) => subst.get(*v).unwrap_or(b),
            _ => b,
        };
        // Same id under the same substitution: necessarily equal.
        if ra == rb {
            return true;
        }
        match (self.data(ra), self.data(rb)) {
            // Hash-consing: equal ground terms share ids, so distinct ids
            // of the same shape are only equal if variables inside still
            // map them together.
            (TermData::App(f, fa), TermData::App(g, ga)) => {
                *f == *g
                    && fa.len() == ga.len()
                    && fa
                        .iter()
                        .zip(ga.iter())
                        .all(|(&x, &y)| self.eq_under_subst(x, y, subst))
            }
            _ => false,
        }
    }

    /// One-way matching: extend `subst` so that `pattern[subst] == ground`.
    ///
    /// `ground` must be a ground term (the usual case when matching a rule
    /// body atom against a stored fact). Returns `false` — leaving `subst`
    /// possibly extended with partial bindings the caller must roll back via
    /// [`Subst::truncate`] — when no match exists.
    pub fn match_term(&self, pattern: TermId, ground: TermId, subst: &mut Subst) -> bool {
        debug_assert!(self.is_ground(ground), "match target must be ground");
        if pattern == ground {
            return true;
        }
        match self.data(pattern) {
            TermData::Const(_) => false, // hash-consing: equal consts share ids
            TermData::Var(v) => match subst.get(*v) {
                Some(bound) => bound == ground,
                None => {
                    subst.bind(*v, ground);
                    true
                }
            },
            TermData::App(f, args) => match self.data(ground) {
                TermData::App(g, gargs) if f == g && args.len() == gargs.len() => {
                    (args.iter().zip(gargs)).all(|(&p, &t)| self.match_term(p, t, subst))
                }
                _ => false,
            },
        }
    }

    /// Export a ground term to its store-independent structural form.
    /// Panics on variables; use [`export_pattern`](Self::export_pattern)
    /// for rule patterns.
    pub fn export(&self, t: TermId) -> ExportedTerm {
        debug_assert!(self.is_ground(t), "export requires a ground term");
        self.export_pattern(t)
    }

    /// Export any term — including variables — to its structural form.
    pub fn export_pattern(&self, t: TermId) -> ExportedTerm {
        match self.data(t) {
            TermData::Const(s) => ExportedTerm::Const(self.syms.resolve(*s).to_owned()),
            TermData::Var(v) => ExportedTerm::Var(self.syms.resolve(*v).to_owned()),
            TermData::App(f, args) => ExportedTerm::App(
                self.syms.resolve(*f).to_owned(),
                args.iter().map(|&a| self.export_pattern(a)).collect(),
            ),
        }
    }

    /// Re-intern an exported term into this store.
    pub fn import(&mut self, t: &ExportedTerm) -> TermId {
        match t {
            ExportedTerm::Const(s) => self.constant(s),
            ExportedTerm::Var(v) => self.var(v),
            ExportedTerm::App(f, args) => {
                let ids: Vec<TermId> = args.iter().map(|a| self.import(a)).collect();
                self.app(f, ids)
            }
        }
    }

    /// Render `t` as text (constants bare, variables capitalized as given,
    /// applications as `f(a, b)`).
    pub fn display(&self, t: TermId) -> String {
        let mut s = String::new();
        self.write_term(t, &mut s);
        s
    }

    fn write_term(&self, t: TermId, out: &mut String) {
        match self.data(t) {
            TermData::Const(c) => {
                out.push_str(self.syms.resolve(*c));
            }
            TermData::Var(v) => {
                out.push_str(self.syms.resolve(*v));
            }
            TermData::App(f, args) => {
                out.push_str(self.syms.resolve(*f));
                out.push('(');
                for (i, &a) in args.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    self.write_term(a, out);
                }
                out.push(')');
            }
        }
    }
}

impl fmt::Debug for TermStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TermStore")
            .field("terms", &self.data.len())
            .field("symbols", &self.syms.len())
            .finish()
    }
}

/// A substitution: an append-only binding stack from variable symbols to
/// (ground) terms, with O(1) rollback via [`Subst::mark`]/[`Subst::truncate`].
///
/// The stack discipline matches how nested-loop joins extend and retract
/// bindings while walking a rule body left to right.
#[derive(Default, Clone, Debug)]
pub struct Subst {
    bindings: Vec<(Sym, TermId)>,
}

impl Subst {
    pub fn new() -> Self {
        Self::default()
    }

    /// Current stack height, for later rollback.
    #[inline]
    pub fn mark(&self) -> usize {
        self.bindings.len()
    }

    /// Roll back to a previous [`mark`](Self::mark).
    #[inline]
    pub fn truncate(&mut self, mark: usize) {
        self.bindings.truncate(mark);
    }

    /// Bind `v` to `t`. The caller must ensure `v` is unbound.
    #[inline]
    pub fn bind(&mut self, v: Sym, t: TermId) {
        debug_assert!(self.get(v).is_none(), "double binding");
        self.bindings.push((v, t));
    }

    /// The binding of `v`, if any. Linear scan: rule bodies bind a handful
    /// of variables, so this beats a hash map in practice.
    #[inline]
    pub fn get(&self, v: Sym) -> Option<TermId> {
        self.bindings
            .iter()
            .rev()
            .find(|(s, _)| *s == v)
            .map(|(_, t)| *t)
    }

    /// `true` iff `v` is bound.
    #[inline]
    pub fn is_bound(&self, v: Sym) -> bool {
        self.get(v).is_some()
    }

    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = (Sym, TermId)> + '_ {
        self.bindings.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_dedups() {
        let mut st = TermStore::new();
        let c1 = st.constant("c1");
        let c2 = st.constant("c1");
        assert_eq!(c1, c2);
        let a = st.app("f", vec![c1, c1]);
        let b = st.app("f", vec![c2, c2]);
        assert_eq!(a, b);
        let c = st.app("f", vec![c1]);
        assert_ne!(a, c);
    }

    #[test]
    fn groundness_and_depth() {
        let mut st = TermStore::new();
        let c = st.constant("c");
        let x = st.var("X");
        assert!(st.is_ground(c));
        assert!(!st.is_ground(x));
        assert_eq!(st.term_depth(c), 1);
        let fc = st.app("f", vec![c]);
        let fx = st.app("f", vec![x]);
        let ffc = st.app("f", vec![fc]);
        assert!(st.is_ground(fc));
        assert!(!st.is_ground(fx));
        assert_eq!(st.term_depth(ffc), 3);
    }

    #[test]
    fn substitute_builds_new_terms() {
        let mut st = TermStore::new();
        let x = st.var("X");
        let c = st.constant("c");
        let fx = st.app("f", vec![x]);
        let mut s = Subst::new();
        let xv = st.sym("X");
        s.bind(xv, c);
        let fc = st.substitute(fx, &s);
        let expected = st.app("f", vec![c]);
        assert_eq!(fc, expected);
        // Unbound variables stay.
        let y = st.var("Y");
        assert_eq!(st.substitute(y, &s), y);
    }

    #[test]
    fn substitute_existing_probes_without_interning() {
        let mut st = TermStore::new();
        let x = st.var("X");
        let c = st.constant("c");
        let d = st.constant("d");
        let fx = st.app("f", vec![x]);
        let fc = st.app("f", vec![c]);
        let xv = st.sym("X");
        let before = st.len();
        let mut s = Subst::new();
        s.bind(xv, c);
        // f(c) exists: found, nothing interned.
        assert_eq!(st.substitute_existing(fx, &s), Some(fc));
        // f(d) does not exist: None, and still nothing interned.
        let mut s2 = Subst::new();
        s2.bind(xv, d);
        assert_eq!(st.substitute_existing(fx, &s2), None);
        assert_eq!(st.len(), before);
        // Ground terms and unbound variables pass through.
        assert_eq!(st.substitute_existing(fc, &Subst::new()), Some(fc));
        assert_eq!(st.substitute_existing(x, &Subst::new()), Some(x));
    }

    #[test]
    fn eq_under_subst_matches_substitute_equality() {
        let mut st = TermStore::new();
        let x = st.var("X");
        let y = st.var("Y");
        let c = st.constant("c");
        let d = st.constant("d");
        let fx = st.app("f", vec![x]);
        let fy = st.app("f", vec![y]);
        let gx = st.app("g", vec![x]);
        let (xv, yv) = (st.sym("X"), st.sym("Y"));
        let mut s = Subst::new();
        s.bind(xv, c);
        s.bind(yv, c);
        // f(X)=f(Y) under X->c, Y->c, even though f(c) was never interned.
        assert!(st.eq_under_subst(fx, fy, &s));
        assert!(st.eq_under_subst(x, y, &s));
        assert!(!st.eq_under_subst(fx, gx, &s));
        assert!(!st.eq_under_subst(x, d, &s));
        let mut s2 = Subst::new();
        s2.bind(xv, c);
        s2.bind(yv, d);
        assert!(!st.eq_under_subst(fx, fy, &s2));
        // Same id is always equal.
        assert!(st.eq_under_subst(fx, fx, &s2));
    }

    #[test]
    fn matching_extends_subst() {
        let mut st = TermStore::new();
        let x = st.var("X");
        let y = st.var("Y");
        let c = st.constant("c");
        let d = st.constant("d");
        let pat = st.app("f", vec![x, y]);
        let gnd = st.app("f", vec![c, d]);
        let mut s = Subst::new();
        assert!(st.match_term(pat, gnd, &mut s));
        assert_eq!(s.get(st.syms.get("X").unwrap()), Some(c));
        assert_eq!(s.get(st.syms.get("Y").unwrap()), Some(d));
    }

    #[test]
    fn matching_respects_existing_bindings() {
        let mut st = TermStore::new();
        let x = st.var("X");
        let c = st.constant("c");
        let d = st.constant("d");
        let pat = st.app("f", vec![x, x]);
        let good = st.app("f", vec![c, c]);
        let bad = st.app("f", vec![c, d]);
        let mut s = Subst::new();
        assert!(st.match_term(pat, good, &mut s));
        let mut s2 = Subst::new();
        assert!(!st.match_term(pat, bad, &mut s2));
    }

    #[test]
    fn match_mismatched_shapes_fails() {
        let mut st = TermStore::new();
        let c = st.constant("c");
        let fc = st.app("f", vec![c]);
        let gc = st.app("g", vec![c]);
        let f2 = st.app("f", vec![c, c]);
        let mut s = Subst::new();
        assert!(!st.match_term(fc, gc, &mut s));
        assert!(!st.match_term(fc, f2, &mut s));
        assert!(!st.match_term(fc, c, &mut s));
    }

    #[test]
    fn export_import_round_trip() {
        let mut a = TermStore::new();
        let c = a.constant("c1");
        let d = a.constant("p2");
        let inner = a.app("g", vec![c]);
        let t = a.app("f", vec![inner, d]);
        let exported = a.export(t);
        let mut b = TermStore::new();
        let imported = b.import(&exported);
        assert_eq!(b.display(imported), a.display(t));
        // Re-import into the original store finds the same id.
        assert_eq!(a.import(&exported), t);
    }

    #[test]
    fn export_pattern_round_trips_variables() {
        let mut a = TermStore::new();
        let x = a.var("X");
        let c = a.constant("c");
        let t = a.app("f", vec![x, c]);
        let e = a.export_pattern(t);
        assert_eq!(e.size_estimate(), 1 + 1 + (1 + 1) + (1 + 1));
        let mut b = TermStore::new();
        let imported = b.import(&e);
        assert_eq!(b.display(imported), "f(X, c)");
        assert!(!b.is_ground(imported));
    }

    #[test]
    fn subst_rollback() {
        let mut st = TermStore::new();
        let c = st.constant("c");
        let xs = st.sym("X");
        let ys = st.sym("Y");
        let mut s = Subst::new();
        s.bind(xs, c);
        let m = s.mark();
        s.bind(ys, c);
        assert!(s.is_bound(ys));
        s.truncate(m);
        assert!(!s.is_bound(ys));
        assert!(s.is_bound(xs));
    }

    #[test]
    fn display_formats() {
        let mut st = TermStore::new();
        let c = st.constant("c1");
        let x = st.var("X");
        let t = st.app("f", vec![c, x]);
        assert_eq!(st.display(t), "f(c1, X)");
    }
}
