//! The dDatalog language: atoms `R@p(e₁,…,eₙ)`, rules with disequality
//! constraints, and programs (Section 3 of the paper).
//!
//! A *peer* name is always a constant (the paper's departure from \[32\]), so
//! peers are plain [`Sym`]s. A relation is identified by its name *and* the
//! peer that hosts it — the canonical translation to a "global" program in
//! the paper appends the peer as an extra column; keying relations by
//! `(name, peer)` is the same thing with the column baked into the key.

use crate::symbol::Sym;
use crate::term::{Subst, TermId, TermStore};
use std::fmt::Write as _;

/// A peer name (always a constant in dDatalog).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Peer(pub Sym);

/// A relation identifier: name + hosting peer.
///
/// Local (single-site) programs use a designated peer for every relation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct PredId {
    pub name: Sym,
    pub peer: Peer,
}

/// An atom `R@p(e₁, …, eₙ)`, possibly negated when used in a rule body
/// (`not R@p(…)` — stratified negation, the paper's Remark 4).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Atom {
    pub pred: PredId,
    pub args: Vec<TermId>,
    /// Only meaningful in rule bodies; heads are never negated.
    pub negated: bool,
}

impl Atom {
    pub fn new(pred: PredId, args: Vec<TermId>) -> Self {
        Atom {
            pred,
            args,
            negated: false,
        }
    }

    /// The negated version of this atom (for rule bodies).
    pub fn negate(mut self) -> Self {
        self.negated = true;
        self
    }

    pub fn arity(&self) -> usize {
        self.args.len()
    }

    /// Variables of this atom, in first-occurrence order.
    pub fn vars(&self, store: &TermStore) -> Vec<Sym> {
        let mut out = Vec::new();
        for &a in &self.args {
            store.collect_vars(a, &mut out);
        }
        out
    }

    /// `true` iff every argument is ground.
    pub fn is_ground(&self, store: &TermStore) -> bool {
        self.args.iter().all(|&a| store.is_ground(a))
    }

    /// Apply a substitution to every argument.
    pub fn substitute(&self, store: &mut TermStore, subst: &Subst) -> Atom {
        Atom {
            pred: self.pred,
            args: self
                .args
                .iter()
                .map(|&a| store.substitute(a, subst))
                .collect(),
            negated: self.negated,
        }
    }
}

/// A disequality constraint `x ≠ y` between two terms of the rule body.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Diseq {
    pub lhs: TermId,
    pub rhs: TermId,
}

/// A rule `a₀ :- a₁, …, aₙ, x₁≠y₁, …, xₘ≠yₘ`. With `n = 0` and no
/// variables, the rule is a *fact*.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Rule {
    pub head: Atom,
    pub body: Vec<Atom>,
    pub diseqs: Vec<Diseq>,
}

impl Rule {
    pub fn fact(head: Atom) -> Self {
        Rule {
            head,
            body: Vec::new(),
            diseqs: Vec::new(),
        }
    }

    pub fn is_fact(&self) -> bool {
        self.body.is_empty()
    }

    /// The peer hosting this rule (the peer of its head).
    pub fn site(&self) -> Peer {
        self.head.pred.peer
    }

    /// All variables of the rule body, in first-occurrence order.
    pub fn body_vars(&self, store: &TermStore) -> Vec<Sym> {
        let mut out = Vec::new();
        for atom in &self.body {
            for &a in &atom.args {
                store.collect_vars(a, &mut out);
            }
        }
        out
    }

    /// Variables of the *positive* body atoms (the safe ones, which bind).
    pub fn positive_vars(&self, store: &TermStore) -> Vec<Sym> {
        let mut out = Vec::new();
        for atom in self.body.iter().filter(|a| !a.negated) {
            for &a in &atom.args {
                store.collect_vars(a, &mut out);
            }
        }
        out
    }

    /// Does the rule body contain a negated atom?
    pub fn has_negation(&self) -> bool {
        self.body.iter().any(|a| a.negated)
    }
}

/// A dDatalog program: a finite set of rules.
///
/// A program is *local* when all atoms mention a single peer; distributed
/// programs partition their rules by the peer of the head (the "rules at
/// site p").
#[derive(Clone, Default, Debug)]
pub struct Program {
    pub rules: Vec<Rule>,
}

/// A validation failure for a program. See [`Program::validate`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ValidationError {
    /// A head variable does not occur in the body (range restriction).
    UnrestrictedHeadVar { rule: usize, var: String },
    /// A disequality mentions a variable absent from the body.
    UnrestrictedDiseqVar { rule: usize, var: String },
    /// The same relation is used with two different arities.
    ArityMismatch {
        pred: String,
        expected: usize,
        found: usize,
    },
    /// A variable of a negated atom does not occur in any positive atom
    /// (negation safety).
    UnsafeNegatedVar { rule: usize, var: String },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::UnrestrictedHeadVar { rule, var } => {
                write!(f, "rule {rule}: head variable {var} not bound in body")
            }
            ValidationError::UnrestrictedDiseqVar { rule, var } => {
                write!(
                    f,
                    "rule {rule}: disequality variable {var} not bound in body"
                )
            }
            ValidationError::ArityMismatch {
                pred,
                expected,
                found,
            } => write!(
                f,
                "relation {pred} used with arities {expected} and {found}"
            ),
            ValidationError::UnsafeNegatedVar { rule, var } => {
                write!(
                    f,
                    "rule {rule}: negated-atom variable {var} not bound positively"
                )
            }
        }
    }
}

impl std::error::Error for ValidationError {}

impl Program {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, rule: Rule) {
        self.rules.push(rule);
    }

    pub fn len(&self) -> usize {
        self.rules.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The rules whose head lives at `peer` — "the rules at site p".
    pub fn rules_at(&self, peer: Peer) -> impl Iterator<Item = &Rule> {
        self.rules.iter().filter(move |r| r.site() == peer)
    }

    /// All peers mentioned by the program (head or body), deduplicated.
    pub fn peers(&self) -> Vec<Peer> {
        let mut out: Vec<Peer> = Vec::new();
        let mut add = |p: Peer| {
            if !out.contains(&p) {
                out.push(p);
            }
        };
        for r in &self.rules {
            add(r.head.pred.peer);
            for a in &r.body {
                add(a.pred.peer);
            }
        }
        out
    }

    /// `true` iff the program mentions at most one peer.
    pub fn is_local(&self) -> bool {
        self.peers().len() <= 1
    }

    /// All predicates appearing in the program, in first-occurrence order
    /// (heads before bodies, rule by rule), each with the arity of that
    /// first occurrence.
    pub fn predicates(&self) -> Vec<(PredId, usize)> {
        let mut seen: rustc_hash::FxHashSet<PredId> = Default::default();
        let mut out: Vec<(PredId, usize)> = Vec::new();
        for r in &self.rules {
            for a in std::iter::once(&r.head).chain(r.body.iter()) {
                if seen.insert(a.pred) {
                    out.push((a.pred, a.arity()));
                }
            }
        }
        out
    }

    /// Predicates defined by some rule head (the *intensional* relations).
    pub fn idb_predicates(&self) -> Vec<PredId> {
        let mut out = Vec::new();
        for r in &self.rules {
            if !out.contains(&r.head.pred) {
                out.push(r.head.pred);
            }
        }
        out
    }

    /// `true` iff `pred` is intensional in this program.
    pub fn is_idb(&self, pred: PredId) -> bool {
        self.rules.iter().any(|r| r.head.pred == pred)
    }

    /// Does any rule use (stratified) negation?
    pub fn has_negation(&self) -> bool {
        self.rules.iter().any(|r| r.has_negation())
    }

    /// Check range restriction, disequality safety and arity consistency.
    pub fn validate(&self, store: &TermStore) -> Result<(), ValidationError> {
        let mut arities: rustc_hash::FxHashMap<PredId, usize> = Default::default();
        for (i, rule) in self.rules.iter().enumerate() {
            for a in std::iter::once(&rule.head).chain(rule.body.iter()) {
                match arities.get(&a.pred) {
                    None => {
                        arities.insert(a.pred, a.arity());
                    }
                    Some(&n) if n != a.arity() => {
                        return Err(ValidationError::ArityMismatch {
                            pred: store.sym_str(a.pred.name).to_owned(),
                            expected: n,
                            found: a.arity(),
                        });
                    }
                    _ => {}
                }
            }
            let body_vars = rule.positive_vars(store);
            for v in rule.head.vars(store) {
                if !body_vars.contains(&v) {
                    return Err(ValidationError::UnrestrictedHeadVar {
                        rule: i,
                        var: store.sym_str(v).to_owned(),
                    });
                }
            }
            for d in &rule.diseqs {
                for t in [d.lhs, d.rhs] {
                    for v in store.vars(t) {
                        if !body_vars.contains(&v) {
                            return Err(ValidationError::UnrestrictedDiseqVar {
                                rule: i,
                                var: store.sym_str(v).to_owned(),
                            });
                        }
                    }
                }
            }
            for atom in rule.body.iter().filter(|a| a.negated) {
                for v in atom.vars(store) {
                    if !body_vars.contains(&v) {
                        return Err(ValidationError::UnsafeNegatedVar {
                            rule: i,
                            var: store.sym_str(v).to_owned(),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Pretty-print the program in the parseable text syntax.
    pub fn display(&self, store: &TermStore) -> String {
        let mut out = String::new();
        for r in &self.rules {
            out.push_str(&display_rule(r, store));
            out.push('\n');
        }
        out
    }
}

/// Pretty-print one atom as `R@p(args…)` (negated atoms get a `not`
/// prefix).
pub fn display_atom(atom: &Atom, store: &TermStore) -> String {
    let mut s = String::new();
    if atom.negated {
        s.push_str("not ");
    }
    s.push_str(store.sym_str(atom.pred.name));
    s.push('@');
    s.push_str(store.sym_str(atom.pred.peer.0));
    s.push('(');
    for (i, &a) in atom.args.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&store.display(a));
    }
    s.push(')');
    s
}

/// Pretty-print one rule.
pub fn display_rule(rule: &Rule, store: &TermStore) -> String {
    let mut s = display_atom(&rule.head, store);
    if !rule.body.is_empty() || !rule.diseqs.is_empty() {
        s.push_str(" :- ");
        let mut parts: Vec<String> = rule.body.iter().map(|a| display_atom(a, store)).collect();
        for d in &rule.diseqs {
            let mut p = String::new();
            let _ = write!(p, "{} != {}", store.display(d.lhs), store.display(d.rhs));
            parts.push(p);
        }
        s.push_str(&parts.join(", "));
    }
    s.push('.');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(store: &mut TermStore, name: &str, peer: &str) -> PredId {
        PredId {
            name: store.sym(name),
            peer: Peer(store.sym(peer)),
        }
    }

    #[test]
    fn program_partitions_by_site() {
        let mut st = TermStore::new();
        let x = st.var("X");
        let r = pid(&mut st, "R", "r");
        let s = pid(&mut st, "S", "s");
        let mut prog = Program::new();
        prog.push(Rule {
            head: Atom::new(r, vec![x]),
            body: vec![Atom::new(s, vec![x])],
            diseqs: vec![],
        });
        prog.push(Rule {
            head: Atom::new(s, vec![x]),
            body: vec![Atom::new(s, vec![x])],
            diseqs: vec![],
        });
        assert_eq!(prog.rules_at(r.peer).count(), 1);
        assert_eq!(prog.rules_at(s.peer).count(), 1);
        assert_eq!(prog.peers().len(), 2);
        assert!(!prog.is_local());
    }

    #[test]
    fn validate_rejects_unrestricted_head() {
        let mut st = TermStore::new();
        let x = st.var("X");
        let y = st.var("Y");
        let r = pid(&mut st, "R", "p");
        let s = pid(&mut st, "S", "p");
        let mut prog = Program::new();
        prog.push(Rule {
            head: Atom::new(r, vec![x, y]),
            body: vec![Atom::new(s, vec![x])],
            diseqs: vec![],
        });
        assert!(matches!(
            prog.validate(&st),
            Err(ValidationError::UnrestrictedHeadVar { .. })
        ));
    }

    #[test]
    fn validate_rejects_arity_mismatch() {
        let mut st = TermStore::new();
        let x = st.var("X");
        let r = pid(&mut st, "R", "p");
        let mut prog = Program::new();
        prog.push(Rule {
            head: Atom::new(r, vec![x]),
            body: vec![Atom::new(r, vec![x, x])],
            diseqs: vec![],
        });
        assert!(matches!(
            prog.validate(&st),
            Err(ValidationError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn validate_rejects_unsafe_diseq() {
        let mut st = TermStore::new();
        let x = st.var("X");
        let z = st.var("Z");
        let r = pid(&mut st, "R", "p");
        let s = pid(&mut st, "S", "p");
        let mut prog = Program::new();
        prog.push(Rule {
            head: Atom::new(r, vec![x]),
            body: vec![Atom::new(s, vec![x])],
            diseqs: vec![Diseq { lhs: x, rhs: z }],
        });
        assert!(matches!(
            prog.validate(&st),
            Err(ValidationError::UnrestrictedDiseqVar { .. })
        ));
    }

    #[test]
    fn display_rule_shape() {
        let mut st = TermStore::new();
        let x = st.var("X");
        let one = st.constant("1");
        let q = pid(&mut st, "Q", "r");
        let r = pid(&mut st, "R", "r");
        let rule = Rule {
            head: Atom::new(q, vec![x]),
            body: vec![Atom::new(r, vec![one, x])],
            diseqs: vec![],
        };
        assert_eq!(display_rule(&rule, &st), "Q@r(X) :- R@r(1, X).");
    }

    #[test]
    fn predicates_keep_first_occurrence_order_on_a_large_program() {
        // 5,000 rules `H_i(X, X) :- B_i(X), Shared(X, X, X).`: the list
        // must read H_0, B_0, Shared, H_1, B_1, H_2, … with the arity of
        // each first occurrence. Milliseconds while the dedup is a hash
        // set; a per-atom scan of the list so far is 10^8 comparisons.
        let mut st = TermStore::new();
        let x = st.var("X");
        let shared = pid(&mut st, "Shared", "p");
        let mut prog = Program::new();
        let mut want = Vec::new();
        for i in 0..5_000 {
            let h = pid(&mut st, &format!("H{i}"), "p");
            let b = pid(&mut st, &format!("B{i}"), "p");
            prog.push(Rule {
                head: Atom::new(h, vec![x, x]),
                body: vec![Atom::new(b, vec![x]), Atom::new(shared, vec![x, x, x])],
                diseqs: vec![],
            });
            want.extend([(h, 2), (b, 1)]);
            if i == 0 {
                want.push((shared, 3));
            }
        }
        assert_eq!(prog.predicates(), want);
    }

    #[test]
    fn idb_vs_edb() {
        let mut st = TermStore::new();
        let x = st.var("X");
        let r = pid(&mut st, "R", "p");
        let a = pid(&mut st, "A", "p");
        let mut prog = Program::new();
        prog.push(Rule {
            head: Atom::new(r, vec![x]),
            body: vec![Atom::new(a, vec![x])],
            diseqs: vec![],
        });
        assert!(prog.is_idb(r));
        assert!(!prog.is_idb(a));
        assert_eq!(prog.idb_predicates(), vec![r]);
    }
}
