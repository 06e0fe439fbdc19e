//! The QSQ / dQSQ rewriting (paper §3.1–3.2, Figures 4 and 5).
//!
//! Given a program and a query, the rewriting produces a new program whose
//! bottom-up (semi-naive) evaluation simulates the top-down, left-to-right
//! propagation of bindings — materializing only the tuples *relevant to the
//! query*:
//!
//! * for each reachable adorned relation `R^a` an **input relation**
//!   `in-R^a` accumulates the bindings R is called with;
//! * for each rule `i` and body position `j`, a **supplementary relation**
//!   `sup_{i,j}` carries the bindings of the variables still needed to the
//!   right of position `j`;
//! * extensional atoms are joined in place; intensional atoms are replaced
//!   by their adorned versions, with a rule feeding `in-S^a` from
//!   `sup_{i,j-1}`.
//!
//! [`rewrite_with`] is the global driver of the one body walk
//! ([`crate::walk::Cursor`]): it knows every rule, so it steps every atom
//! itself, in one `TermStore`. Structurally identical sups are merged as
//! they are defined ([`crate::walk::Emitted`]).
//!
//! **Distribution for free.** Each generated rule is placed at the peer
//! that owns its head: `sup_{i,0}` at the rule's site, `sup_{i,j}` at the
//! peer of body atom `j`, `in-S^a` and `S^a` at S's peer. On a *local*
//! program every peer coincides and the output is exactly Figure 4; on a
//! distributed program the output is exactly Figure 5 — the supplementary
//! relations whose producer and consumer sites differ (bold in the paper)
//! are the ones shipped between peers. This uniformity is the content of
//! Theorem 1, which `rescue-dqsq` verifies both structurally and
//! semantically.

use crate::adorn::{AdornedPred, Adorner};
use crate::names::RelKind;
use crate::walk::{Cursor, Emitted};
use rescue_datalog::{Atom, PredId, Program, TermId, TermStore};
use rustc_hash::FxHashMap;

/// Where the supplementary relations live in a distributed rewriting —
/// the design choice of the paper's Remark 1 ("one could use a different
/// distribution for the supplementary relations, based on some cost
/// model").
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SupPlacement {
    /// `sup_{i,j}` at the peer of body atom `j` (the paper's Figure 5
    /// presentation): the *bindings* travel to the data.
    #[default]
    AtomPeer,
    /// Every `sup_{i,j}` at the rule's site: the *data* (each atom's
    /// matching tuples) travels to the rule. Same answers, different
    /// communication profile — quantified by experiment E10.
    RuleSite,
}

/// The result of rewriting a (program, query) pair.
#[derive(Clone, Debug)]
pub struct RewriteOutput {
    /// The rewritten program (rules only; seed facts are separate).
    pub program: Program,
    /// The `in-Q^a` seed: predicate and the one row holding the query's
    /// bound arguments.
    pub seed_pred: PredId,
    pub seed_row: Box<[TermId]>,
    /// The adorned query predicate `Q^a` and the pattern to filter its rows
    /// with to obtain the query answers.
    pub answer_pred: PredId,
    pub answer_atom: Atom,
    /// Adorned intensional relations created, `R^a ↦ fresh PredId`.
    pub adorned: FxHashMap<AdornedPred, PredId>,
    /// Input relations created, `in-R^a ↦ fresh PredId`.
    pub inputs: FxHashMap<AdornedPred, PredId>,
    /// All supplementary predicates surviving dedup, in creation order.
    pub sups: Vec<PredId>,
    /// Dedup provenance: every supplementary relation merged away maps to
    /// the canonical sup that now carries its tuples. Telemetry and
    /// dashboards resolve stale `sup_{i,j}` names through this so a scan
    /// is always attributed to the relation that actually ran.
    pub sup_canon: FxHashMap<PredId, PredId>,
    /// Every rewritten relation's role and source relation (`R` for
    /// `R^a`, `in-R^a` and the sups of `R`'s rules), built once.
    kinds: FxHashMap<PredId, (RelKind, PredId)>,
}

impl RewriteOutput {
    /// The canonical supplementary predicate for `pred`: the sup itself
    /// if it survived dedup, its merge target if it was deduplicated
    /// away, `None` if it is not a supplementary relation.
    pub fn canonical_sup(&self, pred: PredId) -> Option<PredId> {
        match self.sup_canon.get(&pred) {
            Some(&c) => Some(c),
            None => (self.kind_of(pred) == RelKind::Supplementary).then_some(pred),
        }
    }

    /// Classify a predicate of the rewritten program.
    pub fn kind_of(&self, pred: PredId) -> RelKind {
        self.kinds
            .get(&pred)
            .map_or(RelKind::Base, |&(kind, _)| kind)
    }

    /// The relation of the original program that `pred` was made for: `R`
    /// for `R^a`, `in-R^a` and the sups of `R`'s rules (a merged sup's
    /// tuples count for the rule that defined its carrier first), and
    /// `pred` itself for a base relation.
    pub fn source_of(&self, pred: PredId) -> PredId {
        self.kinds.get(&pred).map_or(pred, |&(_, source)| source)
    }
}

/// Errors from [`rewrite`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RewriteError {
    /// The query predicate has no defining rule — it is extensional, so no
    /// rewriting is needed (answer it directly from the database).
    ExtensionalQuery { pred: String },
    /// The program uses stratified negation, which the QSQ / Magic Sets
    /// rewritings here do not support (the paper's Remark 4 points to
    /// magic-sets-with-negation extensions \[29, 15\] as future work).
    NegationUnsupported,
}

impl std::fmt::Display for RewriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RewriteError::ExtensionalQuery { pred } => {
                write!(
                    f,
                    "query predicate {pred} is extensional; query the database directly"
                )
            }
            RewriteError::NegationUnsupported => {
                write!(f, "the QSQ/Magic rewritings require a positive program")
            }
        }
    }
}

impl std::error::Error for RewriteError {}

/// Rewrite `program` for `query` (an atom whose ground arguments are the
/// bound ones). The returned program, seeded with
/// `seed_pred(seed_row)` and the extensional facts, computes the query
/// answers in `answer_pred` when evaluated bottom-up.
pub fn rewrite(
    program: &Program,
    query: &Atom,
    store: &mut TermStore,
) -> Result<RewriteOutput, RewriteError> {
    rewrite_with(program, query, store, SupPlacement::AtomPeer)
}

/// [`rewrite`] with an explicit supplementary-relation placement policy
/// (Remark 1 ablation).
pub fn rewrite_with(
    program: &Program,
    query: &Atom,
    store: &mut TermStore,
    placement: SupPlacement,
) -> Result<RewriteOutput, RewriteError> {
    let mut out = Emitted::default();
    let (mut adorner, seed) = Adorner::new(program, query, store, &mut out.names)?;
    while let Some((ap, rules)) = adorner.pop() {
        for (i, rule) in rules {
            let site = rule.site();
            let mut cursor = Cursor::start(i, rule, ap.adornment, site, store, &mut out);
            while let Some(atom) = cursor.next_atom() {
                let peer = match placement {
                    SupPlacement::AtomPeer => atom.pred.peer,
                    SupPlacement::RuleSite => site,
                };
                let idb = adorner.is_idb(atom.pred);
                if let Some(callee) = cursor.step(idb, peer, store, &mut out) {
                    adorner.call(callee);
                }
            }
            cursor.finish(store, &mut out);
        }
    }
    let names = out.names;
    let roles = [
        (RelKind::Adorned, &names.adorned),
        (RelKind::Input, &names.inputs),
    ];
    let mut kinds: FxHashMap<PredId, (RelKind, PredId)> = (roles.iter())
        .flat_map(|&(kind, map)| map.iter().map(move |(ap, &p)| (p, (kind, ap.base))))
        .collect();
    let sups = out.sources.iter();
    kinds.extend(sups.map(|(&p, &source)| (p, (RelKind::Supplementary, source))));
    Ok(RewriteOutput {
        program: out.program,
        seed_pred: seed.pred,
        seed_row: seed.row,
        answer_pred: seed.answer_pred,
        answer_atom: seed.answer_atom,
        adorned: names.adorned,
        inputs: names.inputs,
        sups: out.sups,
        sup_canon: out.sup_canon,
        kinds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescue_datalog::{parse_atom, parse_program, TermStore};

    /// The paper's Figure 3 program.
    pub(crate) const FIGURE3: &str = r#"
        R@r(X, Y) :- A@r(X, Y).
        R@r(X, Y) :- S@s(X, Z), T@t(Z, Y).
        S@s(X, Y) :- R@r(X, Y), B@s(Y, Z).
        T@t(X, Y) :- C@t(X, Y).
    "#;

    #[test]
    fn figure4_shape() {
        let mut st = TermStore::new();
        let prog = parse_program(FIGURE3, &mut st).unwrap();
        let q = parse_atom(r#"R@r("1", Y)"#, &mut st).unwrap();
        let out = rewrite(&prog, &q, &mut st).unwrap();

        // Adorned relations: R^bf, S^bf, T^bf — exactly as in Figure 4.
        let labels: std::collections::BTreeSet<String> = out
            .adorned
            .keys()
            .map(|ap| format!("{}{}", st.sym_str(ap.base.name), ap.adornment.label()))
            .collect();
        assert_eq!(
            labels,
            ["Rbf", "Sbf", "Tbf"]
                .iter()
                .map(|s| s.to_string())
                .collect()
        );
        // Rules: Figure 4 lists, besides the query block:
        //   rule1: sup10, sup11, Rbf            (3)
        //   rule2: sup20, sup21, sup22, in-S, in-T, Rbf   (6)
        //   rule3: sup30, sup31, sup32, in-R, Sbf (5)
        //   rule4: sup40, sup41, Tbf            (3)
        // = 17, minus one: R's two rules open with the identical
        // `sup_{i,0}(X) :- in_R__bf(X)`, which dedup merges into one.
        assert_eq!(out.program.len(), 16);
        // Supplementary relations: 2 + 3 + 3 + 2 = 10 (sup_{i,0..n}),
        // minus the merged sup_1_0.
        assert_eq!(out.sups.len(), 9);
        // The merged sup keeps a provenance entry naming its canonical
        // carrier, so traces never attribute work to a stale name.
        let by_name = |n: &str| -> PredId {
            *out.sup_canon
                .keys()
                .chain(out.sups.iter())
                .find(|p| st.sym_str(p.name) == n)
                .unwrap()
        };
        let merged = by_name("sup_1_0__bf");
        let kept = by_name("sup_0_0__bf");
        assert_eq!(out.sup_canon.get(&merged), Some(&kept));
        assert_eq!(out.canonical_sup(merged), Some(kept));
        assert_eq!(out.canonical_sup(kept), Some(kept));
        assert_eq!(out.kind_of(merged), RelKind::Supplementary);
        // Inputs: in-R^bf, in-S^bf, in-T^bf.
        assert_eq!(out.inputs.len(), 3);
        // The rewritten program is valid dDatalog.
        out.program.validate(&st).unwrap();
    }

    #[test]
    fn seed_holds_query_constants() {
        let mut st = TermStore::new();
        let prog = parse_program(FIGURE3, &mut st).unwrap();
        let q = parse_atom(r#"R@r("1", Y)"#, &mut st).unwrap();
        let out = rewrite(&prog, &q, &mut st).unwrap();
        let one = st.constant("1");
        assert_eq!(&*out.seed_row, &[one]);
        assert_eq!(st.sym_str(out.seed_pred.name), "in_R__bf");
        assert_eq!(st.sym_str(out.answer_pred.name), "R__bf");
    }

    #[test]
    fn negated_programs_are_rejected() {
        let mut st = TermStore::new();
        let prog = parse_program(
            r#"
            Reach@p(a).
            Reach@p(Y) :- Reach@p(X), Edge@p(X, Y).
            Un@p(X) :- Node@p(X), not Reach@p(X).
            Node@p(a). Edge@p(a, b).
        "#,
            &mut st,
        )
        .unwrap();
        let q = parse_atom("Un@p(X)", &mut st).unwrap();
        assert!(matches!(
            rewrite(&prog, &q, &mut st),
            Err(RewriteError::NegationUnsupported)
        ));
        assert!(matches!(
            crate::magic::magic_rewrite(&prog, &q, &mut st),
            Err(RewriteError::NegationUnsupported)
        ));
    }

    #[test]
    fn extensional_query_is_rejected() {
        let mut st = TermStore::new();
        let prog = parse_program(FIGURE3, &mut st).unwrap();
        let q = parse_atom("A@r(X, Y)", &mut st).unwrap();
        assert!(matches!(
            rewrite(&prog, &q, &mut st),
            Err(RewriteError::ExtensionalQuery { .. })
        ));
    }

    #[test]
    fn distributed_placement_ships_sups() {
        // On the distributed Figure 3, sup_{2,1} (position after S@s) must
        // live at peer s while sup_{2,0} lives at r: that pair is the
        // shipped relation (bold in Figure 5).
        let mut st = TermStore::new();
        let prog = parse_program(FIGURE3, &mut st).unwrap();
        let q = parse_atom(r#"R@r("1", Y)"#, &mut st).unwrap();
        let out = rewrite(&prog, &q, &mut st).unwrap();
        let peer_of = |name: &str| -> Option<String> {
            out.program
                .rules
                .iter()
                .flat_map(|r| std::iter::once(&r.head).chain(r.body.iter()))
                .find(|a| st.sym_str(a.pred.name) == name)
                .map(|a| st.sym_str(a.pred.peer.0).to_owned())
        };
        // sup_1_0 is deduped into sup_0_0 (both are `:- in_R__bf(X)` at
        // r), so the chain of R's second rule opens at the canonical sup.
        assert_eq!(peer_of("sup_1_0__bf"), None);
        assert_eq!(peer_of("sup_0_0__bf").as_deref(), Some("r"));
        assert_eq!(peer_of("sup_1_1__bf").as_deref(), Some("s"));
        assert_eq!(peer_of("sup_1_2__bf").as_deref(), Some("t"));
        assert_eq!(peer_of("in_S__bf").as_deref(), Some("s"));
        assert_eq!(peer_of("in_T__bf").as_deref(), Some("t"));
        // The sup_1_1 rule reads the canonical sup across the r->s hop.
        let sup11_rule = out
            .program
            .rules
            .iter()
            .find(|r| st.sym_str(r.head.pred.name) == "sup_1_1__bf")
            .unwrap();
        assert!(sup11_rule
            .body
            .iter()
            .any(|a| st.sym_str(a.pred.name) == "sup_0_0__bf"));
    }

    #[test]
    fn adornments_lift_through_function_terms() {
        let mut st = TermStore::new();
        let prog = parse_program(
            r#"
            Tr@p(f(C, U), U) :- Pn@p(C), Pl@p(U).
            Pl@p(g(X)) :- Tr@p(X, Y).
        "#,
            &mut st,
        )
        .unwrap();
        let c0 = st.constant("c0");
        let f = st.app("f", vec![c0, c0]);
        let y = st.var("Y");
        let q = Atom::new(prog.rules[0].head.pred, vec![f, y]);
        let out = rewrite(&prog, &q, &mut st).unwrap();
        out.program.validate(&st).unwrap();
        // Tr is queried as Tr^bf; its head f(C,U) being bound binds C and U.
        let has = |name: &str| {
            out.program
                .rules
                .iter()
                .any(|r| st.sym_str(r.head.pred.name) == name)
        };
        assert!(has("Tr__bf"));
    }
}
