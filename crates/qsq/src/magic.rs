//! The Magic Sets rewriting — the paper's other named optimization
//! (§1/§3.1: "two main, closely related, optimization techniques … namely
//! Query-Sub-Query \[34\] and Magic Set \[7\]").
//!
//! Magic Sets keeps one *magic* relation `m_R^a` per reachable adorned
//! predicate (playing the role of QSQ's `in-R^a`) but, instead of chaining
//! supplementary relations, guards each original rule with its magic atom
//! and re-derives binding prefixes inside the magic rules:
//!
//! ```text
//! R^a(head) :- m_R^a(bound head args), b₁^a₁, …, bₙ^aₙ.
//! m_S^aj(bound args of bⱼ) :- m_R^a(…), b₁^a₁, …, bⱼ₋₁^aⱼ₋₁.   (S intensional)
//! ```
//!
//! The query checks, the seed, the naming and the worklist over adorned
//! predicates are QSQ's ([`crate::adorn::Adorner`]); so is the per-atom
//! adornment step. Only the emission differs: the guarded rule and one
//! magic rule per intensional atom, where QSQ emits a `sup` chain.
//!
//! Same answers as QSQ (both compute the query-relevant facts), different
//! space/time trade-off: no `sup` tuples are stored, at the cost of
//! re-joining rule prefixes once per magic rule. The `magic_vs_qsq`
//! experiment quantifies the trade-off; the test suite checks answer
//! equivalence on every program family we have.

use crate::adorn::{adorn_and_bind, bind_head, bound_args, AdornedPred, Adorner};
use crate::eval::{filter_answers, split_edb_facts, Materialized, QsqError};
use crate::names::{Names, Scheme};
use crate::rewrite::RewriteError;
use rescue_datalog::{
    seminaive, Atom, Database, EvalBudget, EvalStats, PredId, Program, Rule, TermId, TermStore,
};
use rustc_hash::{FxHashMap, FxHashSet};

/// The result of a Magic Sets rewriting.
#[derive(Clone, Debug)]
pub struct MagicOutput {
    pub program: Program,
    /// The seed: `m_Q^a(query constants)`.
    pub seed_pred: PredId,
    pub seed_row: Box<[TermId]>,
    /// The adorned query relation and the filter pattern for answers.
    pub answer_pred: PredId,
    pub answer_atom: Atom,
    /// `R^a ↦ fresh PredId` for intensional relations.
    pub adorned: FxHashMap<AdornedPred, PredId>,
    /// `m_R^a ↦ fresh PredId`.
    pub magic: FxHashMap<AdornedPred, PredId>,
}

/// Rewrite `program` for `query` with Magic Sets.
pub fn magic_rewrite(
    program: &Program,
    query: &Atom,
    store: &mut TermStore,
) -> Result<MagicOutput, RewriteError> {
    let mut names = Names::new(Scheme::Magic);
    let (mut adorner, seed) = Adorner::new(program, query, store, &mut names)?;
    let mut out = Program::new();
    while let Some((ap, rules)) = adorner.pop() {
        for (_, rule) in rules {
            let magic = names.input(store, ap);
            let mut body = vec![Atom::new(magic, bound_args(&rule.head, ap.adornment))];
            let mut bound = bind_head(store, &rule.head, ap.adornment);
            for atom in &rule.body {
                let ad = adorn_and_bind(store, atom, &mut bound);
                if !adorner.is_idb(atom.pred) {
                    body.push(atom.clone());
                    continue;
                }
                let sub = AdornedPred {
                    base: atom.pred,
                    adornment: ad,
                };
                // The callee's bindings from the prefix so far. Prefix
                // disequalities that are ground here are sound to include
                // but unnecessary; Magic Sets traditionally omits them
                // (over-approximating relevance is harmless).
                out.push(Rule {
                    head: Atom::new(names.input(store, sub), bound_args(atom, ad)),
                    body: body.clone(),
                    diseqs: vec![],
                });
                adorner.call(sub);
                body.push(Atom::new(names.adorned(store, sub), atom.args.clone()));
            }
            out.push(Rule {
                head: Atom::new(names.adorned(store, ap), rule.head.args.clone()),
                body,
                diseqs: rule.diseqs.clone(),
            });
        }
    }
    Ok(MagicOutput {
        program: out,
        seed_pred: seed.pred,
        seed_row: seed.row,
        answer_pred: seed.answer_pred,
        answer_atom: seed.answer_atom,
        adorned: names.adorned,
        magic: names.inputs,
    })
}

/// The outcome of a Magic Sets evaluation.
#[derive(Clone, Debug)]
pub struct MagicRun {
    pub answers: Vec<Vec<TermId>>,
    pub stats: EvalStats,
    pub materialized: Materialized,
    pub rewrite: MagicOutput,
}

/// Answer `query` over `program` via Magic Sets (mirrors
/// [`crate::qsq_answer`]).
pub fn magic_answer(
    program: &Program,
    query: &Atom,
    store: &mut TermStore,
    db: &mut Database,
    budget: &EvalBudget,
) -> Result<MagicRun, QsqError> {
    let (rules, edb) = split_edb_facts(program);
    for (pred, row) in edb {
        db.insert(pred, row);
    }
    let rw = magic_rewrite(&rules, query, store)?;
    db.insert(rw.seed_pred, rw.seed_row.clone());
    let stats = seminaive(&rw.program, store, db, budget).map_err(QsqError::Eval)?;
    let answers = filter_answers(db, store, &rw.answer_atom);
    // Breakdown: adorned vs magic vs base.
    let magic: FxHashSet<PredId> = rw.magic.values().copied().collect();
    let adorned: FxHashSet<PredId> = rw.adorned.values().copied().collect();
    let mut m = Materialized::default();
    for (pred, rel) in db.iter() {
        if magic.contains(&pred) {
            m.input += rel.len();
        } else if adorned.contains(&pred) {
            m.adorned += rel.len();
        } else {
            m.base += rel.len();
        }
    }
    Ok(MagicRun {
        answers,
        stats,
        materialized: m,
        rewrite: rw,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::qsq_answer;
    use rescue_datalog::{parse_atom, parse_program};

    fn both(src: &str, query: &str) -> (Vec<Vec<String>>, Vec<Vec<String>>, usize, usize) {
        let mut st = TermStore::new();
        let prog = parse_program(src, &mut st).unwrap();
        let q = parse_atom(query, &mut st).unwrap();
        let mut db_m = Database::new();
        let magic = magic_answer(&prog, &q, &mut st, &mut db_m, &EvalBudget::default()).unwrap();
        let mut db_q = Database::new();
        let qsq = qsq_answer(&prog, &q, &mut st, &mut db_q, &EvalBudget::default()).unwrap();
        let render = |rows: &[Vec<TermId>]| -> Vec<Vec<String>> {
            let mut v: Vec<Vec<String>> = rows
                .iter()
                .map(|r| r.iter().map(|&t| st.display(t)).collect())
                .collect();
            v.sort();
            v
        };
        (
            render(&magic.answers),
            render(&qsq.answers),
            magic.materialized.derived_total(),
            qsq.materialized.derived_total(),
        )
    }

    #[test]
    fn magic_agrees_with_qsq_on_figure3() {
        let mut src = String::from(
            r#"
            R@r(X, Y) :- A@r(X, Y).
            R@r(X, Y) :- S@s(X, Z), T@t(Z, Y).
            S@s(X, Y) :- R@r(X, Y), B@s(Y, Z).
            T@t(X, Y) :- C@t(X, Y).
        "#,
        );
        for i in 1..8 {
            src.push_str(&format!("A@r(\"{}\", \"{}\").\n", i, i + 1));
            src.push_str(&format!("B@s(\"{}\", m{}).\n", i + 1, i + 1));
            src.push_str(&format!("C@t(\"{}\", \"{}\").\n", i + 1, i + 2));
        }
        let (m, q, m_derived, q_derived) = both(&src, r#"R@r("1", Y)"#);
        assert_eq!(m, q);
        assert!(!m.is_empty());
        // No sup tuples: magic stores less.
        assert!(m_derived <= q_derived);
    }

    #[test]
    fn magic_agrees_on_recursion_with_functions() {
        let src = r#"
            Even@a(z).
            Even@a(s(N)) :- Odd@b(N).
            Odd@b(s(N)) :- Even@a(N), Small@c(N).
            Small@c(z). Small@c(s(z)). Small@c(s(s(z))).
        "#;
        let (m, q, _, _) = both(src, "Even@a(X)");
        assert_eq!(m, q);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn magic_agrees_with_diseqs() {
        let src = r#"
            Item@p(a). Item@p(b). Item@p(c).
            Other@p(X, Y) :- Item@p(X), Item@p(Y), X != Y.
        "#;
        let (m, q, _, _) = both(src, "Other@p(a, Y)");
        assert_eq!(m, q);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn magic_same_generation() {
        let mut src = String::from(
            r#"
            Sg@p(X, X) :- Person@p(X).
            Sg@p(X, Y) :- Par@p(X, XP), Sg@p(XP, YP), Par@p(Y, YP).
        "#,
        );
        for (c, p) in [
            ("t0", "t"),
            ("t1", "t"),
            ("t00", "t0"),
            ("t01", "t0"),
            ("t10", "t1"),
            ("t11", "t1"),
        ] {
            src.push_str(&format!("Par@p({c}, {p}).\n"));
        }
        for x in ["t", "t0", "t1", "t00", "t01", "t10", "t11"] {
            src.push_str(&format!("Person@p({x}).\n"));
        }
        let (m, q, _, _) = both(&src, "Sg@p(t00, Y)");
        assert_eq!(m, q);
        assert_eq!(m.len(), 4);
    }

    #[test]
    fn magic_terminates_on_diagnosis_programs() {
        // The real stress test: the generated diagnosis program, no depth
        // bound — Magic Sets must stay query-bounded too.
        use rescue_datalog::Database;
        let net = rescue_petri_stub::figure1_program();
        let mut st = TermStore::new();
        let prog = parse_program(&net.0, &mut st).unwrap();
        let q = parse_atom(&net.1, &mut st).unwrap();
        let mut db = Database::new();
        let run = magic_answer(&prog, &q, &mut st, &mut db, &EvalBudget::default()).unwrap();
        let _ = run;
    }

    /// A tiny self-contained stand-in so this crate's tests don't depend
    /// on `rescue-diagnosis` (which depends on us): a hand-written
    /// unfolding-flavoured program with function symbols whose naive
    /// evaluation is infinite but whose query is binding-bounded.
    mod rescue_petri_stub {
        pub fn figure1_program() -> (String, String) {
            (
                r#"
                Node@p(g(r, c1)).
                Node@p(g(f(X), c2)) :- Node@p(X), Grow@p.
                Grow@p.
                Probe@p(X) :- Node@p(X).
                "#
                .to_owned(),
                "Probe@p(g(r, c1))".to_owned(),
            )
        }
    }
}
