//! Driving a QSQ evaluation end to end: split extensional facts, rewrite,
//! seed, run semi-naive to fixpoint, read the answers off the adorned query
//! relation, and report how much was materialized.

use crate::names::RelKind;
use crate::rewrite::{rewrite, RewriteError, RewriteOutput};
use rescue_datalog::{
    seminaive_opts, Atom, Database, EvalBudget, EvalError, EvalOptions, EvalStats, PredId, Program,
    Subst, TermId, TermStore,
};
use rustc_hash::FxHashMap;
use std::fmt;

/// Errors from [`qsq_answer`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum QsqError {
    Rewrite(RewriteError),
    Eval(EvalError),
}

impl fmt::Display for QsqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QsqError::Rewrite(e) => write!(f, "rewrite: {e}"),
            QsqError::Eval(e) => write!(f, "eval: {e}"),
        }
    }
}

impl std::error::Error for QsqError {}

impl From<RewriteError> for QsqError {
    fn from(e: RewriteError) -> Self {
        QsqError::Rewrite(e)
    }
}

impl From<EvalError> for QsqError {
    fn from(e: EvalError) -> Self {
        QsqError::Eval(e)
    }
}

/// The outcome of one QSQ evaluation.
#[derive(Clone, Debug)]
pub struct QsqRun {
    /// Rows of the query relation matching the query pattern.
    pub answers: Vec<Vec<TermId>>,
    /// Engine counters for the semi-naive run over the rewritten program.
    pub stats: EvalStats,
    /// Materialization breakdown — the paper's object of comparison.
    pub materialized: Materialized,
    /// The rewriting that was evaluated.
    pub rewrite: RewriteOutput,
}

/// Fact counts by relation role after an evaluation.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct Materialized {
    /// Facts in adorned intensional relations (`R^a`) — the tuples of the
    /// original program's relations that QSQ actually derived.
    pub adorned: usize,
    /// Facts in supplementary relations.
    pub sup: usize,
    /// Facts in input relations (`in-R^a`).
    pub input: usize,
    /// Extensional facts (the given data, not derived).
    pub base: usize,
    /// The derived facts per relation of the original program — its
    /// adorned and input relations and the sup chains of its rules — most
    /// rows first (QSQ only; empty for Magic Sets).
    pub by_relation: Vec<(PredId, usize)>,
}

impl Materialized {
    /// Everything the evaluation stored beyond the given data.
    pub fn derived_total(&self) -> usize {
        self.adorned + self.sup + self.input
    }
}

/// Split a program into (rules, extensional facts): a predicate whose
/// defining rules are all ground facts is extensional (the paper's "base
/// relations, given extensionally as facts"); its facts move to the
/// database seed list. Facts of genuinely intensional predicates stay in
/// the program.
/// Extensional facts lifted out of a program: `(predicate, ground row)`.
pub type EdbFacts = Vec<(PredId, Box<[TermId]>)>;

pub fn split_edb_facts(program: &Program) -> (Program, EdbFacts) {
    let mut intensional: Vec<PredId> = Vec::new();
    for r in &program.rules {
        if !r.is_fact() && !intensional.contains(&r.head.pred) {
            intensional.push(r.head.pred);
        }
    }
    let mut rules = Program::new();
    let mut facts = Vec::new();
    for r in &program.rules {
        if r.is_fact() && !intensional.contains(&r.head.pred) {
            facts.push((r.head.pred, r.head.args.clone().into_boxed_slice()));
        } else {
            rules.push(r.clone());
        }
    }
    (rules, facts)
}

/// Count materialized facts by role.
pub fn breakdown(db: &Database, rw: &RewriteOutput) -> Materialized {
    let mut m = Materialized::default();
    let mut by_relation: FxHashMap<PredId, usize> = FxHashMap::default();
    for (pred, rel) in db.iter() {
        let kind = rw.kind_of(pred);
        match kind {
            RelKind::Adorned => m.adorned += rel.len(),
            RelKind::Supplementary => m.sup += rel.len(),
            RelKind::Input => m.input += rel.len(),
            RelKind::Base => m.base += rel.len(),
        }
        if kind != RelKind::Base {
            *by_relation.entry(rw.source_of(pred)).or_default() += rel.len();
        }
    }
    m.by_relation = by_relation.into_iter().collect();
    m.by_relation
        .sort_unstable_by_key(|&(pred, rows)| (std::cmp::Reverse(rows), pred));
    m
}

/// Answer `query` over `program` using the QSQ rewriting.
///
/// `db` should be empty or hold additional extensional facts; the program's
/// own extensional facts are seeded automatically. On a distributed program
/// this evaluates the dQSQ rewriting *centrally* (useful as the semantic
/// reference); `rescue-dqsq` runs the same rewriting peer-by-peer.
pub fn qsq_answer(
    program: &Program,
    query: &Atom,
    store: &mut TermStore,
    db: &mut Database,
    budget: &EvalBudget,
) -> Result<QsqRun, QsqError> {
    qsq_answer_traced_opts(program, query, store, db, budget, &EvalOptions::default())
}

/// [`qsq_answer`] with explicit [`EvalOptions`] for the fixpoint over the
/// rewritten program. The rewrite and fixpoint phases are recorded as
/// spans (with the engine's per-round and per-rule spans nested beneath)
/// into the options' collector.
pub fn qsq_answer_traced_opts(
    program: &Program,
    query: &Atom,
    store: &mut TermStore,
    db: &mut Database,
    budget: &EvalBudget,
    options: &EvalOptions,
) -> Result<QsqRun, QsqError> {
    let collector = &options.collector;
    let (rules, edb) = split_edb_facts(program);
    for (pred, row) in edb {
        db.insert(pred, row);
    }
    let rw = {
        let _sp = collector.span("qsq rewrite", "qsq");
        rewrite(&rules, query, store)?
    };
    db.insert(rw.seed_pred, rw.seed_row.clone());
    let mut eval_span = collector
        .is_enabled()
        .then(|| collector.span("qsq eval", "qsq"));
    let stats = seminaive_opts(&rw.program, store, db, budget, options)?;
    if let Some(sp) = eval_span.as_mut() {
        sp.arg("facts_derived", stats.facts_derived as u64);
    }
    drop(eval_span);
    let answers = filter_answers(db, store, &rw.answer_atom);
    let materialized = breakdown(db, &rw);
    Ok(QsqRun {
        answers,
        stats,
        materialized,
        rewrite: rw,
    })
}

/// Rows of `pattern.pred` matching `pattern` (ground positions must agree,
/// function structure is matched recursively).
pub fn filter_answers(db: &Database, store: &TermStore, pattern: &Atom) -> Vec<Vec<TermId>> {
    match db.relation(pattern.pred) {
        None => Vec::new(),
        Some(rel) => rel
            .rows()
            .iter()
            .filter(|row| {
                let mut s = Subst::new();
                row.iter()
                    .zip(pattern.args.iter())
                    .all(|(&g, &p)| store.match_term(p, g, &mut s))
            })
            .map(|row| row.to_vec())
            .collect(),
    }
}

/// Evaluate the *original* program bottom-up, with no rewriting, and
/// answer the query, reporting total materialization. Used by benchmarks to
/// quantify the QSQ reduction.
pub fn seminaive_answer(
    program: &Program,
    query: &Atom,
    store: &mut TermStore,
    db: &mut Database,
    budget: &EvalBudget,
) -> Result<(Vec<Vec<TermId>>, EvalStats, usize), EvalError> {
    let stats = rescue_datalog::seminaive(program, store, db, budget)?;
    Ok((filter_answers(db, store, query), stats, db.total_facts()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescue_datalog::{parse_atom, parse_program};

    /// Figure 3 plus some extensional data. The data forms a small graph
    /// where only part of it is reachable from the query constant, so QSQ
    /// should materialize strictly less than naive evaluation.
    fn figure3_with_data() -> String {
        let mut src = String::from(
            r#"
            R@r(X, Y) :- A@r(X, Y).
            R@r(X, Y) :- S@s(X, Z), T@t(Z, Y).
            S@s(X, Y) :- R@r(X, Y), B@s(Y, Z).
            T@t(X, Y) :- C@t(X, Y).
        "#,
        );
        // Chain reachable from "1": A(1,2), B(2,m2), C(2,3), ...
        for i in 1..6 {
            src.push_str(&format!("A@r(\"{}\", \"{}\").\n", i, i + 1));
            src.push_str(&format!("B@s(\"{}\", m{}).\n", i + 1, i + 1));
            src.push_str(&format!("C@t(\"{}\", \"{}\").\n", i + 1, i + 2));
        }
        // A disconnected component that naive evaluation still saturates.
        for i in 100..140 {
            src.push_str(&format!("A@r(\"{}\", \"{}\").\n", i, i + 1));
            src.push_str(&format!("B@s(\"{}\", m{}).\n", i + 1, i + 1));
            src.push_str(&format!("C@t(\"{}\", \"{}\").\n", i + 1, i + 2));
        }
        src
    }

    #[test]
    fn qsq_agrees_with_naive() {
        let src = figure3_with_data();
        let mut st = TermStore::new();
        let prog = parse_program(&src, &mut st).unwrap();
        let q = parse_atom(r#"R@r("1", Y)"#, &mut st).unwrap();

        let mut db_n = Database::new();
        let (mut naive_rows, _, _) =
            seminaive_answer(&prog, &q, &mut st, &mut db_n, &EvalBudget::default()).unwrap();

        let mut db_q = Database::new();
        let run = qsq_answer(&prog, &q, &mut st, &mut db_q, &EvalBudget::default()).unwrap();
        let mut qsq_rows = run.answers.clone();

        naive_rows.sort();
        qsq_rows.sort();
        assert_eq!(naive_rows, qsq_rows);
        assert!(!qsq_rows.is_empty());
    }

    #[test]
    fn qsq_materializes_less_than_naive() {
        let src = figure3_with_data();
        let mut st = TermStore::new();
        let prog = parse_program(&src, &mut st).unwrap();
        let q = parse_atom(r#"R@r("1", Y)"#, &mut st).unwrap();

        let mut db_n = Database::new();
        let (_, _, naive_total) =
            seminaive_answer(&prog, &q, &mut st, &mut db_n, &EvalBudget::default()).unwrap();
        let edb_count = {
            let (_, edb) = split_edb_facts(&prog);
            edb.len()
        };
        let naive_derived = naive_total - edb_count;

        let mut db_q = Database::new();
        let run = qsq_answer(&prog, &q, &mut st, &mut db_q, &EvalBudget::default()).unwrap();
        let qsq_derived = run.materialized.derived_total();

        assert!(
            qsq_derived < naive_derived,
            "QSQ should materialize less: qsq={qsq_derived} naive={naive_derived}"
        );
        // And QSQ must not touch the disconnected component at all.
        assert_eq!(run.materialized.base, edb_count);
    }

    #[test]
    fn census_attributes_every_derived_row_to_a_source_relation() {
        let src = figure3_with_data();
        let mut st = TermStore::new();
        let prog = parse_program(&src, &mut st).unwrap();
        let q = parse_atom(r#"R@r("1", Y)"#, &mut st).unwrap();
        let mut db = Database::new();
        let run = qsq_answer(&prog, &q, &mut st, &mut db, &EvalBudget::default()).unwrap();
        let m = &run.materialized;
        let rows: Vec<(&str, usize)> = (m.by_relation.iter())
            .map(|&(pred, rows)| (st.sym_str(pred.name), rows))
            .collect();
        let mut names: Vec<&str> = rows.iter().map(|&(name, _)| name).collect();
        names.sort_unstable();
        assert_eq!(names, ["R", "S", "T"]);
        assert!(rows.windows(2).all(|w| w[0].1 >= w[1].1), "{rows:?}");
        let total: usize = rows.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, m.derived_total());
    }

    #[test]
    fn qsq_on_recursive_program() {
        // Same-generation: classic QSQ stress with real recursion.
        let mut src = String::from(
            r#"
            Sg@p(X, X) :- Person@p(X).
            Sg@p(X, Y) :- Par@p(X, XP), Sg@p(XP, YP), Par@p(Y, YP).
        "#,
        );
        // A binary tree of depth 3: person names t, t0, t1, t00, ...
        let mut level = vec!["t".to_string()];
        for _ in 0..3 {
            let mut next = Vec::new();
            for p in &level {
                for b in ["0", "1"] {
                    let c = format!("{p}{b}");
                    src.push_str(&format!("Par@p({c}, {p}).\n"));
                    next.push(c);
                }
            }
            level = next;
        }
        let mut all = vec!["t".to_string()];
        let mut cur = vec!["t".to_string()];
        for _ in 0..3 {
            let mut next = Vec::new();
            for p in &cur {
                for b in ["0", "1"] {
                    next.push(format!("{p}{b}"));
                }
            }
            all.extend(next.iter().cloned());
            cur = next;
        }
        for p in &all {
            src.push_str(&format!("Person@p({p}).\n"));
        }

        let mut st = TermStore::new();
        let prog = parse_program(&src, &mut st).unwrap();
        let q = parse_atom("Sg@p(t00, Y)", &mut st).unwrap();

        let mut db_n = Database::new();
        let (mut nr, _, _) =
            seminaive_answer(&prog, &q, &mut st, &mut db_n, &EvalBudget::default()).unwrap();
        let mut db_q = Database::new();
        let run = qsq_answer(&prog, &q, &mut st, &mut db_q, &EvalBudget::default()).unwrap();
        let mut qr = run.answers.clone();
        nr.sort();
        qr.sort();
        assert_eq!(nr, qr);
        // t00 is same-generation with t00, t01, t10, t11.
        assert_eq!(qr.len(), 4);
    }

    #[test]
    fn qsq_with_disequalities() {
        let src = r#"
            Item@p(a). Item@p(b). Item@p(c).
            Other@p(X, Y) :- Item@p(X), Item@p(Y), X != Y.
        "#;
        let mut st = TermStore::new();
        let prog = parse_program(src, &mut st).unwrap();
        let a = st.constant("a");
        let pred = prog.rules.last().unwrap().head.pred;
        let y = st.var("Y");
        let q = Atom::new(pred, vec![a, y]);
        let mut db = Database::new();
        let run = qsq_answer(&prog, &q, &mut st, &mut db, &EvalBudget::default()).unwrap();
        let mut names: Vec<String> = run.answers.iter().map(|r| st.display(r[1])).collect();
        names.sort();
        assert_eq!(names, vec!["b".to_owned(), "c".to_owned()]);
    }

    #[test]
    fn qsq_terminates_on_function_free_programs() {
        // Cyclic graph: naive and QSQ both reach a fixpoint.
        let src = r#"
            Edge@p(a, b). Edge@p(b, c). Edge@p(c, a).
            Path@p(X, Y) :- Edge@p(X, Y).
            Path@p(X, Y) :- Edge@p(X, Z), Path@p(Z, Y).
        "#;
        let mut st = TermStore::new();
        let prog = parse_program(src, &mut st).unwrap();
        let q = parse_atom("Path@p(a, Y)", &mut st).unwrap();
        let mut db = Database::new();
        let run = qsq_answer(&prog, &q, &mut st, &mut db, &EvalBudget::default()).unwrap();
        assert_eq!(run.answers.len(), 3);
    }

    #[test]
    fn idb_facts_participate() {
        // R has both a fact and a rule: the fact stays in the program and
        // must be produced when requested.
        let src = r#"
            R@p(a, b).
            R@p(X, Y) :- R@p(Y, X), Flip@p.
            Flip@p.
        "#;
        let mut st = TermStore::new();
        let prog = parse_program(src, &mut st).unwrap();
        let q = parse_atom("R@p(a, Y)", &mut st).unwrap();
        let mut db = Database::new();
        let run = qsq_answer(&prog, &q, &mut st, &mut db, &EvalBudget::default()).unwrap();
        assert_eq!(run.answers.len(), 1);
        assert_eq!(st.display(run.answers[0][1]), "b");
    }
}
