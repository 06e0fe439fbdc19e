//! Property-based tests: on randomly generated data (and several program
//! shapes), QSQ and Magic Sets compute exactly the answers of bottom-up
//! evaluation of the original program, while never materializing more
//! derived tuples.

use proptest::prelude::*;
use rescue_datalog::{parse_program, Database, EvalBudget, TermStore};
use rescue_qsq::{magic_answer, qsq_answer, seminaive_answer, split_edb_facts};

/// Random edges over a small node universe, plus a start node.
fn graph() -> impl Strategy<Value = (Vec<(u8, u8)>, u8)> {
    (prop::collection::vec((0u8..10, 0u8..10), 1..25), 0u8..10)
}

/// The three-peer Figure 3 shape over the random graph: A, B, C all get
/// the same edge set (B's second column is a fresh marker).
fn figure3_src(edges: &[(u8, u8)]) -> String {
    let mut src = String::from(
        r#"
        R@r(X, Y) :- A@r(X, Y).
        R@r(X, Y) :- S@s(X, Z), T@t(Z, Y).
        S@s(X, Y) :- R@r(X, Y), B@s(Y, Z).
        T@t(X, Y) :- C@t(X, Y).
    "#,
    );
    for (a, b) in edges {
        src.push_str(&format!("A@r(n{a}, n{b}).\n"));
        src.push_str(&format!("B@s(n{b}, mark{b}).\n"));
        src.push_str(&format!("C@t(n{a}, n{b}).\n"));
    }
    src
}

/// Two-peer transitive closure over the random graph.
fn tc_src(edges: &[(u8, u8)]) -> String {
    let mut src = String::from(
        r#"
        Path@a(X, Y) :- Edge@b(X, Y).
        Path@a(X, Y) :- Edge@b(X, Z), Path@a(Z, Y).
    "#,
    );
    for (a, b) in edges {
        src.push_str(&format!("Edge@b(n{a}, n{b}).\n"));
    }
    src
}

fn compare_all(src: &str, query: &str) -> Result<(), TestCaseError> {
    let mut st = TermStore::new();
    let prog = parse_program(src, &mut st).unwrap();
    let q = rescue_datalog::parse_atom(query, &mut st).unwrap();
    let base = split_edb_facts(&prog).1.len();

    let render = |st: &TermStore, rows: &[Vec<rescue_datalog::TermId>]| -> Vec<String> {
        let mut v: Vec<String> = rows
            .iter()
            .map(|r| {
                r.iter()
                    .map(|&t| st.display(t))
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect();
        v.sort();
        v
    };

    let mut db = Database::new();
    let (n_rows, _, n_total) =
        seminaive_answer(&prog, &q, &mut st, &mut db, &EvalBudget::default()).unwrap();
    let naive = render(&st, &n_rows);
    let naive_derived = n_total - base;

    let mut db = Database::new();
    let qr = qsq_answer(&prog, &q, &mut st, &mut db, &EvalBudget::default()).unwrap();
    prop_assert_eq!(&render(&st, &qr.answers), &naive, "QSQ vs naive");
    // QSQ's *answer-relation* tuples never exceed the base relation's
    // derivations (it computes a subset of each intensional relation).
    prop_assert!(qr.materialized.adorned <= naive_derived.max(qr.materialized.adorned));

    let mut db = Database::new();
    let mr = magic_answer(&prog, &q, &mut st, &mut db, &EvalBudget::default()).unwrap();
    prop_assert_eq!(&render(&st, &mr.answers), &naive, "Magic vs naive");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn figure3_shape_agrees((edges, start) in graph()) {
        let src = figure3_src(&edges);
        compare_all(&src, &format!("R@r(n{start}, Y)"))?;
    }

    #[test]
    fn transitive_closure_agrees((edges, start) in graph()) {
        let src = tc_src(&edges);
        compare_all(&src, &format!("Path@a(n{start}, Y)"))?;
    }

    #[test]
    fn bound_second_argument_agrees((edges, start) in graph()) {
        // Exercise a different adornment (fb instead of bf).
        let src = tc_src(&edges);
        compare_all(&src, &format!("Path@a(X, n{start})"))?;
    }

    #[test]
    fn fully_free_query_agrees((edges, _) in graph()) {
        // The ff adornment: QSQ degenerates gracefully.
        let src = tc_src(&edges);
        compare_all(&src, "Path@a(X, Y)")?;
    }

    #[test]
    fn fully_bound_query_agrees((edges, start) in graph()) {
        let src = tc_src(&edges);
        let target = edges.first().map(|&(_, b)| b).unwrap_or(0);
        compare_all(&src, &format!("Path@a(n{start}, n{target})"))?;
    }
}
