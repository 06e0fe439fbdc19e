//! A resume schedules work from what changed, not from the program: 200
//! single-fact resumes over a program padded with 2,000 rules the facts
//! never reach derive the model of one batch run, with the same
//! batching-invariant counters. (Semi-naive enumerates every combination
//! of body facts exactly once — in the round where its newest fact is the
//! delta — however the input is split into resumes, so `rule_firings`,
//! `facts_derived` and `duplicate_derivations` cannot depend on the split;
//! `iterations` does, one resume at a time.) What each side compiles is
//! pinned too. In debug builds every round of both runs is also checked
//! against the full rule × position walk.

use rescue_datalog::{
    parse_program, seminaive, Database, EvalBudget, EvalSession, Peer, PredId, TermId, TermStore,
};

const PADDING: usize = 2_000;
const EDGES: usize = 200;

fn program_src() -> String {
    let mut src = String::from(
        "Path@p(X, Y) :- Edge@p(X, Y).\n\
         Path@p(X, Y) :- Path@p(X, Z), Edge@p(Z, Y).\n\
         Reach@p(Y) :- Start@p(X), Path@p(X, Y).\n\
         Start@p(n0).\n",
    );
    for i in 0..PADDING {
        src.push_str(&format!(
            "Pad{i}@p(X, Y) :- PadIn{i}@p(X), PadIn{i}@p(Y).\n"
        ));
    }
    src
}

fn model(db: &Database, store: &TermStore) -> Vec<String> {
    let mut rows: Vec<String> = db
        .iter()
        .flat_map(|(pred, rel)| {
            rel.rows().iter().map(move |row| {
                let args: Vec<String> = row.iter().map(|&t| store.display(t)).collect();
                format!("{}({})", store.sym_str(pred.name), args.join(","))
            })
        })
        .collect();
    rows.sort();
    rows
}

#[test]
fn single_fact_resumes_over_a_padded_program_equal_one_batch_run() {
    let mut store = TermStore::new();
    let prog = parse_program(&program_src(), &mut store).unwrap();
    let edge = PredId {
        name: store.sym("Edge"),
        peer: Peer(store.sym("p")),
    };
    // A chain with a shortcut every tenth node, so some paths are derived
    // twice and the duplicate counter has something to count.
    let node = |store: &mut TermStore, i: usize| store.constant(&format!("n{i}"));
    let edges: Vec<Box<[TermId]>> = (0..EDGES)
        .map(|i| {
            let (from, to) = if i % 10 == 9 {
                (i - 9, i - 7)
            } else {
                (i, i + 1)
            };
            vec![node(&mut store, from), node(&mut store, to)].into_boxed_slice()
        })
        .collect();

    let mut session = EvalSession::new(prog.clone(), &mut store, EvalBudget::default()).unwrap();
    for row in &edges {
        session.resume(&mut store, [(edge, row.clone())]).unwrap();
    }
    let inc = session.total_stats();

    let mut db = Database::new();
    for row in &edges {
        db.insert(edge, row.clone());
    }
    let batch = seminaive(&prog, &mut store, &mut db, &EvalBudget::default()).unwrap();

    assert_eq!(model(session.database(), &store), model(&db, &store));
    assert_eq!(inc.facts_derived, batch.facts_derived);
    assert_eq!(inc.rule_firings, batch.rule_firings);
    assert_eq!(inc.duplicate_derivations, batch.duplicate_derivations);
    assert!(
        batch.duplicate_derivations > 0,
        "the shortcuts re-derive paths"
    );
    // The session compiles one Δ-plan per positive body atom up front, so
    // no resume compiles; the one-shot run compiles only the Δ-passes its
    // rounds scheduled, so the padding costs it nothing.
    assert_eq!(inc.plans_compiled, 4_005, "1 + 2 + 2 + 2 per padding rule");
    assert_eq!(batch.plans_compiled, 3);
    assert!(inc.iterations > batch.iterations, "one resume per edge");
}
