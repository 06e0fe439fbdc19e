//! Property-based tests for the distributed layer: on randomly generated
//! multi-peer programs,
//!
//! * distributed evaluation computes the centralized fixpoint, also over
//!   function terms that share subterms and under reordered delivery,
//! * the peer-local rewriting protocol generates exactly the global
//!   rewriting,
//! * Theorem 1 holds (dQSQ ≡ QSQ on the de-located program).

use proptest::prelude::*;
use rescue_datalog::{parse_atom, parse_program, Database, EvalBudget, TermStore};
use rescue_dqsq::{
    canonical_rules, check_theorem1, export_program, protocol_rewrite, run_distributed, DistOptions,
};
use rescue_net::sim::{Delivery, SimConfig};
use rescue_qsq::split_edb_facts;

/// A random three-peer program: a chain/union structure over relations
/// R0..R3 spread across peers a/b/c, seeded with random facts. Always
/// range-restricted and function-free (so every engine terminates).
fn arb_program() -> impl Strategy<Value = (String, String)> {
    let edges = prop::collection::vec((0u8..6, 0u8..6), 1..12);
    let shape = 0u8..4;
    (edges, shape, 0u8..6).prop_map(|(edges, shape, start)| {
        let mut src = String::new();
        // Base facts at peer c.
        for (a, b) in &edges {
            src.push_str(&format!("E@c(n{a}, n{b}).\n"));
        }
        // Rule shapes exercising cross-peer reads and recursion.
        match shape {
            0 => {
                // Linear recursion across two peers.
                src.push_str("P@a(X, Y) :- E@c(X, Y).\n");
                src.push_str("P@a(X, Y) :- E@c(X, Z), Q@b(Z, Y).\n");
                src.push_str("Q@b(X, Y) :- P@a(X, Y).\n");
            }
            1 => {
                // Union of two paths.
                src.push_str("P@a(X, Y) :- E@c(X, Y).\n");
                src.push_str("P@a(X, Y) :- P@a(X, Z), E@c(Z, Y).\n");
                src.push_str("Q@b(X, Y) :- P@a(X, Y), E@c(Y, Z).\n");
                src.push_str("P@a(X, Y) :- Q@b(Y, X), E@c(X, Y).\n");
            }
            2 => {
                // Same-generation style.
                src.push_str("P@a(X, X) :- E@c(X, Y).\n");
                src.push_str("P@a(X, Y) :- E@c(X, XP), P@a(XP, YP), E@c(Y, YP).\n");
                src.push_str("Q@b(X, Y) :- P@a(X, Y), X != Y.\n");
            }
            _ => {
                // Mutual recursion with a filter.
                src.push_str("P@a(X, Y) :- E@c(X, Y).\n");
                src.push_str("Q@b(X, Y) :- P@a(X, Z), E@c(Z, Y).\n");
                src.push_str("P@a(X, Y) :- Q@b(X, Z), E@c(Z, Y), X != Z.\n");
            }
        }
        let query = if shape == 2 {
            format!("Q@b(n{start}, Y)")
        } else {
            format!("P@a(n{start}, Y)")
        };
        (src, query)
    })
}

/// A random three-peer program whose rules mint Skolem terms from the
/// terms other peers minted, so shipped tuples share subterms: chains of
/// nested applications, and recursion over Skolem ids. Depth stays
/// bounded, so every engine terminates.
fn arb_skolem_program() -> impl Strategy<Value = String> {
    let edges = prop::collection::vec((0u8..5, 0u8..5), 1..9);
    (edges, 0u8..2).prop_map(|(edges, shape)| {
        let mut src = String::new();
        for (a, b) in &edges {
            src.push_str(&format!("E@c(n{a}, n{b}).\n"));
        }
        match shape {
            0 => {
                // A chain: each peer nests the previous peer's terms.
                src.push_str("P@a(X, f(X, Y)) :- E@c(X, Y).\n");
                src.push_str("Q@b(g(T, Z), Z) :- P@a(X, T), E@c(X, Z).\n");
                src.push_str("R@c(h(U, T)) :- Q@b(U, Z), P@a(Z, T).\n");
                src.push_str("S@a(k(V, U)) :- R@c(V), Q@b(U, Z), Z != n0.\n");
            }
            _ => {
                // Reachability over Skolem ids minted at two peers.
                src.push_str("Link@b(f(X, Y), f(Y, Z)) :- E@c(X, Y), E@c(Y, Z).\n");
                src.push_str("Start@a(f(X, Y)) :- E@c(X, Y).\n");
                src.push_str("Reach@a(T, T) :- Start@a(T).\n");
                src.push_str("Reach@a(T, U) :- Reach@a(T, V), Link@b(V, U).\n");
                src.push_str("Far@c(g(T, U)) :- Reach@a(T, U), T != U.\n");
            }
        }
        src
    })
}

/// Every relation of the model as `(relation, sorted rows)`, rendered
/// store-independently.
type Rendered = Vec<(String, Vec<String>)>;

fn centralized(src: &str) -> Rendered {
    let mut store = TermStore::new();
    let prog = parse_program(src, &mut store).unwrap();
    let mut db = Database::new();
    rescue_datalog::seminaive(&prog, &mut store, &mut db, &EvalBudget::default()).unwrap();
    let mut model: Rendered = db
        .predicates()
        .into_iter()
        .map(|pred| {
            let rel = db.relation(pred).unwrap();
            let rows = rel.rows().iter().map(|r| {
                let row: Vec<_> = r.iter().map(|&t| store.export(t)).collect();
                format!("{row:?}")
            });
            let name = format!(
                "{}@{}",
                store.sym_str(pred.name),
                store.sym_str(pred.peer.0)
            );
            (name, sorted(rows.collect()))
        })
        .collect();
    model.sort();
    model
}

fn distributed(src: &str, sim: SimConfig) -> Rendered {
    let mut store = TermStore::new();
    let prog = parse_program(src, &mut store).unwrap();
    let opts = DistOptions {
        sim,
        ..Default::default()
    };
    let run = run_distributed(&prog, &store, &opts).unwrap();
    let mut model: Rendered = Vec::new();
    for peer in &run.peers {
        for (name, rows) in peer.owned_facts() {
            let rows = rows.iter().map(|r| format!("{r:?}")).collect();
            model.push((format!("{name}@{}", peer.name()), sorted(rows)));
        }
    }
    model.sort();
    model
}

fn sorted(mut rows: Vec<String>) -> Vec<String> {
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn distributed_model_over_shared_subterms_matches_centralized(src in arb_skolem_program()) {
        let expected = centralized(&src);
        for delivery in [Delivery::FifoPerChannel, Delivery::Random] {
            for seed in 0..20 {
                let sim = SimConfig { seed, delivery, ..Default::default() };
                prop_assert_eq!(
                    &distributed(&src, sim),
                    &expected,
                    "{:?} delivery, seed {}", delivery, seed
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn distributed_fixpoint_matches_centralized((src, _q) in arb_program(), seed in 0u64..20) {
        let mut store = TermStore::new();
        let prog = parse_program(&src, &mut store).unwrap();
        // Centralized fixpoint.
        let mut db = Database::new();
        rescue_datalog::seminaive(&prog, &mut store, &mut db, &EvalBudget::default()).unwrap();
        // Distributed fixpoint under a random interleaving.
        let opts = DistOptions {
            sim: SimConfig { seed, ..Default::default() },
            ..Default::default()
        };
        let run = run_distributed(&prog, &store, &opts).unwrap();
        // Every owned relation agrees with the centralized database.
        for peer in &run.peers {
            for (name, rows) in peer.owned_facts() {
                let pred = rescue_datalog::PredId {
                    name: store.sym_get(&name).expect("relation name known centrally"),
                    peer: rescue_datalog::Peer(
                        store.sym_get(peer.name()).expect("peer name known"),
                    ),
                };
                prop_assert_eq!(
                    rows.len(),
                    db.count(pred),
                    "size of {}@{} differs", name, peer.name()
                );
            }
        }
    }

    #[test]
    fn protocol_rewrite_matches_global((src, q) in arb_program()) {
        let mut store = TermStore::new();
        let prog = parse_program(&src, &mut store).unwrap();
        let query = parse_atom(&q, &mut store).unwrap();
        let (rules, _) = split_edb_facts(&prog);
        let global = rescue_qsq::rewrite(&rules, &query, &mut store).unwrap();
        let expected = canonical_rules(export_program(&global.program, &store));
        let (local, _) = protocol_rewrite(&rules, &query, &store, SimConfig::default()).unwrap();
        prop_assert_eq!(canonical_rules(local), expected);
    }

    #[test]
    fn theorem1_holds_on_random_programs((src, q) in arb_program()) {
        let mut store = TermStore::new();
        let prog = parse_program(&src, &mut store).unwrap();
        let query = parse_atom(&q, &mut store).unwrap();
        let report =
            check_theorem1(&prog, &query, &mut store, &DistOptions::default()).unwrap();
        prop_assert!(report.answers_match);
        prop_assert!(report.relations_match, "mismatch: {:?}", report.mismatched);
        prop_assert_eq!(report.dqsq_derived, report.qsq_derived);
    }
}
