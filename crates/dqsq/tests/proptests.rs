//! Property-based tests for the distributed layer: on randomly generated
//! multi-peer programs,
//!
//! * distributed evaluation computes the centralized fixpoint, also over
//!   function terms that share subterms, under reordered delivery and on
//!   the threaded transport,
//! * the peer-local rewriting protocol generates exactly the global
//!   rewriting, also on random rule shapes, where Magic Sets adorns the
//!   same predicates and QSQ, Magic Sets and semi-naive agree,
//! * Theorem 1 holds (dQSQ ≡ QSQ on the de-located program).

use proptest::prelude::*;
use rescue_datalog::{parse_atom, parse_program, Database, EvalBudget, TermStore};
use rescue_dqsq::{
    canonical_rules, check_theorem1, export_program, protocol_rewrite, run_distributed,
    run_distributed_threaded, DistOptions, DistRun,
};
use rescue_net::sim::{Delivery, SimConfig};
use rescue_qsq::split_edb_facts;
use std::fmt::Write;

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
    rendered(&run_distributed(&prog, &store, &opts).unwrap())
}

/// Every peer's owned relations, rendered like [`centralized`].
fn rendered(run: &DistRun) -> Rendered {
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
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Real threads drain their inboxes in batches the OS scheduler cuts;
    /// the model must not depend on where the cuts fall.
    #[test]
    fn threaded_model_over_shared_subterms_matches_centralized(src in arb_skolem_program()) {
        let mut store = TermStore::new();
        let prog = parse_program(&src, &mut store).unwrap();
        let run = run_distributed_threaded(&prog, &store, EvalBudget::default()).unwrap();
        prop_assert_eq!(&rendered(&run), &centralized(&src));
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

/// A random multi-peer rule set — random rule shapes, not only random
/// data: four intensional relations `R0..R3` at random peers `a`/`b`/`c`
/// with arity 1–2, rules of 1–4 body atoms over them and three extensional
/// relations, constants and repeated variables, function terms in heads
/// and bodies, disequalities and intensional facts, and a query with a
/// random adornment. Recursion is a relation calling itself, and only with
/// variables and constants; a rule that builds a function term in its head
/// or passes one to an intensional atom calls only lower relations. So
/// every term has bounded depth and every engine terminates.
fn random_rule_set(seed: u64) -> (String, String) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut src = String::new();
    let consts = ["k0", "k1", "k2"];
    let edb = [("E0@a", 2), ("E1@b", 2), ("E2@c", 1)];
    for (rel, arity) in edb {
        for _ in 0..rng.gen_range(2..7) {
            let args: Vec<&str> = (0..arity).map(|_| consts[rng.gen_range(0..3)]).collect();
            writeln!(src, "{rel}({}).", args.join(", ")).unwrap();
        }
    }
    let idb: Vec<(String, usize)> = (0..4)
        .map(|i| {
            let peer = ["a", "b", "c"][rng.gen_range(0..3)];
            (format!("R{i}@{peer}"), rng.gen_range(1..3))
        })
        .collect();
    let vars = ["X", "Y", "Z", "W"];
    for (i, (head, arity)) in idb.iter().enumerate() {
        if rng.gen_bool(0.3) {
            let args: Vec<&str> = (0..*arity).map(|_| consts[rng.gen_range(0..3)]).collect();
            writeln!(src, "{head}({}).", args.join(", ")).unwrap();
        }
        for _ in 0..rng.gen_range(1..3) {
            let builds = rng.gen_bool(0.4);
            let (mut body, mut bound) = (Vec::new(), Vec::new());
            for _ in 0..rng.gen_range(1..5) {
                // An extensional atom, a lower relation, or (when this
                // rule builds no terms) the relation itself.
                let callee = match rng.gen_range(0..3) {
                    0 if i > 0 => Some(rng.gen_range(0..i)),
                    1 if !builds => Some(i),
                    _ => None,
                };
                let (rel, arity) = match callee {
                    Some(j) => (idb[j].0.as_str(), idb[j].1),
                    None => edb[rng.gen_range(0..3)],
                };
                let args: Vec<String> = (0..arity)
                    .map(|_| {
                        let v = vars[rng.gen_range(0..4)];
                        match rng.gen_range(0..10) {
                            0..=5 => {
                                bound.push(v);
                                v.to_owned()
                            }
                            6 | 7 => consts[rng.gen_range(0..3)].to_owned(),
                            // Only a lower relation's heads build terms.
                            _ if callee.is_some_and(|j| j < i) => {
                                bound.push(v);
                                format!("f({v})")
                            }
                            _ => {
                                bound.push(v);
                                v.to_owned()
                            }
                        }
                    })
                    .collect();
                body.push(format!("{rel}({})", args.join(", ")));
            }
            let args: Vec<String> = (0..*arity)
                .map(|_| match (bound.is_empty(), rng.gen_range(0..10)) {
                    (true, _) | (_, 0 | 1) => consts[rng.gen_range(0..3)].to_owned(),
                    (false, r) => {
                        let v = bound[rng.gen_range(0..bound.len())];
                        match r {
                            2 | 3 if builds => format!("f({v})"),
                            4 if builds => format!("g({v}, k1)"),
                            5 if builds => format!("f(f({v}))"),
                            _ => v.to_owned(),
                        }
                    }
                })
                .collect();
            if !bound.is_empty() && rng.gen_bool(0.3) {
                let v = bound[rng.gen_range(0..bound.len())];
                let w = bound[rng.gen_range(0..bound.len())];
                let other = if v == w { consts[1] } else { w };
                body.push(format!("{v} != {other}"));
            }
            writeln!(src, "{head}({}) :- {}.", args.join(", "), body.join(", ")).unwrap();
        }
    }
    let (query, arity) = &idb[rng.gen_range(0..4)];
    let args: Vec<String> = (0..*arity)
        .map(|k| match rng.gen_bool(0.5) {
            true => consts[rng.gen_range(0..3)].to_owned(),
            false => format!("Q{k}"),
        })
        .collect();
    (src, format!("{query}({})", args.join(", ")))
}

fn rendered_answers(rows: &[Vec<rescue_datalog::TermId>], store: &TermStore) -> Vec<String> {
    let rows = rows.iter().map(|r| {
        let row: Vec<String> = r.iter().map(|&t| store.display(t)).collect();
        row.join(", ")
    });
    sorted(rows.collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_rule_shapes_rewrite_alike(seed in 0u64..u64::MAX) {
        let (src, q) = random_rule_set(seed);
        let mut store = TermStore::new();
        let prog = parse_program(&src, &mut store).unwrap();
        let query = parse_atom(&q, &mut store).unwrap();
        let (rules, _) = split_edb_facts(&prog);

        // The protocol emits the global program, rule for rule, once each.
        let global = rescue_qsq::rewrite(&rules, &query, &mut store).unwrap();
        let by_debug = |mut rules: Vec<rescue_dqsq::ExportedRule>| {
            rules.sort_by_cached_key(|r| format!("{r:?}"));
            rules
        };
        let expected = by_debug(export_program(&global.program, &store));
        prop_assert!(expected.windows(2).all(|w| w[0] != w[1]), "duplicate rule\n{}", src);
        let (local, _) = protocol_rewrite(&rules, &query, &store, SimConfig::default()).unwrap();
        prop_assert_eq!(by_debug(local), expected, "program:\n{}query: {}", src, q);

        // Magic Sets adorns the same predicates.
        let magic = rescue_qsq::magic_rewrite(&rules, &query, &mut store).unwrap();
        let keys = |m: &rustc_hash::FxHashMap<rescue_qsq::AdornedPred, _>| {
            let mut k: Vec<String> = m.keys().map(|ap| format!("{ap:?}")).collect();
            k.sort();
            k
        };
        prop_assert_eq!(keys(&magic.adorned), keys(&global.adorned));

        // QSQ, Magic Sets and semi-naive give the same answers.
        let budget = EvalBudget { max_facts: 200_000, ..EvalBudget::default() };
        let mut db = Database::new();
        let qsq = rescue_qsq::qsq_answer(&prog, &query, &mut store, &mut db, &budget).unwrap();
        let mut db = Database::new();
        let magic = rescue_qsq::magic_answer(&prog, &query, &mut store, &mut db, &budget).unwrap();
        let mut db = Database::new();
        rescue_datalog::seminaive(&prog, &mut store, &mut db, &budget).unwrap();
        let naive = rescue_qsq::filter_answers(&db, &store, &query);
        let naive = rendered_answers(&naive, &store);
        prop_assert_eq!(&rendered_answers(&qsq.answers, &store), &naive, "program:\n{}query: {}", src, q);
        prop_assert_eq!(&rendered_answers(&magic.answers, &store), &naive);
    }
}
