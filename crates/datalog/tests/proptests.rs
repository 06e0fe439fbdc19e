//! Property-based tests for the dDatalog substrate: interning, term
//! algebra, parser round-trips, and evaluation invariants.

use proptest::prelude::*;
use rescue_datalog::{
    parse_program, seminaive, seminaive_opts, Database, EvalBudget, EvalOptions, JoinOrder,
    Program, Subst, TermId, TermStore,
};

// ---------- generators ----------

/// Lowercase identifier (constant / function / peer name).
fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9]{0,5}".prop_map(|s| s)
}

/// Uppercase identifier (variable / relation name).
fn upident() -> impl Strategy<Value = String> {
    "[A-Z][a-z0-9]{0,4}".prop_map(|s| s)
}

/// A structural term expression, as text.
fn term_text() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![ident(), upident()];
    leaf.prop_recursive(3, 16, 3, |inner| {
        (ident(), prop::collection::vec(inner, 1..3))
            .prop_map(|(f, args)| format!("{f}({})", args.join(", ")))
    })
}

// ---------- term store ----------

proptest! {
    #[test]
    fn interning_is_stable(names in prop::collection::vec(ident(), 1..20)) {
        let mut st = TermStore::new();
        let ids: Vec<_> = names.iter().map(|n| st.constant(n)).collect();
        // Same name ⇒ same id; different names ⇒ different ids.
        for (i, a) in names.iter().enumerate() {
            for (j, b) in names.iter().enumerate() {
                prop_assert_eq!(ids[i] == ids[j], a == b);
            }
        }
    }

    #[test]
    fn export_import_round_trips_terms(src in term_text()) {
        let mut a = TermStore::new();
        let rule_src = format!("W@p({src}).");
        let prog = parse_program(&rule_src, &mut a).unwrap();
        let t = prog.rules[0].head.args[0];
        let exported = a.export_pattern(t);
        let mut b = TermStore::new();
        let imported = b.import(&exported);
        prop_assert_eq!(a.display(t), b.display(imported));
        // Round-tripping back into the original store is the identity.
        prop_assert_eq!(a.import(&exported), t);
    }

    #[test]
    fn substitution_is_idempotent_on_ground_results(src in term_text(), val in ident()) {
        let mut st = TermStore::new();
        let rule_src = format!("W@p({src}).");
        let prog = parse_program(&rule_src, &mut st).unwrap();
        let t = prog.rules[0].head.args[0];
        // Bind every variable of t to the same constant.
        let c = st.constant(&val);
        let mut subst = Subst::new();
        for v in st.vars(t) {
            subst.bind(v, c);
        }
        let once = st.substitute(t, &subst);
        prop_assert!(st.is_ground(once));
        let twice = st.substitute(once, &subst);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn matching_agrees_with_substitution(src in term_text(), val in ident()) {
        // For any pattern p and grounding θ, match(p, p[θ]) succeeds and
        // reproduces θ on p's variables.
        let mut st = TermStore::new();
        let rule_src = format!("W@p({src}).");
        let prog = parse_program(&rule_src, &mut st).unwrap();
        let pat = prog.rules[0].head.args[0];
        let c = st.constant(&val);
        let mut theta = Subst::new();
        for v in st.vars(pat) {
            theta.bind(v, c);
        }
        let ground = st.substitute(pat, &theta);
        let mut recovered = Subst::new();
        prop_assert!(st.match_term(pat, ground, &mut recovered));
        for v in st.vars(pat) {
            prop_assert_eq!(recovered.get(v), Some(c));
        }
    }

    #[test]
    fn term_depth_is_monotone(src in term_text()) {
        let mut st = TermStore::new();
        let rule_src = format!("W@p({src}).");
        let prog = parse_program(&rule_src, &mut st).unwrap();
        let t = prog.rules[0].head.args[0];
        // Wrapping strictly increases depth.
        let wrapped = st.app("wrapfn", vec![t]);
        prop_assert_eq!(st.term_depth(wrapped), st.term_depth(t) + 1);
    }
}

// ---------- parser ----------

/// A random (valid) program over a small vocabulary, as text.
fn program_text() -> impl Strategy<Value = String> {
    let fact =
        (upident(), ident(), prop::collection::vec(ident(), 0..3)).prop_map(|(r, p, args)| {
            if args.is_empty() {
                format!("{r}@{p}.")
            } else {
                format!("{r}@{p}({}).", args.join(", "))
            }
        });
    prop::collection::vec(fact, 1..8).prop_map(|facts| facts.join("\n"))
}

proptest! {
    #[test]
    fn print_parse_round_trip(src in program_text()) {
        let mut st = TermStore::new();
        let p1 = parse_program(&src, &mut st).unwrap();
        let printed = p1.display(&st);
        let p2 = parse_program(&printed, &mut st).unwrap();
        prop_assert_eq!(p1.rules, p2.rules);
    }
}

// ---------- evaluation ----------

/// Random edge lists for transitive closure.
fn edges() -> impl Strategy<Value = Vec<(u8, u8)>> {
    prop::collection::vec((0u8..8, 0u8..8), 1..20)
}

fn tc_program(edges: &[(u8, u8)]) -> String {
    let mut src = String::new();
    for (a, b) in edges {
        src.push_str(&format!("Edge@p(n{a}, n{b}).\n"));
    }
    src.push_str("Path@p(X, Y) :- Edge@p(X, Y).\n");
    src.push_str("Path@p(X, Y) :- Edge@p(X, Z), Path@p(Z, Y).\n");
    src
}

/// Reference transitive closure.
fn tc_reference(edges: &[(u8, u8)]) -> std::collections::BTreeSet<(u8, u8)> {
    let mut closure: std::collections::BTreeSet<(u8, u8)> = edges.iter().copied().collect();
    loop {
        let mut added = false;
        let snapshot: Vec<(u8, u8)> = closure.iter().copied().collect();
        for &(a, b) in &snapshot {
            for &(c, d) in &snapshot {
                if b == c && closure.insert((a, d)) {
                    added = true;
                }
            }
        }
        if !added {
            return closure;
        }
    }
}

proptest! {
    #[test]
    fn seminaive_computes_transitive_closure(es in edges()) {
        let src = tc_program(&es);
        let want = tc_reference(&es);

        let mut st = TermStore::new();
        let prog: Program = parse_program(&src, &mut st).unwrap();
        let mut db = Database::new();
        seminaive(&prog, &mut st, &mut db, &EvalBudget::default()).unwrap();
        let path = rescue_datalog::PredId {
            name: st.sym_get("Path").unwrap(),
            peer: rescue_datalog::Peer(st.sym_get("p").unwrap()),
        };
        let got: std::collections::BTreeSet<(u8, u8)> = db
            .relation(path)
            .map(|rel| {
                rel.rows()
                    .iter()
                    .map(|row| {
                        let parse = |t: TermId| -> u8 {
                            st.display(t).trim_start_matches('n').parse().unwrap()
                        };
                        (parse(row[0]), parse(row[1]))
                    })
                    .collect()
            })
            .unwrap_or_default();
        prop_assert_eq!(&got, &want);
    }

    #[test]
    fn planned_join_matches_leftmost(es in edges()) {
        // The compiled plan may reorder body atoms, but the materialized
        // model must be exactly the leftmost-order model — the reorder is
        // an execution strategy, not a semantics change.
        let mut src = tc_program(&es);
        // Beyond two-atom bodies: a triangle rule with a diseq, and a
        // function-symbol head over self-loops.
        src.push_str("Tri@p(X, Y, Z) :- Edge@p(X, Y), Edge@p(Y, Z), Path@p(X, Z), X != Z.\n");
        src.push_str("Mark@p(f(X)) :- Path@p(X, X).\n");
        let snapshot = |order: JoinOrder| -> Vec<String> {
            let mut st = TermStore::new();
            let prog = parse_program(&src, &mut st).unwrap();
            let mut db = Database::new();
            let opts = EvalOptions {
                order,
                ..Default::default()
            };
            seminaive_opts(&prog, &mut st, &mut db, &EvalBudget::default(), &opts).unwrap();
            let mut rows: Vec<String> = db
                .predicates()
                .into_iter()
                .flat_map(|pred| {
                    let name = st.sym_str(pred.name).to_owned();
                    let peer = st.sym_str(pred.peer.0).to_owned();
                    db.relation(pred)
                        .unwrap()
                        .rows()
                        .iter()
                        .map(|row| {
                            let args: Vec<String> =
                                row.iter().map(|&t| st.display(t)).collect();
                            format!("{name}@{peer}({})", args.join(","))
                        })
                        .collect::<Vec<_>>()
                })
                .collect();
            rows.sort();
            rows
        };
        prop_assert_eq!(snapshot(JoinOrder::Planned), snapshot(JoinOrder::Leftmost));
    }

    #[test]
    fn evaluation_is_insertion_order_independent(es in edges(), seed in 0u64..16) {
        // Shuffle the facts; the fixpoint is the same set.
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut shuffled = es.clone();
        shuffled.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
        prop_assert_eq!(tc_reference(&es), tc_reference(&shuffled));
        let (src1, src2) = (tc_program(&es), tc_program(&shuffled));
        let count = |src: &str| -> usize {
            let mut st = TermStore::new();
            let prog = parse_program(src, &mut st).unwrap();
            let mut db = Database::new();
            seminaive(&prog, &mut st, &mut db, &EvalBudget::default()).unwrap();
            db.total_facts()
        };
        prop_assert_eq!(count(&src1), count(&src2));
    }
}
