//! Planned vs. leftmost join order on randomly generated distributed
//! safe nets: the compiled plan must materialize **exactly** the same
//! unfolding database (Theorem 2's bijection does not care how the body
//! was joined) while never scanning more candidate rows than the
//! leftmost baseline.
//!
//! The strict "planned scans fewer" claim on the telecom-style nets is
//! experiment E12; here the property is equivalence plus no-regression
//! on arbitrary random nets.

use proptest::prelude::*;
use rescue_datalog::{
    seminaive_opts, Database, EvalBudget, EvalOptions, EvalStats, JoinOrder, TermStore,
};
use rescue_diagnosis::{unfolding_program, EncodeOptions};
use rescue_petri::{random_net, NetConfig, PetriNet};

fn arb_cfg() -> impl Strategy<Value = NetConfig> {
    (
        0u64..50,
        2usize..4,
        0usize..2,
        0usize..3,
        1usize..3,
        0usize..2,
    )
        .prop_map(|(seed, states, extra, links, alphabet, joins)| NetConfig {
            seed,
            peers: 2,
            states_per_peer: states,
            extra_transitions: extra,
            links,
            alphabet,
            joins,
        })
}

/// Evaluate the unfolding program of `net` at `depth` under `options`;
/// return the run's stats plus a canonical fingerprint of the database.
fn unfold(net: &PetriNet, depth: u32, options: &EvalOptions) -> (EvalStats, Vec<String>) {
    let mut store = TermStore::new();
    let prog = unfolding_program(net, &mut store, &EncodeOptions::default());
    let mut db = Database::new();
    let budget = EvalBudget {
        max_term_depth: Some(depth),
        ..Default::default()
    };
    let stats = seminaive_opts(&prog, &mut store, &mut db, &budget, options).unwrap();
    let mut rows: Vec<String> = db
        .predicates()
        .into_iter()
        .flat_map(|pred| {
            let name = store.sym_str(pred.name).to_owned();
            let peer = store.sym_str(pred.peer.0).to_owned();
            db.relation(pred)
                .unwrap()
                .rows()
                .iter()
                .map(|row| {
                    let args: Vec<String> = row.iter().map(|&t| store.display(t)).collect();
                    format!("{name}@{peer}({})", args.join(","))
                })
                .collect::<Vec<_>>()
        })
        .collect();
    rows.sort();
    (stats, rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn planned_unfolding_equals_leftmost_and_scans_no_more(cfg in arb_cfg()) {
        let net = random_net(&cfg);
        let opts = |order| EvalOptions { order, ..Default::default() };
        let (planned, db_planned) = unfold(&net, 8, &opts(JoinOrder::Planned));
        let (leftmost, db_leftmost) = unfold(&net, 8, &opts(JoinOrder::Leftmost));

        // Same model, fact for fact.
        prop_assert_eq!(&db_planned, &db_leftmost);
        // Same derivations, so the same firings and duplicates.
        prop_assert_eq!(planned.rule_firings, leftmost.rule_firings);
        prop_assert_eq!(planned.facts_derived, leftmost.facts_derived);
        // The plan exists to cut join work, never to add it.
        prop_assert!(
            planned.candidates_scanned <= leftmost.candidates_scanned,
            "planned scanned {} > leftmost {}",
            planned.candidates_scanned,
            leftmost.candidates_scanned
        );
    }

    /// SIP existence filters + subplan sharing are pure performance knobs:
    /// for every random net and join order, the optimized run materializes
    /// the byte-identical model with the same firings and derivations, and
    /// never scans *more* candidates than the unoptimized run.
    #[test]
    fn sip_and_sharing_preserve_the_model_and_never_add_scans(cfg in arb_cfg()) {
        let net = random_net(&cfg);
        for order in [JoinOrder::Planned, JoinOrder::Leftmost] {
            let base_opts = EvalOptions {
                order,
                sip_filters: false,
                subplan_sharing: false,
                ..Default::default()
            };
            let (base, db_base) = unfold(&net, 8, &base_opts);
            let (opt1, db_opt1) = unfold(
                &net,
                8,
                &EvalOptions { sip_filters: true, subplan_sharing: true, ..base_opts },
            );

            // The optimizer never changes the model...
            prop_assert_eq!(&db_opt1, &db_base, "order {:?}", order);
            // ...or the derivations that build it...
            prop_assert_eq!(opt1.rule_firings, base.rule_firings);
            prop_assert_eq!(opt1.facts_derived, base.facts_derived);
            // ...and only ever removes candidate scans.
            prop_assert!(
                opt1.candidates_scanned <= base.candidates_scanned,
                "optimized scanned {} > baseline {} under {:?}",
                opt1.candidates_scanned,
                base.candidates_scanned,
                order
            );
        }
    }
}
