//! The supervisor's `Cut(z, m, f)` relation against the cut computed in
//! Rust from each prefix's events.
//!
//! The cut of a configuration is its produced-or-initial conditions minus
//! its consumed ones. For every explanation prefix `z` of a bottom-up
//! model, walk its `h(…h(h(r), x₁)…, xₙ)` chain to its events; each event
//! term `f(t, g(x, c), …)` names its transition and its parent conditions,
//! and its outputs are `g(xᵢ, c′)` for the post places `c′` of `t`. The
//! `Cut` rows of `z` must be exactly that set, flagged `last` on the
//! outputs of `xₙ` (on the roots at `h(r)`) and `old` elsewhere.
//!
//! Families: the paper's Figure 1 sequences, and the random three-peer
//! nets of `partial_order.rs` (0–2 ternary joins), observed in full and
//! with a hidden subset of the alphabet as in `partial_order_hidden.rs`.

use proptest::prelude::*;
use rescue_datalog::{seminaive, Database, EvalBudget, TermData, TermId, TermStore};
use rescue_diagnosis::supervisor::sup_names;
use rescue_diagnosis::{extended_program, AlarmSeq, ExtendedSpec};
use rescue_petri::{
    figure1, random_net, random_run, NetConfig, PetriNet, PlaceId, UnfoldLimits, Unfolding,
};
use std::collections::{BTreeMap, BTreeSet};

/// A prefix's cut: each maximal condition with its flag.
type Cut = BTreeSet<(TermId, TermId)>;

/// The events of prefix `id`, first to last.
fn events_of(store: &TermStore, mut id: TermId) -> Vec<TermId> {
    let mut events = Vec::new();
    while let TermData::App(_, args) = store.data(id) {
        if args.len() != 2 {
            break;
        }
        events.push(args[1]);
        id = args[0];
    }
    events.reverse();
    events
}

/// The cut of a prefix with `events`, computed from their terms and the
/// net's post places.
fn expected_cut(net: &PetriNet, store: &mut TermStore, events: &[TermId]) -> Cut {
    let last = store.constant(sup_names::LAST);
    let old = store.constant(sup_names::OLD);
    let root = store.constant("r");
    let place = |store: &mut TermStore, p: PlaceId| store.constant(&net.place(p).name);
    // Produced or initial, with the producer; then drop the consumed ones.
    let mut produced: Vec<(TermId, TermId)> = Vec::new();
    for i in net.initial_marking().iter() {
        let c = place(store, PlaceId(i as u32));
        produced.push((store.app("g", vec![root, c]), root));
    }
    let mut consumed = BTreeSet::new();
    for &x in events {
        let TermData::App(_, args) = store.data(x).clone() else {
            panic!("event {} is not an f-term", store.display(x));
        };
        consumed.extend(args[1..].iter().copied());
        let TermData::Const(t) = *store.data(args[0]) else {
            panic!("event {} names no transition", store.display(x));
        };
        let name = store.sym_str(t).to_owned();
        let (_, tr) = net
            .transitions()
            .find(|(_, tr)| tr.name == name)
            .expect("event of a net transition");
        for &p in &tr.post {
            let c = place(store, p);
            produced.push((store.app("g", vec![x, c]), x));
        }
    }
    let last_event = events.last().copied().unwrap_or(root);
    produced
        .into_iter()
        .filter(|(m, _)| !consumed.contains(m))
        .map(|(m, producer)| (m, if producer == last_event { last } else { old }))
        .collect()
}

/// Evaluate `spec`'s program bottom-up and check the `Cut` rows of every
/// explanation prefix; returns how many prefixes were checked.
fn check_cuts(net: &PetriNet, spec: &ExtendedSpec) -> usize {
    let mut store = TermStore::new();
    let ep = extended_program(net, spec, "supervisor", &mut store);
    let mut db = Database::new();
    let budget = EvalBudget {
        max_term_depth: Some(2 * (spec.max_events as u32 + 1) + 2),
        ..Default::default()
    };
    seminaive(&ep.program, &mut store, &mut db, &budget).unwrap();

    let mut ids = BTreeSet::new();
    let mut cuts: BTreeMap<TermId, Cut> = BTreeMap::new();
    for (pred, rel) in db.iter() {
        match store.sym_str(pred.name) {
            sup_names::CONFIG_PREFIXES => ids.extend(rel.rows().iter().map(|row| row[0])),
            sup_names::CUT => {
                for row in rel.rows() {
                    cuts.entry(row[0]).or_default().insert((row[1], row[2]));
                }
            }
            _ => {}
        }
    }
    for id in cuts.keys() {
        assert!(
            ids.contains(id),
            "Cut row for {}, not a prefix",
            store.display(*id)
        );
    }
    for &id in &ids {
        let events = events_of(&store, id);
        let want = expected_cut(net, &mut store, &events);
        let got = cuts.remove(&id).unwrap_or_default();
        let show = |cut: &Cut| -> Vec<String> {
            cut.iter()
                .map(|&(m, f)| format!("{} {}", store.display(m), store.display(f)))
                .collect()
        };
        assert_eq!(show(&got), show(&want), "cut of {}", store.display(id));
    }
    ids.len()
}

#[test]
fn figure1_cuts_match_the_events() {
    let net = figure1();
    for pairs in [
        vec![("b", "p1"), ("a", "p2"), ("c", "p1")],
        vec![("b", "p1"), ("c", "p1"), ("a", "p2")],
        vec![("c", "p1"), ("b", "p1"), ("a", "p2")],
        vec![("a", "p2"), ("d", "p2")],
    ] {
        let alarms = AlarmSeq::from_pairs(&pairs);
        let prefixes = check_cuts(&net, &ExtendedSpec::from_sequence(&alarms));
        assert!(prefixes > 1, "{alarms}: no extension to check");
    }
}

/// The nets of `partial_order.rs`: at least one cross-peer link, no chord
/// transitions, up to two ternary joins.
fn arb_cfg() -> impl Strategy<Value = NetConfig> {
    (0u64..1000, 2usize..4, 1usize..3, 2usize..4, 0usize..3).prop_map(
        |(seed, states, links, alphabet, joins)| NetConfig {
            seed,
            peers: 3,
            states_per_peer: states,
            extra_transitions: 0,
            links,
            alphabet,
            joins,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_cuts_match_the_events(
        cfg in arb_cfg(),
        run_seed in 0u64..100,
        len in 2usize..6,
        hidden_mask in 0u32..8,
        slack in 0usize..2,
    ) {
        let net = random_net(&cfg);
        let run = random_run(&net, run_seed, len).expect("generated nets are safe");
        let alphabet = net.alphabet();
        let hidden: Vec<&str> = alphabet
            .iter()
            .enumerate()
            .filter(|&(i, _)| hidden_mask >> i & 1 == 1)
            .map(|(_, &a)| a)
            .collect();
        let visible: Vec<(&str, &str)> = run
            .alarms(&net)
            .into_iter()
            .filter(|(a, _)| !hidden.contains(a))
            .collect();
        let observed = ExtendedSpec::from_sequence(&AlarmSeq::from_pairs(&visible));
        let spec = if hidden.is_empty() {
            observed
        } else {
            observed.with_hidden(&hidden, slack)
        };
        // Bottom-up builds the whole unfolding to the depth the spec
        // admits; keep the nets on which that stays small.
        let limits = UnfoldLimits {
            max_depth: spec.max_events as u32 + 1,
            max_events: 600,
        };
        prop_assume!(!Unfolding::build(&net, &limits).is_truncated());
        check_cuts(&net, &spec);
    }
}
