//! The greedy-interleaving gate with hidden alarms, looping automata and
//! fuel: the §4.4 programs against the reference searcher.
//!
//! `partial_order.rs` checks the gate on plain alarm sequences. Here the
//! same random three-peer nets get a random hidden subset of their
//! alphabet, every peer observes a chain automaton of its visible alarms
//! (some with one self-loop, on any symbol, hidden ones included), and the
//! fuel budget leaves 0 to 2 events of slack. Hidden extensions are not
//! gated and rank below every peer, so both bottom-up evaluation and QSQ
//! must still find every explanation `diagnose_extended_reference` finds.
//!
//! The 16 cases take about 12 s in the debug build; raise the case count
//! to run more.

use proptest::prelude::*;
use rescue_datalog::{seminaive, Database, EvalBudget, TermStore};
use rescue_diagnosis::supervisor::{extract_diagnosis, extract_from_db};
use rescue_diagnosis::{
    complete_with_empty, diagnose_extended_reference, extended_program, Automaton, Diagnosis,
    ExtendedSpec,
};
use rescue_petri::{random_net, random_run, NetConfig, PetriNet, UnfoldLimits, Unfolding};
use rescue_qsq::qsq_answer;

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

/// How a case draws its spec from a run: the hidden subset of the
/// alphabet (a bitmask), which peers' chains get a self-loop (a bitmask
/// over the peers in pattern order), the loop's state and symbol (both
/// taken modulo what exists), and the fuel slack.
#[derive(Clone, Debug)]
struct Draw {
    hidden: u32,
    loops: u32,
    loop_at: usize,
    loop_symbol: usize,
    slack: usize,
}

fn arb_draw() -> impl Strategy<Value = Draw> {
    // Two masks ANDed: each symbol is hidden with probability 1/4, so that
    // most cases keep adjacent visible alarms of different peers, the
    // steps the gate decides.
    (0u32..8, 0u32..8, 0u32..8, 0usize..4, 0usize..3, 0usize..3).prop_map(
        |(h1, h2, loops, loop_at, loop_symbol, slack)| Draw {
            hidden: h1 & h2,
            loops,
            loop_at,
            loop_symbol,
            slack,
        },
    )
}

/// The spec observing `run_alarms` (symbol, peer) on `net` under `draw`.
/// Peers are ranked in reverse order of first visible alarm, so that, as
/// in `partial_order.rs`, causality from a higher-ranked peer to a lower
/// one is common; peers with no visible alarm come last, with the empty
/// chain.
fn spec_of(net: &PetriNet, run_alarms: &[(&str, &str)], draw: &Draw) -> ExtendedSpec {
    let alphabet = net.alphabet();
    let hidden: Vec<String> = alphabet
        .iter()
        .enumerate()
        .filter(|&(i, _)| draw.hidden >> i & 1 == 1)
        .map(|(_, a)| a.to_string())
        .collect();
    let visible: Vec<(&str, &str)> = run_alarms
        .iter()
        .copied()
        .filter(|(a, _)| !hidden.iter().any(|h| h == a))
        .collect();
    let mut peers: Vec<&str> = Vec::new();
    for &(_, p) in &visible {
        if !peers.contains(&p) {
            peers.push(p);
        }
    }
    peers.reverse();
    for i in 0..net.num_peers() {
        let p = net.peer_name(rescue_petri::PeerId(i as u32));
        if !peers.contains(&p) {
            peers.push(p);
        }
    }
    let patterns = peers
        .iter()
        .enumerate()
        .map(|(j, &p)| {
            let word: Vec<&str> = visible
                .iter()
                .filter(|&&(_, q)| q == p)
                .map(|&(a, _)| a)
                .collect();
            let mut aut = Automaton::chain(&word);
            if draw.loops >> j & 1 == 1 {
                let q = draw.loop_at % aut.states;
                let symbol = alphabet[draw.loop_symbol % alphabet.len()];
                aut.transitions.push((q, symbol.to_owned(), q));
            }
            (p.to_owned(), aut)
        })
        .collect();
    ExtendedSpec {
        patterns,
        hidden,
        max_events: visible.len() + draw.slack,
    }
}

fn bottom_up(net: &PetriNet, spec: &ExtendedSpec) -> Diagnosis {
    let mut store = TermStore::new();
    let ep = extended_program(net, spec, "supervisor", &mut store);
    let mut db = Database::new();
    let budget = EvalBudget {
        max_term_depth: Some(2 * (spec.max_events as u32 + 1) + 2),
        ..Default::default()
    };
    seminaive(&ep.program, &mut store, &mut db, &budget).unwrap();
    complete_with_empty(extract_from_db(&db, &store, &ep.query), spec)
}

fn qsq(net: &PetriNet, spec: &ExtendedSpec) -> Diagnosis {
    let mut store = TermStore::new();
    let ep = extended_program(net, spec, "supervisor", &mut store);
    let mut db = Database::new();
    let run = qsq_answer(
        &ep.program,
        &ep.query,
        &mut store,
        &mut db,
        &EvalBudget::default(),
    )
    .unwrap();
    complete_with_empty(extract_diagnosis(&run.answers, &store), spec)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn hidden_and_looping_specs_match_the_reference(
        cfg in arb_cfg(),
        run_seed in 0u64..100,
        len in 3usize..7,
        draw in arb_draw(),
    ) {
        let net = random_net(&cfg);
        let run = random_run(&net, run_seed, len).expect("generated nets are safe");
        let spec = spec_of(&net, &run.alarms(&net), &draw);
        // Bottom-up builds the whole unfolding to the depth the fuel
        // admits; keep the nets on which that stays small.
        let limits = UnfoldLimits {
            max_depth: spec.max_events as u32 + 1,
            max_events: 600,
        };
        prop_assume!(!Unfolding::build(&net, &limits).is_truncated());

        let want = diagnose_extended_reference(&net, &spec);
        prop_assert_eq!(&bottom_up(&net, &spec), &want, "bottom-up on {:?}", spec);
        prop_assert_eq!(&qsq(&net, &spec), &want, "QSQ on {:?}", spec);
    }
}
