//! What the supervisor generator works out from a §4.4 spec: the fuel
//! column counts the events of a prefix up from `fuel_0`, so a larger
//! budget only adds `FuelStep` facts, and it exists only where it can cut
//! an explanation short; a hidden symbol never moves an automaton.

use rescue_datalog::{display_rule, Database, EvalBudget, TermStore};
use rescue_diagnosis::supervisor::{extract_diagnosis, sup_names};
use rescue_diagnosis::{
    complete_with_empty, diagnose_extended_reference, extended_program, AlarmSeq, Automaton,
    ExtendedSpec,
};
use rescue_petri::{figure1, producer_consumer, PetriNet};
use rescue_qsq::qsq_answer;
use std::collections::BTreeSet;

fn rules(net: &PetriNet, spec: &ExtendedSpec) -> BTreeSet<String> {
    let mut store = TermStore::new();
    let ep = extended_program(net, spec, "p0", &mut store);
    ep.program
        .rules
        .iter()
        .map(|r| display_rule(r, &store))
        .collect()
}

fn has_fuel(net: &PetriNet, spec: &ExtendedSpec) -> bool {
    let step = format!("{}@p0(", sup_names::FUEL_STEP);
    rules(net, spec).iter().any(|r| r.starts_with(&step))
}

/// Figure 1 observing `b@p1`, with `a` and `e` hidden.
fn hidden_spec(max_events: usize) -> ExtendedSpec {
    ExtendedSpec {
        max_events,
        ..ExtendedSpec::from_sequence(&AlarmSeq::from_pairs(&[("b", "p1")]))
            .with_hidden(&["a", "e"], 0)
    }
}

/// `put . rst* . put` at the producer, the consumer silent.
fn pattern_spec(max_events: usize) -> ExtendedSpec {
    let pattern = Automaton {
        states: 3,
        initial: 0,
        finals: vec![2],
        transitions: vec![
            (0, "put".into(), 1),
            (1, "rst".into(), 1),
            (1, "put".into(), 2),
        ],
    };
    ExtendedSpec {
        patterns: vec![("prod".into(), pattern)],
        hidden: vec!["get".into(), "fin".into()],
        max_events,
    }
}

#[test]
fn a_larger_budget_only_adds_its_fuel_step() {
    let hidden: fn(usize) -> ExtendedSpec = hidden_spec;
    for (net, spec) in [(figure1(), hidden), (producer_consumer(), pattern_spec)] {
        for budget in 2..6 {
            let small = rules(&net, &spec(budget));
            let large = rules(&net, &spec(budget + 1));
            assert!(small.is_subset(&large), "budget {budget} is not a subset");
            let added: Vec<&String> = large.difference(&small).collect();
            let step = format!(
                "{}@p0(fuel_{budget}, fuel_{}).",
                sup_names::FUEL_STEP,
                budget + 1
            );
            assert_eq!(added, [&step], "budget {budget} → {}", budget + 1);
        }
    }
}

#[test]
fn fuel_exists_only_where_it_can_bind() {
    let net = figure1();
    let alarms = AlarmSeq::from_pairs(&[("b", "p1"), ("a", "p2"), ("c", "p1")]);
    let plain = ExtendedSpec::from_sequence(&alarms);
    // Acyclic automata whose paths fit in the budget bound every
    // explanation themselves, with or without slack.
    assert!(!has_fuel(&net, &plain));
    let slack = ExtendedSpec {
        max_events: 5,
        ..plain.clone()
    };
    assert!(!has_fuel(&net, &slack));
    // A budget below the automata's paths, a hidden symbol, or a loop can
    // each cut explanations short.
    let short = ExtendedSpec {
        max_events: 2,
        ..plain.clone()
    };
    assert!(has_fuel(&net, &short));
    assert!(has_fuel(&net, &plain.clone().with_hidden(&["e"], 0)));
    let mut looping = plain;
    looping.patterns[0].1.transitions.push((0, "d".into(), 0));
    assert!(has_fuel(&net, &looping));
}

#[test]
fn a_hidden_symbol_never_moves_an_automaton() {
    // Transition i emits `b`, but `b` is hidden: p1 never reports it, so
    // p1's chain `b` cannot be taken and nothing explains the observation.
    let net = figure1();
    let spec =
        ExtendedSpec::from_sequence(&AlarmSeq::from_pairs(&[("b", "p1")])).with_hidden(&["b"], 1);
    let want = diagnose_extended_reference(&net, &spec);
    assert!(want.is_empty());
    let mut store = TermStore::new();
    let ep = extended_program(&net, &spec, "p0", &mut store);
    let mut db = Database::new();
    let budget = EvalBudget::default();
    let run = qsq_answer(&ep.program, &ep.query, &mut store, &mut db, &budget).unwrap();
    let got = complete_with_empty(extract_diagnosis(&run.answers, &store), &spec);
    assert_eq!(got, want);
}
