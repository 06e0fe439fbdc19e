//! The plain §4.2 encoding, pinned rule for rule.
//!
//! `diagnosis_program` is the §4.4 generator applied to the chain automata
//! of an alarm sequence. The fixtures under `tests/fixtures/` pin its
//! output: the same rules in the same order, and the same terms interned
//! in the same order (so that every engine does the same work on it). They
//! were first rendered by a dedicated §4.2 generator, whose alarm-index
//! constants were named `ix_{peer}_{m}` where automaton states are
//! `st_{peer}_{m}`; the comparison still maps that renaming. They were
//! re-rendered when the supervisor began carrying each prefix's cut.

use rescue_datalog::{display_atom, Atom, Program, TermData, TermId, TermStore};
use rescue_diagnosis::{diagnosis_program, AlarmSeq};
use rescue_petri::{figure1, random_net, random_run, NetConfig, PetriNet};
use std::collections::BTreeMap;

/// A three-peer net with two ternary joins, so that the plain program has
/// `Gate1`, `Gate2` and `Gate3` rows.
fn joins_net() -> PetriNet {
    random_net(&NetConfig {
        peers: 3,
        states_per_peer: 2,
        extra_transitions: 0,
        links: 1,
        alphabet: 2,
        joins: 2,
        seed: 7,
    })
}

fn joins_alarms(net: &PetriNet) -> AlarmSeq {
    AlarmSeq::from_run(net, &random_run(net, 3, 8).unwrap())
}

/// Every subterm of `t`, keyed by its id.
fn collect_terms(store: &TermStore, t: TermId, out: &mut BTreeMap<TermId, String>) {
    if out.insert(t, store.display(t)).is_none() {
        if let TermData::App(_, args) = store.data(t) {
            for &a in args {
                collect_terms(store, a, out);
            }
        }
    }
}

/// The program's rules, its query, and every term it mentions in the
/// order the store interned them.
fn render(program: &Program, query: &Atom, store: &TermStore) -> String {
    let mut terms = BTreeMap::new();
    let atoms = program
        .rules
        .iter()
        .flat_map(|r| std::iter::once(&r.head).chain(&r.body))
        .chain([query]);
    for atom in atoms {
        for &t in &atom.args {
            collect_terms(store, t, &mut terms);
        }
    }
    for rule in &program.rules {
        for d in &rule.diseqs {
            collect_terms(store, d.lhs, &mut terms);
            collect_terms(store, d.rhs, &mut terms);
        }
    }
    let mut out = program.display(store);
    out.push_str(&format!("query {}\n", display_atom(query, store)));
    for (rank, term) in terms.values().enumerate() {
        out.push_str(&format!("term {rank} {term}\n"));
    }
    out
}

fn render_plain(net: &PetriNet, alarms: &AlarmSeq, supervisor: &str) -> String {
    let mut store = TermStore::new();
    let dp = diagnosis_program(net, alarms, supervisor, &mut store);
    render(&dp.program, &dp.query, &store)
}

fn assert_matches_fixture(got: &str, fixture: &str) {
    let want = fixture.replace("ix_", "st_");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {} differs", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "line counts differ"
    );
}

#[test]
fn figure1_plain_program_matches_the_fixture() {
    let alarms = AlarmSeq::from_pairs(&[("b", "p1"), ("a", "p2"), ("c", "p1")]);
    let got = render_plain(&figure1(), &alarms, "p0");
    assert_matches_fixture(&got, include_str!("fixtures/plain_figure1.txt"));
}

#[test]
fn three_peer_joins_plain_program_matches_the_fixture() {
    let net = joins_net();
    let alarms = joins_alarms(&net);
    let got = render_plain(&net, &alarms, "sup");
    for gate in ["Gate1@sup", "Gate2@sup", "Gate3@sup"] {
        assert!(got.contains(gate), "{gate} missing");
    }
    assert_matches_fixture(&got, include_str!("fixtures/plain_joins.txt"));
}
