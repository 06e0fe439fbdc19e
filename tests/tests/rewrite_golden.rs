//! Golden renderings of the QSQ and Magic Sets rewritings.
//!
//! Each fixture under `crates/qsq/tests/fixtures/` spells out one
//! rewriting rule for rule and name for name: the rules in emission order,
//! the surviving supplementary relations, the dedup provenance map, the
//! adorned and input (or magic) relations, the seed and answer atoms, and
//! how many symbols and terms the store holds afterwards. Symbols carry
//! their interned index, so a rewriter that interns names in a different
//! order, or emits one rule more or less, fails here even when the
//! rewritten program is semantically the same.

use rescue_datalog::{display_atom, display_rule, parse_atom, parse_program, PredId, TermStore};
use rescue_datalog::{Atom, Program};
use rescue_diagnosis::{diagnosis_program, AlarmSeq};
use rescue_petri::{random_net, random_run, NetConfig};
use rescue_qsq::{
    magic_rewrite, rewrite_with, split_edb_facts, AdornedPred, RewriteOutput, SupPlacement,
};
use std::collections::HashMap;
use std::fmt::Write;

const FIGURE3: &str = r#"
    R@r(X, Y) :- A@r(X, Y).
    R@r(X, Y) :- S@s(X, Z), T@t(Z, Y).
    S@s(X, Y) :- R@r(X, Y), B@s(Y, Z).
    T@t(X, Y) :- C@t(X, Y).
"#;

const DISEQ_FUNCTIONS: &str = r#"
    P@a(f(X, Y)) :- E@a(X, Y), Q@b(Y, Z), X != Z.
    Q@b(X, Y) :- F@b(X, Y).
    Q@b(X, Y) :- F@b(X, W), P@a(f(W, Y)).
"#;

fn pred(p: PredId, st: &TermStore) -> String {
    format!(
        "{}#{}@{}",
        st.sym_str(p.name),
        p.name.index(),
        st.sym_str(p.peer.0)
    )
}

fn adorned_map<S>(m: &HashMap<AdornedPred, PredId, S>, st: &TermStore) -> Vec<String> {
    let mut v: Vec<String> = m
        .iter()
        .map(|(ap, &p)| {
            format!(
                "{}@{}^{} -> {}",
                st.sym_str(ap.base.name),
                st.sym_str(ap.base.peer.0),
                ap.adornment.label(),
                pred(p, st)
            )
        })
        .collect();
    v.sort();
    v
}

fn section(out: &mut String, title: &str, lines: impl IntoIterator<Item = String>) {
    writeln!(out, "## {title}").unwrap();
    for l in lines {
        writeln!(out, "{l}").unwrap();
    }
}

/// The number of symbols interned so far: the index a fresh one gets.
fn symbol_count(st: &mut TermStore) -> usize {
    st.sym("\u{0}golden-probe").index()
}

#[allow(clippy::too_many_arguments)]
fn render_common<S>(
    out: &mut String,
    st: &mut TermStore,
    program: &Program,
    seed: (PredId, &[rescue_datalog::TermId]),
    answer: &Atom,
    adorned: &HashMap<AdornedPred, PredId, S>,
    inputs_title: &str,
    inputs: &HashMap<AdornedPred, PredId, S>,
) {
    section(
        out,
        "rules",
        program.rules.iter().map(|r| display_rule(r, st)),
    );
    let seed_row: Vec<String> = seed.1.iter().map(|&t| st.display(t)).collect();
    section(
        out,
        "seed",
        [format!("{}({})", pred(seed.0, st), seed_row.join(", "))],
    );
    section(out, "answer", [display_atom(answer, st)]);
    section(out, "adorned", adorned_map(adorned, st));
    section(out, inputs_title, adorned_map(inputs, st));
    let terms = st.len();
    let syms = symbol_count(st);
    section(
        out,
        "store",
        [format!("symbols {syms}"), format!("terms {terms}")],
    );
}

fn render_rewrite(rw: &RewriteOutput, st: &mut TermStore) -> String {
    let mut out = String::new();
    section(&mut out, "sups", rw.sups.iter().map(|&p| pred(p, st)));
    let mut canon: Vec<String> = rw
        .sup_canon
        .iter()
        .map(|(&m, &c)| format!("{} -> {}", pred(m, st), pred(c, st)))
        .collect();
    canon.sort();
    section(&mut out, "sup_canon", canon);
    render_common(
        &mut out,
        st,
        &rw.program,
        (rw.seed_pred, &rw.seed_row),
        &rw.answer_atom,
        &rw.adorned,
        "inputs",
        &rw.inputs,
    );
    out
}

/// A rewriting input: its rules (extensional facts split out) and query,
/// in a store holding nothing else.
type Case = (Program, Atom, TermStore);

fn parsed(src: &str, query: &str) -> Case {
    let mut st = TermStore::new();
    let prog = parse_program(src, &mut st).unwrap();
    let q = parse_atom(query, &mut st).unwrap();
    (split_edb_facts(&prog).0, q, st)
}

fn figure1_diagnosis() -> Case {
    let mut st = TermStore::new();
    let alarms = AlarmSeq::from_pairs(&[("b", "p1"), ("a", "p2"), ("c", "p1")]);
    let dp = diagnosis_program(&rescue_petri::figure1(), &alarms, "p0", &mut st);
    (split_edb_facts(&dp.program).0, dp.query, st)
}

fn telecom_diagnosis() -> Case {
    let net = random_net(&NetConfig {
        peers: 3,
        joins: 2,
        seed: 7,
        ..NetConfig::default()
    });
    let run = random_run(&net, 7, 3).unwrap();
    let alarms = AlarmSeq::from_run(&net, &run);
    let mut st = TermStore::new();
    let dp = diagnosis_program(&net, &alarms, "supervisor", &mut st);
    (split_edb_facts(&dp.program).0, dp.query, st)
}

fn cases() -> Vec<(&'static str, Case)> {
    vec![
        ("figure1_diagnosis", figure1_diagnosis()),
        ("telecom_joins2", telecom_diagnosis()),
        ("figure3", parsed(FIGURE3, r#"R@r("1", Y)"#)),
        ("diseq_functions", parsed(DISEQ_FUNCTIONS, "P@a(f(u, V))")),
    ]
}

fn fixture(name: &str) -> String {
    let path = format!(
        "{}/../crates/qsq/tests/fixtures/{name}.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn assert_golden(name: &str, got: &str) {
    let want = fixture(name);
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "{name}: rendering differs from the fixture at line {}:\n  got:  {:?}\n  want: {:?}",
            line + 1,
            got.lines().nth(line),
            want.lines().nth(line)
        );
    }
}

#[test]
fn qsq_rewrite_renders_the_fixtures() {
    for (name, (rules, query, mut st)) in cases() {
        let rw = rewrite_with(&rules, &query, &mut st, SupPlacement::AtomPeer).unwrap();
        assert_golden(&format!("{name}.qsq"), &render_rewrite(&rw, &mut st));
    }
}

#[test]
fn rule_site_rewrite_renders_the_fixture() {
    let (rules, query, mut st) = figure1_diagnosis();
    let rw = rewrite_with(&rules, &query, &mut st, SupPlacement::RuleSite).unwrap();
    assert_golden(
        "figure1_diagnosis.qsq_rule_site",
        &render_rewrite(&rw, &mut st),
    );
}

#[test]
fn magic_rewrite_renders_the_fixtures() {
    for (name, (rules, query, mut st)) in cases() {
        let m = magic_rewrite(&rules, &query, &mut st).unwrap();
        let mut out = String::new();
        render_common(
            &mut out,
            &mut st,
            &m.program,
            (m.seed_pred, &m.seed_row),
            &m.answer_atom,
            &m.adorned,
            "magic",
            &m.magic,
        );
        assert_golden(&format!("{name}.magic"), &out);
    }
}
