//! The Figure 3 → Figure 4 → Figure 5 walk-through.
//!
//! Parses the paper's three-peer dDatalog program, shows its QSQ rewriting
//! (Figure 4), the distributed placement (Figure 5 — with the shipped
//! supplementary relations highlighted), runs the peer-local rewriting
//! protocol to show each peer constructs its share with only local
//! knowledge, and compares materialization of bottom-up evaluation vs QSQ.
//!
//! Run with: `cargo run --example qsq_playground`

use rescue::datalog::{display_rule, parse_atom, parse_program, Database, EvalBudget, TermStore};
use rescue::dqsq::{canonical_rules, export_program, protocol_rewrite};
use rescue::qsq::{qsq_answer, rewrite, seminaive_answer, split_edb_facts};

const FIGURE3: &str = r#"
    R@r(X, Y) :- A@r(X, Y).
    R@r(X, Y) :- S@s(X, Z), T@t(Z, Y).
    S@s(X, Y) :- R@r(X, Y), B@s(Y, Z).
    T@t(X, Y) :- C@t(X, Y).
"#;

fn main() {
    let mut store = TermStore::new();

    // ---- Figure 3: the program, plus data. ----
    let mut src = String::from(FIGURE3);
    // A chain reachable from "1" and a larger irrelevant component.
    for i in 1..6 {
        src.push_str(&format!("A@r(\"{}\", \"{}\").\n", i, i + 1));
        src.push_str(&format!("B@s(\"{}\", m{}).\n", i + 1, i + 1));
        src.push_str(&format!("C@t(\"{}\", \"{}\").\n", i + 1, i + 2));
    }
    for i in 100..150 {
        src.push_str(&format!("A@r(\"{}\", \"{}\").\n", i, i + 1));
        src.push_str(&format!("B@s(\"{}\", m{}).\n", i + 1, i + 1));
        src.push_str(&format!("C@t(\"{}\", \"{}\").\n", i + 1, i + 2));
    }
    let prog = parse_program(&src, &mut store).expect("figure 3 parses");
    println!("== Figure 3 (rules only) ==");
    for rule in prog.rules.iter().filter(|r| !r.is_fact()) {
        println!("  {}", display_rule(rule, &store));
    }

    // ---- Figure 4/5: the rewriting. ----
    let query = parse_atom(r#"R@r("1", Y)"#, &mut store).unwrap();
    let (rules, _) = split_edb_facts(&prog);
    let rw = rewrite(&rules, &query, &mut store).expect("query is intensional");
    println!("\n== QSQ rewriting for R@r(\"1\", Y) — Figures 4/5 ==");
    println!("(rules whose body reads a relation at another peer are the");
    println!(" shipped ones, bold in the paper's Figure 5)\n");
    for rule in &rw.program.rules {
        let site = rule.head.pred.peer;
        let shipped = rule.body.iter().any(|a| a.pred.peer != site);
        println!(
            "  {} {}",
            if shipped { "->" } else { "  " },
            display_rule(rule, &store)
        );
    }

    // ---- dQSQ constructs the same program peer-locally. ----
    let (local_rules, net_stats) = protocol_rewrite(
        &rules,
        &query,
        &store,
        rescue::net::sim::SimConfig::default(),
    )
    .expect("protocol quiesces");
    let global = canonical_rules(export_program(&rw.program, &store));
    let local = canonical_rules(local_rules);
    assert_eq!(global, local);
    println!(
        "\nThe peer-local rewriting protocol (delegating rule remainders, the paper's\n\
         rule (†)) generated the identical {} rules using {} messages — no peer ever\n\
         saw another peer's rules.",
        local.len(),
        net_stats.messages
    );

    // ---- Materialization: bottom-up vs QSQ. ----
    let budget = EvalBudget::default();
    let mut db_bu = Database::new();
    let (answers_bu, _, bu_total) =
        seminaive_answer(&prog, &query, &mut store, &mut db_bu, &budget).unwrap();
    let edb = split_edb_facts(&prog).1.len();

    let mut db_qsq = Database::new();
    let run = qsq_answer(&prog, &query, &mut store, &mut db_qsq, &budget).unwrap();
    assert_eq!(
        {
            let mut a = answers_bu.clone();
            a.sort();
            a
        },
        {
            let mut a = run.answers.clone();
            a.sort();
            a
        }
    );

    println!("\n== Materialization ==");
    println!("  base facts (A, B, C):        {edb}");
    println!("  bottom-up derived:           {}", bu_total - edb);
    println!(
        "  QSQ derived (ans/sup/input): {} ({} / {} / {})",
        run.materialized.derived_total(),
        run.materialized.adorned,
        run.materialized.sup,
        run.materialized.input
    );
    println!("  answers:                     {}", run.answers.len());
    println!(
        "\nBottom-up evaluation saturated the irrelevant 100..150 component; QSQ's binding\n\
         propagation materialized only the tuples reachable from the constant \"1\"."
    );
}
