//! The parallel fixpoint's determinism contract, on random inputs: for
//! any generated net's unfolding program, evaluating with 4 engine worker
//! threads must reproduce the single-thread run **byte for byte** — the
//! sorted model, the insertion-stamp-dependent provenance witnesses, and
//! every `EvalStats` counter. The workers only enumerate matches against
//! the round's sealed snapshot; the coordinator merges in the sequential
//! (rule, shard, emit) order, so any divergence here is an engine bug,
//! not nondeterminism to tolerate.

use proptest::prelude::*;
use rescue_datalog::{
    explain, parse_program, seminaive_opts, seminaive_stratified_traced_opts,
    seminaive_traced_opts, Database, EvalBudget, EvalOptions, EvalStats, JoinOrder, Program,
    TermStore,
};
use rescue_diagnosis::{unfolding_program, EncodeOptions};
use rescue_petri::{random_net, NetConfig, PetriNet};
use rescue_telemetry::Collector;

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

/// One run of `prog` at `threads` workers: stats, the sorted rendered
/// model, and a provenance witness (rendered proof tree) for the first
/// and last row of every relation — the rows whose reconstruction leans
/// on the insertion stamps the merge order controls.
fn run(
    prog: &Program,
    store: &mut TermStore,
    depth: u32,
    options: &EvalOptions,
) -> (EvalStats, Vec<String>, Vec<String>) {
    let mut db = Database::new();
    let budget = EvalBudget {
        max_term_depth: Some(depth),
        ..Default::default()
    };
    let stats = seminaive_opts(prog, store, &mut db, &budget, options).unwrap();
    let mut rows: Vec<String> = Vec::new();
    let mut witness_targets = Vec::new();
    for pred in db.predicates() {
        let name = store.sym_str(pred.name).to_owned();
        let peer = store.sym_str(pred.peer.0).to_owned();
        let rel_rows = db.relation(pred).unwrap().rows();
        for row in rel_rows {
            let args: Vec<String> = row.iter().map(|&t| store.display(t)).collect();
            rows.push(format!("{name}@{peer}({})", args.join(",")));
        }
        witness_targets.push((pred, rel_rows.get(0).to_vec()));
        if rel_rows.len() > 1 {
            witness_targets.push((pred, rel_rows.get(rel_rows.len() - 1).to_vec()));
        }
    }
    rows.sort();
    let witnesses: Vec<String> = witness_targets
        .into_iter()
        .map(|(pred, row)| {
            explain(prog, store, &mut db, pred, &row)
                .expect("every materialized fact has a derivation")
                .render(store)
        })
        .collect();
    (stats, rows, witnesses)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    #[test]
    fn four_threads_reproduce_one_thread_byte_for_byte(cfg in arb_cfg()) {
        let net = random_net(&cfg);
        let mut store = TermStore::new();
        let prog = unfolding_program(&net, &mut store, &EncodeOptions::default());

        // Default options carry the full optimizer (SIP filters + subplan
        // sharing); the third leg switches it off to pin down that the
        // optimizer changes neither the model nor the provenance.
        let (seq_stats, seq_db, seq_wit) =
            run(&prog, &mut store.clone(), 8, &EvalOptions::with_threads(1));
        let (two_stats, two_db, two_wit) =
            run(&prog, &mut store.clone(), 8, &EvalOptions::with_threads(2));
        let (par_stats, par_db, par_wit) =
            run(&prog, &mut store.clone(), 8, &EvalOptions::with_threads(4));
        let (plain_stats, plain_db, plain_wit) = run(
            &prog,
            &mut store.clone(),
            8,
            &EvalOptions {
                sip_filters: false,
                subplan_sharing: false,
                ..EvalOptions::with_threads(4)
            },
        );

        // Byte-identical sorted model.
        prop_assert_eq!(&seq_db, &par_db);
        prop_assert_eq!(&seq_db, &two_db);
        // Identical provenance witnesses: the proof trees walk insertion
        // stamps, so they only match if the merge preserved the
        // sequential insertion order exactly.
        prop_assert_eq!(&seq_wit, &par_wit);
        prop_assert_eq!(&seq_wit, &two_wit);
        // Every engine counter identical, not just the fact counts —
        // including `sip_filtered` / `subplans_shared`, which must not
        // depend on how the round was sharded across workers.
        prop_assert_eq!(&seq_stats, &par_stats);
        prop_assert_eq!(&seq_stats, &two_stats);

        // The persistent pool's determinism must not lean on the planned
        // join order: the leftmost order runs different plans (so stats
        // differ from the planned legs), but within the order the model,
        // witnesses, and counters are just as thread-invariant.
        let leftmost = |threads: usize| EvalOptions {
            order: JoinOrder::Leftmost,
            ..EvalOptions::with_threads(threads)
        };
        let (lm_seq_stats, lm_seq_db, lm_seq_wit) =
            run(&prog, &mut store.clone(), 8, &leftmost(1));
        let (lm_par_stats, lm_par_db, lm_par_wit) =
            run(&prog, &mut store.clone(), 8, &leftmost(4));
        prop_assert_eq!(&lm_seq_db, &seq_db, "join order changed the model");
        prop_assert_eq!(&lm_seq_db, &lm_par_db);
        prop_assert_eq!(&lm_seq_wit, &lm_par_wit);
        prop_assert_eq!(&lm_seq_stats, &lm_par_stats);
        // The optimizer is invisible to the model and can only *remove*
        // candidate scans. (Witnesses are NOT compared across optimizer
        // settings: subplan sharing may interleave a round's insertions
        // differently, and the witness targets are picked by insertion
        // order — the contract is byte-identical models and stats at any
        // thread count *per* option set, which the asserts above pin.)
        prop_assert_eq!(&plain_db, &seq_db);
        prop_assert!(plain_wit.len() == seq_wit.len());
        prop_assert!(
            seq_stats.candidates_scanned <= plain_stats.candidates_scanned,
            "optimizer added scans: {} > {}",
            seq_stats.candidates_scanned,
            plain_stats.candidates_scanned
        );
    }
}

/// The random nets above are small enough that some rounds stay under the
/// engine's fan-out threshold; this workload is big enough that the pool
/// provably engages (the collector's `eval.parallel.rounds` counter says
/// so), and the contract must still hold.
#[test]
fn pool_engages_on_the_telecom_unfolding_and_changes_nothing() {
    let net: PetriNet = random_net(&NetConfig {
        peers: 3,
        states_per_peer: 3,
        extra_transitions: 1,
        links: 2,
        alphabet: 3,
        joins: 0,
        seed: 42,
    });
    let mut base_store = TermStore::new();
    let prog = unfolding_program(&net, &mut base_store, &EncodeOptions::default());
    let budget = EvalBudget {
        max_term_depth: Some(8),
        ..Default::default()
    };

    let eval = |threads: usize| {
        let mut store = base_store.clone();
        let mut db = Database::new();
        let collector = Collector::enabled();
        let stats = seminaive_traced_opts(
            &prog,
            &mut store,
            &mut db,
            &budget,
            &collector,
            &EvalOptions::with_threads(threads),
        )
        .unwrap();
        let mut rows: Vec<String> = db
            .predicates()
            .into_iter()
            .flat_map(|pred| {
                let name = store.sym_str(pred.name).to_owned();
                db.relation(pred)
                    .unwrap()
                    .rows()
                    .iter()
                    .map(|row| {
                        let args: Vec<String> = row.iter().map(|&t| store.display(t)).collect();
                        format!("{name}({})", args.join(","))
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        rows.sort();
        (stats, rows, collector.snapshot())
    };

    let (seq_stats, seq_db, seq_snap) = eval(1);
    let (par_stats, par_db, par_snap) = eval(4);

    assert_eq!(
        seq_snap.counter("eval.parallel.rounds"),
        0,
        "one thread must never fan out"
    );
    assert!(
        par_snap.counter("eval.parallel.rounds") > 0,
        "this workload is supposed to engage the worker pool"
    );
    assert_eq!(seq_db, par_db, "thread count changed the model");
    // Per-rule wall clocks are the one nondeterministic field; everything
    // else — including the per-rule attribution — must match exactly.
    assert_eq!(
        seq_stats.with_walls_zeroed(),
        par_stats.with_walls_zeroed(),
        "thread count changed the counters"
    );
}

/// Threads are also invisible on hand-written programs with negation and
/// disequality (the stratified path), not just the diagnosis encodings.
#[test]
fn stratified_program_is_thread_invariant() {
    let src = r#"
        Edge@p("a", "b"). Edge@p("b", "c"). Edge@p("c", "d"). Edge@p("d", "e").
        Path@p(X, Y) :- Edge@p(X, Y).
        Path@p(X, Y) :- Path@p(X, Z), Edge@p(Z, Y).
        Distinct@p(X, Y) :- Path@p(X, Y), X != Y.
        Unreached@p(X) :- Edge@p(X, Y), not Path@p(Y, X).
    "#;
    let run = |threads: usize| {
        let mut store = TermStore::new();
        let prog = parse_program(src, &mut store).unwrap();
        let mut db = Database::new();
        let stats = seminaive_stratified_traced_opts(
            &prog,
            &mut store,
            &mut db,
            &EvalBudget::default(),
            &Collector::disabled(),
            &EvalOptions::with_threads(threads),
        )
        .unwrap();
        let mut rows: Vec<String> = db
            .predicates()
            .into_iter()
            .flat_map(|pred| {
                let name = store.sym_str(pred.name).to_owned();
                db.relation(pred)
                    .unwrap()
                    .rows()
                    .iter()
                    .map(|row| {
                        let args: Vec<String> = row.iter().map(|&t| store.display(t)).collect();
                        format!("{name}({})", args.join(","))
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        rows.sort();
        (stats, rows)
    };
    let (s1, d1) = run(1);
    for threads in [2, 4, 8] {
        let (sn, dn) = run(threads);
        assert_eq!(d1, dn, "model diverged at {threads} threads");
        assert_eq!(s1, sn, "stats diverged at {threads} threads");
    }
}
