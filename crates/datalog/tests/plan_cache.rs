//! The session plan cache's observability contract: a warm resume changes
//! *nothing* but the `plans_compiled` counter (and the wall clock), and a
//! stale hit is impossible — the session's program is fixed, and a change
//! to a plan-shaping option misses the key and recompiles.

use rescue_datalog::{
    parse_program, Collector, Database, EvalBudget, EvalOptions, EvalSession, EvalStats, JoinOrder,
    Peer, PredId, TermId, TermStore,
};

const RULES: &str = r#"
    Path@p(X, Y) :- Edge@p(X, Y).
    Path@p(X, Y) :- Path@p(X, Z), Edge@p(Z, Y).
"#;

/// Transitive closure over an 80-edge chain, fed as two 40-edge batches:
/// one resume per batch under `first` then `second`, a fresh session each
/// call. Returns both resumes' stats and the sorted rendered model.
fn two_resumes(first: EvalOptions, second: EvalOptions) -> ([EvalStats; 2], Vec<String>) {
    let mut store = TermStore::new();
    let prog = parse_program(RULES, &mut store).unwrap();
    let edge = PredId {
        name: store.sym("Edge"),
        peer: Peer(store.sym("p")),
    };
    let nodes: Vec<TermId> = (0..=80).map(|i| store.constant(&format!("n{i}"))).collect();
    let batch = |range: std::ops::Range<usize>| -> Vec<(PredId, Box<[TermId]>)> {
        range
            .map(|i| (edge, [nodes[i], nodes[i + 1]].into()))
            .collect()
    };
    let mut session = EvalSession::idle(prog, EvalBudget::default());
    session.set_options(first);
    let cold = session.resume(&mut store, batch(0..40)).unwrap();
    session.set_options(second);
    let warm = session.resume(&mut store, batch(40..80)).unwrap();
    ([cold, warm], render(session.database(), &store))
}

fn render(db: &Database, store: &TermStore) -> Vec<String> {
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
    rows
}

/// Traced options, so the comparison covers the per-rule attribution too.
fn traced(order: JoinOrder, plan_cache: bool) -> EvalOptions {
    EvalOptions {
        order,
        plan_cache,
        collector: Collector::enabled(),
        ..Default::default()
    }
}

#[test]
fn cache_hit_compiles_nothing_spawns_nothing_and_changes_nothing() {
    let cached = || traced(JoinOrder::Planned, true);
    let uncached = || traced(JoinOrder::Planned, false);
    let ([cold, warm], model) = two_resumes(cached(), cached());
    assert!(cold.plans_compiled > 0, "the first resume must compile");
    assert_eq!(warm.plans_compiled, 0, "a warm resume is a pure cache hit");

    // The same second resume without the cache: identical model, identical
    // engine counters (per-rule wall clocks are the one nondeterministic
    // field) — the hit is invisible.
    let ([_, recompiled], control_model) = two_resumes(uncached(), uncached());
    assert!(recompiled.plans_compiled > 0);
    assert_eq!(model, control_model);
    let mut recompiled = recompiled;
    recompiled.plans_compiled = 0;
    assert_eq!(recompiled.with_walls_zeroed(), warm.with_walls_zeroed());
}

#[test]
fn join_order_change_invalidates_the_cache() {
    let ([p, l], switched_model) = two_resumes(
        traced(JoinOrder::Planned, true),
        traced(JoinOrder::Leftmost, true),
    );
    assert!(p.plans_compiled > 0);
    assert!(
        l.plans_compiled > 0,
        "a plan-shaping option change must recompile"
    );
    // Different plans, same model (the reorder is invisible).
    let (_, planned_model) = two_resumes(
        traced(JoinOrder::Planned, true),
        traced(JoinOrder::Planned, true),
    );
    assert_eq!(switched_model, planned_model);
}

#[test]
fn disabling_the_cache_recompiles_every_run() {
    let uncached = || traced(JoinOrder::Planned, false);
    let ([a, b], _) = two_resumes(uncached(), uncached());
    assert!(a.plans_compiled > 0);
    assert_eq!(
        a.plans_compiled, b.plans_compiled,
        "with the cache off every resume recompiles the same plans"
    );
}
