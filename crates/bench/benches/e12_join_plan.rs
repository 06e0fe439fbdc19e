//! E12 — the compiled join plan vs. the leftmost-order baseline: wall
//! time of materializing the telecom unfolding under each join order
//! (the Criterion companion to the report's candidates-scanned table).

use criterion::{criterion_group, criterion_main, Criterion};
use rescue::datalog::{seminaive_opts, Database, EvalBudget, EvalOptions, JoinOrder, TermStore};
use rescue::diagnosis::{unfolding_program, EncodeOptions};
use rescue_bench::experiments::telecom_net;

fn bench(c: &mut Criterion) {
    let net = telecom_net(3, 42);
    let budget = EvalBudget {
        max_term_depth: Some(8),
        ..Default::default()
    };

    let mut g = c.benchmark_group("e12_join_plan");
    g.sample_size(10);
    for (label, order) in [
        ("planned", JoinOrder::Planned),
        ("leftmost", JoinOrder::Leftmost),
    ] {
        let options = EvalOptions {
            order,
            ..Default::default()
        };
        g.bench_function(label, |b| {
            b.iter(|| {
                let mut store = TermStore::new();
                let prog = unfolding_program(&net, &mut store, &EncodeOptions::default());
                let mut db = Database::new();
                seminaive_opts(&prog, &mut store, &mut db, &budget, &options).unwrap();
                db.total_facts()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
