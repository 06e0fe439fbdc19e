//! E2 — semi-naive vs QSQ on the Figure 3 program, sweeping the
//! data size (the wall-time companion to the materialization table).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rescue::datalog::{parse_atom, parse_program, Database, EvalBudget, TermStore};
use rescue::qsq::{qsq_answer, seminaive_answer};

fn figure3(n: usize) -> String {
    let mut src = String::from(
        r#"
        R@r(X, Y) :- A@r(X, Y).
        R@r(X, Y) :- S@s(X, Z), T@t(Z, Y).
        S@s(X, Y) :- R@r(X, Y), B@s(Y, Z).
        T@t(X, Y) :- C@t(X, Y).
    "#,
    );
    for i in 1..=n {
        src.push_str(&format!("A@r(\"{}\", \"{}\").\n", i, i + 1));
        src.push_str(&format!("B@s(\"{}\", m{}).\n", i + 1, i + 1));
        src.push_str(&format!("C@t(\"{}\", \"{}\").\n", i + 1, i + 2));
    }
    for i in 0..4 * n {
        let base = 1_000_000 + 10 * i;
        src.push_str(&format!("A@r(\"{}\", \"{}\").\n", base, base + 1));
        src.push_str(&format!("B@s(\"{}\", m{}).\n", base + 1, base + 1));
        src.push_str(&format!("C@t(\"{}\", \"{}\").\n", base + 1, base + 2));
    }
    src
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e2_qsq_rewrite");
    g.sample_size(10);
    for n in [40usize, 160] {
        let src = figure3(n);
        let mut store = TermStore::new();
        let prog = parse_program(&src, &mut store).unwrap();
        let query = parse_atom(r#"R@r("1", Y)"#, &mut store).unwrap();

        g.bench_with_input(BenchmarkId::new("seminaive", n), &n, |b, _| {
            b.iter(|| {
                let mut st = store.clone();
                let mut db = Database::new();
                seminaive_answer(&prog, &query, &mut st, &mut db, &EvalBudget::default()).unwrap()
            })
        });
        g.bench_with_input(BenchmarkId::new("qsq", n), &n, |b, _| {
            b.iter(|| {
                let mut st = store.clone();
                let mut db = Database::new();
                qsq_answer(&prog, &query, &mut st, &mut db, &EvalBudget::default()).unwrap()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
