//! The reference oracle: on random multi-peer dDatalog programs, every
//! evaluation entry point computes what the independent evaluator in
//! `rescue_integration::reference` computes.
//!
//! A program has 2–3 peers, 1–3 extensional relations with a few facts
//! (some holding ground function terms) and 2–4 intensional relations of
//! arity 1–3. Each rule has 1–3 body atoms and may carry a disequality. It
//! is range-restricted by construction. Three flavours ride on that shape:
//!
//! * **positive** programs, where a Skolem head `g(…)` appears only on a
//!   rule that reads lower relations, so every engine terminates. Some of
//!   them recurse mutually across peers instead, without Skolem heads.
//!   The full model is compared for `seminaive`, `seminaive_stratified`
//!   and an `EvalSession` fed the extensional facts in random chunks; the
//!   query's answers for QSQ, Magic Sets and dQSQ under `FifoPerChannel`
//!   and `Random` delivery.
//! * **negated** programs, where a negated atom reads only a relation of a
//!   lower stratum. `seminaive_stratified` must match the reference; every
//!   other entry point must refuse the program.
//! * **deep** programs, which add a recursive Skolem rule that only a
//!   term-depth bound stops. The bottom-up entry points run under the bound
//!   and must match the reference at the same bound.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rescue_datalog::{
    parse_atom, parse_program, seminaive, seminaive_stratified, Database, EvalBudget, EvalError,
    EvalOptions, EvalSession, ExportedTerm, Program, TermId, TermStore,
};
use rescue_dqsq::{dqsq_distributed, protocol_rewrite, DistOptions, DqsqError};
use rescue_integration::reference::{self, Model};
use rescue_net::sim::{Delivery, SimConfig};
use rescue_qsq::{magic_answer, qsq_answer, split_edb_facts, QsqError, RewriteError};
use std::collections::HashSet;
use std::fmt::Write;

/// One generated program and how to run it.
struct Case {
    src: String,
    idb: Vec<Rel>,
    negated: bool,
    /// The term-depth bound of a deep program.
    depth: Option<u32>,
}

/// How many cases of each flavour a run covered.
#[derive(Default, Debug)]
struct Coverage {
    positive: usize,
    negated: usize,
    deep: usize,
    skolem: usize,
    mutual: usize,
    /// Cases whose query had answers.
    answered: usize,
}

struct Rel {
    name: String,
    arity: usize,
}

fn constant(rng: &mut StdRng) -> String {
    format!("n{}", rng.gen_range(0..5u8))
}

/// A random program, deterministic in `seed`.
fn generate(seed: u64, cov: &mut Coverage) -> Case {
    let rng = &mut StdRng::seed_from_u64(seed);
    let peers = &["a", "b", "c"][..rng.gen_range(2..4)];
    let peer = |rng: &mut StdRng| *peers.choose(rng).unwrap();
    let negated = rng.gen_bool(0.3);
    let deep = !negated && rng.gen_bool(0.2);
    let mutual = !negated && !deep && rng.gen_bool(0.35);
    let mut src = String::new();
    let edb: Vec<Rel> = (0..rng.gen_range(1..4))
        .map(|k| Rel {
            name: format!("E{k}@{}", peer(rng)),
            arity: rng.gen_range(1..4),
        })
        .collect();
    for rel in &edb {
        for _ in 0..rng.gen_range(3..12) {
            let args: Vec<String> = (0..rel.arity)
                .map(|_| match rng.gen_bool(0.1) {
                    true => format!("f({})", constant(rng)),
                    false => constant(rng),
                })
                .collect();
            writeln!(src, "{}({}).", rel.name, args.join(", ")).unwrap();
        }
    }
    let idb: Vec<Rel> = (0..rng.gen_range(2..5))
        .map(|k| Rel {
            name: format!("P{k}@{}", peer(rng)),
            arity: rng.gen_range(1..4),
        })
        .collect();
    let (mut skolem, mut any_not) = (false, false);
    for (i, head) in idb.iter().enumerate() {
        for r in 0..rng.gen_range(1..4) {
            // The first rule of a relation reads only the extensional
            // relations and lower intensional ones, so that every relation
            // has data. Later rules may also read the relation itself
            // and, in a mutual program, any intensional relation. Every
            // negated atom therefore sits on a lower stratum.
            let reach = match (r, mutual) {
                (0, _) => i,
                (_, true) => idb.len(),
                (_, false) => i + 1,
            };
            let n_pos = rng.gen_range(1..4);
            let (mut vars, mut body, mut lower_only) = (Vec::<String>::new(), Vec::new(), true);
            for _ in 0..n_pos {
                let k = rng.gen_range(0..edb.len() + reach);
                let (rel, is_edb) = match k < edb.len() {
                    true => (&edb[k], true),
                    false => (&idb[k - edb.len()], false),
                };
                lower_only &= is_edb || k - edb.len() < i;
                let args: Vec<String> = (0..rel.arity)
                    .map(|_| {
                        if !vars.is_empty() && rng.gen_bool(0.4) {
                            return vars.choose(rng).unwrap().clone();
                        }
                        if rng.gen_bool(0.08) {
                            return constant(rng);
                        }
                        let v = format!("V{}", vars.len());
                        vars.push(v.clone());
                        // Function patterns only on extensional atoms: on
                        // a recursive one, QSQ would keep asking for
                        // ever deeper bindings.
                        match is_edb && rng.gen_bool(0.1) {
                            true => format!("f({v})"),
                            false => v,
                        }
                    })
                    .collect();
                body.push(format!("{}({})", rel.name, args.join(", ")));
            }
            let pick =
                |rng: &mut StdRng, vars: &[String]| match vars.is_empty() || rng.gen_bool(0.1) {
                    true => constant(rng),
                    false => vars.choose(rng).unwrap().clone(),
                };
            if negated && n_pos < 3 && edb.len() + i > 0 && rng.gen_bool(0.6) {
                let k = rng.gen_range(0..edb.len() + i);
                let rel = if k < edb.len() {
                    &edb[k]
                } else {
                    &idb[k - edb.len()]
                };
                let args: Vec<String> = (0..rel.arity).map(|_| pick(rng, &vars)).collect();
                body.push(format!("not {}({})", rel.name, args.join(", ")));
                any_not = true;
            }
            if !vars.is_empty() && rng.gen_bool(0.3) {
                let mut two = vars.clone();
                two.shuffle(rng);
                let rhs = match two.len() > 1 && rng.gen_bool(0.7) {
                    true => two[1].clone(),
                    false => constant(rng),
                };
                body.push(format!("{} != {rhs}", two[0]));
            }
            let mut args: Vec<String> = (0..head.arity).map(|_| pick(rng, &vars)).collect();
            if lower_only && !mutual && !vars.is_empty() && rng.gen_bool(0.3) {
                let at = rng.gen_range(0..args.len());
                args[at] = format!("g({}, {})", args[at], pick(rng, &vars));
                skolem = true;
            }
            writeln!(
                src,
                "{}({}) :- {}.",
                head.name,
                args.join(", "),
                body.join(", ")
            )
            .unwrap();
        }
    }
    // Now and then an intensional relation also holds facts of its own,
    // which the QSQ rewritings keep among their rules.
    if rng.gen_bool(0.3) {
        let rel = idb.choose(rng).unwrap();
        let args: Vec<String> = (0..rel.arity).map(|_| constant(rng)).collect();
        writeln!(src, "{}({}).", rel.name, args.join(", ")).unwrap();
    }
    let depth = deep.then(|| {
        // A successor chain on one relation's first column: unbounded
        // without the depth bound.
        let rel = idb.choose(rng).unwrap();
        let vars: Vec<String> = (0..rel.arity).map(|k| format!("V{k}")).collect();
        let mut head = vars.clone();
        head[0] = format!("s({})", vars[0]);
        writeln!(
            src,
            "{}({}) :- {}({}).",
            rel.name,
            head.join(", "),
            rel.name,
            vars.join(", ")
        )
        .unwrap();
        rng.gen_range(2..5)
    });
    let negated = any_not;
    match (negated, deep) {
        (true, _) => cov.negated += 1,
        (_, true) => cov.deep += 1,
        _ => cov.positive += 1,
    }
    cov.skolem += usize::from(skolem);
    cov.mutual += usize::from(mutual);
    Case {
        src,
        idb,
        negated,
        depth,
    }
}

fn text(t: &ExportedTerm) -> String {
    match t {
        ExportedTerm::Const(s) | ExportedTerm::Var(s) => s.clone(),
        ExportedTerm::App(f, args) => {
            format!(
                "{f}({})",
                args.iter().map(text).collect::<Vec<_>>().join(", ")
            )
        }
    }
}

/// A query on one of the case's intensional relations, preferring one the
/// model holds rows of, with each column bound to a value of such a row
/// at random, so that most queries have answers.
fn query(seed: u64, case: &Case, model: &Model) -> String {
    let rng = &mut StdRng::seed_from_u64(!seed);
    let rows = |rel: &Rel| {
        let (name, peer) = rel.name.split_once('@').unwrap();
        model.get(&(name.to_owned(), peer.to_owned()))
    };
    let held: Vec<&Rel> = case.idb.iter().filter(|r| rows(r).is_some()).collect();
    let target = *held.choose(rng).unwrap_or(&&case.idb[0]);
    let mut texts: Vec<Vec<String>> = (rows(target).into_iter().flatten())
        .map(|row| row.iter().map(text).collect())
        .collect();
    texts.sort();
    let row = texts.choose(rng);
    let args: Vec<String> = (0..target.arity)
        .map(|k| match row {
            Some(row) if rng.gen_bool(0.4) => row[k].clone(),
            // A repeated variable asks for equal columns.
            _ if k > 0 && rng.gen_bool(0.15) => "Q0".to_owned(),
            _ => format!("Q{k}"),
        })
        .collect();
    format!("{}({})", target.name, args.join(", "))
}

fn parsed(src: &str) -> (Program, TermStore) {
    let mut store = TermStore::new();
    let prog = parse_program(src, &mut store).expect("generated programs parse");
    prog.validate(&store)
        .expect("generated programs are range-restricted");
    (prog, store)
}

/// The engine's model, read back into the reference's form.
fn model_of(db: &Database, store: &TermStore) -> Model {
    let mut model = Model::new();
    for (pred, rel) in db.iter().filter(|(_, rel)| !rel.is_empty()) {
        let key = (
            store.sym_str(pred.name).to_owned(),
            store.sym_str(pred.peer.0).to_owned(),
        );
        let rows = rel.rows().iter().map(|r| exported(r, store)).collect();
        model.insert(key, rows);
    }
    model
}

fn exported(row: &[TermId], store: &TermStore) -> Vec<ExportedTerm> {
    row.iter().map(|&t| store.export(t)).collect()
}

fn answer_set(rows: &[Vec<TermId>], store: &TermStore) -> HashSet<Vec<ExportedTerm>> {
    rows.iter().map(|r| exported(r, store)).collect()
}

/// Run every entry point that applies to `case` against the reference;
/// returns the number of query answers, if the query ran.
fn check(seed: u64, case: &Case) -> Option<usize> {
    let budget = match case.depth {
        Some(d) => EvalBudget::depth_bounded(d),
        None => EvalBudget::default(),
    };
    let (prog, store) = parsed(&case.src);
    let want = reference::evaluate(&prog, &store, case.depth);
    let query = query(seed, case, &want);
    let ctx = || format!("seed {seed}, query {query}, program:\n{}", case.src);

    let (prog, mut store) = parsed(&case.src);
    let mut db = Database::new();
    let opts = EvalOptions::default();
    seminaive_stratified(&prog, &mut store, &mut db, &budget, &opts).unwrap();
    assert_eq!(
        model_of(&db, &store),
        want,
        "seminaive_stratified, {}",
        ctx()
    );

    let (prog, mut store) = parsed(&case.src);
    let mut db = Database::new();
    let semi = seminaive(&prog, &mut store, &mut db, &budget);
    let q = parse_atom(&query, &mut store).unwrap();
    let (rules, _) = split_edb_facts(&prog);
    if case.negated {
        assert_eq!(semi.unwrap_err(), EvalError::NegationRequiresStratification);
        let session = EvalSession::new(rules.clone(), &mut store, budget);
        assert!(session.is_err(), "a session took negation, {}", ctx());
        let refused =
            |e: QsqError| matches!(e, QsqError::Rewrite(RewriteError::NegationUnsupported));
        let q_err = qsq_answer(&prog, &q, &mut store, &mut Database::new(), &budget).err();
        assert!(q_err.is_some_and(refused), "QSQ took negation, {}", ctx());
        let m_err = magic_answer(&prog, &q, &mut store, &mut Database::new(), &budget).err();
        assert!(m_err.is_some_and(refused), "Magic took negation, {}", ctx());
        let refused =
            |e: DqsqError| matches!(e, DqsqError::Rewrite(RewriteError::NegationUnsupported));
        let d_err = dqsq_distributed(&prog, &q, &mut store, &DistOptions::default()).err();
        assert!(d_err.is_some_and(refused), "dQSQ took negation, {}", ctx());
        let p_err = protocol_rewrite(&rules, &q, &store, SimConfig::default()).err();
        assert!(
            p_err.is_some_and(refused),
            "the dQSQ protocol took negation, {}",
            ctx()
        );
        return None;
    }
    semi.unwrap();
    assert_eq!(model_of(&db, &store), want, "seminaive, {}", ctx());

    // A session fed the extensional facts in random chunks, each resume
    // after the first on its warm path.
    let (prog, mut store) = parsed(&case.src);
    let (rules, mut edb) = split_edb_facts(&prog);
    let rng = &mut StdRng::seed_from_u64(seed);
    edb.shuffle(rng);
    let mut session = EvalSession::new(rules, &mut store, budget).unwrap();
    while !edb.is_empty() {
        let chunk: Vec<_> = edb.drain(..rng.gen_range(1..edb.len() + 1)).collect();
        session.resume(&mut store, chunk).unwrap();
    }
    assert_eq!(
        model_of(session.database(), &store),
        want,
        "chunked session, {}",
        ctx()
    );

    if case.depth.is_some() {
        return None;
    }
    let q = parse_atom(&query, &mut store).unwrap();
    let want = reference::answers(&want, &q, &store);
    let got = qsq_answer(&prog, &q, &mut store, &mut Database::new(), &budget).unwrap();
    assert_eq!(answer_set(&got.answers, &store), want, "QSQ, {}", ctx());
    let got = magic_answer(&prog, &q, &mut store, &mut Database::new(), &budget).unwrap();
    assert_eq!(
        answer_set(&got.answers, &store),
        want,
        "Magic Sets, {}",
        ctx()
    );
    for delivery in [Delivery::FifoPerChannel, Delivery::Random] {
        let opts = DistOptions {
            sim: SimConfig {
                seed,
                delivery,
                ..SimConfig::default()
            },
            ..DistOptions::default()
        };
        let got = dqsq_distributed(&prog, &q, &mut store, &opts).unwrap();
        let what = format!("dQSQ under {delivery:?}");
        assert_eq!(answer_set(&got.answers, &store), want, "{what}, {}", ctx());
    }
    Some(want.len())
}

fn run_cases(seeds: std::ops::Range<u64>) -> Coverage {
    let mut cov = Coverage::default();
    for seed in seeds {
        let case = generate(seed, &mut cov);
        cov.answered += usize::from(check(seed, &case).is_some_and(|n| n > 0));
    }
    cov
}

/// 256 cases in four shards, so the test harness runs them side by side.
fn shard(k: u64) {
    let cov = run_cases(k * 64..(k + 1) * 64);
    assert!(
        cov.positive >= 16
            && cov.negated >= 8
            && cov.deep >= 4
            && cov.skolem >= 4
            && cov.mutual >= 4
            && cov.answered >= 16,
        "the generator covers too little: {cov:?}"
    );
}

#[test]
fn reference_oracle_shard_0() {
    shard(0);
}

#[test]
fn reference_oracle_shard_1() {
    shard(1);
}

#[test]
fn reference_oracle_shard_2() {
    shard(2);
}

#[test]
fn reference_oracle_shard_3() {
    shard(3);
}

/// The release-size run: 4,096 further cases. Run it with
/// `cargo test --release -q -p rescue-integration --test reference_oracle -- --ignored`.
#[test]
#[ignore]
fn reference_oracle_release_size() {
    let cov = run_cases(1 << 20..(1 << 20) + 4096);
    eprintln!("{cov:?}");
}
