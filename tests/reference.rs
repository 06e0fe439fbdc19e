//! A reference evaluator for dDatalog that shares nothing with the engine
//! but the parser: Shapiro's naive loop over plain term trees.
//!
//! It reads each rule once through [`TermStore::export_pattern`], then does
//! its own matching, substitution and stratification on
//! [`ExportedTerm`](T) trees, with no plan, index, delta or `Database`. Each round joins every
//! rule of the current stratum over the full relations, body atoms in
//! source order, and adds the heads it has not seen; a stratum ends when a
//! round adds nothing. Negated atoms and disequalities are checked once the
//! positive atoms have bound every variable. A derived head deeper than the
//! term-depth bound is dropped (the engine's `DepthPolicy::Skip`); the
//! program's own facts are given, not derived, so the bound keeps them.
//! It is slow on purpose: the point is that it is obviously right.

use rescue_datalog::{Atom, ExportedTerm as T, Program, TermStore};
use std::collections::{BTreeMap, HashMap, HashSet};

/// A relation: its name and its peer.
pub type Rel = (String, String);

/// A model: the rows of every nonempty relation.
pub type Model = BTreeMap<Rel, HashSet<Vec<T>>>;

/// A substitution from variable names to ground terms.
type Env = HashMap<String, T>;

struct RAtom {
    rel: Rel,
    args: Vec<T>,
    negated: bool,
}

struct RRule {
    head: RAtom,
    body: Vec<RAtom>,
    diseqs: Vec<(T, T)>,
}

fn read_atom(atom: &Atom, store: &TermStore) -> RAtom {
    RAtom {
        rel: (
            store.sym_str(atom.pred.name).to_owned(),
            store.sym_str(atom.pred.peer.0).to_owned(),
        ),
        args: atom.args.iter().map(|&t| store.export_pattern(t)).collect(),
        negated: atom.negated,
    }
}

/// Nesting depth of a term; constants have depth 1.
fn depth(t: &T) -> u32 {
    match t {
        T::Const(_) | T::Var(_) => 1,
        T::App(_, args) => 1 + args.iter().map(depth).max().unwrap_or(0),
    }
}

/// Extend `env` so that `pattern` instantiates to `ground`.
fn unify(pattern: &T, ground: &T, env: &mut Env) -> bool {
    match (pattern, ground) {
        (T::Var(v), _) => match env.get(v) {
            Some(bound) => bound == ground,
            None => {
                env.insert(v.clone(), ground.clone());
                true
            }
        },
        (T::Const(a), T::Const(b)) => a == b,
        (T::App(f, ps), T::App(g, gs)) => {
            f == g && ps.len() == gs.len() && ps.iter().zip(gs).all(|(p, g)| unify(p, g, env))
        }
        _ => false,
    }
}

/// Extend `env` so that the patterns `args` instantiate to `row`.
fn matches(args: &[T], row: &[T], env: &mut Env) -> bool {
    args.len() == row.len() && args.iter().zip(row).all(|(p, g)| unify(p, g, env))
}

/// Instantiate `pattern` under `env`, which binds all its variables.
fn subst(pattern: &T, env: &Env) -> T {
    match pattern {
        T::Var(v) => env[v].clone(),
        T::Const(_) => pattern.clone(),
        T::App(f, args) => T::App(f.clone(), args.iter().map(|a| subst(a, env)).collect()),
    }
}

/// The row of `atom` under `env`.
fn ground(atom: &RAtom, env: &Env) -> Vec<T> {
    atom.args.iter().map(|a| subst(a, env)).collect()
}

/// Every extension of `env` that matches the positive atoms `body`
/// against `model`, left to right.
fn join(body: &[&RAtom], model: &Model, env: &Env, out: &mut Vec<Env>) {
    let Some((first, rest)) = body.split_first() else {
        out.push(env.clone());
        return;
    };
    for row in model.get(&first.rel).into_iter().flatten() {
        let mut e = env.clone();
        if matches(&first.args, row, &mut e) {
            join(rest, model, &e, out);
        }
    }
}

/// The stratum of every relation: at least that of each positive body
/// relation of its rules, and above each negated one. Panics when
/// negation runs through recursion.
fn strata(rules: &[RRule]) -> HashMap<Rel, usize> {
    let mut s: HashMap<Rel, usize> = HashMap::new();
    for r in rules {
        for a in std::iter::once(&r.head).chain(&r.body) {
            s.entry(a.rel.clone()).or_insert(0);
        }
    }
    loop {
        let mut changed = false;
        for r in rules {
            for a in &r.body {
                let need = s[&a.rel] + usize::from(a.negated);
                if s[&r.head.rel] < need {
                    s.insert(r.head.rel.clone(), need);
                    changed = true;
                }
            }
        }
        assert!(s.values().all(|&k| k <= s.len()), "not stratifiable");
        if !changed {
            return s;
        }
    }
}

/// The model of `prog`: its facts, closed under its rules stratum by
/// stratum, without the heads deeper than `max_depth`.
pub fn evaluate(prog: &Program, store: &TermStore, max_depth: Option<u32>) -> Model {
    let rules: Vec<RRule> = (prog.rules.iter())
        .map(|r| RRule {
            head: read_atom(&r.head, store),
            body: r.body.iter().map(|a| read_atom(a, store)).collect(),
            diseqs: (r.diseqs.iter())
                .map(|d| (store.export_pattern(d.lhs), store.export_pattern(d.rhs)))
                .collect(),
        })
        .collect();
    let strata = strata(&rules);
    let top = strata.values().copied().max().unwrap_or(0);
    let fits = |row: &[T]| max_depth.is_none_or(|d| row.iter().all(|t| depth(t) <= d));
    let mut model = Model::new();
    let holds = |m: &Model, rel: &Rel, row: &Vec<T>| m.get(rel).is_some_and(|r| r.contains(row));
    for stratum in 0..=top {
        let mine: Vec<&RRule> = (rules.iter())
            .filter(|r| strata[&r.head.rel] == stratum)
            .collect();
        loop {
            let mut new: Vec<(Rel, Vec<T>)> = Vec::new();
            for rule in &mine {
                let positive: Vec<&RAtom> = rule.body.iter().filter(|a| !a.negated).collect();
                let mut envs = Vec::new();
                join(&positive, &model, &Env::new(), &mut envs);
                for env in envs {
                    let negation_holds = (rule.body.iter())
                        .filter(|a| a.negated)
                        .all(|a| !holds(&model, &a.rel, &ground(a, &env)));
                    let diseqs_hold =
                        (rule.diseqs.iter()).all(|(l, r)| subst(l, &env) != subst(r, &env));
                    let row = ground(&rule.head, &env);
                    let kept = rule.body.is_empty() || fits(&row);
                    let fresh = !holds(&model, &rule.head.rel, &row);
                    if negation_holds && diseqs_hold && kept && fresh {
                        new.push((rule.head.rel.clone(), row));
                    }
                }
            }
            if new.is_empty() {
                break;
            }
            for (rel, row) in new {
                model.entry(rel).or_default().insert(row);
            }
        }
    }
    model
}

/// The rows of `model` that match the query atom `query`.
pub fn answers(model: &Model, query: &Atom, store: &TermStore) -> HashSet<Vec<T>> {
    let q = read_atom(query, store);
    let rows = model.get(&q.rel).into_iter().flatten();
    rows.filter(|row| matches(&q.args, row, &mut Env::new()))
        .cloned()
        .collect()
}
