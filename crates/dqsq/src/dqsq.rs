//! End-to-end dQSQ: rewrite once, then run the rewritten program on the
//! distributed runtime (paper §3.2) — plus the Theorem 1 checker.
//!
//! Because the QSQ rewriting in `rescue-qsq` is placement-aware (each
//! generated rule lands at the peer owning its head), the rewritten program
//! of a distributed program *is* the dQSQ program of Figure 5; executing it
//! with the generic distributed evaluation of [`crate::dist`] yields dQSQ
//! evaluation. Supplementary relations whose producing and consuming rules
//! sit at different peers travel as ordinary tuple subscriptions — the
//! "shipped sup" arrows of the paper.

use crate::dist::{run_distributed, DistError, DistOptions, DistRun};
use rescue_datalog::{Atom, Database, Peer, PredId, Program, Rule, Subst, TermId, TermStore};
use rescue_qsq::{classify_name, qsq_answer, split_edb_facts, QsqError, RelKind, RewriteOutput};
use rustc_hash::FxHashMap;
use std::fmt;

/// Errors from a dQSQ run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DqsqError {
    Rewrite(rescue_qsq::RewriteError),
    Dist(DistError),
}

impl fmt::Display for DqsqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DqsqError::Rewrite(e) => write!(f, "rewrite: {e}"),
            DqsqError::Dist(e) => write!(f, "distributed eval: {e}"),
        }
    }
}

impl std::error::Error for DqsqError {}

impl From<rescue_qsq::RewriteError> for DqsqError {
    fn from(e: rescue_qsq::RewriteError) -> Self {
        DqsqError::Rewrite(e)
    }
}

impl From<DistError> for DqsqError {
    fn from(e: DistError) -> Self {
        DqsqError::Dist(e)
    }
}

/// Per-role fact counts across all peers (owned facts only, so each fact
/// counts once at its owner; shipped cached copies are reported separately
/// by [`DistRun::fact_totals`]).
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct DistMaterialized {
    pub adorned: usize,
    pub sup: usize,
    pub input: usize,
    pub base: usize,
}

impl DistMaterialized {
    pub fn derived_total(&self) -> usize {
        self.adorned + self.sup + self.input
    }
}

/// Count owned facts by role over a finished run.
pub fn dist_breakdown(run: &DistRun) -> DistMaterialized {
    let mut m = DistMaterialized::default();
    for peer in &run.peers {
        for (name, rows) in peer.owned_counts() {
            match classify_name(name) {
                RelKind::Adorned => m.adorned += rows,
                RelKind::Supplementary => m.sup += rows,
                RelKind::Input => m.input += rows,
                RelKind::Base => m.base += rows,
            }
        }
    }
    m
}

/// The outcome of a distributed dQSQ evaluation.
pub struct DqsqOutcome {
    /// Query answers, imported into the caller's store.
    pub answers: Vec<Vec<TermId>>,
    /// The finished network run (peers, message stats).
    pub run: DistRun,
    /// The rewriting that was executed.
    pub rewrite: RewriteOutput,
    /// Owned-fact counts by role.
    pub materialized: DistMaterialized,
}

/// Evaluate `query` over the distributed `program` with dQSQ: rewrite, ship
/// each rule to the peer owning its head, seed `in-Q` at the query's site,
/// run to the distributed fixpoint, and collect the answers at the query
/// relation's owner.
pub fn dqsq_distributed(
    program: &Program,
    query: &Atom,
    store: &mut TermStore,
    opts: &DistOptions,
) -> Result<DqsqOutcome, DqsqError> {
    dqsq_distributed_with(
        program,
        query,
        store,
        opts,
        rescue_qsq::SupPlacement::AtomPeer,
    )
}

/// [`dqsq_distributed`] with an explicit supplementary-relation placement
/// (the Remark 1 design choice; see [`rescue_qsq::SupPlacement`]).
pub fn dqsq_distributed_with(
    program: &Program,
    query: &Atom,
    store: &mut TermStore,
    opts: &DistOptions,
    placement: rescue_qsq::SupPlacement,
) -> Result<DqsqOutcome, DqsqError> {
    let (rules, edb) = split_edb_facts(program);
    let rw = {
        let _sp = opts.collector.span("dqsq rewrite", "dqsq");
        rescue_qsq::rewrite_with(&rules, query, store, placement)?
    };

    // The distributed program: rewritten rules + extensional facts at their
    // sites + the in-Q seed at the query's site.
    let mut dist = rw.program.clone();
    for (pred, row) in edb {
        dist.push(Rule::fact(Atom::new(pred, row.to_vec())));
    }
    dist.push(Rule::fact(Atom::new(rw.seed_pred, rw.seed_row.to_vec())));

    let run = run_distributed(&dist, store, opts)?;

    // Answers: rows of Q^a at its owner matching the query pattern.
    let name = store.sym_str(rw.answer_pred.name).to_owned();
    let peer = store.sym_str(rw.answer_pred.peer.0).to_owned();
    let mut answers = Vec::new();
    for row in run.facts_of(&name, &peer) {
        let ids: Vec<TermId> = row.iter().map(|t| store.import(t)).collect();
        let mut s = Subst::new();
        if ids
            .iter()
            .zip(rw.answer_atom.args.iter())
            .all(|(&g, &p)| store.match_term(p, g, &mut s))
        {
            answers.push(ids);
        }
    }
    let materialized = dist_breakdown(&run);
    Ok(DqsqOutcome {
        answers,
        run,
        rewrite: rw,
        materialized,
    })
}

/// Build the "local version" `P_local` of a distributed program (Theorem
/// 1): every atom is relocated to the single peer `site`. If two distinct
/// peers host a relation of the same name, the names are first
/// disambiguated by suffixing the original peer (`R_at_p`), matching the
/// paper's "w.l.o.g. the relation names of distinct peers are different —
/// otherwise rename".
pub fn delocalize(program: &Program, store: &mut TermStore, site: &str) -> Program {
    // Detect name collisions across peers.
    let mut seen: FxHashMap<rescue_datalog::Sym, Peer> = FxHashMap::default();
    let mut collide: Vec<rescue_datalog::Sym> = Vec::new();
    for r in &program.rules {
        for a in std::iter::once(&r.head).chain(r.body.iter()) {
            match seen.get(&a.pred.name) {
                None => {
                    seen.insert(a.pred.name, a.pred.peer);
                }
                Some(&p) if p != a.pred.peer && !collide.contains(&a.pred.name) => {
                    collide.push(a.pred.name);
                }
                _ => {}
            }
        }
    }
    let local = Peer(store.sym(site));
    let rename = |store: &mut TermStore, pred: PredId| -> PredId {
        let name = if collide.contains(&pred.name) {
            let s = format!(
                "{}_at_{}",
                store.sym_str(pred.name).to_owned(),
                store.sym_str(pred.peer.0).to_owned()
            );
            store.sym(&s)
        } else {
            pred.name
        };
        PredId { name, peer: local }
    };
    let mut out = Program::new();
    for r in &program.rules {
        let head = Atom::new(rename(store, r.head.pred), r.head.args.clone());
        let body = r
            .body
            .iter()
            .map(|a| Atom::new(rename(store, a.pred), a.args.clone()))
            .collect();
        out.push(Rule {
            head,
            body,
            diseqs: r.diseqs.clone(),
        });
    }
    out
}

/// The verdict of the Theorem 1 experiment: dQSQ on the distributed
/// program versus QSQ on its de-located version.
#[derive(Clone, Debug)]
pub struct Theorem1Report {
    /// Same query answers.
    pub answers_match: bool,
    /// For every adorned / input / supplementary relation, the fact sets
    /// agree (modulo the peer column) — the bijection ζ of the theorem.
    pub relations_match: bool,
    /// Relation names whose fact sets differ (diagnostic).
    pub mismatched: Vec<String>,
    /// Facts materialized by dQSQ (owned, derived only).
    pub dqsq_derived: usize,
    /// Facts materialized by QSQ on the local program (derived only).
    pub qsq_derived: usize,
    /// Combined engine counters of both sides (all dQSQ peers + the
    /// centralized QSQ run), for perf accounting.
    pub stats: rescue_datalog::EvalStats,
}

impl Theorem1Report {
    pub fn holds(&self) -> bool {
        self.answers_match && self.relations_match && self.dqsq_derived == self.qsq_derived
    }
}

/// Run both sides of Theorem 1 and compare.
///
/// Assumes relation names are globally distinct (as the theorem does); the
/// diagnosis encodings satisfy this because every peer's relations carry
/// the same names but *are* semantically shared — for those, pass programs
/// whose names are already distinct per peer, or rely on answers_match.
pub fn check_theorem1(
    program: &Program,
    query: &Atom,
    store: &mut TermStore,
    opts: &DistOptions,
) -> Result<Theorem1Report, DqsqError> {
    // Side 1: dQSQ on the distributed program.
    let dq = dqsq_distributed(program, query, store, opts)?;

    // Side 2: QSQ on the de-located program, evaluated centrally.
    let local_prog = delocalize(program, store, "local");
    let local_query = {
        // The query predicate keeps its name (collisions would have renamed
        // it only if shared, which the theorem's hypothesis excludes).
        let pred = PredId {
            name: query.pred.name,
            peer: Peer(store.sym("local")),
        };
        Atom::new(pred, query.args.clone())
    };
    let mut db = Database::new();
    let qs =
        qsq_answer(&local_prog, &local_query, store, &mut db, &opts.budget).map_err(
            |e| match e {
                QsqError::Rewrite(r) => DqsqError::Rewrite(r),
                QsqError::Eval(e) => DqsqError::Dist(DistError::Eval {
                    peer: "local".to_owned(),
                    error: e,
                }),
            },
        )?;

    // Compare answers.
    let mut a1: Vec<Vec<String>> = dq
        .answers
        .iter()
        .map(|r| r.iter().map(|&t| store.display(t)).collect())
        .collect();
    let mut a2: Vec<Vec<String>> = qs
        .answers
        .iter()
        .map(|r| r.iter().map(|&t| store.display(t)).collect())
        .collect();
    a1.sort();
    a2.sort();
    let answers_match = a1 == a2;

    // Compare every non-base relation by name, modulo the peer column and
    // modulo the de-localization's disambiguating rename: a relation `R`
    // hosted by several peers becomes `R_at_p` in P_local, so local names
    // are normalized by stripping `_at_<peer>` before the per-name
    // comparison (exactly the bijection ζ, with renamed families compared
    // as unions).
    let peer_suffixes: Vec<String> = program
        .peers()
        .iter()
        .map(|p| format!("_at_{}__", store.sym_str(p.0)))
        .collect();
    let normalize = |name: &str| -> String {
        let mut n = name.to_owned();
        for suf in &peer_suffixes {
            n = n.replace(suf.as_str(), "__");
        }
        n
    };
    let mut mismatched = Vec::new();
    // Collect dQSQ facts by name.
    let mut dq_facts: FxHashMap<String, Vec<String>> = FxHashMap::default();
    for peer in &dq.run.peers {
        for (name, rows) in peer.owned_facts() {
            if classify_name(&name) == RelKind::Base {
                continue;
            }
            let entry = dq_facts.entry(name).or_default();
            for row in rows {
                entry.push(format!("{row:?}"));
            }
        }
    }
    // Collect QSQ facts by (normalized) name.
    let mut qs_facts: FxHashMap<String, Vec<String>> = FxHashMap::default();
    for pred in db.predicates() {
        let name = normalize(store.sym_str(pred.name));
        if classify_name(&name) == RelKind::Base {
            continue;
        }
        let rel = db.relation(pred).expect("listed predicate exists");
        let entry = qs_facts.entry(name).or_default();
        for row in rel.rows() {
            let exported: Vec<rescue_datalog::ExportedTerm> =
                row.iter().map(|&t| store.export(t)).collect();
            entry.push(format!("{exported:?}"));
        }
    }
    let mut names: Vec<String> = dq_facts.keys().chain(qs_facts.keys()).cloned().collect();
    names.sort();
    names.dedup();
    for n in names {
        let mut d = dq_facts.remove(&n).unwrap_or_default();
        let mut q = qs_facts.remove(&n).unwrap_or_default();
        d.sort();
        q.sort();
        if d != q {
            mismatched.push(n);
        }
    }

    let mut stats = dq.run.total_stats();
    rescue_datalog::Absorb::absorb(&mut stats, &qs.stats);
    Ok(Theorem1Report {
        answers_match,
        relations_match: mismatched.is_empty(),
        mismatched,
        dqsq_derived: dq.materialized.derived_total(),
        qsq_derived: qs.materialized.derived_total(),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescue_datalog::{parse_atom, parse_program};

    const FIG3_WITH_DATA: &str = r#"
        R@r(X, Y) :- A@r(X, Y).
        R@r(X, Y) :- S@s(X, Z), T@t(Z, Y).
        S@s(X, Y) :- R@r(X, Y), B@s(Y, Z).
        T@t(X, Y) :- C@t(X, Y).
        A@r("1", n2).
        B@s(n2, m2).
        C@t(n2, n3).
        B@s(n3, m3).
        C@t(n3, n4).
        A@r(zz1, zz2).
        B@s(zz2, zm).
        C@t(zz2, zz3).
    "#;

    #[test]
    fn dqsq_computes_query_answers() {
        let mut st = TermStore::new();
        let prog = parse_program(FIG3_WITH_DATA, &mut st).unwrap();
        let q = parse_atom(r#"R@r("1", Y)"#, &mut st).unwrap();
        let out = dqsq_distributed(&prog, &q, &mut st, &DistOptions::default()).unwrap();
        let mut ys: Vec<String> = out.answers.iter().map(|r| st.display(r[1])).collect();
        ys.sort();
        assert_eq!(ys, vec!["n2", "n3", "n4"]);
        // Irrelevant zz-component must not be touched by dQSQ.
        let zz = st.constant("zz1");
        for peer in &out.run.peers {
            for (name, rows) in peer.owned_facts() {
                if classify_name(&name) != RelKind::Base {
                    for row in &rows {
                        let printed = format!("{row:?}");
                        assert!(
                            !printed.contains("zz1"),
                            "dQSQ materialized irrelevant tuple in {name}: {printed}"
                        );
                    }
                }
            }
        }
        let _ = zz;
    }

    #[test]
    fn sup_placement_ablation_same_answers() {
        // Remark 1: the sup distribution is a free design choice — both
        // placements compute the same answers, with different traffic.
        let mut st = TermStore::new();
        let prog = parse_program(FIG3_WITH_DATA, &mut st).unwrap();
        let q = parse_atom(r#"R@r("1", Y)"#, &mut st).unwrap();
        let atom_peer = dqsq_distributed_with(
            &prog,
            &q,
            &mut st,
            &DistOptions::default(),
            rescue_qsq::SupPlacement::AtomPeer,
        )
        .unwrap();
        let rule_site = dqsq_distributed_with(
            &prog,
            &q,
            &mut st,
            &DistOptions::default(),
            rescue_qsq::SupPlacement::RuleSite,
        )
        .unwrap();
        let render = |out: &DqsqOutcome| {
            let mut v: Vec<Vec<String>> = out
                .answers
                .iter()
                .map(|r| r.iter().map(|&t| st.display(t)).collect())
                .collect();
            v.sort();
            v
        };
        assert_eq!(render(&atom_peer), render(&rule_site));
        // Both made progress over the network; the profiles differ.
        assert!(atom_peer.run.net.messages > 0 && rule_site.run.net.messages > 0);
    }

    #[test]
    fn theorem1_holds_on_figure3() {
        let mut st = TermStore::new();
        let prog = parse_program(FIG3_WITH_DATA, &mut st).unwrap();
        let q = parse_atom(r#"R@r("1", Y)"#, &mut st).unwrap();
        let report = check_theorem1(&prog, &q, &mut st, &DistOptions::default()).unwrap();
        assert!(report.answers_match, "answers differ");
        assert!(
            report.relations_match,
            "relations differ: {:?}",
            report.mismatched
        );
        assert_eq!(report.dqsq_derived, report.qsq_derived);
        assert!(report.holds());
    }

    #[test]
    fn delocalize_renames_colliding_relations() {
        let mut st = TermStore::new();
        let prog = parse_program(
            r#"
            R@a(X) :- R@b(X).
            R@b(x0).
        "#,
            &mut st,
        )
        .unwrap();
        let local = delocalize(&prog, &mut st, "local");
        let names: Vec<String> = local
            .predicates()
            .iter()
            .map(|(p, _)| st.sym_str(p.name).to_owned())
            .collect();
        assert!(names.contains(&"R_at_a".to_owned()));
        assert!(names.contains(&"R_at_b".to_owned()));
        assert!(local.is_local());
    }

    #[test]
    fn classify_name_roles() {
        assert_eq!(classify_name("sup_3_1__bf"), RelKind::Supplementary);
        assert_eq!(classify_name("in_R__bf"), RelKind::Input);
        assert_eq!(classify_name("R__bf"), RelKind::Adorned);
        assert_eq!(classify_name("R"), RelKind::Base);
        assert_eq!(classify_name("in_box"), RelKind::Base);
    }
}
