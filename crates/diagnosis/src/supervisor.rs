//! The §4.2 encoding: diagnosis of an alarm sequence as a dDatalog query
//! at the supervisor site.
//!
//! The supervisor `p0` splits the alarm sequence into per-peer
//! subsequences, encodes them in the `AlarmSeq` base relation with fresh
//! index constants, and defines:
//!
//! * `ConfigPrefixes@p0(id, id′, x, i₁…i_k, l)` — explanation prefixes:
//!   `id` (a Skolem `h`-term) explains the per-peer prefix `(i₁…i_k)` and
//!   was obtained from `id′` by appending event `x`, which explains an
//!   alarm of peer `l` (`l = r` for the empty explanation `h(r)`). The
//!   k-ary index is the paper's multi-peer generalization;
//! * `TransInConf@p0(id, x, f)` — event `x` participates in prefix `id`;
//!   the flag `f` is `last` when `x` is `id`'s last event (and for the
//!   root marker of `h(r)`), `old` otherwise. It is a function of
//!   `(id, x)`, so the relation has exactly the rows it would have
//!   without it;
//! * `NotParent@p0(id, m)` — condition `m` is not consumed within `id`;
//! * `Gate<k>@p0(l, p, f₀…f_(k-1))` — a static table per preset arity
//!   `k` (see below);
//! * `Diag@p0(id, x)` — the answer relation: `id` ranges over full
//!   explanations (all indices final), `x` over their events.
//!
//! The extension rule follows the paper exactly, with one repair and two
//! refinements (see DESIGN.md): the transition constant `t` is carried
//! through `Trans1/Trans2` so that the alarm symbol constrains *which*
//! event is requested (making the dQSQ-materialized event set coincide
//! with the dedicated algorithm's, Theorem 4), and the rule is generated
//! per preset arity of the alarm peer's transitions.
//!
//! The second refinement is a partial-order reduction. Without it, every
//! order in which concurrent alarms of different peers are consumed gets
//! its own explanation id. Peers are ranked in index-vector order, with
//! `r` lowest. An extension of `id` by an alarm of peer `p` ranked below
//! `id`'s last peer `l` is admitted only if `id`'s last event produced one
//! of the new event's parent conditions: the rule reads each parent
//! producer's flag from `TransInConf` and joins `Gate<k>`, which holds
//! every `(l, p, f₀…)` with `rank(l) ≤ rank(p)` or some `fᵢ = last`.
//! The greedy linearization of a configuration (always consume next the
//! alarm of the lowest-ranked peer that can go) passes every gate, so
//! every configuration keeps an id; the requests sent to the net peers do
//! not depend on which prefix asks, so Theorem 4 is untouched.

use crate::alarm::AlarmSeq;
use crate::direct::Diagnosis;
use crate::encode::{names, petri_facts, unfolding_program, Enc, EncodeOptions};
use rescue_datalog::{Atom, Database, Diseq, Program, Rule, TermId, TermStore};
use rescue_petri::{PeerId, PetriNet};
use rustc_hash::FxHashMap;

/// Relation names owned by the supervisor.
pub mod sup_names {
    pub const ALARM_SEQ: &str = "AlarmSeq";
    pub const CONFIG_PREFIXES: &str = "ConfigPrefixes";
    pub const TRANS_IN_CONF: &str = "TransInConf";
    pub const NOT_PARENT: &str = "NotParent";
    pub const DIAG: &str = "Diag";
    /// Prefix of the per-preset-arity gate tables (`Gate1`, `Gate2`, …).
    pub const GATE: &str = "Gate";
    /// `TransInConf` flag: the event is the prefix's last one.
    pub const LAST: &str = "last";
    /// `TransInConf` flag: the event came before the prefix's last one.
    pub const OLD: &str = "old";

    /// Name of the gate table for preset arity `k`.
    pub fn gate_rel_name(k: usize) -> String {
        format!("{GATE}{k}")
    }
}

/// The generated diagnosis program and its query.
#[derive(Clone, Debug)]
pub struct DiagnosisProgram {
    /// Unfolding rules + `PetriNet` facts + supervisor rules + `AlarmSeq`
    /// facts — the paper's `P_A(N, M, A)`.
    pub program: Program,
    /// The query `Diag@p0(Z, X)` ("q@p0(?, ?)").
    pub query: Atom,
    /// The supervisor peer name.
    pub supervisor: String,
}

/// Generate the full diagnosis program for `net` and `alarms`, with the
/// supervisor at peer `supervisor` (must not collide with a net peer).
pub fn diagnosis_program(
    net: &PetriNet,
    alarms: &AlarmSeq,
    supervisor: &str,
    store: &mut TermStore,
) -> DiagnosisProgram {
    assert!(
        net.peer_by_name(supervisor).is_none(),
        "supervisor peer name collides with a net peer"
    );
    let mut prog = unfolding_program(net, store, &EncodeOptions::default());
    for rule in petri_facts(net, store).rules {
        prog.push(rule);
    }

    let peers: Vec<String> = alarms.peers().iter().map(|s| s.to_string()).collect();

    // Index constants per peer subsequence, and AlarmSeq facts.
    let mut first_index: Vec<TermId> = Vec::with_capacity(peers.len());
    let mut last_index: Vec<TermId> = Vec::with_capacity(peers.len());
    for pj in &peers {
        let seq = alarms.subsequence(pj);
        for (m, symbol) in seq.iter().enumerate() {
            prog.push(alarm_fact(store, supervisor, symbol, pj, m));
        }
        first_index.push(index_constant(store, pj, 0));
        last_index.push(index_constant(store, pj, seq.len()));
    }

    for rule in initial_facts(store, supervisor, &first_index) {
        prog.push(rule);
    }
    for rule in supervisor_rules(net, &peers, supervisor, store) {
        prog.push(rule);
    }
    prog.push(diag_rule(store, supervisor, &last_index));

    let mut e = Enc { store };
    let zq = e.v("Z");
    let xq = e.v("X");
    let query = e.atom(sup_names::DIAG, supervisor, vec![zq, xq]);
    DiagnosisProgram {
        program: prog,
        query,
        supervisor: supervisor.to_owned(),
    }
}

/// The index constant marking position `m` in `peer`'s subsequence.
pub(crate) fn index_constant(store: &mut TermStore, peer: &str, m: usize) -> TermId {
    store.constant(&format!("ix_{peer}_{m}"))
}

/// `AlarmSeq@p0(ix_{pj}_m, a, pj, ix_{pj}_{m+1})` — the `m`-th alarm of
/// `peer`'s subsequence carrying symbol `symbol`.
pub(crate) fn alarm_fact(
    store: &mut TermStore,
    supervisor: &str,
    symbol: &str,
    peer: &str,
    m: usize,
) -> Rule {
    let lo = index_constant(store, peer, m);
    let hi = index_constant(store, peer, m + 1);
    let mut e = Enc { store };
    let a = e.c(symbol);
    let pc = e.c(peer);
    let head = e.atom(sup_names::ALARM_SEQ, supervisor, vec![lo, a, pc, hi]);
    Rule::fact(head)
}

/// The facts seeding the empty explanation `h(r)`:
/// `ConfigPrefixes@p0(h(r), h(r), r, ix₁₀ … ix_k0, r)` and
/// `TransInConf@p0(h(r), r, last)`.
pub(crate) fn initial_facts(
    store: &mut TermStore,
    supervisor: &str,
    first_index: &[TermId],
) -> Vec<Rule> {
    let mut e = Enc { store };
    let r = e.c(names::ROOT);
    let last = e.c(sup_names::LAST);
    let hr = e.store.app("h", vec![r]);
    let mut args = vec![hr, hr, r];
    args.extend(first_index.iter().copied());
    args.push(r);
    let cp = e.atom(sup_names::CONFIG_PREFIXES, supervisor, args);
    let tic = e.atom(sup_names::TRANS_IN_CONF, supervisor, vec![hr, r, last]);
    vec![Rule::fact(cp), Rule::fact(tic)]
}

/// The supervisor's recursive rules for the index vector `peers` (one
/// `ConfigPrefixes` column per entry): the `TransInConf` closure, the
/// `NotParent` base and recursion, the extension rule per alarm peer and
/// preset arity, and the `Gate<k>` facts that rank `peers` in this order.
/// Peers unknown to the net get no extension rule (their alarms can never
/// be explained). Shared by the batch
/// [`diagnosis_program`] and the online [`crate::session::DiagnosisSession`].
pub(crate) fn supervisor_rules(
    net: &PetriNet,
    peers: &[String],
    supervisor: &str,
    store: &mut TermStore,
) -> Vec<Rule> {
    let mut rules = Vec::new();
    let mut e = Enc { store };
    let p0 = supervisor;
    let hr = {
        let r = e.c(names::ROOT);
        e.store.app("h", vec![r])
    };
    let k = peers.len();

    // Index variables I1..Ik shared by the recursive rules.
    let ivars: Vec<TermId> = (0..k).map(|j| e.v(&format!("I{j}"))).collect();
    let z = e.v("Z");
    let w = e.v("W");
    let x = e.v("X");
    let y = e.v("Y");
    let l = e.v("L");
    let f = e.v("F");
    let last = e.c(sup_names::LAST);
    let old = e.c(sup_names::OLD);
    // `ConfigPrefixes(Z, W, Y, I0..Ik-1, L)` with the given event and index
    // vector.
    let cp_atom = |e: &mut Enc, ev: TermId, ix: &[TermId]| {
        let mut args = vec![z, w, ev];
        args.extend(ix.iter().copied());
        args.push(l);
        e.atom(sup_names::CONFIG_PREFIXES, p0, args)
    };

    // TransInConf: z's last event is flagged `last`, the events it
    // inherits from w are `old`.
    {
        let b = cp_atom(&mut e, x, &ivars);
        let head = e.atom(sup_names::TRANS_IN_CONF, p0, vec![z, x, last]);
        rules.push(Rule {
            head,
            body: vec![b],
            diseqs: vec![],
        });
        let b1 = cp_atom(&mut e, y, &ivars);
        let b2 = e.atom(sup_names::TRANS_IN_CONF, p0, vec![w, x, f]);
        let head = e.atom(sup_names::TRANS_IN_CONF, p0, vec![z, x, old]);
        rules.push(Rule {
            head,
            body: vec![b1, b2],
            diseqs: vec![],
        });
    }

    // NotParent base: nothing is consumed in the empty explanation.
    let m = e.v("M");
    for i in 0..net.num_peers() {
        let p = net.peer_name(PeerId(i as u32)).to_owned();
        let b = e.atom(names::PLACES, &p, vec![m, y]);
        let head = e.atom(sup_names::NOT_PARENT, p0, vec![hr, m]);
        rules.push(Rule {
            head,
            body: vec![b],
            diseqs: vec![],
        });
    }
    // NotParent recursion: m is unconsumed in h(w, y)=z iff it is not a
    // parent of y and unconsumed in w. One rule per net peer and preset
    // arity of that peer's transitions.
    {
        let t = e.v("T");
        for i in 0..net.num_peers() {
            let id = PeerId(i as u32);
            let p = net.peer_name(id).to_owned();
            for arity in preset_arities(net, id) {
                let pvars: Vec<TermId> = (0..arity).map(|i| e.v(&format!("U{i}"))).collect();
                let mut targs = vec![t, y];
                targs.extend(pvars.iter().copied());
                let diseqs: Vec<Diseq> = pvars.iter().map(|&u| Diseq { lhs: m, rhs: u }).collect();
                let rel = crate::encode::trans_rel_name(arity);
                let b1 = cp_atom(&mut e, y, &ivars);
                let b2 = e.atom(&rel, &p, targs);
                let b3 = e.atom(sup_names::NOT_PARENT, p0, vec![w, m]);
                let head = e.atom(sup_names::NOT_PARENT, p0, vec![z, m]);
                rules.push(Rule {
                    head,
                    body: vec![b1, b2, b3],
                    diseqs,
                });
            }
        }
    }

    // The extension rule, per alarm peer and preset arity of that peer's
    // transitions, and the gate tables it joins. Alarms from a peer the net
    // does not know can never be explained; no extension rule for them.
    {
        let t = e.v("T");
        let a = e.v("A");
        let ij = e.v("Ij");
        let ij2 = e.v("Ij2");
        let extending: Vec<Extending> = peers
            .iter()
            .enumerate()
            .filter_map(|(j, pj)| {
                let id = net.peer_by_name(pj)?;
                Some((j, pj.as_str(), e.c(pj), preset_arities(net, id)))
            })
            .collect();
        rules.extend(gate_facts(&mut e, p0, &extending));
        for (j, pj, pjc, arities) in extending {
            for arity in arities {
                // Head index vector: Ij advances, the others pass through.
                let head_ix: Vec<TermId> = (0..k)
                    .map(|jj| if jj == j { ij2 } else { ivars[jj] })
                    .collect();
                let body_ix: Vec<TermId> = (0..k)
                    .map(|jj| if jj == j { ij } else { ivars[jj] })
                    .collect();
                let hx = e.store.app("h", vec![z, x]);

                let b_alarm = e.atom(sup_names::ALARM_SEQ, p0, vec![ij, a, pjc, ij2]);
                let b_cp = cp_atom(&mut e, y, &body_ix);

                // Parents: producer variables U0..U(arity-1), place
                // variables C0.., and the condition terms g(Ui, Ci).
                let uvars: Vec<TermId> = (0..arity).map(|i| e.v(&format!("U{i}"))).collect();
                let cvars: Vec<TermId> = (0..arity).map(|i| e.v(&format!("C{i}"))).collect();
                let fvars: Vec<TermId> = (0..arity).map(|i| e.v(&format!("F{i}"))).collect();
                let conds: Vec<TermId> = (0..arity).map(|i| e.g(uvars[i], cvars[i])).collect();

                let mut petri_args = vec![t, a];
                petri_args.extend(cvars.iter().copied());
                let b_petri = e.atom(&crate::encode::petri_rel_name(arity), pj, petri_args);
                let mut trans_args = vec![t, x];
                trans_args.extend(conds.iter().copied());
                let b_trans = e.atom(&crate::encode::trans_rel_name(arity), pj, trans_args);

                let mut body = vec![b_alarm, b_cp, b_petri];
                for (&prod, &flag) in uvars.iter().zip(&fvars) {
                    body.push(e.atom(sup_names::TRANS_IN_CONF, p0, vec![z, prod, flag]));
                }
                let mut gate_args = vec![l, pjc];
                gate_args.extend(fvars.iter().copied());
                body.push(e.atom(&sup_names::gate_rel_name(arity), p0, gate_args));
                for &cond in &conds {
                    body.push(e.atom(sup_names::NOT_PARENT, p0, vec![z, cond]));
                }
                body.push(b_trans);

                let mut head_args = vec![hx, z, x];
                head_args.extend(head_ix.iter().copied());
                head_args.push(pjc);
                let head = e.atom(sup_names::CONFIG_PREFIXES, p0, head_args);
                rules.push(Rule {
                    head,
                    body,
                    diseqs: vec![],
                });
            }
        }
    }

    rules
}

/// An alarm peer that gets extension rules: its position in the index
/// vector, its name and constant, and its [`preset_arities`].
type Extending<'a> = (usize, &'a str, TermId, Vec<usize>);

/// The preset arities of `peer`'s transitions, ascending: the only `k`
/// for which `PetriNet<k>@peer` and `Trans<k>@peer` can hold facts, so the
/// only ones a rule reading them is generated for.
fn preset_arities(net: &PetriNet, peer: PeerId) -> Vec<usize> {
    let mut arities: Vec<usize> = net
        .transitions()
        .filter(|(_, tr)| tr.peer == peer && !tr.pre.is_empty())
        .map(|(_, tr)| tr.pre.len())
        .collect();
    arities.sort_unstable();
    arities.dedup();
    arities
}

/// The `Gate<k>@p0(l, p, f₀…f_(k-1))` facts: an extension by an alarm of
/// peer `p` after one of peer `l` whose parent producers carry the flags
/// `fᵢ` is admitted iff `rank(l) ≤ rank(p)` or some `fᵢ = last`.
/// Ranks follow the index vector, with the root `r` below every peer. Each
/// `p` gets rows for its own preset arities only.
fn gate_facts(e: &mut Enc, p0: &str, extending: &[Extending]) -> Vec<Rule> {
    let last = e.c(sup_names::LAST);
    let old = e.c(sup_names::OLD);
    // (rank, constant) of every value the `L` column can hold.
    let mut ranked = vec![(0, e.c(names::ROOT))];
    ranked.extend(extending.iter().map(|&(j, _, pc, _)| (j + 1, pc)));
    let mut facts = Vec::new();
    for &(j, _, pc, ref arities) in extending {
        for &arity in arities {
            let rel = sup_names::gate_rel_name(arity);
            for &(rank_l, lc) in &ranked {
                // Every flag vector, bit i set meaning `fᵢ = last`.
                for bits in 0u32..1 << arity {
                    if rank_l > j + 1 && bits == 0 {
                        continue;
                    }
                    let mut args = vec![lc, pc];
                    args.extend((0..arity).map(|i| if bits >> i & 1 == 1 { last } else { old }));
                    facts.push(Rule::fact(e.atom(&rel, p0, args)));
                }
            }
        }
    }
    facts
}

/// The answer rule `Diag@p0(Z, X)` for full explanations: the rows of
/// `ConfigPrefixes` whose index vector equals `last_index` (every alarm
/// consumed), paired with their non-root events.
pub(crate) fn diag_rule(store: &mut TermStore, supervisor: &str, last_index: &[TermId]) -> Rule {
    let mut e = Enc { store };
    let r = e.c(names::ROOT);
    let z = e.v("Z");
    let w = e.v("W");
    let x = e.v("X");
    let y = e.v("Y");
    let l = e.v("L");
    let f = e.v("F");
    let mut cp_args = vec![z, w, y];
    cp_args.extend(last_index.iter().copied());
    cp_args.push(l);
    let b1 = e.atom(sup_names::CONFIG_PREFIXES, supervisor, cp_args);
    let b2 = e.atom(sup_names::TRANS_IN_CONF, supervisor, vec![z, x, f]);
    let head = e.atom(sup_names::DIAG, supervisor, vec![z, x]);
    Rule {
        head,
        body: vec![b1, b2],
        diseqs: vec![Diseq { lhs: x, rhs: r }],
    }
}

/// Turn `Diag(z, x)` answer rows into a [`Diagnosis`]: group the event
/// terms by explanation id and deduplicate the resulting sets (the gate
/// admits the greedy interleaving of every configuration, but may admit
/// others too, so one configuration can still hold several ids).
pub fn extract_diagnosis(rows: &[Vec<TermId>], store: &TermStore) -> Diagnosis {
    let mut by_id: FxHashMap<TermId, Vec<String>> = FxHashMap::default();
    for row in rows {
        by_id.entry(row[0]).or_default().push(store.display(row[1]));
    }
    Diagnosis::from_sets(by_id.into_values().collect())
}

/// Render a proof of one `Diag(z, x)` answer: the derivation tree showing
/// which alarm-extension steps, unfolding events and concurrency facts
/// support the explanation — the paper's "explained to a human supervisor"
/// (§2), reconstructed via [`rescue_datalog::provenance`].
pub fn explain_answer(
    dp: &DiagnosisProgram,
    store: &mut TermStore,
    db: &mut Database,
    row: &[TermId],
) -> Option<String> {
    let d = rescue_datalog::explain(&dp.program, store, db, dp.query.pred, row)?;
    Some(d.render(store))
}

/// Read the diagnosis off a bottom-up–evaluated database (rows of `Diag`).
pub fn extract_from_db(db: &Database, store: &TermStore, query: &Atom) -> Diagnosis {
    let rows: Vec<Vec<TermId>> = db
        .relation(query.pred)
        .map(|rel| rel.rows().iter().map(|r| r.to_vec()).collect())
        .unwrap_or_default();
    extract_diagnosis(&rows, store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescue_datalog::{seminaive, EvalBudget};
    use rescue_petri::figure1;

    fn diagnose_bottom_up(net: &PetriNet, alarms: &AlarmSeq, depth: u32) -> Diagnosis {
        let mut store = TermStore::new();
        let dp = diagnosis_program(net, alarms, "p0", &mut store);
        dp.program.validate(&store).unwrap();
        let mut db = Database::new();
        // Bound the unfolding depth (naive/semi-naive evaluation of the
        // program would not terminate otherwise — the paper's point) and
        // the h-chain length implicitly via the same bound.
        let budget = EvalBudget {
            max_term_depth: Some(2 * depth + 2),
            ..Default::default()
        };
        seminaive(&dp.program, &mut store, &mut db, &budget).unwrap();
        extract_from_db(&db, &store, &dp.query)
    }

    #[test]
    fn theorem3_on_the_paper_sequences() {
        let net = figure1();
        for pairs in [
            vec![("b", "p1"), ("a", "p2"), ("c", "p1")],
            vec![("b", "p1"), ("c", "p1"), ("a", "p2")],
            vec![("c", "p1"), ("b", "p1"), ("a", "p2")],
        ] {
            let alarms = AlarmSeq::from_pairs(&pairs);
            let got = diagnose_bottom_up(&net, &alarms, alarms.len() as u32 + 1);
            let want = crate::direct::diagnose_oracle(&net, &alarms, 100_000);
            assert_eq!(got, want, "diverged on {alarms}");
        }
    }

    #[test]
    fn diag_answers_have_renderable_proofs() {
        let net = figure1();
        let alarms = AlarmSeq::from_pairs(&[("b", "p1"), ("a", "p2"), ("c", "p1")]);
        let mut store = TermStore::new();
        let dp = diagnosis_program(&net, &alarms, "p0", &mut store);
        let mut db = rescue_datalog::Database::new();
        let budget = EvalBudget {
            max_term_depth: Some(2 * (alarms.len() as u32 + 1) + 2),
            ..Default::default()
        };
        seminaive(&dp.program, &mut store, &mut db, &budget).unwrap();
        let rows: Vec<Vec<TermId>> = db
            .relation(dp.query.pred)
            .unwrap()
            .rows()
            .iter()
            .map(|r| r.to_vec())
            .collect();
        assert!(!rows.is_empty());
        let proof = explain_answer(&dp, &mut store, &mut db, &rows[0]).unwrap();
        // The proof grounds out in the alarm sequence and the net structure.
        assert!(proof.contains("Diag@p0"));
        assert!(proof.contains("ConfigPrefixes@p0"));
        assert!(proof.contains("AlarmSeq@p0"));
        assert!(proof.contains("[base fact]") || proof.contains("[rule"));
    }

    #[test]
    fn unknown_peer_alarms_unexplainable() {
        let net = figure1();
        let alarms = AlarmSeq::from_pairs(&[("b", "nowhere")]);
        let got = diagnose_bottom_up(&net, &alarms, 2);
        assert!(got.is_empty());
    }

    #[test]
    fn program_structure_is_distributed() {
        let net = figure1();
        let alarms = AlarmSeq::from_pairs(&[("b", "p1"), ("a", "p2")]);
        let mut store = TermStore::new();
        let dp = diagnosis_program(&net, &alarms, "p0", &mut store);
        let peers = dp.program.peers();
        // p0 + p1 + p2.
        assert_eq!(peers.len(), 3);
        // Supervisor rules live at p0.
        let p0 = rescue_datalog::Peer(store.sym("p0"));
        assert!(dp
            .program
            .rules_at(p0)
            .any(|r| store.sym_str(r.head.pred.name) == sup_names::CONFIG_PREFIXES));
    }
}
