//! The §4.1 encoding: Petri-net unfolding construction as dDatalog.
//!
//! For each peer, rules are generated **from that peer's local view only**:
//! its places and transitions plus the identity of the neighbor peers
//! hosting parent places ("the rules at each peer are defined locally at
//! the peer … without any global knowledge of the overall net structure").
//!
//! Relations (hosted at the peer owning the underlying place/transition):
//!
//! * `Places@p(s, x)`  — condition `s`, child of event `x` (or of the
//!   virtual root transition `r`);
//! * `Trans1@p(t, x, u)` / `Trans2@p(t, x, u, v)` — event `x`, instance of
//!   Petri transition `t`, with parent condition(s) `u` (, `v`) in pre-list
//!   order (the paper's `trans` fixes two parents and notes the general
//!   case is straightforward; we generate per-arity relations, and carry
//!   `t` explicitly so a supervisor query can bind it — see DESIGN.md);
//! * `Map@p(n, c)` — the homomorphism ρ, for conditions and events;
//! * `Co@p(u, v)` — conditions `u`, `v` are **concurrent**. The paper
//!   derives concurrency negatively via `notCausal`/`notConf` with
//!   `transTree`/`placesTree` caches; we use the equivalent positive
//!   inductive axiomatization (distinct roots are co; postset siblings are
//!   co; a new condition is co with `w` iff every parent of its producer
//!   is co with `w`), which the paper's Remarks 3–4 invite ("the more
//!   space-conscious variant is easily inferred"). Theorem 2 / Lemma 1
//!   tests validate the equivalence exhaustively;
//! * optionally `Causal@p(x, y)` (y ≼ x) and `NotCausal@p(x, y)` (¬ y ≼ x)
//!   on events, the paper's Lemma 1 relations, derived positively.
//!
//! Node identifiers are Skolem terms: `g(r, c)` for a root of marked place
//! `c`, `f(t, u[, v])` for events, `g(x, c′)` for produced conditions —
//! matching [`rescue_petri::Unfolding::event_term`] exactly.

use rescue_datalog::{Atom, Peer, PredId, Program, Rule, TermId, TermStore};
use rescue_petri::{PetriNet, PlaceId};

/// Options for the unfolding encoding.
#[derive(Clone, Copy, Default, Debug)]
pub struct EncodeOptions {
    /// Also generate the quadratic `Causal` / `NotCausal` relations
    /// (needed only for the Lemma 1 experiments).
    pub include_causal: bool,
    /// Also generate Remark 4's stratified-negation variant
    /// (`NotCausalNeg`); the resulting program then requires
    /// `seminaive_stratified`.
    pub remark4_negation: bool,
}

/// Relation names used by the encoding (shared with the supervisor).
pub mod names {
    pub const PLACES: &str = "Places";
    pub const TRANS1: &str = "Trans1";
    pub const TRANS2: &str = "Trans2";
    pub const MAP: &str = "Map";
    pub const CO: &str = "Co";
    pub const CAUSAL: &str = "Causal";
    pub const NOT_CAUSAL: &str = "NotCausal";
    /// Remark 4's alternative: `NotCausal` defined by *stratified
    /// negation* of `Causal` (requires `seminaive_stratified`).
    pub const NOT_CAUSAL_NEG: &str = "NotCausalNeg";
    /// Helper domain relation for the negation variant: the event nodes
    /// hosted at a peer.
    pub const EVENT_AT: &str = "EventAt";
    pub const PETRI1: &str = "PetriNet1";
    pub const PETRI2: &str = "PetriNet2";
    /// The virtual root transition node.
    pub const ROOT: &str = "r";

    /// Is `name` one of the per-arity event relations `Trans<k>`?
    pub fn is_trans(name: &str) -> bool {
        name.strip_prefix("Trans")
            .is_some_and(|rest| !rest.is_empty() && rest.chars().all(|c| c.is_ascii_digit()))
    }
}

/// Largest preset the per-arity relations cover (`Trans1`…`Trans6`). Far
/// beyond anything telecom models use; raise if ever needed.
pub const MAX_PRESET: usize = 6;

/// The event relation for a preset of size `k`.
pub fn trans_rel_name(k: usize) -> String {
    format!("Trans{k}")
}

/// The net-description relation for a preset of size `k` (§4.2's
/// `petriNet@p(c, a, c′, c″)`, per arity).
pub fn petri_rel_name(k: usize) -> String {
    format!("PetriNet{k}")
}

/// Helper to build atoms for a fixed store.
pub(crate) struct Enc<'a> {
    pub store: &'a mut TermStore,
}

impl<'a> Enc<'a> {
    pub fn pred(&mut self, name: &str, peer: &str) -> PredId {
        PredId {
            name: self.store.sym(name),
            peer: Peer(self.store.sym(peer)),
        }
    }

    pub fn atom(&mut self, name: &str, peer: &str, args: Vec<TermId>) -> Atom {
        let p = self.pred(name, peer);
        Atom::new(p, args)
    }

    pub fn c(&mut self, name: &str) -> TermId {
        self.store.constant(name)
    }

    pub fn v(&mut self, name: &str) -> TermId {
        self.store.var(name)
    }

    pub fn g(&mut self, x: TermId, c: TermId) -> TermId {
        self.store.app("g", vec![x, c])
    }

    pub fn f(&mut self, args: Vec<TermId>) -> TermId {
        self.store.app("f", args)
    }
}

/// Generate the §4.1 unfolding-construction program for `net`.
///
/// The program's bottom-up model is infinite whenever the net has cyclic
/// behaviour — evaluate with a depth budget, or through (d)QSQ where the
/// diagnosis query bounds it (Proposition 1).
pub fn unfolding_program(net: &PetriNet, store: &mut TermStore, opts: &EncodeOptions) -> Program {
    let mut e = Enc { store };
    let mut prog = Program::new();
    let r = e.c(names::ROOT);

    let place_name = |net: &PetriNet, p: PlaceId| net.place(p).name.clone();
    let peer_of_place = |net: &PetriNet, p: PlaceId| net.peer_name(net.place(p).peer).to_owned();

    // Roots: Places@p(g(r, cr), r). Map@p(g(r, cr), cr).
    let marked: Vec<PlaceId> = net
        .initial_marking()
        .iter()
        .map(|i| PlaceId(i as u32))
        .collect();
    for &m in &marked {
        let peer = peer_of_place(net, m);
        let cr = e.c(&place_name(net, m));
        let node = e.g(r, cr);
        let head1 = e.atom(names::PLACES, &peer, vec![node, r]);
        prog.push(Rule::fact(head1));
        let head2 = e.atom(names::MAP, &peer, vec![node, cr]);
        prog.push(Rule::fact(head2));
    }
    // Distinct roots are pairwise concurrent (the initial cut).
    for &m1 in &marked {
        for &m2 in &marked {
            if m1 == m2 {
                continue;
            }
            let peer = peer_of_place(net, m1);
            let c1 = e.c(&place_name(net, m1));
            let c2 = e.c(&place_name(net, m2));
            let n1 = e.g(r, c1);
            let n2 = e.g(r, c2);
            let head = e.atom(names::CO, &peer, vec![n1, n2]);
            prog.push(Rule::fact(head));
        }
    }

    // Per-transition rules, for arbitrary preset arity (the paper fixes
    // two parents "to simplify" and notes the generalization is
    // straightforward — this is it: one parent variable and one Map atom
    // per pre-place, pairwise Co atoms for the co-set check).
    for (_, tr) in net.transitions() {
        let tpeer = net.peer_name(tr.peer).to_owned();
        let t = e.c(&tr.name);
        let k = tr.pre.len();
        assert!(
            k <= MAX_PRESET,
            "the encoding supports presets up to {MAX_PRESET} (transition {} has {k})",
            tr.name
        );
        let pvars: Vec<TermId> = (0..k).map(|i| e.v(&format!("U{i}"))).collect();
        let w = e.v("W");
        let x = e.v("X");
        let pre_names: Vec<TermId> = tr.pre.iter().map(|&pl| e.c(&place_name(net, pl))).collect();
        let pre_peers: Vec<String> = tr.pre.iter().map(|&pl| peer_of_place(net, pl)).collect();
        let trans_rel = trans_rel_name(k);

        // Event creation + its Map fact:
        //   TransK@p(t, f(t,U0..), U0..) :- Map@pi(Ui, ci)…, Co@pi(Ui, Uj)… .
        let mut ev_args = vec![t];
        ev_args.extend(pvars.iter().copied());
        let ev = e.f(ev_args);
        let mut trans_head_args = vec![t, ev];
        trans_head_args.extend(pvars.iter().copied());
        let mut trans_body: Vec<Atom> = Vec::new();
        for i in 0..k {
            trans_body.push(e.atom(names::MAP, &pre_peers[i], vec![pvars[i], pre_names[i]]));
        }
        for i in 0..k {
            for j in (i + 1)..k {
                trans_body.push(e.atom(names::CO, &pre_peers[i], vec![pvars[i], pvars[j]]));
            }
        }
        let head = e.atom(&trans_rel, &tpeer, trans_head_args.clone());
        prog.push(Rule {
            head,
            body: trans_body.clone(),
            diseqs: vec![],
        });
        let map_head = e.atom(names::MAP, &tpeer, vec![ev, t]);
        prog.push(Rule {
            head: map_head,
            body: trans_body.clone(),
            diseqs: vec![],
        });

        // The TransK atom used as a body in downstream rules.
        let trans_atom = |e: &mut Enc| -> Atom {
            let mut args = vec![t, x];
            args.extend(pvars.iter().copied());
            e.atom(&trans_rel, &tpeer, args)
        };

        // Condition creation per post place, plus Map.
        for &post in &tr.post {
            let cpeer = peer_of_place(net, post);
            let cname = e.c(&place_name(net, post));
            let node = e.g(x, cname);
            let body = vec![trans_atom(&mut e)];
            let h1 = e.atom(names::PLACES, &cpeer, vec![node, x]);
            prog.push(Rule {
                head: h1,
                body: body.clone(),
                diseqs: vec![],
            });
            let h2 = e.atom(names::MAP, &cpeer, vec![node, cname]);
            prog.push(Rule {
                head: h2,
                body,
                diseqs: vec![],
            });
        }

        // Sibling postset conditions are pairwise concurrent.
        for &pi in &tr.post {
            for &pj in &tr.post {
                if pi == pj {
                    continue;
                }
                let peer_i = peer_of_place(net, pi);
                let ci = e.c(&place_name(net, pi));
                let cj = e.c(&place_name(net, pj));
                let ni = e.g(x, ci);
                let nj = e.g(x, cj);
                let head = e.atom(names::CO, &peer_i, vec![ni, nj]);
                prog.push(Rule {
                    head,
                    body: vec![trans_atom(&mut e)],
                    diseqs: vec![],
                });
            }
        }

        // Concurrency inheritance: a produced condition is co with W iff
        // every parent condition of its producer is co with W.
        for &post in &tr.post {
            let cpeer = peer_of_place(net, post);
            let cname = e.c(&place_name(net, post));
            let node = e.g(x, cname);
            let mut body = vec![trans_atom(&mut e)];
            for i in 0..k {
                body.push(e.atom(names::CO, &pre_peers[i], vec![pvars[i], w]));
            }
            let head = e.atom(names::CO, &cpeer, vec![node, w]);
            prog.push(Rule {
                head,
                body,
                diseqs: vec![],
            });
        }
    }

    // Symmetry: Co is stored at its first argument's host; mirror facts
    // across (ordered) peer pairs, guarded by Map to place the copy at the
    // correct host.
    let peer_names: Vec<String> = (0..net.num_peers())
        .map(|i| net.peer_name(rescue_petri::PeerId(i as u32)).to_owned())
        .collect();
    {
        let u = e.v("U");
        let v = e.v("V");
        let cvar = e.v("C");
        for p in &peer_names {
            for q in &peer_names {
                let head = e.atom(names::CO, p, vec![u, v]);
                let b1 = e.atom(names::CO, q, vec![v, u]);
                let b2 = e.atom(names::MAP, p, vec![u, cvar]);
                prog.push(Rule {
                    head,
                    body: vec![b1, b2],
                    diseqs: vec![],
                });
            }
        }
    }

    if opts.include_causal {
        push_causal_rules(net, &mut e, &mut prog, &peer_names, opts.remark4_negation);
    }

    prog
}

/// The optional Lemma 1 relations: `Causal@p(x, y)` (y ≼ x, reflexive) and
/// `NotCausal@p(x, y)` (¬ y ≼ x), on event nodes, derived positively.
fn push_causal_rules(
    net: &PetriNet,
    e: &mut Enc,
    prog: &mut Program,
    peer_names: &[String],
    remark4_negation: bool,
) {
    let r = e.c(names::ROOT);
    let x = e.v("X");
    let y = e.v("Y");

    for (_, tr) in net.transitions() {
        let tpeer = net.peer_name(tr.peer).to_owned();
        let t = e.c(&tr.name);
        let k = tr.pre.len();
        let pvars: Vec<TermId> = (0..k).map(|i| e.v(&format!("U{i}"))).collect();
        let xvars: Vec<TermId> = (0..k).map(|i| e.v(&format!("X{i}"))).collect();
        let trans_rel = trans_rel_name(k);
        let trans_atom = |e: &mut Enc, event: TermId| -> Atom {
            let mut args = vec![t, event];
            args.extend(pvars.iter().copied());
            e.atom(&trans_rel, &tpeer, args)
        };
        let pre_peers: Vec<String> = tr
            .pre
            .iter()
            .map(|&pl| net.peer_name(net.place(pl).peer).to_owned())
            .collect();
        // Producer peers of each parent place (statically known), plus the
        // local peer which hosts the virtual-root facts.
        let candidate_peers = |pre: PlaceId| -> Vec<String> {
            let mut v: Vec<String> = net
                .producers_of(pre)
                .iter()
                .map(|&pt| net.peer_name(net.transition(pt).peer).to_owned())
                .collect();
            v.push(net.peer_name(tr.peer).to_owned());
            v.sort();
            v.dedup();
            v
        };

        // Reflexivity: Causal@p(X, X).
        let head = e.atom(names::CAUSAL, &tpeer, vec![x, x]);
        prog.push(Rule {
            head,
            body: vec![trans_atom(e, x)],
            diseqs: vec![],
        });

        // Ancestors through each parent condition: the producer of a
        // parent place is statically one of that place's producer
        // transitions — replicate the rule per candidate producer peer.
        for (pi, &pre) in tr.pre.iter().enumerate() {
            let mut producer_peers: Vec<String> = net
                .producers_of(pre)
                .iter()
                .map(|&pt| net.peer_name(net.transition(pt).peer).to_owned())
                .collect();
            producer_peers.sort();
            producer_peers.dedup();
            for q in &producer_peers {
                let head = e.atom(names::CAUSAL, &tpeer, vec![x, y]);
                let b1 = trans_atom(e, x);
                let b2 = e.atom(names::PLACES, &pre_peers[pi], vec![pvars[pi], xvars[pi]]);
                let b3 = e.atom(names::CAUSAL, q, vec![xvars[pi], y]);
                prog.push(Rule {
                    head,
                    body: vec![b1, b2, b3],
                    diseqs: vec![],
                });
            }
        }

        // NotCausal base for the virtual root: ¬(y ≼ r) — the paper's
        // rule notCausal@p(r, x) :- trans@p(x, …), replicated so the fact
        // is available wherever the recursion reads it.
        for p in peer_names {
            let head = e.atom(names::NOT_CAUSAL, p, vec![r, y]);
            let a = trans_atom(e, y);
            prog.push(Rule {
                head,
                body: vec![a],
                diseqs: vec![],
            });
        }

        // NotCausal recursion: Y is not below X iff Y is not below any
        // parent producer and Y ≠ X. Replicated over the cartesian product
        // of candidate producer peers for each parent.
        let mut combos: Vec<Vec<String>> = vec![Vec::new()];
        for &pre in &tr.pre {
            let cands = candidate_peers(pre);
            combos = combos
                .into_iter()
                .flat_map(|prefix| {
                    cands.iter().map(move |q| {
                        let mut v = prefix.clone();
                        v.push(q.clone());
                        v
                    })
                })
                .collect();
        }
        for combo in combos {
            let head = e.atom(names::NOT_CAUSAL, &tpeer, vec![x, y]);
            let mut body = vec![trans_atom(e, x)];
            for i in 0..k {
                body.push(e.atom(names::PLACES, &pre_peers[i], vec![pvars[i], xvars[i]]));
                body.push(e.atom(names::NOT_CAUSAL, &combo[i], vec![xvars[i], y]));
            }
            prog.push(Rule {
                head,
                body,
                diseqs: vec![rescue_datalog::Diseq { lhs: x, rhs: y }],
            });
        }

        // Remark 4: "the computation of one could have been saved by using
        // negation" — the event-domain relation feeding the stratified
        // complement below.
        if remark4_negation {
            let head = e.atom(names::EVENT_AT, &tpeer, vec![x]);
            prog.push(Rule {
                head,
                body: vec![trans_atom(e, x)],
                diseqs: vec![],
            });
        }
    }

    // NotCausalNeg@p(X, Y) :- EventAt@p(X), EventAt@q(Y), not Causal@p(X, Y).
    // Stratified: Causal is complete before this stratum evaluates.
    if remark4_negation {
        for p in peer_names {
            for q in peer_names {
                let b1 = e.atom(names::EVENT_AT, p, vec![x]);
                let b2 = e.atom(names::EVENT_AT, q, vec![y]);
                let b3 = e.atom(names::CAUSAL, p, vec![x, y]).negate();
                let head = e.atom(names::NOT_CAUSAL_NEG, p, vec![x, y]);
                prog.push(Rule {
                    head,
                    body: vec![b1, b2, b3],
                    diseqs: vec![],
                });
            }
        }
    }
}

/// The `PetriNet1`/`PetriNet2` base relations: each peer's own description
/// of its transitions — `PetriNet2@p(t, α(t), c, c′)` for a transition `t`
/// with parent places `c`, `c′` (§4.2).
pub fn petri_facts(net: &PetriNet, store: &mut TermStore) -> Program {
    let mut e = Enc { store };
    let mut prog = Program::new();
    for (_, tr) in net.transitions() {
        let peer = net.peer_name(tr.peer).to_owned();
        let t = e.c(&tr.name);
        let a = e.c(&tr.alarm);
        let mut args = vec![t, a];
        for &p in &tr.pre {
            let c = e.c(&net.place(p).name.clone());
            args.push(c);
        }
        let rel = petri_rel_name(tr.pre.len());
        let head = e.atom(&rel, &peer, args);
        prog.push(Rule::fact(head));
    }
    prog
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescue_datalog::{seminaive, Database, EvalBudget};
    use rescue_petri::{figure1, UnfoldLimits, Unfolding};
    use std::collections::BTreeSet;

    /// Evaluate the encoding bottom-up with a depth bound and collect the
    /// derived event terms.
    fn datalog_events(net: &PetriNet, depth: u32) -> (BTreeSet<String>, BTreeSet<String>) {
        let mut store = TermStore::new();
        let prog = unfolding_program(net, &mut store, &EncodeOptions::default());
        prog.validate(&store).unwrap();
        let mut db = Database::new();
        // Term depths alternate f/g layers: a root condition has depth 2,
        // an event of causal depth d has depth 2d+1, and its produced
        // conditions 2d+2. Bounding at 2·depth+2 therefore keeps exactly
        // the events of causal depth ≤ depth and their conditions.
        let budget = EvalBudget {
            max_term_depth: Some(2 * depth + 2),
            ..Default::default()
        };
        seminaive(&prog, &mut store, &mut db, &budget).unwrap();
        let mut events = BTreeSet::new();
        let mut conds = BTreeSet::new();
        for (pred, rel) in db.iter() {
            let name = store.sym_str(pred.name);
            if names::is_trans(name) {
                for row in rel.rows() {
                    events.insert(store.display(row[1]));
                }
            }
            if name == names::PLACES {
                for row in rel.rows() {
                    conds.insert(store.display(row[0]));
                }
            }
        }
        (events, conds)
    }

    /// The reference: events/conditions of the depth-bounded unfolding.
    fn unfolding_events(net: &PetriNet, depth: u32) -> (BTreeSet<String>, BTreeSet<String>) {
        let u = Unfolding::build(net, &UnfoldLimits::depth(depth));
        assert!(!u.is_truncated());
        let events = u.events().map(|(id, _)| u.event_term(net, id)).collect();
        let conds = u.conditions().map(|(id, _)| u.cond_term(net, id)).collect();
        (events, conds)
    }

    #[test]
    fn theorem2_on_figure1() {
        let net = figure1();
        for depth in [1, 2, 3] {
            let (de, dc) = datalog_events(&net, depth);
            let (ue, uc) = unfolding_events(&net, depth);
            assert_eq!(de, ue, "event sets diverge at depth {depth}");
            assert_eq!(dc, uc, "condition sets diverge at depth {depth}");
        }
    }

    #[test]
    fn theorem2_on_producer_consumer() {
        let net = rescue_petri::producer_consumer();
        for depth in [1, 2, 3] {
            let (de, _) = datalog_events(&net, depth);
            let (ue, _) = unfolding_events(&net, depth);
            assert_eq!(de, ue, "event sets diverge at depth {depth}");
        }
    }

    #[test]
    fn theorem2_on_random_nets() {
        use rescue_petri::{random_net, NetConfig};
        for seed in 0..5 {
            let net = random_net(&NetConfig {
                seed,
                peers: 2,
                links: 1,
                states_per_peer: 2,
                extra_transitions: 0,
                alphabet: 2,
                ..Default::default()
            });
            let (de, _) = datalog_events(&net, 3);
            let (ue, _) = unfolding_events(&net, 3);
            assert_eq!(de, ue, "event sets diverge on seed {seed}");
        }
    }

    #[test]
    fn petri_facts_describe_transitions() {
        let net = figure1();
        let mut store = TermStore::new();
        let prog = petri_facts(&net, &mut store);
        assert_eq!(prog.len(), 5);
        // Transition i has two parents -> PetriNet2; ii has one -> PetriNet1.
        let names_of: Vec<String> = prog
            .rules
            .iter()
            .map(|r| store.sym_str(r.head.pred.name).to_owned())
            .collect();
        assert!(names_of.contains(&"PetriNet1".to_owned()));
        assert!(names_of.contains(&"PetriNet2".to_owned()));
    }

    #[test]
    fn remark4_negation_variant_equals_positive_not_causal() {
        // The stratified-negation definition of NotCausal (Remark 4) must
        // coincide with the paper's positive one, pair for pair.
        use rescue_datalog::seminaive_stratified;
        let net = figure1();
        let mut store = TermStore::new();
        let prog = unfolding_program(
            &net,
            &mut store,
            &EncodeOptions {
                include_causal: true,
                remark4_negation: true,
            },
        );
        assert!(prog.has_negation());
        prog.validate(&store).unwrap();
        let mut db = Database::new();
        let budget = EvalBudget {
            max_term_depth: Some(7),
            ..Default::default()
        };
        seminaive_stratified(&prog, &mut store, &mut db, &budget, &Default::default()).unwrap();
        let mut positive = BTreeSet::new();
        let mut negative = BTreeSet::new();
        for (pred, rel) in db.iter() {
            let name = store.sym_str(pred.name);
            if name == names::NOT_CAUSAL {
                for row in rel.rows() {
                    positive.insert((store.display(row[0]), store.display(row[1])));
                }
            } else if name == names::NOT_CAUSAL_NEG {
                for row in rel.rows() {
                    negative.insert((store.display(row[0]), store.display(row[1])));
                }
            }
        }
        // The positive variant includes pairs with the virtual root r; the
        // negation variant ranges over event nodes only.
        let positive_events: BTreeSet<_> = positive.into_iter().filter(|(a, _)| a != "r").collect();
        assert_eq!(positive_events, negative);
        assert!(!negative.is_empty());
    }

    #[test]
    fn lemma1_not_causal_agrees_with_unfolding() {
        let net = figure1();
        let mut store = TermStore::new();
        let prog = unfolding_program(
            &net,
            &mut store,
            &EncodeOptions {
                include_causal: true,
                ..Default::default()
            },
        );
        prog.validate(&store).unwrap();
        let mut db = Database::new();
        let budget = EvalBudget {
            max_term_depth: Some(7), // events up to causal depth 3
            ..Default::default()
        };
        seminaive(&prog, &mut store, &mut db, &budget).unwrap();

        let u = Unfolding::build(&net, &UnfoldLimits::depth(3));
        // Collect NotCausal(x, y) pairs (on event terms).
        let mut not_causal = BTreeSet::new();
        for (pred, rel) in db.iter() {
            if store.sym_str(pred.name) == names::NOT_CAUSAL {
                for row in rel.rows() {
                    not_causal.insert((store.display(row[0]), store.display(row[1])));
                }
            }
        }
        // For every pair of unfolding events: NotCausal(x, y) ⇔ ¬(y ≼ x).
        for (e1, _) in u.events() {
            for (e2, _) in u.events() {
                let t1 = u.event_term(&net, e1);
                let t2 = u.event_term(&net, e2);
                let expected = !u.causally_le(e2, e1);
                let got = not_causal.contains(&(t1.clone(), t2.clone()));
                assert_eq!(
                    got, expected,
                    "NotCausal({t1}, {t2}) mismatch (expected {expected})"
                );
            }
        }
    }
}
