//! Peer-local construction of the dQSQ rewriting (paper §3.2).
//!
//! "An important point is that in dQSQ the rewriting is performed locally
//! at each peer without any global knowledge." This module realizes that
//! claim as a message protocol that drives `rescue-qsq`'s body walk
//! ([`rescue_qsq::Cursor`]) — the same walk the global rewriter drives:
//!
//! * an [`RwMsg::AdornReq`] asks the peer owning a relation to start the
//!   walk of *its own* rules for a given binding pattern;
//! * a peer steps the cursor over the atoms it owns, since only the owner
//!   knows whether its relation is intensional; at an atom owned
//!   elsewhere it ships the cursor — the **remainder of the rule**, the
//!   paper's rule (†) — as an [`RwMsg::Delegate`] to that peer, which
//!   continues the walk.
//!
//! Each peer uses only: its own rules, the delegated context, and the
//! naming scheme of `rescue-qsq`. It dedups the sups it defines itself;
//! the cursor carries the canonical name downstream. The test suite checks
//! that the union of all locally generated rules is **exactly** the
//! program produced by the global rewriter, rule for rule.

use crate::dist::DistError;
use crate::dqsq::DqsqError;
use crate::export::{
    export_atom, export_rule, import_atom, import_rule, ExportedAtom, ExportedRule,
};
use rescue_datalog::{Atom, Diseq, ExportedTerm, Peer, Program, Rule, Sym, TermStore};
use rescue_net::sim::{SimConfig, SimNet};
use rescue_net::{NetStats, NodeId, Outbox, PeerLogic};
use rescue_qsq::{Adornment, Cursor, Emitted, RewriteError};
use rustc_hash::{FxHashMap, FxHashSet};

/// The rewriting-protocol messages.
#[derive(Clone, PartialEq, Debug)]
pub enum RwMsg {
    /// Rewrite your rules for `name` under `adornment` (a `bf`-string).
    AdornReq { name: String, adornment: String },
    /// Continue rewriting a rule whose remainder starts at a relation you
    /// own.
    Delegate(Box<DelegateCtx>),
}

/// Everything a peer needs to continue rewriting a rule mid-body: a
/// [`Cursor`] in store-independent form.
#[derive(Clone, PartialEq, Debug)]
pub struct DelegateCtx {
    /// Global id of the rule being rewritten (carried by every rule; peers
    /// need no global knowledge beyond their own rules' ids).
    pub rule_idx: usize,
    /// The head adornment label of the rewriting pass.
    pub label: String,
    /// 1-based position of the first remainder atom.
    pub pos: usize,
    /// The supplementary atom produced so far (`sup_{i,pos-1}` with its
    /// variable arguments).
    pub prev_sup: ExportedAtom,
    /// Names of the variables bound so far, in first-binding order.
    pub bound: Vec<String>,
    /// Body atoms at positions `pos..=n`.
    pub remainder: Vec<ExportedAtom>,
    /// Disequality constraints not yet checked.
    pub pending_diseqs: Vec<(ExportedTerm, ExportedTerm)>,
    /// The original rule head.
    pub head: ExportedAtom,
}

impl DelegateCtx {
    fn export(c: &Cursor, store: &TermStore) -> Self {
        let pattern = |d: &Diseq| (store.export_pattern(d.lhs), store.export_pattern(d.rhs));
        DelegateCtx {
            rule_idx: c.rule_idx,
            label: c.adornment.label(),
            pos: c.pos,
            prev_sup: export_atom(&c.prev_sup, store),
            bound: c
                .bound
                .iter()
                .map(|&v| store.sym_str(v).to_owned())
                .collect(),
            remainder: c.rest.iter().map(|a| export_atom(a, store)).collect(),
            pending_diseqs: c.pending.iter().map(pattern).collect(),
            head: export_atom(&c.head, store),
        }
    }

    fn import(&self, store: &mut TermStore) -> Cursor {
        Cursor {
            rule_idx: self.rule_idx,
            adornment: Adornment::parse(&self.label).expect("valid adornment label"),
            pos: self.pos,
            bound: self.bound.iter().map(|n| store.sym(n)).collect(),
            pending: (self.pending_diseqs.iter())
                .map(|(l, r)| Diseq {
                    lhs: store.import(l),
                    rhs: store.import(r),
                })
                .collect(),
            prev_sup: import_atom(&self.prev_sup, store),
            head: import_atom(&self.head, store),
            rest: self
                .remainder
                .iter()
                .map(|a| import_atom(a, store))
                .collect(),
        }
    }
}

/// Wire-size estimate for [`RwMsg`].
pub fn rwmsg_size(msg: &RwMsg) -> usize {
    match msg {
        RwMsg::AdornReq { name, adornment } => 1 + name.len() + adornment.len(),
        RwMsg::Delegate(ctx) => {
            1 + ctx.label.len()
                + ctx.prev_sup.size_estimate()
                + ctx.bound.iter().map(String::len).sum::<usize>()
                + ctx
                    .remainder
                    .iter()
                    .map(|a| a.size_estimate())
                    .sum::<usize>()
                + ctx
                    .pending_diseqs
                    .iter()
                    .map(|(l, r)| l.size_estimate() + r.size_estimate())
                    .sum::<usize>()
                + ctx.head.size_estimate()
        }
    }
}

/// One peer of the rewriting protocol.
pub struct RwPeer {
    peer: Peer,
    directory: FxHashMap<String, NodeId>,
    store: TermStore,
    /// This site's rules, tagged with their global rule ids, in id order.
    rules: Vec<(usize, Rule)>,
    /// Names of relations defined by some local rule (local intensional
    /// knowledge — all a peer ever needs).
    local_idb: FxHashSet<Sym>,
    seen: FxHashSet<(String, String)>,
    /// The rules generated here, with the sups this peer merged. Under
    /// FIFO delivery the chains of one adornment request arrive in global
    /// rule order, which makes the kept representative the same one the
    /// global rewriter keeps.
    out: Emitted,
    /// The query's adornment request, on the peer that owns it.
    initial: Option<RwMsg>,
}

impl RwPeer {
    /// Handle an adornment request for a relation this peer owns.
    fn handle_adorn(&mut self, name: &str, adornment: &str, out: &mut Outbox<RwMsg>) {
        if !self.seen.insert((name.to_owned(), adornment.to_owned())) {
            return;
        }
        let ad = Adornment::parse(adornment).expect("valid adornment label");
        for k in 0..self.rules.len() {
            let (i, rule) = &self.rules[k];
            if self.store.sym_str(rule.head.pred.name) != name {
                continue;
            }
            let cursor = Cursor::start(*i, rule, ad, self.peer, &mut self.store, &mut self.out);
            self.advance(cursor, out);
        }
    }

    /// Step the cursor over local atoms, delegate at the first remote one,
    /// finish when the body is exhausted.
    fn advance(&mut self, mut cursor: Cursor, out: &mut Outbox<RwMsg>) {
        let st = &mut self.store;
        while let Some(atom) = cursor.next_atom() {
            if atom.pred.peer != self.peer {
                let node = self.directory[st.sym_str(atom.pred.peer.0)];
                let ctx = DelegateCtx::export(&cursor, st);
                out.send(node, RwMsg::Delegate(Box::new(ctx)));
                return;
            }
            // Only the owner knows: is this relation defined by rules here?
            let idb = self.local_idb.contains(&atom.pred.name);
            if let Some(callee) = cursor.step(idb, self.peer, st, &mut self.out) {
                // Rewrite our own rules for this sub-request (self-message
                // keeps the traversal iterative and observable).
                let req = RwMsg::AdornReq {
                    name: st.sym_str(callee.base.name).to_owned(),
                    adornment: callee.adornment.label(),
                };
                out.send(out.me(), req);
            }
        }
        cursor.finish(st, &mut self.out);
    }
}

impl PeerLogic<RwMsg> for RwPeer {
    fn on_start(&mut self, out: &mut Outbox<RwMsg>) {
        if let Some(req) = self.initial.take() {
            out.send(out.me(), req);
        }
    }

    fn on_message(&mut self, _from: NodeId, msg: RwMsg, out: &mut Outbox<RwMsg>) {
        match msg {
            RwMsg::AdornReq { name, adornment } => self.handle_adorn(&name, &adornment, out),
            RwMsg::Delegate(ctx) => {
                let cursor = ctx.import(&mut self.store);
                self.advance(cursor, out);
            }
        }
    }
}

/// Run the peer-local rewriting protocol for `query` over `program`
/// (extensional facts must already be split out, as for
/// [`rescue_qsq::rewrite()`]). Returns the union of all locally generated
/// rules and the network statistics of the construction itself. A program
/// with negation is refused, as the global rewriter refuses it: the walk
/// has no negated step, and the rules a peer ships carry no negation.
pub fn protocol_rewrite(
    program: &Program,
    query: &Atom,
    store: &TermStore,
    sim: SimConfig,
) -> Result<(Vec<ExportedRule>, NetStats), DqsqError> {
    if program.has_negation() {
        return Err(RewriteError::NegationUnsupported.into());
    }
    // Peer directory over every peer the program mentions plus the query's.
    let mut names: Vec<String> = (program.peers().into_iter())
        .chain([query.pred.peer])
        .map(|p| store.sym_str(p.0).to_owned())
        .collect();
    names.sort();
    names.dedup();
    let directory: FxHashMap<String, NodeId> = names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.clone(), NodeId(i)))
        .collect();

    let qpeer = store.sym_str(query.pred.peer.0);
    let request = RwMsg::AdornReq {
        name: store.sym_str(query.pred.name).to_owned(),
        adornment: Adornment::of_query(store, &query.args).label(),
    };
    let peers: Vec<RwPeer> = names
        .iter()
        .map(|n| {
            let mut ps = TermStore::new();
            let rules: Vec<(usize, Rule)> = (program.rules.iter().enumerate())
                .filter(|(_, r)| store.sym_str(r.site().0) == n)
                .map(|(i, r)| (i, import_rule(&export_rule(r, store), &mut ps)))
                .collect();
            RwPeer {
                peer: Peer(ps.sym(n)),
                directory: directory.clone(),
                store: ps,
                local_idb: rules.iter().map(|(_, r)| r.head.pred.name).collect(),
                rules,
                seen: FxHashSet::default(),
                out: Emitted::default(),
                initial: (n == qpeer).then(|| request.clone()),
            }
        })
        .collect();

    let mut net = SimNet::new(peers, sim, rwmsg_size);
    let stats = net.run().map_err(DistError::from)?;
    let mut all = Vec::new();
    for p in net.into_peers() {
        all.extend(p.out.program.rules.iter().map(|r| export_rule(r, &p.store)));
    }
    Ok((all, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::{canonical_rules, export_program};
    use rescue_datalog::{parse_atom, parse_program};
    use rescue_qsq::split_edb_facts;

    fn assert_protocol_matches_global(src: &str, query: &str) {
        let mut st = TermStore::new();
        let prog = parse_program(src, &mut st).unwrap();
        let q = parse_atom(query, &mut st).unwrap();
        let (rules, _) = split_edb_facts(&prog);

        let global = rescue_qsq::rewrite(&rules, &q, &mut st).unwrap();
        let expected = canonical_rules(export_program(&global.program, &st));

        let (local, stats) = protocol_rewrite(&rules, &q, &st, SimConfig::default()).unwrap();
        let got = canonical_rules(local);

        assert_eq!(
            got.len(),
            expected.len(),
            "rule counts differ (protocol={}, global={})",
            got.len(),
            expected.len()
        );
        assert_eq!(got, expected, "protocol rewriting diverged from global");
        assert!(stats.messages > 0);
    }

    #[test]
    fn figure5_from_local_knowledge() {
        assert_protocol_matches_global(
            r#"
            R@r(X, Y) :- A@r(X, Y).
            R@r(X, Y) :- S@s(X, Z), T@t(Z, Y).
            S@s(X, Y) :- R@r(X, Y), B@s(Y, Z).
            T@t(X, Y) :- C@t(X, Y).
            A@r(a, b). B@s(b, c). C@t(b, d).
        "#,
            r#"R@r("1", Y)"#,
        );
    }

    #[test]
    fn protocol_handles_diseqs_and_functions() {
        assert_protocol_matches_global(
            r#"
            P@a(f(X, Y)) :- E@a(X, Y), Q@b(Y, Z), X != Z.
            Q@b(X, Y) :- F@b(X, Y).
            Q@b(X, Y) :- F@b(X, W), P@a(f(W, Y)).
            E@a(e1, e2). F@b(f1, f2).
        "#,
            "P@a(f(u, V))",
        );
    }

    #[test]
    fn protocol_on_single_peer_program() {
        assert_protocol_matches_global(
            r#"
            Path@p(X, Y) :- Edge@p(X, Y).
            Path@p(X, Y) :- Edge@p(X, Z), Path@p(Z, Y).
            Edge@p(a, b).
        "#,
            "Path@p(a, Y)",
        );
    }

    #[test]
    fn protocol_with_idb_facts() {
        assert_protocol_matches_global(
            r#"
            R@p(a, b).
            R@p(X, Y) :- R@p(Y, X), Flip@q(X).
            Flip@q(X) :- G@q(X).
            G@q(g).
        "#,
            "R@p(a, Y)",
        );
    }

    #[test]
    fn negated_programs_are_refused() {
        let mut st = TermStore::new();
        let prog = parse_program(
            r#"
            Reach@b(X) :- Edge@b(X).
            Un@a(X) :- Node@a(X), not Reach@b(X).
        "#,
            &mut st,
        )
        .unwrap();
        let q = parse_atom("Un@a(X)", &mut st).unwrap();
        assert_eq!(
            protocol_rewrite(&prog, &q, &st, SimConfig::default()).err(),
            Some(DqsqError::Rewrite(RewriteError::NegationUnsupported))
        );
    }
}
