//! The supervisor encoding: diagnosis as a dDatalog query at a supervisor
//! peer `p0`, generated for the general problem of §4.4 — "as soon as the
//! problem can be stated in Datalog terms, dQSQ can be applied to optimize
//! the evaluation" — of which the alarm sequence of §4.2 is one instance.
//!
//! The problem is an [`ExtendedSpec`]:
//!
//! * each peer's observation is an [`Automaton`] over alarm symbols (a
//!   plain sequence is the chain automaton; patterns like `α.β*.α` are
//!   arbitrary NFAs; constraints are complements of pattern automata);
//! * transitions whose alarms are **hidden** may occur at any point
//!   without moving any automaton;
//! * an explanation has at most `max_events` events.
//!
//! [`extended_program`] is the one generator. On top of the §4.1 unfolding
//! rules and the net's facts it emits:
//!
//! * `AlarmSeq@p0(q, a, p, q′)` — peer `p`'s automaton moves from state
//!   `q` to `q′` on alarm `a`; states are constants `st_{p}_{q}`;
//! * `ConfigPrefixes@p0(id, id′, x, q₁…q_k, [n,] l)` — explanation
//!   prefixes: `id` (a Skolem `h`-term) leaves the automata in states
//!   `(q₁…q_k)` and was obtained from `id′` by appending event `x`, which
//!   explains an alarm of peer `l` (`l = r` for the empty explanation
//!   `h(r)` and after a hidden event). The k state columns are the paper's
//!   multi-peer index; `n` is the fuel column (below);
//! * `TransInConf@p0(id, x)` — event `x` participates in prefix `id`
//!   (read by `Diag` and the online session only);
//! * `Cut@p0(id, m, f)` — condition `m` is maximal in prefix `id`, the cut
//!   the dedicated diagnoser keeps: the flag `f` is `last` when `id`'s last
//!   event produced `m` (and for the roots at `h(r)`), `old` otherwise. It
//!   is a function of `(id, m)`, so the relation has exactly the rows it
//!   would have without it;
//! * `Gate<k>@p0(l, p, f₀…f_(k-1))` — a static table per preset arity
//!   `k` (below);
//! * `Diag@p0(id, x)` — the answer relation: `id` ranges over full
//!   explanations (every automaton in a final state), `x` over their
//!   events. A peer with one final state has it pinned as a constant;
//!   any other peer's state is joined with `AlarmFinal@p0(p, q)`.
//!
//! The extension rule follows the paper with one repair and three
//! refinements (see DESIGN.md §5b). The repair: the transition constant
//! `t` is carried through `Trans<k>` so that the alarm symbol constrains
//! *which* event is requested (making the dQSQ-materialized event set
//! coincide with the dedicated algorithm's, Theorem 4). The rule, like
//! every rule that reads `Trans<k>@p`, is generated only for the preset
//! arities `k` of peer `p`'s transitions. Where the paper finds each
//! parent's producer in `transInConf` and then checks that the prefix did
//! not consume the parent, the rule reads the parent from the prefix's
//! `Cut`, which holds exactly the conditions that pair of tests admits. An
//! observable extension moves one automaton; a hidden one
//! (`HiddenAlarm@p0(a)`) moves none.
//!
//! **Fuel**, the paper's termination "gadget": where automata loop or
//! transitions are hidden, the observation no longer bounds the
//! explanation length. Prefixes then carry a fuel constant `fuel_n`
//! counting their events, every extension steps it along
//! `FuelStep@p0(fuel_n, fuel_{n+1})` for `n < max_events`, and the program
//! stays finite under bottom-up *and* (d)QSQ evaluation. Raising the
//! budget only adds `FuelStep` facts. When fuel cannot bind — nothing
//! hidden, every automaton acyclic, and `max_events` at least the sum of
//! their longest paths — the column is omitted.
//!
//! The last refinement is a partial-order reduction. Without it, every
//! order in which concurrent alarms of different peers are consumed gets
//! its own explanation id. Peers are ranked in `spec.patterns` order, with
//! `r` lowest. An observable extension of `id` by an alarm of peer `p`
//! ranked below `id`'s last peer `l` is admitted only if `id`'s last event
//! produced one of the new event's parent conditions: the rule reads each
//! parent's flag from `Cut` and joins `Gate<k>`, which
//! holds every `(l, p, f₀…)` with `rank(l) ≤ rank(p)` or some `fᵢ = last`.
//! Hidden extensions are not gated and set `l = r`, so the next observable
//! step is always admitted. The greedy linearization of a configuration
//! (always take next the enabled hidden event or, failing one, the next
//! alarm of the lowest-ranked peer that can go) passes every gate, so
//! every configuration keeps an id; the requests sent to the net peers do
//! not depend on which prefix asks, so Theorem 4 is untouched.

use crate::alarm::AlarmSeq;
use crate::direct::Diagnosis;
use crate::encode::{
    names, petri_facts, petri_rel_name, trans_rel_name, unfolding_program, Enc, EncodeOptions,
};
use crate::supervisor::{sup_names, DiagnosisProgram};
use rescue_datalog::{Diseq, Program, Rule, TermId, TermStore};
use rescue_petri::{PeerId, PetriNet};
use rustc_hash::FxHashSet;

/// A finite automaton over alarm symbols (NFAs welcome — the Datalog
/// encoding and the reference searcher both handle nondeterminism).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Automaton {
    pub states: usize,
    pub initial: usize,
    pub finals: Vec<usize>,
    /// `(from, symbol, to)` triples.
    pub transitions: Vec<(usize, String, usize)>,
}

impl Automaton {
    /// The chain automaton accepting exactly `word`.
    pub fn chain(word: &[&str]) -> Self {
        Automaton {
            states: word.len() + 1,
            initial: 0,
            finals: vec![word.len()],
            transitions: word
                .iter()
                .enumerate()
                .map(|(i, a)| (i, a.to_string(), i + 1))
                .collect(),
        }
    }

    /// Is the automaton deterministic and total over `alphabet`?
    pub fn is_complete_dfa(&self, alphabet: &[&str]) -> bool {
        for q in 0..self.states {
            for a in alphabet {
                let n = self
                    .transitions
                    .iter()
                    .filter(|(f, s, _)| *f == q && s == a)
                    .count();
                if n != 1 {
                    return false;
                }
            }
        }
        true
    }

    /// Make the automaton total over `alphabet` by adding a sink state
    /// (identity on already-total DFAs). Requires determinism.
    pub fn complete(&self, alphabet: &[&str]) -> Self {
        let mut out = self.clone();
        let sink = out.states;
        let mut used_sink = false;
        for q in 0..out.states {
            for a in alphabet {
                let n = out
                    .transitions
                    .iter()
                    .filter(|(f, s, _)| *f == q && s == *a)
                    .count();
                assert!(n <= 1, "complete() requires a deterministic automaton");
                if n == 0 {
                    out.transitions.push((q, a.to_string(), sink));
                    used_sink = true;
                }
            }
        }
        if used_sink {
            for a in alphabet {
                out.transitions.push((sink, a.to_string(), sink));
            }
            out.states += 1;
        }
        out
    }

    /// Complement of a complete DFA: swap final and non-final states.
    /// Used for the paper's "constraints": explanations whose observation
    /// avoids a forbidden pattern.
    pub fn complement(&self, alphabet: &[&str]) -> Self {
        assert!(
            self.is_complete_dfa(alphabet),
            "complement requires a complete DFA; call complete() first"
        );
        let mut out = self.clone();
        out.finals = (0..out.states)
            .filter(|q| !self.finals.contains(q))
            .collect();
        out
    }

    /// Does the automaton accept `word`? (NFA subset construction.)
    pub fn accepts(&self, word: &[&str]) -> bool {
        let mut cur: FxHashSet<usize> = [self.initial].into_iter().collect();
        for a in word {
            let mut next = FxHashSet::default();
            for &(f, ref s, t) in &self.transitions {
                if cur.contains(&f) && s == a {
                    next.insert(t);
                }
            }
            cur = next;
            if cur.is_empty() {
                return false;
            }
        }
        cur.iter().any(|q| self.finals.contains(q))
    }

    /// The number of transitions on the automaton's longest path, or
    /// `None` if it has a cycle.
    fn longest_path(&self) -> Option<usize> {
        // Kahn's algorithm, relaxing path lengths in topological order.
        let mut indegree = vec![0usize; self.states];
        for &(_, _, to) in &self.transitions {
            indegree[to] += 1;
        }
        let mut ready: Vec<usize> = (0..self.states).filter(|&q| indegree[q] == 0).collect();
        let mut length = vec![0; self.states];
        let mut done = 0;
        while let Some(q) = ready.pop() {
            done += 1;
            for &(from, _, to) in &self.transitions {
                if from == q {
                    length[to] = length[to].max(length[q] + 1);
                    indegree[to] -= 1;
                    if indegree[to] == 0 {
                        ready.push(to);
                    }
                }
            }
        }
        (done == self.states).then(|| length.into_iter().max().unwrap_or(0))
    }
}

/// The generalized diagnosis problem.
#[derive(Clone, Debug)]
pub struct ExtendedSpec {
    /// Per-peer observation automata.
    pub patterns: Vec<(String, Automaton)>,
    /// Alarm symbols the peers do not report: transitions emitting them
    /// may occur silently in an explanation.
    pub hidden: Vec<String>,
    /// Maximum explanation size (the fuel bound — the §4.4 termination
    /// gadget).
    pub max_events: usize,
}

impl ExtendedSpec {
    /// The plain diagnosis problem for `alarms` (chain automata, no hidden
    /// transitions, fuel = |A|).
    pub fn from_sequence(alarms: &AlarmSeq) -> Self {
        ExtendedSpec {
            patterns: alarms
                .peers()
                .iter()
                .map(|p| (p.to_string(), Automaton::chain(&alarms.subsequence(p))))
                .collect(),
            hidden: Vec::new(),
            max_events: alarms.len(),
        }
    }

    pub fn with_hidden(mut self, hidden: &[&str], extra_fuel: usize) -> Self {
        self.hidden = hidden.iter().map(|s| s.to_string()).collect();
        self.max_events += extra_fuel;
        self
    }

    /// Does the empty explanation satisfy the spec (every automaton's
    /// initial state final)? The `Diag(z, x)` answer relation pairs an
    /// explanation id with its *events*, so — exactly like the paper's
    /// `q(z, x)` — it cannot surface the empty configuration; extractions
    /// must add ∅ when this returns true.
    pub fn accepts_empty(&self) -> bool {
        self.patterns
            .iter()
            .all(|(_, a)| a.finals.contains(&a.initial))
    }

    /// Can the `max_events` bound cut an explanation short? Not when
    /// nothing is hidden and the automata are acyclic with longest paths
    /// that fit in it together: every event then moves an automaton one
    /// step along a path.
    fn fuel_binds(&self) -> bool {
        let longest: Option<usize> = self.patterns.iter().map(|(_, a)| a.longest_path()).sum();
        !self.hidden.is_empty() || longest.is_none_or(|n| n > self.max_events)
    }
}

/// Complete a Datalog-extracted diagnosis with the empty explanation when
/// the spec accepts it (see [`ExtendedSpec::accepts_empty`]).
pub fn complete_with_empty(mut d: Diagnosis, spec: &ExtendedSpec) -> Diagnosis {
    if spec.accepts_empty() && !d.configurations.contains(&Vec::new()) {
        d.configurations.insert(0, Vec::new());
    }
    d
}

/// Generate the supervisor program for `spec`, with the supervisor at peer
/// `supervisor` (must not collide with a net peer), and its query
/// `Diag@p0(Z, X)`.
pub fn extended_program(
    net: &PetriNet,
    spec: &ExtendedSpec,
    supervisor: &str,
    store: &mut TermStore,
) -> DiagnosisProgram {
    let program = supervisor_program(net, spec, supervisor, store, true);
    let mut e = Enc { store };
    let z = e.v("Z");
    let x = e.v("X");
    let query = e.atom(sup_names::DIAG, supervisor, vec![z, x]);
    DiagnosisProgram {
        program,
        query,
        supervisor: supervisor.to_owned(),
    }
}

/// The program of [`extended_program`]; without `diag`, minus the `Diag`
/// rule and the `AlarmFinal` facts only it reads.
pub(crate) fn supervisor_program(
    net: &PetriNet,
    spec: &ExtendedSpec,
    p0: &str,
    store: &mut TermStore,
    diag: bool,
) -> Program {
    assert!(
        net.peer_by_name(p0).is_none(),
        "supervisor peer name collides with a net peer"
    );
    let mut prog = unfolding_program(net, store, &EncodeOptions::default());
    for rule in petri_facts(net, store).rules {
        prog.push(rule);
    }
    let k = spec.patterns.len();

    // The automata: their transitions (none on a hidden symbol, which no
    // peer reports), initial states, and per peer the one final state that
    // `Diag` pins or the `AlarmFinal` facts it joins.
    let mut initial = Vec::with_capacity(k);
    let mut pinned = Vec::with_capacity(k);
    for (pj, aut) in &spec.patterns {
        for (from, symbol, to) in &aut.transitions {
            if !spec.hidden.contains(symbol) {
                prog.push(alarm_fact(store, p0, pj, *from, symbol, *to));
            }
        }
        initial.push(state_constant(store, pj, aut.initial));
        let single = match aut.finals[..] {
            [q] => Some(state_constant(store, pj, q)),
            _ => None,
        };
        if diag && single.is_none() {
            for &q in &aut.finals {
                let fq = state_constant(store, pj, q);
                let mut e = Enc { store };
                let pc = e.c(pj);
                let head = e.atom(sup_names::ALARM_FINAL, p0, vec![pc, fq]);
                prog.push(Rule::fact(head));
            }
        }
        pinned.push(single);
    }

    let mut e = Enc { store };
    let mut fuel0 = None;
    if spec.fuel_binds() {
        let fuels: Vec<TermId> = (0..=spec.max_events)
            .map(|n| e.c(&format!("fuel_{n}")))
            .collect();
        for step in fuels.windows(2) {
            let head = e.atom(sup_names::FUEL_STEP, p0, step.to_vec());
            prog.push(Rule::fact(head));
        }
        fuel0 = Some(fuels[0]);
    }
    for symbol in &spec.hidden {
        let a = e.c(symbol);
        let head = e.atom(sup_names::HIDDEN_ALARM, p0, vec![a]);
        prog.push(Rule::fact(head));
    }

    // The empty explanation `h(r)`: initial states, no fuel used.
    let r = e.c(names::ROOT);
    let hr = e.store.app("h", vec![r]);
    let cp = |e: &mut Enc, front: [TermId; 3], states: &[TermId], n: Option<TermId>, l| {
        let mut args = front.to_vec();
        args.extend(states.iter().copied().chain(n));
        args.push(l);
        e.atom(sup_names::CONFIG_PREFIXES, p0, args)
    };
    let head = cp(&mut e, [hr, hr, r], &initial, fuel0, r);
    prog.push(Rule::fact(head));

    let ivars = vars(&mut e, "I", k);
    let [z, w, x, y, l, m, f, t] = ["Z", "W", "X", "Y", "L", "M", "F", "T"].map(|v| e.v(v));
    let [last, old] = [sup_names::LAST, sup_names::OLD].map(|c| e.c(c));
    // The fuel column of a prefix and of its extension.
    let n = fuel0.map(|_| e.v("N"));
    let n2 = fuel0.map(|_| e.v("N2"));

    // TransInConf: z's events are its last one and those it inherits from
    // w. `h(r)` has none: its event column holds the root marker r.
    let b = cp(&mut e, [z, w, x], &ivars, n, l);
    let head = e.atom(sup_names::TRANS_IN_CONF, p0, vec![z, x]);
    prog.push(Rule {
        head,
        body: vec![b],
        diseqs: vec![Diseq { lhs: x, rhs: r }],
    });
    let b1 = cp(&mut e, [z, w, y], &ivars, n, l);
    let b2 = e.atom(sup_names::TRANS_IN_CONF, p0, vec![w, x]);
    let head = e.atom(sup_names::TRANS_IN_CONF, p0, vec![z, x]);
    prog.push(Rule {
        head,
        body: vec![b1, b2],
        diseqs: vec![],
    });

    // Cut: z's last event y produced m (at h(r), y = r and the
    // `Places@q(g(r, c), r)` facts give the roots) ...
    let net_peers: Vec<(PeerId, &str)> = (0..net.num_peers() as u32)
        .map(|i| (PeerId(i), net.peer_name(PeerId(i))))
        .collect();
    for &(_, q) in &net_peers {
        let b1 = cp(&mut e, [z, w, y], &ivars, n, l);
        let b2 = e.atom(names::PLACES, q, vec![m, y]);
        let head = e.atom(sup_names::CUT, p0, vec![z, m, last]);
        prog.push(Rule {
            head,
            body: vec![b1, b2],
            diseqs: vec![],
        });
    }
    // ... or m is maximal in w and not a parent of y.
    for &(id, p) in &net_peers {
        for arity in preset_arities(net, id) {
            let uvars = vars(&mut e, "U", arity);
            let diseqs = uvars.iter().map(|&u| Diseq { lhs: m, rhs: u }).collect();
            let b1 = cp(&mut e, [z, w, y], &ivars, n, l);
            let b2 = e.atom(
                &trans_rel_name(arity),
                p,
                [t, y].into_iter().chain(uvars).collect(),
            );
            let b3 = e.atom(sup_names::CUT, p0, vec![w, m, f]);
            let head = e.atom(sup_names::CUT, p0, vec![z, m, old]);
            prog.push(Rule {
                head,
                body: vec![b1, b2, b3],
                diseqs,
            });
        }
    }

    // The extension rules and the gate tables the observable ones join.
    // Alarms from a peer the net does not know can never be explained; no
    // extension rule for them.
    let a = e.v("A");
    let ij = e.v("Ij");
    let ij2 = e.v("Ij2");
    let extending: Vec<Extending> = spec
        .patterns
        .iter()
        .enumerate()
        .filter_map(|(j, (pj, _))| {
            let id = net.peer_by_name(pj)?;
            Some((j, pj.as_str(), e.c(pj), preset_arities(net, id)))
        })
        .collect();
    for fact in gate_facts(&mut e, p0, &extending) {
        prog.push(fact);
    }
    // The body extending prefix Z by X, a `Trans<arity>@peer` event of
    // transition T with alarm A: the prefix, `lead` (what A may be), its
    // fuel step, T's parent places, each parent in Z's cut with its flag,
    // the gate row of an observable extension by `gated`'s alarm, and the
    // event.
    let extension_body = |e: &mut Enc, peer: &str, arity, prefix, lead, gated: Option<TermId>| {
        let uvars = vars(e, "U", arity);
        let cvars = vars(e, "C", arity);
        let fvars = vars(e, "F", arity);
        let conds: Vec<TermId> = uvars.iter().zip(&cvars).map(|(&u, &c)| e.g(u, c)).collect();
        let mut body = vec![prefix, lead];
        if let (Some(n), Some(n2)) = (n, n2) {
            body.push(e.atom(sup_names::FUEL_STEP, p0, vec![n, n2]));
        }
        let petri_args = [t, a].into_iter().chain(cvars).collect();
        body.push(e.atom(&petri_rel_name(arity), peer, petri_args));
        for (&cond, &fu) in conds.iter().zip(&fvars) {
            body.push(e.atom(sup_names::CUT, p0, vec![z, cond, fu]));
        }
        if let Some(pc) = gated {
            let gate_args = [l, pc].into_iter().chain(fvars).collect();
            body.push(e.atom(&sup_names::gate_rel_name(arity), p0, gate_args));
        }
        let trans_args = [t, x].into_iter().chain(conds).collect();
        body.push(e.atom(&trans_rel_name(arity), peer, trans_args));
        body
    };
    // Observable extensions: peer j's automaton moves from Ij to Ij2.
    for (j, pj, pjc, arities) in extending {
        let states_at =
            |q| -> Vec<TermId> { (0..k).map(|i| if i == j { q } else { ivars[i] }).collect() };
        for arity in arities {
            let hx = e.store.app("h", vec![z, x]);
            let lead = e.atom(sup_names::ALARM_SEQ, p0, vec![ij, a, pjc, ij2]);
            let prefix = cp(&mut e, [z, w, y], &states_at(ij), n, l);
            let body = extension_body(&mut e, pj, arity, prefix, lead, Some(pjc));
            let head = cp(&mut e, [hx, z, x], &states_at(ij2), n2, pjc);
            prog.push(Rule {
                head,
                body,
                diseqs: vec![],
            });
        }
    }
    // Hidden extensions, at any net peer: no automaton moves, no gate.
    if !spec.hidden.is_empty() {
        for &(id, p) in &net_peers {
            for arity in preset_arities(net, id) {
                let hx = e.store.app("h", vec![z, x]);
                let lead = e.atom(sup_names::HIDDEN_ALARM, p0, vec![a]);
                let prefix = cp(&mut e, [z, w, y], &ivars, n, l);
                let body = extension_body(&mut e, p, arity, prefix, lead, None);
                let head = cp(&mut e, [hx, z, x], &ivars, n2, r);
                prog.push(Rule {
                    head,
                    body,
                    diseqs: vec![],
                });
            }
        }
    }

    // Diag: every automaton in a final state, any fuel left.
    if diag {
        let finals: Vec<TermId> = pinned
            .iter()
            .zip(&ivars)
            .map(|(q, &v)| q.unwrap_or(v))
            .collect();
        let mut body = vec![cp(&mut e, [z, w, y], &finals, n, l)];
        for ((pj, _), (q, &v)) in spec.patterns.iter().zip(pinned.iter().zip(&ivars)) {
            if q.is_none() {
                let pc = e.c(pj);
                body.push(e.atom(sup_names::ALARM_FINAL, p0, vec![pc, v]));
            }
        }
        body.push(e.atom(sup_names::TRANS_IN_CONF, p0, vec![z, x]));
        let head = e.atom(sup_names::DIAG, p0, vec![z, x]);
        prog.push(Rule {
            head,
            body,
            diseqs: vec![],
        });
    }
    prog
}

/// The variables `{prefix}0 … {prefix}{n-1}`.
fn vars(e: &mut Enc, prefix: &str, n: usize) -> Vec<TermId> {
    (0..n).map(|i| e.v(&format!("{prefix}{i}"))).collect()
}

/// The constant naming state `q` of `peer`'s automaton.
pub(crate) fn state_constant(store: &mut TermStore, peer: &str, q: usize) -> TermId {
    store.constant(&format!("st_{peer}_{q}"))
}

/// `AlarmSeq@p0(st_{peer}_{from}, symbol, peer, st_{peer}_{to})`: `peer`'s
/// automaton moves from `from` to `to` on `symbol`.
pub(crate) fn alarm_fact(
    store: &mut TermStore,
    p0: &str,
    peer: &str,
    from: usize,
    symbol: &str,
    to: usize,
) -> Rule {
    let lo = state_constant(store, peer, from);
    let hi = state_constant(store, peer, to);
    let mut e = Enc { store };
    let a = e.c(symbol);
    let pc = e.c(peer);
    Rule::fact(e.atom(sup_names::ALARM_SEQ, p0, vec![lo, a, pc, hi]))
}

/// A peer that gets observable extension rules: its position in
/// `spec.patterns` (its rank), its name and constant, and its
/// [`preset_arities`].
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
/// Ranks follow `spec.patterns`, with the root `r` below every peer. Each
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

/// Reference searcher for the generalized problem — the \[8\]-style
/// incremental exploration lifted to automata + hidden events + fuel.
/// Certifies [`extended_program`] on small inputs.
pub fn diagnose_extended_reference(net: &PetriNet, spec: &ExtendedSpec) -> Diagnosis {
    use rescue_petri::{CondId, EventId, PlaceId, TransId};
    use rustc_hash::FxHashMap;

    struct Lazy {
        conditions: Vec<(PlaceId, Option<EventId>)>,
        events: Vec<(TransId, Vec<CondId>, Vec<CondId>)>,
        seen: FxHashMap<(TransId, Vec<CondId>), EventId>,
        roots: Vec<CondId>,
    }
    impl Lazy {
        fn event(&mut self, net: &PetriNet, t: TransId, preset: Vec<CondId>) -> EventId {
            if let Some(&e) = self.seen.get(&(t, preset.clone())) {
                return e;
            }
            let id = EventId(self.events.len() as u32);
            let postset: Vec<CondId> = net
                .transition(t)
                .post
                .iter()
                .map(|&pl| {
                    let c = CondId(self.conditions.len() as u32);
                    self.conditions.push((pl, Some(id)));
                    c
                })
                .collect();
            self.events.push((t, preset.clone(), postset));
            self.seen.insert((t, preset), id);
            id
        }
        fn term(&self, net: &PetriNet, e: EventId) -> String {
            let (t, preset, _) = &self.events[e.0 as usize];
            let ps: Vec<String> = preset.iter().map(|&b| self.cterm(net, b)).collect();
            format!("f({}, {})", net.transition(*t).name, ps.join(", "))
        }
        fn cterm(&self, net: &PetriNet, c: CondId) -> String {
            let (pl, prod) = self.conditions[c.0 as usize];
            match prod {
                None => format!("g(r, {})", net.place(pl).name),
                Some(e) => format!("g({}, {})", self.term(net, e), net.place(pl).name),
            }
        }
    }

    #[derive(Clone, PartialEq, Eq, Hash)]
    struct St {
        config: Vec<EventId>,
        cut: Vec<CondId>,
        states: Vec<usize>,
        fuel: usize,
    }

    let mut u = Lazy {
        conditions: Vec::new(),
        events: Vec::new(),
        seen: FxHashMap::default(),
        roots: Vec::new(),
    };
    for p in net.initial_marking().iter() {
        let id = CondId(u.conditions.len() as u32);
        u.conditions.push((PlaceId(p as u32), None));
        u.roots.push(id);
    }

    let init = St {
        config: Vec::new(),
        cut: u.roots.clone(),
        states: spec.patterns.iter().map(|(_, a)| a.initial).collect(),
        fuel: spec.max_events,
    };
    let mut seen: FxHashSet<St> = FxHashSet::default();
    let mut work = vec![init.clone()];
    seen.insert(init);
    let mut complete: Vec<Vec<EventId>> = Vec::new();

    while let Some(st) = work.pop() {
        // Accepting?
        if st
            .states
            .iter()
            .zip(spec.patterns.iter())
            .all(|(&q, (_, aut))| aut.finals.contains(&q))
        {
            complete.push(st.config.clone());
        }
        if st.fuel == 0 {
            continue;
        }
        // All possible single-event extensions.
        for (t, tr) in net.transitions() {
            let tpeer = net.peer_name(tr.peer);
            let is_hidden = spec.hidden.iter().any(|h| h == &tr.alarm);
            // Which automata moves does this firing correspond to?
            let mut moves: Vec<Option<(usize, usize)>> = Vec::new(); // (pattern idx, new state)
            if is_hidden {
                moves.push(None);
            } else {
                for (j, (pj, aut)) in spec.patterns.iter().enumerate() {
                    if pj != tpeer {
                        continue;
                    }
                    for &(f, ref s, to) in &aut.transitions {
                        if f == st.states[j] && s == &tr.alarm {
                            moves.push(Some((j, to)));
                        }
                    }
                }
            }
            if moves.is_empty() {
                continue;
            }
            let choice: Option<Vec<CondId>> = tr
                .pre
                .iter()
                .map(|&pl| {
                    st.cut
                        .iter()
                        .copied()
                        .find(|&c| u.conditions[c.0 as usize].0 == pl)
                })
                .collect();
            let Some(preset) = choice else { continue };
            let mut dd = preset.clone();
            dd.sort();
            dd.dedup();
            if dd.len() != preset.len() {
                continue;
            }
            for mv in moves {
                let e = u.event(net, t, preset.clone());
                let mut config = st.config.clone();
                config.push(e);
                config.sort();
                let mut cut: Vec<CondId> = st
                    .cut
                    .iter()
                    .copied()
                    .filter(|c| !preset.contains(c))
                    .collect();
                cut.extend(u.events[e.0 as usize].2.iter().copied());
                cut.sort();
                let mut states = st.states.clone();
                if let Some((j, to)) = mv {
                    states[j] = to;
                }
                let next = St {
                    config,
                    cut,
                    states,
                    fuel: st.fuel - 1,
                };
                if seen.insert(next.clone()) {
                    work.push(next);
                }
            }
        }
    }

    let sets: Vec<Vec<String>> = complete
        .into_iter()
        .map(|c| c.iter().map(|&e| u.term(net, e)).collect())
        .collect();
    Diagnosis::from_sets(sets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescue_datalog::{seminaive, Database, EvalBudget};
    use rescue_petri::figure1;

    fn run_extended_bottom_up(net: &PetriNet, spec: &ExtendedSpec) -> Diagnosis {
        let mut store = TermStore::new();
        let ep = extended_program(net, spec, "p0", &mut store);
        ep.program.validate(&store).unwrap();
        let mut db = Database::new();
        let budget = EvalBudget {
            max_term_depth: Some(2 * (spec.max_events as u32 + 1) + 2),
            ..Default::default()
        };
        seminaive(&ep.program, &mut store, &mut db, &budget).unwrap();
        complete_with_empty(
            crate::supervisor::extract_from_db(&db, &store, &ep.query),
            spec,
        )
    }

    fn run_extended_qsq(net: &PetriNet, spec: &ExtendedSpec) -> Diagnosis {
        let mut store = TermStore::new();
        let ep = extended_program(net, spec, "p0", &mut store);
        let mut db = Database::new();
        let run = rescue_qsq::qsq_answer(
            &ep.program,
            &ep.query,
            &mut store,
            &mut db,
            &EvalBudget::default(),
        )
        .unwrap();
        complete_with_empty(
            crate::supervisor::extract_diagnosis(&run.answers, &store),
            spec,
        )
    }

    #[test]
    fn chain_automaton_reproduces_plain_diagnosis() {
        let net = figure1();
        let alarms = AlarmSeq::from_pairs(&[("b", "p1"), ("a", "p2"), ("c", "p1")]);
        let spec = ExtendedSpec::from_sequence(&alarms);
        let got = run_extended_bottom_up(&net, &spec);
        let want = crate::direct::diagnose_oracle(&net, &alarms, 100_000);
        assert_eq!(got, want);
        assert_eq!(diagnose_extended_reference(&net, &spec), want);
    }

    #[test]
    fn hidden_transitions_extend_the_diagnosis() {
        // Hide 'a' (transition ii): observing only (b,p1)(c,p1) now admits
        // explanations with or without the hidden ii (and iv after it, if
        // fuel allows — iv's alarm d is not hidden, so no).
        let net = figure1();
        let observed = AlarmSeq::from_pairs(&[("b", "p1"), ("c", "p1")]);
        let spec = ExtendedSpec::from_sequence(&observed).with_hidden(&["a"], 1);
        let got = run_extended_bottom_up(&net, &spec);
        let want = diagnose_extended_reference(&net, &spec);
        assert_eq!(got, want);
        // {i, iii} and {i, iii, ii}: the hidden event may or may not have
        // occurred.
        assert_eq!(got.len(), 2);
        let sizes: Vec<usize> = got.configurations.iter().map(|c| c.len()).collect();
        assert!(sizes.contains(&2) && sizes.contains(&3));
    }

    #[test]
    fn pattern_alpha_beta_star_alpha() {
        // The paper's pattern α.β*.α on the producer/consumer net:
        // produce (put), any number of resets... we use peer `prod` with
        // pattern put.rst*.put, peer `cons` unconstrained (empty word or
        // any get/fin prefix? — keep it: cons must observe nothing).
        let net = rescue_petri::producer_consumer();
        let aut = Automaton {
            states: 3,
            initial: 0,
            finals: vec![2],
            transitions: vec![
                (0, "put".into(), 1),
                (1, "rst".into(), 1), // β* loop (self-loop on rst)
                (1, "put".into(), 2),
            ],
        };
        let spec = ExtendedSpec {
            patterns: vec![("prod".into(), aut)],
            hidden: vec!["get".into(), "fin".into()], // consumer is silent
            max_events: 6,
        };
        let got = run_extended_bottom_up(&net, &spec);
        let want = diagnose_extended_reference(&net, &spec);
        assert_eq!(got, want);
        // put requires the buffer freed between puts, so a second put
        // needs hidden get (and rst): explanations exist.
        assert!(!got.is_empty());
        // Every explanation contains exactly two 'produce' events.
        for c in &got.configurations {
            let puts = c.iter().filter(|t| t.starts_with("f(produce,")).count();
            assert_eq!(puts, 2, "explanation {c:?}");
        }
    }

    #[test]
    fn qsq_terminates_on_extended_programs() {
        // Fuel bounds the recursion, so QSQ needs no depth gadget even
        // with looping automata and hidden transitions.
        let net = figure1();
        let observed = AlarmSeq::from_pairs(&[("b", "p1")]);
        let spec = ExtendedSpec::from_sequence(&observed).with_hidden(&["a", "e"], 2);
        let got = run_extended_qsq(&net, &spec);
        let want = diagnose_extended_reference(&net, &spec);
        assert_eq!(got, want);
        assert!(got.len() >= 2); // {i}, {i,ii}, {i,v}, {i,ii,iv}? d not hidden → no iv.
    }

    #[test]
    fn complement_blocks_forbidden_patterns() {
        // Constraint: peer p1's observation must NOT match b.c (i.e. we
        // seek explanations of length ≤ 2 at p1 avoiding the exact word
        // b then c).
        let alphabet = ["b", "c"];
        let forbidden = Automaton::chain(&["b", "c"]).complete(&alphabet);
        let allowed = forbidden.complement(&alphabet);
        assert!(!allowed.accepts(&["b", "c"]));
        assert!(allowed.accepts(&["b"]));
        assert!(allowed.accepts(&[]));

        let net = figure1();
        let spec = ExtendedSpec {
            patterns: vec![("p1".into(), allowed)],
            hidden: vec!["a".into(), "d".into(), "e".into()],
            max_events: 3,
        };
        let got = run_extended_bottom_up(&net, &spec);
        let want = diagnose_extended_reference(&net, &spec);
        assert_eq!(got, want);
        // No explanation may contain both i (b) and iii (c): iii requires
        // i first, and any p1-word ending b.c is forbidden.
        for c in &got.configurations {
            let has_i = c.iter().any(|t| t.starts_with("f(i,"));
            let has_iii = c.iter().any(|t| t.starts_with("f(iii,"));
            assert!(!(has_i && has_iii), "forbidden explanation {c:?}");
        }
    }

    #[test]
    fn automaton_utilities() {
        let chain = Automaton::chain(&["a", "b"]);
        assert!(chain.accepts(&["a", "b"]));
        assert!(!chain.accepts(&["a"]));
        assert!(!chain.accepts(&["b", "a"]));
        let total = chain.complete(&["a", "b"]);
        assert!(total.is_complete_dfa(&["a", "b"]));
        let comp = total.complement(&["a", "b"]);
        assert!(comp.accepts(&["a"]));
        assert!(!comp.accepts(&["a", "b"]));
    }
}
