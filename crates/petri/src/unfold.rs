//! Unfoldings (branching processes) of safe Petri nets — paper §2,
//! Definitions 3–4, after Engelfriet \[13\] and McMillan \[24\].
//!
//! The unfolding is an acyclic net whose *conditions* are instances of
//! places and *events* instances of transitions, together with the
//! homomorphism ρ back to the net (here: the `place`/`transition` labels).
//! It represents every run of the net up to interleaving; the three node
//! relations — causality ≼, conflict #, concurrency ‖ — and its
//! *configurations* (downward-closed, conflict-free event sets) are the
//! paper's vocabulary for diagnosis.
//!
//! Construction is the classic possible-extensions loop: an event is added
//! for every transition `t` and every pairwise-concurrent set of conditions
//! labeled by `•t` not already consumed that way. Unfoldings are infinite
//! in general (the paper leans on this: its Datalog program does not
//! terminate under naive evaluation either), so construction is bounded by
//! depth and event count.
//!
//! Node identities double as the paper's Skolem terms: a root condition for
//! place `c` renders as `g(r, c)`, an event for transition `c` with parent
//! conditions `u, v` as `f(c, u, v)`, and a non-root condition as
//! `g(e, c)` — exactly the terms the §4.1 Datalog program mints, which is
//! what makes the Theorem 2 bijection δ checkable by string equality.

use crate::bitset::BitSet;
use crate::net::{PetriNet, PlaceId, TransId};
use rustc_hash::FxHashSet;

/// Index of a condition (place instance).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct CondId(pub u32);

/// Index of an event (transition instance).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct EventId(pub u32);

/// A condition: an instance of `place`, created by `producer` (`None` for
/// the roots, which instantiate the initially marked places).
#[derive(Clone, Debug)]
pub struct Condition {
    pub place: PlaceId,
    pub producer: Option<EventId>,
}

/// An event: an instance of `transition` consuming `preset` (ordered to
/// match the transition's `pre` list) and producing `postset` (ordered to
/// match `post`).
#[derive(Clone, Debug)]
pub struct Event {
    pub transition: TransId,
    pub preset: Vec<CondId>,
    pub postset: Vec<CondId>,
    /// 1 + max depth of the producing events of the preset (roots have
    /// depth 0), i.e. the length of the longest causal chain to this event.
    pub depth: u32,
}

/// Bounds for the construction.
#[derive(Clone, Copy, Debug)]
pub struct UnfoldLimits {
    /// Maximum event depth (causal-chain length).
    pub max_depth: u32,
    /// Maximum number of events.
    pub max_events: usize,
}

impl Default for UnfoldLimits {
    fn default() -> Self {
        UnfoldLimits {
            max_depth: 8,
            max_events: 10_000,
        }
    }
}

impl UnfoldLimits {
    pub fn depth(max_depth: u32) -> Self {
        UnfoldLimits {
            max_depth,
            ..Default::default()
        }
    }
}

/// A bounded branching process of a Petri net.
#[derive(Clone, Debug)]
pub struct Unfolding {
    conditions: Vec<Condition>,
    events: Vec<Event>,
    /// Per event: the set of events ≼ it (inclusive).
    event_past: Vec<BitSet>,
    /// Per condition: the events strictly below it (its producer's past).
    cond_past: Vec<BitSet>,
    /// Per condition: the events consuming it.
    consumers: Vec<Vec<EventId>>,
    roots: Vec<CondId>,
    /// Pairs of distinct events sharing a precondition — the *direct*
    /// conflicts from which all conflicts are inherited.
    direct_conflicts: Vec<(EventId, EventId)>,
    /// True when `max_events` stopped the construction early.
    truncated: bool,
}

impl Unfolding {
    /// Build the prefix of the unfolding of `net` within `limits`.
    pub fn build(net: &PetriNet, limits: &UnfoldLimits) -> Self {
        let mut u = Unfolding {
            conditions: Vec::new(),
            events: Vec::new(),
            event_past: Vec::new(),
            cond_past: Vec::new(),
            consumers: Vec::new(),
            roots: Vec::new(),
            direct_conflicts: Vec::new(),
            truncated: false,
        };
        // Roots: one condition per initially marked place.
        for p in net.initial_marking().iter() {
            let id = u.add_condition(PlaceId(p as u32), None);
            u.roots.push(id);
        }
        // Possible-extensions saturation.
        let mut seen: FxHashSet<(TransId, Vec<CondId>)> = FxHashSet::default();
        loop {
            let mut added = false;
            for (t, tr) in net.transitions() {
                // Candidate conditions per pre-place, in pre-list order.
                let cands: Vec<Vec<CondId>> = tr
                    .pre
                    .iter()
                    .map(|&pl| {
                        (0..u.conditions.len() as u32)
                            .map(CondId)
                            .filter(|&c| u.conditions[c.0 as usize].place == pl)
                            .collect()
                    })
                    .collect();
                if cands.iter().any(|v| v.is_empty()) {
                    continue;
                }
                let mut choice: Vec<CondId> = Vec::with_capacity(cands.len());
                added |= u.extend_rec(net, t, &cands, &mut choice, &mut seen, limits);
                if u.truncated {
                    return u;
                }
            }
            if !added {
                return u;
            }
        }
    }

    fn extend_rec(
        &mut self,
        net: &PetriNet,
        t: TransId,
        cands: &[Vec<CondId>],
        choice: &mut Vec<CondId>,
        seen: &mut FxHashSet<(TransId, Vec<CondId>)>,
        limits: &UnfoldLimits,
    ) -> bool {
        if choice.len() == cands.len() {
            let mut key = choice.clone();
            key.sort();
            if !seen.insert((t, key)) {
                return false;
            }
            let depth = 1 + choice
                .iter()
                .map(|&b| {
                    self.conditions[b.0 as usize]
                        .producer
                        .map_or(0, |e| self.events[e.0 as usize].depth)
                })
                .max()
                .unwrap_or(0);
            if depth > limits.max_depth {
                return false;
            }
            self.add_event(net, t, choice.clone(), depth);
            if self.events.len() >= limits.max_events {
                self.truncated = true;
            }
            return true;
        }
        let mut added = false;
        let level = choice.len();
        for &b in &cands[level] {
            if choice
                .iter()
                .all(|&prev| prev != b && self.concurrent_conds(prev, b))
            {
                choice.push(b);
                added |= self.extend_rec(net, t, cands, choice, seen, limits);
                choice.pop();
                if self.truncated {
                    return added;
                }
            }
        }
        added
    }

    fn add_condition(&mut self, place: PlaceId, producer: Option<EventId>) -> CondId {
        let id = CondId(self.conditions.len() as u32);
        let past = match producer {
            None => BitSet::new(),
            Some(e) => self.event_past[e.0 as usize].clone(),
        };
        self.conditions.push(Condition { place, producer });
        self.cond_past.push(past);
        self.consumers.push(Vec::new());
        id
    }

    fn add_event(&mut self, net: &PetriNet, t: TransId, preset: Vec<CondId>, depth: u32) {
        let id = EventId(self.events.len() as u32);
        let mut past = BitSet::new();
        for &b in &preset {
            past.union_with(&self.cond_past[b.0 as usize]);
        }
        past.insert(id.0 as usize);
        // Record direct conflicts: any sibling consumer of a precondition.
        for &b in &preset {
            for &other in &self.consumers[b.0 as usize] {
                self.direct_conflicts.push((other, id));
            }
            self.consumers[b.0 as usize].push(id);
        }
        self.event_past.push(past);
        let post: Vec<PlaceId> = net.transition(t).post.clone();
        let postset: Vec<CondId> = post
            .iter()
            .map(|&pl| self.add_condition(pl, Some(id)))
            .collect();
        self.events.push(Event {
            transition: t,
            preset,
            postset,
            depth,
        });
    }

    pub fn num_events(&self) -> usize {
        self.events.len()
    }

    pub fn is_truncated(&self) -> bool {
        self.truncated
    }

    pub fn roots(&self) -> &[CondId] {
        &self.roots
    }

    pub fn condition(&self, c: CondId) -> &Condition {
        &self.conditions[c.0 as usize]
    }

    pub fn event(&self, e: EventId) -> &Event {
        &self.events[e.0 as usize]
    }

    pub fn events(&self) -> impl Iterator<Item = (EventId, &Event)> {
        self.events
            .iter()
            .enumerate()
            .map(|(i, e)| (EventId(i as u32), e))
    }

    pub fn conditions(&self) -> impl Iterator<Item = (CondId, &Condition)> {
        self.conditions
            .iter()
            .enumerate()
            .map(|(i, c)| (CondId(i as u32), c))
    }

    /// Events consuming condition `c`.
    pub fn consumers_of(&self, c: CondId) -> &[EventId] {
        &self.consumers[c.0 as usize]
    }

    /// e1 ≼ e2 (reflexive causality).
    pub fn causally_le(&self, e1: EventId, e2: EventId) -> bool {
        self.event_past[e2.0 as usize].contains(e1.0 as usize)
    }

    /// e1 # e2: inherited from a direct conflict below each.
    pub fn in_conflict(&self, e1: EventId, e2: EventId) -> bool {
        if e1 == e2 {
            return false;
        }
        let p1 = &self.event_past[e1.0 as usize];
        let p2 = &self.event_past[e2.0 as usize];
        self.direct_conflicts.iter().any(|&(a, b)| {
            (p1.contains(a.0 as usize) && p2.contains(b.0 as usize))
                || (p1.contains(b.0 as usize) && p2.contains(a.0 as usize))
        })
    }

    /// e1 ‖ e2: neither ordered nor in conflict.
    pub fn concurrent(&self, e1: EventId, e2: EventId) -> bool {
        e1 != e2
            && !self.causally_le(e1, e2)
            && !self.causally_le(e2, e1)
            && !self.in_conflict(e1, e2)
    }

    /// Concurrency of two *conditions* (used for co-set enumeration):
    /// neither causally below the other, and conflict-free pasts.
    pub fn concurrent_conds(&self, b1: CondId, b2: CondId) -> bool {
        if b1 == b2 {
            return false;
        }
        let p1 = &self.cond_past[b1.0 as usize];
        let p2 = &self.cond_past[b2.0 as usize];
        // b1 < b2 iff some consumer of b1 lies below b2.
        let below = |b: CondId, p_other: &BitSet| {
            self.consumers[b.0 as usize]
                .iter()
                .any(|e| p_other.contains(e.0 as usize))
        };
        if below(b1, p2) || below(b2, p1) {
            return false;
        }
        !self.direct_conflicts.iter().any(|&(a, b)| {
            (p1.contains(a.0 as usize) && p2.contains(b.0 as usize))
                || (p1.contains(b.0 as usize) && p2.contains(a.0 as usize))
        })
    }

    /// Is `events` a configuration: downward closed and conflict-free?
    pub fn is_configuration(&self, events: &BitSet) -> bool {
        for e in events.iter() {
            if !self.event_past[e].is_subset(events) {
                return false;
            }
        }
        !self
            .direct_conflicts
            .iter()
            .any(|&(a, b)| events.contains(a.0 as usize) && events.contains(b.0 as usize))
    }

    /// The cut of a configuration: roots and produced conditions not
    /// consumed within it.
    pub fn cut(&self, events: &BitSet) -> Vec<CondId> {
        debug_assert!(self.is_configuration(events));
        let mut out = Vec::new();
        let alive = |&c: &CondId| {
            !self.consumers[c.0 as usize]
                .iter()
                .any(|e| events.contains(e.0 as usize))
        };
        out.extend(self.roots.iter().copied().filter(alive));
        for e in events.iter() {
            out.extend(self.events[e].postset.iter().copied().filter(alive));
        }
        out
    }

    /// The marking reached by a configuration (image of its cut under ρ).
    pub fn marking_of(&self, events: &BitSet) -> BitSet {
        self.cut(events)
            .into_iter()
            .map(|c| self.conditions[c.0 as usize].place.0 as usize)
            .collect()
    }

    /// Enumerate all configurations (including ∅) up to `max_count`.
    /// Exponential in general — intended for the small nets used in tests
    /// and the paper's examples.
    pub fn all_configurations(&self, max_count: usize) -> Vec<BitSet> {
        let mut seen: FxHashSet<Vec<usize>> = FxHashSet::default();
        let mut out: Vec<BitSet> = Vec::new();
        let mut work: Vec<BitSet> = vec![BitSet::new()];
        seen.insert(Vec::new());
        while let Some(c) = work.pop() {
            out.push(c.clone());
            if out.len() >= max_count {
                break;
            }
            // Extend by any event whose past (minus itself) is inside c and
            // which conflicts with nothing in c.
            for (e, _) in self.events() {
                let ei = e.0 as usize;
                if c.contains(ei) {
                    continue;
                }
                let mut needed = self.event_past[ei].clone();
                needed.remove(ei);
                if !needed.is_subset(&c) {
                    continue;
                }
                let mut ext = c.clone();
                ext.insert(ei);
                if !self.is_configuration(&ext) {
                    continue;
                }
                let key: Vec<usize> = ext.iter().collect();
                if seen.insert(key) {
                    work.push(ext);
                }
            }
        }
        out
    }

    /// The Skolem-term rendering of a condition — `g(r, c)` for roots,
    /// `g(f(...), c)` otherwise — matching the §4.1 Datalog encoding.
    pub fn cond_term(&self, net: &PetriNet, c: CondId) -> String {
        let cond = &self.conditions[c.0 as usize];
        let place = &net.place(cond.place).name;
        match cond.producer {
            None => format!("g(r, {place})"),
            Some(e) => format!("g({}, {place})", self.event_term(net, e)),
        }
    }

    /// The Skolem-term rendering of an event — `f(c, u…)` with the parent
    /// condition terms in the transition's pre-list order.
    pub fn event_term(&self, net: &PetriNet, e: EventId) -> String {
        let ev = &self.events[e.0 as usize];
        let tname = &net.transition(ev.transition).name;
        let parents: Vec<String> = ev.preset.iter().map(|&b| self.cond_term(net, b)).collect();
        format!("f({}, {})", tname, parents.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetBuilder;

    /// Two independent loops — pure concurrency.
    fn concurrent_net() -> PetriNet {
        let mut b = NetBuilder::new();
        let p = b.peer("p");
        let a1 = b.place("a1", p);
        let a2 = b.place("a2", p);
        let b1 = b.place("b1", p);
        let b2 = b.place("b2", p);
        b.transition("ta", p, "a", &[a1], &[a2]);
        b.transition("tb", p, "b", &[b1], &[b2]);
        b.mark(a1);
        b.mark(b1);
        b.build().unwrap()
    }

    /// A choice: one place, two competing consumers.
    fn conflict_net() -> PetriNet {
        let mut b = NetBuilder::new();
        let p = b.peer("p");
        let s = b.place("s", p);
        let l = b.place("l", p);
        let r = b.place("r", p);
        b.transition("tl", p, "a", &[s], &[l]);
        b.transition("tr", p, "b", &[s], &[r]);
        b.mark(s);
        b.build().unwrap()
    }

    #[test]
    fn concurrent_events_are_concurrent() {
        let net = concurrent_net();
        let u = Unfolding::build(&net, &UnfoldLimits::default());
        assert_eq!(u.num_events(), 2);
        assert!(u.concurrent(EventId(0), EventId(1)));
        assert!(!u.in_conflict(EventId(0), EventId(1)));
        assert!(!u.causally_le(EventId(0), EventId(1)));
    }

    #[test]
    fn conflicting_events_are_in_conflict() {
        let net = conflict_net();
        let u = Unfolding::build(&net, &UnfoldLimits::default());
        assert_eq!(u.num_events(), 2);
        assert!(u.in_conflict(EventId(0), EventId(1)));
        assert!(!u.concurrent(EventId(0), EventId(1)));
    }

    #[test]
    fn causal_chain_orders_events() {
        // 1 -a-> 2 -b-> 3.
        let mut b = NetBuilder::new();
        let p = b.peer("p");
        let s1 = b.place("1", p);
        let s2 = b.place("2", p);
        let s3 = b.place("3", p);
        b.transition("ta", p, "a", &[s1], &[s2]);
        b.transition("tb", p, "b", &[s2], &[s3]);
        b.mark(s1);
        let net = b.build().unwrap();
        let u = Unfolding::build(&net, &UnfoldLimits::default());
        assert_eq!(u.num_events(), 2);
        let (ea, eb) = (EventId(0), EventId(1));
        assert!(u.causally_le(ea, eb));
        assert!(!u.causally_le(eb, ea));
        assert_eq!(u.event(eb).depth, 2);
    }

    #[test]
    fn loop_unfolds_to_depth_bound() {
        // 1 -a-> 2 -b-> 1 : infinite unfolding, chain of depth max_depth.
        let mut b = NetBuilder::new();
        let p = b.peer("p");
        let s1 = b.place("1", p);
        let s2 = b.place("2", p);
        b.transition("ta", p, "a", &[s1], &[s2]);
        b.transition("tb", p, "b", &[s2], &[s1]);
        b.mark(s1);
        let net = b.build().unwrap();
        let u = Unfolding::build(&net, &UnfoldLimits::depth(6));
        assert_eq!(u.num_events(), 6);
        assert!(!u.is_truncated());
        let max_depth = u.events().map(|(_, e)| e.depth).max().unwrap();
        assert_eq!(max_depth, 6);
    }

    #[test]
    fn event_budget_truncates() {
        let mut b = NetBuilder::new();
        let p = b.peer("p");
        let s1 = b.place("1", p);
        let s2 = b.place("2", p);
        b.transition("ta", p, "a", &[s1], &[s2]);
        b.transition("tb", p, "b", &[s2], &[s1]);
        b.mark(s1);
        let net = b.build().unwrap();
        let u = Unfolding::build(
            &net,
            &UnfoldLimits {
                max_depth: 1000,
                max_events: 5,
            },
        );
        assert!(u.is_truncated());
        assert_eq!(u.num_events(), 5);
    }

    #[test]
    fn configurations_of_conflict_net() {
        let net = conflict_net();
        let u = Unfolding::build(&net, &UnfoldLimits::default());
        let confs = u.all_configurations(100);
        // ∅, {tl}, {tr} — but never {tl, tr}.
        assert_eq!(confs.len(), 3);
        for c in &confs {
            assert!(u.is_configuration(c));
            assert!(c.len() <= 1);
        }
    }

    #[test]
    fn configurations_of_concurrent_net() {
        let net = concurrent_net();
        let u = Unfolding::build(&net, &UnfoldLimits::default());
        let confs = u.all_configurations(100);
        // ∅, {a}, {b}, {a,b}.
        assert_eq!(confs.len(), 4);
    }

    #[test]
    fn cut_and_marking() {
        let net = concurrent_net();
        let u = Unfolding::build(&net, &UnfoldLimits::default());
        let mut c = BitSet::new();
        c.insert(0); // fire ta only
        let marking = u.marking_of(&c);
        // a2 and b1 marked.
        let names: Vec<&str> = marking
            .iter()
            .map(|p| net.place(crate::net::PlaceId(p as u32)).name.as_str())
            .collect();
        assert_eq!(names, vec!["a2", "b1"]);
    }

    #[test]
    fn downward_closure_enforced() {
        let net = {
            let mut b = NetBuilder::new();
            let p = b.peer("p");
            let s1 = b.place("1", p);
            let s2 = b.place("2", p);
            let s3 = b.place("3", p);
            b.transition("ta", p, "a", &[s1], &[s2]);
            b.transition("tb", p, "b", &[s2], &[s3]);
            b.mark(s1);
            b.build().unwrap()
        };
        let u = Unfolding::build(&net, &UnfoldLimits::default());
        let mut c = BitSet::new();
        c.insert(1); // tb without ta
        assert!(!u.is_configuration(&c));
    }

    #[test]
    fn skolem_terms_match_encoding_shape() {
        let net = conflict_net();
        let u = Unfolding::build(&net, &UnfoldLimits::default());
        let e0 = EventId(0);
        assert_eq!(u.event_term(&net, e0), "f(tl, g(r, s))");
        let post = u.event(e0).postset[0];
        assert_eq!(u.cond_term(&net, post), "g(f(tl, g(r, s)), l)");
    }

    #[test]
    fn two_parent_synchronization() {
        // Fork-join: t consumes from two concurrent branches.
        let mut b = NetBuilder::new();
        let p = b.peer("p");
        let a = b.place("a", p);
        let c = b.place("c", p);
        let d = b.place("d", p);
        b.transition("join", p, "j", &[a, c], &[d]);
        b.mark(a);
        b.mark(c);
        let net = b.build().unwrap();
        let u = Unfolding::build(&net, &UnfoldLimits::default());
        assert_eq!(u.num_events(), 1);
        assert_eq!(u.event(EventId(0)).preset.len(), 2);
        assert_eq!(u.event_term(&net, EventId(0)), "f(join, g(r, a), g(r, c))");
    }
}
