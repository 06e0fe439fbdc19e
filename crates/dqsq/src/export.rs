//! Store-independent representations of atoms, rules and programs.
//!
//! The paper's peers are autonomous: they share no memory, so each peer in
//! the distributed runtimes owns a private
//! [`rescue_datalog::TermStore`]. The peer-local rewriting protocol
//! ([`crate::protocol`]) ships its delegated rule remainders in the
//! structural form defined here, re-interned on receipt, and tests use it
//! to compare rule sets built in different stores. Tuples travel as
//! per-channel term dictionaries instead ([`crate::dist`]), and
//! [`crate::dist::build_peers`] copies each peer's rules into its store by
//! term id.

use rescue_datalog::{Atom, Diseq, ExportedTerm, Peer, PredId, Program, Rule, TermStore};

/// A store-independent atom.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ExportedAtom {
    pub name: String,
    pub peer: String,
    pub args: Vec<ExportedTerm>,
}

impl ExportedAtom {
    pub fn size_estimate(&self) -> usize {
        self.name.len()
            + self.peer.len()
            + self.args.iter().map(|a| a.size_estimate()).sum::<usize>()
    }
}

/// A store-independent rule.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ExportedRule {
    pub head: ExportedAtom,
    pub body: Vec<ExportedAtom>,
    pub diseqs: Vec<(ExportedTerm, ExportedTerm)>,
}

impl ExportedRule {
    pub fn size_estimate(&self) -> usize {
        self.head.size_estimate()
            + self.body.iter().map(|a| a.size_estimate()).sum::<usize>()
            + self
                .diseqs
                .iter()
                .map(|(l, r)| l.size_estimate() + r.size_estimate())
                .sum::<usize>()
    }
}

/// Export an atom from `store`.
pub fn export_atom(atom: &Atom, store: &TermStore) -> ExportedAtom {
    ExportedAtom {
        name: store.sym_str(atom.pred.name).to_owned(),
        peer: store.sym_str(atom.pred.peer.0).to_owned(),
        args: atom.args.iter().map(|&a| store.export_pattern(a)).collect(),
    }
}

/// Import an atom into `store`.
pub fn import_atom(atom: &ExportedAtom, store: &mut TermStore) -> Atom {
    let pred = PredId {
        name: store.sym(&atom.name),
        peer: Peer(store.sym(&atom.peer)),
    };
    let args = atom.args.iter().map(|a| store.import(a)).collect();
    Atom::new(pred, args)
}

/// Export a rule from `store`.
pub fn export_rule(rule: &Rule, store: &TermStore) -> ExportedRule {
    ExportedRule {
        head: export_atom(&rule.head, store),
        body: rule.body.iter().map(|a| export_atom(a, store)).collect(),
        diseqs: rule
            .diseqs
            .iter()
            .map(|d| (store.export_pattern(d.lhs), store.export_pattern(d.rhs)))
            .collect(),
    }
}

/// Import a rule into `store`.
pub fn import_rule(rule: &ExportedRule, store: &mut TermStore) -> Rule {
    Rule {
        head: import_atom(&rule.head, store),
        body: rule.body.iter().map(|a| import_atom(a, store)).collect(),
        diseqs: rule
            .diseqs
            .iter()
            .map(|(l, r)| Diseq {
                lhs: store.import(l),
                rhs: store.import(r),
            })
            .collect(),
    }
}

/// Export a whole program (used by tests to compare rule sets generated in
/// different stores, order-insensitively).
pub fn export_program(program: &Program, store: &TermStore) -> Vec<ExportedRule> {
    program
        .rules
        .iter()
        .map(|r| export_rule(r, store))
        .collect()
}

/// Canonicalize a rule set for order-insensitive comparison: sorts by the
/// debug rendering, which is total and store-independent.
pub fn canonical_rules(mut rules: Vec<ExportedRule>) -> Vec<ExportedRule> {
    rules.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    rules.dedup();
    rules
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescue_datalog::parse_program;

    #[test]
    fn rule_round_trips_between_stores() {
        let mut a = TermStore::new();
        let prog = parse_program(
            "Tr@p(f(c, U, V), U, V) :- Map@q(U, c0), NotC@p(U, V), U != V.",
            &mut a,
        )
        .unwrap();
        let exported = export_rule(&prog.rules[0], &a);
        let mut b = TermStore::new();
        let imported = import_rule(&exported, &mut b);
        let re_exported = export_rule(&imported, &b);
        assert_eq!(exported, re_exported);
        assert_eq!(imported.body.len(), 2);
        assert_eq!(imported.diseqs.len(), 1);
    }

    #[test]
    fn canonical_rules_is_order_insensitive() {
        let mut st = TermStore::new();
        let p1 = parse_program("A@p(x). B@p(y).", &mut st).unwrap();
        let p2 = parse_program("B@p(y). A@p(x).", &mut st).unwrap();
        assert_eq!(
            canonical_rules(export_program(&p1, &st)),
            canonical_rules(export_program(&p2, &st))
        );
    }
}
