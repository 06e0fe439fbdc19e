//! # rescue-datalog
//!
//! The dDatalog substrate of *datalog-rescue*, a reproduction of
//! Abiteboul, Abrams, Haar & Milo, “Diagnosis of Asynchronous Discrete
//! Event Systems: Datalog to the Rescue!” (PODS 2005).
//!
//! dDatalog (paper, Section 3) is Datalog extended with:
//!
//! * **function symbols** — needed to mint identifiers for the nodes of
//!   Petri-net unfoldings (so naive evaluation may not terminate, and every
//!   evaluation here carries an [`eval::EvalBudget`]);
//! * **peer-located relations** `R@p(…)` — peer names are constants; a
//!   program's rules partition into "the rules at site p";
//! * **disequality constraints** `x ≠ y` in rule bodies.
//!
//! This crate provides the language ([`language`]), a text format
//! ([`parser`]), hash-consed terms ([`term`]), fact storage ([`database`]),
//! the semi-naive bottom-up engine, one-shot, stratified or resumable
//! ([`eval`]),
//! dependency analysis ([`graph`]) and derivation-tree reconstruction
//! ([`provenance`]). Top-down optimization (QSQ, Magic Sets) lives in
//! `rescue-qsq`; distribution in `rescue-dqsq`.

#![forbid(unsafe_code)]

pub mod database;
pub mod eval;
pub mod graph;
pub mod language;
pub mod parser;
pub mod plan;
pub mod provenance;
pub mod symbol;
pub mod term;

pub use database::{Database, Inserted, Relation, Rows};
pub use eval::{
    default_threads, seminaive, seminaive_opts, seminaive_stratified, DeferredFacts, DepthPolicy,
    EvalBudget, EvalError, EvalOptions, EvalSession, EvalStats,
};
pub use graph::DepGraph;
pub use language::{
    display_atom, display_rule, Atom, Diseq, Peer, PredId, Program, Rule, ValidationError,
};
pub use parser::{parse_atom, parse_program, parse_program_at, ParseError};
pub use plan::{JoinOrder, JoinScratch, RulePlan};
pub use provenance::{explain, Derivation};
pub use rescue_telemetry::{Absorb, Collector};
pub use symbol::{Interner, Sym};
pub use term::{ExportedTerm, Subst, TermData, TermId, TermStore};
