//! # rescue-dqsq
//!
//! Distributed Datalog and distributed QSQ (paper §3.2).
//!
//! * [`export`] — store-independent atoms/rules: what the peer-local
//!   rewriting protocol ships between autonomous peers;
//! * [`dist`] — distributed (naive) evaluation: peers host "the rules at
//!   site p", subscribe to remote relations, and exchange tuples until the
//!   distributed fixpoint, on either the simulated or the threaded
//!   transport;
//! * [`dqsq`] — end-to-end dQSQ (rewrite → distribute → evaluate), the
//!   materialization accounting, and the Theorem 1 checker;
//! * [`protocol`] — the peer-local rewriting construction, where a peer
//!   reaching a remote relation delegates the remainder of the rule (the
//!   paper's rule (†)); validated to coincide with the global rewriting.

pub mod dist;
pub mod dqsq;
pub mod export;
pub mod protocol;

pub use dist::{
    build_peers, dmsg_size, run_distributed, run_distributed_threaded,
    run_distributed_threaded_opts, DMsg, DistError, DistOptions, DistRun, EvalPeer, TermDef,
    TupleBatch,
};
pub use dqsq::{
    check_theorem1, delocalize, dist_breakdown, dqsq_distributed, dqsq_distributed_with,
    DistMaterialized, DqsqError, DqsqOutcome, Theorem1Report,
};
pub use export::{
    canonical_rules, export_atom, export_program, export_rule, import_atom, import_rule,
    ExportedAtom, ExportedRule,
};
pub use protocol::{protocol_rewrite, rwmsg_size, DelegateCtx, RwMsg, RwPeer};
