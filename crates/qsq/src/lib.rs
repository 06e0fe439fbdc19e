//! # rescue-qsq
//!
//! Query-Sub-Query for dDatalog (paper §3.1), in the "rewrite then evaluate
//! bottom-up" formulation of Figure 4: binding patterns and the adornment
//! driver ([`adorn`]), the naming scheme of rewritten relations
//! ([`names`]), the one body walk ([`walk`]) that the global rewriter
//! ([`rewrite()`]) and `rescue-dqsq`'s peer-local protocol both drive, the
//! Magic Sets sibling ([`magic`]) and an end-to-end driver ([`eval`]).
//!
//! The rewriting is *placement-aware*: generated rules land at the peer
//! that owns their head, so on a local program it is exactly QSQ (Figure 4)
//! and on a distributed program exactly dQSQ (Figure 5). The distributed
//! runtime that executes the latter peer-by-peer lives in `rescue-dqsq`.

pub mod adorn;
pub mod eval;
pub mod magic;
pub mod names;
pub mod rewrite;
pub mod walk;

pub use adorn::{adorn_args, AdornedPred, Adornment};
pub use eval::{
    breakdown, filter_answers, qsq_answer, qsq_answer_traced_opts, seminaive_answer,
    split_edb_facts, Materialized, QsqError, QsqRun,
};
pub use magic::{magic_answer, magic_rewrite, MagicOutput, MagicRun};
pub use names::{base_name, classify_name, RelKind, Scheme};
pub use rewrite::{rewrite, rewrite_with, RewriteError, RewriteOutput, SupPlacement};
pub use walk::{Cursor, Emitted};
