//! The naming scheme of rewritten relations — the one place it is written.
//!
//! QSQ names the adorned copy of `R` under adornment `a` `R__a`, its input
//! relation `in_R__a`, and the supplementary relation after position `j`
//! of rule `i` `sup_i_j__a`. Magic Sets keeps `R__a` and calls the input
//! relation `m_R__a`. Peers of the rewriting protocol agree on nothing
//! else, and counters and censuses read relation roles back off the names.

use crate::adorn::{AdornedPred, Adornment};
use rescue_datalog::{PredId, Sym, TermStore};
use rustc_hash::FxHashMap;
use std::fmt::Write;

/// The role of a relation in a rewritten program.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RelKind {
    /// An adorned version `R^a` of an intensional relation.
    Adorned,
    /// An input relation `in-R^a` (Magic Sets: `m_R^a`).
    Input,
    /// A supplementary relation `sup_{i,j}`.
    Supplementary,
    /// An (unrewritten) extensional relation.
    Base,
}

/// Which rewriting a name belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Scheme {
    #[default]
    Qsq,
    Magic,
}

impl Scheme {
    fn input_prefix(self) -> &'static str {
        match self {
            Scheme::Qsq => "in_",
            Scheme::Magic => "m_",
        }
    }

    /// Classify a relation of a program rewritten under this scheme by its
    /// name; anything without an adornment suffix is a base relation.
    pub fn classify(self, name: &str) -> RelKind {
        if self == Scheme::Qsq && name.starts_with("sup_") {
            RelKind::Supplementary
        } else if name.starts_with(self.input_prefix()) && name.contains("__") {
            RelKind::Input
        } else if name.contains("__") {
            RelKind::Adorned
        } else {
            RelKind::Base
        }
    }
}

/// Classify a relation of a QSQ / dQSQ rewritten program by its name.
pub fn classify_name(name: &str) -> RelKind {
    Scheme::Qsq.classify(name)
}

/// Strip an adornment suffix: `Trans2__bfbb` → `Trans2`.
pub fn base_name(name: &str) -> &str {
    name.split("__").next().unwrap_or(name)
}

/// The adorned and input relations named so far, each interned once.
#[derive(Clone, Debug, Default)]
pub(crate) struct Names {
    scheme: Scheme,
    pub(crate) adorned: FxHashMap<AdornedPred, PredId>,
    pub(crate) inputs: FxHashMap<AdornedPred, PredId>,
    buf: String,
}

impl Names {
    pub(crate) fn new(scheme: Scheme) -> Self {
        let names = Names::default();
        Names { scheme, ..names }
    }

    /// `R^a`, at R's peer.
    pub(crate) fn adorned(&mut self, store: &mut TermStore, ap: AdornedPred) -> PredId {
        Self::named(&mut self.adorned, &mut self.buf, "", store, ap)
    }

    /// `in-R^a` (or `m_R^a`), at R's peer.
    pub(crate) fn input(&mut self, store: &mut TermStore, ap: AdornedPred) -> PredId {
        let prefix = self.scheme.input_prefix();
        Self::named(&mut self.inputs, &mut self.buf, prefix, store, ap)
    }

    fn named(
        map: &mut FxHashMap<AdornedPred, PredId>,
        buf: &mut String,
        prefix: &str,
        store: &mut TermStore,
        ap: AdornedPred,
    ) -> PredId {
        *map.entry(ap).or_insert_with(|| {
            buf.clear();
            let _ = write!(
                buf,
                "{prefix}{}__{}",
                store.sym_str(ap.base.name),
                ap.adornment
            );
            PredId {
                name: store.sym(buf),
                peer: ap.base.peer,
            }
        })
    }

    /// The name of `sup_{rule,pos}` of a walk under head adornment `ad`.
    pub(crate) fn sup(
        &mut self,
        store: &mut TermStore,
        rule: usize,
        pos: usize,
        ad: Adornment,
    ) -> Sym {
        self.buf.clear();
        let _ = write!(self.buf, "sup_{rule}_{pos}__{ad}");
        store.sym(&self.buf)
    }
}
