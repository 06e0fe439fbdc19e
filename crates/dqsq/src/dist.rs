//! Distributed evaluation of dDatalog programs (paper §3.2, "naive
//! distributed evaluation").
//!
//! Each peer hosts the rules whose head lives at its site, owns a private
//! [`TermStore`] and database, and evaluates locally with the semi-naive
//! engine. A body atom whose relation lives elsewhere triggers a
//! *subscription*: the owner streams the relation's current tuples and
//! every tuple it derives later. The network quiesces exactly when no peer
//! can derive anything new — the distributed fixpoint — which the
//! transports detect (the sim by draining its queues, the threaded runtime
//! with its counting termination detector).
//!
//! Because the dQSQ rewriting produces an ordinary dDatalog program, *this
//! same runtime executes both* distributed-naive evaluation of the original
//! program and the dQSQ evaluation of the rewritten one; only the program
//! differs. That is the paper's point: the optimization is a rewrite, not a
//! new execution engine.
//!
//! A peer works in *activations* ([`PeerLogic`]): the transport hands it
//! every message waiting for it, and the peer only applies them — tuple
//! batches to its database, subscriptions to its subscriber list. When the
//! activation ends, the peer resumes its fixpoint once if anything was new
//! and then sends each subscriber one message, carrying a batch for every
//! relation of its subscription that grew. So the cost of a round trip is
//! paid per activation, not per message.
//!
//! Terms cross a channel once. Each directed channel carries a term
//! dictionary: a tuple batch defines the terms it is the first to ship,
//! children first, each under the channel's next unused id, and its rows
//! are those ids. The receiver applies batches in their channel order, so
//! every id it reads is defined. The paper's channels are FIFO; a batch
//! that overtakes its predecessor anyway waits until the predecessor
//! arrives, and a run that quiesces with one still waiting ends in
//! [`DistError::ChannelGap`].
//!
//! Rules do not travel: [`build_peers`] copies each peer's rules from the
//! program's store into the peer's private store by term id.

use rescue_datalog::{
    Atom, Diseq, EvalBudget, EvalError, EvalOptions, EvalSession, EvalStats, ExportedTerm, Peer,
    PredId, Program, Relation, Rows, Rule, Sym, TermData, TermId, TermStore,
};
use rescue_net::sim::{SimConfig, SimNet};
use rescue_net::{NetError, NetStats, NodeId, Outbox, PeerLogic};
use rescue_telemetry::{merged, Collector};
use rustc_hash::FxHashMap;
use std::collections::BTreeMap;
use std::fmt;

/// Wire messages of the distributed evaluation protocol.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DMsg {
    /// "Send me `name@peer` for every name in `names`, now and whenever
    /// they grow." One message lists every relation the sender reads from
    /// `peer`.
    Subscribe { peer: String, names: Vec<String> },
    /// The batches one activation of the sender has for the receiver, one
    /// per relation that grew, in channel order.
    Tuples(Vec<TupleBatch>),
}

/// A batch of tuples of `name@peer`, the `seq`-th tuple batch on its
/// channel (counting from 0).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TupleBatch {
    pub name: String,
    pub peer: String,
    pub seq: u64,
    /// The terms this batch is the first on its channel to ship, children
    /// first. Each takes the channel's next unused id.
    pub defs: Vec<TermDef>,
    /// The tuples, as channel term ids.
    pub rows: Vec<Vec<u32>>,
}

/// One term defined on a channel, its children given by channel id.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TermDef {
    Const(String),
    App(String, Vec<u32>),
}

/// Bytes of `n` as an LEB128 varint.
fn varint(n: u64) -> usize {
    (64 - (n | 1).leading_zeros() as usize).div_ceil(7)
}

fn ids_size(ids: &[u32]) -> usize {
    ids.iter().map(|&i| varint(i.into())).sum()
}

/// Size estimate for network byte accounting.
///
/// Deliberately excluded: the per-message flow id, Lamport clock, and
/// send `Instant` the telemetry transports attach in their channel tuples
/// (`(from, flow, lamport, sent, msg)` in `rescue-net`). All are tracing
/// instrumentation — they exist only while a collector is enabled and
/// would not be serialized on a real wire — and counting them would make
/// the paper-facing byte totals depend on whether a run was traced. Byte
/// accounting measures the protocol, not the harness.
///
/// A message counts one tag byte. A term definition counts one tag byte
/// plus its symbol's bytes. Ids, counts and sequence numbers count as
/// LEB128 varints. A row's arity is its relation's, so only the row count
/// is sent. So a message of `k` batches counts
/// `1 + varint(k) + Σ batch`, where a batch counts its name and peer
/// bytes, `varint(seq)`, its definitions with their count and its rows
/// with their count.
pub fn dmsg_size(msg: &DMsg) -> usize {
    match msg {
        DMsg::Subscribe { peer, names } => {
            1 + peer.len()
                + varint(names.len() as u64)
                + names.iter().map(String::len).sum::<usize>()
        }
        DMsg::Tuples(batches) => {
            let def_size = |d: &TermDef| match d {
                TermDef::Const(c) => 1 + c.len(),
                TermDef::App(f, kids) => 1 + f.len() + varint(kids.len() as u64) + ids_size(kids),
            };
            let batch_size = |b: &TupleBatch| {
                b.name.len()
                    + b.peer.len()
                    + varint(b.seq)
                    + varint(b.defs.len() as u64)
                    + b.defs.iter().map(def_size).sum::<usize>()
                    + varint(b.rows.len() as u64)
                    + b.rows.iter().map(|r| ids_size(r)).sum::<usize>()
            };
            1 + varint(batches.len() as u64) + batches.iter().map(batch_size).sum::<usize>()
        }
    }
}

/// The sending end of one directed channel.
#[derive(Default)]
struct ChannelOut {
    /// Every term defined on the channel, by the id it took.
    ids: FxHashMap<TermId, u32>,
    next_seq: u64,
}

impl ChannelOut {
    /// `rows` of `pred` as the channel's next batch.
    fn batch(&mut self, store: &TermStore, pred: PredId, rows: Rows<'_>) -> TupleBatch {
        let mut defs = Vec::new();
        let rows = (rows.iter())
            .map(|row| row.iter().map(|&t| self.id(store, t, &mut defs)).collect())
            .collect();
        self.next_seq += 1;
        TupleBatch {
            name: store.sym_str(pred.name).to_owned(),
            peer: store.sym_str(pred.peer.0).to_owned(),
            seq: self.next_seq - 1,
            defs,
            rows,
        }
    }

    /// The channel id of `t`, defining it (its undefined children first)
    /// in `defs` if the channel has not carried it yet.
    fn id(&mut self, store: &TermStore, t: TermId, defs: &mut Vec<TermDef>) -> u32 {
        if let Some(&id) = self.ids.get(&t) {
            return id;
        }
        let def = match store.data(t) {
            TermData::Const(c) => TermDef::Const(store.sym_str(*c).to_owned()),
            TermData::App(f, args) => {
                let kids = args.iter().map(|&a| self.id(store, a, defs)).collect();
                TermDef::App(store.sym_str(*f).to_owned(), kids)
            }
            TermData::Var(_) => unreachable!("stored tuples are ground"),
        };
        let id = self.ids.len() as u32;
        self.ids.insert(t, id);
        defs.push(def);
        id
    }
}

/// The receiving end of one directed channel.
#[derive(Default)]
struct ChannelIn {
    /// The local term behind each channel id.
    terms: Vec<TermId>,
    /// The sequence number of the batch due next.
    next_seq: u64,
    /// Batches that overtook the one due, by sequence number. Only a
    /// transport that breaks per-channel FIFO ever puts one here.
    held: BTreeMap<u64, TupleBatch>,
}

impl ChannelIn {
    /// `batch` if it is due; otherwise it is held back until it is.
    fn due(&mut self, batch: TupleBatch) -> Option<TupleBatch> {
        if batch.seq == self.next_seq {
            return Some(batch);
        }
        debug_assert!(batch.seq > self.next_seq, "tuple batch delivered twice");
        self.held.insert(batch.seq, batch);
        None
    }

    /// Define the due `batch`'s terms in `store` and return its rows as
    /// local terms. The batch after it becomes due.
    fn decode(&mut self, batch: &TupleBatch, store: &mut TermStore) -> Vec<Box<[TermId]>> {
        debug_assert_eq!(batch.seq, self.next_seq);
        self.next_seq += 1;
        for def in &batch.defs {
            let t = match def {
                TermDef::Const(c) => store.constant(c),
                TermDef::App(f, kids) => {
                    let args = kids.iter().map(|&k| self.terms[k as usize]).collect();
                    store.app(f, args)
                }
            };
            self.terms.push(t);
        }
        let local = |row: &Vec<u32>| row.iter().map(|&k| self.terms[k as usize]).collect();
        batch.rows.iter().map(local).collect()
    }

    /// The held batch that is due now, if it has arrived.
    fn next_held(&mut self) -> Option<TupleBatch> {
        self.held.remove(&self.next_seq)
    }
}

/// Errors from a distributed run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DistError {
    Net(NetError),
    /// A peer's local evaluation exhausted its budget.
    Eval {
        peer: String,
        error: EvalError,
    },
    /// The run quiesced while peer `to` held back tuple batches from `from`
    /// behind batch `missing`, which never arrived. The protocol assumes
    /// every channel delivers each message once and in order (per-channel
    /// FIFO); without that batch the model would be incomplete.
    ChannelGap {
        from: String,
        to: String,
        missing: u64,
    },
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::Net(e) => write!(f, "network: {e}"),
            DistError::Eval { peer, error } => write!(f, "peer {peer}: {error}"),
            DistError::ChannelGap { from, to, missing } => write!(
                f,
                "channel {from} -> {to} quiesced without tuple batch {missing}, \
                 with later ones held back: dQSQ assumes per-channel FIFO delivery"
            ),
        }
    }
}

impl std::error::Error for DistError {}

impl From<NetError> for DistError {
    fn from(e: NetError) -> Self {
        DistError::Net(e)
    }
}

fn pred(store: &mut TermStore, name: &str, peer: &str) -> PredId {
    PredId {
        name: store.sym(name),
        peer: Peer(store.sym(peer)),
    }
}

fn export_row(store: &TermStore, row: &[TermId]) -> Vec<ExportedTerm> {
    row.iter().map(|&t| store.export(t)).collect()
}

/// One peer of the distributed evaluation.
pub struct EvalPeer {
    name: String,
    directory: FxHashMap<String, NodeId>,
    store: TermStore,
    /// The peer's resumable local fixpoint: its rules, database, saturation
    /// watermarks, accumulated statistics and compiled plans.
    /// It is the object an online `DiagnosisSession` resumes per alarm; a
    /// peer resumes it per activation, so the two share one resume path
    /// whose cost follows the input, not the program.
    session: EvalSession,
    /// The relations this peer reads remotely, grouped by owner peer.
    remote_deps: Vec<(String, Vec<String>)>,
    /// Per subscriber, the relations it reads here, each with the number
    /// of its rows already sent to it.
    subscribers: BTreeMap<NodeId, Vec<(PredId, usize)>>,
    /// Term dictionaries of the channels this peer sends / receives on.
    outbound: FxHashMap<NodeId, ChannelOut>,
    inbound: FxHashMap<NodeId, ChannelIn>,
    /// Whether this activation applied a tuple that was new here.
    pending: bool,
    error: Option<EvalError>,
    /// Tuples this peer sent (for experiment reporting).
    tuples_sent: u64,
    /// Term definitions this peer sent, over all its channels.
    terms_defined: u64,
}

impl EvalPeer {
    /// Build a peer named `name` hosting `program`, whose terms live in
    /// `store` (the peer's private store; every rule head must be at
    /// `name`).
    pub fn new(
        name: &str,
        program: Program,
        store: TermStore,
        directory: FxHashMap<String, NodeId>,
        budget: EvalBudget,
    ) -> Self {
        let mut remote_deps: Vec<(String, Vec<String>)> = Vec::new();
        for rule in &program.rules {
            debug_assert_eq!(
                store.sym_str(rule.site().0),
                name,
                "rule hosted at wrong site"
            );
            for atom in &rule.body {
                let owner = store.sym_str(atom.pred.peer.0);
                if owner == name {
                    continue;
                }
                let rel = store.sym_str(atom.pred.name).to_owned();
                match remote_deps.iter_mut().find(|(o, _)| o == owner) {
                    Some((_, names)) if names.contains(&rel) => {}
                    Some((_, names)) => names.push(rel),
                    None => remote_deps.push((owner.to_owned(), vec![rel])),
                }
            }
        }
        EvalPeer {
            name: name.to_owned(),
            directory,
            store,
            session: EvalSession::idle(program, budget),
            remote_deps,
            subscribers: BTreeMap::new(),
            outbound: FxHashMap::default(),
            inbound: FxHashMap::default(),
            pending: false,
            error: None,
            tuples_sent: 0,
            terms_defined: 0,
        }
    }

    /// Set the engine options for this peer's local fixpoints. Their
    /// collector also receives one `fixpoint@<name>` span per fixpoint,
    /// with the engine's rounds nested beneath.
    pub fn set_eval_options(&mut self, eval: EvalOptions) {
        self.session.set_options(eval);
    }

    /// This peer's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The local evaluation error, if any.
    pub fn error(&self) -> Option<&EvalError> {
        self.error.as_ref()
    }

    /// Accumulated local evaluation statistics.
    pub fn stats(&self) -> &EvalStats {
        self.session.total_stats()
    }

    pub fn tuples_sent(&self) -> u64 {
        self.tuples_sent
    }

    /// Terms this peer defined on its channels: each distinct term it
    /// shipped, counted once per channel that carried it.
    pub fn terms_defined(&self) -> u64 {
        self.terms_defined
    }

    /// The first channel into this peer left with a gap: a tuple batch
    /// held back behind one that never arrived.
    fn gap(&self) -> Option<DistError> {
        let (from, missing) = (self.inbound.iter())
            .filter(|(_, ch)| !ch.held.is_empty())
            .map(|(&from, ch)| (from, ch.next_seq))
            .min()?;
        let name = self.directory.iter().find(|(_, &n)| n == from);
        Some(DistError::ChannelGap {
            from: name.map_or_else(|| from.to_string(), |(s, _)| s.clone()),
            to: self.name.clone(),
            missing,
        })
    }

    fn run_local_fixpoint(&mut self) {
        if self.error.is_some() {
            return;
        }
        let collector = &self.session.options().collector;
        let mut peer_span = collector
            .is_enabled()
            .then(|| collector.span(format!("fixpoint@{}", self.name), "dqsq"));
        match self.session.resume(&mut self.store, []) {
            Ok(s) => {
                if let Some(sp) = peer_span.as_mut() {
                    sp.arg("facts_derived", s.facts_derived as u64);
                }
            }
            Err(e) => self.error = Some(e),
        }
    }

    /// Send each subscriber one message with a batch for every relation
    /// of its subscription that has rows it was not sent yet.
    fn flush(&mut self, out: &mut Outbox<DMsg>) {
        let db = self.session.database();
        for (&node, relations) in &mut self.subscribers {
            let mut batches = Vec::new();
            for (pred, sent) in relations.iter_mut() {
                let len = db.count(*pred);
                if *sent >= len {
                    continue;
                }
                let rows = db.relation(*pred).expect("nonzero count implies relation");
                let channel = self.outbound.entry(node).or_default();
                let batch = channel.batch(&self.store, *pred, rows.rows().range(*sent, len));
                *sent = len;
                self.tuples_sent += batch.rows.len() as u64;
                self.terms_defined += batch.defs.len() as u64;
                batches.push(batch);
            }
            if !batches.is_empty() {
                out.send(node, DMsg::Tuples(batches));
            }
        }
    }

    /// Take in a tuple batch from `from`, and every held batch it makes
    /// due; `true` if any of their tuples is new here.
    fn receive(&mut self, from: NodeId, batch: TupleBatch) -> bool {
        let channel = self.inbound.entry(from).or_default();
        let mut any_new = false;
        let mut due = channel.due(batch);
        while let Some(batch) = due {
            let pred = pred(&mut self.store, &batch.name, &batch.peer);
            for row in channel.decode(&batch, &mut self.store) {
                if !self.session.database().contains(pred, &row) {
                    any_new = true;
                    self.session.push_fact(pred, row);
                }
            }
            due = channel.next_held();
        }
        any_new
    }

    /// The stored relation `name@peer`, if this peer has any row of it.
    fn relation(&self, name: &str, peer: &str) -> Option<&Relation> {
        let pred = PredId {
            name: self.store.sym_get(name)?,
            peer: Peer(self.store.sym_get(peer)?),
        };
        self.session.database().relation(pred)
    }

    /// Rows of `name@peer` currently stored at this peer, exported.
    pub fn facts_of(&self, name: &str, peer: &str) -> Vec<Vec<ExportedTerm>> {
        self.relation(name, peer).map_or(Vec::new(), |rel| {
            let rows = rel.rows().iter();
            rows.map(|r| export_row(&self.store, r)).collect()
        })
    }

    /// The relations this peer *owns* (peer column == this peer), in
    /// predicate order. Cached copies of remote relations are excluded —
    /// they are the owner's facts, shipped here.
    fn owned(&self) -> impl Iterator<Item = (&str, &Relation)> {
        let db = self.session.database();
        db.predicates()
            .into_iter()
            .filter(|pred| self.store.sym_str(pred.peer.0) == self.name)
            .map(move |pred| {
                let rel = db.relation(pred).expect("listed predicate exists");
                (self.store.sym_str(pred.name), rel)
            })
    }

    /// Facts of the relations this peer owns, as `(name, rows)` pairs.
    pub fn owned_facts(&self) -> Vec<(String, Vec<Vec<ExportedTerm>>)> {
        self.owned()
            .map(|(name, _)| (name.to_owned(), self.facts_of(name, &self.name)))
            .collect()
    }

    /// `(name, row count)` of the relations this peer owns: what
    /// [`owned_facts`](Self::owned_facts) would list, without exporting a
    /// single term.
    pub fn owned_counts(&self) -> Vec<(&str, usize)> {
        self.owned().map(|(name, rel)| (name, rel.len())).collect()
    }

    /// Column `col` of the owned relation `name`, exported row by row
    /// (empty when this peer owns no such relation).
    pub fn owned_column(&self, name: &str, col: usize) -> Vec<ExportedTerm> {
        self.relation(name, &self.name).map_or(Vec::new(), |rel| {
            let rows = rel.rows().iter();
            rows.map(|r| self.store.export(r[col])).collect()
        })
    }

    /// Number of facts this peer owns / caches.
    pub fn fact_counts(&self) -> (usize, usize) {
        let mut owned = 0;
        let mut cached = 0;
        let db = self.session.database();
        for pred in db.predicates() {
            let n = db.count(pred);
            if self.store.sym_str(pred.peer.0) == self.name {
                owned += n;
            } else {
                cached += n;
            }
        }
        (owned, cached)
    }
}

impl PeerLogic<DMsg> for EvalPeer {
    fn on_start(&mut self, out: &mut Outbox<DMsg>) {
        self.run_local_fixpoint();
        for (peer, names) in &self.remote_deps {
            let Some(&node) = self.directory.get(peer) else {
                // Unknown peer: the relations stay empty, matching a site
                // that never answers.
                continue;
            };
            let (peer, names) = (peer.clone(), names.clone());
            out.send(node, DMsg::Subscribe { peer, names });
        }
    }

    fn on_message(&mut self, from: NodeId, msg: DMsg, _out: &mut Outbox<DMsg>) {
        match msg {
            DMsg::Subscribe { peer, names } => {
                debug_assert_eq!(peer, self.name, "subscription for a relation we don't own");
                let relations = self.subscribers.entry(from).or_default();
                for name in &names {
                    let pred = pred(&mut self.store, name, &peer);
                    if !relations.iter().any(|&(p, _)| p == pred) {
                        relations.push((pred, 0));
                    }
                }
            }
            DMsg::Tuples(batches) => {
                for batch in batches {
                    self.pending |= self.receive(from, batch);
                }
            }
        }
    }

    /// Resume once if the activation brought anything new, then answer
    /// new subscriptions and ship what grew.
    fn on_activation_end(&mut self, out: &mut Outbox<DMsg>) {
        if std::mem::take(&mut self.pending) {
            self.run_local_fixpoint();
        }
        self.flush(out);
    }
}

/// Options for a distributed run.
#[derive(Clone, Debug, Default)]
pub struct DistOptions {
    pub budget: EvalBudget,
    pub sim: SimConfig,
    /// Telemetry sink shared by the transport and every peer's local
    /// engine (disabled by default).
    pub collector: Collector,
    /// Engine options applied to every peer's local fixpoints, but for
    /// their collector: a peer records into `collector` above, or into its
    /// own recording under `per_peer_trace`.
    pub eval: EvalOptions,
    /// Give every peer its *own* collector (namespaced flow ids, Lamport
    /// clocks on the envelopes). The run then carries one recording per
    /// peer in [`DistRun::recordings`], ready for
    /// `rescue_telemetry::merge` and the `--peer-stats` dashboard. The
    /// shared `collector` keeps receiving run-level events (rewrite
    /// spans, the final [`NetStats`] fold).
    pub per_peer_trace: bool,
}

/// The completed state of a distributed run.
pub struct DistRun {
    pub peers: Vec<EvalPeer>,
    pub net: NetStats,
    /// Per-peer recordings, in peer order; nonempty only when the run was
    /// started with [`DistOptions::per_peer_trace`].
    pub recordings: Vec<(String, Collector)>,
}

impl DistRun {
    /// Locate the peer named `name`.
    pub fn peer(&self, name: &str) -> Option<&EvalPeer> {
        self.peers.iter().find(|p| p.name() == name)
    }

    /// Facts of `name@peer` as stored at the owner.
    pub fn facts_of(&self, name: &str, peer: &str) -> Vec<Vec<ExportedTerm>> {
        self.peer(peer)
            .map(|p| p.facts_of(name, peer))
            .unwrap_or_default()
    }

    /// Total facts owned across peers (each fact counted once, at its
    /// owner) and total cached copies (the shipped-tuple overhead).
    pub fn fact_totals(&self) -> (usize, usize) {
        let mut owned = 0;
        let mut cached = 0;
        for p in &self.peers {
            let (o, c) = p.fact_counts();
            owned += o;
            cached += c;
        }
        (owned, cached)
    }

    /// First peer-level evaluation error, if any.
    pub fn first_error(&self) -> Option<DistError> {
        self.peers.iter().find_map(|p| {
            p.error().map(|e| DistError::Eval {
                peer: p.name().to_owned(),
                error: e.clone(),
            })
        })
    }

    /// Aggregate local-engine statistics over all peers.
    pub fn total_stats(&self) -> EvalStats {
        merged(self.peers.iter().map(|p| p.stats()))
    }

    /// Dashboard rows from the per-peer recordings (empty unless the run
    /// used [`DistOptions::per_peer_trace`]).
    pub fn peer_stats(&self) -> Vec<rescue_telemetry::merge::PeerStat> {
        rescue_telemetry::merge::peer_stats(&self.recordings)
    }

    /// Causally merge the per-peer recordings into one multi-process
    /// Chrome trace; `None` unless the run used
    /// [`DistOptions::per_peer_trace`].
    pub fn merged_trace(&self) -> Option<rescue_telemetry::merge::MergedTrace> {
        if self.recordings.is_empty() {
            return None;
        }
        Some(rescue_telemetry::merge::merge_traces(&self.recordings))
    }
}

/// One enabled collector per peer, flow ids namespaced by peer index so
/// merged traces never collide. Peer fact counts are folded in after the
/// run (see [`record_peer_facts`]).
fn per_peer_collectors(peers: &[EvalPeer]) -> Vec<(String, Collector)> {
    peers
        .iter()
        .enumerate()
        .map(|(i, p)| {
            (
                p.name().to_owned(),
                Collector::with_namespace(rescue_telemetry::DEFAULT_EVENT_CAPACITY, i as u64 + 1),
            )
        })
        .collect()
}

/// Stamp each peer's final owned/cached fact counts into its collector,
/// so the dashboard reads everything from one recording.
fn record_peer_facts(peers: &[EvalPeer], recordings: &[(String, Collector)]) {
    use rescue_telemetry::merge::keys;
    for (p, (_, c)) in peers.iter().zip(recordings) {
        let (owned, cached) = p.fact_counts();
        c.count(keys::FACTS_OWNED, owned as u64);
        c.count(keys::FACTS_CACHED, cached as u64);
    }
}

/// A peer's private store under construction: terms of the program's
/// store are copied in by id, children first, each once.
struct LocalStore<'a> {
    from: &'a TermStore,
    store: TermStore,
    program: Program,
    /// The local id of every term and symbol copied so far.
    terms: FxHashMap<TermId, TermId>,
    syms: FxHashMap<Sym, Sym>,
}

impl<'a> LocalStore<'a> {
    fn new(from: &'a TermStore) -> Self {
        LocalStore {
            from,
            store: TermStore::new(),
            program: Program::new(),
            terms: FxHashMap::default(),
            syms: FxHashMap::default(),
        }
    }

    fn sym(&mut self, s: Sym) -> Sym {
        let (from, store) = (self.from, &mut self.store);
        *self
            .syms
            .entry(s)
            .or_insert_with(|| store.sym(from.sym_str(s)))
    }

    fn term(&mut self, t: TermId) -> TermId {
        if let Some(&local) = self.terms.get(&t) {
            return local;
        }
        let from = self.from;
        let local = match from.data(t) {
            TermData::Const(c) => {
                let c = self.sym(*c);
                self.store.const_sym(c)
            }
            TermData::Var(v) => {
                let v = self.sym(*v);
                self.store.var_sym(v)
            }
            TermData::App(f, args) => {
                let args = args.iter().map(|&a| self.term(a)).collect();
                let f = self.sym(*f);
                self.store.app_sym(f, args)
            }
        };
        self.terms.insert(t, local);
        local
    }

    fn atom(&mut self, atom: &Atom) -> Atom {
        let pred = PredId {
            name: self.sym(atom.pred.name),
            peer: Peer(self.sym(atom.pred.peer.0)),
        };
        Atom {
            pred,
            args: atom.args.iter().map(|&a| self.term(a)).collect(),
            negated: atom.negated,
        }
    }

    fn push(&mut self, rule: &Rule) {
        let rule = Rule {
            head: self.atom(&rule.head),
            body: rule.body.iter().map(|a| self.atom(a)).collect(),
            diseqs: (rule.diseqs.iter())
                .map(|d| Diseq {
                    lhs: self.term(d.lhs),
                    rhs: self.term(d.rhs),
                })
                .collect(),
        };
        self.program.push(rule);
    }
}

/// Partition `program` by site and build the peer set (deterministic
/// order: peer names sorted). Each peer's rules are copied into its own
/// store.
pub fn build_peers(
    program: &Program,
    store: &TermStore,
    budget: EvalBudget,
) -> (Vec<EvalPeer>, FxHashMap<String, NodeId>) {
    let mut sites = program.peers();
    sites.sort_by_key(|p| store.sym_str(p.0));
    let directory: FxHashMap<String, NodeId> = (sites.iter().enumerate())
        .map(|(i, p)| (store.sym_str(p.0).to_owned(), NodeId(i)))
        .collect();
    let mut locals: Vec<LocalStore> = sites.iter().map(|_| LocalStore::new(store)).collect();
    for rule in &program.rules {
        let site = sites.iter().position(|&p| p == rule.site());
        locals[site.expect("a rule's site is a program peer")].push(rule);
    }
    let peers = (sites.iter().zip(locals))
        .map(|(p, local)| {
            let name = store.sym_str(p.0);
            EvalPeer::new(name, local.program, local.store, directory.clone(), budget)
        })
        .collect();
    (peers, directory)
}

/// Build the peer set of a run under `opts`: every peer gets the run's
/// engine options and its collector — its own recording (returned, in
/// peer order) under [`DistOptions::per_peer_trace`], else the shared one.
fn configured_peers(
    program: &Program,
    store: &TermStore,
    opts: &DistOptions,
) -> (Vec<EvalPeer>, Vec<(String, Collector)>) {
    let (mut peers, _) = build_peers(program, store, opts.budget);
    let recordings = if opts.per_peer_trace {
        per_peer_collectors(&peers)
    } else {
        Vec::new()
    };
    for (i, p) in peers.iter_mut().enumerate() {
        let collector = recordings.get(i).map_or(&opts.collector, |(_, c)| c);
        p.set_eval_options(EvalOptions {
            collector: collector.clone(),
            ..opts.eval.clone()
        });
    }
    (peers, recordings)
}

/// What both transports do once the network has quiesced.
fn finish_run(
    peers: Vec<EvalPeer>,
    net: NetStats,
    recordings: Vec<(String, Collector)>,
) -> Result<DistRun, DistError> {
    record_peer_facts(&peers, &recordings);
    let run = DistRun {
        peers,
        net,
        recordings,
    };
    let gap = || run.peers.iter().find_map(EvalPeer::gap);
    match run.first_error().or_else(gap) {
        Some(e) => Err(e),
        None => Ok(run),
    }
}

/// Run the distributed naive evaluation of `program` on the simulated
/// network until the distributed fixpoint.
pub fn run_distributed(
    program: &Program,
    store: &TermStore,
    opts: &DistOptions,
) -> Result<DistRun, DistError> {
    let (peers, recordings) = configured_peers(program, store, opts);
    let mut net = SimNet::new(peers, opts.sim, dmsg_size);
    net.set_collector(opts.collector.clone());
    if !recordings.is_empty() {
        net.set_peer_collectors(recordings.iter().map(|(_, c)| c.clone()).collect());
    }
    let stats = net.run()?;
    finish_run(net.into_peers(), stats, recordings)
}

/// Same as [`run_distributed`] but on real threads (crossbeam transport),
/// untraced and under default engine options.
pub fn run_distributed_threaded(
    program: &Program,
    store: &TermStore,
    budget: EvalBudget,
) -> Result<DistRun, DistError> {
    let opts = DistOptions {
        budget,
        ..Default::default()
    };
    run_distributed_threaded_opts(program, store, &opts)
}

/// [`run_distributed`] on real threads: everything in `opts` but `sim`
/// applies. Each peer thread records its local fixpoints and the transport
/// records per-message flows, into `opts.collector` or — under
/// [`DistOptions::per_peer_trace`] — into one namespaced recording per
/// peer (Lamport clocks on every envelope), which the run brings back in
/// [`DistRun::recordings`] for causal merging; `opts.collector` still
/// receives the run-level [`NetStats`] fold.
pub fn run_distributed_threaded_opts(
    program: &Program,
    store: &TermStore,
    opts: &DistOptions,
) -> Result<DistRun, DistError> {
    let (peers, recordings) = configured_peers(program, store, opts);
    let collectors = if recordings.is_empty() {
        vec![opts.collector.clone(); peers.len()]
    } else {
        recordings.iter().map(|(_, c)| c.clone()).collect()
    };
    let (peers, stats) = rescue_net::threaded::run_threaded_collectors(
        peers,
        dmsg_size,
        collectors,
        &opts.collector,
    )?;
    finish_run(peers, stats, recordings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescue_datalog::{parse_program, Database};

    const FIG3_WITH_DATA: &str = r#"
        R@r(X, Y) :- A@r(X, Y).
        R@r(X, Y) :- S@s(X, Z), T@t(Z, Y).
        S@s(X, Y) :- R@r(X, Y), B@s(Y, Z).
        T@t(X, Y) :- C@t(X, Y).
        A@r(n1, n2).
        B@s(n2, m2).
        C@t(n2, n3).
        B@s(n3, m3).
        C@t(n3, n4).
    "#;

    fn expected_r() -> Vec<Vec<String>> {
        // R = A ∪ S;T. S(x,y) ⇐ R(x,y) ∧ B(y,_); T = C.
        // R(n1,n2) [A]; S(n1,n2) [B(n2,m2)]; R(n1,n3) [S(n1,n2),T(n2,n3)];
        // S(n1,n3) [B(n3,m3)]; R(n1,n4) [T(n3,n4)].
        vec![
            vec!["n1".into(), "n2".into()],
            vec!["n1".into(), "n3".into()],
            vec!["n1".into(), "n4".into()],
        ]
    }

    fn rows_to_strings(rows: Vec<Vec<ExportedTerm>>) -> Vec<Vec<String>> {
        let mut v: Vec<Vec<String>> = rows
            .into_iter()
            .map(|r| {
                r.into_iter()
                    .map(|t| match t {
                        ExportedTerm::Const(c) => c,
                        other => format!("{other:?}"),
                    })
                    .collect()
            })
            .collect();
        v.sort();
        v
    }

    #[test]
    fn distributed_matches_centralized() {
        let mut st = TermStore::new();
        let prog = parse_program(FIG3_WITH_DATA, &mut st).unwrap();
        let run = run_distributed(&prog, &st, &DistOptions::default()).unwrap();
        assert_eq!(rows_to_strings(run.facts_of("R", "r")), expected_r());
        assert!(run.net.messages > 0);
    }

    #[test]
    fn distributed_deterministic_per_seed_and_stable_across_seeds() {
        let mut st = TermStore::new();
        let prog = parse_program(FIG3_WITH_DATA, &mut st).unwrap();
        let mut results = Vec::new();
        for seed in [1, 2, 3] {
            let opts = DistOptions {
                sim: SimConfig {
                    seed,
                    ..Default::default()
                },
                ..Default::default()
            };
            let run = run_distributed(&prog, &st, &opts).unwrap();
            results.push(rows_to_strings(run.facts_of("R", "r")));
        }
        // The fixpoint is interleaving-independent.
        assert_eq!(results[0], expected_r());
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
    }

    #[test]
    fn threaded_matches_sim() {
        let mut st = TermStore::new();
        let prog = parse_program(FIG3_WITH_DATA, &mut st).unwrap();
        let sim = run_distributed(&prog, &st, &DistOptions::default()).unwrap();
        let thr = run_distributed_threaded(&prog, &st, EvalBudget::default()).unwrap();
        assert_eq!(
            rows_to_strings(sim.facts_of("R", "r")),
            rows_to_strings(thr.facts_of("R", "r"))
        );
    }

    #[test]
    fn owned_vs_cached_accounting() {
        let mut st = TermStore::new();
        let prog = parse_program(FIG3_WITH_DATA, &mut st).unwrap();
        let run = run_distributed(&prog, &st, &DistOptions::default()).unwrap();
        let (owned, cached) = run.fact_totals();
        // Owned: A(1) B(2) C(2) R(3) S(2) T(2) = 12.
        assert_eq!(owned, 12);
        // r reads S@s and T@t (5 tuples); s reads R@r (3); t reads nothing.
        assert_eq!(cached, 4 + 3);
    }

    #[test]
    fn per_peer_trace_produces_mergeable_recordings() {
        let mut st = TermStore::new();
        let prog = parse_program(FIG3_WITH_DATA, &mut st).unwrap();
        let opts = DistOptions {
            per_peer_trace: true,
            ..Default::default()
        };
        let run = run_distributed(&prog, &st, &opts).unwrap();
        assert_eq!(run.recordings.len(), 3, "one recording per peer");
        assert_eq!(rows_to_strings(run.facts_of("R", "r")), expected_r());

        let merged = run.merged_trace().expect("recordings present");
        assert_eq!(merged.unresolved, 0, "causal constraints all satisfied");
        assert!(merged.cross_flows > 0, "cross-peer messages were traced");
        let summary = rescue_telemetry::json::validate_trace(&merged.json).unwrap();
        assert_eq!(summary.processes, 3, "each peer is its own process row");
        assert_eq!(summary.unmatched_sends, 0, "every flow pairs exactly once");
        assert_eq!(summary.flow_sends, summary.flow_recvs);

        let stats = run.peer_stats();
        assert_eq!(stats.len(), 3);
        let total_owned: u64 = stats.iter().map(|s| s.facts_owned).sum();
        let total_cached: u64 = stats.iter().map(|s| s.facts_cached).sum();
        let (owned, cached) = run.fact_totals();
        assert_eq!(total_owned, owned as u64);
        assert_eq!(total_cached, cached as u64);
        let sent: u64 = stats.iter().map(|s| s.msgs_sent).sum();
        assert_eq!(sent, run.net.messages as u64);
        let table = rescue_telemetry::merge::peer_table(&stats);
        assert!(table.contains("peer"), "dashboard header present");
        for (name, _) in &run.recordings {
            assert!(table.contains(name.as_str()), "row for peer {name}");
        }
    }

    #[test]
    fn threaded_per_peer_trace_merges_causally() {
        let mut st = TermStore::new();
        let prog = parse_program(FIG3_WITH_DATA, &mut st).unwrap();
        let opts = DistOptions {
            per_peer_trace: true,
            ..Default::default()
        };
        let run = run_distributed_threaded_opts(&prog, &st, &opts).unwrap();
        assert_eq!(rows_to_strings(run.facts_of("R", "r")), expected_r());
        assert_eq!(run.recordings.len(), 3);
        let merged = run.merged_trace().expect("recordings present");
        assert_eq!(merged.unresolved, 0);
        let summary = rescue_telemetry::json::validate_trace(&merged.json).unwrap();
        assert_eq!(summary.processes, 3);
        assert_eq!(summary.unmatched_sends, 0);
    }

    #[test]
    fn budget_error_surfaces_with_peer_name() {
        let src = r#"
            Seed@a(c0).
            Grow@b(f(X)) :- Seed@a(X).
            Grow@b(f(X)) :- Grow@b(X).
        "#;
        let mut st = TermStore::new();
        let prog = parse_program(src, &mut st).unwrap();
        let opts = DistOptions {
            budget: EvalBudget {
                max_facts: 20,
                ..Default::default()
            },
            ..Default::default()
        };
        let err = match run_distributed(&prog, &st, &opts) {
            Ok(_) => panic!("expected budget error"),
            Err(e) => e,
        };
        match err {
            DistError::Eval { peer, error } => {
                assert_eq!(peer, "b");
                assert!(matches!(error, EvalError::FactBudgetExceeded { .. }));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn a_negated_body_atom_reaches_its_peer_negated() {
        // Monotone tuple streaming cannot evaluate negation; the peer must
        // refuse the rule, not run it as the positive join.
        let src = r#"
            Node@a(x). Node@a(y). Reach@b(x).
            Un@a(X) :- Node@a(X), not Reach@b(X).
        "#;
        let mut st = TermStore::new();
        let prog = parse_program(src, &mut st).unwrap();
        match run_distributed(&prog, &st, &DistOptions::default()) {
            Err(DistError::Eval { peer, error }) => {
                assert_eq!(peer, "a");
                assert_eq!(error, EvalError::NegationRequiresStratification);
            }
            Err(other) => panic!("unexpected error {other:?}"),
            Ok(run) => panic!("negation ran as {:?}", run.facts_of("Un", "a")),
        }
    }

    /// `rows` of `name@peer`, stored in `store` through a database so the
    /// encoder reads them the way a peer does.
    fn rows_of(store: &mut TermStore, name: &str, peer: &str, rows: &[&str]) -> (PredId, Database) {
        let src: String = rows
            .iter()
            .map(|r| format!("{name}@{peer}({r}).\n"))
            .collect();
        let prog = parse_program(&src, store).unwrap();
        let mut db = Database::new();
        for rule in &prog.rules {
            db.insert(rule.head.pred, &rule.head.args);
        }
        (prog.rules[0].head.pred, db)
    }

    fn batch_of(ch: &mut ChannelOut, store: &TermStore, pred: PredId, db: &Database) -> TupleBatch {
        ch.batch(store, pred, db.relation(pred).unwrap().rows())
    }

    #[test]
    fn channel_round_trips_shared_subterms_between_stores() {
        let mut a = TermStore::new();
        let (pred, db) = rows_of(
            &mut a,
            "R",
            "s",
            &["f(g(x), g(x)), h(g(x), y)", "h(g(x), y), f(g(x), g(x))"],
        );
        let mut out = ChannelOut::default();
        let batch = batch_of(&mut out, &a, pred, &db);
        // x, g(x), f(..), y, h(..): every distinct node once, children first.
        assert_eq!(batch.defs.len(), 5);
        assert_eq!(batch.defs[0], TermDef::Const("x".into()));
        assert_eq!(batch.defs[1], TermDef::App("g".into(), vec![0]));
        assert_eq!(batch.defs[2], TermDef::App("f".into(), vec![1, 1]));
        assert_eq!(batch.rows, vec![vec![2, 4], vec![4, 2]]);

        let mut b = TermStore::new();
        b.constant("unrelated");
        let mut inbound = ChannelIn::default();
        let batch = inbound.due(batch).expect("first batch is due");
        let got = inbound.decode(&batch, &mut b);
        let got: Vec<_> = got.iter().map(|r| export_row(&b, r)).collect();
        let sent: Vec<_> = (db.relation(pred).unwrap().rows().iter())
            .map(|r| export_row(&a, r))
            .collect();
        assert_eq!(got, sent);
        // Hash-consing holds across the boundary: one g(x) node in `b`.
        assert_eq!(b.len(), 1 + 5);
    }

    #[test]
    fn a_term_is_defined_at_most_once_per_channel() {
        let mut st = TermStore::new();
        let (pred, first) = rows_of(&mut st, "R", "s", &["f(a, b)", "f(b, a)"]);
        let (_, second) = rows_of(&mut st, "R", "s", &["f(a, b)", "g(f(b, a), c)"]);
        let mut to_r = ChannelOut::default();
        let b0 = batch_of(&mut to_r, &st, pred, &first);
        let b1 = batch_of(&mut to_r, &st, pred, &second);
        assert_eq!((b0.seq, b1.seq), (0, 1));
        // a, b, f(a,b), f(b,a); then only c and g(..).
        assert_eq!(b0.defs.len(), 4);
        assert_eq!(
            b1.defs,
            vec![
                TermDef::Const("c".into()),
                TermDef::App("g".into(), vec![3, 4])
            ]
        );
        assert_eq!(b1.rows, vec![vec![2], vec![5]]);
        // Another channel has its own dictionary and defines them again.
        let mut to_t = ChannelOut::default();
        assert_eq!(batch_of(&mut to_t, &st, pred, &second).defs.len(), 6);
        assert!(dmsg_size(&DMsg::Tuples(vec![b1.clone()])) < dmsg_size(&DMsg::Tuples(vec![b0])));
    }

    /// A peer `r` with no rules that reads tuples from `s`.
    fn receiver() -> EvalPeer {
        let directory = [("r".to_owned(), NodeId(0)), ("s".to_owned(), NodeId(1))];
        EvalPeer::new(
            "r",
            Program::new(),
            TermStore::new(),
            directory.into_iter().collect(),
            EvalBudget::default(),
        )
    }

    #[test]
    fn an_early_batch_waits_for_its_predecessor() {
        let mut st = TermStore::new();
        let (pred, first) = rows_of(&mut st, "R", "s", &["f(a)"]);
        let (_, second) = rows_of(&mut st, "R", "s", &["g(f(a))"]);
        let mut ch = ChannelOut::default();
        let (b0, b1) = (
            batch_of(&mut ch, &st, pred, &first),
            batch_of(&mut ch, &st, pred, &second),
        );
        let mut r = receiver();
        // b1 refers to f(a), which only b0 defines: it must wait.
        assert!(!r.receive(NodeId(1), b1));
        assert!(matches!(
            r.gap(),
            Some(DistError::ChannelGap { missing: 0, .. })
        ));
        assert!(r.receive(NodeId(1), b0));
        assert!(r.gap().is_none());
        r.run_local_fixpoint();
        let sent: Vec<_> = [&first, &second]
            .into_iter()
            .flat_map(|db| db.relation(pred).unwrap().rows().iter())
            .map(|row| export_row(&st, row))
            .collect();
        assert_eq!(rows_to_strings(r.facts_of("R", "s")), rows_to_strings(sent));
    }

    #[test]
    fn a_gap_left_at_quiescence_is_an_error_not_a_smaller_model() {
        let mut st = TermStore::new();
        let (pred, db) = rows_of(&mut st, "R", "s", &["a"]);
        let mut ch = ChannelOut::default();
        batch_of(&mut ch, &st, pred, &db); // lost in transit
        let late = batch_of(&mut ch, &st, pred, &db);
        let mut r = receiver();
        r.receive(NodeId(1), late);
        let err = match finish_run(vec![r], NetStats::default(), Vec::new()) {
            Err(e) => e,
            Ok(_) => panic!("a run with a gap must fail"),
        };
        assert_eq!(
            err,
            DistError::ChannelGap {
                from: "s".into(),
                to: "r".into(),
                missing: 0
            }
        );
        assert!(err.to_string().contains("per-channel FIFO"), "{err}");
    }

    /// `R@s` rows `f(a)`, `g(f(a))`, `h(g(f(a)))` and `k(b)` as four
    /// successive batches on one channel, and the rows they carry.
    fn four_batches() -> (Vec<TupleBatch>, Vec<Vec<ExportedTerm>>) {
        let mut st = TermStore::new();
        let mut ch = ChannelOut::default();
        let mut batches = Vec::new();
        let mut sent = Vec::new();
        for row in ["f(a)", "g(f(a))", "h(g(f(a)))", "k(b)"] {
            let (pred, db) = rows_of(&mut st, "R", "s", &[row]);
            batches.push(batch_of(&mut ch, &st, pred, &db));
            sent.extend(
                db.relation(pred)
                    .unwrap()
                    .rows()
                    .iter()
                    .map(|r| export_row(&st, r)),
            );
        }
        (batches, sent)
    }

    #[test]
    fn a_later_batch_of_a_message_reads_ids_an_earlier_one_defines() {
        let (mut batches, sent) = four_batches();
        batches.truncate(2);
        // g(f(a)) is one definition: f(a) is the first batch's id 1.
        assert_eq!(batches[1].defs, vec![TermDef::App("g".into(), vec![1])]);
        let (run, _) = scripted_run(vec![DMsg::Tuples(batches)], 0);
        let r = run.expect("no gap");
        assert_eq!(
            rows_to_strings(r.peer("r").unwrap().facts_of("R", "s")),
            rows_to_strings(sent[..2].to_vec())
        );
    }

    /// A scripted sender `s` (node 1) that sends its messages at start,
    /// and the receiver `r` (node 0), which records the sequence number of
    /// each message's first batch in delivery order.
    enum Scripted {
        Sender(Vec<DMsg>),
        Receiver(Box<EvalPeer>, Vec<u64>),
    }

    impl PeerLogic<DMsg> for Scripted {
        fn on_start(&mut self, out: &mut Outbox<DMsg>) {
            match self {
                Scripted::Sender(msgs) => msgs.drain(..).for_each(|m| out.send(NodeId(0), m)),
                Scripted::Receiver(peer, _) => peer.on_start(out),
            }
        }
        fn on_message(&mut self, from: NodeId, msg: DMsg, out: &mut Outbox<DMsg>) {
            if let Scripted::Receiver(peer, order) = self {
                if let DMsg::Tuples(batches) = &msg {
                    order.push(batches[0].seq);
                }
                peer.on_message(from, msg, out);
            }
        }
        fn on_activation_end(&mut self, out: &mut Outbox<DMsg>) {
            if let Scripted::Receiver(peer, _) = self {
                peer.on_activation_end(out);
            }
        }
    }

    /// Deliver `msgs` from `s` to a fresh `r` under `Delivery::Random`,
    /// returning the finished run and the order `r` saw them in.
    fn scripted_run(msgs: Vec<DMsg>, seed: u64) -> (Result<DistRun, DistError>, Vec<u64>) {
        let peers = vec![
            Scripted::Receiver(Box::new(receiver()), Vec::new()),
            Scripted::Sender(msgs),
        ];
        let sim = SimConfig {
            seed,
            delivery: rescue_net::sim::Delivery::Random,
            ..Default::default()
        };
        let mut net = SimNet::new(peers, sim, dmsg_size);
        let stats = net.run().unwrap();
        let mut peers = net.into_peers();
        let Scripted::Receiver(r, order) = peers.swap_remove(0) else {
            panic!("node 0 is the receiver")
        };
        (finish_run(vec![*r], stats, Vec::new()), order)
    }

    #[test]
    fn random_delivery_of_batched_messages_holds_back_and_names_a_lost_one() {
        let (batches, sent) = four_batches();
        let (m0, m1) = (batches[..2].to_vec(), batches[2..].to_vec());
        let mut overtaken = false;
        for seed in 0..20 {
            let msgs = vec![DMsg::Tuples(m0.clone()), DMsg::Tuples(m1.clone())];
            let (run, order) = scripted_run(msgs, seed);
            // The second message refers to g(f(a)), which only the first
            // defines: when it overtakes, it waits instead of misreading.
            overtaken |= order == [2, 0];
            let run = run.expect("both messages arrived");
            let r = run.peer("r").unwrap();
            assert_eq!(
                rows_to_strings(r.facts_of("R", "s")),
                rows_to_strings(sent.clone())
            );
        }
        assert!(overtaken, "Random delivery never reordered the channel");
        // Lose the first message: the run ends in a gap, not a smaller model.
        let (run, _) = scripted_run(vec![DMsg::Tuples(m1)], 0);
        let err = run.err().expect("a run with a gap must fail");
        assert_eq!(
            err,
            DistError::ChannelGap {
                from: "s".into(),
                to: "r".into(),
                missing: 0
            }
        );
    }

    #[test]
    fn a_k_batch_message_pays_one_tag() {
        let (batches, _) = four_batches();
        let alone = |b: &TupleBatch| dmsg_size(&DMsg::Tuples(vec![b.clone()]));
        for k in 1..=batches.len() {
            let msg = DMsg::Tuples(batches[..k].to_vec());
            // 1 tag + varint(k) + Σ batch, where a batch alone pays the
            // tag and varint(1) on top of its own bytes.
            let batch_sum: usize = batches[..k].iter().map(|b| alone(b) - 2).sum();
            assert_eq!(dmsg_size(&msg), 1 + varint(k as u64) + batch_sum);
        }
        let subscribe = DMsg::Subscribe {
            peer: "s".into(),
            names: vec!["R".into(), "Tr".into()],
        };
        assert_eq!(dmsg_size(&subscribe), 1 + 1 + 1 + 1 + 2);
    }
}
