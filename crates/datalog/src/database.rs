//! Fact storage: one flat arena of hash-consed term ids per relation, an
//! in-place dedup table, and chained secondary indexes on arbitrary column
//! subsets (DESIGN.md §8, "Fact storage").
//!
//! Because ground terms are hash-consed, a whole Skolem tree such as
//! `f(c, g(r,c1), g(r,c7))` is a single [`TermId`]; a fact is a short row
//! of integers, and index keys and row equality are plain integer
//! comparisons even for deeply nested node ids.
//!
//! ## Layout
//!
//! A [`Relation`] keeps its rows back to back in one `Vec<TermId>` at
//! stride = arity, so row `i` is the slice `arena[i * arity ..][..arity]`
//! and a row id is a `u32`. Nothing else stores a key:
//!
//! * **dedup** is an open-addressing table of row ids that hashes and
//!   compares arena slices in place — "is it there, else append" is one
//!   probe;
//! * **an index** on a [`ColMask`] is a table from key to the *newest* row
//!   id carrying that key, plus one `prev` link per row to the next older
//!   row with the same key. Maintaining it on insert is one probe and one
//!   `push`. Row ids only grow, so a chain is strictly descending: a
//!   windowed lookup walks it from the top, skips ids `>= hi` and stops at
//!   the first id `< lo`.
//!
//! Deriving a fact therefore allocates nothing (beyond amortized `Vec`
//! growth), and dropping a relation frees a handful of blocks.
//!
//! ## Snapshot/delta discipline
//!
//! The storage is split along a read/write seam, so that what a round's
//! passes match is a pure function of the snapshot the round started from
//! (DESIGN.md §10):
//!
//! * **sealed snapshot** — all probing ([`Relation::lookup_range_into`],
//!   [`Relation::exists_in_range`], [`Relation::rows`],
//!   [`Database::contains`]) takes `&self`. For that to hold, indexes are
//!   built *eagerly*:
//!   the fixpoint driver declares every `(predicate, mask)` its compiled
//!   plans will probe via [`Database::prepare_index`] before evaluation
//!   starts;
//! * **pending delta** — all mutation ([`Database::insert`],
//!   [`Database::insert_within`]) stays `&mut self` and is performed only
//!   by the fixpoint driver's merge phase. Inserts maintain every prepared
//!   index incrementally, so the snapshot is already sealed again when the
//!   next round starts.

use crate::language::PredId;
use crate::term::TermId;
use rustc_hash::{FxHashMap, FxHasher};
use std::collections::hash_map::Entry;
use std::hash::Hasher;

/// A bitmask of column positions (bit `i` = column `i`). Relations are
/// limited to 32 columns, far beyond anything the diagnosis encoding needs.
pub type ColMask = u32;

/// "No row": an empty table slot, or the end of an index chain.
const NONE: u32 = u32::MAX;

/// Hash a sequence of term ids. [`IdTable`] takes the *top* bits, which
/// Fx's final multiply mixes best.
#[inline]
fn hash_ids(ids: impl Iterator<Item = TermId>) -> u64 {
    let mut hasher = FxHasher::default();
    ids.for_each(|t| hasher.write_u32(t.0));
    hasher.finish()
}

/// The columns of `row` selected by `mask`, in column order.
#[inline]
fn masked(row: &[TermId], mask: ColMask) -> impl Iterator<Item = TermId> + '_ {
    let mut m = mask;
    std::iter::from_fn(move || {
        (m != 0).then(|| {
            let col = m.trailing_zeros() as usize;
            m &= m - 1;
            row[col]
        })
    })
}

/// Row `id` of an arena of `arity`-wide rows.
#[inline]
fn row_at(arena: &[TermId], arity: usize, id: u32) -> &[TermId] {
    &arena[id as usize * arity..][..arity]
}

/// An open-addressing (linear probing) table of row ids. It stores no
/// keys — they live in the relation's arena — so every operation takes
/// the key's hash and a way to compare (or re-hash) a stored row id.
#[derive(Clone, Debug)]
struct IdTable {
    /// Power-of-two many slots, each a row id or [`NONE`]; at most half
    /// are ever occupied.
    slots: Vec<u32>,
    used: usize,
}

impl Default for IdTable {
    fn default() -> Self {
        IdTable {
            slots: vec![NONE; 8],
            used: 0,
        }
    }
}

impl IdTable {
    /// Probe for the id `eq` accepts: `Ok(slot)` holds it, `Err(slot)` is
    /// the empty slot where it would go.
    #[inline]
    fn find(&self, hash: u64, eq: impl Fn(u32) -> bool) -> Result<usize, usize> {
        let wrap = self.slots.len() - 1;
        let mut slot = (hash >> (64 - self.slots.len().trailing_zeros())) as usize;
        loop {
            match self.slots[slot] {
                NONE => return Err(slot),
                id if eq(id) => return Ok(slot),
                _ => slot = (slot + 1) & wrap,
            }
        }
    }

    /// Make room for one more id, doubling (and re-hashing every stored id
    /// through `hash_of`) at half load. Call *before* [`find`](Self::find):
    /// growth moves slots.
    #[inline]
    fn reserve_one(&mut self, hash_of: impl Fn(u32) -> u64) {
        if (self.used + 1) * 2 > self.slots.len() {
            let old = std::mem::take(&mut self.slots);
            self.slots = vec![NONE; old.len() * 2];
            for id in old.into_iter().filter(|&id| id != NONE) {
                // Stored ids have distinct keys: the first free slot is it.
                let slot = self.find(hash_of(id), |_| false).unwrap_err();
                self.slots[slot] = id;
            }
        }
    }

    /// Fill the empty slot a failed [`find`](Self::find) returned.
    #[inline]
    fn occupy(&mut self, slot: usize, id: u32) {
        debug_assert_eq!(self.slots[slot], NONE);
        self.slots[slot] = id;
        self.used += 1;
    }
}

/// A secondary index: for every distinct value of the `mask` columns, the
/// chain of rows carrying it, newest first.
#[derive(Clone, Debug)]
struct Index {
    mask: ColMask,
    /// Key → newest row id with that key.
    heads: IdTable,
    /// Per row: the next older row with the same key, or [`NONE`].
    prev: Vec<u32>,
}

impl Index {
    /// Put row `id` — already in the arena, and newer than every row
    /// linked so far — at the top of its key's chain.
    fn link(&mut self, arena: &[TermId], arity: usize, id: u32) {
        let mask = self.mask;
        let key_of = |id: u32| masked(row_at(arena, arity, id), mask);
        self.heads.reserve_one(|other| hash_ids(key_of(other)));
        let same_key = |other: u32| key_of(other).eq(key_of(id));
        let older = match self.heads.find(hash_ids(key_of(id)), same_key) {
            Ok(slot) => std::mem::replace(&mut self.heads.slots[slot], id),
            Err(slot) => {
                self.heads.occupy(slot, id);
                NONE
            }
        };
        self.prev.push(older);
    }
}

/// What an insert did (see [`Database::insert_within`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Inserted {
    /// The row was not there and has been appended.
    New,
    /// The row was already there; nothing changed.
    Duplicate,
    /// The row is not there, and appending it would exceed the fact limit;
    /// nothing changed.
    OverBudget,
}

/// One stored relation: insertion-ordered rows in a flat arena, a dedup
/// table, and secondary indexes keyed by the values at a fixed set of
/// bound columns. The arity is fixed by the first row.
#[derive(Default, Clone, Debug)]
pub struct Relation {
    arity: usize,
    /// Rows back to back, `arity` ids each.
    arena: Vec<TermId>,
    /// Global insertion stamps, one per row — a well-founded order across
    /// relations used by provenance reconstruction.
    stamps: Vec<u64>,
    dedup: IdTable,
    indexes: Vec<Index>,
}

impl Relation {
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a row with an insertion stamp; returns `true` if it was new.
    pub fn insert(&mut self, row: &[TermId], stamp: u64) -> bool {
        self.insert_if(row, stamp, true) == Inserted::New
    }

    /// Append `row` unless it is already stored — or, when `room` is
    /// false, report that it would have been appended. One dedup probe
    /// either way.
    fn insert_if(&mut self, row: &[TermId], stamp: u64, room: bool) -> Inserted {
        if self.stamps.is_empty() {
            assert!(row.len() <= 32, "relation arity exceeds 32 columns");
            self.arity = row.len();
            for index in &self.indexes {
                self.assert_mask_fits(index.mask);
            }
        }
        // A narrower or wider row would shear every later row in the arena.
        assert_eq!(
            row.len(),
            self.arity,
            "row arity differs from the relation's"
        );
        let (arena, arity) = (&self.arena, self.arity);
        let stored = |id: u32| row_at(arena, arity, id);
        self.dedup
            .reserve_one(|id| hash_ids(stored(id).iter().copied()));
        let hash = hash_ids(row.iter().copied());
        let slot = match self.dedup.find(hash, |id| stored(id) == row) {
            Ok(_) => return Inserted::Duplicate,
            Err(_) if !room => return Inserted::OverBudget,
            Err(slot) => slot,
        };
        assert!(self.stamps.len() < NONE as usize, "relation too large");
        let id = self.stamps.len() as u32;
        self.dedup.occupy(slot, id);
        self.arena.extend_from_slice(row);
        self.stamps.push(stamp);
        for index in &mut self.indexes {
            index.link(&self.arena, self.arity, id);
        }
        Inserted::New
    }

    pub fn contains(&self, row: &[TermId]) -> bool {
        self.position_of(row).is_some()
    }

    /// The row index of a stored tuple.
    pub fn position_of(&self, row: &[TermId]) -> Option<u32> {
        if row.len() != self.arity {
            return None;
        }
        let hash = hash_ids(row.iter().copied());
        let slot = self.dedup.find(hash, |id| self.row(id) == row).ok()?;
        Some(self.dedup.slots[slot])
    }

    /// The insertion stamp of row `i`.
    pub fn stamp(&self, i: u32) -> u64 {
        self.stamps[i as usize]
    }

    /// Number of rows whose stamp is strictly below `stamp` (rows are
    /// stamp-ordered because relations are append-only).
    pub fn rows_before(&self, stamp: u64) -> usize {
        self.stamps.partition_point(|&s| s < stamp)
    }

    pub fn len(&self) -> usize {
        self.stamps.len()
    }

    pub fn is_empty(&self) -> bool {
        self.stamps.is_empty()
    }

    /// All rows, in insertion order.
    pub fn rows(&self) -> Rows<'_> {
        Rows {
            arena: &self.arena,
            arity: self.arity,
            len: self.len(),
        }
    }

    #[inline]
    pub fn row(&self, i: u32) -> &[TermId] {
        row_at(&self.arena, self.arity, i)
    }

    /// A mask bit beyond the arity selects no column, so its index would
    /// lie about which rows match.
    fn assert_mask_fits(&self, mask: ColMask) {
        assert!(
            u64::from(mask) >> self.arity == 0,
            "index mask {mask:#b} addresses columns beyond arity {}",
            self.arity
        );
    }

    /// Build the index for `mask` if it does not exist yet. Probing is
    /// read-only ([`lookup_range_into`](Self::lookup_range_into) takes
    /// `&self`), so every mask a caller intends to probe must be prepared
    /// up front — the fixpoint driver does this once per run from its
    /// compiled plans' needs.
    pub fn prepare_index(&mut self, mask: ColMask) {
        assert_ne!(mask, 0, "a zero mask means a full scan, not an index");
        if self.has_index(mask) {
            return;
        }
        if !self.is_empty() {
            self.assert_mask_fits(mask);
        }
        let mut index = Index {
            mask,
            heads: IdTable::default(),
            prev: Vec::with_capacity(self.len()),
        };
        for id in 0..self.len() as u32 {
            index.link(&self.arena, self.arity, id);
        }
        self.indexes.push(index);
    }

    /// `true` iff the index for `mask` has been prepared.
    pub fn has_index(&self, mask: ColMask) -> bool {
        self.indexes.iter().any(|ix| ix.mask == mask)
    }

    /// The index on `mask` and the newest row id below `hi` whose `mask`
    /// columns equal `key` ([`NONE`] if there is none): the top of every
    /// windowed chain walk.
    #[inline]
    fn newest_below(&self, mask: ColMask, key: &[TermId], hi: usize) -> (&Index, u32) {
        debug_assert_eq!(
            mask.count_ones() as usize,
            key.len(),
            "lookup key length must equal the number of mask bits"
        );
        let index = self
            .indexes
            .iter()
            .find(|ix| ix.mask == mask)
            .unwrap_or_else(|| panic!("index {mask:#b} probed before prepare_index"));
        let same_key = |id: u32| masked(self.row(id), mask).eq(key.iter().copied());
        let mut id = match index.heads.find(hash_ids(key.iter().copied()), same_key) {
            Ok(slot) => index.heads.slots[slot],
            Err(_) => NONE,
        };
        // Rows appended since the window was frozen sit at the top of the
        // chain; NONE (= u32::MAX) is never below `hi`, so test it first.
        while id != NONE && id as usize >= hi {
            id = index.prev[id as usize];
        }
        (index, id)
    }

    /// Append to `out`, in ascending order, the ids of the rows in the
    /// window `[lo, hi)` whose columns selected by `mask` equal `key`.
    ///
    /// `mask` must be nonzero (with a zero mask, scan [`rows`](Self::rows)
    /// directly) and its index must have been built via
    /// [`prepare_index`](Self::prepare_index): probing a sealed snapshot
    /// is `&self`, which leaves no way to build an index lazily here.
    pub fn lookup_range_into(
        &self,
        mask: ColMask,
        key: &[TermId],
        lo: usize,
        hi: usize,
        out: &mut Vec<u32>,
    ) {
        let start = out.len();
        let (index, mut id) = self.newest_below(mask, key, hi);
        while id != NONE && id as usize >= lo {
            out.push(id);
            id = index.prev[id as usize];
        }
        out[start..].reverse();
    }

    /// Is [`lookup_range_into`](Self::lookup_range_into) nonempty for these
    /// arguments? The same walk, stopped at the first hit.
    pub fn exists_in_range(&self, mask: ColMask, key: &[TermId], lo: usize, hi: usize) -> bool {
        let (_, id) = self.newest_below(mask, key, hi);
        id != NONE && id as usize >= lo
    }
}

/// A borrowed view of consecutive rows of a [`Relation`], in insertion
/// order.
#[derive(Clone, Copy, Debug)]
pub struct Rows<'a> {
    arena: &'a [TermId],
    arity: usize,
    len: usize,
}

impl<'a> Rows<'a> {
    pub fn len(self) -> usize {
        self.len
    }

    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// Row `i` of the view.
    pub fn get(self, i: usize) -> &'a [TermId] {
        assert!(i < self.len, "row {i} out of {} rows", self.len);
        &self.arena[i * self.arity..][..self.arity]
    }

    /// The sub-view of rows `a..b`.
    pub fn range(self, a: usize, b: usize) -> Rows<'a> {
        assert!(a <= b && b <= self.len, "rows {a}..{b} out of {}", self.len);
        Rows {
            arena: &self.arena[a * self.arity..b * self.arity],
            arity: self.arity,
            len: b - a,
        }
    }

    pub fn iter(self) -> RowIter<'a> {
        RowIter {
            rows: self,
            next: 0,
        }
    }
}

impl<'a> IntoIterator for Rows<'a> {
    type Item = &'a [TermId];
    type IntoIter = RowIter<'a>;

    fn into_iter(self) -> RowIter<'a> {
        self.iter()
    }
}

/// Iterator over a [`Rows`] view (arity 0 rules out `chunks_exact`).
#[derive(Clone, Debug)]
pub struct RowIter<'a> {
    rows: Rows<'a>,
    next: usize,
}

impl<'a> Iterator for RowIter<'a> {
    type Item = &'a [TermId];

    fn next(&mut self) -> Option<&'a [TermId]> {
        (self.next < self.rows.len).then(|| {
            self.next += 1;
            self.rows.get(self.next - 1)
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.rows.len - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for RowIter<'_> {}

/// A database: one [`Relation`] per `(name, peer)` predicate.
#[derive(Default, Clone, Debug)]
pub struct Database {
    relations: FxHashMap<PredId, Relation>,
    total_facts: usize,
    next_stamp: u64,
    /// Index masks requested for predicates that have no relation yet.
    /// [`prepare_index`](Self::prepare_index) must not materialize an empty
    /// relation (that would leak phantom predicates into
    /// [`predicates`](Self::predicates) and every iteration-based report),
    /// so the request is parked here and applied when the first row of the
    /// predicate arrives.
    pending_indexes: FxHashMap<PredId, Vec<ColMask>>,
}

impl Database {
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a fact; returns `true` if it was new.
    pub fn insert(&mut self, pred: PredId, row: impl AsRef<[TermId]>) -> bool {
        self.insert_within(pred, row.as_ref(), usize::MAX) == Inserted::New
    }

    /// Insert a fact unless that would take the database beyond
    /// `max_facts` — the merge phase's whole dedup / budget / append
    /// pipeline behind a single probe. A duplicate inserts nothing, so it
    /// is reported as [`Inserted::Duplicate`] even at the limit: the budget
    /// can only fail on a genuinely new fact.
    pub fn insert_within(&mut self, pred: PredId, row: &[TermId], max_facts: usize) -> Inserted {
        let room = self.total_facts < max_facts;
        let rel = match self.relations.entry(pred) {
            Entry::Occupied(e) => e.into_mut(),
            // The first row of a predicate is new by definition; refuse it
            // before materializing an empty relation.
            Entry::Vacant(_) if !room => return Inserted::OverBudget,
            Entry::Vacant(e) => {
                let rel = e.insert(Relation::new());
                for mask in self.pending_indexes.remove(&pred).unwrap_or_default() {
                    rel.prepare_index(mask);
                }
                rel
            }
        };
        let outcome = rel.insert_if(row, self.next_stamp, room);
        if outcome == Inserted::New {
            self.total_facts += 1;
            self.next_stamp += 1;
        }
        outcome
    }

    /// Ensure the index for `mask` on `pred`'s relation exists before any
    /// read-only [`Relation::lookup_range_into`] probe needs it. If the
    /// relation does not exist yet, the request is remembered and honoured
    /// when its first row arrives — no empty relation is materialized.
    pub fn prepare_index(&mut self, pred: PredId, mask: ColMask) {
        match self.relations.get_mut(&pred) {
            Some(rel) => rel.prepare_index(mask),
            None => {
                let pending = self.pending_indexes.entry(pred).or_default();
                if !pending.contains(&mask) {
                    pending.push(mask);
                }
            }
        }
    }

    /// The insertion stamp of a stored fact, if present.
    pub fn stamp_of(&self, pred: PredId, row: &[TermId]) -> Option<u64> {
        let rel = self.relations.get(&pred)?;
        let i = rel.position_of(row)?;
        Some(rel.stamp(i))
    }

    pub fn contains(&self, pred: PredId, row: &[TermId]) -> bool {
        self.relations.get(&pred).is_some_and(|r| r.contains(row))
    }

    pub fn relation(&self, pred: PredId) -> Option<&Relation> {
        self.relations.get(&pred)
    }

    /// Total number of facts across all relations — the paper's headline
    /// "quantity of materialized data".
    pub fn total_facts(&self) -> usize {
        self.total_facts
    }

    /// Number of facts in one relation (0 if absent).
    pub fn count(&self, pred: PredId) -> usize {
        self.relations.get(&pred).map_or(0, |r| r.len())
    }

    /// Iterate `(pred, rows)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (PredId, &Relation)> {
        self.relations.iter().map(|(&p, r)| (p, r))
    }

    /// The predicates present, sorted for deterministic reporting.
    pub fn predicates(&self) -> Vec<PredId> {
        let mut v: Vec<PredId> = self.relations.keys().copied().collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::language::Peer;
    use crate::term::TermStore;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup() -> (TermStore, PredId) {
        let mut st = TermStore::new();
        let pred = PredId {
            name: st.sym("R"),
            peer: Peer(st.sym("p")),
        };
        (st, pred)
    }

    /// The windowed lookup as a vector, cross-checked against
    /// `exists_in_range` on the way.
    fn hits(rel: &Relation, mask: ColMask, key: &[TermId], lo: usize, hi: usize) -> Vec<u32> {
        // A non-empty buffer: the lookup appends, and only reverses its own.
        let mut out = vec![NONE];
        rel.lookup_range_into(mask, key, lo, hi, &mut out);
        assert_eq!(out.remove(0), NONE);
        assert_eq!(rel.exists_in_range(mask, key, lo, hi), !out.is_empty());
        out
    }

    fn all_hits(rel: &Relation, mask: ColMask, key: &[TermId]) -> Vec<u32> {
        hits(rel, mask, key, 0, rel.len())
    }

    #[test]
    fn insert_dedups() {
        let (mut st, pred) = setup();
        let a = st.constant("a");
        let b = st.constant("b");
        let mut db = Database::new();
        assert!(db.insert(pred, [a, b]));
        assert!(!db.insert(pred, vec![a, b]));
        assert!(db.insert(pred, Box::<[TermId]>::from([b, a])));
        assert_eq!(db.total_facts(), 2);
        assert_eq!(db.count(pred), 2);
    }

    #[test]
    fn index_lookup_finds_rows() {
        let (mut st, _) = setup();
        let a = st.constant("a");
        let b = st.constant("b");
        let c = st.constant("c");
        let mut rel = Relation::new();
        rel.insert(&[a, b], 0);
        rel.insert(&[a, c], 1);
        rel.insert(&[b, c], 2);
        rel.prepare_index(0b01);
        rel.prepare_index(0b10);
        rel.prepare_index(0b11);
        // Index on column 0.
        let found = all_hits(&rel, 0b01, &[a]);
        assert_eq!(found.len(), 2);
        for h in found {
            assert_eq!(rel.row(h)[0], a);
        }
        // Index on column 1.
        assert_eq!(all_hits(&rel, 0b10, &[c]).len(), 2);
        // Index on both.
        assert_eq!(all_hits(&rel, 0b11, &[a, c]).len(), 1);
        assert_eq!(all_hits(&rel, 0b11, &[c, a]).len(), 0);
    }

    #[test]
    fn index_stays_fresh_after_inserts() {
        let (mut st, _) = setup();
        let a = st.constant("a");
        let b = st.constant("b");
        let mut rel = Relation::new();
        rel.insert(&[a], 0);
        rel.prepare_index(0b1);
        assert_eq!(all_hits(&rel, 0b1, &[a]).len(), 1);
        // Insert after the index exists; it must be maintained.
        rel.insert(&[b], 1);
        assert_eq!(all_hits(&rel, 0b1, &[b]).len(), 1);
    }

    /// Regression: a mask addressing columns beyond the row arity used to
    /// be accepted silently (the out-of-range bits just selected nothing),
    /// so a typo'd mask produced an index that matched everything.
    #[test]
    #[should_panic(expected = "columns beyond")]
    fn out_of_range_mask_is_rejected() {
        let (mut st, _) = setup();
        let a = st.constant("a");
        let mut rel = Relation::new();
        rel.insert(&[a], 0);
        // Arity is 1; bit 3 addresses a nonexistent column.
        rel.prepare_index(0b1000);
    }

    /// The same typo, declared before the first row fixed the arity.
    #[test]
    #[should_panic(expected = "columns beyond")]
    fn out_of_range_pending_mask_is_rejected_by_the_first_row() {
        let (mut st, pred) = setup();
        let a = st.constant("a");
        let mut db = Database::new();
        db.prepare_index(pred, 0b1000);
        db.insert(pred, [a]);
    }

    #[test]
    #[should_panic(expected = "row arity differs")]
    fn out_of_range_mask_is_rejected_on_insert() {
        let (mut st, _) = setup();
        let a = st.constant("a");
        let b = st.constant("b");
        let mut rel = Relation::new();
        rel.insert(&[a, b], 0);
        rel.prepare_index(0b11);
        // A narrower row arriving later can't carry the indexed columns —
        // or sit in the arena at all.
        rel.insert(&[b], 1);
    }

    #[test]
    fn lookup_range_windows_slice_postings() {
        let (mut st, _) = setup();
        let a = st.constant("a");
        let b = st.constant("b");
        let mut rel = Relation::new();
        rel.prepare_index(0b01);
        // Rows 0..6, alternating first column: a b a b a b.
        for i in 0..6u64 {
            let first = if i % 2 == 0 { a } else { b };
            let second = st.constant(&format!("x{i}"));
            rel.insert(&[first, second], i);
        }
        // Full relation.
        assert_eq!(hits(&rel, 0b01, &[a], 0, 6), [0, 2, 4]);
        // Empty delta window.
        assert!(hits(&rel, 0b01, &[a], 3, 3).is_empty());
        assert!(hits(&rel, 0b01, &[a], 6, 6).is_empty());
        // Mid-window, boundaries inclusive-lo / exclusive-hi.
        assert_eq!(hits(&rel, 0b01, &[a], 2, 5), [2, 4]);
        assert_eq!(hits(&rel, 0b01, &[a], 3, 5), [4]);
        assert_eq!(hits(&rel, 0b01, &[b], 1, 4), [1, 3]);
        // Window past the newest row carrying the key.
        assert!(hits(&rel, 0b01, &[a], 5, 6).is_empty());
        // Absent key: empty at every window.
        let c = st.constant("c");
        assert!(hits(&rel, 0b01, &[c], 0, 6).is_empty());
    }

    #[test]
    fn lookup_range_stays_windowed_after_incremental_inserts() {
        // The chains are maintained incrementally; a window frozen before
        // an insert must keep its answer after it.
        let (mut st, _) = setup();
        let a = st.constant("a");
        let mut rel = Relation::new();
        rel.prepare_index(0b01);
        let x0 = st.constant("x0");
        rel.insert(&[a, x0], 0);
        assert_eq!(hits(&rel, 0b01, &[a], 0, 1), [0]);
        let x1 = st.constant("x1");
        let x2 = st.constant("x2");
        rel.insert(&[a, x1], 1);
        rel.insert(&[a, x2], 2);
        // The old window skips the two rows now above it.
        assert_eq!(hits(&rel, 0b01, &[a], 0, 1), [0]);
        // Delta window [1, 3) sees exactly the two new rows.
        assert_eq!(hits(&rel, 0b01, &[a], 1, 3), [1, 2]);
        assert_eq!(hits(&rel, 0b01, &[a], 0, 3), [0, 1, 2]);
    }

    #[test]
    fn prepare_index_on_absent_relation_is_deferred() {
        let (mut st, pred) = setup();
        let a = st.constant("a");
        let b = st.constant("b");
        let mut db = Database::new();
        // Preparing before any fact must not materialize a phantom
        // relation...
        db.prepare_index(pred, 0b01);
        assert!(db.relation(pred).is_none());
        assert!(db.predicates().is_empty());
        // ...but the index must exist the moment the first row arrives.
        db.insert(pred, [a, b]);
        db.insert(pred, [b, a]);
        let rel = db.relation(pred).unwrap();
        assert!(rel.has_index(0b01));
        assert_eq!(all_hits(rel, 0b01, &[a]), [0]);
        assert_eq!(all_hits(rel, 0b01, &[b]), [1]);
        // Preparing an existing relation builds immediately.
        db.prepare_index(pred, 0b10);
        assert_eq!(all_hits(db.relation(pred).unwrap(), 0b10, &[a]), [1]);
    }

    #[test]
    fn function_terms_index_as_single_ids() {
        let (mut st, _) = setup();
        let c = st.constant("c");
        let g1 = st.app("g", vec![c]);
        let g2 = st.app("g", vec![g1]);
        let mut rel = Relation::new();
        rel.insert(&[g1, g2], 0);
        rel.prepare_index(0b1);
        assert_eq!(all_hits(&rel, 0b1, &[g1]).len(), 1);
        assert_eq!(all_hits(&rel, 0b1, &[g2]).len(), 0);
    }

    #[test]
    fn insert_within_refuses_only_new_rows_at_the_limit() {
        let (mut st, pred) = setup();
        let other = PredId {
            name: st.sym("S"),
            ..pred
        };
        let a = st.constant("a");
        let b = st.constant("b");
        let mut db = Database::new();
        assert_eq!(db.insert_within(pred, &[a], 1), Inserted::New);
        assert_eq!(db.insert_within(pred, &[a], 1), Inserted::Duplicate);
        assert_eq!(db.insert_within(pred, &[b], 1), Inserted::OverBudget);
        // A refused first row leaves no phantom relation behind.
        assert_eq!(db.insert_within(other, &[a], 1), Inserted::OverBudget);
        assert_eq!(db.predicates(), [pred]);
        assert_eq!((db.total_facts(), db.count(pred)), (1, 1));
        // Refusals consumed no stamp.
        assert_eq!(db.insert_within(pred, &[b], 2), Inserted::New);
        assert_eq!(db.stamp_of(pred, &[b]), Some(1));
    }

    fn random_row(rng: &mut StdRng, vals: &[TermId], arity: usize) -> Vec<TermId> {
        (0..arity)
            .map(|_| vals[rng.gen_range(0..vals.len())])
            .collect()
    }

    /// The oracle's reading of "the `mask` columns of `row` equal `key`".
    fn key_matches(row: &[TermId], mask: ColMask, key: &[TermId]) -> bool {
        let cols = (0..row.len()).filter(|c| mask & (1 << c) != 0);
        cols.map(|c| row[c]).eq(key.iter().copied())
    }

    /// Everything observable about `pred`'s relation equals the oracle.
    fn assert_matches_oracle(
        db: &Database,
        pred: PredId,
        oracle: &[Vec<TermId>],
        prepared: &[ColMask],
        vals: &[TermId],
        rng: &mut StdRng,
    ) {
        let n = oracle.len();
        assert_eq!((db.count(pred), db.total_facts()), (n, n));
        let Some(rel) = db.relation(pred) else {
            assert_eq!(n, 0, "rows but no relation");
            return;
        };
        let arity = oracle[0].len();
        // Insertion order, through every accessor of the view.
        let rows = rel.rows();
        assert_eq!((rel.len(), rows.len(), rows.iter().len()), (n, n, n));
        assert!(rows.iter().eq(oracle.iter().map(Vec::as_slice)));
        let (a, b) = (n / 3, n - n / 4);
        let window = rows.range(a, b);
        assert_eq!(window.len(), b - a);
        assert!(window
            .into_iter()
            .eq(oracle[a..b].iter().map(Vec::as_slice)));
        assert_eq!(rows.get(n - 1), rel.row(n as u32 - 1));
        // Dedup: stored rows are found where they sit, others are absent.
        for _ in 0..100 {
            let i = rng.gen_range(0..n);
            assert_eq!(rel.position_of(&oracle[i]), Some(i as u32));
            assert_eq!(rel.stamp(i as u32), i as u64);
            let probe = random_row(rng, vals, arity);
            let at = oracle.iter().position(|r| *r == probe);
            assert_eq!(rel.position_of(&probe), at.map(|i| i as u32));
            assert_eq!(rel.contains(&probe), at.is_some());
        }
        for &mask in prepared {
            assert!(rel.has_index(mask));
            for round in 0..60 {
                // Mostly keys that occur, sometimes arbitrary ones.
                let from = match round % 5 {
                    0 => random_row(rng, vals, arity),
                    _ => oracle[rng.gen_range(0..n)].clone(),
                };
                let key: Vec<TermId> = masked(&from, mask).collect();
                // Windows may be empty, inverted, or reach past the end.
                let (lo, hi) = (rng.gen_range(0..n + 3), rng.gen_range(0..n + 3));
                let want: Vec<u32> = (lo..hi.min(n))
                    .filter(|&i| key_matches(&oracle[i], mask, &key))
                    .map(|i| i as u32)
                    .collect();
                assert_eq!(hits(rel, mask, &key, lo, hi), want, "{mask:#b} [{lo},{hi})");
            }
        }
    }

    /// Model-based check of [`Relation`] (behind [`Database`]) against a
    /// naive `Vec<Vec<TermId>>`: `attempts` random inserts of `arity`
    /// columns over `domain` values, comparing every observable at five
    /// checkpoints. The three `masks` lists are prepared before the first
    /// row (the `pending_indexes` path), a third of the way in, and after
    /// the last insert. Returns the number of rows reached.
    fn check_against_oracle(
        arity: usize,
        domain: usize,
        attempts: usize,
        masks: [&[ColMask]; 3],
    ) -> usize {
        let (mut st, pred) = setup();
        let vals: Vec<TermId> = (0..domain).map(|i| st.constant(&format!("c{i}"))).collect();
        let mut rng = StdRng::seed_from_u64(0xFAC7 + arity as u64);
        let mut oracle: Vec<Vec<TermId>> = Vec::new();
        let mut db = Database::new();
        let mut prepared: Vec<ColMask> = Vec::new();
        let mut prepare = |db: &mut Database, wave: &[ColMask]| {
            for &mask in wave {
                db.prepare_index(pred, mask);
                prepared.push(mask);
            }
            prepared.clone()
        };

        let mut live = prepare(&mut db, masks[0]);
        assert!(
            db.relation(pred).is_none(),
            "a declared index is no relation"
        );
        for attempt in 0..attempts {
            if attempt == attempts / 3 {
                live = prepare(&mut db, masks[1]);
            }
            let row = random_row(&mut rng, &vals, arity);
            let fresh = !oracle.contains(&row);
            assert_eq!(db.insert(pred, &row), fresh);
            if fresh {
                oracle.push(row);
            }
            if attempt % attempts.div_ceil(4) == 0 {
                assert_matches_oracle(&db, pred, &oracle, &live, &vals, &mut rng);
            }
        }
        live = prepare(&mut db, masks[2]);
        assert_matches_oracle(&db, pred, &oracle, &live, &vals, &mut rng);
        oracle.len()
    }

    #[test]
    fn relation_matches_oracle_at_arity_0() {
        // One possible row: the empty one. No column, hence no index.
        assert_eq!(check_against_oracle(0, 1, 10, [&[], &[], &[]]), 1);
    }

    #[test]
    fn relation_matches_oracle_at_arity_1() {
        // Sparse keys: chains of length one, many table doublings.
        let rows = check_against_oracle(1, 30_000, 16_000, [&[0b1], &[], &[]]);
        assert!(rows >= 10_000, "{rows} rows");
    }

    #[test]
    fn relation_matches_oracle_at_arity_5() {
        // Dense keys: a one-column chain holds an eighth of the relation.
        let masks: [&[ColMask]; 3] = [
            &[0b00001, 0b10010],
            &[0b11111, 0b00100],
            &[0b01010, 0b10000],
        ];
        let rows = check_against_oracle(5, 8, 14_000, masks);
        assert!(rows >= 10_000, "{rows} rows");
    }
}
