//! Secondary attribute indexes over component columns.
//!
//! The paper's thesis — game state is a database, game logic is query
//! processing — makes scan-bound predicates like `hp < 200` over millions
//! of entities the first scaling wall. The seed engine indexed only the
//! reserved `pos` column; this module adds what a database would: per-
//! component secondary indexes, registered with [`World::create_index`]
//! (`crate::World::create_index`), maintained through every write path,
//! and consulted by the planner as a third access path next to full scans
//! and spatial probes.
//!
//! Two physical structures are offered, mirroring the classic hash/B-tree
//! split:
//!
//! * [`IndexKind::Hash`] — `HashMap` buckets; supports equality probes
//!   only, O(1) per lookup. The right choice for high-cardinality
//!   identity-like components (`owner`, `guild`, `class`).
//! * [`IndexKind::Sorted`] — `BTreeMap` buckets; supports equality *and*
//!   range probes (`<`, `<=`, `>`, `>=`), O(log n + k). The right choice
//!   for numeric gameplay attributes (`hp`, `level`, `threat`).
//!
//! ## Key encoding and probe/scan equivalence
//!
//! The correctness contract — relied on by the planner and enforced by
//! property tests — is that a probe returns **exactly** the entities a
//! full scan with [`crate::query::compare`] would keep. Keys are therefore
//! encoded in the comparison domain `compare` uses, not the storage
//! domain:
//!
//! * Numeric columns (float/int) key on the `f64` coercion of the value,
//!   bit-twiddled into a totally ordered integer ([`OrdF64`]). A query
//!   literal `3.5` probes an int column correctly, and `-0.0` folds onto
//!   `0.0` just like `==` does.
//! * `NaN` values compare false under every operator, so they are never
//!   inserted; a `NaN` probe returns nothing.
//! * Strings key lexicographically, booleans as `false < true`, vec2 by
//!   normalized bit pattern (equality only — `compare` refuses to order
//!   vectors).
//! * A probe value whose type cannot match the column (e.g. a string
//!   literal against a float column) yields the empty set, matching the
//!   scan's "mixed non-numeric comparisons are false" rule.
//!
//! ## Maintenance invariants
//!
//! Every mutation of an indexed component keeps postings exact (see
//! `docs/ARCHITECTURE.md` for the full invariant list):
//!
//! 1. [`crate::World::set`] removes the old key (if any) and inserts the
//!    new one after the type check passes.
//! 2. [`crate::World::remove_component`] removes the entity's posting.
//! 3. [`crate::World::despawn`] removes the entity from every index
//!    before clearing its columns.
//! 4. Effects, template spawns, WAL/delta redo, and script writes all
//!    funnel through those three entry points, so no other code path can
//!    desynchronize an index.
//! 5. Postings are sorted by [`EntityId`], so probes return deterministic
//!    id-ordered candidate sets without re-sorting equality lookups. A
//!    range probe concatenates one posting list per key and orders the
//!    result with an LSD radix sort on the slot index (linear time); an
//!    index holds each live slot at most once, so slot order is id order
//!    and there is nothing to de-duplicate.
//! 6. An index comes into being over existing rows in one pass
//!    (`SecondaryIndex::build` — live `create_index` and snapshot
//!    recovery alike, which loads rows *before* any index exists): ids
//!    are read in ascending order, so hash postings are appended and a
//!    sorted index is bulk-built from one sorted run (for a numeric
//!    column, `(key bits, id)` integers in a stable radix sort by key,
//!    which keeps each key's ids in arrival order). The result is the
//!    structure per-row inserts would have built
//!    (`bulk_load_equals_row_by_row_restore` in `tests/prop_core.rs`).

use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;

use gamedb_content::{CmpOp, Value, ValueType};

use crate::column::Column;
use crate::entity::EntityId;

/// Physical structure of a secondary index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Hash buckets: equality probes only, O(1).
    Hash,
    /// Ordered buckets: equality and range probes, O(log n + k).
    Sorted,
}

/// `f64` bits remapped so integer ordering matches float ordering
/// (sign bit flipped for positives, all bits for negatives).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OrdF64(u64);

impl OrdF64 {
    pub(crate) fn new(v: f64) -> Option<OrdF64> {
        if v.is_nan() {
            return None;
        }
        // -0.0 and 0.0 must share a key, like they share equality.
        let v = if v == 0.0 { 0.0 } else { v };
        let bits = v.to_bits();
        Some(OrdF64(if bits >> 63 == 0 {
            bits | (1 << 63)
        } else {
            !bits
        }))
    }

    pub(crate) fn get(self) -> f64 {
        let bits = self.0;
        f64::from_bits(if bits >> 63 == 1 {
            bits & !(1 << 63)
        } else {
            !bits
        })
    }
}

/// Index key in the comparison domain of [`crate::query::compare`].
///
/// A single index only ever holds one variant (columns are typed), so the
/// cross-variant `Ord` is never exercised within one index.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IndexKey {
    Num(OrdF64),
    Bool(bool),
    Str(String),
    Vec2([u32; 2]),
}

impl IndexKey {
    /// Encode `value` as a key for a column of type `column_ty`.
    ///
    /// `None` means "this value can never satisfy an equality or range
    /// predicate against this column" — NaN, or a type that `compare`
    /// treats as an always-false mixed comparison.
    pub fn encode(column_ty: ValueType, value: &Value) -> Option<IndexKey> {
        match column_ty {
            ValueType::Float | ValueType::Int => {
                value.as_number().and_then(OrdF64::new).map(IndexKey::Num)
            }
            ValueType::Bool => match value {
                Value::Bool(b) => Some(IndexKey::Bool(*b)),
                _ => None,
            },
            ValueType::Str => match value {
                Value::Str(s) => Some(IndexKey::Str(s.clone())),
                _ => None,
            },
            ValueType::Vec2 => match value {
                Value::Vec2(x, y) => IndexKey::vec2(*x, *y),
                _ => None,
            },
        }
    }

    /// Vector key: equality only, so the bit pattern — `-0.0` folded
    /// onto `0.0`, no key for a NaN component.
    pub(crate) fn vec2(x: f32, y: f32) -> Option<IndexKey> {
        vec2_bits(x, y).map(IndexKey::Vec2)
    }

    /// The key borrowed: same variant, same order, the string not copied.
    pub(crate) fn as_ref(&self) -> KeyRef<'_> {
        match self {
            IndexKey::Num(n) => KeyRef::Num(*n),
            IndexKey::Bool(b) => KeyRef::Bool(*b),
            IndexKey::Str(s) => KeyRef::Str(s),
            IndexKey::Vec2(v) => KeyRef::Vec2(*v),
        }
    }
}

/// The bits of a vector key: `-0.0` folded onto `0.0`, none for a NaN
/// component.
fn vec2_bits(x: f32, y: f32) -> Option<[u32; 2]> {
    if x.is_nan() || y.is_nan() {
        return None;
    }
    let norm = |v: f32| if v == 0.0 { 0.0f32 } else { v };
    Some([norm(x).to_bits(), norm(y).to_bits()])
}

/// An [`IndexKey`] read from a column slot without copying its string:
/// the variants and the order of `IndexKey`, so a run of these sorts
/// exactly as the owned keys would, and only a key that is kept (one per
/// distinct value) pays for an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum KeyRef<'a> {
    Num(OrdF64),
    Bool(bool),
    Str(&'a str),
    Vec2([u32; 2]),
}

impl<'a> KeyRef<'a> {
    /// The key [`IndexKey::encode`] gives the value stored at `slot` of
    /// `col`, read through the typed accessors — no [`Value`] is built.
    /// `None` when the slot is empty or holds a NaN.
    pub(crate) fn at(col: &'a Column, slot: usize) -> Option<KeyRef<'a>> {
        match col.ty() {
            ValueType::Float | ValueType::Int => {
                col.get_number(slot).and_then(OrdF64::new).map(KeyRef::Num)
            }
            ValueType::Bool => col.get_bool(slot).map(KeyRef::Bool),
            ValueType::Str => col.get_str(slot).map(KeyRef::Str),
            ValueType::Vec2 => col
                .get_v2(slot)
                .and_then(|[x, y]| vec2_bits(x, y))
                .map(KeyRef::Vec2),
        }
    }

    /// The first eight bytes of the key's order as one integer: `a < b`
    /// implies `a.prefix() <= b.prefix()`, and only two strings sharing
    /// their first eight bytes can tie on distinct keys.
    pub(crate) fn prefix(self) -> u64 {
        match self {
            KeyRef::Num(n) => n.0,
            KeyRef::Bool(b) => b as u64,
            KeyRef::Str(s) => {
                let mut head = [0u8; 8];
                let n = s.len().min(8);
                head[..n].copy_from_slice(&s.as_bytes()[..n]);
                u64::from_be_bytes(head)
            }
            KeyRef::Vec2([x, y]) => (x as u64) << 32 | y as u64,
        }
    }

    /// True when [`KeyRef::prefix`] spells out the whole key, so two
    /// such keys with one prefix are one key: every non-string key, and a
    /// string of at most eight bytes not ending in `\0` (the padding
    /// cannot tell `"a"` from `"a\0"`).
    pub(crate) fn prefix_is_key(self) -> bool {
        match self {
            KeyRef::Str(s) => s.len() <= 8 && s.as_bytes().last() != Some(&0),
            _ => true,
        }
    }

    /// The owned key.
    pub(crate) fn to_key(self) -> IndexKey {
        match self {
            KeyRef::Num(n) => IndexKey::Num(n),
            KeyRef::Bool(b) => IndexKey::Bool(b),
            KeyRef::Str(s) => IndexKey::Str(s.to_string()),
            KeyRef::Vec2(v) => IndexKey::Vec2(v),
        }
    }
}

/// A lookup key whose string buffer is reused from one lookup to the
/// next: finding the bucket of a string key that is already in the map
/// allocates nothing, and only a first sighting clones the key into it.
/// Bulk builds look up one key per row.
#[derive(Debug, Clone, Default)]
pub(crate) struct KeyBuf(Option<IndexKey>);

impl KeyBuf {
    /// Load `key` — a string into the reused buffer — and return it as
    /// the owned key type maps look up.
    pub(crate) fn load(&mut self, key: KeyRef<'_>) -> &IndexKey {
        match (key, &mut self.0) {
            (KeyRef::Str(s), Some(IndexKey::Str(buf))) => {
                buf.clear();
                buf.push_str(s);
            }
            (key, held) => *held = Some(key.to_key()),
        }
        self.0.as_ref().expect("just loaded")
    }
}

/// Append `id` to the posting list of `key`. Callers feed ids in
/// ascending order per key, so lists stay sorted without a search.
fn append_posting(map: &mut HashMap<IndexKey, Vec<EntityId>>, key: &IndexKey, id: EntityId) {
    match map.get_mut(key) {
        Some(posting) => posting.push(id),
        None => {
            map.insert(key.clone(), vec![id]);
        }
    }
}

/// Interns the keys one view operator holds as dense `u32` ids, so its
/// group table and join postings are vectors indexed by id and a row
/// remembers its key in four bytes. Each id counts the rows holding it;
/// an id whose count falls to zero is freed by [`KeyTable::sweep`] — at
/// the end of a refresh, so ids stay stable while one is folded — and
/// reused by the next new key, so key churn cannot grow the table.
#[derive(Debug, Clone, Default)]
pub(crate) struct KeyTable {
    ids: HashMap<IndexKey, u32>,
    /// Key of each id; `None` for a free id.
    keys: Vec<Option<IndexKey>>,
    /// Order-preserving prefix of each id's key ([`KeyRef::prefix`]).
    prefixes: Vec<u64>,
    /// Rows holding each id.
    rows: Vec<u32>,
    free: Vec<u32>,
    /// Ids whose count reached zero since the last sweep.
    dead: Vec<u32>,
    buf: KeyBuf,
}

impl KeyTable {
    /// The key of `id`; `None` for a free id or [`NO_KEY`].
    pub(crate) fn get(&self, id: u32) -> Option<KeyRef<'_>> {
        self.keys.get(id as usize)?.as_ref().map(IndexKey::as_ref)
    }

    /// How the keys of `a` and `b` — of one type, as one column's keys
    /// are — order: by their cached prefixes, and by the keys themselves
    /// only when those tie.
    pub(crate) fn order(&self, a: u32, b: u32) -> Ordering {
        if a == b {
            return Ordering::Equal;
        }
        let prefix = |id: u32| self.prefixes.get(id as usize);
        prefix(a)
            .cmp(&prefix(b))
            .then_with(|| self.get(a).cmp(&self.get(b)))
    }

    /// The id of `key`, counting `rows` more rows on it. A known key is
    /// found through the reused lookup buffer, so it allocates nothing.
    pub(crate) fn intern(&mut self, key: KeyRef<'_>, rows: u32) -> u32 {
        if let Some(&id) = self.ids.get(self.buf.load(key)) {
            self.rows[id as usize] += rows;
            return id;
        }
        let id = self.free.pop().unwrap_or(self.keys.len() as u32);
        if id as usize == self.keys.len() {
            self.keys.push(None);
            self.prefixes.push(0);
            self.rows.push(0);
        }
        self.keys[id as usize] = Some(key.to_key());
        self.prefixes[id as usize] = key.prefix();
        self.rows[id as usize] = rows;
        self.ids.insert(key.to_key(), id);
        id
    }

    /// The id a row holding `held` ([`NO_KEY`]: none) holds once its key
    /// is `now`: `held` itself when the key is unchanged — compared with
    /// the interned key, not hashed — else `now` interned, `held`
    /// released.
    pub(crate) fn rekey(&mut self, held: u32, now: Option<KeyRef<'_>>) -> u32 {
        match now {
            Some(k) if self.get(held) == Some(k) => held,
            now => {
                if held != NO_KEY {
                    self.release(held);
                }
                now.map_or(NO_KEY, |k| self.intern(k, 1))
            }
        }
    }

    /// One row stopped holding `id`.
    fn release(&mut self, id: u32) {
        let rows = &mut self.rows[id as usize];
        *rows -= 1;
        if *rows == 0 {
            self.dead.push(id);
        }
    }

    /// Free every id no row holds any more.
    pub(crate) fn sweep(&mut self) {
        while let Some(id) = self.dead.pop() {
            if self.rows[id as usize] == 0 {
                if let Some(key) = self.keys[id as usize].take() {
                    self.ids.remove(&key);
                    self.free.push(id);
                }
            }
        }
    }

    /// Keys currently interned.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }
}

/// The key id of a row without a key (the column absent, or NaN).
pub(crate) const NO_KEY: u32 = u32::MAX;

/// The support matrix shared by executor ([`SecondaryIndex::supports`])
/// and planner (`planner::plan`) — one source of truth, so the planner
/// can never choose a probe the executor refuses.
pub fn supports(kind: IndexKind, ty: ValueType, op: CmpOp) -> bool {
    match op {
        CmpOp::Eq => true,
        CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
            kind == IndexKind::Sorted && ty != ValueType::Vec2
        }
        // `Ne` keeps nearly everything; a probe would be a scan in
        // disguise, so the planner never asks for it.
        CmpOp::Ne => false,
    }
}

#[derive(Debug, Clone)]
enum Buckets {
    Hash(HashMap<IndexKey, Vec<EntityId>>),
    Sorted(BTreeMap<IndexKey, Vec<EntityId>>),
}

/// A secondary index over one component column.
#[derive(Debug, Clone)]
pub struct SecondaryIndex {
    ty: ValueType,
    buckets: Buckets,
    entries: usize,
}

impl SecondaryIndex {
    /// Empty index for a column of type `ty`.
    pub fn new(kind: IndexKind, ty: ValueType) -> Self {
        SecondaryIndex {
            ty,
            buckets: match kind {
                IndexKind::Hash => Buckets::Hash(HashMap::new()),
                IndexKind::Sorted => Buckets::Sorted(BTreeMap::new()),
            },
            entries: 0,
        }
    }

    /// Build the index over `col` in one pass. `ids` are the live
    /// entities in ascending order, so hash postings are appended, never
    /// searched; a sorted index collects its `(key, id)` pairs, sorts
    /// them once and bulk-builds the tree from the sorted run — on a
    /// numeric column the pairs are plain integers (the [`OrdF64`] bits
    /// and the id) and the sort is a stable radix sort by key. The
    /// result is what inserting every row one at a time would build.
    pub(crate) fn build(
        kind: IndexKind,
        col: &Column,
        ids: impl Iterator<Item = EntityId>,
    ) -> SecondaryIndex {
        let mut entries = 0;
        let buckets = match kind {
            IndexKind::Hash => {
                let mut map = HashMap::new();
                let mut key = KeyBuf::default();
                for id in ids {
                    if let Some(k) = KeyRef::at(col, id.index() as usize) {
                        append_posting(&mut map, key.load(k), id);
                        entries += 1;
                    }
                }
                Buckets::Hash(map)
            }
            IndexKind::Sorted if matches!(col.ty(), ValueType::Float | ValueType::Int) => {
                // plain integers: the key's order bits and the id, put in
                // key order by a stable radix sort, so equal keys keep
                // the ascending order the ids arrived in
                let mut run: Vec<(u64, EntityId)> = ids
                    .filter_map(|id| {
                        let key = col.get_number(id.index() as usize).and_then(OrdF64::new)?;
                        Some((key.0, id))
                    })
                    .collect();
                entries = run.len();
                radix_sort::<_, 8>(&mut run, |&(key, _)| key);
                let postings = run.chunk_by(|a, b| a.0 == b.0).map(|same| {
                    let ids = same.iter().map(|&(_, id)| id).collect();
                    (IndexKey::Num(OrdF64(same[0].0)), ids)
                });
                Buckets::Sorted(postings.collect())
            }
            IndexKind::Sorted => {
                let mut run: Vec<(KeyRef, EntityId)> = ids
                    .filter_map(|id| KeyRef::at(col, id.index() as usize).map(|k| (k, id)))
                    .collect();
                entries = run.len();
                run.sort_unstable();
                let mut postings: Vec<(IndexKey, Vec<EntityId>)> = Vec::new();
                for (key, id) in run {
                    match postings.last_mut() {
                        Some((last, posting)) if last.as_ref() == key => posting.push(id),
                        _ => postings.push((key.to_key(), vec![id])),
                    }
                }
                // `BTreeMap::from_iter` builds bottom-up from a sorted run
                Buckets::Sorted(postings.into_iter().collect())
            }
        };
        SecondaryIndex {
            ty: col.ty(),
            buckets,
            entries,
        }
    }

    /// The physical structure.
    pub fn kind(&self) -> IndexKind {
        match self.buckets {
            Buckets::Hash(_) => IndexKind::Hash,
            Buckets::Sorted(_) => IndexKind::Sorted,
        }
    }

    /// Indexed entities (= postings).
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Number of distinct keys — an *exact* NDV, which the planner's
    /// selectivity model gets for free instead of scanning.
    pub fn ndv(&self) -> usize {
        match &self.buckets {
            Buckets::Hash(m) => m.len(),
            Buckets::Sorted(m) => m.len(),
        }
    }

    /// Exact numeric (min, max) over indexed keys, for sorted numeric
    /// indexes — again free for the planner.
    pub fn numeric_bounds(&self) -> Option<(f64, f64)> {
        let Buckets::Sorted(m) = &self.buckets else {
            return None;
        };
        match (m.keys().next(), m.keys().next_back()) {
            (Some(IndexKey::Num(lo)), Some(IndexKey::Num(hi))) => Some((lo.get(), hi.get())),
            _ => None,
        }
    }

    /// True when this index can serve `op` (on this column's type).
    pub fn supports(&self, op: CmpOp) -> bool {
        supports(self.kind(), self.ty, op)
    }

    /// Insert `(value, id)`. No-op for unkeyable values (NaN).
    pub fn insert(&mut self, value: &Value, id: EntityId) {
        let Some(key) = IndexKey::encode(self.ty, value) else {
            return;
        };
        let posting = match &mut self.buckets {
            Buckets::Hash(m) => m.entry(key).or_default(),
            Buckets::Sorted(m) => m.entry(key).or_default(),
        };
        if let Err(at) = posting.binary_search(&id) {
            posting.insert(at, id);
            self.entries += 1;
        }
    }

    /// Remove `(value, id)`; drops emptied buckets so NDV stays exact.
    pub fn remove(&mut self, value: &Value, id: EntityId) {
        let Some(key) = IndexKey::encode(self.ty, value) else {
            return;
        };
        let emptied = match &mut self.buckets {
            Buckets::Hash(m) => match m.get_mut(&key) {
                Some(p) => {
                    if let Ok(at) = p.binary_search(&id) {
                        p.remove(at);
                        self.entries -= 1;
                    }
                    p.is_empty()
                }
                None => false,
            },
            Buckets::Sorted(m) => match m.get_mut(&key) {
                Some(p) => {
                    if let Ok(at) = p.binary_search(&id) {
                        p.remove(at);
                        self.entries -= 1;
                    }
                    p.is_empty()
                }
                None => false,
            },
        };
        if emptied {
            match &mut self.buckets {
                Buckets::Hash(m) => {
                    m.remove(&key);
                }
                Buckets::Sorted(m) => {
                    m.remove(&key);
                }
            }
        }
    }

    /// Exact posting count for an equality probe. The planner currently
    /// prices equality via presence/NDV (per-literal stats don't fit
    /// `TableStats`); this is for tooling and for a future skew-aware
    /// cost model.
    pub fn eq_count(&self, value: &Value) -> usize {
        IndexKey::encode(self.ty, value)
            .map(|key| match &self.buckets {
                Buckets::Hash(m) => m.get(&key).map_or(0, Vec::len),
                Buckets::Sorted(m) => m.get(&key).map_or(0, Vec::len),
            })
            .unwrap_or(0)
    }

    /// Append every entity whose value satisfies `value_stored op value`
    /// — and, when `also` carries a second bound, `value_stored op2
    /// value2` — to `out`, id-sorted. Returns `false` (leaving `out`
    /// untouched) when the index cannot serve an operator. An empty or
    /// inverted range (`>= 10 AND < 5`, `> 5 AND < 5`) and an unkeyable
    /// value (NaN, a type the column can never equal) append nothing:
    /// `compare` would reject every row.
    pub fn probe(
        &self,
        op: CmpOp,
        value: &Value,
        also: Option<(CmpOp, &Value)>,
        out: &mut Vec<EntityId>,
    ) -> bool {
        if !self.supports(op) || also.is_some_and(|(op2, _)| !self.supports(op2)) {
            return false;
        }
        let Some(key) = IndexKey::encode(self.ty, value) else {
            return true;
        };
        let (mut lo, mut hi) = bounds(op, key);
        if let Some((op2, value2)) = also {
            let Some(key2) = IndexKey::encode(self.ty, value2) else {
                return true;
            };
            let (lo2, hi2) = bounds(op2, key2);
            lo = tighter(lo, lo2, Ordering::Greater);
            hi = tighter(hi, hi2, Ordering::Less);
        }
        if holds_nothing(&lo, &hi) {
            return true;
        }
        match (&self.buckets, (&lo, &hi)) {
            // a point: one posting list, already id-sorted
            (Buckets::Hash(m), (Bound::Included(k), Bound::Included(_))) => {
                if let Some(p) = m.get(k) {
                    out.extend_from_slice(p);
                }
            }
            (Buckets::Sorted(m), _) => {
                let before = out.len();
                let mut lists = 0;
                for posting in m.range((lo, hi)).map(|(_, p)| p) {
                    out.extend_from_slice(posting);
                    lists += 1;
                }
                if lists > 1 {
                    sort_by_slot(&mut out[before..]);
                }
            }
            (Buckets::Hash(_), _) => unreachable!("supports() rejected ranges on hash"),
        }
        true
    }
}

/// The key range `stored op key` selects.
fn bounds(op: CmpOp, key: IndexKey) -> (Bound<IndexKey>, Bound<IndexKey>) {
    match op {
        CmpOp::Eq => (Bound::Included(key.clone()), Bound::Included(key)),
        CmpOp::Lt => (Bound::Unbounded, Bound::Excluded(key)),
        CmpOp::Le => (Bound::Unbounded, Bound::Included(key)),
        CmpOp::Gt => (Bound::Excluded(key), Bound::Unbounded),
        CmpOp::Ge => (Bound::Included(key), Bound::Unbounded),
        CmpOp::Ne => unreachable!("supports() refuses Ne"),
    }
}

/// The narrower of two lower bounds (`keep = Greater`: the larger key
/// wins) or of two upper bounds (`keep = Less`); on equal keys the
/// exclusive bound is the narrower.
fn tighter(a: Bound<IndexKey>, b: Bound<IndexKey>, keep: Ordering) -> Bound<IndexKey> {
    let ord = match (&a, &b) {
        (Bound::Unbounded, _) => return b,
        (_, Bound::Unbounded) => return a,
        (Bound::Included(x) | Bound::Excluded(x), Bound::Included(y) | Bound::Excluded(y)) => {
            x.cmp(y)
        }
    };
    match ord {
        Ordering::Equal if matches!(a, Bound::Excluded(_)) => a,
        Ordering::Equal => b,
        o if o == keep => a,
        _ => b,
    }
}

/// True when no key lies in `(lo, hi)` — the ranges `BTreeMap::range`
/// panics on (start above end, or one key with an exclusive side).
fn holds_nothing(lo: &Bound<IndexKey>, hi: &Bound<IndexKey>) -> bool {
    match (lo, hi) {
        (Bound::Included(a) | Bound::Excluded(a), Bound::Included(b) | Bound::Excluded(b)) => {
            match a.cmp(b) {
                Ordering::Less => false,
                Ordering::Equal => {
                    !matches!((lo, hi), (Bound::Included(_), Bound::Included(_)))
                }
                Ordering::Greater => true,
            }
        }
        _ => false,
    }
}

/// Sort `ids` ascending by slot index ([`radix_sort`]) — linear in
/// `ids.len()`, where the comparison sort it replaced paid a log factor.
/// The ids occupy distinct slots (an index holds each live slot at most
/// once), so slot order is id order.
fn sort_by_slot(ids: &mut [EntityId]) {
    radix_sort::<_, 4>(ids, |e| e.index() as u64);
}

/// Stable LSD radix sort of `items` by the low `BYTES` bytes of `key`,
/// one counting-sort pass per byte, so items with equal keys keep their
/// input order. One read counts every byte's digits; a byte on which all
/// items agree (the high bytes of small slots, the low mantissa bytes of
/// whole numbers) moves nothing, and its pass is skipped.
pub(crate) fn radix_sort<T: Copy, const BYTES: usize>(items: &mut [T], key: impl Fn(&T) -> u64) {
    let digit = |k: u64, byte: usize| (k >> (8 * byte)) as u8 as usize;
    let mut counts = [[0usize; 256]; BYTES];
    for item in items.iter() {
        let k = key(item);
        for (byte, count) in counts.iter_mut().enumerate() {
            count[digit(k, byte)] += 1;
        }
    }
    let n = items.len();
    if counts.iter().all(|at| at.contains(&n)) {
        return;
    }
    let mut scratch = items.to_vec();
    let (mut src, mut dst): (&mut [T], &mut [T]) = (items, &mut scratch);
    let mut in_scratch = false;
    for (byte, at) in counts.iter_mut().enumerate() {
        if at.contains(&n) {
            continue;
        }
        let mut sum = 0;
        for slot in at.iter_mut() {
            (*slot, sum) = (sum, sum + *slot);
        }
        for &item in src.iter() {
            let d = digit(key(&item), byte);
            dst[at[d]] = item;
            at[d] += 1;
        }
        std::mem::swap(&mut src, &mut dst);
        in_scratch = !in_scratch;
    }
    if in_scratch {
        // the last pass wrote the scratch copy
        dst.copy_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u32) -> EntityId {
        EntityId::from_bits(n as u64)
    }

    #[test]
    fn ordf64_total_order_matches_float_order() {
        let vals = [-1e30, -2.5, -0.0, 0.0, 1e-9, 2.5, 1e30];
        for (i, &a) in vals.iter().enumerate() {
            for &b in &vals[i + 1..] {
                let (ka, kb) = (OrdF64::new(a).unwrap(), OrdF64::new(b).unwrap());
                if a == b {
                    assert_eq!(ka, kb, "{a} vs {b}");
                } else {
                    assert!(ka < kb, "{a} vs {b}");
                }
                assert_eq!(ka.get(), if a == 0.0 { 0.0 } else { a });
            }
        }
        assert!(OrdF64::new(f64::NAN).is_none());
    }

    #[test]
    fn hash_index_eq_probe() {
        let mut idx = SecondaryIndex::new(IndexKind::Hash, ValueType::Str);
        idx.insert(&Value::Str("red".into()), id(1));
        idx.insert(&Value::Str("blue".into()), id(2));
        idx.insert(&Value::Str("red".into()), id(3));
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.ndv(), 2);
        let mut out = vec![];
        assert!(idx.probe(CmpOp::Eq, &Value::Str("red".into()), None, &mut out));
        assert_eq!(out, vec![id(1), id(3)]);
        // ranges unsupported on hash
        assert!(!idx.probe(CmpOp::Lt, &Value::Str("red".into()), None, &mut out));
        assert_eq!(idx.eq_count(&Value::Str("red".into())), 2);
        assert_eq!(idx.eq_count(&Value::Str("green".into())), 0);
    }

    #[test]
    fn sorted_index_range_probes() {
        let mut idx = SecondaryIndex::new(IndexKind::Sorted, ValueType::Float);
        for (i, hp) in [10.0f32, 20.0, 20.0, 30.0].iter().enumerate() {
            idx.insert(&Value::Float(*hp), id(i as u32));
        }
        let mut out = vec![];
        idx.probe(CmpOp::Lt, &Value::Float(20.0), None, &mut out);
        assert_eq!(out, vec![id(0)]);
        out.clear();
        idx.probe(CmpOp::Le, &Value::Float(20.0), None, &mut out);
        assert_eq!(out, vec![id(0), id(1), id(2)]);
        out.clear();
        idx.probe(CmpOp::Gt, &Value::Float(20.0), None, &mut out);
        assert_eq!(out, vec![id(3)]);
        out.clear();
        // int literal probes a float column through numeric coercion
        idx.probe(CmpOp::Ge, &Value::Int(20), None, &mut out);
        assert_eq!(out, vec![id(1), id(2), id(3)]);
        assert_eq!(idx.numeric_bounds(), Some((10.0, 30.0)));
    }

    #[test]
    fn range_probe_orders_ids_across_slot_bytes() {
        // slots spanning three radix digits, inserted key by key, so the
        // concatenated posting lists are out of id order
        let mut idx = SecondaryIndex::new(IndexKind::Sorted, ValueType::Int);
        let slots: Vec<u32> = (0..3000u32).map(|i| (i * 7919) % 70_000).collect();
        for (i, &s) in slots.iter().enumerate() {
            idx.insert(&Value::Int((i % 37) as i64), id(s));
        }
        let mut out = vec![id(u32::MAX)];
        let upper = Value::Int(30);
        assert!(idx.probe(CmpOp::Ge, &Value::Int(3), Some((CmpOp::Lt, &upper)), &mut out));
        let mut want: Vec<EntityId> = slots
            .iter()
            .enumerate()
            .filter(|(i, _)| (3..30).contains(&(i % 37)))
            .map(|(_, &s)| id(s))
            .collect();
        want.sort_unstable();
        assert_eq!(out[0], id(u32::MAX), "what `out` held stays put");
        assert_eq!(out[1..], want[..]);
    }

    #[test]
    fn remove_and_empty_buckets() {
        let mut idx = SecondaryIndex::new(IndexKind::Sorted, ValueType::Int);
        idx.insert(&Value::Int(5), id(1));
        idx.insert(&Value::Int(5), id(2));
        idx.remove(&Value::Int(5), id(1));
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.ndv(), 1);
        idx.remove(&Value::Int(5), id(2));
        assert_eq!(idx.len(), 0);
        assert_eq!(idx.ndv(), 0, "emptied bucket must be dropped");
        // removing something absent is a no-op
        idx.remove(&Value::Int(5), id(2));
        assert_eq!(idx.len(), 0);
    }

    #[test]
    fn nan_never_stored_nan_probe_empty() {
        let mut idx = SecondaryIndex::new(IndexKind::Sorted, ValueType::Float);
        idx.insert(&Value::Float(f32::NAN), id(1));
        assert_eq!(idx.len(), 0);
        idx.insert(&Value::Float(1.0), id(2));
        let mut out = vec![];
        assert!(idx.probe(CmpOp::Lt, &Value::Float(f32::NAN), None, &mut out));
        assert!(out.is_empty());
    }

    #[test]
    fn mixed_type_probe_is_empty() {
        let mut idx = SecondaryIndex::new(IndexKind::Hash, ValueType::Float);
        idx.insert(&Value::Float(5.0), id(1));
        let mut out = vec![];
        assert!(idx.probe(CmpOp::Eq, &Value::Str("5".into()), None, &mut out));
        assert!(out.is_empty(), "compare() calls mixed comparisons false");
    }

    #[test]
    fn negative_zero_folds_onto_zero() {
        let mut idx = SecondaryIndex::new(IndexKind::Hash, ValueType::Float);
        idx.insert(&Value::Float(-0.0), id(1));
        let mut out = vec![];
        idx.probe(CmpOp::Eq, &Value::Float(0.0), None, &mut out);
        assert_eq!(out, vec![id(1)]);
    }

    #[test]
    fn vec2_equality_only() {
        let mut idx = SecondaryIndex::new(IndexKind::Sorted, ValueType::Vec2);
        idx.insert(&Value::Vec2(1.0, 2.0), id(1));
        let mut out = vec![];
        assert!(idx.probe(CmpOp::Eq, &Value::Vec2(1.0, 2.0), None, &mut out));
        assert_eq!(out, vec![id(1)]);
        assert!(!idx.probe(CmpOp::Lt, &Value::Vec2(1.0, 2.0), None, &mut out));
    }
}
