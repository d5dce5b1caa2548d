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
//! Both physical structures share one keyed core: each distinct key is a
//! dense `u32` id, its posting list a vector indexed by that id, and each
//! indexed slot remembers its key id and its place in that list. A string
//! column's key id is its dictionary code
//! ([`StrColumn`](crate::column::StrColumn)), read from the
//! column, so the index hashes no string; any other column's keys are
//! interned in the index's own [`KeyTable`], the one the view engine's
//! operators intern their keys in. A write to an indexed column costs at
//! most one hash lookup (a scalar's new key; the old one is remembered)
//! and an O(1) move between two posting lists, and a key that is already
//! known allocates nothing.
//!
//! * [`IndexKind::Hash`] — the key table alone; equality probes only,
//!   O(1) per lookup. The right choice for high-cardinality
//!   identity-like components (`owner`, `guild`, `class`).
//! * [`IndexKind::Sorted`] — the key table plus its live key ids in key
//!   order, touched only when a key is born or dies; equality *and* range
//!   probes (`<`, `<=`, `>`, `>=`), O(log n + k). The right choice for
//!   numeric gameplay attributes (`hp`, `level`, `threat`).
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
//! 1. Every write path makes one call, [`SecondaryIndex::replace`], right
//!    after the column changes, and the index reads the slot's key from
//!    the column: [`crate::World::set`], the column groups of
//!    [`crate::World::apply_batch`], [`crate::World::remove_component`]
//!    and [`crate::World::despawn`] alike. A string column interns a
//!    slot's new string before it releases the old one, so a changed
//!    string never gets its old code back, and the index leaves the old
//!    code before anything else is interned: a code (and its cached
//!    prefix) the index holds is never reused while it holds it. An
//!    unchanged string costs no hash; a changed one, the column's one.
//! 2. Effects, template spawns, WAL/delta redo, and script writes all
//!    funnel through those entry points, so no other code path can
//!    desynchronize an index.
//! 3. A key id is freed the moment its posting list empties and reused
//!    by the next new key, so [`SecondaryIndex::ndv`] is the live key
//!    count and key churn cannot grow the index.
//! 4. A posting list is in no particular order — a slot leaves one by a
//!    swap with its last entry — and a probe puts what it returns in
//!    slot order, so probes return deterministic id-ordered candidate
//!    sets. A probe with at least one candidate per `DENSE_SPAN` (64)
//!    slots of the index's span sets one bit per candidate in a bitmap
//!    of the span and reads the slots back word by word, building and
//!    sorting no candidate list; a sparser one collects its slots and
//!    radix-sorts them (linear time), or only checks them when already
//!    in order (a single list as `SecondaryIndex::build` leaves it).
//!    Measured on 100k slots, 40 distinct `hp` windows run through a
//!    plan: the two meet at 1,000–2,000 candidates (one per 50–100
//!    slots); at 10,000 the bitmap takes 45 µs and the sort 93 µs. An
//!    index holds each live slot at most once, so slot order is id
//!    order and there is nothing to de-duplicate.
//! 5. An index comes into being over existing rows at once
//!    (`SecondaryIndex::build` — live `create_index` and snapshot
//!    recovery alike, which loads rows *before* any index exists): ids
//!    are read in ascending order and each row's key id is read once (a
//!    string column's code as it stands, hashing nothing; any other key
//!    looked up), then every posting list is allocated at its final size
//!    and filled in id order, and a sorted index orders its key ids once,
//!    from a radix-sorted run of their prefixes. Probes of the result
//!    answer exactly what per-row inserts would have built
//!    (`bulk_load_equals_row_by_row_restore` in `tests/prop_core.rs`).

use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::ops::{Bound, RangeBounds};
use std::sync::Arc;

use gamedb_content::{CmpOp, Value, ValueType};
use gamedb_spatial::BuildIdHasher;

use crate::column::{Column, ColumnData};
use crate::entity::EntityId;
use crate::query::{push_mask, BLOCK};

/// Physical structure of a secondary index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Hash lookup: equality probes only, O(1).
    Hash,
    /// Ordered keys: equality and range probes, O(log n + k).
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
/// cross-variant `Ord` is never exercised within one index. A string key
/// is one shared allocation: the [`KeyTable`] holding it keys its map by
/// the same `Arc`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IndexKey {
    Num(OrdF64),
    Bool(bool),
    Str(Arc<str>),
    Vec2([u32; 2]),
}

impl IndexKey {
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

/// An [`IndexKey`] read from a column slot or a value without copying its
/// string: the variants and the order of `IndexKey`, so a run of these
/// sorts exactly as the owned keys would, and only a key that is kept
/// (one per distinct value) pays for an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum KeyRef<'a> {
    Num(OrdF64),
    Bool(bool),
    Str(&'a str),
    Vec2([u32; 2]),
}

impl<'a> KeyRef<'a> {
    /// The key `value` has against a column of type `column_ty`.
    ///
    /// `None` means "this value can never satisfy an equality or range
    /// predicate against this column" — NaN, or a type that `compare`
    /// treats as an always-false mixed comparison.
    pub(crate) fn of(column_ty: ValueType, value: &'a Value) -> Option<KeyRef<'a>> {
        match (column_ty, value) {
            (ValueType::Float | ValueType::Int, v) => {
                v.as_number().and_then(OrdF64::new).map(KeyRef::Num)
            }
            (ValueType::Bool, Value::Bool(b)) => Some(KeyRef::Bool(*b)),
            (ValueType::Str, Value::Str(s)) => Some(KeyRef::Str(s)),
            (ValueType::Vec2, Value::Vec2(x, y)) => vec2_bits(*x, *y).map(KeyRef::Vec2),
            _ => None,
        }
    }

    /// The key [`KeyRef::of`] gives the value stored at `slot` of `col`,
    /// read through the typed accessors — no [`Value`] is built. `None`
    /// when the slot is empty or holds a NaN.
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
    /// their first eight bytes can tie on distinct keys — every other
    /// key is its prefix, whole.
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

    /// The owned key: a string is copied into one new allocation.
    pub(crate) fn to_key(self) -> IndexKey {
        match self {
            KeyRef::Num(n) => IndexKey::Num(n),
            KeyRef::Bool(b) => IndexKey::Bool(b),
            KeyRef::Str(s) => IndexKey::Str(Arc::from(s)),
            KeyRef::Vec2(v) => IndexKey::Vec2(v),
        }
    }
}

/// A key other than a string as one integer — its [`KeyRef::prefix`],
/// which spells such a key out whole — and its variant, so a `Bool` and
/// a `Vec2` of equal bits stay two keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Scalar(u64, u8);

impl Scalar {
    fn of(key: KeyRef<'_>) -> Scalar {
        let variant = match key {
            KeyRef::Num(_) => 0,
            KeyRef::Bool(_) => 1,
            KeyRef::Vec2(_) => 2,
            KeyRef::Str(_) => unreachable!("string keys have their own map"),
        };
        Scalar(key.prefix(), variant)
    }
}

impl Hash for Scalar {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // A whole number's `OrdF64` bits have their low 40 bits zero, and
        // a multiply-rotate hash of such a word leaves zero both the low
        // bits a table indexes by and the high bits it keeps as control
        // bytes: fold the high half in before the hasher multiplies.
        state.write_u64(self.0 ^ (self.0 >> 32));
    }
}

/// Interns keys as dense `u32` ids, so a view operator's group table and
/// join postings and a secondary index's posting lists are vectors
/// indexed by id, and a row remembers its key in four bytes. A view
/// counts the rows holding each id ([`KeyTable::intern`]) and frees the
/// ids no row holds at the end of a refresh ([`KeyTable::sweep`]), so ids
/// stay stable while one is folded; an index over a column of scalars
/// counts them in its posting lists and frees an id as soon as its list
/// empties ([`KeyTable::retire`]); a string column's dictionary counts
/// the slots holding each id and frees it when the last one lets go
/// ([`KeyTable::unhold`]), and its ids are the codes an index on the
/// column keys by. A freed id is reused by the next new key, so key
/// churn cannot grow the table.
#[derive(Debug, Clone, Default)]
pub(crate) struct KeyTable {
    /// Id of each key but a string. These are integers the engine
    /// derives, so the multiply-rotate `IdHasher` hashes them.
    scalars: HashMap<Scalar, u32, BuildIdHasher>,
    /// Id of each string key. Strings can be player-chosen bytes, so they
    /// keep std's randomly keyed hasher; a lookup borrows the `&str`. The
    /// map shares each string's allocation with its entry in `keys`.
    strings: HashMap<Arc<str>, u32>,
    /// Key of each id; `None` for a free id.
    keys: Vec<Option<IndexKey>>,
    /// Order-preserving prefix of each id's key ([`KeyRef::prefix`]).
    prefixes: Vec<u64>,
    /// Rows holding each id (a view's count; zero in an index).
    rows: Vec<u32>,
    free: Vec<u32>,
    /// Ids whose count reached zero since the last sweep.
    dead: Vec<u32>,
}

impl KeyTable {
    /// The key of `id`; `None` for a free id or [`NO_KEY`].
    pub(crate) fn get(&self, id: u32) -> Option<KeyRef<'_>> {
        self.keys.get(id as usize)?.as_ref().map(IndexKey::as_ref)
    }

    /// The string key of `id`; `None` for a free id, [`NO_KEY`] or a key
    /// of another type.
    #[inline]
    pub(crate) fn get_str(&self, id: u32) -> Option<&str> {
        match self.keys.get(id as usize)? {
            Some(IndexKey::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// The cached [`KeyRef::prefix`] of `id`'s key, kept when the id is
    /// freed until a new key reuses it; 0 for an id the table never
    /// handed out (a group view's global group).
    pub(crate) fn prefix(&self, id: u32) -> u64 {
        self.prefixes.get(id as usize).copied().unwrap_or(0)
    }

    /// One past the largest id handed out: the length of a vector indexed
    /// by this table's ids.
    pub(crate) fn id_bound(&self) -> usize {
        self.keys.len()
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

    /// Put distinct `(prefix, id)` pairs, each id's cached prefix with
    /// it, in key order: a radix sort on the prefixes, then the keys
    /// compared inside each prefix tie ([`KeyTable::order`]).
    pub(crate) fn sort(&self, ids: &mut [(u64, u32)]) {
        radix_sort::<_, 8>(ids, |&(prefix, _)| prefix);
        for tie in ids.chunk_by_mut(|a, b| a.0 == b.0) {
            if tie.len() > 1 {
                tie.sort_unstable_by(|a, b| self.order(a.1, b.1));
            }
        }
    }

    /// The id of `key`, if it is interned.
    pub(crate) fn find(&self, key: KeyRef<'_>) -> Option<u32> {
        match key {
            KeyRef::Str(s) => self.strings.get(s),
            key => self.scalars.get(&Scalar::of(key)),
        }
        .copied()
    }

    /// The id of `key`, interned with no rows counted if it is new. A
    /// known key is found without building an owned key, so it
    /// allocates nothing; a new string key allocates once, shared by
    /// the map and the key list.
    pub(crate) fn id(&mut self, key: KeyRef<'_>) -> u32 {
        if let Some(id) = self.find(key) {
            return id;
        }
        let id = self.free.pop().unwrap_or(self.keys.len() as u32);
        if id as usize == self.keys.len() {
            self.keys.push(None);
            self.prefixes.push(0);
            self.rows.push(0);
        }
        self.prefixes[id as usize] = key.prefix();
        self.rows[id as usize] = 0;
        let key = key.to_key();
        match &key {
            IndexKey::Str(s) => self.strings.insert(Arc::clone(s), id),
            key => self.scalars.insert(Scalar::of(key.as_ref()), id),
        };
        self.keys[id as usize] = Some(key);
        id
    }

    /// The id of `key`, counting `rows` more rows on it.
    pub(crate) fn intern(&mut self, key: KeyRef<'_>, rows: u32) -> u32 {
        let id = self.id(key);
        self.hold(id, rows);
        id
    }

    /// The id a row holding `held` ([`NO_KEY`]: none) holds once its key
    /// is `now`: `held` itself when the key is unchanged — compared with
    /// the interned key, not hashed — else `now` interned, `held`
    /// released (and swept once no row holds it).
    pub(crate) fn rekey(&mut self, held: u32, now: Option<KeyRef<'_>>) -> u32 {
        match now {
            Some(k) if self.get(held) == Some(k) => held,
            now => {
                if held != NO_KEY && self.release(held) {
                    self.dead.push(held);
                }
                now.map_or(NO_KEY, |k| self.intern(k, 1))
            }
        }
    }

    /// Count `rows` more rows on the interned `id`.
    #[inline]
    pub(crate) fn hold(&mut self, id: u32, rows: u32) {
        self.rows[id as usize] += rows;
    }

    /// One row stopped holding `id`; true when no row holds it now.
    fn release(&mut self, id: u32) -> bool {
        let rows = &mut self.rows[id as usize];
        *rows -= 1;
        *rows == 0
    }

    /// One row stopped holding `id`, which is freed at once when that
    /// was the last row (a dictionary keeps no dead entry to sweep).
    pub(crate) fn unhold(&mut self, id: u32) {
        if self.release(id) {
            self.retire(id);
        }
    }

    /// Free every id no row holds any more.
    pub(crate) fn sweep(&mut self) {
        while let Some(id) = self.dead.pop() {
            if self.rows[id as usize] == 0 {
                self.retire(id);
            }
        }
    }

    /// Free `id`, which no row holds, for the next new key.
    fn retire(&mut self, id: u32) {
        if let Some(key) = self.keys[id as usize].take() {
            match key {
                IndexKey::Str(s) => self.strings.remove(&*s),
                key => self.scalars.remove(&Scalar::of(key.as_ref())),
            };
            self.free.push(id);
        }
    }

    /// Keys currently interned.
    pub(crate) fn len(&self) -> usize {
        self.scalars.len() + self.strings.len()
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

/// Where one slot sits in an index: its key id ([`NO_KEY`]: not indexed)
/// and its position in that key's posting list.
#[derive(Debug, Clone, Copy)]
struct Held {
    key: u32,
    at: u32,
}

const UNHELD: Held = Held { key: NO_KEY, at: 0 };

/// A secondary index over one component column.
#[derive(Debug, Clone)]
pub struct SecondaryIndex {
    kind: IndexKind,
    ty: ValueType,
    /// The live keys of a column of scalars; an id is retired the moment
    /// its posting empties. A key's row count is its posting's length, so
    /// the table's own counts stay zero. Empty over a string column,
    /// whose key ids are its dictionary codes.
    keys: KeyTable,
    /// Entities holding each key id, in no particular order (a probe
    /// sorts what it returns); empty for a free id.
    postings: Vec<Vec<EntityId>>,
    /// Each slot's key id and posting position, so a write leaves its old
    /// posting without reading the old key or searching the list.
    held: Vec<Held>,
    /// [`IndexKind::Sorted`] only: `(prefix, key id)` of every live key.
    /// Prefix order is key order except among strings sharing their
    /// first eight bytes, which a range probe settles by comparing keys.
    order: BTreeSet<(u64, u32)>,
    entries: usize,
    /// Live keys: postings that are not empty.
    ndv: usize,
}

impl SecondaryIndex {
    /// Empty index for a column of type `ty`.
    pub fn new(kind: IndexKind, ty: ValueType) -> Self {
        SecondaryIndex {
            kind,
            ty,
            keys: KeyTable::default(),
            postings: Vec::new(),
            held: Vec::new(),
            order: BTreeSet::new(),
            entries: 0,
            ndv: 0,
        }
    }

    /// Build the index over `col`. `ids` are the live entities in
    /// ascending order: each row's key id is read once (a string
    /// column's code as it stands), every posting list is then allocated
    /// at its final size and filled in id order, and a sorted index
    /// orders its key ids once, at the end. Probes of the result answer
    /// exactly what inserting every row one at a time would have built.
    pub(crate) fn build(
        kind: IndexKind,
        col: &Column,
        ids: impl Iterator<Item = EntityId>,
    ) -> SecondaryIndex {
        let mut idx = SecondaryIndex::new(kind, col.ty());
        let mut rows: Vec<(EntityId, u32)> = Vec::new();
        let mut sizes: Vec<usize> = Vec::new();
        for id in ids {
            let kid = idx.key_at(col, id.index() as usize);
            if kid != NO_KEY {
                if kid as usize >= sizes.len() {
                    sizes.resize(kid as usize + 1, 0);
                }
                sizes[kid as usize] += 1;
                rows.push((id, kid));
            }
        }
        idx.postings = sizes.into_iter().map(Vec::with_capacity).collect();
        idx.held = vec![UNHELD; col.presence().len()];
        for (id, kid) in rows {
            idx.post(kid, id);
        }
        if kind == IndexKind::Sorted {
            // a sorted run builds the tree bottom-up
            let keys = idx.keys(col);
            let mut order: Vec<(u64, u32)> = (0u32..)
                .zip(&idx.postings)
                .filter(|(_, posting)| !posting.is_empty())
                .map(|(kid, _)| (keys.prefix(kid), kid))
                .collect();
            radix_sort::<_, 8>(&mut order, |&(prefix, _)| prefix);
            idx.order = order.into_iter().collect();
        }
        idx
    }

    /// The physical structure.
    pub fn kind(&self) -> IndexKind {
        self.kind
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
        self.ndv
    }

    /// Exact numeric (min, max) over indexed keys, for sorted numeric
    /// indexes — again free for the planner.
    pub fn numeric_bounds(&self) -> Option<(f64, f64)> {
        let (&(_, lo), &(_, hi)) = (self.order.first()?, self.order.last()?);
        match (self.keys.get(lo)?, self.keys.get(hi)?) {
            (KeyRef::Num(lo), KeyRef::Num(hi)) => Some((lo.get(), hi.get())),
            _ => None,
        }
    }

    /// True when this index can serve `op` (on this column's type).
    pub fn supports(&self, op: CmpOp) -> bool {
        supports(self.kind, self.ty, op)
    }

    /// Index `id` under the key its slot of `col` holds now — none when
    /// the value was removed, the entity despawned, or the value is NaN.
    /// The one maintenance call of every write path, made right after
    /// the column changes: the slot's old key id is remembered, so at
    /// most the new key is looked up, and a string column's code is read
    /// as it stands.
    pub(crate) fn replace(&mut self, id: EntityId, col: &Column) {
        let slot = id.index() as usize;
        let held = self.key_id(slot);
        let kid = self.key_at(col, slot);
        if kid == held {
            return;
        }
        if held != NO_KEY {
            self.unpost(held, slot, col);
        }
        if kid != NO_KEY && self.post(kid, id) && self.kind == IndexKind::Sorted {
            self.order.insert((self.keys(col).prefix(kid), kid));
        }
    }

    /// The key id of the value at `slot` of `col` ([`NO_KEY`]: none): a
    /// string column's code, any other key's id in the index's own
    /// table, interned if it is new.
    fn key_at(&mut self, col: &Column, slot: usize) -> u32 {
        match col.data() {
            ColumnData::Str(s) => s.code(slot).unwrap_or(NO_KEY),
            _ => KeyRef::at(col, slot).map_or(NO_KEY, |key| self.keys.id(key)),
        }
    }

    /// Append `id` to the posting list of key id `kid`; true when the
    /// list was empty (the key is new).
    fn post(&mut self, kid: u32, id: EntityId) -> bool {
        if kid as usize >= self.postings.len() {
            self.postings.resize_with(kid as usize + 1, Vec::new);
        }
        let posting = &mut self.postings[kid as usize];
        let slot = id.index() as usize;
        if slot >= self.held.len() {
            self.held.resize(slot + 1, UNHELD);
        }
        self.held[slot] = Held {
            key: kid,
            at: posting.len() as u32,
        };
        posting.push(id);
        self.entries += 1;
        let new = posting.len() == 1;
        self.ndv += usize::from(new);
        new
    }

    /// Take `slot` out of the posting list of key id `kid`, retiring the
    /// key if that empties it. The column may have freed a code already:
    /// it keeps its cached prefix until it is reused, which it is not
    /// before the index leaves it (module doc, 1).
    fn unpost(&mut self, kid: u32, slot: usize, col: &Column) {
        let at = self.held[slot].at as usize;
        self.held[slot] = UNHELD;
        let posting = &mut self.postings[kid as usize];
        posting.swap_remove(at);
        if let Some(moved) = posting.get(at) {
            self.held[moved.index() as usize].at = at as u32;
        }
        self.entries -= 1;
        if posting.is_empty() {
            self.ndv -= 1;
            self.order.remove(&(self.keys(col).prefix(kid), kid));
            if self.ty != ValueType::Str {
                self.keys.retire(kid);
            }
        }
    }

    /// The key id live `slot` is indexed under ([`NO_KEY`]: none) — the
    /// key its column holds, read without touching the column.
    pub(crate) fn key_id(&self, slot: usize) -> u32 {
        self.held.get(slot).map_or(NO_KEY, |h| h.key)
    }

    /// The table the key ids of this index over `col` point into: the
    /// column's dictionary over a string column, else the index's own.
    pub(crate) fn keys<'a>(&'a self, col: &'a Column) -> &'a KeyTable {
        match col.data() {
            ColumnData::Str(s) => s.dict(),
            _ => &self.keys,
        }
    }

    /// The slots of every entity whose value in `col`, the indexed
    /// column, satisfies `value_stored op value` — and, when `also`
    /// carries a second bound, `value_stored op2 value2` — ascending,
    /// handed to `sink` at most [`BLOCK`] at a time in a buffer it may
    /// narrow in place. Returns the candidate count (the postings'
    /// total); `None`, calling nothing, when the index cannot serve an
    /// operator. An empty or inverted range (`>= 10 AND < 5`, `> 5 AND <
    /// 5`) and an unkeyable value (NaN, a type the column can never
    /// equal) hand over nothing: `compare` would reject every row. A
    /// probe of at least one candidate per [`DENSE_SPAN`] slots of the
    /// span orders them by a bitmap of the span, read back word by word;
    /// a sparser one radix-sorts them.
    pub(crate) fn probe(
        &self,
        col: &Column,
        op: CmpOp,
        value: &Value,
        also: Option<(CmpOp, &Value)>,
        sink: &mut dyn FnMut(&mut Vec<u32>),
    ) -> Option<usize> {
        if !self.supports(op) || also.is_some_and(|(op2, _)| !self.supports(op2)) {
            return None;
        }
        let Some(key) = KeyRef::of(self.ty, value) else {
            return Some(0);
        };
        let (mut lo, mut hi) = bounds(op, key);
        if let Some((op2, value2)) = also {
            let Some(key2) = KeyRef::of(self.ty, value2) else {
                return Some(0);
            };
            let (lo2, hi2) = bounds(op2, key2);
            lo = tighter(lo, lo2, Ordering::Greater);
            hi = tighter(hi, hi2, Ordering::Less);
        }
        let keys = self.keys(col);
        let mut total = 0;
        self.postings_within(keys, lo, hi, |posting| total += posting.len());
        let span = self.held.len();
        let mut sel = Vec::with_capacity(BLOCK);
        if total * DENSE_SPAN >= span {
            let mut bits = vec![0u64; span.div_ceil(64)];
            self.postings_within(keys, lo, hi, |posting| {
                for s in posting.iter().map(|id| id.index() as usize) {
                    bits[s / 64] |= 1 << (s % 64);
                }
            });
            for (base, words) in (0u32..).step_by(BLOCK).zip(bits.chunks(BLOCK / 64)) {
                sel.clear();
                for (base, &word) in (base..).step_by(64).zip(words) {
                    push_mask(&mut sel, base, word);
                }
                if !sel.is_empty() {
                    sink(&mut sel);
                }
            }
        } else {
            let mut slots = Vec::with_capacity(total);
            self.postings_within(keys, lo, hi, |posting| {
                slots.extend(posting.iter().map(|id| id.index()))
            });
            if !slots.is_sorted() {
                radix_sort::<_, 4>(&mut slots, |&s| s as u64);
            }
            for block in slots.chunks(BLOCK) {
                sel.clear();
                sel.extend_from_slice(block);
                sink(&mut sel);
            }
        }
        Some(total)
    }

    /// Run `f` on the posting list of every live key within `(lo, hi)`,
    /// in key order; `keys` is the table the index's key ids point into.
    fn postings_within(
        &self,
        keys: &KeyTable,
        lo: Bound<KeyRef<'_>>,
        hi: Bound<KeyRef<'_>>,
        mut f: impl FnMut(&[EntityId]),
    ) {
        match (lo, hi) {
            // a point: one posting list
            (Bound::Included(a), Bound::Included(b)) if a == b => {
                if let Some(kid) = keys.find(a) {
                    f(&self.postings[kid as usize]);
                }
            }
            // a range: the live keys whose prefixes lie between the
            // bounds' prefixes, each held to the bounds whole
            _ => {
                let prefix = |bound: Bound<KeyRef<'_>>, unbounded: u64| match bound {
                    Bound::Included(k) | Bound::Excluded(k) => k.prefix(),
                    Bound::Unbounded => unbounded,
                };
                let (from, to) = (prefix(lo, 0), prefix(hi, u64::MAX));
                if from > to {
                    return;
                }
                for &(prefix, kid) in self.order.range((from, 0)..=(to, u32::MAX)) {
                    // a prefix strictly between the bounds' prefixes is a
                    // key strictly between the bounds
                    let inside = (from < prefix && prefix < to)
                        || (lo, hi).contains(&keys.get(kid).expect("ordered key ids are live"));
                    if inside {
                        f(&self.postings[kid as usize]);
                    }
                }
            }
        }
    }
}

/// A probe of at least one candidate per this many slots of the index's
/// span orders them by bitmap, not by sort (measured: module doc, 4).
const DENSE_SPAN: usize = 64;

/// The key range `stored op key` selects.
fn bounds(op: CmpOp, key: KeyRef<'_>) -> (Bound<KeyRef<'_>>, Bound<KeyRef<'_>>) {
    match op {
        CmpOp::Eq => (Bound::Included(key), Bound::Included(key)),
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
fn tighter<'a>(a: Bound<KeyRef<'a>>, b: Bound<KeyRef<'a>>, keep: Ordering) -> Bound<KeyRef<'a>> {
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

    /// An index with the column it indexes.
    struct Indexed {
        idx: SecondaryIndex,
        col: Column,
    }

    impl Indexed {
        fn new(kind: IndexKind, ty: ValueType) -> Indexed {
            Indexed { idx: SecondaryIndex::new(kind, ty), col: Column::new(ty) }
        }
    }

    impl std::ops::Deref for Indexed {
        type Target = SecondaryIndex;
        fn deref(&self) -> &SecondaryIndex {
            &self.idx
        }
    }

    fn put(ix: &mut Indexed, v: &Value, e: EntityId) {
        ix.col.set(e.index() as usize, v).unwrap();
        ix.idx.replace(e, &ix.col);
    }

    fn take(ix: &mut Indexed, e: EntityId) {
        ix.col.remove(e.index() as usize);
        ix.idx.replace(e, &ix.col);
    }

    /// [`SecondaryIndex::probe`] appending ids (generation 0) to `out`.
    fn probe(
        ix: &Indexed,
        op: CmpOp,
        value: &Value,
        also: Option<(CmpOp, &Value)>,
        out: &mut Vec<EntityId>,
    ) -> bool {
        ix.idx
            .probe(&ix.col, op, value, also, &mut |sel| out.extend(sel.iter().map(|&s| id(s))))
            .is_some()
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
        let mut idx = Indexed::new(IndexKind::Hash, ValueType::Str);
        put(&mut idx, &Value::Str("red".into()), id(1));
        put(&mut idx, &Value::Str("blue".into()), id(2));
        put(&mut idx, &Value::Str("red".into()), id(3));
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.ndv(), 2);
        let mut out = vec![];
        assert!(probe(&idx, CmpOp::Eq, &Value::Str("red".into()), None, &mut out));
        assert_eq!(out, vec![id(1), id(3)]);
        // ranges unsupported on hash
        assert!(!probe(&idx, CmpOp::Lt, &Value::Str("red".into()), None, &mut out));
    }

    #[test]
    fn sorted_index_range_probes() {
        let mut idx = Indexed::new(IndexKind::Sorted, ValueType::Float);
        for (i, hp) in [10.0f32, 20.0, 20.0, 30.0].iter().enumerate() {
            put(&mut idx, &Value::Float(*hp), id(i as u32));
        }
        let mut out = vec![];
        probe(&idx, CmpOp::Lt, &Value::Float(20.0), None, &mut out);
        assert_eq!(out, vec![id(0)]);
        out.clear();
        probe(&idx, CmpOp::Le, &Value::Float(20.0), None, &mut out);
        assert_eq!(out, vec![id(0), id(1), id(2)]);
        out.clear();
        probe(&idx, CmpOp::Gt, &Value::Float(20.0), None, &mut out);
        assert_eq!(out, vec![id(3)]);
        out.clear();
        // int literal probes a float column through numeric coercion
        probe(&idx, CmpOp::Ge, &Value::Int(20), None, &mut out);
        assert_eq!(out, vec![id(1), id(2), id(3)]);
        assert_eq!(idx.numeric_bounds(), Some((10.0, 30.0)));
    }

    #[test]
    fn range_probe_orders_ids_across_slot_bytes() {
        // slots spanning three radix digits, inserted key by key, so the
        // concatenated posting lists are out of id order
        let mut idx = Indexed::new(IndexKind::Sorted, ValueType::Int);
        let slots: Vec<u32> = (0..3000u32).map(|i| (i * 7919) % 70_000).collect();
        for (i, &s) in slots.iter().enumerate() {
            put(&mut idx, &Value::Int((i % 37) as i64), id(s));
        }
        let mut out = vec![id(u32::MAX)];
        let upper = Value::Int(30);
        assert!(probe(&idx, CmpOp::Ge, &Value::Int(3), Some((CmpOp::Lt, &upper)), &mut out));
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
        let mut idx = Indexed::new(IndexKind::Sorted, ValueType::Int);
        put(&mut idx, &Value::Int(5), id(1));
        put(&mut idx, &Value::Int(5), id(2));
        take(&mut idx, id(1));
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.ndv(), 1);
        take(&mut idx, id(2));
        assert_eq!(idx.len(), 0);
        assert_eq!(idx.ndv(), 0, "emptied bucket must be dropped");
        // removing something absent is a no-op
        take(&mut idx, id(2));
        assert_eq!(idx.len(), 0);
    }

    #[test]
    fn nan_never_stored_nan_probe_empty() {
        let mut idx = Indexed::new(IndexKind::Sorted, ValueType::Float);
        put(&mut idx, &Value::Float(f32::NAN), id(1));
        assert_eq!(idx.len(), 0);
        put(&mut idx, &Value::Float(1.0), id(2));
        let mut out = vec![];
        assert!(probe(&idx, CmpOp::Lt, &Value::Float(f32::NAN), None, &mut out));
        assert!(out.is_empty());
    }

    #[test]
    fn mixed_type_probe_is_empty() {
        let mut idx = Indexed::new(IndexKind::Hash, ValueType::Float);
        put(&mut idx, &Value::Float(5.0), id(1));
        let mut out = vec![];
        assert!(probe(&idx, CmpOp::Eq, &Value::Str("5".into()), None, &mut out));
        assert!(out.is_empty(), "compare() calls mixed comparisons false");
    }

    #[test]
    fn negative_zero_folds_onto_zero() {
        let mut idx = Indexed::new(IndexKind::Hash, ValueType::Float);
        put(&mut idx, &Value::Float(-0.0), id(1));
        let mut out = vec![];
        probe(&idx, CmpOp::Eq, &Value::Float(0.0), None, &mut out);
        assert_eq!(out, vec![id(1)]);
    }

    #[test]
    fn key_table_keeps_variants_of_equal_bits_apart() {
        // a join may key a bool column against a vec2 one: `false` and
        // (0, 0) share their bits, not their key
        let mut keys = KeyTable::default();
        let (f, origin) = (keys.id(KeyRef::Bool(false)), keys.id(KeyRef::Vec2([0, 0])));
        assert_ne!(f, origin);
        assert_eq!(keys.id(KeyRef::Bool(false)), f);
        assert_eq!(keys.get(origin), Some(KeyRef::Vec2([0, 0])));
        assert_eq!(keys.len(), 2);
    }

    /// A string column frees a code with its last slot and hands it to
    /// the next new string, so a sorted index keyed by code must leave a
    /// code before it can come back under another string's prefix. Each
    /// sole holder is rewritten to a string no slot holds — `"aaa"` to
    /// `"zzz"`, `"guild_000_a"` to `"guild_000_b"` (one 8-byte prefix) —
    /// and every probe still equals the scan, with nothing in the index's
    /// own key table.
    #[test]
    fn sorted_string_index_survives_code_reuse() {
        use crate::{Query, World};
        let mut w = World::new();
        w.define_component("team", ValueType::Str).unwrap();
        let set = |w: &mut World, e: EntityId, s: &str| w.set(e, "team", Value::Str(s.into())).unwrap();
        let shared: Vec<EntityId> = (0..3).map(|_| w.spawn()).collect();
        for &e in &shared {
            set(&mut w, e, "mmm");
        }
        let (a, g) = (w.spawn(), w.spawn());
        set(&mut w, a, "aaa");
        set(&mut w, g, "guild_000_a");
        w.create_index("team", IndexKind::Sorted).unwrap();
        let rewrites = [
            (a, "zzz"),
            (g, "guild_000_b"),
            (a, "abc"),
            (g, "guild_000_a"),
            (shared[0], "aab"),
            (a, "mmm"),
            (shared[0], "zzz"),
        ];
        for (e, to) in rewrites {
            set(&mut w, e, to);
            let idx = w.index_on("team").unwrap();
            assert_eq!(idx.keys.len(), 0, "a string index keys by code alone");
            for lit in ["aaa", "abc", "guild_000_a", "guild_000_b", "m", "mmm", "zzz"] {
                for op in [CmpOp::Lt, CmpOp::Ge, CmpOp::Eq] {
                    let v = Value::Str(lit.into());
                    let mut probed = Vec::new();
                    assert!(w.index_probe("team", op, &v, &mut probed));
                    let scan = Query::select().filter("team", op, v).run_scan(&w);
                    assert_eq!(probed, scan, "team {op:?} {lit:?} after {to:?}");
                }
            }
        }
    }

    #[test]
    fn vec2_equality_only() {
        let mut idx = Indexed::new(IndexKind::Sorted, ValueType::Vec2);
        put(&mut idx, &Value::Vec2(1.0, 2.0), id(1));
        let mut out = vec![];
        assert!(probe(&idx, CmpOp::Eq, &Value::Vec2(1.0, 2.0), None, &mut out));
        assert_eq!(out, vec![id(1)]);
        assert!(!probe(&idx, CmpOp::Lt, &Value::Vec2(1.0, 2.0), None, &mut out));
    }
}
