//! Server→client state replication with tunable consistency.
//!
//! The paper: "Another way in which games deal with concurrency is by
//! having weaker consistency guarantees. Sometimes this means ensuring
//! that the world is consistent at only a very coarse level; animation …
//! may be out of sync between computers but the persistent game state is
//! the same." A [`Replica`] is a client's copy of the world; the
//! [`Replicator`] decides, per tick, which rows to ship. Three levels
//! trade bandwidth for divergence, measured by [`Divergence`].

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use gamedb_content::{Value, ValueType};
use gamedb_core::{
    ChangeOp, Column, ComponentId, DurabilityWatermark, EntityId, Query, TapId, ViewId, World,
    POS_ID,
};
use gamedb_metrics::MetricsRegistry;
use gamedb_spatial::{BuildIdHasher, Vec2};

use crate::metrics::ReplMetrics;

/// Wire size of a value under the replication framing (1 type-tag byte
/// is accounted separately).
fn value_wire_bytes(v: &Value) -> usize {
    payload_wire_bytes(v.value_type(), v.as_str().map_or(0, str::len))
}

/// [`value_wire_bytes`] from a value's type (and length, for strings).
fn payload_wire_bytes(ty: ValueType, str_len: usize) -> usize {
    match ty {
        ValueType::Float => 4,
        ValueType::Int => 8,
        ValueType::Bool => 1,
        ValueType::Str => 4 + str_len,
        ValueType::Vec2 => 8,
    }
}

/// LEB128 length of a component id (mirrors the WAL's varint framing).
fn varint_len(v: u32) -> usize {
    match v {
        0..=0x7f => 1,
        0x80..=0x3fff => 2,
        0x4000..=0x1f_ffff => 3,
        0x20_0000..=0xfff_ffff => 4,
        _ => 5,
    }
}

/// Wire size of one row under the legacy **row-shipping** framing:
/// entity id + length-prefixed component name + type tag + value. This
/// is the baseline the full walk ([`Replicator::sync`]) accounts
/// against.
pub(crate) fn row_wire_bytes(component: &str, v: &Value) -> usize {
    8 + 4 + component.len() + 1 + value_wire_bytes(v)
}

/// [`row_wire_bytes`] of the value `col` stores at `slot`, sized in
/// place — no [`Value`] is built. `None` when the slot holds nothing.
pub(crate) fn stored_row_wire_bytes(component: &str, col: &Column, slot: usize) -> Option<usize> {
    col.has(slot).then(|| {
        let str_len = col.get_str(slot).map_or(0, str::len);
        8 + 4 + component.len() + 1 + payload_wire_bytes(col.ty(), str_len)
    })
}

/// One shipped delta segment: the per-tick unit
/// [`Replicator::sync_stream`] sends instead of re-walked rows. Writes
/// are keyed by interned [`ComponentId`]; the name table ships once per
/// component per client ([`DeltaSegment::defines`]), so steady-state
/// rows cost a 1-byte varint where the row framing pays `4 + len(name)`
/// bytes — on top of shipping only the `old → new` columns the change
/// records named instead of whole rows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeltaSegment {
    /// First-use name-table entries `(id, name)` — the client resolves
    /// later puts against its accumulated table.
    pub defines: Vec<(ComponentId, String)>,
    /// Component writes `(entity, column id, new value)`.
    pub puts: Vec<(EntityId, ComponentId, Value)>,
    /// Component removals `(entity, column id)`: the entity stays, the
    /// named column goes. Client→server replication never needs these
    /// (interest rules drop whole rows); cross-shard handoff streams do
    /// — a node-local state must track removals exactly to stay
    /// byte-identical to the by-value oracle.
    pub unsets: Vec<(EntityId, ComponentId)>,
    /// Whole-entity drops: the entity despawned on the primary, or its
    /// ownership was handed off this link's node. The receiver forgets
    /// every row it holds for the entity.
    pub drops: Vec<EntityId>,
}

impl DeltaSegment {
    /// True when nothing would go on the wire.
    pub fn is_empty(&self) -> bool {
        self.defines.is_empty()
            && self.puts.is_empty()
            && self.unsets.is_empty()
            && self.drops.is_empty()
    }

    /// Encoded size under the delta framing (the bandwidth metric the
    /// acceptance bound compares against [`row_wire_bytes`]).
    pub fn wire_bytes(&self) -> usize {
        let defines: usize = self
            .defines
            .iter()
            .map(|(id, name)| 1 + varint_len(id.as_u32()) + 4 + name.len())
            .sum();
        let puts: usize = self
            .puts
            .iter()
            .map(|(_, id, v)| 8 + varint_len(id.as_u32()) + 1 + value_wire_bytes(v))
            .sum();
        let unsets: usize = self
            .unsets
            .iter()
            .map(|(_, id)| 8 + varint_len(id.as_u32()))
            .sum();
        let drops = self.drops.len() * 8;
        defines + puts + unsets + drops
    }
}

/// Consistency levels from strongest to weakest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConsistencyLevel {
    /// Every component of every entity, every tick.
    Strict,
    /// Persistent state (non-`pos` components) every tick; positions only
    /// every `pos_period` ticks — animation may lag, inventory never does.
    CoarseEpoch { pos_period: u32 },
    /// Positions ship only when they drift beyond `threshold` world units
    /// on the replica; persistent state every `state_period` ticks.
    EventualSimilar { threshold: f32, state_period: u32 },
}

/// A replica's rows: one value per `(entity, column id)`, the column id
/// interned by the primary world and carried by every segment put.
pub type ReplicaRows = HashMap<(EntityId, ComponentId), Value, BuildIdHasher>;

/// A client-side copy of (part of) the world state.
#[derive(Debug, Clone, Default)]
pub struct Replica {
    /// replicated component values
    pub rows: ReplicaRows,
    /// Accumulated component name table, indexed by column id (from
    /// [`DeltaSegment::defines`], and entered for rows that arrived by
    /// full walk) — the columns a drop forgets.
    names: Vec<Option<String>>,
}

/// Enter `(cid, name)` in a name table unless the id is known (ids are
/// stable for the life of a world lineage, so a redefinition carries
/// the same name).
fn define(names: &mut Vec<Option<String>>, cid: ComponentId, name: &str) {
    let at = cid.as_u32() as usize;
    if names.len() <= at {
        names.resize(at + 1, None);
    }
    names[at].get_or_insert_with(|| name.to_string());
}

impl Replica {
    /// Position the client believes an entity has.
    pub fn pos(&self, id: EntityId) -> Option<(f32, f32)> {
        match self.rows.get(&(id, POS_ID)) {
            Some(Value::Vec2(x, y)) => Some((*x, *y)),
            _ => None,
        }
    }

    /// Panic on a segment that uses a column id before defining it.
    fn check_defined(&self, cid: ComponentId) {
        assert!(
            self.names
                .get(cid.as_u32() as usize)
                .is_some_and(Option::is_some),
            "segment defines precede first use of an id"
        );
    }

    /// Forget every row held for `entity`: one removal per column id in
    /// the name table — O(names), not O(rows held). Returns whether a
    /// row went.
    fn forget(&mut self, entity: EntityId) -> bool {
        let mut any = false;
        for (at, name) in self.names.iter().enumerate() {
            if name.is_some() {
                let cid = ComponentId::from_u32(at as u32);
                any |= self.rows.remove(&(entity, cid)).is_some();
            }
        }
        any
    }

    /// The entities this replica holds rows for. Rows that arrived by
    /// full walk carry no name-table entry; their columns are entered
    /// here so [`Replica::forget`] reaches them too. One pass over every
    /// row — for (re)attachment, not for the tick.
    fn adopt_held(&mut self, world: &World) -> BTreeSet<EntityId> {
        let mut held = BTreeSet::new();
        for &(id, cid) in self.rows.keys() {
            held.insert(id);
            if let Some(name) = world.component_name(cid) {
                define(&mut self.names, cid, name);
            }
        }
        held
    }

    /// Apply one delta segment: per-component reconciliation. Defines
    /// extend the name table; puts upsert exactly the named columns;
    /// unsets remove exactly the named columns; drops forget every row
    /// of the named entities — nothing else on the replica is touched.
    /// Application order (defines, puts, unsets, drops) means a put and
    /// a drop for the same entity in one segment resolve to the drop.
    /// A drop forgets the columns the name table knows — every row that
    /// arrived by segment — in O(drops × names), not O(rows held).
    pub fn apply_segment(&mut self, seg: &DeltaSegment) {
        for (cid, name) in &seg.defines {
            define(&mut self.names, *cid, name);
        }
        for (entity, cid, value) in &seg.puts {
            self.check_defined(*cid);
            self.rows.insert((*entity, *cid), value.clone());
        }
        for (entity, cid) in &seg.unsets {
            self.check_defined(*cid);
            self.rows.remove(&(*entity, *cid));
        }
        for &entity in &seg.drops {
            self.forget(entity);
        }
    }
}

/// Divergence between server truth and a replica.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Divergence {
    /// Mean position error (world units) over positioned entities.
    pub mean_pos_error: f32,
    /// Maximum position error.
    pub max_pos_error: f32,
    /// Number of non-position component values that differ.
    pub persistent_mismatches: usize,
}

/// Area-of-interest filter: a client only receives entities near its
/// focus (its character). Interest management is the third server-load
/// lever next to partitioning and weak consistency — the server simply
/// never ships most of the world to most clients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interest {
    /// Focus point (usually the player character's position).
    pub center: (f32, f32),
    /// Entities within this radius are replicated.
    pub radius: f32,
    /// Hysteresis margin: entities already known to the client are kept
    /// until `radius + margin`, avoiding subscribe/unsubscribe flapping
    /// at the boundary.
    pub margin: f32,
}

impl Interest {
    /// Everything is interesting (no filtering).
    pub fn unbounded() -> Self {
        Interest {
            center: (0.0, 0.0),
            radius: f32::INFINITY,
            margin: 0.0,
        }
    }

    fn inside(&self, pos: (f32, f32), known: bool) -> bool {
        let dx = pos.0 - self.center.0;
        let dy = pos.1 - self.center.1;
        let r = if known {
            self.radius + self.margin
        } else {
            self.radius
        };
        if r.is_infinite() {
            return true;
        }
        dx * dx + dy * dy <= r * r
    }
}

/// Replicates a world to a client each tick under a consistency level.
#[derive(Debug, Clone)]
pub struct Replicator {
    pub level: ConsistencyLevel,
    /// Area-of-interest filter (defaults to unbounded).
    pub interest: Interest,
    /// Standing interest-bubble view (see [`Replicator::attach_stream`]).
    interest_view: Option<ViewId>,
    /// Center/radius the view was last anchored at.
    view_anchor: ((f32, f32), f32),
    /// Change-stream tap (see [`Replicator::attach_stream`]).
    stream_tap: Option<TapId>,
    /// Entities touched by the stream since they were last fully
    /// shipped — the candidate set [`Replicator::sync_stream`] visits.
    dirty: BTreeSet<EntityId>,
    /// Per dirty entity, the columns the stream named since the last
    /// settling tick — the delta a segment ships for an entity the
    /// replica already fully knows.
    pending_comps: HashMap<EntityId, BTreeSet<ComponentId>, BuildIdHasher>,
    /// Entities whose complete row image the replica currently holds
    /// (full-walked at least once and retained since). Only these may
    /// ship partial (changed-columns-only) updates.
    known: BTreeSet<EntityId>,
    /// Component ids whose names this client has been sent (the
    /// server-side mirror of the replica's name table).
    named: HashSet<ComponentId, BuildIdHasher>,
    /// Whether the first (full) stream sync has happened.
    stream_primed: bool,
    tick: u32,
    /// rows shipped so far (the bandwidth proxy)
    pub rows_sent: usize,
    /// wire bytes shipped so far (row framing for full walks, delta
    /// framing for stream segments — the acceptance metric)
    pub bytes_sent: usize,
    /// Instrumentation handles ([`Replicator::attach_metrics`]).
    metrics: Option<ReplMetrics>,
}

/// The ship rules of one tick under a consistency level
/// ([`Replicator::ship_plan`]).
#[derive(Debug, Clone, Copy)]
struct ShipPlan {
    /// Every position ships.
    all_pos: bool,
    /// Persistent state (non-`pos` columns) ships when it differs.
    state: bool,
    /// Positions ship when they drifted beyond this on the replica.
    pos_threshold: Option<f32>,
}

impl ShipPlan {
    /// A tick that ships everything shippable: nothing stays owed.
    fn settles(&self) -> bool {
        self.state && (self.all_pos || self.pos_threshold.is_some())
    }

    /// Whether column `cid` holding `value` ships, given what the
    /// replica holds for it.
    fn ships(&self, cid: ComponentId, value: &Value, held: Option<&Value>) -> bool {
        if cid == POS_ID {
            if self.all_pos {
                true
            } else if let Some(threshold) = self.pos_threshold {
                match (value, held) {
                    (Value::Vec2(sx, sy), Some(Value::Vec2(cx, cy))) => {
                        let (dx, dy) = (sx - cx, sy - cy);
                        (dx * dx + dy * dy).sqrt() > threshold
                    }
                    _ => true, // client has never seen it
                }
            } else {
                // CoarseEpoch off-cycle: ship only brand-new rows
                held.is_none()
            }
        } else if self.state {
            held != Some(value)
        } else {
            held.is_none()
        }
    }
}

/// The world's columns as `(id, name, column)` in name order — the
/// order row images ship in. Built once per shipment; rows are then
/// read by slot, never by name.
pub(crate) fn columns_by_name(world: &World) -> Vec<(ComponentId, &str, &Column)> {
    let mut columns: Vec<(ComponentId, &str, &Column)> = world
        .schema_by_id()
        .filter_map(|(cid, name, _)| Some((cid, name, world.column_by_id(cid)?)))
        .collect();
    columns.sort_unstable_by_key(|&(_, name, _)| name);
    columns
}

impl Replicator {
    pub fn new(level: ConsistencyLevel) -> Self {
        Self::with_interest(level, Interest::unbounded())
    }

    /// Replicator with an area-of-interest filter.
    pub fn with_interest(level: ConsistencyLevel, interest: Interest) -> Self {
        Replicator {
            level,
            interest,
            interest_view: None,
            view_anchor: ((0.0, 0.0), 0.0),
            stream_tap: None,
            dirty: BTreeSet::new(),
            pending_comps: HashMap::default(),
            known: BTreeSet::new(),
            named: HashSet::default(),
            stream_primed: false,
            tick: 0,
            rows_sent: 0,
            bytes_sent: 0,
            metrics: None,
        }
    }

    /// Attach a metrics registry: segments, wire bytes, full-row vs
    /// delta-row counts, resyncs, and durability-gated ticks are
    /// reported into `registry` from here on. Several replicators
    /// sharing one registry sum into fleet totals. Purely
    /// observational.
    pub fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        self.metrics = Some(ReplMetrics::new(registry));
    }

    /// Detach the registry attached by [`Replicator::attach_metrics`].
    pub fn detach_metrics(&mut self) {
        self.metrics = None;
    }

    /// Ticks processed.
    pub fn ticks(&self) -> u32 {
        self.tick
    }

    /// Where the interest view belongs: the focus, and `radius +
    /// margin` so the hysteresis band is covered.
    fn anchor(&self) -> ((f32, f32), f32) {
        (
            self.interest.center,
            self.interest.radius + self.interest.margin,
        )
    }

    /// The standing interest-bubble query at [`Replicator::anchor`].
    fn interest_query(&self) -> Query {
        let ((cx, cy), r) = self.anchor();
        Query::select().within(Vec2::new(cx, cy), r)
    }

    /// Adopt the interest view of a world recovered from the
    /// persistence layer: the view survived the crash (the snapshot/WAL
    /// catalog re-materialized it), so a replicator rebuilt after a
    /// restart adopts the view matching its interest query instead of
    /// registering a duplicate; a fresh view is registered when none
    /// survives. Call before [`Replicator::attach_stream`], which then
    /// keeps the adopted view. No-op for unbounded interest.
    ///
    /// Adoption is deliberately **not** what `attach_stream` does: a
    /// replicator retargets its view as the focus moves, so two live
    /// replicators must never share one — adoption is only sound when
    /// the caller knows the matching view is its own orphan (the
    /// restart path).
    pub fn reattach_view(&mut self, world: &mut World) {
        if self.interest_view.is_none() && self.interest.radius.is_finite() {
            let query = self.interest_query();
            self.interest_view = Some(
                world
                    .find_view(&query.clone().into_plan())
                    .unwrap_or_else(|| world.register_view(query)),
            );
            self.view_anchor = self.anchor();
        }
    }

    /// Turn incremental replication on: turns the interest bubble into
    /// a standing view (finite interest only; the world maintains the
    /// set of entities within `radius + margin` of the focus
    /// incrementally) and subscribes to its deltas — the view registered
    /// here or the one [`Replicator::reattach_view`] adopted — **and**
    /// attaches a change-stream tap, so [`Replicator::sync_stream`] can
    /// ship exactly the rows each stream segment touched instead of
    /// re-walking bubble members.
    pub fn attach_stream(&mut self, world: &mut World) {
        if self.interest_view.is_none() && self.interest.radius.is_finite() {
            self.interest_view = Some(world.register_view(self.interest_query()));
            self.view_anchor = self.anchor();
        }
        if let Some(view) = self.interest_view {
            world.subscribe_view(view);
        }
        if self.stream_tap.is_none() {
            self.stream_tap = Some(world.attach_tap());
            self.dirty.clear();
            self.stream_primed = false;
        }
    }

    /// The change-stream tap this replicator reads, if streaming is
    /// attached — pass it to `World::tap_stats` to inspect lag, ack
    /// position, and eviction state from the outside.
    pub fn stream_tap(&self) -> Option<TapId> {
        self.stream_tap
    }

    /// Release the change-stream tap (and drop the interest view, if
    /// one was attached). Call this when the client disconnects: an
    /// abandoned tap would pin the world's change-stream window — every
    /// later mutation retained, waiting for an ack that never comes.
    pub fn detach_stream(&mut self, world: &mut World) {
        if let Some(tap) = self.stream_tap.take() {
            world.detach_tap(tap);
        }
        if let Some(view) = self.interest_view.take() {
            world.drop_view(view);
        }
        self.dirty.clear();
        self.pending_comps.clear();
        self.known.clear();
        // a later attach may serve a fresh Replica whose name table is
        // empty: the defines must ship again
        self.named.clear();
        self.stream_primed = false;
    }

    /// The ship rules for a given tick number, per the consistency
    /// level.
    fn ship_plan(&self, tick: u32) -> ShipPlan {
        let (all_pos, state, pos_threshold) = match self.level {
            ConsistencyLevel::Strict => (true, true, None),
            ConsistencyLevel::CoarseEpoch { pos_period } => {
                (tick.is_multiple_of(pos_period.max(1)), true, None)
            }
            ConsistencyLevel::EventualSimilar {
                threshold,
                state_period,
            } => (
                false,
                tick.is_multiple_of(state_period.max(1)),
                Some(threshold),
            ),
        };
        ShipPlan {
            all_pos,
            state,
            pos_threshold,
        }
    }

    /// [`Replicator::sync_stream`] gated on the server's durability
    /// watermark. A `Strict` replicator refuses to ship while commits
    /// are still in flight behind the async WAL writer
    /// (`!durability.is_drained()`): strict consistency promises the
    /// replica only ever observes state the server cannot lose, and a
    /// crash would un-happen anything past the durable watermark.
    /// Returns whether the sync ran — a refused tick ships nothing and
    /// leaves the change stream accumulating; call again once the
    /// writer drains (e.g. after `WalStore::wait_durable`). The weaker
    /// levels already tolerate replica lag by design, so they ship
    /// regardless and the durability pipeline catches up underneath.
    pub fn sync_stream_durable(
        &mut self,
        world: &mut World,
        replica: &mut Replica,
        durability: &impl DurabilityWatermark,
    ) -> bool {
        if matches!(self.level, ConsistencyLevel::Strict) && !durability.is_drained() {
            if let Some(m) = &self.metrics {
                m.gated_ticks.inc();
            }
            return false;
        }
        self.sync_stream(world, replica);
        true
    }

    /// [`Replicator::sync`] driven by the change stream, at a cost of
    /// O(pending records, each examined cheaply + bubble members
    /// touched) — never O(world) and never O(rows the replica holds).
    /// Ships the **exact** replica state of the full walk (proven by
    /// test) in never more rows.
    ///
    /// **Interest-first fold.** With an interest view attached, a
    /// pending record is kept only if its entity is a member of the
    /// freshly refreshed/retargeted view (`radius + margin`, so the
    /// hysteresis band is covered) or has no position (global state, or
    /// dead). Everything else is discarded before it touches the dirty
    /// set: no shipped state depends on it, because an entity that
    /// later comes into the bubble is named by the view delta's
    /// `entered` and, not being `known`, ships its whole row from live
    /// state. Without a view (unbounded interest) every record is kept.
    ///
    /// **Event-driven drops.** An entity the replica holds stops being
    /// shippable only by dying (`Despawned` record), by leaving the
    /// view (delta `exited` — it moved, or the bubble did), or by
    /// gaining its first position outside the bubble (a `Set pos` with
    /// no old value: it was never a view member, so nothing exits).
    /// Each of those events makes it a candidate, and every visited
    /// candidate is re-validated against live state; nothing walks the
    /// replica.
    ///
    /// Entities whose rows could not all ship under the current level's
    /// off-cycle rules (e.g. positions between `CoarseEpoch` epochs)
    /// stay in the dirty set and are revisited until a full-ship tick
    /// clears them. Falls back to the full walk ([`Replicator::sync`])
    /// when no stream is attached.
    pub fn sync_stream(&mut self, world: &mut World, replica: &mut Replica) {
        let Some(tap) = self.stream_tap else {
            self.sync(world, replica);
            return;
        };
        if world.tap_evicted(tap) {
            return self.resync(world, replica, tap);
        }
        // fold pending changes into the interest view, re-anchoring it
        // if the focus moved
        let view = self.interest_view.filter(|&v| world.has_view(v));
        let mut retargeted = false;
        if let Some(view) = view {
            let anchor = self.anchor();
            if anchor != self.view_anchor {
                let ((cx, cy), r) = anchor;
                world
                    .retarget_view(view, Vec2::new(cx, cy), r)
                    .expect("the interest view is a rows view");
                self.view_anchor = anchor;
                retargeted = true;
            } else {
                world.refresh_views();
            }
        } else {
            world.refresh_views();
        }
        // the kept records name every touched entity this client can
        // see — and, per entity, exactly the columns whose values
        // moved: the delta a segment ships instead of the whole row
        let pending = world.tap_pending(tap);
        let mut kept = 0u64;
        for change in pending {
            let (id, component, gained_pos) = match &change.op {
                ChangeOp::Set {
                    id, component, old, ..
                } => (*id, Some(*component), *component == POS_ID && old.is_none()),
                ChangeOp::Removed { id, component, .. } => (*id, Some(*component), false),
                ChangeOp::Spawned { id } | ChangeOp::Despawned { id, .. } => (*id, None, false),
                _ => continue,
            };
            let keep = gained_pos
                || view.is_none_or(|v| world.pos(id).is_none() || world.view_contains(v, id));
            if !keep {
                continue;
            }
            kept += 1;
            self.dirty.insert(id);
            if let Some(component) = component {
                self.pending_comps.entry(id).or_default().insert(component);
            }
        }
        if let Some(m) = &self.metrics {
            m.fold_records.add(pending.len() as u64);
            m.fold_kept.add(kept);
        }
        world.ack_tap(tap);
        if let Some(view) = view {
            // membership the bubble gained or lost without the entity
            // itself being written (the focus moved): the view delta
            // names it
            let Some(log) = world.take_view_delta::<EntityId>(view) else {
                return self.resync(world, replica, tap);
            };
            self.dirty.extend(log.entered);
            self.dirty.extend(log.exited);
            if retargeted {
                // a focus move changes interest geometry for every
                // member: one waiting in the hysteresis band can become
                // shippable without moving or re-entering the view.
                // Only members the replica does not know can — a known
                // one stays visible while it stays in the view, and
                // what it is owed is already in `dirty`.
                let known = &self.known;
                let members = world.view_rows(view).iter().copied();
                self.dirty.extend(members.filter(|e| !known.contains(e)));
            }
        }
        // a tick that ships everything shippable settles all debts;
        // partial ticks (epoch positions pending) keep entities dirty
        let settled = self.ship_plan(self.tick + 1).settles();
        let candidates: Vec<EntityId> = if !self.stream_primed {
            // first shipment after an attach, a reconnect or an eviction
            // resync: the full candidate set — bubble members plus
            // unpositioned global state — and no entity counts as known.
            // The replica handed in may hold rows this replicator never
            // shipped (a previous session, the resync's full walk); one
            // pass over it — the only one — enters their columns in its
            // name table and makes their entities candidates, so the
            // drop rule reaches them.
            self.stream_primed = true;
            self.known.clear();
            self.dirty.clear();
            self.pending_comps.clear();
            let mut c = match view {
                Some(v) => {
                    let mut c: Vec<EntityId> = world.view_rows(v).to_vec();
                    c.extend(world.entities().filter(|&e| world.pos(e).is_none()));
                    c
                }
                None => world.entity_vec(),
            };
            c.extend(replica.adopt_held(world));
            c.sort_unstable();
            c.dedup();
            c
        } else {
            self.dirty.iter().copied().collect()
        };
        self.ship_delta_segment(world, replica, &candidates);
        if settled {
            self.dirty.clear();
            self.pending_comps.clear();
        }
    }

    /// The retention policy dropped this consumer — its tap, or its view
    /// subscription (the sync loop stalled past the window) — so the
    /// stream is no longer a complete delta source: resynchronize from
    /// live state, then re-attach the tap and re-subscribe the view.
    fn resync(&mut self, world: &mut World, replica: &mut Replica, tap: TapId) {
        world.detach_tap(tap);
        self.stream_tap = None;
        self.named.clear(); // re-ship defines: the replica may be fresh
        self.stream_primed = false; // the next stream sync starts over
        if let Some(m) = &self.metrics {
            m.resyncs.inc();
        }
        self.sync(world, replica);
        self.stream_tap = Some(world.attach_tap());
        if let Some(view) = self.interest_view.filter(|&v| world.has_view(v)) {
            world.subscribe_view(view);
        }
    }

    /// The delta-encoded ship body: visit `candidates` once each. A
    /// candidate that is dead or outside `radius + margin` is forgotten
    /// by the replica. The rest are decided row by row under the exact
    /// rules of [`Replicator::sync`], the shipped rows collected into
    /// one [`DeltaSegment`] (id-keyed, names shipped once) and
    /// reconciled onto the replica per component. Entities the replica
    /// does not fully know (first sight, re-entering interest after
    /// their rows were dropped) ship their whole row; known entities
    /// ship only the columns the change records named since the last
    /// settling tick.
    fn ship_delta_segment(
        &mut self,
        world: &World,
        replica: &mut Replica,
        candidates: &[EntityId],
    ) {
        self.tick += 1;
        // Decisions read the replica's pre-segment state: each (entity,
        // component) key is decided at most once per tick, so deferring
        // the writes cannot change a decision.
        let plan = self.ship_plan(self.tick);
        let interest = self.interest;
        let columns = columns_by_name(world);
        let mut seg = DeltaSegment::default();
        let mut put = |named: &mut HashSet<ComponentId, BuildIdHasher>,
                       id: EntityId,
                       cid: ComponentId,
                       value: Value| {
            if named.insert(cid) {
                let name = world
                    .component_name(cid)
                    .expect("shipped columns are named");
                seg.defines.push((cid, name.to_string()));
            }
            seg.puts.push((id, cid, value));
        };
        let (mut full_rows, mut delta_rows, mut drops) = (0u64, 0u64, 0u64);
        for &id in candidates {
            let slot = id.index() as usize;
            let pos = world.pos(id).map(|p| (p.x, p.y));
            if !world.is_live(id) || pos.is_some_and(|p| !interest.inside(p, true)) {
                self.known.remove(&id);
                drops += u64::from(replica.forget(id));
                continue;
            }
            if pos.is_some_and(|p| !interest.inside(p, replica.rows.contains_key(&(id, POS_ID)))) {
                // in the hysteresis band with no `pos` row on the
                // replica: not subscribed. For a known entity (an
                // unpositioned one's first position landed here) the
                // full walk skips it too, keeping its rows; what it
                // changes while hidden is owed when it becomes visible,
                // so its image no longer counts as complete.
                self.known.remove(&id);
                continue;
            }
            if !self.known.contains(&id) {
                // full row: the replica holds no (complete) image
                for &(cid, _, col) in &columns {
                    let Some(value) = col.get(slot) else {
                        continue;
                    };
                    let held = replica.rows.get(&(id, cid));
                    if plan.ships(cid, &value, held) {
                        put(&mut self.named, id, cid, value);
                    } else if held.is_some_and(|h| *h != value) {
                        // a stale row (the replica kept it while the
                        // entity was hidden, or across a reconnect) that
                        // this tick's off-cycle rules withhold: owed
                        self.dirty.insert(id);
                        self.pending_comps.entry(id).or_default().insert(cid);
                    }
                }
                self.known.insert(id);
                full_rows += 1;
            } else if let Some(comps) = self.pending_comps.get(&id) {
                // delta: only the columns the records named
                for &cid in comps {
                    let Some(value) = world.column_by_id(cid).and_then(|col| col.get(slot)) else {
                        continue; // removed column: full walks skip it too
                    };
                    if plan.ships(cid, &value, replica.rows.get(&(id, cid))) {
                        put(&mut self.named, id, cid, value);
                    }
                }
                delta_rows += 1;
            }
        }
        self.rows_sent += seg.puts.len();
        self.bytes_sent += seg.wire_bytes();
        if let Some(m) = &self.metrics {
            m.segments.inc();
            m.segment_bytes.add(seg.wire_bytes() as u64);
            m.rows.add(seg.puts.len() as u64);
            m.full_rows.add(full_rows);
            m.delta_rows.add(delta_rows);
            m.candidates.add(candidates.len() as u64);
            m.drops.add(drops);
        }
        replica.apply_segment(&seg);
    }

    /// Ship one tick of updates from `world` into `replica` by walking
    /// every live entity — the full-walk oracle [`Replicator::sync_stream`]
    /// is held to, and its fallback when no stream is attached or the
    /// stream was evicted. Rows are priced under the row framing
    /// ([`row_wire_bytes`]).
    pub fn sync(&mut self, world: &World, replica: &mut Replica) {
        self.tick += 1;
        let plan = self.ship_plan(self.tick);
        // Interest management: which live entities does this client care
        // about? Known entities get the hysteresis margin.
        let interest = self.interest;
        let interesting = |id: EntityId, known: bool| -> bool {
            match world.pos(id) {
                Some(p) => interest.inside((p.x, p.y), known),
                // unpositioned entities (global flags, quest state) always
                // replicate
                None => true,
            }
        };
        // remove rows of despawned entities (all levels: death is
        // persistent state) and of entities that left the interest area
        replica
            .rows
            .retain(|&(id, _), _| world.is_live(id) && interesting(id, true));
        let columns = columns_by_name(world);
        let mut rows_sent = 0usize;
        let mut bytes_sent = 0usize;
        for id in world.entities() {
            if !interesting(id, replica.rows.contains_key(&(id, POS_ID))) {
                continue;
            }
            let slot = id.index() as usize;
            for &(cid, name, col) in &columns {
                let Some(value) = col.get(slot) else {
                    continue;
                };
                if plan.ships(cid, &value, replica.rows.get(&(id, cid))) {
                    bytes_sent += row_wire_bytes(name, &value);
                    replica.rows.insert((id, cid), value);
                    rows_sent += 1;
                }
            }
        }
        self.rows_sent += rows_sent;
        self.bytes_sent += bytes_sent;
        if let Some(m) = &self.metrics {
            m.full_walks.inc();
            m.full_walk_bytes.add(bytes_sent as u64);
        }
    }

    /// Measure divergence between `world` and `replica` over the whole
    /// world (unbounded interest).
    pub fn divergence(world: &World, replica: &Replica) -> Divergence {
        Self::divergence_within(world, replica, Interest::unbounded())
    }

    /// Divergence restricted to the client's interest area — what the
    /// player can actually observe being wrong.
    pub fn divergence_within(
        world: &World,
        replica: &Replica,
        interest: Interest,
    ) -> Divergence {
        let columns = columns_by_name(world);
        let mut server_rows: BTreeMap<(EntityId, ComponentId), Value> = BTreeMap::new();
        for id in world.entities() {
            // mirror sync's subscribe rule: entities the client knows
            // get the hysteresis margin, unknown ones the base radius
            let known = replica.rows.contains_key(&(id, POS_ID));
            if world
                .pos(id)
                .is_some_and(|p| !interest.inside((p.x, p.y), known))
            {
                continue;
            }
            let slot = id.index() as usize;
            for &(cid, _, col) in &columns {
                if let Some(value) = col.get(slot) {
                    server_rows.insert((id, cid), value);
                }
            }
        }
        let mut pos_errors = Vec::new();
        let mut mismatches = 0usize;
        for (&(id, cid), value) in &server_rows {
            if cid == POS_ID {
                if let Value::Vec2(sx, sy) = value {
                    let (cx, cy) = replica.pos(id).unwrap_or((f32::MAX, f32::MAX));
                    let err = if cx == f32::MAX {
                        f32::MAX
                    } else {
                        ((sx - cx).powi(2) + (sy - cy).powi(2)).sqrt()
                    };
                    pos_errors.push(err.min(1e9));
                }
            } else if replica.rows.get(&(id, cid)) != Some(value) {
                mismatches += 1;
            }
        }
        // replica rows for entities/components the server lacks also count
        for key in replica.rows.keys() {
            if key.1 != POS_ID && !server_rows.contains_key(key) {
                mismatches += 1;
            }
        }
        let mean = if pos_errors.is_empty() {
            0.0
        } else {
            pos_errors.iter().sum::<f32>() / pos_errors.len() as f32
        };
        Divergence {
            mean_pos_error: mean,
            max_pos_error: pos_errors.iter().copied().fold(0.0, f32::max),
            persistent_mismatches: mismatches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::arena_world;
    use gamedb_spatial::Vec2;

    fn moving_world(n: usize) -> (World, Vec<EntityId>) {
        arena_world(n, |i| Vec2::new(i as f32 * 3.0, 0.0))
    }

    fn drift(world: &mut World, ids: &[EntityId], step: f32) {
        for (i, &e) in ids.iter().enumerate() {
            let p = world.pos(e).unwrap();
            world
                .set_pos(e, Vec2::new(p.x + step, p.y + (i % 3) as f32 * 0.1))
                .unwrap();
        }
    }

    #[test]
    fn strict_replication_has_zero_divergence() {
        let (mut w, ids) = moving_world(10);
        let mut rep = Replicator::new(ConsistencyLevel::Strict);
        let mut client = Replica::default();
        for _ in 0..5 {
            drift(&mut w, &ids, 1.0);
            rep.sync(&w, &mut client);
            let d = Replicator::divergence(&w, &client);
            assert_eq!(d.mean_pos_error, 0.0);
            assert_eq!(d.persistent_mismatches, 0);
        }
    }

    #[test]
    fn coarse_epoch_lags_positions_but_not_state() {
        let (mut w, ids) = moving_world(10);
        let mut rep = Replicator::new(ConsistencyLevel::CoarseEpoch { pos_period: 5 });
        let mut client = Replica::default();
        rep.sync(&w, &mut client); // tick 1: initial (new rows ship)
        for tick in 2..=4 {
            drift(&mut w, &ids, 1.0);
            w.set_f32(ids[0], "hp", 40.0 + tick as f32).unwrap();
            rep.sync(&w, &mut client);
            let d = Replicator::divergence(&w, &client);
            assert!(d.mean_pos_error > 0.0, "positions lag between epochs");
            assert_eq!(d.persistent_mismatches, 0, "hp always in sync");
        }
        // epoch tick flushes positions
        drift(&mut w, &ids, 1.0);
        rep.sync(&w, &mut client); // tick 5
        let d = Replicator::divergence(&w, &client);
        assert_eq!(d.mean_pos_error, 0.0);
    }

    #[test]
    fn eventual_similar_bounds_drift() {
        let (mut w, ids) = moving_world(10);
        let threshold = 5.0;
        let mut rep = Replicator::new(ConsistencyLevel::EventualSimilar {
            threshold,
            state_period: 4,
        });
        let mut client = Replica::default();
        rep.sync(&w, &mut client);
        for _ in 0..30 {
            drift(&mut w, &ids, 0.9);
            rep.sync(&w, &mut client);
            let d = Replicator::divergence(&w, &client);
            // drift is bounded by threshold + one tick of movement
            assert!(
                d.max_pos_error <= threshold + 1.0 + 1e-3,
                "divergence {d:?} exceeds bound"
            );
        }
    }

    #[test]
    fn weaker_levels_send_fewer_rows() {
        let mk = |level| {
            let (mut w, ids) = moving_world(20);
            let mut rep = Replicator::new(level);
            let mut client = Replica::default();
            for _ in 0..20 {
                drift(&mut w, &ids, 0.3);
                rep.sync(&w, &mut client);
            }
            rep.rows_sent
        };
        let strict = mk(ConsistencyLevel::Strict);
        let coarse = mk(ConsistencyLevel::CoarseEpoch { pos_period: 5 });
        let eventual = mk(ConsistencyLevel::EventualSimilar {
            threshold: 5.0,
            state_period: 5,
        });
        assert!(strict > coarse, "strict={strict} coarse={coarse}");
        assert!(coarse > eventual, "coarse={coarse} eventual={eventual}");
    }

    #[test]
    fn despawns_propagate_at_every_level() {
        for level in [
            ConsistencyLevel::Strict,
            ConsistencyLevel::CoarseEpoch { pos_period: 10 },
            ConsistencyLevel::EventualSimilar {
                threshold: 100.0,
                state_period: 10,
            },
        ] {
            let (mut w, ids) = moving_world(5);
            let mut rep = Replicator::new(level);
            let mut client = Replica::default();
            rep.sync(&w, &mut client);
            w.despawn(ids[2]);
            rep.sync(&w, &mut client);
            assert!(client.pos(ids[2]).is_none(), "{level:?}");
            let d = Replicator::divergence(&w, &client);
            assert_eq!(d.persistent_mismatches, 0, "{level:?}");
        }
    }

    #[test]
    fn interest_limits_replication_to_nearby_entities() {
        let (mut w, ids) = moving_world(20); // x = 0, 3, 6, …, 57
        let interest = Interest {
            center: (0.0, 0.0),
            radius: 10.0,
            margin: 3.0,
        };
        let mut rep = Replicator::with_interest(ConsistencyLevel::Strict, interest);
        let mut client = Replica::default();
        rep.sync(&w, &mut client);
        // entities at x = 0, 3, 6, 9 are inside radius 10
        let known: Vec<_> = ids
            .iter()
            .filter(|&&e| client.pos(e).is_some())
            .collect();
        assert_eq!(known.len(), 4);
        // inside the interest area the client is exact
        let d = Replicator::divergence_within(&w, &client, interest);
        assert_eq!(d.mean_pos_error, 0.0);
        assert_eq!(d.persistent_mismatches, 0);
        // globally the client is missing most of the world (by design)
        let global = Replicator::divergence(&w, &client);
        assert!(global.max_pos_error > 0.0);

        // an entity walking away is kept until radius+margin, then dropped
        w.set_pos(ids[0], Vec2::new(12.0, 0.0)).unwrap();
        rep.sync(&w, &mut client);
        assert!(client.pos(ids[0]).is_some(), "hysteresis keeps it at 12 < 13");
        w.set_pos(ids[0], Vec2::new(14.0, 0.0)).unwrap();
        rep.sync(&w, &mut client);
        assert!(client.pos(ids[0]).is_none(), "dropped beyond radius+margin");
    }

    /// Replication driven by the standing interest-bubble view
    /// must reproduce the full-world walk exactly — same replica rows,
    /// never more bandwidth — while the world churns, entities die,
    /// unpositioned state exists, and the focus itself moves.
    #[test]
    fn interest_view_sync_matches_full_walk() {
        let interest = Interest {
            center: (0.0, 0.0),
            radius: 12.0,
            margin: 4.0,
        };
        let (mut w_full, ids_f) = moving_world(30);
        let (mut w_view, ids_v) = moving_world(30);
        // an unpositioned global-state entity replicates at every level
        for w in [&mut w_full, &mut w_view] {
            let flag = w.spawn();
            w.set(flag, "gold", Value::Int(999)).unwrap();
        }
        let mut plain = Replicator::with_interest(ConsistencyLevel::Strict, interest);
        let mut viewed = Replicator::with_interest(ConsistencyLevel::Strict, interest);
        viewed.attach_stream(&mut w_view);
        let mut r_plain = Replica::default();
        let mut r_view = Replica::default();
        let drift_live = |world: &mut World, ids: &[EntityId], step: f32| {
            for (i, &e) in ids.iter().enumerate() {
                let Some(p) = world.pos(e) else { continue };
                world
                    .set_pos(e, Vec2::new(p.x + step, p.y + (i % 3) as f32 * 0.1))
                    .unwrap();
            }
        };
        for tick in 0..12 {
            drift_live(&mut w_full, &ids_f, 0.8);
            drift_live(&mut w_view, &ids_v, 0.8);
            if tick == 5 {
                w_full.despawn(ids_f[1]);
                w_view.despawn(ids_v[1]);
            }
            if tick >= 6 {
                // the player walks: the bubble must follow its focus
                plain.interest.center = (tick as f32, 0.0);
                viewed.interest.center = (tick as f32, 0.0);
            }
            plain.sync(&w_full, &mut r_plain);
            viewed.sync_stream(&mut w_view, &mut r_view);
            assert_eq!(r_plain.rows, r_view.rows, "tick {tick}");
            assert!(viewed.rows_sent <= plain.rows_sent, "tick {tick}");
        }
    }

    #[test]
    fn interest_reduces_bandwidth() {
        let run = |interest: Interest| {
            let (mut w, ids) = moving_world(100);
            let mut rep = Replicator::with_interest(ConsistencyLevel::Strict, interest);
            let mut client = Replica::default();
            for _ in 0..10 {
                drift(&mut w, &ids, 0.2);
                rep.sync(&w, &mut client);
            }
            rep.rows_sent
        };
        let unbounded = run(Interest::unbounded());
        let local = run(Interest {
            center: (0.0, 0.0),
            radius: 30.0,
            margin: 5.0,
        });
        assert!(
            local < unbounded / 3,
            "AOI must cut bandwidth: local={local} unbounded={unbounded}"
        );
    }

    /// ISSUE-4 satellite: stream-shipped replication must be exactly
    /// the full-walk `sync` oracle — same replica rows, same
    /// bandwidth, tick for tick — over a seeded 50-tick workload of
    /// drifting entities, spawns, despawns, component churn,
    /// unpositioned global state, and a wandering focus (bubble
    /// retargets), at every consistency level.
    #[test]
    fn sync_stream_equals_full_walk_over_seeded_workload() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for level in [
            ConsistencyLevel::Strict,
            ConsistencyLevel::CoarseEpoch { pos_period: 3 },
            ConsistencyLevel::EventualSimilar {
                threshold: 2.5,
                state_period: 4,
            },
        ] {
            let interest = Interest {
                center: (0.0, 0.0),
                radius: 15.0,
                margin: 4.0,
            };
            let (mut w_walk, mut ids_w) = moving_world(40);
            let (mut w_stream, mut ids_s) = moving_world(40);
            for w in [&mut w_walk, &mut w_stream] {
                let flag = w.spawn();
                w.set(flag, "gold", Value::Int(7)).unwrap();
            }
            let mut walk = Replicator::with_interest(level, interest);
            let mut stream = Replicator::with_interest(level, interest);
            stream.attach_stream(&mut w_stream);
            let mut r_walk = Replica::default();
            let mut r_stream = Replica::default();

            let mut rng = StdRng::seed_from_u64(0x5CA1E);
            for tick in 0..50 {
                // an identical random mutation script against both worlds
                let n_ops = 1 + rng.gen_range(0..4u32);
                for _ in 0..n_ops {
                    let roll = rng.gen_range(0..100u32);
                    let pick = rng.gen_range(0..ids_w.len().max(1));
                    match roll {
                        0..=54 => {
                            let (dx, dy) = (
                                rng.gen_range(-2.0..2.0f32),
                                rng.gen_range(-2.0..2.0f32),
                            );
                            for (w, ids) in
                                [(&mut w_walk, &ids_w), (&mut w_stream, &ids_s)]
                            {
                                let e = ids[pick];
                                if let Some(p) = w.pos(e) {
                                    w.set_pos(e, Vec2::new(p.x + dx, p.y + dy)).unwrap();
                                }
                            }
                        }
                        55..=74 => {
                            let hp = rng.gen_range(0.0..100.0f32);
                            for (w, ids) in
                                [(&mut w_walk, &ids_w), (&mut w_stream, &ids_s)]
                            {
                                let e = ids[pick];
                                if w.is_live(e) {
                                    w.set_f32(e, "hp", hp).unwrap();
                                }
                            }
                        }
                        75..=84 => {
                            let (x, y) = (
                                rng.gen_range(-20.0..20.0f32),
                                rng.gen_range(-20.0..20.0f32),
                            );
                            let hp = rng.gen_range(1.0..99.0f32);
                            let a = w_walk.spawn_at(Vec2::new(x, y));
                            w_walk.set_f32(a, "hp", hp).unwrap();
                            ids_w.push(a);
                            let b = w_stream.spawn_at(Vec2::new(x, y));
                            w_stream.set_f32(b, "hp", hp).unwrap();
                            ids_s.push(b);
                        }
                        _ => {
                            if ids_w.len() > 5 {
                                w_walk.despawn(ids_w[pick]);
                                w_stream.despawn(ids_s[pick]);
                            }
                        }
                    }
                }
                if tick % 5 == 4 {
                    // the player walks: the bubble must follow its focus
                    let focus = (tick as f32 * 0.7, rng.gen_range(-3.0..3.0f32));
                    walk.interest.center = focus;
                    stream.interest.center = focus;
                }
                walk.sync(&w_walk, &mut r_walk);
                stream.sync_stream(&mut w_stream, &mut r_stream);
                assert_eq!(
                    r_walk.rows, r_stream.rows,
                    "replica state diverged at tick {tick} under {level:?}"
                );
                assert!(
                    stream.rows_sent <= walk.rows_sent,
                    "stream shipping must never cost more bandwidth \
                     (tick {tick}, {level:?}): {} vs {}",
                    stream.rows_sent,
                    walk.rows_sent
                );
            }
            // ISSUE-5 acceptance: delta segments (id-keyed, changed
            // columns only) must land strictly below the row-shipping
            // baseline's wire bytes at every consistency level
            assert!(
                stream.bytes_sent < walk.bytes_sent,
                "delta segments must beat row shipping ({level:?}): {} vs {} bytes",
                stream.bytes_sent,
                walk.bytes_sent
            );
            if level == ConsistencyLevel::Strict {
                // Strict full walks re-ship every member's position
                // every tick; the stream ships only touched rows — the
                // bandwidth win must actually materialize
                assert!(
                    stream.rows_sent < walk.rows_sent,
                    "stream={} walk={}",
                    stream.rows_sent,
                    walk.rows_sent
                );
                println!(
                    "strict bandwidth: delta {} bytes vs row-ship {} bytes ({:.1}% of baseline)",
                    stream.bytes_sent,
                    walk.bytes_sent,
                    100.0 * stream.bytes_sent as f64 / walk.bytes_sent as f64
                );
            }
        }
    }

    /// A disconnect (`detach_stream`) followed by a reconnect serving a
    /// **fresh** replica must re-ship the component name table — the
    /// old client's defines are gone with it.
    #[test]
    fn reconnect_with_fresh_replica_reships_name_table() {
        let interest = Interest {
            center: (0.0, 0.0),
            radius: 10.0,
            margin: 2.0,
        };
        let (mut w, ids) = moving_world(8);
        let mut rep = Replicator::with_interest(ConsistencyLevel::Strict, interest);
        rep.attach_stream(&mut w);
        let mut first = Replica::default();
        rep.sync_stream(&mut w, &mut first);
        assert!(!first.rows.is_empty());
        // client disconnects; a new session starts with an empty replica
        rep.detach_stream(&mut w);
        rep.attach_stream(&mut w);
        let mut second = Replica::default();
        drift(&mut w, &ids, 0.5);
        rep.sync_stream(&mut w, &mut second);
        let d = Replicator::divergence_within(&w, &second, interest);
        assert_eq!(d.mean_pos_error, 0.0);
        assert_eq!(d.persistent_mismatches, 0);
    }

    /// A sync loop that stalls past the world's tap-retention window is
    /// evicted rather than pinning the record window; the next
    /// `sync_stream` detects the eviction, resynchronizes from live
    /// state, and re-attaches — the replica ends exact either way.
    #[test]
    fn evicted_stream_tap_resyncs_from_live_state() {
        let (mut w, ids) = moving_world(10);
        w.set_tap_retention(Some(32));
        let mut rep = Replicator::new(ConsistencyLevel::Strict);
        rep.attach_stream(&mut w);
        let mut client = Replica::default();
        rep.sync_stream(&mut w, &mut client);
        // the client stalls while the world churns far past the window
        for _ in 0..40 {
            drift(&mut w, &ids, 0.5);
        }
        assert!(
            w.retained_changes() <= 33,
            "window bounded despite the stalled consumer"
        );
        w.set(ids[0], "hp", Value::Float(7.0)).unwrap();
        rep.sync_stream(&mut w, &mut client);
        let d = Replicator::divergence(&w, &client);
        assert_eq!(d.mean_pos_error, 0.0, "resync restored exactness");
        assert_eq!(d.persistent_mismatches, 0);
        // the re-attached tap streams incrementally again
        drift(&mut w, &ids, 0.5);
        rep.sync_stream(&mut w, &mut client);
        assert_eq!(Replicator::divergence(&w, &client).mean_pos_error, 0.0);
        // ISSUE-13: the resync's rows arrived by full walk, not through
        // this stream — a later despawn must still drop all of them
        w.despawn(ids[3]);
        rep.sync_stream(&mut w, &mut client);
        assert!(
            client.rows.keys().all(|(id, _)| *id != ids[3]),
            "a row the resync shipped outlived its entity"
        );
    }

    /// A focus jump that brings more rows in and out of the bubble than
    /// the retention limit allows drops the interest view's subscription
    /// while the tap, one record behind, stays: the sync resyncs from
    /// live state, subscribes again, and the replica ends exact.
    #[test]
    fn dropped_view_subscription_resyncs_from_live_state() {
        let registry = MetricsRegistry::new();
        let resyncs = || registry.snapshot().counter("repl.resyncs");
        let interest = Interest {
            center: (0.0, 0.0),
            radius: 10.0,
            margin: 2.0,
        };
        let (mut w, ids) = moving_world(40);
        let mut rep = Replicator::with_interest(ConsistencyLevel::Strict, interest);
        rep.attach_metrics(&registry);
        rep.attach_stream(&mut w);
        let mut client = Replica::default();
        rep.sync_stream(&mut w, &mut client);
        w.set_tap_retention(Some(4));
        rep.interest.center = (60.0, 0.0);
        rep.sync_stream(&mut w, &mut client);
        assert!(!w.tap_evicted(rep.stream_tap().unwrap()));
        assert_eq!(resyncs(), 1, "the view's deltas were incomplete");
        let d = Replicator::divergence_within(&w, &client, rep.interest);
        assert_eq!((d.mean_pos_error, d.persistent_mismatches), (0.0, 0));
        // subscribed again: the next tick streams
        w.set_tap_retention(None);
        drift(&mut w, &ids, 0.5);
        rep.sync_stream(&mut w, &mut client);
        assert_eq!(resyncs(), 1);
        let d = Replicator::divergence_within(&w, &client, rep.interest);
        assert_eq!((d.mean_pos_error, d.persistent_mismatches), (0.0, 0));
    }

    /// ISSUE-13: a client evicted before any segment reached it holds
    /// only full-walk rows — its name table is empty, and under `Strict`
    /// the priming tick defines just `pos` (the other rows are already
    /// equal). The drop rule forgets rows through that table, so the
    /// priming pass must enter the columns the replica already holds.
    #[test]
    fn rows_that_arrived_by_full_walk_are_forgotten_whole() {
        let (mut w, ids) = moving_world(6);
        let mut rep = Replicator::new(ConsistencyLevel::Strict);
        rep.attach_stream(&mut w);
        let mut client = Replica::default();
        drift(&mut w, &ids, 0.5);
        w.set_tap_retention(Some(0)); // evicts the lagging tap at once
        w.set_tap_retention(None);
        rep.sync_stream(&mut w, &mut client); // full-walk resync
        rep.sync_stream(&mut w, &mut client); // priming
        let gold = w.component_id("gold").unwrap();
        assert!(client.rows.contains_key(&(ids[2], gold)));
        w.despawn(ids[2]);
        rep.sync_stream(&mut w, &mut client);
        assert!(
            client.rows.keys().all(|(id, _)| *id != ids[2]),
            "every column of a dead entity goes, named by a segment or not"
        );
        assert_eq!(Replicator::divergence(&w, &client).persistent_mismatches, 0);
    }

    /// ISSUE-13: `detach_stream` → `attach_stream` on the replica the
    /// client kept. The replicator has forgotten what it shipped, the
    /// replica has not: an entity that then leaves the bubble, and one
    /// that dies, must still be dropped — by the event that names them,
    /// since nothing walks the replica any more.
    #[test]
    fn reattached_stream_drops_what_the_old_session_shipped() {
        let interest = Interest {
            center: (0.0, 0.0),
            radius: 10.0,
            margin: 2.0,
        };
        let (mut w, ids) = moving_world(8); // x = 0, 3, 6, 9 are inside
        let mut rep = Replicator::with_interest(ConsistencyLevel::Strict, interest);
        rep.attach_stream(&mut w);
        let mut client = Replica::default();
        rep.sync_stream(&mut w, &mut client);
        assert!(client.pos(ids[1]).is_some() && client.pos(ids[2]).is_some());
        rep.detach_stream(&mut w);
        // an entity the replica holds leaves while nobody is listening
        w.set_pos(ids[3], Vec2::new(40.0, 0.0)).unwrap();
        rep.attach_stream(&mut w);
        rep.sync_stream(&mut w, &mut client);
        assert!(client.pos(ids[3]).is_none(), "left during the disconnect");
        // ... and two more after the stream is primed again
        w.set_pos(ids[1], Vec2::new(40.0, 0.0)).unwrap();
        w.despawn(ids[2]);
        rep.sync_stream(&mut w, &mut client);
        for gone in [ids[1], ids[2], ids[3]] {
            assert!(
                client.rows.keys().all(|(id, _)| *id != gone),
                "{gone:?} is still on the replica"
            );
        }
        let d = Replicator::divergence_within(&w, &client, interest);
        assert_eq!((d.mean_pos_error, d.persistent_mismatches), (0.0, 0));
    }

    /// A resync or reconnect can leave the replica holding a stale row
    /// that the priming tick's off-cycle rules do not ship. The full
    /// walk ships it at the next state tick; so must the stream (the
    /// parent of ISSUE-13 lost the debt: the priming visit marked the
    /// entity fully known).
    #[test]
    fn stale_rows_held_across_an_off_cycle_resync_stay_owed() {
        let level = ConsistencyLevel::EventualSimilar {
            threshold: 100.0,
            state_period: 4,
        };
        let (mut w, ids) = moving_world(6);
        let mut rep = Replicator::new(level);
        rep.attach_stream(&mut w);
        let mut walk = Replicator::new(level);
        let (mut client, mut shadow) = (Replica::default(), Replica::default());
        rep.sync_stream(&mut w, &mut client); // tick 1
        walk.sync(&w, &mut shadow);
        w.set_f32(ids[0], "hp", 12.0).unwrap();
        w.set_tap_retention(Some(0));
        w.set_tap_retention(None);
        for tick in 2..=4 {
            // 2: full-walk resync, 3: priming — both off-cycle; 4: state
            rep.sync_stream(&mut w, &mut client);
            walk.sync(&w, &mut shadow);
            assert_eq!(client.rows, shadow.rows, "tick {tick}");
        }
        assert_eq!(
            client.rows.get(&(ids[0], w.component_id("hp").unwrap())),
            Some(&Value::Float(12.0))
        );
    }

    /// An unpositioned entity the replica knows gains its first
    /// position inside the hysteresis band: with no `pos` row on the
    /// replica it is invisible (the full walk skips it and keeps its
    /// rows). What it changes while hidden ships when it becomes
    /// visible (the parent of ISSUE-13 cleared that debt at the next
    /// settling tick).
    #[test]
    fn changes_made_while_hidden_in_the_band_ship_on_return() {
        let interest = Interest {
            center: (0.0, 0.0),
            radius: 10.0,
            margin: 4.0,
        };
        let (mut w, _) = moving_world(4);
        let flag = w.spawn();
        w.set(flag, "gold", Value::Int(1)).unwrap();
        let mut rep = Replicator::with_interest(ConsistencyLevel::Strict, interest);
        rep.attach_stream(&mut w);
        let mut walk = Replicator::with_interest(ConsistencyLevel::Strict, interest);
        let (mut client, mut shadow) = (Replica::default(), Replica::default());
        let mut step = |w: &mut World, at: &str| {
            rep.sync_stream(w, &mut client);
            walk.sync(w, &mut shadow);
            assert_eq!(client.rows, shadow.rows, "{at}");
        };
        step(&mut w, "unpositioned: shipped");
        w.set_pos(flag, Vec2::new(12.0, 0.0)).unwrap();
        w.set(flag, "gold", Value::Int(2)).unwrap();
        step(&mut w, "first position in the band: hidden");
        w.set_pos(flag, Vec2::new(5.0, 0.0)).unwrap();
        step(&mut w, "inside the radius: visible, gold 2 owed");
        // and the other way out: a first position beyond the band drops
        // an entity no view ever held
        let far = w.spawn();
        w.set(far, "gold", Value::Int(3)).unwrap();
        step(&mut w, "second global entity shipped");
        w.set_pos(far, Vec2::new(90.0, 0.0)).unwrap();
        step(&mut w, "first position outside the bubble: dropped");
    }

    #[test]
    fn detach_stream_releases_tap_and_view() {
        let interest = Interest {
            center: (0.0, 0.0),
            radius: 10.0,
            margin: 2.0,
        };
        let (mut w, ids) = moving_world(10);
        let mut rep = Replicator::with_interest(ConsistencyLevel::Strict, interest);
        rep.attach_stream(&mut w);
        let mut client = Replica::default();
        rep.sync_stream(&mut w, &mut client);
        assert_eq!(w.view_ids().len(), 1);
        // the disconnect path: tap + view released, later mutations are
        // not retained for a consumer that will never come back
        rep.detach_stream(&mut w);
        assert!(w.view_ids().is_empty(), "interest view dropped");
        drift(&mut w, &ids, 1.0);
        assert_eq!(w.pending_deltas(), 0, "no consumers ⇒ no recording");
        // the replicator still works, as a plain full-walk sync
        rep.sync_stream(&mut w, &mut client);
        let d = Replicator::divergence_within(&w, &client, interest);
        assert_eq!(d.mean_pos_error, 0.0);
    }

    /// With no stream attached `sync_stream` is the full walk; with
    /// unbounded interest `attach_stream` registers no view and the
    /// stream keeps every record.
    #[test]
    fn sync_stream_without_tap_or_view_is_the_full_walk() {
        let (mut w, ids) = moving_world(10);
        let mut rep = Replicator::new(ConsistencyLevel::Strict);
        let mut walk = Replicator::new(ConsistencyLevel::Strict);
        let (mut client, mut shadow) = (Replica::default(), Replica::default());
        drift(&mut w, &ids, 1.0);
        rep.sync_stream(&mut w, &mut client);
        walk.sync(&w, &mut shadow);
        assert_eq!(client.rows, shadow.rows);
        assert_eq!(
            (rep.rows_sent, rep.bytes_sent),
            (walk.rows_sent, walk.bytes_sent)
        );
        rep.attach_stream(&mut w);
        assert!(w.view_ids().is_empty(), "unbounded interest needs no view");
        drift(&mut w, &ids, 1.0);
        rep.sync_stream(&mut w, &mut client);
        walk.sync(&w, &mut shadow);
        assert_eq!(client.rows, shadow.rows);
        assert_eq!(Replicator::divergence(&w, &client).mean_pos_error, 0.0);
    }

    /// ISSUE-8 tentpole: segments now carry component removals and
    /// whole-entity drops (what a cross-shard handoff stream ships when
    /// a column is removed, an entity despawns, or ownership moves),
    /// reconciled per component with in-segment puts losing to drops.
    #[test]
    fn segment_unsets_and_drops_reconcile_exactly() {
        let (mut w, ids) = moving_world(3);
        w.set_f32(ids[0], "hp", 50.0).unwrap();
        w.set_f32(ids[1], "hp", 60.0).unwrap();
        let hp = w.component_id("hp").unwrap();
        let pos = w.component_id("pos").unwrap();
        let mut replica = Replica::default();
        let full = DeltaSegment {
            defines: vec![(pos, "pos".into()), (hp, "hp".into())],
            puts: vec![
                (ids[0], pos, Value::Vec2(0.0, 0.0)),
                (ids[0], hp, Value::Float(50.0)),
                (ids[1], pos, Value::Vec2(3.0, 0.0)),
                (ids[1], hp, Value::Float(60.0)),
            ],
            ..Default::default()
        };
        replica.apply_segment(&full);
        assert_eq!(replica.rows.len(), 4);
        // an unset removes exactly the named column; a drop forgets the
        // entity wholesale even against a same-segment put
        let next = DeltaSegment {
            puts: vec![(ids[1], hp, Value::Float(61.0))],
            unsets: vec![(ids[0], hp)],
            drops: vec![ids[1]],
            ..Default::default()
        };
        assert!(next.wire_bytes() > 0);
        assert!(!next.is_empty());
        replica.apply_segment(&next);
        assert_eq!(replica.pos(ids[0]), Some((0.0, 0.0)));
        assert!(!replica.rows.contains_key(&(ids[0], hp)));
        assert!(replica.pos(ids[1]).is_none(), "dropped entity forgotten");
        assert!(!replica.rows.contains_key(&(ids[1], hp)));
        assert_eq!(replica.rows.len(), 1);
        // unsets/drops cost wire bytes: 8 + varint for unset, 8 for drop
        assert_eq!(next.wire_bytes(), (8 + 1 + 1 + 4) + (8 + 1) + 8);
    }

    #[test]
    fn new_entities_always_ship() {
        let (mut w, _) = moving_world(3);
        let mut rep = Replicator::new(ConsistencyLevel::EventualSimilar {
            threshold: 100.0,
            state_period: 100,
        });
        let mut client = Replica::default();
        rep.sync(&w, &mut client);
        let newborn = w.spawn_at(Vec2::new(50.0, 50.0));
        rep.sync(&w, &mut client);
        assert_eq!(client.pos(newborn), Some((50.0, 50.0)));
    }

    /// A stand-in durability pipeline for gating tests (the end-to-end
    /// test against a real async `WalStore` lives in the workspace-root
    /// `tests/async_durability.rs`).
    struct FakeWatermark {
        enqueued: u64,
        durable: u64,
    }

    impl DurabilityWatermark for FakeWatermark {
        fn enqueued_seq(&self) -> u64 {
            self.enqueued
        }
        fn durable_seq(&self) -> u64 {
            self.durable
        }
    }

    #[test]
    fn strict_replication_gates_on_the_durable_watermark() {
        let (mut w, ids) = moving_world(6);
        let mut rep = Replicator::new(ConsistencyLevel::Strict);
        rep.attach_stream(&mut w);
        let mut client = Replica::default();
        let mut mark = FakeWatermark {
            enqueued: 5,
            durable: 3,
        };
        drift(&mut w, &ids, 1.0);
        // in-flight commits behind the writer: Strict refuses to ship
        assert!(!rep.sync_stream_durable(&mut w, &mut client, &mark));
        assert!(client.rows.is_empty(), "a refused tick ships nothing");
        // the writer drains; the same tick now ships, nothing was lost
        mark.durable = 5;
        assert!(rep.sync_stream_durable(&mut w, &mut client, &mark));
        assert_eq!(Replicator::divergence(&w, &client).mean_pos_error, 0.0);
        assert_eq!(Replicator::divergence(&w, &client).persistent_mismatches, 0);
    }

    #[test]
    fn weaker_levels_ship_despite_durability_lag() {
        let (mut w, ids) = moving_world(6);
        let mut rep = Replicator::new(ConsistencyLevel::CoarseEpoch { pos_period: 1 });
        rep.attach_stream(&mut w);
        let mut client = Replica::default();
        let lagging = FakeWatermark {
            enqueued: 100,
            durable: 0,
        };
        drift(&mut w, &ids, 1.0);
        assert!(
            rep.sync_stream_durable(&mut w, &mut client, &lagging),
            "weak consistency already tolerates lag; durability gating is Strict-only"
        );
        assert_eq!(Replicator::divergence(&w, &client).mean_pos_error, 0.0);
    }
}
