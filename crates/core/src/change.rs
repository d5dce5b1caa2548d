//! The unified change-capture pipeline: one ordered mutation stream
//! behind every world write, consumed declaratively by every derived
//! subsystem.
//!
//! The paper's thesis is that a game *is* a database, so its machinery
//! should be database machinery. Before this module, each derived
//! subsystem (index maintenance, standing views, the WAL, replication)
//! was hand-wired into every `World` write path separately — four
//! parallel taps, each a chance to miss a mutation. Now every mutation
//! funnels through a single internal commit path that appends a typed
//! [`Change`] record to an ordered, tick-stamped **change stream**:
//!
//! * **Standing views** fold the stream at every refresh
//!   ([`crate::world::World::refresh_views`]).
//! * **Durability** is a tap: `gamedb-persist`'s `WalStore` attaches one
//!   ([`crate::world::World::attach_tap`]) and turns each pending
//!   segment into one group-commit WAL frame — so *any* mutation of the
//!   world (scripted ticks, effect batches, direct writes) is durable,
//!   not just calls that went through a mirrored store API.
//! * **Replication** is a tap: `gamedb-sync`'s `Replicator::sync_stream`
//!   ships delta-encoded segments built from the records themselves.
//!
//! ## Interned component names
//!
//! Row and index ops identify their component by [`ComponentId`] — the
//! world's interned small-int column id — not by name. A record no
//! longer clones a `String` per write, WAL frames carry a varint id
//! instead of a length-prefixed name, and replication delta segments
//! ship ids with a one-time name table. Consumers resolve ids through
//! the issuing world ([`crate::world::World::component_name`]); the
//! table itself is made durable by the snapshot schema (written in id
//! order) plus [`ChangeOp::ComponentDefined`] catalog records for
//! components interned after the last snapshot.
//!
//! ## Record taxonomy
//!
//! Row ops ([`ChangeOp::Set`], [`ChangeOp::Removed`],
//! [`ChangeOp::Spawned`], [`ChangeOp::Despawned`]) describe live-entity
//! state and are recorded whenever *any* consumer is attached (a
//! standing view or a tap). [`ChangeOp::Despawned`] carries the dropped
//! row image, so stream consumers (the wealth auditor, delta shipping)
//! can fold a death without rescanning the world. Catalog ops
//! (`ComponentDefined`/`CreateIndex`/`DropIndex`/`RegisterPlanView`/
//! `DropView`/`RetargetView`) and tick stamps ([`ChangeOp::TickTo`])
//! describe schema, derived-state lifecycle, and time; views do not
//! consume them, so they are recorded only while a tap is attached.
//! With no consumers at all, nothing is recorded and writes stay on the
//! fast path.
//!
//! ## Ordering guarantees
//!
//! * Records carry a gap-free, monotonically increasing `seq`; every
//!   consumer observes records in that one order.
//! * Per `(entity, component)` slot, the `old` value of each `Set`
//!   equals the `new` value of the previous `Set` on that slot (or the
//!   pre-stream value) — replaying a recorded stream onto the base
//!   state reconstructs the world exactly (property-tested).
//! * A `ComponentDefined` record precedes the first row op naming its
//!   id, so a consumer decoding the stream in order can always resolve
//!   ids it has not seen before.
//! * A tap never observes a record twice: its cursor only moves forward
//!   ([`crate::world::World::ack_tap`]). Records are retained until the
//!   slowest consumer has consumed them, then reclaimed — unless a
//!   retention limit is set ([`crate::world::World::set_tap_retention`]),
//!   in which case a tap lagging past the limit is **evicted** instead
//!   of pinning the window forever (the leaked-consumer guard). The
//!   exception is a **pinned** tap
//!   ([`crate::world::World::attach_tap_pinned`]): a consumer whose
//!   misses would be data loss — the durability tap — is never evicted;
//!   its laggard pressure is answered by backpressure at its commit
//!   boundary, not by dropping records.
//!
//! [`WriteBatch`] is the batch commit surface: the tick executor's
//! merged effect buffers resolve into one batch and commit through
//! [`crate::world::World::apply_batch`] with amortized index
//! maintenance — and, with a durability tap attached, one WAL frame for
//! the whole batch instead of one per call.

use std::sync::Arc;

use gamedb_content::{Value, ValueType};
use gamedb_spatial::Vec2;

use crate::entity::EntityId;
use crate::index::IndexKind;
use crate::intern::ComponentId;
use crate::metrics::CoreMetrics;

/// One record of the world's ordered change stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Change {
    /// Position in the world's total mutation order (gap-free,
    /// monotonically increasing).
    pub seq: u64,
    /// Tick counter at the moment the mutation committed.
    pub tick: u64,
    /// What changed.
    pub op: ChangeOp,
}

/// The typed payload of a [`Change`] record.
#[derive(Debug, Clone, PartialEq)]
pub enum ChangeOp {
    /// A component was written. `old` is `None` when the component was
    /// newly added to the entity.
    Set {
        id: EntityId,
        component: ComponentId,
        old: Option<Value>,
        new: Value,
    },
    /// A component was removed from an entity.
    Removed {
        id: EntityId,
        component: ComponentId,
        old: Value,
    },
    /// An entity came to life (spawn or snapshot restore).
    Spawned { id: EntityId },
    /// An entity died. `row` is the dropped row image — every component
    /// value the entity held at death, in id order — so stream
    /// consumers can fold the loss (wealth conservation, delta
    /// shipping) without a world rescan.
    Despawned {
        id: EntityId,
        row: Vec<(ComponentId, Value)>,
    },
    /// A component column was defined (name interned). Recorded before
    /// any row op naming the id, so stream consumers and WAL redo can
    /// always resolve ids in order.
    ComponentDefined {
        component: ComponentId,
        name: String,
        ty: ValueType,
    },
    /// A secondary index was created on a component.
    CreateIndex {
        component: ComponentId,
        kind: IndexKind,
    },
    /// The secondary index on a component was dropped.
    DropIndex { component: ComponentId },
    /// A standing view was registered at a slot, carrying the full plan
    /// so WAL redo can re-install and re-materialize it at the exact
    /// slot.
    RegisterPlanView {
        slot: u32,
        plan: crate::dvm::ViewPlan,
    },
    /// The standing view at a slot was dropped.
    DropView { slot: u32 },
    /// A spatial view's disk moved (interest bubbles following a focus).
    RetargetView { slot: u32, x: f32, y: f32, radius: f32 },
    /// The tick counter advanced to an absolute value.
    TickTo { tick: u64 },
}

impl ChangeOp {
    /// The entity a row op touches; `None` for catalog and tick ops.
    pub fn entity(&self) -> Option<EntityId> {
        match self {
            ChangeOp::Set { id, .. }
            | ChangeOp::Removed { id, .. }
            | ChangeOp::Spawned { id }
            | ChangeOp::Despawned { id, .. } => Some(*id),
            _ => None,
        }
    }

    /// True for row ops (entity state), false for catalog/tick ops.
    pub fn is_row_op(&self) -> bool {
        self.entity().is_some()
    }
}

/// The watermark surface an asynchronous durability pipeline exposes:
/// how far commits have been handed to the writer, and how far the
/// writer has made them durable. Consumers that must not run ahead of
/// durability — a Strict-level replicator shipping state that a primary
/// crash could otherwise un-happen — gate on [`DurabilityWatermark::is_drained`].
///
/// Sequence numbers are commit sequences (one per commit boundary, not
/// per mutation); `0` means "nothing yet". Implemented by
/// `gamedb-persist`'s `WalStore` in both sync and async modes.
pub trait DurabilityWatermark {
    /// Highest commit sequence handed to the durability pipeline.
    fn enqueued_seq(&self) -> u64;
    /// Highest commit sequence durably flushed (the ack watermark).
    fn durable_seq(&self) -> u64;
    /// True when everything enqueued is durable — the unacked window is
    /// empty, so nothing observable could be lost by a crash right now.
    fn is_drained(&self) -> bool {
        self.durable_seq() >= self.enqueued_seq()
    }

    /// A copyable point-in-time reading of both sequences. Take one
    /// when the borrow checker forbids holding the pipeline itself
    /// alongside a mutable borrow of the world it persists (the
    /// replication call shape: `sync_stream_durable(store.world_mut(),
    /// …, &store.snapshot_watermark())`).
    fn snapshot_watermark(&self) -> WatermarkSnapshot {
        WatermarkSnapshot {
            enqueued: self.enqueued_seq(),
            durable: self.durable_seq(),
        }
    }
}

/// A detached [`DurabilityWatermark`] reading — see
/// [`DurabilityWatermark::snapshot_watermark`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WatermarkSnapshot {
    /// Highest commit sequence handed to the durability pipeline.
    pub enqueued: u64,
    /// Highest commit sequence durably flushed.
    pub durable: u64,
}

impl DurabilityWatermark for WatermarkSnapshot {
    fn enqueued_seq(&self) -> u64 {
        self.enqueued
    }

    fn durable_seq(&self) -> u64 {
        self.durable
    }
}

/// Handle to an attached change-stream tap (see
/// [`crate::world::World::attach_tap`]). The handle is only meaningful
/// against the world (or clone lineage) that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TapId(pub(crate) u32);

/// One coherent reading of a tap's consumer state
/// ([`crate::world::World::tap_stats`]): lag, cursor position, and the
/// pinned/evicted flags in a single value, so the metrics layer and
/// sync-loop callers stop re-deriving them from separate
/// `tap_lag`/`tap_pinned`/`tap_evicted` calls that could interleave
/// with writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TapStats {
    /// Records not yet consumed (head seq − cursor); 0 for detached or
    /// evicted taps.
    pub lag: u64,
    /// The tap's cursor: seq of the next record it will observe —
    /// everything below it is acknowledged. 0 for detached or evicted
    /// taps.
    pub acked_seq: u64,
    /// Exempt from retention eviction (the durability tap).
    pub pinned: bool,
    /// Evicted by the retention policy: the consumer must resync from
    /// live state and re-attach.
    pub evicted: bool,
    /// Currently attached (active — neither free nor evicted).
    pub attached: bool,
}

/// One tap slot of the stream.
#[derive(Debug, Clone, Copy, PartialEq)]
enum TapSlot {
    /// Never attached, or detached — free for reuse.
    Free,
    /// Attached, cursor at the contained seq. A **pinned** tap is
    /// exempt from retention eviction: it is a consumer that must never
    /// miss a record (the durability tap), so a laggard is backpressured
    /// by its own commit cadence instead of silently dropped — the
    /// window grows past the retention limit rather than losing
    /// durability.
    Active { cursor: u64, pinned: bool },
    /// Evicted by the retention policy: the consumer leaked its tap (or
    /// fell hopelessly behind) and the stream stopped retaining records
    /// for it. Reads return nothing; the slot frees on detach.
    Evicted,
}

/// The world's change stream: the retained record window plus one
/// cursor per consumer (the standing-view fold position and every
/// attached tap). Records are reclaimed once every cursor has passed
/// them.
///
/// `Clone` is manual: taps do **not** survive into a clone. A tap's
/// `TapId` is held by the consumer that attached it against the
/// original world — nothing could ever ack the cloned cursor, so a
/// copied tap would pin the clone's record window (and per-write
/// recording cost) forever. Clones keep the retained records and the
/// view fold cursor (their standing views still need the pending
/// segment) and start with no taps.
#[derive(Debug, Default)]
pub(crate) struct ChangeStream {
    /// Retained records, oldest first; `records[i]` has seq `base + i`.
    records: Vec<Change>,
    /// Seq of `records[0]`.
    base: u64,
    /// Seq the next record will get.
    next: u64,
    /// Fold position of the standing-view registry.
    views_at: u64,
    /// Cursor per attached tap.
    taps: Vec<TapSlot>,
    /// Maximum records a lagging tap may pin before it is evicted
    /// (`None` = retain forever, the default).
    retention: Option<usize>,
    /// Attached instrumentation ([`crate::world::World::attach_metrics`]).
    /// Lives here because every write path funnels through
    /// [`ChangeStream::record`] — including the batch path that
    /// destructures the world. Clones do not inherit it (same rationale
    /// as taps: a cloned oracle double-reporting would corrupt the
    /// registry).
    metrics: Option<Arc<CoreMetrics>>,
}

impl Clone for ChangeStream {
    fn clone(&self) -> Self {
        ChangeStream {
            records: self.records.clone(),
            base: self.base,
            next: self.next,
            views_at: self.views_at,
            taps: Vec::new(),
            retention: self.retention,
            metrics: None,
        }
    }
}

impl ChangeStream {
    /// True while at least one live tap is attached (catalog/tick ops
    /// are recorded only then).
    #[inline]
    pub fn has_taps(&self) -> bool {
        self.taps.iter().any(|t| matches!(t, TapSlot::Active { .. }))
    }

    /// Append a record stamped with the current tick.
    pub fn record(&mut self, tick: u64, op: ChangeOp) {
        self.records.push(Change {
            seq: self.next,
            tick,
            op,
        });
        self.next += 1;
        if let Some(limit) = self.retention {
            if self.records.len() > limit {
                self.evict_laggards(limit);
            }
        }
        if let Some(m) = &self.metrics {
            m.records.inc();
            m.retained.set(self.records.len() as i64);
        }
    }

    /// Attach instrumentation (see
    /// [`crate::world::World::attach_metrics`]).
    pub fn set_metrics(&mut self, metrics: Option<Arc<CoreMetrics>>) {
        self.metrics = metrics;
    }

    /// The attached instrumentation, if any.
    #[inline]
    pub fn metrics(&self) -> Option<&Arc<CoreMetrics>> {
        self.metrics.as_ref()
    }

    /// Seq the next record will receive (how far the stream has run).
    #[inline]
    pub fn next_seq(&self) -> u64 {
        self.next
    }

    /// Retained (not yet reclaimed) records — what lagging consumers
    /// are pinning in memory.
    #[inline]
    pub fn retained(&self) -> usize {
        self.records.len()
    }

    /// The retention limit, if one is set.
    pub fn retention(&self) -> Option<usize> {
        self.retention
    }

    /// Set the retention limit (see
    /// [`crate::world::World::set_tap_retention`]).
    pub fn set_retention(&mut self, limit: Option<usize>) {
        self.retention = limit;
        if let Some(limit) = limit {
            if self.records.len() > limit {
                self.evict_laggards(limit);
            }
        }
    }

    /// Evict every unpinned tap whose lag exceeds `limit`, then
    /// reclaim. The standing-view cursor is never evicted: the world
    /// folds it automatically at every tick, so it cannot leak. Pinned
    /// taps (durability) are never evicted either — a lagging durable
    /// flusher must be backpressured by its caller, not silently
    /// dropped, so the window is allowed to outgrow the limit while a
    /// pinned laggard drains.
    fn evict_laggards(&mut self, limit: usize) {
        let horizon = self.next.saturating_sub(limit as u64);
        let mut evicted = 0u64;
        for slot in &mut self.taps {
            if let TapSlot::Active { cursor, pinned: false } = slot {
                if *cursor < horizon {
                    *slot = TapSlot::Evicted;
                    evicted += 1;
                }
            }
        }
        if evicted > 0 {
            if let Some(m) = &self.metrics {
                m.tap_evictions.add(evicted);
            }
        }
        self.gc();
    }

    fn idx(&self, seq: u64) -> usize {
        (seq.max(self.base) - self.base) as usize
    }

    /// Records the standing views have not folded yet.
    pub fn pending_views(&self) -> &[Change] {
        &self.records[self.idx(self.views_at)..]
    }

    /// Advance the view fold cursor past everything recorded so far.
    pub fn mark_views_folded(&mut self) {
        self.views_at = self.next;
        self.gc();
    }

    /// Attach a tap whose cursor starts at the current end of stream.
    pub fn attach(&mut self) -> TapId {
        self.attach_with(false)
    }

    /// Attach a **pinned** tap: exempt from retention eviction (see
    /// [`ChangeStream::evict_laggards`]). For consumers whose misses
    /// are data loss — the durability tap.
    pub fn attach_pinned(&mut self) -> TapId {
        self.attach_with(true)
    }

    fn attach_with(&mut self, pinned: bool) -> TapId {
        let slot = TapSlot::Active {
            cursor: self.next,
            pinned,
        };
        if let Some(i) = self.taps.iter().position(|t| *t == TapSlot::Free) {
            self.taps[i] = slot;
            TapId(i as u32)
        } else {
            self.taps.push(slot);
            TapId((self.taps.len() - 1) as u32)
        }
    }

    /// True when `tap` is attached and pinned.
    pub fn tap_pinned(&self, tap: TapId) -> bool {
        matches!(
            self.taps.get(tap.0 as usize),
            Some(TapSlot::Active { pinned: true, .. })
        )
    }

    /// Records `tap` has not consumed yet, as a count (its lag behind
    /// the head of the stream); 0 for detached or evicted taps.
    pub fn tap_lag(&self, tap: TapId) -> u64 {
        match self.taps.get(tap.0 as usize) {
            Some(TapSlot::Active { cursor, .. }) => self.next - *cursor,
            _ => 0,
        }
    }

    /// Detach a tap; returns whether it was attached (evicted taps
    /// count — detaching one frees its slot).
    pub fn detach(&mut self, tap: TapId) -> bool {
        match self.taps.get_mut(tap.0 as usize) {
            Some(slot) if *slot != TapSlot::Free => {
                *slot = TapSlot::Free;
                self.gc();
                true
            }
            _ => false,
        }
    }

    /// True when the retention policy evicted this tap: the consumer
    /// missed records and must resynchronize from current state.
    pub fn tap_evicted(&self, tap: TapId) -> bool {
        matches!(self.taps.get(tap.0 as usize), Some(TapSlot::Evicted))
    }

    /// Records the tap has not consumed yet (empty for detached or
    /// evicted taps).
    pub fn tap_pending(&self, tap: TapId) -> &[Change] {
        match self.taps.get(tap.0 as usize) {
            Some(TapSlot::Active { cursor, .. }) => &self.records[self.idx(*cursor)..],
            _ => &[],
        }
    }

    /// The tap's cursor — the seq of the next record it will observe —
    /// or `None` for detached/evicted taps. This is the **handoff
    /// snapshot anchor**: mutation and consumption are synchronous, so
    /// a row image read from the world while a tap's cursor sits at
    /// seq `S` is exactly the state-as-of-`S` for that row, and the
    /// image plus every record from `S` on replays to current state.
    /// `ShardRouter` uses this to stamp the full-row images it ships
    /// when an entity is handed to another node, and a warm standby
    /// uses it to know which tail it still has to replay.
    pub fn tap_cursor(&self, tap: TapId) -> Option<u64> {
        match self.taps.get(tap.0 as usize) {
            Some(TapSlot::Active { cursor, .. }) => Some(*cursor),
            _ => None,
        }
    }

    /// Move the tap's cursor forward to `seq` (clamped to the head of
    /// the stream). Cursors only move forward: acking below the
    /// current cursor is a no-op. Partial acks let a consumer that
    /// handled only a prefix of its pending window release exactly
    /// what it consumed.
    pub fn ack_to(&mut self, tap: TapId, seq: u64) {
        if let Some(TapSlot::Active { cursor, .. }) = self.taps.get_mut(tap.0 as usize) {
            let target = seq.clamp(*cursor, self.next);
            let drained = target - *cursor;
            *cursor = target;
            if let Some(m) = &self.metrics {
                m.note_tap_drain(tap.0 as usize, drained);
            }
            self.gc();
        }
    }

    /// One coherent reading of a tap's state (see [`TapStats`]).
    pub fn tap_stats(&self, tap: TapId) -> TapStats {
        match self.taps.get(tap.0 as usize) {
            Some(TapSlot::Active { cursor, pinned }) => TapStats {
                lag: self.next - *cursor,
                acked_seq: *cursor,
                pinned: *pinned,
                evicted: false,
                attached: true,
            },
            Some(TapSlot::Evicted) => TapStats {
                evicted: true,
                ..TapStats::default()
            },
            _ => TapStats::default(),
        }
    }

    /// Move the tap's cursor past everything recorded so far. Cursors
    /// only move forward: a tap never sees a record twice.
    pub fn ack(&mut self, tap: TapId) {
        self.ack_to(tap, self.next);
    }

    /// Drop every retained record (only sound with no consumers left).
    pub fn clear(&mut self) {
        self.records.clear();
        self.base = self.next;
        self.views_at = self.next;
    }

    /// Reclaim records every cursor has passed.
    fn gc(&mut self) {
        let mut min = self.views_at;
        for slot in &self.taps {
            if let TapSlot::Active { cursor, .. } = slot {
                min = min.min(*cursor);
            }
        }
        if min > self.base {
            self.records.drain(..(min - self.base) as usize);
            self.base = min;
            if let Some(m) = &self.metrics {
                m.retained.set(self.records.len() as i64);
            }
        }
    }
}

/// Buffer-local component-name table: the ops of a [`WriteBatch`] or a
/// [`crate::effect::EffectBuffer`] carry a small key into it instead of
/// a `String` each. A tick touches a handful of distinct components, so
/// lookup is a linear scan.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct NameTable(Vec<Box<str>>);

impl NameTable {
    /// Key of `name`, entered on first sight.
    pub fn key(&mut self, name: &str) -> u32 {
        let at = self.0.iter().position(|n| &**n == name).unwrap_or_else(|| {
            self.0.push(name.into());
            self.0.len() - 1
        });
        at as u32
    }

    /// The name behind a key this table issued.
    pub fn name(&self, key: u32) -> &str {
        &self.0[key as usize]
    }

    /// Every name, in key order.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.0.iter().map(|n| &**n)
    }

    /// `ranks()[key]` is the key's position in name order: comparing
    /// ranks compares the names.
    pub fn ranks(&self) -> Vec<u32> {
        let below = |name| self.0.iter().filter(|other| *other < name).count();
        self.0.iter().map(|name| below(name) as u32).collect()
    }
}

/// One queued write of a [`WriteBatch`]; `component` keys the batch's
/// [`NameTable`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum QueuedOp {
    Set {
        id: EntityId,
        component: u32,
        value: Value,
    },
    SetPos {
        id: EntityId,
        pos: Vec2,
    },
    Remove {
        id: EntityId,
        component: u32,
    },
    Despawn {
        id: EntityId,
    },
    Spawn {
        components: Vec<(String, Value)>,
        pos: Vec2,
    },
}

/// One primitive write of a [`WriteBatch`], as [`WriteBatch::ops`]
/// reports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BatchOp<'a> {
    /// Set a component value (non-`pos`; `pos` values route through
    /// [`BatchOp::SetPos`] semantics either way).
    Set {
        id: EntityId,
        component: &'a str,
        value: &'a Value,
    },
    /// Move an entity.
    SetPos { id: EntityId, pos: Vec2 },
    /// Remove a component from an entity.
    Remove { id: EntityId, component: &'a str },
    /// Despawn an entity.
    Despawn { id: EntityId },
    /// Spawn a fresh entity at a position with initial components
    /// (unknown components are auto-defined from the value's type, as
    /// template spawning does).
    Spawn {
        components: &'a [(String, Value)],
        pos: Vec2,
    },
}

/// An ordered batch of primitive writes committed in one call through
/// [`crate::world::World::apply_batch`]. Maximal runs of value writes
/// are regrouped by interned column id internally (per-slot order
/// preserved), so column resolution and index lookup are paid once per
/// component group instead of once per write — and a durability tap
/// sees the whole batch as one segment, i.e. one group-commit WAL
/// frame. Component names are kept once per batch, not per op.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WriteBatch {
    pub(crate) names: NameTable,
    pub(crate) ops: Vec<QueuedOp>,
}

impl WriteBatch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue a component write.
    pub fn set(&mut self, id: EntityId, component: &str, value: Value) {
        let component = self.names.key(component);
        self.ops.push(QueuedOp::Set {
            id,
            component,
            value,
        });
    }

    /// Queue a position write.
    pub fn set_pos(&mut self, id: EntityId, pos: Vec2) {
        self.ops.push(QueuedOp::SetPos { id, pos });
    }

    /// Queue a component removal.
    pub fn remove(&mut self, id: EntityId, component: &str) {
        let component = self.names.key(component);
        self.ops.push(QueuedOp::Remove { id, component });
    }

    /// Queue a despawn.
    pub fn despawn(&mut self, id: EntityId) {
        self.ops.push(QueuedOp::Despawn { id });
    }

    /// Queue a spawn.
    pub fn spawn(&mut self, components: Vec<(String, Value)>, pos: Vec2) {
        self.ops.push(QueuedOp::Spawn { components, pos });
    }

    /// Number of queued ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The queued ops, in order, component names resolved.
    pub fn ops(&self) -> Vec<BatchOp<'_>> {
        self.ops
            .iter()
            .map(|op| match op {
                QueuedOp::Set {
                    id,
                    component,
                    value,
                } => BatchOp::Set {
                    id: *id,
                    component: self.names.name(*component),
                    value,
                },
                QueuedOp::SetPos { id, pos } => BatchOp::SetPos { id: *id, pos: *pos },
                QueuedOp::Remove { id, component } => BatchOp::Remove {
                    id: *id,
                    component: self.names.name(*component),
                },
                QueuedOp::Despawn { id } => BatchOp::Despawn { id: *id },
                QueuedOp::Spawn { components, pos } => BatchOp::Spawn {
                    components,
                    pos: *pos,
                },
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(i: u64) -> ChangeOp {
        ChangeOp::Despawned {
            id: EntityId::from_bits(i),
            row: Vec::new(),
        }
    }

    #[test]
    fn taps_see_each_record_exactly_once() {
        let mut s = ChangeStream::default();
        let t = s.attach();
        s.record(0, op(1));
        s.record(0, op(2));
        assert_eq!(s.tap_pending(t).len(), 2);
        s.ack(t);
        assert!(s.tap_pending(t).is_empty());
        s.record(1, op(3));
        let pending = s.tap_pending(t);
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].seq, 2);
        assert_eq!(pending[0].tick, 1);
    }

    #[test]
    fn records_retained_until_slowest_consumer_acks() {
        let mut s = ChangeStream::default();
        let a = s.attach();
        let b = s.attach();
        s.record(0, op(1));
        s.mark_views_folded();
        s.ack(a);
        // b has not acked: the record must survive for it
        assert_eq!(s.tap_pending(b).len(), 1);
        s.ack(b);
        assert!(s.records.is_empty(), "all cursors passed: reclaimed");
    }

    #[test]
    fn detach_frees_the_slot_and_releases_records() {
        let mut s = ChangeStream::default();
        let a = s.attach();
        s.record(0, op(1));
        s.mark_views_folded();
        assert!(s.detach(a));
        assert!(!s.detach(a));
        assert!(s.records.is_empty());
        assert!(s.tap_pending(a).is_empty(), "detached tap reads nothing");
        // the slot is reused, cursor anchored at the current end
        let b = s.attach();
        assert_eq!(a.0, b.0);
        assert!(s.tap_pending(b).is_empty());
    }

    #[test]
    fn clones_do_not_inherit_taps() {
        let mut s = ChangeStream::default();
        let t = s.attach();
        s.record(0, op(1));
        let mut c = s.clone();
        assert!(!c.has_taps(), "a cloned cursor could never be acked");
        assert!(c.tap_pending(t).is_empty());
        // the view window survives the clone; gc can reclaim it
        assert_eq!(c.pending_views().len(), 1);
        c.mark_views_folded();
        assert!(c.records.is_empty());
        // the original tap is untouched
        assert_eq!(s.tap_pending(t).len(), 1);
    }

    #[test]
    fn seq_is_gap_free_across_gc() {
        let mut s = ChangeStream::default();
        let t = s.attach();
        for i in 0..5 {
            s.record(0, op(i));
        }
        s.mark_views_folded();
        s.ack(t);
        s.record(0, op(99));
        assert_eq!(s.tap_pending(t)[0].seq, 5);
        assert_eq!(s.next_seq(), 6);
    }

    /// ISSUE-5 satellite: a consumer that leaks its tap (drops the
    /// `TapId` without detaching) must not pin the record window
    /// forever once a retention limit is set — the laggard is evicted,
    /// the window stays bounded, and prompt consumers are untouched.
    #[test]
    fn leaked_tap_is_evicted_under_retention_limit() {
        let mut s = ChangeStream::default();
        s.set_retention(Some(16));
        let leaked = s.attach();
        let prompt = s.attach();
        s.mark_views_folded();
        for i in 0..200 {
            s.record(0, op(i));
            s.ack(prompt);
            s.mark_views_folded();
            assert!(s.retained() <= 17, "window must stay bounded");
        }
        assert!(s.tap_evicted(leaked), "laggard evicted");
        assert!(!s.tap_evicted(prompt), "prompt consumer unaffected");
        assert!(s.tap_pending(leaked).is_empty(), "evicted tap reads nothing");
        // eviction stops the eviction victim from counting as a consumer
        assert!(s.has_taps(), "prompt tap still live");
        // acking an evicted tap is a no-op; detaching frees the slot
        s.ack(leaked);
        assert!(s.tap_evicted(leaked));
        assert!(s.detach(leaked));
        assert!(!s.tap_evicted(leaked));
        let reused = s.attach();
        assert_eq!(reused.0, leaked.0, "slot is reusable after detach");
        assert!(!s.tap_evicted(reused));
    }

    /// ISSUE-6 satellite: retention must never evict the durability
    /// tap. A pinned laggard keeps its records — the window outgrows
    /// the limit instead — while unpinned laggards are still evicted.
    #[test]
    fn pinned_tap_survives_retention_pressure() {
        let mut s = ChangeStream::default();
        s.set_retention(Some(16));
        let durability = s.attach_pinned();
        let leaked = s.attach();
        s.mark_views_folded();
        for i in 0..200 {
            s.record(0, op(i));
            s.mark_views_folded();
        }
        assert!(s.tap_evicted(leaked), "unpinned laggard still evicted");
        assert!(!s.tap_evicted(durability), "pinned tap never evicted");
        assert!(s.tap_pinned(durability));
        assert!(!s.tap_pinned(leaked));
        assert_eq!(
            s.tap_pending(durability).len(),
            200,
            "every record retained for the pinned tap"
        );
        assert_eq!(s.tap_lag(durability), 200);
        // once the pinned consumer drains, the window reclaims
        s.ack(durability);
        assert_eq!(s.retained(), 0);
        assert_eq!(s.tap_lag(durability), 0);
    }

    #[test]
    fn pinned_tap_detach_frees_slot_and_clears_pin() {
        let mut s = ChangeStream::default();
        let t = s.attach_pinned();
        assert!(s.tap_pinned(t));
        assert!(s.detach(t));
        assert!(!s.tap_pinned(t));
        let u = s.attach();
        assert_eq!(u.0, t.0, "slot reused");
        assert!(!s.tap_pinned(u), "pin does not leak into the reused slot");
    }

    /// ISSUE-8 tentpole: the handoff-snapshot anchor. A tap's cursor
    /// names the seq a row image read "now" corresponds to, and
    /// partial acks release exactly the consumed prefix while the
    /// remainder stays pending.
    #[test]
    fn tap_cursor_and_partial_ack() {
        let mut s = ChangeStream::default();
        let t = s.attach();
        assert_eq!(s.tap_cursor(t), Some(0));
        for i in 0..6 {
            s.record(0, op(i));
        }
        s.mark_views_folded();
        assert_eq!(s.tap_cursor(t), Some(0));
        assert_eq!(s.tap_pending(t).len(), 6);
        // consume a prefix: the cursor advances, the tail stays pending
        s.ack_to(t, 4);
        assert_eq!(s.tap_cursor(t), Some(4));
        let pending = s.tap_pending(t);
        assert_eq!(pending.len(), 2);
        assert_eq!(pending[0].seq, 4);
        // the released prefix is reclaimed (no other consumers)
        assert_eq!(s.retained(), 2);
        // backwards and overshooting acks clamp
        s.ack_to(t, 1);
        assert_eq!(s.tap_cursor(t), Some(4), "cursors never move backward");
        s.ack_to(t, 100);
        assert_eq!(s.tap_cursor(t), Some(6), "clamped to the stream head");
        assert!(s.tap_pending(t).is_empty());
        // detached taps read no cursor
        s.detach(t);
        assert_eq!(s.tap_cursor(t), None);
    }

    #[test]
    fn evicted_tap_has_no_cursor() {
        let mut s = ChangeStream::default();
        let t = s.attach();
        s.mark_views_folded();
        for i in 0..50 {
            s.record(0, op(i));
        }
        s.set_retention(Some(8));
        assert!(s.tap_evicted(t));
        assert_eq!(s.tap_cursor(t), None);
        s.ack_to(t, 10); // no-op on an evicted tap
        assert!(s.tap_evicted(t));
    }

    #[test]
    fn lowering_retention_evicts_immediately() {
        let mut s = ChangeStream::default();
        let t = s.attach();
        s.mark_views_folded();
        for i in 0..50 {
            s.record(0, op(i));
        }
        s.mark_views_folded();
        assert_eq!(s.tap_pending(t).len(), 50);
        s.set_retention(Some(8));
        assert!(s.tap_evicted(t));
        assert!(s.retained() <= 8);
    }

    #[test]
    fn tap_within_retention_window_is_kept() {
        let mut s = ChangeStream::default();
        s.set_retention(Some(64));
        let t = s.attach();
        s.mark_views_folded();
        for i in 0..60 {
            s.record(0, op(i));
            s.mark_views_folded();
        }
        assert!(!s.tap_evicted(t), "lag 60 <= limit 64: kept");
        assert_eq!(s.tap_pending(t).len(), 60);
    }
}
