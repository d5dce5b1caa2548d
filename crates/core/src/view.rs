//! Continuous queries: standing views maintained incrementally from the
//! world's change stream.
//!
//! The paper's central pitch is that game computation is *declarative
//! set-at-a-time processing over a database* — yet every recurring
//! question an engine asks (invariant audits, aggro candidate sets,
//! trigger thresholds, replication interest) is classically answered by
//! re-running a full query each tick. This module gives those questions
//! the database answer: a **materialized view**. Callers register a
//! standing [`crate::query::Query`] with
//! [`crate::world::World::register_view`] — sugar for registering its
//! one-leaf plan — or any operator tree with
//! [`crate::world::World::register_view_plan`]; every write path then
//! commits a typed [`crate::change::Change`] record
//! (`entity, component, old → new`) to the world's change stream, and
//! [`crate::world::World::refresh_views`] (called automatically at tick
//! end) folds the pending segment into each view's materialized output.
//! Views are one consumer of that stream among several — durability and
//! replication tap the very same records (see [`crate::change`]).
//!
//! A view's output changes as a stream of [`ViewDelta`]s, recorded only
//! while a consumer is subscribed
//! ([`crate::world::World::subscribe_view`]): a view nobody reads keeps
//! nothing but its rows. Subscriptions are runtime state, like taps.
//!
//! There is one view engine: every slot of the `ViewRegistry` holds an
//! operator-tree view ([`crate::dvm`]). This module owns what is common
//! to all of them — handles, slots, the per-batch fold context, the
//! delta type and its subscriber log — and `dvm` owns the operators.
//!
//! ## Maintenance invariants
//!
//! * **Stream completeness** — every mutation of live-entity state flows
//!   through one of the world's primitive write paths (`set`, `set_pos`,
//!   `remove_component`, `despawn`, `spawn*`, `restore_entity`,
//!   `apply_batch`), and each of those commits exactly one row-op record
//!   while any view is registered. Effect application at tick end and
//!   snapshot/WAL recovery mutate the world through those same
//!   primitives, so they need no extra hooks.
//! * **Membership from current state** — a refresh re-evaluates the
//!   standing query against the *post-batch* world for every candidate
//!   entity, so stale or duplicate deltas can never corrupt a view; the
//!   log's old values exist for relevance filtering and observability,
//!   not as the source of truth.
//! * **Delta ordering determinism** — within one refresh batch,
//!   `entered`, `exited`, and `changed` are each sorted by row key and
//!   duplicate-free; successive batches append in refresh order. Two
//!   worlds with identical write histories deliver identical deltas.
//! * **Always incremental** — a refresh costs one membership evaluation
//!   per candidate, whatever the batch size, plus merges of sorted runs
//!   (one pass over an output whose membership moved; [`crate::dvm`],
//!   "Delta rules"). The only re-evaluation is the one a
//!   [`crate::world::World::retarget_view`] asks for.
//!
//! The equivalence contract — materialized rows ≡ `Query::run_scan` after
//! every refresh, under arbitrary interleavings of writes, removals,
//! despawns, template spawns, and ticks — is enforced by the property
//! tests in `tests/prop_core.rs`.

use std::sync::Arc;

use crate::change::{ChangeOp, ChangeStream};
use crate::dvm::{PlanView, ViewPlan};
use crate::entity::EntityId;
use crate::index::radix_sort;
use crate::intern::ComponentId;
use crate::world::World;

/// Handle to a registered standing view. Ids are scoped to the world
/// (lineage) that issued them and slots are never reused, so a handle
/// presented to the wrong world or outliving
/// [`crate::world::World::drop_view`] is detectably stale rather than
/// silently rebound to an unrelated view. Clones of a world share its
/// lineage: a handle taken before the clone reads either copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ViewId {
    pub(crate) world: u64,
    pub(crate) slot: u32,
}

impl ViewId {
    /// Slot index within the issuing world's registry — the stable
    /// address catalog records and recovery use
    /// ([`crate::world::World::view_id_at`] resolves it back).
    pub fn slot(self) -> u32 {
        self.slot
    }
}

/// Changes to a view's output, of its row type `R`: [`EntityId`],
/// `(left, right)` for a join (never `changed`), or
/// [`crate::dvm::GroupRow`] (an exited group with its last value, a
/// changed one with its new value). Within one refresh batch each list
/// ascends by row key without duplicates; batches append in order.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewDelta<R> {
    /// Rows that joined the view (predicate became true, entity spawned
    /// into it, pair formed, group appeared).
    pub entered: Vec<R>,
    /// Rows that left the view (predicate became false, component
    /// removed, entity despawned or excluded by a retarget).
    pub exited: Vec<R>,
    /// Rows that stayed but changed: a member with any component delta
    /// (subscribers shipping state want every touched member, not only
    /// predicate columns), or a group whose value moved.
    pub changed: Vec<R>,
}

impl<R> Default for ViewDelta<R> {
    fn default() -> Self {
        ViewDelta {
            entered: Vec::new(),
            exited: Vec::new(),
            changed: Vec::new(),
        }
    }
}

impl<R> ViewDelta<R> {
    /// True when nothing entered, exited, or changed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries held: `entered + exited + changed`.
    pub fn len(&self) -> usize {
        self.entered.len() + self.exited.len() + self.changed.len()
    }

    pub(crate) fn clear(&mut self) {
        self.entered.clear();
        self.exited.clear();
        self.changed.clear();
    }
}

/// An operator's deltas: the batch its last refresh produced — scratch,
/// cleared by every refresh — and, while a consumer is subscribed, the
/// log of batches it has not taken yet.
#[derive(Debug, Clone)]
pub(crate) struct Deltas<R> {
    pub(crate) batch: ViewDelta<R>,
    log: Option<ViewDelta<R>>,
}

impl<R> Default for Deltas<R> {
    fn default() -> Self {
        Deltas {
            batch: ViewDelta::default(),
            log: None,
        }
    }
}

impl<R: Clone> Deltas<R> {
    pub(crate) fn subscribed(&self) -> bool {
        self.log.is_some()
    }

    /// Start logging; a live subscription keeps its untaken entries.
    pub(crate) fn subscribe(&mut self) {
        self.log.get_or_insert_with(ViewDelta::default);
    }

    /// What accumulated since the last take; `None` when unsubscribed.
    pub(crate) fn take(&mut self) -> Option<ViewDelta<R>> {
        self.log.as_mut().map(std::mem::take)
    }

    /// Append the batch to the subscriber's log. A log holding more than
    /// `limit` entries is freed and the subscription ends. Returns the
    /// entries held.
    pub(crate) fn publish(&mut self, limit: Option<usize>) -> usize {
        let Some(log) = &mut self.log else { return 0 };
        log.entered.extend_from_slice(&self.batch.entered);
        log.exited.extend_from_slice(&self.batch.exited);
        log.changed.extend_from_slice(&self.batch.changed);
        let held = log.len();
        if limit.is_some_and(|n| held > n) {
            self.log = None;
            return 0;
        }
        held
    }
}

/// Maintenance counters for one view.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ViewStats {
    /// Refresh batches folded into this view, retargets included.
    pub refreshes: u64,
    /// Re-evaluations caused by a retarget (always 0 for join and
    /// group-aggregate views — they do not retarget).
    pub rescans: u64,
    /// Deltas inspected across all batches (relevant or not).
    pub deltas_seen: u64,
    /// Delta entries this view produced across all batches —
    /// `entered + exited + changed`, of rows, pairs or groups — the
    /// per-view delta-batch size the metrics catalog surfaces as
    /// `view.s{slot}.delta_rows`.
    pub delta_rows: u64,
}

/// Per-batch fold context shared by every view refresh: the entities a
/// change-stream segment touched, its structural (spawn/despawn) subset,
/// its per-component deltas (sorted by component then id, deduped), and
/// the row-op count.
#[derive(Clone, Copy)]
pub(crate) struct FoldCtx<'a> {
    pub(crate) touched: &'a [EntityId],
    pub(crate) structural: &'a [EntityId],
    pub(crate) comp_deltas: &'a [(ComponentId, EntityId)],
    pub(crate) batch_len: usize,
}

/// How many leading elements of `run` satisfy `below` (which holds on a
/// prefix): probes at doubling distances, then binary-searches the last
/// step — O(log n) for an answer n elements in.
pub(crate) fn gallop<T>(run: &[T], below: impl Fn(&T) -> bool) -> usize {
    let (mut lo, mut step) = (0, 1);
    while lo + step <= run.len() && below(&run[lo + step - 1]) {
        lo += step;
        step *= 2;
    }
    let hi = (lo + step - 1).min(run.len());
    lo + run[lo..hi].partition_point(&below)
}

/// Append the union of two ascending, duplicate-free runs to `out`.
pub(crate) fn union<T: Ord + Copy>(mut a: &[T], b: impl IntoIterator<Item = T>, out: &mut Vec<T>) {
    for y in b {
        let n = gallop(a, |x| *x < y);
        out.extend_from_slice(&a[..n]);
        a = a[n..].strip_prefix(&[y]).unwrap_or(&a[n..]);
        out.push(y);
    }
    out.extend_from_slice(a);
}

/// Append the intersection of two ascending runs to `out`. Each side
/// gallops to the other's head: O(short · log(long / short)).
pub(crate) fn intersect<T: Ord + Copy>(mut a: &[T], mut b: &[T], out: &mut Vec<T>) {
    while let (Some(&x), Some(&y)) = (a.first(), b.first()) {
        if x == y {
            out.push(x);
            (a, b) = (&a[1..], &b[1..]);
        } else if x < y {
            a = &a[gallop(a, |v| *v < y)..];
        } else {
            b = &b[gallop(b, |v| *v < x)..];
        }
    }
}

/// Append `old` with a membership diff applied to `out`: `entered` holds
/// elements absent from `old`, `exited` elements present in it; all
/// three ascend. O(d · log |old|) for d edits, plus the copy.
pub(crate) fn apply_diff<T: Ord + Copy>(
    mut old: &[T],
    entered: &[T],
    exited: &[T],
    out: &mut Vec<T>,
) {
    let mut entered = entered.iter().copied().peekable();
    for &gone in exited {
        let n = gallop(old, |v| *v < gone);
        debug_assert!(old.get(n) == Some(&gone), "an exited element is in the run");
        union(&old[..n], std::iter::from_fn(|| entered.next_if(|&e| e < gone)), out);
        old = &old[n + usize::from(old.get(n) == Some(&gone))..];
    }
    union(old, entered, out);
}

/// Sort entity-keyed items into `(key, id)` order and drop duplicates:
/// radix passes by generation, then key and slot, unless they ascend.
fn sort_run<T: Ord + Copy>(items: &mut Vec<T>, split: impl Fn(&T) -> (u32, EntityId)) {
    if !items.is_sorted() {
        radix_sort::<_, 4>(items, |t| split(t).1.generation() as u64);
        radix_sort::<_, 8>(items, |t| {
            let (key, id) = split(t);
            (key as u64) << 32 | id.index() as u64
        });
    }
    items.dedup();
}

/// The set of standing views a world maintains. Owned by
/// [`crate::world::World`]; callers go through the world's `*_view`
/// methods, which keep delta recording and consumption in lockstep.
#[derive(Debug, Clone, Default)]
pub(crate) struct ViewRegistry {
    /// Slot per ever-registered view; dropped views leave `None` so ids
    /// stay stable. Boxed, so a dead slot costs one word: recovery
    /// reserves as many slots as a catalog read from disk names.
    slots: Vec<Option<Box<PlanView>>>,
    active: usize,
    /// The last batch's [`FoldCtx`] runs, kept for their capacity.
    touched: Vec<EntityId>,
    structural: Vec<EntityId>,
    comp_deltas: Vec<(ComponentId, EntityId)>,
}

impl ViewRegistry {
    /// True when at least one view is registered (the world records
    /// deltas only then).
    #[inline]
    pub(crate) fn is_active(&self) -> bool {
        self.active > 0
    }

    /// Install a view at the next fresh slot.
    pub(crate) fn register(&mut self, view: PlanView) -> u32 {
        self.slots.push(Some(Box::new(view)));
        self.active += 1;
        self.slots.len() as u32 - 1
    }

    /// Total slots ever issued, including dropped ones (the catalog
    /// records this so recovery burns the same slots and stale handles
    /// stay stale).
    pub(crate) fn slot_count(&self) -> u32 {
        self.slots.len() as u32
    }

    /// Iterate `(slot, plan)` over live views in slot order (the
    /// catalog's view list).
    pub(crate) fn live_slots(&self) -> impl Iterator<Item = (u32, &ViewPlan)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (i as u32, v.plan())))
    }

    /// Pad the slot table with dead slots up to `slots` total — recovery
    /// reserves every slot the pre-crash world ever issued before
    /// re-registering the live ones.
    pub(crate) fn reserve_slots(&mut self, slots: u32) {
        if self.slots.len() < slots as usize {
            self.slots.resize_with(slots as usize, || None);
        }
    }

    /// Install a view at an exact slot (recovery); the slot table grows
    /// to hold it. Returns `false`, installing nothing, when the slot
    /// is live.
    pub(crate) fn install_at_slot(&mut self, slot: u32, view: PlanView) -> bool {
        self.reserve_slots(slot + 1);
        let entry = &mut self.slots[slot as usize];
        if entry.is_some() {
            return false;
        }
        *entry = Some(Box::new(view));
        self.active += 1;
        true
    }

    /// The view at a slot, if the slot is live.
    pub(crate) fn at_slot(&self, slot: u32) -> Option<&PlanView> {
        self.slots.get(slot as usize).and_then(|s| s.as_deref())
    }

    pub(crate) fn drop_view(&mut self, id: ViewId) -> bool {
        match self.slots.get_mut(id.slot as usize) {
            Some(slot @ Some(_)) => {
                *slot = None;
                self.active -= 1;
                true
            }
            _ => false,
        }
    }

    /// The live view behind `id`.
    ///
    /// # Panics
    /// On unknown or dropped ids (programmer error).
    pub(crate) fn get(&self, id: ViewId) -> &PlanView {
        self.at_slot(id.slot)
            .unwrap_or_else(|| panic!("view {id:?} is not registered"))
    }

    /// [`ViewRegistry::get`], mutably.
    pub(crate) fn get_mut(&mut self, id: ViewId) -> &mut PlanView {
        self.slots
            .get_mut(id.slot as usize)
            .and_then(|s| s.as_deref_mut())
            .unwrap_or_else(|| panic!("view {id:?} is not registered"))
    }

    /// Fold the stream's pending segment into every view. Only row ops
    /// participate (catalog and tick records pass through untouched —
    /// they exist for the stream's other taps). `world` is the
    /// post-segment state (the registry and the stream are temporarily
    /// moved out of the world while this runs, which is invisible here:
    /// refresh only reads columns, indexes, and the spatial grid). The
    /// stream also carries the metrics handle and the retention limit a
    /// subscriber's log obeys.
    pub(crate) fn apply(&mut self, world: &World, stream: &ChangeStream) {
        let changes = stream.pending_views();
        let (metrics, retention) = (stream.metrics().map(Arc::as_ref), stream.retention());
        if changes.is_empty() || self.active == 0 {
            return;
        }
        let (touched, structural) = (&mut self.touched, &mut self.structural);
        let comp_deltas = &mut self.comp_deltas;
        touched.clear();
        structural.clear();
        comp_deltas.clear();
        let mut row_ops = 0usize;
        for c in changes {
            match &c.op {
                ChangeOp::Spawned { id } | ChangeOp::Despawned { id, .. } => {
                    touched.push(*id);
                    structural.push(*id);
                    row_ops += 1;
                }
                ChangeOp::Set { id, component, .. }
                | ChangeOp::Removed { id, component, .. } => {
                    touched.push(*id);
                    comp_deltas.push((*component, *id));
                    row_ops += 1;
                }
                _ => {}
            }
        }
        if row_ops == 0 {
            return;
        }
        sort_run(touched, |&id| (0, id));
        sort_run(structural, |&id| (0, id));
        sort_run(comp_deltas, |&(c, id)| (c.0, id));
        let ctx = FoldCtx {
            touched,
            structural,
            comp_deltas,
            batch_len: row_ops,
        };
        for (slot, entry) in self.slots.iter_mut().enumerate() {
            if let Some(view) = entry {
                view.refresh(world, &ctx, slot, metrics, retention);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effect::{Effect, EffectBuffer, SpawnRequest};
    use crate::exec::TickExecutor;
    use crate::index::IndexKind;
    use crate::query::Query;
    use gamedb_content::{CmpOp, Value, ValueType};
    use gamedb_spatial::Vec2;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn world_with(components: &[(&str, ValueType)]) -> World {
        let mut w = World::new();
        for (n, t) in components {
            w.define_component(n, *t).unwrap();
        }
        w
    }

    fn wounded_query() -> Query {
        Query::select().filter("hp", CmpOp::Lt, Value::Float(50.0))
    }

    /// Register a rows view and subscribe to its deltas.
    fn subscribed(w: &mut World, q: Query) -> ViewId {
        let v = w.register_view(q);
        w.subscribe_view(v);
        v
    }

    /// Take a subscribed rows view's deltas.
    fn take(w: &mut World, v: ViewId) -> ViewDelta<EntityId> {
        w.take_view_delta(v).expect("subscribed")
    }

    #[test]
    fn register_materializes_existing_rows() {
        let mut w = world_with(&[("hp", ValueType::Float)]);
        let a = w.spawn_at(Vec2::ZERO);
        let b = w.spawn_at(Vec2::ZERO);
        w.set_f32(a, "hp", 10.0).unwrap();
        w.set_f32(b, "hp", 90.0).unwrap();
        let v = subscribed(&mut w, wounded_query());
        assert_eq!(w.view_rows(v), &[a]);
        assert!(w.view_contains(v, a));
        assert!(!w.view_contains(v, b));
        assert!(take(&mut w, v).is_empty(), "initial rows are not events");
    }

    #[test]
    fn writes_enter_and_exit_the_view() {
        let mut w = world_with(&[("hp", ValueType::Float)]);
        let a = w.spawn_at(Vec2::ZERO);
        let b = w.spawn_at(Vec2::ZERO);
        w.set_f32(a, "hp", 80.0).unwrap();
        w.set_f32(b, "hp", 80.0).unwrap();
        let v = subscribed(&mut w, wounded_query());
        assert!(w.view_rows(v).is_empty());

        w.set_f32(a, "hp", 20.0).unwrap(); // enters
        w.set_f32(b, "hp", 70.0).unwrap(); // stays out
        assert_eq!(w.pending_deltas(), 2);
        w.refresh_views();
        assert_eq!(w.pending_deltas(), 0);
        assert_eq!(w.view_rows(v), &[a]);
        let log = take(&mut w, v);
        assert_eq!(log.entered, vec![a]);
        assert!(log.exited.is_empty());

        w.set_f32(a, "hp", 60.0).unwrap(); // exits
        w.refresh_views();
        let log = take(&mut w, v);
        assert_eq!(log.exited, vec![a]);
        assert!(w.view_rows(v).is_empty());
    }

    #[test]
    fn changed_rows_reported_for_any_component() {
        let mut w = world_with(&[("hp", ValueType::Float), ("gold", ValueType::Int)]);
        let a = w.spawn_at(Vec2::ZERO);
        w.set_f32(a, "hp", 10.0).unwrap();
        let v = subscribed(&mut w, wounded_query());
        // a non-predicate component write on a member → changed, not a
        // membership event
        w.set(a, "gold", Value::Int(5)).unwrap();
        w.refresh_views();
        let log = take(&mut w, v);
        assert!(log.entered.is_empty() && log.exited.is_empty());
        assert_eq!(log.changed, vec![a]);
        // a predicate write that keeps membership → changed as well
        w.set_f32(a, "hp", 11.0).unwrap();
        w.refresh_views();
        assert_eq!(take(&mut w, v).changed, vec![a]);
    }

    #[test]
    fn removals_despawns_and_spawns_flow_through() {
        let mut w = world_with(&[("hp", ValueType::Float)]);
        let a = w.spawn_at(Vec2::ZERO);
        w.set_f32(a, "hp", 10.0).unwrap();
        let v = subscribed(&mut w, wounded_query());

        w.remove_component(a, "hp").unwrap();
        w.refresh_views();
        assert_eq!(take(&mut w, v).exited, vec![a]);

        let b = w.spawn_at(Vec2::ZERO);
        w.set_f32(b, "hp", 1.0).unwrap();
        w.refresh_views();
        assert_eq!(take(&mut w, v).entered, vec![b]);

        w.despawn(b);
        w.refresh_views();
        assert_eq!(take(&mut w, v).exited, vec![b]);
        assert!(w.view_rows(v).is_empty());
    }

    #[test]
    fn enter_and_exit_within_one_batch_cancel_out() {
        let mut w = world_with(&[("hp", ValueType::Float)]);
        let a = w.spawn_at(Vec2::ZERO);
        w.set_f32(a, "hp", 80.0).unwrap();
        let v = subscribed(&mut w, wounded_query());
        w.set_f32(a, "hp", 10.0).unwrap();
        w.set_f32(a, "hp", 90.0).unwrap();
        w.refresh_views();
        let log = take(&mut w, v);
        assert!(log.entered.is_empty(), "net membership did not change");
        assert!(log.exited.is_empty());
        assert!(w.view_rows(v).is_empty());
    }

    #[test]
    fn spatial_views_track_movement() {
        let mut w = World::new();
        let a = w.spawn_at(Vec2::new(0.0, 0.0));
        let b = w.spawn_at(Vec2::new(100.0, 0.0));
        let v = subscribed(&mut w, Query::select().within(Vec2::ZERO, 10.0));
        assert_eq!(w.view_rows(v), &[a]);
        w.set_pos(b, Vec2::new(5.0, 0.0)).unwrap();
        w.set_pos(a, Vec2::new(50.0, 0.0)).unwrap();
        w.refresh_views();
        let log = take(&mut w, v);
        assert_eq!(log.entered, vec![b]);
        assert_eq!(log.exited, vec![a]);
        assert_eq!(w.view_rows(v), &[b]);
    }

    #[test]
    fn retarget_rediffs_the_view() {
        let mut w = World::new();
        let a = w.spawn_at(Vec2::new(0.0, 0.0));
        let b = w.spawn_at(Vec2::new(100.0, 0.0));
        let v = subscribed(&mut w, Query::select().within(Vec2::ZERO, 10.0));
        assert_eq!(w.view_rows(v), &[a]);
        w.retarget_view(v, Vec2::new(100.0, 0.0), 10.0).unwrap();
        let log = take(&mut w, v);
        assert_eq!(log.entered, vec![b]);
        assert_eq!(log.exited, vec![a]);
        assert_eq!(w.view_stats(v).rescans, 1);
        assert_eq!(w.view_rows(v), &[b]);
    }

    #[test]
    fn ticks_refresh_views_automatically() {
        let mut w = world_with(&[("hp", ValueType::Float)]);
        let a = w.spawn_at(Vec2::ZERO);
        w.set_f32(a, "hp", 60.0).unwrap();
        let v = subscribed(&mut w, wounded_query());
        let drain: &crate::exec::System<'_> = &|id, _w, buf: &mut EffectBuffer| {
            buf.push(id, "hp", Effect::Add(-20.0));
        };
        TickExecutor::sequential().run_tick(&mut w, &[drain]).unwrap();
        // effect applied at tick end, view refreshed by the tick bump
        assert_eq!(w.pending_deltas(), 0);
        assert_eq!(take(&mut w, v).entered, vec![a]);

        // spawns queued through effects land in the view the same tick
        let spawner: &crate::exec::System<'_> = &|_id, _w, buf: &mut EffectBuffer| {
            buf.spawn(SpawnRequest {
                components: vec![("hp".into(), Value::Float(5.0))],
                pos: Vec2::ZERO,
            });
        };
        TickExecutor::sequential().run_tick(&mut w, &[spawner]).unwrap();
        let log = take(&mut w, v);
        assert_eq!(log.entered.len(), 1);
        assert_eq!(w.view_rows(v).len(), 2);
    }

    #[test]
    fn world_sized_batches_stay_incremental() {
        let mut w = world_with(&[("hp", ValueType::Float)]);
        w.create_index("hp", IndexKind::Sorted).unwrap();
        let ids: Vec<EntityId> = (0..500)
            .map(|i| {
                let e = w.spawn_at(Vec2::new(i as f32, 0.0));
                w.set_f32(e, "hp", 100.0).unwrap();
                e
            })
            .collect();
        let v = subscribed(&mut w, wounded_query());
        // every entity written in one batch: 500 candidates, folded
        for &e in &ids {
            w.set_f32(e, "hp", if e.index() % 100 == 0 { 10.0 } else { 99.0 }).unwrap();
        }
        w.refresh_views();
        let stats = w.view_stats(v);
        assert_eq!(stats.rescans, 0, "a fold never re-evaluates, whatever the batch size");
        assert_eq!(stats.delta_rows, 5, "entered + exited + changed");
        assert_eq!(take(&mut w, v).entered.len(), 5);
        assert_eq!(w.view_rows(v).to_vec(), wounded_query().run_scan(&w));
    }

    #[test]
    fn registration_and_import_seed_through_the_index() {
        let registry = gamedb_metrics::MetricsRegistry::new();
        let mut w = world_with(&[("hp", ValueType::Float)]);
        w.create_index("hp", IndexKind::Sorted).unwrap();
        for i in 0..50 {
            let e = w.spawn_at(Vec2::ZERO);
            w.set_f32(e, "hp", i as f32).unwrap();
        }
        w.attach_metrics(&registry);
        let q = Query::select().filter("hp", CmpOp::Lt, Value::Float(25.0));
        let v = w.register_view(q.clone());
        assert_eq!(w.view_rows(v).len(), 25);
        let cat = w.export_catalog();
        w.drop_view(v);
        w.import_catalog(&cat).unwrap();
        assert_eq!(w.view_rows(v).to_vec(), q.run_scan(&w));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("planner.attribute_index"), 2, "one probe per seeding");
        assert_eq!(snap.counter("planner.full_scan"), 0);
    }

    #[test]
    fn retarget_rewrites_the_stored_plan() {
        let mut w = world_with(&[("hp", ValueType::Float)]);
        let a = w.spawn_at(Vec2::new(100.0, 0.0));
        w.set_f32(a, "hp", 1.0).unwrap();
        // a filter above the scan: the disk moves in the leaf, the fused
        // query keeps the filter
        let plan = ViewPlan::new(
            crate::dvm::PlanNode::scan(Query::select().within(Vec2::ZERO, 10.0))
                .filtered(crate::query::Pred::new("hp", CmpOp::Lt, Value::Float(50.0))),
        );
        let v = w.register_view_plan(plan.clone()).unwrap();
        assert!(w.view_rows(v).is_empty());
        w.retarget_view(v, Vec2::new(100.0, 0.0), 10.0).unwrap();
        assert_eq!(w.view_rows(v), &[a]);
        let moved = Query::select().within(Vec2::new(100.0, 0.0), 10.0);
        assert_eq!(w.view_query(v), &moved.clone().filter("hp", CmpOp::Lt, Value::Float(50.0)));
        // catalog export and find_view see the current disk, not the
        // registered one
        assert_eq!(w.find_view(&plan), None);
        let current = w.view_plan(v).unwrap().clone();
        assert_eq!(w.find_view(&current), Some(v));
        assert_eq!(w.export_catalog().views, vec![(v.slot(), current)]);
        assert_eq!(w.view_stats(v).rescans, 1);
    }

    #[test]
    fn small_batches_stay_incremental() {
        let mut w = world_with(&[("hp", ValueType::Float)]);
        for i in 0..500 {
            let e = w.spawn_at(Vec2::new(i as f32, 0.0));
            w.set_f32(e, "hp", 100.0).unwrap();
        }
        let v = w.register_view(wounded_query());
        let victim = w.entities().next().unwrap();
        w.set_f32(victim, "hp", 1.0).unwrap();
        w.refresh_views();
        let stats = w.view_stats(v);
        assert_eq!(stats.refreshes, 1);
        assert_eq!(stats.rescans, 0, "one delta must not rescan 500 rows");
        assert_eq!(w.view_rows(v), &[victim]);
    }

    #[test]
    fn irrelevant_component_writes_do_not_reevaluate() {
        let mut w = world_with(&[("hp", ValueType::Float), ("gold", ValueType::Int)]);
        let a = w.spawn_at(Vec2::ZERO);
        w.set_f32(a, "hp", 90.0).unwrap();
        let v = subscribed(&mut w, wounded_query());
        w.set(a, "gold", Value::Int(1)).unwrap();
        w.refresh_views();
        let log = take(&mut w, v);
        assert!(log.is_empty(), "non-member touched by irrelevant write: no events");
        let _ = v;
    }

    #[test]
    fn drop_view_stops_recording_and_invalidates_handle() {
        let mut w = world_with(&[("hp", ValueType::Float)]);
        let v = w.register_view(wounded_query());
        assert!(w.has_view(v));
        assert!(w.drop_view(v));
        assert!(!w.has_view(v));
        assert!(!w.drop_view(v));
        let e = w.spawn_at(Vec2::ZERO);
        w.set_f32(e, "hp", 1.0).unwrap();
        assert_eq!(w.pending_deltas(), 0, "no views ⇒ no delta recording");
        // a second registration gets a fresh id
        let v2 = w.register_view(wounded_query());
        assert_ne!(v, v2);
        assert_eq!(w.view_rows(v2), &[e]);
    }

    #[test]
    fn slot_reuse_does_not_resurrect_membership() {
        let mut w = world_with(&[("hp", ValueType::Float)]);
        let a = w.spawn_at(Vec2::ZERO);
        w.set_f32(a, "hp", 1.0).unwrap();
        let v = subscribed(&mut w, wounded_query());
        assert_eq!(w.view_rows(v), &[a]);
        w.despawn(a);
        let b = w.spawn(); // reuses a's slot, bumped generation
        assert_eq!(b.index(), a.index());
        w.refresh_views();
        let log = take(&mut w, v);
        assert_eq!(log.exited, vec![a]);
        assert!(w.view_rows(v).is_empty(), "new tenant has no hp");
    }

    /// There is no peek: a subscriber's batches wait, appended in
    /// refresh order, until a take consumes them.
    #[test]
    fn changelog_peek_does_not_consume() {
        let mut w = world_with(&[("hp", ValueType::Float)]);
        let v = subscribed(&mut w, wounded_query());
        let a = w.spawn_at(Vec2::ZERO);
        w.set_f32(a, "hp", 1.0).unwrap();
        w.refresh_views();
        w.set_f32(a, "hp", 2.0).unwrap();
        w.refresh_views();
        let log = take(&mut w, v);
        assert_eq!((log.entered, log.changed), (vec![a], vec![a]), "both batches wait");
        assert!(take(&mut w, v).is_empty(), "take clears the log");
    }

    #[test]
    fn foreign_view_handles_are_rejected() {
        let mut w1 = world_with(&[("hp", ValueType::Float)]);
        let mut w2 = world_with(&[("hp", ValueType::Float)]);
        let v1 = w1.register_view(wounded_query());
        // w2 registers a view occupying the same slot index
        let v2 = w2.register_view(Query::select());
        let e = w2.spawn_at(Vec2::ZERO);
        w2.refresh_views();
        assert_eq!(w2.view_rows(v2), &[e]);
        // a w1 handle must never resolve against w2's slot 0
        assert!(!w2.has_view(v1));
        assert!(!w2.drop_view(v1));
        assert!(
            std::panic::catch_unwind(|| w2.view_rows(v1).len()).is_err(),
            "foreign handle must panic, not read an unrelated view"
        );
        // a clone shares the lineage: pre-clone handles read the copy
        let clone = w1.clone();
        assert!(clone.has_view(v1));
    }

    #[test]
    fn view_query_is_inspectable() {
        let mut w = world_with(&[("hp", ValueType::Float)]);
        let q = wounded_query();
        let v = w.register_view(q.clone());
        assert_eq!(w.view_query(v), &q);
    }

    #[test]
    fn log_len_gauge_counts_entries_until_taken() {
        let registry = gamedb_metrics::MetricsRegistry::new();
        let mut w = world_with(&[("hp", ValueType::Float)]);
        w.attach_metrics(&registry);
        let v = w.register_view(wounded_query());
        let log_len = || registry.snapshot().gauge(&format!("view.s{}.log_len", v.slot()));
        let a = w.spawn_at(Vec2::ZERO);
        w.set_f32(a, "hp", 10.0).unwrap();
        w.refresh_views();
        assert_eq!(log_len(), 0, "unsubscribed: nothing held");
        w.subscribe_view(v);
        w.set_f32(a, "hp", 9.0).unwrap();
        w.refresh_views();
        assert_eq!(log_len(), 1, "a changed");
        w.set_f32(a, "hp", 11.0).unwrap();
        w.refresh_views();
        assert_eq!(log_len(), 2, "undrained: changed twice");
        take(&mut w, v);
        w.set_f32(a, "hp", 90.0).unwrap();
        w.refresh_views();
        assert_eq!(log_len(), 1, "taken, then a exited");
    }

    /// A subscriber that stops taking is dropped once its untaken
    /// entries outgrow the tap retention limit: the log is freed, the
    /// next take says so, and the view's rows are untouched.
    #[test]
    fn stalled_subscriber_is_dropped_past_the_retention_limit() {
        let registry = gamedb_metrics::MetricsRegistry::new();
        let mut w = world_with(&[("hp", ValueType::Float)]);
        w.attach_metrics(&registry);
        let ids: Vec<EntityId> = (0..12).map(|_| w.spawn_at(Vec2::ZERO)).collect();
        let v = subscribed(&mut w, wounded_query());
        w.set_tap_retention(Some(10));
        let log_len = || registry.snapshot().gauge(&format!("view.s{}.log_len", v.slot()));
        // each batch moves four rows into the view or out of it
        let batch = |w: &mut World, round: usize| {
            for &e in &ids[4 * (round % 3)..][..4] {
                w.set_f32(e, "hp", if round < 3 { 10.0 } else { 90.0 }).unwrap();
            }
            w.refresh_views();
        };
        batch(&mut w, 0);
        assert_eq!(take(&mut w, v).entered, ids[..4], "a taking subscriber stays");
        batch(&mut w, 1);
        batch(&mut w, 2);
        assert_eq!(log_len(), 8, "two batches wait within the limit");
        batch(&mut w, 3);
        assert_eq!(log_len(), 0, "twelve entries outgrew ten: the log is freed");
        assert_eq!(w.take_view_delta::<EntityId>(v), None, "the subscriber is told");
        let plan = w.view_plan(v).unwrap().clone();
        assert_eq!(w.view_output(v), plan.evaluate(&w).unwrap());
        assert_eq!(w.view_rows(v), &ids[4..]);
        // subscribing again starts from now
        w.subscribe_view(v);
        batch(&mut w, 4);
        assert_eq!(take(&mut w, v).exited, ids[4..8]);
    }

    /// The ascending, duplicate-free run of `xs`.
    fn run<T: Ord + Copy>(xs: impl IntoIterator<Item = T>) -> Vec<T> {
        xs.into_iter().collect::<BTreeSet<_>>().into_iter().collect()
    }

    /// `union`, `intersect` and `apply_diff` over two runs, either way
    /// round, equal their `BTreeSet` operations.
    fn set_ops_agree<T: Ord + Copy + std::fmt::Debug>(a: &[T], b: &[T]) -> Result<(), TestCaseError> {
        let (sa, sb): (BTreeSet<T>, BTreeSet<T>) =
            (a.iter().copied().collect(), b.iter().copied().collect());
        let both: Vec<T> = sa.intersection(&sb).copied().collect();
        let (a_only, b_only): (Vec<T>, Vec<T>) =
            (sa.difference(&sb).copied().collect(), sb.difference(&sa).copied().collect());
        let merged = |f: &dyn Fn(&mut Vec<T>)| {
            let mut out = Vec::new();
            f(&mut out);
            out
        };
        for (x, y) in [(a, b), (b, a)] {
            let all: Vec<T> = sa.union(&sb).copied().collect();
            prop_assert_eq!(merged(&|o| union(x, y.iter().copied(), o)), all);
            prop_assert_eq!(merged(&|o| intersect(x, y, o)), both.clone());
        }
        // a → b: b's own elements enter, a's own leave; then a → a ∖ b
        prop_assert_eq!(merged(&|o| apply_diff(a, &b_only, &a_only, o)), b.to_vec());
        prop_assert_eq!(merged(&|o| apply_diff(a, &[], &both, o)), a_only);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::default())]

        /// The sorted-run helpers every view refresh merges with, held
        /// to `BTreeSet` set operations: overlapping runs, an empty run,
        /// disjoint runs (one wholly below the other, and interleaved),
        /// one element against 100,000 (present, absent, before the
        /// first and past the last — the gallops' long strides), and
        /// runs of `(EntityId, EntityId)` pairs, the join's output.
        #[test]
        fn sorted_run_helpers_equal_set_ops(
            xs in proptest::collection::vec(0u32..400, 0..120),
            ys in proptest::collection::vec(0u32..400, 0..120),
            lone in 0u32..200_001,
            ps in proptest::collection::vec((0u32..6, 0u32..3, 0u32..6, 0u32..2), 0..60),
            qs in proptest::collection::vec((0u32..6, 0u32..3, 0u32..6, 0u32..2), 0..60),
        ) {
            let (a, b) = (run(xs.iter().copied()), run(ys.iter().copied()));
            set_ops_agree(&a, &b)?;
            set_ops_agree(&a, &[])?;
            set_ops_agree(&a, &run(ys.iter().map(|y| y + 400)))?;
            set_ops_agree(&run(xs.iter().map(|x| 2 * x)), &run(ys.iter().map(|y| 2 * y + 1)))?;
            let evens: Vec<u32> = (0..100_000).map(|i| 2 * i).collect();
            set_ops_agree(&[lone], &evens)?;
            let pairs = |v: &[(u32, u32, u32, u32)]| {
                run(v.iter().map(|&(l, lg, r, rg)| (EntityId::new(l, lg), EntityId::new(r, rg))))
            };
            set_ops_agree(&pairs(&ps), &pairs(&qs))?;
        }
    }
}
