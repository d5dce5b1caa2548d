//! The world: a columnar entity database with a spatial index over
//! positions and secondary indexes over attribute columns.
//!
//! "Just as with a database, games require that their data — which is
//! often the state of the entire world — be in a consistent state." The
//! [`World`] is that database: entities are rows, components are typed
//! columns, the reserved `pos` column is mirrored into a spatial index
//! so proximity queries (`within`) are O(local density), not O(n), and
//! any other column can carry a [`SecondaryIndex`] (see
//! [`World::create_index`]) so attribute predicates are O(matches), not
//! O(entities). Every write path keeps both index families exact — the
//! maintenance invariants are listed in [`crate::index`].

use std::fmt;
use std::sync::Arc;

use gamedb_content::{ResolvedTemplate, Value, ValueType};
use gamedb_metrics::MetricsRegistry;
use gamedb_spatial::{SpatialIndex, UniformGrid, Vec2};

use crate::change::{
    Change, ChangeOp, ChangeStream, NameTable, QueuedOp, TapId, TapStats, WriteBatch,
};
use crate::metrics::CoreMetrics;
use crate::column::Column;
use crate::dvm::{PlanView, ViewPlan};
use crate::entity::{EntityAllocator, EntityId};
use crate::index::{IndexKind, SecondaryIndex};
use crate::intern::{ComponentId, ComponentInterner};
use crate::query::Query;
use crate::view::{ViewDelta, ViewId, ViewRegistry, ViewStats};
use gamedb_content::CmpOp;

mod bulk;
pub use bulk::BulkLoader;

/// Name of the reserved position component.
pub const POS: &str = "pos";

/// Interned id of the reserved position component — always the first
/// component a world interns, so consumers matching position records in
/// the change stream can compare against a constant.
pub const POS_ID: ComponentId = ComponentId::POS;

/// Cell size of the position grid, in world units.
const GRID_CELL: f32 = 16.0;

/// Errors from world operations.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    UnknownComponent(String),
    DuplicateComponent(String),
    TypeMismatch {
        component: String,
        expected: ValueType,
        got: ValueType,
    },
    DeadEntity(EntityId),
    /// The reserved `pos` component must be `vec2`.
    ReservedComponent(String),
    /// An index already exists on the component.
    DuplicateIndex(String),
    /// Catalog import found a live view at the slot with a different
    /// standing query (recovery would silently rebind subscribers).
    ViewSlotConflict(u32),
    /// An operator tree failed structural validation (nesting, projected
    /// columns, aggregate support, depth bound) — see [`crate::dvm`].
    PlanInvalid(&'static str),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::UnknownComponent(c) => write!(f, "unknown component {c:?}"),
            CoreError::DuplicateComponent(c) => write!(f, "component {c:?} already defined"),
            CoreError::TypeMismatch {
                component,
                expected,
                got,
            } => write!(f, "component {component:?} is {expected}, got {got}"),
            CoreError::DeadEntity(id) => write!(f, "entity {id} is not alive"),
            CoreError::ReservedComponent(c) => {
                write!(f, "component {c:?} is reserved (pos must be vec2)")
            }
            CoreError::DuplicateIndex(c) => {
                write!(f, "component {c:?} already has a secondary index")
            }
            CoreError::ViewSlotConflict(s) => {
                write!(f, "view slot {s} holds a different standing query")
            }
            CoreError::PlanInvalid(why) => write!(f, "invalid view plan: {why}"),
        }
    }
}

impl std::error::Error for CoreError {}

/// The game world database.
#[derive(Debug, Clone)]
pub struct World {
    alloc: EntityAllocator,
    /// One column per interned component id, in definition order
    /// (`columns[id.index()]` is the column `interner.name(id)` names).
    columns: Vec<Column>,
    /// Component name ↔ id table, shared by clone lineage. Ids appear in
    /// change records, WAL frames, and replication segments; names are
    /// resolved here.
    interner: ComponentInterner,
    spatial: UniformGrid,
    /// Secondary attribute indexes, one optional slot per component id.
    indexes: Vec<Option<SecondaryIndex>>,
    /// Standing views (continuous queries) maintained from the delta log.
    views: ViewRegistry,
    /// Lineage id stamped into every [`ViewId`] this world issues, so a
    /// handle presented to an unrelated world is rejected instead of
    /// silently reading whatever occupies the same slot there. Clones
    /// share the lineage (a pre-clone handle reads either copy).
    world_id: u64,
    /// The ordered change stream every mutation commits through.
    /// Recorded only while a consumer exists (a standing view or an
    /// attached tap); folded into views by [`World::refresh_views`],
    /// read by taps via [`World::tap_pending`].
    changes: ChangeStream,
    /// Expand-only bounding box of every position ever set — a cheap,
    /// conservative stand-in for exact bounds in the planner's density
    /// model (despawns don't shrink it; distributions in games rarely
    /// shrink either).
    bounds: Option<(Vec2, Vec2)>,
    tick: u64,
}

impl Default for World {
    fn default() -> Self {
        Self::new()
    }
}

impl World {
    /// Create an empty world.
    pub fn new() -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static WORLD_IDS: AtomicU64 = AtomicU64::new(1);
        let mut interner = ComponentInterner::default();
        let pos_id = interner.intern(POS);
        debug_assert_eq!(pos_id, POS_ID);
        World {
            alloc: EntityAllocator::new(),
            columns: vec![Column::new(ValueType::Vec2)],
            interner,
            spatial: UniformGrid::new(GRID_CELL),
            indexes: Vec::new(),
            views: ViewRegistry::default(),
            changes: ChangeStream::default(),
            world_id: WORLD_IDS.fetch_add(1, Ordering::Relaxed),
            bounds: None,
            tick: 0,
        }
    }

    // ---- schema ----

    /// Define a component column. `pos` is predefined and reserved.
    /// The name is interned: the new column's [`ComponentId`] is the
    /// next id in definition order, and a
    /// [`ChangeOp::ComponentDefined`] catalog record is committed while
    /// a tap is attached (WAL redo re-interns at the exact id).
    pub fn define_component(&mut self, name: &str, ty: ValueType) -> Result<(), CoreError> {
        if name == POS {
            return Err(CoreError::ReservedComponent(name.to_string()));
        }
        if self.interner.get(name).is_some() {
            return Err(CoreError::DuplicateComponent(name.to_string()));
        }
        let id = self.interner.intern(name);
        self.columns.push(Column::new(ty));
        debug_assert_eq!(id.index() + 1, self.columns.len());
        self.record_catalog(ChangeOp::ComponentDefined {
            component: id,
            name: name.to_string(),
            ty,
        });
        Ok(())
    }

    /// Redo-side [`World::define_component`]: define `name` at exactly
    /// `id` (recovery replays `Define` records in stream order, so ids
    /// land where the pre-crash world put them). Idempotent for an
    /// identical existing definition; a conflicting name, id, or type
    /// is an error. Returns whether a column was created.
    pub fn ensure_component_at(
        &mut self,
        id: ComponentId,
        name: &str,
        ty: ValueType,
    ) -> Result<bool, CoreError> {
        if let Some(existing) = self.interner.get(name) {
            return if existing == id && self.columns[existing.index()].ty() == ty {
                Ok(false)
            } else {
                Err(CoreError::DuplicateComponent(name.to_string()))
            };
        }
        if id.index() != self.columns.len() {
            return Err(CoreError::UnknownComponent(format!(
                "define {name:?} at {id} out of order (next id is #{})",
                self.columns.len()
            )));
        }
        self.define_component(name, ty)?;
        Ok(true)
    }

    /// Component type by name.
    pub fn component_type(&self, name: &str) -> Option<ValueType> {
        self.interner.get(name).map(|id| self.columns[id.index()].ty())
    }

    /// Interned id of a component name, if defined.
    #[inline]
    pub fn component_id(&self, name: &str) -> Option<ComponentId> {
        self.interner.get(name)
    }

    /// Name of an interned component id, if this lineage issued it.
    #[inline]
    pub fn component_name(&self, id: ComponentId) -> Option<&str> {
        self.interner.name(id)
    }

    /// Number of defined components (`pos` included) — ids are dense in
    /// `0..component_count()`.
    #[inline]
    pub fn component_count(&self) -> usize {
        self.interner.len()
    }

    /// Iterate `(component name, type)` in name order.
    pub fn schema(&self) -> impl Iterator<Item = (&str, ValueType)> {
        self.interner
            .iter_by_name()
            .map(|(n, id)| (n, self.columns[id.index()].ty()))
    }

    /// Iterate `(id, name, type)` in id (definition) order — the layout
    /// the snapshot format persists so recovery restores the interner
    /// table verbatim.
    pub fn schema_by_id(&self) -> impl Iterator<Item = (ComponentId, &str, ValueType)> {
        self.interner
            .iter_by_id()
            .map(|(id, n)| (id, n, self.columns[id.index()].ty()))
    }

    /// Direct column access for scans (None for unknown components).
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.interner.get(name).map(|id| &self.columns[id.index()])
    }

    /// [`World::column`] addressed by interned id.
    #[inline]
    pub fn column_by_id(&self, id: ComponentId) -> Option<&Column> {
        self.columns.get(id.index())
    }

    // ---- secondary indexes ----

    /// Create a secondary index on a component, built from the column
    /// in one pass (`SecondaryIndex::build`) and maintained through
    /// every subsequent write. `pos` is served by the spatial index and
    /// cannot carry one.
    ///
    /// Pick [`IndexKind::Hash`] for identity-like equality lookups and
    /// [`IndexKind::Sorted`] when range predicates matter; the planner
    /// ([`crate::planner::plan`]) weighs either against a scan using the
    /// index's exact NDV and bounds.
    pub fn create_index(&mut self, component: &str, kind: IndexKind) -> Result<(), CoreError> {
        let cid = self.resolve(component)?;
        self.create_index_by_id(cid, kind)
    }

    /// [`World::create_index`] addressed by interned id.
    fn create_index_by_id(&mut self, cid: ComponentId, kind: IndexKind) -> Result<(), CoreError> {
        let idx = self.build_index(cid, kind)?;
        let idx = idx.ok_or_else(|| CoreError::DuplicateIndex(self.name_of(cid)))?;
        self.install_index(cid, idx);
        Ok(())
    }

    /// The index `kind` on `cid` built from its column in one pass, or
    /// `None` when an identical one is in place; one of another kind is
    /// an error, as is one on `pos`. Reads only, so it runs as a job.
    fn build_index(
        &self,
        cid: ComponentId,
        kind: IndexKind,
    ) -> Result<Option<SecondaryIndex>, CoreError> {
        match self.index_of(cid) {
            Some(idx) if idx.kind() == kind => Ok(None),
            Some(_) => Err(CoreError::DuplicateIndex(self.name_of(cid))),
            None if cid == POS_ID => Err(CoreError::ReservedComponent(self.name_of(cid))),
            None => Ok(Some(SecondaryIndex::build(
                kind,
                &self.columns[cid.index()],
                self.alloc.iter_live(),
            ))),
        }
    }

    fn install_index(&mut self, cid: ComponentId, idx: SecondaryIndex) {
        if self.indexes.len() <= cid.index() {
            self.indexes.resize_with(cid.index() + 1, || None);
        }
        let kind = idx.kind();
        self.indexes[cid.index()] = Some(idx);
        self.record_catalog(ChangeOp::CreateIndex {
            component: cid,
            kind,
        });
    }

    fn name_of(&self, cid: ComponentId) -> String {
        self.interner.name(cid).unwrap_or_default().to_string()
    }

    /// Drop the index on a component; returns whether one existed.
    pub fn drop_index(&mut self, component: &str) -> bool {
        self.interner
            .get(component)
            .is_some_and(|cid| self.drop_index_by_id(cid))
    }

    /// [`World::drop_index`] addressed by interned id.
    pub fn drop_index_by_id(&mut self, cid: ComponentId) -> bool {
        let existed = self
            .indexes
            .get_mut(cid.index())
            .and_then(Option::take)
            .is_some();
        if existed {
            self.record_catalog(ChangeOp::DropIndex { component: cid });
        }
        existed
    }

    /// The live index slot for an id, if any.
    #[inline]
    fn index_of(&self, id: ComponentId) -> Option<&SecondaryIndex> {
        self.indexes.get(id.index()).and_then(Option::as_ref)
    }

    /// The index on a component, if any.
    pub fn index_on(&self, component: &str) -> Option<&SecondaryIndex> {
        self.index_of(self.interner.get(component)?)
    }

    /// The index on a component and the column it indexes, which a
    /// probe reads its keys through.
    pub(crate) fn indexed(&self, component: &str) -> Option<(&SecondaryIndex, &Column)> {
        let cid = self.interner.get(component)?;
        Some((self.index_of(cid)?, &self.columns[cid.index()]))
    }

    /// Iterate `(component, kind)` over existing indexes, in name order.
    pub fn indexed_components(&self) -> impl Iterator<Item = (&str, IndexKind)> {
        self.interner
            .iter_by_name()
            .filter_map(|(n, id)| self.index_of(id).map(|ix| (n, ix.kind())))
    }

    /// True when an index on `component` can answer `op` probes.
    pub fn index_supports(&self, component: &str, op: CmpOp) -> bool {
        self.index_on(component).is_some_and(|idx| idx.supports(op))
    }

    /// Probe the index on `component` for entities satisfying
    /// `stored op value`, appending id-sorted matches to `out`. Returns
    /// `false` (out untouched) when no index can serve the probe — the
    /// caller falls back to a scan.
    pub fn index_probe(
        &self,
        component: &str,
        op: CmpOp,
        value: &Value,
        out: &mut Vec<EntityId>,
    ) -> bool {
        let slots = &self.alloc;
        self.indexed(component).is_some_and(|(idx, col)| {
            idx.probe(col, op, value, None, &mut |sel| out.extend(sel.iter().map(|&s| slots.id_at(s))))
                .is_some()
        })
    }

    // ---- the change stream ----
    //
    // Every mutation below funnels through one commit discipline: do the
    // write, then append a typed record to the stream while any consumer
    // (standing view or tap) is attached. See [`crate::change`] for the
    // record taxonomy and ordering guarantees.

    /// True while row ops must be recorded (a view or a tap is live).
    #[inline]
    fn recording(&self) -> bool {
        self.views.is_active() || self.changes.has_taps()
    }

    #[inline]
    fn record(&mut self, op: ChangeOp) {
        self.changes.record(self.tick, op);
    }

    /// Record a catalog/tick op. Views do not consume these, so they
    /// are only recorded while a tap is attached.
    #[inline]
    fn record_catalog(&mut self, op: ChangeOp) {
        if self.changes.has_taps() {
            self.changes.record(self.tick, op);
        }
    }

    /// Attach a change-stream tap: from here on, every mutation of this
    /// world is recorded, and [`World::tap_pending`] returns the records
    /// the tap has not consumed yet. This is how the persistence layer's
    /// durability and the replicator's stream shipping observe *every*
    /// write path — scripted ticks and effect batches included — without
    /// mirroring the write API.
    pub fn attach_tap(&mut self) -> TapId {
        self.changes.attach()
    }

    /// Attach a **pinned** change-stream tap: identical to
    /// [`World::attach_tap`] except the retention policy
    /// ([`World::set_tap_retention`]) never evicts it. Pinning is for
    /// consumers whose missed records are data loss — the durability
    /// tap a `WalStore` drains. A pinned laggard keeps the record
    /// window alive past the retention limit; bounding it is the
    /// consumer's job (commit cadence + backpressure), not the
    /// stream's.
    pub fn attach_tap_pinned(&mut self) -> TapId {
        self.changes.attach_pinned()
    }

    /// True when `tap` is attached and pinned (exempt from retention
    /// eviction).
    pub fn tap_pinned(&self, tap: TapId) -> bool {
        self.changes.tap_pinned(tap)
    }

    /// How many records `tap` is lagging behind the head of the change
    /// stream (0 for detached or evicted taps).
    pub fn tap_lag(&self, tap: TapId) -> u64 {
        self.changes.tap_lag(tap)
    }

    /// One coherent reading of a tap's state: lag, acked sequence,
    /// pinned flag, and whether it is evicted or attached at all —
    /// everything [`World::tap_lag`] / [`World::tap_pinned`] /
    /// [`World::tap_evicted`] report, taken at one instant.
    pub fn tap_stats(&self, tap: TapId) -> TapStats {
        self.changes.tap_stats(tap)
    }

    // ---- instrumentation ----

    /// Attach a metrics registry: from here on the engine reports
    /// counters, gauges, and histograms for the change stream, standing
    /// views, and the query planner into `registry` (catalog in
    /// ARCHITECTURE.md § Observability). Purely observational — a
    /// seeded workload is bit-identical with and without metrics.
    /// Replaces any previously attached registry. Like taps, clones of
    /// this world do **not** inherit the attachment.
    pub fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        self.changes
            .set_metrics(Some(Arc::new(CoreMetrics::new(registry))));
    }

    /// Detach the metrics registry attached by
    /// [`World::attach_metrics`]; reporting stops immediately.
    pub fn detach_metrics(&mut self) {
        self.changes.set_metrics(None);
    }

    /// The cached metric handles, when a registry is attached. Hot
    /// paths that only hold `&World` (queries, view refreshes) report
    /// through this.
    #[inline]
    pub(crate) fn core_metrics(&self) -> Option<&Arc<CoreMetrics>> {
        self.changes.metrics()
    }

    /// Detach a tap; returns whether it was attached. Records it had not
    /// consumed are released to the other consumers' pace.
    pub fn detach_tap(&mut self, tap: TapId) -> bool {
        let detached = self.changes.detach(tap);
        if !self.recording() {
            self.changes.clear();
        }
        detached
    }

    /// The ordered records `tap` has not consumed yet. Consume with
    /// [`World::ack_tap`]; a tap never sees a record twice.
    pub fn tap_pending(&self, tap: TapId) -> &[Change] {
        self.changes.tap_pending(tap)
    }

    /// Advance `tap` past everything recorded so far, releasing records
    /// all consumers have passed.
    pub fn ack_tap(&mut self, tap: TapId) {
        if !self.views.is_active() {
            // no views to fold: their cursor must not hold the window
            self.changes.mark_views_folded();
        }
        self.changes.ack(tap);
    }

    /// The tap's cursor: seq of the next record it will observe
    /// (`None` for detached or evicted taps). Because mutation and
    /// consumption are synchronous, a row image read while the cursor
    /// sits at seq `S` is exactly the state-as-of-`S` — the anchor a
    /// cross-shard router stamps on the full-row snapshot it ships
    /// when an entity is handed to another node, and the position a
    /// warm standby measures its replay tail against.
    pub fn tap_cursor(&self, tap: TapId) -> Option<u64> {
        self.changes.tap_cursor(tap)
    }

    /// Total records ever committed to the change stream (the seq the
    /// next mutation will receive).
    pub fn change_seq(&self) -> u64 {
        self.changes.next_seq()
    }

    /// Bound the record window a lagging tap may pin: a consumer that
    /// leaks its [`TapId`] (disconnects without
    /// [`World::detach_tap`]) would otherwise retain every later
    /// mutation forever. With a limit set, any tap lagging more than
    /// `limit` records is **evicted** — it reads nothing from then on
    /// ([`World::tap_evicted`] reports it) and must resynchronize from
    /// current state after re-attaching. `None` (the default) retains
    /// forever. Pinned taps ([`World::attach_tap_pinned`]) are exempt:
    /// a durability tap is never evicted, the window simply outgrows
    /// the limit until its owner drains it. The same limit bounds a
    /// view subscriber's untaken entries ([`World::subscribe_view`]).
    pub fn set_tap_retention(&mut self, limit: Option<usize>) {
        self.changes.set_retention(limit);
    }

    /// True when the retention policy evicted `tap` (see
    /// [`World::set_tap_retention`]).
    pub fn tap_evicted(&self, tap: TapId) -> bool {
        self.changes.tap_evicted(tap)
    }

    /// Records currently retained for lagging consumers — the memory
    /// the slowest tap is pinning.
    pub fn retained_changes(&self) -> usize {
        self.changes.retained()
    }

    // ---- entities ----

    /// Spawn an empty entity (no components, no position).
    pub fn spawn(&mut self) -> EntityId {
        let id = self.alloc.alloc();
        if self.recording() {
            self.record(ChangeOp::Spawned { id });
        }
        id
    }

    /// Spawn an entity at a position.
    pub fn spawn_at(&mut self, pos: Vec2) -> EntityId {
        let id = self.spawn();
        self.set_pos(id, pos).expect("freshly spawned entity is live");
        id
    }

    /// Spawn from a resolved template at a position: every declared
    /// component gets its default value. Components the world has not seen
    /// yet are defined on the fly with the template's type.
    pub fn spawn_from_template(
        &mut self,
        template: &ResolvedTemplate,
        pos: Vec2,
    ) -> Result<EntityId, CoreError> {
        // Pre-validate types against existing columns before mutating.
        for def in template.components.values() {
            if def.name == POS {
                if def.ty != ValueType::Vec2 {
                    return Err(CoreError::ReservedComponent(POS.to_string()));
                }
                continue;
            }
            if let Some(existing) = self.component_type(&def.name) {
                if existing != def.ty {
                    return Err(CoreError::TypeMismatch {
                        component: def.name.clone(),
                        expected: existing,
                        got: def.ty,
                    });
                }
            }
        }
        let id = self.spawn_at(pos);
        for def in template.components.values() {
            if def.name == POS {
                if let Value::Vec2(x, y) = def.default {
                    // explicit template default overrides the spawn pos
                    // only when nonzero — designers use 0,0 as "unset"
                    if x != 0.0 || y != 0.0 {
                        self.set_pos(id, Vec2::new(x, y))?;
                    }
                }
                continue;
            }
            if self.component_type(&def.name).is_none() {
                self.define_component(&def.name, def.ty)?;
            }
            self.set(id, &def.name, def.default.clone())?;
        }
        Ok(id)
    }

    /// Restore an entity with an exact id (WAL and delta redo, so ids
    /// survive a round-trip; a whole row image loads through
    /// [`World::bulk_load`]). Fails when the slot is already live.
    pub fn restore_entity(&mut self, id: EntityId) -> Result<(), CoreError> {
        if self.alloc.restore(id) {
            if self.recording() {
                self.record(ChangeOp::Spawned { id });
            }
            Ok(())
        } else {
            Err(CoreError::DeadEntity(id))
        }
    }

    /// Despawn an entity, removing all its components. Returns `false`
    /// for stale ids. The change record carries the dropped row image
    /// (id-ordered `(component, value)` pairs), so stream consumers can
    /// fold the loss without a world rescan.
    pub fn despawn(&mut self, id: EntityId) -> bool {
        if !self.alloc.free(id) {
            return false;
        }
        let slot = id.index() as usize;
        if self.recording() {
            // the row image exists for tap consumers (wealth fold,
            // delta shipping); views read only the entity id, so the
            // views-only configuration skips the column walk and clones
            let row: Vec<(ComponentId, Value)> = if self.changes.has_taps() {
                self.columns
                    .iter()
                    .enumerate()
                    .filter_map(|(i, col)| {
                        col.get(slot).map(|v| (ComponentId::from_u32(i as u32), v))
                    })
                    .collect()
            } else {
                Vec::new()
            };
            self.record(ChangeOp::Despawned { id, row });
        }
        for (i, col) in self.columns.iter_mut().enumerate() {
            col.remove(slot);
            if let Some(Some(idx)) = self.indexes.get_mut(i) {
                idx.replace(id, col);
            }
        }
        self.spatial.remove(id.to_bits());
        true
    }

    /// True when `id` is a live entity.
    #[inline]
    pub fn is_live(&self, id: EntityId) -> bool {
        self.alloc.is_live(id)
    }

    /// Number of live entities.
    #[inline]
    pub fn len(&self) -> usize {
        self.alloc.live_count()
    }

    /// True when the world has no entities.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate live entities in slot order (deterministic).
    pub fn entities(&self) -> impl Iterator<Item = EntityId> + '_ {
        self.alloc.iter_live()
    }

    /// The slot table, for the read path's block scans.
    #[inline]
    pub(crate) fn slots(&self) -> &EntityAllocator {
        &self.alloc
    }

    /// Collect live entities into a vector (for chunked parallel ticks).
    pub fn entity_vec(&self) -> Vec<EntityId> {
        self.entities().collect()
    }

    // ---- component access ----

    /// The interned id of a defined component.
    fn resolve(&self, component: &str) -> Result<ComponentId, CoreError> {
        self.interner
            .get(component)
            .ok_or_else(|| CoreError::UnknownComponent(component.to_string()))
    }

    /// The id of a write addressed by name to `id`: a dead entity
    /// outranks an unknown name, so liveness is checked here only when
    /// the name fails (the `*_by_id` write checks it otherwise).
    fn resolve_for(&self, id: EntityId, component: &str) -> Result<ComponentId, CoreError> {
        self.resolve(component)
            .or_else(|e| self.check_live(id).and(Err(e)))
    }

    /// The column index of an interned id, checked against the schema.
    fn column_index(&self, cid: ComponentId) -> Result<usize, CoreError> {
        if cid.index() < self.columns.len() {
            Ok(cid.index())
        } else {
            Err(CoreError::UnknownComponent(format!("{cid}")))
        }
    }

    fn check_live(&self, id: EntityId) -> Result<(), CoreError> {
        if self.is_live(id) {
            Ok(())
        } else {
            Err(CoreError::DeadEntity(id))
        }
    }

    /// Set a component value (type-checked). Setting `pos` also moves the
    /// entity in the spatial index.
    pub fn set(&mut self, id: EntityId, component: &str, value: Value) -> Result<(), CoreError> {
        let cid = self.resolve_for(id, component)?;
        self.set_by_id(id, cid, value)
    }

    /// [`World::set`] addressed by interned id — the write WAL replay
    /// issues, with no name hashed.
    pub fn set_by_id(
        &mut self,
        id: EntityId,
        cid: ComponentId,
        value: Value,
    ) -> Result<(), CoreError> {
        self.check_set(id, cid, &value)?;
        self.write_checked(id, cid, value);
        Ok(())
    }

    /// The error [`World::set_by_id`] would return for this write, found
    /// without writing.
    fn check_set(&self, id: EntityId, cid: ComponentId, value: &Value) -> Result<(), CoreError> {
        self.check_live(id)?;
        let expected = self.columns[self.column_index(cid)?].ty();
        if value.value_type() != expected {
            return Err(CoreError::TypeMismatch {
                component: self.interner.name(cid).unwrap_or_default().to_string(),
                expected,
                got: value.value_type(),
            });
        }
        Ok(())
    }

    /// Write a value [`World::check_set`] passed — the one place a value
    /// reaches a column, so every write keeps the column's secondary
    /// index (one [`SecondaryIndex::replace`]), the spatial grid for
    /// `pos`, and the change stream in step. The value moves into the
    /// column and is copied only for a change record.
    fn write_checked(&mut self, id: EntityId, cid: ComponentId, value: Value) {
        let recording = self.recording();
        let slot = id.index() as usize;
        let col = &mut self.columns[cid.index()];
        if let (POS_ID, &Value::Vec2(x, y)) = (cid, &value) {
            let pos = Vec2::new(x, y);
            self.spatial.update(id.to_bits(), pos);
            grow_bounds(&mut self.bounds, pos);
        }
        let old = if recording { col.get(slot) } else { None };
        let new = recording.then(|| value.clone());
        col.put(slot, value).expect("the write was type-checked");
        if let Some(Some(idx)) = self.indexes.get_mut(cid.index()) {
            idx.replace(id, col);
        }
        if let Some(new) = new {
            // the record carries the interned id — no name clone on the
            // hot write path
            self.record(ChangeOp::Set {
                id,
                component: cid,
                old,
                new,
            });
        }
    }

    /// Component value, or `None` when the entity is dead, the component
    /// is unknown, or the entity lacks it.
    pub fn get(&self, id: EntityId, component: &str) -> Option<Value> {
        if !self.is_live(id) {
            return None;
        }
        self.column(component)?.get(id.index() as usize)
    }

    /// Remove a component from an entity.
    pub fn remove_component(&mut self, id: EntityId, component: &str) -> Result<bool, CoreError> {
        let cid = self.resolve_for(id, component)?;
        self.remove_component_by_id(id, cid)
    }

    /// [`World::remove_component`] addressed by interned id.
    pub fn remove_component_by_id(
        &mut self,
        id: EntityId,
        cid: ComponentId,
    ) -> Result<bool, CoreError> {
        self.check_live(id)?;
        self.column_index(cid)?;
        if cid == POS_ID {
            self.spatial.remove(id.to_bits());
        }
        let slot = id.index() as usize;
        let recording = self.recording();
        let col = &mut self.columns[cid.index()];
        let old = if recording { col.get(slot) } else { None };
        let removed = col.remove(slot);
        if let Some(Some(idx)) = self.indexes.get_mut(cid.index()) {
            idx.replace(id, col);
        }
        if let Some(old) = old {
            // recording, and there was a value to remove
            self.record(ChangeOp::Removed {
                id,
                component: cid,
                old,
            });
        }
        Ok(removed)
    }

    // ---- typed fast paths ----

    /// `f32` component value.
    #[inline]
    pub fn get_f32(&self, id: EntityId, component: &str) -> Option<f32> {
        if !self.is_live(id) {
            return None;
        }
        self.column(component)?.get_f32(id.index() as usize)
    }

    /// Set an `f32` component (must be float-typed and defined).
    pub fn set_f32(&mut self, id: EntityId, component: &str, v: f32) -> Result<(), CoreError> {
        self.set(id, component, Value::Float(v))
    }

    /// `i64` component value.
    #[inline]
    pub fn get_i64(&self, id: EntityId, component: &str) -> Option<i64> {
        if !self.is_live(id) {
            return None;
        }
        self.column(component)?.get_i64(id.index() as usize)
    }

    /// `bool` component value.
    #[inline]
    pub fn get_bool(&self, id: EntityId, component: &str) -> Option<bool> {
        if !self.is_live(id) {
            return None;
        }
        self.column(component)?.get_bool(id.index() as usize)
    }

    /// Numeric component view (float or int).
    #[inline]
    pub fn get_number(&self, id: EntityId, component: &str) -> Option<f64> {
        if !self.is_live(id) {
            return None;
        }
        self.column(component)?.get_number(id.index() as usize)
    }

    /// `&str` view of a string component addressed by interned id — the
    /// zero-allocation, zero-hash read per-entity dispatch loops (the
    /// script engine's binding lookup) run on.
    #[inline]
    pub fn get_str_by_id(&self, id: EntityId, component: ComponentId) -> Option<&str> {
        if !self.is_live(id) {
            return None;
        }
        self.columns.get(component.index())?.get_str(id.index() as usize)
    }

    // ---- position & spatial queries ----

    /// Position of an entity.
    #[inline]
    pub fn pos(&self, id: EntityId) -> Option<Vec2> {
        if !self.is_live(id) {
            return None;
        }
        self.columns[POS_ID.index()]
            .get_v2(id.index() as usize)
            .map(|[x, y]| Vec2::new(x, y))
    }

    /// Move an entity (keeps the spatial index in sync).
    pub fn set_pos(&mut self, id: EntityId, pos: Vec2) -> Result<(), CoreError> {
        self.check_live(id)?;
        self.write_checked(id, POS_ID, Value::Vec2(pos.x, pos.y));
        Ok(())
    }

    /// Number of entities with a position (spatial index cardinality).
    #[inline]
    pub fn positioned_count(&self) -> usize {
        self.spatial.len()
    }

    /// Expand-only bounding box over every position ever set. Cheap, but
    /// note the error direction: despawns and clustering never shrink
    /// it, so density estimated over it *under*-counts candidates in a
    /// disk and the planner leans toward spatial probes. That costs
    /// probe overhead on a query a scan would serve cheaper — never
    /// wrong results. Exact bounds remain available via
    /// [`crate::planner::TableStats::build`].
    #[inline]
    pub fn approx_bounds(&self) -> Option<(Vec2, Vec2)> {
        self.bounds
    }

    /// Append every entity within the closed disk to `out`, in id order
    /// (deterministic for scripts). A negative radius is the empty disk.
    pub fn within(&self, center: Vec2, radius: f32, out: &mut Vec<EntityId>) {
        if radius < 0.0 {
            return;
        }
        let start = out.len();
        self.spatial
            .for_each_in_range(center, radius, |bits| out.push(EntityId::from_bits(bits)));
        out[start..].sort_unstable();
    }

    /// The `k` nearest positioned entities to `center`, closest first.
    pub fn knn(&self, center: Vec2, k: usize, out: &mut Vec<EntityId>) {
        let mut bits = Vec::new();
        self.spatial.query_knn(center, k, &mut bits);
        out.extend(bits.into_iter().map(EntityId::from_bits));
    }

    /// All pairs `(a, b)` with `a < b` whose positions are within
    /// `radius`, via the spatial index — the index join the paper
    /// contrasts with designers' accidental O(n²) loops.
    pub fn pairs_within(&self, radius: f32) -> Vec<(EntityId, EntityId)> {
        let mut pairs = Vec::new();
        let mut near = Vec::new();
        for a in self.entities() {
            let Some(p) = self.pos(a) else { continue };
            near.clear();
            self.spatial.query_range(p, radius, &mut near);
            for &bits in &near {
                let b = EntityId::from_bits(bits);
                if a < b {
                    pairs.push((a, b));
                }
            }
        }
        pairs.sort_unstable();
        pairs
    }

    /// Same result as [`World::pairs_within`] computed by the naive
    /// nested loop — the Ω(n²) baseline of experiment E1.
    pub fn pairs_within_naive(&self, radius: f32) -> Vec<(EntityId, EntityId)> {
        let r2 = radius * radius;
        let ids: Vec<EntityId> = self.entities().collect();
        let mut pairs = Vec::new();
        for (i, &a) in ids.iter().enumerate() {
            let Some(pa) = self.pos(a) else { continue };
            for &b in &ids[i + 1..] {
                let Some(pb) = self.pos(b) else { continue };
                if pa.dist2(pb) <= r2 {
                    pairs.push((a.min(b), a.max(b)));
                }
            }
        }
        pairs.sort_unstable();
        pairs
    }

    // ---- standing views (continuous queries) ----

    /// Register a standing query — sugar for
    /// [`World::register_view_plan`] over its one-leaf plan
    /// ([`Query::into_plan`]). The result set is materialized now and
    /// maintained incrementally from the world's delta stream from here
    /// on (see [`crate::view`] for the maintenance invariants). Returns a
    /// handle for [`World::view_rows`] / [`World::subscribe_view`].
    ///
    /// While at least one view is registered, every write path records a
    /// compact delta; [`World::refresh_views`] (called automatically at
    /// every tick bump) folds the pending batch into all views.
    pub fn register_view(&mut self, query: Query) -> ViewId {
        self.register_view_plan(query.into_plan())
            .expect("a bare scan is always a valid plan")
    }

    /// Register a view over an operator tree ([`ViewPlan`]): the
    /// plan is validated and materialized now, then maintained
    /// incrementally by per-operator delta rules from the change
    /// stream. Errors on structurally invalid plans
    /// ([`CoreError::PlanInvalid`]); nothing is registered or recorded
    /// then.
    pub fn register_view_plan(&mut self, plan: ViewPlan) -> Result<ViewId, CoreError> {
        // Fold any pending changes under the old view set first so the
        // initial materialization and the stream agree on "now".
        self.refresh_views();
        let view = PlanView::new(plan.clone(), self)?;
        let slot = self.views.register(view);
        self.record_catalog(ChangeOp::RegisterPlanView { slot, plan });
        Ok(self.view_id(slot))
    }

    /// This world's handle for `slot`.
    fn view_id(&self, slot: u32) -> ViewId {
        ViewId {
            world: self.world_id,
            slot,
        }
    }

    /// The live view behind `id`.
    ///
    /// # Panics
    /// On handles issued by another world (lineage) — reading a foreign
    /// handle would silently return an unrelated view's state — and on
    /// unknown or dropped ids.
    fn plan_view(&self, id: ViewId) -> &PlanView {
        assert!(
            id.world == self.world_id,
            "view {id:?} belongs to a different world"
        );
        self.views.get(id)
    }

    /// [`World::plan_view`], mutably.
    fn plan_view_mut(&mut self, id: ViewId) -> &mut PlanView {
        self.plan_view(id);
        self.views.get_mut(id)
    }

    /// Drop a standing view; returns whether it existed. Dropping the
    /// last view stops delta recording.
    pub fn drop_view(&mut self, id: ViewId) -> bool {
        if id.world != self.world_id {
            return false;
        }
        let dropped = self.views.drop_view(id);
        if dropped {
            self.record_catalog(ChangeOp::DropView { slot: id.slot });
        }
        if !self.recording() {
            self.changes.clear();
        }
        dropped
    }

    /// True when `id` names a live view of this world (handles of
    /// dropped views stay stale forever — slots are never reused — and
    /// handles from other worlds are never accepted).
    pub fn has_view(&self, id: ViewId) -> bool {
        id.world == self.world_id && self.views.at_slot(id.slot).is_some()
    }

    /// Materialized rows of a view, sorted by entity id. Reflects the
    /// state as of the last [`World::refresh_views`].
    ///
    /// # Panics
    /// On foreign, unknown, or dropped view ids, and on views that do
    /// not materialize entity rows (programmer error).
    pub fn view_rows(&self, id: ViewId) -> &[EntityId] {
        self.plan_view(id)
            .rows()
            .unwrap_or_else(|| panic!("view {id:?} does not materialize entity rows"))
    }

    /// True when `e` is currently a member of the view.
    pub fn view_contains(&self, id: ViewId, e: EntityId) -> bool {
        self.plan_view(id).contains_row(e)
    }

    /// The standing query a rows view maintains: its scan leaf's query
    /// with every filter above it folded in.
    ///
    /// # Panics
    /// As [`World::view_rows`].
    pub fn view_query(&self, id: ViewId) -> &Query {
        self.plan_view(id)
            .query()
            .unwrap_or_else(|| panic!("view {id:?} does not materialize entity rows"))
    }

    /// Subscribe to a view's deltas: from the next refresh on, the view
    /// keeps each batch until [`World::take_view_delta`] takes it (a
    /// live subscription keeps what it has not taken). Its rows now plus
    /// the deltas taken later are its whole history. A subscriber
    /// holding more untaken entries than the tap retention limit is
    /// dropped; a recovered world's views come back unsubscribed.
    pub fn subscribe_view(&mut self, id: ViewId) {
        self.plan_view_mut(id).subscribe();
    }

    /// Take what a subscribed view accumulated since the last take. `R`
    /// is its row type: [`EntityId`] for a rows view, `(EntityId,
    /// EntityId)` for a join, [`crate::dvm::GroupRow`] for a grouped
    /// aggregate; any other panics. `None` when unsubscribed — never
    /// subscribed, dropped by the retention limit, or recovered — and
    /// the consumer then resyncs from the rows and subscribes again.
    pub fn take_view_delta<R: Clone + 'static>(&mut self, id: ViewId) -> Option<ViewDelta<R>> {
        self.plan_view_mut(id).take_delta().unwrap_or_else(|| {
            panic!("view {id:?} does not produce {} rows", std::any::type_name::<R>())
        })
    }

    /// Maintenance counters of a view.
    pub fn view_stats(&self, id: ViewId) -> ViewStats {
        self.plan_view(id).stats()
    }

    /// The operator tree a view maintains; `None` when `id` names no
    /// live view (dropped, or never issued).
    pub fn view_plan(&self, id: ViewId) -> Option<&ViewPlan> {
        self.has_view(id).then(|| self.views.get(id).plan())
    }

    /// First live view maintaining exactly `plan` — how a subscriber
    /// re-attaches to its standing view after a restart or reconnect
    /// instead of registering a duplicate.
    pub fn find_view(&self, plan: &ViewPlan) -> Option<ViewId> {
        self.views
            .live_slots()
            .find(|(_, p)| *p == plan)
            .map(|(slot, _)| self.view_id(slot))
    }

    /// Materialized pairs of a join view, ascending by `(left, right)`.
    ///
    /// # Panics
    /// On foreign, unknown, or dropped ids, and on views that do not
    /// materialize pairs (programmer error).
    pub fn view_pairs(&self, id: ViewId) -> &[(EntityId, EntityId)] {
        self.plan_view(id)
            .pairs()
            .unwrap_or_else(|| panic!("view {id:?} does not materialize join pairs"))
    }

    /// Materialized group rows of a group-aggregate view, ascending by
    /// group key (the global group, when present, first).
    ///
    /// # Panics
    /// As [`World::view_pairs`], for non-group views.
    pub fn view_groups(&self, id: ViewId) -> &[crate::dvm::GroupRow] {
        self.plan_view(id)
            .groups()
            .unwrap_or_else(|| panic!("view {id:?} does not materialize group rows"))
    }

    /// Aggregate value of the group keyed `key` (`None` = the global
    /// group), if that group currently exists.
    pub fn view_group_value(&self, id: ViewId, key: Option<&Value>) -> Option<f64> {
        self.view_groups(id)
            .iter()
            .find(|g| g.key.as_ref() == key)
            .map(|g| g.value)
    }

    /// Min/max retract-and-recompute count of a group-aggregate view.
    pub fn view_retract_recomputes(&self, id: ViewId) -> u64 {
        self.plan_view(id).retract_recomputes()
    }

    /// Snapshot of a view's maintained output — the shape
    /// [`ViewPlan::evaluate`] returns, so callers can compare the
    /// incrementally-maintained state against a fresh recompute with
    /// one equality check.
    pub fn view_output(&self, id: ViewId) -> crate::dvm::PlanOutput {
        self.plan_view(id).output()
    }

    /// Row-op changes recorded since the last refresh. Views are stale
    /// while this is nonzero (subscribers refresh before they read, as
    /// the sync auditor does).
    pub fn pending_deltas(&self) -> usize {
        self.changes
            .pending_views()
            .iter()
            .filter(|c| c.op.is_row_op())
            .count()
    }

    /// Fold all pending changes into every standing view. Called
    /// automatically at tick end; callers mutating the world outside the
    /// tick executor (action executors, recovery, tests) call it before
    /// reading views.
    pub fn refresh_views(&mut self) {
        if self.changes.pending_views().is_empty() {
            return;
        }
        if !self.views.is_active() {
            self.changes.mark_views_folded();
            return;
        }
        // Move the stream and the registry out so the fold can read
        // `self` without aliasing; no write path runs while they are
        // out, so recording state is moot. The stream window survives
        // the round-trip — taps that have not consumed it yet keep it.
        let stream = std::mem::take(&mut self.changes);
        let mut views = std::mem::take(&mut self.views);
        views.apply(self, &stream);
        self.views = views;
        self.changes = stream;
        self.changes.mark_views_folded();
    }

    /// Move a rows view's `within` restriction (interest bubbles and
    /// aggro ranges follow their focus entity). Pending changes are
    /// folded first, then the view's plan takes the new disk, the view
    /// re-evaluates under it once, and the membership diff is a delta
    /// batch of `entered` / `exited`. Join and group-aggregate views
    /// do not retarget: they return [`CoreError::PlanInvalid`], and
    /// nothing is moved or recorded.
    ///
    /// # Panics
    /// On foreign, unknown, or dropped ids.
    pub fn retarget_view(&mut self, id: ViewId, center: Vec2, radius: f32) -> Result<(), CoreError> {
        self.plan_view(id);
        self.refresh_views();
        // Move the registry out so the re-evaluation can read `self`.
        let mut views = std::mem::take(&mut self.views);
        let retention = self.changes.retention();
        let moved = views.get_mut(id).retarget(self, id.slot as usize, center, radius, retention);
        self.views = views;
        moved?;
        self.record_catalog(ChangeOp::RetargetView {
            slot: id.slot,
            x: center.x,
            y: center.y,
            radius,
        });
        Ok(())
    }

    // ---- catalog: the recovery surface ----
    //
    // Since indexes and standing views became first-class derived state,
    // a world is more than its rows: recovery that restores facts but
    // not the definitions deriving from them hands back a *different*
    // database. The catalog captures those definitions — plus the
    // lineage and tick identity — so the persistence layer can rebuild
    // indexes, re-materialize views at their original slots, and let
    // subscribers keep using their pre-crash [`ViewId`] handles.

    /// Lineage id stamped into this world's [`ViewId`]s.
    #[inline]
    pub fn lineage(&self) -> u64 {
        self.world_id
    }

    /// Export the catalog: index definitions, live standing views with
    /// their slots, total slots ever issued, lineage, and tick.
    pub fn export_catalog(&self) -> WorldCatalog {
        WorldCatalog {
            lineage: self.world_id,
            tick: self.tick,
            indexes: self
                .indexed_components()
                .map(|(n, k)| (n.to_string(), k))
                .collect(),
            view_slots: self.views.slot_count(),
            views: self
                .views
                .live_slots()
                .map(|(slot, p)| (slot, p.clone()))
                .collect(),
        }
    }

    /// Build derived state from a catalog over the current rows, each
    /// structure once: the spatial grid and every missing index, then
    /// (views plan through those) every missing view at its slot,
    /// unsubscribed; dropped slots stay burned, lineage and tick are
    /// restored. A stage's structures are jobs on
    /// `min(available_parallelism, jobs)` threads, installed in catalog
    /// order up to the first failure, whose error returns. An index or
    /// view already in place is kept; a conflicting one is an error.
    pub fn import_catalog(&mut self, cat: &WorldCatalog) -> Result<(), CoreError> {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.import_catalog_on(cat, workers).map(|_| ())
    }

    /// [`World::import_catalog`] on exactly `workers` threads, returning
    /// the wall time of its two stages (grid + indexes, views). Each
    /// structure is a function of the rows and the catalog alone, so the
    /// worker count changes neither the result nor the error; recovery's
    /// tests pin it to show that.
    #[doc(hidden)]
    pub fn import_catalog_on(
        &mut self,
        cat: &WorldCatalog,
        workers: usize,
    ) -> Result<[std::time::Duration; 2], CoreError> {
        // one per structure: the variants' sizes do not matter
        #[allow(clippy::large_enum_variant)]
        enum Derived {
            Grid(UniformGrid),
            Index(ComponentId, Option<SecondaryIndex>),
        }
        // adopt the lineage first: the views installed below issue
        // their handles under it, so pre-crash handles keep resolving
        self.world_id = cat.lineage;
        let started = std::time::Instant::now();
        let world = &*self;
        let built = bulk::run_jobs(workers, 1 + cat.indexes.len(), |job| match job.checked_sub(1) {
            None => Ok(Derived::Grid(world.build_grid())),
            Some(i) => {
                let (component, kind) = &cat.indexes[i];
                let cid = world.resolve(component)?;
                Ok(Derived::Index(cid, world.build_index(cid, *kind)?))
            }
        });
        for built in built {
            match built? {
                Derived::Grid(grid) => self.spatial = grid,
                Derived::Index(cid, Some(idx)) => self.install_index(cid, idx),
                Derived::Index(_, None) => {}
            }
        }
        let indexed = started.elapsed();
        let started = std::time::Instant::now();
        self.views.reserve_slots(cat.view_slots);
        self.refresh_views();
        let world = &*self;
        let built = bulk::run_jobs(workers, cat.views.len(), |job| {
            let (slot, plan) = &cat.views[job];
            world.build_view(*slot, plan)
        });
        for ((slot, _), built) in cat.views.iter().zip(built) {
            if let Some(view) = built? {
                self.install_view(*slot, view);
            }
        }
        self.restore_tick(cat.tick);
        Ok([indexed, started.elapsed()])
    }

    /// The spatial grid over every live position, built whole from one
    /// id-ordered pass ([`UniformGrid::from_items`]).
    fn build_grid(&self) -> UniformGrid {
        let pos = &self.columns[POS_ID.index()];
        let items = (self.alloc.iter_live()).filter_map(|id| {
            let [x, y] = pos.get_v2(id.index() as usize)?;
            Some((id.to_bits(), Vec2::new(x, y)))
        });
        UniformGrid::from_items(self.spatial.cell_size(), items)
    }

    /// Begin a bulk load of a row image (snapshot restore): a fresh
    /// world with `schema` defined in listed order — so every interned
    /// id lands where the image's writer had it; the predefined `pos`
    /// may appear anywhere in the list — holding exactly `entities`,
    /// restored with their generations in one allocator pass. Each
    /// column then goes in whole through the returned [`BulkLoader`];
    /// nothing is indexed, folded or recorded per row.
    /// Derived state — the spatial grid too — is built over the finished
    /// rows by [`World::import_catalog`], each structure in one pass.
    pub fn bulk_load(
        schema: &[(String, ValueType)],
        entities: &[EntityId],
    ) -> Result<BulkLoader, CoreError> {
        let mut world = World::new();
        let mut ids = Vec::with_capacity(schema.len());
        for (name, ty) in schema {
            if name == POS {
                if *ty != ValueType::Vec2 {
                    return Err(CoreError::ReservedComponent(name.clone()));
                }
                ids.push(POS_ID);
            } else {
                world.define_component(name, *ty)?;
                ids.push(world.interner.get(name).expect("just defined"));
            }
        }
        world.alloc = EntityAllocator::restore_all(entities).map_err(CoreError::DeadEntity)?;
        Ok(BulkLoader { world, ids })
    }

    /// Handles of every live view, slot-ordered.
    pub fn view_ids(&self) -> Vec<ViewId> {
        self.views
            .live_slots()
            .map(|(slot, _)| self.view_id(slot))
            .collect()
    }

    /// Handle of the live view at `slot`, if any.
    pub fn view_id_at(&self, slot: u32) -> Option<ViewId> {
        self.views.at_slot(slot).map(|_| self.view_id(slot))
    }

    /// Re-register a view at an exact slot (recovery replay). The view
    /// materializes from current state, unsubscribed. A live
    /// slot holding the same plan is accepted unchanged (idempotent
    /// redo); any other occupant is a conflict.
    pub fn import_view_at_slot(&mut self, slot: u32, plan: ViewPlan) -> Result<ViewId, CoreError> {
        self.refresh_views();
        if let Some(view) = self.build_view(slot, &plan)? {
            self.install_view(slot, view);
        }
        Ok(self.view_id(slot))
    }

    /// The view `plan` materialized for `slot`, or `None` when the slot
    /// holds that plan already; any other occupant is a conflict. Reads
    /// only, so it runs as a job.
    fn build_view(&self, slot: u32, plan: &ViewPlan) -> Result<Option<PlanView>, CoreError> {
        match self.views.at_slot(slot) {
            Some(existing) if existing.plan() == plan => Ok(None),
            Some(_) => Err(CoreError::ViewSlotConflict(slot)),
            None => PlanView::new(plan.clone(), self).map(Some),
        }
    }

    fn install_view(&mut self, slot: u32, view: PlanView) {
        let plan = view.plan().clone();
        let installed = self.views.install_at_slot(slot, view);
        debug_assert!(installed, "slot checked dead when the view was built");
        self.record_catalog(ChangeOp::RegisterPlanView { slot, plan });
    }

    // ---- tick counter ----

    /// Current tick number.
    #[inline]
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Move the tick counter forward to `tick` on a live world. Pending
    /// changes are folded first, mirroring [`World::bump_tick`]; the
    /// counter never moves backward.
    pub fn advance_tick_to(&mut self, tick: u64) {
        self.refresh_views();
        self.restore_tick(tick);
    }

    /// Redo-side tick restore: move the counter to `tick` **without**
    /// folding pending changes into the views (a catalog import ends
    /// with one; a live replay of a log tail applies one per pre-crash
    /// tick and folds when it is done). Never moves backward.
    pub fn restore_tick(&mut self, tick: u64) {
        if tick > self.tick {
            self.tick = tick;
            self.record_catalog(ChangeOp::TickTo { tick });
        }
    }

    /// Advance the tick counter (the executor calls this). Standing
    /// views refresh here, so each completed tick publishes its delta
    /// batch before the next tick's systems run.
    pub(crate) fn bump_tick(&mut self) {
        self.refresh_views();
        self.tick += 1;
        self.record_catalog(ChangeOp::TickTo { tick: self.tick });
    }

    /// Dump all `(entity, component, value)` rows in deterministic order —
    /// the persistence layer serializes this.
    pub fn rows(&self) -> Vec<(EntityId, String, Value)> {
        let mut rows = Vec::new();
        for id in self.entities() {
            let slot = id.index() as usize;
            for (name, cid) in self.interner.iter_by_name() {
                if let Some(v) = self.columns[cid.index()].get(slot) {
                    rows.push((id, name.to_string(), v));
                }
            }
        }
        rows
    }

    // ---- batch commit ----

    /// Commit a [`WriteBatch`] of primitive writes in one call. Each op
    /// goes through the same commit discipline as the individual write
    /// methods (type checks, index maintenance, change-stream records),
    /// but maximal runs of value writes are regrouped by component —
    /// per-slot order preserved, so the final state and the recorded
    /// old→new chains are identical to op-by-op application. The batch
    /// is consumed: each value moves into its column. With a durability
    /// tap attached, the whole batch lands as **one** pending stream
    /// segment: one group-commit WAL frame.
    ///
    /// This is how the tick executor's merged effect buffers commit
    /// (see [`crate::effect::EffectBuffer::apply`]).
    ///
    /// Returns the number of ops applied. On error the batch stops at
    /// the offending op: every op before it in batch order is applied,
    /// none after it (batches are atomic only with respect to durability
    /// framing, not rollback).
    pub fn apply_batch(&mut self, batch: WriteBatch) -> Result<usize, CoreError> {
        let WriteBatch { names, mut ops } = batch;
        let is_write = |o: &QueuedOp| matches!(o, QueuedOp::Set { .. } | QueuedOp::SetPos { .. });
        let total = ops.len();
        let mut i = 0;
        while i < ops.len() {
            if is_write(&ops[i]) {
                let j = i + ops[i..].iter().take_while(|o| is_write(o)).count();
                self.apply_write_run(&names, &mut ops[i..j])?;
                i = j;
                continue;
            }
            match &mut ops[i] {
                QueuedOp::Remove { id, component } => {
                    self.remove_component(*id, names.name(*component))?;
                }
                QueuedOp::Despawn { id } => {
                    self.despawn(*id);
                }
                QueuedOp::Spawn { components, pos } => {
                    let id = self.spawn_at(*pos);
                    for (component, value) in std::mem::take(components) {
                        if self.component_type(&component).is_none() {
                            // auto-define like template spawning does
                            let _ = self.define_component(&component, value.value_type());
                        }
                        self.set(id, &component, value)?;
                    }
                }
                QueuedOp::Set { .. } | QueuedOp::SetPos { .. } => unreachable!("handled above"),
            }
            i += 1;
        }
        if let Some(m) = self.core_metrics() {
            m.batches.inc();
            m.batch_ops.observe(total as u64);
        }
        Ok(total)
    }

    /// Apply a run of value writes, regrouped by **interned column id**.
    /// The batch's names resolve to ids once per run — a spawn earlier
    /// in the batch may have defined one — so an op finds its column by
    /// table index, not by hashing its name. Liveness, schema and types
    /// cannot change inside a run, so the run is checked first, in batch
    /// order, and only the ops before the first failing one are applied
    /// before its error returns. The sort is stable, so multiple writes
    /// to one `(entity, component)` slot keep their order; cross-slot
    /// writes commute (no observer runs between the ops of a batch, and
    /// replay applies records in stream order).
    fn apply_write_run(&mut self, names: &NameTable, run: &mut [QueuedOp]) -> Result<(), CoreError> {
        let ids: Vec<u32> = names
            .iter()
            .map(|n| self.interner.get(n).map_or(u32::MAX, ComponentId::as_u32))
            .collect();
        let mut failed = None;
        for (at, op) in run.iter().enumerate() {
            let checked = match op {
                QueuedOp::Set {
                    id,
                    component,
                    value,
                } => match ids[*component as usize] {
                    // a dead entity outranks an unknown name, as in `set`
                    u32::MAX => self.check_live(*id).and(Err(CoreError::UnknownComponent(
                        names.name(*component).to_string(),
                    ))),
                    cid => self.check_set(*id, ComponentId::from_u32(cid), value),
                },
                QueuedOp::SetPos { id, .. } => self.check_live(*id),
                _ => unreachable!("write runs hold only value writes"),
            };
            if let Err(e) = checked {
                failed = Some((at, e));
                break;
            }
        }
        let run = match &failed {
            Some((at, _)) => &mut run[..*at],
            None => run,
        };
        // compute keys once, then stably co-sort `run` and `keys` by
        // applying the sorting permutation in place (index-chasing form
        // — `order[i]` may point at a slot already emptied by an earlier
        // step, so chase forward until the source is at or past `i`).
        // The index tiebreak keeps the sort stable: per-slot write
        // order holds.
        let mut keys: Vec<u32> = run
            .iter()
            .map(|op| match op {
                QueuedOp::Set { component, .. } => ids[*component as usize],
                _ => POS_ID.as_u32(),
            })
            .collect();
        let mut order: Vec<u32> = (0..run.len() as u32).collect();
        order.sort_unstable_by_key(|&i| (keys[i as usize], i));
        for i in 0..order.len() {
            let mut j = order[i] as usize;
            while j < i {
                j = order[j] as usize;
            }
            run.swap(i, j);
            keys.swap(i, j);
            order[i] = j as u32;
        }
        debug_assert!(keys.is_sorted());
        for (op, &cid) in run.iter_mut().zip(&keys) {
            let (id, value) = match op {
                QueuedOp::Set { id, value, .. } => {
                    // the batch is consumed: the value moves out of the op
                    (*id, std::mem::replace(value, Value::Bool(false)))
                }
                QueuedOp::SetPos { id, pos } => (*id, Value::Vec2(pos.x, pos.y)),
                _ => unreachable!("write runs hold only value writes"),
            };
            self.write_checked(id, ComponentId::from_u32(cid), value);
        }
        failed.map_or(Ok(()), |(_, e)| Err(e))
    }
}

/// Widen an expand-only bounding box ([`World::approx_bounds`]) to `pos`.
fn grow_bounds(bounds: &mut Option<(Vec2, Vec2)>, pos: Vec2) {
    *bounds = Some(match *bounds {
        None => (pos, pos),
        Some((lo, hi)) => (
            Vec2::new(lo.x.min(pos.x), lo.y.min(pos.y)),
            Vec2::new(hi.x.max(pos.x), hi.y.max(pos.y)),
        ),
    });
}

/// The definitions of a world's derived state — secondary indexes and
/// standing views — plus its lineage and tick identity. Exported by
/// [`World::export_catalog`], rebuilt by [`World::import_catalog`]; the
/// persistence layer serializes this next to the rows so a recovered
/// world is the *same database*, access paths and subscriptions
/// included, not just the same facts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorldCatalog {
    /// Lineage id ([`World::lineage`]) the recovered world adopts so
    /// pre-crash [`ViewId`] handles stay valid.
    pub lineage: u64,
    /// Tick counter at export time.
    pub tick: u64,
    /// `(component, kind)` per secondary index, component-ordered.
    pub indexes: Vec<(String, IndexKind)>,
    /// Total view slots ever issued — dropped slots stay burned after
    /// recovery so stale handles cannot alias a new view.
    pub view_slots: u32,
    /// `(slot, operator tree)` per live view, slot-ordered.
    pub views: Vec<(u32, ViewPlan)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: f32, y: f32) -> Vec2 {
        Vec2::new(x, y)
    }

    fn world_with_hp() -> World {
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        w
    }

    #[test]
    fn spawn_set_get() {
        let mut w = world_with_hp();
        let e = w.spawn_at(v(1.0, 2.0));
        w.set_f32(e, "hp", 50.0).unwrap();
        assert_eq!(w.get_f32(e, "hp"), Some(50.0));
        assert_eq!(w.pos(e), Some(v(1.0, 2.0)));
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn schema_errors() {
        let mut w = world_with_hp();
        assert_eq!(
            w.define_component("hp", ValueType::Int),
            Err(CoreError::DuplicateComponent("hp".into()))
        );
        assert_eq!(
            w.define_component(POS, ValueType::Vec2),
            Err(CoreError::ReservedComponent(POS.into()))
        );
        let e = w.spawn();
        assert_eq!(
            w.set(e, "mana", Value::Float(1.0)),
            Err(CoreError::UnknownComponent("mana".into()))
        );
        assert!(matches!(
            w.set(e, "hp", Value::Int(5)),
            Err(CoreError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn dead_entity_access_fails() {
        let mut w = world_with_hp();
        let e = w.spawn_at(v(0.0, 0.0));
        w.set_f32(e, "hp", 10.0).unwrap();
        assert!(w.despawn(e));
        assert!(!w.despawn(e));
        assert_eq!(w.get_f32(e, "hp"), None);
        assert_eq!(w.pos(e), None);
        assert_eq!(w.set_f32(e, "hp", 1.0), Err(CoreError::DeadEntity(e)));
        // slot reuse does not leak old components
        let e2 = w.spawn();
        assert_eq!(e2.index(), e.index());
        assert_eq!(w.get_f32(e2, "hp"), None);
    }

    #[test]
    fn spatial_sync_on_move_and_despawn() {
        let mut w = World::new();
        let a = w.spawn_at(v(0.0, 0.0));
        let b = w.spawn_at(v(100.0, 0.0));
        let mut out = vec![];
        w.within(v(0.0, 0.0), 10.0, &mut out);
        assert_eq!(out, vec![a]);

        w.set_pos(b, v(5.0, 0.0)).unwrap();
        out.clear();
        w.within(v(0.0, 0.0), 10.0, &mut out);
        assert_eq!(out, vec![a, b]);

        w.despawn(a);
        out.clear();
        w.within(v(0.0, 0.0), 10.0, &mut out);
        assert_eq!(out, vec![b]);
    }

    #[test]
    fn set_pos_via_dynamic_value() {
        let mut w = World::new();
        let e = w.spawn_at(v(0.0, 0.0));
        w.set(e, POS, Value::Vec2(9.0, 9.0)).unwrap();
        assert_eq!(w.pos(e), Some(v(9.0, 9.0)));
        let mut out = vec![];
        w.within(v(9.0, 9.0), 0.5, &mut out);
        assert_eq!(out, vec![e]);
        assert!(matches!(
            w.set(e, POS, Value::Float(1.0)),
            Err(CoreError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn pairs_index_matches_naive() {
        let mut w = World::new();
        for i in 0..30 {
            w.spawn_at(v((i % 6) as f32 * 3.0, (i / 6) as f32 * 3.0));
        }
        assert_eq!(w.pairs_within(4.0), w.pairs_within_naive(4.0));
        assert_eq!(w.pairs_within(0.0).len(), 0);
    }

    #[test]
    fn knn_returns_the_nearest_first() {
        let mut w = World::new();
        let a = w.spawn_at(v(0.0, 0.0));
        let b = w.spawn_at(v(1.0, 0.0));
        let c = w.spawn_at(v(5.0, 0.0));
        let mut out = vec![];
        w.knn(v(0.0, 0.0), 2, &mut out);
        assert_eq!(out, vec![a, b]);
        out.clear();
        w.knn(v(5.0, 0.0), 2, &mut out);
        assert_eq!(out, vec![c, b]);
    }

    #[test]
    fn nan_positions_and_centres_never_panic() {
        let nan = v(f32::NAN, 0.0);
        let mut w = World::new();
        let a = w.spawn_at(v(0.0, 0.0));
        let b = w.spawn_at(v(1.0, 0.0));
        let c = w.spawn_at(v(5.0, 0.0));
        let mut out = vec![];
        // a NaN centre matches nothing
        w.knn(nan, 3, &mut out);
        w.within(nan, 100.0, &mut out);
        assert!(out.is_empty());

        // a NaN stored position is never returned; the finite ones keep
        // their order
        w.set_pos(b, v(f32::NAN, f32::NAN)).unwrap();
        w.knn(v(0.0, 0.0), 3, &mut out);
        assert_eq!(out, vec![a, c]);
        out.clear();
        w.within(v(0.0, 0.0), f32::INFINITY, &mut out);
        assert_eq!(out, vec![a, c]);
        out.clear();
        w.knn(v(1.0, 0.0), 3, &mut out);
        assert_eq!(out, vec![a, c]);

        // both at once
        out.clear();
        w.knn(nan, 3, &mut out);
        w.within(nan, f32::INFINITY, &mut out);
        assert!(out.is_empty());
        w.knn(w.pos(b).unwrap(), 3, &mut out);
        assert!(out.is_empty());

        // a finite move brings it back
        w.set_pos(b, v(1.0, 0.0)).unwrap();
        w.knn(v(0.0, 0.0), 3, &mut out);
        assert_eq!(out, vec![a, b, c]);
    }

    #[test]
    fn template_spawn() {
        use gamedb_content::{gdml, TemplateLibrary};
        let lib = TemplateLibrary::from_gdml(
            &gdml::parse(
                r#"<templates>
                     <template name="imp" tags="hostile">
                       <component name="hp" type="float" default="25"/>
                       <component name="name" type="str" default="imp"/>
                     </template>
                   </templates>"#,
            )
            .unwrap(),
        )
        .unwrap();
        let imp = lib.resolve("imp").unwrap();
        let mut w = World::new();
        let e = w.spawn_from_template(&imp, v(3.0, 4.0)).unwrap();
        assert_eq!(w.get_f32(e, "hp"), Some(25.0));
        assert_eq!(w.get(e, "name"), Some(Value::Str("imp".into())));
        assert_eq!(w.pos(e), Some(v(3.0, 4.0)));
        // component columns were auto-defined
        assert_eq!(w.component_type("hp"), Some(ValueType::Float));

        // conflicting type in a later template is rejected before mutation
        let lib2 = TemplateLibrary::from_gdml(
            &gdml::parse(
                r#"<templates>
                     <template name="bad">
                       <component name="hp" type="str" default="full"/>
                     </template>
                   </templates>"#,
            )
            .unwrap(),
        )
        .unwrap();
        let bad = lib2.resolve("bad").unwrap();
        let before = w.len();
        assert!(w.spawn_from_template(&bad, v(0.0, 0.0)).is_err());
        assert_eq!(w.len(), before, "failed spawn must not leave an entity");
    }

    /// Per-view metric handles are keyed by slot: a view imported at
    /// slot 1,000,000 and refreshed with metrics attached holds one
    /// entry, not a table sized by its slot number.
    #[test]
    fn far_view_slot_holds_one_metrics_entry() {
        let registry = MetricsRegistry::new();
        let mut w = world_with_hp();
        w.attach_metrics(&registry);
        let plan = Query::select().into_plan();
        w.import_view_at_slot(1_000_000, plan).unwrap();
        let e = w.spawn_at(v(1.0, 1.0));
        w.set_f32(e, "hp", 5.0).unwrap();
        w.refresh_views();
        assert_eq!(w.core_metrics().unwrap().view_slots_held(), 1);
        assert_eq!(registry.snapshot().counter("view.s1000000.refreshes"), 1);
    }

    #[test]
    fn rows_dump_deterministic() {
        let mut w = world_with_hp();
        let a = w.spawn_at(v(1.0, 1.0));
        w.set_f32(a, "hp", 5.0).unwrap();
        let rows = w.rows();
        assert_eq!(rows.len(), 2); // hp + pos
        assert_eq!(rows[0].1, "hp");
        assert_eq!(rows[1].1, "pos");
    }

    #[test]
    fn index_maintained_through_writes() {
        use crate::index::IndexKind;
        use gamedb_content::CmpOp;
        let mut w = world_with_hp();
        let a = w.spawn_at(v(0.0, 0.0));
        let b = w.spawn_at(v(1.0, 0.0));
        w.set_f32(a, "hp", 10.0).unwrap();
        w.set_f32(b, "hp", 50.0).unwrap();
        // backfill picks up existing data
        w.create_index("hp", IndexKind::Sorted).unwrap();
        let mut out = vec![];
        assert!(w.index_probe("hp", CmpOp::Lt, &Value::Float(30.0), &mut out));
        assert_eq!(out, vec![a]);

        // overwrite migrates the posting
        w.set_f32(a, "hp", 60.0).unwrap();
        out.clear();
        w.index_probe("hp", CmpOp::Lt, &Value::Float(30.0), &mut out);
        assert!(out.is_empty());
        out.clear();
        w.index_probe("hp", CmpOp::Ge, &Value::Float(50.0), &mut out);
        assert_eq!(out, vec![a, b]);

        // component removal and despawn both evict postings
        w.remove_component(a, "hp").unwrap();
        w.despawn(b);
        out.clear();
        w.index_probe("hp", CmpOp::Ge, &Value::Float(0.0), &mut out);
        assert!(out.is_empty());
        assert_eq!(w.index_on("hp").unwrap().len(), 0);
    }

    #[test]
    fn index_errors() {
        use crate::index::IndexKind;
        let mut w = world_with_hp();
        assert_eq!(
            w.create_index(POS, IndexKind::Hash),
            Err(CoreError::ReservedComponent(POS.into()))
        );
        assert_eq!(
            w.create_index("mana", IndexKind::Hash),
            Err(CoreError::UnknownComponent("mana".into()))
        );
        w.create_index("hp", IndexKind::Hash).unwrap();
        assert_eq!(
            w.create_index("hp", IndexKind::Sorted),
            Err(CoreError::DuplicateIndex("hp".into()))
        );
        assert!(w.drop_index("hp"));
        assert!(!w.drop_index("hp"));
        w.create_index("hp", IndexKind::Sorted).unwrap();
        assert_eq!(
            w.indexed_components().collect::<Vec<_>>(),
            vec![("hp", IndexKind::Sorted)]
        );
    }

    #[test]
    fn slot_reuse_does_not_resurrect_postings() {
        use crate::index::IndexKind;
        use gamedb_content::CmpOp;
        let mut w = world_with_hp();
        w.create_index("hp", IndexKind::Hash).unwrap();
        let a = w.spawn_at(v(0.0, 0.0));
        w.set_f32(a, "hp", 7.0).unwrap();
        w.despawn(a);
        let b = w.spawn(); // reuses a's slot with a bumped generation
        assert_eq!(b.index(), a.index());
        let mut out = vec![];
        w.index_probe("hp", CmpOp::Eq, &Value::Float(7.0), &mut out);
        assert!(out.is_empty());
        w.set_f32(b, "hp", 7.0).unwrap();
        out.clear();
        w.index_probe("hp", CmpOp::Eq, &Value::Float(7.0), &mut out);
        assert_eq!(out, vec![b]);
    }

    #[test]
    fn catalog_roundtrip_restores_indexes_views_and_identity() {
        use crate::index::IndexKind;
        use gamedb_content::CmpOp;
        let mut w = world_with_hp();
        w.define_component("gold", ValueType::Int).unwrap();
        let a = w.spawn_at(v(0.0, 0.0));
        let b = w.spawn_at(v(1.0, 0.0));
        w.set_f32(a, "hp", 10.0).unwrap();
        w.set_f32(b, "hp", 90.0).unwrap();
        w.create_index("hp", IndexKind::Sorted).unwrap();
        w.create_index("gold", IndexKind::Hash).unwrap();
        let dropped = w.register_view(Query::select());
        let wounded = w.register_view(Query::select().filter("hp", CmpOp::Lt, Value::Float(50.0)));
        w.drop_view(dropped);
        w.advance_tick_to(7);
        let cat = w.export_catalog();
        assert_eq!(cat.view_slots, 2);
        assert_eq!(cat.views.len(), 1);
        assert_eq!(cat.tick, 7);

        // rebuild a bare world with the same rows, then import
        let mut r = World::new();
        for (name, ty) in w.schema().map(|(n, t)| (n.to_string(), t)).collect::<Vec<_>>() {
            if name != POS {
                r.define_component(&name, ty).unwrap();
            }
        }
        for e in w.entity_vec() {
            r.restore_entity(e).unwrap();
        }
        for (e, comp, val) in w.rows() {
            r.set(e, &comp, val).unwrap();
        }
        r.import_catalog(&cat).unwrap();

        assert_eq!(r.lineage(), w.lineage());
        assert_eq!(r.tick(), 7);
        assert_eq!(
            r.indexed_components().collect::<Vec<_>>(),
            w.indexed_components().collect::<Vec<_>>()
        );
        // the pre-export handle resolves against the rebuilt world
        assert!(r.has_view(wounded));
        assert_eq!(r.view_rows(wounded), &[a]);
        assert!(!r.has_view(dropped), "dropped slot stays burned");
        // the burned slot is not reused by new registrations
        let fresh = r.register_view(Query::select());
        assert!(r.has_view(fresh));
        assert_ne!(fresh, dropped);
        assert_eq!(r.export_catalog().view_slots, 3);
        // re-import over matching state is a no-op
        r.drop_view(fresh);
        r.import_catalog(&cat).unwrap();
        assert_eq!(r.view_rows(wounded), &[a]);
    }

    #[test]
    fn catalog_import_conflicts_are_rejected() {
        use crate::index::IndexKind;
        use gamedb_content::CmpOp;
        let mut w = world_with_hp();
        w.create_index("hp", IndexKind::Sorted).unwrap();
        let v0 = w.register_view(Query::select());
        let cat = w.export_catalog();
        let _ = v0;

        let mut r = world_with_hp();
        r.create_index("hp", IndexKind::Hash).unwrap();
        assert_eq!(
            r.import_catalog(&cat),
            Err(CoreError::DuplicateIndex("hp".into()))
        );

        let mut r2 = world_with_hp();
        r2.register_view(Query::select().filter("hp", CmpOp::Lt, Value::Float(1.0)));
        assert_eq!(r2.import_catalog(&cat), Err(CoreError::ViewSlotConflict(0)));
    }

    #[test]
    fn find_view_and_slot_addressing() {
        use gamedb_content::CmpOp;
        let mut w = world_with_hp();
        let q = Query::select().filter("hp", CmpOp::Lt, Value::Float(5.0));
        let id = w.register_view(q.clone());
        let plan = q.into_plan();
        assert_eq!(w.find_view(&plan), Some(id));
        assert_eq!(w.find_view(&Query::select().into_plan()), None);
        assert_eq!(w.view_id_at(0), Some(id));
        assert_eq!(w.view_id_at(1), None);
        assert_eq!(w.view_ids(), vec![id]);
        // replay resolves a recorded slot to its handle, or to nothing
        assert!(w.drop_view(w.view_id_at(0).unwrap()));
        assert_eq!(w.view_id_at(0), None);
        assert_eq!(w.find_view(&plan), None);
    }

    /// A view's deltas are cleared by losing the subscription — here to
    /// the retention limit — and its rows never are.
    #[test]
    fn reset_view_changelogs_clears_without_losing_rows() {
        use gamedb_content::CmpOp;
        let mut w = world_with_hp();
        let id = w.register_view(Query::select().filter("hp", CmpOp::Lt, Value::Float(50.0)));
        w.subscribe_view(id);
        w.set_tap_retention(Some(1));
        let [a, b] = [1.0, 2.0].map(|hp| {
            let e = w.spawn_at(v(0.0, 0.0));
            w.set_f32(e, "hp", hp).unwrap();
            e
        });
        w.refresh_views();
        assert_eq!(w.take_view_delta::<EntityId>(id), None, "two entries outgrew a limit of one");
        assert_eq!(w.view_rows(id), &[a, b]);
    }

    #[test]
    fn advance_tick_never_moves_backward() {
        let mut w = World::new();
        w.advance_tick_to(5);
        assert_eq!(w.tick(), 5);
        w.advance_tick_to(3);
        assert_eq!(w.tick(), 5, "duplicated redo records are harmless");
    }

    #[test]
    fn restore_tick_moves_the_counter_without_folding() {
        use gamedb_content::CmpOp;
        let mut w = world_with_hp();
        let view = w.register_view(Query::select().filter("hp", CmpOp::Lt, Value::Float(50.0)));
        let a = w.spawn_at(v(0.0, 0.0));
        w.set_f32(a, "hp", 1.0).unwrap();
        w.restore_tick(9);
        assert_eq!(w.tick(), 9);
        assert!(w.pending_deltas() > 0, "the redo-side restore leaves the fold to its caller");
        assert!(w.view_rows(view).is_empty());
        w.restore_tick(4);
        assert_eq!(w.tick(), 9, "never backward");
        w.advance_tick_to(10);
        assert_eq!(w.pending_deltas(), 0, "the live-side advance folds first");
        assert_eq!(w.view_rows(view), &[a]);
    }

    #[test]
    fn bulk_load_rejects_what_a_row_restore_rejected() {
        let schema = vec![
            ("hp".to_string(), ValueType::Float),
            (POS.to_string(), ValueType::Vec2),
        ];
        let (a, b) = (EntityId::from_bits(3), EntityId::from_bits(3 | 1 << 32));
        assert_eq!(
            World::bulk_load(&schema, &[a, b]).unwrap_err(),
            CoreError::DeadEntity(b),
            "one slot, two generations"
        );
        let bad_pos = vec![(POS.to_string(), ValueType::Float)];
        assert!(matches!(
            World::bulk_load(&bad_pos, &[]),
            Err(CoreError::ReservedComponent(_))
        ));
        let twice = vec![schema[0].clone(), schema[0].clone()];
        assert!(matches!(
            World::bulk_load(&twice, &[]),
            Err(CoreError::DuplicateComponent(_))
        ));

        let mut load = World::bulk_load(&schema, &[a]).unwrap();
        // slot 3 holds `a`; a column must have its entry's type and
        // hold values at live slots only
        use crate::column::{Column, ColumnData};
        let at_a = |data| Column::from_parts(vec![false, false, false, true], data).unwrap();
        assert!(matches!(
            load.install_column(0, at_a(ColumnData::I64(vec![0, 0, 0, 1]))),
            Err(CoreError::TypeMismatch { .. })
        ));
        assert!(matches!(
            load.install_column(2, at_a(ColumnData::F32(vec![0.0; 4]))),
            Err(CoreError::UnknownComponent(_))
        ));
        let dead = Column::from_parts(vec![true, false], ColumnData::F32(vec![1.0, 0.0])).unwrap();
        assert_eq!(
            load.install_column(0, dead).unwrap_err(),
            CoreError::DeadEntity(EntityId::from_bits(0))
        );
        load.install_column(0, at_a(ColumnData::F32(vec![0.0, 0.0, 0.0, 7.0])))
            .unwrap();
        // `pos` keeps its reserved id wherever the schema lists it
        load.install_column(1, at_a(ColumnData::V2(vec![[0.0; 2], [0.0; 2], [0.0; 2], [2.0, 3.0]])))
            .unwrap();
        let mut w = load.finish();
        assert_eq!(w.get_f32(a, "hp"), Some(7.0));
        assert_eq!(w.approx_bounds(), Some((v(2.0, 3.0), v(2.0, 3.0))));
        // the grid is derived state: the catalog import builds it
        let cat = w.export_catalog();
        w.import_catalog(&cat).unwrap();
        let mut near = vec![];
        w.within(v(2.0, 3.0), 0.5, &mut near);
        assert_eq!(near, vec![a], "positions reach the grid when the catalog is imported");
    }

    /// The batch regroup sorts by interned id via an in-place
    /// permutation; a run whose ids form a 3-cycle (not a mere
    /// transposition) must still land every write on its own column,
    /// with per-slot write order preserved.
    #[test]
    fn apply_batch_regroups_cyclic_component_orders_correctly() {
        let mut w = World::new();
        // definition order b, c, a: name order != id order
        w.define_component("b", ValueType::Float).unwrap();
        w.define_component("c", ValueType::Float).unwrap();
        w.define_component("a", ValueType::Float).unwrap();
        let e = w.spawn_at(v(0.0, 0.0));
        let f = w.spawn_at(v(1.0, 0.0));
        let mut batch = WriteBatch::new();
        // key sequence [3, 1, 2, 3, ...]: sorting permutation has a
        // 3-cycle, which an inverse-permutation bug scrambles
        batch.set(e, "a", Value::Float(1.0));
        batch.set(e, "b", Value::Float(2.0));
        batch.set(e, "c", Value::Float(3.0));
        batch.set(f, "a", Value::Float(4.0));
        batch.set(e, "a", Value::Float(5.0)); // same slot, later write wins
        batch.set(f, "c", Value::Float(6.0));
        w.apply_batch(batch).unwrap();
        assert_eq!(w.get_f32(e, "a"), Some(5.0));
        assert_eq!(w.get_f32(e, "b"), Some(2.0));
        assert_eq!(w.get_f32(e, "c"), Some(3.0));
        assert_eq!(w.get_f32(f, "a"), Some(4.0));
        assert_eq!(w.get_f32(f, "c"), Some(6.0));
    }

    #[test]
    fn apply_batch_error_applies_exactly_the_prefix() {
        // `gold` writes before and after the failing op, in both column
        // definition orders: the regrouping must not decide which land
        for hp_first in [true, false] {
            let fresh = || {
                let mut w = World::new();
                let columns = [("hp", ValueType::Float), ("gold", ValueType::Int)];
                let order = if hp_first { [0, 1] } else { [1, 0] };
                for i in order {
                    w.define_component(columns[i].0, columns[i].1).unwrap();
                }
                w.create_index("gold", IndexKind::Sorted).unwrap();
                let (e1, e2, gone) = (w.spawn(), w.spawn(), w.spawn());
                w.despawn(gone);
                let tap = w.attach_tap();
                (w, tap, e1, e2, gone)
            };
            let (_, _, e1, e2, gone) = fresh();
            let bad = |case: usize, b: &mut WriteBatch| match case {
                0 => b.set(e1, "hp", Value::Str("x".into())),
                1 => b.set(gone, "gold", Value::Int(2)),
                2 => b.set_pos(gone, v(1.0, 1.0)),
                3 => b.set(e1, "mana", Value::Int(2)),
                // a dead entity outranks an unknown name
                _ => b.set(gone, "mana", Value::Int(2)),
            };
            let errors = [
                CoreError::TypeMismatch {
                    component: "hp".into(),
                    expected: ValueType::Float,
                    got: ValueType::Str,
                },
                CoreError::DeadEntity(gone),
                CoreError::DeadEntity(gone),
                CoreError::UnknownComponent("mana".into()),
                CoreError::DeadEntity(gone),
            ];
            for (case, err) in errors.iter().enumerate() {
                let (mut w, tap, ..) = fresh();
                let mut batch = WriteBatch::new();
                batch.set(e1, "gold", Value::Int(1));
                bad(case, &mut batch);
                batch.set(e2, "gold", Value::Int(3));
                assert_eq!(
                    w.apply_batch(batch).as_ref(),
                    Err(err),
                    "hp first: {hp_first}"
                );
                assert_eq!(
                    w.get(e1, "gold"),
                    Some(Value::Int(1)),
                    "the write before lands"
                );
                assert_eq!(w.get(e2, "gold"), None, "the write after does not");
                // state and records are those of the prefix alone
                let (mut want, want_tap, ..) = fresh();
                let mut prefix = WriteBatch::new();
                prefix.set(e1, "gold", Value::Int(1));
                want.apply_batch(prefix).unwrap();
                assert_eq!(w.rows(), want.rows());
                assert_eq!(w.tap_pending(tap), want.tap_pending(want_tap));
                let probe = |w: &World| {
                    let mut out = Vec::new();
                    w.index_probe("gold", CmpOp::Ge, &Value::Int(0), &mut out);
                    out
                };
                assert_eq!(probe(&w), vec![e1]);
            }
        }
    }

    #[test]
    fn records_carry_interned_ids_and_despawn_row_images() {
        let mut w = world_with_hp();
        w.define_component("gold", ValueType::Int).unwrap();
        let hp = w.component_id("hp").unwrap();
        let gold = w.component_id("gold").unwrap();
        assert_eq!(w.component_id(POS), Some(POS_ID));
        assert_eq!(w.component_name(hp), Some("hp"));

        let tap = w.attach_tap();
        let e = w.spawn_at(v(1.0, 2.0));
        w.set_f32(e, "hp", 5.0).unwrap();
        w.set(e, "gold", Value::Int(9)).unwrap();
        w.despawn(e);
        let ops: Vec<ChangeOp> = w.tap_pending(tap).iter().map(|c| c.op.clone()).collect();
        assert!(matches!(&ops[1], ChangeOp::Set { component, .. } if *component == POS_ID));
        assert!(matches!(&ops[2], ChangeOp::Set { component, .. } if *component == hp));
        // the despawn record carries the full dropped row, id-ordered
        let ChangeOp::Despawned { row, .. } = &ops[4] else {
            panic!("expected Despawned, got {:?}", ops[4]);
        };
        assert_eq!(
            row,
            &vec![
                (POS_ID, Value::Vec2(1.0, 2.0)),
                (hp, Value::Float(5.0)),
                (gold, Value::Int(9)),
            ]
        );
        w.detach_tap(tap);
    }

    #[test]
    fn component_definitions_are_catalog_records_while_tapped() {
        let mut w = World::new();
        // defined before any tap: not recorded (snapshot carries it)
        w.define_component("early", ValueType::Int).unwrap();
        let tap = w.attach_tap();
        w.define_component("late", ValueType::Float).unwrap();
        let ops: Vec<ChangeOp> = w.tap_pending(tap).iter().map(|c| c.op.clone()).collect();
        assert_eq!(ops.len(), 1);
        assert!(matches!(
            &ops[0],
            ChangeOp::ComponentDefined { component, name, ty }
                if *component == w.component_id("late").unwrap()
                    && name == "late"
                    && *ty == ValueType::Float
        ));
        // template spawns auto-define through the same recorded path
        use gamedb_content::{gdml, TemplateLibrary};
        w.ack_tap(tap);
        let lib = TemplateLibrary::from_gdml(
            &gdml::parse(
                r#"<templates><template name="imp">
                     <component name="fresh" type="float" default="1"/>
                   </template></templates>"#,
            )
            .unwrap(),
        )
        .unwrap();
        w.spawn_from_template(&lib.resolve("imp").unwrap(), v(0.0, 0.0))
            .unwrap();
        assert!(w.tap_pending(tap).iter().any(|c| matches!(
            &c.op,
            ChangeOp::ComponentDefined { name, .. } if name == "fresh"
        )));
        w.detach_tap(tap);
    }

    #[test]
    fn ensure_component_at_is_idempotent_redo() {
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        let hp = w.component_id("hp").unwrap();
        // exact duplicate: clean no-op
        assert_eq!(w.ensure_component_at(hp, "hp", ValueType::Float), Ok(false));
        // same name, wrong id or type: conflict
        assert!(w
            .ensure_component_at(ComponentId::from_u32(9), "hp", ValueType::Float)
            .is_err());
        assert!(w.ensure_component_at(hp, "hp", ValueType::Int).is_err());
        // out-of-order id for a new name: rejected (defines replay in order)
        assert!(w
            .ensure_component_at(ComponentId::from_u32(7), "mana", ValueType::Float)
            .is_err());
        // the next id in order: defined
        let next = ComponentId::from_u32(w.component_count() as u32);
        assert_eq!(w.ensure_component_at(next, "mana", ValueType::Float), Ok(true));
        assert_eq!(w.component_id("mana"), Some(next));
    }

    /// ISSUE-5 satellite: a leaked tap (consumer dropped its `TapId`
    /// without detaching) must not grow the retained window without
    /// bound once a retention limit is set.
    #[test]
    fn leaked_tap_retention_is_bounded_at_world_level() {
        let mut w = world_with_hp();
        let e = w.spawn_at(v(0.0, 0.0));
        w.set_tap_retention(Some(64));
        let leaked = w.attach_tap(); // never acked, never detached
        let live = w.attach_tap();
        for i in 0..1_000 {
            w.set_f32(e, "hp", i as f32).unwrap();
            if i % 10 == 0 {
                w.ack_tap(live);
            }
        }
        w.ack_tap(live);
        assert!(
            w.retained_changes() <= 65,
            "leaked tap must not pin the window: {} retained",
            w.retained_changes()
        );
        assert!(w.tap_evicted(leaked));
        assert!(!w.tap_evicted(live));
        // the live tap keeps streaming exactly
        w.set_f32(e, "hp", -1.0).unwrap();
        assert_eq!(w.tap_pending(live).len(), 1);
        assert!(w.tap_pending(leaked).is_empty());
        // detaching the evicted tap frees its slot for reuse
        assert!(w.detach_tap(leaked));
        assert!(!w.tap_evicted(leaked));
    }
}
