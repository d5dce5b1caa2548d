//! Write-ahead logging of world mutations between checkpoints.
//!
//! Snapshot-only persistence (the paper's periodic checkpoints) loses
//! everything since the last snapshot. A WAL closes that gap: each world
//! mutation appends a small redo record; recovery loads the last snapshot
//! and replays the log tail. The cost is a durable write per mutation
//! batch instead of per checkpoint — exactly the trade the experiment
//! suite prices against checkpoint policies (E9's `wal` row).
//!
//! Records are length-prefixed and checksummed; a torn tail (crash mid-
//! append) is detected and cleanly ignored, so recovery is always to a
//! record boundary.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use gamedb_content::{Value, ValueType};
use gamedb_core::{
    Change, ChangeOp, ComponentId, CoreError, EntityId, IndexKind, ViewPlan, World, WorldCatalog,
};
use gamedb_spatial::Vec2;

use crate::snapshot::{
    checksum, get_plan, get_query, get_str, get_value, kind_tag, put_plan, put_str,
    put_value, tag_kind, tag_type_pub, type_tag_pub, SnapshotError,
};

/// How a WAL record names a component: by interned id (the current
/// framing — a 1-byte varint for the first 128 columns) or by name (the
/// pre-interning framing, kept decodable so old logs replay
/// bit-identically). Encoding preserves the form, so re-framing a
/// legacy log (compaction) never silently upgrades records whose
/// interner table is not durable.
#[derive(Debug, Clone, PartialEq)]
pub enum CompRef {
    /// Interned column id; resolved against the recovering world's
    /// interner (snapshot table + preceding [`WalRecord::Define`]s).
    Id(ComponentId),
    /// Legacy string-named record.
    Name(String),
}

impl From<&str> for CompRef {
    fn from(s: &str) -> Self {
        CompRef::Name(s.to_string())
    }
}

impl From<String> for CompRef {
    fn from(s: String) -> Self {
        CompRef::Name(s)
    }
}

impl From<ComponentId> for CompRef {
    fn from(id: ComponentId) -> Self {
        CompRef::Id(id)
    }
}

impl CompRef {
    /// Resolve to an interned id against `world`. Legacy refs are looked
    /// up by name; interned refs require the world's table to know the
    /// id (a `Define` record or the snapshot schema always precedes use).
    fn resolve(&self, world: &World) -> Result<ComponentId, CoreError> {
        match self {
            CompRef::Name(n) => world
                .component_id(n)
                .ok_or_else(|| CoreError::UnknownComponent(n.clone())),
            CompRef::Id(id) => match world.component_name(*id) {
                Some(_) => Ok(*id),
                None => Err(CoreError::UnknownComponent(format!("{id}"))),
            },
        }
    }
}

/// LEB128 varint for component ids: 1 byte for the first 128 columns.
pub(crate) fn put_varint(buf: &mut BytesMut, mut v: u32) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

pub(crate) fn get_varint(buf: &mut Bytes) -> Result<u32, SnapshotError> {
    let mut v: u32 = 0;
    for shift in (0..35).step_by(7) {
        if buf.remaining() < 1 {
            return Err(SnapshotError::Truncated);
        }
        let byte = buf.get_u8();
        v |= ((byte & 0x7f) as u32) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(SnapshotError::Corrupt("varint overruns u32".into()))
}

/// Encoded length of a varint (wire-size accounting).
pub fn varint_len(v: u32) -> usize {
    match v {
        0..=0x7f => 1,
        0x80..=0x3fff => 2,
        0x4000..=0x1f_ffff => 3,
        0x20_0000..=0xfff_ffff => 4,
        _ => 5,
    }
}

/// One redo record.
///
/// Beyond row mutations, the log carries **catalog records**: index and
/// standing-view lifecycle operations performed since the last
/// checkpoint. Without them, a recovered world would come back with its
/// rows but without its access paths and subscriptions — a different
/// database wearing the same data.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Set a component (also used for position updates).
    Set {
        entity: EntityId,
        component: CompRef,
        value: Value,
    },
    /// Spawn an entity at a position with a specific id.
    Spawn { entity: EntityId, x: f32, y: f32 },
    /// Despawn an entity.
    Despawn { entity: EntityId },
    /// Marks a completed checkpoint: records before this point are
    /// superseded by snapshot `seq`.
    CheckpointMark { seq: u64 },
    /// Remove a component from an entity.
    RemoveComponent { entity: EntityId, component: CompRef },
    /// Define a component column at an exact interned id — the durable
    /// half of the interner for components defined after the last
    /// snapshot (the snapshot schema, written in id order, carries the
    /// rest). Always precedes the first interned record naming the id.
    Define {
        component: ComponentId,
        name: String,
        ty: ValueType,
    },
    /// Create a secondary index on a component.
    CreateIndex { component: CompRef, kind: IndexKind },
    /// Drop the secondary index on a component.
    DropIndex { component: CompRef },
    /// Register a standing view at an exact slot. Replay re-materializes
    /// it from post-replay row state; the slot is recorded so pre-crash
    /// [`gamedb_core::ViewId`] handles keep resolving after recovery.
    RegisterPlanView { slot: u32, plan: ViewPlan },
    /// Drop the standing view at a slot.
    DropView { slot: u32 },
    /// Move a spatial view's disk (interest bubbles following a focus).
    RetargetView { slot: u32, x: f32, y: f32, radius: f32 },
    /// Advance the tick counter to an absolute value, so recovered
    /// worlds agree with the oracle on *when* they are — every change
    /// record after recovery is stamped with it.
    TickTo { tick: u64 },
    /// Bring an entity to life with an exact id and **no** position (the
    /// redo of `World::spawn`; positioned spawns arrive as a `Restore`
    /// followed by a `Set` of `pos`, which is how the change stream
    /// records them).
    Restore { entity: EntityId },
    /// One group-committed batch: every op of one change-stream segment
    /// in one frame. The frame checksum covers the whole batch, so a
    /// torn or corrupt batch loses *all* of its ops — batch commits are
    /// atomic at the durability layer.
    Batch { ops: Vec<WalRecord> },
}

const TAG_SET: u8 = 1;
const TAG_SPAWN: u8 = 2;
const TAG_DESPAWN: u8 = 3;
const TAG_MARK: u8 = 4;
const TAG_REMOVE: u8 = 5;
const TAG_CREATE_INDEX: u8 = 6;
const TAG_DROP_INDEX: u8 = 7;
// a bare standing query: written by logs that predate the single view
// engine, decoded as the one-leaf plan it always meant
const TAG_REGISTER_VIEW: u8 = 8;
const TAG_DROP_VIEW: u8 = 9;
const TAG_RETARGET_VIEW: u8 = 10;
const TAG_TICK: u8 = 11;
const TAG_BATCH: u8 = 12;
const TAG_RESTORE: u8 = 13;
// interned framing (ISSUE-5): component ids as varints instead of
// length-prefixed names; tags 1/5/6/7 remain decodable for old logs
const TAG_DEFINE: u8 = 14;
const TAG_SET_ID: u8 = 15;
const TAG_REMOVE_ID: u8 = 16;
const TAG_CREATE_INDEX_ID: u8 = 17;
const TAG_DROP_INDEX_ID: u8 = 18;
const TAG_REGISTER_PLAN_VIEW: u8 = 19;

// value-type tags reuse the snapshot module's ordering
fn value_tag(v: &Value) -> u8 {
    match v {
        Value::Float(_) => 0,
        Value::Int(_) => 1,
        Value::Bool(_) => 2,
        Value::Str(_) => 3,
        Value::Vec2(..) => 4,
    }
}

fn tag_value_type(tag: u8) -> Result<gamedb_content::ValueType, SnapshotError> {
    use gamedb_content::ValueType::*;
    Ok(match tag {
        0 => Float,
        1 => Int,
        2 => Bool,
        3 => Str,
        4 => Vec2,
        t => return Err(SnapshotError::BadTypeTag(t)),
    })
}

impl WalRecord {
    /// Encode as a framed record: `len | payload | checksum(payload)`.
    pub fn encode(&self) -> Bytes {
        let mut payload = BytesMut::new();
        self.put_payload(&mut payload);
        let mut framed = BytesMut::with_capacity(payload.len() + 8);
        framed.put_u32_le(payload.len() as u32);
        let sum = checksum(&payload);
        framed.put_slice(&payload);
        framed.put_u32_le(sum);
        framed.freeze()
    }

    /// The record's payload bytes, unframed (batch members nest these).
    fn put_payload(&self, payload: &mut BytesMut) {
        match self {
            WalRecord::Set {
                entity,
                component,
                value,
            } => match component {
                CompRef::Id(id) => {
                    payload.put_u8(TAG_SET_ID);
                    payload.put_u64_le(entity.to_bits());
                    put_varint(payload, id.as_u32());
                    payload.put_u8(value_tag(value));
                    put_value(payload, value);
                }
                CompRef::Name(name) => {
                    payload.put_u8(TAG_SET);
                    payload.put_u64_le(entity.to_bits());
                    payload.put_u32_le(name.len() as u32);
                    payload.put_slice(name.as_bytes());
                    payload.put_u8(value_tag(value));
                    put_value(payload, value);
                }
            },
            WalRecord::Define {
                component,
                name,
                ty,
            } => {
                payload.put_u8(TAG_DEFINE);
                put_varint(payload, component.as_u32());
                put_str(payload, name);
                payload.put_u8(type_tag_pub(*ty));
            }
            WalRecord::Spawn { entity, x, y } => {
                payload.put_u8(TAG_SPAWN);
                payload.put_u64_le(entity.to_bits());
                payload.put_f32_le(*x);
                payload.put_f32_le(*y);
            }
            WalRecord::Despawn { entity } => {
                payload.put_u8(TAG_DESPAWN);
                payload.put_u64_le(entity.to_bits());
            }
            WalRecord::CheckpointMark { seq } => {
                payload.put_u8(TAG_MARK);
                payload.put_u64_le(*seq);
            }
            WalRecord::RemoveComponent { entity, component } => match component {
                CompRef::Id(id) => {
                    payload.put_u8(TAG_REMOVE_ID);
                    payload.put_u64_le(entity.to_bits());
                    put_varint(payload, id.as_u32());
                }
                CompRef::Name(name) => {
                    payload.put_u8(TAG_REMOVE);
                    payload.put_u64_le(entity.to_bits());
                    put_str(payload, name);
                }
            },
            WalRecord::CreateIndex { component, kind } => match component {
                CompRef::Id(id) => {
                    payload.put_u8(TAG_CREATE_INDEX_ID);
                    payload.put_u8(kind_tag(*kind));
                    put_varint(payload, id.as_u32());
                }
                CompRef::Name(name) => {
                    payload.put_u8(TAG_CREATE_INDEX);
                    payload.put_u8(kind_tag(*kind));
                    put_str(payload, name);
                }
            },
            WalRecord::DropIndex { component } => match component {
                CompRef::Id(id) => {
                    payload.put_u8(TAG_DROP_INDEX_ID);
                    put_varint(payload, id.as_u32());
                }
                CompRef::Name(name) => {
                    payload.put_u8(TAG_DROP_INDEX);
                    put_str(payload, name);
                }
            },
            WalRecord::RegisterPlanView { slot, plan } => {
                payload.put_u8(TAG_REGISTER_PLAN_VIEW);
                payload.put_u32_le(*slot);
                put_plan(payload, plan);
            }
            WalRecord::DropView { slot } => {
                payload.put_u8(TAG_DROP_VIEW);
                payload.put_u32_le(*slot);
            }
            WalRecord::RetargetView { slot, x, y, radius } => {
                payload.put_u8(TAG_RETARGET_VIEW);
                payload.put_u32_le(*slot);
                payload.put_f32_le(*x);
                payload.put_f32_le(*y);
                payload.put_f32_le(*radius);
            }
            WalRecord::TickTo { tick } => {
                payload.put_u8(TAG_TICK);
                payload.put_u64_le(*tick);
            }
            WalRecord::Restore { entity } => {
                payload.put_u8(TAG_RESTORE);
                payload.put_u64_le(entity.to_bits());
            }
            WalRecord::Batch { ops } => {
                payload.put_u8(TAG_BATCH);
                payload.put_u32_le(ops.len() as u32);
                for op in ops {
                    let mut inner = BytesMut::new();
                    op.put_payload(&mut inner);
                    payload.put_u32_le(inner.len() as u32);
                    payload.put_slice(&inner);
                }
            }
        }
    }

    fn decode_payload(mut p: Bytes) -> Result<WalRecord, SnapshotError> {
        if p.remaining() < 1 {
            return Err(SnapshotError::Truncated);
        }
        let tag = p.get_u8();
        macro_rules! need {
            ($n:expr) => {
                if p.remaining() < $n {
                    return Err(SnapshotError::Truncated);
                }
            };
        }
        Ok(match tag {
            TAG_SET => {
                need!(8 + 4);
                let entity = EntityId::from_bits(p.get_u64_le());
                let len = p.get_u32_le() as usize;
                need!(len + 1);
                let name_bytes = p.copy_to_bytes(len);
                let component = String::from_utf8(name_bytes.to_vec())
                    .map_err(|_| SnapshotError::Corrupt("non-utf8 component".into()))?;
                let vt = tag_value_type(p.get_u8())?;
                let value = get_value(&mut p, vt)?;
                WalRecord::Set {
                    entity,
                    component: CompRef::Name(component),
                    value,
                }
            }
            TAG_SET_ID => {
                need!(8);
                let entity = EntityId::from_bits(p.get_u64_le());
                let component = ComponentId::from_u32(get_varint(&mut p)?);
                need!(1);
                let vt = tag_value_type(p.get_u8())?;
                let value = get_value(&mut p, vt)?;
                WalRecord::Set {
                    entity,
                    component: CompRef::Id(component),
                    value,
                }
            }
            TAG_DEFINE => {
                let component = ComponentId::from_u32(get_varint(&mut p)?);
                let name = get_str(&mut p)?;
                need!(1);
                let ty = tag_type_pub(p.get_u8())?;
                WalRecord::Define {
                    component,
                    name,
                    ty,
                }
            }
            TAG_SPAWN => {
                need!(16);
                let entity = EntityId::from_bits(p.get_u64_le());
                let x = p.get_f32_le();
                let y = p.get_f32_le();
                WalRecord::Spawn { entity, x, y }
            }
            TAG_DESPAWN => {
                need!(8);
                WalRecord::Despawn {
                    entity: EntityId::from_bits(p.get_u64_le()),
                }
            }
            TAG_MARK => {
                need!(8);
                WalRecord::CheckpointMark {
                    seq: p.get_u64_le(),
                }
            }
            TAG_REMOVE => {
                need!(8);
                let entity = EntityId::from_bits(p.get_u64_le());
                WalRecord::RemoveComponent {
                    entity,
                    component: CompRef::Name(get_str(&mut p)?),
                }
            }
            TAG_REMOVE_ID => {
                need!(8);
                let entity = EntityId::from_bits(p.get_u64_le());
                WalRecord::RemoveComponent {
                    entity,
                    component: CompRef::Id(ComponentId::from_u32(get_varint(&mut p)?)),
                }
            }
            TAG_CREATE_INDEX => {
                need!(1);
                let kind = tag_kind(p.get_u8())?;
                WalRecord::CreateIndex {
                    component: CompRef::Name(get_str(&mut p)?),
                    kind,
                }
            }
            TAG_CREATE_INDEX_ID => {
                need!(1);
                let kind = tag_kind(p.get_u8())?;
                WalRecord::CreateIndex {
                    component: CompRef::Id(ComponentId::from_u32(get_varint(&mut p)?)),
                    kind,
                }
            }
            TAG_DROP_INDEX => WalRecord::DropIndex {
                component: CompRef::Name(get_str(&mut p)?),
            },
            TAG_DROP_INDEX_ID => WalRecord::DropIndex {
                component: CompRef::Id(ComponentId::from_u32(get_varint(&mut p)?)),
            },
            TAG_REGISTER_VIEW => {
                need!(4);
                let slot = p.get_u32_le();
                WalRecord::RegisterPlanView {
                    slot,
                    plan: get_query(&mut p)?.into_plan(),
                }
            }
            TAG_REGISTER_PLAN_VIEW => {
                need!(4);
                let slot = p.get_u32_le();
                WalRecord::RegisterPlanView {
                    slot,
                    plan: get_plan(&mut p)?,
                }
            }
            TAG_DROP_VIEW => {
                need!(4);
                WalRecord::DropView {
                    slot: p.get_u32_le(),
                }
            }
            TAG_RETARGET_VIEW => {
                need!(16);
                let slot = p.get_u32_le();
                let x = p.get_f32_le();
                let y = p.get_f32_le();
                let radius = p.get_f32_le();
                WalRecord::RetargetView { slot, x, y, radius }
            }
            TAG_TICK => {
                need!(8);
                WalRecord::TickTo {
                    tick: p.get_u64_le(),
                }
            }
            TAG_RESTORE => {
                need!(8);
                WalRecord::Restore {
                    entity: EntityId::from_bits(p.get_u64_le()),
                }
            }
            TAG_BATCH => {
                need!(4);
                let count = p.get_u32_le() as usize;
                let mut ops = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    need!(4);
                    let len = p.get_u32_le() as usize;
                    need!(len);
                    let inner = p.copy_to_bytes(len);
                    ops.push(WalRecord::decode_payload(inner)?);
                }
                WalRecord::Batch { ops }
            }
            t => return Err(SnapshotError::Corrupt(format!("unknown wal tag {t}"))),
        })
    }

    /// Redo a record during recovery, before any derived state exists:
    /// row records go through the world's write methods (with no grid,
    /// index or view to maintain), catalog records edit `catalog`, from
    /// which the derived state is then built once
    /// ([`World::import_catalog`]). **Redo is idempotent**: a record
    /// whose effect is already present (a spawn of a live entity with the
    /// exact same id, a duplicate identical index or view, a stale
    /// despawn or drop) is a clean no-op. An at-least-once log append —
    /// the checksum-valid duplicated tail a retried write leaves behind —
    /// therefore recovers to the same world as an exactly-once log.
    /// Genuine conflicts (same slot, different definition) still error,
    /// with the error the live world's own method returns.
    pub(crate) fn redo(
        &self,
        world: &mut World,
        catalog: &mut WorldCatalog,
    ) -> Result<(), CoreError> {
        match self {
            WalRecord::Set {
                entity,
                component,
                value,
            } => {
                // legacy string-named records auto-define missing
                // columns (pre-interning logs carried no Define
                // records); interned records resolve against the table
                // the snapshot + preceding Defines restored
                if let CompRef::Name(name) = component {
                    if world.component_type(name).is_none() && name != gamedb_core::POS {
                        world.define_component(name, value.value_type())?;
                    }
                }
                let component = component.resolve(world)?;
                world.set_by_id(*entity, component, value.clone())
            }
            WalRecord::Define {
                component,
                name,
                ty,
            } => world.ensure_component_at(*component, name, *ty).map(|_| ()),
            WalRecord::Spawn { entity, x, y } => {
                if !world.is_live(*entity) {
                    world.restore_entity(*entity)?;
                }
                world.set_pos(*entity, Vec2::new(*x, *y))
            }
            WalRecord::Despawn { entity } => {
                world.despawn(*entity);
                Ok(())
            }
            WalRecord::CheckpointMark { .. } => Ok(()),
            WalRecord::RemoveComponent { entity, component } => {
                // a column the replay never (re)defined holds nothing to
                // remove; a stale entity id means the despawn already won
                match component.resolve(world) {
                    Ok(component) if world.is_live(*entity) => {
                        world.remove_component_by_id(*entity, component).map(|_| ())
                    }
                    _ => Ok(()),
                }
            }
            WalRecord::Restore { entity } => {
                if !world.is_live(*entity) {
                    world.restore_entity(*entity)?;
                }
                Ok(())
            }
            WalRecord::Batch { ops } => ops.iter().try_for_each(|op| op.redo(world, catalog)),
            WalRecord::CreateIndex { component, kind } => {
                let cid = component.resolve(world)?;
                let name = world.component_name(cid).unwrap_or_default().to_string();
                let at = catalog.indexes.binary_search_by(|(n, _)| n.as_str().cmp(&name));
                match at {
                    Ok(at) if catalog.indexes[at].1 == *kind => Ok(()),
                    Ok(_) => Err(CoreError::DuplicateIndex(name)),
                    Err(_) if cid == gamedb_core::POS_ID => Err(CoreError::ReservedComponent(name)),
                    Err(at) => {
                        catalog.indexes.insert(at, (name, *kind));
                        Ok(())
                    }
                }
            }
            WalRecord::DropIndex { component } => {
                let component = component.resolve(world).ok();
                if let Some(name) = component.and_then(|c| world.component_name(c)) {
                    catalog.indexes.retain(|(n, _)| n != name);
                }
                Ok(())
            }
            WalRecord::RegisterPlanView { slot, plan } => {
                match catalog.views.binary_search_by_key(slot, |(s, _)| *s) {
                    Ok(at) if catalog.views[at].1 == *plan => Ok(()),
                    Ok(_) => Err(CoreError::ViewSlotConflict(*slot)),
                    Err(at) => {
                        plan.validate()?;
                        catalog.views.insert(at, (*slot, plan.clone()));
                        catalog.view_slots = catalog.view_slots.max(slot.saturating_add(1));
                        Ok(())
                    }
                }
            }
            // a dead slot means the drop already won: a clean no-op
            WalRecord::DropView { slot } => {
                catalog.views.retain(|(s, _)| s != slot);
                Ok(())
            }
            // a dead slot means the drop already won; a join or group
            // view at the slot is a log no live world wrote: an error
            WalRecord::RetargetView { slot, x, y, radius } => {
                match catalog.views.iter_mut().find(|(s, _)| s == slot) {
                    Some((_, plan)) => plan.retarget(Vec2::new(*x, *y), *radius),
                    None => Ok(()),
                }
            }
            WalRecord::TickTo { tick } => {
                catalog.tick = catalog.tick.max(*tick);
                Ok(())
            }
        }
    }

    /// The redo record for one change-stream record — how the
    /// durability tap turns a pending segment into WAL ops. Only the
    /// redo image is kept (`new` values); the stream's `old` values
    /// exist for other consumers.
    pub fn from_change(change: &Change) -> WalRecord {
        match &change.op {
            ChangeOp::Set {
                id,
                component,
                new,
                ..
            } => WalRecord::Set {
                entity: *id,
                component: CompRef::Id(*component),
                value: new.clone(),
            },
            ChangeOp::Removed { id, component, .. } => WalRecord::RemoveComponent {
                entity: *id,
                component: CompRef::Id(*component),
            },
            ChangeOp::Spawned { id } => WalRecord::Restore { entity: *id },
            // the WAL needs only the redo image: the row the stream
            // carries exists for other consumers (wealth fold, deltas)
            ChangeOp::Despawned { id, .. } => WalRecord::Despawn { entity: *id },
            ChangeOp::ComponentDefined {
                component,
                name,
                ty,
            } => WalRecord::Define {
                component: *component,
                name: name.clone(),
                ty: *ty,
            },
            ChangeOp::CreateIndex { component, kind } => WalRecord::CreateIndex {
                component: CompRef::Id(*component),
                kind: *kind,
            },
            ChangeOp::DropIndex { component } => WalRecord::DropIndex {
                component: CompRef::Id(*component),
            },
            ChangeOp::RegisterPlanView { slot, plan } => WalRecord::RegisterPlanView {
                slot: *slot,
                plan: plan.clone(),
            },
            ChangeOp::DropView { slot } => WalRecord::DropView { slot: *slot },
            ChangeOp::RetargetView { slot, x, y, radius } => WalRecord::RetargetView {
                slot: *slot,
                x: *x,
                y: *y,
                radius: *radius,
            },
            ChangeOp::TickTo { tick } => WalRecord::TickTo { tick: *tick },
        }
    }
}

/// Walk a log buffer frame by frame, yielding each frame's payload once
/// its length and checksum hold; a torn or corrupt frame ends the log.
fn frames(data: &[u8]) -> impl Iterator<Item = &[u8]> {
    let mut pos = 0usize;
    std::iter::from_fn(move || {
        let rest = &data[pos..];
        if rest.len() < 8 {
            return None;
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
        if rest.len() - 8 < len {
            return None; // torn frame
        }
        let payload = &rest[4..4 + len];
        let stored = u32::from_le_bytes(rest[4 + len..8 + len].try_into().expect("4 bytes"));
        if checksum(payload) != stored {
            return None; // corrupt tail
        }
        pos += 8 + len;
        Some(payload)
    })
}

/// Decode a log buffer into records, stopping cleanly at a torn tail.
///
/// Returns the records and the number of bytes of valid log consumed.
pub fn decode_log(data: &[u8]) -> (Vec<WalRecord>, usize) {
    let mut records = Vec::new();
    let mut consumed = 0usize;
    for payload in frames(data) {
        match WalRecord::decode_payload(Bytes::copy_from_slice(payload)) {
            Ok(r) => records.push(r),
            Err(_) => break,
        }
        consumed += 8 + payload.len();
    }
    (records, consumed)
}

/// The `seq` of a frame that is a [`WalRecord::CheckpointMark`], read
/// off the payload without decoding it.
fn mark_seq(payload: &[u8]) -> Option<u64> {
    match payload {
        [TAG_MARK, seq @ ..] => seq.try_into().ok().map(u64::from_le_bytes),
        _ => None,
    }
}

/// The tail of a log after snapshot `snapshot_seq`'s checkpoint mark,
/// decoded: earlier records are already reflected in the snapshot, and
/// only the tail is decoded — every frame is still walked and
/// checksummed, but what recovery pays to decode does not grow with the
/// history a log retains.
///
/// **No matching mark ⇒ no tail.** Log appends are ordered, so a record
/// written after snapshot `seq` can only exist in the durable log if the
/// mark for `seq` made it there first; a missing mark means the crash
/// tore the log at (or before) the mark itself, and every surviving
/// record predates the snapshot. Replaying the whole log in that
/// situation re-applies history the snapshot already contains,
/// resurrecting despawned generations and un-dropping views. The
/// crash-point sweep in [`crate::crashpoint`] exercises exactly this
/// window.
///
/// A tail frame that does not decode ends the log there, like a torn
/// one.
pub(crate) fn decode_tail(log: &[u8], snapshot_seq: u64) -> Vec<WalRecord> {
    let frames: Vec<&[u8]> = frames(log).collect();
    let Some(mark) = frames
        .iter()
        .rposition(|p| mark_seq(p) == Some(snapshot_seq))
    else {
        return Vec::new();
    };
    frames[mark + 1..]
        .iter()
        .map_while(|p| WalRecord::decode_payload(Bytes::copy_from_slice(p)).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gamedb_content::ValueType;
    use gamedb_core::Query;

    impl WalRecord {
        /// The live-replay oracle recovery's redo is held to: a record
        /// applied straight onto a world whose derived state exists, a
        /// catalog record through the world's own catalog method (which
        /// builds, drops or moves its index or view on the spot). A
        /// replayed `TickTo` moves the counter without folding.
        pub(crate) fn apply(&self, world: &mut World) -> Result<(), CoreError> {
            match self {
                WalRecord::CreateIndex { component, kind } => {
                    let cid = component.resolve(world)?;
                    let name = world.component_name(cid).unwrap_or_default().to_string();
                    match world.index_on(&name) {
                        Some(idx) if idx.kind() == *kind => Ok(()),
                        _ => world.create_index(&name, *kind),
                    }
                }
                WalRecord::DropIndex { component } => {
                    if let Ok(component) = component.resolve(world) {
                        world.drop_index_by_id(component);
                    }
                    Ok(())
                }
                WalRecord::RegisterPlanView { slot, plan } => {
                    world.import_view_at_slot(*slot, plan.clone()).map(|_| ())
                }
                WalRecord::DropView { slot } => {
                    if let Some(view) = world.view_id_at(*slot) {
                        world.drop_view(view);
                    }
                    Ok(())
                }
                WalRecord::RetargetView { slot, x, y, radius } => match world.view_id_at(*slot) {
                    Some(view) => world.retarget_view(view, Vec2::new(*x, *y), *radius),
                    None => Ok(()),
                },
                WalRecord::TickTo { tick } => {
                    world.restore_tick(*tick);
                    Ok(())
                }
                WalRecord::Batch { ops } => ops.iter().try_for_each(|op| op.apply(world)),
                row => row.redo(world, &mut WorldCatalog::default()),
            }
        }
    }

    /// The oracle's tail replay: [`decode_tail`], each record applied
    /// live. Returns the number of records applied.
    pub(crate) fn replay_log_tail(
        world: &mut World,
        log: &[u8],
        snapshot_seq: u64,
    ) -> Result<usize, CoreError> {
        let tail = decode_tail(log, snapshot_seq);
        tail.iter().try_for_each(|r| r.apply(world))?;
        Ok(tail.len())
    }

    fn sample_records() -> Vec<WalRecord> {
        use gamedb_content::CmpOp;
        let e = EntityId::from_bits(5 | (2u64 << 32));
        vec![
            WalRecord::Spawn {
                entity: e,
                x: 1.5,
                y: -2.0,
            },
            WalRecord::Set {
                entity: e,
                component: "hp".into(),
                value: Value::Float(77.5),
            },
            WalRecord::Set {
                entity: e,
                component: "name".into(),
                value: Value::Str("grünbart".into()),
            },
            WalRecord::CreateIndex {
                component: "hp".into(),
                kind: IndexKind::Sorted,
            },
            WalRecord::RegisterPlanView {
                slot: 0,
                plan: Query::select()
                    .filter("hp", CmpOp::Lt, Value::Float(50.0))
                    .within(Vec2::new(1.0, 2.0), 9.5)
                    .excluding(e)
                    .into_plan(),
            },
            WalRecord::RetargetView {
                slot: 0,
                x: -3.0,
                y: 4.0,
                radius: 2.5,
            },
            WalRecord::TickTo { tick: 17 },
            WalRecord::RemoveComponent {
                entity: e,
                component: "name".into(),
            },
            WalRecord::DropView { slot: 0 },
            WalRecord::DropIndex {
                component: "hp".into(),
            },
            WalRecord::CheckpointMark { seq: 3 },
            WalRecord::Despawn { entity: e },
            // the batch framing group commit writes: one frame, many ops
            WalRecord::Batch {
                ops: vec![
                    WalRecord::Restore { entity: e },
                    WalRecord::Set {
                        entity: e,
                        component: "hp".into(),
                        value: Value::Float(12.25),
                    },
                    WalRecord::Set {
                        entity: e,
                        component: "pos".into(),
                        value: Value::Vec2(4.0, -8.0),
                    },
                    WalRecord::TickTo { tick: 18 },
                ],
            },
            WalRecord::Restore { entity: e },
        ]
    }

    #[test]
    fn records_roundtrip() {
        let mut log = Vec::new();
        for r in sample_records() {
            log.extend_from_slice(&r.encode());
        }
        let (decoded, consumed) = decode_log(&log);
        assert_eq!(decoded, sample_records());
        assert_eq!(consumed, log.len());
    }

    #[test]
    fn torn_tail_is_ignored() {
        let mut log = Vec::new();
        for r in sample_records() {
            log.extend_from_slice(&r.encode());
        }
        let full = decode_log(&log).0.len();
        // cut mid-record: every cut decodes a prefix, never errors
        for cut in [log.len() - 1, log.len() - 5, log.len() / 2, 3, 0] {
            let (records, consumed) = decode_log(&log[..cut]);
            assert!(records.len() <= full);
            assert!(consumed <= cut);
        }
    }

    #[test]
    fn corrupt_record_stops_decode() {
        let mut log = Vec::new();
        for r in sample_records() {
            log.extend_from_slice(&r.encode());
        }
        // flip a byte in the middle of the second record's payload
        let first_len = sample_records()[0].encode().len();
        log[first_len + 6] ^= 0xFF;
        let (records, _) = decode_log(&log);
        assert_eq!(records.len(), 1, "decode stops at the corrupt record");
    }

    #[test]
    fn apply_redo_records() {
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        let e = EntityId::from_bits(0);
        WalRecord::Spawn {
            entity: e,
            x: 3.0,
            y: 4.0,
        }
        .apply(&mut w)
        .unwrap();
        WalRecord::Set {
            entity: e,
            component: "hp".into(),
            value: Value::Float(10.0),
        }
        .apply(&mut w)
        .unwrap();
        assert_eq!(w.pos(e), Some(Vec2::new(3.0, 4.0)));
        assert_eq!(w.get_f32(e, "hp"), Some(10.0));
        WalRecord::Despawn { entity: e }.apply(&mut w).unwrap();
        assert!(!w.is_live(e));
    }

    #[test]
    fn apply_defines_missing_components() {
        let mut w = World::new();
        let e = EntityId::from_bits(0);
        WalRecord::Spawn {
            entity: e,
            x: 0.0,
            y: 0.0,
        }
        .apply(&mut w)
        .unwrap();
        WalRecord::Set {
            entity: e,
            component: "brand_new".into(),
            value: Value::Int(9),
        }
        .apply(&mut w)
        .unwrap();
        assert_eq!(w.get_i64(e, "brand_new"), Some(9));
    }

    /// Interned records replay by id alone: each lands on its column and
    /// commits the change records a by-name write commits; an id the
    /// table does not know is an error for a write or an index, and a
    /// no-op for a removal or an index drop.
    #[test]
    fn interned_records_replay_by_id() {
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        let hp = w.component_id("hp").unwrap();
        let e = w.spawn_at(Vec2::ZERO);
        let mut by_name = w.clone();
        let (tap, name_tap) = (w.attach_tap(), by_name.attach_tap());
        for record in [
            WalRecord::Set {
                entity: e,
                component: hp.into(),
                value: Value::Float(5.0),
            },
            WalRecord::CreateIndex {
                component: hp.into(),
                kind: IndexKind::Sorted,
            },
            WalRecord::Set {
                entity: e,
                component: gamedb_core::POS_ID.into(),
                value: Value::Vec2(1.0, 2.0),
            },
            WalRecord::RemoveComponent {
                entity: e,
                component: hp.into(),
            },
            WalRecord::DropIndex {
                component: hp.into(),
            },
        ] {
            record.apply(&mut w).unwrap();
        }
        by_name.set(e, "hp", Value::Float(5.0)).unwrap();
        by_name.create_index("hp", IndexKind::Sorted).unwrap();
        by_name.set(e, gamedb_core::POS, Value::Vec2(1.0, 2.0)).unwrap();
        by_name.remove_component(e, "hp").unwrap();
        by_name.drop_index("hp");
        assert_eq!(w.tap_pending(tap), by_name.tap_pending(name_tap));
        assert_eq!(w.rows(), by_name.rows());

        let ghost = ComponentId::from_u32(9);
        let set = WalRecord::Set {
            entity: e,
            component: ghost.into(),
            value: Value::Float(1.0),
        };
        assert!(matches!(set.apply(&mut w), Err(CoreError::UnknownComponent(_))));
        let index = WalRecord::CreateIndex {
            component: ghost.into(),
            kind: IndexKind::Hash,
        };
        assert!(matches!(index.apply(&mut w), Err(CoreError::UnknownComponent(_))));
        let remove = WalRecord::RemoveComponent {
            entity: e,
            component: ghost.into(),
        };
        remove.apply(&mut w).unwrap();
        WalRecord::DropIndex {
            component: ghost.into(),
        }
        .apply(&mut w)
        .unwrap();
    }

    fn log_of(records: &[WalRecord]) -> Vec<u8> {
        records.iter().flat_map(|r| r.encode().to_vec()).collect()
    }

    #[test]
    fn replay_skips_records_before_checkpoint_mark() {
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        let e = w.spawn_at(Vec2::ZERO);
        w.set_f32(e, "hp", 50.0).unwrap(); // state as of snapshot 3

        let records = vec![
            // pre-checkpoint history that must NOT replay
            WalRecord::Set {
                entity: e,
                component: "hp".into(),
                value: Value::Float(1.0),
            },
            WalRecord::CheckpointMark { seq: 3 },
            // the tail to redo
            WalRecord::Set {
                entity: e,
                component: "hp".into(),
                value: Value::Float(42.0),
            },
        ];
        let applied = replay_log_tail(&mut w, &log_of(&records), 3).unwrap();
        assert_eq!(applied, 1);
        assert_eq!(w.get_f32(e, "hp"), Some(42.0));
    }

    #[test]
    fn replay_without_matching_mark_applies_nothing() {
        // a durable snapshot whose mark was torn out of the log: every
        // surviving record predates the snapshot, so replaying them
        // would re-apply history the snapshot already contains
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        let e = w.spawn_at(Vec2::ZERO);
        w.set_f32(e, "hp", 50.0).unwrap(); // state as of snapshot 2
        let records = vec![
            WalRecord::Set {
                entity: e,
                component: "hp".into(),
                value: Value::Float(1.0),
            },
            WalRecord::CheckpointMark { seq: 1 },
            WalRecord::Set {
                entity: e,
                component: "hp".into(),
                value: Value::Float(2.0),
            },
        ];
        let applied = replay_log_tail(&mut w, &log_of(&records), 2).unwrap();
        assert_eq!(applied, 0, "no mark for seq 2: nothing may replay");
        assert_eq!(w.get_f32(e, "hp"), Some(50.0));
    }

    /// Only the tail is decoded: a frame whose checksum holds but whose
    /// payload no decoder knows ends the log where replay meets it —
    /// after the mark — and is never looked at before the mark, where
    /// nothing is decoded at all.
    #[test]
    fn replay_decodes_the_tail_only() {
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        let e = w.spawn_at(Vec2::ZERO);
        let set = |hp: f32| WalRecord::Set {
            entity: e,
            component: "hp".into(),
            value: Value::Float(hp),
        };
        let unknown = {
            let payload = [0xEEu8, 1, 2, 3];
            let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
            frame.extend_from_slice(&payload);
            frame.extend_from_slice(&checksum(&payload).to_le_bytes());
            frame
        };
        let mut log = unknown.clone();
        log.extend(log_of(&[set(1.0), WalRecord::CheckpointMark { seq: 5 }, set(2.0)]));
        log.extend(&unknown);
        log.extend(log_of(&[set(3.0)]));

        assert_eq!(decode_log(&log).0, vec![], "a full decode stops at frame one");
        assert_eq!(replay_log_tail(&mut w, &log, 5).unwrap(), 1);
        assert_eq!(w.get_f32(e, "hp"), Some(2.0), "the log ends at the unknown tail frame");
    }

    #[test]
    fn catalog_records_apply_and_maintain_derived_state() {
        use gamedb_content::CmpOp;
        let mut w = World::new();
        let e = EntityId::from_bits(0);
        let records = vec![
            WalRecord::Spawn {
                entity: e,
                x: 0.0,
                y: 0.0,
            },
            WalRecord::Set {
                entity: e,
                component: "hp".into(),
                value: Value::Float(5.0),
            },
            WalRecord::CreateIndex {
                component: "hp".into(),
                kind: IndexKind::Sorted,
            },
            WalRecord::RegisterPlanView {
                slot: 0,
                plan: Query::select()
                    .filter("hp", CmpOp::Lt, Value::Float(10.0))
                    .into_plan(),
            },
            WalRecord::TickTo { tick: 4 },
        ];
        for r in &records {
            r.apply(&mut w).unwrap();
        }
        assert_eq!(w.tick(), 4);
        let v = w.view_id_at(0).unwrap();
        assert_eq!(w.view_rows(v), &[e]);
        let mut out = vec![];
        assert!(w.index_probe("hp", CmpOp::Lt, &Value::Float(10.0), &mut out));
        assert_eq!(out, vec![e]);
        // the restored view keeps tracking post-replay writes
        WalRecord::Set {
            entity: e,
            component: "hp".into(),
            value: Value::Float(50.0),
        }
        .apply(&mut w)
        .unwrap();
        w.refresh_views();
        assert!(w.view_rows(v).is_empty());
    }

    /// A log no live world writes — a retarget of the join or group view
    /// at its slot — fails its replay with the world's error, like an
    /// invalid plan registration does, instead of panicking; the records
    /// after it are not applied.
    #[test]
    fn replayed_retarget_of_a_join_or_group_view_is_an_error() {
        use gamedb_core::{AggFn, CoreError, JoinOn, PlanNode, ViewPlan};
        let group = ViewPlan::group_by(PlanNode::scan(Query::select()), "hp", AggFn::Count);
        let join = ViewPlan::join(
            PlanNode::scan(Query::select()),
            PlanNode::scan(Query::select()),
            JoinOn::Within { radius: 4.0 },
        );
        for plan in [group, join] {
            let mut w = World::new();
            w.define_component("hp", ValueType::Float).unwrap();
            let e = w.spawn_at(Vec2::ZERO);
            let log = log_of(&[
                WalRecord::CheckpointMark { seq: 1 },
                WalRecord::RegisterPlanView { slot: 0, plan: plan.clone() },
                WalRecord::RetargetView {
                    slot: 0,
                    x: 5.0,
                    y: 5.0,
                    radius: 2.0,
                },
                WalRecord::Set {
                    entity: e,
                    component: "hp".into(),
                    value: Value::Float(3.0),
                },
            ]);
            let err = replay_log_tail(&mut w, &log, 1);
            assert!(matches!(err, Err(CoreError::PlanInvalid(_))), "{err:?}");
            let v = w.view_id_at(0).expect("the registration replayed");
            assert_eq!(w.view_plan(v), Some(&plan), "the plan did not move");
            assert_eq!(w.get_f32(e, "hp"), None, "replay stopped at the error");
        }
    }

    /// Satellite: a checksum-valid **duplicated tail** — what an
    /// at-least-once append retry leaves behind — must recover to the
    /// same world as the exactly-once log, for every record type.
    #[test]
    fn duplicated_tail_replays_idempotently() {
        let records = sample_records();
        for dup in 0..records.len() {
            // exactly-once replay of the prefix ending at `dup`
            let mut once = World::new();
            for r in &records[..=dup] {
                r.apply(&mut once).unwrap();
            }
            once.refresh_views();
            // at-least-once: the tail record is appended twice
            let mut twice = World::new();
            for r in &records[..=dup] {
                r.apply(&mut twice).unwrap();
            }
            records[dup]
                .apply(&mut twice)
                .unwrap_or_else(|err| panic!("duplicate of {:?} must be tolerated: {err}", records[dup]));
            twice.refresh_views();
            assert_eq!(once.rows(), twice.rows(), "tail: {:?}", records[dup]);
            assert_eq!(once.tick(), twice.tick());
            assert_eq!(
                once.export_catalog().indexes,
                twice.export_catalog().indexes
            );
            assert_eq!(once.export_catalog().views, twice.export_catalog().views);
        }
    }

    /// Satellite: a **bit flip inside any record** fails that record's
    /// checksum, so decode keeps exactly the preceding records — the
    /// corrupted one and everything after it never reach the world.
    #[test]
    fn mid_record_bit_flip_truncates_to_preceding_records() {
        let records = sample_records();
        let mut log = Vec::new();
        let mut boundaries = vec![0usize];
        for r in &records {
            log.extend_from_slice(&r.encode());
            boundaries.push(log.len());
        }
        for (k, window) in boundaries.windows(2).enumerate() {
            let (start, end) = (window[0], window[1]);
            // flip one bit at every byte of record k: frame length,
            // payload, and trailing checksum alike
            for pos in start..end {
                for bit in [0u8, 3, 7] {
                    let mut bad = log.clone();
                    bad[pos] ^= 1 << bit;
                    let (decoded, consumed) = decode_log(&bad);
                    assert!(
                        decoded.len() <= k,
                        "flip at {pos} bit {bit}: record {k} or later survived corruption"
                    );
                    assert!(consumed <= start + (end - start));
                    // the surviving prefix is exactly the untouched records
                    if decoded.len() == k {
                        assert_eq!(decoded, records[..k].to_vec());
                    }
                }
            }
        }
    }
}
