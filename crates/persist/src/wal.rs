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
//! record boundary. There is one frame tag per record kind, and the
//! decoder reads exactly what the encoder writes: components by interned
//! id, views as plans, batches one level deep. A frame whose checksum
//! holds but which does not decode is refused — it fails recovery
//! instead of ending the log like a torn one.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use gamedb_content::{Value, ValueType};
use gamedb_core::{
    Change, ChangeOp, ComponentId, CoreError, EntityId, IndexKind, ViewPlan, World, WorldCatalog,
};
use gamedb_spatial::Vec2;

use crate::snapshot::{
    checksum, get_plan, get_str, get_value, kind_tag, put_plan, put_str, put_value, tag_kind,
    tag_type, type_tag, SnapshotError, MAX_RESTORE_GAP,
};

/// `id` as the recovering world's interner knows it (snapshot table plus
/// the preceding [`WalRecord::Define`]s). The id comes from disk, so one
/// the table does not list is an error, never a column index.
fn known(world: &World, id: ComponentId) -> Result<ComponentId, CoreError> {
    match world.component_name(id) {
        Some(_) => Ok(id),
        None => Err(CoreError::UnknownComponent(format!("{id}"))),
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
        component: ComponentId,
        value: Value,
    },
    /// Despawn an entity.
    Despawn { entity: EntityId },
    /// Marks a completed checkpoint: records before this point are
    /// superseded by snapshot `seq`.
    CheckpointMark { seq: u64 },
    /// Remove a component from an entity.
    RemoveComponent {
        entity: EntityId,
        component: ComponentId,
    },
    /// Define a component column at an exact interned id — the durable
    /// half of the interner for components defined after the last
    /// snapshot (the snapshot schema, written in id order, carries the
    /// rest). Always precedes the first record naming the id.
    Define {
        component: ComponentId,
        name: String,
        ty: ValueType,
    },
    /// Create a secondary index on a component.
    CreateIndex { component: ComponentId, kind: IndexKind },
    /// Drop the secondary index on a component.
    DropIndex { component: ComponentId },
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
    /// atomic at the durability layer. A batch holds no batch.
    Batch { ops: Vec<WalRecord> },
}

// Tags 1, 2 and 5–8 (string-named records, a positioned spawn, a
// bare-query view) are retired, not reused: a frame carrying one does
// not decode.
const TAG_DESPAWN: u8 = 3;
const TAG_MARK: u8 = 4;
const TAG_DROP_VIEW: u8 = 9;
const TAG_RETARGET_VIEW: u8 = 10;
const TAG_TICK: u8 = 11;
const TAG_BATCH: u8 = 12;
const TAG_RESTORE: u8 = 13;
const TAG_DEFINE: u8 = 14;
const TAG_SET: u8 = 15;
const TAG_REMOVE: u8 = 16;
const TAG_CREATE_INDEX: u8 = 17;
const TAG_DROP_INDEX: u8 = 18;
const TAG_REGISTER_VIEW: u8 = 19;

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
            } => {
                payload.put_u8(TAG_SET);
                payload.put_u64_le(entity.to_bits());
                put_varint(payload, component.as_u32());
                payload.put_u8(type_tag(value.value_type()));
                put_value(payload, value);
            }
            WalRecord::Define {
                component,
                name,
                ty,
            } => {
                payload.put_u8(TAG_DEFINE);
                put_varint(payload, component.as_u32());
                put_str(payload, name);
                payload.put_u8(type_tag(*ty));
            }
            WalRecord::Despawn { entity } => {
                payload.put_u8(TAG_DESPAWN);
                payload.put_u64_le(entity.to_bits());
            }
            WalRecord::CheckpointMark { seq } => {
                payload.put_u8(TAG_MARK);
                payload.put_u64_le(*seq);
            }
            WalRecord::RemoveComponent { entity, component } => {
                payload.put_u8(TAG_REMOVE);
                payload.put_u64_le(entity.to_bits());
                put_varint(payload, component.as_u32());
            }
            WalRecord::CreateIndex { component, kind } => {
                payload.put_u8(TAG_CREATE_INDEX);
                payload.put_u8(kind_tag(*kind));
                put_varint(payload, component.as_u32());
            }
            WalRecord::DropIndex { component } => {
                payload.put_u8(TAG_DROP_INDEX);
                put_varint(payload, component.as_u32());
            }
            WalRecord::RegisterPlanView { slot, plan } => {
                payload.put_u8(TAG_REGISTER_VIEW);
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
                    debug_assert!(!matches!(op, WalRecord::Batch { .. }), "a batch holds no batch");
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
                need!(8);
                let entity = EntityId::from_bits(p.get_u64_le());
                let component = ComponentId::from_u32(get_varint(&mut p)?);
                need!(1);
                let vt = tag_type(p.get_u8())?;
                let value = get_value(&mut p, vt)?;
                WalRecord::Set {
                    entity,
                    component,
                    value,
                }
            }
            TAG_DEFINE => {
                let component = ComponentId::from_u32(get_varint(&mut p)?);
                let name = get_str(&mut p)?;
                need!(1);
                let ty = tag_type(p.get_u8())?;
                WalRecord::Define {
                    component,
                    name,
                    ty,
                }
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
                    component: ComponentId::from_u32(get_varint(&mut p)?),
                }
            }
            TAG_CREATE_INDEX => {
                need!(1);
                let kind = tag_kind(p.get_u8())?;
                WalRecord::CreateIndex {
                    component: ComponentId::from_u32(get_varint(&mut p)?),
                    kind,
                }
            }
            TAG_DROP_INDEX => WalRecord::DropIndex {
                component: ComponentId::from_u32(get_varint(&mut p)?),
            },
            TAG_REGISTER_VIEW => {
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
                    // no writer nests batches; decoding one would recurse
                    // once per level of a hostile frame
                    if inner.first() == Some(&TAG_BATCH) {
                        return Err(SnapshotError::Corrupt("batch inside a batch".into()));
                    }
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
    /// whose effect is already present (a restore of a live entity with
    /// the exact same id, a duplicate identical index or view, a stale
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
            } => world.set_by_id(*entity, known(world, *component)?, value.clone()),
            WalRecord::Define {
                component,
                name,
                ty,
            } => world.ensure_component_at(*component, name, *ty).map(|_| ()),
            WalRecord::Despawn { entity } => {
                world.despawn(*entity);
                Ok(())
            }
            WalRecord::CheckpointMark { .. } => Ok(()),
            WalRecord::RemoveComponent { entity, component } => {
                // a column the replay never (re)defined holds nothing to
                // remove; a stale entity id means the despawn already won
                match known(world, *component) {
                    Ok(component) if world.is_live(*entity) => {
                        world.remove_component_by_id(*entity, component).map(|_| ())
                    }
                    _ => Ok(()),
                }
            }
            WalRecord::Restore { entity } if world.is_live(*entity) => Ok(()),
            WalRecord::Restore { entity }
                if entity.index() as usize >= world.len() + MAX_RESTORE_GAP =>
            {
                Err(CoreError::DeadEntity(*entity))
            }
            WalRecord::Restore { entity } => world.restore_entity(*entity),
            WalRecord::Batch { ops } => ops.iter().try_for_each(|op| op.redo(world, catalog)),
            WalRecord::CreateIndex { component, kind } => {
                let cid = known(world, *component)?;
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
                if let Some(name) = world.component_name(*component) {
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
                component: *component,
                value: new.clone(),
            },
            ChangeOp::Removed { id, component, .. } => WalRecord::RemoveComponent {
                entity: *id,
                component: *component,
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
                component: *component,
                kind: *kind,
            },
            ChangeOp::DropIndex { component } => WalRecord::DropIndex {
                component: *component,
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

/// Walk a log buffer frame by frame, yielding each frame's offset and
/// payload once its length and checksum hold; a torn or corrupt frame
/// ends the log.
pub(crate) fn frames(data: &[u8]) -> impl Iterator<Item = (usize, &[u8])> {
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
        let at = pos;
        pos += 8 + len;
        Some((at, payload))
    })
}

/// Decode a log buffer into records, stopping cleanly at a torn tail or
/// at the first frame that does not decode.
///
/// Returns the records and the number of bytes of valid log consumed.
pub fn decode_log(data: &[u8]) -> (Vec<WalRecord>, usize) {
    let mut records = Vec::new();
    let mut consumed = 0usize;
    for (at, payload) in frames(data) {
        match WalRecord::decode_payload(Bytes::copy_from_slice(payload)) {
            Ok(r) => records.push(r),
            Err(_) => break,
        }
        consumed = at + 8 + payload.len();
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
/// A tail frame whose checksum holds but which does not decode is an
/// error: no crash writes one, and ending the log there would recover a
/// silently truncated world.
pub(crate) fn decode_tail(log: &[u8], snapshot_seq: u64) -> Result<Vec<WalRecord>, SnapshotError> {
    let frames: Vec<&[u8]> = frames(log).map(|(_, payload)| payload).collect();
    let Some(mark) = frames
        .iter()
        .rposition(|p| mark_seq(p) == Some(snapshot_seq))
    else {
        return Ok(Vec::new());
    };
    frames[mark + 1..]
        .iter()
        .map(|p| WalRecord::decode_payload(Bytes::copy_from_slice(p)))
        .collect()
}

/// What compaction keeps of a log: the bytes from snapshot
/// `snapshot_seq`'s checkpoint mark frame (recovery anchors on it; the
/// whole log when the mark is absent) through the last whole frame,
/// copied as they are.
pub(crate) fn compacted(log: &[u8], snapshot_seq: u64) -> &[u8] {
    let (mut start, mut end) = (0, 0);
    for (at, payload) in frames(log) {
        if mark_seq(payload) == Some(snapshot_seq) {
            start = at;
        }
        end = at + 8 + payload.len();
    }
    &log[start..end]
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use gamedb_content::ValueType;
    use gamedb_core::{Query, POS_ID};

    impl WalRecord {
        /// The live-replay oracle recovery's redo is held to: a record
        /// applied straight onto a world whose derived state exists, a
        /// catalog record through the world's own catalog method (which
        /// builds, drops or moves its index or view on the spot). A
        /// replayed `TickTo` moves the counter without folding.
        pub(crate) fn apply(&self, world: &mut World) -> Result<(), CoreError> {
            match self {
                WalRecord::CreateIndex { component, kind } => {
                    let cid = known(world, *component)?;
                    let name = world.component_name(cid).unwrap_or_default().to_string();
                    match world.index_on(&name) {
                        Some(idx) if idx.kind() == *kind => Ok(()),
                        _ => world.create_index(&name, *kind),
                    }
                }
                WalRecord::DropIndex { component } => {
                    if let Ok(component) = known(world, *component) {
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
        let tail = decode_tail(log, snapshot_seq).expect("a decodable tail");
        tail.iter().try_for_each(|r| r.apply(world))?;
        Ok(tail.len())
    }

    /// Every tag a frame carries.
    pub(crate) const FRAME_TAGS: [u8; 13] = [3, 4, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19];

    /// `len | payload | checksum(payload)` around hand-written bytes.
    pub(crate) fn frame(payload: &[u8]) -> Vec<u8> {
        let mut framed = (payload.len() as u32).to_le_bytes().to_vec();
        framed.extend_from_slice(payload);
        framed.extend_from_slice(&checksum(payload).to_le_bytes());
        framed
    }

    /// A checksum-valid frame of `depth` batches, each the one member of
    /// the next, around a `TickTo`. Every level's length is known in
    /// advance (9 header bytes per level), so it is built in one pass.
    pub(crate) fn nested_batch_frame(depth: usize) -> Vec<u8> {
        let inner = [TAG_TICK, 1, 0, 0, 0, 0, 0, 0, 0];
        let mut payload = Vec::with_capacity(9 * depth + inner.len());
        for level in (0..depth).rev() {
            payload.push(TAG_BATCH);
            payload.extend_from_slice(&1u32.to_le_bytes());
            payload.extend_from_slice(&((9 * level + inner.len()) as u32).to_le_bytes());
        }
        payload.extend_from_slice(&inner);
        frame(&payload)
    }

    fn set(entity: EntityId, component: ComponentId, value: Value) -> WalRecord {
        WalRecord::Set { entity, component, value }
    }

    fn define(id: u32, name: &str, ty: ValueType) -> WalRecord {
        WalRecord::Define { component: ComponentId::from_u32(id), name: name.into(), ty }
    }

    fn sample_records() -> Vec<WalRecord> {
        use gamedb_content::CmpOp;
        let e = EntityId::from_bits(5 | (2u64 << 32));
        let (hp, name) = (ComponentId::from_u32(1), ComponentId::from_u32(2));
        vec![
            define(1, "hp", ValueType::Float),
            define(2, "name", ValueType::Str),
            WalRecord::Restore { entity: e },
            set(e, POS_ID, Value::Vec2(1.5, -2.0)),
            set(e, hp, Value::Float(77.5)),
            set(e, name, Value::Str("grünbart".into())),
            WalRecord::CreateIndex { component: hp, kind: IndexKind::Sorted },
            WalRecord::RegisterPlanView {
                slot: 0,
                plan: Query::select()
                    .filter("hp", CmpOp::Lt, Value::Float(50.0))
                    .within(Vec2::new(1.0, 2.0), 9.5)
                    .excluding(e)
                    .into_plan(),
            },
            WalRecord::RetargetView { slot: 0, x: -3.0, y: 4.0, radius: 2.5 },
            WalRecord::TickTo { tick: 17 },
            WalRecord::RemoveComponent { entity: e, component: name },
            WalRecord::DropView { slot: 0 },
            WalRecord::DropIndex { component: hp },
            WalRecord::CheckpointMark { seq: 3 },
            WalRecord::Despawn { entity: e },
            // the batch framing group commit writes: one frame, many ops
            WalRecord::Batch {
                ops: vec![
                    WalRecord::Restore { entity: e },
                    set(e, hp, Value::Float(12.25)),
                    set(e, POS_ID, Value::Vec2(4.0, -8.0)),
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

    /// Every frame tag the encoder writes, from bytes written by hand:
    /// each decodes to its record and encodes back to the same bytes, so
    /// a log written before this test keeps opening byte for byte. The
    /// `Set` rows cover the five value-type tags and a two-byte varint.
    #[test]
    fn every_frame_tag_decodes_from_pinned_bytes() {
        use gamedb_content::CmpOp;
        const E: [u8; 8] = [5, 0, 0, 0, 2, 0, 0, 0];
        let e = EntityId::from_bits(5 | (2u64 << 32));
        let id = ComponentId::from_u32;
        let with_e = |tag: u8, rest: &[u8]| [&[tag][..], &E, rest].concat();
        let watch = Query::select().filter("hp", CmpOp::Lt, Value::Float(50.0)).into_plan();
        let pinned: Vec<(WalRecord, Vec<u8>)> = vec![
            (WalRecord::Despawn { entity: e }, with_e(3, &[])),
            (WalRecord::CheckpointMark { seq: 3 }, vec![4, 3, 0, 0, 0, 0, 0, 0, 0]),
            (WalRecord::DropView { slot: 7 }, vec![9, 7, 0, 0, 0]),
            (
                WalRecord::RetargetView { slot: 1, x: -3.0, y: 4.0, radius: 2.5 },
                vec![10, 1, 0, 0, 0, 0, 0, 0x40, 0xC0, 0, 0, 0x80, 0x40, 0, 0, 0x20, 0x40],
            ),
            (WalRecord::TickTo { tick: 17 }, vec![11, 17, 0, 0, 0, 0, 0, 0, 0]),
            (
                WalRecord::Batch {
                    ops: vec![WalRecord::Restore { entity: e }, WalRecord::TickTo { tick: 18 }],
                },
                // count, then each member's length and payload
                [&[12, 2, 0, 0, 0, 9, 0, 0, 0, 13][..], &E, &[9, 0, 0, 0, 11, 18, 0, 0, 0, 0, 0, 0, 0]]
                    .concat(),
            ),
            (WalRecord::Restore { entity: e }, with_e(13, &[])),
            (define(1, "hp", ValueType::Float), vec![14, 1, 2, 0, 0, 0, b'h', b'p', 0]),
            (set(e, id(1), Value::Float(77.5)), with_e(15, &[1, 0, 0, 0, 0x9B, 0x42])),
            (set(e, id(2), Value::Int(-2)), with_e(15, &[2, 1, 0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF])),
            (set(e, id(3), Value::Bool(true)), with_e(15, &[3, 2, 1])),
            (set(e, id(300), Value::Str("ü".into())), with_e(15, &[0xAC, 0x02, 3, 2, 0, 0, 0, 0xC3, 0xBC])),
            (set(e, POS_ID, Value::Vec2(1.5, -2.0)), with_e(15, &[0, 4, 0, 0, 0xC0, 0x3F, 0, 0, 0, 0xC0])),
            (WalRecord::RemoveComponent { entity: e, component: id(2) }, with_e(16, &[2])),
            (WalRecord::CreateIndex { component: id(1), kind: IndexKind::Sorted }, vec![17, 1, 1]),
            (WalRecord::DropIndex { component: id(1) }, vec![18, 1]),
            (
                WalRecord::RegisterPlanView { slot: 0, plan: watch },
                // slot, a scan leaf with one predicate `hp < 50.0`, no
                // disk, no exclusion, no pinned entity
                vec![19, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, b'h', b'p', 2, 0, 0, 0, 0x48, 0x42, 0, 0, 0],
            ),
        ];
        let mut tags: Vec<u8> = pinned.iter().map(|(_, payload)| payload[0]).collect();
        tags.dedup();
        assert_eq!(tags, FRAME_TAGS);
        for (record, payload) in &pinned {
            let bytes = frame(payload);
            assert_eq!(decode_log(&bytes), (vec![record.clone()], bytes.len()), "{record:?}");
            assert_eq!(&record.encode()[..], &bytes[..], "{record:?}");
        }
        // one frame pinned whole: length, payload and checksum
        assert_eq!(
            &WalRecord::TickTo { tick: 17 }.encode()[..],
            [9, 0, 0, 0, 11, 17, 0, 0, 0, 0, 0, 0, 0, 0x05, 0x2B, 0x96, 0x94]
        );
    }

    /// A tick of change-stream `hp` writes frames each write in 23 bytes:
    /// 4 of length, 1 of tag, 8 of entity, 1 of varint column id, 1 of
    /// value tag, 4 of `f32` and 4 of checksum.
    #[test]
    fn interned_frames_shrink_encoded_records() {
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        let tap = w.attach_tap();
        for i in 0..512 {
            let e = w.spawn();
            w.set_f32(e, "hp", (i % 100) as f32).unwrap();
        }
        let sets: Vec<usize> = (w.tap_pending(tap).iter().map(WalRecord::from_change))
            .filter(|r| matches!(r, WalRecord::Set { .. }))
            .map(|r| r.encode().len())
            .collect();
        assert_eq!((sets.len(), sets.iter().sum::<usize>()), (512, 512 * 23));
    }

    /// No writer nests a batch in a batch, and decoding one used to
    /// recurse once per level: 200,000 levels overflowed the stack. The
    /// member is refused, so decode and recovery return.
    #[test]
    fn nested_batch_frame_is_refused_not_overflowed() {
        let nested = nested_batch_frame(200_000);
        assert_eq!(decode_log(&nested), (vec![], 0));
        let mut log = WalRecord::CheckpointMark { seq: 0 }.encode().to_vec();
        log.extend_from_slice(&nested);
        let refused = SnapshotError::Corrupt("batch inside a batch".into());
        assert_eq!(decode_tail(&log, 0), Err(refused));
        let snapshot = crate::snapshot::encode(&World::new());
        let parts = [(0u64, &snapshot[..])];
        let recovered = crate::walstore::recover_from_parts(crate::walstore::newest_first(&parts), &log);
        assert!(recovered.is_err());
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
        let hp = w.component_id("hp").unwrap();
        let e = EntityId::from_bits(0);
        WalRecord::Restore { entity: e }.apply(&mut w).unwrap();
        set(e, POS_ID, Value::Vec2(3.0, 4.0)).apply(&mut w).unwrap();
        set(e, hp, Value::Float(10.0)).apply(&mut w).unwrap();
        assert_eq!(w.pos(e), Some(Vec2::new(3.0, 4.0)));
        assert_eq!(w.get_f32(e, "hp"), Some(10.0));
        WalRecord::Despawn { entity: e }.apply(&mut w).unwrap();
        assert!(!w.is_live(e));
    }

    /// A restore's slot index is input from disk: one far past the live
    /// count is refused before the allocator grows to it, one within
    /// reach lands.
    #[test]
    fn forged_restore_slot_fails_before_it_allocates() {
        let mut w = World::new();
        let far = EntityId::from_bits(u32::MAX as u64);
        let refused = WalRecord::Restore { entity: far }.apply(&mut w);
        assert_eq!(refused, Err(CoreError::DeadEntity(far)));
        assert!(w.is_empty());
        let near = EntityId::from_bits(1000);
        WalRecord::Restore { entity: near }.apply(&mut w).unwrap();
        assert!(w.is_live(near));
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
            set(e, hp, Value::Float(5.0)),
            WalRecord::CreateIndex { component: hp, kind: IndexKind::Sorted },
            set(e, POS_ID, Value::Vec2(1.0, 2.0)),
            WalRecord::RemoveComponent { entity: e, component: hp },
            WalRecord::DropIndex { component: hp },
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
        let set = set(e, ghost, Value::Float(1.0));
        assert!(matches!(set.apply(&mut w), Err(CoreError::UnknownComponent(_))));
        let index = WalRecord::CreateIndex { component: ghost, kind: IndexKind::Hash };
        assert!(matches!(index.apply(&mut w), Err(CoreError::UnknownComponent(_))));
        WalRecord::RemoveComponent { entity: e, component: ghost }.apply(&mut w).unwrap();
        WalRecord::DropIndex { component: ghost }.apply(&mut w).unwrap();
    }

    fn log_of(records: &[WalRecord]) -> Vec<u8> {
        records.iter().flat_map(|r| r.encode().to_vec()).collect()
    }

    #[test]
    fn replay_skips_records_before_checkpoint_mark() {
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        let hp = w.component_id("hp").unwrap();
        let e = w.spawn_at(Vec2::ZERO);
        w.set_f32(e, "hp", 50.0).unwrap(); // state as of snapshot 3

        let records = vec![
            // pre-checkpoint history that must NOT replay
            set(e, hp, Value::Float(1.0)),
            WalRecord::CheckpointMark { seq: 3 },
            // the tail to redo
            set(e, hp, Value::Float(42.0)),
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
        let hp = w.component_id("hp").unwrap();
        let e = w.spawn_at(Vec2::ZERO);
        w.set_f32(e, "hp", 50.0).unwrap(); // state as of snapshot 2
        let records = vec![
            set(e, hp, Value::Float(1.0)),
            WalRecord::CheckpointMark { seq: 1 },
            set(e, hp, Value::Float(2.0)),
        ];
        let applied = replay_log_tail(&mut w, &log_of(&records), 2).unwrap();
        assert_eq!(applied, 0, "no mark for seq 2: nothing may replay");
        assert_eq!(w.get_f32(e, "hp"), Some(50.0));
    }

    /// Only the tail is decoded: a frame whose checksum holds but whose
    /// payload no decoder knows is never looked at before the mark,
    /// where nothing is decoded at all, and fails recovery after it —
    /// a log that ended there would recover a silently truncated world.
    #[test]
    fn replay_decodes_the_tail_only() {
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        let hp = w.component_id("hp").unwrap();
        let e = w.spawn_at(Vec2::ZERO);
        let hp_to = |v: f32| set(e, hp, Value::Float(v));
        let unknown = frame(&[0xEE, 1, 2, 3]);
        let mut log = unknown.clone();
        log.extend(log_of(&[hp_to(1.0), WalRecord::CheckpointMark { seq: 5 }, hp_to(2.0)]));

        assert_eq!(decode_log(&log).0, vec![], "a full decode stops at frame one");
        assert_eq!(replay_log_tail(&mut w, &log, 5).unwrap(), 1);
        assert_eq!(w.get_f32(e, "hp"), Some(2.0));

        log.extend(&unknown);
        log.extend(log_of(&[hp_to(3.0)]));
        let unknown_tag = SnapshotError::Corrupt("unknown wal tag 238".into());
        assert_eq!(decode_tail(&log, 5), Err(unknown_tag), "an undecodable frame fails recovery");
    }

    #[test]
    fn catalog_records_apply_and_maintain_derived_state() {
        use gamedb_content::CmpOp;
        let mut w = World::new();
        let e = EntityId::from_bits(0);
        let hp = ComponentId::from_u32(1);
        let records = vec![
            define(1, "hp", ValueType::Float),
            WalRecord::Restore { entity: e },
            set(e, POS_ID, Value::Vec2(0.0, 0.0)),
            set(e, hp, Value::Float(5.0)),
            WalRecord::CreateIndex { component: hp, kind: IndexKind::Sorted },
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
        set(e, hp, Value::Float(50.0)).apply(&mut w).unwrap();
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
                set(e, w.component_id("hp").unwrap(), Value::Float(3.0)),
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
