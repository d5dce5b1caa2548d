//! Backward-compatibility fixtures: pre-interning durable artifacts
//! must keep recovering bit-identically.
//!
//! The interned framing (ISSUE-5) changed what *new* snapshots and WAL
//! frames look like — v3 snapshots write the schema in id order, row
//! records carry varint column ids. Logs and snapshots written before
//! that (v2 snapshots with a name-ordered schema, string-named WAL
//! records under the legacy tags) still exist on disk in deployed
//! stores; recovery must decode them to the exact same world the old
//! code would have produced. These tests pin that contract with
//! byte-level fixtures:
//!
//! * a v2 snapshot assembled by a local copy of the v2 encoder,
//! * legacy WAL frames assembled both through [`CompRef::Name`]
//!   encoding (which preserves the old tags by design) and — for the
//!   hot `Set` record — from raw hand-written bytes, so the exact old
//!   layout is pinned independent of the encoder,
//! * a mixed log (legacy prefix, interned tail) — what a store looks
//!   like after an in-place upgrade without a fresh checkpoint,
//! * table views: catalogs and WAL frames from before the view engines
//!   merged carry bare standing queries (the catalog's query section,
//!   WAL tag 8). Nothing writes those any more, so the fixtures assemble
//!   them by hand; recovery must turn each into the one-leaf plan view
//!   at the same slot.

#![cfg(test)]

use bytes::{BufMut, BytesMut};
use gamedb_content::{CmpOp, Value, ValueType};
use gamedb_core::{ComponentId, EntityId, IndexKind, Query, World};
use gamedb_spatial::Vec2;

use crate::snapshot::{checksum, decode, kind_tag, put_catalog, put_query, put_str, put_value};
use crate::wal::{decode_log, CompRef, WalRecord};
use crate::walstore::{newest_first, recover_from_parts, Recovered};

const MAGIC_V2: u32 = 0x6744_4202;
const MAGIC_V3: u32 = 0x6744_4203;

/// The pre-interning snapshot encoder, verbatim: magic v2, schema in
/// **name** order, entities, rows by schema index, catalog, checksum.
fn encode_v2(world: &World) -> Vec<u8> {
    encode_pre_v4(world, MAGIC_V2)
}

/// The v2 and v3 layouts: they differ in the schema section's order
/// (v2 by name, v3 by interned id) and share the catalog without a plan
/// section.
fn encode_pre_v4(world: &World, magic: u32) -> Vec<u8> {
    let type_tag = |ty: ValueType| -> u8 {
        match ty {
            ValueType::Float => 0,
            ValueType::Int => 1,
            ValueType::Bool => 2,
            ValueType::Str => 3,
            ValueType::Vec2 => 4,
        }
    };
    let mut body = BytesMut::new();
    let schema: Vec<(String, ValueType)> = if magic == MAGIC_V2 {
        world.schema().map(|(n, t)| (n.to_string(), t)).collect()
    } else {
        world.schema_by_id().map(|(_, n, t)| (n.to_string(), t)).collect()
    };
    body.put_u32_le(schema.len() as u32);
    for (name, ty) in &schema {
        put_str(&mut body, name);
        body.put_u8(type_tag(*ty));
    }
    let entities: Vec<EntityId> = world.entities().collect();
    body.put_u32_le(entities.len() as u32);
    for e in &entities {
        body.put_u64_le(e.to_bits());
    }
    for &e in &entities {
        let rows: Vec<(usize, Value)> = schema
            .iter()
            .enumerate()
            .filter_map(|(i, (name, _))| world.get(e, name).map(|v| (i, v)))
            .collect();
        body.put_u32_le(rows.len() as u32);
        for (i, v) in rows {
            body.put_u32_le(i as u32);
            put_value(&mut body, &v);
        }
    }
    // the pre-v4 catalog: indexes, slot count, then every view as a
    // `(slot, standing query)` table-view entry — and no plan section
    let cat = world.export_catalog();
    body.put_u32_le(cat.indexes.len() as u32);
    for (component, kind) in &cat.indexes {
        put_str(&mut body, component);
        body.put_u8(kind_tag(*kind));
    }
    body.put_u32_le(cat.view_slots);
    body.put_u32_le(cat.views.len() as u32);
    for id in world.view_ids() {
        body.put_u32_le(id.slot());
        put_query(&mut body, world.view_query(id));
    }
    let mut out = BytesMut::with_capacity(body.len() + 28);
    out.put_u32_le(magic);
    out.put_u64_le(world.tick());
    out.put_u64_le(world.lineage());
    out.put_u32_le(body.len() as u32);
    let cksum = checksum(&body);
    out.put_slice(&body);
    out.put_u32_le(cksum);
    out.to_vec()
}

/// Frame a hand-written payload: `len | payload | cksum`.
fn raw_frame(payload: &[u8]) -> Vec<u8> {
    let mut framed = BytesMut::new();
    framed.put_u32_le(payload.len() as u32);
    framed.put_slice(payload);
    framed.put_u32_le(checksum(payload));
    framed.to_vec()
}

/// A raw legacy `Set` frame, byte-by-byte from the old wire spec:
/// `len | tag=1 | entity | name_len | name | value_tag | value | cksum`.
fn raw_legacy_set_frame(entity: EntityId, name: &str, hp: f32) -> Vec<u8> {
    let mut payload = BytesMut::new();
    payload.put_u8(1); // TAG_SET
    payload.put_u64_le(entity.to_bits());
    payload.put_u32_le(name.len() as u32);
    payload.put_slice(name.as_bytes());
    payload.put_u8(0); // value tag: Float
    payload.put_f32_le(hp);
    raw_frame(&payload)
}

/// A raw legacy `RegisterView` frame — tag 8, a bare standing query:
/// `len | tag=8 | slot | query | cksum`.
fn raw_legacy_register_view_frame(slot: u32, query: &Query) -> Vec<u8> {
    let mut payload = BytesMut::new();
    payload.put_u8(8); // TAG_REGISTER_VIEW
    payload.put_u32_le(slot);
    put_query(&mut payload, query);
    raw_frame(&payload)
}

fn sample_world() -> (World, Vec<EntityId>) {
    let mut w = World::new();
    w.define_component("hp", ValueType::Float).unwrap();
    w.define_component("team", ValueType::Str).unwrap();
    w.define_component("gold", ValueType::Int).unwrap();
    let mut ids = Vec::new();
    for i in 0..6 {
        let e = w.spawn_at(Vec2::new(i as f32 * 3.0, -(i as f32)));
        w.set_f32(e, "hp", 10.0 * i as f32).unwrap();
        w.set(e, "team", Value::Str(if i % 2 == 0 { "red" } else { "blue" }.into()))
            .unwrap();
        w.set(e, "gold", Value::Int(i as i64 * 7)).unwrap();
        ids.push(e);
    }
    w.despawn(ids[3]);
    w.create_index("hp", IndexKind::Sorted).unwrap();
    w.register_view(Query::select().filter("hp", CmpOp::Lt, Value::Float(35.0)));
    w.advance_tick_to(9);
    (w, ids)
}

/// A v2 snapshot (name-ordered schema, no interner table) decodes to
/// the same database the old decoder produced: rows, ids, tick,
/// catalog, index probes, views.
#[test]
fn v2_snapshot_decodes_bit_identically() {
    let (w, _) = sample_world();
    let v2 = encode_v2(&w);
    let (decoded, tick) = decode(&v2).unwrap();
    assert_eq!(tick, w.tick());
    assert_eq!(decoded.rows(), w.rows());
    assert_eq!(decoded.tick(), w.tick());
    assert_eq!(decoded.lineage(), w.lineage());
    assert_eq!(decoded.export_catalog(), w.export_catalog());
    crate::crashpoint::assert_equivalent(&decoded, &w).unwrap();
}

/// v2, v3 and v4 snapshots of one world decode to equal databases — the
/// format bumps change bytes, never meaning. (The interner tables may
/// assign different ids — v2 re-interns in name order — which is
/// invisible to every name-keyed surface and only matters to *new*
/// id-keyed WAL tails, which always follow a v3 snapshot.)
#[test]
fn v2_v3_and_v4_snapshots_agree() {
    let (w, _) = sample_world();
    let (from_v2, _) = decode(&encode_v2(&w)).unwrap();
    let (from_v3, _) = decode(&encode_pre_v4(&w, MAGIC_V3)).unwrap();
    let (from_v4, _) = decode(&crate::snapshot::encode(&w)).unwrap();
    for later in [&from_v3, &from_v4] {
        assert_eq!(from_v2.rows(), later.rows());
        assert_eq!(from_v2.export_catalog(), later.export_catalog());
        crate::crashpoint::assert_equivalent(later, &w).unwrap();
        // v3 and later restore the source interner verbatim
        for (id, name, ty) in w.schema_by_id() {
            assert_eq!(later.component_id(name), Some(id));
            assert_eq!(later.component_type(name), Some(ty));
        }
    }
}

/// Pre-interning WAL frames — string-named records under the legacy
/// tags, including a raw hand-assembled `Set` frame — replay onto a v2
/// snapshot to the exact world the old code recovered.
#[test]
fn legacy_wal_frames_recover_bit_identically() {
    // the durable state: a v2 snapshot of the base, then legacy frames
    let mut base = World::new();
    base.define_component("hp", ValueType::Float).unwrap();
    let e0 = base.spawn_at(Vec2::ZERO);
    base.set_f32(e0, "hp", 50.0).unwrap();
    let snapshot = encode_v2(&base);

    let mut log: Vec<u8> = Vec::new();
    log.extend_from_slice(&WalRecord::CheckpointMark { seq: 0 }.encode());
    // a raw byte-level legacy Set frame (pins the old layout exactly)
    log.extend_from_slice(&raw_legacy_set_frame(e0, "hp", 12.5));
    // the rest of the legacy record family via CompRef::Name encoding
    let e1 = EntityId::from_bits(1);
    for r in [
        WalRecord::Spawn { entity: e1, x: 3.0, y: 4.0 },
        WalRecord::Set {
            entity: e1,
            component: "mana".into(), // legacy auto-define on replay
            value: Value::Float(9.0),
        },
        WalRecord::CreateIndex { component: "hp".into(), kind: IndexKind::Sorted },
        WalRecord::RemoveComponent { entity: e1, component: "mana".into() },
        WalRecord::TickTo { tick: 4 },
        WalRecord::DropIndex { component: "hp".into() },
    ] {
        // legacy-form records must round-trip through the current codec
        // in legacy form (compaction re-frames decoded records)
        let bytes = r.encode();
        let (decoded, used) = decode_log(&bytes);
        assert_eq!(used, bytes.len());
        assert_eq!(decoded, vec![r.clone()]);
        log.extend_from_slice(&bytes);
    }
    // a table-view registration decodes as its one-leaf plan
    let watch = Query::select().filter("hp", CmpOp::Lt, Value::Float(20.0));
    let frame = raw_legacy_register_view_frame(0, &watch);
    assert_eq!(
        decode_log(&frame),
        (
            vec![WalRecord::RegisterPlanView { slot: 0, plan: watch.clone().into_plan() }],
            frame.len()
        )
    );
    log.extend_from_slice(&frame);

    let Recovered {
        world: recovered,
        snapshot_seq: seq,
        replayed,
        ..
    } = recover_from_parts(newest_first(&[(0u64, snapshot.as_slice())]), &log).unwrap();
    assert_eq!((seq, replayed), (0, 8));

    // the oracle: the same history through the live write API
    let mut oracle = base;
    oracle.set_f32(e0, "hp", 12.5).unwrap();
    oracle.restore_entity(e1).unwrap();
    oracle.set_pos(e1, Vec2::new(3.0, 4.0)).unwrap();
    oracle.define_component("mana", ValueType::Float).unwrap();
    oracle.set_f32(e1, "mana", 9.0).unwrap();
    oracle.create_index("hp", IndexKind::Sorted).unwrap();
    oracle.remove_component(e1, "mana").unwrap();
    oracle.advance_tick_to(4);
    oracle.drop_index("hp");
    oracle.import_view_at_slot(0, watch.into_plan()).unwrap();
    oracle.refresh_views();

    crate::crashpoint::assert_equivalent(&recovered, &oracle).unwrap();
}

/// The table-view upgrade path: a pre-v4 snapshot whose catalog lists a
/// table view, and a WAL tail that registers two more by the legacy tag,
/// retargets one and drops the other. Recovery hands back plan views at
/// the same slots — pre-crash handles resolve, rows equal the scan
/// oracle — and the next checkpoint writes them as plans.
#[test]
fn legacy_table_views_recover_as_plan_views_at_their_slots() {
    let (w, _) = sample_world();
    let wounded = w.view_ids()[0];
    let snapshot = encode_v2(&w);

    let bubble = Query::select().within(Vec2::ZERO, 4.0);
    let mut log: Vec<u8> = Vec::new();
    log.extend_from_slice(&WalRecord::CheckpointMark { seq: 0 }.encode());
    log.extend_from_slice(&raw_legacy_register_view_frame(1, &bubble));
    log.extend_from_slice(&raw_legacy_register_view_frame(2, &Query::select()));
    for r in [
        WalRecord::RetargetView { slot: 1, x: 12.0, y: -4.0, radius: 5.0 },
        WalRecord::DropView { slot: 2 },
    ] {
        log.extend_from_slice(&r.encode());
    }
    let Recovered {
        world: mut recovered,
        replayed,
        ..
    } = recover_from_parts(newest_first(&[(0u64, snapshot.as_slice())]), &log).unwrap();
    assert_eq!(replayed, 4);

    // same slots, same lineage: the pre-crash handle reads the plan view
    assert!(recovered.has_view(wounded));
    assert_eq!(recovered.view_plan(wounded), w.view_plan(wounded));
    let moved = recovered.view_id_at(1).expect("slot 1 is live");
    assert_eq!(
        recovered.view_plan(moved),
        Some(&Query::select().within(Vec2::new(12.0, -4.0), 5.0).into_plan()),
        "the retarget landed in the stored plan"
    );
    assert_eq!(recovered.view_id_at(2), None, "dropped slot stays burned");
    assert_eq!(recovered.export_catalog().view_slots, 3);
    for id in recovered.view_ids() {
        assert_eq!(
            recovered.view_rows(id),
            recovered.view_query(id).run_scan(&recovered).as_slice()
        );
        assert_eq!(recovered.take_view_delta::<EntityId>(id), None, "recovered unsubscribed");
    }
    assert!(!recovered.view_rows(moved).is_empty(), "the moved disk holds someone");

    // a checkpoint written now round-trips, and carries no table views:
    // the query section's count (after the empty index list and the
    // slot count) is zero, the plan section holds both views
    let (reloaded, _) = decode(&crate::snapshot::encode(&recovered)).unwrap();
    crate::crashpoint::assert_equivalent(&reloaded, &recovered).unwrap();
    let mut cat = recovered.export_catalog();
    cat.indexes.clear();
    let mut bytes = BytesMut::new();
    put_catalog(&mut bytes, &cat);
    assert_eq!(bytes[8..12], 0u32.to_le_bytes());
    assert_eq!(bytes[12..16], 2u32.to_le_bytes());
}

/// The in-place-upgrade shape: a legacy log tail continued by the new
/// code (interned frames with `Define` records) after recovery from a
/// v2 snapshot. The mixed log must replay end-to-end.
#[test]
fn mixed_legacy_and_interned_log_replays() {
    let mut base = World::new();
    base.define_component("hp", ValueType::Float).unwrap();
    let e = base.spawn_at(Vec2::ZERO);
    base.set_f32(e, "hp", 1.0).unwrap();
    let snapshot = encode_v2(&base);

    // what the upgraded process's interner looks like after recovering
    // that v2 snapshot: name-order re-interning
    let (upgraded, _) = decode(&snapshot).unwrap();
    let hp = upgraded.component_id("hp").unwrap();
    let next = ComponentId::from_u32(upgraded.component_count() as u32);

    let mut log: Vec<u8> = Vec::new();
    log.extend_from_slice(&WalRecord::CheckpointMark { seq: 0 }.encode());
    // legacy prefix (written before the upgrade)
    log.extend_from_slice(&raw_legacy_set_frame(e, "hp", 33.0));
    // interned tail (written after): Define precedes first id use
    for r in [
        WalRecord::Set {
            entity: e,
            component: CompRef::Id(hp),
            value: Value::Float(44.0),
        },
        WalRecord::Define {
            component: next,
            name: "rage".into(),
            ty: ValueType::Int,
        },
        WalRecord::Set {
            entity: e,
            component: CompRef::Id(next),
            value: Value::Int(7),
        },
    ] {
        log.extend_from_slice(&r.encode());
    }

    let Recovered {
        world: recovered,
        replayed,
        ..
    } = recover_from_parts(newest_first(&[(0u64, snapshot.as_slice())]), &log).unwrap();
    assert_eq!(replayed, 4);
    assert_eq!(recovered.get_f32(e, "hp"), Some(44.0));
    assert_eq!(recovered.get_i64(e, "rage"), Some(7));
    assert_eq!(recovered.component_id("rage"), Some(next));
}

/// Interned frames are strictly smaller than their legacy string
/// counterparts — the record-size claim at the wire level — and a tick
/// of `hp` writes framed from the change stream is at least 10% smaller
/// in total than the same writes string-named.
#[test]
fn interned_frames_shrink_encoded_records() {
    let mut w = World::new();
    w.define_component("hp", ValueType::Float).unwrap();
    let tap = w.attach_tap();
    for i in 0..512 {
        let e = w.spawn();
        w.set_f32(e, "hp", (i % 100) as f32).unwrap();
    }
    let (mut interned, mut named) = (0, 0);
    for c in w.tap_pending(tap) {
        let record = WalRecord::from_change(c);
        if let WalRecord::Set { entity, component: CompRef::Id(id), value } = &record {
            let component = w.component_name(*id).unwrap().into();
            let legacy = WalRecord::Set { entity: *entity, component, value: value.clone() };
            interned += record.encode().len();
            named += legacy.encode().len();
        }
    }
    assert_eq!((interned, named), (512 * 23, 512 * 28), "bytes per frame");
    assert!(interned * 10 <= named * 9, "{interned} vs {named} bytes");

    let e = EntityId::from_bits(5);
    let hp = ComponentId::from_u32(1);
    for (interned, legacy) in [
        (
            WalRecord::Set { entity: e, component: CompRef::Id(hp), value: Value::Float(1.0) },
            WalRecord::Set { entity: e, component: "hp".into(), value: Value::Float(1.0) },
        ),
        (
            WalRecord::RemoveComponent { entity: e, component: CompRef::Id(hp) },
            WalRecord::RemoveComponent { entity: e, component: "hp".into() },
        ),
        (
            WalRecord::CreateIndex { component: CompRef::Id(hp), kind: IndexKind::Sorted },
            WalRecord::CreateIndex { component: "hp".into(), kind: IndexKind::Sorted },
        ),
        (
            WalRecord::DropIndex { component: CompRef::Id(hp) },
            WalRecord::DropIndex { component: "hp".into() },
        ),
    ] {
        assert!(
            interned.encode().len() < legacy.encode().len(),
            "{interned:?} must encode smaller than {legacy:?}"
        );
    }
}
