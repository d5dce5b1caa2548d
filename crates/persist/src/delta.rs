//! Incremental (delta) checkpoints.
//!
//! A full snapshot of a 100k-entity world every few seconds is most of an
//! MMO's database bill — and almost all of it re-writes rows that did not
//! change. A delta checkpoint ships only the rows whose content changed
//! since the previous checkpoint, plus the ids that disappeared.
//!
//! Dirty rows are found by *content hashing* ([`row_hashes`]): the store
//! keeps one 64-bit FNV hash per row from the last checkpoint and
//! re-hashes at checkpoint time. This needs no write-tracking hooks in
//! the engine (scripts and executors mutate the world freely) at the cost
//! of an O(rows) hash pass — the same trade real games make when bolting
//! persistence onto an engine that never heard of it.
//!
//! Recovery composes: latest full snapshot, then every delta after it in
//! sequence order ([`apply_delta`]).

use std::collections::HashMap;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use gamedb_content::{Value, ValueType};
use gamedb_core::{EntityId, World, POS};

use crate::snapshot::{bounded, checksum, get_value, put_value, SnapshotError, MIN_STR};

/// Delta format magic + version. v2 appends the world catalog
/// (indexes, standing views, lineage, tick) to every delta: derived-
/// state definitions and the tick counter change between checkpoints
/// too, and an incremental recovery that replayed rows but restored
/// the *base snapshot's* catalog would silently lose an index or view
/// registered (or keep one dropped) after the last full snapshot.
/// v3 extends the catalog with the operator-tree (plan) views.
const DELTA_MAGIC: u32 = 0x6744_4403;

/// Content hash of every live row, keyed by entity id bits.
pub type RowHashes = HashMap<u64, u64>;

fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(1099511628211)
    })
}

fn hash_row(world: &World, schema: &[(String, ValueType)], e: EntityId) -> u64 {
    let mut buf = BytesMut::new();
    for (name, _) in schema {
        if let Some(v) = world.get(e, name) {
            buf.put_u8(1);
            put_value(&mut buf, &v);
        } else {
            buf.put_u8(0);
        }
    }
    if let Some(p) = world.pos(e) {
        buf.put_f32_le(p.x);
        buf.put_f32_le(p.y);
    }
    fnv(1469598103934665603, &buf)
}

fn non_pos_schema(world: &World) -> Vec<(String, ValueType)> {
    world
        .schema()
        .filter(|(n, _)| *n != POS)
        .map(|(n, t)| (n.to_string(), t))
        .collect()
}

/// Hash every live row (the baseline the next delta diffs against).
pub fn row_hashes(world: &World) -> RowHashes {
    let schema = non_pos_schema(world);
    world
        .entities()
        .map(|e| (e.to_bits(), hash_row(world, &schema, e)))
        .collect()
}

/// Encode the rows that changed since `prev`, returning the delta bytes
/// and the fresh hash baseline. The delta carries the full schema (new
/// components appear in deltas too), upserted rows, and removed ids.
pub fn encode_delta(world: &World, prev: &RowHashes) -> (Bytes, RowHashes) {
    let schema = non_pos_schema(world);
    let mut fresh = RowHashes::with_capacity(prev.len());
    let mut upserts: Vec<EntityId> = Vec::new();
    for e in world.entities() {
        let h = hash_row(world, &schema, e);
        if prev.get(&e.to_bits()) != Some(&h) {
            upserts.push(e);
        }
        fresh.insert(e.to_bits(), h);
    }
    let removed: Vec<u64> = prev
        .keys()
        .filter(|bits| !fresh.contains_key(*bits))
        .copied()
        .collect();

    let mut body = BytesMut::new();
    body.put_u32_le(schema.len() as u32);
    for (name, ty) in &schema {
        body.put_u32_le(name.len() as u32);
        body.put_slice(name.as_bytes());
        body.put_u8(crate::snapshot::type_tag_pub(*ty));
    }
    // removals first: a freed slot may be re-used by an upserted entity
    // with a newer generation
    body.put_u32_le(removed.len() as u32);
    for bits in removed {
        body.put_u64_le(bits);
    }
    body.put_u32_le(upserts.len() as u32);
    for &e in &upserts {
        body.put_u64_le(e.to_bits());
        // position first (optional), then present components
        match world.pos(e) {
            Some(p) => {
                body.put_u8(1);
                body.put_f32_le(p.x);
                body.put_f32_le(p.y);
            }
            None => body.put_u8(0),
        }
        let present: Vec<(usize, Value)> = schema
            .iter()
            .enumerate()
            .filter_map(|(i, (name, _))| world.get(e, name).map(|v| (i, v)))
            .collect();
        body.put_u32_le(present.len() as u32);
        for (i, v) in present {
            body.put_u32_le(i as u32);
            put_value(&mut body, &v);
        }
    }
    // catalog + identity: carried wholesale (definitions are tiny next
    // to rows) so recovery lands on this checkpoint's derived state and
    // tick, not the base snapshot's
    body.put_u64_le(world.lineage());
    body.put_u64_le(world.tick());
    crate::snapshot::put_catalog(&mut body, &world.export_catalog());
    let mut out = BytesMut::with_capacity(body.len() + 16);
    out.put_u32_le(DELTA_MAGIC);
    out.put_u32_le(body.len() as u32);
    let cksum = checksum(&body);
    out.put_slice(&body);
    out.put_u32_le(cksum);
    (out.freeze(), fresh)
}

/// Apply one delta to a world recovered from the preceding snapshot (or
/// earlier deltas). Upserted rows replace the entity's components
/// entirely; removed ids despawn.
pub fn apply_delta(world: &mut World, data: &[u8]) -> Result<(), SnapshotError> {
    let mut buf = Bytes::copy_from_slice(data);
    if buf.remaining() < 8 {
        return Err(SnapshotError::Truncated);
    }
    let magic = buf.get_u32_le();
    if magic != DELTA_MAGIC {
        return Err(SnapshotError::BadMagic(magic));
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len + 4 {
        return Err(SnapshotError::Truncated);
    }
    let body = buf.copy_to_bytes(len);
    let expected = buf.get_u32_le();
    let got = checksum(&body);
    if expected != got {
        return Err(SnapshotError::ChecksumMismatch { expected, got });
    }

    let mut buf = body;
    macro_rules! need {
        ($n:expr) => {
            if buf.remaining() < $n {
                return Err(SnapshotError::Truncated);
            }
        };
    }
    // every count read here is bounded by what the rest of the body
    // could hold before anything is sized or looped by it
    need!(4);
    let n_schema = bounded(buf.get_u32_le() as usize, &buf, MIN_STR + 1)?;
    let mut schema = Vec::with_capacity(n_schema);
    for _ in 0..n_schema {
        need!(4);
        let name_len = buf.get_u32_le() as usize;
        need!(name_len + 1);
        let name = String::from_utf8(buf.copy_to_bytes(name_len).to_vec())
            .map_err(|_| SnapshotError::Corrupt("non-utf8 component name".into()))?;
        let ty = crate::snapshot::tag_type_pub(buf.get_u8())?;
        match world.component_type(&name) {
            Some(existing) if existing != ty => {
                return Err(SnapshotError::Corrupt(format!(
                    "component {name} type changed across delta"
                )))
            }
            Some(_) => {}
            None => world
                .define_component(&name, ty)
                .map_err(|e| SnapshotError::Corrupt(e.to_string()))?,
        }
        schema.push((name, ty));
    }

    need!(4);
    let n_removed = bounded(buf.get_u32_le() as usize, &buf, 8)?;
    for _ in 0..n_removed {
        need!(8);
        let id = EntityId::from_bits(buf.get_u64_le());
        world.despawn(id);
    }

    need!(4);
    // id, position flag, component count
    let n_upserts = bounded(buf.get_u32_le() as usize, &buf, 8 + 1 + 4)?;
    for _ in 0..n_upserts {
        need!(9);
        let id = EntityId::from_bits(buf.get_u64_le());
        if !world.is_live(id) {
            world
                .restore_entity(id)
                .map_err(|e| SnapshotError::Corrupt(e.to_string()))?;
        }
        let has_pos = buf.get_u8() != 0;
        if has_pos {
            need!(8);
            let x = buf.get_f32_le();
            let y = buf.get_f32_le();
            world
                .set(id, POS, Value::Vec2(x, y))
                .map_err(|e| SnapshotError::Corrupt(e.to_string()))?;
        }
        need!(4);
        // schema index + the smallest value
        let n_present = bounded(buf.get_u32_le() as usize, &buf, 4 + 1)?;
        let mut present = vec![false; schema.len()];
        for _ in 0..n_present {
            need!(4);
            let idx = buf.get_u32_le() as usize;
            let (name, ty) = schema
                .get(idx)
                .ok_or_else(|| SnapshotError::Corrupt(format!("schema index {idx}")))?;
            let value = get_value(&mut buf, *ty)?;
            world
                .set(id, name, value)
                .map_err(|e| SnapshotError::Corrupt(e.to_string()))?;
            present[idx] = true;
        }
        // the upsert is the whole row: components absent from it were
        // cleared between checkpoints
        for (idx, (name, _)) in schema.iter().enumerate() {
            if !present[idx] && world.get(id, name).is_some() {
                world
                    .remove_component(id, name)
                    .map_err(|e| SnapshotError::Corrupt(e.to_string()))?;
            }
        }
    }

    // catalog + identity: make derived state exactly match this
    // checkpoint (drops included), adopt its lineage and tick
    need!(16);
    let lineage = buf.get_u64_le();
    let tick = buf.get_u64_le();
    let catalog = crate::snapshot::get_catalog(&mut buf, lineage, tick, true)?;
    world
        .reconcile_catalog(&catalog)
        .map_err(|e| SnapshotError::Corrupt(e.to_string()))?;

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gamedb_spatial::Vec2;

    fn world(n: usize) -> (World, Vec<EntityId>) {
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        w.define_component("gold", ValueType::Int).unwrap();
        let mut ids = Vec::new();
        for i in 0..n {
            let e = w.spawn_at(Vec2::new(i as f32, 0.0));
            w.set_f32(e, "hp", 100.0).unwrap();
            w.set(e, "gold", Value::Int(10 * i as i64)).unwrap();
            ids.push(e);
        }
        (w, ids)
    }

    #[test]
    fn unchanged_world_produces_empty_delta() {
        let (w, _) = world(20);
        let base = row_hashes(&w);
        let (delta, fresh) = encode_delta(&w, &base);
        assert_eq!(base, fresh);
        // header + schema only — far smaller than a full snapshot
        assert!(delta.len() < crate::snapshot::encode(&w).len() / 2);
        let mut w2 = w.clone();
        apply_delta(&mut w2, &delta).unwrap();
        assert_eq!(w.rows(), w2.rows());
    }

    #[test]
    fn changed_rows_round_trip() {
        let (mut w, ids) = world(20);
        let recovered_base = w.clone();
        let base = row_hashes(&w);
        w.set_f32(ids[3], "hp", 55.0).unwrap();
        w.set_pos(ids[7], Vec2::new(99.0, 99.0)).unwrap();
        let (delta, _) = encode_delta(&w, &base);
        let mut recovered = recovered_base;
        apply_delta(&mut recovered, &delta).unwrap();
        assert_eq!(recovered.rows(), w.rows());
    }

    #[test]
    fn spawn_and_despawn_round_trip() {
        let (mut w, ids) = world(10);
        let base_world = w.clone();
        let base = row_hashes(&w);
        w.despawn(ids[2]);
        let newbie = w.spawn_at(Vec2::new(50.0, 50.0));
        w.set_f32(newbie, "hp", 1.0).unwrap();
        let (delta, _) = encode_delta(&w, &base);
        let mut recovered = base_world;
        apply_delta(&mut recovered, &delta).unwrap();
        assert_eq!(recovered.rows(), w.rows());
        assert!(!recovered.is_live(ids[2]));
        assert!(recovered.is_live(newbie));
    }

    #[test]
    fn cleared_component_round_trips() {
        let (mut w, ids) = world(5);
        let base_world = w.clone();
        let base = row_hashes(&w);
        w.remove_component(ids[1], "gold").unwrap();
        let (delta, _) = encode_delta(&w, &base);
        let mut recovered = base_world;
        apply_delta(&mut recovered, &delta).unwrap();
        assert_eq!(recovered.get(ids[1], "gold"), None);
        assert_eq!(recovered.rows(), w.rows());
    }

    #[test]
    fn new_component_defined_by_delta() {
        let (mut w, ids) = world(5);
        let base_world = w.clone();
        let base = row_hashes(&w);
        w.define_component("mana", ValueType::Float).unwrap();
        w.set_f32(ids[0], "mana", 30.0).unwrap();
        let (delta, _) = encode_delta(&w, &base);
        let mut recovered = base_world;
        apply_delta(&mut recovered, &delta).unwrap();
        assert_eq!(recovered.get_f32(ids[0], "mana"), Some(30.0));
    }

    #[test]
    fn chained_deltas_compose() {
        let (mut w, ids) = world(10);
        let mut recovered = w.clone();
        let mut hashes = row_hashes(&w);
        for step in 0..5 {
            w.set_f32(ids[step], "hp", step as f32).unwrap();
            if step == 2 {
                w.despawn(ids[9]);
            }
            let (delta, fresh) = encode_delta(&w, &hashes);
            hashes = fresh;
            apply_delta(&mut recovered, &delta).unwrap();
        }
        assert_eq!(recovered.rows(), w.rows());
    }

    #[test]
    fn delta_size_scales_with_change_not_world() {
        let (mut w, ids) = world(1000);
        let base = row_hashes(&w);
        w.set_f32(ids[0], "hp", 1.0).unwrap();
        let (small, _) = encode_delta(&w, &base);
        for &e in ids.iter().take(500) {
            w.set_f32(e, "hp", 2.0).unwrap();
        }
        let (big, _) = encode_delta(&w, &base);
        let full = crate::snapshot::encode(&w);
        assert!(small.len() * 20 < big.len(), "1 vs 500 rows");
        assert!(big.len() < full.len(), "500 rows < 1000 rows");
    }

    /// Every count read from a delta is bounded by what the body could
    /// hold before anything is sized or looped by it: a forged count
    /// under a recomputed (valid) checksum is a truncation, not a
    /// multi-gigabyte allocation.
    #[test]
    fn forged_delta_counts_fail_before_they_allocate() {
        // the body starts after magic and length
        const BODY: usize = 8;
        let (mut w, ids) = world(3);
        let base_world = w.clone();
        let base = row_hashes(&w);
        w.set_f32(ids[0], "hp", 1.0).unwrap();
        w.despawn(ids[2]);
        let (delta, _) = encode_delta(&w, &base);
        let delta = delta.to_vec();
        // body: n_schema | (name, tag)* | n_removed | id* | n_upserts |
        // id, pos flag, x, y | n_present | ...
        let schema: usize = non_pos_schema(&w).iter().map(|(n, _)| 4 + n.len() + 1).sum();
        let removed = 4 + schema;
        let upserts = removed + 4 + 8;
        let present = upserts + 4 + 8 + 1 + 8;
        for (what, at, count) in [
            ("schema", 0, 2),
            ("removed", removed, 1),
            ("upsert", upserts, 1),
            ("present", present, 2),
        ] {
            let at = BODY + at;
            let read = u32::from_le_bytes(delta[at..at + 4].try_into().unwrap());
            assert_eq!(read, count, "the {what} count sits at {at}");
            let mut forged = delta.clone();
            forged[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            let end = forged.len() - 4;
            let sum = checksum(&forged[BODY..end]);
            forged[end..].copy_from_slice(&sum.to_le_bytes());
            assert_eq!(
                apply_delta(&mut base_world.clone(), &forged),
                Err(SnapshotError::Truncated),
                "forged {what} count"
            );
        }
    }

    #[test]
    fn corruption_detected() {
        let (mut w, ids) = world(5);
        let base = row_hashes(&w);
        w.set_f32(ids[0], "hp", 1.0).unwrap();
        let (delta, _) = encode_delta(&w, &base);
        let mut bad = delta.to_vec();
        let n = bad.len();
        bad[n / 2] ^= 0xff;
        let mut w2 = World::new();
        assert!(apply_delta(&mut w2, &bad).is_err());
        assert!(matches!(
            apply_delta(&mut w2, b"notadelta......."),
            Err(SnapshotError::BadMagic(_))
        ));
    }
}
