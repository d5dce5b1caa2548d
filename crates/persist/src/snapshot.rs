//! Binary world snapshots.
//!
//! A snapshot is the unit the in-memory layer periodically writes to the
//! durable backend — the paper's "only writes to the database
//! periodically". The format is length-prefixed and checksummed so a torn
//! write (crash mid-checkpoint) is detected rather than half-loaded.
//!
//! There is one format version, and the decoder reads exactly what
//! [`encode`] writes: a file of any other version is refused with
//! [`SnapshotError::BadMagic`].

use bytes::{Buf, BufMut, Bytes, BytesMut};
use gamedb_content::{CmpOp, Value, ValueType};
use gamedb_core::{
    AggFn, Column, ColumnData, EntityId, IndexKind, JoinOn, PlanNode, Pred, Query, StrColumn,
    ViewPlan, World, WorldCatalog, NO_CODE,
};
use gamedb_spatial::Vec2;
use std::fmt;
use std::time::Instant;

use crate::walstore::RecoveryStats;

/// Format magic + version (v6). The frame is a header (magic, tick,
/// lineage, body length), the body, and a [`checksum`] over header and
/// body. The body is the schema in **interned id order** (decoding
/// defines columns in listed order, so the recovered world's
/// [`gamedb_core::ComponentId`] table matches the snapshotted world's
/// and WAL-tail records decode to the columns they were recorded
/// against), the entity list, the rows **column by column** — per
/// schema entry a presence bitmap over the entity list, then the
/// present values packed in list order, a string column's as its
/// dictionary (each distinct string once, in order of first use over
/// the list) and one `u32` code per value — and the catalog: indexes,
/// view slots and the views as operator-tree plans. Earlier versions
/// are not read.
const MAGIC: u32 = 0x6744_4206; // "gDB" v6

/// How far past the live count a slot read from disk may reach: the
/// snapshot's highest entity slot and view slot count, and a redone
/// restore or view registration. Each sizes a table one entry per slot
/// before anything else fails, so a forged one near `u32::MAX` would
/// cost gigabytes; a writer that held more than this many free slots
/// above its live entities (or views) is refused with it.
pub(crate) const MAX_RESTORE_GAP: usize = 1 << 24;

/// Errors decoding a snapshot or a log frame (the part is named by
/// whoever decodes it: `StoreError::Decode` in recovery).
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    BadMagic(u32),
    Truncated,
    ChecksumMismatch { expected: u32, got: u32 },
    BadTypeTag(u8),
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic(m) => write!(f, "bad magic 0x{m:08x}"),
            SnapshotError::Truncated => write!(f, "truncated"),
            SnapshotError::ChecksumMismatch { expected, got } => {
                write!(f, "checksum mismatch: expected {expected:#x}, got {got:#x}")
            }
            SnapshotError::BadTypeTag(t) => write!(f, "unknown type tag {t}"),
            SnapshotError::Corrupt(m) => write!(f, "corrupt: {m}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// xxHash32's multipliers: odd, so multiplying by one is a bijection.
const P1: u32 = 0x9E37_79B1;
const P2: u32 = 0x85EB_CA77;
const P3: u32 = 0xC2B2_AE3D;
const P4: u32 = 0x27D4_EB2F;

/// Independent lanes of [`checksum`]: one 32-byte block per step.
const LANES: usize = 8;

/// The one checksum of snapshots and WAL frames. Eight 32-bit lanes
/// each take every eighth little-endian word of the input's 32-byte
/// blocks; the lanes, the length and the tail words (the last one
/// zero-padded) then fold into one word, which is avalanched. Every
/// step is a bijection of the state for a fixed word and of the word
/// for a fixed state (add the word times an odd constant, rotate,
/// multiply by an odd constant), the fold adds each lane rotated, and
/// the avalanche is a bijection too. So two inputs of one length that
/// differ only within one aligned 4-byte word — every single-bit flip,
/// every single-byte change — never share a checksum. The lanes are
/// independent, so a block's eight words are in flight at once.
pub fn checksum(data: &[u8]) -> u32 {
    let word = |w: &[u8]| u32::from_le_bytes(w.try_into().expect("4 bytes"));
    let mut lanes: [u32; LANES] = std::array::from_fn(|i| P1.wrapping_mul(i as u32 + 1));
    let mut blocks = data.chunks_exact(4 * LANES);
    for block in &mut blocks {
        for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(4)) {
            *lane = lane
                .wrapping_add(word(w).wrapping_mul(P2))
                .rotate_left(13)
                .wrapping_mul(P1);
        }
    }
    let mut h = (lanes.iter().enumerate()).fold(data.len() as u32, |h, (i, lane)| {
        h.wrapping_add(lane.rotate_left(4 * i as u32 + 1))
    });
    for w in blocks.remainder().chunks(4) {
        let mut padded = [0u8; 4];
        padded[..w.len()].copy_from_slice(w);
        h = h
            .wrapping_add(word(&padded).wrapping_mul(P3))
            .rotate_left(17)
            .wrapping_mul(P4);
    }
    h ^= h >> 15;
    h = h.wrapping_mul(P2);
    h ^= h >> 13;
    h = h.wrapping_mul(P3);
    h ^ (h >> 16)
}

/// The value-type tag table, shared by snapshots and WAL frames.
pub(crate) fn type_tag(ty: ValueType) -> u8 {
    match ty {
        ValueType::Float => 0,
        ValueType::Int => 1,
        ValueType::Bool => 2,
        ValueType::Str => 3,
        ValueType::Vec2 => 4,
    }
}

pub(crate) fn tag_type(tag: u8) -> Result<ValueType, SnapshotError> {
    Ok(match tag {
        0 => ValueType::Float,
        1 => ValueType::Int,
        2 => ValueType::Bool,
        3 => ValueType::Str,
        4 => ValueType::Vec2,
        t => return Err(SnapshotError::BadTypeTag(t)),
    })
}

pub(crate) fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

pub(crate) fn get_str(buf: &mut impl Buf) -> Result<String, SnapshotError> {
    if buf.remaining() < 4 {
        return Err(SnapshotError::Truncated);
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(SnapshotError::Truncated);
    }
    let s = std::str::from_utf8(&buf.chunk()[..len])
        .map_err(|_| SnapshotError::Corrupt("non-utf8 string".into()))?
        .to_owned();
    buf.advance(len);
    Ok(s)
}

/// Encode one value (type known from the schema).
pub(crate) fn put_value(buf: &mut BytesMut, v: &Value) {
    match v {
        Value::Float(x) => buf.put_f32_le(*x),
        Value::Int(x) => buf.put_i64_le(*x),
        Value::Bool(b) => buf.put_u8(*b as u8),
        Value::Str(s) => put_str(buf, s),
        Value::Vec2(x, y) => {
            buf.put_f32_le(*x);
            buf.put_f32_le(*y);
        }
    }
}

/// Decode one value of a known type.
#[inline]
pub(crate) fn get_value(buf: &mut impl Buf, ty: ValueType) -> Result<Value, SnapshotError> {
    macro_rules! need {
        ($n:expr) => {
            if buf.remaining() < $n {
                return Err(SnapshotError::Truncated);
            }
        };
    }
    Ok(match ty {
        ValueType::Float => {
            need!(4);
            Value::Float(buf.get_f32_le())
        }
        ValueType::Int => {
            need!(8);
            Value::Int(buf.get_i64_le())
        }
        ValueType::Bool => {
            need!(1);
            Value::Bool(buf.get_u8() != 0)
        }
        ValueType::Str => Value::Str(get_str(buf)?),
        ValueType::Vec2 => {
            need!(8);
            let x = buf.get_f32_le();
            let y = buf.get_f32_le();
            Value::Vec2(x, y)
        }
    })
}

fn op_tag(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    }
}

fn tag_op(tag: u8) -> Result<CmpOp, SnapshotError> {
    Ok(match tag {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        5 => CmpOp::Ge,
        t => return Err(SnapshotError::Corrupt(format!("unknown op tag {t}"))),
    })
}

pub(crate) fn kind_tag(kind: IndexKind) -> u8 {
    match kind {
        IndexKind::Hash => 0,
        IndexKind::Sorted => 1,
    }
}

pub(crate) fn tag_kind(tag: u8) -> Result<IndexKind, SnapshotError> {
    Ok(match tag {
        0 => IndexKind::Hash,
        1 => IndexKind::Sorted,
        t => return Err(SnapshotError::Corrupt(format!("unknown index kind {t}"))),
    })
}

/// Encode a standing query: predicates, spatial restriction, exclusion
/// — the body of a plan's scan leaf.
fn put_query(buf: &mut BytesMut, q: &Query) {
    buf.put_u32_le(q.predicates().len() as u32);
    for p in q.predicates() {
        put_str(buf, &p.component);
        buf.put_u8(op_tag(p.op));
        buf.put_u8(type_tag(p.value.value_type()));
        put_value(buf, &p.value);
    }
    match q.spatial() {
        Some((c, r)) => {
            buf.put_u8(1);
            buf.put_f32_le(c.x);
            buf.put_f32_le(c.y);
            buf.put_f32_le(r);
        }
        None => buf.put_u8(0),
    }
    match q.excluded() {
        Some(e) => {
            buf.put_u8(1);
            buf.put_u64_le(e.to_bits());
        }
        None => buf.put_u8(0),
    }
}

/// Inverse of [`put_query`].
fn get_query(buf: &mut impl Buf) -> Result<Query, SnapshotError> {
    macro_rules! need {
        ($n:expr) => {
            if buf.remaining() < $n {
                return Err(SnapshotError::Truncated);
            }
        };
    }
    need!(4);
    let n_preds = buf.get_u32_le() as usize;
    let mut q = Query::select();
    for _ in 0..n_preds {
        let component = get_str(buf)?;
        need!(2);
        let op = tag_op(buf.get_u8())?;
        let ty = tag_type(buf.get_u8())?;
        let value = get_value(buf, ty)?;
        q = q.filter(component, op, value);
    }
    need!(1);
    if buf.get_u8() != 0 {
        need!(12);
        let x = buf.get_f32_le();
        let y = buf.get_f32_le();
        let r = buf.get_f32_le();
        q = q.within(Vec2::new(x, y), r);
    }
    need!(1);
    if buf.get_u8() != 0 {
        need!(8);
        q = q.excluding(EntityId::from_bits(buf.get_u64_le()));
    }
    Ok(q)
}

fn agg_tag(f: &AggFn) -> (u8, Option<&str>) {
    match f {
        AggFn::Count => (0, None),
        AggFn::Sum(c) => (1, Some(c)),
        AggFn::Min(c) => (2, Some(c)),
        AggFn::Max(c) => (3, Some(c)),
        AggFn::Avg(c) => (4, Some(c)),
        AggFn::ArgMin(c) => (5, Some(c)),
        AggFn::ArgMax(c) => (6, Some(c)),
    }
}

fn tag_agg(tag: u8, column: Option<String>) -> Result<AggFn, SnapshotError> {
    let col = || column.ok_or_else(|| SnapshotError::Corrupt("aggregate without column".into()));
    Ok(match tag {
        0 => AggFn::Count,
        1 => AggFn::Sum(col()?),
        2 => AggFn::Min(col()?),
        3 => AggFn::Max(col()?),
        4 => AggFn::Avg(col()?),
        5 => AggFn::ArgMin(col()?),
        6 => AggFn::ArgMax(col()?),
        t => return Err(SnapshotError::Corrupt(format!("unknown aggregate tag {t}"))),
    })
}

fn put_node(buf: &mut BytesMut, node: &PlanNode) {
    match node {
        PlanNode::Scan { query, only } => {
            buf.put_u8(0);
            put_query(buf, query);
            match only {
                Some(e) => {
                    buf.put_u8(1);
                    buf.put_u64_le(e.to_bits());
                }
                None => buf.put_u8(0),
            }
        }
        PlanNode::Filter { input, pred } => {
            buf.put_u8(1);
            put_node(buf, input);
            put_str(buf, &pred.component);
            buf.put_u8(op_tag(pred.op));
            buf.put_u8(type_tag(pred.value.value_type()));
            put_value(buf, &pred.value);
        }
        PlanNode::Project { input, columns } => {
            buf.put_u8(2);
            put_node(buf, input);
            buf.put_u32_le(columns.len() as u32);
            for c in columns {
                put_str(buf, c);
            }
        }
        PlanNode::Join { left, right, on } => {
            buf.put_u8(3);
            put_node(buf, left);
            put_node(buf, right);
            match on {
                JoinOn::Eq { left, right } => {
                    buf.put_u8(0);
                    put_str(buf, left);
                    put_str(buf, right);
                }
                JoinOn::Within { radius } => {
                    buf.put_u8(1);
                    buf.put_f32_le(*radius);
                }
            }
        }
        PlanNode::GroupAggregate {
            input,
            group_by,
            agg,
        } => {
            buf.put_u8(4);
            put_node(buf, input);
            match group_by {
                Some(g) => {
                    buf.put_u8(1);
                    put_str(buf, g);
                }
                None => buf.put_u8(0),
            }
            let (tag, col) = agg_tag(agg);
            buf.put_u8(tag);
            if let Some(c) = col {
                put_str(buf, c);
            }
        }
    }
}

fn get_node(buf: &mut impl Buf, depth: usize) -> Result<PlanNode, SnapshotError> {
    macro_rules! need {
        ($n:expr) => {
            if buf.remaining() < $n {
                return Err(SnapshotError::Truncated);
            }
        };
    }
    // Parsed from disk: a corrupt length must not recurse unboundedly.
    if depth >= gamedb_core::dvm::MAX_PLAN_DEPTH {
        return Err(SnapshotError::Corrupt("plan exceeds depth bound".into()));
    }
    need!(1);
    Ok(match buf.get_u8() {
        0 => {
            let query = get_query(buf)?;
            need!(1);
            let only = if buf.get_u8() != 0 {
                need!(8);
                Some(EntityId::from_bits(buf.get_u64_le()))
            } else {
                None
            };
            PlanNode::Scan { query, only }
        }
        1 => {
            let input = Box::new(get_node(buf, depth + 1)?);
            let component = get_str(buf)?;
            need!(2);
            let op = tag_op(buf.get_u8())?;
            let ty = tag_type(buf.get_u8())?;
            let value = get_value(buf, ty)?;
            PlanNode::Filter {
                input,
                pred: Pred::new(component, op, value),
            }
        }
        2 => {
            let input = Box::new(get_node(buf, depth + 1)?);
            need!(4);
            let n = buf.get_u32_le() as usize;
            let mut columns = Vec::with_capacity(n.min(64));
            for _ in 0..n {
                columns.push(get_str(buf)?);
            }
            PlanNode::Project { input, columns }
        }
        3 => {
            let left = Box::new(get_node(buf, depth + 1)?);
            let right = Box::new(get_node(buf, depth + 1)?);
            need!(1);
            let on = match buf.get_u8() {
                0 => JoinOn::Eq {
                    left: get_str(buf)?,
                    right: get_str(buf)?,
                },
                1 => {
                    need!(4);
                    JoinOn::Within {
                        radius: buf.get_f32_le(),
                    }
                }
                t => return Err(SnapshotError::Corrupt(format!("unknown join tag {t}"))),
            };
            PlanNode::Join { left, right, on }
        }
        4 => {
            let input = Box::new(get_node(buf, depth + 1)?);
            need!(1);
            let group_by = if buf.get_u8() != 0 {
                Some(get_str(buf)?)
            } else {
                None
            };
            need!(1);
            let tag = buf.get_u8();
            let column = if tag != 0 { Some(get_str(buf)?) } else { None };
            PlanNode::GroupAggregate {
                input,
                group_by,
                agg: tag_agg(tag, column)?,
            }
        }
        t => return Err(SnapshotError::Corrupt(format!("unknown plan node tag {t}"))),
    })
}

/// Encode a view plan. Shared by the snapshot catalog section and the
/// WAL's `RegisterPlanView` record so both sides of recovery agree on
/// the definition.
pub(crate) fn put_plan(buf: &mut BytesMut, plan: &ViewPlan) {
    put_node(buf, &plan.root);
}

/// Inverse of [`put_plan`]. Structural validity (operator nesting,
/// column visibility) is re-checked by the core when the plan is
/// re-registered, so corruption surfaces as a registration error, not
/// undefined view state.
pub(crate) fn get_plan(buf: &mut impl Buf) -> Result<ViewPlan, SnapshotError> {
    Ok(ViewPlan::new(get_node(buf, 0)?))
}

/// Encode a world catalog (without lineage/tick, which the snapshot
/// header already carries).
fn put_catalog(buf: &mut BytesMut, cat: &WorldCatalog) {
    buf.put_u32_le(cat.indexes.len() as u32);
    for (component, kind) in &cat.indexes {
        put_str(buf, component);
        buf.put_u8(kind_tag(*kind));
    }
    buf.put_u32_le(cat.view_slots);
    buf.put_u32_le(cat.views.len() as u32);
    for (slot, plan) in &cat.views {
        buf.put_u32_le(*slot);
        put_plan(buf, plan);
    }
}

fn get_catalog(buf: &mut impl Buf, lineage: u64, tick: u64) -> Result<WorldCatalog, SnapshotError> {
    macro_rules! need {
        ($n:expr) => {
            if buf.remaining() < $n {
                return Err(SnapshotError::Truncated);
            }
        };
    }
    need!(4);
    let n_indexes = buf.get_u32_le() as usize;
    let mut indexes = Vec::with_capacity(bounded(n_indexes, &*buf, MIN_STR + 1)?);
    for _ in 0..n_indexes {
        let name = get_str(buf)?;
        need!(1);
        indexes.push((name, tag_kind(buf.get_u8())?));
    }
    need!(8);
    let view_slots = buf.get_u32_le();
    let n_plans = buf.get_u32_le() as usize;
    let mut views = Vec::new();
    for _ in 0..n_plans {
        need!(4);
        let slot = buf.get_u32_le();
        if slot >= view_slots {
            return Err(SnapshotError::Corrupt(format!(
                "view slot {slot} of {view_slots}"
            )));
        }
        views.push((slot, get_plan(buf)?));
    }
    check_view_slots(view_slots, views.len())?;
    // one slot-ordered list, as `World::export_catalog` hands out
    views.sort_by_key(|(slot, _)| *slot);
    if let Some(w) = views.windows(2).find(|w| w[0].0 == w[1].0) {
        return Err(SnapshotError::Corrupt(format!(
            "view slot {} twice",
            w[0].0
        )));
    }
    Ok(WorldCatalog {
        lineage,
        tick,
        indexes,
        view_slots,
        views,
    })
}

/// Serialize a world: header, schema, entities, rows, catalog,
/// checksum.
///
/// The schema section lists components in **interned id order** (`pos`
/// first, then definition order) — this *is* the durable interner
/// table: decode re-interns in listed order, so every id the snapshot
/// lineage ever recorded (WAL tails, replication segments) resolves
/// identically after recovery.
///
/// Rows are written column by column ([`put_column`]): each schema
/// entry's column is resolved once and read by slot through its typed
/// storage — no name lookup, no [`Value`] per row.
pub fn encode(world: &World) -> Bytes {
    let schema: Vec<(&str, &Column)> = world
        .schema_by_id()
        .map(|(id, name, _)| (name, world.column_by_id(id).expect("schema ids are dense")))
        .collect();
    // the buffer is sized exactly, so it never regrows and freezing it
    // copies nothing: the catalog is encoded ahead, the rest counted
    let mut catalog = BytesMut::new();
    put_catalog(&mut catalog, &world.export_catalog());
    let size = FRAME
        + 4
        + schema.iter().map(|(name, _)| MIN_STR + name.len() + 1).sum::<usize>()
        + 4
        + 8 * world.len()
        + schema
            .iter()
            .map(|(_, col)| column_bytes(col, world.len()))
            .sum::<usize>()
        + catalog.len()
        + 4;
    let mut out = BytesMut::with_capacity(size);
    // frame header; the body length is patched in once the body is known
    out.put_u32_le(MAGIC);
    out.put_u64_le(world.tick());
    out.put_u64_le(world.lineage());
    out.put_u32_le(0);
    // schema, in id order (see above)
    out.put_u32_le(schema.len() as u32);
    for (name, col) in &schema {
        put_str(&mut out, name);
        out.put_u8(type_tag(col.ty()));
    }
    // entities, in slot order
    out.put_u32_le(world.len() as u32);
    for e in world.entities() {
        out.put_u64_le(e.to_bits());
    }
    // rows, column by column
    for (_, col) in &schema {
        let slots = || world.entities().map(|e| e.index() as usize);
        put_column(&mut out, col, world.len(), slots);
    }
    // catalog: index definitions + standing views
    out.put_slice(&catalog);
    // frame: the body's length, then the checksum of header and body
    let len = (out.len() - FRAME) as u32;
    out[FRAME - 4..FRAME].copy_from_slice(&len.to_le_bytes());
    let cksum = checksum(&out);
    out.put_u32_le(cksum);
    debug_assert_eq!(out.len(), size, "the snapshot was sized exactly");
    out.freeze()
}

/// Bytes of the frame header ahead of the body: magic, tick, lineage,
/// body length.
const FRAME: usize = 24;

/// Smallest encoding of a string: its length prefix.
const MIN_STR: usize = 4;

/// Bytes [`put_column`] spends on `col` over `n` listed entities: the
/// presence bitmap, then each present value — for a string column, the
/// dictionary (every string in it is held by a listed entity) and a
/// code per value.
fn column_bytes(col: &Column, n: usize) -> usize {
    let present = col.present_count();
    let values = match col.data() {
        ColumnData::F32(_) => 4 * present,
        ColumnData::I64(_) | ColumnData::V2(_) => 8 * present,
        ColumnData::Bool(_) => present,
        ColumnData::Str(v) => {
            4 + v.strings().map(|s| MIN_STR + s.len()).sum::<usize>() + 4 * present
        }
    };
    n.div_ceil(8) + values
}

/// One column of the row section over the `n` listed entities, whose
/// slots each call of `slots` yields in list order: a presence bitmap
/// (bit `i % 8` of byte `i / 8` set when the `i`-th listed entity has a
/// value; the bits past the list clear), then the present values packed
/// in list order — one type dispatch per column, one pass over the list
/// (two for a string column, [`put_str_column`]).
fn put_column<I: Iterator<Item = usize>>(
    out: &mut BytesMut,
    col: &Column,
    n: usize,
    slots: impl Fn() -> I,
) {
    let present = col.presence();
    match col.data() {
        ColumnData::F32(v) => pack(out, present, n, slots(), |out, slot| {
            out.put_f32_le(v[slot])
        }),
        ColumnData::I64(v) => pack(out, present, n, slots(), |out, slot| {
            out.put_i64_le(v[slot])
        }),
        ColumnData::Bool(v) => pack(out, present, n, slots(), |out, slot| {
            out.put_u8(v[slot] as u8)
        }),
        ColumnData::Str(v) => put_str_column(out, present, v, n, slots),
        ColumnData::V2(v) => pack(out, present, n, slots(), |out, slot| {
            let [x, y] = v[slot];
            out.put_f32_le(x);
            out.put_f32_le(y);
        }),
    }
}

/// Write the presence bitmap of the `n` listed entities at `slots`, and
/// `put` each present value after it.
fn pack(
    out: &mut BytesMut,
    present: &[bool],
    n: usize,
    slots: impl Iterator<Item = usize>,
    mut put: impl FnMut(&mut BytesMut, usize),
) {
    let bitmap = out.len();
    out.resize(bitmap + n.div_ceil(8), 0);
    for (i, slot) in slots.enumerate() {
        if present.get(slot) == Some(&true) {
            out[bitmap + i / 8] |= 1 << (i % 8);
            put(out, slot);
        }
    }
}

/// A string column's part of [`put_column`]: the bitmap, then the
/// dictionary — its entry count, then each distinct string once,
/// numbered in order of first use over the list — then one `u32` code
/// per present value, in that numbering. The first pass numbers the
/// codes as it writes the bitmap; the second writes the codes.
fn put_str_column<I: Iterator<Item = usize>>(
    out: &mut BytesMut,
    present: &[bool],
    v: &StrColumn,
    n: usize,
    slots: impl Fn() -> I,
) {
    let codes = v.codes();
    let mut number = vec![NO_CODE; v.code_bound()];
    let mut first_use = Vec::with_capacity(v.distinct());
    pack(out, present, n, slots(), |_, slot| {
        let code = codes[slot];
        if number[code as usize] == NO_CODE {
            number[code as usize] = first_use.len() as u32;
            first_use.push(code);
        }
    });
    out.put_u32_le(first_use.len() as u32);
    for &code in &first_use {
        let s = v.decode(code).expect("a held code is in the dictionary");
        put_str(out, s);
    }
    for slot in slots().filter(|&slot| present.get(slot) == Some(&true)) {
        out.put_u32_le(number[codes[slot] as usize]);
    }
}

/// Positions of the set bits of a presence bitmap, ascending.
fn set_bits(bitmap: &[u8]) -> impl Iterator<Item = usize> + '_ {
    bitmap
        .iter()
        .enumerate()
        .filter(|(_, &bits)| bits != 0)
        .flat_map(|(at, &bits)| {
            (0..8)
                .filter(move |i| bits >> i & 1 != 0)
                .map(move |i| 8 * at + i)
        })
}

/// The next `n` bytes of `buf`, sliced.
fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], SnapshotError> {
    if buf.len() < n {
        return Err(SnapshotError::Truncated);
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

/// The next little-endian `u32` of `buf`.
fn take_u32(buf: &mut &[u8]) -> Result<u32, SnapshotError> {
    let word = take(buf, 4)?.try_into().expect("4 bytes");
    Ok(u32::from_le_bytes(word))
}

/// The next length-prefixed string of `buf`, borrowed.
fn take_str<'a>(buf: &mut &'a [u8]) -> Result<&'a str, SnapshotError> {
    let len = take_u32(buf)? as usize;
    std::str::from_utf8(take(buf, len)?)
        .map_err(|_| SnapshotError::Corrupt("non-utf8 string".into()))
}

/// Inverse of [`put_column`] for the column of type `ty` over the
/// entities at `slots` (each slot listed once): the column whole,
/// slot-indexed as the live world keeps it — as long as its highest
/// present slot — with each fixed-width value read straight into its
/// typed storage, no [`Value`] between.
fn get_column(buf: &mut &[u8], ty: ValueType, slots: &[usize]) -> Result<Column, SnapshotError> {
    let n = slots.len();
    let bitmap = take(buf, n.div_ceil(8))?;
    if !n.is_multiple_of(8) && bitmap[n / 8] >> (n % 8) != 0 {
        return Err(SnapshotError::Corrupt(
            "presence bit past the entity list".into(),
        ));
    }
    // the slot of each present value, in list order
    let at = || set_bits(bitmap).map(|i| slots[i]);
    let len = at().max().map_or(0, |slot| slot + 1);
    let mut present = vec![false; len];
    at().for_each(|slot| present[slot] = true);
    /// `len` default slots, a `W`-byte value read from `buf` into each
    /// slot of `at` in turn.
    fn scatter<T: Clone + Default, const W: usize>(
        buf: &mut &[u8],
        at: impl Iterator<Item = usize>,
        len: usize,
        read: impl Fn([u8; W]) -> T,
    ) -> Result<Vec<T>, SnapshotError> {
        let mut out = vec![T::default(); len];
        for slot in at {
            out[slot] = read(take(buf, W)?.try_into().expect("W bytes"));
        }
        Ok(out)
    }
    let data = match ty {
        ValueType::Float => ColumnData::F32(scatter(buf, at(), len, f32::from_le_bytes)?),
        ValueType::Int => ColumnData::I64(scatter(buf, at(), len, i64::from_le_bytes)?),
        ValueType::Bool => ColumnData::Bool(scatter(buf, at(), len, |[b]: [u8; 1]| b != 0)?),
        ValueType::Vec2 => ColumnData::V2(scatter(buf, at(), len, |v: [u8; 8]| {
            [0, 4].map(|x| f32::from_le_bytes(v[x..x + 4].try_into().expect("4 bytes")))
        })?),
        ValueType::Str => {
            let values = bitmap.iter().map(|bits| bits.count_ones() as usize).sum();
            ColumnData::Str(get_str_column(buf, at(), values, len)?)
        }
    };
    Ok(Column::from_parts(present, data).expect("both parts are `len` slots"))
}

/// Inverse of [`put_str_column`] past the bitmap, for `values` values
/// at the slots `at` yields, over `len` slots. The entry count is held
/// to the value count and to the bytes left before the dictionary is
/// sized, the codes to the dictionary and to first-use order as they are
/// read, and an entry listed twice or used by no value is refused; each
/// distinct string is copied once.
fn get_str_column(
    buf: &mut &[u8],
    at: impl Iterator<Item = usize>,
    values: usize,
    len: usize,
) -> Result<StrColumn, SnapshotError> {
    let entries = take_u32(buf)? as usize;
    if entries > values {
        return Err(SnapshotError::Corrupt(format!(
            "{entries} dictionary entries for {values} values"
        )));
    }
    let mut dictionary = Vec::with_capacity(bounded(entries, &*buf, MIN_STR)?);
    for _ in 0..entries {
        dictionary.push(take_str(buf)?);
    }
    let raw = take(buf, 4 * values)?;
    let mut codes = vec![NO_CODE; len];
    // the next code to be used for the first time
    let mut fresh = 0u32;
    for (slot, code) in at.zip(raw.chunks_exact(4)) {
        let code = u32::from_le_bytes(code.try_into().expect("4 bytes"));
        if code as usize >= entries {
            return Err(SnapshotError::Corrupt(format!(
                "dictionary code {code} past {entries} entries"
            )));
        }
        if code > fresh {
            return Err(SnapshotError::Corrupt(format!(
                "dictionary code {code} used before code {fresh}"
            )));
        }
        fresh += (code == fresh) as u32;
        codes[slot] = code;
    }
    if fresh as usize != entries {
        return Err(SnapshotError::Corrupt(format!(
            "{} dictionary entries no value uses",
            entries - fresh as usize
        )));
    }
    StrColumn::from_parts(&dictionary, codes)
        .ok_or_else(|| SnapshotError::Corrupt("a dictionary entry listed twice".into()))
}

/// A count read from disk, checked against what the rest of the buffer
/// could possibly hold at `min_size` bytes per item — a forged count is
/// a truncation, found before anything is allocated for it.
fn bounded(
    count: usize,
    buf: &impl Buf,
    min_size: usize,
) -> Result<usize, SnapshotError> {
    if buf.remaining() / min_size < count {
        return Err(SnapshotError::Truncated);
    }
    Ok(count)
}

/// A catalog read from disk reserves `view_slots` slots for `views`
/// live views: no more than [`MAX_RESTORE_GAP`] of them dead.
pub(crate) fn check_view_slots(view_slots: u32, views: usize) -> Result<(), SnapshotError> {
    if view_slots as usize > views + MAX_RESTORE_GAP {
        return Err(SnapshotError::Corrupt(format!(
            "{view_slots} view slots for {views} views"
        )));
    }
    Ok(())
}

/// Deserialize a world — rows *and* catalog — as a bulk load: each
/// column goes in whole ([`World::bulk_load`]), then
/// [`World::import_catalog`] builds the spatial grid, each secondary
/// index and each standing view (at its original slot, unsubscribed)
/// once over those rows and restores the lineage and tick counter (the
/// returned tick equals `world.tick()`). The input is sliced, never
/// copied.
pub fn decode(data: &[u8]) -> Result<(World, u64), SnapshotError> {
    let (mut world, catalog) = decode_phased(data, &mut RecoveryStats::default())?;
    world.import_catalog(&catalog).map_err(corrupt)?;
    let tick = world.tick();
    Ok((world, tick))
}

fn corrupt(e: gamedb_core::CoreError) -> SnapshotError {
    SnapshotError::Corrupt(e.to_string())
}

/// The rows of a snapshot and its catalog, nothing derived built yet —
/// what recovery redoes the log tail onto before deriving once. The
/// checksum is checked before anything is sized by the snapshot's
/// contents. Sets the decode and load-rows phases and the row count of
/// `phases`.
pub(crate) fn decode_phased(
    data: &[u8],
    phases: &mut RecoveryStats,
) -> Result<(World, WorldCatalog), SnapshotError> {
    let started = Instant::now();
    let mut buf = data;
    if buf.remaining() < FRAME {
        return Err(SnapshotError::Truncated);
    }
    let magic = buf.get_u32_le();
    if magic != MAGIC {
        return Err(SnapshotError::BadMagic(magic));
    }
    let tick = buf.get_u64_le();
    let lineage = buf.get_u64_le();
    let len = buf.get_u32_le() as usize;
    // exactly header, body and checksum: a flipped length bit is a
    // truncation or trailing bytes, never a checksum read elsewhere
    match buf.remaining().checked_sub(4) {
        Some(body) if body == len => {}
        Some(body) if body > len => {
            return Err(SnapshotError::Corrupt("bytes past the checksum".into()))
        }
        _ => return Err(SnapshotError::Truncated),
    }
    let (framed, mut trailer) = data.split_at(FRAME + len);
    let expected = trailer.get_u32_le();
    let got = checksum(framed);
    if expected != got {
        return Err(SnapshotError::ChecksumMismatch { expected, got });
    }

    let mut buf = &framed[FRAME..];
    macro_rules! need {
        ($n:expr) => {
            if buf.remaining() < $n {
                return Err(SnapshotError::Truncated);
            }
        };
    }
    // schema: name + type tag per entry
    need!(4);
    let n_schema = buf.get_u32_le() as usize;
    let mut schema = Vec::with_capacity(bounded(n_schema, &buf, MIN_STR + 1)?);
    for _ in 0..n_schema {
        let name = get_str(&mut buf)?;
        need!(1);
        schema.push((name, tag_type(buf.get_u8())?));
    }
    // entities: 8 bytes each
    need!(4);
    let n_entities = buf.get_u32_le() as usize;
    let n_entities = bounded(n_entities, &buf, 8)?;
    let ids = take(&mut buf, 8 * n_entities)?;
    let entities: Vec<EntityId> = (ids.chunks_exact(8))
        .map(|id| EntityId::from_bits(u64::from_le_bytes(id.try_into().expect("8 bytes"))))
        .collect();
    // the allocator is sized by the highest listed slot
    let span = entities
        .iter()
        .map(|e| e.index() as usize + 1)
        .max()
        .unwrap_or(0);
    if span.saturating_sub(entities.len()) > MAX_RESTORE_GAP {
        return Err(SnapshotError::Corrupt(format!(
            "entity slot {} past the restore gap",
            span - 1
        )));
    }
    phases.decode = started.elapsed();

    // rows: each column built whole and installed at its schema entry
    let started = Instant::now();
    let mut loader = World::bulk_load(&schema, &entities).map_err(corrupt)?;
    let slots: Vec<usize> = entities.iter().map(|e| e.index() as usize).collect();
    let mut rows = 0u64;
    for (entry, &(_, ty)) in schema.iter().enumerate() {
        let column = get_column(&mut buf, ty, &slots)?;
        rows += column.present_count() as u64;
        loader.install_column(entry, column).map_err(corrupt)?;
    }
    let world = loader.finish();
    phases.load_rows = started.elapsed();
    phases.rows_loaded = rows;

    let started = Instant::now();
    let catalog = get_catalog(&mut buf, lineage, tick)?;
    if !buf.is_empty() {
        return Err(SnapshotError::Corrupt("bytes past the catalog".into()));
    }
    phases.decode += started.elapsed();
    Ok((world, catalog))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use gamedb_spatial::Vec2;
    use proptest::prelude::*;

    /// Recompute the checksum of an edited snapshot, so that its
    /// decoder, not the checksum, meets the edit.
    pub(crate) fn reseal(bytes: &mut [u8]) {
        if let Some(end) = bytes.len().checked_sub(4) {
            let sum = checksum(&bytes[..end]);
            bytes[end..].copy_from_slice(&sum.to_le_bytes());
        }
    }

    /// The row section rebuilt column by column from [`World::rows`]:
    /// each schema entry's bitmap and values are looked up by name per
    /// listed entity, and every value passes through a [`Value`] and
    /// [`put_value`] — a string column's through a dictionary built in
    /// list order. The oracle `encode` must equal byte for byte.
    fn encode_by_column_walk(world: &World) -> Vec<u8> {
        let schema: Vec<(&str, ValueType)> = world.schema_by_id().map(|(_, n, t)| (n, t)).collect();
        let entities: Vec<EntityId> = world.entities().collect();
        let rows: std::collections::HashMap<(EntityId, String), Value> = world
            .rows()
            .into_iter()
            .map(|(e, name, value)| ((e, name), value))
            .collect();
        let mut body = BytesMut::new();
        body.put_u32_le(schema.len() as u32);
        for (name, ty) in &schema {
            put_str(&mut body, name);
            body.put_u8(type_tag(*ty));
        }
        body.put_u32_le(entities.len() as u32);
        for e in &entities {
            body.put_u64_le(e.to_bits());
        }
        for (name, ty) in &schema {
            let column: Vec<Option<&Value>> = entities
                .iter()
                .map(|&e| rows.get(&(e, name.to_string())))
                .collect();
            for eight in column.chunks(8) {
                body.put_u8(
                    eight
                        .iter()
                        .enumerate()
                        .map(|(i, v)| (v.is_some() as u8) << i)
                        .sum(),
                );
            }
            if *ty != ValueType::Str {
                for value in column.into_iter().flatten() {
                    put_value(&mut body, value);
                }
                continue;
            }
            let mut dictionary: Vec<&Value> = Vec::new();
            let mut codes = Vec::new();
            for value in column.into_iter().flatten() {
                let code = dictionary
                    .iter()
                    .position(|&d| d == value)
                    .unwrap_or_else(|| {
                        dictionary.push(value);
                        dictionary.len() - 1
                    });
                codes.push(code as u32);
            }
            body.put_u32_le(dictionary.len() as u32);
            for value in dictionary {
                put_value(&mut body, value);
            }
            for code in codes {
                body.put_u32_le(code);
            }
        }
        put_catalog(&mut body, &world.export_catalog());
        let mut out = BytesMut::new();
        out.put_u32_le(MAGIC);
        out.put_u64_le(world.tick());
        out.put_u64_le(world.lineage());
        out.put_u32_le(body.len() as u32);
        out.put_slice(&body);
        let sum = checksum(&out);
        out.put_u32_le(sum);
        out.to_vec()
    }

    /// One step of the byte-identity workload: a spawn (positioned or
    /// not) with a random subset of the five column types, a write, a
    /// removal (`pos` included) or a despawn of the i-th live entity.
    #[derive(Debug, Clone)]
    enum ImageOp {
        Spawn(Option<(f32, f32)>, u8, f32, i64, String),
        Set(u16, u8, f32, i64, String),
        Remove(u16, u8),
        Despawn(u16),
    }

    /// Floats an encoder must carry bit for bit: NaN, both zeros.
    fn odd_float() -> impl Strategy<Value = f32> {
        prop_oneof![
            -1e6f32..1e6,
            Just(f32::NAN),
            Just(-0.0f32),
            Just(0.0f32),
            Just(f32::INFINITY),
        ]
    }

    fn image_op() -> impl Strategy<Value = ImageOp> {
        let int = || prop_oneof![-50i64..50, Just(i64::MIN), Just(i64::MAX), any::<i64>()];
        prop_oneof![
            (
                proptest::option::of((-40.0f32..40.0, -40.0f32..40.0)),
                any::<u8>(),
                odd_float(),
                int(),
                "\\PC{0,6}",
            )
                .prop_map(|(at, mask, f, i, s)| ImageOp::Spawn(at, mask, f, i, s)),
            (0u16..64, 0u8..6, odd_float(), int(), "\\PC{0,6}")
                .prop_map(|(n, c, f, i, s)| ImageOp::Set(n, c, f, i, s)),
            (0u16..64, 0u8..6).prop_map(|(n, c)| ImageOp::Remove(n, c)),
            (0u16..64).prop_map(ImageOp::Despawn),
        ]
    }

    const COLUMNS: [&str; 6] = ["hp", "gold", "alive", "name", "home", gamedb_core::POS];

    /// The value op payloads give column `c`; a position stays finite.
    fn column_value(c: u8, f: f32, i: i64, s: &str) -> Value {
        match c {
            0 => Value::Float(f),
            1 => Value::Int(i),
            2 => Value::Bool(i % 2 == 0),
            3 => Value::Str(s.to_string()),
            4 => Value::Vec2(f, -f),
            _ => Value::Vec2((i % 40) as f32, if f.is_finite() { f % 40.0 } else { 1.0 }),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::default())]

        /// [`encode`] reads each column's typed storage by slot; the
        /// column walk reads the rows by name through a `Value`. Over
        /// worlds with all five column types, NaN / ±0.0 / infinities,
        /// missing values, unpositioned entities, id holes with bumped
        /// generations and a catalog, the two write the same bytes, and
        /// they decode to the same rows.
        #[test]
        fn snapshot_encode_is_byte_identical_to_column_walk(
            ops in proptest::collection::vec(image_op(), 0..80),
            indexed in any::<bool>(),
        ) {
            let mut w = World::new();
            for (name, ty) in [
                ("hp", ValueType::Float),
                ("gold", ValueType::Int),
                ("alive", ValueType::Bool),
                ("name", ValueType::Str),
                ("home", ValueType::Vec2),
            ] {
                w.define_component(name, ty).unwrap();
            }
            if indexed {
                w.create_index("gold", IndexKind::Sorted).unwrap();
                w.register_view(Query::select().filter("hp", CmpOp::Lt, Value::Float(0.0)));
            }
            let mut live = Vec::new();
            for op in &ops {
                match op {
                    ImageOp::Spawn(at, mask, f, i, s) => {
                        let e = match at {
                            Some((x, y)) => w.spawn_at(Vec2::new(*x, *y)),
                            None => w.spawn(),
                        };
                        for c in (0..5u8).filter(|c| mask & (1 << c) != 0) {
                            w.set(e, COLUMNS[c as usize], column_value(c, *f, *i, s)).unwrap();
                        }
                        live.push(e);
                    }
                    ImageOp::Set(n, c, f, i, s) if !live.is_empty() => {
                        let e = live[*n as usize % live.len()];
                        w.set(e, COLUMNS[*c as usize], column_value(*c, *f, *i, s)).unwrap();
                    }
                    ImageOp::Remove(n, c) if !live.is_empty() => {
                        let e = live[*n as usize % live.len()];
                        w.remove_component(e, COLUMNS[*c as usize]).unwrap();
                    }
                    ImageOp::Despawn(n) if !live.is_empty() => {
                        let e = live.swap_remove(*n as usize % live.len());
                        w.despawn(e);
                    }
                    _ => {}
                }
            }
            w.refresh_views();
            let bytes = encode(&w);
            prop_assert_eq!(&bytes[..], &encode_by_column_walk(&w)[..]);
            let (back, _) = decode(&bytes).unwrap();
            prop_assert_eq!(format!("{:?}", back.rows()), format!("{:?}", w.rows()));
        }
    }

    fn sample_world() -> World {
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        w.define_component("name", ValueType::Str).unwrap();
        w.define_component("gold", ValueType::Int).unwrap();
        w.define_component("alive", ValueType::Bool).unwrap();
        for i in 0..20 {
            let e = w.spawn_at(Vec2::new(i as f32, -(i as f32)));
            w.set_f32(e, "hp", 10.0 * i as f32).unwrap();
            w.set(e, "name", Value::Str(format!("npc-{i}"))).unwrap();
            w.set(e, "gold", Value::Int(i as i64 * 7)).unwrap();
            w.set(e, "alive", Value::Bool(i % 2 == 0)).unwrap();
        }
        // holes in the id space exercise generation restore
        let victims: Vec<EntityId> = w.entities().skip(3).step_by(5).collect();
        for v in victims {
            w.despawn(v);
        }
        w
    }

    #[test]
    fn roundtrip_preserves_rows_and_ids() {
        let w = sample_world();
        let bytes = encode(&w);
        let (w2, _) = decode(&bytes).unwrap();
        assert_eq!(w.rows(), w2.rows());
        assert_eq!(w.len(), w2.len());
        let ids1: Vec<EntityId> = w.entities().collect();
        let ids2: Vec<EntityId> = w2.entities().collect();
        assert_eq!(ids1, ids2, "ids (with generations) must survive");
    }

    #[test]
    fn roundtrip_preserves_spatial_index() {
        let w = sample_world();
        let (w2, _) = decode(&encode(&w)).unwrap();
        let mut out1 = vec![];
        let mut out2 = vec![];
        w.within(Vec2::new(5.0, -5.0), 3.0, &mut out1);
        w2.within(Vec2::new(5.0, -5.0), 3.0, &mut out2);
        assert_eq!(out1, out2);
    }

    #[test]
    fn tick_counter_roundtrips() {
        let w = sample_world();
        let bytes = encode(&w);
        let (_, tick) = decode(&bytes).unwrap();
        assert_eq!(tick, w.tick());
    }

    #[test]
    fn truncation_detected() {
        let w = sample_world();
        let bytes = encode(&w);
        for cut in [0, 3, 15, bytes.len() / 2, bytes.len() - 1] {
            let err = decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Truncated | SnapshotError::ChecksumMismatch { .. }),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn corruption_detected() {
        let w = sample_world();
        let mut bytes = encode(&w).to_vec();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        let err = decode(&bytes).unwrap_err();
        assert!(matches!(err, SnapshotError::ChecksumMismatch { .. }));
    }

    #[test]
    fn bad_magic_detected() {
        let w = sample_world();
        let mut bytes = encode(&w).to_vec();
        bytes[0] ^= 0x55;
        assert!(matches!(
            decode(&bytes).unwrap_err(),
            SnapshotError::BadMagic(_)
        ));
    }

    /// A count read from disk is bounded by what the buffer could hold
    /// before anything is sized by it: a forged count under a recomputed
    /// (valid) checksum is a truncation, not a multi-gigabyte allocation.
    /// A slot read from disk — the highest listed entity slot, the view
    /// slot count — is bounded by the live count plus
    /// [`MAX_RESTORE_GAP`]: a forged one is corrupt. A string column's
    /// dictionary is held to its values: a code past it, an entry listed
    /// twice, entries out of first-use order and an entry count past the
    /// value count are each corrupt, the count refused before it sizes
    /// the dictionary.
    #[test]
    fn forged_counts_fail_before_they_allocate() {
        // an empty world's body, by offset: n_schema(=1) | len(3) "pos"
        // tag | n_entities(=0) | n_indexes(=0) | view_slots(=0) | ...
        const BODY: usize = 24;
        let bytes = encode(&World::new()).to_vec();
        for (what, at) in [
            ("schema", 0),
            ("entity", 12),
            ("index", 16),
            ("view slot", 20),
        ] {
            let mut forged = bytes.clone();
            forged[BODY + at..BODY + at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            reseal(&mut forged);
            let err = decode(&forged).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Truncated | SnapshotError::Corrupt(_)),
                "forged {what} count: {err}"
            );
        }
        // and on a populated image, where the entity list is real
        let w = sample_world();
        let image = encode(&w).to_vec();
        let mut at = BODY + 4;
        for _ in 0..w.component_count() {
            let len = u32::from_le_bytes(image[at..at + 4].try_into().unwrap()) as usize;
            at += 4 + len + 1;
        }
        assert_eq!(
            u32::from_le_bytes(image[at..at + 4].try_into().unwrap()) as usize,
            w.len(),
            "the entity count sits after the schema"
        );
        let mut forged = image.clone();
        forged[at..at + 4].copy_from_slice(&(u32::MAX - 1).to_le_bytes());
        reseal(&mut forged);
        assert_eq!(decode(&forged).unwrap_err(), SnapshotError::Truncated);
        // a forged id: its slot would size the entity allocator
        let mut forged = image.clone();
        let far = EntityId::from_bits(u64::from(u32::MAX - 1));
        forged[at + 4..at + 12].copy_from_slice(&far.to_bits().to_le_bytes());
        reseal(&mut forged);
        let refused =
            SnapshotError::Corrupt(format!("entity slot {} past the restore gap", u32::MAX - 1));
        assert_eq!(decode(&forged).unwrap_err(), refused);
        // a forged view-slot count: it would size the view table
        let mut forged = image.clone();
        let catalog = forged.len() - 4 - encode_catalog(&w).len();
        forged[catalog + 4..catalog + 8].copy_from_slice(&(u32::MAX - 1).to_le_bytes());
        reseal(&mut forged);
        let refused = SnapshotError::Corrupt(format!("{} view slots for 0 views", u32::MAX - 1));
        assert_eq!(decode(&forged).unwrap_err(), refused);
        // the string column's dictionary: 16 names, one per live entity
        let [names] = &dictionaries(&image)[..] else {
            panic!("one string column")
        };
        assert_eq!((names.entries.len(), names.values), (16, 16));
        let corrupt = |m: &str| SnapshotError::Corrupt(m.into());
        for (how, refused) in [
            (Forgery::CodePast, "dictionary code 16 past 16 entries"),
            (Forgery::Duplicate, "a dictionary entry listed twice"),
            (Forgery::OutOfOrder, "dictionary code 1 used before code 0"),
            (Forgery::CountPastValues, "17 dictionary entries for 16 values"),
        ] {
            let forged = forge_dictionary(&image, names, how).unwrap();
            assert_eq!(decode(&forged).unwrap_err(), corrupt(refused), "{how:?}");
        }
        // an entry count near `u32::MAX` sizes nothing
        let mut forged = image.clone();
        forged[names.count..names.count + 4].copy_from_slice(&(u32::MAX - 1).to_le_bytes());
        reseal(&mut forged);
        let refused = format!("{} dictionary entries for 16 values", u32::MAX - 1);
        assert_eq!(decode(&forged).unwrap_err(), corrupt(&refused));
    }

    /// Where a string column's dictionary sits in an image [`encode`]
    /// wrote: the offsets of its entry count and of its first code, each
    /// entry's span (length prefix included), and the column's values.
    #[derive(Debug)]
    pub(crate) struct DictAt {
        pub count: usize,
        pub entries: Vec<std::ops::Range<usize>>,
        pub codes: usize,
        pub values: usize,
    }

    /// The dictionary of every string column of `image`, in schema order.
    pub(crate) fn dictionaries(image: &[u8]) -> Vec<DictAt> {
        let word = |at: usize| u32::from_le_bytes(image[at..at + 4].try_into().unwrap()) as usize;
        let mut at = FRAME + 4;
        let types: Vec<ValueType> = (0..word(FRAME))
            .map(|_| {
                at += 4 + word(at) + 1;
                tag_type(image[at - 1]).unwrap()
            })
            .collect();
        let n = word(at);
        at += 4 + 8 * n;
        let mut found = Vec::new();
        for ty in types {
            let bitmap = &image[at..at + n.div_ceil(8)];
            let values: usize = bitmap.iter().map(|b| b.count_ones() as usize).sum();
            at += bitmap.len();
            at += match ty {
                ValueType::Float => 4 * values,
                ValueType::Int | ValueType::Vec2 => 8 * values,
                ValueType::Bool => values,
                ValueType::Str => {
                    let count = at;
                    at += 4;
                    let entries = (0..word(count))
                        .map(|_| {
                            let start = at;
                            at += 4 + word(at);
                            start..at
                        })
                        .collect();
                    let codes = at;
                    found.push(DictAt {
                        count,
                        entries,
                        codes,
                        values,
                    });
                    4 * values
                }
            };
        }
        found
    }

    /// A forged dictionary: each is refused under a valid frame.
    #[derive(Debug, Clone, Copy)]
    pub(crate) enum Forgery {
        /// A code one past the dictionary.
        CodePast,
        /// The second entry a copy of the first.
        Duplicate,
        /// The first two entries swapped, codes and all: the same rows,
        /// out of first-use order.
        OutOfOrder,
        /// One more entry counted than there are values.
        CountPastValues,
    }

    impl Forgery {
        pub(crate) const ALL: [Forgery; 4] = [
            Forgery::CodePast,
            Forgery::Duplicate,
            Forgery::OutOfOrder,
            Forgery::CountPastValues,
        ];
    }

    /// `image` with `dict` forged `how`, under a re-sealed frame (body
    /// length and checksum); `None` when the dictionary is too small for
    /// the forgery (two entries to duplicate or swap, a value to recode).
    pub(crate) fn forge_dictionary(image: &[u8], dict: &DictAt, how: Forgery) -> Option<Vec<u8>> {
        let mut forged = image.to_vec();
        let (first, second) = (dict.entries.first(), dict.entries.get(1));
        let put = |forged: &mut Vec<u8>, at: usize, v: usize| {
            forged[at..at + 4].copy_from_slice(&(v as u32).to_le_bytes());
        };
        match how {
            Forgery::CodePast if dict.values > 0 => {
                put(&mut forged, dict.codes, dict.entries.len())
            }
            Forgery::Duplicate => {
                let (e0, e1) = (first?.clone(), second?.clone());
                forged.splice(e1, image[e0].iter().copied());
            }
            Forgery::OutOfOrder => {
                let (e0, e1) = (first?.clone(), second?.clone());
                let swapped = [&image[e1.clone()], &image[e0.clone()]].concat();
                forged.splice(e0.start..e1.end, swapped);
                for at in (dict.codes..dict.codes + 4 * dict.values).step_by(4) {
                    let code = u32::from_le_bytes(forged[at..at + 4].try_into().unwrap());
                    if code < 2 {
                        put(&mut forged, at, 1 - code as usize);
                    }
                }
            }
            Forgery::CountPastValues => put(&mut forged, dict.count, dict.values + 1),
            Forgery::CodePast => return None,
        }
        let body = forged.len() - FRAME - 4;
        put(&mut forged, FRAME - 4, body);
        reseal(&mut forged);
        Some(forged)
    }

    /// The catalog section `encode` writes for `w`.
    fn encode_catalog(w: &World) -> BytesMut {
        let mut catalog = BytesMut::new();
        put_catalog(&mut catalog, &w.export_catalog());
        catalog
    }

    /// One version is read: every older magic is refused.
    #[test]
    fn older_versions_are_refused() {
        let bytes = encode(&World::new()).to_vec();
        for old in [0x6744_4202u32, 0x6744_4203, 0x6744_4204, 0x6744_4205] {
            let mut v = bytes.clone();
            v[..4].copy_from_slice(&old.to_le_bytes());
            assert_eq!(decode(&v).unwrap_err(), SnapshotError::BadMagic(old));
        }
    }

    /// A v6 image written by hand, section by section: three live
    /// entities around a hole (slot 0 at generation 1, slots 2 and 3),
    /// all five column types with values missing, a string column whose
    /// dictionary holds "ü" once for two entities, an index and a view
    /// after a burned slot. The frame puts the header under the checksum.
    fn pinned_v6() -> Vec<u8> {
        let header: &[u8] = &[
            0x06, 0x42, 0x44, 0x67, // magic "gDB" v6
            9, 0, 0, 0, 0, 0, 0, 0, // tick
            3, 0, 0, 0, 0, 0, 0, 0, // lineage
            176, 0, 0, 0, // body length
        ];
        let schema: &[u8] = &[
            5, 0, 0, 0, // entries, in interned id order: name, type tag
            3, 0, 0, 0, b'p', b'o', b's', 4, 2, 0, 0, 0, b'h', b'p', 0, 4, 0, 0, 0, b'g', b'o',
            b'l', b'd', 1, 5, 0, 0, 0, b'a', b'l', b'i', b'v', b'e', 2, 4, 0, 0, 0, b'n', b'a',
            b'm', b'e', 3,
        ];
        let entities: &[u8] = &[
            3, 0, 0, 0, // count, then ids in slot order
            0, 0, 0, 0, 1, 0, 0, 0, // slot 0, generation 1
            2, 0, 0, 0, 0, 0, 0, 0, // slot 2
            3, 0, 0, 0, 0, 0, 0, 0, // slot 3
        ];
        let columns: &[u8] = &[
            // per column: presence over the list, then the values
            0b001, 0, 0, 0xC0, 0x3F, 0, 0, 0, 0xC0, // pos: (1.5, -2.0), two unpositioned
            0b011, 0, 0, 0x9B, 0x42, 0, 0, 0x44, 0x41, // hp: 77.5, 12.25
            0b010, 0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, // gold: -2
            0b001, 1, // alive: true
            // name: the dictionary ("ü", "") in first-use order, then
            // the codes of "ü", "", "ü"
            0b111, 2, 0, 0, 0, 2, 0, 0, 0, 0xC3, 0xBC, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0,
            0,
        ];
        let catalog: &[u8] = &[
            1, 0, 0, 0, 4, 0, 0, 0, b'g', b'o', b'l', b'd', 1, // a sorted index on gold
            2, 0, 0, 0, // view slots
            // one view at slot 1: a scan leaf with one predicate
            // `hp < 50.0`, no disk, no exclusion, no pinned entity
            1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, b'h', b'p', 2, 0, 0, 0, 0x48, 0x42,
            0, 0, 0,
        ];
        let checksum: &[u8] = &[0x25, 0xFA, 0x3C, 0x3E]; // over header and body
        [header, schema, entities, columns, catalog, checksum].concat()
    }

    /// The pinned v6 image decodes to the world it was written from,
    /// its string column holding two distinct strings for three values,
    /// and encodes back to the same bytes.
    #[test]
    fn v6_snapshot_decodes_from_pinned_bytes() {
        let pinned = pinned_v6();
        let (w, tick) = decode(&pinned).unwrap();
        let (a, b, c) = (
            EntityId::from_bits(1 << 32),
            EntityId::from_bits(2),
            EntityId::from_bits(3),
        );
        assert_eq!((tick, w.lineage()), (9, 3));
        assert_eq!(w.entities().collect::<Vec<_>>(), [a, b, c]);
        let row = |e, name: &str, value| (e, name.to_string(), value);
        assert_eq!(
            w.rows(),
            [
                row(a, "alive", Value::Bool(true)),
                row(a, "hp", Value::Float(77.5)),
                row(a, "name", Value::Str("ü".into())),
                row(a, "pos", Value::Vec2(1.5, -2.0)),
                row(b, "gold", Value::Int(-2)),
                row(b, "hp", Value::Float(12.25)),
                row(b, "name", Value::Str(String::new())),
                row(c, "name", Value::Str("ü".into())),
            ]
        );
        match w.column("name").map(Column::data) {
            Some(ColumnData::Str(names)) => assert_eq!(names.distinct(), 2),
            other => panic!("name is a string column: {other:?}"),
        }
        let catalog = w.export_catalog();
        assert_eq!(catalog.indexes, [("gold".to_string(), IndexKind::Sorted)]);
        assert_eq!(catalog.view_slots, 2);
        let view = w.view_id_at(1).unwrap();
        assert_eq!(w.view_rows(view), [b]);
        assert_eq!(w.view_id_at(0), None, "slot 0 stays burned");
        assert_eq!(&encode(&w)[..], &pinned[..]);
    }

    /// Every single-bit flip of a v6 image and of a WAL frame is
    /// rejected: the checksum covers the snapshot's header and body, a
    /// flipped length is a truncation or trailing bytes, and a flip in
    /// the checksum is a mismatch.
    #[test]
    fn every_single_bit_flip_is_rejected() {
        use crate::wal::{decode_log, WalRecord};
        let image = pinned_v6();
        assert!(decode(&image).is_ok());
        for at in 0..image.len() {
            for bit in 0..8 {
                let mut flipped = image.clone();
                flipped[at] ^= 1 << bit;
                assert!(decode(&flipped).is_err(), "snapshot byte {at} bit {bit}");
            }
        }
        let e = EntityId::from_bits(5 | (2u64 << 32));
        let frame = WalRecord::Batch {
            ops: vec![
                WalRecord::Restore { entity: e },
                WalRecord::Set {
                    entity: e,
                    component: gamedb_core::POS_ID,
                    value: Value::Vec2(4.0, -8.0),
                },
                WalRecord::TickTo { tick: 18 },
            ],
        }
        .encode();
        assert_eq!(decode_log(&frame).0.len(), 1);
        for at in 0..frame.len() {
            for bit in 0..8 {
                let mut flipped = frame.to_vec();
                flipped[at] ^= 1 << bit;
                assert_eq!(
                    decode_log(&flipped),
                    (vec![], 0),
                    "frame byte {at} bit {bit}"
                );
            }
        }
    }

    #[test]
    fn empty_world_roundtrips() {
        let w = World::new();
        let (w2, _) = decode(&encode(&w)).unwrap();
        assert!(w2.is_empty());
    }

    #[test]
    fn catalog_roundtrips_indexes_views_lineage_and_tick() {
        use gamedb_content::CmpOp;
        let mut w = sample_world();
        w.create_index("hp", IndexKind::Sorted).unwrap();
        w.create_index("name", IndexKind::Hash).unwrap();
        let dropped = w.register_view(Query::select());
        let wounded =
            w.register_view(Query::select().filter("hp", CmpOp::Lt, Value::Float(100.0)));
        let first = w.entities().next().unwrap();
        let near = w.register_view(
            Query::select()
                .within(Vec2::new(5.0, -5.0), 8.0)
                .excluding(first),
        );
        w.drop_view(dropped);
        w.subscribe_view(wounded);
        w.refresh_views();

        let (mut w2, _) = decode(&encode(&w)).unwrap();
        assert_eq!(w2.lineage(), w.lineage());
        assert_eq!(w2.tick(), w.tick());
        assert_eq!(
            w2.indexed_components().collect::<Vec<_>>(),
            w.indexed_components().collect::<Vec<_>>()
        );
        // pre-encode handles resolve against the decoded world
        for v in [wounded, near] {
            assert!(w2.has_view(v));
            assert_eq!(w2.view_rows(v), w.view_rows(v));
            assert_eq!(w2.view_query(v), w.view_query(v));
            // changelogs re-anchor: subscriptions are not encoded
            assert_eq!(w2.take_view_delta::<EntityId>(v), None, "decoded unsubscribed");
        }
        assert!(!w2.has_view(dropped), "burned slots stay burned");
        assert_eq!(w2.export_catalog(), w.export_catalog());
        // probe equivalence on the rebuilt index
        let q = Query::select().filter("hp", CmpOp::Ge, Value::Float(50.0));
        assert_eq!(q.run(&w2), q.run_scan(&w2));
        assert_eq!(q.run(&w2), q.run(&w));
    }

    #[test]
    fn decoded_views_stay_live_under_new_writes() {
        use gamedb_content::CmpOp;
        let mut w = sample_world();
        let v = w.register_view(Query::select().filter("hp", CmpOp::Lt, Value::Float(25.0)));
        let (mut w2, _) = decode(&encode(&w)).unwrap();
        let e = w2.entities().next().unwrap();
        w2.set_f32(e, "hp", 1.0).unwrap();
        w2.refresh_views();
        assert!(w2.view_contains(v, e), "restored view tracks new writes");
        assert_eq!(
            w2.view_rows(v).to_vec(),
            w2.view_query(v).run_scan(&w2),
            "restored view agrees with the scan oracle"
        );
    }

    #[test]
    fn plan_views_roundtrip_and_stay_live() {
        use gamedb_content::CmpOp;
        let mut w = sample_world();
        w.define_component("team", ValueType::Int).unwrap();
        for (i, e) in w.entities().collect::<Vec<_>>().into_iter().enumerate() {
            w.set(e, "team", Value::Int((i % 3) as i64)).unwrap();
        }
        let join = w
            .register_view_plan(ViewPlan::join(
                PlanNode::scan(Query::select().filter("alive", CmpOp::Eq, Value::Bool(true))),
                PlanNode::scan(Query::select()),
                JoinOn::Eq {
                    left: "team".into(),
                    right: "team".into(),
                },
            ))
            .unwrap();
        let wealth = w
            .register_view_plan(
                Query::select()
                    .into_grouped_plan("team", AggFn::Sum("gold".into()))
                    .unwrap(),
            )
            .unwrap();

        let (mut w2, _) = decode(&encode(&w)).unwrap();
        assert_eq!(w2.view_plan(join), w.view_plan(join));
        assert_eq!(w2.view_pairs(join), w.view_pairs(join));
        assert_eq!(w2.view_groups(wealth), w.view_groups(wealth));
        assert_eq!(w2.export_catalog(), w.export_catalog());

        // restored operator trees keep maintaining incrementally
        let e = w2.entities().next().unwrap();
        w2.set(e, "gold", Value::Int(10_000)).unwrap();
        w2.refresh_views();
        assert_eq!(
            w2.view_output(wealth),
            w2.view_plan(wealth).unwrap().evaluate(&w2).unwrap(),
            "restored group view agrees with forced recompute"
        );
        assert_eq!(
            w2.view_output(join),
            w2.view_plan(join).unwrap().evaluate(&w2).unwrap(),
            "restored join view agrees with forced recompute"
        );
    }

    #[test]
    fn restored_ids_stay_valid_for_new_spawns() {
        let w = sample_world();
        let (mut w2, _) = decode(&encode(&w)).unwrap();
        // spawning after recovery must not collide with restored ids
        let fresh = w2.spawn_at(Vec2::ZERO);
        assert!(w2.is_live(fresh));
        assert_eq!(w2.len(), w.len() + 1);
    }
}
