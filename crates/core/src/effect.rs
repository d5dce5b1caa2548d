//! The state–effect pattern: deferred, combinable writes.
//!
//! The paper's performance section rests on White et al.'s "Scaling games
//! to epic proportions" (its reference \[13\]): within a tick, scripts read
//! the *state* (the world as of tick start) and emit *effects* — writes
//! that accumulate in buffers and are applied atomically at tick end.
//! Because effect combinators are commutative, per-entity scripts can run
//! in any order, on any number of threads, and the tick result is
//! identical — the property the parallel executor (experiment E5) and its
//! determinism property test rely on.

use gamedb_content::{Value, ValueType};
use gamedb_spatial::Vec2;

use crate::change::{NameTable, QueuedOp, WriteBatch};
use crate::column::Column;
use crate::entity::EntityId;
use crate::world::{CoreError, World, POS_ID};

/// A deferred write to one component of one entity.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    /// Replace the value. Only an entity's own script may `Set` on it —
    /// the one non-commutative combinator is made safe by ownership.
    Set(Value),
    /// Add to a numeric component (commutative).
    Add(f64),
    /// Lower bound accumulation: final value is `min(current, x, …)`.
    Min(f64),
    /// Upper bound accumulation: final value is `max(current, x, …)`.
    Max(f64),
    /// Translate the position / a vec2 component (commutative).
    AddVec2(f32, f32),
}

impl Effect {
    /// Sort key making application order canonical (so that merging
    /// buffers from different thread counts yields bit-identical worlds).
    fn order_key(&self) -> (u8, u64, u64) {
        match self {
            Effect::Set(v) => (0, hash_value(v), 0),
            Effect::Add(x) => (1, x.to_bits(), 0),
            Effect::Min(x) => (2, x.to_bits(), 0),
            Effect::Max(x) => (3, x.to_bits(), 0),
            Effect::AddVec2(x, y) => (4, x.to_bits() as u64, y.to_bits() as u64),
        }
    }

    /// The value of slot `(_, component)` after this effect lands on
    /// `cur` (the world's value, or an earlier effect's result) — the
    /// one fold table: [`EffectBuffer::apply`] resolves every slot
    /// through it, and read-through overlays of pending effects call it
    /// to stay equal to what `apply` will write. `ty` is the slot's
    /// column type, `None` for an undefined component; `component` is
    /// read only to build an error.
    pub fn fold_onto(
        &self,
        cur: Option<&Value>,
        ty: Option<ValueType>,
        component: &str,
    ) -> Result<Value, CoreError> {
        let mismatch = |expected, got| {
            Err(CoreError::TypeMismatch {
                component: component.to_string(),
                expected,
                got,
            })
        };
        let unknown = || Err(CoreError::UnknownComponent(component.to_string()));
        match (self, cur) {
            (Effect::Set(v), _) => match ty {
                Some(ty) if v.value_type() == ty => Ok(v.clone()),
                Some(ty) => mismatch(ty, v.value_type()),
                None => unknown(),
            },
            (Effect::Add(x), Some(Value::Float(c))) => Ok(Value::Float(c + *x as f32)),
            (Effect::Add(x), Some(Value::Int(c))) => Ok(Value::Int(c + *x as i64)),
            (Effect::Min(x), Some(Value::Float(c))) => {
                Ok(Value::Float((*c as f64).min(*x) as f32))
            }
            (Effect::Max(x), Some(Value::Float(c))) => {
                Ok(Value::Float((*c as f64).max(*x) as f32))
            }
            // An integer stays exact unless the bound binds: `x as i64`
            // truncates toward zero, which never crosses an integer `c`
            // on the non-binding side; a NaN bound binds nothing.
            (Effect::Min(x), Some(Value::Int(c))) if !x.is_nan() => {
                Ok(Value::Int((*c).min(*x as i64)))
            }
            (Effect::Max(x), Some(Value::Int(c))) if !x.is_nan() => {
                Ok(Value::Int((*c).max(*x as i64)))
            }
            (Effect::Min(_) | Effect::Max(_), Some(Value::Int(c))) => Ok(Value::Int(*c)),
            // A numeric combinator on an absent component treats it as
            // its zero (designers expect counters to work without
            // initialization).
            (Effect::Add(x) | Effect::Min(x) | Effect::Max(x), None) => match ty {
                Some(ValueType::Float) => Ok(Value::Float(*x as f32)),
                Some(ValueType::Int) => Ok(Value::Int(*x as i64)),
                Some(other) => mismatch(other, ValueType::Float),
                None => unknown(),
            },
            (Effect::Add(_) | Effect::Min(_) | Effect::Max(_), Some(other)) => {
                mismatch(other.value_type(), ValueType::Float)
            }
            (Effect::AddVec2(dx, dy), Some(Value::Vec2(x, y))) => {
                Ok(Value::Vec2(x + dx, y + dy))
            }
            // `0.0 + d`, not `d`: a `-0.0` delta lands as `+0.0`, as it
            // would on a present zero
            (Effect::AddVec2(dx, dy), None) => Ok(Value::Vec2(0.0 + dx, 0.0 + dy)),
            (Effect::AddVec2(..), Some(other)) => mismatch(other.value_type(), ValueType::Vec2),
        }
    }
}

fn hash_value(v: &Value) -> u64 {
    // Cheap stable discriminator for canonical ordering of Sets; exact
    // collisions are harmless (equal values apply identically).
    match v {
        Value::Float(x) => x.to_bits() as u64,
        Value::Int(x) => *x as u64,
        Value::Bool(b) => *b as u64,
        Value::Str(s) => s.bytes().fold(1469598103934665603u64, |h, b| {
            (h ^ b as u64).wrapping_mul(1099511628211)
        }),
        Value::Vec2(x, y) => ((x.to_bits() as u64) << 32) | y.to_bits() as u64,
    }
}

/// A pending spawn request (processed after effects apply).
#[derive(Debug, Clone, PartialEq)]
pub struct SpawnRequest {
    /// Component values for the new entity.
    pub components: Vec<(String, Value)>,
    /// Spawn position.
    pub pos: Vec2,
}

/// Buffer of effects produced while a tick runs.
///
/// Buffers merge by concatenation; [`EffectBuffer::apply`] canonicalizes
/// ordering, so the merged result is independent of which thread produced
/// which effect. An op names its component by a key into the buffer's
/// own name table, so queueing an effect allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct EffectBuffer {
    names: NameTable,
    ops: Vec<(EntityId, u32, Effect)>,
    spawns: Vec<SpawnRequest>,
    despawns: Vec<EntityId>,
}

/// The queued operations of an [`EffectBuffer`], in push order
/// ([`EffectBuffer::ops`]).
#[derive(Debug, Clone)]
pub struct EffectOps<'a> {
    names: &'a NameTable,
    ops: std::slice::Iter<'a, (EntityId, u32, Effect)>,
}

impl<'a> Iterator for EffectOps<'a> {
    type Item = (EntityId, &'a str, &'a Effect);

    fn next(&mut self) -> Option<Self::Item> {
        let (id, key, effect) = self.ops.next()?;
        Some((*id, self.names.name(*key), effect))
    }
}

impl<'a> EffectOps<'a> {
    /// Owned `(entity, component, effect)` copies — for holding two
    /// buffers' write streams side by side.
    pub fn cloned(self) -> impl Iterator<Item = (EntityId, String, Effect)> + 'a {
        self.map(|(id, component, effect)| (id, component.to_string(), effect.clone()))
    }
}

/// Where an [`EffectBuffer`]'s queues ended at [`EffectBuffer::mark`]:
/// [`EffectBuffer::ops_since`] and [`EffectBuffer::despawned_since`]
/// read back only what was queued after it. The default mark is the
/// empty buffer — everything.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EffectMark {
    ops: usize,
    despawns: usize,
}

impl EffectBuffer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue an effect on `(entity, component)`.
    pub fn push(&mut self, id: EntityId, component: &str, effect: Effect) {
        let key = self.names.key(component);
        self.ops.push((id, key, effect));
    }

    /// Queue a spawn.
    pub fn spawn(&mut self, request: SpawnRequest) {
        self.spawns.push(request);
    }

    /// Queue a despawn.
    pub fn despawn(&mut self, id: EntityId) {
        self.despawns.push(id);
    }

    /// Number of queued operations (effects + spawns + despawns).
    pub fn len(&self) -> usize {
        self.ops.len() + self.spawns.len() + self.despawns.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Queued `(entity, component, effect)` operations, in push order.
    pub fn ops(&self) -> EffectOps<'_> {
        self.ops_since(EffectMark::default())
    }

    /// Queued despawns, in push order.
    pub fn despawned(&self) -> &[EntityId] {
        &self.despawns
    }

    /// Where the queues end now (see [`EffectMark`]).
    pub fn mark(&self) -> EffectMark {
        EffectMark {
            ops: self.ops.len(),
            despawns: self.despawns.len(),
        }
    }

    /// The operations queued after `mark`, in push order. Consumers that
    /// maintain read-through overlays (serial-within-bubble execution in
    /// `gamedb-sync`) fold each action's ops this way as it pushes them
    /// into one shared buffer, without applying.
    pub fn ops_since(&self, mark: EffectMark) -> EffectOps<'_> {
        EffectOps {
            names: &self.names,
            ops: self.ops[mark.ops..].iter(),
        }
    }

    /// The despawns queued after `mark`, in push order.
    pub fn despawned_since(&self, mark: EffectMark) -> &[EntityId] {
        &self.despawns[mark.despawns..]
    }

    /// Absorb another buffer (used when merging per-thread buffers; the
    /// caller merges in chunk order, and `apply` canonicalizes anyway).
    pub fn merge(&mut self, other: EffectBuffer) {
        // (their key, ours): a run of effects on one component — the
        // usual shape — resolves its name once
        let mut last = None;
        self.ops.extend(other.ops.into_iter().map(|(id, key, effect)| {
            let ours = match last {
                Some((theirs, ours)) if theirs == key => ours,
                _ => self.names.key(other.names.name(key)),
            };
            last = Some((key, ours));
            (id, ours, effect)
        }));
        self.spawns.extend(other.spawns);
        self.despawns.extend(other.despawns);
    }

    /// Apply everything to the world as **one batch commit**: effects in
    /// canonical order, then despawns, then spawns. Effects on entities
    /// that despawned this tick (or were already dead) are dropped
    /// silently — scripts race against deaths every tick and that must
    /// not be an error.
    ///
    /// The canonical order is entity, component *name*, effect key. The
    /// name table is ranked by name once, so the sort compares integers
    /// and still lands in that order; each distinct name then resolves
    /// to its column id and type once, not once per slot.
    ///
    /// Effects are first *resolved* against a read-through overlay: all
    /// combinators targeting one `(entity, component)` slot fold into a
    /// single final value (each reading the previous effect's result,
    /// exactly as sequential application would), and only that final
    /// value is written — one index update and one change-stream record
    /// per touched slot, however many effects piled onto it. The
    /// resolved writes, despawns, and spawns then commit through
    /// [`World::apply_batch`], so a durability tap sees the whole tick
    /// as one stream segment (one group-commit WAL frame).
    ///
    /// Returns the number of effects resolved. Combinator type errors
    /// surface during resolution, before anything is written; errors
    /// only detectable at the final write (unknown component, resolved
    /// value vs column type) abort [`World::apply_batch`] at the
    /// offending op with earlier slots already applied — callers treat
    /// any error as a failed tick either way.
    pub fn apply(mut self, world: &mut World) -> Result<usize, CoreError> {
        let names = self.names;
        let rank = names.ranks();
        // slots first (mostly in order already: systems visit entities
        // in id order); each slot's few effects are ordered as it folds
        self.ops.sort_by_key(|&(id, key, _)| (id, rank[key as usize]));
        // (is `pos`, column) per distinct name; `None` = undefined
        let columns: Vec<Option<(bool, &Column)>> = names
            .iter()
            .map(|n| {
                let cid = world.component_id(n)?;
                Some((cid == POS_ID, world.column_by_id(cid)?))
            })
            .collect();

        let mut writes = Vec::new();
        let mut applied = 0usize;
        let mut i = 0;
        while i < self.ops.len() {
            // one run = every effect on one (entity, component) slot
            let (id, key) = (self.ops[i].0, self.ops[i].1);
            let j = i + self.ops[i..]
                .iter()
                .take_while(|(id2, key2, _)| *id2 == id && *key2 == key)
                .count();
            let run = &mut self.ops[i..j];
            i = j;
            if !world.is_live(id) {
                continue;
            }
            let column = columns[key as usize];
            let is_pos = column.is_some_and(|(is_pos, _)| is_pos);
            let ty = column.map(|(_, col)| col.ty());
            // the overlay: starts at the world's value, each effect in
            // the run reads the previous effect's result
            let mut cur = column.and_then(|(_, col)| col.get(id.index() as usize));
            run.sort_by_key(|(_, _, effect)| effect.order_key());
            for (_, _, effect) in run.iter() {
                cur = Some(effect.fold_onto(cur.as_ref(), ty, names.name(key))?);
            }
            applied += run.len();
            match cur {
                Some(Value::Vec2(x, y)) if is_pos => writes.push(QueuedOp::SetPos {
                    id,
                    pos: Vec2::new(x, y),
                }),
                Some(value) => writes.push(QueuedOp::Set {
                    id,
                    component: key,
                    value,
                }),
                None => {}
            }
        }
        // Despawns: dedupe, deterministic order.
        self.despawns.sort_unstable();
        self.despawns.dedup();
        writes.extend(self.despawns.into_iter().map(|id| QueuedOp::Despawn { id }));
        // Spawns in buffer order (merge order is chunk-deterministic).
        writes.extend(self.spawns.into_iter().map(|req| QueuedOp::Spawn {
            components: req.components,
            pos: req.pos,
        }));
        // the batch adopts this buffer's name table: its `Set` ops keep
        // the keys they were queued under
        world.apply_batch(WriteBatch { names, ops: writes })?;
        Ok(applied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::POS;

    fn world() -> World {
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        w.define_component("gold", ValueType::Int).unwrap();
        w
    }

    #[test]
    fn set_and_add() {
        let mut w = world();
        let e = w.spawn_at(Vec2::ZERO);
        w.set_f32(e, "hp", 10.0).unwrap();

        let mut buf = EffectBuffer::new();
        buf.push(e, "hp", Effect::Add(5.0));
        buf.push(e, "hp", Effect::Add(-3.0));
        buf.push(e, "gold", Effect::Set(Value::Int(100)));
        let applied = buf.apply(&mut w).unwrap();
        assert_eq!(applied, 3);
        assert_eq!(w.get_f32(e, "hp"), Some(12.0));
        assert_eq!(w.get_i64(e, "gold"), Some(100));
    }

    #[test]
    fn add_to_absent_component_starts_at_zero() {
        let mut w = world();
        let e = w.spawn_at(Vec2::ZERO);
        let mut buf = EffectBuffer::new();
        buf.push(e, "gold", Effect::Add(7.0));
        buf.apply(&mut w).unwrap();
        assert_eq!(w.get_i64(e, "gold"), Some(7));
    }

    #[test]
    fn min_max_accumulate() {
        let mut w = world();
        let e = w.spawn_at(Vec2::ZERO);
        w.set_f32(e, "hp", 50.0).unwrap();
        let mut buf = EffectBuffer::new();
        buf.push(e, "hp", Effect::Min(30.0));
        buf.push(e, "hp", Effect::Min(40.0));
        buf.apply(&mut w).unwrap();
        assert_eq!(w.get_f32(e, "hp"), Some(30.0));

        let mut buf = EffectBuffer::new();
        buf.push(e, "hp", Effect::Max(45.0));
        buf.apply(&mut w).unwrap();
        assert_eq!(w.get_f32(e, "hp"), Some(45.0));
    }

    /// `Min`/`Max` on an `Int` column used to round-trip the value
    /// through `f64`, rewriting integers beyond 2^53 even when the bound
    /// did not bind.
    #[test]
    fn min_max_leave_large_ints_alone_unless_they_bind() {
        let big = 9_007_199_254_740_993i64; // 2^53 + 1: no f64 holds it
        let run = |effect: Effect| {
            let mut w = world();
            let e = w.spawn_at(Vec2::ZERO);
            w.set(e, "gold", Value::Int(big)).unwrap();
            let mut buf = EffectBuffer::new();
            buf.push(e, "gold", effect);
            buf.apply(&mut w).unwrap();
            w.get_i64(e, "gold").unwrap()
        };
        // bounds that do not bind leave the integer exact
        assert_eq!(run(Effect::Min(1e18)), big);
        assert_eq!(run(Effect::Max(-5.0)), big);
        assert_eq!(run(Effect::Min(f64::NAN)), big);
        assert_eq!(run(Effect::Max(f64::NAN)), big);
        // binding bounds land as before: the bound, truncated
        assert_eq!(run(Effect::Min(-2.5)), -2);
        assert_eq!(run(Effect::Max(1e19)), i64::MAX);
        assert_eq!(run(Effect::Min(9_007_199_254_740_992.0)), 9_007_199_254_740_992);
        // small integers: exactly what the f64 round trip gave
        for (c, x) in [(7i64, 3.9f64), (7, 7.5), (-7, -7.5), (-7, -6.5), (0, -0.0)] {
            let ty = Some(ValueType::Int);
            let min = Effect::Min(x).fold_onto(Some(&Value::Int(c)), ty, "gold").unwrap();
            let max = Effect::Max(x).fold_onto(Some(&Value::Int(c)), ty, "gold").unwrap();
            assert_eq!(min, Value::Int((c as f64).min(x) as i64), "min({c}, {x})");
            assert_eq!(max, Value::Int((c as f64).max(x) as i64), "max({c}, {x})");
        }
    }

    #[test]
    fn addvec2_moves_entity_and_spatial_index() {
        let mut w = world();
        let e = w.spawn_at(Vec2::new(1.0, 1.0));
        let mut buf = EffectBuffer::new();
        buf.push(e, POS, Effect::AddVec2(2.0, 3.0));
        buf.push(e, POS, Effect::AddVec2(-1.0, 0.0));
        buf.apply(&mut w).unwrap();
        assert_eq!(w.pos(e), Some(Vec2::new(2.0, 4.0)));
        let mut out = vec![];
        w.within(Vec2::new(2.0, 4.0), 0.1, &mut out);
        assert_eq!(out, vec![e]);
    }

    #[test]
    fn effects_on_dead_entities_dropped() {
        let mut w = world();
        let e = w.spawn_at(Vec2::ZERO);
        let mut buf = EffectBuffer::new();
        buf.push(e, "hp", Effect::Add(5.0));
        buf.despawn(e);
        // also effect after despawn in same tick on the dead id
        let applied = buf.apply(&mut w).unwrap();
        // hp effect applied first (entity alive during effect phase)
        assert_eq!(applied, 1);
        assert!(!w.is_live(e));
    }

    #[test]
    fn double_despawn_in_one_tick_is_fine() {
        let mut w = world();
        let e = w.spawn_at(Vec2::ZERO);
        let mut buf = EffectBuffer::new();
        buf.despawn(e);
        buf.despawn(e);
        buf.apply(&mut w).unwrap();
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn spawn_requests_create_entities() {
        let mut w = world();
        let mut buf = EffectBuffer::new();
        buf.spawn(SpawnRequest {
            components: vec![("hp".into(), Value::Float(25.0))],
            pos: Vec2::new(5.0, 5.0),
        });
        buf.apply(&mut w).unwrap();
        assert_eq!(w.len(), 1);
        let e = w.entities().next().unwrap();
        assert_eq!(w.get_f32(e, "hp"), Some(25.0));
        assert_eq!(w.pos(e), Some(Vec2::new(5.0, 5.0)));
    }

    #[test]
    fn spawn_auto_defines_components() {
        let mut w = World::new();
        let mut buf = EffectBuffer::new();
        buf.spawn(SpawnRequest {
            components: vec![("mana".into(), Value::Float(10.0))],
            pos: Vec2::ZERO,
        });
        buf.apply(&mut w).unwrap();
        assert_eq!(w.component_type("mana"), Some(ValueType::Float));
    }

    #[test]
    fn merge_order_does_not_change_result() {
        // Build two buffers with commutative ops and apply in both merge
        // orders; worlds must agree exactly.
        let build_world = || {
            let mut w = world();
            let e = w.spawn_at(Vec2::ZERO);
            w.set_f32(e, "hp", 100.0).unwrap();
            (w, e)
        };
        let effects_a = |e: EntityId| {
            let mut b = EffectBuffer::new();
            b.push(e, "hp", Effect::Add(1.0));
            b.push(e, "hp", Effect::Min(90.0));
            b
        };
        let effects_b = |e: EntityId| {
            let mut b = EffectBuffer::new();
            b.push(e, "hp", Effect::Add(2.0));
            b.push(e, "hp", Effect::Max(10.0));
            b
        };

        let (mut w1, e1) = build_world();
        let mut m1 = effects_a(e1);
        m1.merge(effects_b(e1));
        m1.apply(&mut w1).unwrap();

        let (mut w2, e2) = build_world();
        let mut m2 = effects_b(e2);
        m2.merge(effects_a(e2));
        m2.apply(&mut w2).unwrap();

        assert_eq!(w1.get_f32(e1, "hp"), w2.get_f32(e2, "hp"));
    }

    #[test]
    fn effects_maintain_secondary_indexes() {
        use crate::index::IndexKind;
        use gamedb_content::CmpOp;
        let mut w = world();
        w.create_index("hp", IndexKind::Sorted).unwrap();
        w.create_index("gold", IndexKind::Hash).unwrap();
        let a = w.spawn_at(Vec2::ZERO);
        let b = w.spawn_at(Vec2::ZERO);
        w.set_f32(a, "hp", 100.0).unwrap();
        w.set_f32(b, "hp", 100.0).unwrap();

        let mut buf = EffectBuffer::new();
        buf.push(a, "hp", Effect::Add(-80.0));
        buf.push(b, "gold", Effect::Set(Value::Int(7)));
        buf.despawn(b);
        buf.spawn(SpawnRequest {
            components: vec![("hp".into(), Value::Float(5.0))],
            pos: Vec2::ZERO,
        });
        buf.apply(&mut w).unwrap();

        // the index reflects every post-apply value and nothing else
        let mut out = vec![];
        w.index_probe("hp", CmpOp::Lt, &Value::Float(50.0), &mut out);
        let spawned = w.entities().find(|&e| e != a).unwrap();
        assert_eq!(out, vec![a, spawned]);
        out.clear();
        w.index_probe("gold", CmpOp::Eq, &Value::Int(7), &mut out);
        assert!(out.is_empty(), "despawned entity must leave the index");
    }

    #[test]
    fn add_to_pos_is_type_error() {
        let mut w = world();
        let e = w.spawn_at(Vec2::ZERO);
        let mut buf = EffectBuffer::new();
        buf.push(e, POS, Effect::Add(1.0));
        assert!(buf.apply(&mut w).is_err());
    }

    #[test]
    fn type_mismatch_reported() {
        let mut w = World::new();
        w.define_component("name", ValueType::Str).unwrap();
        let e = w.spawn_at(Vec2::ZERO);
        w.set(e, "name", Value::Str("bob".into())).unwrap();
        let mut buf = EffectBuffer::new();
        buf.push(e, "name", Effect::Add(1.0));
        assert!(matches!(
            buf.apply(&mut w),
            Err(CoreError::TypeMismatch { .. })
        ));
    }
}
