//! Read views for action execution.
//!
//! Every executor in this crate runs actions against *some* read state:
//! the wave executors read the wave-start world, and the bubble executor
//! reads the world **through the bubble's own pending effects** so that
//! actions inside one bubble observe each other — serial-within-bubble
//! semantics. [`StateView`] abstracts the reads an [`crate::Action`]
//! performs; [`OverlayView`] is the world-plus-pending-effects
//! implementation the bubble executor uses.
//!
//! Without the overlay, two trades out of one account in the same bubble
//! both clamp against the tick-start balance and overdraw it — a
//! write-skew anomaly experiment E13's auditor catches. The overlay
//! restores serial equivalence: bubbles are disjoint, actions within a
//! bubble are serial, so the whole tick equals *some* serial order.

use std::collections::{HashMap, HashSet};

use gamedb_content::Value;
use gamedb_core::{Effect, EffectBuffer, EntityId, World, POS};
use gamedb_spatial::Vec2;

/// The reads an action may perform against tick state.
pub trait StateView {
    /// Component value, if the entity is live and the value present.
    fn view_get(&self, id: EntityId, component: &str) -> Option<Value>;

    /// Position, if the entity is live and positioned.
    fn view_pos(&self, id: EntityId) -> Option<Vec2>;

    /// True when the entity is live in this view.
    fn view_is_live(&self, id: EntityId) -> bool;

    /// Float component helper.
    fn view_f32(&self, id: EntityId, component: &str) -> Option<f32> {
        match self.view_get(id, component) {
            Some(Value::Float(x)) => Some(x),
            _ => None,
        }
    }

    /// Int component helper.
    fn view_i64(&self, id: EntityId, component: &str) -> Option<i64> {
        match self.view_get(id, component) {
            Some(Value::Int(x)) => Some(x),
            _ => None,
        }
    }
}

impl StateView for World {
    fn view_get(&self, id: EntityId, component: &str) -> Option<Value> {
        self.get(id, component)
    }

    fn view_pos(&self, id: EntityId) -> Option<Vec2> {
        self.pos(id)
    }

    fn view_is_live(&self, id: EntityId) -> bool {
        self.is_live(id)
    }
}

/// A world read through pending (unapplied) effects.
///
/// [`OverlayView::absorb`] folds an action's emitted effects into the
/// overlay with the same semantics [`EffectBuffer::apply`] would use, so
/// subsequent reads see the action's writes without mutating the shared
/// world — exactly what a bubble worker needs to run its actions serially
/// while other workers run other bubbles.
pub struct OverlayView<'a> {
    world: &'a World,
    /// Per-entity overlaid component values. Nested maps so the read
    /// path probes with `(&EntityId, &str)` without allocating — reads
    /// outnumber writes heavily in action execution.
    values: HashMap<EntityId, HashMap<String, Value>>,
    positions: HashMap<EntityId, Vec2>,
    despawned: HashSet<EntityId>,
}

impl<'a> OverlayView<'a> {
    pub fn new(world: &'a World) -> Self {
        OverlayView {
            world,
            values: HashMap::new(),
            positions: HashMap::new(),
            despawned: HashSet::new(),
        }
    }

    /// Number of overlaid component values (diagnostic).
    pub fn pending(&self) -> usize {
        self.values.values().map(HashMap::len).sum::<usize>()
            + self.positions.len()
            + self.despawned.len()
    }

    /// Fold a buffer's operations into the overlay so later reads observe
    /// them. Mirrors `EffectBuffer::apply`: adds treat absent numeric
    /// components as zero, effects on despawned entities are dropped.
    pub fn absorb(&mut self, buf: &EffectBuffer) {
        for (id, component, effect) in buf.ops() {
            if !self.view_is_live(id) {
                continue;
            }
            if component == POS {
                if let Effect::AddVec2(dx, dy) = effect {
                    if let Some(p) = self.view_pos(id) {
                        self.positions.insert(id, p + Vec2::new(*dx, *dy));
                    }
                    continue;
                }
            }
            let current = self.view_get(id, component);
            let next = match (effect, current) {
                (Effect::Set(v), _) => Some(v.clone()),
                (Effect::Add(x), Some(Value::Float(cur))) => Some(Value::Float(cur + *x as f32)),
                (Effect::Add(x), Some(Value::Int(cur))) => Some(Value::Int(cur + *x as i64)),
                (Effect::Add(x), None) => match self.world.component_type(component) {
                    Some(gamedb_content::ValueType::Float) => Some(Value::Float(*x as f32)),
                    Some(gamedb_content::ValueType::Int) => Some(Value::Int(*x as i64)),
                    _ => None,
                },
                (Effect::Min(x), Some(Value::Float(cur))) => {
                    Some(Value::Float(cur.min(*x as f32)))
                }
                (Effect::Max(x), Some(Value::Float(cur))) => {
                    Some(Value::Float(cur.max(*x as f32)))
                }
                (Effect::Min(x), Some(Value::Int(cur))) => Some(Value::Int(cur.min(*x as i64))),
                (Effect::Max(x), Some(Value::Int(cur))) => Some(Value::Int(cur.max(*x as i64))),
                (Effect::AddVec2(dx, dy), Some(Value::Vec2(x, y))) => {
                    Some(Value::Vec2(x + dx, y + dy))
                }
                _ => None,
            };
            if let Some(v) = next {
                self.values
                    .entry(id)
                    .or_default()
                    .insert(component.to_string(), v);
            }
        }
        for &id in buf.despawned() {
            self.despawned.insert(id);
        }
    }
}

impl StateView for OverlayView<'_> {
    fn view_get(&self, id: EntityId, component: &str) -> Option<Value> {
        if self.despawned.contains(&id) {
            return None;
        }
        self.values
            .get(&id)
            .and_then(|m| m.get(component))
            .cloned()
            .or_else(|| self.world.get(id, component))
    }

    fn view_pos(&self, id: EntityId) -> Option<Vec2> {
        if self.despawned.contains(&id) {
            return None;
        }
        self.positions.get(&id).copied().or_else(|| self.world.pos(id))
    }

    fn view_is_live(&self, id: EntityId) -> bool {
        !self.despawned.contains(&id) && self.world.is_live(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::arena_world;

    fn world_pair() -> (World, Vec<EntityId>) {
        arena_world(3, |i| Vec2::new(i as f32 * 4.0, 0.0))
    }

    #[test]
    fn overlay_reads_through_to_world() {
        let (w, ids) = world_pair();
        let view = OverlayView::new(&w);
        assert_eq!(view.view_i64(ids[0], "gold"), Some(100));
        assert_eq!(view.view_f32(ids[0], "hp"), Some(100.0));
        assert_eq!(view.view_pos(ids[1]), Some(Vec2::new(4.0, 0.0)));
        assert!(view.view_is_live(ids[2]));
        assert_eq!(view.pending(), 0);
    }

    #[test]
    fn absorbed_adds_are_visible() {
        let (w, ids) = world_pair();
        let mut view = OverlayView::new(&w);
        let mut buf = EffectBuffer::new();
        buf.push(ids[0], "gold", Effect::Add(-30.0));
        buf.push(ids[0], "hp", Effect::Add(5.0));
        view.absorb(&buf);
        assert_eq!(view.view_i64(ids[0], "gold"), Some(70));
        assert_eq!(view.view_f32(ids[0], "hp"), Some(105.0));
        // the world itself is untouched
        assert_eq!(w.get_i64(ids[0], "gold"), Some(100));
    }

    #[test]
    fn absorbed_adds_accumulate() {
        let (w, ids) = world_pair();
        let mut view = OverlayView::new(&w);
        for _ in 0..3 {
            let mut buf = EffectBuffer::new();
            buf.push(ids[0], "gold", Effect::Add(-25.0));
            view.absorb(&buf);
        }
        assert_eq!(view.view_i64(ids[0], "gold"), Some(25));
    }

    #[test]
    fn set_and_minmax_semantics() {
        let (w, ids) = world_pair();
        let mut view = OverlayView::new(&w);
        let mut buf = EffectBuffer::new();
        buf.push(ids[0], "hp", Effect::Set(Value::Float(40.0)));
        view.absorb(&buf);
        assert_eq!(view.view_f32(ids[0], "hp"), Some(40.0));
        let mut buf = EffectBuffer::new();
        buf.push(ids[0], "hp", Effect::Min(25.0));
        buf.push(ids[0], "gold", Effect::Max(500.0));
        view.absorb(&buf);
        assert_eq!(view.view_f32(ids[0], "hp"), Some(25.0));
        assert_eq!(view.view_i64(ids[0], "gold"), Some(500));
    }

    #[test]
    fn despawn_hides_entity() {
        let (w, ids) = world_pair();
        let mut view = OverlayView::new(&w);
        let mut buf = EffectBuffer::new();
        buf.despawn(ids[1]);
        view.absorb(&buf);
        assert!(!view.view_is_live(ids[1]));
        assert_eq!(view.view_get(ids[1], "gold"), None);
        assert_eq!(view.view_pos(ids[1]), None);
        assert!(view.view_is_live(ids[0]));
    }

    #[test]
    fn effects_on_despawned_entities_are_dropped() {
        let (w, ids) = world_pair();
        let mut view = OverlayView::new(&w);
        let mut buf = EffectBuffer::new();
        buf.despawn(ids[1]);
        view.absorb(&buf);
        let mut buf = EffectBuffer::new();
        buf.push(ids[1], "gold", Effect::Add(50.0));
        view.absorb(&buf);
        assert_eq!(view.view_get(ids[1], "gold"), None);
    }

    #[test]
    fn position_overlay_accumulates() {
        let (w, ids) = world_pair();
        let mut view = OverlayView::new(&w);
        for _ in 0..2 {
            let mut buf = EffectBuffer::new();
            buf.push(ids[0], POS, Effect::AddVec2(1.5, 0.5));
            view.absorb(&buf);
        }
        assert_eq!(view.view_pos(ids[0]), Some(Vec2::new(3.0, 1.0)));
        assert_eq!(w.pos(ids[0]), Some(Vec2::ZERO));
    }

    #[test]
    fn add_to_absent_component_uses_schema_zero() {
        let (mut w, ids) = world_pair();
        w.define_component("score", gamedb_content::ValueType::Int).unwrap();
        let mut view = OverlayView::new(&w);
        let mut buf = EffectBuffer::new();
        buf.push(ids[0], "score", Effect::Add(7.0));
        view.absorb(&buf);
        assert_eq!(view.view_i64(ids[0], "score"), Some(7));
    }
}
