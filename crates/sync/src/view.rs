//! Read views for action execution.
//!
//! Every executor in this crate runs actions against *some* read state:
//! the wave executors read the wave-start world, and the bubble executor
//! reads the world **through the bubble's own pending effects** so that
//! actions inside one bubble observe each other — serial-within-bubble
//! semantics. [`StateView`] abstracts the reads an [`crate::Action`]
//! performs; [`OverlayView`] is the world-plus-pending-effects
//! implementation the bubble executor and the cluster's per-node local
//! phase read through ([`run_serial`], their one shared loop).
//!
//! Without the overlay, two trades out of one account in the same bubble
//! both clamp against the tick-start balance and overdraw it — a
//! write-skew anomaly experiment E13's auditor catches. The overlay
//! restores serial equivalence: bubbles are disjoint, actions within a
//! bubble are serial, so the whole tick equals *some* serial order.

use std::collections::{HashMap, HashSet};

use gamedb_content::Value;
use gamedb_core::{Column, ComponentId, EffectBuffer, EffectMark, EntityId, World, POS_ID};
use gamedb_spatial::{BuildIdHasher, Vec2};

use crate::action::Action;

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
/// [`OverlayView::absorb`] folds effects into the overlay through
/// [`gamedb_core::Effect::fold_onto`] — the fold [`EffectBuffer::apply`]
/// resolves every slot with — so subsequent reads see what `apply`
/// would write without mutating the shared world: exactly what a bubble
/// worker needs to run its actions serially while other workers run
/// other bubbles. Values are keyed by `(entity, column id)`, `pos`
/// included, so absorbing a value allocates no name.
pub struct OverlayView<'a> {
    world: &'a World,
    values: HashMap<(EntityId, ComponentId), Value, BuildIdHasher>,
    despawned: HashSet<EntityId, BuildIdHasher>,
}

impl<'a> OverlayView<'a> {
    pub fn new(world: &'a World) -> Self {
        OverlayView {
            world,
            values: HashMap::default(),
            despawned: HashSet::default(),
        }
    }

    /// Number of overlaid component values plus despawns (diagnostic).
    pub fn pending(&self) -> usize {
        self.values.len() + self.despawned.len()
    }

    /// Fold the effects `buf` queued after `since` into the overlay so
    /// later reads observe them (`EffectMark::default()` absorbs the
    /// whole buffer). Effects on entities dead in this view are dropped,
    /// as `apply` drops them; an effect `apply` would reject (undefined
    /// component, type mismatch) leaves the slot as it was — `apply`
    /// fails the whole batch on it.
    pub fn absorb(&mut self, buf: &EffectBuffer, since: EffectMark) {
        for (id, component, effect) in buf.ops_since(since) {
            if !self.view_is_live(id) {
                continue;
            }
            let Some(cid) = self.world.component_id(component) else {
                continue;
            };
            let ty = self.world.column_by_id(cid).map(Column::ty);
            if let Ok(v) = effect.fold_onto(self.read(id, cid).as_ref(), ty, component) {
                self.values.insert((id, cid), v);
            }
        }
        self.despawned.extend(buf.despawned_since(since));
    }

    /// The value of a live entity's column: overlaid, else the world's.
    fn read(&self, id: EntityId, cid: ComponentId) -> Option<Value> {
        match self.values.get(&(id, cid)) {
            Some(v) => Some(v.clone()),
            None => self.world.column_by_id(cid)?.get(id.index() as usize),
        }
    }
}

impl StateView for OverlayView<'_> {
    fn view_get(&self, id: EntityId, component: &str) -> Option<Value> {
        if !self.view_is_live(id) {
            return None;
        }
        self.read(id, self.world.component_id(component)?)
    }

    fn view_pos(&self, id: EntityId) -> Option<Vec2> {
        if !self.view_is_live(id) {
            return None;
        }
        match self.read(id, POS_ID)? {
            Value::Vec2(x, y) => Some(Vec2::new(x, y)),
            _ => None,
        }
    }

    fn view_is_live(&self, id: EntityId) -> bool {
        !self.despawned.contains(&id) && self.world.is_live(id)
    }
}

/// Run `batch` (indices into `actions`) in order, pushing every
/// action's effects into `buf`. Each action reads the world through an
/// overlay of what its predecessors in the batch pushed — the overlay
/// absorbs only the ops the action itself just queued — so the batch is
/// serial. The one serial-overlay loop: a cluster node's local phase
/// and a causality bubble both run through it.
pub(crate) fn run_serial(
    world: &World,
    actions: &[Action],
    batch: &[usize],
    buf: &mut EffectBuffer,
) {
    let mut view = OverlayView::new(world);
    for &i in batch {
        let mark = buf.mark();
        actions[i].execute(&view, buf);
        view.absorb(buf, mark);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::arena_world;
    use gamedb_core::{Effect, POS};

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
        view.absorb(&buf, EffectMark::default());
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
            view.absorb(&buf, EffectMark::default());
        }
        assert_eq!(view.view_i64(ids[0], "gold"), Some(25));
    }

    #[test]
    fn set_and_minmax_semantics() {
        let (w, ids) = world_pair();
        let mut view = OverlayView::new(&w);
        let mut buf = EffectBuffer::new();
        buf.push(ids[0], "hp", Effect::Set(Value::Float(40.0)));
        view.absorb(&buf, EffectMark::default());
        assert_eq!(view.view_f32(ids[0], "hp"), Some(40.0));
        let mut buf = EffectBuffer::new();
        buf.push(ids[0], "hp", Effect::Min(25.0));
        buf.push(ids[0], "gold", Effect::Max(500.0));
        view.absorb(&buf, EffectMark::default());
        assert_eq!(view.view_f32(ids[0], "hp"), Some(25.0));
        assert_eq!(view.view_i64(ids[0], "gold"), Some(500));
    }

    #[test]
    fn despawn_hides_entity() {
        let (w, ids) = world_pair();
        let mut view = OverlayView::new(&w);
        let mut buf = EffectBuffer::new();
        buf.despawn(ids[1]);
        view.absorb(&buf, EffectMark::default());
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
        view.absorb(&buf, EffectMark::default());
        let mut buf = EffectBuffer::new();
        buf.push(ids[1], "gold", Effect::Add(50.0));
        view.absorb(&buf, EffectMark::default());
        assert_eq!(view.view_get(ids[1], "gold"), None);
    }

    #[test]
    fn position_overlay_accumulates() {
        let (w, ids) = world_pair();
        let mut view = OverlayView::new(&w);
        for _ in 0..2 {
            let mut buf = EffectBuffer::new();
            buf.push(ids[0], POS, Effect::AddVec2(1.5, 0.5));
            view.absorb(&buf, EffectMark::default());
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
        view.absorb(&buf, EffectMark::default());
        assert_eq!(view.view_i64(ids[0], "score"), Some(7));
    }

    /// The overlay once kept its own fold table, which read `None` after
    /// a `Min` on an absent column (`apply` writes the bound) and missed
    /// the ops of a shared buffer pushed before its mark.
    #[test]
    fn absorbs_only_what_was_pushed_since_the_mark_as_apply_folds_it() {
        let (mut w, ids) = world_pair();
        w.remove_component(ids[2], "hp").unwrap();
        let mut buf = EffectBuffer::new();
        buf.push(ids[0], "gold", Effect::Add(-30.0));
        let mark = buf.mark();
        buf.push(ids[2], "hp", Effect::Min(7.0));
        let mut view = OverlayView::new(&w);
        view.absorb(&buf, mark);
        assert_eq!(view.view_i64(ids[0], "gold"), Some(100), "pushed before the mark");
        assert_eq!(view.view_f32(ids[2], "hp"), Some(7.0));
        buf.apply(&mut w).unwrap();
        assert_eq!(w.get_f32(ids[2], "hp"), Some(7.0));
    }
}
