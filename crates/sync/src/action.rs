//! Player actions as transactions.
//!
//! "Players are performing conflicting actions at a very high rate" — the
//! consistency problem of the paper's MMO section. An [`Action`] is a
//! small transaction over world entities with a statically known
//! *footprint* (read set / write set), which is what every executor in
//! this crate schedules around: 2PL locks the footprint, OCC validates
//! it, and causality bubbles guarantee footprints never cross bubble
//! boundaries.

use gamedb_content::Value;
use gamedb_core::{Effect, EffectBuffer, EntityId, World};
use gamedb_spatial::Vec2;

use crate::view::StateView;

/// One player action (a mini-transaction).
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Move an entity toward a target point at a speed (per-tick step).
    Move { who: EntityId, to: Vec2, speed: f32 },
    /// Attack: read attacker's `dmg`, subtract from target's `hp`.
    Attack { attacker: EntityId, target: EntityId },
    /// Transfer `amount` gold from `from` to `to` (clamped at balance).
    Trade {
        from: EntityId,
        to: EntityId,
        amount: i64,
    },
    /// Heal target by the healer's `power`.
    Heal { healer: EntityId, target: EntityId },
    /// Pick up an item entity: adds its `value` to the player's gold and
    /// despawns the item.
    Pickup { player: EntityId, item: EntityId },
}

impl Action {
    /// Entities this action reads (includes everything written).
    pub fn read_set(&self) -> Vec<EntityId> {
        match self {
            Action::Move { who, .. } => vec![*who],
            Action::Attack { attacker, target } => vec![*attacker, *target],
            Action::Trade { from, to, .. } => vec![*from, *to],
            Action::Heal { healer, target } => vec![*healer, *target],
            Action::Pickup { player, item } => vec![*player, *item],
        }
    }

    /// Entities this action writes.
    pub fn write_set(&self) -> Vec<EntityId> {
        match self {
            Action::Move { who, .. } => vec![*who],
            Action::Attack { target, .. } => vec![*target],
            Action::Trade { from, to, .. } => vec![*from, *to],
            Action::Heal { target, .. } => vec![*target],
            Action::Pickup { player, item } => vec![*player, *item],
        }
    }

    /// The entities this action touches — its read set, which contains
    /// its write set — without allocating (`Move` names its one entity
    /// twice). What placement routing reads: an action is local exactly
    /// when both entries share an owner.
    pub(crate) fn footprint(&self) -> [EntityId; 2] {
        match *self {
            Action::Move { who, .. } => [who, who],
            Action::Attack { attacker: a, target: b }
            | Action::Trade { from: a, to: b, .. }
            | Action::Heal { healer: a, target: b }
            | Action::Pickup { player: a, item: b } => [a, b],
        }
    }

    /// True when the two actions' footprints conflict (any write-write or
    /// read-write overlap on an entity).
    pub fn conflicts_with(&self, other: &Action) -> bool {
        let (r1, w1) = (self.read_set(), self.write_set());
        let (r2, w2) = (other.read_set(), other.write_set());
        w1.iter().any(|e| r2.contains(e) || w2.contains(e))
            || w2.iter().any(|e| r1.contains(e))
    }

    /// Execute against a read view of tick state, emitting effects.
    ///
    /// Wave executors pass the wave-start [`World`]; the bubble executor
    /// passes an [`crate::view::OverlayView`] so actions in one bubble
    /// observe each other (serial-within-bubble). Uses only commutative
    /// effects (`Add`, `AddVec2`, `Min`) plus despawn, so conflict-free
    /// actions may execute in any order within a wave. Actions against
    /// dead entities become no-ops (players race against deaths
    /// constantly).
    pub fn execute(&self, world: &impl StateView, buf: &mut EffectBuffer) {
        match self {
            Action::Move { who, to, speed } => {
                let Some(p) = world.view_pos(*who) else { return };
                let delta = *to - p;
                let d = delta.len();
                let step = if d <= *speed || d == 0.0 {
                    delta
                } else {
                    delta * (*speed / d)
                };
                buf.push(*who, gamedb_core::POS, Effect::AddVec2(step.x, step.y));
            }
            Action::Attack { attacker, target } => {
                if !world.view_is_live(*attacker) || !world.view_is_live(*target) {
                    return;
                }
                let dmg = world.view_f32(*attacker, "dmg").unwrap_or(1.0) as f64;
                buf.push(*target, "hp", Effect::Add(-dmg));
            }
            Action::Trade { from, to, amount } => {
                if !world.view_is_live(*from) || !world.view_is_live(*to) {
                    return;
                }
                let balance = world.view_i64(*from, "gold").unwrap_or(0);
                let amt = (*amount).clamp(0, balance.max(0));
                if amt == 0 {
                    return;
                }
                buf.push(*from, "gold", Effect::Add(-(amt as f64)));
                buf.push(*to, "gold", Effect::Add(amt as f64));
            }
            Action::Heal { healer, target } => {
                if !world.view_is_live(*healer) || !world.view_is_live(*target) {
                    return;
                }
                let power = world.view_f32(*healer, "power").unwrap_or(5.0) as f64;
                buf.push(*target, "hp", Effect::Add(power));
            }
            Action::Pickup { player, item } => {
                if !world.view_is_live(*player) || !world.view_is_live(*item) {
                    return;
                }
                let value = world.view_i64(*item, "value").unwrap_or(0) as f64;
                buf.push(*player, "gold", Effect::Add(value));
                buf.despawn(*item);
            }
        }
    }
}

/// Build a standard arena world for consistency experiments: `players`
/// player entities with hp/gold/dmg/power components.
pub fn arena_world(players: usize, place: impl Fn(usize) -> Vec2) -> (World, Vec<EntityId>) {
    let mut w = World::new();
    for (name, ty) in [
        ("hp", gamedb_content::ValueType::Float),
        ("dmg", gamedb_content::ValueType::Float),
        ("power", gamedb_content::ValueType::Float),
        ("gold", gamedb_content::ValueType::Int),
        ("value", gamedb_content::ValueType::Int),
    ] {
        w.define_component(name, ty).unwrap();
    }
    let mut ids = Vec::with_capacity(players);
    for i in 0..players {
        let e = w.spawn_at(place(i));
        w.set_f32(e, "hp", 100.0).unwrap();
        w.set_f32(e, "dmg", 5.0).unwrap();
        w.set_f32(e, "power", 3.0).unwrap();
        w.set(e, "gold", Value::Int(100)).unwrap();
        ids.push(e);
    }
    (w, ids)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_world(n: usize) -> (World, Vec<EntityId>) {
        arena_world(n, |i| Vec2::new(i as f32 * 10.0, 0.0))
    }

    fn apply(world: &mut World, action: &Action) {
        let mut buf = EffectBuffer::new();
        action.execute(world, &mut buf);
        buf.apply(world).unwrap();
    }

    #[test]
    fn move_steps_toward_target() {
        let (mut w, ids) = line_world(1);
        apply(
            &mut w,
            &Action::Move {
                who: ids[0],
                to: Vec2::new(10.0, 0.0),
                speed: 3.0,
            },
        );
        assert_eq!(w.pos(ids[0]), Some(Vec2::new(3.0, 0.0)));
        // arrives exactly when closer than speed
        apply(
            &mut w,
            &Action::Move {
                who: ids[0],
                to: Vec2::new(4.0, 0.0),
                speed: 3.0,
            },
        );
        assert_eq!(w.pos(ids[0]), Some(Vec2::new(4.0, 0.0)));
    }

    #[test]
    fn attack_and_heal() {
        let (mut w, ids) = line_world(2);
        apply(
            &mut w,
            &Action::Attack {
                attacker: ids[0],
                target: ids[1],
            },
        );
        assert_eq!(w.get_f32(ids[1], "hp"), Some(95.0));
        apply(
            &mut w,
            &Action::Heal {
                healer: ids[0],
                target: ids[1],
            },
        );
        assert_eq!(w.get_f32(ids[1], "hp"), Some(98.0));
    }

    #[test]
    fn trade_clamps_to_balance() {
        let (mut w, ids) = line_world(2);
        apply(
            &mut w,
            &Action::Trade {
                from: ids[0],
                to: ids[1],
                amount: 250,
            },
        );
        assert_eq!(w.get_i64(ids[0], "gold"), Some(0));
        assert_eq!(w.get_i64(ids[1], "gold"), Some(200));
        // broke player sends nothing
        apply(
            &mut w,
            &Action::Trade {
                from: ids[0],
                to: ids[1],
                amount: 10,
            },
        );
        assert_eq!(w.get_i64(ids[1], "gold"), Some(200));
    }

    #[test]
    fn pickup_despawns_item() {
        let (mut w, ids) = line_world(1);
        let item = w.spawn_at(Vec2::new(1.0, 0.0));
        w.set(item, "value", Value::Int(42)).unwrap();
        apply(
            &mut w,
            &Action::Pickup {
                player: ids[0],
                item,
            },
        );
        assert_eq!(w.get_i64(ids[0], "gold"), Some(142));
        assert!(!w.is_live(item));
    }

    #[test]
    fn actions_on_dead_entities_are_noops() {
        let (mut w, ids) = line_world(2);
        w.despawn(ids[1]);
        apply(
            &mut w,
            &Action::Attack {
                attacker: ids[0],
                target: ids[1],
            },
        );
        apply(
            &mut w,
            &Action::Trade {
                from: ids[1],
                to: ids[0],
                amount: 10,
            },
        );
        assert_eq!(w.get_i64(ids[0], "gold"), Some(100));
    }

    #[test]
    fn conflict_detection() {
        let (_, ids) = line_world(4);
        let a = Action::Attack {
            attacker: ids[0],
            target: ids[1],
        };
        let b = Action::Attack {
            attacker: ids[2],
            target: ids[1],
        };
        let c = Action::Attack {
            attacker: ids[2],
            target: ids[3],
        };
        assert!(a.conflicts_with(&b), "write-write on same target");
        // b reads {2,1} writes {1}; c reads {2,3} writes {3}: both read
        // entity 2, but read-read is not a conflict.
        assert!(!b.conflicts_with(&c));
        assert!(!a.conflicts_with(&c));
        // move vs attack on same entity conflicts
        let m = Action::Move {
            who: ids[1],
            to: Vec2::ZERO,
            speed: 1.0,
        };
        assert!(m.conflicts_with(&a));
    }

    #[test]
    fn read_write_sets() {
        let (_, ids) = line_world(2);
        let t = Action::Trade {
            from: ids[0],
            to: ids[1],
            amount: 5,
        };
        assert_eq!(t.read_set(), vec![ids[0], ids[1]]);
        assert_eq!(t.write_set(), vec![ids[0], ids[1]]);
        let a = Action::Attack {
            attacker: ids[0],
            target: ids[1],
        };
        assert_eq!(a.write_set(), vec![ids[1]]);
    }
}
