//! Synthetic MMO workload generation.
//!
//! Substitute for the production traces of WoW / EVE / Everquest that the
//! paper's techniques were built against, which are not public.
//! Tunable knobs capture the phenomena those workloads stress:
//! `hotspot_fraction` reproduces the "everyone piles into one fight"
//! contention spike, and the action mix reproduces the conflict profile.

use gamedb_core::{EntityId, World};
use gamedb_spatial::Vec2;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::action::{arena_world, Action};

/// Workload parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// Number of player entities.
    pub players: usize,
    /// Square world edge length.
    pub map_size: f32,
    /// Fraction of players placed inside the hotspot disk.
    pub hotspot_fraction: f32,
    /// Hotspot disk radius.
    pub hotspot_radius: f32,
    /// Actions generated per player per tick.
    pub actions_per_player: f32,
    /// Interaction radius for choosing attack/trade partners.
    pub interaction_range: f32,
    /// Action mix (attack, trade, move, heal) — normalized internally.
    pub mix: ActionMix,
    /// RNG seed (workloads are reproducible).
    pub seed: u64,
}

/// Relative weights of the action types.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActionMix {
    pub attack: f32,
    pub trade: f32,
    pub mv: f32,
    pub heal: f32,
}

impl Default for ActionMix {
    fn default() -> Self {
        ActionMix {
            attack: 0.5,
            trade: 0.1,
            mv: 0.3,
            heal: 0.1,
        }
    }
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            players: 1024,
            map_size: 1000.0,
            hotspot_fraction: 0.3,
            hotspot_radius: 25.0,
            actions_per_player: 1.0,
            interaction_range: 10.0,
            mix: ActionMix::default(),
            seed: 42,
        }
    }
}

/// A generated MMO workload: the world plus a per-tick action stream.
pub struct Workload {
    pub world: World,
    pub players: Vec<EntityId>,
    cfg: WorkloadConfig,
    rng: StdRng,
}

impl Workload {
    /// Build the world: `hotspot_fraction` of players in the hotspot at
    /// the map center, the rest uniform.
    pub fn new(cfg: WorkloadConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let center = Vec2::new(cfg.map_size / 2.0, cfg.map_size / 2.0);
        let positions: Vec<Vec2> = (0..cfg.players)
            .map(|_| {
                if rng.gen::<f32>() < cfg.hotspot_fraction {
                    let angle = rng.gen::<f32>() * std::f32::consts::TAU;
                    let radius = rng.gen::<f32>() * cfg.hotspot_radius;
                    center + Vec2::new(angle.cos(), angle.sin()) * radius
                } else {
                    Vec2::new(
                        rng.gen::<f32>() * cfg.map_size,
                        rng.gen::<f32>() * cfg.map_size,
                    )
                }
            })
            .collect();
        let (world, players) = arena_world(cfg.players, |i| positions[i]);
        Workload {
            world,
            players,
            cfg,
            rng,
        }
    }

    /// Configuration used to build this workload.
    pub fn config(&self) -> &WorkloadConfig {
        &self.cfg
    }

    /// Generate one tick's action batch. Attack/trade/heal partners are
    /// chosen among neighbors within `interaction_range` (conflicts are
    /// local, as in real games); moves pick random waypoints.
    pub fn next_batch(&mut self) -> Vec<Action> {
        let n_actions = (self.cfg.players as f32 * self.cfg.actions_per_player) as usize;
        let total =
            self.cfg.mix.attack + self.cfg.mix.trade + self.cfg.mix.mv + self.cfg.mix.heal;
        let mut batch = Vec::with_capacity(n_actions);
        let mut near = Vec::new();
        for _ in 0..n_actions {
            let who = self.players[self.rng.gen_range(0..self.players.len())];
            if !self.world.is_live(who) {
                continue;
            }
            let Some(p) = self.world.pos(who) else { continue };
            let roll = self.rng.gen::<f32>() * total;
            let pick_partner = |world: &World, rng: &mut StdRng, near: &mut Vec<EntityId>| {
                near.clear();
                world.within(p, self.cfg.interaction_range, near);
                near.retain(|&e| e != who);
                if near.is_empty() {
                    None
                } else {
                    Some(near[rng.gen_range(0..near.len())])
                }
            };
            let action = if roll < self.cfg.mix.attack {
                match pick_partner(&self.world, &mut self.rng, &mut near) {
                    Some(target) => Action::Attack {
                        attacker: who,
                        target,
                    },
                    None => continue,
                }
            } else if roll < self.cfg.mix.attack + self.cfg.mix.trade {
                match pick_partner(&self.world, &mut self.rng, &mut near) {
                    Some(to) => Action::Trade {
                        from: who,
                        to,
                        amount: self.rng.gen_range(1..20),
                    },
                    None => continue,
                }
            } else if roll < self.cfg.mix.attack + self.cfg.mix.trade + self.cfg.mix.mv {
                Action::Move {
                    who,
                    to: Vec2::new(
                        self.rng.gen::<f32>() * self.cfg.map_size,
                        self.rng.gen::<f32>() * self.cfg.map_size,
                    ),
                    speed: 2.0,
                }
            } else {
                match pick_partner(&self.world, &mut self.rng, &mut near) {
                    Some(target) => Action::Heal {
                        healer: who,
                        target,
                    },
                    None => continue,
                }
            };
            batch.push(action);
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_reproducible() {
        let cfg = WorkloadConfig {
            players: 64,
            ..Default::default()
        };
        let mut w1 = Workload::new(cfg);
        let mut w2 = Workload::new(cfg);
        assert_eq!(w1.next_batch(), w2.next_batch());
        assert_eq!(w1.next_batch(), w2.next_batch());
    }

    #[test]
    fn hotspot_concentrates_players() {
        let cfg = WorkloadConfig {
            players: 400,
            hotspot_fraction: 0.5,
            hotspot_radius: 20.0,
            map_size: 1000.0,
            ..Default::default()
        };
        let w = Workload::new(cfg);
        let center = Vec2::new(500.0, 500.0);
        let inside = w
            .players
            .iter()
            .filter(|&&e| w.world.pos(e).unwrap().dist(center) <= 21.0)
            .count();
        // ~50% inside the hotspot (allow sampling noise)
        assert!(inside > 140 && inside < 260, "inside={inside}");
    }

    #[test]
    fn zero_hotspot_spreads_players() {
        let cfg = WorkloadConfig {
            players: 200,
            hotspot_fraction: 0.0,
            ..Default::default()
        };
        let w = Workload::new(cfg);
        let center = Vec2::new(500.0, 500.0);
        let inside = w
            .players
            .iter()
            .filter(|&&e| w.world.pos(e).unwrap().dist(center) <= 26.0)
            .count();
        assert!(inside < 10);
    }

    #[test]
    fn batch_respects_mix_extremes() {
        let cfg = WorkloadConfig {
            players: 128,
            hotspot_fraction: 1.0, // all together so partners exist
            mix: ActionMix {
                attack: 1.0,
                trade: 0.0,
                mv: 0.0,
                heal: 0.0,
            },
            ..Default::default()
        };
        let mut w = Workload::new(cfg);
        let batch = w.next_batch();
        assert!(!batch.is_empty());
        assert!(batch.iter().all(|a| matches!(a, Action::Attack { .. })));
    }

    #[test]
    fn isolated_players_skip_partner_actions() {
        let cfg = WorkloadConfig {
            players: 4,
            map_size: 100_000.0,
            hotspot_fraction: 0.0,
            mix: ActionMix {
                attack: 1.0,
                trade: 0.0,
                mv: 0.0,
                heal: 0.0,
            },
            ..Default::default()
        };
        let mut w = Workload::new(cfg);
        // nobody within range: batch is empty rather than self-attacks
        assert!(w.next_batch().is_empty());
    }
}
