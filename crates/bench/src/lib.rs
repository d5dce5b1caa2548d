//! # gamedb-bench
//!
//! Shared world builders for the Criterion benches. Which test, example
//! or bench holds each of the paper's claims is tabled in
//! `docs/ARCHITECTURE.md` ("Where each paper claim is checked").

use gamedb_content::{Value, ValueType};
use gamedb_core::{EntityId, World};
use gamedb_spatial::Vec2;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Uniform random world with the standard combat components: hp, dmg,
/// team. Density is controlled by `map_size`.
pub fn combat_world(n: usize, map_size: f32, seed: u64) -> (World, Vec<EntityId>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut w = World::new();
    w.define_component("hp", ValueType::Float).unwrap();
    w.define_component("dmg", ValueType::Float).unwrap();
    w.define_component("team", ValueType::Str).unwrap();
    let mut ids = Vec::with_capacity(n);
    for i in 0..n {
        let e = w.spawn_at(Vec2::new(
            rng.gen::<f32>() * map_size,
            rng.gen::<f32>() * map_size,
        ));
        w.set_f32(e, "hp", 100.0).unwrap();
        w.set_f32(e, "dmg", 1.0 + (i % 5) as f32).unwrap();
        w.set(
            e,
            "team",
            Value::Str(if i % 2 == 0 { "red" } else { "blue" }.into()),
        )
        .unwrap();
        ids.push(e);
    }
    (w, ids)
}

/// World with constant *density*: the map grows with n so each entity
/// keeps roughly `density` entities per unit area — the fair regime for
/// index scaling curves.
pub fn constant_density_world(n: usize, density: f32, seed: u64) -> (World, Vec<EntityId>) {
    let map = ((n as f32) / density).sqrt().max(1.0);
    combat_world(n, map, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_produce_requested_sizes() {
        let (w, ids) = combat_world(100, 50.0, 1);
        assert_eq!(w.len(), 100);
        assert_eq!(ids.len(), 100);
        let (w2, _) = constant_density_world(400, 1.0, 1);
        assert_eq!(w2.len(), 400);
    }

    #[test]
    fn builders_are_deterministic() {
        let (w1, _) = combat_world(50, 100.0, 9);
        let (w2, _) = combat_world(50, 100.0, 9);
        assert_eq!(w1.rows(), w2.rows());
    }
}
