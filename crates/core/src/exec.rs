//! The tick executor: sequential and data-parallel system execution.
//!
//! "We will also look at how game developers have been using parallel
//! programming to improve performance; this is an area in which game
//! developers potentially have a lot to learn from the database
//! community." The executor treats a tick as a batch query: each *system*
//! is a function from an entity and the immutable tick-start state to
//! effects. Entities are partitioned into chunks and fanned out over
//! scoped threads (the GPU-batch analogue on CPU cores); per-chunk effect
//! buffers are merged in chunk order and applied once — so the result is
//! bit-identical regardless of thread count (experiment E5: the
//! determinism tests `parallel_matches_sequential_exactly` and
//! `prop_core::parallel_tick_deterministic`).

use crate::effect::EffectBuffer;
use crate::entity::EntityId;
use crate::world::{CoreError, World};

/// A per-entity system: reads the tick-start world, emits effects.
pub type System<'a> = dyn Fn(EntityId, &World, &mut EffectBuffer) + Sync + 'a;

/// Statistics from one tick.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TickStats {
    /// Entities processed (per system run, summed).
    pub entities_processed: usize,
    /// Effects applied after merging.
    pub effects_applied: usize,
    /// Threads used.
    pub threads: usize,
}

/// Runs systems over the world, one tick at a time.
#[derive(Debug, Clone, Copy)]
pub struct TickExecutor {
    threads: usize,
    /// Minimum entities per chunk; tiny worlds stay single-threaded.
    min_chunk: usize,
}

impl Default for TickExecutor {
    fn default() -> Self {
        TickExecutor::sequential()
    }
}

impl TickExecutor {
    /// Single-threaded executor.
    pub fn sequential() -> Self {
        TickExecutor {
            threads: 1,
            min_chunk: 1,
        }
    }

    /// Executor with an explicit thread count (clamped to ≥ 1).
    pub fn parallel(threads: usize) -> Self {
        TickExecutor {
            threads: threads.max(1),
            min_chunk: 64,
        }
    }

    /// Thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Override the minimum chunk size (benchmarks sweep this).
    pub fn with_min_chunk(mut self, min_chunk: usize) -> Self {
        self.min_chunk = min_chunk.max(1);
        self
    }

    /// Run one tick: every system over every live entity against the
    /// tick-start state, then apply all effects atomically.
    pub fn run_tick(
        &self,
        world: &mut World,
        systems: &[&System<'_>],
    ) -> Result<TickStats, CoreError> {
        let ids = world.entity_vec();
        let mut stats = TickStats {
            threads: self.threads,
            ..Default::default()
        };
        let mut merged = EffectBuffer::new();

        if self.threads == 1 || ids.len() < self.min_chunk * 2 {
            stats.threads = 1;
            for system in systems {
                for &id in &ids {
                    system(id, world, &mut merged);
                }
                stats.entities_processed += ids.len();
            }
        } else {
            let chunk_size = (ids.len() / self.threads).max(self.min_chunk);
            let chunks: Vec<&[EntityId]> = ids.chunks(chunk_size).collect();
            for system in systems {
                // one buffer slot per chunk => merge order is chunk order,
                // independent of thread scheduling
                let mut buffers: Vec<EffectBuffer> =
                    chunks.iter().map(|_| EffectBuffer::new()).collect();
                let world_ref: &World = world;
                crossbeam::thread::scope(|scope| {
                    for (chunk, buf) in chunks.iter().zip(buffers.iter_mut()) {
                        scope.spawn(move |_| {
                            for &id in *chunk {
                                system(id, world_ref, buf);
                            }
                        });
                    }
                })
                .expect("tick worker panicked");
                for buf in buffers {
                    merged.merge(buf);
                }
                stats.entities_processed += ids.len();
            }
        }

        stats.effects_applied = merged.apply(world)?;
        world.bump_tick();
        Ok(stats)
    }

    /// Run `n` ticks of the same systems.
    pub fn run_ticks(
        &self,
        world: &mut World,
        systems: &[&System<'_>],
        n: usize,
    ) -> Result<TickStats, CoreError> {
        let mut total = TickStats {
            threads: self.threads,
            ..Default::default()
        };
        for _ in 0..n {
            let s = self.run_tick(world, systems)?;
            total.entities_processed += s.entities_processed;
            total.effects_applied += s.effects_applied;
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effect::Effect;
    use gamedb_content::ValueType;
    use gamedb_spatial::Vec2;

    fn arena(n: usize) -> World {
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        w.define_component("dmg", ValueType::Float).unwrap();
        for i in 0..n {
            let e = w.spawn_at(Vec2::new((i % 32) as f32 * 4.0, (i / 32) as f32 * 4.0));
            w.set_f32(e, "hp", 100.0).unwrap();
            w.set_f32(e, "dmg", 1.0 + (i % 5) as f32).unwrap();
        }
        w
    }

    /// Every entity damages every neighbor within 6 units (commutative
    /// Add effects) and regenerates 0.5 hp.
    fn combat_system(id: EntityId, world: &World, buf: &mut EffectBuffer) {
        let Some(p) = world.pos(id) else { return };
        let dmg = world.get_f32(id, "dmg").unwrap_or(0.0) as f64;
        let mut near = Vec::new();
        world.within(p, 6.0, &mut near);
        for other in near {
            if other != id {
                buf.push(other, "hp", Effect::Add(-dmg));
            }
        }
        buf.push(id, "hp", Effect::Add(0.5));
    }

    #[test]
    fn sequential_tick_applies_effects() {
        let mut w = arena(4);
        let exec = TickExecutor::sequential();
        let stats = exec
            .run_tick(&mut w, &[&combat_system])
            .unwrap();
        assert_eq!(stats.entities_processed, 4);
        assert!(stats.effects_applied > 0);
        assert_eq!(w.tick(), 1);
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let mut w_seq = arena(500);
        let mut w_par = arena(500);
        let seq = TickExecutor::sequential();
        let par = TickExecutor::parallel(4).with_min_chunk(16);
        for _ in 0..5 {
            seq.run_tick(&mut w_seq, &[&combat_system]).unwrap();
            par.run_tick(&mut w_par, &[&combat_system]).unwrap();
        }
        let rows_seq = w_seq.rows();
        let rows_par = w_par.rows();
        assert_eq!(rows_seq, rows_par, "parallel tick must be deterministic");
    }

    #[test]
    fn thread_count_does_not_change_result() {
        let mut worlds: Vec<World> = (0..4).map(|_| arena(300)).collect();
        let execs = [
            TickExecutor::parallel(2).with_min_chunk(8),
            TickExecutor::parallel(3).with_min_chunk(8),
            TickExecutor::parallel(8).with_min_chunk(8),
            TickExecutor::sequential(),
        ];
        for (w, exec) in worlds.iter_mut().zip(execs.iter()) {
            exec.run_ticks(w, &[&combat_system], 3).unwrap();
        }
        let reference = worlds[3].rows();
        for w in &worlds[..3] {
            assert_eq!(w.rows(), reference);
        }
    }

    #[test]
    fn reads_see_tick_start_state() {
        // System A sets hp to 0; system B reads hp. Both run in the same
        // tick: B must see the tick-start value (state-effect semantics),
        // so its Add is based on 100, not 0.
        let mut w = arena(1);
        let e = w.entities().next().unwrap();
        let kill: &System<'_> = &|id, _w, buf: &mut EffectBuffer| {
            buf.push(id, "hp", Effect::Set(gamedb_content::Value::Float(0.0)));
        };
        let observe: &System<'_> = &|id, w: &World, buf: &mut EffectBuffer| {
            let hp = w.get_f32(id, "hp").unwrap();
            assert_eq!(hp, 100.0, "reads must see tick-start state");
            buf.push(id, "dmg", Effect::Add(hp as f64));
        };
        TickExecutor::sequential()
            .run_tick(&mut w, &[kill, observe])
            .unwrap();
        // canonical effect order applies Set before Add? Both target
        // different components; hp==0 and dmg incremented by 100.
        assert_eq!(w.get_f32(e, "hp"), Some(0.0));
        assert_eq!(w.get_f32(e, "dmg"), Some(101.0));
    }

    #[test]
    fn despawn_during_tick() {
        let mut w = arena(10);
        let victim = w.entities().next().unwrap();
        let reaper: &System<'_> = &|id, _w, buf: &mut EffectBuffer| {
            if id == victim {
                buf.despawn(id);
            }
        };
        TickExecutor::sequential().run_tick(&mut w, &[reaper]).unwrap();
        assert_eq!(w.len(), 9);
        assert!(!w.is_live(victim));
    }

    #[test]
    fn spawns_during_tick() {
        use crate::effect::SpawnRequest;
        let mut w = arena(3);
        let spawner: &System<'_> = &|_id, _w, buf: &mut EffectBuffer| {
            buf.spawn(SpawnRequest {
                components: vec![("hp".into(), gamedb_content::Value::Float(1.0))],
                pos: Vec2::ZERO,
            });
        };
        TickExecutor::sequential().run_tick(&mut w, &[spawner]).unwrap();
        assert_eq!(w.len(), 6, "each of 3 entities spawned one more");
    }

    #[test]
    fn run_ticks_accumulates_stats() {
        let mut w = arena(8);
        let stats = TickExecutor::sequential()
            .run_ticks(&mut w, &[&combat_system], 4)
            .unwrap();
        assert_eq!(stats.entities_processed, 32);
        assert_eq!(w.tick(), 4);
    }

    #[test]
    fn parallel_ticks_keep_indexes_and_scans_agreeing() {
        use crate::index::IndexKind;
        use crate::query::Query;
        use gamedb_content::{CmpOp, Value};
        let mut w = arena(300);
        w.create_index("hp", IndexKind::Sorted).unwrap();
        let exec = TickExecutor::parallel(4).with_min_chunk(16);
        for _ in 0..3 {
            exec.run_tick(&mut w, &[&combat_system]).unwrap();
            let q = Query::select().filter("hp", CmpOp::Lt, Value::Float(95.0));
            assert_eq!(q.run(&w), q.run_scan(&w), "index drifted from columns");
        }
    }

    #[test]
    fn empty_world_ticks_fine() {
        let mut w = World::new();
        let stats = TickExecutor::parallel(4)
            .run_tick(&mut w, &[&combat_system])
            .unwrap();
        assert_eq!(stats.entities_processed, 0);
        assert_eq!(stats.effects_applied, 0);
    }
}
