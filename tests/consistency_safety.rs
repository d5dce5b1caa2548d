//! Cross-crate property tests for the consistency layer:
//! * every executor produces the same final state on commutative batches;
//! * causality bubbles never separate entities that are within
//!   interaction range (the partitioning safety invariant);
//! * recovery always restores a prefix-consistent durable state.

use gamedb::core::EntityId;
use gamedb::persist::{temp_dir, Backend, CheckpointClock, CheckpointPolicy, WalStore};
use gamedb::spatial::Vec2;
use gamedb::sync::{
    arena_world, partition, Action, BubbleConfig, BubbleExecutor, Executor, LockingExecutor,
    OptimisticExecutor, SerialExecutor,
};
use proptest::prelude::*;

fn positions_strategy() -> impl Strategy<Value = Vec<(f32, f32)>> {
    proptest::collection::vec((-200.0f32..200.0, -200.0f32..200.0), 4..48)
}

/// Attack actions between random nearby pairs (attacks are commutative:
/// `dmg` is read-only, `hp` accumulates Adds).
fn attack_batch(ids: &[EntityId], pairs: &[(usize, usize)]) -> Vec<Action> {
    pairs
        .iter()
        .map(|&(a, b)| Action::Attack {
            attacker: ids[a % ids.len()],
            target: ids[b % ids.len()],
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn executors_agree_on_attack_batches(
        positions in positions_strategy(),
        pairs in proptest::collection::vec((0usize..48, 0usize..48), 0..64),
    ) {
        let build = || arena_world(positions.len(), |i| {
            let (x, y) = positions[i];
            Vec2::new(x, y)
        });
        let (ids, reference) = {
            let (mut w, ids) = build();
            let batch = attack_batch(&ids, &pairs);
            SerialExecutor.execute(&mut w, &batch);
            (ids, w.rows())
        };
        let execs: Vec<Box<dyn Executor>> = vec![
            Box::new(LockingExecutor),
            Box::new(OptimisticExecutor::default()),
            Box::new(BubbleExecutor::default()),
        ];
        for exec in execs {
            let (mut w, ids2) = build();
            prop_assert_eq!(&ids2, &ids);
            let batch = attack_batch(&ids2, &pairs);
            let stats = exec.execute(&mut w, &batch);
            prop_assert_eq!(stats.executed, batch.len());
            prop_assert_eq!(w.rows(), reference.clone(), "{} diverged", exec.name());
        }
    }

    /// Safety: any two entities within (reach_i + reach_j + range) of each
    /// other must share a bubble — otherwise an interaction could cross a
    /// partition boundary mid-tick.
    #[test]
    fn bubbles_never_split_interacting_pairs(
        positions in positions_strategy(),
        range in 1.0f32..20.0,
    ) {
        let (w, ids) = arena_world(positions.len(), |i| {
            let (x, y) = positions[i];
            Vec2::new(x, y)
        });
        let cfg = BubbleConfig {
            dt: 1.0,
            max_accel: 2.0,
            interaction_range: range,
        };
        let part = partition(&w, &cfg);
        let reach = cfg.reach(0.0); // no velocities in this world
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i + 1..] {
                let pa = w.pos(a).unwrap();
                let pb = w.pos(b).unwrap();
                let limit = reach * 2.0 + range;
                if pa.dist(pb) <= limit {
                    prop_assert_eq!(
                        part.bubble_of[&a], part.bubble_of[&b],
                        "interacting pair split across bubbles"
                    );
                }
            }
        }
        // and the partition covers every entity exactly once
        let total: usize = part.bubbles.iter().map(Vec::len).sum();
        prop_assert_eq!(total, ids.len());
    }

    /// Recovery restores exactly the state at the last policy point:
    /// running the same deterministic mutation sequence up to that point
    /// reproduces the recovered world.
    #[test]
    fn recovery_is_prefix_consistent(
        n in 2usize..20,
        total_steps in 1usize..40,
        period in 1usize..10,
    ) {
        let build = || arena_world(n, |i| Vec2::new(i as f32 * 2.0, 0.0));
        let (world, ids) = build();
        let backend = Backend::open(temp_dir("prefix")).unwrap();
        let mut store = WalStore::new(world, backend, 1).unwrap();
        let mut clock = CheckpointClock::new(CheckpointPolicy::Periodic { period: period as f64 });
        // deterministic mutation: step k moves entity k%n and damages it;
        // a write-behind caller commits only when the clock fires
        for step in 0..total_steps {
            let e = ids[step % n];
            let w = store.world_mut();
            let p = w.pos(e).unwrap();
            w.set_pos(e, p + Vec2::new(1.0, 0.0)).unwrap();
            let hp = w.get_f32(e, "hp").unwrap();
            w.set_f32(e, "hp", hp - 1.0).unwrap();
            if clock.observe(1.0, 0.0) {
                store.commit().unwrap();
            }
        }
        let cp_at = clock.last_checkpoint_at() as usize;
        let report = clock.exposure();
        let (recovered, _) = store.crash_and_recover().unwrap();
        prop_assert!(report.lost_game_seconds < period as f64 + 1e-6);

        // replay the prefix on a fresh world
        let (mut replay, ids2) = build();
        for step in 0..cp_at {
            let e = ids2[step % n];
            let p = replay.pos(e).unwrap();
            replay.set_pos(e, p + Vec2::new(1.0, 0.0)).unwrap();
            let hp = replay.get_f32(e, "hp").unwrap();
            replay.set_f32(e, "hp", hp - 1.0).unwrap();
        }
        prop_assert_eq!(recovered.world().rows(), replay.rows());
    }
}

#[test]
fn gold_is_conserved_by_every_executor_under_contention() {
    // ring of trades through one hot entity — heavy conflicts
    let (_, ids) = arena_world(10, |i| Vec2::new(i as f32, 0.0));
    let mut batch = Vec::new();
    for (k, &from) in ids.iter().enumerate() {
        batch.push(Action::Trade {
            from,
            to: ids[0],
            amount: 5 + k as i64,
        });
        batch.push(Action::Trade {
            from: ids[0],
            to: ids[(k + 1) % ids.len()],
            amount: 3,
        });
    }
    let execs: Vec<Box<dyn Executor>> = vec![
        Box::new(SerialExecutor),
        Box::new(LockingExecutor),
        Box::new(OptimisticExecutor::default()),
        Box::new(BubbleExecutor::default()),
    ];
    for exec in execs {
        let (mut w, ids) = arena_world(10, |i| Vec2::new(i as f32, 0.0));
        exec.execute(&mut w, &batch);
        let total: i64 = ids.iter().map(|&e| w.get_i64(e, "gold").unwrap()).sum();
        assert_eq!(total, 1000, "{} lost or created gold", exec.name());
    }
}
