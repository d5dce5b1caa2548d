//! Property tests for incremental points on the one store: under any
//! random sequence of world mutations (set / move / spawn / despawn /
//! clear), a chain of `WalStore::commit` frames replayed over the base
//! snapshot reproduces the live world exactly, and an idle point writes
//! nothing and changes nothing.

use gamedb_content::{Value, ValueType};
use gamedb_core::{EntityId, World};
use gamedb_persist::{temp_dir, Backend, WalStore};
use gamedb_spatial::Vec2;
use proptest::prelude::*;

/// One random world mutation.
#[derive(Debug, Clone)]
enum Op {
    SetHp(usize, f32),
    SetGold(usize, i64),
    Move(usize, f32, f32),
    Despawn(usize),
    Spawn(f32, f32),
    ClearGold(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..32usize, 0.0f32..200.0).prop_map(|(i, v)| Op::SetHp(i, v)),
        (0..32usize, -50i64..500).prop_map(|(i, v)| Op::SetGold(i, v)),
        (0..32usize, -40.0f32..40.0, -40.0f32..40.0).prop_map(|(i, x, y)| Op::Move(i, x, y)),
        (0..32usize).prop_map(Op::Despawn),
        (-40.0f32..40.0, -40.0f32..40.0).prop_map(|(x, y)| Op::Spawn(x, y)),
        (0..32usize).prop_map(Op::ClearGold),
    ]
}

/// A write-behind store (sync, flushed per commit) over 16 entities.
fn base_store(label: &str) -> (WalStore, Vec<EntityId>) {
    let mut w = World::new();
    w.define_component("hp", ValueType::Float).unwrap();
    w.define_component("gold", ValueType::Int).unwrap();
    let ids: Vec<EntityId> = (0..16)
        .map(|i| {
            let e = w.spawn_at(Vec2::new(i as f32 * 3.0, 0.0));
            w.set_f32(e, "hp", 100.0).unwrap();
            w.set(e, "gold", Value::Int(10)).unwrap();
            e
        })
        .collect();
    let store = WalStore::new(w, Backend::open(temp_dir(label)).unwrap(), 1).unwrap();
    (store, ids)
}

fn apply_op(world: &mut World, live: &mut Vec<EntityId>, op: &Op) {
    let pick = |i: usize| live.get(i % live.len().max(1)).copied();
    match *op {
        Op::SetHp(i, v) => {
            if let Some(e) = pick(i) {
                world.set_f32(e, "hp", v).unwrap();
            }
        }
        Op::SetGold(i, v) => {
            if let Some(e) = pick(i) {
                world.set(e, "gold", Value::Int(v)).unwrap();
            }
        }
        Op::Move(i, x, y) => {
            if let Some(e) = pick(i) {
                world.set_pos(e, Vec2::new(x, y)).unwrap();
            }
        }
        Op::Despawn(i) => {
            if live.len() > 2 {
                let e = live.remove(i % live.len());
                world.despawn(e);
            }
        }
        Op::Spawn(x, y) => {
            let e = world.spawn_at(Vec2::new(x, y));
            world.set_f32(e, "hp", 50.0).unwrap();
            live.push(e);
        }
        Op::ClearGold(i) => {
            if let Some(e) = pick(i) {
                if world.get(e, "gold").is_some() {
                    world.remove_component(e, "gold").unwrap();
                }
            }
        }
    }
}

/// Crash the store and hold the recovered rows and live set to `durable`.
fn recover(store: WalStore, durable: &World) -> Result<WalStore, TestCaseError> {
    let (recovered, _) = store.crash_and_recover().unwrap();
    let w = recovered.world();
    prop_assert_eq!(w.rows(), durable.rows());
    prop_assert_eq!(
        w.entities().collect::<Vec<_>>(),
        durable.entities().collect::<Vec<_>>()
    );
    Ok(recovered)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A chain of frames (one commit per mutation burst) replayed over
    /// the base snapshot reproduces the world after every burst; the
    /// chain keeps growing across recoveries.
    #[test]
    fn delta_chain_reproduces_any_history(
        bursts in proptest::collection::vec(
            proptest::collection::vec(op_strategy(), 1..12), 1..8),
    ) {
        let (mut store, mut live) = base_store("prop-incr-chain");
        for burst in &bursts {
            for op in burst {
                apply_op(store.world_mut(), &mut live, op);
            }
            store.commit().unwrap();
            let durable = store.world().clone();
            store = recover(store, &durable)?;
        }
    }

    /// An idle point after any warm-up writes no bytes, and recovery
    /// still lands on the last committed world.
    #[test]
    fn idle_deltas_are_tiny_and_inert(
        warmup in proptest::collection::vec(op_strategy(), 0..20),
    ) {
        let (mut store, mut live) = base_store("prop-incr-idle");
        for op in &warmup {
            apply_op(store.world_mut(), &mut live, op);
        }
        store.commit().unwrap();
        let bytes = store.backend().bytes_written;
        prop_assert_eq!(store.commit().unwrap(), 0);
        prop_assert_eq!(store.backend().bytes_written, bytes, "idle point wrote");
        let durable = store.world().clone();
        recover(store, &durable)?;
    }
}
