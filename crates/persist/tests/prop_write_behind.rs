//! Property test for write-behind durability: a sync `WalStore` whose
//! caller commits only at the points a `CheckpointClock` picks. Under
//! any history of row and catalog mutations, with each policy point an
//! incremental commit, a full checkpoint, or a checkpoint plus log
//! compaction, a crash at any step recovers exactly the world as it
//! stood at the last policy point, and the clock's exposure is exactly
//! the game time and importance observed since that point.

use gamedb_content::{CmpOp, Value, ValueType};
use gamedb_core::{EntityId, IndexKind, Query, World};
use gamedb_persist::{temp_dir, Backend, CheckpointClock, CheckpointPolicy, WalStore};
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
    CreateIndex(bool),
    DropIndex,
    RegisterView(f32),
    DropView,
    Tick,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..32usize, 0.0f32..200.0).prop_map(|(i, v)| Op::SetHp(i, v)),
        (0..32usize, -50i64..500).prop_map(|(i, v)| Op::SetGold(i, v)),
        (0..32usize, -40.0f32..40.0, -40.0f32..40.0).prop_map(|(i, x, y)| Op::Move(i, x, y)),
        (0..32usize).prop_map(Op::Despawn),
        (-40.0f32..40.0, -40.0f32..40.0).prop_map(|(x, y)| Op::Spawn(x, y)),
        (0..32usize).prop_map(Op::ClearGold),
        any::<bool>().prop_map(Op::CreateIndex),
        Just(Op::DropIndex),
        (0.0f32..200.0).prop_map(Op::RegisterView),
        Just(Op::DropView),
        Just(Op::Tick),
    ]
}

/// How a policy point writes.
#[derive(Debug, Clone, Copy)]
enum Point {
    Commit,
    Checkpoint,
    CheckpointAndCompact,
}

/// One step of play: a mutation burst, then `dt` game seconds and an
/// event of `importance`; `point` is what the step writes if the clock
/// fires.
#[derive(Debug, Clone)]
struct Step {
    ops: Vec<Op>,
    dt: f64,
    importance: f64,
    point: Point,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    (
        proptest::collection::vec(op_strategy(), 0..6),
        0.5f64..3.0,
        0.0f64..10.0,
        prop_oneof![
            Just(Point::Commit),
            Just(Point::Checkpoint),
            Just(Point::CheckpointAndCompact),
        ],
    )
        .prop_map(|(ops, dt, importance, point)| Step {
            ops,
            dt,
            importance,
            point,
        })
}

fn policy_strategy() -> impl Strategy<Value = CheckpointPolicy> {
    prop_oneof![
        (1.0f64..6.0).prop_map(|period| CheckpointPolicy::Periodic { period }),
        (5.0f64..30.0).prop_map(|threshold| CheckpointPolicy::EventDriven { threshold }),
        (2.0f64..10.0, 5.0f64..30.0)
            .prop_map(|(period, threshold)| CheckpointPolicy::Hybrid { period, threshold }),
    ]
}

fn base_world() -> World {
    let mut w = World::new();
    w.define_component("hp", ValueType::Float).unwrap();
    w.define_component("gold", ValueType::Int).unwrap();
    for i in 0..16 {
        let e = w.spawn_at(Vec2::new(i as f32 * 3.0, 0.0));
        w.set_f32(e, "hp", 100.0).unwrap();
        w.set(e, "gold", Value::Int(10)).unwrap();
    }
    w
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
        Op::CreateIndex(sorted) => {
            if world.indexed_components().next().is_none() {
                let kind = if sorted { IndexKind::Sorted } else { IndexKind::Hash };
                world.create_index("gold", kind).unwrap();
            }
        }
        Op::DropIndex => {
            world.drop_index("gold");
        }
        Op::RegisterView(below) => {
            world.register_view(Query::select().filter("hp", CmpOp::Lt, Value::Float(below)));
        }
        Op::DropView => {
            if let Some(&v) = world.view_ids().first() {
                world.drop_view(v);
            }
        }
        Op::Tick => {
            let next = world.tick() + 1;
            world.advance_tick_to(next);
        }
    }
}

/// The test's own loss accounting, kept apart from the clock's: game
/// time now and at the last point the test wrote, and the importance
/// observed since then.
#[derive(Debug, Default)]
struct Ledger {
    now: f64,
    point_at: f64,
    importance: f64,
}

/// Crash the store and hold the recovery to the world cloned at the last
/// policy point, and the clock's exposure to the ledger.
fn crash(
    store: WalStore,
    clock: &mut CheckpointClock,
    ledger: &mut Ledger,
    durable: &World,
) -> Result<WalStore, TestCaseError> {
    let lost = clock.exposure();
    prop_assert!(
        (lost.lost_game_seconds - (ledger.now - ledger.point_at)).abs() < 1e-9,
        "exposure {lost:?} vs ledger {ledger:?}"
    );
    prop_assert!((lost.lost_importance - ledger.importance).abs() < 1e-9);
    let (recovered, _) = store.crash_and_recover().unwrap();
    clock.rewind();
    ledger.now = ledger.point_at;
    ledger.importance = 0.0;
    prop_assert!((clock.now() - ledger.point_at).abs() < 1e-9);
    let w = recovered.world();
    prop_assert_eq!(w.rows(), durable.rows());
    prop_assert_eq!(
        w.entities().collect::<Vec<_>>(),
        durable.entities().collect::<Vec<_>>()
    );
    prop_assert_eq!(w.export_catalog(), durable.export_catalog());
    prop_assert_eq!(w.tick(), durable.tick());
    Ok(recovered)
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// The write-behind contract end to end; an idle incremental point
    /// also writes nothing.
    #[test]
    fn write_behind_recovers_the_last_policy_point(
        policy in policy_strategy(),
        steps in proptest::collection::vec(step_strategy(), 1..24),
        crash_at in 0usize..24,
    ) {
        let backend = Backend::open(temp_dir("prop-write-behind")).unwrap();
        let mut store = WalStore::new(base_world(), backend, 1).unwrap();
        let mut clock = CheckpointClock::new(policy);
        let mut ledger = Ledger::default();
        let mut durable = store.world().clone();
        let mut live: Vec<EntityId> = durable.entities().collect();
        for (k, step) in steps.iter().enumerate() {
            if k == crash_at {
                store = crash(store, &mut clock, &mut ledger, &durable)?;
                live = durable.entities().collect();
            }
            for op in &step.ops {
                apply_op(store.world_mut(), &mut live, op);
            }
            ledger.now += step.dt;
            ledger.importance += step.importance;
            if !clock.observe(step.dt, step.importance) {
                continue;
            }
            let idle = store.uncommitted() == 0;
            let bytes = store.backend().bytes_written;
            match step.point {
                Point::Commit => {
                    store.commit().unwrap();
                    if idle {
                        prop_assert_eq!(store.backend().bytes_written, bytes, "idle point wrote");
                    }
                }
                Point::Checkpoint => store.checkpoint().unwrap(),
                Point::CheckpointAndCompact => {
                    store.checkpoint().unwrap();
                    store.compact_log().unwrap();
                }
            }
            durable = store.world().clone();
            ledger.point_at = ledger.now;
            ledger.importance = 0.0;
        }
        crash(store, &mut clock, &mut ledger, &durable)?;
    }
}
