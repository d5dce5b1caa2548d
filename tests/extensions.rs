//! Integration tests across the extension subsystems: expansion-pack
//! patching feeds a world, the query planner answers over it, a sharded
//! multi-node tick loop keeps the auditor clean, and incremental
//! checkpointing recovers the whole thing after a crash.

use gamedb::content::{apply_all, CmpOp, ContentBundle, ContentPatch, Value};
use gamedb::core::{plan, Query, TableStats, World};
use gamedb::persist::{Backend, CheckpointClock, CheckpointPolicy, WalStore};
use gamedb::spatial::Vec2;
use gamedb::sync::{
    arena_world, collapse_moves, AssignPolicy, Auditor, BubbleConfig, BubbleExecutor, Executor,
    ShardManager, Workload, WorkloadConfig,
};

const BASE_CONTENT: &str = r#"
<content>
  <templates>
    <template name="monster" tags="hostile">
      <component name="hp" type="float" default="100"/>
      <component name="dmg" type="float" default="5"/>
    </template>
    <template name="rat" extends="monster">
      <component name="hp" type="float" default="10"/>
    </template>
  </templates>
</content>"#;

const EXPANSION: &str = r#"
<patch name="shadow-isles" version="1">
  <templates>
    <template name="wraith" extends="monster" tags="undead">
      <component name="hp" type="float" default="320"/>
      <component name="dmg" type="float" default="18"/>
    </template>
    <template name="rat" extends="monster">
      <component name="hp" type="float" default="15"/>
    </template>
  </templates>
</patch>"#;

/// Patch a shipped bundle, spawn from the patched templates, and query
/// the result through the cost-based planner.
#[test]
fn expansion_pack_to_planned_queries() {
    let mut bundle = ContentBundle::from_gdml_str(BASE_CONTENT).unwrap();
    let patch = ContentPatch::from_gdml_str(EXPANSION).unwrap();
    let (reports, conflicts) = apply_all(&mut bundle, std::slice::from_ref(&patch)).unwrap();
    assert!(conflicts.is_empty());
    assert_eq!(reports[0].added, 1, "wraith");
    assert_eq!(reports[0].overridden, 1, "buffed rat");
    assert!(bundle.validate().is_empty());

    // spawn a mixed population from the patched templates
    let mut world = World::new();
    world.define_component("hp", gamedb::content::ValueType::Float).unwrap();
    world.define_component("dmg", gamedb::content::ValueType::Float).unwrap();
    for i in 0..60 {
        let name = if i % 3 == 0 { "wraith" } else { "rat" };
        let resolved = bundle.templates.resolve(name).unwrap();
        let e = world.spawn_at(Vec2::new((i % 10) as f32 * 5.0, (i / 10) as f32 * 5.0));
        for (comp, value) in resolved.instantiate() {
            world.set(e, &comp, value).unwrap();
        }
    }

    // the planner answers "dangerous things near the gate" and must agree
    // with the reference evaluation
    let stats = TableStats::build(&world);
    let q = Query::select()
        .within(Vec2::new(10.0, 10.0), 12.0)
        .filter("dmg", CmpOp::Ge, Value::Float(10.0));
    let p = plan(&q, &stats);
    let found = p.run(&world);
    assert_eq!(found, q.run(&world), "plan: {}", p.explain());
    assert!(!found.is_empty(), "some wraiths are near the gate");
    for e in found {
        assert_eq!(world.get_f32(e, "hp"), Some(320.0), "only buffed wraiths pass");
    }
}

/// A sharded MMO tick loop: bubbles execute the batch, the shard manager
/// places them over four nodes, and the auditor confirms no wealth is
/// created or destroyed anywhere in the pipeline.
#[test]
fn sharded_tick_loop_stays_audit_clean() {
    let cfg = WorkloadConfig {
        players: 256,
        hotspot_fraction: 0.4,
        seed: 77,
        ..Default::default()
    };
    let mut wl = Workload::new(cfg);
    let exec = BubbleExecutor::new(BubbleConfig {
        dt: 1.0,
        max_accel: 2.0,
        interaction_range: cfg.interaction_range,
    });
    let mut shards = ShardManager::new(
        4,
        AssignPolicy::DynamicBubbles {
            cfg: BubbleConfig { dt: 1.0, max_accel: 2.0, interaction_range: 10.0 },
            max_overload: 1.5,
        },
    );
    let mut auditor = Auditor::attach(&mut wl.world, 2.0);
    for _ in 0..15 {
        let batch = collapse_moves(wl.next_batch());
        shards.tick(&wl.world, &batch);
        exec.execute(&mut wl.world, &batch);
        let report = auditor.audit(&mut wl.world);
        assert!(report.clean(), "tick violated invariants: {report:?}");
    }
    auditor.release(&mut wl.world);
    let s = shards.stats();
    assert_eq!(s.ticks, 15);
    assert!(s.mean_imbalance >= 1.0);
}

/// Run a bubble-executed workload over an incrementally-checkpointed
/// store, crash, recover, and verify the world equals the last durable
/// state — snapshot plus the frames committed after it.
#[test]
fn incremental_checkpoint_recovers_mmo_world() {
    let (world, ids) = arena_world(128, |i| {
        Vec2::new((i % 16) as f32 * 8.0, (i / 16) as f32 * 8.0)
    });
    let backend = Backend::open(gamedb::persist::temp_dir("ext-incr")).unwrap();
    let mut store = WalStore::new(world, backend, 1).unwrap();
    let mut clock = CheckpointClock::new(CheckpointPolicy::Periodic { period: 2.0 });

    let exec = BubbleExecutor::default();
    let mut last_durable_rows = store.world().rows();
    // 11 points: full at 4 and 8 (each compacting the frames behind it),
    // so frames 9..11 survive for the recovery path to replay
    for tick in 0..11 {
        let batch = vec![
            gamedb::sync::Action::Attack { attacker: ids[tick], target: ids[tick + 1] },
            gamedb::sync::Action::Trade { from: ids[tick + 2], to: ids[tick + 3], amount: 7 },
        ];
        exec.execute(store.world_mut(), &batch);
        assert!(clock.observe(2.5, 0.1), "period 2.0 < dt 2.5: every tick is a point");
        if (tick + 1) % 4 == 0 {
            store.checkpoint().unwrap();
            store.compact_log().unwrap();
        } else {
            store.commit().unwrap();
        }
        last_durable_rows = store.world().rows();
    }
    // post-checkpoint mutation is lost by design
    store.world_mut().set_f32(ids[0], "hp", 0.5).unwrap();

    let report = clock.exposure();
    let (recovered, replayed) = store.crash_and_recover().unwrap();
    assert_eq!(recovered.world().rows(), last_durable_rows);
    // the crash happened right after a point: no game time lost, only
    // the unobserved post-checkpoint write
    assert_eq!(report.lost_game_seconds, 0.0);
    assert_ne!(recovered.world().get_f32(ids[0], "hp"), Some(0.5));
    // frames were actually used: full snapshots only every 4th point
    assert_eq!(replayed, 3, "frames 9..11 after the snapshot at 8");
    assert_eq!(recovered.backend().snapshot_seqs().unwrap(), vec![0, 1, 2]);
}

/// The optimizer pipeline end to end: a designer script with a foreach
/// loads through the optimizing engine, runs compiled, and produces the
/// same world as the unoptimized engine.
#[test]
fn optimizing_engine_matches_plain_engine() {
    use gamedb::script::{Level, ScriptEngine};

    let build = || {
        let mut w = World::new();
        w.define_component("hp", gamedb::content::ValueType::Float).unwrap();
        let ids: Vec<_> = (0..20)
            .map(|i| {
                let e = w.spawn_at(Vec2::new(i as f32 * 2.0, 0.0));
                w.set_f32(e, "hp", 50.0).unwrap();
                e
            })
            .collect();
        (w, ids)
    };
    const SRC: &str = "foreach within (5) { self.hp -= 0.5; } if 1 < 2 { self.hp += 1 * 2; }";

    let run = |optimize: bool| {
        let (mut w, ids) = build();
        let mut engine = if optimize {
            ScriptEngine::new(Level::Full).with_optimizer()
        } else {
            ScriptEngine::new(Level::Full)
        };
        engine.ensure_binding_component(&mut w);
        engine.load("drain", SRC, &w).unwrap();
        for &e in &ids {
            engine.bind(&mut w, e, "drain").unwrap();
        }
        for _ in 0..3 {
            engine.tick(&mut w).unwrap();
        }
        w.rows()
    };
    assert_eq!(run(false), run(true));
}
