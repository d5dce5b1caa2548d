//! Metrics are observational only: attaching a [`MetricsRegistry`] to
//! every subsystem must not change a single observable bit of engine
//! behavior. Two identical seeded runs — one bare, one fully
//! instrumented — must produce byte-identical world snapshots, equal
//! replica contents, and equal durability watermarks. The instrumented
//! handles are relaxed atomic bumps behind an `Option` check on hot
//! paths; this test is the regression net that keeps them that way.

use gamedb::content::{CmpOp, Value};
use gamedb::core::{IndexKind, Query};
use gamedb::metrics::MetricsRegistry;
use gamedb::persist::{snapshot, temp_dir, Backend, FlushPolicy, WalStore};
use gamedb::script::{Level, ScriptEngine};
use gamedb::spatial::Vec2;
use gamedb::sync::{
    arena_world, Action, AssignPolicy, BubbleConfig, ConsistencyLevel, Executor, Interest,
    Replica, Replicator, SerialExecutor, ShardManager,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

const SEED: u64 = 0xBEEF_CAFE;
const PLAYERS: usize = 120;
const MAP: f32 = 400.0;
const TICKS: usize = 60;

/// One full seeded run through every instrumented subsystem. When
/// `registry` is `Some`, every attach point is exercised; the run's
/// observable outputs must not depend on it.
fn run(label: &str, registry: Option<&MetricsRegistry>) -> (Vec<u8>, Replica, u64, usize) {
    let (mut world, players) = arena_world(PLAYERS, |i| {
        let x = (i as f32 * 0.754_877_7).fract() * MAP;
        let y = (i as f32 * 0.569_840_3).fract() * MAP;
        Vec2::new(x, y)
    });
    world.create_index("gold", IndexKind::Sorted).unwrap();

    let mut engine = ScriptEngine::new(Level::Restricted).with_optimizer();
    engine.ensure_binding_component(&mut world);
    engine
        .load("regen", "if self.hp < 95.0 { self.hp += 1.0; }", &world)
        .unwrap();
    for &p in players.iter().step_by(6) {
        engine.bind(&mut world, p, "regen").unwrap();
    }

    let backend = Backend::open(temp_dir(label)).unwrap();
    let mut store =
        WalStore::new_async(world, backend, FlushPolicy::flush_every(64, 2), 16).unwrap();
    let mut shards = ShardManager::new(
        3,
        AssignPolicy::DynamicBubbles { cfg: BubbleConfig::default(), max_overload: 1.4 },
    );
    let mut rep = Replicator::with_interest(
        ConsistencyLevel::CoarseEpoch { pos_period: 2 },
        Interest { center: (MAP / 2.0, MAP / 2.0), radius: 120.0, margin: 15.0 },
    );
    rep.attach_stream(store.world_mut());
    let mut replica = Replica::default();

    if let Some(r) = registry {
        store.attach_metrics(r);
        store.world_mut().attach_metrics(r);
        engine.attach_metrics(r);
        shards.attach_metrics(r);
        rep.attach_metrics(r);
    }

    let mut rng = StdRng::seed_from_u64(SEED);
    let exec = SerialExecutor;
    let mut audited = 0usize;
    for t in 0..TICKS {
        let mut actions = Vec::with_capacity(PLAYERS / 3);
        for _ in 0..PLAYERS / 3 {
            let a = players[rng.gen_range(0..players.len())];
            let b = players[rng.gen_range(0..players.len())];
            actions.push(match rng.gen_range(0..4u32) {
                0 => Action::Move {
                    who: a,
                    to: Vec2::new(rng.gen_range(0.0..MAP), rng.gen_range(0.0..MAP)),
                    speed: rng.gen_range(1.0..6.0f32),
                },
                1 => Action::Attack { attacker: a, target: b },
                2 => Action::Heal { healer: a, target: b },
                _ => Action::Trade { from: a, to: b, amount: rng.gen_range(1..15i64) },
            });
        }
        shards.tick(store.world(), &actions);
        exec.execute(store.world_mut(), &actions);
        engine.tick(store.world_mut()).unwrap();
        if t % 4 == 0 {
            audited += Query::select()
                .filter("gold", CmpOp::Ge, Value::Int(110))
                .count(store.world());
        }
        // drifting interest bubble: exercises the retarget path too
        rep.interest.center = (
            MAP / 2.0 + 40.0 * (t as f32 * 0.1).cos(),
            MAP / 2.0 + 40.0 * (t as f32 * 0.1).sin(),
        );
        store.commit().unwrap();
        rep.sync_stream(store.world_mut(), &mut replica);
    }
    store.wait_durable(store.last_enqueued()).unwrap();
    let mut bytes = snapshot::encode(store.world()).to_vec();
    // The frame header embeds the world's *lineage* id (bytes 12..20),
    // drawn from a process-global counter at `World::new` — it differs
    // between any two worlds built in one process, metrics or not.
    // Mask it and re-seal the checksum (it covers the header);
    // everything else (schema, rows, catalog) must still match bit for
    // bit.
    bytes[12..20].fill(0);
    let end = bytes.len() - 4;
    let sum = gamedb_persist::checksum(&bytes[..end]);
    bytes[end..].copy_from_slice(&sum.to_le_bytes());
    (bytes, replica, store.last_enqueued().0, audited)
}

#[test]
fn metrics_attachment_changes_no_observable_behavior() {
    let (bare_bytes, bare_replica, bare_seq, bare_audit) = run("transparency_bare", None);

    let registry = MetricsRegistry::new();
    let (inst_bytes, inst_replica, inst_seq, inst_audit) =
        run("transparency_instrumented", Some(&registry));

    if bare_bytes != inst_bytes {
        let i = bare_bytes
            .iter()
            .zip(&inst_bytes)
            .position(|(a, b)| a != b)
            .unwrap_or(bare_bytes.len().min(inst_bytes.len()));
        eprintln!(
            "first diff at byte {i} of {}/{}: bare={:?} inst={:?}",
            bare_bytes.len(),
            inst_bytes.len(),
            &bare_bytes[i.saturating_sub(8)..(i + 24).min(bare_bytes.len())],
            &inst_bytes[i.saturating_sub(8)..(i + 24).min(inst_bytes.len())],
        );
    }
    assert_eq!(bare_bytes, inst_bytes, "world snapshots must be byte-identical");
    assert_eq!(bare_replica.rows, inst_replica.rows, "replicas must match");
    assert_eq!(bare_seq, inst_seq, "commit sequences must match");
    assert_eq!(bare_audit, inst_audit, "query results must match");

    // and the instrumented run must actually have measured something —
    // a silent no-op attachment would make this test vacuous
    let snap = registry.snapshot();
    for name in [
        "change.records",
        "wal.commits",
        "script.ticks",
        "shard.ticks",
        "repl.segments",
        "planner.plans",
    ] {
        assert!(snap.counter(name) > 0, "{name} not reported");
    }

    // a second bare run replays bit-identically too (the workload
    // itself is deterministic, so the comparison above is meaningful)
    let (again, ..) = run("transparency_bare_2", None);
    assert_eq!(bare_bytes, again, "workload must be deterministic");
}
