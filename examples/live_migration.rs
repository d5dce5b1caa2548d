//! Live-ops engineering: checkpointing through a patch day.
//!
//! A running world is checkpointed into the durable backend, the server
//! crashes and recovers, and then the expansion launches: the same schema
//! change is applied the structured way (rewrite every row) and the blob
//! way (instant, pay at query time) — the paper's legacy-schema trade-off
//! end to end.
//!
//! ```text
//! cargo run --release --example live_migration
//! ```

use gamedb::content::{Value, ValueType};
use gamedb::core::World;
use gamedb::persist::{
    temp_dir, Backend, BlobStore, CheckpointClock, CheckpointPolicy, Migration, SchemaVersion,
    StructuredStore, WalStore,
};
use gamedb::spatial::Vec2;
use std::time::Instant;

fn populated_world(n: usize) -> World {
    let mut w = World::new();
    w.define_component("hp", ValueType::Float).unwrap();
    w.define_component("gold", ValueType::Int).unwrap();
    w.define_component("name", ValueType::Str).unwrap();
    for i in 0..n {
        let e = w.spawn_at(Vec2::new((i % 100) as f32, (i / 100) as f32));
        w.set_f32(e, "hp", 50.0 + (i % 50) as f32).unwrap();
        w.set(e, "gold", Value::Int((i * 3) as i64)).unwrap();
        w.set(e, "name", Value::Str(format!("player-{i}"))).unwrap();
    }
    w
}

fn main() {
    let n = 5000;
    println!("== day 1: normal operation ==");
    let world = populated_world(n);
    let backend = Backend::open(temp_dir("live-migration")).unwrap();
    let mut store = WalStore::new(world, backend, 1).unwrap();
    let mut clock = CheckpointClock::new(CheckpointPolicy::EventDriven { threshold: 25.0 });

    // an hour of play with a boss kill at minute 40
    for minute in 1..=60 {
        let importance = if minute == 40 { 30.0 } else { 0.3 };
        if clock.observe(60.0, importance) {
            store.checkpoint().unwrap();
            println!("minute {minute}: checkpoint (importance threshold crossed)");
        }
    }

    println!("\n== the server node dies ==");
    let report = clock.exposure();
    let (recovered, _) = store.crash_and_recover().unwrap();
    println!(
        "recovered from {} checkpoint(s); lost {:.0} game-seconds, {:.1} importance",
        recovered.stats.checkpoints, report.lost_game_seconds, report.lost_importance
    );
    assert_eq!(recovered.world().len(), n);

    println!("\n== patch day: the expansion adds 'mana' and renames 'gold' ==");
    let migrations = [
        Migration::AddColumn {
            name: "mana".into(),
            ty: ValueType::Float,
            default: Value::Float(100.0),
        },
        Migration::RenameColumn {
            from: "gold".into(),
            to: "coins".into(),
        },
    ];

    // Path A: structured migration on the recovered world.
    let mut structured = StructuredStore::new(recovered.world().clone());
    let t = Instant::now();
    for m in &migrations {
        let stats = structured.migrate(m).unwrap();
        println!(
            "structured: {m:?} rewrote {} rows in {:.2} ms",
            stats.rows_rewritten,
            stats.micros as f64 / 1000.0
        );
    }
    let structured_total = t.elapsed();

    // Path B: the blob store that Everquest-style legacy games keep.
    let mut blob = BlobStore::new(SchemaVersion {
        fields: vec![
            ("hp".into(), ValueType::Float, Value::Float(100.0)),
            ("gold".into(), ValueType::Int, Value::Int(0)),
            ("name".into(), ValueType::Str, Value::Str(String::new())),
        ],
    });
    for i in 0..n as u64 {
        blob.put(
            i,
            &[
                ("hp".into(), Value::Float(50.0 + (i % 50) as f32)),
                ("gold".into(), Value::Int((i * 3) as i64)),
                ("name".into(), Value::Str(format!("player-{i}"))),
            ],
        )
        .unwrap();
    }
    let t = Instant::now();
    for m in &migrations {
        let stats = blob.migrate(m.clone()).unwrap();
        println!(
            "blob:       {m:?} rewrote {} rows in {:.3} ms",
            stats.rows_rewritten,
            stats.micros as f64 / 1000.0
        );
    }
    let blob_total = t.elapsed();
    println!(
        "migration wall time — structured: {:.1} ms, blob: {:.3} ms",
        structured_total.as_secs_f64() * 1e3,
        blob_total.as_secs_f64() * 1e3
    );

    println!("\n== but the first post-patch query tells the other half ==");
    let t = Instant::now();
    let s_sum = structured.sum_column("coins");
    let s_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let b_sum = blob.sum_column("coins").unwrap();
    let b_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(s_sum, b_sum, "both stores hold the same logical data");
    println!("sum(coins) — structured: {s_ms:.2} ms, blob (stale rows): {b_ms:.2} ms");
    println!(
        "blob stale fraction: {:.0}% — every read pays the upgrade tax \
         until a compaction window",
        blob.stale_fraction() * 100.0
    );
    let stats = blob.compact().unwrap();
    println!(
        "compaction rewrote {} rows in {:.1} ms; queries are cheap again",
        stats.rows_rewritten,
        stats.micros as f64 / 1000.0
    );
}
