//! An MMO shard in miniature: the paper's consistency and engineering
//! machinery working together.
//!
//! Each game tick:
//!   1. the workload generator produces a batch of player actions;
//!   2. the causality-bubble executor partitions the world by motion
//!      prediction and applies the batch without locks;
//!   3. the replicator ships weakly-consistent updates to a client;
//!   4. the checkpoint clock decides whether this tick's events are
//!      important enough to commit the write-behind store's pending
//!      changes into the durable backend.
//!
//! At a random point the server crashes, recovers from the backend, and
//! reports what the players lost.
//!
//! ```text
//! cargo run --release --example mmo_shard
//! ```

use gamedb::persist::{temp_dir, Backend, CheckpointClock, CheckpointPolicy, WalStore};
use gamedb::sync::{
    BubbleConfig, BubbleExecutor, ConsistencyLevel, Executor, Replica, Replicator, Workload,
    WorkloadConfig,
};

fn main() {
    let cfg = WorkloadConfig {
        players: 600,
        map_size: 800.0,
        hotspot_fraction: 0.35,
        hotspot_radius: 30.0,
        actions_per_player: 1.0,
        interaction_range: 10.0,
        seed: 2026,
        ..Default::default()
    };
    let mut wl = Workload::new(cfg);
    println!(
        "shard up: {} players, {:.0}x{:.0} map, {:.0}% in the hotspot",
        cfg.players,
        cfg.map_size,
        cfg.map_size,
        cfg.hotspot_fraction * 100.0
    );

    let executor = BubbleExecutor::new(BubbleConfig {
        dt: 1.0,
        max_accel: 2.0,
        interaction_range: cfg.interaction_range,
    });
    let mut replicator = Replicator::new(ConsistencyLevel::EventualSimilar {
        threshold: 5.0,
        state_period: 4,
    });
    let mut client = Replica::default();

    // Write-behind persistence: a store committed only at policy points
    // (periodic backstop + importance threshold); mutations in between
    // live in memory and die with a crash.
    let backend = Backend::open(temp_dir("mmo-shard")).expect("backend opens");
    let world = std::mem::replace(&mut wl.world, gamedb::core::World::new());
    let mut store = WalStore::new(world, backend, 1).expect("store initializes");
    let mut clock = CheckpointClock::new(CheckpointPolicy::Hybrid {
        period: 30.0,
        threshold: 40.0,
    });

    let crash_tick = 47;
    for tick in 1..=crash_tick {
        // generate against the live world
        std::mem::swap(&mut wl.world, store.world_mut());
        let batch = wl.next_batch();
        std::mem::swap(&mut wl.world, store.world_mut());

        let stats = executor.execute(store.world_mut(), &batch);

        // importance: deaths are important events, trades mildly so
        let deaths = batch.len().saturating_sub(store.world().len()); // rough proxy
        let importance = deaths as f64 * 10.0 + batch.len() as f64 * 0.01;
        let checkpointed = clock.observe(1.0, importance);
        if checkpointed {
            store.commit().expect("backend writes");
        }

        replicator.sync(store.world(), &mut client);

        if tick % 10 == 0 || checkpointed {
            let div = Replicator::divergence(store.world(), &client);
            println!(
                "tick {tick:>3}: {} actions, {} bubbles (crit path {}), \
                 client pos err {:.2}, {}",
                stats.executed,
                stats.rounds,
                stats.critical_path,
                div.mean_pos_error,
                if checkpointed {
                    "CHECKPOINT"
                } else {
                    "no checkpoint"
                }
            );
        }
    }

    println!("\n*** power failure at tick {crash_tick} ***");
    let report = clock.exposure();
    let (recovered, replayed) = store.crash_and_recover().expect("recovery");
    clock.rewind();
    println!(
        "recovered by replaying {replayed} committed frames — players lost {:.0} \
         game-seconds and {:.1} importance units of progress",
        report.lost_game_seconds, report.lost_importance
    );
    println!(
        "world after recovery: {} entities, {} commits written, {} bytes durable",
        recovered.world().len(),
        recovered.stats.records,
        recovered.backend().bytes_written
    );
    println!(
        "replication totals: {} rows shipped over {} ticks",
        replicator.rows_sent,
        replicator.ticks()
    );
}
