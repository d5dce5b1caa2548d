//! Criterion bench for experiment E12: per-tick shard placement cost of
//! each policy on a 2048-player world. Placement must be cheap relative
//! to the tick itself or dynamic partitioning eats its own benefit.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gamedb_sync::{AssignPolicy, BubbleConfig, ShardManager, Workload, WorkloadConfig};

fn bench_shard(c: &mut Criterion) {
    let mut group = c.benchmark_group("shard_placement");
    group.sample_size(10);
    let cfg = WorkloadConfig {
        players: 2048,
        hotspot_fraction: 0.3,
        ..Default::default()
    };
    let policies: Vec<(&str, AssignPolicy)> = vec![
        (
            "static_zones",
            AssignPolicy::StaticZones { cols: 4, rows: 4, map_size: cfg.map_size },
        ),
        ("hash", AssignPolicy::HashEntities),
        (
            "dynamic_bubbles",
            AssignPolicy::DynamicBubbles {
                cfg: BubbleConfig { dt: 1.0, max_accel: 2.0, interaction_range: 10.0 },
                max_overload: 1.25,
            },
        ),
    ];
    for (name, policy) in policies {
        group.bench_with_input(BenchmarkId::new(name, cfg.players), &cfg, |b, cfg| {
            let wl = Workload::new(*cfg);
            let mgr = ShardManager::new(8, policy);
            b.iter(|| mgr.assign(&wl.world).len())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_shard);
criterion_main!(benches);
