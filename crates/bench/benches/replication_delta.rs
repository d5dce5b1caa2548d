//! Replication bandwidth bench: delta-encoded stream segments
//! (`Replicator::sync_stream`) vs the full-walk row-shipping baseline
//! (`Replicator::sync`) — the bandwidth acceptance experiment of the
//! interned change pipeline.
//!
//! A 20k-entity arena with a finite interest bubble drifts for a fixed
//! number of ticks (1% of entities move or change state per tick, the
//! focus wanders every few ticks). Both replicators are held
//! replica-identical by construction (the equivalence is pinned by unit
//! test); here we measure what that identity *costs* on the wire:
//! rows shipped, bytes shipped (row framing vs id-keyed delta framing
//! with a one-time name table), and wall time per sync. Asserts the
//! delta path ships strictly fewer bytes — the bandwidth claim of the
//! interned change pipeline.

use criterion::{criterion_group, criterion_main, Criterion};
use gamedb_bench::combat_world;
use gamedb_content::Value;
use gamedb_core::World;
use gamedb_spatial::Vec2;
use gamedb_sync::{ConsistencyLevel, Interest, Replica, Replicator};

const N: usize = 20_000;
const TICKS: usize = 60;
const CHURN: usize = N / 100;

fn churn(world: &mut World, ids: &[gamedb_core::EntityId], tick: usize) {
    for k in 0..CHURN {
        let e = ids[(tick * 7919 + k * 104_729) % ids.len()];
        if !world.is_live(e) {
            continue;
        }
        if k % 3 == 0 {
            world
                .set(e, "hp", Value::Float(((tick + k) % 100) as f32))
                .unwrap();
        } else if let Some(p) = world.pos(e) {
            world
                .set_pos(e, Vec2::new(p.x + 0.8, p.y - 0.3))
                .unwrap();
        }
    }
}

fn bench_replication_delta(c: &mut Criterion) {
    let interest = Interest {
        center: (1_000.0, 1_000.0),
        radius: 400.0,
        margin: 40.0,
    };
    let run = |stream: bool| {
        let (mut world, ids) = combat_world(N, 2_000.0, 42);
        let mut rep = Replicator::with_interest(ConsistencyLevel::Strict, interest);
        if stream {
            rep.attach_stream(&mut world);
        }
        let mut client = Replica::default();
        let start = std::time::Instant::now();
        for t in 0..TICKS {
            churn(&mut world, &ids, t);
            if t % 5 == 4 {
                rep.interest.center = (1_000.0 + t as f32 * 2.0, 1_000.0);
            }
            if stream {
                rep.sync_stream(&mut world, &mut client);
            } else {
                rep.sync(&world, &mut client);
            }
        }
        let ms = start.elapsed().as_secs_f64() * 1e3;
        (rep.rows_sent, rep.bytes_sent, ms, client)
    };

    let (walk_rows, walk_bytes, walk_ms, r_walk) = run(false);
    let (delta_rows, delta_bytes, delta_ms, r_delta) = run(true);
    assert_eq!(r_walk.rows, r_delta.rows, "replicas must be identical");

    println!(
        "\nreplication over {TICKS} ticks, {N} entities, ~{CHURN} mutations/tick, \
         Strict, finite bubble:"
    );
    println!(
        "{:>14} {:>12} {:>14} {:>10}",
        "path", "rows", "bytes", "ms total"
    );
    println!(
        "{:>14} {:>12} {:>14} {:>10.1}",
        "row-ship walk", walk_rows, walk_bytes, walk_ms
    );
    println!(
        "{:>14} {:>12} {:>14} {:>10.1}",
        "delta segments", delta_rows, delta_bytes, delta_ms
    );
    println!(
        "delta segments ship {:.1}% of baseline bytes ({:.1}x reduction)",
        100.0 * delta_bytes as f64 / walk_bytes as f64,
        walk_bytes as f64 / delta_bytes as f64
    );
    assert!(
        delta_bytes < walk_bytes,
        "acceptance: delta segments must ship strictly fewer bytes \
         ({delta_bytes} vs {walk_bytes})"
    );
    assert!(delta_rows <= walk_rows);

    // a Criterion timing pair over one steady-state tick each
    let mut group = c.benchmark_group("replication_sync");
    group.sample_size(10);
    {
        let (mut world, ids) = combat_world(N, 2_000.0, 42);
        let mut rep = Replicator::with_interest(ConsistencyLevel::Strict, interest);
        let mut client = Replica::default();
        rep.sync(&world, &mut client);
        let mut t = 0usize;
        group.bench_function("full_walk", |b| {
            b.iter(|| {
                t += 1;
                churn(&mut world, &ids, t);
                rep.sync(&world, &mut client);
            })
        });
    }
    {
        let (mut world, ids) = combat_world(N, 2_000.0, 42);
        let mut rep = Replicator::with_interest(ConsistencyLevel::Strict, interest);
        rep.attach_stream(&mut world);
        let mut client = Replica::default();
        rep.sync_stream(&mut world, &mut client);
        let mut t = 0usize;
        group.bench_function("delta_segments", |b| {
            b.iter(|| {
                t += 1;
                churn(&mut world, &ids, t);
                rep.sync_stream(&mut world, &mut client);
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_replication_delta);
criterion_main!(benches);
