//! Criterion bench for experiment E4: navmesh path queries with and
//! without annotation-aware costs, plus semantic annotation queries.

use criterion::{criterion_group, criterion_main, Criterion};
use gamedb_spatial::{Annotation, CostProfile, NavMesh, Vec2};

/// A three-hall dungeon with a lava band and cover alcoves.
fn dungeon() -> NavMesh {
    let (w, h) = (48usize, 32usize);
    let wall = |x: usize, y: usize| -> bool {
        if x == 0 || y == 0 || x == w - 1 || y == h - 1 {
            return true;
        }
        if y == 10 && x % 12 != 6 {
            return true;
        }
        if y == 21 && x % 16 != 8 {
            return true;
        }
        false
    };
    NavMesh::from_tile_grid(
        w,
        h,
        1.0,
        |x, y| !wall(x, y),
        |x, y| {
            let mut a = Annotation::neutral();
            if (11..21).contains(&y) && (16..32).contains(&x) {
                a.danger = 0.9;
            }
            if y >= 28 && x % 7 == 3 {
                a.cover = 0.8;
            }
            a
        },
    )
}

fn bench_navmesh(c: &mut Criterion) {
    let mesh = dungeon();
    let from = Vec2::new(2.5, 2.5);
    let to = Vec2::new(45.5, 30.5);

    let mut group = c.benchmark_group("navmesh");
    group.sample_size(30);
    group.bench_function("path_shortest", |b| {
        b.iter(|| mesh.find_path(from, to, &CostProfile::shortest()).unwrap().cost)
    });
    group.bench_function("path_cautious", |b| {
        b.iter(|| mesh.find_path(from, to, &CostProfile::cautious()).unwrap().cost)
    });
    group.bench_function("locate", |b| {
        b.iter(|| mesh.locate(Vec2::new(24.0, 16.0)))
    });
    group.bench_function("best_hiding_spot", |b| {
        b.iter(|| mesh.best_hiding_spot(Vec2::new(24.0, 29.0), 15.0))
    });
    group.bench_function("build_48x32", |b| {
        b.iter(|| dungeon().len())
    });
    group.finish();
}

criterion_group!(benches, bench_navmesh);
criterion_main!(benches);
