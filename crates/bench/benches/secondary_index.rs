//! Secondary-index bench: the ISSUE-1 acceptance experiment.
//!
//! At 100k entities, an equality predicate selecting <1% of rows runs
//! through (a) the forced full scan the seed engine was limited to
//! (`Query::run_scan`), (b) the hash-indexed path, (c) a sorted-index
//! range probe, and (d) a two-sided range whose bounds both reach one
//! probe — plus the planner's own choice. The indexed paths must
//! beat the scan by ≥10×; the bench prints the measured speedups so the
//! claim is checked on every run, not asserted once and forgotten. A
//! fifth case, `scan_kernel`, holds the planned full scan of a column
//! no index covers — the block filter kernels — to ≥3× over the
//! by-name `run_scan` of the same query.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gamedb_bench::combat_world;
use gamedb_content::{CmpOp, Value, ValueType};
use gamedb_core::{plan, IndexKind, Query, TableStats};

const N: usize = 100_000;
const CLASSES: usize = 200; // 0.5% of rows per class

fn bench_secondary_index(c: &mut Criterion) {
    let (mut world, ids) = combat_world(N, 2_000.0, 42);
    world.define_component("class", ValueType::Str).unwrap();
    for (i, &e) in ids.iter().enumerate() {
        world
            .set(e, "class", Value::Str(format!("class-{:03}", i % CLASSES)))
            .unwrap();
        // hp becomes a spread the sorted index can range over
        world.set_f32(e, "hp", (i % 1000) as f32).unwrap();
    }

    let eq_query = Query::select().filter("class", CmpOp::Eq, Value::Str("class-007".into()));
    let range_query = Query::select().filter("hp", CmpOp::Lt, Value::Float(5.0));
    // two-sided: both bounds must reach the sorted index, or the probe
    // hands half the table to a residual filter
    let two_sided_query = Query::select()
        .filter("hp", CmpOp::Ge, Value::Float(500.0))
        .filter("hp", CmpOp::Lt, Value::Float(505.0));
    // `dmg` stays unindexed: its query is a full scan either way
    let kernel_query = Query::select().filter("dmg", CmpOp::Gt, Value::Float(4.0));
    let expected_eq = N / CLASSES;
    assert_eq!(eq_query.run_scan(&world).len(), expected_eq);
    assert_eq!(range_query.run_scan(&world).len(), N / 1000 * 5);
    assert_eq!(two_sided_query.run_scan(&world).len(), N / 1000 * 5);

    {
        let mut group = c.benchmark_group("secondary_index");
        group.sample_size(15);
        group.bench_with_input(BenchmarkId::new("eq_scan", N), &eq_query, |b, q| {
            b.iter(|| q.run_scan(&world).len())
        });
        group.bench_with_input(BenchmarkId::new("range_scan", N), &range_query, |b, q| {
            b.iter(|| q.run_scan(&world).len())
        });
        group.bench_with_input(
            BenchmarkId::new("two_sided_scan", N),
            &two_sided_query,
            |b, q| b.iter(|| q.run_scan(&world).len()),
        );
        group.finish();
    }

    world.create_index("class", IndexKind::Hash).unwrap();
    world.create_index("hp", IndexKind::Sorted).unwrap();
    // sanity: identical result sets through the indexed paths
    assert_eq!(eq_query.run(&world), eq_query.run_scan(&world));
    assert_eq!(range_query.run(&world), range_query.run_scan(&world));
    assert_eq!(
        two_sided_query.run(&world),
        two_sided_query.run_scan(&world)
    );
    assert_eq!(kernel_query.run(&world), kernel_query.run_scan(&world));
    let stats = TableStats::from_catalog(&world);
    println!("planned eq:    {}", plan(&eq_query, &stats).explain());
    println!("planned range: {}", plan(&range_query, &stats).explain());
    let two_sided_plan = plan(&two_sided_query, &stats);
    println!(
        "planned two-sided: {}",
        two_sided_plan.explain_analyze(&world)
    );
    assert!(
        two_sided_plan.second_bound.is_some(),
        "both bounds reach the probe: {}",
        two_sided_plan.explain()
    );

    {
        let mut group = c.benchmark_group("secondary_index");
        group.sample_size(15);
        group.bench_with_input(BenchmarkId::new("eq_hash_index", N), &eq_query, |b, q| {
            b.iter(|| q.run(&world).len())
        });
        group.bench_with_input(
            BenchmarkId::new("range_sorted_index", N),
            &range_query,
            |b, q| b.iter(|| q.run(&world).len()),
        );
        group.bench_with_input(
            BenchmarkId::new("two_sided_sorted_index", N),
            &two_sided_query,
            |b, q| b.iter(|| q.run(&world).len()),
        );
        group.bench_with_input(BenchmarkId::new("scan_kernel_by_name", N), &kernel_query, |b, q| {
            b.iter(|| q.run_scan(&world).len())
        });
        group.bench_with_input(BenchmarkId::new("scan_kernel", N), &kernel_query, |b, q| {
            b.iter(|| q.run(&world).len())
        });
        group.finish();
    }

    let ns = |name: &str| {
        c.results
            .iter()
            .find(|(k, _)| k.contains(name))
            .map(|(_, v)| *v)
            .expect("bench ran")
    };
    let eq_speedup = ns("eq_scan") / ns("eq_hash_index");
    let range_speedup = ns("range_scan") / ns("range_sorted_index");
    let two_sided_speedup = ns("two_sided_scan") / ns("two_sided_sorted_index");
    println!("eq    speedup: {eq_speedup:.1}x (scan vs hash index, {expected_eq} of {N} rows)");
    println!("range speedup: {range_speedup:.1}x (scan vs sorted index)");
    let kernel_speedup = ns("scan_kernel_by_name") / ns("scan_kernel/");
    println!("two-sided speedup: {two_sided_speedup:.1}x (scan vs one probe with both bounds)");
    println!("scan kernel speedup: {kernel_speedup:.1}x (run_scan vs the planned scan, no index)");
    assert!(
        eq_speedup >= 10.0,
        "acceptance: equality index must be >=10x over the scan, got {eq_speedup:.1}x"
    );
    assert!(
        range_speedup >= 10.0,
        "acceptance: range index must be >=10x over the scan, got {range_speedup:.1}x"
    );
    assert!(
        two_sided_speedup >= 10.0,
        "acceptance: a two-sided range must be >=10x over the scan, got {two_sided_speedup:.1}x"
    );
    assert!(
        kernel_speedup >= 3.0,
        "acceptance: the block-filtered scan must be >=3x over run_scan, got {kernel_speedup:.1}x"
    );
}

criterion_group!(benches, bench_secondary_index);
criterion_main!(benches);
