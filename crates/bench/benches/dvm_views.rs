//! View maintenance bench: the ISSUE-2 and ISSUE-10 acceptance
//! experiments, on the one view engine.
//!
//! Standing views over a 100k-entity world with 1% churn per tick, in
//! two cases — a rows view (`hp < 10`, ~1% of rows), and an equi-join
//! (`hp < 10` rows against their teammates) together with a per-team
//! `Sum(hp)` group aggregate — each answered two ways: (a) from scratch
//! every tick (`Query::run_scan` for the rows view, a forced
//! `ViewPlan::evaluate` for the operator trees), and (b) by incremental
//! maintenance from the delta stream (`refresh_views`). Both sides pay
//! the same churn writes inside the measured iteration — the delta path
//! additionally pays delta recording, so the comparison charges the
//! subsystem its full overhead. Incremental maintenance must beat the
//! from-scratch answer by ≥10× in each case; the measured speedups print
//! on every run.

use std::cell::{Cell, RefCell};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gamedb_bench::combat_world;
use gamedb_content::{CmpOp, Value};
use gamedb_core::{AggFn, EntityId, JoinOn, PlanNode, Query, ViewPlan, World};

const N: usize = 100_000;
/// 1% of the world is written per tick.
const CHURN: usize = N / 100;
/// hp cycles through 0..1000, so `hp < 10` keeps ~1% of rows.
const HP_SPREAD: usize = 1_000;
/// 10 entities per team keeps the join output ~10 pairs per left row.
const TEAMS: usize = 10_000;

/// One tick of churn: rotate the hp of a striding 1% slice. Entities
/// enter and leave `hp < 10` (the rows view, the join's left side) as
/// their hp wraps past the threshold, and every write shifts its team's
/// aggregate sum.
fn churn(world: &mut World, ids: &[EntityId], step: usize) {
    for k in 0..CHURN {
        let e = ids[(step * CHURN + k) % N];
        let hp = world.get_f32(e, "hp").expect("combat world sets hp");
        world
            .set_f32(e, "hp", (hp + 1.0) % HP_SPREAD as f32)
            .expect("hp is float");
    }
}

fn low_hp() -> Query {
    Query::select().filter("hp", CmpOp::Lt, Value::Float(10.0))
}

fn join_plan() -> ViewPlan {
    ViewPlan::join(
        PlanNode::scan(low_hp()),
        PlanNode::scan(Query::select()),
        JoinOn::Eq {
            left: "team".into(),
            right: "team".into(),
        },
    )
}

fn group_plan() -> ViewPlan {
    Query::select()
        .into_grouped_plan("team", AggFn::Sum("hp".into()))
        .expect("sum over a named column is a valid aggregate")
}

/// Size of a plan's forced recompute (what the from-scratch side pays).
fn recompute_len(plan: &ViewPlan, w: &World) -> usize {
    let out = plan.evaluate(w).expect("valid plan");
    out.as_pairs()
        .map(<[_]>::len)
        .or(out.as_groups().map(<[_]>::len))
        .expect("join or group plan")
}

fn bench_dvm_views(c: &mut Criterion) {
    let (mut world, ids) = combat_world(N, 2_000.0, 42);
    for (i, &e) in ids.iter().enumerate() {
        // whole-number hp keeps the incrementally maintained f64 sums
        // exact, so the final equality check is bit-identical
        world.set_f32(e, "hp", (i % HP_SPREAD) as f32).unwrap();
        world
            .set(e, "team", Value::Str(format!("t{}", i % TEAMS)))
            .unwrap();
    }
    let (jp, gp) = (join_plan(), group_plan());
    assert_eq!(low_hp().run_scan(&world).len(), N / HP_SPREAD * 10);
    let seed_pairs = recompute_len(&jp, &world);
    assert!(
        seed_pairs > 0 && seed_pairs < N,
        "join output should be selective (~10 teammates per hp<10 row), \
         got {seed_pairs} pairs"
    );
    assert_eq!(recompute_len(&gp, &world), TEAMS, "one group row per team");

    let world = RefCell::new(world);
    let step = Cell::new(0usize);
    // One case: (a) with no views registered — churn writes record
    // nothing — answer from scratch every tick; (b) register the case's
    // plans and fold the delta stream instead. Returns the speedup.
    let mut run_case = |case: &str, plans: &[ViewPlan], scratch: &dyn Fn(&World) -> usize| {
        let tick = |world: &mut World| {
            step.set(step.get() + 1);
            churn(world, &ids, step.get());
        };
        let mut group = c.benchmark_group("dvm_views");
        group.sample_size(15);
        group.bench_with_input(BenchmarkId::new(format!("{case}_per_tick_recompute"), N), &(), |b, _| {
            b.iter(|| {
                let mut w = world.borrow_mut();
                tick(&mut w);
                scratch(&w)
            })
        });
        let views: Vec<_> = plans
            .iter()
            .map(|p| world.borrow_mut().register_view_plan(p.clone()).unwrap())
            .collect();
        group.bench_with_input(BenchmarkId::new(format!("{case}_incremental_refresh"), N), &(), |b, _| {
            b.iter(|| {
                let mut w = world.borrow_mut();
                tick(&mut w);
                w.refresh_views();
                views.iter().map(|&v| w.view_stats(v).refreshes).sum::<u64>()
            })
        });
        group.finish();

        // the maintained outputs are exactly the forced recompute, and
        // no fold ever re-evaluated
        let mut w = world.borrow_mut();
        w.refresh_views();
        for (&v, plan) in views.iter().zip(plans) {
            assert_eq!(w.view_output(v), plan.evaluate(&w).unwrap());
            let stats = w.view_stats(v);
            assert_eq!(stats.rescans, 0, "views are delta-only ({stats:?})");
            println!(
                "view {v:?}: {} refreshes, {} deltas folded",
                stats.refreshes, stats.deltas_seen
            );
            w.drop_view(v);
        }
    };
    run_case("rows", &[low_hp().into_plan()], &|w| low_hp().run_scan(w).len());
    run_case("join_group", &[jp.clone(), gp.clone()], &|w| {
        recompute_len(&jp, w) + recompute_len(&gp, w)
    });

    let ns = |name: &str| {
        c.results
            .iter()
            .find(|(k, _)| k.contains(name))
            .map(|(_, v)| *v)
            .expect("bench ran")
    };
    for (case, what) in [
        ("rows", "per-tick run_scan, rows view"),
        ("join_group", "per-tick operator-tree recompute, join + group-by"),
    ] {
        let speedup = ns(&format!("{case}_per_tick_recompute"))
            / ns(&format!("{case}_incremental_refresh"));
        println!(
            "dvm views speedup, {case}: {speedup:.1}x ({what} vs incremental \
             maintenance, {N} entities, {CHURN} writes/tick)"
        );
        assert!(
            speedup >= 10.0,
            "acceptance: incremental maintenance must be >=10x over the \
             from-scratch answer at 1% churn, got {speedup:.1}x for {case}"
        );
    }
}

criterion_group!(benches, bench_dvm_views);
criterion_main!(benches);
