//! Property tests for the core engine:
//! * parallel ticks are bit-identical to sequential ticks (the state–effect
//!   determinism guarantee);
//! * the index join equals the naive nested-loop join;
//! * queries agree with a straightforward reference evaluation;
//! * secondary indexes are pure optimizations: any query over an indexed
//!   world returns exactly the forced-full-scan result, under arbitrary
//!   interleavings of writes, component removals, despawns, and ticks.

use gamedb_content::{CmpOp, Value, ValueType};
use gamedb_core::{
    AggFn, AggResult, Effect, EffectBuffer, EntityId, IndexKind, Query, SpawnRequest,
    TickExecutor, World,
};
use gamedb_spatial::Vec2;
use proptest::prelude::*;

fn build_world(positions: &[(f32, f32)], hps: &[f32]) -> World {
    let mut w = World::new();
    w.define_component("hp", ValueType::Float).unwrap();
    w.define_component("dmg", ValueType::Float).unwrap();
    for (i, &(x, y)) in positions.iter().enumerate() {
        let e = w.spawn_at(Vec2::new(x, y));
        w.set_f32(e, "hp", hps[i % hps.len()]).unwrap();
        w.set_f32(e, "dmg", 1.0 + (i % 4) as f32).unwrap();
    }
    w
}

fn combat(id: EntityId, world: &World, buf: &mut EffectBuffer) {
    let Some(p) = world.pos(id) else { return };
    let dmg = world.get_f32(id, "dmg").unwrap_or(0.0) as f64;
    let mut near = Vec::new();
    world.within(p, 8.0, &mut near);
    for other in near {
        if other != id {
            buf.push(other, "hp", Effect::Add(-dmg));
            buf.push(other, "hp", Effect::Max(0.0));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_tick_deterministic(
        positions in proptest::collection::vec((-50.0f32..50.0, -50.0f32..50.0), 1..120),
        hps in proptest::collection::vec(1.0f32..200.0, 1..8),
        threads in 2usize..6,
        ticks in 1usize..4,
    ) {
        let mut w_seq = build_world(&positions, &hps);
        let mut w_par = build_world(&positions, &hps);
        let seq = TickExecutor::sequential();
        let par = TickExecutor::parallel(threads).with_min_chunk(4);
        for _ in 0..ticks {
            seq.run_tick(&mut w_seq, &[&combat]).unwrap();
            par.run_tick(&mut w_par, &[&combat]).unwrap();
        }
        prop_assert_eq!(w_seq.rows(), w_par.rows());
    }

    #[test]
    fn index_join_equals_naive_join(
        positions in proptest::collection::vec((-60.0f32..60.0, -60.0f32..60.0), 0..80),
        radius in 0.0f32..40.0,
    ) {
        let hps = [10.0];
        let w = build_world(&positions, &hps);
        prop_assert_eq!(w.pairs_within(radius), w.pairs_within_naive(radius));
    }

    #[test]
    fn query_matches_reference_scan(
        positions in proptest::collection::vec((-30.0f32..30.0, -30.0f32..30.0), 0..60),
        hps in proptest::collection::vec(0.0f32..100.0, 1..6),
        threshold in 0.0f32..100.0,
        cx in -30.0f32..30.0,
        cy in -30.0f32..30.0,
        r in 0.0f32..50.0,
    ) {
        let w = build_world(&positions, &hps);
        let q = Query::select()
            .filter("hp", CmpOp::Lt, Value::Float(threshold))
            .within(Vec2::new(cx, cy), r);
        let got = q.run(&w);
        // reference: full scan
        let expect: Vec<EntityId> = w.entities().filter(|&id| {
            let hp_ok = w.get_f32(id, "hp").is_some_and(|hp| hp < threshold);
            let pos_ok = w.pos(id).is_some_and(|p| p.dist(Vec2::new(cx, cy)) <= r);
            hp_ok && pos_ok
        }).collect();
        prop_assert_eq!(got, expect);
    }

    /// Spawning from random effect buffers and despawning never corrupts
    /// the world (len matches live iteration, rows never panic).
    #[test]
    fn spawn_despawn_consistency(
        seq in proptest::collection::vec(prop_oneof![
            (0u32..16).prop_map(|i| (true, i)),
            (0u32..16).prop_map(|i| (false, i)),
        ], 0..64),
    ) {
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        let mut spawned: Vec<EntityId> = Vec::new();
        for (is_spawn, i) in seq {
            if is_spawn {
                let e = w.spawn_at(Vec2::new(i as f32, 0.0));
                w.set_f32(e, "hp", i as f32).unwrap();
                spawned.push(e);
            } else if !spawned.is_empty() {
                let idx = (i as usize) % spawned.len();
                let victim = spawned.swap_remove(idx);
                w.despawn(victim);
            }
        }
        prop_assert_eq!(w.len(), spawned.len());
        prop_assert_eq!(w.entities().count(), spawned.len());
        for e in &spawned {
            prop_assert!(w.is_live(*e));
        }
        let _ = w.rows();
    }
}

/// One mutation step of the index-equivalence workload.
#[derive(Debug, Clone)]
enum IndexOp {
    /// Spawn at (x, y) with hp and team picked by the payload.
    Spawn(f32, f32, f32, u8),
    /// Spawn from the shared designer template at (x, y).
    TemplateSpawn(f32, f32),
    /// Overwrite hp of the i-th live entity.
    SetHp(u16, f32),
    /// Overwrite team of the i-th live entity.
    SetTeam(u16, u8),
    /// Remove the hp component from the i-th live entity.
    RemoveHp(u16),
    /// Despawn the i-th live entity.
    Despawn(u16),
    /// Run one combat tick (effects, spawns nothing, may change hp).
    Tick,
}

fn index_op_strategy() -> impl Strategy<Value = IndexOp> {
    prop_oneof![
        (-40.0f32..40.0, -40.0f32..40.0, 0.0f32..100.0, 0u8..4)
            .prop_map(|(x, y, hp, t)| IndexOp::Spawn(x, y, hp, t)),
        (-40.0f32..40.0, -40.0f32..40.0).prop_map(|(x, y)| IndexOp::TemplateSpawn(x, y)),
        (0u16..64, 0.0f32..100.0).prop_map(|(i, hp)| IndexOp::SetHp(i, hp)),
        (0u16..64, 0u8..4).prop_map(|(i, t)| IndexOp::SetTeam(i, t)),
        (0u16..64).prop_map(IndexOp::RemoveHp),
        (0u16..64).prop_map(IndexOp::Despawn),
        Just(IndexOp::Tick),
    ]
}

/// The designer template `TemplateSpawn` instantiates (types match the
/// workload's columns: hp/dmg float, team str).
fn workload_template() -> &'static gamedb_content::ResolvedTemplate {
    use std::sync::OnceLock;
    static TPL: OnceLock<gamedb_content::ResolvedTemplate> = OnceLock::new();
    TPL.get_or_init(|| {
        gamedb_content::TemplateLibrary::from_gdml(
            &gamedb_content::gdml::parse(
                r#"<templates>
                     <template name="imp">
                       <component name="hp" type="float" default="35"/>
                       <component name="dmg" type="float" default="2"/>
                       <component name="team" type="str" default="green"/>
                     </template>
                   </templates>"#,
            )
            .unwrap(),
        )
        .unwrap()
        .resolve("imp")
        .unwrap()
    })
}

fn team_name(t: u8) -> &'static str {
    ["red", "blue", "green", "gold"][t as usize % 4]
}

fn apply_index_op(w: &mut World, live: &mut Vec<EntityId>, op: &IndexOp) {
    match *op {
        IndexOp::Spawn(x, y, hp, t) => {
            let e = w.spawn_at(Vec2::new(x, y));
            w.set_f32(e, "hp", hp).unwrap();
            w.set_f32(e, "dmg", 1.0).unwrap();
            w.set(e, "team", Value::Str(team_name(t).into())).unwrap();
            live.push(e);
        }
        IndexOp::TemplateSpawn(x, y) => {
            let e = w
                .spawn_from_template(workload_template(), Vec2::new(x, y))
                .unwrap();
            live.push(e);
        }
        IndexOp::SetHp(i, hp) if !live.is_empty() => {
            let e = live[i as usize % live.len()];
            w.set_f32(e, "hp", hp).unwrap();
        }
        IndexOp::SetTeam(i, t) if !live.is_empty() => {
            let e = live[i as usize % live.len()];
            w.set(e, "team", Value::Str(team_name(t).into())).unwrap();
        }
        IndexOp::RemoveHp(i) if !live.is_empty() => {
            let e = live[i as usize % live.len()];
            w.remove_component(e, "hp").unwrap();
        }
        IndexOp::Despawn(i) if !live.is_empty() => {
            let idx = i as usize % live.len();
            let e = live.swap_remove(idx);
            w.despawn(e);
        }
        IndexOp::Tick => {
            TickExecutor::sequential().run_tick(w, &[&combat]).unwrap();
        }
        _ => {}
    }
}

/// A float across twelve orders of magnitude — fractional, so an `f64`
/// sum of a few hundred of them rounds and its bits depend on the order
/// of the terms — plus NaN and both zeros.
fn wide_float() -> impl Strategy<Value = f32> {
    prop_oneof![
        (-1.0e6f32..1.0e6, 0i32..13).prop_map(|(x, e)| x * 10f32.powi(-e)),
        0.0f32..100.0,
        Just(f32::NAN),
        Just(-0.0f32),
        Just(0.0f32),
    ]
}

/// `aggregate`'s contract spelled out over the scan oracle's rows, in id
/// order: NaN and missing values skipped, a zero extreme `+0.0`, ties to
/// the first id.
fn aggregate_oracle(w: &World, rows: &[EntityId], f: &AggFn) -> AggResult {
    let (AggFn::Sum(c)
    | AggFn::Min(c)
    | AggFn::Max(c)
    | AggFn::Avg(c)
    | AggFn::ArgMin(c)
    | AggFn::ArgMax(c)) = f
    else {
        return AggResult::Number(rows.len() as f64);
    };
    let vals: Vec<(EntityId, f64)> = rows
        .iter()
        .filter_map(|&e| w.get_number(e, c).filter(|v| !v.is_nan()).map(|v| (e, v)))
        .collect();
    let sum = vals.iter().fold(0.0, |s, &(_, v)| s + v);
    let arg = |better: fn(f64, f64) -> bool| {
        let mut best: Option<(EntityId, f64)> = None;
        for &(e, v) in &vals {
            if best.is_none_or(|(_, b)| better(v, b)) {
                best = Some((e, v));
            }
        }
        AggResult::Entity(best.map(|(e, _)| e))
    };
    // a zero extreme reads `+0.0`, as in `grouped_oracle`
    let unzero = |v: f64| if v == 0.0 { 0.0 } else { v };
    let extreme = |pick: fn(f64, f64) -> f64| {
        AggResult::Number(vals.iter().map(|v| unzero(v.1)).reduce(pick).unwrap_or(0.0))
    };
    match f {
        AggFn::Sum(_) => AggResult::Number(sum),
        AggFn::Min(_) => extreme(f64::min),
        AggFn::Max(_) => extreme(f64::max),
        AggFn::Avg(_) if vals.is_empty() => AggResult::Number(0.0),
        AggFn::Avg(_) => AggResult::Number(sum / vals.len() as f64),
        AggFn::ArgMin(_) => arg(|v, b| v < b),
        AggFn::ArgMax(_) => arg(|v, b| v > b),
        AggFn::Count => unreachable!("returned above"),
    }
}

/// Bit-for-bit equality of aggregate results.
fn same_bits(a: &AggResult, b: &AggResult) -> bool {
    match (a.as_number(), b.as_number()) {
        (Some(x), Some(y)) => x.to_bits() == y.to_bits(),
        (None, None) => a.as_entity() == b.as_entity(),
        _ => false,
    }
}

/// A group key as the scan oracle orders it: numbers by value (`-0.0`
/// is `0.0`), strings lexicographically; NaN and missing values have
/// none.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum GroupKey {
    Num(u64),
    Str(String),
}

fn group_key(v: &Value) -> Option<GroupKey> {
    match v {
        Value::Str(s) => Some(GroupKey::Str(s.clone())),
        v => {
            let x = v.as_number().filter(|x| !x.is_nan())?;
            let bits = if x == 0.0 { 0.0f64 } else { x }.to_bits();
            Some(GroupKey::Num(if bits >> 63 == 0 { bits | 1 << 63 } else { !bits }))
        }
    }
}

/// `ViewPlan::evaluate` of `query` grouped by `col` under `agg`, spelled
/// out as a `BTreeMap` fold over the scan oracle's rows in id order.
fn grouped_oracle(w: &World, query: &Query, col: &str, agg: &AggFn) -> Vec<(GroupKey, u64)> {
    let mut groups: std::collections::BTreeMap<GroupKey, (usize, Vec<f64>)> = Default::default();
    for e in query.run_scan(w) {
        let Some(key) = w.get(e, col).as_ref().and_then(group_key) else { continue };
        let g = groups.entry(key).or_default();
        g.0 += 1;
        if let AggFn::Sum(c) | AggFn::Avg(c) | AggFn::Min(c) | AggFn::Max(c) = agg {
            g.1.extend(w.get_number(e, c).filter(|v| !v.is_nan()));
        }
    }
    let unzero = |v: f64| if v == 0.0 { 0.0 } else { v };
    groups
        .into_iter()
        .map(|(k, (rows, vals))| {
            let sum = vals.iter().fold(0.0, |s, v| s + v);
            let value = match agg {
                AggFn::Count => rows as f64,
                AggFn::Sum(_) => sum,
                AggFn::Avg(_) if vals.is_empty() => 0.0,
                AggFn::Avg(_) => sum / vals.len() as f64,
                AggFn::Min(_) => vals.iter().copied().map(unzero).reduce(f64::min).unwrap_or(0.0),
                AggFn::Max(_) => vals.iter().copied().map(unzero).reduce(f64::max).unwrap_or(0.0),
                AggFn::ArgMin(_) | AggFn::ArgMax(_) => unreachable!("not a group aggregate"),
            };
            (k, value.to_bits())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// ISSUE-1 acceptance property, widened for the read path by slot:
    /// with sorted indexes on `hp` and `gold` and one on `team` (either
    /// kind), every query run through the planner's index machinery
    /// returns exactly the entity set a forced full scan returns — after
    /// any interleaving of spawns, overwrites, component removals,
    /// despawns, and ticks over a few hundred base rows (slots past one
    /// radix digit; fractional floats across twelve orders of magnitude,
    /// NaN, `±0.0`, missing `gold` and `team`). That covers two-bound
    /// ranges with random — possibly inverted — bounds under all four
    /// operator pairs in both authored orders; `aggregate` under every
    /// `AggFn`, bit-for-bit equal to a fold over `run_scan`, and the
    /// global plan's `ViewPlan::evaluate` equal to it; and grouped
    /// `ViewPlan::evaluate` (count / sum / avg / min / max by string,
    /// int and float keys, NaN and missing keys) equal to a `BTreeMap`
    /// fold over `run_scan`.
    #[test]
    fn index_and_scan_agree_under_churn(
        base in proptest::collection::vec(
            (wide_float(), proptest::option::of(-5i64..45), proptest::option::of(0u8..4)),
            200..700,
        ),
        ops in proptest::collection::vec(index_op_strategy(), 1..80),
        hp_bound in 0.0f32..100.0,
        team in 0u8..4,
        cx in -40.0f32..40.0,
        cy in -40.0f32..40.0,
        r in 0.5f32..120.0,
        sorted_team_index in any::<bool>(),
        gold_bounds in (-5i64..45, -5i64..45),
        hp_bounds in (wide_float(), wide_float()),
        upper_first in any::<bool>(),
    ) {
        use gamedb_core::PlanOutput;
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        w.define_component("dmg", ValueType::Float).unwrap();
        w.define_component("team", ValueType::Str).unwrap();
        w.define_component("gold", ValueType::Int).unwrap();
        w.create_index("hp", IndexKind::Sorted).unwrap();
        w.create_index("gold", IndexKind::Sorted).unwrap();
        w.create_index(
            "team",
            if sorted_team_index { IndexKind::Sorted } else { IndexKind::Hash },
        )
        .unwrap();
        let mut live = Vec::new();
        for (i, &(hp, gold, t)) in base.iter().enumerate() {
            // spread thin so a tick's combat stays cheap
            let at = Vec2::new((i * 37 % 400) as f32 - 200.0, (i * 101 % 400) as f32 - 200.0);
            let e = w.spawn_at(at);
            w.set_f32(e, "hp", hp).unwrap();
            w.set_f32(e, "dmg", 1.0).unwrap();
            if let Some(g) = gold {
                w.set(e, "gold", Value::Int(g)).unwrap();
            }
            if let Some(t) = t {
                w.set(e, "team", Value::Str(team_name(t).into())).unwrap();
            }
            live.push(e);
        }
        for op in &ops {
            apply_index_op(&mut w, &mut live, op);
        }
        let two_bound = |c: &str, lo: (CmpOp, Value), hi: (CmpOp, Value)| {
            let (a, b) = if upper_first { (hi, lo) } else { (lo, hi) };
            Query::select().filter(c, a.0, a.1).filter(c, b.0, b.1)
        };
        let mut queries = vec![
            Query::select().filter("hp", CmpOp::Lt, Value::Float(hp_bound)),
            Query::select().filter("hp", CmpOp::Ge, Value::Float(hp_bound)),
            Query::select().filter("hp", CmpOp::Eq, Value::Float(hp_bound.floor())),
            Query::select().filter("team", CmpOp::Eq, Value::Str(team_name(team).into())),
            Query::select()
                .filter("team", CmpOp::Eq, Value::Str(team_name(team).into()))
                .filter("hp", CmpOp::Le, Value::Float(hp_bound)),
            Query::select()
                .within(Vec2::new(cx, cy), r)
                .filter("hp", CmpOp::Gt, Value::Float(hp_bound)),
        ];
        for lo in [CmpOp::Gt, CmpOp::Ge] {
            for hi in [CmpOp::Lt, CmpOp::Le] {
                queries.push(two_bound(
                    "gold",
                    (lo, Value::Int(gold_bounds.0)),
                    (hi, Value::Int(gold_bounds.1)),
                ));
                queries.push(two_bound(
                    "hp",
                    (lo, Value::Float(hp_bounds.0)),
                    (hi, Value::Float(hp_bounds.1)),
                ));
            }
        }
        queries.push(
            two_bound(
                "gold",
                (CmpOp::Ge, Value::Int(gold_bounds.0)),
                (CmpOp::Lt, Value::Int(gold_bounds.1)),
            )
            .filter("team", CmpOp::Eq, Value::Str(team_name(team).into())),
        );
        for q in &queries {
            let scan = q.run_scan(&w);
            prop_assert_eq!(q.run(&w), scan.clone(), "query: {:?}", q);
            prop_assert_eq!(q.count(&w), scan.len());
        }

        // aggregates and grouped evaluation over a scan, a probe with
        // residuals, and a two-bound probe
        let folded = [Query::select(), queries[4].clone(), queries[6].clone()];
        for q in &folded {
            let scan = q.run_scan(&w);
            for f in [
                AggFn::Count,
                AggFn::Sum("hp".into()),
                AggFn::Min("hp".into()),
                AggFn::Max("hp".into()),
                AggFn::Avg("hp".into()),
                AggFn::ArgMin("hp".into()),
                AggFn::ArgMax("hp".into()),
            ] {
                let got = gamedb_core::aggregate(&w, q, &f);
                let want = aggregate_oracle(&w, &scan, &f);
                prop_assert!(
                    same_bits(&got, &want),
                    "{:?} over {:?}: {:?} vs {:?}", f, q, got, want
                );
                // argmin and argmax are one-shot only
                let Some(got) = got.as_number() else { continue };
                // the global plan's one-shot evaluate folds to the same bits;
                // an empty selection has no group, where `aggregate` reads 0
                let plan = q.clone().into_aggregate_plan(f.clone()).unwrap();
                let PlanOutput::Groups(rows) = plan.evaluate(&w).unwrap() else {
                    return Err(TestCaseError::fail("an aggregate plan evaluates to groups"));
                };
                prop_assert_eq!(rows.len(), usize::from(!scan.is_empty()));
                let value = rows.first().map_or(0.0, |g| g.value);
                prop_assert_eq!(
                    value.to_bits(), got.to_bits(),
                    "{:?} over {:?}: evaluate {} vs aggregate {}", f, q, value, got
                );
            }
            for col in ["team", "gold", "hp"] {
                for agg in [
                    AggFn::Count,
                    AggFn::Sum("hp".into()),
                    AggFn::Avg("hp".into()),
                    AggFn::Min("hp".into()),
                    AggFn::Max("hp".into()),
                ] {
                    let plan = q.clone().into_grouped_plan(col, agg.clone()).unwrap();
                    let PlanOutput::Groups(rows) = plan.evaluate(&w).unwrap() else {
                        return Err(TestCaseError::fail("a group plan evaluates to groups"));
                    };
                    let got: Vec<(GroupKey, u64)> = rows
                        .iter()
                        .map(|g| {
                            let key = g.key.as_ref().and_then(group_key).expect("a keyed group");
                            (key, g.value.to_bits())
                        })
                        .collect();
                    prop_assert_eq!(
                        got,
                        grouped_oracle(&w, q, col, &agg),
                        "{:?} by {} over {:?}", agg, col, q
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Creating an index on live data (backfill) and creating it before
    /// the data existed must produce identical probe behavior.
    #[test]
    fn backfilled_index_equals_incremental_index(
        ops in proptest::collection::vec(index_op_strategy(), 1..60),
        hp_bound in 0.0f32..100.0,
    ) {
        let fresh = || {
            let mut w = World::new();
            w.define_component("hp", ValueType::Float).unwrap();
            w.define_component("dmg", ValueType::Float).unwrap();
            w.define_component("team", ValueType::Str).unwrap();
            w
        };
        // incremental: index exists from the start
        let mut w_inc = fresh();
        w_inc.create_index("hp", IndexKind::Sorted).unwrap();
        let mut live = Vec::new();
        for op in &ops {
            apply_index_op(&mut w_inc, &mut live, op);
        }
        // backfilled: same history, index created at the end
        let mut w_back = fresh();
        let mut live2 = Vec::new();
        for op in &ops {
            apply_index_op(&mut w_back, &mut live2, op);
        }
        w_back.create_index("hp", IndexKind::Sorted).unwrap();

        let q = Query::select().filter("hp", CmpOp::Lt, Value::Float(hp_bound));
        prop_assert_eq!(q.run(&w_inc), q.run(&w_back));
        prop_assert_eq!(
            w_inc.index_on("hp").unwrap().len(),
            w_back.index_on("hp").unwrap().len()
        );
        prop_assert_eq!(
            w_inc.index_on("hp").unwrap().ndv(),
            w_back.index_on("hp").unwrap().ndv()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// The view engine's acceptance property, one engine ⇒ one churn
    /// test. Rows views (filter, equality, spatial + filter, liveness),
    /// two equi-joins (string keys; int keys against float keys), a
    /// spatial join and four group-by aggregates (count and min by a
    /// string key, max by an int key, sum by a float key) are maintained
    /// through random interleavings of writes, component removals,
    /// despawns, template spawns, ticks, members moving between groups —
    /// a whole team renamed, so one group empties while another fills in
    /// the same batch — slots reused inside one batch (a despawn plus a
    /// spawn, or a restore at a *lower* generation, which sorts ahead of
    /// the tenant it replaces), float keys `-0.0`, `0.0` and NaN,
    /// **retargets** of the spatial rows view and **drop + re-register**
    /// of any rows view, with and without a sorted index on `hp`. After
    /// every tick (and at the end, after a final refresh) each rows view
    /// equals the `Query::run_scan` oracle and every view equals a forced
    /// `ViewPlan::evaluate`; row, pair and group changelogs are checked
    /// for coherence — replaying them over the previous materialized
    /// state must reproduce the current one — and each batch's group
    /// changelog for key order. At the end every keyed view's key table
    /// (`view.s{slot}.keys`) holds exactly its live rows' distinct keys.
    #[test]
    fn operator_views_track_scan_oracle_under_churn(
        ops in proptest::collection::vec(
            (index_op_strategy(), 0u8..20, -40.0f32..40.0, -40.0f32..40.0, 0.5f32..120.0),
            1..80,
        ),
        hp_bound in 0.0f32..100.0,
        team in 0u8..4,
        cx in -40.0f32..40.0,
        cy in -40.0f32..40.0,
        r in 0.5f32..120.0,
        join_r in 0.5f32..60.0,
        index_hp in any::<bool>(),
    ) {
        use gamedb_core::{AggFn, GroupRow, JoinOn, PlanNode, ViewId, ViewPlan};
        use std::collections::{BTreeMap, BTreeSet};
        /// Index of the spatial rows view — the one retargets move.
        const SPATIAL: usize = 2;
        /// The float key column's values: both zeros, NaN (no key), and
        /// 3.0, which joins the int key 3.
        const WTS: [f32; 6] = [-0.0, 0.0, f32::NAN, 1.5, 3.0, 2.0];
        let registry = gamedb_metrics::MetricsRegistry::new();
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        w.define_component("dmg", ValueType::Float).unwrap();
        w.define_component("team", ValueType::Str).unwrap();
        w.define_component("tier", ValueType::Int).unwrap();
        w.define_component("wt", ValueType::Float).unwrap();
        w.attach_metrics(&registry);
        if index_hp {
            // an index changes how views seed and re-evaluate (planner
            // probe instead of scan); equivalence must hold either way
            w.create_index("hp", IndexKind::Sorted).unwrap();
        }
        let mut queries = vec![
            Query::select().filter("hp", CmpOp::Lt, Value::Float(hp_bound)),
            Query::select().filter("team", CmpOp::Eq, Value::Str(team_name(team).into())),
            Query::select()
                .within(Vec2::new(cx, cy), r)
                .filter("hp", CmpOp::Ge, Value::Float(hp_bound)),
            Query::select(), // membership = liveness (spawn/despawn stream)
        ];
        let mut row_views: Vec<ViewId> = queries
            .iter()
            .map(|q| w.register_view(q.clone()))
            .collect();
        // healthy×anyone teammate pairs, proximity pairs, tier-to-weight
        // pairs, per-team head-counts + weakest member, per-tier
        // strongest member, per-weight tier sums
        let healthy = Query::select().filter("hp", CmpOp::Ge, Value::Float(hp_bound));
        let equi = w.register_view_plan(ViewPlan::join(
            PlanNode::scan(healthy.clone()),
            PlanNode::scan(Query::select()),
            JoinOn::Eq { left: "team".into(), right: "team".into() },
        )).unwrap();
        let spatial = w.register_view_plan(ViewPlan::join(
            PlanNode::scan(Query::select()),
            PlanNode::scan(Query::select()),
            JoinOn::Within { radius: join_r },
        )).unwrap();
        let cross = w.register_view_plan(ViewPlan::join(
            PlanNode::scan(Query::select()),
            PlanNode::scan(healthy.clone()),
            JoinOn::Eq { left: "tier".into(), right: "wt".into() },
        )).unwrap();
        let grouped = |w: &mut World, col: &str, agg: AggFn| {
            w.register_view_plan(Query::select().into_grouped_plan(col, agg).unwrap()).unwrap()
        };
        let count = grouped(&mut w, "team", AggFn::Count);
        let weakest = grouped(&mut w, "team", AggFn::Min("hp".into()));
        let strongest = grouped(&mut w, "tier", AggFn::Max("hp".into()));
        // tiers are integers: their sums are exact, so the oracle is too
        let tier_sums = grouped(&mut w, "wt", AggFn::Sum("tier".into()));

        let pair_views = [equi, spatial, cross];
        let group_views = [count, weakest, strongest, tier_sums];
        for &v in row_views.iter().chain(&pair_views).chain(&group_views) {
            w.subscribe_view(v);
        }
        let mut row_shadows: Vec<BTreeSet<EntityId>> = row_views
            .iter()
            .map(|&v| w.view_rows(v).iter().copied().collect())
            .collect();
        let mut pair_shadows: Vec<BTreeSet<(EntityId, EntityId)>> = pair_views
            .iter()
            .map(|&v| w.view_pairs(v).iter().copied().collect())
            .collect();
        // group keys shadowed by their debug form: `Value` is not `Ord`
        let mut group_shadows: Vec<BTreeMap<String, f64>> = group_views
            .iter()
            .map(|&v| {
                w.view_groups(v)
                    .iter()
                    .map(|g| (format!("{:?}", g.key), g.value))
                    .collect()
            })
            .collect();

        let mut live = Vec::new();
        let check = |w: &mut World,
                     row_views: &[ViewId],
                     queries: &[Query],
                     row_shadows: &mut [BTreeSet<EntityId>],
                     pair_shadows: &mut [BTreeSet<(EntityId, EntityId)>],
                     group_shadows: &mut [BTreeMap<String, f64>]|
         -> Result<(), TestCaseError> {
            for ((&v, q), shadow) in row_views.iter().zip(queries).zip(row_shadows.iter_mut()) {
                let oracle = q.run_scan(w);
                prop_assert_eq!(w.view_rows(v), oracle.as_slice(), "query: {:?}", q);
                prop_assert_eq!(w.view_query(v), q, "the stored plan follows retargets");
                let forced = w.view_plan(v).unwrap().evaluate(w).unwrap();
                prop_assert_eq!(w.view_output(v), forced, "rows view {:?}", v);
                let log = w.take_view_delta::<EntityId>(v).expect("subscribed");
                for e in &log.exited {
                    shadow.remove(e);
                }
                for e in &log.entered {
                    prop_assert!(shadow.insert(*e), "duplicate enter for {e:?}");
                }
                prop_assert_eq!(
                    shadow.iter().copied().collect::<Vec<_>>(),
                    oracle,
                    "changelog replay diverged for {:?}", q
                );
            }
            for (&v, shadow) in pair_views.iter().zip(pair_shadows.iter_mut()) {
                let forced = w.view_plan(v).unwrap().evaluate(w).unwrap();
                prop_assert_eq!(w.view_output(v), forced, "pair view {:?}", v);
                let log = w.take_view_delta::<(EntityId, EntityId)>(v).expect("subscribed");
                for p in &log.exited {
                    prop_assert!(shadow.remove(p), "exit without enter for {p:?}");
                }
                for p in &log.entered {
                    prop_assert!(shadow.insert(*p), "duplicate enter for {p:?}");
                }
                prop_assert_eq!(
                    shadow.iter().copied().collect::<Vec<_>>(),
                    w.view_pairs(v),
                    "pair changelog replay diverged for {:?}", v
                );
            }
            for (&v, shadow) in group_views.iter().zip(group_shadows.iter_mut()) {
                let forced = w.view_plan(v).unwrap().evaluate(w).unwrap();
                prop_assert_eq!(w.view_output(v), forced, "group view {:?}", v);
                let log = w.take_view_delta::<GroupRow>(v).expect("subscribed");
                for rows in [&log.entered, &log.exited, &log.changed] {
                    let keys: Vec<_> = rows.iter().map(|g| g.key.as_ref().and_then(group_key)).collect();
                    prop_assert!(
                        keys.windows(2).all(|k| k[0] < k[1]),
                        "a batch's group changelog is in key order: {:?}", keys
                    );
                }
                for g in &log.exited {
                    prop_assert!(
                        shadow.remove(&format!("{:?}", g.key)).is_some(),
                        "exit of unknown group {:?}", g.key
                    );
                }
                for g in &log.entered {
                    prop_assert!(
                        shadow.insert(format!("{:?}", g.key), g.value).is_none(),
                        "duplicate enter for group {:?}", g.key
                    );
                }
                for g in &log.changed {
                    prop_assert!(
                        shadow.insert(format!("{:?}", g.key), g.value).is_some(),
                        "change of unknown group {:?}", g.key
                    );
                }
                let actual: BTreeMap<String, f64> = w
                    .view_groups(v)
                    .iter()
                    .map(|g| (format!("{:?}", g.key), g.value))
                    .collect();
                prop_assert_eq!(&*shadow, &actual, "group changelog replay diverged for {:?}", v);
            }
            Ok(())
        };

        let mut retargets = 0u64;
        for (op, view_op, x, y, vr) in &ops {
            let pick = (*x as i32).unsigned_abs() as usize;
            let at = (!live.is_empty()).then(|| pick % live.len());
            // world ops beside the workload's, ahead of it so that a tick
            // folds them into its batch
            match (*view_op, at) {
                (2, Some(i)) => w.set(live[i], "tier", Value::Int((*y as i64).rem_euclid(5))).unwrap(),
                (3, Some(i)) => {
                    let wt = WTS[(*y as i64).rem_euclid(WTS.len() as i64) as usize];
                    w.set_f32(live[i], "wt", wt).unwrap();
                }
                (4, Some(i)) => {
                    w.remove_component(live[i], "tier").unwrap();
                }
                // the slot changes tenant inside the batch: a despawn,
                // then a spawn the allocator puts in the freed slot, or a
                // restore one generation *below* the old tenant (where
                // there is one), which sorts ahead of it
                (5 | 6, Some(i)) => {
                    let old = live[i];
                    w.despawn(old);
                    let new = if *view_op == 5 {
                        w.spawn_at(Vec2::new(*y, *x))
                    } else {
                        let gen = old.generation().checked_sub(1).unwrap_or(1);
                        let id = EntityId::from_bits(u64::from(old.index()) | u64::from(gen) << 32);
                        w.restore_entity(id).unwrap();
                        w.set_pos(id, Vec2::new(*y, *x)).unwrap();
                        id
                    };
                    prop_assert_eq!(new.index(), old.index(), "the slot is reused");
                    w.set_f32(new, "hp", vr.min(99.0)).unwrap();
                    w.set(new, "team", Value::Str(team_name(pick as u8).into())).unwrap();
                    w.set(new, "tier", Value::Int((*y as i64).rem_euclid(5))).unwrap();
                    w.set_f32(new, "wt", WTS[pick % WTS.len()]).unwrap();
                    live[i] = new;
                }
                // members move between groups: a whole team renamed
                (7, Some(_)) => {
                    let (from, to) = (team_name(pick as u8), team_name((*y as i32).unsigned_abs() as u8));
                    for &e in &live {
                        if w.get(e, "team") == Some(Value::Str(from.into())) {
                            w.set(e, "team", Value::Str(to.into())).unwrap();
                        }
                    }
                }
                _ => {}
            }
            apply_index_op(&mut w, &mut live, op);
            // Each changelog taken must hold one refresh batch — across
            // batches the order of an enter and an exit of the same row
            // is not recorded — and a retarget or registration folds the
            // pending changes first: drain that batch on its own.
            if *view_op < 2 {
                w.refresh_views();
                check(&mut w, &row_views, &queries, &mut row_shadows, &mut pair_shadows, &mut group_shadows)?;
            }
            match *view_op {
                // move the spatial rows view's disk: the diff lands in
                // the changelog the shadow replays
                0 => {
                    w.retarget_view(row_views[SPATIAL], Vec2::new(*x, *y), *vr).unwrap();
                    queries[SPATIAL].retarget_within(Vec2::new(*x, *y), *vr);
                    retargets += 1;
                    prop_assert_eq!(w.view_stats(row_views[SPATIAL]).rescans, retargets);
                }
                // drop a rows view and register it again: a fresh slot
                // seeded from current state, the old handle stale
                1 => {
                    let i = pick % row_views.len();
                    let old = row_views[i];
                    prop_assert!(w.drop_view(old));
                    row_views[i] = w.register_view(queries[i].clone());
                    w.subscribe_view(row_views[i]);
                    prop_assert!(!w.has_view(old));
                    prop_assert_ne!(row_views[i], old);
                    row_shadows[i] = w.view_rows(row_views[i]).iter().copied().collect();
                    if i == SPATIAL {
                        retargets = 0;
                    }
                }
                _ => {}
            }
            // bump_tick refreshed the views already
            if matches!(op, IndexOp::Tick) || *view_op < 2 {
                prop_assert_eq!(w.pending_deltas(), 0);
                check(&mut w, &row_views, &queries, &mut row_shadows, &mut pair_shadows, &mut group_shadows)?;
            }
        }
        // a spawn and a despawn: a final batch every view folds (and
        // sweeps its key table after)
        let e = w.spawn_at(Vec2::ZERO);
        w.despawn(e);
        w.refresh_views();
        check(&mut w, &row_views, &queries, &mut row_shadows, &mut pair_shadows, &mut group_shadows)?;
        // retargets are the only re-evaluations; folds never rescan
        for (i, &v) in row_views.iter().enumerate() {
            let expect = if i == SPATIAL { retargets } else { 0 };
            prop_assert_eq!(w.view_stats(v).rescans, expect);
        }
        // each key table holds the distinct keys of its view's live rows
        // — every side's, for a join — and no other
        let all = Query::select();
        let keyed = [
            (equi, [(&healthy, "team"), (&all, "team")]),
            (cross, [(&all, "tier"), (&healthy, "wt")]),
            (count, [(&all, "team"); 2]),
            (weakest, [(&all, "team"); 2]),
            (strongest, [(&all, "tier"); 2]),
            (tier_sums, [(&all, "wt"); 2]),
        ];
        for (v, sides) in keyed {
            let distinct: BTreeSet<GroupKey> = sides
                .iter()
                .flat_map(|(q, col)| {
                    q.run_scan(&w)
                        .into_iter()
                        .filter_map(|e| w.get(e, col).as_ref().and_then(group_key))
                })
                .collect();
            let held = registry.snapshot().gauge(&format!("view.s{}.keys", v.slot()));
            prop_assert_eq!(held, distinct.len() as i64, "key table of {:?}", v);
        }
    }

    /// A rows view's `changed` list is exact. After every batch of
    /// writes, removals, despawns and spawns — slots reused inside a
    /// batch by a despawn plus a spawn, or a restore one generation
    /// *below* the old tenant — each rows view's `changed` equals the
    /// entities that had a row op in the batch and were members both
    /// before and after it (a net member that did not enter), ascending
    /// and duplicate-free; each batch's pair changelog of an equi-join
    /// ascends without duplicates. One case in eight is instead a single
    /// write against a 50,000-row view, where `changed` is found by
    /// galloping through the rows.
    #[test]
    fn rows_changed_equals_touched_members(
        n in 1usize..120,
        batches in proptest::collection::vec(
            proptest::collection::vec((0u8..7, 0u16..u16::MAX, 0.0f32..100.0), 0..30),
            1..10,
        ),
        big in 0u8..8,
    ) {
        use gamedb_core::{JoinOn, PlanNode, ViewPlan};
        use std::collections::BTreeSet;
        let (n, batches) = match big {
            0 => (50_000, vec![batches[0].iter().take(1).copied().collect()]),
            _ => (n, batches),
        };
        let teams = (n / 4).max(1) as u16;
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        w.define_component("gold", ValueType::Int).unwrap();
        w.define_component("team", ValueType::Str).unwrap();
        let team = |t: u16| Value::Str(format!("t{}", t % teams));
        let mut live: Vec<EntityId> = (0..n)
            .map(|i| {
                let e = w.spawn_at(Vec2::new(i as f32, 0.0));
                w.set_f32(e, "hp", (i * 37 % 100) as f32).unwrap();
                w.set(e, "team", team(i as u16)).unwrap();
                e
            })
            .collect();
        let queries = [
            Query::select(), // every live entity: the 50,000-row view
            Query::select().filter("hp", CmpOp::Lt, Value::Float(50.0)),
            Query::select().filter("team", CmpOp::Eq, team(1)),
        ];
        let views: Vec<_> = queries.iter().map(|q| w.register_view(q.clone())).collect();
        let join = w.register_view_plan(ViewPlan::join(
            PlanNode::scan(Query::select().filter("hp", CmpOp::Lt, Value::Float(5.0))),
            PlanNode::scan(Query::select()),
            JoinOn::Eq { left: "team".into(), right: "team".into() },
        )).unwrap();
        for &v in views.iter().chain([&join]) {
            w.subscribe_view(v);
        }
        for batch in &batches {
            let before: Vec<BTreeSet<EntityId>> =
                queries.iter().map(|q| q.run_scan(&w).into_iter().collect()).collect();
            let mut touched = BTreeSet::new();
            for &(op, pick, x) in batch {
                if live.is_empty() {
                    live.push(w.spawn());
                    touched.insert(live[0]);
                }
                let i = pick as usize % live.len();
                let e = live[i];
                match op {
                    0 => w.set_f32(e, "hp", x).unwrap(),
                    1 => w.set(e, "team", team(x as u16)).unwrap(),
                    // a column no view reads: a member still changes
                    2 => w.set(e, "gold", Value::Int(x as i64)).unwrap(),
                    3 => {
                        if !w.remove_component(e, "hp").unwrap() {
                            continue;
                        }
                    }
                    4 => {
                        w.despawn(e);
                        live.swap_remove(i);
                    }
                    // the slot changes tenant inside the batch
                    _ => {
                        w.despawn(e);
                        touched.insert(e);
                        let new = if op == 5 {
                            w.spawn()
                        } else {
                            let gen = e.generation().checked_sub(1).unwrap_or(1);
                            let id = EntityId::from_bits(u64::from(e.index()) | u64::from(gen) << 32);
                            w.restore_entity(id).unwrap();
                            id
                        };
                        prop_assert_eq!(new.index(), e.index(), "the slot is reused");
                        w.set_f32(new, "hp", x).unwrap();
                        live[i] = new;
                        touched.insert(new);
                        continue;
                    }
                }
                touched.insert(e);
            }
            w.refresh_views();
            for ((&v, q), before) in views.iter().zip(&queries).zip(&before) {
                let expect: Vec<EntityId> = q
                    .run_scan(&w)
                    .into_iter()
                    .filter(|e| touched.contains(e) && before.contains(e))
                    .collect();
                let log = w.take_view_delta::<EntityId>(v).expect("subscribed");
                prop_assert!(log.changed.windows(2).all(|p| p[0] < p[1]), "changed ascends: {:?}", q);
                prop_assert_eq!(log.changed, expect, "changed of {:?}", q);
            }
            let pairs = w.take_view_delta::<(EntityId, EntityId)>(join).expect("subscribed");
            for run in [&pairs.entered, &pairs.exited] {
                prop_assert!(run.windows(2).all(|p| p[0] < p[1]), "a batch's pairs ascend: {:?}", run);
            }
        }
    }
}
/// Rebuild a world from its public recovery surface, the way the
/// persistence layer does after a crash: the row image bulk-loaded
/// (schema in id order, entities with their generations, each column
/// built from the rows and installed whole), then the catalog import
/// (each index built from its column, each view seeded at its original
/// slot, lineage + tick adopted).
fn restore_via_catalog(w: &World) -> World {
    let schema: Vec<(String, ValueType)> = w
        .schema_by_id()
        .map(|(_, name, ty)| (name.to_string(), ty))
        .collect();
    let mut load = World::bulk_load(&schema, &w.entity_vec()).unwrap();
    let mut columns: Vec<gamedb_core::Column> = schema
        .iter()
        .map(|&(_, ty)| gamedb_core::Column::new(ty))
        .collect();
    for (e, comp, val) in w.rows() {
        // the schema was listed in id order, so the ids are `w`'s
        let c = w.component_id(&comp).unwrap();
        columns[c.as_u32() as usize]
            .set(e.index() as usize, &val)
            .unwrap();
    }
    for (entry, column) in columns.into_iter().enumerate() {
        load.install_column(entry, column).unwrap();
    }
    let mut r = load.finish();
    r.import_catalog(&w.export_catalog()).unwrap();
    r
}

/// The same image restored one row at a time through the live write
/// path. Indexes and views are created first, over the empty world, so
/// every posting is an incremental insert and every view row an
/// incremental fold — what the bulk builders must be equal to.
fn restore_row_by_row(w: &World) -> World {
    let mut r = World::new();
    for (_, name, ty) in w.schema_by_id() {
        if name != gamedb_core::POS {
            r.define_component(name, ty).unwrap();
        }
    }
    r.import_catalog(&w.export_catalog()).unwrap();
    for e in w.entity_vec() {
        r.restore_entity(e).unwrap();
    }
    for (e, comp, val) in w.rows() {
        r.set(e, &comp, val).unwrap();
    }
    r.refresh_views();
    r
}

/// One mutation step of the image-equivalence workload: every column
/// type, the values indexes and aggregates must skip or fold (NaN,
/// `-0.0`), missing values, entities without a position, and
/// despawn/respawn churn (id holes, bumped generations).
#[derive(Debug, Clone)]
enum ImageOp {
    Spawn {
        at: Option<(f32, f32)>,
        hp: f32,
        gold: i64,
        alive: bool,
        team: u8,
        home: Option<(f32, f32)>,
    },
    /// `.0` entities, positioned or not, sharing one hp and one gold —
    /// long equal-key runs in the sorted indexes.
    SpawnRun(u8, bool, f32, i64),
    /// Overwrite column `.1` of the i-th live entity from the payload.
    Set(u16, u8, f32),
    /// Overwrite the gold of the i-th live entity.
    SetGold(u16, i64),
    /// Remove column `.1` (`pos` included) from the i-th live entity.
    Remove(u16, u8),
    Despawn(u16),
}

const IMAGE_COLUMNS: [&str; 6] = ["hp", "gold", "alive", "team", "home", gamedb_core::POS];

fn odd_float() -> impl Strategy<Value = f32> {
    prop_oneof![
        0.0f32..100.0,
        -100.0f32..0.0,
        Just(f32::NAN),
        Just(-0.0f32),
        Just(0.0f32),
    ]
}

/// Ints whose numeric index keys stress a sorted index's key order:
/// negatives, values beyond 2^53 that collide once coerced to f64, values
/// above 2^52 whose keys differ in exactly one byte (each byte a radix
/// sort passes over), the extremes.
fn odd_int() -> impl Strategy<Value = i64> {
    prop_oneof![
        0i64..50,
        -50i64..0,
        (1i64 << 53)..(1i64 << 53) + 16,
        (0u32..7, 1i64..4).prop_map(|(byte, k)| (1i64 << 52) + (k << (8 * byte))),
        Just(i64::MIN),
        Just(i64::MAX),
    ]
}

fn image_op_strategy() -> impl Strategy<Value = ImageOp> {
    let point = || (-40.0f32..40.0, -40.0f32..40.0);
    prop_oneof![
        (
            proptest::option::of(point()),
            odd_float(),
            0i64..50,
            any::<bool>(),
            0u8..4,
            proptest::option::of(point()),
        )
            .prop_map(|(at, hp, gold, alive, team, home)| ImageOp::Spawn {
                at,
                hp,
                gold,
                alive,
                team,
                home
            }),
        (1u8..120, any::<bool>(), odd_float(), odd_int())
            .prop_map(|(n, at, hp, gold)| ImageOp::SpawnRun(n, at, hp, gold)),
        (0u16..64, 0u8..6, odd_float()).prop_map(|(i, c, v)| ImageOp::Set(i, c, v)),
        (0u16..64, odd_int()).prop_map(|(i, v)| ImageOp::SetGold(i, v)),
        (0u16..64, 0u8..6).prop_map(|(i, c)| ImageOp::Remove(i, c)),
        (0u16..64).prop_map(ImageOp::Despawn),
    ]
}

fn image_value(column: u8, v: f32) -> Value {
    // NaN never reaches a position (the grid wants finite points)
    let finite = if v.is_nan() { 7.0 } else { v };
    match column {
        0 => Value::Float(v),
        1 => Value::Int(finite as i64),
        2 => Value::Bool(finite > 50.0),
        3 => Value::Str(team_name(finite as u8).into()),
        4 => Value::Vec2(v, -finite),
        _ => Value::Vec2(finite, finite / 2.0),
    }
}

fn apply_image_op(w: &mut World, live: &mut Vec<EntityId>, op: &ImageOp) {
    match *op {
        ImageOp::Spawn {
            at,
            hp,
            gold,
            alive,
            team,
            home,
        } => {
            let e = match at {
                Some((x, y)) => w.spawn_at(Vec2::new(x, y)),
                None => w.spawn(),
            };
            w.set_f32(e, "hp", hp).unwrap();
            w.set(e, "gold", Value::Int(gold)).unwrap();
            w.set(e, "alive", Value::Bool(alive)).unwrap();
            w.set(e, "team", Value::Str(team_name(team).into())).unwrap();
            if let Some((x, y)) = home {
                w.set(e, "home", Value::Vec2(x, y)).unwrap();
            }
            live.push(e);
        }
        ImageOp::SpawnRun(n, at, hp, gold) => {
            for k in 0..n {
                let e = if at {
                    w.spawn_at(Vec2::new(k as f32, -(k as f32)))
                } else {
                    w.spawn()
                };
                w.set_f32(e, "hp", hp).unwrap();
                w.set(e, "gold", Value::Int(gold)).unwrap();
                live.push(e);
            }
        }
        ImageOp::SetGold(i, v) if !live.is_empty() => {
            let e = live[i as usize % live.len()];
            w.set(e, "gold", Value::Int(v)).unwrap();
        }
        ImageOp::Set(i, c, v) if !live.is_empty() => {
            let e = live[i as usize % live.len()];
            w.set(e, IMAGE_COLUMNS[c as usize], image_value(c, v)).unwrap();
        }
        ImageOp::Remove(i, c) if !live.is_empty() => {
            let e = live[i as usize % live.len()];
            w.remove_component(e, IMAGE_COLUMNS[c as usize]).unwrap();
        }
        ImageOp::Despawn(i) if !live.is_empty() => {
            let e = live.swap_remove(i as usize % live.len());
            w.despawn(e);
        }
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// ISSUE-19: recovery is a bulk load, and a bulk load must be
    /// indistinguishable from the row-at-a-time restore it replaced.
    /// One generated image — five column types, NaN and `-0.0`, missing
    /// values, unpositioned entities, id holes with bumped generations,
    /// five indexes (both kinds), nine views (rows, spatial, both join
    /// kinds, sum / avg / count / min / max groups, one burned slot) —
    /// restored both ways must agree on rows, the interned id table,
    /// the catalog, the spatial grid, every index probe (each also
    /// equal to the scan), every view output (each also equal to the
    /// forced recompute), and the ids the next 50 spawns hand out.
    /// The sorted numeric indexes see negative floats, ints beyond 2^53
    /// that collide as f64 keys, keys differing only in their low bytes
    /// and long equal-key runs; every posting list must equal the
    /// row-by-row one in its stored (id) order.
    #[test]
    fn bulk_load_equals_row_by_row_restore(
        ops in proptest::collection::vec(image_op_strategy(), 1..90),
        bound in 0.0f32..100.0,
        team in 0u8..4,
        center in (-40.0f32..40.0, -40.0f32..40.0),
        radius in 0.5f32..60.0,
        sorted_team_index in any::<bool>(),
    ) {
        use gamedb_core::{AggFn, JoinOn, PlanNode, ViewPlan};
        let mut w = World::new();
        for (name, ty) in [
            ("hp", ValueType::Float),
            ("gold", ValueType::Int),
            ("alive", ValueType::Bool),
            ("team", ValueType::Str),
            ("home", ValueType::Vec2),
        ] {
            w.define_component(name, ty).unwrap();
        }
        w.create_index("hp", IndexKind::Sorted).unwrap();
        w.create_index("gold", IndexKind::Sorted).unwrap();
        w.create_index("alive", IndexKind::Hash).unwrap();
        w.create_index("home", IndexKind::Hash).unwrap();
        w.create_index(
            "team",
            if sorted_team_index { IndexKind::Sorted } else { IndexKind::Hash },
        )
        .unwrap();
        let center = Vec2::new(center.0, center.1);
        let wounded = Query::select().filter("hp", CmpOp::Lt, Value::Float(bound));
        let awake = Query::select().filter("alive", CmpOp::Eq, Value::Bool(true));
        let burned = w.register_view(Query::select());
        let plans = vec![
            wounded.clone().into_plan(),
            awake.clone().within(center, radius).into_plan(),
            ViewPlan::join(
                PlanNode::scan(wounded.clone()),
                PlanNode::scan(Query::select()),
                JoinOn::Eq { left: "team".into(), right: "team".into() },
            ),
            ViewPlan::join(
                PlanNode::scan(awake.clone()),
                PlanNode::scan(Query::select()),
                JoinOn::Within { radius: 10.0 },
            ),
            Query::select().into_grouped_plan("team", AggFn::Sum("hp".into())).unwrap(),
            Query::select().into_grouped_plan("alive", AggFn::Min("gold".into())).unwrap(),
            Query::select().into_grouped_plan("team", AggFn::Max("hp".into())).unwrap(),
            wounded.clone().into_grouped_plan("gold", AggFn::Count).unwrap(),
            Query::select().into_aggregate_plan(AggFn::Avg("hp".into())).unwrap(),
        ];
        let views: Vec<_> = plans
            .iter()
            .map(|p| w.register_view_plan(p.clone()).unwrap())
            .collect();
        w.drop_view(burned);

        let mut live = Vec::new();
        for op in &ops {
            apply_image_op(&mut w, &mut live, op);
        }
        w.refresh_views();

        let mut bulk = restore_via_catalog(&w);
        let mut rowwise = restore_row_by_row(&w);

        // NaN is in the image, so rows compare by their printed form
        let printed = |w: &World| format!("{:?}", w.rows());
        prop_assert_eq!(printed(&bulk), printed(&w));
        prop_assert_eq!(printed(&bulk), printed(&rowwise));
        prop_assert_eq!(
            bulk.schema_by_id().collect::<Vec<_>>(),
            w.schema_by_id().collect::<Vec<_>>()
        );
        prop_assert_eq!(bulk.export_catalog(), w.export_catalog());
        prop_assert_eq!(bulk.export_catalog(), rowwise.export_catalog());
        prop_assert_eq!(bulk.positioned_count(), rowwise.positioned_count());
        prop_assert_eq!(bulk.approx_bounds(), rowwise.approx_bounds());
        let near = |w: &World| {
            let mut out = Vec::new();
            w.within(center, radius, &mut out);
            out
        };
        prop_assert_eq!(near(&bulk), near(&rowwise));

        let probes = vec![
            wounded.clone(),
            Query::select().filter("hp", CmpOp::Ge, Value::Float(bound)),
            Query::select().filter("hp", CmpOp::Eq, Value::Float(0.0)),
            Query::select().filter("gold", CmpOp::Le, Value::Int(bound as i64 / 2)),
            Query::select().filter("team", CmpOp::Eq, Value::Str(team_name(team).into())),
            Query::select().filter("team", CmpOp::Gt, Value::Str(team_name(team).into())),
            awake.clone(),
            Query::select().filter("home", CmpOp::Eq, Value::Vec2(0.0, 0.0)),
            awake.clone().within(center, radius).filter("gold", CmpOp::Gt, Value::Int(10)),
        ];
        for q in &probes {
            prop_assert_eq!(q.run(&bulk), q.run_scan(&bulk), "probe vs scan: {:?}", q);
            prop_assert_eq!(q.run(&bulk), q.run(&rowwise), "bulk vs row-by-row: {:?}", q);
        }
        for (c, kind) in w.indexed_components() {
            let (b, r) = (bulk.index_on(c).unwrap(), rowwise.index_on(c).unwrap());
            prop_assert_eq!((b.kind(), b.len(), b.ndv()), (kind, r.len(), r.ndv()), "index {}", c);
            prop_assert_eq!(b.numeric_bounds(), r.numeric_bounds(), "index {}", c);
        }
        // every posting list, in its stored order: an equality probe
        // hands one list back as the index holds it
        for (e, c, value) in w.rows() {
            let postings = |w: &World| {
                let mut out = Vec::new();
                w.index_probe(&c, CmpOp::Eq, &value, &mut out);
                out
            };
            let held = postings(&bulk);
            prop_assert_eq!(&held, &postings(&rowwise), "posting of {:?} in {}", value, c);
            prop_assert!(
                held.windows(2).all(|p| p[0] < p[1]),
                "posting of {:?} in {} out of id order", value, c
            );
            let keyed = !matches!(value, Value::Float(x) if x.is_nan())
                && !matches!(value, Value::Vec2(x, y) if x.is_nan() || y.is_nan());
            prop_assert!(
                w.index_on(&c).is_none() || !keyed || held.contains(&e),
                "{:?} missing from the posting of {:?} in {}", e, value, c
            );
        }

        prop_assert!(!bulk.has_view(burned), "burned slots stay burned");
        for (&v, plan) in views.iter().zip(&plans) {
            prop_assert_eq!(bulk.view_plan(v), Some(plan));
            let out = bulk.view_output(v);
            prop_assert_eq!(&out, &plan.evaluate(&bulk).unwrap(), "vs recompute: {:?}", plan);
            prop_assert_eq!(&out, &rowwise.view_output(v), "vs incremental: {:?}", plan);
            // (a live float sum carries its own history of rounding)
            if out.as_groups().is_none() {
                prop_assert_eq!(&out, &w.view_output(v), "vs the live world: {:?}", plan);
            }
        }

        // the allocator hands out the same slots, in the same order
        for _ in 0..50 {
            prop_assert_eq!(bulk.spawn(), rowwise.spawn());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// ISSUE-3 satellite: standing views survive a restore and keep
    /// tracking the `run_scan` oracle when the workload *resumes* on the
    /// recovered world — random writes, component removals, despawns,
    /// template spawns, and ticks split at an arbitrary crash point,
    /// with and without a secondary index (the index changes how the
    /// restored views re-seed: planner probe instead of scan).
    #[test]
    fn restored_views_track_scan_oracle_when_workload_resumes(
        ops in proptest::collection::vec(index_op_strategy(), 2..70),
        split_at in 0usize..70,
        hp_bound in 0.0f32..100.0,
        team in 0u8..4,
        cx in -40.0f32..40.0,
        cy in -40.0f32..40.0,
        r in 0.5f32..120.0,
        index_hp in any::<bool>(),
    ) {
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        w.define_component("dmg", ValueType::Float).unwrap();
        w.define_component("team", ValueType::Str).unwrap();
        if index_hp {
            w.create_index("hp", IndexKind::Sorted).unwrap();
        }
        let queries = vec![
            Query::select().filter("hp", CmpOp::Lt, Value::Float(hp_bound)),
            Query::select().filter("team", CmpOp::Eq, Value::Str(team_name(team).into())),
            Query::select()
                .within(Vec2::new(cx, cy), r)
                .filter("hp", CmpOp::Ge, Value::Float(hp_bound)),
        ];
        let views: Vec<_> = queries.iter().map(|q| w.register_view(q.clone())).collect();

        let split = split_at.min(ops.len());
        let mut live = Vec::new();
        for op in &ops[..split] {
            apply_index_op(&mut w, &mut live, op);
        }
        w.refresh_views();

        // "crash": rebuild from rows + catalog, then resume the
        // remaining workload on the restored world
        let mut rw = restore_via_catalog(&w);
        prop_assert_eq!(rw.tick(), w.tick());
        for (&v, q) in views.iter().zip(&queries) {
            // pre-restore handles resolve, rows carried over exactly
            prop_assert!(rw.has_view(v));
            prop_assert_eq!(rw.view_rows(v), w.view_rows(v), "at restore: {:?}", q);
            // changelogs re-anchor: restored views come back
            // unsubscribed, and a new subscriber starts from now
            prop_assert!(rw.take_view_delta::<EntityId>(v).is_none(), "restored unsubscribed");
            rw.subscribe_view(v);
            prop_assert!(rw.take_view_delta::<EntityId>(v).unwrap().is_empty());
        }

        // resuming entity bookkeeping: the live list must be rebuilt
        // from the restored world, exactly as a restarted process would
        let mut live = rw.entity_vec();
        for op in &ops[split..] {
            apply_index_op(&mut rw, &mut live, op);
            if matches!(op, IndexOp::Tick) {
                for (&v, q) in views.iter().zip(&queries) {
                    let oracle = q.run_scan(&rw);
                    prop_assert_eq!(
                        rw.view_rows(v),
                        oracle.as_slice(),
                        "post-restore tick: {:?}", q
                    );
                }
            }
        }
        rw.refresh_views();
        for (&v, q) in views.iter().zip(&queries) {
            let oracle = q.run_scan(&rw);
            prop_assert_eq!(rw.view_rows(v), oracle.as_slice(), "final: {:?}", q);
        }
        // the restored index (if any) stayed a pure optimization
        let probe = Query::select().filter("hp", CmpOp::Lt, Value::Float(hp_bound));
        prop_assert_eq!(probe.run(&rw), probe.run_scan(&rw));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The cost-based planner must be a pure optimization: whatever
    /// access path and predicate order it picks, the result set equals
    /// the reference Query evaluation.
    #[test]
    fn planned_query_equals_reference(
        positions in proptest::collection::vec((-60.0f32..60.0, -60.0f32..60.0), 1..60),
        hps in proptest::collection::vec(0.0f32..100.0, 1..8),
        center in (-60.0f32..60.0, -60.0f32..60.0),
        radius in 0.5f32..200.0,
        hp_bound in 0.0f32..100.0,
        use_within in any::<bool>(),
        exclude_first in any::<bool>(),
    ) {
        use gamedb_core::{plan, TableStats};
        let w = build_world(&positions, &hps);
        let stats = TableStats::build(&w);
        let first = w.entities().next();
        let mut q = Query::select()
            .filter("hp", CmpOp::Le, Value::Float(hp_bound))
            .filter("dmg", CmpOp::Ge, Value::Float(2.0));
        if use_within {
            q = q.within(Vec2::new(center.0, center.1), radius);
        }
        if exclude_first {
            if let Some(e) = first {
                q = q.excluding(e);
            }
        }
        let p = plan(&q, &stats);
        prop_assert_eq!(p.run(&w), q.run(&w), "plan: {}", p.explain());
    }
}

/// Replay one change-stream record onto a world — the core-level shape
/// of what every stream consumer (WAL redo, stream-shipped replication)
/// does with a recorded segment.
fn replay_change(w: &mut World, op: &gamedb_core::ChangeOp) {
    use gamedb_core::ChangeOp;
    match op {
        ChangeOp::Set {
            id,
            component,
            new,
            ..
        } => {
            // records carry interned ids; a `ComponentDefined` record
            // always precedes the first use of a new id, so resolution
            // against the replay world cannot fail
            let name = w.component_name(*component).unwrap().to_string();
            w.set(*id, &name, new.clone()).unwrap();
        }
        ChangeOp::Removed { id, component, .. } => {
            let name = w.component_name(*component).unwrap().to_string();
            let _ = w.remove_component(*id, &name);
        }
        ChangeOp::Spawned { id } => {
            w.restore_entity(*id).unwrap();
        }
        ChangeOp::Despawned { id, .. } => {
            w.despawn(*id);
        }
        ChangeOp::ComponentDefined {
            component,
            name,
            ty,
        } => {
            w.ensure_component_at(*component, name, *ty).unwrap();
        }
        ChangeOp::CreateIndex { component, kind } => {
            let name = w.component_name(*component).unwrap().to_string();
            if w.index_on(&name).map(|idx| idx.kind()) != Some(*kind) {
                w.create_index(&name, *kind).unwrap();
            }
        }
        ChangeOp::DropIndex { component } => {
            let name = w.component_name(*component).unwrap().to_string();
            w.drop_index(&name);
        }
        ChangeOp::RegisterPlanView { slot, plan } => {
            w.import_view_at_slot(*slot, plan.clone()).unwrap();
        }
        ChangeOp::DropView { slot } => {
            if let Some(v) = w.view_id_at(*slot) {
                w.drop_view(v);
            }
        }
        ChangeOp::RetargetView { slot, x, y, radius } => {
            if let Some(v) = w.view_id_at(*slot) {
                w.retarget_view(v, Vec2::new(*x, *y), *radius).unwrap();
            }
        }
        ChangeOp::TickTo { tick } => {
            w.advance_tick_to(*tick);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// ISSUE-4 acceptance property: the change stream is a **complete**
    /// record of mutation — replaying a recorded stream onto the base
    /// state reconstructs rows, secondary indexes, standing views (at
    /// their slots), and the tick counter exactly, under random
    /// interleavings of writes, component removals, despawns, template
    /// spawns, ticks (whole effect batches), spatial-view retargets,
    /// and catalog churn.
    #[test]
    fn change_stream_replay_reconstructs_world(
        ops in proptest::collection::vec(index_op_strategy(), 1..70),
        hp_bound in 0.0f32..100.0,
        retarget_every in 2usize..7,
        index_hp in any::<bool>(),
    ) {
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        w.define_component("dmg", ValueType::Float).unwrap();
        w.define_component("team", ValueType::Str).unwrap();
        if index_hp {
            w.create_index("hp", IndexKind::Sorted).unwrap();
        }
        let bubble = w.register_view(Query::select().within(Vec2::ZERO, 25.0));
        w.register_view(Query::select().filter("hp", CmpOp::Lt, Value::Float(hp_bound)));
        let mut live = Vec::new();
        for i in 0..5 {
            let e = w.spawn_at(Vec2::new(i as f32 * 6.0 - 12.0, 0.0));
            w.set_f32(e, "hp", 10.0 + i as f32 * 20.0).unwrap();
            w.set_f32(e, "dmg", 1.0).unwrap();
            live.push(e);
        }
        w.refresh_views();

        // the "base snapshot" the stream replays onto
        let base = w.clone();
        let tap = w.attach_tap();

        let mut extra_views: Vec<gamedb_core::ViewId> = Vec::new();
        for (k, op) in ops.iter().enumerate() {
            apply_index_op(&mut w, &mut live, op);
            if k % retarget_every == 1 {
                w.retarget_view(
                    bubble,
                    Vec2::new(k as f32 - 20.0, 3.0),
                    8.0 + (k % 30) as f32,
                )
                .unwrap();
            }
            // catalog churn mid-stream: index toggles, view lifecycle
            if k % 7 == 3 {
                if w.index_on("team").is_none() {
                    w.create_index("team", IndexKind::Hash).unwrap();
                } else {
                    w.drop_index("team");
                }
            }
            if k % 11 == 5 {
                extra_views.push(w.register_view(Query::select()));
            }
            if k % 13 == 7 {
                if let Some(v) = extra_views.pop() {
                    w.drop_view(v);
                }
            }
        }
        w.refresh_views();

        let changes: Vec<gamedb_core::Change> = w.tap_pending(tap).to_vec();
        // seq is gap-free and ordered — consumers rely on it
        for (i, c) in changes.iter().enumerate() {
            prop_assert_eq!(c.seq, changes[0].seq + i as u64);
        }

        let mut r = base;
        for c in &changes {
            replay_change(&mut r, &c.op);
        }
        r.refresh_views();

        prop_assert_eq!(r.rows(), w.rows(), "row dumps must match");
        prop_assert_eq!(r.tick(), w.tick(), "tick must match");
        prop_assert_eq!(r.export_catalog(), w.export_catalog(), "catalogs must match");
        for id in w.view_ids() {
            prop_assert_eq!(r.view_rows(id), w.view_rows(id), "view {:?}", id);
            let oracle = w.view_query(id).run_scan(&r);
            prop_assert_eq!(
                r.view_rows(id),
                oracle.as_slice(),
                "replayed view {:?} vs scan oracle", id
            );
        }
        // replayed indexes stay pure optimizations
        let probe = Query::select().filter("hp", CmpOp::Lt, Value::Float(hp_bound));
        prop_assert_eq!(probe.run(&r), probe.run_scan(&r));
    }
}

// ---- the effect merge against a naive oracle ----

const EFFECT_COMPONENTS: [&str; 6] = ["hp", "gold", "home", "pos", "tag", "ghost"];

/// One generated effect: target entity slot, component, and the effect.
/// `wild` draws ignore the component's type — mismatched `Set`s,
/// numeric combinators on `pos` / str, anything on the undefined `ghost`.
fn effect_strategy() -> impl Strategy<Value = (u8, &'static str, Effect)> {
    (0u8..8, 0usize..5, 0u8..5, -3i8..4, -3i8..4, 0u8..12).prop_map(
        |(ent, comp, kind, a, b, wild)| {
            let (x, y) = (a as f32 * 0.5, b as f32 * 0.25);
            let vec2 = |k: u8| match k % 2 {
                0 => Effect::Set(Value::Vec2(x, y)),
                _ => Effect::AddVec2(x, y),
            };
            let numeric = |set: Value| match kind % 4 {
                0 => Effect::Set(set),
                1 => Effect::Add(x as f64 * 1.5),
                2 => Effect::Min(x as f64 * 20.0),
                _ => Effect::Max(y as f64 * 20.0),
            };
            if wild == 0 {
                let comp = EFFECT_COMPONENTS[(comp + kind as usize) % 6];
                let effect = match kind {
                    0 => Effect::Set([Value::Float(x), Value::Int(a as i64), Value::Bool(a > 0)][b.unsigned_abs() as usize % 3].clone()),
                    1 => Effect::Add(x as f64),
                    2 => Effect::Min(x as f64),
                    3 => Effect::Max(x as f64),
                    _ => Effect::AddVec2(x, y),
                };
                return (ent, comp, effect);
            }
            let effect = match EFFECT_COMPONENTS[comp] {
                "hp" => numeric(Value::Float(x)),
                "gold" => numeric(Value::Int(a as i64)),
                "tag" => Effect::Set(Value::Str(format!("t{a}"))),
                _ => vec2(kind),
            };
            (ent, EFFECT_COMPONENTS[comp], effect)
        },
    )
}

/// Eight target slots: six live entities holding different subsets of
/// the components (one without a position), one despawned before the
/// tick, and the id that slot hands out next.
fn effect_world() -> (World, Vec<EntityId>) {
    let mut w = World::new();
    for (name, ty) in [
        ("hp", ValueType::Float),
        ("gold", ValueType::Int),
        ("home", ValueType::Vec2),
        ("tag", ValueType::Str),
    ] {
        w.define_component(name, ty).unwrap();
    }
    w.create_index("hp", IndexKind::Sorted).unwrap();
    w.create_index("gold", IndexKind::Hash).unwrap();
    let mut ids = Vec::new();
    for i in 0..7 {
        let e = if i == 3 { w.spawn() } else { w.spawn_at(Vec2::new(i as f32 * 3.0, -(i as f32))) };
        if i % 2 == 0 {
            w.set_f32(e, "hp", 10.0 * i as f32).unwrap();
        }
        if i % 3 != 0 {
            w.set(e, "gold", Value::Int(i - 2)).unwrap();
        }
        if i == 1 {
            w.set(e, "home", Value::Vec2(1.0, 1.0)).unwrap();
            w.set(e, "tag", Value::Str("one".into())).unwrap();
        }
        ids.push(e);
    }
    w.despawn(ids[6]);
    let reborn = w.spawn_at(Vec2::new(50.0, 50.0));
    ids.push(reborn);
    (w, ids)
}

/// The canonical within-slot order of effects: kind, then payload bits.
fn effect_order_key(e: &Effect) -> (u8, u64, u64) {
    match e {
        Effect::Set(Value::Float(x)) => (0, x.to_bits() as u64, 0),
        Effect::Set(Value::Int(x)) => (0, *x as u64, 0),
        Effect::Set(Value::Bool(b)) => (0, *b as u64, 0),
        Effect::Set(Value::Vec2(x, y)) => (0, ((x.to_bits() as u64) << 32) | y.to_bits() as u64, 0),
        // FNV-1a
        Effect::Set(Value::Str(s)) => {
            let fnv = |h: u64, b: u8| (h ^ b as u64).wrapping_mul(1099511628211);
            (0, s.bytes().fold(1469598103934665603, fnv), 0)
        }
        Effect::Add(x) => (1, x.to_bits(), 0),
        Effect::Min(x) => (2, x.to_bits(), 0),
        Effect::Max(x) => (3, x.to_bits(), 0),
        Effect::AddVec2(x, y) => (4, x.to_bits() as u64, y.to_bits() as u64),
    }
}

/// What one effect makes of a slot's current value, spelled out per
/// combinator with every name looked up on the spot.
fn naive_fold(world: &World, name: &str, cur: Option<Value>, effect: &Effect) -> Result<Value, gamedb_core::CoreError> {
    use gamedb_core::CoreError;
    let ty = world.component_type(name);
    let mismatch = |expected, got| CoreError::TypeMismatch {
        component: name.to_string(),
        expected,
        got,
    };
    let unknown = CoreError::UnknownComponent(name.to_string());
    match (effect, cur) {
        (Effect::Set(v), _) => match ty {
            None => Err(unknown),
            Some(ty) if ty != v.value_type() => Err(mismatch(ty, v.value_type())),
            Some(_) => Ok(v.clone()),
        },
        (Effect::AddVec2(dx, dy), cur) => match cur {
            None => Ok(Value::Vec2(0.0 + dx, 0.0 + dy)),
            Some(Value::Vec2(x, y)) => Ok(Value::Vec2(x + dx, y + dy)),
            Some(other) => Err(mismatch(other.value_type(), ValueType::Vec2)),
        },
        (Effect::Add(_), _) if name == "pos" => Err(mismatch(ValueType::Vec2, ValueType::Float)),
        (numeric, cur) => {
            let (Effect::Add(x) | Effect::Min(x) | Effect::Max(x)) = numeric else {
                unreachable!()
            };
            match (cur, ty) {
                (Some(Value::Float(c)), _) => Ok(Value::Float(match numeric {
                    Effect::Add(_) => c + *x as f32,
                    Effect::Min(_) => (c as f64).min(*x) as f32,
                    _ => (c as f64).max(*x) as f32,
                })),
                // an integer changes only where the bound binds
                (Some(Value::Int(c)), _) => Ok(Value::Int(match numeric {
                    Effect::Add(_) => c + *x as i64,
                    Effect::Min(_) if *x < c as f64 => *x as i64,
                    Effect::Max(_) if *x > c as f64 => *x as i64,
                    _ => c,
                })),
                (Some(other), _) => Err(mismatch(other.value_type(), ValueType::Float)),
                // an absent numeric component counts from its zero
                (None, Some(ValueType::Float)) => Ok(Value::Float(*x as f32)),
                (None, Some(ValueType::Int)) => Ok(Value::Int(*x as i64)),
                (None, Some(other)) => Err(mismatch(other, ValueType::Float)),
                (None, None) => Err(unknown),
            }
        }
    }
}

/// `EffectBuffer::apply` the slow way: sort `(entity, name, order key)`
/// tuples by comparing the strings, fold them one at a time through
/// `World::get`, then write each slot's final value through `World::set`
/// — pos first and then column by column, as one batch commit does, and
/// only the slots before the first write that fails in batch order
/// (entity, then name), whose error the batch returns.
fn naive_apply(
    world: &mut World,
    mut ops: Vec<(EntityId, &'static str, Effect)>,
    mut despawns: Vec<EntityId>,
    spawn: Option<SpawnRequest>,
) -> Result<usize, gamedb_core::CoreError> {
    ops.sort_by(|a, b| {
        (a.0, a.1)
            .cmp(&(b.0, b.1))
            .then_with(|| effect_order_key(&a.2).cmp(&effect_order_key(&b.2)))
    });
    let mut slots: Vec<(EntityId, &str, Value)> = Vec::new();
    let mut applied = 0;
    for (id, name, effect) in &ops {
        if !world.is_live(*id) {
            continue;
        }
        let pending = slots.last().is_some_and(|(i, n, _)| i == id && n == name);
        let cur = if pending { slots.pop().map(|s| s.2) } else { world.get(*id, name) };
        slots.push((*id, name, naive_fold(world, name, cur, effect)?));
        applied += 1;
    }
    let failed = slots
        .iter()
        .position(|(_, name, value)| world.component_type(name) != Some(value.value_type()));
    let error = failed.map(|at| {
        let (id, name, value) = slots[at].clone();
        world
            .clone()
            .set(id, name, value)
            .expect_err("this write fails")
    });
    slots.truncate(failed.unwrap_or(slots.len()));
    slots.sort_by_key(|(_, name, _)| world.component_id(name).map_or(u32::MAX, |c| c.as_u32()));
    for (id, name, value) in slots {
        world.set(id, name, value)?;
    }
    if let Some(e) = error {
        return Err(e);
    }
    despawns.sort_unstable();
    despawns.dedup();
    for id in despawns {
        world.despawn(id);
    }
    if let Some(req) = spawn {
        let id = world.spawn_at(req.pos);
        for (name, value) in req.components {
            world.set(id, &name, value)?;
        }
    }
    Ok(applied)
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// The effect merge — name keys, the rank-once sort, the by-id fold,
    /// the keyed batch — must be indistinguishable from [`naive_apply`]:
    /// same world, same change-stream records, same `Err` (variant and
    /// component name), whatever order the effects were pushed in and
    /// however they were split over buffers and merged back. Covers all
    /// five combinators on float / int / vec2 / `pos` / str targets,
    /// absent values, a dead and a same-tick-despawned target, an
    /// undefined component and type-mismatched effects.
    #[test]
    fn effect_merge_equals_naive_fold(
        effects in proptest::collection::vec(effect_strategy(), 0..40),
        homes in proptest::collection::vec(0usize..4, 40),
        buffers in 1usize..5,
        merges in proptest::collection::vec((0usize..4, 0usize..4), 3),
        despawn in proptest::option::of(0usize..8),
        spawn in any::<bool>(),
    ) {
        let (mut real, ids) = effect_world();
        let (mut naive, _) = effect_world();
        let (tap_real, tap_naive) = (real.attach_tap(), naive.attach_tap());

        let ops: Vec<_> = effects.iter().map(|(e, c, fx)| (ids[*e as usize], *c, fx.clone())).collect();
        let mut bufs: Vec<EffectBuffer> = (0..buffers).map(|_| EffectBuffer::new()).collect();
        let mut pushed: Vec<Vec<(EntityId, String, Effect)>> = vec![Vec::new(); buffers];
        for (op, home) in ops.iter().zip(&homes) {
            bufs[home % buffers].push(op.0, op.1, op.2.clone());
            pushed[home % buffers].push((op.0, op.1.to_string(), op.2.clone()));
        }
        let despawns: Vec<EntityId> = despawn.map(|i| vec![ids[i], ids[i]]).unwrap_or_default();
        for &id in &despawns {
            bufs[0].despawn(id);
        }
        let request = spawn.then(|| SpawnRequest {
            components: vec![("hp".to_string(), Value::Float(7.0))],
            pos: Vec2::new(9.0, 9.0),
        });
        if let Some(req) = &request {
            bufs[buffers - 1].spawn(req.clone());
        }
        for (buf, pushed) in bufs.iter().zip(&pushed) {
            // names come back, in push order
            prop_assert_eq!(&buf.ops().cloned().collect::<Vec<_>>(), pushed);
        }
        // merge back in a generated chunking
        for (into, from) in merges {
            if bufs.len() > 1 {
                let from = bufs.remove(from % bufs.len());
                let into = into % bufs.len();
                bufs[into].merge(from);
            }
        }
        let mut merged = bufs.remove(0);
        for rest in bufs {
            merged.merge(rest);
        }
        prop_assert_eq!(merged.ops().count(), ops.len());

        let got = merged.apply(&mut real);
        let want = naive_apply(&mut naive, ops, despawns, request);
        prop_assert_eq!(got, want);
        prop_assert_eq!(real.rows(), naive.rows());
        prop_assert_eq!(real.tap_pending(tap_real), naive.tap_pending(tap_naive));
        // the indexes followed the writes
        let probe = Query::select().filter("hp", CmpOp::Lt, Value::Float(15.0));
        prop_assert_eq!(probe.run(&real), probe.run_scan(&real));
    }
}

/// A float for the kernel columns: small halves, NaN, both zeros and
/// both infinities.
fn kernel_float() -> impl Strategy<Value = f32> {
    prop_oneof![
        (-4i32..4).prop_map(|x| x as f32 * 0.5),
        Just(f32::NAN),
        Just(-0.0f32),
        Just(0.0f32),
        Just(f32::INFINITY),
        Just(f32::NEG_INFINITY),
    ]
}

/// An int for the kernel columns: small ones and ones beyond 2^53, where
/// widening to `f64` rounds.
fn kernel_int() -> impl Strategy<Value = i64> {
    prop_oneof![
        -3i64..3,
        Just(1i64 << 53),
        Just((1i64 << 53) + 1),
        Just(-(1i64 << 53) - 1),
        Just(i64::MAX),
        Just(i64::MIN),
    ]
}

const KERNEL_STRS: [&str; 5] = ["", "a", "a\0", "ab", "b"];
const KERNEL_COLS: [&str; 5] = ["f", "i", "s", "b", "v"];

/// One kernel row: a value or none per column (`f` float, `i` int, `s`
/// str, `b` bool, `v` vec2).
type KernelRow = (Option<f32>, Option<i64>, Option<u8>, Option<bool>, Option<(f32, f32)>);

fn kernel_row() -> impl Strategy<Value = KernelRow> {
    (
        proptest::option::of(kernel_float()),
        proptest::option::of(kernel_int()),
        proptest::option::of(0u8..5),
        proptest::option::of(any::<bool>()),
        proptest::option::of((kernel_float(), kernel_float())),
    )
}

fn set_kernel_row(w: &mut World, e: EntityId, row: &KernelRow) {
    let (f, i, s, b, v) = *row;
    let values = [
        f.map(Value::Float),
        i.map(Value::Int),
        s.map(|s| Value::Str(KERNEL_STRS[s as usize].into())),
        b.map(Value::Bool),
        v.map(|(x, y)| Value::Vec2(x, y)),
    ];
    for (col, value) in KERNEL_COLS.iter().zip(values) {
        match value {
            Some(value) => w.set(e, col, value).unwrap(),
            None => {
                w.remove_component(e, col).unwrap();
            }
        }
    }
}

/// The literal of a kernel query on column `col`: of the column's own
/// type when `same`, else of another type (a comparison that never holds).
fn kernel_literal(col: usize, same: bool, (f, i, s, b): (f32, i64, u8, bool)) -> Value {
    let str_lit = || Value::Str(KERNEL_STRS[s as usize % KERNEL_STRS.len()].into());
    match (col, same) {
        // numbers meet floats and ints alike, ints beyond 2^53 included
        (0 | 1, true) if b => Value::Float(f),
        (0 | 1, true) => Value::Int(i),
        (2, true) => str_lit(),
        (3, true) => Value::Bool(b),
        (4, true) => Value::Vec2(f, i as f32),
        (0 | 1 | 3 | 4, false) => str_lit(),
        _ => Value::Float(f),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// The block filter kernels decide what the by-name oracle decides.
    /// Columns of all five types hold NaN, `±0.0`, `±inf`, missing
    /// values, and ints beyond 2^53 compared against float literals;
    /// queries take every `CmpOp` against a literal of the column's type
    /// or another, an excluded id, and a `within` whose radius may be
    /// negative. Worlds span one to three 1,024-slot blocks with slot
    /// gaps from despawns (some reused), and carry an index on some
    /// column, so the scan's blocks and the probes' id lists both reach
    /// the kernels. `Plan::run`, `count`, every `AggFn` (bit for bit) and
    /// a registered view's membership — seeded, then folded over a batch
    /// of writes — equal folds over `run_scan` / `matches`.
    #[test]
    fn filter_kernels_equal_the_by_name_oracle(
        rows in proptest::collection::vec(kernel_row(), 900..2300),
        gap_every in 2usize..40,
        gap_run in (0usize..2300, 0usize..1100),
        respawns in 0usize..30,
        index in 0u8..4,
        queries in proptest::collection::vec(
            (
                (0usize..5, 0u8..6, any::<bool>()),
                (kernel_float(), kernel_int(), 0u8..5, any::<bool>()),
                proptest::option::of(0usize..2300),
                proptest::option::of((-10.0f32..60.0, -5.0f32..30.0, -5.0f32..40.0)),
            ),
            6..7,
        ),
        churn in proptest::collection::vec((0usize..2300, kernel_row()), 1..60),
    ) {
        let mut w = World::new();
        for (col, ty) in KERNEL_COLS.iter().zip([
            ValueType::Float,
            ValueType::Int,
            ValueType::Str,
            ValueType::Bool,
            ValueType::Vec2,
        ]) {
            w.define_component(col, ty).unwrap();
        }
        match index {
            1 => w.create_index("i", IndexKind::Sorted).unwrap(),
            2 => w.create_index("s", IndexKind::Hash).unwrap(),
            3 => w.create_index("f", IndexKind::Sorted).unwrap(),
            _ => {}
        }
        let place = |i: usize| Vec2::new((i % 64) as f32, (i / 64) as f32);
        let mut ids = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            let e = w.spawn_at(place(i));
            set_kernel_row(&mut w, e, row);
            ids.push(e);
        }
        // gaps: every `gap_every`-th row, and one contiguous run
        let (run_at, run_len) = gap_run;
        for (i, &e) in ids.iter().enumerate() {
            if i % gap_every == 0 || (run_at..run_at + run_len).contains(&i) {
                w.despawn(e);
            }
        }
        for (i, row) in rows.iter().take(respawns).enumerate() {
            let e = w.spawn_at(place(i + 7));
            set_kernel_row(&mut w, e, row);
            ids.push(e);
        }
        let opname = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
        let queries: Vec<Query> = queries
            .iter()
            .map(|&((col, op, same), lit, exclude, within)| {
                let mut q = Query::select().filter(
                    KERNEL_COLS[col],
                    opname[op as usize],
                    kernel_literal(col, same, lit),
                );
                if let Some(x) = exclude {
                    q = q.excluding(ids[x % ids.len()]);
                }
                if let Some((cx, cy, r)) = within {
                    q = q.within(Vec2::new(cx, cy), r);
                }
                q
            })
            .collect();
        let views: Vec<_> = queries.iter().map(|q| w.register_view(q.clone())).collect();
        for q in &queries {
            let scan = q.run_scan(&w);
            prop_assert_eq!(q.run(&w), scan.clone(), "{:?}", q);
            prop_assert_eq!(q.count(&w), scan.len());
            for c in ["f", "i"] {
                for f in [
                    AggFn::Count,
                    AggFn::Sum(c.into()),
                    AggFn::Min(c.into()),
                    AggFn::Max(c.into()),
                    AggFn::Avg(c.into()),
                    AggFn::ArgMin(c.into()),
                    AggFn::ArgMax(c.into()),
                ] {
                    let got = gamedb_core::aggregate(&w, q, &f);
                    let want = aggregate_oracle(&w, &scan, &f);
                    prop_assert!(same_bits(&got, &want), "{:?} over {:?}: {:?} vs {:?}", f, q, got, want);
                }
            }
        }
        for (q, &v) in queries.iter().zip(&views) {
            prop_assert_eq!(w.view_rows(v).to_vec(), q.run_scan(&w), "seeded {:?}", q);
        }
        // one batch of writes, despawns and spawns, folded by the views
        for &(at, ref row) in &churn {
            let e = ids[at % ids.len()];
            match at % 5 {
                0 => {
                    w.despawn(e);
                }
                1 => {
                    let fresh = w.spawn_at(place(at));
                    set_kernel_row(&mut w, fresh, row);
                    ids.push(fresh);
                }
                _ if w.is_live(e) => set_kernel_row(&mut w, e, row),
                _ => {}
            }
        }
        w.refresh_views();
        for (q, &v) in queries.iter().zip(&views) {
            prop_assert_eq!(w.view_rows(v).to_vec(), q.run_scan(&w), "folded {:?}", q);
        }
    }
}

/// A group key as a `BTreeMap` orders it: numbers by value (`-0.0` is
/// `0.0`), booleans, strings by bytes, vectors by their bit patterns
/// (`-0.0` folded onto `0.0`); NaN has none.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum RunKey {
    Num(u64),
    Bool(bool),
    Str(String),
    Vec2([u32; 2]),
}

fn run_key(v: &Value) -> Option<RunKey> {
    let unzero = |x: f32| if x == 0.0 { 0.0f32 } else { x };
    Some(match v {
        Value::Str(s) => RunKey::Str(s.clone()),
        Value::Bool(b) => RunKey::Bool(*b),
        Value::Vec2(x, y) if x.is_nan() || y.is_nan() => return None,
        Value::Vec2(x, y) => RunKey::Vec2([unzero(*x).to_bits(), unzero(*y).to_bits()]),
        v => {
            let x = v.as_number().filter(|x| !x.is_nan())?;
            let bits = if x == 0.0 { 0.0f64 } else { x }.to_bits();
            RunKey::Num(if bits >> 63 == 0 { bits | 1 << 63 } else { !bits })
        }
    })
}

const RUN_STRS: [&str; 8] = ["guild_000_a", "guild_000_b", "guild_000", "", "\0", "a", "a\0", "zz"];

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// Group folds equal a full-key sort, whichever way the group
    /// numbers come: from the prefix-radix run of an unindexed column, or
    /// from a hash or sorted index's key ids put in key order. String keys
    /// share eight bytes (`guild_000_a` / `guild_000_b`), `""` and `"\0"`,
    /// a key and itself plus a trailing `\0`; float keys `-0.0`, `0.0`,
    /// `±inf` and NaN; int keys 2^53 and 2^53 + 1, one group as `compare`
    /// has them; bool and vec2 keys. For every key column and group
    /// aggregate, the groups, their order and their values (bit for bit —
    /// the sums are over fractional floats, so they hold id order within
    /// a group) equal a `BTreeMap` fold over `run_scan`: from
    /// `ViewPlan::evaluate`, from a view seeded on the spot, and from a
    /// view registered before any index and maintained since (after
    /// churn, a maintained sum or average is held to the keys and their
    /// order only: subtracting what it added rounds unlike a fresh
    /// fold). Checked once built, after a churn batch (value-only
    /// writes, a key moved to another live key, one key emptied so its
    /// index id retires, a new key on another row that takes the freed
    /// id), and after every index is dropped and created again.
    #[test]
    fn group_run_prefix_sort_equals_key_sort(
        rows in proptest::collection::vec(
            (
                proptest::option::of(0u8..8),
                proptest::option::of(0u8..7),
                proptest::option::of(any::<bool>()),
                proptest::option::of((0u8..7, 0u8..7)),
                proptest::option::of(0u8..6),
                wide_float(),
            ),
            50..1500,
        ),
        bound in -1.0e6f32..1.0e6,
    ) {
        use gamedb_core::{PlanOutput, ViewId};
        use std::collections::BTreeMap;
        let nums = [-0.0f32, 0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 1.5, -2.0];
        let ints = [1i64 << 53, (1 << 53) + 1, 0, -7, 3, i64::MIN];
        let cols = ["gs", "gn", "gb", "gv", "gi"];
        let queries = [
            Query::select(),
            Query::select().filter("val", CmpOp::Lt, Value::Float(bound)),
        ];
        let aggs = [
            AggFn::Count,
            AggFn::Sum("val".into()),
            AggFn::Avg("val".into()),
            AggFn::Min("val".into()),
            AggFn::Max("val".into()),
        ];
        let unzero = |v: f64| if v == 0.0 { 0.0 } else { v };
        let check = |w: &mut World, views: &[ViewId], stage: &str, kind: Option<IndexKind>| {
            let mut kept = views.iter();
            for q in &queries {
                for col in cols {
                    let mut groups: BTreeMap<RunKey, (usize, Vec<f64>)> = BTreeMap::new();
                    for e in q.run_scan(w) {
                        let Some(key) = w.get(e, col).as_ref().and_then(run_key) else { continue };
                        let g = groups.entry(key).or_default();
                        g.0 += 1;
                        g.1.extend(w.get_number(e, "val").filter(|v| !v.is_nan()));
                    }
                    for agg in &aggs {
                        let want: Vec<(RunKey, u64)> = groups
                            .iter()
                            .map(|(k, (rows, vals))| {
                                let sum = vals.iter().fold(0.0, |s, v| s + v);
                                let value = match agg {
                                    AggFn::Count => *rows as f64,
                                    AggFn::Sum(_) => sum,
                                    AggFn::Avg(_) if vals.is_empty() => 0.0,
                                    AggFn::Avg(_) => sum / vals.len() as f64,
                                    AggFn::Min(_) => vals.iter().copied().map(unzero).reduce(f64::min).unwrap_or(0.0),
                                    _ => vals.iter().copied().map(unzero).reduce(f64::max).unwrap_or(0.0),
                                };
                                (k.clone(), value.to_bits())
                            })
                            .collect();
                        let plan = q.clone().into_grouped_plan(col, agg.clone()).unwrap();
                        let PlanOutput::Groups(evaluated) = plan.evaluate(w).unwrap() else {
                            return Err(TestCaseError::fail("a group plan evaluates to groups"));
                        };
                        let fresh = w.register_view_plan(plan).unwrap();
                        let seeded = w.view_groups(fresh).to_vec();
                        w.drop_view(fresh);
                        let maintained = w.view_groups(*kept.next().unwrap()).to_vec();
                        // a maintained sum subtracts what it added, so after churn
                        // only its keys and their order are a fresh fold's
                        let drifts = stage != "built" && matches!(agg, AggFn::Sum(_) | AggFn::Avg(_));
                        for (how, rows) in [("evaluate", evaluated), ("seeded", seeded), ("maintained", maintained)] {
                            let exact = how != "maintained" || !drifts;
                            let got: Vec<(RunKey, u64)> = rows
                                .iter()
                                .zip(&want)
                                .map(|(g, w)| {
                                    let key = g.key.as_ref().and_then(run_key).expect("a keyed group");
                                    (key, if exact { g.value.to_bits() } else { w.1 })
                                })
                                .collect();
                            prop_assert_eq!(rows.len(), want.len(), "{} {} {:?} by {} over {:?}, {:?} index", stage, how, agg, col, q, kind);
                            prop_assert_eq!(&got, &want, "{} {} {:?} by {} over {:?}, {:?} index", stage, how, agg, col, q, kind);
                        }
                    }
                }
            }
            Ok(())
        };
        for kind in [None, Some(IndexKind::Hash), Some(IndexKind::Sorted)] {
            let mut w = World::new();
            for (col, ty) in [
                ("gs", ValueType::Str),
                ("gn", ValueType::Float),
                ("gb", ValueType::Bool),
                ("gv", ValueType::Vec2),
                ("gi", ValueType::Int),
                ("val", ValueType::Float),
            ] {
                w.define_component(col, ty).unwrap();
            }
            let mut ids = Vec::new();
            for (i, &(s, n, b, v, int, val)) in rows.iter().enumerate() {
                let e = w.spawn_at(Vec2::new(i as f32, 0.0));
                if let Some(s) = s {
                    w.set(e, "gs", Value::Str(RUN_STRS[s as usize].into())).unwrap();
                }
                if let Some(n) = n {
                    w.set(e, "gn", Value::Float(nums[n as usize])).unwrap();
                }
                if let Some(b) = b {
                    w.set(e, "gb", Value::Bool(b)).unwrap();
                }
                if let Some((x, y)) = v {
                    w.set(e, "gv", Value::Vec2(nums[x as usize], nums[y as usize])).unwrap();
                }
                if let Some(int) = int {
                    w.set(e, "gi", Value::Int(ints[int as usize])).unwrap();
                }
                w.set_f32(e, "val", val).unwrap();
                ids.push(e);
            }
            let mut views = Vec::new();
            for q in &queries {
                for col in cols {
                    for agg in &aggs {
                        let plan = q.clone().into_grouped_plan(col, agg.clone()).unwrap();
                        views.push(w.register_view_plan(plan).unwrap());
                    }
                }
            }
            let index = |w: &mut World| {
                if let Some(kind) = kind {
                    for col in cols {
                        w.create_index(col, kind).unwrap();
                    }
                }
            };
            index(&mut w);
            check(&mut w, &views, "built", kind)?;

            for (i, &e) in ids.iter().enumerate().step_by(7) {
                w.set_f32(e, "val", (i % 5) as f32 * 0.25).unwrap();
            }
            let (first, last) = (ids[0], ids[ids.len() - 1]);
            let fresh = [
                Value::Str("guild_000_c".into()),
                Value::Float(7.25),
                Value::Bool(false),
                Value::Vec2(9.0, -1.0),
                Value::Int(12),
            ];
            for (col, fresh) in cols.into_iter().zip(fresh) {
                // a row moves to the key of the row after it
                if let Some(v) = w.get(ids[1], col) {
                    w.set(first, col, v).unwrap();
                }
                // the key of the row before the last empties ...
                let mut emptied = None;
                if let Some(key) = w.get(ids[ids.len() - 2], col) {
                    let target = run_key(&key);
                    for &e in &ids {
                        if w.get(e, col).as_ref().and_then(run_key) == target {
                            w.remove_component(e, col).unwrap();
                        }
                    }
                    emptied = Some(key);
                }
                // ... and a new key (a bool column has none new) takes its id
                let fresh = match (col, emptied) {
                    ("gb", Some(key)) => key,
                    _ => fresh,
                };
                w.set(last, col, fresh).unwrap();
            }
            w.refresh_views();
            check(&mut w, &views, "churned", kind)?;

            for col in cols {
                w.drop_index(col);
            }
            index(&mut w);
            w.refresh_views();
            check(&mut w, &views, "re-indexed", kind)?;
        }
    }
}

/// One op of a generated write batch against the `hp` / `gold` / `team`
/// table; `u16` payloads pick a live entity.
#[derive(Debug, Clone)]
enum BatchOp {
    Hp(u16, f32),
    Gold(u16, i64),
    Team(u16, u8),
    /// Two writes to one slot in one batch.
    Twice(u16, f32, f32),
    Spawn(f32, i64, u8),
    Despawn(u16),
    RemoveHp(u16),
    RemoveTeam(u16),
}

/// A float from a few keys, so keys empty and are born again (key id
/// reuse), plus NaN, both zeros and a fraction.
fn churn_float() -> impl Strategy<Value = f32> {
    prop_oneof![
        (0i32..6).prop_map(|x| x as f32),
        Just(f32::NAN),
        Just(-0.0f32),
        Just(0.0f32),
        Just(2.5f32),
    ]
}

/// An int from a few keys, plus ints beyond 2^53 that collide as `f64`
/// keys (2^53 and 2^53 + 1) and the smallest int.
fn churn_int() -> impl Strategy<Value = i64> {
    prop_oneof![
        -3i64..4,
        (0i64..4).prop_map(|d| (1i64 << 53) + d),
        Just(i64::MIN),
    ]
}

/// Team names: three sharing their first eight bytes, the empty string,
/// and a string and itself plus a trailing NUL.
const CHURN_TEAMS: [&str; 6] = ["guild_000_a", "guild_000_b", "guild_000", "", "a", "a\0"];

fn batch_op_strategy() -> impl Strategy<Value = BatchOp> {
    prop_oneof![
        (0u16..512, churn_float()).prop_map(|(i, x)| BatchOp::Hp(i, x)),
        (0u16..512, churn_int()).prop_map(|(i, g)| BatchOp::Gold(i, g)),
        (0u16..512, 0u8..6).prop_map(|(i, t)| BatchOp::Team(i, t)),
        (0u16..512, churn_float(), churn_float()).prop_map(|(i, a, b)| BatchOp::Twice(i, a, b)),
        (churn_float(), churn_int(), 0u8..6).prop_map(|(h, g, t)| BatchOp::Spawn(h, g, t)),
        (0u16..512).prop_map(BatchOp::Despawn),
        (0u16..512).prop_map(BatchOp::RemoveHp),
        (0u16..512).prop_map(BatchOp::RemoveTeam),
    ]
}

fn team(t: u8) -> Value {
    Value::Str(CHURN_TEAMS[t as usize].into())
}

fn queue_batch_op(b: &mut gamedb_core::WriteBatch, live: &[EntityId], op: &BatchOp) {
    if live.is_empty() && !matches!(op, BatchOp::Spawn(..)) {
        return;
    }
    let at = |i: u16| live[i as usize % live.len()];
    match *op {
        BatchOp::Hp(i, x) => b.set(at(i), "hp", Value::Float(x)),
        BatchOp::Gold(i, g) => b.set(at(i), "gold", Value::Int(g)),
        BatchOp::Team(i, t) => b.set(at(i), "team", team(t)),
        BatchOp::Twice(i, x, y) => {
            b.set(at(i), "hp", Value::Float(x));
            b.set(at(i), "hp", Value::Float(y));
        }
        BatchOp::Spawn(h, g, t) => b.spawn(
            vec![
                ("hp".into(), Value::Float(h)),
                ("gold".into(), Value::Int(g)),
                ("team".into(), team(t)),
            ],
            Vec2::new(0.0, 0.0),
        ),
        BatchOp::Despawn(i) => b.despawn(at(i)),
        BatchOp::RemoveHp(i) => b.remove(at(i), "hp"),
        BatchOp::RemoveTeam(i) => b.remove(at(i), "team"),
    }
}

/// Every index of `w` against a fresh `create_index` over the same
/// column: equal size, NDV and numeric bounds, and for every stored
/// value equal `Eq` probes (one posting list) and, where the index
/// serves them, `Lt` / `Ge` probes — each also equal to `run_scan`.
fn index_equals_rebuild(w: &World) -> Result<(), TestCaseError> {
    let indexed: Vec<(String, IndexKind)> = w
        .indexed_components()
        .map(|(c, k)| (c.to_string(), k))
        .collect();
    for (c, kind) in &indexed {
        let mut fresh = w.clone();
        fresh.drop_index(c);
        fresh.create_index(c, *kind).unwrap();
        let (a, b) = (w.index_on(c).unwrap(), fresh.index_on(c).unwrap());
        prop_assert_eq!(
            (a.len(), a.ndv(), a.numeric_bounds()),
            (b.len(), b.ndv(), b.numeric_bounds()),
            "index {}",
            c
        );
        let mut values: Vec<Value> = Vec::new();
        for v in w.entities().filter_map(|e| w.get(e, c)) {
            if !values.contains(&v) {
                values.push(v);
            }
        }
        for v in &values {
            for op in [CmpOp::Eq, CmpOp::Lt, CmpOp::Ge] {
                if !a.supports(op) {
                    continue;
                }
                let (mut got, mut rebuilt) = (Vec::new(), Vec::new());
                prop_assert!(w.index_probe(c, op, v, &mut got));
                prop_assert!(fresh.index_probe(c, op, v, &mut rebuilt));
                prop_assert_eq!(&got, &rebuilt, "{} {:?} {:?}", c, op, v);
                let scan = Query::select().filter(c, op, v.clone()).run_scan(w);
                prop_assert_eq!(&got, &scan, "{} {:?} {:?} vs scan", c, op, v);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// The batch write path (`apply_batch`: column groups, spawns,
    /// despawns, removals) keeps every index exactly what a fresh
    /// `create_index` over the same column builds, batch after batch:
    /// writes to `hp` (sorted), `gold` and `team` (either kind) with NaN,
    /// ±0, ints beyond 2^53 colliding as `f64`, strings sharing eight
    /// bytes, repeated writes to one slot, and keys emptied and born
    /// again, over indexes built before or after the base rows.
    #[test]
    fn batched_index_equals_rebuilt_index(
        base in proptest::collection::vec(
            (churn_float(), proptest::option::of(churn_int()), proptest::option::of(0u8..6)),
            1..200,
        ),
        batches in proptest::collection::vec(
            proptest::collection::vec(batch_op_strategy(), 1..60),
            1..8,
        ),
        hash_gold in any::<bool>(),
        hash_team in any::<bool>(),
        index_first in any::<bool>(),
    ) {
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        w.define_component("gold", ValueType::Int).unwrap();
        w.define_component("team", ValueType::Str).unwrap();
        let kind = |hash: bool| if hash { IndexKind::Hash } else { IndexKind::Sorted };
        let indexes = [("hp", IndexKind::Sorted), ("gold", kind(hash_gold)), ("team", kind(hash_team))];
        if index_first {
            for (c, k) in indexes {
                w.create_index(c, k).unwrap();
            }
        }
        for (i, &(hp, gold, t)) in base.iter().enumerate() {
            let e = w.spawn_at(Vec2::new(i as f32, 0.0));
            w.set_f32(e, "hp", hp).unwrap();
            if let Some(g) = gold {
                w.set(e, "gold", Value::Int(g)).unwrap();
            }
            if let Some(t) = t {
                w.set(e, "team", team(t)).unwrap();
            }
        }
        if !index_first {
            for (c, k) in indexes {
                w.create_index(c, k).unwrap();
            }
        }
        index_equals_rebuild(&w)?;
        for ops in &batches {
            let live = w.entity_vec();
            let mut batch = gamedb_core::WriteBatch::new();
            for op in ops {
                queue_batch_op(&mut batch, &live, op);
            }
            // a write to an entity an earlier op of the batch despawned
            // stops the batch there; the indexes are exact either way
            let _ = w.apply_batch(batch);
            index_equals_rebuild(&w)?;
        }
    }
}

/// One splitmix64 step: the row values of a world too large to draw a
/// row at a time.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Give `e` its row: `hp` a fraction (NaN in one row of 97), `gold` one
/// of 300 ints (missing in one row of 13), `team` skewed — `t0` holds
/// about half the rows, `t1` a quarter, on down to a handful in `t12`.
fn dense_row(w: &mut World, e: EntityId, state: &mut u64) {
    let r = mix(state);
    let hp = if r.is_multiple_of(97) { f32::NAN } else { (r % 100_000) as f32 / 8.0 };
    w.set_f32(e, "hp", hp).unwrap();
    if !r.is_multiple_of(13) {
        w.set(e, "gold", Value::Int(((r >> 20) % 300) as i64)).unwrap();
    }
    let t = (r >> 40).trailing_zeros().min(12);
    w.set(e, "team", Value::Str(format!("t{t}"))).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// An attribute probe orders its candidates by a bitmap of the
    /// index's slot span when they are dense and by a radix sort when
    /// they are sparse (`SecondaryIndex::probe`); both must hand
    /// over exactly the rows a scan keeps. The world holds 4,097–4,159
    /// slots after despawn/respawn churn: respawned slots carry
    /// generation 1, freed slots sit between live ones, and the last
    /// slot — alone in a partial bitmap word — is live and keyed. Probes
    /// are sorted float and int ranges (one- and two-sided) and
    /// hash-string equalities sized from one row to every row, alone
    /// and under a residual. Each must give `Query::run`, `count` and
    /// `aggregate` (Sum bit-identical, Min, ArgMin) equal to scan-based
    /// folds, `World::index_probe` the scan's ids, and an index plan
    /// exactly its postings' total as `planner.candidates`.
    #[test]
    fn dense_and_sparse_probes_equal_scan(
        seed in any::<u64>(),
        tail in 1usize..64,
        frees in 1usize..1500,
        refills in 1usize..1500,
        indexes_first in any::<bool>(),
        cuts in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 4),
    ) {
        use gamedb_core::{plan, Access, TableStats};
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        w.define_component("gold", ValueType::Int).unwrap();
        w.define_component("team", ValueType::Str).unwrap();
        let indexes = [("hp", IndexKind::Sorted), ("gold", IndexKind::Sorted), ("team", IndexKind::Hash)];
        if indexes_first {
            for (c, k) in indexes {
                w.create_index(c, k).unwrap();
            }
        }
        let mut state = seed;
        let slots = 4096 + tail;
        let mut ids = Vec::with_capacity(slots);
        for _ in 0..slots {
            let e = w.spawn();
            dense_row(&mut w, e, &mut state);
            ids.push(e);
        }
        // free slots anywhere but the last, then refill some of them:
        // the free list hands them back, one generation on
        let mut freed = 0;
        for _ in 0..frees {
            let e = ids[(mix(&mut state) % (slots as u64 - 1)) as usize];
            if w.is_live(e) {
                w.despawn(e);
                freed += 1;
            }
        }
        for _ in 0..refills.min(freed) {
            let e = w.spawn();
            prop_assert!(e.generation() > 0 && (e.index() as usize) < slots);
            dense_row(&mut w, e, &mut state);
            ids[e.index() as usize] = e;
        }
        if !indexes_first {
            for (c, k) in indexes {
                w.create_index(c, k).unwrap();
            }
        }
        prop_assert!(w.is_live(ids[slots - 1]));
        let registry = gamedb_metrics::MetricsRegistry::new();
        w.attach_metrics(&registry);

        let mut hps: Vec<f32> = w
            .entities()
            .filter_map(|e| w.get_number(e, "hp"))
            .filter(|v| !v.is_nan())
            .map(|v| v as f32)
            .collect();
        hps.sort_by(f32::total_cmp);
        let at = |f: f64| hps[((f * hps.len() as f64) as usize).min(hps.len() - 1)];
        let hp = |op, v: f32| ("hp", op, Value::Float(v));
        let gold = |op, f: f64| ("gold", op, Value::Int((f * 301.0) as i64));
        let team = |f: f64| ("team", CmpOp::Eq, Value::Str(format!("t{}", (f * 13.0) as u32)));
        // single predicates, one row to every row
        let mut preds = vec![hp(CmpOp::Ge, hps[0]), hp(CmpOp::Eq, at(0.5)), team(0.0)];
        for &(a, b) in &cuts {
            preds.extend([hp(CmpOp::Lt, at(a)), hp(CmpOp::Ge, at(b)), gold(CmpOp::Le, a), team(b)]);
        }
        let mut queries: Vec<Query> = preds
            .iter()
            .map(|(c, op, v)| Query::select().filter(*c, *op, v.clone()))
            .collect();
        for &(a, b) in &cuts {
            queries.push(
                Query::select()
                    .filter("hp", CmpOp::Ge, Value::Float(at(a.min(b))))
                    .filter("hp", CmpOp::Le, Value::Float(at(a.max(b)))),
            );
            queries.push(
                Query::select()
                    .filter("gold", CmpOp::Gt, Value::Int((a.min(b) * 301.0) as i64))
                    .filter("gold", CmpOp::Lt, Value::Int((a.max(b) * 301.0) as i64)),
            );
            let (c, op, v) = team(a);
            queries.push(Query::select().filter(c, op, v).filter("hp", CmpOp::Lt, Value::Float(at(b))));
        }

        for (c, op, v) in &preds {
            let mut got = Vec::new();
            prop_assert!(w.index_probe(c, *op, v, &mut got));
            let scan = Query::select().filter(*c, *op, v.clone()).run_scan(&w);
            prop_assert_eq!(got, scan, "index_probe {} {:?} {:?}", c, op, v);
        }
        for q in &queries {
            let scan = q.run_scan(&w);
            prop_assert_eq!(q.run(&w), scan.clone(), "query: {:?}", q);
            prop_assert_eq!(q.count(&w), scan.len());
            for f in [AggFn::Sum("gold".into()), AggFn::Min("hp".into()), AggFn::ArgMin("hp".into())] {
                let got = gamedb_core::aggregate(&w, q, &f);
                let want = aggregate_oracle(&w, &scan, &f);
                prop_assert!(same_bits(&got, &want), "{:?} over {:?}: {:?} vs {:?}", f, q, got, want);
            }
            // an index plan draws exactly its postings as candidates
            let p = plan(q, &TableStats::for_query(&w, q));
            let postings = match &p.access {
                Access::AttributeIndex { component, op, value } => {
                    let mut probed = Query::select().filter(component.as_str(), *op, value.clone());
                    if let Some((op2, value2)) = &p.second_bound {
                        probed = probed.filter(component.as_str(), *op2, value2.clone());
                    }
                    probed.run_scan(&w).len()
                }
                _ => w.len(),
            };
            let before = registry.snapshot().counter("planner.candidates");
            prop_assert_eq!(p.count(&w), scan.len());
            let drawn = registry.snapshot().counter("planner.candidates") - before;
            prop_assert_eq!(drawn, postings as u64, "{}", p.explain());
        }
    }
}

/// Strings a dictionary must keep apart: the empty string, three sharing
/// their first eight bytes, `"a"` and `"a\0"`, and non-ASCII ones.
const ORACLE_STRS: [&str; 8] = [
    "",
    "guild_000_a",
    "guild_000_b",
    "guild_000",
    "a",
    "a\0",
    "ü",
    "日本語",
];

/// The string column `name` of `w` against its oracle, one `Option` per
/// slot: `get`, `get_str` and presence per slot, the present count,
/// `World::rows`, and a dictionary holding exactly the distinct strings
/// the live slots hold.
fn str_column_agrees(w: &World, oracle: &[Option<String>]) -> Result<(), TestCaseError> {
    let col = w.column("name").unwrap();
    for e in w.entities() {
        let want = oracle[e.index() as usize].as_deref();
        prop_assert_eq!(w.get(e, "name"), want.map(|s| Value::Str(s.into())));
    }
    for (slot, want) in oracle.iter().enumerate() {
        prop_assert_eq!(col.get_str(slot), want.as_deref(), "slot {}", slot);
        prop_assert_eq!(col.has(slot), want.is_some(), "slot {}", slot);
    }
    prop_assert_eq!(col.present_count(), oracle.iter().flatten().count());
    let rows: Vec<(EntityId, Value)> = (w.rows().into_iter())
        .filter(|(_, name, _)| name == "name")
        .map(|(e, _, v)| (e, v))
        .collect();
    let want: Vec<(EntityId, Value)> = (w.entities())
        .filter_map(|e| Some((e, Value::Str(oracle[e.index() as usize].clone()?))))
        .collect();
    prop_assert_eq!(rows, want);
    let distinct: std::collections::BTreeSet<&String> = oracle.iter().flatten().collect();
    match col.data() {
        gamedb_core::ColumnData::Str(s) => {
            prop_assert_eq!(s.distinct(), distinct.len(), "the live strings");
            let mut held: Vec<&str> = s.strings().collect();
            held.sort_unstable();
            prop_assert!(distinct.iter().map(|s| s.as_str()).eq(held));
        }
        other => prop_assert!(false, "name is a string column: {:?}", other),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// A dictionary-encoded string column equals a `Vec<Option<String>>`
    /// oracle by slot under seeded steps: spawns with and without the
    /// string, writes of a new or an already held string, a slot
    /// overwritten with the string it holds, removals, despawns and
    /// respawns into freed slots, over strings that share eight bytes,
    /// `""`, `"a"` vs `"a\0"` and non-ASCII ones. After every step it
    /// agrees in `get`, `get_str`, presence and `World::rows`, and its
    /// dictionary holds exactly the distinct live strings — a string is
    /// freed with its last slot.
    #[test]
    fn str_column_equals_string_oracle(seed in any::<u64>(), steps in 1usize..160) {
        let mut state = seed;
        let mut w = World::new();
        w.define_component("name", ValueType::Str).unwrap();
        w.define_component("hp", ValueType::Float).unwrap();
        let mut live: Vec<EntityId> = Vec::new();
        let mut oracle: Vec<Option<String>> = Vec::new();
        for _ in 0..steps {
            let r = mix(&mut state);
            let s = ORACLE_STRS[(r >> 8) as usize % ORACLE_STRS.len()];
            let pick = (r >> 32) as usize;
            match (r % 8, live.is_empty()) {
                (0 | 1, _) | (_, true) => {
                    let e = w.spawn();
                    let slot = e.index() as usize;
                    if oracle.len() <= slot {
                        oracle.resize(slot + 1, None);
                    }
                    if (r >> 16) & 3 != 0 {
                        w.set(e, "name", Value::Str(s.into())).unwrap();
                        oracle[slot] = Some(s.into());
                    }
                    w.set_f32(e, "hp", (r >> 40) as f32).unwrap();
                    live.push(e);
                }
                (2..=4, false) => {
                    let e = live[pick % live.len()];
                    w.set(e, "name", Value::Str(s.into())).unwrap();
                    oracle[e.index() as usize] = Some(s.into());
                }
                (5, false) => {
                    // the string the slot holds, written again
                    let e = live[pick % live.len()];
                    if let Some(held) = oracle[e.index() as usize].clone() {
                        w.set(e, "name", Value::Str(held)).unwrap();
                    }
                }
                (6, false) => {
                    let e = live[pick % live.len()];
                    let had = w.remove_component(e, "name").unwrap();
                    prop_assert_eq!(had, oracle[e.index() as usize].take().is_some());
                }
                _ => {
                    let e = live.swap_remove(pick % live.len());
                    prop_assert!(w.despawn(e));
                    oracle[e.index() as usize] = None;
                }
            }
            str_column_agrees(&w, &oracle)?;
        }
    }
}
