//! `query_mix` — the same world and DDL as `write_churn`, read-only: each
//! tick is one seeded batch of 200 queries in seven classes. It uses
//! `core`'s indexes and planner as a reader where `write_churn` uses them
//! as a writer, so a change that buys reads with write cost (or the
//! reverse) shows as opposite moves on the pair.

use std::collections::BTreeMap;
use std::hint::black_box;

use gamedb_content::{CmpOp, Value};
use gamedb_core::{aggregate, plan, Access, AggFn, EntityId, Query, TableStats, World};
use gamedb_spatial::Vec2;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{
    check_table_views, table_world, team_name, Env, Step, TableWorld, Workload, GOLD_SPREAD,
    HP_SPREAD,
};
use crate::trace::Probe;

const ENTITIES: usize = 100_000;
/// Queries per class per batch; 200 in total.
/// Sized on the costs the first traced runs showed (a two-sided range on
/// a sorted index costs ~1 ms here, a scan ~2 ms, a point lookup ~3 us),
/// so that no class is lost in the batch and a batch stays near 25 ms.
const N_EQ: usize = 100;
const N_RANGE: usize = 8;
const N_SCAN: usize = 2;
const N_WITHIN: usize = 48;
const N_KNN: usize = 38;
const N_AGG: usize = 2;
const N_GROUP: usize = 2;
pub const BATCH: usize = N_EQ + N_RANGE + N_SCAN + N_WITHIN + N_KNN + N_AGG + N_GROUP;
const KNN_K: usize = 10;
/// Every this-many-th batch is re-answered by scans and compared: up to
/// `CHECK_PER_CLASS` queries of each class (a scan oracle costs ~2 ms, so
/// re-answering all 200 would outweigh the measured run).
const CHECK_EVERY: u64 = 10;
const CHECK_PER_CLASS: usize = 6;

#[derive(Default)]
struct Batch {
    /// `team == t AND hp < x` — hash index on team, residual on hp.
    eq: Vec<Query>,
    /// `gold >= a AND gold < a + w` — sorted index on gold.
    range: Vec<Query>,
    /// `dmg > x` — no index: a full scan with a filter.
    scan: Vec<Query>,
    /// `World::within(center, radius)`.
    within: Vec<(Vec2, f32)>,
    /// `World::knn(center, KNN_K)`.
    knn: Vec<Vec2>,
    /// `Sum(gold)` over `hp < x`.
    agg: Vec<Query>,
    /// `Sum(gold)` per team over the weakest few percent (`hp < x`).
    group: Vec<Query>,
}

#[derive(Default)]
struct Answers {
    eq: Vec<Vec<EntityId>>,
    range: Vec<Vec<EntityId>>,
    scan: Vec<Vec<EntityId>>,
    within: Vec<Vec<EntityId>>,
    knn: Vec<Vec<EntityId>>,
    sums: Vec<f64>,
    groups: Vec<Vec<(Option<Value>, f64)>>,
}

pub struct QueryMix {
    table: TableWorld,
    rng: StdRng,
    batch: Batch,
    answers: Answers,
    /// Candidate rows the chosen access paths had to visit / rows
    /// returned, over the checked batches.
    examined: u64,
    returned: u64,
}

impl QueryMix {
    pub fn build(env: &Env) -> Result<Self, String> {
        let mut rng = StdRng::seed_from_u64(env.seed);
        let mut table = table_world(env.sized(ENTITIES), &mut rng)?;
        if let Some(reg) = &env.registry {
            table.world.attach_metrics(reg);
        }
        Ok(QueryMix {
            table,
            rng,
            batch: Batch::default(),
            answers: Answers::default(),
            examined: 0,
            returned: 0,
        })
    }

    fn hp_below(rng: &mut StdRng) -> Query {
        let x = rng.gen_range(HP_SPREAD / 10..HP_SPREAD) as f32;
        Query::select().filter("hp", CmpOp::Lt, Value::Float(x))
    }
}

/// Rows the planner's chosen access path visits for `q`, from outside:
/// the pushed-down predicate's index-probe size, or every row for a scan.
fn rows_examined(world: &World, q: &Query) -> u64 {
    match plan(q, &TableStats::for_query(world, q)).access {
        Access::AttributeIndex {
            component,
            op,
            value,
        } => {
            let mut out = Vec::new();
            if world.index_probe(&component, op, &value, &mut out) {
                out.len() as u64
            } else {
                world.len() as u64
            }
        }
        Access::SpatialIndex { center, radius } => {
            let mut out = Vec::new();
            world.within(center, radius, &mut out);
            out.len() as u64
        }
        Access::FullScan => world.len() as u64,
    }
}

fn sum_gold(world: &World, rows: &[EntityId]) -> f64 {
    rows.iter()
        .filter_map(|&e| world.get_number(e, "gold"))
        .sum()
}

impl Workload for QueryMix {
    fn prepare(&mut self, _s: u64) {
        let rng = &mut self.rng;
        let (map, teams) = (self.table.map, self.table.teams);
        let point = |rng: &mut StdRng| Vec2::new(rng.gen::<f32>() * map, rng.gen::<f32>() * map);
        let mut b = Batch::default();
        for _ in 0..N_EQ {
            let team = team_name(rng.gen_range(0..teams));
            b.eq.push(Self::hp_below(rng).filter("team", CmpOp::Eq, Value::Str(team)));
        }
        for _ in 0..N_RANGE {
            let a = rng.gen_range(0..GOLD_SPREAD);
            let w = rng.gen_range(1..GOLD_SPREAD / 100);
            b.range.push(
                Query::select()
                    .filter("gold", CmpOp::Ge, Value::Int(a))
                    .filter("gold", CmpOp::Lt, Value::Int(a + w)),
            );
        }
        for _ in 0..N_SCAN {
            let x = rng.gen_range(90.0..99.0f32);
            b.scan
                .push(Query::select().filter("dmg", CmpOp::Gt, Value::Float(x)));
        }
        for _ in 0..N_WITHIN {
            b.within.push((point(rng), rng.gen_range(10.0..30.0f32)));
        }
        for _ in 0..N_KNN {
            b.knn.push(point(rng));
        }
        for _ in 0..N_AGG {
            b.agg.push(Self::hp_below(rng));
        }
        for _ in 0..N_GROUP {
            let x = rng.gen_range(HP_SPREAD / 100..HP_SPREAD / 16) as f32;
            b.group
                .push(Query::select().filter("hp", CmpOp::Lt, Value::Float(x)));
        }
        self.batch = b;
    }

    fn step(&mut self, _s: u64, probe: &mut Probe) -> Result<Step, String> {
        let world = &self.table.world;
        let b = &self.batch;
        let mut a = Answers::default();
        let mut failed: Option<String> = None;
        for (name, queries, answers) in [
            ("core.query.eq", &b.eq, &mut a.eq),
            ("core.query.range", &b.range, &mut a.range),
            ("core.query.scan", &b.scan, &mut a.scan),
        ] {
            probe.span_n(name, queries.len() as u32, |_| {
                answers.extend(queries.iter().map(|q| q.run(world)));
            });
        }
        probe.span_n("spatial.within", b.within.len() as u32, |_| {
            for &(c, r) in &b.within {
                let mut out = Vec::new();
                world.within(c, r, &mut out);
                a.within.push(out);
            }
        });
        probe.span_n("spatial.knn", b.knn.len() as u32, |_| {
            for &c in &b.knn {
                let mut out = Vec::new();
                world.knn(c, KNN_K, &mut out);
                a.knn.push(out);
            }
        });
        probe.span_n("core.query.agg", b.agg.len() as u32, |_| {
            let sum = AggFn::Sum("gold".into());
            for q in &b.agg {
                match aggregate(world, q, &sum).as_number() {
                    Some(v) => a.sums.push(v),
                    None => failed = Some("Sum returned a non-number".into()),
                }
            }
        });
        probe.span_n("core.query.group", b.group.len() as u32, |_| {
            for q in &b.group {
                let out = q
                    .clone()
                    .into_grouped_plan("team", AggFn::Sum("gold".into()))
                    .and_then(|p| p.evaluate(world));
                match out {
                    Ok(out) => a.groups.push(
                        out.as_groups()
                            .unwrap_or_default()
                            .iter()
                            .map(|g| (g.key.clone(), g.value))
                            .collect(),
                    ),
                    Err(e) => failed = Some(format!("grouped aggregate: {e}")),
                }
            }
        });
        self.answers = black_box(a);
        match failed {
            Some(e) => Err(e),
            None => Ok(Step {
                ops: BATCH as u64,
                is_tick: true,
            }),
        }
    }

    fn warmup_steps(&self) -> u64 {
        10
    }

    fn nominal_ticks_per_s(&self) -> f64 {
        36.0
    }

    fn check(&mut self, s: u64) -> Vec<String> {
        if !(s + 1).is_multiple_of(CHECK_EVERY) {
            return Vec::new();
        }
        let world = &self.table.world;
        let (b, a) = (&self.batch, &self.answers);
        let mut failures = Vec::new();
        let dist2 = |e: EntityId, c: Vec2| {
            world
                .pos(e)
                .map(|p| (p.x - c.x).powi(2) + (p.y - c.y).powi(2))
        };
        for (class, queries, answers) in [
            ("eq", &b.eq, &a.eq),
            ("range", &b.range, &a.range),
            ("scan", &b.scan, &a.scan),
        ] {
            for (q, got) in queries.iter().zip(answers).take(CHECK_PER_CLASS) {
                self.examined += rows_examined(world, q);
                self.returned += got.len() as u64;
                if *got != q.run_scan(world) {
                    failures.push(format!("batch {s}: {class} query diverged from run_scan"));
                }
            }
        }
        for (&(c, r), got) in b.within.iter().zip(&a.within).take(CHECK_PER_CLASS) {
            let mut got = got.clone();
            got.sort_unstable();
            // the grid's candidate count is not visible from outside
            self.examined += got.len() as u64;
            self.returned += got.len() as u64;
            if got != Query::select().within(c, r).run_scan(world) {
                failures.push(format!("batch {s}: within probe diverged from run_scan"));
            }
        }
        for (&c, got) in b.knn.iter().zip(&a.knn).take(CHECK_PER_CLASS) {
            self.examined += got.len() as u64;
            self.returned += got.len() as u64;
            // brute-force oracle on distances (ids may differ on ties)
            let mut d: Vec<f32> = world.entities().filter_map(|e| dist2(e, c)).collect();
            let k = KNN_K.min(d.len());
            let kth = if k == 0 {
                0.0
            } else {
                *d.select_nth_unstable_by(k - 1, f32::total_cmp).1
            };
            let worst = got
                .iter()
                .filter_map(|&e| dist2(e, c))
                .fold(0.0f32, f32::max);
            if got.len() != k || worst > kth {
                failures.push(format!(
                    "batch {s}: knn returned a farther neighbour than brute force"
                ));
            }
        }
        for (q, &got) in b.agg.iter().zip(&a.sums).take(CHECK_PER_CLASS) {
            self.examined += rows_examined(world, q);
            self.returned += 1;
            if got != sum_gold(world, &q.run_scan(world)) {
                failures.push(format!("batch {s}: Sum(gold) diverged from a scan"));
            }
        }
        for (q, got) in b.group.iter().zip(&a.groups).take(CHECK_PER_CLASS) {
            self.examined += rows_examined(world, q);
            self.returned += got.len() as u64;
            let mut expect: BTreeMap<String, f64> = BTreeMap::new();
            for e in q.run_scan(world) {
                if let (Some(Value::Str(t)), Some(g)) =
                    (world.get(e, "team"), world.get_number(e, "gold"))
                {
                    *expect.entry(t).or_default() += g;
                }
            }
            let got: BTreeMap<String, f64> = got
                .iter()
                .filter_map(|(k, v)| match k {
                    Some(Value::Str(t)) => Some((t.clone(), *v)),
                    _ => None,
                })
                .collect();
            if got != expect {
                failures.push(format!("batch {s}: grouped Sum(gold) diverged from a scan"));
            }
        }
        failures
    }

    fn drain(&mut self, _probe: &mut Probe) -> Result<(), String> {
        Ok(())
    }

    fn final_check(&mut self) -> Vec<String> {
        // read-only: the standing views must still be exactly their oracles
        check_table_views(&self.table.world, &self.table.views, "end")
    }

    fn world(&self) -> &World {
        &self.table.world
    }

    fn counts(&mut self) -> Vec<(&'static str, f64)> {
        vec![
            ("core.changes", self.table.world.change_seq() as f64),
            ("core.rows_examined", self.examined as f64),
            ("core.rows_returned", self.returned as f64),
        ]
    }

    fn sizes(&self) -> String {
        format!(
            "{} entities, {BATCH} queries per batch (eq {N_EQ}, range {N_RANGE}, scan {N_SCAN}, \
             within {N_WITHIN}, knn {N_KNN}, agg {N_AGG}, group {N_GROUP})",
            self.table.world.len()
        )
    }
}
