//! The five workloads and what they share: the step protocol the harness
//! drives, the seeded table world three of them run on, and the temp
//! directory each one owns and removes.
//!
//! Everything a workload feeds the system is drawn from one `StdRng`
//! seeded with `--seed`; the system under test only ever sees the
//! generated inputs.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use gamedb_content::{CmpOp, Value, ValueType};
use gamedb_core::{
    AggFn, EntityId, IndexKind, JoinOn, PlanNode, Query, ViewId, ViewPlan, World, WriteBatch,
};
use gamedb_metrics::MetricsRegistry;
use gamedb_persist::WalStore;
use gamedb_spatial::Vec2;
use rand::rngs::StdRng;
use rand::Rng;

use crate::trace::Probe;

pub mod cluster_tick;
pub mod crash_recover;
pub mod query_mix;
pub mod script_tick;
pub mod write_churn;

/// Workload names, in the order a bare invocation runs them. Final:
/// later issues refer to them.
pub const NAMES: [&str; 5] = [
    "cluster_tick",
    "script_tick",
    "write_churn",
    "query_mix",
    "crash_recover",
];

/// What a build needs besides its own constants.
pub struct Env {
    pub seed: u64,
    /// `--quick`: world sizes ÷10, same code paths and checks.
    pub quick: bool,
    /// Attached to every subsystem in the traced run only.
    pub registry: Option<MetricsRegistry>,
    /// Directory (inside the build's target dir) for WAL backends.
    pub tmp_root: PathBuf,
}

impl Env {
    /// `n` at full size, `n / 10` under `--quick`.
    pub fn sized(&self, n: usize) -> usize {
        if self.quick {
            (n / 10).max(1)
        } else {
            n
        }
    }
}

/// What one timed step did.
pub struct Step {
    /// Operations attempted (one tick, one query, one recovery each).
    pub ops: u64,
    /// A tick's duration is a latency sample; a recovery's is only wall
    /// time owed.
    pub is_tick: bool,
}

impl Step {
    pub fn tick() -> Step {
        Step {
            ops: 1,
            is_tick: true,
        }
    }
}

/// The protocol the harness drives, one step at a time:
/// `prepare` (untimed) → `step` (timed) → `check` (untimed).
pub trait Workload {
    /// Untimed: draw step `s`'s inputs from the seeded generator.
    fn prepare(&mut self, s: u64);
    /// Timed: run step `s` through the public APIs, one span per call.
    fn step(&mut self, s: u64, probe: &mut Probe) -> Result<Step, String>;
    /// Untimed: correctness checks due after step `s`; one message per
    /// failed check.
    fn check(&mut self, s: u64) -> Vec<String>;
    /// Whether the timed loop may stop after step `s` (a workload with a
    /// cycle stops only on a cycle boundary, so every run has the same
    /// mix of steps).
    fn at_boundary(&self, _s: u64) -> bool {
        true
    }
    /// Traced run only, outside the tick and its clock: a measurement
    /// beside the tick of a call the tick makes where no span can reach.
    /// Its spans are named `side.*` and stay out of the layer shares.
    fn side_probe(&mut self, _probe: &mut Probe) {}
    /// Untimed steps run before the clock starts (a whole number of
    /// cycles for a workload that has one).
    fn warmup_steps(&self) -> u64;
    /// Ticks per wall-clock second at full size on the machine the
    /// workload was sized on. The harness turns `--seconds` into a tick
    /// count with it, so every run of a given length times the same
    /// ticks: a workload whose ticks get slower as its world ages would
    /// otherwise read slower on a faster machine.
    fn nominal_ticks_per_s(&self) -> f64;
    /// Timed, once, after the last step: work the system still owes
    /// (the async WAL backlog).
    fn drain(&mut self, probe: &mut Probe) -> Result<(), String>;
    /// Untimed: end-of-run checks.
    fn final_check(&mut self) -> Vec<String>;
    /// The primary world (for the state digest).
    fn world(&self) -> &World;
    /// Untimed. Cumulative counts since build, by name; the harness
    /// reports the difference between the end of warm-up and a fixed tick.
    /// Names ending in `.peak` are maxima since `reset_peaks`. A workload
    /// with an async WAL waits for the writer first, so byte counts are
    /// exact and not a race with it.
    fn counts(&mut self) -> Vec<(&'static str, f64)>;
    /// Forget maxima observed during warm-up.
    fn reset_peaks(&mut self) {}
    /// One-line description of the built sizes, for the report.
    fn sizes(&self) -> String;
}

pub fn build(name: &str, env: &Env) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "cluster_tick" => Box::new(cluster_tick::ClusterTick::build(env)?),
        "script_tick" => Box::new(script_tick::ScriptTick::build(env)?),
        "write_churn" => Box::new(write_churn::WriteChurn::build(env)?),
        "query_mix" => Box::new(query_mix::QueryMix::build(env)?),
        "crash_recover" => Box::new(crash_recover::CrashRecover::build(env)?),
        other => return Err(format!("unknown workload {other:?} (one of {NAMES:?})")),
    })
}

/// A directory under `Env::tmp_root` that is removed when dropped. Each
/// build gets its own, so counts never see another run's files.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(env: &Env, label: &str) -> Result<TempDir, String> {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = env
            .tmp_root
            .join(format!("{label}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

// ---------------------------------------------------------------------
// The table world shared by write_churn, query_mix and crash_recover.
// ---------------------------------------------------------------------

/// Entities per unit area; the map grows with the entity count.
pub const DENSITY: f32 = 0.05;
/// hp is a whole number in `0..HP_SPREAD`.
pub const HP_SPREAD: u32 = 1_000;
/// gold is an integer in `0..GOLD_SPREAD`.
pub const GOLD_SPREAD: i64 = 10_000;
/// Entities per team (team count = entities / this).
pub const TEAM_SIZE: usize = 10;

pub struct TableViews {
    /// Flat view (`register_view`): `hp < 25`.
    pub low_hp: ViewId,
    /// Flat view (`register_view`): inside the central disk and `hp >= 500`.
    pub center_strong: ViewId,
    /// Equi-join plan view: `hp < 10` rows ⋈ their teammates.
    pub join: ViewId,
    /// Grouped plan view: `Sum(gold)` per team.
    pub team_gold: ViewId,
}

impl TableViews {
    pub fn plan_views(&self) -> [ViewId; 2] {
        [self.join, self.team_gold]
    }

    pub fn all(&self) -> [ViewId; 4] {
        [self.low_hp, self.center_strong, self.join, self.team_gold]
    }
}

pub struct TableWorld {
    pub world: World,
    pub views: TableViews,
    pub map: f32,
    pub teams: usize,
}

pub fn team_name(i: usize) -> String {
    format!("t{i}")
}

fn random_pos(rng: &mut StdRng, map: f32) -> Vec2 {
    Vec2::new(rng.gen::<f32>() * map, rng.gen::<f32>() * map)
}

/// `n` entities with hp / dmg / gold / team at constant density; hash
/// index on `team`, sorted indexes on `hp` and `gold`; two flat views and
/// two plan views. `dmg` stays unindexed (the scan-filter column).
pub fn table_world(n: usize, rng: &mut StdRng) -> Result<TableWorld, String> {
    let map = (n as f32 / DENSITY).sqrt().max(1.0);
    let teams = (n / TEAM_SIZE).max(1);
    let mut world = World::new();
    for (name, ty) in [
        ("hp", ValueType::Float),
        ("dmg", ValueType::Float),
        ("gold", ValueType::Int),
        ("team", ValueType::Str),
    ] {
        world
            .define_component(name, ty)
            .map_err(|e| e.to_string())?;
    }
    for i in 0..n {
        let e = world.spawn_at(random_pos(rng, map));
        for (name, value) in spawn_components(rng, i % teams) {
            world.set(e, &name, value).map_err(|e| e.to_string())?;
        }
    }
    world
        .create_index("team", IndexKind::Hash)
        .map_err(|e| e.to_string())?;
    world
        .create_index("hp", IndexKind::Sorted)
        .map_err(|e| e.to_string())?;
    world
        .create_index("gold", IndexKind::Sorted)
        .map_err(|e| e.to_string())?;

    let low_hp = world.register_view(Query::select().filter("hp", CmpOp::Lt, Value::Float(25.0)));
    let center_strong = world.register_view(
        Query::select()
            .within(Vec2::new(map / 2.0, map / 2.0), map / 8.0)
            .filter("hp", CmpOp::Ge, Value::Float(500.0)),
    );
    let join = world
        .register_view_plan(ViewPlan::join(
            PlanNode::scan(Query::select().filter("hp", CmpOp::Lt, Value::Float(10.0))),
            PlanNode::scan(Query::select()),
            JoinOn::Eq {
                left: "team".into(),
                right: "team".into(),
            },
        ))
        .map_err(|e| e.to_string())?;
    let team_gold = world
        .register_view_plan(
            Query::select()
                .into_grouped_plan("team", AggFn::Sum("gold".into()))
                .map_err(|e| e.to_string())?,
        )
        .map_err(|e| e.to_string())?;
    world.refresh_views();
    Ok(TableWorld {
        world,
        views: TableViews {
            low_hp,
            center_strong,
            join,
            team_gold,
        },
        map,
        teams,
    })
}

/// Component values of a freshly spawned table entity on team `team`.
fn spawn_components(rng: &mut StdRng, team: usize) -> Vec<(String, Value)> {
    vec![
        (
            "hp".into(),
            Value::Float(rng.gen_range(0..HP_SPREAD) as f32),
        ),
        ("dmg".into(), Value::Float(rng.gen_range(1.0..100.0f32))),
        ("gold".into(), Value::Int(rng.gen_range(0..GOLD_SPREAD))),
        ("team".into(), Value::Str(team_name(team))),
    ]
}

/// Bytes of user data in one value (the denominator of write
/// amplification).
pub fn value_bytes(v: &Value) -> u64 {
    match v {
        Value::Float(_) => 4,
        Value::Int(_) => 8,
        Value::Bool(_) => 1,
        Value::Str(s) => s.len() as u64,
        Value::Vec2(..) => 8,
    }
}

/// One tick's seeded write batch against a table world: `writes` value
/// writes (45 % hp, 35 % gold, 20 % pos) on random live entities, then
/// `spawns` spawns and `despawns` despawns. Returns the batch and the
/// bytes of user data it carries.
pub fn table_batch(
    rng: &mut StdRng,
    live: &[EntityId],
    map: f32,
    teams: usize,
    writes: usize,
    spawns: usize,
    despawns: usize,
) -> (WriteBatch, u64) {
    let mut batch = WriteBatch::new();
    let mut bytes = 0u64;
    for _ in 0..writes {
        let e = live[rng.gen_range(0..live.len())];
        match rng.gen_range(0..100u32) {
            0..=44 => {
                batch.set(e, "hp", Value::Float(rng.gen_range(0..HP_SPREAD) as f32));
                bytes += 4;
            }
            45..=79 => {
                batch.set(e, "gold", Value::Int(rng.gen_range(0..GOLD_SPREAD)));
                bytes += 8;
            }
            _ => {
                batch.set_pos(e, random_pos(rng, map));
                bytes += 8;
            }
        }
    }
    for _ in 0..spawns {
        let team = rng.gen_range(0..teams);
        let comps = spawn_components(rng, team);
        bytes += 8 + comps.iter().map(|(_, v)| value_bytes(v)).sum::<u64>();
        batch.spawn(comps, random_pos(rng, map));
    }
    for _ in 0..despawns {
        batch.despawn(live[rng.gen_range(0..live.len())]);
        bytes += 8;
    }
    (batch, bytes)
}

/// Every plan view's maintained output equals a forced recompute of its
/// plan; returns one message per view that diverged.
pub fn check_plan_views(world: &World, views: &[ViewId], at: &str) -> Vec<String> {
    let mut failures = Vec::new();
    for &v in views {
        let Some(plan) = world.view_plan(v).cloned() else {
            failures.push(format!("{at}: view {v:?} has no plan"));
            continue;
        };
        match plan.evaluate(world) {
            Ok(expect) if expect == world.view_output(v) => {}
            Ok(_) => failures.push(format!(
                "{at}: plan view {v:?} diverged from ViewPlan::evaluate"
            )),
            Err(e) => failures.push(format!("{at}: evaluate failed for {v:?}: {e}")),
        }
    }
    failures
}

/// Every flat view's maintained rows equal its query run as a scan.
pub fn check_flat_views(world: &World, views: &[ViewId], at: &str) -> Vec<String> {
    let mut failures = Vec::new();
    for &v in views {
        if world.view_rows(v) != world.view_query(v).run_scan(world).as_slice() {
            failures.push(format!(
                "{at}: flat view {v:?} diverged from Query::run_scan"
            ));
        }
    }
    failures
}

/// Both kinds of standing view on a table world against their oracles.
pub fn check_table_views(world: &World, views: &TableViews, at: &str) -> Vec<String> {
    let mut f = check_plan_views(world, &views.plan_views(), at);
    f.extend(check_flat_views(
        world,
        &[views.low_hp, views.center_strong],
        at,
    ));
    f
}

/// The tail every write tick shares: fold the tick's changes into the
/// standing views, advance the world's tick, commit to the WAL.
pub fn end_tick(store: &mut WalStore, probe: &mut Probe) -> Result<(), String> {
    probe.span("core.view", |_| store.world_mut().refresh_views());
    let next = store.world().tick() + 1;
    store.world_mut().advance_tick_to(next);
    probe
        .span("persist.commit", |_| store.commit())
        .map(drop)
        .map_err(|e| format!("commit: {e:?}"))
}

/// Wait (inside a span) until everything enqueued is durable.
pub fn wait_durable(
    store: &mut WalStore,
    probe: &mut Probe,
    span: &'static str,
) -> Result<(), String> {
    probe
        .span(span, |_| store.wait_durable(store.last_enqueued()))
        .map_err(|e| format!("wait_durable: {e:?}"))
}

/// Maintenance counters summed over `views` (delta rows, rescans).
pub fn view_counts(world: &World, views: &[ViewId]) -> (f64, f64) {
    let mut delta_rows = 0u64;
    let mut rescans = 0u64;
    for &v in views {
        let st = world.view_stats(v);
        delta_rows += st.delta_rows;
        rescans += st.rescans;
    }
    (delta_rows as f64, rescans as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn same_seed_same_inputs() {
        let gen = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let t = table_world(300, &mut rng).unwrap();
            let live = t.world.entity_vec();
            let (batch, bytes) = table_batch(&mut rng, &live, t.map, t.teams, 50, 3, 3);
            (t.world.rows(), format!("{:?}", batch.ops()), bytes)
        };
        assert_eq!(gen(7), gen(7));
        assert_ne!(gen(7).1, gen(8).1, "the seed must drive the inputs");
    }

    #[test]
    fn table_world_views_start_consistent() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = table_world(500, &mut rng).unwrap();
        assert_eq!(t.world.len(), 500);
        assert!(check_table_views(&t.world, &t.views, "t").is_empty());
    }
}
