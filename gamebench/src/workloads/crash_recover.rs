//! `crash_recover` — `persist` does the work: a **sync** `WalStore`
//! (flush per commit), cycles of write ticks with a checkpoint half-way,
//! each cycle ended by `crash_and_recover` (snapshot decode + replay of
//! the ticks since the checkpoint + index/view rebuild). Async-only
//! optimisations are predicted to change nothing here.

use gamedb_content::{CmpOp, Value};
use gamedb_core::{EntityId, Query, World, WriteBatch};
use gamedb_persist::{Backend, WalStore};
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{
    check_plan_views, end_tick, table_batch, table_world, Env, Step, TableViews, TempDir, Workload,
};
use crate::trace::Probe;

const ENTITIES: usize = 100_000;
const WRITES: usize = 500;
/// Steps per cycle: `CYCLE - 1` ticks, then one recovery.
const CYCLE: u64 = 41;
/// The tick (within a cycle) that ends with a checkpoint.
const CHECKPOINT_AT: u64 = 19;

/// What must survive a crash: every row, the tick, every view's rows.
#[derive(PartialEq)]
struct Image {
    rows: Vec<(EntityId, String, Value)>,
    tick: u64,
    flat: Vec<Vec<EntityId>>,
    plans: Vec<gamedb_core::PlanOutput>,
}

pub struct CrashRecover {
    /// `None` only while a recovery has consumed the store and failed.
    store: Option<WalStore>,
    views: TableViews,
    map: f32,
    teams: usize,
    writes: usize,
    rng: StdRng,
    /// No spawns or despawns here, and recovery keeps ids: read once.
    live: Vec<EntityId>,
    batch: Option<WriteBatch>,
    pre_crash: Option<Image>,
    user_bytes: u64,
    snapshot_bytes: u64,
    checkpoints: u64,
    replayed: u64,
    recoveries: u64,
    _dir: TempDir,
}

fn is_recovery(s: u64) -> bool {
    s % CYCLE == CYCLE - 1
}

impl CrashRecover {
    pub fn build(env: &Env) -> Result<Self, String> {
        let mut rng = StdRng::seed_from_u64(env.seed);
        let table = table_world(env.sized(ENTITIES), &mut rng)?;
        let dir = TempDir::new(env, "crash_recover")?;
        let backend = Backend::open(dir.path()).map_err(|e| e.to_string())?;
        let mut store = WalStore::new(table.world, backend, 1).map_err(|e| e.to_string())?;
        if let Some(reg) = &env.registry {
            store.attach_metrics(reg);
            store.world_mut().attach_metrics(reg);
        }
        Ok(CrashRecover {
            live: store.world().entity_vec(),
            store: Some(store),
            views: table.views,
            map: table.map,
            teams: table.teams,
            writes: env.sized(WRITES),
            rng,
            batch: None,
            pre_crash: None,
            user_bytes: 0,
            snapshot_bytes: 0,
            checkpoints: 0,
            replayed: 0,
            recoveries: 0,
            _dir: dir,
        })
    }

    fn store(&self) -> &WalStore {
        self.store
            .as_ref()
            .expect("store lost to a failed recovery")
    }

    fn image(&self) -> Image {
        let w = self.store().world();
        Image {
            rows: w.rows(),
            tick: w.tick(),
            flat: [self.views.low_hp, self.views.center_strong]
                .iter()
                .map(|&v| w.view_rows(v).to_vec())
                .collect(),
            plans: self
                .views
                .plan_views()
                .iter()
                .map(|&v| w.view_output(v))
                .collect(),
        }
    }
}

impl Workload for CrashRecover {
    fn prepare(&mut self, s: u64) {
        if is_recovery(s) {
            self.pre_crash = Some(self.image());
            return;
        }
        let (batch, bytes) = table_batch(
            &mut self.rng,
            &self.live,
            self.map,
            self.teams,
            self.writes,
            0,
            0,
        );
        self.batch = Some(batch);
        self.user_bytes += bytes;
    }

    fn step(&mut self, s: u64, probe: &mut Probe) -> Result<Step, String> {
        if is_recovery(s) {
            let store = self.store.take().ok_or("store lost to a failed recovery")?;
            let (store, replayed) = probe
                .span("persist.recover", |_| {
                    let (store, replayed) = store.crash_and_recover()?;
                    // recovered means: it answers an indexed query
                    let n = Query::select()
                        .filter("hp", CmpOp::Lt, Value::Float(10.0))
                        .count(store.world());
                    std::hint::black_box(n);
                    Ok::<_, gamedb_persist::StoreError>((store, replayed))
                })
                .map_err(|e| format!("crash_and_recover: {e:?}"))?;
            self.store = Some(store);
            self.replayed += replayed as u64;
            self.recoveries += 1;
            return Ok(Step {
                ops: 1,
                is_tick: false,
            });
        }
        let batch = self.batch.take().ok_or("step without prepare")?;
        let store = self
            .store
            .as_mut()
            .ok_or("store lost to a failed recovery")?;
        probe
            .span("core.apply", |_| store.world_mut().apply_batch(batch))
            .map_err(|e| format!("apply_batch: {e}"))?;
        end_tick(store, probe)?;
        if s % CYCLE == CHECKPOINT_AT {
            let before = store.backend().bytes_written;
            probe
                .span("persist.checkpoint", |_| store.checkpoint())
                .map_err(|e| format!("checkpoint: {e:?}"))?;
            self.snapshot_bytes += store.backend().bytes_written - before;
            self.checkpoints += 1;
        }
        Ok(Step::tick())
    }

    fn warmup_steps(&self) -> u64 {
        CYCLE
    }

    fn nominal_ticks_per_s(&self) -> f64 {
        48.0
    }

    fn check(&mut self, s: u64) -> Vec<String> {
        if !is_recovery(s) {
            return Vec::new();
        }
        let mut failures = Vec::new();
        if self.pre_crash.take() != Some(self.image()) {
            failures.push(format!(
                "step {s}: recovered rows, tick or view rows differ from the pre-crash image"
            ));
        }
        failures.extend(check_plan_views(
            self.store().world(),
            &self.views.plan_views(),
            &format!("step {s}"),
        ));
        failures
    }

    fn at_boundary(&self, s: u64) -> bool {
        is_recovery(s)
    }

    fn drain(&mut self, _probe: &mut Probe) -> Result<(), String> {
        Ok(()) // flush per commit: nothing is ever owed
    }

    fn final_check(&mut self) -> Vec<String> {
        Vec::new() // every cycle ended in a checked recovery
    }

    fn world(&self) -> &World {
        self.store().world()
    }

    fn counts(&mut self) -> Vec<(&'static str, f64)> {
        let store = self.store();
        // view and change-stream counters restart at every recovery, so
        // only the persist counts (which survive it) are cumulative
        vec![
            (
                "persist.backend_bytes",
                store.backend().bytes_written as f64,
            ),
            ("persist.user_bytes", self.user_bytes as f64),
            ("persist.flushes", store.stats.flushes as f64),
            ("persist.snapshot_bytes", self.snapshot_bytes as f64),
            ("persist.checkpoints", self.checkpoints as f64),
            ("persist.replayed_records", self.replayed as f64),
            ("persist.recoveries", self.recoveries as f64),
        ]
    }

    fn sizes(&self) -> String {
        format!(
            "{} entities, sync WAL (flush per commit), cycles of {} ticks x {} writes, \
             checkpoint after tick {}, then crash_and_recover",
            self.store().world().len(),
            CYCLE - 1,
            self.writes,
            CHECKPOINT_AT + 1
        )
    }
}
