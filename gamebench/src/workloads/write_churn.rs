//! `write_churn` — the `core` write path with no scripts and no sync: one
//! `WriteBatch` per tick (value writes + spawns + despawns) →
//! `apply_batch` (columns + three indexes) → `refresh_views` (both view
//! engines) → async `commit`.

use gamedb_core::{EntityId, World, WriteBatch};
use gamedb_persist::{Backend, FlushPolicy, WalStore};
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{
    check_table_views, end_tick, table_batch, table_world, view_counts, wait_durable, Env, Step,
    TableViews, TempDir, Workload,
};
use crate::trace::Probe;

const ENTITIES: usize = 100_000;
const WRITES: usize = 2_000;
const SPAWNS: usize = 50;
const DESPAWNS: usize = 50;
/// Async writer hand-off queue, in commit frames.
const QUEUE: usize = 32;
/// Views are held to their oracles every this many ticks.
const CHECK_EVERY: u64 = 250;

pub struct WriteChurn {
    store: WalStore,
    views: TableViews,
    map: f32,
    teams: usize,
    /// (value writes, spawns, despawns) per tick.
    mix: (usize, usize, usize),
    rng: StdRng,
    live: Vec<EntityId>,
    batch: Option<WriteBatch>,
    user_bytes: u64,
    max_lag: u64,
    // declared last: the directory outlives the store that writes into it
    _dir: TempDir,
}

impl WriteChurn {
    pub fn build(env: &Env) -> Result<Self, String> {
        let mut rng = StdRng::seed_from_u64(env.seed);
        let table = table_world(env.sized(ENTITIES), &mut rng)?;
        let dir = TempDir::new(env, "write_churn")?;
        let backend = Backend::open(dir.path()).map_err(|e| e.to_string())?;
        let mut store =
            WalStore::new_async(table.world, backend, FlushPolicy::flush_every(64, 2), QUEUE)
                .map_err(|e| e.to_string())?;
        if let Some(reg) = &env.registry {
            store.attach_metrics(reg);
            store.world_mut().attach_metrics(reg);
        }
        Ok(WriteChurn {
            store,
            views: table.views,
            map: table.map,
            teams: table.teams,
            mix: (env.sized(WRITES), env.sized(SPAWNS), env.sized(DESPAWNS)),
            rng,
            live: Vec::new(),
            batch: None,
            user_bytes: 0,
            max_lag: 0,
            _dir: dir,
        })
    }
}

impl Workload for WriteChurn {
    fn prepare(&mut self, _s: u64) {
        // spawns get fresh ids, so the write targets are re-read each tick
        self.live = self.store.world().entity_vec();
        let (batch, bytes) = table_batch(
            &mut self.rng,
            &self.live,
            self.map,
            self.teams,
            self.mix.0,
            self.mix.1,
            self.mix.2,
        );
        self.batch = Some(batch);
        self.user_bytes += bytes;
    }

    fn step(&mut self, _s: u64, probe: &mut Probe) -> Result<Step, String> {
        let batch = self.batch.take().ok_or("step without prepare")?;
        let store = &mut self.store;
        probe
            .span("core.apply", |_| store.world_mut().apply_batch(batch))
            .map_err(|e| format!("apply_batch: {e}"))?;
        end_tick(store, probe)?;
        self.max_lag = self.max_lag.max(store.watermark_snapshot().lag);
        Ok(Step::tick())
    }

    fn warmup_steps(&self) -> u64 {
        20
    }

    fn nominal_ticks_per_s(&self) -> f64 {
        150.0
    }

    fn check(&mut self, s: u64) -> Vec<String> {
        if !(s + 1).is_multiple_of(CHECK_EVERY) {
            return Vec::new();
        }
        self.final_check()
    }

    fn drain(&mut self, probe: &mut Probe) -> Result<(), String> {
        wait_durable(&mut self.store, probe, "persist.drain")
    }

    fn final_check(&mut self) -> Vec<String> {
        let w = self.store.world();
        check_table_views(w, &self.views, &format!("tick {}", w.tick()))
    }

    fn world(&self) -> &World {
        self.store.world()
    }

    fn counts(&mut self) -> Vec<(&'static str, f64)> {
        // an I/O error here resurfaces on the next commit or the drain
        let _ = self.store.wait_durable(self.store.last_enqueued());
        let w = self.store.world();
        let (delta_rows, rescans) = view_counts(w, &self.views.all());
        vec![
            ("core.changes", w.change_seq() as f64),
            ("core.view_delta_rows", delta_rows),
            ("core.view_rescans", rescans),
            (
                "persist.backend_bytes",
                self.store.backend().bytes_written as f64,
            ),
            ("persist.user_bytes", self.user_bytes as f64),
            ("persist.flushes", self.store.writer_flushes() as f64),
            ("persist.max_watermark_lag.peak", self.max_lag as f64),
        ]
    }

    fn reset_peaks(&mut self) {
        self.max_lag = 0;
    }

    fn sizes(&self) -> String {
        format!(
            "{} entities, {} writes + {} spawns + {} despawns per tick, \
             async WAL flush_every(64, 2) queue {QUEUE}",
            self.store.world().len(),
            self.mix.0,
            self.mix.1,
            self.mix.2
        )
    }
}
