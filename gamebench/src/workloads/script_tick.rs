//! `script_tick` — `script` dominates and `sync` is absent: every entity
//! is bound to the E1-style combat script (a spatial `count` aggregate, a
//! 24-iteration loop, two effects on `self.hp`), on a single server with
//! an async WAL and one standing `hp < 25` view.

use gamedb_content::{CmpOp, Value, ValueType};
use gamedb_core::{Query, ViewId, World};
use gamedb_metrics::MetricsRegistry;
use gamedb_persist::{Backend, FlushPolicy, WalStore};
use gamedb_script::{Level, ScriptEngine};
use gamedb_spatial::Vec2;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{check_flat_views, end_tick, wait_durable, Env, Step, TempDir, Workload, DENSITY};
use crate::trace::Probe;

const ENTITIES: usize = 20_000;
const QUEUE: usize = 32;
/// The script's neighbourhood radius (its `count(2; ..)`).
const SCRIPT_RADIUS: f32 = 2.0;
/// Direct `World::within` probes timed beside each traced tick: the
/// script's own probes happen inside `ScriptEngine::tick` and cannot be
/// split out from outside.
const PROBE_SAMPLES: usize = 64;
const CHECK_EVERY: u64 = 50;

const COMBAT: &str = "let threat = count(2; other.team != self.team);\n\
                      let pressure = threat * 0.1 + self.dmg * 0.01;\n\
                      let regen = 0.05;\n\
                      let decay = 0;\n\
                      let i = 0;\n\
                      while i < 24 {\n\
                        decay = decay * 0.5 + pressure * 0.125;\n\
                        regen = regen * 0.97;\n\
                        i = i + 1;\n\
                      }\n\
                      self.hp -= clamp(decay, 0, 5);\n\
                      self.hp += regen;";

pub struct ScriptTick {
    store: WalStore,
    engine: ScriptEngine,
    low_hp: ViewId,
    map: f32,
    rng: StdRng,
    probes: Vec<Vec2>,
    registry: Option<MetricsRegistry>,
    scripts_run: u64,
    max_lag: u64,
    _dir: TempDir,
}

impl ScriptTick {
    pub fn build(env: &Env) -> Result<Self, String> {
        let mut rng = StdRng::seed_from_u64(env.seed);
        let n = env.sized(ENTITIES);
        let map = (n as f32 / DENSITY).sqrt().max(1.0);
        let mut world = World::new();
        for (name, ty) in [
            ("hp", ValueType::Float),
            ("dmg", ValueType::Float),
            ("team", ValueType::Str),
        ] {
            world
                .define_component(name, ty)
                .map_err(|e| e.to_string())?;
        }
        let mut engine = ScriptEngine::new(Level::Full);
        engine.ensure_binding_component(&mut world);
        engine
            .load("combat", COMBAT, &world)
            .map_err(|e| format!("load combat: {e:?}"))?;
        for i in 0..n {
            let e = world.spawn_at(Vec2::new(rng.gen::<f32>() * map, rng.gen::<f32>() * map));
            world
                .set_f32(e, "hp", rng.gen_range(30.0..100.0f32))
                .and_then(|_| world.set_f32(e, "dmg", 1.0 + (i % 5) as f32))
                .and_then(|_| {
                    let team = if rng.gen::<bool>() { "red" } else { "blue" };
                    world.set(e, "team", Value::Str(team.into()))
                })
                .map_err(|e| e.to_string())?;
            engine
                .bind(&mut world, e, "combat")
                .map_err(|e| format!("bind: {e:?}"))?;
        }
        let low_hp =
            world.register_view(Query::select().filter("hp", CmpOp::Lt, Value::Float(25.0)));
        let dir = TempDir::new(env, "script_tick")?;
        let backend = Backend::open(dir.path()).map_err(|e| e.to_string())?;
        let mut store = WalStore::new_async(world, backend, FlushPolicy::flush_every(64, 2), QUEUE)
            .map_err(|e| e.to_string())?;
        if let Some(reg) = &env.registry {
            store.attach_metrics(reg);
            store.world_mut().attach_metrics(reg);
            engine.attach_metrics(reg);
        }
        Ok(ScriptTick {
            store,
            engine,
            low_hp,
            map,
            rng,
            probes: Vec::new(),
            registry: env.registry.clone(),
            scripts_run: 0,
            max_lag: 0,
            _dir: dir,
        })
    }
}

impl Workload for ScriptTick {
    fn prepare(&mut self, _s: u64) {
        // the scripted tick takes no per-tick input; the seed drives the
        // world and where the side probes land
        let map = self.map;
        let rng = &mut self.rng;
        self.probes = (0..PROBE_SAMPLES)
            .map(|_| Vec2::new(rng.gen::<f32>() * map, rng.gen::<f32>() * map))
            .collect();
    }

    fn step(&mut self, _s: u64, probe: &mut Probe) -> Result<Step, String> {
        let (store, engine) = (&mut self.store, &mut self.engine);
        let stats = probe
            .span("script.tick", |_| engine.tick(store.world_mut()))
            .map_err(|e| format!("ScriptEngine::tick: {e:?}"))?;
        self.scripts_run += stats.scripts_run as u64;
        end_tick(store, probe)?;
        self.max_lag = self.max_lag.max(store.watermark_snapshot().lag);
        Ok(Step::tick())
    }

    fn warmup_steps(&self) -> u64 {
        10
    }

    fn nominal_ticks_per_s(&self) -> f64 {
        27.0
    }

    fn check(&mut self, s: u64) -> Vec<String> {
        if !(s + 1).is_multiple_of(CHECK_EVERY) {
            return Vec::new();
        }
        self.final_check()
    }

    fn side_probe(&mut self, probe: &mut Probe) {
        let world = self.store.world();
        let probes = &self.probes;
        probe.span_n("side.within", probes.len() as u32, |_| {
            let mut out = Vec::new();
            for &c in probes {
                out.clear();
                world.within(c, SCRIPT_RADIUS, &mut out);
                std::hint::black_box(out.len());
            }
        });
    }

    fn drain(&mut self, probe: &mut Probe) -> Result<(), String> {
        wait_durable(&mut self.store, probe, "persist.drain")
    }

    fn final_check(&mut self) -> Vec<String> {
        let w = self.store.world();
        let mut f = check_flat_views(w, &[self.low_hp], &format!("tick {}", w.tick()));
        let bound = w.len() as u64;
        if !self.scripts_run.is_multiple_of(bound) {
            f.push(format!(
                "scripts run ({}) is not a multiple of the {bound} bound entities",
                self.scripts_run
            ));
        }
        f
    }

    fn world(&self) -> &World {
        self.store.world()
    }

    fn counts(&mut self) -> Vec<(&'static str, f64)> {
        // an I/O error here resurfaces on the next commit or the drain
        let _ = self.store.wait_durable(self.store.last_enqueued());
        let w = self.store.world();
        let st = w.view_stats(self.low_hp);
        let mut c = vec![
            ("core.changes", w.change_seq() as f64),
            ("core.view_delta_rows", st.delta_rows as f64),
            ("core.view_rescans", st.rescans as f64),
            (
                "persist.backend_bytes",
                self.store.backend().bytes_written as f64,
            ),
            ("persist.flushes", self.store.writer_flushes() as f64),
            ("persist.max_watermark_lag.peak", self.max_lag as f64),
        ];
        if let Some(reg) = &self.registry {
            let snap = reg.snapshot();
            c.push(("script.vm_instrs", snap.counter("script.vm_instrs") as f64));
            c.push((
                "script.effects",
                snap.histogram("script.tick_effects")
                    .map_or(0.0, |h| h.sum as f64),
            ));
        }
        c
    }

    fn reset_peaks(&mut self) {
        self.max_lag = 0;
    }

    fn sizes(&self) -> String {
        format!(
            "{} entities all bound to the combat script, async WAL flush_every(64, 2) queue {QUEUE}",
            self.store.world().len()
        )
    }
}
