//! `cluster_tick` — one realistic tick through the whole stack: seeded
//! player actions → `ShardManager::tick` (bubble placement over 4 nodes)
//! → `ClusterExecutor::execute` → `ScriptEngine::tick` → view refresh →
//! async WAL `commit` (checkpoint every 100 ticks) → `ShardRouter::tick`
//! (handoff segments, one warm standby) → three stream replicators on
//! orbiting interest bubbles (`Strict` gated on the durable watermark).
//! `sync` does most of the work; `script` and `persist` almost none.

use gamedb_core::{AggFn, DurabilityWatermark, EntityId, IndexKind, Query, ViewId, World};
use gamedb_persist::{Backend, FlushPolicy, WalStore};
use gamedb_script::{Level, ScriptEngine};
use gamedb_spatial::Vec2;
use gamedb_sync::{
    arena_world, node_oracle, Action, AssignPolicy, BubbleConfig, ClusterExecutor,
    ConsistencyLevel, Interest, Replica, Replicator, ShardAssignment, ShardManager, ShardRouter,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{check_plan_views, end_tick, wait_durable, Env, Step, TempDir, Workload};
use crate::trace::Probe;

const PLAYERS: usize = 20_000;
const ACTIONS: usize = 2_000;
const NODES: usize = 4;
/// Players per unit area, as in the repo's cluster scenario (400 on a
/// 1000² map); the map grows with the player count.
const DENSITY: f32 = 4e-4;
const QUEUE: usize = 32;
const CHECKPOINT_EVERY: u64 = 100;
/// Node states and replicas are held to their oracles every this many
/// ticks — a multiple of both `CoarseEpoch` periods, so every level has
/// just shipped full state.
const CHECK_EVERY: u64 = 52;
const STANDBY_LAG_BUDGET: usize = 4;

/// The replicated clients: consistency level + phase on the orbit.
const CLIENTS: [(ConsistencyLevel, f32); 3] = [
    (ConsistencyLevel::Strict, 0.0),
    (ConsistencyLevel::CoarseEpoch { pos_period: 2 }, 2.1),
    (ConsistencyLevel::CoarseEpoch { pos_period: 4 }, 4.2),
];

pub struct ClusterTick {
    store: WalStore,
    engine: ScriptEngine,
    shards: ShardManager,
    router: ShardRouter,
    cluster: ClusterExecutor,
    streams: Vec<Replicator>,
    replicas: Vec<Replica>,
    wealth: ViewId,
    players: Vec<EntityId>,
    n_actions: usize,
    map: f32,
    rng: StdRng,
    actions: Vec<Action>,
    assignment: ShardAssignment,
    moved: u64,
    gated: u64,
    snapshot_bytes: u64,
    checkpoints: u64,
    max_lag: u64,
    _dir: TempDir,
}

impl ClusterTick {
    pub fn build(env: &Env) -> Result<Self, String> {
        let mut rng = StdRng::seed_from_u64(env.seed);
        let n = env.sized(PLAYERS);
        let map = (n as f32 / DENSITY).sqrt();
        let positions: Vec<Vec2> = (0..n)
            .map(|_| Vec2::new(rng.gen::<f32>() * map, rng.gen::<f32>() * map))
            .collect();
        let (mut world, players) = arena_world(n, |i| positions[i]);
        world
            .create_index("gold", IndexKind::Sorted)
            .map_err(|e| e.to_string())?;
        let wealth = world
            .register_view_plan(
                Query::select()
                    .into_aggregate_plan(AggFn::Sum("gold".into()))
                    .map_err(|e| e.to_string())?,
            )
            .map_err(|e| e.to_string())?;

        let mut engine = ScriptEngine::new(Level::Restricted).with_optimizer();
        engine.ensure_binding_component(&mut world);
        engine
            .load("regen", "if self.hp < 95.0 { self.hp += 1.0; }", &world)
            .map_err(|e| format!("load regen: {e:?}"))?;
        for &p in players.iter().step_by(8) {
            engine
                .bind(&mut world, p, "regen")
                .map_err(|e| format!("bind: {e:?}"))?;
        }

        let dir = TempDir::new(env, "cluster_tick")?;
        let backend = Backend::open(dir.path()).map_err(|e| e.to_string())?;
        let mut store = WalStore::new_async(world, backend, FlushPolicy::flush_every(64, 2), QUEUE)
            .map_err(|e| e.to_string())?;

        let mut shards = ShardManager::new(
            NODES,
            AssignPolicy::DynamicBubbles {
                cfg: BubbleConfig::default(),
                max_overload: 1.4,
            },
        );
        let mut router = ShardRouter::new(store.world_mut(), NODES);
        router.enable_standby(0, STANDBY_LAG_BUDGET);
        let mut streams = Vec::new();
        let mut replicas = Vec::new();
        for &(level, phase) in &CLIENTS {
            let mut rep = Replicator::with_interest(level, bubble_at(map, phase, 0));
            rep.attach_stream(store.world_mut());
            streams.push(rep);
            replicas.push(Replica::default());
        }
        if let Some(reg) = &env.registry {
            store.attach_metrics(reg);
            store.world_mut().attach_metrics(reg);
            engine.attach_metrics(reg);
            shards.attach_metrics(reg);
            router.attach_metrics(reg);
            for rep in &mut streams {
                rep.attach_metrics(reg);
            }
        }
        Ok(ClusterTick {
            store,
            engine,
            shards,
            router,
            cluster: ClusterExecutor::default(),
            streams,
            replicas,
            wealth,
            players,
            n_actions: env.sized(ACTIONS),
            map,
            rng,
            actions: Vec::new(),
            assignment: ShardAssignment::default(),
            moved: 0,
            gated: 0,
            snapshot_bytes: 0,
            checkpoints: 0,
            max_lag: 0,
            _dir: dir,
        })
    }
}

/// Interest bubble of the client at `phase` on tick `t`: orbits the map
/// centre so every bubble keeps crossing shard boundaries. No hysteresis
/// margin, so a replica's contents depend only on the current bubble —
/// which is what lets a fresh full-walk mirror be its oracle.
fn bubble_at(map: f32, phase: f32, t: u64) -> Interest {
    let theta = phase + t as f32 * 0.05;
    Interest {
        center: (
            map / 2.0 + 0.3 * map * theta.cos(),
            map / 2.0 + 0.3 * map * theta.sin(),
        ),
        radius: 0.08 * map,
        margin: 0.0,
    }
}

impl Workload for ClusterTick {
    fn prepare(&mut self, s: u64) {
        let (rng, players, map) = (&mut self.rng, &self.players, self.map);
        // moves head for a hotspot that drifts round the map, so bubbles
        // form, merge and migrate across nodes
        let hot = Vec2::new(
            map / 2.0 + 0.35 * map * (s as f32 * 0.03).cos(),
            map / 2.0 + 0.35 * map * (s as f32 * 0.03).sin(),
        );
        self.actions.clear();
        for _ in 0..self.n_actions {
            let a = players[rng.gen_range(0..players.len())];
            let b = players[rng.gen_range(0..players.len())];
            self.actions.push(match rng.gen_range(0..100u32) {
                0..=54 => Action::Move {
                    who: a,
                    to: hot + Vec2::new(rng.gen_range(-60.0..60.0), rng.gen_range(-60.0..60.0)),
                    speed: rng.gen_range(2.0..8.0f32),
                },
                55..=74 => Action::Attack {
                    attacker: a,
                    target: b,
                },
                75..=89 => Action::Heal {
                    healer: a,
                    target: b,
                },
                _ => Action::Trade {
                    from: a,
                    to: b,
                    amount: rng.gen_range(1..20i64),
                },
            });
        }
    }

    fn step(&mut self, s: u64, probe: &mut Probe) -> Result<Step, String> {
        let Self {
            store,
            engine,
            shards,
            router,
            cluster,
            streams,
            replicas,
            actions,
            ..
        } = self;
        let assignment = probe.span("sync.shard", |_| shards.tick(store.world(), actions));
        let mut cstats = probe.span("sync.exec", |_| {
            cluster.execute(store.world_mut(), &assignment, actions)
        });
        probe
            .span("script.tick", |_| engine.tick(store.world_mut()))
            .map_err(|e| format!("ScriptEngine::tick: {e:?}"))?;
        end_tick(store, probe)?;
        if (s + 1).is_multiple_of(CHECKPOINT_EVERY) {
            // drained first, so the byte difference is the snapshot + mark
            wait_durable(store, probe, "persist.wait")?;
            let before = store.backend().bytes_written;
            probe
                .span("persist.checkpoint", |_| store.checkpoint())
                .map_err(|e| format!("checkpoint: {e:?}"))?;
            self.snapshot_bytes += store.backend().bytes_written - before;
            self.checkpoints += 1;
        }

        let report = probe.span("sync.router", |_| {
            router.tick(store.world_mut(), &assignment)
        });
        cluster.bill_handoff(&mut cstats, report.total_bytes());
        self.moved += report.total_moved() as u64;

        let map = self.map;
        probe.span("sync.repl", |probe| -> Result<(), String> {
            for (i, &(_, phase)) in CLIENTS.iter().enumerate() {
                streams[i].interest = bubble_at(map, phase, s);
                let mark = store.snapshot_watermark();
                if streams[i].sync_stream_durable(store.world_mut(), &mut replicas[i], &mark) {
                    continue;
                }
                // Strict refused an undrained watermark: wait, then retry
                self.gated += 1;
                wait_durable(store, probe, "persist.wait")?;
                let mark = store.snapshot_watermark();
                if !streams[i].sync_stream_durable(store.world_mut(), &mut replicas[i], &mark) {
                    return Err("a drained watermark must unblock a Strict tick".into());
                }
            }
            Ok(())
        })?;
        self.max_lag = self.max_lag.max(store.watermark_snapshot().lag);
        self.assignment = assignment;
        Ok(Step::tick())
    }

    fn warmup_steps(&self) -> u64 {
        20
    }

    fn nominal_ticks_per_s(&self) -> f64 {
        32.0
    }

    fn check(&mut self, s: u64) -> Vec<String> {
        let mut failures = Vec::new();
        if self
            .router
            .standby_lag(0)
            .is_none_or(|lag| lag > STANDBY_LAG_BUDGET)
        {
            failures.push(format!("tick {s}: standby lag exceeded its budget"));
        }
        if !(s + 1).is_multiple_of(CHECK_EVERY) {
            return failures;
        }
        let world = self.store.world();
        for n in 0..NODES {
            if self.router.node_state(n).rows != node_oracle(world, &self.assignment, n) {
                failures.push(format!(
                    "tick {s}: node {n} state diverged from node_oracle"
                ));
            }
        }
        for (i, &(_, phase)) in CLIENTS.iter().enumerate() {
            // a full-walk mirror synced only now sees exactly the live
            // rows inside the bubble
            let mut mirror = Replica::default();
            Replicator::with_interest(ConsistencyLevel::Strict, bubble_at(self.map, phase, s))
                .sync(world, &mut mirror);
            if self.replicas[i].rows != mirror.rows {
                failures.push(format!(
                    "tick {s}: stream replica {i} diverged from a full-walk mirror"
                ));
            }
        }
        failures.extend(check_plan_views(
            world,
            &[self.wealth],
            &format!("tick {s}"),
        ));
        failures
    }

    fn drain(&mut self, probe: &mut Probe) -> Result<(), String> {
        wait_durable(&mut self.store, probe, "persist.drain")
    }

    fn final_check(&mut self) -> Vec<String> {
        let mut failures = check_plan_views(self.store.world(), &[self.wealth], "end");
        // promote the warm standby: it must equal node 0's oracle after
        // replaying at most its lag budget
        match self.router.fail_over(0) {
            Some(replayed) if replayed <= STANDBY_LAG_BUDGET => {}
            other => failures.push(format!(
                "failover replayed {other:?}, budget {STANDBY_LAG_BUDGET}"
            )),
        }
        if self.router.node_state(0).rows != node_oracle(self.store.world(), &self.assignment, 0) {
            failures.push("promoted standby diverged from node 0's oracle".into());
        }
        failures
    }

    fn world(&self) -> &World {
        self.store.world()
    }

    fn counts(&mut self) -> Vec<(&'static str, f64)> {
        // an I/O error here resurfaces on the next commit or the drain
        let _ = self.store.wait_durable(self.store.last_enqueued());
        let w = self.store.world();
        let st = w.view_stats(self.wealth);
        let segment_bytes: usize = self.streams.iter().map(|r| r.bytes_sent).sum();
        vec![
            ("sync.handoff_bytes", self.router.handoff_bytes as f64),
            ("sync.moved_entities", self.moved as f64),
            ("sync.segment_bytes", segment_bytes as f64),
            ("sync.gated_ticks", self.gated as f64),
            ("core.changes", w.change_seq() as f64),
            ("core.view_delta_rows", st.delta_rows as f64),
            ("core.view_rescans", st.rescans as f64),
            (
                "persist.backend_bytes",
                self.store.backend().bytes_written as f64,
            ),
            ("persist.flushes", self.store.writer_flushes() as f64),
            ("persist.snapshot_bytes", self.snapshot_bytes as f64),
            ("persist.checkpoints", self.checkpoints as f64),
            ("persist.max_watermark_lag.peak", self.max_lag as f64),
        ]
    }

    fn reset_peaks(&mut self) {
        self.max_lag = 0;
    }

    fn sizes(&self) -> String {
        format!(
            "{} players, {} actions per tick, {NODES} nodes DynamicBubbles, 1 warm standby, \
             {} stream replicators, async WAL flush_every(64, 2) queue {QUEUE}, \
             checkpoint every {CHECKPOINT_EVERY} ticks",
            self.players.len(),
            self.n_actions,
            CLIENTS.len()
        )
    }
}
