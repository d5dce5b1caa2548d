//! Instrumented cluster scenario — the observability tentpole's cap.
//!
//! One seeded run exercises every instrumented subsystem at once, the
//! way a production shard cluster would: an async-durability
//! [`WalStore`] primary under sustained action churn, a scripted tick,
//! a [`ShardManager`] placing causality bubbles across N nodes, and M
//! streaming replicators with *migrating* interest bubbles — each
//! shadowed by a full-walk mirror replicator that establishes the
//! bandwidth baseline the delta stream must beat. Everything reports
//! into one shared [`MetricsRegistry`].
//!
//! The run gates on five invariants (CI runs this as the named
//! `cluster-scenario` step and uploads the metrics report it writes):
//!
//! 1. **Durable watermark lag stays bounded** — the background WAL
//!    writer keeps up with commit churn (and drains to zero at the end).
//! 2. **Zero unpinned-tap evictions** — replicator taps ack fast enough
//!    that the retention window never has to cut one loose.
//! 3. **Delta bytes < full-walk bytes** — the streamed segments beat
//!    the full-walk baseline over the same interest bubbles, shipping
//!    no more rows, while producing byte-identical replicas.
//! 4. **Handoff bytes < full-row shipping** — cross-shard entity
//!    handoff streamed as delta segments over per-node links undercuts
//!    the by-value baseline, while every node's segment-built state is
//!    byte-identical to the by-value oracle at every tick.
//! 5. **Zero standby divergence** — the warm standby promoted at the
//!    end of the run equals its node's oracle after replaying only its
//!    buffered tail.

use std::fs;

use gamedb::content::{CmpOp, Value};
use gamedb::core::{AggFn, DurabilityWatermark, IndexKind, Query};
use gamedb::metrics::{MetricsRegistry, Snapshot};
use gamedb::persist::{temp_dir, Backend, FlushPolicy, WalStore};
use gamedb::script::{Level, ScriptEngine};
use gamedb::spatial::Vec2;
use gamedb::sync::{
    arena_world, node_oracle, Action, AssignPolicy, BubbleConfig, ClusterExecutor,
    ConsistencyLevel, Interest, Replica, Replicator, ShardAssignment, ShardManager, ShardRouter,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

const SEED: u64 = 0x5160_0d09;
const PLAYERS: usize = 400;
const MAP: f32 = 1000.0;
const TICKS: usize = 150;
const NODES: usize = 4;
const BUBBLE_RADIUS: f32 = 170.0;
/// Commit queue capacity (frames) handed to the async writer. The
/// watermark-lag gate is phrased against this: backpressure bounds the
/// channel at `QUEUE` frames and the writer buffers at most a few more
/// before its size trigger fires.
const QUEUE: usize = 32;
const LAG_BOUND: u64 = (QUEUE + 8) as u64;

/// The M replicated clients: consistency level + where their interest
/// bubble starts (phase on the migration orbit).
const CLIENTS: [(ConsistencyLevel, f32); 3] = [
    (ConsistencyLevel::Strict, 0.0),
    (ConsistencyLevel::CoarseEpoch { pos_period: 2 }, 2.1),
    (ConsistencyLevel::CoarseEpoch { pos_period: 4 }, 4.2),
];

/// Interest bubble for client `i` at tick `t`: orbits the map center so
/// every bubble migrates across shard boundaries during the run.
fn bubble_at(phase: f32, t: usize) -> Interest {
    let theta = phase + t as f32 * 0.05;
    Interest {
        center: (
            MAP / 2.0 + 0.3 * MAP * theta.cos(),
            MAP / 2.0 + 0.3 * MAP * theta.sin(),
        ),
        radius: BUBBLE_RADIUS,
        margin: 25.0,
    }
}

/// One tick of seeded churn: moves toward a drifting hotspot plus
/// pairwise combat/economy actions. Actions against despawned entities
/// are no-ops by construction, so the mix needs no liveness bookkeeping.
fn churn_batch(rng: &mut StdRng, players: &[gamedb::core::EntityId], t: usize) -> Vec<Action> {
    let hot = Vec2::new(
        MAP / 2.0 + 0.35 * MAP * (t as f32 * 0.03).cos(),
        MAP / 2.0 + 0.35 * MAP * (t as f32 * 0.03).sin(),
    );
    let mut batch = Vec::with_capacity(PLAYERS / 3);
    for _ in 0..PLAYERS / 3 {
        let a = players[rng.gen_range(0..players.len())];
        let b = players[rng.gen_range(0..players.len())];
        let roll = rng.gen_range(0..100u32);
        batch.push(match roll {
            0..=54 => Action::Move {
                who: a,
                to: hot + Vec2::new(rng.gen_range(-60.0..60.0), rng.gen_range(-60.0..60.0)),
                speed: rng.gen_range(2.0..8.0f32),
            },
            55..=74 => Action::Attack { attacker: a, target: b },
            75..=89 => Action::Heal { healer: a, target: b },
            _ => Action::Trade { from: a, to: b, amount: rng.gen_range(1..20i64) },
        });
    }
    batch
}

fn write_report(snap: &Snapshot, second_half: &Snapshot, summary: &str) {
    let mut text = String::new();
    text.push_str("# cluster-scenario metrics report\n\n");
    text.push_str(summary);
    text.push_str("\n## full run\n\n");
    text.push_str(&snap.render_text());
    text.push_str("\n## second half (delta vs mid-run snapshot)\n\n");
    text.push_str(&second_half.render_text());
    // Written under target/ so CI can pick the pair up as an artifact.
    let _ = fs::create_dir_all("target");
    fs::write("target/cluster-scenario-report.txt", &text).expect("write text report");
    fs::write("target/cluster-scenario-report.json", snap.to_json()).expect("write json report");
    println!("{text}");
}

#[test]
fn instrumented_cluster_scenario() {
    let registry = MetricsRegistry::new();

    // -- primary shard: arena world under an async-durability WAL -----
    let (mut world, players) = arena_world(PLAYERS, |i| {
        // low-discrepancy scatter; deterministic, no RNG state needed
        let x = (i as f32 * 0.754_877_7).fract() * MAP;
        let y = (i as f32 * 0.569_840_3).fract() * MAP;
        Vec2::new(x, y)
    });
    world.create_index("gold", IndexKind::Sorted).unwrap();

    // ONE operator-tree view rides the whole run: a global group
    // aggregate maintaining total gold while trades churn it — the
    // differential view engine's per-operator counters land in the same
    // shared registry, and the run periodically holds the maintained
    // value to a forced recompute of the plan.
    let wealth_view = world
        .register_view_plan(
            Query::select()
                .into_aggregate_plan(AggFn::Sum("gold".into()))
                .unwrap(),
        )
        .unwrap();

    let mut engine = ScriptEngine::new(Level::Restricted).with_optimizer();
    engine.ensure_binding_component(&mut world);
    engine
        .load("regen", "if self.hp < 95.0 { self.hp += 1.0; }", &world)
        .unwrap();
    for &p in players.iter().step_by(8) {
        engine.bind(&mut world, p, "regen").unwrap();
    }

    let backend = Backend::open(temp_dir("cluster_scenario")).unwrap();
    let mut store =
        WalStore::new_async(world, backend, FlushPolicy::flush_every(64, 2), QUEUE).unwrap();

    // generous retention: the eviction gate below proves the replicator
    // taps ack fast enough that this window is never exceeded
    store.world_mut().set_tap_retention(Some(200_000));

    // -- attach ONE registry to every subsystem -----------------------
    store.attach_metrics(&registry);
    store.world_mut().attach_metrics(&registry);
    engine.attach_metrics(&registry);

    let mut shards = ShardManager::new(
        NODES,
        AssignPolicy::DynamicBubbles { cfg: BubbleConfig::default(), max_overload: 1.4 },
    );
    shards.attach_metrics(&registry);

    // cross-shard change shipping: per-node links on the primary's
    // change stream, one warm standby, handoff billed onto the cluster
    // cost model instead of being free by-value movement
    let mut router = ShardRouter::new(store.world_mut(), NODES);
    router.attach_metrics(&registry);
    router.enable_standby(0, 4);
    let cluster = ClusterExecutor::default();

    let mut streams: Vec<Replicator> = Vec::new();
    let mut mirrors: Vec<Replicator> = Vec::new();
    let mut stream_replicas: Vec<Replica> = Vec::new();
    let mut mirror_replicas: Vec<Replica> = Vec::new();
    for &(level, phase) in &CLIENTS {
        let mut rep = Replicator::with_interest(level, bubble_at(phase, 0));
        rep.attach_stream(store.world_mut());
        rep.attach_metrics(&registry);
        let mut mirror = Replicator::with_interest(level, bubble_at(phase, 0));
        mirror.attach_metrics(&registry);
        streams.push(rep);
        mirrors.push(mirror);
        stream_replicas.push(Replica::default());
        mirror_replicas.push(Replica::default());
    }

    // -- the run ------------------------------------------------------
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut max_lag = 0u64;
    let mut mid_snapshot = Snapshot::default();
    let mut audited = 0usize;
    let mut last_assignment = ShardAssignment::default();
    let mut distributed_total = 0usize;
    let mut simulated_us = 0.0f64;
    let mut single_server_us = 0.0f64;

    for t in 0..TICKS {
        let actions = churn_batch(&mut rng, &players, t);
        let assignment = shards.tick(store.world(), &actions);
        let mut cstats = cluster.execute(store.world_mut(), &assignment, &actions);
        engine.tick(store.world_mut()).unwrap();

        if t % 5 == 0 {
            // auditor queries: exercise the planner's attribute-index
            // and spatial paths against the live primary
            audited += Query::select()
                .filter("gold", CmpOp::Ge, Value::Int(120))
                .count(store.world());
            audited += Query::select()
                .within(Vec2::new(MAP / 2.0, MAP / 2.0), 150.0)
                .run(store.world())
                .len();
            // the maintained wealth aggregate equals a forced recompute
            store.world_mut().refresh_views();
            let plan = store.world().view_plan(wealth_view).unwrap().clone();
            assert_eq!(
                store.world().view_output(wealth_view),
                plan.evaluate(store.world()).unwrap(),
                "tick {t}: maintained wealth diverged from its recompute"
            );
        }

        store.commit().unwrap();
        if t % 50 == 49 {
            store.checkpoint().unwrap();
        }

        // ship this tick's cross-shard handoff as delta segments and
        // bill the bytes onto the tick — then hold every node's
        // segment-built state to the by-value oracle, byte for byte
        let hreport = router.tick(store.world_mut(), &assignment);
        cluster.bill_handoff(&mut cstats, hreport.total_bytes());
        distributed_total += cstats.distributed;
        simulated_us += cstats.simulated_us;
        single_server_us += cstats.single_server_us;
        for n in 0..NODES {
            assert_eq!(
                router.node_state(n).rows,
                node_oracle(store.world(), &assignment, n),
                "tick {t}: node {n} segment-built state diverged from the by-value oracle"
            );
        }
        assert!(
            router.standby_lag(0).expect("standby enabled") <= 4,
            "tick {t}: standby lag exceeded its budget"
        );
        last_assignment = assignment;

        for (i, &(_, phase)) in CLIENTS.iter().enumerate() {
            let interest = bubble_at(phase, t);
            streams[i].interest = interest;
            mirrors[i].interest = interest;
            let mark = store.snapshot_watermark();
            if !streams[i].sync_stream_durable(
                store.world_mut(),
                &mut stream_replicas[i],
                &mark,
            ) {
                // Strict refused an undrained watermark: drain and retry
                // (the refusal itself is counted as repl.gated_ticks)
                store.wait_durable(store.last_enqueued()).unwrap();
                let mark = store.snapshot_watermark();
                assert!(
                    streams[i].sync_stream_durable(
                        store.world_mut(),
                        &mut stream_replicas[i],
                        &mark,
                    ),
                    "drained watermark must unblock a Strict tick"
                );
            }
            mirrors[i].sync(store.world(), &mut mirror_replicas[i]);
        }

        let wm = store.watermark_snapshot();
        max_lag = max_lag.max(wm.lag);
        assert!(
            wm.lag <= LAG_BOUND,
            "tick {t}: durable watermark lag {} exceeded bound {LAG_BOUND}",
            wm.lag
        );

        if t == TICKS / 2 {
            mid_snapshot = registry.snapshot();
        }
    }

    store.wait_durable(store.last_enqueued()).unwrap();
    let final_wm = store.watermark_snapshot();
    assert_eq!(final_wm.lag, 0, "drained store must report zero watermark lag");
    assert_eq!(final_wm.enqueued.0, store.last_enqueued().0);

    let snap = registry.snapshot();

    // -- gate 1: durable watermark lag stayed bounded ------------------
    assert!(max_lag <= LAG_BOUND);
    assert!(
        snap.gauge("wal.watermark_lag") >= 0 && (snap.gauge("wal.watermark_lag") as u64) <= LAG_BOUND,
        "reported watermark-lag gauge out of bounds"
    );

    // -- gate 2: zero unpinned-tap evictions ---------------------------
    assert_eq!(
        snap.counter("change.tap_evictions"),
        0,
        "no replicator tap may be evicted during the run"
    );
    for (i, rep) in streams.iter().enumerate() {
        let ts = store.world().tap_stats(rep.stream_tap().expect("stream attached"));
        assert!(ts.attached && !ts.evicted, "stream {i} tap evicted");
        // later clients' migrating bubbles append RetargetView catalog
        // ops after this tap's final ack — row data is fully drained
        assert!(
            ts.lag <= CLIENTS.len() as u64,
            "stream {i} tap lag {} exceeds the catalog-op allowance",
            ts.lag
        );
    }

    // -- gate 3: delta stream beats the full-walk baseline -------------
    let delta_bytes = snap.counter("repl.segment_bytes");
    let walk_bytes = snap.counter("repl.full_walk_bytes");
    assert!(delta_bytes > 0 && walk_bytes > 0, "both replication paths must have run");
    assert!(
        delta_bytes < walk_bytes,
        "delta stream ({delta_bytes} B) must undercut full walks ({walk_bytes} B)"
    );
    // ... shipping no more rows, while converging to the identical
    // replica state
    for (i, (s, m)) in stream_replicas.iter().zip(&mirror_replicas).enumerate() {
        assert_eq!(s.rows, m.rows, "stream and mirror replicas diverged for client {i}");
        let (delta_rows, walk_rows) = (streams[i].rows_sent, mirrors[i].rows_sent);
        assert!(delta_rows <= walk_rows, "client {i}: {delta_rows} rows vs {walk_rows}");
    }

    // -- gate 4: handoff segments beat full-row shipping ----------------
    let handoff_bytes = snap.counter("shard.handoff_bytes");
    let handoff_baseline = snap.counter("shard.handoff_baseline_bytes");
    assert!(
        snap.counter("shard.handoff_entities") > 0,
        "migrating bubbles must hand entities across nodes"
    );
    assert!(handoff_bytes > 0 && handoff_baseline > 0, "handoff must have shipped");
    assert!(
        handoff_bytes < handoff_baseline,
        "handoff segments ({handoff_bytes} B) must undercut full-row shipping \
         ({handoff_baseline} B)"
    );
    assert_eq!(
        snap.counter("shard.handoff_resyncs"),
        0,
        "node links must never fall off the retention window"
    );

    // -- gate 5: warm standby promotes with zero divergence -------------
    let replayed = router.fail_over(0).expect("standby enabled on node 0");
    assert!(replayed <= 4, "failover must replay at most the lag budget");
    assert_eq!(
        router.node_state(0).rows,
        node_oracle(store.world(), &last_assignment, 0),
        "promoted standby diverged from node 0's oracle"
    );
    router.detach(store.world_mut());

    // -- cross-subsystem sanity over the shared registry ---------------
    assert!(snap.counter("change.records") > 0);
    assert!(snap.counter("change.batches") > 0);
    assert_eq!(snap.counter("script.ticks"), TICKS as u64);
    assert_eq!(snap.counter("shard.ticks"), TICKS as u64);
    assert!(snap.counter("wal.commits") >= TICKS as u64);
    assert!(snap.counter("wal.checkpoints") >= TICKS as u64 / 50);
    assert!(snap.counter("wal.flushes") > 0);
    assert!(snap.counter("planner.plans") > 0, "auditor queries must be planned");
    assert!(snap.counter("view.refreshes") > 0, "interest views must refresh");
    // the operator-tree view's per-operator counters flowed into the
    // shared registry: trades feed the fused scan, which feeds the
    // group aggregate
    assert!(
        snap.counter("view.op_scan.rows_in") > 0,
        "the wealth view's scan operator must have seen delta rows"
    );
    assert!(
        snap.counter("view.op_group.rows_in") > 0,
        "the wealth view's group operator must have folded delta rows"
    );
    assert!(
        snap.counter("repl.resyncs") == 0,
        "no tap eviction means no forced full resync"
    );
    let lat = snap
        .histogram("wal.enqueue_to_durable_us")
        .expect("latency histogram populated");
    assert!(lat.count > 0);
    assert!(audited > 0);

    // -- report artifact ----------------------------------------------
    let second_half = snap.delta(&mid_snapshot);
    let summary = format!(
        "players={PLAYERS} ticks={TICKS} nodes={NODES} clients={}\n\
         max watermark lag: {max_lag} commits (bound {LAG_BOUND})\n\
         delta stream: {delta_bytes} B vs full walk: {walk_bytes} B ({:.1}% of baseline)\n\
         shard handoff: {handoff_bytes} B vs full-row: {handoff_baseline} B \
         ({:.1}% of baseline), {} entities in {} segments\n\
         standby: replayed segments={} (failover tail={replayed})\n\
         cluster: {distributed_total} distributed actions, simulated {:.1} ms \
         vs single-server {:.1} ms\n\
         gated strict ticks: {}\n\
         dvm wealth view: op_scan rows_in={} rows_out={}, \
         op_group rows_in={} rows_out={}\n",
        CLIENTS.len(),
        100.0 * delta_bytes as f64 / walk_bytes as f64,
        100.0 * handoff_bytes as f64 / handoff_baseline as f64,
        snap.counter("shard.handoff_entities"),
        snap.counter("shard.handoff_segments"),
        registry.snapshot().counter("standby.replays"),
        simulated_us / 1000.0,
        single_server_us / 1000.0,
        snap.counter("repl.gated_ticks"),
        snap.counter("view.op_scan.rows_in"),
        snap.counter("view.op_scan.rows_out"),
        snap.counter("view.op_group.rows_in"),
        snap.counter("view.op_group.rows_out"),
    );
    write_report(&snap, &second_half, &summary);
}
