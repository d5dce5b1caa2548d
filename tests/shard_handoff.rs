//! Crash-during-handoff: cross-shard change shipping meets the
//! persistence layer.
//!
//! A [`ShardRouter`] streams entity handoffs between nodes as
//! [`DeltaSegment`]s while the primary commits through a [`WalStore`].
//! These tests crash the primary **mid-handoff** — a torn log tail at
//! every byte offset across the handoff tick's WAL record, the
//! crash-point harness's fault model — and prove the rebuilt cluster is
//! exact: the recovered world equals the durable-boundary oracle
//! ([`assert_equivalent`]), a [`ShardManager`] seeded with the last
//! durable placement re-derives it (the torn handoff never happened),
//! and node-local state rebuilt purely from segments matches the
//! by-value oracle.

use gamedb::content::Value;
use gamedb::core::{EntityId, World};
use gamedb::persist::{assert_equivalent, decode_log, temp_dir, Backend, FaultKind, WalStore};
use gamedb::spatial::Vec2;
use gamedb::sync::{
    arena_world, node_oracle, step_flock, AssignPolicy, BubbleConfig, ShardAssignment,
    ShardManager, ShardRouter,
};

const NODES: usize = 3;
/// Committed rounds before the crash round.
const ROUNDS: usize = 8;

fn manager() -> ShardManager {
    ShardManager::new(
        NODES,
        AssignPolicy::DynamicBubbles { cfg: BubbleConfig::default(), max_overload: 1.2 },
    )
}

/// Three squads far apart plus an unpositioned global flag — the same
/// cluster the router's unit tests migrate.
fn build_store(tag: &str) -> (WalStore, Vec<EntityId>) {
    let (mut world, ids) = arena_world(24, |i| {
        let squad = i / 8;
        Vec2::new(squad as f32 * 5000.0 + (i % 8) as f32 * 2.0, 0.0)
    });
    let flag = world.spawn();
    world.set(flag, "gold", Value::Int(777)).unwrap();
    let backend = Backend::open(temp_dir(tag)).unwrap();
    let store = WalStore::new(world, backend, 1).unwrap();
    (store, ids)
}

/// One round of deterministic churn: drift toward the origin plus
/// component writes, a despawn, and a spawn.
fn churn(w: &mut World, ids: &[EntityId], t: usize) {
    step_flock(w, ids, Vec2::new(0.0, 0.0), 120.0);
    for (i, &e) in ids.iter().enumerate() {
        if i % 3 == t % 3 && w.is_live(e) {
            w.set_f32(e, "hp", 40.0 + (t * 7 + i) as f32).unwrap();
        }
    }
    if t == 4 {
        w.despawn(ids[5]);
    }
    if t == 6 {
        let e = w.spawn_at(Vec2::new(300.0, 10.0));
        w.set_f32(e, "hp", 55.0).unwrap();
    }
}

/// The crash round's mutation: two squad-0 members teleport into squad
/// 2's bubble, so the tick's segments carry a genuine cross-node
/// handoff (full-row puts on the gaining link, drops on the losing
/// one) — the traffic the crash tears.
fn teleport_defectors(w: &mut World, ids: &[EntityId]) {
    let anchor = w.pos(ids[16]).expect("squad 2 lives");
    for &e in &ids[0..2] {
        w.set_pos(e, anchor + Vec2::new(1.0, 1.0)).unwrap();
    }
}

/// Run the scripted scenario: `ROUNDS` committed rounds, then the
/// crash round (teleports + handoff + commit) with an optional torn
/// fault scheduled `fault_off` bytes past the pre-crash log length.
/// Returns the store (crashed and recovered), the oracle trace of
/// `(log_len, world, assignment)` after each commit, and the handoff
/// entities the crash tick shipped.
fn scripted_run(
    tag: &str,
    fault_off: Option<u64>,
) -> (WalStore, Vec<(u64, World, ShardAssignment)>, usize) {
    let (mut store, ids) = build_store(tag);
    let mut mgr = manager();
    let mut router = ShardRouter::new(store.world_mut(), NODES);
    let mut oracle = Vec::new();
    for t in 0..ROUNDS {
        churn(store.world_mut(), &ids, t);
        let a = mgr.tick(store.world(), &[]);
        router.tick(store.world_mut(), &a);
        store.commit().unwrap();
        let len = store.backend().log_len().unwrap();
        oracle.push((len, store.world().clone(), a));
    }
    let before = store.backend().log_len().unwrap();
    if let Some(off) = fault_off {
        store.backend_mut().schedule_log_fault(before + off, FaultKind::Torn);
    }
    // the crash round: a real cross-node handoff is in flight
    teleport_defectors(store.world_mut(), &ids);
    churn(store.world_mut(), &ids, ROUNDS);
    let a = mgr.tick(store.world(), &[]);
    let report = router.tick(store.world_mut(), &a);
    let moved = report.total_moved();
    store.commit().unwrap();
    let len = store.backend().log_len().unwrap();
    oracle.push((len, store.world().clone(), a));
    let (store, _) = store.crash_and_recover().unwrap();
    (store, oracle, moved)
}

/// Sweep torn-tail crash points across the handoff tick's WAL record.
/// At every offset: the recovered world equals the durable-boundary
/// oracle, and a cluster rebuilt on it — manager seeded with the last
/// durable placement, fresh router — re-derives that placement and
/// node states byte-identical to the by-value oracle.
#[test]
fn crash_during_handoff_recovers_exact_node_states_at_every_offset() {
    // probe: the crash tick's record spans [before, before + tail)
    let tail = {
        let (store, oracle, moved) = scripted_run("handoff-probe", None);
        assert!(moved >= 2, "crash tick must carry a real handoff");
        let durable = oracle.last().unwrap();
        assert_equivalent(store.world(), &durable.1).unwrap();
        durable.0 - oracle[ROUNDS - 1].0
    };
    assert!(tail > 0);
    // ~10 offsets across the record, endpoints included
    let stride = (tail as usize / 9).max(1);
    for off in (0..=tail).step_by(stride) {
        let (mut store, oracle, _) = scripted_run("handoff-sweep", Some(off));
        // expected durable state: the commit whose record the recovered
        // log decodes to — the harness's own oracle-matching rule (a
        // torn record is discarded whole, so the fault-time log length
        // is not a commit boundary)
        let log = store.backend().read_log().unwrap();
        let (_, consumed) = decode_log(&log);
        let (_, expected_world, expected_assignment) = oracle
            .iter()
            .find(|(len, _, _)| *len == consumed as u64)
            .expect("recovery stops at a durable commit boundary");
        assert_equivalent(store.world(), expected_world)
            .unwrap_or_else(|e| panic!("offset {off}: {e}"));
        // rebuild the cluster on the recovered primary: stickiness
        // seeded with the last durable placement re-derives it — the
        // torn handoff never happened
        let mut mgr = manager();
        mgr.seed_placement(expected_assignment.clone());
        let mut router = ShardRouter::new(store.world_mut(), NODES);
        let a = mgr.tick(store.world(), &[]);
        assert_eq!(
            &a, expected_assignment,
            "offset {off}: seeded rebuild must re-derive the durable placement"
        );
        router.tick(store.world_mut(), &a);
        for n in 0..NODES {
            assert_eq!(
                router.node_state(n).rows,
                node_oracle(store.world(), &a, n),
                "offset {off}: node {n} diverged after the rebuild"
            );
        }
        router.detach(store.world_mut());
    }
}

/// After a clean crash-recovery the rebuilt cluster keeps streaming:
/// handoffs (including fresh defections) stay byte-identical to the
/// oracle, the delta framing keeps beating full-row shipping, and a
/// warm standby promoted mid-run carries zero divergence.
#[test]
fn recovered_cluster_resumes_streaming_and_standby_failover_is_exact() {
    let (mut store, oracle, _) = scripted_run("handoff-resume", None);
    let (_, _, last_placement) = oracle.last().unwrap();
    let mut mgr = manager();
    mgr.seed_placement(last_placement.clone());
    let mut router = ShardRouter::new(store.world_mut(), NODES);
    router.enable_standby(1, 2);
    let ids: Vec<EntityId> = store
        .world()
        .entities()
        .filter(|&e| store.world().pos(e).is_some())
        .collect();
    let mut last = ShardAssignment::default();
    for t in 0..6 {
        churn(store.world_mut(), &ids, ROUNDS + 1 + t);
        if t == 2 {
            teleport_defectors(store.world_mut(), &ids);
        }
        last = mgr.tick(store.world(), &[]);
        router.tick(store.world_mut(), &last);
        store.commit().unwrap();
        for n in 0..NODES {
            assert_eq!(
                router.node_state(n).rows,
                node_oracle(store.world(), &last, n),
                "node {n} diverged at resumed tick {t}"
            );
        }
        assert!(router.standby_lag(1).unwrap() <= 2);
    }
    assert!(
        router.handoff_bytes < router.baseline_bytes,
        "segments ({} B) must undercut full-row shipping ({} B)",
        router.handoff_bytes,
        router.baseline_bytes
    );
    // node 1 dies; its warm standby replays only the buffered tail
    let replayed = router.fail_over(1).expect("standby enabled");
    assert!(replayed <= 2, "failover replays at most the lag budget");
    assert_eq!(
        router.node_state(1).rows,
        node_oracle(store.world(), &last, 1),
        "promoted standby must carry zero divergence"
    );
    router.detach(store.world_mut());
}
