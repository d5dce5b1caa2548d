//! Property tests for the consistency machinery:
//! * every safe executor is serially equivalent on wealth (the auditor
//!   stays clean) under random action batches;
//! * the racy loop never *destroys* more than it *creates* silently — the
//!   auditor's drift always accounts for the discrepancy vs serial;
//! * dynamic bubble shard placement never splits a bubble across nodes
//!   and is deterministic;
//! * the maintained bubble partition and the placement built from it
//!   equal their from-scratch evaluations tick for tick under churn;
//! * the overlay executors read through agrees with what
//!   `EffectBuffer::apply` writes (CI step `replication-oracle`).

use std::collections::HashSet;

use gamedb_content::{Value, ValueType};
use gamedb_core::{Effect, EffectBuffer, EntityId, World};
use gamedb_spatial::Vec2;
use gamedb_sync::{
    arena_world, partition, Action, AssignPolicy, Auditor, BubbleConfig, BubbleExecutor,
    Executor, LockingExecutor, OptimisticExecutor, OverlayView, SerialExecutor, ShardManager,
    StateView,
};
use proptest::prelude::*;

/// Random positions, then random actions among the first `n` entities.
fn batch_strategy(n: usize) -> impl Strategy<Value = Vec<(u8, usize, usize, i64)>> {
    proptest::collection::vec(
        (0u8..4, 0..n, 0..n, 1i64..80),
        1..40,
    )
}

fn to_actions(raw: &[(u8, usize, usize, i64)], ids: &[EntityId]) -> Vec<Action> {
    raw.iter()
        .filter(|(_, a, b, _)| a != b)
        .map(|&(kind, a, b, amt)| match kind {
            0 => Action::Attack { attacker: ids[a], target: ids[b] },
            1 => Action::Trade { from: ids[a], to: ids[b], amount: amt },
            2 => Action::Heal { healer: ids[a], target: ids[b] },
            _ => Action::Move {
                who: ids[a],
                to: Vec2::new(b as f32, amt as f32),
                speed: 2.0,
            },
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// No safe executor ever creates or destroys wealth, overdraws an
    /// account, or teleports anyone — on any batch.
    #[test]
    fn safe_executors_always_audit_clean(
        raw in batch_strategy(24),
        positions in proptest::collection::vec((-50.0f32..50.0, -50.0f32..50.0), 24..25),
    ) {
        let execs: Vec<Box<dyn Executor>> = vec![
            Box::new(SerialExecutor),
            Box::new(LockingExecutor),
            Box::new(OptimisticExecutor::default()),
            Box::new(BubbleExecutor::default()),
        ];
        for exec in execs {
            let (mut w, ids) = arena_world(24, |i| {
                Vec2::new(positions[i].0, positions[i].1)
            });
            let batch = gamedb_sync::collapse_moves(to_actions(&raw, &ids));
            let mut auditor = Auditor::new(2.0);
            let before = auditor.snapshot(&w);
            exec.execute(&mut w, &batch);
            let report = auditor.audit(&before, &w);
            prop_assert!(
                report.clean(),
                "{} violated invariants: {report:?}",
                exec.name()
            );
        }
    }

    /// All safe executors agree with the serial baseline on total wealth
    /// (they may differ in serialization order, so per-entity state can
    /// legitimately differ on conflicting trades — the conserved quantity
    /// is what matters).
    #[test]
    fn executors_agree_on_wealth(
        raw in batch_strategy(16),
    ) {
        let run = |exec: &dyn Executor| {
            let (mut w, ids) = arena_world(16, |i| Vec2::new(i as f32 * 4.0, 0.0));
            let batch = to_actions(&raw, &ids);
            exec.execute(&mut w, &batch);
            gamedb_sync::wealth(&w)
        };
        let reference = run(&SerialExecutor);
        prop_assert_eq!(run(&LockingExecutor), reference);
        prop_assert_eq!(run(&OptimisticExecutor::default()), reference);
        prop_assert_eq!(run(&BubbleExecutor::default()), reference);
    }

    /// Dynamic bubble placement never splits a causality bubble across
    /// server nodes, and the same world places identically twice.
    #[test]
    fn shard_placement_respects_bubbles(
        positions in proptest::collection::vec((-400.0f32..400.0, -400.0f32..400.0), 4..64),
        nodes in 1usize..8,
    ) {
        let (w, _) = arena_world(positions.len(), |i| {
            Vec2::new(positions[i].0, positions[i].1)
        });
        let cfg = BubbleConfig::default();
        let mgr = ShardManager::new(
            nodes,
            AssignPolicy::DynamicBubbles { cfg, max_overload: 1.5 },
        );
        let a1 = mgr.assign(&w);
        let a2 = mgr.assign(&w);
        prop_assert_eq!(&a1, &a2, "placement must be deterministic");
        let part = partition(&w, &cfg);
        for bubble in &part.bubbles {
            let owners: std::collections::HashSet<usize> =
                bubble.iter().map(|&e| a1.node_of(e).unwrap()).collect();
            prop_assert_eq!(owners.len(), 1, "bubble split across nodes");
        }
        // every positioned entity is placed
        prop_assert_eq!(a1.len(), positions.len());
    }

    /// ISSUE-12 tentpole: `ShardManager::tick` places from a maintained
    /// bubble partition (only movers are re-probed). Under seeded moves,
    /// cross-cell teleports, velocity changes (one entity raising the
    /// world's maximum reach, then dropping it again), spawns, despawns
    /// with slot reuse, position removal, and a mid-run manager rebuild
    /// seeded with the old placement on a different node count, every
    /// tick the maintained partition equals `partition` as a set of sets
    /// and the placement equals the from-scratch `assign`, entity for
    /// entity.
    #[test]
    fn incremental_placement_equals_from_scratch_under_churn(
        positions in proptest::collection::vec((0.0f32..80.0, 0.0f32..80.0), 24..48),
        script in proptest::collection::vec(
            proptest::collection::vec((0u8..8, 0usize..1000, 0.0f32..80.0, 0.0f32..80.0), 0..8),
            40..48,
        ),
        nodes in 2usize..6,
        reseed_at in 5usize..35,
        reseed_nodes in 1usize..6,
    ) {
        let (mut w, mut live) = arena_world(positions.len(), |i| {
            Vec2::new(positions[i].0, positions[i].1)
        });
        w.define_component("vel", ValueType::Vec2).unwrap();
        let cfg = BubbleConfig::default();
        let policy = AssignPolicy::DynamicBubbles { cfg, max_overload: 1.3 };
        let mut mgr = ShardManager::new(nodes, policy);
        let mut last = None;
        for (t, ops) in script.iter().enumerate() {
            for &(kind, pick, x, y) in ops {
                if kind == 4 {
                    // reuses the most recently freed slot, if any
                    live.push(w.spawn_at(Vec2::new(x, y)));
                    continue;
                }
                if live.is_empty() {
                    continue;
                }
                let at = pick % live.len();
                let e = live[at];
                match kind {
                    0 | 1 => {
                        // a step within (mostly) the same grid cell
                        if let Some(p) = w.pos(e) {
                            let step = Vec2::new((x - 40.0) / 20.0, (y - 40.0) / 20.0);
                            w.set_pos(e, p + step).unwrap();
                        }
                    }
                    // teleport across cells; also re-positions an
                    // entity whose position was removed
                    2 => w.set_pos(e, Vec2::new(x, y)).unwrap(),
                    3 => {
                        let v = Value::Vec2((x - 40.0) / 8.0, (y - 40.0) / 8.0);
                        w.set(e, "vel", v).unwrap();
                    }
                    5 => {
                        w.despawn(e);
                        live.swap_remove(at);
                    }
                    6 => {
                        w.remove_component(e, "pos").unwrap();
                    }
                    _ => {
                        w.remove_component(e, "vel").unwrap();
                    }
                }
            }
            // one entity outruns everyone (every probe radius grows),
            // then stops again
            if let Some(&fast) = live.first() {
                if t == 7 {
                    w.set(fast, "vel", Value::Vec2(40.0, 0.0)).unwrap();
                } else if t == 21 {
                    w.set(fast, "vel", Value::Vec2(0.0, 0.0)).unwrap();
                }
            }
            if t == reseed_at {
                // failover: a fresh manager (empty partition cache) on
                // another node count adopts the last placement
                mgr = ShardManager::new(reseed_nodes, policy);
                if let Some(last) = last.take() {
                    mgr.seed_placement(last);
                }
            }
            let expect = mgr.assign(&w);
            let got = mgr.tick(&w, &[]);
            prop_assert_eq!(&got, &expect, "placement diverged at tick {}", t);

            let canonical = |mut bubbles: Vec<Vec<EntityId>>| {
                for b in &mut bubbles {
                    b.sort_unstable();
                }
                bubbles.sort_unstable();
                bubbles
            };
            let tracker = mgr.bubbles().expect("a bubble tick builds the partition");
            let maintained: Vec<Vec<EntityId>> = tracker
                .joined()
                .chain(tracker.singletons())
                .map(<[EntityId]>::to_vec)
                .collect();
            prop_assert_eq!(maintained.len(), tracker.len());
            prop_assert_eq!(
                canonical(maintained),
                canonical(partition(&w, &cfg).bubbles),
                "partition diverged at tick {}", t
            );
            last = Some(got);
        }
    }
}

// ---- the overlay against `EffectBuffer::apply` ----

const OVERLAY_COMPONENTS: [&str; 5] = ["hp", "gold", "power", "home", "pos"];

/// Six targets: four positioned players (one without `hp`, one without
/// `power`, one holding a gold no `f64` holds, one with a `home`), an
/// unpositioned entity, and a dead id.
fn overlay_world() -> (World, Vec<EntityId>) {
    let (mut w, mut ids) = arena_world(4, |i| Vec2::new(i as f32 * 3.0, 1.0));
    w.define_component("home", ValueType::Vec2).unwrap();
    w.remove_component(ids[1], "hp").unwrap();
    w.remove_component(ids[2], "power").unwrap();
    w.set(ids[0], "gold", Value::Int(9_007_199_254_740_993)).unwrap();
    w.set(ids[3], "home", Value::Vec2(1.0, 1.0)).unwrap();
    let flag = w.spawn();
    w.set(flag, "gold", Value::Int(-3)).unwrap();
    let dead = w.spawn_at(Vec2::ZERO);
    w.despawn(dead);
    ids.extend([flag, dead]);
    (w, ids)
}

/// A well-typed effect on `component` from a generated `(kind, a)`:
/// `Set`/`Add`/`Min`/`Max` on the numeric columns — bounds include NaN,
/// 1e18 and fractions — and `Set`/`AddVec2` on `home` and `pos`.
fn overlay_effect(component: &str, kind: u8, a: i8) -> Effect {
    let x = a as f64 * 0.75;
    let bound = match a {
        -8 => f64::NAN,
        7 => 1e18,
        _ => x,
    };
    match (component, kind % 4) {
        ("hp" | "power", 0) => Effect::Set(Value::Float(x as f32)),
        ("gold", 0) => Effect::Set(Value::Int(a as i64)),
        ("hp" | "power" | "gold", 1) => Effect::Add(x),
        ("hp" | "power" | "gold", 2) => Effect::Min(bound),
        ("hp" | "power" | "gold", _) => Effect::Max(bound),
        (_, k) if k % 2 == 0 => Effect::Set(Value::Vec2(x as f32, a as f32)),
        _ => Effect::AddVec2(x as f32, -0.5),
    }
}

/// Every read an action can make, for every target.
fn overlay_reads(view: &impl StateView, ids: &[EntityId]) -> Vec<String> {
    let mut out = Vec::new();
    for &e in ids {
        out.push(format!("{e:?} live {} pos {:?}", view.view_is_live(e), view.view_pos(e)));
        for c in OVERLAY_COMPONENTS {
            out.push(format!("{e:?} {c} {:?}", view.view_get(e, c)));
        }
    }
    out
}

proptest! {
    // 64 cases by default; CI's `replication-oracle` step runs 256
    // through PROPTEST_CASES
    #![proptest_config(ProptestConfig::default())]

    /// Executors push every action into one shared buffer and absorb
    /// only what the action just pushed into the overlay its successors
    /// read. Step by step — each step's effects (one per slot) pushed
    /// into the shared buffer and absorbed from the mark taken before
    /// them, and applied to a second world as a buffer of their own —
    /// every read through the overlay equals the read of the applied
    /// world: absent columns, int and float, Min/Max/Add/AddVec2/Set
    /// (NaN and non-binding bounds on an integer beyond 2^53 included),
    /// `pos`, dead targets and despawns.
    #[test]
    fn overlay_reads_equal_applied_state(
        steps in proptest::collection::vec(
            (
                proptest::collection::vec((0usize..6, 0usize..5, 0u8..4, -8i8..8), 0..6),
                proptest::option::of(0usize..6),
            ),
            1..24,
        ),
    ) {
        let (base, ids) = overlay_world();
        let mut applied = base.clone();
        let mut shared = EffectBuffer::new();
        let mut overlay = OverlayView::new(&base);
        for (t, (ops, despawn)) in steps.into_iter().enumerate() {
            let mut step = EffectBuffer::new();
            let mark = shared.mark();
            let mut slots = HashSet::new();
            for (e, c, kind, a) in ops {
                let component = OVERLAY_COMPONENTS[c];
                if slots.insert((e, c)) {
                    let effect = overlay_effect(component, kind, a);
                    shared.push(ids[e], component, effect.clone());
                    step.push(ids[e], component, effect);
                }
            }
            if let Some(e) = despawn {
                shared.despawn(ids[e]);
                step.despawn(ids[e]);
            }
            overlay.absorb(&shared, mark);
            step.apply(&mut applied).unwrap();
            let (got, want) = (overlay_reads(&overlay, &ids), overlay_reads(&applied, &ids));
            let differ: Vec<_> = got.iter().zip(&want).filter(|(g, w)| g != w).collect();
            prop_assert!(differ.is_empty(), "after step {}, (overlay, applied): {:?}", t, differ);
        }
    }
}
