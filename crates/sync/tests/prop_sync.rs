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
//!   `EffectBuffer::apply` writes (CI step `replication-oracle`);
//! * the auditor reports, tick for tick, what a scan of the whole world
//!   reports (CI step `auditor`).

use std::collections::{HashMap, HashSet};

use gamedb_content::{CmpOp, Value, ValueType};
use gamedb_core::{Effect, EffectBuffer, EntityId, IndexKind, Query, World};
use gamedb_spatial::Vec2;
use gamedb_sync::{
    arena_world, partition, Action, AssignPolicy, AuditReport, Auditor, BubbleConfig,
    BubbleExecutor, Executor, LockingExecutor, OptimisticExecutor, OverlayView, RacyExecutor,
    SerialExecutor, ShardManager, StateView,
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
            let mut auditor = Auditor::attach(&mut w, 2.0);
            exec.execute(&mut w, &batch);
            let report = auditor.audit(&mut w);
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

// ---- the auditor against the scanning oracle (CI step `auditor`) ----

/// The scanning auditor, kept as the oracle: total wealth by
/// [`gamedb_sync::wealth`], overdrafts by a `gold < 0` query, speed by a
/// map of every position at the previous audit.
struct ScanOracle {
    max_step: f32,
    wealth: i64,
    positions: HashMap<EntityId, Vec2>,
}

impl ScanOracle {
    fn new(world: &World, max_step: f32) -> Self {
        ScanOracle {
            max_step,
            wealth: gamedb_sync::wealth(world),
            positions: positions(world),
        }
    }

    fn audit(&mut self, world: &World) -> AuditReport {
        let wealth = gamedb_sync::wealth(world);
        let positions = positions(world);
        let report = AuditReport {
            wealth_drift: wealth - self.wealth,
            overdrafts: Query::select()
                .filter("gold", CmpOp::Lt, Value::Int(0))
                .count(world),
            speed_violations: positions
                .iter()
                .filter(|&(e, now)| {
                    self.positions
                        .get(e)
                        .is_some_and(|then| now.dist(*then) > self.max_step + 1e-3)
                })
                .count(),
        };
        self.wealth = wealth;
        self.positions = positions;
        report
    }
}

fn positions(world: &World) -> HashMap<EntityId, Vec2> {
    world
        .entities()
        .filter_map(|e| world.pos(e).map(|p| (e, p)))
        .collect()
}

/// One write of an audited tick. Players and items are addressed by
/// their index (modulo the count) in spawn order; a step on a dead or
/// missing entity does nothing.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Queued as an action for the tick's executor.
    Trade(usize, usize, i64),
    /// Queued as an action: player, item.
    Pickup(usize, usize),
    Despawn(usize),
    RemoveGold(usize),
    SetGold(usize, i64),
    SpawnPlayer(i64),
    SpawnItem(i64),
    /// One hop of `(dx, dy)`; several in one tick chain.
    Move(usize, f32, f32),
    RemovePos(usize),
}

/// A tick: whether its actions run through `RacyExecutor` (else
/// `SerialExecutor`), then its steps.
type Tick = (bool, Vec<Step>);

/// Run `ticks` on a line of `players` (3 apart) with an auditor and the
/// oracle attached, and return each tick's two reports, auditor first.
fn audit_both(
    players: usize,
    max_step: f32,
    indexed: bool,
    retention: usize,
    ticks: &[Tick],
) -> Vec<(AuditReport, AuditReport)> {
    let (mut w, mut ids) = arena_world(players, |i| Vec2::new(i as f32 * 3.0, 0.0));
    if indexed {
        w.create_index("gold", IndexKind::Sorted).unwrap();
    }
    w.set_tap_retention(Some(retention));
    let mut items: Vec<EntityId> = Vec::new();
    let mut auditor = Auditor::attach(&mut w, max_step);
    let mut oracle = ScanOracle::new(&w, max_step);
    let mut reports = Vec::new();
    for (racy, steps) in ticks {
        let mut batch = Vec::new();
        for &step in steps {
            let player = |i: usize| ids[i % ids.len()];
            match step {
                Step::Trade(a, b, amount) => {
                    batch.push(Action::Trade { from: player(a), to: player(b), amount })
                }
                Step::Pickup(a, i) if !items.is_empty() => batch.push(Action::Pickup {
                    player: player(a),
                    item: items[i % items.len()],
                }),
                Step::Pickup(..) => {}
                Step::Despawn(a) => {
                    w.despawn(player(a));
                }
                Step::RemoveGold(a) if w.is_live(player(a)) => {
                    w.remove_component(player(a), "gold").unwrap();
                }
                Step::SetGold(a, g) if w.is_live(player(a)) => {
                    w.set(player(a), "gold", Value::Int(g)).unwrap();
                }
                Step::SpawnPlayer(g) => {
                    let e = w.spawn_at(Vec2::new(ids.len() as f32 * 3.0, 0.0));
                    w.set(e, "gold", Value::Int(g)).unwrap();
                    ids.push(e);
                }
                Step::SpawnItem(v) => {
                    let e = w.spawn_at(Vec2::ZERO);
                    w.set(e, "value", Value::Int(v)).unwrap();
                    items.push(e);
                }
                Step::Move(a, dx, dy) => {
                    // a removed position comes back where the line put it
                    let e = player(a);
                    if w.is_live(e) {
                        let p = w.pos(e).unwrap_or(Vec2::new((a % ids.len()) as f32 * 3.0, 0.0));
                        w.set_pos(e, Vec2::new(p.x + dx, p.y + dy)).unwrap();
                    }
                }
                Step::RemovePos(a) if w.is_live(player(a)) => {
                    w.remove_component(player(a), "pos").unwrap();
                }
                Step::RemoveGold(_) | Step::SetGold(..) | Step::RemovePos(_) => {}
            }
        }
        if *racy {
            RacyExecutor.execute(&mut w, &batch);
        } else {
            SerialExecutor.execute(&mut w, &batch);
        }
        reports.push((auditor.audit(&mut w), oracle.audit(&w)));
    }
    auditor.release(&mut w);
    reports
}

/// A generated step: a legal hop is at most 2.0 (the limit is 2.5); a
/// teleport is two or three legal hops that leave the limit behind, or
/// go out and come back.
fn step_strategy() -> impl Strategy<Value = Vec<Step>> {
    (0u8..10, 0usize..40, 0usize..40, -60i64..160).prop_map(|(kind, a, b, x)| match kind {
        0 | 1 => vec![Step::Trade(a, b, x.abs() + 1)],
        2 => vec![Step::Pickup(a, b)],
        3 => vec![Step::Despawn(a)],
        4 => vec![Step::RemoveGold(a)],
        5 => vec![Step::SpawnPlayer(x)],
        6 => vec![Step::SpawnItem(x.abs())],
        7 => vec![Step::SetGold(a, x)],
        8 => vec![Step::Move(a, (x % 5) as f32 * 0.5, (b % 5) as f32 * 0.4 - 0.8)],
        _ => {
            let hops = 2 + b % 2;
            let back = x % 2 == 0;
            let mut steps: Vec<Step> = (0..hops)
                .map(|h| {
                    let dx = if back && h % 2 == 1 { -2.0 } else { 2.0 };
                    Step::Move(a, dx, 0.0)
                })
                .collect();
            if b % 5 == 0 {
                // through a removed position: the position before the
                // removal stays the baseline
                steps.insert(0, Step::RemovePos(a));
            }
            steps
        }
    })
}

proptest! {
    // 64 cases by default; CI's `auditor` step runs 512 through
    // PROPTEST_CASES
    #![proptest_config(ProptestConfig::default())]

    /// Every tick, the auditor (one pinned tap, one `gold < 0` view)
    /// reports exactly what the scanning oracle reports: trades through
    /// the racy loop (dupes) and the serial one, pickups, despawns of
    /// gold holders, gold removals and overdrafts, spawns with gold,
    /// legal moves and multi-hop teleports, with or without a sorted
    /// `gold` index, under a tap retention of 4–16 records that a tick
    /// usually outgrows.
    #[test]
    fn auditor_equals_scan_oracle(
        ticks in proptest::collection::vec(
            (any::<bool>(), proptest::collection::vec(step_strategy(), 0..12)),
            1..10,
        ),
        players in 3usize..20,
        indexed in any::<bool>(),
        retention in 4usize..17,
    ) {
        let ticks: Vec<Tick> = ticks
            .into_iter()
            .map(|(racy, steps)| (racy, steps.into_iter().flatten().collect()))
            .collect();
        for (tick, (audited, scanned)) in
            audit_both(players, 2.5, indexed, retention, &ticks).into_iter().enumerate()
        {
            prop_assert_eq!(audited, scanned, "tick {}", tick);
        }
    }
}

/// Hand-written scripts (the cases the deleted per-mechanism tests
/// pinned), each run with and without a `gold` index: they must audit
/// like the oracle, and between them exercise every invariant.
#[test]
fn fixed_scripts_audit_like_the_scan_oracle() {
    use Step::*;
    let serial = |ticks: Vec<Vec<Step>>| -> Vec<Tick> {
        ticks.into_iter().map(|steps| (false, steps)).collect()
    };
    let hop = |i, dx| Move(i, dx, 0.0);
    let scripts: Vec<(usize, f32, Vec<Tick>)> = vec![
        // movement: legal moves, a blatant hack, a teleport in two hops
        // that are each legal, then two violations at once
        (12, 2.5, serial(vec![
            vec![hop(0, 1.0), hop(1, 2.0)],
            vec![hop(2, 50.0)],
            vec![hop(3, 2.0), hop(3, 2.0)],
            vec![hop(4, -1.0), hop(5, 2.4)],
            vec![],
            vec![hop(0, 3.0), hop(1, -9.0), hop(2, 0.5)],
        ])),
        // wealth: a conserving trade, a dupe, a minted item, a pickup,
        // a gold-carrying death (the `Despawned` row image), a removal
        (6, 100.0, serial(vec![
            vec![SetGold(0, 40), SetGold(1, 160)],
            vec![SetGold(2, 200)],
            vec![SpawnItem(500)],
            vec![Pickup(0, 0), SetGold(3, 90)],
            vec![Despawn(4)],
            vec![RemoveGold(5)],
            vec![],
            vec![SetGold(0, 0), SpawnItem(7), Despawn(1)],
        ])),
        // an overdraft and a black hole beside a minted item and a death
        (6, 100.0, serial(vec![
            vec![SetGold(0, 40), SetGold(1, 160)],
            vec![SetGold(2, 200)],
            vec![SetGold(3, -30), SpawnItem(77), Despawn(5)],
            vec![],
            vec![SetGold(0, 0), SetGold(4, 500)],
        ])),
        // moves and gold in one stream: a hack on tick 2, a dupe on 3
        (4, 2.0, serial(vec![
            vec![hop(0, 1.0)],
            vec![hop(0, 1.0)],
            vec![hop(0, 50.0)],
            vec![hop(0, 1.0), SetGold(1, 999)],
        ])),
        // overdrafts appear, recover, survive a despawn and swap
        (4, 3.0, serial(vec![
            vec![SetGold(0, -40)],
            vec![SetGold(1, -5), SetGold(2, 10)],
            vec![SetGold(0, 25)],
            vec![Despawn(2)],
            vec![SetGold(1, 0), SetGold(3, -1)],
        ])),
        // the racy loop's dupe, tick after tick
        (3, 3.0, vec![(true, vec![Trade(0, 1, 60), Trade(0, 2, 60)]); 3]),
    ];
    let mut seen = AuditReport::default();
    for (script, (players, max_step, ticks)) in scripts.iter().enumerate() {
        for indexed in [false, true] {
            for (tick, (audited, scanned)) in
                audit_both(*players, *max_step, indexed, 4, ticks).into_iter().enumerate()
            {
                assert_eq!(audited, scanned, "script {script}, tick {tick}, indexed {indexed}");
                seen.wealth_drift += audited.wealth_drift.abs();
                seen.overdrafts += audited.overdrafts;
                seen.speed_violations += audited.speed_violations;
            }
        }
    }
    assert!(seen.wealth_drift > 0 && seen.overdrafts > 0 && seen.speed_violations > 0);
}
