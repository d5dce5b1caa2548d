//! Exploit detection: the invariants a consistent MMO must keep.
//!
//! The paper: "concurrency violations in scripting languages are one of
//! the largest sources of bugs and exploits in MMOs" — duplication
//! ("dupe") exploits, speed hacks, and item black holes \[6\]. This module
//! provides
//!
//! * [`RacyExecutor`] — a faithful model of the *buggy* server loop those
//!   exploits target: every action reads tick-start state and writes
//!   absolute values back (read-modify-write without any concurrency
//!   control). Concurrent trades out of one account duplicate gold;
//!   concurrent pickups of one item duplicate loot; concurrent attacks
//!   lose damage.
//! * [`Auditor`] — the invariant checker an operations team runs against
//!   every tick: wealth conservation (no gold created or destroyed),
//!   no-overdraft, and per-tick movement bounds (speed-hack detection).
//!
//! Experiment E13 runs the same workload through the racy loop and each
//! safe executor and counts what the auditor catches.

use std::collections::HashMap;

use gamedb_content::{CmpOp, Value};
use gamedb_core::{ChangeOp, EntityId, Query, TapId, ViewId, World, POS_ID};
use gamedb_spatial::Vec2;

use crate::action::Action;
use crate::executor::{ExecStats, Executor};

/// Total wealth of a world: live entities' `gold` plus live items'
/// `value`. Every built-in action conserves this sum — trades move gold,
/// pickups convert an item's `value` into the holder's `gold`.
pub fn wealth(world: &World) -> i64 {
    world
        .entities()
        .map(|e| world.get_i64(e, "gold").unwrap_or(0) + world.get_i64(e, "value").unwrap_or(0))
        .sum()
}

/// One tick's audit findings.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AuditReport {
    /// Wealth after minus wealth before. Positive = a dupe created value
    /// out of thin air; negative = a black hole destroyed it. Zero for
    /// every serially-equivalent executor.
    pub wealth_drift: i64,
    /// Entities holding negative gold after the tick.
    pub overdrafts: usize,
    /// Entities that moved farther than the speed limit allows in one
    /// tick (speed hacks, or a broken movement integrator).
    pub speed_violations: usize,
}

impl AuditReport {
    /// True when the tick kept every invariant.
    pub fn clean(&self) -> bool {
        self.wealth_drift == 0 && self.overdrafts == 0 && self.speed_violations == 0
    }
}

/// Tick-by-tick invariant checker, fed by one pinned change-stream tap
/// and one standing `gold < 0` view.
///
/// Each [`Auditor::audit`] reads the records written since
/// [`Auditor::attach`] or the previous audit: wealth drift is the sum of
/// the `gold`/`value` records' `old → new` steps (a `Despawned` record
/// carries the dropped row image, so a death folds too), and a mover's
/// first pre-move position in the segment is its baseline for the speed
/// check. Overdrafts are the view's row count. Nothing scans the world.
///
/// The tap is pinned, so tap retention never evicts it: an evicted tap
/// would read nothing and report a dupe as a clean tick. A pinned tap
/// also keeps every later record retained until it is read, so call
/// [`Auditor::release`] when retiring the auditor. Not `Clone`: two
/// auditors sharing one tap would each consume the other's records.
///
/// ```
/// # use gamedb_sync::{arena_world, Action, Auditor, Executor, SerialExecutor};
/// # use gamedb_spatial::Vec2;
/// let (mut world, ids) = arena_world(2, |i| Vec2::new(i as f32 * 3.0, 0.0));
/// let mut auditor = Auditor::attach(&mut world, 2.5);
/// SerialExecutor.execute(&mut world, &[Action::Trade { from: ids[0], to: ids[1], amount: 30 }]);
/// assert!(auditor.audit(&mut world).clean());
/// auditor.release(&mut world);
/// ```
#[derive(Debug)]
pub struct Auditor {
    /// Maximum distance any entity may legitimately cover in one tick.
    max_step: f32,
    tap: TapId,
    /// The `gold < 0` rows view.
    overdrafts: ViewId,
    ticks: usize,
    dirty_ticks: usize,
    total_drift: i64,
    total_overdrafts: usize,
    total_speed_violations: usize,
}

impl Auditor {
    /// Start auditing `world` from its current state. The `gold < 0`
    /// view is adopted when the world already has it (a recovered world
    /// keeps the view its catalog re-materialized) and registered
    /// otherwise.
    pub fn attach(world: &mut World, max_step: f32) -> Self {
        let query = Query::select().filter("gold", CmpOp::Lt, Value::Int(0));
        let overdrafts = world
            .find_view(&query.clone().into_plan())
            .unwrap_or_else(|| world.register_view(query));
        Auditor {
            max_step,
            tap: world.attach_tap_pinned(),
            overdrafts,
            ticks: 0,
            dirty_ticks: 0,
            total_drift: 0,
            total_overdrafts: 0,
            total_speed_violations: 0,
        }
    }

    /// Check every write since [`Auditor::attach`] or the previous
    /// audit, refreshing the world's views and consuming the tap.
    pub fn audit(&mut self, world: &mut World) -> AuditReport {
        world.refresh_views();
        let gold = world.component_id("gold");
        let value = world.component_id("value");
        let bears_wealth = |c| Some(c) == gold || Some(c) == value;
        let as_gold = |v: &Value| match v {
            Value::Int(x) => *x,
            _ => 0,
        };
        let as_pos = |v: Option<&Value>| match v {
            Some(Value::Vec2(x, y)) => Some(Vec2::new(*x, *y)),
            _ => None,
        };
        let mut drift = 0i64;
        let mut first_pos: HashMap<EntityId, Option<Vec2>> = HashMap::new();
        for change in world.tap_pending(self.tap) {
            match &change.op {
                ChangeOp::Set { id, component, old, new } => {
                    if *component == POS_ID {
                        first_pos.entry(*id).or_insert(as_pos(old.as_ref()));
                    }
                    if bears_wealth(*component) {
                        drift += as_gold(new) - old.as_ref().map_or(0, as_gold);
                    }
                }
                ChangeOp::Removed { id, component, old } => {
                    if *component == POS_ID {
                        first_pos.entry(*id).or_insert(as_pos(Some(old)));
                    }
                    if bears_wealth(*component) {
                        drift -= as_gold(old);
                    }
                }
                ChangeOp::Despawned { row, .. } => {
                    drift -= row
                        .iter()
                        .filter(|(c, _)| bears_wealth(*c))
                        .map(|(_, v)| as_gold(v))
                        .sum::<i64>();
                }
                _ => {}
            }
        }
        let speed_violations = first_pos
            .iter()
            .filter(|&(&e, then)| match (world.pos(e), then) {
                (Some(now), Some(then)) => now.dist(*then) > self.max_step + 1e-3,
                _ => false,
            })
            .count();
        world.ack_tap(self.tap);
        let report = AuditReport {
            wealth_drift: drift,
            overdrafts: world.view_rows(self.overdrafts).len(),
            speed_violations,
        };
        self.ticks += 1;
        if !report.clean() {
            self.dirty_ticks += 1;
        }
        self.total_drift += report.wealth_drift.abs();
        self.total_overdrafts += report.overdrafts;
        self.total_speed_violations += report.speed_violations;
        report
    }

    /// Detach the tap. The `gold < 0` view stays registered for the
    /// next auditor to adopt.
    pub fn release(self, world: &mut World) {
        world.detach_tap(self.tap);
    }

    /// Ticks audited so far.
    pub fn ticks(&self) -> usize {
        self.ticks
    }

    /// Ticks with at least one violation.
    pub fn dirty_ticks(&self) -> usize {
        self.dirty_ticks
    }

    /// Sum of |wealth drift| across audited ticks (gold conjured or
    /// destroyed, in absolute gold units).
    pub fn total_drift(&self) -> i64 {
        self.total_drift
    }

    /// Total overdraft sightings across ticks.
    pub fn total_overdrafts(&self) -> usize {
        self.total_overdrafts
    }

    /// Total speed-limit violations across ticks.
    pub fn total_speed_violations(&self) -> usize {
        self.total_speed_violations
    }
}

/// The buggy server loop real exploits target.
///
/// All actions read the tick-start state, then write **absolute** values
/// back in submission order — the read-modify-write interleaving a
/// scripting language without concurrency control produces when two
/// handlers run "simultaneously". No schedule, no validation, no waves.
///
/// The resulting anomalies, on conflicting actions:
/// * two `Trade`s out of one account → only one debit survives, both
///   credits land: **gold duplicated**;
/// * two `Pickup`s of one item → both see it live: **loot duplicated**;
/// * two `Attack`s on one target → one damage write lost;
/// * `Trade` into an account that also traded out → a credit lost.
#[derive(Debug, Default, Clone, Copy)]
pub struct RacyExecutor;

impl Executor for RacyExecutor {
    fn name(&self) -> &'static str {
        "racy"
    }

    fn execute(&self, world: &mut World, actions: &[Action]) -> ExecStats {
        let start = std::time::Instant::now();
        // Read phase: every action captures what it needs from the
        // tick-start state.
        enum Write {
            Gold(EntityId, i64),
            Hp(EntityId, f32),
            Pos(EntityId, Vec2),
            Despawn(EntityId),
        }
        let mut writes: Vec<Write> = Vec::with_capacity(actions.len() * 2);
        for a in actions {
            match *a {
                Action::Move { who, to, speed } => {
                    let Some(p) = world.pos(who) else { continue };
                    let delta = to - p;
                    let d = delta.len();
                    let step = if d <= speed || d == 0.0 { delta } else { delta * (speed / d) };
                    writes.push(Write::Pos(who, p + step));
                }
                Action::Attack { attacker, target } => {
                    if !world.is_live(attacker) || !world.is_live(target) {
                        continue;
                    }
                    let dmg = world.get_f32(attacker, "dmg").unwrap_or(1.0);
                    let hp = world.get_f32(target, "hp").unwrap_or(0.0);
                    writes.push(Write::Hp(target, hp - dmg));
                }
                Action::Trade { from, to, amount } => {
                    if !world.is_live(from) || !world.is_live(to) || from == to {
                        continue;
                    }
                    let from_bal = world.get_i64(from, "gold").unwrap_or(0);
                    let to_bal = world.get_i64(to, "gold").unwrap_or(0);
                    let amt = amount.clamp(0, from_bal.max(0));
                    if amt == 0 {
                        continue;
                    }
                    writes.push(Write::Gold(from, from_bal - amt));
                    writes.push(Write::Gold(to, to_bal + amt));
                }
                Action::Heal { healer, target } => {
                    if !world.is_live(healer) || !world.is_live(target) {
                        continue;
                    }
                    let power = world.get_f32(healer, "power").unwrap_or(5.0);
                    let hp = world.get_f32(target, "hp").unwrap_or(0.0);
                    writes.push(Write::Hp(target, hp + power));
                }
                Action::Pickup { player, item } => {
                    if !world.is_live(player) || !world.is_live(item) {
                        continue;
                    }
                    let gold = world.get_i64(player, "gold").unwrap_or(0);
                    let value = world.get_i64(item, "value").unwrap_or(0);
                    writes.push(Write::Gold(player, gold + value));
                    writes.push(Write::Despawn(item));
                }
            }
        }
        // Write phase: absolute values land in submission order; later
        // writers silently clobber earlier ones.
        for w in writes {
            match w {
                Write::Gold(e, v) => {
                    if world.is_live(e) {
                        world.set(e, "gold", gamedb_content::Value::Int(v)).expect("gold is Int");
                    }
                }
                Write::Hp(e, v) => {
                    if world.is_live(e) {
                        world.set_f32(e, "hp", v).expect("hp is Float");
                    }
                }
                Write::Pos(e, p) => {
                    if world.is_live(e) {
                        world.set_pos(e, p).expect("entity is live");
                    }
                }
                Write::Despawn(e) => {
                    world.despawn(e);
                }
            }
        }
        ExecStats {
            submitted: actions.len(),
            executed: actions.len(),
            rounds: 1,
            aborts: 0,
            micros: start.elapsed().as_micros(),
            max_group: actions.len(),
            critical_path: 1,
        }
    }
}

/// Turn `fraction` of the batch's `Move` actions into speed hacks: the
/// "client" claims a speed `factor`× the legitimate one. Returns how many
/// were injected (deterministic: every ⌈1/fraction⌉-th move).
pub fn inject_speed_hacks(batch: &mut [Action], fraction: f32, factor: f32) -> usize {
    if fraction <= 0.0 {
        return 0;
    }
    let stride = (1.0 / fraction).ceil().max(1.0) as usize;
    let mut seen = 0usize;
    let mut injected = 0usize;
    for a in batch.iter_mut() {
        if let Action::Move { speed, .. } = a {
            if seen.is_multiple_of(stride) {
                *speed *= factor;
                injected += 1;
            }
            seen += 1;
        }
    }
    injected
}

/// Server-side movement-input collapsing: keep only the first `Move` per
/// entity in the batch (later ones are dropped). Real servers do this so
/// a client cannot stack movement commands within one tick — without it,
/// duplicate moves are indistinguishable from a speed hack.
pub fn collapse_moves(batch: Vec<Action>) -> Vec<Action> {
    let mut seen: std::collections::HashSet<EntityId> = std::collections::HashSet::new();
    batch
        .into_iter()
        .filter(|a| match a {
            Action::Move { who, .. } => seen.insert(*who),
            _ => true,
        })
        .collect()
}


#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::arena_world;
    use crate::executor::{LockingExecutor, OptimisticExecutor, SerialExecutor};
    use gamedb_content::Value;

    fn line_world(n: usize) -> (World, Vec<EntityId>) {
        arena_world(n, |i| Vec2::new(i as f32 * 3.0, 0.0))
    }

    /// The classic dupe: one account fires two trades to two different
    /// recipients in the same tick.
    fn dupe_batch(ids: &[EntityId]) -> Vec<Action> {
        vec![
            Action::Trade { from: ids[0], to: ids[1], amount: 60 },
            Action::Trade { from: ids[0], to: ids[2], amount: 60 },
        ]
    }

    /// Regression: an unpinned tap lagging past the retention limit was
    /// evicted mid-tick and then read nothing, so a dupe and a teleport
    /// in the same tick audited clean. The pinned tap keeps every record.
    #[test]
    fn an_evicted_tap_cannot_hide_a_dupe() {
        let (mut w, ids) = arena_world(40, |i| Vec2::new(i as f32 * 3.0, 0.0));
        w.set_tap_retention(Some(8));
        let mut auditor = Auditor::attach(&mut w, 2.5);
        w.set(ids[0], "gold", Value::Int(200)).unwrap();
        w.set_pos(ids[1], Vec2::new(500.0, 0.0)).unwrap();
        for &e in &ids[2..32] {
            w.set_f32(e, "hp", 90.0).unwrap();
        }
        let report = auditor.audit(&mut w);
        assert_eq!(
            report,
            AuditReport { wealth_drift: 100, overdrafts: 0, speed_violations: 1 }
        );
        // the pinned tap holds what it has not read until released
        w.set_f32(ids[2], "hp", 80.0).unwrap();
        w.refresh_views();
        assert!(w.retained_changes() > 0);
        auditor.release(&mut w);
        assert_eq!(w.retained_changes(), 0);
    }

    #[test]
    fn racy_loop_duplicates_gold() {
        let (mut w, ids) = line_world(3);
        let mut auditor = Auditor::attach(&mut w, 3.0);
        RacyExecutor.execute(&mut w, &dupe_batch(&ids));
        let report = auditor.audit(&mut w);
        // both credits landed, only one debit survived: +60 from thin air
        assert_eq!(report.wealth_drift, 60);
        assert_eq!(w.get_i64(ids[0], "gold"), Some(40));
        assert_eq!(w.get_i64(ids[1], "gold"), Some(160));
        assert_eq!(w.get_i64(ids[2], "gold"), Some(160));
    }

    #[test]
    fn safe_executors_never_dupe() {
        for exec in [
            Box::new(SerialExecutor) as Box<dyn Executor>,
            Box::new(LockingExecutor),
            Box::new(OptimisticExecutor::default()),
        ] {
            let (mut w, ids) = line_world(3);
            let mut auditor = Auditor::attach(&mut w, 3.0);
            exec.execute(&mut w, &dupe_batch(&ids));
            let report = auditor.audit(&mut w);
            assert!(report.clean(), "{} leaked wealth: {report:?}", exec.name());
            // second trade saw the post-debit balance and clamped
            assert_eq!(w.get_i64(ids[0], "gold"), Some(0), "{}", exec.name());
        }
    }

    #[test]
    fn bubbles_serialize_within_bubble() {
        // all three players share one bubble; the two trades out of
        // ids[0] must see each other (overlay) — no overdraft, no dupe
        use crate::bubbles::BubbleExecutor;
        let (mut w, ids) = arena_world(3, |i| Vec2::new(i as f32 * 2.0, 0.0));
        let mut auditor = Auditor::attach(&mut w, 3.0);
        BubbleExecutor::default().execute(&mut w, &dupe_batch(&ids));
        let report = auditor.audit(&mut w);
        assert!(report.clean(), "bubble write-skew: {report:?}");
        assert_eq!(w.get_i64(ids[0], "gold"), Some(0));
        assert_eq!(
            w.get_i64(ids[1], "gold").unwrap() + w.get_i64(ids[2], "gold").unwrap(),
            300
        );
    }

    #[test]
    fn racy_loop_duplicates_loot() {
        let (mut w, ids) = line_world(2);
        let item = w.spawn_at(Vec2::new(1.0, 0.0));
        w.set(item, "value", Value::Int(500)).unwrap();
        let batch = vec![
            Action::Pickup { player: ids[0], item },
            Action::Pickup { player: ids[1], item },
        ];
        let mut auditor = Auditor::attach(&mut w, 3.0);
        RacyExecutor.execute(&mut w, &batch);
        let report = auditor.audit(&mut w);
        assert_eq!(report.wealth_drift, 500, "item value duplicated");
        assert_eq!(w.get_i64(ids[0], "gold"), Some(600));
        assert_eq!(w.get_i64(ids[1], "gold"), Some(600));
        assert!(!w.is_live(item));
    }

    #[test]
    fn safe_executors_give_loot_once() {
        for exec in [
            Box::new(SerialExecutor) as Box<dyn Executor>,
            Box::new(LockingExecutor),
        ] {
            let (mut w, ids) = line_world(2);
            let item = w.spawn_at(Vec2::new(1.0, 0.0));
            w.set(item, "value", Value::Int(500)).unwrap();
            let batch = vec![
                Action::Pickup { player: ids[0], item },
                Action::Pickup { player: ids[1], item },
            ];
            let mut auditor = Auditor::attach(&mut w, 3.0);
            exec.execute(&mut w, &batch);
            assert!(auditor.audit(&mut w).clean(), "{}", exec.name());
            let total = w.get_i64(ids[0], "gold").unwrap() + w.get_i64(ids[1], "gold").unwrap();
            assert_eq!(total, 700, "{}: 200 starting + 500 item", exec.name());
        }
    }

    #[test]
    fn racy_loop_loses_damage() {
        let (mut w_racy, ids) = line_world(3);
        let batch = vec![
            Action::Attack { attacker: ids[0], target: ids[2] },
            Action::Attack { attacker: ids[1], target: ids[2] },
        ];
        RacyExecutor.execute(&mut w_racy, &batch);
        // both attacks read hp=100 and wrote 95: one hit vanished
        assert_eq!(w_racy.get_f32(ids[2], "hp"), Some(95.0));

        let (mut w_safe, ids2) = line_world(3);
        let batch2 = vec![
            Action::Attack { attacker: ids2[0], target: ids2[2] },
            Action::Attack { attacker: ids2[1], target: ids2[2] },
        ];
        SerialExecutor.execute(&mut w_safe, &batch2);
        assert_eq!(w_safe.get_f32(ids2[2], "hp"), Some(90.0));
    }

    #[test]
    fn racy_matches_serial_when_conflict_free() {
        let (mut w1, ids1) = line_world(8);
        let (mut w2, ids2) = line_world(8);
        let batch1: Vec<Action> = (0..4)
            .map(|i| Action::Trade { from: ids1[2 * i], to: ids1[2 * i + 1], amount: 10 })
            .collect();
        let batch2: Vec<Action> = (0..4)
            .map(|i| Action::Trade { from: ids2[2 * i], to: ids2[2 * i + 1], amount: 10 })
            .collect();
        RacyExecutor.execute(&mut w1, &batch1);
        SerialExecutor.execute(&mut w2, &batch2);
        assert_eq!(w1.rows(), w2.rows(), "disjoint batches are exploit-free");
    }

    #[test]
    fn auditor_detects_speed_hack() {
        let (mut w, ids) = line_world(4);
        let mut batch: Vec<Action> = ids
            .iter()
            .map(|&e| Action::Move { who: e, to: Vec2::new(1000.0, 0.0), speed: 2.0 })
            .collect();
        let injected = inject_speed_hacks(&mut batch, 0.25, 50.0);
        assert_eq!(injected, 1);
        let mut auditor = Auditor::attach(&mut w, 2.0);
        SerialExecutor.execute(&mut w, &batch);
        let report = auditor.audit(&mut w);
        assert_eq!(report.speed_violations, 1);
        assert_eq!(report.wealth_drift, 0);
    }

    #[test]
    fn clean_moves_pass_the_speed_check() {
        let (mut w, ids) = line_world(4);
        let batch: Vec<Action> = ids
            .iter()
            .map(|&e| Action::Move { who: e, to: Vec2::new(1000.0, 0.0), speed: 2.0 })
            .collect();
        let mut auditor = Auditor::attach(&mut w, 2.0);
        SerialExecutor.execute(&mut w, &batch);
        assert!(auditor.audit(&mut w).clean());
    }

    #[test]
    fn inject_nothing_at_zero_fraction() {
        let (_, ids) = line_world(2);
        let mut batch = vec![Action::Move { who: ids[0], to: Vec2::ZERO, speed: 2.0 }];
        assert_eq!(inject_speed_hacks(&mut batch, 0.0, 50.0), 0);
        assert!(matches!(batch[0], Action::Move { speed, .. } if speed == 2.0));
    }

    #[test]
    fn auditor_flags_overdraft() {
        let (mut w, ids) = line_world(1);
        let mut auditor = Auditor::attach(&mut w, 2.0);
        // a buggy handler drives gold negative directly
        w.set(ids[0], "gold", Value::Int(-40)).unwrap();
        let report = auditor.audit(&mut w);
        assert_eq!(report.overdrafts, 1);
        assert_eq!(report.wealth_drift, -140);
        assert!(!report.clean());
    }

    #[test]
    fn auditor_accumulates_across_ticks() {
        let (mut w, ids) = line_world(3);
        let mut auditor = Auditor::attach(&mut w, 3.0);
        for _ in 0..3 {
            RacyExecutor.execute(&mut w, &dupe_batch(&ids));
            auditor.audit(&mut w);
        }
        assert_eq!(auditor.ticks(), 3);
        // tick 1: both 60-trades read balance 100 → one debit lost, +60.
        // tick 2: balance 40 clamps both trades to 40 → +40 duped.
        // tick 3: ids[0] is broke → nothing moves, clean.
        assert_eq!(auditor.dirty_ticks(), 2);
        assert_eq!(auditor.total_drift(), 100);
        assert_eq!(auditor.total_speed_violations(), 0);
    }

    #[test]
    fn wealth_counts_gold_and_items() {
        let (mut w, _) = line_world(2);
        assert_eq!(wealth(&w), 200);
        let item = w.spawn_at(Vec2::ZERO);
        w.set(item, "value", Value::Int(50)).unwrap();
        assert_eq!(wealth(&w), 250);
        w.despawn(item);
        assert_eq!(wealth(&w), 200);
    }

    #[test]
    fn collapse_moves_keeps_first_per_entity() {
        let (_, ids) = line_world(2);
        let batch = vec![
            Action::Move { who: ids[0], to: Vec2::new(5.0, 0.0), speed: 2.0 },
            Action::Attack { attacker: ids[0], target: ids[1] },
            Action::Move { who: ids[0], to: Vec2::new(9.0, 0.0), speed: 2.0 },
            Action::Move { who: ids[1], to: Vec2::new(9.0, 0.0), speed: 2.0 },
        ];
        let collapsed = collapse_moves(batch);
        assert_eq!(collapsed.len(), 3);
        assert!(matches!(collapsed[0], Action::Move { who, .. } if who == ids[0]));
        assert!(matches!(collapsed[1], Action::Attack { .. }));
        assert!(matches!(collapsed[2], Action::Move { who, .. } if who == ids[1]));
    }

    #[test]
    fn stacked_moves_trip_the_audit_until_collapsed() {
        let (mut w, ids) = line_world(1);
        let batch = vec![
            Action::Move { who: ids[0], to: Vec2::new(100.0, 0.0), speed: 2.0 },
            Action::Move { who: ids[0], to: Vec2::new(100.0, 0.0), speed: 2.0 },
        ];
        let mut auditor = Auditor::attach(&mut w, 2.0);
        SerialExecutor.execute(&mut w, &batch.clone());
        assert_eq!(auditor.audit(&mut w).speed_violations, 1);

        let (mut w2, _) = line_world(1);
        let mut auditor2 = Auditor::attach(&mut w2, 2.0);
        SerialExecutor.execute(&mut w2, &collapse_moves(batch));
        assert!(auditor2.audit(&mut w2).clean());
    }

    #[test]
    fn racy_self_trade_is_ignored() {
        let (mut w, ids) = line_world(1);
        RacyExecutor.execute(
            &mut w,
            &[Action::Trade { from: ids[0], to: ids[0], amount: 50 }],
        );
        assert_eq!(w.get_i64(ids[0], "gold"), Some(100));
    }
}
