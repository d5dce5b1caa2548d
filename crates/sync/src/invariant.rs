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
use gamedb_core::{
    AggFn, ChangeOp, ComponentId, CoreError, EntityId, Query, TapId, ViewId, World, POS_ID,
};
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

/// The overdraft invariant as a declarative query.
fn overdraft_query() -> Query {
    Query::select().filter("gold", CmpOp::Lt, Value::Int(0))
}

/// Pre-tick snapshot the auditor compares against.
#[derive(Debug, Clone)]
pub struct Baseline {
    wealth: i64,
    positions: HashMap<EntityId, Vec2>,
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

/// Tick-by-tick invariant checker.
///
/// ```
/// # use gamedb_sync::{arena_world, Action, Auditor, Executor, SerialExecutor};
/// # use gamedb_spatial::Vec2;
/// let (mut world, ids) = arena_world(2, |i| Vec2::new(i as f32 * 3.0, 0.0));
/// let mut auditor = Auditor::new(2.5);
/// let before = auditor.snapshot(&world);
/// SerialExecutor.execute(&mut world, &[Action::Trade { from: ids[0], to: ids[1], amount: 30 }]);
/// let report = auditor.audit(&before, &world);
/// assert!(report.clean());
/// ```
#[derive(Debug, Clone)]
pub struct Auditor {
    /// Maximum distance any entity may legitimately cover in one tick.
    pub max_step: f32,
    /// Standing `gold < 0` view when subscribed (see
    /// [`Auditor::subscribe_overdrafts`]).
    overdraft_view: Option<ViewId>,
    /// Change-stream tap shared by the stream-driven audits (see
    /// [`Auditor::subscribe_movement`] / [`Auditor::subscribe_wealth`]).
    move_tap: Option<TapId>,
    /// Movement audit reads the stream instead of a position snapshot.
    movement_streamed: bool,
    /// Wealth drift folds from the stream instead of two full scans.
    wealth_streamed: bool,
    /// Global `Sum` operator views over `gold` and `value` when
    /// subscribed (see [`Auditor::subscribe_wealth_views`]): the
    /// differential view engine maintains total wealth, and the auditor
    /// reads it in O(1).
    wealth_views: Option<(ViewId, ViewId)>,
    ticks: usize,
    dirty_ticks: usize,
    total_drift: i64,
    total_overdrafts: usize,
    total_speed_violations: usize,
}

impl Auditor {
    pub fn new(max_step: f32) -> Self {
        Auditor {
            max_step,
            overdraft_view: None,
            move_tap: None,
            movement_streamed: false,
            wealth_streamed: false,
            wealth_views: None,
            ticks: 0,
            dirty_ticks: 0,
            total_drift: 0,
            total_overdrafts: 0,
            total_speed_violations: 0,
        }
    }

    /// Switch the overdraft check from a per-tick requery to a standing
    /// view: the world maintains the `gold < 0` result set incrementally
    /// from its write deltas, so [`Auditor::audit`] reads the
    /// materialized rows in O(overdrafts) with no scan and no index
    /// required. The auditor is tied to `world` from here on; auditing a
    /// different world falls back to the query. Call
    /// [`Auditor::audit_tick`] (or `world.refresh_views()` before
    /// `audit`) so the view reflects the tick being audited.
    ///
    /// After a crash recovery the view still exists (the persistence
    /// catalog re-materialized it), so a freshly constructed auditor
    /// re-attaches to it here instead of registering a duplicate.
    pub fn subscribe_overdrafts(&mut self, world: &mut World) {
        if self.overdraft_view.is_none() {
            let query = overdraft_query();
            self.overdraft_view = Some(
                world
                    .find_view(&query.clone().into_plan())
                    .unwrap_or_else(|| world.register_view(query)),
            );
        }
    }

    /// Switch the speed-hack check from a full-world position snapshot
    /// to the change stream: a tap captures every `pos` write, so the
    /// per-tick audit inspects only the entities that actually moved
    /// (O(movement), not O(entities)) and [`Auditor::snapshot_tick`]
    /// stops building the position map entirely. Pair with
    /// [`Auditor::snapshot_tick`] + [`Auditor::audit_tick`] — the tap
    /// segment is anchored at snapshot time and consumed by the audit.
    pub fn subscribe_movement(&mut self, world: &mut World) {
        if self.move_tap.is_none() {
            self.move_tap = Some(world.attach_tap());
        }
        self.movement_streamed = true;
    }

    /// Switch wealth conservation from two full scans per tick to a
    /// stream fold: `gold`/`value` writes carry their `old → new`
    /// values, and — the piece that used to force the scan —
    /// [`ChangeOp::Despawned`] now carries the dropped row image, so a
    /// death's wealth loss folds incrementally too. The per-tick drift
    /// is the telescoped sum of record deltas anchored at
    /// [`Auditor::snapshot_tick`]; no O(entities) pass remains in the
    /// wealth audit (equivalence to the scanning auditor is pinned by
    /// test).
    pub fn subscribe_wealth(&mut self, world: &mut World) {
        if self.move_tap.is_none() {
            self.move_tap = Some(world.attach_tap());
        }
        self.wealth_streamed = true;
    }

    /// Re-home the wealth *baseline* onto the differential view engine:
    /// two global `Sum` group-aggregate views (over `gold` and `value`)
    /// keep the world's total wealth maintained inside the operator
    /// tree, so [`Auditor::snapshot`] and the drift check read it in
    /// O(1) — no tap, no per-record fold, no scan at either end of the
    /// tick. Whenever the views are stale (pending deltas) or belong to
    /// another world, the wealth read falls back to the full scan, so
    /// the audit verdict never depends on refresh discipline.
    ///
    /// After a crash recovery the operator trees still exist (the
    /// persistence catalog re-registers them at their slots), so a
    /// freshly constructed auditor re-attaches here instead of
    /// registering duplicates.
    pub fn subscribe_wealth_views(&mut self, world: &mut World) -> Result<(), CoreError> {
        if self.wealth_views.is_none() {
            let gold_plan = Query::select().into_aggregate_plan(AggFn::Sum("gold".into()))?;
            let value_plan = Query::select().into_aggregate_plan(AggFn::Sum("value".into()))?;
            let gold = match world.find_view(&gold_plan) {
                Some(v) => v,
                None => world.register_view_plan(gold_plan)?,
            };
            let value = match world.find_view(&value_plan) {
                Some(v) => v,
                None => world.register_view_plan(value_plan)?,
            };
            self.wealth_views = Some((gold, value));
        }
        Ok(())
    }

    /// Total wealth as this auditor reads it: the maintained global
    /// `Sum` views when subscribed and current, else the full scan.
    /// (The global group vanishes when no entity carries the column —
    /// an absent group reads as zero wealth, same as the scan.)
    fn wealth_of(&self, world: &World) -> i64 {
        match self.wealth_views {
            Some((gold, value))
                if world.has_view(gold)
                    && world.has_view(value)
                    && world.pending_deltas() == 0 =>
            {
                (world.view_group_value(gold, None).unwrap_or(0.0)
                    + world.view_group_value(value, None).unwrap_or(0.0)) as i64
            }
            _ => wealth(world),
        }
    }

    /// Release the stream tap (movement and wealth audits revert to
    /// scans). Call when retiring the auditor — an abandoned tap pins
    /// the world's change-stream window forever.
    pub fn unsubscribe_movement(&mut self, world: &mut World) {
        if let Some(tap) = self.move_tap.take() {
            world.detach_tap(tap);
        }
        self.movement_streamed = false;
        self.wealth_streamed = false;
    }

    /// [`Auditor::audit`] preceded by a view refresh — the per-tick
    /// entry point for callers driving the world outside the tick
    /// executor (action executors never bump the tick counter). With a
    /// movement tap subscribed, the speed check reads the stream
    /// segment accumulated since [`Auditor::snapshot_tick`]: each
    /// entity's first recorded pre-move position stands in for the
    /// baseline, and only moved entities are inspected.
    pub fn audit_tick(&mut self, before: &Baseline, world: &mut World) -> AuditReport {
        world.refresh_views();
        let mut streamed_speed: Option<usize> = None;
        let mut streamed_drift: Option<i64> = None;
        if let Some(tap) = self.move_tap {
            let eps = 1e-3;
            // the wealth-bearing columns, as interned ids (worlds
            // without them simply contribute nothing)
            let gold = world.component_id("gold");
            let value = world.component_id("value");
            let bears_wealth =
                |c: ComponentId| Some(c) == gold || Some(c) == value;
            let as_gold = |v: &Value| match v {
                Value::Int(x) => *x,
                _ => 0,
            };
            let mut first_old: HashMap<EntityId, Option<Vec2>> = HashMap::new();
            let mut drift = 0i64;
            for change in world.tap_pending(tap) {
                match &change.op {
                    ChangeOp::Set {
                        id,
                        component,
                        old,
                        new,
                    } => {
                        if *component == POS_ID && self.movement_streamed {
                            first_old.entry(*id).or_insert(match old {
                                Some(Value::Vec2(x, y)) => Some(Vec2::new(*x, *y)),
                                _ => None,
                            });
                        }
                        if self.wealth_streamed && bears_wealth(*component) {
                            drift += as_gold(new) - old.as_ref().map(&as_gold).unwrap_or(0);
                        }
                    }
                    ChangeOp::Removed { component, old, .. }
                        if self.wealth_streamed && bears_wealth(*component) =>
                    {
                        drift -= as_gold(old);
                    }
                    // the dropped row image the record now carries is
                    // exactly what lets a death fold incrementally
                    ChangeOp::Despawned { row, .. } if self.wealth_streamed => {
                        for (component, v) in row {
                            if bears_wealth(*component) {
                                drift -= as_gold(v);
                            }
                        }
                    }
                    _ => {}
                }
            }
            if self.movement_streamed {
                let max_step = self.max_step;
                streamed_speed = Some(
                    first_old
                        .iter()
                        .filter(|(e, then)| {
                            let (Some(now), Some(then)) = (world.pos(**e), then) else {
                                return false;
                            };
                            now.dist(*then) > max_step + eps
                        })
                        .count(),
                );
            }
            if self.wealth_streamed {
                streamed_drift = Some(drift);
            }
            world.ack_tap(tap);
        }
        self.audit_with(before, world, streamed_speed, streamed_drift)
    }

    /// Capture the pre-tick state the post-tick check needs.
    pub fn snapshot(&self, world: &World) -> Baseline {
        Baseline {
            wealth: self.wealth_of(world),
            positions: world
                .entities()
                .filter_map(|e| world.pos(e).map(|p| (e, p)))
                .collect(),
        }
    }

    /// [`Auditor::snapshot`] for a movement-subscribed auditor: anchors
    /// the tap segment here and skips the O(world) position map (the
    /// stream carries each mover's pre-move position instead). Falls
    /// back to the full snapshot when no tap is subscribed.
    pub fn snapshot_tick(&mut self, world: &mut World) -> Baseline {
        match self.move_tap {
            Some(tap) => {
                world.ack_tap(tap);
                Baseline {
                    // a wealth subscription folds drift from the stream:
                    // no baseline scan either
                    wealth: if self.wealth_streamed { 0 } else { self.wealth_of(world) },
                    positions: if self.movement_streamed {
                        HashMap::new()
                    } else {
                        world
                            .entities()
                            .filter_map(|e| world.pos(e).map(|p| (e, p)))
                            .collect()
                    },
                }
            }
            None => self.snapshot(world),
        }
    }

    /// Check the post-tick world against the pre-tick baseline.
    ///
    /// The overdraft check is a declarative query (`gold < 0`), so an
    /// operations team running the auditor against a large shard can
    /// make it O(overdrafts) instead of O(entities) by creating a sorted
    /// secondary index on `gold` — the planner picks it up without any
    /// change here. With [`Auditor::subscribe_overdrafts`] it drops the
    /// per-tick requery entirely and reads the standing view's
    /// materialized rows (falling back to the query whenever the view is
    /// stale or belongs to another world).
    pub fn audit(&mut self, before: &Baseline, world: &World) -> AuditReport {
        self.audit_with(before, world, None, None)
    }

    fn audit_with(
        &mut self,
        before: &Baseline,
        world: &World,
        streamed_speed: Option<usize>,
        streamed_drift: Option<i64>,
    ) -> AuditReport {
        let eps = 1e-3;
        let overdrafts = match self.overdraft_view {
            Some(v) if world.has_view(v) && world.pending_deltas() == 0 => world.view_rows(v).len(),
            _ => overdraft_query().count(world),
        };
        let speed_violations = streamed_speed.unwrap_or_else(|| {
            world
                .entities()
                .filter(|&e| {
                    let (Some(now), Some(&then)) = (world.pos(e), before.positions.get(&e))
                    else {
                        return false;
                    };
                    now.dist(then) > self.max_step + eps
                })
                .count()
        });
        let report = AuditReport {
            wealth_drift: streamed_drift
                .unwrap_or_else(|| self.wealth_of(world) - before.wealth),
            overdrafts,
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

    /// ISSUE-4 satellite: the change-stream movement audit must report
    /// exactly what the snapshot-based audit reports — speed hacks
    /// caught, legitimate moves ignored — while skipping the O(world)
    /// position map entirely.
    #[test]
    fn movement_audit_via_stream_equals_snapshot_audit() {
        let (mut w_snap, ids_s) = line_world(12);
        let (mut w_tap, ids_t) = line_world(12);
        let mut snap_auditor = Auditor::new(2.5);
        let mut tap_auditor = Auditor::new(2.5);
        tap_auditor.subscribe_movement(&mut w_tap);

        // per tick: (entity, dx) moves — some legal, some speed hacks,
        // one entity teleports in two hops that are individually legal
        // but jointly a violation (the stream must compare first-old
        // against final, not hop by hop)
        let script: Vec<Vec<(usize, f32)>> = vec![
            vec![(0, 1.0), (1, 2.0)],          // all legal
            vec![(2, 50.0)],                    // blatant speed hack
            vec![(3, 2.0), (3, 2.0)],           // 4.0 total: violation
            vec![(4, -1.0), (5, 2.4)],          // legal again
            vec![],                             // quiet tick
            vec![(0, 3.0), (1, -9.0), (2, 0.5)] // two violations
        ];
        for (tick, moves) in script.iter().enumerate() {
            let before_snap = snap_auditor.snapshot(&w_snap);
            let before_tap = tap_auditor.snapshot_tick(&mut w_tap);
            assert!(
                before_tap.positions.is_empty(),
                "tapped baseline skips the position map"
            );
            for &(i, dx) in moves {
                for (w, ids) in [(&mut w_snap, &ids_s), (&mut w_tap, &ids_t)] {
                    let p = w.pos(ids[i]).unwrap();
                    w.set_pos(ids[i], Vec2::new(p.x + dx, p.y)).unwrap();
                }
            }
            let r_snap = snap_auditor.audit_tick(&before_snap, &mut w_snap);
            let r_tap = tap_auditor.audit_tick(&before_tap, &mut w_tap);
            assert_eq!(
                r_snap.speed_violations, r_tap.speed_violations,
                "tick {tick}"
            );
            assert_eq!(r_snap, r_tap, "tick {tick}");
        }
        assert_eq!(
            snap_auditor.total_speed_violations(),
            tap_auditor.total_speed_violations()
        );
        assert!(tap_auditor.total_speed_violations() >= 4);
    }

    /// ISSUE-5 satellite: the stream-folded wealth audit must report
    /// exactly what the scanning auditor reports — dupes, black holes,
    /// conserving ticks — across a workload of trades, item pickups,
    /// gold-carrying despawns (the case that needs the `Despawned` row
    /// image), component removals, and spawns, while doing **no**
    /// O(entities) wealth scan at either end of the tick.
    #[test]
    fn wealth_audit_via_stream_equals_scanning_audit() {
        let (mut w_scan, ids_s) = line_world(6);
        let (mut w_tap, ids_t) = line_world(6);
        let mut scanning = Auditor::new(100.0);
        let mut folded = Auditor::new(100.0);
        folded.subscribe_wealth(&mut w_tap);

        #[derive(Clone, Copy)]
        enum Step {
            SetGold(usize, i64),
            Remove(usize),
            Despawn(usize),
            SpawnItem(i64),
            PickupLast(usize),
        }
        use Step::*;
        // per tick: a script of mutations — some conserve, some dupe,
        // some destroy
        let script: Vec<Vec<Step>> = vec![
            vec![SetGold(0, 40), SetGold(1, 160)],      // conserving trade
            vec![SetGold(2, 200)],                      // +100 duped
            vec![SpawnItem(500)],                       // +500 minted item
            vec![PickupLast(0), SetGold(3, 90)],        // pickup conserves, -10 hole
            vec![Despawn(4)],                           // -100 black hole (row image!)
            vec![Remove(5)],                            // -100 removal
            vec![],                                     // quiet tick
            vec![SetGold(0, 0), SpawnItem(7), Despawn(1)],
        ];
        let mut spawned_s: Vec<EntityId> = Vec::new();
        let mut spawned_t: Vec<EntityId> = Vec::new();
        for (tick, steps) in script.iter().enumerate() {
            let before_s = scanning.snapshot(&w_scan);
            let before_t = folded.snapshot_tick(&mut w_tap);
            assert_eq!(before_t.wealth, 0, "folded baseline skips the scan");
            for &step in steps {
                match step {
                    SetGold(i, g) => {
                        w_scan.set(ids_s[i], "gold", Value::Int(g)).unwrap();
                        w_tap.set(ids_t[i], "gold", Value::Int(g)).unwrap();
                    }
                    Remove(i) => {
                        w_scan.remove_component(ids_s[i], "gold").unwrap();
                        w_tap.remove_component(ids_t[i], "gold").unwrap();
                    }
                    Despawn(i) => {
                        w_scan.despawn(ids_s[i]);
                        w_tap.despawn(ids_t[i]);
                    }
                    SpawnItem(v) => {
                        let a = w_scan.spawn_at(Vec2::ZERO);
                        w_scan.set(a, "value", Value::Int(v)).unwrap();
                        spawned_s.push(a);
                        let b = w_tap.spawn_at(Vec2::ZERO);
                        w_tap.set(b, "value", Value::Int(v)).unwrap();
                        spawned_t.push(b);
                    }
                    PickupLast(i) => {
                        // item value converts into holder gold, item dies
                        let (a, b) = (spawned_s.pop().unwrap(), spawned_t.pop().unwrap());
                        for (w, ids, item) in
                            [(&mut w_scan, &ids_s, a), (&mut w_tap, &ids_t, b)]
                        {
                            let v = w.get_i64(item, "value").unwrap();
                            let g = w.get_i64(ids[i], "gold").unwrap_or(0);
                            w.set(ids[i], "gold", Value::Int(g + v)).unwrap();
                            w.despawn(item);
                        }
                    }
                }
            }
            let r_scan = scanning.audit(&before_s, &w_scan);
            let r_fold = folded.audit_tick(&before_t, &mut w_tap);
            assert_eq!(r_scan.wealth_drift, r_fold.wealth_drift, "tick {tick}");
            assert_eq!(r_scan.overdrafts, r_fold.overdrafts, "tick {tick}");
        }
        assert_eq!(scanning.total_drift(), folded.total_drift());
        assert!(folded.total_drift() > 0, "the script must exercise drift");
    }

    /// ISSUE-10 tentpole (sync layer): the view-backed wealth baseline —
    /// two global `Sum` operator views maintained by the differential
    /// view engine — must report exactly what the scanning auditor
    /// reports across trades, dupes, minted items, pickups, and
    /// gold-carrying despawns, while reading total wealth straight out
    /// of the maintained group rows.
    #[test]
    fn wealth_views_equal_scanning_audit() {
        let (mut w_scan, ids_s) = line_world(6);
        let (mut w_view, ids_v) = line_world(6);
        let mut scanning = Auditor::new(100.0);
        let mut viewed = Auditor::new(100.0);
        viewed.subscribe_wealth_views(&mut w_view).unwrap();

        let script: Vec<Vec<(usize, i64)>> = vec![
            vec![(0, 40), (1, 160)], // conserving trade
            vec![(2, 200)],          // +100 duped
            vec![(3, -30)],          // overdraft + black hole
            vec![],                  // quiet tick
            vec![(0, 0), (4, 500)],  // mixed
        ];
        for (tick, writes) in script.iter().enumerate() {
            let before_s = scanning.snapshot(&w_scan);
            let before_v = viewed.snapshot(&w_view);
            assert_eq!(before_s.wealth, before_v.wealth, "baselines agree");
            for &(i, gold) in writes {
                w_scan.set(ids_s[i], "gold", Value::Int(gold)).unwrap();
                w_view.set(ids_v[i], "gold", Value::Int(gold)).unwrap();
            }
            if tick == 2 {
                // minted item + a death carrying gold: the view engine
                // must retract both rows from the global sums
                let a = w_scan.spawn_at(Vec2::ZERO);
                w_scan.set(a, "value", Value::Int(77)).unwrap();
                let b = w_view.spawn_at(Vec2::ZERO);
                w_view.set(b, "value", Value::Int(77)).unwrap();
                w_scan.despawn(ids_s[5]);
                w_view.despawn(ids_v[5]);
            }
            let r_scan = scanning.audit(&before_s, &w_scan);
            let r_view = viewed.audit_tick(&before_v, &mut w_view);
            assert_eq!(r_scan.wealth_drift, r_view.wealth_drift, "tick {tick}");
            assert_eq!(r_scan.overdrafts, r_view.overdrafts, "tick {tick}");
        }
        assert_eq!(scanning.total_drift(), viewed.total_drift());
        assert!(viewed.total_drift() > 0, "the script must exercise drift");
        // a second auditor re-attaches to the same operator trees
        let mut second = Auditor::new(100.0);
        second.subscribe_wealth_views(&mut w_view).unwrap();
        assert_eq!(second.wealth_views, viewed.wealth_views);
    }

    /// Wealth and movement subscriptions share one tap and one stream
    /// pass; both audits agree with their scanning counterparts.
    #[test]
    fn wealth_and_movement_subscriptions_compose() {
        let (mut w_scan, ids_s) = line_world(4);
        let (mut w_tap, ids_t) = line_world(4);
        let mut scanning = Auditor::new(2.0);
        let mut folded = Auditor::new(2.0);
        folded.subscribe_wealth(&mut w_tap);
        folded.subscribe_movement(&mut w_tap);
        for tick in 0..4 {
            let before_s = scanning.snapshot(&w_scan);
            let before_t = folded.snapshot_tick(&mut w_tap);
            assert!(before_t.positions.is_empty());
            for (w, ids) in [(&mut w_scan, &ids_s), (&mut w_tap, &ids_t)] {
                let p = w.pos(ids[0]).unwrap();
                // tick 2 speed-hacks, tick 3 dupes gold
                let step = if tick == 2 { 50.0 } else { 1.0 };
                w.set_pos(ids[0], Vec2::new(p.x + step, p.y)).unwrap();
                if tick == 3 {
                    w.set(ids[1], "gold", Value::Int(999)).unwrap();
                }
            }
            let r_scan = scanning.audit(&before_s, &w_scan);
            let r_fold = folded.audit_tick(&before_t, &mut w_tap);
            assert_eq!(r_scan, r_fold, "tick {tick}");
        }
        folded.unsubscribe_movement(&mut w_tap);
        assert_eq!(w_tap.pending_deltas(), 0);
    }

    #[test]
    fn audit_agrees_with_and_without_gold_index() {
        use gamedb_core::IndexKind;
        let (mut w, ids) = line_world(4);
        w.set(ids[1], "gold", Value::Int(-30)).unwrap();
        w.set(ids[3], "gold", Value::Int(-1)).unwrap();
        let mut plain = Auditor::new(3.0);
        let report_plain = {
            let before = plain.snapshot(&w);
            plain.audit(&before, &w)
        };
        w.create_index("gold", IndexKind::Sorted).unwrap();
        let mut indexed = Auditor::new(3.0);
        let before = indexed.snapshot(&w);
        let report_indexed = indexed.audit(&before, &w);
        assert_eq!(report_plain.overdrafts, 2);
        assert_eq!(report_plain, report_indexed);
    }

    /// ISSUE-2 satellite: the standing-view overdraft subscription must
    /// fire on exactly the ticks the per-tick requery fired on, with the
    /// same counts, across a workload that drives balances negative and
    /// back.
    #[test]
    fn overdraft_subscription_fires_on_same_ticks_as_requery() {
        let (mut w_view, ids_v) = line_world(4);
        let (mut w_poll, ids_p) = line_world(4);
        let mut subscribed = Auditor::new(3.0);
        subscribed.subscribe_overdrafts(&mut w_view);
        let mut polled = Auditor::new(3.0);

        // tick script: (entity, new gold) writes applied by a "buggy
        // handler" — some ticks overdraw, some recover, one despawns
        let script: Vec<Vec<(usize, i64)>> = vec![
            vec![(0, -40)],            // overdraft appears
            vec![(1, -5), (2, 10)],    // second account overdrawn too
            vec![(0, 25)],             // first recovers
            vec![],                    // nothing happens
            vec![(1, 0), (3, -1)],     // swap which accounts are negative
        ];
        let mut fired_view = Vec::new();
        let mut fired_poll = Vec::new();
        for (tick, writes) in script.iter().enumerate() {
            let before_v = subscribed.snapshot(&w_view);
            let before_p = polled.snapshot(&w_poll);
            for &(i, gold) in writes {
                w_view.set(ids_v[i], "gold", Value::Int(gold)).unwrap();
                w_poll.set(ids_p[i], "gold", Value::Int(gold)).unwrap();
            }
            if tick == 3 {
                // a despawn mid-stream must evict any overdraft row
                w_view.despawn(ids_v[2]);
                w_poll.despawn(ids_p[2]);
            }
            let rv = subscribed.audit_tick(&before_v, &mut w_view);
            let rp = polled.audit(&before_p, &w_poll);
            assert_eq!(rv.overdrafts, rp.overdrafts, "tick {tick}");
            fired_view.push(rv.overdrafts > 0);
            fired_poll.push(rp.overdrafts > 0);
        }
        assert_eq!(fired_view, fired_poll);
        assert_eq!(fired_view, vec![true, true, true, true, true]);
        assert_eq!(subscribed.total_overdrafts(), polled.total_overdrafts());
    }

    /// A stale view (pending deltas not yet refreshed) must not be
    /// trusted: plain `audit` falls back to the live requery.
    #[test]
    fn stale_view_falls_back_to_requery() {
        let (mut w, ids) = line_world(2);
        let mut auditor = Auditor::new(3.0);
        auditor.subscribe_overdrafts(&mut w);
        let before = auditor.snapshot(&w);
        w.set(ids[0], "gold", Value::Int(-10)).unwrap();
        // no refresh: the view still says zero overdrafts, the requery
        // fallback must report one anyway
        assert!(w.pending_deltas() > 0);
        let report = auditor.audit(&before, &w);
        assert_eq!(report.overdrafts, 1);
    }

    #[test]
    fn racy_loop_duplicates_gold() {
        let (mut w, ids) = line_world(3);
        let mut auditor = Auditor::new(3.0);
        let before = auditor.snapshot(&w);
        RacyExecutor.execute(&mut w, &dupe_batch(&ids));
        let report = auditor.audit(&before, &w);
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
            let mut auditor = Auditor::new(3.0);
            let before = auditor.snapshot(&w);
            exec.execute(&mut w, &dupe_batch(&ids));
            let report = auditor.audit(&before, &w);
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
        let mut auditor = Auditor::new(3.0);
        let before = auditor.snapshot(&w);
        BubbleExecutor::default().execute(&mut w, &dupe_batch(&ids));
        let report = auditor.audit(&before, &w);
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
        let mut auditor = Auditor::new(3.0);
        let before = auditor.snapshot(&w);
        RacyExecutor.execute(&mut w, &batch);
        let report = auditor.audit(&before, &w);
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
            let mut auditor = Auditor::new(3.0);
            let before = auditor.snapshot(&w);
            exec.execute(&mut w, &batch);
            assert!(auditor.audit(&before, &w).clean(), "{}", exec.name());
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
        let mut auditor = Auditor::new(2.0);
        let before = auditor.snapshot(&w);
        SerialExecutor.execute(&mut w, &batch);
        let report = auditor.audit(&before, &w);
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
        let mut auditor = Auditor::new(2.0);
        let before = auditor.snapshot(&w);
        SerialExecutor.execute(&mut w, &batch);
        assert!(auditor.audit(&before, &w).clean());
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
        let mut auditor = Auditor::new(2.0);
        let before = auditor.snapshot(&w);
        // a buggy handler drives gold negative directly
        w.set(ids[0], "gold", Value::Int(-40)).unwrap();
        let report = auditor.audit(&before, &w);
        assert_eq!(report.overdrafts, 1);
        assert_eq!(report.wealth_drift, -140);
        assert!(!report.clean());
    }

    #[test]
    fn auditor_accumulates_across_ticks() {
        let (mut w, ids) = line_world(3);
        let mut auditor = Auditor::new(3.0);
        for _ in 0..3 {
            let before = auditor.snapshot(&w);
            RacyExecutor.execute(&mut w, &dupe_batch(&ids));
            auditor.audit(&before, &w);
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
        let mut auditor = Auditor::new(2.0);
        let before = auditor.snapshot(&w);
        SerialExecutor.execute(&mut w, &batch.clone());
        assert_eq!(auditor.audit(&before, &w).speed_violations, 1);

        let (mut w2, _) = line_world(1);
        let mut auditor2 = Auditor::new(2.0);
        let before2 = auditor2.snapshot(&w2);
        SerialExecutor.execute(&mut w2, &collapse_moves(batch));
        assert!(auditor2.audit(&before2, &w2).clean());
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
