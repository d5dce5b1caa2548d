//! Aggro management: role-based combat targeting.
//!
//! The paper: "'aggro management' is the technique that World of Warcraft
//! uses to target opponents and process combat. It assigns abstract roles
//! to the participants, which allows the game to handle combat without
//! exact spatial fidelity." A mob keeps a *threat table* — accumulated
//! threat per attacker, weighted by role — and targets the top entry.
//! Because threat integrates over time and roles, the chosen target is
//! stable under small positional noise, where exact nearest-enemy
//! targeting flaps; experiment E8 quantifies exactly that robustness.

use std::collections::HashMap;

use gamedb_core::{EntityId, JoinOn, PlanNode, Query, ViewDelta, ViewId, ViewPlan, World};

/// Combat roles with their threat multipliers. Tanks generate extra
/// threat by design — the game *wants* the boss hitting the tank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    Tank,
    Healer,
    Dps,
}

impl Role {
    /// Threat generated per point of damage (or healing) done.
    pub fn threat_multiplier(self) -> f64 {
        match self {
            Role::Tank => 3.0,
            Role::Healer => 0.75,
            Role::Dps => 1.0,
        }
    }
}

/// Per-mob threat table.
#[derive(Debug, Clone, Default)]
pub struct AggroTable {
    threat: HashMap<EntityId, f64>,
    /// Taunt forces the target for a number of ticks.
    taunt: Option<(EntityId, u32)>,
}

impl AggroTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record damage (or healing converted to threat) done by `who` with
    /// `role`.
    pub fn add_threat(&mut self, who: EntityId, role: Role, amount: f64) {
        *self.threat.entry(who).or_insert(0.0) += amount.max(0.0) * role.threat_multiplier();
    }

    /// Taunt: force targeting of `who` for `ticks` ticks.
    pub fn taunt(&mut self, who: EntityId, ticks: u32) {
        self.taunt = Some((who, ticks));
    }

    /// Exponential decay each tick (threat half-life keeps tables fresh).
    pub fn decay(&mut self, factor: f64) {
        for v in self.threat.values_mut() {
            *v *= factor.clamp(0.0, 1.0);
        }
        self.threat.retain(|_, v| *v > 1e-9);
        if let Some((_, ticks)) = &mut self.taunt {
            if *ticks == 0 {
                self.taunt = None;
            } else {
                *ticks -= 1;
            }
        }
    }

    /// Remove an attacker (death, despawn, zone-out).
    pub fn remove(&mut self, who: EntityId) {
        self.threat.remove(&who);
        if let Some((t, _)) = self.taunt {
            if t == who {
                self.taunt = None;
            }
        }
    }

    /// Current threat of `who`.
    pub fn threat_of(&self, who: EntityId) -> f64 {
        self.threat.get(&who).copied().unwrap_or(0.0)
    }

    /// Number of table entries.
    pub fn len(&self) -> usize {
        self.threat.len()
    }

    /// True when no attacker has threat.
    pub fn is_empty(&self) -> bool {
        self.threat.is_empty()
    }

    /// Pick the target: the taunter if taunted, else the highest-threat
    /// live attacker (ties break to the lower id — deterministic).
    pub fn target(&self, world: &World) -> Option<EntityId> {
        if let Some((who, _)) = self.taunt {
            if world.is_live(who) {
                return Some(who);
            }
        }
        self.threat
            .iter()
            .filter(|(&who, _)| world.is_live(who))
            .max_by(|(a_id, a), (b_id, b)| {
                a.partial_cmp(b)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(b_id.cmp(a_id))
            })
            .map(|(&who, _)| who)
    }
}

/// Standing candidate set for one mob: the entities inside its aggro
/// radius, maintained by the differential view engine as an anchored
/// **spatial join** — the mob (an anchored scan) joined against
/// everyone else within `radius`. The join follows the anchor's own
/// position deltas, so a moving mob stays on the incremental path: no
/// retarget, no rescan-diff, ever.
///
/// [`CandidateView::sync`] folds pending deltas and takes the join's
/// pair deltas — exiting candidates (death, despawn,
/// zone-out, or the mob walking away) are evicted from the mob's
/// threat table, the bookkeeping [`AggroTable::remove`]'s docs ask
/// callers to do by hand.
#[derive(Debug, Clone)]
pub struct CandidateView {
    mob: EntityId,
    radius: f32,
    view: ViewId,
}

impl CandidateView {
    /// The operator tree identifying one mob's candidate set: the mob
    /// itself spatially joined against every other entity in range.
    fn plan(mob: EntityId, radius: f32) -> ViewPlan {
        ViewPlan::join(
            PlanNode::scan_only(Query::select(), mob),
            PlanNode::scan(Query::select().excluding(mob)),
            JoinOn::Within { radius },
        )
    }

    /// Register the standing join view for the mob and subscribe to its
    /// deltas. Returns `None` when the mob has no position (a
    /// position-less mob has no aggro disk).
    pub fn register(world: &mut World, mob: EntityId, radius: f32) -> Option<Self> {
        world.pos(mob)?;
        let view = world.register_view_plan(Self::plan(mob, radius)).ok()?;
        world.subscribe_view(view);
        Some(CandidateView { mob, radius, view })
    }

    /// Re-attach to this mob's standing aggro view after a restart:
    /// recovery re-registers operator trees from the catalog, so the
    /// candidate set already exists in the recovered world — found by
    /// structural equality with the exact plan
    /// [`CandidateView::register`] builds. No retarget step remains:
    /// the join re-derives membership from the mob's current position
    /// on its first refresh. Falls back to registering a fresh view
    /// when none survives. Subscribes either way: a recovered view
    /// comes back unsubscribed. Returns `None` when the mob has no
    /// position.
    pub fn reattach(world: &mut World, mob: EntityId, radius: f32) -> Option<Self> {
        world.pos(mob)?;
        let plan = Self::plan(mob, radius);
        let view = match world.find_view(&plan) {
            Some(v) => v,
            None => world.register_view_plan(plan).ok()?,
        };
        world.subscribe_view(view);
        Some(CandidateView { mob, radius, view })
    }

    /// The mob this view follows.
    pub fn mob(&self) -> EntityId {
        self.mob
    }

    /// The aggro radius the join maintains.
    pub fn radius(&self) -> f32 {
        self.radius
    }

    /// The underlying standing-view handle (for stats inspection).
    pub fn view(&self) -> ViewId {
        self.view
    }

    /// Per-tick maintenance: refresh, prune threat for every candidate
    /// that left the radius (or the world). The spatial join follows
    /// the mob's own position deltas, so moving and stationary mobs
    /// alike stay incremental. Returns the candidates' delta (the
    /// right side of the join's pair deltas — the mob is the left of
    /// every pair) so callers can react to entries (e.g. open combat on
    /// `entered`). When the retention limit dropped the subscription,
    /// the table is pruned to the current candidates instead, the
    /// pruned attackers are returned as `exited`, and the view is
    /// subscribed again.
    pub fn sync(&mut self, world: &mut World, table: &mut AggroTable) -> ViewDelta<EntityId> {
        world.refresh_views();
        let right = |pairs: Vec<(EntityId, EntityId)>| pairs.into_iter().map(|(_, r)| r).collect();
        let log = match world.take_view_delta(self.view) {
            Some(pairs) => ViewDelta {
                entered: right(pairs.entered),
                exited: right(pairs.exited),
                changed: Vec::new(),
            },
            None => {
                world.subscribe_view(self.view);
                let candidates = self.candidates(world);
                let mut exited: Vec<EntityId> = table
                    .threat
                    .keys()
                    .copied()
                    .filter(|who| candidates.binary_search(who).is_err())
                    .collect();
                exited.sort_unstable();
                ViewDelta {
                    exited,
                    ..ViewDelta::default()
                }
            }
        };
        for &gone in &log.exited {
            table.remove(gone);
        }
        log
    }

    /// Current candidates, sorted by entity id — the set a per-tick
    /// `within` query would have recomputed (the right side of every
    /// maintained join pair).
    pub fn candidates(&self, world: &World) -> Vec<EntityId> {
        world
            .view_pairs(self.view)
            .iter()
            .map(|&(_, right)| right)
            .collect()
    }

    /// Drop the underlying view (the mob died).
    pub fn release(self, world: &mut World) {
        world.drop_view(self.view);
    }
}

/// Targeting policies compared in experiment E8.
pub trait Targeting {
    fn name(&self) -> &'static str;
    /// Choose a target for `mob` among `candidates`.
    fn choose(&mut self, world: &World, mob: EntityId, candidates: &[EntityId])
        -> Option<EntityId>;
}

/// Exact nearest-enemy targeting (requires exact spatial fidelity).
#[derive(Debug, Default)]
pub struct NearestTargeting;

impl Targeting for NearestTargeting {
    fn name(&self) -> &'static str {
        "nearest"
    }

    fn choose(
        &mut self,
        world: &World,
        mob: EntityId,
        candidates: &[EntityId],
    ) -> Option<EntityId> {
        let mp = world.pos(mob)?;
        candidates
            .iter()
            .filter(|&&c| world.is_live(c))
            .filter_map(|&c| world.pos(c).map(|p| (c, p.dist2(mp))))
            .min_by(|(ca, da), (cb, db)| {
                da.partial_cmp(db)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(ca.cmp(cb))
            })
            .map(|(c, _)| c)
    }
}

/// Aggro-table targeting (role-weighted threat accumulation).
#[derive(Debug, Default)]
pub struct AggroTargeting {
    tables: HashMap<EntityId, AggroTable>,
    /// per-tick threat decay
    pub decay: f64,
}

impl AggroTargeting {
    pub fn new(decay: f64) -> Self {
        AggroTargeting {
            tables: HashMap::new(),
            decay,
        }
    }

    /// Table of a mob (created on demand).
    pub fn table_mut(&mut self, mob: EntityId) -> &mut AggroTable {
        self.tables.entry(mob).or_default()
    }

    /// Record a damage event against a mob.
    pub fn record_damage(&mut self, mob: EntityId, attacker: EntityId, role: Role, dmg: f64) {
        self.table_mut(mob).add_threat(attacker, role, dmg);
    }

    /// Advance one tick (decay all tables).
    pub fn tick(&mut self) {
        for t in self.tables.values_mut() {
            t.decay(self.decay);
        }
    }
}

impl Targeting for AggroTargeting {
    fn name(&self) -> &'static str {
        "aggro"
    }

    fn choose(
        &mut self,
        world: &World,
        mob: EntityId,
        _candidates: &[EntityId],
    ) -> Option<EntityId> {
        self.tables.get(&mob).and_then(|t| t.target(world))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::arena_world;
    use gamedb_spatial::Vec2;

    fn world3() -> (World, Vec<EntityId>) {
        arena_world(4, |i| Vec2::new(i as f32 * 2.0, 0.0))
    }

    #[test]
    fn tank_outthreats_dps_at_lower_damage() {
        let (w, ids) = world3();
        let (mob, tank, dps) = (ids[0], ids[1], ids[2]);
        let mut t = AggroTable::new();
        t.add_threat(tank, Role::Tank, 50.0); // 150 threat
        t.add_threat(dps, Role::Dps, 120.0); // 120 threat
        assert_eq!(t.target(&w), Some(tank));
        assert_eq!(t.threat_of(tank), 150.0);
        let _ = mob;
    }

    #[test]
    fn taunt_overrides_until_expiry() {
        let (w, ids) = world3();
        let (tank, dps) = (ids[1], ids[2]);
        let mut t = AggroTable::new();
        t.add_threat(dps, Role::Dps, 1000.0);
        t.taunt(tank, 2);
        // needs some threat entry for tank not required: taunt wins outright
        assert_eq!(t.target(&w), Some(tank));
        t.decay(1.0);
        assert_eq!(t.target(&w), Some(tank));
        t.decay(1.0);
        t.decay(1.0);
        assert_eq!(t.target(&w), Some(dps), "taunt expired");
    }

    #[test]
    fn decay_and_cleanup() {
        let (_, ids) = world3();
        let mut t = AggroTable::new();
        t.add_threat(ids[1], Role::Dps, 8.0);
        for _ in 0..100 {
            t.decay(0.5);
        }
        assert!(t.is_empty(), "fully decayed entries are dropped");
    }

    #[test]
    fn dead_attackers_skipped() {
        let (mut w, ids) = world3();
        let mut t = AggroTable::new();
        t.add_threat(ids[1], Role::Dps, 100.0);
        t.add_threat(ids[2], Role::Dps, 50.0);
        w.despawn(ids[1]);
        assert_eq!(t.target(&w), Some(ids[2]));
        t.remove(ids[1]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn tie_breaks_deterministic() {
        let (w, ids) = world3();
        let mut t = AggroTable::new();
        t.add_threat(ids[2], Role::Dps, 10.0);
        t.add_threat(ids[1], Role::Dps, 10.0);
        assert_eq!(t.target(&w), Some(ids[1].min(ids[2])));
    }

    #[test]
    fn nearest_targeting_tracks_position() {
        let (mut w, ids) = world3();
        let mut nt = NearestTargeting;
        let mob = ids[0];
        let cands = &ids[1..];
        assert_eq!(nt.choose(&w, mob, cands), Some(ids[1]));
        // move ids[3] right next to the mob
        w.set_pos(ids[3], Vec2::new(0.1, 0.0)).unwrap();
        assert_eq!(nt.choose(&w, mob, cands), Some(ids[3]));
    }

    /// ISSUE-2: the standing candidate view must track the per-tick
    /// `within` rescan exactly as the mob and players move, and exits
    /// must evict threat.
    #[test]
    fn candidate_view_matches_rescan_and_prunes_threat() {
        let (mut w, ids) = arena_world(6, |i| Vec2::new(i as f32 * 2.0, 0.0));
        let mob = ids[0];
        let radius = 5.0;
        let mut cv = CandidateView::register(&mut w, mob, radius).unwrap();
        let mut table = AggroTable::new();
        for &p in &ids[1..] {
            table.add_threat(p, Role::Dps, 10.0);
        }
        for tick in 0..8 {
            // players drift right, the mob chases slowly; one player dies
            for (i, &p) in ids[1..].iter().enumerate() {
                if let Some(pos) = w.pos(p) {
                    w.set_pos(p, Vec2::new(pos.x + (i as f32 + 1.0) * 0.7, pos.y)).unwrap();
                }
            }
            let mp = w.pos(mob).unwrap();
            w.set_pos(mob, Vec2::new(mp.x + 0.5, 0.0)).unwrap();
            if tick == 4 {
                w.despawn(ids[2]);
            }
            let log = cv.sync(&mut w, &mut table);
            // oracle: fresh rescan of the same query
            let oracle = Query::select()
                .within(w.pos(mob).unwrap(), radius)
                .excluding(mob)
                .run_scan(&w);
            assert_eq!(cv.candidates(&w), oracle.as_slice(), "tick {tick}");
            for &gone in &log.exited {
                assert_eq!(table.threat_of(gone), 0.0, "exit must evict threat");
            }
        }
        // the dead player is long gone from both table and view
        assert_eq!(table.threat_of(ids[2]), 0.0);
        assert!(!cv.candidates(&w).contains(&ids[2]));

        // a stationary mob must not pay retarget rescans
        let rescans_before = w.view_stats(cv.view()).rescans;
        cv.sync(&mut w, &mut table);
        cv.sync(&mut w, &mut table);
        assert_eq!(
            w.view_stats(cv.view()).rescans,
            rescans_before,
            "stationary syncs must stay incremental"
        );
        cv.release(&mut w);
    }

    /// A candidate view whose subscription the retention limit dropped
    /// prunes the threat table to the current candidates, reports the
    /// pruned attackers, and subscribes again.
    #[test]
    fn candidate_view_resyncs_after_losing_its_subscription() {
        // players at x = 0, 2, 4, 6: the mob is the first
        let (mut w, ids) = arena_world(4, |i| Vec2::new(i as f32 * 2.0, 0.0));
        let mut cv = CandidateView::register(&mut w, ids[0], 5.0).unwrap();
        let mut table = AggroTable::new();
        for &p in &ids[1..] {
            table.add_threat(p, Role::Dps, 10.0);
        }
        // ids[3] stood outside the radius from the start
        w.set_tap_retention(Some(0));
        w.set_pos(ids[1], Vec2::new(50.0, 0.0)).unwrap();
        let log = cv.sync(&mut w, &mut table);
        assert_eq!(log.exited, vec![ids[1], ids[3]], "pruned to the candidates");
        assert_eq!(table.len(), 1);
        w.set_tap_retention(None);
        w.set_pos(ids[2], Vec2::new(50.0, 0.0)).unwrap();
        let log = cv.sync(&mut w, &mut table);
        assert_eq!(log.exited, vec![ids[2]], "subscribed again");
        assert!(table.is_empty());
    }

    #[test]
    fn candidate_view_needs_positioned_mob() {
        let mut w = World::new();
        let ghost = w.spawn();
        assert!(CandidateView::register(&mut w, ghost, 5.0).is_none());
    }

    #[test]
    fn aggro_stable_under_position_noise() {
        // tank holds aggro even as a dps runs closer — nearest flaps
        let (mut w, ids) = world3();
        let (mob, tank, dps) = (ids[0], ids[1], ids[2]);
        let mut aggro = AggroTargeting::new(0.95);
        let mut nearest = NearestTargeting;
        aggro.record_damage(mob, tank, Role::Tank, 30.0);
        aggro.record_damage(mob, dps, Role::Dps, 40.0);

        let mut aggro_switches = 0;
        let mut nearest_switches = 0;
        let (mut last_a, mut last_n) = (None, None);
        for tick in 0..20 {
            // dps oscillates between nearer and farther than the tank
            let x = if tick % 2 == 0 { 0.5 } else { 3.5 };
            w.set_pos(dps, Vec2::new(x, 0.0)).unwrap();
            aggro.record_damage(mob, tank, Role::Tank, 10.0);
            aggro.record_damage(mob, dps, Role::Dps, 12.0);
            aggro.tick();
            let a = aggro.choose(&w, mob, &[tank, dps]);
            let n = nearest.choose(&w, mob, &[tank, dps]);
            if last_a.is_some() && a != last_a {
                aggro_switches += 1;
            }
            if last_n.is_some() && n != last_n {
                nearest_switches += 1;
            }
            last_a = a;
            last_n = n;
        }
        assert_eq!(aggro_switches, 0, "tank holds aggro");
        assert!(nearest_switches > 10, "nearest flaps with position noise");
    }
}
