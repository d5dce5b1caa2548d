//! Multi-server dynamic map partitioning.
//!
//! The paper: games "predict which players may issue conflicting
//! interactions with one another and dynamically partition their
//! databases to reduce server load." A single causality bubble never
//! needs to talk to another bubble within the tick horizon, so bubbles
//! are also the natural unit of *placement*: this module assigns bubbles
//! to simulated server nodes and rebalances as players move.
//!
//! Three placement policies are compared (experiment E12):
//!
//! * [`AssignPolicy::StaticZones`] — the classic zoned MMO server: the
//!   map is cut into a fixed grid of rectangles, each owned by a node.
//!   Cheap and stable, but a popular in-game event overloads one node.
//! * [`AssignPolicy::HashEntities`] — entity-id hashing. Perfectly
//!   balanced but oblivious to locality, so almost every interaction
//!   becomes a cross-node (distributed) transaction.
//! * [`AssignPolicy::DynamicBubbles`] — the paper's technique: bubbles
//!   are bin-packed onto nodes by load, with *stickiness* (a bubble
//!   prefers the node already owning most of its entities) so rebalancing
//!   only pays migration cost when imbalance actually demands it.

use gamedb_core::{EntityId, World};
use gamedb_spatial::Vec2;

use crate::action::Action;
use crate::bubbles::{partition, BubbleConfig, BubbleTracker};

/// Identifier of a simulated server node.
pub type NodeId = usize;

/// How entities are placed onto server nodes.
///
/// **Unpositioned entities** (global flags, quest state — anything
/// without a `pos`) are owned by their hash **home node**
/// (`id % nodes`) under *every* policy: a spatial rule cannot place
/// them, but leaving them unowned silently exempted every transaction
/// touching them from [`ShardAssignment::cross_node_fraction`] and from
/// handoff accounting. The home node is stable across ticks, so they
/// never migrate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AssignPolicy {
    /// Fixed rectangular zones over a `map_size`² map, dealt to nodes
    /// round-robin in row-major order.
    StaticZones { cols: usize, rows: usize, map_size: f32 },
    /// `entity id % nodes` — locality-oblivious baseline.
    HashEntities,
    /// Causality-bubble bin packing with sticky placement. A bubble only
    /// moves off its preferred (majority-owner) node when that node's
    /// projected load exceeds `ideal · max_overload`.
    DynamicBubbles { cfg: BubbleConfig, max_overload: f32 },
}

/// One slot of the owner table: the node, and the generation of the
/// entity it was assigned to — a later entity reusing the slot is a
/// different entity and has no owner here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Owner {
    gen: u32,
    node: u32,
}

const VACANT: Owner = Owner { gen: 0, node: u32::MAX };

/// Per-tick shard placement: which node owns each entity.
///
/// A dense owner table indexed by [`EntityId::index`], so a lookup is an
/// array read plus a generation check and a clone is a `memcpy`. The
/// table never ends in a vacant slot, which makes structural equality
/// placement equality.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardAssignment {
    owners: Vec<Owner>,
    len: usize,
    pub nodes: usize,
}

impl ShardAssignment {
    /// An empty placement over `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        ShardAssignment { owners: Vec::new(), len: 0, nodes }
    }

    /// The node owning `e`, if it has one. A stale id — its slot since
    /// despawned or reused — has none.
    #[inline]
    pub fn node_of(&self, e: EntityId) -> Option<NodeId> {
        self.at(e.index() as usize)
            .filter(|&(held, _)| held == e)
            .map(|(_, node)| node)
    }

    /// Give `e` to `node`, replacing whatever held `e`'s slot.
    pub fn set(&mut self, e: EntityId, node: NodeId) {
        assert!(node < self.nodes, "node {node} out of range for {} nodes", self.nodes);
        let slot = e.index() as usize;
        if slot >= self.owners.len() {
            self.owners.resize(slot + 1, VACANT);
        }
        if self.owners[slot] == VACANT {
            self.len += 1;
        }
        self.owners[slot] = Owner { gen: e.generation(), node: node as u32 };
    }

    /// Number of owned entities.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entity is owned.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// One past the highest owned slot.
    pub(crate) fn slots(&self) -> usize {
        self.owners.len()
    }

    /// The entity owning `slot` and its node.
    #[inline]
    pub(crate) fn at(&self, slot: usize) -> Option<(EntityId, NodeId)> {
        let o = *self.owners.get(slot)?;
        (o != VACANT).then(|| {
            let bits = ((o.gen as u64) << 32) | slot as u64;
            (EntityId::from_bits(bits), o.node as NodeId)
        })
    }

    /// Every `(entity, owner)` pair, in slot (= id) order.
    pub fn iter(&self) -> impl Iterator<Item = (EntityId, NodeId)> + '_ {
        (0..self.owners.len()).filter_map(|slot| self.at(slot))
    }

    /// Entities owned by each node.
    pub fn load_per_node(&self) -> Vec<usize> {
        let mut load = vec![0usize; self.nodes];
        for o in self.owners.iter().filter(|&&o| o != VACANT) {
            load[o.node as usize] += 1;
        }
        load
    }

    /// Peak-to-ideal load ratio (1.0 = perfectly balanced). The paper's
    /// "server load" figure of merit: how much hotter the hottest node
    /// runs than a perfectly spread world would.
    pub fn imbalance(&self) -> f32 {
        let load = self.load_per_node();
        let max = load.iter().copied().max().unwrap_or(0) as f32;
        let ideal = self.len as f32 / self.nodes.max(1) as f32;
        if ideal == 0.0 {
            1.0
        } else {
            max / ideal
        }
    }

    /// Number of entities whose owner changed relative to `prev`
    /// (the handoff cost a real cluster pays in serialization + network).
    pub fn migrations_from(&self, prev: &ShardAssignment) -> usize {
        self.owners
            .iter()
            .zip(&prev.owners)
            .filter(|(now, was)| {
                **now != VACANT && **was != VACANT && now.gen == was.gen && now.node != was.node
            })
            .count()
    }

    /// Fraction of `actions` whose footprint spans more than one node —
    /// each of those is a distributed transaction in a real deployment.
    pub fn cross_node_fraction(&self, actions: &[Action]) -> f32 {
        if actions.is_empty() {
            return 0.0;
        }
        let crossing = actions
            .iter()
            .filter(|a| {
                let mut fp = a.read_set();
                fp.extend(a.write_set());
                let mut owner: Option<NodeId> = None;
                for e in fp {
                    match (owner, self.node_of(e)) {
                        (_, None) => {}
                        (None, Some(n)) => owner = Some(n),
                        (Some(prev), Some(n)) if prev != n => return true,
                        _ => {}
                    }
                }
                false
            })
            .count();
        crossing as f32 / actions.len() as f32
    }
}

/// Rolling statistics of a shard simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShardStats {
    /// Ticks simulated.
    pub ticks: usize,
    /// Mean peak-to-ideal load ratio across ticks.
    pub mean_imbalance: f32,
    /// Worst peak-to-ideal load ratio seen on any tick.
    pub max_imbalance: f32,
    /// Mean fraction of actions spanning nodes.
    pub mean_cross_node: f32,
    /// Total entities handed between nodes.
    pub total_migrations: usize,
}

/// Assigns entities to nodes tick by tick and accumulates [`ShardStats`].
#[derive(Debug, Clone)]
pub struct ShardManager {
    pub policy: AssignPolicy,
    pub nodes: usize,
    prev: Option<ShardAssignment>,
    /// The maintained bubble partition [`ShardManager::tick`] places
    /// from under [`AssignPolicy::DynamicBubbles`]; built on first use.
    bubbles: Option<BubbleTracker>,
    // accumulators
    ticks: usize,
    sum_imbalance: f64,
    max_imbalance: f32,
    sum_cross: f64,
    migrations: usize,
    /// Instrumentation handles ([`ShardManager::attach_metrics`]).
    metrics: Option<crate::metrics::ShardMetrics>,
}

impl ShardManager {
    pub fn new(nodes: usize, policy: AssignPolicy) -> Self {
        assert!(nodes > 0, "need at least one server node");
        ShardManager {
            policy,
            nodes,
            prev: None,
            bubbles: None,
            ticks: 0,
            sum_imbalance: 0.0,
            max_imbalance: 0.0,
            sum_cross: 0.0,
            migrations: 0,
            metrics: None,
        }
    }

    /// Attach a metrics registry: placement rounds, node handoffs, and
    /// the latest imbalance / cross-node readings are reported into
    /// `registry` from here on. Purely observational.
    pub fn attach_metrics(&mut self, registry: &gamedb_metrics::MetricsRegistry) {
        self.metrics = Some(crate::metrics::ShardMetrics::new(registry));
    }

    /// Detach the registry attached by
    /// [`ShardManager::attach_metrics`].
    pub fn detach_metrics(&mut self) {
        self.metrics = None;
    }

    /// Compute this tick's placement for the current world state from
    /// scratch — what [`ShardManager::tick`] must equal, and the test
    /// oracle for its maintained bubble partition. Every live entity
    /// receives an owner: positioned entities per the policy,
    /// unpositioned entities at their hash home node (see
    /// [`AssignPolicy`]).
    pub fn assign(&self, world: &World) -> ShardAssignment {
        let mut assignment = ShardAssignment::new(self.nodes);
        match self.policy {
            AssignPolicy::StaticZones { cols, rows, map_size } => {
                for e in world.entities() {
                    if let Some(p) = world.pos(e) {
                        let cx = zone_coord(p.x, map_size, cols);
                        let cy = zone_coord(p.y, map_size, rows);
                        assignment.set(e, (cy * cols + cx) % self.nodes);
                    }
                }
            }
            AssignPolicy::HashEntities => {
                for e in world.entities() {
                    assignment.set(e, e.index() as usize % self.nodes);
                }
            }
            AssignPolicy::DynamicBubbles { cfg, max_overload } => {
                let part = partition(world, &cfg);
                // Largest bubbles first; the sort is stable, so equal
                // sizes keep first-member order.
                let mut order: Vec<&[EntityId]> = part.bubbles.iter().map(Vec::as_slice).collect();
                order.sort_by_key(|b| std::cmp::Reverse(b.len()));
                let positioned = order.iter().map(|b| b.len()).sum();
                self.pack(positioned, max_overload, order.into_iter(), &mut assignment);
            }
        }
        // Unpositioned entities fall through every spatial rule; pin
        // them to their stable home node so no policy leaves live
        // state unowned.
        for e in world.entities() {
            if world.pos(e).is_none() {
                assignment.set(e, e.index() as usize % self.nodes);
            }
        }
        assignment
    }

    /// [`AssignPolicy::DynamicBubbles`] placement off the maintained
    /// partition: only entities whose position or reach changed since
    /// the last tick are re-probed.
    fn assign_maintained(
        &mut self,
        world: &World,
        cfg: BubbleConfig,
        max_overload: f32,
    ) -> ShardAssignment {
        // a policy edited to another motion model starts over
        let mut tracker = self
            .bubbles
            .take()
            .filter(|tracker| *tracker.cfg() == cfg)
            .unwrap_or_else(|| BubbleTracker::new(cfg));
        let reprobed = tracker.update(world);
        let mut joined: Vec<&[EntityId]> = tracker.joined().collect();
        joined.sort_by_key(|b| std::cmp::Reverse(b.len()));
        let mut assignment = ShardAssignment::new(self.nodes);
        assignment
            .owners
            .reserve(self.prev.as_ref().map_or(0, ShardAssignment::slots));
        self.pack(
            tracker.positioned(),
            max_overload,
            joined.into_iter().chain(tracker.singletons()),
            &mut assignment,
        );
        for &e in tracker.unpositioned() {
            assignment.set(e, e.index() as usize % self.nodes);
        }
        if let Some(m) = &self.metrics {
            m.partition_reprobed.add(reprobed as u64);
            m.bubbles.set(tracker.len() as i64);
            m.edges.set(tracker.edges() as i64);
        }
        self.bubbles = Some(tracker);
        assignment
    }

    /// Sticky first-fit-decreasing bin packing. `bubbles` arrive largest
    /// first; each tries its sticky node (the plurality owner of its
    /// members last tick) and falls to the least-loaded node once that
    /// node's projected load would exceed `ideal · max_overload`.
    fn pack<'a>(
        &self,
        positioned: usize,
        max_overload: f32,
        bubbles: impl Iterator<Item = &'a [EntityId]>,
        assignment: &mut ShardAssignment,
    ) {
        let ideal = positioned as f32 / self.nodes as f32;
        // The cap is compared in f32: `cap as usize` floored a
        // fractional cap (max_overload 1.1 over ideal 6 ⇒ 6.6 became
        // 6), spilling sticky bubbles off their preferred node earlier
        // than the documented "projected load exceeds
        // ideal · max_overload" rule.
        let cap = (ideal * max_overload).max(1.0);
        let mut load = vec![0usize; self.nodes];
        let mut votes = vec![0usize; self.nodes];
        for members in bubbles {
            let target = self
                .sticky_node(members, &mut votes)
                .filter(|&n| (load[n] + members.len()) as f32 <= cap)
                .unwrap_or_else(|| {
                    // least-loaded node
                    (0..self.nodes).min_by_key(|&n| load[n]).expect("nodes > 0")
                });
            load[target] += members.len();
            for &e in members {
                assignment.set(e, target);
            }
        }
    }

    /// Node owning the plurality of `members` last tick, if any (ties
    /// go to the highest node id). The previous placement may name
    /// nodes this manager no longer has — a manager rebuilt after
    /// failover or scale-down and seeded with the old placement
    /// ([`ShardManager::seed_placement`]) — so votes for out-of-range
    /// nodes are discarded rather than indexed (which used to panic).
    /// `votes` is scratch, one tally per node.
    fn sticky_node(&self, members: &[EntityId], votes: &mut [usize]) -> Option<NodeId> {
        let prev = self.prev.as_ref()?;
        let owner = |e: EntityId| prev.node_of(e).filter(|&n| n < self.nodes);
        if let [only] = members {
            return owner(*only);
        }
        votes.fill(0);
        for &e in members {
            if let Some(n) = owner(e) {
                votes[n] += 1;
            }
        }
        let (best, &count) = votes.iter().enumerate().max_by_key(|(_, &c)| c)?;
        (count > 0).then_some(best)
    }

    /// Seed the manager with a placement computed elsewhere — the
    /// failover path: a manager rebuilt on a surviving node (possibly
    /// with a different node count) adopts the last known placement so
    /// stickiness keeps working across the rebuild instead of
    /// re-shuffling the whole world on its first tick. Owners the new
    /// topology no longer has simply stop voting (see
    /// [`ShardManager::sticky_node`]).
    pub fn seed_placement(&mut self, prev: ShardAssignment) {
        self.prev = Some(prev);
    }

    /// The maintained bubble partition, once a
    /// [`AssignPolicy::DynamicBubbles`] tick has built it.
    pub fn bubbles(&self) -> Option<&BubbleTracker> {
        self.bubbles.as_ref()
    }

    /// Place this tick, score it against the action batch, accumulate.
    pub fn tick(&mut self, world: &World, actions: &[Action]) -> ShardAssignment {
        let assignment = match self.policy {
            AssignPolicy::DynamicBubbles { cfg, max_overload } => {
                self.assign_maintained(world, cfg, max_overload)
            }
            _ => self.assign(world),
        };
        let imb = assignment.imbalance();
        self.sum_imbalance += imb as f64;
        self.max_imbalance = self.max_imbalance.max(imb);
        let cross = assignment.cross_node_fraction(actions);
        self.sum_cross += cross as f64;
        let mut handoffs = 0usize;
        if let Some(prev) = &self.prev {
            handoffs = assignment.migrations_from(prev);
            self.migrations += handoffs;
        }
        self.ticks += 1;
        if let Some(m) = &self.metrics {
            m.ticks.inc();
            m.handoffs.add(handoffs as u64);
            m.imbalance_pct.set((imb * 100.0) as i64);
            m.cross_node_permille.set((cross * 1000.0) as i64);
        }
        self.prev = Some(assignment.clone());
        assignment
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> ShardStats {
        let t = self.ticks.max(1) as f64;
        ShardStats {
            ticks: self.ticks,
            mean_imbalance: (self.sum_imbalance / t) as f32,
            max_imbalance: self.max_imbalance,
            mean_cross_node: (self.sum_cross / t) as f32,
            total_migrations: self.migrations,
        }
    }
}

fn zone_coord(v: f32, map_size: f32, cells: usize) -> usize {
    let cell = (v / map_size * cells as f32).floor();
    (cell.max(0.0) as usize).min(cells - 1)
}

/// Drive every player toward `event` by `speed` per tick — the "everyone
/// piles into the world event" scenario that melts a zoned server.
pub fn step_flock(world: &mut World, players: &[EntityId], event: Vec2, speed: f32) {
    for &e in players {
        let Some(p) = world.pos(e) else { continue };
        let delta = event - p;
        let d = delta.len();
        let step = if d <= speed || d == 0.0 { delta } else { delta * (speed / d) };
        world.set_pos(e, p + step).expect("live player");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::arena_world;
    use crate::workload::{Workload, WorkloadConfig};

    fn grid_world(n: usize, spacing: f32) -> (World, Vec<EntityId>) {
        let side = (n as f32).sqrt().ceil() as usize;
        arena_world(n, |i| {
            Vec2::new((i % side) as f32 * spacing, (i / side) as f32 * spacing)
        })
    }

    #[test]
    fn static_zones_partition_by_position() {
        let (w, ids) = arena_world(4, |i| match i {
            0 => Vec2::new(10.0, 10.0),
            1 => Vec2::new(910.0, 10.0),
            2 => Vec2::new(10.0, 910.0),
            _ => Vec2::new(910.0, 910.0),
        });
        let mgr = ShardManager::new(
            4,
            AssignPolicy::StaticZones { cols: 2, rows: 2, map_size: 1000.0 },
        );
        let a = mgr.assign(&w);
        let nodes: Vec<NodeId> = ids.iter().map(|&e| a.node_of(e).unwrap()).collect();
        assert_eq!(nodes, vec![0, 1, 2, 3]);
    }

    #[test]
    fn zone_coord_clamps_out_of_range_positions() {
        assert_eq!(zone_coord(-5.0, 100.0, 4), 0);
        assert_eq!(zone_coord(250.0, 100.0, 4), 3);
        assert_eq!(zone_coord(99.9, 100.0, 4), 3);
        assert_eq!(zone_coord(0.0, 100.0, 4), 0);
    }

    #[test]
    fn hash_assignment_is_balanced() {
        let (w, _) = grid_world(400, 5.0);
        let mgr = ShardManager::new(4, AssignPolicy::HashEntities);
        let a = mgr.assign(&w);
        assert!(a.imbalance() < 1.05, "imbalance={}", a.imbalance());
    }

    #[test]
    fn hash_assignment_crosses_nodes_constantly() {
        let (w, ids) = grid_world(64, 2.0);
        let mgr = ShardManager::new(8, AssignPolicy::HashEntities);
        let a = mgr.assign(&w);
        // neighbor attacks: id i -> i+1 lands on a different node by
        // construction (consecutive indices mod 8 differ)
        let batch: Vec<Action> = (0..63)
            .map(|i| Action::Attack { attacker: ids[i], target: ids[i + 1] })
            .collect();
        assert_eq!(a.cross_node_fraction(&batch), 1.0);
    }

    #[test]
    fn dynamic_bubbles_keep_interactions_local() {
        // four well-separated squads: bubbles == squads, so squad-internal
        // attacks never cross nodes
        let (w, ids) = arena_world(32, |i| {
            let squad = i / 8;
            Vec2::new(squad as f32 * 5000.0 + (i % 8) as f32 * 2.0, 0.0)
        });
        let mgr = ShardManager::new(
            4,
            AssignPolicy::DynamicBubbles { cfg: BubbleConfig::default(), max_overload: 1.5 },
        );
        let a = mgr.assign(&w);
        let batch: Vec<Action> = (0..32)
            .filter(|i| i % 8 != 7)
            .map(|i| Action::Attack { attacker: ids[i], target: ids[i + 1] })
            .collect();
        assert_eq!(a.cross_node_fraction(&batch), 0.0);
        assert!(a.imbalance() <= 1.01, "four equal bubbles over four nodes");
    }

    #[test]
    fn bubble_never_splits_across_nodes() {
        let (w, _) = arena_world(48, |i| {
            let squad = i / 12;
            Vec2::new(squad as f32 * 9000.0 + (i % 12) as f32 * 1.5, 0.0)
        });
        let cfg = BubbleConfig::default();
        let mgr = ShardManager::new(
            3,
            AssignPolicy::DynamicBubbles { cfg, max_overload: 2.0 },
        );
        let a = mgr.assign(&w);
        let part = partition(&w, &cfg);
        for bubble in &part.bubbles {
            let owners: std::collections::HashSet<NodeId> =
                bubble.iter().map(|&e| a.node_of(e).unwrap()).collect();
            assert_eq!(owners.len(), 1, "bubble split across {owners:?}");
        }
    }

    #[test]
    fn stickiness_avoids_gratuitous_migration() {
        let (w, _) = arena_world(40, |i| {
            let squad = i / 10;
            Vec2::new(squad as f32 * 8000.0 + (i % 10) as f32 * 2.0, 0.0)
        });
        let mut mgr = ShardManager::new(
            4,
            AssignPolicy::DynamicBubbles { cfg: BubbleConfig::default(), max_overload: 1.5 },
        );
        mgr.tick(&w, &[]);
        // identical world next tick: nothing should move
        mgr.tick(&w, &[]);
        assert_eq!(mgr.stats().total_migrations, 0);
    }

    /// ISSUE-3 satellite: `DynamicBubbles` placement is a pure function
    /// of world state + previous placement — two runs from identical
    /// seeds produce identical node assignments tick for tick (no
    /// HashMap-iteration or thread-scheduling nondeterminism), which is
    /// what makes the E12 experiments and any future failover replay
    /// reproducible.
    #[test]
    fn dynamic_bubbles_placement_is_deterministic_per_seed() {
        let run = |seed: u64| -> Vec<Vec<(EntityId, NodeId)>> {
            let cfg = WorkloadConfig {
                players: 120,
                map_size: 400.0,
                seed,
                ..Default::default()
            };
            let mut wl = Workload::new(cfg);
            let mut mgr = ShardManager::new(
                5,
                AssignPolicy::DynamicBubbles {
                    cfg: BubbleConfig::default(),
                    max_overload: 1.3,
                },
            );
            let mut placements = Vec::new();
            for _ in 0..8 {
                let batch = wl.next_batch();
                let assignment = mgr.tick(&wl.world, &batch);
                placements.push(assignment.iter().collect());
                // evolve the world so later ticks exercise stickiness
                let event = Vec2::new(200.0, 200.0);
                let players = wl.players.clone();
                step_flock(&mut wl.world, &players, event, 4.0);
            }
            placements
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "identical seeds must place identically");
        assert_ne!(
            a,
            run(43),
            "a different seed must actually reshuffle the world (sanity)"
        );
    }

    #[test]
    fn flock_overloads_static_zone() {
        // everyone walks to one corner event: the owning zone's node ends
        // up with every player while dynamic placement keeps spreading
        // bubbles across nodes as long as separate bubbles exist
        let cfg = WorkloadConfig {
            players: 256,
            hotspot_fraction: 0.0,
            map_size: 1000.0,
            seed: 9,
            ..Default::default()
        };
        let mut wl = Workload::new(cfg);
        let players = wl.players.clone();
        let event = Vec2::new(100.0, 100.0);

        let mut zoned = ShardManager::new(
            4,
            AssignPolicy::StaticZones { cols: 2, rows: 2, map_size: 1000.0 },
        );
        for _ in 0..60 {
            step_flock(&mut wl.world, &players, event, 20.0);
            let batch = wl.next_batch();
            zoned.tick(&wl.world, &batch);
        }
        let z = zoned.stats();
        // all 256 players in node 0's zone => imbalance ~ 4.0 at the end
        assert!(z.max_imbalance > 3.5, "zoned max_imbalance={}", z.max_imbalance);
    }

    #[test]
    fn migrations_accumulate_when_players_cross_zones() {
        let (mut w, ids) = arena_world(10, |_| Vec2::new(490.0, 500.0));
        let mut mgr = ShardManager::new(
            2,
            AssignPolicy::StaticZones { cols: 2, rows: 1, map_size: 1000.0 },
        );
        mgr.tick(&w, &[]);
        for &e in &ids {
            w.set_pos(e, Vec2::new(510.0, 500.0)).unwrap();
        }
        mgr.tick(&w, &[]);
        assert_eq!(mgr.stats().total_migrations, 10);
    }

    #[test]
    fn stats_mean_over_ticks() {
        let (w, _) = grid_world(16, 3.0);
        let mut mgr = ShardManager::new(2, AssignPolicy::HashEntities);
        for _ in 0..5 {
            mgr.tick(&w, &[]);
        }
        let s = mgr.stats();
        assert_eq!(s.ticks, 5);
        assert!((s.mean_imbalance - 1.0).abs() < 0.01);
        assert_eq!(s.total_migrations, 0, "hash placement is stable");
    }

    #[test]
    fn single_node_takes_everything() {
        let (w, _) = grid_world(25, 4.0);
        for policy in [
            AssignPolicy::HashEntities,
            AssignPolicy::StaticZones { cols: 3, rows: 3, map_size: 100.0 },
            AssignPolicy::DynamicBubbles { cfg: BubbleConfig::default(), max_overload: 1.2 },
        ] {
            let mgr = ShardManager::new(1, policy);
            let a = mgr.assign(&w);
            assert_eq!(a.load_per_node(), vec![25]);
            assert_eq!(a.imbalance(), 1.0);
        }
    }

    #[test]
    fn overload_cap_spills_sticky_bubbles() {
        // one big squad and one small squad; after the big squad's node is
        // saturated, tightening the cap forces the small bubble elsewhere
        // even though stickiness would prefer the same node
        let (w, _) = arena_world(12, |i| {
            if i < 10 {
                Vec2::new(i as f32 * 1.5, 0.0)
            } else {
                Vec2::new(9000.0 + i as f32 * 1.5, 0.0)
            }
        });
        let mut mgr = ShardManager::new(
            2,
            AssignPolicy::DynamicBubbles { cfg: BubbleConfig::default(), max_overload: 1.1 },
        );
        let a1 = mgr.tick(&w, &[]);
        // ideal = 6/node, cap = 6.6: the 10-bubble overflows its fair
        // share but cannot split — it owns one node alone, the 2-bubble
        // lands on the other
        let mut loads = a1.load_per_node();
        loads.sort_unstable();
        assert_eq!(loads, vec![2, 10]);
        // placement is stable on the next identical tick
        mgr.tick(&w, &[]);
        assert_eq!(mgr.stats().total_migrations, 0);
    }

    /// ISSUE-8 satellite: the overload cap is compared in f32. The old
    /// `cap as usize` floored a fractional cap before comparing; this
    /// pins the documented rule — a sticky bubble stays while its
    /// node's projected load does not *exceed* `ideal · max_overload`
    /// — from both sides of a fractional boundary (ideal 6: cap 6.6
    /// keeps a projected load of 6 and spills 7; cap 7.2 keeps 7).
    #[test]
    fn fractional_cap_boundary_holds_sticky_bubbles() {
        // bubbles of 6, 5, 1 over 2 nodes: ideal 6. The singleton is
        // seeded onto the 6-bubble's node, so its sticky projection is
        // exactly 7 — one past the ideal, between cap 6.6 and cap 7.2.
        let (w, ids) = arena_world(12, |i| {
            let (squad, member) = match i {
                0..=5 => (0, i),
                6..=10 => (1, i - 6),
                _ => (2, 0),
            };
            Vec2::new(squad as f32 * 9000.0 + member as f32 * 1.5, 0.0)
        });
        let run = |max_overload: f32| {
            let mut mgr = ShardManager::new(
                2,
                AssignPolicy::DynamicBubbles { cfg: BubbleConfig::default(), max_overload },
            );
            let mut seeded = ShardAssignment::new(2);
            for (i, &e) in ids.iter().enumerate() {
                seeded.set(e, if (6..=10).contains(&i) { 1 } else { 0 });
            }
            mgr.seed_placement(seeded);
            mgr.tick(&w, &[]);
            mgr.stats().total_migrations
        };
        // cap 6.6: the singleton's sticky node projects 6 + 1 = 7 >
        // 6.6, so it spills to the other node (one migration)
        assert_eq!(run(1.1), 1, "projected 7 exceeds cap 6.6: spills");
        // cap 7.2: the same projected 7 ≤ 7.2 — the bubble is held
        assert_eq!(run(1.2), 0, "projected 7 within cap 7.2: sticky");
    }

    /// ISSUE-8 satellite: a manager rebuilt with fewer nodes (failover
    /// or scale-down) and seeded with the prior placement must not
    /// index vote tallies with out-of-range node ids — stickiness just
    /// loses the votes of nodes that no longer exist.
    #[test]
    fn node_count_shrink_with_seeded_placement_does_not_panic() {
        let (w, _) = arena_world(40, |i| {
            let squad = i / 10;
            Vec2::new(squad as f32 * 8000.0 + (i % 10) as f32 * 2.0, 0.0)
        });
        let policy = AssignPolicy::DynamicBubbles {
            cfg: BubbleConfig::default(),
            max_overload: 1.5,
        };
        let mut before = ShardManager::new(4, policy);
        let old = before.tick(&w, &[]);
        assert!(old.iter().any(|(_, n)| n >= 2), "4-node placement uses high ids");
        // nodes 2 and 3 died: rebuild on the survivors, seeded with the
        // last known placement (the failover path)
        let mut after = ShardManager::new(2, policy);
        after.seed_placement(old.clone());
        let rebalanced = after.tick(&w, &[]); // used to panic in sticky_node
        assert_eq!(rebalanced.nodes, 2);
        assert!(rebalanced.iter().all(|(_, n)| n < 2));
        assert_eq!(rebalanced.len(), 40, "every entity re-placed");
        // bubbles whose majority owner survived stay put (stickiness
        // still works for in-range owners)
        for (e, n) in rebalanced.iter() {
            if let Some(p) = old.node_of(e).filter(|&p| p < 2) {
                assert_eq!(n, p, "surviving owner keeps its bubble");
            }
        }
    }

    /// ISSUE-8 satellite: unpositioned entities (global flags, quest
    /// state) get an owner under **every** policy — their stable hash
    /// home node — instead of silently falling out of spatial
    /// placements, which undercounted cross-node transactions touching
    /// them.
    #[test]
    fn unpositioned_entities_own_a_home_node_under_every_policy() {
        // wide spacing: every grid entity is its own bubble, and the
        // 3x3 zone grid gets one entity per cell, so positioned
        // entities provably spread across all three nodes
        let (mut w, ids) = grid_world(9, 4000.0);
        let flag = w.spawn(); // no position: a global quest flag
        w.set(flag, "gold", gamedb_content::Value::Int(500)).unwrap();
        let home = flag.index() as usize % 3;
        for policy in [
            AssignPolicy::HashEntities,
            AssignPolicy::StaticZones { cols: 3, rows: 3, map_size: 12000.0 },
            AssignPolicy::DynamicBubbles { cfg: BubbleConfig::default(), max_overload: 1.3 },
        ] {
            let mgr = ShardManager::new(3, policy);
            let a = mgr.assign(&w);
            assert_eq!(a.len(), 10, "every live entity owned under {policy:?}");
            assert_eq!(a.node_of(flag), Some(home), "stable hash home under {policy:?}");
            // a transaction touching the flag and an entity owned
            // elsewhere is a distributed transaction — and now counts
            let other = ids
                .iter()
                .find(|&&e| a.node_of(e) != Some(home))
                .copied()
                .expect("some entity on another node");
            let batch = vec![Action::Trade { from: other, to: flag, amount: 1 }];
            assert_eq!(
                a.cross_node_fraction(&batch),
                1.0,
                "flag-touching transaction must count under {policy:?}"
            );
        }
    }

    #[test]
    fn empty_world_assignment() {
        let w = World::new();
        let mgr = ShardManager::new(3, AssignPolicy::HashEntities);
        let a = mgr.assign(&w);
        assert!(a.is_empty());
        assert_eq!(a.imbalance(), 1.0);
        assert_eq!(a.cross_node_fraction(&[]), 0.0);
    }

    #[test]
    fn step_flock_converges_on_event() {
        let (mut w, ids) = grid_world(9, 100.0);
        let event = Vec2::new(50.0, 50.0);
        for _ in 0..100 {
            step_flock(&mut w, &ids, event, 10.0);
        }
        for &e in &ids {
            assert!(w.pos(e).unwrap().dist(event) < 1.0);
        }
    }
}
