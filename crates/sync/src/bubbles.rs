//! Causality bubbles: motion-predicted dynamic partitioning.
//!
//! The paper (via EVE Online): "a continuous differential equation that
//! takes into account the acceleration of every space ship … allows them
//! to determine, for any given time interval, which ships can move within
//! range of each other; this way they can dynamically partition the map
//! into feasible units." This module implements that technique for our
//! worlds: integrate each entity's velocity and maximum acceleration over
//! the tick horizon to get a *reachability disk*; entities whose disks
//! (inflated by the interaction range) overlap land in the same bubble
//! (union-find over index-found neighbor pairs); each bubble's actions
//! then execute with no locking or validation at all, because no action
//! can cross a bubble boundary within the horizon.

use std::collections::HashMap;
use std::time::Instant;

use gamedb_core::{Column, EffectBuffer, EntityId, World};
use gamedb_spatial::Vec2;

use crate::action::Action;
use crate::executor::{ExecStats, Executor};
use crate::view::run_serial;

/// Union-find over dense indices.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
}

impl UnionFind {
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            rank: vec![0; n],
        }
    }

    pub fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    pub fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb,
            std::cmp::Ordering::Greater => self.parent[rb] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
            }
        }
    }
}

/// Parameters of the motion-prediction model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BubbleConfig {
    /// Tick horizon Δt in seconds.
    pub dt: f32,
    /// Maximum acceleration any entity can apply (the differential
    /// equation's bound).
    pub max_accel: f32,
    /// Range at which two entities can interact (attack reach, trade
    /// distance).
    pub interaction_range: f32,
}

impl Default for BubbleConfig {
    fn default() -> Self {
        BubbleConfig {
            dt: 1.0,
            max_accel: 2.0,
            interaction_range: 5.0,
        }
    }
}

impl BubbleConfig {
    /// Reachability radius of an entity moving at `speed`:
    /// `|v|·Δt + ½·a·Δt²`.
    pub fn reach(&self, speed: f32) -> f32 {
        speed * self.dt + 0.5 * self.max_accel * self.dt * self.dt
    }
}

/// The result of bubble partitioning.
#[derive(Debug, Clone, Default)]
pub struct Partition {
    /// bubble id per entity
    pub bubble_of: HashMap<EntityId, usize>,
    /// entities per bubble
    pub bubbles: Vec<Vec<EntityId>>,
}

impl Partition {
    /// Number of bubbles.
    pub fn len(&self) -> usize {
        self.bubbles.len()
    }

    /// True when there are no bubbles.
    pub fn is_empty(&self) -> bool {
        self.bubbles.is_empty()
    }

    /// Size of the largest bubble.
    pub fn max_bubble(&self) -> usize {
        self.bubbles.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Mean bubble size.
    pub fn mean_bubble(&self) -> f32 {
        if self.bubbles.is_empty() {
            0.0
        } else {
            let total: usize = self.bubbles.iter().map(Vec::len).sum();
            total as f32 / self.bubbles.len() as f32
        }
    }
}

/// The optional `vel` (vec2) column, resolved once per partitioning
/// pass; `None` when the world defines no velocities.
fn vel_column(world: &World) -> Option<&Column> {
    world.component_id("vel").and_then(|id| world.column_by_id(id))
}

/// Reachability radius of live entity `e`: its `vel` magnitude (0 when
/// it has none) pushed through [`BubbleConfig::reach`].
fn reach_of(cfg: &BubbleConfig, vel: Option<&Column>, e: EntityId) -> f32 {
    let speed = vel
        .and_then(|col| col.get_v2(e.index() as usize))
        .map_or(0.0, |[vx, vy]| Vec2::new(vx, vy).len());
    cfg.reach(speed)
}

/// Compute the bubble partition of all positioned entities.
///
/// Velocity is read from the optional `vel` (vec2) component; entities
/// without one predict from speed 0 (reach = ½·a·Δt²). Neighbor pairs are
/// found through the world's spatial index with the maximal pair radius,
/// then refined with the per-pair test, so partitioning is O(n·k), not
/// O(n²) — bubbles must be cheaper than the contention they remove.
pub fn partition(world: &World, cfg: &BubbleConfig) -> Partition {
    let ids: Vec<EntityId> = world
        .entities()
        .filter(|&e| world.pos(e).is_some())
        .collect();
    let index_of: HashMap<EntityId, usize> =
        ids.iter().enumerate().map(|(i, &e)| (e, i)).collect();

    let vel = vel_column(world);
    let reaches: Vec<f32> = ids.iter().map(|&e| reach_of(cfg, vel, e)).collect();
    let max_reach = reaches.iter().copied().fold(0.0f32, f32::max);

    let mut uf = UnionFind::new(ids.len());
    let mut near = Vec::new();
    for (i, &e) in ids.iter().enumerate() {
        let p = world.pos(e).expect("filtered to positioned entities");
        // any entity whose disk could overlap ours is within this radius
        let search = reaches[i] + max_reach + cfg.interaction_range;
        near.clear();
        world.within(p, search, &mut near);
        for &other in &near {
            if other == e {
                continue;
            }
            let Some(&j) = index_of.get(&other) else { continue };
            if j <= i {
                continue; // each pair once
            }
            let q = world.pos(other).expect("indexed entities have positions");
            let limit = reaches[i] + reaches[j] + cfg.interaction_range;
            if p.dist2(q) <= limit * limit {
                uf.union(i, j);
            }
        }
    }

    let mut bubble_index: HashMap<usize, usize> = HashMap::new();
    let mut bubbles: Vec<Vec<EntityId>> = Vec::new();
    let mut bubble_of = HashMap::new();
    for (i, &e) in ids.iter().enumerate() {
        let root = uf.find(i);
        let b = *bubble_index.entry(root).or_insert_with(|| {
            bubbles.push(Vec::new());
            bubbles.len() - 1
        });
        bubbles[b].push(e);
        bubble_of.insert(e, b);
    }
    Partition { bubble_of, bubbles }
}

/// What a [`BubbleTracker`] saw of one positioned entity at its last
/// update — everything an edge test reads.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Seen {
    id: EntityId,
    pos: Vec2,
    reach: f32,
}

/// The bubble partition as a **maintained** structure: the same
/// partition [`partition`] computes from scratch, kept across ticks and
/// updated in time proportional to what moved.
///
/// An edge joins two positioned entities whose reach disks (inflated by
/// the interaction range) overlap — a function of the two endpoints'
/// `(pos, reach)` alone. So the tracker keeps last tick's `(pos, reach)`
/// per entity slot and the edge set, finds the slots whose reading
/// changed (moved, sped up, spawned, despawned, slot reused, position
/// removed) in one linear pass, drops exactly their edges, and probes
/// the spatial index only for them. Bubbles are the connected
/// components of the edge set; every slot without an edge is a
/// singleton and is never materialised.
#[derive(Debug, Clone)]
pub struct BubbleTracker {
    cfg: BubbleConfig,
    /// Per entity slot: the positioned entity read at the last update.
    seen: Vec<Option<Seen>>,
    /// Per entity slot: the slots it shares an edge with (symmetric).
    adj: Vec<Vec<u32>>,
    edges: usize,
    positioned: usize,
    /// Live entities without a position at the last update, slot order.
    unpositioned: Vec<EntityId>,
    /// Multi-member bubbles in first-member order, CSR: bubble `b` is
    /// `members[starts[b]..starts[b + 1]]`, members in slot order.
    starts: Vec<usize>,
    members: Vec<EntityId>,
}

impl BubbleTracker {
    /// An empty tracker; the first [`BubbleTracker::update`] probes
    /// every positioned entity.
    pub fn new(cfg: BubbleConfig) -> Self {
        BubbleTracker {
            cfg,
            seen: Vec::new(),
            adj: Vec::new(),
            edges: 0,
            positioned: 0,
            unpositioned: Vec::new(),
            starts: vec![0],
            members: Vec::new(),
        }
    }

    /// The motion model the edges were computed under.
    pub fn cfg(&self) -> &BubbleConfig {
        &self.cfg
    }

    /// Bring the partition up to date with `world`; returns how many
    /// entities were re-probed. Any world may follow any other: the
    /// diff is against what was last read, not against a change log.
    pub fn update(&mut self, world: &World) -> usize {
        let cfg = self.cfg;
        let vel = vel_column(world);
        // slots whose previous reading (and so every edge they had) is
        // void, and slots with a new reading to probe; both in slot order
        let mut stale: Vec<usize> = Vec::new();
        let mut movers: Vec<usize> = Vec::new();
        let mut max_reach = 0.0f32;
        self.positioned = 0;
        self.unpositioned.clear();
        let mut next = 0;
        for e in world.entities() {
            let slot = e.index() as usize;
            if slot >= self.seen.len() {
                self.seen.resize(slot + 1, None);
                self.adj.resize_with(slot + 1, Vec::new);
            }
            for dead in next..slot {
                if self.seen[dead].take().is_some() {
                    stale.push(dead);
                }
            }
            next = slot + 1;
            let now = world.pos(e).map(|pos| Seen { id: e, pos, reach: reach_of(&cfg, vel, e) });
            match now {
                Some(s) => {
                    self.positioned += 1;
                    max_reach = max_reach.max(s.reach);
                }
                None => self.unpositioned.push(e),
            }
            if now != self.seen[slot] {
                if self.seen[slot].is_some() {
                    stale.push(slot);
                }
                if now.is_some() {
                    movers.push(slot);
                }
                self.seen[slot] = now;
            }
        }
        for dead in next..self.seen.len() {
            if self.seen[dead].take().is_some() {
                stale.push(dead);
            }
        }
        if stale.is_empty() && movers.is_empty() {
            return 0;
        }

        for &s in &stale {
            let mut gone = std::mem::take(&mut self.adj[s]);
            for t in gone.drain(..) {
                let back = &mut self.adj[t as usize];
                let at = back
                    .iter()
                    .position(|&x| x as usize == s)
                    .expect("edges are stored at both endpoints");
                back.swap_remove(at);
                self.edges -= 1;
            }
            self.adj[s] = gone; // keep the capacity for the re-probe
        }

        let mut near = Vec::new();
        for (k, &s) in movers.iter().enumerate() {
            let me = self.seen[s].expect("movers are positioned");
            // any entity whose disk could overlap ours is within this radius
            let search = me.reach + max_reach + cfg.interaction_range;
            near.clear();
            world.within(me.pos, search, &mut near);
            for &other in &near {
                let t = other.index() as usize;
                let Some(them) = self.seen[t].filter(|them| them.id == other && t != s) else {
                    continue;
                };
                // an earlier mover already found this pair from its side
                if t < s && movers[..k].binary_search(&t).is_ok() {
                    continue;
                }
                let limit = me.reach + them.reach + cfg.interaction_range;
                if me.pos.dist2(them.pos) <= limit * limit {
                    self.adj[s].push(t as u32);
                    self.adj[t].push(s as u32);
                    self.edges += 1;
                }
            }
        }
        self.rebuild_bubbles();
        movers.len()
    }

    /// Connected components of the edge set, over edge-incident slots
    /// only, numbered by first member like [`partition`]'s bubbles.
    fn rebuild_bubbles(&mut self) {
        let incident: Vec<usize> = (0..self.adj.len())
            .filter(|&s| !self.adj[s].is_empty())
            .collect();
        let local = |slot: usize| {
            incident.binary_search(&slot).expect("edge endpoints are incident")
        };
        let mut uf = UnionFind::new(incident.len());
        for (i, &s) in incident.iter().enumerate() {
            for &t in &self.adj[s] {
                if (t as usize) > s {
                    uf.union(i, local(t as usize));
                }
            }
        }
        // bubble index per incident slot, in order of first appearance
        let mut bubble_of_root = vec![usize::MAX; incident.len()];
        let mut sizes: Vec<usize> = Vec::new();
        let bubble_of: Vec<usize> = (0..incident.len())
            .map(|i| {
                let root = uf.find(i);
                if bubble_of_root[root] == usize::MAX {
                    bubble_of_root[root] = sizes.len();
                    sizes.push(0);
                }
                sizes[bubble_of_root[root]] += 1;
                bubble_of_root[root]
            })
            .collect();
        self.starts.clear();
        self.starts.push(0);
        for size in &sizes {
            self.starts.push(self.starts[self.starts.len() - 1] + size);
        }
        let mut fill: Vec<usize> = self.starts[..sizes.len()].to_vec();
        self.members.clear();
        self.members.resize(incident.len(), EntityId::from_bits(0));
        for (i, &s) in incident.iter().enumerate() {
            let b = bubble_of[i];
            self.members[fill[b]] = self.seen[s].expect("edge endpoints are positioned").id;
            fill[b] += 1;
        }
    }

    /// Bubbles of two or more entities, in first-member order.
    pub fn joined(&self) -> impl Iterator<Item = &[EntityId]> {
        self.starts.windows(2).map(|w| &self.members[w[0]..w[1]])
    }

    /// One-entity bubbles — every positioned entity without an edge —
    /// in slot order.
    pub fn singletons(&self) -> impl Iterator<Item = &[EntityId]> {
        self.seen
            .iter()
            .zip(&self.adj)
            .filter(|(_, adj)| adj.is_empty())
            .filter_map(|(seen, _)| seen.as_ref().map(|s| std::slice::from_ref(&s.id)))
    }

    /// Live entities that had no position at the last update.
    pub fn unpositioned(&self) -> &[EntityId] {
        &self.unpositioned
    }

    /// Positioned entities at the last update.
    pub fn positioned(&self) -> usize {
        self.positioned
    }

    /// Number of bubbles (joined + singletons).
    pub fn len(&self) -> usize {
        (self.starts.len() - 1) + (self.positioned - self.members.len())
    }

    /// True when no positioned entity has been read.
    pub fn is_empty(&self) -> bool {
        self.positioned == 0
    }

    /// Number of edges (overlapping reach-disk pairs).
    pub fn edges(&self) -> usize {
        self.edges
    }
}

/// Executor that partitions the world into causality bubbles and runs
/// each bubble's actions without any concurrency control.
///
/// Actions whose footprint spans bubbles (possible only for
/// beyond-horizon interactions, e.g. long-range trades) fall into a
/// residual phase executed after the bubbles.
#[derive(Debug, Clone, Copy, Default)]
pub struct BubbleExecutor {
    pub cfg: BubbleConfig,
}

impl BubbleExecutor {
    pub fn new(cfg: BubbleConfig) -> Self {
        BubbleExecutor { cfg }
    }

    /// Partition + assignment, exposed for the E6 reports.
    pub fn plan(&self, world: &World, actions: &[Action]) -> (Partition, Vec<Vec<usize>>, Vec<usize>) {
        let part = partition(world, &self.cfg);
        let mut per_bubble: Vec<Vec<usize>> = vec![Vec::new(); part.len()];
        let mut residual = Vec::new();
        'outer: for (i, a) in actions.iter().enumerate() {
            let mut bubble: Option<usize> = None;
            for e in a.footprint() {
                match part.bubble_of.get(&e) {
                    None => {
                        residual.push(i);
                        continue 'outer;
                    }
                    Some(&b) => match bubble {
                        None => bubble = Some(b),
                        Some(prev) if prev != b => {
                            residual.push(i);
                            continue 'outer;
                        }
                        Some(_) => {}
                    },
                }
            }
            match bubble {
                Some(b) => per_bubble[b].push(i),
                None => residual.push(i),
            }
        }
        (part, per_bubble, residual)
    }
}

impl Executor for BubbleExecutor {
    fn name(&self) -> &'static str {
        "bubbles"
    }

    fn execute(&self, world: &mut World, actions: &[Action]) -> ExecStats {
        let start = Instant::now();
        let (_part, per_bubble, residual) = self.plan(world, actions);

        // Bubbles are disjoint by construction, so their buffers merge
        // conflict-free. Fan out over at most `cores` worker threads —
        // each worker processes a contiguous run of bubbles into its own
        // buffer (merge order stays bubble order: deterministic). Within
        // a bubble, actions run serially through an overlay view so each
        // sees its predecessors' writes — without this, two trades out of
        // one account both clamp against the tick-start balance and
        // overdraw it (the write-skew anomaly experiment E13 audits for).
        let run_bubble = |bubble_actions: &[usize], buf: &mut EffectBuffer| {
            run_serial(world, actions, bubble_actions, buf);
        };
        let busy: Vec<&Vec<usize>> =
            per_bubble.iter().filter(|b| !b.is_empty()).collect();
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let mut merged = EffectBuffer::new();
        if cores <= 1 || busy.len() <= 1 {
            for bubble_actions in &busy {
                run_bubble(bubble_actions, &mut merged);
            }
        } else {
            let chunk = busy.len().div_ceil(cores);
            let groups: Vec<&[&Vec<usize>]> = busy.chunks(chunk).collect();
            let mut buffers: Vec<EffectBuffer> =
                groups.iter().map(|_| EffectBuffer::new()).collect();
            let run_bubble = &run_bubble;
            crossbeam::thread::scope(|scope| {
                for (group, buf) in groups.iter().zip(buffers.iter_mut()) {
                    scope.spawn(move |_| {
                        for bubble_actions in *group {
                            run_bubble(bubble_actions, buf);
                        }
                    });
                }
            })
            .expect("bubble worker panicked");
            for buf in buffers {
                merged.merge(buf);
            }
        }
        merged.apply(world).expect("action effects are well-typed");

        // residual cross-bubble actions: serial
        for &i in &residual {
            let mut buf = EffectBuffer::new();
            actions[i].execute(world, &mut buf);
            buf.apply(world).expect("action effects are well-typed");
        }

        let max_bubble_actions = per_bubble.iter().map(Vec::len).max().unwrap_or(0);
        ExecStats {
            submitted: actions.len(),
            executed: actions.len(),
            rounds: busy.len() + residual.len(),
            aborts: 0,
            micros: start.elapsed().as_micros(),
            max_group: max_bubble_actions,
            critical_path: max_bubble_actions + residual.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::arena_world;
    use crate::executor::SerialExecutor;
    use gamedb_content::Value;

    fn clustered_world(
        clusters: usize,
        per_cluster: usize,
        spread: f32,
        gap: f32,
    ) -> (World, Vec<EntityId>) {
        arena_world(clusters * per_cluster, |i| {
            let c = i / per_cluster;
            let k = i % per_cluster;
            Vec2::new(
                c as f32 * gap + (k % 4) as f32 * spread,
                (k / 4) as f32 * spread,
            )
        })
    }

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        uf.union(0, 1);
        uf.union(3, 4);
        assert_eq!(uf.find(0), uf.find(1));
        assert_ne!(uf.find(0), uf.find(3));
        uf.union(1, 3);
        assert_eq!(uf.find(0), uf.find(4));
        assert_ne!(uf.find(2), uf.find(0));
    }

    #[test]
    fn far_clusters_get_separate_bubbles() {
        let (w, _) = clustered_world(4, 8, 2.0, 1000.0);
        let part = partition(&w, &BubbleConfig::default());
        assert_eq!(part.len(), 4);
        assert_eq!(part.max_bubble(), 8);
    }

    #[test]
    fn dense_world_collapses_to_one_bubble() {
        let (w, _) = clustered_world(1, 32, 2.0, 0.0);
        let part = partition(&w, &BubbleConfig::default());
        assert_eq!(part.len(), 1);
    }

    #[test]
    fn reach_follows_velocity() {
        let cfg = BubbleConfig {
            dt: 2.0,
            max_accel: 1.0,
            interaction_range: 0.0,
        };
        assert_eq!(cfg.reach(0.0), 2.0); // 0.5*1*4
        assert_eq!(cfg.reach(3.0), 8.0); // 3*2 + 2

        // two stationary entities 30 apart: separate bubbles; give one a
        // big velocity toward the other: same bubble
        let (mut w, ids) = arena_world(2, |i| Vec2::new(i as f32 * 30.0, 0.0));
        w.define_component("vel", gamedb_content::ValueType::Vec2)
            .unwrap();
        let p1 = partition(&w, &cfg);
        assert_eq!(p1.len(), 2);
        w.set(ids[0], "vel", Value::Vec2(14.0, 0.0)).unwrap();
        let p2 = partition(&w, &cfg);
        assert_eq!(p2.len(), 1, "fast mover can reach the other within dt");
    }

    #[test]
    fn bubble_executor_matches_serial_on_attacks() {
        let (mut w1, ids) = clustered_world(4, 8, 2.0, 500.0);
        let (mut w2, _) = clustered_world(4, 8, 2.0, 500.0);
        // attacks inside each cluster
        let mut batch = Vec::new();
        for c in 0..4 {
            for k in 0..7 {
                batch.push(Action::Attack {
                    attacker: ids[c * 8 + k],
                    target: ids[c * 8 + k + 1],
                });
            }
        }
        SerialExecutor.execute(&mut w1, &batch);
        let stats = BubbleExecutor::default().execute(&mut w2, &batch);
        assert_eq!(w1.rows(), w2.rows());
        assert_eq!(stats.executed, batch.len());
        // four bubbles working
        assert_eq!(stats.rounds, 4);
    }

    #[test]
    fn cross_bubble_actions_go_residual() {
        let (w, ids) = clustered_world(2, 4, 1.0, 500.0);
        let exec = BubbleExecutor::default();
        let batch = vec![
            Action::Attack {
                attacker: ids[0],
                target: ids[1],
            },
            // long-range trade across clusters
            Action::Trade {
                from: ids[0],
                to: ids[7],
                amount: 10,
            },
        ];
        let (part, per_bubble, residual) = exec.plan(&w, &batch);
        assert_eq!(part.len(), 2);
        assert_eq!(residual, vec![1]);
        assert_eq!(per_bubble.iter().map(Vec::len).sum::<usize>(), 1);

        // and execution still applies the residual action
        let (mut w2, ids2) = clustered_world(2, 4, 1.0, 500.0);
        let batch2 = vec![Action::Trade {
            from: ids2[0],
            to: ids2[7],
            amount: 10,
        }];
        exec.execute(&mut w2, &batch2);
        assert_eq!(w2.get_i64(ids2[7], "gold"), Some(110));
    }

    #[test]
    fn density_sweep_bubble_counts_decrease() {
        // as gap shrinks, bubbles merge: bubble count must be monotonically
        // non-increasing across these gaps
        let mut counts = Vec::new();
        for gap in [1000.0, 100.0, 20.0, 5.0] {
            let (w, _) = clustered_world(8, 4, 1.0, gap);
            counts.push(partition(&w, &BubbleConfig::default()).len());
        }
        for pair in counts.windows(2) {
            assert!(pair[0] >= pair[1], "bubbles must merge as density grows: {counts:?}");
        }
        assert_eq!(counts[0], 8);
        assert_eq!(*counts.last().unwrap(), 1);
    }

    #[test]
    fn partition_stats() {
        let (w, _) = clustered_world(3, 5, 1.0, 400.0);
        let part = partition(&w, &BubbleConfig::default());
        assert_eq!(part.len(), 3);
        assert_eq!(part.max_bubble(), 5);
        assert!((part.mean_bubble() - 5.0).abs() < 1e-6);
    }
}
