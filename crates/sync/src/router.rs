//! Cross-shard change shipping: segment-streamed entity handoff.
//!
//! [`crate::shard`] decides *where* entities live and
//! [`crate::cluster`] prices the transactions that span nodes — but
//! until now a placement change moved entities between nodes *by
//! value*, for free, while client replication already ships compact
//! id-keyed [`DeltaSegment`]s. The paper's games "dynamically partition
//! their databases to reduce server load"; the partitioning only pays
//! off if the handoff itself rides the same change-stream machinery.
//!
//! The [`ShardRouter`] closes that gap. It holds one **link** per node,
//! all fed from one change-stream tap on the primary world (exactly like
//! a client's `sync_stream` tap): every tick ships every link up to the
//! same sequence, so the links' cursors would all be equal, and one tap
//! serves them. Each tick it diffs consecutive [`ShardAssignment`]s into
//! per-node handoff sets:
//!
//! * **gained** entities (owned now, not before) ship their full row
//!   image as segment puts;
//! * **retained** entities ship only the columns the change records
//!   named — the delta;
//! * **lost** entities (handed off or despawned) ship as segment
//!   drops, so the losing node and its standby forget them.
//!
//! Component names ship **once per link** ([`DeltaSegment::defines`]):
//! steady-state handoff rows cost a 1-byte varint where by-value
//! row framing pays `4 + len(name)` bytes. Every tick's segments are
//! stamped with the change-stream sequence they snapshot (the stream
//! head, `World::change_seq`), and the tap is acked to exactly that
//! stamp: the world is not written between the two.
//!
//! Each node may keep a **warm standby** fed from the same link: the
//! standby buffers the node's segments and applies them lazily under a
//! lag budget, so failover replays only the buffered tail instead of
//! re-shipping the node's whole state.

use std::collections::{HashSet, VecDeque};

use gamedb_core::{ChangeOp, ComponentId, EntityId, TapId, World};
use gamedb_metrics::MetricsRegistry;
use gamedb_spatial::BuildIdHasher;

use crate::metrics::RouterMetrics;
use crate::replication::{
    columns_by_name, row_wire_bytes, stored_row_wire_bytes, DeltaSegment, Replica, ReplicaRows,
};
use crate::shard::{NodeId, ShardAssignment};

/// A node's warm standby: a replica fed the node's own segment stream,
/// applied lazily. `pending` is the unapplied tail — the only thing a
/// failover has to replay.
#[derive(Debug, Clone)]
struct WarmStandby {
    replica: Replica,
    pending: VecDeque<DeltaSegment>,
    /// Most segments the standby may leave unapplied. A budget of 0 is
    /// a hot mirror; larger budgets trade failover replay time for
    /// steady-state apply work.
    lag_budget: usize,
}

/// What one router tick shipped, per node — the deterministic record
/// the handoff tests compare across seeded runs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HandoffReport {
    /// Entities each node gained this tick (sorted).
    pub gained: Vec<Vec<EntityId>>,
    /// Entities each node lost this tick (handed off or despawned;
    /// sorted).
    pub dropped: Vec<Vec<EntityId>>,
    /// Wire bytes of each node's segment(s) this tick.
    pub segment_bytes: Vec<usize>,
    /// Change-stream sequence this tick's segments snapshot — the
    /// anchor a crash-recovery rebuild resumes from.
    pub snapshot_seq: u64,
}

impl HandoffReport {
    /// Total wire bytes shipped this tick across all links (what
    /// [`crate::cluster::ClusterExecutor::bill_handoff`] prices).
    pub fn total_bytes(&self) -> usize {
        self.segment_bytes.iter().sum()
    }

    /// Total entities that changed owner this tick.
    pub fn total_moved(&self) -> usize {
        self.gained.iter().map(Vec::len).sum()
    }
}

/// Streams shard handoffs (and subsequent changes to owned entities) to
/// per-node replicas as [`DeltaSegment`]s — see the module docs.
#[derive(Debug)]
pub struct ShardRouter {
    nodes: usize,
    /// The change-stream tap every node link reads.
    tap: TapId,
    /// Per-link name tables: component ids whose names this link has
    /// been sent (the server-side mirror of the node's accumulated
    /// table, exactly as `Replicator::named` is per client).
    named: Vec<HashSet<ComponentId, BuildIdHasher>>,
    /// Node-local state: the rows of the entities each node owns.
    states: Vec<Replica>,
    standbys: Vec<Option<WarmStandby>>,
    prev: Option<ShardAssignment>,
    /// Wire bytes shipped across all links (delta framing).
    pub handoff_bytes: usize,
    /// What the same traffic would have cost shipped as full row
    /// images under the legacy row framing — the by-value baseline the
    /// acceptance bound compares against.
    pub baseline_bytes: usize,
    /// Non-empty segments shipped.
    pub segments_sent: usize,
    /// Rows (puts) shipped across all segments.
    pub rows_sent: usize,
    /// Entities that changed owner (gained by some node).
    pub entities_moved: usize,
    metrics: Option<RouterMetrics>,
}

impl ShardRouter {
    /// Attach a router to the primary world: its tap starts recording
    /// immediately, so the first [`ShardRouter::tick`] ships each node
    /// its initial full state and later ticks ship deltas.
    pub fn new(world: &mut World, nodes: usize) -> Self {
        assert!(nodes > 0, "need at least one node link");
        ShardRouter {
            nodes,
            tap: world.attach_tap(),
            named: vec![HashSet::default(); nodes],
            states: vec![Replica::default(); nodes],
            standbys: vec![None; nodes],
            prev: None,
            handoff_bytes: 0,
            baseline_bytes: 0,
            segments_sent: 0,
            rows_sent: 0,
            entities_moved: 0,
            metrics: None,
        }
    }

    /// Keep a warm standby for `node`, fed from the node's own segment
    /// stream and applied lazily under `lag_budget` (see
    /// [`WarmStandby`]). Enabling resets any previous standby for the
    /// node to the node's current state.
    pub fn enable_standby(&mut self, node: NodeId, lag_budget: usize) {
        self.standbys[node] = Some(WarmStandby {
            replica: self.states[node].clone(),
            pending: VecDeque::new(),
            lag_budget,
        });
    }

    /// Attach a metrics registry: handoff segments/bytes/rows, the
    /// row-framed baseline, resyncs, and standby lag are reported into
    /// `registry` from here on. Purely observational.
    pub fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        self.metrics = Some(RouterMetrics::new(registry));
    }

    /// A node's local state (the rows of the entities it owns).
    pub fn node_state(&self, node: NodeId) -> &Replica {
        &self.states[node]
    }

    /// The placement the router last shipped against — what a manager
    /// rebuilt after failover seeds stickiness from
    /// (`ShardManager::seed_placement`).
    pub fn last_assignment(&self) -> Option<&ShardAssignment> {
        self.prev.as_ref()
    }

    /// Unapplied tail length of a node's standby, in segments. `None`
    /// when the node has no standby.
    pub fn standby_lag(&self, node: NodeId) -> Option<usize> {
        self.standbys[node].as_ref().map(|s| s.pending.len())
    }

    /// Promote a node's warm standby: replay its buffered tail (only
    /// the tail — that is the whole point of keeping it warm) and swap
    /// the caught-up replica in as the node's state. Returns the number
    /// of segments replayed, or `None` if the node had no standby.
    pub fn fail_over(&mut self, node: NodeId) -> Option<usize> {
        let mut sb = self.standbys[node].take()?;
        let replayed = sb.pending.len();
        while let Some(seg) = sb.pending.pop_front() {
            sb.replica.apply_segment(&seg);
        }
        self.states[node] = sb.replica;
        if let Some(m) = &self.metrics {
            m.standby_replays.add(replayed as u64);
        }
        Some(replayed)
    }

    /// Retire the router and release its tap: an abandoned tap would pin
    /// the world's change-stream window. Taking the router means its tap
    /// is released once, never after the slot is reused.
    pub fn detach(self, world: &mut World) {
        world.detach_tap(self.tap);
    }

    /// Ship one tick: diff `assignment` against the previous placement
    /// into per-node handoff sets, drain the tap for the delta on
    /// retained entities, and apply the resulting segment to each
    /// node's state (and its standby's queue). Call after the world has
    /// been mutated for the tick, with the placement computed for it.
    pub fn tick(&mut self, world: &mut World, assignment: &ShardAssignment) -> HandoffReport {
        assert_eq!(
            assignment.nodes, self.nodes,
            "placement topology must match the router's links"
        );
        let nodes = self.nodes;
        let primed = self.prev.is_some();
        let prev = self.prev.take().unwrap_or_default();
        let mut report = HandoffReport {
            gained: vec![Vec::new(); nodes],
            dropped: vec![Vec::new(); nodes],
            segment_bytes: vec![0; nodes],
            snapshot_seq: world.change_seq(),
        };

        // A router that stalled past the world's tap-retention window
        // had its tap evicted: the stream is no longer a complete delta
        // source, so clear every node and re-ship its state whole
        // (below, as if it had owned nothing).
        let resynced = world.tap_evicted(self.tap);
        if resynced {
            world.detach_tap(self.tap);
            self.tap = world.attach_tap();
            for n in 0..nodes {
                let mut stale: Vec<EntityId> = self.states[n]
                    .rows
                    .keys()
                    .map(|(e, _)| *e)
                    .chain(prev.iter().filter(|&(_, owner)| owner == n).map(|(e, _)| e))
                    .collect();
                stale.sort_unstable();
                stale.dedup();
                if !stale.is_empty() {
                    let clear = DeltaSegment { drops: stale, ..Default::default() };
                    report.segment_bytes[n] += clear.wire_bytes();
                    self.note_baseline(clear.drops.len() * 8);
                    self.ship(n, clear);
                }
                if let Some(m) = &self.metrics {
                    m.resyncs.inc();
                }
            }
        }

        // One pass over both owner tables: slot order is id order, so
        // the per-node lists come out sorted.
        let slots = assignment.slots().max(prev.slots());
        for slot in 0..slots {
            // a resynced node was cleared wholesale above: it owns nothing
            let was = prev.at(slot).filter(|_| !resynced);
            let now = assignment.at(slot);
            if was == now {
                continue; // retained (or vacant both ticks)
            }
            // handed off, despawned, spawned, or the slot now holds a
            // new generation
            if let Some((e, n)) = was {
                report.dropped[n].push(e);
            }
            if let Some((e, n)) = now {
                report.gained[n].push(e);
            }
        }

        // Route each pending change record to the node that retained
        // its entity: per retained entity, exactly the columns whose
        // values moved since the last shipment. A re-attached tap has
        // nothing pending, and its nodes were cleared above.
        let mut touched: Vec<Vec<(EntityId, ComponentId)>> = vec![Vec::new(); nodes];
        for change in world.tap_pending(self.tap) {
            let (ChangeOp::Set { id, component, .. } | ChangeOp::Removed { id, component, .. }) =
                &change.op
            else {
                continue;
            };
            // gained ships whole; lost drops
            if let Some(n) = assignment.node_of(*id).filter(|&n| prev.node_of(*id) == Some(n)) {
                touched[n].push((*id, *component));
            }
        }
        // the stamp is the stream head, and nothing is written until the
        // segments are built: everything pending is shipped
        world.ack_tap(self.tap);

        let world: &World = world;
        let columns = columns_by_name(world);
        for (n, cells) in touched.iter_mut().enumerate() {
            let mut seg = DeltaSegment::default();
            let mut baseline = 0usize;
            // gained entities: the receiving node holds nothing yet —
            // ship the full row image (by value, this is the whole
            // entity serialized under row framing)
            for &e in report.gained[n].iter().filter(|&&e| world.is_live(e)) {
                for &(cid, name, col) in &columns {
                    let Some(value) = col.get(e.index() as usize) else {
                        continue;
                    };
                    if self.named[n].insert(cid) {
                        seg.defines.push((cid, name.to_string()));
                    }
                    baseline += row_wire_bytes(name, &value);
                    seg.puts.push((e, cid, value));
                }
            }
            // retained entities: only the columns the records named —
            // where by-value movement would re-serialize the whole row
            cells.sort_unstable();
            cells.dedup();
            for row in cells.chunk_by(|a, b| a.0 == b.0) {
                let e = row[0].0;
                let slot = e.index() as usize;
                let live = world.is_live(e);
                let mut touched_row = false;
                for &(_, cid) in row {
                    let (Some(name), Some(col)) =
                        (world.component_name(cid), world.column_by_id(cid))
                    else {
                        continue;
                    };
                    match col.get(slot).filter(|_| live) {
                        Some(value) => {
                            if self.named[n].insert(cid) {
                                seg.defines.push((cid, name.to_string()));
                            }
                            seg.puts.push((e, cid, value));
                            touched_row = true;
                        }
                        None => {
                            if self.states[n].rows.contains_key(&(e, cid)) {
                                seg.unsets.push((e, cid));
                                touched_row = true;
                            }
                        }
                    }
                }
                if touched_row && live {
                    baseline += columns
                        .iter()
                        .filter_map(|(_, name, col)| stored_row_wire_bytes(name, col, slot))
                        .sum::<usize>();
                }
            }
            // lost entities: handed off to another node, or despawned
            // (a dead entity has no owner in the new placement)
            seg.drops.extend_from_slice(&report.dropped[n]);
            baseline += 8 * seg.drops.len();
            if !seg.is_empty() {
                report.segment_bytes[n] += seg.wire_bytes();
                self.note_baseline(baseline);
                self.ship(n, seg);
            }
        }
        // the priming tick seeds state; nothing *moved*
        let moved = if primed { report.total_moved() } else { 0 };
        self.entities_moved += moved;
        if let Some(m) = &self.metrics {
            m.entities.add(moved as u64);
            m.diff_scanned.add(slots as u64);
            let lag = (0..nodes)
                .filter_map(|n| self.standby_lag(n))
                .max()
                .unwrap_or(0);
            m.standby_lag.set(lag as i64);
        }
        self.prev = Some(assignment.clone());
        report
    }

    /// Account what the same traffic would have cost under the legacy
    /// by-value row framing.
    fn note_baseline(&mut self, bytes: usize) {
        self.baseline_bytes += bytes;
        if let Some(m) = &self.metrics {
            m.baseline_bytes.add(bytes as u64);
        }
    }

    /// Send one segment down a node's link: account it, apply it to the
    /// node's state, and enqueue it on the node's standby (which then
    /// catches up to its lag budget).
    fn ship(&mut self, n: NodeId, seg: DeltaSegment) {
        self.segments_sent += 1;
        self.rows_sent += seg.puts.len();
        self.handoff_bytes += seg.wire_bytes();
        if let Some(m) = &self.metrics {
            m.segments.inc();
            m.bytes.add(seg.wire_bytes() as u64);
            m.rows.add(seg.puts.len() as u64);
        }
        self.states[n].apply_segment(&seg);
        if let Some(sb) = &mut self.standbys[n] {
            sb.pending.push_back(seg);
            while sb.pending.len() > sb.lag_budget {
                let seg = sb.pending.pop_front().expect("nonempty");
                sb.replica.apply_segment(&seg);
            }
        }
    }
}

/// The by-value oracle: the rows node `node` owns under `assignment`,
/// read straight off the primary world. Post-handoff node-local state
/// must equal this exactly, every tick.
pub fn node_oracle(world: &World, assignment: &ShardAssignment, node: NodeId) -> ReplicaRows {
    let columns = columns_by_name(world);
    let mut rows = ReplicaRows::default();
    for (e, n) in assignment.iter() {
        if n == node && world.is_live(e) {
            for &(cid, _, col) in &columns {
                if let Some(value) = col.get(e.index() as usize) {
                    rows.insert((e, cid), value);
                }
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::arena_world;
    use crate::bubbles::BubbleConfig;
    use crate::shard::{step_flock, AssignPolicy, ShardManager};
    use gamedb_content::Value;
    use gamedb_core::POS_ID;
    use gamedb_spatial::Vec2;

    const NODES: usize = 3;

    fn migrating_setup() -> (World, Vec<EntityId>, ShardManager) {
        // three squads far apart, plus an unpositioned global flag:
        // flocking everyone toward squad 0 forces bubble merges and
        // therefore cross-node migrations tick over tick
        let (mut w, ids) = arena_world(24, |i| {
            let squad = i / 8;
            Vec2::new(squad as f32 * 5000.0 + (i % 8) as f32 * 2.0, 0.0)
        });
        let flag = w.spawn();
        w.set(flag, "gold", Value::Int(777)).unwrap();
        let mgr = ShardManager::new(
            NODES,
            AssignPolicy::DynamicBubbles { cfg: BubbleConfig::default(), max_overload: 1.2 },
        );
        (w, ids, mgr)
    }

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

    /// The tentpole's core acceptance: node-local state built purely
    /// from shipped segments is byte-identical to the by-value oracle
    /// at every tick of a migrating workload — handoffs, despawns,
    /// spawns, component churn, and unpositioned state included.
    #[test]
    fn segment_streamed_nodes_match_by_value_oracle_every_tick() {
        let (mut w, ids, mut mgr) = migrating_setup();
        let mut router = ShardRouter::new(&mut w, NODES);
        for t in 0..12 {
            churn(&mut w, &ids, t);
            let a = mgr.tick(&w, &[]);
            router.tick(&mut w, &a);
            for n in 0..NODES {
                assert_eq!(
                    router.node_state(n).rows,
                    node_oracle(&w, &a, n),
                    "node {n} diverged from by-value oracle at tick {t}"
                );
            }
        }
        assert!(
            router.entities_moved > 0,
            "the flock must actually force migrations"
        );
        router.detach(&mut w);
        assert_eq!(w.pending_deltas(), 0, "released taps stop recording");
    }

    /// The bandwidth acceptance: delta-framed handoff segments with
    /// per-link name tables must land strictly below shipping full row
    /// images under the legacy row framing.
    #[test]
    fn handoff_bytes_undercut_full_row_shipping() {
        let (mut w, ids, mut mgr) = migrating_setup();
        let mut router = ShardRouter::new(&mut w, NODES);
        for t in 0..12 {
            churn(&mut w, &ids, t);
            let a = mgr.tick(&w, &[]);
            router.tick(&mut w, &a);
        }
        assert!(router.handoff_bytes > 0 && router.rows_sent > 0);
        assert!(
            router.handoff_bytes < router.baseline_bytes,
            "segments ({} B) must undercut full-row shipping ({} B)",
            router.handoff_bytes,
            router.baseline_bytes
        );
        router.detach(&mut w);
    }

    /// One node's slice of a [`HandoffReport`]: gained and dropped
    /// entities as `(slot, generation)`, segment bytes, and the tick's
    /// snapshot seq.
    type GoldenLink = (&'static [(u32, u32)], &'static [(u32, u32)], usize, u64);

    /// The first 12 ticks of `migrating_setup` under `churn`, recorded
    /// from the set-difference router this one replaced.
    const GOLDEN_12: [[GoldenLink; NODES]; 12] = [
        // tick 0
        [
            (&[(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (6, 0), (7, 0), (24, 0)], &[], 689, 32),
            (&[(8, 0), (9, 0), (10, 0), (11, 0), (12, 0), (13, 0), (14, 0), (15, 0)], &[], 671, 32),
            (&[(16, 0), (17, 0), (18, 0), (19, 0), (20, 0), (21, 0), (22, 0), (23, 0)], &[], 671, 32),
        ],
        // tick 1
        [
            (&[], &[], 186, 64),
            (&[], &[], 172, 64),
            (&[], &[], 186, 64),
        ],
        // tick 2
        [
            (&[], &[], 172, 96),
            (&[], &[], 186, 96),
            (&[], &[], 186, 96),
        ],
        // tick 3
        [
            (&[], &[], 186, 128),
            (&[], &[], 186, 128),
            (&[], &[], 172, 128),
        ],
        // tick 4
        [
            (&[], &[(5, 0)], 176, 161),
            (&[], &[], 172, 161),
            (&[], &[], 186, 161),
        ],
        // tick 5
        [
            (&[], &[], 140, 191),
            (&[], &[], 186, 191),
            (&[], &[], 186, 191),
        ],
        // tick 6
        [
            (&[(5, 1)], &[], 200, 225),
            (&[], &[], 186, 225),
            (&[], &[], 172, 225),
        ],
        // tick 7
        [
            (&[], &[], 168, 256),
            (&[], &[], 172, 256),
            (&[], &[], 186, 256),
        ],
        // tick 8
        [
            (&[], &[], 140, 286),
            (&[], &[], 186, 286),
            (&[], &[], 186, 286),
        ],
        // tick 9
        [
            (&[], &[], 168, 317),
            (&[], &[], 186, 317),
            (&[], &[], 172, 317),
        ],
        // tick 10
        [
            (&[], &[], 168, 348),
            (&[], &[], 172, 348),
            (&[], &[], 186, 348),
        ],
        // tick 11
        [
            (&[], &[], 140, 378),
            (&[], &[], 186, 378),
            (&[], &[], 186, 378),
        ],
    ];

    /// ISSUE-8 satellite: identical seeds produce identical per-tick
    /// handoff sets, segment byte counts, and snapshot anchors — the
    /// segment-layer extension of
    /// `dynamic_bubbles_placement_is_deterministic_per_seed`. ISSUE-12
    /// pins the stream itself: the dense single-pass diff ships what
    /// the per-node ownership-set difference shipped — the first 12
    /// reports listed in full, then a digest of 100 ticks (18
    /// migrations as the squads merge) and the running totals, all
    /// recorded before the rewrite.
    #[test]
    fn handoff_stream_is_deterministic_per_seed() {
        let run = || {
            let (mut w, ids, mut mgr) = migrating_setup();
            let mut router = ShardRouter::new(&mut w, NODES);
            let mut reports = Vec::new();
            for t in 0..100 {
                churn(&mut w, &ids, t);
                let a = mgr.tick(&w, &[]);
                reports.push(router.tick(&mut w, &a));
            }
            let totals = (
                router.handoff_bytes,
                router.baseline_bytes,
                router.segments_sent,
                router.rows_sent,
                router.entities_moved,
            );
            (reports, totals)
        };
        let (r1, totals1) = run();
        let (r2, totals2) = run();
        assert_eq!(r1, r2, "per-tick handoff sets and bytes must match");
        assert_eq!(totals1, totals2);

        let ids = |es: &[EntityId]| -> Vec<(u32, u32)> {
            es.iter().map(|e| (e.index(), e.generation())).collect()
        };
        for (t, (report, golden)) in r1.iter().zip(&GOLDEN_12).enumerate() {
            for (n, &(gained, dropped, bytes, seq)) in golden.iter().enumerate() {
                assert_eq!(ids(&report.gained[n]), gained, "tick {t} node {n} gained");
                assert_eq!(ids(&report.dropped[n]), dropped, "tick {t} node {n} dropped");
                assert_eq!(report.segment_bytes[n], bytes, "tick {t} node {n} bytes");
                assert_eq!(report.snapshot_seq, seq, "tick {t} node {n} snapshot");
            }
        }
        let mut digest = 0xcbf29ce484222325u64; // FNV-1a over the report fields
        let mut mix = |v: u64| digest = (digest ^ v).wrapping_mul(0x100000001b3);
        for report in &r1 {
            for n in 0..NODES {
                for e in report.gained[n].iter().chain(&report.dropped[n]) {
                    mix(e.to_bits());
                }
                mix(report.gained[n].len() as u64);
                mix(report.dropped[n].len() as u64);
                mix(report.segment_bytes[n] as u64);
                mix(report.snapshot_seq);
            }
        }
        assert_eq!(digest, 0xc325b1e6be84fe37, "100-tick handoff stream");
        assert_eq!(totals1, (54795, 253695, 226, 3223, 18));
    }

    /// ISSUE-12 satellite: the owner tables are indexed by entity
    /// *slot*. An entity despawned and another spawned into its slot
    /// between two placements are different entities: the stale id has
    /// no owner, its node is told to drop it, and the new generation
    /// ships as a whole row — on the same tick, even onto the same node.
    #[test]
    fn slot_reuse_drops_the_old_generation_and_ships_the_new_whole() {
        let (mut w, ids, mut mgr) = migrating_setup();
        let mut router = ShardRouter::new(&mut w, NODES);
        let a = mgr.tick(&w, &[]);
        router.tick(&mut w, &a);
        let old = ids[3];
        let home = a.node_of(old).expect("placed");
        let at = w.pos(old).unwrap();
        // a pending change record still names the old id
        w.set_f32(old, "hp", 1.0).unwrap();
        w.despawn(old);
        let new = w.spawn_at(at);
        w.set_f32(new, "hp", 77.0).unwrap();
        assert_eq!(new.index(), old.index(), "the freed slot is reused");
        assert_ne!(new, old);

        let a = mgr.tick(&w, &[]);
        assert_eq!(a.node_of(old), None, "a stale generation owns nothing");
        let to = a.node_of(new).expect("the new generation is placed");
        let report = router.tick(&mut w, &a);
        assert_eq!(report.dropped[home], vec![old]);
        assert_eq!(report.gained[to], vec![new]);
        for n in 0..NODES {
            assert_eq!(router.node_state(n).rows, node_oracle(&w, &a, n), "node {n}");
        }
        let rows = &router.node_state(to).rows;
        let hp = w.component_id("hp").unwrap();
        assert_eq!(rows.get(&(new, hp)), Some(&Value::Float(77.0)));
        assert_eq!(rows.get(&(new, POS_ID)), Some(&Value::Vec2(at.x, at.y)));
        router.detach(&mut w);
    }

    /// Warm standby: fed from the node's own segment stream, lag stays
    /// within budget, and failover replays exactly the buffered tail —
    /// the promoted replica equals the by-value oracle.
    #[test]
    fn standby_failover_replays_only_the_tail() {
        let (mut w, ids, mut mgr) = migrating_setup();
        let mut router = ShardRouter::new(&mut w, NODES);
        router.enable_standby(1, 3);
        let mut last = ShardAssignment::default();
        for t in 0..9 {
            churn(&mut w, &ids, t);
            last = mgr.tick(&w, &[]);
            router.tick(&mut w, &last);
            assert!(
                router.standby_lag(1).unwrap() <= 3,
                "standby lag must respect its budget"
            );
        }
        let lag = router.standby_lag(1).unwrap();
        assert!(lag > 0, "a lag budget of 3 must leave a tail to replay");
        let replayed = router.fail_over(1).unwrap();
        assert_eq!(replayed, lag, "failover replays exactly the tail");
        assert_eq!(
            router.node_state(1).rows,
            node_oracle(&w, &last, 1),
            "promoted standby must equal the by-value oracle"
        );
        assert!(router.standby_lag(1).is_none(), "standby consumed");
        router.detach(&mut w);
    }

    /// A router that stalls past the tap-retention window loses its
    /// links; the next tick re-ships each node's state whole and ends
    /// exact again.
    #[test]
    fn evicted_link_resyncs_node_state_exactly() {
        let (mut w, ids, mut mgr) = migrating_setup();
        w.set_tap_retention(Some(16));
        let mut router = ShardRouter::new(&mut w, NODES);
        let a = mgr.tick(&w, &[]);
        router.tick(&mut w, &a);
        // the router stalls while the world churns far past the window
        for t in 0..30 {
            churn(&mut w, &ids, t);
        }
        assert!(w.tap_evicted(router.tap), "stall must evict the links");
        let a = mgr.tick(&w, &[]);
        router.tick(&mut w, &a);
        for n in 0..NODES {
            assert_eq!(
                router.node_state(n).rows,
                node_oracle(&w, &a, n),
                "node {n} must be exact after the resync"
            );
        }
        // and the re-attached links stream incrementally again
        churn(&mut w, &ids, 31);
        let a = mgr.tick(&w, &[]);
        router.tick(&mut w, &a);
        for n in 0..NODES {
            assert_eq!(router.node_state(n).rows, node_oracle(&w, &a, n));
        }
        router.detach(&mut w);
    }

    /// The report's change-stream anchors advance with the stream and
    /// the tap is acked exactly to them.
    #[test]
    fn segments_are_stamped_with_their_snapshot_seq() {
        let (mut w, ids, mut mgr) = migrating_setup();
        let mut router = ShardRouter::new(&mut w, NODES);
        let a = mgr.tick(&w, &[]);
        let first = router.tick(&mut w, &a);
        churn(&mut w, &ids, 0);
        let a = mgr.tick(&w, &[]);
        let second = router.tick(&mut w, &a);
        assert!(second.snapshot_seq > first.snapshot_seq);
        assert_eq!(
            w.tap_cursor(router.tap),
            Some(second.snapshot_seq),
            "tap acked exactly to the stamped snapshot"
        );
        router.detach(&mut w);
    }
}
