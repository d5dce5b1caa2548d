//! Distributed tick execution over a sharded cluster.
//!
//! [`crate::shard`] decides *where* entities live; this module executes a
//! tick the way the resulting cluster would: each node runs the actions
//! whose footprint it owns entirely (its local batch) with no
//! coordination, and every action spanning nodes becomes a **distributed
//! transaction** — executed in a serial cross-node phase and billed a
//! two-phase-commit round-trip. The output equals a single-server tick
//! (the simulation shares one world; the *cost model* is what changes),
//! so experiments can put a price on cross-node fractions: the reason the
//! paper's games go to such lengths to "dynamically partition their
//! databases" is exactly that a 2PC round trip costs ~milliseconds while
//! a local action costs ~microseconds.

use gamedb_core::{EffectBuffer, World};

use crate::action::Action;
use crate::shard::{NodeId, ShardAssignment};
use crate::view::run_serial;

/// Cost model for the simulated cluster, in microseconds of simulated
/// wall time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterCost {
    /// Executing one action locally.
    pub local_action_us: f64,
    /// One cross-node (2PC) commit round trip.
    pub distributed_commit_us: f64,
    /// Shipping one handoff byte between nodes (segment-streamed
    /// entity migration — see [`crate::router::ShardRouter`]).
    pub handoff_byte_us: f64,
}

impl Default for ClusterCost {
    fn default() -> Self {
        ClusterCost {
            local_action_us: 2.0,
            // a LAN round trip plus two log forces: three orders of
            // magnitude over a local action, which is the whole story
            distributed_commit_us: 2000.0,
            // ~1 Gbit/s effective: 8 ns per byte
            handoff_byte_us: 0.008,
        }
    }
}

/// What one cluster tick did and what it would have cost.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClusterStats {
    /// Actions executed entirely on one node, per node.
    pub local_per_node: Vec<usize>,
    /// Actions whose footprint spanned nodes (each billed one 2PC).
    pub distributed: usize,
    /// Handoff bytes billed onto this tick
    /// ([`ClusterExecutor::bill_handoff`]) — migration is no longer
    /// free by-value movement.
    pub handoff_bytes: usize,
    /// Simulated wall time: slowest node's local phase + the serial
    /// distributed phase (+ billed handoff shipping).
    pub simulated_us: f64,
    /// Simulated wall time had every action run on one server.
    pub single_server_us: f64,
}

impl ClusterStats {
    /// Simulated speedup of the cluster over one server. Values below
    /// 1.0 mean the cross-node traffic ate the parallelism — the paper's
    /// motivation for partitioning along interaction boundaries.
    pub fn speedup(&self) -> f64 {
        if self.simulated_us == 0.0 {
            1.0
        } else {
            self.single_server_us / self.simulated_us
        }
    }
}

/// Executes tick batches against a shard assignment.
#[derive(Debug, Clone, Default)]
pub struct ClusterExecutor {
    pub cost: ClusterCost,
}

impl ClusterExecutor {
    pub fn new(cost: ClusterCost) -> Self {
        ClusterExecutor { cost }
    }

    /// Split a batch into per-node local batches and the distributed
    /// residue, under `assignment`.
    pub fn route(
        &self,
        assignment: &ShardAssignment,
        actions: &[Action],
    ) -> (Vec<Vec<usize>>, Vec<usize>) {
        let mut local: Vec<Vec<usize>> = vec![Vec::new(); assignment.nodes];
        let mut distributed = Vec::new();
        'outer: for (i, a) in actions.iter().enumerate() {
            let mut owner: Option<NodeId> = None;
            for e in a.footprint() {
                match (owner, assignment.node_of(e)) {
                    // unplaced entity (dead, or not in this placement):
                    // treat as distributed
                    (_, None) => {
                        distributed.push(i);
                        continue 'outer;
                    }
                    (None, Some(n)) => owner = Some(n),
                    (Some(prev), Some(n)) if prev != n => {
                        distributed.push(i);
                        continue 'outer;
                    }
                    _ => {}
                }
            }
            match owner {
                Some(n) => local[n].push(i),
                None => distributed.push(i),
            }
        }
        (local, distributed)
    }

    /// Execute one tick. Each node's local batch runs serially within the
    /// node against an overlay view, every node pushing into one effect
    /// buffer (nodes own disjoint entities, so their effects commute);
    /// the distributed residue runs afterwards, serially, each action
    /// billed a 2PC.
    pub fn execute(
        &self,
        world: &mut World,
        assignment: &ShardAssignment,
        actions: &[Action],
    ) -> ClusterStats {
        let (local, distributed) = self.route(assignment, actions);

        let mut merged = EffectBuffer::new();
        for node_batch in &local {
            run_serial(world, actions, node_batch, &mut merged);
        }
        merged.apply(world).expect("action effects are well-typed");

        for &i in &distributed {
            let mut buf = EffectBuffer::new();
            actions[i].execute(world, &mut buf);
            buf.apply(world).expect("action effects are well-typed");
        }

        let local_counts: Vec<usize> = local.iter().map(Vec::len).collect();
        let slowest = local_counts.iter().copied().max().unwrap_or(0);
        let simulated_us = slowest as f64 * self.cost.local_action_us
            + distributed.len() as f64
                * (self.cost.local_action_us + self.cost.distributed_commit_us);
        let single_server_us = actions.len() as f64 * self.cost.local_action_us;
        ClusterStats {
            local_per_node: local_counts,
            distributed: distributed.len(),
            handoff_bytes: 0,
            simulated_us,
            single_server_us,
        }
    }

    /// Price a tick's shard handoff onto its stats: `bytes` is what the
    /// [`crate::router::ShardRouter`] shipped this tick
    /// (`HandoffReport::total_bytes`). A single server never pays this,
    /// so it lands on `simulated_us` only — migration stops being free
    /// exactly where the cluster pays for it.
    pub fn bill_handoff(&self, stats: &mut ClusterStats, bytes: usize) {
        stats.handoff_bytes += bytes;
        stats.simulated_us += bytes as f64 * self.cost.handoff_byte_us;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::arena_world;
    use crate::executor::{Executor, SerialExecutor};
    use crate::shard::{AssignPolicy, ShardManager};
    use crate::bubbles::BubbleConfig;
    use gamedb_core::EntityId;
    use gamedb_spatial::Vec2;

    /// Four squads far apart: dynamic placement gives one node per squad.
    fn squads() -> (World, Vec<EntityId>, ShardAssignment) {
        let (w, ids) = arena_world(32, |i| {
            let squad = i / 8;
            Vec2::new(squad as f32 * 6000.0 + (i % 8) as f32 * 2.0, 0.0)
        });
        let mgr = ShardManager::new(
            4,
            AssignPolicy::DynamicBubbles {
                cfg: BubbleConfig::default(),
                max_overload: 1.5,
            },
        );
        let a = mgr.assign(&w);
        (w, ids, a)
    }

    fn squad_attacks(ids: &[EntityId]) -> Vec<Action> {
        (0..32)
            .filter(|i| i % 8 != 7)
            .map(|i| Action::Attack { attacker: ids[i], target: ids[i + 1] })
            .collect()
    }

    #[test]
    fn routing_keeps_squad_actions_local() {
        let (_, ids, a) = squads();
        let exec = ClusterExecutor::default();
        let (local, distributed) = exec.route(&a, &squad_attacks(&ids));
        assert!(distributed.is_empty());
        assert_eq!(local.iter().map(Vec::len).sum::<usize>(), 28);
        for node_batch in &local {
            assert_eq!(node_batch.len(), 7, "7 intra-squad attacks per node");
        }
    }

    #[test]
    fn cross_squad_trade_goes_distributed() {
        let (_, ids, a) = squads();
        let exec = ClusterExecutor::default();
        let batch = vec![
            Action::Attack { attacker: ids[0], target: ids[1] },
            Action::Trade { from: ids[0], to: ids[31], amount: 5 },
        ];
        let (local, distributed) = exec.route(&a, &batch);
        assert_eq!(distributed, vec![1]);
        assert_eq!(local.iter().map(Vec::len).sum::<usize>(), 1);
    }

    #[test]
    fn cluster_matches_serial_result() {
        let (mut w1, ids, a) = squads();
        let (mut w2, ids2, _) = squads();
        let mut batch = squad_attacks(&ids);
        batch.push(Action::Trade { from: ids[0], to: ids[31], amount: 9 });
        let mut batch2 = squad_attacks(&ids2);
        batch2.push(Action::Trade { from: ids2[0], to: ids2[31], amount: 9 });

        let stats = ClusterExecutor::default().execute(&mut w1, &a, &batch);
        SerialExecutor.execute(&mut w2, &batch2);
        assert_eq!(w1.rows(), w2.rows());
        assert_eq!(stats.distributed, 1);
    }

    #[test]
    fn local_actions_within_a_node_serialize() {
        // trades out of one account on the same node must not overdraw:
        // each reads the balance its predecessors left, exactly once
        let (mut w, ids, a) = squads();
        let batch = vec![
            Action::Trade { from: ids[0], to: ids[1], amount: 40 },
            Action::Trade { from: ids[0], to: ids[2], amount: 40 },
            Action::Trade { from: ids[0], to: ids[3], amount: 40 },
        ];
        ClusterExecutor::default().execute(&mut w, &a, &batch);
        let gold = |i: usize| w.get_i64(ids[i], "gold").unwrap();
        assert_eq!([gold(0), gold(1), gold(2), gold(3)], [0, 140, 140, 120]);
    }

    #[test]
    fn cost_model_punishes_cross_node_traffic() {
        let (mut w1, ids, a) = squads();
        let local_stats =
            ClusterExecutor::default().execute(&mut w1, &a, &squad_attacks(&ids));
        assert!(local_stats.speedup() > 2.0, "local tick parallelizes 4 ways");

        // all-cross-node batch: every action is a 2PC; slower than one server
        let (mut w2, ids2, a2) = squads();
        let cross: Vec<Action> = (0..8)
            .map(|i| Action::Trade { from: ids2[i], to: ids2[24 + i], amount: 1 })
            .collect();
        let cross_stats = ClusterExecutor::default().execute(&mut w2, &a2, &cross);
        assert_eq!(cross_stats.distributed, 8);
        assert!(
            cross_stats.speedup() < 0.1,
            "2PC per action must be far slower than one server: {}",
            cross_stats.speedup()
        );
    }

    #[test]
    fn handoff_billing_prices_migration_onto_the_tick() {
        let (mut w, ids, a) = squads();
        let exec = ClusterExecutor::default();
        let mut stats = exec.execute(&mut w, &a, &squad_attacks(&ids));
        let before = stats.simulated_us;
        // a 10 KB handoff (the router's per-tick total) stops being free
        exec.bill_handoff(&mut stats, 10_000);
        assert_eq!(stats.handoff_bytes, 10_000);
        let billed = stats.simulated_us - before;
        assert!((billed - 10_000.0 * exec.cost.handoff_byte_us).abs() < 1e-9);
        // ... but the single-server baseline never pays it
        assert!(stats.single_server_us > 0.0);
        assert_eq!(
            stats.single_server_us,
            squad_attacks(&ids).len() as f64 * exec.cost.local_action_us
        );
    }

    #[test]
    fn empty_batch_and_owner_lookup() {
        let (mut w, ids, a) = squads();
        let stats = ClusterExecutor::default().execute(&mut w, &a, &[]);
        assert_eq!(stats.distributed, 0);
        assert_eq!(stats.simulated_us, 0.0);
        assert_eq!(stats.speedup(), 1.0);
        assert!(a.node_of(ids[0]).is_some());
    }
}
