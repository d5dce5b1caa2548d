//! Transaction executors for a tick's action batch.
//!
//! "Traditional approaches such as locking transactions are often too
//! slow for games." This module makes that claim measurable: four
//! executors process the same action batch with identical results but
//! very different schedules —
//!
//! * [`SerialExecutor`] — the global-lock baseline: one action at a time.
//! * [`LockingExecutor`] — two-phase locking compressed into conflict-free
//!   *waves* (actions whose footprints are disjoint run together).
//! * [`OptimisticExecutor`] — OCC: run everything against the snapshot,
//!   validate footprints, retry aborted actions in later rounds.
//! * [`crate::bubbles::BubbleExecutor`] — causality bubbles (its own
//!   module).
//!
//! Waves matter because a wave is exactly the unit a server can fan out
//! over cores or shards: fewer waves = shorter critical path. `ExecStats`
//! reports both wall time and the schedule shape (rounds, largest group,
//! critical path); the unit tests here and in `bubbles` pin the shapes
//! the paper's comparison rests on.

use std::collections::HashSet;
use std::time::Instant;

use gamedb_core::{EffectBuffer, EntityId, World};

use crate::action::Action;

/// Statistics from executing one action batch.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ExecStats {
    /// Actions submitted.
    pub submitted: usize,
    /// Actions that executed (non-conflicting slots; aborted OCC actions
    /// retry and eventually land here too).
    pub executed: usize,
    /// Scheduling rounds: waves (2PL), validation rounds (OCC), or
    /// bubbles executed serially (bubble executor reports bubble count).
    pub rounds: usize,
    /// OCC aborts (0 for other executors).
    pub aborts: usize,
    /// Wall-clock microseconds for the whole batch.
    pub micros: u128,
    /// Size of the largest parallel group (wave / bubble).
    pub max_group: usize,
    /// Sequential steps on the critical path given unlimited cores:
    /// actions for the serial executor, waves for 2PL, validation rounds
    /// for OCC, and (largest bubble's action count + residual actions)
    /// for causality bubbles. This is the schedule-quality number that
    /// compares executors independently of this machine's core count.
    pub critical_path: usize,
}

/// An executor applies a batch of actions to the world for one tick.
pub trait Executor {
    /// Human-readable name for reports.
    fn name(&self) -> &'static str;

    /// Execute the batch. Implementations must be serially equivalent:
    /// the final world state must equal *some* serial order of the
    /// non-conflicting subsets they chose.
    fn execute(&self, world: &mut World, actions: &[Action]) -> ExecStats;
}

/// Global lock: every action is its own wave, applied immediately.
#[derive(Debug, Default, Clone, Copy)]
pub struct SerialExecutor;

impl Executor for SerialExecutor {
    fn name(&self) -> &'static str {
        "serial"
    }

    fn execute(&self, world: &mut World, actions: &[Action]) -> ExecStats {
        let start = Instant::now();
        for a in actions {
            let mut buf = EffectBuffer::new();
            a.execute(world, &mut buf);
            buf.apply(world).expect("action effects are well-typed");
        }
        ExecStats {
            submitted: actions.len(),
            executed: actions.len(),
            rounds: actions.len(),
            aborts: 0,
            micros: start.elapsed().as_micros(),
            max_group: 1,
            critical_path: actions.len(),
        }
    }
}

/// Two-phase locking, compressed into waves.
///
/// Actions are scanned in order; each action joins the earliest wave
/// whose locked entity set does not intersect its footprint (first-fit).
/// All actions in a wave execute against the wave-start snapshot and
/// their effects apply atomically — equivalent to acquiring all locks in
/// a canonical order, executing, and releasing.
#[derive(Debug, Default, Clone, Copy)]
pub struct LockingExecutor;

impl LockingExecutor {
    /// Build the wave schedule (exposed for tests).
    pub fn schedule(actions: &[Action]) -> Vec<Vec<usize>> {
        let mut waves: Vec<(HashSet<EntityId>, Vec<usize>)> = Vec::new();
        for (i, a) in actions.iter().enumerate() {
            let fp: Vec<EntityId> = {
                let mut v = a.read_set();
                v.extend(a.write_set());
                v
            };
            // first-fit: earliest wave with no lock conflicts; writes
            // conflict with everything, reads conflict with writes.
            // We approximate with full-footprint exclusivity, which is
            // strictly more conservative (a valid 2PL schedule).
            let slot = waves
                .iter()
                .position(|(locked, _)| fp.iter().all(|e| !locked.contains(e)));
            match slot {
                Some(s) => {
                    waves[s].0.extend(fp.iter().copied());
                    waves[s].1.push(i);
                }
                None => {
                    let mut locked = HashSet::new();
                    locked.extend(fp.iter().copied());
                    waves.push((locked, vec![i]));
                }
            }
        }
        waves.into_iter().map(|(_, idx)| idx).collect()
    }
}

impl Executor for LockingExecutor {
    fn name(&self) -> &'static str {
        "2pl"
    }

    fn execute(&self, world: &mut World, actions: &[Action]) -> ExecStats {
        let start = Instant::now();
        let waves = Self::schedule(actions);
        let mut max_group = 0;
        for wave in &waves {
            max_group = max_group.max(wave.len());
            let mut buf = EffectBuffer::new();
            for &i in wave {
                actions[i].execute(world, &mut buf);
            }
            buf.apply(world).expect("action effects are well-typed");
        }
        ExecStats {
            submitted: actions.len(),
            executed: actions.len(),
            rounds: waves.len(),
            aborts: 0,
            micros: start.elapsed().as_micros(),
            max_group,
            critical_path: waves.len(),
        }
    }
}

/// Optimistic concurrency control with retry rounds.
///
/// Every pending action runs against the round-start snapshot. Then
/// validation scans the batch in submission order: an action commits if
/// its footprint does not overlap the write sets of actions already
/// committed *in this round*; otherwise it aborts and retries next round.
#[derive(Debug, Clone, Copy)]
pub struct OptimisticExecutor {
    /// Safety valve: a batch with pathological conflicts still terminates
    /// (remaining actions fall back to serial execution).
    pub max_rounds: usize,
}

impl Default for OptimisticExecutor {
    fn default() -> Self {
        OptimisticExecutor { max_rounds: 64 }
    }
}

impl Executor for OptimisticExecutor {
    fn name(&self) -> &'static str {
        "occ"
    }

    fn execute(&self, world: &mut World, actions: &[Action]) -> ExecStats {
        let start = Instant::now();
        let mut pending: Vec<usize> = (0..actions.len()).collect();
        let mut rounds = 0usize;
        let mut aborts = 0usize;
        let mut max_group = 0usize;
        while !pending.is_empty() && rounds < self.max_rounds {
            rounds += 1;
            // validation: commit a conflict-free prefix-respecting subset
            let mut committed_writes: HashSet<EntityId> = HashSet::new();
            let mut committed: Vec<usize> = Vec::new();
            let mut retry: Vec<usize> = Vec::new();
            for &i in &pending {
                let a = &actions[i];
                let reads = a.read_set();
                let writes = a.write_set();
                let conflict = reads.iter().any(|e| committed_writes.contains(e))
                    || writes.iter().any(|e| committed_writes.contains(e));
                if conflict {
                    aborts += 1;
                    retry.push(i);
                } else {
                    committed_writes.extend(writes);
                    committed.push(i);
                }
            }
            max_group = max_group.max(committed.len());
            let mut buf = EffectBuffer::new();
            for &i in &committed {
                actions[i].execute(world, &mut buf);
            }
            buf.apply(world).expect("action effects are well-typed");
            pending = retry;
        }
        // pathological leftovers: serial fallback
        for &i in &pending {
            let mut buf = EffectBuffer::new();
            actions[i].execute(world, &mut buf);
            buf.apply(world).expect("action effects are well-typed");
            rounds += 1;
        }
        ExecStats {
            submitted: actions.len(),
            executed: actions.len(),
            rounds,
            aborts,
            micros: start.elapsed().as_micros(),
            max_group,
            critical_path: rounds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::arena_world;
    use gamedb_spatial::Vec2;

    /// Batch where players 0..n-1 each attack player (i+1): chain of
    /// conflicts.
    fn chain_batch(ids: &[EntityId]) -> Vec<Action> {
        (0..ids.len() - 1)
            .map(|i| Action::Attack {
                attacker: ids[i],
                target: ids[i + 1],
            })
            .collect()
    }

    /// Batch of disjoint pairs: (0→1), (2→3), … — fully parallel.
    fn pair_batch(ids: &[EntityId]) -> Vec<Action> {
        (0..ids.len() / 2)
            .map(|i| Action::Attack {
                attacker: ids[2 * i],
                target: ids[2 * i + 1],
            })
            .collect()
    }

    fn executors() -> Vec<Box<dyn Executor>> {
        vec![
            Box::new(SerialExecutor),
            Box::new(LockingExecutor),
            Box::new(OptimisticExecutor::default()),
        ]
    }

    #[test]
    fn all_executors_agree_on_final_state() {
        for batch_fn in [chain_batch, pair_batch] {
            let mut finals = Vec::new();
            for exec in executors() {
                let (mut w, ids) = arena_world(16, |i| Vec2::new(i as f32 * 5.0, 0.0));
                let batch = batch_fn(&ids);
                let stats = exec.execute(&mut w, &batch);
                assert_eq!(stats.executed, batch.len(), "{}", exec.name());
                finals.push((exec.name(), w.rows()));
            }
            let reference = finals[0].1.clone();
            for (name, rows) in &finals {
                assert_eq!(rows, &reference, "{name} diverged");
            }
        }
    }

    #[test]
    fn locking_waves_respect_conflicts() {
        let (_, ids) = arena_world(8, |i| Vec2::new(i as f32, 0.0));
        let batch = pair_batch(&ids);
        let waves = LockingExecutor::schedule(&batch);
        // fully disjoint: one wave
        assert_eq!(waves.len(), 1);
        assert_eq!(waves[0].len(), 4);

        // everyone attacks player 0: fully serial
        let hot: Vec<Action> = (1..8)
            .map(|i| Action::Attack {
                attacker: ids[i],
                target: ids[0],
            })
            .collect();
        let waves = LockingExecutor::schedule(&hot);
        assert_eq!(waves.len(), 7);
    }

    #[test]
    fn occ_abort_rate_tracks_contention() {
        let (mut w1, ids1) = arena_world(32, |i| Vec2::new(i as f32 * 5.0, 0.0));
        let low = pair_batch(&ids1);
        let occ = OptimisticExecutor::default();
        let low_stats = occ.execute(&mut w1, &low);
        assert_eq!(low_stats.aborts, 0, "disjoint batch never aborts");

        let (mut w2, ids2) = arena_world(32, |i| Vec2::new(i as f32 * 5.0, 0.0));
        let hot: Vec<Action> = (1..32)
            .map(|i| Action::Attack {
                attacker: ids2[i],
                target: ids2[0],
            })
            .collect();
        let hot_stats = occ.execute(&mut w2, &hot);
        assert!(hot_stats.aborts > 0, "hotspot batch must abort");
        assert!(hot_stats.rounds > 1);
    }

    #[test]
    fn serial_rounds_equal_actions() {
        let (mut w, ids) = arena_world(10, |i| Vec2::new(i as f32 * 5.0, 0.0));
        let batch = pair_batch(&ids);
        let stats = SerialExecutor.execute(&mut w, &batch);
        assert_eq!(stats.rounds, batch.len());
        assert_eq!(stats.max_group, 1);
    }

    #[test]
    fn empty_batch() {
        for exec in executors() {
            let (mut w, _) = arena_world(4, |i| Vec2::new(i as f32, 0.0));
            let stats = exec.execute(&mut w, &[]);
            assert_eq!(stats.submitted, 0);
            assert_eq!(stats.executed, 0);
        }
    }

    #[test]
    fn trade_chain_conserves_gold() {
        // serial equivalence sanity: gold total is conserved by every
        // executor even under conflicting trades
        for exec in executors() {
            let (mut w, ids) = arena_world(8, |i| Vec2::new(i as f32 * 3.0, 0.0));
            let batch: Vec<Action> = (0..8)
                .map(|i| Action::Trade {
                    from: ids[i],
                    to: ids[(i + 1) % 8],
                    amount: 60,
                })
                .collect();
            exec.execute(&mut w, &batch);
            let total: i64 = ids
                .iter()
                .map(|&e| w.get_i64(e, "gold").unwrap())
                .sum();
            assert_eq!(total, 800, "{} lost gold", exec.name());
        }
    }
}
