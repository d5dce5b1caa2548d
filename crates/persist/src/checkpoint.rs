//! Checkpoint policies: when the write-behind store writes.
//!
//! "Most games have an in-memory database layer that processes all
//! actions, and only writes to the database periodically. In some games,
//! these checkpoints can be as far as 10 minutes apart. … games need ways
//! to checkpoint intelligently, writing to the database when important
//! events are completed, and not just at regular intervals."
//!
//! [`CheckpointPolicy`] chooses the *policy points*: on a fixed period,
//! when accumulated event importance crosses a threshold (the
//! "intelligent" policy), or a hybrid of both. [`CheckpointClock`]
//! tracks game time and importance against a policy and says when a
//! point is due; it holds no world and no backend.
//!
//! The in-memory layer is a sync [`WalStore`](crate::WalStore) with
//! `group_commit = 1` whose caller commits only at policy points, so
//! every mutation in between sits in the change stream and a crash loses
//! it. At a point the caller picks what to write:
//!
//! * an *incremental* point is [`WalStore::commit`](crate::WalStore::commit):
//!   one WAL frame holding every op since the last point, flushed;
//! * a *full* point is [`WalStore::checkpoint`](crate::WalStore::checkpoint):
//!   a snapshot and its mark;
//! * [`WalStore::compact_log`](crate::WalStore::compact_log) after a full
//!   point drops the frames the snapshot subsumes.

/// A game event's persistence importance, as scored by the game: routine
/// movement ~0, boss kills and rare loot high.
pub type Importance = f64;

/// When to write a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CheckpointPolicy {
    /// Every `period` seconds of game time.
    Periodic { period: f64 },
    /// When accumulated importance since the last checkpoint reaches
    /// `threshold` — important events flush promptly, quiet periods
    /// write nothing.
    EventDriven { threshold: Importance },
    /// Event-driven with a periodic backstop: checkpoint when either
    /// condition fires.
    Hybrid { period: f64, threshold: Importance },
}

impl CheckpointPolicy {
    /// Short label for reports.
    pub fn label(&self) -> String {
        match self {
            CheckpointPolicy::Periodic { period } => format!("periodic({period}s)"),
            CheckpointPolicy::EventDriven { threshold } => format!("event({threshold})"),
            CheckpointPolicy::Hybrid { period, threshold } => {
                format!("hybrid({period}s,{threshold})")
            }
        }
    }
}

/// Game time and importance measured against a [`CheckpointPolicy`]
/// since the last policy point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointClock {
    policy: CheckpointPolicy,
    /// game-time seconds
    now: f64,
    last_checkpoint_at: f64,
    importance_since: Importance,
}

impl CheckpointClock {
    /// A clock at game time 0, anchored there (the store's base snapshot
    /// is the first policy point).
    pub fn new(policy: CheckpointPolicy) -> Self {
        CheckpointClock {
            policy,
            now: 0.0,
            last_checkpoint_at: 0.0,
            importance_since: 0.0,
        }
    }

    /// Current game time (seconds).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Game time of the last policy point.
    pub fn last_checkpoint_at(&self) -> f64 {
        self.last_checkpoint_at
    }

    /// Advance game time and report an event of the given importance.
    /// Returns `true` when the policy says a point is due, and re-anchors
    /// there: the caller must then commit or checkpoint its store.
    pub fn observe(&mut self, dt: f64, importance: Importance) -> bool {
        self.now += dt;
        self.importance_since += importance;
        let elapsed = self.now - self.last_checkpoint_at;
        let fire = match self.policy {
            CheckpointPolicy::Periodic { period } => elapsed >= period,
            CheckpointPolicy::EventDriven { threshold } => self.importance_since >= threshold,
            CheckpointPolicy::Hybrid { period, threshold } => {
                elapsed >= period || self.importance_since >= threshold
            }
        };
        if fire {
            self.last_checkpoint_at = self.now;
            self.importance_since = 0.0;
        }
        fire
    }

    /// What a crash right now would cost the players.
    pub fn exposure(&self) -> RecoveryReport {
        RecoveryReport {
            lost_game_seconds: self.now - self.last_checkpoint_at,
            lost_importance: self.importance_since,
        }
    }

    /// After a crash: game time rolls back to the last policy point.
    pub fn rewind(&mut self) {
        self.now = self.last_checkpoint_at;
        self.importance_since = 0.0;
    }
}

/// What a crash cost the players.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryReport {
    /// Game seconds of progress rolled back.
    pub lost_game_seconds: f64,
    /// Importance (boss kills, rare loot…) rolled back — what the paper
    /// means by "repeat a difficult fight or lose a particularly
    /// desirable reward".
    pub lost_importance: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{temp_dir, Backend};
    use crate::wal::{decode_log, WalRecord};
    use crate::WalStore;
    use gamedb_content::ValueType;
    use gamedb_core::World;
    use gamedb_spatial::Vec2;

    /// A write-behind store: sync, flushed per commit, committed only at
    /// policy points.
    fn write_behind(w: World, label: &str) -> WalStore {
        WalStore::new(w, Backend::open(temp_dir(label)).unwrap(), 1).unwrap()
    }

    fn store(label: &str) -> WalStore {
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        let e = w.spawn_at(Vec2::ZERO);
        w.set_f32(e, "hp", 100.0).unwrap();
        write_behind(w, label)
    }

    fn hp_world(n: usize) -> (World, Vec<gamedb_core::EntityId>) {
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        let ids = (0..n)
            .map(|i| {
                let e = w.spawn_at(Vec2::new(i as f32, 0.0));
                w.set_f32(e, "hp", 100.0).unwrap();
                e
            })
            .collect();
        (w, ids)
    }

    /// One step of game time; an incremental point (commit) when the
    /// policy fires.
    fn step(s: &mut WalStore, clock: &mut CheckpointClock, dt: f64, imp: Importance) -> bool {
        let fired = clock.observe(dt, imp);
        if fired {
            s.commit().unwrap();
        }
        fired
    }

    #[test]
    fn periodic_checkpoints_fire_on_schedule() {
        let mut c = CheckpointClock::new(CheckpointPolicy::Periodic { period: 10.0 });
        assert!(!c.observe(4.0, 0.0));
        assert!(!c.observe(4.0, 100.0), "importance ignored");
        assert!(c.observe(4.0, 0.0), "12s elapsed >= 10s");
        assert_eq!(c.last_checkpoint_at(), 12.0);
        assert!(!c.observe(9.0, 0.0));
        assert!(c.observe(1.5, 0.0));
    }

    #[test]
    fn event_driven_fires_on_importance() {
        let mut c = CheckpointClock::new(CheckpointPolicy::EventDriven { threshold: 10.0 });
        assert!(!c.observe(1000.0, 1.0), "time ignored");
        assert!(!c.observe(1.0, 5.0));
        assert!(c.observe(1.0, 4.0), "accumulated 10");
        // importance resets after checkpoint
        assert!(!c.observe(1.0, 9.9));
        assert!(c.observe(1.0, 50.0), "boss kill flushes at once");
    }

    #[test]
    fn hybrid_fires_on_either() {
        let mut c = CheckpointClock::new(CheckpointPolicy::Hybrid {
            period: 10.0,
            threshold: 5.0,
        });
        assert!(c.observe(1.0, 6.0), "importance path");
        assert!(c.observe(11.0, 0.0), "period path");
    }

    #[test]
    fn crash_rolls_back_to_checkpoint() {
        let mut s = store("cp4");
        let mut clock = CheckpointClock::new(CheckpointPolicy::Periodic { period: 5.0 });
        let e = s.world().entities().next().unwrap();
        s.world_mut().set_f32(e, "hp", 50.0).unwrap();
        assert!(step(&mut s, &mut clock, 6.0, 1.0), "hp=50 durable");
        s.world_mut().set_f32(e, "hp", 7.0).unwrap();
        assert!(!step(&mut s, &mut clock, 2.0, 3.0));
        let report = clock.exposure();
        let (recovered, _) = s.crash_and_recover().unwrap();
        clock.rewind();
        assert_eq!(recovered.world().get_f32(e, "hp"), Some(50.0));
        assert!((report.lost_game_seconds - 2.0).abs() < 1e-9);
        assert!((report.lost_importance - 3.0).abs() < 1e-9);
        assert_eq!(clock.now(), 6.0, "game time rolls back with the world");
        assert_eq!(clock.exposure().lost_importance, 0.0);
    }

    #[test]
    fn recovery_without_any_checkpoint_uses_initial() {
        let mut s = store("cp5");
        let e = s.world().entities().next().unwrap();
        s.world_mut().set_f32(e, "hp", 1.0).unwrap();
        let (recovered, replayed) = s.crash_and_recover().unwrap();
        assert_eq!(recovered.world().get_f32(e, "hp"), Some(100.0));
        assert_eq!(replayed, 0, "the base snapshot alone");
    }

    #[test]
    fn event_driven_loses_less_importance_than_periodic() {
        // identical event streams; crash at the end; compare lost
        // importance — the E9 claim in miniature
        let run = |policy, label: &str| {
            let mut s = store(label);
            let mut clock = CheckpointClock::new(policy);
            let e = s.world().entities().next().unwrap();
            let mut durable_hp = 100.0;
            // routine play with one huge event in the middle
            for i in 0..50 {
                let imp = if i == 25 { 100.0 } else { 0.1 };
                s.world_mut().set_f32(e, "hp", i as f32).unwrap();
                if step(&mut s, &mut clock, 1.0, imp) {
                    durable_hp = i as f32;
                }
            }
            let report = clock.exposure();
            let (recovered, _) = s.crash_and_recover().unwrap();
            assert_eq!(recovered.world().get_f32(e, "hp"), Some(durable_hp));
            report.lost_importance
        };
        let periodic = run(CheckpointPolicy::Periodic { period: 60.0 }, "cp6a");
        let event = run(CheckpointPolicy::EventDriven { threshold: 50.0 }, "cp6b");
        assert!(
            event < periodic,
            "event-driven {event} must lose less than periodic {periodic}"
        );
        // the big event itself is never lost by the event policy
        assert!(event < 100.0);
    }

    #[test]
    fn incremental_recovery_replays_delta_chain() {
        let (w, ids) = hp_world(20);
        let mut s = write_behind(w, "cp-incr");
        let mut clock = CheckpointClock::new(CheckpointPolicy::Periodic { period: 1.0 });
        // three incremental points: one frame each
        for (round, &id) in ids.iter().enumerate().take(3) {
            s.world_mut().set_f32(id, "hp", round as f32).unwrap();
            assert!(step(&mut s, &mut clock, 1.5, 0.0));
        }
        // mutate after the last point: this part is lost
        s.world_mut().set_f32(ids[10], "hp", 1.0).unwrap();
        let (recovered, replayed) = s.crash_and_recover().unwrap();
        assert_eq!(replayed, 3, "one frame per point");
        let w = recovered.world();
        assert_eq!(w.get_f32(ids[0], "hp"), Some(0.0));
        assert_eq!(w.get_f32(ids[1], "hp"), Some(1.0));
        assert_eq!(w.get_f32(ids[2], "hp"), Some(2.0));
        assert_eq!(w.get_f32(ids[10], "hp"), Some(100.0), "lost");
    }

    #[test]
    fn full_checkpoint_prunes_delta_chain() {
        let mut s = store("cp-prune");
        let e = s.world().entities().next().unwrap();
        // points 1 and 2 are frames; point 3 is full and prunes them
        for i in 0..3 {
            s.world_mut().set_f32(e, "hp", i as f32).unwrap();
            if i < 2 {
                s.commit().unwrap();
            } else {
                s.checkpoint().unwrap();
                s.compact_log().unwrap();
            }
        }
        let (records, _) = decode_log(&s.backend().read_log().unwrap());
        assert_eq!(records, vec![WalRecord::CheckpointMark { seq: 1 }]);
        assert_eq!(s.backend().snapshot_seqs().unwrap(), vec![0, 1]);
        let (recovered, replayed) = s.crash_and_recover().unwrap();
        assert_eq!(replayed, 0);
        assert_eq!(recovered.world().get_f32(e, "hp"), Some(2.0));
    }

    #[test]
    fn incremental_writes_far_fewer_bytes_on_low_churn() {
        // 500 entities, one changes per point: frames should be tiny
        // next to snapshots
        let run = |full: bool, label: &str| {
            let (w, ids) = hp_world(500);
            let mut s = write_behind(w, label);
            let base = s.backend().bytes_written;
            for &id in ids.iter().take(10) {
                s.world_mut().set_f32(id, "hp", 1.0).unwrap();
                if full {
                    s.checkpoint().unwrap();
                } else {
                    s.commit().unwrap();
                }
            }
            let bytes = s.backend().bytes_written;
            bytes - base
        };
        let full = run(true, "cp-bytes-full");
        let incr = run(false, "cp-bytes-incr");
        assert!(
            incr * 10 < full,
            "incremental {incr} bytes vs full {full} bytes"
        );
    }

    #[test]
    fn recovery_restores_catalog_through_delta_chain() {
        use gamedb_content::{CmpOp, Value};
        use gamedb_core::{IndexKind, Query};
        let (mut w, ids) = hp_world(10);
        w.create_index("hp", IndexKind::Sorted).unwrap();
        let wounded =
            w.register_view(Query::select().filter("hp", CmpOp::Lt, Value::Float(50.0)));
        w.subscribe_view(wounded);
        let mut s = write_behind(w, "cp-catalog");
        // two incremental points; the second leaves ids[1] wounded
        s.world_mut().set_f32(ids[0], "hp", 80.0).unwrap();
        s.commit().unwrap();
        s.world_mut().set_f32(ids[1], "hp", 10.0).unwrap();
        s.commit().unwrap();
        // post-point damage is lost in the crash
        s.world_mut().set_f32(ids[2], "hp", 5.0).unwrap();

        let (mut recovered, replayed) = s.crash_and_recover().unwrap();
        assert_eq!(replayed, 2);
        // changelogs re-anchor at the recovery point: the view comes
        // back unsubscribed, and a new subscriber starts from now
        let w = recovered.world_mut();
        assert_eq!(w.take_view_delta::<gamedb_core::EntityId>(wounded), None);
        w.subscribe_view(wounded);
        assert!(w.take_view_delta::<gamedb_core::EntityId>(wounded).unwrap().is_empty());
        let w = recovered.world();
        assert_eq!(
            w.indexed_components().collect::<Vec<_>>(),
            vec![("hp", IndexKind::Sorted)]
        );
        // the pre-crash handle reads the recovered view; frame replay
        // flowed through view maintenance
        assert!(w.has_view(wounded));
        assert_eq!(w.view_rows(wounded), &[ids[1]]);
        let q = Query::select().filter("hp", CmpOp::Lt, Value::Float(90.0));
        assert_eq!(q.run(w), q.run_scan(w), "rebuilt index answers exactly");
    }

    #[test]
    fn catalog_changes_after_base_snapshot_survive_delta_recovery() {
        use gamedb_content::{CmpOp, Value};
        use gamedb_core::{IndexKind, Query};
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        let e = w.spawn_at(Vec2::ZERO);
        w.set_f32(e, "hp", 5.0).unwrap();
        // this index exists at the base snapshot, then is dropped later
        w.create_index("hp", IndexKind::Hash).unwrap();
        let doomed = w.register_view(Query::select());
        let mut s = write_behind(w, "cp-catalog-delta");
        // catalog churn strictly after the base snapshot, before an
        // incremental point: drop the old derived state, register new,
        // advance the tick
        let w = s.world_mut();
        w.drop_index("hp");
        w.drop_view(doomed);
        w.create_index("hp", IndexKind::Sorted).unwrap();
        let wounded = w.register_view(Query::select().filter("hp", CmpOp::Lt, Value::Float(50.0)));
        w.advance_tick_to(9);
        s.commit().unwrap();

        let (recovered, replayed) = s.crash_and_recover().unwrap();
        assert_eq!(replayed, 1, "one frame");
        let w = recovered.world();
        assert_eq!(w.tick(), 9, "tick advances past the base snapshot");
        assert_eq!(
            w.indexed_components().collect::<Vec<_>>(),
            vec![("hp", IndexKind::Sorted)],
            "post-snapshot index lifecycle recovers from the frame"
        );
        assert!(!w.has_view(doomed), "view dropped after the base stays dropped");
        assert!(w.has_view(wounded), "view registered after the base survives");
        assert_eq!(w.view_rows(wounded), &[e]);
    }

    #[test]
    fn recovery_restores_tick_counter() {
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        w.advance_tick_to(42);
        let mut s = write_behind(w, "cp-tick");
        let mut clock = CheckpointClock::new(CheckpointPolicy::Periodic { period: 5.0 });
        s.world_mut().advance_tick_to(45);
        assert!(step(&mut s, &mut clock, 6.0, 0.0)); // point at tick 45
        s.world_mut().advance_tick_to(50); // lost in the crash
        let (recovered, _) = s.crash_and_recover().unwrap();
        assert_eq!(recovered.world().tick(), 45, "tick rolls back to the checkpoint");
    }

    #[test]
    fn stats_accumulate() {
        // every point commits a frame; every other one is also full
        let mut s = store("cp7");
        let mut clock = CheckpointClock::new(CheckpointPolicy::Periodic { period: 2.0 });
        let e = s.world().entities().next().unwrap();
        let mut points = 0;
        for i in 0..10 {
            s.world_mut().set_f32(e, "hp", i as f32).unwrap();
            if clock.observe(1.0, 0.5) {
                points += 1;
                if points % 2 == 0 {
                    s.checkpoint().unwrap();
                } else {
                    s.commit().unwrap();
                }
            }
        }
        assert_eq!(points, 5);
        assert_eq!(s.stats.records, 5, "one frame per point");
        assert_eq!(s.stats.checkpoints, 2);
        assert!(s.backend().bytes_written > 0);
    }
}
