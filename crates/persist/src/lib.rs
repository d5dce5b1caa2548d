//! # gamedb-persist
//!
//! The engineering layer of *Database Research in Computer Games*
//! (SIGMOD 2009): an in-memory write-behind store over a durable backend,
//! checkpoint policies (periodic versus the paper's "intelligent"
//! event-driven checkpointing), crash/recovery with loss accounting, and
//! schema evolution — live migrations versus the legacy-preserving blob
//! strategy.
//!
//! ## Contents
//!
//! * [`snapshot`] — checksummed binary world snapshots.
//! * [`backend`] — the stand-in "commercial database": atomic snapshot
//!   installation, append-only log, crash injection ([`Backend`]).
//! * [`wal`] / [`walstore`] — the one durability store: a change-stream
//!   tap redo-logged into WAL frames, snapshots with checkpoint marks,
//!   sync or async commit ([`WalStore`]).
//! * [`checkpoint`] — [`CheckpointPolicy`] + [`CheckpointClock`]: when a
//!   write-behind caller commits or checkpoints its store, and what a
//!   crash costs ([`RecoveryReport`]).
//! * [`schema`] — [`StructuredStore`] vs [`BlobStore`] migrations.
//!
//! Write-behind is a sync store flushed per commit whose caller commits
//! only at policy points; mutations in between are lost by a crash.
//!
//! The crate decodes exactly what it encodes: one snapshot version and
//! one WAL frame tag per record kind, with components named by interned
//! id, both under one word-at-a-time [`checksum`]. A snapshot of
//! another version is refused with [`SnapshotError::BadMagic`]; a log
//! frame whose checksum holds but which does not decode fails recovery.
//! Recovery names the part it refused ([`StoreError::Decode`]).
//!
//! ```no_run
//! use gamedb_persist::{Backend, CheckpointClock, CheckpointPolicy, WalStore};
//! use gamedb_core::World;
//!
//! let backend = Backend::open("/tmp/gamedb-demo").unwrap();
//! let mut store = WalStore::new(World::new(), backend, 1).unwrap();
//! let mut clock = CheckpointClock::new(CheckpointPolicy::Hybrid { period: 600.0, threshold: 50.0 });
//! // game loop: report events with importance; boss kills flush early
//! for importance in [0.1, 100.0] {
//!     if clock.observe(1.0, importance) {
//!         store.commit().unwrap(); // or store.checkpoint() for a full point
//!     }
//! }
//! assert_eq!(clock.exposure().lost_importance, 0.0);
//! let (recovered, _replayed) = store.crash_and_recover().unwrap();
//! clock.rewind();
//! # let _ = recovered;
//! ```

pub mod backend;
pub mod checkpoint;
pub mod crashpoint;
pub(crate) mod metrics;
pub mod schema;
pub mod snapshot;
pub mod wal;
pub mod walstore;

pub use backend::{temp_dir, Backend, BackendError, FaultKind};
pub use checkpoint::{CheckpointClock, CheckpointPolicy, Importance, RecoveryReport};
pub use crashpoint::{
    assert_equivalent, run_live_torn, run_live_torn_async, run_sweep, SweepConfig, SweepReport,
};
pub use schema::{
    BlobStore, Migration, MigrationError, MigrationStats, SchemaVersion, StructuredStore,
};
pub use snapshot::{checksum, decode, encode, SnapshotError};
pub use wal::{decode_log, varint_len, WalRecord};
pub use walstore::{
    recover_from_parts, CommitSeq, DurablePart, FlushPolicy, Recovered, RecoveryStats, StoreError,
    WalStats, WalStore, WalWatermark,
};

/// Incremental ("delta") points: a [`WalStore::commit`] between policy
/// points is one WAL frame of every op since the last point, replayed
/// over the newest snapshot on recovery.
#[cfg(test)]
mod delta {
    mod tests {
        use crate::{temp_dir, Backend, WalStore};
        use gamedb_content::{Value, ValueType};
        use gamedb_core::{EntityId, World};
        use gamedb_spatial::Vec2;

        fn world(n: usize) -> (World, Vec<EntityId>) {
            let mut w = World::new();
            w.define_component("hp", ValueType::Float).unwrap();
            w.define_component("gold", ValueType::Int).unwrap();
            let mut ids = Vec::new();
            for i in 0..n {
                let e = w.spawn_at(Vec2::new(i as f32, 0.0));
                w.set_f32(e, "hp", 100.0).unwrap();
                w.set(e, "gold", Value::Int(10 * i as i64)).unwrap();
                ids.push(e);
            }
            (w, ids)
        }

        /// A write-behind store: sync, flushed per commit.
        fn store(w: World, label: &str) -> WalStore {
            WalStore::new(w, Backend::open(temp_dir(label)).unwrap(), 1).unwrap()
        }

        /// Crash the store and hold the recovered rows and live set to
        /// `durable`; returns the recovered store and the frames replayed.
        fn recover(s: WalStore, durable: &World) -> (WalStore, usize) {
            let (recovered, replayed) = s.crash_and_recover().unwrap();
            let w = recovered.world();
            assert_eq!(w.rows(), durable.rows());
            assert_eq!(
                w.entities().collect::<Vec<_>>(),
                durable.entities().collect::<Vec<_>>()
            );
            (recovered, replayed)
        }

        #[test]
        fn unchanged_world_produces_empty_delta() {
            let (w, _) = world(20);
            let mut s = store(w, "incr-idle");
            let bytes = s.backend().bytes_written;
            assert_eq!(s.commit().unwrap(), 0, "nothing pending");
            assert_eq!(s.backend().bytes_written, bytes, "an idle point writes nothing");
            let durable = s.world().clone();
            let (_, replayed) = recover(s, &durable);
            assert_eq!(replayed, 0, "the base snapshot alone");
        }

        #[test]
        fn changed_rows_round_trip() {
            let (w, ids) = world(20);
            let mut s = store(w, "incr-rows");
            s.world_mut().set_f32(ids[3], "hp", 55.0).unwrap();
            s.world_mut().set_pos(ids[7], Vec2::new(99.0, 99.0)).unwrap();
            s.commit().unwrap();
            let durable = s.world().clone();
            let (_, replayed) = recover(s, &durable);
            assert_eq!(replayed, 1, "one frame");
        }

        #[test]
        fn spawn_and_despawn_round_trip() {
            let (w, ids) = world(10);
            let mut s = store(w, "incr-spawn");
            s.world_mut().despawn(ids[2]);
            let newbie = s.world_mut().spawn_at(Vec2::new(50.0, 50.0));
            s.world_mut().set_f32(newbie, "hp", 1.0).unwrap();
            s.commit().unwrap();
            let durable = s.world().clone();
            let (recovered, _) = recover(s, &durable);
            assert!(!recovered.world().is_live(ids[2]));
            assert!(recovered.world().is_live(newbie));
        }

        #[test]
        fn cleared_component_round_trips() {
            let (w, ids) = world(5);
            let mut s = store(w, "incr-clear");
            s.world_mut().remove_component(ids[1], "gold").unwrap();
            s.commit().unwrap();
            let durable = s.world().clone();
            let (recovered, _) = recover(s, &durable);
            assert_eq!(recovered.world().get(ids[1], "gold"), None);
        }

        #[test]
        fn chained_deltas_compose() {
            let (w, ids) = world(10);
            let mut s = store(w, "incr-chain");
            for (step, &id) in ids.iter().enumerate().take(5) {
                s.world_mut().set_f32(id, "hp", step as f32).unwrap();
                if step == 2 {
                    s.world_mut().despawn(ids[9]);
                }
                s.commit().unwrap();
            }
            let durable = s.world().clone();
            let (_, replayed) = recover(s, &durable);
            assert_eq!(replayed, 5, "one frame per point");
        }
    }
}
