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
//! * [`checkpoint`] — [`GameStore`] + [`CheckpointPolicy`] +
//!   [`RecoveryReport`].
//! * [`delta`] — incremental checkpoints: content-hashed dirty rows,
//!   snapshot + delta-chain recovery ([`encode_delta`]).
//! * [`schema`] — [`StructuredStore`] vs [`BlobStore`] migrations.
//! * [`wal`] / [`walstore`] — redo logging between checkpoints: the
//!   zero-loss recovery mode ([`WalStore`] with group commit).
//!
//! ```no_run
//! use gamedb_persist::{Backend, CheckpointPolicy, GameStore};
//! use gamedb_core::World;
//!
//! let backend = Backend::open("/tmp/gamedb-demo").unwrap();
//! let mut store = GameStore::new(
//!     World::new(),
//!     backend,
//!     CheckpointPolicy::Hybrid { period: 600.0, threshold: 50.0 },
//! ).unwrap();
//! // game loop: report events with importance; boss kills flush early
//! store.observe(1.0, 0.1).unwrap();
//! store.observe(1.0, 100.0).unwrap(); // boss kill -> checkpoint now
//! let (recovered, report) = store.crash_and_recover().unwrap();
//! assert_eq!(report.lost_importance, 0.0);
//! # let _ = recovered;
//! ```

pub mod backend;
pub mod checkpoint;
#[cfg(test)]
mod compat;
pub mod crashpoint;
pub mod delta;
pub(crate) mod metrics;
pub mod schema;
pub mod snapshot;
pub mod wal;
pub mod walstore;

pub use backend::{temp_dir, Backend, BackendError, FaultKind};
pub use checkpoint::{
    CheckpointPolicy, GameStore, Importance, RecoveryReport, SnapshotMode, StoreStats,
};
pub use crashpoint::{
    assert_equivalent, run_live_torn, run_live_torn_async, run_sweep, SweepConfig, SweepReport,
};
pub use delta::{apply_delta, encode_delta, row_hashes, RowHashes};
pub use schema::{
    BlobStore, Migration, MigrationError, MigrationStats, SchemaVersion, StructuredStore,
};
pub use snapshot::{checksum, decode, encode, SnapshotError};
pub use wal::{decode_log, replay_log_tail, varint_len, CompRef, WalRecord};
pub use walstore::{
    recover_from_parts, CommitSeq, FlushPolicy, Recovered, RecoveryStats, StoreError, WalStats,
    WalStore, WalWatermark,
};
