//! Durability-pipeline instrumentation: the cached metric handles a
//! [`crate::walstore::WalStore`] reports through when a
//! [`gamedb_metrics::MetricsRegistry`] is attached
//! ([`crate::walstore::WalStore::attach_metrics`]).
//!
//! The store side (commit/checkpoint, on the mutating thread) and the
//! background writer (flushes, on the `wal-writer` thread) both hold a
//! clone; every handle is an `Arc`'d atomic, so cross-thread reporting
//! needs no lock beyond the one installation mutex in `WriterShared`.

use gamedb_metrics::{Counter, Gauge, Histogram, MetricsRegistry, LATENCY_US_BUCKETS, SIZE_BUCKETS};

use crate::walstore::RecoveryStats;

/// Cached handles for one WAL store. Metric catalog in ARCHITECTURE.md
/// § Observability; operational meanings in docs/RUNBOOK.md.
#[derive(Debug, Clone)]
pub(crate) struct WalMetrics {
    /// `wal.commits`: non-empty commit boundaries handed to the
    /// pipeline.
    pub commits: Counter,
    /// `wal.commit_ops`: mutation ops across all committed frames.
    pub commit_ops: Counter,
    /// `wal.commit_batch_ops`: ops per commit frame (the group-commit
    /// batch size the change stream accumulated between commits).
    pub commit_batch_ops: Histogram,
    /// `wal.enqueue_to_durable_us`: microseconds from commit enqueue to
    /// the durable flush covering that commit.
    pub enqueue_to_durable_us: Histogram,
    /// `wal.queue_depth`: frames waiting in the writer hand-off queue
    /// at the last commit (async mode; 0 in sync mode).
    pub queue_depth: Gauge,
    /// `wal.watermark_lag`: commits enqueued but not yet durable at the
    /// last commit (the ack-tracked crash-loss window).
    pub watermark_lag: Gauge,
    /// `wal.flushes`: durable flushes, both caller-thread and writer.
    pub flushes: Counter,
    /// `wal.flush_commits`: commit boundaries made durable per flush
    /// (how much each group commit coalesced).
    pub flush_commits: Histogram,
    /// `wal.checkpoints`: snapshots written.
    pub checkpoints: Counter,
    /// `checkpoint.encode_us`: microseconds to encode one checkpoint's
    /// snapshot (`snapshot::encode`, checksum included).
    pub checkpoint_encode_us: Histogram,
    /// `checkpoint.write_us`: microseconds to make one encoded snapshot
    /// durable — the backend put, its checkpoint mark and the flush.
    pub checkpoint_write_us: Histogram,
    /// `wal.writer_errors`: writer-side failures (I/O error or backend
    /// crash). Anything above 0 means the pipeline is dead.
    pub writer_errors: Counter,
    /// `recover.*`: what each [`crate::walstore::WalStore::crash_and_recover`]
    /// read and where its time went, phase by phase.
    recover: RecoverMetrics,
}

/// One recovery's [`RecoveryStats`], as counters and per-phase
/// microsecond histograms.
#[derive(Debug, Clone)]
struct RecoverMetrics {
    snapshots_read: Counter,
    records_decoded: Counter,
    rows_loaded: Counter,
    read_us: Histogram,
    decode_us: Histogram,
    load_rows_us: Histogram,
    indexes_us: Histogram,
    views_us: Histogram,
    replay_us: Histogram,
}

impl WalMetrics {
    pub fn new(registry: &MetricsRegistry) -> Self {
        WalMetrics {
            commits: registry.counter("wal.commits"),
            commit_ops: registry.counter("wal.commit_ops"),
            commit_batch_ops: registry.histogram("wal.commit_batch_ops", SIZE_BUCKETS),
            enqueue_to_durable_us: registry
                .histogram("wal.enqueue_to_durable_us", LATENCY_US_BUCKETS),
            queue_depth: registry.gauge("wal.queue_depth"),
            watermark_lag: registry.gauge("wal.watermark_lag"),
            flushes: registry.counter("wal.flushes"),
            flush_commits: registry.histogram("wal.flush_commits", SIZE_BUCKETS),
            checkpoints: registry.counter("wal.checkpoints"),
            checkpoint_encode_us: registry.histogram("checkpoint.encode_us", LATENCY_US_BUCKETS),
            checkpoint_write_us: registry.histogram("checkpoint.write_us", LATENCY_US_BUCKETS),
            writer_errors: registry.counter("wal.writer_errors"),
            recover: RecoverMetrics {
                snapshots_read: registry.counter("recover.snapshots_read"),
                records_decoded: registry.counter("recover.records_decoded"),
                rows_loaded: registry.counter("recover.rows_loaded"),
                read_us: registry.histogram("recover.read_us", LATENCY_US_BUCKETS),
                decode_us: registry.histogram("recover.decode_us", LATENCY_US_BUCKETS),
                load_rows_us: registry.histogram("recover.load_rows_us", LATENCY_US_BUCKETS),
                indexes_us: registry.histogram("recover.indexes_us", LATENCY_US_BUCKETS),
                views_us: registry.histogram("recover.views_us", LATENCY_US_BUCKETS),
                replay_us: registry.histogram("recover.replay_us", LATENCY_US_BUCKETS),
            },
        }
    }

    /// Report one finished recovery.
    pub fn observe_recovery(&self, stats: &RecoveryStats) {
        let r = &self.recover;
        r.snapshots_read.add(stats.snapshots_read);
        r.records_decoded.add(stats.records_decoded);
        r.rows_loaded.add(stats.rows_loaded);
        for (phase, spent) in [
            (&r.read_us, stats.read),
            (&r.decode_us, stats.decode),
            (&r.load_rows_us, stats.load_rows),
            (&r.indexes_us, stats.indexes),
            (&r.views_us, stats.views),
            (&r.replay_us, stats.replay),
        ] {
            phase.observe(spent.as_micros() as u64);
        }
    }
}
