//! Distribution-layer instrumentation: the cached metric handles a
//! [`crate::replication::Replicator`] and a
//! [`crate::shard::ShardManager`] report through when a
//! [`gamedb_metrics::MetricsRegistry`] is attached.
//!
//! Several replicators (one per client) typically share one registry;
//! their counters sum into fleet totals, which is exactly what the
//! cluster report wants. Per-client accounting stays on the replicator
//! itself (`rows_sent` / `bytes_sent`).

use gamedb_metrics::{Counter, Gauge, MetricsRegistry};

/// Cached handles for replication shipping. Catalog in ARCHITECTURE.md
/// § Observability.
#[derive(Debug, Clone)]
pub(crate) struct ReplMetrics {
    /// `repl.segments`: delta segments shipped.
    pub segments: Counter,
    /// `repl.segment_bytes`: wire bytes across all delta segments.
    pub segment_bytes: Counter,
    /// `repl.rows`: rows shipped in delta segments.
    pub rows: Counter,
    /// `repl.full_rows`: entities shipped as complete row images (first
    /// sight, or re-entry after their rows were dropped).
    pub full_rows: Counter,
    /// `repl.delta_rows`: entities shipped as changed-columns-only
    /// deltas.
    pub delta_rows: Counter,
    /// `repl.full_walks`: full-walk syncs (no stream attached, or the
    /// priming walk).
    pub full_walks: Counter,
    /// `repl.full_walk_bytes`: wire bytes across all full walks.
    pub full_walk_bytes: Counter,
    /// `repl.resyncs`: tap evictions or dropped view subscriptions that
    /// forced a live resync — a consumer stalled past the retention
    /// window.
    pub resyncs: Counter,
    /// `repl.gated_ticks`: Strict-level syncs refused because the
    /// durability watermark had not drained.
    pub gated_ticks: Counter,
    /// `repl.fold_records`: change records a stream sync examined.
    pub fold_records: Counter,
    /// `repl.fold_kept`: records that survived the interest filter
    /// (entity in the bubble view, unpositioned, or dead) and reached
    /// the dirty set.
    pub fold_kept: Counter,
    /// `repl.candidates`: entities a stream sync visited.
    pub candidates: Counter,
    /// `repl.drops`: entities forgotten from replicas by the stream path
    /// (died, or left `radius + margin`).
    pub drops: Counter,
}

impl ReplMetrics {
    pub fn new(registry: &MetricsRegistry) -> Self {
        ReplMetrics {
            segments: registry.counter("repl.segments"),
            segment_bytes: registry.counter("repl.segment_bytes"),
            rows: registry.counter("repl.rows"),
            full_rows: registry.counter("repl.full_rows"),
            delta_rows: registry.counter("repl.delta_rows"),
            full_walks: registry.counter("repl.full_walks"),
            full_walk_bytes: registry.counter("repl.full_walk_bytes"),
            resyncs: registry.counter("repl.resyncs"),
            gated_ticks: registry.counter("repl.gated_ticks"),
            fold_records: registry.counter("repl.fold_records"),
            fold_kept: registry.counter("repl.fold_kept"),
            candidates: registry.counter("repl.candidates"),
            drops: registry.counter("repl.drops"),
        }
    }
}

/// Cached handles for shard rebalancing.
#[derive(Debug, Clone)]
pub(crate) struct ShardMetrics {
    /// `shard.ticks`: placement rounds computed.
    pub ticks: Counter,
    /// `shard.handoffs`: player migrations between nodes across all
    /// rounds (the paper's handoff cost).
    pub handoffs: Counter,
    /// `shard.imbalance`: busiest-node overload factor at the last
    /// round, in percent (100 = perfectly balanced).
    pub imbalance_pct: Gauge,
    /// `shard.cross_node_permille`: fraction of actions spanning nodes
    /// at the last round, in permille.
    pub cross_node_permille: Gauge,
    /// `shard.partition_reprobed`: entities whose bubble edges were
    /// re-probed through the spatial index (moved, sped up, spawned) —
    /// the work the maintained partition did instead of re-deriving
    /// the world.
    pub partition_reprobed: Counter,
    /// `shard.bubbles`: causality bubbles at the last round.
    pub bubbles: Gauge,
    /// `shard.edges`: overlapping reach-disk pairs (the bubble edge
    /// set) at the last round.
    pub edges: Gauge,
}

impl ShardMetrics {
    pub fn new(registry: &MetricsRegistry) -> Self {
        ShardMetrics {
            ticks: registry.counter("shard.ticks"),
            handoffs: registry.counter("shard.handoffs"),
            imbalance_pct: registry.gauge("shard.imbalance"),
            cross_node_permille: registry.gauge("shard.cross_node_permille"),
            partition_reprobed: registry.counter("shard.partition_reprobed"),
            bubbles: registry.gauge("shard.bubbles"),
            edges: registry.gauge("shard.edges"),
        }
    }
}

/// Cached handles for cross-shard change shipping
/// ([`crate::router::ShardRouter`]).
#[derive(Debug, Clone)]
pub(crate) struct RouterMetrics {
    /// `shard.handoff_segments`: non-empty handoff segments shipped
    /// across all node links.
    pub segments: Counter,
    /// `shard.handoff_bytes`: wire bytes across all handoff segments
    /// (delta framing).
    pub bytes: Counter,
    /// `shard.handoff_rows`: rows (puts) shipped in handoff segments.
    pub rows: Counter,
    /// `shard.handoff_entities`: entities that changed owner (excludes
    /// the priming tick, which seeds state rather than moving it).
    pub entities: Counter,
    /// `shard.handoff_baseline_bytes`: what the same traffic would have
    /// cost shipped as full row images under the legacy row framing —
    /// the by-value baseline `shard.handoff_bytes` must undercut.
    pub baseline_bytes: Counter,
    /// `shard.handoff_resyncs`: node links evicted from the change
    /// stream (stalled past retention) and re-shipped whole.
    pub resyncs: Counter,
    /// `shard.handoff_diff_scanned`: owner-table slots compared against
    /// the previous placement to find gained/lost entities.
    pub diff_scanned: Counter,
    /// `standby.lag`: worst unapplied-segment tail across warm
    /// standbys at the last router tick.
    pub standby_lag: Gauge,
    /// `standby.replays`: segments replayed at failover promotions.
    pub standby_replays: Counter,
}

impl RouterMetrics {
    pub fn new(registry: &MetricsRegistry) -> Self {
        RouterMetrics {
            segments: registry.counter("shard.handoff_segments"),
            bytes: registry.counter("shard.handoff_bytes"),
            rows: registry.counter("shard.handoff_rows"),
            entities: registry.counter("shard.handoff_entities"),
            baseline_bytes: registry.counter("shard.handoff_baseline_bytes"),
            resyncs: registry.counter("shard.handoff_resyncs"),
            diff_scanned: registry.counter("shard.handoff_diff_scanned"),
            standby_lag: registry.gauge("standby.lag"),
            standby_replays: registry.counter("standby.replays"),
        }
    }
}
