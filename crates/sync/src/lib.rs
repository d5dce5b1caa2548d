//! # gamedb-sync
//!
//! MMO consistency machinery from *Database Research in Computer Games*
//! (SIGMOD 2009): player actions as transactions, executors ranging from
//! the global-lock baseline through two-phase locking and optimistic
//! concurrency to **causality bubbles** (the EVE-style motion-predicted
//! partitioning the paper highlights), plus **aggro management** (role-
//! based combat without exact spatial fidelity) and **replication** with
//! weak consistency levels.
//!
//! ## Contents
//!
//! * [`action`] — actions with read/write footprints ([`Action`]).
//! * [`executor`] — [`SerialExecutor`], [`LockingExecutor`],
//!   [`OptimisticExecutor`] behind the [`Executor`] trait.
//! * [`bubbles`] — motion-predicted partitioning ([`BubbleExecutor`]).
//! * [`aggro`] — threat tables and targeting policies ([`AggroTable`]).
//! * [`replication`] — consistency levels and divergence metrics
//!   ([`Replicator`]).
//! * [`shard`] — multi-server dynamic map partitioning
//!   ([`ShardManager`]).
//! * [`router`] — cross-shard change shipping: segment-streamed entity
//!   handoff and warm standbys ([`ShardRouter`]).
//! * [`cluster`] — distributed tick execution over the shard placement,
//!   with a 2PC cost model for cross-node actions ([`ClusterExecutor`]).
//! * [`invariant`] — dupe/speed-hack exploit models and the invariant
//!   auditor that catches them ([`Auditor`], [`RacyExecutor`]).
//! * [`view`] — read views for action execution; the overlay that gives
//!   bubbles serial-within-bubble semantics ([`OverlayView`]).
//! * [`workload`] — reproducible MMO workload generators ([`Workload`]).
//!
//! ## Tick semantics
//!
//! All wave-parallel executors give every action in a tick a read view of
//! the tick-start state and apply writes through commutative effects, so
//! conflict-free groups may execute in any order (and on any thread) with
//! identical results — the same state–effect discipline as the engine's
//! script executor.

pub mod action;
pub mod aggro;
pub mod bubbles;
pub mod cluster;
pub mod executor;
pub mod invariant;
pub(crate) mod metrics;
pub mod replication;
pub mod router;
pub mod shard;
pub mod view;
pub mod workload;

pub use action::{arena_world, Action};
pub use aggro::{AggroTable, AggroTargeting, CandidateView, NearestTargeting, Role, Targeting};
pub use bubbles::{
    partition, BubbleConfig, BubbleExecutor, BubbleTracker, Partition, UnionFind,
};
pub use cluster::{ClusterCost, ClusterExecutor, ClusterStats};
pub use executor::{ExecStats, Executor, LockingExecutor, OptimisticExecutor, SerialExecutor};
pub use invariant::{
    collapse_moves, inject_speed_hacks, wealth, AuditReport, Auditor, RacyExecutor,
};
pub use replication::{
    ConsistencyLevel, DeltaSegment, Divergence, Interest, Replica, Replicator,
};
pub use router::{node_oracle, HandoffReport, ShardRouter};
pub use shard::{step_flock, AssignPolicy, NodeId, ShardAssignment, ShardManager, ShardStats};
pub use view::{OverlayView, StateView};
pub use workload::{ActionMix, Workload, WorkloadConfig};
