//! # gamedb — database technology for computer games
//!
//! Umbrella crate re-exporting every subsystem of this workspace, a full
//! Rust implementation of the systems surveyed in *Database Research in
//! Computer Games* (Demers, Gehrke, Koch, Sowell, White — SIGMOD 2009).
//!
//! * [`content`] — data-driven design: GDML markup, entity templates,
//!   triggers, UI specs, expansion-pack patches.
//! * [`script`] — GSL: the designer scripting language with a restricted
//!   level, an AST optimizer, a tree-walking interpreter, and a bytecode
//!   VM that runs each script set-at-a-time over its bound entities.
//! * [`spatial`] — the uniform-grid index (with its brute-force oracle)
//!   and annotated navigation meshes.
//! * [`core`] — the world database: columnar components, declarative
//!   queries + aggregates, a cost-based planner, state–effect ticks.
//! * [`sync`] — MMO consistency: action transactions, 2PL / OCC /
//!   causality-bubble executors, shard placement, cluster execution,
//!   aggro management, replication, exploit auditing.
//! * [`persist`] — the engineering layer: snapshots, WAL, intelligent
//!   checkpointing, incremental deltas, crash recovery, schema
//!   migration.
//! * [`metrics`] — the observability surface: lock-cheap counters,
//!   gauges, and histograms every subsystem reports through when a
//!   [`metrics::MetricsRegistry`] is attached (`World::attach_metrics`,
//!   `WalStore::attach_metrics`, …), with mergeable snapshots and text
//!   / JSON export.
//! * [`continuous`] — designer triggers on a live world: crossings read
//!   from the change stream, guards compiled to core predicates
//!   ([`TriggerRunner`]).
//!
//! See the repository's `README.md` for the architecture diagram, and
//! `docs/ARCHITECTURE.md` for the system inventory and, under "Where
//! each paper claim is checked", the test or example that holds each
//! of the paper's claims E1–E14.
//!
//! ```
//! use gamedb::core::World;
//! use gamedb::spatial::Vec2;
//!
//! let mut world = World::new();
//! let hero = world.spawn_at(Vec2::new(1.0, 2.0));
//! assert_eq!(world.pos(hero), Some(Vec2::new(1.0, 2.0)));
//! ```

pub mod continuous;
#[cfg(test)]
mod trigger;

pub use continuous::TriggerRunner;
pub use gamedb_content as content;
pub use gamedb_core as core;
pub use gamedb_metrics as metrics;
pub use gamedb_persist as persist;
pub use gamedb_script as script;
pub use gamedb_spatial as spatial;
pub use gamedb_sync as sync;
