//! # gamedb-core
//!
//! The game-state database at the center of this workspace: a columnar
//! entity store, a declarative query engine with aggregates, and the
//! state–effect tick execution model that makes script processing
//! parallelizable — the architecture the SIGMOD'09 tutorial's performance
//! section describes via its references \[11\] and \[13\].
//!
//! ## Contents
//!
//! * [`entity`] — generational entity ids ([`EntityId`]).
//! * [`column`](mod@column) — typed columnar component storage ([`Column`]).
//! * [`world`] — the [`World`]: rows = entities, columns = components,
//!   with a spatial index over the reserved `pos` column.
//! * [`query`] — declarative selection + aggregates ([`Query`],
//!   [`AggFn`]). Every core aggregate — [`aggregate`], a group plan's
//!   [`ViewPlan::evaluate`], a group view's seed and its maintenance —
//!   folds through one crate-private accumulator (`agg`): NaN skipped,
//!   a zero extreme read as `+0.0`, and the one `Sum` that exact sums
//!   will replace.
//! * [`index`](mod@index) — secondary attribute indexes
//!   ([`SecondaryIndex`], [`IndexKind`]), registered via
//!   [`World::create_index`].
//! * [`intern`](mod@intern) — interned component ids ([`ComponentId`]):
//!   the small-int column ids change records, WAL frames, and
//!   replication segments carry instead of cloned name strings.
//! * [`planner`] — table statistics and cost-based plan selection
//!   ([`TableStats`], [`plan`]) over scan / spatial / attribute-index
//!   access paths.
//! * [`change`](mod@change) — the unified change-capture pipeline: one
//!   ordered, tick-stamped mutation stream ([`Change`]) behind every
//!   write, with pluggable taps ([`World::attach_tap`]) feeding views,
//!   durability, and replication, and the batch commit surface
//!   ([`WriteBatch`], [`World::apply_batch`]).
//! * [`view`](mod@view) — continuous queries: standing views maintained
//!   incrementally by folding the change stream — handles, slots and
//!   deltas by subscription ([`World::register_view`], [`ViewDelta`]).
//! * [`dvm`](mod@dvm) — differential view maintenance, the engine
//!   behind every view: operator trees (filter / project / join /
//!   group-by) maintained by per-operator delta rules ([`ViewPlan`],
//!   [`World::register_view_plan`]).
//! * [`effect`] — deferred commutative writes ([`EffectBuffer`]).
//! * [`exec`] — sequential/parallel tick execution ([`TickExecutor`]).
//!
//! ```
//! use gamedb_core::{Query, TickExecutor, World, Effect, EffectBuffer};
//! use gamedb_content::{CmpOp, Value, ValueType};
//! use gamedb_spatial::Vec2;
//!
//! let mut world = World::new();
//! world.define_component("hp", ValueType::Float).unwrap();
//! let hero = world.spawn_at(Vec2::new(0.0, 0.0));
//! world.set_f32(hero, "hp", 100.0).unwrap();
//!
//! // a regeneration system, run for one tick
//! let regen = |id, _w: &World, buf: &mut EffectBuffer| {
//!     buf.push(id, "hp", Effect::Add(5.0));
//! };
//! TickExecutor::sequential().run_tick(&mut world, &[&regen]).unwrap();
//! assert_eq!(world.get_f32(hero, "hp"), Some(105.0));
//!
//! // a declarative query over the world database
//! let wounded = Query::select()
//!     .filter("hp", CmpOp::Lt, Value::Float(200.0))
//!     .run(&world);
//! assert_eq!(wounded, vec![hero]);
//! ```

pub(crate) mod agg;
pub mod change;
pub mod column;
pub mod dvm;
pub mod effect;
pub mod entity;
pub mod exec;
pub mod index;
pub mod intern;
pub(crate) mod metrics;
pub mod planner;
pub mod query;
pub mod view;
pub mod world;

pub use change::{
    BatchOp, Change, ChangeOp, DurabilityWatermark, TapId, TapStats, WatermarkSnapshot, WriteBatch,
};
pub use column::{Column, ColumnData, StrColumn, NO_CODE};
pub use dvm::{GroupRow, JoinOn, PlanNode, PlanOutput, ViewPlan};
pub use effect::{Effect, EffectBuffer, EffectMark, EffectOps, SpawnRequest};
pub use entity::{EntityAllocator, EntityId};
pub use exec::{System, TickExecutor, TickStats};
pub use index::{IndexKey, IndexKind, SecondaryIndex};
pub use intern::ComponentId;
pub use planner::{plan, Access, ColumnStats, Plan, TableStats};
pub use query::{aggregate, compare, AggFn, AggResult, Pred, Query};
pub use view::{ViewDelta, ViewId, ViewStats};
pub use world::{BulkLoader, CoreError, World, WorldCatalog, POS, POS_ID};
