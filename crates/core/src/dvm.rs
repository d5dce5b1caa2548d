//! Differential view maintenance: the view engine.
//!
//! A standing question is rarely just a filter: "guild wealth
//! leaderboard" is a group-by aggregate, "players near any flagged mob"
//! is a spatial join, "per-zone population" is a group-by count. Every
//! standing view is therefore a relational **operator tree**
//! ([`ViewPlan`]) maintained by per-operator delta rules in the DBSP /
//! Z-set style: every operator consumes its input's delta batch — rows
//! carried with ±1 multiplicity — and emits its own, folded from the
//! world's change-stream segments. A plain standing query is the
//! one-leaf tree ([`Query::into_plan`]); filter is a linear operator and
//! needs no engine of its own.
//!
//! ## Operator taxonomy
//!
//! * [`PlanNode::Scan`] — the leaf: a standing [`Query`] over the world,
//!   optionally pinned to one entity (`only`, the "self" side of an
//!   aggro join).
//! * [`PlanNode::Filter`] / [`PlanNode::Project`] — entity-keyed row
//!   transforms. They are **fused into their scan at compile time**: a
//!   `Scan → Filter* → Project*` chain compiles to one [`Source`] whose
//!   membership test is the conjunction of every predicate and whose
//!   stored tuple carries exactly the columns downstream operators read.
//!   Fusion keeps the hot path one hash probe + one membership check per
//!   candidate instead of one allocation per operator per delta.
//! * [`PlanNode::Join`] — binary, over two source chains. Equi-joins
//!   ([`JoinOn::Eq`]) key both sides in the same coercion domain the
//!   secondary indexes use ([`crate::index::IndexKey`]), so `Int 3`
//!   joins `Float 3.0`. Spatial-radius joins ([`JoinOn::Within`]) pair
//!   rows within `radius` of each other via per-side uniform cell maps
//!   (cell edge = radius, 9-cell probe). Self-pairs (`l == r`) are
//!   excluded.
//! * [`PlanNode::GroupAggregate`] — group rows by an optional column and
//!   fold [`AggFn`] over each group. `count`/`sum`/`avg` maintain O(1)
//!   running state; `min`/`max` keep a per-group ordered multiset so a
//!   retraction of the current extreme **retracts-and-recomputes** from
//!   the next element instead of rescanning the base table (counted in
//!   `view.op_group.retract_recomputes`).
//!
//! ## Delta rules
//!
//! A source turns a change-stream segment into a net per-entity delta:
//! insert (`+row`), delete (`−row`, with the *remembered* old tuple — a
//! despawn never needs a row image), or update (`−old +new`). Joins
//! apply the bilinear rule `ΔJ = ΔL ⋈ R_old  +  L_new ⋈ ΔR`
//! sequentially — left deltas probe the pre-batch right state, right
//! deltas probe the post-batch left state — accumulating pair weights
//! that cancel to the net entered/exited sets. Group aggregates fold
//! each ±row into its group's running state and diff the rebuilt group
//! table. Membership itself is always re-evaluated against the
//! *post-batch* world (never trusted from the log), so duplicate or
//! stale deltas cannot corrupt a view.
//!
//! ## Equivalence and determinism
//!
//! [`ViewPlan::evaluate`] builds the same state from a cold start — the
//! forced-recompute oracle every operator is held equal to (unit tests
//! here, `operator_views_track_scan_oracle_under_churn` in
//! `tests/prop_core.rs`, and the persist crash-point sweep). Outputs are
//! deterministically ordered: row views by entity id, pair views by
//! `(left, right)`, group views by group key. Incremental `sum`/`avg`
//! maintain a running `f64` — exact for integer-valued columns (the
//! leaderboard case), subject to the usual float re-association drift
//! otherwise; `min`/`max`/`count` are exact for every column type. NaN
//! aggregate inputs are skipped entirely (SQL NULL semantics, shared
//! with [`crate::query::aggregate`]), and a NaN join key joins nothing.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use gamedb_content::Value;
use gamedb_spatial::Vec2;

use crate::column::Column;
use crate::entity::EntityId;
use crate::index::{append_posting, IndexKey, KeyBuf, KeyRef, OrdF64};
use crate::intern::ComponentId;
use crate::metrics::CoreMetrics;
use crate::query::{AggFn, Pred, Query};
use crate::view::{Changelog, FoldCtx, ViewStats};
use crate::world::{CoreError, World};

/// Decode safety bound on operator-chain depth (catalog records are
/// parsed from disk; a corrupt length must not recurse unboundedly).
pub const MAX_PLAN_DEPTH: usize = 16;

/// Join condition of a [`PlanNode::Join`].
#[derive(Debug, Clone, PartialEq)]
pub enum JoinOn {
    /// Equi-join: `left.column == right.column` in the numeric-coercion
    /// domain of [`crate::query::compare`].
    Eq { left: String, right: String },
    /// Spatial-radius join: pair rows whose positions are within
    /// `radius` of each other.
    Within { radius: f32 },
}

/// One node of an operator tree. Trees are built leaf-up with the
/// combinators on [`PlanNode`] / [`ViewPlan`] and are plain data —
/// serializable into the durable catalog by the persist crate.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    /// Leaf: a standing query over the world, optionally pinned to a
    /// single entity (`only`) — the "self" side of an aggro join.
    Scan { query: Query, only: Option<EntityId> },
    /// Selection: keep rows passing `pred`.
    Filter { input: Box<PlanNode>, pred: Pred },
    /// Projection: narrow the visible columns to `columns`.
    Project { input: Box<PlanNode>, columns: Vec<String> },
    /// Binary join of two scan chains.
    Join {
        left: Box<PlanNode>,
        right: Box<PlanNode>,
        on: JoinOn,
    },
    /// Grouped aggregate over one scan chain. `group_by: None` is the
    /// single global group.
    GroupAggregate {
        input: Box<PlanNode>,
        group_by: Option<String>,
        agg: AggFn,
    },
}

impl PlanNode {
    /// Leaf over a standing query.
    pub fn scan(query: Query) -> PlanNode {
        PlanNode::Scan { query, only: None }
    }

    /// Leaf pinned to one entity: the row set is `{only}` intersected
    /// with the query's matches.
    pub fn scan_only(query: Query, only: EntityId) -> PlanNode {
        PlanNode::Scan {
            query,
            only: Some(only),
        }
    }

    /// Wrap in a filter.
    pub fn filtered(self, pred: Pred) -> PlanNode {
        PlanNode::Filter {
            input: Box::new(self),
            pred,
        }
    }

    /// Wrap in a projection.
    pub fn project(self, columns: Vec<String>) -> PlanNode {
        PlanNode::Project {
            input: Box::new(self),
            columns,
        }
    }
}

/// A complete operator tree, the unit the world registers, the catalog
/// persists, and recovery re-installs at its exact slot.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewPlan {
    /// Root operator. Public so the persist crate can encode the tree.
    pub root: PlanNode,
}

impl ViewPlan {
    /// Wrap a finished node tree.
    pub fn new(root: PlanNode) -> ViewPlan {
        ViewPlan { root }
    }

    /// Single-table plan equivalent to a standing [`Query`] view.
    pub fn scan(query: Query) -> ViewPlan {
        ViewPlan::new(PlanNode::scan(query))
    }

    /// Join of two scan chains.
    pub fn join(left: PlanNode, right: PlanNode, on: JoinOn) -> ViewPlan {
        ViewPlan::new(PlanNode::Join {
            left: Box::new(left),
            right: Box::new(right),
            on,
        })
    }

    /// Grouped aggregate: one output row per distinct value of `column`.
    pub fn group_by(input: PlanNode, column: impl Into<String>, agg: AggFn) -> ViewPlan {
        ViewPlan::new(PlanNode::GroupAggregate {
            input: Box::new(input),
            group_by: Some(column.into()),
            agg,
        })
    }

    /// Global aggregate: a single output row over every input row.
    pub fn aggregate(input: PlanNode, agg: AggFn) -> ViewPlan {
        ViewPlan::new(PlanNode::GroupAggregate {
            input: Box::new(input),
            group_by: None,
            agg,
        })
    }

    /// Structural validation without touching a world: operator nesting,
    /// projection/column visibility, aggregate support, depth bound.
    pub fn validate(&self) -> Result<(), CoreError> {
        compile(self).map(|_| ())
    }

    /// Forced recompute from a cold start — the equivalence oracle every
    /// incrementally maintained instance of this plan is held equal to.
    /// Nothing is materialized that the answer does not need: a rows
    /// root returns its source's members, a group root folds them from
    /// a sorted run read by slot ([`GroupTable::fold_run`]); only a join
    /// builds its operator state.
    pub fn evaluate(&self, world: &World) -> Result<PlanOutput, CoreError> {
        Ok(match compile(self)? {
            OpState::Rows(s) => PlanOutput::Rows(s.source.evaluate(world)),
            OpState::Group(s) => {
                let members = s.source.evaluate(world);
                let mut out = Vec::new();
                s.table.fold_run(world, &s.source.src.schema, &members, |key, g| {
                    out.push(GroupRow {
                        key: key.map(key_repr),
                        value: g.value(s.table.agg),
                    })
                });
                PlanOutput::Groups(out)
            }
            OpState::Join(mut s) => {
                s.init(world);
                PlanOutput::Pairs(s.pairs)
            }
        })
    }
}

/// One output row of a group-aggregate view: the (normalized) group key
/// — `None` for the global group — and the aggregate value.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupRow {
    pub key: Option<Value>,
    pub value: f64,
}

/// Materialized output of [`ViewPlan::evaluate`].
#[derive(Debug, Clone, PartialEq)]
pub enum PlanOutput {
    /// Entity rows, ascending by id.
    Rows(Vec<EntityId>),
    /// Join pairs, ascending by `(left, right)`.
    Pairs(Vec<(EntityId, EntityId)>),
    /// Group rows, ascending by group key.
    Groups(Vec<GroupRow>),
}

impl PlanOutput {
    /// Row output, if this plan materializes entity rows.
    pub fn as_rows(&self) -> Option<&[EntityId]> {
        match self {
            PlanOutput::Rows(r) => Some(r),
            _ => None,
        }
    }

    /// Pair output, if this plan is a join.
    pub fn as_pairs(&self) -> Option<&[(EntityId, EntityId)]> {
        match self {
            PlanOutput::Pairs(p) => Some(p),
            _ => None,
        }
    }

    /// Group output, if this plan is a grouped aggregate.
    pub fn as_groups(&self) -> Option<&[GroupRow]> {
        match self {
            PlanOutput::Groups(g) => Some(g),
            _ => None,
        }
    }
}

/// Membership changes a join view accumulated since its changelog was
/// last taken. Both vectors are sorted by `(left, right)` within each
/// refresh batch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PairChangelog {
    pub entered: Vec<(EntityId, EntityId)>,
    pub exited: Vec<(EntityId, EntityId)>,
}

impl PairChangelog {
    /// True when no pairs entered or exited.
    pub fn is_empty(&self) -> bool {
        self.entered.is_empty() && self.exited.is_empty()
    }
}

/// Group-level changes a group-aggregate view accumulated since its
/// changelog was last taken: groups that appeared, disappeared (with
/// their last value), or changed value (with the new value). Sorted by
/// group key within each refresh batch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroupChangelog {
    pub entered: Vec<GroupRow>,
    pub exited: Vec<GroupRow>,
    pub changed: Vec<GroupRow>,
}

impl GroupChangelog {
    /// True when no group appeared, disappeared, or changed value.
    pub fn is_empty(&self) -> bool {
        self.entered.is_empty() && self.exited.is_empty() && self.changed.is_empty()
    }
}

// ---------------------------------------------------------------------
// Compilation: plan → fused sources + operator kind
// ---------------------------------------------------------------------

/// A `Scan → Filter* → Project*` chain fused into one physical source:
/// membership is the conjunction of every predicate (scan + filters),
/// the stored tuple carries exactly the columns downstream consumers
/// read (`schema`), plus the position when a spatial join needs it.
#[derive(Debug, Clone)]
struct Source {
    query: Query,
    only: Option<EntityId>,
    schema: Vec<String>,
    needs_pos: bool,
}

/// Fuse the chain rooted at `node` down to its scan. `need` lists the
/// columns the consumer reads from each row; they must survive every
/// projection on the path, as must the column of any filter sitting
/// above that projection.
fn compile_source(node: &PlanNode, need: &[String], needs_pos: bool) -> Result<Source, CoreError> {
    let mut chain: Vec<&PlanNode> = Vec::new();
    let mut cur = node;
    loop {
        if chain.len() >= MAX_PLAN_DEPTH {
            return Err(CoreError::PlanInvalid("operator chain exceeds depth bound"));
        }
        match cur {
            PlanNode::Scan { .. } => break,
            PlanNode::Filter { input, .. } | PlanNode::Project { input, .. } => {
                chain.push(cur);
                cur = input;
            }
            PlanNode::Join { .. } | PlanNode::GroupAggregate { .. } => {
                return Err(CoreError::PlanInvalid(
                    "join and group-aggregate operators must be the plan root",
                ));
            }
        }
    }
    let (mut query, only) = match cur {
        PlanNode::Scan { query, only } => (query.clone(), *only),
        _ => unreachable!("loop breaks only on Scan"),
    };
    // Apply the chain in dataflow order (scan upward), tracking which
    // columns remain visible. `None` = every column.
    let mut visible: Option<BTreeSet<&str>> = None;
    for op in chain.iter().rev() {
        match op {
            PlanNode::Filter { pred, .. } => {
                if let Some(v) = &visible {
                    if !v.contains(pred.component.as_str()) {
                        return Err(CoreError::PlanInvalid(
                            "filter references a projected-away column",
                        ));
                    }
                }
                query = query.filter(pred.component.clone(), pred.op, pred.value.clone());
            }
            PlanNode::Project { columns, .. } => {
                let keep: BTreeSet<&str> = columns
                    .iter()
                    .map(|c| c.as_str())
                    .filter(|c| visible.as_ref().is_none_or(|v| v.contains(c)))
                    .collect();
                visible = Some(keep);
            }
            _ => unreachable!("chain holds only filters and projections"),
        }
    }
    if let Some(v) = &visible {
        for col in need {
            if !v.contains(col.as_str()) {
                return Err(CoreError::PlanInvalid(
                    "consumer column does not survive the projection",
                ));
            }
        }
    }
    let mut schema: Vec<String> = need.to_vec();
    schema.sort();
    schema.dedup();
    Ok(Source {
        query,
        only,
        schema,
        needs_pos,
    })
}

/// Compile a plan into its (empty) runtime state.
fn compile(plan: &ViewPlan) -> Result<OpState, CoreError> {
    match &plan.root {
        PlanNode::Join { left, right, on } => {
            let (l_src, r_src, on_c) = match on {
                JoinOn::Eq { left: lc, right: rc } => {
                    let l_src = compile_source(left, std::slice::from_ref(lc), false)?;
                    let r_src = compile_source(right, std::slice::from_ref(rc), false)?;
                    let l = l_src
                        .schema
                        .iter()
                        .position(|c| c == lc)
                        .expect("key column is in the schema it seeded");
                    let r = r_src
                        .schema
                        .iter()
                        .position(|c| c == rc)
                        .expect("key column is in the schema it seeded");
                    (l_src, r_src, JoinOnC::Eq { l, r })
                }
                JoinOn::Within { radius } => {
                    if !(radius.is_finite() && *radius > 0.0) {
                        return Err(CoreError::PlanInvalid(
                            "spatial join radius must be finite and positive",
                        ));
                    }
                    let l_src = compile_source(left, &[], true)?;
                    let r_src = compile_source(right, &[], true)?;
                    (l_src, r_src, JoinOnC::Within { radius: *radius })
                }
            };
            let mk_idx = || match on_c {
                JoinOnC::Eq { .. } => SideIndex::Keyed(HashMap::new()),
                JoinOnC::Within { radius } => SideIndex::Cells {
                    cell: radius,
                    map: HashMap::new(),
                },
            };
            Ok(OpState::Join(JoinState {
                l_idx: mk_idx(),
                r_idx: mk_idx(),
                left: SourceState::new(l_src),
                right: SourceState::new(r_src),
                on: on_c,
                pairs: Vec::new(),
                log: PairChangelog::default(),
            }))
        }
        PlanNode::GroupAggregate {
            input,
            group_by,
            agg,
        } => {
            let (kind, agg_col_name) = match agg {
                AggFn::Count => (AggKind::Count, None),
                AggFn::Sum(c) => (AggKind::Sum, Some(c.clone())),
                AggFn::Min(c) => (AggKind::Min, Some(c.clone())),
                AggFn::Max(c) => (AggKind::Max, Some(c.clone())),
                AggFn::Avg(c) => (AggKind::Avg, Some(c.clone())),
                AggFn::ArgMin(_) | AggFn::ArgMax(_) => {
                    return Err(CoreError::PlanInvalid(
                        "argmin/argmax aggregates are not supported in group-aggregate views",
                    ));
                }
            };
            let mut need: Vec<String> = Vec::new();
            if let Some(g) = group_by {
                need.push(g.clone());
            }
            if let Some(c) = &agg_col_name {
                need.push(c.clone());
            }
            let src = compile_source(input, &need, false)?;
            let key_col = group_by.as_ref().map(|g| {
                src.schema
                    .iter()
                    .position(|c| c == g)
                    .expect("group column is in the schema it seeded")
            });
            let agg_col = agg_col_name.map(|c| {
                src.schema
                    .iter()
                    .position(|s| *s == c)
                    .expect("aggregate column is in the schema it seeded")
            });
            Ok(OpState::Group(GroupState {
                source: SourceState::new(src),
                table: GroupTable {
                    key_col,
                    agg: kind,
                    agg_col,
                    groups: BTreeMap::new(),
                    key: KeyBuf::default(),
                    retracts: 0,
                },
                out: Vec::new(),
                out_keys: Vec::new(),
                log: GroupChangelog::default(),
            }))
        }
        chain => {
            let src = compile_source(chain, &[], false)?;
            Ok(OpState::Rows(RowsState {
                source: SourceState::new(src),
                out: Vec::new(),
                log: Changelog::default(),
            }))
        }
    }
}

// ---------------------------------------------------------------------
// Runtime: sources and their Z-set deltas
// ---------------------------------------------------------------------

/// One stored row: the schema columns (by position) plus the position
/// when a spatial join reads it. The remembered tuple is what lets a
/// retraction proceed without a row image — a despawned entity's old
/// join key / group value is read from here, never from the log.
#[derive(Debug, Clone, PartialEq)]
struct Tuple {
    cols: Vec<Option<Value>>,
    pos: Option<Vec2>,
}

/// Net ±1 delta for one entity in one batch: `(old, new)` with at least
/// one side present; both present means an in-place update (`−old +new`).
#[derive(Debug)]
struct RowDelta {
    id: EntityId,
    old: Option<Tuple>,
    new: Option<Tuple>,
}

/// Per-batch fold result of one source.
struct FoldOut {
    /// Candidate rows inspected (the scan stage's input size).
    cands: usize,
    /// Candidates passing the fused membership test.
    passed: usize,
    /// Net row deltas, ascending by entity id.
    deltas: Vec<RowDelta>,
}

/// What one refresh of a view did, for the maintenance counters every
/// view kind shares: candidate rows inspected, and changelog entries
/// delivered (rows, pairs or groups — whatever the view materializes).
struct Refreshed {
    cands: usize,
    entered: usize,
    exited: usize,
    changed: usize,
}

/// A source's tuple columns resolved against one world, once per batch
/// or seeding: per row the tuple is positional column reads, not a name
/// lookup per column.
struct TupleReader<'w> {
    cols: Vec<Option<&'w Column>>,
    pos: Option<&'w Column>,
}

impl<'w> TupleReader<'w> {
    fn new(src: &Source, world: &'w World) -> TupleReader<'w> {
        TupleReader {
            cols: src.schema.iter().map(|c| world.column(c)).collect(),
            pos: src
                .needs_pos
                .then(|| world.column_by_id(crate::world::POS_ID))
                .flatten(),
        }
    }

    /// The tuple of `id`, which must be live (members are: the
    /// membership test rejects dead ids).
    fn read(&self, id: EntityId) -> Tuple {
        let slot = id.index() as usize;
        Tuple {
            cols: self
                .cols
                .iter()
                .map(|col| col.and_then(|c| c.get(slot)))
                .collect(),
            pos: self
                .pos
                .and_then(|c| c.get_v2(slot))
                .map(|[x, y]| Vec2::new(x, y)),
        }
    }
}

/// A fused source with its materialized row tuples.
#[derive(Debug, Clone)]
struct SourceState {
    src: Source,
    rows: HashMap<EntityId, Tuple>,
}

impl SourceState {
    fn new(src: Source) -> SourceState {
        SourceState {
            src,
            rows: HashMap::new(),
        }
    }

    /// Interned ids of the components whose deltas can change this
    /// source's membership *or* stored tuples (sorted, deduped).
    fn tracked_ids(&self, world: &World) -> Vec<ComponentId> {
        let mut ids: Vec<ComponentId> = self
            .src
            .query
            .predicates()
            .iter()
            .filter_map(|p| world.component_id(&p.component))
            .collect();
        ids.extend(self.src.schema.iter().filter_map(|c| world.component_id(c)));
        if self.src.query.spatial().is_some() || self.src.needs_pos {
            ids.push(crate::world::POS_ID);
        }
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Fold one change-stream segment into the source: candidates are
    /// the structural deltas plus component deltas on tracked columns;
    /// each candidate's membership and tuple are re-read from the
    /// post-batch world and diffed against the stored row.
    fn fold(&mut self, world: &World, ctx: &FoldCtx<'_>) -> FoldOut {
        let tracked = self.tracked_ids(world);
        let mut cands: Vec<EntityId> = ctx.structural.to_vec();
        let mut i = 0;
        while i < ctx.comp_deltas.len() {
            let comp = ctx.comp_deltas[i].0;
            let start = i;
            while i < ctx.comp_deltas.len() && ctx.comp_deltas[i].0 == comp {
                i += 1;
            }
            if tracked.binary_search(&comp).is_ok() {
                cands.extend(ctx.comp_deltas[start..i].iter().map(|&(_, e)| e));
            }
        }
        if let Some(o) = self.src.only {
            cands.retain(|&c| c == o);
        }
        cands.sort_unstable();
        cands.dedup();

        // Columns resolve once per batch; per candidate the membership
        // test is positional reads, not name lookups.
        let matcher = self.src.query.matcher(world);
        let reader = TupleReader::new(&self.src, world);
        let mut passed = 0usize;
        let mut deltas = Vec::new();
        for &c in &cands {
            let now = matcher(c);
            if now {
                passed += 1;
            }
            match (self.rows.get(&c).cloned(), now) {
                (None, false) => {}
                (None, true) => {
                    let t = reader.read(c);
                    self.rows.insert(c, t.clone());
                    deltas.push(RowDelta {
                        id: c,
                        old: None,
                        new: Some(t),
                    });
                }
                (Some(old), false) => {
                    self.rows.remove(&c);
                    deltas.push(RowDelta {
                        id: c,
                        old: Some(old),
                        new: None,
                    });
                }
                (Some(old), true) => {
                    let t = reader.read(c);
                    if old != t {
                        self.rows.insert(c, t.clone());
                        deltas.push(RowDelta {
                            id: c,
                            old: Some(old),
                            new: Some(t),
                        });
                    }
                }
            }
        }
        FoldOut {
            cands: cands.len(),
            passed,
            deltas,
        }
    }

    /// The source's current members, ascending by id, evaluated through
    /// the planner ([`Query::run`]: index probe when one applies) — a
    /// pinned scan tests its one entity instead.
    fn evaluate(&self, world: &World) -> Vec<EntityId> {
        match self.src.only {
            Some(o) if self.src.query.matches(world, o) => vec![o],
            Some(_) => Vec::new(),
            None => self.src.query.run(world),
        }
    }

    /// Seed the row set from the live world (registration / recovery) —
    /// initial rows are state, not events. Members are read in
    /// ascending id order through columns resolved once, into a map
    /// sized for them; `each` sees every `(id, tuple)` in that order, so
    /// a join seeds its side postings in the same pass and by appending.
    /// Returns the member ids, ascending.
    fn init(&mut self, world: &World, mut each: impl FnMut(EntityId, &Tuple)) -> Vec<EntityId> {
        let ids = self.evaluate(world);
        let reader = TupleReader::new(&self.src, world);
        self.rows.reserve(ids.len());
        for &id in &ids {
            let t = reader.read(id);
            each(id, &t);
            self.rows.insert(id, t);
        }
        ids
    }
}

// ---------------------------------------------------------------------
// Rows operator (fused scan/filter/project chain at the root)
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct RowsState {
    source: SourceState,
    /// Materialized output, ascending by id.
    out: Vec<EntityId>,
    log: Changelog,
}

impl RowsState {
    fn refresh(
        &mut self,
        world: &World,
        ctx: &FoldCtx<'_>,
        metrics: Option<&CoreMetrics>,
    ) -> Refreshed {
        let fold = self.source.fold(world, ctx);
        let mut entered = Vec::new();
        let mut exited = Vec::new();
        for d in &fold.deltas {
            match (&d.old, &d.new) {
                (None, Some(_)) => entered.push(d.id),
                (Some(_), None) => exited.push(d.id),
                _ => {}
            }
        }
        if !entered.is_empty() || !exited.is_empty() {
            self.out = crate::view::apply_diff(&self.out, &entered, &exited);
        }
        // `changed`: touched rows that are (still) members and did not
        // just enter — `touched` is sorted, so the output is too.
        let changed: Vec<EntityId> = ctx
            .touched
            .iter()
            .copied()
            .filter(|t| self.out.binary_search(t).is_ok() && entered.binary_search(t).is_err())
            .collect();
        if let Some(m) = metrics {
            m.op_scan.note(fold.cands, fold.deltas.len());
            if !self.source.src.query.predicates().is_empty() {
                m.op_filter.note(fold.cands, fold.passed);
            }
        }
        let done = Refreshed {
            cands: fold.cands,
            entered: entered.len(),
            exited: exited.len(),
            changed: changed.len(),
        };
        self.log.absorb_batch(entered, exited, changed, false);
        done
    }

    /// Move the scan's `within` disk and re-evaluate through the planner
    /// once; the membership diff lands in the changelog as `entered` /
    /// `exited`, flagged as a rescan.
    fn retarget(&mut self, world: &World, center: Vec2, radius: f32) {
        self.source.src.query.retarget_within(center, radius);
        let rows = self.source.evaluate(world);
        let (entered, exited) = crate::view::diff_sorted(&self.out, &rows);
        for id in &exited {
            self.source.rows.remove(id);
        }
        let reader = TupleReader::new(&self.source.src, world);
        for &id in &entered {
            self.source.rows.insert(id, reader.read(id));
        }
        self.out = rows;
        self.log.absorb_batch(entered, exited, Vec::new(), true);
    }
}

// ---------------------------------------------------------------------
// Join operator
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum JoinOnC {
    /// Key column's position within each side's schema.
    Eq { l: usize, r: usize },
    Within { radius: f32 },
}

/// Per-side probe structure: key postings for equi-joins, a uniform
/// cell map (cell edge = radius) for spatial joins. Posting lists stay
/// sorted by id so probes return deterministic candidates.
#[derive(Debug, Clone)]
enum SideIndex {
    Keyed(HashMap<IndexKey, Vec<EntityId>>),
    Cells {
        cell: f32,
        map: HashMap<(i64, i64), Vec<EntityId>>,
    },
}

/// Join key of a value, in the same coercion domain as
/// [`crate::index::IndexKey::encode`]: ints and floats share numeric
/// keys, NaN (which `compare` rejects under every operator) has none.
fn value_key(v: &Value) -> Option<IndexKey> {
    match v {
        Value::Float(_) | Value::Int(_) => {
            v.as_number().and_then(OrdF64::new).map(IndexKey::Num)
        }
        Value::Bool(b) => Some(IndexKey::Bool(*b)),
        Value::Str(s) => Some(IndexKey::Str(s.clone())),
        Value::Vec2(x, y) => IndexKey::vec2(*x, *y),
    }
}

/// Load [`value_key`] of `v` into `key` — a string reuses the buffer, so
/// a lookup of a key the map already holds allocates nothing. `false`
/// when `v` has no key.
fn load_key(key: &mut KeyBuf, v: &Value) -> bool {
    match v {
        Value::Str(s) => key.load_str(s),
        v => key.load(value_key(v)),
    }
    key.get().is_some()
}

fn eq_key(t: &Tuple, col: usize) -> Option<IndexKey> {
    t.cols[col].as_ref().and_then(value_key)
}

fn cell_of(p: Vec2, cell: f32) -> (i64, i64) {
    ((p.x / cell).floor() as i64, (p.y / cell).floor() as i64)
}

fn posting_insert(list: &mut Vec<EntityId>, id: EntityId) {
    if let Err(pos) = list.binary_search(&id) {
        list.insert(pos, id);
    }
}

fn posting_remove(list: &mut Vec<EntityId>, id: EntityId) -> bool {
    match list.binary_search(&id) {
        Ok(pos) => {
            list.remove(pos);
            true
        }
        Err(_) => false,
    }
}

impl SideIndex {
    /// Fold one row delta into the index (`key_col` is this side's key
    /// position; unused for cell maps).
    fn apply(&mut self, key_col: usize, d: &RowDelta) {
        match self {
            SideIndex::Keyed(map) => {
                if let Some(k) = d.old.as_ref().and_then(|t| eq_key(t, key_col)) {
                    if let Some(list) = map.get_mut(&k) {
                        posting_remove(list, d.id);
                        if list.is_empty() {
                            map.remove(&k);
                        }
                    }
                }
                if let Some(k) = d.new.as_ref().and_then(|t| eq_key(t, key_col)) {
                    posting_insert(map.entry(k).or_default(), d.id);
                }
            }
            SideIndex::Cells { cell, map } => {
                if let Some(p) = d.old.as_ref().and_then(|t| t.pos) {
                    let c = cell_of(p, *cell);
                    if let Some(list) = map.get_mut(&c) {
                        posting_remove(list, d.id);
                        if list.is_empty() {
                            map.remove(&c);
                        }
                    }
                }
                if let Some(p) = d.new.as_ref().and_then(|t| t.pos) {
                    posting_insert(map.entry(cell_of(p, *cell)).or_default(), d.id);
                }
            }
        }
    }

    /// Seed one row (`key_col` as in [`SideIndex::apply`]). Rows arrive
    /// in ascending id order, so postings are appended, not searched.
    fn append(&mut self, key: &mut KeyBuf, key_col: usize, id: EntityId, t: &Tuple) {
        match self {
            SideIndex::Keyed(map) => {
                if t.cols[key_col].as_ref().is_some_and(|v| load_key(key, v)) {
                    append_posting(map, key, id);
                }
            }
            SideIndex::Cells { cell, map } => {
                if let Some(p) = t.pos {
                    map.entry(cell_of(p, *cell)).or_default().push(id);
                }
            }
        }
    }
}

#[derive(Debug, Clone)]
struct JoinState {
    left: SourceState,
    right: SourceState,
    on: JoinOnC,
    l_idx: SideIndex,
    r_idx: SideIndex,
    /// Materialized pairs, ascending by `(left, right)`. Self-pairs are
    /// excluded.
    pairs: Vec<(EntityId, EntityId)>,
    log: PairChangelog,
}

impl JoinState {
    /// Rows of the *other* side matching tuple `t` of the probing side.
    /// `probing_left` says which side `t` belongs to; the probe runs
    /// against `idx` / `other_rows` of the opposite side. Output ids
    /// ascend (posting lists are sorted; cell probes re-sort).
    fn probe(
        on: JoinOnC,
        probing_left: bool,
        idx: &SideIndex,
        other_rows: &HashMap<EntityId, Tuple>,
        t: &Tuple,
    ) -> Vec<EntityId> {
        match (on, idx) {
            (JoinOnC::Eq { l, r }, SideIndex::Keyed(map)) => {
                let col = if probing_left { l } else { r };
                match eq_key(t, col) {
                    Some(k) => map.get(&k).cloned().unwrap_or_default(),
                    None => Vec::new(),
                }
            }
            (JoinOnC::Within { radius }, SideIndex::Cells { cell, map }) => {
                let Some(p) = t.pos else { return Vec::new() };
                let (cx, cy) = cell_of(p, *cell);
                let mut out = Vec::new();
                for dx in -1..=1i64 {
                    for dy in -1..=1i64 {
                        if let Some(ids) = map.get(&(cx + dx, cy + dy)) {
                            for &id in ids {
                                let close = other_rows
                                    .get(&id)
                                    .and_then(|o| o.pos)
                                    .is_some_and(|q| q.dist2(p) <= radius * radius);
                                if close {
                                    out.push(id);
                                }
                            }
                        }
                    }
                }
                out.sort_unstable();
                out
            }
            _ => unreachable!("index kind always matches join kind"),
        }
    }

    fn key_cols(&self) -> (usize, usize) {
        match self.on {
            JoinOnC::Eq { l, r } => (l, r),
            JoinOnC::Within { .. } => (0, 0),
        }
    }

    /// Bilinear delta rule, applied sequentially: left deltas probe the
    /// pre-batch right state, right deltas probe the post-batch left
    /// state; pair weights accumulate in ±1 steps and cancel to the net
    /// entered/exited sets.
    fn refresh(
        &mut self,
        world: &World,
        ctx: &FoldCtx<'_>,
        metrics: Option<&CoreMetrics>,
    ) -> Refreshed {
        let (l_col, r_col) = self.key_cols();
        // Deterministic iteration order for the weight map: pairs ascend.
        let mut weights: BTreeMap<(EntityId, EntityId), i64> = BTreeMap::new();

        // ΔL ⋈ R_old — the right source has not folded yet.
        let l_fold = self.left.fold(world, ctx);
        for d in &l_fold.deltas {
            if let Some(o) = &d.old {
                for r in Self::probe(self.on, true, &self.r_idx, &self.right.rows, o) {
                    *weights.entry((d.id, r)).or_default() -= 1;
                }
            }
            if let Some(n) = &d.new {
                for r in Self::probe(self.on, true, &self.r_idx, &self.right.rows, n) {
                    *weights.entry((d.id, r)).or_default() += 1;
                }
            }
            self.l_idx.apply(l_col, d);
        }

        // L_new ⋈ ΔR — the left side now reflects this batch.
        let r_fold = self.right.fold(world, ctx);
        for d in &r_fold.deltas {
            if let Some(o) = &d.old {
                for l in Self::probe(self.on, false, &self.l_idx, &self.left.rows, o) {
                    *weights.entry((l, d.id)).or_default() -= 1;
                }
            }
            if let Some(n) = &d.new {
                for l in Self::probe(self.on, false, &self.l_idx, &self.left.rows, n) {
                    *weights.entry((l, d.id)).or_default() += 1;
                }
            }
            self.r_idx.apply(r_col, d);
        }

        let mut entered = Vec::new();
        let mut exited = Vec::new();
        for ((l, r), w) in weights {
            if l == r {
                continue;
            }
            match w.cmp(&0) {
                std::cmp::Ordering::Greater => {
                    if let Err(pos) = self.pairs.binary_search(&(l, r)) {
                        self.pairs.insert(pos, (l, r));
                        entered.push((l, r));
                    }
                }
                std::cmp::Ordering::Less => {
                    if let Ok(pos) = self.pairs.binary_search(&(l, r)) {
                        self.pairs.remove(pos);
                        exited.push((l, r));
                    }
                }
                std::cmp::Ordering::Equal => {}
            }
        }
        let done = Refreshed {
            cands: l_fold.cands + r_fold.cands,
            entered: entered.len(),
            exited: exited.len(),
            changed: 0,
        };
        if let Some(m) = metrics {
            let rows_in = l_fold.deltas.len() + r_fold.deltas.len();
            m.op_scan.note(rows_in, rows_in);
            m.op_join.note(rows_in, done.entered + done.exited);
        }
        self.log.entered.extend(entered);
        self.log.exited.extend(exited);
        done
    }

    /// Cold-start materialization (registration / recovery).
    fn init(&mut self, world: &World) {
        let (l_col, r_col) = self.key_cols();
        let mut key = KeyBuf::default();
        let l_idx = &mut self.l_idx;
        let l_ids = self
            .left
            .init(world, |id, t| l_idx.append(&mut key, l_col, id, t));
        let r_idx = &mut self.r_idx;
        self.right
            .init(world, |id, t| r_idx.append(&mut key, r_col, id, t));
        // left ids ascend and every probe answers in ascending order,
        // so the pairs come out sorted and duplicate-free
        let mut pairs = Vec::new();
        for l in l_ids {
            let t = &self.left.rows[&l];
            for r in Self::probe(self.on, true, &self.r_idx, &self.right.rows, t) {
                if l != r {
                    pairs.push((l, r));
                }
            }
        }
        debug_assert!(pairs.windows(2).all(|w| w[0] < w[1]));
        self.pairs = pairs;
    }
}

// ---------------------------------------------------------------------
// Group-aggregate operator
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum AggKind {
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

impl AggKind {
    /// Min and max need every value to find the next extreme after a
    /// retraction; the others are maintained from a count and a sum
    /// (the counting algorithm).
    fn ordered(self) -> bool {
        matches!(self, AggKind::Min | AggKind::Max)
    }
}

/// One row's aggregate input, as a multiset key and as a number; `None`
/// when the value is absent or NaN.
type AggInput = Option<(OrdF64, f64)>;

/// Running state of one group. `rows` counts member rows (Count's
/// answer); `n` and `sum` count and add the non-NaN aggregate values
/// (NaN inputs are skipped, SQL NULL style) — sum's and avg's whole
/// state. Only min/max keep `vals`, the values as an ordered multiset
/// keyed `(value, entity)`, and read its ends.
#[derive(Debug, Clone, Default)]
struct GroupAgg {
    rows: usize,
    n: usize,
    sum: f64,
    vals: BTreeSet<(OrdF64, EntityId)>,
}

impl GroupAgg {
    fn add(&mut self, kind: AggKind, id: EntityId, val: AggInput) {
        self.rows += 1;
        match val {
            Some((o, _)) if kind.ordered() => {
                self.vals.insert((o, id));
            }
            Some((_, v)) => {
                self.n += 1;
                self.sum += v;
            }
            None => {}
        }
    }

    fn value(&self, kind: AggKind) -> f64 {
        match kind {
            AggKind::Count => self.rows as f64,
            AggKind::Sum => self.sum,
            AggKind::Min => self
                .vals
                .iter()
                .next()
                .map(|(v, _)| v.get())
                .unwrap_or(0.0),
            AggKind::Max => self
                .vals
                .iter()
                .next_back()
                .map(|(v, _)| v.get())
                .unwrap_or(0.0),
            AggKind::Avg => {
                if self.n == 0 {
                    0.0
                } else {
                    self.sum / self.n as f64
                }
            }
        }
    }
}

/// Normalized group-key value for output rows: derived from the
/// coercion-domain key so `Int 3` and `Float 3.0` — one group — render
/// one deterministic representative.
fn key_repr(k: KeyRef<'_>) -> Value {
    match k {
        KeyRef::Num(n) => {
            let f = n.get();
            if f.fract() == 0.0 && f.abs() < 9.0e15 {
                Value::Int(f as i64)
            } else {
                Value::Float(f as f32)
            }
        }
        KeyRef::Bool(b) => Value::Bool(b),
        KeyRef::Str(s) => Value::Str(s.to_string()),
        KeyRef::Vec2([a, b]) => Value::Vec2(f32::from_bits(a), f32::from_bits(b)),
    }
}

/// The group table: running state per group key, seeded from a sorted
/// run ([`GroupTable::fold_run`]) and folded one ±row at a time after.
#[derive(Debug, Clone)]
struct GroupTable {
    /// Schema position of the group column (`None` = global group).
    key_col: Option<usize>,
    agg: AggKind,
    /// Schema position of the aggregated column (`None` for Count).
    agg_col: Option<usize>,
    groups: BTreeMap<Option<IndexKey>, GroupAgg>,
    /// Lookup key, reused row to row: only the first row of a group
    /// pays for its key.
    key: KeyBuf,
    /// Min/max retractions of the current extreme — the "recompute from
    /// the ordered multiset" events the metrics surface.
    retracts: u64,
}

impl GroupTable {
    /// The sorted-run builder — the one way a group table is seeded
    /// (`init`) and a group plan evaluated. `members` (ascending ids)
    /// are read by slot into a `(key, value, id)` run, with the key
    /// borrowed from its column; a stable sort by key keeps id order
    /// within each group, so every group folds its rows in the order
    /// per-row inserts would (sums are bit-identical). `each` receives
    /// each group's key and state, in key order. Rows without a group
    /// key (missing, or NaN) belong to no group.
    fn fold_run<'w>(
        &self,
        world: &'w World,
        schema: &[String],
        members: &[EntityId],
        mut each: impl FnMut(Option<KeyRef<'w>>, GroupAgg),
    ) {
        let key_col = self.key_col.map(|c| world.column(&schema[c]));
        let agg_col = self.agg_col.and_then(|c| world.column(&schema[c]));
        let mut run: Vec<(Option<KeyRef<'w>>, AggInput, EntityId)> =
            Vec::with_capacity(members.len());
        for &id in members {
            let slot = id.index() as usize;
            let key = match key_col {
                None => None,
                Some(col) => match col.and_then(|c| KeyRef::at(c, slot)) {
                    Some(k) => Some(k),
                    None => continue,
                },
            };
            let val = agg_col
                .and_then(|c| c.get_number(slot))
                .and_then(|v| OrdF64::new(v).map(|o| (o, v)));
            run.push((key, val, id));
        }
        run.sort_by(|a, b| a.0.cmp(&b.0));
        for group in run.chunk_by(|a, b| a.0 == b.0) {
            let mut g = GroupAgg::default();
            for &(_, val, id) in group {
                g.add(self.agg, id, val);
            }
            each(group[0].0, g);
        }
    }

    /// Load the group key of a tuple into `self.key`. `false` means "no
    /// group": rows missing the group column (or carrying a NaN key,
    /// which `compare` can never select) belong to no group, matching
    /// the scan-side rule that a missing component fails every
    /// predicate.
    fn load_group_key(&mut self, t: &Tuple) -> bool {
        match self.key_col {
            None => {
                self.key.load(None);
                true
            }
            Some(c) => t.cols[c]
                .as_ref()
                .is_some_and(|v| load_key(&mut self.key, v)),
        }
    }

    fn agg_val(&self, t: &Tuple) -> AggInput {
        let c = self.agg_col?;
        let v = t.cols[c].as_ref().and_then(|v| v.as_number())?;
        OrdF64::new(v).map(|o| (o, v))
    }

    fn insert(&mut self, id: EntityId, t: &Tuple) {
        if !self.load_group_key(t) {
            return;
        }
        let val = self.agg_val(t);
        match self.groups.get_mut(self.key.get()) {
            Some(g) => g.add(self.agg, id, val),
            None => self
                .groups
                .entry(self.key.get().clone())
                .or_default()
                .add(self.agg, id, val),
        }
    }

    /// Retract a row by the tuple remembered for it — exactly what
    /// [`GroupTable::insert`] folded in, which is what lets sum and avg
    /// subtract without keeping the values.
    fn retract(&mut self, id: EntityId, t: &Tuple) {
        if !self.load_group_key(t) {
            return;
        }
        let val = self.agg_val(t);
        let Some(g) = self.groups.get_mut(self.key.get()) else {
            return;
        };
        g.rows = g.rows.saturating_sub(1);
        match val {
            Some((o, _)) if self.agg.ordered() => {
                let entry = (o, id);
                let was_extreme = match self.agg {
                    AggKind::Min => g.vals.iter().next() == Some(&entry),
                    _ => g.vals.iter().next_back() == Some(&entry),
                };
                if g.vals.remove(&entry) && was_extreme {
                    // The new extreme is the multiset's next element —
                    // an O(log n) recompute, never a base-table rescan.
                    self.retracts += 1;
                }
            }
            Some((_, v)) => {
                g.n = g.n.saturating_sub(1);
                g.sum -= v;
            }
            None => {}
        }
        if g.rows == 0 {
            self.groups.remove(self.key.get());
        }
    }
}

#[derive(Debug, Clone)]
struct GroupState {
    source: SourceState,
    table: GroupTable,
    /// Materialized output, ascending by group key; `out_keys` is the
    /// parallel key list the changelog diff merges on.
    out: Vec<GroupRow>,
    out_keys: Vec<Option<IndexKey>>,
    log: GroupChangelog,
}

impl GroupState {
    /// Rebuild the materialized output and, when `log_diff`, absorb the
    /// old-vs-new diff into the changelog.
    fn rebuild(&mut self, log_diff: bool) {
        let table = &self.table;
        let mut new_out = Vec::with_capacity(table.groups.len());
        let mut new_keys = Vec::with_capacity(table.groups.len());
        for (k, g) in &table.groups {
            new_keys.push(k.clone());
            new_out.push(GroupRow {
                key: k.as_ref().map(|k| key_repr(k.as_ref())),
                value: g.value(table.agg),
            });
        }
        if log_diff {
            let (mut i, mut j) = (0usize, 0usize);
            while i < self.out_keys.len() || j < new_keys.len() {
                match (self.out_keys.get(i), new_keys.get(j)) {
                    (Some(a), Some(b)) if a == b => {
                        if self.out[i].value != new_out[j].value {
                            self.log.changed.push(new_out[j].clone());
                        }
                        i += 1;
                        j += 1;
                    }
                    (Some(a), Some(b)) if a < b => {
                        self.log.exited.push(self.out[i].clone());
                        i += 1;
                    }
                    (Some(_), Some(_)) => {
                        self.log.entered.push(new_out[j].clone());
                        j += 1;
                    }
                    (Some(_), None) => {
                        self.log.exited.push(self.out[i].clone());
                        i += 1;
                    }
                    (None, Some(_)) => {
                        self.log.entered.push(new_out[j].clone());
                        j += 1;
                    }
                    (None, None) => unreachable!("loop condition"),
                }
            }
        }
        self.out = new_out;
        self.out_keys = new_keys;
    }

    fn refresh(
        &mut self,
        world: &World,
        ctx: &FoldCtx<'_>,
        metrics: Option<&CoreMetrics>,
    ) -> Refreshed {
        let fold = self.source.fold(world, ctx);
        let logged = |log: &GroupChangelog| [log.entered.len(), log.exited.len(), log.changed.len()];
        let before = logged(&self.log);
        let retracts_before = self.table.retracts;
        if !fold.deltas.is_empty() {
            for d in &fold.deltas {
                if let Some(o) = &d.old {
                    self.table.retract(d.id, o);
                }
                if let Some(n) = &d.new {
                    self.table.insert(d.id, n);
                }
            }
            self.rebuild(true);
        }
        let after = logged(&self.log);
        let done = Refreshed {
            cands: fold.cands,
            entered: after[0] - before[0],
            exited: after[1] - before[1],
            changed: after[2] - before[2],
        };
        if let Some(m) = metrics {
            let rows_in = fold.deltas.len();
            m.op_scan.note(rows_in, rows_in);
            m.op_group.note(rows_in, done.entered + done.exited + done.changed);
            m.op_group_retracts.add(self.table.retracts - retracts_before);
        }
        done
    }

    fn init(&mut self, world: &World) {
        let members = self.source.init(world, |_, _| {});
        let mut groups = Vec::new();
        self.table
            .fold_run(world, &self.source.src.schema, &members, |key, g| {
                groups.push((key.map(KeyRef::to_key), g))
            });
        // `BTreeMap::from_iter` builds bottom-up from the sorted run
        self.table.groups = groups.into_iter().collect();
        self.rebuild(false);
    }
}

// ---------------------------------------------------------------------
// The registered view
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum OpState {
    Rows(RowsState),
    Join(JoinState),
    Group(GroupState),
}

/// One registered view: the plan (what the catalog persists), the
/// operator state, and the shared maintenance counters.
#[derive(Debug, Clone)]
pub(crate) struct PlanView {
    plan: ViewPlan,
    state: OpState,
    stats: ViewStats,
}

impl PlanView {
    /// Compile, validate, and materialize a plan against the current
    /// world. Initial rows are state, not changelog events.
    pub(crate) fn new(plan: ViewPlan, world: &World) -> Result<PlanView, CoreError> {
        let mut state = compile(&plan)?;
        match &mut state {
            OpState::Rows(s) => s.out = s.source.init(world, |_, _| {}),
            OpState::Join(s) => s.init(world),
            OpState::Group(s) => s.init(world),
        }
        Ok(PlanView {
            plan,
            state,
            stats: ViewStats::default(),
        })
    }

    pub(crate) fn plan(&self) -> &ViewPlan {
        &self.plan
    }

    pub(crate) fn stats(&self) -> ViewStats {
        self.stats
    }

    /// Fold one change-stream segment into the operator tree.
    pub(crate) fn refresh(
        &mut self,
        world: &World,
        ctx: &FoldCtx<'_>,
        slot: usize,
        metrics: Option<&CoreMetrics>,
    ) {
        let done = match &mut self.state {
            OpState::Rows(s) => s.refresh(world, ctx, metrics),
            OpState::Join(s) => s.refresh(world, ctx, metrics),
            OpState::Group(s) => s.refresh(world, ctx, metrics),
        };
        let delta_rows = (done.entered + done.exited + done.changed) as u64;
        self.stats.refreshes += 1;
        self.stats.deltas_seen += ctx.batch_len as u64;
        self.stats.delta_rows += delta_rows;
        if let Some(m) = metrics {
            m.view_refreshes.inc();
            m.view_deltas.add(ctx.batch_len as u64);
            m.view_candidates.observe(done.cands as u64);
            m.view_entered.add(done.entered as u64);
            m.view_exited.add(done.exited as u64);
            m.view_changed.add(done.changed as u64);
            let per_slot = m.view_slot(slot);
            per_slot.refreshes.inc();
            per_slot.candidates.add(done.cands as u64);
            per_slot.delta_rows.add(delta_rows);
        }
    }

    /// Move a rows view's spatial restriction: the scan leaf's `within`
    /// is rewritten **in the stored plan** — catalog export,
    /// [`crate::world::World::find_view`], WAL redo and recovery all see
    /// the current disk — and the view re-evaluates once under it.
    ///
    /// # Panics
    /// On join and group-aggregate plans: spatial joins follow their
    /// anchor's position deltas instead of retargeting.
    pub(crate) fn retarget(&mut self, world: &World, slot: usize, center: Vec2, radius: f32) {
        let OpState::Rows(s) = &mut self.state else {
            panic!("view at slot {slot} is a join or group-aggregate view; only rows views retarget");
        };
        let mut leaf = &mut self.plan.root;
        loop {
            match leaf {
                PlanNode::Scan { query, .. } => break query.retarget_within(center, radius),
                PlanNode::Filter { input, .. } | PlanNode::Project { input, .. } => leaf = input,
                PlanNode::Join { .. } | PlanNode::GroupAggregate { .. } => {
                    unreachable!("a rows view's plan is a scan chain")
                }
            }
        }
        s.retarget(world, center, radius);
        self.stats.refreshes += 1;
        self.stats.rescans += 1;
        if let Some(m) = world.core_metrics() {
            m.view_refreshes.inc();
            m.view_rescans.inc();
            let per_slot = m.view_slot(slot);
            per_slot.refreshes.inc();
            per_slot.rescans.inc();
        }
    }

    /// The fused scan query of a rows view: the leaf's standing query
    /// with every filter above it folded in.
    pub(crate) fn query(&self) -> Option<&Query> {
        match &self.state {
            OpState::Rows(s) => Some(&s.source.src.query),
            _ => None,
        }
    }

    /// Entity rows, for plans whose root is a scan chain.
    pub(crate) fn rows(&self) -> Option<&[EntityId]> {
        match &self.state {
            OpState::Rows(s) => Some(&s.out),
            _ => None,
        }
    }

    pub(crate) fn contains_row(&self, e: EntityId) -> bool {
        matches!(&self.state, OpState::Rows(s) if s.out.binary_search(&e).is_ok())
    }

    /// Join pairs, for join plans.
    pub(crate) fn pairs(&self) -> Option<&[(EntityId, EntityId)]> {
        match &self.state {
            OpState::Join(s) => Some(&s.pairs),
            _ => None,
        }
    }

    /// Group rows, for group-aggregate plans.
    pub(crate) fn groups(&self) -> Option<&[GroupRow]> {
        match &self.state {
            OpState::Group(s) => Some(&s.out),
            _ => None,
        }
    }

    /// Retract-and-recompute count (min/max extreme retractions).
    pub(crate) fn retract_recomputes(&self) -> u64 {
        match &self.state {
            OpState::Group(s) => s.table.retracts,
            _ => 0,
        }
    }

    pub(crate) fn rows_log(&self) -> Option<&Changelog> {
        match &self.state {
            OpState::Rows(s) => Some(&s.log),
            _ => None,
        }
    }

    pub(crate) fn take_rows_log(&mut self) -> Option<Changelog> {
        match &mut self.state {
            OpState::Rows(s) => Some(std::mem::take(&mut s.log)),
            _ => None,
        }
    }

    pub(crate) fn take_pair_log(&mut self) -> Option<PairChangelog> {
        match &mut self.state {
            OpState::Join(s) => Some(std::mem::take(&mut s.log)),
            _ => None,
        }
    }

    pub(crate) fn take_group_log(&mut self) -> Option<GroupChangelog> {
        match &mut self.state {
            OpState::Group(s) => Some(std::mem::take(&mut s.log)),
            _ => None,
        }
    }

    /// Drop accumulated changelogs (recovery re-anchors subscribers).
    pub(crate) fn clear_logs(&mut self) {
        match &mut self.state {
            OpState::Rows(s) => s.log = Changelog::default(),
            OpState::Join(s) => s.log = PairChangelog::default(),
            OpState::Group(s) => s.log = GroupChangelog::default(),
        }
    }

    /// The incremental output as a [`PlanOutput`] — what the oracle
    /// comparison against [`ViewPlan::evaluate`] consumes.
    pub(crate) fn output(&self) -> PlanOutput {
        match &self.state {
            OpState::Rows(s) => PlanOutput::Rows(s.out.clone()),
            OpState::Join(s) => PlanOutput::Pairs(s.pairs.clone()),
            OpState::Group(s) => PlanOutput::Groups(s.out.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::ViewId;
    use gamedb_content::{CmpOp, ValueType};

    fn world() -> World {
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        w.define_component("gold", ValueType::Int).unwrap();
        w.define_component("team", ValueType::Str).unwrap();
        w
    }

    /// The incremental state must equal a forced recompute of the same
    /// plan from a cold start — the module's central invariant.
    fn assert_oracle(w: &World, v: ViewId) {
        let plan = w.view_plan(v).unwrap().clone();
        assert_eq!(w.view_output(v), plan.evaluate(w).unwrap(), "maintained ≠ recomputed");
    }

    fn team(w: &mut World, e: EntityId, t: &str) {
        w.set(e, "team", Value::Str(t.into())).unwrap();
    }

    #[test]
    fn scan_plan_view_tracks_rows_and_changelog() {
        let mut w = world();
        let a = w.spawn_at(Vec2::ZERO);
        w.set_f32(a, "hp", 10.0).unwrap();
        let q = Query::select().filter("hp", CmpOp::Lt, Value::Float(50.0));
        let v = w.register_view_plan(ViewPlan::scan(q.clone())).unwrap();
        assert_eq!(w.view_rows(v), &[a]);
        let b = w.spawn_at(Vec2::ZERO);
        w.set_f32(b, "hp", 20.0).unwrap();
        w.set_f32(a, "hp", 90.0).unwrap();
        w.refresh_views();
        assert_eq!(w.view_rows(v), &[b]);
        assert_eq!(w.view_rows(v), q.run(&w));
        let log = w.take_view_changelog(v);
        assert_eq!(log.entered, vec![b]);
        assert_eq!(log.exited, vec![a]);
        assert_oracle(&w, v);
    }

    #[test]
    fn filter_and_project_fuse_into_the_scan() {
        let mut w = world();
        let a = w.spawn_at(Vec2::ZERO);
        w.set_f32(a, "hp", 10.0).unwrap();
        w.set(a, "gold", Value::Int(5)).unwrap();
        let b = w.spawn_at(Vec2::ZERO);
        w.set_f32(b, "hp", 10.0).unwrap();
        let node = PlanNode::scan(Query::select())
            .filtered(Pred::new("hp", CmpOp::Lt, Value::Float(50.0)))
            .project(vec!["gold".into()])
            .filtered(Pred::new("gold", CmpOp::Gt, Value::Int(0)));
        let v = w.register_view_plan(ViewPlan::new(node)).unwrap();
        assert_eq!(w.view_rows(v), &[a]);
        w.set(b, "gold", Value::Int(3)).unwrap();
        w.refresh_views();
        assert_eq!(w.view_rows(v), &[a, b]);
        assert_oracle(&w, v);
    }

    #[test]
    fn plan_validation_rejects_bad_shapes() {
        let scan = || PlanNode::scan(Query::select());
        // filter above a projection that dropped its column
        let p = ViewPlan::new(
            scan()
                .project(vec!["gold".into()])
                .filtered(Pred::new("hp", CmpOp::Lt, Value::Float(1.0))),
        );
        assert!(matches!(p.validate(), Err(CoreError::PlanInvalid(_))));
        // join below a filter: joins must be the root
        let nested = PlanNode::Join {
            left: Box::new(scan()),
            right: Box::new(scan()),
            on: JoinOn::Within { radius: 1.0 },
        }
        .filtered(Pred::new("hp", CmpOp::Lt, Value::Float(1.0)));
        assert!(ViewPlan::new(nested).validate().is_err());
        // argmin/argmax have no incremental form here
        let p = ViewPlan::aggregate(scan(), AggFn::ArgMin("hp".into()));
        assert!(p.validate().is_err());
        // spatial join radius must be positive and finite
        let p = ViewPlan::join(scan(), scan(), JoinOn::Within { radius: 0.0 });
        assert!(p.validate().is_err());
        let p = ViewPlan::join(scan(), scan(), JoinOn::Within { radius: f32::NAN });
        assert!(p.validate().is_err());
        // depth bound (decode safety)
        let mut deep = scan();
        for _ in 0..=MAX_PLAN_DEPTH {
            deep = deep.project(vec!["gold".into()]);
        }
        assert!(ViewPlan::new(deep).validate().is_err());
        // consumer column must survive the projection
        let p = ViewPlan::group_by(
            scan().project(vec!["team".into()]),
            "team",
            AggFn::Sum("gold".into()),
        );
        assert!(p.validate().is_err());
    }

    #[test]
    fn equi_join_maintains_pairs_incrementally() {
        let mut w = world();
        let a = w.spawn_at(Vec2::ZERO);
        let b = w.spawn_at(Vec2::ZERO);
        let c = w.spawn_at(Vec2::ZERO);
        w.set_f32(a, "hp", 10.0).unwrap();
        w.set_f32(b, "hp", 90.0).unwrap();
        w.set_f32(c, "hp", 10.0).unwrap();
        team(&mut w, a, "red");
        team(&mut w, b, "red");
        team(&mut w, c, "blue");
        // wounded × everyone, matched on team
        let v = w
            .register_view_plan(ViewPlan::join(
                PlanNode::scan(Query::select().filter("hp", CmpOp::Lt, Value::Float(50.0))),
                PlanNode::scan(Query::select()),
                JoinOn::Eq {
                    left: "team".into(),
                    right: "team".into(),
                },
            ))
            .unwrap();
        assert_eq!(w.view_pairs(v), &[(a, b)]);
        // b gets wounded: joins its red teammate a
        w.set_f32(b, "hp", 20.0).unwrap();
        w.refresh_views();
        assert_eq!(w.view_pairs(v), &[(a, b), (b, a)]);
        let log = w.take_view_pair_changelog(v);
        assert_eq!(log.entered, vec![(b, a)]);
        assert!(log.exited.is_empty());
        assert_oracle(&w, v);
        // c switches to red: joins both sides of the red component
        team(&mut w, c, "red");
        w.refresh_views();
        assert_eq!(
            w.view_pairs(v),
            &[(a, b), (a, c), (b, a), (b, c), (c, a), (c, b)]
        );
        assert_oracle(&w, v);
        // a despawns: every pair touching a exits
        w.despawn(a);
        w.refresh_views();
        assert_eq!(w.view_pairs(v), &[(b, c), (c, b)]);
        let log = w.take_view_pair_changelog(v);
        assert_eq!(log.exited, vec![(a, b), (a, c), (b, a), (c, a)]);
        assert_oracle(&w, v);
    }

    #[test]
    fn equi_join_coerces_int_and_float_keys() {
        let mut w = world();
        let a = w.spawn_at(Vec2::ZERO);
        let b = w.spawn_at(Vec2::ZERO);
        w.set(a, "gold", Value::Int(3)).unwrap();
        w.set_f32(b, "hp", 3.0).unwrap();
        let v = w
            .register_view_plan(ViewPlan::join(
                PlanNode::scan(Query::select().filter("gold", CmpOp::Gt, Value::Int(0))),
                PlanNode::scan(Query::select().filter("hp", CmpOp::Gt, Value::Float(0.0))),
                JoinOn::Eq {
                    left: "gold".into(),
                    right: "hp".into(),
                },
            ))
            .unwrap();
        // Int 3 and Float 3.0 share a key in the coercion domain
        assert_eq!(w.view_pairs(v), &[(a, b)]);
        // a NaN key joins nothing
        w.set_f32(b, "hp", f32::NAN).unwrap();
        w.refresh_views();
        assert!(w.view_pairs(v).is_empty());
        assert_oracle(&w, v);
    }

    #[test]
    fn spatial_join_pairs_follow_moves() {
        let mut w = World::new();
        let a = w.spawn_at(Vec2::new(0.0, 0.0));
        let b = w.spawn_at(Vec2::new(3.0, 0.0));
        let c = w.spawn_at(Vec2::new(100.0, 0.0));
        let v = w
            .register_view_plan(ViewPlan::join(
                PlanNode::scan(Query::select()),
                PlanNode::scan(Query::select()),
                JoinOn::Within { radius: 5.0 },
            ))
            .unwrap();
        // symmetric, self-pairs excluded
        assert_eq!(w.view_pairs(v), &[(a, b), (b, a)]);
        w.set_pos(c, Vec2::new(1.0, 1.0)).unwrap();
        w.refresh_views();
        assert_eq!(
            w.view_pairs(v),
            &[(a, b), (a, c), (b, a), (b, c), (c, a), (c, b)]
        );
        assert_oracle(&w, v);
        w.set_pos(b, Vec2::new(50.0, 0.0)).unwrap();
        w.refresh_views();
        assert_eq!(w.view_pairs(v), &[(a, c), (c, a)]);
        let log = w.take_view_pair_changelog(v);
        assert_eq!(log.exited, vec![(a, b), (b, a), (b, c), (c, b)]);
        assert_oracle(&w, v);
    }

    #[test]
    fn anchored_spatial_join_follows_the_anchor() {
        // The aggro shape: one pinned mob joined to everyone nearby.
        let mut w = World::new();
        let mob = w.spawn_at(Vec2::ZERO);
        let p1 = w.spawn_at(Vec2::new(1.0, 0.0));
        let p2 = w.spawn_at(Vec2::new(30.0, 0.0));
        let v = w
            .register_view_plan(ViewPlan::join(
                PlanNode::scan_only(Query::select(), mob),
                PlanNode::scan(Query::select().excluding(mob)),
                JoinOn::Within { radius: 5.0 },
            ))
            .unwrap();
        assert_eq!(w.view_pairs(v), &[(mob, p1)]);
        // moving the anchor re-pairs without any retarget call
        w.set_pos(mob, Vec2::new(30.0, 0.0)).unwrap();
        w.refresh_views();
        assert_eq!(w.view_pairs(v), &[(mob, p2)]);
        assert_oracle(&w, v);
        // moving a candidate into range pairs it
        w.set_pos(p1, Vec2::new(29.0, 0.0)).unwrap();
        w.refresh_views();
        assert_eq!(w.view_pairs(v), &[(mob, p1), (mob, p2)]);
        assert_oracle(&w, v);
    }

    #[test]
    fn group_count_tracks_membership() {
        let mut w = world();
        let a = w.spawn_at(Vec2::ZERO);
        let b = w.spawn_at(Vec2::ZERO);
        let c = w.spawn_at(Vec2::ZERO);
        team(&mut w, a, "red");
        team(&mut w, b, "red");
        team(&mut w, c, "blue");
        let v = w
            .register_view_plan(ViewPlan::group_by(
                PlanNode::scan(Query::select()),
                "team",
                AggFn::Count,
            ))
            .unwrap();
        assert_eq!(w.view_group_value(v, Some(&Value::Str("red".into()))), Some(2.0));
        assert_eq!(w.view_group_value(v, Some(&Value::Str("blue".into()))), Some(1.0));
        // last blue row leaves: the group disappears
        w.despawn(c);
        w.refresh_views();
        assert_eq!(w.view_group_value(v, Some(&Value::Str("blue".into()))), None);
        let log = w.take_view_group_changelog(v);
        assert_eq!(
            log.exited,
            vec![GroupRow {
                key: Some(Value::Str("blue".into())),
                value: 1.0
            }]
        );
        assert_oracle(&w, v);
        // b switches teams: red shrinks, blue reappears
        team(&mut w, b, "blue");
        w.refresh_views();
        let log = w.take_view_group_changelog(v);
        assert_eq!(
            log.entered,
            vec![GroupRow {
                key: Some(Value::Str("blue".into())),
                value: 1.0
            }]
        );
        assert_eq!(
            log.changed,
            vec![GroupRow {
                key: Some(Value::Str("red".into())),
                value: 1.0
            }]
        );
        assert_oracle(&w, v);
    }

    #[test]
    fn group_sum_maintains_running_totals() {
        let mut w = world();
        let a = w.spawn_at(Vec2::ZERO);
        let b = w.spawn_at(Vec2::ZERO);
        team(&mut w, a, "red");
        team(&mut w, b, "red");
        w.set(a, "gold", Value::Int(5)).unwrap();
        w.set(b, "gold", Value::Int(7)).unwrap();
        let v = w
            .register_view_plan(ViewPlan::group_by(
                PlanNode::scan(Query::select()),
                "team",
                AggFn::Sum("gold".into()),
            ))
            .unwrap();
        let red = Value::Str("red".into());
        assert_eq!(w.view_group_value(v, Some(&red)), Some(12.0));
        w.set(a, "gold", Value::Int(20)).unwrap();
        w.refresh_views();
        assert_eq!(w.view_group_value(v, Some(&red)), Some(27.0));
        // removing the component retracts its contribution
        w.remove_component(b, "gold").unwrap();
        w.refresh_views();
        assert_eq!(w.view_group_value(v, Some(&red)), Some(20.0));
        assert_oracle(&w, v);
    }

    #[test]
    fn group_min_retracts_and_recomputes() {
        let mut w = world();
        let a = w.spawn_at(Vec2::ZERO);
        let b = w.spawn_at(Vec2::ZERO);
        team(&mut w, a, "red");
        team(&mut w, b, "red");
        w.set(a, "gold", Value::Int(5)).unwrap();
        w.set(b, "gold", Value::Int(10)).unwrap();
        let v = w
            .register_view_plan(ViewPlan::group_by(
                PlanNode::scan(Query::select()),
                "team",
                AggFn::Min("gold".into()),
            ))
            .unwrap();
        let red = Value::Str("red".into());
        assert_eq!(w.view_group_value(v, Some(&red)), Some(5.0));
        assert_eq!(w.view_retract_recomputes(v), 0);
        // raising the current minimum retracts the extreme: the new min
        // comes from the ordered multiset, and the event is counted
        w.set(a, "gold", Value::Int(20)).unwrap();
        w.refresh_views();
        assert_eq!(w.view_group_value(v, Some(&red)), Some(10.0));
        assert_eq!(w.view_retract_recomputes(v), 1);
        // touching a non-extreme row does not
        w.set(a, "gold", Value::Int(15)).unwrap();
        w.refresh_views();
        assert_eq!(w.view_group_value(v, Some(&red)), Some(10.0));
        assert_eq!(w.view_retract_recomputes(v), 1);
        assert_oracle(&w, v);
    }

    #[test]
    fn nan_aggregate_inputs_are_skipped() {
        let mut w = world();
        let a = w.spawn_at(Vec2::ZERO);
        let b = w.spawn_at(Vec2::ZERO);
        w.set_f32(a, "hp", 10.0).unwrap();
        w.set_f32(b, "hp", f32::NAN).unwrap();
        let sum = w
            .register_view_plan(ViewPlan::aggregate(
                PlanNode::scan(Query::select()),
                AggFn::Sum("hp".into()),
            ))
            .unwrap();
        let avg = w
            .register_view_plan(ViewPlan::aggregate(
                PlanNode::scan(Query::select()),
                AggFn::Avg("hp".into()),
            ))
            .unwrap();
        let count = w
            .register_view_plan(ViewPlan::aggregate(
                PlanNode::scan(Query::select()),
                AggFn::Count,
            ))
            .unwrap();
        assert_eq!(w.view_group_value(sum, None), Some(10.0));
        // NaN is excluded from the denominator too (SQL NULL style)
        assert_eq!(w.view_group_value(avg, None), Some(10.0));
        // Count counts rows, not non-NaN values
        assert_eq!(w.view_group_value(count, None), Some(2.0));
        w.set_f32(b, "hp", 30.0).unwrap();
        w.refresh_views();
        assert_eq!(w.view_group_value(sum, None), Some(40.0));
        assert_eq!(w.view_group_value(avg, None), Some(20.0));
        assert_oracle(&w, sum);
        assert_oracle(&w, avg);
    }

    #[test]
    fn global_group_disappears_when_empty() {
        let mut w = world();
        let v = w
            .register_view_plan(ViewPlan::aggregate(
                PlanNode::scan(Query::select().filter("hp", CmpOp::Lt, Value::Float(50.0))),
                AggFn::Count,
            ))
            .unwrap();
        assert!(w.view_groups(v).is_empty());
        assert_eq!(w.view_group_value(v, None), None);
        let a = w.spawn_at(Vec2::ZERO);
        w.set_f32(a, "hp", 10.0).unwrap();
        w.refresh_views();
        assert_eq!(w.view_group_value(v, None), Some(1.0));
        w.set_f32(a, "hp", 90.0).unwrap();
        w.refresh_views();
        assert!(w.view_groups(v).is_empty());
        let log = w.take_view_group_changelog(v);
        assert_eq!(log.exited, vec![GroupRow { key: None, value: 1.0 }]);
        assert_oracle(&w, v);
    }

    #[test]
    fn conserving_transfers_leave_a_global_sum_silent() {
        let registry = gamedb_metrics::MetricsRegistry::new();
        let mut w = world();
        let a = w.spawn_at(Vec2::ZERO);
        let b = w.spawn_at(Vec2::ZERO);
        w.set(a, "gold", Value::Int(100)).unwrap();
        w.set(b, "gold", Value::Int(100)).unwrap();
        w.attach_metrics(&registry);
        let v = w
            .register_view_plan(ViewPlan::aggregate(
                PlanNode::scan(Query::select()),
                AggFn::Sum("gold".into()),
            ))
            .unwrap();
        // a trade: debit and credit in one batch
        w.set(a, "gold", Value::Int(80)).unwrap();
        w.set(b, "gold", Value::Int(120)).unwrap();
        w.refresh_views();
        assert_eq!(w.view_group_value(v, None), Some(200.0));
        assert!(w.take_view_group_changelog(v).is_empty(), "the sum did not move");
        assert_eq!(w.view_stats(v).delta_rows, 0);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("view.op_group.rows_in"), 2, "both writes reached the aggregate");
        assert_eq!(snap.counter("view.op_group.rows_out"), 0, "no group row changed value");
        assert_oracle(&w, v);
    }

    #[test]
    fn plan_views_round_trip_through_the_catalog() {
        let mut w = world();
        let a = w.spawn_at(Vec2::ZERO);
        team(&mut w, a, "red");
        w.set(a, "gold", Value::Int(5)).unwrap();
        let v = w
            .register_view_plan(ViewPlan::group_by(
                PlanNode::scan(Query::select()),
                "team",
                AggFn::Sum("gold".into()),
            ))
            .unwrap();
        let cat = w.export_catalog();
        assert_eq!(cat.views.len(), 1);
        assert_eq!(cat.views[0].0, v.slot());
        // reconcile restores a dropped plan view at its exact slot,
        // rematerialized from current state
        assert!(w.drop_view(v));
        assert!(w.view_id_at(v.slot()).is_none());
        w.reconcile_catalog(&cat).unwrap();
        assert_eq!(w.view_id_at(v.slot()), Some(v));
        assert_eq!(
            w.view_group_value(v, Some(&Value::Str("red".into()))),
            Some(5.0)
        );
        // and drops a plan view absent from the catalog
        let mut cat2 = cat.clone();
        cat2.views.clear();
        w.reconcile_catalog(&cat2).unwrap();
        assert!(w.view_id_at(v.slot()).is_none());
    }

    #[test]
    fn find_view_reattaches_by_plan() {
        let mut w = world();
        let plan = ViewPlan::group_by(PlanNode::scan(Query::select()), "team", AggFn::Count);
        assert_eq!(w.find_view(&plan), None);
        let v = w.register_view_plan(plan.clone()).unwrap();
        assert_eq!(w.find_view(&plan), Some(v));
    }

    #[test]
    fn maintained_state_matches_oracle_under_mixed_churn() {
        // A deterministic mini-churn across every operator kind; the
        // randomized version lives in tests/prop_core.rs.
        let mut w = world();
        let join = w
            .register_view_plan(ViewPlan::join(
                PlanNode::scan(Query::select().filter("hp", CmpOp::Lt, Value::Float(50.0))),
                PlanNode::scan(Query::select()),
                JoinOn::Eq {
                    left: "team".into(),
                    right: "team".into(),
                },
            ))
            .unwrap();
        let near = w
            .register_view_plan(ViewPlan::join(
                PlanNode::scan(Query::select()),
                PlanNode::scan(Query::select()),
                JoinOn::Within { radius: 8.0 },
            ))
            .unwrap();
        let wealth = w
            .register_view_plan(ViewPlan::group_by(
                PlanNode::scan(Query::select()),
                "team",
                AggFn::Sum("gold".into()),
            ))
            .unwrap();
        let mut ids = Vec::new();
        for i in 0..40i64 {
            let e = w.spawn_at(Vec2::new((i % 7) as f32 * 3.0, (i % 5) as f32 * 3.0));
            w.set_f32(e, "hp", (i % 11) as f32 * 10.0).unwrap();
            w.set(e, "gold", Value::Int(i % 13)).unwrap();
            team(&mut w, e, if i % 3 == 0 { "red" } else { "blue" });
            ids.push(e);
            if i % 4 == 0 {
                w.refresh_views();
            }
        }
        w.refresh_views();
        for (i, &e) in ids.iter().enumerate() {
            match i % 5 {
                0 => w.set_f32(e, "hp", ((i * 17) % 90) as f32).unwrap(),
                1 => {
                    w.despawn(e);
                }
                2 => w.set_pos(e, Vec2::new((i % 9) as f32 * 4.0, 1.0)).unwrap(),
                3 => w.set(e, "gold", Value::Int((i as i64 * 7) % 40)).unwrap(),
                _ => {
                    let _ = w.remove_component(e, "team");
                }
            }
            if i % 3 == 0 {
                w.refresh_views();
            }
        }
        w.refresh_views();
        assert_oracle(&w, join);
        assert_oracle(&w, near);
        assert_oracle(&w, wealth);
    }
}
