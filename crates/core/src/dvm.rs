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
//!   membership test is the conjunction of every predicate and which
//!   remembers of each member only the fields downstream operators read.
//! * [`PlanNode::Join`] — binary, over two source chains. Equi-joins
//!   ([`JoinOn::Eq`]) key both sides in the same coercion domain the
//!   secondary indexes use ([`crate::index::IndexKey`]), so `Int 3`
//!   joins `Float 3.0`. Spatial-radius joins ([`JoinOn::Within`]) pair
//!   rows within `radius` of each other via per-side uniform cell maps
//!   (cell edge = radius, 9-cell probe). Self-pairs (`l == r`) are
//!   excluded.
//! * [`PlanNode::GroupAggregate`] — group rows by an optional column and
//!   fold [`AggFn`] over each group through `crate::agg`, the one
//!   accumulator behind every core aggregate (a zero extreme reads
//!   `+0.0`; exact sums will replace its `Sum` there, in one place):
//!   O(1) running state, plus a per-group ordered multiset for `min`/`max`
//!   so retracting the extreme **retracts-and-recomputes** from the next
//!   element (counted in `view.op_group.retract_recomputes`).
//!
//! ## State by slot
//!
//! A source remembers its members in slot-indexed vectors: the member's
//! id — whose generation tells a reused slot's new tenant from the old
//! one — and, only where its operator reads them, the row's key id, its
//! aggregate input and its position. Keys are interned once per operator
//! ([`KeyTable`]; both sides of a join share one, so ids compare across
//! sides), so the group table and the join postings are vectors indexed
//! by key id. A candidate costs one membership test and a compare of the
//! remembered fields against the columns: an unchanged key is compared,
//! not hashed or copied — only a changed key is looked up.
//!
//! ## Delta rules
//!
//! A source turns a change-stream segment into a net per-entity delta:
//! insert (`+row`), delete (`−row`, with the *remembered* fields — a
//! despawn never needs a row image), or update (`−old +new`). Joins
//! apply the bilinear rule `ΔJ = ΔL ⋈ R_old  +  L_new ⋈ ΔR`
//! sequentially — left deltas probe the pre-batch right state, right
//! deltas probe the post-batch left state — accumulating pair weights
//! that cancel to the net entered/exited sets. Group aggregates fold
//! each ±row into its group's running state and flag the group touched;
//! the touched groups then patch the materialized output in key order.
//! Membership itself is always re-evaluated against the *post-batch*
//! world (never trusted from the log), so duplicate or stale deltas
//! cannot corrupt a view.
//!
//! Every step between merges sorted runs (Z-sets as DBSP keeps them)
//! into buffers the operator keeps: besides a membership test per
//! candidate, a refresh costs O(batch) for the candidates, one sort of
//! a join's pair weights, O(log |out|) per output delta or touched row,
//! and one pass over an output whose membership moved.
//!
//! ## Equivalence and determinism
//!
//! [`ViewPlan::evaluate`] builds the same state from a cold start — the
//! forced-recompute oracle every operator is held equal to (unit tests
//! here, `operator_views_track_scan_oracle_under_churn` in
//! `tests/prop_core.rs`, and the persist crash-point sweep). Outputs are
//! deterministically ordered: row views by entity id, pair views by
//! `(left, right)`, group views by group key. Aggregates keep
//! `crate::agg`'s rules (NaN skipped; `sum`/`avg` a running `f64`, exact
//! for integer-valued columns), and a NaN join key joins nothing.

use std::any::Any;
use std::collections::{BTreeSet, HashMap};
use std::time::Instant;

use gamedb_content::Value;
use gamedb_spatial::Vec2;

use crate::agg::{Acc, AggKind, Maintained};
use crate::column::{Column, ColumnData};
use crate::entity::EntityId;
use crate::index::{radix_sort, KeyRef, KeyTable, NO_KEY};
use crate::intern::ComponentId;
use crate::metrics::CoreMetrics;
use crate::query::{AggFn, Pred, Query, RowFilter};
use crate::view::{apply_diff, gallop, intersect, union, Deltas, FoldCtx, ViewDelta, ViewStats};
use crate::world::{CoreError, World, POS_ID};

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

    /// Move a rows plan's `within` restriction: its scan leaf takes the
    /// new disk. Join and group plans do not retarget
    /// ([`CoreError::PlanInvalid`]; nothing moves).
    pub fn retarget(&mut self, center: Vec2, radius: f32) -> Result<(), CoreError> {
        let mut node = &mut self.root;
        loop {
            match node {
                PlanNode::Scan { query, .. } => {
                    query.retarget_within(center, radius);
                    return Ok(());
                }
                PlanNode::Filter { input, .. } | PlanNode::Project { input, .. } => node = input,
                PlanNode::Join { .. } | PlanNode::GroupAggregate { .. } => {
                    return Err(CoreError::PlanInvalid(
                        "only rows views retarget; join and group views follow their deltas",
                    ))
                }
            }
        }
    }

    /// Forced recompute from a cold start — the equivalence oracle every
    /// incrementally maintained instance of this plan is held equal to.
    /// Nothing is materialized that the answer does not need: a rows
    /// root returns its source's members, a group root folds them by
    /// group number ([`GroupTable::fold`]); only a join builds its
    /// operator state.
    pub fn evaluate(&self, world: &World) -> Result<PlanOutput, CoreError> {
        Ok(match compile(self)? {
            OpState::Rows(s) => PlanOutput::Rows(s.source.evaluate(world)),
            OpState::Group(s) => {
                let mut members = Vec::new();
                s.source.visit(world, &mut |sel| members.extend_from_slice(sel));
                let kind = s.table.kind;
                let insert = |acc: &mut Acc, slot, v| acc.insert(kind, slot, v);
                let fold = GroupTable::fold(world, &s.source.src, &members, insert);
                let rows = fold.groups.iter().enumerate().map(|(g, acc)| GroupRow {
                    key: fold.keys.get(g).map(key_repr),
                    value: acc.read(kind),
                });
                PlanOutput::Groups(rows.collect())
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

// ---------------------------------------------------------------------
// Compilation: plan → fused sources + operator kind
// ---------------------------------------------------------------------

/// A `Scan → Filter* → Project*` chain fused into one physical source:
/// membership is the conjunction of every predicate (scan + filters);
/// of each member it remembers what its consumer reads — the key
/// column's key, the aggregated column's number, the position.
#[derive(Debug, Clone)]
struct Source {
    query: Query,
    only: Option<EntityId>,
    /// Column whose key rows carry (join or group key).
    key_col: Option<String>,
    /// Column whose number is the aggregate input.
    val_col: Option<String>,
    /// Rows carry their position (a spatial join reads it).
    needs_pos: bool,
}

impl Source {
    /// True when deltas of component `comp` can change this source's
    /// membership *or* remembered fields.
    fn tracks(&self, world: &World, comp: ComponentId) -> bool {
        let named = |c: &String| world.component_id(c) == Some(comp);
        self.query.predicates().iter().any(|p| named(&p.component))
            || [&self.key_col, &self.val_col].into_iter().flatten().any(named)
            || (comp == POS_ID && (self.query.spatial().is_some() || self.needs_pos))
    }
}

/// Fuse the chain rooted at `node` down to its scan. The consumer's
/// columns must survive every projection on the path, as must the
/// column of any filter sitting above that projection.
fn compile_source(
    node: &PlanNode,
    key_col: Option<&String>,
    val_col: Option<&String>,
    needs_pos: bool,
) -> Result<Source, CoreError> {
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
        if key_col.into_iter().chain(val_col).any(|c| !v.contains(c.as_str())) {
            return Err(CoreError::PlanInvalid(
                "consumer column does not survive the projection",
            ));
        }
    }
    Ok(Source {
        query,
        only,
        key_col: key_col.cloned(),
        val_col: val_col.cloned(),
        needs_pos,
    })
}

/// Compile a plan into its (empty) runtime state.
fn compile(plan: &ViewPlan) -> Result<OpState, CoreError> {
    match &plan.root {
        PlanNode::Join { left, right, on } => {
            let (l_src, r_src, idx) = match on {
                JoinOn::Eq { left: lc, right: rc } => (
                    compile_source(left, Some(lc), None, false)?,
                    compile_source(right, Some(rc), None, false)?,
                    SideIndex::Keyed(Vec::new()),
                ),
                JoinOn::Within { radius } => {
                    if !(radius.is_finite() && *radius > 0.0) {
                        return Err(CoreError::PlanInvalid(
                            "spatial join radius must be finite and positive",
                        ));
                    }
                    (
                        compile_source(left, None, None, true)?,
                        compile_source(right, None, None, true)?,
                        SideIndex::Cells {
                            cell: *radius,
                            map: HashMap::new(),
                        },
                    )
                }
            };
            Ok(OpState::Join(JoinState {
                left: SourceState::new(l_src),
                right: SourceState::new(r_src),
                keys: KeyTable::default(),
                l_idx: idx.clone(),
                r_idx: idx,
                pairs: Vec::new(),
                hits: Vec::new(),
                weights: Vec::new(),
                spare: Vec::new(),
                deltas: Deltas::default(),
            }))
        }
        PlanNode::GroupAggregate {
            input,
            group_by,
            agg,
        } => {
            if let AggFn::ArgMin(_) | AggFn::ArgMax(_) = agg {
                return Err(CoreError::PlanInvalid(
                    "argmin/argmax aggregates are not supported in group-aggregate views",
                ));
            }
            let (kind, val_col) = AggKind::of(agg);
            Ok(OpState::Group(GroupState {
                source: SourceState::new(compile_source(input, group_by.as_ref(), val_col, false)?),
                keys: KeyTable::default(),
                table: GroupTable {
                    kind,
                    groups: Vec::new(),
                    touched: Vec::new(),
                    retracts: 0,
                },
                out: Vec::new(),
                out_keys: Vec::new(),
                order: Vec::new(),
                edits: Vec::new(),
                spare: (Vec::new(), Vec::new()),
                deltas: Deltas::default(),
            }))
        }
        chain => Ok(OpState::Rows(RowsState {
            source: SourceState::new(compile_source(chain, None, None, false)?),
            out: Vec::new(),
            spare: Vec::new(),
            deltas: Deltas::default(),
        })),
    }
}

// ---------------------------------------------------------------------
// Runtime: sources and their Z-set deltas
// ---------------------------------------------------------------------

/// What a source remembers of one member: the fields its operator reads
/// (the others stay as in [`Fields::NONE`]). A retraction folds out
/// exactly these — a despawned entity's old key or value is read from
/// here, never from the log.
#[derive(Debug, Clone, Copy)]
struct Fields {
    /// Interned key id; [`NO_KEY`] when the row has no key.
    key: u32,
    /// Aggregate input; NaN when absent or NaN (skipped either way).
    val: f64,
    pos: Option<[f32; 2]>,
}

impl Fields {
    const NONE: Fields = Fields {
        key: NO_KEY,
        val: f64::NAN,
        pos: None,
    };

    /// Same key id, and value and position equal bit for bit.
    fn same(&self, o: &Fields) -> bool {
        let bits = |p: Option<[f32; 2]>| p.map(|p| p.map(f32::to_bits));
        self.key == o.key && self.val.to_bits() == o.val.to_bits() && bits(self.pos) == bits(o.pos)
    }
}

/// Net ±1 delta for one entity in one batch: `(old, new)` with at least
/// one side present; both present means an in-place update (`−old +new`).
#[derive(Debug)]
struct RowDelta {
    id: EntityId,
    old: Option<Fields>,
    new: Option<Fields>,
}

/// Per-batch fold result of one source.
struct FoldOut {
    /// Candidate rows inspected (the scan stage's input size).
    cands: usize,
    /// Candidates passing the fused membership test.
    passed: usize,
    /// Net row deltas, ascending by entity id — but a displaced slot
    /// tenant's retraction, just ahead of its lower-generation successor.
    deltas: Vec<RowDelta>,
}

/// What one refresh of a view did, for the maintenance counters every
/// view kind shares: candidate rows inspected, delta entries produced
/// (rows, pairs or groups — whatever the view materializes), and the
/// keys its operator holds.
struct Refreshed {
    cands: usize,
    entered: usize,
    exited: usize,
    changed: usize,
    keys: usize,
}

/// A source's field columns resolved against one world, once per batch
/// or seeding.
struct Cols<'w> {
    key: Option<&'w Column>,
    val: Option<&'w Column>,
    pos: Option<&'w Column>,
}

impl<'w> Cols<'w> {
    fn new(src: &Source, world: &'w World) -> Cols<'w> {
        let col = |c: &Option<String>| c.as_ref().and_then(|c| world.column(c));
        Cols {
            key: col(&src.key_col),
            val: col(&src.val_col),
            pos: src.needs_pos.then(|| world.column_by_id(POS_ID)).flatten(),
        }
    }

    /// The key at live `slot`, borrowed from its column.
    fn key(&self, slot: usize) -> Option<KeyRef<'w>> {
        self.key.and_then(|c| KeyRef::at(c, slot))
    }

    /// The fields of live `slot`, with key id `key`.
    fn read(&self, slot: usize, key: u32) -> Fields {
        Fields {
            key,
            val: self.val.and_then(|c| c.get_number(slot)).unwrap_or(f64::NAN),
            pos: self.pos.and_then(|c| c.get_v2(slot)),
        }
    }
}

/// A source's members by slot: `ids` holds each slot's member (`None`:
/// none), and a field vector exists only if the operator reads that
/// field — a rows view keeps membership only.
#[derive(Debug, Clone)]
struct SlotRows {
    ids: Vec<Option<EntityId>>,
    keys: Option<Vec<u32>>,
    vals: Option<Vec<f64>>,
    pos: Option<Vec<Option<[f32; 2]>>>,
}

impl SlotRows {
    fn new(src: &Source) -> SlotRows {
        SlotRows {
            ids: Vec::new(),
            keys: src.key_col.is_some().then(Vec::new),
            vals: src.val_col.is_some().then(Vec::new),
            pos: src.needs_pos.then(Vec::new),
        }
    }

    /// The member at `slot`, if any.
    fn held(&self, slot: usize) -> Option<EntityId> {
        self.ids.get(slot).copied().flatten()
    }

    /// The remembered fields of the member at `slot`.
    fn fields(&self, slot: usize) -> Fields {
        Fields {
            key: self.keys.as_ref().map_or(NO_KEY, |v| v[slot]),
            val: self.vals.as_ref().map_or(f64::NAN, |v| v[slot]),
            pos: self.pos.as_ref().and_then(|v| v[slot]),
        }
    }

    /// Room for every slot below `len`.
    fn grow(&mut self, len: usize) {
        if self.ids.len() < len {
            self.ids.resize(len, None);
            self.keys.iter_mut().for_each(|v| v.resize(len, NO_KEY));
            self.vals.iter_mut().for_each(|v| v.resize(len, f64::NAN));
            self.pos.iter_mut().for_each(|v| v.resize(len, None));
        }
    }

    /// Forget the member at `slot`, releasing its key; its fields.
    fn forget(&mut self, slot: usize, keys: &mut KeyTable) -> Fields {
        let f = self.fields(slot);
        self.ids[slot] = None;
        keys.rekey(f.key, None);
        f
    }

    fn put(&mut self, slot: usize, id: EntityId, f: Fields) {
        self.grow(slot + 1);
        self.ids[slot] = Some(id);
        self.keys.iter_mut().for_each(|v| v[slot] = f.key);
        self.vals.iter_mut().for_each(|v| v[slot] = f.val);
        self.pos.iter_mut().for_each(|v| v[slot] = f.pos);
    }
}

/// A fused source with its remembered members, and its candidate buffers.
#[derive(Debug, Clone)]
struct SourceState {
    src: Source,
    rows: SlotRows,
    cands: Vec<EntityId>,
    spare: Vec<EntityId>,
}

impl SourceState {
    fn new(src: Source) -> SourceState {
        SourceState {
            rows: SlotRows::new(&src),
            src,
            cands: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// Fold one change-stream segment into the source: candidates are
    /// the structural deltas unioned with each tracked column's deltas;
    /// each candidate's membership and fields are re-read from the
    /// post-batch world and diffed against the remembered ones.
    fn fold(&mut self, world: &World, ctx: &FoldCtx<'_>, keys: &mut KeyTable) -> FoldOut {
        let (cands, spare) = (&mut self.cands, &mut self.spare);
        cands.clear();
        cands.extend_from_slice(ctx.structural);
        for run in ctx.comp_deltas.chunk_by(|a, b| a.0 == b.0) {
            if self.src.tracks(world, run[0].0) {
                spare.clear();
                union(cands, run.iter().map(|&(_, e)| e), spare);
                std::mem::swap(cands, spare);
            }
        }
        if let Some(o) = self.src.only {
            cands.retain(|&c| c == o);
        }

        // Membership is decided for the whole candidate list at once, a
        // block at a time, by the filter plans run; per candidate the
        // field reads are positional, through columns resolved once.
        let slots = world.slots();
        let mut members = Vec::new();
        RowFilter::of(world, &self.src.query)
            .select(cands, &mut |sel| members.extend(sel.iter().map(|&s| slots.id_at(s))));
        let mut next = members.iter().peekable();
        let cols = Cols::new(&self.src, world);
        // A member keeps its key unless it was spawned or despawned, or
        // its key column written, in this batch: any other member keeps
        // its remembered key id, and its key is not read. Both runs
        // ascend, as the candidates do.
        let key_writes = match self.src.key_col.as_ref().and_then(|c| world.component_id(c)) {
            Some(cid) => {
                let d = ctx.comp_deltas;
                let lo = d.partition_point(|&(c, _)| c < cid);
                &d[lo..lo + d[lo..].partition_point(|&(c, _)| c == cid)]
            }
            None => &[],
        };
        let mut respawned = ctx.structural.iter().copied().peekable();
        let mut rekeyed = key_writes.iter().map(|&(_, e)| e).peekable();
        let mut moved = |c: EntityId| {
            while respawned.next_if(|&e| e < c).is_some() {}
            while rekeyed.next_if(|&e| e < c).is_some() {}
            respawned.next_if_eq(&c).is_some() | rekeyed.next_if_eq(&c).is_some()
        };
        let mut deltas = Vec::new();
        for &c in cands.iter() {
            let slot = c.index() as usize;
            let now = next.next_if_eq(&&c).is_some();
            let held = self.rows.held(slot);
            if held == Some(c) {
                if !now {
                    let old = self.rows.forget(slot, keys);
                    deltas.push(RowDelta { id: c, old: Some(old), new: None });
                    continue;
                }
                let old = self.rows.fields(slot);
                let key = if moved(c) { keys.rekey(old.key, cols.key(slot)) } else { old.key };
                let new = cols.read(slot, key);
                if !new.same(&old) {
                    self.rows.put(slot, c, new);
                    deltas.push(RowDelta { id: c, old: Some(old), new: Some(new) });
                }
            } else if now {
                // A restored entity may reuse a slot at a lower generation
                // than the tenant it replaces, so it sorts first: retract
                // that tenant here, just ahead of its own turn.
                if let Some(gone) = held {
                    let old = self.rows.forget(slot, keys);
                    deltas.push(RowDelta { id: gone, old: Some(old), new: None });
                }
                let new = cols.read(slot, keys.rekey(NO_KEY, cols.key(slot)));
                self.rows.put(slot, c, new);
                deltas.push(RowDelta { id: c, old: None, new: Some(new) });
            }
        }
        FoldOut {
            cands: cands.len(),
            passed: members.len(),
            deltas,
        }
    }

    /// Hand the source's current members to `sink` a block of ascending
    /// slots at a time, evaluated through the planner (the plan
    /// [`Query::run`] executes: index probe when one applies) — a pinned
    /// scan tests its one entity instead.
    fn visit(&self, world: &World, sink: &mut dyn FnMut(&[u32])) {
        let query = &self.src.query;
        match self.src.only {
            Some(o) => RowFilter::of(world, query).select(&[o], sink),
            None => {
                query.plan_for(world).execute(world, sink);
            }
        }
    }

    /// The source's current members, ascending by id ([`SourceState::visit`]).
    fn evaluate(&self, world: &World) -> Vec<EntityId> {
        let slots = world.slots();
        let mut ids = Vec::new();
        self.visit(world, &mut |sel| ids.extend(sel.iter().map(|&s| slots.id_at(s))));
        ids
    }

    /// Seed the members from the live world (registration / recovery) —
    /// initial rows are state, not events. Members are read in
    /// ascending id order through columns resolved once; with `keys`
    /// each row's key is interned as it is read, a string key once per
    /// distinct dictionary code ([`CodeMemo`]); a group seed passes none
    /// and takes its ids per group from the sorted run. Returns the
    /// member ids, ascending.
    fn init(&mut self, world: &World, mut keys: Option<&mut KeyTable>) -> Vec<EntityId> {
        let ids = self.evaluate(world);
        let cols = Cols::new(&self.src, world);
        if let Some(last) = ids.last() {
            self.rows.grow(last.index() as usize + 1);
        }
        let mut memo = cols.key.filter(|_| keys.is_some()).map(CodeMemo::new);
        for &id in &ids {
            let slot = id.index() as usize;
            let key = match (keys.as_deref_mut(), memo.as_mut()) {
                (Some(t), Some(m)) => m.id(t, slot).map_or(NO_KEY, |k| {
                    t.hold(k, 1);
                    k
                }),
                _ => NO_KEY,
            };
            self.rows.put(slot, id, cols.read(slot, key));
        }
        ids
    }
}

/// Key ids of one column's values in a view's key table, for a view seed
/// that interns every row: a string column's once per distinct code
/// (later rows holding it are one vector read), any other's per row.
/// The table must not retire ids while the memo is in use.
struct CodeMemo<'c> {
    col: &'c Column,
    /// Key id of each dictionary code met so far; [`NO_KEY`]: not yet.
    ids: Vec<u32>,
}

impl<'c> CodeMemo<'c> {
    fn new(col: &'c Column) -> CodeMemo<'c> {
        let ids = match col.data() {
            ColumnData::Str(s) => vec![NO_KEY; s.code_bound()],
            _ => Vec::new(),
        };
        CodeMemo { col, ids }
    }

    /// The id in `keys` of the key [`KeyRef::at`] reads at `slot`,
    /// interned with no rows counted if it is new; `None` for no key.
    #[inline]
    fn id(&mut self, keys: &mut KeyTable, slot: usize) -> Option<u32> {
        match self.col.data() {
            ColumnData::Str(s) => {
                let code = s.code(slot)?;
                let memo = &mut self.ids[code as usize];
                if *memo == NO_KEY {
                    *memo = keys.id(KeyRef::Str(s.decode(code)?));
                }
                Some(*memo)
            }
            _ => KeyRef::at(self.col, slot).map(|key| keys.id(key)),
        }
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
    /// The buffer the next `out` is merged into, and scratch between.
    spare: Vec<EntityId>,
    deltas: Deltas<EntityId>,
}

impl RowsState {
    fn refresh(
        &mut self,
        world: &World,
        ctx: &FoldCtx<'_>,
        metrics: Option<&CoreMetrics>,
    ) -> Refreshed {
        let fold = self.source.fold(world, ctx, &mut KeyTable::default());
        let d = &mut self.deltas.batch;
        d.clear();
        for row in &fold.deltas {
            match (&row.old, &row.new) {
                (None, Some(_)) => d.entered.push(row.id),
                (Some(_), None) => d.exited.push(row.id),
                _ => {}
            }
        }
        if !d.is_empty() {
            self.spare.clear();
            apply_diff(&self.out, &d.entered, &d.exited, &mut self.spare);
            std::mem::swap(&mut self.out, &mut self.spare);
        }
        // `changed`: touched rows that are (still) members and did not
        // just enter — every entered row is a touched member.
        self.spare.clear();
        intersect(ctx.touched, &self.out, &mut self.spare);
        apply_diff(&self.spare, &[], &d.entered, &mut d.changed);
        if let Some(m) = metrics {
            m.op_scan.note(fold.cands, fold.deltas.len());
            if !self.source.src.query.predicates().is_empty() {
                m.op_filter.note(fold.cands, fold.passed);
            }
        }
        Refreshed {
            cands: fold.cands,
            entered: d.entered.len(),
            exited: d.exited.len(),
            changed: d.changed.len(),
            keys: 0,
        }
    }

    /// Move the scan's `within` disk and re-evaluate through the planner
    /// once; the membership diff is the batch's `entered` / `exited`.
    fn retarget(&mut self, world: &World, center: Vec2, radius: f32) {
        self.source.src.query.retarget_within(center, radius);
        let rows = self.source.evaluate(world);
        let (d, kept) = (&mut self.deltas.batch, &mut self.spare);
        d.clear();
        kept.clear();
        intersect(&self.out, &rows, kept);
        apply_diff(&rows, &[], kept, &mut d.entered);
        apply_diff(&self.out, &[], kept, &mut d.exited);
        for id in &d.exited {
            self.source.rows.ids[id.index() as usize] = None;
        }
        for &id in &d.entered {
            self.source.rows.put(id.index() as usize, id, Fields::NONE);
        }
        self.out = rows;
    }
}

// ---------------------------------------------------------------------
// Join operator
// ---------------------------------------------------------------------

/// Per-side probe structure: posting lists by key id for equi-joins, a
/// uniform cell map (cell edge = radius) for spatial joins. Posting
/// lists stay sorted by id so probes return deterministic candidates.
#[derive(Debug, Clone)]
enum SideIndex {
    Keyed(Vec<Vec<EntityId>>),
    Cells {
        cell: f32,
        map: HashMap<(i64, i64), Vec<EntityId>>,
    },
}

fn cell_of(p: [f32; 2], cell: f32) -> (i64, i64) {
    ((p[0] / cell).floor() as i64, (p[1] / cell).floor() as i64)
}

/// Insert `id` into a sorted posting list — an append when it sorts
/// last, as every id of an ascending seed does.
fn posting_insert(list: &mut Vec<EntityId>, id: EntityId) {
    match list.last() {
        Some(&last) if last >= id => {
            if let Err(pos) = list.binary_search(&id) {
                list.insert(pos, id);
            }
        }
        _ => list.push(id),
    }
}

fn posting_remove(list: &mut Vec<EntityId>, id: EntityId) {
    if let Ok(pos) = list.binary_search(&id) {
        list.remove(pos);
    }
}

impl SideIndex {
    /// Fold one row delta of this side into the index.
    fn apply(&mut self, d: &RowDelta) {
        match self {
            SideIndex::Keyed(lists) => {
                if let Some(o) = d.old.filter(|o| o.key != NO_KEY) {
                    posting_remove(&mut lists[o.key as usize], d.id);
                }
                if let Some(n) = d.new.filter(|n| n.key != NO_KEY) {
                    let k = n.key as usize;
                    if lists.len() <= k {
                        lists.resize_with(k + 1, Vec::new);
                    }
                    posting_insert(&mut lists[k], d.id);
                }
            }
            SideIndex::Cells { cell, map } => {
                if let Some(p) = d.old.and_then(|o| o.pos) {
                    let c = cell_of(p, *cell);
                    if let Some(list) = map.get_mut(&c) {
                        posting_remove(list, d.id);
                        if list.is_empty() {
                            map.remove(&c);
                        }
                    }
                }
                if let Some(p) = d.new.and_then(|n| n.pos) {
                    posting_insert(map.entry(cell_of(p, *cell)).or_default(), d.id);
                }
            }
        }
    }

    /// This side's rows matching a row of the other side with fields
    /// `f`, into `out` (cleared first), ascending. `rows` are this
    /// side's members: a cell probe reads their positions by slot.
    fn probe(&self, rows: &SlotRows, f: &Fields, out: &mut Vec<EntityId>) {
        out.clear();
        match self {
            SideIndex::Keyed(lists) => {
                if let Some(list) = lists.get(f.key as usize) {
                    out.extend_from_slice(list);
                }
            }
            SideIndex::Cells { cell, map } => {
                let Some(p) = f.pos else { return };
                let (cx, cy) = cell_of(p, *cell);
                let at = Vec2::new(p[0], p[1]);
                for dx in -1..=1i64 {
                    for dy in -1..=1i64 {
                        // an infinite position's cell is saturated: none lies past it
                        let (Some(x), Some(y)) = (cx.checked_add(dx), cy.checked_add(dy)) else {
                            continue;
                        };
                        for &id in map.get(&(x, y)).into_iter().flatten() {
                            let close = rows
                                .fields(id.index() as usize)
                                .pos
                                .is_some_and(|[x, y]| Vec2::new(x, y).dist2(at) <= cell * cell);
                            if close {
                                out.push(id);
                            }
                        }
                    }
                }
                out.sort_unstable();
            }
        }
    }
}

#[derive(Debug, Clone)]
struct JoinState {
    left: SourceState,
    right: SourceState,
    /// Both sides' join keys: one table, so ids compare across sides.
    keys: KeyTable,
    l_idx: SideIndex,
    r_idx: SideIndex,
    /// Materialized pairs, ascending by `(left, right)`. Self-pairs are
    /// excluded.
    pairs: Vec<(EntityId, EntityId)>,
    /// Scratch: probe hits, ±1 pair weights, the next `pairs`.
    hits: Vec<EntityId>,
    weights: Vec<((EntityId, EntityId), i32)>,
    spare: Vec<(EntityId, EntityId)>,
    deltas: Deltas<(EntityId, EntityId)>,
}

impl JoinState {
    /// Bilinear delta rule, applied sequentially: left deltas probe the
    /// pre-batch right state, right deltas probe the post-batch left
    /// state. One sort and a sum per pair net the ±1 pair weights to the
    /// entered/exited sets, which are merged into the pairs.
    fn refresh(
        &mut self,
        world: &World,
        ctx: &FoldCtx<'_>,
        metrics: Option<&CoreMetrics>,
    ) -> Refreshed {
        let (hits, weights) = (&mut self.hits, &mut self.weights);
        weights.clear();

        // ΔL ⋈ R_old — the right source has not folded yet.
        let l_fold = self.left.fold(world, ctx, &mut self.keys);
        for d in &l_fold.deltas {
            for (f, w) in [(d.old, -1), (d.new, 1)] {
                let Some(f) = f else { continue };
                self.r_idx.probe(&self.right.rows, &f, hits);
                weights.extend(hits.iter().filter(|&&r| r != d.id).map(|&r| ((d.id, r), w)));
            }
            self.l_idx.apply(d);
        }

        // L_new ⋈ ΔR — the left side now reflects this batch.
        let r_fold = self.right.fold(world, ctx, &mut self.keys);
        for d in &r_fold.deltas {
            for (f, w) in [(d.old, -1), (d.new, 1)] {
                let Some(f) = f else { continue };
                self.l_idx.probe(&self.left.rows, &f, hits);
                weights.extend(hits.iter().filter(|&&l| l != d.id).map(|&l| ((l, d.id), w)));
            }
            self.r_idx.apply(d);
        }
        self.keys.sweep();

        weights.sort_unstable_by_key(|&(pair, _)| pair);
        let d = &mut self.deltas.batch;
        d.clear();
        for run in weights.chunk_by(|a, b| a.0 == b.0) {
            match run.iter().map(|&(_, w)| w).sum::<i32>().cmp(&0) {
                std::cmp::Ordering::Greater => d.entered.push(run[0].0),
                std::cmp::Ordering::Less => d.exited.push(run[0].0),
                std::cmp::Ordering::Equal => {}
            }
        }
        if !d.is_empty() {
            self.spare.clear();
            apply_diff(&self.pairs, &d.entered, &d.exited, &mut self.spare);
            std::mem::swap(&mut self.pairs, &mut self.spare);
        }
        let done = Refreshed {
            cands: l_fold.cands + r_fold.cands,
            entered: d.entered.len(),
            exited: d.exited.len(),
            changed: 0,
            keys: self.keys.len(),
        };
        if let Some(m) = metrics {
            let rows_in = l_fold.deltas.len() + r_fold.deltas.len();
            m.op_scan.note(rows_in, rows_in);
            m.op_join.note(rows_in, done.entered + done.exited);
        }
        done
    }

    /// Cold-start materialization (registration / recovery): each side
    /// seeds its rows and keys in id order, so postings are appended.
    fn init(&mut self, world: &World) {
        let l_ids = self.left.init(world, Some(&mut self.keys));
        let r_ids = self.right.init(world, Some(&mut self.keys));
        for (side, idx, ids) in [
            (&self.left, &mut self.l_idx, &l_ids),
            (&self.right, &mut self.r_idx, &r_ids),
        ] {
            for &id in ids {
                let new = Some(side.rows.fields(id.index() as usize));
                idx.apply(&RowDelta { id, old: None, new });
            }
        }
        // left ids ascend and every probe answers in ascending order,
        // so the pairs come out sorted and duplicate-free
        let mut pairs = Vec::new();
        let mut hits = Vec::new();
        for l in l_ids {
            let f = self.left.rows.fields(l.index() as usize);
            self.r_idx.probe(&self.right.rows, &f, &mut hits);
            pairs.extend(hits.iter().filter(|&&r| r != l).map(|&r| (l, r)));
        }
        debug_assert!(pairs.windows(2).all(|w| w[0] < w[1]));
        self.pairs = pairs;
    }
}

// ---------------------------------------------------------------------
// Group-aggregate operator
// ---------------------------------------------------------------------

/// A group's maintained state, and whether it is on the touched list.
#[derive(Debug, Clone, Default)]
struct GroupAgg {
    acc: Maintained,
    touched: bool,
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

/// Where the key of each group of a fold comes from; group `g` is the
/// `g`-th in key order.
enum GroupKeys<'w> {
    /// No key column: every member is in the one global group (none when
    /// there are no members). A key column not defined has no groups.
    Global(usize),
    /// A string or an indexed column: group `g` is key id `ids[g].1` of
    /// the table (the column's dictionary, or the index's keys).
    Ids(&'w KeyTable, Vec<(u64, u32)>),
    /// An unindexed column of scalars: group `g`'s key is the one at
    /// slot `at[g]`.
    Column(&'w Column, Vec<u32>),
}

impl<'w> GroupKeys<'w> {
    fn len(&self) -> usize {
        match self {
            GroupKeys::Global(n) => *n,
            GroupKeys::Ids(_, ids) => ids.len(),
            GroupKeys::Column(_, at) => at.len(),
        }
    }

    /// The key of group `g`; `None` for the global group.
    fn get(&self, g: usize) -> Option<KeyRef<'w>> {
        match *self {
            GroupKeys::Global(_) => None,
            GroupKeys::Ids(table, ref ids) => table.get(ids[g].1),
            GroupKeys::Column(col, ref at) => KeyRef::at(col, at[g] as usize),
        }
    }
}

/// A group fold: each member's group number ([`NO_KEY`]: none), groups
/// numbered in key order, and each group's key and state by number.
struct GroupFold<'w, S> {
    of: Vec<u32>,
    keys: GroupKeys<'w>,
    groups: Vec<S>,
}

/// The group table: running state per group id — the group key's id in
/// the operator's [`KeyTable`], 0 for the global group — seeded by one
/// fold ([`GroupTable::fold`]) and folded one ±row at a time after.
#[derive(Debug, Clone)]
struct GroupTable {
    kind: AggKind,
    groups: Vec<GroupAgg>,
    /// Groups this refresh's deltas touched, each once.
    touched: Vec<u32>,
    /// Min/max retractions of the current extreme — the "recompute from
    /// the ordered multiset" events the metrics surface.
    retracts: u64,
}

impl GroupTable {
    /// The one group fold — a group plan's evaluate (into [`Acc`]s) and
    /// a table's seed ([`GroupState::init`]) alike: `members` (ascending
    /// live slots) are numbered by group ([`GroupTable::number`]) and each
    /// one's slot and value (NaN: none) handed to `insert` into its group,
    /// in slot order, as per-row inserts would (sums are bit-identical).
    /// Rows without a group key (missing, or NaN) belong to no group;
    /// without a key column every member is in the one global group.
    fn fold<'w, S: Default>(
        world: &'w World,
        src: &Source,
        members: &[u32],
        mut insert: impl FnMut(&mut S, u32, f64),
    ) -> GroupFold<'w, S> {
        let (of, keys) = GroupTable::number(world, src, members);
        let val_col = src.val_col.as_ref().and_then(|c| world.column(c));
        let mut groups: Vec<S> = (0..keys.len()).map(|_| S::default()).collect();
        for (&slot, &g) in members.iter().zip(&of) {
            if g != NO_KEY {
                let val = val_col.and_then(|c| c.get_number(slot as usize)).unwrap_or(f64::NAN);
                insert(&mut groups[g as usize], slot, val);
            }
        }
        GroupFold { of, keys, groups }
    }

    /// Number the groups of `members` in key order: each member's group
    /// number ([`NO_KEY`]: no key, as for every member when the key
    /// column is not defined) and the groups' keys.
    ///
    /// A string column's members carry their dictionary codes, and an
    /// indexed column's the index's key ids (`SecondaryIndex::key_id`):
    /// no hash and no string touched per row, and only the distinct ids
    /// are put in key order ([`KeyTable::sort`]). Any other column's keys
    /// are scalars, each spelled out whole by its order-preserving prefix
    /// ([`KeyRef::prefix`]): a stable radix sort on it puts the keyed
    /// members in key order, and a run of one prefix is one group.
    fn number<'w>(world: &'w World, src: &Source, members: &[u32]) -> (Vec<u32>, GroupKeys<'w>) {
        let Some(key_col) = &src.key_col else {
            let global = GroupKeys::Global(usize::from(!members.is_empty()));
            return (vec![0; members.len()], global);
        };
        let Some(col) = world.column(key_col) else {
            return (vec![NO_KEY; members.len()], GroupKeys::Global(0));
        };
        let key_ids: Option<(&KeyTable, Vec<u32>)> = match (col.data(), world.index_on(key_col)) {
            (ColumnData::Str(s), _) => {
                let code = |&m: &u32| s.code(m as usize).unwrap_or(NO_KEY);
                Some((s.dict(), members.iter().map(code).collect()))
            }
            (_, Some(idx)) => Some((idx.keys(col), members.iter().map(|&m| idx.key_id(m as usize)).collect())),
            _ => None,
        };
        if let Some((table, mut of)) = key_ids {
            // each key id's group number; first a mark that it is in use
            let mut number = vec![NO_KEY; table.id_bound()];
            let mut ids = Vec::with_capacity(members.len().min(table.id_bound()));
            for &k in &of {
                if k != NO_KEY && number[k as usize] == NO_KEY {
                    number[k as usize] = 0;
                    ids.push((table.prefix(k), k));
                }
            }
            table.sort(&mut ids);
            for (g, &(_, k)) in (0u32..).zip(&ids) {
                number[k as usize] = g;
            }
            for k in of.iter_mut().filter(|k| **k != NO_KEY) {
                *k = number[*k as usize];
            }
            return (of, GroupKeys::Ids(table, ids));
        }
        // (prefix, position in `members`) of each keyed member
        let mut run: Vec<(u64, u32)> = (members.iter().zip(0u32..))
            .filter_map(|(&m, at)| Some((KeyRef::at(col, m as usize)?.prefix(), at)))
            .collect();
        radix_sort::<_, 8>(&mut run, |&(prefix, _)| prefix);
        let mut of = vec![NO_KEY; members.len()];
        let mut first = Vec::new();
        for group in run.chunk_by(|a, b| a.0 == b.0) {
            for &(_, at) in group {
                of[at as usize] = first.len() as u32;
            }
            first.push(members[group[0].1 as usize]);
        }
        (of, GroupKeys::Column(col, first))
    }

    /// The state of group `g`, flagged touched.
    fn touch(&mut self, g: u32) -> &mut GroupAgg {
        let i = g as usize;
        if self.groups.len() <= i {
            self.groups.resize_with(i + 1, GroupAgg::default);
        }
        let group = &mut self.groups[i];
        if !group.touched {
            group.touched = true;
            self.touched.push(g);
        }
        group
    }
}

/// Rebuild `v` in `spare` in one pass, then swap them: `(at, Some(row))`
/// inserts `row` before old position `at`, `(at, None)` hands the row at
/// `at` to `gone`; edits ascend by `at`.
fn splice<T>(
    v: &mut Vec<T>,
    spare: &mut Vec<T>,
    edits: impl Iterator<Item = (usize, Option<T>)>,
    mut gone: impl FnMut(T),
) {
    spare.clear();
    let mut old = v.drain(..);
    let mut next = 0;
    for (at, row) in edits {
        spare.extend(old.by_ref().take(at - next));
        next = at;
        match row {
            Some(row) => spare.push(row),
            None => {
                gone(old.next().expect("an exited row is a row"));
                next += 1;
            }
        }
    }
    spare.extend(old);
    std::mem::swap(v, spare);
}

#[derive(Debug, Clone)]
struct GroupState {
    source: SourceState,
    /// Group keys, interned: a group's id indexes the group table.
    keys: KeyTable,
    table: GroupTable,
    /// Materialized output, ascending by group key, and each row's key
    /// prefix and group id (full keys are compared on prefix ties only).
    out: Vec<GroupRow>,
    out_keys: Vec<(u64, u32)>,
    /// Scratch: touched groups by key, edits by position, next outputs.
    order: Vec<(u64, u32)>,
    edits: Vec<(usize, Option<(u64, u32)>)>,
    spare: (Vec<GroupRow>, Vec<(u64, u32)>),
    deltas: Deltas<GroupRow>,
}

impl GroupState {
    /// The group of a row with fields `f`: its key id, 0 for the global
    /// group; `None` for a keyed view's row without a key.
    fn group_of(&self, f: &Fields) -> Option<u32> {
        match (&self.source.src.key_col, f.key) {
            (None, _) => Some(0),
            (Some(_), NO_KEY) => None,
            (Some(_), k) => Some(k),
        }
    }

    /// Patch the output row of every touched group, in key order, into
    /// the batch: a group still holding rows whose value moved (bit for
    /// bit) is `changed`, in place; one left without rows `exited`, a new
    /// one `entered`, both applied in one merge. A changed row is copied
    /// into the batch only for a subscriber. Returns the three counts.
    fn patch(&mut self) -> [usize; 3] {
        let copy_changed = self.deltas.subscribed();
        let mut changed = 0;
        let d = &mut self.deltas.batch;
        d.clear();
        let keys = &self.keys;
        self.order.clear();
        self.order.extend(self.table.touched.drain(..).map(|g| (keys.prefix(g), g)));
        keys.sort(&mut self.order);
        self.edits.clear();
        let mut at = 0;
        for &(p, g) in &self.order {
            let group = &mut self.table.groups[g as usize];
            group.touched = false;
            let below = |&(q, o): &(u64, u32)| q < p || (q == p && keys.order(o, g).is_lt());
            at += gallop(&self.out_keys[at..], below);
            let value = group.acc.read(self.table.kind);
            match (self.out_keys.get(at).is_some_and(|&(_, o)| o == g), group.acc.rows() > 0) {
                (true, true) => {
                    if self.out[at].value.to_bits() != value.to_bits() {
                        self.out[at].value = value;
                        changed += 1;
                        if copy_changed {
                            d.changed.push(self.out[at].clone());
                        }
                    }
                }
                (true, false) => self.edits.push((at, None)),
                (false, true) => {
                    let key = keys.get(g).map(key_repr);
                    d.entered.push(GroupRow { key, value });
                    self.edits.push((at, Some((p, g))));
                }
                (false, false) => {}
            }
        }
        if !self.edits.is_empty() {
            let mut entered = d.entered.iter().cloned();
            let mut row = || entered.next().expect("one row per entered group");
            let rows = self.edits.iter().map(|&(at, e)| (at, e.map(|_| row())));
            splice(&mut self.out, &mut self.spare.0, rows, |row| d.exited.push(row));
            splice(&mut self.out_keys, &mut self.spare.1, self.edits.iter().copied(), drop);
        }
        [d.entered.len(), d.exited.len(), changed]
    }

    fn refresh(
        &mut self,
        world: &World,
        ctx: &FoldCtx<'_>,
        metrics: Option<&CoreMetrics>,
    ) -> Refreshed {
        let fold = self.source.fold(world, ctx, &mut self.keys);
        let (retracts_before, kind) = (self.table.retracts, self.table.kind);
        // retract by the remembered fields: exactly what was inserted
        for d in &fold.deltas {
            if let Some(o) = d.old {
                if let Some(g) = self.group_of(&o) {
                    let recomputed = self.table.touch(g).acc.retract(kind, d.id, o.val);
                    self.table.retracts += u64::from(recomputed);
                }
            }
            if let Some(n) = d.new {
                if let Some(g) = self.group_of(&n) {
                    self.table.touch(g).acc.insert(kind, d.id.index(), n.val, || d.id);
                }
            }
        }
        let [entered, exited, changed] = self.patch();
        self.keys.sweep();
        let done = Refreshed {
            cands: fold.cands,
            entered,
            exited,
            changed,
            keys: self.keys.len(),
        };
        if let Some(m) = metrics {
            let rows_in = fold.deltas.len();
            m.op_scan.note(rows_in, rows_in);
            m.op_group.note(rows_in, entered + exited + changed);
            m.op_group_retracts.add(self.table.retracts - retracts_before);
        }
        done
    }

    /// Seed from one fold ([`GroupTable::fold`]): each group's key is
    /// interned once, for all its rows, and the output is built in key
    /// order.
    fn init(&mut self, world: &World) {
        let members: Vec<u32> = self.source.init(world, None).iter().map(|id| id.index()).collect();
        let (kind, slots) = (self.table.kind, world.slots());
        let insert = |g: &mut GroupAgg, slot, v| g.acc.insert(kind, slot, v, || slots.id_at(slot));
        let fold = GroupTable::fold(world, &self.source.src, &members, insert);
        let keys = &mut self.keys;
        for (g, group) in fold.groups.iter().enumerate() {
            let key = fold.keys.get(g);
            let id = key.map_or(0, |k| keys.intern(k, group.acc.rows()));
            // a fresh table hands out ids in key order: 0, 1, 2, …
            debug_assert_eq!(id as usize, g);
            self.out.push(GroupRow {
                key: key.map(key_repr),
                value: group.acc.read(kind),
            });
            self.out_keys.push((keys.prefix(id), id));
        }
        if let Some(v) = self.source.rows.keys.as_mut() {
            for (&slot, &g) in members.iter().zip(&fold.of) {
                v[slot as usize] = g;
            }
        }
        self.table.groups = fold.groups;
    }
}

// ---------------------------------------------------------------------
// The registered view
// ---------------------------------------------------------------------

// one per registered view: the variants' sizes do not matter
#[allow(clippy::large_enum_variant)]
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
    /// world. Initial rows are state, not delta events.
    pub(crate) fn new(plan: ViewPlan, world: &World) -> Result<PlanView, CoreError> {
        let mut state = compile(&plan)?;
        match &mut state {
            OpState::Rows(s) => s.out = s.source.init(world, None),
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

    /// Fold one change-stream segment into the operator tree and publish
    /// the batch; with metrics attached the fold is timed.
    pub(crate) fn refresh(
        &mut self,
        world: &World,
        ctx: &FoldCtx<'_>,
        slot: usize,
        metrics: Option<&CoreMetrics>,
        retention: Option<usize>,
    ) {
        let started = metrics.map(|_| Instant::now());
        let (done, held) = match &mut self.state {
            OpState::Rows(s) => (s.refresh(world, ctx, metrics), s.deltas.publish(retention)),
            OpState::Join(s) => (s.refresh(world, ctx, metrics), s.deltas.publish(retention)),
            OpState::Group(s) => (s.refresh(world, ctx, metrics), s.deltas.publish(retention)),
        };
        let delta_rows = (done.entered + done.exited + done.changed) as u64;
        self.stats.refreshes += 1;
        self.stats.deltas_seen += ctx.batch_len as u64;
        self.stats.delta_rows += delta_rows;
        if let (Some(m), Some(started)) = (metrics, started) {
            let fold_us = started.elapsed().as_micros() as u64;
            let per_slot = m.view_slot(slot);
            per_slot.fold_us.observe(fold_us);
            m.view_refreshes.inc();
            m.view_deltas.add(ctx.batch_len as u64);
            m.view_candidates.observe(done.cands as u64);
            m.view_entered.add(done.entered as u64);
            m.view_exited.add(done.exited as u64);
            m.view_changed.add(done.changed as u64);
            per_slot.refreshes.inc();
            per_slot.candidates.add(done.cands as u64);
            per_slot.delta_rows.add(delta_rows);
            per_slot.keys.set(done.keys as i64);
            per_slot.log_len.set(held as i64);
        }
    }

    /// Move a rows view's spatial restriction: the scan leaf's `within`
    /// is rewritten **in the stored plan** — catalog export,
    /// [`crate::world::World::find_view`], WAL redo and recovery all see
    /// the current disk — and the view re-evaluates once under it. Join
    /// and group-aggregate views refuse ([`CoreError::PlanInvalid`]):
    /// spatial joins follow their anchor's position deltas instead.
    pub(crate) fn retarget(
        &mut self,
        world: &World,
        slot: usize,
        center: Vec2,
        radius: f32,
        retention: Option<usize>,
    ) -> Result<(), CoreError> {
        self.plan.retarget(center, radius)?;
        let OpState::Rows(s) = &mut self.state else {
            unreachable!("a plan that retargets is a scan chain, a rows view")
        };
        s.retarget(world, center, radius);
        let held = s.deltas.publish(retention);
        self.stats.refreshes += 1;
        self.stats.rescans += 1;
        if let Some(m) = world.core_metrics() {
            m.view_refreshes.inc();
            m.view_rescans.inc();
            let per_slot = m.view_slot(slot);
            per_slot.refreshes.inc();
            per_slot.rescans.inc();
            per_slot.log_len.set(held as i64);
        }
        Ok(())
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

    /// Record deltas for a consumer from the next refresh on.
    pub(crate) fn subscribe(&mut self) {
        match &mut self.state {
            OpState::Rows(s) => s.deltas.subscribe(),
            OpState::Join(s) => s.deltas.subscribe(),
            OpState::Group(s) => s.deltas.subscribe(),
        }
    }

    /// The subscriber's untaken deltas (`Some(None)` when unsubscribed);
    /// `None` when the view's rows are not `R`s.
    pub(crate) fn take_delta<R: Clone + 'static>(&mut self) -> Option<Option<ViewDelta<R>>> {
        let deltas: &mut dyn Any = match &mut self.state {
            OpState::Rows(s) => &mut s.deltas,
            OpState::Join(s) => &mut s.deltas,
            OpState::Group(s) => &mut s.deltas,
        };
        deltas.downcast_mut::<Deltas<R>>().map(Deltas::take)
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

    /// Take a subscribed view's deltas.
    fn take<R: Clone + 'static>(w: &mut World, v: ViewId) -> ViewDelta<R> {
        w.take_view_delta(v).expect("subscribed")
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
        w.subscribe_view(v);
        assert_eq!(w.view_rows(v), &[a]);
        let b = w.spawn_at(Vec2::ZERO);
        w.set_f32(b, "hp", 20.0).unwrap();
        w.set_f32(a, "hp", 90.0).unwrap();
        w.refresh_views();
        assert_eq!(w.view_rows(v), &[b]);
        assert_eq!(w.view_rows(v), q.run(&w));
        let log = take::<EntityId>(&mut w, v);
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
        w.subscribe_view(v);
        assert_eq!(w.view_pairs(v), &[(a, b)]);
        // b gets wounded: joins its red teammate a
        w.set_f32(b, "hp", 20.0).unwrap();
        w.refresh_views();
        assert_eq!(w.view_pairs(v), &[(a, b), (b, a)]);
        let log = take::<(EntityId, EntityId)>(&mut w, v);
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
        let log = take::<(EntityId, EntityId)>(&mut w, v);
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
        w.subscribe_view(v);
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
        let log = take::<(EntityId, EntityId)>(&mut w, v);
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
        w.subscribe_view(v);
        assert_eq!(w.view_group_value(v, Some(&Value::Str("red".into()))), Some(2.0));
        assert_eq!(w.view_group_value(v, Some(&Value::Str("blue".into()))), Some(1.0));
        // last blue row leaves: the group disappears
        w.despawn(c);
        w.refresh_views();
        assert_eq!(w.view_group_value(v, Some(&Value::Str("blue".into()))), None);
        let log = take::<GroupRow>(&mut w, v);
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
        let log = take::<GroupRow>(&mut w, v);
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
        w.subscribe_view(v);
        assert!(w.view_groups(v).is_empty());
        assert_eq!(w.view_group_value(v, None), None);
        let a = w.spawn_at(Vec2::ZERO);
        w.set_f32(a, "hp", 10.0).unwrap();
        w.refresh_views();
        assert_eq!(w.view_group_value(v, None), Some(1.0));
        w.set_f32(a, "hp", 90.0).unwrap();
        w.refresh_views();
        assert!(w.view_groups(v).is_empty());
        let log = take::<GroupRow>(&mut w, v);
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
        w.subscribe_view(v);
        // a trade: debit and credit in one batch
        w.set(a, "gold", Value::Int(80)).unwrap();
        w.set(b, "gold", Value::Int(120)).unwrap();
        w.refresh_views();
        assert_eq!(w.view_group_value(v, None), Some(200.0));
        assert!(take::<GroupRow>(&mut w, v).is_empty(), "the sum did not move");
        assert_eq!(w.view_stats(v).delta_rows, 0);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("view.op_group.rows_in"), 2, "both writes reached the aggregate");
        assert_eq!(snap.counter("view.op_group.rows_out"), 0, "no group row changed value");
        assert_oracle(&w, v);
    }

    #[test]
    fn untouched_groups_are_never_logged_changed() {
        // Team a sums +inf and -inf: its value is NaN, which never
        // equals itself. A refresh that touches only team b must report
        // b alone.
        let mut w = world();
        let [a1, a2, b] = [(); 3].map(|_| w.spawn_at(Vec2::ZERO));
        team(&mut w, a1, "a");
        team(&mut w, a2, "a");
        team(&mut w, b, "b");
        w.set_f32(a1, "hp", f32::INFINITY).unwrap();
        w.set_f32(a2, "hp", f32::NEG_INFINITY).unwrap();
        w.set_f32(b, "hp", 1.0).unwrap();
        let v = w
            .register_view_plan(ViewPlan::group_by(
                PlanNode::scan(Query::select()),
                "team",
                AggFn::Sum("hp".into()),
            ))
            .unwrap();
        w.subscribe_view(v);
        assert!(w.view_group_value(v, Some(&Value::Str("a".into()))).unwrap().is_nan());
        w.set_f32(b, "hp", 2.0).unwrap();
        w.refresh_views();
        let log = take::<GroupRow>(&mut w, v);
        assert_eq!(
            log.changed,
            vec![GroupRow {
                key: Some(Value::Str("b".into())),
                value: 2.0
            }]
        );
        assert!(log.entered.is_empty() && log.exited.is_empty());
        // a write to a member of a that leaves its sum NaN changes nothing
        w.set_f32(a1, "hp", f32::INFINITY).unwrap();
        w.set(a1, "gold", Value::Int(1)).unwrap();
        w.refresh_views();
        assert!(take::<GroupRow>(&mut w, v).is_empty());
    }

    #[test]
    fn retarget_refuses_join_and_group_views() {
        let mut w = world();
        let a = w.spawn_at(Vec2::ZERO);
        team(&mut w, a, "red");
        let group = w
            .register_view_plan(ViewPlan::group_by(
                PlanNode::scan(Query::select()),
                "team",
                AggFn::Count,
            ))
            .unwrap();
        let join = w
            .register_view_plan(ViewPlan::join(
                PlanNode::scan(Query::select()),
                PlanNode::scan(Query::select()),
                JoinOn::Within { radius: 5.0 },
            ))
            .unwrap();
        for v in [group, join] {
            let plan = w.view_plan(v).unwrap().clone();
            let err = w.retarget_view(v, Vec2::new(9.0, 9.0), 3.0);
            assert!(matches!(err, Err(CoreError::PlanInvalid(_))), "{err:?}");
            assert_eq!(w.view_plan(v), Some(&plan), "nothing moved");
            assert_eq!(w.view_stats(v).rescans, 0);
        }
        assert_oracle(&w, group);
        assert_oracle(&w, join);
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
        // import restores a dropped plan view at its exact slot,
        // rematerialized from current state
        assert!(w.drop_view(v));
        assert!(w.view_id_at(v.slot()).is_none());
        w.import_catalog(&cat).unwrap();
        assert_eq!(w.view_id_at(v.slot()), Some(v));
        assert_eq!(
            w.view_group_value(v, Some(&Value::Str("red".into()))),
            Some(5.0)
        );
    }

    #[test]
    fn find_view_reattaches_by_plan() {
        let mut w = world();
        let plan = ViewPlan::group_by(PlanNode::scan(Query::select()), "team", AggFn::Count);
        assert_eq!(w.find_view(&plan), None);
        let v = w.register_view_plan(plan.clone()).unwrap();
        assert_eq!(w.find_view(&plan), Some(v));
    }

    /// At 1% churn a rows view, an equi-join and a per-team sum over 10k
    /// rows each fold at most a tenth of the rows their recompute visits
    /// (the whole table per scan leaf), never rescan, and equal the
    /// recompute.
    #[test]
    fn one_percent_churn_folds_a_tenth_of_the_recompute() {
        const N: usize = 10_000;
        let mut w = world();
        let ids: Vec<EntityId> = (0..N)
            .map(|i| {
                let e = w.spawn();
                w.set_f32(e, "hp", (i % 1_000) as f32).unwrap();
                team(&mut w, e, &format!("t{}", i % 1_000));
                e
            })
            .collect();
        let low_hp = || PlanNode::scan(Query::select().filter("hp", CmpOp::Lt, Value::Float(10.0)));
        let all = || PlanNode::scan(Query::select());
        let by_team = JoinOn::Eq { left: "team".into(), right: "team".into() };
        let views = [
            (ViewPlan::new(low_hp()), N),
            (ViewPlan::join(low_hp(), all(), by_team), 2 * N),
            (ViewPlan::group_by(all(), "team", AggFn::Sum("hp".into())), N),
        ]
        .map(|(plan, visited)| (w.register_view_plan(plan).unwrap(), visited as u64));
        for tick in 0..5 {
            let seen: Vec<u64> = views.iter().map(|&(v, _)| w.view_stats(v).deltas_seen).collect();
            for &e in &ids[tick * N / 100..(tick + 1) * N / 100] {
                let hp = w.get_f32(e, "hp").unwrap();
                w.set_f32(e, "hp", (hp + 1.0) % 1_000.0).unwrap();
            }
            w.refresh_views();
            for (&(v, visited), seen) in views.iter().zip(seen) {
                let folded = w.view_stats(v).deltas_seen - seen;
                assert!(folded > 0 && 10 * folded <= visited, "{folded} deltas vs {visited} rows");
                assert_eq!(w.view_stats(v).rescans, 0);
                assert_oracle(&w, v);
            }
        }
    }

    /// A refresh re-reads a member's key only when the member was spawned
    /// or despawned, or its key column written, in the batch; every other
    /// candidate keeps its remembered key id. One batch mixes value-only
    /// writes, key writes (to a new key, to another live key, to the same
    /// key), a removed key, a despawn whose slot a spawn reuses and a
    /// restore one generation below the tenant it replaces. Two group
    /// views and an equi-join on the key equal a recompute after every
    /// refresh, with a subscriber and without one.
    #[test]
    fn group_view_rekeys_only_rows_whose_key_moved() {
        for subscribed in [false, true] {
            let mut w = world();
            let ids: Vec<EntityId> = (0..12)
                .map(|i| {
                    let e = w.spawn_at(Vec2::ZERO);
                    team(&mut w, e, ["red", "blue", "green"][i % 3]);
                    w.set(e, "gold", Value::Int(i as i64)).unwrap();
                    w.set_f32(e, "hp", i as f32).unwrap();
                    e
                })
                .collect();
            let all = || PlanNode::scan(Query::select());
            let by_team = JoinOn::Eq { left: "team".into(), right: "team".into() };
            let views = [
                ViewPlan::group_by(all(), "team", AggFn::Sum("gold".into())),
                ViewPlan::group_by(all(), "team", AggFn::Max("hp".into())),
                ViewPlan::join(all(), all(), by_team),
            ]
            .map(|plan| w.register_view_plan(plan).unwrap());
            if subscribed {
                views.iter().for_each(|&v| w.subscribe_view(v));
            }
            let check = |w: &mut World| {
                w.refresh_views();
                for &v in &views {
                    assert_oracle(w, v);
                }
                if subscribed {
                    for &v in &views[..2] {
                        let d = take::<GroupRow>(w, v);
                        let out = w.view_groups(v);
                        assert!(d.entered.iter().chain(&d.changed).all(|r| out.contains(r)));
                        assert!(d.exited.iter().all(|r| out.iter().all(|o| o.key != r.key)));
                    }
                    take::<(EntityId, EntityId)>(w, views[2]);
                }
            };
            // give slot 8 a second generation, so a restore can go below it
            w.despawn(ids[8]);
            let tenant = w.spawn_at(Vec2::ZERO);
            assert_eq!(tenant.index(), ids[8].index(), "the slot is reused");
            team(&mut w, tenant, "red");
            w.set(tenant, "gold", Value::Int(80)).unwrap();
            check(&mut w);

            w.set(ids[0], "gold", Value::Int(100)).unwrap();
            w.set(ids[1], "gold", Value::Int(-5)).unwrap();
            w.set_f32(ids[2], "hp", 50.0).unwrap();
            team(&mut w, ids[3], "blue");
            team(&mut w, ids[4], "violet");
            team(&mut w, ids[5], "green");
            w.set(ids[5], "gold", Value::Int(7)).unwrap();
            w.remove_component(ids[6], "team").unwrap();
            w.set(ids[6], "gold", Value::Int(60)).unwrap();
            w.despawn(ids[7]);
            let reuse = w.spawn_at(Vec2::ZERO);
            assert_eq!(reuse.index(), ids[7].index(), "the slot is reused");
            team(&mut w, reuse, "blue");
            w.set(reuse, "gold", Value::Int(70)).unwrap();
            w.despawn(tenant);
            let below = EntityId::from_bits(
                u64::from(tenant.index()) | u64::from(tenant.generation() - 1) << 32,
            );
            w.restore_entity(below).unwrap();
            team(&mut w, below, "green");
            w.set(below, "gold", Value::Int(90)).unwrap();
            check(&mut w);

            // value-only writes after key moves: the new keys are kept
            for &e in &ids[..7] {
                w.set(e, "gold", Value::Int(3)).unwrap();
            }
            w.set(below, "gold", Value::Int(4)).unwrap();
            check(&mut w);
        }
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
