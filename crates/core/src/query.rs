//! Declarative queries and aggregates over the world.
//!
//! The paper argues game computations are queries in disguise: "many of
//! the techniques that game programmers have been using … look very
//! similar to the techniques that database engines use for join
//! processing". This module gives the engine a small relational algebra:
//! selections over component predicates, an optional spatial restriction
//! (pushed into the index), and aggregate functions. The script VM runs
//! its sargable neighbour filters through these selections.

use std::cmp::Ordering;

use gamedb_content::{CmpOp, Value, ValueType};
use gamedb_spatial::Vec2;

use crate::agg::{Acc, AggKind};
use crate::column::{Column, ColumnData, StrColumn};
use crate::entity::EntityId;
use crate::planner::{Plan, TableStats};
use crate::world::{CoreError, World, POS_ID};

/// A selection predicate on one component.
#[derive(Debug, Clone, PartialEq)]
pub struct Pred {
    pub component: String,
    pub op: CmpOp,
    pub value: Value,
}

impl Pred {
    /// Shorthand constructor.
    pub fn new(component: impl Into<String>, op: CmpOp, value: Value) -> Self {
        Pred {
            component: component.into(),
            op,
            value,
        }
    }

    /// Evaluate against one entity. Missing components fail the predicate.
    pub fn eval(&self, world: &World, id: EntityId) -> bool {
        let Some(actual) = world.get(id, &self.component) else {
            return false;
        };
        compare(&actual, self.op, &self.value)
    }
}

/// Compare two values under an operator. Numeric types coerce; mixed
/// non-numeric comparisons are false (never panic on designer data).
pub fn compare(a: &Value, op: CmpOp, b: &Value) -> bool {
    let ord: Option<Ordering> = match (a.as_number(), b.as_number()) {
        (Some(x), Some(y)) => x.partial_cmp(&y),
        _ => match (a, b) {
            (Value::Str(x), Value::Str(y)) => Some(x.as_str().cmp(y.as_str())),
            (Value::Bool(x), Value::Bool(y)) => Some(x.cmp(y)),
            (Value::Vec2(ax, ay), Value::Vec2(bx, by)) => {
                return vec2_holds(op, [*ax, *ay], [*bx, *by]);
            }
            _ => None,
        },
    };
    holds(op, ord)
}

/// `op` applied to the outcome of a comparison; an unordered pair (a NaN
/// side, mixed types) fails every operator, `Ne` included.
#[inline]
fn holds(op: CmpOp, ord: Option<Ordering>) -> bool {
    let Some(ord) = ord else { return false };
    match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Ne => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
    }
}

/// Vectors compare only for equality.
#[inline]
fn vec2_holds(op: CmpOp, [ax, ay]: [f32; 2], [bx, by]: [f32; 2]) -> bool {
    match op {
        CmpOp::Eq => ax == bx && ay == by,
        CmpOp::Ne => ax != bx || ay != by,
        _ => false,
    }
}

/// Slots per block: the unit the filter kernels refine and the folds fed
/// by them consume. A block's selection is at most 4 KiB of slots.
pub(crate) const BLOCK: usize = 1024;

/// A [`Pred`] resolved once against its column: the literal is coerced
/// into the column's comparison domain up front (a number to `f64`, a
/// string borrowed as `&str`), and [`ColPred::refine`] picks one loop
/// per (column type × operator) over the typed slice — no name lookup,
/// no [`Value`], no per-row dispatch. It decides exactly what
/// [`compare`] decides on the stored value: numeric coercion, NaN false
/// under every operator, strings and booleans ordered, vectors
/// equal-or-not, mixed types and missing values false.
enum ColPred<'w> {
    Num(&'w Column, CmpOp, f64),
    Str(&'w Column, CmpOp, &'w str),
    Bool(&'w Column, CmpOp, bool),
    Vec2(&'w Column, CmpOp, [f32; 2]),
    /// Unknown column, or a literal no stored value can compare with.
    Never,
}

impl<'w> ColPred<'w> {
    fn resolve(pred: &'w Pred, world: &'w World) -> ColPred<'w> {
        let Some(col) = world.column(&pred.component) else {
            return ColPred::Never;
        };
        let op = pred.op;
        match (col.ty(), &pred.value) {
            (ValueType::Float | ValueType::Int, v) => {
                v.as_number().map_or(ColPred::Never, |y| ColPred::Num(col, op, y))
            }
            (ValueType::Str, Value::Str(s)) => ColPred::Str(col, op, s),
            (ValueType::Bool, Value::Bool(b)) => ColPred::Bool(col, op, *b),
            (ValueType::Vec2, Value::Vec2(x, y)) => ColPred::Vec2(col, op, [*x, *y]),
            _ => ColPred::Never,
        }
    }

    /// Narrow `rows` to those whose stored value passes, into `sel`.
    fn refine(&self, rows: Rows<'_>, sel: &mut Vec<u32>) {
        match *self {
            ColPred::Num(col, op, y) => match col.data() {
                ColumnData::F32(v) => num_kernel(rows, sel, col.presence(), v, op, y),
                ColumnData::I64(v) => num_kernel(rows, sel, col.presence(), v, op, y),
                _ => sel.clear(),
            },
            ColPred::Str(col, op, y) => match col.data() {
                ColumnData::Str(v) => str_kernel(rows, sel, col.presence(), v, op, y),
                _ => sel.clear(),
            },
            ColPred::Bool(col, op, y) => match col.data() {
                ColumnData::Bool(v) => ord_kernel(rows, sel, col.presence(), v, op, &y),
                _ => sel.clear(),
            },
            ColPred::Vec2(col, op, [bx, by]) => match (col.data(), op) {
                (ColumnData::V2(v), CmpOp::Eq) => {
                    retain(rows, sel, col.presence(), v, |&[x, y]| x == bx && y == by)
                }
                (ColumnData::V2(v), CmpOp::Ne) => {
                    retain(rows, sel, col.presence(), v, |&[x, y]| x != bx || y != by)
                }
                _ => sel.clear(),
            },
            ColPred::Never => sel.clear(),
        }
    }
}

/// The rows a filter pass narrows.
#[derive(Clone, Copy)]
enum Rows<'a> {
    /// The selection built by the passes before: ascending live slots.
    Sel,
    /// A scan block not yet selected: the slots from `.0` on, live where
    /// `.1` says so — the first pass reads the block straight.
    Block(u32, &'a [bool]),
}

/// Narrow `rows` into `sel` (ascending slots) to those where the column
/// holds a value and `keep` holds for it: the compaction every kernel
/// runs, instantiated once per (column type × operator). A scan block
/// is tested 64 rows at a time — liveness, presence and `keep` into one
/// bit mask — and costs one step per passing row after; a selection is
/// gathered by slot. Slots past the column's end hold nothing.
#[inline(always)]
fn retain<T>(
    rows: Rows<'_>,
    sel: &mut Vec<u32>,
    present: &[bool],
    data: &[T],
    keep: impl Fn(&T) -> bool,
) {
    match rows {
        Rows::Block(lo, alive) => {
            sel.clear();
            let start = lo as usize;
            let end = (start + alive.len()).min(present.len());
            let Some(n) = end.checked_sub(start) else { return };
            let rows = alive[..n]
                .chunks(64)
                .zip(present[start..end].chunks(64))
                .zip(data[start..end].chunks(64));
            for (base, ((a, p), x)) in (lo..).step_by(64).zip(rows) {
                let mut mask = 0u64;
                for (bit, ((&a, &p), x)) in a.iter().zip(p).zip(x).enumerate() {
                    mask |= u64::from(a & p & keep(x)) << bit;
                }
                push_mask(sel, base, mask);
            }
        }
        Rows::Sel => {
            sel.truncate(sel.partition_point(|&s| (s as usize) < present.len()));
            let mut n = 0;
            for i in 0..sel.len() {
                let s = sel[i];
                sel[n] = s;
                n += usize::from(present[s as usize] & keep(&data[s as usize]));
            }
            sel.truncate(n);
        }
    }
}

/// Append the slot `base + i` for every bit `i` set in `mask`.
#[inline(always)]
pub(crate) fn push_mask(sel: &mut Vec<u32>, base: u32, mut mask: u64) {
    while mask != 0 {
        sel.push(base + mask.trailing_zeros());
        mask &= mask - 1;
    }
}

/// A numeric column against an `f64` literal, under `compare`'s
/// coercion: every stored number widens to `f64`, and an unordered pair
/// (a NaN side) fails every operator — `Ne` is `<` or `>`, not `!=`.
#[inline(always)]
fn num_kernel<T: Copy + AsF64>(
    rows: Rows<'_>,
    sel: &mut Vec<u32>,
    present: &[bool],
    v: &[T],
    op: CmpOp,
    y: f64,
) {
    match op {
        CmpOp::Eq => retain(rows, sel, present, v, |x| x.widen() == y),
        // not `!=`, which a NaN passes
        #[allow(clippy::double_comparisons)]
        CmpOp::Ne => retain(rows, sel, present, v, |x| {
            let x = x.widen();
            x < y || x > y
        }),
        CmpOp::Lt => retain(rows, sel, present, v, |x| x.widen() < y),
        CmpOp::Le => retain(rows, sel, present, v, |x| x.widen() <= y),
        CmpOp::Gt => retain(rows, sel, present, v, |x| x.widen() > y),
        CmpOp::Ge => retain(rows, sel, present, v, |x| x.widen() >= y),
    }
}

/// A totally ordered column (booleans) against its literal.
#[inline(always)]
fn ord_kernel<T: Ord>(
    rows: Rows<'_>,
    sel: &mut Vec<u32>,
    present: &[bool],
    v: &[T],
    op: CmpOp,
    y: &T,
) {
    match op {
        CmpOp::Eq => retain(rows, sel, present, v, |x| x == y),
        CmpOp::Ne => retain(rows, sel, present, v, |x| x != y),
        CmpOp::Lt => retain(rows, sel, present, v, |x| x < y),
        CmpOp::Le => retain(rows, sel, present, v, |x| x <= y),
        CmpOp::Gt => retain(rows, sel, present, v, |x| x > y),
        CmpOp::Ge => retain(rows, sel, present, v, |x| x >= y),
    }
}

/// A dictionary-encoded string column against its literal: an equality
/// looks the literal's code up once and compares codes, an ordering
/// decodes each row's code.
#[inline(always)]
fn str_kernel(
    rows: Rows<'_>,
    sel: &mut Vec<u32>,
    present: &[bool],
    col: &StrColumn,
    op: CmpOp,
    y: &str,
) {
    let codes = col.codes();
    let s = |&code: &u32| col.decode(code).unwrap_or_default();
    match (op, col.code_of(y)) {
        // no slot holds the literal
        (CmpOp::Eq, None) => sel.clear(),
        (CmpOp::Ne, None) => retain(rows, sel, present, codes, |_| true),
        (CmpOp::Eq, Some(c)) => retain(rows, sel, present, codes, |&x| x == c),
        (CmpOp::Ne, Some(c)) => retain(rows, sel, present, codes, |&x| x != c),
        (CmpOp::Lt, _) => retain(rows, sel, present, codes, |x| s(x) < y),
        (CmpOp::Le, _) => retain(rows, sel, present, codes, |x| s(x) <= y),
        (CmpOp::Gt, _) => retain(rows, sel, present, codes, |x| s(x) > y),
        (CmpOp::Ge, _) => retain(rows, sel, present, codes, |x| s(x) >= y),
    }
}

/// The widening every numeric comparison and aggregate input goes
/// through ([`Value::as_number`]'s).
trait AsF64 {
    fn widen(self) -> f64;
}

impl AsF64 for f32 {
    #[inline(always)]
    fn widen(self) -> f64 {
        self as f64
    }
}

impl AsF64 for i64 {
    #[inline(always)]
    fn widen(self) -> f64 {
        self as f64
    }
}

/// The residual test every query runs, a block of slots at a time —
/// [`crate::planner::Plan`]'s candidates and a view fold's candidates
/// alike: the excluded id, an optional disk (a negative radius is the
/// empty disk), and the predicates in order, each resolved once against
/// its column ([`ColPred`]). Every pass narrows one selection of
/// ascending live slots, so rows leave in slot order. The by-name
/// [`Query::matches`] stays as the oracle.
pub(crate) struct RowFilter<'w> {
    world: &'w World,
    exclude: Option<EntityId>,
    within: Option<(Vec2, f32, &'w Column)>,
    preds: Vec<ColPred<'w>>,
}

impl<'w> RowFilter<'w> {
    pub(crate) fn new(
        world: &'w World,
        preds: &'w [Pred],
        within: Option<(Vec2, f32)>,
        exclude: Option<EntityId>,
    ) -> RowFilter<'w> {
        let pos = world.column_by_id(POS_ID).expect("pos column always exists");
        RowFilter {
            world,
            exclude,
            within: within.map(|(center, radius)| (center, radius, pos)),
            preds: preds.iter().map(|p| ColPred::resolve(p, world)).collect(),
        }
    }

    /// The filter of `query` as it stands.
    pub(crate) fn of(world: &'w World, query: &'w Query) -> RowFilter<'w> {
        RowFilter::new(world, &query.preds, query.within, query.exclude)
    }

    /// Narrow `rows` to those that pass, into `sel` (ascending slots):
    /// one pass for the excluded id, one for the disk, one per predicate.
    fn refine(&self, mut rows: Rows<'_>, sel: &mut Vec<u32>) {
        if let Rows::Block(lo, alive) = rows {
            if self.exclude.is_some() || (self.within.is_none() && self.preds.is_empty()) {
                // no kernel to read the block straight: select its live slots
                sel.clear();
                for (base, a) in (lo..).step_by(64).zip(alive.chunks(64)) {
                    let mask = a.iter().enumerate().fold(0u64, |m, (bit, &a)| m | u64::from(a) << bit);
                    push_mask(sel, base, mask);
                }
                rows = Rows::Sel;
            }
        }
        if let Some(ex) = self.exclude.filter(|&ex| self.world.is_live(ex)) {
            if let Ok(i) = sel.binary_search(&ex.index()) {
                sel.remove(i);
            }
        }
        if let Some((center, radius, pos)) = self.within {
            match pos.data() {
                ColumnData::V2(v) if radius >= 0.0 => {
                    let r2 = radius * radius;
                    let inside = |&[x, y]: &[f32; 2]| Vec2::new(x, y).dist2(center) <= r2;
                    retain(rows, sel, pos.presence(), v, inside)
                }
                _ => sel.clear(),
            }
            rows = Rows::Sel;
        }
        for p in &self.preds {
            if matches!(rows, Rows::Sel) && sel.is_empty() {
                return;
            }
            p.refine(rows, sel);
            rows = Rows::Sel;
        }
    }

    /// Every live row, a block of slots at a time: `sink` receives each
    /// block's passing slots, ascending. Returns the live rows scanned.
    pub(crate) fn scan(&self, sink: &mut dyn FnMut(&[u32])) -> usize {
        let alive = self.world.slots().alive();
        let mut sel = Vec::with_capacity(BLOCK.min(alive.len()));
        for (lo, block) in (0u32..).step_by(BLOCK).zip(alive.chunks(BLOCK)) {
            self.refine(Rows::Block(lo, block), &mut sel);
            if !sel.is_empty() {
                sink(&sel);
            }
        }
        self.world.len()
    }

    /// The live members of `ids` (ascending, as every access path and a
    /// view fold produce them), a block of ids at a time: `sink`
    /// receives each block's passing slots, ascending.
    pub(crate) fn select(&self, ids: &[EntityId], sink: &mut dyn FnMut(&[u32])) {
        let mut sel = Vec::with_capacity(BLOCK.min(ids.len()));
        for block in ids.chunks(BLOCK) {
            sel.clear();
            sel.extend(block.iter().filter(|&&id| self.world.is_live(id)).map(|id| id.index()));
            self.select_slots(&mut sel, sink);
        }
    }

    /// Narrow `sel` (ascending live slots, from a probe) in place; pass it on.
    pub(crate) fn select_slots(&self, sel: &mut Vec<u32>, sink: &mut dyn FnMut(&[u32])) {
        self.refine(Rows::Sel, sel);
        if !sel.is_empty() {
            sink(sel);
        }
    }
}

/// A declarative entity query: conjunction of predicates plus an optional
/// spatial restriction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Query {
    preds: Vec<Pred>,
    within: Option<(Vec2, f32)>,
    exclude: Option<EntityId>,
}

impl Query {
    /// Start an unrestricted query (matches every live entity).
    pub fn select() -> Self {
        Query::default()
    }

    /// Add a `component op literal` predicate (conjunction).
    pub fn filter(mut self, component: impl Into<String>, op: CmpOp, value: Value) -> Self {
        self.preds.push(Pred::new(component, op, value));
        self
    }

    /// Restrict to entities within `radius` of `center` (uses the spatial
    /// index instead of scanning).
    pub fn within(mut self, center: Vec2, radius: f32) -> Self {
        self.within = Some((center, radius));
        self
    }

    /// Exclude one entity (scripts exclude "self" constantly).
    pub fn excluding(mut self, id: EntityId) -> Self {
        self.exclude = Some(id);
        self
    }

    /// The predicates of this query.
    pub fn predicates(&self) -> &[Pred] {
        &self.preds
    }

    /// The spatial restriction, if any.
    pub fn spatial(&self) -> Option<(Vec2, f32)> {
        self.within
    }

    /// The excluded entity, if any.
    pub fn excluded(&self) -> Option<EntityId> {
        self.exclude
    }

    /// Replace the spatial restriction in place — standing views over a
    /// moving focus (interest bubbles, aggro ranges) re-anchor through
    /// [`crate::world::World::retarget_view`], which calls this.
    pub fn retarget_within(&mut self, center: Vec2, radius: f32) {
        self.within = Some((center, radius));
    }

    /// Membership test for one entity: live, not excluded, inside the
    /// spatial restriction (a negative radius is the empty disk), passing
    /// every predicate. The per-row unit of [`Query::run_scan`], the
    /// oracle the block filter is held to.
    pub fn matches(&self, world: &World, id: EntityId) -> bool {
        if !world.is_live(id) || Some(id) == self.exclude {
            return false;
        }
        if let Some((center, radius)) = self.within {
            match world.pos(id) {
                Some(p) if radius >= 0.0 && p.dist2(center) <= radius * radius => {}
                _ => return false,
            }
        }
        self.preds.iter().all(|p| p.eval(world, id))
    }

    /// True when some predicate could be answered by a secondary index
    /// on this world — the cue to involve the cost-based planner.
    fn index_eligible(&self, world: &World) -> bool {
        self.preds
            .iter()
            .any(|p| world.index_supports(&p.component, p.op))
    }

    /// The plan [`Query::run`], [`Query::count`] and [`aggregate`]
    /// execute. When any predicate's component carries a supporting
    /// secondary index, the query is planned against catalog statistics
    /// ([`TableStats::for_query`], O(predicates)): the most selective
    /// indexed predicate — with the other bound of a two-sided range on
    /// the same index — goes into the probe and the rest run as residual
    /// filters. Otherwise it is the seed plan ([`Plan::seed`]): spatial
    /// probe when a `within` exists, full scan when not.
    pub(crate) fn plan_for(&self, world: &World) -> Plan {
        if !self.index_eligible(world) {
            return Plan::seed(self);
        }
        let chosen = crate::planner::plan(self, &TableStats::for_query(world, self));
        if let Some(m) = world.core_metrics() {
            m.note_access(&chosen.access);
        }
        chosen
    }

    /// Run, returning matching entities in deterministic (id) order —
    /// the result set of [`Query::run_scan`], whichever plan
    /// [`Query::plan_for`] picks (the property tests hold us to that).
    pub fn run(&self, world: &World) -> Vec<EntityId> {
        self.plan_for(world).run(world)
    }

    /// Reference evaluation: a full scan that never consults the spatial
    /// or secondary indexes. Same result set as [`Query::run`] by
    /// definition of correctness — the property tests' oracle.
    pub fn run_scan(&self, world: &World) -> Vec<EntityId> {
        let mut out = Vec::new();
        for id in world.entities() {
            if self.matches(world, id) {
                out.push(id);
            }
        }
        out
    }

    /// Run and count without materializing ids (same plan as
    /// [`Query::run`]).
    pub fn count(&self, world: &World) -> usize {
        self.plan_for(world).count(world)
    }

    // ---- lowering into the differential view engine ----

    /// Lower into a single-source operator-tree plan: the query becomes
    /// the [`crate::dvm::PlanNode::Scan`] leaf of a [`crate::dvm::ViewPlan`]
    /// — what [`crate::world::World::register_view`] registers.
    pub fn into_plan(self) -> crate::dvm::ViewPlan {
        crate::dvm::ViewPlan::scan(self)
    }

    /// Lower into a continuously maintained **global aggregate** plan —
    /// the standing-view form of [`aggregate`] over this query's rows.
    /// Errors for aggregates the incremental engine does not support
    /// (argmin/argmax).
    pub fn into_aggregate_plan(self, agg: AggFn) -> Result<crate::dvm::ViewPlan, CoreError> {
        let plan = crate::dvm::ViewPlan::aggregate(crate::dvm::PlanNode::scan(self), agg);
        plan.validate()?;
        Ok(plan)
    }

    /// Lower into a continuously maintained **grouped aggregate** plan:
    /// one output row per distinct value of `group_by` among this
    /// query's rows (the "guild wealth leaderboard" shape).
    pub fn into_grouped_plan(
        self,
        group_by: impl Into<String>,
        agg: AggFn,
    ) -> Result<crate::dvm::ViewPlan, CoreError> {
        let plan =
            crate::dvm::ViewPlan::group_by(crate::dvm::PlanNode::scan(self), group_by, agg);
        plan.validate()?;
        Ok(plan)
    }
}

/// Aggregate functions over a component of the matching set.
#[derive(Debug, Clone, PartialEq)]
pub enum AggFn {
    /// Number of matching entities.
    Count,
    /// Sum of a numeric component.
    Sum(String),
    /// Minimum of a numeric component.
    Min(String),
    /// Maximum of a numeric component.
    Max(String),
    /// Mean of a numeric component.
    Avg(String),
    /// Entity with the minimal component value (argmin).
    ArgMin(String),
    /// Entity with the maximal component value (argmax).
    ArgMax(String),
}

/// Result of an aggregate evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum AggResult {
    Number(f64),
    Entity(Option<EntityId>),
}

impl AggResult {
    /// Numeric result, if this aggregate produced one.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            AggResult::Number(n) => Some(*n),
            AggResult::Entity(_) => None,
        }
    }

    /// Entity result for argmin/argmax.
    pub fn as_entity(&self) -> Option<EntityId> {
        match self {
            AggResult::Entity(e) => *e,
            AggResult::Number(_) => None,
        }
    }
}

/// Evaluate an aggregate over the entities matched by `query`.
///
/// Entities missing the aggregated component are skipped, and so are NaN
/// values (SQL-style NULL semantics — a NaN in one row must not poison
/// the whole fold or win an argmin by comparing false against
/// everything). `Sum`/`Count` of an empty set are 0; `Min`/`Max`/`Avg`
/// over no (non-NaN) values return `AggResult::Number(0.0)`, and
/// argmin/argmax return `AggResult::Entity(None)`. A zero `Min`/`Max`
/// reads `+0.0` (the key domain's rule: `-0.0` and `0.0` are one key),
/// and argmin/argmax break ties toward the first row in id order.
/// Callers that must distinguish empty sets should check `Count` first
/// (as the compiled scripts do). The state folded is the one the
/// differential view engine ([`crate::dvm`]) maintains, so the global
/// plan's [`crate::dvm::ViewPlan::evaluate`] reads the same bits.
pub fn aggregate(world: &World, query: &Query, f: &AggFn) -> AggResult {
    let (kind, col) = AggKind::of(f);
    let Some(col) = col else {
        return AggResult::Number(query.count(world) as f64);
    };
    // The plan hands over ascending slots a block at a time, folded from
    // the column's typed slice in the order a row-at-a-time fold saw them
    // (sums are bit-identical). One arm per kind inlines `insert` with its
    // kind constant: the kind is matched once a block, not once a value.
    let col = world.column(col);
    let mut acc = Acc::default();
    query.plan_for(world).execute(world, &mut |sel| match kind {
        AggKind::Min => fold_numbers(col, sel, |slot, v| acc.insert(AggKind::Min, slot, v)),
        AggKind::Max => fold_numbers(col, sel, |slot, v| acc.insert(AggKind::Max, slot, v)),
        // sum and avg fold alike; count has no column
        _ => fold_numbers(col, sel, |slot, v| acc.insert(AggKind::Sum, slot, v)),
    });
    match f {
        AggFn::ArgMin(_) | AggFn::ArgMax(_) => {
            AggResult::Entity(acc.arg().map(|slot| world.slots().id_at(slot)))
        }
        _ => AggResult::Number(acc.read(kind)),
    }
}

/// Hand `step` each number `col` holds at the slots of `sel` (ascending),
/// in slot order, read from the column's typed slice.
#[inline(always)]
fn fold_numbers(col: Option<&Column>, sel: &[u32], step: impl FnMut(u32, f64)) {
    fn each<T: Copy + AsF64>(
        present: &[bool],
        v: &[T],
        sel: &[u32],
        mut step: impl FnMut(u32, f64),
    ) {
        let sel = &sel[..sel.partition_point(|&s| (s as usize) < present.len())];
        for &s in sel {
            if present[s as usize] {
                step(s, v[s as usize].widen());
            }
        }
    }
    let Some(col) = col else { return };
    match col.data() {
        ColumnData::F32(v) => each(col.presence(), v, sel, step),
        ColumnData::I64(v) => each(col.presence(), v, sel, step),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gamedb_content::ValueType;

    fn arena() -> (World, Vec<EntityId>) {
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        w.define_component("team", ValueType::Str).unwrap();
        w.define_component("level", ValueType::Int).unwrap();
        let mut ids = Vec::new();
        // 6 entities on a line, alternating teams, hp = 10*i, level = i
        for i in 0..6 {
            let e = w.spawn_at(Vec2::new(i as f32 * 10.0, 0.0));
            w.set_f32(e, "hp", 10.0 * i as f32).unwrap();
            w.set(
                e,
                "team",
                Value::Str(if i % 2 == 0 { "red" } else { "blue" }.into()),
            )
            .unwrap();
            w.set(e, "level", Value::Int(i as i64)).unwrap();
            ids.push(e);
        }
        (w, ids)
    }

    #[test]
    fn unfiltered_select_returns_all() {
        let (w, ids) = arena();
        assert_eq!(Query::select().run(&w), ids);
        assert_eq!(Query::select().count(&w), 6);
    }

    #[test]
    fn predicate_filtering() {
        let (w, ids) = arena();
        let reds = Query::select()
            .filter("team", CmpOp::Eq, Value::Str("red".into()))
            .run(&w);
        assert_eq!(reds, vec![ids[0], ids[2], ids[4]]);

        let strong = Query::select()
            .filter("hp", CmpOp::Ge, Value::Float(30.0))
            .filter("team", CmpOp::Eq, Value::Str("blue".into()))
            .run(&w);
        assert_eq!(strong, vec![ids[3], ids[5]]);
    }

    #[test]
    fn numeric_coercion_int_vs_float() {
        let (w, ids) = arena();
        // level is int; compare against float literal
        let high = Query::select()
            .filter("level", CmpOp::Gt, Value::Float(3.5))
            .run(&w);
        assert_eq!(high, vec![ids[4], ids[5]]);
    }

    #[test]
    fn spatial_restriction_uses_index() {
        let (w, ids) = arena();
        let near = Query::select()
            .within(Vec2::new(0.0, 0.0), 21.0)
            .run(&w);
        assert_eq!(near, vec![ids[0], ids[1], ids[2]]);

        let near_blue = Query::select()
            .within(Vec2::new(0.0, 0.0), 21.0)
            .filter("team", CmpOp::Eq, Value::Str("blue".into()))
            .run(&w);
        assert_eq!(near_blue, vec![ids[1]]);
    }

    #[test]
    fn excluding_self() {
        let (w, ids) = arena();
        let others = Query::select()
            .within(Vec2::new(0.0, 0.0), 11.0)
            .excluding(ids[0])
            .run(&w);
        assert_eq!(others, vec![ids[1]]);
    }

    #[test]
    fn missing_component_fails_predicate() {
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        let with_hp = w.spawn_at(Vec2::ZERO);
        w.set_f32(with_hp, "hp", 5.0).unwrap();
        let without = w.spawn_at(Vec2::ZERO);
        let _ = without;
        let q = Query::select().filter("hp", CmpOp::Ge, Value::Float(0.0));
        assert_eq!(q.run(&w), vec![with_hp]);
    }

    #[test]
    fn aggregates() {
        let (w, ids) = arena();
        let all = Query::select();
        assert_eq!(aggregate(&w, &all, &AggFn::Count).as_number(), Some(6.0));
        assert_eq!(
            aggregate(&w, &all, &AggFn::Sum("hp".into())).as_number(),
            Some(150.0)
        );
        assert_eq!(
            aggregate(&w, &all, &AggFn::Min("hp".into())).as_number(),
            Some(0.0)
        );
        assert_eq!(
            aggregate(&w, &all, &AggFn::Max("hp".into())).as_number(),
            Some(50.0)
        );
        assert_eq!(
            aggregate(&w, &all, &AggFn::Avg("hp".into())).as_number(),
            Some(25.0)
        );
        assert_eq!(
            aggregate(&w, &all, &AggFn::ArgMax("hp".into())).as_entity(),
            Some(ids[5])
        );
        assert_eq!(
            aggregate(&w, &all, &AggFn::ArgMin("hp".into())).as_entity(),
            Some(ids[0])
        );
    }

    #[test]
    fn aggregate_empty_set() {
        let w = World::new();
        let q = Query::select();
        assert_eq!(aggregate(&w, &q, &AggFn::Count).as_number(), Some(0.0));
        assert_eq!(
            aggregate(&w, &q, &AggFn::Sum("hp".into())).as_number(),
            Some(0.0)
        );
        assert_eq!(
            aggregate(&w, &q, &AggFn::Avg("hp".into())).as_number(),
            Some(0.0)
        );
        assert_eq!(
            aggregate(&w, &q, &AggFn::ArgMin("hp".into())).as_entity(),
            None
        );
    }

    #[test]
    fn aggregate_skips_nan_inputs() {
        // NaN is a NULL: it must neither poison a running fold (sum,
        // avg) nor win an argmin/argmax by comparing false against
        // every candidate, nor count into an avg denominator.
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        let a = w.spawn_at(Vec2::ZERO);
        let b = w.spawn_at(Vec2::ZERO);
        let c = w.spawn_at(Vec2::ZERO);
        w.set_f32(a, "hp", f32::NAN).unwrap();
        w.set_f32(b, "hp", 10.0).unwrap();
        w.set_f32(c, "hp", 30.0).unwrap();
        let q = Query::select();
        assert_eq!(aggregate(&w, &q, &AggFn::Count).as_number(), Some(3.0));
        assert_eq!(
            aggregate(&w, &q, &AggFn::Sum("hp".into())).as_number(),
            Some(40.0)
        );
        assert_eq!(
            aggregate(&w, &q, &AggFn::Min("hp".into())).as_number(),
            Some(10.0)
        );
        assert_eq!(
            aggregate(&w, &q, &AggFn::Max("hp".into())).as_number(),
            Some(30.0)
        );
        assert_eq!(
            aggregate(&w, &q, &AggFn::Avg("hp".into())).as_number(),
            Some(20.0)
        );
        // NaN holds the lowest entity id here; a real value must still win
        assert_eq!(
            aggregate(&w, &q, &AggFn::ArgMin("hp".into())).as_entity(),
            Some(b)
        );
        assert_eq!(
            aggregate(&w, &q, &AggFn::ArgMax("hp".into())).as_entity(),
            Some(c)
        );
    }

    #[test]
    fn aggregate_all_nan_behaves_as_empty() {
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        let a = w.spawn_at(Vec2::ZERO);
        w.set_f32(a, "hp", f32::NAN).unwrap();
        let q = Query::select();
        assert_eq!(
            aggregate(&w, &q, &AggFn::Min("hp".into())).as_number(),
            Some(0.0)
        );
        assert_eq!(
            aggregate(&w, &q, &AggFn::Max("hp".into())).as_number(),
            Some(0.0)
        );
        assert_eq!(
            aggregate(&w, &q, &AggFn::Avg("hp".into())).as_number(),
            Some(0.0)
        );
        assert_eq!(
            aggregate(&w, &q, &AggFn::Sum("hp".into())).as_number(),
            Some(0.0)
        );
        assert_eq!(
            aggregate(&w, &q, &AggFn::ArgMin("hp".into())).as_entity(),
            None
        );
    }

    #[test]
    fn query_lowers_into_operator_plans() {
        let (mut w, ids) = arena();
        let q = Query::select().filter("hp", CmpOp::Lt, Value::Float(30.0));
        let rows = w.register_view_plan(q.clone().into_plan()).unwrap();
        assert_eq!(w.view_rows(rows), q.clone().run(&w));
        let sum = w
            .register_view_plan(q.clone().into_aggregate_plan(AggFn::Sum("hp".into())).unwrap())
            .unwrap();
        assert_eq!(w.view_group_value(sum, None), Some(30.0));
        let per_team = w
            .register_view_plan(
                q.clone().into_grouped_plan("team", AggFn::Count).unwrap(),
            )
            .unwrap();
        assert_eq!(
            w.view_group_value(per_team, Some(&Value::Str("red".into()))),
            Some(2.0)
        );
        // argmin has no incremental form: the lowering refuses it
        assert!(q.into_aggregate_plan(AggFn::ArgMin("hp".into())).is_err());
        let _ = ids;
    }

    #[test]
    fn argmin_tie_breaks_to_lower_id() {
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        let a = w.spawn_at(Vec2::ZERO);
        let b = w.spawn_at(Vec2::ZERO);
        w.set_f32(a, "hp", 7.0).unwrap();
        w.set_f32(b, "hp", 7.0).unwrap();
        assert_eq!(
            aggregate(&w, &Query::select(), &AggFn::ArgMin("hp".into())).as_entity(),
            Some(a)
        );
    }

    #[test]
    fn indexed_run_matches_scan() {
        use crate::index::IndexKind;
        let (mut w, ids) = arena();
        w.create_index("hp", IndexKind::Sorted).unwrap();
        w.create_index("team", IndexKind::Hash).unwrap();

        let queries = vec![
            Query::select().filter("hp", CmpOp::Ge, Value::Float(30.0)),
            Query::select()
                .filter("hp", CmpOp::Lt, Value::Float(45.0))
                .filter("team", CmpOp::Eq, Value::Str("red".into())),
            Query::select()
                .within(Vec2::new(0.0, 0.0), 21.0)
                .filter("team", CmpOp::Eq, Value::Str("blue".into())),
            Query::select()
                .filter("level", CmpOp::Gt, Value::Float(3.5))
                .filter("team", CmpOp::Eq, Value::Str("red".into()))
                .excluding(ids[4]),
        ];
        for q in queries {
            assert_eq!(q.run(&w), q.run_scan(&w));
            assert_eq!(q.count(&w), q.run_scan(&w).len());
        }
    }

    #[test]
    fn run_scan_is_the_reference() {
        let (w, ids) = arena();
        let q = Query::select()
            .within(Vec2::new(0.0, 0.0), 21.0)
            .filter("team", CmpOp::Eq, Value::Str("blue".into()));
        assert_eq!(q.run(&w), q.run_scan(&w));
        assert_eq!(q.run_scan(&w), vec![ids[1]]);
    }

    #[test]
    fn negative_radius_matches_nothing_on_every_plan() {
        use crate::index::IndexKind;
        use crate::planner::{plan, Access, Plan, TableStats};
        // 50 entities on a line; the disk of radius -3 around the origin
        // is empty, whichever way the plan reaches its rows
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        for i in 0..50 {
            let e = w.spawn_at(Vec2::new(i as f32, 0.0));
            w.set_f32(e, "hp", i as f32).unwrap();
        }
        let disk = Query::select().within(Vec2::ZERO, -3.0);
        assert!(disk.run_scan(&w).is_empty(), "the oracle");
        // the seed plan: the spatial probe
        assert!(matches!(Plan::seed(&disk).access, Access::SpatialIndex { .. }));
        assert!(disk.run(&w).is_empty());
        assert_eq!(disk.count(&w), 0);
        let mut out = Vec::new();
        w.within(Vec2::ZERO, -3.0, &mut out);
        assert!(out.is_empty());
        // the full scan with the disk as a residual
        let scan = Plan {
            access: Access::FullScan,
            residual_within: disk.spatial(),
            ..Plan::seed(&disk)
        };
        assert!(scan.run(&w).is_empty());
        // an attribute probe with the disk as a residual
        w.create_index("hp", IndexKind::Sorted).unwrap();
        let probed = disk.clone().filter("hp", CmpOp::Lt, Value::Float(5.0));
        let p = plan(&probed, &TableStats::from_catalog(&w));
        assert!(matches!(p.access, Access::AttributeIndex { .. }), "{}", p.explain());
        assert_eq!(p.residual_within, disk.spatial());
        assert!(p.run(&w).is_empty());
        assert!(probed.run(&w).is_empty());
        assert_eq!(aggregate(&w, &probed, &AggFn::Count).as_number(), Some(0.0));
        // a registered view: seeded empty, and no write lets a row in
        let view = w.register_view(disk.clone());
        assert!(w.view_rows(view).is_empty());
        let near = w.spawn_at(Vec2::new(1.0, 0.0));
        w.set_f32(near, "hp", 1.0).unwrap();
        w.refresh_views();
        assert!(w.view_rows(view).is_empty());
        assert_eq!(w.view_rows(view), disk.run_scan(&w).as_slice());
    }

    #[test]
    fn compare_value_semantics() {
        assert!(compare(&Value::Int(3), CmpOp::Lt, &Value::Float(3.5)));
        assert!(compare(
            &Value::Str("abc".into()),
            CmpOp::Lt,
            &Value::Str("abd".into())
        ));
        assert!(compare(&Value::Bool(false), CmpOp::Lt, &Value::Bool(true)));
        assert!(compare(
            &Value::Vec2(1.0, 2.0),
            CmpOp::Eq,
            &Value::Vec2(1.0, 2.0)
        ));
        assert!(!compare(
            &Value::Vec2(1.0, 2.0),
            CmpOp::Lt,
            &Value::Vec2(3.0, 4.0)
        ));
        // cross-type: false, never panic
        assert!(!compare(&Value::Str("5".into()), CmpOp::Eq, &Value::Int(5)));
    }
}
