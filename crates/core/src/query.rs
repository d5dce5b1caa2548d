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

use crate::column::Column;
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

/// A [`Pred`] resolved once against its column: the literal is coerced
/// into the column's comparison domain up front (a number to `f64`, a
/// string borrowed as `&str`), so testing a row is one typed read by
/// slot and one native comparison — no name lookup, no [`Value`]. It
/// decides exactly what [`compare`] decides on the stored value: numeric
/// coercion, NaN false under every operator, strings and booleans
/// ordered, vectors equal-or-not, mixed types and missing values false.
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

    #[inline]
    fn test(&self, slot: usize) -> bool {
        match *self {
            ColPred::Num(col, op, y) => {
                col.get_number(slot).is_some_and(|x| holds(op, x.partial_cmp(&y)))
            }
            ColPred::Str(col, op, y) => {
                col.get_str(slot).is_some_and(|x| holds(op, Some(x.cmp(y))))
            }
            ColPred::Bool(col, op, y) => {
                col.get_bool(slot).is_some_and(|x| holds(op, Some(x.cmp(&y))))
            }
            ColPred::Vec2(col, op, y) => col.get_v2(slot).is_some_and(|x| vec2_holds(op, x, y)),
            ColPred::Never => false,
        }
    }
}

/// The per-row test every query loop runs — [`crate::planner::Plan`]'s
/// candidates and [`Query::matcher`]'s view-fold candidates alike: the
/// excluded id, an optional disk, and the predicates in order, each
/// resolved once against its column ([`ColPred`]). Rows must be live;
/// the by-name [`Query::matches`] stays as the oracle.
pub(crate) struct RowFilter<'w> {
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
            exclude,
            within: within.map(|(center, radius)| (center, radius, pos)),
            preds: preds.iter().map(|p| ColPred::resolve(p, world)).collect(),
        }
    }

    /// True when live row `id` passes.
    #[inline]
    pub(crate) fn keep(&self, id: EntityId) -> bool {
        if Some(id) == self.exclude {
            return false;
        }
        let slot = id.index() as usize;
        if let Some((center, radius, pos)) = self.within {
            match pos.get_v2(slot) {
                Some([x, y]) if Vec2::new(x, y).dist2(center) <= radius * radius => {}
                _ => return false,
            }
        }
        self.preds.iter().all(|p| p.test(slot))
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
    /// spatial restriction, passing every predicate. The per-row unit of
    /// [`Query::run_scan`].
    pub fn matches(&self, world: &World, id: EntityId) -> bool {
        if !world.is_live(id) || Some(id) == self.exclude {
            return false;
        }
        if let Some((center, radius)) = self.within {
            match world.pos(id) {
                Some(p) if p.dist2(center) <= radius * radius => {}
                _ => return false,
            }
        }
        self.preds.iter().all(|p| p.eval(world, id))
    }

    /// [`Query::matches`] with every referenced column resolved once up
    /// front, for callers that test many entities against one world
    /// state (incremental view maintenance evaluates this per delta
    /// candidate). Same decisions as `matches` on every entity, through
    /// the typed evaluator plans run.
    pub fn matcher<'a>(&'a self, world: &'a World) -> impl Fn(EntityId) -> bool + 'a {
        let filter = RowFilter::new(world, &self.preds, self.within, self.exclude);
        move |id: EntityId| world.is_live(id) && filter.keep(id)
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
    /// definition of correctness — benches use it as the baseline and
    /// property tests as the oracle.
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
/// argmin/argmax return `AggResult::Entity(None)`. Callers that must
/// distinguish empty sets should check `Count` first (as the compiled
/// scripts do). The differential view engine ([`crate::dvm`]) maintains
/// these same semantics incrementally.
pub fn aggregate(world: &World, query: &Query, f: &AggFn) -> AggResult {
    // The plan's members arrive in ascending id order; the column
    // resolves once and each input is a typed read by slot. NaN is a
    // NULL, never an aggregate input.
    let fold = |c: &str, step: &mut dyn FnMut(EntityId, f64)| {
        let col = world.column(c);
        query.plan_for(world).execute(world, &mut |id| {
            let v = col.and_then(|col| col.get_number(id.index() as usize));
            if let Some(v) = v.filter(|v| !v.is_nan()) {
                step(id, v);
            }
        });
    };
    match f {
        AggFn::Count => AggResult::Number(query.count(world) as f64),
        AggFn::Sum(c) => {
            let mut sum = 0.0;
            fold(c, &mut |_, v| sum += v);
            AggResult::Number(sum)
        }
        AggFn::Min(c) | AggFn::Max(c) => {
            let is_min = matches!(f, AggFn::Min(_));
            let mut best: Option<f64> = None;
            fold(c, &mut |_, v| {
                best = Some(match best {
                    None => v,
                    Some(b) if is_min => b.min(v),
                    Some(b) => b.max(v),
                });
            });
            AggResult::Number(best.unwrap_or(0.0))
        }
        AggFn::Avg(c) => {
            let mut sum = 0.0;
            let mut n = 0usize;
            fold(c, &mut |_, v| {
                sum += v;
                n += 1;
            });
            AggResult::Number(if n == 0 { 0.0 } else { sum / n as f64 })
        }
        AggFn::ArgMin(c) | AggFn::ArgMax(c) => {
            let is_min = matches!(f, AggFn::ArgMin(_));
            let mut best: Option<(f64, EntityId)> = None;
            fold(c, &mut |id, v| {
                let better = match best {
                    None => true,
                    // ties break toward the smaller id (members arrive
                    // id-ordered, so strict comparison keeps the first)
                    Some((bv, _)) if is_min => v < bv,
                    Some((bv, _)) => v > bv,
                };
                if better {
                    best = Some((v, id));
                }
            });
            AggResult::Entity(best.map(|(_, id)| id))
        }
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
