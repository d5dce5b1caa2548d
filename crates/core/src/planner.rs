//! A cost-based planner for world queries.
//!
//! The paper's thesis is that game-state access is query processing in
//! disguise — and a query processor earns its keep by *choosing plans*.
//! [`Query`] always probes the spatial index when a `within` restriction
//! exists and evaluates predicates in authoring order; this module adds
//! what a database would: [`TableStats`] collected from the world,
//! selectivity estimation per predicate, short-circuit-aware predicate
//! reordering, and a costed choice among three access paths:
//!
//! * **full scan** — every live entity, residual filters on all of it;
//! * **spatial probe** — when a `within` restriction exists and the disk
//!   is small relative to the map (a huge radius covers the whole map,
//!   where the index only adds overhead);
//! * **attribute-index probe** — when a predicate's component carries a
//!   [`crate::index::SecondaryIndex`] that supports its operator; the
//!   most selective such predicate is pushed into the index — together
//!   with the opposite bound of a two-sided range on the same column,
//!   so `gold >= a AND gold < b` is one probe of the window — and the
//!   rest run as residual filters.
//!
//! Execution reads by slot, a block at a time: every access path yields
//! candidates in ascending id order — the scan as blocks of live slots,
//! an attribute probe as blocks of slots (`SecondaryIndex::probe`), a
//! spatial probe as its sorted id list — and the residual filters,
//! resolved once per execution against their columns
//! (`query::RowFilter`), narrow each block of up to 1,024 slots with one
//! typed loop per predicate, so a plan neither re-sorts its output nor
//! looks a column up by name per row. [`Plan::explain_analyze`] adds the
//! actual candidate and row counts to the `EXPLAIN` line, and every
//! execution reports them to `planner.candidates` / `planner.rows`.
//!
//! Index-backed columns report *exact* NDV and numeric bounds
//! (maintained incrementally by the index itself), so
//! [`TableStats::from_catalog`] prices plans in O(schema) without the
//! full scan [`TableStats::build`] pays — cheap enough that
//! [`Query::run`] replans on every execution. [`Plan::explain`] renders
//! the decision like `EXPLAIN`.
//!
//! Experiment E14 sweeps the query radius and shows the planner tracking
//! the better of the two spatial paths across the crossover;
//! `explain_analyze_golden_per_access_path` holds each attribute probe
//! to at most a tenth of the scan's candidates.

use std::collections::HashSet;
use std::fmt;

use gamedb_content::{CmpOp, Value, ValueType};
use gamedb_spatial::Vec2;

use crate::entity::EntityId;
use crate::index::IndexKind;
use crate::query::{Pred, Query, RowFilter};
use crate::world::World;

/// Per-component statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Column value type (range probes are unservable on vec2).
    pub ty: ValueType,
    /// Entities carrying the component.
    pub present: usize,
    /// Number of distinct values.
    pub ndv: usize,
    /// Minimum numeric value (numeric components only).
    pub min: Option<f64>,
    /// Maximum numeric value (numeric components only).
    pub max: Option<f64>,
    /// Secondary index on this component, if one exists.
    pub index: Option<IndexKind>,
}

/// World statistics the planner costs plans against.
///
/// Built by one full scan ([`TableStats::build`]); games would refresh
/// this at content-load or checkpoint cadence, not per tick — plans stay
/// valid as long as the *distribution* holds, which for designer-authored
/// component data changes slowly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TableStats {
    /// Live entities.
    pub rows: usize,
    /// Entities with a position.
    pub positioned: usize,
    /// Bounding box of positioned entities.
    pub bounds: Option<(Vec2, Vec2)>,
    columns: Vec<(String, ColumnStats)>,
}

impl TableStats {
    /// Collect exact statistics from the world.
    pub fn build(world: &World) -> Self {
        let mut rows = 0usize;
        let mut positioned = 0usize;
        let mut lo = Vec2::new(f32::INFINITY, f32::INFINITY);
        let mut hi = Vec2::new(f32::NEG_INFINITY, f32::NEG_INFINITY);
        let names: Vec<(String, ValueType)> = world
            .schema()
            .filter(|(n, _)| *n != crate::world::POS)
            .map(|(n, t)| (n.to_string(), t))
            .collect();
        let mut present = vec![0usize; names.len()];
        let mut distinct: Vec<HashSet<u64>> = names.iter().map(|_| HashSet::new()).collect();
        let mut min = vec![f64::INFINITY; names.len()];
        let mut max = vec![f64::NEG_INFINITY; names.len()];
        for id in world.entities() {
            rows += 1;
            if let Some(p) = world.pos(id) {
                positioned += 1;
                lo = Vec2::new(lo.x.min(p.x), lo.y.min(p.y));
                hi = Vec2::new(hi.x.max(p.x), hi.y.max(p.y));
            }
            for (c, (name, _)) in names.iter().enumerate() {
                let Some(v) = world.get(id, name) else { continue };
                present[c] += 1;
                distinct[c].insert(value_fingerprint(&v));
                if let Some(n) = v.as_number() {
                    min[c] = min[c].min(n);
                    max[c] = max[c].max(n);
                }
            }
        }
        let columns = names
            .into_iter()
            .enumerate()
            .map(|(c, (name, ty))| {
                let numeric = min[c] <= max[c];
                let index = world.index_on(&name).map(|i| i.kind());
                (
                    name,
                    ColumnStats {
                        ty,
                        present: present[c],
                        ndv: distinct[c].len(),
                        min: numeric.then_some(min[c]),
                        max: numeric.then_some(max[c]),
                        index,
                    },
                )
            })
            .collect();
        TableStats {
            rows,
            positioned,
            bounds: (positioned > 0).then_some((lo, hi)),
            columns,
        }
    }

    /// Collect statistics in O(schema) from metadata the world maintains
    /// incrementally — no row scan.
    ///
    /// Per column: presence counts come from the column itself; NDV and
    /// numeric bounds are exact for indexed columns (the index tracks
    /// them); unindexed columns fall back to a default NDV
    /// ([`DEFAULT_NDV`] — equality keeps ~10% of present rows) and
    /// unknown bounds. The position bounding box is the world's expand-only
    /// approximation. This is the statistics source [`Query::run`] uses
    /// to replan per execution; [`TableStats::build`] remains the exact
    /// (and expensive) option for offline analysis.
    pub fn from_catalog(world: &World) -> Self {
        Self::catalog_stats(world, None)
    }

    /// [`TableStats::from_catalog`] restricted to the components `query`
    /// references — the per-execution replanning path. The plan can only
    /// use statistics for predicate columns, so skipping the rest keeps
    /// hot-path replanning O(predicates) instead of O(schema).
    pub fn for_query(world: &World, query: &Query) -> Self {
        Self::catalog_stats(world, Some(query))
    }

    fn catalog_stats(world: &World, query: Option<&Query>) -> Self {
        let mut columns: Vec<(String, ColumnStats)> = Vec::new();
        let mut push = |name: &str| {
            if name == crate::world::POS || columns.iter().any(|(n, _)| n == name) {
                return;
            }
            let Some(col) = world.column(name) else { return };
            let present = col.present_count();
            let (ndv, min, max, index) = match world.index_on(name) {
                Some(idx) => {
                    let (min, max) = match idx.numeric_bounds() {
                        Some((lo, hi)) => (Some(lo), Some(hi)),
                        None => (None, None),
                    };
                    (idx.ndv(), min, max, Some(idx.kind()))
                }
                // No index ⇒ NDV is unknown; assume a System-R-ish 10
                // distinct values (equality keeps ~10% of present rows)
                // rather than `present`, which would be the *most*
                // optimistic possible equality estimate and underprice
                // residual work.
                None => (present.min(DEFAULT_NDV), None, None, None),
            };
            columns.push((
                name.to_string(),
                ColumnStats {
                    ty: col.ty(),
                    present,
                    ndv,
                    min,
                    max,
                    index,
                },
            ));
        };
        match query {
            // O(predicates): only the columns the plan can use.
            Some(q) => {
                for pred in q.predicates() {
                    push(&pred.component);
                }
            }
            None => {
                for (name, _) in world.schema() {
                    push(name);
                }
            }
        }
        TableStats {
            rows: world.len(),
            positioned: world.positioned_count(),
            bounds: world.approx_bounds(),
            columns,
        }
    }

    /// Statistics for one component, if collected.
    pub fn column(&self, name: &str) -> Option<&ColumnStats> {
        self.columns
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s)
    }

    /// Estimated fraction of live entities a predicate keeps.
    ///
    /// Classic System-R style: equality = 1/NDV, ranges interpolate the
    /// [min, max] span, everything scaled by the component's presence
    /// fraction (a missing component fails the predicate).
    pub fn selectivity(&self, pred: &Pred) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        let Some(col) = self.column(&pred.component) else {
            return 0.0; // unknown component: nothing can match
        };
        let presence = col.present as f64 / self.rows as f64;
        if col.present == 0 {
            return 0.0;
        }
        let among_present = match pred.op {
            CmpOp::Eq => 1.0 / col.ndv.max(1) as f64,
            CmpOp::Ne => 1.0 - 1.0 / col.ndv.max(1) as f64,
            // degenerate span or non-numeric literal: even odds
            _ => interpolated(col, pred).unwrap_or(0.5),
        };
        presence * among_present
    }

    /// Estimated fraction of live entities inside a two-sided range —
    /// `lo` a lower bound (`>`/`>=`) and `hi` an upper one on the same
    /// column. Each bound keeps its interpolated share `a`, `b` of the
    /// present rows; the two half-lines cover the span once plus the
    /// window, so the window keeps `max(0, a + b − 1)` of them (0 for an
    /// inverted range) — `max(0, s_lo + s_hi − 1)` of the rows when every
    /// row carries the column. Where a bound cannot be interpolated
    /// (degenerate span, non-numeric literal) the pair is priced as its
    /// more selective bound.
    pub(crate) fn range_selectivity(&self, lo: &Pred, hi: &Pred) -> f64 {
        let Some(col) = self.column(&lo.component).filter(|c| c.present > 0) else {
            return 0.0;
        };
        match (interpolated(col, lo), interpolated(col, hi)) {
            (Some(a), Some(b)) => col.present as f64 / self.rows as f64 * (a + b - 1.0).max(0.0),
            _ => self.selectivity(lo).min(self.selectivity(hi)),
        }
    }

    /// Estimated entities inside a query disk, from positioned density
    /// over the bounding box (uniformity assumption).
    pub fn est_in_radius(&self, radius: f32) -> f64 {
        let Some((lo, hi)) = self.bounds else { return 0.0 };
        let area = ((hi.x - lo.x) as f64).max(1e-9) * ((hi.y - lo.y) as f64).max(1e-9);
        let disk = std::f64::consts::PI * radius as f64 * radius as f64;
        (self.positioned as f64 * (disk / area).min(1.0)).min(self.positioned as f64)
    }
}

/// A range predicate's share of the present rows, interpolated over the
/// column's `[min, max]` span; `None` for a degenerate span or a
/// non-numeric literal.
fn interpolated(col: &ColumnStats, pred: &Pred) -> Option<f64> {
    match (col.min, col.max, pred.value.as_number()) {
        (Some(lo), Some(hi), Some(v)) if hi > lo => {
            let below = ((v - lo) / (hi - lo)).clamp(0.0, 1.0);
            Some(match pred.op {
                CmpOp::Lt | CmpOp::Le => below,
                _ => 1.0 - below,
            })
        }
        _ => None,
    }
}

/// True for `>` / `>=`, false for `<` / `<=`, `None` for the rest.
fn lower_bound(op: CmpOp) -> Option<bool> {
    match op {
        CmpOp::Gt | CmpOp::Ge => Some(true),
        CmpOp::Lt | CmpOp::Le => Some(false),
        CmpOp::Eq | CmpOp::Ne => None,
    }
}

fn value_fingerprint(v: &Value) -> u64 {
    match v {
        Value::Float(x) => 0x1000_0000_0000_0000 ^ (*x as f64).to_bits(),
        Value::Int(x) => 0x2000_0000_0000_0000 ^ *x as u64,
        Value::Bool(b) => 0x3000_0000_0000_0000 ^ *b as u64,
        Value::Str(s) => s.bytes().fold(1469598103934665603u64, |h, b| {
            (h ^ b as u64).wrapping_mul(1099511628211)
        }),
        Value::Vec2(x, y) => ((x.to_bits() as u64) << 32) | y.to_bits() as u64,
    }
}

/// How a plan reaches its candidate rows.
#[derive(Debug, Clone, PartialEq)]
pub enum Access {
    /// Scan every live entity.
    FullScan,
    /// Probe the spatial index.
    SpatialIndex { center: Vec2, radius: f32 },
    /// Probe a secondary attribute index with one pushed-down predicate
    /// (plus [`Plan::second_bound`], the other side of a two-sided
    /// range); the remaining predicates (and any `within`) run as
    /// residuals.
    AttributeIndex {
        component: String,
        op: CmpOp,
        value: Value,
    },
}

/// Cost-model constants (relative units; an index probe costs a few row
/// visits, and every candidate drawn from the index pays a small
/// indirection over a dense scan).
const INDEX_PROBE_COST: f64 = 8.0;
const INDEX_ROW_FACTOR: f64 = 1.4;
/// Assumed distinct-value count for unindexed columns in catalog stats
/// (equality selectivity defaults to ~1/10, the classic System-R guess).
const DEFAULT_NDV: usize = 10;

/// A chosen execution plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Access path.
    pub access: Access,
    /// The other bound of a two-sided range on the index `access`
    /// probes (`gold >= a AND gold < b`): absorbed into the same probe,
    /// so only rows inside both bounds become candidates. `access` keeps
    /// the bound the cost model chose.
    pub second_bound: Option<(CmpOp, Value)>,
    /// Predicates in evaluation order (most selective first).
    pub preds: Vec<Pred>,
    /// Per-predicate selectivity estimates, aligned with `preds`.
    pub selectivities: Vec<f64>,
    /// Entity the query excludes.
    pub exclude: Option<EntityId>,
    /// When the access path is a full scan but the query had a `within`,
    /// the spatial test runs as a residual predicate.
    pub residual_within: Option<(Vec2, f32)>,
    /// Estimated candidate rows entering predicate evaluation.
    pub est_candidates: f64,
    /// Estimated matching rows.
    pub est_rows: f64,
    /// Estimated total cost (relative units).
    pub est_cost: f64,
}

impl Plan {
    /// The plan a query runs when no predicate can use an index: the
    /// spatial probe when it has a `within`, else a full scan, the
    /// predicates in authored order. Not costed — the estimates are NaN.
    pub(crate) fn seed(query: &Query) -> Plan {
        let access = match query.spatial() {
            Some((center, radius)) => Access::SpatialIndex { center, radius },
            None => Access::FullScan,
        };
        Plan {
            access,
            second_bound: None,
            preds: query.predicates().to_vec(),
            selectivities: vec![f64::NAN; query.predicates().len()],
            exclude: query.excluded(),
            residual_within: None,
            est_candidates: f64::NAN,
            est_rows: f64::NAN,
            est_cost: f64::NAN,
        }
    }

    /// Render the plan like `EXPLAIN`.
    pub fn explain(&self) -> String {
        format!("{self}")
    }

    /// Execute once and render the plan like `EXPLAIN ANALYZE`: the
    /// [`Plan::explain`] line plus the candidates the access path
    /// actually produced and the rows that passed.
    pub fn explain_analyze(&self, world: &World) -> String {
        let (candidates, rows) = self.execute(world, &mut |_| {});
        format!("{self} | actual candidates={candidates} rows={rows}")
    }

    /// Execute, returning matches in deterministic (id) order — always
    /// the same result set as [`Query::run`] on the same query.
    pub fn run(&self, world: &World) -> Vec<EntityId> {
        let slots = world.slots();
        let mut out = Vec::new();
        self.execute(world, &mut |sel| out.extend(sel.iter().map(|&s| slots.id_at(s))));
        debug_assert!(out.is_sorted_by(|a, b| a < b), "access paths yield ascending ids");
        out
    }

    /// Count matches without materializing ids — same rows as
    /// [`Plan::run`]`.len()`, zero allocation on the scan and probe-free
    /// paths.
    pub fn count(&self, world: &World) -> usize {
        self.execute(world, &mut |_| {}).1
    }

    /// Hand every match to `sink` a block at a time — each block's
    /// passing slots, ascending, blocks in slot order — the execution
    /// [`Plan::run`], [`Plan::count`] and `aggregate` share, and report
    /// it to `planner.candidates` / `planner.rows`. Returns
    /// `(candidates, rows)`.
    pub(crate) fn execute(
        &self,
        world: &World,
        sink: &mut dyn FnMut(&[u32]),
    ) -> (usize, usize) {
        let mut rows = 0usize;
        let candidates = self.visit_blocks(world, &mut |sel| {
            rows += sel.len();
            sink(sel)
        });
        if let Some(m) = world.core_metrics() {
            m.plan_candidates.add(candidates as u64);
            m.plan_rows.add(rows as u64);
        }
        (candidates, rows)
    }

    /// The one candidate iteration every execution runs: access-path
    /// dispatch, then the residual test ([`RowFilter`]: excluded id,
    /// `within` distance, predicates resolved once against their
    /// columns) a block at a time, with probe-failure degradation. The
    /// scan and an attribute probe feed the filter slots block by block;
    /// a spatial probe feeds it the sorted id list it produced. Either way
    /// candidates arrive once each and in ascending id order, so matches
    /// reach `sink` in id order with no re-sort. Returns the candidate
    /// count.
    fn visit_blocks(&self, world: &World, sink: &mut dyn FnMut(&[u32])) -> usize {
        let filter = RowFilter::new(world, &self.preds, self.residual_within, self.exclude);
        let mut cands = Vec::new();
        match &self.access {
            Access::FullScan => return filter.scan(sink),
            Access::SpatialIndex { center, radius } => world.within(*center, *radius, &mut cands),
            Access::AttributeIndex {
                component,
                op,
                value,
            } => {
                let second = self.second_bound.as_ref().map(|(op, v)| (*op, v));
                let probed = world.indexed(component).and_then(|(idx, col)| {
                    idx.probe(col, *op, value, second, &mut |sel| filter.select_slots(sel, sink))
                });
                // Index vanished between planning and execution (dropped,
                // or a stale plan): degrade to the scan the probe replaced
                // — same rows, just slower.
                return probed.unwrap_or_else(|| {
                    self.degraded_scan(component, *op, value).visit_blocks(world, sink)
                });
            }
        }
        filter.select(&cands, sink);
        cands.len()
    }

    /// The scan a stale attribute probe degrades to: same rows, slower.
    fn degraded_scan(&self, component: &str, op: CmpOp, value: &Value) -> Plan {
        let mut preds = self.preds.clone();
        preds.push(Pred::new(component.to_string(), op, value.clone()));
        if let Some((op2, value2)) = &self.second_bound {
            preds.push(Pred::new(component.to_string(), *op2, value2.clone()));
        }
        Plan {
            access: Access::FullScan,
            second_bound: None,
            selectivities: vec![0.5; preds.len()],
            preds,
            exclude: self.exclude,
            residual_within: self.residual_within,
            est_candidates: self.est_candidates,
            est_rows: self.est_rows,
            est_cost: self.est_cost,
        }
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.access {
            Access::FullScan => write!(f, "FullScan")?,
            Access::SpatialIndex { center, radius } => {
                write!(f, "SpatialIndex(center=({}, {}), r={radius})", center.x, center.y)?
            }
            Access::AttributeIndex {
                component,
                op,
                value,
            } => {
                write!(f, "AttrIndex({component} {op:?} {value:?}")?;
                if let Some((op2, value2)) = &self.second_bound {
                    write!(f, " AND {op2:?} {value2:?}")?;
                }
                write!(f, ")")?
            }
        }
        if let Some((_, r)) = self.residual_within {
            write!(f, " -> Within(r={r})")?;
        }
        for (p, s) in self.preds.iter().zip(&self.selectivities) {
            write!(f, " -> Filter({} {:?} {:?}, sel={s:.3})", p.component, p.op, p.value)?;
        }
        write!(
            f,
            " | est_candidates={:.1} est_rows={:.1} est_cost={:.1}",
            self.est_candidates, self.est_rows, self.est_cost
        )
    }
}

/// Choose a plan for `query` under `stats`.
///
/// Predicates are ordered by ascending selectivity (cheapest way to
/// short-circuit a conjunction of independent predicates), then three
/// access-path families compete on estimated cost:
///
/// 1. a full scan (always available; pays the distance test per row when
///    a `within` exists);
/// 2. the spatial index (when a `within` exists; loses once the disk
///    covers most of the map);
/// 3. one attribute-index probe per indexed, operator-compatible
///    predicate — the probed predicate leaves the residual set, and any
///    `within` demotes to a residual distance test.
///
/// Whatever wins returns exactly the rows [`Query::run`]'s reference
/// semantics define; costs only pick *how* to get them.
pub fn plan(query: &Query, stats: &TableStats) -> Plan {
    let mut preds: Vec<Pred> = query.predicates().to_vec();
    let mut sels: Vec<f64> = preds.iter().map(|p| stats.selectivity(p)).collect();
    // stable sort by selectivity, keeping authoring order on ties
    let mut order: Vec<usize> = (0..preds.len()).collect();
    order.sort_by(|&a, &b| sels[a].partial_cmp(&sels[b]).unwrap_or(std::cmp::Ordering::Equal));
    preds = order.iter().map(|&i| preds[i].clone()).collect();
    sels = order.iter().map(|&i| sels[i]).collect();

    // expected predicate evaluations per candidate under short-circuit:
    // 1 + s1 + s1·s2 + …  (the last term drops out of the cost of *evals*)
    let mut pred_cost_per_row = 0.0;
    let mut pass = 1.0;
    for s in &sels {
        pred_cost_per_row += pass;
        pass *= s;
    }
    let pred_pass: f64 = sels.iter().product();
    let rows = stats.rows as f64;

    // Fraction of rows a `within` keeps (1.0 when there is none).
    let within_frac = match query.spatial() {
        Some((_, radius)) if stats.positioned > 0 => {
            (stats.est_in_radius(radius) / stats.positioned as f64).min(1.0)
        }
        Some(_) => 0.0,
        None => 1.0,
    };

    // Price the three path families as scalars; only the winner gets a
    // Plan built (this runs on every indexed Query::run, so candidate
    // plans must not allocate).
    enum Choice {
        Scan,
        Spatial,
        /// Probe via `preds[i]` — and `preds[j]` as its second bound —
        /// with `(est_candidates, residual_pass)`.
        Attr(usize, Option<usize>, f64, f64),
    }

    // 1. Full scan (always available; pays a distance test per row when
    // a `within` exists).
    let mut best_cost = match query.spatial() {
        Some(_) => rows * (1.0 + pred_cost_per_row),
        None => rows * pred_cost_per_row.max(1.0),
    };
    let mut choice = Choice::Scan;

    // 2. Spatial probe (ties go to the index, as the seed planner chose).
    if let Some((_, radius)) = query.spatial() {
        let est_cands = stats.est_in_radius(radius);
        let cost = INDEX_PROBE_COST + est_cands * (INDEX_ROW_FACTOR + pred_cost_per_row);
        if cost <= best_cost {
            best_cost = cost;
            choice = Choice::Spatial;
        }
    }

    // 3. One attribute probe per indexed predicate. `preds` is already
    // selectivity-sorted, so the most selective eligible probe is
    // considered first and wins cost ties. A range probe takes the most
    // selective opposite bound on the same column as its second bound,
    // priced by `range_selectivity`; both leave the residual set.
    let within_test = if query.spatial().is_some() { 1.0 } else { 0.0 };
    for (i, pred) in preds.iter().enumerate() {
        let Some(col) = stats.column(&pred.component) else {
            continue;
        };
        let Some(kind) = col.index else { continue };
        if !crate::index::supports(kind, col.ty, pred.op) {
            continue;
        }
        let lower = lower_bound(pred.op);
        let partner = lower.and_then(|lower| {
            preds.iter().position(|q| {
                q.component == pred.component && lower_bound(q.op) == Some(!lower)
            })
        });
        let est_cands = match (lower, partner) {
            (Some(true), Some(j)) => stats.range_selectivity(pred, &preds[j]) * rows,
            (_, Some(j)) => stats.range_selectivity(&preds[j], pred) * rows,
            (_, None) => sels[i] * rows,
        };
        let mut residual_cost = 0.0;
        let mut residual_pass = 1.0;
        for (j, s) in sels.iter().enumerate() {
            if j != i && Some(j) != partner {
                residual_cost += residual_pass;
                residual_pass *= s;
            }
        }
        let cost =
            INDEX_PROBE_COST + est_cands * (INDEX_ROW_FACTOR + within_test + residual_cost);
        if cost < best_cost {
            best_cost = cost;
            choice = Choice::Attr(i, partner, est_cands, residual_pass);
        }
    }

    match choice {
        Choice::Scan => Plan {
            access: Access::FullScan,
            second_bound: None,
            est_candidates: rows,
            est_rows: match query.spatial() {
                Some((_, radius)) => stats.est_in_radius(radius) * pred_pass,
                None => rows * pred_pass,
            },
            est_cost: best_cost,
            residual_within: query.spatial(),
            exclude: query.excluded(),
            preds,
            selectivities: sels,
        },
        Choice::Spatial => {
            let (center, radius) = query.spatial().expect("spatial choice implies within");
            Plan {
                access: Access::SpatialIndex { center, radius },
                second_bound: None,
                est_candidates: stats.est_in_radius(radius),
                est_rows: stats.est_in_radius(radius) * pred_pass,
                est_cost: best_cost,
                residual_within: None,
                exclude: query.excluded(),
                preds,
                selectivities: sels,
            }
        }
        Choice::Attr(i, partner, est_cands, residual_pass) => {
            let second_bound = partner.map(|j| {
                sels.remove(j);
                let p = preds.remove(j);
                (p.op, p.value)
            });
            // the partner's removal shifted a later probe left by one
            let i = match partner {
                Some(j) if j < i => i - 1,
                _ => i,
            };
            let probed = preds.remove(i);
            sels.remove(i);
            Plan {
                access: Access::AttributeIndex {
                    component: probed.component,
                    op: probed.op,
                    value: probed.value,
                },
                second_bound,
                est_candidates: est_cands,
                est_rows: est_cands * residual_pass * within_frac,
                est_cost: best_cost,
                residual_within: query.spatial(),
                exclude: query.excluded(),
                preds,
                selectivities: sels,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gamedb_content::ValueType;

    /// 100 entities on a 100×100 grid-ish line; 10 "rare" reds, the rest
    /// blue; hp spans 0..99.
    fn stats_world() -> (World, Vec<EntityId>) {
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        w.define_component("team", ValueType::Str).unwrap();
        w.define_component("level", ValueType::Int).unwrap();
        let mut ids = Vec::new();
        for i in 0..100usize {
            let e = w.spawn_at(Vec2::new((i % 10) as f32 * 11.0, (i / 10) as f32 * 11.0));
            w.set_f32(e, "hp", i as f32).unwrap();
            w.set(
                e,
                "team",
                Value::Str(if i % 10 == 0 { "red" } else { "blue" }.into()),
            )
            .unwrap();
            if i % 2 == 0 {
                w.set(e, "level", Value::Int((i % 5) as i64)).unwrap();
            }
            ids.push(e);
        }
        (w, ids)
    }

    #[test]
    fn stats_counts_and_bounds() {
        let (w, _) = stats_world();
        let s = TableStats::build(&w);
        assert_eq!(s.rows, 100);
        assert_eq!(s.positioned, 100);
        let (lo, hi) = s.bounds.unwrap();
        assert_eq!(lo, Vec2::ZERO);
        assert_eq!(hi, Vec2::new(99.0, 99.0));
        let hp = s.column("hp").unwrap();
        assert_eq!(hp.present, 100);
        assert_eq!(hp.ndv, 100);
        assert_eq!(hp.min, Some(0.0));
        assert_eq!(hp.max, Some(99.0));
        let team = s.column("team").unwrap();
        assert_eq!(team.ndv, 2);
        let level = s.column("level").unwrap();
        assert_eq!(level.present, 50);
        assert_eq!(level.ndv, 5);
    }

    #[test]
    fn equality_selectivity_uses_ndv() {
        let (w, _) = stats_world();
        let s = TableStats::build(&w);
        let sel = s.selectivity(&Pred::new("team", CmpOp::Eq, Value::Str("red".into())));
        assert!((sel - 0.5).abs() < 1e-9, "1/ndv = 1/2, got {sel}");
        let sel = s.selectivity(&Pred::new("hp", CmpOp::Eq, Value::Float(5.0)));
        assert!((sel - 0.01).abs() < 1e-9, "1/100, got {sel}");
    }

    #[test]
    fn range_selectivity_interpolates() {
        let (w, _) = stats_world();
        let s = TableStats::build(&w);
        let low = s.selectivity(&Pred::new("hp", CmpOp::Lt, Value::Float(9.9)));
        assert!((0.05..0.2).contains(&low), "~10%, got {low}");
        let high = s.selectivity(&Pred::new("hp", CmpOp::Ge, Value::Float(49.5)));
        assert!((0.4..0.6).contains(&high), "~50%, got {high}");
        // out-of-range bounds clamp
        assert_eq!(s.selectivity(&Pred::new("hp", CmpOp::Lt, Value::Float(-5.0))), 0.0);
        assert_eq!(s.selectivity(&Pred::new("hp", CmpOp::Ge, Value::Float(-5.0))), 1.0);
    }

    #[test]
    fn presence_scales_selectivity() {
        let (w, _) = stats_world();
        let s = TableStats::build(&w);
        // level present on half the rows, 5 distinct values
        let sel = s.selectivity(&Pred::new("level", CmpOp::Eq, Value::Int(3)));
        assert!((sel - 0.5 * 0.2).abs() < 1e-9, "got {sel}");
    }

    #[test]
    fn unknown_component_matches_nothing() {
        let (w, _) = stats_world();
        let s = TableStats::build(&w);
        assert_eq!(s.selectivity(&Pred::new("mana", CmpOp::Ge, Value::Float(0.0))), 0.0);
    }

    #[test]
    fn predicates_ordered_most_selective_first() {
        let (w, _) = stats_world();
        let s = TableStats::build(&w);
        let q = Query::select()
            .filter("team", CmpOp::Ne, Value::Str("red".into())) // sel 0.5
            .filter("hp", CmpOp::Eq, Value::Float(30.0)); // sel 0.01
        let p = plan(&q, &s);
        assert_eq!(p.preds[0].component, "hp", "{}", p.explain());
        assert!(p.selectivities[0] <= p.selectivities[1]);
    }

    #[test]
    fn small_radius_picks_index_huge_radius_picks_scan() {
        let (w, _) = stats_world();
        let s = TableStats::build(&w);
        let small = plan(&Query::select().within(Vec2::new(50.0, 50.0), 5.0), &s);
        assert!(matches!(small.access, Access::SpatialIndex { .. }), "{}", small.explain());
        let huge = plan(&Query::select().within(Vec2::new(50.0, 50.0), 500.0), &s);
        assert!(matches!(huge.access, Access::FullScan), "{}", huge.explain());
        assert!(huge.residual_within.is_some());
    }

    #[test]
    fn plans_return_exactly_what_query_returns() {
        let (w, _) = stats_world();
        let s = TableStats::build(&w);
        let queries = vec![
            Query::select(),
            Query::select().filter("team", CmpOp::Eq, Value::Str("red".into())),
            Query::select()
                .within(Vec2::new(33.0, 33.0), 25.0)
                .filter("hp", CmpOp::Ge, Value::Float(20.0)),
            Query::select().within(Vec2::new(50.0, 50.0), 1000.0),
            Query::select()
                .within(Vec2::new(0.0, 0.0), 40.0)
                .filter("level", CmpOp::Le, Value::Int(2))
                .filter("team", CmpOp::Eq, Value::Str("blue".into())),
        ];
        for q in queries {
            let p = plan(&q, &s);
            assert_eq!(p.run(&w), q.run(&w), "plan: {}", p.explain());
        }
    }

    #[test]
    fn excluded_entity_respected() {
        let (w, ids) = stats_world();
        let s = TableStats::build(&w);
        let q = Query::select().excluding(ids[0]);
        let p = plan(&q, &s);
        let out = p.run(&w);
        assert_eq!(out.len(), 99);
        assert!(!out.contains(&ids[0]));
    }

    #[test]
    fn est_rows_tracks_reality_roughly() {
        let (w, _) = stats_world();
        let s = TableStats::build(&w);
        let q = Query::select().filter("team", CmpOp::Eq, Value::Str("blue".into()));
        let p = plan(&q, &s);
        let actual = p.run(&w).len() as f64; // 90
        // NDV-based estimate says 50; order-of-magnitude is what planners get
        assert!(p.est_rows >= 25.0 && p.est_rows <= 100.0, "est {}", p.est_rows);
        assert!(actual == 90.0);
    }

    #[test]
    fn empty_world_plans_cleanly() {
        let w = World::new();
        let s = TableStats::build(&w);
        assert_eq!(s.rows, 0);
        assert!(s.bounds.is_none());
        let p = plan(&Query::select().within(Vec2::ZERO, 10.0), &s);
        assert!(p.run(&w).is_empty());
    }

    #[test]
    fn explain_mentions_the_path() {
        let (w, _) = stats_world();
        let s = TableStats::build(&w);
        let p = plan(
            &Query::select()
                .within(Vec2::new(50.0, 50.0), 5.0)
                .filter("hp", CmpOp::Ge, Value::Float(10.0)),
            &s,
        );
        let text = p.explain();
        assert!(text.contains("SpatialIndex"), "{text}");
        assert!(text.contains("Filter(hp"), "{text}");
        assert!(text.contains("est_cost"), "{text}");
    }

    #[test]
    fn attribute_index_chosen_for_selective_pred() {
        let (mut w, _) = stats_world();
        w.create_index("hp", IndexKind::Sorted).unwrap();
        let s = TableStats::build(&w);
        // hp == 30 keeps 1/100 rows: probing beats scanning
        let q = Query::select()
            .filter("team", CmpOp::Ne, Value::Str("red".into()))
            .filter("hp", CmpOp::Eq, Value::Float(30.0));
        let p = plan(&q, &s);
        assert!(
            matches!(&p.access, Access::AttributeIndex { component, op: CmpOp::Eq, .. } if component == "hp"),
            "{}",
            p.explain()
        );
        // the pushed predicate left the residual set
        assert_eq!(p.preds.len(), 1);
        assert_eq!(p.preds[0].component, "team");
        assert_eq!(p.run(&w), q.run_scan(&w));
        assert!(p.explain().contains("AttrIndex"), "{}", p.explain());
    }

    #[test]
    fn unselective_indexed_pred_still_scans() {
        let (mut w, _) = stats_world();
        w.create_index("team", IndexKind::Hash).unwrap();
        let s = TableStats::build(&w);
        // team has 2 distinct values: probing gains nothing over a scan
        // at n=100 once the per-candidate indirection is priced in.
        let q = Query::select().filter("team", CmpOp::Eq, Value::Str("blue".into()));
        let p = plan(&q, &s);
        assert_eq!(p.run(&w), q.run_scan(&w), "{}", p.explain());
    }

    #[test]
    fn hash_index_never_serves_ranges() {
        let (mut w, _) = stats_world();
        w.create_index("hp", IndexKind::Hash).unwrap();
        let s = TableStats::build(&w);
        let q = Query::select().filter("hp", CmpOp::Lt, Value::Float(5.0));
        let p = plan(&q, &s);
        assert!(
            matches!(p.access, Access::FullScan),
            "hash cannot serve <: {}",
            p.explain()
        );
        assert_eq!(p.run(&w), q.run_scan(&w));
    }

    #[test]
    fn attribute_probe_with_within_residual() {
        let (mut w, _) = stats_world();
        w.create_index("hp", IndexKind::Sorted).unwrap();
        let s = TableStats::build(&w);
        // hp < 3 keeps ~3 rows; the disk keeps ~half the map. The probe
        // should win and the within become a residual distance test.
        let q = Query::select()
            .within(Vec2::new(50.0, 50.0), 70.0)
            .filter("hp", CmpOp::Lt, Value::Float(3.0));
        let p = plan(&q, &s);
        assert!(
            matches!(p.access, Access::AttributeIndex { .. }),
            "{}",
            p.explain()
        );
        assert_eq!(p.residual_within, Some((Vec2::new(50.0, 50.0), 70.0)));
        assert_eq!(p.run(&w), q.run_scan(&w));
    }

    #[test]
    fn catalog_stats_match_world_metadata() {
        let (mut w, _) = stats_world();
        w.create_index("hp", IndexKind::Sorted).unwrap();
        w.create_index("team", IndexKind::Hash).unwrap();
        let s = TableStats::from_catalog(&w);
        assert_eq!(s.rows, 100);
        assert_eq!(s.positioned, 100);
        let hp = s.column("hp").unwrap();
        assert_eq!(hp.present, 100);
        assert_eq!(hp.ndv, 100, "indexed column reports exact ndv");
        assert_eq!(hp.min, Some(0.0));
        assert_eq!(hp.max, Some(99.0));
        assert_eq!(hp.index, Some(IndexKind::Sorted));
        let team = s.column("team").unwrap();
        assert_eq!(team.ndv, 2);
        assert_eq!(team.index, Some(IndexKind::Hash));
        // unindexed column: System-R default ndv (equality ~ 10%)
        let level = s.column("level").unwrap();
        assert_eq!(level.present, 50);
        assert_eq!(level.ndv, 10);
        assert_eq!(level.index, None);
        assert_eq!(level.ty, gamedb_content::ValueType::Int);
        // expand-only bounds cover the exact ones
        let (lo, hi) = s.bounds.unwrap();
        assert!(lo.x <= 0.0 && lo.y <= 0.0 && hi.x >= 99.0 && hi.y >= 99.0);
    }

    #[test]
    fn planned_equals_scan_with_indexes_everywhere() {
        let (mut w, ids) = stats_world();
        w.create_index("hp", IndexKind::Sorted).unwrap();
        w.create_index("team", IndexKind::Hash).unwrap();
        w.create_index("level", IndexKind::Sorted).unwrap();
        let s = TableStats::build(&w);
        let queries = vec![
            Query::select().filter("hp", CmpOp::Eq, Value::Float(30.0)),
            Query::select().filter("hp", CmpOp::Ge, Value::Float(95.0)),
            Query::select()
                .filter("level", CmpOp::Le, Value::Int(1))
                .filter("team", CmpOp::Eq, Value::Str("red".into())),
            Query::select()
                .within(Vec2::new(33.0, 33.0), 25.0)
                .filter("hp", CmpOp::Lt, Value::Float(10.0)),
            Query::select()
                .filter("hp", CmpOp::Gt, Value::Float(90.0))
                .excluding(ids[95]),
            // literal type that can never match: empty either way
            Query::select().filter("team", CmpOp::Eq, Value::Int(3)),
        ];
        for q in queries {
            let p = plan(&q, &s);
            assert_eq!(p.run(&w), q.run_scan(&w), "plan: {}", p.explain());
            assert_eq!(q.run(&w), q.run_scan(&w));
        }
    }

    #[test]
    fn vec2_sorted_index_never_planned_for_ranges() {
        let mut w = World::new();
        w.define_component("vel", gamedb_content::ValueType::Vec2)
            .unwrap();
        for i in 0..50 {
            let e = w.spawn_at(Vec2::new(i as f32, 0.0));
            w.set(e, "vel", Value::Vec2(i as f32, 0.0)).unwrap();
        }
        w.create_index("vel", IndexKind::Sorted).unwrap();
        let s = TableStats::from_catalog(&w);
        // a range over vec2 is unservable; the planner must not pick a
        // probe the executor degrades out of on every run
        let q = Query::select().filter("vel", CmpOp::Lt, Value::Vec2(10.0, 0.0));
        let p = plan(&q, &s);
        assert!(matches!(p.access, Access::FullScan), "{}", p.explain());
        assert_eq!(p.run(&w), q.run_scan(&w));
        // equality on vec2 stays probe-eligible
        let qe = Query::select().filter("vel", CmpOp::Eq, Value::Vec2(10.0, 0.0));
        assert_eq!(qe.run(&w), qe.run_scan(&w));
    }

    #[test]
    fn plan_count_matches_run_len() {
        let (mut w, ids) = stats_world();
        w.create_index("hp", IndexKind::Sorted).unwrap();
        let s = TableStats::build(&w);
        let queries = vec![
            Query::select().filter("hp", CmpOp::Lt, Value::Float(10.0)),
            Query::select()
                .within(Vec2::new(33.0, 33.0), 25.0)
                .filter("hp", CmpOp::Ge, Value::Float(20.0)),
            Query::select().excluding(ids[0]),
            Query::select().filter("team", CmpOp::Eq, Value::Str("red".into())),
        ];
        for q in queries {
            let p = plan(&q, &s);
            assert_eq!(p.count(&w), p.run(&w).len(), "{}", p.explain());
            assert_eq!(q.count(&w), q.run_scan(&w).len());
        }
    }

    /// 60 entities: `gold = i % 20` and an `hp` cycling through
    /// fractions, `0.0`, `-0.0` and NaN, each under a sorted index.
    fn range_world() -> World {
        let mut w = World::new();
        w.define_component("gold", ValueType::Int).unwrap();
        w.define_component("hp", ValueType::Float).unwrap();
        let hps = [-0.0, 0.0, 0.5, 2.25, f32::NAN, 3.0, 6.5, 7.0, -1.5];
        for i in 0..60 {
            let e = w.spawn_at(Vec2::new(i as f32, 0.0));
            w.set(e, "gold", Value::Int(i % 20)).unwrap();
            w.set_f32(e, "hp", hps[i as usize % hps.len()]).unwrap();
        }
        w.create_index("gold", IndexKind::Sorted).unwrap();
        w.create_index("hp", IndexKind::Sorted).unwrap();
        w
    }

    fn two_bound(c: &str, lo: (CmpOp, Value), hi: (CmpOp, Value)) -> Query {
        Query::select().filter(c, lo.0, lo.1).filter(c, hi.0, hi.1)
    }

    #[test]
    fn inverted_and_empty_ranges_return_nothing() {
        use CmpOp::{Ge, Gt, Le, Lt};
        let w = range_world();
        let (int, float) = (Value::Int, Value::Float);
        let nan = || Value::Float(f32::NAN);
        let text = |s: &str| Value::Str(s.into());
        // (query, answer is empty)
        let cases = [
            (two_bound("gold", (Ge, int(10)), (Lt, int(5))), true),
            (two_bound("gold", (Gt, int(5)), (Lt, int(5))), true),
            (two_bound("gold", (Ge, int(5)), (Le, int(5))), false),
            (two_bound("gold", (Ge, nan()), (Lt, int(10))), true),
            (two_bound("gold", (Ge, int(0)), (Lt, nan())), true),
            (two_bound("gold", (Ge, text("a")), (Lt, int(10))), true),
            (two_bound("gold", (Ge, int(0)), (Lt, text("z"))), true),
            (two_bound("hp", (Ge, int(2)), (Lt, int(7))), false),
            (two_bound("hp", (Ge, float(-0.0)), (Le, float(0.0))), false),
            (two_bound("hp", (Gt, float(-0.0)), (Lt, float(1.0))), false),
            (two_bound("hp", (Ge, float(0.0)), (Lt, float(-0.0))), true),
            (two_bound("hp", (Gt, nan()), (Lt, nan())), true),
        ];
        for (q, empty) in cases {
            let p = plan(&q, &TableStats::from_catalog(&w));
            assert!(p.second_bound.is_some(), "both bounds reach the probe: {}", p.explain());
            let scan = q.run_scan(&w);
            assert_eq!(p.run(&w), scan, "{}", p.explain());
            assert_eq!(q.run(&w), scan);
            assert_eq!(q.count(&w), scan.len());
            assert_eq!(scan.is_empty(), empty, "{}", p.explain());
        }
        // the point range is the equality probe
        let point = two_bound("gold", (Ge, int(5)), (Le, int(5)));
        let eq = Query::select().filter("gold", CmpOp::Eq, int(5));
        assert_eq!(point.run(&w), eq.run(&w));
        // straight at the index: served, nothing — `BTreeMap::range`
        // would panic on the first and third
        let (idx, col) = w.indexed("gold").unwrap();
        for ((op, a), (op2, b)) in [((Ge, 10), (Lt, 5)), ((Gt, 5), (Lt, 5)), ((Ge, 5), (Lt, 5))] {
            let mut out = Vec::new();
            assert!(idx.probe(col, op, &int(a), Some((op2, &int(b))), &mut |s| out.extend_from_slice(s)).is_some());
            assert!(out.is_empty(), "{op:?} {a} AND {op2:?} {b}");
        }
    }

    #[test]
    fn explain_analyze_golden_per_access_path() {
        let (mut w, ids) = stats_world();
        w.create_index("hp", IndexKind::Sorted).unwrap();
        let explain = |q: &Query| plan(q, &TableStats::from_catalog(&w)).explain_analyze(&w);
        let scan = Query::select().filter("level", CmpOp::Le, Value::Int(2));
        let spatial = Query::select()
            .within(Vec2::new(50.0, 50.0), 12.0)
            .filter("team", CmpOp::Eq, Value::Str("blue".into()));
        let eq = Query::select().filter("hp", CmpOp::Eq, Value::Float(30.0));
        let range = Query::select()
            .filter("hp", CmpOp::Lt, Value::Float(20.0))
            .filter("team", CmpOp::Ne, Value::Str("red".into()))
            .filter("hp", CmpOp::Ge, Value::Float(10.0));
        assert_eq!(
            explain(&scan),
            "FullScan -> Filter(level Le Int(2), sel=0.250) \
             | est_candidates=100.0 est_rows=25.0 est_cost=100.0 | actual candidates=100 rows=30"
        );
        assert_eq!(
            explain(&spatial),
            "SpatialIndex(center=(50, 50), r=12) -> Filter(team Eq Str(\"blue\"), sel=0.100) \
             | est_candidates=4.6 est_rows=0.5 est_cost=19.1 | actual candidates=4 rows=4"
        );
        assert_eq!(
            explain(&eq),
            "AttrIndex(hp Eq Float(30.0)) \
             | est_candidates=1.0 est_rows=1.0 est_cost=9.4 | actual candidates=1 rows=1"
        );
        // the second bound rides in the probe: 10 candidates for 9 rows,
        // where one bound alone would hand over 20
        assert_eq!(
            explain(&range),
            "AttrIndex(hp Lt Float(20.0) AND Ge Float(10.0)) -> Filter(team Ne Str(\"red\"), sel=0.900) \
             | est_candidates=10.1 est_rows=9.1 est_cost=32.2 | actual candidates=10 rows=9"
        );

        // each probe, and a 0.5% hash-equality class (one of 200 over 200
        // rows), hands its filter at most a tenth of the scan's candidates
        // and returns the scan's rows
        w.define_component("class", ValueType::Str).unwrap();
        for i in 0..200 {
            let e = if i < ids.len() { ids[i] } else { w.spawn() };
            w.set(e, "class", Value::Str(format!("class-{i:03}"))).unwrap();
        }
        w.create_index("class", IndexKind::Hash).unwrap();
        let class = Query::select().filter("class", CmpOp::Eq, Value::Str("class-007".into()));
        let below = Query::select().filter("hp", CmpOp::Lt, Value::Float(5.0));
        for q in [&eq, &below, &range, &class] {
            let p = plan(q, &TableStats::from_catalog(&w));
            assert!(matches!(p.access, Access::AttributeIndex { .. }), "{}", p.explain());
            assert_eq!(p.second_bound.is_some(), q == &range, "{}", p.explain());
            let (probed, _) = p.execute(&w, &mut |_| {});
            let (scanned, _) = Plan::seed(q).execute(&w, &mut |_| {});
            assert!(10 * probed <= scanned, "{probed} vs {scanned}: {}", p.explain());
            assert_eq!(p.run(&w), q.run_scan(&w));
        }
    }

    /// The planned scan of an unindexed column runs a block at a time:
    /// its sink sees at most one call per 1,024 live slots, never one
    /// per row.
    #[test]
    fn unindexed_scan_feeds_the_sink_whole_blocks() {
        let mut w = World::new();
        w.define_component("dmg", ValueType::Float).unwrap();
        for i in 0..5_000 {
            let e = w.spawn();
            w.set_f32(e, "dmg", 1.0 + (i % 5) as f32).unwrap();
        }
        let q = Query::select().filter("dmg", CmpOp::Gt, Value::Float(4.0));
        let p = plan(&q, &TableStats::from_catalog(&w));
        assert_eq!(p.access, Access::FullScan);
        let (mut blocks, mut rows) = (0, 0);
        p.execute(&w, &mut |sel| {
            blocks += 1;
            rows += sel.len();
        });
        assert!(blocks <= w.len().div_ceil(1024), "{blocks} blocks");
        assert_eq!(rows, 1_000);
        assert_eq!(p.run(&w), q.run_scan(&w));
    }

    #[test]
    fn two_bound_estimate_tracks_actual_on_query_mix_shape() {
        // query_mix's range class: 100k uniform ints in 0..10 000 under a
        // sorted index, `gold >= a AND gold < a + w` with w in 1..=100.
        // Windows lie inside the value domain: at its top edge a window
        // holding only the maximum interpolates to 0 rows, as a one-sided
        // `gold >= max` already does.
        let mut w = World::new();
        w.define_component("gold", ValueType::Int).unwrap();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        for _ in 0..100_000 {
            let e = w.spawn();
            w.set(e, "gold", Value::Int(next(10_000) as i64)).unwrap();
        }
        w.create_index("gold", IndexKind::Sorted).unwrap();
        let registry = gamedb_metrics::MetricsRegistry::new();
        w.attach_metrics(&registry);
        for _ in 0..50 {
            let a = next(9_900) as i64;
            let width = 1 + next(100) as i64;
            let q = two_bound(
                "gold",
                (CmpOp::Ge, Value::Int(a)),
                (CmpOp::Lt, Value::Int(a + width)),
            );
            let p = plan(&q, &TableStats::from_catalog(&w));
            assert!(p.second_bound.is_some(), "{}", p.explain());
            let actual = p.run(&w).len() as f64;
            assert!(
                p.est_rows <= 4.0 * actual && actual <= 4.0 * p.est_rows,
                "est {} vs actual {actual}: {}",
                p.est_rows,
                p.explain()
            );
        }
        let snap = registry.snapshot();
        let (candidates, rows) = (snap.counter("planner.candidates"), snap.counter("planner.rows"));
        assert!(rows > 0 && candidates <= 3 * rows, "{candidates} candidates for {rows} rows");
    }

    #[test]
    fn est_in_radius_density_model() {
        let (w, _) = stats_world();
        let s = TableStats::build(&w);
        // disk area π·25 over bbox ~99² ≈ 0.8% of 100 entities
        let est = s.est_in_radius(5.0);
        assert!(est > 0.2 && est < 3.0, "got {est}");
        // radius covering everything saturates at positioned count
        assert_eq!(s.est_in_radius(10_000.0), 100.0);
    }
}
