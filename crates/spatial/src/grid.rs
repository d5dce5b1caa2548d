//! Uniform grid (spatial hash) index.
//!
//! The workhorse index for open-world games with roughly uniform entity
//! density: O(1) updates and range queries that touch only the cells
//! overlapping the query disk. It degrades when entities cluster into few
//! cells, the regime the paper's BSP trees and octrees are built for.
//!
//! Cells hold `(id, position)` pairs, so a query tests candidates
//! straight from the cell slice; the id → position map serves only
//! [`SpatialIndex::position`], removal and re-linking on a move. A query
//! box spanning more cells than the grid has occupied iterates the
//! occupied cells instead of walking the box, so no radius — however
//! large — costs more than one pass over the grid.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use crate::geom::{Aabb, Vec2};
use crate::hash::BuildIdHasher;
use crate::index::{ItemId, SpatialIndex};

/// Key of a grid cell. Positions are divided by the cell size and floored,
/// so the grid is unbounded and supports negative coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CellKey {
    cx: i32,
    cy: i32,
}

/// Cells hash as one `u64` through [`crate::hash::IdHasher`]: the keys
/// are coordinates the grid derives itself, never caller-chosen bytes.
impl Hash for CellKey {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(((self.cx as u32 as u64) << 32) | self.cy as u32 as u64);
    }
}

type Cell = Vec<(ItemId, Vec2)>;

/// A uniform grid over 2-D points.
#[derive(Debug, Clone)]
pub struct UniformGrid {
    cell_size: f32,
    inv_cell: f32,
    cells: HashMap<CellKey, Cell, BuildIdHasher>,
    /// Entity ids are keys the program derives, and the map is never
    /// iterated, so the hasher can move no order.
    positions: HashMap<ItemId, Vec2, BuildIdHasher>,
}

impl UniformGrid {
    /// Create a grid with the given cell edge length.
    ///
    /// # Panics
    /// Panics if `cell_size` is not strictly positive and finite.
    pub fn new(cell_size: f32) -> Self {
        assert!(
            cell_size > 0.0 && cell_size.is_finite(),
            "cell_size must be positive and finite, got {cell_size}"
        );
        UniformGrid {
            cell_size,
            inv_cell: 1.0 / cell_size,
            cells: HashMap::default(),
            positions: HashMap::default(),
        }
    }

    /// Cell edge length this grid was built with.
    pub fn cell_size(&self) -> f32 {
        self.cell_size
    }

    /// Number of non-empty cells (diagnostic).
    pub fn occupied_cells(&self) -> usize {
        self.cells.len()
    }

    /// Mean number of items per occupied cell.
    pub fn mean_occupancy(&self) -> f32 {
        if self.cells.is_empty() {
            0.0
        } else {
            self.positions.len() as f32 / self.cells.len() as f32
        }
    }

    /// A grid holding `items`, whose ids are distinct, built whole (a
    /// restored world's): each item's cell is found once, every cell is
    /// allocated once, and each cell lists its items in `items` order —
    /// the grid inserting them one by one would build. A cell's capacity
    /// is the one those inserts would have grown it to (its size rounded
    /// up to a power of two, at least four), so the moves after a build
    /// reallocate no more often than after the inserts.
    pub fn from_items(cell_size: f32, items: impl IntoIterator<Item = (ItemId, Vec2)>) -> Self {
        let mut grid = UniformGrid::new(cell_size);
        let items: Vec<(ItemId, Vec2)> = items.into_iter().collect();
        // a dense number per occupied cell, in order of first use
        let mut numbers: HashMap<CellKey, u32, BuildIdHasher> = HashMap::default();
        let mut keys = Vec::new();
        let mut sizes: Vec<usize> = Vec::new();
        let cell_of: Vec<u32> = (items.iter())
            .map(|&(_, pos)| {
                let key = grid.key_for(pos);
                let n = *numbers.entry(key).or_insert_with(|| {
                    keys.push(key);
                    sizes.push(0);
                    sizes.len() as u32 - 1
                });
                sizes[n as usize] += 1;
                n
            })
            .collect();
        let mut cells: Vec<Cell> = (sizes.into_iter())
            .map(|n| Vec::with_capacity(n.next_power_of_two().max(4)))
            .collect();
        for (&n, &item) in cell_of.iter().zip(&items) {
            cells[n as usize].push(item);
        }
        grid.cells = keys.into_iter().zip(cells).collect();
        grid.positions = items.into_iter().collect();
        debug_assert_eq!(grid.positions.len(), cell_of.len(), "item ids are distinct");
        grid
    }

    /// Cell of a point. The float → int casts saturate, so far-away and
    /// infinite coordinates land on the outermost keys, and a NaN one
    /// casts to 0: a NaN position sits in a cell like any other but no
    /// distance or box test ever matches it.
    #[inline]
    fn key_for(&self, p: Vec2) -> CellKey {
        CellKey {
            cx: (p.x * self.inv_cell).floor() as i32,
            cy: (p.y * self.inv_cell).floor() as i32,
        }
    }

    fn unlink(&mut self, id: ItemId, key: CellKey) {
        if let Some(v) = self.cells.get_mut(&key) {
            if let Some(i) = v.iter().position(|&(x, _)| x == id) {
                v.swap_remove(i);
            }
            if v.is_empty() {
                self.cells.remove(&key);
            }
        }
    }

    /// Run `f` on every item within the closed disk — the visitor form
    /// of [`SpatialIndex::query_range`], for callers that collect into
    /// their own id type without an intermediate `Vec<ItemId>`.
    pub fn for_each_in_range(&self, center: Vec2, radius: f32, mut f: impl FnMut(ItemId)) {
        if radius < 0.0 {
            return;
        }
        let bounds = Aabb::around_circle(center, radius);
        let r2 = radius * radius;
        self.for_cells_in_aabb(&bounds, |items| {
            for &(id, pos) in items {
                if pos.dist2(center) <= r2 {
                    f(id);
                }
            }
        });
    }

    /// Visit each occupied cell overlapping the box and run `f` on its
    /// items. A box of more cells than the grid has occupied is served
    /// by filtering the occupied cells on the key range instead of
    /// probing every key in it (the sparse-box rule): the cost is
    /// bounded by the grid's size, not the query's.
    fn for_cells_in_aabb(&self, bounds: &Aabb, mut f: impl FnMut(&[(ItemId, Vec2)])) {
        let lo = self.key_for(bounds.min);
        let hi = self.key_for(bounds.max);
        if lo.cx > hi.cx || lo.cy > hi.cy {
            return;
        }
        let span = |lo: i32, hi: i32| (hi as i64 - lo as i64 + 1) as u64;
        if span(lo.cx, hi.cx).saturating_mul(span(lo.cy, hi.cy)) > self.cells.len() as u64 {
            for (k, v) in &self.cells {
                if (lo.cx..=hi.cx).contains(&k.cx) && (lo.cy..=hi.cy).contains(&k.cy) {
                    f(v);
                }
            }
            return;
        }
        for cx in lo.cx..=hi.cx {
            for cy in lo.cy..=hi.cy {
                if let Some(v) = self.cells.get(&CellKey { cx, cy }) {
                    f(v);
                }
            }
        }
    }

    /// A distance below which nothing lies outside the shells
    /// `0..=ring` around `center`'s cell. Proof: with `X = fl(x ·
    /// inv_cell)` the product `key_for` floors, an unvisited item `p`
    /// lies ring + 1 keys or more past the centre's key `s` on some axis,
    /// say above (below mirrors): `X_p ≥ s + ring + 1 > X_c + ring` (a
    /// saturated key keeps both sides). Each of `inv_cell` and the product
    /// rounds by a factor within `1 ± ε/2`, so undoing them costs under
    /// `1.01 ε · (ring · cell_size + 2|c|)` of `p − c`. The slack is four
    /// times that, covering the bound's own roundings; rounding being
    /// monotone, each unvisited item's computed `dist2` is then at least
    /// the bound's square. An infinite centre gives 0; a NaN one makes
    /// every distance NaN, which never counts.
    fn shell_bound(&self, center: Vec2, ring: i64) -> f32 {
        let reach = ring as f32 * self.cell_size;
        let slack = (reach + 2.0 * center.x.abs().max(center.y.abs())) * 4.0 * f32::EPSILON;
        (reach - slack).max(0.0)
    }

    /// Visit each occupied cell on the square shell at Chebyshev
    /// distance `ring` from `start`.
    fn for_cells_in_ring(&self, start: CellKey, ring: i64, mut f: impl FnMut(&[(ItemId, Vec2)])) {
        let (sx, sy) = (start.cx as i64, start.cy as i64);
        let mut visit = |cx: i64, cy: i64| {
            // shells around a saturated start run off the key space
            if let (Ok(cx), Ok(cy)) = (i32::try_from(cx), i32::try_from(cy)) {
                if let Some(v) = self.cells.get(&CellKey { cx, cy }) {
                    f(v);
                }
            }
        };
        if ring == 0 {
            return visit(sx, sy);
        }
        for d in -ring..=ring {
            visit(sx + d, sy - ring);
            visit(sx + d, sy + ring);
        }
        for d in 1 - ring..ring {
            visit(sx - ring, sy + d);
            visit(sx + ring, sy + d);
        }
    }
}

impl SpatialIndex for UniformGrid {
    fn insert(&mut self, id: ItemId, pos: Vec2) {
        let key = self.key_for(pos);
        if let Some(old) = self.positions.insert(id, pos) {
            let old_key = self.key_for(old);
            if old_key == key {
                // same-cell move: rewrite the inline copy queries read
                let entry = self
                    .cells
                    .get_mut(&key)
                    .and_then(|v| v.iter_mut().find(|(x, _)| *x == id))
                    .expect("an indexed item is linked into its position's cell");
                entry.1 = pos;
                return;
            }
            self.unlink(id, old_key);
        }
        self.cells.entry(key).or_default().push((id, pos));
    }

    fn remove(&mut self, id: ItemId) -> bool {
        match self.positions.remove(&id) {
            Some(pos) => {
                self.unlink(id, self.key_for(pos));
                true
            }
            None => false,
        }
    }

    fn position(&self, id: ItemId) -> Option<Vec2> {
        self.positions.get(&id).copied()
    }

    fn query_range(&self, center: Vec2, radius: f32, out: &mut Vec<ItemId>) {
        self.for_each_in_range(center, radius, |id| out.push(id));
    }

    fn query_aabb(&self, bounds: &Aabb, out: &mut Vec<ItemId>) {
        self.for_cells_in_aabb(bounds, |items| {
            out.extend(items.iter().filter(|(_, p)| bounds.contains(*p)).map(|&(id, _)| id));
        });
    }

    fn query_knn(&self, center: Vec2, k: usize, out: &mut Vec<ItemId>) {
        if k == 0 || self.positions.is_empty() {
            return;
        }
        // Expanding ring search: examine cells in growing square shells
        // around the center until we have k candidates whose distances are
        // all certainly smaller than anything in unexamined shells.
        let start = self.key_for(center);
        let mut cands: Vec<(f32, ItemId)> = Vec::new();
        let collect = |cands: &mut Vec<(f32, ItemId)>, items: &[(ItemId, Vec2)]| {
            cands.extend(items.iter().map(|&(id, p)| (p.dist2(center), id)));
        };
        // The walk may probe as many keys as the grid has occupied cells;
        // past that (a far-away center, a sparse world) one pass over the
        // occupied cells is cheaper than any further shell.
        let mut budget = self.cells.len() as i64;
        let mut ring = 0i64;
        loop {
            budget -= (8 * ring).max(1);
            if budget < 0 {
                cands.clear();
                self.cells.values().for_each(|v| collect(&mut cands, v));
                break;
            }
            self.for_cells_in_ring(start, ring, |v| collect(&mut cands, v));
            // a candidate below the bound beats every unvisited item
            let safe = self.shell_bound(center, ring);
            let complete = cands.iter().filter(|&&(d, _)| d < safe * safe).count();
            if complete >= k || cands.len() >= self.positions.len() {
                break;
            }
            ring += 1;
        }
        finish_knn(k, &mut cands, out);
    }

    fn len(&self) -> usize {
        self.positions.len()
    }

    fn clear(&mut self) {
        self.cells.clear();
        self.positions.clear();
    }
}

/// The `k` nearest of the ring walk's `candidates` by (distance, id),
/// closest first: one selection, then a sort of those `k` only. A NaN
/// distance (a NaN centre or stored position) matches nothing, as in
/// [`SpatialIndex::query_range`].
fn finish_knn(k: usize, candidates: &mut Vec<(f32, ItemId)>, out: &mut Vec<ItemId>) {
    candidates.retain(|&(d, _)| !d.is_nan());
    let k = k.min(candidates.len());
    if k == 0 {
        return;
    }
    let by_distance = |a: &(f32, ItemId), b: &(f32, ItemId)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
    candidates.select_nth_unstable_by(k - 1, by_distance);
    let nearest = &mut candidates[..k];
    nearest.sort_unstable_by(by_distance);
    out.extend(nearest.iter().map(|&(_, id)| id));
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A coordinate for a bulk-built grid: mostly finite, some NaN and
    /// infinities, which land on the origin's or an outermost cell.
    fn odd_coord() -> impl Strategy<Value = f32> {
        let finite = || (-150.0f32..150.0).prop_map(|v| (v * 8.0).round() / 8.0);
        prop_oneof![
            finite(),
            finite(),
            finite(),
            finite(),
            Just(f32::NAN),
            Just(f32::INFINITY),
            Just(f32::NEG_INFINITY),
        ]
    }

    /// A grid's layout by bits, so a NaN position equals itself: each
    /// occupied cell's items in cell order, and each item's position.
    type Layout = (
        Vec<(i32, i32, Vec<(ItemId, [u32; 2])>)>,
        Vec<(ItemId, [u32; 2])>,
    );

    fn layout(g: &UniformGrid) -> Layout {
        let bits = |p: Vec2| [p.x.to_bits(), p.y.to_bits()];
        let mut cells: Vec<_> = (g.cells.iter())
            .map(|(k, v)| (k.cx, k.cy, v.iter().map(|&(id, p)| (id, bits(p))).collect()))
            .collect();
        cells.sort_unstable();
        let mut positions: Vec<_> = g.positions.iter().map(|(&id, &p)| (id, bits(p))).collect();
        positions.sort_unstable();
        (cells, positions)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `UniformGrid::from_items` builds the grid inserting the same
        /// items in the same order builds: the same occupied cells, each
        /// listing the same items in the same order, and the same
        /// positions — over distinct ids in any order, clustered and
        /// scattered positions and NaN / ±∞ coordinates.
        #[test]
        fn grid_from_items_equals_inserts(
            points in proptest::collection::vec((odd_coord(), odd_coord()), 0..200),
            salt in any::<u64>(),
            cell in prop_oneof![Just(3.0f32), Just(16.0f32)],
        ) {
            // distinct ids, in no particular order
            let items: Vec<(ItemId, Vec2)> = (points.iter().enumerate())
                .map(|(i, &(x, y))| ((i as u64).wrapping_mul(0x9E37_79B9) ^ salt, Vec2::new(x, y)))
                .collect();
            let built = UniformGrid::from_items(cell, items.iter().copied());
            let mut inserted = UniformGrid::new(cell);
            for &(id, p) in &items {
                inserted.insert(id, p);
            }
            prop_assert_eq!(layout(&built), layout(&inserted));
        }
    }

    fn v(x: f32, y: f32) -> Vec2 {
        Vec2::new(x, y)
    }

    #[test]
    #[should_panic(expected = "cell_size must be positive")]
    fn zero_cell_size_panics() {
        UniformGrid::new(0.0);
    }

    #[test]
    fn insert_and_query() {
        let mut g = UniformGrid::new(10.0);
        g.insert(1, v(5.0, 5.0));
        g.insert(2, v(15.0, 5.0));
        g.insert(3, v(100.0, 100.0));
        let mut out = vec![];
        g.query_range(v(0.0, 0.0), 20.0, &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn negative_coordinates_work() {
        let mut g = UniformGrid::new(4.0);
        g.insert(1, v(-7.5, -3.0));
        g.insert(2, v(7.5, 3.0));
        let mut out = vec![];
        g.query_range(v(-8.0, -3.0), 1.0, &mut out);
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn update_moves_between_cells() {
        let mut g = UniformGrid::new(10.0);
        g.insert(1, v(5.0, 5.0));
        g.update(1, v(95.0, 95.0));
        assert_eq!(g.len(), 1);
        let mut out = vec![];
        g.query_range(v(5.0, 5.0), 2.0, &mut out);
        assert!(out.is_empty());
        g.query_range(v(95.0, 95.0), 2.0, &mut out);
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn update_within_same_cell() {
        let mut g = UniformGrid::new(10.0);
        g.insert(1, v(1.0, 1.0));
        g.update(1, v(2.0, 2.0));
        assert_eq!(g.position(1), Some(v(2.0, 2.0)));
        assert_eq!(g.occupied_cells(), 1);
    }

    #[test]
    fn remove_cleans_empty_cells() {
        let mut g = UniformGrid::new(10.0);
        g.insert(1, v(1.0, 1.0));
        assert_eq!(g.occupied_cells(), 1);
        assert!(g.remove(1));
        assert_eq!(g.occupied_cells(), 0);
        assert!(g.is_empty());
    }

    #[test]
    fn knn_finds_across_cells() {
        let mut g = UniformGrid::new(5.0);
        g.insert(1, v(0.0, 0.0));
        g.insert(2, v(30.0, 0.0));
        g.insert(3, v(31.0, 0.0));
        g.insert(4, v(60.0, 0.0));
        let mut out = vec![];
        g.query_knn(v(29.0, 0.0), 2, &mut out);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn knn_zero_k() {
        let mut g = UniformGrid::new(5.0);
        g.insert(1, v(0.0, 0.0));
        let mut out = vec![];
        g.query_knn(Vec2::ZERO, 0, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn negative_radius_returns_nothing() {
        let mut g = UniformGrid::new(5.0);
        g.insert(1, v(0.0, 0.0));
        let mut out = vec![];
        g.query_range(Vec2::ZERO, -1.0, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn mean_occupancy_reporting() {
        let mut g = UniformGrid::new(10.0);
        g.insert(1, v(1.0, 1.0));
        g.insert(2, v(2.0, 2.0));
        g.insert(3, v(55.0, 55.0));
        assert_eq!(g.occupied_cells(), 2);
        assert!((g.mean_occupancy() - 1.5).abs() < 1e-6);
    }
}
