//! The [`SpatialIndex`] trait and a brute-force reference implementation.
//!
//! The paper observes that "game developers often rely on indices to speed
//! up computations that involve relationships between pairs of objects",
//! naming BSP trees and octrees. This crate keeps one general index,
//! [`crate::UniformGrid`], and one oracle, [`BruteForce`]: O(n) per query,
//! correct by construction, and the reference the property tests hold the
//! grid to.

use crate::geom::{Aabb, Vec2};

/// Identifier for an indexed object. The engine crate maps its entity ids
/// onto these.
pub type ItemId = u64;

/// A dynamic point index over a 2-D game world.
///
/// Implementations must tolerate duplicate positions and must treat
/// `update` of an unknown id as an insert (games spawn and move entities
/// in the same tick; forcing callers to distinguish is a foot-gun).
pub trait SpatialIndex {
    /// Insert `id` at `pos`. If `id` is already present it is moved.
    fn insert(&mut self, id: ItemId, pos: Vec2);

    /// Remove `id`; returns `true` if it was present.
    fn remove(&mut self, id: ItemId) -> bool;

    /// Move `id` to `pos` (inserts if absent).
    fn update(&mut self, id: ItemId, pos: Vec2) {
        self.insert(id, pos);
    }

    /// Current position of `id`, if present.
    fn position(&self, id: ItemId) -> Option<Vec2>;

    /// Append every id within the closed disk `(center, radius)` to `out`.
    /// `out` is *not* cleared: callers reuse buffers across queries.
    fn query_range(&self, center: Vec2, radius: f32, out: &mut Vec<ItemId>);

    /// Append every id inside the box to `out` (closed-interval semantics).
    fn query_aabb(&self, bounds: &Aabb, out: &mut Vec<ItemId>);

    /// Append the `k` nearest ids to `center` to `out`, closest first.
    /// Ties are broken by id for determinism.
    fn query_knn(&self, center: Vec2, k: usize, out: &mut Vec<ItemId>);

    /// Number of indexed items.
    fn len(&self) -> usize;

    /// True when the index holds no items.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remove everything.
    fn clear(&mut self);
}

/// O(n)-per-query reference index: a flat vector of `(id, pos)` pairs.
///
/// This is both the correctness oracle for property tests and the
/// "no index" baseline that the paper's Ω(n²) script complexity argument
/// assumes (n objects each scanning all n objects).
#[derive(Debug, Default, Clone)]
pub struct BruteForce {
    items: Vec<(ItemId, Vec2)>,
}

impl BruteForce {
    pub fn new() -> Self {
        Self::default()
    }

    /// Iterate over all `(id, position)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (ItemId, Vec2)> + '_ {
        self.items.iter().copied()
    }

    fn find(&self, id: ItemId) -> Option<usize> {
        self.items.iter().position(|&(i, _)| i == id)
    }
}

impl SpatialIndex for BruteForce {
    fn insert(&mut self, id: ItemId, pos: Vec2) {
        match self.find(id) {
            Some(i) => self.items[i].1 = pos,
            None => self.items.push((id, pos)),
        }
    }

    fn remove(&mut self, id: ItemId) -> bool {
        match self.find(id) {
            Some(i) => {
                self.items.swap_remove(i);
                true
            }
            None => false,
        }
    }

    fn position(&self, id: ItemId) -> Option<Vec2> {
        self.find(id).map(|i| self.items[i].1)
    }

    fn query_range(&self, center: Vec2, radius: f32, out: &mut Vec<ItemId>) {
        let r2 = radius * radius;
        out.extend(
            self.items
                .iter()
                .filter(|&&(_, p)| p.dist2(center) <= r2)
                .map(|&(id, _)| id),
        );
    }

    fn query_aabb(&self, bounds: &Aabb, out: &mut Vec<ItemId>) {
        out.extend(
            self.items
                .iter()
                .filter(|&&(_, p)| bounds.contains(p))
                .map(|&(id, _)| id),
        );
    }

    /// A full sort of every non-NaN `(distance, id)`, sharing no code with the grid.
    fn query_knn(&self, center: Vec2, k: usize, out: &mut Vec<ItemId>) {
        let mut cands: Vec<(f32, ItemId)> = self
            .items
            .iter()
            .map(|&(id, p)| (p.dist2(center), id))
            .filter(|&(d, _)| !d.is_nan())
            .collect();
        cands.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        out.extend(cands.iter().take(k).map(|&(_, id)| id));
    }

    fn len(&self) -> usize {
        self.items.len()
    }

    fn clear(&mut self) {
        self.items.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: f32, y: f32) -> Vec2 {
        Vec2::new(x, y)
    }

    #[test]
    fn insert_update_remove() {
        let mut idx = BruteForce::new();
        idx.insert(1, v(0.0, 0.0));
        idx.insert(2, v(5.0, 5.0));
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.position(1), Some(v(0.0, 0.0)));

        // insert with same id moves the item
        idx.insert(1, v(1.0, 1.0));
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.position(1), Some(v(1.0, 1.0)));

        assert!(idx.remove(1));
        assert!(!idx.remove(1));
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.position(1), None);
    }

    #[test]
    fn range_query_closed_disk() {
        let mut idx = BruteForce::new();
        idx.insert(1, v(0.0, 0.0));
        idx.insert(2, v(3.0, 4.0)); // dist 5 exactly
        idx.insert(3, v(6.0, 0.0));
        let mut out = vec![];
        idx.query_range(v(0.0, 0.0), 5.0, &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn knn_orders_by_distance_then_id() {
        let mut idx = BruteForce::new();
        idx.insert(10, v(1.0, 0.0));
        idx.insert(5, v(2.0, 0.0));
        idx.insert(7, v(1.0, 0.0)); // same distance as 10, lower id
        let mut out = vec![];
        idx.query_knn(v(0.0, 0.0), 2, &mut out);
        assert_eq!(out, vec![7, 10]);
    }

    #[test]
    fn knn_with_k_larger_than_population() {
        let mut idx = BruteForce::new();
        idx.insert(1, v(1.0, 1.0));
        let mut out = vec![];
        idx.query_knn(Vec2::ZERO, 10, &mut out);
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn aabb_query() {
        let mut idx = BruteForce::new();
        idx.insert(1, v(1.0, 1.0));
        idx.insert(2, v(9.0, 9.0));
        let mut out = vec![];
        idx.query_aabb(&Aabb::from_size(5.0, 5.0), &mut out);
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn clear_empties() {
        let mut idx = BruteForce::new();
        idx.insert(1, v(0.0, 0.0));
        idx.clear();
        assert!(idx.is_empty());
    }
}
