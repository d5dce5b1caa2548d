//! Property tests: the uniform grid must agree with the brute-force
//! oracle on arbitrary operation sequences and queries.

use gamedb_spatial::{Aabb, BruteForce, SpatialIndex, UniformGrid, Vec2};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert(u64, f32, f32),
    Remove(u64),
    Update(u64, f32, f32),
}

/// World coordinates in `±span`, including negatives.
fn coord(span: f32) -> impl Strategy<Value = f32> {
    (-span..span).prop_map(|v| (v * 8.0).round() / 8.0)
}

fn op(span: f32) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..32, coord(span), coord(span)).prop_map(|(id, x, y)| Op::Insert(id, x, y)),
        (0u64..32).prop_map(Op::Remove),
        (0u64..32, coord(span), coord(span)).prop_map(|(id, x, y)| Op::Update(id, x, y)),
    ]
}

fn apply<I: SpatialIndex>(idx: &mut I, ops: &[Op]) {
    for o in ops {
        match *o {
            Op::Insert(id, x, y) => idx.insert(id, Vec2::new(x, y)),
            Op::Remove(id) => {
                idx.remove(id);
            }
            Op::Update(id, x, y) => idx.update(id, Vec2::new(x, y)),
        }
    }
}

fn sorted_range<I: SpatialIndex>(idx: &I, c: Vec2, r: f32) -> Vec<u64> {
    let mut out = vec![];
    idx.query_range(c, r, &mut out);
    out.sort_unstable();
    out
}

fn sorted_aabb<I: SpatialIndex>(idx: &I, b: &Aabb) -> Vec<u64> {
    let mut out = vec![];
    idx.query_aabb(b, &mut out);
    out.sort_unstable();
    out
}

fn knn<I: SpatialIndex>(idx: &I, c: Vec2, k: usize) -> Vec<u64> {
    let mut out = vec![];
    idx.query_knn(c, k, &mut out);
    out
}

/// `$span` bounds the generated coordinates: ±150 runs items across
/// many cells; a span inside one cell makes every `Update` a same-cell
/// move.
macro_rules! index_equivalence_suite {
    ($modname:ident, $make:expr) => {
        index_equivalence_suite!($modname, $make, 150.0);
    };
    ($modname:ident, $make:expr, $span:expr) => {
        mod $modname {
            use super::*;

            fn coord() -> impl Strategy<Value = f32> {
                super::coord($span)
            }

            fn op() -> impl Strategy<Value = Op> {
                super::op($span)
            }

            proptest! {
                #![proptest_config(ProptestConfig::with_cases(64))]

                #[test]
                fn range_matches_oracle(
                    ops in proptest::collection::vec(op(), 0..120),
                    cx in coord(), cy in coord(),
                    r in 0.0f32..120.0,
                ) {
                    let mut oracle = BruteForce::new();
                    let mut idx = $make;
                    apply(&mut oracle, &ops);
                    apply(&mut idx, &ops);
                    prop_assert_eq!(idx.len(), oracle.len());
                    let c = Vec2::new(cx, cy);
                    prop_assert_eq!(sorted_range(&idx, c, r), sorted_range(&oracle, c, r));
                }

                #[test]
                fn aabb_matches_oracle(
                    ops in proptest::collection::vec(op(), 0..120),
                    x0 in coord(), y0 in coord(),
                    x1 in coord(), y1 in coord(),
                ) {
                    let mut oracle = BruteForce::new();
                    let mut idx = $make;
                    apply(&mut oracle, &ops);
                    apply(&mut idx, &ops);
                    let b = Aabb::new(Vec2::new(x0, y0), Vec2::new(x1, y1));
                    prop_assert_eq!(sorted_aabb(&idx, &b), sorted_aabb(&oracle, &b));
                }

                #[test]
                fn knn_matches_oracle(
                    ops in proptest::collection::vec(op(), 0..120),
                    cx in coord(), cy in coord(),
                    k in 0usize..12,
                ) {
                    let mut oracle = BruteForce::new();
                    let mut idx = $make;
                    apply(&mut oracle, &ops);
                    apply(&mut idx, &ops);
                    let c = Vec2::new(cx, cy);
                    // Distances can tie at different ids only when two items
                    // share a distance; the (distance, id) tiebreak makes
                    // results fully deterministic, so exact equality holds.
                    prop_assert_eq!(knn(&idx, c, k), knn(&oracle, c, k));
                }

                #[test]
                fn positions_match_oracle(
                    ops in proptest::collection::vec(op(), 0..120),
                ) {
                    let mut oracle = BruteForce::new();
                    let mut idx = $make;
                    apply(&mut oracle, &ops);
                    apply(&mut idx, &ops);
                    for id in 0u64..32 {
                        prop_assert_eq!(idx.position(id), oracle.position(id));
                    }
                }
            }
        }
    };
}

index_equivalence_suite!(grid_vs_oracle, UniformGrid::new(16.0));
index_equivalence_suite!(grid_small_cells_vs_oracle, UniformGrid::new(3.0));
// every item in the four cells around the origin: a quarter of the moves
// stay in their cell, where the grid rewrites the position held inline
index_equivalence_suite!(grid_same_cell_moves_vs_oracle, UniformGrid::new(16.0), 8.0);

/// knn where ties and `key_for`'s rounding decide the answer, on cells
/// of 3.0 (an inexact inverse): items on integer coordinates — many at
/// one distance, so the id tiebreak picks — some nudged one ulp off,
/// centres on cell corners (nudged too), around the origin and around
/// ±1e6, where a float's ulp is 1/16. `k` runs up to and past the item
/// count, so the selection also ends at the last candidate.
mod grid_knn_ties {
    use super::*;

    const CELL: f32 = 3.0;

    /// `x` moved `ulps` representable floats up (down when negative).
    fn nudge(x: f32, ulps: i32) -> f32 {
        (0..ulps.abs()).fold(x, |x, _| if ulps > 0 { x.next_up() } else { x.next_down() })
    }

    /// A cell corner: the origin or one near ±1e6.
    fn anchor() -> impl Strategy<Value = f32> {
        prop_oneof![Just(0.0f32), Just(999_999.0f32), Just(-999_999.0f32)]
    }

    /// Grid and oracle holding the same items; ids run opposite to
    /// insertion order.
    fn worlds(items: &[Vec2]) -> (UniformGrid, BruteForce) {
        let (mut grid, mut oracle) = (UniformGrid::new(CELL), BruteForce::new());
        for (i, &p) in items.iter().enumerate() {
            let id = (items.len() - i) as u64;
            grid.insert(id, p);
            oracle.insert(id, p);
        }
        (grid, oracle)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn knn_ties_match_oracle(
            a in anchor(),
            items in proptest::collection::vec((-12i32..=12, -12i32..=12, -1i32..=1), 0..=64),
            cx in -3i32..=3, cy in -3i32..=3, cn in -1i32..=1,
            k in 0usize..=40,
        ) {
            let items: Vec<Vec2> = items
                .iter()
                .map(|&(x, y, n)| Vec2::new(nudge(a + x as f32, n), a + y as f32))
                .collect();
            let (grid, oracle) = worlds(&items);
            let c = Vec2::new(nudge(a + CELL * cx as f32, cn), a + CELL * cy as f32);
            prop_assert_eq!(knn(&grid, c, k), knn(&oracle, c, k));
        }
    }

    /// `key_for` rounds 15 − ulp into cell 5 though it lies in cell 4, so
    /// an item there sits just inside 12 (= 4 cells) of a centre at
    /// 3 − ulp and is still unvisited after the fourth shell; a second
    /// item at exactly its distance, in a visited cell, must not win the
    /// tie it loses on id. Far-away fillers give the grid enough occupied
    /// cells that the walk reaches that shell before its budget runs out.
    #[test]
    fn rounding_across_a_cell_edge_keeps_the_nearest() {
        let c = Vec2::new(3.0f32.next_down(), 0.5);
        // the visited item first: it gets the larger id
        let mut items = vec![
            Vec2::new(c.x, 12.5f32.next_down()),
            Vec2::new(15.0f32.next_down(), 0.5),
        ];
        assert_eq!(items[0].dist2(c), items[1].dist2(c), "the two tie");
        items.extend((0..90).map(|i| Vec2::new(1_000.0 + CELL * i as f32, 1_000.0)));
        let (grid, oracle) = worlds(&items);
        for k in [1, 2, 3] {
            assert_eq!(knn(&grid, c, k), knn(&oracle, c, k), "k {k}");
        }
    }
}

/// A query far larger than the populated area must cost one pass over
/// the grid, not one probe per cell of the query box: radius 1e9 spans
/// 1.5e16 cells of a 16-unit grid, and an infinite one saturates both
/// key bounds.
mod grid_huge_queries {
    use super::*;
    use std::time::{Duration, Instant};

    fn sparse_world() -> (UniformGrid, BruteForce) {
        let (mut grid, mut oracle) = (UniformGrid::new(16.0), BruteForce::new());
        for id in 0..100u64 {
            let p = Vec2::new(
                (id as f32 * 7919.0) % 3.0e5 - 1.5e5,
                (id as f32 * 104_729.0) % 3.0e5 - 1.5e5,
            );
            grid.insert(id, p);
            oracle.insert(id, p);
        }
        (grid, oracle)
    }

    #[test]
    fn huge_and_infinite_probes_match_the_oracle_in_bounded_time() {
        let (grid, oracle) = sparse_world();
        let started = Instant::now();
        for r in [3.0e5, 1.0e9, f32::INFINITY] {
            for c in [Vec2::ZERO, Vec2::new(-1.5e5, 1.5e5)] {
                assert_eq!(sorted_range(&grid, c, r), sorted_range(&oracle, c, r), "r {r}");
            }
            let b = Aabb::new(Vec2::new(-r, -r), Vec2::new(r, r));
            assert_eq!(sorted_aabb(&grid, &b), sorted_aabb(&oracle, &b), "box {r}");
            assert_eq!(sorted_aabb(&grid, &b).len(), 100);
        }
        // sparse worlds and far-away centers: the ring walk gives way to
        // one pass over the occupied cells
        for c in [Vec2::ZERO, Vec2::new(1.0e9, -1.0e9), Vec2::new(3.0e12, 0.0)] {
            for k in [1, 5, 100, 200] {
                assert_eq!(knn(&grid, c, k), knn(&oracle, c, k), "knn {c:?} k {k}");
            }
        }
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "huge queries took {:?}",
            started.elapsed()
        );
    }
}

mod navmesh_props {
    use super::*;
    use gamedb_spatial::{Annotation, CostProfile, NavMesh};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// On a random open tile grid (no walls), a path between any two
        /// cell centers exists and starts/ends at the query points.
        #[test]
        fn open_grid_always_connected(
            w in 2usize..8, h in 2usize..8,
            sx in 0usize..8, sy in 0usize..8,
            gx in 0usize..8, gy in 0usize..8,
        ) {
            let (sx, sy) = (sx % w, sy % h);
            let (gx, gy) = (gx % w, gy % h);
            let mesh = NavMesh::from_tile_grid(w, h, 1.0, |_, _| true, |_, _| Annotation::neutral());
            prop_assert_eq!(mesh.connected_components(), 1);
            let from = Vec2::new(sx as f32 + 0.5, sy as f32 + 0.5);
            let to = Vec2::new(gx as f32 + 0.5, gy as f32 + 0.5);
            let path = mesh.find_path(from, to, &CostProfile::shortest());
            prop_assert!(path.is_some());
            let path = path.unwrap();
            prop_assert_eq!(path.waypoints[0], from);
            prop_assert_eq!(*path.waypoints.last().unwrap(), to);
            // path length at least the straight-line distance
            prop_assert!(path.length() + 1e-4 >= from.dist(to));
        }

        /// Danger weighting never makes the geometric path shorter than the
        /// unweighted shortest path.
        #[test]
        fn weighted_paths_no_shorter(
            w in 3usize..7, h in 3usize..7,
            danger_x in 0usize..7, danger_y in 0usize..7,
        ) {
            let (dx, dy) = (danger_x % w, danger_y % h);
            let mesh = NavMesh::from_tile_grid(
                w, h, 1.0,
                |_, _| true,
                |x, y| if (x, y) == (dx, dy) {
                    Annotation { danger: 1.0, ..Default::default() }
                } else {
                    Annotation::neutral()
                },
            );
            let from = Vec2::new(0.5, 0.5);
            let to = Vec2::new(w as f32 - 0.5, h as f32 - 0.5);
            let short = mesh.find_path(from, to, &CostProfile::shortest()).unwrap();
            let safe = mesh.find_path(from, to, &CostProfile::cautious()).unwrap();
            prop_assert!(safe.length() + 1e-4 >= short.length());
        }

        /// Mesh validation finds no problems on arbitrary tile grids.
        #[test]
        fn tile_meshes_validate(
            w in 1usize..10, h in 1usize..10,
            walls in proptest::collection::hash_set((0usize..10, 0usize..10), 0..20),
        ) {
            let mesh = NavMesh::from_tile_grid(
                w, h, 1.0,
                |x, y| !walls.contains(&(x, y)),
                |_, _| Annotation::neutral(),
            );
            prop_assert!(mesh.validate().is_empty());
        }
    }
}
