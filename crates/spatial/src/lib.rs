//! # gamedb-spatial
//!
//! Spatial data structures for computer games, as surveyed in
//! *Database Research in Computer Games* (SIGMOD 2009): "many games use
//! traditional spatial indices such as BSP trees or Octrees \[and\]
//! navigational meshes … often annotated by a designer or technical artist
//! to include extra semantic information".
//!
//! ## Contents
//!
//! * [`geom`] — vectors and bounding boxes (2-D and 3-D).
//! * [`index`] — the [`SpatialIndex`] trait plus the brute-force oracle.
//! * [`grid`] — uniform grid / spatial hash ([`UniformGrid`]).
//! * [`hash`] — the multiply-rotate [`IdHasher`] for derived integer keys
//!   (grid cells here; entity and column ids in the sync layer).
//! * [`bsp`] — dynamic BSP (kd) tree ([`BspTree`]).
//! * [`quadtree`] — region quadtree ([`Quadtree`]).
//! * [`octree`] — 3-D octree over [`geom::Vec3`] points ([`Octree`]).
//! * [`navmesh`] — annotated navigation meshes with A* ([`NavMesh`]).
//! * [`pathfind`] — generic A* ([`pathfind::astar`]).
//!
//! All point indices implement [`SpatialIndex`], so engines (and the E3
//! index-comparison experiment) can swap implementations freely:
//!
//! ```
//! use gamedb_spatial::{SpatialIndex, UniformGrid, Vec2};
//!
//! let mut idx = UniformGrid::new(8.0);
//! idx.insert(1, Vec2::new(3.0, 4.0));
//! idx.insert(2, Vec2::new(30.0, 40.0));
//! let mut near = Vec::new();
//! idx.query_range(Vec2::ZERO, 10.0, &mut near);
//! assert_eq!(near, vec![1]);
//! ```

pub mod bsp;
pub mod geom;
pub mod grid;
pub mod hash;
pub mod index;
pub mod navmesh;
pub mod octree;
pub mod pathfind;
pub mod quadtree;

pub use bsp::BspTree;
pub use geom::{Aabb, Aabb3, Vec2, Vec3};
pub use grid::UniformGrid;
pub use hash::{BuildIdHasher, IdHasher};
pub use index::{BruteForce, ItemId, SpatialIndex};
pub use navmesh::{Annotation, CostProfile, NavMesh, NavMeshError, NavPath, Polygon};
pub use octree::Octree;
pub use quadtree::Quadtree;
