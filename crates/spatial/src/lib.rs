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
//! * [`geom`] — 2-D vectors and bounding boxes.
//! * [`index`] — the [`SpatialIndex`] trait plus the brute-force oracle.
//! * [`grid`] — uniform grid / spatial hash ([`UniformGrid`]), the one
//!   index the engine's world answers spatial queries through.
//! * [`hash`] — the multiply-rotate [`IdHasher`] for derived integer keys
//!   (grid cells here; entity and column ids in the sync layer).
//! * [`navmesh`] — annotated navigation meshes with A* ([`NavMesh`]).
//! * [`pathfind`] — generic A* ([`pathfind::astar`]).
//!
//! The paper's BSP trees and octrees are one answer to the pair-query
//! problem; this crate keeps one general index and one oracle. Both
//! implement [`SpatialIndex`], and the property suite holds the grid to
//! [`BruteForce`] on random operation sequences:
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

pub mod geom;
pub mod grid;
pub mod hash;
pub mod index;
pub mod navmesh;
pub mod pathfind;

pub use geom::{Aabb, Vec2};
pub use grid::UniformGrid;
pub use hash::{BuildIdHasher, IdHasher};
pub use index::{BruteForce, ItemId, SpatialIndex};
pub use navmesh::{Annotation, CostProfile, NavMesh, NavMeshError, NavPath, Polygon};
