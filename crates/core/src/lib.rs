//! # dp-spatial — data-parallel spatial index construction
//!
//! A reproduction of *Hoel & Samet, "Data-Parallel Primitives for Spatial
//! Operations", ICPP 1995*: bulk construction of three spatial data
//! structures over 2-D line segment collections, expressed entirely in the
//! scan-model primitives of the [`scan_model`] vector machine —
//!
//! * [`pm1::build_pm1`] — the **PM₁ quadtree** (paper Sec. 5.1), via the
//!   vertex-based split decision of Sec. 4.5 and the two-stage node split
//!   of Sec. 4.6;
//! * [`bucket_pmr::build_bucket_pmr`] — the **bucket PMR quadtree** (paper
//!   Sec. 5.2), the insertion-order-independent PMR variant designed for
//!   simultaneous insertion;
//! * [`rtree::build_rtree`] — the **R-tree** (paper Sec. 5.3), with both
//!   node split selectors of Sec. 4.7: the O(1) mean-of-midpoints split
//!   and the O(log n) sorted-sweep minimal-overlap split.
//!
//! All three builds insert *every segment simultaneously*: one conceptual
//! processor per (segment, node) pair, iteratively subdivided with
//! cloning, unshuffling and segmented scans until every node satisfies its
//! structure's criterion. Because every operation routes through a
//! [`scan_model::Machine`], the builds run identically on the sequential
//! reference backend and the rayon-parallel backend, and their primitive
//! operation counts (the paper's complexity currency) are observable via
//! [`scan_model::Machine::stats`].
//!
//! Beyond construction, [`batch::batch_window_query`] answers many window
//! queries in one lockstep descent — every level one
//! [`scan_model::Machine::flat_map_into`], the same level step
//! [`update::batch_update`] routes its inserts with — and
//! [`join::frontier_join`] computes the spatial join of two aligned
//! quadtrees breadth-first over a vector of candidate block pairs — the
//! join, like the builds, is a policy on the instrumented
//! [`round_driver::RoundDriver`], which records a
//! [`scan_model::RoundTrace`] per round.
//!
//! Each operation has one exported path. What those paths replaced — the
//! unfused PM₁ decision, the sequential recursive join — lives in
//! [`baseline`], for tests to compare against.
//!
//! ## Quick example
//!
//! ```
//! use dp_spatial::bucket_pmr::build_bucket_pmr;
//! use dp_geom::{LineSeg, Rect, Point};
//! use scan_model::Machine;
//!
//! let world = Rect::from_coords(0.0, 0.0, 8.0, 8.0);
//! let segs = vec![
//!     LineSeg::from_coords(1.0, 1.0, 6.0, 6.0),
//!     LineSeg::from_coords(1.0, 6.0, 6.0, 1.0),
//!     LineSeg::from_coords(1.0, 2.0, 6.0, 2.0),
//! ];
//! let m = Machine::parallel();
//! let tree = build_bucket_pmr(&m, world, &segs, 2, 6);
//! let hits = tree.window_query(&Rect::from_coords(0.0, 0.0, 4.5, 4.5), &segs);
//! assert_eq!(hits, vec![0, 1, 2]);
//! ```

pub mod baseline;
pub mod batch;
pub mod bucket_pmr;
pub mod dominance;
pub mod error;
pub mod join;
pub mod kdtree;
pub mod lineproc;
pub mod pm1;
pub mod pm_family;
pub mod quadtree;
pub mod region;
pub mod round_driver;
pub mod rsplit;
pub mod rtree;
pub mod shard;
pub mod snapshot;
pub mod split;
pub mod stats;
pub mod update;

pub use error::{MalformedKind, SpatialError};

/// Identifier of a segment within the caller's segment slice (matches
/// `seq_spatial::SegId`).
pub type SegId = u32;
