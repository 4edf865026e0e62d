//! # dp-geom — 2-D geometry kernel for the dp-spatial workspace
//!
//! Points, axis-aligned rectangles, line segments, clipping, intersection
//! predicates, and quadtree path codes. This crate is the geometric
//! substrate beneath the data-parallel spatial index builds of
//! Hoel & Samet (ICPP 1995): the quadtree algorithms need segment-vs-block
//! membership and split-axis crossing tests (paper Sec. 4.6), the PM₁
//! split decision needs endpoint-in-block counts and endpoint bounding
//! boxes (Sec. 4.5), and the R-tree needs rectangle arithmetic — areas,
//! unions, intersections, perimeters (Secs. 4.7, 5.3).
//!
//! ## Block membership convention
//!
//! Quadtree blocks decompose space into *disjoint* cells, but a line
//! segment crossing a block boundary belongs to every block it passes
//! through (it is cut into *q-edges*, paper Sec. 1). The predicates here
//! implement the convention:
//!
//! * a **point** belongs to exactly one block: membership is half-open,
//!   `x ∈ [x0, x1) ∧ y ∈ [y0, y1)`;
//! * a **segment** belongs to a block if its clip against the *closed*
//!   block has positive length, or degenerates to a single point that is
//!   half-open inside the block.
//!
//! With integer endpoint coordinates inside a power-of-two world, every
//! split line produced by recursive halving has a dyadic coordinate, so
//! all the `f64` comparisons involved are exact — the quadtree builds are
//! fully deterministic with no epsilon tuning.

pub mod intersect;
pub mod morton;
pub mod point;
pub mod rect;
pub mod segment;

pub use intersect::{clip_segment_closed, seg_in_block, seg_meets_rect, segments_intersect};
pub use morton::{hilbert_d, z_order, NodePath, Quadrant};
pub use point::Point;
pub use rect::Rect;
pub use segment::LineSeg;
