//! Axis-aligned rectangles: quadtree blocks and R-tree bounding boxes.

use crate::point::Point;
use std::fmt;

/// An axis-aligned rectangle `[min.x, max.x] × [min.y, max.y]`.
///
/// Used both as a quadtree *block* (where point membership is half-open,
/// see [`Rect::contains_half_open`]) and as an R-tree *bounding box*
/// (where containment/overlap are closed, as in Guttman's formulation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Lower-left corner.
    pub min: Point,
    /// Upper-right corner.
    pub max: Point,
}

impl Rect {
    /// Constructs a rectangle from two corners.
    ///
    /// # Panics
    ///
    /// Panics if `min.x > max.x` or `min.y > max.y` (degenerate
    /// zero-extent rectangles — points and horizontal/vertical slabs —
    /// are allowed; inverted ones are not).
    pub fn new(min: Point, max: Point) -> Self {
        assert!(
            min.x <= max.x && min.y <= max.y,
            "inverted rectangle: min {min}, max {max}"
        );
        Rect { min, max }
    }

    /// Rectangle from the coordinates `(x0, y0)`–`(x1, y1)`.
    pub fn from_coords(x0: f64, y0: f64, x1: f64, y1: f64) -> Self {
        Rect::new(Point::new(x0, y0), Point::new(x1, y1))
    }

    /// The smallest rectangle containing both endpoints of a pair.
    pub fn from_corners(a: Point, b: Point) -> Self {
        Rect::new(
            Point::new(a.x.min(b.x), a.y.min(b.y)),
            Point::new(a.x.max(b.x), a.y.max(b.y)),
        )
    }

    /// A degenerate rectangle covering a single point. The MBB seed used
    /// by the PM₁ endpoint-bounding-box computation (paper Sec. 4.5).
    pub fn point(p: Point) -> Self {
        Rect::new(p, p)
    }

    /// An "empty" rectangle that is the identity of [`Rect::union`]: any
    /// union with it returns the other operand. Its extents are inverted
    /// infinities, so it contains nothing.
    pub fn empty() -> Self {
        Rect {
            min: Point::new(f64::INFINITY, f64::INFINITY),
            max: Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        }
    }

    /// `true` for the [`Rect::empty`] identity value.
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y
    }

    /// Width of the rectangle.
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height of the rectangle.
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area (zero for degenerate rectangles, zero for empty).
    pub fn area(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.width() * self.height()
        }
    }

    /// Half-perimeter margin, the tie-break metric of R\*-style splits.
    pub fn margin(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.width() + self.height()
        }
    }

    /// Center point.
    pub fn center(&self) -> Point {
        self.min.midpoint(self.max)
    }

    /// Closed containment: boundary points count as inside.
    pub fn contains(&self, p: Point) -> bool {
        !self.is_empty()
            && p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
    }

    /// Half-open containment `[min, max)`: the quadtree *point membership*
    /// convention. Every point of a subdivided block belongs to exactly
    /// one child.
    pub fn contains_half_open(&self, p: Point) -> bool {
        !self.is_empty()
            && p.x >= self.min.x
            && p.x < self.max.x
            && p.y >= self.min.y
            && p.y < self.max.y
    }

    /// Closed containment of another rectangle.
    pub fn contains_rect(&self, other: &Rect) -> bool {
        other.is_empty()
            || (!self.is_empty()
                && self.min.x <= other.min.x
                && self.min.y <= other.min.y
                && self.max.x >= other.max.x
                && self.max.y >= other.max.y)
    }

    /// Closed overlap test (shared boundary counts as intersecting).
    pub fn intersects(&self, other: &Rect) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.min.x <= other.max.x
            && other.min.x <= self.max.x
            && self.min.y <= other.max.y
            && other.min.y <= self.max.y
    }

    /// Intersection rectangle, or [`Rect::empty`] when disjoint.
    pub fn intersection(&self, other: &Rect) -> Rect {
        if !self.intersects(other) {
            return Rect::empty();
        }
        Rect {
            min: Point::new(self.min.x.max(other.min.x), self.min.y.max(other.min.y)),
            max: Point::new(self.max.x.min(other.max.x), self.max.y.min(other.max.y)),
        }
    }

    /// Area of overlap with `other` (the split-quality metric of paper
    /// Sec. 4.7).
    pub fn overlap_area(&self, other: &Rect) -> f64 {
        self.intersection(other).area()
    }

    /// Smallest rectangle covering both operands. `empty()` is the
    /// identity.
    pub fn union(&self, other: &Rect) -> Rect {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        Rect {
            min: Point::new(self.min.x.min(other.min.x), self.min.y.min(other.min.y)),
            max: Point::new(self.max.x.max(other.max.x), self.max.y.max(other.max.y)),
        }
    }

    /// Grows the rectangle to cover a point.
    pub fn expand_to(&self, p: Point) -> Rect {
        self.union(&Rect::point(p))
    }

    /// The increase in area required to cover `other` — Guttman's
    /// least-enlargement insertion heuristic.
    pub fn enlargement(&self, other: &Rect) -> f64 {
        self.union(other).area() - self.area()
    }

    /// The four equal quadrants of this block, in the order
    /// **NW, NE, SW, SE** (the child order used throughout the quadtree
    /// builds and by [`crate::morton::Quadrant`]).
    pub fn quadrants(&self) -> [Rect; 4] {
        let c = self.center();
        [
            Rect::from_coords(self.min.x, c.y, c.x, self.max.y), // NW
            Rect::from_coords(c.x, c.y, self.max.x, self.max.y), // NE
            Rect::from_coords(self.min.x, self.min.y, c.x, c.y), // SW
            Rect::from_coords(c.x, self.min.y, self.max.x, c.y), // SE
        ]
    }

    /// Quadrant `q` of [`Rect::quadrants`] alone, for a caller that steps
    /// to one child: the same corners, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `q >= 4`.
    pub fn quadrant(&self, q: usize) -> Rect {
        let c = self.center();
        match q {
            0 => Rect::from_coords(self.min.x, c.y, c.x, self.max.y), // NW
            1 => Rect::from_coords(c.x, c.y, self.max.x, self.max.y), // NE
            2 => Rect::from_coords(self.min.x, self.min.y, c.x, c.y), // SW
            3 => Rect::from_coords(c.x, self.min.y, self.max.x, c.y), // SE
            _ => panic!("quadrant {q} of four"),
        }
    }

    /// Minimum squared distance from `p` to this rectangle (zero when
    /// inside); the pruning bound for nearest-neighbour searches.
    pub fn dist2_to_point(&self, p: Point) -> f64 {
        if self.is_empty() {
            return f64::INFINITY;
        }
        let dx = (self.min.x - p.x).max(0.0).max(p.x - self.max.x);
        let dy = (self.min.y - p.y).max(0.0).max(p.y - self.max.y);
        dx * dx + dy * dy
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} – {}]", self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::from_coords(x0, y0, x1, y1)
    }

    #[test]
    fn basic_metrics() {
        let a = r(0.0, 0.0, 4.0, 2.0);
        assert_eq!(a.width(), 4.0);
        assert_eq!(a.height(), 2.0);
        assert_eq!(a.area(), 8.0);
        assert_eq!(a.margin(), 6.0);
        assert_eq!(a.center(), Point::new(2.0, 1.0));
    }

    #[test]
    fn containment_closed_vs_half_open() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        let boundary = Point::new(2.0, 1.0);
        assert!(a.contains(boundary));
        assert!(!a.contains_half_open(boundary));
        let inside = Point::new(0.0, 0.0);
        assert!(a.contains_half_open(inside));
    }

    #[test]
    fn one_quadrant_is_that_quadrant_of_the_four() {
        for a in [r(0.0, 0.0, 8.0, 8.0), r(-3.0, 0.1, 0.7, 5.5)] {
            let quads = a.quadrants();
            for (q, quad) in quads.iter().enumerate() {
                assert_eq!(a.quadrant(q), *quad);
            }
        }
    }

    #[test]
    fn half_open_quadrants_partition_points() {
        let a = r(0.0, 0.0, 8.0, 8.0);
        let quads = a.quadrants();
        // Sample points on a grid; each must be in exactly one quadrant.
        for xi in 0..8 {
            for yi in 0..8 {
                let p = Point::new(xi as f64, yi as f64);
                let n = quads.iter().filter(|q| q.contains_half_open(p)).count();
                assert_eq!(n, 1, "point {p} in {n} quadrants");
            }
        }
    }

    #[test]
    fn quadrant_order_is_nw_ne_sw_se() {
        let a = r(0.0, 0.0, 8.0, 8.0);
        let q = a.quadrants();
        assert_eq!(q[0], r(0.0, 4.0, 4.0, 8.0), "NW");
        assert_eq!(q[1], r(4.0, 4.0, 8.0, 8.0), "NE");
        assert_eq!(q[2], r(0.0, 0.0, 4.0, 4.0), "SW");
        assert_eq!(q[3], r(4.0, 0.0, 8.0, 4.0), "SE");
    }

    #[test]
    fn union_and_intersection() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        let b = r(1.0, 1.0, 3.0, 3.0);
        assert_eq!(a.union(&b), r(0.0, 0.0, 3.0, 3.0));
        assert_eq!(a.intersection(&b), r(1.0, 1.0, 2.0, 2.0));
        assert_eq!(a.overlap_area(&b), 1.0);
        let c = r(5.0, 5.0, 6.0, 6.0);
        assert!(!a.intersects(&c));
        assert!(a.intersection(&c).is_empty());
        assert_eq!(a.overlap_area(&c), 0.0);
    }

    #[test]
    fn empty_is_union_identity() {
        let a = r(1.0, 2.0, 3.0, 4.0);
        let e = Rect::empty();
        assert_eq!(e.union(&a), a);
        assert_eq!(a.union(&e), a);
        assert!(e.is_empty());
        assert_eq!(e.area(), 0.0);
        assert!(!e.contains(Point::new(0.0, 0.0)));
        assert!(a.contains_rect(&e));
    }

    #[test]
    fn shared_boundary_counts_as_intersecting() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(1.0, 0.0, 2.0, 1.0);
        assert!(a.intersects(&b));
        assert_eq!(a.overlap_area(&b), 0.0);
    }

    #[test]
    fn enlargement_metric() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        let inside = r(0.5, 0.5, 1.0, 1.0);
        assert_eq!(a.enlargement(&inside), 0.0);
        let outside = r(0.0, 0.0, 4.0, 2.0);
        assert_eq!(a.enlargement(&outside), 4.0);
    }

    #[test]
    fn distance_to_point() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        assert_eq!(a.dist2_to_point(Point::new(1.0, 1.0)), 0.0);
        assert_eq!(a.dist2_to_point(Point::new(5.0, 1.0)), 9.0);
        assert_eq!(a.dist2_to_point(Point::new(5.0, 6.0)), 25.0);
    }

    #[test]
    #[should_panic(expected = "inverted rectangle")]
    fn inverted_rect_panics() {
        let _ = r(2.0, 0.0, 0.0, 1.0);
    }

    #[test]
    fn point_rect_is_degenerate_not_empty() {
        let p = Rect::point(Point::new(1.0, 1.0));
        assert!(!p.is_empty());
        assert_eq!(p.area(), 0.0);
        assert!(p.contains(Point::new(1.0, 1.0)));
    }
}
