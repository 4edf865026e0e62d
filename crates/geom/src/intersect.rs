//! Intersection predicates and clipping.
//!
//! The quadtree node split (paper Sec. 4.6) asks, for every line in a
//! splitting node, *does the line intersect the split axis within the
//! node?* — answered here by clipping the segment to each candidate child
//! block and applying the membership convention described in the crate
//! docs. The spatial join and the query surface additionally need the
//! segment–segment intersection test.
//!
//! [`seg_in_block`] is deliberately the plain four-constraint clip with
//! no early-outs. A both-endpoints-inside accept plus a
//! violated-axis-first reorder was tried (exact: 60 M cases, no
//! mismatch) and measured 18 → 12 ns per call on shallow quadtree levels,
//! 23 → 27 ns on deep ones, and nothing on a whole build: which half of
//! a block a deep lane falls in is a coin flip, so the extra branches
//! mispredict. The node split got its speed from *not calling* the clip
//! on lanes the cut constraint alone decides (`dp_spatial::split`,
//! EXPERIMENTS E45), not from a cheaper clip.
//!
//! Where an early accept *does* pay is the window filter,
//! [`seg_meets_rect`]: the candidates of a window query are the q-edges
//! of the leaves the window reaches, and on the serving workloads 84 %
//! of the median window's distinct candidates (97 % over all windows)
//! have an endpoint inside the window — the accept branch is the
//! predictable one, and the filter went 6.4 → 2.9 µs for the median
//! window's 260 candidates (EXPERIMENTS E48). The same test that
//! mispredicts at a coin-flip node split is nearly free when one outcome
//! dominates.

use crate::point::Point;
use crate::rect::Rect;
use crate::segment::LineSeg;

/// Clips `seg` against the **closed** rectangle `rect` (Liang–Barsky).
///
/// Returns the clipped sub-segment, or `None` when the segment misses the
/// rectangle entirely. A degenerate result (both endpoints equal) means
/// the segment touches the rectangle in exactly one point.
pub fn clip_segment_closed(seg: &LineSeg, rect: &Rect) -> Option<LineSeg> {
    if rect.is_empty() {
        return None;
    }
    let d = seg.b - seg.a;
    // Degenerate segment: a point.
    if d.x == 0.0 && d.y == 0.0 {
        return rect.contains(seg.a).then_some(*seg);
    }
    let mut t0 = 0.0f64;
    let mut t1 = 1.0f64;
    // Each boundary contributes p·t <= q.
    let checks = [
        (-d.x, seg.a.x - rect.min.x), // x >= min.x
        (d.x, rect.max.x - seg.a.x),  // x <= max.x
        (-d.y, seg.a.y - rect.min.y), // y >= min.y
        (d.y, rect.max.y - seg.a.y),  // y <= max.y
    ];
    for (p, q) in checks {
        if p == 0.0 {
            if q < 0.0 {
                return None; // parallel and outside
            }
        } else {
            let t = q / p;
            if p < 0.0 {
                if t > t1 {
                    return None;
                }
                if t > t0 {
                    t0 = t;
                }
            } else {
                if t < t0 {
                    return None;
                }
                if t < t1 {
                    t1 = t;
                }
            }
        }
    }
    if t0 > t1 {
        return None;
    }
    let p0 = seg.a + d * t0;
    let p1 = seg.a + d * t1;
    Some(LineSeg::new(p0, p1))
}

/// Does `seg` meet the **closed** rectangle `rect`? Equal to
/// `clip_segment_closed(seg, rect).is_some()` for every input, decided
/// without the clip when an endpoint lies in the rectangle — the exact
/// filter of a window query, whose candidates mostly do.
///
/// The early accept is exact, not approximate. `Rect::contains` is false
/// for an empty rectangle, so that case falls through to the clip (which
/// answers `None`); a zero-length segment is answered by the same
/// `contains(seg.a)` the clip uses. Otherwise let `d = seg.b − seg.a` and
/// take each of the clip's four constraints `p·t ≤ q` as the clip computes
/// it, in `f64`. Rounding is monotone — `x ≤ y` implies `fl(x − z) ≤
/// fl(y − z)` and, for `d > 0`, `fl(x / d) ≤ fl(y / d)` — and `0` and `1`
/// are representable, which is all the argument uses:
///
/// * **`seg.a` inside** — every `q` is `fl(a − min)` or `fl(max − a)` of
///   a coordinate with `min ≤ a ≤ max`, hence `q ≥ 0`. A parallel
///   constraint (`p = 0`) rejects only on `q < 0`. A lower bound (`p < 0`)
///   is `t = fl(q / p) ≤ 0` and an upper bound (`p > 0`) is `t ≥ 0`, so
///   `t0` stays `0`, `t1` never drops below `0`, and neither rejection
///   (`t > t1`, `t < t0`) nor the closing `t0 > t1` can fire: the
///   constraints all hold at `t = 0`.
/// * **`seg.b` inside** — on the x axis with `d.x > 0` the lower bound is
///   `fl(fl(min.x − a.x) / d.x)` where `min.x ≤ b.x` gives
///   `fl(min.x − a.x) ≤ fl(b.x − a.x) = d.x`, a quotient `≤ 1`; the upper
///   bound is `fl(fl(max.x − a.x) / d.x)` with `fl(max.x − a.x) ≥ d.x`, a
///   quotient `≥ 1`. With `d.x < 0` the roles swap, and `d.x = 0` means
///   `a.x = b.x` (a difference of distinct floats is never zero), which is
///   inside. The y axis is the same. Every lower bound is `≤ 1` and every
///   upper bound `≥ 1`, so `t0 ≤ 1 ≤ t1` throughout: the constraints all
///   hold at `t = 1`.
///
/// (A NaN quotient — differences that overflow to infinities — compares
/// false in every rejection, so the clip accepts there too.)
pub fn seg_meets_rect(seg: &LineSeg, rect: &Rect) -> bool {
    rect.contains(seg.a) || rect.contains(seg.b) || clip_segment_closed(seg, rect).is_some()
}

/// Block membership: does `seg` belong to the quadtree block `rect`?
///
/// `true` when the clip of `seg` against the closed block has positive
/// length, or degenerates to a single touch point that lies half-open
/// inside the block (so a vertex sitting exactly on a shared block
/// boundary belongs to exactly one block, while a segment crossing the
/// boundary belongs to both blocks it passes through — the q-edge
/// convention of paper Sec. 1).
pub fn seg_in_block(seg: &LineSeg, rect: &Rect) -> bool {
    match clip_segment_closed(seg, rect) {
        None => false,
        Some(c) => {
            if c.a == c.b {
                rect.contains_half_open(c.a)
            } else {
                true
            }
        }
    }
}

/// Closed segment–segment intersection test, including endpoint touches
/// and collinear overlap.
pub fn segments_intersect(s1: &LineSeg, s2: &LineSeg) -> bool {
    let d1 = s2.a.cross(s2.b, s1.a);
    let d2 = s2.a.cross(s2.b, s1.b);
    let d3 = s1.a.cross(s1.b, s2.a);
    let d4 = s1.a.cross(s1.b, s2.b);

    if ((d1 > 0.0 && d2 < 0.0) || (d1 < 0.0 && d2 > 0.0))
        && ((d3 > 0.0 && d4 < 0.0) || (d3 < 0.0 && d4 > 0.0))
    {
        return true;
    }
    (d1 == 0.0 && on_segment(s2, s1.a))
        || (d2 == 0.0 && on_segment(s2, s1.b))
        || (d3 == 0.0 && on_segment(s1, s2.a))
        || (d4 == 0.0 && on_segment(s1, s2.b))
}

/// Is `p` (already known collinear with `s`) within `s`'s extent?
fn on_segment(s: &LineSeg, p: Point) -> bool {
    p.x >= s.a.x.min(s.b.x)
        && p.x <= s.a.x.max(s.b.x)
        && p.y >= s.a.y.min(s.b.y)
        && p.y <= s.a.y.max(s.b.y)
}

/// Squared distance between two segments (zero if they intersect) — used
/// by distance-based queries.
pub fn seg_seg_dist2(s1: &LineSeg, s2: &LineSeg) -> f64 {
    if segments_intersect(s1, s2) {
        return 0.0;
    }

    s1.dist2_to_point(s2.a)
        .min(s1.dist2_to_point(s2.b))
        .min(s2.dist2_to_point(s1.a))
        .min(s2.dist2_to_point(s1.b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::from_coords(x0, y0, x1, y1)
    }

    fn s(ax: f64, ay: f64, bx: f64, by: f64) -> LineSeg {
        LineSeg::from_coords(ax, ay, bx, by)
    }

    #[test]
    fn clip_fully_inside() {
        let seg = s(1.0, 1.0, 2.0, 2.0);
        let rect = r(0.0, 0.0, 4.0, 4.0);
        assert_eq!(clip_segment_closed(&seg, &rect), Some(seg));
    }

    #[test]
    fn clip_crossing() {
        let seg = s(-2.0, 1.0, 6.0, 1.0);
        let rect = r(0.0, 0.0, 4.0, 4.0);
        let c = clip_segment_closed(&seg, &rect).unwrap();
        assert_eq!(c, s(0.0, 1.0, 4.0, 1.0));
    }

    #[test]
    fn clip_miss() {
        let seg = s(-2.0, -1.0, -1.0, -2.0);
        let rect = r(0.0, 0.0, 4.0, 4.0);
        assert!(clip_segment_closed(&seg, &rect).is_none());
    }

    #[test]
    fn clip_corner_touch_is_degenerate() {
        // Passes exactly through the corner (4, 4).
        let seg = s(3.0, 5.0, 5.0, 3.0);
        let rect = r(0.0, 0.0, 4.0, 4.0);
        let c = clip_segment_closed(&seg, &rect).unwrap();
        assert!(c.is_degenerate());
        assert_eq!(c.a, Point::new(4.0, 4.0));
    }

    #[test]
    fn clip_degenerate_point_segment() {
        let inside = s(1.0, 1.0, 1.0, 1.0);
        let rect = r(0.0, 0.0, 4.0, 4.0);
        assert!(clip_segment_closed(&inside, &rect).is_some());
        let outside = s(9.0, 9.0, 9.0, 9.0);
        assert!(clip_segment_closed(&outside, &rect).is_none());
    }

    #[test]
    fn meets_rect_agrees_with_the_clip() {
        let rect = r(0.0, 0.0, 4.0, 4.0);
        let cases = [
            s(1.0, 1.0, 2.0, 2.0),     // both endpoints inside
            s(1.0, 1.0, 9.0, 9.0),     // first endpoint inside
            s(-3.0, 2.0, 4.0, 4.0),    // second endpoint on a corner
            s(-2.0, 1.0, 6.0, 1.0),    // crosses, no endpoint inside
            s(3.0, 5.0, 5.0, 3.0),     // touches the corner (4, 4)
            s(5.0, 0.0, 5.0, 4.0),     // parallel to an edge, outside
            s(4.0, -1.0, 4.0, 5.0),    // along an edge's line
            s(9.0, 9.0, 9.0, 9.0),     // a point outside
            s(4.0, 0.0, 4.0, 0.0),     // a point on a corner
            s(-2.0, -1.0, -1.0, -2.0), // misses
        ];
        for seg in cases {
            for window in [rect, Rect::point(Point::new(4.0, 4.0)), Rect::empty()] {
                assert_eq!(
                    seg_meets_rect(&seg, &window),
                    clip_segment_closed(&seg, &window).is_some(),
                    "{seg:?} vs {window}"
                );
            }
        }
    }

    #[test]
    fn block_membership_positive_length() {
        let rect = r(0.0, 0.0, 4.0, 4.0);
        assert!(seg_in_block(&s(1.0, 1.0, 2.0, 2.0), &rect));
        assert!(seg_in_block(&s(-2.0, 2.0, 9.0, 2.0), &rect));
        assert!(!seg_in_block(&s(5.0, 5.0, 6.0, 6.0), &rect));
    }

    #[test]
    fn block_membership_boundary_conventions() {
        // Two sibling blocks sharing the edge x = 4.
        let left = r(0.0, 0.0, 4.0, 8.0);
        let right = r(4.0, 0.0, 8.0, 8.0);
        // A segment crossing the shared edge belongs to both blocks.
        let crossing = s(2.0, 2.0, 6.0, 2.0);
        assert!(seg_in_block(&crossing, &left));
        assert!(seg_in_block(&crossing, &right));
        // A segment whose endpoint merely touches the shared edge from the
        // right has positive length only in the right block; its touch
        // point (4, 2) is half-open-inside the right block only.
        let touching = s(4.0, 2.0, 6.0, 2.0);
        let c = clip_segment_closed(&touching, &left).unwrap();
        assert!(c.is_degenerate());
        assert!(!seg_in_block(&touching, &left));
        assert!(seg_in_block(&touching, &right));
        // A segment lying along the shared edge has positive length in
        // both closed blocks and belongs to both.
        let along = s(4.0, 1.0, 4.0, 3.0);
        assert!(seg_in_block(&along, &left));
        assert!(seg_in_block(&along, &right));
    }

    #[test]
    fn membership_vertex_on_corner_belongs_to_one_quadrant() {
        let root = r(0.0, 0.0, 8.0, 8.0);
        let quads = root.quadrants();
        // Segment ending exactly at the center point (4,4).
        let seg = s(4.0, 4.0, 4.5, 4.5);
        let members: Vec<usize> = (0..4).filter(|&q| seg_in_block(&seg, &quads[q])).collect();
        // Positive length only in NE; the touch point at (4,4) is half-open
        // in NE as well, so membership is exactly {NE}.
        assert_eq!(members, vec![1]);
    }

    #[test]
    fn seg_seg_basic_cross() {
        assert!(segments_intersect(
            &s(0.0, 0.0, 4.0, 4.0),
            &s(0.0, 4.0, 4.0, 0.0)
        ));
        assert!(!segments_intersect(
            &s(0.0, 0.0, 1.0, 1.0),
            &s(2.0, 2.0, 3.0, 1.0)
        ));
    }

    #[test]
    fn seg_seg_endpoint_touch() {
        assert!(segments_intersect(
            &s(0.0, 0.0, 2.0, 2.0),
            &s(2.0, 2.0, 4.0, 0.0)
        ));
        // T-junction.
        assert!(segments_intersect(
            &s(0.0, 0.0, 4.0, 0.0),
            &s(2.0, 0.0, 2.0, 3.0)
        ));
    }

    #[test]
    fn seg_seg_collinear() {
        // Overlapping collinear segments intersect.
        assert!(segments_intersect(
            &s(0.0, 0.0, 3.0, 0.0),
            &s(2.0, 0.0, 5.0, 0.0)
        ));
        // Disjoint collinear segments do not.
        assert!(!segments_intersect(
            &s(0.0, 0.0, 1.0, 0.0),
            &s(2.0, 0.0, 3.0, 0.0)
        ));
    }

    #[test]
    fn seg_seg_distance() {
        assert_eq!(
            seg_seg_dist2(&s(0.0, 0.0, 4.0, 4.0), &s(0.0, 4.0, 4.0, 0.0)),
            0.0
        );
        assert_eq!(
            seg_seg_dist2(&s(0.0, 0.0, 2.0, 0.0), &s(0.0, 3.0, 2.0, 3.0)),
            9.0
        );
    }
}
