//! Property tests for the geometry kernel: algebraic laws of rectangle
//! arithmetic, clipping/membership coherence on the integer grid, and
//! symmetry of the intersection predicates.

use dp_geom::{
    clip_segment_closed, seg_in_block, seg_meets_rect, segments_intersect, LineSeg, Point, Rect,
};
use proptest::prelude::*;

const W: i32 = 64;

fn points() -> impl Strategy<Value = Point> {
    (0..W, 0..W).prop_map(|(x, y)| Point::new(x as f64, y as f64))
}

fn segs() -> impl Strategy<Value = LineSeg> {
    (points(), points())
        .prop_filter("non-degenerate", |(a, b)| a != b)
        .prop_map(|(a, b)| LineSeg::new(a, b))
}

fn rects() -> impl Strategy<Value = Rect> {
    (0..W - 1, 0..W - 1, 1..W, 1..W).prop_map(|(x, y, w, h)| {
        Rect::from_coords(
            x as f64,
            y as f64,
            (x + w).min(W) as f64,
            (y + h).min(W) as f64,
        )
    })
}

/// The neighbouring `f64` of a finite `x`, one ulp up or down.
fn nudge(x: f64, up: bool) -> f64 {
    if x == 0.0 {
        let tiny = f64::from_bits(1);
        return if up { tiny } else { -tiny };
    }
    let away_from_zero = (x > 0.0) == up;
    let bits = x.to_bits();
    f64::from_bits(if away_from_zero { bits + 1 } else { bits - 1 })
}

/// Windows of every shape the filter can be handed: grid and off-grid
/// boxes, a point, a horizontal and a vertical line, and the empty
/// rectangle.
fn filter_windows() -> impl Strategy<Value = Rect> {
    (0u8..7, 0..W, 0..W, 1..W, 1..W, 0.0f64..1.0, 0.0f64..1.0).prop_map(
        |(kind, x, y, w, h, fx, fy)| {
            let (x, y, w, h) = (x as f64, y as f64, w as f64, h as f64);
            match kind {
                0 => Rect::empty(),
                1 => Rect::point(Point::new(x, y)),
                2 => Rect::from_coords(x, y, x + w, y),
                3 => Rect::from_coords(x, y, x, y + h),
                // Off the grid: corners that are not dyadic.
                4 => Rect::from_coords(x + fx / 3.0, y + fy / 7.0, x + w + fx, y + h + fy),
                _ => Rect::from_coords(x, y, x + w, y + h),
            }
        },
    )
}

/// One coordinate of a segment endpoint, biased to where the early accept
/// and the clip could disagree: on the grid, off it, exactly on the
/// window's low or high edge on that axis, and one ulp to either side of
/// an edge. (Against the empty rectangle the edge kinds are infinite and
/// their nudges NaN; the predicates still have to agree.)
fn coord(kind: u8, grid: i32, frac: f64, lo: f64, hi: f64) -> f64 {
    match kind {
        0 => grid as f64,
        1 => grid as f64 + frac / 3.0,
        2 => lo,
        3 => hi,
        4 => nudge(lo, false),
        5 => nudge(hi, true),
        6 => nudge(lo, true),
        _ => nudge(hi, false),
    }
}

type RawPoint = (u8, u8, i32, i32, f64, f64);

fn raw_points() -> impl Strategy<Value = RawPoint> {
    (
        0u8..8,
        0u8..8,
        -4..W + 4,
        -4..W + 4,
        0.0f64..1.0,
        0.0f64..1.0,
    )
}

fn point_near(window: &Rect, (kx, ky, gx, gy, fx, fy): RawPoint) -> Point {
    Point::new(
        coord(kx, gx, fx, window.min.x, window.max.x),
        coord(ky, gy, fy, window.min.y, window.max.y),
    )
}

proptest! {
    /// The window filter's predicate is the closed clip's verdict, for
    /// grid and off-grid segments and windows, zero-length segments,
    /// point / line / empty windows, endpoints exactly on an edge or a
    /// corner, segments collinear with an edge, and endpoints one ulp
    /// inside or outside an edge.
    #[test]
    fn meets_rect_is_the_closed_clip(
        window in filter_windows(),
        ends in prop::collection::vec((raw_points(), raw_points(), 0u8..8), 1..48),
    ) {
        for (a, b, zero_length) in ends {
            let a = point_near(&window, a);
            let b = if zero_length == 0 { a } else { point_near(&window, b) };
            let seg = LineSeg::new(a, b);
            prop_assert_eq!(
                seg_meets_rect(&seg, &window),
                clip_segment_closed(&seg, &window).is_some(),
                "{:?} vs {}", seg, window
            );
        }
    }

    /// Rectangle algebra: union is commutative and contains both
    /// operands; intersection is contained in both; areas are consistent.
    #[test]
    fn rect_algebra(a in rects(), b in rects()) {
        let u = a.union(&b);
        prop_assert_eq!(u, b.union(&a));
        prop_assert!(u.contains_rect(&a) && u.contains_rect(&b));
        let i = a.intersection(&b);
        prop_assert_eq!(i.area(), b.intersection(&a).area());
        prop_assert!(a.contains_rect(&i) && b.contains_rect(&i));
        prop_assert!(i.area() <= a.area().min(b.area()));
        prop_assert!(u.area() >= a.area().max(b.area()));
        // Inclusion-exclusion lower bound.
        prop_assert!(u.area() + i.area() >= a.area() + b.area() - 1e-9);
    }

    /// Enlargement is non-negative and zero exactly for containment.
    #[test]
    fn enlargement_law(a in rects(), b in rects()) {
        let e = a.enlargement(&b);
        prop_assert!(e >= 0.0);
        if a.contains_rect(&b) {
            prop_assert_eq!(e, 0.0);
        }
        if e == 0.0 {
            prop_assert!(a.contains_rect(&b));
        }
    }

    /// Every grid point belongs to exactly one half-open quadrant of any
    /// power-of-two block containing it.
    #[test]
    fn quadrants_partition_points(p in points()) {
        let world = Rect::from_coords(0.0, 0.0, W as f64, W as f64);
        prop_assert!(world.contains_half_open(p));
        let n = world
            .quadrants()
            .iter()
            .filter(|q| q.contains_half_open(p))
            .count();
        prop_assert_eq!(n, 1);
    }

    /// Clipping: the result lies in the closed rectangle, on the original
    /// segment's line, and clipping is monotone with containment.
    #[test]
    fn clip_properties(s in segs(), r in rects()) {
        if let Some(c) = clip_segment_closed(&s, &r) {
            prop_assert!(r.contains(c.a), "clip start {} outside {r}", c.a);
            prop_assert!(r.contains(c.b), "clip end {} outside {r}", c.b);
            // Collinearity with the original (within f64 rounding of the
            // parametric evaluation).
            let scale = (s.length() * s.length()).max(1.0);
            prop_assert!(s.a.cross(s.b, c.a).abs() <= 1e-7 * scale);
            prop_assert!(s.a.cross(s.b, c.b).abs() <= 1e-7 * scale);
            // Clip against a containing rectangle keeps the segment whole.
            let bigger = r.union(&s.bbox());
            let full = clip_segment_closed(&s, &bigger).unwrap();
            prop_assert_eq!(full, s);
        } else {
            // No clip => the segment's bbox misses the rectangle or the
            // segment passes by: at minimum, neither endpoint is inside.
            prop_assert!(!r.contains(s.a) && !r.contains(s.b));
        }
    }

    /// Block membership is monotone: a member of a child block is a
    /// member of the parent.
    #[test]
    fn membership_monotone(s in segs()) {
        let world = Rect::from_coords(0.0, 0.0, W as f64, W as f64);
        for q in world.quadrants() {
            if seg_in_block(&s, &q) {
                prop_assert!(seg_in_block(&s, &world));
            }
            for qq in q.quadrants() {
                if seg_in_block(&s, &qq) {
                    prop_assert!(seg_in_block(&s, &q));
                }
            }
        }
    }

    /// Every non-degenerate segment inside the world belongs to at least
    /// one quadrant, and to a quadrant only if it truly reaches it.
    #[test]
    fn membership_covers(s in segs()) {
        let world = Rect::from_coords(0.0, 0.0, W as f64, W as f64);
        let members: Vec<Rect> = world
            .quadrants()
            .into_iter()
            .filter(|q| seg_in_block(&s, q))
            .collect();
        prop_assert!(!members.is_empty());
        for q in members {
            prop_assert!(clip_segment_closed(&s, &q).is_some());
        }
    }

    /// Segment intersection is symmetric and reversal-invariant, and a
    /// segment always intersects itself.
    #[test]
    fn seg_intersection_symmetry(s1 in segs(), s2 in segs()) {
        let a = segments_intersect(&s1, &s2);
        prop_assert_eq!(a, segments_intersect(&s2, &s1));
        prop_assert_eq!(a, segments_intersect(&s1.reversed(), &s2));
        prop_assert_eq!(a, segments_intersect(&s1, &s2.reversed()));
        prop_assert!(segments_intersect(&s1, &s1));
    }

    /// If two segments intersect, their bounding boxes intersect.
    #[test]
    fn intersection_implies_bbox_overlap(s1 in segs(), s2 in segs()) {
        if segments_intersect(&s1, &s2) {
            prop_assert!(s1.bbox().intersects(&s2.bbox()));
        }
    }

    /// Distance coherence: the closest point lies on the segment's
    /// bounding box and realizes the reported distance.
    #[test]
    fn closest_point_coherence(s in segs(), p in points()) {
        let c = s.closest_point_to(p);
        prop_assert!(s.bbox().contains(c));
        let d2 = s.dist2_to_point(p);
        prop_assert!((c.dist2(p) - d2).abs() <= 1e-9 * d2.max(1.0));
        // No endpoint is closer than the reported distance.
        prop_assert!(d2 <= s.a.dist2(p) + 1e-9);
        prop_assert!(d2 <= s.b.dist2(p) + 1e-9);
    }
}
