//! Dominance/skyline aggregation over point sets, after Sroka &
//! Tyszkiewicz (PAPERS.md): aggregation over dominated points falls out
//! of exactly the primitives this repo already has — sort, segmented
//! scan, the stable unshuffle, zip, and the variable-arity flat-map
//! ([`scan_model::Machine::flat_map_into`]) that generalizes the paper's
//! cloning kernel.
//!
//! ## Semantics
//!
//! All operators use **closed max-dominance**: point `q` dominates point
//! `p` iff `q.x >= p.x`, `q.y >= p.y`, and the inequality is strict in at
//! least one coordinate. Two points at identical coordinates dominate
//! each other in neither direction (both survive a skyline). The
//! *dominated set* of a query `q` is `{p : p.x <= q.x && p.y <= q.y}` —
//! the closed lower-left quadrant, including points on the boundary and
//! at `q` itself.
//!
//! Coordinates must be finite; the service layer validates requests
//! before they reach this module.
//!
//! ## Pipelines
//!
//! * [`skyline`] — one global sort by `(x desc, y desc)`, one exclusive
//!   unsegmented max-scan of the sorted `y` lane, two broadcast scans
//!   over the equal-`x` groups, and one flat-map compaction of the
//!   surviving ids. O(1) primitives after the sort, on both backends.
//! * [`dominance_agg`] — sort once by x (for ranks) and once by y (for
//!   the order every round works in), then `ceil(log2 n)` top-down
//!   rounds. Each round splits every segment by one bit of the x-rank
//!   with the paper's stable unshuffle (Sec. 4.2), so the halves stay in
//!   y-order without a re-sort; one 3-lane fused inclusive scan (`Sum`
//!   weight, `Sum` count, `Max` weight) lets the left half's *points*
//!   contribute to the right half's *queries*, which add their prefix
//!   into a table indexed by query slot. Each (point, query) pair with
//!   the point at or below-left of the query meets exactly once — at the
//!   round of the highest differing bit of their x-ranks. Every round
//!   records a [`scan_model::RoundTrace`] and checks
//!   [`FaultSite::SkylineAbort`], so the crash harness can kill a build
//!   at any round boundary.

use crate::SegId;
use dp_geom::LineSeg;
use scan_model::ops::Max;
use scan_model::{Direction, FaultSite, FusedOp, Machine, ScanKind, Segments};
use std::time::Instant;

/// One input point for the dominance pipelines: an id the caller can map
/// back to its domain object, coordinates, and a non-negative integer
/// weight (see [`dominance_weight`] for the service's fixed-point
/// segment-length weight).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DomPoint {
    /// Caller-side identifier carried through sorts and compactions.
    pub id: SegId,
    /// X coordinate (must be finite).
    pub x: f64,
    /// Y coordinate (must be finite).
    pub y: f64,
    /// Aggregation weight.
    pub w: u64,
}

/// Aggregates over a dominated point set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DomAgg {
    /// Number of dominated points.
    pub count: u64,
    /// Sum of dominated points' weights.
    pub sum: u64,
    /// Maximum dominated weight (0 when the dominated set is empty).
    pub max: u64,
}

/// The service's canonical point weight: a line segment's length in
/// fixed-point 1/1024 units. Integer weights keep the scan lanes exact
/// (`u64` `Sum`/`Max` are associative bit-for-bit on every backend;
/// float addition would not be reorder-safe under blocked scans).
pub fn dominance_weight(seg: &LineSeg) -> u64 {
    (seg.length() * 1024.0).round() as u64
}

/// Extracts the skyline (maximal points under closed dominance): every
/// point not dominated by any other input point. Returns the surviving
/// ids in pipeline order (`x` descending, ties `y` descending then input
/// order); callers wanting a canonical set order sort the ids.
///
/// Mechanics: one global sort, one exclusive unsegmented `Max` scan of
/// the sorted `y` lane (each lane sees the best `y` among all strictly
/// better-`x` or earlier points), two broadcast scans over the equal-`x`
/// groups (the group head's exclusive value is the best `y` of *strictly
/// greater* `x`; the group max identifies within-group survivors), and
/// one flat-map compaction of the surviving ids — O(1) primitives after
/// the sort.
pub fn skyline(machine: &Machine, points: &[DomPoint]) -> Vec<SegId> {
    machine.check_fault(FaultSite::SkylineAbort);
    let n = points.len();
    if n == 0 {
        return Vec::new();
    }
    let started = Instant::now();
    let before = machine.stats();

    let all = Segments::single(n);
    let xs: Vec<f64> = machine.map_points(points, |p| p.x);
    let ys: Vec<f64> = machine.map_points(points, |p| p.y);
    let ids: Vec<SegId> = machine.map_points(points, |p| p.id);

    // Sort by x descending, y descending, stable.
    let keys: Vec<(f64, f64)> = machine.zip_map(&xs, &ys, |x, y| (x, y));
    let order = machine.segmented_sort_perm(&all, &keys, |a, b| {
        b.0.total_cmp(&a.0).then_with(|| b.1.total_cmp(&a.1))
    });
    let xs_s = machine.gather(&xs, &order);
    let ys_s = machine.gather(&ys, &order);
    let ids_s = machine.gather(&ids, &order);

    // Equal-x group boundaries: lane 0, plus every lane whose x differs
    // from its left neighbour (one elementwise pass over shifted lanes).
    machine.note_elementwise();
    let mut group_flags = vec![true; n];
    for i in 1..n {
        group_flags[i] = xs_s[i] != xs_s[i - 1];
    }
    let groups = Segments::from_flags(group_flags).expect("group flags start at lane 0");

    // ex_all[i] = max y over sorted lanes 0..i (identity -inf at lane 0):
    // at a group head this is the best y among all strictly-greater-x
    // points, which is exactly the closed-dominance threat from outside
    // the group.
    let ex_all = machine.up_scan(&ys_s, Max, ScanKind::Exclusive);
    let head_ex = machine.broadcast_first(&ex_all, &groups);
    // Within a group (equal x), only the group's max-y lanes survive;
    // coordinate duplicates of the max all survive (neither dominates).
    let gmax = machine.broadcast_first(&ys_s, &groups);

    let survive_out = machine.zip_map(&ys_s, &head_ex, |y, t| u64::from(y > t));
    let survive_in = machine.zip_map(&ys_s, &gmax, |y, g| u64::from(y == g));
    let counts: Vec<u32> = machine.zip_map(&survive_out, &survive_in, |a, b| (a * b) as u32);

    // Compact the surviving ids with the generalized flat-map (counts of
    // 0/1 make it the paper's "concentrate").
    let mut out = Vec::new();
    machine.flat_map_into(&all, &ids_s, &counts, |id, _rank| id, &mut out);

    machine.record_round_trace(machine.round_trace_since(
        &before,
        started,
        0,
        n,
        groups.num_segments(),
        0,
    ));
    out
}

/// Computes, for every query point, the [`DomAgg`] aggregates over the
/// input points it dominates (closed lower-left quadrant — boundary
/// points and a point exactly at the query both count). Results align
/// with `queries` by index.
///
/// Mechanics: points and queries are merged into one lane set and
/// sorted twice, once each. The `(x asc, points-before-queries)` sort
/// gives every lane its x-rank; a stable `(y asc, points-before-queries)`
/// sort over the x-sorted lanes then fixes the one y-order every round
/// works in, ties falling back to x-rank. Two lanes ride that order:
/// `code = x_rank << 1 | kind` and the weight (a query lane's weight
/// holds its index in `queries` instead: queries contribute nothing).
///
/// Rounds run top-down over `l = top/2, …, 2, 1`, where `top` is the lane
/// count rounded up to a power of two. Round `l` first splits every live
/// segment by bit `2l` of the x-rank — one stable
/// [`Machine::unshuffle_layout`] (paper Sec. 4.2, Figs. 15–16) applied to
/// both lanes, empty halves dropped — so the segments are the aligned
/// x-rank ranges of length `2l`, each still in y-order. The first round's
/// split is by bit `top`, which no rank has: a no-op charged like the
/// others, so every round spends one primitive tuple. One fill pass then
/// gives left-half (bit `l` clear) points `(w, 1)` and every other lane
/// the identities, one fused 3-lane inclusive scan (`Sum` weight, `Sum`
/// count, `Max` weight) gives each lane its prefix, and right-half
/// queries add their prefix into a table indexed by query slot — a
/// scatter to distinct targets, counted as one permute. No round sorts or
/// gathers.
///
/// Why the aggregates are exactly those of a per-pair re-sort by y:
/// 1. a point–query pair meets in exactly one round, the one whose `l` is
///    the highest bit in which their x-ranks differ: there they share a
///    segment with the lower rank in the left half. The x tie-break puts
///    an equal-x point below the query, so every point with `x <= q.x`
///    has the lower rank.
/// 2. A stable partition of a y-sorted run leaves each half y-sorted with
///    its ties in the same relative order, so after any number of splits
///    each segment is in the `(y, kind, x_rank)` order a per-pair sort
///    would produce.
/// 3. So each query's inclusive prefix covers the same contributions —
///    the left half's points with `y <= q.y`, the kind tie-break putting
///    equal-y points first — and every integer `DomAgg` (order-free `u64`
///    sums and maxima) is unchanged.
///
/// `ceil(log2 n)` rounds; every round checks [`FaultSite::SkylineAbort`],
/// bumps the machine's round counter and records a
/// [`scan_model::RoundTrace`].
pub fn dominance_agg(
    machine: &Machine,
    points: &[DomPoint],
    queries: &[(f64, f64)],
) -> Vec<DomAgg> {
    let n_q = queries.len();
    if n_q == 0 {
        return Vec::new();
    }
    if points.is_empty() {
        return vec![DomAgg::default(); n_q];
    }
    let n_p = points.len();
    let n = n_p + n_q;
    let all = Segments::single(n);

    // Merged lanes, points first. The sort keys pair a coordinate with
    // kind 0 = point, 1 = query: the tie-break that encodes both closed
    // bounds. A query's weight lane holds its index in `queries`.
    machine.note_elementwise();
    let xkeys: Vec<(f64, u64)> = points
        .iter()
        .map(|p| (p.x, 0))
        .chain(queries.iter().map(|q| (q.0, 1)))
        .collect();
    let ykeys: Vec<(f64, u64)> = points
        .iter()
        .map(|p| (p.y, 0))
        .chain(queries.iter().map(|q| (q.1, 1)))
        .collect();
    let wq: Vec<u64> = points.iter().map(|p| p.w).chain(0..n_q as u64).collect();

    // The two sorts: coordinate ascending, points before queries, stable.
    let by_coord = |a: &(f64, u64), b: &(f64, u64)| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1));
    let order_x = machine.segmented_sort_perm(&all, &xkeys, by_coord);
    // Sorting the y-keys in x-order makes a y tie fall back to x-rank,
    // and y-ordered lane `j` then *is* x-rank `order_y[j]`.
    let order_y = machine.segmented_sort_perm(&all, &machine.gather(&ykeys, &order_x), by_coord);
    let src = machine.gather(&order_x, &order_y);
    let mut code = machine.zip_map(&order_y, &src, |r, s| (r as u64) << 1 | u64::from(s >= n_p));
    let mut wts = machine.gather(&wq, &src);

    let mut segs = all;
    let mut class: Vec<bool> = Vec::new();
    let mut contrib: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
    let mut prefix: Vec<Vec<u64>> = vec![Vec::new(); 3];
    let mut out = vec![DomAgg::default(); n_q];
    let top = n.next_power_of_two();
    let mut l = top / 2;
    let mut step = 0;
    while l > 0 {
        machine.check_fault(FaultSite::SkylineAbort);
        let started = Instant::now();
        let before = machine.stats();
        let (split_bit, half_bit) = (2 * l as u64, l as u64);

        // Split every segment at bit 2l of the x-rank, keeping y-order.
        machine.map_into(&code, |c| (c >> 1) & split_bit != 0, &mut class);
        let layout = machine.unshuffle_layout(&segs, &class);
        machine.apply_unshuffle_swap(&mut code, &layout);
        machine.apply_unshuffle_swap(&mut wts, &layout);
        let lengths: Vec<usize> = layout
            .counts
            .iter()
            .flat_map(|&(a, b)| [a, b])
            .filter(|&len| len > 0)
            .collect();
        segs = Segments::from_lengths(&lengths).expect("empty halves are dropped");

        // Left-half points contribute (weight, 1), every other lane the
        // scan identities; a scan, not a segmented reduce, because every
        // lane reads its own prefix.
        machine.fill_lanes_into(
            n,
            |i| {
                let c = code[i];
                if c & 1 == 0 && (c >> 1) & half_bit == 0 {
                    [wts[i], 1]
                } else {
                    [0, 0]
                }
            },
            &mut contrib,
        );
        machine.scan_lanes_into(
            &[
                (&contrib[0], FusedOp::Sum),
                (&contrib[1], FusedOp::Sum),
                (&contrib[0], FusedOp::Max),
            ],
            &segs,
            Direction::Up,
            ScanKind::Inclusive,
            &mut prefix,
        );

        // Right-half queries receive into their slot.
        machine.note_permute();
        for (i, &c) in code.iter().enumerate() {
            if c & 1 == 1 && (c >> 1) & half_bit != 0 {
                let agg = &mut out[wts[i] as usize];
                agg.sum += prefix[0][i];
                agg.count += prefix[1][i];
                agg.max = agg.max.max(prefix[2][i]);
            }
        }

        machine.bump_rounds();
        machine.record_round_trace(machine.round_trace_since(
            &before,
            started,
            step,
            n,
            segs.num_segments(),
            0,
        ));
        step += 1;
        l /= 2;
    }
    out
}

/// Small helper used by the pipelines: an elementwise projection of the
/// (non-`Element`) `DomPoint` AoS into an SoA lane, charged as one
/// elementwise op.
trait MapPoints {
    fn map_points<U, F>(&self, points: &[DomPoint], f: F) -> Vec<U>
    where
        U: scan_model::ops::Element,
        F: Fn(&DomPoint) -> U;
}

impl MapPoints for Machine {
    fn map_points<U, F>(&self, points: &[DomPoint], f: F) -> Vec<U>
    where
        U: scan_model::ops::Element,
        F: Fn(&DomPoint) -> U,
    {
        self.note_elementwise();
        points.iter().map(f).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scan_model::Backend;

    fn machines() -> Vec<Machine> {
        vec![
            Machine::sequential(),
            Machine::new(Backend::Parallel).with_par_threshold(1),
        ]
    }

    fn pt(id: SegId, x: f64, y: f64, w: u64) -> DomPoint {
        DomPoint { id, x, y, w }
    }

    fn sky_sorted(m: &Machine, pts: &[DomPoint]) -> Vec<SegId> {
        let mut s = skyline(m, pts);
        s.sort_unstable();
        s
    }

    #[test]
    fn skyline_basic_shapes() {
        for m in machines() {
            // Empty and single.
            assert!(sky_sorted(&m, &[]).is_empty());
            assert_eq!(sky_sorted(&m, &[pt(7, 1.0, 1.0, 1)]), vec![7]);
            // A 3-step staircase dominating an interior point.
            let pts = [
                pt(0, 0.0, 3.0, 1),
                pt(1, 1.0, 2.0, 1),
                pt(2, 2.0, 1.0, 1),
                pt(3, 0.5, 0.5, 1),
            ];
            assert_eq!(sky_sorted(&m, &pts), vec![0, 1, 2]);
            // Coordinate duplicates: both survive.
            let dup = [pt(0, 1.0, 1.0, 1), pt(1, 1.0, 1.0, 1), pt(2, 0.0, 0.0, 1)];
            assert_eq!(sky_sorted(&m, &dup), vec![0, 1]);
            // Equal x, distinct y: only the max-y lane survives the group.
            let col = [pt(0, 1.0, 1.0, 1), pt(1, 1.0, 2.0, 1)];
            assert_eq!(sky_sorted(&m, &col), vec![1]);
        }
    }

    #[test]
    fn dominance_agg_counts_closed_quadrant() {
        for m in machines() {
            let pts = [
                pt(0, 0.0, 0.0, 5),
                pt(1, 1.0, 1.0, 7),
                pt(2, 2.0, 2.0, 11),
                pt(3, 1.0, 3.0, 13),
            ];
            // Query exactly on point 1: closed quadrant includes it.
            let aggs = dominance_agg(&m, &pts, &[(1.0, 1.0), (2.0, 2.0), (-1.0, -1.0)]);
            assert_eq!(
                aggs[0],
                DomAgg {
                    count: 2,
                    sum: 12,
                    max: 7
                }
            );
            assert_eq!(
                aggs[1],
                DomAgg {
                    count: 3,
                    sum: 23,
                    max: 11
                }
            );
            assert_eq!(aggs[2], DomAgg::default());
        }
    }

    #[test]
    fn dominance_rounds_are_logarithmic() {
        let m = Machine::sequential();
        let pts: Vec<DomPoint> = (0..100)
            .map(|i| pt(i, i as f64, (i * 7 % 100) as f64, 1))
            .collect();
        let queries: Vec<(f64, f64)> = (0..28).map(|i| (i as f64, i as f64)).collect();
        let before_rounds = m.stats().rounds;
        let _ = dominance_agg(&m, &pts, &queries);
        let rounds = m.stats().rounds - before_rounds;
        // n = 128 lanes -> exactly 7 rounds.
        assert_eq!(rounds, 7);
    }
}
