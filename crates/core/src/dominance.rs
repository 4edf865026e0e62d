//! Dominance/skyline aggregation over point sets — ROADMAP item 4(a),
//! after Sroka & Tyszkiewicz (PAPERS.md): aggregation over dominated
//! points falls out of exactly the primitives this repo already has —
//! sort, segmented scan, zip, and the variable-arity flat-map
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
//! * [`dominance_agg`] — a bottom-up CDQ-style merge: after one global
//!   sort by `(x asc, points-before-queries)`, round `k` pairs adjacent
//!   index ranges of length `2^k` and lets the left half's *points*
//!   contribute to the right half's *queries* through one per-pair
//!   `y`-sort and one 3-lane fused segmented scan (`Sum` count, `Sum`
//!   weight, `Max` weight). Each (point, query) pair with the point at
//!   or below-left of the query meets exactly once — at the round of the
//!   highest differing bit of their sorted positions — so `ceil(log2 n)`
//!   rounds of O(1) primitives each cover every dominated pair exactly
//!   once. Every round records a [`scan_model::RoundTrace`] and checks
//!   [`FaultSite::SkylineAbort`], so the crash harness can kill a build
//!   at any round boundary.
//! * [`Staircase`] — the servable per-shard structure: the skyline
//!   frozen in `x`-ascending order (its `y` lane is then non-increasing,
//!   which is what makes it a staircase) with prefix count/weight
//!   tables. The staircase points dominated by a query form one
//!   contiguous run (an `x <= q.x` prefix intersected with a `y <= q.y`
//!   suffix of it), so count and weight-sum answer in O(log n) binary
//!   searches; max-weight scans the run (documented trade-off — a
//!   sparse-table would buy O(1) at 2× memory, not yet needed at
//!   skyline sizes).

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
/// Mechanics: points and queries are merged into one lane set sorted by
/// `(x asc, points-before-queries)`. Round `k` pairs adjacent sorted
/// ranges of length `2^k`; within each pair the *left* half's points
/// contribute and the *right* half's queries receive, which covers each
/// (point at-or-left-of query) pair exactly once across `ceil(log2 n)`
/// rounds — the pair meets at the round of the highest differing bit of
/// their sorted positions, left/right halves resolved by that bit. One
/// per-pair `y`-sort (points before queries on ties, encoding the closed
/// `y <= q.y` bound) and one 3-lane fused inclusive scan (`Sum` count,
/// `Sum` weight, `Max` weight) deliver each query its round's
/// contribution; accumulators are masked to receiver lanes so left-half
/// query slots stay intact for later rounds. O(1) primitives per round;
/// every round checks [`FaultSite::SkylineAbort`], bumps the machine's
/// round counter and records a [`scan_model::RoundTrace`].
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
    let n = points.len() + n_q;
    let all = Segments::single(n);

    // Merged SoA lanes: kind 0 = point, 1 = query (the sort tie-break
    // that encodes the closed x bound), qidx maps a query lane back to
    // its slot in the caller's order.
    let mut xs: Vec<f64> = Vec::with_capacity(n);
    let mut ys: Vec<f64> = Vec::with_capacity(n);
    let mut kind: Vec<u64> = Vec::with_capacity(n);
    let mut ws: Vec<u64> = Vec::with_capacity(n);
    let mut qidx: Vec<u64> = Vec::with_capacity(n);
    machine.note_elementwise();
    for p in points {
        xs.push(p.x);
        ys.push(p.y);
        kind.push(0);
        ws.push(p.w);
        qidx.push(0);
    }
    for (qi, &(qx, qy)) in queries.iter().enumerate() {
        xs.push(qx);
        ys.push(qy);
        kind.push(1);
        ws.push(0);
        qidx.push(qi as u64);
    }

    // Global sort: x ascending, points before queries on equal x (the
    // closed `p.x <= q.x` bound), stable.
    let keys: Vec<(f64, u64)> = machine.zip_map(&xs, &kind, |x, k| (x, k));
    let order = machine.segmented_sort_perm(&all, &keys, |a, b| {
        a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1))
    });
    let ys_s = machine.gather(&ys, &order);
    let kind_s = machine.gather(&kind, &order);
    let ws_s = machine.gather(&ws, &order);
    let qidx_s = machine.gather(&qidx, &order);

    // Per-lane sorted position, used to derive the pair/half masks each
    // round with one elementwise op (a power-of-two L makes "left half
    // of my pair" the single bit test `i & L == 0`).
    let pos = machine.rank_in_segment(&all);
    // y-sort keys, fixed across rounds: y ascending, points before
    // queries on ties (the closed `p.y <= q.y` bound).
    let ykeys: Vec<(f64, u64)> = machine.zip_map(&ys_s, &kind_s, |y, k| (y, k));

    let mut acc_cnt = vec![0u64; n];
    let mut acc_sum = vec![0u64; n];
    let mut acc_max = vec![0u64; n];

    let mut l = 1usize;
    while l < n {
        machine.check_fault(FaultSite::SkylineAbort);
        let started = Instant::now();
        let before = machine.stats();
        let lbit = l as u64;

        // Pair segments of length 2L (the final pair may be partial).
        let pair_flags = machine.map(&pos, |i| i % (2 * lbit) == 0);
        let pairs = Segments::from_flags(pair_flags).expect("pair flags start at lane 0");

        // Contribution lanes: left-half points carry (weight, 1); all
        // other lanes carry the scan identities.
        let in_left = machine.map(&pos, |i| u64::from(i & lbit == 0));
        let contrib = machine.zip_map(&in_left, &kind_s, |lft, k| lft * (1 - k));
        let cw = machine.zip_map(&contrib, &ws_s, |c, w| c * w);

        // Per-pair y-sort, then one fused 3-lane inclusive scan: each
        // lane sees count / weight-sum / weight-max over contributions
        // with y at-or-below its own (ties resolved points-first by the
        // sort keys).
        let order_y = machine.segmented_sort_perm(&pairs, &ykeys, |a, b| {
            a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1))
        });
        let cw_y = machine.gather(&cw, &order_y);
        let cc_y = machine.gather(&contrib, &order_y);
        let scans = machine.scan_lanes(
            &[
                (&cw_y, FusedOp::Sum),
                (&cc_y, FusedOp::Sum),
                (&cw_y, FusedOp::Max),
            ],
            &pairs,
            Direction::Up,
            ScanKind::Inclusive,
        );
        // Scatter the scan results back to sorted-x positions.
        let sum_b = machine.permute(&scans[0], &order_y);
        let cnt_b = machine.permute(&scans[1], &order_y);
        let max_b = machine.permute(&scans[2], &order_y);

        // Only right-half queries receive this round. The mask is not
        // optional: left-half query lanes are receivers of *other*
        // rounds, and an unmasked accumulate would corrupt them.
        let recv = machine.zip_map(&in_left, &kind_s, |lft, k| (1 - lft) * k);
        let m_sum = machine.zip_map(&sum_b, &recv, |v, r| v * r);
        let m_cnt = machine.zip_map(&cnt_b, &recv, |v, r| v * r);
        let m_max = machine.zip_map(&max_b, &recv, |v, r| v * r);
        machine.zip_map_in_place(&mut acc_sum, &m_sum, |a, d| a + d);
        machine.zip_map_in_place(&mut acc_cnt, &m_cnt, |a, d| a + d);
        machine.zip_map_in_place(&mut acc_max, &m_max, |a, d| a.max(d));

        machine.bump_rounds();
        machine.record_round_trace(machine.round_trace_since(
            &before,
            started,
            l.trailing_zeros() as usize,
            n,
            pairs.num_segments(),
            0,
        ));
        l *= 2;
    }

    // Extraction: route each query lane's accumulators back to the
    // caller's query order (one permutation-shaped pass).
    machine.note_permute();
    let mut out = vec![DomAgg::default(); n_q];
    for i in 0..n {
        if kind_s[i] == 1 {
            out[qidx_s[i] as usize] = DomAgg {
                count: acc_cnt[i],
                sum: acc_sum[i],
                max: acc_max[i],
            };
        }
    }
    out
}

/// The skyline frozen as a servable staircase: points in `x`-ascending
/// order with `y` non-increasing, plus prefix count/weight tables.
///
/// The staircase points dominated by a query `(qx, qy)` are exactly one
/// contiguous run: the `x <= qx` prefix intersected with the `y <= qy`
/// suffix of that prefix (non-increasing `y` makes the second filter a
/// suffix). [`Staircase::agg`] therefore answers count and weight-sum
/// with two binary searches and prefix-table lookups; max-weight scans
/// the run.
#[derive(Debug, Clone, PartialEq)]
pub struct Staircase {
    ids: Vec<SegId>,
    xs: Vec<f64>,
    ys: Vec<f64>,
    ws: Vec<u64>,
    /// `pre_sum[i]` = sum of `ws[..i]`.
    pre_sum: Vec<u64>,
}

impl Staircase {
    /// Builds the staircase of `points`: runs [`skyline`] on the given
    /// machine, then freezes the survivors in `x`-ascending order.
    pub fn build(machine: &Machine, points: &[DomPoint]) -> Staircase {
        let sky = skyline(machine, points);
        // skyline returns x-descending pipeline order; reverse to
        // ascending. Duplicate-coordinate survivors stay adjacent.
        let by_id: std::collections::HashMap<SegId, &DomPoint> =
            points.iter().map(|p| (p.id, p)).collect();
        let mut ids: Vec<SegId> = sky;
        ids.reverse();
        let xs: Vec<f64> = ids.iter().map(|id| by_id[id].x).collect();
        let ys: Vec<f64> = ids.iter().map(|id| by_id[id].y).collect();
        let ws: Vec<u64> = ids.iter().map(|id| by_id[id].w).collect();
        let mut pre_sum = Vec::with_capacity(ids.len() + 1);
        pre_sum.push(0);
        for (i, &w) in ws.iter().enumerate() {
            pre_sum.push(pre_sum[i] + w);
        }
        Staircase {
            ids,
            xs,
            ys,
            ws,
            pre_sum,
        }
    }

    /// Number of staircase steps (skyline points).
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when the staircase has no steps.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Skyline ids in `x`-ascending staircase order.
    pub fn ids(&self) -> &[SegId] {
        &self.ids
    }

    /// The contiguous index run of staircase points dominated by
    /// `(qx, qy)` (closed quadrant).
    pub fn dominated_run(&self, qx: f64, qy: f64) -> std::ops::Range<usize> {
        // x <= qx is a prefix of the x-ascending order.
        let hi = self.xs.partition_point(|&x| x <= qx);
        // Within it, y <= qy is a suffix (ys non-increasing).
        let lo = self.ys[..hi].partition_point(|&y| y > qy);
        lo..hi
    }

    /// Aggregates over the staircase points dominated by `(qx, qy)`:
    /// count and sum in O(log n), max by scanning the run.
    pub fn agg(&self, qx: f64, qy: f64) -> DomAgg {
        let run = self.dominated_run(qx, qy);
        DomAgg {
            count: (run.end - run.start) as u64,
            sum: self.pre_sum[run.end] - self.pre_sum[run.start],
            max: self.ws[run.clone()].iter().copied().max().unwrap_or(0),
        }
    }

    /// Whether `(x, y)` is dominated by (or coincides with) some
    /// staircase point — i.e. whether it would be redundant against this
    /// skyline. The best candidate is the leftmost step with `sx >= x`
    /// (it has the largest `y` among them).
    pub fn covers(&self, x: f64, y: f64) -> bool {
        let i = self.xs.partition_point(|&sx| sx < x);
        i < self.len() && self.ys[i] >= y
    }
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
    fn staircase_agg_matches_run_scan() {
        for m in machines() {
            let pts = [
                pt(0, 0.0, 3.0, 2),
                pt(1, 1.0, 2.0, 9),
                pt(2, 2.0, 1.0, 4),
                pt(3, 0.5, 0.5, 100),
            ];
            let st = Staircase::build(&m, &pts);
            assert_eq!(st.ids(), &[0, 1, 2]);
            // Query dominating steps 1 and 2 but not 0.
            let a = st.agg(2.5, 2.5);
            assert_eq!(
                a,
                DomAgg {
                    count: 2,
                    sum: 13,
                    max: 9
                }
            );
            assert!(st.covers(0.5, 0.5));
            assert!(!st.covers(3.0, 0.5));
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
        // n = 128 lanes -> exactly 7 merge rounds.
        assert_eq!(rounds, 7);
    }
}
