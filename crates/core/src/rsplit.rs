//! R-tree node split selection (paper Sec. 4.7).
//!
//! Two algorithms, both vectorized over *all* overflowing nodes at once:
//!
//! * [`RtreeSplitAlgorithm::Mean`] — the O(1) split: the split axis and
//!   coordinate come from the **means of the bounding-box midpoints**,
//!   computed with a downward addition scan read at the heads (a
//!   segmented reduce), a head division, and an upward copy-scan
//!   broadcast; the axis whose two resulting bounding boxes overlap least
//!   wins.
//! * [`RtreeSplitAlgorithm::Sweep`] — the O(log n) split: entries are
//!   **sorted by the left edge** of their boxes, upward inclusive and
//!   downward exclusive min/max scans give each position the bounding box
//!   of everything before and after it (the `L Bbox` / `R Bbox` rows of
//!   Fig. 29), every *legal* split position (both sides ≥ m) is scored by
//!   overlap, and the minimum wins; ties fall to the smaller total margin
//!   (the paper's perimeter tie-break). The same procedure runs on the
//!   y-axis and the better axis is chosen.
//!
//! The selector returns a per-item class bit (`false` = left group) which
//! the build feeds to the unshuffle primitive, and the bounding boxes of
//! the two groups of every split — for the sweep these are the `L Bbox` /
//! `R Bbox` rows at the winning position, so the build never folds a new
//! node's box from its items.
//!
//! # The sweep's two sorts
//!
//! A sweep is two sorts — the gather orders by `min.x` and by `min.y`,
//! `AxisOrders` — followed by a constant number of scans, permutations
//! and elementwise passes: per axis one pass gathers the sorted boxes'
//! four extent lanes, two fused four-lane scans build the rows, one pass
//! scores every position; the rank and capacity-check lanes behind the
//! legality rule are computed once and serve both axes. The sorts are
//! the O(log n) part, and they are an *input*: [`select_split_classes`]
//! sorts, but a caller that already holds the orders of `(seg, mbrs)`
//! passes them in. The R-tree build does at the leaf level, where it
//! sorts once and keeps both orders sorted through every later split by
//! stable unshuffles (`crate::rtree`, "What a round costs"): a leaf round
//! then issues no sort at all.

use dp_geom::Rect;
use scan_model::ops::Element;
use scan_model::{Direction, FusedOp, Machine, ScanKind, Segments};

/// Which node split selector the R-tree build uses (paper Sec. 4.7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RtreeSplitAlgorithm {
    /// O(1) mean-of-midpoints split (first algorithm of Sec. 4.7).
    Mean,
    /// O(log n) sorted-sweep minimal-overlap split (second algorithm of
    /// Sec. 4.7, used by the paper's build in Sec. 5.3).
    Sweep,
}

/// Per-segment minimum bounding rectangles of the boxes `rect_of` picks
/// from each lane of `data` (`None` leaves a lane out) — the one MBR fold
/// of the build (node boxes of a level from the boxes of the level below,
/// the split groups' extents of the mean selector): one four-lane
/// segmented min/max reduce of the extents (the "small sequence of upward
/// and downward inclusive scan operations" of Sec. 4.7, read at the heads)
/// and a pass that makes one box per segment. A segment with nothing
/// picked comes back [`Rect::empty`].
pub(crate) fn segment_mbrs<A: Element>(
    machine: &Machine,
    seg: &Segments,
    data: &[A],
    rect_of: impl Fn(usize, A) -> Option<Rect> + Sync,
) -> Vec<Rect> {
    let mut mbb: [Vec<f64>; 4] = std::array::from_fn(|_| machine.lease());
    machine.seg_reduce_lanes_into(
        data,
        seg,
        |s, a| {
            rect_of(s, a).map_or(
                [
                    f64::INFINITY,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    f64::NEG_INFINITY,
                ],
                |r| extents(&r),
            )
        },
        EXTENT_OPS,
        &mut mbb,
    );
    machine.note_elementwise();
    let [lo_x, lo_y, hi_x, hi_y] = &mbb;
    let rects = (0..seg.num_segments())
        .map(|s| {
            if lo_x[s] > hi_x[s] || lo_y[s] > hi_y[s] {
                Rect::empty()
            } else {
                Rect::from_coords(lo_x[s], lo_y[s], hi_x[s], hi_y[s])
            }
        })
        .collect();
    for buf in mbb {
        machine.recycle(buf);
    }
    rects
}

/// A box as the four extent lanes `[min.x, min.y, max.x, max.y]`.
fn extents(r: &Rect) -> [f64; 4] {
    [r.min.x, r.min.y, r.max.x, r.max.y]
}

/// The four extent lanes' fold operators: min over the lower edges, max
/// over the upper ones.
const EXTENT_OPS: [FusedOp; 4] = [FusedOp::Min, FusedOp::Min, FusedOp::Max, FusedOp::Max];

/// The four extent lanes paired with their fold operators.
fn extent_lanes(lanes: &[Vec<f64>; 4]) -> [(&[f64], FusedOp); 4] {
    std::array::from_fn(|l| (&lanes[l][..], EXTENT_OPS[l]))
}

/// The minimum number of items each side of a split must receive.
///
/// The paper's legality rule is *proportional*: "each of the two
/// resulting nodes receives at least m/M of the lines being
/// redistributed" (Sec. 4.7). The proportional floor is what makes the
/// build take O(log n) rounds — every split shrinks a node geometrically,
/// never by a constant. For a minimal overflow (`len = M + 1`) it reduces
/// to exactly `m`, matching Guttman's node-level constraint.
pub fn split_floor(len: usize, m_min: usize, max: usize) -> usize {
    m_min.max(len * m_min / (max + 1))
}

/// Computes the per-item split classes for every overflowing segment.
///
/// `seg` groups the items (nodes' children or leaves' lines), `mbrs` are
/// the item bounding rectangles, `overflowing` marks which segments must
/// split, and `(m_min, max)` is the tree order — each side of a split
/// receives at least [`split_floor`] items. Items of non-overflowing
/// segments come back `false` (the subsequent unshuffle leaves them in
/// place).
///
/// # Panics
///
/// Panics if an overflowing segment has fewer than `2 * m_min` items (the
/// build guarantees `len > M >= 2m - 1`).
pub fn select_split_classes(
    machine: &Machine,
    seg: &Segments,
    mbrs: &[Rect],
    overflowing: &[bool],
    m_min: usize,
    max: usize,
    algo: RtreeSplitAlgorithm,
) -> Vec<bool> {
    split_classes(machine, seg, mbrs, overflowing, m_min, max, algo, None).class
}

/// What a selector decided for the overflowing segments of one level.
pub(crate) struct Split {
    /// Per item: `false` = left group.
    pub(crate) class: Vec<bool>,
    /// Per overflowing segment, in order: the MBRs of its left and right
    /// groups — the boxes of the two nodes the split makes.
    pub(crate) halves: Vec<[Rect; 2]>,
}

/// [`select_split_classes`] for the R-tree build, which also wants the new
/// nodes' boxes and may already hold the sweep's axis orders of
/// `(seg, mbrs)` (it carries the leaf level's across rounds); without them
/// the sweep sorts here.
#[allow(clippy::too_many_arguments)]
pub(crate) fn split_classes(
    machine: &Machine,
    seg: &Segments,
    mbrs: &[Rect],
    overflowing: &[bool],
    m_min: usize,
    max: usize,
    algo: RtreeSplitAlgorithm,
    sorted: Option<&AxisOrders>,
) -> Split {
    assert_eq!(seg.num_segments(), overflowing.len());
    assert_eq!(seg.len(), mbrs.len());
    for (s, r) in seg.ranges().enumerate() {
        if overflowing[s] {
            assert!(
                r.len() >= 2 * m_min,
                "segment {s} has {} items, cannot give both sides {m_min}",
                r.len()
            );
        }
    }
    match (algo, sorted) {
        (RtreeSplitAlgorithm::Mean, _) => mean_split(machine, seg, mbrs, overflowing, m_min, max),
        (RtreeSplitAlgorithm::Sweep, Some(orders)) => {
            sweep_split(machine, seg, mbrs, overflowing, m_min, max, orders)
        }
        (RtreeSplitAlgorithm::Sweep, None) => {
            let orders = lower_edge_orders(machine, seg, mbrs);
            sweep_split(machine, seg, mbrs, overflowing, m_min, max, &orders)
        }
    }
}

// ----------------------------------------------------------------------
// Mean split (O(1))
// ----------------------------------------------------------------------

fn mean_split(
    machine: &Machine,
    seg: &Segments,
    mbrs: &[Rect],
    overflowing: &[bool],
    m_min: usize,
    max: usize,
) -> Split {
    let n = seg.len();
    // Downward addition scans sum the midpoints per node (a count lane
    // rides along), read at the head as one segmented reduce; the head
    // divides by the count and broadcasts back with an upward copy scan
    // (Sec. 4.7).
    let mut sums: [Vec<f64>; 3] = std::array::from_fn(|_| machine.lease());
    machine.seg_reduce_lanes_into(
        mbrs,
        seg,
        |_, r| {
            let c = r.center();
            [c.x, c.y, 1.0]
        },
        [FusedOp::Sum; 3],
        &mut sums,
    );
    machine.note_elementwise();
    let mut head_mean_x = vec![0.0f64; n];
    let mut head_mean_y = vec![0.0f64; n];
    for (s, &h) in seg.starts().iter().enumerate() {
        head_mean_x[h] = sums[0][s] / sums[2][s];
        head_mean_y[h] = sums[1][s] / sums[2][s];
    }
    for s in sums {
        machine.recycle(s);
    }
    let mean_x = machine.broadcast_first(&head_mean_x, seg);
    let mean_y = machine.broadcast_first(&head_mean_y, seg);

    // Each item decides its side per axis.
    let side_x: Vec<bool> = machine.zip_map(mbrs, &mean_x, |r, mu| r.center().x >= mu);
    let side_y: Vec<bool> = machine.zip_map(mbrs, &mean_y, |r, mu| r.center().y >= mu);

    // A lane's rank in its node locates it (lane = head + rank), so the
    // per-node folds below can read the per-lane sides; the rank fallback
    // splits by it too.
    let ranks = machine.rank_in_segment(seg);
    let lane = |s: usize, rank: u64| seg.starts()[s] + rank as usize;
    // The boxes of one side's group in every node.
    let group = |side: &[bool], right: bool| {
        segment_mbrs(machine, seg, &ranks, |s, rank| {
            let i = lane(s, rank);
            (side[i] == right).then_some(mbrs[i])
        })
    };

    // Resulting group extents and overlaps per axis.
    let (left_x, right_x) = (group(&side_x, false), group(&side_x, true));
    let (left_y, right_y) = (group(&side_y, false), group(&side_y, true));

    // Side counts per node (legality), one two-lane addition reduce.
    let mut cnts: [Vec<u64>; 2] = std::array::from_fn(|_| machine.lease());
    machine.seg_reduce_lanes_into(
        &ranks,
        seg,
        |s, rank| {
            let i = lane(s, rank);
            [u64::from(side_x[i]), u64::from(side_y[i])]
        },
        [FusedOp::Sum; 2],
        &mut cnts,
    );

    // Per-segment axis choice.
    #[derive(Clone, Copy)]
    enum Choice {
        AxisX,
        AxisY,
        RankFallback,
    }
    machine.note_elementwise();
    let choices: Vec<Choice> = seg
        .ranges()
        .enumerate()
        .map(|(s, r)| {
            if !overflowing[s] {
                return Choice::RankFallback; // unused
            }
            let len = r.len();
            let floor = split_floor(len, m_min, max);
            let legal = |right: u64| right as usize >= floor && len - right as usize >= floor;
            let (lx, ly) = (legal(cnts[0][s]), legal(cnts[1][s]));
            let ov_x = left_x[s].overlap_area(&right_x[s]);
            let ov_y = left_y[s].overlap_area(&right_y[s]);
            match (lx, ly) {
                (true, true) => {
                    if ov_x <= ov_y {
                        Choice::AxisX
                    } else {
                        Choice::AxisY
                    }
                }
                (true, false) => Choice::AxisX,
                (false, true) => Choice::AxisY,
                (false, false) => Choice::RankFallback,
            }
        })
        .collect();

    // Per-item class under the chosen rule. The rank fallback splits the
    // segment at its midpoint in lane order — degenerate data (all
    // midpoints equal) still makes progress.
    machine.note_elementwise();
    let mut class = vec![false; n];
    for (s, r) in seg.ranges().enumerate() {
        if !overflowing[s] {
            continue;
        }
        let half = r.len() / 2;
        for i in r.clone() {
            class[i] = match choices[s] {
                Choice::AxisX => side_x[i],
                Choice::AxisY => side_y[i],
                Choice::RankFallback => (ranks[i] as usize) >= r.len() - half,
            };
        }
    }
    for c in cnts {
        machine.recycle(c);
    }
    // The groups' boxes: one masked fold per side.
    let (left, right) = (group(&class, false), group(&class, true));
    let halves = (0..seg.num_segments())
        .filter(|&s| overflowing[s])
        .map(|s| [left[s], right[s]])
        .collect();
    Split { class, halves }
}

// ----------------------------------------------------------------------
// Sweep split (O(log n), Fig. 29)
// ----------------------------------------------------------------------

/// The two gather orders a sweep reads its boxes through: each segment's
/// items sorted by the lower edge along x (`[0]`) and along y (`[1]`),
/// ties broken by lane.
pub(crate) type AxisOrders = [Vec<usize>; 2];

/// Sorts every segment's boxes by their lower edge along each axis
/// (Fig. 29's `ls:left side` row): the two sorts of a sweep.
pub(crate) fn lower_edge_orders(machine: &Machine, seg: &Segments, mbrs: &[Rect]) -> AxisOrders {
    [
        machine.segmented_sort_perm(seg, mbrs, |a, b| a.min.x.total_cmp(&b.min.x)),
        machine.segmented_sort_perm(seg, mbrs, |a, b| a.min.y.total_cmp(&b.min.y)),
    ]
}

/// The best legal split of one segment along one axis.
struct AxisBest {
    /// `(overlap, margin)` of the split; infinite if no position is legal.
    score: (f64, f64),
    /// The split falls after this position of the axis-sorted order.
    at: usize,
    /// The left and right groups' boxes.
    halves: [Rect; 2],
}

/// The box an extent-lane row set holds at position `i`.
fn row_rect(rows: &[Vec<f64>; 4], i: usize) -> Rect {
    Rect::from_coords(rows[0][i], rows[1][i], rows[2][i], rows[3][i])
}

/// Sweeps one axis and returns the best split of every overflowing
/// segment, in segment order. `rank` and `after` are each position's rank
/// in its segment and the number of positions from it to the segment's
/// end; they do not depend on the axis, so the caller computes them once.
#[allow(clippy::too_many_arguments)]
fn axis_sweep(
    machine: &Machine,
    seg: &Segments,
    mbrs: &[Rect],
    overflowing: &[bool],
    order: &[usize],
    rank: &[u64],
    after: &[u64],
    m_min: usize,
    max: usize,
) -> Vec<AxisBest> {
    // The sorted boxes' four extent lanes: the gather through `order` and
    // the fill are one pass (a permutation and an elementwise op).
    machine.note_permute();
    let mut lanes: [Vec<f64>; 4] = std::array::from_fn(|_| machine.lease());
    machine.fill_lanes_into(seg.len(), |i| extents(&mbrs[order[i]]), &mut lanes);
    // L Bbox: upward inclusive min/max scans (Fig. 29 rows
    // `L Bbox left side` / `L Bbox right side`, extended to full boxes),
    // fused into one four-lane pass. Both rows stay scans, not reduces:
    // every split position reads its own prefix and suffix.
    let mut l: [Vec<f64>; 4] = std::array::from_fn(|_| machine.lease());
    machine.scan_lanes_into(
        &extent_lanes(&lanes),
        seg,
        Direction::Up,
        ScanKind::Inclusive,
        &mut l,
    );
    // R Bbox: downward exclusive scans (Fig. 29's "analogous downward
    // min/max exclusive scans"), likewise fused.
    let mut r: [Vec<f64>; 4] = std::array::from_fn(|_| machine.lease());
    machine.scan_lanes_into(
        &extent_lanes(&lanes),
        seg,
        Direction::Down,
        ScanKind::Exclusive,
        &mut r,
    );

    // Score every split position (split after sorted position i). Both
    // sides of a legal position are non-empty, so its rows hold boxes.
    let mut score: [Vec<f64>; 2] = std::array::from_fn(|_| machine.lease());
    machine.fill_lanes_into(
        seg.len(),
        |i| {
            let k = rank[i] + 1; // left group size
            let right = after[i] - 1;
            let floor = split_floor((k + right) as usize, m_min, max) as u64;
            if k < floor || right < floor {
                return [f64::INFINITY, f64::INFINITY];
            }
            let (lb, rb) = (row_rect(&l, i), row_rect(&r, i));
            [lb.overlap_area(&rb), lb.margin() + rb.margin()]
        },
        &mut score,
    );

    // Per-segment argmin over the legal split positions (a min-reduction;
    // one scan-equivalent). The rows at the winning position are the two
    // new nodes' boxes.
    machine.note_scan();
    let best = seg
        .ranges()
        .zip(overflowing)
        .filter(|(_, &over)| over)
        .map(|(range, _)| {
            let mut best = ((f64::INFINITY, f64::INFINITY), range.start);
            for i in range {
                let sc = (score[0][i], score[1][i]);
                if sc < best.0 {
                    best = (sc, i);
                }
            }
            AxisBest {
                score: best.0,
                at: best.1,
                halves: [row_rect(&l, best.1), row_rect(&r, best.1)],
            }
        })
        .collect();
    for lane in lanes.into_iter().chain(l).chain(r).chain(score) {
        machine.recycle(lane);
    }
    best
}

/// The sweep selector over boxes already sorted along both axes: `orders`
/// must equal [`lower_edge_orders`] of `(seg, mbrs)`, however the caller
/// obtained them.
fn sweep_split(
    machine: &Machine,
    seg: &Segments,
    mbrs: &[Rect],
    overflowing: &[bool],
    m_min: usize,
    max: usize,
    orders: &AxisOrders,
) -> Split {
    let n = seg.len();
    // One rank lane and one capacity-check lane (Fig. 19) per step, shared
    // by both axes; a position's segment length is their sum. The check
    // stays a scan: every position reads its own suffix count.
    let rank = machine.rank_in_segment(seg);
    let after = machine.capacity_check_scan(seg);
    let sweep = |order: &[usize]| {
        axis_sweep(
            machine,
            seg,
            mbrs,
            overflowing,
            order,
            &rank,
            &after,
            m_min,
            max,
        )
    };
    let (best_x, best_y) = (sweep(&orders[0]), sweep(&orders[1]));

    machine.note_permute();
    let mut class = vec![false; n];
    let mut halves = Vec::with_capacity(best_x.len());
    let splitting = seg.ranges().zip(overflowing).filter(|(_, &over)| over);
    for (((range, _), x), y) in splitting.zip(best_x).zip(best_y) {
        debug_assert!(
            x.score.0.is_finite() || y.score.0.is_finite(),
            "an overflowing segment must have a legal split"
        );
        // Minimal overlap wins; ties fall to the smaller margin sum
        // (the paper's perimeter tie-break).
        let (order, best) = if x.score <= y.score {
            (&orders[0], x)
        } else {
            (&orders[1], y)
        };
        // Items sorted up to the chosen position go left.
        for j in range {
            class[order[j]] = j > best.at;
        }
        halves.push(best.halves);
    }
    Split { class, halves }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scan_model::ops::{Max, Min};
    use scan_model::Backend;

    fn machines() -> Vec<Machine> {
        vec![
            Machine::sequential(),
            Machine::new(Backend::Parallel).with_par_threshold(1),
        ]
    }

    fn rects(v: &[(f64, f64, f64, f64)]) -> Vec<Rect> {
        v.iter()
            .map(|&(a, b, c, d)| Rect::from_coords(a, b, c, d))
            .collect()
    }

    /// Paper Fig. 29: four boxes A–D sorted by left x-coordinate, with
    /// ls = [10, 20, 40, 60] and rs = [30, 50, 70, 80]. The L/R bbox scan
    /// rows must reproduce the figure's values exactly.
    #[test]
    fn fig29_sweep_scan_rows() {
        for m in machines() {
            let seg = Segments::single(4);
            let boxes = rects(&[
                (10.0, 0.0, 30.0, 1.0), // A
                (20.0, 0.0, 50.0, 1.0), // B
                (40.0, 0.0, 70.0, 1.0), // C
                (60.0, 0.0, 80.0, 1.0), // D
            ]);
            let ls: Vec<f64> = boxes.iter().map(|r| r.min.x).collect();
            let rs: Vec<f64> = boxes.iter().map(|r| r.max.x).collect();
            // L Bbox left side: upward min inclusive scan on ls.
            let l_left = m.up_scan_seg(&ls, &seg, Min, ScanKind::Inclusive);
            assert_eq!(l_left, vec![10.0, 10.0, 10.0, 10.0]);
            // L Bbox right side: upward max inclusive scan on rs.
            let l_right = m.up_scan_seg(&rs, &seg, Max, ScanKind::Inclusive);
            assert_eq!(l_right, vec![30.0, 50.0, 70.0, 80.0]);
            // R Bbox left side: downward min exclusive scan on ls.
            let r_left = m.scan(&ls, &seg, Min, Direction::Down, ScanKind::Exclusive);
            assert_eq!(r_left[0], 20.0);
            assert_eq!(r_left[1], 40.0); // paper: R Bbox of B starts at C = 40
            assert_eq!(r_left[2], 60.0);
            // R Bbox right side: downward max exclusive scan on rs.
            let r_right = m.scan(&rs, &seg, Max, Direction::Down, ScanKind::Exclusive);
            assert_eq!(r_right[0], 80.0);
            assert_eq!(r_right[1], 80.0); // paper: B's right bbox = [40, 80]
            assert_eq!(r_right[2], 80.0);
        }
    }

    #[test]
    fn sweep_separates_two_clusters() {
        for m in machines() {
            let seg = Segments::single(6);
            // Two clear clusters along x.
            let boxes = rects(&[
                (0.0, 0.0, 1.0, 1.0),
                (50.0, 0.0, 51.0, 1.0),
                (1.0, 1.0, 2.0, 2.0),
                (52.0, 2.0, 53.0, 3.0),
                (2.0, 0.0, 3.0, 1.0),
                (54.0, 0.0, 55.0, 1.0),
            ]);
            let class =
                select_split_classes(&m, &seg, &boxes, &[true], 2, 5, RtreeSplitAlgorithm::Sweep);
            assert_eq!(class, vec![false, true, false, true, false, true]);
        }
    }

    #[test]
    fn mean_separates_two_clusters() {
        for m in machines() {
            let seg = Segments::single(6);
            let boxes = rects(&[
                (0.0, 0.0, 1.0, 1.0),
                (50.0, 0.0, 51.0, 1.0),
                (1.0, 1.0, 2.0, 2.0),
                (52.0, 2.0, 53.0, 3.0),
                (2.0, 0.0, 3.0, 1.0),
                (54.0, 0.0, 55.0, 1.0),
            ]);
            let class =
                select_split_classes(&m, &seg, &boxes, &[true], 2, 5, RtreeSplitAlgorithm::Mean);
            assert_eq!(class, vec![false, true, false, true, false, true]);
        }
    }

    #[test]
    fn mean_fallback_on_identical_boxes() {
        for m in machines() {
            let seg = Segments::single(4);
            let boxes = rects(&[(1.0, 1.0, 2.0, 2.0); 4]);
            let class =
                select_split_classes(&m, &seg, &boxes, &[true], 2, 5, RtreeSplitAlgorithm::Mean);
            let left = class.iter().filter(|&&c| !c).count();
            assert_eq!(left, 2, "rank fallback must split evenly: {class:?}");
        }
    }

    #[test]
    fn sweep_identical_boxes_still_legal() {
        for m in machines() {
            let seg = Segments::single(5);
            let boxes = rects(&[(1.0, 1.0, 2.0, 2.0); 5]);
            let class =
                select_split_classes(&m, &seg, &boxes, &[true], 2, 5, RtreeSplitAlgorithm::Sweep);
            let left = class.iter().filter(|&&c| !c).count();
            assert!((2..=3).contains(&left), "both sides >= m: {class:?}");
        }
    }

    #[test]
    fn non_overflowing_segments_untouched() {
        for m in machines() {
            let seg = Segments::from_lengths(&[3, 4]).unwrap();
            let boxes = rects(&[
                (0.0, 0.0, 1.0, 1.0),
                (5.0, 0.0, 6.0, 1.0),
                (9.0, 0.0, 10.0, 1.0),
                (0.0, 0.0, 1.0, 1.0),
                (5.0, 0.0, 6.0, 1.0),
                (9.0, 0.0, 10.0, 1.0),
                (12.0, 0.0, 13.0, 1.0),
            ]);
            for algo in [RtreeSplitAlgorithm::Mean, RtreeSplitAlgorithm::Sweep] {
                let class = select_split_classes(&m, &seg, &boxes, &[false, true], 2, 5, algo);
                assert_eq!(&class[..3], &[false, false, false], "{algo:?}");
                let left = class[3..].iter().filter(|&&c| !c).count();
                assert!((2..=5 - 2 + 1).contains(&left), "{algo:?}: {class:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot give both sides")]
    fn undersized_overflow_rejected() {
        let m = Machine::sequential();
        let seg = Segments::single(3);
        let boxes = rects(&[(0.0, 0.0, 1.0, 1.0); 3]);
        select_split_classes(&m, &seg, &boxes, &[true], 2, 5, RtreeSplitAlgorithm::Sweep);
    }
}
