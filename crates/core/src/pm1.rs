//! Data-parallel PM₁ quadtree construction (paper Secs. 4.5 and 5.1).
//!
//! The split decision (Sec. 4.5, Figs. 20–22) runs entirely in segmented
//! scans over the line processor set:
//!
//! 1. each lane counts its line's endpoints inside the node (`EPs`: 0, 1
//!    or 2) — one elementwise op, the lane reading its node's block by
//!    segment index rather than from a per-lane copy;
//! 2. downward inclusive `max`/`min` scans give each node the extreme
//!    endpoint counts among its lines (Fig. 20);
//! 3. `max = 2`, or `max = 1 ∧ min = 0` ⇒ **split**;
//! 4. for `max = min = 1` nodes, four more `min`/`max` scans form the
//!    minimum bounding box of the in-node endpoints (Fig. 21); a
//!    degenerate (point) box means all lines share one vertex ⇒ no split,
//!    otherwise split;
//! 5. for `max = min = 0` nodes, the node's line count (Fig. 19 capacity
//!    scan) decides: more than one line ⇒ split (Fig. 22).
//!
//! Every one of those scans is read only at its segment head, so the
//! seven run as one segmented reduce
//! ([`Machine::seg_reduce_lanes_into`]): the paper's op count (seven
//! scans, one elementwise derivation) with one value per node written
//! instead of seven per lane.
//!
//! The build itself (Sec. 5.1) is the generic iterative driver: decide,
//! retire, split — O(log n) rounds of O(1) scans each.

use crate::lineproc::{run_quad_build, LineProcSet};
use crate::quadtree::DpQuadtree;
use dp_geom::{LineSeg, Rect};
use scan_model::{FusedOp, Machine};

/// Per-node outcome of the PM₁ split decision, exposed for tests and the
/// Fig. 20–22 experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pm1Verdict {
    /// `max EPs = 2`: two endpoints of one line in the node (Fig. 20).
    SplitTwoEndpoints,
    /// `max = 1, min = 0`: a vertex plus a passing line (Fig. 20).
    SplitMixed,
    /// `max = min = 1` and the endpoint MBB is not a point (Fig. 21).
    SplitDistinctVertices,
    /// `max = min = 0` and more than one line passes through (Fig. 22).
    SplitNoVertexManyLines,
    /// All lines share a single vertex (degenerate endpoint MBB).
    KeepSharedVertex,
    /// At most one line and no vertex conflicts.
    KeepSimple,
}

impl Pm1Verdict {
    /// Whether the verdict requires subdivision.
    pub fn must_split(self) -> bool {
        matches!(
            self,
            Pm1Verdict::SplitTwoEndpoints
                | Pm1Verdict::SplitMixed
                | Pm1Verdict::SplitDistinctVertices
                | Pm1Verdict::SplitNoVertexManyLines
        )
    }

    /// Classifies one node from the Figs. 20–22 quantities arriving at its
    /// segment head: the extreme per-lane endpoint counts, whether the
    /// in-node endpoint MBB is degenerate (a point), and the node's line
    /// count. This is the single verdict chain shared by [`pm1_verdicts`]
    /// and its seven-scan oracle
    /// ([`crate::baseline::pm1_verdicts_unfused`]) — they differ only in
    /// how the quantities are produced, so the two cannot drift.
    pub fn classify(max_eps: i64, min_eps: i64, mbb_degenerate: bool, lines: u64) -> Pm1Verdict {
        if max_eps == 2 {
            Pm1Verdict::SplitTwoEndpoints
        } else if max_eps == 1 && min_eps == 0 {
            Pm1Verdict::SplitMixed
        } else if max_eps == 1 && min_eps == 1 {
            if mbb_degenerate {
                Pm1Verdict::KeepSharedVertex
            } else {
                Pm1Verdict::SplitDistinctVertices
            }
        } else if lines > 1 {
            Pm1Verdict::SplitNoVertexManyLines
        } else {
            Pm1Verdict::KeepSimple
        }
    }
}

/// The PM₁ split decision for every active node, in scan-model ops
/// (Sec. 4.5). Exposed so the figure-level experiments can inspect the
/// per-node verdicts; the build uses [`pm1_decision`].
///
/// This is the **fused** form: the seven per-lane quantities of Figs.
/// 20–22 (the endpoint count twice, four MBB extents, a one for the
/// count) are mapped and folded per node in one
/// [`Machine::seg_reduce_lanes_into`] pass — a lane reads its block from
/// its node, and each node gets the seven values its downward scans would
/// leave at its head, with no per-lane vector in between. The endpoint
/// counts and line counts are carried as `f64` lanes — their values are
/// small integers, exact in `f64` — so every lane shares one element
/// type. Verdicts are bit-identical to the original seven-scan
/// composition kept as [`crate::baseline::pm1_verdicts_unfused`]
/// (asserted by the fused-complexity differential test).
pub fn pm1_verdicts(machine: &Machine, state: &LineProcSet, segs: &[LineSeg]) -> Vec<Pm1Verdict> {
    let mut nodes: [Vec<f64>; 7] = std::array::from_fn(|_| machine.lease());
    machine.seg_reduce_lanes_into(
        &state.line,
        &state.seg,
        |node, id| {
            let s = &segs[id as usize];
            let r = &state.nodes[node].rect;
            let mut cnt = 0u32;
            let mut bx = (
                f64::INFINITY,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NEG_INFINITY,
            );
            for p in [s.a, s.b] {
                if r.contains(p) {
                    cnt += 1;
                    bx.0 = bx.0.min(p.x);
                    bx.1 = bx.1.min(p.y);
                    bx.2 = bx.2.max(p.x);
                    bx.3 = bx.3.max(p.y);
                }
            }
            let eps = cnt as f64;
            [eps, eps, bx.0, bx.1, bx.2, bx.3, 1.0]
        },
        // Node extremes (Fig. 20), endpoint MBB (Fig. 21) and the
        // capacity count (Fig. 19 / 22).
        [
            FusedOp::Max,
            FusedOp::Min,
            FusedOp::Min,
            FusedOp::Min,
            FusedOp::Max,
            FusedOp::Max,
            FusedOp::Sum,
        ],
        &mut nodes,
    );

    // Elementwise verdict at each node, one elementwise op over the nodes.
    // The values are exact small integers in f64 (EPs ∈ {0,1,2}, counts
    // ≤ n), so the equality tests and conversions below are exact.
    let [max_eps, min_eps, lo_x, lo_y, hi_x, hi_y, lines] = &nodes;
    let mut verdicts = Vec::new();
    machine.fill_lanes_into(
        state.seg.num_segments(),
        |s| {
            let degenerate = lo_x[s] == hi_x[s] && lo_y[s] == hi_y[s];
            [Pm1Verdict::classify(
                max_eps[s] as i64,
                min_eps[s] as i64,
                degenerate,
                lines[s] as u64,
            )]
        },
        std::array::from_mut(&mut verdicts),
    );
    for buf in nodes {
        machine.recycle(buf);
    }
    verdicts
}

/// The boolean split decision used by the build driver.
pub fn pm1_decision(machine: &Machine, state: &LineProcSet, segs: &[LineSeg]) -> Vec<bool> {
    pm1_verdicts(machine, state, segs)
        .into_iter()
        .map(Pm1Verdict::must_split)
        .collect()
}

/// Builds a PM₁ quadtree over `segs` with all lines inserted
/// simultaneously (paper Sec. 5.1).
///
/// `max_depth` bounds subdivision; blocks still invalid there are
/// reported via [`DpQuadtree::truncated`].
///
/// # Panics
///
/// Panics if any segment endpoint lies outside the half-open `world`.
pub fn build_pm1(machine: &Machine, world: Rect, segs: &[LineSeg], max_depth: usize) -> DpQuadtree {
    let mut decide = pm1_decision;
    run_quad_build(machine, world, segs, max_depth, &mut decide)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_geom::Point;
    use scan_model::Backend;

    fn world() -> Rect {
        Rect::from_coords(0.0, 0.0, 8.0, 8.0)
    }

    fn machines() -> Vec<Machine> {
        vec![
            Machine::sequential(),
            Machine::new(Backend::Parallel).with_par_threshold(1),
        ]
    }

    /// Figs. 20–22 worked in miniature: one decision round over four
    /// distinct node situations.
    #[test]
    fn fig20_22_verdicts() {
        for m in machines() {
            // Node layout: we hand-construct a state with four active
            // nodes by running one split of a crafted dataset would be
            // indirect; instead call the decision on four single-node
            // states.
            // Case 1 (paper node 2): a line with both endpoints inside.
            let segs1 = vec![LineSeg::from_coords(1.0, 1.0, 6.0, 6.0)];
            let st1 = LineProcSet::initial(world(), &segs1);
            assert_eq!(
                pm1_verdicts(&m, &st1, &segs1),
                vec![Pm1Verdict::SplitTwoEndpoints]
            );

            // Case 2 (paper node 1): two lines, one endpoint each, at
            // different positions -> split.
            let segs2 = vec![
                LineSeg::from_coords(1.0, 1.0, 6.0, 6.0),
                LineSeg::from_coords(2.0, 1.0, 7.0, 5.0),
            ];
            // Shrink to a state where each line has exactly one endpoint
            // inside: use the SW quadrant as the node.
            let node = world().quadrants()[2]; // [0,4)x[0,4)
            let st2 = LineProcSet {
                line: vec![0, 1],
                seg: scan_model::Segments::single(2),
                nodes: vec![crate::lineproc::ActiveNode {
                    path: dp_geom::NodePath::ROOT.child(dp_geom::Quadrant::SW),
                    rect: node,
                }],
            };
            assert_eq!(
                pm1_verdicts(&m, &st2, &segs2),
                vec![Pm1Verdict::SplitDistinctVertices]
            );

            // Case 3 (paper node 4): all lines share the single in-node
            // vertex -> keep.
            let segs3 = vec![
                LineSeg::from_coords(2.0, 2.0, 6.0, 6.0),
                LineSeg::from_coords(2.0, 2.0, 7.0, 1.0),
            ];
            let st3 = LineProcSet {
                line: vec![0, 1],
                seg: scan_model::Segments::single(2),
                nodes: st2.nodes.clone(),
            };
            assert_eq!(
                pm1_verdicts(&m, &st3, &segs3),
                vec![Pm1Verdict::KeepSharedVertex]
            );

            // Case 4 (paper node 3): no vertices, single passing line ->
            // keep; two passing lines -> split.
            // Endpoints chosen outside the NE block so EPs = 0 for both
            // (the state is hand-built, so the world bound is not
            // enforced here).
            let segs4 = vec![
                LineSeg::from_coords(0.0, 5.0, 9.0, 5.0),
                LineSeg::from_coords(0.0, 6.0, 9.0, 6.0),
            ];
            let node_ne = world().quadrants()[1]; // [4,8)x[4,8)
            let mk = |lines: Vec<u32>| LineProcSet {
                seg: scan_model::Segments::single(lines.len()),
                line: lines,
                nodes: vec![crate::lineproc::ActiveNode {
                    path: dp_geom::NodePath::ROOT.child(dp_geom::Quadrant::NE),
                    rect: node_ne,
                }],
            };
            assert_eq!(
                pm1_verdicts(&m, &mk(vec![0]), &segs4),
                vec![Pm1Verdict::KeepSimple]
            );
            assert_eq!(
                pm1_verdicts(&m, &mk(vec![0, 1]), &segs4),
                vec![Pm1Verdict::SplitNoVertexManyLines]
            );
        }
    }

    #[test]
    fn build_satisfies_pm1_invariant() {
        for m in machines() {
            let segs = vec![
                LineSeg::from_coords(2.0, 5.0, 5.0, 6.0),
                LineSeg::from_coords(5.0, 7.0, 7.0, 3.0),
                LineSeg::from_coords(1.0, 6.0, 0.0, 7.0),
                LineSeg::from_coords(1.0, 6.0, 3.0, 7.0),
                LineSeg::from_coords(0.0, 2.0, 2.0, 1.0),
            ];
            let t = build_pm1(&m, world(), &segs, 8);
            assert_eq!(t.truncated(), 0);
            // Every leaf satisfies the PM1 criterion (checked against the
            // independent sequential implementation's validity predicate).
            t.for_each_leaf(|rect, _, ids| {
                assert!(
                    seq_spatial::pm1::pm1_block_valid(ids, &segs, rect),
                    "invalid PM1 leaf {rect} with {ids:?}"
                );
            });
            // Everything is retrievable.
            assert_eq!(t.window_query(&world(), &segs), vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn empty_and_single_line_builds() {
        for m in machines() {
            let t = build_pm1(&m, world(), &[], 6);
            assert_eq!(t.stats().nodes, 1);
            let segs = vec![LineSeg::from_coords(1.0, 1.0, 6.0, 5.0)];
            let t = build_pm1(&m, world(), &segs, 6);
            assert!(t.rounds() >= 1, "two in-block endpoints force a split");
            assert_eq!(t.truncated(), 0);
            assert_eq!(t.point_query(Point::new(1.0, 1.0)), vec![0]);
        }
    }

    #[test]
    fn close_vertices_need_depth_fig2() {
        for m in machines() {
            let segs = vec![
                LineSeg::from_coords(1.0, 1.0, 6.0, 5.0),
                LineSeg::from_coords(2.0, 1.0, 6.0, 1.0),
            ];
            // Depth 1 cannot separate vertices (1,1) and (2,1).
            let shallow = build_pm1(&m, world(), &segs, 1);
            assert!(shallow.truncated() > 0);
            // Depth 3 (unit blocks) separates them.
            let deep = build_pm1(&m, world(), &segs, 4);
            assert_eq!(deep.truncated(), 0);
            assert!(deep.stats().height >= 3);
        }
    }

    #[test]
    fn backends_build_identical_trees() {
        let segs: Vec<LineSeg> = (0..30)
            .map(|k| {
                let x = (k % 6) as f64;
                let y = ((k * 3) % 7) as f64;
                LineSeg::from_coords(x, y, x + 1.0, y + 1.0)
            })
            .collect();
        let a = build_pm1(&Machine::sequential(), world(), &segs, 8);
        let b = build_pm1(
            &Machine::new(Backend::Parallel).with_par_threshold(1),
            world(),
            &segs,
            8,
        );
        assert_eq!(a.stats(), b.stats());
        assert_eq!(
            a.window_query(&world(), &segs),
            b.window_query(&world(), &segs)
        );
    }
}
