//! The paths the production modules replaced, kept as **oracles and
//! comparison baselines only**. Nothing in `dp-spatial`, `dp-service` or
//! the CLI calls into this module; tests do, by name:
//!
//! * [`pm1_verdicts_unfused`] / [`build_pm1_unfused`] — the PM₁ split
//!   decision as seven independently composed scans, before
//!   [`Machine::scan_lanes`] fused them into one pass. The oracle for
//!   [`crate::pm1::pm1_verdicts`] / [`crate::pm1::build_pm1`]: verdicts
//!   and trees must be bit-identical (`tests/fused_complexity.rs`), and
//!   the difference in `scan_passes` is the fusion's whole effect. Its
//!   trees are what `SnapshotFamily::Pm1Unfused` tags on disk.
//! * [`spatial_join`] / [`try_spatial_join`] — the sequential recursive
//!   co-traversal of two aligned quadtrees. The oracle for
//!   [`crate::join::frontier_join`]: same sorted, deduplicated pair set on
//!   every input (`tests/join_differential.rs`). It touches no
//!   [`Machine`], so it shares no kernel with the path it checks.

use crate::error::SpatialError;
use crate::lineproc::{run_quad_build, LineProcSet};
use crate::pm1::Pm1Verdict;
use crate::quadtree::{DpQuadtree, QtNode};
use crate::SegId;
use dp_geom::{segments_intersect, LineSeg, Rect};
use scan_model::ops::{Max, Min};
use scan_model::{Machine, ScanKind};

/// The original unfused PM₁ decision: seven independent scans composed
/// one at a time, classified by the same [`Pm1Verdict::classify`] chain as
/// the fused form.
pub fn pm1_verdicts_unfused(
    machine: &Machine,
    state: &LineProcSet,
    segs: &[LineSeg],
) -> Vec<Pm1Verdict> {
    let seg = &state.seg;
    // Per-lane endpoint counts (EPs field of Fig. 20). Vertex membership
    // is *closed*: a vertex on a block boundary counts in every touching
    // block, matching Samet's closed-block convention — otherwise two
    // q-edges meeting at a vertex that falls exactly on a block border
    // would render the bordering block unsatisfiable (two vertexless
    // q-edges) at every depth.
    let mut eps: Vec<i64> = Vec::new();
    machine.seg_map_lanes_into(
        &state.line,
        seg,
        |node, id| {
            let r = &state.nodes[node].rect;
            [segs[id as usize].count_endpoints_where(|p| r.contains(p)) as i64]
        },
        std::array::from_mut(&mut eps),
    );
    // Downward inclusive scans: node extremes arrive at the segment head
    // (the "first line in each segment group" of Fig. 20).
    let max_eps = machine.down_scan_seg(&eps, seg, Max, ScanKind::Inclusive);
    let min_eps = machine.down_scan_seg(&eps, seg, Min, ScanKind::Inclusive);

    // Endpoint minimum bounding boxes (Fig. 21): per-lane boxes of the
    // in-node endpoints, combined with four min/max scans. Lanes with no
    // in-node endpoint contribute the empty box (infinite identities).
    let mut lane_boxes: Vec<(f64, f64, f64, f64)> = Vec::new();
    machine.seg_map_lanes_into(
        &state.line,
        seg,
        |node, id| {
            let s = &segs[id as usize];
            let r = &state.nodes[node].rect;
            let mut bx = (
                f64::INFINITY,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NEG_INFINITY,
            );
            for p in [s.a, s.b] {
                if r.contains(p) {
                    bx.0 = bx.0.min(p.x);
                    bx.1 = bx.1.min(p.y);
                    bx.2 = bx.2.max(p.x);
                    bx.3 = bx.3.max(p.y);
                }
            }
            [bx]
        },
        std::array::from_mut(&mut lane_boxes),
    );
    let xs_min: Vec<f64> = machine.map(&lane_boxes, |b| b.0);
    let ys_min: Vec<f64> = machine.map(&lane_boxes, |b| b.1);
    let xs_max: Vec<f64> = machine.map(&lane_boxes, |b| b.2);
    let ys_max: Vec<f64> = machine.map(&lane_boxes, |b| b.3);
    let mbb_min_x = machine.down_scan_seg(&xs_min, seg, Min, ScanKind::Inclusive);
    let mbb_min_y = machine.down_scan_seg(&ys_min, seg, Min, ScanKind::Inclusive);
    let mbb_max_x = machine.down_scan_seg(&xs_max, seg, Max, ScanKind::Inclusive);
    let mbb_max_y = machine.down_scan_seg(&ys_max, seg, Max, ScanKind::Inclusive);

    // Line counts (Fig. 22 / Fig. 19 capacity scan).
    let counts = machine.segment_counts(seg);

    // Elementwise verdict at each node (segment head reads).
    machine.note_elementwise();
    seg.starts()
        .iter()
        .enumerate()
        .map(|(s, &head)| {
            let degenerate =
                mbb_min_x[head] == mbb_max_x[head] && mbb_min_y[head] == mbb_max_y[head];
            Pm1Verdict::classify(max_eps[head], min_eps[head], degenerate, counts[s])
        })
        .collect()
}

/// [`crate::pm1::build_pm1`] driven by [`pm1_verdicts_unfused`]. Builds a
/// tree bit-identical to the fused build; only the machine's op-count
/// profile (scan passes, fused-lane savings) differs.
pub fn build_pm1_unfused(
    machine: &Machine,
    world: Rect,
    segs: &[LineSeg],
    max_depth: usize,
) -> DpQuadtree {
    let mut decide = |m: &Machine, state: &LineProcSet, segs: &[LineSeg]| {
        pm1_verdicts_unfused(m, state, segs)
            .into_iter()
            .map(Pm1Verdict::must_split)
            .collect()
    };
    run_quad_build(machine, world, segs, max_depth, &mut decide)
}

/// All intersecting pairs `(id_a, id_b)` between the segment sets indexed
/// by `a` and `b`, sorted and deduplicated, by sequential recursive
/// co-traversal.
///
/// # Panics
///
/// Panics if the two trees cover different worlds; see
/// [`try_spatial_join`] for the checked variant.
pub fn spatial_join(
    a: &DpQuadtree,
    segs_a: &[LineSeg],
    b: &DpQuadtree,
    segs_b: &[LineSeg],
) -> Vec<(SegId, SegId)> {
    match try_spatial_join(a, segs_a, b, segs_b) {
        Ok(pairs) => pairs,
        Err(e) => panic!("spatial join requires both quadtrees to cover the same world: {e}"),
    }
}

/// Checked [`spatial_join`]: returns [`SpatialError::WorldMismatch`]
/// instead of panicking when the trees cover different worlds.
pub fn try_spatial_join(
    a: &DpQuadtree,
    segs_a: &[LineSeg],
    b: &DpQuadtree,
    segs_b: &[LineSeg],
) -> Result<Vec<(SegId, SegId)>, SpatialError> {
    if a.world() != b.world() {
        return Err(SpatialError::WorldMismatch {
            left: a.world(),
            right: b.world(),
        });
    }
    let mut pairs = Vec::new();
    join_rec(a, 0, b, 0, segs_a, segs_b, &mut pairs);
    pairs.sort_unstable();
    pairs.dedup();
    Ok(pairs)
}

fn join_rec(
    a: &DpQuadtree,
    na: usize,
    b: &DpQuadtree,
    nb: usize,
    segs_a: &[LineSeg],
    segs_b: &[LineSeg],
    out: &mut Vec<(SegId, SegId)>,
) {
    match (a.node(na), b.node(nb)) {
        (QtNode::Leaf { lines: la }, QtNode::Leaf { lines: lb }) => {
            for &ia in la {
                for &ib in lb {
                    if segments_intersect(&segs_a[ia as usize], &segs_b[ib as usize]) {
                        out.push((ia, ib));
                    }
                }
            }
        }
        (QtNode::Internal { children }, QtNode::Leaf { lines }) => {
            if lines.is_empty() {
                return;
            }
            for c in children {
                join_rec(a, c, b, nb, segs_a, segs_b, out);
            }
        }
        (QtNode::Leaf { lines }, QtNode::Internal { children }) => {
            if lines.is_empty() {
                return;
            }
            for c in children {
                join_rec(a, na, b, c, segs_a, segs_b, out);
            }
        }
        (QtNode::Internal { children: ca }, QtNode::Internal { children: cb }) => {
            for q in 0..4 {
                join_rec(a, ca[q], b, cb[q], segs_a, segs_b, out);
            }
        }
    }
}
