//! Data-parallel construction of the other PM-family quadtrees, PM₂ and
//! PM₃ (Samet & Webber). The paper's Section 2.1 presents PM₁, the
//! strictest member; its split-decision machinery (Sec. 4.5) extends to
//! the whole family with two more scan compositions:
//!
//! * **PM₃** needs only the *one-vertex rule*: a node splits exactly when
//!   the minimum bounding box of its in-node endpoints is non-degenerate
//!   (two or more distinct vertex positions) — the same four min/max
//!   scans as Fig. 21.
//! * **PM₂** relaxes PM₁'s vertexless-block rule: several q-edges may
//!   share a vertexless block if they are all incident on one *common*
//!   vertex (outside the block). The common-vertex test is two candidate
//!   broadcasts (the first lane's endpoints, an upward copy-scan) plus
//!   two downward AND-scans — every line checks the candidates against
//!   its own endpoints.
//!
//! Both builds reuse the generic driver and two-stage node split, so the
//! family differs *only* in the decision functions below.

use crate::lineproc::{run_quad_build, LineProcSet};
use crate::pm1::{pm1_verdicts, Pm1Verdict};
use crate::quadtree::DpQuadtree;
use dp_geom::{LineSeg, Rect};
use scan_model::ops::{And, Max, Min};
use scan_model::{Machine, ScanKind};

/// Per-segment flag: do all lines of the segment share a common endpoint
/// (anywhere in the plane)? Computed with the candidate-broadcast + AND
/// scan composition described in the module docs.
fn segments_share_vertex(machine: &Machine, state: &LineProcSet, segs: &[LineSeg]) -> Vec<bool> {
    let seg = &state.seg;
    let n = seg.len();
    if n == 0 {
        return Vec::new();
    }
    // Each lane's own endpoints.
    let own: Vec<(f64, f64, f64, f64)> = machine.map(&state.line, |id| {
        let s = &segs[id as usize];
        (s.a.x, s.a.y, s.b.x, s.b.y)
    });
    // Broadcast the first lane's endpoints to the whole segment: the two
    // shared-vertex candidates.
    let candidates = machine.broadcast_first(&own, seg);
    // Elementwise candidate checks.
    let ok1: Vec<bool> = machine.zip_map(&own, &candidates, |o, c| {
        (o.0 == c.0 && o.1 == c.1) || (o.2 == c.0 && o.3 == c.1)
    });
    let ok2: Vec<bool> = machine.zip_map(&own, &candidates, |o, c| {
        (o.0 == c.2 && o.1 == c.3) || (o.2 == c.2 && o.3 == c.3)
    });
    // Downward AND scans deliver the per-segment verdicts at the heads.
    let all1 = machine.down_scan_seg(&ok1, seg, And, ScanKind::Inclusive);
    let all2 = machine.down_scan_seg(&ok2, seg, And, ScanKind::Inclusive);
    machine.note_elementwise();
    seg.starts().iter().map(|&h| all1[h] || all2[h]).collect()
}

/// The PM₂ split decision: PM₁'s verdicts, except that a vertexless node
/// with several lines is kept when the lines share a common vertex.
pub fn pm2_decision(machine: &Machine, state: &LineProcSet, segs: &[LineSeg]) -> Vec<bool> {
    let verdicts = pm1_verdicts(machine, state, segs);
    let sharing = segments_share_vertex(machine, state, segs);
    machine.note_elementwise();
    verdicts
        .into_iter()
        .zip(sharing)
        .map(|(v, share)| match v {
            Pm1Verdict::SplitNoVertexManyLines => !share,
            other => other.must_split(),
        })
        .collect()
}

/// The PM₃ split decision: split exactly when the node holds two or more
/// distinct vertex positions (non-degenerate endpoint MBB). Closed vertex
/// membership, matching PM₁.
pub fn pm3_decision(machine: &Machine, state: &LineProcSet, segs: &[LineSeg]) -> Vec<bool> {
    let seg = &state.seg;
    // Per-lane box of the in-node endpoints, one extent per lane vector,
    // each lane reading its block from its node.
    let mut extents: [Vec<f64>; 4] = Default::default();
    machine.seg_map_lanes_into(
        &state.line,
        seg,
        |node, id| {
            let s = &segs[id as usize];
            let r = &state.nodes[node].rect;
            let mut bx = [
                f64::INFINITY,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NEG_INFINITY,
            ];
            for p in [s.a, s.b] {
                if r.contains(p) {
                    bx = [
                        bx[0].min(p.x),
                        bx[1].min(p.y),
                        bx[2].max(p.x),
                        bx[3].max(p.y),
                    ];
                }
            }
            bx
        },
        &mut extents,
    );
    let [xs_min, ys_min, xs_max, ys_max] = &extents;
    let lo_x = machine.down_scan_seg(xs_min, seg, Min, ScanKind::Inclusive);
    let lo_y = machine.down_scan_seg(ys_min, seg, Min, ScanKind::Inclusive);
    let hi_x = machine.down_scan_seg(xs_max, seg, Max, ScanKind::Inclusive);
    let hi_y = machine.down_scan_seg(ys_max, seg, Max, ScanKind::Inclusive);
    machine.note_elementwise();
    seg.starts()
        .iter()
        .map(|&h| {
            let any = lo_x[h].is_finite();
            any && (lo_x[h] < hi_x[h] || lo_y[h] < hi_y[h])
        })
        .collect()
}

/// Builds a PM₂ quadtree with all lines inserted simultaneously.
///
/// # Panics
///
/// Panics if any segment endpoint lies outside the half-open `world`.
pub fn build_pm2(machine: &Machine, world: Rect, segs: &[LineSeg], max_depth: usize) -> DpQuadtree {
    let mut decide = pm2_decision;
    run_quad_build(machine, world, segs, max_depth, &mut decide)
}

/// Builds a PM₃ quadtree with all lines inserted simultaneously.
///
/// # Panics
///
/// Panics if any segment endpoint lies outside the half-open `world`.
pub fn build_pm3(machine: &Machine, world: Rect, segs: &[LineSeg], max_depth: usize) -> DpQuadtree {
    let mut decide = pm3_decision;
    run_quad_build(machine, world, segs, max_depth, &mut decide)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pm1::build_pm1;
    use scan_model::Backend;
    use seq_spatial::pm23::{PmTree, PmVariant};

    fn world() -> Rect {
        Rect::from_coords(0.0, 0.0, 8.0, 8.0)
    }

    fn machines() -> Vec<Machine> {
        vec![
            Machine::sequential(),
            Machine::new(Backend::Parallel).with_par_threshold(1),
        ]
    }

    fn datasets() -> Vec<Vec<LineSeg>> {
        vec![
            // Tight fan: PM1 splits vertexless shared blocks, PM2 keeps.
            vec![
                LineSeg::from_coords(0.0, 1.0, 7.0, 1.5),
                LineSeg::from_coords(0.0, 1.0, 7.0, 2.5),
            ],
            // Star.
            vec![
                LineSeg::from_coords(4.5, 4.5, 7.0, 7.0),
                LineSeg::from_coords(4.5, 4.5, 1.0, 7.0),
                LineSeg::from_coords(4.5, 4.5, 4.5, 1.0),
            ],
            // Crossing diagonals (PM3-only friendly).
            vec![
                LineSeg::from_coords(1.0, 1.0, 6.0, 6.0),
                LineSeg::from_coords(1.0, 6.0, 6.0, 1.0),
            ],
            // The paper dataset.
            dp_workloads::paper_dataset(),
        ]
    }

    #[test]
    fn dp_pm2_matches_sequential_shape() {
        for m in machines() {
            for segs in datasets() {
                let dp = build_pm2(&m, world(), &segs, 10);
                let sq = PmTree::build(world(), &segs, PmVariant::Pm2, 10);
                assert_eq!(dp.stats().nodes, sq.stats().nodes, "{segs:?}");
                assert_eq!(dp.stats().entries, sq.stats().entries);
            }
        }
    }

    #[test]
    fn dp_pm3_matches_sequential_shape() {
        for m in machines() {
            for segs in datasets() {
                let dp = build_pm3(&m, world(), &segs, 10);
                let sq = PmTree::build(world(), &segs, PmVariant::Pm3, 10);
                assert_eq!(dp.stats().nodes, sq.stats().nodes, "{segs:?}");
                assert_eq!(dp.stats().entries, sq.stats().entries);
            }
        }
    }

    #[test]
    fn family_strictness_ordering() {
        for m in machines() {
            for segs in datasets() {
                let n1 = build_pm1(&m, world(), &segs, 10).stats().nodes;
                let n2 = build_pm2(&m, world(), &segs, 10).stats().nodes;
                let n3 = build_pm3(&m, world(), &segs, 10).stats().nodes;
                assert!(n1 >= n2, "PM1 {n1} < PM2 {n2}");
                assert!(n2 >= n3, "PM2 {n2} < PM3 {n3}");
            }
        }
    }

    #[test]
    fn pm3_handles_crossings_without_truncation() {
        for m in machines() {
            let segs = vec![
                LineSeg::from_coords(1.0, 1.0, 6.0, 6.0),
                LineSeg::from_coords(1.0, 6.0, 6.0, 1.0),
            ];
            let t3 = build_pm3(&m, world(), &segs, 10);
            assert_eq!(t3.truncated(), 0);
            let t1 = build_pm1(&m, world(), &segs, 10);
            assert!(t1.truncated() > 0);
        }
    }

    #[test]
    fn queries_still_exact() {
        for m in machines() {
            let segs = dp_workloads::paper_dataset();
            for build in [build_pm2, build_pm3] {
                let t = build(&m, world(), &segs, 8);
                assert_eq!(
                    t.window_query(&world(), &segs),
                    (0..9).collect::<Vec<u32>>()
                );
            }
        }
    }

    #[test]
    fn empty_inputs() {
        let m = Machine::sequential();
        assert_eq!(build_pm2(&m, world(), &[], 8).stats().nodes, 1);
        assert_eq!(build_pm3(&m, world(), &[], 8).stats().nodes, 1);
    }
}
