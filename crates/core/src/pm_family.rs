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
//!   vertex (outside the block). The common-vertex test checks two
//!   candidates — the endpoints of the node's first line — against every
//!   line's own endpoints and ANDs the checks over the node.
//!
//! Every scan here is read only at its node's head, so each decision's
//! scans run as one segmented reduce ([`Machine::seg_reduce_lanes_into`])
//! that writes one value per node; PM₂'s candidates are read from the
//! head lane through the segment starts rather than broadcast to every
//! lane. Both builds reuse the generic driver and two-stage node split,
//! so the family differs *only* in the decision functions below.

use crate::lineproc::{run_quad_build, LineProcSet};
use crate::pm1::{pm1_verdicts, Pm1Verdict};
use crate::quadtree::DpQuadtree;
use dp_geom::{LineSeg, Rect};
use scan_model::{FusedOp, Machine};

/// Per-segment flag: do all lines of the segment share a common endpoint
/// (anywhere in the plane)? Each line checks the head line's two
/// endpoints against its own, and two `u8` lanes AND the checks over the
/// segment (`Min` of 0/1 is AND).
fn segments_share_vertex(machine: &Machine, state: &LineProcSet, segs: &[LineSeg]) -> Vec<bool> {
    let seg = &state.seg;
    let mut all: [Vec<u8>; 2] = std::array::from_fn(|_| machine.lease());
    machine.seg_reduce_lanes_into(
        &state.line,
        seg,
        |node, id| {
            let own = &segs[id as usize];
            let first = &segs[state.line[seg.starts()[node]] as usize];
            let meets = |c| own.a == c || own.b == c;
            [u8::from(meets(first.a)), u8::from(meets(first.b))]
        },
        [FusedOp::Min, FusedOp::Min],
        &mut all,
    );
    machine.note_elementwise();
    let shared = all[0]
        .iter()
        .zip(&all[1])
        .map(|(&a, &b)| a == 1 || b == 1)
        .collect();
    for buf in all {
        machine.recycle(buf);
    }
    shared
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
    // Each lane's box of its in-node endpoints, reading its block from its
    // node, folded into the node's endpoint MBB.
    let mut mbb: [Vec<f64>; 4] = std::array::from_fn(|_| machine.lease());
    machine.seg_reduce_lanes_into(
        &state.line,
        &state.seg,
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
        [FusedOp::Min, FusedOp::Min, FusedOp::Max, FusedOp::Max],
        &mut mbb,
    );
    machine.note_elementwise();
    let [lo_x, lo_y, hi_x, hi_y] = &mbb;
    let split = (0..lo_x.len())
        .map(|s| lo_x[s].is_finite() && (lo_x[s] < hi_x[s] || lo_y[s] < hi_y[s]))
        .collect();
    for buf in mbb {
        machine.recycle(buf);
    }
    split
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
