//! Data-parallel bucket PMR quadtree construction (paper Sec. 5.2).
//!
//! All lines are inserted simultaneously; per round, every node counts its
//! lines with the node capacity check (Sec. 4.4, Fig. 19) and subdivides
//! when the count exceeds the bucket capacity, via the two-stage node
//! split of Sec. 4.6 — cloning for axis-crossing lines, unshuffles to
//! regroup (Figs. 35–38). Subdivision stops at the maximal resolution:
//! such over-capacity max-depth buckets are legal (paper Fig. 38's node 9)
//! and reported through [`DpQuadtree::truncated`].
//!
//! The *bucket* variant is used precisely because its shape is independent
//! of insertion order — the classic PMR split-once rule is nondeterministic
//! under simultaneous insertion (paper Fig. 34).

use crate::lineproc::{run_quad_build, LineProcSet};
use crate::quadtree::DpQuadtree;
use dp_geom::{LineSeg, Rect};
use scan_model::Machine;

/// The bucket PMR split decision: node line count exceeds the capacity
/// (Sec. 4.4's capacity check).
pub fn bucket_pmr_decision(machine: &Machine, state: &LineProcSet, capacity: usize) -> Vec<bool> {
    // The per-round counts buffer is leased from the machine's scratch
    // arena, so repeated decision rounds stop allocating.
    let mut counts: Vec<u64> = machine.lease();
    machine.segment_counts_into(&state.seg, &mut counts);
    machine.note_elementwise();
    let out = counts.iter().map(|&c| c as usize > capacity).collect();
    machine.recycle(counts);
    out
}

/// Builds a bucket PMR quadtree with bucket `capacity` and maximal
/// subdivision depth `max_depth` (paper Sec. 5.2).
///
/// # Panics
///
/// Panics if `capacity == 0` or any segment endpoint lies outside the
/// half-open `world`.
pub fn build_bucket_pmr(
    machine: &Machine,
    world: Rect,
    segs: &[LineSeg],
    capacity: usize,
    max_depth: usize,
) -> DpQuadtree {
    assert!(capacity >= 1, "bucket capacity must be at least 1");
    let mut decide =
        |m: &Machine, st: &LineProcSet, _segs: &[LineSeg]| bucket_pmr_decision(m, st, capacity);
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

    fn bundle() -> Vec<LineSeg> {
        vec![
            LineSeg::from_coords(1.0, 1.0, 6.0, 6.0),
            LineSeg::from_coords(1.0, 6.0, 6.0, 1.0),
            LineSeg::from_coords(1.0, 2.0, 6.0, 2.0),
            LineSeg::from_coords(3.0, 1.0, 3.0, 6.0),
            LineSeg::from_coords(0.0, 7.0, 2.0, 7.0),
        ]
    }

    #[test]
    fn capacity_respected_below_max_depth() {
        for m in machines() {
            let segs = bundle();
            let t = build_bucket_pmr(&m, world(), &segs, 2, 6);
            assert_eq!(t.truncated(), 0);
            t.for_each_leaf(|_, depth, ids| {
                if depth < 6 {
                    assert!(ids.len() <= 2, "bucket over capacity: {ids:?}");
                }
            });
            assert_eq!(t.window_query(&world(), &segs), vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn matches_sequential_bucket_pmr_shape() {
        // The defining property of the bucket PMR quadtree is that bulk
        // and incremental construction agree: the shape depends only on
        // the final segment set. The coincident inputs subdivide to the
        // depth bound wherever they pass — entries grow ≈ 4× per two
        // levels there, so they stay shallow.
        let identical = vec![LineSeg::from_coords(0.5, 1.0, 6.5, 3.0); 4];
        let on_a_cut_line: Vec<LineSeg> = (0..6)
            .map(|k| LineSeg::from_coords(f64::from(k), 4.0, f64::from(k) + 1.5, 4.0))
            .collect();
        let inputs = [(bundle(), 6), (identical, 8), (on_a_cut_line, 8)];
        for m in machines() {
            for (segs, depth) in &inputs {
                let par = build_bucket_pmr(&m, world(), segs, 2, *depth);
                let seq = seq_spatial::bucket_pmr::BucketPmrTree::build(world(), segs, 2, *depth);
                // Compare leaf signatures: (depth, sorted ids, block corner).
                let mut sig_par = Vec::new();
                par.for_each_leaf(|rect, depth, ids| {
                    if !ids.is_empty() {
                        let mut ids = ids.to_vec();
                        ids.sort_unstable();
                        sig_par.push((depth, ids, (rect.min.x.to_bits(), rect.min.y.to_bits())));
                    }
                });
                sig_par.sort();
                let sig_seq: Vec<_> = seq
                    .shape_signature()
                    .into_iter()
                    .filter(|(_, ids, _)| !ids.is_empty())
                    .collect();
                assert_eq!(sig_par, sig_seq, "{segs:?}");
            }
        }
    }

    #[test]
    fn shared_vertex_truncates_at_max_depth_fig4() {
        for m in machines() {
            // Three lines incident on one vertex with capacity 2: the
            // vertex block subdivides to the maximal depth and stays over
            // capacity (paper Fig. 4 / Fig. 38).
            let segs = vec![
                LineSeg::from_coords(1.0, 6.0, 0.0, 7.0),
                LineSeg::from_coords(1.0, 6.0, 3.0, 7.0),
                LineSeg::from_coords(1.0, 6.0, 6.0, 2.0),
            ];
            let t = build_bucket_pmr(&m, world(), &segs, 2, 3);
            assert!(t.truncated() >= 1);
            assert_eq!(t.stats().height, 3);
            let at_vertex = t.point_query(Point::new(1.0, 6.0));
            assert_eq!(at_vertex, vec![0, 1, 2]);
        }
    }

    #[test]
    fn rounds_grow_logarithmically() {
        // Paper Sec. 5.2: O(log n) subdivision stages. The example build
        // over the 5-segment bundle needs at most the max depth.
        for m in machines() {
            let segs = bundle();
            let t = build_bucket_pmr(&m, world(), &segs, 2, 6);
            assert!(t.rounds() >= 2 && t.rounds() <= 6, "rounds {}", t.rounds());
        }
    }

    #[test]
    fn capacity_one_and_large_capacity_edges() {
        for m in machines() {
            let segs = bundle();
            // Huge capacity: nothing splits.
            let t = build_bucket_pmr(&m, world(), &segs, 100, 6);
            assert_eq!(t.stats().nodes, 1);
            assert_eq!(t.rounds(), 0);
            // Capacity 1: every leaf below max depth has at most one line.
            let t1 = build_bucket_pmr(&m, world(), &segs, 1, 6);
            t1.for_each_leaf(|_, depth, ids| {
                if depth < 6 {
                    assert!(ids.len() <= 1);
                }
            });
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn zero_capacity_rejected() {
        build_bucket_pmr(&Machine::sequential(), world(), &[], 0, 4);
    }
}
