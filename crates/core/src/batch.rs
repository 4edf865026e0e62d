//! Batch (data-parallel) query execution over an assembled quadtree.
//!
//! The paper's primitives exist to support data-parallel *operations*,
//! not just builds — its conclusion points at the companion spatial-join
//! and query papers (\[Hoel94a\], \[Hoel94b\]). This module runs **many
//! window queries simultaneously** in the scan model: the frontier of
//! (query, node) pairs is a flat vector of lanes, and one descent round
//! is
//!
//! 1. retire lanes whose node is a leaf (collect its q-edges), using the
//!    *deletion* primitive (Sec. 4.3) to compact the frontier;
//! 2. expand every remaining lane to its four children with two *cloning*
//!    passes (Sec. 4.1) — each pass doubles the lane adjacently, so rank
//!    arithmetic assigns each copy a distinct quadrant;
//! 3. prune lanes whose child block misses their query window (deletion
//!    again).
//!
//! All queries advance in lockstep; per level the work is O(frontier)
//! with a constant number of primitive operations — the natural
//! object-space parallelization of query processing.

use crate::error::SpatialError;
use crate::quadtree::{DpQuadtree, QtNode};
use crate::SegId;
use dp_geom::Rect;
use scan_model::ops::Sum;
use scan_model::{Machine, ScanKind, Segments};

/// Runs all `queries` against `tree` simultaneously; returns, per query,
/// the deduplicated sorted ids whose segments intersect the query window
/// (exact-geometry filtered, same contract as
/// [`DpQuadtree::window_query`]).
pub fn batch_window_query(
    machine: &Machine,
    tree: &DpQuadtree,
    queries: &[Rect],
    segs: &[dp_geom::LineSeg],
) -> Vec<Vec<SegId>> {
    let candidates = batch_window_candidates(machine, tree, queries);
    machine.note_elementwise();
    candidates
        .into_iter()
        .enumerate()
        .map(|(q, ids)| {
            ids.into_iter()
                .filter(|&id| {
                    dp_geom::clip_segment_closed(&segs[id as usize], &queries[q]).is_some()
                })
                .collect()
        })
        .collect()
}

/// Checked [`batch_window_query`]: rejects any window that reaches
/// outside the tree's world instead of silently clipping it, so
/// misrouted traffic surfaces as [`SpatialError::WindowOutsideWorld`]
/// rather than as quietly-smaller result sets. This is the join's
/// mismatched-world check unified onto the batch query path.
pub fn try_batch_window_query(
    machine: &Machine,
    tree: &DpQuadtree,
    queries: &[Rect],
    segs: &[dp_geom::LineSeg],
) -> Result<Vec<Vec<SegId>>, SpatialError> {
    for (index, window) in queries.iter().enumerate() {
        if !tree.world().contains_rect(window) {
            return Err(SpatialError::WindowOutsideWorld {
                index,
                window: *window,
                world: tree.world(),
            });
        }
    }
    Ok(batch_window_query(machine, tree, queries, segs))
}

/// The candidate phase of [`batch_window_query`]: per query, the
/// deduplicated sorted ids stored in leaves intersecting the window.
pub fn batch_window_candidates(
    machine: &Machine,
    tree: &DpQuadtree,
    queries: &[Rect],
) -> Vec<Vec<SegId>> {
    let mut results: Vec<Vec<SegId>> = vec![Vec::new(); queries.len()];
    if queries.is_empty() {
        return results;
    }

    // Frontier lanes: (query id, node index, node rect).
    let mut lane_query: Vec<u32> = Vec::new();
    let mut lane_node: Vec<u32> = Vec::new();
    let mut lane_rect: Vec<Rect> = Vec::new();
    machine.note_elementwise();
    for (q, window) in queries.iter().enumerate() {
        if tree.world().intersects(window) {
            lane_query.push(q as u32);
            lane_node.push(0);
            lane_rect.push(tree.world());
        }
    }

    while !lane_query.is_empty() {
        let seg = Segments::single(lane_query.len());

        // Retire leaf lanes: their node contents join the result sets.
        let mut at_leaf: Vec<bool> = machine.lease();
        machine.map_into(
            &lane_node,
            |n| matches!(tree.node(n as usize), QtNode::Leaf { .. }),
            &mut at_leaf,
        );
        machine.note_elementwise();
        for i in 0..lane_query.len() {
            if at_leaf[i] {
                if let QtNode::Leaf { lines } = tree.node(lane_node[i] as usize) {
                    results[lane_query[i] as usize].extend_from_slice(lines);
                }
            }
        }
        let keep = machine.delete_layout(&seg, &at_leaf);
        machine.recycle(at_leaf);
        machine.apply_in_place(&mut lane_query, &keep);
        machine.apply_in_place(&mut lane_node, &keep);
        machine.apply_in_place(&mut lane_rect, &keep);
        if lane_query.is_empty() {
            break;
        }

        // Expand to the four children: two adjacent-cloning passes make
        // four adjacent copies of every lane; the copy's rank mod 4 names
        // its quadrant.
        let seg = Segments::single(lane_query.len());
        let mut all: Vec<bool> = machine.lease();
        all.resize(lane_query.len(), true);
        let double = machine.clone_layout(&seg, &all);
        machine.recycle(all);
        machine.apply_in_place(&mut lane_query, &double);
        machine.apply_in_place(&mut lane_node, &double);
        machine.apply_in_place(&mut lane_rect, &double);
        let seg = double.seg;
        let mut all: Vec<bool> = machine.lease();
        all.resize(lane_query.len(), true);
        let quad = machine.clone_layout(&seg, &all);
        machine.recycle(all);
        machine.apply_in_place(&mut lane_query, &quad);
        machine.apply_in_place(&mut lane_node, &quad);
        machine.apply_in_place(&mut lane_rect, &quad);

        // Rank within each 4-group via an unsegmented exclusive scan.
        let mut ones: Vec<u64> = machine.lease();
        ones.resize(lane_query.len(), 1);
        let mut rank: Vec<u64> = machine.lease();
        machine.scan_into(
            &ones,
            &Segments::single(lane_query.len()),
            Sum,
            scan_model::Direction::Up,
            ScanKind::Exclusive,
            &mut rank,
        );
        machine.recycle(ones);

        // Each copy steps to its quadrant child.
        machine.note_elementwise();
        let mut child_node: Vec<u32> = machine.lease();
        child_node.resize(lane_query.len(), 0);
        let mut child_rect: Vec<Rect> = machine.lease();
        child_rect.resize(lane_query.len(), Rect::empty());
        let mut misses: Vec<bool> = machine.lease();
        misses.resize(lane_query.len(), false);
        for i in 0..lane_query.len() {
            let quadrant = (rank[i] % 4) as usize;
            match tree.node(lane_node[i] as usize) {
                QtNode::Internal { children } => {
                    let rects = lane_rect[i].quadrants();
                    child_node[i] = children[quadrant] as u32;
                    child_rect[i] = rects[quadrant];
                    misses[i] = !child_rect[i].intersects(&queries[lane_query[i] as usize]);
                }
                QtNode::Leaf { .. } => unreachable!("leaf lanes were retired"),
            }
        }
        machine.recycle(rank);

        // Prune the copies whose child block misses the window.
        let seg = Segments::single(lane_query.len());
        let keep = machine.delete_layout(&seg, &misses);
        machine.recycle(misses);
        machine.recycle(std::mem::replace(&mut lane_node, child_node));
        machine.recycle(std::mem::replace(&mut lane_rect, child_rect));
        machine.apply_in_place(&mut lane_query, &keep);
        machine.apply_in_place(&mut lane_node, &keep);
        machine.apply_in_place(&mut lane_rect, &keep);

        // One descent level completed: all surviving lanes stepped one
        // node deeper in lockstep, with a constant number of primitives
        // issued above. Recorded so `Machine::stats` exposes the paper's
        // O(tree height) round bound for batch queries, exactly as
        // `run_quad_build` does for builds.
        machine.bump_rounds();
    }

    for ids in &mut results {
        ids.sort_unstable();
        ids.dedup();
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket_pmr::build_bucket_pmr;
    use dp_geom::LineSeg;
    use scan_model::Backend;

    fn world() -> Rect {
        Rect::from_coords(0.0, 0.0, 64.0, 64.0)
    }

    fn machines() -> Vec<Machine> {
        vec![
            Machine::sequential(),
            Machine::new(Backend::Parallel).with_par_threshold(1),
        ]
    }

    fn dataset() -> Vec<LineSeg> {
        (0..60)
            .map(|k| {
                let x = ((k * 13) % 60) as f64;
                let y = ((k * 29) % 60) as f64;
                LineSeg::from_coords(x, y, (x + 3.0).min(63.0), (y + 2.0).min(63.0))
            })
            .collect()
    }

    #[test]
    fn batch_matches_individual_queries() {
        for m in machines() {
            let segs = dataset();
            let tree = build_bucket_pmr(&m, world(), &segs, 4, 8);
            let queries = vec![
                Rect::from_coords(0.0, 0.0, 10.0, 10.0),
                Rect::from_coords(20.0, 20.0, 40.0, 40.0),
                Rect::from_coords(0.0, 0.0, 64.0, 64.0),
                Rect::from_coords(60.0, 60.0, 63.0, 63.0),
                Rect::from_coords(31.0, 0.0, 33.0, 64.0),
            ];
            let batched = batch_window_query(&m, &tree, &queries, &segs);
            for (q, window) in queries.iter().enumerate() {
                assert_eq!(
                    batched[q],
                    tree.window_query(window, &segs),
                    "query {q} {window}"
                );
            }
        }
    }

    #[test]
    fn empty_batch_and_missing_windows() {
        for m in machines() {
            let segs = dataset();
            let tree = build_bucket_pmr(&m, world(), &segs, 4, 8);
            assert!(batch_window_query(&m, &tree, &[], &segs).is_empty());
            // A window fully outside the world yields an empty result.
            let out = batch_window_query(
                &m,
                &tree,
                &[Rect::from_coords(100.0, 100.0, 110.0, 110.0)],
                &segs,
            );
            assert_eq!(out, vec![Vec::<SegId>::new()]);
        }
    }

    #[test]
    fn checked_batch_rejects_out_of_world_windows() {
        use crate::error::SpatialError;
        for m in machines() {
            let segs = dataset();
            let tree = build_bucket_pmr(&m, world(), &segs, 4, 8);
            let inside = Rect::from_coords(1.0, 1.0, 9.0, 9.0);
            let outside = Rect::from_coords(60.0, 60.0, 70.0, 70.0);
            // In-world windows behave exactly like the clipping variant.
            assert_eq!(
                try_batch_window_query(&m, &tree, &[inside], &segs).unwrap(),
                batch_window_query(&m, &tree, &[inside], &segs)
            );
            // The second window reaches outside → a positioned error, not
            // a silently clipped result.
            let err = try_batch_window_query(&m, &tree, &[inside, outside], &segs).unwrap_err();
            assert_eq!(
                err,
                SpatialError::WindowOutsideWorld {
                    index: 1,
                    window: outside,
                    world: world(),
                }
            );
        }
    }

    #[test]
    fn batch_on_single_leaf_tree() {
        for m in machines() {
            let segs = vec![LineSeg::from_coords(1.0, 1.0, 5.0, 5.0)];
            let tree = build_bucket_pmr(&m, world(), &segs, 8, 8);
            let out =
                batch_window_query(&m, &tree, &[Rect::from_coords(0.0, 0.0, 2.0, 2.0)], &segs);
            assert_eq!(out, vec![vec![0]]);
        }
    }

    #[test]
    fn many_queries_lockstep() {
        // Hundreds of queries at once still agree with the sequential
        // answers — the frontier mixes depths across queries.
        for m in machines() {
            let segs = dataset();
            let tree = build_bucket_pmr(&m, world(), &segs, 2, 8);
            let queries: Vec<Rect> = (0..200)
                .map(|k| {
                    let x = ((k * 7) % 56) as f64;
                    let y = ((k * 11) % 56) as f64;
                    Rect::from_coords(x, y, x + 6.0, y + 6.0)
                })
                .collect();
            let batched = batch_window_query(&m, &tree, &queries, &segs);
            for (q, window) in queries.iter().enumerate() {
                assert_eq!(batched[q], tree.window_query(window, &segs), "query {q}");
            }
        }
    }
}
