//! Batch (data-parallel) query execution over an assembled quadtree,
//! and the one lockstep descent the crate walks a built tree with.
//!
//! The paper's primitives exist to support data-parallel *operations*,
//! not just builds — its conclusion points at the companion spatial-join
//! and query papers (\[Hoel94a\], \[Hoel94b\]). This module runs **many
//! window queries simultaneously** in the scan model: the frontier of
//! (query, node) pairs is a flat vector of lanes, and one descent level
//! is **one flat-map** (`descend_level`):
//!
//! 1. a lane whose node is a leaf *lands* — its q-edges join the query's
//!    candidates — and has arity 0, so it vanishes from the frontier;
//! 2. a lane over an internal node has arity "how many of its four child
//!    blocks meet the window" (one elementwise map), and
//!    [`Machine::flat_map_into`] lays the copies out — one room-making
//!    scan, one permutation — while its child closure steps copy `r` to
//!    the `r`-th child that meets the window.
//!
//! Children that miss the window are never materialized, so there is
//! nothing to prune afterwards (the cloning of Sec. 4.1 and the deletion
//! of Sec. 4.3 are the arities ≥ 1 and 0 of the same layout). All queries
//! advance in lockstep; per level the work is O(frontier) with a constant
//! number of primitive operations — the natural object-space
//! parallelization of query processing. Insert routing
//! ([`crate::update::batch_update`] phase 3) is the same descent with a
//! different `reaches` predicate.

use crate::error::SpatialError;
use crate::quadtree::{DpQuadtree, QtNode};
use crate::SegId;
use dp_geom::Rect;
use scan_model::{Machine, Segments};

/// One frontier lane of a lockstep descent: `(payload, node index, node
/// block)`. The payload names what is descending — a query, an insert.
pub(crate) type Lane = (u32, u32, Rect);

/// One level of a lockstep descent over `tree`: every leaf lane is handed
/// to `land(payload, node index, leaf lines)` and vanishes; every
/// internal lane fans out to exactly the children `reaches(payload,
/// &child_block)` admits, in quadrant order. Returns whether any lane is
/// left to descend further; a level with nothing but leaf lanes issues no
/// primitive beyond the landing pass.
///
/// Counts no round and checks no fault site — both belong to the caller's
/// loop.
pub(crate) fn descend_level<L, R>(
    machine: &Machine,
    tree: &DpQuadtree,
    lanes: &mut Vec<Lane>,
    mut land: L,
    reaches: R,
) -> bool
where
    L: FnMut(u32, usize, &[SegId]),
    R: Fn(u32, &Rect) -> bool + Sync,
{
    machine.note_elementwise();
    let mut any_internal = false;
    for &(payload, node, _) in lanes.iter() {
        match tree.node(node as usize) {
            QtNode::Leaf { lines } => land(payload, node as usize, lines),
            QtNode::Internal { .. } => any_internal = true,
        }
    }
    if !any_internal {
        lanes.clear();
        return false;
    }

    let mut arity: Vec<u32> = machine.lease();
    machine.map_into(
        lanes,
        |(payload, node, rect)| match tree.node(node as usize) {
            QtNode::Leaf { .. } => 0,
            QtNode::Internal { .. } => {
                let quads = rect.quadrants();
                quads.iter().filter(|q| reaches(payload, q)).count() as u32
            }
        },
        &mut arity,
    );
    let mut next: Vec<Lane> = machine.lease();
    machine.flat_map_into(
        &Segments::single(lanes.len()),
        lanes,
        &arity,
        |(payload, node, rect), rank| {
            let QtNode::Internal { children } = tree.node(node as usize) else {
                unreachable!("leaf lanes have arity 0");
            };
            let quads = rect.quadrants();
            let q = (0..4)
                .filter(|&q| reaches(payload, &quads[q]))
                .nth(rank as usize)
                .expect("rank addresses an admitted child");
            (payload, children[q] as u32, quads[q])
        },
        &mut next,
    );
    machine.recycle(arity);
    machine.recycle(std::mem::replace(lanes, next));
    !lanes.is_empty()
}

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

    // Every window that meets the world starts at the root.
    machine.note_elementwise();
    let world = tree.world();
    let mut lanes: Vec<Lane> = machine.lease();
    lanes.extend(
        (0..queries.len() as u32)
            .filter(|&q| world.intersects(&queries[q as usize]))
            .map(|q| (q, 0, world)),
    );

    // One level completed per fan-out: all surviving lanes stepped one
    // node deeper in lockstep with a constant number of primitives,
    // recorded so `Machine::stats` exposes the paper's O(tree height)
    // round bound for batch queries, exactly as `run_quad_build` does for
    // builds.
    while descend_level(
        machine,
        tree,
        &mut lanes,
        |q, _, lines| results[q as usize].extend_from_slice(lines),
        |q, child| child.intersects(&queries[q as usize]),
    ) {
        machine.bump_rounds();
    }
    machine.recycle(lanes);

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
            // Tiny blocks: every level crosses many block boundaries.
            Machine::new(Backend::Parallel)
                .with_par_threshold(1)
                .with_block_bytes(4 * std::mem::size_of::<u64>()),
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

    /// Walks `descend_level` to the end from `payloads` root lanes and
    /// returns the frontier after every level plus everything landed, as
    /// `(payload, node index)` in landing order.
    fn descend<R>(
        m: &Machine,
        tree: &DpQuadtree,
        payloads: u32,
        reaches: R,
    ) -> (Vec<Vec<Lane>>, Vec<(u32, usize)>)
    where
        R: Fn(u32, &Rect) -> bool + Sync,
    {
        let mut lanes: Vec<Lane> = (0..payloads).map(|p| (p, 0, tree.world())).collect();
        let (mut levels, mut landed) = (Vec::new(), Vec::new());
        while descend_level(
            m,
            tree,
            &mut lanes,
            |p, node, lines| {
                assert_eq!(tree.node(node), QtNode::Leaf { lines });
                landed.push((p, node));
            },
            &reaches,
        ) {
            levels.push(lanes.clone());
        }
        assert!(lanes.is_empty(), "a finished descent leaves no lane");
        (levels, landed)
    }

    /// The level step on its own, driven by synthetic `reaches`
    /// predicates: every child, no child, exactly one child.
    #[test]
    fn level_step_fans_out_to_exactly_the_admitted_children() {
        let segs = dataset();
        let probe = dp_geom::Point::new(20.5, 11.5);
        let mut reference: Option<[Vec<Vec<Lane>>; 2]> = None;
        for m in machines() {
            let tree = build_bucket_pmr(&m, world(), &segs, 2, 8);
            let stats = tree.stats();
            assert!(stats.height >= 3, "tree too shallow: {stats:?}");

            // All four children: the frontier is the whole tree level by
            // level, children adjacent in quadrant order under their
            // parent, and every leaf lands once per payload.
            let (all, landed) = descend(&m, &tree, 3, |_, _| true);
            assert_eq!(all.len(), stats.height);
            let root_quads = world().quadrants();
            let QtNode::Internal { children } = tree.node(0) else {
                panic!("root must be internal");
            };
            let first: Vec<Lane> = (0..3u32)
                .flat_map(|p| (0..4).map(move |q| (p, q)))
                .map(|(p, q)| (p, children[q] as u32, root_quads[q]))
                .collect();
            assert_eq!(all[0], first);
            assert_eq!(landed.len(), 3 * stats.leaves);
            for p in 0..3u32 {
                let mut nodes: Vec<usize> = landed
                    .iter()
                    .filter(|&&(lp, _)| lp == p)
                    .map(|&(_, node)| node)
                    .collect();
                nodes.sort_unstable();
                nodes.dedup();
                assert_eq!(nodes.len(), stats.leaves, "payload {p} missed a leaf");
            }

            // No child: the root lane has arity 0, so nothing descends
            // and nothing lands.
            let (none, landed) = descend(&m, &tree, 3, |_, _| false);
            assert!(none.is_empty());
            assert!(landed.is_empty());

            // Exactly one child (the one holding `probe`, half-open): one
            // lane per payload follows the root-to-leaf path of a point
            // query; payload 1 admits nothing and dies at the root.
            let (one, landed) = descend(&m, &tree, 3, |p, child| {
                p != 1 && child.contains_half_open(probe)
            });
            for level in &one {
                assert_eq!(level.len(), 2);
                assert!(level.iter().all(|(_, _, r)| r.contains_half_open(probe)));
                assert_eq!(level[0].0, 0);
                assert_eq!(level[1].0, 2);
                assert_eq!(level[0].1, level[1].1);
            }
            assert_eq!(landed.len(), 2);
            assert_eq!(landed[0].1, landed[1].1);
            let QtNode::Leaf { lines } = tree.node(landed[0].1) else {
                panic!("landed on an internal node");
            };
            let mut lines = lines.to_vec();
            lines.sort_unstable();
            assert_eq!(lines, tree.point_query(probe));

            // The three machines walk identical frontiers.
            let got = [all, one];
            assert_eq!(reference.get_or_insert_with(|| got.clone()), &got);
        }
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
