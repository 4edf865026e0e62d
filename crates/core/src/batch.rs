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
//! 2. a lane over an internal node is classified **once**: one
//!    elementwise map tests its four child blocks against the window and
//!    emits a one-byte `ChildMask` (bit q = child q admitted) whose
//!    population count is the lane's arity;
//! 3. [`Machine::flat_map_coded_into`] sends every copy straight to its
//!    slot — one room-making scan, one permutation, no gather index —
//!    and its child closure steps copy `r` to the child of the mask's
//!    `r`-th set bit, computing that one quadrant ([`Rect::quadrant`])
//!    and nothing else.
//!
//! Children that miss the window are never materialized, so there is
//! nothing to prune afterwards (the cloning of Sec. 4.1 and the deletion
//! of Sec. 4.3 are the arities ≥ 1 and 0 of the same flat-map). All
//! queries advance in lockstep; per level the work is O(frontier) with a
//! constant number of primitive operations — the natural object-space
//! parallelization of query processing. Insert routing
//! ([`crate::update::batch_update`] phase 3) is the same descent with a
//! different `reaches` predicate.
//!
//! A segment is stored in every leaf it crosses, so a window's landed
//! candidates arrive duplicated (2.5× on the serving workloads). The
//! paper's duplicate deletion (Sec. 4.3) presumes a sorted ordering; ids
//! are a dense universe, so here the ordering comes for free from
//! **mark-and-pack** (`pack_distinct`): each landed id sets its bit in a
//! two-level bitmap leased from the machine's arena, and one walk of the
//! set bits — ascending by construction — clears them, applies the exact
//! filter [`dp_geom::seg_meets_rect`] and packs the survivors:
//! O(candidates + n/4096) per query, where sort + dedup + a clip per
//! survivor was O(c log c) + c clips. The pointer descent
//! ([`DpQuadtree::window_query`]), the service's degraded-mode scan and
//! the benchmark's brute force deliberately keep `sort` + `dedup` +
//! `clip_segment_closed`: they are the independent oracles this path is
//! tested against.

use crate::error::SpatialError;
use crate::quadtree::{DpQuadtree, QtNode};
use crate::SegId;
use dp_geom::Rect;
use scan_model::Machine;

/// One frontier lane of a lockstep descent: `(payload, node index, node
/// block)`. The payload names what is descending — a query, an insert.
pub(crate) type Lane = (u32, u32, Rect);

/// Which of an internal node's four children a lane descends to: bit `q`
/// set = child `q` (NW, NE, SW, SE) admitted. Zero for a leaf lane. The
/// arity lane of the level's flat-map — its `Into<u32>` is the number of
/// copies — and the code every copy reads its quadrant from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ChildMask(u8);

impl From<ChildMask> for u32 {
    fn from(mask: ChildMask) -> u32 {
        mask.0.count_ones()
    }
}

impl ChildMask {
    /// The quadrant of the `rank`-th admitted child.
    fn nth(self, rank: u32) -> usize {
        let mut bits = self.0;
        for _ in 0..rank {
            bits &= bits - 1;
        }
        debug_assert!(bits != 0, "rank addresses an admitted child");
        bits.trailing_zeros() as usize
    }
}

/// One level of a lockstep descent over `tree`: every leaf lane is handed
/// to `land(payload, node index, leaf lines)` and vanishes; every
/// internal lane fans out to exactly the children `reaches(payload,
/// &child_block)` admits, in quadrant order. Returns whether any lane is
/// left to descend further; a level with nothing but leaf lanes issues no
/// primitive beyond the landing pass.
///
/// `reaches` is evaluated once per child block of every internal lane —
/// four times a lane, in quadrant order, never again for the copies — and
/// `land` once per leaf lane, in frontier order.
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

    let mut masks: Vec<ChildMask> = machine.lease();
    machine.map_into(
        lanes,
        |(payload, node, rect)| match tree.node(node as usize) {
            QtNode::Leaf { .. } => ChildMask(0),
            QtNode::Internal { .. } => {
                let quads = rect.quadrants();
                let admitted = (0..4).filter(|&q| reaches(payload, &quads[q]));
                ChildMask(admitted.fold(0, |bits, q| bits | 1 << q))
            }
        },
        &mut masks,
    );
    let mut next: Vec<Lane> = machine.lease();
    machine.flat_map_coded_into(
        lanes,
        &masks,
        |(payload, node, rect), mask, rank| {
            let QtNode::Internal { children } = tree.node(node as usize) else {
                unreachable!("leaf lanes have arity 0");
            };
            let q = mask.nth(rank);
            (payload, children[q] as u32, rect.quadrant(q))
        },
        &mut next,
    );
    machine.recycle(masks);
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
    let mut results = land_candidates(machine, tree, queries);
    machine.note_elementwise();
    pack_distinct(machine, &mut results, segs.len(), |q, id| {
        dp_geom::seg_meets_rect(&segs[id as usize], &queries[q])
    });
    results
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
    let mut results = land_candidates(machine, tree, queries);
    let landed = results.iter().flatten();
    let universe = landed.max().map_or(0, |&largest| largest as usize + 1);
    pack_distinct(machine, &mut results, universe, |_, _| true);
    results
}

/// The lockstep descent of all `queries`: per query, the ids of every
/// leaf its window reaches, in landing order — a segment once per leaf
/// that stores it.
fn land_candidates(machine: &Machine, tree: &DpQuadtree, queries: &[Rect]) -> Vec<Vec<SegId>> {
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
    results
}

/// Mark-and-pack duplicate deletion: rewrites every query's id list —
/// ids below `universe`, in any order, duplicated — as its distinct ids
/// in ascending order, keeping id only if `keep(query, id)`.
///
/// The marks are a two-level bitmap over `0..universe` leased from the
/// machine's arena: one bit per id in 64-bit words, and one summary bit
/// per word. A query sets the bits of its ids, then walks the set summary
/// bits and under each the set id bits — ascending, each id once —
/// clearing every word it visits, so the bitmap is all-zero again for the
/// next query and a query with `c` ids costs O(c + universe / 4096), not
/// the O(universe / 64) of a flat bitmap or the O(c log c) of a sort.
///
/// # Panics
///
/// Panics if an id's bit lies outside the bitmap. (An id in the slack of
/// the last word — at or above `universe`, below the next multiple of 64
/// — is marked like any other and reaches `keep`.)
fn pack_distinct<K>(machine: &Machine, lists: &mut [Vec<SegId>], universe: usize, keep: K)
where
    K: Fn(usize, SegId) -> bool,
{
    let nwords = universe.div_ceil(64);
    let nsummary = nwords.div_ceil(64);
    let mut bitmap: Vec<u64> = machine.lease();
    bitmap.resize(nsummary + nwords, 0);
    let (summary, words) = bitmap.split_at_mut(nsummary);
    for (q, ids) in lists.iter_mut().enumerate() {
        for &id in ids.iter() {
            let w = id as usize / 64;
            words[w] |= 1 << (id % 64);
            summary[w / 64] |= 1 << (w % 64);
        }
        ids.clear();
        for (s, group) in summary.iter_mut().enumerate() {
            let mut live_words = std::mem::take(group);
            while live_words != 0 {
                let w = s * 64 + live_words.trailing_zeros() as usize;
                live_words &= live_words - 1;
                let mut live_ids = std::mem::take(&mut words[w]);
                while live_ids != 0 {
                    let id = (w * 64) as SegId + live_ids.trailing_zeros();
                    live_ids &= live_ids - 1;
                    if keep(q, id) {
                        ids.push(id);
                    }
                }
            }
        }
        debug_assert!(
            summary.iter().chain(words.iter()).all(|&word| word == 0),
            "query {q} left marks behind"
        );
    }
    machine.recycle(bitmap);
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

    /// `pack_distinct` against sort + dedup + filter.
    fn assert_packs(m: &Machine, lists: &[Vec<SegId>], universe: usize, what: &str) {
        let keep = |q: usize, id: SegId| (id as usize + q) % 3 != 0;
        let want: Vec<Vec<SegId>> = lists
            .iter()
            .enumerate()
            .map(|(q, ids)| {
                let mut ids = ids.clone();
                ids.sort_unstable();
                ids.dedup();
                ids.retain(|&id| keep(q, id));
                ids
            })
            .collect();
        let mut got = lists.to_vec();
        pack_distinct(m, &mut got, universe, keep);
        assert_eq!(got, want, "{what}");
        let mut all = lists.to_vec();
        pack_distinct(m, &mut all, universe, |_, _| true);
        for (ids, raw) in all.iter().zip(lists) {
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "{what}: order");
            let kept = |id: &SegId| ids.binary_search(id).is_ok();
            assert!(raw.iter().all(kept), "{what}: keep-all");
        }
    }

    /// Mark-and-pack at the seams of its two levels — the first and last
    /// bit of an id word (0, 63, 64), of a summary word (4095, 4096), the
    /// last id of a universe that fills neither — with every id
    /// duplicated, several queries sharing one bitmap (each must find it
    /// all-zero: `pack_distinct` asserts it after every query in this
    /// build), and two different batches back to back on one machine, the
    /// second on the recycled bitmap.
    #[test]
    fn mark_and_pack_matches_sort_dedup_filter_at_word_seams() {
        for m in machines() {
            for n in [1usize, 63, 64, 65, 4095, 4096, 4097, 5000, 8192, 10_007] {
                let last = n as SegId - 1;
                let seams: Vec<SegId> = [0, 1, 62, 63, 64, 65, 127, 128, 4094, 4095, 4096, 4097]
                    .into_iter()
                    .chain([last / 2, last.saturating_sub(1), last])
                    .filter(|&id| id <= last)
                    .collect();
                let doubled: Vec<SegId> = seams.iter().rev().chain(&seams).copied().collect();
                let strided: Vec<SegId> = (0..n as SegId).rev().step_by(7).collect();
                let dense: Vec<SegId> = (0..n as SegId).flat_map(|id| [id, id, id]).collect();
                let first = [doubled.clone(), Vec::new(), strided, vec![last; 5]];
                assert_packs(&m, &first, n, &format!("n={n} first"));
                let second = [dense, doubled, vec![0]];
                assert_packs(&m, &second, n, &format!("n={n} second"));
            }
            // No queries, and an empty universe nothing can land in.
            assert_packs(&m, &[], 100, "no lists");
            assert_packs(&m, &[Vec::new(), Vec::new()], 0, "empty universe");
        }
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn mark_and_pack_refuses_an_id_outside_the_bitmap() {
        pack_distinct(&Machine::sequential(), &mut [vec![64]], 64, |_, _| true);
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
