//! Spatial join over two quadtrees of the same world (the downstream
//! operation the paper's primitives were built for — its conclusion cites
//! the companion spatial-join papers [Hoel93, Hoel94a, Hoel94b]).
//!
//! Because both quadtrees regularly decompose the *same* space, their
//! blocks align: matching block pairs either coincide or nest, so a join
//! never needs the expensive processor reorderings that the R-tree's
//! overlapping nodes would force (paper Fig. 12).
//!
//! [`frontier_join`] is the **breadth-first, data-parallel frontier
//! join**: the frontier is a flat vector of *live* candidate block pairs
//! `(node_a, node_b)` — a pair is dead, and never enters it, when either
//! side is an empty leaf — and each round — one `JoinPolicy` step on the
//! shared [`RoundDriver`] — advances *every* pair one level in lockstep
//! using the paper's own primitives:
//!
//! 1. retiring leaf×leaf pairs test their segment cross-products in one
//!    sweep that writes only the intersecting pairs — the deletion
//!    primitive's "keep where the flag is clear" (Figs. 17–18) applied as
//!    the lanes are created, so no counting scan rides along;
//! 2. one elementwise pass codes every expanding pair's live child pairs
//!    as a `ChildMask` — an internal×leaf pair keeps its leaf side fixed, the
//!    generalized *cloning* of Figs. 13–14 (a coarser leaf block is cloned
//!    unchanged against each child of the finer internal block);
//! 3. one [`Machine::flat_map_coded_into`] steps copy `rank` to the child
//!    pair of the mask's `rank`-th set bit, so a retiring pair (arity 0,
//!    the deletion of Figs. 17–18) and a dead child are never written —
//!    the level step of the crate's window descent and insert routing.
//!
//! Order inside the frontier carries no meaning: [`frontier_join`] sorts
//! and deduplicates the reported pairs.
//!
//! Every frontier vector moves through arena-backed `_into` variants
//! ([`Machine::lease`] / [`Machine::recycle`]), so rounds reuse scratch
//! instead of reallocating, and every round records a
//! [`scan_model::RoundTrace`] with its op-counter deltas. Each round
//! issues a *constant* number of primitive operations and strictly
//! deepens every non-leaf side, so rounds ≤ max(height(a), height(b)) —
//! the paper's O(tree height) bound with O(1) primitives per round.
//!
//! The sequential recursive co-traversal this replaced is the join's
//! oracle, [`crate::baseline::spatial_join`].

use crate::batch::ChildMask;
use crate::error::SpatialError;
use crate::quadtree::{DpQuadtree, QtNode};
use crate::round_driver::{RoundAdvance, RoundDriver, SplitPolicy};
use crate::SegId;
use dp_geom::{clip_segment_closed, segments_intersect, LineSeg, Rect};
use scan_model::Machine;

/// Brute-force reference join (all-pairs), for validation and as the
/// baseline in the join benchmarks.
pub fn brute_force_join(segs_a: &[LineSeg], segs_b: &[LineSeg]) -> Vec<(SegId, SegId)> {
    let mut out = Vec::new();
    for (ia, sa) in segs_a.iter().enumerate() {
        for (ib, sb) in segs_b.iter().enumerate() {
            if segments_intersect(sa, sb) {
                out.push((ia as SegId, ib as SegId));
            }
        }
    }
    out
}

/// `true` when `a` and `b` intersect somewhere *inside* `window` (closed
/// semantics throughout): both segments are clipped to the window and the
/// clipped parts are tested, which is equivalent to asking for an
/// intersection point within the window.
pub fn pair_intersects_in(a: &LineSeg, b: &LineSeg, window: &Rect) -> bool {
    match (
        clip_segment_closed(a, window),
        clip_segment_closed(b, window),
    ) {
        (Some(ca), Some(cb)) => segments_intersect(&ca, &cb),
        _ => false,
    }
}

/// Brute-force *windowed* join: all pairs intersecting inside `window`.
/// The oracle for the sharded service's `Join` request family, where each
/// shard joins its overlap world and the router filters per window.
pub fn brute_force_join_in(
    segs_a: &[LineSeg],
    segs_b: &[LineSeg],
    window: &Rect,
) -> Vec<(SegId, SegId)> {
    let mut out = Vec::new();
    for (ia, sa) in segs_a.iter().enumerate() {
        for (ib, sb) in segs_b.iter().enumerate() {
            if pair_intersects_in(sa, sb, window) {
                out.push((ia as SegId, ib as SegId));
            }
        }
    }
    out
}

/// Result of a [`frontier_join`] run: the pairs plus the round-level
/// telemetry the complexity tests assert on and `dpbench` reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinOutcome {
    /// Intersecting pairs `(id_a, id_b)`, sorted and deduplicated —
    /// bit-identical to [`crate::baseline::spatial_join`] on the same
    /// inputs.
    pub pairs: Vec<(SegId, SegId)>,
    /// Frontier-expansion rounds the driver completed (≤ max tree
    /// height).
    pub rounds: usize,
    /// Largest candidate-pair frontier seen after any expansion.
    pub frontier_peak: usize,
    /// Segment pairs exactly tested in leaf×leaf blocks (before
    /// deduplication).
    pub pairs_tested: u64,
    /// Tests that hit (before deduplication); `pairs.len()` after.
    pub pairs_matched: u64,
}

/// The [`SplitPolicy`] of the data-parallel frontier join. "Splitting" a
/// frontier lane means expanding the block pair one level; "retiring" it
/// means exact-testing a leaf×leaf pair. See the module docs for the round
/// anatomy.
pub(crate) struct JoinPolicy<'t> {
    a: &'t DpQuadtree,
    b: &'t DpQuadtree,
    segs_a: &'t [LineSeg],
    segs_b: &'t [LineSeg],
    /// Frontier lanes: `(node in a, node in b)` per live candidate pair.
    nab: Vec<(u32, u32)>,
    pairs: Vec<(SegId, SegId)>,
    frontier_peak: usize,
    pairs_tested: u64,
    pairs_matched: u64,
}

/// The four quadrant steps of node `n`: its children, or `n` itself four
/// times when it is a leaf (aligned decompositions keep blocks nested, so
/// a coarser leaf block is cloned unchanged against each child of the
/// finer internal block).
fn steps(tree: &DpQuadtree, n: u32) -> [u32; 4] {
    match tree.node(n as usize) {
        QtNode::Internal { children } => children.map(|c| c as u32),
        QtNode::Leaf { .. } => [n; 4],
    }
}

impl<'t> JoinPolicy<'t> {
    /// A fresh policy whose frontier is the root×root pair, or nothing
    /// when that pair is already dead.
    pub(crate) fn new(
        a: &'t DpQuadtree,
        segs_a: &'t [LineSeg],
        b: &'t DpQuadtree,
        segs_b: &'t [LineSeg],
    ) -> Self {
        let mut policy = JoinPolicy {
            a,
            b,
            segs_a,
            segs_b,
            nab: Vec::new(),
            pairs: Vec::new(),
            frontier_peak: 1,
            pairs_tested: 0,
            pairs_matched: 0,
        };
        if policy.live(0, 0) {
            policy.nab.push((0, 0));
        }
        policy
    }

    /// A pair is dead when either side is an empty leaf: nothing under it
    /// can intersect.
    fn live(&self, na: u32, nb: u32) -> bool {
        let holds_lines = |tree: &DpQuadtree, n: u32| match tree.node(n as usize) {
            QtNode::Leaf { lines } => !lines.is_empty(),
            QtNode::Internal { .. } => true,
        };
        holds_lines(self.a, na) && holds_lines(self.b, nb)
    }
}

impl SplitPolicy for JoinPolicy<'_> {
    fn active_elements(&self) -> usize {
        self.nab.len()
    }

    fn active_nodes(&self) -> usize {
        self.nab.len()
    }

    fn decide(&mut self, machine: &Machine) -> Vec<bool> {
        // One elementwise pass: a pair expands unless both blocks are
        // leaves.
        machine.note_elementwise();
        let leaf = |tree: &DpQuadtree, n: u32| matches!(tree.node(n as usize), QtNode::Leaf { .. });
        let expands = |&(na, nb): &(u32, u32)| !(leaf(self.a, na) && leaf(self.b, nb));
        self.nab.iter().map(expands).collect()
    }

    fn emit(&mut self, machine: &Machine, want: &[bool]) {
        // Lay out the segment cross-product of every retiring leaf×leaf
        // pair as flat test lanes, with the exact intersection test AND
        // the miss-deletion compaction fused into the same sweep: the
        // outer segment is loaded once per leaf row (exactly the
        // hoisting the recursive co-traversal enjoys) and only the
        // surviving lanes are ever written — the delete's "keep where
        // the flag is clear" applied at lane-creation time, so no miss
        // lane, no counting scan, no second pass re-gathering segments
        // by index. Three logical elementwise ops (lay out, test,
        // compact), one sweep.
        machine.note_elementwise();
        machine.note_elementwise();
        machine.note_elementwise();
        let (segs_a, segs_b) = (self.segs_a, self.segs_b);
        let mut hits: Vec<(SegId, SegId)> = machine.lease();
        let mut tested = 0u64;
        for (&(na, nb), &w) in self.nab.iter().zip(want) {
            if w {
                continue;
            }
            // Only live pairs enter the frontier, so both leaves hold
            // lines.
            let (QtNode::Leaf { lines: la }, QtNode::Leaf { lines: lb }) =
                (self.a.node(na as usize), self.b.node(nb as usize))
            else {
                unreachable!("a retiring pair is leaf×leaf");
            };
            for &sa in la {
                let seg_a = &segs_a[sa as usize];
                // Hoist the outer direction vector across the row: pairs
                // whose inner endpoints sit strictly on one side of the
                // outer line cannot intersect (no straddle, and a
                // collinear touch needs a zero cross product), so two
                // hoisted cross products retire most misses before the
                // full exact test.
                let (adx, ady) = (seg_a.b.x - seg_a.a.x, seg_a.b.y - seg_a.a.y);
                for &sb in lb {
                    let seg_b = &segs_b[sb as usize];
                    let d3 = adx * (seg_b.a.y - seg_a.a.y) - ady * (seg_b.a.x - seg_a.a.x);
                    let d4 = adx * (seg_b.b.y - seg_a.a.y) - ady * (seg_b.b.x - seg_a.a.x);
                    let same_strict_side = (d3 > 0.0 && d4 > 0.0) || (d3 < 0.0 && d4 < 0.0);
                    if !same_strict_side && segments_intersect(seg_a, seg_b) {
                        hits.push((sa, sb));
                    }
                }
                tested += lb.len() as u64;
            }
        }
        self.pairs_tested += tested;
        self.pairs.extend_from_slice(&hits);
        self.pairs_matched += hits.len() as u64;
        machine.recycle(hits);
    }

    fn partition(&mut self, machine: &Machine, want: &[bool]) {
        // The level step of `batch::descend_level`: one elementwise pass
        // codes each expanding pair's live child pairs as a `ChildMask`
        // (a retiring pair's is empty — the deletion of Figs. 17–18 as
        // arity 0), and one flat-map steps copy `rank` to the pair of
        // the mask's `rank`-th set bit — the cloning of Figs. 13–14,
        // minus the children that would be born dead.
        let mut masks: Vec<ChildMask> = machine.lease();
        machine.zip_map_into(
            &self.nab,
            want,
            |(na, nb), split| {
                let (ca, cb) = (steps(self.a, na), steps(self.b, nb));
                ChildMask::of(|q| split && self.live(ca[q], cb[q]))
            },
            &mut masks,
        );
        let mut next: Vec<(u32, u32)> = machine.lease();
        machine.flat_map_coded_into(
            &self.nab,
            &masks,
            |(na, nb), mask, rank| {
                let q = mask.nth(rank);
                (steps(self.a, na)[q], steps(self.b, nb)[q])
            },
            &mut next,
        );
        machine.recycle(masks);
        machine.recycle(std::mem::replace(&mut self.nab, next));
        self.frontier_peak = self.frontier_peak.max(self.nab.len());
    }

    fn advance(&mut self, _machine: &Machine, split_any: bool) -> RoundAdvance {
        RoundAdvance {
            round_completed: split_any,
            finished: !split_any || self.nab.is_empty(),
        }
    }
}

/// The breadth-first, data-parallel frontier join. Produces the same
/// sorted, deduplicated pair set as [`crate::baseline::try_spatial_join`],
/// plus round telemetry; runs on either machine backend.
pub fn frontier_join(
    machine: &Machine,
    a: &DpQuadtree,
    segs_a: &[LineSeg],
    b: &DpQuadtree,
    segs_b: &[LineSeg],
) -> Result<JoinOutcome, SpatialError> {
    if a.world() != b.world() {
        return Err(SpatialError::WorldMismatch {
            left: a.world(),
            right: b.world(),
        });
    }
    let mut policy = JoinPolicy::new(a, segs_a, b, segs_b);
    let rounds = RoundDriver::run(machine, &mut policy);
    let JoinPolicy {
        mut pairs,
        frontier_peak,
        pairs_tested,
        pairs_matched,
        ..
    } = policy;
    pairs.sort_unstable();
    pairs.dedup();
    Ok(JoinOutcome {
        pairs,
        rounds,
        frontier_peak,
        pairs_tested,
        pairs_matched,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::{spatial_join, try_spatial_join};
    use crate::bucket_pmr::build_bucket_pmr;
    use dp_geom::Rect;
    use scan_model::{Backend, Machine};

    fn world() -> Rect {
        Rect::from_coords(0.0, 0.0, 8.0, 8.0)
    }

    fn machines() -> Vec<Machine> {
        vec![
            Machine::sequential(),
            Machine::new(Backend::Parallel).with_par_threshold(1),
        ]
    }

    #[test]
    fn join_matches_brute_force() {
        let m = Machine::sequential();
        let roads = vec![
            LineSeg::from_coords(1.0, 1.0, 6.0, 6.0),
            LineSeg::from_coords(0.0, 3.0, 7.0, 3.0),
            LineSeg::from_coords(5.0, 0.0, 5.0, 7.0),
        ];
        let rivers = vec![
            LineSeg::from_coords(1.0, 6.0, 6.0, 1.0),
            LineSeg::from_coords(0.0, 0.5, 7.0, 0.5),
        ];
        let ta = build_bucket_pmr(&m, world(), &roads, 2, 6);
        let tb = build_bucket_pmr(&m, world(), &rivers, 2, 6);
        let got = spatial_join(&ta, &roads, &tb, &rivers);
        let want = brute_force_join(&roads, &rivers);
        assert_eq!(got, want);
        assert!(got.contains(&(0, 0)), "diagonals cross");
    }

    #[test]
    fn frontier_matches_recursive_and_brute_force() {
        for m in machines() {
            let roads = vec![
                LineSeg::from_coords(1.0, 1.0, 6.0, 6.0),
                LineSeg::from_coords(0.0, 3.0, 7.0, 3.0),
                LineSeg::from_coords(5.0, 0.0, 5.0, 7.0),
            ];
            let rivers = vec![
                LineSeg::from_coords(1.0, 6.0, 6.0, 1.0),
                LineSeg::from_coords(0.0, 0.5, 7.0, 0.5),
            ];
            let ta = build_bucket_pmr(&m, world(), &roads, 2, 6);
            let tb = build_bucket_pmr(&m, world(), &rivers, 2, 6);
            let out = frontier_join(&m, &ta, &roads, &tb, &rivers).unwrap();
            assert_eq!(out.pairs, spatial_join(&ta, &roads, &tb, &rivers));
            assert_eq!(out.pairs, brute_force_join(&roads, &rivers));
            assert!(out.pairs_matched >= out.pairs.len() as u64);
            assert!(out.pairs_tested >= out.pairs_matched);
        }
    }

    /// Every round's frontier is exactly the live child pairs of the
    /// pairs the round expanded, written out by hand from the two trees'
    /// nodes: no dead pair is ever written and no live one is lost.
    #[test]
    fn each_round_steps_to_exactly_the_live_child_pairs() {
        // The west half of `a` is empty, so pairs reaching it die.
        let a: Vec<LineSeg> = (0..12)
            .map(|k| {
                let y = (k % 8) as f64;
                LineSeg::from_coords(4.0 + (k % 3) as f64, y, 5.0 + (k % 3) as f64, y + 0.5)
            })
            .collect();
        let b: Vec<LineSeg> = (0..10)
            .map(|k| LineSeg::from_coords(k as f64 * 0.7, 1.0, k as f64 * 0.7 + 0.5, 7.0))
            .collect();
        for m in machines() {
            let ta = build_bucket_pmr(&m, world(), &a, 1, 5);
            let tb = build_bucket_pmr(&m, world(), &b, 1, 5);
            let live = |&(na, nb): &(u32, u32)| {
                let holds = |t: &DpQuadtree, n| match t.node(n as usize) {
                    QtNode::Leaf { lines } => !lines.is_empty(),
                    QtNode::Internal { .. } => true,
                };
                holds(&ta, na) && holds(&tb, nb)
            };
            let mut policy = JoinPolicy::new(&ta, &a, &tb, &b);
            let mut driver = RoundDriver::new();
            let (mut peak, mut dead_seen) = (1, 0);
            loop {
                let mut want: Vec<(u32, u32)> = Vec::new();
                for &(na, nb) in &policy.nab {
                    let children = match (ta.node(na as usize), tb.node(nb as usize)) {
                        (QtNode::Internal { children: ca }, QtNode::Internal { children: cb }) => {
                            (0..4).map(|q| (ca[q] as u32, cb[q] as u32)).collect()
                        }
                        (QtNode::Internal { children: ca }, QtNode::Leaf { .. }) => {
                            ca.iter().map(|&c| (c as u32, nb)).collect()
                        }
                        (QtNode::Leaf { .. }, QtNode::Internal { children: cb }) => {
                            cb.iter().map(|&c| (na, c as u32)).collect()
                        }
                        (QtNode::Leaf { .. }, QtNode::Leaf { .. }) => Vec::new(),
                    };
                    dead_seen += children.iter().filter(|p| !live(p)).count();
                    want.extend(children.into_iter().filter(|p| live(p)));
                }
                let finished = driver.step(&m, &mut policy).finished;
                if finished && want.is_empty() {
                    break;
                }
                let mut got = policy.nab.clone();
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "round {}", driver.rounds());
                peak = peak.max(got.len());
                if finished {
                    break;
                }
            }
            assert!(dead_seen > 0, "the input must make dead children");
            let out = frontier_join(&m, &ta, &a, &tb, &b).unwrap();
            assert_eq!(out.frontier_peak, peak);
            assert_eq!(out.rounds, driver.rounds());
            assert_eq!(out.pairs, brute_force_join(&a, &b));
        }
    }

    #[test]
    fn join_with_empty_side_is_empty() {
        let m = Machine::sequential();
        let roads = vec![LineSeg::from_coords(1.0, 1.0, 6.0, 6.0)];
        let ta = build_bucket_pmr(&m, world(), &roads, 2, 6);
        let tb = build_bucket_pmr(&m, world(), &[], 2, 6);
        assert!(spatial_join(&ta, &roads, &tb, &[]).is_empty());
        let out = frontier_join(&m, &ta, &roads, &tb, &[]).unwrap();
        assert!(out.pairs.is_empty());
        assert_eq!(out.rounds, 0, "an empty side dies at the root pair");
        assert_eq!(out.pairs_tested, 0);
    }

    #[test]
    fn frontier_rounds_bounded_by_deeper_tree() {
        for m in machines() {
            let a: Vec<LineSeg> = (0..40)
                .map(|k| {
                    let x = ((k * 13) % 7) as f64;
                    let y = ((k * 5) % 7) as f64;
                    LineSeg::from_coords(x, y, x + 0.9, y + 0.7)
                })
                .collect();
            let b: Vec<LineSeg> = (0..30)
                .map(|k| {
                    let x = ((k * 11) % 7) as f64;
                    LineSeg::from_coords(x, 0.0, x + 0.5, 7.5)
                })
                .collect();
            let ta = build_bucket_pmr(&m, world(), &a, 2, 6);
            let tb = build_bucket_pmr(&m, world(), &b, 2, 6);
            let out = frontier_join(&m, &ta, &a, &tb, &b).unwrap();
            let bound = ta.stats().height.max(tb.stats().height) + 1;
            assert!(
                out.rounds <= bound,
                "rounds {} exceed depth bound {bound}",
                out.rounds
            );
            assert_eq!(out.pairs, brute_force_join(&a, &b));
        }
    }

    #[test]
    fn join_deduplicates_pairs_spanning_blocks() {
        let m = Machine::sequential();
        // Long segments crossing many shared blocks still yield one pair.
        let a = vec![LineSeg::from_coords(0.0, 4.0, 7.0, 4.0)];
        let b = vec![LineSeg::from_coords(4.0, 0.0, 4.0, 7.0)];
        let extra_a: Vec<LineSeg> = (0..5)
            .map(|k| LineSeg::from_coords(k as f64, 6.0, k as f64 + 1.0, 7.0))
            .collect();
        let mut sa = a.clone();
        sa.extend(extra_a);
        let ta = build_bucket_pmr(&m, world(), &sa, 1, 5);
        let tb = build_bucket_pmr(&m, world(), &b, 1, 5);
        let got = spatial_join(&ta, &sa, &tb, &b);
        assert_eq!(got, brute_force_join(&sa, &b));
        let out = frontier_join(&m, &ta, &sa, &tb, &b).unwrap();
        assert_eq!(out.pairs, got);
        assert!(
            out.pairs_matched > out.pairs.len() as u64,
            "spanning pairs hit in several blocks before dedup"
        );
    }

    #[test]
    #[should_panic(expected = "same world")]
    fn mismatched_worlds_rejected() {
        let m = Machine::sequential();
        let ta = build_bucket_pmr(&m, world(), &[], 2, 6);
        let tb = build_bucket_pmr(&m, Rect::from_coords(0.0, 0.0, 16.0, 16.0), &[], 2, 6);
        spatial_join(&ta, &[], &tb, &[]);
    }

    #[test]
    fn mismatched_worlds_are_a_checked_error() {
        let m = Machine::sequential();
        let other = Rect::from_coords(0.0, 0.0, 16.0, 16.0);
        let ta = build_bucket_pmr(&m, world(), &[], 2, 6);
        let tb = build_bucket_pmr(&m, other, &[], 2, 6);
        let want = SpatialError::WorldMismatch {
            left: world(),
            right: other,
        };
        assert_eq!(try_spatial_join(&ta, &[], &tb, &[]), Err(want));
        assert_eq!(frontier_join(&m, &ta, &[], &tb, &[]).unwrap_err(), want);
    }

    #[test]
    fn windowed_brute_force_restricts_to_window() {
        let a = vec![LineSeg::from_coords(0.0, 4.0, 7.0, 4.0)];
        let b = vec![
            LineSeg::from_coords(1.0, 0.0, 1.0, 7.0),
            LineSeg::from_coords(6.0, 0.0, 6.0, 7.0),
        ];
        let all = brute_force_join_in(&a, &b, &world());
        assert_eq!(all, vec![(0, 0), (0, 1)]);
        let left = brute_force_join_in(&a, &b, &Rect::from_coords(0.0, 0.0, 3.0, 8.0));
        assert_eq!(left, vec![(0, 0)]);
        let miss = brute_force_join_in(&a, &b, &Rect::from_coords(2.0, 0.0, 3.0, 8.0));
        assert!(miss.is_empty());
    }
}
