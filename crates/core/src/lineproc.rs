//! The line processor set: the central object of the paper's Section 5.
//!
//! During a data-parallel quadtree build, one conceptual processor holds
//! each *(line, node)* pair: the line's identifier plus "the size and
//! position of the node that it resides in" (paper Sec. 4.6). Processors
//! belonging to the same node form a contiguous *segment* of the linear
//! processor ordering. [`LineProcSet`] is that state: parallel lanes plus
//! a [`Segments`] descriptor plus the per-node bookkeeping (block path and
//! rectangle) that the final tree assembly needs.
//!
//! [`run_quad_build`] is the generic iterative build entry point of
//! Sections 5.1–5.2. The round loop itself lives in the unified
//! [`crate::round_driver::RoundDriver`]; this module contributes
//! [`QuadSplitPolicy`] — the quadtree-family
//! [`crate::round_driver::SplitPolicy`] shared by PM₁, PM₂, PM₃ and the
//! bucket PMR quadtree, which differ only in their *split decision*
//! closure. Per round: the decision marks nodes, finished nodes retire
//! their lanes into leaf records, and the remaining nodes subdivide via
//! the two-stage node split of Section 4.6 ([`crate::split`]).

use crate::round_driver::{RoundAdvance, RoundDriver, SplitPolicy};
use crate::split::split_active_nodes;
use crate::SegId;
use dp_geom::{LineSeg, NodePath, Rect};
use scan_model::{Machine, Segments};

/// An active (still subdividing) quadtree node.
#[derive(Debug, Clone, Copy)]
pub struct ActiveNode {
    /// Root-to-node quadrant path.
    pub path: NodePath,
    /// Block rectangle.
    pub rect: Rect,
}

/// The per-lane and per-node state of an in-progress quadtree build.
#[derive(Debug, Clone)]
pub struct LineProcSet {
    /// Per lane: the line's identifier.
    pub line: Vec<SegId>,
    /// Per lane: the block rectangle of the node the lane resides in
    /// (duplicated per lane, exactly as in the paper's formulation, so the
    /// split stages are purely elementwise).
    pub rect: Vec<Rect>,
    /// Lanes grouped by node.
    pub seg: Segments,
    /// Active nodes, aligned with the segments of `seg`.
    pub nodes: Vec<ActiveNode>,
}

impl LineProcSet {
    /// Initial state: every line in one root segment.
    ///
    /// # Panics
    ///
    /// Panics if any segment endpoint lies outside the half-open world.
    pub fn initial(world: Rect, segs: &[LineSeg]) -> Self {
        for (id, s) in segs.iter().enumerate() {
            assert!(
                world.contains_half_open(s.a) && world.contains_half_open(s.b),
                "segment {id} endpoint outside the half-open world"
            );
        }
        let n = segs.len();
        LineProcSet {
            line: (0..n as SegId).collect(),
            rect: vec![world; n],
            seg: Segments::single(n),
            nodes: if n == 0 {
                Vec::new()
            } else {
                vec![ActiveNode {
                    path: NodePath::ROOT,
                    rect: world,
                }]
            },
        }
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.line.len()
    }

    /// `true` when no lanes remain active.
    pub fn is_empty(&self) -> bool {
        self.line.is_empty()
    }

    /// Internal consistency check (debug aid): segment count matches node
    /// count, every lane's rect matches its node's rect.
    pub fn validate(&self) {
        assert_eq!(self.seg.num_segments(), self.nodes.len());
        assert_eq!(self.seg.len(), self.line.len());
        assert_eq!(self.seg.len(), self.rect.len());
        for (s, r) in self.seg.ranges().enumerate() {
            for i in r {
                assert_eq!(
                    self.rect[i], self.nodes[s].rect,
                    "lane {i} rect does not match node {s}"
                );
            }
        }
    }
}

/// A finished (leaf) block emitted by the build driver.
#[derive(Debug, Clone)]
pub struct LeafRecord {
    /// Root-to-leaf quadrant path.
    pub path: NodePath,
    /// Block rectangle.
    pub rect: Rect,
    /// Lines passing through the block (its q-edges), in lane order.
    pub lines: Vec<SegId>,
}

/// Result of a quadtree build: the leaf blocks plus round accounting.
#[derive(Debug, Clone)]
pub struct QuadBuildOutcome {
    /// All non-empty leaf blocks. (Empty leaves are implicit: every
    /// internal node has exactly four children; the assembly in
    /// [`crate::quadtree`] materializes the missing ones as empty.)
    pub leaves: Vec<LeafRecord>,
    /// Number of subdivision rounds executed (the paper's O(log n) stage
    /// count).
    pub rounds: usize,
    /// Leaves that were cut off by the depth bound while their split
    /// criterion still wanted subdivision (e.g. the over-capacity
    /// max-resolution bucket of paper Fig. 38).
    pub truncated: usize,
}

/// The structure-specific split decision: given the machine and the
/// current state, return one flag per active node — `true` to subdivide.
/// The driver overrides the flag to `false` at the depth bound.
pub type SplitDecision<'a> = dyn FnMut(&Machine, &LineProcSet, &[LineSeg]) -> Vec<bool> + 'a;

/// The quadtree-family [`SplitPolicy`]: owns the frontier [`LineProcSet`]
/// and the emitted leaves, defers the per-node split verdict to a
/// structure-specific [`SplitDecision`] closure (PM₁ vertex test, bucket
/// PMR capacity test, ...), and partitions via the two-stage node split of
/// paper Sec. 4.6. One driver step is one subdivision round.
pub struct QuadSplitPolicy<'d, 'c, 's> {
    segs: &'s [LineSeg],
    max_depth: usize,
    decide: &'d mut SplitDecision<'c>,
    state: LineProcSet,
    leaves: Vec<LeafRecord>,
    truncated: usize,
}

impl<'d, 'c, 's> QuadSplitPolicy<'d, 'c, 's> {
    /// A policy over the initial single-root frontier. Returns `None` for
    /// empty input, where there is no frontier to drive (the build is
    /// trivially zero leaves, zero rounds).
    pub fn new(
        world: Rect,
        segs: &'s [LineSeg],
        max_depth: usize,
        decide: &'d mut SplitDecision<'c>,
    ) -> Option<Self> {
        let state = LineProcSet::initial(world, segs);
        if state.nodes.is_empty() {
            return None;
        }
        Some(QuadSplitPolicy {
            segs,
            max_depth,
            decide,
            state,
            leaves: Vec::new(),
            truncated: 0,
        })
    }

    /// A policy resuming from an arbitrary pre-populated frontier instead
    /// of the single root — the split-repair pass of the batch updater
    /// ([`crate::update`]) seeds it with the leaf blocks whose line sets
    /// changed, each node carrying its *absolute* root-to-block path, so
    /// the retired records drop straight into the existing tree. Returns
    /// `None` when the frontier holds no nodes.
    pub fn from_frontier(
        state: LineProcSet,
        segs: &'s [LineSeg],
        max_depth: usize,
        decide: &'d mut SplitDecision<'c>,
    ) -> Option<Self> {
        if state.nodes.is_empty() {
            return None;
        }
        Some(QuadSplitPolicy {
            segs,
            max_depth,
            decide,
            state,
            leaves: Vec::new(),
            truncated: 0,
        })
    }

    /// Consumes the policy into the build outcome (`rounds` comes from the
    /// driver).
    pub fn into_outcome(self, rounds: usize) -> QuadBuildOutcome {
        QuadBuildOutcome {
            leaves: self.leaves,
            rounds,
            truncated: self.truncated,
        }
    }
}

impl SplitPolicy for QuadSplitPolicy<'_, '_, '_> {
    fn active_elements(&self) -> usize {
        self.state.len()
    }

    fn active_nodes(&self) -> usize {
        self.state.nodes.len()
    }

    fn decide(&mut self, machine: &Machine) -> Vec<bool> {
        let mut want = (self.decide)(machine, &self.state, self.segs);
        assert_eq!(
            want.len(),
            self.state.nodes.len(),
            "split decision must return one flag per active node"
        );
        // Depth guard: nodes at the bound never split; count the ones that
        // wanted to.
        for (s, w) in want.iter_mut().enumerate() {
            if *w && self.state.nodes[s].path.depth() as usize >= self.max_depth {
                *w = false;
                self.truncated += 1;
            }
        }
        want
    }

    fn emit(&mut self, _machine: &Machine, want: &[bool]) {
        // Retire finished nodes as leaves.
        for (s, r) in self.state.seg.ranges().enumerate() {
            if !want[s] {
                self.leaves.push(LeafRecord {
                    path: self.state.nodes[s].path,
                    rect: self.state.nodes[s].rect,
                    lines: self.state.line[r].to_vec(),
                });
            }
        }
    }

    fn partition(&mut self, machine: &Machine, want: &[bool]) {
        // Remove retired lanes in-model: flag lanes of finished segments
        // and compact with the deletion primitive (Sec. 4.3 mechanics).
        let lane_finished: Vec<bool> = {
            // Broadcast the per-node flag across its lanes (the paper
            // would place the flag at the segment head and copy-scan it;
            // the per-node loop is the same one-op broadcast).
            let mut per_lane = vec![false; self.state.seg.len()];
            for (s, r) in self.state.seg.ranges().enumerate() {
                if !want[s] {
                    per_lane[r].fill(true);
                }
            }
            per_lane
        };
        let layout = machine.delete_layout(&self.state.seg, &lane_finished);
        // The deletion gather is strictly increasing, so the lane vectors
        // close ranks in place — no second buffer per vector.
        let mut line = std::mem::take(&mut self.state.line);
        machine.apply_in_place(&mut line, &layout);
        let mut rect = std::mem::take(&mut self.state.rect);
        machine.apply_in_place(&mut rect, &layout);
        let kept_nodes: Vec<ActiveNode> = self
            .state
            .nodes
            .iter()
            .zip(want.iter())
            .filter(|(_, &w)| w)
            .map(|(n, _)| *n)
            .collect();
        // The layout's output descriptor is the kept nodes' segments: a
        // retired node's lanes all vanish, and its segment with them.
        debug_assert_eq!(layout.seg.num_segments(), kept_nodes.len());
        let compacted = LineProcSet {
            line,
            rect,
            seg: layout.seg,
            nodes: kept_nodes,
        };

        // Subdivide every remaining node (Sec. 4.6, two stages).
        self.state = split_active_nodes(machine, compacted, self.segs);
    }

    fn advance(&mut self, _machine: &Machine, split_any: bool) -> RoundAdvance {
        RoundAdvance {
            round_completed: split_any,
            finished: !split_any || self.state.nodes.is_empty(),
        }
    }
}

/// Generic iterative quadtree build (paper Secs. 5.1–5.2): a
/// [`QuadSplitPolicy`] run to completion by the unified [`RoundDriver`].
///
/// Each round: decide which nodes split; retire the rest as leaves; apply
/// the two-stage node split (Sec. 4.6) to the remainder. `max_depth`
/// bounds subdivision.
pub fn run_quad_build(
    machine: &Machine,
    world: Rect,
    segs: &[LineSeg],
    max_depth: usize,
    decide: &mut SplitDecision<'_>,
) -> QuadBuildOutcome {
    match QuadSplitPolicy::new(world, segs, max_depth, decide) {
        Some(mut policy) => {
            let rounds = RoundDriver::run(machine, &mut policy);
            policy.into_outcome(rounds)
        }
        None => QuadBuildOutcome {
            leaves: Vec::new(),
            rounds: 0,
            truncated: 0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> Rect {
        Rect::from_coords(0.0, 0.0, 8.0, 8.0)
    }

    #[test]
    fn initial_state_is_single_root_segment() {
        let segs = vec![
            LineSeg::from_coords(1.0, 1.0, 2.0, 2.0),
            LineSeg::from_coords(5.0, 5.0, 6.0, 6.0),
        ];
        let s = LineProcSet::initial(world(), &segs);
        s.validate();
        assert_eq!(s.len(), 2);
        assert_eq!(s.nodes.len(), 1);
        assert_eq!(s.nodes[0].path, NodePath::ROOT);
    }

    #[test]
    fn empty_input_short_circuits() {
        let m = Machine::sequential();
        let mut decide =
            |_: &Machine, _: &LineProcSet, _: &[LineSeg]| -> Vec<bool> { unreachable!() };
        let out = run_quad_build(&m, world(), &[], 5, &mut decide);
        assert!(out.leaves.is_empty());
        assert_eq!(out.rounds, 0);
    }

    #[test]
    fn never_split_yields_single_root_leaf() {
        let segs = vec![LineSeg::from_coords(1.0, 1.0, 6.0, 6.0)];
        let m = Machine::sequential();
        let mut decide = |_: &Machine, st: &LineProcSet, _: &[LineSeg]| vec![false; st.nodes.len()];
        let out = run_quad_build(&m, world(), &segs, 5, &mut decide);
        assert_eq!(out.leaves.len(), 1);
        assert_eq!(out.leaves[0].path, NodePath::ROOT);
        assert_eq!(out.leaves[0].lines, vec![0]);
        assert_eq!(out.rounds, 0);
    }

    #[test]
    fn always_split_respects_depth_bound() {
        // A segment crossing the centre keeps every containing block
        // splittable; with an always-split policy the depth bound stops
        // the build and reports truncation.
        let segs = vec![LineSeg::from_coords(1.0, 1.0, 6.0, 6.0)];
        let m = Machine::sequential();
        let mut decide = |_: &Machine, st: &LineProcSet, _: &[LineSeg]| vec![true; st.nodes.len()];
        let out = run_quad_build(&m, world(), &segs, 3, &mut decide);
        assert!(out.truncated > 0);
        assert!(out.leaves.iter().all(|l| l.path.depth() as usize <= 3));
        assert_eq!(out.rounds, 3);
        // Every leaf's lines actually pass through the leaf's block.
        for leaf in &out.leaves {
            for &id in &leaf.lines {
                assert!(dp_geom::seg_in_block(&segs[id as usize], &leaf.rect));
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside the half-open world")]
    fn rejects_out_of_world() {
        let segs = vec![LineSeg::from_coords(0.0, 0.0, 8.0, 8.0)];
        LineProcSet::initial(world(), &segs);
    }
}
