//! The line processor set: the central object of the paper's Section 5.
//!
//! During a data-parallel quadtree build, one conceptual processor holds
//! each *(line, node)* pair: the line's identifier plus "the size and
//! position of the node that it resides in" (paper Sec. 4.6). Processors
//! belonging to the same node form a contiguous *segment* of the linear
//! processor ordering. [`LineProcSet`] is that state with the
//! duplication taken out: **a block per node, not per lane**. A lane
//! carries only its line id; the node's path and rectangle are stored
//! once, in the per-node list aligned with the [`Segments`] descriptor,
//! and an elementwise step that needs a lane's block reads it from there
//! by segment index ([`Machine::seg_map_lanes_into`]). The block is
//! constant within a segment, so nothing the paper's formulation computes
//! changes — only what each round has to move.
//!
//! [`run_quad_build`] is the generic iterative build entry point of
//! Sections 5.1–5.2. The round loop itself lives in the unified
//! [`crate::round_driver::RoundDriver`]; this module contributes
//! [`QuadSplitPolicy`] — the quadtree-family
//! [`crate::round_driver::SplitPolicy`] shared by PM₁, PM₂, PM₃ and the
//! bucket PMR quadtree, which differ only in their *split decision*
//! closure. Per round: the decision marks nodes, finished nodes retire —
//! **the retired segments of the lane vector are the tree's leaves**, so
//! retiring one is a single copy of its lanes onto the end of the tree's
//! id vector ([`QuadtreeAssembler::place`]) — and the remaining nodes
//! subdivide via the two-stage node split of Section 4.6
//! ([`crate::split`]), whose first cut also drops the retired lanes.

use crate::quadtree::{DpQuadtree, QuadtreeAssembler};
use crate::round_driver::{RoundAdvance, RoundDriver, SplitPolicy};
use crate::split::split_active_nodes;
use crate::SegId;
use dp_geom::{seg_in_block, LineSeg, NodePath, Rect};
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
    /// Per lane: the line's identifier — the only thing a lane carries.
    pub line: Vec<SegId>,
    /// Lanes grouped by node.
    pub seg: Segments,
    /// Active nodes, aligned with the segments of `seg`. A lane's block is
    /// its segment's node's [`ActiveNode::rect`], read through
    /// [`Machine::seg_map_lanes_into`].
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
    /// count, and every lane's line belongs to its node's block
    /// ([`seg_in_block`]) — the invariant the node split's clip-free
    /// classification ([`crate::split::classify_cut`]) starts from. The
    /// split preserves it; a frontier assembled by hand must establish it.
    ///
    /// # Panics
    ///
    /// Panics if the state is inconsistent.
    pub fn validate(&self, segs: &[LineSeg]) {
        assert_eq!(self.seg.num_segments(), self.nodes.len());
        assert_eq!(self.seg.len(), self.line.len());
        for (s, r) in self.seg.ranges().enumerate() {
            for i in r {
                assert!(
                    seg_in_block(&segs[self.line[i] as usize], &self.nodes[s].rect),
                    "lane {i}: line {} does not belong to node {s}'s block",
                    self.line[i]
                );
            }
        }
    }
}

/// The structure-specific split decision: given the machine and the
/// current state, return one flag per active node — `true` to subdivide.
/// The driver overrides the flag to `false` at the depth bound.
pub type SplitDecision<'a> = dyn FnMut(&Machine, &LineProcSet, &[LineSeg]) -> Vec<bool> + 'a;

/// The quadtree-family [`SplitPolicy`]: owns the frontier [`LineProcSet`]
/// and the tree under assembly, defers the per-node split verdict to a
/// structure-specific [`SplitDecision`] closure (PM₁ vertex test, bucket
/// PMR capacity test, ...), and partitions via the two-stage node split of
/// paper Sec. 4.6. One driver step is one subdivision round.
pub struct QuadSplitPolicy<'d, 'c, 's> {
    segs: &'s [LineSeg],
    max_depth: usize,
    decide: &'d mut SplitDecision<'c>,
    state: LineProcSet,
    out: QuadtreeAssembler,
    truncated: usize,
}

impl<'d, 'c, 's> QuadSplitPolicy<'d, 'c, 's> {
    /// A policy over the initial single-root frontier, assembling a fresh
    /// tree. Returns `None` for empty input, where there is no frontier to
    /// drive (the build is trivially zero leaves, zero rounds).
    pub fn new(
        world: Rect,
        segs: &'s [LineSeg],
        max_depth: usize,
        decide: &'d mut SplitDecision<'c>,
    ) -> Option<Self> {
        Self::from_frontier(
            LineProcSet::initial(world, segs),
            segs,
            max_depth,
            decide,
            QuadtreeAssembler::new(world),
        )
    }

    /// A policy resuming from an arbitrary pre-populated frontier instead
    /// of the single root — the split-repair pass of the batch updater
    /// ([`crate::update`]) seeds it with the leaf blocks whose line sets
    /// changed, each node carrying its *absolute* root-to-block path, and
    /// hands over `out` with the untouched leaves already placed, so the
    /// retired blocks drop straight into the tree beside them. Every
    /// lane's line must belong to its node's block (debug builds check it:
    /// [`LineProcSet::validate`]). Returns `None` (dropping `out`) when the
    /// frontier holds no nodes.
    pub fn from_frontier(
        state: LineProcSet,
        segs: &'s [LineSeg],
        max_depth: usize,
        decide: &'d mut SplitDecision<'c>,
        out: QuadtreeAssembler,
    ) -> Option<Self> {
        if state.nodes.is_empty() {
            return None;
        }
        if cfg!(debug_assertions) {
            state.validate(segs);
        }
        Some(QuadSplitPolicy {
            segs,
            max_depth,
            decide,
            state,
            out,
            truncated: 0,
        })
    }

    /// Consumes the policy into the tree under assembly and the number of
    /// leaves the depth bound cut off while they still wanted to split
    /// (e.g. the over-capacity max-resolution bucket of paper Fig. 38).
    pub fn into_parts(self) -> (QuadtreeAssembler, usize) {
        (self.out, self.truncated)
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
        // Retire finished nodes: their lanes, as they lie, are the leaf.
        for (s, r) in self.state.seg.ranges().enumerate() {
            if !want[s] {
                self.out
                    .place(self.state.nodes[s].path, &self.state.line[r]);
            }
        }
    }

    fn partition(&mut self, machine: &Machine, want: &[bool]) {
        // Subdivide every splitting node (Sec. 4.6, two cuts); the first
        // cut's layout also drops the lanes of the nodes `emit` retired.
        split_active_nodes(machine, &mut self.state, want, self.segs);
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
/// bounds subdivision. The one emission path shared by every
/// quadtree-family builder (PM₁ fused and unfused, PM₂, PM₃, bucket PMR).
pub fn run_quad_build(
    machine: &Machine,
    world: Rect,
    segs: &[LineSeg],
    max_depth: usize,
    decide: &mut SplitDecision<'_>,
) -> DpQuadtree {
    match QuadSplitPolicy::new(world, segs, max_depth, decide) {
        Some(mut policy) => {
            let rounds = RoundDriver::run(machine, &mut policy);
            let (out, truncated) = policy.into_parts();
            out.finish(rounds, truncated)
        }
        None => QuadtreeAssembler::new(world).finish(0, 0),
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
        s.validate(&segs);
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
        assert_eq!(out.num_nodes(), 1);
        out.for_each_leaf(|_, _, lines| assert!(lines.is_empty()));
        assert_eq!(out.rounds(), 0);
    }

    #[test]
    fn never_split_yields_single_root_leaf() {
        let segs = vec![LineSeg::from_coords(1.0, 1.0, 6.0, 6.0)];
        let m = Machine::sequential();
        let mut decide = |_: &Machine, st: &LineProcSet, _: &[LineSeg]| vec![false; st.nodes.len()];
        let out = run_quad_build(&m, world(), &segs, 5, &mut decide);
        assert_eq!(out.num_nodes(), 1);
        out.for_each_leaf(|rect, depth, lines| {
            assert_eq!((*rect, depth, lines), (world(), 0, &[0][..]));
        });
        assert_eq!(out.rounds(), 0);
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
        assert!(out.truncated() > 0);
        assert_eq!(out.rounds(), 3);
        out.for_each_leaf(|rect, depth, lines| {
            assert!(depth <= 3);
            // Every leaf's lines actually pass through the leaf's block.
            for &id in lines {
                assert!(dp_geom::seg_in_block(&segs[id as usize], rect));
            }
        });
    }

    #[test]
    #[should_panic(expected = "outside the half-open world")]
    fn rejects_out_of_world() {
        let segs = vec![LineSeg::from_coords(0.0, 0.0, 8.0, 8.0)];
        LineProcSet::initial(world(), &segs);
    }
}
