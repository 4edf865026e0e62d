//! Data-parallel R-tree construction (paper Sec. 5.3).
//!
//! All segments are inserted simultaneously. The tree is represented the
//! way the paper draws it (Figs. 39–44): the **line processor set** at the
//! bottom, plus one **node processor set per height**, each grouping the
//! set below it into contiguous segments. Concretely, [`DpRTree`] holds a
//! stack of [`Segments`]: `groups[0]` groups lanes into leaves, and
//! `groups[h]` groups the height-`h` nodes under their height-`h+1`
//! parents; the root is the single segment at the top.
//!
//! Per round, every node counts its children (the node capacity check,
//! Fig. 19 / Fig. 39's `count` row); every node over `M` splits once via a
//! split selector ([`crate::rsplit`]) and an unshuffle (Figs. 40–41);
//! splits of height-`h` nodes add a child to their parents, which may
//! overflow and split when the round reaches height `h+1` ("these splits
//! possibly propagating upward"); an overflowing root splits and a new
//! root level appears above it (Fig. 42). The build terminates when every
//! node has at most `M` children (Fig. 44) — O(log n) rounds.
//!
//! Because the split reorders a node's children and children are stored
//! contiguously, a split at height `h` permutes whole blocks of every
//! level below — the "expensive processor reordering" the paper's SAM
//! discussion points at (Fig. 12). The build performs it as a cascade of
//! block gathers.
//!
//! # What a round costs
//!
//! The paper charges every split step two sorts (the sweep selector's two
//! axes), O(log² n) primitive time over the build, and a literal
//! implementation also re-derives each level's item boxes from the lanes
//! before it can split that level. Neither is needed, because nothing a
//! step does invalidates them; the split policy carries both across steps:
//!
//! * **Node MBRs.** A node's box depends only on the set of lanes under
//!   it. A split changes that set for the split nodes alone, and their two
//!   new boxes are the selector's own `L Bbox` / `R Bbox` rows at the
//!   chosen position ([`crate::rsplit`]); every reordering moves the
//!   boxes with their blocks. So the policy holds every level's node
//!   boxes at all times — they are the items a split one level up reads,
//!   and at the end they *are* the tree's `node_mbrs`. (`min`/`max` are
//!   exact, so a box folded in sweep order equals the box folded in lane
//!   order bit for bit — short of an extent where `+0.0` and `-0.0` tie,
//!   whose sign then follows the fold order; `==` cannot tell.)
//! * **Leaf axis orders.** The leaf level — the only level with `n` items
//!   — is sorted by `min.x` and by `min.y` **once**, at its first split.
//!   Afterwards each order is *maintained*: a leaf split stably
//!   unshuffles it by the split classes (its entries renamed through the
//!   unshuffle's targets), an upper-level cascade block-gathers it. The
//!   unshuffle is stable, so two lanes that stay in one leaf never swap,
//!   in the lane vector or in either order; the sort's (key, lane)
//!   tie-break therefore still holds in every new leaf and the maintained
//!   order is exactly what a fresh sort of the moved lanes would return.
//!   A leaf round is O(1) scans, permutations and elementwise passes, and
//!   the leaf level costs two sorts plus O(log n) such rounds.
//!
//! Upper levels hold a geometrically shrinking number of items and still
//! sort per split. `tests/rtree_differential.rs` checks, after every
//! driver step, that the carried state equals its recomputation from the
//! lanes, and pins the finished trees' bytes to digests taken before the
//! state was carried.

use crate::round_driver::{RoundAdvance, RoundDriver, SplitPolicy};
use crate::rsplit::{
    lower_edge_orders, segment_mbrs, split_classes, AxisOrders, RtreeSplitAlgorithm,
};
use crate::SegId;
use dp_geom::{LineSeg, Point, Rect};
use scan_model::{Machine, Segments};

/// What [`DpRTree::raw_parts`] hands the snapshot codec: `(lane_line,
/// lane_bbox, per-level group lengths, node_mbrs, rounds)`.
pub(crate) type RtreeRawParts<'a> = (
    &'a [SegId],
    &'a [Rect],
    Vec<Vec<usize>>,
    &'a [Vec<Rect>],
    usize,
);

/// A data-parallel R-tree of order `(m, M)` over a borrowed segment slice.
#[derive(Debug, Clone, PartialEq)]
pub struct DpRTree {
    m: usize,
    max: usize,
    /// Per lane: indexed segment id.
    lane_line: Vec<SegId>,
    /// Per lane: the segment's bounding rectangle.
    lane_bbox: Vec<Rect>,
    /// `groups[0]` groups lanes into leaves; `groups[h]` groups height-`h`
    /// nodes under their parents. The top descriptor has one segment: the
    /// root.
    groups: Vec<Segments>,
    /// `node_mbrs[h][s]`: MBR of node `s` at grouping level `h`.
    node_mbrs: Vec<Vec<Rect>>,
    rounds: usize,
}

/// Structure statistics for a [`DpRTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RtStats {
    /// Total nodes across all levels (including the root).
    pub nodes: usize,
    /// Leaf nodes.
    pub leaves: usize,
    /// Height: number of grouping levels (single-leaf tree = 0).
    pub height: usize,
    /// Indexed entries (lanes).
    pub entries: usize,
    /// Largest leaf occupancy.
    pub max_leaf_occupancy: usize,
}

/// Builds an order `(m, M)` R-tree over `segs` with all segments inserted
/// simultaneously (paper Sec. 5.3).
///
/// # Panics
///
/// Panics unless `1 <= m <= (M + 1) / 2` and `M >= 2`.
pub fn build_rtree(
    machine: &Machine,
    segs: &[LineSeg],
    m: usize,
    max: usize,
    algo: RtreeSplitAlgorithm,
) -> DpRTree {
    build_rtree_audited(machine, segs, m, max, algo, &mut |_| {})
}

/// What the build carries from one driver step to the next, as
/// [`build_rtree_audited`] shows it to a test after every step.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub struct RtreeBuildAudit<'a> {
    /// Per lane: the segment's bounding rectangle, in current lane order.
    pub lane_bbox: &'a [Rect],
    /// The level stack (`groups[0]` groups lanes into leaves).
    pub groups: &'a [Segments],
    /// Carried: `node_mbrs[h][s]` is the MBR of node `s` at level `h`.
    pub node_mbrs: &'a [Vec<Rect>],
    /// Carried (sweep selector, once a leaf has split): the leaf level's
    /// gather orders by `min.x` and by `min.y`.
    pub leaf_orders: Option<&'a [Vec<usize>; 2]>,
}

/// [`build_rtree`] with a test hook: `audit` sees the carried state after
/// every driver step, so a differential test can compare it against a
/// recomputation from the lanes. Not part of the supported surface.
#[doc(hidden)]
pub fn build_rtree_audited(
    machine: &Machine,
    segs: &[LineSeg],
    m: usize,
    max: usize,
    algo: RtreeSplitAlgorithm,
    audit: &mut dyn FnMut(RtreeBuildAudit<'_>),
) -> DpRTree {
    assert!(max >= 2, "M must be at least 2");
    assert!(
        m >= 1 && 2 * m <= max + 1,
        "need 1 <= m <= (M+1)/2, got m={m}, M={max}"
    );
    let n = segs.len();
    let mut tree = DpRTree {
        m,
        max,
        lane_line: (0..n as SegId).collect(),
        lane_bbox: segs.iter().map(|s| s.bbox()).collect(),
        groups: vec![Segments::single(n)],
        node_mbrs: Vec::new(),
        rounds: 0,
    };
    if n == 0 {
        tree.node_mbrs = vec![vec![Rect::empty()]];
        return tree;
    }

    let root_mbr = segment_mbrs(machine, &tree.groups[0], &tree.lane_bbox, |_, r| Some(r));
    let mut policy = RtreeSplitPolicy {
        tree: &mut tree,
        algo,
        h: 0,
        sweep_split_any: false,
        node_mbrs: vec![root_mbr],
        leaf_orders: None,
    };
    let mut driver = RoundDriver::new();
    loop {
        let finished = driver.step(machine, &mut policy).finished;
        audit(RtreeBuildAudit {
            lane_bbox: &policy.tree.lane_bbox,
            groups: &policy.tree.groups,
            node_mbrs: &policy.node_mbrs,
            leaf_orders: policy.leaf_orders.as_ref(),
        });
        if finished {
            break;
        }
    }
    let node_mbrs = policy.node_mbrs;
    tree.rounds = driver.rounds();
    tree.node_mbrs = node_mbrs;
    tree
}

/// The R-tree [`SplitPolicy`]: the bottom-up overflow sweep of paper
/// Sec. 5.3 expressed as driver steps. One step visits one grouping level
/// `h` (counts → overflow decision → split + unshuffle + upward
/// propagation); a *round* completes only when a full bottom-to-top sweep
/// ends, matching the paper's "splits possibly propagating upward" —
/// `advance` therefore carries a height cursor instead of equating steps
/// with rounds. A mid-sweep root split grows a new level that the same
/// sweep still visits (Fig. 42).
///
/// The policy also owns what a step would otherwise recompute from the
/// lanes (see the module docs): every node's MBR, and for the sweep
/// selector the leaf level's two sorted axis orders.
struct RtreeSplitPolicy<'t> {
    tree: &'t mut DpRTree,
    algo: RtreeSplitAlgorithm,
    /// Height cursor: the grouping level this step examines.
    h: usize,
    /// Whether any node split since the current sweep began.
    sweep_split_any: bool,
    /// `node_mbrs[h][s]`: MBR of node `s` at level `h`, current after
    /// every step; the items a split at level `h + 1` reads, and the
    /// finished tree's `node_mbrs`.
    node_mbrs: Vec<Vec<Rect>>,
    /// The leaf level's [`lower_edge_orders`], sorted at the first leaf
    /// split of a sweep-selector build and kept equal to a fresh sort of
    /// the current lanes by every later reordering.
    leaf_orders: Option<AxisOrders>,
}

impl SplitPolicy for RtreeSplitPolicy<'_> {
    fn active_elements(&self) -> usize {
        self.tree.groups[self.h].len()
    }

    fn active_nodes(&self) -> usize {
        self.tree.groups[self.h].num_segments()
    }

    /// The node capacity check at the cursor's level (Fig. 19 / Fig. 39's
    /// `count` row): one flag per node, `true` when it holds more than `M`
    /// items.
    fn decide(&mut self, machine: &Machine) -> Vec<bool> {
        let counts = machine.segment_counts(&self.tree.groups[self.h]);
        machine.note_elementwise();
        counts.iter().map(|&c| c as usize > self.tree.max).collect()
    }

    fn emit(&mut self, _machine: &Machine, _want: &[bool]) {
        // Nothing retires: R-tree nodes stay in the level stack; only the
        // overflowing ones move (split) this step.
    }

    /// Splits every overflowing node of the cursor's level once:
    /// split-class selection, unshuffle (cascading below an upper level),
    /// new segment lengths, upward propagation of the extra children (root
    /// growth included), and the refresh of the split level's node MBRs.
    fn partition(&mut self, machine: &Machine, overflowing: &[bool]) {
        let h = self.h;
        let (m, max) = (self.tree.m, self.tree.max);
        if h == 0 && self.algo == RtreeSplitAlgorithm::Sweep && self.leaf_orders.is_none() {
            let tree = &*self.tree;
            self.leaf_orders = Some(lower_edge_orders(machine, &tree.groups[0], &tree.lane_bbox));
        }
        let sorted = if h == 0 {
            self.leaf_orders.as_ref()
        } else {
            None
        };
        let seg = &self.tree.groups[h];
        let split = split_classes(
            machine,
            seg,
            self.items(h),
            overflowing,
            m,
            max,
            self.algo,
            sorted,
        );

        // Partition the items of each overflowing segment.
        let un = machine.unshuffle_layout(seg, &split.class);
        // Convert the scatter targets to a gather order.
        machine.note_permute();
        let mut order = vec![0usize; un.target.len()];
        for (i, &t) in un.target.iter().enumerate() {
            order[t] = i;
        }
        if h == 0 {
            if let Some(orders) = &mut self.leaf_orders {
                for axis in orders {
                    unshuffle_axis_order(machine, seg, axis, &split.class, &un.target);
                }
            }
            self.gather_lanes(machine, &order);
        } else {
            self.cascade_item_order(machine, h, order);
        }

        // Overflowing nodes become two: new level-h segment lengths, and
        // the two groups' boxes in place of the node's. No other node's
        // box changes — every other node still covers the same lanes.
        let tree = &mut *self.tree;
        let nodes = &mut self.node_mbrs[h];
        let root_mbr = nodes[0];
        let mut new_lengths = Vec::with_capacity(nodes.len() + split.halves.len());
        let mut new_nodes = Vec::with_capacity(nodes.len() + split.halves.len());
        let mut halves = split.halves.into_iter();
        for (s, r) in tree.groups[h].ranges().enumerate() {
            if overflowing[s] {
                let (na, nb) = un.counts[s];
                debug_assert!(na >= m && nb >= m);
                new_lengths.extend([na, nb]);
                new_nodes.extend(halves.next().expect("one pair of boxes per split node"));
            } else {
                new_lengths.push(r.len());
                new_nodes.push(nodes[s]);
            }
        }
        *nodes = new_nodes;

        if h + 1 < tree.groups.len() {
            // Propagate the extra children to the parents.
            let parent = &tree.groups[h + 1];
            let mut parent_lengths: Vec<usize> = parent.lengths();
            for (s, _) in overflowing.iter().enumerate().filter(|(_, &o)| o) {
                parent_lengths[parent.segment_of(s)] += 1;
            }
            tree.groups[h + 1] = Segments::from_lengths(&parent_lengths)
                .expect("parents keep at least their previous children");
        } else {
            // The root split: grow a new root level above (Fig. 42); the
            // new root covers what the old one did.
            tree.groups.push(Segments::single(new_lengths.len()));
            self.node_mbrs.push(vec![root_mbr]);
        }
        tree.groups[h] =
            Segments::from_lengths(&new_lengths).expect("split sides are non-empty (>= m >= 1)");
    }

    fn advance(&mut self, _machine: &Machine, split_any: bool) -> RoundAdvance {
        self.sweep_split_any |= split_any;
        self.h += 1;
        if self.h < self.tree.groups.len() {
            // Sweep continues upward (possibly into a level a root split
            // just created).
            return RoundAdvance {
                round_completed: false,
                finished: false,
            };
        }
        // Sweep finished: a round completed iff anything split; the build
        // is done once a full sweep finds nothing over capacity.
        let completed = self.sweep_split_any;
        self.h = 0;
        self.sweep_split_any = false;
        RoundAdvance {
            round_completed: completed,
            finished: !completed,
        }
    }
}

impl RtreeSplitPolicy<'_> {
    /// Item MBRs at grouping level `h`: lane bboxes for `h = 0`, otherwise
    /// the carried node MBRs of level `h - 1`.
    fn items(&self, h: usize) -> &[Rect] {
        match h {
            0 => &self.tree.lane_bbox,
            _ => &self.node_mbrs[h - 1],
        }
    }

    /// Reorders the lane vectors by `order` (gather indices).
    fn gather_lanes(&mut self, machine: &Machine, order: &[usize]) {
        let tree = &mut *self.tree;
        tree.lane_line = machine.gather(&tree.lane_line, order);
        tree.lane_bbox = machine.gather(&tree.lane_bbox, order);
    }

    /// Reorders the items at level `h >= 1` by `order` (gather indices),
    /// cascading whole-block moves down to the lanes; the carried node
    /// MBRs and leaf orders move with their blocks.
    fn cascade_item_order(&mut self, machine: &Machine, h: usize, mut order: Vec<usize>) {
        for level in (1..=h).rev() {
            // Items at `level` are the segments of groups[level - 1];
            // reorder those segments and induce the item order one level
            // down.
            self.node_mbrs[level - 1] = machine.gather(&self.node_mbrs[level - 1], &order);
            let below = &self.tree.groups[level - 1];
            machine.note_permute();
            let mut new_lengths = Vec::with_capacity(order.len());
            let mut induced = Vec::with_capacity(below.len());
            for &item in &order {
                let r = below.range(item);
                new_lengths.push(r.len());
                induced.extend(r);
            }
            self.tree.groups[level - 1] =
                Segments::from_lengths(&new_lengths).expect("segment lengths are preserved");
            order = induced;
        }
        if let Some(orders) = &mut self.leaf_orders {
            // Lanes moved in whole leaves, so an entry's lane shifted as
            // far as the entry's own position did: a block gather.
            for axis in orders {
                machine.note_permute();
                let mut moved = [Vec::new()];
                machine.fill_lanes_into(
                    order.len(),
                    |i| [axis[order[i]] + i - order[i]],
                    &mut moved,
                );
                [*axis] = moved;
            }
        }
        self.gather_lanes(machine, &order);
    }
}

/// Keeps one leaf axis order sorted across a leaf split. `axis` lists
/// each segment's lanes in key order; the split sends lane `i` to
/// `target[i]` by `class[i]`. Renaming the entries through `target` and
/// stably unshuffling them by their lane's class yields each new
/// segment's lanes, still in key order: a stable partition never swaps
/// two entries that stay together, and the lanes' own unshuffle kept
/// equal-key lanes in lane order, so the sort's (key, lane) tie-break
/// survives — the result equals a fresh sort of the moved lanes.
fn unshuffle_axis_order(
    machine: &Machine,
    seg: &Segments,
    axis: &mut Vec<usize>,
    class: &[bool],
    target: &[usize],
) {
    let entry_class = machine.gather(class, axis);
    let layout = machine.unshuffle_layout(seg, &entry_class);
    *axis = machine.apply_unshuffle(&machine.gather(target, axis), &layout);
}

/// Bulk loads a *packed* R-tree: segments are sorted by the Hilbert index
/// of their bounding-box midpoints and chunked into full leaves of `max`
/// entries, then levels of full internal nodes are stacked until a single
/// root remains (Kamel & Faloutsos-style packing — the paper's \[Kame92\]
/// reference; the classic bulk-load comparator for iterative builds).
///
/// The result is a [`DpRTree`] of order `(1, max)`: packing guarantees
/// full nodes except the last one per level, which may hold a single
/// entry. The sort is issued through the machine and counted as one sort
/// plus O(1) scans — packing is a *one-round* build, trading the
/// iterative algorithm's split-quality optimization for speed.
///
/// # Panics
///
/// Panics if `max < 2` or any segment midpoint lies outside `world`.
pub fn pack_rtree_hilbert(machine: &Machine, segs: &[LineSeg], world: Rect, max: usize) -> DpRTree {
    assert!(max >= 2, "M must be at least 2");
    let n = segs.len();
    let mut tree = DpRTree {
        m: 1,
        max,
        lane_line: (0..n as SegId).collect(),
        lane_bbox: segs.iter().map(|s| s.bbox()).collect(),
        groups: vec![Segments::single(n)],
        node_mbrs: Vec::new(),
        rounds: 0,
    };
    if n == 0 {
        tree.node_mbrs = vec![vec![Rect::empty()]];
        return tree;
    }

    // Hilbert keys of the bbox midpoints on a 2^16 grid over the world.
    const ORDER: u32 = 16;
    let side = (1u32 << ORDER) as f64;
    let keys: Vec<u64> = machine.map(&tree.lane_bbox, |b| {
        let c = b.center();
        assert!(
            world.contains(c),
            "segment midpoint {c} outside the packing world"
        );
        let gx = (((c.x - world.min.x) / world.width()) * (side - 1.0)) as u32;
        let gy = (((c.y - world.min.y) / world.height()) * (side - 1.0)) as u32;
        dp_geom::hilbert_d(ORDER, gx, gy)
    });
    let order = machine.segmented_sort_perm(&tree.groups[0], &keys, |a, b| a.cmp(b));
    tree.lane_line = machine.gather(&tree.lane_line, &order);
    tree.lane_bbox = machine.gather(&tree.lane_bbox, &order);

    // Chunk each level into full nodes.
    let mut groups = Vec::new();
    let mut items = n;
    loop {
        let mut lengths = Vec::with_capacity(items.div_ceil(max));
        let mut left = items;
        while left > 0 {
            let take = left.min(max);
            lengths.push(take);
            left -= take;
        }
        let seg = Segments::from_lengths(&lengths).expect("non-empty chunks");
        let nodes = seg.num_segments();
        groups.push(seg);
        if nodes == 1 {
            break;
        }
        items = nodes;
    }
    tree.groups = groups;
    tree.node_mbrs = tree.compute_all_mbrs(machine);
    tree
}

impl DpRTree {
    /// Every level's node MBRs, folded bottom-up from the lane boxes.
    fn compute_all_mbrs(&self, machine: &Machine) -> Vec<Vec<Rect>> {
        let mut out: Vec<Vec<Rect>> = Vec::with_capacity(self.groups.len());
        for seg in &self.groups {
            let items = out.last().map_or(&self.lane_bbox[..], |below| &below[..]);
            let nodes = segment_mbrs(machine, seg, items, |_, r| Some(r));
            out.push(nodes);
        }
        out
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Minimum fanout `m`.
    pub fn min_entries(&self) -> usize {
        self.m
    }

    /// Maximum fanout `M`.
    pub fn max_entries(&self) -> usize {
        self.max
    }

    /// Tree height: number of grouping levels (a single-leaf tree has
    /// height 0 in the paper's Fig. 39 sense — just `N₀`).
    pub fn height(&self) -> usize {
        self.groups.len() - 1
    }

    /// Build rounds taken (the paper's O(log n) stage count).
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Indexed ids, grouped by leaf, in linear processor order.
    pub fn lanes(&self) -> (&[SegId], &Segments) {
        (&self.lane_line, &self.groups[0])
    }

    /// Raw parts for the snapshot codec: `(lane_line, lane_bbox,
    /// per-level group lengths, node_mbrs, rounds)`.
    pub(crate) fn raw_parts(&self) -> RtreeRawParts<'_> {
        (
            &self.lane_line,
            &self.lane_bbox,
            self.groups.iter().map(|g| g.lengths()).collect(),
            &self.node_mbrs,
            self.rounds,
        )
    }

    /// Reassembles a tree from decoded parts — the snapshot codec's
    /// decode path. Structural consistency (lane lengths vs `groups[0]`,
    /// level fanouts, MBR counts) is the codec's responsibility.
    pub(crate) fn from_raw_parts(
        m: usize,
        max: usize,
        lane_line: Vec<SegId>,
        lane_bbox: Vec<Rect>,
        groups: Vec<Segments>,
        node_mbrs: Vec<Vec<Rect>>,
        rounds: usize,
    ) -> Self {
        DpRTree {
            m,
            max,
            lane_line,
            lane_bbox,
            groups,
            node_mbrs,
            rounds,
        }
    }

    /// Structure statistics.
    pub fn stats(&self) -> RtStats {
        RtStats {
            nodes: self.groups.iter().map(|g| g.num_segments()).sum(),
            leaves: self.groups[0].num_segments(),
            height: self.height(),
            entries: self.lane_line.len(),
            max_leaf_occupancy: self.groups[0].ranges().map(|r| r.len()).max().unwrap_or(0),
        }
    }

    /// Split-quality metrics `(coverage, overlap)`: total node MBR area
    /// and total pairwise overlap between siblings (paper Fig. 6's two
    /// goals).
    pub fn quality_metrics(&self) -> (f64, f64) {
        let mut coverage = 0.0;
        let mut overlap = 0.0;
        for (h, seg) in self.groups.iter().enumerate() {
            let mbrs = &self.node_mbrs[h];
            coverage += mbrs.iter().map(|r| r.area()).sum::<f64>();
            // Sibling overlap: nodes sharing a parent. At the top level
            // all nodes are siblings under the root.
            let sibling_groups: Vec<std::ops::Range<usize>> = if h + 1 < self.groups.len() {
                self.groups[h + 1].ranges().collect()
            } else {
                std::iter::once(0..seg.num_segments()).collect()
            };
            for r in sibling_groups {
                for i in r.clone() {
                    for j in (i + 1)..r.end {
                        overlap += mbrs[i].overlap_area(&mbrs[j]);
                    }
                }
            }
        }
        (coverage, overlap)
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Ids whose bounding rectangles intersect `query`, sorted.
    pub fn window_candidates(&self, query: &Rect) -> Vec<SegId> {
        let mut out = Vec::new();
        // (level, node) pairs; level = index into groups.
        let top = self.groups.len() - 1;
        let mut stack: Vec<(usize, usize)> = (0..self.groups[top].num_segments())
            .filter(|&s| self.node_mbrs[top][s].intersects(query))
            .map(|s| (top, s))
            .collect();
        while let Some((level, node)) = stack.pop() {
            let r = self.groups[level].range(node);
            if level == 0 {
                for i in r {
                    if self.lane_bbox[i].intersects(query) {
                        out.push(self.lane_line[i]);
                    }
                }
            } else {
                for child in r {
                    if self.node_mbrs[level - 1][child].intersects(query) {
                        stack.push((level - 1, child));
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Ids of segments that truly intersect `query`.
    pub fn window_query(&self, query: &Rect, segs: &[LineSeg]) -> Vec<SegId> {
        self.window_candidates(query)
            .into_iter()
            .filter(|&id| dp_geom::clip_segment_closed(&segs[id as usize], query).is_some())
            .collect()
    }

    /// Number of tree nodes visited by a window search (the paper's
    /// non-disjointness cost: overlapping rectangles force extra visits).
    pub fn window_nodes_visited(&self, query: &Rect) -> usize {
        let mut visited = 1usize; // the root
        let top = self.groups.len() - 1;
        let mut stack: Vec<(usize, usize)> = (0..self.groups[top].num_segments())
            .filter(|&s| self.node_mbrs[top][s].intersects(query))
            .map(|s| (top, s))
            .collect();
        // Count the root's children we descend into, then below.
        while let Some((level, node)) = stack.pop() {
            visited += 1;
            if level == 0 {
                continue;
            }
            for child in self.groups[level].range(node) {
                if self.node_mbrs[level - 1][child].intersects(query) {
                    stack.push((level - 1, child));
                }
            }
        }
        visited
    }

    /// The nearest indexed segment to `p` by true distance.
    pub fn nearest(&self, p: Point, segs: &[LineSeg]) -> Option<(SegId, f64)> {
        use std::cmp::Ordering;
        use std::collections::BinaryHeap;
        #[derive(PartialEq)]
        struct Item {
            dist2: f64,
            level: usize, // usize::MAX marks a lane entry
            index: usize,
        }
        impl Eq for Item {}
        impl PartialOrd for Item {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Item {
            fn cmp(&self, other: &Self) -> Ordering {
                other.dist2.total_cmp(&self.dist2)
            }
        }
        if self.lane_line.is_empty() {
            return None;
        }
        let top = self.groups.len() - 1;
        let mut heap = BinaryHeap::new();
        for s in 0..self.groups[top].num_segments() {
            heap.push(Item {
                dist2: self.node_mbrs[top][s].dist2_to_point(p),
                level: top,
                index: s,
            });
        }
        while let Some(item) = heap.pop() {
            if item.level == usize::MAX {
                return Some((self.lane_line[item.index], item.dist2.sqrt()));
            }
            let r = self.groups[item.level].range(item.index);
            if item.level == 0 {
                for i in r {
                    heap.push(Item {
                        dist2: segs[self.lane_line[i] as usize].dist2_to_point(p),
                        level: usize::MAX,
                        index: i,
                    });
                }
            } else {
                for child in r {
                    heap.push(Item {
                        dist2: self.node_mbrs[item.level - 1][child].dist2_to_point(p),
                        level: item.level - 1,
                        index: child,
                    });
                }
            }
        }
        None
    }

    // ------------------------------------------------------------------
    // Invariants
    // ------------------------------------------------------------------

    /// Validates the R-tree invariants; panics with a description on the
    /// first violation.
    pub fn check_invariants(&self, segs: &[LineSeg]) {
        if self.lane_line.is_empty() {
            assert_eq!(self.groups.len(), 1);
            return;
        }
        // Level sizes chain correctly.
        assert_eq!(self.groups[0].len(), self.lane_line.len());
        for h in 1..self.groups.len() {
            assert_eq!(
                self.groups[h].len(),
                self.groups[h - 1].num_segments(),
                "level {h} must group the nodes of level {}",
                h - 1
            );
        }
        let top = self.groups.len() - 1;
        assert_eq!(self.groups[top].num_segments(), 1, "single root");
        // Fanout bounds: every node ≤ M; every non-root node ≥ m unless it
        // is the never-split single leaf (tree of height 0).
        for (h, seg) in self.groups.iter().enumerate() {
            for (s, r) in seg.ranges().enumerate() {
                let is_root = h == top;
                if !is_root {
                    assert!(
                        r.len() >= self.m,
                        "node {s} at level {h} has {} < m children",
                        r.len()
                    );
                }
                assert!(
                    r.len() <= self.max,
                    "node {s} at level {h} has {} > M children",
                    r.len()
                );
                if is_root && self.groups.len() > 1 {
                    assert!(r.len() >= 2, "a non-leaf root needs >= 2 children");
                }
            }
        }
        // Single-leaf tree may hold at most M entries only after a build
        // (never-split) — that is exactly when n <= M.
        if self.groups.len() == 1 {
            assert!(self.lane_line.len() <= self.max);
        }
        // MBR containment and correctness.
        let machine = Machine::sequential();
        let recomputed = self.compute_all_mbrs(&machine);
        for (h, level) in recomputed.iter().enumerate() {
            assert_eq!(level, &self.node_mbrs[h], "cached MBRs stale at level {h}");
        }
        // Every lane's bbox matches its segment.
        let mut seen = vec![false; segs.len()];
        for (i, &id) in self.lane_line.iter().enumerate() {
            assert_eq!(self.lane_bbox[i], segs[id as usize].bbox());
            assert!(!seen[id as usize], "segment {id} indexed twice");
            seen[id as usize] = true;
        }
        assert!(seen.iter().all(|&b| b), "segments missing from the tree");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scan_model::Backend;

    fn machines() -> Vec<Machine> {
        vec![
            Machine::sequential(),
            Machine::new(Backend::Parallel).with_par_threshold(1),
        ]
    }

    fn segments(n: usize) -> Vec<LineSeg> {
        (0..n)
            .map(|k| {
                let x = ((k * 37) % 97) as f64;
                let y = ((k * 61) % 89) as f64;
                LineSeg::from_coords(x, y, x + 3.0, y + 2.0)
            })
            .collect()
    }

    /// What a step used to derive before it could split level `h`: the
    /// lane boxes cloned and refolded through every level below.
    fn item_mbrs_from_lanes(
        machine: &Machine,
        lane_bbox: &[Rect],
        groups: &[Segments],
        h: usize,
    ) -> Vec<Rect> {
        let mut mbrs = lane_bbox.to_vec();
        for seg in &groups[..h] {
            mbrs = segment_mbrs(machine, seg, &mbrs, |_, r| Some(r));
        }
        mbrs
    }

    #[test]
    fn carried_state_equals_the_per_step_recomputation() {
        let oracle = Machine::sequential();
        let segs = segments(200);
        for m in machines() {
            for algo in [RtreeSplitAlgorithm::Mean, RtreeSplitAlgorithm::Sweep] {
                for (mn, mx) in [(1usize, 3usize), (2, 5), (4, 8)] {
                    build_rtree_audited(&m, &segs, mn, mx, algo, &mut |a| {
                        for (h, nodes) in a.node_mbrs.iter().enumerate() {
                            let refolded =
                                item_mbrs_from_lanes(&oracle, a.lane_bbox, a.groups, h + 1);
                            assert_eq!(nodes, &refolded, "{algo:?} ({mn},{mx}) level {h}");
                        }
                        if let Some(orders) = a.leaf_orders {
                            let sorted = lower_edge_orders(&oracle, &a.groups[0], a.lane_bbox);
                            assert_eq!(orders, &sorted, "{algo:?} ({mn},{mx})");
                        }
                    });
                }
            }
        }
    }

    #[test]
    fn build_empty_and_small() {
        for m in machines() {
            let t = build_rtree(&m, &[], 1, 3, RtreeSplitAlgorithm::Sweep);
            assert_eq!(t.stats().entries, 0);
            assert!(t.nearest(Point::new(0.0, 0.0), &[]).is_none());

            let segs = segments(3);
            let t = build_rtree(&m, &segs, 1, 3, RtreeSplitAlgorithm::Sweep);
            t.check_invariants(&segs);
            assert_eq!(t.height(), 0);
            assert_eq!(t.rounds(), 0);
        }
    }

    #[test]
    fn paper_configuration_order_1_3_on_9_lines() {
        // Sec. 5.3 / Figs. 39-44: 9 lines, order (1,3). The example ends
        // with three levels (N0 leaves, N1, N2 root).
        for m in machines() {
            let segs = segments(9);
            for algo in [RtreeSplitAlgorithm::Mean, RtreeSplitAlgorithm::Sweep] {
                let t = build_rtree(&m, &segs, 1, 3, algo);
                t.check_invariants(&segs);
                assert!(t.height() >= 1, "{algo:?}");
                assert_eq!(t.stats().entries, 9);
            }
        }
    }

    #[test]
    fn build_invariants_across_sizes_and_orders() {
        for m in machines() {
            for &(mn, mx) in &[(1usize, 3usize), (2, 5), (3, 8)] {
                for &n in &[0usize, 1, 5, 40, 200] {
                    let segs = segments(n);
                    for algo in [RtreeSplitAlgorithm::Mean, RtreeSplitAlgorithm::Sweep] {
                        let t = build_rtree(&m, &segs, mn, mx, algo);
                        t.check_invariants(&segs);
                    }
                }
            }
        }
    }

    #[test]
    fn window_query_matches_brute_force() {
        for m in machines() {
            let segs = segments(120);
            for algo in [RtreeSplitAlgorithm::Mean, RtreeSplitAlgorithm::Sweep] {
                let t = build_rtree(&m, &segs, 2, 6, algo);
                for query in [
                    Rect::from_coords(0.0, 0.0, 25.0, 25.0),
                    Rect::from_coords(40.0, 30.0, 70.0, 60.0),
                    Rect::from_coords(0.0, 0.0, 100.0, 100.0),
                    Rect::from_coords(96.0, 90.0, 99.0, 95.0),
                ] {
                    let got = t.window_query(&query, &segs);
                    let brute: Vec<SegId> = (0..segs.len() as u32)
                        .filter(|&id| {
                            dp_geom::clip_segment_closed(&segs[id as usize], &query).is_some()
                        })
                        .collect();
                    assert_eq!(got, brute, "{algo:?} window {query}");
                }
            }
        }
    }

    #[test]
    fn nearest_matches_brute_force() {
        for m in machines() {
            let segs = segments(60);
            let t = build_rtree(&m, &segs, 2, 5, RtreeSplitAlgorithm::Sweep);
            for p in [
                Point::new(0.0, 0.0),
                Point::new(48.0, 44.0),
                Point::new(96.0, 2.0),
            ] {
                let (_, d) = t.nearest(p, &segs).unwrap();
                let brute = (0..segs.len())
                    .map(|k| segs[k].dist2_to_point(p).sqrt())
                    .min_by(|a, b| a.total_cmp(b))
                    .unwrap();
                assert_eq!(d, brute, "at {p}");
            }
        }
    }

    #[test]
    fn rounds_are_logarithmic() {
        // O(log n) rounds: going from 64 to 512 lines must add only a few
        // rounds, not multiply them.
        let m = Machine::sequential();
        let t64 = build_rtree(&m, &segments(64), 2, 4, RtreeSplitAlgorithm::Sweep);
        let t512 = build_rtree(&m, &segments(512), 2, 4, RtreeSplitAlgorithm::Sweep);
        assert!(t512.rounds() <= t64.rounds() + 6);
        assert!(t512.rounds() >= t64.rounds());
    }

    #[test]
    fn backends_build_identical_trees() {
        let segs = segments(150);
        let a = build_rtree(
            &Machine::sequential(),
            &segs,
            2,
            6,
            RtreeSplitAlgorithm::Sweep,
        );
        let b = build_rtree(
            &Machine::new(Backend::Parallel).with_par_threshold(1),
            &segs,
            2,
            6,
            RtreeSplitAlgorithm::Sweep,
        );
        assert_eq!(a.lane_line, b.lane_line);
        assert_eq!(a.groups, b.groups);
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn duplicate_geometry_allowed() {
        for m in machines() {
            let segs = vec![LineSeg::from_coords(1.0, 1.0, 2.0, 2.0); 11];
            let t = build_rtree(&m, &segs, 2, 4, RtreeSplitAlgorithm::Sweep);
            t.check_invariants(&segs);
            assert_eq!(
                t.window_query(&Rect::from_coords(0.0, 0.0, 3.0, 3.0), &segs)
                    .len(),
                11
            );
        }
    }

    #[test]
    fn packed_tree_invariants_and_queries() {
        let world = Rect::from_coords(0.0, 0.0, 128.0, 128.0);
        for m in machines() {
            for &n in &[0usize, 1, 7, 8, 9, 100] {
                let segs: Vec<LineSeg> = (0..n)
                    .map(|k| {
                        let x = ((k * 37) % 120) as f64;
                        let y = ((k * 61) % 120) as f64;
                        LineSeg::from_coords(x, y, x + 3.0, y + 2.0)
                    })
                    .collect();
                let t = pack_rtree_hilbert(&m, &segs, world, 8);
                t.check_invariants(&segs);
                assert_eq!(t.rounds(), 0, "packing is a one-round build");
                if n > 0 {
                    let q = Rect::from_coords(10.0, 10.0, 60.0, 60.0);
                    let brute: Vec<SegId> = (0..n as u32)
                        .filter(|&id| {
                            dp_geom::clip_segment_closed(&segs[id as usize], &q).is_some()
                        })
                        .collect();
                    assert_eq!(t.window_query(&q, &segs), brute);
                }
            }
        }
    }

    #[test]
    fn packed_leaves_are_full_except_last() {
        let world = Rect::from_coords(0.0, 0.0, 128.0, 128.0);
        let m = Machine::sequential();
        let segs = segments(27);
        let t = pack_rtree_hilbert(&m, &segs, world, 8);
        let (_, leaf_seg) = t.lanes();
        let lens = leaf_seg.lengths();
        assert_eq!(lens, vec![8, 8, 8, 3]);
    }

    #[test]
    fn packed_tree_has_low_coverage_on_clustered_data() {
        // Hilbert packing groups spatially close segments; on clustered
        // data its coverage must be competitive with (well under 2x) the
        // iterative sweep build.
        let world = Rect::from_coords(0.0, 0.0, 128.0, 128.0);
        let m = Machine::sequential();
        let segs = segments(200);
        let packed = pack_rtree_hilbert(&m, &segs, world, 8);
        let swept = build_rtree(&m, &segs, 2, 8, RtreeSplitAlgorithm::Sweep);
        let (cov_p, _) = packed.quality_metrics();
        let (cov_s, _) = swept.quality_metrics();
        assert!(cov_p < cov_s * 2.0, "packed {cov_p} vs swept {cov_s}");
    }

    #[test]
    fn quality_metrics_finite() {
        let m = Machine::sequential();
        let segs = segments(100);
        let t = build_rtree(&m, &segs, 2, 6, RtreeSplitAlgorithm::Sweep);
        let (cov, ov) = t.quality_metrics();
        assert!(cov.is_finite() && cov > 0.0);
        assert!(ov.is_finite() && ov >= 0.0);
    }
}
