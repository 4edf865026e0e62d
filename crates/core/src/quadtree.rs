//! The built quadtree — two flat vectors — the assembler that fills them
//! from a data-parallel build, and the query surface.
//!
//! The paper's build ends with the line processor set grouped by node
//! (Sec. 5.1, Fig. 33): one segmented vector. **The retired segments of
//! the lane vector are the tree's leaves**: when the build driver
//! ([`crate::lineproc::run_quad_build`]) retires a node, its lanes are
//! appended to the tree's one id vector and the leaf records only where
//! they start and how many there are. [`DpQuadtree`] is `nodes` — one
//! 16-byte slot per node — plus `ids`; no node owns a `Vec`.
//!
//! [`QuadtreeAssembler`] materializes the full tree around the non-empty
//! leaves it is handed: every internal node has exactly four children,
//! with children that received no lines becoming empty leaves (the PM₁
//! quadtree creates empty blocks eagerly — paper Sec. 2.1 and Fig. 2's
//! "eleven of which are empty").

use crate::SegId;
use dp_geom::morton::MAX_DEPTH;
use dp_geom::{LineSeg, NodePath, Point, Rect};

/// A node of the built quadtree, as [`DpQuadtree::node`] hands it out: a
/// by-value view into the tree's two vectors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QtNode<'a> {
    /// Internal node; children in NW, NE, SW, SE order.
    Internal {
        /// Child indices.
        children: [usize; 4],
    },
    /// Leaf block with the ids of the lines passing through it.
    Leaf {
        /// Line ids (q-edges of the block).
        lines: &'a [SegId],
    },
}

/// A stored node, four `u32` words: an internal node's child indexes, or
/// `[LEAF, start, len, 0]` for a leaf holding `ids[start..start + len]`.
/// The tag costs no fifth word because no node index is ever [`LEAF`] —
/// the assembler and the decoder both refuse a node count that large.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot([u32; 4]);

/// First word of a leaf [`Slot`]; never a valid child index.
const LEAF: u32 = u32::MAX;

/// Most nodes a tree can hold (so every node index is below [`LEAF`]).
pub(crate) const MAX_NODES: usize = LEAF as usize;

const _: () = assert!(std::mem::size_of::<Slot>() <= 16);

/// What a [`Slot`]'s four words say.
#[derive(Clone, Copy)]
enum Kind {
    Internal([u32; 4]),
    Leaf { start: u32, len: u32 },
}

impl Slot {
    const EMPTY_LEAF: Slot = Slot::leaf(0, 0);

    /// An internal node. Every child index must be below [`MAX_NODES`].
    pub(crate) const fn internal(children: [u32; 4]) -> Slot {
        Slot(children)
    }

    /// A leaf holding `ids[start..start + len]`.
    pub(crate) const fn leaf(start: u32, len: u32) -> Slot {
        Slot([LEAF, start, len, 0])
    }

    fn kind(self) -> Kind {
        let Slot(words) = self;
        if words[0] == LEAF {
            Kind::Leaf {
                start: words[1],
                len: words[2],
            }
        } else {
            Kind::Internal(words)
        }
    }
}

/// A quadtree built by a data-parallel build: a node vector and one id
/// vector the leaves point into.
///
/// Equality compares node views, not the vectors: an assembled tree lays
/// `ids` out in placement order and a decoded one in node order.
#[derive(Debug, Clone)]
pub struct DpQuadtree {
    world: Rect,
    nodes: Vec<Slot>,
    ids: Vec<SegId>,
    rounds: usize,
    truncated: usize,
}

impl PartialEq for DpQuadtree {
    fn eq(&self, other: &Self) -> bool {
        self.world == other.world
            && self.rounds == other.rounds
            && self.truncated == other.truncated
            && self.nodes.len() == other.nodes.len()
            && (0..self.nodes.len()).all(|i| self.node(i) == other.node(i))
    }
}

/// Structure statistics of a built quadtree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QtStats {
    /// Total nodes.
    pub nodes: usize,
    /// Leaf nodes.
    pub leaves: usize,
    /// Leaves holding no lines.
    pub empty_leaves: usize,
    /// Longest root-to-leaf path.
    pub height: usize,
    /// Total q-edge entries across leaves.
    pub entries: usize,
    /// Largest leaf occupancy.
    pub max_leaf_occupancy: usize,
}

/// Builds a [`DpQuadtree`] from its non-empty leaves, one
/// [`place`](Self::place) per leaf: the path says where the block sits,
/// the ids are copied once onto the end of the tree's id vector.
///
/// Node numbering is a function of the placement sequence alone: a
/// placement walks its path from the root and, wherever it meets an empty
/// leaf above its target, turns it into an internal node whose four
/// children take the next four indexes. The assembler skips the part of
/// that walk it already knows — it resumes from the deepest node the
/// previous path also passed, which lies above everything the walk could
/// still allocate — so a build that retires blocks in lane order descends
/// about one level per leaf, and any other order is merely slower.
#[derive(Debug, Clone)]
pub struct QuadtreeAssembler {
    tree: DpQuadtree,
    /// The previous placement's path, and the node index at each depth
    /// along it (`trail[0]` is the root).
    prev: NodePath,
    trail: [u32; MAX_DEPTH as usize + 1],
}

impl QuadtreeAssembler {
    /// An assembler holding the one-node tree: an empty root leaf.
    pub fn new(world: Rect) -> Self {
        QuadtreeAssembler {
            tree: DpQuadtree::from_raw_parts(world, vec![Slot::EMPTY_LEAF], Vec::new(), 0, 0),
            prev: NodePath::ROOT,
            trail: [0; MAX_DEPTH as usize + 1],
        }
    }

    /// Places the leaf block at `path` with the ids of the lines passing
    /// through it.
    ///
    /// # Panics
    ///
    /// Panics if the block overlaps one placed earlier (same block, an
    /// ancestor or a descendant) — that would indicate a build-driver bug —
    /// or if the tree outgrows its 32-bit node indexes and id offsets.
    pub fn place(&mut self, path: NodePath, lines: &[SegId]) {
        // Nodes above the shared depth are internal since the previous
        // placement walked through them, so a walk from the root would pass
        // them without a check or an allocation.
        let DpQuadtree { nodes, ids, .. } = &mut self.tree;
        let shared = path.shared_depth(&self.prev);
        let mut at = self.trail[shared];
        for level in shared..path.depth() as usize {
            // Ensure `at` is internal, then descend.
            let children = match nodes[at as usize].kind() {
                Kind::Internal(children) => children,
                Kind::Leaf { len, .. } => {
                    assert!(
                        len == 0,
                        "leaf record descends through an occupied leaf (overlapping records)"
                    );
                    let base = u32::try_from(nodes.len())
                        .ok()
                        .filter(|&base| base <= LEAF - 4)
                        .expect("quadtree outgrew its 32-bit node indexes");
                    nodes.extend([Slot::EMPTY_LEAF; 4]);
                    let children = [base, base + 1, base + 2, base + 3];
                    nodes[at as usize] = Slot::internal(children);
                    children
                }
            };
            at = children[path.quadrant_at(level).index()];
            self.trail[level + 1] = at;
        }
        self.prev = path;
        match nodes[at as usize].kind() {
            Kind::Leaf { len, .. } => assert!(len == 0, "two leaf records target the same block"),
            Kind::Internal(_) => {
                panic!("leaf record targets an internal node (overlapping records)")
            }
        }
        let start = u32::try_from(ids.len()).expect("quadtree outgrew its 32-bit id offsets");
        let len = u32::try_from(lines.len()).expect("leaf holds more ids than a 32-bit length");
        ids.extend_from_slice(lines);
        nodes[at as usize] = Slot::leaf(start, len);
    }

    /// The finished tree, stamped with the build's round accounting.
    pub fn finish(self, rounds: usize, truncated: usize) -> DpQuadtree {
        let mut tree = self.tree;
        // The tree outlives the build by the life of the index: hand back
        // the doubling slack.
        tree.nodes.shrink_to_fit();
        tree.ids.shrink_to_fit();
        tree.rounds = rounds;
        tree.truncated = truncated;
        tree
    }
}

impl DpQuadtree {
    /// The world rectangle.
    pub fn world(&self) -> Rect {
        self.world
    }

    /// Subdivision rounds the build took (paper's O(log n) stage count).
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Number of leaves cut off by the depth bound while still wanting to
    /// split.
    pub fn truncated(&self) -> usize {
        self.truncated
    }

    /// A view of node `i` (index 0 is the root).
    pub fn node(&self, i: usize) -> QtNode<'_> {
        match self.nodes[i].kind() {
            Kind::Leaf { start, len } => QtNode::Leaf {
                lines: &self.ids[start as usize..][..len as usize],
            },
            Kind::Internal(children) => QtNode::Internal {
                children: children.map(|c| c as usize),
            },
        }
    }

    /// Total node count (internal + leaves).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// A tree from raw parts — the snapshot codec's decode path.
    ///
    /// # Panics
    ///
    /// Panics if a child index is not a node or a leaf's id range does not
    /// lie inside `ids`, so [`DpQuadtree::node`] cannot walk out of either
    /// vector. The codec reports both as typed errors before it gets here.
    pub(crate) fn from_raw_parts(
        world: Rect,
        nodes: Vec<Slot>,
        ids: Vec<SegId>,
        rounds: usize,
        truncated: usize,
    ) -> Self {
        assert!(
            (1..=MAX_NODES).contains(&nodes.len()),
            "quadtree node count out of range"
        );
        for slot in &nodes {
            match slot.kind() {
                Kind::Leaf { start, len } => assert!(
                    start as usize + len as usize <= ids.len(),
                    "leaf id range outside the id vector"
                ),
                Kind::Internal(children) => assert!(
                    children.iter().all(|&c| (c as usize) < nodes.len()),
                    "child index outside the node vector"
                ),
            }
        }
        DpQuadtree {
            world,
            nodes,
            ids,
            rounds,
            truncated,
        }
    }

    /// Ids stored in leaves intersecting `query`, deduplicated and
    /// sorted; no exact-geometry filter.
    pub fn window_candidates(&self, query: &Rect) -> Vec<SegId> {
        let mut out = Vec::new();
        let mut stack = vec![(0usize, self.world)];
        while let Some((idx, rect)) = stack.pop() {
            if !rect.intersects(query) {
                continue;
            }
            match self.node(idx) {
                QtNode::Leaf { lines } => out.extend_from_slice(lines),
                QtNode::Internal { children } => {
                    let quads = rect.quadrants();
                    for q in 0..4 {
                        stack.push((children[q], quads[q]));
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Ids of lines that truly intersect `query` (exact filter over the
    /// candidates).
    pub fn window_query(&self, query: &Rect, segs: &[LineSeg]) -> Vec<SegId> {
        self.window_candidates(query)
            .into_iter()
            .filter(|&id| dp_geom::clip_segment_closed(&segs[id as usize], query).is_some())
            .collect()
    }

    /// Ids in the unique leaf block containing `p` (sorted), or empty when
    /// `p` is outside the world.
    pub fn point_query(&self, p: Point) -> Vec<SegId> {
        if !self.world.contains_half_open(p) {
            return Vec::new();
        }
        let mut idx = 0usize;
        let mut rect = self.world;
        loop {
            match self.node(idx) {
                QtNode::Leaf { lines } => {
                    let mut v = lines.to_vec();
                    v.sort_unstable();
                    return v;
                }
                QtNode::Internal { children } => {
                    let quads = rect.quadrants();
                    let q = (0..4)
                        .find(|&q| quads[q].contains_half_open(p))
                        .expect("half-open quadrants partition the block");
                    idx = children[q];
                    rect = quads[q];
                }
            }
        }
    }

    /// The nearest line to `p` by true segment distance (best-first block
    /// search). `None` for an empty tree.
    pub fn nearest(&self, p: Point, segs: &[LineSeg]) -> Option<(SegId, f64)> {
        use std::cmp::Ordering;
        use std::collections::BinaryHeap;
        struct Item {
            dist2: f64,
            node: usize,
            rect: Rect,
        }
        impl PartialEq for Item {
            fn eq(&self, other: &Self) -> bool {
                self.dist2 == other.dist2
            }
        }
        impl Eq for Item {}
        impl PartialOrd for Item {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Item {
            fn cmp(&self, other: &Self) -> Ordering {
                other.dist2.total_cmp(&self.dist2) // min-heap
            }
        }
        let mut heap = BinaryHeap::new();
        heap.push(Item {
            dist2: self.world.dist2_to_point(p),
            node: 0,
            rect: self.world,
        });
        let mut best: Option<(SegId, f64)> = None;
        while let Some(item) = heap.pop() {
            if let Some((_, d)) = best {
                if item.dist2 > d * d {
                    break;
                }
            }
            match self.node(item.node) {
                QtNode::Leaf { lines } => {
                    for &id in lines {
                        let d = segs[id as usize].dist2_to_point(p).sqrt();
                        if best.map(|(_, bd)| d < bd).unwrap_or(true) {
                            best = Some((id, d));
                        }
                    }
                }
                QtNode::Internal { children } => {
                    let quads = item.rect.quadrants();
                    for q in 0..4 {
                        heap.push(Item {
                            dist2: quads[q].dist2_to_point(p),
                            node: children[q],
                            rect: quads[q],
                        });
                    }
                }
            }
        }
        best
    }

    /// Visits every leaf with its block rectangle and depth, in pre-order
    /// with quadrant 3 first.
    pub fn for_each_leaf<F: FnMut(&Rect, usize, &[SegId])>(&self, mut f: F) {
        let mut stack = vec![(0usize, self.world, 0usize)];
        while let Some((idx, rect, depth)) = stack.pop() {
            match self.node(idx) {
                QtNode::Leaf { lines } => f(&rect, depth, lines),
                QtNode::Internal { children } => {
                    let quads = rect.quadrants();
                    for q in 0..4 {
                        stack.push((children[q], quads[q], depth + 1));
                    }
                }
            }
        }
    }

    /// Structure statistics.
    pub fn stats(&self) -> QtStats {
        let mut s = QtStats {
            nodes: self.nodes.len(),
            ..QtStats::default()
        };
        self.for_each_leaf(|_, depth, lines| {
            s.leaves += 1;
            s.height = s.height.max(depth);
            s.entries += lines.len();
            s.max_leaf_occupancy = s.max_leaf_occupancy.max(lines.len());
            if lines.is_empty() {
                s.empty_leaves += 1;
            }
        });
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_geom::Quadrant;

    fn world() -> Rect {
        Rect::from_coords(0.0, 0.0, 8.0, 8.0)
    }

    fn tree_of(leaves: &[(NodePath, &[SegId])], rounds: usize) -> DpQuadtree {
        let mut out = QuadtreeAssembler::new(world());
        for &(path, lines) in leaves {
            out.place(path, lines);
        }
        out.finish(rounds, 0)
    }

    #[test]
    fn assemble_empty() {
        let t = tree_of(&[], 0);
        let s = t.stats();
        assert_eq!(s.nodes, 1);
        assert_eq!(s.leaves, 1);
        assert_eq!(s.empty_leaves, 1);
        assert!(t.point_query(Point::new(1.0, 1.0)).is_empty());
    }

    #[test]
    fn assemble_fills_empty_siblings() {
        let t = tree_of(&[(NodePath::ROOT.child(Quadrant::NW), &[0, 1])], 1);
        let s = t.stats();
        assert_eq!(s.nodes, 5);
        assert_eq!(s.leaves, 4);
        assert_eq!(s.empty_leaves, 3);
        assert_eq!(s.height, 1);
        assert_eq!(t.point_query(Point::new(1.0, 7.0)), vec![0, 1]);
        assert!(t.point_query(Point::new(7.0, 1.0)).is_empty());
    }

    #[test]
    fn deep_leaf_creates_skeleton() {
        let path = NodePath::ROOT.child(Quadrant::SE).child(Quadrant::NE);
        let t = tree_of(&[(path, &[7])], 2);
        let s = t.stats();
        assert_eq!(s.height, 2);
        assert_eq!(s.leaves, 7); // 3 empties at depth 1 + 4 at depth 2
        assert_eq!(t.point_query(Point::new(7.0, 3.0)), vec![7]);
    }

    #[test]
    fn root_leaf_takes_every_line() {
        let t = tree_of(&[(NodePath::ROOT, &[2, 0, 1])], 0);
        assert_eq!(t.num_nodes(), 1);
        assert_eq!(t.node(0), QtNode::Leaf { lines: &[2, 0, 1] });
    }

    #[test]
    #[should_panic(expected = "overlapping records")]
    fn overlapping_records_rejected() {
        let nw = NodePath::ROOT.child(Quadrant::NW);
        tree_of(&[(nw, &[0]), (nw.child(Quadrant::NE), &[1])], 1);
    }

    #[test]
    fn equality_ignores_id_layout() {
        // The same tree with its two leaves' ids stored in either order.
        let nodes = |a: Slot, b: Slot| {
            vec![
                Slot::internal([1, 2, 3, 4]),
                a,
                Slot::EMPTY_LEAF,
                b,
                Slot::EMPTY_LEAF,
            ]
        };
        let x = DpQuadtree::from_raw_parts(
            world(),
            nodes(Slot::leaf(0, 2), Slot::leaf(2, 1)),
            vec![5, 6, 9],
            1,
            0,
        );
        let y = DpQuadtree::from_raw_parts(
            world(),
            nodes(Slot::leaf(1, 2), Slot::leaf(0, 1)),
            vec![9, 5, 6],
            1,
            0,
        );
        assert_eq!(x, y);
        let z = DpQuadtree::from_raw_parts(
            world(),
            nodes(Slot::leaf(1, 2), Slot::leaf(0, 1)),
            vec![9, 5, 7],
            1,
            0,
        );
        assert_ne!(x, z);
    }

    #[test]
    #[should_panic(expected = "leaf id range outside the id vector")]
    fn raw_parts_reject_a_leaf_range_past_the_ids() {
        DpQuadtree::from_raw_parts(world(), vec![Slot::leaf(1, 2)], vec![0, 1], 0, 0);
    }

    #[test]
    #[should_panic(expected = "child index outside the node vector")]
    fn raw_parts_reject_a_dangling_child() {
        DpQuadtree::from_raw_parts(world(), vec![Slot::internal([0, 0, 0, 1])], vec![], 0, 0);
    }

    #[test]
    fn window_candidates_dedup_across_blocks() {
        let t = tree_of(
            &[
                (NodePath::ROOT.child(Quadrant::SW), &[3]),
                (NodePath::ROOT.child(Quadrant::SE), &[3, 4]),
            ],
            1,
        );
        assert_eq!(t.window_candidates(&world()), vec![3, 4]);
    }

    #[test]
    fn nearest_on_small_tree() {
        let segs = vec![
            LineSeg::from_coords(1.0, 1.0, 2.0, 1.0),
            LineSeg::from_coords(6.0, 6.0, 7.0, 6.0),
        ];
        let t = tree_of(
            &[
                (NodePath::ROOT.child(Quadrant::SW), &[0]),
                (NodePath::ROOT.child(Quadrant::NE), &[1]),
            ],
            1,
        );
        let (id, d) = t.nearest(Point::new(1.0, 2.0), &segs).unwrap();
        assert_eq!(id, 0);
        assert_eq!(d, 1.0);
        let (id2, _) = t.nearest(Point::new(7.0, 7.0), &segs).unwrap();
        assert_eq!(id2, 1);
    }
}
