//! Quadtree path codes and Z-order (Morton / Peano-style) linearization.
//!
//! The paper's Section 3.3 notes that the bucket PMR quadtree's regular
//! decomposition admits a *unique linear ordering* of its blocks via a
//! space-filling curve (it cites the Peano curve), which is what makes the
//! structure a good fit for linearly ordered processor models. [`NodePath`]
//! encodes the root-to-node quadrant path of a block, and its `Ord`
//! implementation is exactly that linearization; [`z_order`] provides the
//! classic bit-interleaved point code.

/// Quadrant of a block, in the child order used by
/// [`crate::rect::Rect::quadrants`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Quadrant {
    /// North-west (upper-left).
    NW = 0,
    /// North-east (upper-right).
    NE = 1,
    /// South-west (lower-left).
    SW = 2,
    /// South-east (lower-right).
    SE = 3,
}

impl Quadrant {
    /// All quadrants in child order.
    pub const ALL: [Quadrant; 4] = [Quadrant::NW, Quadrant::NE, Quadrant::SW, Quadrant::SE];

    /// Quadrant from its index (0..4).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 4`.
    pub fn from_index(i: usize) -> Quadrant {
        Quadrant::ALL[i]
    }

    /// The index of this quadrant (0..4).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Maximum supported quadtree depth (path bits must fit in a `u64`).
pub const MAX_DEPTH: u8 = 31;

/// The root-to-node quadrant path of a quadtree block.
///
/// `bits` stores two bits per level, most significant pair first, so that
/// the derived `Ord` (after left-aligning) is a depth-first pre-order /
/// Z-order traversal of the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodePath {
    depth: u8,
    bits: u64,
}

impl NodePath {
    /// The root path (depth 0).
    pub const ROOT: NodePath = NodePath { depth: 0, bits: 0 };

    /// Depth of the node (root = 0).
    pub fn depth(&self) -> u8 {
        self.depth
    }

    /// Raw path bits (two per level, root-first in the high positions of
    /// the low `2*depth` bits).
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// The path of this node's `q` child.
    ///
    /// # Panics
    ///
    /// Panics when descending past [`MAX_DEPTH`].
    pub fn child(&self, q: Quadrant) -> NodePath {
        assert!(
            self.depth < MAX_DEPTH,
            "quadtree path deeper than MAX_DEPTH ({MAX_DEPTH})"
        );
        NodePath {
            depth: self.depth + 1,
            bits: (self.bits << 2) | q.index() as u64,
        }
    }

    /// The parent path, or `None` at the root.
    pub fn parent(&self) -> Option<NodePath> {
        if self.depth == 0 {
            None
        } else {
            Some(NodePath {
                depth: self.depth - 1,
                bits: self.bits >> 2,
            })
        }
    }

    /// The quadrant this node occupies within its parent, or `None` at the
    /// root.
    pub fn quadrant_in_parent(&self) -> Option<Quadrant> {
        if self.depth == 0 {
            None
        } else {
            Some(Quadrant::from_index((self.bits & 3) as usize))
        }
    }

    /// The quadrant the path takes out of its depth-`level` ancestor
    /// (`level == 0` is the step out of the root) — one shift, no
    /// allocation; what a descent along the path reads per level.
    ///
    /// # Panics
    ///
    /// Panics if `level >= self.depth()`: the path takes no step there.
    pub fn quadrant_at(&self, level: usize) -> Quadrant {
        assert!(
            level < self.depth as usize,
            "level {level} past the end of a depth-{} path",
            self.depth
        );
        let shift = 2 * (self.depth as usize - 1 - level);
        Quadrant::from_index(((self.bits >> shift) & 3) as usize)
    }

    /// The sequence of quadrants from the root to this node.
    pub fn quadrants(&self) -> Vec<Quadrant> {
        (0..self.depth as usize)
            .map(|level| self.quadrant_at(level))
            .collect()
    }

    /// Number of leading levels on which `self` and `other` take the same
    /// quadrant — the depth of their deepest common ancestor.
    pub fn shared_depth(&self, other: &NodePath) -> usize {
        // Aligned paths occupy the low 2·MAX_DEPTH = 62 bits, so two of the
        // XOR's leading zeros belong to no level.
        let same = ((self.aligned() ^ other.aligned()).leading_zeros() as usize - 2) / 2;
        same.min(self.depth as usize).min(other.depth as usize)
    }

    /// Path bits shifted up as if the path were [`MAX_DEPTH`] deep, so the
    /// same level sits at the same bits in every path.
    fn aligned(&self) -> u64 {
        self.bits << (2 * (MAX_DEPTH - self.depth) as u32)
    }

    /// `true` when `self` is an ancestor of `other` (or equal to it).
    pub fn is_ancestor_of(&self, other: &NodePath) -> bool {
        other.depth >= self.depth && (other.bits >> (2 * (other.depth - self.depth))) == self.bits
    }

    /// Left-aligned key whose natural order is the depth-first pre-order
    /// of the quadtree (ancestors sort before descendants, and siblings
    /// sort NW < NE < SW < SE): path bits shifted to the top, depth as the
    /// low-order tiebreak.
    pub fn preorder_key(&self) -> u128 {
        ((self.aligned() as u128) << 8) | self.depth as u128
    }
}

impl PartialOrd for NodePath {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for NodePath {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.preorder_key().cmp(&other.preorder_key())
    }
}

/// Bit-interleaved Z-order code of a grid point: `y` bits take the even
/// positions and `x` bits the odd, so the code orders points along the
/// classic N-shaped curve consistent with [`NodePath`] linearization.
pub fn z_order(x: u32, y: u32) -> u64 {
    fn spread(v: u32) -> u64 {
        let mut v = v as u64;
        v = (v | (v << 16)) & 0x0000_FFFF_0000_FFFF;
        v = (v | (v << 8)) & 0x00FF_00FF_00FF_00FF;
        v = (v | (v << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
        v = (v | (v << 2)) & 0x3333_3333_3333_3333;
        v = (v | (v << 1)) & 0x5555_5555_5555_5555;
        v
    }
    (spread(x) << 1) | spread(y)
}

/// Hilbert curve index of a grid point within a `2^order × 2^order`
/// grid. Unlike [`z_order`], consecutive indices are always adjacent
/// cells, which makes Hilbert sorting the classic key for packed R-tree
/// bulk loading (Kamel & Faloutsos — the parallel R-tree work the paper
/// cites as \[Kame92\]).
///
/// # Panics
///
/// Panics if `order > 31` or a coordinate does not fit in the grid.
pub fn hilbert_d(order: u32, x: u32, y: u32) -> u64 {
    assert!(order <= 31, "hilbert order {order} too large");
    let n = 1u32 << order;
    assert!(x < n && y < n, "point ({x}, {y}) outside 2^{order} grid");
    let (mut x, mut y) = (x, y);
    let mut d: u64 = 0;
    let mut s = n >> 1;
    while s > 0 {
        let rx = u32::from((x & s) > 0);
        let ry = u32::from((y & s) > 0);
        d += (s as u64) * (s as u64) * ((3 * rx) ^ ry) as u64;
        // Rotate the quadrant (the classic xy2d rotation).
        if ry == 0 {
            if rx == 1 {
                x = n - 1 - x;
                y = n - 1 - y;
            }
            std::mem::swap(&mut x, &mut y);
        }
        s >>= 1;
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_parent_roundtrip() {
        let p = NodePath::ROOT
            .child(Quadrant::NE)
            .child(Quadrant::SW)
            .child(Quadrant::SE);
        assert_eq!(p.depth(), 3);
        assert_eq!(
            p.quadrants(),
            vec![Quadrant::NE, Quadrant::SW, Quadrant::SE]
        );
        assert_eq!(p.quadrant_in_parent(), Some(Quadrant::SE));
        let gp = p.parent().unwrap().parent().unwrap();
        assert_eq!(gp.quadrants(), vec![Quadrant::NE]);
        assert_eq!(NodePath::ROOT.parent(), None);
    }

    #[test]
    fn quadrant_at_reads_each_level() {
        let mut p = NodePath::ROOT;
        let steps: Vec<Quadrant> = (0..MAX_DEPTH as usize)
            .map(|i| Quadrant::from_index((i * 7 + 3) % 4))
            .collect();
        for (level, &q) in steps.iter().enumerate() {
            p = p.child(q);
            assert_eq!(p.quadrant_at(level), q);
            assert_eq!(p.quadrants(), steps[..=level]);
        }
    }

    #[test]
    #[should_panic(expected = "past the end")]
    fn quadrant_at_rejects_levels_below_the_node() {
        NodePath::ROOT.child(Quadrant::SE).quadrant_at(1);
    }

    #[test]
    fn shared_depth_is_the_common_ancestor() {
        let a = NodePath::ROOT.child(Quadrant::NE).child(Quadrant::SW);
        let b = a.child(Quadrant::NW).child(Quadrant::SE);
        let c = a.child(Quadrant::SE);
        assert_eq!(NodePath::ROOT.shared_depth(&b), 0);
        assert_eq!(a.shared_depth(&a), 2);
        assert_eq!(a.shared_depth(&b), 2);
        assert_eq!(b.shared_depth(&a), 2);
        assert_eq!(b.shared_depth(&c), 2);
        // NW steps are zero bits: equal aligned bits must not read as a
        // shared level past the shallower path's depth.
        let nw = NodePath::ROOT.child(Quadrant::NW);
        assert_eq!(nw.shared_depth(&nw.child(Quadrant::NW)), 1);
        assert_eq!(
            NodePath::ROOT
                .child(Quadrant::SE)
                .shared_depth(&NodePath::ROOT.child(Quadrant::NW)),
            0
        );
        // Full-depth paths: every one of the 62 bits is a level.
        let mut deep = NodePath::ROOT;
        for _ in 0..MAX_DEPTH {
            deep = deep.child(Quadrant::SE);
        }
        assert_eq!(deep.shared_depth(&deep), MAX_DEPTH as usize);
        let sib = deep.parent().unwrap().child(Quadrant::SW);
        assert_eq!(deep.shared_depth(&sib), MAX_DEPTH as usize - 1);
    }

    #[test]
    fn ancestor_test() {
        let a = NodePath::ROOT.child(Quadrant::NW);
        let b = a.child(Quadrant::SE).child(Quadrant::SE);
        assert!(NodePath::ROOT.is_ancestor_of(&b));
        assert!(a.is_ancestor_of(&b));
        assert!(a.is_ancestor_of(&a));
        assert!(!b.is_ancestor_of(&a));
        let c = NodePath::ROOT.child(Quadrant::NE);
        assert!(!c.is_ancestor_of(&b));
    }

    #[test]
    fn preorder_sorts_parents_before_children_and_siblings_in_order() {
        let root = NodePath::ROOT;
        let nw = root.child(Quadrant::NW);
        let nw_se = nw.child(Quadrant::SE);
        let ne = root.child(Quadrant::NE);
        let se = root.child(Quadrant::SE);
        let mut v = vec![se, nw_se, ne, root, nw];
        v.sort();
        assert_eq!(v, vec![root, nw, nw_se, ne, se]);
    }

    #[test]
    fn z_order_small_grid() {
        // In a 2x2 grid the curve visits (0,0), (0,1), (1,0), (1,1)
        // with x in the high interleave position.
        assert_eq!(z_order(0, 0), 0);
        assert_eq!(z_order(0, 1), 1);
        assert_eq!(z_order(1, 0), 2);
        assert_eq!(z_order(1, 1), 3);
    }

    #[test]
    fn z_order_locality() {
        // Codes of a 4x4 block are contiguous when the block is aligned.
        let mut codes: Vec<u64> = (0..4)
            .flat_map(|x| (0..4).map(move |y| z_order(x, y)))
            .collect();
        codes.sort_unstable();
        assert_eq!(codes, (0..16).collect::<Vec<u64>>());
    }

    #[test]
    fn z_order_high_bits() {
        assert_eq!(z_order(u32::MAX, 0), 0xAAAA_AAAA_AAAA_AAAA);
        assert_eq!(z_order(0, u32::MAX), 0x5555_5555_5555_5555);
    }

    #[test]
    fn hilbert_order_one() {
        // The unit Hilbert curve: (0,0) -> (0,1) -> (1,1) -> (1,0).
        assert_eq!(hilbert_d(1, 0, 0), 0);
        assert_eq!(hilbert_d(1, 0, 1), 1);
        assert_eq!(hilbert_d(1, 1, 1), 2);
        assert_eq!(hilbert_d(1, 1, 0), 3);
    }

    #[test]
    fn hilbert_is_a_bijection() {
        let order = 4u32;
        let n = 1u32 << order;
        let mut seen = vec![false; (n * n) as usize];
        for x in 0..n {
            for y in 0..n {
                let d = hilbert_d(order, x, y) as usize;
                assert!(!seen[d], "duplicate index {d}");
                seen[d] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn hilbert_consecutive_cells_are_adjacent() {
        // The defining locality property (and what Z-order lacks): each
        // step of the curve moves to a 4-neighbour.
        let order = 4u32;
        let n = 1u32 << order;
        let mut by_d = vec![(0u32, 0u32); (n * n) as usize];
        for x in 0..n {
            for y in 0..n {
                by_d[hilbert_d(order, x, y) as usize] = (x, y);
            }
        }
        for w in by_d.windows(2) {
            let (x0, y0) = w[0];
            let (x1, y1) = w[1];
            let manhattan = x0.abs_diff(x1) + y0.abs_diff(y1);
            assert_eq!(manhattan, 1, "jump between {:?} and {:?}", w[0], w[1]);
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn hilbert_rejects_out_of_grid() {
        hilbert_d(2, 4, 0);
    }

    #[test]
    #[should_panic(expected = "MAX_DEPTH")]
    fn overdeep_child_panics() {
        let mut p = NodePath::ROOT;
        for _ in 0..=MAX_DEPTH {
            p = p.child(Quadrant::NW);
        }
    }
}
