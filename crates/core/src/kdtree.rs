//! Data-parallel k-D tree construction over point sets, in the scan
//! model — the prior-work algorithm the paper builds upon ("the k-D-tree
//! research was limited to … building the data structure for a collection
//! of points using the scan model of computation \[Blel89b\]", paper
//! Sec. 1). Included both as context for the paper's contribution and as
//! a point-data companion to the segment structures.
//!
//! The build inserts all points simultaneously: active nodes are
//! contiguous segments of the point processor vector; per round every
//! oversized node is median-split along the alternating axis with one
//! segmented sort — the sorted order already packs each node's halves, so
//! no rank lane and no unshuffle follow — O(log n) rounds, one sort each,
//! exactly the structure of Blelloch's build.

use crate::SegId;
use dp_geom::{Point, Rect};
use scan_model::{Machine, Segments};

/// Splitting axis of an internal k-D node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Vertical split line (compare x).
    X,
    /// Horizontal split line (compare y).
    Y,
}

/// A node of the assembled k-D tree.
#[derive(Debug, Clone)]
pub enum KdNode {
    /// Internal node: everything with coordinate `< value` (or equal,
    /// when on the low-rank side of the median) descends left.
    Internal {
        /// Split axis.
        axis: Axis,
        /// Split coordinate.
        value: f64,
        /// Left child index.
        left: usize,
        /// Right child index.
        right: usize,
    },
    /// Leaf bucket of point ids.
    Leaf {
        /// Indexed point ids.
        points: Vec<SegId>,
    },
}

/// A k-D tree over a borrowed point slice.
#[derive(Debug, Clone)]
pub struct KdTree {
    nodes: Vec<KdNode>,
    rounds: usize,
    len: usize,
}

/// Builds a k-D tree over `points` with all points inserted
/// simultaneously; leaves hold at most `leaf_capacity` points.
///
/// # Panics
///
/// Panics if `leaf_capacity == 0`.
pub fn build_kdtree(machine: &Machine, points: &[Point], leaf_capacity: usize) -> KdTree {
    assert!(leaf_capacity >= 1, "leaf capacity must be at least 1");
    let n = points.len();
    let mut tree = KdTree {
        nodes: vec![KdNode::Leaf { points: Vec::new() }],
        rounds: 0,
        len: n,
    };
    if n == 0 {
        return tree;
    }

    // Lane state: point ids grouped by active node; per active node, its
    // arena index and depth (axis alternates with depth).
    let mut lane_id: Vec<SegId> = (0..n as SegId).collect();
    let mut seg = Segments::single(n);
    let mut node_of: Vec<usize> = vec![0];
    let mut depth_of: Vec<usize> = vec![0];

    loop {
        let counts = machine.segment_counts(&seg);
        machine.note_elementwise();
        let split: Vec<bool> = counts.iter().map(|&c| c as usize > leaf_capacity).collect();
        // Retire finished nodes as leaf buckets before (possibly)
        // terminating.
        for (s, r) in seg.ranges().enumerate() {
            if !split[s] {
                tree.nodes[node_of[s]] = KdNode::Leaf {
                    points: lane_id[r].to_vec(),
                };
            }
        }
        if !split.iter().any(|&b| b) {
            break;
        }

        // Median split along the alternating axis: one segmented sort by
        // the per-lane coordinate; the median is the middle sorted lane.
        let keys: Vec<f64> = {
            machine.note_elementwise();
            (0..lane_id.len())
                .map(|i| {
                    let s = seg.segment_of(i);
                    let p = points[lane_id[i] as usize];
                    match axis_at(depth_of[s]) {
                        Axis::X => p.x,
                        Axis::Y => p.y,
                    }
                })
                .collect()
        };
        let order = machine.segmented_sort_perm(&seg, &keys, |a, b| a.total_cmp(b));
        lane_id = machine.gather(&lane_id, &order);
        let sorted_keys = machine.gather(&keys, &order);

        // Finalize non-splitting nodes, subdivide the rest.
        let mut new_lengths = Vec::new();
        let mut new_node_of = Vec::new();
        let mut new_depth_of = Vec::new();
        machine.note_elementwise();
        let mut retained = vec![false; lane_id.len()];
        for (s, r) in seg.ranges().enumerate() {
            if !split[s] {
                continue; // already retired above
            }
            let half = r.len().div_ceil(2);
            let value = sorted_keys[r.start + half - 1];
            let left = tree.nodes.len();
            tree.nodes.push(KdNode::Leaf { points: Vec::new() });
            let right = tree.nodes.len();
            tree.nodes.push(KdNode::Leaf { points: Vec::new() });
            tree.nodes[node_of[s]] = KdNode::Internal {
                axis: axis_at(depth_of[s]),
                value,
                left,
                right,
            };
            for i in r.clone() {
                retained[i] = true;
            }
            new_lengths.push(half);
            new_lengths.push(r.len() - half);
            new_node_of.push(left);
            new_node_of.push(right);
            new_depth_of.push(depth_of[s] + 1);
            new_depth_of.push(depth_of[s] + 1);
        }

        // Compact the lanes of splitting nodes (the sorted order already
        // partitions each segment at its median rank, so no unshuffle is
        // needed — the deletion primitive drops retired lanes).
        let delete_flags: Vec<bool> = machine.map(&retained, |b| !b);
        let layout = machine.delete_layout(&seg, &delete_flags);
        lane_id = machine.apply(&lane_id, &layout);
        seg = Segments::from_lengths(&new_lengths).expect("split halves are non-empty");
        node_of = new_node_of;
        depth_of = new_depth_of;
        tree.rounds += 1;
        machine.bump_rounds();
        if lane_id.is_empty() {
            break;
        }
    }
    tree
}

fn axis_at(depth: usize) -> Axis {
    if depth % 2 == 0 {
        Axis::X
    } else {
        Axis::Y
    }
}

impl KdTree {
    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no points are indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Build rounds taken.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Tree height (root-only tree = 0).
    pub fn height(&self) -> usize {
        fn rec(nodes: &[KdNode], at: usize) -> usize {
            match &nodes[at] {
                KdNode::Leaf { .. } => 0,
                KdNode::Internal { left, right, .. } => {
                    1 + rec(nodes, *left).max(rec(nodes, *right))
                }
            }
        }
        rec(&self.nodes, 0)
    }

    /// Ids of points inside the closed query rectangle, sorted.
    pub fn range_query(&self, query: &Rect, points: &[Point]) -> Vec<SegId> {
        let mut out = Vec::new();
        let mut stack = vec![0usize];
        while let Some(at) = stack.pop() {
            match &self.nodes[at] {
                KdNode::Leaf { points: ids } => {
                    out.extend(
                        ids.iter()
                            .copied()
                            .filter(|&id| query.contains(points[id as usize])),
                    );
                }
                KdNode::Internal {
                    axis,
                    value,
                    left,
                    right,
                } => {
                    let (lo, hi) = match axis {
                        Axis::X => (query.min.x, query.max.x),
                        Axis::Y => (query.min.y, query.max.y),
                    };
                    if lo <= *value {
                        stack.push(*left);
                    }
                    if hi >= *value {
                        stack.push(*right);
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// The nearest indexed point to `p` (ties by lowest id are *not*
    /// guaranteed; distances are exact).
    pub fn nearest(&self, p: Point, points: &[Point]) -> Option<(SegId, f64)> {
        if self.len == 0 {
            return None;
        }
        let mut best: Option<(SegId, f64)> = None;
        self.nearest_rec(0, p, points, &mut best);
        best.map(|(id, d2)| (id, d2.sqrt()))
    }

    fn nearest_rec(&self, at: usize, p: Point, points: &[Point], best: &mut Option<(SegId, f64)>) {
        match &self.nodes[at] {
            KdNode::Leaf { points: ids } => {
                for &id in ids {
                    let d2 = points[id as usize].dist2(p);
                    if best.map(|(_, b)| d2 < b).unwrap_or(true) {
                        *best = Some((id, d2));
                    }
                }
            }
            KdNode::Internal {
                axis,
                value,
                left,
                right,
            } => {
                let diff = match axis {
                    Axis::X => p.x - value,
                    Axis::Y => p.y - value,
                };
                let (near, far) = if diff <= 0.0 {
                    (*left, *right)
                } else {
                    (*right, *left)
                };
                self.nearest_rec(near, p, points, best);
                if best.map(|(_, b)| diff * diff <= b).unwrap_or(true) {
                    self.nearest_rec(far, p, points, best);
                }
            }
        }
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

    fn points(n: usize) -> Vec<Point> {
        (0..n)
            .map(|k| Point::new(((k * 37) % 101) as f64, ((k * 59) % 97) as f64))
            .collect()
    }

    #[test]
    fn build_and_height_are_balanced() {
        for m in machines() {
            let pts = points(256);
            let t = build_kdtree(&m, &pts, 4);
            assert!(
                t.height() <= 8,
                "median splits stay balanced: {}",
                t.height()
            );
            assert!(t.rounds() <= 8);
            assert_eq!(t.len(), 256);
        }
    }

    #[test]
    fn range_queries_match_brute_force() {
        for m in machines() {
            let pts = points(300);
            let t = build_kdtree(&m, &pts, 4);
            for q in [
                Rect::from_coords(0.0, 0.0, 30.0, 30.0),
                Rect::from_coords(50.0, 20.0, 80.0, 90.0),
                Rect::from_coords(0.0, 0.0, 101.0, 97.0),
                Rect::from_coords(96.0, 90.0, 99.0, 95.0),
            ] {
                let got = t.range_query(&q, &pts);
                let want: Vec<SegId> = (0..pts.len() as u32)
                    .filter(|&id| q.contains(pts[id as usize]))
                    .collect();
                assert_eq!(got, want, "window {q}");
            }
        }
    }

    #[test]
    fn nearest_matches_brute_force() {
        for m in machines() {
            let pts = points(200);
            let t = build_kdtree(&m, &pts, 4);
            for probe in [
                Point::new(0.0, 0.0),
                Point::new(50.0, 50.0),
                Point::new(100.0, 1.0),
                Point::new(33.3, 66.6),
            ] {
                let (_, d) = t.nearest(probe, &pts).unwrap();
                let brute = pts
                    .iter()
                    .map(|q| q.dist(probe))
                    .min_by(|a, b| a.total_cmp(b))
                    .unwrap();
                assert_eq!(d, brute, "probe {probe}");
            }
        }
    }

    #[test]
    fn empty_and_tiny() {
        for m in machines() {
            let t = build_kdtree(&m, &[], 4);
            assert!(t.is_empty());
            assert!(t.nearest(Point::new(0.0, 0.0), &[]).is_none());
            let pts = points(3);
            let t = build_kdtree(&m, &pts, 4);
            assert_eq!(t.height(), 0);
            assert_eq!(
                t.range_query(&Rect::from_coords(0.0, 0.0, 200.0, 200.0), &pts)
                    .len(),
                3
            );
        }
    }

    #[test]
    fn duplicate_points_supported() {
        for m in machines() {
            let pts = vec![Point::new(5.0, 5.0); 20];
            let t = build_kdtree(&m, &pts, 4);
            let got = t.range_query(&Rect::from_coords(5.0, 5.0, 5.0, 5.0), &pts);
            assert_eq!(got.len(), 20);
        }
    }

    #[test]
    fn backends_agree() {
        let pts = points(500);
        let a = build_kdtree(&Machine::sequential(), &pts, 8);
        let b = build_kdtree(
            &Machine::new(Backend::Parallel).with_par_threshold(1),
            &pts,
            8,
        );
        assert_eq!(a.height(), b.height());
        let q = Rect::from_coords(10.0, 10.0, 70.0, 70.0);
        assert_eq!(a.range_query(&q, &pts), b.range_query(&q, &pts));
    }

    #[test]
    fn rounds_are_logarithmic() {
        let m = Machine::sequential();
        let r64 = build_kdtree(&m, &points(64), 2).rounds();
        let r4096 = build_kdtree(&m, &points(4096), 2).rounds();
        assert!(r4096 <= r64 + 7, "64 -> 4096 adds at most 6 rounds");
    }
}
