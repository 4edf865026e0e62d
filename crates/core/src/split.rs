//! The quadtree node splitting primitive (paper Sec. 4.6, Figs. 23–28).
//!
//! Splitting is a two-stage process: the node is first cut along the
//! horizontal centre line into its top and bottom halves, then each half
//! is cut along the vertical centre line, yielding four equal quadrants.
//! Each stage is the same three-step dance, executed for *all* splitting
//! nodes simultaneously:
//!
//! 1. every lane decides elementwise whether its line **crosses the split
//!    axis** within the node (it then belongs to both halves and must be
//!    *cloned* — paper Fig. 24);
//! 2. a **cloning** operation (Sec. 4.1) replicates the crossing lanes;
//! 3. every lane classifies itself to one side (originals of a cloned
//!    pair take the first side, the clones the second — Fig. 25), and an
//!    **unshuffle** (Sec. 4.2) packs each node's lanes into the two new
//!    contiguous segments (Figs. 26–28).

use crate::lineproc::{ActiveNode, LineProcSet};
use crate::SegId;
use dp_geom::{seg_in_block, LineSeg, NodePath, Quadrant, Rect};
use scan_model::{Machine, Segments};

/// A node midway through the split: one half of a splitting block.
#[derive(Debug, Clone, Copy)]
struct HalfNode {
    parent: NodePath,
    rect: Rect,
    /// `false` = top half, `true` = bottom half.
    bottom: bool,
}

/// The top and bottom halves of a block (stage 1 cut).
fn halves_y(r: &Rect) -> (Rect, Rect) {
    let cy = r.center().y;
    (
        Rect::from_coords(r.min.x, cy, r.max.x, r.max.y), // top
        Rect::from_coords(r.min.x, r.min.y, r.max.x, cy), // bottom
    )
}

/// The left and right halves of a block (stage 2 cut).
fn halves_x(r: &Rect) -> (Rect, Rect) {
    let cx = r.center().x;
    (
        Rect::from_coords(r.min.x, r.min.y, cx, r.max.y), // left
        Rect::from_coords(cx, r.min.y, r.max.x, r.max.y), // right
    )
}

/// One split stage over every active segment at once.
///
/// `first_of` / `second_of` produce the two candidate child rectangles of
/// a lane's current block; lanes whose lines belong to both are cloned.
/// Returns the reordered lane vectors, the per-input-segment
/// `(first_count, second_count)` pair, and the new per-lane child rects.
struct StageOut {
    line: Vec<SegId>,
    rect: Vec<Rect>,
    /// Per input segment: lanes in the first and second halves.
    counts: Vec<(usize, usize)>,
}

fn split_stage(
    machine: &Machine,
    mut line: Vec<SegId>,
    mut rect: Vec<Rect>,
    seg: &Segments,
    segs: &[LineSeg],
    halves: fn(&Rect) -> (Rect, Rect),
) -> StageOut {
    // Step 1 (elementwise): membership in each half; crossing lanes are
    // members of both (paper Fig. 24's `clone` flag). The two leased
    // intermediates are recycled before the stage returns; the lane
    // vectors themselves are reordered in place / through the ping-pong
    // slab, so the stage's peak footprint is the lanes plus one slab.
    let mut membership: Vec<(bool, bool)> = machine.lease();
    machine.zip_map_into(
        &line,
        &rect,
        |id, r| {
            let (first, second) = halves(&r);
            let s = &segs[id as usize];
            (seg_in_block(s, &first), seg_in_block(s, &second))
        },
        &mut membership,
    );
    let mut clone_flags: Vec<bool> = machine.lease();
    machine.map_into(&membership, |(a, b)| a && b, &mut clone_flags);
    debug_assert!(
        membership.iter().all(|&(a, b)| a || b),
        "every lane must belong to at least one half of its own block"
    );

    // Step 2: clone the crossing lanes (Sec. 4.1) — the gather is
    // monotone, so the lane vectors grow in place.
    let layout = machine.clone_layout(seg, &clone_flags);
    machine.apply_in_place(&mut line, &layout);
    machine.apply_in_place(&mut rect, &layout);
    let mut c_membership: Vec<(bool, bool)> = machine.lease();
    machine.apply_into(&membership, &layout, &mut c_membership);
    machine.recycle(membership);
    machine.recycle(clone_flags);

    // Step 3: classify each lane (Fig. 25): of a cloned pair the original
    // takes the first half and the clone the second; non-crossing lanes
    // follow their membership. A lane crosses exactly when it belongs to
    // both halves, so the cloned membership pair already carries the
    // crossing bit.
    machine.note_elementwise();
    let mut class: Vec<bool> = machine.lease();
    class.extend(
        c_membership
            .iter()
            .zip(layout.rank.iter())
            .map(|(&(a, b), &rank)| if a && b { rank == 1 } else { b }),
    );
    machine.recycle(c_membership);

    // Unshuffle into [first | second] within each segment (Sec. 4.2),
    // ping-ponging the lane ids through one leased slab. The other two
    // lane vectors need no permutation at all:
    //
    // * `rect` is segment-constant — every lane of a node carries the
    //   node's block, and the unshuffle permutes lanes only within
    //   their segment — so the permutation is the identity on its
    //   values (and its slab would be the largest buffer of the whole
    //   build);
    // * `class` is the unshuffle *key*: after the pack each segment
    //   reads as `first_count` falses then `second_count` trues, which
    //   one elementwise pass reconstitutes straight from the layout's
    //   per-segment counts.
    let un = machine.unshuffle_layout(&layout.seg, &class);
    machine.apply_unshuffle_swap(&mut line, &un);
    machine.note_elementwise();
    class.clear();
    for &(n_first, n_second) in &un.counts {
        class.extend(std::iter::repeat(false).take(n_first));
        class.extend(std::iter::repeat(true).take(n_second));
    }

    // Update every lane's block to its half (elementwise in place — each
    // lane knows its side from the packed class bit).
    machine.zip_map_in_place(&mut rect, &class, |r, c| {
        let (first, second) = halves(&r);
        if c {
            second
        } else {
            first
        }
    });
    machine.recycle(class);

    StageOut {
        line,
        rect,
        counts: un.counts,
    }
}

/// Splits every active node into its four quadrants (paper Sec. 4.6).
///
/// Children that receive no lanes become implicit empty leaves (they are
/// not represented in the new state; the assembly in [`crate::quadtree`]
/// materializes them). The new active node list is ordered NW, NE, SW, SE
/// within each parent.
pub fn split_active_nodes(machine: &Machine, state: LineProcSet, segs: &[LineSeg]) -> LineProcSet {
    if state.nodes.is_empty() {
        return state;
    }

    // ---- Stage 1: horizontal cut into top / bottom halves. ----
    // The lane vectors are reordered in place (clone, unshuffle) rather
    // than copied into fresh leases, so the stage's footprint is the
    // lanes themselves plus one ping-pong slab.
    let LineProcSet {
        line: old_line,
        rect: old_rect,
        seg: old_seg,
        nodes: old_nodes,
    } = state;
    let stage1 = split_stage(machine, old_line, old_rect, &old_seg, segs, halves_y);
    let mut half_nodes: Vec<HalfNode> = Vec::with_capacity(old_nodes.len() * 2);
    let mut half_lengths: Vec<usize> = Vec::with_capacity(old_nodes.len() * 2);
    for (node, &(n_top, n_bottom)) in old_nodes.iter().zip(stage1.counts.iter()) {
        let (top, bottom) = halves_y(&node.rect);
        if n_top > 0 {
            half_nodes.push(HalfNode {
                parent: node.path,
                rect: top,
                bottom: false,
            });
            half_lengths.push(n_top);
        }
        if n_bottom > 0 {
            half_nodes.push(HalfNode {
                parent: node.path,
                rect: bottom,
                bottom: true,
            });
            half_lengths.push(n_bottom);
        }
    }
    let half_seg = Segments::from_lengths(&half_lengths).expect("non-empty halves only");

    // ---- Stage 2: vertical cut of each half into left / right. ----
    let stage2 = split_stage(machine, stage1.line, stage1.rect, &half_seg, segs, halves_x);
    let mut nodes: Vec<ActiveNode> = Vec::with_capacity(half_nodes.len() * 2);
    let mut lengths: Vec<usize> = Vec::with_capacity(half_nodes.len() * 2);
    for (half, &(n_left, n_right)) in half_nodes.iter().zip(stage2.counts.iter()) {
        let (left, right) = halves_x(&half.rect);
        let (q_left, q_right) = if half.bottom {
            (Quadrant::SW, Quadrant::SE)
        } else {
            (Quadrant::NW, Quadrant::NE)
        };
        if n_left > 0 {
            nodes.push(ActiveNode {
                path: half.parent.child(q_left),
                rect: left,
            });
            lengths.push(n_left);
        }
        if n_right > 0 {
            nodes.push(ActiveNode {
                path: half.parent.child(q_right),
                rect: right,
            });
            lengths.push(n_right);
        }
    }
    let seg = Segments::from_lengths(&lengths).expect("non-empty children only");

    let out = LineProcSet {
        line: stage2.line,
        rect: stage2.rect,
        seg,
        nodes,
    };
    debug_assert_eq!(out.seg.num_segments(), out.nodes.len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use scan_model::Backend;

    fn world() -> Rect {
        Rect::from_coords(0.0, 0.0, 8.0, 8.0)
    }

    fn machines() -> Vec<Machine> {
        vec![
            Machine::sequential(),
            Machine::new(Backend::Parallel).with_par_threshold(1),
        ]
    }

    /// Paper Figs. 23–28 in miniature: one node, five lines, two of which
    /// cross the horizontal axis and one of which also crosses the
    /// vertical axis.
    #[test]
    fn two_stage_split_distributes_lines() {
        for m in machines() {
            let segs = vec![
                LineSeg::from_coords(1.0, 3.0, 2.0, 5.0), // a: crosses y=4, left side
                LineSeg::from_coords(5.0, 3.0, 6.0, 6.0), // b: crosses y=4, right side
                LineSeg::from_coords(1.0, 6.0, 2.0, 7.0), // NW only
                LineSeg::from_coords(5.0, 1.0, 6.0, 2.0), // SE only
                LineSeg::from_coords(1.0, 5.0, 6.0, 5.0), // top, crosses x=4
            ];
            let state = LineProcSet::initial(world(), &segs);
            let out = split_active_nodes(&m, state, &segs);
            out.validate();
            // Quadrant contents by membership ground truth.
            let mut by_quad: Vec<Vec<SegId>> = vec![Vec::new(); 4];
            for (s, r) in out.seg.ranges().enumerate() {
                let q = out.nodes[s].path.quadrant_in_parent().unwrap().index();
                let mut ids = out.line[r].to_vec();
                ids.sort_unstable();
                by_quad[q] = ids;
            }
            assert_eq!(by_quad[Quadrant::NW.index()], vec![0, 2, 4]);
            assert_eq!(by_quad[Quadrant::NE.index()], vec![1, 4]);
            assert_eq!(by_quad[Quadrant::SW.index()], vec![0]);
            assert_eq!(by_quad[Quadrant::SE.index()], vec![1, 3]);
        }
    }

    #[test]
    fn empty_children_are_skipped() {
        for m in machines() {
            // Everything in one quadrant: the other three children must
            // not appear as active nodes.
            let segs = vec![
                LineSeg::from_coords(1.0, 5.0, 2.0, 6.0),
                LineSeg::from_coords(2.0, 5.0, 3.0, 7.0),
            ];
            let state = LineProcSet::initial(world(), &segs);
            let out = split_active_nodes(&m, state, &segs);
            assert_eq!(out.nodes.len(), 1);
            assert_eq!(out.nodes[0].path.quadrant_in_parent(), Some(Quadrant::NW));
            assert_eq!(out.line, vec![0, 1]);
        }
    }

    #[test]
    fn lane_rects_match_child_blocks() {
        for m in machines() {
            let segs = vec![
                LineSeg::from_coords(1.0, 1.0, 6.0, 6.0), // crosses everything
                LineSeg::from_coords(5.0, 6.0, 7.0, 7.0),
            ];
            let state = LineProcSet::initial(world(), &segs);
            let out = split_active_nodes(&m, state, &segs);
            out.validate();
            // Every lane's line must belong to its (new) block.
            for (s, r) in out.seg.ranges().enumerate() {
                for i in r {
                    assert!(seg_in_block(
                        &segs[out.line[i] as usize],
                        &out.nodes[s].rect
                    ));
                }
            }
        }
    }

    #[test]
    fn diagonal_is_cloned_into_exactly_its_blocks() {
        for m in machines() {
            // The main diagonal passes through SW, NE and touches the
            // centre; with half-open point membership it must appear in
            // the blocks it has positive length in.
            let segs = vec![LineSeg::from_coords(1.0, 1.0, 6.0, 6.0)];
            let state = LineProcSet::initial(world(), &segs);
            let out = split_active_nodes(&m, state, &segs);
            let quads: Vec<Quadrant> = out
                .nodes
                .iter()
                .map(|n| n.path.quadrant_in_parent().unwrap())
                .collect();
            assert_eq!(quads, vec![Quadrant::NE, Quadrant::SW]);
        }
    }

    #[test]
    fn backends_agree_on_split_results() {
        let segs: Vec<LineSeg> = (0..40)
            .map(|k| {
                let x = (k % 7) as f64 + 0.0;
                let y = (k % 5) as f64;
                LineSeg::from_coords(x, y, x + 1.0, y + 2.0)
            })
            .collect();
        let seq_m = Machine::sequential();
        let par_m = Machine::new(Backend::Parallel).with_par_threshold(1);
        let a = split_active_nodes(&seq_m, LineProcSet::initial(world(), &segs), &segs);
        let b = split_active_nodes(&par_m, LineProcSet::initial(world(), &segs), &segs);
        assert_eq!(a.line, b.line);
        assert_eq!(a.seg, b.seg);
        assert_eq!(a.nodes.len(), b.nodes.len());
    }
}
