//! The quadtree node splitting primitive (paper Sec. 4.6, Figs. 23–28).
//!
//! Splitting is a two-stage process: the node is first cut along the
//! horizontal centre line into its top and bottom halves, then each half
//! is cut along the vertical centre line, yielding four equal quadrants.
//! Each stage — one *cut* — is the same three-step dance, executed for
//! *all* splitting nodes simultaneously:
//!
//! 1. every lane decides elementwise which halves of its node its line
//!    belongs to (a line that **crosses the split axis** within the node
//!    belongs to both and must be *cloned* — paper Fig. 24);
//! 2. one gather-form layout replicates each lane once per half it
//!    belongs to — the **cloning** operation (Sec. 4.1) — and, in the
//!    same layout, gives the lanes of nodes that are *not* splitting
//!    arity zero, so retiring a finished node costs no layout of its own;
//! 3. every lane classifies itself to one side (originals of a cloned
//!    pair take the first side, the clones the second — Fig. 25), and an
//!    **unshuffle** (Sec. 4.2) packs each node's lanes into the two new
//!    contiguous segments (Figs. 26–28).
//!
//! **The block lives on the node, not on the lane.** A lane carries only
//! its line id; the block it is cut against is read from the per-node
//! table through the segment-aware elementwise pass
//! ([`Machine::seg_map_lanes_into`]), and the child blocks are written
//! per node where the child lists are built. One cut therefore moves the
//! 4-byte line lane and a 1-byte [`CutSide`] lane, nothing else.
//!
//! **Most lanes never reach a clip.** A lane is known to belong to its
//! block, so the only open question per cut is the one new constraint —
//! the cut line. [`classify_cut`] answers it with Liang–Barsky's own
//! tests on that single constraint, division-free; only the lanes it
//! cannot settle (the straddlers, and the handful of degenerate touches)
//! run the two [`seg_in_block`](dp_geom::seg_in_block) clips. The result
//! is the clips' result on every lane — see [`classify_cut`] for the
//! argument and `tests/split_differential.rs` for the evidence.

use crate::lineproc::{ActiveNode, LineProcSet};
use crate::SegId;
use dp_geom::{LineSeg, NodePath, Quadrant, Rect};
use scan_model::{Machine, Segments};

/// The coordinate a cut divides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CutAxis {
    /// Stage 1: the horizontal line `y = cy`; first half top, second
    /// bottom.
    Y,
    /// Stage 2: the vertical line `x = cx`; first half left, second right.
    X,
}

impl CutAxis {
    /// The first and second halves of `block` under this cut.
    pub fn halves(self, block: &Rect) -> (Rect, Rect) {
        let (min, max, c) = (block.min, block.max, block.center());
        match self {
            CutAxis::Y => (
                Rect::from_coords(min.x, c.y, max.x, max.y), // top
                Rect::from_coords(min.x, min.y, max.x, c.y), // bottom
            ),
            CutAxis::X => (
                Rect::from_coords(min.x, min.y, c.x, max.y), // left
                Rect::from_coords(c.x, min.y, max.x, max.y), // right
            ),
        }
    }
}

/// Which halves of its block's cut a lane belongs to. Doubles as the
/// lane's *arity* under the cut's one layout (`u32::from`): one copy per
/// half, none for the lane of a node that is not splitting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CutSide(u8);

impl CutSide {
    /// The lane's node is retiring this round: the lane vanishes.
    pub const RETIRED: CutSide = CutSide(0);
    /// The first half only.
    pub const FIRST: CutSide = CutSide(1);
    /// The second half only.
    pub const SECOND: CutSide = CutSide(2);
    /// Both halves: the lane is cloned.
    pub const BOTH: CutSide = CutSide(3);
}

impl From<CutSide> for u32 {
    fn from(side: CutSide) -> u32 {
        u32::from(side.0 & 1) + u32::from(side.0 >> 1)
    }
}

/// Liang–Barsky's verdict on one constraint `p·t ≤ q` when the constraint
/// alone kills the segment: parallel and outside, entering past `t = 1`,
/// or leaving before `t = 0`. Division-free: `q / p > 1 ⇔ q < p` for
/// `p < 0` and `q / p < 0 ⇔ q < 0` for `p > 0`, exactly, in IEEE
/// arithmetic (a correctly rounded quotient of distinct same-sign floats
/// never rounds to 1).
fn cut_rejects(p: f64, q: f64) -> bool {
    (p >= 0.0 && q < 0.0) || (p < 0.0 && q < p)
}

/// Liang–Barsky's verdict on one constraint when it can neither reject
/// nor move `t0` / `t1` off whatever the other constraints left in
/// `[0, 1]`: parallel and inside, entering at `t ≤ 0`, or leaving at
/// `t ≥ 1`.
fn cut_non_binding(p: f64, q: f64) -> bool {
    (p <= 0.0 && q >= 0.0) || (p > 0.0 && q >= p)
}

/// Decides, **without clipping**, which single half of `block` under
/// `axis` the segment belongs to — or returns `None` when that takes the
/// clips. Precondition: `seg_in_block(seg, block)` (every lane of a
/// [`LineProcSet`] satisfies it; [`LineProcSet::validate`] asserts it).
///
/// A half differs from its block in one constraint: the cut line
/// replaces the block's far edge on the cut axis. With `a`, `d = b − a`
/// the segment's origin and direction on that axis — the same `d` the
/// clip computes — the two halves' new constraints are `(−d, a − cut)`
/// (coordinate ≥ cut) and `(d, cut − a)` (coordinate ≤ cut).
///
/// * If the new constraint **rejects** (`p ≥ 0 ∧ q < 0`, or
///   `p < 0 ∧ q < p`: the clip's `t = q / p` tests, undivided), the clip to
///   that half returns `None` whatever the other three constraints say —
///   or, when `q / p` underflows to `−0`, a single point at `a`, which
///   the constraint's own `q < 0` places outside the half. Not a member.
/// * If the new constraint is **non-binding** (`p ≤ 0 ∧ q ≥ 0`, or
///   `p > 0 ∧ q ≥ p`), so is the edge it replaced (the edge lies farther
///   out, and both tests are monotone in `q`), so the clip to the half
///   runs through exactly the states of the clip to the block and returns
///   the same sub-segment.
///   The block's verdict was *member*; the half's is the same unless that
///   sub-segment is a single touch point, which must then lie half-open
///   inside the *half*. Every point the clip can compute lies, on the cut
///   axis, between `a` and `a + d` (rounding is monotone and `t ∈ [0, 1]`),
///   so comparing those two against the cut settles that too.
///
/// "Non-binding on one side, rejected on the other, and both computed
/// extremes on the non-binding side" therefore decides the lane exactly
/// as the two clips would. Anything else — a true straddler, an endpoint
/// on the cut line, a segment collinear with it — is `None`.
///
/// The shorter test `min(a, b) > cut` is **not** equivalent: the clip
/// never sees `b`, only `a + t·(b − a)`, and off an integer grid the
/// rounded `b − a` can reach the cut when `b` does not (DESIGN §20).
pub fn classify_cut(seg: &LineSeg, block: &Rect, axis: CutAxis) -> Option<CutSide> {
    let c = block.center();
    // `upper` / `lower`: the half on the high / low side of the cut.
    let (a, b, cut, upper, lower) = match axis {
        CutAxis::Y => (seg.a.y, seg.b.y, c.y, CutSide::FIRST, CutSide::SECOND),
        CutAxis::X => (seg.a.x, seg.b.x, c.x, CutSide::SECOND, CutSide::FIRST),
    };
    let d = b - a;
    let far = a + d;
    let (up_q, low_q) = (a - cut, cut - a);
    if cut_non_binding(-d, up_q) && cut_rejects(d, low_q) && a.min(far) >= cut {
        Some(upper)
    } else if cut_non_binding(d, low_q) && cut_rejects(-d, up_q) && a.max(far) < cut {
        Some(lower)
    } else {
        None
    }
}

/// The straddler path: the two clips of paper Fig. 24, for the lanes
/// [`classify_cut`] leaves open. A lane neither clip claims (no such
/// member of a block is known; debug builds assert there is none) stays
/// in the first half, never vanishes.
fn clip_to_halves(seg: &LineSeg, block: &Rect, axis: CutAxis) -> CutSide {
    let (first, second) = axis.halves(block);
    let side = u8::from(dp_geom::seg_in_block(seg, &first))
        | u8::from(dp_geom::seg_in_block(seg, &second)) << 1;
    debug_assert!(
        side != 0,
        "every lane must belong to at least one half of its own block"
    );
    CutSide(side.max(CutSide::FIRST.0))
}

/// The halves of `block` under `axis` that `seg` belongs to, given that it
/// belongs to `block`: [`classify_cut`] where that decides, the clips
/// otherwise. Never [`CutSide::RETIRED`].
pub fn cut_sides(seg: &LineSeg, block: &Rect, axis: CutAxis) -> CutSide {
    classify_cut(seg, block, axis).unwrap_or_else(|| clip_to_halves(seg, block, axis))
}

/// A node midway through the split: one half of a splitting block.
#[derive(Debug, Clone, Copy)]
struct HalfNode {
    parent: NodePath,
    rect: Rect,
    /// `false` = top half, `true` = bottom half.
    bottom: bool,
}

/// One cut over every segment at once. `block_of(s)` is the block segment
/// `s` is cut in, or `None` when its node is not splitting and its lanes
/// retire. Returns the reordered line lane and, per *surviving* input
/// segment in order, its `(first, second)` lane counts.
fn split_stage<B>(
    machine: &Machine,
    mut line: Vec<SegId>,
    seg: &Segments,
    segs: &[LineSeg],
    axis: CutAxis,
    block_of: B,
) -> (Vec<SegId>, Vec<(usize, usize)>)
where
    B: Fn(usize) -> Option<Rect> + Sync,
{
    // Step 1 (elementwise): membership in each half; crossing lanes are
    // members of both (paper Fig. 24's `clone` flag).
    let mut side: Vec<CutSide> = machine.lease();
    machine.seg_map_lanes_into(
        &line,
        seg,
        |s, id| {
            [block_of(s).map_or(CutSide::RETIRED, |block| {
                cut_sides(&segs[id as usize], &block, axis)
            })]
        },
        std::array::from_mut(&mut side),
    );

    // Step 2: one layout clones the crossing lanes (Sec. 4.1) and drops
    // the retiring ones — the membership code is the arity. Each copy
    // then takes its side (Fig. 25): of a cloned pair the original takes
    // the first half and the clone the second; single lanes follow their
    // membership.
    let layout = machine.fanout_layout(seg, &side);
    machine.apply_in_place(&mut line, &layout);
    let mut class: Vec<bool> = machine.lease();
    machine.apply_map_into(
        &side,
        &layout,
        |side, rank| {
            if side == CutSide::BOTH {
                rank == 1
            } else {
                side == CutSide::SECOND
            }
        },
        &mut class,
    );
    machine.recycle(side);

    // Step 3: unshuffle into [first | second] within each segment
    // (Sec. 4.2), ping-ponging the line ids through one leased slab.
    let un = machine.unshuffle_layout(&layout.seg, &class);
    machine.apply_unshuffle_swap(&mut line, &un);
    machine.recycle(class);
    (line, un.counts)
}

/// How many child lists a cut's `(first, second)` counts leave non-empty:
/// the exact length of the next node list, so the per-node vectors are
/// allocated once at their final size (at n = 10⁵ a doubled guess is a
/// 30 MB allocation a round).
fn occupied_sides(counts: &[(usize, usize)]) -> usize {
    counts
        .iter()
        .map(|&(first, second)| usize::from(first > 0) + usize::from(second > 0))
        .sum()
}

/// Splits every active node with `want[s]` set into its four quadrants
/// (paper Sec. 4.6) and drops the lanes of the others (the caller has
/// already emitted them as leaves), in place.
///
/// Children that receive no lanes become implicit empty leaves (they are
/// not represented in the new state; the assembly in [`crate::quadtree`]
/// materializes them). The new active node list is ordered NW, NE, SW, SE
/// within each parent.
///
/// # Panics
///
/// Panics if `want.len()` is not the number of active nodes.
pub fn split_active_nodes(
    machine: &Machine,
    state: &mut LineProcSet,
    want: &[bool],
    segs: &[LineSeg],
) {
    assert_eq!(want.len(), state.nodes.len(), "one flag per active node");

    // ---- Stage 1: horizontal cut into top / bottom halves. ----
    let line = std::mem::take(&mut state.line);
    let old_nodes = &state.nodes;
    let (line, counts) = split_stage(machine, line, &state.seg, segs, CutAxis::Y, |s| {
        want[s].then(|| old_nodes[s].rect)
    });
    let splitting = old_nodes.iter().zip(want).filter(|(_, &w)| w);
    let occupied = occupied_sides(&counts);
    let mut half_nodes: Vec<HalfNode> = Vec::with_capacity(occupied);
    let mut half_lengths: Vec<usize> = Vec::with_capacity(occupied);
    for ((node, _), &(n_top, n_bottom)) in splitting.zip(&counts) {
        let (top, bottom) = CutAxis::Y.halves(&node.rect);
        for (rect, bottom, n) in [(top, false, n_top), (bottom, true, n_bottom)] {
            if n > 0 {
                half_nodes.push(HalfNode {
                    parent: node.path,
                    rect,
                    bottom,
                });
                half_lengths.push(n);
            }
        }
    }
    let half_seg = Segments::from_lengths(&half_lengths).expect("non-empty halves only");

    // ---- Stage 2: vertical cut of each half into left / right. ----
    let (line, counts) = split_stage(machine, line, &half_seg, segs, CutAxis::X, |s| {
        Some(half_nodes[s].rect)
    });
    let occupied = occupied_sides(&counts);
    let mut nodes: Vec<ActiveNode> = Vec::with_capacity(occupied);
    let mut lengths: Vec<usize> = Vec::with_capacity(occupied);
    for (half, &(n_left, n_right)) in half_nodes.iter().zip(&counts) {
        let (left, right) = CutAxis::X.halves(&half.rect);
        let (q_left, q_right) = if half.bottom {
            (Quadrant::SW, Quadrant::SE)
        } else {
            (Quadrant::NW, Quadrant::NE)
        };
        for (rect, quadrant, n) in [(left, q_left, n_left), (right, q_right, n_right)] {
            if n > 0 {
                nodes.push(ActiveNode {
                    path: half.parent.child(quadrant),
                    rect,
                });
                lengths.push(n);
            }
        }
    }

    *state = LineProcSet {
        line,
        seg: Segments::from_lengths(&lengths).expect("non-empty children only"),
        nodes,
    };
    debug_assert_eq!(state.seg.num_segments(), state.nodes.len());
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

    /// One split of the root node over `segs`.
    fn split_root(m: &Machine, segs: &[LineSeg]) -> LineProcSet {
        let mut state = LineProcSet::initial(world(), segs);
        split_active_nodes(m, &mut state, &[true], segs);
        state
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
            let out = split_root(&m, &segs);
            out.validate(&segs);
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
            let out = split_root(&m, &segs);
            assert_eq!(out.nodes.len(), 1);
            assert_eq!(out.nodes[0].path.quadrant_in_parent(), Some(Quadrant::NW));
            assert_eq!(out.line, vec![0, 1]);
        }
    }

    #[test]
    fn lanes_belong_to_their_child_blocks() {
        for m in machines() {
            let segs = vec![
                LineSeg::from_coords(1.0, 1.0, 6.0, 6.0), // crosses everything
                LineSeg::from_coords(5.0, 6.0, 7.0, 7.0),
            ];
            // `validate` asserts every lane's line belongs to its (new)
            // block.
            split_root(&m, &segs).validate(&segs);
        }
    }

    #[test]
    fn retiring_nodes_vanish_in_the_first_cut() {
        for m in machines() {
            // Two nodes after one split (NW and SE); retire NW, split SE.
            let segs = vec![
                LineSeg::from_coords(1.0, 5.0, 2.0, 6.0), // NW
                LineSeg::from_coords(5.0, 1.0, 5.5, 1.5), // SE, its SW child
                LineSeg::from_coords(6.5, 2.5, 7.0, 3.0), // SE, its NE child
            ];
            let mut state = split_root(&m, &segs);
            assert_eq!(state.nodes.len(), 2);
            split_active_nodes(&m, &mut state, &[false, true], &segs);
            state.validate(&segs);
            assert_eq!(state.line, vec![2, 1]);
            assert!(state.nodes.iter().all(|n| n.path.depth() == 2));
        }
    }

    #[test]
    fn diagonal_is_cloned_into_exactly_its_blocks() {
        for m in machines() {
            // The main diagonal passes through SW, NE and touches the
            // centre; with half-open point membership it must appear in
            // the blocks it has positive length in.
            let segs = vec![LineSeg::from_coords(1.0, 1.0, 6.0, 6.0)];
            let out = split_root(&m, &segs);
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
        let a = split_root(&seq_m, &segs);
        let b = split_root(&par_m, &segs);
        assert_eq!(a.line, b.line);
        assert_eq!(a.seg, b.seg);
        assert_eq!(a.nodes.len(), b.nodes.len());
    }
}
