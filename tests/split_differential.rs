//! Differential tests for the quadtree node split (`dp_spatial::split`).
//!
//! The split classifies most lanes against a cut *without clipping*
//! ([`classify_cut`]) and keeps the node's block on the node instead of
//! on every lane. Both are exactness claims, so both are checked against
//! the code they replaced:
//!
//! * **(a) classification ≡ clips.** For every `(segment, block)` pair
//!   with the segment in the block, whatever [`classify_cut`] decides
//!   must be what the two `seg_in_block` clips of the block's halves say,
//!   and what it cannot prove must come back `None` (the split then
//!   clips). Swept exhaustively over a palette of coordinates around the
//!   cut line and the block edges (on them, ±1–3 ulp off them, ±0.0,
//!   zero-length, corner touches, magnitudes to 1e15) and by proptest.
//!   The sweep also shows the endpoint comparison `min(a, b) > cut` is
//!   *not* equivalent off the integer grid.
//! * **(b) new split ≡ old split.** The parent commit's stage — retire by
//!   a delete layout, carry a `Rect` per lane, two clips per lane per cut,
//!   clone layout, unshuffle, rewrite the rects — is kept here, on the
//!   public scan-model API, as the oracle: `line`, `seg` and `nodes` must
//!   agree on three machines, over scripted and random frontiers and over
//!   `want` vectors that retire the first, the last, all but one and
//!   every node.
//! * **(c)** [`LineProcSet::validate`] asserts the invariant the
//!   classification starts from, and a policy refuses (in debug builds) a
//!   frontier that breaks it.
//!
//! `PROPTEST_CASES` scales the random halves; CI runs 4096.

use dp_geom::{seg_in_block, LineSeg, NodePath, Point, Quadrant, Rect};
use dp_spatial::lineproc::{ActiveNode, LineProcSet};
use dp_spatial::split::{classify_cut, cut_sides, split_active_nodes, CutAxis, CutSide};
use dp_spatial::SegId;
use proptest::prelude::*;
use scan_model::{Backend, Machine, Segments};

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

fn machines() -> Vec<(&'static str, Machine)> {
    vec![
        ("sequential", Machine::sequential()),
        (
            "parallel",
            Machine::new(Backend::Parallel).with_par_threshold(1),
        ),
        (
            "parallel/512B",
            Machine::new(Backend::Parallel)
                .with_par_threshold(1)
                .with_block_bytes(512),
        ),
    ]
}

// ---------------------------------------------------------------------
// (a) classification ≡ the two clips
// ---------------------------------------------------------------------

/// `x` moved `k` representable values up (`k > 0`) or down.
fn ulps(x: f64, k: i32) -> f64 {
    let mut x = x;
    for _ in 0..k.abs() {
        x = if k > 0 { next_up(x) } else { -next_up(-x) };
    }
    x
}

fn next_up(x: f64) -> f64 {
    if x == 0.0 {
        f64::from_bits(1)
    } else if x > 0.0 {
        f64::from_bits(x.to_bits() + 1)
    } else {
        f64::from_bits(x.to_bits() - 1)
    }
}

/// What the two clips say: the membership the old stage computed.
fn clip_truth(seg: &LineSeg, block: &Rect, axis: CutAxis) -> (bool, bool) {
    let (first, second) = axis.halves(block);
    (seg_in_block(seg, &first), seg_in_block(seg, &second))
}

#[derive(Default, Debug)]
struct Tally {
    in_block: usize,
    decided: usize,
    open: usize,
    /// In-block lanes neither clip claims (the old stage's debug assert).
    orphans: usize,
    /// Lanes on which `min(a, b) > cut` / `max(a, b) < cut` would have
    /// decided differently from the clips.
    endpoint_form_wrong: usize,
}

/// Checks one pair on both axes; panics on a mismatch.
fn check_pair(seg: &LineSeg, block: &Rect, tally: &mut Tally) {
    if !seg_in_block(seg, block) {
        return;
    }
    for axis in [CutAxis::Y, CutAxis::X] {
        tally.in_block += 1;
        let truth = clip_truth(seg, block, axis);
        let decided = classify_cut(seg, block, axis);
        match decided {
            Some(side) => {
                tally.decided += 1;
                let want = match truth {
                    (true, false) => CutSide::FIRST,
                    (false, true) => CutSide::SECOND,
                    _ => panic!(
                        "{axis:?}: classify_cut decided {side:?} but the clips say {truth:?} \
                         for {seg:?} in {block:?}"
                    ),
                };
                assert_eq!(
                    side, want,
                    "{axis:?}: {seg:?} in {block:?}, clips {truth:?}"
                );
            }
            None => tally.open += 1,
        }
        if truth == (false, false) {
            tally.orphans += 1;
            continue;
        }
        let want = match truth {
            (true, true) => CutSide::BOTH,
            (true, false) => CutSide::FIRST,
            _ => CutSide::SECOND,
        };
        assert_eq!(
            cut_sides(seg, block, axis),
            want,
            "{axis:?}: {seg:?} in {block:?}"
        );

        // The tempting shortcut: compare the endpoints with the cut.
        let c = block.center();
        let (a, b, cut, upper_first) = match axis {
            CutAxis::Y => (seg.a.y, seg.b.y, c.y, true),
            CutAxis::X => (seg.a.x, seg.b.x, c.x, false),
        };
        let endpoint_form = if a.min(b) > cut {
            Some(upper_first)
        } else if a.max(b) < cut {
            Some(!upper_first)
        } else {
            None
        };
        if let Some(first) = endpoint_form {
            if truth != (first, !first) {
                tally.endpoint_form_wrong += 1;
            }
        }
    }
}

/// Coordinates worth trying on one axis of a block `[lo, hi]` with cut
/// `c`: on and around every line the clip compares against, well inside,
/// well outside, and both zeros.
fn palette(lo: f64, hi: f64) -> Vec<f64> {
    let c = (lo + hi) / 2.0;
    let w = hi - lo;
    let mut p = vec![lo - w, lo - 0.3 * w, hi + 0.3 * w, hi + w];
    for line in [lo, c, hi] {
        for k in [-3, -1, 0, 1, 3] {
            p.push(ulps(line, k));
        }
    }
    p.extend([lo + 0.25 * w, c - 0.125 * w, c + 0.125 * w, hi - 0.25 * w]);
    if lo <= 0.0 && 0.0 <= hi {
        p.extend([0.0, -0.0]);
    }
    p
}

/// Every segment with both endpoints on the palette grid of `block`.
fn sweep_block(block: &Rect, tally: &mut Tally) {
    let xs = palette(block.min.x, block.max.x);
    let ys = palette(block.min.y, block.max.y);
    for &ax in &xs {
        for &ay in &ys {
            for &bx in &xs {
                for &by in &ys {
                    check_pair(&LineSeg::from_coords(ax, ay, bx, by), block, tally);
                }
            }
        }
    }
}

#[test]
fn classification_matches_the_clips_around_every_compared_line() {
    let blocks = [
        Rect::from_coords(0.0, 0.0, 8.0, 8.0),
        Rect::from_coords(-4.0, -4.0, 4.0, 4.0), // cut lines at ±0.0
        Rect::from_coords(0.1, 0.7, 0.1 + 0.3, 0.7 + 0.3), // nothing representable
        Rect::from_coords(3.0, 5.0, 3.0 + 1.0 / 1024.0, 5.0 + 1.0 / 1024.0),
        Rect::from_coords(1e15, 1e15, 1e15 + 8.0, 1e15 + 8.0), // ulp = 1/8
        Rect::from_coords(1e15, -1e15, 1e15 + 0.5, -1e15 + 0.5), // 4 ulp wide
        Rect::from_coords(1e15, 1e15, 1e15 + 0.125, 1e15 + 0.125), // cut == an edge
    ];
    let mut tally = Tally::default();
    for block in &blocks {
        sweep_block(block, &mut tally);
    }
    // The sweep must reach both outcomes in bulk, or it proves nothing.
    assert!(tally.decided > 100_000, "{tally:?}");
    assert!(tally.open > 100_000, "{tally:?}");
    assert_eq!(tally.orphans, 0, "{tally:?}");
    // Off the integer grid the endpoint comparison is not the clips'
    // answer: the clip sees `a + t·(b − a)`, never `b`.
    assert!(tally.endpoint_form_wrong > 0, "{tally:?}");
}

/// The sub-cases the classification must *not* decide: each names a lane
/// whose verdict depends on more than the cut constraint.
#[test]
fn unprovable_lanes_fall_through_to_the_clips() {
    let block = Rect::from_coords(0.0, 0.0, 8.0, 8.0);
    let open = [
        ("crosses the cut", (1.0, 1.0, 2.0, 7.0)),
        ("endpoint on the cut, from above", (1.0, 4.0, 2.0, 7.0)),
        ("endpoint on the cut, from below", (1.0, 1.0, 2.0, 4.0)),
        ("collinear with the cut", (1.0, 4.0, 6.0, 4.0)),
        ("zero length on the cut", (3.0, 4.0, 3.0, 4.0)),
        (
            "crosses the cut line outside the block",
            (12.0, 6.0, 6.0, 0.0),
        ),
        ("touches the centre from one quadrant", (4.0, 4.0, 6.0, 7.0)),
    ];
    for (what, (ax, ay, bx, by)) in open {
        let seg = LineSeg::from_coords(ax, ay, bx, by);
        assert!(seg_in_block(&seg, &block), "{what}");
        assert_eq!(classify_cut(&seg, &block, CutAxis::Y), None, "{what}");
    }
    let decided = [
        ("strictly above", (1.0, 5.0, 7.0, 6.0), CutSide::FIRST),
        ("strictly below", (1.0, 3.0, 7.0, 1.0), CutSide::SECOND),
        ("zero length above", (3.0, 6.0, 3.0, 6.0), CutSide::FIRST),
        (
            "one ulp above the cut",
            (1.0, ulps(4.0, 1), 2.0, 7.0),
            CutSide::FIRST,
        ),
        (
            "enters from outside, above",
            (-3.0, 9.0, 3.0, 5.0),
            CutSide::FIRST,
        ),
    ];
    for (what, (ax, ay, bx, by), side) in decided {
        let seg = LineSeg::from_coords(ax, ay, bx, by);
        assert!(seg_in_block(&seg, &block), "{what}");
        assert_eq!(classify_cut(&seg, &block, CutAxis::Y), Some(side), "{what}");
    }
    // On the vertical cut the low side is the first half.
    let left = LineSeg::from_coords(1.0, 1.0, 3.0, 7.0);
    assert_eq!(
        classify_cut(&left, &block, CutAxis::X),
        Some(CutSide::FIRST)
    );
}

/// A coordinate near one of the lines of `[lo, lo + w]`, or anywhere
/// around it: `which` picks the line, `k` the ulp offset, `frac` the
/// free position.
fn coord(lo: f64, w: f64, which: u8, k: i32, frac: f64) -> f64 {
    match which {
        0 => ulps(lo, k),
        1 => ulps(lo + w / 2.0, k),
        2 => ulps(lo + w, k),
        3 => (lo + frac * w).round(), // grid
        _ => lo + (2.0 * frac - 0.5) * w,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Random blocks (integer, fractional and far-from-origin corners)
    /// and segments whose endpoints sit on, next to or away from the
    /// lines the clip compares against.
    #[test]
    fn classification_matches_the_clips_on_random_pairs(
        origin in (0u8..4, -1000i32..1000, -1000i32..1000),
        size_exp in -10i32..8,
        ends in prop::collection::vec(
            ((0u8..5, -3i32..4, 0.0f64..1.0), (0u8..5, -3i32..4, 0.0f64..1.0)),
            4..5,
        ),
    ) {
        let (kind, ox, oy) = origin;
        let w = 2f64.powi(size_exp);
        let (x0, y0, w) = match kind {
            0 => (f64::from(ox), f64::from(oy), w),
            1 => (f64::from(ox) * w, f64::from(oy) * w, w),
            2 => (f64::from(ox) / 7.0, f64::from(oy) / 3.0, w),
            // An ulp is 1/8 out here: keep the block a few of them wide.
            _ => (1e15 + f64::from(ox), -1e15 + f64::from(oy), w.max(0.25)),
        };
        let block = Rect::from_coords(x0, y0, x0 + w, y0 + w);
        let pick = |(wx, kx, fx): (u8, i32, f64), (wy, ky, fy): (u8, i32, f64)| {
            Point::new(coord(x0, w, wx, kx, fx), coord(y0, w, wy, ky, fy))
        };
        let mut tally = Tally::default();
        for pair in ends.chunks(2) {
            let a = pick(pair[0].0, pair[0].1);
            let b = pick(pair[1].0, pair[1].1);
            check_pair(&LineSeg::new(a, b), &block, &mut tally);
            check_pair(&LineSeg::new(a, a), &block, &mut tally);
        }
        prop_assert_eq!(tally.orphans, 0);
    }
}

// ---------------------------------------------------------------------
// (b) new split ≡ the parent commit's split
// ---------------------------------------------------------------------

/// The frontier as the parent commit held it: a block per lane.
struct OldState {
    line: Vec<SegId>,
    rect: Vec<Rect>,
    seg: Segments,
    nodes: Vec<ActiveNode>,
}

/// The parent commit's split stage, verbatim in structure: two clips per
/// lane, clone layout, three applies, unshuffle, per-lane rect rewrite.
fn old_split_stage(
    m: &Machine,
    line: &[SegId],
    rect: &[Rect],
    seg: &Segments,
    segs: &[LineSeg],
    axis: CutAxis,
) -> (Vec<SegId>, Vec<Rect>, Vec<(usize, usize)>) {
    let membership: Vec<(bool, bool)> = m.zip_map(line, rect, |id, r| {
        let (first, second) = axis.halves(&r);
        let s = &segs[id as usize];
        (seg_in_block(s, &first), seg_in_block(s, &second))
    });
    let clone_flags: Vec<bool> = m.map(&membership, |(a, b)| a && b);
    let layout = m.clone_layout(seg, &clone_flags);
    let line = m.apply(line, &layout);
    let rect = m.apply(rect, &layout);
    let membership = m.apply(&membership, &layout);
    let class: Vec<bool> = membership
        .iter()
        .zip(&layout.rank)
        .map(|(&(a, b), &rank)| if a && b { rank == 1 } else { b })
        .collect();
    let un = m.unshuffle_layout(&layout.seg, &class);
    let line = m.apply_unshuffle(&line, &un);
    let class = m.apply_unshuffle(&class, &un);
    let rect = m.zip_map(&rect, &class, |r, c| {
        let (first, second) = axis.halves(&r);
        if c {
            second
        } else {
            first
        }
    });
    (line, rect, un.counts)
}

/// The parent commit's `partition`: delete the retired nodes' lanes, then
/// the two stages with their host-side child lists.
fn old_split(m: &Machine, state: OldState, want: &[bool], segs: &[LineSeg]) -> OldState {
    let mut lane_finished = vec![false; state.seg.len()];
    for (s, r) in state.seg.ranges().enumerate() {
        lane_finished[r].fill(!want[s]);
    }
    let layout = m.delete_layout(&state.seg, &lane_finished);
    let line = m.apply(&state.line, &layout);
    let rect = m.apply(&state.rect, &layout);
    let kept: Vec<ActiveNode> = state
        .nodes
        .iter()
        .zip(want)
        .filter(|(_, &w)| w)
        .map(|(n, _)| *n)
        .collect();

    let (line, rect, counts) = old_split_stage(m, &line, &rect, &layout.seg, segs, CutAxis::Y);
    let mut halves: Vec<(NodePath, Rect, bool)> = Vec::new();
    let mut half_lengths = Vec::new();
    for (node, &(n_top, n_bottom)) in kept.iter().zip(&counts) {
        let (top, bottom) = CutAxis::Y.halves(&node.rect);
        if n_top > 0 {
            halves.push((node.path, top, false));
            half_lengths.push(n_top);
        }
        if n_bottom > 0 {
            halves.push((node.path, bottom, true));
            half_lengths.push(n_bottom);
        }
    }
    let half_seg = Segments::from_lengths(&half_lengths).unwrap();

    let (line, rect, counts) = old_split_stage(m, &line, &rect, &half_seg, segs, CutAxis::X);
    let mut nodes = Vec::new();
    let mut lengths = Vec::new();
    for (&(parent, half, bottom), &(n_left, n_right)) in halves.iter().zip(&counts) {
        let (left, right) = CutAxis::X.halves(&half);
        let (q_left, q_right) = if bottom {
            (Quadrant::SW, Quadrant::SE)
        } else {
            (Quadrant::NW, Quadrant::NE)
        };
        if n_left > 0 {
            nodes.push(ActiveNode {
                path: parent.child(q_left),
                rect: left,
            });
            lengths.push(n_left);
        }
        if n_right > 0 {
            nodes.push(ActiveNode {
                path: parent.child(q_right),
                rect: right,
            });
            lengths.push(n_right);
        }
    }
    OldState {
        line,
        rect,
        seg: Segments::from_lengths(&lengths).unwrap(),
        nodes,
    }
}

fn with_lane_rects(state: &LineProcSet) -> OldState {
    let mut rect = Vec::with_capacity(state.len());
    for (s, r) in state.seg.ranges().enumerate() {
        rect.extend(std::iter::repeat(state.nodes[s].rect).take(r.len()));
    }
    OldState {
        line: state.line.clone(),
        rect,
        seg: state.seg.clone(),
        nodes: state.nodes.clone(),
    }
}

/// Splits `state` by `want` both ways on machine `m` and demands equal
/// `line`, `seg` and `nodes` (path and block bits), and the old stage's
/// per-lane rects equal to the new per-node ones.
fn assert_split_matches_old(
    m: &Machine,
    state: &LineProcSet,
    want: &[bool],
    segs: &[LineSeg],
    context: &str,
) -> LineProcSet {
    let old = old_split(m, with_lane_rects(state), want, segs);
    let mut new = state.clone();
    split_active_nodes(m, &mut new, want, segs);
    assert_eq!(new.line, old.line, "{context}: line");
    assert_eq!(new.seg, old.seg, "{context}: seg");
    assert_eq!(new.nodes.len(), old.nodes.len(), "{context}: node count");
    for (s, (n, o)) in new.nodes.iter().zip(&old.nodes).enumerate() {
        assert_eq!(n.path, o.path, "{context}: node {s} path");
        assert_eq!(n.rect, o.rect, "{context}: node {s} block");
    }
    for (s, r) in new.seg.ranges().enumerate() {
        for i in r {
            assert_eq!(old.rect[i], new.nodes[s].rect, "{context}: lane {i} block");
        }
    }
    new.validate(segs);
    new
}

/// The `want` vectors every frontier is split under.
fn want_patterns(n: usize) -> Vec<(&'static str, Vec<bool>)> {
    let all_but = |keep: usize| {
        let mut w = vec![false; n];
        w[keep] = true;
        w
    };
    let mut patterns = vec![
        ("all split", vec![true; n]),
        ("all retired", vec![false; n]),
        ("all but the first retired", all_but(0)),
        ("all but the last retired", all_but(n - 1)),
        ("alternating", (0..n).map(|s| s % 2 == 0).collect()),
    ];
    if n > 1 {
        let mut first_retired = vec![true; n];
        first_retired[0] = false;
        let mut last_retired = vec![true; n];
        last_retired[n - 1] = false;
        patterns.push(("first retired", first_retired));
        patterns.push(("last retired", last_retired));
    }
    patterns
}

/// Drives a frontier from the root for `rounds` rounds on every machine:
/// each round, every `want` pattern is checked against the oracle, and
/// the all-split result carries on.
fn check_frontiers(label: &str, world: Rect, segs: &[LineSeg], rounds: usize) {
    for (name, m) in machines() {
        let mut state = LineProcSet::initial(world, segs);
        for round in 0..rounds {
            if state.nodes.is_empty() {
                break;
            }
            let mut next = None;
            for (pattern, want) in want_patterns(state.nodes.len()) {
                let context = format!("{label} on {name}, round {round}, {pattern}");
                let out = assert_split_matches_old(&m, &state, &want, segs, &context);
                if pattern == "all split" {
                    next = Some(out);
                }
            }
            state = next.expect("the all-split pattern is always present");
        }
    }
}

fn world64() -> Rect {
    Rect::from_coords(0.0, 0.0, 64.0, 64.0)
}

#[test]
fn scripted_frontiers_split_as_the_parent_commit_did() {
    let scripted: Vec<(&str, Vec<LineSeg>)> = vec![
        (
            "paper dataset",
            dp_workloads::paper_dataset()
                .iter()
                .map(|s| LineSeg::from_coords(s.a.x * 8.0, s.a.y * 8.0, s.b.x * 8.0, s.b.y * 8.0))
                .collect(),
        ),
        (
            "on the cut lines",
            vec![
                LineSeg::from_coords(0.0, 32.0, 63.0, 32.0), // along y = 32
                LineSeg::from_coords(32.0, 1.0, 32.0, 63.0), // along x = 32
                LineSeg::from_coords(16.0, 16.0, 48.0, 48.0), // through the centre
                LineSeg::from_coords(32.0, 32.0, 40.0, 33.0), // starts at the centre
                LineSeg::from_coords(16.0, 8.0, 16.0, 24.0), // along a depth-2 cut
                LineSeg::from_coords(5.0, 5.0, 5.0, 5.0),    // a point
                LineSeg::from_coords(32.0, 32.0, 32.0, 32.0), // a point on the centre
            ],
        ),
        (
            "twelve identical segments",
            vec![LineSeg::from_coords(3.0, 5.0, 41.0, 23.0); 12],
        ),
        (
            "all collinear on a cut line",
            (0..10)
                .map(|k| {
                    let x = f64::from(k) * 6.0;
                    LineSeg::from_coords(x, 32.0, x + 9.0, 32.0)
                })
                .collect(),
        ),
        (
            "fractional",
            (0..40)
                .map(|k| {
                    let (x, y) = (
                        f64::from(k) * 1.37 + 0.1,
                        f64::from(k * 7 % 40) * 1.41 + 0.3,
                    );
                    LineSeg::from_coords(x, y, x + 5.3, (y + 2.9).min(63.9))
                })
                .collect(),
        ),
    ];
    for (label, segs) in scripted {
        check_frontiers(label, world64(), &segs, 5);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases().min(512)))]

    /// Random segments — integer and fractional endpoints, coincident
    /// copies included — driven three rounds from the root.
    #[test]
    fn random_frontiers_split_as_the_parent_commit_did(
        raw in prop::collection::vec((0u32..512, 0u32..512, 0u32..96, 0u32..96, 0u8..4), 1..40),
    ) {
        let segs: Vec<LineSeg> = raw
            .into_iter()
            .flat_map(|(x, y, w, h, kind)| {
                // Eighths: fractional but exactly representable, so cut
                // lines are hit often.
                let scale = if kind == 0 { 1.0 } else { 0.125 };
                let (x, y) = (f64::from(x) * scale % 64.0, f64::from(y) * scale % 64.0);
                let s = LineSeg::from_coords(
                    x,
                    y,
                    (x + f64::from(w) * scale).min(63.875),
                    (y + f64::from(h) * scale).min(63.875),
                );
                std::iter::repeat(s).take(if kind == 3 { 3 } else { 1 })
            })
            .collect();
        check_frontiers("random", world64(), &segs, 3);
    }
}

// ---------------------------------------------------------------------
// (c) the invariant is asserted where frontiers enter
// ---------------------------------------------------------------------

fn misplaced_frontier() -> (LineProcSet, Vec<LineSeg>) {
    // The line lies in the NE quadrant; the frontier claims SW.
    let segs = vec![LineSeg::from_coords(40.0, 40.0, 50.0, 50.0)];
    let state = LineProcSet {
        line: vec![0],
        seg: Segments::single(1),
        nodes: vec![ActiveNode {
            path: NodePath::ROOT.child(Quadrant::SW),
            rect: world64().quadrants()[Quadrant::SW.index()],
        }],
    };
    (state, segs)
}

#[test]
#[should_panic(expected = "does not belong to node")]
fn validate_rejects_a_lane_outside_its_block() {
    let (state, segs) = misplaced_frontier();
    state.validate(&segs);
}

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "does not belong to node")]
fn a_policy_refuses_a_frontier_that_breaks_the_invariant() {
    use dp_spatial::lineproc::QuadSplitPolicy;
    use dp_spatial::quadtree::QuadtreeAssembler;
    let (state, segs) = misplaced_frontier();
    let mut decide = |_: &Machine, st: &LineProcSet, _: &[LineSeg]| vec![true; st.nodes.len()];
    let out = QuadtreeAssembler::new(world64());
    QuadSplitPolicy::from_frontier(state, &segs, 4, &mut decide, out);
}
