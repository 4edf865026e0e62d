//! The composed paper-figure forms of cloning (Fig. 14), unshuffling
//! (Fig. 16), duplicate deletion (Fig. 18) and the ×k fan-out, written
//! step by step — indicator map, counting scan(s), position arithmetic,
//! scatter — over the independent scan oracle [`scan_seq`]. These were the
//! sequential backend's layout bodies before the crate had one layout
//! kernel; they share no code with it and are what the differential tests
//! (here and in the workspace root's `tests/scanmodel_kernels.rs`, which
//! includes this file by path) hold its wrappers to.

use scan_model::ops::Sum;
use scan_model::scan::scan_seq;
use scan_model::{Direction, ScanKind, Segments};

/// A gather-form layout as the figures produce it: source lanes, copy
/// ranks, output segment flags and per-input-segment output counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComposedLayout {
    pub src_lane: Vec<usize>,
    pub rank: Vec<u32>,
    pub flags: Vec<bool>,
    pub counts: Vec<usize>,
}

/// Fig. 14 generalized to any arity: `F1 = up-scan(arity, +, ex)` is each
/// lane's first output slot, the scatter writes its copies there. A
/// segment head whose lane vanishes hands its boundary to the next
/// surviving lane.
pub fn fanout_composed(seg: &Segments, copies: &[u32]) -> ComposedLayout {
    let n = seg.len();
    let widened: Vec<u64> = copies.iter().map(|&c| c as u64).collect();
    let f1 = scan_seq(
        &widened,
        &Segments::single(n),
        Sum,
        Direction::Up,
        ScanKind::Exclusive,
    );
    let out_len: usize = copies.iter().map(|&c| c as usize).sum();
    let mut src_lane = vec![0usize; out_len];
    let mut rank = vec![0u32; out_len];
    let mut flags = vec![false; out_len];
    let mut pending = false;
    for i in 0..n {
        let base = f1[i] as usize;
        pending |= seg.flags()[i];
        for r in 0..copies[i] {
            src_lane[base + r as usize] = i;
            rank[base + r as usize] = r;
        }
        if copies[i] > 0 {
            flags[base] = pending;
            pending = false;
        }
    }
    let counts = seg
        .ranges()
        .map(|r| r.map(|i| copies[i] as usize).sum())
        .collect();
    ComposedLayout {
        src_lane,
        rank,
        flags,
        counts,
    }
}

/// Fig. 14: `F1 = up-scan(CF, +, ex)`, `F2 = ew(+, P, F1)`, permute, and
/// every flagged lane copies itself one slot to the right. Returns the
/// source lanes, the clone markers and the output segment flags.
pub fn clone_composed(seg: &Segments, clone_flags: &[bool]) -> (Vec<usize>, Vec<bool>, Vec<bool>) {
    let n = seg.len();
    let ones: Vec<u64> = clone_flags.iter().map(|&f| f as u64).collect();
    let f1 = scan_seq(
        &ones,
        &Segments::single(n),
        Sum,
        Direction::Up,
        ScanKind::Exclusive,
    );
    let out_len = n + clone_flags.iter().filter(|&&f| f).count();
    let mut src_lane = vec![0usize; out_len];
    let mut is_clone = vec![false; out_len];
    let mut flags = vec![false; out_len];
    for i in 0..n {
        let f2 = i + f1[i] as usize;
        src_lane[f2] = i;
        flags[f2] = seg.flags()[i];
        if clone_flags[i] {
            // A clone never begins a segment: it joins its original's.
            src_lane[f2 + 1] = i;
            is_clone[f2 + 1] = true;
        }
    }
    (src_lane, is_clone, flags)
}

/// Fig. 18: `F1 = up-scan(DF, +, ex)` counts the doomed lanes to each
/// lane's left, `ew(-, P, F1)` is each survivor's new index. Returns the
/// surviving source lanes and the survivors per input segment.
pub fn delete_composed(seg: &Segments, delete_flags: &[bool]) -> (Vec<usize>, Vec<usize>) {
    let n = seg.len();
    let ones: Vec<u64> = delete_flags.iter().map(|&f| f as u64).collect();
    let f1 = scan_seq(
        &ones,
        &Segments::single(n),
        Sum,
        Direction::Up,
        ScanKind::Exclusive,
    );
    let kept = delete_flags.iter().filter(|&&f| !f).count();
    let mut src_lane = vec![0usize; kept];
    for i in (0..n).filter(|&i| !delete_flags[i]) {
        src_lane[i - f1[i] as usize] = i;
    }
    let kept_per_segment = seg
        .ranges()
        .map(|r| r.filter(|&i| !delete_flags[i]).count())
        .collect();
    (src_lane, kept_per_segment)
}

/// Fig. 16: `F1` counts the `b`s to the left of each `a` (upward
/// inclusive segmented scan of the `b` indicator), `F2` the `a`s to the
/// right of each `b` (downward), and `ew(-, P, F1)` / `ew(+, P, F2)` are
/// the scatter targets. Returns the targets and the per-segment
/// `(a, b)` populations.
pub fn unshuffle_composed(seg: &Segments, class: &[bool]) -> (Vec<usize>, Vec<(usize, usize)>) {
    let b_ind: Vec<u64> = class.iter().map(|&c| c as u64).collect();
    let a_ind: Vec<u64> = class.iter().map(|&c| !c as u64).collect();
    let f1 = scan_seq(&b_ind, seg, Sum, Direction::Up, ScanKind::Inclusive);
    let f2 = scan_seq(&a_ind, seg, Sum, Direction::Down, ScanKind::Inclusive);
    let target = (0..seg.len())
        .map(|i| {
            if class[i] {
                i + f2[i] as usize
            } else {
                i - f1[i] as usize
            }
        })
        .collect();
    let counts = seg
        .ranges()
        .map(|r| {
            let na = r.clone().filter(|&i| !class[i]).count();
            (na, r.len() - na)
        })
        .collect();
    (target, counts)
}
