//! The one scan walk: a cache-blocked block-reduce → carry → block-apply
//! kernel, generic over its lane count and lane operators.
//!
//! A segmented scan is an ordinary scan of *(reset, value)* pairs,
//!
//! ```text
//! (f1, v1) ⊕ (f2, v2) = (f1 ∨ f2, if f2 { v2 } else { v1 ⊕ v2 })
//! ```
//!
//! which is associative whenever `⊕` is, so the vector can be cut into
//! blocks (Gu, Obeya & Shun, *Parallel In-Place Algorithms*): phase 1
//! reduces every block to its pair-scan total, a short sequential fold
//! turns the totals into per-block carries, and phase 3 re-scans each
//! block seeded with its carry. Every [`crate::Machine`] scan on either
//! backend is this kernel ([`scan_blocked_into`] for one static
//! [`CombineOp`], [`scan_lanes_blocked_into`] for up to
//! [`MAX_FUSED_WIDTH`] dynamic [`FusedOp`] lanes per chunk — the same
//! body, monomorphized over its lane operators):
//!
//! * the fold-restart structure is read off the segment descriptor
//!   *inside* the walk, once per run of lanes between two boundaries —
//!   no resets vector is materialized and the inner loops test no flag;
//! * blocks are [`block_elems`]-sized (an L2-ish byte budget, see
//!   [`tuned_block_bytes`]), not `n / threads`-sized, so each block's
//!   summary and rescan touch cache-resident data;
//! * blocks are dealt to workers as contiguous ranges
//!   ([`rayon::for_each_block`]) so the reduce and apply phases revisit
//!   the same worker-local spans;
//! * with a single worker the phases collapse into **one** sweep: the
//!   rescan body runs once over the whole vector, touching each element
//!   exactly once — the pure directional fold. The sequential backend is
//!   that arm with `threads = 0`, which also keeps it off the pool's
//!   fault hook.
//!
//! Numerical contract: the single-worker sweep is always bit-identical
//! to the independent oracle [`crate::scan::scan_seq`]. The multi-worker
//! path folds block totals lane by lane in walk order, so lanes whose
//! operator is associative under rounding (all integer ops, f64 Min/Max,
//! integer-valued f64 sums) are bit-identical at any block size;
//! fractional f64 sums additionally require that no segment fully
//! contain a block.

use std::ops::Range;
use std::sync::OnceLock;

use crate::fused::{FusedElement, FusedOp, MAX_FUSED_WIDTH};
use crate::ops::{CombineOp, Element, Sum};
use crate::scan::{Direction, ScanKind};
use crate::scatter::SyncPtr;
use crate::vector::Segments;

/// Smallest block a caller can configure, in elements. Below this the
/// per-block bookkeeping dominates the walk.
pub const MIN_BLOCK_ELEMS: usize = 64;

/// Fallback block byte budget when calibration is unavailable: 256 KiB,
/// a conservative slice of a typical per-core L2.
pub const DEFAULT_BLOCK_BYTES: usize = 1 << 18;

/// The process-wide block byte budget, resolved once:
///
/// 1. `DP_BLOCK` (bytes, decimal) if set and positive — the operator
///    override documented in the README;
/// 2. otherwise a one-shot calibration sweep over power-of-two L2-sized
///    candidates (64 KiB – 1 MiB) timing a small blocked sum scan.
///
/// Cached in a `OnceLock`: machines are constructed per shard and in
/// thousands of tests, and the right block size is a property of the
/// hardware, not of any one machine.
///
/// The value is resolved *before* the cell is touched, never inside its
/// initialiser: calibration submits scans to the worker pool and helps
/// drain the queue while it waits, so it can pick up a job that builds a
/// `Machine` and lands here again — on the same thread, inside the
/// initialiser, where `OnceLock` blocks forever (and every other worker
/// that reaches this function blocks behind it). First to finish wins;
/// a thread that raced it calibrated for nothing.
pub fn tuned_block_bytes() -> usize {
    static TUNED: OnceLock<usize> = OnceLock::new();
    if let Some(&bytes) = TUNED.get() {
        return bytes;
    }
    let bytes = std::env::var("DP_BLOCK")
        .ok()
        .and_then(|raw| raw.trim().parse::<usize>().ok())
        .filter(|&bytes| bytes > 0)
        .unwrap_or_else(calibrate_block_bytes);
    *TUNED.get_or_init(|| bytes)
}

/// Power-of-two sweep over L2-sized candidates: time a small blocked sum
/// scan at each candidate and keep the fastest. The scan is tiny (64 Ki
/// u64 lanes, ~0.5 MB) so calibration costs well under a millisecond per
/// candidate; correctness never depends on the choice.
fn calibrate_block_bytes() -> usize {
    use std::time::Instant;
    let n: usize = 1 << 16;
    let data: Vec<u64> = (0..n as u64).collect();
    let flags: Vec<bool> = (0..n).map(|i| i % 97 == 0).collect();
    let seg = Segments::from_flags(flags).expect("calibration flags start with a segment head");
    let threads = rayon::current_num_threads();
    let mut out: Vec<u64> = Vec::with_capacity(n);
    let mut best = (u128::MAX, DEFAULT_BLOCK_BYTES);
    for shift in 16..=20 {
        let bytes = 1usize << shift;
        let blk = block_elems::<u64>(bytes);
        let mut fastest = u128::MAX;
        // One warm-up run per candidate, then best-of-3.
        for rep in 0..4 {
            let t0 = Instant::now();
            scan_blocked_into(
                &data,
                &seg,
                Sum,
                Direction::Up,
                ScanKind::Inclusive,
                blk,
                threads,
                &mut out,
            );
            let dt = t0.elapsed().as_nanos();
            if rep > 0 {
                fastest = fastest.min(dt);
            }
        }
        if fastest < best.0 {
            best = (fastest, bytes);
        }
    }
    best.1
}

/// Converts a block byte budget into a per-`T` element count, floored at
/// [`MIN_BLOCK_ELEMS`].
pub fn block_elems<T>(block_bytes: usize) -> usize {
    block_elems_of(block_bytes, std::mem::size_of::<T>())
}

/// [`block_elems`] for a pass whose widest lane is `lane_bytes` wide. An
/// elementwise pass is sized by the widest lane it reads *or* writes: a
/// byte-wide output computed from wider inputs would otherwise get blocks
/// eight times too long and run on one worker.
pub(crate) fn block_elems_of(block_bytes: usize, lane_bytes: usize) -> usize {
    (block_bytes / lane_bytes.max(1)).max(MIN_BLOCK_ELEMS)
}

/// Walks `0..n` block by block: `block`-sized blocks dealt to the pool
/// ([`rayon::for_each_block`]) when `pool` is set, else one inline call
/// over the whole range. The blocked elementwise, layout and apply
/// bodies all go through here, so the block-sizing policy lives in one
/// place.
pub(crate) fn for_each_block<F>(pool: bool, n: usize, block: usize, body: F)
where
    F: Fn(usize, usize) + Sync,
{
    if pool {
        rayon::for_each_block(n, block, body);
    } else if n > 0 {
        body(0, n);
    }
}

/// The operators of a K-lane scan, addressed by lane, so the walk below
/// is written once for a single static [`CombineOp`] (K = 1 — `First`,
/// `Last`, `Or`, `And` and non-numeric lanes keep a monomorphized loop)
/// and for a stack array of dynamic [`FusedOp`]s.
pub(crate) trait LaneOps<T: Element, const K: usize>: Copy + Send + Sync {
    /// The identity of lane `lane`'s operator.
    fn identity(&self, lane: usize) -> T;
    /// `a ⊕ b` under lane `lane`'s operator.
    fn combine(&self, lane: usize, a: T, b: T) -> T;
}

/// One static operator as a one-lane operator set.
#[derive(Clone, Copy)]
struct OneOp<O>(O);

impl<T: Element, O: CombineOp<T>> LaneOps<T, 1> for OneOp<O> {
    #[inline(always)]
    fn identity(&self, _lane: usize) -> T {
        self.0.identity()
    }
    #[inline(always)]
    fn combine(&self, _lane: usize, a: T, b: T) -> T {
        self.0.combine(a, b)
    }
}

/// Pair-scan state of all K lanes. One `valid` bit serves every lane:
/// they share the reset structure, so all K become valid at the same
/// element.
#[derive(Clone, Copy)]
struct LaneState<T, const K: usize> {
    valid: bool,
    state: [T; K],
}

/// Everything a block body reads: the K input lanes, their operators, the
/// segment structure and the walk's direction and kind. `Copy`, so each
/// pool phase carries its own copy and the single-sweep arm's never has
/// its address taken — its fields stay in registers across the stores.
#[derive(Clone, Copy)]
struct Walk<'a, T, L, const K: usize> {
    datas: [&'a [T]; K],
    ops: L,
    seg: &'a Segments,
    dir: Direction,
    kind: ScanKind,
}

impl<T: Element, L: LaneOps<T, K>, const K: usize> Walk<'_, T, L, K> {
    /// Directional combine with the oracle's operand order: the
    /// already-accumulated state sits on the walk side (`state ⊕ d`
    /// upward, `d ⊕ state` downward), which is what preserves `f64`
    /// bit-identity and non-commutative operators.
    #[inline(always)]
    fn combine(&self, lane: usize, state: T, d: T) -> T {
        match self.dir {
            Direction::Up => self.ops.combine(lane, state, d),
            Direction::Down => self.ops.combine(lane, d, state),
        }
    }

    fn empty(&self) -> LaneState<T, K> {
        LaneState {
            valid: false,
            state: std::array::from_fn(|l| self.ops.identity(l)),
        }
    }

    /// Cuts `lo..hi` at the segment boundaries inside it: the runs of
    /// lanes between two boundaries, in walk order, each with whether the
    /// fold restarts at its first-walked lane (a segment head going up, a
    /// segment end going down). The restart structure is read off the
    /// segment starts once per run, so the bodies below loop over a run
    /// with no per-lane flag test.
    #[inline(always)]
    fn runs(&self, lo: usize, hi: usize) -> impl Iterator<Item = (Range<usize>, bool)> + '_ {
        let starts = self.seg.starts();
        let flags = self.seg.flags();
        // The segment starts strictly inside `lo..hi`.
        let cuts = &starts[starts.partition_point(|&s| s <= lo)..];
        let mut cuts = cuts[..cuts.partition_point(|&s| s < hi)].iter();
        let up = matches!(self.dir, Direction::Up);
        // The next run's walk-side end, and whether the fold restarts
        // there; every run but the first-walked begins at a cut. (A
        // pointer walk over the cuts: runs of one or two lanes are common
        // late in a build, and indexing them costs as much as the run.)
        let mut at = if up { lo } else { hi };
        let mut restarts = if up {
            flags[lo]
        } else {
            hi == flags.len() || flags[hi]
        };
        let mut done = false;
        std::iter::from_fn(move || {
            if done {
                return None;
            }
            let cut = if up { cuts.next() } else { cuts.next_back() };
            done = cut.is_none();
            let far = cut.copied().unwrap_or(if up { hi } else { lo });
            let run = if up { at..far } else { far..at };
            let item = (run, restarts);
            (at, restarts) = (far, true);
            Some(item)
        })
    }

    /// Block-reduce over `lo..hi` in walk order: the K-lane pair-scan
    /// total plus whether the block contains a restart.
    #[inline(always)]
    fn summary(&self, lo: usize, hi: usize) -> (bool, LaneState<T, K>) {
        let mut total = self.empty();
        let mut has_reset = false;
        for (run, restarts) in self.runs(lo, hi) {
            has_reset |= restarts;
            total = match self.dir {
                Direction::Up => self.summary_body(run, restarts, total),
                Direction::Down => self.summary_body(run.rev(), restarts, total),
            };
        }
        (has_reset, total)
    }

    /// The one block-summary body: folds one run onto `total`. `walk` is
    /// a concrete `Range` (or its `Rev`), so this monomorphizes into a
    /// plain counted loop with stack state only.
    #[inline(always)]
    fn summary_body(
        &self,
        mut walk: impl Iterator<Item = usize>,
        restarts: bool,
        mut total: LaneState<T, K>,
    ) -> LaneState<T, K> {
        if restarts || !total.valid {
            let Some(i) = walk.next() else { return total };
            total.valid = true;
            for l in 0..K {
                total.state[l] = self.datas[l][i];
            }
        }
        for i in walk {
            for l in 0..K {
                total.state[l] = self.combine(l, total.state[l], self.datas[l][i]);
            }
        }
        total
    }

    /// Block-apply over `lo..hi` in walk order, seeded with the block's
    /// carry; returns the carry-out.
    #[inline(always)]
    fn rescan(
        &self,
        lo: usize,
        hi: usize,
        mut seed: LaneState<T, K>,
        bases: &[SyncPtr<T>; K],
    ) -> LaneState<T, K> {
        // Plain locals, so the loops keep the addresses in registers.
        let outs: [*mut T; K] = std::array::from_fn(|l| bases[l].get());
        for (run, restarts) in self.runs(lo, hi) {
            seed = match self.dir {
                Direction::Up => self.rescan_body(run, restarts, seed, outs),
                Direction::Down => self.rescan_body(run.rev(), restarts, seed, outs),
            };
        }
        seed
    }

    /// The one block-rescan body: scans one run onward from `seed`,
    /// writing every lane's output slot through its buffer's address.
    #[inline(always)]
    fn rescan_body(
        &self,
        mut walk: impl Iterator<Item = usize>,
        restarts: bool,
        mut seed: LaneState<T, K>,
        outs: [*mut T; K],
    ) -> LaneState<T, K> {
        let datas = self.datas;
        // SAFETY (both writes): slot i of lane l is written exactly once,
        // by the block owning index i; blocks are disjoint and i < n,
        // within each out's resized length.
        if restarts || !seed.valid {
            // The walk's first lane always restarts (lane 0 heads a
            // segment, the last lane ends one) and every later block is
            // seeded with a valid carry.
            debug_assert!(
                restarts,
                "interior lane must have a neighbour in its segment"
            );
            let Some(i) = walk.next() else { return seed };
            seed.valid = true;
            for l in 0..K {
                seed.state[l] = datas[l][i];
                let value = match self.kind {
                    ScanKind::Inclusive => seed.state[l],
                    ScanKind::Exclusive => self.ops.identity(l),
                };
                unsafe { outs[l].add(i).write(value) };
            }
        }
        for i in walk {
            for l in 0..K {
                let before = seed.state[l];
                seed.state[l] = self.combine(l, before, datas[l][i]);
                let value = match self.kind {
                    ScanKind::Inclusive => seed.state[l],
                    ScanKind::Exclusive => before,
                };
                unsafe { outs[l].add(i).write(value) };
            }
        }
        seed
    }
}

/// The scan kernel. `datas` are the K input lanes (each `seg.len()`
/// long, checked by the callers), `outs` their K output buffers.
/// `threads` is the pool width the walk may use; `0` means "stay off the
/// pool": the one-sweep arm runs inline without consulting the pool's
/// fault hook (the sequential backend).
#[allow(clippy::too_many_arguments)]
fn scan_walk<T, L, const K: usize>(
    datas: [&[T]; K],
    ops: L,
    seg: &Segments,
    dir: Direction,
    kind: ScanKind,
    block: usize,
    threads: usize,
    outs: &mut [Vec<T>],
) where
    T: Element,
    L: LaneOps<T, K>,
{
    let n = seg.len();
    for (l, out) in outs.iter_mut().enumerate() {
        out.clear();
        out.resize(n, ops.identity(l));
    }
    if n == 0 {
        return;
    }
    let walk = Walk {
        datas,
        ops,
        seg,
        dir,
        kind,
    };
    let bases: [SyncPtr<T>; K] = std::array::from_fn(|l| SyncPtr(outs[l].as_mut_ptr()));
    let block = block.max(1);
    let nblocks = n.div_ceil(block);

    if threads.min(nblocks) <= 1 {
        // One sweep: reduce, carry and apply collapse into a single
        // rescan of the whole vector, so each element is loaded and
        // stored exactly once. On the pool's behalf (threads > 0) the
        // checkpoint keeps fault-injection coverage identical to the
        // multi-worker path.
        if threads > 0 {
            rayon::fault_checkpoint();
        }
        walk.rescan(0, n, walk.empty(), &bases);
        return;
    }

    // Phase 1 (block-reduce): per-block pair-scan summaries, workers
    // walking contiguous block ranges.
    let mut summaries = vec![(false, walk.empty()); nblocks];
    let sptr = SyncPtr(summaries.as_mut_ptr());
    rayon::for_each_block(n, block, move |lo, hi| {
        // SAFETY: `lo / block` is a unique block index per call and the
        // summaries vec was sized to `nblocks`.
        unsafe { sptr.get().add(lo / block).write(walk.summary(lo, hi)) };
    });

    // Phase 2 (carry): exclusive fold of the block totals, sequential
    // over the (few) blocks in walk order, lane by lane.
    let mut carries = vec![walk.empty(); nblocks];
    let mut carry = walk.empty();
    for k in 0..nblocks {
        let b = match dir {
            Direction::Up => k,
            Direction::Down => nblocks - 1 - k,
        };
        carries[b] = carry;
        let (has_reset, total) = summaries[b];
        if has_reset || !carry.valid {
            carry = total;
        } else if total.valid {
            for l in 0..K {
                carry.state[l] = walk.combine(l, carry.state[l], total.state[l]);
            }
        }
    }

    // Phase 3 (block-apply): re-scan each block seeded with its carry,
    // over the same worker-local block ranges as the reduce.
    let carries = &carries;
    rayon::for_each_block(n, block, move |lo, hi| {
        walk.rescan(lo, hi, carries[lo / block], &bases);
    });
}

/// Blocked segmented scan for one static operator, bit-identical to
/// [`crate::scan::scan_seq`]. `block` is in elements (see
/// [`block_elems`]); `threads` is the worker count the walk may use —
/// one worker (or one block) runs the single fused sweep, `0` runs it
/// without touching the pool at all.
///
/// # Panics
///
/// Panics if `data.len() != seg.len()`.
#[allow(clippy::too_many_arguments)]
pub fn scan_blocked_into<T, O>(
    data: &[T],
    seg: &Segments,
    op: O,
    dir: Direction,
    kind: ScanKind,
    block: usize,
    threads: usize,
    out: &mut Vec<T>,
) where
    T: Element,
    O: CombineOp<T>,
{
    seg.expect_lane("scan", data.len());
    scan_walk(
        [data],
        OneOp(op),
        seg,
        dir,
        kind,
        block,
        threads,
        std::slice::from_mut(out),
    );
}

/// Blocked multi-lane fused scan: every `(data, op)` lane in one walk of
/// the segments, lane `k` written into `outs[k]`. Bit-identical per lane
/// to [`scan_blocked_into`] (and so to the oracle). Lane sets wider than
/// [`MAX_FUSED_WIDTH`] are processed in chunks of that width.
///
/// # Panics
///
/// Panics if `lanes.len() != outs.len()` or any lane's length differs
/// from `seg.len()`.
pub fn scan_lanes_blocked_into<T: FusedElement>(
    lanes: &[(&[T], FusedOp)],
    seg: &Segments,
    dir: Direction,
    kind: ScanKind,
    block: usize,
    threads: usize,
    outs: &mut [Vec<T>],
) {
    assert_eq!(
        lanes.len(),
        outs.len(),
        "scan_lanes: {} input lanes but {} output buffers",
        lanes.len(),
        outs.len()
    );
    for (data, _) in lanes {
        seg.expect_lane("scan", data.len());
    }
    for (chunk, outs) in lanes
        .chunks(MAX_FUSED_WIDTH)
        .zip(outs.chunks_mut(MAX_FUSED_WIDTH))
    {
        // One monomorphized walk per chunk width, so the accumulators
        // are stack arrays and the per-lane loop unrolls.
        macro_rules! chunk_of {
            ($($k:literal)*) => {
                match chunk.len() {
                    $($k => scan_walk::<T, [FusedOp; $k], $k>(
                        std::array::from_fn(|l| chunk[l].0),
                        std::array::from_fn(|l| chunk[l].1),
                        seg, dir, kind, block, threads, outs,
                    ),)*
                    _ => unreachable!("chunk width bounded by MAX_FUSED_WIDTH"),
                }
            };
        }
        chunk_of!(1 2 3 4 5 6 7 8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{First, Max, Min};
    use crate::scan::scan_seq;

    fn irregular_segments(n: usize, seed: u64, max_len: u64) -> Segments {
        if n == 0 {
            return Segments::single(0);
        }
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        let mut lengths = Vec::new();
        let mut covered = 0usize;
        while covered < n {
            let l = (((next() % max_len) + 1) as usize).min(n - covered);
            lengths.push(l);
            covered += l;
        }
        Segments::from_lengths(&lengths).unwrap()
    }

    /// Each fused lane composed from the independent oracle.
    fn reference<T>(
        lanes: &[(&[T], FusedOp)],
        seg: &Segments,
        dir: Direction,
        kind: ScanKind,
    ) -> Vec<Vec<T>>
    where
        T: FusedElement,
        Sum: CombineOp<T>,
        Min: CombineOp<T>,
        Max: CombineOp<T>,
    {
        lanes
            .iter()
            .map(|&(data, op)| match op {
                FusedOp::Sum => scan_seq(data, seg, Sum, dir, kind),
                FusedOp::Min => scan_seq(data, seg, Min, dir, kind),
                FusedOp::Max => scan_seq(data, seg, Max, dir, kind),
            })
            .collect()
    }

    /// Every direction and kind, on the inline sweep (`threads = 0`), the
    /// pooled single sweep and the two-phase path, against the oracle.
    fn check_lanes_all_modes<T>(
        lanes: &[(&[T], FusedOp)],
        seg: &Segments,
        configs: &[(usize, usize)],
    ) where
        T: FusedElement + PartialEq + std::fmt::Debug,
        Sum: CombineOp<T>,
        Min: CombineOp<T>,
        Max: CombineOp<T>,
    {
        for &(block, threads) in configs {
            for dir in [Direction::Up, Direction::Down] {
                for kind in [ScanKind::Inclusive, ScanKind::Exclusive] {
                    let want = reference(lanes, seg, dir, kind);
                    let mut got: Vec<Vec<T>> = vec![Vec::new(); lanes.len()];
                    scan_lanes_blocked_into(lanes, seg, dir, kind, block, threads, &mut got);
                    assert_eq!(
                        got,
                        want,
                        "n={} block={block} threads={threads} {dir:?} {kind:?}",
                        seg.len()
                    );
                }
            }
        }
    }

    const ANY_SHAPE: &[(usize, usize)] = &[(8, 0), (8, 1), (64, 1), (64, 4), (4096, 4)];

    /// Single-op scans are bit-identical to the oracle at every
    /// boundary-adjacent size, for tiny blocks and both the single-sweep
    /// and two-phase paths.
    #[test]
    fn blocked_scan_matches_seq_at_boundaries() {
        for &n in &[0usize, 1, 7, 63, 64, 65, 127, 128, 129, 1000, 4097] {
            let data: Vec<i64> = (0..n).map(|i| (i % 23) as i64 - 11).collect();
            let seg = irregular_segments(n, 0xDEAD_BEEF ^ n as u64, 37);
            for &block in &[8usize, 64, 4096] {
                for &threads in &[0usize, 1, 4] {
                    for dir in [Direction::Up, Direction::Down] {
                        for kind in [ScanKind::Inclusive, ScanKind::Exclusive] {
                            let want = scan_seq(&data, &seg, Sum, dir, kind);
                            let mut got = Vec::new();
                            scan_blocked_into(
                                &data, &seg, Sum, dir, kind, block, threads, &mut got,
                            );
                            assert_eq!(
                                got, want,
                                "n={n} block={block} threads={threads} {dir:?} {kind:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Non-commutative operators (First) keep the oracle's operand order
    /// through the blocked carry fold.
    #[test]
    fn blocked_scan_respects_non_commutative_ops() {
        let n = 513;
        let data: Vec<u64> = (0..n as u64).map(|i| i * 10).collect();
        let seg = irregular_segments(n, 42, 37);
        for dir in [Direction::Up, Direction::Down] {
            let want = scan_seq(&data, &seg, First, dir, ScanKind::Inclusive);
            let mut got = Vec::new();
            scan_blocked_into(
                &data,
                &seg,
                First,
                dir,
                ScanKind::Inclusive,
                16,
                4,
                &mut got,
            );
            assert_eq!(got, want, "{dir:?}");
        }
        let want = scan_seq(&data, &seg, Min, Direction::Up, ScanKind::Exclusive);
        let mut got = Vec::new();
        scan_blocked_into(
            &data,
            &seg,
            Min,
            Direction::Up,
            ScanKind::Exclusive,
            16,
            4,
            &mut got,
        );
        assert_eq!(got, want);
    }

    /// Fused lanes are bit-identical to the composed oracle, including
    /// f64 lanes, wider-than-max chunking, and both scheduling paths.
    #[test]
    fn blocked_lanes_match_composed_oracle() {
        for &n in &[0usize, 1, 63, 64, 65, 500, 4097] {
            let a: Vec<f64> = (0..n).map(|i| (i % 19) as f64 / 3.0 - 2.5).collect();
            let b: Vec<f64> = (0..n).map(|i| ((i * 7) % 31) as f64 * 0.81).collect();
            let seg = irregular_segments(n, 0xFEED ^ n as u64, 37);
            let lanes: Vec<(&[f64], FusedOp)> = vec![
                (&a, FusedOp::Sum),
                (&a, FusedOp::Min),
                (&b, FusedOp::Max),
                (&b, FusedOp::Sum),
                (&a, FusedOp::Max),
                (&b, FusedOp::Min),
                (&a, FusedOp::Sum),
                (&b, FusedOp::Max),
                (&a, FusedOp::Min),
            ];
            // Two-phase scheduling (threads > 1) groups fractional f64
            // sums per block: bit-identity to the sequential fold then
            // needs no segment to fully contain a block (block=64 > the
            // max segment length of 37 here). The single-worker sweep is
            // the pure fold and is exact at any block.
            check_lanes_all_modes(&lanes, &seg, &[(8, 0), (8, 1), (64, 1), (64, 4), (4096, 4)]);
        }
    }

    #[test]
    fn fused_matches_composed_on_fig8() {
        let a = vec![3i64, 1, 2, 1, 0, 1, 2, 2, 1, 0, 3, 3];
        let b = vec![-5i64, 9, 0, 2, 8, -1, 4, 7, 6, 1, -3, 2];
        let seg = Segments::from_lengths(&[3, 4, 2, 3]).unwrap();
        let lanes: Vec<(&[i64], FusedOp)> = vec![
            (&a, FusedOp::Sum),
            (&b, FusedOp::Min),
            (&b, FusedOp::Max),
            (&a, FusedOp::Max),
        ];
        check_lanes_all_modes(&lanes, &seg, &[(1, 0), (2, 1), (2, 4), (5, 4)]);
    }

    #[test]
    fn fused_matches_composed_on_large_irregular_f64() {
        let n = 50_000usize;
        let mut state = 0x1234_5678u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        let a: Vec<f64> = (0..n)
            .map(|_| (next() % 2000) as f64 / 7.0 - 140.0)
            .collect();
        let b: Vec<f64> = (0..n).map(|_| (next() % 999) as f64 * 0.31).collect();
        let seg = irregular_segments(n, 0x5EED, 311);
        let lanes: Vec<(&[f64], FusedOp)> = vec![
            (&a, FusedOp::Sum),
            (&a, FusedOp::Min),
            (&a, FusedOp::Max),
            (&b, FusedOp::Sum),
            (&b, FusedOp::Min),
        ];
        // Blocks longer than any segment keep fractional sums exact on
        // the two-phase path.
        check_lanes_all_modes(
            &lanes,
            &seg,
            &[(1024, 0), (1024, 1), (1024, 4), (12_500, 2)],
        );
    }

    #[test]
    fn fused_wider_than_max_width_chunks() {
        // More lanes than MAX_FUSED_WIDTH: the kernel processes the set
        // in chunks, which must be invisible in the outputs.
        let n = 5_000usize;
        let a: Vec<i64> = (0..n).map(|i| (i % 17) as i64 - 8).collect();
        let seg = Segments::from_lengths(&[n / 2, n - n / 2]).unwrap();
        let lanes: Vec<(&[i64], FusedOp)> = (0..MAX_FUSED_WIDTH + 3)
            .map(|l| {
                (
                    a.as_slice(),
                    match l % 3 {
                        0 => FusedOp::Sum,
                        1 => FusedOp::Min,
                        _ => FusedOp::Max,
                    },
                )
            })
            .collect();
        check_lanes_all_modes(&lanes, &seg, ANY_SHAPE);
    }

    /// A single giant segment spanning many blocks exercises the carry
    /// fold across invalid/valid block states.
    #[test]
    fn giant_segment_spans_blocks() {
        let n = 20_000usize;
        let a: Vec<i64> = (0..n).map(|i| (i % 13) as i64 - 6).collect();
        let seg = Segments::single(n);
        let lanes: Vec<(&[i64], FusedOp)> = vec![(&a, FusedOp::Sum), (&a, FusedOp::Min)];
        check_lanes_all_modes(&lanes, &seg, ANY_SHAPE);
        for &threads in &[1usize, 4] {
            let want = scan_seq(&a, &seg, Max, Direction::Down, ScanKind::Inclusive);
            let mut got = Vec::new();
            scan_blocked_into(
                &a,
                &seg,
                Max,
                Direction::Down,
                ScanKind::Inclusive,
                64,
                threads,
                &mut got,
            );
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn fused_empty_and_singleton() {
        let empty: Vec<i64> = Vec::new();
        let seg0 = Segments::single(0);
        let lanes: Vec<(&[i64], FusedOp)> = vec![(&empty, FusedOp::Sum)];
        let mut outs = vec![vec![1i64, 2]];
        scan_lanes_blocked_into(
            &lanes,
            &seg0,
            Direction::Up,
            ScanKind::Inclusive,
            64,
            4,
            &mut outs,
        );
        assert!(outs[0].is_empty());
        let one = vec![5i64];
        let seg1 = Segments::single(1);
        let lanes: Vec<(&[i64], FusedOp)> = vec![(&one, FusedOp::Sum), (&one, FusedOp::Max)];
        check_lanes_all_modes(&lanes, &seg1, ANY_SHAPE);
    }

    #[test]
    fn tuned_block_bytes_is_positive_and_stable() {
        let a = tuned_block_bytes();
        let b = tuned_block_bytes();
        assert!(a >= 1);
        assert_eq!(a, b, "calibration must resolve once per process");
        assert!(block_elems::<u64>(a) >= MIN_BLOCK_ELEMS);
        assert_eq!(block_elems::<u8>(1024), 1024);
        assert_eq!(block_elems::<u64>(1024), 128);
        // The floor kicks in for huge elements / tiny budgets.
        assert_eq!(block_elems::<[u8; 4096]>(1024), MIN_BLOCK_ELEMS);
    }
}
