//! Cache-blocked scan kernels: block-reduce → block-scan → block-apply
//! in one structure, with the reset structure read inline.
//!
//! The original parallel kernels ([`crate::par`], [`crate::fused`]) are
//! correct but memory-bound: every scan walks the full vector twice
//! (summary pass + rescan pass) and materializes a `Vec<bool>` of fold
//! resets per call, so a scan round streams ~3n elements through DRAM
//! where the sequential kernel streams n. These kernels restructure the
//! same pair-scan decomposition (Gu, Obeya & Shun, *Parallel In-Place
//! Algorithms*) around fixed-size cache blocks:
//!
//! * the fold-restart structure is computed from the segment flags
//!   *inside* the walk (`crate::fused::ResetView`) — no resets vector;
//! * blocks are [`block_elems`]-sized (an L2-ish byte budget, see
//!   [`tuned_block_bytes`]), not `n / threads`-sized, so each block's
//!   summary and rescan touch cache-resident data;
//! * blocks are dealt to workers as contiguous ranges
//!   ([`rayon::for_each_block`]) so the reduce and apply phases revisit
//!   the same worker-local spans;
//! * with a single worker the two phases collapse into **one** sweep:
//!   the carry threads straight through the rescan body block-to-block,
//!   touching each element exactly once and reproducing the sequential
//!   kernel's pure directional fold bit-for-bit.
//!
//! Numerical contract: the single-worker sweep is always bit-identical
//! to the sequential kernel. The multi-worker two-phase path folds
//! block totals exactly like [`crate::par`] does, so lanes whose
//! operator is associative under rounding (all integer ops, f64
//! Min/Max, integer-valued f64 sums) are bit-identical at any block
//! size; fractional f64 sums additionally require that no segment
//! fully contain a block — the same contract the unblocked parallel
//! kernels have always had.
//!
//! [`crate::Machine`] routes parallel-backend scans here once `n`
//! crosses its threshold; the unblocked kernels remain as the reference
//! the differential tests compare against.

use std::sync::OnceLock;

use crate::fused::{
    block_rescan, block_summary, check_lanes, dispatch_width, FusedElement, FusedOp, LaneState,
    ResetView, MAX_FUSED_WIDTH,
};
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
    (block_bytes / std::mem::size_of::<T>().max(1)).max(MIN_BLOCK_ELEMS)
}

/// Per-block pair-scan state for a single generic operator (the K-lane
/// fused kernels carry [`LaneState`] instead).
#[derive(Clone, Copy)]
struct Carry<T> {
    valid: bool,
    state: T,
}

/// Directional combine with the sequential kernel's operand order (state
/// on the walk side), for an arbitrary [`CombineOp`].
#[inline(always)]
fn combine_op_dir<T, O>(op: &O, dir: Direction, state: T, d: T) -> T
where
    T: Element,
    O: CombineOp<T>,
{
    match dir {
        Direction::Up => op.combine(state, d),
        Direction::Down => op.combine(d, state),
    }
}

/// Blocked segmented scan for one generic operator, bit-identical to
/// [`crate::scan::scan_seq_into`]. `block` is in elements (see
/// [`block_elems`]); `threads` chooses between the single fused sweep
/// (one worker) and the two-phase blocked decomposition.
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
    assert_eq!(
        data.len(),
        seg.len(),
        "scan: data length {} does not match segment descriptor length {}",
        data.len(),
        seg.len()
    );
    let n = data.len();
    out.clear();
    out.resize(n, op.identity());
    if n == 0 {
        return;
    }
    let resets = ResetView::new(seg, dir);
    let block = block.max(1);
    let nblocks = n.div_ceil(block);
    let nt = threads.min(nblocks).max(1);
    let base = SyncPtr(out.as_mut_ptr());
    let empty = Carry {
        valid: false,
        state: op.identity(),
    };

    if nt == 1 {
        // Single fused sweep: reduce, scan and apply collapse into one
        // pass — the carry threads block-to-block through the rescan
        // body, so each element is loaded and stored exactly once. The
        // checkpoint keeps fault-injection coverage identical to the
        // pooled multi-worker path.
        rayon::fault_checkpoint();
        let mut seed = empty;
        match dir {
            Direction::Up => {
                for b in 0..nblocks {
                    let lo = b * block;
                    let hi = (lo + block).min(n);
                    seed = rescan_range(lo..hi, seed, resets, data, &op, dir, kind, &base);
                }
            }
            Direction::Down => {
                for b in (0..nblocks).rev() {
                    let lo = b * block;
                    let hi = (lo + block).min(n);
                    seed = rescan_range((lo..hi).rev(), seed, resets, data, &op, dir, kind, &base);
                }
            }
        }
        return;
    }

    // Phase 1 (block-reduce): per-block pair-scan summaries, workers
    // walking contiguous block ranges.
    let mut summaries: Vec<(bool, Carry<T>)> = vec![(false, empty); nblocks];
    {
        let sptr = SyncPtr(summaries.as_mut_ptr());
        rayon::for_each_block(n, block, |lo, hi| {
            let s = match dir {
                Direction::Up => summary_range(lo..hi, resets, data, &op, dir),
                Direction::Down => summary_range((lo..hi).rev(), resets, data, &op, dir),
            };
            // SAFETY: `lo / block` is a unique block index per call and
            // the summaries vec was sized to `nblocks`.
            unsafe { sptr.get().add(lo / block).write(s) };
        });
    }

    // Phase 2 (block-scan): exclusive scan of block totals, sequential
    // over the (few) blocks, in walk order.
    let mut carries: Vec<Carry<T>> = vec![empty; nblocks];
    let mut carry = empty;
    let order: Box<dyn Iterator<Item = usize>> = match dir {
        Direction::Up => Box::new(0..nblocks),
        Direction::Down => Box::new((0..nblocks).rev()),
    };
    for b in order {
        carries[b] = carry;
        let (has_reset, total) = summaries[b];
        if has_reset || !carry.valid {
            carry = total;
        } else if total.valid {
            carry.state = combine_op_dir(&op, dir, carry.state, total.state);
        }
    }

    // Phase 3 (block-apply): re-scan each block seeded with its carry,
    // same worker-local block ranges as the reduce.
    rayon::for_each_block(n, block, |lo, hi| {
        let b = lo / block;
        let _ = match dir {
            Direction::Up => rescan_range(lo..hi, carries[b], resets, data, &op, dir, kind, &base),
            Direction::Down => rescan_range(
                (lo..hi).rev(),
                carries[b],
                resets,
                data,
                &op,
                dir,
                kind,
                &base,
            ),
        };
    });
}

/// Reduce body for one block: pair-scan total plus whether the block
/// contains a fold reset.
#[inline(always)]
fn summary_range<T, O>(
    walk: impl Iterator<Item = usize>,
    resets: ResetView<'_>,
    data: &[T],
    op: &O,
    dir: Direction,
) -> (bool, Carry<T>)
where
    T: Element,
    O: CombineOp<T>,
{
    let mut s = Carry {
        valid: false,
        state: op.identity(),
    };
    let mut has_reset = false;
    for i in walk {
        let r = resets.at(i);
        if r || !s.valid {
            has_reset |= r;
            s.valid = true;
            s.state = data[i];
        } else {
            s.state = combine_op_dir(op, dir, s.state, data[i]);
        }
    }
    (has_reset, s)
}

/// Apply body for one block: re-scan seeded with the block's carry,
/// writing outputs through the base pointer; returns the carry-out so
/// the single-worker path can thread it into the next block.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn rescan_range<T, O>(
    walk: impl Iterator<Item = usize>,
    mut seed: Carry<T>,
    resets: ResetView<'_>,
    data: &[T],
    op: &O,
    dir: Direction,
    kind: ScanKind,
    base: &SyncPtr<T>,
) -> Carry<T>
where
    T: Element,
    O: CombineOp<T>,
{
    for i in walk {
        let reset = resets.at(i);
        let fresh = reset || !seed.valid;
        debug_assert!(
            !fresh || reset || !matches!(kind, ScanKind::Exclusive),
            "interior lane must have a neighbour in its segment"
        );
        let d = data[i];
        let before = seed.state;
        let next = if fresh {
            d
        } else {
            combine_op_dir(op, dir, before, d)
        };
        let value = match kind {
            ScanKind::Inclusive => next,
            ScanKind::Exclusive => {
                if reset {
                    op.identity()
                } else {
                    before
                }
            }
        };
        seed.state = next;
        seed.valid = true;
        // SAFETY: slot i is written exactly once, by the walk owning
        // index i; i < n and `out` was resized to n before `base` was
        // taken.
        unsafe { base.get().add(i).write(value) };
    }
    seed
}

/// Blocked multi-lane fused scan, bit-identical per lane to
/// [`crate::fused::scan_lanes_seq_into`]. Lane chunks wider than
/// [`MAX_FUSED_WIDTH`] are processed in chunks exactly as the unblocked
/// kernels do.
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
    check_lanes(lanes, seg, outs);
    let n = seg.len();
    if n == 0 {
        for out in outs.iter_mut() {
            out.clear();
        }
        return;
    }
    let resets = ResetView::new(seg, dir);
    let block = block.max(1);
    let mut at = 0;
    while at < lanes.len() {
        let w = (lanes.len() - at).min(MAX_FUSED_WIDTH);
        let chunk = &lanes[at..at + w];
        let outs_chunk = &mut outs[at..at + w];
        dispatch_width!(
            w,
            blocked_kernel(chunk, resets, block, threads, dir, kind, outs_chunk)
        );
        at += w;
    }
}

fn blocked_kernel<T: FusedElement, const K: usize>(
    lanes: &[(&[T], FusedOp)],
    resets: ResetView<'_>,
    block: usize,
    threads: usize,
    dir: Direction,
    kind: ScanKind,
    outs: &mut [Vec<T>],
) {
    let n = resets.len();
    let datas: [&[T]; K] = std::array::from_fn(|l| lanes[l].0);
    let ops: [FusedOp; K] = std::array::from_fn(|l| lanes[l].1);
    let idents: [T; K] = std::array::from_fn(|l| T::fused_identity(ops[l]));
    for (out, &id) in outs.iter_mut().zip(idents.iter()) {
        out.clear();
        out.resize(n, id);
    }
    let bases: [SyncPtr<T>; K] = std::array::from_fn(|l| SyncPtr(outs[l].as_mut_ptr()));
    let nblocks = n.div_ceil(block);
    let nt = threads.min(nblocks).max(1);
    let empty = LaneState {
        valid: false,
        state: idents,
    };

    if nt == 1 {
        // Single fused sweep over all K lanes (see scan_blocked_into).
        rayon::fault_checkpoint();
        let mut seed = empty;
        match dir {
            Direction::Up => {
                for b in 0..nblocks {
                    let lo = b * block;
                    let hi = (lo + block).min(n);
                    seed = block_rescan::<T, K>(
                        lo..hi,
                        seed,
                        resets,
                        &datas,
                        &ops,
                        &idents,
                        dir,
                        kind,
                        &bases,
                    );
                }
            }
            Direction::Down => {
                for b in (0..nblocks).rev() {
                    let lo = b * block;
                    let hi = (lo + block).min(n);
                    seed = block_rescan::<T, K>(
                        (lo..hi).rev(),
                        seed,
                        resets,
                        &datas,
                        &ops,
                        &idents,
                        dir,
                        kind,
                        &bases,
                    );
                }
            }
        }
        return;
    }

    // Block-reduce on worker-local block ranges.
    let mut summaries: Vec<(bool, LaneState<T, K>)> = vec![(false, empty); nblocks];
    {
        let sptr = SyncPtr(summaries.as_mut_ptr());
        rayon::for_each_block(n, block, |lo, hi| {
            let s = match dir {
                Direction::Up => block_summary::<T, K>(lo..hi, resets, &datas, &ops, dir, &idents),
                Direction::Down => {
                    block_summary::<T, K>((lo..hi).rev(), resets, &datas, &ops, dir, &idents)
                }
            };
            // SAFETY: `lo / block` is a unique block index per call and
            // the summaries vec was sized to `nblocks`.
            unsafe { sptr.get().add(lo / block).write(s) };
        });
    }

    // Block-scan of summaries, lane-by-lane in the unfused fold order.
    let mut carries: Vec<LaneState<T, K>> = vec![empty; nblocks];
    let mut carry = empty;
    let order: Box<dyn Iterator<Item = usize>> = match dir {
        Direction::Up => Box::new(0..nblocks),
        Direction::Down => Box::new((0..nblocks).rev()),
    };
    for b in order {
        carries[b] = carry;
        let (has_reset, total) = &summaries[b];
        if *has_reset || !carry.valid {
            carry = *total;
        } else if total.valid {
            for ((c, &op), &t) in carry
                .state
                .iter_mut()
                .zip(ops.iter())
                .zip(total.state.iter())
            {
                *c = crate::fused::combine_dir(op, dir, *c, t);
            }
        }
    }

    // Block-apply on the same worker-local block ranges.
    rayon::for_each_block(n, block, |lo, hi| {
        let b = lo / block;
        let _ = match dir {
            Direction::Up => block_rescan::<T, K>(
                lo..hi,
                carries[b],
                resets,
                &datas,
                &ops,
                &idents,
                dir,
                kind,
                &bases,
            ),
            Direction::Down => block_rescan::<T, K>(
                (lo..hi).rev(),
                carries[b],
                resets,
                &datas,
                &ops,
                &idents,
                dir,
                kind,
                &bases,
            ),
        };
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fused::scan_lanes_seq_into;
    use crate::ops::{First, Max, Min};
    use crate::scan::scan_seq;

    fn irregular_segments(n: usize, seed: u64) -> Segments {
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
            let l = (((next() % 37) + 1) as usize).min(n - covered);
            lengths.push(l);
            covered += l;
        }
        Segments::from_lengths(&lengths).unwrap()
    }

    /// Blocked single-op scans are bit-identical to the sequential
    /// reference at every boundary-adjacent size, for tiny blocks and
    /// both the single-sweep and two-phase paths.
    #[test]
    fn blocked_scan_matches_seq_at_boundaries() {
        for &n in &[0usize, 1, 7, 63, 64, 65, 127, 128, 129, 1000, 4097] {
            let data: Vec<i64> = (0..n).map(|i| (i % 23) as i64 - 11).collect();
            let seg = irregular_segments(n, 0xDEAD_BEEF ^ n as u64);
            for &block in &[8usize, 64, 4096] {
                for &threads in &[1usize, 4] {
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

    /// Non-commutative operators (First) keep the sequential operand
    /// order through the blocked carry fold.
    #[test]
    fn blocked_scan_respects_non_commutative_ops() {
        let n = 513;
        let data: Vec<u64> = (0..n as u64).map(|i| i * 10).collect();
        let seg = irregular_segments(n, 42);
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

    /// Blocked fused lanes are bit-identical to the sequential fused
    /// kernel, including f64 lanes, wider-than-max chunking, and both
    /// scheduling paths.
    #[test]
    fn blocked_lanes_match_seq_kernel() {
        for &n in &[0usize, 1, 63, 64, 65, 500, 4097] {
            let a: Vec<f64> = (0..n).map(|i| (i % 19) as f64 / 3.0 - 2.5).collect();
            let b: Vec<f64> = (0..n).map(|i| ((i * 7) % 31) as f64 * 0.81).collect();
            let seg = irregular_segments(n, 0xFEED ^ n as u64);
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
            // Two-phase scheduling (threads > 1) carries block totals the
            // way `crate::par` does, so fractional f64 sums are grouped
            // per block: bit-identity to the sequential fold then needs
            // no segment to fully contain a block (block=64 > the max
            // segment length of 37 here). The single-worker sweep
            // (threads = 1) is the pure fold and is exact at any block.
            for &(block, threads) in &[(8usize, 1usize), (64, 1), (64, 4), (4096, 4)] {
                {
                    for dir in [Direction::Up, Direction::Down] {
                        for kind in [ScanKind::Inclusive, ScanKind::Exclusive] {
                            let mut want: Vec<Vec<f64>> = vec![Vec::new(); lanes.len()];
                            scan_lanes_seq_into(&lanes, &seg, dir, kind, &mut want);
                            let mut got: Vec<Vec<f64>> = vec![Vec::new(); lanes.len()];
                            scan_lanes_blocked_into(
                                &lanes, &seg, dir, kind, block, threads, &mut got,
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

    /// A single giant segment spanning many blocks exercises the carry
    /// fold across invalid/valid block states.
    #[test]
    fn blocked_giant_segment_spans_blocks() {
        let n = 10_000usize;
        let data: Vec<i64> = (0..n).map(|i| (i % 13) as i64 - 6).collect();
        let seg = Segments::single(n);
        for &threads in &[1usize, 4] {
            let want = scan_seq(&data, &seg, Max, Direction::Down, ScanKind::Inclusive);
            let mut got = Vec::new();
            scan_blocked_into(
                &data,
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
