//! The spatial primitive operations of the paper's Section 4 that are not
//! gather-form reorderings: unshuffling, the node capacity check, the
//! copy-scan broadcasts and the segmented sort. (Cloning, deletion and
//! fan-out are arities of the one layout kernel in [`crate::flat_map`].)
//!
//! Each primitive issues its constituent operations through the owning
//! [`Machine`] so that the operation counters reflect the paper's cost
//! accounting.
//!
//! Unshuffling is split, like the gather-form layouts, into a *layout*
//! computation and an *apply* step (a permutation), because the spatial
//! build algorithms carry several parallel vectors per line processor
//! (geometry, identifiers, node state) that must all be reordered the same
//! way. It is the one **scatter-form** layout: Fig. 16 computes where each
//! lane *goes* from two counting scans, and the R-tree and quadtree split
//! stages consume those targets directly.

use crate::machine::Machine;
use crate::ops::Element;
use crate::ops::{First, Last, Sum};
use crate::scan::{Direction, ScanKind};
use crate::vector::Segments;
use std::cmp::Ordering as CmpOrdering;

/// Result of an unshuffle layout computation ([`Machine::unshuffle_layout`],
/// paper Sec. 4.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnshuffleLayout {
    /// Scatter targets: lane `i` of the input moves to `target[i]`
    /// (a bijection on `0..n`, fed to [`Machine::permute`]).
    pub target: Vec<usize>,
    /// Per input segment, the pair `(left_count, right_count)`: how many
    /// lanes of the segment were `false`-class (packed to the left end)
    /// and `true`-class (packed to the right end).
    pub counts: Vec<(usize, usize)>,
}

impl Machine {
    // ------------------------------------------------------------------
    // Unshuffling (paper Sec. 4.2, Figs. 15-16)
    // ------------------------------------------------------------------

    /// Computes the unshuffle layout: within each segment, lanes with
    /// `class[i] == false` (the paper's `a` elements) are stably packed to
    /// the left end and lanes with `class[i] == true` (the `b` elements) to
    /// the right end.
    ///
    /// Mechanics (paper Fig. 16): an upward **inclusive** segmented
    /// `+`-scan over the `b`-indicator counts, for each `a`, the `b`s
    /// between it and its segment's left end (`F1`); a downward inclusive
    /// segmented `+`-scan over the `a`-indicator counts, for each `b`, the
    /// `a`s between it and the right end (`F2`); two elementwise ops derive
    /// the new position indices (`ew(-,P,F1)` for `a`s, `ew(+,P,F2)` for
    /// `b`s), and a permutation repositions the lanes.
    ///
    /// Those two indicator maps, two scans and the position elementwise op
    /// are what the layout is charged; it executes them as two walks per
    /// segment. One counting walk finds `na` (the `a`-class population)
    /// and a second assigns targets by running class ranks: an `a` at
    /// rank `ra` goes to `start + ra` (Fig. 16's `i - F1[i]`, since
    /// `i - start - ra` is exactly the `b`s to its left) and a `b` at rank
    /// `rb` goes to `start + na + rb` (Fig. 16's `i + F2[i]`).
    ///
    /// # Panics
    ///
    /// Panics if `class.len() != seg.len()`.
    pub fn unshuffle_layout(&self, seg: &Segments, class: &[bool]) -> UnshuffleLayout {
        seg.expect_lane("unshuffle", class.len());
        let n = seg.len();
        self.count_elementwise();
        self.count_elementwise();
        self.count_scan();
        self.count_scan();
        self.count_elementwise();
        self.count_bytes_moved(4 * n * std::mem::size_of::<u64>());
        if self.use_par(n) {
            self.count_blocked_pass();
            rayon::fault_checkpoint();
        }
        let mut target = vec![0usize; n];
        let mut counts = Vec::with_capacity(seg.num_segments());
        for r in seg.ranges() {
            let start = r.start;
            let len = r.len();
            let na = r.clone().filter(|&i| !class[i]).count();
            let mut ra = 0usize;
            let mut rb = 0usize;
            for i in r {
                if class[i] {
                    target[i] = start + na + rb;
                    rb += 1;
                } else {
                    target[i] = start + ra;
                    ra += 1;
                }
            }
            counts.push((na, len - na));
        }
        UnshuffleLayout { target, counts }
    }

    /// Applies an unshuffle layout to one data vector (the permutation step
    /// of paper Fig. 16).
    pub fn apply_unshuffle<T: Element>(&self, data: &[T], layout: &UnshuffleLayout) -> Vec<T> {
        self.permute(data, &layout.target)
    }

    /// Applies an unshuffle layout into a caller-provided buffer (cleared
    /// first).
    pub fn apply_unshuffle_into<T: Element>(
        &self,
        data: &[T],
        layout: &UnshuffleLayout,
        out: &mut Vec<T>,
    ) {
        self.permute_into(data, &layout.target, out);
    }

    /// Applies an unshuffle layout **through the ping-pong slab**: the
    /// permutation lands in a buffer leased from the machine's arena,
    /// which is then swapped into `data` and the old storage recycled for
    /// the next swap. A permutation is a bijection, so it cannot run truly
    /// in place over a single buffer without cycle-chasing; the leased
    /// slab bounds the footprint at one extra buffer for any number of
    /// consecutive reorders. Counted as the permutation plus one in-place
    /// reuse.
    pub fn apply_unshuffle_swap<T: Element>(&self, data: &mut Vec<T>, layout: &UnshuffleLayout) {
        let mut tmp: Vec<T> = self.lease();
        self.apply_unshuffle_into(data, layout, &mut tmp);
        std::mem::swap(data, &mut tmp);
        self.recycle(tmp);
        self.count_inplace_reuse();
    }

    // ------------------------------------------------------------------
    // Node capacity check (paper Sec. 4.4, Fig. 19)
    // ------------------------------------------------------------------

    /// Per-lane *suffix* counts within each segment: a downward inclusive
    /// `+`-scan of ones, exactly the vector drawn in paper Fig. 19. The
    /// first lane of each segment holds the segment's total occupancy.
    pub fn capacity_check_scan(&self, seg: &Segments) -> Vec<u64> {
        let ones = vec![1u64; seg.len()];
        self.scan(&ones, seg, Sum, Direction::Down, ScanKind::Inclusive)
    }

    /// Per-segment totals: the node capacity check read out at the first
    /// lane of each segment (the "elementwise write to the node" of
    /// Sec. 4.4).
    pub fn segment_counts(&self, seg: &Segments) -> Vec<u64> {
        let mut out = Vec::new();
        self.segment_counts_into(seg, &mut out);
        out
    }

    /// [`Machine::segment_counts`] into a caller-provided buffer (cleared
    /// first). The internal ones/scan vectors are leased from the
    /// machine's scratch arena, so a warm call performs no allocation —
    /// this is the per-round capacity check of the build loops (paper
    /// Sec. 4.4), issued once per segment structure per round.
    pub fn segment_counts_into(&self, seg: &Segments, out: &mut Vec<u64>) {
        let mut ones: Vec<u64> = self.lease();
        crate::machine::fit_exact(&mut ones, seg.len());
        ones.resize(seg.len(), 1);
        let mut scanned: Vec<u64> = self.lease();
        self.scan_into(
            &ones,
            seg,
            Sum,
            Direction::Down,
            ScanKind::Inclusive,
            &mut scanned,
        );
        self.count_elementwise();
        out.clear();
        out.extend(seg.starts().iter().map(|&s| scanned[s]));
        self.recycle(ones);
        self.recycle(scanned);
    }

    /// Per-lane segment totals: the capacity check followed by a broadcast
    /// of the head value across the segment.
    pub fn segment_counts_broadcast(&self, seg: &Segments) -> Vec<u64> {
        let scanned = self.capacity_check_scan(seg);
        self.broadcast_first(&scanned, seg)
    }

    // ------------------------------------------------------------------
    // Broadcasts (copy scans, paper Secs. 4.5 and 4.7)
    // ------------------------------------------------------------------

    /// Broadcasts the first lane of each segment to every lane of the
    /// segment (upward inclusive copy-scan).
    pub fn broadcast_first<T: Element + Default>(&self, data: &[T], seg: &Segments) -> Vec<T> {
        self.scan(data, seg, First, Direction::Up, ScanKind::Inclusive)
    }

    /// Broadcasts the last lane of each segment to every lane of the
    /// segment (downward inclusive right-projection scan).
    pub fn broadcast_last<T: Element + Default>(&self, data: &[T], seg: &Segments) -> Vec<T> {
        self.scan(data, seg, Last, Direction::Down, ScanKind::Inclusive)
    }

    /// Each lane's rank within its segment (upward exclusive `+`-scan of
    /// ones).
    pub fn rank_in_segment(&self, seg: &Segments) -> Vec<u64> {
        let ones = vec![1u64; seg.len()];
        self.scan(&ones, seg, Sum, Direction::Up, ScanKind::Exclusive)
    }

    // ------------------------------------------------------------------
    // Segmented sort (used by the R-tree sweep split, paper Sec. 4.7)
    // ------------------------------------------------------------------

    /// Stable per-segment sort. Returns gather indices `order` such that
    /// reading lanes in `order` yields each segment's lanes sorted by
    /// `cmp` over `keys` (ties broken by original lane, i.e. stable), with
    /// segment boundaries unchanged.
    ///
    /// Counted as one sort operation — the paper treats a sort as an
    /// `O(log n)`-time composite primitive (Sec. 3.2).
    ///
    /// # Panics
    ///
    /// Panics if `keys.len() != seg.len()`.
    pub fn segmented_sort_perm<K, F>(&self, seg: &Segments, keys: &[K], cmp: F) -> Vec<usize>
    where
        K: Element,
        F: Fn(&K, &K) -> CmpOrdering + Send + Sync,
    {
        seg.expect_lane("sort", keys.len());
        self.count_sort();
        let n = seg.len();
        let mut order: Vec<usize> = (0..n).collect();
        if self.backend() == crate::machine::Backend::Parallel {
            // Segment-local path: segments are contiguous index ranges,
            // so the global (segment, key, lane) sort below is exactly
            // the concatenation of per-range (key, lane) sorts. Each run
            // sorts without the segment-id indirection the global
            // comparator pays per comparison, and independent runs sort
            // in parallel. The per-range tie-break on the lane index
            // reproduces the reference order bit-for-bit.
            let range_cmp =
                |&x: &usize, &y: &usize| cmp(&keys[x], &keys[y]).then_with(|| x.cmp(&y));
            let ranges: Vec<std::ops::Range<usize>> = seg.ranges().collect();
            if self.use_par(n) && ranges.len() >= 2 {
                use rayon::prelude::*;
                rayon::fault_checkpoint();
                let base = crate::scatter::SyncPtr(order.as_mut_ptr());
                (0..ranges.len()).into_par_iter().for_each(|s| {
                    let r = ranges[s].clone();
                    // SAFETY: segment ranges are disjoint and within
                    // 0..n, so each job sorts its own subslice.
                    let run =
                        unsafe { std::slice::from_raw_parts_mut(base.get().add(r.start), r.len()) };
                    run.sort_unstable_by(range_cmp);
                });
            } else {
                for r in ranges {
                    order[r].sort_unstable_by(range_cmp);
                }
            }
        } else {
            // Reference path: one global sort keyed by (segment, key,
            // lane) — the specification the segment-local path above
            // must match bit-for-bit.
            let seg_ids = seg.segment_ids();
            order.sort_unstable_by(|&x: &usize, &y: &usize| {
                seg_ids[x]
                    .cmp(&seg_ids[y])
                    .then_with(|| cmp(&keys[x], &keys[y]))
                    .then_with(|| x.cmp(&y))
            });
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Backend, Machine};

    fn machines() -> Vec<Machine> {
        vec![
            Machine::sequential(),
            Machine::new(Backend::Parallel).with_par_threshold(1),
        ]
    }

    /// A little deterministic LCG so the sweeps do not depend on external
    /// randomness.
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    fn random_case(n: usize, seed: u64) -> (Segments, Vec<bool>) {
        let mut s = seed;
        let mut lengths = Vec::new();
        let mut total = 0usize;
        while total < n {
            let len = (lcg(&mut s) as usize % 37 + 1).min(n - total);
            lengths.push(len);
            total += len;
        }
        let seg = Segments::from_lengths(&lengths).unwrap();
        let flags = (0..n).map(|_| lcg(&mut s) % 3 == 0).collect();
        (seg, flags)
    }

    /// Paper Figs. 15-16: unshuffle [b a b a a b a] into a's then b's.
    #[test]
    fn fig15_16_unshuffle() {
        for m in machines() {
            // Types per Fig. 16: X = b a b a a b a (class true = b).
            let class = vec![true, false, true, false, false, true, false];
            let data = vec![10i64, 1, 20, 2, 3, 30, 4];
            let seg = Segments::single(7);
            let layout = m.unshuffle_layout(&seg, &class);
            let out = m.apply_unshuffle(&data, &layout);
            assert_eq!(out, vec![1, 2, 3, 4, 10, 20, 30]);
            assert_eq!(layout.counts, vec![(4, 3)]);
        }
    }

    #[test]
    fn unshuffle_is_stable_within_each_class() {
        for m in machines() {
            let class = vec![false, true, false, true, false];
            let data = vec![1u32, 100, 2, 200, 3];
            let seg = Segments::single(5);
            let layout = m.unshuffle_layout(&seg, &class);
            let out = m.apply_unshuffle(&data, &layout);
            assert_eq!(out, vec![1, 2, 3, 100, 200]);
        }
    }

    #[test]
    fn unshuffle_multiple_segments_stay_disjoint() {
        for m in machines() {
            let seg = Segments::from_lengths(&[3, 4]).unwrap();
            let class = vec![true, false, true, true, false, false, true];
            let data = vec![9u32, 1, 8, 7, 2, 3, 6];
            let layout = m.unshuffle_layout(&seg, &class);
            let out = m.apply_unshuffle(&data, &layout);
            assert_eq!(out, vec![1, 9, 8, 2, 3, 7, 6]);
            assert_eq!(layout.counts, vec![(1, 2), (2, 2)]);
        }
    }

    #[test]
    fn unshuffle_all_one_class() {
        for m in machines() {
            let seg = Segments::from_lengths(&[3]).unwrap();
            let data = vec![1u32, 2, 3];
            for class_val in [false, true] {
                let layout = m.unshuffle_layout(&seg, &[class_val; 3]);
                assert_eq!(m.apply_unshuffle(&data, &layout), data);
            }
        }
    }

    /// Paper Fig. 19: the node capacity check scan.
    #[test]
    fn fig19_capacity_check() {
        for m in machines() {
            let seg = Segments::from_lengths(&[3, 4, 2]).unwrap();
            let scanned = m.capacity_check_scan(&seg);
            assert_eq!(scanned, vec![3, 2, 1, 4, 3, 2, 1, 2, 1]);
            assert_eq!(m.segment_counts(&seg), vec![3, 4, 2]);
            assert_eq!(
                m.segment_counts_broadcast(&seg),
                vec![3, 3, 3, 4, 4, 4, 4, 2, 2]
            );
        }
    }

    #[test]
    fn broadcast_first_and_last() {
        for m in machines() {
            let seg = Segments::from_lengths(&[2, 3]).unwrap();
            let data = vec![7u64, 0, 9, 0, 4];
            assert_eq!(m.broadcast_first(&data, &seg), vec![7, 7, 9, 9, 9]);
            assert_eq!(m.broadcast_last(&data, &seg), vec![0, 0, 4, 4, 4]);
        }
    }

    #[test]
    fn rank_in_segment_counts_from_zero() {
        for m in machines() {
            let seg = Segments::from_lengths(&[2, 3]).unwrap();
            assert_eq!(m.rank_in_segment(&seg), vec![0, 1, 0, 1, 2]);
        }
    }

    #[test]
    fn segmented_sort_is_stable_and_segment_local() {
        for m in machines() {
            let seg = Segments::from_lengths(&[4, 3]).unwrap();
            let keys = vec![3u32, 1, 3, 2, 9, 0, 9];
            let order = m.segmented_sort_perm(&seg, &keys, |a, b| a.cmp(b));
            let sorted = m.gather(&keys, &order);
            assert_eq!(sorted, vec![1, 2, 3, 3, 0, 9, 9]);
            // Stability: the two 3s keep original relative order (lanes 0, 2)
            // and the two 9s keep lanes 4, 6.
            assert_eq!(order, vec![1, 3, 0, 2, 5, 4, 6]);
        }
    }

    #[test]
    fn unshuffle_swap_matches_permute_and_recycles() {
        for m in machines() {
            let (seg, class) = random_case(64, 17);
            let data: Vec<u32> = (0..64u32).collect();
            let layout = m.unshuffle_layout(&seg, &class);
            let expect = m.apply_unshuffle(&data, &layout);
            let before = m.stats();
            let mut in_place = data.clone();
            m.apply_unshuffle_swap(&mut in_place, &layout);
            let d = m.stats().since(&before);
            assert_eq!(in_place, expect);
            assert_eq!(d.permutes, 1);
            assert_eq!(d.inplace_reuses, 1);
            // The displaced storage went back to the arena: the next lease
            // finds a warm slab instead of allocating.
            let leased: Vec<u32> = m.lease();
            assert!(
                leased.capacity() >= data.len(),
                "displaced storage was not recycled"
            );
            m.recycle(leased);
        }
    }

    #[test]
    fn segmented_sort_f64_keys() {
        for m in machines() {
            let seg = Segments::single(4);
            let keys = vec![2.5f64, -1.0, 0.0, 2.5];
            let order = m.segmented_sort_perm(&seg, &keys, |a, b| a.total_cmp(b));
            assert_eq!(order, vec![1, 2, 0, 3]);
        }
    }

    /// The layout is charged Fig. 16's two indicator maps, two scans and
    /// one position elementwise op, with the same bytes on both backends;
    /// only the parallel backend counts a blocked pass.
    #[test]
    fn unshuffle_layout_keeps_fig16_op_counts() {
        let (seg, class) = random_case(200, 3);
        let mut bytes = None;
        for m in machines() {
            let before = m.stats();
            let layout = m.unshuffle_layout(&seg, &class);
            let d = m.stats().since(&before);
            assert_eq!((d.scans, d.scan_passes), (2, 2));
            assert_eq!(d.elementwise, 3);
            assert_eq!(d.permutes, 0);
            let blocked = u64::from(m.backend() == Backend::Parallel);
            assert_eq!(d.blocked_passes, blocked);
            assert_eq!(*bytes.get_or_insert(d.bytes_moved), d.bytes_moved);
            assert_eq!(layout.target.len(), 200);
        }
    }
}
