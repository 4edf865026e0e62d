//! Differential tests for the cache-blocked kernel path: a parallel
//! machine forced down the blocked dispatch (`with_par_threshold(1)`)
//! with a deliberately tiny block size must be bit-identical to the
//! sequential machine's single inline sweep — and both to the
//! independent oracles (`scan_seq`, the composed paper-figure layouts of
//! `oracles/`) — on every primitive, at every block boundary shape.
//!
//! The boundary shapes named by the acceptance criteria are all here:
//! empty input, exactly one block, one element either side of a block
//! boundary, and lengths that are not a multiple of the block. With
//! `i64` lanes and `with_block_bytes(512)` a block is exactly
//! `MIN_BLOCK_ELEMS` = 64 elements, so n = 63 / 64 / 65 / 128 / 129
//! straddle the first two boundaries and n = 1000 ends mid-block.
//!
//! The proptest section honours `PROPTEST_CASES` (CI pins it to 64)
//! through `ProptestConfig::default()`, like the rest of the suite.

mod oracles;

use oracles::{clone_composed, delete_composed, fanout_composed, unshuffle_composed};
use proptest::prelude::*;
use scan_model::blocked::MIN_BLOCK_ELEMS;
use scan_model::ops::{Max, Min, Sum};
use scan_model::scan::scan_seq;
use scan_model::{Direction, Machine, ScanKind, Segments};

/// One block = 64 `i64` lanes: small enough that every fixture size
/// below exercises multi-block sweeps, carries, and the tail block.
const TINY_BLOCK_BYTES: usize = MIN_BLOCK_ELEMS * std::mem::size_of::<i64>();

/// Sizes straddling the block boundaries for a 64-element block, plus
/// the degenerate shapes.
const BOUNDARY_SIZES: &[usize] = &[0, 1, 63, 64, 65, 127, 128, 129, 1000];

/// The single-sweep machine and the blocked machine under test.
fn machines() -> (Machine, Machine) {
    (
        Machine::sequential(),
        Machine::parallel()
            .with_par_threshold(1)
            .with_block_bytes(TINY_BLOCK_BYTES),
    )
}

/// Deterministic pseudo-random lane values.
fn lcg(seed: &mut u64) -> u64 {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *seed >> 33
}

/// A segmented fixture of exactly `n` lanes whose segment lengths are
/// themselves pseudo-random (1..=37), so segment breaks land on both
/// sides of block boundaries.
fn fixture(n: usize, seed: u64) -> (Vec<i64>, Segments) {
    let mut s = seed;
    let data: Vec<i64> = (0..n).map(|_| lcg(&mut s) as i64 % 1000 - 500).collect();
    let mut lens = Vec::new();
    let mut total = 0usize;
    while total < n {
        let l = (lcg(&mut s) as usize % 37 + 1).min(n - total);
        lens.push(l);
        total += l;
    }
    let seg = Segments::from_lengths(&lens).expect("fixture lengths are positive and sum to n");
    (data, seg)
}

#[test]
fn blocked_scans_match_unblocked_at_every_boundary() {
    let (seq, par) = machines();
    for &n in BOUNDARY_SIZES {
        let (data, seg) = fixture(n, 0xB10C + n as u64);
        for dir in [Direction::Up, Direction::Down] {
            for kind in [ScanKind::Inclusive, ScanKind::Exclusive] {
                assert_eq!(
                    par.scan(&data, &seg, Sum, dir, kind),
                    scan_seq(&data, &seg, Sum, dir, kind),
                    "sum scan left the oracle at n={n} {dir:?} {kind:?}"
                );
                assert_eq!(
                    seq.scan(&data, &seg, Sum, dir, kind),
                    par.scan(&data, &seg, Sum, dir, kind),
                    "sum scan diverged at n={n} {dir:?} {kind:?}"
                );
                assert_eq!(
                    seq.scan(&data, &seg, Max, dir, kind),
                    par.scan(&data, &seg, Max, dir, kind),
                    "max scan diverged at n={n} {dir:?} {kind:?}"
                );
                assert_eq!(
                    seq.scan(&data, &seg, Min, dir, kind),
                    par.scan(&data, &seg, Min, dir, kind),
                    "min scan diverged at n={n} {dir:?} {kind:?}"
                );
            }
        }
    }
}

#[test]
fn blocked_permute_and_gather_match_unblocked_at_every_boundary() {
    let (seq, par) = machines();
    for &n in BOUNDARY_SIZES {
        let (data, _) = fixture(n, 0x9E37 + n as u64);
        // A deterministic bijection: reverse with a rotation.
        let index: Vec<usize> = (0..n).map(|i| (n - 1 - i + n / 3) % n.max(1)).collect();
        assert_eq!(
            seq.permute(&data, &index),
            par.permute(&data, &index),
            "permute diverged at n={n}"
        );
        assert_eq!(
            seq.gather(&data, &index),
            par.gather(&data, &index),
            "gather diverged at n={n}"
        );
    }
}

#[test]
fn blocked_compaction_layouts_match_unblocked_at_every_boundary() {
    let (seq, par) = machines();
    for &n in BOUNDARY_SIZES {
        let (data, seg) = fixture(n, 0xC0DE + n as u64);
        let mut s = n as u64 + 11;
        let flags: Vec<bool> = (0..n).map(|_| lcg(&mut s) % 3 == 0).collect();

        // Keep-flag pack (delete layout drops where the flag is set).
        let dl_seq = seq.delete_layout(&seg, &flags);
        let dl_par = par.delete_layout(&seg, &flags);
        assert_eq!(dl_seq, dl_par, "delete layout diverged at n={n}");
        assert_eq!(
            (dl_par.src_lane.clone(), dl_par.counts.clone()),
            delete_composed(&seg, &flags),
            "delete layout left Fig. 18 at n={n}"
        );
        assert_eq!(
            seq.apply(&data, &dl_seq),
            par.apply(&data, &dl_par),
            "delete pack diverged at n={n}"
        );
        let mut in_place = data.clone();
        par.apply_in_place(&mut in_place, &dl_par);
        assert_eq!(
            in_place,
            seq.apply(&data, &dl_seq),
            "in-place delete diverged at n={n}"
        );

        // Two-way unshuffle (stable partition by class).
        let ul_seq = seq.unshuffle_layout(&seg, &flags);
        let ul_par = par.unshuffle_layout(&seg, &flags);
        assert_eq!(
            (ul_par.target.clone(), ul_par.counts.clone()),
            unshuffle_composed(&seg, &flags),
            "unshuffle layout left Fig. 16 at n={n}"
        );
        assert_eq!(
            seq.apply_unshuffle(&data, &ul_seq),
            par.apply_unshuffle(&data, &ul_par),
            "unshuffle diverged at n={n}"
        );
        let mut swapped = data.clone();
        par.apply_unshuffle_swap(&mut swapped, &ul_par);
        assert_eq!(
            swapped,
            seq.apply_unshuffle(&data, &ul_seq),
            "unshuffle swap diverged at n={n}"
        );

        // Clone expansion (adjacent copies where flagged).
        let cl_seq = seq.clone_layout(&seg, &flags);
        let cl_par = par.clone_layout(&seg, &flags);
        assert_eq!(cl_seq, cl_par, "clone layout diverged at n={n}");
        let is_clone: Vec<bool> = cl_par.rank.iter().map(|&r| r == 1).collect();
        assert_eq!(
            (
                cl_par.src_lane.clone(),
                is_clone,
                cl_par.seg.flags().to_vec()
            ),
            clone_composed(&seg, &flags),
            "clone layout left Fig. 14 at n={n}"
        );
        assert_eq!(
            seq.apply(&data, &cl_seq),
            par.apply(&data, &cl_par),
            "clone diverged at n={n}"
        );
        let mut cloned = data.clone();
        par.apply_in_place(&mut cloned, &cl_par);
        assert_eq!(
            cloned,
            seq.apply(&data, &cl_seq),
            "in-place clone diverged at n={n}"
        );
    }
}

/// Arities 0..=3 mixed — vanished lanes, vanished segment heads and
/// multi-copy lanes in one layout — against the composed ×k form of
/// Fig. 14, plus the fused-map apply against gather-then-map.
#[test]
fn blocked_fanout_layouts_match_composed_at_every_boundary() {
    let (seq, par) = machines();
    for &n in BOUNDARY_SIZES {
        let (data, seg) = fixture(n, 0xFA40 + n as u64);
        let mut s = n as u64 + 5;
        let copies: Vec<u32> = (0..n).map(|_| (lcg(&mut s) % 4) as u32).collect();
        let want = fanout_composed(&seg, &copies);
        for m in [&seq, &par] {
            let layout = m.fanout_layout(&seg, &copies);
            assert_eq!(layout.src_lane, want.src_lane, "n={n}");
            assert_eq!(layout.rank, want.rank, "n={n}");
            assert_eq!(layout.seg.flags(), &want.flags[..], "n={n}");
            assert_eq!(layout.counts, want.counts, "n={n}");
            assert_eq!(layout.input_len(), n);
            let gathered = m.apply(&data, &layout);
            let mut mapped = Vec::new();
            m.apply_map_into(&data, &layout, |v, r| v * 4 + i64::from(r), &mut mapped);
            let expect: Vec<i64> = gathered
                .iter()
                .zip(&layout.rank)
                .map(|(&v, &r)| v * 4 + i64::from(r))
                .collect();
            assert_eq!(mapped, expect, "fused-map apply diverged at n={n}");
            let mut in_place = data.clone();
            m.apply_in_place(&mut in_place, &layout);
            assert_eq!(in_place, gathered, "in-place fan-out diverged at n={n}");
        }
    }
}

#[test]
fn blocked_elementwise_in_place_matches_map_at_every_boundary() {
    let (seq, par) = machines();
    for &n in BOUNDARY_SIZES {
        let (data, _) = fixture(n, 0xE1E + n as u64);
        let other: Vec<i64> = data.iter().map(|&x| x ^ 0x55).collect();
        let expect = seq.map(&data, |x| x.wrapping_mul(3) - 7);
        let mut got = data.clone();
        par.map_in_place(&mut got, |x| x.wrapping_mul(3) - 7);
        assert_eq!(got, expect, "map_in_place diverged at n={n}");

        let expect = seq.zip_map(&data, &other, |x, y| x.wrapping_add(y));
        let mut got = data.clone();
        par.zip_map_in_place(&mut got, &other, |x, y| x.wrapping_add(y));
        assert_eq!(got, expect, "zip_map_in_place diverged at n={n}");
    }
}

/// The answer must not depend on the block size: sweep several block
/// sizes (including ones much larger than the input) over one fixture
/// and demand identical scans and packs.
#[test]
fn block_size_invariance() {
    let seq = Machine::sequential();
    let (data, seg) = fixture(1000, 0xB51E);
    let mut s = 23u64;
    let flags: Vec<bool> = (0..data.len()).map(|_| lcg(&mut s) % 3 == 0).collect();
    let reference_scan = seq.scan(&data, &seg, Sum, Direction::Up, ScanKind::Exclusive);
    let reference_pack = {
        let dl = seq.delete_layout(&seg, &flags);
        seq.apply(&data, &dl)
    };
    for block_bytes in [512, 1024, 4096, 1 << 18, 1 << 24] {
        let par = Machine::parallel()
            .with_par_threshold(1)
            .with_block_bytes(block_bytes);
        assert_eq!(
            par.scan(&data, &seg, Sum, Direction::Up, ScanKind::Exclusive),
            reference_scan,
            "scan changed under block_bytes={block_bytes}"
        );
        let dl = par.delete_layout(&seg, &flags);
        assert_eq!(
            par.apply(&data, &dl),
            reference_pack,
            "pack changed under block_bytes={block_bytes}"
        );
    }
}

fn blocked_vec() -> impl Strategy<Value = (Vec<i64>, Vec<usize>)> {
    // Lengths biased to hover around the 64-lane block boundary so the
    // shrunk counterexamples land on carry hand-off bugs.
    (0usize..200, any::<u64>()).prop_map(|(extra, seed)| {
        let n = MIN_BLOCK_ELEMS.saturating_sub(8) + extra;
        let mut s = seed | 1;
        let data: Vec<i64> = (0..n).map(|_| lcg(&mut s) as i64 % 1000 - 500).collect();
        let mut lens = Vec::new();
        let mut total = 0usize;
        while total < n {
            let l = (lcg(&mut s) as usize % 29 + 1).min(n - total);
            lens.push(l);
            total += l;
        }
        (data, lens)
    })
}

proptest! {
    /// Blocked scans are bit-identical to the sequential reference for
    /// arbitrary segment shapes near the block boundary.
    #[test]
    fn blocked_scan_equivalence((data, lens) in blocked_vec()) {
        let seg = Segments::from_lengths(&lens).unwrap();
        let (seq, par) = machines();
        for dir in [Direction::Up, Direction::Down] {
            for kind in [ScanKind::Inclusive, ScanKind::Exclusive] {
                prop_assert_eq!(
                    seq.scan(&data, &seg, Sum, dir, kind),
                    par.scan(&data, &seg, Sum, dir, kind)
                );
            }
        }
    }

    /// Blocked compaction (delete pack + in-place form) is bit-identical
    /// to the reference for arbitrary flags near the block boundary.
    #[test]
    fn blocked_pack_equivalence((data, lens) in blocked_vec(), flag_seed in any::<u64>()) {
        let seg = Segments::from_lengths(&lens).unwrap();
        let (seq, par) = machines();
        let mut s = flag_seed | 1;
        let flags: Vec<bool> = (0..data.len()).map(|_| lcg(&mut s) % 2 == 0).collect();
        let expect = seq.apply(&data, &seq.delete_layout(&seg, &flags));
        let dl = par.delete_layout(&seg, &flags);
        prop_assert_eq!(&par.apply(&data, &dl), &expect);
        let mut in_place = data.clone();
        par.apply_in_place(&mut in_place, &dl);
        prop_assert_eq!(&in_place, &expect);
    }

    /// Blocked permute round-trips through its inverse for arbitrary
    /// sizes near the block boundary.
    #[test]
    fn blocked_permute_roundtrip((data, _lens) in blocked_vec(), seed in any::<u64>()) {
        let (seq, par) = machines();
        let n = data.len();
        // Fisher-Yates on a deterministic stream.
        let mut index: Vec<usize> = (0..n).collect();
        let mut s = seed | 1;
        for i in (1..n).rev() {
            index.swap(i, lcg(&mut s) as usize % (i + 1));
        }
        prop_assert_eq!(seq.permute(&data, &index), par.permute(&data, &index));
        let mut inverse = vec![0usize; n];
        for (i, &p) in index.iter().enumerate() {
            inverse[p] = i;
        }
        let there = par.permute(&data, &index);
        prop_assert_eq!(par.permute(&there, &inverse), data);
    }
}
