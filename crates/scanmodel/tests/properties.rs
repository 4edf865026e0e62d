//! Property tests for the scan-model vector machine (experiment E24):
//! the rayon-parallel backend must be observationally identical to the
//! sequential reference backend, and the primitives must obey their
//! algebraic laws.

use proptest::prelude::*;
use scan_model::ops::{Max, Min, Sum};
use scan_model::{Backend, Direction, FusedElement, FusedOp, Machine, ScanKind, Segments};

/// A random segmented vector: data plus segment lengths that sum to its
/// length.
fn segmented_vec() -> impl Strategy<Value = (Vec<i64>, Vec<usize>)> {
    prop::collection::vec(-1000i64..1000, 1..400).prop_flat_map(|data| {
        let n = data.len();
        prop::collection::vec(1usize..20, 1..n.max(2))
            .prop_map(move |mut lens| {
                // Trim / extend to cover exactly n lanes.
                let mut total = 0usize;
                let mut out = Vec::new();
                for l in lens.drain(..) {
                    if total + l >= n {
                        out.push(n - total);
                        total = n;
                        break;
                    }
                    total += l;
                    out.push(l);
                }
                if total < n {
                    out.push(n - total);
                }
                out.retain(|&l| l > 0);
                (out, n)
            })
            .prop_map(move |(lens, _)| lens)
            .prop_map({
                let data = data.clone();
                move |lens| (data.clone(), lens)
            })
    })
}

fn machines() -> (Machine, Machine) {
    (
        Machine::new(Backend::Sequential),
        Machine::new(Backend::Parallel).with_par_threshold(1),
    )
}

proptest! {
    /// Parallel scans are bit-identical to sequential scans for every
    /// direction/kind/operator combination.
    #[test]
    fn backend_equivalence_scans((data, lens) in segmented_vec()) {
        let seg = Segments::from_lengths(&lens).unwrap();
        let (seq, par) = machines();
        for dir in [Direction::Up, Direction::Down] {
            for kind in [ScanKind::Inclusive, ScanKind::Exclusive] {
                prop_assert_eq!(
                    seq.scan(&data, &seg, Sum, dir, kind),
                    par.scan(&data, &seg, Sum, dir, kind)
                );
                prop_assert_eq!(
                    seq.scan(&data, &seg, Min, dir, kind),
                    par.scan(&data, &seg, Min, dir, kind)
                );
                prop_assert_eq!(
                    seq.scan(&data, &seg, Max, dir, kind),
                    par.scan(&data, &seg, Max, dir, kind)
                );
            }
        }
    }

    /// A segmented scan equals independent flat scans of each segment.
    #[test]
    fn segmented_scan_is_per_segment_scan((data, lens) in segmented_vec()) {
        let seg = Segments::from_lengths(&lens).unwrap();
        let (seq, _) = machines();
        let whole = seq.up_scan_seg(&data, &seg, Sum, ScanKind::Inclusive);
        for r in seg.ranges() {
            let part = seq.up_scan(&data[r.clone()], Sum, ScanKind::Inclusive);
            prop_assert_eq!(&whole[r], &part[..]);
        }
    }

    /// Exclusive scan is the inclusive scan shifted by one lane within each
    /// segment, with the identity at segment heads.
    #[test]
    fn exclusive_is_shifted_inclusive((data, lens) in segmented_vec()) {
        let seg = Segments::from_lengths(&lens).unwrap();
        let (seq, _) = machines();
        let inc = seq.up_scan_seg(&data, &seg, Sum, ScanKind::Inclusive);
        let exc = seq.up_scan_seg(&data, &seg, Sum, ScanKind::Exclusive);
        for (i, &f) in seg.flags().iter().enumerate() {
            if f {
                prop_assert_eq!(exc[i], 0);
            } else {
                prop_assert_eq!(exc[i], inc[i - 1]);
            }
        }
    }

    /// Down-scan of data equals up-scan of the reversed data, reversed
    /// (with segments reversed as well).
    #[test]
    fn down_scan_is_reversed_up_scan((data, lens) in segmented_vec()) {
        let seg = Segments::from_lengths(&lens).unwrap();
        let (seq, _) = machines();
        let down = seq.down_scan_seg(&data, &seg, Sum, ScanKind::Inclusive);
        let mut rev_data = data.clone();
        rev_data.reverse();
        let mut rev_lens = lens.clone();
        rev_lens.reverse();
        let rev_seg = Segments::from_lengths(&rev_lens).unwrap();
        let mut up = seq.up_scan_seg(&rev_data, &rev_seg, Sum, ScanKind::Inclusive);
        up.reverse();
        prop_assert_eq!(down, up);
    }

    /// Unshuffle is a stable partition: within each segment the false-class
    /// lanes appear first, in original order, then the true-class lanes in
    /// original order; the multiset of lanes is preserved.
    #[test]
    fn unshuffle_is_stable_partition(
        (data, lens) in segmented_vec(),
        seed in any::<u64>(),
    ) {
        let seg = Segments::from_lengths(&lens).unwrap();
        let class: Vec<bool> = (0..data.len())
            .map(|i| (seed.wrapping_mul(i as u64 + 1).wrapping_add(i as u64 * 31)).is_multiple_of(3))
            .collect();
        for m in [machines().0, machines().1] {
            let layout = m.unshuffle_layout(&seg, &class);
            let out = m.apply_unshuffle(&data, &layout);
            for (s, r) in seg.ranges().enumerate() {
                let (na, nb) = layout.counts[s];
                prop_assert_eq!(na + nb, r.len());
                let expect_left: Vec<i64> =
                    r.clone().filter(|&i| !class[i]).map(|i| data[i]).collect();
                let expect_right: Vec<i64> =
                    r.clone().filter(|&i| class[i]).map(|i| data[i]).collect();
                prop_assert_eq!(&out[r.start..r.start + na], &expect_left[..]);
                prop_assert_eq!(&out[r.start + na..r.end], &expect_right[..]);
            }
        }
    }

    /// Cloning preserves order and inserts each clone right after its
    /// original.
    #[test]
    fn cloning_inserts_adjacent_copies(
        (data, lens) in segmented_vec(),
        seed in any::<u64>(),
    ) {
        let seg = Segments::from_lengths(&lens).unwrap();
        let flags: Vec<bool> = (0..data.len())
            .map(|i| (seed.wrapping_add(i as u64 * 2654435761)).is_multiple_of(4))
            .collect();
        for m in [machines().0, machines().1] {
            let layout = m.clone_layout(&seg, &flags);
            let out = m.apply(&data, &layout);
            // Reference: sequential expansion.
            let mut expect = Vec::new();
            for (i, &v) in data.iter().enumerate() {
                expect.push(v);
                if flags[i] {
                    expect.push(v);
                }
            }
            prop_assert_eq!(out, expect);
            // Segment lengths grow by the number of flagged lanes inside.
            let want_lens: Vec<usize> = seg
                .ranges()
                .map(|r| r.len() + r.filter(|&i| flags[i]).count())
                .collect();
            prop_assert_eq!(layout.seg.lengths(), want_lens);
        }
    }

    /// Deletion keeps exactly the unflagged lanes, in order.
    #[test]
    fn deletion_keeps_survivors_in_order(
        (data, lens) in segmented_vec(),
        seed in any::<u64>(),
    ) {
        let seg = Segments::from_lengths(&lens).unwrap();
        let flags: Vec<bool> = (0..data.len())
            .map(|i| (seed ^ (i as u64 * 0x9E3779B9)) % 3 == 1)
            .collect();
        for m in [machines().0, machines().1] {
            let layout = m.delete_layout(&seg, &flags);
            let out = m.apply(&data, &layout);
            let expect: Vec<i64> = data
                .iter()
                .enumerate()
                .filter(|(i, _)| !flags[*i])
                .map(|(_, &v)| v)
                .collect();
            prop_assert_eq!(out, expect);
            let total_kept: usize = layout.counts.iter().sum();
            prop_assert_eq!(total_kept, layout.src_lane.len());
        }
    }

    /// The segment counts primitive reports exact segment lengths.
    #[test]
    fn segment_counts_match_lengths((_data, lens) in segmented_vec()) {
        let seg = Segments::from_lengths(&lens).unwrap();
        for m in [machines().0, machines().1] {
            let counts = m.segment_counts(&seg);
            let want: Vec<u64> = lens.iter().map(|&l| l as u64).collect();
            prop_assert_eq!(counts, want);
        }
    }

    /// Segmented sort yields per-segment sorted order and is a permutation.
    #[test]
    fn segmented_sort_sorts_each_segment((data, lens) in segmented_vec()) {
        let seg = Segments::from_lengths(&lens).unwrap();
        for m in [machines().0, machines().1] {
            let order = m.segmented_sort_perm(&seg, &data, |a, b| a.cmp(b));
            let sorted = m.gather(&data, &order);
            for r in seg.ranges() {
                let window = &sorted[r.clone()];
                prop_assert!(window.windows(2).all(|w| w[0] <= w[1]));
                let mut orig: Vec<i64> = data[r].to_vec();
                let mut got: Vec<i64> = window.to_vec();
                orig.sort_unstable();
                got.sort_unstable();
                prop_assert_eq!(orig, got);
            }
        }
    }

    /// Permute then inverse-permute is the identity.
    #[test]
    fn permute_roundtrip(data in prop::collection::vec(any::<i32>(), 1..200), seed in any::<u64>()) {
        let n = data.len();
        // Build a deterministic pseudo-random permutation from the seed.
        let mut index: Vec<usize> = (0..n).collect();
        let mut s = seed | 1;
        for i in (1..n).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (s % (i as u64 + 1)) as usize;
            index.swap(i, j);
        }
        for m in [machines().0, machines().1] {
            let scattered = m.permute(&data, &index);
            // Gathering through the same index inverts the scatter.
            let back = m.gather(&scattered, &index);
            prop_assert_eq!(&back, &data);
        }
    }

    /// A fused multi-lane scan is bit-identical to composing the
    /// corresponding single-lane scans, on both backends, for every
    /// direction/kind combination.
    #[test]
    fn fused_scan_lanes_match_composed_scans((data, lens) in segmented_vec()) {
        let seg = Segments::from_lengths(&lens).unwrap();
        let b: Vec<i64> = data.iter().map(|&v| v.wrapping_mul(3) - 7).collect();
        let c: Vec<i64> = data.iter().rev().copied().collect();
        for m in [machines().0, machines().1] {
            for dir in [Direction::Up, Direction::Down] {
                for kind in [ScanKind::Inclusive, ScanKind::Exclusive] {
                    let outs = m.scan_lanes(
                        &[(&data, FusedOp::Sum), (&b, FusedOp::Min), (&c, FusedOp::Max)],
                        &seg,
                        dir,
                        kind,
                    );
                    prop_assert_eq!(&outs[0], &m.scan(&data, &seg, Sum, dir, kind));
                    prop_assert_eq!(&outs[1], &m.scan(&b, &seg, Min, dir, kind));
                    prop_assert_eq!(&outs[2], &m.scan(&c, &seg, Max, dir, kind));
                }
            }
        }
    }

    /// Every `_into` variant writes exactly what its allocating form
    /// returns, including when the output buffer is a recycled lease that
    /// arrives with stale capacity.
    #[test]
    fn into_variants_match_allocating_forms(
        (data, lens) in segmented_vec(),
        seed in any::<u64>(),
    ) {
        let seg = Segments::from_lengths(&lens).unwrap();
        for m in [machines().0, machines().1] {
            // Pre-populate the arena with a dirty buffer so the `_into`
            // paths exercise capacity reuse, not just fresh vectors.
            let mut dirty: Vec<i64> = m.lease();
            dirty.resize(data.len() / 2 + 1, 42);
            m.recycle(dirty);

            let mut out: Vec<i64> = m.lease();
            m.scan_into(&data, &seg, Sum, Direction::Down, ScanKind::Inclusive, &mut out);
            prop_assert_eq!(&out, &m.scan(&data, &seg, Sum, Direction::Down, ScanKind::Inclusive));
            m.recycle(out);

            let mut out: Vec<i64> = m.lease();
            m.map_into(&data, |v| v ^ 1, &mut out);
            prop_assert_eq!(&out, &m.map(&data, |v| v ^ 1));
            m.recycle(out);

            let b: Vec<i64> = data.iter().map(|&v| v.wrapping_add(5)).collect();
            let mut out: Vec<i64> = m.lease();
            m.zip_map_into(&data, &b, |x, y| x.min(y), &mut out);
            prop_assert_eq!(&out, &m.zip_map(&data, &b, |x, y| x.min(y)));
            m.recycle(out);

            // Fused multi-lane elementwise fill: each lane equals the
            // corresponding plain map.
            let mut lanes: [Vec<i64>; 3] = [m.lease(), m.lease(), m.lease()];
            m.fill_lanes_into(
                data.len(),
                |i| [data[i].wrapping_mul(3), data[i] ^ 7, data[i].wrapping_sub(b[i])],
                &mut lanes,
            );
            prop_assert_eq!(&lanes[0], &m.map(&data, |v| v.wrapping_mul(3)));
            prop_assert_eq!(&lanes[1], &m.map(&data, |v| v ^ 7));
            prop_assert_eq!(&lanes[2], &m.zip_map(&data, &b, |x, y| x.wrapping_sub(y)));
            for lane in lanes {
                m.recycle(lane);
            }

            // Segment-aware fill: each lane sees its own value and the
            // index of the segment it lies in.
            let ids = seg.segment_ids();
            let mut lanes: [Vec<i64>; 2] = [m.lease(), m.lease()];
            m.seg_map_lanes_into(&data, &seg, |s, v| [s as i64, v ^ s as i64], &mut lanes);
            prop_assert_eq!(&lanes[0], &ids.iter().map(|&s| s as i64).collect::<Vec<_>>());
            prop_assert_eq!(&lanes[1], &m.zip_map(&data, &ids, |v, s| v ^ s as i64));
            for lane in lanes {
                m.recycle(lane);
            }

            // Pseudo-random permutation for permute/gather.
            let n = data.len();
            let mut index: Vec<usize> = (0..n).collect();
            let mut s = seed | 1;
            for i in (1..n).rev() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let j = (s % (i as u64 + 1)) as usize;
                index.swap(i, j);
            }
            let mut out: Vec<i64> = m.lease();
            m.permute_into(&data, &index, &mut out);
            prop_assert_eq!(&out, &m.permute(&data, &index));
            m.recycle(out);

            let mut out: Vec<i64> = m.lease();
            m.gather_into(&data, &index, &mut out);
            prop_assert_eq!(&out, &m.gather(&data, &index));
            m.recycle(out);

            // Structural primitives through the same layouts.
            let flags: Vec<bool> = (0..n)
                .map(|i| (seed ^ (i as u64 * 0x9E3779B9)).is_multiple_of(3))
                .collect();
            let cl = m.clone_layout(&seg, &flags);
            let mut out: Vec<i64> = m.lease();
            m.apply_into(&data, &cl, &mut out);
            prop_assert_eq!(&out, &m.apply(&data, &cl));
            m.recycle(out);

            let un = m.unshuffle_layout(&seg, &flags);
            let mut out: Vec<i64> = m.lease();
            m.apply_unshuffle_into(&data, &un, &mut out);
            prop_assert_eq!(&out, &m.apply_unshuffle(&data, &un));
            m.recycle(out);

            let dl = m.delete_layout(&seg, &flags);
            let mut out: Vec<i64> = m.lease();
            m.apply_into(&data, &dl, &mut out);
            prop_assert_eq!(&out, &m.apply(&data, &dl));
            m.recycle(out);
        }
    }
}

/// Fused scans on the degenerate segment shapes: empty input, all-singleton
/// segments, and a single world-spanning segment — both backends, checked
/// against the composed single-lane scans, plus the fused-pass stats
/// invariant `scans == scan_passes + fused_lanes_saved`.
#[test]
fn fused_scan_lanes_edge_shapes() {
    for m in [machines().0, machines().1] {
        // Empty input.
        let empty: Vec<i64> = Vec::new();
        let seg = Segments::single(0);
        let outs = m.scan_lanes(
            &[(&empty, FusedOp::Sum), (&empty, FusedOp::Max)],
            &seg,
            Direction::Up,
            ScanKind::Inclusive,
        );
        assert!(outs.iter().all(|o| o.is_empty()));

        // All-singleton segments and one giant segment.
        let shapes: Vec<(Vec<i64>, Segments)> = vec![
            (vec![7, -3, 11], Segments::from_lengths(&[1, 1, 1]).unwrap()),
            (
                (0..10_000).map(|i| (i * i) % 97 - 48).collect(),
                Segments::single(10_000),
            ),
        ];
        for (data, seg) in shapes {
            for dir in [Direction::Up, Direction::Down] {
                for kind in [ScanKind::Inclusive, ScanKind::Exclusive] {
                    let outs = m.scan_lanes(
                        &[
                            (&data, FusedOp::Sum),
                            (&data, FusedOp::Min),
                            (&data, FusedOp::Max),
                        ],
                        &seg,
                        dir,
                        kind,
                    );
                    assert_eq!(outs[0], m.scan(&data, &seg, Sum, dir, kind));
                    assert_eq!(outs[1], m.scan(&data, &seg, Min, dir, kind));
                    assert_eq!(outs[2], m.scan(&data, &seg, Max, dir, kind));
                }
            }
        }

        let stats = m.stats();
        assert_eq!(
            stats.scans,
            stats.scan_passes + stats.fused_lanes_saved,
            "fused-pass invariant violated: {stats:?}"
        );
        assert!(stats.fused_lanes_saved > 0);
    }
}

/// Clone/unshuffle `_into` variants on the degenerate shapes a build loop
/// can reach: the empty frontier (zero segments, zero lanes) and the
/// one-lane frontier — both backends, with warm arena buffers so the
/// `_into` reuse path is the one exercised.
#[test]
fn clone_unshuffle_into_empty_and_single_lane() {
    for m in [machines().0, machines().1] {
        // Warm the arena with dirty buffers of a mismatched length.
        let mut dirty: Vec<i64> = m.lease();
        dirty.resize(17, 99);
        m.recycle(dirty);

        // Empty frontier: no segments, no lanes.
        let empty: Vec<i64> = Vec::new();
        let seg = Segments::single(0);
        let flags: Vec<bool> = Vec::new();

        let cl = m.clone_layout(&seg, &flags);
        let mut out: Vec<i64> = m.lease();
        m.apply_into(&empty, &cl, &mut out);
        assert!(out.is_empty());
        assert_eq!(out, m.apply(&empty, &cl));
        m.recycle(out);

        let un = m.unshuffle_layout(&seg, &flags);
        let mut out: Vec<i64> = m.lease();
        m.apply_unshuffle_into(&empty, &un, &mut out);
        assert!(out.is_empty());
        assert_eq!(out, m.apply_unshuffle(&empty, &un));
        m.recycle(out);

        // One lane in one segment, both flag polarities.
        for flag in [false, true] {
            let data = vec![42i64];
            let seg = Segments::single(1);

            let cl = m.clone_layout(&seg, &[flag]);
            let mut out: Vec<i64> = m.lease();
            m.apply_into(&data, &cl, &mut out);
            assert_eq!(out, m.apply(&data, &cl));
            assert_eq!(out.len(), if flag { 2 } else { 1 });
            m.recycle(out);

            let un = m.unshuffle_layout(&seg, &[flag]);
            let mut out: Vec<i64> = m.lease();
            m.apply_unshuffle_into(&data, &un, &mut out);
            assert_eq!(out, m.apply_unshuffle(&data, &un));
            assert_eq!(out, data);
            m.recycle(out);
        }
    }
}

proptest! {
    /// All-singleton segments (every node holds exactly one lane — the
    /// deepest-frontier shape of a quadtree build) through the clone and
    /// unshuffle layouts: `_into` variants must match the allocating
    /// forms on both backends, and the shapes must be what singletons
    /// force (clone doubles flagged lanes; unshuffle of a singleton is
    /// the identity).
    #[test]
    fn clone_unshuffle_into_all_singleton_segments(
        flags in prop::collection::vec(any::<bool>(), 1..40),
        seed in any::<u64>(),
    ) {
        let n = flags.len();
        let data: Vec<i64> = (0..n)
            .map(|i| (seed ^ (i as u64).wrapping_mul(0x9E3779B9)) as i64)
            .collect();
        let seg = Segments::from_lengths(&vec![1; n]).unwrap();
        for m in [machines().0, machines().1] {
            let cl = m.clone_layout(&seg, &flags);
            let mut out: Vec<i64> = m.lease();
            m.apply_into(&data, &cl, &mut out);
            prop_assert_eq!(&out, &m.apply(&data, &cl));
            let doubled = n + flags.iter().filter(|&&f| f).count();
            prop_assert_eq!(out.len(), doubled);
            m.recycle(out);

            let un = m.unshuffle_layout(&seg, &flags);
            let mut out: Vec<i64> = m.lease();
            m.apply_unshuffle_into(&data, &un, &mut out);
            prop_assert_eq!(&out, &m.apply_unshuffle(&data, &un));
            // A one-lane segment cannot reorder: unshuffle is identity.
            prop_assert_eq!(&out, &data);
            m.recycle(out);
        }
    }
}

/// The three machines every kernel differential runs on: the sequential
/// reference, the pool from the first lane, and the pool with blocks so
/// small that every input crosses many block boundaries.
fn three_machines() -> [Machine; 3] {
    [
        Machine::new(Backend::Sequential),
        Machine::new(Backend::Parallel).with_par_threshold(1),
        Machine::new(Backend::Parallel)
            .with_par_threshold(1)
            .with_block_bytes(4 * std::mem::size_of::<u64>()),
    ]
}

/// Push-form `flat_map_into` against the gather form it replaced in the
/// one-output callers — `fanout_layout` then `apply_map_into` — on one
/// machine: same output, same paper-level and physical counters.
fn assert_push_matches_gather(m: &Machine, lens: &[usize], counts: &[u32], what: &str) {
    let n = counts.len();
    let seg = if n == 0 {
        Segments::single(0)
    } else {
        Segments::from_lengths(lens).unwrap()
    };
    let data: Vec<u64> = (0..n as u64).map(|i| i * 31 + 5).collect();
    let f = |v: u64, r: u32| v * 8 + u64::from(r);

    let before = m.stats();
    let layout = m.fanout_layout(&seg, counts);
    let mut want: Vec<u64> = Vec::new();
    if !layout.is_empty() {
        m.apply_map_into(&data, &layout, f, &mut want);
    }
    let gather = m.stats().since(&before);

    let before = m.stats();
    let mut got: Vec<u64> = Vec::new();
    m.flat_map_into(&seg, &data, counts, f, &mut got);
    let push = m.stats().since(&before);

    assert_eq!(got, want, "{what}: output");
    let counters = |d: &scan_model::StatsSnapshot| {
        (
            d.scans,
            d.elementwise,
            d.permutes,
            d.scan_passes,
            d.blocked_passes,
            d.bytes_moved,
        )
    };
    assert_eq!(counters(&push), counters(&gather), "{what}: counters");
    assert_eq!(push.sorts + push.inplace_reuses, 0, "{what}");
}

/// The edges by hand: no lanes, one lane of every arity, nothing
/// survives, everything quadruples, and a run of copies that straddles
/// the tiny machine's four-lane output blocks.
#[test]
fn push_flat_map_matches_gather_form_at_the_edges() {
    for m in three_machines() {
        assert_push_matches_gather(&m, &[], &[], "n = 0");
        for c in 0..=4 {
            assert_push_matches_gather(&m, &[1], &[c], "n = 1");
        }
        assert_push_matches_gather(&m, &[3, 6], &[0; 9], "all zero");
        assert_push_matches_gather(&m, &[9], &[4; 9], "all four");
        // Lane 3 is the last of the first input block; its four copies
        // land on output slots 3..7, across an output block boundary.
        assert_push_matches_gather(&m, &[2, 5], &[1, 1, 1, 4, 0, 4, 4], "straddle");
        assert_push_matches_gather(&m, &[4, 4], &[0, 0, 0, 0, 4, 0, 0, 1], "empty block");
    }
}

proptest! {
    /// Random arities 0..=4 over random segment shapes, all three
    /// machines.
    #[test]
    fn push_flat_map_matches_gather_form(
        counts in prop::collection::vec(0u32..5, 1..200),
        cut in 1usize..17,
    ) {
        let n = counts.len();
        let mut lens = vec![cut; n / cut];
        if n % cut > 0 {
            lens.push(n % cut);
        }
        for m in three_machines() {
            assert_push_matches_gather(&m, &lens, &counts, "random");
        }
    }
}

/// The operators the reduce tests rotate through their lanes.
const REDUCE_OPS: [FusedOp; 3] = [FusedOp::Sum, FusedOp::Min, FusedOp::Max];

/// `seg_reduce_lanes_into` against its definition on one machine: the
/// downward inclusive fused scan of the same lanes, read at the segment
/// heads, bit for bit (`f64`s compared by their printed form, which tells
/// `-0.0` from `0.0`).
fn assert_reduce_is_scan_at_heads<T, const K: usize>(
    m: &Machine,
    lanes: &[Vec<T>; K],
    seg: &Segments,
    ops: [FusedOp; K],
) where
    T: FusedElement + std::fmt::Debug,
{
    let lane_ids: Vec<u32> = (0..seg.len() as u32).collect();
    let mut got: [Vec<T>; K] = std::array::from_fn(|_| Vec::new());
    m.seg_reduce_lanes_into(
        &lane_ids,
        seg,
        |_, i| std::array::from_fn(|l| lanes[l][i as usize]),
        ops,
        &mut got,
    );
    let scan_in: Vec<(&[T], FusedOp)> = (0..K).map(|l| (&lanes[l][..], ops[l])).collect();
    let mut scanned: Vec<Vec<T>> = vec![Vec::new(); K];
    m.scan_lanes_into(
        &scan_in,
        seg,
        Direction::Down,
        ScanKind::Inclusive,
        &mut scanned,
    );
    for l in 0..K {
        let want: Vec<T> = seg.starts().iter().map(|&h| scanned[l][h]).collect();
        assert_eq!(
            format!("{:?}", got[l]),
            format!("{want:?}"),
            "lane {l} of {K}, {:?}",
            ops[l]
        );
    }
}

/// [`assert_reduce_is_scan_at_heads`] at width K over `u64`, `i64` and
/// integer-valued `f64` lanes derived from `data`, operators rotated by
/// `rot`; `fractional` adds fractional `f64` lanes (exact only where the
/// reduce and the scan both run one sweep).
fn reduce_at_width<const K: usize>(
    m: &Machine,
    data: &[i64],
    seg: &Segments,
    rot: usize,
    fractional: bool,
) {
    let ops: [FusedOp; K] = std::array::from_fn(|l| REDUCE_OPS[(l + rot) % 3]);
    let k = |l: usize| l as i64 + 1;
    let u: [Vec<u64>; K] =
        std::array::from_fn(|l| data.iter().map(|&v| ((v + 1000) * k(l)) as u64).collect());
    assert_reduce_is_scan_at_heads(m, &u, seg, ops);
    let i: [Vec<i64>; K] = std::array::from_fn(|l| data.iter().map(|&v| v * k(l) - k(l)).collect());
    assert_reduce_is_scan_at_heads(m, &i, seg, ops);
    let f: [Vec<f64>; K] =
        std::array::from_fn(|l| data.iter().map(|&v| (v * k(l)) as f64).collect());
    assert_reduce_is_scan_at_heads(m, &f, seg, ops);
    if fractional {
        let f: [Vec<f64>; K] = std::array::from_fn(|l| {
            data.iter()
                .map(|&v| v as f64 / 7.0 + l as f64 * 0.1)
                .collect()
        });
        assert_reduce_is_scan_at_heads(m, &f, seg, ops);
    }
}

fn reduce_at_every_width(m: &Machine, data: &[i64], seg: &Segments, rot: usize, fractional: bool) {
    reduce_at_width::<1>(m, data, seg, rot, fractional);
    reduce_at_width::<2>(m, data, seg, rot, fractional);
    reduce_at_width::<4>(m, data, seg, rot, fractional);
    reduce_at_width::<7>(m, data, seg, rot, fractional);
    reduce_at_width::<8>(m, data, seg, rot, fractional);
}

proptest! {
    /// Random segment shapes, K ∈ {1, 2, 4, 7, 8}, Sum/Min/Max over
    /// `u64`/`i64`/integer-valued `f64` on all three machines; fractional
    /// `f64` sums on the two whose inputs fit one block.
    #[test]
    fn seg_reduce_is_the_downward_scan_at_the_heads(
        (data, lens) in segmented_vec(),
        rot in 0usize..3,
    ) {
        let seg = Segments::from_lengths(&lens).unwrap();
        for (k, m) in three_machines().iter().enumerate() {
            reduce_at_every_width(m, &data, &seg, rot, k < 2);
        }
    }
}

/// The reduce at the shapes the block edges make interesting — the third
/// machine cuts 64-lane blocks: one segment spanning several blocks, all
/// singletons, a boundary exactly on a block edge and one a lane off it
/// on either side. `f` sees each lane's own segment, and empty input
/// gives empty outputs.
#[test]
fn seg_reduce_edge_shapes() {
    let data: Vec<i64> = (0..200).map(|i| (i * i) % 97 - 48).collect();
    let shapes: [Vec<usize>; 5] = [
        vec![200],
        vec![1; 200],
        vec![64, 64, 72],
        vec![63, 2, 135],
        vec![65, 63, 72],
    ];
    for lens in shapes {
        let seg = Segments::from_lengths(&lens).unwrap();
        for (k, m) in three_machines().iter().enumerate() {
            reduce_at_every_width(m, &data, &seg, k, k < 2);
            let mut seen: [Vec<u64>; 2] = Default::default();
            m.seg_reduce_lanes_into(
                &data,
                &seg,
                |s, _| [s as u64; 2],
                [FusedOp::Min, FusedOp::Max],
                &mut seen,
            );
            let want: Vec<u64> = (0..lens.len() as u64).collect();
            assert_eq!(seen, [want.clone(), want], "{lens:?}");
        }
    }
    for m in three_machines() {
        let mut outs: [Vec<u64>; 3] = [vec![1], vec![2, 3], Vec::new()];
        m.seg_reduce_lanes_into(
            &[] as &[u32],
            &Segments::single(0),
            |_, _| [0; 3],
            [FusedOp::Sum; 3],
            &mut outs,
        );
        assert!(outs.iter().all(Vec::is_empty));
    }
}

#[test]
#[should_panic(expected = "segment reduce")]
fn seg_reduce_rejects_a_length_mismatch() {
    let mut outs: [Vec<u64>; 1] = Default::default();
    Machine::new(Backend::Sequential).seg_reduce_lanes_into(
        &[1u64, 2],
        &Segments::single(3),
        |_, v| [v],
        [FusedOp::Sum],
        &mut outs,
    );
}
