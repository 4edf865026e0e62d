//! Tier-1 gate for `scan-model`'s kernel family (the crate's own unit and
//! integration tests do not run under the root package's `cargo test`).
//!
//! * **Op-count table** — every gather-form layout wrapper is one cloning
//!   (1 scan / 2 elementwise / 1 permute), `unshuffle_layout` is Fig. 16
//!   (2 scans / 3 elementwise), every apply is one permute (+1 elementwise
//!   fused-map, +1 in-place reuse in place), on both backends, with
//!   `bytes_moved` equal across them.
//! * **Scan bit-identity** — the one scan walk against the independent
//!   oracle `scan_seq`, K ∈ {1, 2, 4, 8, 9} lanes × Up/Down ×
//!   Inclusive/Exclusive × Sum/Min/Max (+ `First`/`Last`/`Or` at K = 1),
//!   at sizes straddling the block boundaries, on the inline sweep, one
//!   pooled worker and several.
//! * **Layouts** — the wrappers against the composed paper-figure forms
//!   (`crates/scanmodel/tests/oracles`), including vanished segment heads,
//!   all-zero arities and empty input.
//! * **In place ≡ fresh** — for shrinking, growing and mixed layouts; a
//!   proptest honouring `PROPTEST_CASES`.
//! * **Parent pins** — recorded at 6066589, before any kernel was touched:
//!   CRC-32 digests of the PM₁/PM₂/PM₃/bucket-PMR/region/k-d builds, the
//!   frontier join's pair list, the skyline and a 1 % batch update on
//!   fixed seeded inputs, and the per-round primitive profile of
//!   `build_pm1` and `build_bucket_pmr` at two sizes — all three machines
//!   agreed there and must reproduce them here. (The split rounds of the
//!   profile have since been re-recorded once, downward in every
//!   component, when the node split stopped carrying a block per lane;
//!   the digests never.)

#[path = "../crates/scanmodel/tests/oracles/mod.rs"]
mod oracles;

use dp_spatial_suite::geom::{LineSeg, Point};
use dp_spatial_suite::spatial::bucket_pmr::build_bucket_pmr;
use dp_spatial_suite::spatial::dominance::{dominance_weight, skyline, DomPoint};
use dp_spatial_suite::spatial::join::frontier_join;
use dp_spatial_suite::spatial::kdtree::build_kdtree;
use dp_spatial_suite::spatial::pm1::build_pm1;
use dp_spatial_suite::spatial::pm_family::{build_pm2, build_pm3};
use dp_spatial_suite::spatial::region::build_region_quadtree;
use dp_spatial_suite::spatial::snapshot::{crc32, encode_tree_snapshot, SnapshotFamily};
use dp_spatial_suite::spatial::update::{batch_update_bucket_pmr, UpdateBatch};
use dp_spatial_suite::workloads::{clustered_segments, uniform_segments, Dataset};
use oracles::{clone_composed, delete_composed, fanout_composed, unshuffle_composed};
use proptest::prelude::*;
use scan_model::blocked::{scan_blocked_into, scan_lanes_blocked_into};
use scan_model::ops::{CombineOp, Element, First, Last, Max, Min, Or, Sum};
use scan_model::scan::scan_seq;
use scan_model::{
    Backend, Direction, FusedOp, Layout, Machine, RoundTrace, ScanKind, Segments, StatsSnapshot,
};

/// One block = 64 `i64`/`u64`/`f64` lanes.
const TINY_BLOCK_BYTES: usize = 512;
const BLOCK: usize = 64;

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
                .with_block_bytes(TINY_BLOCK_BYTES),
        ),
    ]
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// `n` lanes cut into segments of 1..=max_len lanes.
fn segments(n: usize, max_len: usize, seed: u64) -> Segments {
    let mut s = seed;
    let mut lens = Vec::new();
    let mut total = 0usize;
    while total < n {
        let l = (lcg(&mut s) as usize % max_len + 1).min(n - total);
        lens.push(l);
        total += l;
    }
    Segments::from_lengths(&lens).expect("lengths are positive")
}

fn arities(n: usize, below: u64, seed: u64) -> Vec<u32> {
    let mut s = seed;
    (0..n).map(|_| (lcg(&mut s) % below) as u32).collect()
}

// ---------------------------------------------------------------------
// (a) The op-count table
// ---------------------------------------------------------------------

/// `(scans, scan_passes, elementwise, permutes, sorts, inplace_reuses)`.
type Counts = (u64, u64, u64, u64, u64, u64);

fn counts_of(d: &StatsSnapshot) -> Counts {
    (
        d.scans,
        d.scan_passes,
        d.elementwise,
        d.permutes,
        d.sorts,
        d.inplace_reuses,
    )
}

/// Runs every reorder-family entry point once on `m` and returns, per
/// entry, its counter deltas and the bytes it moved. Applies are measured
/// apart from the layout they apply.
fn measured_rows(m: &Machine) -> Vec<(&'static str, Counts, u64)> {
    let n = 500;
    let seg = segments(n, 13, 3);
    let copies = arities(n, 4, 4);
    let flags: Vec<bool> = copies.iter().map(|&c| c == 0).collect();
    let data: Vec<i64> = (0..n as i64).collect();
    let sorted: Vec<i64> = (0..n as i64).map(|i| i / 3).collect();

    let mut rows = Vec::new();
    let mut row = |name: &'static str, run: &mut dyn FnMut()| {
        let before = m.stats();
        run();
        let d = m.stats().since(&before);
        if m.backend() == Backend::Sequential {
            assert_eq!(d.blocked_passes, 0, "{name}: sequential went to the pool");
        }
        rows.push((name, counts_of(&d), d.bytes_moved));
    };
    let (mut shrink, mut grow, mut mixed, mut packed) = (None, None, None, None);
    row("delete_layout", &mut || {
        shrink = Some(m.delete_layout(&seg, &flags))
    });
    row("clone_layout", &mut || {
        grow = Some(m.clone_layout(&seg, &flags))
    });
    row("fanout_layout", &mut || {
        mixed = Some(m.fanout_layout(&seg, &copies))
    });
    row("unshuffle_layout", &mut || {
        packed = Some(m.unshuffle_layout(&seg, &flags))
    });
    let (shrink, grow, mixed) = (shrink.unwrap(), grow.unwrap(), mixed.unwrap());
    let packed = packed.unwrap();
    row("delete_duplicates", &mut || {
        drop(m.delete_duplicates(&sorted, &seg))
    });
    row("flat_map", &mut || {
        m.flat_map_into(
            &seg,
            &data,
            &copies,
            |v, r| v + i64::from(r),
            &mut Vec::new(),
        )
    });
    row("apply", &mut || drop(m.apply(&data, &mixed)));
    row("apply_into", &mut || {
        m.apply_into(&data, &grow, &mut Vec::new())
    });
    row("apply_map_into", &mut || {
        m.apply_map_into(&data, &mixed, |v, r| v + i64::from(r), &mut Vec::new())
    });
    row("apply_in_place/shrink", &mut || {
        m.apply_in_place(&mut data.clone(), &shrink)
    });
    row("apply_in_place/grow", &mut || {
        m.apply_in_place(&mut data.clone(), &grow)
    });
    row("apply_in_place/mixed", &mut || {
        m.apply_in_place(&mut data.clone(), &mixed)
    });
    row("apply_unshuffle", &mut || {
        drop(m.apply_unshuffle(&data, &packed))
    });
    row("apply_unshuffle_into", &mut || {
        m.apply_unshuffle_into(&data, &packed, &mut Vec::new())
    });
    row("apply_unshuffle_swap", &mut || {
        m.apply_unshuffle_swap(&mut data.clone(), &packed)
    });
    rows
}

#[test]
fn op_count_table_holds_on_both_backends() {
    const CLONING: Counts = (1, 1, 2, 1, 0, 0);
    const PERMUTE: Counts = (0, 0, 0, 1, 0, 0);
    const IN_PLACE: Counts = (0, 0, 0, 1, 0, 1);
    let table: [(&str, Counts); 15] = [
        ("delete_layout", CLONING),
        ("clone_layout", CLONING),
        ("fanout_layout", CLONING),
        ("unshuffle_layout", (2, 2, 3, 0, 0, 0)),
        // The flagging elementwise op, the layout, one apply.
        ("delete_duplicates", (1, 1, 3, 2, 0, 0)),
        // The layout plus the fused-map apply.
        ("flat_map", (1, 1, 3, 2, 0, 0)),
        ("apply", PERMUTE),
        ("apply_into", PERMUTE),
        ("apply_map_into", (0, 0, 1, 1, 0, 0)),
        ("apply_in_place/shrink", IN_PLACE),
        ("apply_in_place/grow", IN_PLACE),
        ("apply_in_place/mixed", IN_PLACE),
        ("apply_unshuffle", PERMUTE),
        ("apply_unshuffle_into", PERMUTE),
        ("apply_unshuffle_swap", IN_PLACE),
    ];
    let mut bytes: Option<Vec<u64>> = None;
    for (backend, m) in machines() {
        let rows = measured_rows(&m);
        for ((name, got, _), (want_name, want)) in rows.iter().zip(table) {
            assert_eq!(*name, want_name);
            assert_eq!(*got, want, "{name} on {backend}");
        }
        let moved: Vec<u64> = rows.iter().map(|r| r.2).collect();
        assert_eq!(
            *bytes.get_or_insert(moved.clone()),
            moved,
            "bytes_moved differs on {backend}"
        );
    }
    // A gather-form layout carries Fig. 14's two u64 vectors, an
    // unshuffle Fig. 16's four, an apply its one output vector.
    let bytes = bytes.unwrap();
    assert_eq!(bytes[0], 2 * 8 * 500);
    assert_eq!(bytes[3], 4 * 8 * 500);
    assert_eq!(bytes[12], 8 * 500);
}

// ---------------------------------------------------------------------
// (b) Scan bit-identity against the oracle
// ---------------------------------------------------------------------

const SCAN_SIZES: [usize; 6] = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7];
/// `threads` of the free kernels: 0 = inline sweep (the sequential
/// backend), 1 = one pooled worker, then the two-phase path.
const WORKERS: [usize; 4] = [0, 1, 2, 4];
const MODES: [(Direction, ScanKind); 4] = [
    (Direction::Up, ScanKind::Inclusive),
    (Direction::Up, ScanKind::Exclusive),
    (Direction::Down, ScanKind::Inclusive),
    (Direction::Down, ScanKind::Exclusive),
];

/// One static operator: the free kernel at every worker count and the
/// machine on every backend, against the oracle.
fn check_one_lane<T, O>(data: &[T], seg: &Segments, op: O, what: &str)
where
    T: Element + PartialEq + std::fmt::Debug,
    O: CombineOp<T>,
{
    for (dir, kind) in MODES {
        let want = scan_seq(data, seg, op, dir, kind);
        for threads in WORKERS {
            let mut got = Vec::new();
            scan_blocked_into(data, seg, op, dir, kind, BLOCK, threads, &mut got);
            assert_eq!(
                got,
                want,
                "{what} n={} threads={threads} {dir:?} {kind:?}",
                data.len()
            );
        }
        for (backend, m) in machines() {
            assert_eq!(
                m.scan(data, seg, op, dir, kind),
                want,
                "{what} n={} {backend} {dir:?} {kind:?}",
                data.len()
            );
        }
    }
}

#[test]
fn one_lane_scans_match_the_oracle() {
    for n in SCAN_SIZES {
        // Segments up to 150 lanes: some contain whole blocks.
        let seg = segments(n, 150, 0x5CA9 + n as u64);
        let mut s = n as u64 + 1;
        let ints: Vec<i64> = (0..n).map(|_| lcg(&mut s) as i64 % 1000 - 500).collect();
        let floats: Vec<f64> = ints.iter().map(|&v| v as f64).collect();
        let bools: Vec<bool> = ints.iter().map(|&v| v % 7 == 0).collect();
        check_one_lane(&ints, &seg, Sum, "i64 Sum");
        check_one_lane(&ints, &seg, Min, "i64 Min");
        check_one_lane(&ints, &seg, Max, "i64 Max");
        check_one_lane(&floats, &seg, Sum, "f64 Sum");
        check_one_lane(&floats, &seg, Min, "f64 Min");
        check_one_lane(&floats, &seg, Max, "f64 Max");
        check_one_lane(&ints, &seg, First, "First");
        check_one_lane(&ints, &seg, Last, "Last");
        check_one_lane(&bools, &seg, Or, "Or");
    }
}

#[test]
fn fused_lanes_match_the_oracle() {
    const OPS: [FusedOp; 3] = [FusedOp::Sum, FusedOp::Min, FusedOp::Max];
    for n in SCAN_SIZES {
        let seg = segments(n, 150, 0xF05E + n as u64);
        let mut s = n as u64 + 9;
        let a: Vec<i64> = (0..n).map(|_| lcg(&mut s) as i64 % 1000 - 500).collect();
        let b: Vec<i64> = (0..n).map(|_| lcg(&mut s) as i64 % 77).collect();
        for k in [1usize, 2, 4, 8, 9] {
            let lanes: Vec<(&[i64], FusedOp)> = (0..k)
                .map(|l| (if l % 2 == 0 { &a[..] } else { &b[..] }, OPS[l % 3]))
                .collect();
            for (dir, kind) in MODES {
                let want: Vec<Vec<i64>> = lanes
                    .iter()
                    .map(|&(data, op)| match op {
                        FusedOp::Sum => scan_seq(data, &seg, Sum, dir, kind),
                        FusedOp::Min => scan_seq(data, &seg, Min, dir, kind),
                        FusedOp::Max => scan_seq(data, &seg, Max, dir, kind),
                    })
                    .collect();
                for threads in WORKERS {
                    let mut got = vec![Vec::new(); k];
                    scan_lanes_blocked_into(&lanes, &seg, dir, kind, BLOCK, threads, &mut got);
                    assert_eq!(got, want, "K={k} n={n} threads={threads} {dir:?} {kind:?}");
                }
                for (backend, m) in machines() {
                    let before = m.stats();
                    let got = m.scan_lanes(&lanes, &seg, dir, kind);
                    let d = m.stats().since(&before);
                    assert_eq!(got, want, "K={k} n={n} {backend} {dir:?} {kind:?}");
                    assert_eq!((d.scans, d.scan_passes), (k as u64, 1), "K={k} {backend}");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// (c) Layout wrappers against the composed paper-figure forms
// ---------------------------------------------------------------------

fn assert_matches_fanout(layout: &Layout, seg: &Segments, copies: &[u32], context: &str) {
    let want = fanout_composed(seg, copies);
    assert_eq!(layout.src_lane, want.src_lane, "{context}: src_lane");
    assert_eq!(layout.rank, want.rank, "{context}: rank");
    assert_eq!(layout.seg.flags(), &want.flags[..], "{context}: flags");
    assert_eq!(layout.counts, want.counts, "{context}: counts");
    assert_eq!(layout.input_len(), seg.len(), "{context}: input length");
}

/// Every wrapper on one `(segments, arity source)` input, on every
/// machine, against its figure.
fn check_layouts(seg: &Segments, copies: &[u32], context: &str) {
    let flags: Vec<bool> = copies.iter().map(|&c| c == 0).collect();
    for (backend, m) in machines() {
        let context = format!("{context} on {backend}");
        assert_matches_fanout(&m.fanout_layout(seg, copies), seg, copies, &context);

        let clone = m.clone_layout(seg, &flags);
        let is_clone: Vec<bool> = clone.rank.iter().map(|&r| r == 1).collect();
        assert_eq!(
            (clone.src_lane.clone(), is_clone, clone.seg.flags().to_vec()),
            clone_composed(seg, &flags),
            "{context}: Fig. 14"
        );
        let as_arity: Vec<u32> = flags.iter().map(|&f| 1 + u32::from(f)).collect();
        assert_matches_fanout(&clone, seg, &as_arity, &context);

        let delete = m.delete_layout(seg, &flags);
        assert_eq!(
            (delete.src_lane.clone(), delete.counts.clone()),
            delete_composed(seg, &flags),
            "{context}: Fig. 18"
        );
        let as_arity: Vec<u32> = flags.iter().map(|&f| u32::from(!f)).collect();
        assert_matches_fanout(&delete, seg, &as_arity, &context);

        let unshuffle = m.unshuffle_layout(seg, &flags);
        assert_eq!(
            (unshuffle.target, unshuffle.counts),
            unshuffle_composed(seg, &flags),
            "{context}: Fig. 16"
        );
    }
}

#[test]
fn layout_wrappers_match_the_composed_figures() {
    check_layouts(&Segments::single(0), &[], "empty input");
    check_layouts(&segments(200, 9, 1), &[0; 200], "all-zero arities");
    check_layouts(&segments(200, 9, 2), &[1; 200], "identity");
    // Whole segments (and whole 64-lane blocks) vanish: their heads are
    // carried to the next survivor, across block boundaries.
    let vanishing: Vec<u32> = (0..400)
        .map(|i| u32::from(!(30..250).contains(&i)) * (1 + i % 3))
        .collect();
    check_layouts(&segments(400, 5, 3), &vanishing, "vanished segment heads");
    // Segment heads alone vanish.
    let seg = segments(300, 4, 4);
    let headless: Vec<u32> = seg.flags().iter().map(|&h| u32::from(!h) * 2).collect();
    check_layouts(&seg, &headless, "every head vanishes");
    for n in [1usize, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7, 1000] {
        for seed in [5u64, 6] {
            check_layouts(
                &segments(n, 37, seed + n as u64),
                &arities(n, 4, seed * 31 + n as u64),
                &format!("random n={n} seed={seed}"),
            );
        }
    }
}

#[test]
fn delete_duplicates_matches_fig18_on_sorted_keys() {
    let seg = segments(300, 20, 8);
    let keys: Vec<i64> = (0..300).map(|i| i / 4).collect();
    let dup: Vec<bool> = (0..300)
        .map(|i| i > 0 && !seg.flags()[i] && keys[i] == keys[i - 1])
        .collect();
    let (want_src, want_counts) = delete_composed(&seg, &dup);
    for (backend, m) in machines() {
        let (out, layout) = m.delete_duplicates(&keys, &seg);
        assert_eq!(layout.src_lane, want_src, "{backend}");
        assert_eq!(layout.counts, want_counts, "{backend}");
        let want: Vec<i64> = want_src.iter().map(|&i| keys[i]).collect();
        assert_eq!(out, want, "{backend}");
    }
}

// ---------------------------------------------------------------------
// (d) In place ≡ fresh
// ---------------------------------------------------------------------

/// The three destinations and the fused-map form of one layout agree
/// with a plain gather of the composed figure's source lanes.
fn check_destinations(m: &Machine, seg: &Segments, copies: &[u32], context: &str) {
    let data: Vec<i64> = (0..seg.len() as i64).map(|i| 7 * i - 3).collect();
    let layout = m.fanout_layout(seg, copies);
    let want: Vec<i64> = fanout_composed(seg, copies)
        .src_lane
        .iter()
        .map(|&i| data[i])
        .collect();
    assert_eq!(m.apply(&data, &layout), want, "{context}: fresh");
    let mut into = vec![99; 5];
    m.apply_into(&data, &layout, &mut into);
    assert_eq!(into, want, "{context}: caller buffer");
    let mut in_place = data.clone();
    m.apply_in_place(&mut in_place, &layout);
    assert_eq!(in_place, want, "{context}: in place");
    let mut mapped = Vec::new();
    m.apply_map_into(&data, &layout, |v, r| v * 8 + i64::from(r), &mut mapped);
    let want_mapped: Vec<i64> = want
        .iter()
        .zip(&layout.rank)
        .map(|(&v, &r)| v * 8 + i64::from(r))
        .collect();
    assert_eq!(mapped, want_mapped, "{context}: fused map");
}

#[test]
fn in_place_equals_fresh_for_shrink_grow_and_mixed() {
    for n in [0usize, 1, BLOCK, 3 * BLOCK + 7, 1000] {
        let seg = segments(n, 23, 40 + n as u64);
        let mixed = arities(n, 4, 41 + n as u64);
        let shrink: Vec<u32> = mixed.iter().map(|&c| c.min(1)).collect();
        let grow: Vec<u32> = mixed.iter().map(|&c| c.max(1)).collect();
        for (backend, m) in machines() {
            for (shape, copies) in [("shrink", &shrink), ("grow", &grow), ("mixed", &mixed)] {
                check_destinations(&m, &seg, copies, &format!("{shape} n={n} on {backend}"));
            }
        }
    }
}

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Random segment shapes and arities, a random machine: the layout
    /// is the composed figure's, every destination agrees, and the scans
    /// the layout replaced still match the oracle.
    #[test]
    fn layouts_and_destinations_hold_on_random_inputs(
        raw in prop::collection::vec((1usize..40, 0u32..4), 0..60),
        shape in 0usize..3,
        backend in 0usize..3,
    ) {
        let lens: Vec<usize> = raw.iter().map(|&(l, _)| l).collect();
        let seg = Segments::from_lengths(&lens).unwrap();
        let mut s = raw.len() as u64 + 17;
        let copies: Vec<u32> = raw
            .iter()
            .flat_map(|&(l, c)| std::iter::repeat(c).take(l))
            .map(|c| {
                let c = (c + lcg(&mut s) as u32) % 4;
                [c.min(1), c.max(1), c][shape]
            })
            .collect();
        let (name, m) = machines().swap_remove(backend);
        assert_matches_fanout(&m.fanout_layout(&seg, &copies), &seg, &copies, name);
        check_destinations(&m, &seg, &copies, name);
        let data: Vec<i64> = copies.iter().map(|&c| i64::from(c) - 1).collect();
        for (dir, kind) in MODES {
            prop_assert_eq!(
                m.scan(&data, &seg, Sum, dir, kind),
                scan_seq(&data, &seg, Sum, dir, kind)
            );
        }
    }
}

// ---------------------------------------------------------------------
// Parent pins
// ---------------------------------------------------------------------

fn pin_machines() -> Vec<(&'static str, Machine)> {
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

fn pin_inputs() -> [Dataset; 2] {
    [
        uniform_segments(1500, 1024, 24, 1301),
        clustered_segments(1500, 6, 24, 1024, 1302),
    ]
}

const DEPTH: usize = 10;
const CAPACITY: usize = 6;

/// CRC-32 of a snapshot stream minus its last four bytes (the final
/// section's own CRC-32: a CRC over a message ending in its own CRC no
/// longer depends on the message).
fn stream_digest(bytes: &[u8]) -> u32 {
    crc32(&bytes[..bytes.len() - 4])
}

fn debug_digest<T: std::fmt::Debug>(value: &T) -> u32 {
    crc32(format!("{value:?}").as_bytes())
}

fn endpoints(segs: &[LineSeg]) -> Vec<Point> {
    let mut pts: Vec<Point> = segs.iter().map(|s| s.a).collect();
    pts.sort_by(|p, q| p.x.total_cmp(&q.x).then(p.y.total_cmp(&q.y)));
    pts.dedup();
    pts
}

/// The nine digests of one input on one machine, in the order of
/// `DIGEST_NAMES`.
fn digests(machine: &Machine, data: &Dataset, other: &Dataset) -> [u32; 9] {
    let segs = &data.segs;
    let quad = |family, tree| stream_digest(&encode_tree_snapshot(family, segs, &tree, None));
    let pm1 = build_pm1(machine, data.world, segs, DEPTH);
    let bucket = build_bucket_pmr(machine, data.world, segs, CAPACITY, DEPTH);
    let other_tree = build_bucket_pmr(machine, other.world, &other.segs, CAPACITY, DEPTH);
    let join = frontier_join(machine, &bucket, segs, &other_tree, &other.segs)
        .expect("both inputs share one world");
    let points: Vec<DomPoint> = segs
        .iter()
        .enumerate()
        .map(|(i, s)| DomPoint {
            id: i as u32,
            x: s.a.x,
            y: s.a.y,
            w: dominance_weight(s),
        })
        .collect();
    let pixels: Vec<(u32, u32)> = {
        let mut px: Vec<(u32, u32)> = segs
            .iter()
            .map(|s| (s.a.x as u32 / 4, s.a.y as u32 / 4))
            .collect();
        px.sort_unstable();
        px.dedup();
        px
    };
    // A 1 % batch: every 100th segment deleted, as many of the other
    // input's segments inserted.
    let (mut updated_tree, mut updated_segs) = (bucket.clone(), segs.clone());
    let batch = UpdateBatch {
        inserts: other.segs.iter().step_by(100).copied().collect(),
        deletes: (0..segs.len() as u32).step_by(100).collect(),
    };
    batch_update_bucket_pmr(
        machine,
        &mut updated_tree,
        &mut updated_segs,
        &batch,
        CAPACITY,
        DEPTH,
    );
    [
        quad(SnapshotFamily::Pm1Fused, pm1),
        quad(
            SnapshotFamily::Pm2,
            build_pm2(machine, data.world, segs, DEPTH),
        ),
        quad(
            SnapshotFamily::Pm3,
            build_pm3(machine, data.world, segs, DEPTH),
        ),
        quad(SnapshotFamily::BucketPmr, bucket),
        debug_digest(&build_region_quadtree(machine, 8, &pixels)),
        debug_digest(&build_kdtree(machine, &endpoints(segs), 4)),
        debug_digest(&join.pairs),
        debug_digest(&skyline(machine, &points)),
        stream_digest(&encode_tree_snapshot(
            SnapshotFamily::BucketPmr,
            &updated_segs,
            &updated_tree,
            None,
        )),
    ]
}

/// `(scans, elementwise, permutes, scan_passes, bytes_moved)` of every
/// driver round of one build, sorts being absent from quadtree rounds
/// (asserted by the caller through `Machine::stats`).
fn round_profile(traces: &[RoundTrace]) -> Vec<(u64, u64, u64, u64, u64)> {
    traces
        .iter()
        .map(|t| {
            (
                t.scans,
                t.elementwise,
                t.permutes,
                t.scan_passes,
                t.bytes_moved,
            )
        })
        .collect()
}

/// Family order of the digests of one input.
const DIGEST_NAMES: [&str; 9] = [
    "pm1",
    "pm2",
    "pm3",
    "bucket-pmr",
    "region",
    "k-d",
    "frontier-join pairs",
    "skyline ids",
    "1% batch update",
];

/// [`digests`] of the two [`pin_inputs`], recorded from the parent commit
/// (6066589), where the three machines agreed. (PM₁ and PM₂ agree on the
/// uniform input: no two of its segments share a vertex.)
const PARENT_DIGESTS: [[u32; 9]; 2] = [
    [
        0x6a86e58d, 0x6a86e58d, 0x33e86f46, 0x133883e8, 0xc2741540, 0x180461c8, 0x60003620,
        0x9307be11, 0xcc8c9294,
    ],
    [
        0x695675e4, 0x7ab52dd7, 0x2135ae18, 0x98801e42, 0xf9bd0ef5, 0xbb2bc5df, 0x4b17faf9,
        0x300026a2, 0x59dc2057,
    ],
];

#[test]
fn builds_joins_and_updates_are_bit_identical_to_the_parent_commit() {
    let inputs = pin_inputs();
    for (i, data) in inputs.iter().enumerate() {
        for (backend, machine) in pin_machines() {
            let got = digests(&machine, data, &inputs[1 - i]);
            for (k, name) in DIGEST_NAMES.iter().enumerate() {
                assert_eq!(
                    got[k], PARENT_DIGESTS[i][k],
                    "{name} of {} on {backend}: output changed",
                    data.name
                );
            }
        }
    }
}

/// Every split round of a quadtree build issues one constant set of
/// primitives, whatever the family's decision costs in scans; the last
/// round only decides. `(scans, elementwise, permutes, scan passes)`; the
/// split itself is two cuts of (3, 7, 4, 3): a membership pass, one
/// fan-out layout (1, 2, 1), the line apply, the fused class apply
/// (0, 1, 1), the unshuffle layout (2, 3, 0) and its apply. (Parent commit:
/// (14, 24, 13, 8) and (8, 24, 13, 8), with a retire-delete of (1, 2, 3)
/// and two cuts of (3, 10, 5) each.)
type RoundOps = (u64, u64, u64, u64);
const PM1_SPLIT_ROUND: RoundOps = (13, 16, 8, 7);
const PM1_LAST_ROUND: RoundOps = (7, 2, 0, 1);
const BUCKET_SPLIT_ROUND: RoundOps = (7, 16, 8, 7);
const BUCKET_LAST_ROUND: RoundOps = (1, 2, 0, 1);

/// `bytes_moved` of every round of `build_pm1` / `build_bucket_pmr` on
/// `uniform_segments(n, 1024, 24, 1303)` for `n` = 600 and 2400, the same
/// on all three machines. The split rounds were re-recorded — every entry
/// below the parent commit's — when the per-lane block vector and the
/// retire-delete layout left the split; the last round (decide only) is
/// the parent commit's.
const PM1_ROUND_BYTES: [&[u64]; 2] = [
    &[
        133516, 138657, 148239, 164992, 197563, 230698, 215525, 157355, 115096, 91147, 42432,
    ],
    &[
        532637, 549341, 580903, 648186, 785056, 1050068, 1385781, 1581759, 1552870, 1441564, 696280,
    ],
];
const BUCKET_ROUND_BYTES: [&[u64]; 2] = [
    &[75916, 79137, 85743, 91433, 31799, 1024],
    &[
        302237, 312701, 334567, 380058, 465681, 247783, 42981, 2203, 120,
    ],
];

#[test]
fn build_round_profiles_reproduce_the_parent_commit() {
    for (size, n) in [600usize, 2400].into_iter().enumerate() {
        let data = uniform_segments(n, 1024, 24, 1303);
        for (backend, machine) in pin_machines() {
            let builds: [(&str, RoundOps, RoundOps, &[u64]); 2] = [
                (
                    "pm1",
                    PM1_SPLIT_ROUND,
                    PM1_LAST_ROUND,
                    PM1_ROUND_BYTES[size],
                ),
                (
                    "bucket-pmr",
                    BUCKET_SPLIT_ROUND,
                    BUCKET_LAST_ROUND,
                    BUCKET_ROUND_BYTES[size],
                ),
            ];
            for (name, split, last, bytes) in builds {
                machine.reset_stats();
                if name == "pm1" {
                    build_pm1(&machine, data.world, &data.segs, DEPTH);
                } else {
                    build_bucket_pmr(&machine, data.world, &data.segs, CAPACITY, DEPTH);
                }
                assert_eq!(machine.stats().sorts, 0, "{name} n={n} {backend}");
                let want: Vec<(u64, u64, u64, u64, u64)> = bytes
                    .iter()
                    .enumerate()
                    .map(|(r, &b)| {
                        let ops = if r + 1 == bytes.len() { last } else { split };
                        (ops.0, ops.1, ops.2, ops.3, b)
                    })
                    .collect();
                assert_eq!(
                    round_profile(&machine.take_round_traces()),
                    want,
                    "{name} n={n} {backend}: per-round primitive profile changed"
                );
            }
        }
    }
}

/// `arena_high_water_bytes` after one `build_bucket_pmr` of
/// `uniform_segments(20_000, 4096, 64, 20_042)` (capacity 8, depth 12) on
/// a fresh machine: a function of the lease sequence, not the schedule,
/// so it is the same on all three machines. The in-place applies are what
/// keep it under twice the input; a split round that holds one more
/// leased n-length lane moves it. Re-record downward only.
const BUCKET_ARENA_PEAK_BYTES: usize = 1_215_138;

#[test]
fn bucket_pmr_arena_peak_stays_under_twice_the_input() {
    let data = uniform_segments(20_000, 4096, 64, 20_042);
    for (backend, machine) in pin_machines() {
        build_bucket_pmr(&machine, data.world, &data.segs, 8, 12);
        let peak = machine.arena_high_water_bytes();
        assert_eq!(
            peak, BUCKET_ARENA_PEAK_BYTES,
            "{backend}: the build's arena peak moved"
        );
        assert!(
            peak <= 2 * std::mem::size_of_val(&data.segs[..]),
            "{backend}: arena peak {peak} exceeds twice the input's bytes"
        );
    }
}
