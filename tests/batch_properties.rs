//! Property and complexity tests for the batch (lockstep) query engine.
//!
//! * For arbitrary trees and windows — empty, degenerate, boundary-
//!   aligned and world-spanning included — the batched candidate phase
//!   must agree with the per-query traversal, and the full batched query
//!   with brute force.
//! * The complexity contract of the lockstep descent (paper Sec. 4):
//!   a batch over a depth-`d` tree issues `d` primitive *rounds*, each a
//!   constant number of scans — independent of how many queries ride in
//!   the batch.

use dp_spatial_suite::geom::{clip_segment_closed, LineSeg, Point, Rect};
use dp_spatial_suite::spatial::batch::{batch_window_candidates, batch_window_query};
use dp_spatial_suite::spatial::bucket_pmr::build_bucket_pmr;
use proptest::prelude::*;
use scan_model::{Backend, Machine};

const WORLD_SIZE: i32 = 64;

fn world() -> Rect {
    Rect::from_coords(0.0, 0.0, WORLD_SIZE as f64, WORLD_SIZE as f64)
}

fn segments() -> impl Strategy<Value = Vec<LineSeg>> {
    prop::collection::vec(
        (0..WORLD_SIZE, 0..WORLD_SIZE, 0..WORLD_SIZE, 0..WORLD_SIZE),
        1..40,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .filter(|&(ax, ay, bx, by)| (ax, ay) != (bx, by))
            .map(|(ax, ay, bx, by)| {
                LineSeg::from_coords(ax as f64, ay as f64, bx as f64, by as f64)
            })
            .collect::<Vec<_>>()
    })
    .prop_filter("need at least one segment", |v| !v.is_empty())
}

/// Windows across the full shape spectrum: ordinary boxes, degenerate
/// points, segments of zero width or height, the whole world, rectangles
/// hanging past the world edge, and the formally empty rectangle.
fn windows() -> impl Strategy<Value = Rect> {
    (
        0u8..7,
        0..WORLD_SIZE,
        0..WORLD_SIZE,
        1..WORLD_SIZE,
        1..WORLD_SIZE,
    )
        .prop_map(|(kind, x, y, w, h)| {
            let (x, y, w, h) = (x as f64, y as f64, w as f64, h as f64);
            let size = WORLD_SIZE as f64;
            match kind {
                0 => Rect::empty(),
                1 => Rect::point(Point::new(x, y)),
                2 => Rect::from_coords(x, y, (x + w).min(size), y), // zero height
                3 => Rect::from_coords(x, y, x, (y + h).min(size)), // zero width
                4 => Rect::from_coords(0.0, 0.0, size, size),       // world-spanning
                5 => Rect::from_coords(x, y, x + w, y + h),         // may exceed world
                _ => Rect::from_coords(x, y, (x + w).min(size), (y + h).min(size)),
            }
        })
}

fn brute(segs: &[LineSeg], q: &Rect) -> Vec<u32> {
    (0..segs.len() as u32)
        .filter(|&id| clip_segment_closed(&segs[id as usize], q).is_some())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The lockstep candidate phase equals the per-query traversal for
    /// every window shape, on both backends and with tiny blocks.
    #[test]
    fn batch_candidates_match_traversal(
        segs in segments(),
        qs in prop::collection::vec(windows(), 0..12),
        cap in 1usize..5,
    ) {
        for machine in [
            Machine::sequential(),
            Machine::new(Backend::Parallel).with_par_threshold(1),
            // Tiny blocks: every level's layout and apply cross many
            // block boundaries.
            Machine::new(Backend::Parallel)
                .with_par_threshold(1)
                .with_block_bytes(4 * 8),
        ] {
            let tree = build_bucket_pmr(&machine, world(), &segs, cap, 8);
            let batched = batch_window_candidates(&machine, &tree, &qs);
            prop_assert_eq!(batched.len(), qs.len());
            for (q, got) in qs.iter().zip(&batched) {
                prop_assert_eq!(got, &tree.window_candidates(q), "window {}", q);
            }
        }
    }

    /// The full batched query (candidates + exact filter) equals brute
    /// force for every window shape.
    #[test]
    fn batch_query_matches_brute_force(
        segs in segments(),
        qs in prop::collection::vec(windows(), 1..10),
    ) {
        let machine = Machine::parallel();
        let tree = build_bucket_pmr(&machine, world(), &segs, 3, 8);
        let batched = batch_window_query(&machine, &tree, &qs, &segs);
        for (q, got) in qs.iter().zip(&batched) {
            prop_assert_eq!(got, &brute(&segs, q), "window {}", q);
        }
    }
}

/// The descent issues exactly `height` rounds when some window reaches
/// the deepest leaf, and the primitive count per round is a constant —
/// the whole point of lockstep batching: op totals do not grow with the
/// number of queries in the batch.
#[test]
fn batch_descent_is_height_rounds_constant_scans() {
    let machine = Machine::sequential();
    let segs: Vec<LineSeg> = (0..80)
        .map(|k| {
            let x = ((k * 13) % 60) as f64;
            let y = ((k * 29) % 60) as f64;
            LineSeg::from_coords(x, y, (x + 3.0).min(63.0), (y + 2.0).min(63.0))
        })
        .collect();
    let tree = build_bucket_pmr(&machine, world(), &segs, 2, 8);
    let height = tree.stats().height;
    assert!(height >= 3, "tree too shallow for the claim: {height}");

    // Both batches include the world window, so the frontier reaches the
    // deepest leaf and the descent runs exactly `height` rounds.
    let small: Vec<Rect> = std::iter::once(world())
        .chain((0..3).map(|k| {
            let x = (k * 16) as f64;
            Rect::from_coords(x, x, x + 8.0, x + 8.0)
        }))
        .collect();
    let large: Vec<Rect> = std::iter::once(world())
        .chain((0..255).map(|k| {
            let x = ((k * 7) % 56) as f64;
            let y = ((k * 11) % 56) as f64;
            Rect::from_coords(x, y, x + 6.0, y + 6.0)
        }))
        .collect();

    machine.reset_stats();
    let base = machine.stats();
    let _ = batch_window_query(&machine, &tree, &small, &segs);
    let small_ops = machine.stats().since(&base);

    let base = machine.stats();
    let _ = batch_window_query(&machine, &tree, &large, &segs);
    let large_ops = machine.stats().since(&base);

    // O(d) rounds: exactly the tree height, for 4 and for 256 queries.
    assert_eq!(small_ops.rounds, height as u64, "rounds {small_ops:?}");
    assert_eq!(large_ops.rounds, height as u64, "rounds {large_ops:?}");

    // O(1) primitives per round: the sequence of primitive invocations
    // per level is fixed, so 64× more queries must not change any
    // primitive counter at all. (`allocs_avoided` is excluded: whether a
    // recycled buffer's capacity covers a lease depends on the lane
    // counts, which do scale with batch width. `bytes_moved` is excluded
    // for the same reason: it measures data volume, which is exactly what
    // grows with the batch.)
    let ops_only = |s: &scan_model::StatsSnapshot| {
        let mut s = *s;
        s.allocs_avoided = 0;
        s.bytes_moved = 0;
        s
    };
    assert_eq!(
        ops_only(&small_ops),
        ops_only(&large_ops),
        "op counts grew with batch width"
    );

    // And the constant is the one flat-map of `descend_level`, exactly:
    // per level one landing pass and one arity map, then the layout (one
    // room-making scan, two elementwise ops, one permutation) and the
    // fused apply (one permutation, one elementwise op). Nothing is
    // cloned and then deleted, so nothing is applied in place. The three
    // elementwise ops beside the levels are the root-lane pass, the
    // terminating level's landing pass and the exact-geometry filter.
    let levels = small_ops.rounds;
    assert_eq!(small_ops.scans, levels, "{small_ops:?}");
    assert_eq!(small_ops.scan_passes, levels, "{small_ops:?}");
    assert_eq!(small_ops.permutes, 2 * levels, "{small_ops:?}");
    assert_eq!(small_ops.elementwise, 5 * levels + 3, "{small_ops:?}");
    assert_eq!(small_ops.sorts, 0, "{small_ops:?}");
    assert_eq!(small_ops.inplace_reuses, 0, "{small_ops:?}");
}

/// Queries that die at the root (outside the world, or the empty
/// rectangle) cost zero descent rounds.
#[test]
fn missing_windows_cost_no_rounds() {
    let machine = Machine::sequential();
    let segs = vec![LineSeg::from_coords(1.0, 1.0, 6.0, 6.0)];
    let tree = build_bucket_pmr(&machine, world(), &segs, 1, 8);
    machine.reset_stats();
    let out = batch_window_query(
        &machine,
        &tree,
        &[Rect::from_coords(100.0, 100.0, 120.0, 120.0), Rect::empty()],
        &segs,
    );
    assert_eq!(out, vec![Vec::<u32>::new(), Vec::new()]);
    assert_eq!(machine.stats().rounds, 0);
    assert_eq!(machine.stats().scans, 0);
}
