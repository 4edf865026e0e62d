//! Differential + metamorphic battery for the dominance/skyline
//! pipelines and the generalized flat-map kernel they ride.
//!
//! Three layers of evidence, per ISSUE 10:
//!
//! * **Differential** — [`skyline`] and [`dominance_agg`] must agree
//!   with the brute-force sequential oracle (`seq_spatial::dominance`)
//!   on both scan-model backends: scripted edge shapes (empty, single,
//!   all-collinear, duplicate coordinates, all-dominated) plus random
//!   sweeps honouring `PROPTEST_CASES`.
//! * **Metamorphic** — properties that must hold without consulting any
//!   oracle: permuting the input never changes the answers, translating
//!   points and queries together never changes them, strictly monotone
//!   coordinate transforms preserve the skyline id-set, and inserting a
//!   dominated point never changes the skyline.
//! * **Kernel** — the variable-arity flat-map underneath the skyline
//!   compaction is bit-identical across backends at block-boundary
//!   sizes (n = block−1, block, block+1), and the CDQ merge rounds of
//!   [`dominance_agg`] spend O(1) primitives per round: the per-round
//!   `RoundTrace` deltas are one constant tuple, independent of input
//!   size.

use dp_spatial_suite::seq::dominance::{dominance_agg_brute, skyline_brute};
use dp_spatial_suite::spatial::dominance::{dominance_agg, skyline, DomAgg, DomPoint, Staircase};
use dp_spatial_suite::spatial::SegId;
use proptest::prelude::*;
use scan_model::{Backend, Machine, Segments};

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16)
}

fn machines() -> Vec<(&'static str, Machine)> {
    vec![
        ("sequential", Machine::sequential()),
        (
            "parallel",
            Machine::new(Backend::Parallel).with_par_threshold(1),
        ),
    ]
}

fn pt(id: SegId, x: f64, y: f64, w: u64) -> DomPoint {
    DomPoint { id, x, y, w }
}

/// Skyline under test, in canonical (sorted ascending) id order.
fn sky_sorted(m: &Machine, pts: &[DomPoint]) -> Vec<SegId> {
    let mut s = skyline(m, pts);
    s.sort_unstable();
    s
}

/// The brute oracle over the same points.
fn sky_oracle(pts: &[DomPoint]) -> Vec<SegId> {
    let ids: Vec<SegId> = pts.iter().map(|p| p.id).collect();
    let xs: Vec<f64> = pts.iter().map(|p| p.x).collect();
    let ys: Vec<f64> = pts.iter().map(|p| p.y).collect();
    skyline_brute(&ids, &xs, &ys)
}

/// The brute oracle for every query.
fn agg_oracle(pts: &[DomPoint], queries: &[(f64, f64)]) -> Vec<DomAgg> {
    let xs: Vec<f64> = pts.iter().map(|p| p.x).collect();
    let ys: Vec<f64> = pts.iter().map(|p| p.y).collect();
    let ws: Vec<u64> = pts.iter().map(|p| p.w).collect();
    queries
        .iter()
        .map(|&(qx, qy)| {
            let (count, sum, max) = dominance_agg_brute(&xs, &ys, &ws, qx, qy);
            DomAgg { count, sum, max }
        })
        .collect()
}

fn check_both(pts: &[DomPoint], queries: &[(f64, f64)]) {
    let want_sky = sky_oracle(pts);
    let want_agg = agg_oracle(pts, queries);
    for (name, m) in machines() {
        assert_eq!(sky_sorted(&m, pts), want_sky, "skyline vs oracle on {name}");
        assert_eq!(
            dominance_agg(&m, pts, queries),
            want_agg,
            "dominance_agg vs oracle on {name}"
        );
    }
}

// ---------------------------------------------------------------------
// Differential: scripted edge shapes
// ---------------------------------------------------------------------

#[test]
fn scripted_empty_and_single() {
    check_both(&[], &[(0.0, 0.0), (5.0, -3.0)]);
    check_both(
        &[pt(9, 2.5, -1.5, 7)],
        &[(2.5, -1.5), (0.0, 0.0), (9.0, 9.0)],
    );
}

#[test]
fn scripted_collinear() {
    // Vertical line (equal x): only the top point survives.
    let vertical: Vec<DomPoint> = (0..7).map(|i| pt(i, 3.0, i as f64, i as u64)).collect();
    // Horizontal line (equal y): only the rightmost survives.
    let horizontal: Vec<DomPoint> = (0..7).map(|i| pt(i, i as f64, 3.0, 1)).collect();
    // Ascending diagonal: every point dominates its predecessors, one
    // survivor. Descending diagonal: nobody dominates anybody, all
    // survive.
    let ascending: Vec<DomPoint> = (0..7).map(|i| pt(i, i as f64, i as f64, 2)).collect();
    let descending: Vec<DomPoint> = (0..7).map(|i| pt(i, i as f64, -(i as f64), 2)).collect();
    let queries = [(3.0, 3.0), (0.0, 6.0), (-1.0, -1.0), (10.0, 10.0)];
    for pts in [&vertical, &horizontal, &ascending, &descending] {
        check_both(pts, &queries);
    }
    for (_, m) in machines() {
        assert_eq!(sky_sorted(&m, &vertical), vec![6]);
        assert_eq!(sky_sorted(&m, &horizontal), vec![6]);
        assert_eq!(sky_sorted(&m, &ascending), vec![6]);
        assert_eq!(sky_sorted(&m, &descending), (0..7).collect::<Vec<_>>());
    }
}

#[test]
fn scripted_duplicate_coordinates() {
    // Four copies of the maximal point: all survive (closed dominance is
    // never strict between coordinate twins), and a query at the point
    // counts all four.
    let pts = [
        pt(0, 5.0, 5.0, 10),
        pt(1, 5.0, 5.0, 20),
        pt(2, 5.0, 5.0, 30),
        pt(3, 5.0, 5.0, 40),
        pt(4, 1.0, 1.0, 99),
    ];
    check_both(&pts, &[(5.0, 5.0), (4.9, 5.0), (1.0, 1.0)]);
    for (_, m) in machines() {
        assert_eq!(sky_sorted(&m, &pts), vec![0, 1, 2, 3]);
        let aggs = dominance_agg(&m, &pts, &[(5.0, 5.0)]);
        assert_eq!(
            aggs[0],
            DomAgg {
                count: 5,
                sum: 199,
                max: 99
            }
        );
    }
}

#[test]
fn scripted_all_dominated() {
    // One point dominates the whole cloud: singleton skyline.
    let mut pts: Vec<DomPoint> = (0..40)
        .map(|i| pt(i, (i % 7) as f64, (i % 5) as f64, i as u64))
        .collect();
    pts.push(pt(100, 10.0, 10.0, 1));
    check_both(&pts, &[(10.0, 10.0), (6.0, 4.0), (0.0, 0.0)]);
    for (_, m) in machines() {
        assert_eq!(sky_sorted(&m, &pts), vec![100]);
    }
}

// ---------------------------------------------------------------------
// Staircase: the servable form answers like the pipelines it froze
// ---------------------------------------------------------------------

#[test]
fn staircase_matches_skyline_restricted_oracle() {
    let pts: Vec<DomPoint> = (0..60)
        .map(|i| {
            let x = ((i * 37) % 64) as f64 * 0.5;
            let y = ((i * 23) % 64) as f64 * 0.5;
            pt(i, x, y, (i as u64 % 9) + 1)
        })
        .collect();
    let want_ids = sky_oracle(&pts);
    // The staircase aggregates over skyline points only.
    let sky_pts: Vec<DomPoint> = pts
        .iter()
        .filter(|p| want_ids.contains(&p.id))
        .copied()
        .collect();
    for (name, m) in machines() {
        let st = Staircase::build(&m, &pts);
        let mut ids = st.ids().to_vec();
        ids.sort_unstable();
        assert_eq!(ids, want_ids, "staircase ids on {name}");
        for q in [
            (1.0, 30.0),
            (30.0, 1.0),
            (16.0, 16.0),
            (-1.0, -1.0),
            (40.0, 40.0),
        ] {
            let want = agg_oracle(&sky_pts, &[q])[0];
            assert_eq!(st.agg(q.0, q.1), want, "staircase agg at {q:?} on {name}");
            // covers == some skyline point closed-dominates the probe.
            let want_cover = sky_pts.iter().any(|p| p.x >= q.0 && p.y >= q.1);
            assert_eq!(st.covers(q.0, q.1), want_cover, "covers at {q:?} on {name}");
        }
    }
}

// ---------------------------------------------------------------------
// Kernel: flat-map block-boundary bit-identity and O(1)-per-round gates
// ---------------------------------------------------------------------

/// The flat-map output (layout and applied values) is bit-identical
/// between the sequential reference and the blocked parallel path at
/// n = block−1, block, block+1 for several block geometries.
#[test]
fn flat_map_bit_identical_at_block_boundaries() {
    let seq = Machine::sequential();
    for block_elems in [2usize, 16, 64] {
        let par = Machine::new(Backend::Parallel)
            .with_par_threshold(1)
            .with_block_bytes(block_elems * std::mem::size_of::<u64>());
        for n in [block_elems - 1, block_elems, block_elems + 1] {
            let seg = Segments::single(n);
            let data: Vec<u64> = (0..n as u64).map(|i| i * 7 + 3).collect();
            // Mixed fan-out widths incl. zero (deletion) and >1 (clone).
            let counts: Vec<u32> = (0..n).map(|i| ((i * 5 + 1) % 4) as u32).collect();
            let (mut out_s, mut out_p) = (Vec::new(), Vec::new());
            seq.flat_map_into(&seg, &data, &counts, |v, r| v * 10 + r as u64, &mut out_s);
            par.flat_map_into(&seg, &data, &counts, |v, r| v * 10 + r as u64, &mut out_p);
            assert_eq!(out_s, out_p, "values at n={n} block={block_elems}");
            let lay_s = seq.fanout_layout(&seg, &counts);
            let lay_p = par.fanout_layout(&seg, &counts);
            assert_eq!(lay_s, lay_p, "layout at n={n} block={block_elems}");
        }
    }
}

/// Every CDQ merge round of `dominance_agg` spends the same constant
/// primitive budget: within one run all rounds record one (scans,
/// scan_passes, elementwise, permutes) tuple, and the tuple is the same
/// at two input sizes an order of magnitude apart — O(1) primitives per
/// round, independent of n.
#[test]
fn dominance_rounds_spend_constant_primitives() {
    let sizes = [200usize, 3000];
    for (name, m) in machines() {
        let mut tuples_by_size = Vec::new();
        for &n in &sizes {
            let pts: Vec<DomPoint> = (0..n)
                .map(|i| {
                    pt(
                        i as SegId,
                        ((i * 131) % 997) as f64,
                        ((i * 577) % 991) as f64,
                        (i % 50) as u64,
                    )
                })
                .collect();
            let queries: Vec<(f64, f64)> = (0..24)
                .map(|i| (i as f64 * 40.0, 980.0 - i as f64 * 40.0))
                .collect();
            m.take_round_traces();
            let _ = dominance_agg(&m, &pts, &queries);
            let traces = m.take_round_traces();
            let lanes = n + queries.len();
            assert_eq!(
                traces.len(),
                lanes.next_power_of_two().trailing_zeros() as usize,
                "ceil(log2 lanes) rounds at n={n} on {name}"
            );
            let tuples: Vec<(u64, u64, u64, u64)> = traces
                .iter()
                .map(|t| (t.scans, t.scan_passes, t.elementwise, t.permutes))
                .collect();
            for (r, tu) in tuples.iter().enumerate() {
                assert_eq!(
                    tu, &tuples[0],
                    "round {r} at n={n} on {name} spends a different primitive budget"
                );
            }
            tuples_by_size.push(tuples[0]);
        }
        assert_eq!(
            tuples_by_size[0], tuples_by_size[1],
            "per-round primitive budget depends on input size on {name}"
        );
    }
}

// ---------------------------------------------------------------------
// Random sweeps and metamorphic properties
// ---------------------------------------------------------------------

/// Points on a quantized lattice so coordinate duplicates actually occur.
fn arb_points() -> impl Strategy<Value = Vec<DomPoint>> {
    prop::collection::vec((0u32..24, 0u32..24, 0u64..100), 0..60).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (gx, gy, w))| pt(i as SegId, gx as f64 * 0.5, gy as f64 * 0.5, w))
            .collect()
    })
}

fn arb_queries() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((-2i32..26, -2i32..26), 1..12).prop_map(|raw| {
        raw.into_iter()
            .map(|(x, y)| (x as f64 * 0.5, y as f64 * 0.5))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Differential sweep: both pipelines match the brute oracle on both
    /// backends for random lattices (duplicates included).
    #[test]
    fn prop_matches_oracle(pts in arb_points(), queries in arb_queries()) {
        check_both(&pts, &queries);
    }

    /// Permutation invariance: reordering the input changes neither the
    /// skyline id-set nor any aggregate.
    #[test]
    fn prop_permutation_invariant(pts in arb_points(), queries in arb_queries(), seed in any::<u64>()) {
        let mut shuffled = pts.clone();
        // Deterministic Fisher–Yates from the seed.
        let mut s = seed | 1;
        for i in (1..shuffled.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = ((s >> 33) as usize) % (i + 1);
            shuffled.swap(i, j);
        }
        for (name, m) in machines() {
            prop_assert_eq!(
                sky_sorted(&m, &pts),
                sky_sorted(&m, &shuffled),
                "skyline changed under permutation on {}", name
            );
            prop_assert_eq!(
                dominance_agg(&m, &pts, &queries),
                dominance_agg(&m, &shuffled, &queries),
                "aggregates changed under permutation on {}", name
            );
        }
    }

    /// Translation invariance: shifting points and queries by one vector
    /// changes nothing (dominance only compares coordinates).
    #[test]
    fn prop_translation_invariant(
        pts in arb_points(),
        queries in arb_queries(),
        dx in -50i32..50,
        dy in -50i32..50,
    ) {
        let (dx, dy) = (dx as f64 * 0.25, dy as f64 * 0.25);
        let moved: Vec<DomPoint> = pts.iter().map(|p| pt(p.id, p.x + dx, p.y + dy, p.w)).collect();
        let moved_q: Vec<(f64, f64)> = queries.iter().map(|&(x, y)| (x + dx, y + dy)).collect();
        for (name, m) in machines() {
            prop_assert_eq!(
                sky_sorted(&m, &pts),
                sky_sorted(&m, &moved),
                "skyline changed under translation on {}", name
            );
            prop_assert_eq!(
                dominance_agg(&m, &pts, &queries),
                dominance_agg(&m, &moved, &moved_q),
                "aggregates changed under translation on {}", name
            );
        }
    }

    /// Strictly monotone per-axis transforms preserve the dominance
    /// relation, hence the skyline id-set.
    #[test]
    fn prop_monotone_transform_preserves_skyline(pts in arb_points(), kx in 1u32..5, ky in 1u32..5) {
        let warped: Vec<DomPoint> = pts
            .iter()
            .map(|p| {
                // x -> kx·x + x³ and y -> exp(y/12)·ky are strictly
                // increasing on the lattice range.
                pt(
                    p.id,
                    kx as f64 * p.x + p.x * p.x * p.x,
                    (p.y / 12.0).exp() * ky as f64,
                    p.w,
                )
            })
            .collect();
        for (name, m) in machines() {
            prop_assert_eq!(
                sky_sorted(&m, &pts),
                sky_sorted(&m, &warped),
                "skyline changed under monotone transform on {}", name
            );
        }
    }

    /// Inserting a point dominated by an existing point never changes
    /// the skyline id-set.
    #[test]
    fn prop_dominated_insert_is_invisible(pts in arb_points(), pick in any::<u64>()) {
        if pts.is_empty() {
            return Ok(());
        }
        let host = pts[pick as usize % pts.len()];
        // Strictly below-left of a live point: dominated by it.
        let mut grown = pts.clone();
        grown.push(pt(10_000, host.x - 0.25, host.y - 0.25, 1));
        for (name, m) in machines() {
            prop_assert_eq!(
                sky_sorted(&m, &pts),
                sky_sorted(&m, &grown),
                "dominated insert changed the skyline on {}", name
            );
        }
    }
}
