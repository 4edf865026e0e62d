//! Differential and complexity tests for the data-parallel frontier
//! spatial join: across every workload family and on both scan-model
//! backends, `frontier_join` must produce the bit-identical sorted pair
//! set of the recursive co-traversal oracle and the all-pairs brute
//! force; its round count must stay within the paper's
//! `max(depth(a), depth(b)) + 1` bound; and every join round must issue
//! an n-independent constant number of scan-model primitives.

use dp_spatial_suite::geom::LineSeg;
use dp_spatial_suite::spatial::baseline::try_spatial_join;
use dp_spatial_suite::spatial::bucket_pmr::build_bucket_pmr;
use dp_spatial_suite::spatial::join::{brute_force_join, frontier_join, JoinOutcome};
use dp_spatial_suite::spatial::quadtree::DpQuadtree;
use dp_spatial_suite::workloads::{
    clustered_segments, paper_dataset, paper_world, polygon_rings, road_network, uniform_segments,
    Dataset,
};
use proptest::prelude::*;
use scan_model::{Backend, Machine, RoundTrace};

/// Both backends; the parallel machine forces `par_threshold = 1` so the
/// rayon code paths run even on the small differential datasets.
fn machines() -> Vec<Machine> {
    vec![
        Machine::sequential(),
        Machine::new(Backend::Parallel).with_par_threshold(1),
    ]
}

/// Base/overlay layer pairs covering every workload family plus the
/// degenerate shapes the acceptance criterion names: empty trees on
/// either side and single-leaf (root-only) trees.
fn layer_pairs() -> Vec<(Dataset, Vec<LineSeg>)> {
    let overlay64 = |seed: u64| uniform_segments(180, 64, 8, seed).segs;
    let mut cases = vec![
        (uniform_segments(250, 64, 8, 201), overlay64(301)),
        (clustered_segments(220, 8, 10, 64, 202), overlay64(302)),
        (road_network(8, 64, 203), overlay64(303)),
        (polygon_rings(6, 64, 204), overlay64(304)),
        (
            Dataset {
                name: "paper 9-segment example".to_string(),
                world: paper_world(),
                segs: paper_dataset(),
            },
            uniform_segments(24, 8, 2, 305).segs,
        ),
    ];
    // Self-join: both layers are the same collection.
    let uni = uniform_segments(160, 64, 8, 205);
    let self_segs = uni.segs.clone();
    cases.push((uni, self_segs));
    // Empty overlay and empty base.
    cases.push((uniform_segments(100, 64, 8, 206), Vec::new()));
    cases.push((
        Dataset {
            name: "empty base".to_string(),
            world: uniform_segments(1, 64, 8, 207).world,
            segs: Vec::new(),
        },
        overlay64(306),
    ));
    cases
}

fn check_pair(data: &Dataset, overlay: &[LineSeg], m: &Machine, capacity: usize, depth: usize) {
    let ta = build_bucket_pmr(m, data.world, &data.segs, capacity, depth);
    let tb = build_bucket_pmr(m, data.world, overlay, capacity, depth);
    let recursive = try_spatial_join(&ta, &data.segs, &tb, overlay).expect("same world");
    let brute = brute_force_join(&data.segs, overlay);
    assert_eq!(recursive, brute, "[{}] recursive vs brute force", data.name);

    let out = frontier_join(m, &ta, &data.segs, &tb, overlay).expect("same world");
    assert_eq!(out.pairs, brute, "[{}] frontier vs brute force", data.name);
    let bound = ta.stats().height.max(tb.stats().height) + 1;
    assert!(
        out.rounds <= bound,
        "[{}] {} rounds exceeds depth bound {bound}",
        data.name,
        out.rounds
    );
    if data.segs.is_empty() || overlay.is_empty() {
        assert_eq!(
            out.pairs_tested, 0,
            "[{}] empty side tested pairs",
            data.name
        );
    }
}

#[test]
fn every_family_frontier_matches_recursive_and_brute_force() {
    for (data, overlay) in layer_pairs() {
        for m in machines() {
            check_pair(&data, &overlay, &m, 8, 12);
        }
    }
}

/// Single-leaf trees: a capacity large enough that both roots stay
/// leaves, so the frontier retires in the very first round.
#[test]
fn single_leaf_trees_join_in_one_round() {
    let data = uniform_segments(40, 64, 8, 210);
    let overlay = uniform_segments(30, 64, 8, 211).segs;
    for m in machines() {
        let ta = build_bucket_pmr(&m, data.world, &data.segs, 1024, 12);
        let tb = build_bucket_pmr(&m, data.world, &overlay, 1024, 12);
        assert_eq!(ta.stats().height, 0, "base root must stay a leaf");
        assert_eq!(tb.stats().height, 0, "overlay root must stay a leaf");
        let out = frontier_join(&m, &ta, &data.segs, &tb, &overlay).expect("same world");
        assert_eq!(out.pairs, brute_force_join(&data.segs, &overlay));
        assert!(out.rounds <= 1, "leaf×leaf took {} rounds", out.rounds);
        check_pair(&data, &overlay, &m, 1024, 12);
    }
}

/// Runs one traced frontier join on a quiet dedicated machine (nothing
/// else touches its counters) and returns the outcome plus the join's
/// own round table.
fn traced_join(n: usize, m: &Machine) -> (JoinOutcome, Vec<RoundTrace>, DpQuadtree, DpQuadtree) {
    let base = uniform_segments(n, 256, 8, 220);
    let overlay = uniform_segments(n, 256, 8, 221).segs;
    let ta = build_bucket_pmr(m, base.world, &base.segs, 8, 12);
    let tb = build_bucket_pmr(m, base.world, &overlay, 8, 12);
    m.take_round_traces(); // drop the two build traces
    m.reset_stats();
    let out = frontier_join(m, &ta, &base.segs, &tb, &overlay).expect("same world");
    let trace = m.take_round_traces();
    (out, trace, ta, tb)
}

/// Primitives of one expanding join round.
const SPLIT_ROUND: (u64, u64, u64, u64) = (4, 4, 17, 7);

/// The paper's complexity claim, checked through op-counter deltas: each
/// join round costs a constant number of scan-model primitives —
/// independent of both the frontier width and the collection size — and
/// the number of rounds is bounded by the deeper tree's depth.
#[test]
fn join_rounds_cost_constant_primitives() {
    for m in machines() {
        // The distinct per-round primitive profiles of the *splitting*
        // rounds, at two collection sizes an order of magnitude apart.
        let mut profiles: Vec<Vec<(u64, u64, u64, u64)>> = Vec::new();
        for n in [300usize, 3_000] {
            let (out, trace, ta, tb) = traced_join(n, &m);
            let bound = ta.stats().height.max(tb.stats().height) + 1;
            assert!(out.rounds <= bound, "{} rounds > bound {bound}", out.rounds);
            assert!(
                out.rounds >= 3,
                "need a multi-round join, got {}",
                out.rounds
            );
            let split_rounds: Vec<(u64, u64, u64, u64)> = trace
                .iter()
                .filter(|t| t.nodes_split > 0)
                .map(|t| (t.scans, t.scan_passes, t.elementwise, t.permutes))
                .collect();
            assert_eq!(
                split_rounds.len(),
                out.rounds,
                "one completed trace row per join round"
            );
            for (i, &(scans, passes, ew, permutes)) in split_rounds.iter().enumerate() {
                assert!(scans <= 16, "round {i}: {scans} scans");
                assert!(passes <= 16, "round {i}: {passes} scan passes");
                assert!(ew <= 32, "round {i}: {ew} elementwise ops");
                assert!(permutes <= 16, "round {i}: {permutes} permutes");
            }
            // Constant across rounds: a round is either pure expansion
            // (every test block still ambiguous, so emission short-
            // circuits) or expansion plus emission, and each flavor
            // issues the exact same primitive mix however wide the
            // frontier got. Two distinct profiles, nothing in between.
            let mut distinct = split_rounds.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert!(
                distinct.len() <= 2,
                "per-round primitive profile drifted: {distinct:?}"
            );
            profiles.push(distinct);
        }
        // Constant across sizes: 10× the data, same per-round costs.
        assert_eq!(
            profiles[0], profiles[1],
            "per-round primitive profiles depend on n"
        );
        // And the constant itself, `(scans, scan passes, elementwise,
        // permutes)`: an expanding round lays its frontier out three
        // times — retired-and-fanned-out in one layout, dead children,
        // the ready/ambiguous unshuffle. With "delete retired" and "×4
        // fan-out" as two layouts (commit a0be818) the row read
        // (5, 5, 18, 9).
        assert_eq!(
            profiles[0],
            vec![SPLIT_ROUND],
            "a split round's primitive mix"
        );
    }
}

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48)
}

/// Fisher–Yates over `0..n` driven by a splitmix64 stream, so proptest
/// only has to supply the seed.
fn permutation(n: usize, mut seed: u64) -> Vec<usize> {
    let mut next = move || {
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, next() as usize % (i + 1));
    }
    perm
}

/// Two random layers over one world, plus a random permutation of the
/// base layer's segment IDs.
fn layer_strategy() -> impl Strategy<Value = (Vec<LineSeg>, Vec<LineSeg>, Vec<usize>)> {
    (4usize..48, 2usize..40, 0u64..1 << 16, 0u64..1 << 16).prop_map(|(na, nb, sa, sb)| {
        let a = uniform_segments(na, 64, 8, sa).segs;
        let b = uniform_segments(nb, 64, 8, sb).segs;
        (a, b, permutation(na, sa ^ (sb << 17)))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// join(a, b) is the transpose of join(b, a), on both backends.
    #[test]
    fn join_is_symmetric_under_transpose((a, b, _) in layer_strategy()) {
        let world = uniform_segments(1, 64, 8, 0).world;
        for m in machines() {
            let ta = build_bucket_pmr(&m, world, &a, 4, 8);
            let tb = build_bucket_pmr(&m, world, &b, 4, 8);
            let ab = frontier_join(&m, &ta, &a, &tb, &b).expect("same world");
            let ba = frontier_join(&m, &tb, &b, &ta, &a).expect("same world");
            let mut transposed: Vec<(u32, u32)> =
                ba.pairs.iter().map(|&(x, y)| (y, x)).collect();
            transposed.sort_unstable();
            prop_assert_eq!(&ab.pairs, &transposed);
            prop_assert_eq!(ab.pairs_tested, ba.pairs_tested);
        }
    }

    /// Relabeling the base layer's segment IDs permutes the reported
    /// pairs and nothing else: the joined *geometry* is invariant.
    #[test]
    fn join_is_invariant_under_segment_permutation((a, b, perm) in layer_strategy()) {
        let world = uniform_segments(1, 64, 8, 0).world;
        let permuted: Vec<LineSeg> = perm.iter().map(|&i| a[i]).collect();
        for m in machines() {
            let ta = build_bucket_pmr(&m, world, &a, 4, 8);
            let tp = build_bucket_pmr(&m, world, &permuted, 4, 8);
            let tb = build_bucket_pmr(&m, world, &b, 4, 8);
            let original = frontier_join(&m, &ta, &a, &tb, &b).expect("same world");
            let relabeled = frontier_join(&m, &tp, &permuted, &tb, &b).expect("same world");
            // Map the relabeled pairs back through the permutation.
            let mut mapped: Vec<(u32, u32)> = relabeled
                .pairs
                .iter()
                .map(|&(i, y)| (perm[i as usize] as u32, y))
                .collect();
            mapped.sort_unstable();
            prop_assert_eq!(&original.pairs, &mapped);
        }
    }
}
