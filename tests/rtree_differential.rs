//! Differential tests for the R-tree build's carried round state.
//!
//! The build keeps two things from one driver step to the next instead of
//! recomputing them from the lanes: every node's MBR, and (sweep selector)
//! the leaf level's two sorted axis orders. The oracles here are the
//! recomputations the build no longer performs:
//!
//! * after **every** driver step, on both backends and both selectors, the
//!   carried node MBRs equal a bottom-up refold of the lane boxes and the
//!   carried axis orders equal a fresh `segmented_sort_perm` of the current
//!   lanes — scripted inputs for the edge cases (coordinate twins, identical
//!   boxes, `n` around `M`) and a proptest honouring `PROPTEST_CASES`;
//! * the finished tree is bit-identical to the one the previous
//!   implementation built: CRC-32 digests of `encode_rtree_snapshot` recorded
//!   from the parent commit for a fixed input set;
//! * the primitive profile: two leaf-level sorts per sweep build, the same
//!   operation counts in every leaf round and at two sizes, and totals on
//!   the benchmark's own input below the parent's.

use dp_spatial_suite::geom::{LineSeg, Rect};
use dp_spatial_suite::spatial::rsplit::RtreeSplitAlgorithm;
use dp_spatial_suite::spatial::rtree::{build_rtree, build_rtree_audited, RtreeBuildAudit};
use dp_spatial_suite::spatial::snapshot::{crc32, encode_rtree_snapshot};
use dp_spatial_suite::workloads::{clustered_segments, uniform_segments};
use proptest::prelude::*;
use scan_model::{Backend, Machine, RoundTrace, Segments};

const ORDERS: [(usize, usize); 4] = [(1, 3), (2, 5), (2, 6), (4, 8)];
const ALGOS: [RtreeSplitAlgorithm; 2] = [RtreeSplitAlgorithm::Mean, RtreeSplitAlgorithm::Sweep];

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
        // Tiny blocks: every scan crosses many block boundaries.
        (
            "parallel/256B",
            Machine::new(Backend::Parallel)
                .with_par_threshold(1)
                .with_block_bytes(256),
        ),
    ]
}

/// Every segment has a twin sharing its lower-left corner and many share
/// one coordinate: the sorts' (key, lane) tie-break decides most orders.
fn twin_lattice(n: usize) -> Vec<LineSeg> {
    (0..n)
        .map(|k| {
            let x = ((k / 2) % 7) as f64 * 4.0;
            let y = ((k / 2) / 7 % 5) as f64 * 4.0;
            let (w, h) = if k % 2 == 0 { (3.0, 1.0) } else { (1.0, 3.0) };
            LineSeg::from_coords(x, y, x + w, y + h)
        })
        .collect()
}

fn identical(n: usize) -> Vec<LineSeg> {
    vec![LineSeg::from_coords(5.0, 7.0, 9.0, 8.0); n]
}

/// The scripted inputs: name and segments.
fn scripted() -> Vec<(String, Vec<LineSeg>)> {
    let mut sets = vec![
        (
            "uniform".to_string(),
            uniform_segments(300, 256, 24, 11).segs,
        ),
        (
            "clustered".to_string(),
            clustered_segments(300, 5, 12, 256, 12).segs,
        ),
        ("twin-lattice".to_string(), twin_lattice(211)),
        ("identical".to_string(), identical(97)),
    ];
    // n ∈ {0, 1, M, M + 1} for every M in ORDERS.
    for n in [0usize, 1, 3, 4, 5, 6, 7, 8, 9] {
        sets.push((format!("lattice-n{n}"), twin_lattice(n)));
    }
    sets
}

/// Bottom-up refold of the lane boxes: what `node_mbrs` must equal.
fn refold(lane_bbox: &[Rect], groups: &[Segments]) -> Vec<Vec<Rect>> {
    let mut levels: Vec<Vec<Rect>> = Vec::new();
    for seg in groups {
        let items = levels.last().map_or(lane_bbox, |below| &below[..]);
        let nodes = seg
            .ranges()
            .map(|r| items[r].iter().fold(Rect::empty(), |acc, b| acc.union(b)))
            .collect();
        levels.push(nodes);
    }
    levels
}

/// Checks one step's carried state against recomputation from the lanes.
fn check_carried(audit: &RtreeBuildAudit<'_>, context: &str) {
    assert_eq!(audit.groups[0].len(), audit.lane_bbox.len(), "{context}");
    assert_eq!(
        audit.node_mbrs,
        &refold(audit.lane_bbox, audit.groups)[..],
        "{context}: carried node MBRs differ from a refold of the lanes"
    );
    if let Some(orders) = audit.leaf_orders {
        let oracle = Machine::sequential();
        let keys: [Vec<f64>; 2] = [
            audit.lane_bbox.iter().map(|b| b.min.x).collect(),
            audit.lane_bbox.iter().map(|b| b.min.y).collect(),
        ];
        for (axis, keys) in keys.iter().enumerate() {
            let fresh = oracle.segmented_sort_perm(&audit.groups[0], keys, |a, b| a.total_cmp(b));
            assert_eq!(
                orders[axis], fresh,
                "{context}: carried axis-{axis} order differs from a fresh sort"
            );
        }
    }
}

/// Builds with every step audited, checks the finished tree, and returns
/// the number of driver steps.
fn audited_build(
    machine: &Machine,
    segs: &[LineSeg],
    (m, max): (usize, usize),
    algo: RtreeSplitAlgorithm,
    context: &str,
) -> usize {
    let mut steps = 0;
    let mut saw_orders = false;
    let tree = build_rtree_audited(machine, segs, m, max, algo, &mut |audit| {
        check_carried(&audit, &format!("{context} step {steps}"));
        saw_orders |= audit.leaf_orders.is_some();
        steps += 1;
    });
    tree.check_invariants(segs);
    // The orders exist exactly when a sweep build split a leaf.
    let expect_orders = algo == RtreeSplitAlgorithm::Sweep && segs.len() > max;
    assert_eq!(saw_orders, expect_orders, "{context}");
    // The hook is the same build.
    assert_eq!(tree, build_rtree(machine, segs, m, max, algo), "{context}");
    steps
}

#[test]
fn carried_state_matches_recomputation_after_every_step() {
    for (name, segs) in scripted() {
        for order in ORDERS {
            for algo in ALGOS {
                for (backend, machine) in machines() {
                    let context = format!("{name} {order:?} {algo:?} {backend}");
                    let steps = audited_build(&machine, &segs, order, algo, &context);
                    assert!(steps >= 1 || segs.is_empty(), "{context}");
                }
            }
        }
    }
}

/// CRC-32 of the tree's `encode_rtree_snapshot` bytes up to, not
/// including, the stream's last four: those are the R-tree section's own
/// CRC-32, and a CRC-32 over a message that ends in its own CRC-32 no
/// longer depends on the message.
fn digest(
    machine: &Machine,
    segs: &[LineSeg],
    (m, max): (usize, usize),
    algo: RtreeSplitAlgorithm,
) -> u32 {
    let tree = build_rtree(machine, segs, m, max, algo);
    let bytes = encode_rtree_snapshot(segs, &tree, None);
    crc32(&bytes[..bytes.len() - 4])
}

/// The digest inputs: larger than the scripted sets so every tree has
/// several levels and the cascade moves blocks.
fn digest_inputs() -> Vec<(&'static str, Vec<LineSeg>)> {
    vec![
        ("uniform", uniform_segments(2000, 1024, 32, 21).segs),
        ("clustered", clustered_segments(2000, 7, 20, 1024, 22).segs),
        ("twin-lattice", twin_lattice(1500)),
        ("identical", identical(300)),
    ]
}

/// [`digest`] as `[input][order][selector]`, in the order of
/// `digest_inputs`, `ORDERS` and `ALGOS`, recorded from the parent commit
/// (156e5b6), where the same three machines agreed.
const PARENT_DIGESTS: [[[u32; 2]; 4]; 4] = [
    // uniform
    [
        [0x3d9888e3, 0x3b8fb12e],
        [0x43ec03f3, 0x701e5ebb],
        [0xe91dd09a, 0x4157f114],
        [0x6db66c3a, 0xaef28451],
    ],
    // clustered
    [
        [0xe06599ee, 0xc9845606],
        [0x10220bce, 0x57df248d],
        [0xc7cea855, 0x4da56d3e],
        [0xc091764f, 0x42040567],
    ],
    // twin-lattice
    [
        [0x3d5672f4, 0x60347619],
        [0x624a6a37, 0xbc874e08],
        [0x1e5debcd, 0xf70c6f4e],
        [0xa6b8e93a, 0xe7e1361e],
    ],
    // identical
    [
        [0x0cdedfdd, 0xe61f5ac8],
        [0x4e88d7bf, 0x291e3f20],
        [0xec2f94dd, 0x08a2a02f],
        [0xb9e3a532, 0xf24f4cc3],
    ],
];

#[test]
fn snapshots_are_bit_identical_to_the_parent_commit() {
    for (d, (name, segs)) in digest_inputs().into_iter().enumerate() {
        for (o, order) in ORDERS.into_iter().enumerate() {
            for (a, algo) in ALGOS.into_iter().enumerate() {
                for (backend, machine) in machines() {
                    assert_eq!(
                        digest(&machine, &segs, order, algo),
                        PARENT_DIGESTS[d][o][a],
                        "{name} {order:?} {algo:?} {backend}: snapshot bytes changed"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Random segments on a coarse grid (so keys tie often), a random
    /// order, selector and backend: the carried state holds after every
    /// step.
    #[test]
    fn carried_state_holds_on_random_inputs(
        raw in prop::collection::vec((0..24i32, 0..24i32, 0..6i32, 0..6i32), 0..120),
        order in 0usize..4,
        algo in 0usize..2,
        backend in 0usize..3,
    ) {
        let segs: Vec<LineSeg> = raw
            .into_iter()
            .map(|(x, y, w, h)| {
                let (x, y) = (f64::from(x), f64::from(y));
                LineSeg::from_coords(x, y, x + f64::from(w), y + f64::from(h))
            })
            .collect();
        let (name, machine) = machines().swap_remove(backend);
        let context = format!("random n={} {:?} {:?} {name}", segs.len(), ORDERS[order], ALGOS[algo]);
        audited_build(&machine, &segs, ORDERS[order], ALGOS[algo], &context);
    }
}

// ----------------------------------------------------------------------
// Primitive profile
// ----------------------------------------------------------------------

/// One sweep build on a fresh parallel machine: the per-step traces and
/// the total sort count.
fn traced_sweep_build(segs: &[LineSeg], (m, max): (usize, usize)) -> (Vec<RoundTrace>, u64) {
    let machine = Machine::parallel();
    build_rtree(&machine, segs, m, max, RtreeSplitAlgorithm::Sweep);
    (machine.take_round_traces(), machine.stats().sorts)
}

/// The operation counts of a step, as a trace records them.
fn profile(t: &RoundTrace) -> [u64; 4] {
    [t.scans, t.scan_passes, t.elementwise, t.permutes]
}

#[test]
fn sweep_build_sorts_the_leaf_level_once() {
    let mut leaf_profiles = Vec::new();
    for n in [3_000usize, 12_000] {
        let segs = uniform_segments(n, 2048, 32, 31).segs;
        let (traces, sorts) = traced_sweep_build(&segs, (4, 8));
        let splitting = |t: &&RoundTrace| t.nodes_split > 0;
        let leaf: Vec<&RoundTrace> = traces
            .iter()
            .filter(|t| t.active_elements == n)
            .filter(splitting)
            .collect();
        let upper = traces
            .iter()
            .filter(|t| t.active_elements != n)
            .filter(splitting)
            .count() as u64;
        assert!(leaf.len() >= 8 && upper >= 8, "n={n}: a multi-level build");
        // Two sorts for the whole leaf level, two per upper-level split.
        assert_eq!(sorts, 2 + 2 * upper, "n={n}");
        // Every leaf round issues the same primitives, the sorting first
        // round included (a sort is not one of the traced classes).
        for t in &leaf {
            assert_eq!(profile(t), profile(leaf[0]), "n={n} step {}", t.round);
        }
        leaf_profiles.push(profile(leaf[0]));
    }
    // ...and the same at both sizes: the leaf round is O(1) primitives.
    assert_eq!(leaf_profiles[0], leaf_profiles[1]);
}

/// `dpbench`'s `sub_seed`: the benchmark's R-tree input is its stream 2.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// On the benchmark's own input (`bulk_build`, default seed) the build's
/// exact counters stay below what the parent commit recorded in
/// `dpbench/results/reference_box_seed1995.json`.
#[test]
fn benchmark_input_counters_are_below_the_parent() {
    let segs = uniform_segments(100_000, 4096, 64, sub_seed(1995, 2)).segs;
    let machine = Machine::parallel();
    let tree = build_rtree(&machine, &segs, 4, 8, RtreeSplitAlgorithm::Sweep);
    let ops = machine.stats();
    assert_eq!(tree.rounds(), 16, "same tree as the parent's");
    assert!(ops.scan_passes < 1116, "scan_passes {}", ops.scan_passes);
    assert!(
        ops.total_primitives() < 3228,
        "prims {}",
        ops.total_primitives()
    );
    assert!(ops.bytes_moved < 927_502_256, "bytes {}", ops.bytes_moved);
}
