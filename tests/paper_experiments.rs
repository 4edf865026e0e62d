//! Figure-level reproduction tests: one test per structural claim the
//! paper makes about its running examples (experiments E08–E18 of
//! `DESIGN.md`). The dataset is the reconstruction in
//! `dp_workloads::paper` — the paper prints no coordinates, so these
//! tests pin the *described events*, not pixel-identical trees.

use dp_spatial_suite::geom::{Point, Rect};
use dp_spatial_suite::seq;
use dp_spatial_suite::spatial::baseline::spatial_join;
use dp_spatial_suite::spatial::bucket_pmr::build_bucket_pmr;
use dp_spatial_suite::spatial::join::brute_force_join;
use dp_spatial_suite::spatial::pm1::build_pm1;
use dp_spatial_suite::spatial::rsplit::RtreeSplitAlgorithm;
use dp_spatial_suite::spatial::rtree::build_rtree;
use dp_spatial_suite::workloads::{paper_dataset, paper_world, pathological_close_vertices};
use scan_model::Machine;

/// E11 / Fig. 1: the PM₁ quadtree of the paper dataset — every leaf obeys
/// the vertex rule; the shared c/d/i vertex block holds exactly those
/// three lines.
#[test]
fn fig01_pm1_paper_dataset() {
    let machine = Machine::parallel();
    let segs = paper_dataset();
    let t = build_pm1(&machine, paper_world(), &segs, 8);
    assert_eq!(t.truncated(), 0);
    t.for_each_leaf(|rect, _, ids| {
        assert!(seq::pm1::pm1_block_valid(ids, &segs, rect));
    });
    // The block containing the shared vertex holds exactly c, d, i
    // (region "A" of the paper's Fig. 1 discussion).
    let at_shared = t.point_query(Point::new(1.0, 6.0));
    assert_eq!(at_shared, vec![2, 3, 8]);
}

/// E12 / Fig. 2: inserting a segment whose vertex is close to an existing
/// vertex forces a cascade of subdivisions creating many empty nodes.
#[test]
fn fig02_pm1_pathology() {
    let machine = Machine::parallel();
    // A large world exaggerates the effect, as in the figure.
    let data = pathological_close_vertices(64);
    let single = vec![data.segs[0]];
    let t1 = build_pm1(&machine, data.world, &single, 12);
    let t2 = build_pm1(&machine, data.world, &data.segs, 12);
    let (s1, s2) = (t1.stats(), t2.stats());
    // Separating vertices at distance 1 in a 64-wide world requires depth
    // 6; the pair tree is much deeper and has many more (mostly empty)
    // nodes.
    assert!(s2.height >= 6, "height {}", s2.height);
    assert!(s2.nodes > s1.nodes + 8);
    assert!(s2.empty_leaves > s1.empty_leaves);
    assert_eq!(t2.truncated(), 0);
}

/// E13 / Figs. 3, 34: the classic PMR quadtree's shape depends on
/// insertion order; the bucket PMR quadtree's does not.
#[test]
fn fig34_pmr_order_dependence_vs_bucket_independence() {
    let world = paper_world();
    let segs = vec![
        dp_spatial_suite::geom::LineSeg::from_coords(1.0, 1.0, 2.0, 2.0),
        dp_spatial_suite::geom::LineSeg::from_coords(1.0, 2.0, 2.0, 3.0),
        dp_spatial_suite::geom::LineSeg::from_coords(5.0, 5.0, 6.0, 6.0),
        dp_spatial_suite::geom::LineSeg::from_coords(1.0, 3.0, 2.0, 1.0),
    ];
    // Classic PMR: two insertion orders, two shapes.
    let t1 = seq::pmr::PmrTree::build(world, &segs, 2, 6);
    let mut t2 = seq::pmr::PmrTree::new(world, 2, 6);
    for &id in &[0u32, 1, 3, 2] {
        t2.insert(id, &segs);
    }
    assert_ne!(t1.shape_signature(), t2.shape_signature());

    // Bucket PMR: any order, one shape.
    let b1 = seq::bucket_pmr::BucketPmrTree::build(world, &segs, 2, 6);
    let mut b2 = seq::bucket_pmr::BucketPmrTree::new(world, 2, 6);
    for &id in &[3u32, 2, 1, 0] {
        b2.insert(id, &segs);
    }
    assert_eq!(b1.shape_signature(), b2.shape_signature());
}

/// E14 / Fig. 4: the bucket PMR quadtree (capacity 2, maximal height 3)
/// subdivides the shared-vertex region to the maximal depth and leaves it
/// over capacity.
#[test]
fn fig04_bucket_pmr_paper_dataset() {
    let machine = Machine::parallel();
    let segs = paper_dataset();
    let t = build_bucket_pmr(&machine, paper_world(), &segs, 2, 3);
    assert_eq!(t.stats().height, 3, "subdivides to the maximal height");
    assert!(
        t.truncated() >= 1,
        "an over-capacity bucket survives at max depth"
    );
    // The surviving over-capacity bucket is the shared-vertex block.
    let over = t.point_query(Point::new(1.0, 6.0));
    assert!(
        over.len() > 2,
        "shared vertex block holds c, d, i: {over:?}"
    );
    // Everything is retrievable.
    assert_eq!(
        t.window_query(&paper_world(), &segs),
        (0..9).collect::<Vec<u32>>()
    );
}

/// E15 / Fig. 5: an order (2,3) R-tree over the paper's nine segments —
/// every segment in exactly one leaf, fanout within bounds, all leaves at
/// one level.
#[test]
fn fig05_rtree_paper_dataset() {
    let segs = paper_dataset();
    let t = seq::rtree::RTree::build(&segs, 2, 3, seq::rtree::SplitAlgorithm::Quadratic);
    t.check_invariants(&segs, segs.len());
    assert!(t.height() >= 1);
    // R-tree is non-disjoint: a window query may visit several nodes yet
    // each segment is stored once.
    assert_eq!(t.stats().entries, 9);
}

/// E15 / Fig. 6: the coverage-minimizing and overlap-minimizing split
/// goals diverge; on a road-map workload the overlap-directed R*-style
/// split produces substantially less sibling overlap than Guttman's
/// area-directed quadratic split.
#[test]
fn fig06_split_goals() {
    let data = dp_spatial_suite::workloads::road_network(20, 512, 3);
    let quad = seq::rtree::RTree::build(&data.segs, 2, 6, seq::rtree::SplitAlgorithm::Quadratic);
    let rstar = seq::rtree::RTree::build(&data.segs, 2, 6, seq::rtree::SplitAlgorithm::RStarAxis);
    let (_, ov_quad) = quad.quality_metrics();
    let (_, ov_rstar) = rstar.quality_metrics();
    assert!(
        ov_rstar < ov_quad,
        "R*-axis overlap {ov_rstar} should beat quadratic {ov_quad}"
    );
}

/// E16 / Figs. 30–33: the data-parallel PM₁ build proceeds in iterative
/// subdivision rounds; the first round splits the root and clones the
/// axis-crossing lines a, b and i.
#[test]
fn fig30_33_pm1_rounds() {
    let machine = Machine::parallel();
    let segs = paper_dataset();
    let t = build_pm1(&machine, paper_world(), &segs, 8);
    // Multiple rounds (the paper's example needs 3 at its coordinates;
    // the reconstruction needs at least that).
    assert!(t.rounds() >= 3, "rounds {}", t.rounds());
    assert!(t.rounds() <= 8);
    // After round 1 the four quadrants exist: the root must be internal
    // and lines a (0), b (1), i (8) appear in more than one quadrant
    // subtree (they were cloned).
    let quads = paper_world().quadrants();
    for &cloned in &[0u32, 1, 8] {
        let mut appearances = 0;
        for q in &quads {
            if !t.window_candidates(q).iter().all(|&id| id != cloned) {
                appearances += 1;
            }
        }
        assert!(appearances >= 2, "line {cloned} must span quadrants");
    }
}

/// E17 / Figs. 35–38: the bucket PMR build runs three subdivision rounds
/// on the example dataset (capacity 2, maximal height 3) and terminates
/// with an over-capacity node at maximal resolution.
#[test]
fn fig35_38_bpmr_rounds() {
    let machine = Machine::parallel();
    let segs = paper_dataset();
    let t = build_bucket_pmr(&machine, paper_world(), &segs, 2, 3);
    assert_eq!(t.rounds(), 3, "Figs. 35-38 show exactly three rounds");
    assert!(t.truncated() >= 1, "Fig. 38's node 9 remains over capacity");
}

/// E18 / Figs. 39–44: the data-parallel R-tree build on nine lines with
/// order (1,3): root split, upward propagation, termination with every
/// node holding at most M children.
#[test]
fn fig39_44_rtree_build() {
    let machine = Machine::parallel();
    let segs = paper_dataset();
    for algo in [RtreeSplitAlgorithm::Mean, RtreeSplitAlgorithm::Sweep] {
        let t = build_rtree(&machine, &segs, 1, 3, algo);
        t.check_invariants(&segs);
        // Nine entries with M = 3 need at least ceil(9/3) = 3 leaves and
        // at least two levels; the paper's run ends at three levels
        // (N0, N1, N2).
        assert!(t.stats().leaves >= 3, "{algo:?}");
        assert!(t.height() >= 1, "{algo:?}");
        assert_eq!(t.stats().entries, 9, "{algo:?}");
        // Termination means no node exceeds M = 3 — check_invariants
        // asserted it; also the build took multiple rounds (root split
        // plus propagation).
        assert!(t.rounds() >= 2, "{algo:?}: rounds {}", t.rounds());
    }
}

/// The spatial join built from the paper's primitives agrees with the
/// brute-force overlay on the paper dataset joined with itself.
#[test]
fn paper_dataset_self_join() {
    let machine = Machine::parallel();
    let segs = paper_dataset();
    let t = build_bucket_pmr(&machine, paper_world(), &segs, 2, 4);
    let got = spatial_join(&t, &segs, &t, &segs);
    let want = brute_force_join(&segs, &segs);
    assert_eq!(got, want);
    // c, d and i share a vertex, so all three pairwise pairs intersect.
    for pair in [(2u32, 3u32), (2, 8), (3, 8)] {
        assert!(got.contains(&pair), "missing {pair:?}");
    }
}

/// Window queries over each quadrant of the paper world return exactly
/// the lines the reconstruction places there (cross-checked against
/// brute force).
#[test]
fn paper_dataset_quadrant_queries() {
    let machine = Machine::parallel();
    let segs = paper_dataset();
    let pm1 = build_pm1(&machine, paper_world(), &segs, 8);
    for q in paper_world().quadrants() {
        let got = pm1.window_query(&q, &segs);
        let want: Vec<u32> = (0..segs.len() as u32)
            .filter(|&id| {
                dp_spatial_suite::geom::clip_segment_closed(&segs[id as usize], &q).is_some()
            })
            .collect();
        assert_eq!(got, want, "quadrant {q}");
    }
}

/// The world rectangle itself: a degenerate "window" that must return
/// every line from every structure.
#[test]
fn full_window_returns_everything() {
    let machine = Machine::parallel();
    let segs = paper_dataset();
    let all: Vec<u32> = (0..9).collect();
    let w = paper_world();
    assert_eq!(
        build_pm1(&machine, w, &segs, 8).window_query(&w, &segs),
        all
    );
    assert_eq!(
        build_bucket_pmr(&machine, w, &segs, 2, 6).window_query(&w, &segs),
        all
    );
    assert_eq!(
        build_rtree(&machine, &segs, 1, 3, RtreeSplitAlgorithm::Sweep).window_query(&w, &segs),
        all
    );
}

/// Rect sanity for the E14 truncation claim: a bigger capacity removes
/// the truncation entirely.
#[test]
fn fig04_truncation_disappears_with_capacity_three() {
    let machine = Machine::parallel();
    let segs = paper_dataset();
    let t = build_bucket_pmr(&machine, paper_world(), &segs, 3, 3);
    assert_eq!(t.truncated(), 0, "capacity 3 fits the shared vertex");
    let _ = Rect::from_coords(0.0, 0.0, 1.0, 1.0);
}
