//! Interleaving-equivalence differential for the batch update engine:
//! *any* interleaving of insert/delete batches applied to a live tree
//! must leave it structurally identical to one bulk build over the final
//! segment collection — per tree family (bucket PMR, PM₁, PM₂, PM₃), on
//! both scan-model backends, and across the whole query surface (window
//! and point probes, and the spatial join against a fixed overlay).
//!
//! This is the executable form of the engine's correctness argument:
//! every split decision is a pure function of a block's line set, so the
//! tree is a function of the collection alone — history cannot leak into
//! structure. The scripted schedules pin the edge cases (empty batches,
//! delete-everything, insert-and-delete in one batch, duplicate
//! geometry, deletes from leaves the depth bound cut off, a delete and
//! an identical insert in one batch, segments on block edges, a batch
//! that empties a quadrant); the proptest sweeps random batch schedules,
//! honouring `PROPTEST_CASES`.
//!
//! Two more properties ride in this binary: an update killed at any of
//! its fault sites leaves the tree and its collection exactly as they
//! were, and one serve-shaped update's memory account (this binary
//! installs the counting allocator of `tests/support`).

use dp_spatial_suite::geom::{seg_in_block, LineSeg, Rect};
use dp_spatial_suite::spatial::batch::batch_window_query;
use dp_spatial_suite::spatial::bucket_pmr::build_bucket_pmr;
use dp_spatial_suite::spatial::join::frontier_join;
use dp_spatial_suite::spatial::lineproc::LineProcSet;
use dp_spatial_suite::spatial::pm1::{build_pm1, pm1_decision};
use dp_spatial_suite::spatial::pm_family::{build_pm2, build_pm3, pm2_decision, pm3_decision};
use dp_spatial_suite::spatial::quadtree::DpQuadtree;
use dp_spatial_suite::spatial::update::{
    batch_update, batch_update_bucket_pmr, UpdateBatch, UpdateOutcome,
};
use dp_spatial_suite::spatial::SegId;
use dp_spatial_suite::workloads::uniform_segments;
use proptest::prelude::*;
use scan_model::{Backend, FaultPlan, FaultSite, InjectedFault, Machine, WorkerFaultGuard};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

mod support;
use support::{calls_by, requested_by};

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16)
}

const WORLD: f64 = 64.0;
const MAX_DEPTH: usize = 8;
const CAPACITY: usize = 2;

fn world() -> Rect {
    Rect::from_coords(0.0, 0.0, WORLD, WORLD)
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

/// Structural signature: the sorted non-empty leaves as
/// `(depth, min-corner bits, sorted ids)`. Two trees with equal
/// signatures decompose space identically and store identical id sets.
fn signature(t: &DpQuadtree) -> Vec<(usize, (u64, u64), Vec<SegId>)> {
    let mut sig = Vec::new();
    t.for_each_leaf(|rect, depth, ids| {
        if !ids.is_empty() {
            let mut ids = ids.to_vec();
            ids.sort_unstable();
            sig.push((depth, (rect.min.x.to_bits(), rect.min.y.to_bits()), ids));
        }
    });
    sig.sort();
    sig
}

/// The four tree families under test, abstracted over build + update.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Family {
    Bucket,
    Pm1,
    Pm2,
    Pm3,
}

impl Family {
    fn build(self, m: &Machine, segs: &[LineSeg]) -> DpQuadtree {
        match self {
            Family::Bucket => build_bucket_pmr(m, world(), segs, CAPACITY, MAX_DEPTH),
            Family::Pm1 => build_pm1(m, world(), segs, MAX_DEPTH),
            Family::Pm2 => build_pm2(m, world(), segs, MAX_DEPTH),
            Family::Pm3 => build_pm3(m, world(), segs, MAX_DEPTH),
        }
    }

    fn update(
        self,
        m: &Machine,
        tree: &mut DpQuadtree,
        segs: &mut Vec<LineSeg>,
        batch: &UpdateBatch,
    ) -> UpdateOutcome {
        match self {
            Family::Bucket => batch_update_bucket_pmr(m, tree, segs, batch, CAPACITY, MAX_DEPTH),
            Family::Pm1 => {
                let mut d =
                    |mm: &Machine, st: &LineProcSet, ss: &[LineSeg]| pm1_decision(mm, st, ss);
                batch_update(m, tree, segs, batch, MAX_DEPTH, &mut d)
            }
            Family::Pm2 => {
                let mut d =
                    |mm: &Machine, st: &LineProcSet, ss: &[LineSeg]| pm2_decision(mm, st, ss);
                batch_update(m, tree, segs, batch, MAX_DEPTH, &mut d)
            }
            Family::Pm3 => {
                let mut d =
                    |mm: &Machine, st: &LineProcSet, ss: &[LineSeg]| pm3_decision(mm, st, ss);
                batch_update(m, tree, segs, batch, MAX_DEPTH, &mut d)
            }
        }
    }
}

/// Applies `batches` in order to a tree bulk-built over `initial`, then
/// asserts the result equals one bulk build over the final collection —
/// structurally (leaf signature) and behaviourally (window + point
/// probes in one lockstep batch, and the frontier join against a fixed
/// overlay tree).
fn check_schedule(
    label: &str,
    family: Family,
    m: &Machine,
    initial: &[LineSeg],
    batches: &[UpdateBatch],
) {
    let mut segs = initial.to_vec();
    let mut tree = family.build(m, &segs);
    for (bi, batch) in batches.iter().enumerate() {
        let out = family.update(m, &mut tree, &mut segs, batch);
        assert_eq!(
            out.inserted,
            batch.inserts.len(),
            "[{label}] batch {bi} insert count"
        );
    }
    let bulk = family.build(m, &segs);
    assert_eq!(
        signature(&tree),
        signature(&bulk),
        "[{label}] {family:?}: updated tree diverged from bulk build"
    );

    // The query surface agrees too: every probe window and every point
    // probe answers identically on both trees.
    let probes = vec![
        world(),
        Rect::from_coords(0.0, 0.0, WORLD / 2.0, WORLD / 2.0),
        Rect::from_coords(
            WORLD / 4.0,
            WORLD / 4.0,
            WORLD / 2.0 + 3.0,
            WORLD / 2.0 + 5.0,
        ),
        Rect::from_coords(1.0, 1.0, 1.0, 1.0),
        Rect::from_coords(WORLD - 2.0, WORLD - 2.0, WORLD - 1.0, WORLD - 1.0),
    ];
    assert_eq!(
        batch_window_query(m, &tree, &probes, &segs),
        batch_window_query(m, &bulk, &probes, &segs),
        "[{label}] {family:?}: window/point probes diverged"
    );
}

/// A small fixed overlay collection for the join leg of the differential.
fn overlay() -> Vec<LineSeg> {
    uniform_segments(40, WORLD as u32, 8, 909).segs
}

/// Scripted deterministic schedules covering the edge cases named in the
/// design: empty batches, insert-only, delete-only, mixed batches with
/// id remapping, delete-everything, re-population, a batch that both
/// inserts and deletes, and duplicate geometry.
fn scripted_schedules(initial_len: usize, seed: u64) -> Vec<Vec<UpdateBatch>> {
    let extra = uniform_segments(24, WORLD as u32, 8, seed).segs;
    let n = initial_len as SegId;
    vec![
        // Empty batches are identities, wherever they land.
        vec![
            UpdateBatch::default(),
            UpdateBatch::inserting(extra[0..4].to_vec()),
            UpdateBatch::default(),
        ],
        // Insert-only, spread over several batches.
        vec![
            UpdateBatch::inserting(extra[0..6].to_vec()),
            UpdateBatch::inserting(extra[6..12].to_vec()),
        ],
        // Delete-only with duplicate ids in the window (tolerated).
        vec![UpdateBatch::deleting(vec![0, 2, 2, n - 1])],
        // Mixed batch: the deletes force an id remap the inserts ride on.
        vec![
            UpdateBatch {
                inserts: extra[0..3].to_vec(),
                deletes: vec![1, 3],
            },
            UpdateBatch {
                inserts: extra[3..5].to_vec(),
                deletes: vec![0, n - 3],
            },
        ],
        // Delete everything, then repopulate from scratch.
        vec![
            UpdateBatch::deleting((0..n).collect()),
            UpdateBatch::inserting(extra[0..8].to_vec()),
        ],
        // Duplicate geometry: the same segment inserted twice must land
        // in exactly the blocks the bulk build puts both copies in.
        vec![UpdateBatch::inserting(vec![extra[0], extra[0], extra[1]])],
    ]
}

#[test]
fn scripted_interleavings_match_bulk_bucket_pmr() {
    let initial = uniform_segments(30, WORLD as u32, 8, 501).segs;
    for (mname, m) in machines() {
        for (si, schedule) in scripted_schedules(initial.len(), 502).iter().enumerate() {
            check_schedule(
                &format!("{mname}/schedule {si}"),
                Family::Bucket,
                &m,
                &initial,
                schedule,
            );
        }
    }
}

#[test]
fn scripted_interleavings_match_bulk_pm_families() {
    // Smaller collections: the PM rules split far deeper than the bucket
    // rule on the same data.
    let initial = uniform_segments(12, WORLD as u32, 8, 503).segs;
    for (mname, m) in machines() {
        for family in [Family::Pm1, Family::Pm2, Family::Pm3] {
            for (si, schedule) in scripted_schedules(initial.len(), 504).iter().enumerate() {
                check_schedule(
                    &format!("{mname}/schedule {si}"),
                    family,
                    &m,
                    &initial,
                    schedule,
                );
            }
        }
    }
}

/// Segments that drive every family to its depth bound: three lines
/// crossing at one interior point (more q-edges than a bucket holds, and
/// a crossing with no vertex for PM₁ and PM₂) and two vertices closer
/// than the smallest block (PM₁ and PM₃).
fn truncating() -> Vec<LineSeg> {
    vec![
        LineSeg::from_coords(10.0, 20.1, 30.0, 20.1),
        LineSeg::from_coords(20.1, 10.0, 20.1, 30.0),
        LineSeg::from_coords(10.0, 10.0, 30.2, 30.2),
        LineSeg::from_coords(40.0, 40.0, 50.0, 45.0),
        LineSeg::from_coords(40.05, 40.05, 45.0, 55.0),
    ]
}

/// Scripted schedules for the block-boundary cases of the engine, over
/// `initial` (whose last five segments are [`truncating`]): deletes from
/// truncated max-depth leaves, a delete and an identical insert in one
/// batch, segments lying on block edges, and a batch that empties a
/// quadrant.
fn boundary_schedules(initial: &[LineSeg]) -> Vec<(&'static str, Vec<UpdateBatch>)> {
    let n = initial.len() as SegId;
    let (cross, close) = (n - 5, n - 2);
    let half = WORLD / 2.0;
    let nw = Rect::from_coords(0.0, half, half, WORLD);
    let in_nw: Vec<SegId> = (0..n)
        .filter(|&id| seg_in_block(&initial[id as usize], &nw))
        .collect();
    assert!(
        !in_nw.is_empty(),
        "the fixture leaves the NW quadrant empty"
    );
    vec![
        (
            "truncated leaves",
            vec![
                // One crossing line and one of the close vertices go; the
                // second batch takes another crossing line (renumbered to
                // `cross` by the first batch's compaction).
                UpdateBatch::deleting(vec![cross, close]),
                UpdateBatch::deleting(vec![cross]),
            ],
        ),
        (
            "delete and identical insert",
            vec![UpdateBatch {
                inserts: vec![initial[3], initial[cross as usize + 2]],
                deletes: vec![3, cross + 2],
            }],
        ),
        (
            "block edges",
            vec![
                UpdateBatch::inserting(vec![
                    // On the root's horizontal cut.
                    LineSeg::from_coords(4.0, half, 60.0, half),
                    // On a depth-2 vertical cut.
                    LineSeg::from_coords(16.0, 2.0, 16.0, 40.0),
                    // On a depth-3 cut, ending at a block corner.
                    LineSeg::from_coords(8.0, 8.0, 15.0, 8.0),
                    // On the world's own edge.
                    LineSeg::from_coords(0.0, 5.0, 0.0, 20.0),
                ]),
                UpdateBatch {
                    inserts: vec![LineSeg::from_coords(half, 1.0, half, 63.0)],
                    deletes: vec![n, n + 2],
                },
            ],
        ),
        (
            "empty a quadrant",
            vec![UpdateBatch {
                inserts: vec![LineSeg::from_coords(40.0, 3.0, 47.0, 9.0)],
                deletes: in_nw,
            }],
        ),
    ]
}

#[test]
fn boundary_schedules_match_bulk_on_every_family() {
    let mut initial = uniform_segments(12, WORLD as u32, 8, 511).segs;
    initial.extend(truncating());
    for (mname, m) in machines() {
        for family in [Family::Bucket, Family::Pm1, Family::Pm2, Family::Pm3] {
            assert!(
                family.build(&m, &initial).truncated() > 0,
                "{family:?}: the fixture reaches no depth bound"
            );
            for (label, schedule) in boundary_schedules(&initial) {
                check_schedule(&format!("{mname}/{label}"), family, &m, &initial, &schedule);
            }
        }
    }
}

/// An update killed at any of its fault sites leaves the tree and the
/// collection exactly as they were: the update writes both only after
/// its last fault site. The kills are every `RoundAbort` occurrence the
/// update reaches (one per routing level, one per merge and repair
/// round), on both backends, and the first `WorkerPanic` on the parallel
/// backend (the sequential one runs no pool job).
#[test]
fn aborted_update_leaves_tree_and_segs_untouched() {
    let data = uniform_segments(2_000, 1024, 16, 521);
    let batch = UpdateBatch {
        inserts: uniform_segments(20, 1024, 16, 522).segs,
        deletes: (0..2_000).step_by(100).collect(),
    };
    let (capacity, depth) = (8, 12);
    for (mname, m) in machines() {
        let with_plan = |plan: Arc<FaultPlan>| {
            match mname {
                "parallel" => Machine::new(Backend::Parallel).with_par_threshold(1),
                _ => Machine::sequential(),
            }
            .with_fault_plan(plan)
        };
        let tree = build_bucket_pmr(&m, data.world, &data.segs, capacity, depth);
        let update = |m: &Machine| {
            let (mut t, mut s) = (tree.clone(), data.segs.clone());
            let crash = catch_unwind(AssertUnwindSafe(|| {
                batch_update_bucket_pmr(m, &mut t, &mut s, &batch, capacity, depth)
            }));
            (crash.map(|_| ()), t, s)
        };
        let counting = Arc::new(FaultPlan::disabled());
        let (clean, _, _) = update(&with_plan(counting.clone()));
        assert!(clean.is_ok(), "[{mname}] a disabled plan injects nothing");
        let aborts = counting.occurrences(FaultSite::RoundAbort);
        assert!(aborts > 3, "[{mname}] only {aborts} abort sites");

        let mut kills: Vec<(FaultSite, u64)> =
            (0..aborts).map(|k| (FaultSite::RoundAbort, k)).collect();
        if mname == "parallel" {
            kills.push((FaultSite::WorkerPanic, 0));
        }
        for (site, k) in kills {
            let plan = Arc::new(FaultPlan::once_at(site, k));
            let _guard =
                (site == FaultSite::WorkerPanic).then(|| WorkerFaultGuard::install(plan.clone()));
            let (crash, t, s) = update(&with_plan(plan.clone()));
            let payload = crash.expect_err("the update must die at the injected fault");
            let fault = payload
                .downcast_ref::<InjectedFault>()
                .expect("the payload is the typed InjectedFault");
            assert_eq!((fault.site, fault.occurrence), (site, k), "[{mname}]");
            assert!(t == tree, "[{mname}] {site:?} at {k}: tree changed");
            assert!(
                s == data.segs,
                "[{mname}] {site:?} at {k}: segments changed"
            );
        }
    }
}

/// The memory account of one update of the tree `dpbench serve_*` shards
/// hold (20,000 uniform segments, capacity 8, depth 12) by 100 deletes
/// and 100 inserts, on the sequential machine, whose every allocation is
/// on this thread. The update that kept one `Vec` per leaf made 36,538
/// allocator calls for 9,425,842 requested bytes here; the flat engine
/// makes 429 calls for 5,465,290 bytes. The call bound is a fifth of
/// the old count; the byte bound is the old figure.
#[test]
fn serve_shaped_update_allocates_for_its_batch_not_its_tree() {
    let m = Machine::sequential();
    let data = uniform_segments(20_000, 1024, 16, 7);
    let (capacity, depth) = (8, 12);
    let tree = build_bucket_pmr(&m, data.world, &data.segs, capacity, depth);
    let batch = UpdateBatch {
        inserts: uniform_segments(100, 1024, 16, 8).segs,
        deletes: (0..20_000).step_by(200).collect(),
    };
    let (mut t, mut s) = (tree.clone(), data.segs.clone());
    let ((_, calls), bytes) = requested_by(|| {
        calls_by(|| batch_update_bucket_pmr(&m, &mut t, &mut s, &batch, capacity, depth))
    });
    eprintln!("serve-shaped update: {calls} allocator calls, {bytes} bytes requested");
    assert!(calls <= 7_300, "{calls} allocator calls");
    assert!(bytes < 9_400_000, "{bytes} bytes requested");
}

/// The join leg: an updated tree joined against a fixed overlay tree
/// yields the same pair set as the bulk-built tree — the join reads only
/// the final decomposition, so update history must be invisible to it.
#[test]
fn updated_trees_join_like_bulk_trees() {
    let initial = uniform_segments(30, WORLD as u32, 8, 505).segs;
    let overlay_segs = overlay();
    for (mname, m) in machines() {
        let overlay_tree = build_bucket_pmr(&m, world(), &overlay_segs, CAPACITY, MAX_DEPTH);
        let mut segs = initial.clone();
        let mut tree = Family::Bucket.build(&m, &segs);
        let extra = uniform_segments(10, WORLD as u32, 8, 506).segs;
        for batch in [
            UpdateBatch {
                inserts: extra[0..5].to_vec(),
                deletes: vec![0, 7, 11],
            },
            UpdateBatch {
                inserts: extra[5..10].to_vec(),
                deletes: vec![2],
            },
        ] {
            Family::Bucket.update(&m, &mut tree, &mut segs, &batch);
        }
        let bulk = Family::Bucket.build(&m, &segs);
        let a = frontier_join(&m, &tree, &segs, &overlay_tree, &overlay_segs)
            .unwrap_or_else(|e| panic!("[{mname}] join on updated tree: {e}"));
        let b = frontier_join(&m, &bulk, &segs, &overlay_tree, &overlay_segs)
            .unwrap_or_else(|e| panic!("[{mname}] join on bulk tree: {e}"));
        assert_eq!(a.pairs, b.pairs, "[{mname}] join pairs diverged");
        assert!(!b.pairs.is_empty(), "[{mname}] degenerate join fixture");
    }
}

/// Raw material for one random batch: delete picks (taken mod the live
/// count at application time, then deduplicated) and insert geometry on
/// the integer grid strictly inside the world.
#[derive(Debug, Clone)]
struct RawBatch {
    delete_picks: Vec<u32>,
    inserts: Vec<(u8, u8, u8, u8)>,
}

fn raw_batches() -> impl Strategy<Value = Vec<RawBatch>> {
    let coord = 0u8..(WORLD as u8);
    let raw = (
        prop::collection::vec(0u32..1024, 0..6),
        prop::collection::vec((coord.clone(), coord.clone(), coord.clone(), coord), 0..6),
    )
        .prop_map(|(delete_picks, inserts)| RawBatch {
            delete_picks,
            inserts,
        });
    prop::collection::vec(raw, 1..5)
}

/// Resolves raw picks into a valid batch for a collection of `live`
/// segments: delete ids land in range, dedup'd; inserts become segments.
fn resolve(raw: &RawBatch, live: usize) -> UpdateBatch {
    let mut deletes: Vec<SegId> = if live == 0 {
        Vec::new()
    } else {
        raw.delete_picks.iter().map(|&p| p % live as u32).collect()
    };
    deletes.sort_unstable();
    deletes.dedup();
    let inserts = raw
        .inserts
        .iter()
        .map(|&(x1, y1, x2, y2)| LineSeg::from_coords(x1 as f64, y1 as f64, x2 as f64, y2 as f64))
        .collect();
    UpdateBatch { inserts, deletes }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Random batch schedules: whatever the interleaving, the updated
    /// bucket PMR tree equals the bulk build of its final collection on
    /// both backends.
    #[test]
    fn random_schedules_match_bulk(raw in raw_batches()) {
        let initial = uniform_segments(20, WORLD as u32, 8, 507).segs;
        for (mname, m) in machines() {
            let mut segs = initial.clone();
            let mut tree = Family::Bucket.build(&m, &segs);
            for rb in &raw {
                let batch = resolve(rb, segs.len());
                Family::Bucket.update(&m, &mut tree, &mut segs, &batch);
            }
            let bulk = Family::Bucket.build(&m, &segs);
            prop_assert_eq!(
                signature(&tree),
                signature(&bulk),
                "{} backend diverged",
                mname
            );
            prop_assert_eq!(
                tree.window_query(&world(), &segs),
                bulk.window_query(&world(), &segs)
            );
        }
    }
}
