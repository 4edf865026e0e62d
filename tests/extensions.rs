//! Integration tests for the extension features beyond the paper's core:
//! the PM₂/PM₃ family members, the Hilbert-packed R-tree, the batch
//! (data-parallel) query engine — all cross-validated against brute
//! force and against each other on the shared workloads.

use dp_spatial_suite::geom::{clip_segment_closed, Point, Rect};
use dp_spatial_suite::seq;
use dp_spatial_suite::spatial::batch::batch_window_query;
use dp_spatial_suite::spatial::bucket_pmr::build_bucket_pmr;
use dp_spatial_suite::spatial::pm1::build_pm1;
use dp_spatial_suite::spatial::pm_family::{build_pm2, build_pm3};
use dp_spatial_suite::spatial::rtree::pack_rtree_hilbert;
use dp_spatial_suite::workloads::{polygon_rings, road_network, uniform_segments};
use scan_model::Machine;

#[test]
fn pm_family_agrees_with_sequential_on_planar_maps() {
    let machine = Machine::parallel();
    let data = polygon_rings(6, 256, 9);
    let depth = 9usize;
    let dp2 = build_pm2(&machine, data.world, &data.segs, depth);
    let sq2 = seq::pm23::PmTree::build(data.world, &data.segs, seq::pm23::PmVariant::Pm2, depth);
    assert_eq!(dp2.stats().nodes, sq2.stats().nodes);
    let dp3 = build_pm3(&machine, data.world, &data.segs, depth);
    let sq3 = seq::pm23::PmTree::build(data.world, &data.segs, seq::pm23::PmVariant::Pm3, depth);
    assert_eq!(dp3.stats().nodes, sq3.stats().nodes);
    // Strictness ordering on a real map.
    let dp1 = build_pm1(&machine, data.world, &data.segs, depth);
    assert!(dp1.stats().nodes >= dp2.stats().nodes);
    assert!(dp2.stats().nodes >= dp3.stats().nodes);
    // All three exact under queries.
    let q = Rect::from_coords(30.0, 30.0, 140.0, 120.0);
    let want: Vec<u32> = (0..data.segs.len() as u32)
        .filter(|&id| clip_segment_closed(&data.segs[id as usize], &q).is_some())
        .collect();
    for t in [&dp1, &dp2, &dp3] {
        assert_eq!(t.window_query(&q, &data.segs), want);
    }
}

#[test]
fn pm_family_validity_predicates_hold_leafwise() {
    let machine = Machine::parallel();
    let data = polygon_rings(5, 256, 21);
    let depth = 9usize;
    let dp2 = build_pm2(&machine, data.world, &data.segs, depth);
    dp2.for_each_leaf(|rect, d, ids| {
        if d < depth {
            assert!(seq::pm23::pm_block_valid(
                seq::pm23::PmVariant::Pm2,
                ids,
                &data.segs,
                rect
            ));
        }
    });
    let dp3 = build_pm3(&machine, data.world, &data.segs, depth);
    dp3.for_each_leaf(|rect, d, ids| {
        if d < depth {
            assert!(seq::pm23::pm_block_valid(
                seq::pm23::PmVariant::Pm3,
                ids,
                &data.segs,
                rect
            ));
        }
    });
}

#[test]
fn packed_rtree_exact_on_workloads() {
    let machine = Machine::parallel();
    for data in [uniform_segments(400, 512, 40, 3), road_network(14, 512, 4)] {
        let t = pack_rtree_hilbert(&machine, &data.segs, data.world, 8);
        t.check_invariants(&data.segs);
        for q in [
            Rect::from_coords(0.0, 0.0, 128.0, 128.0),
            Rect::from_coords(200.0, 100.0, 400.0, 300.0),
            Rect::from_coords(0.0, 0.0, 512.0, 512.0),
        ] {
            let want: Vec<u32> = (0..data.segs.len() as u32)
                .filter(|&id| clip_segment_closed(&data.segs[id as usize], &q).is_some())
                .collect();
            assert_eq!(t.window_query(&q, &data.segs), want, "{}", data.name);
        }
        // Nearest agrees with brute force.
        let p = Point::new(257.0, 130.0);
        let (_, d) = t.nearest(p, &data.segs).unwrap();
        let brute = data
            .segs
            .iter()
            .map(|s| s.dist2_to_point(p).sqrt())
            .min_by(|a, b| a.total_cmp(b))
            .unwrap();
        assert_eq!(d, brute);
    }
}

#[test]
fn batch_queries_match_singles_across_structures() {
    let machine = Machine::parallel();
    let data = road_network(16, 512, 8);
    let tree = build_bucket_pmr(&machine, data.world, &data.segs, 6, 10);
    let queries: Vec<Rect> = (0..64)
        .map(|k| {
            let x = ((k * 29) % 450) as f64;
            let y = ((k * 47) % 450) as f64;
            Rect::from_coords(x, y, x + 40.0, y + 40.0)
        })
        .collect();
    let batched = batch_window_query(&machine, &tree, &queries, &data.segs);
    for (i, q) in queries.iter().enumerate() {
        assert_eq!(batched[i], tree.window_query(q, &data.segs), "query {i}");
    }
}

#[test]
fn seq_bucket_pmr_delete_then_rebuild_equivalence_on_map() {
    let data = road_network(10, 256, 30);
    let mut t = seq::bucket_pmr::BucketPmrTree::build(data.world, &data.segs, 4, 9);
    // Delete every third segment.
    let survivors: Vec<u32> = (0..data.segs.len() as u32)
        .filter(|id| id % 3 != 0)
        .collect();
    for id in 0..data.segs.len() as u32 {
        if id % 3 == 0 {
            assert!(t.delete(id, &data.segs));
        }
    }
    let mut reference = seq::bucket_pmr::BucketPmrTree::new(data.world, 4, 9);
    for &id in &survivors {
        reference.insert(id, &data.segs);
    }
    assert_eq!(t.shape_signature(), reference.shape_signature());
}
