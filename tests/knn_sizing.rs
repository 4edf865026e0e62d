//! k-NN's first window is sized from k and the live density, then
//! doubled until the k-th best lies inside it or it covers the world.
//!
//! The start is a guess from the *mean* density, so these tests aim at the
//! places where it is wrong: clustered data (too small inside a cluster,
//! too large between them), query points on tile edges, world corners and
//! just outside the world, services whose live count is mostly pending
//! inserts or tombstones, an emptied collection and `k` above the live
//! count. Every answer is compared with `brute_knearest` over the logical
//! collection; three tests also bound the rounds a batch takes.

use dp_geom::{Point, Rect};
use dp_service::{brute_knearest, QueryService, QueryServiceConfig, Response};
use dp_workloads::{clustered_segments, request_stream, uniform_segments, Request, RequestMix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scan_model::Backend;

/// k-NN requests only, k drawn from 1..=8 as in the default mix.
const ONLY_KNN: RequestMix = RequestMix {
    window: 0,
    point: 0,
    knearest: 1,
    join: 0,
    insert: 0,
    delete: 0,
    skyline: 0,
    dominance: 0,
};

/// Both backends; `par_threshold = 1` forces the pool onto these small
/// datasets.
fn configs(shard_grid: u32, compact_threshold: usize) -> [QueryServiceConfig; 2] {
    [(Backend::Sequential, None), (Backend::Parallel, Some(1))].map(|(backend, par_threshold)| {
        QueryServiceConfig {
            shard_grid,
            backend,
            par_threshold,
            compact_threshold,
            ..QueryServiceConfig::default()
        }
    })
}

/// Query points where a density-sized window is most likely wrong: the
/// world's corners and centre, on the shard-tile edges of a 2 × 2 grid,
/// just outside every side, and a few seeded interior points.
fn probe_points(world: &Rect, seed: u64) -> Vec<Point> {
    let (lo, hi) = (world.min, world.max);
    let mid = Point::new((lo.x + hi.x) / 2.0, (lo.y + hi.y) / 2.0);
    let mut pts = vec![
        lo,
        hi,
        Point::new(lo.x, hi.y),
        Point::new(hi.x, lo.y),
        mid,
        Point::new(mid.x, lo.y + world.height() / 3.0),
        Point::new(lo.x + world.width() / 5.0, mid.y),
        Point::new(lo.x - 0.5, mid.y),
        Point::new(hi.x + 0.25, hi.y + 0.25),
        Point::new(mid.x, lo.y - 1.0),
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    pts.extend((0..6).map(|_| Point::new(rng.gen_range(lo.x..hi.x), rng.gen_range(lo.y..hi.y))));
    pts
}

/// Asks every `(p, k)` for `k ∈ 1..=16` in one batch and checks each
/// answer against brute force over the service's logical collection.
fn assert_knn_matches_brute_force(svc: &QueryService, points: &[Point], label: &str) {
    let live = svc.segments();
    let reqs: Vec<Request> = points
        .iter()
        .flat_map(|&p| (1..=16).map(move |k| Request::KNearest { p, k }))
        .collect();
    let out = svc.execute_batch(&reqs);
    for (i, (req, resp)) in reqs.iter().zip(&out).enumerate() {
        let Request::KNearest { p, k } = *req else {
            unreachable!()
        };
        let expected = brute_knearest(&live, p, k);
        assert_eq!(
            resp.try_knearest(i),
            Ok(expected.as_slice()),
            "{label}: p = {p:?}, k = {k}"
        );
    }
}

#[test]
fn knn_matches_brute_force_on_uniform_and_clustered_data() {
    let datasets = [
        ("uniform", uniform_segments(1_500, 256, 16, 2801)),
        // Four tight clusters: the mean density overstates the gaps
        // between them by orders of magnitude and understates the cores.
        ("clustered", clustered_segments(1_500, 4, 6, 256, 2802)),
    ];
    for (name, data) in &datasets {
        let points = probe_points(&data.world, 2803);
        for config in configs(2, 256) {
            let svc = QueryService::build(config, data.world, data.segs.clone());
            assert_knn_matches_brute_force(&svc, &points, &format!("{name} {:?}", config.backend));
        }
    }
}

#[test]
fn knn_counts_pending_inserts_and_tombstones_as_live() {
    // A base of 400 segments, then 300 inserts and 250 deletes held in
    // the overlay (no compaction): the live count is neither the base
    // size nor the indexed size.
    let base = uniform_segments(400, 128, 8, 2811);
    let inserts = uniform_segments(300, 128, 8, 2812);
    let mut rng = StdRng::seed_from_u64(2813);
    let mut writes: Vec<Request> = inserts.segs.iter().map(|&s| Request::Insert(s)).collect();
    let mut live = base.segs.len() + inserts.segs.len();
    for _ in 0..250 {
        writes.push(Request::Delete(rng.gen_range(0..live) as u32));
        live -= 1;
    }
    let points = probe_points(&base.world, 2814);
    for config in configs(2, 10_000) {
        let svc = QueryService::build(config, base.world, base.segs.clone());
        svc.execute_batch(&writes);
        let stats = svc.stats();
        assert_eq!(stats.compactions, 0, "the writes must stay pending");
        assert_eq!(svc.segments().len(), live);
        assert_knn_matches_brute_force(&svc, &points, &format!("{:?}", config.backend));
    }
}

/// Answers cannot tell a wrong live count from a right one (the start
/// never decides an answer), so this pins the rounds: 3,800 of 4,000 base
/// segments tombstoned and pending leave 200 live. Sized from those, a
/// 512-request batch takes three rounds; sized from the 4,000 the index
/// still holds, the first window is √20 too small and it takes five.
#[test]
fn knn_sizes_from_the_live_count_not_the_indexed_one() {
    let data = uniform_segments(4_000, 256, 8, 2851);
    let deletes: Vec<Request> = (0..3_800)
        .map(|i| Request::Delete(i * 7 % (4_000 - i)))
        .collect();
    let reqs = request_stream(data.world, 512, ONLY_KNN, 2852);
    for config in configs(2, 10_000) {
        let svc = QueryService::build(config, data.world, data.segs.clone());
        svc.execute_batch(&deletes);
        let live = svc.segments();
        assert_eq!(live.len(), 200);
        let before = svc.stats().knn_rounds;
        let out = svc.execute_batch(&reqs);
        let rounds = svc.stats().knn_rounds - before;
        assert!(rounds <= 4, "{:?}: {rounds} k-NN rounds", config.backend);
        for (i, (req, resp)) in reqs.iter().zip(&out).enumerate().step_by(17) {
            let Request::KNearest { p, k } = *req else {
                unreachable!()
            };
            assert_eq!(
                resp.try_knearest(i),
                Ok(brute_knearest(&live, p, k).as_slice())
            );
        }
    }
}

#[test]
fn knn_on_an_emptied_collection_answers_empty_in_few_rounds() {
    let data = uniform_segments(60, 64, 8, 2821);
    let delete_all: Vec<Request> = (0..data.segs.len()).map(|_| Request::Delete(0)).collect();
    let p = Point::new(10.0, 50.0);
    // ⌈log₂(world width)⌉ + 1 rounds: the doublings that take any
    // positive start past the world, and the round that sees it covered.
    let budget = (data.world.width().log2().ceil() + 1.0) as u64;
    // Tombstones held pending, and compacted into an empty base.
    for compact_threshold in [10_000, 8] {
        for config in configs(2, compact_threshold) {
            let svc = QueryService::build(config, data.world, data.segs.clone());
            svc.execute_batch(&delete_all);
            assert!(svc.segments().is_empty());
            let before = svc.stats().knn_rounds;
            let out = svc.execute_batch(&[Request::KNearest { p, k: 3 }]);
            assert_eq!(out[0], Response::KNearest(Vec::new()));
            let rounds = svc.stats().knn_rounds - before;
            assert!(
                rounds <= budget,
                "{:?}, compact at {compact_threshold}: {rounds} rounds > {budget}",
                config.backend
            );
        }
    }
}

#[test]
fn knn_with_k_above_the_live_count_answers_every_live_segment_in_order() {
    let data = uniform_segments(60, 64, 8, 2831);
    let keep = 5;
    let deletes: Vec<Request> = (keep..data.segs.len())
        .map(|_| Request::Delete(0))
        .collect();
    let points = probe_points(&data.world, 2832);
    for compact_threshold in [10_000, 8] {
        for config in configs(2, compact_threshold) {
            let svc = QueryService::build(config, data.world, data.segs.clone());
            svc.execute_batch(&deletes);
            let live = svc.segments();
            assert_eq!(live.len(), keep);
            for &p in &points {
                for k in [keep, keep + 1, 16] {
                    let out = svc.execute_batch(&[Request::KNearest { p, k }]);
                    let found = out[0].try_knearest(0).expect("a k-NN answer");
                    assert_eq!(
                        found,
                        brute_knearest(&live, p, k).as_slice(),
                        "p = {p:?}, k = {k}"
                    );
                    assert_eq!(found.len(), keep);
                }
            }
        }
    }
}

#[test]
fn knn_in_a_zero_area_world_terminates() {
    // A half-open world with no area holds no segment, but a service can
    // still be built over one and asked: the density radius is zero there,
    // and a window of half-width zero never doubles past a line.
    let worlds = [
        Rect::from_coords(0.0, 4.0, 64.0, 4.0),
        Rect::from_coords(3.0, 3.0, 3.0, 3.0),
    ];
    for world in worlds {
        let svc = QueryService::build(QueryServiceConfig::sequential(2), world, Vec::new());
        for p in [
            world.min,
            world.max,
            Point::new(30.0, 4.0),
            Point::new(70.0, 9.0),
        ] {
            let out = svc.execute_batch(&[Request::KNearest { p, k: 2 }]);
            assert_eq!(out[0], Response::KNearest(Vec::new()), "{world} {p:?}");
        }
    }
}

/// The shape every `serve_*` benchmark workload serves: 20,000 uniform
/// segments of length ≤ 16 in a 1024 world over 2 × 2 shards, k-NN with
/// k drawn from 1..=8. A 512-request batch starting at the density
/// radius finishes in two rounds at this seed.
#[test]
fn knn_on_the_serving_shape_takes_at_most_three_rounds_a_batch() {
    let data = uniform_segments(20_000, 1024, 16, 2841);
    let reqs = request_stream(data.world, 512, ONLY_KNN, 2842);
    assert!(reqs.iter().all(|r| matches!(r, Request::KNearest { .. })));
    let config = QueryServiceConfig {
        shard_grid: 2,
        ..QueryServiceConfig::default()
    };
    let svc = QueryService::build(config, data.world, data.segs.clone());
    let out = svc.execute_batch(&reqs);
    let rounds = svc.stats().knn_rounds;
    assert!(
        rounds <= 3,
        "{rounds} k-NN rounds for one 512-request batch"
    );
    for (i, (req, resp)) in reqs.iter().zip(&out).enumerate().step_by(37) {
        let Request::KNearest { p, k } = *req else {
            unreachable!()
        };
        assert_eq!(
            resp.try_knearest(i),
            Ok(brute_knearest(&data.segs, p, k).as_slice())
        );
    }
}
