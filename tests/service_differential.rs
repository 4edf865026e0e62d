//! Differential tests for the sharded query service: for every workload
//! family and on both scan-model backends, the service must answer
//! byte-identically to (a) one unsharded machine running
//! `batch_window_query` over the whole collection and (b) the
//! brute-force scan — and its routing layer must execute a request on
//! exactly the shards whose tiles it overlaps, merging without
//! duplicates. Mixed read/write streams must match a sequential eager
//! oracle that applies every insert/delete the moment it arrives, across
//! overlay accumulation and epoch-swapped compactions.

use dp_spatial_suite::geom::{clip_segment_closed, LineSeg, Point, Rect};
use dp_spatial_suite::seq::dominance::skyline_brute;
use dp_spatial_suite::service::{
    brute_knearest, AdmissionPolicy, QueryService, QueryServiceConfig, Response, ServicePipeline,
};
use dp_spatial_suite::spatial::batch::batch_window_query;
use dp_spatial_suite::spatial::bucket_pmr::build_bucket_pmr;
use dp_spatial_suite::spatial::dominance::dominance_weight;
use dp_spatial_suite::spatial::shard::ShardGrid;
use dp_spatial_suite::spatial::{SegId, SpatialError};
use dp_spatial_suite::workloads::{
    clustered_segments, paper_dataset, paper_world, pathological_close_vertices, polygon_rings,
    request_stream, request_stream_with_updates, road_network, uniform_segments, Dataset, Request,
    RequestMix,
};
use proptest::prelude::*;
use scan_model::{Backend, Machine};

/// Every workload family, sized for exhaustive brute-force checking.
fn families() -> Vec<Dataset> {
    vec![
        uniform_segments(250, 64, 8, 101),
        clustered_segments(220, 8, 10, 64, 102),
        road_network(8, 64, 103),
        polygon_rings(6, 64, 104),
        pathological_close_vertices(64),
        Dataset {
            name: "paper 9-segment example".to_string(),
            world: paper_world(),
            segs: paper_dataset(),
        },
    ]
}

fn brute_window(segs: &[LineSeg], q: &Rect) -> Vec<SegId> {
    (0..segs.len() as SegId)
        .filter(|&id| clip_segment_closed(&segs[id as usize], q).is_some())
        .collect()
}

/// Service vs unsharded batch engine vs brute force over one stream.
fn check_identity(data: &Dataset, config: QueryServiceConfig, seed: u64) {
    let service = QueryService::build(config, data.world, data.segs.clone());
    let reference_machine = match config.par_threshold {
        Some(t) => Machine::new(config.backend).with_par_threshold(t),
        None => Machine::new(config.backend),
    };
    let reference_tree = build_bucket_pmr(
        &reference_machine,
        data.world,
        &data.segs,
        config.capacity,
        config.max_depth,
    );

    let requests = request_stream(data.world, 90, RequestMix::DEFAULT, seed);
    let responses = service.execute_batch(&requests);
    assert_eq!(responses.len(), requests.len());

    // The unsharded reference answers all window-shaped requests in one
    // lockstep batch over the global tree.
    let probe_rects: Vec<Rect> = requests
        .iter()
        .filter_map(|r| match r {
            Request::Window(q) => Some(*q),
            Request::PointInWindow(p) => Some(Rect::point(*p)),
            Request::KNearest { .. }
            | Request::Join(_)
            | Request::Insert(_)
            | Request::Delete(_)
            | Request::Skyline(_)
            | Request::DominanceAgg(_) => None,
        })
        .collect();
    let mut unsharded = batch_window_query(
        &reference_machine,
        &reference_tree,
        &probe_rects,
        &data.segs,
    )
    .into_iter();

    for (r, resp) in requests.iter().zip(&responses) {
        match (r, resp) {
            (Request::Window(q), Response::Window(ids)) => {
                let single = unsharded.next().unwrap();
                assert_eq!(**ids, single, "[{}] vs unsharded, window {q}", data.name);
                assert_eq!(
                    **ids,
                    brute_window(&data.segs, q),
                    "[{}] vs brute force, window {q}",
                    data.name
                );
            }
            (Request::PointInWindow(p), Response::PointInWindow(ids)) => {
                let single = unsharded.next().unwrap();
                assert_eq!(**ids, single, "[{}] vs unsharded, point {p:?}", data.name);
                assert_eq!(
                    **ids,
                    brute_window(&data.segs, &Rect::point(*p)),
                    "[{}] vs brute force, point {p:?}",
                    data.name
                );
            }
            (Request::KNearest { p, k }, Response::KNearest(found)) => {
                assert_eq!(
                    found,
                    &brute_knearest(&data.segs, *p, *k),
                    "[{}] k-NN p={p:?} k={k}",
                    data.name
                );
            }
            other => panic!("[{}] response kind mismatch: {other:?}", data.name),
        }
    }
    assert!(unsharded.next().is_none());
}

#[test]
fn every_family_sequential_backend() {
    for data in families() {
        for grid in [1u32, 2, 4] {
            let mut config = QueryServiceConfig::sequential(grid);
            config.flush_batch = 32; // force multi-flush queues
            check_identity(&data, config, 7 + grid as u64);
        }
    }
}

#[test]
fn every_family_parallel_backend() {
    for data in families() {
        for grid in [1u32, 2, 4] {
            let config = QueryServiceConfig {
                shard_grid: grid,
                backend: Backend::Parallel,
                ..QueryServiceConfig::default()
            };
            check_identity(&data, config, 40 + grid as u64);
        }
    }
}

/// The parallel backend with a forced threshold of 1 routes every
/// primitive through the rayon code paths even on small shards.
#[test]
fn forced_parallel_primitives_agree() {
    let data = uniform_segments(150, 64, 8, 105);
    for grid in [1u32, 2] {
        let config = QueryServiceConfig {
            shard_grid: grid,
            backend: Backend::Parallel,
            par_threshold: Some(1),
            ..QueryServiceConfig::default()
        };
        check_identity(&data, config, 60 + grid as u64);
    }
}

/// Sequential and parallel services over the same data produce identical
/// response vectors (byte-identical determinism across backends).
#[test]
fn backends_agree_on_full_streams() {
    let data = uniform_segments(200, 64, 8, 106);
    let requests = request_stream(data.world, 120, RequestMix::DEFAULT, 9);
    let seq = QueryService::build(
        QueryServiceConfig::sequential(2),
        data.world,
        data.segs.clone(),
    );
    let par = QueryService::build(
        QueryServiceConfig {
            shard_grid: 4,
            backend: Backend::Parallel,
            ..QueryServiceConfig::default()
        },
        data.world,
        data.segs.clone(),
    );
    assert_eq!(seq.execute_batch(&requests), par.execute_batch(&requests));
}

/// The eager oracle for mixed read/write streams: applies every write
/// the instant it arrives (`Vec::push` / `Vec::remove`, so logical ids
/// are positions in the evolving collection) and answers every read by
/// brute force over the current collection. The epoch-swapped service —
/// pending inserts, tombstones, threshold compactions and all — must
/// produce the exact same response vector.
fn check_write_identity(data: &Dataset, config: QueryServiceConfig, seed: u64, n_requests: usize) {
    let service = QueryService::build(config, data.world, data.segs.clone());
    let requests = request_stream_with_updates(
        data.world,
        n_requests,
        RequestMix::WITH_UPDATES,
        seed,
        data.segs.len(),
    );
    let responses = service.execute_batch(&requests);
    assert_eq!(responses.len(), requests.len());

    let mut live = data.segs.clone();
    for (i, (r, resp)) in requests.iter().zip(&responses).enumerate() {
        match r {
            Request::Window(q) => {
                assert_eq!(
                    resp.try_window(i),
                    Ok(brute_window(&live, q).as_slice()),
                    "[{}] window {q} at slot {i}",
                    data.name
                );
            }
            Request::PointInWindow(p) => {
                let expected = brute_window(&live, &Rect::point(*p));
                assert_eq!(
                    resp.try_point_in_window(i),
                    Ok(expected.as_slice()),
                    "[{}] point {p:?} at slot {i}",
                    data.name
                );
            }
            Request::KNearest { p, k } => {
                let expected = brute_knearest(&live, *p, *k);
                assert_eq!(
                    resp.try_knearest(i),
                    Ok(expected.as_slice()),
                    "[{}] k-NN p={p:?} k={k} at slot {i}",
                    data.name
                );
            }
            Request::Join(_) | Request::Skyline(_) | Request::DominanceAgg(_) => {
                unreachable!("WITH_UPDATES carries no joins or dominance requests")
            }
            Request::Insert(seg) => {
                assert_eq!(
                    resp.try_inserted(i),
                    Ok(live.len() as SegId),
                    "[{}] insert at slot {i}",
                    data.name
                );
                live.push(*seg);
            }
            Request::Delete(id) => {
                assert_eq!(
                    resp.try_deleted(i),
                    Ok(*id),
                    "[{}] delete at slot {i}",
                    data.name
                );
                live.remove(*id as usize);
            }
        }
    }
    // The service's logical collection converged to the oracle's.
    assert_eq!(service.segments(), live, "[{}] final collection", data.name);
}

#[test]
fn write_streams_every_family_sequential_backend() {
    for data in families() {
        for grid in [1u32, 2] {
            let config = QueryServiceConfig {
                compact_threshold: 8, // several compactions per stream
                ..QueryServiceConfig::sequential(grid)
            };
            check_write_identity(&data, config, 300 + grid as u64, 120);
        }
    }
}

#[test]
fn write_streams_every_family_parallel_backend() {
    for data in families() {
        let config = QueryServiceConfig {
            shard_grid: 2,
            backend: Backend::Parallel,
            compact_threshold: 8,
            ..QueryServiceConfig::default()
        };
        check_write_identity(&data, config, 333, 120);
    }
}

/// Sequential and parallel services over the same mixed read/write
/// stream produce identical response vectors, and their telemetry
/// reports the same epoch progression.
#[test]
fn backends_agree_on_write_streams() {
    let data = uniform_segments(150, 64, 8, 108);
    let requests = request_stream_with_updates(
        data.world,
        160,
        RequestMix::WITH_UPDATES,
        11,
        data.segs.len(),
    );
    let seq = QueryService::build(
        QueryServiceConfig {
            compact_threshold: 10,
            ..QueryServiceConfig::sequential(2)
        },
        data.world,
        data.segs.clone(),
    );
    let par = QueryService::build(
        QueryServiceConfig {
            shard_grid: 4,
            backend: Backend::Parallel,
            compact_threshold: 10,
            ..QueryServiceConfig::default()
        },
        data.world,
        data.segs.clone(),
    );
    assert_eq!(seq.execute_batch(&requests), par.execute_batch(&requests));
    let (s, p) = (seq.stats(), par.stats());
    assert_eq!(s.epoch, p.epoch, "same threshold, same write stream");
    assert!(
        s.compactions > 0,
        "threshold 10 over 160 requests must compact"
    );
    assert_eq!(s.epoch, s.compactions);
    assert_eq!(
        (s.overlay_size, s.tombstones),
        (p.overlay_size, p.tombstones)
    );
    assert_eq!(seq.segments(), par.segments());
}

/// Overlay telemetry tracks the write pressure exactly: pending inserts
/// and tombstones count up, a triggered compaction folds them into a new
/// epoch and zeroes both gauges.
#[test]
fn stats_expose_overlay_pressure_and_epochs() {
    let data = uniform_segments(100, 64, 8, 109);
    let svc = QueryService::build(
        QueryServiceConfig {
            compact_threshold: 100, // never triggers during this test
            ..QueryServiceConfig::sequential(2)
        },
        data.world,
        data.segs.clone(),
    );
    let s0 = svc.stats();
    assert_eq!((s0.epoch, s0.overlay_size, s0.tombstones), (0, 0, 0));
    assert_eq!(s0.compactions, 0);
    assert!(s0.shards.iter().all(|sh| sh.epoch == 0));

    svc.execute_batch(&[
        Request::Insert(LineSeg::from_coords(3.0, 3.0, 7.0, 7.0)),
        Request::Insert(LineSeg::from_coords(9.0, 2.0, 12.0, 5.0)),
        Request::Delete(0),
    ]);
    let s1 = svc.stats();
    assert_eq!((s1.epoch, s1.overlay_size, s1.tombstones), (0, 2, 1));

    svc.compact_now().expect("compaction");
    let s2 = svc.stats();
    assert_eq!((s2.epoch, s2.overlay_size, s2.tombstones), (1, 0, 0));
    assert_eq!(s2.compactions, 1);
    assert_eq!(s2.failed_compactions, 0);
    assert!(s2.shards.iter().all(|sh| sh.epoch == 1));
    assert_eq!(svc.segments().len(), data.segs.len() + 1);
}

// ---------------------------------------------------------------------
// Pipelined serving differentials: coalesced / cached / shed admission
// against the eager sequential oracle.
// ---------------------------------------------------------------------

/// A one-lane pipeline is strictly FIFO, so coalesced micro-batches and
/// the hot-window cache must be semantically invisible: every workload
/// family's mixed read/write stream answers byte-identically to the
/// eager `execute_batch` oracle, across overlay accumulation and
/// background epoch compactions.
#[test]
fn pipelined_serving_matches_eager_oracle_on_mixed_streams() {
    for data in families() {
        let config = QueryServiceConfig {
            compact_threshold: 8, // several background compactions
            flush_batch: 16,      // several coalesced flushes per stream
            ..QueryServiceConfig::sequential(2)
        };
        let svc = std::sync::Arc::new(QueryService::build(config, data.world, data.segs.clone()));
        let oracle = QueryService::build(config, data.world, data.segs.clone());
        let requests = request_stream_with_updates(
            data.world,
            120,
            RequestMix::WITH_UPDATES,
            17,
            data.segs.len(),
        );
        let pipeline = ServicePipeline::new(svc.clone(), 1, AdmissionPolicy::Block).unwrap();
        assert_eq!(
            pipeline.submit_all(&requests),
            oracle.execute_batch(&requests),
            "[{}] pipelined stream diverged from eager oracle",
            data.name
        );
        drop(pipeline); // join workers and the background compactor
        assert_eq!(svc.segments(), oracle.segments(), "[{}]", data.name);

        // Absorb any write pressure the background compactor had not
        // reached before the join, so no epoch swap (which flushes the
        // cache) can land inside the replay below.
        if svc.stats().overlay_size + svc.stats().tombstones > 0 {
            svc.compact_now().expect("clean compaction");
        }

        // Replay the read-only portion twice through a fresh pipeline:
        // with no writes pending, the second pass serves warm cache
        // hits, and those hits must still equal the eager answers.
        let reads: Vec<Request> = requests
            .iter()
            .filter(|r| !matches!(r, Request::Insert(_) | Request::Delete(_)))
            .copied()
            .collect();
        let expected = oracle.execute_batch(&reads);
        let pipeline = ServicePipeline::new(svc.clone(), 1, AdmissionPolicy::Block).unwrap();
        assert_eq!(
            pipeline.submit_all(&reads),
            expected,
            "[{}] cold replay",
            data.name
        );
        assert_eq!(
            pipeline.submit_all(&reads),
            expected,
            "[{}] warm replay",
            data.name
        );
        drop(pipeline);
        assert!(
            svc.cache_stats().hits > 0,
            "[{}] warm replay never hit the cache — the differential proved nothing",
            data.name
        );
    }
}

/// Under `AdmissionPolicy::Shed`, a served stream must equal an eager
/// oracle that replays exactly the non-shed requests: shed writes are
/// never applied, shed reads answer `Overloaded`, and everything that
/// was admitted answers as if the shed requests never existed.
#[test]
fn shed_serving_matches_oracle_on_admitted_subsequence() {
    let data = uniform_segments(150, 64, 8, 119);
    let config = QueryServiceConfig {
        flush_batch: 8,
        queue_bound: 8,
        compact_threshold: 16,
        ..QueryServiceConfig::sequential(2)
    };
    let svc = std::sync::Arc::new(QueryService::build(config, data.world, data.segs.clone()));
    let requests = request_stream_with_updates(
        data.world,
        400,
        RequestMix::WITH_UPDATES,
        23,
        data.segs.len(),
    );
    let pipeline = ServicePipeline::new(svc.clone(), 1, AdmissionPolicy::Shed).unwrap();
    let responses = pipeline.submit_all(&requests);
    let shed_total = pipeline.shed();
    drop(pipeline);

    // Replay only the admitted subsequence through an eager oracle.
    let oracle = QueryService::build(config, data.world, data.segs.clone());
    let mut shed_seen = 0u64;
    for (i, (req, resp)) in requests.iter().zip(&responses).enumerate() {
        if matches!(resp, Response::Rejected(SpatialError::Overloaded { .. })) {
            shed_seen += 1;
            continue; // never applied, nothing to compare
        }
        let expect = oracle.execute_batch(std::slice::from_ref(req));
        assert_eq!(resp, &expect[0], "slot {i} diverged from replay oracle");
    }
    assert_eq!(shed_seen, shed_total);
    assert!(
        shed_seen > 0,
        "bound 8 against a 400-burst never shed — the differential proved nothing"
    );
    assert_eq!(svc.segments(), oracle.segments());
}

// ---------------------------------------------------------------------
// Dominance-family serving: pipelined streams against the eager oracle.
// ---------------------------------------------------------------------

/// Brute-force `Request::Skyline` oracle: the skyline of the midpoints
/// of the live segments intersecting `q` (closed clip), ids ascending.
fn brute_skyline_in(live: &[LineSeg], q: &Rect) -> Vec<SegId> {
    let cands: Vec<(SegId, f64, f64)> = live
        .iter()
        .enumerate()
        .filter(|(_, s)| clip_segment_closed(s, q).is_some())
        .map(|(id, s)| {
            let m = s.midpoint();
            (id as SegId, m.x, m.y)
        })
        .collect();
    let ids: Vec<SegId> = cands.iter().map(|c| c.0).collect();
    let xs: Vec<f64> = cands.iter().map(|c| c.1).collect();
    let ys: Vec<f64> = cands.iter().map(|c| c.2).collect();
    skyline_brute(&ids, &xs, &ys)
}

/// Brute-force `Request::DominanceAgg` oracle: (count, sum, max) of
/// [`dominance_weight`] over live segments whose midpoint lies in the
/// closed lower-left quadrant of `p`.
fn brute_dominance_agg(live: &[LineSeg], p: Point) -> (u64, u64, u64) {
    let (mut count, mut sum, mut max) = (0u64, 0u64, 0u64);
    for s in live {
        let m = s.midpoint();
        if m.x <= p.x && m.y <= p.y {
            let w = dominance_weight(s);
            count += 1;
            sum += w;
            max = max.max(w);
        }
    }
    (count, sum, max)
}

/// Mixed dominance streams (`WITH_DOMINANCE`: windows, points, k-NN,
/// skylines, aggregates, inserts and deletes) served through the
/// pipelined admission layer answer byte-identically to the eager
/// `execute_batch` oracle, and every dominance answer equals the brute
/// force over the evolving collection — on both backends.
#[test]
fn pipelined_dominance_streams_match_eager_oracle() {
    for (backend, grid) in [(Backend::Sequential, 2u32), (Backend::Parallel, 4)] {
        for data in families() {
            let config = QueryServiceConfig {
                shard_grid: grid,
                backend,
                compact_threshold: 8, // several background compactions
                flush_batch: 16,
                ..QueryServiceConfig::default()
            };
            let svc =
                std::sync::Arc::new(QueryService::build(config, data.world, data.segs.clone()));
            let oracle = QueryService::build(config, data.world, data.segs.clone());
            let requests = request_stream_with_updates(
                data.world,
                120,
                RequestMix::WITH_DOMINANCE,
                29,
                data.segs.len(),
            );
            assert!(
                requests
                    .iter()
                    .any(|r| matches!(r, Request::Skyline(_) | Request::DominanceAgg(_))),
                "WITH_DOMINANCE stream carried no dominance requests"
            );
            let pipeline = ServicePipeline::new(svc.clone(), 1, AdmissionPolicy::Block).unwrap();
            let responses = pipeline.submit_all(&requests);
            drop(pipeline);
            assert_eq!(
                responses,
                oracle.execute_batch(&requests),
                "[{}] pipelined dominance stream diverged from eager oracle",
                data.name
            );

            // Every dominance answer equals brute force over the live
            // collection at its stream position.
            let mut live = data.segs.clone();
            for (i, (r, resp)) in requests.iter().zip(&responses).enumerate() {
                match r {
                    Request::Skyline(q) => {
                        assert_eq!(
                            resp.try_skyline(i),
                            Ok(brute_skyline_in(&live, q).as_slice()),
                            "[{}] skyline {q} at slot {i}",
                            data.name
                        );
                    }
                    Request::DominanceAgg(p) => {
                        assert_eq!(
                            resp.try_dominance_agg(i),
                            Ok(brute_dominance_agg(&live, *p)),
                            "[{}] dominance agg {p:?} at slot {i}",
                            data.name
                        );
                    }
                    Request::Insert(seg) => live.push(*seg),
                    Request::Delete(id) => {
                        live.remove(*id as usize);
                    }
                    _ => {}
                }
            }
            assert_eq!(svc.segments(), live, "[{}] final collection", data.name);
        }
    }
}

const WORLD_SIZE: i32 = 64;

/// Windows across the shape spectrum, degenerate and boundary-aligned
/// included (tile boundaries of a grid-`g` world are multiples of
/// `WORLD_SIZE / g`, so integer coordinates regularly land on them).
fn windows() -> impl Strategy<Value = Rect> {
    (
        0u8..6,
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
                2 => Rect::from_coords(x, y, (x + w).min(size), y),
                3 => Rect::from_coords(0.0, 0.0, size, size),
                4 => Rect::from_coords(x, y, x + w, y + h), // may exceed world
                _ => Rect::from_coords(x, y, (x + w).min(size), (y + h).min(size)),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Grid routing equals the brute-force tile filter for arbitrary
    /// window shapes and grid sizes.
    #[test]
    fn routing_matches_tile_intersection(qs in prop::collection::vec(windows(), 1..16)) {
        let world = Rect::from_coords(0.0, 0.0, WORLD_SIZE as f64, WORLD_SIZE as f64);
        for g in [1u32, 2, 4, 8] {
            let grid = ShardGrid::new(world, g);
            for q in &qs {
                let routed = grid.shards_overlapping(q);
                let expect: Vec<usize> = (0..grid.num_shards())
                    .filter(|&i| grid.tile_of(i).intersects(q))
                    .collect();
                prop_assert_eq!(&routed, &expect, "grid {} window {}", g, q);
                // Routed lists are strictly ascending: each shard at most once.
                prop_assert!(routed.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    /// Read-after-write through the pipeline: a window answer served
    /// from the hot-window cache must be invalidated by any overlapping
    /// write before the next read — the re-read always equals the brute
    /// force over the post-write collection, never the stale cached ids.
    #[test]
    fn cache_hits_invalidated_by_overlapping_writes(
        q in windows(),
        writes in prop::collection::vec(
            (0..WORLD_SIZE - 8, 0..WORLD_SIZE - 8, 1..8i32, 1..8i32),
            1..6,
        ),
    ) {
        let data = uniform_segments(80, 64, 8, 113);
        let config = QueryServiceConfig {
            flush_batch: 4,
            compact_threshold: 1_000, // writes stay in the overlay
            ..QueryServiceConfig::sequential(2)
        };
        let svc = std::sync::Arc::new(
            QueryService::build(config, data.world, data.segs.clone()),
        );
        let pipeline =
            ServicePipeline::new(svc.clone(), 1, AdmissionPolicy::Block).unwrap();
        let mut live = data.segs.clone();

        // Prime the cache with the window (and once more: a hit).
        let primed = pipeline.submit_all(&[Request::Window(q), Request::Window(q)]);
        prop_assert_eq!(
            &primed[0],
            &Response::Window(std::sync::Arc::new(brute_window(&live, &q)))
        );
        prop_assert_eq!(&primed[1], &primed[0]);

        for (x, y, w, h) in writes {
            let seg = LineSeg::from_coords(
                x as f64,
                y as f64,
                (x + w) as f64,
                (y + h) as f64,
            );
            // Insert (sometimes crossing q, sometimes not), then
            // re-read the same window through the admission path.
            let out = pipeline.submit_all(&[Request::Insert(seg), Request::Window(q)]);
            prop_assert!(matches!(out[0], Response::Inserted(_)));
            live.push(seg);
            prop_assert_eq!(
                &out[1],
                &Response::Window(std::sync::Arc::new(brute_window(&live, &q))),
                "stale cache after insert {} against window {}", seg, q
            );
        }

        // Deletes shift logical ids, which flushes the cache wholesale:
        // the re-read reflects the removal too.
        let out = pipeline.submit_all(&[Request::Delete(0), Request::Window(q)]);
        prop_assert!(matches!(out[0], Response::Deleted(0)));
        live.remove(0);
        prop_assert_eq!(
            &out[1],
            &Response::Window(std::sync::Arc::new(brute_window(&live, &q))),
            "stale cache after delete against window {}", q
        );
    }

    /// Read-after-write for the dominance family: cached skyline and
    /// dominance-aggregate answers must be invalidated by overlapping
    /// writes — every re-read equals the brute force over the post-write
    /// collection, never a stale cached result.
    #[test]
    fn dominance_cache_invalidated_by_overlapping_writes(
        q in windows(),
        writes in prop::collection::vec(
            (0..WORLD_SIZE - 8, 0..WORLD_SIZE - 8, 1..8i32, 1..8i32),
            1..6,
        ),
    ) {
        let data = uniform_segments(80, 64, 8, 127);
        let config = QueryServiceConfig {
            flush_batch: 4,
            compact_threshold: 1_000, // writes stay in the overlay
            ..QueryServiceConfig::sequential(2)
        };
        let svc = std::sync::Arc::new(
            QueryService::build(config, data.world, data.segs.clone()),
        );
        let pipeline =
            ServicePipeline::new(svc.clone(), 1, AdmissionPolicy::Block).unwrap();
        let mut live = data.segs.clone();
        // The aggregate probe sits at the window's far corner, so the
        // inserted segments regularly land inside its quadrant.
        let p = if q.is_empty() { Point::new(32.0, 32.0) } else { q.max };

        // Prime both dominance kinds (and once more: warm hits).
        let primed = pipeline.submit_all(&[
            Request::Skyline(q),
            Request::DominanceAgg(p),
            Request::Skyline(q),
            Request::DominanceAgg(p),
        ]);
        prop_assert_eq!(primed[0].try_skyline(0), Ok(brute_skyline_in(&live, &q).as_slice()));
        prop_assert_eq!(primed[1].try_dominance_agg(1), Ok(brute_dominance_agg(&live, p)));
        prop_assert_eq!(&primed[2], &primed[0]);
        prop_assert_eq!(&primed[3], &primed[1]);

        for (x, y, w, h) in writes {
            let seg = LineSeg::from_coords(
                x as f64,
                y as f64,
                (x + w) as f64,
                (y + h) as f64,
            );
            // Insert (sometimes overlapping the window / quadrant,
            // sometimes not), then re-read both dominance kinds through
            // the admission path.
            let out = pipeline.submit_all(&[
                Request::Insert(seg),
                Request::Skyline(q),
                Request::DominanceAgg(p),
            ]);
            prop_assert!(matches!(out[0], Response::Inserted(_)));
            live.push(seg);
            prop_assert_eq!(
                out[1].try_skyline(1),
                Ok(brute_skyline_in(&live, &q).as_slice()),
                "stale skyline cache after insert {} against window {}", seg, q
            );
            prop_assert_eq!(
                out[2].try_dominance_agg(2),
                Ok(brute_dominance_agg(&live, p)),
                "stale aggregate cache after insert {} against probe {:?}", seg, p
            );
        }

        // Deletes shift logical ids, which flushes the cache wholesale.
        let out = pipeline.submit_all(&[
            Request::Delete(0),
            Request::Skyline(q),
            Request::DominanceAgg(p),
        ]);
        prop_assert!(matches!(out[0], Response::Deleted(0)));
        live.remove(0);
        prop_assert_eq!(
            out[1].try_skyline(1),
            Ok(brute_skyline_in(&live, &q).as_slice()),
            "stale skyline cache after delete against window {}", q
        );
        prop_assert_eq!(
            out[2].try_dominance_agg(2),
            Ok(brute_dominance_agg(&live, p)),
            "stale aggregate cache after delete against probe {:?}", p
        );
    }

    /// A batch of window requests is executed on exactly the overlapping
    /// shards — each request once per overlapped shard, nothing else —
    /// and every merged response is duplicate-free.
    #[test]
    fn requests_execute_once_per_overlapping_shard(qs in prop::collection::vec(windows(), 1..24)) {
        let data = uniform_segments(120, 64, 8, 107);
        let service = QueryService::build(
            QueryServiceConfig::sequential(4),
            data.world,
            data.segs.clone(),
        );
        let grid = service.grid();
        let requests: Vec<Request> = qs.iter().map(|q| Request::Window(*q)).collect();
        service.reset_stats();
        let responses = service.execute_batch(&requests);
        let stats = service.stats();

        // Per shard: probes == number of requests overlapping its tile.
        for shard_stats in &stats.shards {
            let expect = qs
                .iter()
                .filter(|q| grid.tile_of(shard_stats.shard).intersects(q))
                .count() as u64;
            prop_assert_eq!(
                shard_stats.probes, expect,
                "shard {} tile {}", shard_stats.shard, shard_stats.tile
            );
        }
        // Globally: total executions == sum of per-request fan-outs.
        let fan_out: u64 = qs
            .iter()
            .map(|q| grid.shards_overlapping(q).len() as u64)
            .sum();
        prop_assert_eq!(stats.total_probes(), fan_out);

        // Merged responses are sorted and duplicate-free, and correct.
        for (q, resp) in qs.iter().zip(&responses) {
            let Response::Window(ids) = resp else { panic!("kind") };
            prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "duplicate ids for {}", q);
            prop_assert_eq!(&**ids, &brute_window(&data.segs, q), "window {}", q);
        }
    }
}
