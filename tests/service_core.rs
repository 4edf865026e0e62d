//! Parent-pinned behaviour of the `dp-service` core.
//!
//! `cargo test -q` at the workspace root runs only the root package, so
//! none of `dp-service`'s own unit tests gate tier-1. This file does: it
//! holds what the service answered, recovered and persisted at commit
//! `0643664` (the parent of the PR that split `crates/service/src/lib.rs`
//! along its mechanisms), recorded there as constants on fixed seeds, and
//! every later change to the crate must reproduce them on both backends:
//!
//! * **(a) answers** — a CRC-32 of the full `Vec<Response>` for one mixed
//!   stream of every request kind (inserts and deletes crossing several
//!   compactions), through `execute_batch` and through a one-lane
//!   `ServicePipeline`; the two must agree with each other and with an
//!   eager brute-force `Vec` oracle written out below.
//! * **(b) recovery** — the exact `recovery_events()` sequence and the
//!   deterministic stats projection under five fixed fault scenarios,
//!   one per way a unit of shard work can ride the ladder.
//! * **(c) persistence** — a CRC-32 of `encode_snapshot()` after the
//!   same write stream.
//!
//! The last section holds regression tests for defects the same PR
//! fixed; those fail at the parent by design.

use dp_geom::{clip_segment_closed, LineSeg, Point, Rect};
use dp_service::{
    brute_knearest, AdmissionPolicy, QueryService, QueryServiceConfig, RecoveryAction,
    RecoveryEvent, Response, ServicePipeline,
};
use dp_spatial::dominance::dominance_weight;
use dp_spatial::join::brute_force_join_in;
use dp_spatial::snapshot::crc32;
use dp_spatial::{SegId, SpatialError};
use dp_workloads::{
    request_stream, request_stream_with_updates, uniform_segments, Dataset, Request, RequestMix,
};
use scan_model::{Backend, FaultPlan, FaultSite, InjectedFault};
use seq_spatial::dominance::skyline_brute;
use std::collections::HashSet;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Both backends; `par_threshold = 1` forces the pool onto these small
/// datasets.
fn backends() -> [(Backend, Option<usize>); 2] {
    [(Backend::Sequential, None), (Backend::Parallel, Some(1))]
}

fn debug_digest<T: std::fmt::Debug>(value: &T) -> u32 {
    crc32(format!("{value:?}").as_bytes())
}

// ---------------------------------------------------------------------
// (a) + (c): one mixed stream, every request kind, several compactions.
// ---------------------------------------------------------------------

/// Every request kind with a positive weight.
const EVERY_KIND: RequestMix = RequestMix {
    window: 4,
    point: 2,
    knearest: 1,
    join: 1,
    insert: 2,
    delete: 1,
    skyline: 2,
    dominance: 2,
};

const STREAM_LEN: usize = 320;

fn mixed_config(backend: Backend, par_threshold: Option<usize>) -> QueryServiceConfig {
    QueryServiceConfig {
        shard_grid: 2,
        flush_batch: 16,
        backend,
        par_threshold,
        compact_threshold: 12,
        ..QueryServiceConfig::default()
    }
}

fn mixed_fixture() -> (Dataset, Dataset, Vec<Request>) {
    let base = uniform_segments(160, 64, 8, 1401);
    let overlay = uniform_segments(90, 64, 8, 1402);
    let stream =
        request_stream_with_updates(base.world, STREAM_LEN, EVERY_KIND, 1403, base.segs.len());
    (base, overlay, stream)
}

fn brute_window(live: &[LineSeg], q: &Rect) -> Vec<SegId> {
    (0..live.len() as SegId)
        .filter(|&id| clip_segment_closed(&live[id as usize], q).is_some())
        .collect()
}

/// What an eager engine holding a plain `Vec<LineSeg>` answers: every
/// read by brute force over the collection as it stands at that slot,
/// `Vec::push` per insert, `Vec::remove` per delete.
fn eager_oracle(base: &[LineSeg], overlay: &[LineSeg], stream: &[Request]) -> Vec<Response> {
    let mut live = base.to_vec();
    stream
        .iter()
        .map(|r| match r {
            Request::Window(q) => Response::Window(Arc::new(brute_window(&live, q))),
            Request::PointInWindow(p) => {
                Response::PointInWindow(Arc::new(brute_window(&live, &Rect::point(*p))))
            }
            Request::KNearest { p, k } => Response::KNearest(brute_knearest(&live, *p, *k)),
            Request::Join(q) => Response::Join(brute_force_join_in(&live, overlay, q)),
            Request::Insert(seg) => {
                live.push(*seg);
                Response::Inserted(live.len() as SegId - 1)
            }
            Request::Delete(id) => {
                live.remove(*id as usize);
                Response::Deleted(*id)
            }
            Request::Skyline(q) => {
                let ids = brute_window(&live, q);
                let mids: Vec<Point> = ids.iter().map(|&i| live[i as usize].midpoint()).collect();
                let xs: Vec<f64> = mids.iter().map(|m| m.x).collect();
                let ys: Vec<f64> = mids.iter().map(|m| m.y).collect();
                Response::Skyline(Arc::new(skyline_brute(&ids, &xs, &ys)))
            }
            Request::DominanceAgg(p) => {
                let (mut count, mut sum, mut max) = (0u64, 0u64, 0u64);
                for s in &live {
                    let m = s.midpoint();
                    if m.x <= p.x && m.y <= p.y {
                        let w = dominance_weight(s);
                        count += 1;
                        sum += w;
                        max = max.max(w);
                    }
                }
                Response::DominanceAgg { count, sum, max }
            }
        })
        .collect()
}

/// CRC-32 of `format!("{:?}")` of the stream's `Vec<Response>`, recorded
/// at the parent (identical on both backends and both front doors).
const MIXED_STREAM_DIGEST: u32 = 109_645_521;
/// `(knn_rounds, join_requests, compactions, failed_compactions)` and
/// the total routed probes of the `execute_batch` run.
const MIXED_STREAM_COUNTERS: (ServiceRow, u64) = ((17, 25, 4, 0), 357);

#[test]
fn mixed_stream_reproduces_the_parent_answers_on_both_front_doors() {
    let (base, overlay, stream) = mixed_fixture();
    let kinds: HashSet<_> = stream.iter().map(std::mem::discriminant).collect();
    assert_eq!(
        kinds.len(),
        8,
        "the mixed stream must carry every request kind"
    );
    let oracle = eager_oracle(&base.segs, &overlay.segs, &stream);
    for (backend, par_threshold) in backends() {
        let build = || {
            QueryService::build_with_overlay(
                mixed_config(backend, par_threshold),
                base.world,
                base.segs.clone(),
                overlay.segs.clone(),
            )
        };
        let direct_svc = build();
        let direct = direct_svc.execute_batch(&stream);
        assert_eq!(direct, oracle, "{backend:?}: execute_batch vs eager oracle");
        let stats = direct_svc.stats();
        assert!(
            stats.compactions >= 2,
            "{backend:?}: the stream must cross at least two compactions, crossed {}",
            stats.compactions
        );
        assert_eq!(
            (stats_projection(&direct_svc).1, stats.total_probes()),
            MIXED_STREAM_COUNTERS,
            "{backend:?}"
        );

        let piped_svc = Arc::new(build());
        let pipeline = ServicePipeline::new(piped_svc.clone(), 1, AdmissionPolicy::Block)
            .expect("one lane is a valid pipeline");
        let piped = pipeline.submit_all(&stream);
        drop(pipeline);
        assert_eq!(
            piped, direct,
            "{backend:?}: one-lane pipeline vs execute_batch"
        );
        assert_eq!(piped_svc.segments(), direct_svc.segments(), "{backend:?}");

        assert_eq!(
            debug_digest(&direct),
            MIXED_STREAM_DIGEST,
            "{backend:?}: response digest moved from the parent's"
        );
    }
}

/// `(epoch, overlay_size, tombstones, compactions, live segments)` after
/// the stream, and the CRC-32 of the encoded snapshot minus its last
/// four bytes (the final section's own CRC: a CRC over a message ending
/// in its own CRC no longer depends on the message).
const SNAPSHOT_STATE: (u64, usize, usize, u64, usize) = (4, 8, 2, 4, 188);
const SNAPSHOT_DIGEST: u32 = 2_469_830_168;

#[test]
fn snapshot_after_the_write_stream_reproduces_the_parent_bytes() {
    let (base, _, stream) = mixed_fixture();
    for (backend, par_threshold) in backends() {
        // The snapshot format carries no overlay layer, so this service
        // has none (its joins answer empty).
        let svc = QueryService::build(
            mixed_config(backend, par_threshold),
            base.world,
            base.segs.clone(),
        );
        svc.execute_batch(&stream);
        let stats = svc.stats();
        assert_eq!(
            (
                stats.epoch,
                stats.overlay_size,
                stats.tombstones,
                stats.compactions,
                svc.segments().len()
            ),
            SNAPSHOT_STATE,
            "{backend:?}"
        );
        let bytes = svc.encode_snapshot().expect("a healthy service encodes");
        assert_eq!(
            crc32(&bytes[..bytes.len() - 4]),
            SNAPSHOT_DIGEST,
            "{backend:?}: snapshot bytes moved from the parent's"
        );
    }
}

// ---------------------------------------------------------------------
// (b): the recovery ladder under fixed fault scenarios.
// ---------------------------------------------------------------------

/// One shard's deterministic stats row: (shard, probes, batches,
/// retries, rebuilds, degraded, faults_injected).
type ShardRow = (usize, u64, u64, u64, u64, bool, u64);
/// Service-level row: (knn_rounds, join_requests, compactions,
/// failed_compactions).
type ServiceRow = (u64, u64, u64, u64);

fn stats_projection(svc: &QueryService) -> (Vec<ShardRow>, ServiceRow) {
    let stats = svc.stats();
    let shards = stats
        .shards
        .iter()
        .map(|s| {
            (
                s.shard,
                s.probes,
                s.batches,
                s.retries,
                s.rebuilds,
                s.degraded,
                s.faults_injected,
            )
        })
        .collect();
    let service = (
        stats.knn_rounds,
        stats.join_requests,
        stats.compactions,
        stats.failed_compactions,
    );
    (shards, service)
}

fn event(shard: usize, action: RecoveryAction, error: SpatialError) -> RecoveryEvent {
    RecoveryEvent {
        shard,
        action,
        error,
    }
}

fn pool_fault(occurrence: u64) -> SpatialError {
    SpatialError::FaultInjected {
        site: FaultSite::WorkerPanic,
        occurrence,
    }
}

/// Crashes shard work from inside the thread pool, deterministically.
///
/// Only a pool-entry fault can crash a probe chunk or a cached join (no
/// seeded `FaultPlan` site sits inside `batch_window_query`), and how
/// many pool jobs one primitive submits depends on the box's core count
/// — so a plan keyed on the pool's occurrence counter would not replay
/// across machines. This hook keys on the *ladder's own progress*
/// instead: while the service has recorded fewer than `limit` recovery
/// events, the pool panics once per distinct event count (`every_consult
/// = false`: exactly the next unit of work crashes, a rebuild running at
/// the same count passes) or at every entry (`every_consult = true`:
/// rebuilds crash too). The payload is an [`InjectedFault`] whose
/// occurrence is that event count, so recorded events are identical on
/// any number of cores.
struct PoolCrashes {
    _arm: rayon::FaultArmGuard,
    _serial: MutexGuard<'static, ()>,
}

impl PoolCrashes {
    fn install(svc: &Arc<QueryService>, limit: usize, every_consult: bool) -> Self {
        // The pool has one hook slot per process.
        static SERIAL: Mutex<()> = Mutex::new(());
        let serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        let svc = svc.clone();
        let fired: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        rayon::set_fault_hook(Some(Arc::new(move || {
            let seen = svc.recovery_events().len();
            if seen >= limit {
                return;
            }
            if !every_consult {
                let mut fired = fired.lock().unwrap_or_else(PoisonError::into_inner);
                if fired.contains(&seen) {
                    return;
                }
                fired.push(seen);
            }
            std::panic::panic_any(InjectedFault {
                site: FaultSite::WorkerPanic,
                occurrence: seen as u64,
            });
        })));
        PoolCrashes {
            _arm: rayon::arm_fault_hook(),
            _serial: serial,
        }
    }
}

impl Drop for PoolCrashes {
    fn drop(&mut self) {
        rayon::set_fault_hook(None);
    }
}

/// One-shard parallel service (pool crashes from several shards'
/// concurrent work would interleave by thread schedule).
fn one_shard_config() -> QueryServiceConfig {
    QueryServiceConfig {
        shard_grid: 1,
        flush_batch: 16,
        backend: Backend::Parallel,
        par_threshold: Some(1),
        ..QueryServiceConfig::default()
    }
}

/// Runs `stream` on a healthy twin and on `svc` under the pool-crash
/// hook; answers must be identical. Returns the events and projection.
fn run_under_pool_crashes(
    svc: Arc<QueryService>,
    healthy: &QueryService,
    stream: &[Request],
    limit: usize,
    every_consult: bool,
) -> (Vec<RecoveryEvent>, (Vec<ShardRow>, ServiceRow)) {
    let expected = healthy.execute_batch(stream);
    let out = {
        let _crashes = PoolCrashes::install(&svc, limit, every_consult);
        svc.execute_batch(stream)
    };
    assert_eq!(out, expected, "recovery must be invisible in the answers");
    (svc.recovery_events(), stats_projection(&svc))
}

fn probe_fixture() -> (Dataset, Vec<Request>) {
    let data = uniform_segments(200, 64, 8, 1411);
    let stream = request_stream(data.world, 60, RequestMix::DEFAULT, 1412);
    (data, stream)
}

/// The three probe-chunk scenarios share one fixture: 60 requests over
/// one shard (`flush_batch = 16`), crashing from the first chunk on.
fn probe_scenario(
    limit: usize,
    every_consult: bool,
) -> (Vec<RecoveryEvent>, (Vec<ShardRow>, ServiceRow)) {
    let (data, stream) = probe_fixture();
    let build = || QueryService::build(one_shard_config(), data.world, data.segs.clone());
    run_under_pool_crashes(Arc::new(build()), &build(), &stream, limit, every_consult)
}

#[test]
fn a_probe_chunk_that_crashes_once_is_retried() {
    let (events, projection) = probe_scenario(1, false);
    assert_eq!(
        events,
        vec![event(0, RecoveryAction::Retry(1), pool_fault(0))]
    );
    assert_eq!(projection, (vec![(0, 60, 5, 1, 0, false, 0)], (1, 0, 0, 0)));
}

#[test]
fn a_probe_chunk_that_keeps_crashing_rides_through_a_rebuild() {
    let (events, projection) = probe_scenario(3, false);
    assert_eq!(
        events,
        vec![
            event(0, RecoveryAction::Retry(1), pool_fault(0)),
            event(0, RecoveryAction::Retry(2), pool_fault(1)),
            event(0, RecoveryAction::Rebuild, pool_fault(2)),
        ]
    );
    assert_eq!(projection, (vec![(0, 60, 5, 2, 1, false, 0)], (1, 0, 0, 0)));
}

#[test]
fn a_probe_chunk_whose_rebuild_crashes_too_degrades_to_the_oracle() {
    let (events, projection) = probe_scenario(3, true);
    assert_eq!(
        events,
        vec![
            event(0, RecoveryAction::Retry(1), pool_fault(0)),
            event(0, RecoveryAction::Retry(2), pool_fault(1)),
            event(
                0,
                RecoveryAction::Degrade,
                SpatialError::ShardUnavailable {
                    shard: 0,
                    attempts: 4
                }
            ),
        ]
    );
    // No chunk ever completed on the index: zero batches.
    assert_eq!(projection, (vec![(0, 60, 0, 2, 0, true, 0)], (1, 0, 0, 0)));
}

#[test]
fn a_join_that_keeps_crashing_degrades_to_the_oracle_join() {
    let data = uniform_segments(200, 64, 8, 1421);
    let overlay = uniform_segments(120, 64, 8, 1422);
    let build = || {
        QueryService::build_with_overlay(
            one_shard_config(),
            data.world,
            data.segs.clone(),
            overlay.segs.clone(),
        )
    };
    // Joins first (the crash must land in the join, not in a probe), then
    // a mixed tail answered by the degraded shard.
    let head = [
        Request::Join(data.world),
        Request::Join(Rect::from_coords(8.0, 8.0, 40.0, 40.0)),
    ];
    let tail = request_stream(data.world, 40, RequestMix::WITH_JOINS, 1423);
    let healthy = build();
    let svc = Arc::new(build());
    let (events, _) = run_under_pool_crashes(svc.clone(), &healthy, &head, 6, false);
    assert_eq!(
        events,
        vec![
            event(0, RecoveryAction::Retry(1), pool_fault(0)),
            event(0, RecoveryAction::Retry(2), pool_fault(1)),
            event(0, RecoveryAction::Rebuild, pool_fault(2)),
            event(0, RecoveryAction::Retry(1), pool_fault(3)),
            event(0, RecoveryAction::Retry(2), pool_fault(4)),
            event(
                0,
                RecoveryAction::Degrade,
                SpatialError::ShardUnavailable {
                    shard: 0,
                    attempts: 6
                }
            ),
        ]
    );
    // The degraded shard answers probes and joins like its healthy twin,
    // and takes no further rung doing so.
    assert_eq!(svc.execute_batch(&tail), healthy.execute_batch(&tail));
    assert_eq!(svc.recovery_events(), events);
    assert_eq!(
        stats_projection(&svc),
        (vec![(0, 37, 0, 4, 1, true, 0)], (1, 5, 0, 0))
    );
}

#[test]
fn a_build_that_keeps_crashing_degrades_every_shard() {
    let data = uniform_segments(200, 64, 8, 1431);
    let overlay = uniform_segments(120, 64, 8, 1432);
    let stream = request_stream(data.world, 60, RequestMix::WITH_JOINS, 1433);
    let abort = |occurrence| SpatialError::FaultInjected {
        site: FaultSite::RoundAbort,
        occurrence,
    };
    let expected_events: Vec<RecoveryEvent> = (0..4)
        .flat_map(|shard| {
            [
                event(shard, RecoveryAction::Retry(1), abort(0)),
                event(shard, RecoveryAction::Retry(2), abort(1)),
                event(
                    shard,
                    RecoveryAction::Degrade,
                    SpatialError::ShardUnavailable { shard, attempts: 3 },
                ),
            ]
        })
        .collect();
    for (backend, par_threshold) in backends() {
        let cfg = QueryServiceConfig {
            shard_grid: 2,
            flush_batch: 16,
            backend,
            par_threshold,
            ..QueryServiceConfig::default()
        };
        let healthy = QueryService::build_with_overlay(
            cfg,
            data.world,
            data.segs.clone(),
            overlay.segs.clone(),
        );
        let dead = QueryService::try_build_with_faults(
            cfg,
            data.world,
            data.segs.clone(),
            overlay.segs.clone(),
            Arc::new(FaultPlan::always(FaultSite::RoundAbort)),
        )
        .expect("a crashing build degrades, it does not error");
        assert_eq!(
            dead.execute_batch(&stream),
            healthy.execute_batch(&stream),
            "{backend:?}"
        );
        assert_eq!(dead.recovery_events(), expected_events, "{backend:?}");
        assert_eq!(
            stats_projection(&dead),
            (
                vec![
                    (0, 14, 0, 2, 0, true, 3),
                    (1, 20, 0, 2, 0, true, 3),
                    (2, 20, 0, 2, 0, true, 3),
                    (3, 18, 0, 2, 0, true, 3),
                ],
                (1, 4, 0, 0)
            ),
            "{backend:?}"
        );
    }
}

// ---------------------------------------------------------------------
// Defects fixed by the PR that recorded the pins above: these three
// fail at the parent.
// ---------------------------------------------------------------------

/// `try_build_with_faults` validated base and overlay as one chained
/// sequence and reported `index % base.len()`: overlay segment 7 over a
/// five-segment base came back as "segment 2" — an innocent base segment
/// — and always as segment 0 over an empty base.
#[test]
fn an_out_of_world_overlay_segment_is_reported_by_its_overlay_position() {
    let world = Rect::from_coords(0.0, 0.0, 16.0, 16.0);
    let inside = LineSeg::from_coords(1.0, 1.0, 5.0, 5.0);
    let mut overlay = vec![inside; 8];
    overlay[7] = LineSeg::from_coords(1.0, 1.0, 20.0, 20.0);
    for base in [vec![inside; 5], Vec::new()] {
        let err = QueryService::try_build_with_overlay(
            QueryServiceConfig::sequential(2),
            world,
            base,
            overlay.clone(),
        )
        .err();
        assert_eq!(err, Some(SpatialError::SegmentOutsideWorld { index: 7 }));
    }
}

/// k-NN always started at a quarter-tile radius and doubled, so a finite
/// query point at distance D outside the world (validation only rejects
/// non-finite points) burned ~log₂(D) full routed probe rounds that
/// could not return anything — about a thousand for `x = 1e300`.
#[test]
fn knn_far_outside_the_world_answers_within_a_small_round_budget() {
    let data = uniform_segments(150, 64, 8, 1441);
    let far = [
        Point::new(1e300, 32.0),
        Point::new(-1e12, -1e12),
        Point::new(32.0, 1e6),
        Point::new(70.0, 70.0),
        Point::new(-0.5, 63.0),
    ];
    let stream: Vec<Request> = far.iter().map(|&p| Request::KNearest { p, k: 4 }).collect();
    for (backend, par_threshold) in backends() {
        let svc = QueryService::build(
            mixed_config(backend, par_threshold),
            data.world,
            data.segs.clone(),
        );
        let out = svc.execute_batch(&stream);
        for (i, (p, resp)) in far.iter().zip(&out).enumerate() {
            let expected = brute_knearest(&data.segs, *p, 4);
            assert_eq!(resp.try_knearest(i), Ok(expected.as_slice()), "{p:?}");
        }
        // All five advance together, so the batch costs the rounds of its
        // slowest member: the near-outside points, a few doublings of
        // the quarter-tile radius.
        let rounds = svc.stats().knn_rounds;
        assert!(rounds <= 6, "{backend:?}: {rounds} k-NN rounds");
    }
}

/// The admission router built `Rect::point(p)` from the unvalidated
/// query point, and `Rect::new` asserts on NaN: a poisoned point request
/// panicked the *submitter* before per-slot validation could refuse it.
#[test]
fn a_poisoned_point_through_the_pipeline_is_rejected_per_slot() {
    let data = uniform_segments(100, 64, 8, 1451);
    let svc = Arc::new(QueryService::build(
        mixed_config(Backend::Sequential, None),
        data.world,
        data.segs.clone(),
    ));
    let pipeline = ServicePipeline::per_shard(svc, AdmissionPolicy::Block).expect("pipeline");
    let nan = Point::new(f64::INFINITY, f64::NAN);
    let out = pipeline.submit_all(&[
        Request::PointInWindow(nan),
        Request::KNearest { p: nan, k: 2 },
        Request::DominanceAgg(nan),
        Request::Window(data.world),
    ]);
    for (i, resp) in out[..3].iter().enumerate() {
        assert!(
            matches!(
                resp,
                Response::Rejected(SpatialError::MalformedRequest { .. })
            ),
            "slot {i}: {resp:?}"
        );
    }
    assert_eq!(
        out[3].try_window(3).map(<[SegId]>::len),
        Ok(data.segs.len())
    );
}
