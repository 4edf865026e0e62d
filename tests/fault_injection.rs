//! Deterministic fault-injection differential suite.
//!
//! Every test follows the same shape: run a workload fault-free, run it
//! again under a seeded [`FaultPlan`] (worker-closure panics, scratch
//! arena pressure, per-round aborts, poisoned requests), and assert the
//! faulted-then-recovered run answers **bit-identically** — recovery is
//! only correct if it is invisible. The headline is the
//! kill-at-round-`k` sweep: a PM₁ build over 50 000 segments is aborted
//! at every single round in turn, rebuilt on the same machine, and the
//! rebuilt tree compared node-for-node against the never-faulted one,
//! with the plan's counters proving each injected fault fired exactly
//! once.
//!
//! Fault decisions are pure functions of `(seed, site, occurrence)`, so
//! the whole suite replays: `FAULT_SEED=<n> cargo test --test
//! fault_injection` pins the seeded-matrix case to a chosen seed (the CI
//! fault-matrix job runs three fixed seeds plus a job-derived one) and
//! writes its trace to `target/fault-trace-<n>.log`.

use dp_geom::{clip_segment_closed, Rect};
use dp_service::{brute_knearest, QueryService, QueryServiceConfig, RecoveryAction, Response};
use dp_spatial::pm1::build_pm1;
use dp_spatial::{SegId, SpatialError};
use dp_workloads::{
    clustered_segments, poison_stream, polygon_rings, request_stream, request_stream_with_updates,
    road_network, uniform_segments, Dataset, Request, RequestMix,
};
use proptest::prelude::*;
use scan_model::{
    Backend, FaultMode, FaultPlan, FaultSite, InjectedFault, Machine, WorkerFaultGuard,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24)
}

/// The workload families the service differential suite covers, sized
/// for fast brute-force checking.
fn families() -> Vec<Dataset> {
    vec![
        uniform_segments(250, 64, 8, 101),
        clustered_segments(220, 8, 10, 64, 102),
        road_network(8, 64, 103),
        polygon_rings(6, 64, 104),
    ]
}

fn backends() -> Vec<(Backend, Option<usize>)> {
    // par_threshold 1 forces the pool onto even these small datasets.
    vec![(Backend::Sequential, None), (Backend::Parallel, Some(1))]
}

fn config_for(backend: Backend, par_threshold: Option<usize>) -> QueryServiceConfig {
    QueryServiceConfig {
        shard_grid: 2,
        flush_batch: 64,
        backend,
        par_threshold,
        ..QueryServiceConfig::default()
    }
}

/// One shard's deterministic stats row: (shard, segments, probes, batches,
/// max_queue_depth, degraded, retries, rebuilds, faults_injected).
type StatsRow = (usize, usize, u64, u64, u64, bool, u64, u64, u64);

/// The deterministic projection of a service's stats: everything except
/// wall-clock-dependent fields (latency histograms) and per-machine op
/// counters (which legitimately differ across backends).
fn stats_projection(svc: &QueryService) -> Vec<StatsRow> {
    svc.stats()
        .shards
        .iter()
        .map(|s| {
            (
                s.shard,
                s.segments,
                s.probes,
                s.batches,
                s.max_queue_depth,
                s.degraded,
                s.retries,
                s.rebuilds,
                s.faults_injected,
            )
        })
        .collect()
}

// ---------------------------------------------------------------------
// Headline: kill-at-round-k sweep over a 50k-segment PM₁ build.
// ---------------------------------------------------------------------

/// Aborts a PM₁ build at round `k` for *every* `k`, rebuilds on the very
/// same machine, and demands the rebuilt tree equal the never-faulted
/// tree node for node — on both backends. The `RoundAbort` occurrence
/// index is the machine-global round-driver step count, so
/// `FaultPlan::once_at(RoundAbort, k)` is precisely "kill the build at
/// round k", and `fired() == 1` after the rebuild proves the fault was
/// injected exactly once and never re-fired during recovery.
#[test]
fn kill_at_every_round_rebuilds_identically() {
    let data = uniform_segments(50_000, 1024, 16, 4242);
    let max_depth = 8;
    for (backend, par_threshold) in backends() {
        let make = |plan: Arc<FaultPlan>| {
            let m = match par_threshold {
                Some(t) => Machine::new(backend).with_par_threshold(t),
                None => Machine::new(backend),
            };
            m.with_fault_plan(plan)
        };

        // Fault-free baseline; the disabled plan still counts round-abort
        // decision points, which is exactly the number of rounds to sweep.
        let counting = Arc::new(FaultPlan::disabled());
        let baseline_machine = make(counting.clone());
        let baseline = build_pm1(&baseline_machine, data.world, &data.segs, max_depth);
        let rounds = counting.occurrences(FaultSite::RoundAbort);
        assert!(rounds > 1, "sweep needs a multi-round build, got {rounds}");
        eprintln!(
            "kill sweep: {} segments, {rounds} rounds on {backend:?}",
            data.segs.len()
        );

        for k in 0..rounds {
            let plan = Arc::new(FaultPlan::once_at(FaultSite::RoundAbort, k));
            let machine = make(plan.clone());
            let crash = catch_unwind(AssertUnwindSafe(|| {
                build_pm1(&machine, data.world, &data.segs, max_depth)
            }));
            let payload = crash.expect_err("build must abort at the injected round");
            let fault = payload
                .downcast_ref::<InjectedFault>()
                .expect("abort payload is the typed InjectedFault");
            assert_eq!(fault.site, FaultSite::RoundAbort, "round {k}");
            assert_eq!(fault.occurrence, k, "round {k}");
            assert_eq!(plan.fired(FaultSite::RoundAbort), 1, "round {k}");

            // Recovery: clear the partial round traces and rebuild on the
            // SAME machine — the abort must not have poisoned it. The
            // plan's occurrence counter kept advancing, so the once-at
            // fault cannot re-fire mid-rebuild.
            machine.take_round_traces();
            let rebuilt = build_pm1(&machine, data.world, &data.segs, max_depth);
            assert_eq!(rebuilt, baseline, "kill at round {k}: rebuilt tree differs");
            assert_eq!(
                plan.fired(FaultSite::RoundAbort),
                1,
                "round {k}: fault re-fired during recovery"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Fault-free plumbing is invisible.
// ---------------------------------------------------------------------

#[test]
fn disabled_plan_changes_nothing() {
    for data in families() {
        let cfg = config_for(Backend::Sequential, None);
        let plain = QueryService::build(cfg, data.world, data.segs.clone());
        let planned = QueryService::try_build_with_faults(
            cfg,
            data.world,
            data.segs.clone(),
            Vec::new(),
            Arc::new(FaultPlan::disabled()),
        )
        .expect("disabled plan validates");
        let reqs = request_stream(data.world, 80, RequestMix::DEFAULT, 7);
        assert_eq!(plain.execute_batch(&reqs), planned.execute_batch(&reqs));
        assert!(planned.recovery_events().is_empty());
        assert_eq!(planned.stats().total_faults_injected(), 0);
        assert_eq!(planned.stats().degraded_shards(), 0);
    }
}

// ---------------------------------------------------------------------
// Site × family × backend differential matrix.
// ---------------------------------------------------------------------

/// `RoundAbort` at occurrence 0 kills every shard's *first* build
/// attempt (each shard's plan fork counts occurrences from 0); the build
/// ladder retries and the recovered service must answer identically.
#[test]
fn build_abort_retries_and_answers_identically() {
    for data in families() {
        for (backend, par_threshold) in backends() {
            let cfg = config_for(backend, par_threshold);
            let baseline = QueryService::build(cfg, data.world, data.segs.clone());
            let plan = Arc::new(FaultPlan::once_at(FaultSite::RoundAbort, 0));
            let faulted = QueryService::try_build_with_faults(
                cfg,
                data.world,
                data.segs.clone(),
                Vec::new(),
                plan,
            )
            .expect("builds recover; only validation can error");
            let reqs = request_stream(data.world, 90, RequestMix::DEFAULT, 11);
            assert_eq!(
                baseline.execute_batch(&reqs),
                faulted.execute_batch(&reqs),
                "{} on {backend:?}",
                data.name
            );
            for s in &faulted.stats().shards {
                assert!(!s.degraded, "{} shard {}", data.name, s.shard);
                assert_eq!(s.faults_injected, 1, "{} shard {}", data.name, s.shard);
                assert_eq!(s.retries, 1, "{} shard {}", data.name, s.shard);
            }
            let events = faulted.recovery_events();
            assert_eq!(
                events
                    .iter()
                    .filter(|e| matches!(e.action, RecoveryAction::Retry(_)))
                    .count(),
                faulted.num_shards(),
                "{}",
                data.name
            );
        }
    }
}

/// `ArenaOverflow` never panics — it evicts the scratch arena to its
/// floor mid-flight. Every build and query must complete identically
/// with the fault firing on every single round.
#[test]
fn arena_overflow_is_silently_absorbed() {
    for data in families() {
        for (backend, par_threshold) in backends() {
            let cfg = config_for(backend, par_threshold);
            let baseline = QueryService::build(cfg, data.world, data.segs.clone());
            let plan = Arc::new(FaultPlan::always(FaultSite::ArenaOverflow));
            let faulted = QueryService::try_build_with_faults(
                cfg,
                data.world,
                data.segs.clone(),
                Vec::new(),
                plan,
            )
            .expect("arena pressure is recoverable");
            let reqs = request_stream(data.world, 90, RequestMix::DEFAULT, 13);
            assert_eq!(
                baseline.execute_batch(&reqs),
                faulted.execute_batch(&reqs),
                "{} on {backend:?}",
                data.name
            );
            let stats = faulted.stats();
            assert!(stats.total_faults_injected() > 0, "{}", data.name);
            assert_eq!(stats.degraded_shards(), 0, "{}", data.name);
            for s in &stats.shards {
                assert_eq!(s.retries, 0, "{} shard {}", data.name, s.shard);
            }
            assert!(faulted.recovery_events().is_empty(), "{}", data.name);
        }
    }
}

/// Poisoned requests are rejected per slot with a typed error; the
/// surviving slots answer bit-identically to the fault-free run.
#[test]
fn poisoned_requests_reject_without_collateral() {
    for data in families() {
        for (backend, par_threshold) in backends() {
            let cfg = config_for(backend, par_threshold);
            let svc = QueryService::build(cfg, data.world, data.segs.clone());
            let clean = request_stream(data.world, 120, RequestMix::DEFAULT, 17);
            let baseline = svc.execute_batch(&clean);

            let mut poisoned = clean.clone();
            let plan = FaultPlan::new(909)
                .with(FaultSite::PoisonedRequest, FaultMode::Seeded { rate: 0.2 });
            let n = poison_stream(&mut poisoned, &plan);
            assert!(n > 0, "rate 0.2 over 120 requests must poison some");
            let out = svc.execute_batch(&poisoned);
            let mut rejected = 0;
            for (i, resp) in out.iter().enumerate() {
                if poisoned[i] == clean[i] {
                    assert_eq!(resp, &baseline[i], "{} slot {i}", data.name);
                } else {
                    rejected += 1;
                    assert!(
                        matches!(
                            resp,
                            Response::Rejected(SpatialError::MalformedRequest { index, .. })
                                if *index == i
                        ),
                        "{} slot {i}: {resp:?}",
                        data.name
                    );
                }
            }
            assert_eq!(rejected, n, "{}", data.name);
        }
    }
}

/// Worker-closure panics injected inside the thread pool: probes and
/// joins crash mid-flight, the ladder retries (and rebuilds or degrades
/// if it keeps dying), and the answers never change. Worker-fault timing
/// is thread-schedule-dependent, so this asserts recovery invisibility,
/// not fault counts.
#[test]
fn worker_panics_recover_to_identical_answers() {
    let data = uniform_segments(250, 64, 8, 301);
    let overlay = uniform_segments(150, 64, 8, 302);
    let cfg = config_for(Backend::Parallel, Some(1));
    let baseline =
        QueryService::build_with_overlay(cfg, data.world, data.segs.clone(), overlay.segs.clone());
    let reqs = request_stream(data.world, 100, RequestMix::WITH_JOINS, 19);
    let expected = baseline.execute_batch(&reqs);

    for seed in [1u64, 2, 3] {
        let plan = Arc::new(
            FaultPlan::new(seed).with(FaultSite::WorkerPanic, FaultMode::Seeded { rate: 0.03 }),
        );
        // The guard arms the current thread: pool jobs submitted below —
        // service fan-outs and machine primitives alike — consult the
        // plan and panic where it fires. It is process-serializing, so
        // parallel test binaries stay unaffected.
        let _guard = WorkerFaultGuard::install(plan.clone());
        let faulted = QueryService::build_with_overlay(
            cfg,
            data.world,
            data.segs.clone(),
            overlay.segs.clone(),
        );
        let out = faulted.execute_batch(&reqs);
        assert_eq!(out, expected, "worker-panic seed {seed}");
        assert!(
            plan.fired(FaultSite::WorkerPanic) > 0,
            "seed {seed}: the plan never actually injected a panic"
        );
    }
}

/// A shard whose every build and rebuild attempt dies degrades to the
/// sequential oracle — and the oracle's answers (windows, points, k-NN
/// and brute-force joins) are bit-identical to a healthy service's.
#[test]
fn permanent_failure_degrades_to_identical_answers() {
    let data = uniform_segments(250, 64, 8, 401);
    let overlay = uniform_segments(150, 64, 8, 402);
    for (backend, par_threshold) in backends() {
        let cfg = config_for(backend, par_threshold);
        let healthy = QueryService::build_with_overlay(
            cfg,
            data.world,
            data.segs.clone(),
            overlay.segs.clone(),
        );
        let plan = Arc::new(FaultPlan::always(FaultSite::RoundAbort));
        let dead = QueryService::try_build_with_faults(
            cfg,
            data.world,
            data.segs.clone(),
            overlay.segs.clone(),
            plan,
        )
        .expect("permanent failure degrades, not errors");
        let stats = dead.stats();
        assert_eq!(stats.degraded_shards(), dead.num_shards());
        assert!(dead
            .recovery_events()
            .iter()
            .any(|e| e.action == RecoveryAction::Degrade));

        let reqs = request_stream(data.world, 100, RequestMix::WITH_JOINS, 23);
        assert_eq!(
            healthy.execute_batch(&reqs),
            dead.execute_batch(&reqs),
            "degraded answers diverge on {backend:?}"
        );
    }
}

// ---------------------------------------------------------------------
// Epoch compaction under fire: kill-at-every-round sweep.
// ---------------------------------------------------------------------

/// One fixed write burst for the compaction sweep: inserts landing in
/// several tiles plus deletes of epoch-base segments.
fn compaction_writes(n: u32) -> Vec<Request> {
    use dp_geom::LineSeg;
    let mut reqs: Vec<Request> = uniform_segments(12, 64, 8, 701)
        .segs
        .into_iter()
        .map(Request::Insert)
        .collect();
    reqs.push(Request::Delete(0));
    reqs.push(Request::Delete(n / 2));
    reqs.push(Request::Insert(LineSeg::from_coords(1.0, 1.0, 5.0, 3.0)));
    reqs
}

/// Kill-at-every-round sweep over an epoch compaction. For every abort
/// occurrence `k` until faults stop firing: build a service whose fault
/// plan aborts each fork's round `k`, push the same write burst through
/// (a write edits the overlay lists and runs no machine round, so every
/// write succeeds), and force a compaction. If the
/// compaction crashes, the *old* epoch must keep serving correct
/// answers, the failure must be counted, and — because every fault-plan
/// fork keeps its occurrence counters across attempts — an immediate
/// retry must converge. After the sweep every service answers
/// identically to the never-faulted baseline on the compacted epoch.
#[test]
fn compaction_kill_sweep_converges_to_clean_epoch() {
    let data = uniform_segments(120, 64, 8, 702);
    let n = data.segs.len() as u32;
    let cfg = QueryServiceConfig {
        shard_grid: 2,
        compact_threshold: 1_000, // only explicit compact_now() compacts
        ..QueryServiceConfig::sequential(2)
    };
    let reads = request_stream(data.world, 60, RequestMix::DEFAULT, 703);

    // Clean baseline: writes, compaction, reads.
    let baseline_svc = QueryService::build(cfg, data.world, data.segs.clone());
    for resp in baseline_svc.execute_batch(&compaction_writes(n)) {
        assert!(
            !matches!(resp, Response::Rejected(_)),
            "clean write rejected: {resp:?}"
        );
    }
    baseline_svc.compact_now().expect("clean compaction");
    let baseline = baseline_svc.execute_batch(&reads);
    let oracle_segs = baseline_svc.segments();

    let mut crashed_compactions = 0u64;
    let mut swept = 0u64;
    for k in 0..400u64 {
        let plan = Arc::new(FaultPlan::once_at(FaultSite::RoundAbort, k));
        let svc = QueryService::try_build_with_faults(
            cfg,
            data.world,
            data.segs.clone(),
            Vec::new(),
            plan,
        )
        .expect("builds recover; only validation can error");
        for resp in svc.execute_batch(&compaction_writes(n)) {
            assert!(
                !matches!(resp, Response::Rejected(_)),
                "k={k}: a write runs no round to abort, got {resp:?}"
            );
        }
        match svc.compact_now() {
            Ok(epoch) => assert_eq!(epoch, 1, "k={k}"),
            Err(e) => {
                crashed_compactions += 1;
                let stats = svc.stats();
                assert_eq!(
                    stats.epoch, 0,
                    "k={k}: failed compaction must not swap ({e})"
                );
                assert_eq!(stats.failed_compactions, 1, "k={k}");
                // The pre-compaction overlay keeps serving correctly...
                assert_eq!(
                    svc.execute_batch(&reads),
                    baseline,
                    "k={k}: old epoch corrupt"
                );
                // ...and retrying converges. One retry is not always
                // enough: the first crash stops the state build early, so
                // a *later* shard's fork (its counters still short of k)
                // can fire on the next attempt. But each fork fires a
                // once-at fault at most once, so attempts are bounded by
                // the fork count: shards + the aggregation machine.
                let mut converged = false;
                for _ in 0..svc.num_shards() + 1 {
                    if svc.compact_now() == Ok(1) {
                        converged = true;
                        break;
                    }
                }
                assert!(converged, "k={k}: compaction retries did not converge");
            }
        }
        let stats = svc.stats();
        assert_eq!(stats.epoch, 1, "k={k}");
        assert_eq!((stats.overlay_size, stats.tombstones), (0, 0), "k={k}");
        assert_eq!(
            svc.execute_batch(&reads),
            baseline,
            "k={k}: compacted epoch diverges"
        );
        assert_eq!(svc.segments(), oracle_segs, "k={k}");
        swept = k + 1;
        if stats.total_faults_injected() == 0 {
            break; // k ran past every fork's round count: sweep complete
        }
    }
    assert!(swept >= 2, "sweep ended after {swept} occurrences");
    assert!(
        crashed_compactions > 0,
        "no abort ever landed inside a compaction — the sweep proved nothing"
    );
}

/// Kill-at-every-occurrence sweep over the *background* compactor.
/// Writes admitted through a pipelined lane defer compaction to the
/// off-thread compactor; a seeded fault plan aborts compaction round
/// `k` there. The guarantees under fire: every admitted write still
/// succeeds (a write runs no machine round), reads served through
/// the pipeline while the compactor crashes off-thread match the eager
/// baseline (the old epoch keeps serving — readers never block on a
/// doomed rebuild), the crash is counted, and foreground retries after
/// the pipeline drains converge to a clean compacted epoch identical to
/// the never-faulted one.
#[test]
fn kill_during_background_compaction_keeps_readers_serving() {
    use dp_service::{AdmissionPolicy, ServicePipeline};
    use std::time::{Duration, Instant};

    let data = uniform_segments(120, 64, 8, 702);
    let n = data.segs.len() as u32;
    // One admission lane: per-lane FIFO makes the pipelined write order
    // exactly the eager order (logical delete ids shift on delete, so
    // write order is semantics, not scheduling).
    let cfg = QueryServiceConfig {
        shard_grid: 2,
        compact_threshold: 4, // the write burst trips the compactor
        ..QueryServiceConfig::sequential(2)
    };
    let reads = request_stream(data.world, 40, RequestMix::DEFAULT, 703);

    // Clean eager baseline: same writes, explicit compaction, reads.
    let baseline_svc = QueryService::build(
        QueryServiceConfig {
            compact_threshold: 1_000,
            ..cfg
        },
        data.world,
        data.segs.clone(),
    );
    for resp in baseline_svc.execute_batch(&compaction_writes(n)) {
        assert!(
            !matches!(resp, Response::Rejected(_)),
            "clean write: {resp:?}"
        );
    }
    baseline_svc.compact_now().expect("clean compaction");
    let baseline = baseline_svc.execute_batch(&reads);
    let oracle_segs = baseline_svc.segments();

    let mut crashed_background = 0u64;
    let mut swept = 0u64;
    for k in 0..400u64 {
        let plan = Arc::new(FaultPlan::once_at(FaultSite::RoundAbort, k));
        let svc = Arc::new(
            QueryService::try_build_with_faults(
                cfg,
                data.world,
                data.segs.clone(),
                Vec::new(),
                plan,
            )
            .expect("builds recover; only validation can error"),
        );
        {
            let pipeline = ServicePipeline::new(svc.clone(), 1, AdmissionPolicy::Block).unwrap();
            for resp in pipeline.submit_all(&compaction_writes(n)) {
                assert!(
                    !matches!(resp, Response::Rejected(_)),
                    "k={k}: a write runs no round to abort, got {resp:?}"
                );
            }
            // The compactor was signalled (threshold 4 against ~15
            // writes); wait until it attempted at least once so the
            // read probe below really races a background outcome.
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                let s = svc.stats();
                if s.compactions + s.failed_compactions > 0 {
                    break;
                }
                assert!(
                    Instant::now() < deadline,
                    "k={k}: background compactor never attempted"
                );
                std::thread::sleep(Duration::from_millis(2));
            }
            // Whatever the compactor did off-thread — swapped a clean
            // epoch or crashed and left the old one — pipelined readers
            // see exactly the eager answers.
            assert_eq!(
                pipeline.submit_all(&reads),
                baseline,
                "k={k}: reads diverged during background compaction"
            );
        } // drop joins the lane worker and the compactor
        let stats = svc.stats();
        if stats.failed_compactions > 0 {
            crashed_background += 1;
            // A crashed background compaction must not have swapped.
            assert_eq!(
                svc.execute_batch(&reads),
                baseline,
                "k={k}: old epoch corrupt after background crash"
            );
        }
        // Foreground retries converge (each fault-plan fork fires its
        // once-at fault at most once, so attempts are bounded by the
        // fork count: shards + the aggregation machine).
        let mut attempts = 0;
        while svc.stats().overlay_size + svc.stats().tombstones > 0 || svc.stats().epoch == 0 {
            attempts += 1;
            assert!(
                attempts <= svc.num_shards() + 2,
                "k={k}: compaction retries did not converge"
            );
            let _ = svc.compact_now();
        }
        assert_eq!(
            svc.execute_batch(&reads),
            baseline,
            "k={k}: compacted epoch diverges"
        );
        assert_eq!(svc.segments(), oracle_segs, "k={k}");
        swept = k + 1;
        if svc.stats().total_faults_injected() == 0 {
            break; // k ran past every fork's round count: sweep complete
        }
    }
    assert!(swept >= 2, "sweep ended after {swept} occurrences");
    assert!(
        crashed_background > 0,
        "no abort ever landed inside a background compaction — the sweep proved nothing"
    );
}

/// Poisoned write requests (NaN insert geometry, out-of-range delete
/// ids) are rejected per slot with typed errors and leave the overlay
/// untouched: every slot — reads included — matches an eager oracle that
/// applies exactly the writes the service accepted.
#[test]
fn poisoned_writes_reject_without_corrupting_the_overlay() {
    let data = uniform_segments(150, 64, 8, 801);
    for (backend, par_threshold) in backends() {
        let cfg = QueryServiceConfig {
            compact_threshold: 12, // compactions happen mid-stream
            ..config_for(backend, par_threshold)
        };
        let svc = QueryService::build(cfg, data.world, data.segs.clone());
        let clean = request_stream_with_updates(
            data.world,
            140,
            RequestMix::WITH_UPDATES,
            802,
            data.segs.len(),
        );
        let mut poisoned = clean.clone();
        let plan =
            FaultPlan::new(803).with(FaultSite::PoisonedRequest, FaultMode::Seeded { rate: 0.15 });
        let n_poisoned = poison_stream(&mut poisoned, &plan);
        assert!(
            n_poisoned > 0,
            "rate 0.15 over 140 requests must poison some"
        );

        let out = svc.execute_batch(&poisoned);
        let mut live = data.segs.clone();
        let mut rejected = 0;
        for (i, (r, resp)) in poisoned.iter().zip(&out).enumerate() {
            let was_poisoned = poisoned[i] != clean[i];
            match r {
                Request::Window(q) => {
                    if was_poisoned {
                        assert!(matches!(resp, Response::Rejected(_)), "slot {i}");
                        rejected += 1;
                    } else {
                        let brute: Vec<SegId> = (0..live.len() as SegId)
                            .filter(|&id| clip_segment_closed(&live[id as usize], q).is_some())
                            .collect();
                        assert_eq!(resp.try_window(i), Ok(brute.as_slice()), "slot {i}");
                    }
                }
                Request::PointInWindow(p) => {
                    if was_poisoned {
                        assert!(matches!(resp, Response::Rejected(_)), "slot {i}");
                        rejected += 1;
                    } else {
                        let q = Rect::point(*p);
                        let brute: Vec<SegId> = (0..live.len() as SegId)
                            .filter(|&id| clip_segment_closed(&live[id as usize], &q).is_some())
                            .collect();
                        assert_eq!(
                            resp.try_point_in_window(i),
                            Ok(brute.as_slice()),
                            "slot {i}"
                        );
                    }
                }
                Request::KNearest { p, k } => {
                    if was_poisoned {
                        assert!(matches!(resp, Response::Rejected(_)), "slot {i}");
                        rejected += 1;
                    } else {
                        let expected = brute_knearest(&live, *p, *k);
                        assert_eq!(resp.try_knearest(i), Ok(expected.as_slice()), "slot {i}");
                    }
                }
                Request::Join(_) | Request::Skyline(_) | Request::DominanceAgg(_) => {
                    unreachable!("WITH_UPDATES carries no joins or dominance requests")
                }
                Request::Insert(seg) => {
                    if was_poisoned {
                        // NaN geometry: typed rejection, overlay untouched.
                        assert!(
                            matches!(
                                resp,
                                Response::Rejected(SpatialError::MalformedRequest {
                                    index, ..
                                }) if *index == i
                            ),
                            "slot {i}: {resp:?}"
                        );
                        rejected += 1;
                    } else {
                        assert_eq!(resp.try_inserted(i), Ok(live.len() as SegId), "slot {i}");
                        live.push(*seg);
                    }
                }
                Request::Delete(id) => {
                    // A poisoned delete names u32::MAX; an unpoisoned one
                    // can still run out of range when earlier poisoned
                    // deletes kept their targets alive. One rule decides
                    // both, for the service and the oracle alike.
                    if (*id as usize) < live.len() {
                        assert_eq!(resp.try_deleted(i), Ok(*id), "slot {i}");
                        live.remove(*id as usize);
                    } else {
                        assert!(
                            matches!(
                                resp,
                                Response::Rejected(SpatialError::MalformedRequest {
                                    index, ..
                                }) if *index == i
                            ),
                            "slot {i}: {resp:?}"
                        );
                        rejected += 1;
                    }
                }
            }
        }
        assert!(rejected >= n_poisoned, "{backend:?}");
        assert_eq!(svc.segments(), live, "{backend:?}: overlay corrupted");
        // A fresh read batch over the converged state stays correct.
        let probe: Vec<SegId> = (0..live.len() as SegId)
            .filter(|&id| clip_segment_closed(&live[id as usize], &data.world).is_some())
            .collect();
        let out = svc.execute_batch(&[Request::Window(data.world)]);
        assert_eq!(out[0].try_window(0), Ok(probe.as_slice()), "{backend:?}");
    }
}

// ---------------------------------------------------------------------
// Satellite: scratch-arena cap overflow never poisons later builds.
// ---------------------------------------------------------------------

/// `ArenaOverflow` on every round crushes the arena cap to its floor and
/// evicts everything, mid-build. The build must still complete — and a
/// *second* build on the same machine must too, proving the pressure
/// left no lasting damage (the arena re-allocates and its cap regrows
/// from demand).
#[test]
fn arena_cap_overflow_never_poisons_the_machine() {
    let data = uniform_segments(5_000, 256, 8, 501);
    for (backend, par_threshold) in backends() {
        let make = |plan: Arc<FaultPlan>| {
            let m = match par_threshold {
                Some(t) => Machine::new(backend).with_par_threshold(t),
                None => Machine::new(backend),
            };
            m.with_fault_plan(plan)
        };
        let baseline = build_pm1(
            &make(Arc::new(FaultPlan::disabled())),
            data.world,
            &data.segs,
            8,
        );

        let plan = Arc::new(FaultPlan::always(FaultSite::ArenaOverflow));
        let machine = make(plan.clone());
        let first = build_pm1(&machine, data.world, &data.segs, 8);
        assert_eq!(first, baseline, "{backend:?}: pressured build differs");
        let fired_once = plan.fired(FaultSite::ArenaOverflow);
        assert!(fired_once > 0, "{backend:?}: pressure never applied");
        assert_eq!(
            fired_once,
            plan.occurrences(FaultSite::ArenaOverflow),
            "always-mode must fire on every round"
        );

        // Same machine, straight after the pressured run.
        machine.take_round_traces();
        let second = build_pm1(&machine, data.world, &data.segs, 8);
        assert_eq!(second, baseline, "{backend:?}: follow-up build poisoned");
        assert!(plan.fired(FaultSite::ArenaOverflow) > fired_once);
    }
}

// ---------------------------------------------------------------------
// Satellite: seeded fault streams are deterministic (property tests).
// ---------------------------------------------------------------------

/// Builds a faulted service over a fixed collection and runs a poisoned
/// stream through it; everything is derived from `fault_seed` and
/// `stream_seed` alone.
fn seeded_run(
    backend: Backend,
    par_threshold: Option<usize>,
    fault_seed: u64,
    stream_seed: u64,
) -> (Vec<Response>, Vec<StatsRow>) {
    let data = uniform_segments(220, 64, 8, 601);
    let overlay = uniform_segments(120, 64, 8, 602);
    let cfg = config_for(backend, par_threshold);
    let plan = Arc::new(
        FaultPlan::new(fault_seed)
            .with(FaultSite::RoundAbort, FaultMode::Seeded { rate: 0.02 })
            .with(FaultSite::ArenaOverflow, FaultMode::Seeded { rate: 0.1 }),
    );
    let svc = QueryService::try_build_with_faults(
        cfg,
        data.world,
        data.segs.clone(),
        overlay.segs.clone(),
        plan,
    )
    .expect("seeded faults recover or degrade, never error");
    let mut reqs = request_stream(data.world, 60, RequestMix::WITH_JOINS, stream_seed);
    let poison = FaultPlan::new(fault_seed ^ 0x9e37)
        .with(FaultSite::PoisonedRequest, FaultMode::Seeded { rate: 0.1 });
    poison_stream(&mut reqs, &poison);
    let responses = svc.execute_batch(&reqs);
    let projection = stats_projection(&svc);
    (responses, projection)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// The same fault seed over the same request stream produces
    /// byte-identical responses and the identical deterministic stats
    /// projection on the Sequential and Parallel backends: fault
    /// occurrence indices count per shard, so injection is independent
    /// of the thread schedule and of how the backend executes each
    /// primitive.
    #[test]
    fn same_seed_is_identical_across_backends(
        fault_seed in 0u64..u64::MAX / 2,
        stream_seed in 0u64..1u64 << 16,
    ) {
        let (seq_resp, seq_stats) =
            seeded_run(Backend::Sequential, None, fault_seed, stream_seed);
        let (par_resp, par_stats) =
            seeded_run(Backend::Parallel, Some(1), fault_seed, stream_seed);
        prop_assert_eq!(seq_resp, par_resp);
        prop_assert_eq!(seq_stats, par_stats);
    }

    /// Replaying the same seed twice on the parallel backend is
    /// bit-for-bit reproducible — the property a failure trace depends
    /// on.
    #[test]
    fn same_seed_replays_identically(
        fault_seed in 0u64..u64::MAX / 2,
        stream_seed in 0u64..1u64 << 16,
    ) {
        let a = seeded_run(Backend::Parallel, Some(1), fault_seed, stream_seed);
        let b = seeded_run(Backend::Parallel, Some(1), fault_seed, stream_seed);
        prop_assert_eq!(a.0, b.0);
        prop_assert_eq!(a.1, b.1);
    }
}

// ---------------------------------------------------------------------
// CI seed matrix entry point.
// ---------------------------------------------------------------------

/// The CI fault-matrix job runs this test once per seed (three fixed
/// seeds plus one derived from the job id, printed in the log) via the
/// `FAULT_SEED` environment variable. The run writes its trace to
/// `target/fault-trace-<seed>.log`; CI uploads those as artifacts when
/// the job goes red.
#[test]
fn seeded_matrix_from_env() {
    let seed: u64 = std::env::var("FAULT_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(101);
    let mut log = format!("fault-injection matrix: seed {seed}\n");

    let (seq_resp, seq_stats) = seeded_run(Backend::Sequential, None, seed, seed ^ 0xbeef);
    let (par_resp, par_stats) = seeded_run(Backend::Parallel, Some(1), seed, seed ^ 0xbeef);
    for (backend, stats) in [("sequential", &seq_stats), ("parallel", &par_stats)] {
        log.push_str(&format!("{backend} backend:\n"));
        for (shard, segments, probes, batches, max_q, degraded, retries, rebuilds, faults) in stats
        {
            log.push_str(&format!(
                "  shard {shard}: segments {segments} probes {probes} batches {batches} \
                 max-queue {max_q} degraded {degraded} retries {retries} \
                 rebuilds {rebuilds} faults {faults}\n"
            ));
        }
    }
    let rejected = seq_resp
        .iter()
        .filter(|r| matches!(r, Response::Rejected(_)))
        .count();
    log.push_str(&format!(
        "responses: {} ({} rejected), backends agree: {}\n",
        seq_resp.len(),
        rejected,
        seq_resp == par_resp,
    ));
    let _ = std::fs::create_dir_all("target");
    std::fs::write(format!("target/fault-trace-{seed}.log"), &log).expect("write fault trace log");

    assert_eq!(seq_resp, par_resp, "seed {seed}: backends diverge");
    assert_eq!(seq_stats, par_stats, "seed {seed}: stats diverge");
}

// ---------------------------------------------------------------------
// Kill-during-skyline-build: kernel sweep + seeded service matrix leg.
// ---------------------------------------------------------------------

/// Aborts the skyline / dominance-aggregation pipelines at every
/// `SkylineAbort` decision point in turn (the skyline entry check plus
/// every `dominance_agg` round), then recomputes on the very same machine: the
/// recomputed answers must equal the never-faulted ones bit-for-bit, and
/// each injected fault must fire exactly once and never re-fire during
/// recovery — on both backends.
#[test]
fn kill_at_every_skyline_round_recomputes_identically() {
    use dp_spatial::dominance::{dominance_agg, skyline, DomPoint};
    let pts: Vec<DomPoint> = (0..2000)
        .map(|i| DomPoint {
            id: i as SegId,
            x: ((i * 131) % 997) as f64,
            y: ((i * 577) % 991) as f64,
            w: (i % 97) as u64,
        })
        .collect();
    let queries: Vec<(f64, f64)> = (0..16)
        .map(|i| (i as f64 * 60.0, 960.0 - i as f64 * 60.0))
        .collect();
    for (backend, par_threshold) in backends() {
        let make = |plan: Arc<FaultPlan>| {
            let m = match par_threshold {
                Some(t) => Machine::new(backend).with_par_threshold(t),
                None => Machine::new(backend),
            };
            m.with_fault_plan(plan)
        };

        // Fault-free baseline; the disabled plan still counts the
        // skyline-abort decision points, which is the sweep width.
        let counting = Arc::new(FaultPlan::disabled());
        let baseline_machine = make(counting.clone());
        let base_sky = skyline(&baseline_machine, &pts);
        let base_agg = dominance_agg(&baseline_machine, &pts, &queries);
        let sites = counting.occurrences(FaultSite::SkylineAbort);
        assert!(
            sites > 2,
            "sweep needs entry + multiple merge rounds, got {sites}"
        );

        for k in 0..sites {
            let plan = Arc::new(FaultPlan::once_at(FaultSite::SkylineAbort, k));
            let machine = make(plan.clone());
            let crash = catch_unwind(AssertUnwindSafe(|| {
                let s = skyline(&machine, &pts);
                (s, dominance_agg(&machine, &pts, &queries))
            }));
            let err = crash.expect_err("armed skyline abort must kill the build");
            let fault = err
                .downcast_ref::<InjectedFault>()
                .expect("abort payload is the typed InjectedFault");
            assert_eq!(fault.site, FaultSite::SkylineAbort, "site at k={k}");
            assert_eq!(plan.fired(FaultSite::SkylineAbort), 1, "k={k}");

            // Recovery: recompute on the same machine, bit-identically.
            assert_eq!(skyline(&machine, &pts), base_sky, "skyline after k={k}");
            assert_eq!(
                dominance_agg(&machine, &pts, &queries),
                base_agg,
                "aggregates after k={k}"
            );
            assert_eq!(
                plan.fired(FaultSite::SkylineAbort),
                1,
                "once-at fault re-fired during recovery at k={k}"
            );
        }
    }
}

/// Seeded skyline kills during service dominance builds are invisible:
/// the query ladder catches the abort and falls back to the brute path,
/// so a faulted service answers a mixed `WITH_DOMINANCE` stream
/// byte-identically to a never-faulted one. Swept under four seeds
/// derived from `FAULT_SEED`, so the CI fault-matrix job widens the
/// sweep with every matrix entry.
#[test]
fn kill_during_skyline_build_is_invisible_under_seeded_matrix() {
    let base_seed: u64 = std::env::var("FAULT_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(101);
    let data = uniform_segments(220, 64, 8, 601);
    let overlay = uniform_segments(120, 64, 8, 602);
    for (backend, par_threshold) in backends() {
        let cfg = config_for(backend, par_threshold);
        let clean = QueryService::try_build_with_faults(
            cfg,
            data.world,
            data.segs.clone(),
            overlay.segs.clone(),
            Arc::new(FaultPlan::disabled()),
        )
        .expect("disabled plan builds cleanly");
        let requests = request_stream_with_updates(
            data.world,
            100,
            RequestMix::WITH_DOMINANCE,
            base_seed ^ 0xd0b,
            data.segs.len(),
        );
        let expected = clean.execute_batch(&requests);

        let mut total_fired = 0;
        for seed in [
            base_seed,
            base_seed ^ 0x9e37_79b9_7f4a_7c15,
            base_seed.rotate_left(17) | 1,
            base_seed ^ 0xdead_beef,
        ] {
            let plan = Arc::new(
                FaultPlan::new(seed)
                    .with(FaultSite::SkylineAbort, FaultMode::Seeded { rate: 0.35 }),
            );
            let svc = QueryService::try_build_with_faults(
                cfg,
                data.world,
                data.segs.clone(),
                overlay.segs.clone(),
                plan.clone(),
            )
            .expect("skyline faults never block service construction");
            assert_eq!(
                svc.execute_batch(&requests),
                expected,
                "seed {seed} on {backend:?}: a skyline kill leaked into the answers"
            );
            assert_eq!(
                svc.segments(),
                clean.segments(),
                "seed {seed} on {backend:?}: collections diverged"
            );
            // The service forks the plan per component; the aggregation
            // machine's fork owns the skyline site, so read the aggregated
            // stats rather than the parent plan's counters (which never move).
            total_fired += svc.stats().total_faults_injected();
        }
        assert!(
            total_fired > 0,
            "rate 0.35 across four seeds never fired on {backend:?} — the sweep proved nothing"
        );
    }
}

// ---------------------------------------------------------------------
// Snapshot tears: kill-at-every-section sweep + seeded matrix leg.
// ---------------------------------------------------------------------

/// Shared scaffolding for the snapshot-tear legs: a sequential-backend
/// service over a seed-derived world, its clean snapshot on disk, and
/// the bit-exact answers a warm restore from that snapshot produces.
/// Honors `FAULT_SEED` like [`seeded_matrix_from_env`], so the CI
/// fault-matrix job sweeps tears under every seed in its matrix.
struct SnapshotTearRig {
    config: QueryServiceConfig,
    data: Dataset,
    probes: Vec<Request>,
    clean_path: std::path::PathBuf,
    sections: usize,
    expected: Vec<Response>,
}

impl SnapshotTearRig {
    fn new(seed: u64) -> SnapshotTearRig {
        let data = uniform_segments(400, 64, 8, seed ^ 0x51a9);
        let config = QueryServiceConfig {
            shard_grid: 2,
            flush_batch: 64,
            backend: Backend::Sequential,
            ..QueryServiceConfig::default()
        };
        let service = QueryService::build(config, data.world, data.segs.clone());
        let probes = request_stream(data.world, 60, RequestMix::default(), seed ^ 0x9e37);
        let clean_path = std::env::temp_dir().join(format!(
            "fault_snap_clean_{}_{seed}.snap",
            std::process::id()
        ));
        service.save_snapshot(&clean_path).expect("clean save");
        let bytes = std::fs::read(&clean_path).expect("read clean snapshot");
        let sections = dp_spatial::snapshot::SnapshotReader::parse(&bytes)
            .expect("clean snapshot parses")
            .num_sections();
        let (warm_svc, warm) = QueryService::try_restore_or_build(
            config,
            data.world,
            data.segs.clone(),
            Vec::new(),
            Arc::new(FaultPlan::disabled()),
            &clean_path,
        )
        .expect("clean restore");
        assert!(warm, "clean snapshot must restore warm");
        let expected = warm_svc.execute_batch(&probes);
        SnapshotTearRig {
            config,
            data,
            probes,
            clean_path,
            sections,
            expected,
        }
    }

    /// The original service the clean snapshot was taken from (rebuilt;
    /// the build is deterministic).
    fn service(&self) -> QueryService {
        QueryService::build(self.config, self.data.world, self.data.segs.clone())
    }

    /// Restores from `path` with faults disabled; returns the service
    /// and whether the snapshot served warm.
    fn restore(&self, path: &std::path::Path) -> (QueryService, bool) {
        QueryService::try_restore_or_build(
            self.config,
            self.data.world,
            self.data.segs.clone(),
            Vec::new(),
            Arc::new(FaultPlan::disabled()),
            path,
        )
        .expect("a damaged snapshot degrades to a cold rebuild, never an error")
    }
}

impl Drop for SnapshotTearRig {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.clean_path);
    }
}

/// Tears the snapshot write at *every* section in turn (even
/// occurrences flip a bit inside the section, odd occurrences truncate
/// inside it — the sweep exercises both damage shapes), then restores.
/// Every tear must: fire exactly once, be caught by the reader (never
/// restore warm), surface one `ColdRestart` event with a typed snapshot
/// cause, and leave the cold-fallback service answering bit-identically
/// to the warm restore of the undamaged snapshot.
#[test]
fn snapshot_torn_at_every_section_falls_through_cold() {
    let seed: u64 = std::env::var("FAULT_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(101);
    let rig = SnapshotTearRig::new(seed);
    // META, WORLD, BASE_SEGS, TOMBSTONES, PENDING + (ids, tree) per
    // shard on a 2x2 grid.
    assert_eq!(rig.sections, 13, "unexpected section count for the sweep");
    let service = rig.service();

    for k in 0..rig.sections as u64 {
        let plan = Arc::new(FaultPlan::once_at(FaultSite::SnapshotTorn, k));
        let torn_path = std::env::temp_dir().join(format!(
            "fault_snap_torn_{}_{seed}_{k}.snap",
            std::process::id()
        ));
        service
            .save_snapshot_with_faults(&torn_path, Some(plan.clone()))
            .expect("a torn save still writes bytes; the damage is silent");
        assert_eq!(
            plan.fired(FaultSite::SnapshotTorn),
            1,
            "tear at section {k} must fire exactly once"
        );
        let (svc, warm) = rig.restore(&torn_path);
        let _ = std::fs::remove_file(&torn_path);
        assert!(!warm, "tear at section {k} must not restore warm");
        let cold_restarts: Vec<_> = svc
            .recovery_events()
            .into_iter()
            .filter(|e| e.action == RecoveryAction::ColdRestart)
            .collect();
        assert_eq!(
            cold_restarts.len(),
            1,
            "tear at section {k}: exactly one ColdRestart event"
        );
        assert!(
            matches!(
                cold_restarts[0].error,
                SpatialError::SnapshotCorrupt { .. } | SpatialError::SnapshotMalformed { .. }
            ),
            "tear at section {k}: cause must be a typed snapshot error, got {}",
            cold_restarts[0].error
        );
        assert_eq!(
            svc.execute_batch(&rig.probes),
            rig.expected,
            "tear at section {k}: cold fallback diverges from the clean restore"
        );
    }
}

/// The seeded companion: a rate-armed `FaultPlan` tears a random subset
/// of sections (possibly none). Whatever it does, serving is never
/// silently wrong — an untouched file restores warm, a damaged one is
/// rejected and rebuilt cold, and both answer bit-identically to the
/// clean restore.
#[test]
fn seeded_snapshot_tears_never_serve_silently_wrong() {
    let seed: u64 = std::env::var("FAULT_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(101);
    let rig = SnapshotTearRig::new(seed);
    let service = rig.service();
    for round in 0..4u64 {
        let plan = Arc::new(FaultPlan::seeded(seed ^ (round << 8), 0.35));
        let path = std::env::temp_dir().join(format!(
            "fault_snap_seeded_{}_{seed}_{round}.snap",
            std::process::id()
        ));
        service
            .save_snapshot_with_faults(&path, Some(plan.clone()))
            .expect("seeded save writes");
        let tears = plan.fired(FaultSite::SnapshotTorn);
        let (svc, warm) = rig.restore(&path);
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            warm,
            tears == 0,
            "round {round}: {tears} tears fired, warm={warm}"
        );
        assert_eq!(
            svc.execute_batch(&rig.probes),
            rig.expected,
            "round {round}: serving diverged after {tears} tears"
        );
    }
}
