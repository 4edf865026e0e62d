//! Load driver: replays a workload request stream against the sharded
//! query service at configurable concurrency and reports throughput plus
//! the service's per-shard statistics.
//!
//! ```text
//! load_driver [--workload uniform|clustered|roads|rings|paper]
//!             [--segments N] [--requests N] [--shards G] [--threads T]
//!             [--flush N] [--batch N] [--seed S] [--sequential]
//!             [--overlay N] [--fault-seed S] [--fault-rate R] [--self-check]
//! ```
//!
//! The stream is split across `T` driver threads; each thread slices its
//! share into `--batch`-sized calls to `QueryService::execute_batch`, so
//! the service sees concurrent mixed batches the way a front end would
//! deliver them. `--overlay N` builds a second segment layer of `N`
//! segments and folds windowed `Join` requests into the stream; the
//! per-shard frontier-join round table is printed after the run.
//! `--fault-seed S` attaches a seeded `FaultPlan` (round aborts and
//! arena overflows at `--fault-rate`, default 0.01) so the run exercises
//! the recovery ladder; recovery events are printed after the run.
//! `--self-check` re-runs a sample of the stream against brute force
//! after the timed run — it also passes under injected faults, since
//! recovered and degraded shards answer bit-identically.
//! `--updates` switches to the `WITH_UPDATES` mix: insert and delete
//! requests ride the stream, exercising the overlay ladder and
//! epoch-swapped compaction; with `--self-check` a prefix of the stream
//! is replayed sequentially on a fresh service against an eager
//! insert/delete oracle.
//!
//! `--snapshot-dir DIR` persists the service's serving state to
//! `DIR/service.snap` after the (closed-loop) run, and `--warm-restart`
//! builds the service *from* that snapshot instead of rebuilding the
//! trees — printing the warm-vs-cold construction timing and falling
//! back to a cold build (with the typed reason) whenever the snapshot
//! is missing, corrupt, or inconsistent with the requested
//! configuration. Together the two flags script a restart: run once
//! with `--snapshot-dir`, run again adding `--warm-restart`, and
//! `--self-check` on the second run verifies the restored service
//! bit-for-bit against brute force over its own restored collection.
//!
//! `--rate R` switches the driver to *open loop*: requests arrive on a
//! pre-generated Poisson schedule at `R` req/s and flow through the
//! pipelined admission layer (`ServicePipeline`) instead of direct
//! `execute_batch` calls. Arrival does not slow down when the service
//! does, so queueing delay becomes visible: the driver reports
//! p50/p99/p999 end-to-end latency from its own fixed-bucket histogram.
//! A request's latency runs from the instant the schedule says it
//! *arrives*, not the instant it was actually submitted, so time a late
//! submitter spent blocked under `--policy block` (or oversleeping) is
//! charged to the requests it delayed — no coordinated omission. The
//! driver also reports how many requests the admission layer shed
//! (`--policy shed`, the default) or how hard backpressure throttled
//! the submitter (`--policy block`). `--slo-p999 MICROS` turns the run
//! into a smoke gate: exit nonzero when the p999 bucket bound exceeds
//! the budget.
//! `--self-check` also works open loop: read-only runs verify a sample
//! of the *served pipeline responses* against brute force (updates runs
//! fall back to the sequential oracle replay described above).
//! `--sweep` replaces the single run with a throughput table over
//! shard-grid × lane-count combinations at saturation.

use dp_geom::LineSeg;
use dp_geom::Rect;
use dp_service::{
    brute_knearest, AdmissionPolicy, LatencyHistogram, QueryService, QueryServiceConfig,
    RecoveryAction, Response, ServicePipeline,
};
use dp_spatial::join::brute_force_join_in;
use dp_spatial::SpatialError;
use dp_workloads::{
    clustered_segments, open_loop_schedule, paper_dataset, paper_world, polygon_rings,
    request_stream, request_stream_with_updates, road_network, skew_hot_windows, uniform_segments,
    Dataset, Request, RequestMix,
};
use scan_model::{Backend, FaultMode, FaultPlan, FaultSite};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    workload: String,
    segments: usize,
    requests: usize,
    shards: u32,
    threads: usize,
    flush: usize,
    batch: usize,
    seed: u64,
    sequential: bool,
    overlay: usize,
    fault_seed: Option<u64>,
    fault_rate: f64,
    self_check: bool,
    updates: bool,
    dominance: bool,
    rate: Option<f64>,
    lanes: Option<usize>,
    policy: AdmissionPolicy,
    slo_p999: Option<u64>,
    sweep: bool,
    hot: f64,
    hot_count: usize,
    queue: Option<usize>,
    snapshot_dir: Option<String>,
    warm_restart: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: "uniform".to_string(),
        segments: 20_000,
        requests: 10_000,
        shards: 4,
        threads: 4,
        flush: 1024,
        batch: 512,
        seed: 42,
        sequential: false,
        overlay: 0,
        fault_seed: None,
        fault_rate: 0.01,
        self_check: false,
        updates: false,
        dominance: false,
        rate: None,
        lanes: None,
        policy: AdmissionPolicy::Shed,
        slo_p999: None,
        sweep: false,
        hot: 0.0,
        hot_count: 64,
        queue: None,
        snapshot_dir: None,
        warm_restart: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {name}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value("--workload"),
            "--segments" => args.segments = value("--segments").parse().expect("--segments"),
            "--requests" => args.requests = value("--requests").parse().expect("--requests"),
            "--shards" => args.shards = value("--shards").parse().expect("--shards"),
            "--threads" => {
                args.threads = value("--threads")
                    .parse::<usize>()
                    .expect("--threads")
                    .max(1)
            }
            "--flush" => args.flush = value("--flush").parse().expect("--flush"),
            "--batch" => args.batch = value("--batch").parse::<usize>().expect("--batch").max(1),
            "--seed" => args.seed = value("--seed").parse().expect("--seed"),
            "--sequential" => args.sequential = true,
            "--overlay" => args.overlay = value("--overlay").parse().expect("--overlay"),
            "--fault-seed" => {
                args.fault_seed = Some(value("--fault-seed").parse().expect("--fault-seed"))
            }
            "--fault-rate" => {
                args.fault_rate = value("--fault-rate").parse().expect("--fault-rate")
            }
            "--self-check" => args.self_check = true,
            "--updates" => args.updates = true,
            "--dominance" => args.dominance = true,
            "--rate" => args.rate = Some(value("--rate").parse().expect("--rate")),
            "--lanes" => args.lanes = Some(value("--lanes").parse().expect("--lanes")),
            "--policy" => {
                args.policy = match value("--policy").as_str() {
                    "block" => AdmissionPolicy::Block,
                    "shed" => AdmissionPolicy::Shed,
                    other => panic!("unknown admission policy {other} (block|shed)"),
                }
            }
            "--slo-p999" => args.slo_p999 = Some(value("--slo-p999").parse().expect("--slo-p999")),
            "--sweep" => args.sweep = true,
            "--queue" => args.queue = Some(value("--queue").parse().expect("--queue")),
            "--snapshot-dir" => args.snapshot_dir = Some(value("--snapshot-dir")),
            "--warm-restart" => args.warm_restart = true,
            "--hot" => args.hot = value("--hot").parse().expect("--hot"),
            "--hot-count" => {
                args.hot_count = value("--hot-count")
                    .parse::<usize>()
                    .expect("--hot-count")
                    .max(1)
            }
            "--help" | "-h" => {
                println!(
                    "usage: load_driver [--workload uniform|clustered|roads|rings|paper] \
                     [--segments N] [--requests N] [--shards G] [--threads T] \
                     [--flush N] [--batch N] [--seed S] [--sequential] \
                     [--overlay N] [--fault-seed S] [--fault-rate R] [--self-check] \
                     [--updates] [--dominance] [--rate R] [--lanes N] [--policy block|shed] \
                     [--slo-p999 MICROS] [--sweep] [--hot F] [--hot-count N] [--queue N] \
                     [--snapshot-dir DIR] [--warm-restart]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other} (try --help)"),
        }
    }
    args
}

fn load_dataset(args: &Args) -> Dataset {
    let n = args.segments;
    match args.workload.as_str() {
        "uniform" => uniform_segments(n, 1024, 16, args.seed),
        "clustered" => clustered_segments(n, 32, 24, 1024, args.seed),
        "roads" => road_network(64, 1024, args.seed),
        "rings" => polygon_rings(48, 1024, args.seed),
        "paper" => Dataset {
            name: "paper 9-segment example".to_string(),
            world: paper_world(),
            segs: paper_dataset(),
        },
        other => panic!("unknown workload {other}"),
    }
}

fn main() {
    let args = parse_args();
    let data = load_dataset(&args);
    println!(
        "workload: {} ({} segments, world {})",
        data.name,
        data.segs.len(),
        data.world
    );

    if args.sweep {
        sweep(&args, &data);
        return;
    }
    if let Some(rate) = args.rate {
        open_loop_run(&args, &data, rate);
        return;
    }

    let config = QueryServiceConfig {
        shard_grid: args.shards,
        flush_batch: args.flush,
        backend: if args.sequential {
            Backend::Sequential
        } else {
            Backend::Parallel
        },
        ..QueryServiceConfig::default()
    };
    // An overlay layer of the same world, for the windowed join family.
    let overlay_segs = if args.overlay > 0 {
        let side = (data.world.max.x - data.world.min.x) as u32;
        let max_len = (side / 64).clamp(2, 16);
        uniform_segments(args.overlay, side, max_len, args.seed ^ 7).segs
    } else {
        Vec::new()
    };
    if !overlay_segs.is_empty() {
        println!(
            "overlay: {} segments (join family enabled)",
            overlay_segs.len()
        );
    }

    let plan = match args.fault_seed {
        Some(seed) => {
            println!(
                "fault plan: seed {seed}, round-abort + arena-overflow at rate {}",
                args.fault_rate
            );
            Arc::new(
                FaultPlan::new(seed)
                    .with(
                        FaultSite::RoundAbort,
                        FaultMode::Seeded {
                            rate: args.fault_rate,
                        },
                    )
                    .with(
                        FaultSite::ArenaOverflow,
                        FaultMode::Seeded {
                            rate: args.fault_rate,
                        },
                    ),
            )
        }
        None => Arc::new(FaultPlan::disabled()),
    };

    let snap_path = args
        .snapshot_dir
        .as_ref()
        .map(|d| std::path::Path::new(d).join("service.snap"));

    let t0 = Instant::now();
    let service = if let (Some(path), true) = (&snap_path, args.warm_restart) {
        let t_warm = Instant::now();
        let (service, warm) = QueryService::try_restore_or_build(
            config,
            data.world,
            data.segs.clone(),
            overlay_segs.clone(),
            plan,
            path,
        )
        .unwrap_or_else(|e| panic!("service build rejected: {e}"));
        let restore_ms = t_warm.elapsed().as_secs_f64() * 1e3;
        if warm {
            // A reference cold build of the same request, so the run
            // reports the restart speedup it actually bought.
            let t_cold = Instant::now();
            let cold = QueryService::try_build_with_overlay(
                config,
                data.world,
                data.segs.clone(),
                overlay_segs.clone(),
            )
            .unwrap_or_else(|e| panic!("service build rejected: {e}"));
            let cold_ms = t_cold.elapsed().as_secs_f64() * 1e3;
            drop(cold);
            println!(
                "warm restart: served from snapshot in {:.2} ms \
                 (cold build {:.2} ms, {:.1}x faster)",
                restore_ms,
                cold_ms,
                cold_ms / restore_ms.max(1e-9)
            );
        } else {
            let cause = service
                .recovery_events()
                .into_iter()
                .rev()
                .find(|e| e.action == RecoveryAction::ColdRestart)
                .map(|e| e.error.to_string())
                .unwrap_or_else(|| "unknown cause".to_string());
            println!("warm restart: cold fallback in {restore_ms:.2} ms — {cause}");
        }
        service
    } else {
        QueryService::try_build_with_faults(
            config,
            data.world,
            data.segs.clone(),
            overlay_segs.clone(),
            plan,
        )
        .unwrap_or_else(|e| panic!("service build rejected: {e}"))
    };
    println!(
        "built {} shards in {:.1} ms",
        service.num_shards(),
        t0.elapsed().as_secs_f64() * 1e3
    );
    println!("per-shard build trace (rounds / scan passes / peak lanes / arena high water):");
    for s in &service.stats().shards {
        let trace = &s.build_trace;
        let passes: u64 = trace.iter().map(|t| t.scan_passes).sum();
        let peak_lanes = trace.iter().map(|t| t.active_elements).max().unwrap_or(0);
        let arena_hw = trace
            .iter()
            .map(|t| t.arena_high_water_bytes)
            .max()
            .unwrap_or(0);
        let wall: u64 = trace.iter().map(|t| t.wall_nanos).sum();
        println!(
            "  shard {:>3}: {:>3} / {:>5} / {:>8} / {:>7} KiB  ({:.2} ms)",
            s.shard,
            trace.len(),
            passes,
            peak_lanes,
            arena_hw / 1024,
            wall as f64 / 1e6
        );
    }

    let mix = if args.dominance {
        RequestMix::WITH_DOMINANCE
    } else if args.updates {
        RequestMix::WITH_UPDATES
    } else if args.overlay > 0 {
        RequestMix::WITH_JOINS
    } else {
        RequestMix::DEFAULT
    };
    // WITH_DOMINANCE carries writes too, so it rides the update-aware
    // stream generator.
    let mut stream = if args.updates || args.dominance {
        request_stream_with_updates(
            data.world,
            args.requests,
            mix,
            args.seed ^ 1,
            data.segs.len(),
        )
    } else {
        request_stream(data.world, args.requests, mix, args.seed ^ 1)
    };
    if args.hot > 0.0 {
        // Same skew the open-loop path applies — the direct path has no
        // cache, so comparing the two runs isolates what admission buys.
        skew_hot_windows(
            &mut stream,
            &data.world,
            args.hot,
            args.hot_count,
            args.seed ^ 1,
        );
    }
    service.reset_stats();

    let t1 = Instant::now();
    std::thread::scope(|scope| {
        let per_thread = stream.len().div_ceil(args.threads);
        for slice in stream.chunks(per_thread.max(1)) {
            let service = &service;
            scope.spawn(move || {
                for batch in slice.chunks(args.batch) {
                    let out = service.execute_batch(batch);
                    assert_eq!(out.len(), batch.len());
                }
            });
        }
    });
    let elapsed = t1.elapsed().as_secs_f64();

    let stats = service.stats();
    println!(
        "{} requests on {} threads in {:.3} s  →  {:.0} req/s",
        stats.requests,
        args.threads,
        elapsed,
        stats.requests as f64 / elapsed
    );
    println!(
        "probes: {} (fan-out ×{:.2}), knn rounds: {}, scan-model primitives: {}",
        stats.total_probes(),
        stats.total_probes() as f64 / stats.requests.max(1) as f64,
        stats.knn_rounds,
        stats.total_primitives()
    );
    if args.updates {
        println!(
            "epoch: {}, compactions: {} ({} failed), overlay: {} pending / {} tombstones",
            stats.epoch,
            stats.compactions,
            stats.failed_compactions,
            stats.overlay_size,
            stats.tombstones
        );
    }
    for q in [0.5, 0.9, 0.99] {
        if let Some(us) = stats.flush_latency_quantile_micros(q) {
            println!("flush latency p{:<4} < {} µs", (q * 100.0) as u32, us);
        }
    }
    println!("per-shard (segments / probes / batches / max queue / retries / rebuilds / faults):");
    for s in &stats.shards {
        println!(
            "  shard {:>3}: {:>7} / {:>7} / {:>5} / {:>6} / {:>4} / {:>4} / {:>4}{}",
            s.shard,
            s.segments,
            s.probes,
            s.batches,
            s.max_queue_depth,
            s.retries,
            s.rebuilds,
            s.faults_injected,
            if s.degraded { "  [degraded]" } else { "" }
        );
    }
    let events = service.recovery_events();
    if !events.is_empty() {
        println!("recovery events ({}):", events.len());
        for e in &events {
            println!("  shard {:>3}: {:?} — {}", e.shard, e.action, e.error);
        }
    }
    if stats.join_requests > 0 {
        println!(
            "join requests: {} — per-shard frontier-join trace \
             (rounds / pairs / tested / peak frontier / scan passes):",
            stats.join_requests
        );
        for s in &stats.shards {
            let Some(j) = &s.join else { continue };
            let passes: u64 = j.trace.iter().map(|t| t.scan_passes).sum();
            println!(
                "  shard {:>3}: {:>3} / {:>6} / {:>8} / {:>8} / {:>5}",
                s.shard, j.rounds, j.pairs, j.pairs_tested, j.frontier_peak, passes
            );
        }
    }

    if let Some(path) = &snap_path {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("--snapshot-dir: {e}"));
        }
        match service.save_snapshot(path) {
            Ok(()) => {
                let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
                println!("snapshot saved: {} ({bytes} bytes)", path.display());
            }
            Err(e) => println!("snapshot not saved: {e}"),
        }
    }

    if args.self_check && (args.updates || args.dominance) {
        self_check_updates(&args, &data, &stream);
    } else if args.self_check {
        // Brute force runs over the service's own logical collection:
        // identical to the dataset for a fresh build, and the restored
        // state (pending inserts, tombstones included) after a warm
        // restart from a post-writes snapshot.
        let oracle = service.segments();
        let sample: Vec<Request> = stream.iter().step_by(97).copied().collect();
        let out = service.execute_batch(&sample);
        for (i, (r, resp)) in sample.iter().zip(&out).enumerate() {
            match r {
                Request::Window(q) => {
                    let brute: Vec<u32> = (0..oracle.len() as u32)
                        .filter(|&id| {
                            dp_geom::clip_segment_closed(&oracle[id as usize], q).is_some()
                        })
                        .collect();
                    let ids = resp
                        .try_window(i)
                        .unwrap_or_else(|e| panic!("sampled request {i}: {e}"));
                    assert_eq!(ids, brute, "window {q}");
                }
                Request::PointInWindow(p) => {
                    let q = Rect::point(*p);
                    let brute: Vec<u32> = (0..oracle.len() as u32)
                        .filter(|&id| {
                            dp_geom::clip_segment_closed(&oracle[id as usize], &q).is_some()
                        })
                        .collect();
                    let ids = resp
                        .try_point_in_window(i)
                        .unwrap_or_else(|e| panic!("sampled request {i}: {e}"));
                    assert_eq!(ids, brute, "point {p:?}");
                }
                Request::KNearest { p, k } => {
                    let found = resp
                        .try_knearest(i)
                        .unwrap_or_else(|e| panic!("sampled request {i}: {e}"));
                    assert_eq!(found, brute_knearest(&oracle, *p, *k));
                }
                Request::Join(q) => {
                    let pairs = resp
                        .try_join(i)
                        .unwrap_or_else(|e| panic!("sampled request {i}: {e}"));
                    assert_eq!(
                        pairs,
                        brute_force_join_in(&oracle, &overlay_segs, q),
                        "join window {q}"
                    );
                }
                Request::Skyline(q) => {
                    let ids = resp
                        .try_skyline(i)
                        .unwrap_or_else(|e| panic!("sampled request {i}: {e}"));
                    assert_eq!(ids, brute_skyline_in(&oracle, q), "skyline {q}");
                }
                Request::DominanceAgg(p) => {
                    let got = resp
                        .try_dominance_agg(i)
                        .unwrap_or_else(|e| panic!("sampled request {i}: {e}"));
                    assert_eq!(got, brute_dominance_agg(&oracle, *p), "dominance {p:?}");
                }
                Request::Insert(_) | Request::Delete(_) => {
                    unreachable!("writes only appear in --updates/--dominance streams")
                }
            }
        }
        println!("self-check OK over {} sampled requests", sample.len());
    }
}

/// Replays a prefix of the update stream sequentially on a fresh service
/// and checks every response against an eager insert/delete oracle that
/// answers reads by brute force over its live collection.
fn self_check_updates(args: &Args, data: &Dataset, stream: &[Request]) {
    let config = QueryServiceConfig {
        shard_grid: args.shards,
        flush_batch: args.flush,
        backend: if args.sequential {
            Backend::Sequential
        } else {
            Backend::Parallel
        },
        ..QueryServiceConfig::default()
    };
    let service = QueryService::try_build(config, data.world, data.segs.clone())
        .unwrap_or_else(|e| panic!("self-check service build rejected: {e}"));
    let sample = &stream[..stream.len().min(2_000)];
    let mut live: Vec<LineSeg> = data.segs.clone();
    let out = service.execute_batch(sample);
    for (i, (r, resp)) in sample.iter().zip(&out).enumerate() {
        match r {
            Request::Window(q) => {
                let brute: Vec<u32> = (0..live.len() as u32)
                    .filter(|&id| dp_geom::clip_segment_closed(&live[id as usize], q).is_some())
                    .collect();
                let ids = resp
                    .try_window(i)
                    .unwrap_or_else(|e| panic!("sampled request {i}: {e}"));
                assert_eq!(ids, brute, "window {q}");
            }
            Request::PointInWindow(p) => {
                let q = Rect::point(*p);
                let brute: Vec<u32> = (0..live.len() as u32)
                    .filter(|&id| dp_geom::clip_segment_closed(&live[id as usize], &q).is_some())
                    .collect();
                let ids = resp
                    .try_point_in_window(i)
                    .unwrap_or_else(|e| panic!("sampled request {i}: {e}"));
                assert_eq!(ids, brute, "point {p:?}");
            }
            Request::KNearest { p, k } => {
                let found = resp
                    .try_knearest(i)
                    .unwrap_or_else(|e| panic!("sampled request {i}: {e}"));
                assert_eq!(found, brute_knearest(&live, *p, *k));
            }
            Request::Join(_) => unreachable!("the update-family mixes carry no joins"),
            Request::Skyline(q) => {
                let ids = resp
                    .try_skyline(i)
                    .unwrap_or_else(|e| panic!("sampled request {i}: {e}"));
                assert_eq!(ids, brute_skyline_in(&live, q), "skyline {q}");
            }
            Request::DominanceAgg(p) => {
                let got = resp
                    .try_dominance_agg(i)
                    .unwrap_or_else(|e| panic!("sampled request {i}: {e}"));
                assert_eq!(got, brute_dominance_agg(&live, *p), "dominance {p:?}");
            }
            Request::Insert(seg) => {
                let got = resp
                    .try_inserted(i)
                    .unwrap_or_else(|e| panic!("sampled request {i}: {e}"));
                assert_eq!(got, live.len() as u32, "insert logical id");
                live.push(*seg);
            }
            Request::Delete(id) => {
                let got = resp
                    .try_deleted(i)
                    .unwrap_or_else(|e| panic!("sampled request {i}: {e}"));
                assert_eq!(got, *id, "delete echo");
                live.remove(*id as usize);
            }
        }
    }
    let stats = service.stats();
    println!(
        "self-check OK over {} replayed requests (epoch {}, {} compactions)",
        sample.len(),
        stats.epoch,
        stats.compactions
    );
}

/// The service configuration shared by the pipelined run modes. The
/// lane queue bound defaults to the larger of the config default and one
/// flush batch (validation requires `queue_bound >= flush_batch`);
/// `--queue` overrides it to trade shed rate against tail latency.
fn pipeline_config(args: &Args) -> QueryServiceConfig {
    let default = QueryServiceConfig::default();
    QueryServiceConfig {
        shard_grid: args.shards,
        flush_batch: args.flush,
        queue_bound: args.queue.unwrap_or(default.queue_bound).max(args.flush),
        backend: if args.sequential {
            Backend::Sequential
        } else {
            Backend::Parallel
        },
        ..default
    }
}

/// Sleeps until `due`. Oversleep from coarse OS timers is fine for an
/// open-loop driver — late arrivals submit immediately, so the *average*
/// offered rate tracks the schedule — and sleeping (instead of spinning)
/// leaves the CPU to the lane workers, which matters on small machines.
fn pace_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Open-loop replay: requests flow through the pipelined admission layer
/// on a fixed Poisson arrival schedule, and the driver reports end-to-end
/// latency quantiles plus the admission counters.
fn open_loop_run(args: &Args, data: &Dataset, rate: f64) {
    let t0 = Instant::now();
    let service = Arc::new(
        QueryService::try_build(pipeline_config(args), data.world, data.segs.clone())
            .unwrap_or_else(|e| panic!("service build rejected: {e}")),
    );
    println!(
        "built {} shards in {:.1} ms",
        service.num_shards(),
        t0.elapsed().as_secs_f64() * 1e3
    );

    let mix = if args.dominance {
        RequestMix::WITH_DOMINANCE
    } else if args.updates {
        RequestMix::WITH_UPDATES
    } else {
        RequestMix::DEFAULT
    };
    let mut sched = open_loop_schedule(
        data.world,
        args.requests,
        mix,
        rate,
        args.seed ^ 1,
        data.segs.len(),
    );
    if args.hot > 0.0 {
        let mut reqs: Vec<Request> = sched.arrivals.iter().map(|a| a.request).collect();
        let n = skew_hot_windows(
            &mut reqs,
            &data.world,
            args.hot,
            args.hot_count,
            args.seed ^ 1,
        );
        for (a, r) in sched.arrivals.iter_mut().zip(reqs) {
            a.request = r;
        }
        println!(
            "hot-window skew: {n} of {} requests collapse onto {} hot windows",
            sched.arrivals.len(),
            args.hot_count
        );
    }
    let lanes = args.lanes.unwrap_or_else(|| service.num_shards());
    let pipeline = ServicePipeline::new(Arc::clone(&service), lanes, args.policy)
        .unwrap_or_else(|e| panic!("pipeline rejected: {e}"));
    println!(
        "open loop: {} arrivals at {:.0} req/s over {} lanes, {:?} policy, flush {}",
        sched.arrivals.len(),
        rate,
        pipeline.num_lanes(),
        args.policy,
        args.flush,
    );
    service.reset_stats();

    let start = Instant::now();
    let mut tickets = Vec::with_capacity(sched.arrivals.len());
    for a in &sched.arrivals {
        pace_until(start + Duration::from_micros(a.at_micros));
        tickets.push(pipeline.submit(a.request));
    }
    let dispatch_secs = start.elapsed().as_secs_f64();

    // Every ticket resolves within the bound or the admission layer has
    // leaked a reply slot — the "no unshed request waits forever" check.
    let mut hist = LatencyHistogram::new();
    let (mut shed, mut rejected) = (0u64, 0u64);
    let mut last_done = start;
    // Sampled responses are retained for the post-run brute-force check;
    // the read-only mixes never mutate state, so every sample can be
    // verified against the initial segment set after the timed run.
    // Update and dominance streams mutate state as they drain, so their
    // sampled replies can't be checked against a static oracle.
    let sample_reads = args.self_check && !args.updates && !args.dominance;
    let mut samples: Vec<(Request, Response)> = Vec::new();
    for (i, t) in tickets.into_iter().enumerate() {
        // Tickets are in arrival order; latency runs from the due time so
        // a late submitter cannot hide the queue it is stuck behind.
        let due = start + Duration::from_micros(sched.arrivals[i].at_micros);
        let (resp, done) = t
            .wait_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("a request waited > 10 s: reply slot leaked"));
        if matches!(resp, Response::Rejected(SpatialError::Overloaded { .. })) {
            shed += 1;
        } else {
            if matches!(resp, Response::Rejected(_)) {
                rejected += 1;
            }
            hist.record(done.saturating_duration_since(due));
            if sample_reads && i % 97 == 0 {
                samples.push((sched.arrivals[i].request, resp));
            }
        }
        if done > last_done {
            last_done = done;
        }
    }
    let span = last_done
        .saturating_duration_since(start)
        .as_secs_f64()
        .max(1e-9);
    println!(
        "dispatched in {:.3} s (virtual span {:.3} s); served {} + shed {} \
         (+ {} rejected) in {:.3} s  →  {:.0} req/s",
        dispatch_secs,
        sched.span_micros() as f64 / 1e6,
        hist.count(),
        shed,
        rejected,
        span,
        hist.count() as f64 / span,
    );
    println!("latency: {}", hist.summary());

    let stats = service.stats();
    println!("per-shard (admitted / batches / cache hits / shed / max queue / mean wait µs):");
    for s in &stats.shards {
        println!(
            "  shard {:>3}: {:>7} / {:>5} / {:>6} / {:>6} / {:>6} / {:>8.1}",
            s.shard,
            s.admitted,
            s.coalesced_batches,
            s.cache_hits,
            s.shed,
            s.max_queue_depth,
            s.queue_wait_micros as f64 / s.admitted.max(1) as f64,
        );
    }
    let cs = service.cache_stats();
    println!(
        "cache: {} hits / {} misses / {} admitted / {} invalidations",
        cs.hits, cs.misses, cs.admitted, cs.invalidations
    );
    if args.updates {
        let after = service.stats();
        println!(
            "epoch: {}, compactions: {} ({} failed)",
            after.epoch, after.compactions, after.failed_compactions
        );
    }
    drop(pipeline);

    if sample_reads {
        for (i, (req, resp)) in samples.iter().enumerate() {
            match req {
                Request::Window(q) => {
                    let brute: Vec<u32> = (0..data.segs.len() as u32)
                        .filter(|&id| {
                            dp_geom::clip_segment_closed(&data.segs[id as usize], q).is_some()
                        })
                        .collect();
                    let ids = resp
                        .try_window(i)
                        .unwrap_or_else(|e| panic!("sampled open-loop response {i}: {e}"));
                    assert_eq!(ids, brute, "window {q}");
                }
                Request::PointInWindow(p) => {
                    let q = Rect::point(*p);
                    let brute: Vec<u32> = (0..data.segs.len() as u32)
                        .filter(|&id| {
                            dp_geom::clip_segment_closed(&data.segs[id as usize], &q).is_some()
                        })
                        .collect();
                    let ids = resp
                        .try_point_in_window(i)
                        .unwrap_or_else(|e| panic!("sampled open-loop response {i}: {e}"));
                    assert_eq!(ids, brute, "point {p:?}");
                }
                Request::KNearest { p, k } => {
                    let found = resp
                        .try_knearest(i)
                        .unwrap_or_else(|e| panic!("sampled open-loop response {i}: {e}"));
                    assert_eq!(found, brute_knearest(&data.segs, *p, *k));
                }
                // The open-loop mixes carry no joins, and writes are
                // excluded by `sample_reads`; anything else here means
                // the mix and the checker have drifted apart.
                other => unreachable!("unsampled request kind {other:?}"),
            }
        }
        println!(
            "self-check OK over {} sampled open-loop responses",
            samples.len()
        );
    } else if args.self_check {
        // Update streams mutate state as they drain, so sampled replies
        // can't be checked against a static oracle; replay a prefix of
        // the same request sequence against the eager oracle instead.
        let reqs: Vec<Request> = sched.arrivals.iter().map(|a| a.request).collect();
        self_check_updates(args, data, &reqs);
    }

    if let Some(budget) = args.slo_p999 {
        let p999 = hist.quantile_micros(0.999).unwrap_or(0);
        if p999 > budget {
            eprintln!("SLO FAIL: p999 < {p999} µs exceeds the {budget} µs budget");
            std::process::exit(1);
        }
        println!("SLO OK: p999 < {p999} µs within the {budget} µs budget");
    }
}

/// Saturation throughput over shard-grid × lane-count combinations: the
/// whole stream is pushed through a backpressured pipeline as fast as
/// the submitter can go, so the table shows how serving rate scales with
/// the two pool widths.
fn sweep(args: &Args, data: &Dataset) {
    let mix = if args.dominance {
        RequestMix::WITH_DOMINANCE
    } else if args.updates {
        RequestMix::WITH_UPDATES
    } else {
        RequestMix::DEFAULT
    };
    let mut stream = request_stream_with_updates(
        data.world,
        args.requests,
        mix,
        args.seed ^ 1,
        data.segs.len(),
    );
    if args.hot > 0.0 {
        skew_hot_windows(
            &mut stream,
            &data.world,
            args.hot,
            args.hot_count,
            args.seed ^ 1,
        );
    }
    println!(
        "saturation sweep: {} requests, Block policy, flush {}, hot {:.2}",
        stream.len(),
        args.flush,
        args.hot
    );
    println!(
        "{:>6} {:>6} {:>10} {:>9} {:>11}",
        "shards", "lanes", "req/s", "batches", "mean batch"
    );
    for shards in [1u32, 2, 4] {
        for lanes in [1usize, 2, 4, 8] {
            let config = QueryServiceConfig {
                shard_grid: shards,
                ..pipeline_config(args)
            };
            let service = Arc::new(
                QueryService::try_build(config, data.world, data.segs.clone())
                    .unwrap_or_else(|e| panic!("service build rejected: {e}")),
            );
            let pipeline =
                ServicePipeline::new(Arc::clone(&service), lanes, AdmissionPolicy::Block)
                    .unwrap_or_else(|e| panic!("pipeline rejected: {e}"));
            service.reset_stats();
            let t = Instant::now();
            let out = pipeline.submit_all(&stream);
            let secs = t.elapsed().as_secs_f64().max(1e-9);
            assert_eq!(out.len(), stream.len());
            let stats = service.stats();
            let batches: u64 = stats.shards.iter().map(|s| s.coalesced_batches).sum();
            let admitted: u64 = stats.shards.iter().map(|s| s.admitted).sum();
            println!(
                "{:>6} {:>6} {:>10.0} {:>9} {:>11.1}",
                shards,
                lanes,
                stream.len() as f64 / secs,
                batches,
                admitted as f64 / batches.max(1) as f64
            );
        }
    }
}

/// Self-check oracle for `Request::Skyline`: among the segments
/// intersecting the window (closed clip, matching the probe path), the
/// ids whose midpoints no other candidate midpoint dominates under
/// closed max-dominance, sorted ascending.
fn brute_skyline_in(live: &[LineSeg], q: &Rect) -> Vec<u32> {
    let cands: Vec<(u32, f64, f64)> = (0..live.len() as u32)
        .filter(|&id| dp_geom::clip_segment_closed(&live[id as usize], q).is_some())
        .map(|id| {
            let m = live[id as usize].midpoint();
            (id, m.x, m.y)
        })
        .collect();
    let dominates = |a: &(u32, f64, f64), b: &(u32, f64, f64)| {
        a.1 >= b.1 && a.2 >= b.2 && (a.1 > b.1 || a.2 > b.2)
    };
    let mut out: Vec<u32> = cands
        .iter()
        .filter(|p| !cands.iter().any(|c| dominates(c, p)))
        .map(|p| p.0)
        .collect();
    out.sort_unstable();
    out
}

/// Self-check oracle for `Request::DominanceAgg`: `(count, sum, max)`
/// of the quantized-length weights over every live segment whose
/// midpoint lies in the closed lower-left quadrant of the query point
/// (in-world midpoints make the world clip a no-op, so the plain filter
/// matches the service's probe-then-filter exactly).
fn brute_dominance_agg(live: &[LineSeg], p: dp_geom::Point) -> (u64, u64, u64) {
    let mut agg = (0u64, 0u64, 0u64);
    for seg in live {
        let m = seg.midpoint();
        if m.x <= p.x && m.y <= p.y {
            let w = dp_spatial::dominance::dominance_weight(seg);
            agg = (agg.0 + 1, agg.1 + w, agg.2.max(w));
        }
    }
    agg
}
