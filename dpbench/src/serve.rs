//! The three serving workloads: a `QueryService` over 20 000 uniform
//! segments on a 2 × 2 shard grid behind a `ServicePipeline`.
//!
//! * `serve_uniform` — default mix, no skew: ≈ 3 % cache hits, so every
//!   request pays routing, lock-step shard descent, exact filter and
//!   merge. Engine-bound; the cache is bypassed.
//! * `serve_hot` — the same with 90 % of probes drawn from 64 hot windows:
//!   `admission` and `cache` do most of the work and the engine little.
//! * `serve_write` — 10 % writes beside reads on **one** lane (with more
//!   lanes cross-lane write order is not arrival order, and the
//!   generator's `Delete` ids go stale): overlay ladder, tombstones, cache
//!   invalidation, background compaction, snapshot.
//!
//! Each run has three phases. *Open loop*: a single generator thread
//! replays a Poisson schedule at the workload's fixed rate against a
//! fresh service and pipeline (policy `Shed`), sleeping (never spinning)
//! until each arrival is due and stamping latency **from the due time**,
//! so a stalled generator or a backlog shows as latency instead of being
//! silently omitted; percentiles are taken per window of the schedule and
//! the median over windows is reported. *Saturation*: closed loop,
//! 512-request `submit_batch(..).wait_all()` chunks under `Block`.
//! *Snapshot*: a cold build of the same collection is saved before the
//! first phase and warm-restored in bursts at every seam of the run.
//!
//! `--seconds` sizes the work (arrivals = rate × share of the budget;
//! saturation reps from the reference box's nominal rate), so one seed
//! does the same work wherever it runs; a time cap stops a phase early on
//! a much slower machine.

use crate::common::{check_read_reply, check_windows, sub_seed, windows, Cfg, Fingerprint};
use crate::metrics::{median, percentile_sorted, Kind, Report};
use crate::probe::KernelCosts;
use crate::trace::{SpanId, Tracer, CLIENT, HARNESS};
use dp_geom::{LineSeg, Rect};
use dp_service::{
    AdmissionPolicy, CacheKind, CacheLookup, CacheStats, QueryService, QueryServiceConfig,
    Response, ServicePipeline, ServiceStats, WindowCache,
};
use dp_spatial::bucket_pmr::build_bucket_pmr;
use dp_spatial::snapshot::{decode_tree_snapshot, encode_tree_snapshot, SnapshotFamily};
use dp_spatial::SpatialError;
use dp_workloads::{
    open_loop_schedule, request_stream_with_updates, skew_hot_windows, uniform_segments, Arrival,
    Request, RequestMix,
};
use scan_model::{FaultPlan, Machine};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEGS: usize = 20_000;
const WORLD: u32 = 1024;
const MAX_LEN: u32 = 16;
const SHARD_GRID: u32 = 2;
const HOT_FRACTION: f64 = 0.9;
const HOT_WINDOWS: usize = 64;
const SAT_CHUNK: usize = 512;
/// Shares of `--seconds` the open-loop and saturation phases are sized
/// for; the rest covers the cold builds and the snapshot phase.
const OPEN_SHARE: f64 = 0.5;
const SAT_SHARE: f64 = 0.35;
/// Writes applied to the snapshot's source service (write flavour), so
/// the saved state always has the same pending inserts and tombstones.
const PENDING_INSERTS: usize = 128;
const PENDING_DELETES: usize = 64;
/// The head of the schedule left out of the percentiles while lazily
/// started threads and the result cache warm up, seconds.
const WARMUP_S: f64 = 0.5;
/// A window whose backlog grew by more than this share of its arrivals
/// is not reported: its percentiles describe a transient, not the rate.
const BACKLOG_GROWTH: f64 = 0.1;
/// Every `SAMPLE_EVERY`-th reply is kept and checked after the run.
const SAMPLE_EVERY: usize = 97;
/// Warm restores per burst. The untraced run takes a burst at every
/// seam between its phases and saturation reps (13 at `--seconds 15`, 10
/// on the write flavour), the traced run `TRACED_BURSTS` back to back. A
/// restore is a few milliseconds on one thread, and the reference box
/// slows a single busy core by 1.4× for episodes of 0.3–4 s a few times a
/// minute: thirty restores back to back sat inside an episode or outside
/// it, and the figure was 3.65 ms in one process and 5.05 ms in the next.
/// Spread over the whole run, their lower decile is taken between
/// episodes in either case.
const RESTORE_BURST: usize = 10;
const TRACED_BURSTS: usize = 3;
const TICKET_TIMEOUT: Duration = Duration::from_secs(10);
const ORACLE_WINDOWS: usize = 100;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavor {
    Uniform,
    Hot,
    Write,
}

struct Params {
    /// Offered open-loop load, requests per second.
    rate: f64,
    lanes: usize,
    /// Length of one percentile window of the open-loop schedule, seconds.
    window_s: f64,
    /// Requests per saturation rep.
    sat_rep: usize,
    /// Saturation throughput of the reference box, requests per second:
    /// sizes the saturation phase, never reported.
    sat_nominal_rps: f64,
    /// Requests of the eager (`execute_batch`) rep of the traced run.
    eager_rep: usize,
    /// Requests sent one at a time for the unloaded round trip.
    rtt_n: usize,
    mix: RequestMix,
}

impl Flavor {
    fn params(self) -> Params {
        /// Window 54 : point 27 : k-nearest 9 : insert 7 : delete 3.
        const WRITE_MIX: RequestMix = RequestMix {
            window: 54,
            point: 27,
            knearest: 9,
            join: 0,
            insert: 7,
            delete: 3,
            skyline: 0,
            dominance: 0,
        };
        match self {
            Flavor::Uniform => Params {
                rate: 5_000.0,
                lanes: 2,
                window_s: 1.0,
                sat_rep: 20_000,
                sat_nominal_rps: 30_000.0,
                eager_rep: 10_000,
                rtt_n: 4_000,
                mix: RequestMix::DEFAULT,
            },
            Flavor::Hot => Params {
                rate: 10_000.0,
                lanes: 2,
                window_s: 1.0,
                sat_rep: 30_000,
                sat_nominal_rps: 48_000.0,
                eager_rep: 7_000,
                rtt_n: 4_000,
                mix: RequestMix::DEFAULT,
            },
            // Two-second windows: the background compaction (every 256
            // writes, ≈ 2.5 s at this rate) then touches a small share of
            // every window instead of all of some and none of others.
            Flavor::Write => Params {
                rate: 1_000.0,
                lanes: 1,
                window_s: 2.0,
                sat_rep: 3_000,
                sat_nominal_rps: 3_000.0,
                eager_rep: 3_000,
                rtt_n: 1_500,
                mix: WRITE_MIX,
            },
        }
    }
}

pub struct Inputs {
    world: Rect,
    segs: Vec<LineSeg>,
    config: QueryServiceConfig,
    arrivals: Vec<Arrival>,
    /// `rtt_n` requests for the unloaded round trip, then one warm-up rep
    /// plus `sat_reps` reported reps of `sat_rep` requests, consumed in
    /// this order on the set-up's service (the write flavour's delete ids
    /// are only valid in sequence).
    sat_stream: Vec<Request>,
    rtt_n: usize,
    sat_rep: usize,
    sat_reps: usize,
    /// Requests per eager rep, taken from the head of `sat_stream`.
    eager_rep: usize,
    /// Built in set-up; the closed-loop phases run on it.
    service: Arc<QueryService>,
    /// Segments inserted before the snapshot (write flavour).
    pending: Vec<LineSeg>,
    check_windows: Vec<Rect>,
    fingerprint: Fingerprint,
}

/// Latency percentiles of one window of the open-loop schedule, µs.
struct Window {
    p50: f64,
    p90: f64,
    p99: f64,
    max: f64,
}

/// One open-loop run, as measured.
struct OpenRun {
    /// Reportable windows, in schedule order.
    windows: Vec<Window>,
    /// Windows dropped because their backlog was still growing.
    discarded: usize,
    /// How late the generator submitted each arrival, µs, sorted.
    late_us: Vec<f64>,
    shed: u64,
    rejected: u64,
    timed_out: u64,
    samples: Vec<(Request, Response)>,
    /// Every reply in arrival order (write flavour only, for the oracle
    /// replay).
    replies: Vec<Response>,
    stats: ServiceStats,
    cache: CacheStats,
    final_segs: Vec<LineSeg>,
}

fn micros(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

/// Replays `arrivals` against a fresh service and pipeline. The service
/// build and the pipeline's start and shutdown are the run's untimed
/// frame; the `open_loop` span inside it is the timed region.
fn open_loop(
    flavor: Flavor,
    p: &Params,
    inp: &Inputs,
    arrivals: &[Arrival],
    tr: &mut Tracer,
) -> OpenRun {
    tr.timed(HARNESS, "open_loop_run", |tr| {
        let (service, _) = tr.timed("dp-service", "QueryService::build", |_| {
            Arc::new(QueryService::build(inp.config, inp.world, inp.segs.clone()))
        });
        let pipeline = ServicePipeline::new(Arc::clone(&service), p.lanes, AdmissionPolicy::Shed)
            .expect("a positive lane count is a valid pipeline");
        let mut run = tr
            .timed(HARNESS, "open_loop", |tr| {
                dispatch(flavor, p, arrivals, &pipeline, tr)
            })
            .0;
        run.stats = service.stats();
        run.cache = service.cache_stats();
        drop(pipeline);
        if flavor == Flavor::Write {
            run.final_segs = service.segments();
        }
        run
    })
    .0
}

/// The generator: dispatches on schedule, then collects the tickets.
fn dispatch(
    flavor: Flavor,
    p: &Params,
    arrivals: &[Arrival],
    pipeline: &ServicePipeline,
    tr: &mut Tracer,
) -> OpenRun {
    let n = arrivals.len();
    let tracing = tr.enabled();
    let root = tr.current();
    let first_at = arrivals[0].at_micros;
    // (due, submit start, submit end) per arrival.
    let mut sent: Vec<(Instant, Instant, Instant)> = Vec::with_capacity(n);
    let mut tickets = Vec::with_capacity(n);
    let start = Instant::now() + Duration::from_millis(2);
    for a in arrivals {
        let due = start + Duration::from_micros(a.at_micros - first_at);
        // Sleep, never spin: on a two-core box a spinning generator
        // would take a core from the lane workers it is measuring.
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let t0 = Instant::now();
        tickets.push(pipeline.submit(a.request));
        let t1 = if tracing { Instant::now() } else { t0 };
        sent.push((due, t0, t1));
    }

    let mut run = OpenRun {
        windows: Vec::new(),
        discarded: 0,
        late_us: sent
            .iter()
            .map(|(due, t0, _)| micros(t0.saturating_duration_since(*due)))
            .collect(),
        shed: 0,
        rejected: 0,
        timed_out: 0,
        samples: Vec::new(),
        replies: Vec::new(),
        stats: pipeline.service().stats(),
        cache: CacheStats::default(),
        final_segs: Vec::new(),
    };
    run.late_us.sort_by(f64::total_cmp);

    // Tickets are collected after dispatch; `wait_timed` returns the
    // instant the worker fulfilled the slot, not the instant we asked.
    // `done[i]` is when arrival `i` left the system; a refused request
    // leaves at once.
    let mut done: Vec<(Instant, bool)> = Vec::with_capacity(n);
    let mut wait_spans: Vec<(SpanId, Instant, Instant)> = Vec::new();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let (due, t0, t1) = sent[i];
        let w0 = if tracing { Instant::now() } else { t0 };
        let Ok((resp, at)) = ticket.wait_timeout(TICKET_TIMEOUT) else {
            // A leaked reply slot: everything still outstanding fails.
            run.timed_out = (n - i) as u64;
            break;
        };
        let served = match &resp {
            Response::Rejected(SpatialError::Overloaded { .. }) => {
                run.shed += 1;
                false
            }
            Response::Rejected(_) => {
                run.rejected += 1;
                false
            }
            _ => true,
        };
        done.push((at.max(due), served));
        if tracing {
            let req = tr.add(root, CLIENT, "request", due, at);
            tr.add(req, "dp-service.admission", "admission.submit", t0, t1);
            wait_spans.push((req, w0, Instant::now()));
        }
        if flavor == Flavor::Write {
            run.replies.push(resp);
        } else if served && i % SAMPLE_EVERY == 0 {
            run.samples.push((arrivals[i].request, resp));
        }
    }
    for (req, w0, w1) in wait_spans {
        tr.add(req, "dp-service.admission", "ticket.wait", w0, w1);
    }

    // Percentile windows over the schedule after the warm-up.
    let span_s = (arrivals[n - 1].at_micros - first_at) as f64 / 1e6;
    let warmup_s = WARMUP_S.min(span_s / 8.0);
    let window_s = p.window_s.min((span_s - warmup_s) / 3.0);
    let mut left: Vec<Instant> = done.iter().map(|d| d.0).collect();
    left.sort_unstable();
    // Requests due by `t` and not yet out of the system at `t`.
    let backlog = |t: Instant| -> i64 {
        let due_by = sent.partition_point(|s| s.0 <= t) as i64;
        due_by - left.partition_point(|&d| d <= t) as i64
    };
    let mut k = 0;
    loop {
        let lo = start + Duration::from_secs_f64(warmup_s + k as f64 * window_s);
        let hi = lo + Duration::from_secs_f64(window_s);
        if hi > start + Duration::from_secs_f64(span_s) {
            break;
        }
        let (a, b) = (
            sent.partition_point(|s| s.0 < lo),
            sent.partition_point(|s| s.0 < hi).min(done.len()),
        );
        let mut lat: Vec<f64> = (a..b)
            .filter(|&i| done[i].1)
            .map(|i| micros(done[i].0.saturating_duration_since(sent[i].0)))
            .collect();
        let grew = backlog(hi) - backlog(lo);
        if lat.is_empty() || grew as f64 > BACKLOG_GROWTH * (b - a) as f64 {
            run.discarded += 1;
        } else {
            lat.sort_by(f64::total_cmp);
            run.windows.push(Window {
                p50: percentile_sorted(&lat, 0.50),
                p90: percentile_sorted(&lat, 0.90),
                p99: percentile_sorted(&lat, 0.99),
                max: percentile_sorted(&lat, 1.0),
            });
        }
        k += 1;
    }
    run
}

/// Applies `requests` with their `replies` to the plain `Vec` oracle:
/// inserts append, deletes remove by position — the eager semantics the
/// one-lane pipeline promises. Checks the write replies on the way. Shed
/// writes were never applied and are skipped.
fn replay_writes(
    report: &mut Report,
    what: &str,
    live: &mut Vec<LineSeg>,
    requests: &[Request],
    replies: &[Response],
) {
    for (req, resp) in requests.iter().zip(replies) {
        match (req, resp) {
            (Request::Insert(seg), Response::Inserted(id)) => {
                report.check(*id as usize == live.len(), || {
                    format!("{what}: insert answered id {id}, oracle {}", live.len())
                });
                live.push(*seg);
            }
            (Request::Delete(id), Response::Deleted(got)) => {
                report.check(got == id && (*id as usize) < live.len(), || {
                    format!(
                        "{what}: delete {id} answered {got} over {} live",
                        live.len()
                    )
                });
                if (*id as usize) < live.len() {
                    live.remove(*id as usize);
                }
            }
            (
                Request::Insert(_) | Request::Delete(_),
                Response::Rejected(SpatialError::Overloaded { .. }),
            ) => {}
            (Request::Insert(_) | Request::Delete(_), other) => {
                report.check(false, || {
                    format!("{what}: write {req:?} answered {other:?}")
                });
            }
            _ => {}
        }
    }
}

/// The final collection equals the oracle replay, and sampled windows
/// over it match brute force.
fn check_final_state(
    report: &mut Report,
    what: &str,
    service: &QueryService,
    oracle: &[LineSeg],
    windows: &[Rect],
) {
    let served = service.segments();
    report.check(served == oracle, || {
        format!(
            "{what}: service holds {} segments, oracle replay {}",
            served.len(),
            oracle.len()
        )
    });
    let reqs: Vec<Request> = windows.iter().map(|q| Request::Window(*q)).collect();
    let answers = service.execute_batch(&reqs);
    check_windows(report, what, oracle, windows, 1, |i, _| match &answers[i] {
        Response::Window(ids) => ids.to_vec(),
        _ => vec![u32::MAX],
    });
}

/// Counts an open-loop run's operations and checks its replies: sampled
/// reads against brute force, or (write flavour) the whole run replayed
/// on the oracle and compared with the service's final collection.
fn check_open_run(
    report: &mut Report,
    flavor: Flavor,
    inp: &Inputs,
    arrivals: &[Arrival],
    run: &OpenRun,
) {
    let bad = run.shed + run.rejected + run.timed_out;
    report.count(arrivals.len() as u64, bad);
    if bad > 0 && report.failures.len() < 8 {
        report.failures.push(format!(
            "open loop: {} shed, {} rejected, {} timed out of {}",
            run.shed,
            run.rejected,
            run.timed_out,
            arrivals.len()
        ));
    }
    report.check(!run.windows.is_empty(), || {
        format!(
            "open loop: the backlog grew through all {} windows; nothing to report",
            run.discarded
        )
    });
    if flavor == Flavor::Write {
        let reqs: Vec<Request> = arrivals.iter().map(|a| a.request).collect();
        let mut live = inp.segs.clone();
        replay_writes(report, "open loop", &mut live, &reqs, &run.replies);
        report.check(run.final_segs == live, || {
            format!(
                "open loop: service ended with {} segments, oracle replay {}",
                run.final_segs.len(),
                live.len()
            )
        });
    } else {
        for (req, resp) in &run.samples {
            check_read_reply(report, "open loop", &inp.segs, req, resp);
        }
    }
}

/// Per-window percentiles as samples, one vector per percentile.
fn window_samples(run: &OpenRun, f: fn(&Window) -> f64) -> Vec<f64> {
    run.windows.iter().map(f).collect()
}

/// What a closed-loop phase keeps of its replies: the write oracle, or
/// sampled reads, never the replies themselves (they would dominate the
/// process's peak memory and grow with the number of reps).
struct SatCheck {
    live: Vec<LineSeg>,
    samples: Vec<(Request, Response)>,
}

impl SatCheck {
    fn new(flavor: Flavor, inp: &Inputs) -> Self {
        SatCheck {
            live: if flavor == Flavor::Write {
                inp.segs.clone()
            } else {
                Vec::new()
            },
            samples: Vec::new(),
        }
    }

    /// Digests one rep's replies (between reps, outside the timed span).
    fn absorb(
        &mut self,
        report: &mut Report,
        flavor: Flavor,
        requests: &[Request],
        replies: Vec<Response>,
    ) {
        let rejected = replies
            .iter()
            .filter(|r| matches!(r, Response::Rejected(_)))
            .count() as u64;
        report.count(requests.len() as u64, rejected);
        if rejected > 0 && report.failures.len() < 8 {
            report.failures.push(format!(
                "closed loop: {rejected} of {} rejected",
                requests.len()
            ));
        }
        if flavor == Flavor::Write {
            replay_writes(report, "closed loop", &mut self.live, requests, &replies);
        } else {
            let sampled = requests.iter().zip(replies).step_by(SAMPLE_EVERY);
            self.samples.extend(sampled.map(|(req, resp)| (*req, resp)));
        }
    }

    fn finish(self, report: &mut Report, flavor: Flavor, inp: &Inputs, service: &QueryService) {
        if flavor == Flavor::Write {
            check_final_state(
                report,
                "closed loop",
                service,
                &self.live,
                &inp.check_windows,
            );
        }
        for (req, resp) in &self.samples {
            check_read_reply(report, "closed loop", &inp.segs, req, resp);
        }
    }
}

/// One closed-loop saturation rep over `requests`; returns seconds and
/// the replies.
fn saturation_rep(
    pipeline: &ServicePipeline,
    requests: &[Request],
    tr: &mut Tracer,
    mut after_chunk: impl FnMut(),
) -> (f64, Vec<Response>) {
    let ((replies, secs), _) = tr.timed(HARNESS, "saturation", |tr| {
        let mut replies = Vec::with_capacity(requests.len());
        let t0 = Instant::now();
        for chunk in requests.chunks(SAT_CHUNK) {
            let (ticket, _) = tr.timed("dp-service.admission", "admission.submit_batch", |_| {
                pipeline.submit_batch(chunk)
            });
            let (mut out, _) = tr.timed("dp-service.admission", "ticket.wait_all", |_| {
                ticket.wait_all()
            });
            replies.append(&mut out);
            after_chunk();
        }
        let secs = t0.elapsed().as_secs_f64();
        (replies, secs)
    });
    (secs, replies)
}

/// A scratch directory beside the executable (inside the build
/// directory), removed when dropped.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new() -> std::io::Result<Self> {
        let base = std::env::current_exe()?
            .parent()
            .map(Path::to_path_buf)
            .unwrap_or_else(|| PathBuf::from("."));
        let dir = base.join(format!("dpbench-tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory sits inside the ignored
        // build directory.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The service the snapshot phase saves: a cold build of the set-up's
/// collection, of its own, because the closed loop's writes must not
/// change what the restores read. Write flavour: with a fixed batch of
/// writes applied, so the saved state has pending inserts and tombstones,
/// the same ones run after run.
fn snapshot_source(
    flavor: Flavor,
    inp: &Inputs,
    report: &mut Report,
    tr: &mut Tracer,
) -> QueryService {
    let (service, _) = tr.timed("dp-service", "QueryService::build", |_| {
        QueryService::build(inp.config, inp.world, inp.segs.clone())
    });
    if flavor == Flavor::Write {
        let mut writes: Vec<Request> = inp.pending.iter().map(|s| Request::Insert(*s)).collect();
        writes.extend(std::iter::repeat(Request::Delete(0)).take(PENDING_DELETES));
        let (replies, _) = tr.timed("dp-service", "execute_batch(pending)", |_| {
            service.execute_batch(&writes)
        });
        let mut live = inp.segs.clone();
        tr.timed("dp-geom", "oracle(snapshot)", |_| {
            replay_writes(report, "snapshot", &mut live, &writes, &replies);
            check_final_state(report, "snapshot", &service, &live, &inp.check_windows);
        });
    }
    service
}

/// A saved snapshot and the warm restores taken from it so far.
struct Restorer {
    dir: ScratchDir,
    /// The collection the saved service held.
    held: Vec<LineSeg>,
    save_s: f64,
    bytes: u64,
    restore_s: Vec<f64>,
}

impl Restorer {
    /// Saves `service`. `None` (and a failed check) when there is no
    /// scratch directory to save into.
    fn save(report: &mut Report, service: &QueryService, tr: &mut Tracer) -> Option<Self> {
        let dir = match ScratchDir::new() {
            Ok(dir) => dir,
            Err(e) => {
                report.check(false, || format!("snapshot: no scratch directory: {e}"));
                return None;
            }
        };
        let path = dir.0.join("service.snap");
        let (saved, d) = tr.timed("dp-service.snapshot", "snapshot.save", |_| {
            service.save_snapshot(&path)
        });
        report.check(saved.is_ok(), || {
            format!("snapshot: save failed: {saved:?}")
        });
        Some(Restorer {
            held: service.segments(),
            save_s: d.as_secs_f64(),
            bytes: std::fs::metadata(&path).map_or(0, |m| m.len()),
            restore_s: Vec::new(),
            dir,
        })
    }

    /// `RESTORE_BURST` warm restores; each must be warm and hold the saved
    /// collection.
    fn burst(&mut self, report: &mut Report, inp: &Inputs, tr: &mut Tracer) {
        let path = self.dir.0.join("service.snap");
        tr.timed(HARNESS, "snapshot", |tr| {
            for _ in 0..RESTORE_BURST {
                // The cold path's input, cloned outside the timed call.
                let cold_input = self.held.clone();
                let (restored, d) = tr.timed("dp-service.snapshot", "snapshot.restore", |_| {
                    QueryService::try_restore_or_build(
                        inp.config,
                        inp.world,
                        cold_input,
                        Vec::new(),
                        Arc::new(FaultPlan::disabled()),
                        &path,
                    )
                });
                let ok = matches!(&restored, Ok((s, true)) if s.segments() == self.held);
                report.check(ok, || {
                    "snapshot: restore was cold or lost segments".to_string()
                });
                self.restore_s.push(d.as_secs_f64());
            }
        });
    }
}

/// What the two closed-loop phases on the set-up's service measured.
struct ClosedLoop {
    /// Round trip of each request sent alone, µs.
    rtt_us: Vec<f64>,
    /// Seconds per reported saturation rep.
    sat_secs: Vec<f64>,
    check: SatCheck,
}

/// The closed-loop phases on the set-up's service, one `Block` pipeline.
/// *Unloaded round trip*: `rtt_n` requests, each submitted alone and
/// waited for — the latency floor a single client sees (coalescing
/// deadline, wake-ups, one request's engine time). *Saturation*: a
/// warm-up rep, then up to `max_reps` reps of 512-request
/// `submit_batch(..).wait_all()` chunks (fewer if `cap_s` runs out after
/// the third). `at_seam` runs after the round trips and after every rep,
/// outside the timed spans.
#[allow(clippy::too_many_arguments)]
fn closed_loop_phases(
    flavor: Flavor,
    p: &Params,
    inp: &Inputs,
    max_reps: usize,
    cap_s: f64,
    tr: &mut Tracer,
    report: &mut Report,
    mut after_chunk: impl FnMut(),
    mut at_seam: impl FnMut(&mut Report, &mut Tracer),
) -> ClosedLoop {
    let pipeline = ServicePipeline::new(Arc::clone(&inp.service), p.lanes, AdmissionPolicy::Block)
        .expect("a positive lane count is a valid pipeline");
    let mut check = SatCheck::new(flavor, inp);
    let (alone, rest) = inp.sat_stream.split_at(inp.rtt_n);
    let ((rtt_us, replies), _) = tr.timed(HARNESS, "unloaded_rtt", |tr| {
        let mut rtt_us = Vec::with_capacity(alone.len());
        let mut replies = Vec::with_capacity(alone.len());
        for &request in alone {
            let t0 = Instant::now();
            let (ticket, _) = tr.timed("dp-service.admission", "admission.submit", |_| {
                pipeline.submit(request)
            });
            let (reply, _) = tr.timed("dp-service.admission", "ticket.wait", |_| ticket.wait());
            rtt_us.push(micros(t0.elapsed()));
            replies.push(reply);
        }
        (rtt_us, replies)
    });
    check.absorb(report, flavor, alone, replies);
    at_seam(report, tr);

    let mut sat_secs: Vec<f64> = Vec::new();
    let cap = Instant::now() + Duration::from_secs_f64(cap_s);
    let traced = tr.enabled();
    for (i, requests) in rest.chunks(inp.sat_rep).take(max_reps + 1).enumerate() {
        if sat_secs.len() >= 3 && Instant::now() > cap {
            break;
        }
        // The first rep warms the cache and the lane workers: neither
        // reported nor traced.
        tr.set_enabled(traced && i > 0);
        let (s, replies) = saturation_rep(&pipeline, requests, tr, &mut after_chunk);
        check.absorb(report, flavor, requests, replies);
        if i > 0 {
            sat_secs.push(s);
        }
        at_seam(report, tr);
    }
    tr.set_enabled(traced);
    ClosedLoop {
        rtt_us,
        sat_secs,
        check,
    }
}

/// The eager front door: the head of the saturation stream through
/// `execute_batch` in `flush_batch` chunks on a service of its own, no
/// admission layer. Returns seconds per reported rep.
fn eager_phase(
    flavor: Flavor,
    inp: &Inputs,
    max_reps: usize,
    cap_s: f64,
    tr: &mut Tracer,
    report: &mut Report,
) -> (Vec<f64>, ServiceStats) {
    let service = QueryService::build(inp.config, inp.world, inp.segs.clone());
    let mut check = SatCheck::new(flavor, inp);
    let mut secs: Vec<f64> = Vec::new();
    let cap = Instant::now() + Duration::from_secs_f64(cap_s);
    let traced = tr.enabled();
    for (i, requests) in inp
        .sat_stream
        .chunks(inp.eager_rep)
        .take(max_reps + 1)
        .enumerate()
    {
        if secs.len() >= 3 && Instant::now() > cap {
            break;
        }
        tr.set_enabled(traced && i > 0);
        let (replies, d) = tr.timed("dp-service", "execute_batch(stream)", |_| {
            let mut replies = Vec::with_capacity(requests.len());
            for chunk in requests.chunks(inp.config.flush_batch) {
                replies.append(&mut service.execute_batch(chunk));
            }
            replies
        });
        check.absorb(report, flavor, requests, replies);
        if i > 0 {
            secs.push(d.as_secs_f64());
        }
    }
    tr.set_enabled(traced);
    let stats = service.stats();
    tr.timed("dp-geom", "oracle(closed loop)", |_| {
        check.finish(report, flavor, inp, &service)
    });
    (secs, stats)
}

/// Reports a closed-loop phase as µs per request and as requests per
/// second. Read flavours: the quiet-machine decile over reps. Write flavour: all requests over all seconds, because a rep
/// holds one background compaction or two and their median would report
/// which, not how fast; the per-rep quartiles are still printed.
fn put_closed_loop(
    report: &mut Report,
    flavor: Flavor,
    cost: &str,
    rate: &str,
    secs: &[f64],
    rep: usize,
) {
    let us: Vec<f64> = secs.iter().map(|s| s * 1e6 / rep as f64).collect();
    let rps: Vec<f64> = secs.iter().map(|s| rep as f64 / s).collect();
    if flavor == Flavor::Write {
        let total: f64 = secs.iter().sum();
        let requests = (rep * secs.len()) as f64;
        report.put_value(cost, "us", Kind::E2e, total * 1e6 / requests, &us);
        report.put_value(rate, "1/s", Kind::E2e, requests / total, &rps);
    } else {
        report.put_time(cost, "us", Kind::E2e, &us);
        report.put_rate(rate, "1/s", Kind::E2e, &rps);
    }
}

/// Seconds per request of `execute_batch` over `requests` in
/// `flush`-sized chunks on `service`.
fn engine_run(
    service: &QueryService,
    requests: &[Request],
    flush: usize,
    name: &str,
    tr: &mut Tracer,
) -> f64 {
    let (_, d) = tr.timed("dp-service", name, |_| {
        for chunk in requests.chunks(flush) {
            black_box(service.execute_batch(chunk));
        }
    });
    d.as_secs_f64() / requests.len().max(1) as f64
}

/// One of the three serving workloads.
pub struct Serve(pub Flavor);

impl crate::Workload for Serve {
    type Inputs = Inputs;

    fn setup(&self, cfg: &Cfg, tr: &mut Tracer) -> Inputs {
        let flavor = self.0;
        let p = flavor.params();
        let (inputs, _) = tr.timed(HARNESS, "setup", |tr| {
            let n = cfg.scaled(SEGS, 2_000);
            let sat_rep = cfg.scaled(p.sat_rep, 600);
            let n_arrivals = ((p.rate * OPEN_SHARE * cfg.seconds) as usize).max(200);
            let reps = |share: f64, nominal_rps: f64, rep: usize| {
                ((share * cfg.seconds * nominal_rps / rep as f64).round() as usize).max(3)
            };
            let sat_reps = reps(SAT_SHARE, p.sat_nominal_rps, p.sat_rep);
            let eager_rep = cfg.scaled(p.eager_rep, 300);
            let rtt_n = cfg.scaled(p.rtt_n, 200);
            let (data, _) = tr.timed("dp-workloads", "uniform_segments", |_| {
                uniform_segments(n, WORLD, MAX_LEN, sub_seed(cfg.seed, 1))
            });
            let (mut sched, _) = tr.timed("dp-workloads", "open_loop_schedule", |_| {
                open_loop_schedule(
                    data.world,
                    n_arrivals,
                    p.mix,
                    p.rate,
                    sub_seed(cfg.seed, 2),
                    n,
                )
            });
            let (mut sat_stream, _) = tr.timed("dp-workloads", "request_stream", |_| {
                let len = rtt_n + (sat_reps + 1) * sat_rep;
                request_stream_with_updates(data.world, len, p.mix, sub_seed(cfg.seed, 3), n)
            });
            if flavor == Flavor::Hot {
                tr.timed("dp-workloads", "skew_hot_windows", |_| {
                    let hot_seed = sub_seed(cfg.seed, 4);
                    let mut reqs: Vec<Request> = sched.arrivals.iter().map(|a| a.request).collect();
                    skew_hot_windows(&mut reqs, &data.world, HOT_FRACTION, HOT_WINDOWS, hot_seed);
                    for (a, r) in sched.arrivals.iter_mut().zip(reqs) {
                        a.request = r;
                    }
                    // Same seed: the saturation stream shares the hot set.
                    skew_hot_windows(
                        &mut sat_stream,
                        &data.world,
                        HOT_FRACTION,
                        HOT_WINDOWS,
                        hot_seed,
                    );
                });
            }
            let config = QueryServiceConfig {
                shard_grid: SHARD_GRID,
                ..QueryServiceConfig::default()
            };
            let (service, _) = tr.timed("dp-service", "QueryService::build", |_| {
                QueryService::build(config, data.world, data.segs.clone())
            });
            let check_windows = windows(&data.world, ORACLE_WINDOWS, 0.05, sub_seed(cfg.seed, 5));
            let (pending, _) = tr.timed("dp-workloads", "uniform_segments", |_| {
                uniform_segments(PENDING_INSERTS, WORLD, MAX_LEN, sub_seed(cfg.seed, 6)).segs
            });
            let mut fingerprint = Fingerprint::default();
            fingerprint.segs(&data.segs);
            for a in &sched.arrivals {
                fingerprint.word(a.at_micros);
                fingerprint.requests(std::slice::from_ref(&a.request));
            }
            fingerprint.requests(&sat_stream);
            fingerprint.rects(&check_windows);
            fingerprint.segs(&pending);
            Inputs {
                world: data.world,
                segs: data.segs,
                config,
                arrivals: sched.arrivals,
                sat_stream,
                rtt_n,
                sat_rep,
                sat_reps,
                eager_rep,
                service: Arc::new(service),
                pending,
                check_windows,
                fingerprint,
            }
        });
        inputs
    }

    fn run_untraced(&self, cfg: &Cfg, inp: &Inputs, report: &mut Report) {
        let flavor = self.0;
        let p = flavor.params();
        let mut tr = Tracer::new(false);

        // The snapshot is saved first and restored from in bursts at the
        // seams of the phases below, so the restores sample the whole run.
        let mut restorer = {
            let source = snapshot_source(flavor, inp, report, &mut tr);
            Restorer::save(report, &source, &mut tr)
        };
        let mut restores = |report: &mut Report, tr: &mut Tracer| {
            if let Some(r) = restorer.as_mut() {
                r.burst(report, inp, tr);
            }
        };
        restores(report, &mut tr);

        // Phase 1: open loop.
        let run = open_loop(flavor, &p, inp, &inp.arrivals, &mut tr);
        tr.timed("dp-geom", "oracle(open loop)", |_| {
            check_open_run(report, flavor, inp, &inp.arrivals, &run)
        });
        restores(report, &mut tr);
        if run.windows.is_empty() {
            // Counted as a failure above; the contract still wants a number.
            report.put("op1_us", "us", Kind::E2e, f64::NAN);
        } else {
            let (p50, p90) = (
                window_samples(&run, |w| w.p50),
                window_samples(&run, |w| w.p90),
            );
            report.put_time("op1_us", "us", Kind::E2e, &p50);
            report.put_time("lat_p50_us", "us", Kind::E2e, &p50);
            // Reported, not gated: p90 does not repeat on the reference box.
            report.put_time("lat_p90_us", "us", Kind::Layer, &p90);
        }
        report.put(
            "open_loop_windows",
            "count",
            Kind::Layer,
            run.windows.len() as f64,
        );
        report.put(
            "open_loop_discarded",
            "count",
            Kind::Layer,
            run.discarded as f64,
        );
        drop(run);

        // Phases 2 and 3: unloaded round trip, then closed-loop saturation,
        // on the set-up's service.
        let cap = 1.5 * SAT_SHARE * cfg.seconds;
        let closed = closed_loop_phases(
            flavor,
            &p,
            inp,
            inp.sat_reps,
            cap,
            &mut tr,
            report,
            || {},
            &mut restores,
        );
        report.put_samples("op2_us", "us", Kind::E2e, &closed.rtt_us);
        report.put_samples("unloaded_rtt_us", "us", Kind::E2e, &closed.rtt_us);
        put_closed_loop(
            report,
            flavor,
            "op3_us",
            "sat_rps",
            &closed.sat_secs,
            inp.sat_rep,
        );
        tr.timed("dp-geom", "oracle(closed loop)", |_| {
            closed.check.finish(report, flavor, inp, &inp.service)
        });
        restores(report, &mut tr);

        // Phase 4: the warm restores, over all the bursts.
        match restorer {
            Some(r) if !r.restore_s.is_empty() => {
                let restore_us: Vec<f64> = r.restore_s.iter().map(|s| s * 1e6).collect();
                report.put_time("op4_us", "us", Kind::E2e, &restore_us);
                report.put_time("warm_restore_s", "s", Kind::E2e, &r.restore_s);
            }
            _ => report.put("op4_us", "us", Kind::E2e, f64::NAN),
        }
    }

    fn run_traced(
        &self,
        _cfg: &Cfg,
        inp: &Inputs,
        _costs: &KernelCosts,
        tr: &mut Tracer,
        report: &mut Report,
    ) {
        let flavor = self.0;
        let p = flavor.params();
        let put =
            |r: &mut Report, name: &str, unit: &str, v: f64| r.put(name, unit, Kind::Layer, v);

        // Open loop twice over the same third of the schedule, untraced then
        // traced: the difference of their median p50 is what the per-request
        // spans cost.
        let third = &inp.arrivals[..inp.arrivals.len() * 4 / 11];
        tr.set_enabled(false);
        let plain = open_loop(flavor, &p, inp, third, tr);
        tr.set_enabled(true);
        let run = open_loop(flavor, &p, inp, third, tr);
        tr.timed("dp-geom", "oracle(open loop)", |_| {
            check_open_run(report, flavor, inp, third, &run)
        });
        let p50_of = |r: &OpenRun| {
            if r.windows.is_empty() {
                f64::NAN
            } else {
                median(&window_samples(r, |w| w.p50))
            }
        };
        let lat_p50 = p50_of(&run);
        put(
            report,
            "trace_overhead_frac",
            "ratio",
            lat_p50 / p50_of(&plain) - 1.0,
        );
        drop(plain);
        if !run.windows.is_empty() {
            let (p99, max) = (
                window_samples(&run, |w| w.p99),
                window_samples(&run, |w| w.max),
            );
            report.put_samples("dp-service.admission.lat_p99_us", "us", Kind::Layer, &p99);
            report.put_samples("dp-service.admission.lat_max_us", "us", Kind::Layer, &max);
        }
        put(
            report,
            "dp-service.admission.sched_late_p99_us",
            "us",
            percentile_sorted(&run.late_us, 0.99),
        );

        // Counters of the traced run's service, read at its end.
        let st = &run.stats;
        let c = &run.cache;
        let admitted = st.total_admitted();
        let batches: u64 = st.shards.iter().map(|s| s.coalesced_batches).sum();
        let max_depth = st.shards.iter().map(|s| s.max_queue_depth).max();
        let sum = |f: fn(&scan_model::StatsSnapshot) -> u64| -> f64 {
            st.shards.iter().map(|s| f(&s.ops)).sum::<u64>() as f64
        };
        let takes: u64 = st.shards.iter().map(|s| s.arena_takes).sum();
        let hits: u64 = st.shards.iter().map(|s| s.arena_hits).sum();
        let flush_us = |q: f64| st.flush_latency_quantile_micros(q).unwrap_or(0) as f64;
        let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
        for (name, unit, value) in [
            ("dp-service.requests", "count", st.requests as f64),
            ("dp-service.probes", "count", st.total_probes() as f64),
            ("dp-service.knn_rounds", "count", st.knn_rounds as f64),
            ("dp-service.compactions", "count", st.compactions as f64),
            ("dp-service.flush_p50_us", "us", flush_us(0.5)),
            ("dp-service.flush_p99_us", "us", flush_us(0.99)),
            ("dp-service.admission.admitted", "count", admitted as f64),
            ("dp-service.admission.batches", "count", batches as f64),
            ("dp-service.admission.shed", "count", st.total_shed() as f64),
            (
                "dp-service.admission.max_queue_depth",
                "count",
                max_depth.unwrap_or(0) as f64,
            ),
            (
                "dp-service.admission.batch_size",
                "count",
                ratio(admitted, batches),
            ),
            (
                "dp-service.admission.queue_wait_us",
                "us",
                st.mean_queue_wait_micros().unwrap_or(0.0),
            ),
            ("dp-service.cache.hits", "count", c.hits as f64),
            ("dp-service.cache.misses", "count", c.misses as f64),
            ("dp-service.cache.admitted", "count", c.admitted as f64),
            (
                "dp-service.cache.invalidations",
                "count",
                c.invalidations as f64,
            ),
            (
                "dp-service.cache.hit_ratio",
                "ratio",
                ratio(c.hits, c.hits + c.misses),
            ),
            ("scan-model.prims", "count", sum(|o| o.total_primitives())),
            ("scan-model.scan_passes", "count", sum(|o| o.scan_passes)),
            ("scan-model.bytes_moved", "bytes", sum(|o| o.bytes_moved)),
            ("scan-model.rounds", "count", sum(|o| o.rounds)),
            ("scan-model.arena_hit_ratio", "ratio", ratio(hits, takes)),
        ] {
            put(report, name, unit, value);
        }
        drop(run);

        // The closed-loop phases traced: the round trips, then one warm-up
        // and one traced saturation rep, sampling the write pressure after
        // every chunk.
        let mut overlay_peak = 0usize;
        let closed = closed_loop_phases(
            flavor,
            &p,
            inp,
            1,
            3600.0,
            tr,
            report,
            || {
                if flavor == Flavor::Write {
                    let st = inp.service.stats();
                    overlay_peak = overlay_peak.max(st.overlay_size + st.tombstones);
                }
            },
            |_, _| {},
        );
        tr.timed("dp-geom", "oracle(closed loop)", |_| {
            closed.check.finish(report, flavor, inp, &inp.service)
        });
        put(
            report,
            "dp-service.overlay_peak",
            "count",
            overlay_peak as f64,
        );

        let source = snapshot_source(flavor, inp, report, tr);
        let snap = Restorer::save(report, &source, tr);
        drop(source);
        let snap = snap.map(|mut r| {
            for _ in 0..TRACED_BURSTS {
                r.burst(report, inp, tr);
            }
            r
        });
        if let Some(r) = &snap {
            put(report, "dp-service.snapshot.save_s", "s", r.save_s);
            put(report, "dp-service.snapshot.bytes", "bytes", r.bytes as f64);
        }

        // The engine without admission: the eager front door on the same
        // stream, then one request family at a time.
        let slice = &inp.sat_stream[..inp.sat_rep];
        let flush = inp.config.flush_batch;
        let (_, cold) = tr.timed("dp-service", "QueryService::build", |_| {
            QueryService::build(inp.config, inp.world, inp.segs.clone())
        });
        put(report, "dp-service.build_s", "s", cold.as_secs_f64());
        if let Some(r) = &snap {
            put(
                report,
                "dp-service.snapshot.warm_over_cold",
                "ratio",
                cold.as_secs_f64() / median(&r.restore_s),
            );
        }
        let (eager_secs, est) = eager_phase(flavor, inp, 1, 3600.0, tr, report);
        let per_request = eager_secs[0] / inp.eager_rep as f64;
        put(
            report,
            "dp-service.execute_batch_rps",
            "1/s",
            1.0 / per_request,
        );
        put(
            report,
            "dp-service.admission.overhead_us",
            "us",
            lat_p50 - per_request * 1e6,
        );
        report.put(
            "dp-service.probes_per_request",
            "ratio",
            Kind::Exact,
            est.total_probes() as f64 / est.requests.max(1) as f64,
        );
        put(
            report,
            "dp-service.knn_rounds_per_request",
            "ratio",
            est.knn_rounds as f64 / est.requests.max(1) as f64,
        );
        let family = |keep: fn(&Request) -> bool| -> Vec<Request> {
            slice.iter().copied().filter(keep).take(2_000).collect()
        };
        let reads = QueryService::build(inp.config, inp.world, inp.segs.clone());
        for (name, reqs) in [
            ("window", family(|r| matches!(r, Request::Window(_)))),
            ("point", family(|r| matches!(r, Request::PointInWindow(_)))),
            ("knn", family(|r| matches!(r, Request::KNearest { .. }))),
        ] {
            let s = engine_run(&reads, &reqs, flush, &format!("execute_batch({name})"), tr);
            put(report, &format!("dp-service.{name}_us"), "us", s * 1e6);
        }
        if flavor == Flavor::Write {
            // Inserts as generated, then as many deletes of logical id 0
            // (always live), on a service that will not compact under them.
            let mut writes = family(|r| matches!(r, Request::Insert(_)));
            let deletes = writes.len();
            writes.extend(std::iter::repeat(Request::Delete(0)).take(deletes));
            let quiet = QueryServiceConfig {
                compact_threshold: usize::MAX >> 1,
                ..inp.config
            };
            let written = QueryService::build(quiet, inp.world, inp.segs.clone());
            let s = engine_run(&written, &writes, flush, "execute_batch(writes)", tr);
            put(report, "dp-service.write_us", "us", s * 1e6);
            let (epoch, d) = tr.timed("dp-service", "compact_now", |_| written.compact_now());
            report.check(epoch.is_ok(), || format!("compact_now failed: {epoch:?}"));
            put(report, "dp-service.compact_s", "s", d.as_secs_f64());
        }

        // The result cache alone: the open-loop schedule's cacheable probes
        // against a stand-alone cache of the service's capacity.
        let cache = WindowCache::new(inp.config.cache_capacity);
        let probes: Vec<(CacheKind, Rect)> = inp
            .arrivals
            .iter()
            .filter_map(|a| match a.request {
                Request::Window(q) => Some((CacheKind::Window, q)),
                Request::PointInWindow(pt) => Some((CacheKind::PointInWindow, Rect::point(pt))),
                _ => None,
            })
            .collect();
        let empty = Arc::new(Vec::new());
        let (_, d) = tr.timed("dp-service.cache", "WindowCache::lookup+admit", |_| {
            for (kind, rect) in &probes {
                if let CacheLookup::Miss(version) = cache.lookup(*kind, rect) {
                    cache.admit(*kind, rect, version, Arc::clone(&empty));
                }
            }
        });
        put(
            report,
            "dp-service.cache.lookup_ns",
            "ns/call",
            d.as_nanos() as f64 / probes.len().max(1) as f64,
        );

        // The tree codec under the service snapshot.
        let machine = Machine::parallel();
        let (tree, _) = tr.timed("dp-spatial", "build_bucket_pmr", |_| {
            build_bucket_pmr(
                &machine,
                inp.world,
                &inp.segs,
                inp.config.capacity,
                inp.config.max_depth,
            )
        });
        let (bytes, enc) = tr.timed("dp-spatial", "encode_tree_snapshot", |_| {
            encode_tree_snapshot(SnapshotFamily::BucketPmr, &inp.segs, &tree, None)
        });
        let (decoded, dec) = tr.timed("dp-spatial", "decode_tree_snapshot", |_| {
            decode_tree_snapshot(&bytes)
        });
        report.check(
            matches!(&decoded, Ok((_, segs, t)) if *segs == inp.segs && *t == tree),
            || "tree snapshot did not round-trip".to_string(),
        );
        let mb = bytes.len() as f64 / 1e6;
        put(
            report,
            "dp-spatial.snapshot.encode_mbps",
            "MB/s",
            mb / enc.as_secs_f64(),
        );
        put(
            report,
            "dp-spatial.snapshot.decode_mbps",
            "MB/s",
            mb / dec.as_secs_f64(),
        );
    }

    fn fingerprint(&self, inputs: &Inputs) -> Fingerprint {
        inputs.fingerprint
    }
}
