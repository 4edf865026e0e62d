//! Telemetry: the per-shard counter block, the views handed to callers.

use crate::histogram::LatencyHistogram;
use crate::{CacheStats, QueryService};
use dp_geom::Rect;
use scan_model::{RoundTrace, StatsSnapshot};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log₂-microsecond latency buckets per shard.
pub const LATENCY_BUCKETS: usize = crate::histogram::HISTOGRAM_BUCKETS;

/// Interior-mutable per-shard counters. All-zero by `Default`.
#[derive(Debug, Default)]
pub(crate) struct ShardCounters {
    pub(crate) probes: AtomicU64,
    pub(crate) batches: AtomicU64,
    pub(crate) max_queue_depth: AtomicU64,
    pub(crate) admitted: AtomicU64,
    pub(crate) coalesced_batches: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) cache_hits: AtomicU64,
    pub(crate) queue_wait_micros: AtomicU64,
    latency: [AtomicU64; LATENCY_BUCKETS],
}

impl ShardCounters {
    /// Every cell, in declaration order: what `carry` and `reset` walk.
    fn cells(&self) -> impl Iterator<Item = &AtomicU64> {
        [
            &self.probes,
            &self.batches,
            &self.max_queue_depth,
            &self.admitted,
            &self.coalesced_batches,
            &self.shed,
            &self.cache_hits,
            &self.queue_wait_micros,
        ]
        .into_iter()
        .chain(&self.latency)
    }

    pub(crate) fn record_flush(&self, elapsed_micros: u64) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.latency[LatencyHistogram::bucket_of(elapsed_micros)].fetch_add(1, Ordering::Relaxed);
    }

    /// A fresh counter block holding the same values — carried into the
    /// replacement shards of a compacted epoch so telemetry is
    /// continuous across epoch swaps. `max_queue_depth` is the one
    /// exception: it is a *gauge* (steady-state admission-queue
    /// high-water mark), not a monotone counter, and the new epoch's
    /// queues start empty — carrying an old peak would make the value
    /// unfalsifiable, so epoch swaps reset it.
    pub(crate) fn carry(&self) -> ShardCounters {
        let next = ShardCounters::default();
        for (to, from) in next.cells().zip(self.cells()) {
            to.store(from.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        next.max_queue_depth.store(0, Ordering::Relaxed);
        next
    }

    pub(crate) fn record_queue(&self, depth: usize) {
        self.probes.fetch_add(depth as u64, Ordering::Relaxed);
        // On the direct `execute_batch` path the handed queue *is* the
        // instantaneous depth: everything arrives at once. The admission
        // path records the steady-state lane depth instead (see
        // `QueryService::note_admitted_batch`).
        self.max_queue_depth
            .fetch_max(depth as u64, Ordering::Relaxed);
    }

    fn reset(&self) {
        for cell in self.cells() {
            cell.store(0, Ordering::Relaxed);
        }
    }
}

/// A point-in-time view of one shard, part of [`ServiceStats`].
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Shard index (row-major in the grid).
    pub shard: usize,
    /// The serving epoch this snapshot was taken from (bumped by every
    /// successful compaction).
    pub epoch: u64,
    /// The shard's tile.
    pub tile: Rect,
    /// Segments assigned to the shard.
    pub segments: usize,
    /// Window probes routed to the shard over its lifetime.
    pub probes: u64,
    /// Lockstep batches the shard has executed.
    pub batches: u64,
    /// High-water mark of the shard's *request queue depth*: on the
    /// admission path, the steady-state depth of the shard's lane
    /// (sampled at every enqueue); on the direct
    /// [`QueryService::execute_batch`] path, the probe queue handed per
    /// call. A gauge, not a counter — reset by epoch swaps (the new
    /// epoch's queues start empty) and by
    /// [`QueryService::reset_stats`].
    pub max_queue_depth: u64,
    /// Requests admitted to this shard's lane(s) through a
    /// [`ServicePipeline`](crate::ServicePipeline) (0 on the direct
    /// path).
    pub admitted: u64,
    /// Coalesced micro-batches flushed by this shard's lane worker(s).
    pub coalesced_batches: u64,
    /// Requests shed by this shard's lane(s) under
    /// [`AdmissionPolicy::Shed`](crate::AdmissionPolicy::Shed).
    pub shed: u64,
    /// Admission-path probes answered from the hot-window cache.
    pub cache_hits: u64,
    /// Total microseconds admitted requests spent queued in this
    /// shard's lane(s) before their micro-batch was handed to the
    /// engine.
    pub queue_wait_micros: u64,
    /// Per-flush latency histogram: bucket `i` counts flushes that took
    /// `[2^(i-1), 2^i)` microseconds (bucket 0: sub-microsecond).
    pub latency_histogram: [u64; LATENCY_BUCKETS],
    /// Scan-model primitive counters of the shard's machine — the
    /// service-level extension of [`scan_model::OpStats`].
    pub ops: StatsSnapshot,
    /// Scratch-arena buffer leases taken by the shard's machine over its
    /// lifetime (not reset by [`QueryService::reset_stats`]).
    pub arena_takes: u64,
    /// Of [`ShardStats::arena_takes`], leases served from the pool
    /// without allocating.
    pub arena_hits: u64,
    /// Per-round telemetry of the shard's index build, captured at
    /// construction time (one [`RoundTrace`] per subdivision round; not
    /// affected by [`QueryService::reset_stats`]). Empty when the build
    /// itself degraded.
    pub build_trace: Vec<RoundTrace>,
    /// The shard gave up on its index and answers via the sequential
    /// oracle (see the crate docs' recovery ladder).
    pub degraded: bool,
    /// Crashed work units re-run on the same core.
    pub retries: u64,
    /// Times the shard was rebuilt from segments on a fresh machine.
    pub rebuilds: u64,
    /// Faults the shard's [`scan_model::FaultPlan`] fork has injected,
    /// across all sites (0 without fault injection).
    pub faults_injected: u64,
    /// Telemetry of the shard's base×overlay frontier join. `None` until
    /// the first `Join` request touches the shard (the join is computed
    /// lazily and cached) or when the service has no overlay layer.
    pub join: Option<ShardJoinStats>,
}

/// Telemetry of one shard's cached base×overlay frontier join.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardJoinStats {
    /// Intersecting pairs the shard contributes (global ids, pre-window
    /// filtering).
    pub pairs: usize,
    /// Frontier-expansion rounds the join took (≤ max tree height).
    pub rounds: usize,
    /// Largest candidate-pair frontier across those rounds.
    pub frontier_peak: usize,
    /// Exact segment-pair tests issued in leaf×leaf blocks.
    pub pairs_tested: u64,
    /// Per-round [`RoundTrace`] of the join's driver run.
    pub trace: Vec<RoundTrace>,
}

/// Aggregated service statistics: per-shard views plus batch-level
/// counters.
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// One entry per shard.
    pub shards: Vec<ShardStats>,
    /// Requests accepted by [`QueryService::execute_batch`] (rejected
    /// slots included — they were received, then refused).
    pub requests: u64,
    /// Expanding-window rounds spent on k-nearest requests.
    pub knn_rounds: u64,
    /// `Join` requests answered (each may touch several shards).
    pub join_requests: u64,
    /// The serving epoch number (bumped by every successful compaction).
    pub epoch: u64,
    /// Pending overlay segments awaiting the next compaction.
    pub overlay_size: usize,
    /// Tombstoned epoch-base segments awaiting the next compaction.
    pub tombstones: usize,
    /// Successful compactions over the service lifetime.
    pub compactions: u64,
    /// Compaction attempts that crashed and left the old epoch serving.
    pub failed_compactions: u64,
    /// Faults injected by the fault-plan fork of the machine the skyline
    /// and dominance reductions run on (0 without fault injection).
    pub agg_faults: u64,
}

impl ServiceStats {
    /// Total window probes across shards (≥ answered window requests: a
    /// request fans out to every overlapping shard, and k-NN requests
    /// probe once per round).
    pub fn total_probes(&self) -> u64 {
        self.shards.iter().map(|s| s.probes).sum()
    }

    /// The busiest shard's probe count — `0` for a service with no
    /// shards or no traffic (never panics, unlike `max().unwrap()`).
    pub fn max_shard_probes(&self) -> u64 {
        self.shards.iter().map(|s| s.probes).max().unwrap_or(0)
    }

    /// Total scan-model primitives across all shard machines.
    pub fn total_primitives(&self) -> u64 {
        self.shards.iter().map(|s| s.ops.total_primitives()).sum()
    }

    /// Shards currently degraded to the sequential oracle.
    pub fn degraded_shards(&self) -> usize {
        self.shards.iter().filter(|s| s.degraded).count()
    }

    /// Requests admitted through the pipeline, across all lanes.
    pub fn total_admitted(&self) -> u64 {
        self.shards.iter().map(|s| s.admitted).sum()
    }

    /// Requests shed by full lanes, across all lanes.
    pub fn total_shed(&self) -> u64 {
        self.shards.iter().map(|s| s.shed).sum()
    }

    /// Admission-path probes answered from the hot-window cache.
    pub fn total_cache_hits(&self) -> u64 {
        self.shards.iter().map(|s| s.cache_hits).sum()
    }

    /// Mean admission-queue wait per admitted request, in microseconds
    /// (`None` before any pipelined request).
    pub fn mean_queue_wait_micros(&self) -> Option<f64> {
        let admitted = self.total_admitted();
        (admitted > 0).then(|| {
            self.shards.iter().map(|s| s.queue_wait_micros).sum::<u64>() as f64 / admitted as f64
        })
    }

    /// Total faults injected across all shard fault-plan forks, plus the
    /// aggregation machine's fork.
    pub fn total_faults_injected(&self) -> u64 {
        self.shards.iter().map(|s| s.faults_injected).sum::<u64>() + self.agg_faults
    }

    /// Approximate latency quantile over all per-shard flushes: the upper
    /// bound (in microseconds) of the histogram bucket containing the
    /// `q`-quantile flush, or `None` before any flush.
    pub fn flush_latency_quantile_micros(&self, q: f64) -> Option<u64> {
        let mut merged = LatencyHistogram::new();
        for s in &self.shards {
            merged.merge(&LatencyHistogram::from_buckets(s.latency_histogram));
        }
        merged.quantile_micros(q)
    }
}

impl QueryService {
    /// A snapshot of the service counters, including every shard
    /// machine's primitive-operation counts.
    pub fn stats(&self) -> ServiceStats {
        let st = self.state_snapshot();
        ServiceStats {
            shards: st
                .shards
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let core = s.snapshot();
                    let (arena_takes, arena_hits) = core.machine.arena_stats();
                    let get = |cell: &AtomicU64| cell.load(Ordering::Relaxed);
                    let c = &s.counters;
                    ShardStats {
                        shard: i,
                        epoch: st.epoch,
                        tile: s.tile,
                        segments: s.assigned.len(),
                        probes: get(&c.probes),
                        batches: get(&c.batches),
                        max_queue_depth: get(&c.max_queue_depth),
                        admitted: get(&c.admitted),
                        coalesced_batches: get(&c.coalesced_batches),
                        shed: get(&c.shed),
                        cache_hits: get(&c.cache_hits),
                        queue_wait_micros: get(&c.queue_wait_micros),
                        latency_histogram: std::array::from_fn(|b| get(&c.latency[b])),
                        ops: core.machine.stats(),
                        arena_takes,
                        arena_hits,
                        build_trace: s.build_trace.clone(),
                        degraded: s.degraded.load(Ordering::Relaxed),
                        retries: get(&s.retries),
                        rebuilds: get(&s.rebuilds),
                        faults_injected: s.plan.total_fired(),
                        join: core.join.as_ref().map(|j| j.stats.clone()),
                    }
                })
                .collect(),
            requests: self.requests.load(Ordering::Relaxed),
            knn_rounds: self.knn_rounds.load(Ordering::Relaxed),
            join_requests: self.join_requests.load(Ordering::Relaxed),
            epoch: st.epoch,
            overlay_size: st.pending.len(),
            tombstones: st.tombstones.len(),
            compactions: self.compactions.load(Ordering::Relaxed),
            failed_compactions: self.failed_compactions.load(Ordering::Relaxed),
            agg_faults: self.agg_plan.total_fired(),
        }
    }

    /// Resets every counter (shard machines included). Index structures,
    /// degradation flags and recovery history are untouched.
    pub fn reset_stats(&self) {
        self.requests.store(0, Ordering::Relaxed);
        self.knn_rounds.store(0, Ordering::Relaxed);
        self.join_requests.store(0, Ordering::Relaxed);
        let st = self.state_snapshot();
        for s in st.shards.iter() {
            s.snapshot().machine.reset_stats();
            s.counters.reset();
        }
    }

    /// A snapshot of the hot-window cache counters (hits, misses,
    /// admissions, invalidations).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Records one shed request against the shard a lane is attributed
    /// to.
    pub(crate) fn note_shed(&self, shard: usize) {
        if let Some(s) = self.state_snapshot().lane_shard(shard) {
            s.counters.shed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Folds one coalesced batch's admission telemetry into the shard
    /// counters: how many requests it carried, their summed queue wait,
    /// and the lane's high-water queue depth since the last batch.
    pub(crate) fn note_admitted_batch(
        &self,
        shard: usize,
        admitted: u64,
        queue_wait_micros: u64,
        depth_high: u64,
    ) {
        if let Some(s) = self.state_snapshot().lane_shard(shard) {
            let c = &s.counters;
            c.admitted.fetch_add(admitted, Ordering::Relaxed);
            c.coalesced_batches.fetch_add(1, Ordering::Relaxed);
            c.queue_wait_micros
                .fetch_add(queue_wait_micros, Ordering::Relaxed);
            c.max_queue_depth.fetch_max(depth_high, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{QueryServiceConfig, Response};
    use dp_geom::Rect;
    use dp_workloads::{request_stream, uniform_segments, Request, RequestMix};
    use std::sync::Arc;

    #[test]
    fn stats_handle_an_empty_segment_set() {
        // Regression: the busiest-shard reduction used to be
        // `max().unwrap()`, which panics the moment no shard has traffic
        // to compare — the degenerate service shape (no segments, no
        // probes executed yet) must produce stats, not a crash.
        let world = Rect::from_coords(0.0, 0.0, 16.0, 16.0);
        let svc = QueryService::build(QueryServiceConfig::sequential(1), world, Vec::new());
        let stats = svc.stats();
        assert_eq!(stats.max_shard_probes(), 0);
        assert_eq!(stats.total_probes(), 0);
        assert_eq!(stats.degraded_shards(), 0);
        assert_eq!(stats.flush_latency_quantile_micros(0.5), None);
        // And the all-shards-empty service still answers correctly.
        let out = svc.execute_batch(&[Request::Window(world)]);
        assert_eq!(out[0], Response::Window(Arc::new(Vec::new())));
        assert_eq!(svc.stats().max_shard_probes(), 1);
    }

    #[test]
    fn stats_track_probes_and_batches() {
        let data = uniform_segments(200, 64, 6, 3);
        let mut cfg = QueryServiceConfig::sequential(2);
        cfg.flush_batch = 16;
        let svc = QueryService::build(cfg, data.world, data.segs.clone());
        let reqs = request_stream(data.world, 100, RequestMix::WINDOW_ONLY, 9);
        svc.execute_batch(&reqs);
        let stats = svc.stats();
        assert_eq!(stats.requests, 100);
        assert!(
            stats.total_probes() >= 100,
            "probes {}",
            stats.total_probes()
        );
        assert!(stats.max_shard_probes() > 0);
        // flush_batch = 16 forces multi-flush queues on busy shards.
        assert!(stats.shards.iter().any(|s| s.batches > 1));
        for s in &stats.shards {
            assert!(s.max_queue_depth as usize <= reqs.len());
            let flushes: u64 = s.latency_histogram.iter().sum();
            assert_eq!(flushes, s.batches);
            assert!(!s.degraded);
            assert_eq!(s.retries, 0);
            assert_eq!(s.rebuilds, 0);
            assert_eq!(s.faults_injected, 0);
        }
        assert!(stats.total_primitives() > 0);
        assert!(stats.flush_latency_quantile_micros(0.5).is_some());
        assert!(svc.recovery_events().is_empty());
        svc.reset_stats();
        let zeroed = svc.stats();
        assert_eq!(zeroed.requests, 0);
        assert_eq!(zeroed.total_probes(), 0);
        assert_eq!(zeroed.total_primitives(), 0);
    }

    #[test]
    fn counter_blocks_carry_everything_but_the_depth_gauge() {
        let counters = ShardCounters::default();
        for (i, cell) in counters.cells().enumerate() {
            cell.store(i as u64 + 1, Ordering::Relaxed);
        }
        assert_eq!(counters.cells().count(), 8 + LATENCY_BUCKETS);
        let carried = counters.carry();
        for (i, (to, from)) in carried.cells().zip(counters.cells()).enumerate() {
            let expected = if std::ptr::eq(from, &counters.max_queue_depth) {
                0
            } else {
                i as u64 + 1
            };
            assert_eq!(to.load(Ordering::Relaxed), expected, "cell {i}");
        }
        counters.reset();
        assert!(counters.cells().all(|c| c.load(Ordering::Relaxed) == 0));
    }

    #[test]
    fn flush_quantiles_walk_the_merged_shard_histograms() {
        let world = Rect::from_coords(0.0, 0.0, 16.0, 16.0);
        let svc = QueryService::build(QueryServiceConfig::sequential(2), world, Vec::new());
        let mut stats = svc.stats();
        // 3 flushes under 2µs on shard 0, 1 flush in [512, 1024)µs on
        // shard 3: the median sits in the first bucket, the top in the
        // second.
        stats.shards[0].latency_histogram[1] = 3;
        stats.shards[3].latency_histogram[10] = 1;
        assert_eq!(stats.flush_latency_quantile_micros(0.5), Some(1 << 1));
        assert_eq!(stats.flush_latency_quantile_micros(0.75), Some(1 << 1));
        assert_eq!(stats.flush_latency_quantile_micros(1.0), Some(1 << 10));
    }
}
