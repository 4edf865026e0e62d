//! The executor: batches split into read runs and writes; read runs
//! executed as routed lockstep probes (once for window-shaped families,
//! for rounds for k-NN) and cached per-shard joins. Nothing here matches
//! on a `Request`: [`families::plan`] has turned every slot into a
//! [`Plan`], and probe families differ only in the `CacheKind` handed to
//! [`QueryService::reduce`] and [`families::wrap`].

use crate::families::{self, Plan};
use crate::recovery::fan_out;
use crate::state::{logical_of_base, ServingState, ShardJoin};
use crate::{CacheLookup, QueryService, Response, ShardJoinStats};
use dp_geom::{clip_segment_closed, LineSeg, Point, Rect};
use dp_spatial::batch::batch_window_query;
use dp_spatial::join::{frontier_join, pair_intersects_in};
use dp_spatial::shard::ShardIndex;
use dp_spatial::{SegId, SpatialError};
use dp_workloads::Request;
use scan_model::Machine;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

impl QueryService {
    /// Executes a batch of mixed requests; `out[i]` answers
    /// `requests[i]`. Deterministic: identical batches against identical
    /// service states produce identical responses regardless of backend,
    /// shard count or thread schedule — including under injected faults,
    /// where recovered shards return exactly what a healthy run would.
    /// Unanswerable requests come back as [`Response::Rejected`] without
    /// disturbing their neighbours; nothing on this path panics.
    ///
    /// Writes and reads interleave with strict batch-order semantics:
    /// the batch is split into maximal read runs and single writes; each
    /// read run executes against the serving state snapshot taken after
    /// the preceding write, so every request observes exactly the writes
    /// before it in the batch — the eager sequential oracle's view.
    pub fn execute_batch(&self, requests: &[Request]) -> Vec<Response> {
        self.execute_inner(requests, None)
    }

    /// The executor behind both front doors: `cache_shard` is `None` for
    /// [`QueryService::execute_batch`], the lane's shard slot for a
    /// [`ServicePipeline`](crate::ServicePipeline) lane worker. Only the
    /// admission path consults the hot-window cache (hits skip routing and
    /// descent), so the direct path's probe-count invariants (one probe
    /// per overlapping shard, pinned by the differential suite) always hold.
    pub(crate) fn execute_inner(
        &self,
        requests: &[Request],
        cache_shard: Option<usize>,
    ) -> Vec<Response> {
        self.requests
            .fetch_add(requests.len() as u64, Ordering::Relaxed);
        let world = self.grid.world();
        let plans: Vec<Plan> = requests
            .iter()
            .enumerate()
            .map(|(index, r)| families::plan(&world, index, r))
            .collect();
        let mut out = Vec::with_capacity(plans.len());
        let mut i = 0;
        while i < plans.len() {
            if plans[i].is_write() {
                out.push(self.apply_write(i, &plans[i]));
                i += 1;
            } else {
                let run = plans[i..].iter().take_while(|p| !p.is_write()).count();
                let st = self.state_snapshot();
                out.extend(self.execute_reads(&st, &plans[i..i + run], cache_shard));
                i += run;
            }
        }
        out
    }

    /// Executes one run of read plans against an epoch snapshot. With
    /// `cache_shard` set (the admission path), probes consult the
    /// hot-window cache first: hits skip routing and descent, misses
    /// execute normally and offer their answers back under the
    /// write-version protocol (see [`crate::cache`]).
    fn execute_reads(
        &self,
        st: &ServingState,
        plans: &[Plan],
        cache_shard: Option<usize>,
    ) -> Vec<Response> {
        let mut out: Vec<Option<Response>> = vec![None; plans.len()];
        // (slot, kind, rect, cache version at the miss — direct path: `None`)
        let mut probes = Vec::new();
        let mut knn = Vec::new();
        let mut joins = Vec::new();
        for (slot, plan) in plans.iter().enumerate() {
            match *plan {
                Plan::Probe { kind, rect } => {
                    let missed_at = match cache_shard.map(|_| self.cache.lookup(kind, &rect)) {
                        Some(CacheLookup::Hit(payload)) => {
                            if let Some(shard) = cache_shard.and_then(|lane| st.lane_shard(lane)) {
                                shard.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                            }
                            out[slot] = Some(families::wrap(kind, payload));
                            continue;
                        }
                        Some(CacheLookup::Miss(version)) => Some(version),
                        None => None,
                    };
                    probes.push((slot, kind, rect, missed_at));
                }
                Plan::Knn { p, k } => knn.push((slot, p, k)),
                Plan::Join(q) => joins.push((slot, q)),
                Plan::Rejected { error, .. } => out[slot] = Some(Response::Rejected(error)),
                Plan::Insert(_) | Plan::Delete(_) => unreachable!("writes split out"),
            }
        }
        let rects: Vec<Rect> = probes.iter().map(|&(_, _, rect, _)| rect).collect();
        let hits = self.run_probes(st, &rects);
        for (&(slot, kind, rect, missed_at), cands) in probes.iter().zip(hits) {
            let payload = Arc::new(self.reduce(st, kind, &rect, cands));
            if let Some(version) = missed_at {
                // One allocation shared by the cache entry and the
                // response: hits hand the same `Arc` back out.
                self.cache.admit(kind, &rect, version, payload.clone());
            }
            out[slot] = Some(families::wrap(kind, payload));
        }
        for (slot, found) in self.run_knn(st, knn) {
            out[slot] = Some(Response::KNearest(found));
        }
        for (slot, pairs) in self.run_joins(st, joins) {
            out[slot] = Some(Response::Join(pairs));
        }
        out.into_iter()
            .map(|r| r.expect("every read plan is answered by the loop that gathered it"))
            .collect()
    }

    /// Routes `rects` to overlapping shards, executes every shard's
    /// queue in `flush_batch`-sized lockstep batches, and merges the hits
    /// back per probe — mapped to *logical* ids (tombstoned base hits
    /// dropped, overlay-ladder hits folded in), sorted, deduplicated.
    fn run_probes(&self, st: &ServingState, rects: &[Rect]) -> Vec<Vec<SegId>> {
        let mut per_shard: Vec<Vec<u32>> = vec![Vec::new(); st.shards.len()];
        for (pi, rect) in rects.iter().enumerate() {
            for s in self.grid.shards_overlapping(rect) {
                per_shard[s].push(pi as u32);
            }
        }
        // Only shards with work go to the pool: a run of cache hits (or
        // of k-NN and rejected plans) issues no pool call, one busy
        // shard runs inline on this thread.
        let busy: Vec<(usize, Vec<u32>)> = per_shard
            .into_iter()
            .enumerate()
            .filter(|(_, queue)| !queue.is_empty())
            .collect();
        let shard_hits = fan_out(busy.len(), |i| {
            let (s, queue) = &busy[i];
            self.run_shard(st, *s, queue, rects)
        });

        let mut results: Vec<Vec<SegId>> = vec![Vec::new(); rects.len()];
        for hits in shard_hits {
            for (pi, ids) in hits {
                results[pi as usize].extend(ids);
            }
        }
        for ids in &mut results {
            ids.sort_unstable();
            ids.dedup();
        }
        // Base → logical: drop tombstoned hits and subtract each
        // survivor's tombstone rank (a monotone map, so sortedness and
        // dedup survive).
        if !st.tombstones.is_empty() {
            for ids in &mut results {
                ids.retain(|&b| !st.is_tombstoned(b));
                for id in ids.iter_mut() {
                    *id = logical_of_base(&st.tombstones, *id);
                }
            }
        }
        // Overlay-ladder hits: every pending segment has a logical id ≥
        // kept(), above every base logical — appending keeps the order.
        if !st.pending.is_empty() {
            let kept = st.kept();
            for (ids, extra) in results.iter_mut().zip(self.ladder_probe(st, rects)) {
                ids.extend(extra.into_iter().map(|l| kept + l));
            }
        }
        results
    }

    /// Window hits among the pending (overlay) segments, as local ids:
    /// one lockstep batch over the ladder tree, with a brute exact-clip
    /// fallback when the ladder machine crashes (injected or genuine) —
    /// answers stay bit-identical either way.
    fn ladder_probe(&self, st: &ServingState, rects: &[Rect]) -> Vec<Vec<SegId>> {
        if let Some(tree) = &st.ladder {
            let run = catch_unwind(AssertUnwindSafe(|| {
                batch_window_query(&self.ladder_machine, tree, rects, &st.pending)
            }));
            if let Ok(hits) = run {
                return hits;
            }
        }
        scan_probe(rects, &st.pending, 0..st.pending.len() as SegId)
    }

    /// Executes one shard's probe queue. Returns `(probe index, global
    /// ids)` pairs; ids are global hits not yet deduplicated across
    /// shards.
    fn run_shard(
        &self,
        st: &ServingState,
        s: usize,
        queue: &[u32],
        rects: &[Rect],
    ) -> Vec<(u32, Vec<SegId>)> {
        st.shards[s].counters.record_queue(queue.len());
        let mut out = Vec::with_capacity(queue.len());
        // `flush_batch >= 1` is a construction-time invariant
        // (`QueryServiceConfig::validate`), so chunking cannot panic.
        for chunk in queue.chunks(self.config.flush_batch) {
            let chunk_rects: Vec<Rect> = chunk.iter().map(|&pi| rects[pi as usize]).collect();
            let hits = self.probe_chunk(st, s, &chunk_rects);
            out.extend(chunk.iter().copied().zip(hits));
        }
        out
    }

    /// One probe chunk as a unit of the recovery ladder: a lockstep
    /// [`batch_window_query`] on the shard's index, hits mapped to global
    /// ids; a scan of the assignment once degraded. Always answers.
    fn probe_chunk(&self, st: &ServingState, s: usize, rects: &[Rect]) -> Vec<Vec<SegId>> {
        self.on_shard(st, s, |core, index| {
            // The probe-window buffer leases from the shard machine's
            // own scratch arena — the same pool the batch engine's
            // `_into` primitives recycle through. (Lost, not leaked
            // back, if this closure unwinds.)
            let mut buf: Vec<Rect> = core.machine.lease();
            buf.extend_from_slice(rects);
            let t0 = Instant::now();
            let hits = batch_window_query(&core.machine, &index.tree, &buf, &index.segs);
            let micros = t0.elapsed().as_micros() as u64;
            core.machine.recycle(buf);
            st.shards[s].counters.record_flush(micros);
            let to_global = |l: SegId| index.global_ids[l as usize];
            Ok(hits
                .into_iter()
                .map(|locals| locals.into_iter().map(to_global).collect())
                .collect())
        })
        .unwrap_or_else(|| scan_probe(rects, &st.segs, st.shards[s].assigned.iter().copied()))
    }

    /// Answers k-NN plans `(slot, p, k)` by expanding windows: the probe
    /// executor run for rounds, all unfinished requests advancing together.
    fn run_knn(
        &self,
        st: &ServingState,
        requests: Vec<(usize, Point, usize)>,
    ) -> Vec<(usize, Vec<(SegId, f64)>)> {
        let world = self.grid.world();
        // Initial half-width: a quarter tile, so round one stays local —
        // or the distance to the world for a `p` outside it (finite, so
        // validation let it through): no smaller window reaches a segment,
        // and doubling up to it would burn ~log₂(distance) empty rounds.
        // Any start is sound: `kth ≤ r` below holds for every `r`.
        let r0 = ((world.max.x - world.min.x) / self.config.shard_grid as f64 / 4.0).max(1e-9);
        let mut pending: Vec<(usize, Point, usize, f64)> = requests
            .into_iter()
            .map(|(slot, p, k)| (slot, p, k, r0.max(world.dist2_to_point(p).sqrt())))
            .collect();
        let mut answers = Vec::with_capacity(pending.len());
        while !pending.is_empty() {
            self.knn_rounds.fetch_add(1, Ordering::Relaxed);
            let windows: Vec<Rect> = pending
                .iter()
                .map(|&(_, p, _, r)| Rect::from_coords(p.x - r, p.y - r, p.x + r, p.y + r))
                .collect();
            let hits = self.run_probes(st, &windows);
            let mut next = Vec::new();
            for (&(slot, p, k, r), (ids, window)) in
                pending.iter().zip(hits.into_iter().zip(&windows))
            {
                let mut scored: Vec<(SegId, f64)> = ids
                    .into_iter()
                    .map(|id| (id, st.logical_seg(id).dist2_to_point(p).sqrt()))
                    .collect();
                scored.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                // Every segment at distance ≤ r intersects the window, so
                // a k-th best ≤ r is provably final; a window covering the
                // whole world has seen everything. (`k == 0` never reaches
                // here — validation rejects it — but the guard keeps the
                // indexing panic-free regardless.)
                let world_covered = window.contains_rect(&world);
                let kth_within = k > 0 && scored.len() >= k && scored[k - 1].1 <= r;
                if world_covered || kth_within {
                    // k entries, not the window's worth of capacity they came
                    // from: an open loop holds 100k responses behind tickets.
                    scored.truncate(k);
                    scored.shrink_to_fit();
                    answers.push((slot, scored));
                } else {
                    next.push((slot, p, k, r * 2.0));
                }
            }
            pending = next;
        }
        answers
    }

    /// Answers `Join` plans `(slot, window)`. Routing mirrors the window
    /// path: a join window is routed to every shard whose tile it
    /// overlaps. Each routed shard contributes its cached base×overlay
    /// frontier join (computed on first use), and the router keeps only
    /// the pairs that intersect *inside* the window —
    /// an exact filter, so a pair spanning several tiles is reported once
    /// and out-of-window candidates never surface. This is sound and
    /// complete: an intersection point inside the window lies in some
    /// overlapping tile, and both segments of the pair are assigned to
    /// that tile's shard. A degraded shard contributes the same pairs by
    /// brute force over its assignment (the oracle form of the join).
    fn run_joins(
        &self,
        st: &ServingState,
        joins: Vec<(usize, Rect)>,
    ) -> Vec<(usize, Vec<(SegId, SegId)>)> {
        if joins.is_empty() {
            return Vec::new();
        }
        self.join_requests
            .fetch_add(joins.len() as u64, Ordering::Relaxed);

        // Warm every needed shard's join cache concurrently, then filter
        // per request.
        let mut needed: Vec<usize> = joins
            .iter()
            .flat_map(|(_, q)| self.grid.shards_overlapping(q))
            .collect();
        needed.sort_unstable();
        needed.dedup();
        fan_out(needed.len(), |i| {
            self.shard_join(st, needed[i]);
        });

        let kept = st.kept();
        joins
            .into_iter()
            .map(|(slot, q)| {
                // A candidate (epoch-base id, overlay id) as the pair to
                // report: dropped when the base segment is tombstoned or
                // the two do not intersect inside the window, survivors
                // under their logical id.
                let keep = |(a, b): (SegId, SegId)| {
                    let (sa, sb) = (&st.segs[a as usize], &self.overlay_segs[b as usize]);
                    (!st.is_tombstoned(a) && pair_intersects_in(sa, sb, &q))
                        .then(|| (logical_of_base(&st.tombstones, a), b))
                };
                let mut pairs: Vec<(SegId, SegId)> = Vec::new();
                for s in self.grid.shards_overlapping(&q) {
                    match self.shard_join(st, s) {
                        Some(join) => pairs.extend(join.pairs.iter().copied().filter_map(keep)),
                        // Degraded shard: the oracle join — every assigned
                        // base×overlay pair through the same exact filter.
                        None => {
                            let shard = &st.shards[s];
                            let all = shard
                                .assigned
                                .iter()
                                .flat_map(|&a| shard.overlay_assigned.iter().map(move |&b| (a, b)));
                            pairs.extend(all.filter_map(keep));
                        }
                    }
                }
                // Pending segments join by brute force over the overlay:
                // the compaction threshold keeps them few, and a global
                // pass per window needs no routing argument at all.
                for (l, ps) in st.pending.iter().enumerate() {
                    for (b, os) in self.overlay_segs.iter().enumerate() {
                        if pair_intersects_in(ps, os, &q) {
                            pairs.push((kept + l as SegId, b as SegId));
                        }
                    }
                }
                pairs.sort_unstable();
                pairs.dedup();
                pairs.shrink_to_fit();
                (slot, pairs)
            })
            .collect()
    }

    /// The shard's cached base×overlay join, computed on first use as a
    /// unit of the recovery ladder (a typed join error — base and overlay
    /// trees over different worlds — rides it like a panic: a rebuild
    /// reconstructs both). The first finished computation wins the cache.
    /// `None`: the shard is degraded, fall back to the oracle join.
    fn shard_join(&self, st: &ServingState, s: usize) -> Option<Arc<ShardJoin>> {
        let shard = &st.shards[s];
        if let Some(join) = &shard.lock_core().join {
            return Some(join.clone());
        }
        self.on_shard(st, s, |core, index| {
            let join = compute_shard_join(&core.machine, index, core.overlay.as_deref())?;
            Ok(shard.lock_core().join.get_or_insert(Arc::new(join)).clone())
        })
    }
}

/// Window probes without an index — a degraded shard over its assignment,
/// a crashed overlay ladder over the pending segments: per rect, scan
/// `ids` with the exact closed-clip test, the predicate the indexed path
/// bottoms out in, so answers are bit-identical, just O(probes × ids).
/// Pure sequential code: no machine, no pool, nothing to crash.
fn scan_probe(
    rects: &[Rect],
    segs: &[LineSeg],
    ids: impl Iterator<Item = SegId> + Clone,
) -> Vec<Vec<SegId>> {
    let hit = |id: &SegId, q| clip_segment_closed(&segs[*id as usize], q).is_some();
    rects
        .iter()
        .map(|q| ids.clone().filter(|id| hit(id, q)).collect())
        .collect()
}

/// Runs the frontier join for one shard core and maps the pairs to
/// global ids.
fn compute_shard_join(
    machine: &Machine,
    index: &ShardIndex,
    overlay: Option<&ShardIndex>,
) -> Result<ShardJoin, SpatialError> {
    let Some(overlay) = overlay else {
        return Ok(ShardJoin::default());
    };
    // Isolate the join's round trace from any traces buffered by
    // earlier driver runs on this machine.
    let resumed = machine.take_round_traces();
    let outcome = frontier_join(
        machine,
        &index.tree,
        &index.segs,
        &overlay.tree,
        &overlay.segs,
    )?;
    let trace = machine.take_round_traces();
    for t in resumed {
        machine.record_round_trace(t);
    }
    let pairs: Vec<(SegId, SegId)> = outcome
        .pairs
        .iter()
        .map(|&(a, b)| (index.global_ids[a as usize], overlay.global_ids[b as usize]))
        .collect();
    let stats = ShardJoinStats {
        pairs: pairs.len(),
        rounds: outcome.rounds,
        frontier_peak: outcome.frontier_peak,
        pairs_tested: outcome.pairs_tested,
        trace,
    };
    Ok(ShardJoin { pairs, stats })
}

/// Reference answer for a k-NN request: brute force over all segments,
/// sorted by `(distance, id)`. Shared by the differential tests and the
/// load driver's self-check.
pub fn brute_knearest(segs: &[LineSeg], p: Point, k: usize) -> Vec<(SegId, f64)> {
    let mut scored: Vec<(SegId, f64)> = segs
        .iter()
        .enumerate()
        .map(|(id, s)| (id as SegId, s.dist2_to_point(p).sqrt()))
        .collect();
    scored.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    scored.truncate(k);
    scored
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdmissionPolicy, QueryServiceConfig, ServicePipeline};
    use dp_workloads::uniform_segments;

    #[test]
    fn cache_hits_share_the_response_allocation() {
        // Regression: cache hits used to clone the cached id vector into
        // every response. The payload is an `Arc` now — a hit hands out
        // the cache's own allocation, observable as pointer equality
        // across hits.
        let data = uniform_segments(120, 64, 8, 31);
        let config = QueryServiceConfig {
            compact_threshold: 1_000,
            ..QueryServiceConfig::sequential(2)
        };
        let svc = Arc::new(QueryService::build(config, data.world, data.segs.clone()));
        let pipeline = ServicePipeline::new(svc.clone(), 1, AdmissionPolicy::Block).unwrap();
        let q = Rect::from_coords(4.0, 4.0, 40.0, 40.0);
        let payload = |r: &Response| match r {
            Response::Window(ids) => ids.clone(),
            other => panic!("expected a window answer, got {other:?}"),
        };
        // Miss + admit, then two hits.
        let miss = payload(&pipeline.submit_all(&[Request::Window(q)])[0]);
        let hit1 = payload(&pipeline.submit_all(&[Request::Window(q)])[0]);
        let hit2 = payload(&pipeline.submit_all(&[Request::Window(q)])[0]);
        assert_eq!(*miss, *hit1);
        assert!(
            Arc::ptr_eq(&hit1, &hit2),
            "cache hits must share one allocation, not clone per hit"
        );
        let stats = svc.cache_stats();
        assert_eq!(stats.admitted, 1);
        assert_eq!(stats.hits, 2);
    }

    fn pipelined(seed: u64) -> (Arc<QueryService>, ServicePipeline) {
        let data = uniform_segments(150, 64, 8, seed);
        let svc = Arc::new(QueryService::build(
            QueryServiceConfig::sequential(2),
            data.world,
            data.segs,
        ));
        let pipeline = ServicePipeline::new(svc.clone(), 1, AdmissionPolicy::Block).unwrap();
        (svc, pipeline)
    }

    fn probes_executed(svc: &QueryService) -> u64 {
        svc.stats().shards.iter().map(|s| s.probes).sum()
    }

    #[test]
    fn a_batch_of_cache_hits_reaches_no_shard_and_answers_like_the_direct_path() {
        let (svc, pipeline) = pipelined(32);
        let reqs = [
            Request::Window(Rect::from_coords(4.0, 4.0, 40.0, 40.0)),
            Request::PointInWindow(Point::new(20.0, 20.0)),
            Request::Window(Rect::from_coords(30.0, 2.0, 62.0, 34.0)),
        ];
        let cold = pipeline.submit_all(&reqs);
        let probes = probes_executed(&svc);
        let warm = pipeline.submit_all(&reqs);
        assert_eq!(svc.cache_stats().hits, reqs.len() as u64);
        assert_eq!(probes_executed(&svc), probes, "a hit is not routed");
        assert_eq!(warm, cold);
        assert_eq!(warm, svc.execute_batch(&reqs));
    }

    #[test]
    fn a_read_run_without_probes_answers_like_the_direct_path() {
        let (svc, pipeline) = pipelined(33);
        let p = Point::new(31.0, 31.0);
        let reqs = [
            Request::KNearest { p, k: 4 },
            Request::PointInWindow(Point::new(f64::NAN, 1.0)),
            Request::KNearest { p, k: 0 },
        ];
        let served = pipeline.submit_all(&reqs);
        assert!(matches!(served[0], Response::KNearest(ref found) if found.len() == 4));
        assert!(matches!(served[1], Response::Rejected(_)));
        assert!(matches!(served[2], Response::Rejected(_)));
        assert_eq!(served, svc.execute_batch(&reqs));
    }

    #[test]
    fn empty_collection_and_empty_batch() {
        let world = Rect::from_coords(0.0, 0.0, 16.0, 16.0);
        let svc = QueryService::build(QueryServiceConfig::sequential(2), world, Vec::new());
        assert!(svc.execute_batch(&[]).is_empty());
        let out = svc.execute_batch(&[
            Request::Window(world),
            Request::KNearest {
                p: Point::new(1.0, 1.0),
                k: 3,
            },
        ]);
        assert_eq!(out[0], Response::Window(Arc::new(Vec::new())));
        assert_eq!(out[1], Response::KNearest(Vec::new()));
    }

    #[test]
    fn join_requests_match_windowed_brute_force() {
        use dp_spatial::join::brute_force_join_in;
        let base = uniform_segments(200, 64, 8, 21);
        let overlay = uniform_segments(150, 64, 8, 22);
        let svc = QueryService::build_with_overlay(
            QueryServiceConfig::sequential(2),
            base.world,
            base.segs.clone(),
            overlay.segs.clone(),
        );
        let windows = [
            base.world,
            Rect::from_coords(0.0, 0.0, 20.0, 20.0),
            Rect::from_coords(30.0, 30.0, 34.0, 34.0),
            Rect::point(Point::new(32.0, 32.0)),
        ];
        let reqs: Vec<Request> = windows.iter().map(|&q| Request::Join(q)).collect();
        let out = svc.execute_batch(&reqs);
        for (i, (q, resp)) in windows.iter().zip(&out).enumerate() {
            let pairs = resp
                .try_join(i)
                .unwrap_or_else(|e| panic!("join window {q}: {e}"));
            assert_eq!(
                pairs,
                brute_force_join_in(&base.segs, &overlay.segs, q),
                "join window {q}"
            );
        }
        let stats = svc.stats();
        assert_eq!(stats.join_requests, windows.len() as u64);
        let joined: Vec<&ShardJoinStats> = stats
            .shards
            .iter()
            .filter_map(|s| s.join.as_ref())
            .collect();
        assert!(!joined.is_empty(), "no shard computed a join");
        for j in joined {
            assert_eq!(
                j.trace.iter().filter(|t| t.nodes_split > 0).count(),
                j.rounds
            );
        }
    }

    #[test]
    fn join_without_overlay_is_empty() {
        let data = uniform_segments(100, 64, 8, 4);
        let svc = QueryService::build(
            QueryServiceConfig::sequential(2),
            data.world,
            data.segs.clone(),
        );
        let out = svc.execute_batch(&[Request::Join(data.world)]);
        assert_eq!(out[0], Response::Join(Vec::new()));
        assert!(svc.stats().shards.iter().all(|s| s
            .join
            .as_ref()
            .map(|j| j.pairs == 0)
            .unwrap_or(true)));
    }

    #[test]
    fn knn_crosses_shard_boundaries() {
        // Nearest neighbours of a point hugging a tile corner live in
        // other tiles; expanding windows must find them.
        let world = Rect::from_coords(0.0, 0.0, 64.0, 64.0);
        let segs = vec![
            LineSeg::from_coords(40.0, 40.0, 41.0, 41.0), // far, same tile as p? no: NE region
            LineSeg::from_coords(33.0, 33.0, 34.0, 33.0), // just across the centre
            LineSeg::from_coords(1.0, 1.0, 2.0, 2.0),     // same tile as p, far away
        ];
        let svc = QueryService::build(QueryServiceConfig::sequential(2), world, segs.clone());
        let p = Point::new(31.0, 31.0);
        let out = svc.execute_batch(&[Request::KNearest { p, k: 2 }]);
        assert_eq!(out[0], Response::KNearest(brute_knearest(&segs, p, 2)));
        assert!(svc.stats().knn_rounds >= 1);
    }

    #[test]
    fn knn_answers_do_not_carry_their_window_capacity() {
        // Regression: the scored candidates of the final window were
        // truncated to k and handed out with the capacity of the whole
        // window — kilobytes per response, and an open-loop client holds
        // a hundred thousand responses behind its tickets.
        let data = uniform_segments(2_000, 64, 8, 61);
        let svc = QueryService::build(
            QueryServiceConfig::sequential(1),
            data.world,
            data.segs.clone(),
        );
        let p = Point::new(32.0, 32.0);
        match &svc.execute_batch(&[Request::KNearest { p, k: 3 }])[0] {
            Response::KNearest(found) => {
                assert_eq!(found.len(), 3);
                assert!(found.capacity() <= 8, "capacity {}", found.capacity());
            }
            other => panic!("expected a k-NN answer, got {other:?}"),
        }
    }
}
