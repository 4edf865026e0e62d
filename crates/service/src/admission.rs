//! The pipelined admission layer: bounded per-lane queues,
//! work-conserving lane workers, reply slots, and background compaction.
//!
//! [`QueryService::execute_batch`] welds request arrival to round
//! execution: the caller hands over a whole batch and blocks until the
//! last response. [`ServicePipeline`] decouples the two. Arriving
//! requests are routed to a *lane* (by default one per shard, keyed by
//! the first shard the request's geometry overlaps, so a micro-batch
//! mostly probes a single shard), enqueued on a bounded MPSC queue, and
//! answered through a [`Ticket`] — a condvar-backed reply slot, no async
//! runtime. A worker thread per lane executes micro-batches through the
//! unchanged lockstep core.
//!
//! ## Batching policy
//!
//! A free worker takes whatever is queued, up to `flush_batch`, and parks
//! only on an empty queue. There is no timer and no minimum batch: the
//! coalescing window is the service time of the previous batch. An idle
//! lane therefore serves a lone request at once, and a lane with backlog
//! finds a full queue and hands the engine full batches — the per-level
//! primitive amortisation the paper's primitives exist for shows up
//! exactly when there is load to amortise over. A coalescing deadline
//! could only ever add latency: it made a free worker sleep on requests
//! it already held, and once a lane's backlog outlasted the deadline (or
//! reached the size trigger) the worker never waited on it anyway.
//!
//! A full lane applies the configured [`AdmissionPolicy`]: backpressure
//! (block the submitter) or load shedding (immediate typed
//! [`Response::Rejected`]`(`[`SpatialError::Overloaded`]`)`). Writes
//! admitted through a lane no longer compact inline; workers signal a
//! background compactor thread instead, which rebuilds the next epoch
//! off-thread while readers keep serving (see
//! [`QueryService::compact_now`]'s optimistic swap).
//!
//! ## Ordering model
//!
//! Each lane is strictly FIFO: requests admitted to the same lane are
//! executed in admission order, and every read observes all writes
//! admitted before it on its lane (plus any previously *published*
//! writes from other lanes — writes are atomic `Arc` swaps). A pipeline
//! built with one lane therefore serves exactly the eager sequential
//! semantics of [`QueryService::execute_batch`], which is what the
//! differential suite pins; with more lanes, cross-lane order is
//! scheduling-dependent while per-lane order and write atomicity still
//! hold.
//!
//! ## Shutdown
//!
//! The shutdown flag is a field of the state the lane mutex guards,
//! beside the queue: a worker reads it under the lock it parks with, and
//! `Drop` sets it under that lock before notifying, so the wake-up
//! cannot fall between the check and the park. An idle worker sits in a
//! plain `Condvar::wait` — an idle service takes no timer wake-ups.

use crate::shed::{Admission, AdmissionPolicy};
use crate::{families, QueryService, Response};
use dp_spatial::SpatialError;
use dp_workloads::Request;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A condvar-backed future for one response: the worker fulfils it, the
/// submitter blocks on [`Ticket::wait`]. No async runtime anywhere.
struct ReplySlot {
    inner: Mutex<Option<(Response, Instant)>>,
    ready: Condvar,
}

impl ReplySlot {
    fn empty() -> Arc<Self> {
        Arc::new(ReplySlot {
            inner: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    fn fulfilled(response: Response) -> Arc<Self> {
        Arc::new(ReplySlot {
            inner: Mutex::new(Some((response, Instant::now()))),
            ready: Condvar::new(),
        })
    }

    fn fulfil(&self, response: Response) {
        let mut slot = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some((response, Instant::now()));
        }
        self.ready.notify_all();
    }
}

/// The submitter's handle to one in-flight request.
pub struct Ticket {
    slot: Arc<ReplySlot>,
    lane: usize,
    submitted: Instant,
}

impl Ticket {
    /// Blocks until the response is ready and returns it together with
    /// the instant the worker fulfilled it (so latency can be measured
    /// against the *completion* time even when `wait` is called much
    /// later, as an open-loop driver does).
    pub fn wait_timed(self) -> (Response, Instant) {
        self.wait_until(None)
            .expect("a wait without a deadline ends only with the response")
    }

    /// Blocks until the response is ready.
    pub fn wait(self) -> Response {
        self.wait_timed().0
    }

    /// Waits up to `timeout` for the response. `Err(self)` gives the
    /// ticket back on timeout so the caller can keep waiting — used by
    /// the tests that pin "no admitted request waits forever".
    pub fn wait_timeout(self, timeout: Duration) -> Result<(Response, Instant), Ticket> {
        self.wait_until(Some(Instant::now() + timeout)).ok_or(self)
    }

    /// The response once the worker has fulfilled the slot; `None` if
    /// `deadline` passes first.
    fn wait_until(&self, deadline: Option<Instant>) -> Option<(Response, Instant)> {
        let ReplySlot { inner, ready } = &*self.slot;
        let mut slot = inner.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(done) = slot.take() {
                return Some(done);
            }
            slot = match deadline {
                None => ready.wait(slot).unwrap_or_else(PoisonError::into_inner),
                Some(deadline) => {
                    let left = deadline.checked_duration_since(Instant::now())?;
                    let timed = ready.wait_timeout(slot, left);
                    timed.unwrap_or_else(PoisonError::into_inner).0
                }
            };
        }
    }

    /// The lane this request was routed to.
    pub fn lane(&self) -> usize {
        self.lane
    }

    /// When the request was submitted (shed tickets included).
    pub fn submitted_at(&self) -> Instant {
        self.submitted
    }
}

/// A condvar-backed future for a whole submitted batch: one mutex and
/// one condvar shared by every member, instead of a [`ReplySlot`]
/// allocation per request. Workers fill all their members of a group
/// under a single lock (see `worker_loop`), which is what makes the
/// bulk [`ServicePipeline::submit_batch`] path cheap enough to saturate
/// the engine rather than the dispatcher.
struct GroupSlot {
    inner: Mutex<GroupState>,
    ready: Condvar,
}

/// The fills a worker gathers from one drained micro-batch, grouped per
/// distinct [`GroupSlot`] so each group pays one lock and one wakeup.
type GroupFills = Vec<(Arc<GroupSlot>, Vec<(usize, Response)>)>;

struct GroupState {
    responses: Vec<Option<(Response, Instant)>>,
    done: usize,
}

impl GroupSlot {
    fn new(n: usize) -> Arc<Self> {
        Arc::new(GroupSlot {
            inner: Mutex::new(GroupState {
                responses: (0..n).map(|_| None).collect(),
                done: 0,
            }),
            ready: Condvar::new(),
        })
    }

    /// Fills several members under one lock and one wakeup. All members
    /// filled together share one completion instant — they completed in
    /// the same micro-batch, so that is also the honest timestamp.
    fn fulfil_many(&self, fills: impl IntoIterator<Item = (usize, Response)>) {
        let now = Instant::now();
        let mut state = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        for (index, response) in fills {
            if state.responses[index].is_none() {
                state.responses[index] = Some((response, now));
                state.done += 1;
            }
        }
        self.ready.notify_all();
    }
}

/// The submitter's handle to one bulk-submitted batch.
pub struct BatchTicket {
    group: Arc<GroupSlot>,
    n: usize,
    submitted: Instant,
}

impl BatchTicket {
    /// Blocks until every member is answered; responses come back in
    /// submission order, shed members as
    /// [`Response::Rejected`]`(`[`SpatialError::Overloaded`]`)`.
    pub fn wait_all(self) -> Vec<Response> {
        self.wait_all_timed().into_iter().map(|(r, _)| r).collect()
    }

    /// Like [`BatchTicket::wait_all`], pairing each response with the
    /// instant its micro-batch completed.
    pub fn wait_all_timed(self) -> Vec<(Response, Instant)> {
        let mut state = self
            .group
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while state.done < self.n {
            state = self
                .group
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state
            .responses
            .iter_mut()
            .map(|slot| slot.take().expect("done == n implies every slot filled"))
            .collect()
    }

    /// Number of requests in the batch.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the batch was empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// When the batch was submitted.
    pub fn submitted_at(&self) -> Instant {
        self.submitted
    }
}

/// Where a worker writes one request's response.
enum ReplyHandle {
    /// Individually submitted: its own slot.
    Single(Arc<ReplySlot>),
    /// Bulk-submitted: member `index` of a shared group.
    Group { group: Arc<GroupSlot>, index: usize },
}

/// One queued request awaiting its micro-batch.
struct Envelope {
    request: Request,
    slot: ReplyHandle,
    enqueued: Instant,
}

/// What a lane's mutex guards.
#[derive(Default)]
struct LaneState {
    queue: Vec<Envelope>,
    /// Set once by the pipeline's `Drop`: the worker drains what is
    /// queued and exits instead of parking.
    shutdown: bool,
}

/// One admission lane: a bounded MPSC queue plus the condvars that make
/// it blocking on both ends.
struct Lane {
    state: Mutex<LaneState>,
    /// Wakes the lane worker on enqueue (and on shutdown).
    nonempty: Condvar,
    /// Wakes blocked submitters when the worker drains.
    space: Condvar,
    bound: usize,
    /// High-water mark of the queue depth since the worker last drained
    /// it into the shard counters — the *steady-state admission depth*
    /// that `ShardStats::max_queue_depth` now reports.
    max_depth: AtomicU64,
}

impl Lane {
    fn lock(&self) -> MutexGuard<'_, LaneState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Shared state of the background compactor thread.
struct CompactorShared {
    flags: Mutex<CompactorFlags>,
    cv: Condvar,
}

struct CompactorFlags {
    pending: bool,
    shutdown: bool,
}

impl CompactorShared {
    fn signal(&self) {
        let mut flags = self.flags.lock().unwrap_or_else(PoisonError::into_inner);
        flags.pending = true;
        self.cv.notify_one();
    }

    fn stop(&self) {
        let mut flags = self.flags.lock().unwrap_or_else(PoisonError::into_inner);
        flags.shutdown = true;
        self.cv.notify_one();
    }
}

/// The pipelined admission front-end over a [`QueryService`]. Submit
/// requests from any number of threads with [`ServicePipeline::submit`];
/// drop the pipeline to flush every queued request and join the workers.
pub struct ServicePipeline {
    service: Arc<QueryService>,
    lanes: Vec<Arc<Lane>>,
    policy: AdmissionPolicy,
    workers: Vec<JoinHandle<()>>,
    compactor: Option<JoinHandle<()>>,
    compactor_shared: Arc<CompactorShared>,
    shed_total: Arc<AtomicU64>,
    submitted_total: AtomicU64,
}

impl ServicePipeline {
    /// A pipeline with one lane (and one worker thread) per shard — the
    /// default shape, aligning coalesced micro-batches with shard
    /// locality.
    pub fn per_shard(
        service: Arc<QueryService>,
        policy: AdmissionPolicy,
    ) -> Result<Self, SpatialError> {
        let lanes = service.num_shards();
        ServicePipeline::new(service, lanes, policy)
    }

    /// A pipeline with `lanes` admission lanes. Queue bound and flush
    /// size come from the service's validated
    /// [`QueryServiceConfig`](crate::QueryServiceConfig).
    pub fn new(
        service: Arc<QueryService>,
        lanes: usize,
        policy: AdmissionPolicy,
    ) -> Result<Self, SpatialError> {
        if lanes == 0 {
            return Err(SpatialError::InvalidConfig {
                reason: "a pipeline needs at least one admission lane",
            });
        }
        let bound = service.config().queue_bound;
        let lanes: Vec<Arc<Lane>> = (0..lanes)
            .map(|_| {
                Arc::new(Lane {
                    state: Mutex::new(LaneState::default()),
                    nonempty: Condvar::new(),
                    space: Condvar::new(),
                    bound,
                    max_depth: AtomicU64::new(0),
                })
            })
            .collect();
        // Writes admitted through the pipeline defer compaction to the
        // background thread below instead of compacting inline under
        // write pressure.
        service.defer_compaction.store(true, Ordering::Relaxed);
        let compactor_shared = Arc::new(CompactorShared {
            flags: Mutex::new(CompactorFlags {
                pending: false,
                shutdown: false,
            }),
            cv: Condvar::new(),
        });
        let compactor = {
            let service = service.clone();
            let shared = compactor_shared.clone();
            std::thread::spawn(move || compactor_loop(&service, &shared))
        };
        let num_shards = service.num_shards();
        let workers = lanes
            .iter()
            .enumerate()
            .map(|(i, lane)| {
                let service = service.clone();
                let lane = lane.clone();
                let shared = compactor_shared.clone();
                let shard_slot = i % num_shards;
                std::thread::spawn(move || worker_loop(&service, &lane, shard_slot, &shared))
            })
            .collect();
        Ok(ServicePipeline {
            service,
            lanes,
            policy,
            workers,
            compactor: Some(compactor),
            compactor_shared,
            shed_total: Arc::new(AtomicU64::new(0)),
            submitted_total: AtomicU64::new(0),
        })
    }

    /// The service behind this pipeline.
    pub fn service(&self) -> &Arc<QueryService> {
        &self.service
    }

    /// Number of admission lanes.
    pub fn num_lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Requests submitted so far (shed ones included).
    pub fn submitted(&self) -> u64 {
        self.submitted_total.load(Ordering::Relaxed)
    }

    /// Requests shed so far by full lanes under
    /// [`AdmissionPolicy::Shed`].
    pub fn shed(&self) -> u64 {
        self.shed_total.load(Ordering::Relaxed)
    }

    /// Which lane a request routes to: the shard of its routing geometry
    /// (see `families::route` — the first shard the request overlaps, so
    /// a coalesced batch stays shard-local; deletes spread by id), folded
    /// into the lane count.
    pub fn lane_of(&self, r: &Request) -> usize {
        families::route(&self.service.grid(), r) % self.lanes.len()
    }

    /// Submits one request and returns its [`Ticket`]. Under
    /// [`AdmissionPolicy::Block`] a full lane blocks the caller until a
    /// worker drains (backpressure); under [`AdmissionPolicy::Shed`]
    /// the ticket comes back already rejected with
    /// [`SpatialError::Overloaded`].
    pub fn submit(&self, request: Request) -> Ticket {
        self.submitted_total.fetch_add(1, Ordering::Relaxed);
        let lane_idx = self.lane_of(&request);
        let lane = &self.lanes[lane_idx];
        let submitted = Instant::now();
        let mut state = lane.lock();
        loop {
            match self.policy.admit(lane_idx, state.queue.len(), lane.bound) {
                Admission::Enqueue => {
                    let slot = ReplySlot::empty();
                    state.queue.push(Envelope {
                        request,
                        slot: ReplyHandle::Single(slot.clone()),
                        enqueued: submitted,
                    });
                    lane.max_depth
                        .fetch_max(state.queue.len() as u64, Ordering::Relaxed);
                    drop(state);
                    lane.nonempty.notify_one();
                    return Ticket {
                        slot,
                        lane: lane_idx,
                        submitted,
                    };
                }
                Admission::Block => {
                    state = lane
                        .space
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                Admission::Shed(e) => {
                    drop(state);
                    self.shed_total.fetch_add(1, Ordering::Relaxed);
                    self.service.note_shed(lane_idx % self.service.num_shards());
                    return Ticket {
                        slot: ReplySlot::fulfilled(Response::Rejected(e)),
                        lane: lane_idx,
                        submitted,
                    };
                }
            }
        }
    }

    /// Submits a whole batch through the bulk path: requests are grouped
    /// by lane so each lane's mutex is taken once per group rather than
    /// once per request, and all replies share one group slot (a single
    /// mutex + condvar for the whole batch). This
    /// is the throughput front door — per-request submission overhead is
    /// what caps a saturated pipeline on few cores, not the engine.
    ///
    /// Per-lane FIFO order follows slice order, so a one-lane pipeline
    /// still serves exact eager-sequential semantics; across lanes the
    /// enqueue order is by lane index (reads commute, and cross-lane
    /// write order was already scheduling-dependent).
    pub fn submit_batch(&self, requests: &[Request]) -> BatchTicket {
        self.submitted_total
            .fetch_add(requests.len() as u64, Ordering::Relaxed);
        let submitted = Instant::now();
        let group = GroupSlot::new(requests.len());
        let mut by_lane: Vec<Vec<(usize, Request)>> = vec![Vec::new(); self.lanes.len()];
        for (index, &request) in requests.iter().enumerate() {
            by_lane[self.lane_of(&request)].push((index, request));
        }
        for (lane_idx, items) in by_lane.into_iter().enumerate() {
            if items.is_empty() {
                continue;
            }
            let lane = &self.lanes[lane_idx];
            let mut shed_fills: Vec<(usize, Response)> = Vec::new();
            {
                let mut state = lane.lock();
                let mut enqueued = Instant::now();
                'items: for (index, request) in items {
                    loop {
                        match self.policy.admit(lane_idx, state.queue.len(), lane.bound) {
                            Admission::Enqueue => {
                                state.queue.push(Envelope {
                                    request,
                                    slot: ReplyHandle::Group {
                                        group: group.clone(),
                                        index,
                                    },
                                    enqueued,
                                });
                                continue 'items;
                            }
                            Admission::Block => {
                                // Wake the worker before parking: it may
                                // never have been notified about the
                                // requests just pushed, and the queue
                                // only drains through it.
                                lane.nonempty.notify_one();
                                state = lane
                                    .space
                                    .wait(state)
                                    .unwrap_or_else(PoisonError::into_inner);
                                enqueued = Instant::now();
                            }
                            Admission::Shed(e) => {
                                shed_fills.push((index, Response::Rejected(e)));
                                continue 'items;
                            }
                        }
                    }
                }
                lane.max_depth
                    .fetch_max(state.queue.len() as u64, Ordering::Relaxed);
            }
            lane.nonempty.notify_one();
            if !shed_fills.is_empty() {
                self.shed_total
                    .fetch_add(shed_fills.len() as u64, Ordering::Relaxed);
                for _ in 0..shed_fills.len() {
                    self.service.note_shed(lane_idx % self.service.num_shards());
                }
                group.fulfil_many(shed_fills);
            }
        }
        BatchTicket {
            group,
            n: requests.len(),
            submitted,
        }
    }

    /// Convenience: submits a whole slice through the bulk path and
    /// waits for every response, preserving order — `execute_batch`
    /// semantics through the admission path (used by tests and the
    /// closed-loop driver legs).
    pub fn submit_all(&self, requests: &[Request]) -> Vec<Response> {
        self.submit_batch(requests).wait_all()
    }
}

impl Drop for ServicePipeline {
    fn drop(&mut self) {
        for lane in &self.lanes {
            lane.lock().shutdown = true;
            lane.nonempty.notify_all();
            // Unblock any submitter still waiting for space; its
            // re-check happens against a draining queue.
            lane.space.notify_all();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.compactor_shared.stop();
        if let Some(compactor) = self.compactor.take() {
            let _ = compactor.join();
        }
        self.service
            .defer_compaction
            .store(false, Ordering::Relaxed);
    }
}

/// The lane worker: take what is queued, execute, fulfil — until the
/// lane is shut down *and* drained.
fn worker_loop(
    service: &QueryService,
    lane: &Lane,
    shard_slot: usize,
    compactor: &CompactorShared,
) {
    loop {
        let batch: Vec<Envelope> = {
            let mut state = lane.lock();
            while state.queue.is_empty() {
                if state.shutdown {
                    return;
                }
                state = lane
                    .nonempty
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            let take = state.queue.len().min(service.config.flush_batch);
            state.queue.drain(..take).collect()
        };
        lane.space.notify_all();

        let drained = Instant::now();
        let queue_wait_micros: u64 = batch
            .iter()
            .map(|e| {
                drained
                    .saturating_duration_since(e.enqueued)
                    .as_micros()
                    .min(u64::MAX as u128) as u64
            })
            .sum();
        let requests: Vec<Request> = batch.iter().map(|e| e.request).collect();
        // `execute_inner` never panics by design (the recovery ladder
        // owns crashes below it); this backstop keeps the no-ticket-
        // waits-forever guarantee even if that invariant ever breaks.
        let responses = catch_unwind(AssertUnwindSafe(|| {
            service.execute_inner(&requests, Some(shard_slot))
        }))
        .unwrap_or_else(|_| {
            vec![
                Response::Rejected(SpatialError::ShardUnavailable {
                    shard: shard_slot,
                    attempts: 1,
                });
                requests.len()
            ]
        });
        // Singles get their own slot; group members are gathered per
        // distinct group and filled under one lock + one wakeup each —
        // a drained micro-batch usually belongs to a single bulk submit.
        let mut group_fills: GroupFills = Vec::new();
        for (envelope, response) in batch.iter().zip(responses) {
            match &envelope.slot {
                ReplyHandle::Single(slot) => slot.fulfil(response),
                ReplyHandle::Group { group, index } => {
                    match group_fills.iter_mut().find(|(g, _)| Arc::ptr_eq(g, group)) {
                        Some((_, fills)) => fills.push((*index, response)),
                        None => group_fills.push((group.clone(), vec![(*index, response)])),
                    }
                }
            }
        }
        for (group, fills) in group_fills {
            group.fulfil_many(fills);
        }
        service.note_admitted_batch(
            shard_slot,
            batch.len() as u64,
            queue_wait_micros,
            lane.max_depth.swap(0, Ordering::Relaxed),
        );
        if service.wants_compaction() {
            compactor.signal();
        }
    }
}

/// The background compactor: waits for write-pressure signals from lane
/// workers and runs [`QueryService::compact_now`] off-thread. Readers
/// keep serving the old epoch while the new one builds (the optimistic
/// path inside `compact_now`); a failed attempt just leaves the old
/// epoch serving and waits for the next signal.
fn compactor_loop(service: &QueryService, shared: &CompactorShared) {
    loop {
        {
            let mut flags = shared.flags.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if flags.shutdown {
                    return;
                }
                if flags.pending {
                    flags.pending = false;
                    break;
                }
                flags = shared
                    .cv
                    .wait(flags)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        // Crashing compactions (injected or genuine) return typed errors
        // and leave the previous epoch serving; nothing to do but wait
        // for the next signal.
        let _ = service.compact_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryServiceConfig;
    use dp_workloads::{request_stream, uniform_segments, RequestMix};

    fn small_service(compact_threshold: usize) -> Arc<QueryService> {
        let data = uniform_segments(200, 64, 8, 41);
        Arc::new(QueryService::build(
            QueryServiceConfig {
                compact_threshold,
                ..QueryServiceConfig::sequential(2)
            },
            data.world,
            data.segs,
        ))
    }

    #[test]
    fn pipeline_matches_execute_batch_on_reads() {
        let data = uniform_segments(300, 64, 8, 42);
        let svc = Arc::new(QueryService::build(
            QueryServiceConfig::sequential(2),
            data.world,
            data.segs.clone(),
        ));
        let oracle = QueryService::build(
            QueryServiceConfig::sequential(2),
            data.world,
            data.segs.clone(),
        );
        let reqs = request_stream(data.world, 120, RequestMix::DEFAULT, 7);
        let pipeline = ServicePipeline::per_shard(svc, AdmissionPolicy::Block).unwrap();
        assert_eq!(pipeline.submit_all(&reqs), oracle.execute_batch(&reqs));
        assert_eq!(pipeline.submitted(), reqs.len() as u64);
        assert_eq!(pipeline.shed(), 0);
    }

    #[test]
    fn drop_flushes_queued_requests() {
        let svc = small_service(1_000);
        let pipeline = ServicePipeline::new(svc.clone(), 1, AdmissionPolicy::Block).unwrap();
        let world = svc.grid().world();
        let tickets: Vec<Ticket> = (0..50)
            .map(|_| pipeline.submit(Request::Window(world)))
            .collect();
        drop(pipeline); // workers must answer everything before exiting
        for t in tickets {
            match t.wait_timeout(Duration::from_secs(10)) {
                Ok((Response::Window(_), _)) => {}
                Ok((other, _)) => panic!("unexpected response {other:?}"),
                Err(_) => panic!("ticket never fulfilled after pipeline drop"),
            }
        }
    }

    #[test]
    fn zero_lanes_is_a_typed_config_error() {
        let svc = small_service(1_000);
        assert!(matches!(
            ServicePipeline::new(svc, 0, AdmissionPolicy::Block),
            Err(SpatialError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn pipelined_writes_compact_in_the_background() {
        let svc = small_service(4);
        let world = svc.grid().world();
        let pipeline = ServicePipeline::new(svc.clone(), 1, AdmissionPolicy::Block).unwrap();
        let seg = dp_geom::LineSeg::from_coords(1.0, 1.0, 2.0, 2.0);
        let tickets: Vec<Ticket> = (0..16)
            .map(|_| pipeline.submit(Request::Insert(seg)))
            .collect();
        for t in tickets {
            assert!(matches!(t.wait(), Response::Inserted(_)));
        }
        // The background compactor owns compaction now; wait for it to
        // absorb the pressure (bounded spin — the signal is already in).
        let deadline = Instant::now() + Duration::from_secs(10);
        while svc.stats().compactions == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(pipeline);
        let stats = svc.stats();
        assert!(stats.compactions > 0, "background compactor never ran");
        // And the collection is exactly what an eager engine would hold.
        assert_eq!(svc.segments().len(), 200 + 16);
        let out = svc.execute_batch(&[Request::Window(world)]);
        let hits = out[0].try_window(0).unwrap();
        assert_eq!(hits.len(), 216);
    }

    #[test]
    fn queue_depth_gauge_resets_on_epoch_swap_and_stat_reset() {
        let svc = small_service(1_000);
        let world = svc.grid().world();
        {
            let pipeline = ServicePipeline::new(svc.clone(), 1, AdmissionPolicy::Block).unwrap();
            let reqs = vec![Request::Window(world); 64];
            pipeline.submit_all(&reqs);
        }
        let stats = svc.stats();
        // The bulk submit pushed its whole chunk under one lane lock, so
        // the recorded steady-state high-water mark saw the full burst.
        let depth = stats.shards.iter().map(|s| s.max_queue_depth).max();
        assert!(
            depth >= Some(64),
            "admission burst missing from gauge: {depth:?}"
        );
        assert_eq!(stats.shards.iter().map(|s| s.admitted).sum::<u64>(), 64);

        // Epoch swap: monotone counters carry, the gauge resets — the
        // new epoch's queues start empty, so an old peak would be
        // unfalsifiable telemetry.
        let seg = dp_geom::LineSeg::from_coords(1.0, 1.0, 2.0, 2.0);
        assert!(matches!(
            svc.execute_batch(&[Request::Insert(seg)])[0],
            Response::Inserted(_)
        ));
        svc.compact_now().expect("clean compaction");
        let stats = svc.stats();
        assert_eq!(stats.epoch, 1);
        assert_eq!(
            stats.shards.iter().map(|s| s.max_queue_depth).max(),
            Some(0)
        );
        assert_eq!(stats.shards.iter().map(|s| s.admitted).sum::<u64>(), 64);

        // reset_stats clears gauge and counters coherently.
        svc.reset_stats();
        let stats = svc.stats();
        assert_eq!(
            stats.shards.iter().map(|s| s.max_queue_depth).max(),
            Some(0)
        );
        assert_eq!(stats.shards.iter().map(|s| s.admitted).sum::<u64>(), 0);
    }

    #[test]
    fn bulk_submit_matches_per_request_submission() {
        let data = uniform_segments(300, 64, 8, 44);
        let svc = Arc::new(QueryService::build(
            QueryServiceConfig::sequential(2),
            data.world,
            data.segs.clone(),
        ));
        let oracle = QueryService::build(
            QueryServiceConfig::sequential(2),
            data.world,
            data.segs.clone(),
        );
        let reqs = request_stream(data.world, 200, RequestMix::DEFAULT, 9);
        let pipeline = ServicePipeline::per_shard(svc, AdmissionPolicy::Block).unwrap();
        let ticket = pipeline.submit_batch(&reqs);
        assert_eq!(ticket.len(), reqs.len());
        let timed = ticket.wait_all_timed();
        assert!(timed.iter().all(|(_, done)| *done >= pipeline_epoch()));
        let responses: Vec<Response> = timed.into_iter().map(|(r, _)| r).collect();
        assert_eq!(responses, oracle.execute_batch(&reqs));
        assert_eq!(pipeline.submitted(), reqs.len() as u64);

        // An empty batch is answered instantly.
        let empty = pipeline.submit_batch(&[]);
        assert!(empty.is_empty());
        assert_eq!(empty.wait_all(), Vec::<Response>::new());
    }

    /// An instant strictly before any test submission (for sanity checks
    /// on completion timestamps).
    fn pipeline_epoch() -> Instant {
        Instant::now() - Duration::from_secs(3600)
    }

    #[test]
    fn bulk_submit_sheds_with_typed_overload() {
        let data = uniform_segments(100, 64, 8, 45);
        let svc = Arc::new(QueryService::build(
            QueryServiceConfig {
                flush_batch: 8,
                queue_bound: 8,
                ..QueryServiceConfig::sequential(2)
            },
            data.world,
            data.segs,
        ));
        let pipeline = ServicePipeline::new(svc.clone(), 1, AdmissionPolicy::Shed).unwrap();
        let world = svc.grid().world();
        let reqs = vec![Request::Window(world); 256];
        let out = pipeline.submit_all(&reqs);
        let shed = out
            .iter()
            .filter(|r| matches!(r, Response::Rejected(SpatialError::Overloaded { .. })))
            .count();
        let answered = out
            .iter()
            .filter(|r| matches!(r, Response::Window(_)))
            .count();
        assert_eq!(shed + answered, 256);
        assert!(shed > 0, "a 256-burst against a bound of 8 must shed");
        assert_eq!(pipeline.shed(), shed as u64);
    }

    /// A one-shard service behind a one-lane pipeline, for the tests
    /// that need the worker provably out of the way.
    fn one_lane(
        seed: u64,
        queue_bound: usize,
        policy: AdmissionPolicy,
    ) -> (Arc<QueryService>, ServicePipeline) {
        let data = uniform_segments(100, 64, 8, seed);
        let svc = Arc::new(QueryService::build(
            QueryServiceConfig {
                flush_batch: FLUSH,
                queue_bound,
                compact_threshold: 1_000,
                ..QueryServiceConfig::sequential(1)
            },
            data.world,
            data.segs,
        ));
        let pipeline = ServicePipeline::new(svc.clone(), 1, policy).unwrap();
        (svc, pipeline)
    }

    const FLUSH: usize = 8;

    /// Runs `backlog` while the lane worker is stalled inside a batch of
    /// exactly one request, whose ticket comes back with `backlog`'s
    /// result. The stall is by construction, not by timing: this thread
    /// holds the only shard's core lock, submits one window read and
    /// spins until the lane queue is empty — the worker owns the request
    /// and cannot get past `on_shard`'s core snapshot, so it cannot come
    /// back for more until the guard drops here. (The state lock would
    /// stall it a step earlier, but a shed `submit` reads the state for
    /// its shard counter and would deadlock behind this thread's guard.)
    fn with_stalled_worker<T>(
        svc: &QueryService,
        pipeline: &ServicePipeline,
        backlog: impl FnOnce() -> T,
    ) -> (Ticket, T) {
        let st = svc.state_snapshot();
        let core = st.shards[0].lock_core();
        let first = pipeline.submit(Request::Window(svc.grid().world()));
        while !pipeline.lanes[0].lock().queue.is_empty() {
            std::thread::yield_now();
        }
        let out = backlog();
        drop(core);
        (first, out)
    }

    fn admission_counts(svc: &QueryService) -> (u64, u64, u64) {
        let shards = svc.stats().shards;
        (
            shards.iter().map(|s| s.admitted).sum(),
            shards.iter().map(|s| s.coalesced_batches).sum(),
            shards.iter().map(|s| s.shed).sum(),
        )
    }

    #[test]
    fn full_lanes_shed_with_typed_overload() {
        const OVER: usize = 5;
        let (svc, pipeline) = one_lane(43, FLUSH, AdmissionPolicy::Shed);
        let world = svc.grid().world();
        let (first, tickets) = with_stalled_worker(&svc, &pipeline, || {
            let tickets: Vec<Ticket> = (0..FLUSH + OVER)
                .map(|_| pipeline.submit(Request::Window(world)))
                .collect();
            // Nothing drains while the worker is stalled: the bound's
            // worth is queued, the rest is already refused.
            assert_eq!(pipeline.shed(), OVER as u64);
            tickets
        });
        assert!(matches!(first.wait(), Response::Window(_)));
        for (i, t) in tickets.into_iter().enumerate() {
            match t.wait() {
                Response::Window(_) if i < FLUSH => {}
                Response::Rejected(SpatialError::Overloaded { lane, depth }) if i >= FLUSH => {
                    assert_eq!((lane, depth), (0, FLUSH));
                }
                other => panic!("request {i}: unexpected response {other:?}"),
            }
        }
        assert_eq!(pipeline.submitted(), (1 + FLUSH + OVER) as u64);
        drop(pipeline); // joins the worker: its last batch is counted
        assert_eq!(
            admission_counts(&svc),
            (1 + FLUSH as u64, 2, OVER as u64),
            "(admitted, batches, shed)"
        );
    }

    #[test]
    fn backlog_behind_a_busy_worker_forms_one_batch_in_fifo_order() {
        let (svc, pipeline) = one_lane(46, FLUSH, AdmissionPolicy::Block);
        let world = svc.grid().world();
        let twin = QueryService::build(*svc.config(), world, svc.segments());
        // k < flush_batch reads and writes, each observing the ones
        // before it: any reordering or split would change an answer.
        let seg = dp_geom::LineSeg::from_coords(3.0, 3.0, 9.0, 5.0);
        let p = dp_geom::Point::new(4.0, 4.0);
        let backlog = [
            Request::Insert(seg),
            Request::Window(world),
            Request::Delete(0),
            Request::KNearest { p, k: 3 },
            Request::Delete(99),
            Request::PointInWindow(p),
        ];
        assert!(backlog.len() < FLUSH);
        let (first, tickets) = with_stalled_worker(&svc, &pipeline, || {
            backlog.map(|r| pipeline.submit(r)).into_iter()
        });
        let served: Vec<Response> = std::iter::once(first)
            .chain(tickets)
            .map(Ticket::wait)
            .collect();
        let mut eager = vec![Request::Window(world)];
        eager.extend(backlog);
        assert_eq!(served, twin.execute_batch(&eager));
        drop(pipeline);
        assert_eq!(
            admission_counts(&svc),
            (1 + backlog.len() as u64, 2, 0),
            "(admitted, batches, shed)"
        );
    }

    #[test]
    fn a_free_worker_takes_at_most_flush_batch() {
        let k = 2 * FLUSH + 3;
        let (svc, pipeline) = one_lane(47, 4 * FLUSH, AdmissionPolicy::Block);
        let reqs = vec![Request::Window(svc.grid().world()); k];
        // The bulk door, because members of one group that complete in
        // the same micro-batch share one completion instant: the batch
        // sizes can be read back exactly.
        let (first, group) = with_stalled_worker(&svc, &pipeline, || pipeline.submit_batch(&reqs));
        let (_, first_done) = first.wait_timed();
        let done: Vec<Instant> = group.wait_all_timed().into_iter().map(|(_, t)| t).collect();
        assert!(done.iter().all(|t| *t > first_done));
        assert!(done.windows(2).all(|w| w[0] <= w[1]), "FIFO across batches");
        let batch_starts: Vec<usize> = (0..k)
            .filter(|&i| i == 0 || done[i] != done[i - 1])
            .collect();
        assert_eq!(batch_starts, [0, FLUSH, 2 * FLUSH]);
        drop(pipeline);
        assert_eq!(
            admission_counts(&svc),
            (1 + k as u64, 4, 0),
            "(admitted, batches, shed)"
        );
    }

    #[test]
    fn drop_wakes_every_worker_idle_or_loaded() {
        // A lost wake-up hangs rather than fails, so the cycles run
        // beside a wall-clock guard.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let cycles = std::thread::spawn(move || {
            let svc = small_service(1_000);
            let world = svc.grid().world();
            let two_lanes =
                || ServicePipeline::new(svc.clone(), 2, AdmissionPolicy::Block).unwrap();
            for _ in 0..500 {
                drop(two_lanes());
            }
            for _ in 0..200 {
                let pipeline = two_lanes();
                let tickets: Vec<Ticket> = (0..6)
                    .map(|_| pipeline.submit(Request::Window(world)))
                    .collect();
                drop(pipeline);
                // The workers are joined: nothing is left to wait for.
                for t in tickets {
                    assert!(t.wait_until(Some(Instant::now())).is_some());
                }
            }
            let _ = done_tx.send(());
        });
        let guard = done_rx.recv_timeout(Duration::from_secs(120));
        assert_ne!(
            guard,
            Err(std::sync::mpsc::RecvTimeoutError::Timeout),
            "a lane worker slept through its pipeline's drop"
        );
        cycles
            .join()
            .expect("a dropped pipeline left a ticket unanswered");
    }
}
