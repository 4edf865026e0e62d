//! What the service holds: shards and their swappable cores, logical
//! ids, the serving epoch, the service and its constructors. Each
//! aggregate has one way into existence — [`Shard::new`] (+
//! [`Shard::successor`] across an epoch swap), [`ServingState::new`] (+
//! [`ServingState::with_overlay`] for a write), [`QueryService::assemble`]
//! — so cold build, compaction and snapshot restore cannot disagree.

use crate::config::make_machine;
use crate::recovery::fan_out;
use crate::stats::ShardCounters;
use crate::{QueryServiceConfig, RecoveryEvent, ShardJoinStats, WindowCache};
use dp_geom::{LineSeg, Rect};
use dp_spatial::shard::{ShardGrid, ShardIndex};
use dp_spatial::{SegId, SpatialError};
use scan_model::{FaultPlan, Machine, RoundTrace};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockWriteGuard};

/// A shard's cached base×overlay join: pairs in global ids plus the
/// round telemetry of the frontier run that produced them.
#[derive(Default)]
pub(crate) struct ShardJoin {
    pub(crate) pairs: Vec<(SegId, SegId)>,
    pub(crate) stats: ShardJoinStats,
}

/// The swappable heart of a shard. Everything is behind an `Arc` so a
/// query thread can *snapshot* the core under a brief lock, run the
/// actual machine work with no lock held (holding a shard lock across
/// pool work can self-deadlock when the holder help-drains another
/// batch's job for the same shard), and a recovering thread can swap in
/// a rebuilt core underneath it.
#[derive(Clone)]
pub(crate) struct ShardCore {
    pub(crate) machine: Arc<Machine>,
    /// `None` once the shard has degraded to the sequential oracle.
    pub(crate) index: Option<Arc<ShardIndex>>,
    pub(crate) overlay: Option<Arc<ShardIndex>>,
    /// The cached base×overlay join (first computation wins).
    pub(crate) join: Option<Arc<ShardJoin>>,
}

impl ShardCore {
    pub(crate) fn new(
        machine: Machine,
        index: Option<ShardIndex>,
        overlay: Option<Arc<ShardIndex>>,
    ) -> ShardCore {
        ShardCore {
            machine: Arc::new(machine),
            index: index.map(Arc::new),
            overlay,
            join: None,
        }
    }
}

pub(crate) struct Shard {
    /// The shard's tile (kept outside the core so stats work when the
    /// index is gone).
    pub(crate) tile: Rect,
    /// Global ids of base segments assigned to this shard — the rebuild
    /// source and the oracle's scan list.
    pub(crate) assigned: Vec<SegId>,
    /// Global ids of overlay segments assigned to this shard.
    pub(crate) overlay_assigned: Vec<SegId>,
    /// This shard's fork of the service fault plan (occurrence indices
    /// count per shard, so injection is schedule-independent).
    pub(crate) plan: Arc<FaultPlan>,
    pub(crate) counters: ShardCounters,
    pub(crate) retries: AtomicU64,
    pub(crate) rebuilds: AtomicU64,
    pub(crate) degraded: AtomicBool,
    /// Round-driver telemetry of this shard's (first successful) build,
    /// drained from the machine right after construction.
    pub(crate) build_trace: Vec<RoundTrace>,
    core: Mutex<ShardCore>,
}

impl Shard {
    /// Zeroed telemetry and an index-less core on a fresh machine — what
    /// a build that never succeeds leaves behind. The cold build fills it
    /// through [`Shard::build_recovering`], a restore sets the index.
    pub(crate) fn new(
        config: &QueryServiceConfig,
        tile: Rect,
        assigned: Vec<SegId>,
        overlay_assigned: Vec<SegId>,
        plan: Arc<FaultPlan>,
    ) -> Shard {
        let core = ShardCore::new(make_machine(config, &plan), None, None);
        Shard {
            tile,
            assigned,
            overlay_assigned,
            plan,
            counters: ShardCounters::default(),
            retries: AtomicU64::new(0),
            rebuilds: AtomicU64::new(0),
            degraded: AtomicBool::new(false),
            build_trace: Vec::new(),
            core: Mutex::new(core),
        }
    }

    /// This shard in the next epoch: new assignment, core and build
    /// trace; everything else carried over, so telemetry is continuous
    /// across epoch swaps ([`ShardCounters::carry`] restarts one gauge).
    pub(crate) fn successor(
        &self,
        assigned: Vec<SegId>,
        core: ShardCore,
        build_trace: Vec<RoundTrace>,
    ) -> Shard {
        Shard {
            tile: self.tile,
            assigned,
            overlay_assigned: self.overlay_assigned.clone(),
            plan: self.plan.clone(),
            counters: self.counters.carry(),
            retries: AtomicU64::new(self.retries.load(Ordering::Relaxed)),
            rebuilds: AtomicU64::new(self.rebuilds.load(Ordering::Relaxed)),
            degraded: AtomicBool::new(self.degraded.load(Ordering::Relaxed)),
            build_trace,
            core: Mutex::new(core),
        }
    }

    pub(crate) fn lock_core(&self) -> MutexGuard<'_, ShardCore> {
        // A panic while the lock was held cannot corrupt the core (it
        // only holds Arcs swapped atomically under the lock), so poison
        // is safe to clear.
        self.core.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn snapshot(&self) -> ShardCore {
        self.lock_core().clone()
    }
}

/// Rank of base id `b` among the live (non-tombstoned) ids of its epoch
/// — its logical id. `tombstones` is sorted ascending.
pub(crate) fn logical_of_base(tombstones: &[SegId], b: SegId) -> SegId {
    b - tombstones.partition_point(|&t| t < b) as SegId
}

/// The `j`-th live base id: the inverse of [`logical_of_base`]. Standard
/// rank/select fixpoint — `b = j + #{t ∈ tombstones : t ≤ b}` converges
/// because the right-hand side is monotone and bounded.
pub(crate) fn base_of_logical(tombstones: &[SegId], j: SegId) -> SegId {
    let mut b = j;
    loop {
        let nb = j + tombstones.partition_point(|&t| t <= b) as SegId;
        if nb == b {
            return b;
        }
        b = nb;
    }
}

/// One immutable serving epoch plus the write overlay accumulated on top
/// of it. Readers snapshot the whole state with one `Arc` clone and run
/// lock-free; writers publish a replacement `Arc` under the state write
/// lock; a compaction folds the overlay into the shard trees and bumps
/// `epoch` in the same single atomic swap — so no reader ever observes a
/// half-swapped tree.
///
/// **Logical ids.** Query responses and write requests address segments
/// by *logical* id: the segment's position in the collection an eager
/// sequential engine would hold after replaying every accepted write
/// (`Vec::push` per insert, `Vec::remove` per delete). Inside an epoch
/// that collection is: the epoch's base segments minus `tombstones` (in
/// base order), then `pending` in arrival order.
pub(crate) struct ServingState {
    /// Compaction generation, bumped once per epoch swap.
    pub(crate) epoch: u64,
    /// The epoch's base segment collection; shard `global_ids` and
    /// `tombstones` index into it.
    pub(crate) segs: Arc<Vec<LineSeg>>,
    /// The epoch's shards, built over `segs`.
    pub(crate) shards: Arc<Vec<Shard>>,
    /// Base ids deleted since the epoch was built (sorted ascending).
    pub(crate) tombstones: Vec<SegId>,
    /// Segments inserted since the epoch was built, in arrival order;
    /// unindexed (reads scan them; compaction keeps them near `compact_threshold`).
    pub(crate) pending: Vec<LineSeg>,
}

impl ServingState {
    /// A freshly built epoch: no writes on top of it yet.
    pub(crate) fn new(epoch: u64, segs: Arc<Vec<LineSeg>>, shards: Vec<Shard>) -> ServingState {
        ServingState {
            epoch,
            segs,
            shards: Arc::new(shards),
            tombstones: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// The same epoch under the overlay an accepted write leaves behind.
    pub(crate) fn with_overlay(&self, tombstones: Vec<SegId>, pending: Vec<LineSeg>) -> Self {
        ServingState {
            epoch: self.epoch,
            segs: self.segs.clone(),
            shards: self.shards.clone(),
            tombstones,
            pending,
        }
    }

    /// What a compaction would fold away (cf. `compact_threshold`).
    pub(crate) fn write_pressure(&self) -> usize {
        self.tombstones.len() + self.pending.len()
    }

    /// Live base segments: logical ids `0..kept()` map to them.
    pub(crate) fn kept(&self) -> SegId {
        (self.segs.len() - self.tombstones.len()) as SegId
    }

    /// Total live segments (base survivors + pending).
    pub(crate) fn live(&self) -> SegId {
        self.kept() + self.pending.len() as SegId
    }

    pub(crate) fn is_tombstoned(&self, b: SegId) -> bool {
        self.tombstones.binary_search(&b).is_ok()
    }

    /// The segment behind a logical id.
    pub(crate) fn logical_seg(&self, id: SegId) -> LineSeg {
        let kept = self.kept();
        if id < kept {
            self.segs[base_of_logical(&self.tombstones, id) as usize]
        } else {
            self.pending[(id - kept) as usize]
        }
    }

    /// The full logical collection — what an eager engine would hold.
    pub(crate) fn logical_collection(&self) -> Vec<LineSeg> {
        let mut out = Vec::with_capacity(self.live() as usize);
        let mut t = 0;
        for (b, seg) in self.segs.iter().enumerate() {
            if t < self.tombstones.len() && self.tombstones[t] as usize == b {
                t += 1;
                continue;
            }
            out.push(*seg);
        }
        out.extend(self.pending.iter().copied());
        out
    }

    /// Where an admission lane's telemetry goes: admission precedes
    /// execution, so the lane's slot stands in for the serving shard.
    pub(crate) fn lane_shard(&self, lane: usize) -> Option<&Shard> {
        self.shards.get(lane % self.shards.len().max(1))
    }
}

/// The sharded query service. Cheap to share by reference across threads:
/// every query path takes `&self`; reads run on an epoch snapshot, writes
/// serialize on the state lock and publish atomically.
pub struct QueryService {
    pub(crate) config: QueryServiceConfig,
    pub(crate) grid: ShardGrid,
    /// The serving state: swapped wholesale on writes and compactions.
    state: RwLock<Arc<ServingState>>,
    /// Overlay segment collection (empty without an overlay layer);
    /// `Response::Join` pairs index `(logical collection, overlay_segs)`.
    pub(crate) overlay_segs: Vec<LineSeg>,
    /// The fault-plan fork driving the aggregation machine (salted past
    /// every shard fork).
    pub(crate) agg_plan: Arc<FaultPlan>,
    /// The machine the skyline and dominance-aggregation reductions run
    /// on.
    pub(crate) agg_machine: Machine,
    pub(crate) requests: AtomicU64,
    pub(crate) knn_rounds: AtomicU64,
    pub(crate) join_requests: AtomicU64,
    pub(crate) compactions: AtomicU64,
    pub(crate) failed_compactions: AtomicU64,
    events: Mutex<Vec<RecoveryEvent>>,
    /// Hot-window result cache, consulted only on the admission path
    /// (see `QueryService::execute_inner`); the write path always
    /// invalidates it, so direct and pipelined callers can mix freely.
    pub(crate) cache: WindowCache,
    /// When set (a [`ServicePipeline`](crate::ServicePipeline) is
    /// attached), accepted writes do not compact inline — lane workers
    /// signal the pipeline's background compactor instead.
    pub(crate) defer_compaction: AtomicBool,
}

/// `Err` with the position in `segs` of the first segment leaving the
/// half-open `world`.
fn check_in_world(world: &Rect, segs: &[LineSeg]) -> Result<(), SpatialError> {
    match segs
        .iter()
        .position(|s| !(world.contains_half_open(s.a) && world.contains_half_open(s.b)))
    {
        Some(index) => Err(SpatialError::SegmentOutsideWorld { index }),
        None => Ok(()),
    }
}

impl QueryService {
    /// Builds the service: partitions `segs` over the shard grid and
    /// constructs every shard's quadtree (shards build concurrently,
    /// each through its own machine).
    ///
    /// # Panics
    ///
    /// Panics on the validation errors [`QueryService::try_build`]
    /// reports (invalid shard grid or capacity, segments outside the
    /// half-open `world`).
    pub fn build(config: QueryServiceConfig, world: Rect, segs: Vec<LineSeg>) -> Self {
        QueryService::try_build(config, world, segs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`QueryService::build`] plus a second *overlay* layer of segments,
    /// indexed per shard exactly like the base layer. `Join` requests
    /// answer with base×overlay pairs intersecting inside their window;
    /// with an empty `overlay` every join answer is empty.
    ///
    /// Both layers' shard trees span the full world, so each shard's base
    /// and overlay quadtrees are aligned decompositions — exactly the
    /// precondition of [`dp_spatial::join::frontier_join`].
    ///
    /// # Panics
    ///
    /// Panics on the validation errors
    /// [`QueryService::try_build_with_overlay`] reports.
    pub fn build_with_overlay(
        config: QueryServiceConfig,
        world: Rect,
        segs: Vec<LineSeg>,
        overlay: Vec<LineSeg>,
    ) -> Self {
        QueryService::try_build_with_overlay(config, world, segs, overlay)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`QueryService::build`]: validates the configuration and
    /// every segment endpoint before any shard work, returning a typed
    /// [`SpatialError`] instead of panicking.
    pub fn try_build(
        config: QueryServiceConfig,
        world: Rect,
        segs: Vec<LineSeg>,
    ) -> Result<Self, SpatialError> {
        QueryService::try_build_with_overlay(config, world, segs, Vec::new())
    }

    /// Fallible [`QueryService::build_with_overlay`].
    pub fn try_build_with_overlay(
        config: QueryServiceConfig,
        world: Rect,
        segs: Vec<LineSeg>,
        overlay: Vec<LineSeg>,
    ) -> Result<Self, SpatialError> {
        QueryService::try_build_with_faults(
            config,
            world,
            segs,
            overlay,
            Arc::new(FaultPlan::disabled()),
        )
    }

    /// [`QueryService::try_build_with_overlay`] under a fault plan: each
    /// shard gets a [`FaultPlan::fork`] of `plan` (salted by its shard
    /// index) attached to its machine, so round aborts, arena overflows
    /// and — with an armed worker hook — pool panics are injected
    /// deterministically per shard. `Err` is returned only for
    /// validation failures (a [`SpatialError::SegmentOutsideWorld`]
    /// indexes the slice — `segs` or `overlay` — it was found in);
    /// shards whose *builds* keep crashing degrade to the oracle instead
    /// of failing construction.
    pub fn try_build_with_faults(
        config: QueryServiceConfig,
        world: Rect,
        segs: Vec<LineSeg>,
        overlay: Vec<LineSeg>,
        plan: Arc<FaultPlan>,
    ) -> Result<Self, SpatialError> {
        config.validate()?;
        check_in_world(&world, &segs)?;
        check_in_world(&world, &overlay)?;
        let grid = ShardGrid::new(world, config.shard_grid);
        let assignment = grid.assign_segments(&segs);
        let overlay_assignment = grid.assign_segments(&overlay);
        // Each (re)run forks the shard's plan afresh, so the fan-out's
        // redo fallback is self-consistent (worker-fault timing is
        // schedule-dependent by nature; seeded sites stay deterministic).
        let builds = fan_out(grid.num_shards(), |i| {
            let mut shard = Shard::new(
                &config,
                grid.tile_of(i),
                assignment[i].clone(),
                overlay_assignment[i].clone(),
                Arc::new(plan.fork(i as u64)),
            );
            let events = shard.build_recovering(&config, world, &segs, &overlay, i);
            (shard, events)
        });
        let (shards, events): (Vec<Shard>, Vec<Vec<RecoveryEvent>>) = builds.into_iter().unzip();
        let state = ServingState::new(0, Arc::new(segs), shards);
        Ok(QueryService::assemble(
            config,
            world,
            &plan,
            state,
            overlay,
            events.concat(),
        ))
    }

    /// The one place a service is put together, from a cold build's
    /// epoch 0 and build events or a restore's decoded state. The
    /// aggregation machine runs on a fork of `plan` salted past every
    /// shard's.
    pub(crate) fn assemble(
        config: QueryServiceConfig,
        world: Rect,
        plan: &FaultPlan,
        state: ServingState,
        overlay_segs: Vec<LineSeg>,
        events: Vec<RecoveryEvent>,
    ) -> QueryService {
        let grid = ShardGrid::new(world, config.shard_grid);
        let agg_plan = Arc::new(plan.fork(grid.num_shards() as u64));
        QueryService {
            config,
            grid,
            state: RwLock::new(Arc::new(state)),
            overlay_segs,
            agg_machine: make_machine(&config, &agg_plan),
            agg_plan,
            requests: AtomicU64::new(0),
            knn_rounds: AtomicU64::new(0),
            join_requests: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            failed_compactions: AtomicU64::new(0),
            events: Mutex::new(events),
            cache: WindowCache::new(config.cache_capacity),
            defer_compaction: AtomicBool::new(false),
        }
    }

    pub(crate) fn state_snapshot(&self) -> Arc<ServingState> {
        self.state
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// The lock every publish holds (poison cleared: one `Arc`, swapped).
    pub(crate) fn write_state(&self) -> RwLockWriteGuard<'_, Arc<ServingState>> {
        self.state.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// The service configuration.
    pub fn config(&self) -> &QueryServiceConfig {
        &self.config
    }

    /// The shard grid.
    pub fn grid(&self) -> ShardGrid {
        self.grid
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.grid.num_shards()
    }

    /// The live *logical* segment collection: the ids in query responses
    /// index into this, and it equals what an eager sequential engine
    /// would hold after replaying every accepted write.
    pub fn segments(&self) -> Vec<LineSeg> {
        self.state_snapshot().logical_collection()
    }

    /// The overlay segment collection (empty without an overlay layer);
    /// the second id of a [`Response::Join`](crate::Response::Join) pair
    /// indexes into this.
    pub fn overlay_segments(&self) -> &[LineSeg] {
        &self.overlay_segs
    }

    /// Every recovery decision taken so far, in observation order (build
    /// events first, then query-time events as they happened).
    pub fn recovery_events(&self) -> Vec<RecoveryEvent> {
        self.events().clone()
    }

    pub(crate) fn push_event(&self, event: RecoveryEvent) {
        self.events().push(event);
    }

    fn events(&self) -> MutexGuard<'_, Vec<RecoveryEvent>> {
        self.events.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_sync<T: Sync + Send>() {}

    #[test]
    fn service_is_shareable_across_threads() {
        assert_sync::<QueryService>();
    }

    #[test]
    fn logical_id_maps_round_trip() {
        // Tombstoned bases 1 and 4: base ids 0,2,3,5 are logical 0,1,2,3.
        let tombs = vec![1, 4];
        let bases = [0u32, 2, 3, 5];
        for (logical, &b) in bases.iter().enumerate() {
            assert_eq!(logical_of_base(&tombs, b), logical as SegId);
            assert_eq!(base_of_logical(&tombs, logical as SegId), b);
        }
    }

    #[test]
    fn out_of_world_segments_are_a_typed_error() {
        let world = Rect::from_coords(0.0, 0.0, 16.0, 16.0);
        let outside = vec![LineSeg::from_coords(1.0, 1.0, 20.0, 20.0)];
        let err = QueryService::try_build(QueryServiceConfig::sequential(2), world, outside)
            .err()
            .expect("must not build");
        assert_eq!(err, SpatialError::SegmentOutsideWorld { index: 0 });
        assert!(err.to_string().contains("outside the service world"));
    }
}
