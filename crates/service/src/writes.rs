//! The write path: a write is an edit of the overlay lists (`pending`,
//! `tombstones`), and compaction folds those lists into a fresh epoch's
//! shard trees. Both publish the same way: build the successor aside,
//! swap the serving `Arc` under the state write lock, invalidate the
//! cache after the swap, under that lock.

use crate::config::make_machine;
use crate::families::Plan;
use crate::recovery::error_from_panic;
use crate::state::{base_of_logical, logical_of_base, ServingState, ShardCore};
use crate::{QueryService, Response};
use dp_geom::{LineSeg, Rect};
use dp_spatial::shard::ShardIndex;
use dp_spatial::update::{batch_update_bucket_pmr, UpdateBatch};
use dp_spatial::{MalformedKind, SegId, SpatialError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, RwLockWriteGuard};

impl QueryService {
    /// Applies one write plan to the overlay lists under the state write
    /// lock and publishes the new serving state in one atomic swap; no
    /// tree is touched. A write refused by its plan or naming an unknown
    /// id is rejected per slot and publishes nothing.
    pub(crate) fn apply_write(&self, index: usize, plan: &Plan) -> Response {
        if let Plan::Rejected { error, .. } = *plan {
            return Response::Rejected(error);
        }
        let mut guard = self.write_state();
        let st = guard.clone();
        let (mut tombstones, mut pending) = (st.tombstones.clone(), st.pending.clone());
        let response = match *plan {
            Plan::Insert(seg) => {
                pending.push(seg);
                Response::Inserted(st.live())
            }
            Plan::Delete(id) if id >= st.live() => {
                return Response::Rejected(SpatialError::MalformedRequest {
                    index,
                    kind: MalformedKind::UnknownSegment,
                });
            }
            Plan::Delete(id) if id < st.kept() => {
                let b = base_of_logical(&st.tombstones, id);
                tombstones.insert(tombstones.partition_point(|&t| t < b), b);
                Response::Deleted(id)
            }
            // A pending segment: the logical ids of later pending segments
            // shift down, matching the eager oracle's `Vec::remove`.
            Plan::Delete(id) => {
                pending.remove((id - st.kept()) as usize);
                Response::Deleted(id)
            }
            _ => unreachable!("apply_write is only called for writes"),
        };
        *guard = Arc::new(st.with_overlay(tombstones, pending));
        // Invalidate *after* publishing, still under the write lock: any
        // reader that missed the cache at the pre-bump version either
        // snapshotted the old state (its admit is refused by the bump)
        // or blocks here and snapshots the new one. An insert evicts by
        // bounding box; a delete shifts logical ids and flushes it all.
        match *plan {
            Plan::Insert(seg) => self.cache.note_insert(&Rect::from_corners(seg.a, seg.b)),
            _ => self.cache.note_delete(),
        }
        drop(guard);
        // With a pipeline attached, compaction moves off-thread: the lane
        // workers signal the compactor after handing replies back, so a
        // write never pays the rebuild inline. A failed compaction is not
        // retried here — the previous epoch keeps serving and the next
        // write re-triggers.
        if !self.defer_compaction.load(Ordering::Relaxed) && self.wants_compaction() {
            let _ = self.compact_now();
        }
        response
    }

    /// Whether write pressure has crossed the compaction threshold —
    /// checked by an inline write, and by a pipeline lane worker after
    /// each batch to wake the background compactor.
    pub(crate) fn wants_compaction(&self) -> bool {
        self.state_snapshot().write_pressure() >= self.config.compact_threshold
    }

    /// Merges the epoch base with the accumulated tombstones and pending
    /// overlay into a fresh epoch: every live shard's tree absorbs its
    /// slice of the writes through the data-parallel batch updater on a
    /// fresh machine (so the result equals a bulk build of the final
    /// collection — the update differential's guarantee), and serving
    /// flips to the new state in one atomic `Arc` swap. On any crash the
    /// swap never happens: the previous epoch keeps serving, the error
    /// is returned typed, and a retry converges because every fault-plan
    /// fork keeps its occurrence counters across attempts. Returns the
    /// serving epoch number (bumped on success, also when there was
    /// nothing to compact and the call was a no-op).
    pub fn compact_now(&self) -> Result<u64, SpatialError> {
        // Optimistic path: build the next epoch from a lock-free snapshot
        // so readers (and writers) keep flowing during the rebuild; a
        // write that lands mid-build loses the swap and we rebuild from
        // the fresher state. After a few lost races, build under the
        // write lock, which cannot lose.
        const OPTIMISTIC_ATTEMPTS: usize = 3;
        for _ in 0..OPTIMISTIC_ATTEMPTS {
            if let Some(epoch) = self.compact_from(&self.state_snapshot(), None)? {
                return Ok(epoch);
            }
        }
        let guard = self.write_state();
        let st = guard.clone();
        let swapped = self.compact_from(&st, Some(guard))?;
        Ok(swapped.expect("a swap under the held write lock cannot lose the race"))
    }

    /// One compaction attempt from the snapshot `st`: a no-op without
    /// writes; else build the next epoch (a crash is counted and returned
    /// typed, nothing published), take the write lock unless `held`, and
    /// swap iff the serving state is still the exact `Arc` the build
    /// started from — `Ok(None)` when a write landed mid-build.
    fn compact_from(
        &self,
        st: &Arc<ServingState>,
        held: Option<RwLockWriteGuard<'_, Arc<ServingState>>>,
    ) -> Result<Option<u64>, SpatialError> {
        if st.write_pressure() == 0 {
            return Ok(Some(st.epoch));
        }
        let next = catch_unwind(AssertUnwindSafe(|| self.build_compacted_state(st))).map_err(
            |payload| {
                self.failed_compactions.fetch_add(1, Ordering::Relaxed);
                error_from_panic(self.grid.num_shards(), 1, payload.as_ref())
            },
        )?;
        let mut guard = held.unwrap_or_else(|| self.write_state());
        if !Arc::ptr_eq(&guard, st) {
            return Ok(None);
        }
        let epoch = next.epoch;
        *guard = Arc::new(next);
        // Flush the hot-window cache under the same write lock that
        // publishes the epoch: no reader can admit an answer computed
        // against the old state at the post-swap cache version.
        self.cache.note_epoch_swap();
        self.compactions.fetch_add(1, Ordering::Relaxed);
        Ok(Some(epoch))
    }

    /// Builds the next epoch's full serving state. Runs inside
    /// [`QueryService::compact_now`]'s `catch_unwind`: any panic —
    /// injected round aborts included — discards everything built here.
    fn build_compacted_state(&self, st: &ServingState) -> ServingState {
        let final_segs = st.logical_collection();
        let assignment = self.grid.assign_segments(&final_segs);
        let pending_assignment = self.grid.assign_segments(&st.pending);
        let kept = st.kept();
        let mut shards = Vec::with_capacity(st.shards.len());
        for (i, old) in st.shards.iter().enumerate() {
            let machine = make_machine(&self.config, &old.plan);
            let degraded = old.degraded.load(Ordering::Relaxed);
            let core_snapshot = old.snapshot();
            let (index, build_trace) = match (&core_snapshot.index, degraded) {
                (Some(index), false) => {
                    let mut tree = index.tree.clone();
                    let mut local_segs = index.segs.clone();
                    // Local deletes: the positions holding a tombstoned
                    // base id. Local inserts: the pending segments whose
                    // geometry reaches this tile (the same closed-clip
                    // assignment predicate the bulk build uses).
                    let deletes: Vec<SegId> = index
                        .global_ids
                        .iter()
                        .enumerate()
                        .filter(|&(_, &g)| st.is_tombstoned(g))
                        .map(|(p, _)| p as SegId)
                        .collect();
                    let inserts: Vec<LineSeg> = pending_assignment[i]
                        .iter()
                        .map(|&l| st.pending[l as usize])
                        .collect();
                    batch_update_bucket_pmr(
                        &machine,
                        &mut tree,
                        &mut local_segs,
                        &UpdateBatch { inserts, deletes },
                        self.config.capacity,
                        self.config.max_depth,
                    );
                    let build_trace = machine.take_round_traces();
                    // New local→global table: surviving base ids map to
                    // their logical ids (order-preserving), pending
                    // arrivals append above every base logical — exactly
                    // the ascending order `assign_segments` produces over
                    // the final collection.
                    let mut global_ids: Vec<SegId> = index
                        .global_ids
                        .iter()
                        .filter(|&&g| !st.is_tombstoned(g))
                        .map(|&g| logical_of_base(&st.tombstones, g))
                        .collect();
                    global_ids.extend(pending_assignment[i].iter().map(|&l| kept + l));
                    debug_assert_eq!(global_ids, assignment[i], "shard {i} assignment drift");
                    let index = ShardIndex {
                        tile: old.tile,
                        tree,
                        segs: local_segs,
                        global_ids,
                    };
                    (Some(index), build_trace)
                }
                // A degraded shard stays degraded — its new assignment
                // keeps the oracle path correct over the new collection.
                _ => (None, Vec::new()),
            };
            let core = ShardCore::new(machine, index, core_snapshot.overlay);
            shards.push(old.successor(assignment[i].clone(), core, build_trace));
        }
        ServingState::new(st.epoch + 1, Arc::new(final_segs), shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryServiceConfig;
    use dp_workloads::{uniform_segments, Request};

    #[test]
    fn writes_respond_typed_and_compaction_bumps_the_epoch() {
        let data = uniform_segments(60, 64, 8, 21);
        let svc = QueryService::build(
            QueryServiceConfig {
                compact_threshold: 4,
                ..QueryServiceConfig::sequential(2)
            },
            data.world,
            data.segs.clone(),
        );
        let n = data.segs.len() as u32;
        let seg = LineSeg::from_coords(5.0, 5.0, 9.0, 9.0);
        let out = svc.execute_batch(&[
            Request::Insert(seg),
            Request::Delete(0),
            Request::Delete(n - 1), // the inserted segment, shifted down one
            Request::Delete(n - 1), // ... and after its deletion, out of range
        ]);
        assert_eq!(out[0], Response::Inserted(n));
        assert_eq!(out[1], Response::Deleted(0));
        assert_eq!(out[2], Response::Deleted(n - 1), "id shifted by delete");
        assert_eq!(
            out[3],
            Response::Rejected(SpatialError::MalformedRequest {
                index: 3,
                kind: MalformedKind::UnknownSegment,
            })
        );
        // Out-of-world inserts are rejected without mutating anything.
        let out = svc.execute_batch(&[Request::Insert(LineSeg::from_coords(-5.0, 0.0, 3.0, 3.0))]);
        assert_eq!(
            out[0],
            Response::Rejected(SpatialError::SegmentOutsideWorld { index: 0 })
        );
        // Three successful writes crossed compact_threshold = 4? No:
        // pressure peaked at 1 pending + 1 tombstone = 2 before the
        // pending delete took it back to 1 tombstone. Force one.
        let epoch0 = svc.stats().epoch;
        svc.compact_now().expect("compaction");
        let stats = svc.stats();
        assert_eq!(stats.epoch, epoch0 + 1);
        assert_eq!(stats.compactions, 1);
        assert_eq!((stats.overlay_size, stats.tombstones), (0, 0));
        assert_eq!(svc.segments().len(), data.segs.len() - 1);
        // A clean state compacts as a no-op.
        assert_eq!(svc.compact_now(), Ok(stats.epoch));
    }
}
