//! Service snapshot persistence and warm restart.
//!
//! A serving [`QueryService`] is, durably speaking, three things: the
//! epoch-base segment collection, the per-shard bucket PMR trees built
//! over it, and the write overlay (tombstones + pending inserts). This
//! module persists all of them in one [`dp_spatial::snapshot`] file
//! (family [`SnapshotFamily::Service`]) and restores a service from it
//! without rebuilding a single tree — the *warm restart* path.
//!
//! ## Layout (service section tags, ≥ 16)
//!
//! ```text
//! header  family=Service, elements = base segment count
//! [0] META        u64 lane: shard_grid, capacity, max_depth,
//!                 num_shards, epoch, has_ladder (written as 0)
//! [1] WORLD       f64 lane: min.x min.y max.x max.y
//! [2] BASE_SEGS   epoch-base segments (SoA lanes)
//! [3] TOMBSTONES  sorted base ids deleted since the epoch
//! [4] PENDING     overlay segments inserted since the epoch
//! then per shard i (row-major):
//!     SHARD_IDS   the shard's local→global id table
//!     SHARD_TREE  the shard's bucket PMR quadtree
//! ```
//!
//! Pending inserts carry no index, so nothing writes a [`tags::LADDER`]
//! section any more. Older files have one at position 5 when `has_ladder = 1`:
//! the reader validates that tree like a shard tree, then drops it.
//!
//! Shard tiles and local segment copies are *derived* state — the tile
//! from the grid, the local segments by gathering `BASE_SEGS` through
//! `SHARD_IDS` — so they are reconstructed, not stored, and cannot
//! disagree with the base collection.
//!
//! ## The restart ladder
//!
//! [`QueryService::try_restore_or_build`] is the recovery ladder's new
//! first rung: parse and cross-validate the snapshot (CRCs, version,
//! config echo, world, recomputed shard assignment) and serve straight
//! from it; on *any* failure — missing file, torn write, version bump,
//! config drift — fall through to the existing cold build from
//! segments, recording one [`RecoveryAction::ColdRestart`] event with
//! the typed cause. Nothing on this path panics: a hostile snapshot is
//! rejected by checksums and bounds checks before any tree is trusted.
//!
//! Writes are atomic (unique temp file + rename via
//! [`write_snapshot_atomic`]), so a crash mid-save leaves the previous
//! snapshot intact. Torn-write behaviour is exercised by
//! [`FaultSite::SnapshotTorn`](scan_model::FaultSite): a seeded fault
//! plan passed to [`QueryService::save_snapshot_with_faults`] flips a
//! bit or truncates the encoded stream at a deterministic offset, and
//! the differential suite asserts the reader refuses every such file.

use crate::state::{ServingState, Shard};
use crate::{QueryService, QueryServiceConfig, RecoveryAction, RecoveryEvent};
use dp_geom::{LineSeg, Rect};
use dp_spatial::shard::{ShardGrid, ShardIndex};
use dp_spatial::snapshot::{
    ids_from_payload, ids_payload, quadtree_from_payload, quadtree_payload, segs_from_payload,
    segs_payload, u64s_from_payload, u64s_payload, write_snapshot_atomic, SnapshotFamily,
    SnapshotReader, SnapshotWriter,
};
use dp_spatial::SpatialError;
use scan_model::{soa, FaultPlan};
use std::path::Path;
use std::sync::Arc;

/// Service snapshot section tags. Disjoint from the single-tree tags in
/// [`dp_spatial::snapshot::tags`] (all < 16) so a mixed-up payload can
/// never parse as the wrong layout.
pub mod tags {
    /// Scalar metadata lane (config echo + epoch + ladder flag, now 0).
    pub const META: u32 = 16;
    /// The service world rectangle.
    pub const WORLD: u32 = 17;
    /// Epoch-base segment collection.
    pub const BASE_SEGS: u32 = 18;
    /// Sorted tombstoned base ids.
    pub const TOMBSTONES: u32 = 19;
    /// Pending overlay segments.
    pub const PENDING: u32 = 20;
    /// A quadtree over the pending inserts: older encoders wrote it iff
    /// pending was non-empty; the reader validates it, then drops it.
    pub const LADDER: u32 = 21;
    /// One shard's local→global id table.
    pub const SHARD_IDS: u32 = 24;
    /// One shard's bucket PMR quadtree.
    pub const SHARD_TREE: u32 = 25;
}

/// Number of `u64` scalars in the META section.
const META_LEN: usize = 6;

fn rect_payload(r: &Rect) -> Vec<u8> {
    soa::f64_lane_bytes(&[r.min.x, r.min.y, r.max.x, r.max.y]).into_owned()
}

fn rect_from_payload(payload: &[u8]) -> Result<Rect, SpatialError> {
    let vals = soa::f64_lane_from_bytes(payload)
        .filter(|v| v.len() == 4)
        .ok_or(SpatialError::SnapshotMalformed {
            reason: "world rect must be exactly four coordinates",
        })?;
    Ok(Rect::from_coords(vals[0], vals[1], vals[2], vals[3]))
}

fn malformed(reason: &'static str) -> SpatialError {
    SpatialError::SnapshotMalformed { reason }
}

/// Decodes a service snapshot into the serving state it persisted,
/// cross-validated against the build request it must satisfy: the config
/// echo (everything that shapes the trees), the world, and the recomputed
/// shard assignment all have to agree, or the caller falls back to a cold
/// build. Shards get fresh machines and counters, forked from `plan`
/// exactly as a cold build forks it (fault determinism is
/// restart-invariant); every tree is the snapshot's, verbatim.
fn decode_service(
    bytes: &[u8],
    config: &QueryServiceConfig,
    world: Rect,
    plan: &FaultPlan,
) -> Result<ServingState, SpatialError> {
    let grid = ShardGrid::new(world, config.shard_grid);
    let reader = SnapshotReader::parse(bytes)?;
    if reader.family() != SnapshotFamily::Service {
        return Err(malformed("not a service snapshot"));
    }
    let meta = u64s_from_payload(reader.expect(0, tags::META)?)?;
    if meta.len() != META_LEN {
        return Err(malformed("meta lane has the wrong number of scalars"));
    }
    let [shard_grid, capacity, max_depth, num_shards, epoch, has_ladder] =
        [meta[0], meta[1], meta[2], meta[3], meta[4], meta[5]];
    if shard_grid != u64::from(config.shard_grid)
        || capacity != config.capacity as u64
        || max_depth != config.max_depth as u64
    {
        return Err(malformed("snapshot was taken under a different config"));
    }
    if num_shards != grid.num_shards() as u64 {
        return Err(malformed("shard count does not match the grid"));
    }
    if has_ladder > 1 {
        return Err(malformed("ladder flag must be 0 or 1"));
    }
    if rect_from_payload(reader.expect(1, tags::WORLD)?)? != world {
        return Err(malformed("snapshot covers a different world"));
    }
    let segs = segs_from_payload(reader.expect(2, tags::BASE_SEGS)?)?;
    if segs.len() as u64 != reader.elements() {
        return Err(malformed("element count disagrees with the base lane"));
    }
    let tombstones = ids_from_payload(reader.expect(3, tags::TOMBSTONES)?)?;
    if !tombstones.windows(2).all(|w| w[0] < w[1])
        || tombstones.last().is_some_and(|&t| t as usize >= segs.len())
    {
        return Err(malformed("tombstones must be sorted, unique base ids"));
    }
    let pending = segs_from_payload(reader.expect(4, tags::PENDING)?)?;
    // An older writer's ladder (iff pending): validated, then dropped.
    if has_ladder == 1 {
        if pending.is_empty() {
            return Err(malformed("ladder presence disagrees with pending inserts"));
        }
        quadtree_from_payload(reader.expect(5, tags::LADDER)?)?;
    }
    let shard_base = 5 + has_ladder as usize;
    if reader.num_sections() != shard_base + 2 * grid.num_shards() {
        return Err(malformed("section count disagrees with the shard count"));
    }
    // The id tables must equal the assignment a cold build would compute
    // over the same collection — the strongest cheap consistency check we
    // have, and it guarantees routing stays exact after a warm restart.
    let assignment = grid.assign_segments(&segs);
    let mut shards = Vec::with_capacity(grid.num_shards());
    for (i, expected) in assignment.into_iter().enumerate() {
        let ids = ids_from_payload(reader.expect(shard_base + 2 * i, tags::SHARD_IDS)?)?;
        if ids != expected {
            return Err(malformed("shard id table disagrees with the assignment"));
        }
        let tree = quadtree_from_payload(reader.expect(shard_base + 2 * i + 1, tags::SHARD_TREE)?)?;
        let index = ShardIndex {
            tile: grid.tile_of(i),
            tree,
            segs: ids.iter().map(|&g| segs[g as usize]).collect(),
            global_ids: ids,
        };
        let plan = Arc::new(plan.fork(i as u64));
        let shard = Shard::new(config, index.tile, expected, Vec::new(), plan);
        shard.lock_core().index = Some(Arc::new(index));
        shards.push(shard);
    }
    let state = ServingState::new(epoch, Arc::new(segs), shards);
    Ok(state.with_overlay(tombstones, pending))
}

impl QueryService {
    /// Encodes the current serving state as a snapshot byte stream.
    ///
    /// Refuses (typed, no panic) when the state is not faithfully
    /// persistable: a degraded shard has no tree to save, and an overlay
    /// layer (spatial-join services) is not part of the format.
    pub fn encode_snapshot(&self) -> Result<Vec<u8>, SpatialError> {
        self.encode_snapshot_with(None)
    }

    fn encode_snapshot_with(&self, plan: Option<Arc<FaultPlan>>) -> Result<Vec<u8>, SpatialError> {
        if !self.overlay_segs.is_empty() {
            return Err(malformed("cannot snapshot a service with an overlay layer"));
        }
        let st = self.state_snapshot();
        let mut shard_parts = Vec::with_capacity(st.shards.len());
        for shard in st.shards.iter() {
            if shard.degraded.load(std::sync::atomic::Ordering::Relaxed) {
                return Err(malformed("cannot snapshot a degraded service"));
            }
            let core = shard.snapshot();
            let Some(index) = core.index else {
                return Err(malformed("cannot snapshot a degraded service"));
            };
            shard_parts.push(index);
        }
        let mut w = SnapshotWriter::new(SnapshotFamily::Service, st.segs.len() as u64);
        if let Some(plan) = plan {
            w = w.with_fault_plan(plan);
        }
        w.section(
            tags::META,
            &u64s_payload(&[
                u64::from(self.config.shard_grid),
                self.config.capacity as u64,
                self.config.max_depth as u64,
                st.shards.len() as u64,
                st.epoch,
                0, // has_ladder: pending inserts are never indexed
            ]),
        );
        w.section(tags::WORLD, &rect_payload(&self.grid.world()));
        w.section(tags::BASE_SEGS, &segs_payload(&st.segs));
        w.section(tags::TOMBSTONES, &ids_payload(&st.tombstones));
        w.section(tags::PENDING, &segs_payload(&st.pending));
        for index in &shard_parts {
            w.section(tags::SHARD_IDS, &ids_payload(&index.global_ids));
            w.section(tags::SHARD_TREE, &quadtree_payload(&index.tree));
        }
        Ok(w.finish())
    }

    /// Persists the serving state to `path` atomically (temp + rename).
    ///
    /// Unpersistable states (degraded shard, overlay layer) surface as
    /// [`std::io::ErrorKind::Unsupported`]; everything else is plain IO.
    pub fn save_snapshot(&self, path: &Path) -> std::io::Result<()> {
        self.save_snapshot_with_faults(path, None)
    }

    /// [`QueryService::save_snapshot`] under a fault plan: an armed
    /// [`FaultSite::SnapshotTorn`](scan_model::FaultSite) site damages
    /// the encoded bytes (bit flip or truncation at a seeded offset)
    /// *silently* — the file writes "successfully" and the damage must
    /// be caught by the reader's checksums, exactly like real bit rot.
    pub fn save_snapshot_with_faults(
        &self,
        path: &Path,
        plan: Option<Arc<FaultPlan>>,
    ) -> std::io::Result<()> {
        let bytes = self
            .encode_snapshot_with(plan)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::Unsupported, e.to_string()))?;
        write_snapshot_atomic(path, &bytes)
    }

    /// The warm-restart rung of the recovery ladder: restore the service
    /// from the snapshot at `path` if it exists, parses, and agrees with
    /// this build request; otherwise cold-build from `segs` exactly as
    /// [`QueryService::try_build_with_faults`] would, recording one
    /// [`RecoveryAction::ColdRestart`] event carrying the typed reason
    /// the snapshot was refused.
    ///
    /// Returns `(service, warm)` — `warm` is `true` when the snapshot
    /// was served from. `Err` is reserved for the cold path's own
    /// validation failures (invalid config, out-of-world segments); a
    /// bad *snapshot* never fails the call.
    pub fn try_restore_or_build(
        config: QueryServiceConfig,
        world: Rect,
        segs: Vec<LineSeg>,
        overlay: Vec<LineSeg>,
        plan: Arc<FaultPlan>,
        path: &Path,
    ) -> Result<(QueryService, bool), SpatialError> {
        config.validate()?;
        let attempt = if overlay.is_empty() {
            match std::fs::read(path) {
                Ok(bytes) => decode_service(&bytes, &config, world, &plan),
                Err(_) => Err(malformed("snapshot file is missing or unreadable")),
            }
        } else {
            Err(malformed(
                "cannot warm-restart a service with an overlay layer",
            ))
        };
        match attempt {
            Ok(state) => {
                let svc =
                    QueryService::assemble(config, world, &plan, state, Vec::new(), Vec::new());
                Ok((svc, true))
            }
            Err(cause) => {
                let svc = QueryService::try_build_with_faults(config, world, segs, overlay, plan)?;
                svc.push_event(RecoveryEvent {
                    shard: svc.grid.num_shards(),
                    action: RecoveryAction::ColdRestart,
                    error: cause,
                });
                Ok((svc, false))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Response;
    use dp_spatial::SegId;
    use dp_workloads::{request_stream, uniform_segments, Request, RequestMix};
    use scan_model::FaultSite;

    fn snapshot_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("dp-service-snap-{name}-{}", std::process::id()));
        p
    }

    fn probe_requests(world: Rect, seed: u64) -> Vec<Request> {
        request_stream(world, 40, RequestMix::default(), seed)
    }

    #[test]
    fn round_trip_restores_identical_answers() {
        let data = uniform_segments(400, 64, 8, 21);
        let config = QueryServiceConfig::sequential(2);
        let svc = QueryService::build(config, data.world, data.segs.clone());
        let path = snapshot_path("roundtrip");
        svc.save_snapshot(&path).unwrap();

        let (warm, was_warm) = QueryService::try_restore_or_build(
            config,
            data.world,
            data.segs.clone(),
            Vec::new(),
            Arc::new(FaultPlan::disabled()),
            &path,
        )
        .unwrap();
        assert!(was_warm, "snapshot should have been served from");
        assert!(warm.recovery_events().is_empty());

        let requests = probe_requests(data.world, 7);
        assert_eq!(svc.execute_batch(&requests), warm.execute_batch(&requests));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn overlay_state_survives_the_round_trip() {
        let data = uniform_segments(200, 64, 8, 22);
        let config = QueryServiceConfig {
            compact_threshold: 10_000, // keep writes in the overlay
            ..QueryServiceConfig::sequential(2)
        };
        let svc = QueryService::build(config, data.world, data.segs.clone());
        // Some writes: pending inserts, a tombstone, a pending delete.
        let writes = [
            Request::Insert(LineSeg::from_coords(1.0, 1.0, 5.0, 3.0)),
            Request::Insert(LineSeg::from_coords(9.0, 9.0, 13.0, 11.0)),
            Request::Delete(3),
            Request::Insert(LineSeg::from_coords(20.0, 20.0, 22.0, 29.0)),
            Request::Delete(data.segs.len() as SegId), // a pending segment
        ];
        for r in &writes {
            assert!(
                !matches!(
                    &svc.execute_batch(std::slice::from_ref(r))[0],
                    Response::Rejected(_)
                ),
                "setup write rejected: {r:?}"
            );
        }
        let path = snapshot_path("overlay");
        svc.save_snapshot(&path).unwrap();

        let (warm, was_warm) = QueryService::try_restore_or_build(
            config,
            data.world,
            data.segs.clone(),
            Vec::new(),
            Arc::new(FaultPlan::disabled()),
            &path,
        )
        .unwrap();
        assert!(was_warm);
        assert_eq!(svc.segments(), warm.segments());
        let requests = probe_requests(data.world, 8);
        assert_eq!(svc.execute_batch(&requests), warm.execute_batch(&requests));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_and_mismatched_snapshots_fall_through_cold() {
        let data = uniform_segments(120, 64, 8, 23);
        let config = QueryServiceConfig::sequential(2);
        let path = snapshot_path("missing");
        std::fs::remove_file(&path).ok();
        let (svc, warm) = QueryService::try_restore_or_build(
            config,
            data.world,
            data.segs.clone(),
            Vec::new(),
            Arc::new(FaultPlan::disabled()),
            &path,
        )
        .unwrap();
        assert!(!warm);
        let events = svc.recovery_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].action, RecoveryAction::ColdRestart);

        // A config that shapes the trees differently must refuse the
        // snapshot even though the file itself is pristine.
        svc.save_snapshot(&path).unwrap();
        let other = QueryServiceConfig {
            capacity: config.capacity + 1,
            ..config
        };
        let (cold, warm) = QueryService::try_restore_or_build(
            other,
            data.world,
            data.segs.clone(),
            Vec::new(),
            Arc::new(FaultPlan::disabled()),
            &path,
        )
        .unwrap();
        assert!(!warm);
        assert!(cold
            .recovery_events()
            .iter()
            .any(|e| e.action == RecoveryAction::ColdRestart
                && matches!(e.error, SpatialError::SnapshotMalformed { .. })));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn degraded_and_overlay_services_refuse_to_save() {
        let data = uniform_segments(80, 64, 8, 24);
        let svc = QueryService::build_with_overlay(
            QueryServiceConfig::sequential(1),
            data.world,
            data.segs.clone(),
            vec![LineSeg::from_coords(1.0, 1.0, 2.0, 2.0)],
        );
        assert_eq!(
            svc.encode_snapshot().err(),
            Some(malformed("cannot snapshot a service with an overlay layer"))
        );
    }

    #[test]
    fn torn_save_is_refused_by_the_reader_and_falls_through_cold() {
        let data = uniform_segments(150, 64, 8, 25);
        let config = QueryServiceConfig::sequential(2);
        let svc = QueryService::build(config, data.world, data.segs.clone());
        let path = snapshot_path("torn");
        let plan = Arc::new(FaultPlan::once_at(FaultSite::SnapshotTorn, 2));
        svc.save_snapshot_with_faults(&path, Some(plan.clone()))
            .unwrap();
        assert_eq!(plan.fired(FaultSite::SnapshotTorn), 1, "tear must fire");

        let (cold, warm) = QueryService::try_restore_or_build(
            config,
            data.world,
            data.segs.clone(),
            Vec::new(),
            Arc::new(FaultPlan::disabled()),
            &path,
        )
        .unwrap();
        assert!(!warm, "a torn snapshot must not serve");
        let requests = probe_requests(data.world, 9);
        assert_eq!(svc.execute_batch(&requests), cold.execute_batch(&requests));
        std::fs::remove_file(&path).ok();
    }
}
