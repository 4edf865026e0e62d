//! The recovery ladder, written once: every unit of shard work (a probe
//! chunk, the cached join) runs through [`QueryService::on_shard`]; the
//! cold build's own ladder and the rebuild rung share one shard-build
//! body, [`Shard::build_core`]; and [`fan_out`] holds the one fallback
//! for worker faults that escape a fan-out before any ladder sees them.

use crate::config::make_machine;
use crate::state::{ServingState, Shard, ShardCore};
use crate::{QueryService, QueryServiceConfig};
use dp_geom::{LineSeg, Rect};
use dp_spatial::shard::{build_shard, ShardIndex};
use dp_spatial::{SegId, SpatialError};
use rayon::prelude::*;
use scan_model::{InjectedFault, RoundTrace};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Crashed shard work is retried this many times (per ladder rung) before
/// escalating to a rebuild, and again before degrading.
pub const RETRY_LIMIT: u32 = 2;

/// Which rung of the recovery ladder a [`RecoveryEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// The crashed unit was re-run on the same shard core (the `n`-th
    /// retry of its ladder rung, 1-based).
    Retry(u32),
    /// The shard was rebuilt from its assigned segments on a fresh
    /// machine.
    Rebuild,
    /// The shard gave up: its index was dropped and the sequential
    /// oracle answers for it from now on.
    Degrade,
    /// A warm restart from an on-disk snapshot was attempted but the
    /// snapshot could not be used (missing, corrupt, wrong version, or
    /// inconsistent with the requested build); the service fell through
    /// to a cold rebuild from segments. `shard` is the grid size (one
    /// event per restart, not per shard) and `error` carries the typed
    /// cause.
    ColdRestart,
}

/// One recovery decision taken by the service, in the order observed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryEvent {
    /// Row-major shard slot the event concerns.
    pub shard: usize,
    /// Which ladder rung was taken.
    pub action: RecoveryAction,
    /// Best-effort cause: the typed form of the caught panic for
    /// retries/rebuilds, [`SpatialError::ShardUnavailable`] for
    /// degradations.
    pub error: SpatialError,
}

fn rung(shard: usize, action: RecoveryAction, error: SpatialError) -> RecoveryEvent {
    RecoveryEvent {
        shard,
        action,
        error,
    }
}

/// Maps a caught panic payload to its typed cause: injected faults keep
/// their site and occurrence; anything else becomes a generic
/// shard-unavailable cause.
pub(crate) fn error_from_panic(
    shard: usize,
    attempts: u32,
    payload: &(dyn Any + Send),
) -> SpatialError {
    match payload.downcast_ref::<InjectedFault>() {
        Some(f) => SpatialError::FaultInjected {
            site: f.site,
            occurrence: f.occurrence,
        },
        None => SpatialError::ShardUnavailable { shard, attempts },
    }
}

/// Deterministic backoff: a bounded spin that grows with the attempt
/// number. No wall clock, so recovery timing cannot perturb the seeded
/// fault streams or make replays diverge.
fn backoff(attempt: u32) {
    for _ in 0..(1u64 << attempt.min(8)) * 64 {
        std::hint::spin_loop();
    }
}

/// `f(0), …, f(n - 1)` run concurrently on the pool, results in index
/// order. The per-shard ladders catch panics raised *inside* shard work,
/// but an armed worker-fault hook fires before a pool job's body — ahead
/// of any ladder — and surfaces here. Partial results are discarded and
/// the fan-out redone on this thread: the machine-level pool (and its
/// faults) still engages inside each `f`, where the ladders own recovery.
pub(crate) fn fan_out<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    catch_unwind(AssertUnwindSafe(|| {
        (0..n).into_par_iter().map(&f).collect()
    }))
    .unwrap_or_else(|_| (0..n).map(&f).collect())
}

impl Shard {
    /// The shard-build body, run under the caller's `catch_unwind`: a
    /// fresh machine on the shard's fault-plan fork, the base index (its
    /// round traces drained as the build table), then the overlay index.
    /// The plan keeps its occurrence counters, so a `once_at` fault that
    /// already fired cannot re-fire on the next attempt.
    fn build_core(
        &self,
        config: &QueryServiceConfig,
        world: Rect,
        segs: &[LineSeg],
        overlay_segs: &[LineSeg],
    ) -> (ShardCore, Vec<RoundTrace>) {
        let machine = make_machine(config, &self.plan);
        let index = |all: &[LineSeg], ids: &[SegId]| {
            build_shard(
                &machine,
                world,
                self.tile,
                all,
                ids,
                config.capacity,
                config.max_depth,
            )
        };
        let base = index(segs, &self.assigned);
        let build_trace = machine.take_round_traces();
        let overlay = (!overlay_segs.is_empty()).then(|| {
            let overlay = index(overlay_segs, &self.overlay_assigned);
            // The overlay build's traces are not part of the base build
            // table; the join's own trace is captured when it first runs.
            machine.take_round_traces();
            Arc::new(overlay)
        });
        (ShardCore::new(machine, Some(base), overlay), build_trace)
    }

    /// The cold build's ladder: up to `1 + RETRY_LIMIT` attempts at
    /// [`Shard::build_core`], then degradation (the shard keeps the
    /// index-less core it was made with). Returns the rungs taken.
    pub(crate) fn build_recovering(
        &mut self,
        config: &QueryServiceConfig,
        world: Rect,
        segs: &[LineSeg],
        overlay_segs: &[LineSeg],
        shard_no: usize,
    ) -> Vec<RecoveryEvent> {
        let mut events = Vec::new();
        for attempt in 1..=RETRY_LIMIT + 1 {
            let built = catch_unwind(AssertUnwindSafe(|| {
                self.build_core(config, world, segs, overlay_segs)
            }));
            match built {
                Ok((core, build_trace)) => {
                    *self.lock_core() = core;
                    self.build_trace = build_trace;
                    break;
                }
                Err(payload) if attempt <= RETRY_LIMIT => {
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    let cause = error_from_panic(shard_no, attempt, payload.as_ref());
                    events.push(rung(shard_no, RecoveryAction::Retry(attempt), cause));
                    backoff(attempt);
                }
                Err(_) => {
                    self.degraded.store(true, Ordering::Relaxed);
                    let gave_up = SpatialError::ShardUnavailable {
                        shard: shard_no,
                        attempts: attempt,
                    };
                    events.push(rung(shard_no, RecoveryAction::Degrade, gave_up));
                }
            }
        }
        events
    }
}

impl QueryService {
    /// One unit of work on shard `s` through the recovery ladder. Each
    /// attempt runs `unit` on a fresh core snapshot (no lock held across
    /// machine work) under `catch_unwind`; a panic and a typed `Err` ride
    /// the same rungs: up to [`RETRY_LIMIT`] retries with the spin
    /// backoff, one rebuild, the retries again, then degradation. `None`:
    /// the shard is (now) degraded, answer from the sequential oracle.
    pub(crate) fn on_shard<T>(
        &self,
        st: &ServingState,
        s: usize,
        unit: impl Fn(&ShardCore, &ShardIndex) -> Result<T, SpatialError>,
    ) -> Option<T> {
        let shard = &st.shards[s];
        let mut retries_left = RETRY_LIMIT;
        let mut rebuilt = false;
        let mut attempts = 0u32;
        loop {
            let core = shard.snapshot();
            let index = core.index.as_deref()?;
            attempts += 1;
            let cause = match catch_unwind(AssertUnwindSafe(|| unit(&core, index))) {
                Ok(Ok(done)) => return Some(done),
                Ok(Err(e)) => e,
                Err(payload) => error_from_panic(s, attempts, payload.as_ref()),
            };
            let action = if retries_left > 0 {
                retries_left -= 1;
                shard.retries.fetch_add(1, Ordering::Relaxed);
                RecoveryAction::Retry(RETRY_LIMIT - retries_left)
            } else if !rebuilt && self.rebuild_shard(st, s) {
                rebuilt = true;
                retries_left = RETRY_LIMIT;
                RecoveryAction::Rebuild
            } else {
                // A rebuild that crashed counts as one more attempt.
                self.degrade_shard(st, s, attempts + u32::from(!rebuilt));
                return None;
            };
            self.push_event(rung(s, action, cause));
            if let RecoveryAction::Retry(nth) = action {
                backoff(nth);
            }
        }
    }

    /// Rebuilds the shard's machine and indexes and swaps the new core in
    /// under a brief lock (the cached join referred to the old trees and
    /// goes with them; the rebuilt, identical trees yield identical
    /// pairs). `false` when the rebuild itself crashed.
    fn rebuild_shard(&self, st: &ServingState, s: usize) -> bool {
        let shard = &st.shards[s];
        let rebuilt = catch_unwind(AssertUnwindSafe(|| {
            shard.build_core(
                &self.config,
                self.grid.world(),
                &st.segs,
                &self.overlay_segs,
            )
        }));
        if let Ok((core, _)) = rebuilt {
            shard.rebuilds.fetch_add(1, Ordering::Relaxed);
            *shard.lock_core() = core;
            return true;
        }
        false
    }

    /// Marks the shard degraded: drops its index so every subsequent
    /// probe takes the oracle path, and records the final ladder rung.
    fn degrade_shard(&self, st: &ServingState, s: usize, attempts: u32) {
        let shard = &st.shards[s];
        shard.degraded.store(true, Ordering::Relaxed);
        {
            let mut core = shard.lock_core();
            core.index = None;
            core.overlay = None;
            core.join = None;
        }
        let gave_up = SpatialError::ShardUnavailable { shard: s, attempts };
        self.push_event(rung(s, RecoveryAction::Degrade, gave_up));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_workloads::uniform_segments;
    use scan_model::{FaultPlan, FaultSite};
    use std::sync::atomic::AtomicU32;

    /// Drives the ladder with a synthetic unit that fails its first
    /// `failures` runs, as a panic or as a typed error.
    fn ladder_run(failures: u32, typed: bool) -> (Option<u32>, Vec<RecoveryEvent>, (u64, u64)) {
        let data = uniform_segments(60, 64, 8, 14);
        let svc = QueryService::build(
            QueryServiceConfig::sequential(1),
            data.world,
            data.segs.clone(),
        );
        let st = svc.state_snapshot();
        let runs = AtomicU32::new(0);
        let cause = SpatialError::InvalidConfig {
            reason: "synthetic",
        };
        let done = svc.on_shard(&st, 0, |_, _| {
            let run = runs.fetch_add(1, Ordering::Relaxed) + 1;
            match (run <= failures, typed) {
                (true, true) => Err(cause),
                (true, false) => panic!("synthetic crash"),
                (false, _) => Ok(run),
            }
        });
        let shard = &svc.stats().shards[0];
        (done, svc.recovery_events(), (shard.retries, shard.rebuilds))
    }

    #[test]
    fn the_ladder_climbs_retry_rebuild_retry_degrade() {
        let crash = |attempts| SpatialError::ShardUnavailable { shard: 0, attempts };
        let event = |action, error| RecoveryEvent {
            shard: 0,
            action,
            error,
        };
        // A healthy unit takes no rung.
        assert_eq!(ladder_run(0, false), (Some(1), vec![], (0, 0)));
        // Two crashes: two retries, answered on the third run.
        let (done, events, counts) = ladder_run(2, false);
        assert_eq!((done, counts), (Some(3), (2, 0)));
        assert_eq!(
            events,
            vec![
                event(RecoveryAction::Retry(1), crash(1)),
                event(RecoveryAction::Retry(2), crash(2)),
            ]
        );
        // Five: through the rebuild, answered on its second retry.
        let (done, events, counts) = ladder_run(5, false);
        assert_eq!((done, counts), (Some(6), (4, 1)));
        assert_eq!(
            events,
            vec![
                event(RecoveryAction::Retry(1), crash(1)),
                event(RecoveryAction::Retry(2), crash(2)),
                event(RecoveryAction::Rebuild, crash(3)),
                event(RecoveryAction::Retry(1), crash(4)),
                event(RecoveryAction::Retry(2), crash(5)),
            ]
        );
        // Six: every rung spent, the shard degrades.
        let (done, events, counts) = ladder_run(6, false);
        assert_eq!((done, counts), (None, (4, 1)));
        assert_eq!(events.len(), 6);
        assert_eq!(events[5], event(RecoveryAction::Degrade, crash(6)));
    }

    #[test]
    fn a_typed_error_rides_the_same_rungs_as_a_panic() {
        let cause = SpatialError::InvalidConfig {
            reason: "synthetic",
        };
        let (done, events, counts) = ladder_run(3, true);
        assert_eq!((done, counts), (Some(4), (2, 1)));
        let actions: Vec<RecoveryAction> = events.iter().map(|e| e.action).collect();
        assert_eq!(
            actions,
            vec![
                RecoveryAction::Retry(1),
                RecoveryAction::Retry(2),
                RecoveryAction::Rebuild
            ]
        );
        assert!(events.iter().all(|e| e.error == cause));
    }

    #[test]
    fn a_degraded_shard_is_not_worked_on() {
        let data = uniform_segments(60, 64, 8, 15);
        let svc = QueryService::try_build_with_faults(
            QueryServiceConfig::sequential(1),
            data.world,
            data.segs.clone(),
            Vec::new(),
            Arc::new(FaultPlan::always(FaultSite::RoundAbort)),
        )
        .expect("builds degrade instead of erroring");
        let st = svc.state_snapshot();
        let before = svc.recovery_events();
        let done: Option<()> = svc.on_shard(&st, 0, |_, _| panic!("must not run"));
        assert_eq!(done, None);
        assert_eq!(svc.recovery_events(), before);
    }

    #[test]
    fn fan_out_returns_results_in_index_order() {
        assert_eq!(fan_out(5, |i| i * i), vec![0, 1, 4, 9, 16]);
        assert!(fan_out(0, |i| i).is_empty());
    }
}
