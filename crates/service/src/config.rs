//! The nine knobs of a [`QueryService`](crate::QueryService), and the
//! one place machines are made from them.

use dp_spatial::SpatialError;
use scan_model::{Backend, FaultPlan, Machine};
use std::sync::Arc;

/// Configuration of a [`QueryService`](crate::QueryService).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryServiceConfig {
    /// Tiles per world side; the service runs `shard_grid²` shards. Must
    /// be a positive power of two.
    pub shard_grid: u32,
    /// The one batching parameter, a cap: the most requests a free
    /// [`ServicePipeline`](crate::ServicePipeline) lane worker takes from
    /// its queue at once, and the most probes a shard executes as one
    /// lockstep batch. Larger batches amortise the per-level primitive
    /// cost over more lanes; smaller batches bound per-flush latency.
    /// Nothing waits for a batch to fill.
    pub flush_batch: usize,
    /// Backend of every shard's [`Machine`].
    pub backend: Backend,
    /// Parallel-threshold override for the shard machines (`None` keeps
    /// the machine default).
    pub par_threshold: Option<usize>,
    /// Bucket capacity of the per-shard PMR quadtrees.
    pub capacity: usize,
    /// Maximum subdivision depth of the per-shard quadtrees.
    pub max_depth: usize,
    /// Write pressure (accumulated tombstones + pending overlay inserts)
    /// at which a compaction merges base and overlay into a fresh epoch.
    pub compact_threshold: usize,
    /// Bound of each admission lane's queue; a full lane applies the
    /// pipeline's [`AdmissionPolicy`](crate::AdmissionPolicy) (backpressure or shedding). Must
    /// be at least `flush_batch` so one full micro-batch fits.
    pub queue_bound: usize,
    /// Capacity of the hot-window result cache consulted on the
    /// admission path (`0` disables caching).
    pub cache_capacity: usize,
}

impl Default for QueryServiceConfig {
    fn default() -> Self {
        QueryServiceConfig {
            shard_grid: 4,
            flush_batch: 1024,
            backend: Backend::Parallel,
            par_threshold: None,
            capacity: 8,
            max_depth: 16,
            compact_threshold: 256,
            queue_bound: 4096,
            cache_capacity: 1024,
        }
    }
}

impl QueryServiceConfig {
    /// A sequential-backend configuration with the given shard grid
    /// (handy in tests).
    pub fn sequential(shard_grid: u32) -> Self {
        QueryServiceConfig {
            shard_grid,
            backend: Backend::Sequential,
            ..QueryServiceConfig::default()
        }
    }

    pub(crate) fn validate(&self) -> Result<(), SpatialError> {
        if self.shard_grid == 0 || !self.shard_grid.is_power_of_two() {
            return Err(SpatialError::InvalidConfig {
                reason: "shard_grid must be a positive power of two",
            });
        }
        if self.capacity == 0 {
            return Err(SpatialError::InvalidConfig {
                reason: "bucket capacity must be at least 1",
            });
        }
        if self.compact_threshold == 0 {
            return Err(SpatialError::InvalidConfig {
                reason: "compact_threshold must be at least 1",
            });
        }
        if self.flush_batch == 0 {
            return Err(SpatialError::InvalidConfig {
                reason: "flush_batch must be at least 1",
            });
        }
        if self.queue_bound < self.flush_batch {
            return Err(SpatialError::InvalidConfig {
                reason: "queue_bound must hold at least one full flush_batch",
            });
        }
        Ok(())
    }
}

/// A machine on the configured backend with `plan` attached — for every
/// shard core, rebuild, compaction and the overlay ladder.
pub(crate) fn make_machine(config: &QueryServiceConfig, plan: &Arc<FaultPlan>) -> Machine {
    let machine = match config.par_threshold {
        Some(t) => Machine::new(config.backend).with_par_threshold(t),
        None => Machine::new(config.backend),
    };
    machine.with_fault_plan(plan.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryService;
    use dp_geom::Rect;

    #[test]
    fn invalid_configs_are_typed_errors() {
        let world = Rect::from_coords(0.0, 0.0, 16.0, 16.0);
        let mut cfg = QueryServiceConfig::sequential(0);
        assert!(matches!(
            QueryService::try_build(cfg, world, Vec::new()),
            Err(SpatialError::InvalidConfig { .. })
        ));
        cfg.shard_grid = 3;
        assert!(matches!(
            QueryService::try_build(cfg, world, Vec::new()),
            Err(SpatialError::InvalidConfig { .. })
        ));
        cfg = QueryServiceConfig::sequential(2);
        cfg.capacity = 0;
        assert!(matches!(
            QueryService::try_build(cfg, world, Vec::new()),
            Err(SpatialError::InvalidConfig { .. })
        ));
        cfg = QueryServiceConfig::sequential(2);
        cfg.compact_threshold = 0;
        assert!(matches!(
            QueryService::try_build(cfg, world, Vec::new()),
            Err(SpatialError::InvalidConfig { .. })
        ));
        // Admission parameters are validated at construction, not
        // silently clamped: a zero flush_batch and a queue bound too
        // small to hold one flush are both typed errors.
        cfg = QueryServiceConfig::sequential(2);
        cfg.flush_batch = 0;
        assert!(matches!(
            QueryService::try_build(cfg, world, Vec::new()),
            Err(SpatialError::InvalidConfig { .. })
        ));
        cfg = QueryServiceConfig::sequential(2);
        cfg.flush_batch = 64;
        cfg.queue_bound = 63;
        let err = QueryService::try_build(cfg, world, Vec::new())
            .err()
            .expect("undersized queue_bound must not build");
        assert!(matches!(err, SpatialError::InvalidConfig { .. }));
        assert!(err.to_string().contains("queue_bound"), "{err}");
    }
}
