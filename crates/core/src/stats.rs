//! Build instrumentation: primitive-operation accounting per build.
//!
//! The paper states its complexity results in primitive operations per
//! subdivision stage ("a constant number of scans, clonings, and
//! un-shuffles", Secs. 5.1–5.3). [`measure_build`] wraps a build closure
//! and reports the machine's operation deltas, so the scaling experiments
//! can verify those claims directly (experiments E19–E21 in `DESIGN.md`).

use scan_model::{Machine, StatsSnapshot};
use std::time::{Duration, Instant};

/// Primitive-operation and wall-clock accounting for one build.
#[derive(Debug, Clone, Copy)]
pub struct BuildReport {
    /// Machine-op deltas attributable to the build.
    pub ops: StatsSnapshot,
    /// Wall-clock duration of the build.
    pub elapsed: Duration,
}

impl BuildReport {
    /// Total primitive ops per round.
    pub fn ops_per_round(&self) -> Option<f64> {
        (self.ops.rounds > 0).then(|| self.ops.total_primitives() as f64 / self.ops.rounds as f64)
    }
}

/// Runs `build` against `machine` and reports the operation delta and
/// elapsed time. The machine's counters are *not* reset — deltas are
/// computed from snapshots, so measurement composes with other work.
pub fn measure_build<T>(machine: &Machine, build: impl FnOnce() -> T) -> (T, BuildReport) {
    let before = machine.stats();
    let start = Instant::now();
    let value = build();
    let elapsed = start.elapsed();
    let ops = machine.stats().since(&before);
    (value, BuildReport { ops, elapsed })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket_pmr::build_bucket_pmr;
    use dp_geom::{LineSeg, Rect};

    #[test]
    fn measure_reports_ops_and_rounds() {
        let m = Machine::sequential();
        let world = Rect::from_coords(0.0, 0.0, 8.0, 8.0);
        let segs = vec![
            LineSeg::from_coords(1.0, 1.0, 6.0, 6.0),
            LineSeg::from_coords(1.0, 6.0, 6.0, 1.0),
            LineSeg::from_coords(1.0, 2.0, 6.0, 2.0),
        ];
        let (tree, report) = measure_build(&m, || build_bucket_pmr(&m, world, &segs, 2, 6));
        assert!(tree.stats().nodes > 1);
        assert!(report.ops.scans > 0);
        assert!(report.ops.rounds > 0);
        assert!(
            report.ops_per_round().unwrap() >= report.ops.scans as f64 / report.ops.rounds as f64
        );
    }

    #[test]
    fn scans_per_round_is_bounded_constant() {
        // The paper's O(1)-ops-per-stage claim: the per-round scan count
        // must not grow with n. Compare a small and a larger build.
        let world = Rect::from_coords(0.0, 0.0, 64.0, 64.0);
        let mk = |n: usize| -> Vec<LineSeg> {
            (0..n)
                .map(|k| {
                    let x = ((k * 13) % 60) as f64;
                    let y = ((k * 29) % 60) as f64;
                    LineSeg::from_coords(x, y, x + 2.0, y + 1.0)
                })
                .collect()
        };
        let m = Machine::sequential();
        let (_t1, r1) = {
            let segs = mk(40);
            measure_build(&m, || build_bucket_pmr(&m, world, &segs, 4, 6))
        };
        let (_t2, r2) = {
            let segs = mk(400);
            measure_build(&m, || build_bucket_pmr(&m, world, &segs, 4, 6))
        };
        let (a, b) = (r1.ops_per_round().unwrap(), r2.ops_per_round().unwrap());
        assert!(
            (a - b).abs() / a.max(b) < 0.5,
            "ops/round should be near-constant: {a} vs {b}"
        );
    }
}
