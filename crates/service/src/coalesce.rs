//! Micro-batch coalescing policy and the fixed-bucket latency histogram.
//!
//! The admission layer (see [`crate::admission`]) buffers arriving
//! requests per lane and hands the batch engine *micro-batches*: large
//! enough to amortise the per-level primitive cost of a lockstep descent
//! over many lanes (the whole point of the paper's batch primitives),
//! small enough that the oldest buffered request never waits past a
//! latency deadline. The flush decision itself is pure — a function of
//! the buffer size, the configured size trigger, and the age of the
//! oldest buffered request — so it is unit-testable without threads and
//! identical across worker schedulings.
//!
//! The histogram is the workspace's own fixed-bucket implementation (the
//! build is offline; no hdrhistogram dependency): power-of-two
//! microsecond buckets, constant memory, mergeable, with quantile
//! lookups that report the bucket upper bound — exactly the shape the
//! per-shard flush histograms already used, promoted to a reusable type
//! for the open-loop driver's p50/p99/p999 SLO reporting.

use std::time::Duration;

/// Why (or whether) a coalescing buffer should flush now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushDecision {
    /// The buffer reached the size trigger: flush immediately.
    Size,
    /// The oldest buffered request reached its latency deadline: flush
    /// what is there.
    Deadline,
    /// Keep coalescing; the payload is how long the worker may wait for
    /// more arrivals before the deadline forces a flush.
    Wait(Duration),
    /// Nothing is buffered; the worker should block for arrivals.
    Empty,
}

/// The micro-batch coalescing policy: flush on size `flush_batch` OR
/// when the oldest buffered request has waited `deadline`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Coalescer {
    /// Size trigger: a buffer holding this many requests flushes
    /// immediately (also the upper bound handed to one lockstep batch).
    pub flush_batch: usize,
    /// Latency trigger: the oldest buffered request never waits longer
    /// than this before its batch is handed to the engine.
    pub deadline: Duration,
}

impl Coalescer {
    /// A policy from the service configuration's `flush_batch` and
    /// `coalesce_deadline_micros`.
    pub fn new(flush_batch: usize, deadline_micros: u64) -> Self {
        Coalescer {
            flush_batch: flush_batch.max(1),
            deadline: Duration::from_micros(deadline_micros),
        }
    }

    /// The flush decision for a buffer of `buffered` requests whose
    /// oldest member has waited `oldest_wait`.
    pub fn decide(&self, buffered: usize, oldest_wait: Duration) -> FlushDecision {
        if buffered == 0 {
            return FlushDecision::Empty;
        }
        if buffered >= self.flush_batch {
            return FlushDecision::Size;
        }
        if oldest_wait >= self.deadline {
            return FlushDecision::Deadline;
        }
        FlushDecision::Wait(self.deadline - oldest_wait)
    }
}

/// Number of power-of-two microsecond buckets ([`LatencyHistogram`]).
/// Bucket 31 absorbs everything from ~18 minutes up, far beyond any
/// request latency the service can produce.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A fixed-bucket latency histogram: bucket `i` counts samples in
/// `[2^(i-1), 2^i)` microseconds (bucket 0: sub-microsecond). Constant
/// memory, no allocation per sample, mergeable — the workspace's own
/// replacement for an hdrhistogram dependency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum_micros: u64,
    max_micros: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum_micros: 0,
            max_micros: 0,
        }
    }

    /// A histogram holding `buckets` as its counts — for quantiles over
    /// counts gathered elsewhere (the per-shard flush histograms). The
    /// samples themselves are gone, so the mean and max read 0.
    pub(crate) fn from_buckets(buckets: [u64; HISTOGRAM_BUCKETS]) -> Self {
        LatencyHistogram {
            buckets,
            count: buckets.iter().sum(),
            ..LatencyHistogram::new()
        }
    }

    /// The bucket index for a sample of `micros` microseconds.
    pub fn bucket_of(micros: u64) -> usize {
        (64 - micros.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: Duration) {
        self.record_micros(latency.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Records one latency sample given in microseconds.
    pub fn record_micros(&mut self, micros: u64) {
        self.buckets[Self::bucket_of(micros)] += 1;
        self.count += 1;
        self.sum_micros = self.sum_micros.saturating_add(micros);
        self.max_micros = self.max_micros.max(micros);
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_micros = self.sum_micros.saturating_add(other.sum_micros);
        self.max_micros = self.max_micros.max(other.max_micros);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in microseconds (`None` before any sample).
    pub fn mean_micros(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum_micros as f64 / self.count as f64)
    }

    /// The exact largest recorded sample, in microseconds.
    pub fn max_micros(&self) -> u64 {
        self.max_micros
    }

    /// Upper bound (microseconds) of the bucket holding the `q`-quantile
    /// sample, or `None` before any sample. `quantile(0.999)` is the
    /// p999 the SLO checks gate on.
    pub fn quantile_micros(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(1u64 << i);
            }
        }
        Some(1u64 << (HISTOGRAM_BUCKETS - 1))
    }

    /// The raw bucket counts (bucket `i`: `[2^(i-1), 2^i)` µs).
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// A compact one-line rendering of p50/p90/p99/p999 and the mean,
    /// for driver output and CI artifacts.
    pub fn summary(&self) -> String {
        match self.mean_micros() {
            None => "no samples".to_string(),
            Some(mean) => format!(
                "n={} mean={:.0}µs p50<{}µs p90<{}µs p99<{}µs p999<{}µs max={}µs",
                self.count,
                mean,
                self.quantile_micros(0.5).unwrap_or(0),
                self.quantile_micros(0.9).unwrap_or(0),
                self.quantile_micros(0.99).unwrap_or(0),
                self.quantile_micros(0.999).unwrap_or(0),
                self.max_micros,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalescer_flushes_on_size() {
        let c = Coalescer::new(8, 1_000);
        assert_eq!(c.decide(8, Duration::ZERO), FlushDecision::Size);
        assert_eq!(c.decide(9, Duration::ZERO), FlushDecision::Size);
    }

    #[test]
    fn coalescer_flushes_on_deadline() {
        let c = Coalescer::new(8, 1_000);
        assert_eq!(
            c.decide(3, Duration::from_micros(1_000)),
            FlushDecision::Deadline
        );
        assert_eq!(
            c.decide(1, Duration::from_micros(5_000)),
            FlushDecision::Deadline
        );
    }

    #[test]
    fn coalescer_waits_out_the_remaining_deadline() {
        let c = Coalescer::new(8, 1_000);
        match c.decide(3, Duration::from_micros(400)) {
            FlushDecision::Wait(d) => assert_eq!(d, Duration::from_micros(600)),
            other => panic!("expected Wait, got {other:?}"),
        }
        assert_eq!(c.decide(0, Duration::ZERO), FlushDecision::Empty);
    }

    #[test]
    fn zero_flush_batch_is_clamped_to_one() {
        // Defensive only: QueryServiceConfig::validate rejects 0 before a
        // Coalescer is ever built from it.
        let c = Coalescer::new(0, 100);
        assert_eq!(c.decide(1, Duration::ZERO), FlushDecision::Size);
    }

    #[test]
    fn histogram_quantiles_bound_the_samples() {
        let mut h = LatencyHistogram::new();
        for micros in [1u64, 2, 3, 700, 800, 900, 64_000] {
            h.record_micros(micros);
        }
        assert_eq!(h.count(), 7);
        let p50 = h.quantile_micros(0.5).unwrap();
        assert!((700..=1024).contains(&p50), "p50 bucket bound {p50}");
        // The top quantile lands in the bucket of the largest sample:
        // 64_000µs has a 16-bit magnitude, so its bucket spans
        // [2^15, 2^16) and reports the 2^16 upper bound.
        assert_eq!(h.quantile_micros(1.0).unwrap(), 1 << 16);
        assert_eq!(h.max_micros(), 64_000);
        assert!(h.summary().contains("n=7"));
    }

    #[test]
    fn histogram_merges_and_handles_empty() {
        let empty = LatencyHistogram::new();
        assert_eq!(empty.quantile_micros(0.5), None);
        assert_eq!(empty.mean_micros(), None);
        assert_eq!(empty.summary(), "no samples");

        let mut a = LatencyHistogram::new();
        a.record(Duration::from_micros(10));
        let mut b = LatencyHistogram::new();
        b.record(Duration::from_micros(1_000_000));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max_micros(), 1_000_000);
    }

    #[test]
    fn bucket_of_is_monotone_and_bounded() {
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        let mut prev = 0;
        for shift in 0..40u32 {
            let b = LatencyHistogram::bucket_of(1u64 << shift);
            assert!(b >= prev);
            assert!(b < HISTOGRAM_BUCKETS);
            prev = b;
        }
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }
}
