//! The fixed-bucket latency histogram.
//!
//! The workspace's own implementation (the build is offline; no
//! hdrhistogram dependency): power-of-two microsecond buckets, constant
//! memory, mergeable, with quantile lookups that report the bucket upper
//! bound — the shape of the per-shard flush histograms
//! ([`ShardStats::latency_histogram`](crate::ShardStats)), as a reusable
//! type for the open-loop driver's p50/p99/p999 SLO reporting.

use std::time::Duration;

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
