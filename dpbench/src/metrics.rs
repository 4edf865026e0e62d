//! Metric tables, sample statistics and the hand-written JSON the
//! benchmark prints (the workspace carries no JSON dependency).
//!
//! Two tables are the contract with `BENCHMARK.json` at the repository
//! root (`dpbench --emit-manifest` prints that file from them, so they
//! cannot drift): [`END_TO_END`], gated by a regression bound, and
//! [`PER_LAYER`], reported by the traced run. Both are emitted by *every*
//! workload, so both hold only metrics every workload really measures.
//! Everything workload-specific (the names a later issue quotes, such as
//! `pm1_segs_per_s` or `dp-service.cache.hit_ratio`) is printed beside
//! them in the full report; `README.md` maps one onto the other.

use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One gated end-to-end metric.
pub struct E2eSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end metrics every workload reports with `--trace 0`.
///
/// `op1_us`..`op4_us` are the workload's four headline operations, each
/// as microseconds per unit of work (see [`WORKLOADS`] for what the unit
/// is on each workload); one common unit and direction is what lets five
/// unlike workloads share one gated list.
pub const END_TO_END: &[E2eSpec] = &[
    E2eSpec {
        name: "op1_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    E2eSpec {
        name: "op2_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    E2eSpec {
        name: "op3_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    E2eSpec {
        name: "op4_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    E2eSpec {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
    E2eSpec {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A workload and why it exists (`why` is one line, ≤ 200 characters,
/// and names what `op1`..`op4` are on it).
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "bulk_build",
        why: "split-round builds, no service: op1 PM1 build/seg, op2 bucket-PMR build/seg, op3 R-tree build/seg, op4 window query on the built trees",
    },
    WorkloadSpec {
        name: "batch_ops",
        why: "flat-map/compaction/sort kernels, not the split loop: op1 batch window/query, op2 frontier join/input seg, op3 1% batch update/edit, op4 skyline+dominance/point",
    },
    WorkloadSpec {
        name: "serve_uniform",
        why: "3% cache hits so the engine does the work, cache bypassed: op1 open-loop p50 at 5000 req/s, op2 unloaded round trip, op3 closed-loop saturation/request, op4 warm restore",
    },
    WorkloadSpec {
        name: "serve_hot",
        why: "90% cache hits so admission+cache do the work, engine idle: op1 open-loop p50 at 10000 req/s, op2 unloaded round trip, op3 closed-loop saturation/request, op4 warm restore",
    },
    WorkloadSpec {
        name: "serve_write",
        why: "10% writes beside reads on one lane (overlay, tombstones, invalidation, compaction): op1 p50 at 1000 req/s, op2 unloaded round trip, op3 saturation/request, op4 warm restore",
    },
];

/// The per-layer metrics every workload reports with `--trace 1`:
/// `(name, unit, better)`. The first block is the layer probe (kernel and
/// predicate unit costs, identical code in every workload); the second is
/// read off the workload's own span file and counters. A count of 0 means
/// the workload made no such call, which is a measurement, not a gap.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    ("scan-model.copy_gbps", "GB/s", Better::Higher),
    ("scan-model.scan_ns_per_elem", "ns/elem", Better::Lower),
    ("scan-model.scan_gbps", "GB/s", Better::Higher),
    ("scan-model.scan_par_over_seq", "ratio", Better::Higher),
    (
        "scan-model.scan_lanes4_ns_per_elem",
        "ns/elem",
        Better::Lower,
    ),
    ("scan-model.map_ns_per_elem", "ns/elem", Better::Lower),
    ("scan-model.permute_ns_per_elem", "ns/elem", Better::Lower),
    ("scan-model.permute_gbps", "GB/s", Better::Higher),
    ("scan-model.unshuffle_ns_per_elem", "ns/elem", Better::Lower),
    ("scan-model.flat_map_ns_per_elem", "ns/elem", Better::Lower),
    ("scan-model.sort_ns_per_elem", "ns/elem", Better::Lower),
    ("scan-model.vec_sort_ns_per_elem", "ns/elem", Better::Lower),
    ("scan-model.block_bytes", "bytes", Better::Lower),
    ("scan-model.block_bytes_auto", "bytes", Better::Lower),
    ("dp-geom.clip_ns", "ns/call", Better::Lower),
    ("dp-geom.intersect_ns", "ns/call", Better::Lower),
    ("dpbench.self_share", "ratio", Better::Lower),
    ("scan-model.self_share", "ratio", Better::Lower),
    ("dp-geom.self_share", "ratio", Better::Lower),
    ("dp-spatial.self_share", "ratio", Better::Lower),
    ("seq-spatial.self_share", "ratio", Better::Lower),
    ("dp-workloads.self_share", "ratio", Better::Lower),
    ("dp-service.self_share", "ratio", Better::Lower),
    ("dp-service.admission.self_share", "ratio", Better::Lower),
    ("dp-service.cache.self_share", "ratio", Better::Lower),
    ("dp-service.snapshot.self_share", "ratio", Better::Lower),
    ("scan-model.calls", "count", Better::Lower),
    ("dp-spatial.calls", "count", Better::Lower),
    ("dp-service.calls", "count", Better::Lower),
    ("dp-service.admission.calls", "count", Better::Lower),
    ("dp-service.snapshot.calls", "count", Better::Lower),
    ("scan-model.prims", "count", Better::Lower),
    ("scan-model.scan_passes", "count", Better::Lower),
    ("scan-model.bytes_moved", "bytes", Better::Lower),
    ("scan-model.rounds", "count", Better::Lower),
    ("scan-model.arena_hit_ratio", "ratio", Better::Higher),
    ("dp-spatial.window.candidates", "count", Better::Lower),
    ("dp-spatial.window.hits", "count", Better::Higher),
    ("dp-spatial.join.tested", "count", Better::Lower),
    ("dp-spatial.join.pairs", "count", Better::Higher),
    ("dp-service.requests", "count", Better::Higher),
    ("dp-service.probes", "count", Better::Lower),
    ("dp-service.knn_rounds", "count", Better::Lower),
    ("dp-service.compactions", "count", Better::Lower),
    ("dp-service.admission.admitted", "count", Better::Higher),
    ("dp-service.admission.batches", "count", Better::Lower),
    ("dp-service.admission.shed", "count", Better::Lower),
    (
        "dp-service.admission.max_queue_depth",
        "count",
        Better::Lower,
    ),
    ("dp-service.cache.hits", "count", Better::Higher),
    ("dp-service.cache.misses", "count", Better::Lower),
    ("dp-service.cache.invalidations", "count", Better::Lower),
    ("dp-service.snapshot.bytes", "bytes", Better::Lower),
    ("dp-workloads.gen_s", "s", Better::Lower),
    ("dp-workloads.input_fingerprint", "count", Better::Lower),
    ("trace.spans", "count", Better::Lower),
    ("trace.root_coverage", "ratio", Better::Higher),
    ("trace_overhead_frac", "ratio", Better::Lower),
];

/// What a reported value is, for the full report and `--repeat-check`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Gated end-to-end metric (untraced run).
    E2e,
    /// Per-layer timing or ratio (traced run); never gated.
    Layer,
    /// A count that must repeat exactly for a seed.
    Exact,
}

impl Kind {
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::E2e => "e2e",
            Kind::Layer => "layer",
            Kind::Exact => "exact",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        match s {
            "e2e" => Some(Kind::E2e),
            "layer" => Some(Kind::Layer),
            "exact" => Some(Kind::Exact),
            _ => None,
        }
    }
}

/// One reported value over `n` samples, with their median and quartiles
/// beside it (all equal when `n == 1`). The value is the median
/// ([`Report::put_samples`]) or the quiet-machine decile
/// ([`Report::put_time`], [`Report::put_rate`]).
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub kind: Kind,
    pub value: f64,
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Operations attempted: timed operations plus oracle comparisons.
    pub attempted: u64,
    /// Operations that failed, were rejected, shed, timed out or
    /// disagreed with an oracle.
    pub failed: u64,
    /// First few failures, for the log.
    pub failures: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: &str, unit: &str, kind: Kind, value: f64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            kind,
            value,
            n: 1,
            median: value,
            q1: value,
            q3: value,
        });
    }

    /// Reports the median of `samples` with its quartiles.
    ///
    /// # Panics
    ///
    /// Panics (like its siblings below) on an empty sample set: a metric
    /// without a measurement is a bug in the workload, not a value.
    pub fn put_samples(&mut self, name: &str, unit: &str, kind: Kind, samples: &[f64]) {
        let value = median(samples);
        self.put_value(name, unit, kind, value, samples);
    }

    /// Reports a repeated timing (lower is better) as its **lower decile**
    /// over reps, median and quartiles beside it. On the reference box a
    /// rep is only ever disturbed upwards — a neighbour on the host takes
    /// cache or memory bandwidth for seconds at a time — so the median
    /// over reps follows the disturbance (10–18 % spread over 26
    /// back-to-back runs of one input) where the lower decile follows the
    /// program (5–8 %). It is not a best-of-N: one lucky rep does not set
    /// it once there are ten, and the spread is printed.
    pub fn put_time(&mut self, name: &str, unit: &str, kind: Kind, samples: &[f64]) {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        self.put_value(name, unit, kind, percentile_sorted(&sorted, 0.1), samples);
    }

    /// [`Report::put_time`] for a rate (higher is better): the upper
    /// decile, the mirror image of the lower decile's nearest rank.
    pub fn put_rate(&mut self, name: &str, unit: &str, kind: Kind, samples: &[f64]) {
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| b.total_cmp(a));
        self.put_value(name, unit, kind, percentile_sorted(&sorted, 0.1), samples);
    }

    /// Reports `value`, computed by the caller from `samples`, with the
    /// samples' count, median and quartiles beside it.
    pub fn put_value(&mut self, name: &str, unit: &str, kind: Kind, value: f64, samples: &[f64]) {
        assert!(!samples.is_empty(), "metric {name} has no samples");
        let (q1, median, q3) = quartiles(samples);
        // With two or three samples the exclusive method extrapolates
        // past the data; what is printed stays inside it.
        let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        self.metrics.push(Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            kind,
            value,
            n: samples.len(),
            median,
            q1: q1.max(lo),
            q3: q3.min(hi),
        });
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.get(name).map(|m| m.value)
    }

    /// Records `n` attempted operations of which `bad` failed.
    pub fn count(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// Records one oracle comparison.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }
}

/// Median of `values` (not required to be sorted).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `(q1, median, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method), so spreads printed here match the driver's. A single sample
/// is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let m = v.len();
    if m == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| -> f64 {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The `q`-quantile of `sorted` by nearest rank (`q` in `[0, 1]`).
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Formats a value with all the digits an `f64` round-trips with;
/// integral values print without a fraction.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // JSON has no NaN/inf; a non-finite metric is a harness bug and
        // must not parse as a plausible number.
        "null".to_string()
    }
}

/// Escapes a string for a JSON literal (ASCII control characters,
/// quotes and backslashes; everything the harness prints is ASCII).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line of the driver contract: `correct`, `attempted`,
/// `failed` and exactly the metrics of `names`, in that order.
///
/// # Panics
///
/// Panics when the report lacks one of `names`: the contract promises
/// every listed metric on every workload.
pub fn driver_line(report: &Report, names: &[&str]) -> String {
    let mut body = String::new();
    for (i, name) in names.iter().enumerate() {
        let m = report
            .get(name)
            .unwrap_or_else(|| panic!("workload did not measure {name}"));
        if i > 0 {
            body.push_str(", ");
        }
        let _ = write!(
            body,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            num(m.value),
            json_str(&m.unit)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed
    )
}

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest_json(command: &[&str], paths: &[&str], run_seconds: u32) -> String {
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let strs = |v: &[&str]| v.iter().map(|s| json_str(s)).collect::<Vec<_>>().join(", ");
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "{{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    let e2e = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.as_str()),
                num(m.bound)
            )
        })
        .collect();
    let layers = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(name),
                json_str(unit),
                json_str(better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {run_seconds},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        strs(command),
        strs(paths),
        list(workloads),
        list(e2e),
        list(layers)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        // == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn deciles_are_nearest_rank_and_mirror_each_other() {
        let v: Vec<f64> = (1..=24).map(f64::from).collect();
        let mut r = Report::default();
        r.put_time("t", "s", Kind::E2e, &v);
        r.put_rate("r", "1/s", Kind::E2e, &v);
        r.put_samples("m", "s", Kind::E2e, &v);
        assert_eq!(r.value("t"), Some(3.0));
        assert_eq!(r.value("r"), Some(22.0));
        assert_eq!(r.value("m"), Some(12.5));
        // Few samples: the decile is the extreme, never out of range.
        r.put_time("few", "s", Kind::E2e, &[5.0, 4.0, 6.0]);
        assert_eq!(r.value("few"), Some(4.0));
    }

    #[test]
    fn manifest_names_are_unique_and_within_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(names.iter().all(|n| n.len() <= 64));
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }

    #[test]
    fn driver_line_has_every_requested_metric() {
        let mut r = Report::default();
        r.put("a", "us", Kind::E2e, 1.25);
        r.put("b", "s", Kind::E2e, 2.0);
        r.count(10, 0);
        assert_eq!(
            driver_line(&r, &["a", "b"]),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.25, \"unit\": \"us\"}, \"b\": {\"value\": 2, \"unit\": \"s\"}}}"
        );
    }
}
