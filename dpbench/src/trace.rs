//! Span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code only, one per call
//! into a layer's public function, kept in memory and written as JSON at
//! exit. With tracing off the recorder still times the call (the
//! workloads need the duration either way) but stores nothing, so the
//! untraced run pays two `Instant::now()` per call and no allocation.
//!
//! A layer's *self time* is a span's duration minus the part of that
//! interval its child spans cover (their union, so concurrent children
//! are not counted twice). Spans of layer [`CLIENT`] are observations,
//! not calls — a request's due→done latency overlaps every other
//! request in flight — so they carry children for the reader's benefit
//! but are skipped by the self-time accounting, which looks through them
//! to the enclosing call.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The benchmark's own code: rep drivers, sleeps, clones, bookkeeping.
pub const HARNESS: &str = "dpbench";
/// Client-visible observations (request latency), not calls.
pub const CLIENT: &str = "client";

/// Identifier of a recorded span; 0 is "no span" (tracing off, or no
/// parent).
pub type SpanId = u32;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub rep: u32,
    pub layer: &'static str,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    rep: u32,
    stack: Vec<SpanId>,
    spans: Vec<Span>,
    /// When recording was last switched off, and for how long in total.
    off_since: Option<Instant>,
    off_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            rep: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            off_since: None,
            off_ns: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off; the traced run alternates traced and
    /// untraced reps on one recorder to measure the overhead.
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggled inside an open span");
        if self.enabled && !on {
            self.off_since = Some(Instant::now());
        } else if let (false, true, Some(since)) = (self.enabled, on, self.off_since.take()) {
            self.off_ns += since.elapsed().as_nanos() as u64;
        }
        self.enabled = on;
    }

    /// Share of the recorded interval (first span start to last span
    /// end, less the time recording was deliberately off) that root
    /// spans cover.
    pub fn root_coverage(&self) -> f64 {
        let first = self.spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
        let last = self.spans.iter().map(|s| s.end_ns).max().unwrap_or(0);
        let roots: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == 0)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        roots as f64 / (last - first).saturating_sub(self.off_ns).max(1) as f64
    }

    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(
        &mut self,
        parent: SpanId,
        layer: &'static str,
        name: String,
        s: u64,
        e: u64,
    ) -> SpanId {
        let id = self.spans.len() as SpanId + 1;
        self.spans.push(Span {
            id,
            parent,
            rep: self.rep,
            layer,
            name,
            start_ns: s,
            end_ns: e.max(s),
        });
        id
    }

    /// Times `f` and, when tracing, records it as a span under the
    /// innermost open span. Calls made by `f` through the same recorder
    /// become its children.
    pub fn timed<T>(
        &mut self,
        layer: &'static str,
        name: &str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, Duration) {
        let (out, dur, _) = self.timed_id(layer, name, f);
        (out, dur)
    }

    /// [`Tracer::timed`], also returning the recorded span's id (0 with
    /// tracing off) so the caller can attach synthesised children.
    pub fn timed_id<T>(
        &mut self,
        layer: &'static str,
        name: &str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, Duration, SpanId) {
        if !self.enabled {
            let t0 = Instant::now();
            let out = f(self);
            return (out, t0.elapsed(), 0);
        }
        let parent = self.stack.last().copied().unwrap_or(0);
        let id = self.push(parent, layer, name.to_string(), 0, 0);
        self.stack.push(id);
        let t0 = Instant::now();
        let out = f(self);
        let t1 = Instant::now();
        self.stack.pop();
        let (s, e) = (self.ns(t0), self.ns(t1));
        let span = &mut self.spans[id as usize - 1];
        span.start_ns = s;
        span.end_ns = e;
        (out, t1 - t0, id)
    }

    /// Records a span whose endpoints were measured by the caller (a
    /// request's due and done instants, a `RoundTrace` row). Returns 0
    /// with tracing off.
    pub fn add(
        &mut self,
        parent: SpanId,
        layer: &'static str,
        name: &str,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let (s, e) = (self.ns(start), self.ns(end));
        self.push(parent, layer, name.to_string(), s, e)
    }

    /// The innermost open span (0 when none or tracing is off).
    pub fn current(&self) -> SpanId {
        if self.enabled {
            self.stack.last().copied().unwrap_or(0)
        } else {
            0
        }
    }

    /// Child spans synthesised from durations the program itself
    /// reported (`RoundTrace::wall_nanos`): laid back to back from the
    /// start of span `parent`, which is where the rounds of a build run;
    /// the remainder of the parent is its tree assembly.
    pub fn add_rounds(&mut self, parent: SpanId, layer: &'static str, wall_nanos: &[u64]) {
        if !self.enabled || parent == 0 {
            return;
        }
        let p = &self.spans[parent as usize - 1];
        let (mut at, end) = (p.start_ns, p.end_ns);
        for (k, &w) in wall_nanos.iter().enumerate() {
            let e = (at + w).min(end);
            self.push(parent, layer, format!("round[{k}]"), at, e);
            at = e;
        }
    }

    /// Per-layer `(self_ns, calls)` over every recorded span, plus the
    /// total duration of root spans. See the module docs for the rule.
    pub fn layer_self_times(&self) -> (Vec<(&'static str, u64, u64)>, u64) {
        // Effective parent: look through CLIENT observation spans.
        let eff_parent = |mut p: SpanId| -> SpanId {
            while p != 0 && self.spans[p as usize - 1].layer == CLIENT {
                p = self.spans[p as usize - 1].parent;
            }
            p
        };
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len() + 1];
        for s in self.spans.iter().filter(|s| s.layer != CLIENT) {
            children[eff_parent(s.parent) as usize].push((s.start_ns, s.end_ns));
        }
        let mut out: Vec<(&'static str, u64, u64)> = Vec::new();
        let mut root_total = 0u64;
        for s in self.spans.iter().filter(|s| s.layer != CLIENT) {
            let dur = s.end_ns - s.start_ns;
            if eff_parent(s.parent) == 0 {
                root_total += dur;
            }
            let covered = union_within(&mut children[s.id as usize], s.start_ns, s.end_ns);
            let slot = match out.iter().position(|(l, _, _)| *l == s.layer) {
                Some(i) => i,
                None => {
                    out.push((s.layer, 0, 0));
                    out.len() - 1
                }
            };
            out[slot].1 += dur - covered;
            out[slot].2 += 1;
        }
        (out, root_total)
    }

    /// The span file: one JSON object per line inside a top-level array.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::with_capacity(self.spans.len() * 120 + 16);
        out.push_str("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"workload\": \"{workload}\", \"rep\": {}, \
                 \"layer\": \"{}\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.rep, s.layer, s.name, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]\n");
        out
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut at) = (0u64, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(at), e.min(hi));
        if e > s {
            covered += e - s;
            at = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        let base = Instant::now();
        let at = |ms: u64| base + Duration::from_millis(ms);
        let root = t.add(0, HARNESS, "rep", at(0), at(100));
        // Two overlapping children cover [10, 50]; one lies past the end.
        t.add(root, "dp-spatial", "a", at(10), at(40));
        t.add(root, "dp-spatial", "b", at(30), at(50));
        // A client observation with a call inside it: the call counts
        // against the root, the observation is skipped.
        let req = t.add(root, CLIENT, "request", at(55), at(90));
        t.add(req, "dp-service", "submit", at(60), at(70));
        let (layers, roots) = t.layer_self_times();
        let ms = |l: &str| {
            layers
                .iter()
                .find(|(n, _, _)| *n == l)
                .map(|x| x.1)
                .unwrap()
                / 1_000_000
        };
        assert_eq!(roots / 1_000_000, 100);
        assert_eq!(ms(HARNESS), 100 - 40 - 10);
        assert_eq!(ms("dp-spatial"), 30 + 20);
        assert_eq!(ms("dp-service"), 10);
        assert!(layers.iter().all(|(l, _, _)| *l != CLIENT));
    }

    #[test]
    fn untraced_timed_records_nothing() {
        let mut t = Tracer::new(false);
        let (v, d) = t.timed("x", "y", |_| 7);
        assert_eq!(v, 7);
        assert!(d.as_nanos() > 0 || d.is_zero());
        assert!(t.spans().is_empty());
        assert_eq!(t.current(), 0);
    }
}
