//! Pieces every workload shares: seed derivation, the input fingerprint,
//! seeded query generation, brute-force oracles and the rep loop.

use crate::metrics::{median, Kind, Report};
use crate::trace::Tracer;
use dp_geom::{clip_segment_closed, LineSeg, Point, Rect};
use dp_service::{brute_knearest, Response};
use dp_workloads::Request;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scan_model::{Machine, StatsSnapshot};
use std::time::Instant;

/// What one invocation was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Cfg {
    pub seed: u64,
    /// Length of the measured phase, seconds.
    pub seconds: f64,
    /// Tenth-size inputs and three reps, for smoke use.
    pub quick: bool,
}

impl Cfg {
    /// `full` at full size, a tenth of it (at least `floor`) with
    /// `--quick`.
    pub fn scaled(&self, full: usize, floor: usize) -> usize {
        if self.quick {
            (full / 10).max(floor)
        } else {
            full
        }
    }
}

/// The `stream`-th sub-seed of `seed` (SplitMix64 finaliser), so every
/// generator of a run draws from its own stream and `--seed` drives all
/// of them.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over the bit patterns of every generated input, in generation
/// order: two runs with the same seed must print the same value.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    pub fn segs(&mut self, segs: &[LineSeg]) {
        self.word(segs.len() as u64);
        for s in segs {
            self.f(s.a.x);
            self.f(s.a.y);
            self.f(s.b.x);
            self.f(s.b.y);
        }
    }

    pub fn rects(&mut self, rects: &[Rect]) {
        self.word(rects.len() as u64);
        for r in rects {
            self.f(r.min.x);
            self.f(r.min.y);
            self.f(r.max.x);
            self.f(r.max.y);
        }
    }

    pub fn requests(&mut self, reqs: &[Request]) {
        self.word(reqs.len() as u64);
        for r in reqs {
            match r {
                Request::Window(q) => {
                    self.word(1);
                    self.rects(std::slice::from_ref(q));
                }
                Request::PointInWindow(p) => {
                    self.word(2);
                    self.f(p.x);
                    self.f(p.y);
                }
                Request::KNearest { p, k } => {
                    self.word(3);
                    self.f(p.x);
                    self.f(p.y);
                    self.word(*k as u64);
                }
                Request::Join(q) => {
                    self.word(4);
                    self.rects(std::slice::from_ref(q));
                }
                Request::Insert(s) => {
                    self.word(5);
                    self.segs(std::slice::from_ref(s));
                }
                Request::Delete(id) => {
                    self.word(6);
                    self.word(u64::from(*id));
                }
                Request::Skyline(q) => {
                    self.word(7);
                    self.rects(std::slice::from_ref(q));
                }
                Request::DominanceAgg(p) => {
                    self.word(8);
                    self.f(p.x);
                    self.f(p.y);
                }
            }
        }
    }

    /// The full 64-bit hash (printed in hex in the full report).
    pub fn value(&self) -> u64 {
        self.0
    }

    /// The low 48 bits, which a JSON number (an `f64`) carries exactly.
    pub fn json_value(&self) -> f64 {
        (self.0 & 0xffff_ffff_ffff) as f64
    }
}

/// `count` square windows of side `frac` of the world's side, on the
/// integer grid, fully inside the world.
pub fn windows(world: &Rect, count: usize, frac: f64, seed: u64) -> Vec<Rect> {
    let mut rng = StdRng::seed_from_u64(seed);
    let size = world.width() as u32;
    let side = ((f64::from(size) * frac).round() as u32).max(1);
    (0..count)
        .map(|_| {
            let x = f64::from(rng.gen_range(0..size - side));
            let y = f64::from(rng.gen_range(0..size - side));
            Rect::from_coords(x, y, x + f64::from(side), y + f64::from(side))
        })
        .collect()
}

/// Ids of the segments intersecting `q` (closed semantics), ascending:
/// the definition every index in the repository is held to.
pub fn brute_window(segs: &[LineSeg], q: &Rect) -> Vec<u32> {
    (0..segs.len() as u32)
        .filter(|&id| clip_segment_closed(&segs[id as usize], q).is_some())
        .collect()
}

/// Checks `answer(query)` against brute force on every `step`-th query.
pub fn check_windows(
    report: &mut Report,
    what: &str,
    segs: &[LineSeg],
    queries: &[Rect],
    step: usize,
    mut answer: impl FnMut(usize, &Rect) -> Vec<u32>,
) {
    for (i, q) in queries.iter().enumerate().step_by(step.max(1)) {
        let got = answer(i, q);
        let want = brute_window(segs, q);
        report.check(got == want, || {
            format!(
                "{what}: window {i} returned {} ids, brute force {}",
                got.len(),
                want.len()
            )
        });
    }
}

/// Checks one served read reply against brute force over `segs`. Writes
/// and the join/dominance families never reach here: no workload's mix
/// carries joins or dominance reads, and write replies are checked by
/// replaying the oracle collection.
pub fn check_read_reply(
    report: &mut Report,
    what: &str,
    segs: &[LineSeg],
    req: &Request,
    resp: &Response,
) {
    let ok = match (req, resp) {
        (Request::Window(q), Response::Window(ids)) => **ids == brute_window(segs, q),
        (Request::PointInWindow(p), Response::PointInWindow(ids)) => {
            **ids == brute_window(segs, &Rect::point(*p))
        }
        (Request::KNearest { p, k }, Response::KNearest(found)) => {
            *found == brute_knearest(segs, *p, *k)
        }
        _ => false,
    };
    report.check(ok, || {
        format!("{what}: reply to {req:?} disagrees with brute force")
    });
}

/// How many reps a workload whose rep takes `1 / per_second` seconds on
/// the reference box runs in a `--seconds` budget: fixed by the budget,
/// not by the clock, so one seed does the same work wherever it runs.
pub fn reps_for(cfg: &Cfg, share: f64, per_second: f64) -> usize {
    if cfg.quick {
        3
    } else {
        ((cfg.seconds * share * per_second).round() as usize).max(4)
    }
}

/// Runs `rep(None, ..)` `warmup` times, then `rep(Some(i), ..)` for `i`
/// in `0..reps`, stopping early (after at least three) once `cap_seconds`
/// have passed — the guard for a machine much slower than the reference
/// box. Returns the number of reported reps.
pub fn run_reps(
    reps: usize,
    cap_seconds: f64,
    warmup: usize,
    tracer: &mut Tracer,
    mut rep: impl FnMut(Option<usize>, &mut Tracer),
) -> usize {
    for _ in 0..warmup {
        rep(None, tracer);
    }
    let start = Instant::now();
    let mut done = 0;
    while done < reps && (done < 3 || start.elapsed().as_secs_f64() < cap_seconds) {
        tracer.set_rep(done as u32);
        rep(Some(done), tracer);
        done += 1;
    }
    done
}

/// The traced run's rep loop for a workload on one long-lived `machine`:
/// a warm-up rep, then `reps` reps with tracing alternately on and off
/// (so drift hits both alike), `rep(tracer, keep)` being told whether
/// this is a traced rep whose samples to keep. Reports the tracing
/// overhead (traced over untraced median rep time) and the machine's
/// arena hit ratio over the loop.
pub fn run_traced_reps(
    reps: usize,
    cap_seconds: f64,
    machine: &Machine,
    tracer: &mut Tracer,
    report: &mut Report,
    mut rep: impl FnMut(&mut Tracer, bool),
) {
    let (mut on_secs, mut off_secs) = (Vec::new(), Vec::new());
    let (takes0, hits0) = machine.arena_stats();
    run_reps(reps, cap_seconds, 1, tracer, |idx, tr| {
        let on = idx.map_or(true, |i| i % 2 == 0);
        tr.set_enabled(on);
        let t0 = Instant::now();
        rep(tr, on && idx.is_some());
        let secs = t0.elapsed().as_secs_f64();
        tr.set_enabled(true);
        match idx {
            Some(_) if on => on_secs.push(secs),
            Some(_) => off_secs.push(secs),
            None => {}
        }
    });
    let (takes, hits) = machine.arena_stats();
    let overhead = median(&on_secs) / median(&off_secs) - 1.0;
    report.put("trace_overhead_frac", "ratio", Kind::Layer, overhead);
    let ratio = (hits - hits0) as f64 / (takes - takes0).max(1) as f64;
    report.put("scan-model.arena_hit_ratio", "ratio", Kind::Layer, ratio);
}

/// The exact primitive counts of one rep: per operation as
/// `scan-model.<name>.<counter>` and summed as `scan-model.<counter>`.
pub fn put_op_counters(report: &mut Report, names: &[&str], ops: &[StatsSnapshot]) {
    type Counter = fn(&StatsSnapshot) -> u64;
    let counters: [(&str, &str, Counter); 4] = [
        ("prims", "count", |o| o.total_primitives()),
        ("scan_passes", "count", |o| o.scan_passes),
        ("bytes_moved", "bytes", |o| o.bytes_moved),
        ("rounds", "count", |o| o.rounds),
    ];
    for (counter, unit, get) in counters {
        for (name, o) in names.iter().zip(ops) {
            let metric = format!("scan-model.{name}.{counter}");
            report.put(&metric, unit, Kind::Exact, get(o) as f64);
        }
        let total: u64 = ops.iter().map(get).sum();
        report.put(
            &format!("scan-model.{counter}"),
            unit,
            Kind::Exact,
            total as f64,
        );
    }
}

/// A point on the integer grid of `world`.
pub fn grid_point(rng: &mut StdRng, world: &Rect) -> Point {
    let size = world.width() as u32;
    Point::new(
        f64::from(rng.gen_range(0..size)),
        f64::from(rng.gen_range(0..size)),
    )
}

/// Peak resident set size of this process (`VmHWM`), in MB; 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_seeds_differ_and_repeat() {
        assert_eq!(sub_seed(7, 1), sub_seed(7, 1));
        assert_ne!(sub_seed(7, 1), sub_seed(7, 2));
        assert_ne!(sub_seed(7, 1), sub_seed(8, 1));
    }

    #[test]
    fn windows_lie_inside_the_world() {
        let world = Rect::from_coords(0.0, 0.0, 1024.0, 1024.0);
        for q in windows(&world, 200, 0.01, 3) {
            assert!(world.contains_rect(&q));
            assert_eq!(q.width(), 10.0);
        }
    }

    #[test]
    fn fingerprint_is_order_sensitive() {
        let a = LineSeg::from_coords(0.0, 0.0, 1.0, 1.0);
        let b = LineSeg::from_coords(2.0, 0.0, 1.0, 1.0);
        let (mut f1, mut f2) = (Fingerprint::default(), Fingerprint::default());
        f1.segs(&[a, b]);
        f2.segs(&[b, a]);
        assert_ne!(f1.value(), f2.value());
    }
}
