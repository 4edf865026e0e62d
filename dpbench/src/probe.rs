//! The layer probe: unit costs of the `scan-model` kernels and the
//! `dp-geom` predicates, measured the same way in every workload's traced
//! run, so a kernel change shows here before it shows in a build.
//!
//! Kernel vectors are 4 Mi `i64` lanes = 32 MiB each, four times the
//! reference box's summed L2 (2 × 4 MiB) but far inside its shared
//! 260 MiB L3; the GB/s figures are therefore "achieved at this size",
//! not DRAM bandwidth. Sorts use 1 Mi lanes (a 4 Mi argsort would cost a
//! third of the run's budget). `--quick` divides both by eight.

use crate::common::{sub_seed, Cfg};
use crate::metrics::{median, Kind, Report};
use crate::trace::{Tracer, HARNESS};
use dp_geom::{clip_segment_closed, segments_intersect, LineSeg, Rect};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scan_model::blocked::{block_elems, scan_blocked_into};
use scan_model::ops::Sum;
use scan_model::{Direction, FusedOp, Machine, ScanKind, Segments};
use std::hint::black_box;

const KERNEL_LANES: usize = 4 << 20;
const SORT_LANES: usize = 1 << 20;
const SEGMENT_LEN: usize = 1021;

/// Per-element kernel costs, for the modelled share of a build's time.
#[derive(Debug, Clone, Copy)]
pub struct KernelCosts {
    pub scan_ns: f64,
    pub map_ns: f64,
    pub permute_ns: f64,
}

/// Median seconds of `reps` timed calls of `f` (after one warm-up),
/// each recorded as a `scan-model` (or `layer`) span.
fn time_kernel(
    tr: &mut Tracer,
    layer: &'static str,
    name: &str,
    reps: usize,
    mut f: impl FnMut(),
) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps)
        .map(|_| tr.timed(layer, name, |_| f()).1.as_secs_f64())
        .collect();
    median(&samples)
}

/// What `scan_model::blocked::tuned_block_bytes` would pick with
/// `DP_BLOCK` unset: the same sweep (64 KiB–1 MiB, best of three blocked
/// sum scans over 64 Ki lanes) through the same public kernel. The
/// library's own calibration is private and cached once per process, and
/// this process runs with `DP_BLOCK` pinned.
fn autotune_block_bytes() -> usize {
    let n = 1usize << 16;
    let data: Vec<u64> = (0..n as u64).collect();
    let flags: Vec<bool> = (0..n).map(|i| i % 97 == 0).collect();
    let seg = Segments::from_flags(flags).expect("lane 0 heads a segment");
    let threads = rayon::current_num_threads();
    let mut out: Vec<u64> = Vec::with_capacity(n);
    let mut best = (u128::MAX, 0usize);
    for shift in 16..=20 {
        let bytes = 1usize << shift;
        let mut fastest = u128::MAX;
        for rep in 0..4 {
            let t0 = std::time::Instant::now();
            scan_blocked_into(
                &data,
                &seg,
                Sum,
                Direction::Up,
                ScanKind::Inclusive,
                block_elems::<u64>(bytes),
                threads,
                &mut out,
            );
            if rep > 0 {
                fastest = fastest.min(t0.elapsed().as_nanos());
            }
        }
        if fastest < best.0 {
            best = (fastest, bytes);
        }
    }
    best.1
}

pub fn run(cfg: &Cfg, tr: &mut Tracer, report: &mut Report) -> KernelCosts {
    let n = if cfg.quick {
        KERNEL_LANES / 8
    } else {
        KERNEL_LANES
    };
    let n_sort = if cfg.quick {
        SORT_LANES / 8
    } else {
        SORT_LANES
    };
    let mut rng = StdRng::seed_from_u64(sub_seed(cfg.seed, 900));
    let par = Machine::parallel();
    let seq = Machine::sequential();
    let ((costs, values), _) = tr.timed(HARNESS, "probe", |tr| {
        let data: Vec<i64> = (0..n).map(|_| rng.gen_range(-1000i64..1000)).collect();
        let seg = Segments::from_flags((0..n).map(|i| i % SEGMENT_LEN == 0).collect())
            .expect("lane 0 heads a segment");
        let mut out: Vec<i64> = Vec::with_capacity(n);
        let mut v: Vec<(&'static str, &'static str, f64)> = Vec::new();
        let per_elem = |secs: f64, elems: usize| secs * 1e9 / elems as f64;
        // Bytes read plus bytes written, over the time: the roofline row.
        let gbps = |secs: f64, elems: usize| (2 * elems * 8) as f64 / secs / 1e9;

        out.resize(n, 0);
        let copy_s = time_kernel(tr, "scan-model", "copy_from_slice", 5, || {
            out.copy_from_slice(black_box(&data));
            black_box(&mut out);
        });
        v.push(("scan-model.copy_gbps", "GB/s", gbps(copy_s, n)));

        let scan_s = time_kernel(tr, "scan-model", "scan", 5, || {
            par.scan_into(
                &data,
                &seg,
                Sum,
                Direction::Up,
                ScanKind::Inclusive,
                &mut out,
            );
            black_box(&mut out);
        });
        let scan_seq_s = time_kernel(tr, "scan-model", "scan(sequential)", 3, || {
            seq.scan_into(
                &data,
                &seg,
                Sum,
                Direction::Up,
                ScanKind::Inclusive,
                &mut out,
            );
            black_box(&mut out);
        });
        v.push((
            "scan-model.scan_ns_per_elem",
            "ns/elem",
            per_elem(scan_s, n),
        ));
        v.push(("scan-model.scan_gbps", "GB/s", gbps(scan_s, n)));
        v.push(("scan-model.scan_par_over_seq", "ratio", scan_seq_s / scan_s));

        let mut outs: Vec<Vec<i64>> = (0..4).map(|_| Vec::with_capacity(n)).collect();
        let lanes4_s = time_kernel(tr, "scan-model", "scan_lanes(4)", 3, || {
            let lanes: [(&[i64], FusedOp); 4] = [
                (&data, FusedOp::Sum),
                (&data, FusedOp::Min),
                (&data, FusedOp::Max),
                (&data, FusedOp::Sum),
            ];
            par.scan_lanes_into(&lanes, &seg, Direction::Up, ScanKind::Inclusive, &mut outs);
            black_box(&mut outs);
        });
        drop(outs);
        v.push((
            "scan-model.scan_lanes4_ns_per_elem",
            "ns/elem",
            per_elem(lanes4_s, n),
        ));

        let map_s = time_kernel(tr, "scan-model", "map", 5, || {
            par.map_into(&data, |x| x.wrapping_mul(3) + 1, &mut out);
            black_box(&mut out);
        });
        v.push(("scan-model.map_ns_per_elem", "ns/elem", per_elem(map_s, n)));

        // A seeded uniform random permutation: the cache-hostile end of
        // what the builds issue (their unshuffles are two-run merges,
        // measured separately below).
        let mut index: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            index.swap(i, rng.gen_range(0..i + 1));
        }
        let permute_s = time_kernel(tr, "scan-model", "permute", 3, || {
            par.permute_into(&data, &index, &mut out);
            black_box(&mut out);
        });
        drop(index);
        v.push((
            "scan-model.permute_ns_per_elem",
            "ns/elem",
            per_elem(permute_s, n),
        ));
        v.push(("scan-model.permute_gbps", "GB/s", gbps(permute_s, n)));

        let class: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
        let unshuffle_s = time_kernel(tr, "scan-model", "unshuffle", 3, || {
            let layout = par.unshuffle_layout(&seg, &class);
            par.apply_unshuffle_into(&data, &layout, &mut out);
            black_box(&mut out);
        });
        drop(class);
        v.push((
            "scan-model.unshuffle_ns_per_elem",
            "ns/elem",
            per_elem(unshuffle_s, n),
        ));

        // Arities 0..=3, mean 1.5: deletion, identity and fan-out mixed,
        // as in the batch descent and the frontier join.
        let counts: Vec<u32> = (0..n).map(|_| rng.gen_range(0u32..4)).collect();
        let mut expanded: Vec<i64> = Vec::new();
        let flat_map_s = time_kernel(tr, "scan-model", "flat_map", 3, || {
            par.flat_map_into(&seg, &data, &counts, |x, r| x + i64::from(r), &mut expanded);
            black_box(&mut expanded);
        });
        drop((counts, expanded));
        v.push((
            "scan-model.flat_map_ns_per_elem",
            "ns/elem",
            per_elem(flat_map_s, n),
        ));

        let keys = &data[..n_sort];
        let one = Segments::single(n_sort);
        let sort_s = time_kernel(tr, "scan-model", "segmented_sort_perm", 2, || {
            black_box(par.segmented_sort_perm(&one, keys, |a, b| a.cmp(b)));
        });
        // The plain alternative: an argsort of the same keys with
        // `sort_unstable_by`, ties broken by lane like the machine's.
        let vec_sort_s = time_kernel(tr, HARNESS, "vec.sort_unstable_by", 2, || {
            let mut order: Vec<usize> = (0..n_sort).collect();
            order.sort_unstable_by(|&i, &j| keys[i].cmp(&keys[j]).then(i.cmp(&j)));
            black_box(order);
        });
        v.push((
            "scan-model.sort_ns_per_elem",
            "ns/elem",
            per_elem(sort_s, n_sort),
        ));
        v.push((
            "scan-model.vec_sort_ns_per_elem",
            "ns/elem",
            per_elem(vec_sort_s, n_sort),
        ));

        v.push(("scan-model.block_bytes", "bytes", par.block_bytes() as f64));
        let (auto, _) = tr.timed("scan-model", "autotune_block_bytes", |_| {
            autotune_block_bytes()
        });
        v.push(("scan-model.block_bytes_auto", "bytes", auto as f64));

        // Predicates: segments of the workloads' shape (short, on the
        // integer grid) against 1 %-side windows and against each other.
        let m = if cfg.quick { 1 << 17 } else { 1 << 20 };
        let world = 4096u32;
        let pt = |rng: &mut StdRng| f64::from(rng.gen_range(0..world));
        let segs: Vec<LineSeg> = (0..m)
            .map(|_| {
                let (x, y) = (pt(&mut rng), pt(&mut rng));
                let (dx, dy) = (rng.gen_range(-32i32..=32), rng.gen_range(1i32..=32));
                LineSeg::from_coords(x, y, x + f64::from(dx), y + f64::from(dy))
            })
            .collect();
        let rects: Vec<Rect> = segs
            .iter()
            .map(|s| {
                let (x, y) = (s.a.x - 20.0, s.a.y - 20.0);
                Rect::from_coords(x, y, x + 41.0, y + 41.0)
            })
            .collect();
        let clip_s = time_kernel(tr, "dp-geom", "clip_segment_closed", 3, || {
            // Even lanes meet the window around their own endpoint (a
            // hit), odd lanes one half a vector away (a trivial miss).
            let hits = (0..m)
                .filter(|&i| {
                    let r = &rects[(i + (i % 2) * (m / 2)) % m];
                    clip_segment_closed(&segs[i], r).is_some()
                })
                .count();
            black_box(hits);
        });
        let intersect_s = time_kernel(tr, "dp-geom", "segments_intersect", 3, || {
            let hits = segs
                .windows(2)
                .filter(|w| segments_intersect(&w[0], &w[1]))
                .count();
            black_box(hits);
        });
        v.push(("dp-geom.clip_ns", "ns/call", per_elem(clip_s, m)));
        v.push((
            "dp-geom.intersect_ns",
            "ns/call",
            per_elem(intersect_s, m - 1),
        ));

        (
            KernelCosts {
                scan_ns: per_elem(scan_s, n),
                map_ns: per_elem(map_s, n),
                permute_ns: per_elem(permute_s, n),
            },
            v,
        )
    });
    for (name, unit, value) in values {
        report.put(name, unit, Kind::Layer, value);
    }
    costs
}
