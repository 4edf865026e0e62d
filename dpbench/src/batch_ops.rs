//! `batch_ops`: the same `scan-model` layer used differently. Over bucket
//! PMR trees built in set-up, each rep runs a batch window query, a
//! frontier join, a 1 % batch update and skyline + dominance aggregation:
//! flat-map / fan-out / delete-compaction and sort instead of the split
//! loop, so a kernel change that helps builds and costs compaction shows
//! here.

use crate::common::{
    brute_window, check_windows, grid_point, put_op_counters, reps_for, run_reps, run_traced_reps,
    sub_seed, windows, Cfg, Fingerprint,
};
use crate::metrics::{median, Kind, Report};
use crate::probe::KernelCosts;
use crate::trace::{SpanId, Tracer, HARNESS};
use dp_geom::{LineSeg, Rect};
use dp_spatial::batch::{batch_window_candidates, batch_window_query};
use dp_spatial::bucket_pmr::build_bucket_pmr;
use dp_spatial::dominance::{dominance_agg, dominance_weight, skyline, DomAgg, DomPoint};
use dp_spatial::join::{brute_force_join, frontier_join, JoinOutcome};
use dp_spatial::quadtree::DpQuadtree;
use dp_spatial::update::{batch_update_bucket_pmr, UpdateBatch};
use dp_workloads::uniform_segments;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scan_model::{Machine, StatsSnapshot};
use seq_spatial::dominance::{dominance_agg_brute, skyline_brute};
use std::hint::black_box;

const SEGS: usize = 100_000;
const JOIN_SIDE: usize = 50_000;
const WORLD: u32 = 4096;
const MAX_LEN: u32 = 64;
const CAPACITY: usize = 8;
const DEPTH: usize = 12;
const WINDOWS: usize = 20_000;
/// Inserts and deletes per update batch, each (together 1 % of `SEGS`).
const EDITS_EACH: usize = 500;
const DOM_QUERIES: usize = 256;
const ORACLE_WINDOWS: usize = 200;
const ORACLE_JOIN_SIDE: usize = 5_000;
const ORACLE_SKYLINE_POINTS: usize = 2_000;
const ORACLE_DOM_QUERIES: usize = 32;
pub const OPS: [&str; 4] = ["window", "join", "update", "dominance"];
/// One rep (the four operations) takes ≈ 0.55 s on the reference box
/// and this workload's set-up and oracles are the dearest of the five;
/// sizes the run from `--seconds`, never reported.
const REPS_PER_SECOND: f64 = 1.6;

pub struct Inputs {
    world: Rect,
    segs: Vec<LineSeg>,
    tree: DpQuadtree,
    a: Vec<LineSeg>,
    b: Vec<LineSeg>,
    tree_a: DpQuadtree,
    tree_b: DpQuadtree,
    queries: Vec<Rect>,
    batch: UpdateBatch,
    points: Vec<DomPoint>,
    dom_queries: Vec<(f64, f64)>,
    fingerprint: Fingerprint,
}

/// What the four operations of one rep produced and how long each took.
struct RepOut {
    secs: [f64; 4],
    ops: [StatsSnapshot; 4],
    windows: Vec<Vec<u32>>,
    join: JoinOutcome,
    updated: (DpQuadtree, Vec<LineSeg>),
    skyline: Vec<u32>,
    aggs: Vec<DomAgg>,
    skyline_secs: f64,
}

/// Times `f` as a `dp-spatial` span, attaches the rounds the machine's
/// driver recorded during it, and reads the counters at the boundary.
fn op<T>(
    tr: &mut Tracer,
    machine: &Machine,
    name: &str,
    f: impl FnOnce(&mut Tracer) -> T,
) -> (T, f64, StatsSnapshot, SpanId) {
    let before = machine.stats();
    let (out, dur, span) = tr.timed_id("dp-spatial", name, f);
    let walls: Vec<u64> = machine
        .take_round_traces()
        .iter()
        .map(|r| r.wall_nanos)
        .collect();
    tr.add_rounds(span, "scan-model", &walls);
    (out, dur.as_secs_f64(), machine.stats().since(&before), span)
}

fn rep(inp: &Inputs, machine: &Machine, tr: &mut Tracer) -> RepOut {
    let (out, _) = tr.timed(HARNESS, "rep", |tr| {
        let (windows, w_s, w_ops, _) = op(tr, machine, "batch_window_query", |_| {
            batch_window_query(machine, &inp.tree, &inp.queries, &inp.segs)
        });
        let (join, j_s, j_ops, _) = op(tr, machine, "frontier_join", |_| {
            frontier_join(machine, &inp.tree_a, &inp.a, &inp.tree_b, &inp.b)
                .expect("both join layers were generated in one world")
        });
        // The update edits a live tree in place; cloning the prebuilt
        // tree and its collection is the harness's cost, not the
        // update's, so it stays outside the timed span.
        let (mut tree, mut segs) = (inp.tree.clone(), inp.segs.clone());
        let (_, u_s, u_ops, _) = op(tr, machine, "batch_update_bucket_pmr", |_| {
            batch_update_bucket_pmr(machine, &mut tree, &mut segs, &inp.batch, CAPACITY, DEPTH)
        });
        let mut skyline_secs = 0.0;
        let ((sky, aggs), d_s, d_ops, _) = op(tr, machine, "skyline+dominance_agg", |tr| {
            let (sky, d) = tr.timed("dp-spatial", "skyline", |_| skyline(machine, &inp.points));
            skyline_secs = d.as_secs_f64();
            let (aggs, _) = tr.timed("dp-spatial", "dominance_agg", |_| {
                dominance_agg(machine, &inp.points, &inp.dom_queries)
            });
            (sky, aggs)
        });
        RepOut {
            secs: [w_s, j_s, u_s, d_s],
            ops: [w_ops, j_ops, u_ops, d_ops],
            windows,
            join,
            updated: (tree, segs),
            skyline: sky,
            aggs,
            skyline_secs,
        }
    });
    out
}

/// Units of work per operation: windows, input segments of both join
/// sides, edits, points.
fn units(inp: &Inputs) -> [usize; 4] {
    [
        inp.queries.len(),
        inp.a.len() + inp.b.len(),
        inp.batch.inserts.len() + inp.batch.deletes.len(),
        inp.points.len(),
    ]
}

/// The plain alternative to the scan-model skyline: sort by `x`
/// descending (ties `y` descending) and sweep, keeping each point whose
/// `y` beats the best `y` of every strictly greater `x` and ties the best
/// of its own `x`. Returns ids ascending.
fn sweep_skyline(points: &[DomPoint]) -> Vec<u32> {
    let mut order: Vec<&DomPoint> = points.iter().collect();
    order.sort_unstable_by(|p, q| q.x.total_cmp(&p.x).then(q.y.total_cmp(&p.y)));
    let mut out = Vec::new();
    let mut best_above = f64::NEG_INFINITY;
    let mut i = 0;
    while i < order.len() {
        let x = order[i].x;
        let group_best = order[i].y;
        let mut j = i;
        while j < order.len() && order[j].x == x {
            // Within one x, only the top y survives (a higher twin
            // dominates), and only if no greater x reaches it.
            if order[j].y == group_best && group_best > best_above {
                out.push(order[j].id);
            }
            j += 1;
        }
        best_above = best_above.max(group_best);
        i = j;
    }
    out.sort_unstable();
    out
}

/// Results equal brute force / the `seq-spatial` oracles on samples.
fn oracle(report: &mut Report, inp: &Inputs, last: &RepOut, tr: &mut Tracer) {
    tr.timed("dp-geom", "oracle(brute force)", |_| {
        let step = (inp.queries.len() / ORACLE_WINDOWS).max(1);
        check_windows(
            report,
            "batch window",
            &inp.segs,
            &inp.queries,
            step,
            |i, _| last.windows[i].clone(),
        );

        // The join on a slice both sides of which brute force can afford.
        let side = ORACLE_JOIN_SIDE.min(inp.a.len());
        let (sa, sb) = (&inp.a[..side], &inp.b[..side]);
        let m = Machine::parallel();
        let ta = build_bucket_pmr(&m, inp.world, sa, CAPACITY, DEPTH);
        let tb = build_bucket_pmr(&m, inp.world, sb, CAPACITY, DEPTH);
        let got = frontier_join(&m, &ta, sa, &tb, sb).map(|o| o.pairs);
        let want = brute_force_join(sa, sb);
        report.check(got.as_ref() == Ok(&want), || {
            format!(
                "frontier_join on a {side}x{side} slice: {:?} pairs, brute force {}",
                got.as_ref().map(Vec::len),
                want.len()
            )
        });

        // The updated tree indexes exactly the post-batch collection.
        let (tree, segs) = &last.updated;
        let want_len = inp.segs.len() - inp.batch.deletes.len() + inp.batch.inserts.len();
        report.check(segs.len() == want_len, || {
            format!("update left {} segments, expected {want_len}", segs.len())
        });
        check_windows(report, "updated tree", segs, &inp.queries, step, |_, q| {
            tree.window_query(q, segs)
        });

        // Skyline: the full result against sort-and-sweep, and the
        // scan-model pipeline against the O(n^2) oracle on a prefix.
        let mut sky = last.skyline.clone();
        sky.sort_unstable();
        let want = sweep_skyline(&inp.points);
        report.check(sky == want, || {
            format!(
                "skyline has {} points, sort-and-sweep {}",
                sky.len(),
                want.len()
            )
        });
        let prefix = &inp.points[..ORACLE_SKYLINE_POINTS.min(inp.points.len())];
        let mut got = skyline(&m, prefix);
        got.sort_unstable();
        let ids: Vec<u32> = prefix.iter().map(|p| p.id).collect();
        let xs: Vec<f64> = prefix.iter().map(|p| p.x).collect();
        let ys: Vec<f64> = prefix.iter().map(|p| p.y).collect();
        report.check(got == skyline_brute(&ids, &xs, &ys), || {
            "skyline of a 2000-point prefix disagrees with skyline_brute".to_string()
        });

        let xs: Vec<f64> = inp.points.iter().map(|p| p.x).collect();
        let ys: Vec<f64> = inp.points.iter().map(|p| p.y).collect();
        let ws: Vec<u64> = inp.points.iter().map(|p| p.w).collect();
        let q_step = (inp.dom_queries.len() / ORACLE_DOM_QUERIES).max(1);
        for (i, &(qx, qy)) in inp.dom_queries.iter().enumerate().step_by(q_step) {
            let got = last.aggs[i];
            let want = dominance_agg_brute(&xs, &ys, &ws, qx, qy);
            report.check((got.count, got.sum, got.max) == want, || {
                format!("dominance_agg query {i}: {got:?}, brute force {want:?}")
            });
        }
    });
}

pub struct BatchOps;

impl crate::Workload for BatchOps {
    type Inputs = Inputs;

    fn setup(&self, cfg: &Cfg, tr: &mut Tracer) -> Inputs {
        let (inputs, _) = tr.timed(HARNESS, "setup", |tr| {
            let gen = |tr: &mut Tracer, n: usize, stream: u64| {
                tr.timed("dp-workloads", "uniform_segments", |_| {
                    uniform_segments(n, WORLD, MAX_LEN, sub_seed(cfg.seed, stream))
                })
                .0
            };
            let n = cfg.scaled(SEGS, 1_000);
            let data = gen(tr, n, 1);
            let a = gen(tr, cfg.scaled(JOIN_SIDE, 500), 2).segs;
            let b = gen(tr, cfg.scaled(JOIN_SIDE, 500), 3).segs;
            let edits = cfg.scaled(EDITS_EACH, 5);
            let inserts = gen(tr, edits, 4).segs;
            let world = data.world;
            let machine = Machine::parallel();
            let build = |tr: &mut Tracer, segs: &[LineSeg]| {
                tr.timed("dp-spatial", "build_bucket_pmr(set-up)", |_| {
                    build_bucket_pmr(&machine, world, segs, CAPACITY, DEPTH)
                })
                .0
            };
            let tree = build(tr, &data.segs);
            let tree_a = build(tr, &a);
            let tree_b = build(tr, &b);

            let queries = windows(
                &world,
                cfg.scaled(WINDOWS, 200),
                0.01,
                sub_seed(cfg.seed, 5),
            );
            let mut rng = StdRng::seed_from_u64(sub_seed(cfg.seed, 6));
            // Distinct pre-batch ids, spread over the collection.
            let mut deletes: Vec<u32> = Vec::with_capacity(edits);
            while deletes.len() < edits {
                let id = rng.gen_range(0..n as u32);
                if !deletes.contains(&id) {
                    deletes.push(id);
                }
            }
            let points: Vec<DomPoint> = data
                .segs
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let m = s.midpoint();
                    DomPoint {
                        id: i as u32,
                        x: m.x,
                        y: m.y,
                        w: dominance_weight(s),
                    }
                })
                .collect();
            let dom_queries: Vec<(f64, f64)> = (0..DOM_QUERIES)
                .map(|_| {
                    let p = grid_point(&mut rng, &world);
                    (p.x, p.y)
                })
                .collect();

            let mut fingerprint = Fingerprint::default();
            fingerprint.segs(&data.segs);
            fingerprint.segs(&a);
            fingerprint.segs(&b);
            fingerprint.segs(&inserts);
            fingerprint.rects(&queries);
            for &d in &deletes {
                fingerprint.word(u64::from(d));
            }
            for &(x, y) in &dom_queries {
                fingerprint.f(x);
                fingerprint.f(y);
            }
            Inputs {
                world,
                segs: data.segs,
                tree,
                a,
                b,
                tree_a,
                tree_b,
                queries,
                batch: UpdateBatch { inserts, deletes },
                points,
                dom_queries,
                fingerprint,
            }
        });
        inputs
    }

    fn run_untraced(&self, cfg: &Cfg, inp: &Inputs, report: &mut Report) {
        let machine = Machine::parallel();
        let mut tr = Tracer::new(false);
        let mut secs: [Vec<f64>; 4] = Default::default();
        let mut last: Option<RepOut> = None;
        let want = reps_for(cfg, 1.0, REPS_PER_SECOND);
        let reps = run_reps(want, 1.5 * cfg.seconds, 1, &mut tr, |idx, tr| {
            // Free the previous rep's results first: holding two would add
            // their size to the peak memory the run reports.
            drop(last.take());
            let out = rep(inp, &machine, tr);
            if idx.is_some() {
                for (dst, s) in secs.iter_mut().zip(out.secs) {
                    dst.push(s);
                }
            }
            last = Some(out);
        });
        report.count(4 * reps as u64, 0);
        let n = units(inp);
        let native = [
            "window_queries_per_s",
            "join_segs_per_s",
            "update_edits_per_s",
            "dominance_points_per_s",
        ];
        for i in 0..4 {
            let us: Vec<f64> = secs[i].iter().map(|s| s * 1e6 / n[i] as f64).collect();
            report.put_time(&format!("op{}_us", i + 1), "us", Kind::E2e, &us);
            let rate: Vec<f64> = secs[i].iter().map(|s| n[i] as f64 / s).collect();
            report.put_rate(native[i], "1/s", Kind::E2e, &rate);
        }
        report.put("reps", "count", Kind::Layer, reps as f64);
        oracle(
            report,
            inp,
            last.as_ref().expect("at least one rep ran"),
            &mut tr,
        );
    }

    fn run_traced(
        &self,
        cfg: &Cfg,
        inp: &Inputs,
        _costs: &KernelCosts,
        tr: &mut Tracer,
        report: &mut Report,
    ) {
        let machine = Machine::parallel();
        let mut traced: Vec<([f64; 4], f64)> = Vec::new();
        let mut last: Option<RepOut> = None;
        let want = reps_for(cfg, 0.5, REPS_PER_SECOND);
        run_traced_reps(want, cfg.seconds, &machine, tr, report, |tr, keep| {
            drop(last.take());
            let out = rep(inp, &machine, tr);
            if keep {
                traced.push((out.secs, out.skyline_secs));
            }
            last = Some(out);
        });
        let last = last.expect("at least one rep ran");
        put_op_counters(report, &OPS, &last.ops);

        let op_secs = |i: usize| median(&traced.iter().map(|t| t.0[i]).collect::<Vec<_>>());
        let skyline_share: Vec<f64> = traced.iter().map(|t| t.1 / t.0[3]).collect();
        report.put_samples(
            "dp-spatial.dominance.skyline_share",
            "ratio",
            Kind::Layer,
            &skyline_share,
        );

        // Window queries: waste ratio, and the batch against the plain loop
        // of per-query pointer descents over the same tree.
        let cands: usize = batch_window_candidates(&machine, &inp.tree, &inp.queries)
            .iter()
            .map(Vec::len)
            .sum();
        machine.take_round_traces();
        let hits: usize = last.windows.iter().map(Vec::len).sum();
        report.put(
            "dp-spatial.window.candidates",
            "count",
            Kind::Exact,
            cands as f64,
        );
        report.put("dp-spatial.window.hits", "count", Kind::Exact, hits as f64);
        report.put(
            "dp-spatial.window.candidates_per_hit",
            "ratio",
            Kind::Exact,
            cands as f64 / hits.max(1) as f64,
        );
        let extra_reps = if cfg.quick { 1 } else { 3 };
        let (descent_s, rebuild_s, sweep_s, brute_s) = tr
            .timed(HARNESS, "baselines", |tr| {
                let mut descent = Vec::new();
                let mut rebuild = Vec::new();
                let mut sweep = Vec::new();
                for _ in 0..extra_reps {
                    let (_, d) = tr.timed("dp-spatial", "window_query(loop)", |_| {
                        let hits: usize = inp
                            .queries
                            .iter()
                            .map(|q| inp.tree.window_query(q, &inp.segs).len())
                            .sum();
                        black_box(hits);
                    });
                    descent.push(d.as_secs_f64());
                    let (_, d) = tr.timed("dp-spatial", "build_bucket_pmr(rebuild)", |_| {
                        black_box(build_bucket_pmr(
                            &machine,
                            inp.world,
                            &last.updated.1,
                            CAPACITY,
                            DEPTH,
                        ));
                    });
                    machine.take_round_traces();
                    rebuild.push(d.as_secs_f64());
                    let (_, d) = tr.timed(HARNESS, "sweep_skyline", |_| {
                        black_box(sweep_skyline(&inp.points));
                    });
                    sweep.push(d.as_secs_f64());
                }
                let sample = &inp.queries[..ORACLE_WINDOWS.min(inp.queries.len())];
                let (_, brute) = tr.timed("dp-geom", "brute_window", |_| {
                    let hits: usize = sample
                        .iter()
                        .map(|q| brute_window(&inp.segs, q).len())
                        .sum();
                    black_box(hits);
                });
                (
                    median(&descent),
                    median(&rebuild),
                    median(&sweep),
                    brute.as_secs_f64() / sample.len() as f64,
                )
            })
            .0;
        report.put(
            "dp-spatial.window.batch_over_descent",
            "ratio",
            Kind::Layer,
            descent_s / op_secs(0),
        );
        report.put(
            "seq-spatial.brute_window_queries_per_s",
            "1/s",
            Kind::Layer,
            1.0 / brute_s,
        );
        report.put(
            "dp-spatial.update.over_rebuild",
            "ratio",
            Kind::Layer,
            rebuild_s / op_secs(2),
        );
        report.put(
            "seq-spatial.sweep_skyline_points_per_s",
            "1/s",
            Kind::Layer,
            inp.points.len() as f64 / sweep_s,
        );

        let j = &last.join;
        report.put(
            "dp-spatial.join.tested",
            "count",
            Kind::Exact,
            j.pairs_tested as f64,
        );
        report.put(
            "dp-spatial.join.pairs",
            "count",
            Kind::Exact,
            j.pairs.len() as f64,
        );
        report.put(
            "dp-spatial.join.tested_per_pair",
            "ratio",
            Kind::Exact,
            j.pairs_tested as f64 / j.pairs.len().max(1) as f64,
        );
        report.put(
            "dp-spatial.join.frontier_peak",
            "count",
            Kind::Exact,
            j.frontier_peak as f64,
        );
        oracle(report, inp, &last, tr);
    }

    fn fingerprint(&self, inputs: &Inputs) -> Fingerprint {
        inputs.fingerprint
    }
}
