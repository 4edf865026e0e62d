//! `bulk_build`: the paper's headline. Each rep builds a PM₁ quadtree
//! over a planar polygonal map, then a bucket PMR quadtree and an R-tree
//! over uniform segments, on one long-lived parallel machine, then asks
//! the three fresh trees a batch of window queries. The split-round loop
//! (scan / elementwise / permute / unshuffle, plus two sorts per R-tree
//! round) does all the work and `dp-service` none.

use crate::common::{
    check_windows, put_op_counters, reps_for, run_reps, run_traced_reps, sub_seed, windows, Cfg,
    Fingerprint,
};
use crate::metrics::{median, Kind, Report};
use crate::probe::KernelCosts;
use crate::trace::{Tracer, HARNESS};
use dp_geom::Rect;
use dp_spatial::bucket_pmr::build_bucket_pmr;
use dp_spatial::pm1::build_pm1;
use dp_spatial::quadtree::DpQuadtree;
use dp_spatial::rsplit::RtreeSplitAlgorithm;
use dp_spatial::rtree::{build_rtree, DpRTree};
use dp_workloads::{polygon_rings, uniform_segments, Dataset};
use scan_model::{Machine, RoundTrace, StatsSnapshot};
use seq_spatial::bucket_pmr::BucketPmrTree;
use seq_spatial::pm1::Pm1Tree;
use seq_spatial::rtree::{RTree, SplitAlgorithm};
use std::hint::black_box;

const PLANAR_EDGES: usize = 101_000;
const UNIFORM_SEGS: usize = 100_000;
const UNIFORM_WORLD: u32 = 4096;
const UNIFORM_MAX_LEN: u32 = 64;
const PM1_DEPTH: usize = 16;
const BPMR_CAPACITY: usize = 8;
const BPMR_DEPTH: usize = 12;
const RTREE_MIN: usize = 4;
const RTREE_MAX: usize = 8;
/// Window queries per tree per rep (1 % of the world's side).
const QUERIES_PER_TREE: usize = 2_000;
const ORACLE_WINDOWS: usize = 200;
pub const BUILDS: [&str; 3] = ["pm1", "bpmr", "rtree"];
/// One rep (three builds and the queries) takes ≈ 1.1 s on the reference
/// box; sizes the run from `--seconds`, never reported.
const REPS_PER_SECOND: f64 = 0.9;

pub struct Inputs {
    planar: Dataset,
    uniform: Dataset,
    q_planar: Vec<Rect>,
    q_uniform: Vec<Rect>,
    pub fingerprint: Fingerprint,
}

/// What one build of one rep measured.
struct BuildSample {
    secs: f64,
    ops: StatsSnapshot,
    rounds_secs: f64,
    /// Σ over rounds of active elements × per-class op count, by class.
    modelled: [f64; 3],
}

fn sample(secs: f64, ops: StatsSnapshot, rounds: &[RoundTrace]) -> BuildSample {
    let mut modelled = [0.0; 3];
    for r in rounds {
        let active = r.active_elements as f64;
        modelled[0] += active * r.scan_passes as f64;
        modelled[1] += active * r.elementwise as f64;
        modelled[2] += active * r.permutes as f64;
    }
    BuildSample {
        secs,
        ops,
        rounds_secs: rounds.iter().map(|r| r.wall_nanos).sum::<u64>() as f64 / 1e9,
        modelled,
    }
}

struct Trees {
    pm1: DpQuadtree,
    bpmr: DpQuadtree,
    rtree: DpRTree,
}

fn pm1(m: &Machine, inp: &Inputs) -> DpQuadtree {
    build_pm1(m, inp.planar.world, &inp.planar.segs, PM1_DEPTH)
}

fn bpmr(m: &Machine, inp: &Inputs) -> DpQuadtree {
    let (world, segs) = (inp.uniform.world, &inp.uniform.segs);
    build_bucket_pmr(m, world, segs, BPMR_CAPACITY, BPMR_DEPTH)
}

fn rtree(m: &Machine, inp: &Inputs) -> DpRTree {
    let algo = RtreeSplitAlgorithm::Sweep;
    build_rtree(m, &inp.uniform.segs, RTREE_MIN, RTREE_MAX, algo)
}

/// Times one build as a `dp-spatial` span with its rounds as children
/// (synthesised from the machine's `RoundTrace` rows) and reads the
/// machine's counters at the same boundary.
fn timed_build<T>(
    tr: &mut Tracer,
    machine: &Machine,
    name: &str,
    f: impl FnOnce() -> T,
) -> (T, BuildSample) {
    let before = machine.stats();
    let (tree, dur, span) = tr.timed_id("dp-spatial", name, |_| f());
    let rounds = machine.take_round_traces();
    let walls: Vec<u64> = rounds.iter().map(|r| r.wall_nanos).collect();
    tr.add_rounds(span, "scan-model", &walls);
    let ops = machine.stats().since(&before);
    (tree, sample(dur.as_secs_f64(), ops, &rounds))
}

/// One rep: the three builds, then the window queries on their results.
fn rep(inp: &Inputs, machine: &Machine, tr: &mut Tracer) -> (Trees, [BuildSample; 3], f64) {
    let (out, _) = tr.timed(HARNESS, "rep", |tr| {
        let (pm1, s_pm1) = timed_build(tr, machine, "build_pm1", || pm1(machine, inp));
        let (bpmr, s_bpmr) = timed_build(tr, machine, "build_bucket_pmr", || bpmr(machine, inp));
        let (rtree, s_rtree) = timed_build(tr, machine, "build_rtree", || rtree(machine, inp));
        let trees = Trees { pm1, bpmr, rtree };
        let (_, query) = tr.timed("dp-spatial", "window_query(built trees)", |_| {
            let mut hits = 0usize;
            for q in &inp.q_planar {
                hits += trees.pm1.window_query(q, &inp.planar.segs).len();
            }
            for q in &inp.q_uniform {
                hits += trees.bpmr.window_query(q, &inp.uniform.segs).len();
                hits += trees.rtree.window_query(q, &inp.uniform.segs).len();
            }
            black_box(hits);
        });
        (trees, [s_pm1, s_bpmr, s_rtree], query.as_secs_f64())
    });
    out
}

/// Built trees answer sampled windows exactly as brute force does.
fn oracle(report: &mut Report, inp: &Inputs, trees: &Trees, tr: &mut Tracer) {
    tr.timed("dp-geom", "oracle(brute windows)", |_| {
        let step = (QUERIES_PER_TREE / ORACLE_WINDOWS).max(1);
        check_windows(
            report,
            "pm1",
            &inp.planar.segs,
            &inp.q_planar,
            step,
            |_, q| trees.pm1.window_query(q, &inp.planar.segs),
        );
        check_windows(
            report,
            "bpmr",
            &inp.uniform.segs,
            &inp.q_uniform,
            step,
            |_, q| trees.bpmr.window_query(q, &inp.uniform.segs),
        );
        check_windows(
            report,
            "rtree",
            &inp.uniform.segs,
            &inp.q_uniform,
            step,
            |_, q| trees.rtree.window_query(q, &inp.uniform.segs),
        );
    });
}

fn sizes(inp: &Inputs) -> [usize; 3] {
    [inp.planar.len(), inp.uniform.len(), inp.uniform.len()]
}

/// Candidates fetched versus exact hits over the rep's window queries:
/// the waste ratio of the trees this workload builds.
fn window_waste(inp: &Inputs, trees: &Trees) -> (usize, usize) {
    let (mut cands, mut hits) = (0, 0);
    for q in &inp.q_planar {
        cands += trees.pm1.window_candidates(q).len();
        hits += trees.pm1.window_query(q, &inp.planar.segs).len();
    }
    for q in &inp.q_uniform {
        cands += trees.bpmr.window_candidates(q).len();
        hits += trees.bpmr.window_query(q, &inp.uniform.segs).len();
        cands += trees.rtree.window_candidates(q).len();
        hits += trees.rtree.window_query(q, &inp.uniform.segs).len();
    }
    (cands, hits)
}

pub struct BulkBuild;

impl crate::Workload for BulkBuild {
    type Inputs = Inputs;

    /// Generates the two maps and the query windows from the seed.
    fn setup(&self, cfg: &Cfg, tr: &mut Tracer) -> Inputs {
        let (inputs, _) = tr.timed(HARNESS, "setup", |tr| {
            let edges = cfg.scaled(PLANAR_EDGES, 400);
            // One four-edge ring per 32-wide cell, as in the repository's
            // PM₁ scaling experiments: constant density, world grows with n.
            let cells = ((edges as f64 / 4.0).sqrt().ceil() as u32).max(1);
            let size = (cells * 32).next_power_of_two();
            let (planar, _) = tr.timed("dp-workloads", "polygon_rings", |_| {
                polygon_rings(cells, size, sub_seed(cfg.seed, 1))
            });
            let (uniform, _) = tr.timed("dp-workloads", "uniform_segments", |_| {
                uniform_segments(
                    cfg.scaled(UNIFORM_SEGS, 400),
                    UNIFORM_WORLD,
                    UNIFORM_MAX_LEN,
                    sub_seed(cfg.seed, 2),
                )
            });
            let q_planar = windows(&planar.world, QUERIES_PER_TREE, 0.01, sub_seed(cfg.seed, 3));
            let q_uniform = windows(
                &uniform.world,
                QUERIES_PER_TREE,
                0.01,
                sub_seed(cfg.seed, 4),
            );
            let mut fingerprint = Fingerprint::default();
            fingerprint.segs(&planar.segs);
            fingerprint.segs(&uniform.segs);
            fingerprint.rects(&q_planar);
            fingerprint.rects(&q_uniform);
            Inputs {
                planar,
                uniform,
                q_planar,
                q_uniform,
                fingerprint,
            }
        });
        inputs
    }

    /// The untraced run: the end-to-end metrics. `inp` comes from the last of
    /// the timed set-ups.
    fn run_untraced(&self, cfg: &Cfg, inp: &Inputs, report: &mut Report) {
        let machine = Machine::parallel();
        let mut tr = Tracer::new(false);
        let mut per_build: [Vec<f64>; 3] = Default::default();
        let mut query: Vec<f64> = Vec::new();
        let mut last: Option<Trees> = None;
        let want = reps_for(cfg, 1.0, REPS_PER_SECOND);
        let reps = run_reps(want, 1.5 * cfg.seconds, 1, &mut tr, |idx, tr| {
            let (trees, samples, q) = rep(inp, &machine, tr);
            if idx.is_some() {
                for (dst, s) in per_build.iter_mut().zip(&samples) {
                    dst.push(s.secs);
                }
                query.push(q);
            }
            last = Some(trees);
        });
        report.count(4 * reps as u64, 0);
        let n = sizes(inp);
        for (i, name) in BUILDS.iter().enumerate() {
            let us: Vec<f64> = per_build[i].iter().map(|s| s * 1e6 / n[i] as f64).collect();
            report.put_time(&format!("op{}_us", i + 1), "us", Kind::E2e, &us);
            let rate: Vec<f64> = per_build[i].iter().map(|s| n[i] as f64 / s).collect();
            report.put_rate(&format!("{name}_segs_per_s"), "1/s", Kind::E2e, &rate);
        }
        let per_query: Vec<f64> = query
            .iter()
            .map(|s| s * 1e6 / (3 * QUERIES_PER_TREE) as f64)
            .collect();
        report.put_time("op4_us", "us", Kind::E2e, &per_query);
        report.put("reps", "count", Kind::Layer, reps as f64);
        oracle(
            report,
            inp,
            last.as_ref().expect("at least one rep ran"),
            &mut tr,
        );
    }

    /// The traced run: spans, per-build counters and shares, the sequential
    /// insertion baselines, and the tracing overhead from alternating traced
    /// and untraced reps.
    fn run_traced(
        &self,
        cfg: &Cfg,
        inp: &Inputs,
        costs: &KernelCosts,
        tr: &mut Tracer,
        report: &mut Report,
    ) {
        let machine = Machine::parallel();
        let n = sizes(inp);
        let mut traced: Vec<[BuildSample; 3]> = Vec::new();
        let mut last: Option<Trees> = None;
        // Half the budget: the baselines below take the other half.
        let want = reps_for(cfg, 0.5, REPS_PER_SECOND);
        run_traced_reps(want, cfg.seconds, &machine, tr, report, |tr, keep| {
            let (trees, samples, _) = rep(inp, &machine, tr);
            if keep {
                traced.push(samples);
            }
            last = Some(trees);
        });

        // Exact counts come from one rep (they repeat rep to rep and run
        // to run); timings are medians over the traced reps.
        let first_ops: Vec<StatsSnapshot> = traced[0].iter().map(|s| s.ops).collect();
        put_op_counters(report, &BUILDS, &first_ops);
        for (i, name) in BUILDS.iter().enumerate() {
            let rounds_share: Vec<f64> = traced
                .iter()
                .map(|t| t[i].rounds_secs / t[i].secs)
                .collect();
            report.put_samples(
                &format!("dp-spatial.{name}.rounds_share"),
                "ratio",
                Kind::Layer,
                &rounds_share,
            );
            let modelled: Vec<f64> = traced
                .iter()
                .map(|t| {
                    let m = &t[i].modelled;
                    (m[0] * costs.scan_ns + m[1] * costs.map_ns + m[2] * costs.permute_ns)
                        / (t[i].secs * 1e9)
                })
                .collect();
            report.put_samples(
                &format!("dp-spatial.{name}.modelled_prim_share"),
                "ratio",
                Kind::Layer,
                &modelled,
            );
        }
        let trees = last.as_ref().expect("at least one rep ran");
        let (cands, hits) = window_waste(inp, trees);
        report.put(
            "dp-spatial.window.candidates",
            "count",
            Kind::Exact,
            cands as f64,
        );
        report.put("dp-spatial.window.hits", "count", Kind::Exact, hits as f64);

        // Arena behaviour per build, each on a machine of its own so one
        // build's slabs do not serve the next.
        tr.timed(HARNESS, "arena(fresh machines)", |tr| {
            for name in BUILDS {
                let m = Machine::parallel();
                tr.timed(
                    "dp-spatial",
                    &format!("build_{name}(fresh machine)"),
                    |_| match name {
                        "pm1" => drop(black_box(pm1(&m, inp))),
                        "bpmr" => drop(black_box(bpmr(&m, inp))),
                        _ => drop(black_box(rtree(&m, inp))),
                    },
                );
                report.put(
                    &format!("scan-model.{name}.arena_peak_bytes"),
                    "bytes",
                    Kind::Exact,
                    m.arena_high_water_bytes() as f64,
                );
                if name == "bpmr" {
                    let (takes, hits) = m.arena_stats();
                    report.put(
                        "scan-model.bpmr.arena_hit_ratio",
                        "ratio",
                        Kind::Exact,
                        hits as f64 / takes.max(1) as f64,
                    );
                }
            }
        });

        // The plain single-threaded alternative: one-at-a-time insertion
        // into pointer trees, same inputs, same parameters.
        let seq_reps = if cfg.quick { 1 } else { 3 };
        let mut seq_secs: [Vec<f64>; 3] = Default::default();
        tr.timed(HARNESS, "baseline(seq-spatial)", |tr| {
            for _ in 0..seq_reps {
                let (_, d) = tr.timed("seq-spatial", "Pm1Tree::build", |_| {
                    black_box(Pm1Tree::build(
                        inp.planar.world,
                        &inp.planar.segs,
                        PM1_DEPTH,
                    ));
                });
                seq_secs[0].push(d.as_secs_f64());
                let (_, d) = tr.timed("seq-spatial", "BucketPmrTree::build", |_| {
                    black_box(BucketPmrTree::build(
                        inp.uniform.world,
                        &inp.uniform.segs,
                        BPMR_CAPACITY,
                        BPMR_DEPTH,
                    ));
                });
                seq_secs[1].push(d.as_secs_f64());
                let (_, d) = tr.timed("seq-spatial", "RTree::build(quadratic)", |_| {
                    black_box(RTree::build(
                        &inp.uniform.segs,
                        RTREE_MIN,
                        RTREE_MAX,
                        SplitAlgorithm::Quadratic,
                    ));
                });
                seq_secs[2].push(d.as_secs_f64());
            }
        });
        for (i, name) in BUILDS.iter().enumerate() {
            let seq_rate = n[i] as f64 / median(&seq_secs[i]);
            let dp_secs: Vec<f64> = traced.iter().map(|t| t[i].secs).collect();
            let dp_rate = n[i] as f64 / median(&dp_secs);
            report.put(
                &format!("seq-spatial.{name}_segs_per_s"),
                "1/s",
                Kind::Layer,
                seq_rate,
            );
            report.put(
                &format!("seq-spatial.dp_over_seq.{name}"),
                "ratio",
                Kind::Layer,
                dp_rate / seq_rate,
            );
        }
        oracle(report, inp, trees, tr);
    }

    fn fingerprint(&self, inputs: &Inputs) -> Fingerprint {
        inputs.fingerprint
    }
}
