//! Prints the experiment tables of `EXPERIMENTS.md`: for each scaling /
//! ablation experiment (E19–E25 in `DESIGN.md`), the measured rows the
//! paper's complexity claims predict.
//!
//! Run with: `cargo run --release --bin exp_tables [all|rounds|threshold|rtree|query|backend]`
//!
//! `exp_tables probe-floor [seed]` (not part of `all`) prints the
//! small-batch floor of the query path on a serve-shaped shard tree —
//! EXPERIMENTS E48. `exp_tables decision [seed]` (not part of `all`)
//! prints what the quadtree builds' split decision costs inside a build on
//! `dpbench bulk_build`'s inputs — EXPERIMENTS E50.

use dp_geom::{clip_segment_closed, seg_meets_rect, LineSeg, Rect};
use dp_service::{QueryService, QueryServiceConfig};
use dp_spatial::batch::batch_window_query;
use dp_spatial::bucket_pmr::{bucket_pmr_decision, build_bucket_pmr};
use dp_spatial::lineproc::{run_quad_build, LineProcSet};
use dp_spatial::pm1::{build_pm1, pm1_decision};
use dp_spatial::quadtree::{DpQuadtree, QtNode};
use dp_spatial::rsplit::RtreeSplitAlgorithm;
use dp_spatial::rtree::{build_rtree, pack_rtree_hilbert};
use dp_spatial::shard::{build_shard, ShardGrid};
use dp_spatial::stats::measure_build;
use dp_workloads::{
    polygon_rings, request_stream, road_network, square_world, uniform_segments, Dataset, Request,
    RequestMix,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scan_model::{Machine, Segments};
use std::hint::black_box;
use std::time::Instant;

/// The paper tables (E19–E25), in the order `all` prints them.
const PAPER_TABLES: [(&str, fn()); 5] = [
    ("rounds", rounds_tables),
    ("threshold", threshold_table),
    ("rtree", rtree_quality_table),
    ("query", query_table),
    ("backend", backend_table),
];

fn main() {
    let mut args = std::env::args().skip(1);
    let which = args.next().unwrap_or_else(|| "all".to_string());
    if let Err(message) = run(&which, args.next().as_deref()) {
        eprintln!("exp_tables: {message}");
        std::process::exit(2);
    }
}

/// Prints what `which` names. A name it does not know is an error that
/// lists the valid ones — never a silent `all`.
fn run(which: &str, seed: Option<&str>) -> Result<(), String> {
    let seed = || {
        seed.map_or(Ok(1995), |s| {
            s.parse()
                .map_err(|_| format!("{which}: the seed must be an integer, got `{s}`"))
        })
    };
    match which {
        "all" => PAPER_TABLES.iter().for_each(|(_, table)| table()),
        "probe-floor" => probe_floor_tables(seed()?),
        "decision" => decision_table(seed()?),
        name => {
            let known = PAPER_TABLES.iter().find(|(known, _)| *known == name);
            let (_, table) = known.ok_or_else(|| {
                let names: Vec<&str> = PAPER_TABLES.iter().map(|(known, _)| *known).collect();
                format!(
                    "unknown table `{name}`; expected one of: all, {}, probe-floor, decision",
                    names.join(", ")
                )
            })?;
            table()
        }
    }
    Ok(())
}

/// The dataset-size ladder used by all scaling experiments.
const SIZE_LADDER: [usize; 5] = [500, 1_000, 2_000, 4_000, 8_000];

/// World side used by the scaling experiments (power of two).
const WORLD: u32 = 4096;

/// The standard uniform workload at size `n`.
fn uniform_at(n: usize) -> Dataset {
    uniform_segments(n, WORLD, 64, 42 + n as u64)
}

/// The standard road-network workload with roughly `n` edges.
fn roads_approx(n: usize) -> Dataset {
    // ~1.8 edges per junction cell.
    let cells = ((n as f64 / 1.8).sqrt().ceil() as u32).max(2);
    road_network(cells, WORLD, 7 + n as u64)
}

/// A strictly planar polygonal-map workload with roughly `n` edges at
/// constant density: the world grows with n (cell width 32, power-of-two
/// side), so quadtree depth tracks log n instead of saturating at the
/// resolution bound. The ideal PM₁ input.
fn planar_at(n: usize) -> Dataset {
    let cells = (((n as f64) / 4.0).sqrt().ceil() as u32).max(1);
    let size = (cells * 32).next_power_of_two();
    dp_workloads::polygon_rings(cells, size, 17 + n as u64)
}

/// Deterministic query windows covering `frac` of the world per side.
fn query_windows(count: usize, frac: f64, seed: u64) -> Vec<Rect> {
    let mut rng = StdRng::seed_from_u64(seed);
    let side = WORLD as f64 * frac;
    (0..count)
        .map(|_| {
            let x = rng.gen_range(0.0..(WORLD as f64 - side));
            let y = rng.gen_range(0.0..(WORLD as f64 - side));
            Rect::from_coords(x, y, x + side, y + side)
        })
        .collect()
}

/// Renders a plain-text table: header plus rows, columns padded to the
/// widest cell — the rows-and-series layout the paper's figures use.
fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("\n## {title}\n\n"));
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&head));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

/// E19–E21: subdivision rounds and primitive ops per round versus n.
/// Paper claims: PM1 and bucket PMR builds run O(log n) rounds of O(1)
/// primitive ops; the R-tree build runs O(log n) rounds, each charged
/// two sorts per level it splits. Our build sorts the leaf level — the
/// only one with n items — twice per *build* and keeps those orders
/// sorted by stable unshuffles; only the geometrically smaller upper
/// levels still sort per split, so the table separates the two.
fn rounds_tables() {
    let machine = Machine::parallel();
    let world = square_world(WORLD);
    let depth = 12usize;

    let mut rows_pm1 = Vec::new();
    let mut rows_bpmr = Vec::new();
    let mut rows_rt = Vec::new();
    for &n in &SIZE_LADDER {
        // PM1 needs a strictly planar polygonal map (edges meeting only
        // at shared vertices); the polygon-rings generator guarantees it
        // and keeps density constant by growing the world with n, so the
        // subdivision depth tracks log n.
        let planar = planar_at(n);
        let pm1_depth = (planar.world.width() as u64).ilog2() as usize;
        let (t, rep) = measure_build(&machine, || {
            build_pm1(&machine, planar.world, &planar.segs, pm1_depth)
        });
        rows_pm1.push(vec![
            planar.len().to_string(),
            t.rounds().to_string(),
            format!("{:.1}", rep.ops_per_round().unwrap_or(0.0)),
            t.stats().nodes.to_string(),
            t.truncated().to_string(),
            format!("{:.2?}", rep.elapsed),
        ]);
        let data = uniform_at(n);

        let (t, rep) = measure_build(&machine, || {
            build_bucket_pmr(&machine, world, &data.segs, 8, depth)
        });
        rows_bpmr.push(vec![
            n.to_string(),
            t.rounds().to_string(),
            format!("{:.1}", rep.ops_per_round().unwrap_or(0.0)),
            t.stats().nodes.to_string(),
            format!("{:.2?}", rep.elapsed),
        ]);

        machine.take_round_traces();
        let (t, rep) = measure_build(&machine, || {
            build_rtree(&machine, &data.segs, 2, 8, RtreeSplitAlgorithm::Sweep)
        });
        // Every upper-level split step sorts twice; what is left of the
        // sort count belongs to the leaf level (steps over all n lanes).
        let upper_sorts = 2 * machine
            .take_round_traces()
            .iter()
            .filter(|step| step.nodes_split > 0 && step.active_elements != n)
            .count() as u64;
        rows_rt.push(vec![
            n.to_string(),
            t.rounds().to_string(),
            (rep.ops.sorts - upper_sorts).to_string(),
            format!("{:.1}", upper_sorts as f64 / t.rounds().max(1) as f64),
            format!("{:.1}", rep.ops_per_round().unwrap_or(0.0)),
            t.stats().nodes.to_string(),
            format!("{:.2?}", rep.elapsed),
        ]);
    }
    print!(
        "{}",
        render_table(
            "E19: PM1 build over planar polygon map — O(log n) rounds, O(1) ops/round (paper Sec. 5.1)",
            &["n", "rounds", "ops/round", "nodes", "trunc", "wall"],
            &rows_pm1
        )
    );
    print!(
        "{}",
        render_table(
            "E20: bucket PMR build (b=8) — O(log n) rounds (paper Sec. 5.2)",
            &["n", "rounds", "ops/round", "nodes", "wall"],
            &rows_bpmr
        )
    );
    print!(
        "{}",
        render_table(
            "E21: R-tree build (2,8) sweep — O(log n) rounds; two leaf-level sorts per build, upper levels sort per split (paper Sec. 5.3)",
            &["n", "rounds", "leaf sorts", "upper sorts/round", "ops/round", "nodes", "wall"],
            &rows_rt
        )
    );
}

/// E22: the splitting-threshold sweep. Paper Sec. 2.2: "as the splitting
/// threshold is increased, the construction times and storage
/// requirements decrease while the time necessary to perform operations
/// increases"; plus the occupancy bound `<= threshold + depth`.
fn threshold_table() {
    let machine = Machine::parallel();
    let world = square_world(WORLD);
    let data = roads_approx(4_000);
    let queries = query_windows(400, 0.02, 5);
    let mut rows = Vec::new();
    for &cap in &[2usize, 4, 8, 16, 32, 64, 128, 256] {
        let (t, rep) = measure_build(&machine, || {
            build_bucket_pmr(&machine, world, &data.segs, cap, 12)
        });
        let s = t.stats();
        let start = Instant::now();
        let mut hits = 0usize;
        for q in &queries {
            hits += t.window_query(q, &data.segs).len();
        }
        let per_query = start.elapsed().as_micros() as f64 / queries.len() as f64;
        // Occupancy bound: threshold + depth (paper Sec. 2.2), checking
        // leaves above max resolution.
        let mut bound_ok = true;
        t.for_each_leaf(|_, depth, ids| {
            if depth < 12 && ids.len() > cap + depth {
                bound_ok = false;
            }
        });
        rows.push(vec![
            cap.to_string(),
            format!("{:.2?}", rep.elapsed),
            s.nodes.to_string(),
            s.entries.to_string(),
            s.max_leaf_occupancy.to_string(),
            format!("{per_query:.1}"),
            hits.to_string(),
            bound_ok.to_string(),
        ]);
    }
    print!(
        "{}",
        render_table(
            "E22: splitting-threshold sweep, bucket PMR over road map n=4000 (paper Sec. 2.2)",
            &[
                "threshold",
                "build",
                "nodes",
                "q-edges",
                "max occ",
                "query(us)",
                "hits",
                "occ<=t+d"
            ],
            &rows
        )
    );
}

/// E23: the two R-tree split selectors of Sec. 4.7 — the O(1) mean split
/// builds faster; the O(log n) sweep split yields less sibling overlap
/// and fewer nodes visited per query.
fn rtree_quality_table() {
    let machine = Machine::parallel();
    let data = roads_approx(4_000);
    let queries = query_windows(400, 0.02, 9);
    let mut rows = Vec::new();
    for (label, algo) in [
        ("mean  O(1)", RtreeSplitAlgorithm::Mean),
        ("sweep O(log n)", RtreeSplitAlgorithm::Sweep),
    ] {
        let (t, rep) = measure_build(&machine, || build_rtree(&machine, &data.segs, 2, 8, algo));
        let (cov, ov) = t.quality_metrics();
        let visited: usize = queries.iter().map(|q| t.window_nodes_visited(q)).sum();
        rows.push(vec![
            label.to_string(),
            format!("{:.2?}", rep.elapsed),
            rep.ops.sorts.to_string(),
            t.stats().nodes.to_string(),
            format!("{cov:.3e}"),
            format!("{ov:.3e}"),
            format!("{:.1}", visited as f64 / queries.len() as f64),
        ]);
    }
    // Hilbert-packed bulk load as the one-round comparator ([Kame92]).
    {
        let world = square_world(WORLD);
        let (t, rep) = measure_build(&machine, || {
            pack_rtree_hilbert(&machine, &data.segs, world, 8)
        });
        let (cov, ov) = t.quality_metrics();
        let visited: usize = queries.iter().map(|q| t.window_nodes_visited(q)).sum();
        rows.push(vec![
            "hilbert pack".to_string(),
            format!("{:.2?}", rep.elapsed),
            rep.ops.sorts.to_string(),
            t.stats().nodes.to_string(),
            format!("{cov:.3e}"),
            format!("{ov:.3e}"),
            format!("{:.1}", visited as f64 / queries.len() as f64),
        ]);
    }
    print!(
        "{}",
        render_table(
            "E23: R-tree split selector ablation, order (2,8), road map n=4000 (paper Sec. 4.7)",
            &[
                "selector",
                "build",
                "sorts",
                "nodes",
                "coverage",
                "overlap",
                "visited/query"
            ],
            &rows
        )
    );
}

/// E25: disjoint (quadtree) versus non-disjoint (R-tree) decompositions
/// under window queries — candidates fetched and exactness.
fn query_table() {
    let machine = Machine::parallel();
    let world = square_world(WORLD);
    let data = roads_approx(4_000);
    let queries = query_windows(400, 0.02, 13);
    let brute: usize = queries
        .iter()
        .map(|q| {
            data.segs
                .iter()
                .filter(|s| dp_geom::clip_segment_closed(s, q).is_some())
                .count()
        })
        .sum();

    let bpmr = build_bucket_pmr(&machine, world, &data.segs, 8, 12);
    let rt = build_rtree(&machine, &data.segs, 2, 8, RtreeSplitAlgorithm::Sweep);

    let mut rows = Vec::new();
    {
        let mut cands = 0usize;
        let mut exact = 0usize;
        let start = Instant::now();
        for q in &queries {
            cands += bpmr.window_candidates(q).len();
            exact += bpmr.window_query(q, &data.segs).len();
        }
        let us = start.elapsed().as_micros() as f64 / queries.len() as f64;
        rows.push(vec![
            "bucket PMR (disjoint)".into(),
            cands.to_string(),
            exact.to_string(),
            format!("{:.3}", exact as f64 / cands.max(1) as f64),
            format!("{us:.1}"),
        ]);
    }
    {
        let mut cands = 0usize;
        let mut exact = 0usize;
        let start = Instant::now();
        for q in &queries {
            cands += rt.window_candidates(q).len();
            exact += rt.window_query(q, &data.segs).len();
        }
        let us = start.elapsed().as_micros() as f64 / queries.len() as f64;
        rows.push(vec![
            "R-tree (overlapping)".into(),
            cands.to_string(),
            exact.to_string(),
            format!("{:.3}", exact as f64 / cands.max(1) as f64),
            format!("{us:.1}"),
        ]);
    }
    assert_eq!(
        brute,
        rows[0][2].parse::<usize>().unwrap(),
        "quadtree must be exact"
    );
    print!(
        "{}",
        render_table(
            "E25: disjoint vs non-disjoint decomposition under 400 window queries (paper Sec. 1)",
            &[
                "structure",
                "candidates",
                "exact hits",
                "precision",
                "query(us)"
            ],
            &rows
        )
    );
}

/// Backend comparison: the same builds on the sequential reference
/// backend and the rayon backend (identical results; wall time depends on
/// the host's core count).
fn backend_table() {
    let world = square_world(WORLD);
    let data = uniform_at(8_000);
    let mut rows = Vec::new();
    for (label, machine) in [
        ("sequential", Machine::sequential()),
        ("rayon", Machine::parallel()),
    ] {
        let (t, rep) = measure_build(&machine, || {
            build_bucket_pmr(&machine, world, &data.segs, 8, 12)
        });
        let (r, rep_rt) = measure_build(&machine, || {
            build_rtree(&machine, &data.segs, 2, 8, RtreeSplitAlgorithm::Sweep)
        });
        rows.push(vec![
            label.to_string(),
            format!("{:.2?}", rep.elapsed),
            t.stats().nodes.to_string(),
            format!("{:.2?}", rep_rt.elapsed),
            r.stats().nodes.to_string(),
        ]);
    }
    print!(
        "{}",
        render_table(
            &format!(
                "E24: backend equivalence at n=8000 ({} rayon threads)",
                rayon::current_num_threads()
            ),
            &[
                "backend",
                "bpmr build",
                "bpmr nodes",
                "rtree build",
                "rtree nodes"
            ],
            &rows
        )
    );
}

// ---------------------------------------------------------------------
// E48: the small-batch floor of the query path
// ---------------------------------------------------------------------

fn median(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    samples.sort_unstable_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Median over `reps` samples of the nanoseconds one call of `f` takes,
/// each sample the mean of `calls` back-to-back calls.
fn ns_per_call(reps: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..calls {
                f();
            }
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&mut samples)
}

fn micros(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_nanos() as f64 / 1e3
}

/// The pointer walk of `DpQuadtree::window_candidates` without its sort:
/// `(nodes visited, ids landed)`, the ids appended to `landed`.
fn pointer_walk(tree: &DpQuadtree, window: &Rect, landed: &mut Vec<u32>) -> usize {
    let mut visited = 0;
    let mut stack = vec![(0usize, tree.world())];
    while let Some((idx, rect)) = stack.pop() {
        if !rect.intersects(window) {
            continue;
        }
        visited += 1;
        match tree.node(idx) {
            QtNode::Leaf { lines } => landed.extend_from_slice(lines),
            QtNode::Internal { children } => {
                let quads = rect.quadrants();
                for q in 0..4 {
                    stack.push((children[q], quads[q]));
                }
            }
        }
    }
    visited
}

/// E48: what the query path costs when there is nothing to amortise over
/// — on `dpbench serve_uniform`'s shape (20,000 uniform segments, world
/// 1,024, a 2 × 2 shard grid, bucket capacity 8, depth 16, the default
/// request mix) and through the public API only, no library
/// instrumentation, so it can be carried to another commit to compare.
/// Four tables: primitive fixed
/// cost at n = 1, the phases of one window probe, the lockstep batch
/// against a loop of pointer descents by batch size, and one request at
/// a time through `execute_batch` by request kind.
fn probe_floor_tables(seed: u64) {
    let data = uniform_segments(20_000, 1024, 16, seed);
    let config = QueryServiceConfig {
        shard_grid: 2,
        ..QueryServiceConfig::default()
    };
    let grid = ShardGrid::new(data.world, config.shard_grid);
    let machine = Machine::parallel();
    let assigned = grid.assign_segments(&data.segs);
    let shard = build_shard(
        &machine,
        data.world,
        grid.tile_of(0),
        &data.segs,
        &assigned[0],
        config.capacity,
        config.max_depth,
    );
    let (tree, segs) = (&shard.tree, &shard.segs);
    let stats = tree.stats();
    println!(
        "\nprobe-floor: seed {seed}, shard 0 of 2 x 2: {} segments, {} leaves, height {}, {} rayon threads",
        segs.len(),
        stats.leaves,
        stats.height,
        rayon::current_num_threads()
    );
    let requests = request_stream(data.world, 6_000, RequestMix::DEFAULT, seed ^ 0x5eed);
    // The windows the service would route to this shard.
    let windows: Vec<Rect> = requests
        .iter()
        .filter_map(|r| match r {
            Request::Window(w) if w.intersects(&shard.tile) => Some(*w),
            _ => None,
        })
        .collect();

    // ---- (1) fixed cost of one primitive at n = 1 ----
    let one = [7u64];
    let counts = [1u32];
    let seg = Segments::single(1);
    let mut out: Vec<u64> = Vec::new();
    let mut rows = Vec::new();
    let mut fixed = |name: &str, f: &mut dyn FnMut()| {
        rows.push(vec![
            name.to_string(),
            format!("{:.0}", ns_per_call(21, 20_000, &mut *f)),
        ]);
    };
    fixed("lease + recycle", &mut || {
        let buf: Vec<u64> = machine.lease();
        machine.recycle(black_box(buf));
    });
    fixed("note_elementwise", &mut || machine.note_elementwise());
    fixed("bump_rounds", &mut || machine.bump_rounds());
    fixed("map_into", &mut || {
        machine.map_into(black_box(&one), |x| x + 1, &mut out);
    });
    fixed("flat_map_into", &mut || {
        machine.flat_map_into(
            &seg,
            black_box(&one),
            &counts,
            |x, r| x + u64::from(r),
            &mut out,
        );
    });
    print!(
        "{}",
        render_table(
            "E48a: fixed cost of one primitive at n = 1",
            &["primitive", "ns/call"],
            &rows
        )
    );

    // ---- (2) the phases of one window probe ----
    let (mut walk, mut dedup, mut clip, mut accept, mut lockstep) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut visited, mut landed_n, mut distinct_n, mut hits_n) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    // Distinct candidates the filter accepts on an endpoint alone: per
    // window, and over all windows.
    let (mut accepted_share, mut accepted, mut candidates) = (Vec::new(), 0usize, 0usize);
    let mut landed: Vec<u32> = Vec::new();
    for window in &windows {
        // Best of three: a phase is tens of microseconds and the box
        // disturbs a run only upwards.
        let best = |f: &mut dyn FnMut()| (0..3).map(|_| micros(&mut *f)).fold(f64::MAX, f64::min);
        let mut nodes = 0;
        walk.push(best(&mut || {
            landed.clear();
            nodes = pointer_walk(tree, window, &mut landed);
        }));
        let mut distinct: Vec<u32> = Vec::new();
        dedup.push(best(&mut || {
            distinct.clone_from(&landed);
            distinct.sort_unstable();
            distinct.dedup();
        }));
        let mut hits = 0;
        let mut filter = |meets: &dyn Fn(&LineSeg, &Rect) -> bool| {
            best(&mut || {
                hits = black_box(&distinct)
                    .iter()
                    .filter(|&&id| meets(&segs[id as usize], window))
                    .count();
            })
        };
        clip.push(filter(&|s, w| clip_segment_closed(s, w).is_some()));
        accept.push(filter(&seg_meets_rect));
        lockstep.push(best(&mut || {
            black_box(batch_window_query(
                &machine,
                tree,
                std::slice::from_ref(window),
                segs,
            ));
        }));
        let inside = |id: &&u32| {
            let seg = &segs[**id as usize];
            window.contains(seg.a) || window.contains(seg.b)
        };
        let by_endpoint = distinct.iter().filter(inside).count();
        if !distinct.is_empty() {
            accepted_share.push(by_endpoint as f64 / distinct.len() as f64);
        }
        accepted += by_endpoint;
        candidates += distinct.len();
        visited.push(nodes as f64);
        landed_n.push(landed.len() as f64);
        distinct_n.push(distinct.len() as f64);
        hits_n.push(hits as f64);
    }
    let rows: Vec<Vec<String>> = [
        ("pointer walk (no sort)", &mut walk),
        ("sort + dedup", &mut dedup),
        ("clip filter", &mut clip),
        ("endpoint-accept filter", &mut accept),
        ("batch_window_query, b = 1", &mut lockstep),
    ]
    .into_iter()
    .map(|(name, us)| vec![name.to_string(), format!("{:.1}", median(us))])
    .collect();
    print!(
        "{}",
        render_table(
            &format!(
                "E48b: one window probe, medians of {} windows — {} nodes visited, {} ids landed, {} distinct, {} hits; an endpoint inside the window accepts {:.0} % of the distinct ({:.0} % over all windows)",
                windows.len(),
                median(&mut visited),
                median(&mut landed_n),
                median(&mut distinct_n),
                median(&mut hits_n),
                100.0 * median(&mut accepted_share),
                100.0 * accepted as f64 / candidates.max(1) as f64
            ),
            &["phase", "us"],
            &rows
        )
    );

    // ---- (3) lockstep batch against a loop of pointer descents ----
    let mut rows = Vec::new();
    for batch in [1usize, 2, 4, 16, 64, 512] {
        let per_probe = |f: &mut dyn FnMut(&[Rect])| {
            let mut samples: Vec<f64> = (0..5)
                .map(|_| micros(|| windows.chunks(batch).for_each(&mut *f)) / windows.len() as f64)
                .collect();
            median(&mut samples)
        };
        let lock = per_probe(&mut |chunk| {
            black_box(batch_window_query(&machine, tree, chunk, segs));
        });
        let pointer = per_probe(&mut |chunk| {
            for window in chunk {
                black_box(tree.window_query(window, segs));
            }
        });
        rows.push(vec![
            batch.to_string(),
            format!("{lock:.1}"),
            format!("{pointer:.1}"),
            format!("{:.2}", pointer / lock),
        ]);
    }
    print!(
        "{}",
        render_table(
            "E48c: lockstep batch vs a loop of DpQuadtree::window_query, us per probe",
            &["batch", "lockstep", "pointer loop", "pointer / lockstep"],
            &rows
        )
    );

    // ---- (4) one request at a time through the service ----
    let service = QueryService::build(config, data.world, data.segs.clone());
    let (mut window_us, mut point_us, mut knn_us) = (Vec::new(), Vec::new(), Vec::new());
    for request in &requests {
        let us = micros(|| {
            black_box(service.execute_batch(std::slice::from_ref(request)));
        });
        match request {
            Request::Window(_) => window_us.push(us),
            Request::PointInWindow(_) => point_us.push(us),
            Request::KNearest { .. } => knn_us.push(us),
            _ => {}
        }
    }
    let rows: Vec<Vec<String>> = [
        ("window", &mut window_us),
        ("point", &mut point_us),
        ("k-nearest", &mut knn_us),
    ]
    .into_iter()
    .map(|(kind, us)| {
        vec![
            kind.to_string(),
            us.len().to_string(),
            format!("{:.1}", median(us)),
        ]
    })
    .collect();
    print!(
        "{}",
        render_table(
            "E48d: execute_batch(&[r]), one request at a time, median us by kind",
            &["kind", "requests", "us"],
            &rows
        )
    );
}

// ---------------------------------------------------------------------
// E50: the split decision inside a quadtree build
// ---------------------------------------------------------------------

/// `dpbench`'s `sub_seed`, so `decision <seed>` builds the inputs
/// `dpbench --workload bulk_build --seed <seed>` builds.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A quadtree family's split decision, as `run_quad_build` calls it.
type Decide = fn(&Machine, &LineProcSet, &[LineSeg]) -> Vec<bool>;

/// E50: what the split decision costs inside a whole build, on `dpbench
/// bulk_build`'s inputs — PM₁ on `polygon_rings` with about 101,000 edges
/// (depth 16), bucket PMR on `uniform_segments(100_000, 4096, 64)`
/// (capacity 8, depth 12) — through the public API only: `run_quad_build`
/// with a `decide` closure that times the family's own decision function.
/// Medians of five builds.
fn decision_table(seed: u64) {
    let machine = Machine::parallel();
    let cells = (101_000f64 / 4.0).sqrt().ceil() as u32;
    let planar = polygon_rings(cells, (cells * 32).next_power_of_two(), sub_seed(seed, 1));
    let uniform = uniform_segments(100_000, 4096, 64, sub_seed(seed, 2));
    let bucket: Decide = |m, state, _| bucket_pmr_decision(m, state, 8);
    let builds: [(&str, &Dataset, usize, Decide); 2] = [
        ("pm1", &planar, 16, pm1_decision),
        ("bucket-pmr", &uniform, 12, bucket),
    ];
    let mut rows = Vec::new();
    for (name, data, depth, decision) in builds {
        let (mut build_ms, mut decide_ms, mut share) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..5 {
            let mut deciding = 0.0;
            let mut decide = |m: &Machine, state: &LineProcSet, segs: &[LineSeg]| {
                let start = Instant::now();
                let split = decision(m, state, segs);
                deciding += start.elapsed().as_secs_f64() * 1e3;
                split
            };
            let start = Instant::now();
            black_box(run_quad_build(
                &machine,
                data.world,
                &data.segs,
                depth,
                &mut decide,
            ));
            let total = start.elapsed().as_secs_f64() * 1e3;
            build_ms.push(total);
            decide_ms.push(deciding);
            share.push(deciding / total);
        }
        rows.push(vec![
            name.to_string(),
            data.len().to_string(),
            format!("{:.1}", median(&mut build_ms)),
            format!("{:.1}", median(&mut decide_ms)),
            format!("{:.0} %", 100.0 * median(&mut share)),
        ]);
    }
    print!(
        "{}",
        render_table(
            &format!(
                "E50: the split decision inside a quadtree build, seed {seed}, medians of 5 builds, {} rayon threads",
                rayon::current_num_threads()
            ),
            &["build", "segments", "build ms", "decision ms", "share"],
            &rows
        )
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladders_are_usable() {
        let d = uniform_at(500);
        assert_eq!(d.len(), 500);
        let r = roads_approx(500);
        assert!(r.len() > 250 && r.len() < 1_000, "got {}", r.len());
    }

    #[test]
    fn query_windows_inside_world() {
        for q in query_windows(50, 0.05, 1) {
            assert!(q.min.x >= 0.0 && q.max.x <= WORLD as f64);
            assert!(q.min.y >= 0.0 && q.max.y <= WORLD as f64);
        }
    }

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            "demo",
            &["n", "value"],
            &[
                vec!["10".into(), "1.5".into()],
                vec!["1000".into(), "12.25".into()],
            ],
        );
        assert!(t.contains("## demo"));
        assert!(t.contains("1000"));
    }

    #[test]
    fn an_unknown_table_name_is_an_error_naming_the_valid_ones() {
        for typo in ["probe_floor", "round", ""] {
            let message = run(typo, None).expect_err("a typo must not run anything");
            let paper = PAPER_TABLES.iter().map(|(name, _)| *name);
            for name in paper.chain(["all", "probe-floor", "decision"]) {
                assert!(message.contains(name), "`{message}` does not list {name}");
            }
        }
        assert!(run("probe-floor", Some("x")).is_err());
    }

    /// `decision` takes a seed the way `probe-floor` does, and draws the
    /// planar and uniform inputs from the streams `dpbench`'s
    /// `common::sub_seed` gives `bulk_build` at that seed.
    #[test]
    fn decision_rejects_a_bad_seed_and_draws_the_benchmark_streams() {
        let message = run("decision", Some("1995x")).expect_err("not a seed");
        assert!(message.starts_with("decision:"), "{message}");
        assert_eq!(sub_seed(1995, 1), 0xcec4_d81b_b70a_c067);
        assert_eq!(sub_seed(1995, 2), 0x008e_19d1_dc5e_cc1b);
    }
}
