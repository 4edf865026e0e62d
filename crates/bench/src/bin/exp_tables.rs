//! Prints the experiment tables of `EXPERIMENTS.md`: for each scaling /
//! ablation experiment (E19–E25 in `DESIGN.md`), the measured rows the
//! paper's complexity claims predict.
//!
//! Run with: `cargo run --release -p dp-bench --bin exp_tables [all|rounds|threshold|rtree|query|backend]`

use dp_bench::{
    planar_at, query_windows, render_table, roads_approx, uniform_at, SIZE_LADDER, WORLD,
};
use dp_spatial::bucket_pmr::build_bucket_pmr;
use dp_spatial::pm1::build_pm1;
use dp_spatial::rsplit::RtreeSplitAlgorithm;
use dp_spatial::rtree::{build_rtree, pack_rtree_hilbert};
use dp_spatial::stats::measure_build;
use dp_workloads::square_world;
use scan_model::Machine;
use std::time::Instant;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    match which.as_str() {
        "rounds" => rounds_tables(),
        "threshold" => threshold_table(),
        "rtree" => rtree_quality_table(),
        "query" => query_table(),
        "backend" => backend_table(),
        _ => {
            rounds_tables();
            threshold_table();
            rtree_quality_table();
            query_table();
            backend_table();
        }
    }
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
