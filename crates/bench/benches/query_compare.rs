//! E25: query behaviour across the structures — disjoint quadtree
//! decompositions versus the R-tree's overlapping nodes versus a brute
//! force scan (window queries, point location, nearest neighbour, and
//! the quadtree spatial join).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dp_bench::{query_windows, roads_approx, uniform_at, WORLD};
use dp_geom::Point;
use dp_spatial::bucket_pmr::build_bucket_pmr;
use dp_spatial::join::{brute_force_join, frontier_join};
use dp_spatial::pm1::build_pm1;
use dp_spatial::rsplit::RtreeSplitAlgorithm;
use dp_spatial::rtree::build_rtree;
use dp_workloads::square_world;
use scan_model::Machine;
use std::hint::black_box;

fn bench_window_queries(c: &mut Criterion) {
    let machine = Machine::parallel();
    let world = square_world(WORLD);
    let data = roads_approx(4_000);
    let queries = query_windows(100, 0.02, 13);

    let bpmr = build_bucket_pmr(&machine, world, &data.segs, 8, 12);
    let pm1 = build_pm1(&machine, world, &data.segs, 12);
    let rt = build_rtree(&machine, &data.segs, 2, 8, RtreeSplitAlgorithm::Sweep);

    let mut group = c.benchmark_group("query_compare/window");
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.sample_size(20);
    group.bench_function("bucket_pmr", |b| {
        b.iter(|| {
            let mut hits = 0;
            for q in &queries {
                hits += bpmr.window_query(q, &data.segs).len();
            }
            black_box(hits)
        })
    });
    group.bench_function("pm1", |b| {
        b.iter(|| {
            let mut hits = 0;
            for q in &queries {
                hits += pm1.window_query(q, &data.segs).len();
            }
            black_box(hits)
        })
    });
    group.bench_function("rtree", |b| {
        b.iter(|| {
            let mut hits = 0;
            for q in &queries {
                hits += rt.window_query(q, &data.segs).len();
            }
            black_box(hits)
        })
    });
    group.bench_function("brute_force", |b| {
        b.iter(|| {
            let mut hits = 0;
            for q in &queries {
                hits += data
                    .segs
                    .iter()
                    .filter(|s| dp_geom::clip_segment_closed(s, q).is_some())
                    .count();
            }
            black_box(hits)
        })
    });
    group.finish();

    let mut group = c.benchmark_group("query_compare/nearest");
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.sample_size(20);
    let probes: Vec<Point> = (0..100)
        .map(|k| {
            Point::new(
                ((k * 97) % WORLD as usize) as f64,
                ((k * 389) % WORLD as usize) as f64,
            )
        })
        .collect();
    group.bench_function("bucket_pmr", |b| {
        b.iter(|| {
            for &p in &probes {
                black_box(bpmr.nearest(p, &data.segs));
            }
        })
    });
    group.bench_function("rtree", |b| {
        b.iter(|| {
            for &p in &probes {
                black_box(rt.nearest(p, &data.segs));
            }
        })
    });
    group.finish();
}

fn bench_spatial_join(c: &mut Criterion) {
    let machine = Machine::parallel();
    let world = square_world(WORLD);
    let roads = roads_approx(2_000);
    let rivers = uniform_at(500);
    let ta = build_bucket_pmr(&machine, world, &roads.segs, 8, 12);
    let tb = build_bucket_pmr(&machine, world, &rivers.segs, 8, 12);

    let mut group = c.benchmark_group("query_compare/join");
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.sample_size(10);
    group.bench_with_input(
        BenchmarkId::new("quadtree_join", roads.len()),
        &0,
        |b, _| b.iter(|| black_box(frontier_join(&machine, &ta, &roads.segs, &tb, &rivers.segs))),
    );
    group.bench_with_input(
        BenchmarkId::new("brute_force_join", roads.len()),
        &0,
        |b, _| b.iter(|| black_box(brute_force_join(&roads.segs, &rivers.segs))),
    );
    group.finish();
}

criterion_group!(benches, bench_window_queries, bench_spatial_join);
criterion_main!(benches);
