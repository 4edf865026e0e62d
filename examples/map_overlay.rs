//! Map overlay: the GIS scenario that motivated the paper's primitives —
//! find every crossing between a road network and a river network by
//! building one bucket PMR quadtree per layer and joining them breadth-
//! first, every candidate block pair one level per round (the spatial
//! join of [Hoel93/Hoel94a], the paper's conclusion).
//!
//! Run with: `cargo run --release --example map_overlay`

use dp_spatial_suite::geom::LineSeg;
use dp_spatial_suite::spatial::bucket_pmr::build_bucket_pmr;
use dp_spatial_suite::spatial::join::{brute_force_join, frontier_join};
use dp_spatial_suite::spatial::stats::measure_build;
use dp_spatial_suite::workloads::{road_network, uniform_segments};
use scan_model::Machine;
use std::time::Instant;

fn main() {
    let machine = Machine::parallel();
    let size = 1024u32;

    // Layer 1: a street grid.
    let roads = road_network(24, size, 1);
    // Layer 2: meandering "rivers" — long uniform segments.
    let rivers = uniform_segments(300, size, 160, 2);

    println!("== map overlay: roads x rivers spatial join ==\n");
    println!("roads : {} segments ({})", roads.len(), roads.name);
    println!("rivers: {} segments ({})", rivers.len(), rivers.name);

    let (road_tree, rep_a) = measure_build(&machine, || {
        build_bucket_pmr(&machine, roads.world, &roads.segs, 8, 10)
    });
    let (river_tree, rep_b) = measure_build(&machine, || {
        build_bucket_pmr(&machine, rivers.world, &rivers.segs, 8, 10)
    });
    println!(
        "\nroad index : {} rounds, {} leaves, built in {:?}",
        road_tree.rounds(),
        road_tree.stats().leaves,
        rep_a.elapsed
    );
    println!(
        "river index: {} rounds, {} leaves, built in {:?}",
        river_tree.rounds(),
        river_tree.stats().leaves,
        rep_b.elapsed
    );

    let t = Instant::now();
    let join = frontier_join(&machine, &road_tree, &roads.segs, &river_tree, &rivers.segs)
        .expect("both layers were generated over one world");
    let join_time = t.elapsed();
    let crossings = join.pairs;

    let t = Instant::now();
    let brute = brute_force_join(&roads.segs, &rivers.segs);
    let brute_time = t.elapsed();

    assert_eq!(crossings, brute, "join must match the all-pairs reference");
    println!(
        "\ncrossings found: {}   (frontier join, {} rounds, {:?} vs brute force {:?})",
        crossings.len(),
        join.rounds,
        join_time,
        brute_time
    );

    // A few sample crossings for flavour.
    for &(r, w) in crossings.iter().take(5) {
        let road: &LineSeg = &roads.segs[r as usize];
        let river: &LineSeg = &rivers.segs[w as usize];
        println!("  road {r} {road}  x  river {w} {river}");
    }
    if crossings.len() > 5 {
        println!("  ... and {} more", crossings.len() - 5);
    }

    println!("\nok.");
}
