//! Fused-kernel ablation: the PM₁ build with the fused seven-lane
//! decision scan and arena-backed `_into` primitives versus the unfused
//! baseline that composes seven independent segmented scans and
//! allocates every intermediate. Same trees bit-for-bit (asserted by
//! `tests/fused_complexity.rs`); this measures the wall-clock payoff on
//! the parallel backend at large n, where the saved passes and avoided
//! allocations dominate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dp_bench::{planar_at, uniform_at, WORLD};
use dp_spatial::baseline::build_pm1_unfused;
use dp_spatial::bucket_pmr::build_bucket_pmr;
use dp_spatial::pm1::build_pm1;
use dp_workloads::square_world;
use scan_model::Machine;
use std::hint::black_box;

const SIZES: [usize; 2] = [100_000, 200_000];

fn bench_pm1_fusion(c: &mut Criterion) {
    let mut group = c.benchmark_group("fused_kernels/pm1");
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.sample_size(10);
    let machine = Machine::parallel();
    for &n in &SIZES {
        // Strictly planar input at constant density: the ideal PM₁ map.
        let data = planar_at(n);
        let depth = (data.world.width() as u64).ilog2() as usize;
        group.throughput(Throughput::Elements(data.len() as u64));
        group.bench_with_input(BenchmarkId::new("fused_arena", n), &n, |b, _| {
            b.iter(|| black_box(build_pm1(&machine, data.world, &data.segs, depth)))
        });
        group.bench_with_input(BenchmarkId::new("unfused", n), &n, |b, _| {
            b.iter(|| black_box(build_pm1_unfused(&machine, data.world, &data.segs, depth)))
        });
    }
    group.finish();
}

fn bench_bucket_pmr_arena(c: &mut Criterion) {
    let mut group = c.benchmark_group("fused_kernels/bucket_pmr");
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.sample_size(10);
    let world = square_world(WORLD);
    for &n in &SIZES {
        let data = uniform_at(n);
        group.throughput(Throughput::Elements(n as u64));
        // Arena reuse across rounds (round 2+ leases round-1 buffers);
        // sequential vs parallel shows the pool-backed backend's edge.
        let par = Machine::parallel();
        group.bench_with_input(BenchmarkId::new("parallel", n), &n, |b, _| {
            b.iter(|| black_box(build_bucket_pmr(&par, world, &data.segs, 8, 12)))
        });
        let seq = Machine::sequential();
        group.bench_with_input(BenchmarkId::new("sequential", n), &n, |b, _| {
            b.iter(|| black_box(build_bucket_pmr(&seq, world, &data.segs, 8, 12)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pm1_fusion, bench_bucket_pmr_arena);
criterion_main!(benches);
