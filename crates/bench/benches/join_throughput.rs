//! E34: spatial-join throughput — the data-parallel frontier join
//! against the recursive co-traversal and the all-pairs brute force,
//! over two independently generated layers of the same world. The
//! frontier join runs on both machine backends; `Throughput::Elements`
//! reports base-layer segments per second so sizes are comparable.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dp_spatial::baseline::spatial_join;
use dp_spatial::bucket_pmr::build_bucket_pmr;
use dp_spatial::join::{brute_force_join, frontier_join};
use dp_workloads::uniform_segments;
use scan_model::{Backend, Machine};
use std::hint::black_box;

fn bench_join(c: &mut Criterion) {
    let mut group = c.benchmark_group("join_throughput");
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.sample_size(10);

    for &n in &[2_000usize, 8_000] {
        let base = uniform_segments(n, 1024, 16, 501);
        let overlay = uniform_segments(n, 1024, 16, 502);
        let build_machine = Machine::sequential();
        let ta = build_bucket_pmr(&build_machine, base.world, &base.segs, 8, 16);
        let tb = build_bucket_pmr(&build_machine, overlay.world, &overlay.segs, 8, 16);

        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("frontier_seq", n), &n, |b, _| {
            let m = Machine::sequential();
            b.iter(|| {
                black_box(
                    frontier_join(&m, &ta, &base.segs, &tb, &overlay.segs)
                        .unwrap()
                        .pairs
                        .len(),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("frontier_par", n), &n, |b, _| {
            let m = Machine::new(Backend::Parallel);
            b.iter(|| {
                black_box(
                    frontier_join(&m, &ta, &base.segs, &tb, &overlay.segs)
                        .unwrap()
                        .pairs
                        .len(),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("recursive", n), &n, |b, _| {
            b.iter(|| black_box(spatial_join(&ta, &base.segs, &tb, &overlay.segs).len()))
        });
        // The all-pairs baseline is quadratic; keep it to the small size.
        if n <= 2_000 {
            group.bench_with_input(BenchmarkId::new("brute_force", n), &n, |b, _| {
                b.iter(|| black_box(brute_force_join(&base.segs, &overlay.segs).len()))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_join);
criterion_main!(benches);
