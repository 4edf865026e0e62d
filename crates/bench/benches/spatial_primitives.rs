//! E04–E07: the spatial primitives of the paper's Section 4 — cloning,
//! unshuffling, duplicate deletion and the node capacity check — across
//! sizes and backends.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use scan_model::{Backend, Machine, Segments};
use std::hint::black_box;

fn make_segmented(n: usize) -> Segments {
    let mut lengths = Vec::new();
    let mut covered = 0usize;
    let mut state = 0xA5A5_A5A5_DEAD_BEEFu64;
    while covered < n {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let l = ((state >> 40) % 31 + 1) as usize;
        let l = l.min(n - covered);
        lengths.push(l);
        covered += l;
    }
    Segments::from_lengths(&lengths).unwrap()
}

fn flags(n: usize, modulo: u64) -> Vec<bool> {
    (0..n as u64)
        .map(|i| i.wrapping_mul(0x9E3779B9) % modulo == 0)
        .collect()
}

fn bench_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("spatial_primitives");
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.sample_size(20);
    for &n in &[10_000usize, 100_000, 500_000] {
        let seg = make_segmented(n);
        let data: Vec<u64> = (0..n as u64).collect();
        let clone_flags = flags(n, 5);
        let class = flags(n, 3);
        group.throughput(Throughput::Elements(n as u64));
        for (label, backend) in [("seq", Backend::Sequential), ("par", Backend::Parallel)] {
            let m = Machine::new(backend);
            group.bench_with_input(BenchmarkId::new(format!("clone/{label}"), n), &n, |b, _| {
                b.iter(|| {
                    let layout = m.clone_layout(&seg, black_box(&clone_flags));
                    black_box(m.apply(&data, &layout))
                })
            });
            group.bench_with_input(
                BenchmarkId::new(format!("unshuffle/{label}"), n),
                &n,
                |b, _| {
                    b.iter(|| {
                        let layout = m.unshuffle_layout(&seg, black_box(&class));
                        black_box(m.apply_unshuffle(&data, &layout))
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("dup_delete/{label}"), n),
                &n,
                |b, _| {
                    b.iter(|| {
                        let layout = m.delete_layout(&seg, black_box(&clone_flags));
                        black_box(m.apply(&data, &layout))
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("capacity_check/{label}"), n),
                &n,
                |b, _| b.iter(|| black_box(m.segment_counts(black_box(&seg)))),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("segmented_sort/{label}"), n),
                &n,
                |b, _| {
                    b.iter(|| {
                        black_box(m.segmented_sort_perm(&seg, black_box(&data), |a, b| {
                            (a.wrapping_mul(0x9E3779B9)).cmp(&b.wrapping_mul(0x9E3779B9))
                        }))
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_primitives);
criterion_main!(benches);
