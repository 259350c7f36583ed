//! Criterion micro-benchmark: simulated search throughput vs array
//! geometry — the software-performance counterpart of the Fig. 6 sweep.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ferex_bench::{noisy_backend, random_filled_engine, random_query};
use ferex_core::Backend;
use std::hint::black_box;

fn bench_ideal_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("ideal_search");
    for &rows in &[16usize, 64, 256] {
        let dim = 64;
        let mut engine = random_filled_engine(rows, dim, Backend::Ideal, 1).expect("builds");
        let query = random_query(dim, 2);
        group.bench_with_input(BenchmarkId::from_parameter(rows), &rows, |b, _| {
            b.iter(|| black_box(engine.search(black_box(&query)).expect("searches")));
        });
    }
    group.finish();
}

fn bench_noisy_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("noisy_search");
    for &dim in &[32usize, 128, 512] {
        let rows = 32;
        let mut engine = random_filled_engine(rows, dim, noisy_backend(3), 1).expect("builds");
        let query = random_query(dim, 2);
        // Warm the lazy programming outside the timed loop.
        engine.search(&query).expect("programs");
        group.bench_with_input(BenchmarkId::from_parameter(dim), &dim, |b, _| {
            b.iter(|| black_box(engine.search(black_box(&query)).expect("searches")));
        });
    }
    group.finish();
}

fn bench_circuit_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("circuit_search");
    group.sample_size(10);
    let rows = 8;
    let dim = 16;
    let mut engine =
        random_filled_engine(rows, dim, ferex_core::Backend::Circuit(Box::default()), 1)
            .expect("builds");
    let query = random_query(dim, 2);
    engine.search(&query).expect("programs");
    group.bench_function("8x16_device_level", |b| {
        b.iter(|| black_box(engine.search(black_box(&query)).expect("searches")));
    });
    group.finish();
}

/// Batched serving vs a loop of single searches on the acceptance
/// workload: 64 queries against 1k stored rows on the Noisy backend.
/// Both run the one first-ON kernel. The batch read builds each 16-row
/// block's contributions once for all 64 queries, where the loop
/// rebuilds them per query, and it senses its queries in parallel.
fn bench_batched_serving(c: &mut Criterion) {
    let mut group = c.benchmark_group("batched_serving");
    group.sample_size(10);
    let rows = 1000;
    let dim = 64;
    let n_queries = 64;
    let mut engine = random_filled_engine(rows, dim, noisy_backend(3), 1).expect("builds");
    let queries: Vec<Vec<u32>> =
        (0..n_queries).map(|i| random_query(dim, 100 + i as u64)).collect();
    let qids: Vec<u64> = (0..n_queries as u64).collect();
    // Program outside the timed loops so both cases measure pure serving.
    engine.array_mut().program();
    group.bench_function("single_search_loop", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(engine.search(black_box(q)).expect("searches"));
            }
        });
    });
    group.bench_function("search_batch", |b| {
        b.iter(|| {
            let out = engine.array().search_batch_at(black_box(&queries), &qids);
            black_box(out.expect("searches"))
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_ideal_search,
    bench_noisy_search,
    bench_circuit_search,
    bench_batched_serving
);
criterion_main!(benches);
