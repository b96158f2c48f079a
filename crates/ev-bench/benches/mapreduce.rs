//! Criterion benchmarks of the MapReduce engine substrate: scaling with
//! workers and combiner effect.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ev_mapreduce::{ClusterConfig, Combiner, Emitter, HashPartitioner, MapReduce, Mapper, Reducer};

struct Tokenize;
impl Mapper<String> for Tokenize {
    type Key = String;
    type Value = u64;
    fn map(&self, line: &String, out: &mut Emitter<String, u64>) {
        for w in line.split_whitespace() {
            out.emit(w.to_string(), 1);
        }
    }
}

struct Sum;
impl Reducer<String, u64> for Sum {
    type Output = (String, u64);
    fn reduce(&self, key: &String, values: &[u64]) -> Vec<(String, u64)> {
        vec![(key.clone(), values.iter().sum())]
    }
}

struct SumCombiner;
impl Combiner<String, u64> for SumCombiner {
    fn combine(&self, _key: &String, values: Vec<u64>) -> Vec<u64> {
        vec![values.iter().sum()]
    }
}

fn corpus(lines: usize) -> Vec<String> {
    (0..lines)
        .map(|i| {
            format!(
                "alpha{} beta{} gamma{} shared common",
                i % 97,
                i % 31,
                i % 13
            )
        })
        .collect()
}

fn bench_worker_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("mapreduce_workers");
    group.sample_size(10);
    let max = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    for workers in [1usize, 2, 4, 8] {
        if workers > max * 2 {
            continue;
        }
        group.bench_with_input(
            BenchmarkId::from_parameter(workers),
            &workers,
            |b, &workers| {
                let engine = MapReduce::new(ClusterConfig {
                    workers,
                    reduce_partitions: workers,
                    split_size: 64,
                    ..ClusterConfig::default()
                });
                let input = corpus(4096);
                b.iter(|| {
                    engine
                        .run(input.clone(), &Tokenize, &Sum)
                        .expect("healthy cluster")
                        .output
                        .len()
                });
            },
        );
    }
    group.finish();
}

fn bench_combiner(c: &mut Criterion) {
    let mut group = c.benchmark_group("mapreduce_combiner");
    group.sample_size(10);
    let engine = MapReduce::new(ClusterConfig::default());
    let input = corpus(8192);
    group.bench_function("without", |b| {
        b.iter(|| {
            engine
                .run(input.clone(), &Tokenize, &Sum)
                .expect("healthy cluster")
                .metrics
                .shuffled_pairs
        });
    });
    group.bench_function("with", |b| {
        b.iter(|| {
            engine
                .run_with(
                    input.clone(),
                    &Tokenize,
                    &Sum,
                    Some(&SumCombiner),
                    &HashPartitioner,
                )
                .expect("healthy cluster")
                .metrics
                .shuffled_pairs
        });
    });
    group.finish();
}

criterion_group!(benches, bench_worker_scaling, bench_combiner);
criterion_main!(benches);
