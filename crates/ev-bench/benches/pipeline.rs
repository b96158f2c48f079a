//! Criterion benchmarks of the end-to-end matching pipelines (backs the
//! Fig. 8–9 timing analysis at micro scale): SS vs EDP, sequential vs
//! parallel, and the V-stage in isolation.

use criterion::{criterion_group, criterion_main, Criterion};
use ev_datagen::{sample_targets, DatasetConfig, EvDataset};
use ev_mapreduce::DagConfig;
use ev_matching::edp::{match_edp, EdpConfig};
use ev_matching::refine::{match_with_refinement, RefineConfig, SplitMode};
use ev_matching::vfilter::{filter_one, VFilterConfig};
use std::collections::BTreeSet;

fn dataset() -> EvDataset {
    EvDataset::generate(&DatasetConfig {
        population: 300,
        duration: 300,
        ..DatasetConfig::default()
    })
    .expect("valid config")
}

fn bench_pipelines(c: &mut Criterion) {
    let data = dataset();
    let targets = sample_targets(&data, 60, 1);
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);

    group.bench_function("ss_sequential", |b| {
        b.iter(|| {
            data.video.reset_usage();
            match_with_refinement(
                &data.estore,
                &data.video,
                &targets,
                &RefineConfig {
                    mode: SplitMode::Practical,
                    ..RefineConfig::default()
                },
            )
            .outcomes
            .len()
        });
    });

    group.bench_function("edp_sequential", |b| {
        b.iter(|| {
            data.video.reset_usage();
            match_edp(&data.estore, &data.video, &targets, &EdpConfig::default())
                .outcomes
                .len()
        });
    });

    group.bench_function("ss_parallel", |b| {
        let config = DagConfig::new(ev_mapreduce::ClusterConfig::default().workers);
        b.iter(|| {
            data.video.reset_usage();
            ev_matching::dagflow::dag_match(
                &config,
                &data.estore,
                &data.video,
                &targets,
                0,
                &VFilterConfig::default(),
                ev_telemetry::Telemetry::disabled(),
            )
            .expect("a fault-free run cannot fail")
            .outcomes
            .len()
        });
    });
    group.finish();
}

fn bench_vfilter(c: &mut Criterion) {
    let data = dataset();
    let targets = sample_targets(&data, 20, 2);
    // Pre-build lists once so only the V stage is measured.
    let lists: Vec<(ev_core::Eid, Vec<ev_core::ScenarioId>)> = targets
        .iter()
        .map(|&eid| {
            (
                eid,
                ev_matching::edp::efilter_one(&data.estore, eid, &EdpConfig::default()),
            )
        })
        .collect();
    c.bench_function("vfilter_20_eids", |b| {
        b.iter(|| {
            data.video.reset_usage();
            let empty = BTreeSet::new();
            lists
                .iter()
                .filter(|(eid, list)| {
                    filter_one(*eid, list, &data.video, &VFilterConfig::default(), &empty)
                        .vid
                        .is_some()
                })
                .count()
        });
    });
}

criterion_group!(benches, bench_pipelines, bench_vfilter);
criterion_main!(benches);
