//! Fault-injection integration: the matching pipelines must survive task
//! failures and stragglers with identical results.

use evmatch::mapreduce::{ClusterConfig, FaultPlan, MapReduce};
use evmatch::matching::parallel::{parallel_match, ParallelSplitConfig};
use evmatch::matching::vfilter::VFilterConfig;
use evmatch::prelude::*;

fn dataset() -> EvDataset {
    EvDataset::generate(&DatasetConfig {
        population: 100,
        duration: 200,
        ..DatasetConfig::default()
    })
    .expect("valid config")
}

fn healthy() -> ClusterConfig {
    ClusterConfig {
        workers: 4,
        reduce_partitions: 4,
        split_size: 8,
        ..ClusterConfig::default()
    }
}

#[test]
fn injected_failures_do_not_change_matching_results() {
    let d = dataset();
    let targets = sample_targets(&d, 30, 1);

    d.video.reset_usage();
    let clean = parallel_match(
        &MapReduce::new(healthy()),
        &d.estore,
        &d.video,
        &targets,
        &ParallelSplitConfig::default(),
        &VFilterConfig::default(),
    )
    .unwrap();

    let flaky_cluster = ClusterConfig {
        faults: FaultPlan {
            task_failure_rate: 0.3,
            max_attempts: 30,
            seed: 17,
            ..FaultPlan::default()
        },
        ..healthy()
    };
    d.video.reset_usage();
    let flaky = parallel_match(
        &MapReduce::new(flaky_cluster),
        &d.estore,
        &d.video,
        &targets,
        &ParallelSplitConfig::default(),
        &VFilterConfig::default(),
    )
    .unwrap();

    assert_eq!(clean.outcomes, flaky.outcomes);
    assert_eq!(clean.lists, flaky.lists);
}

#[test]
fn stragglers_with_speculation_preserve_results() {
    let d = dataset();
    let targets = sample_targets(&d, 25, 2);

    d.video.reset_usage();
    let clean = parallel_match(
        &MapReduce::new(healthy()),
        &d.estore,
        &d.video,
        &targets,
        &ParallelSplitConfig::default(),
        &VFilterConfig::default(),
    )
    .unwrap();

    let straggly = ClusterConfig {
        faults: FaultPlan {
            straggler_rate: 0.3,
            straggler_factor: 5,
            speculative_execution: true,
            seed: 23,
            ..FaultPlan::default()
        },
        task_overhead_units: 10_000,
        ..healthy()
    };
    d.video.reset_usage();
    let slow = parallel_match(
        &MapReduce::new(straggly),
        &d.estore,
        &d.video,
        &targets,
        &ParallelSplitConfig::default(),
        &VFilterConfig::default(),
    )
    .unwrap();

    assert_eq!(clean.outcomes, slow.outcomes);
}

#[test]
fn hopeless_cluster_reports_task_exhaustion() {
    let d = dataset();
    let targets = sample_targets(&d, 10, 3);
    let doomed = ClusterConfig {
        faults: FaultPlan {
            task_failure_rate: 0.97,
            max_attempts: 2,
            seed: 3,
            ..FaultPlan::default()
        },
        ..healthy()
    };
    let result = parallel_match(
        &MapReduce::new(doomed),
        &d.estore,
        &d.video,
        &targets,
        &ParallelSplitConfig::default(),
        &VFilterConfig::default(),
    );
    match result {
        Err(evmatch::mapreduce::JobError::TaskExhausted { .. }) => {}
        other => panic!("expected TaskExhausted, got {other:?}"),
    }
}
