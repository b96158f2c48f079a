//! Fault-injection integration: the matching pipelines must survive task
//! failures with identical results.

use evmatch::mapreduce::{ClusterConfig, DagConfig, FaultPlan, JobError, MapReduce};
use evmatch::matching::dagflow::dag_match;
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
fn injected_failures_agree_between_parallel_and_dag() {
    // One flaky `FaultPlan` through both pipelines: the jobs of
    // `parallel_match` and the single submission of `dag_match` share
    // the scheduler's fault path, and both must reproduce the clean run.
    let d = dataset();
    let targets = sample_targets(&d, 25, 2);
    let flaky = FaultPlan {
        task_failure_rate: 0.3,
        max_attempts: 30,
        seed: 23,
    };

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

    d.video.reset_usage();
    let parallel = parallel_match(
        &MapReduce::new(ClusterConfig {
            faults: flaky,
            ..healthy()
        }),
        &d.estore,
        &d.video,
        &targets,
        &ParallelSplitConfig::default(),
        &VFilterConfig::default(),
    )
    .unwrap();

    d.video.reset_usage();
    let dag = dag_match(
        &DagConfig {
            faults: flaky,
            ..DagConfig::new(4)
        },
        &d.estore,
        &d.video,
        &targets,
        &ParallelSplitConfig::default(),
        &VFilterConfig::default(),
        Telemetry::disabled(),
    )
    .unwrap();

    assert_eq!(clean.outcomes, parallel.outcomes);
    assert_eq!(clean.lists, parallel.lists);
    assert_eq!(clean.outcomes, dag.outcomes);
    assert_eq!(clean.lists, dag.lists);
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

#[test]
fn hopeless_dag_reports_task_exhaustion() {
    // The same hopeless plan through the one-submission pipeline: an
    // exhausted injected fault is `TaskExhausted` there too.
    let d = dataset();
    let targets = sample_targets(&d, 10, 3);
    let result = dag_match(
        &DagConfig {
            faults: FaultPlan {
                task_failure_rate: 0.97,
                max_attempts: 2,
                seed: 3,
            },
            ..DagConfig::new(4)
        },
        &d.estore,
        &d.video,
        &targets,
        &ParallelSplitConfig::default(),
        &VFilterConfig::default(),
        Telemetry::disabled(),
    );
    match result {
        Err(JobError::TaskExhausted { attempts: 2, .. }) => {}
        other => panic!("expected TaskExhausted after 2 attempts, got {other:?}"),
    }
}
