//! Fault-injection integration: the matching pipelines must survive task
//! failures with identical results, and report an exhausted retry
//! budget as `TaskExhausted` — Algorithm 3's pooled walk and the
//! parallel EDP baseline alike.

use evmatch::dag::{DagConfig, FaultPlan, JobError};
use evmatch::matching::dagflow::dag_match;
use evmatch::matching::edp::{match_edp_parallel, EdpConfig};
use evmatch::matching::refine::RefineConfig;
use evmatch::prelude::*;

fn dataset() -> EvDataset {
    EvDataset::generate(&DatasetConfig {
        population: 100,
        duration: 200,
        ..DatasetConfig::default()
    })
    .expect("valid config")
}

/// The pipeline the matcher runs by default.
fn practical() -> RefineConfig {
    RefineConfig {
        mode: SplitMode::Practical,
        ..RefineConfig::default()
    }
}

/// A plan almost every attempt fails under, with room for one retry.
const HOPELESS: FaultPlan = FaultPlan {
    task_failure_rate: 0.97,
    max_attempts: 2,
    seed: 3,
};

#[test]
fn injected_failures_do_not_change_matching_results() {
    let d = dataset();
    let targets = sample_targets(&d, 30, 1);
    let run = |faults: FaultPlan| {
        d.video.reset_usage();
        dag_match(
            &DagConfig {
                faults,
                ..DagConfig::new(4)
            },
            &d.estore,
            &d.video,
            &targets,
            &practical(),
            Telemetry::disabled(),
        )
        .unwrap()
    };
    let clean = run(FaultPlan::default());
    let flaky = run(FaultPlan {
        task_failure_rate: 0.3,
        max_attempts: 30,
        seed: 17,
    });

    assert_eq!(clean.outcomes, flaky.outcomes);
    assert_eq!(clean.lists, flaky.lists);
}

#[test]
fn hopeless_cluster_reports_task_exhaustion() {
    // The parallel EDP baseline's job.
    let d = dataset();
    let targets = sample_targets(&d, 10, 3);
    let result = match_edp_parallel(
        &DagConfig {
            faults: HOPELESS,
            ..DagConfig::new(4)
        },
        &d.estore,
        &d.video,
        &targets,
        &EdpConfig::default(),
        Telemetry::disabled(),
    );
    match result {
        Err(JobError::TaskExhausted { attempts: 2, .. }) => {}
        other => panic!("expected TaskExhausted after 2 attempts, got {other:?}"),
    }
}

#[test]
fn hopeless_dag_reports_task_exhaustion() {
    // The same hopeless plan through the pooled pipeline.
    let d = dataset();
    let targets = sample_targets(&d, 10, 3);
    let result = dag_match(
        &DagConfig {
            faults: HOPELESS,
            ..DagConfig::new(4)
        },
        &d.estore,
        &d.video,
        &targets,
        &practical(),
        Telemetry::disabled(),
    );
    match result {
        Err(JobError::TaskExhausted { attempts: 2, .. }) => {}
        other => panic!("expected TaskExhausted after 2 attempts, got {other:?}"),
    }
}
