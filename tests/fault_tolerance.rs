//! Fault-injection integration: the matching pipelines must survive task
//! failures with identical results, and report an exhausted retry
//! budget as `TaskExhausted` — Algorithm 3's pooled walk and the
//! EDP baseline alike.

use evmatch::dag::{DagConfig, FaultPlan, JobError};
use evmatch::matching::edp::{match_edp, EdpConfig};
use evmatch::prelude::*;

fn dataset() -> EvDataset {
    EvDataset::generate(&DatasetConfig {
        population: 100,
        duration: 200,
        ..DatasetConfig::default()
    })
    .expect("valid config")
}

/// The matcher's default pipeline over `d` on `faults`' 4-worker pool.
fn pooled(
    d: &EvDataset,
    targets: &std::collections::BTreeSet<Eid>,
    faults: FaultPlan,
) -> Result<MatchReport, JobError> {
    let pool = DagConfig {
        faults,
        ..DagConfig::new(4)
    };
    EvMatcher::new(&d.estore, &d.video, MatcherConfig::default()).match_many_on(&pool, targets)
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
        pooled(&d, &targets, faults).unwrap()
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
    // The EDP baseline's job.
    let d = dataset();
    let targets = sample_targets(&d, 10, 3);
    let result = match_edp(
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
    let result = pooled(&d, &targets, HOPELESS);
    match result {
        Err(JobError::TaskExhausted { attempts: 2, .. }) => {}
        other => panic!("expected TaskExhausted after 2 attempts, got {other:?}"),
    }
}
