//! The parallel pipelines must compute the same thing as their
//! sequential references, deterministically: the parallel EDP baseline
//! and the stage DAG (Algorithm 3) at any thread count, under injected
//! worker loss and under cache pressure.

use evmatch::mapreduce::{DagConfig, FaultPlan};
use evmatch::matching::dagflow::{dag_match, dag_split};
use evmatch::matching::edp::{match_edp, match_edp_parallel, EdpConfig};
use evmatch::matching::setsplit::{split_ideal, SetSplitConfig};
use evmatch::matching::vfilter::VFilterConfig;
use evmatch::prelude::*;
use evmatch::telemetry::names;

fn dataset() -> EvDataset {
    EvDataset::generate(&DatasetConfig {
        population: 120,
        duration: 250,
        ..DatasetConfig::default()
    })
    .expect("valid config")
}

/// A short world for the lineage tests: under cache pressure an
/// evicted round state is recomputed through the whole merge chain
/// before it, and the cost explodes with the timestamp count (release
/// build, capacity 2: 0.2 s at 80 timestamps, 5 s at 120, 137 s at 160).
fn short_dataset() -> EvDataset {
    EvDataset::generate(&DatasetConfig {
        population: 60,
        duration: 40,
        ..DatasetConfig::default()
    })
    .expect("valid config")
}

/// One DAG submission over `d` with a fresh extraction cache.
fn run_dag(
    d: &EvDataset,
    targets: &std::collections::BTreeSet<Eid>,
    config: &DagConfig,
    seed: u64,
    telemetry: &Telemetry,
) -> MatchReport {
    d.video.reset_usage();
    dag_match(
        config,
        &d.estore,
        &d.video,
        targets,
        seed,
        &VFilterConfig::default(),
        telemetry,
    )
    .expect("dag pipeline")
}

fn assert_same(report: &MatchReport, reference: &MatchReport, what: &str) {
    assert_eq!(report.outcomes, reference.outcomes, "{what}: outcomes");
    assert_eq!(report.lists, reference.lists, "{what}: lists");
    assert_eq!(
        report.selected_scenarios, reference.selected_scenarios,
        "{what}: selected scenarios"
    );
    assert_eq!(report.rounds, reference.rounds, "{what}: rounds");
}

#[test]
fn parallel_edp_equals_sequential_edp() {
    let d = dataset();
    let targets = sample_targets(&d, 30, 1);
    let config = EdpConfig::default();

    d.video.reset_usage();
    let sequential = match_edp(&d.estore, &d.video, &targets, &config);
    for threads in [1, 2, 4] {
        d.video.reset_usage();
        let parallel = match_edp_parallel(
            &DagConfig::new(threads),
            &d.estore,
            &d.video,
            &targets,
            &config,
            Telemetry::disabled(),
        )
        .unwrap();
        assert_same(&parallel, &sequential, &format!("threads={threads}"));
    }
}

#[test]
fn dag_split_is_deterministic_across_thread_counts() {
    let d = dataset();
    let targets = sample_targets(&d, 40, 2);
    let split = |threads: usize| {
        dag_split(
            &DagConfig::new(threads),
            &d.estore,
            &targets,
            5,
            Telemetry::disabled(),
        )
        .unwrap()
    };
    let reference = split(1);
    for threads in [2, 4, 8] {
        assert_eq!(split(threads), reference, "threads={threads}");
    }
}

#[test]
fn dag_split_reaches_sequential_granularity() {
    let d = dataset();
    let targets = sample_targets(&d, 40, 3);
    let sequential = split_ideal(&d.estore, &targets, &SetSplitConfig::default());
    let parallel = dag_split(
        &DagConfig::new(4),
        &d.estore,
        &targets,
        0,
        Telemetry::disabled(),
    )
    .unwrap();
    assert_eq!(parallel.fully_split(), sequential.fully_split());
    assert_eq!(
        parallel.partition.block_count(),
        sequential.partition.block_count()
    );
}

#[test]
fn dag_match_accuracy_is_comparable_to_sequential() {
    let d = dataset();
    let targets = sample_targets(&d, 40, 4);

    d.video.reset_usage();
    let matcher = EvMatcher::new(&d.estore, &d.video, MatcherConfig::default());
    let seq_stats = score_report(&d, &matcher.match_many(&targets).unwrap());

    let par = run_dag(&d, &targets, &DagConfig::new(4), 0, Telemetry::disabled());
    let par_stats = score_report(&d, &par);

    assert!(
        par_stats.accuracy >= seq_stats.accuracy - 0.15,
        "parallel {:.1}% vs sequential {:.1}%",
        par_stats.percent(),
        seq_stats.percent()
    );
    // No VID is awarded twice after conflict resolution.
    let mut seen = std::collections::BTreeSet::new();
    for o in par.outcomes.iter().filter(|o| o.is_majority()) {
        assert!(
            seen.insert(o.vid.unwrap()),
            "duplicate award of {:?}",
            o.vid
        );
    }
}

#[test]
fn dag_report_is_byte_identical_across_thread_counts() {
    let d = dataset();
    let targets = sample_targets(&d, 40, 6);
    let run = |threads| {
        run_dag(
            &d,
            &targets,
            &DagConfig::new(threads),
            11,
            Telemetry::disabled(),
        )
    };
    let reference = run(1);
    for threads in [2, 4] {
        assert_same(&run(threads), &reference, &format!("threads={threads}"));
    }
}

/// Injected worker panics lose partitions mid-run; lineage must retry
/// exactly the lost partitions (tasks = clean + retries + recomputes)
/// and the final report must not change.
#[test]
fn worker_loss_recomputes_only_lost_partitions() {
    let d = short_dataset();
    let targets = sample_targets(&d, 25, 8);
    let clean_tel = Telemetry::new(TelemetryLevel::Counters);
    let reference = run_dag(&d, &targets, &DagConfig::new(2), 7, &clean_tel);
    let clean_tasks = clean_tel.registry().counter(names::DAG_TASKS_TOTAL).get();
    assert!(clean_tasks > 0, "the run is observable");
    assert_eq!(
        clean_tel.registry().counter(names::DAG_TASK_RETRIES).get(),
        0,
        "no retries without faults"
    );

    let faulty_tel = Telemetry::new(TelemetryLevel::Counters);
    let faulty = run_dag(
        &d,
        &targets,
        &DagConfig {
            faults: FaultPlan {
                task_failure_rate: 0.25,
                max_attempts: 24,
                seed: 9,
            },
            ..DagConfig::new(2)
        },
        7,
        &faulty_tel,
    );
    assert_same(&faulty, &reference, "after injected worker loss");

    let registry = faulty_tel.registry();
    let tasks = registry.counter(names::DAG_TASKS_TOTAL).get();
    let retries = registry.counter(names::DAG_TASK_RETRIES).get();
    let recomputed = registry.counter(names::DAG_RECOMPUTED_PARTITIONS).get();
    assert!(retries > 0, "a 25% failure rate must lose partitions");
    assert_eq!(
        tasks,
        clean_tasks + retries + recomputed,
        "only lost partitions reran — untouched partitions were not resubmitted"
    );
}

/// Cache pressure evicts partitions that later turn out to be needed;
/// the scheduler must recompute them from lineage without changing the
/// report.
#[test]
fn cache_pressure_recomputes_from_lineage_without_changing_the_report() {
    let d = short_dataset();
    let targets = sample_targets(&d, 25, 8);
    let reference = run_dag(&d, &targets, &DagConfig::new(2), 7, Telemetry::disabled());
    let tel = Telemetry::new(TelemetryLevel::Counters);
    let squeezed = run_dag(
        &d,
        &targets,
        &DagConfig {
            cache_capacity: Some(2),
            ..DagConfig::new(2)
        },
        7,
        &tel,
    );
    assert_same(&squeezed, &reference, "under cache pressure");
    assert!(
        tel.registry().counter(names::DAG_CACHE_EVICTIONS).get() > 0,
        "capacity 2 must force evictions"
    );
}

#[test]
fn matcher_facade_runs_dag_mode() {
    let d = dataset();
    let targets = sample_targets(&d, 25, 7);
    let config = MatcherConfig {
        execution: ExecutionMode::Dag(2),
        ..MatcherConfig::default()
    };
    let matcher = EvMatcher::new(&d.estore, &d.video, config);
    let report = matcher.match_many(&targets).unwrap();
    assert_eq!(report.outcomes.len(), 25);
    let stats = score_report(&d, &report);
    assert!(stats.accuracy > 0.7, "{:.1}%", stats.percent());
    // V strictly follows E inside the one submission, and both are
    // reported.
    assert!(report.timings.e_stage > std::time::Duration::ZERO);
    assert!(report.timings.v_stage > std::time::Duration::ZERO);
}
