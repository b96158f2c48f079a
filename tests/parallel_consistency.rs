//! The MapReduce pipelines must compute the same thing as their
//! sequential references, deterministically, at any cluster width —
//! and the stage DAG, the one real-thread path, the same thing as
//! MapReduce at any thread count.

use evmatch::mapreduce::{ClusterConfig, MapReduce};
use evmatch::matching::edp::{edp_engine, match_edp, match_edp_parallel, EdpConfig};
use evmatch::matching::parallel::{parallel_match, parallel_split, ParallelSplitConfig};
use evmatch::matching::setsplit::{split_ideal, SetSplitConfig};
use evmatch::matching::vfilter::VFilterConfig;
use evmatch::prelude::*;

fn dataset() -> EvDataset {
    EvDataset::generate(&DatasetConfig {
        population: 120,
        duration: 250,
        ..DatasetConfig::default()
    })
    .expect("valid config")
}

fn cluster(workers: usize) -> ClusterConfig {
    ClusterConfig {
        workers,
        reduce_partitions: workers.max(2),
        split_size: 8,
        ..ClusterConfig::default()
    }
}

#[test]
fn parallel_edp_equals_sequential_edp() {
    let d = dataset();
    let targets = sample_targets(&d, 30, 1);
    let config = EdpConfig::default();

    d.video.reset_usage();
    let sequential = match_edp(&d.estore, &d.video, &targets, &config);
    d.video.reset_usage();
    let engine = edp_engine(cluster(4));
    let parallel = match_edp_parallel(&engine, &d.estore, &d.video, &targets, &config).unwrap();

    assert_eq!(sequential.outcomes, parallel.outcomes);
    assert_eq!(sequential.lists, parallel.lists);
    assert_eq!(sequential.selected_scenarios, parallel.selected_scenarios);
}

#[test]
fn parallel_split_is_deterministic_across_worker_counts() {
    let d = dataset();
    let targets = sample_targets(&d, 40, 2);
    let config = ParallelSplitConfig {
        seed: 5,
        max_iterations: None,
    };
    let reference =
        parallel_split(&MapReduce::new(cluster(1)), &d.estore, &targets, &config).unwrap();
    for workers in [2, 4, 8] {
        let run = parallel_split(
            &MapReduce::new(cluster(workers)),
            &d.estore,
            &targets,
            &config,
        )
        .unwrap();
        assert_eq!(run.recorded, reference.recorded, "workers={workers}");
        assert_eq!(run.lists, reference.lists, "workers={workers}");
        assert_eq!(
            run.partition.block_count(),
            reference.partition.block_count()
        );
    }
}

#[test]
fn parallel_split_reaches_sequential_granularity() {
    let d = dataset();
    let targets = sample_targets(&d, 40, 3);
    let sequential = split_ideal(&d.estore, &targets, &SetSplitConfig::default());
    let parallel = parallel_split(
        &MapReduce::new(cluster(4)),
        &d.estore,
        &targets,
        &ParallelSplitConfig::default(),
    )
    .unwrap();
    assert_eq!(parallel.fully_split(), sequential.fully_split());
    assert_eq!(
        parallel.partition.block_count(),
        sequential.partition.block_count()
    );
}

#[test]
fn parallel_match_accuracy_is_comparable_to_sequential() {
    let d = dataset();
    let targets = sample_targets(&d, 40, 4);

    d.video.reset_usage();
    let matcher = EvMatcher::new(&d.estore, &d.video, MatcherConfig::default());
    let seq_stats = score_report(&d, &matcher.match_many(&targets).unwrap());

    d.video.reset_usage();
    let par = parallel_match(
        &MapReduce::new(cluster(4)),
        &d.estore,
        &d.video,
        &targets,
        &ParallelSplitConfig::default(),
        &VFilterConfig::default(),
    )
    .unwrap();
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
    use evmatch::mapreduce::DagConfig;
    use evmatch::matching::dagflow::dag_match;

    let d = dataset();
    let targets = sample_targets(&d, 40, 6);
    let split_config = ParallelSplitConfig {
        seed: 11,
        max_iterations: None,
    };
    let assert_same = |report: &MatchReport, reference: &MatchReport, what: &str| {
        assert_eq!(report.outcomes, reference.outcomes, "{what}");
        assert_eq!(report.lists, reference.lists, "{what}");
        assert_eq!(
            report.selected_scenarios, reference.selected_scenarios,
            "{what}"
        );
        assert_eq!(report.rounds, reference.rounds, "{what}");
    };
    let run = |threads: usize| {
        d.video.reset_usage();
        dag_match(
            &DagConfig::new(threads),
            &d.estore,
            &d.video,
            &targets,
            &split_config,
            &VFilterConfig::default(),
            Telemetry::disabled(),
        )
        .unwrap()
    };
    let reference = run(1);
    for threads in [2, 4] {
        assert_same(&run(threads), &reference, &format!("threads={threads}"));
    }

    // The one real-thread path against Algorithm 3 on the engine, at
    // the pinned job geometry.
    d.video.reset_usage();
    let engine = MapReduce::new(ClusterConfig {
        workers: 2,
        split_size: 8,
        reduce_partitions: 4,
        ..ClusterConfig::default()
    });
    let mapreduce = parallel_match(
        &engine,
        &d.estore,
        &d.video,
        &targets,
        &split_config,
        &VFilterConfig::default(),
    )
    .unwrap();
    assert_same(&reference, &mapreduce, "dag vs mapreduce");
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
}

#[test]
fn matcher_facade_runs_parallel_mode() {
    let d = dataset();
    let targets = sample_targets(&d, 25, 5);
    let config = MatcherConfig {
        execution: ExecutionMode::Parallel(cluster(3)),
        ..MatcherConfig::default()
    };
    let matcher = EvMatcher::new(&d.estore, &d.video, config);
    let report = matcher.match_many(&targets).unwrap();
    assert_eq!(report.outcomes.len(), 25);
    let stats = score_report(&d, &report);
    assert!(stats.accuracy > 0.7, "{:.1}%", stats.percent());
}
