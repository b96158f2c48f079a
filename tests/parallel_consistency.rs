//! The parallel pipelines must compute the same thing as their
//! sequential references, deterministically: the parallel EDP baseline
//! and the stage DAG (Algorithm 3) at any thread count and under
//! injected worker loss.

use evmatch::dag::{DagConfig, FaultPlan};
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
    let sequential = match_edp(&d.estore, &d.video, &targets, &config).unwrap();
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
/// exactly the lost partitions (tasks = clean + retries) and the final
/// report must not change.
#[test]
fn worker_loss_recomputes_only_lost_partitions() {
    let d = dataset();
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
    assert!(retries > 0, "a 25% failure rate must lose partitions");
    assert_eq!(
        tasks,
        clean_tasks + retries,
        "only lost partitions reran — untouched partitions were not resubmitted"
    );
}

/// The V stage runs inside DAG tasks; its scorers must count into the
/// run's telemetry exactly as the sequential refine loop's do, and the
/// counts are part of the thread-count-invariant result.
#[test]
fn dag_v_stage_exports_its_counters_at_every_thread_count() {
    let d = dataset();
    let targets = sample_targets(&d, 25, 7);
    let counters = |threads| {
        d.video.reset_usage();
        let tel = Telemetry::new(TelemetryLevel::Counters);
        let config = MatcherConfig {
            execution: ExecutionMode::Dag(threads),
            ..MatcherConfig::default()
        };
        EvMatcher::new(&d.estore, &d.video, config)
            .with_telemetry(&tel)
            .match_many(&targets)
            .unwrap();
        let counter = |name| tel.registry().counter(name).get();
        (
            counter(names::VFILTER_CANDIDATES_SCORED),
            counter(names::KERNEL_BLOCKS_BUILT),
        )
    };
    let (scored, blocks) = counters(2);
    assert!(scored > 0, "dag_score counted no candidates");
    assert!(blocks > 0, "dag_score counted no feature blocks");
    for threads in [1, 4] {
        assert_eq!(counters(threads).0, scored, "threads={threads}");
    }
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

/// One run epilogue, one meaning: on one corpus the sequential pipeline
/// and the stage DAG export the gallery counters and the run gauges
/// under the same names, and the gallery counters mean the same thing —
/// `misses` the galleries the run extracted plus the listed scenarios
/// that have no footage to extract, `hits + misses` every
/// scenario-list entry its `filter_one` calls were handed — whether one
/// `GalleryCache` served the batch or each DAG scorer had its own.
#[test]
fn both_execution_modes_end_in_the_same_epilogue() {
    let d = dataset();
    let targets = sample_targets(&d, 25, 7);
    let written_by_the_epilogue = [
        names::VFILTER_GALLERY_HITS,
        names::VFILTER_GALLERY_MISSES,
        names::STAGE_E_SECONDS,
        names::STAGE_V_SECONDS,
        names::RECORDED_SCENARIOS,
        names::THEOREM_LOWER_BOUND,
        names::THEOREM_UPPER_BOUND,
        names::FULLY_SPLIT,
    ];
    let mut exported = Vec::new();
    for execution in [ExecutionMode::Sequential, ExecutionMode::Dag(2)] {
        d.video.reset_usage();
        let tel = Telemetry::new(TelemetryLevel::Counters);
        let config = MatcherConfig {
            execution: execution.clone(),
            ..MatcherConfig::default()
        };
        let report = EvMatcher::new(&d.estore, &d.video, config)
            .with_telemetry(&tel)
            .match_many(&targets)
            .unwrap();
        let listed = report.lists.values().flatten();
        // A listed scenario without footage is a gallery miss that
        // extracts nothing.
        let footageless: std::collections::BTreeSet<_> = listed
            .clone()
            .filter(|&&id| !d.video.contains(id))
            .collect();
        let counter = |name| tel.registry().counter(name).get();
        let (hits, misses) = (
            counter(names::VFILTER_GALLERY_HITS),
            counter(names::VFILTER_GALLERY_MISSES),
        );
        assert_eq!(
            misses,
            d.video.stats().extracted_scenarios as u64 + footageless.len() as u64,
            "{execution:?}: a miss is a gallery the run extracted or found empty"
        );
        // Refinement rounds and conflict re-filtering hand lists to
        // `filter_one` again; the report keeps each EID's last one.
        let entries = listed.count() as u64;
        assert!(hits + misses >= entries, "{execution:?}: {hits} + {misses}");
        let snapshot = tel.registry().snapshot();
        let names: Vec<&str> = (written_by_the_epilogue.iter().copied())
            .filter(|&name| {
                snapshot.counters.contains_key(name) || snapshot.gauges.contains_key(name)
            })
            .collect();
        exported.push(names);
    }
    assert_eq!(exported[0], written_by_the_epilogue);
    assert_eq!(exported[1], written_by_the_epilogue);
}

/// Algorithm 3 has no ideal reading; asking for one is an error, not a
/// practical run that says nothing.
#[test]
fn ideal_mode_under_the_dag_is_an_invalid_configuration() {
    let d = dataset();
    let config = MatcherConfig {
        mode: SplitMode::Ideal,
        execution: ExecutionMode::Dag(2),
        ..MatcherConfig::default()
    };
    let matcher = EvMatcher::new(&d.estore, &d.video, config);
    let refused = matcher.match_many(&sample_targets(&d, 5, 7));
    assert!(
        matches!(refused, Err(evmatch::dag::JobError::InvalidConfig(_))),
        "{refused:?}"
    );
}
