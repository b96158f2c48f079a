//! The parallel pipelines must compute the same thing as their
//! sequential runs, deterministically: the EDP baseline at any pool
//! width, and the matcher with every round's walk scored on `par_map`
//! (Algorithm 3), at any thread count.

use evmatch::matching::edp::match_edp;
use evmatch::matching::practical::split_practical;
use evmatch::matching::setsplit::SetSplitConfig;
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

/// One match over `d` on `threads` threads (`Dag(threads)`) with a
/// fresh extraction cache.
fn run_dag(
    d: &EvDataset,
    targets: &std::collections::BTreeSet<Eid>,
    threads: usize,
    seed: u64,
) -> MatchReport {
    d.video.reset_usage();
    let pipeline = MatcherConfig {
        split: SetSplitConfig { seed },
        execution: ExecutionMode::Dag(threads),
        ..MatcherConfig::default()
    };
    EvMatcher::new(&d.estore, &d.video, pipeline)
        .match_many(targets)
        .expect("dag pipeline")
}

/// `match_many` over `d` in `mode` on the given execution mode, with a
/// fresh extraction cache.
fn run_matcher(
    d: &EvDataset,
    targets: &std::collections::BTreeSet<Eid>,
    mode: SplitMode,
    execution: ExecutionMode,
) -> MatchReport {
    d.video.reset_usage();
    let config = MatcherConfig {
        mode,
        execution,
        ..MatcherConfig::default()
    };
    let matcher = EvMatcher::new(&d.estore, &d.video, config);
    matcher.match_many(targets).expect("matching pipeline")
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
    let run = |threads| {
        d.video.reset_usage();
        match_edp(
            threads,
            &d.estore,
            &d.video,
            &targets,
            0,
            Telemetry::disabled(),
        )
        .unwrap()
    };
    let sequential = run(1);
    for threads in [2, 4] {
        assert_same(&run(threads), &sequential, &format!("threads={threads}"));
    }
}

#[test]
fn dag_match_accuracy_is_comparable_to_sequential() {
    let d = dataset();
    let targets = sample_targets(&d, 40, 4);

    d.video.reset_usage();
    let matcher = EvMatcher::new(&d.estore, &d.video, MatcherConfig::default());
    let sequential = matcher.match_many(&targets).unwrap();
    let seq_stats = score_report(&d, &sequential);

    let par = run_dag(&d, &targets, 4, 0);
    let par_stats = score_report(&d, &par);

    assert_same(&par, &sequential, "Dag(4)");
    assert_eq!(par_stats.accuracy, seq_stats.accuracy);
    assert!(par_stats.accuracy > 0.7, "{:.1}%", par_stats.percent());
}

/// One pipeline: `Sequential` and `Dag(1)`, `Dag(2)` and `Dag(4)` give
/// one report — outcomes, lists, selected scenarios and rounds — in
/// both split modes.
#[test]
fn every_thread_count_gives_the_sequential_report() {
    let d = dataset();
    let targets = sample_targets(&d, 40, 5);
    for mode in [SplitMode::Practical, SplitMode::Ideal] {
        let run = |execution| run_matcher(&d, &targets, mode, execution);
        let sequential = run(ExecutionMode::Sequential);
        for threads in [1, 2, 4] {
            let dag = run(ExecutionMode::Dag(threads));
            assert_same(&dag, &sequential, &format!("{mode:?}: Dag({threads})"));
        }
    }
}

#[test]
fn dag_report_is_byte_identical_across_thread_counts() {
    let d = dataset();
    let targets = sample_targets(&d, 40, 6);
    let run = |threads| run_dag(&d, &targets, threads, 11);
    let reference = run(1);
    for threads in [2, 4] {
        assert_same(&run(threads), &reference, &format!("threads={threads}"));
    }
}

/// Every round's scoring runs inside DAG tasks; its scorers must count
/// into the run's telemetry as the sequential refine loop's do, and the
/// counts are the same at every pool width. Each EID of a wave is
/// scored before the wave's own locks, so a pool counts at least the
/// inline walk's candidates (one thread runs the walk inline), but
/// fewer than scoring round 1's lists with nothing excluded would —
/// once round 1 spans more than one wave of the walk (64 EIDs), hence
/// 100 targets. Feature blocks are packed on
/// the calling thread, once per gallery fetch, at every width.
#[test]
fn dag_v_stage_exports_its_counters_at_every_thread_count() {
    let d = dataset();
    let targets = sample_targets(&d, 100, 7);
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
    assert!(blocks > 0, "the walk counted no feature blocks");
    for threads in [3, 4] {
        assert_eq!(counters(threads), (scored, blocks), "threads={threads}");
    }
    let (inline_scored, inline_blocks) = counters(1);
    assert!(inline_scored <= scored, "{inline_scored} > {scored}");
    assert_eq!(inline_blocks, blocks, "one block per gallery fetch");

    // Eager scoring: every quorum candidate of round 1's lists — VIDs
    // present in at least half of a list's footage-bearing scenarios.
    let round_1 = split_practical(&d.estore, &targets, &SetSplitConfig::default());
    let eager: u64 = (round_1.lists.values())
        .map(|list| {
            let footage: Vec<_> = list.iter().filter_map(|&id| d.video.extract(id)).collect();
            let mut presence = std::collections::BTreeMap::new();
            for scenario in &footage {
                let vids: std::collections::BTreeSet<_> =
                    scenario.detections().iter().map(|det| det.vid).collect();
                for vid in vids {
                    *presence.entry(vid).or_insert(0) += 1;
                }
            }
            let quorum = footage.len().div_ceil(2);
            presence.values().filter(|&&n| n >= quorum).count() as u64
        })
        .sum();
    assert!(scored < eager, "{scored} >= {eager} scored eagerly");
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
    // Both stages are reported.
    assert!(report.timings.e_stage > std::time::Duration::ZERO);
    assert!(report.timings.v_stage > std::time::Duration::ZERO);
}

/// One run epilogue, one meaning: on one corpus the sequential pipeline
/// and the pooled one export the gallery counters and the run gauges
/// under the same names, and the same gallery counts — `misses` the
/// galleries the run extracted plus the listed scenarios that have no
/// footage to extract, `hits + misses` every scenario-list entry a V
/// stage was handed — whether the inline walk filled the run's
/// `GalleryCache` or round 1's extract partitions seeded it.
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
    let mut gallery_counts = Vec::new();
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
        // Refinement rounds hand an EID's list to the V stage again; the
        // report keeps the one its outcome came from.
        let entries = listed.count() as u64;
        assert!(hits + misses >= entries, "{execution:?}: {hits} + {misses}");
        gallery_counts.push((hits, misses));
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
    assert_eq!(gallery_counts[0], gallery_counts[1], "(hits, misses)");
}
