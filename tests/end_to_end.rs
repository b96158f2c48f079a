//! End-to-end integration: dataset generation → matching → scoring,
//! across the public facade API.

use evmatch::matching::analysis;
use evmatch::matching::setsplit::{split_ideal, SetSplitConfig};
use evmatch::prelude::*;
use evmatch::telemetry::names;
use std::collections::BTreeSet;

fn dataset() -> EvDataset {
    EvDataset::generate(&DatasetConfig {
        population: 150,
        duration: 300,
        ..DatasetConfig::default()
    })
    .expect("valid config")
}

#[test]
fn ss_matches_most_eids_correctly() {
    let d = dataset();
    let targets = sample_targets(&d, 50, 1);
    let matcher = EvMatcher::new(&d.estore, &d.video, MatcherConfig::default());
    let report = matcher.match_many(&targets).unwrap();
    assert_eq!(report.outcomes.len(), 50);
    let stats = score_report(&d, &report);
    assert!(
        stats.accuracy > 0.85,
        "SS accuracy {:.1}% below the paper's band",
        stats.percent()
    );
}

#[test]
fn ss_selects_fewer_scenarios_than_edp() {
    // Scenario reuse needs co-occupancy to bite: use the paper's density
    // regime (several people per cell), not the sparse default above.
    let d = EvDataset::generate(&DatasetConfig {
        population: 400,
        duration: 300,
        ..DatasetConfig::default()
    })
    .expect("valid config");
    let targets = sample_targets(&d, 150, 2);

    d.video.reset_usage();
    let matcher = EvMatcher::new(&d.estore, &d.video, MatcherConfig::default());
    let ss = matcher.match_many(&targets).unwrap();

    d.video.reset_usage();
    let edp = evmatch::matching::edp::match_edp(
        1,
        &d.estore,
        &d.video,
        &targets,
        0,
        Telemetry::disabled(),
    )
    .unwrap();

    assert!(
        ss.selected_count() < edp.selected_count(),
        "scenario reuse must make SS cheaper (SS {} vs EDP {})",
        ss.selected_count(),
        edp.selected_count()
    );
    // And the per-EID list is a little longer for SS (paper Fig. 7).
    assert!(ss.scenarios_per_eid() > edp.scenarios_per_eid() - 0.5);
}

#[test]
fn single_eid_matching_works_without_touching_others() {
    let d = dataset();
    let eid = sample_targets(&d, 1, 3).into_iter().next().unwrap();
    let matcher = EvMatcher::new(&d.estore, &d.video, MatcherConfig::default());
    let report = matcher.match_one(eid).unwrap();
    assert_eq!(report.outcomes.len(), 1);
    let outcome = &report.outcomes[0];
    assert_eq!(outcome.eid, eid);
    assert_eq!(outcome.vid, d.true_vid(eid), "single match must be right");
    // Far fewer scenarios than the corpus.
    assert!(report.selected_count() < d.video.len() / 4);
}

#[test]
fn universal_matching_labels_every_carried_eid() {
    let d = EvDataset::generate(&DatasetConfig {
        population: 80,
        duration: 250,
        ..DatasetConfig::default()
    })
    .unwrap();
    let matcher = EvMatcher::new(&d.estore, &d.video, MatcherConfig::default());
    let report = matcher.match_universal().unwrap();
    // Everyone carries a device and everyone appears in E-data over this
    // duration, so the universal run covers the full roster.
    assert_eq!(report.outcomes.len(), 80);
    let stats = score_report(&d, &report);
    assert!(stats.accuracy > 0.85, "{:.1}%", stats.percent());
}

#[test]
fn theorem_bounds_hold_on_generated_data() {
    let d = dataset();
    let targets: BTreeSet<Eid> = sample_targets(&d, 40, 4);
    let out = split_ideal(&d.estore, &targets, &SetSplitConfig::default());
    let audit = analysis::audit_split(&d.estore, &targets, &out);
    assert!(audit.within_bounds, "{audit:?}");
    assert!(audit.replay_consistent, "{audit:?}");
    assert_eq!(audit.universe, 40);
}

#[test]
fn video_extraction_is_shared_across_eids() {
    let d = dataset();
    let targets = sample_targets(&d, 40, 5);
    d.video.reset_usage();
    let tel = Telemetry::new(TelemetryLevel::Counters);
    let matcher =
        EvMatcher::new(&d.estore, &d.video, MatcherConfig::default()).with_telemetry(&tel);
    let report = matcher.match_many(&targets).unwrap();
    let stats = d.video.stats();
    // Extraction ran once per distinct scenario, not once per (EID, use).
    assert!(stats.extracted_scenarios <= report.selected_count());
    // Reuse lands in the run's gallery cache, upstream of the video
    // store: a scenario serving several EIDs is fetched and regrouped
    // once, and every further use is a gallery hit.
    let gallery_hits = tel.registry().counter(names::VFILTER_GALLERY_HITS).get();
    assert!(
        gallery_hits + stats.cache_hits > 0,
        "scenario reuse must produce cache hits"
    );
}

#[test]
fn match_report_serializes() {
    let d = dataset();
    let targets = sample_targets(&d, 10, 6);
    let matcher = EvMatcher::new(&d.estore, &d.video, MatcherConfig::default());
    let report = matcher.match_many(&targets).unwrap();
    let json = serde_json::to_string(&report).unwrap();
    let back: MatchReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back.outcomes, report.outcomes);
    assert_eq!(back.selected_scenarios, report.selected_scenarios);
}

/// Pins what a match asserts — outcomes, lists, selected scenarios —
/// across rewrites of the set-splitting layer, by the benchmark adapter's
/// recipe (FNV-1a over the `Debug` rendering, which prints floats
/// exactly). The `Dag(2)` constant came from a build of 687de3f, the
/// commit before `EidCover`; the two sequential ones were re-pinned when
/// the sequential splitter stopped padding lists, then when Algorithm 2's
/// E-filter extension began trying already-selected footage first. All
/// three were re-pinned when the uniqueness pass, which both modes run,
/// began buying fresh footage by one greedy cover over every pending EID,
/// and again when the split began pruning list entries that narrow no
/// co-presence set and rounds ≥ 2 began splitting on footage already
/// extracted. A change here means a report changed, not that the pins need
/// refreshing.
#[test]
fn report_digests_are_pinned_across_modes() {
    let d = EvDataset::generate(&DatasetConfig {
        population: 150,
        duration: 200,
        seed: 5,
        ..DatasetConfig::paper()
    })
    .expect("valid config");
    let targets = sample_targets(&d, 30, 5);
    let digest = |mode, execution| {
        let config = MatcherConfig {
            mode,
            execution,
            ..MatcherConfig::default()
        };
        let matcher = EvMatcher::new(&d.estore, &d.video, config);
        let r = matcher.match_many(&targets).unwrap();
        let text = format!("{:?}{:?}{:?}", r.outcomes, r.lists, r.selected_scenarios);
        text.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    };
    use ExecutionMode::{Dag, Sequential};
    assert_eq!(
        [
            digest(SplitMode::Practical, Sequential),
            digest(SplitMode::Ideal, Sequential),
            digest(SplitMode::Practical, Dag(2)),
        ],
        [
            0xea58_28c0_f9f6_f5a8,
            0x58b0_6390_3bc2_df8a,
            // One pipeline: the pooled report is the sequential one.
            0xea58_28c0_f9f6_f5a8
        ],
    );
}
