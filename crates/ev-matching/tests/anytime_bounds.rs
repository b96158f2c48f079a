//! Soundness of the anytime matcher's partial results
//! (`DESIGN.md §8`): across randomized corpora, knobs and metrics,
//!
//! * `converged == true` ⇒ the early-terminated VID equals the
//!   full-scan VID,
//! * otherwise (and always) the vote-share interval brackets the exact
//!   winner's share,
//! * a larger scoring budget never widens the interval,
//! * and the interval degenerates to the exact share at convergence
//!   with full settlement.

use ev_core::feature::{FeatureVector, Metric};
use ev_core::ids::{Eid, Vid};
use ev_core::region::CellId;
use ev_core::scenario::{Detection, ScenarioId, VScenario};
use ev_core::time::Timestamp;
use ev_matching::anytime::{AnytimeConfig, PartialMatchOutcome};
use ev_matching::vfilter::{GalleryCache, VFilterConfig, VStage};
use ev_matching::{MatchOutcome, ScenarioList};
use ev_store::VideoStore;
use ev_telemetry::Telemetry;
use ev_vision::cost::CostModel;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;

const EPS: f64 = 1e-12;

fn stage<'a>(
    video: &'a VideoStore,
    config: &'a VFilterConfig,
    cache: &'a mut GalleryCache,
) -> VStage<'a> {
    VStage {
        video,
        config,
        cache,
        telemetry: Telemetry::disabled(),
    }
}

fn filter_one(
    eid: Eid,
    list: &ScenarioList,
    video: &VideoStore,
    config: &VFilterConfig,
    excluded: &BTreeSet<Vid>,
) -> MatchOutcome {
    stage(video, config, &mut GalleryCache::new()).filter_one(eid, list, excluded)
}

fn partial_filter_one(
    eid: Eid,
    list: &ScenarioList,
    video: &VideoStore,
    config: &VFilterConfig,
    excluded: &BTreeSet<Vid>,
) -> PartialMatchOutcome {
    stage(video, config, &mut GalleryCache::new()).filter_partial(eid, list, excluded)
}

/// A random V-world: `people` persons with clustered appearances walk
/// through `scenarios` galleries; every person appears in each scenario
/// with probability `presence`. Returns the store and the full list.
fn random_world(
    seed: u64,
    people: u64,
    scenarios: usize,
    presence: f64,
) -> (VideoStore, Vec<ScenarioId>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let dim = 3;
    let anchors: Vec<Vec<f64>> = (0..people)
        .map(|_| (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect();
    let mut vs = Vec::new();
    let mut list = Vec::new();
    for t in 0..scenarios {
        let mut v = VScenario::new(CellId::new(0), Timestamp::new(t as u64));
        for p in 0..people {
            if rng.gen_bool(presence) {
                let f: Vec<f64> = anchors[p as usize]
                    .iter()
                    .map(|&a| a + rng.gen_range(-0.05..0.05))
                    .collect();
                v.push(Detection {
                    vid: Vid::new(p),
                    feature: FeatureVector::from_clamped(f),
                });
            }
        }
        list.push(ScenarioId::new(Timestamp::new(t as u64), CellId::new(0)));
        vs.push(v);
    }
    (VideoStore::new(vs, CostModel::free()), list)
}

fn metric_of(pick: usize) -> Metric {
    [Metric::NormalizedL2, Metric::NormalizedL1, Metric::Cosine][pick % 3]
}

proptest! {
    /// The headline soundness contract of `PartialMatchOutcome`.
    #[test]
    fn partial_bounds_are_sound(
        seed in 0u64..60,
        people in 2u64..6,
        scenarios in 1usize..9,
        metric_pick in 0usize..3,
        confidence in 0.0f64..1.0,
        budget_raw in 0usize..11,
    ) {
        // 0 means "no budget"; n > 0 means a budget of n - 1 scenarios.
        let budget = budget_raw.checked_sub(1);
        let (video, list) = random_world(seed, people, scenarios, 0.7);
        let exact_cfg = VFilterConfig {
            metric: metric_of(metric_pick),
            ..VFilterConfig::default()
        };
        let exact = filter_one(
            Eid::from_u64(1), &list, &video, &exact_cfg, &BTreeSet::new(),
        );
        let anytime_cfg = VFilterConfig {
            anytime: Some(AnytimeConfig {
                confidence,
                budget_scenarios: budget,
            }),
            ..exact_cfg
        };
        let partial = partial_filter_one(
            Eid::from_u64(1), &list, &video, &anytime_cfg, &BTreeSet::new(),
        );

        // Interval shape.
        prop_assert!(partial.vote_share_low <= partial.vote_share_high + EPS);
        prop_assert!(partial.vote_share_low >= -EPS);
        prop_assert!(partial.vote_share_high <= 1.0 + EPS);
        prop_assert!(partial.scenarios_scored <= partial.scenarios_total);
        prop_assert!(!partial.outcome.vote_share.is_nan());

        // The interval brackets the exact winner's share, converged or
        // not (for a NoEvidence exact outcome the share is 0 and the
        // interval is degenerate at 0).
        prop_assert!(
            partial.vote_share_low <= exact.vote_share + EPS,
            "low {} > exact {}", partial.vote_share_low, exact.vote_share
        );
        prop_assert!(
            partial.vote_share_high >= exact.vote_share - EPS,
            "high {} < exact {}", partial.vote_share_high, exact.vote_share
        );

        // Early termination never changes a converged answer.
        if partial.converged {
            prop_assert_eq!(
                partial.vid, exact.vid,
                "converged but diverged from the full scan"
            );
            // Full settlement at convergence pins the share exactly.
            if partial.scenarios_scored == partial.scenarios_total {
                prop_assert!((partial.vote_share_low - exact.vote_share).abs() <= EPS);
                prop_assert!((partial.vote_share_high - exact.vote_share).abs() <= EPS);
            }
        }
    }

    /// More budget can only tighten (never widen) the interval: runs
    /// are identical until the smaller budget stalls.
    #[test]
    fn budget_tightens_monotonically(
        seed in 0u64..40,
        people in 2u64..5,
        scenarios in 2usize..8,
        confidence in 0.0f64..1.0,
    ) {
        let (video, list) = random_world(seed, people, scenarios, 0.7);
        let mut last_width = f64::INFINITY;
        for budget in 0..=scenarios {
            let cfg = VFilterConfig {
                anytime: Some(AnytimeConfig {
                    confidence,
                    budget_scenarios: Some(budget),
                }),
                ..VFilterConfig::default()
            };
            let partial = partial_filter_one(
                Eid::from_u64(1), &list, &video, &cfg, &BTreeSet::new(),
            );
            let width = partial.vote_share_high - partial.vote_share_low;
            prop_assert!(
                width <= last_width + EPS,
                "budget {budget} widened the interval: {width} > {last_width}"
            );
            last_width = width;
        }
    }

    /// Delegation parity: a non-approximate anytime config must leave
    /// `filter_one` bit-identical to a config with no anytime at all,
    /// and `--confidence 1.0` therefore costs nothing in fidelity.
    #[test]
    fn confidence_one_is_exactly_the_exact_path(
        seed in 0u64..40,
        people in 2u64..5,
        scenarios in 1usize..8,
    ) {
        let (video, list) = random_world(seed, people, scenarios, 0.7);
        let exact = filter_one(
            Eid::from_u64(1), &list, &video,
            &VFilterConfig::default(), &BTreeSet::new(),
        );
        let routed = filter_one(
            Eid::from_u64(1), &list, &video,
            &VFilterConfig {
                anytime: Some(AnytimeConfig::with_confidence(1.0)),
                ..VFilterConfig::default()
            },
            &BTreeSet::new(),
        );
        prop_assert_eq!(exact, routed);
    }
}
