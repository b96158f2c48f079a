//! Certifies the gallery cache against the uncached reference, and pins
//! the Theorem 4.2/4.4 scenario-count bounds.
//!
//! The contract under test: `filter_vids_cached` must produce
//! **identical** outputs (`==` on every field, including float scores
//! and list orders) to a fresh gallery per EID, across seeds — and the V
//! stage's one exclusion loop is the loop both the harness and
//! refinement run.

use ev_core::feature::FeatureVector;
use ev_core::ids::{Eid, Vid};
use ev_core::region::CellId;
use ev_core::scenario::{Detection, EScenario, VScenario, ZoneAttr};
use ev_core::time::Timestamp;
use ev_matching::refine::SplitMode;
use ev_matching::setsplit::{split_ideal, SetSplitConfig, SplitOutput};
use ev_matching::vfilter::{filter_vids_cached, GalleryCache, VFilterConfig, VStage};
use ev_matching::{EvMatcher, MatchOutcome, MatcherConfig};
use ev_store::{EScenarioStore, VideoStore};
use ev_telemetry::Telemetry;
use ev_vision::cost::CostModel;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;

/// A random E/V world: `people` persons wander a `cells`-cell corridor
/// for `times` steps; each scenario holds a random cohort and the
/// matching footage (VID = EID number, one-hot-ish features).
fn random_world(seed: u64, cells: usize, times: u64, people: u64) -> (EScenarioStore, VideoStore) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut es = Vec::new();
    let mut vs = Vec::new();
    for t in 0..times {
        for c in 0..cells {
            let mut e = EScenario::new(CellId::new(c), Timestamp::new(t));
            let mut v = VScenario::new(CellId::new(c), Timestamp::new(t));
            for p in 0..people {
                if rng.gen_bool(1.0 / cells as f64) {
                    e.insert(Eid::from_u64(p), ZoneAttr::Inclusive);
                    let mut f = vec![0.05; people as usize];
                    f[p as usize] = 0.9 + rng.gen_range(0.0..0.05);
                    v.push(Detection {
                        vid: Vid::new(p),
                        feature: FeatureVector::new(f).unwrap(),
                    });
                }
            }
            if !e.is_empty() {
                es.push(e);
                vs.push(v);
            }
        }
    }
    (
        EScenarioStore::from_scenarios(es),
        VideoStore::new(vs, CostModel::free()),
    )
}

fn stage<'a>(video: &'a VideoStore, cache: &'a mut GalleryCache) -> VStage<'a> {
    VStage {
        video,
        cache,
        telemetry: Telemetry::disabled(),
    }
}

fn targets(n: u64) -> BTreeSet<Eid> {
    (0..n).map(Eid::from_u64).collect()
}

#[test]
fn cached_vfilter_is_identical_to_the_uncached_reference() {
    for world_seed in [1, 2, 3] {
        let (store, video) = random_world(world_seed, 4, 12, 16);
        let split = split_ideal(&store, &targets(16), &SetSplitConfig::default());
        let cfg = VFilterConfig::default();
        video.reset_usage();
        let cached = filter_vids_cached(&split.lists, &video, &cfg, &mut GalleryCache::new());
        // The uncached side: the same longest-list-first order, but a
        // fresh gallery per EID, so every list entry re-extracts and
        // regroups.
        video.reset_usage();
        let mut order: Vec<_> = split.lists.iter().collect();
        order.sort_by_key(|(eid, list)| (std::cmp::Reverse(list.len()), **eid));
        let mut excluded = BTreeSet::new();
        let mut uncached: Vec<MatchOutcome> = Vec::new();
        for (&eid, list) in order {
            let outcome = stage(&video, &mut GalleryCache::new()).filter_one(eid, list, &excluded);
            if outcome.is_majority() {
                excluded.extend(outcome.vid);
            }
            uncached.push(outcome);
        }
        uncached.sort_by_key(|o| o.eid);
        assert_eq!(cached, uncached, "divergence: world {world_seed}");
    }
}

/// The loop the harness times is the loop the matcher runs: on a
/// generated corpus `filter_vids_cached` is `filter_longest_first`
/// locking in majorities, and one refinement round's outcomes are
/// `filter_longest_first` locking in confident matches over that
/// round's split.
#[test]
fn one_exclusion_loop_serves_the_harness_and_refinement() {
    for world_seed in [4, 5, 6] {
        let (store, video) = random_world(world_seed, 4, 12, 16);
        let split = split_ideal(&store, &targets(16), &SetSplitConfig::default());
        let cfg = VFilterConfig::default();
        let by_eid = |mut outcomes: Vec<MatchOutcome>| {
            outcomes.sort_by_key(|o| o.eid);
            outcomes
        };

        let majorities = stage(&video, &mut GalleryCache::new())
            .filter_longest_first(
                &split.lists,
                &mut BTreeSet::new(),
                MatchOutcome::is_majority,
                None,
            )
            .unwrap();
        assert_eq!(
            by_eid(majorities),
            filter_vids_cached(&split.lists, &video, &cfg, &mut GalleryCache::new()),
            "world {world_seed}"
        );

        let one_round = MatcherConfig {
            mode: SplitMode::Ideal,
            max_rounds: 1,
            ..MatcherConfig::default()
        };
        let report = EvMatcher::new(&store, &video, one_round)
            .match_many(&targets(16))
            .unwrap();
        assert_eq!(report.lists, split.lists, "world {world_seed}");
        let confident = stage(&video, &mut GalleryCache::new())
            .filter_longest_first(
                &split.lists,
                &mut BTreeSet::new(),
                MatchOutcome::is_confident,
                None,
            )
            .unwrap();
        assert_eq!(report.outcomes, by_eid(confident), "world {world_seed}");
    }
}

/// A store of "bit" scenarios over `2^k` targets: scenario `b` holds the
/// EIDs whose `b`-th bit is set. Fully splits with exactly `k` recorded
/// scenarios — Theorem 4.4's `log n` lower bound, achieved.
fn bit_store(k: u32) -> EScenarioStore {
    let n = 1u64 << k;
    let scenarios = (0..k)
        .map(|b| {
            let mut e = EScenario::new(CellId::new(b as usize), Timestamp::new(u64::from(b)));
            for p in (0..n).filter(|p| p & (1 << b) != 0) {
                e.insert(Eid::from_u64(p), ZoneAttr::Inclusive);
            }
            e
        })
        .collect();
    EScenarioStore::from_scenarios(scenarios)
}

/// A "chain" store over `n` targets: scenario `i` holds EIDs `0..=i`.
/// Every scenario carves off exactly one EID — Theorem 4.2's `n - 1`
/// upper bound, achieved.
fn chain_store(n: u64) -> EScenarioStore {
    let scenarios = (0..n - 1)
        .map(|i| {
            let mut e = EScenario::new(CellId::new(0), Timestamp::new(i));
            for p in 0..=i {
                e.insert(Eid::from_u64(p), ZoneAttr::Inclusive);
            }
            e
        })
        .collect();
    EScenarioStore::from_scenarios(scenarios)
}

fn fully_split_count(store: &EScenarioStore, n: u64, seed: u64) -> SplitOutput {
    let out = split_ideal(store, &targets(n), &SetSplitConfig { seed });
    assert!(out.fully_split(), "store must fully split {n} targets");
    out
}

/// Every scenario of both stores is effective whatever the order, so the
/// counts hold under any seed.
#[test]
fn theorem_bounds_are_tight_at_both_ends() {
    for seed in [0, 1, 7] {
        for k in [2u32, 3, 4, 5] {
            let n = 1u64 << k;
            let best = fully_split_count(&bit_store(k), n, seed);
            assert_eq!(
                best.recorded.len(),
                k as usize,
                "bit store: exactly log2(n) scenarios (seed {seed})"
            );
            let worst = fully_split_count(&chain_store(n), n, seed);
            assert_eq!(
                worst.recorded.len(),
                (n - 1) as usize,
                "chain store: exactly n - 1 scenarios (seed {seed})"
            );
        }
    }
}

proptest! {
    /// Theorem 4.2 / 4.4: whenever splitting fully distinguishes `n`
    /// targets, `ceil(log2 n) <= #recorded <= n - 1`.
    #[test]
    fn fully_split_recorded_counts_respect_both_bounds(
        world_seed in 0u64..50,
        seed in any::<u64>(),
    ) {
        let n = 12u64;
        let (store, _) = random_world(world_seed, 3, 16, n);
        let out = split_ideal(&store, &targets(n), &SetSplitConfig { seed });
        prop_assert!(out.recorded.len() < n as usize, "upper bound n - 1");
        if out.fully_split() {
            let log_n = (n as f64).log2().ceil() as usize;
            prop_assert!(
                out.recorded.len() >= log_n,
                "lower bound log2(n): {} < {log_n}",
                out.recorded.len()
            );
        }
    }
}
