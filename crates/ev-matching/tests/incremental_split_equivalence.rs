//! Certifies the streaming Algorithm-1 delta-update against a
//! from-scratch rebuild: for any chronological scenario pool, absorbing
//! it as an arbitrary sequence of time-ordered ingest batches must
//! leave `IncrementalSplit` in exactly the state `split_ideal` computes
//! over the final store — partition, recorded splitters, lists,
//! and examined counts alike.

use ev_core::ids::Eid;
use ev_core::region::CellId;
use ev_core::scenario::{EScenario, ZoneAttr};
use ev_core::time::Timestamp;
use ev_matching::incremental::IncrementalSplit;
use ev_matching::setsplit::{split_ideal, SelectionStrategy, SetSplitConfig};
use ev_store::EScenarioStore;
use ev_telemetry::Telemetry;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;

/// A chronological scenario pool: one pass over `times × cells`, each
/// scenario holding a random cohort of `people`. Returned in id order,
/// so any prefix/suffix cut respects the streaming splice contract.
fn scenario_pool(seed: u64, cells: usize, times: u64, people: u64) -> Vec<EScenario> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut pool = Vec::new();
    for t in 0..times {
        for c in 0..cells {
            let mut e = EScenario::new(CellId::new(c), Timestamp::new(t));
            for p in 0..people {
                if rng.gen_bool(1.0 / cells as f64) {
                    let attr = if rng.gen_bool(0.85) {
                        ZoneAttr::Inclusive
                    } else {
                        ZoneAttr::Vague
                    };
                    e.insert(Eid::from_u64(p), attr);
                }
            }
            if !e.is_empty() {
                pool.push(e);
            }
        }
    }
    pool
}

fn chrono_config() -> SetSplitConfig {
    SetSplitConfig {
        strategy: SelectionStrategy::Chronological,
    }
}

/// Splits `pool` into batches at the given cut fractions, streams the
/// batches through store ingest + `IncrementalSplit::absorb`, and
/// asserts the final output equals the from-scratch `split_ideal`.
fn assert_delta_equivalence(pool: Vec<EScenario>, cuts: &[f64], n_targets: u64) {
    let targets: BTreeSet<Eid> = (0..n_targets).map(Eid::from_u64).collect();
    let config = chrono_config();

    let full_store = EScenarioStore::from_scenarios(pool.clone());
    let expected = split_ideal(&full_store, &targets, &config);

    // Cut points, sorted and deduplicated, as indices into the pool.
    let mut idx: Vec<usize> = cuts
        .iter()
        .map(|f| ((pool.len() as f64) * f) as usize)
        .collect();
    idx.push(pool.len());
    idx.sort_unstable();
    idx.dedup();

    let mut store = EScenarioStore::from_scenarios(Vec::new());
    let mut live = IncrementalSplit::new(&targets, &config);
    let mut start = 0usize;
    for &end in &idx {
        let batch: Vec<EScenario> = pool[start..end].to_vec();
        start = end;
        let receipt = store.ingest(batch);
        assert!(!receipt.rebuilt, "time-ordered batches must splice");
        live.absorb(&store, Telemetry::disabled());
    }

    assert_eq!(store.len(), full_store.len());
    let actual = live.output(&store);
    assert_eq!(
        actual, expected,
        "delta-updated split must equal from-scratch rebuild"
    );
    assert_eq!(live.is_fully_split(), expected.fully_split());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary worlds, arbitrary batch boundaries.
    #[test]
    fn incremental_split_equals_rebuild(
        seed in 0u64..1000,
        cells in 2usize..5,
        times in 4u64..14,
        people in 4u64..14,
        n_targets in 2u64..8,
        cut_a in 0.0f64..1.0,
        cut_b in 0.0f64..1.0,
    ) {
        let pool = scenario_pool(seed, cells, times, people);
        assert_delta_equivalence(pool, &[cut_a, cut_b], n_targets);
    }
}

/// One batch per scenario — the finest-grained streaming schedule.
#[test]
fn scenario_at_a_time_streaming_equals_rebuild() {
    let pool = scenario_pool(7, 3, 10, 10);
    let cuts: Vec<f64> = (0..pool.len())
        .map(|i| i as f64 / pool.len() as f64)
        .collect();
    assert_delta_equivalence(pool, &cuts, 6);
}

/// Once fully split, further absorbs must be no-ops that keep
/// equivalence (the from-scratch run stops at the same scenario).
#[test]
fn absorb_after_full_split_is_a_noop() {
    let targets: BTreeSet<Eid> = (0..3).map(Eid::from_u64).collect();
    let config = chrono_config();
    let pool = scenario_pool(3, 3, 8, 8);
    let full_store = EScenarioStore::from_scenarios(pool.clone());
    let expected = split_ideal(&full_store, &targets, &config);

    let half = pool.len() / 2;
    let mut store = EScenarioStore::from_scenarios(pool[..half].to_vec());
    let mut live = IncrementalSplit::new(&targets, &config);
    live.absorb(&store, Telemetry::disabled());
    let was_fully_split = live.is_fully_split();
    store.ingest(pool[half..].to_vec());
    let stats = live.absorb(&store, Telemetry::disabled());
    if was_fully_split {
        assert_eq!(stats.scenarios_absorbed, 0, "fully split: no more work");
    }
    assert_eq!(live.output(&store), expected);
}
