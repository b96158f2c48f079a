//! Incremental matching and partition maintenance over a growing
//! corpus.
//!
//! Surveillance data never stops arriving, and this module holds the
//! two pieces that keep pace with it without re-running the batch
//! pipeline from scratch:
//!
//! 1. **Report-level reuse** — [`update_matches`] keeps the matches of
//!    a previous run that are still confident and re-runs the pipeline
//!    only for the EIDs that need it (newly requested ones and
//!    previously ambiguous ones), with the kept VIDs excluded from
//!    candidacy so incremental runs cannot steal an established
//!    identity.
//! 2. **Partition-level delta-updates** — [`IncrementalSplit`] keeps
//!    the live state of a chronological Algorithm-1 run (the splitting
//!    loop's own state — the EID cover, the recorded splitters, the
//!    pre-padding scenario lists — plus the frontier it has walked to)
//!    so that freshly ingested scenarios *refine the existing blocks*
//!    instead of recomputing the whole split. This is the engine behind
//!    the streaming `evmatch serve` mode.
//!
//! # The delta-update rule
//!
//! [`SelectionStrategy::Chronological`] examines scenarios in
//! [`ScenarioId`] order — which is time-major, because `ScenarioId`
//! orders by `(time, cell)`. A streaming ingest only ever appends
//! scenarios with ids strictly greater than everything already stored
//! (that is the contract of `EScenarioStore::ingest`'s splice path), so
//! the scenarios a from-scratch run would examine form a *prefix-stable
//! sequence*: appending a batch extends the sequence at the end and
//! changes nothing before it. Since every per-scenario decision of
//! Algorithm 1 depends only on the state accumulated so far and the
//! scenario's own target intersection, feeding just the new suffix to
//! the same step the batch loop runs ([`IncrementalSplit::absorb`])
//! reproduces the from-scratch run exactly:
//!
//! ```text
//! absorb(S₀); absorb(S₁ \ S₀); …; absorb(Sₙ \ Sₙ₋₁)
//!     ≡ split_ideal(Sₙ)            (chronological strategy)
//! ```
//!
//! The loop's stop conditions are monotone — a fully split partition
//! stays fully split, and the examined-scenario cap only fills up — so
//! a run that stopped early stays stopped, again matching the
//! from-scratch behaviour. The equivalence is proptested in
//! `tests/incremental_split_equivalence.rs` against arbitrary
//! prefix/suffix splits of a generated pool.
//!
//! The **padding passes** (anchors, list extension, uniqueness against
//! the universe) are *not* prefix-stable: they consult the whole store
//! at output time. [`IncrementalSplit`] therefore keeps its scenario
//! lists pre-padding and re-runs those passes against the current store
//! in [`IncrementalSplit::output`] — they are cheap relative to the
//! split itself, and running them late is exactly what the batch
//! pipeline does too.
//!
//! Other selection strategies are **not** delta-safe:
//! [`SelectionStrategy::RandomTime`] reshuffles the timestamp draw when
//! the store grows, and [`SelectionStrategy::GreedyBalanced`] may
//! prefer a new scenario over previously chosen ones. Both would need
//! full recomputation, which is why [`IncrementalSplit::new`] insists
//! on the chronological strategy.
//!
//! # Report-level reuse
//!
//! Combine [`update_matches`] with
//! [`EScenarioStore::merged`](ev_store::EScenarioStore::merged) and
//! [`VideoStore::merged`](ev_store::VideoStore::merged) to append an
//! ingest batch:
//!
//! ```text
//! let estore = day1.estore.merged(&day2_estore);
//! let video  = day1.video.merged(&day2_video);
//! let update = update_matches(&old_report, &new_eids, &estore, &video, &config);
//! ```

use crate::refine::{match_with_refinement_excluding, RefineConfig};
use crate::setsplit::{SelectionStrategy, SetSplitConfig, SplitMode, SplitOutput, SplitState};
use crate::types::{MatchOutcome, MatchReport};
use ev_core::ids::{Eid, Vid};
use ev_core::scenario::{EScenario, ScenarioId};
use ev_store::{EScenarioStore, VideoStore};
use ev_telemetry::{names, Telemetry};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// What one [`IncrementalSplit::absorb`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeltaStats {
    /// Scenarios examined by this delta (effective or not).
    pub scenarios_absorbed: usize,
    /// Splitters recorded by this delta.
    pub splitters_recorded: usize,
    /// Net partition blocks created by this delta's refinements.
    pub blocks_split: usize,
}

/// Live state of a chronological Algorithm-1 run that new scenarios
/// refine instead of restarting — see the [module docs](self) for the
/// delta-update rule and its equivalence argument.
///
/// ```
/// use ev_matching::incremental::IncrementalSplit;
/// use ev_matching::setsplit::{split_ideal, SelectionStrategy, SetSplitConfig};
/// # use ev_core::{Eid, ZoneAttr};
/// # use ev_core::region::CellId;
/// # use ev_core::scenario::EScenario;
/// # use ev_core::time::Timestamp;
/// # use ev_store::EScenarioStore;
/// # use std::collections::BTreeSet;
/// # fn scenario(t: u64, c: usize, people: &[u64]) -> EScenario {
/// #     let mut s = EScenario::new(CellId::new(c), Timestamp::new(t));
/// #     for &p in people { s.insert(Eid::from_u64(p), ZoneAttr::Inclusive); }
/// #     s
/// # }
/// let config = SetSplitConfig {
///     strategy: SelectionStrategy::Chronological,
///     ..SetSplitConfig::default()
/// };
/// let targets: BTreeSet<_> = [0u64, 1, 2].map(Eid::from_u64).into();
///
/// // Day 1 comes up short: EIDs 1 and 2 are never separated.
/// let mut store = EScenarioStore::from_scenarios(vec![scenario(0, 0, &[0, 1, 2])]);
/// let mut live = IncrementalSplit::new(&targets, &config);
/// live.absorb(&store);
/// assert!(!live.is_fully_split());
///
/// // Day 2 streams in; only the new scenarios are examined.
/// let delta = store.ingest(vec![scenario(5, 1, &[1]), scenario(6, 0, &[2])]);
/// assert!(!delta.rebuilt, "appends splice, preserving the contract");
/// let stats = live.absorb(&store);
/// assert_eq!(stats.scenarios_absorbed, 2);
/// assert!(live.is_fully_split());
///
/// // The refined state equals a from-scratch rebuild, list padding and all.
/// assert_eq!(live.output(&store), split_ideal(&store, &targets, &config));
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalSplit {
    config: SetSplitConfig,
    /// The splitting loop's state, lists pre-padding: the padding passes
    /// run against the *current* store in [`Self::output`].
    state: SplitState,
    /// The largest scenario id examined so far; the next
    /// [`absorb`](Self::absorb) resumes strictly after it.
    frontier: Option<ScenarioId>,
}

impl IncrementalSplit {
    /// Starts an empty incremental split over `targets`; feed it stores
    /// with [`absorb`](Self::absorb).
    ///
    /// # Panics
    ///
    /// If `config.strategy` is not
    /// [`SelectionStrategy::Chronological`] — the only strategy whose
    /// selection sequence is prefix-stable under appends (see the
    /// [module docs](self)).
    #[must_use]
    pub fn new(targets: &BTreeSet<Eid>, config: &SetSplitConfig) -> Self {
        assert!(
            matches!(config.strategy, SelectionStrategy::Chronological),
            "incremental delta-updates require SelectionStrategy::Chronological"
        );
        IncrementalSplit {
            config: *config,
            state: SplitState::new(targets, SplitMode::Ideal),
            frontier: None,
        }
    }

    /// Whether every target is alone in its block.
    #[must_use]
    pub fn is_fully_split(&self) -> bool {
        self.state.cover.is_fully_split()
    }

    /// Scenarios examined so far (effective or not).
    #[must_use]
    pub fn scenarios_examined(&self) -> usize {
        self.state.examined
    }

    /// Replays Algorithm 1 over the scenarios of `store` beyond the
    /// current frontier, refining existing partition blocks in place.
    ///
    /// The first call (frontier `None`) walks the whole store — that
    /// *is* the from-scratch run. Later calls walk only the appended
    /// suffix. The caller must uphold the splice contract: `store` has
    /// only gained scenarios with ids strictly greater than the
    /// frontier since the last call (`EScenarioStore::ingest` reports
    /// `rebuilt == true` when a batch violated it; rebuild this state
    /// with [`new`](Self::new) + `absorb` in that case).
    pub fn absorb(&mut self, store: &EScenarioStore) -> DeltaStats {
        self.absorb_instrumented(store, Telemetry::disabled())
    }

    /// [`absorb`](Self::absorb) with telemetry: adds the delta's
    /// examined/recorded/split counts to the `evm_incr_*` counters and
    /// updates the partition-blocks gauge.
    pub fn absorb_instrumented(&mut self, store: &EScenarioStore, tel: &Telemetry) -> DeltaStats {
        let (examined, recorded) = (self.state.examined, self.state.recorded.len());
        let blocks_before = self.state.cover.block_count();
        // `store.iter()` / `iter_after` yield id order = the
        // chronological examination order of `split_ideal`.
        let suffix: Box<dyn Iterator<Item = &EScenario>> = match self.frontier {
            Some(f) => Box::new(store.iter_after(f)),
            None => Box::new(store.iter()),
        };
        for scenario in suffix {
            if self.state.done(&self.config) {
                break;
            }
            self.frontier = Some(scenario.id());
            self.state.examine(scenario);
        }

        let blocks = self.state.cover.block_count();
        let stats = DeltaStats {
            scenarios_absorbed: self.state.examined - examined,
            splitters_recorded: self.state.recorded.len() - recorded,
            blocks_split: blocks - blocks_before,
        };
        if tel.counters_on() {
            let registry = tel.registry();
            registry
                .counter(names::INCR_SCENARIOS_ABSORBED)
                .add(stats.scenarios_absorbed as u64);
            registry
                .counter(names::INCR_SPLITTERS_RECORDED)
                .add(stats.splitters_recorded as u64);
            registry
                .counter(names::INCR_BLOCKS_SPLIT)
                .add(stats.blocks_split as u64);
            registry
                .gauge(names::INCR_PARTITION_BLOCKS)
                .set(blocks as f64);
        }
        stats
    }

    /// Materializes the full [`SplitOutput`] by cloning the core state
    /// and running the padding passes (anchors, minimum list length,
    /// uniqueness against the EID universe) over the *current* store —
    /// producing exactly what `split_ideal` over that store would.
    #[must_use]
    pub fn output(&self, store: &EScenarioStore) -> SplitOutput {
        self.state.clone().into_output(store, &self.config, false)
    }
}

/// The result of an incremental update.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IncrementalUpdate {
    /// The combined report: kept matches plus fresh ones, in EID order.
    pub report: MatchReport,
    /// EIDs whose match was kept from the previous run untouched.
    pub kept: BTreeSet<Eid>,
    /// EIDs that were (re-)matched in this update.
    pub rematched: BTreeSet<Eid>,
}

/// Updates a previous matching result against the (grown) corpus.
///
/// * Outcomes of `previous` that are still confident
///   ([`MatchOutcome::is_confident`] under the configured margin) are
///   kept verbatim — their footage has already been paid for.
/// * Everything else — ambiguous previous outcomes and the EIDs in
///   `new_eids` — runs through the full refinement pipeline on the
///   current stores, with the kept VIDs excluded from candidacy.
#[must_use]
pub fn update_matches(
    previous: &MatchReport,
    new_eids: &BTreeSet<Eid>,
    store: &EScenarioStore,
    video: &VideoStore,
    config: &RefineConfig,
) -> IncrementalUpdate {
    let mut kept_outcomes: BTreeMap<Eid, MatchOutcome> = BTreeMap::new();
    let mut pending: BTreeSet<Eid> = new_eids.clone();
    let mut kept_vids: BTreeSet<Vid> = BTreeSet::new();

    for outcome in &previous.outcomes {
        if outcome.is_confident(config.vfilter.min_margin) {
            if let Some(vid) = outcome.vid {
                kept_vids.insert(vid);
            }
            kept_outcomes.insert(outcome.eid, outcome.clone());
        } else {
            pending.insert(outcome.eid);
        }
    }
    // A "new" EID that already has a confident match needs no work.
    pending.retain(|e| !kept_outcomes.contains_key(e));

    let fresh = if pending.is_empty() {
        MatchReport::default()
    } else {
        match_with_refinement_excluding(store, video, &pending, config, &kept_vids)
    };

    // Assemble the combined report.
    let mut report = MatchReport {
        rounds: fresh.rounds.max(1),
        timings: fresh.timings,
        ..MatchReport::default()
    };
    for (eid, list) in &previous.lists {
        if kept_outcomes.contains_key(eid) {
            report.lists.insert(*eid, list.clone());
            report.selected_scenarios.extend(list.iter().copied());
        }
    }
    report
        .selected_scenarios
        .extend(fresh.selected_scenarios.iter().copied());
    for (eid, list) in &fresh.lists {
        report.lists.insert(*eid, list.clone());
    }
    let rematched: BTreeSet<Eid> = fresh.outcomes.iter().map(|o| o.eid).collect();
    let kept: BTreeSet<Eid> = kept_outcomes.keys().copied().collect();
    report.outcomes = kept_outcomes.into_values().chain(fresh.outcomes).collect();
    report.outcomes.sort_by_key(|o| o.eid);

    IncrementalUpdate {
        report,
        kept,
        rematched,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refine::match_with_refinement;
    use ev_core::feature::FeatureVector;
    use ev_core::region::CellId;
    use ev_core::scenario::{Detection, EScenario, VScenario, ZoneAttr};
    use ev_core::time::Timestamp;
    use ev_vision::cost::CostModel;

    /// Day 1: persons 0..3 across two cells. Day 2 adds person 3's
    /// discriminating scenarios.
    fn day(layout: &[(u64, usize, &[u64])]) -> (EScenarioStore, VideoStore) {
        let mut es = Vec::new();
        let mut vs = Vec::new();
        for &(t, c, people) in layout {
            let mut e = EScenario::new(CellId::new(c), Timestamp::new(t));
            let mut v = VScenario::new(CellId::new(c), Timestamp::new(t));
            for &p in people {
                e.insert(Eid::from_u64(p), ZoneAttr::Inclusive);
                let mut f = vec![0.05; 4];
                f[p as usize] = 0.95;
                v.push(Detection {
                    vid: Vid::new(p),
                    feature: FeatureVector::new(f).expect("valid"),
                });
            }
            es.push(e);
            vs.push(v);
        }
        (
            EScenarioStore::from_scenarios(es),
            VideoStore::new(vs, CostModel::free()),
        )
    }

    fn targets(raw: impl IntoIterator<Item = u64>) -> BTreeSet<Eid> {
        raw.into_iter().map(Eid::from_u64).collect()
    }

    #[test]
    fn incremental_update_matches_new_eids_without_touching_kept_ones() {
        // Day 1 distinguishes 0,1,2 but EID 3 never appears.
        let day1: &[(u64, usize, &[u64])] = &[
            (0, 0, &[0, 1]),
            (0, 1, &[2]),
            (10, 0, &[0, 2]),
            (10, 1, &[1]),
        ];
        let (estore1, video1) = day(day1);
        let config = RefineConfig::default();
        let report1 = match_with_refinement(&estore1, &video1, &targets(0..3), &config);
        assert!(report1.outcomes.iter().all(|o| o.is_majority()));

        // Day 2 brings EID 3 into view.
        let day2: &[(u64, usize, &[u64])] = &[(20, 0, &[3, 0]), (30, 1, &[3]), (30, 0, &[0])];
        let (estore2, video2) = day(day2);
        let estore = estore1.merged(&estore2);
        let video = video1.merged(&video2);

        let update = update_matches(&report1, &targets([3]), &estore, &video, &config);
        assert_eq!(update.kept, targets(0..3), "day-1 matches survive");
        assert_eq!(update.rematched, targets([3]));
        assert_eq!(update.report.outcomes.len(), 4);
        let o3 = update.report.outcome_of(Eid::from_u64(3)).expect("matched");
        assert_eq!(o3.vid, Some(Vid::new(3)));
        // Kept outcomes are byte-identical to day 1's.
        for eid in 0..3 {
            assert_eq!(
                update.report.outcome_of(Eid::from_u64(eid)),
                report1.outcome_of(Eid::from_u64(eid)),
            );
        }
    }

    #[test]
    fn kept_vids_cannot_be_stolen() {
        let day1: &[(u64, usize, &[u64])] = &[(0, 0, &[0]), (10, 1, &[0])];
        let (estore, video) = day(day1);
        let config = RefineConfig::default();
        let report1 = match_with_refinement(&estore, &video, &targets([0]), &config);
        assert_eq!(
            report1.outcome_of(Eid::from_u64(0)).expect("ran").vid,
            Some(Vid::new(0))
        );
        // EID 9 never appears in E-data; its refinement sees only person
        // 0's footage, but VID 0 is spoken for, so it must stay unmatched
        // rather than steal the identity.
        let update = update_matches(&report1, &targets([9]), &estore, &video, &config);
        let o9 = update.report.outcome_of(Eid::from_u64(9)).expect("present");
        assert_ne!(o9.vid, Some(Vid::new(0)));
    }

    #[test]
    fn empty_update_is_a_no_op() {
        let day1: &[(u64, usize, &[u64])] = &[(0, 0, &[0, 1]), (10, 0, &[0])];
        let (estore, video) = day(day1);
        let config = RefineConfig::default();
        let report1 = match_with_refinement(&estore, &video, &targets(0..2), &config);
        let update = update_matches(&report1, &BTreeSet::new(), &estore, &video, &config);
        assert!(update.rematched.is_empty());
        assert_eq!(update.report.outcomes.len(), report1.outcomes.len());
    }
}
