//! The EDP baseline (Teng et al., INFOCOM 2012 \[24\]) — the
//! comparison line in every evaluation result: paper Figs. 5–11 and
//! Tables I–II all plot SS against this module's output
//! (`experiments fig5` … `table2` regenerate them).
//!
//! EDP matches **one EID at a time** with a two-stage E-filtering /
//! V-identification strategy: scan the E-data for scenarios containing
//! the target EID, keeping only scenarios that shrink the set of EIDs
//! co-present in *every* selected scenario, until the target is the
//! unique survivor; then identify the VID common to the corresponding
//! V-Scenarios.
//!
//! The paper adapts EDP to MapReduce "by assigning each mapper one EID
//! matching task" (§VI-B), and [`match_edp`] is that adaptation and
//! nothing else: two [`ev_dag::par_map`]s with a partition per EID, on
//! however many threads it is handed — one is the sequential run.
//! Scenario selections are *not* shared between EIDs — the reuse that
//! makes set splitting cheaper simply does not happen, although a
//! scenario picked independently for two EIDs is only extracted (and
//! charged) once by the [`VideoStore`].

use crate::types::{MatchReport, ScenarioList, StageTimings};
use crate::vfilter::{GalleryCache, VStage};
use ev_core::ids::Eid;
use ev_core::scenario::{EScenario, ScenarioId};
use ev_dag::{par_map, JobError};
use ev_store::{EScenarioStore, VideoStore};
use ev_telemetry::{Telemetry, TraceCtx};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// The EIDs present in every scenario kept so far — what every
/// co-presence filter narrows: through [`isolate`] in [`efilter_one`]
/// here, Algorithm 2's extension of unconfident lists and the reuse
/// phase of set splitting's uniqueness pass, whose cover then seeds from
/// [`members`](Self::members). A scenario is worth keeping iff it
/// shrinks the set.
#[derive(Default)]
pub(crate) struct CoPresence(Option<Vec<Eid>>);

impl CoPresence {
    /// Narrows the set to the members `scenario` holds too and says
    /// whether that shrank it. The first scenario offered seeds the set
    /// and always counts.
    pub(crate) fn narrow(&mut self, scenario: &EScenario) -> bool {
        let Some(common) = &mut self.0 else {
            self.0 = Some(scenario.eids().collect());
            return true;
        };
        let before = common.len();
        common.retain(|&e| scenario.contains(e));
        common.len() < before
    }

    /// The EIDs left, in EID order (empty while unseeded).
    pub(crate) fn members(&self) -> &[Eid] {
        self.0.as_deref().unwrap_or_default()
    }

    /// Whether no scenario has been offered yet.
    pub(crate) fn is_unseeded(&self) -> bool {
        self.0.is_none()
    }

    /// Whether the scenarios kept so far leave at most one EID.
    pub(crate) fn is_unique(&self) -> bool {
        self.0.as_ref().is_some_and(|common| common.len() <= 1)
    }
}

/// The one co-presence isolator: offers `candidates` to `common` —
/// those `reused` accepts first, then the fresh ones, each group in its
/// own random order drawn from `seed` — and keeps every scenario that
/// shrinks the set, until the set is unique. Returns the kept ids in pick order.
///
/// Shuffling an empty group draws nothing from the generator, so a
/// caller that reuses nothing gets exactly one seeded shuffle of its
/// candidates.
pub(crate) fn isolate<'s>(
    common: &mut CoPresence,
    candidates: impl Iterator<Item = &'s EScenario>,
    reused: impl Fn(ScenarioId) -> bool,
    seed: u64,
) -> ScenarioList {
    let (mut reusable, mut fresh): (Vec<&EScenario>, Vec<&EScenario>) =
        candidates.partition(|s| reused(s.id()));
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    reusable.shuffle(&mut rng);
    fresh.shuffle(&mut rng);
    let mut kept = ScenarioList::new();
    for scenario in reusable.into_iter().chain(fresh) {
        if common.is_unique() {
            break;
        }
        if common.narrow(scenario) {
            kept.push(scenario.id());
        }
    }
    kept
}

/// E-filtering for one EID: scan the scenarios where `eid` was
/// confidently observed (inclusive zone) in a seeded random order —
/// those `reused` accepts first — keeping those that shrink the
/// co-presence intersection, until `eid` is unique.
///
/// The intersection runs over **all** EIDs in the E-data (not just a
/// requested subset) — EDP has no notion of a matching cohort. The
/// random order matters: consecutive time windows share cohabitants
/// (people move slowly), so a chronological scan shrinks the
/// intersection far more slowly than temporally spread picks.
///
/// EDP reuses nothing (`|_| false`): each EID is filtered as if it were
/// the only one. Algorithm 2's refinement rounds pass the footage the
/// match already extracted, so one extracted scenario serves many EIDs
/// the way set splitting's do.
#[must_use]
pub(crate) fn efilter_one(
    store: &EScenarioStore,
    eid: Eid,
    seed: u64,
    reused: impl Fn(ScenarioId) -> bool,
) -> ScenarioList {
    isolate(
        &mut CoPresence::default(),
        store.containing(eid).filter(|s| s.contains_inclusive(eid)),
        reused,
        seed ^ eid.as_u64().wrapping_mul(0x9e3779b97f4a7c15),
    )
}

/// Matches a set of EIDs with EDP on `threads` workers: per-EID
/// E-filtering in a random scan order drawn from `seed`, then per-EID
/// V-identification, as two [`par_map`]s with a partition per EID —
/// `efilter`, then `videntify` over the lists it returned. EDP matches
/// each EID on its own, so nothing is excluded. Each
/// EID's V partition keeps its own gallery cache, so its galleries go
/// with it. `timings.e_stage` and `timings.v_stage` are the two maps'
/// walls, so the E- and V-stage times stay separable the way Figs. 8–9
/// report them. The report is the same at every thread count.
///
/// # Errors
///
/// Propagates [`JobError`] from [`par_map`] (a refused worker thread,
/// or a panicking partition), and fails with
/// [`JobError::Input`] when footage a list selects failed to load (see
/// [`VideoStore::check_loads`]).
pub fn match_edp(
    threads: usize,
    store: &EScenarioStore,
    video: &VideoStore,
    targets: &BTreeSet<Eid>,
    seed: u64,
    telemetry: &Telemetry,
) -> Result<MatchReport, JobError> {
    let eids: Vec<Eid> = targets.iter().copied().collect();
    let ctx = TraceCtx::root();
    let e_start = Instant::now();
    let lists = par_map("efilter", eids.len(), threads, telemetry, ctx, |p| {
        efilter_one(store, eids[p], seed, |_| false)
    })?;
    let e_stage = e_start.elapsed();
    let v_start = Instant::now();
    let outcomes = par_map("videntify", eids.len(), threads, telemetry, ctx, |p| {
        let mut stage = VStage {
            video,
            cache: &mut GalleryCache::new(),
            telemetry,
        };
        stage.filter_one(eids[p], &lists[p], &BTreeSet::new())
    })?;
    let v_stage = v_start.elapsed();
    video.check_loads().map_err(JobError::Input)?;

    // Partition order is EID order.
    let lists: BTreeMap<Eid, ScenarioList> = eids.into_iter().zip(lists).collect();
    let selected = lists.values().flat_map(|l| l.iter().copied()).collect();
    Ok(MatchReport {
        outcomes,
        lists,
        selected_scenarios: selected,
        timings: StageTimings { e_stage, v_stage },
        rounds: 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_core::feature::FeatureVector;
    use ev_core::region::CellId;
    use ev_core::scenario::{Detection, EScenario, VScenario, ZoneAttr};
    use ev_core::time::Timestamp;
    use ev_core::Vid;
    use ev_vision::cost::CostModel;

    /// A tiny world: persons 0..4, person i's feature = one-hot-ish.
    /// Scenario layout (time, cell, inhabitants):
    ///   t0 c0: {0, 1}   t0 c1: {2, 3}
    ///   t1 c0: {0, 2}   t1 c1: {1, 3}
    ///   t2 c0: {0, 3}   t2 c1: {1, 2}
    fn world() -> (EScenarioStore, VideoStore) {
        let layout: Vec<(u64, usize, Vec<u64>)> = vec![
            (0, 0, vec![0, 1]),
            (0, 1, vec![2, 3]),
            (1, 0, vec![0, 2]),
            (1, 1, vec![1, 3]),
            (2, 0, vec![0, 3]),
            (2, 1, vec![1, 2]),
        ];
        let mut escenarios = Vec::new();
        let mut vscenarios = Vec::new();
        for (t, c, people) in &layout {
            let mut e = EScenario::new(CellId::new(*c), Timestamp::new(*t));
            let mut v = VScenario::new(CellId::new(*c), Timestamp::new(*t));
            for &p in people {
                e.insert(Eid::from_u64(p), ZoneAttr::Inclusive);
                let mut f = vec![0.1; 4];
                f[p as usize] = 0.9;
                v.push(Detection {
                    vid: Vid::new(p),
                    feature: FeatureVector::new(f).unwrap(),
                });
            }
            escenarios.push(e);
            vscenarios.push(v);
        }
        (
            EScenarioStore::from_scenarios(escenarios),
            VideoStore::new(vscenarios, CostModel::free()),
        )
    }

    /// [`match_edp`] at seed 0 on `threads` workers.
    fn edp(
        threads: usize,
        store: &EScenarioStore,
        video: &VideoStore,
        targets: &BTreeSet<Eid>,
        tel: &Telemetry,
    ) -> MatchReport {
        match_edp(threads, store, video, targets, 0, tel).unwrap()
    }

    #[test]
    fn efilter_isolates_the_target() {
        let (store, _) = world();
        let list = efilter_one(&store, Eid::from_u64(0), 0, |_| false);
        // t0c0 {0,1} ∩ t1c0 {0,2} = {0}: two scenarios suffice.
        assert_eq!(list.len(), 2);
    }

    #[test]
    fn efilter_of_unknown_eid_is_empty() {
        let (store, _) = world();
        let list = efilter_one(&store, Eid::from_u64(99), 0, |_| false);
        assert!(list.is_empty());
    }

    #[test]
    fn edp_matches_everyone_in_the_clean_world() {
        let (store, video) = world();
        let targets: BTreeSet<Eid> = (0..4).map(Eid::from_u64).collect();
        let report = edp(1, &store, &video, &targets, Telemetry::disabled());
        assert_eq!(report.outcomes.len(), 4);
        for o in &report.outcomes {
            assert_eq!(
                o.vid.map(Vid::as_u64),
                Some(o.eid.as_u64()),
                "person i's EID must match VID i"
            );
            assert!(o.is_majority());
        }
        assert!(report.timings.total() > std::time::Duration::ZERO);
    }

    #[test]
    fn edp_does_not_share_scenarios_deliberately() {
        let (store, _) = world();
        // Each of the 4 EIDs picks ~2 scenarios starting from its own
        // chronological scan; unioned they cover most of the pool.
        let total: BTreeSet<ScenarioId> = (0..4)
            .flat_map(|e| efilter_one(&store, Eid::from_u64(e), 0, |_| false))
            .collect();
        assert!(total.len() >= 4, "little overlap: {}", total.len());
    }

    #[test]
    fn parallel_edp_counts_into_the_run_handle() {
        use ev_telemetry::{names, TelemetryLevel};
        let (store, video) = world();
        let targets: BTreeSet<Eid> = (0..4).map(Eid::from_u64).collect();
        let tel = Telemetry::new(TelemetryLevel::Counters);
        edp(2, &store, &video, &targets, &tel);
        for name in [names::VFILTER_CANDIDATES_SCORED, names::KERNEL_BLOCKS_BUILT] {
            let counted = tel.registry().counter_value(name).unwrap_or(0);
            assert!(counted > 0, "{name} is {counted} under EDP on two workers");
        }
    }

    #[test]
    fn parallel_edp_agrees_with_sequential() {
        let (store, video) = world();
        let targets: BTreeSet<Eid> = (0..4).map(Eid::from_u64).collect();
        let run = |threads, targets: &BTreeSet<Eid>| {
            edp(threads, &store, &video, targets, Telemetry::disabled())
        };
        let sequential = run(1, &targets);
        let parallel = |targets: &BTreeSet<Eid>| run(2, targets);
        let report = parallel(&targets);
        assert_eq!(sequential.outcomes, report.outcomes);
        assert_eq!(sequential.lists, report.lists);
        assert_eq!(sequential.selected_scenarios, report.selected_scenarios);
        assert!(parallel(&BTreeSet::new()).outcomes.is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::setsplit::tests::random_store;
    use proptest::prelude::*;

    /// EDP's E-filter written out as one loop over one shuffle: the
    /// reference that pins EDP's lists through [`isolate`].
    fn efilter_one_reference(store: &EScenarioStore, eid: Eid, seed: u64) -> ScenarioList {
        let mut pool: Vec<&EScenario> = store
            .containing(eid)
            .filter(|s| s.contains_inclusive(eid))
            .collect();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(
            seed ^ eid.as_u64().wrapping_mul(0x9e3779b97f4a7c15),
        );
        pool.shuffle(&mut rng);
        let mut common = CoPresence::default();
        let mut list: ScenarioList = Vec::new();
        for scenario in pool {
            if common.is_unique() {
                break;
            }
            if common.narrow(scenario) {
                list.push(scenario.id());
            }
        }
        list
    }

    proptest! {
        /// EDP (which reuses nothing) lists exactly what the loop it
        /// replaced listed.
        #[test]
        fn efilter_without_reuse_is_the_reference_loop(
            world_seed in 0u64..40,
            eid in 0u64..12,
            seed in any::<u64>(),
        ) {
            let store = random_store(world_seed, 3, 10, 12);
            let eid = Eid::from_u64(eid);
            prop_assert_eq!(
                efilter_one(&store, eid, seed, |_| false),
                efilter_one_reference(&store, eid, seed)
            );
        }
    }
}
