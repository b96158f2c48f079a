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
//! For a fair comparison with the parallel set-splitting algorithm, the
//! paper adapts EDP to MapReduce "by assigning each mapper one EID
//! matching task" (§VI-B); [`match_edp_parallel`] does exactly that as
//! one [`ev_dag::DagSpec`] with a partition per EID. Scenario
//! selections are *not* shared between EIDs — the reuse that makes set
//! splitting cheaper simply does not happen, although a scenario picked
//! independently for two EIDs is only extracted (and counted) once.

use crate::types::{MatchOutcome, MatchReport, ScenarioList, StageTimings};
use crate::vfilter::{GalleryCache, VFilterConfig, VStage};
use ev_core::ids::Eid;
use ev_core::scenario::{EScenario, ScenarioId};
use ev_dag::{DagConfig, DagSpec, JobError, StageDep};
use ev_store::{EScenarioStore, VideoStore};
use ev_telemetry::{Telemetry, TraceCtx};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Configuration of the EDP baseline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EdpConfig {
    /// VID filtering settings (EDP never uses exclusion — each EID is
    /// matched independently; the flag is ignored).
    pub vfilter: VFilterConfig,
    /// Cap on scenarios selected per EID (`None` = until unique or
    /// exhausted).
    pub max_scenarios_per_eid: Option<usize>,
    /// Seed for the per-EID random scan order.
    pub seed: u64,
}

impl Default for EdpConfig {
    fn default() -> Self {
        EdpConfig {
            vfilter: VFilterConfig {
                exclusion: false,
                ..VFilterConfig::default()
            },
            max_scenarios_per_eid: None,
            seed: 0,
        }
    }
}

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
/// shrinks the set, until the set is unique or `cap` scenarios are kept.
/// Returns the kept ids in pick order.
///
/// Shuffling an empty group draws nothing from the generator, so a
/// caller that reuses nothing gets exactly one seeded shuffle of its
/// candidates.
pub(crate) fn isolate<'s>(
    common: &mut CoPresence,
    candidates: impl Iterator<Item = &'s EScenario>,
    reused: impl Fn(ScenarioId) -> bool,
    seed: u64,
    cap: usize,
) -> ScenarioList {
    let (mut reusable, mut fresh): (Vec<&EScenario>, Vec<&EScenario>) =
        candidates.partition(|s| reused(s.id()));
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    reusable.shuffle(&mut rng);
    fresh.shuffle(&mut rng);
    let mut kept = ScenarioList::new();
    for scenario in reusable.into_iter().chain(fresh) {
        if kept.len() >= cap || common.is_unique() {
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
/// EDP and `EvMatcher::match_one` reuse nothing (`|_| false`): each EID
/// is filtered as if it were the only one. Algorithm 2's refinement
/// rounds pass the footage the match already selected, so one extracted
/// scenario serves many EIDs the way set splitting's do.
#[must_use]
pub(crate) fn efilter_one(
    store: &EScenarioStore,
    eid: Eid,
    config: &EdpConfig,
    reused: impl Fn(ScenarioId) -> bool,
) -> ScenarioList {
    isolate(
        &mut CoPresence::default(),
        store.containing(eid).filter(|s| s.contains_inclusive(eid)),
        reused,
        config.seed ^ eid.as_u64().wrapping_mul(0x9e3779b97f4a7c15),
        config.max_scenarios_per_eid.unwrap_or(usize::MAX),
    )
}

/// Matches a set of EIDs with sequential EDP: per-EID E-filtering followed
/// by per-EID V-identification. Scenario reuse across EIDs is incidental;
/// the [`VideoStore`] still extracts any shared scenario only once.
///
/// # Errors
///
/// [`ev_core::Error::FootageUnavailable`] when footage a list selects
/// failed to load (see [`VideoStore::check_loads`]).
pub fn match_edp(
    store: &EScenarioStore,
    video: &VideoStore,
    targets: &BTreeSet<Eid>,
    config: &EdpConfig,
) -> ev_core::Result<MatchReport> {
    let e_start = Instant::now();
    let lists: BTreeMap<Eid, ScenarioList> = targets
        .iter()
        .map(|&eid| (eid, efilter_one(store, eid, config, |_| false)))
        .collect();
    let e_stage = e_start.elapsed();

    let v_start = Instant::now();
    let mut cache = GalleryCache::new();
    let mut stage = VStage {
        video,
        config: &config.vfilter,
        cache: &mut cache,
        telemetry: Telemetry::disabled(),
    };
    // Map order is EID order.
    let outcomes: Vec<MatchOutcome> = lists
        .iter()
        .map(|(&eid, list)| stage.filter_one(eid, list, &BTreeSet::new()))
        .collect();
    let v_stage = v_start.elapsed();
    video.check_loads()?;

    let selected: BTreeSet<ScenarioId> = lists.values().flat_map(|l| l.iter().copied()).collect();
    Ok(MatchReport {
        outcomes,
        lists,
        selected_scenarios: selected,
        timings: StageTimings { e_stage, v_stage },
        rounds: 1,
    })
}

/// One partition of the parallel EDP job.
enum EdpPart {
    /// `efilter`: one EID's scenario list, stamped when it was ready.
    List(ScenarioList, Instant),
    /// `videntify`: that EID's match.
    Outcome(MatchOutcome),
}

/// The paper's parallel adaptation of EDP: "assigning each mapper one
/// EID matching task" (§VI-B), as one [`DagSpec`] submission — an
/// `efilter` stage with one partition per EID and a `videntify` stage
/// on a narrow edge, so an EID is identified as soon as its own list
/// exists. `timings.e_stage` runs from submission to the last `efilter`
/// completion and `timings.v_stage` is the rest of the submission's
/// wall, so the E- and V-stage times stay separable the way Figs. 8–9
/// report them.
///
/// # Errors
///
/// Propagates [`JobError`] from the scheduler (an invalid fault plan,
/// or a partition that exhausts its retry budget), and fails with
/// [`JobError::Input`] when footage a list selects failed to load.
pub fn match_edp_parallel(
    config: &DagConfig,
    store: &EScenarioStore,
    video: &VideoStore,
    targets: &BTreeSet<Eid>,
    edp: &EdpConfig,
    telemetry: &Telemetry,
) -> Result<MatchReport, JobError> {
    // A stage needs at least one partition; no targets, no job.
    if targets.is_empty() {
        return Ok(MatchReport {
            rounds: 1,
            ..MatchReport::default()
        });
    }
    let eids: Vec<Eid> = targets.iter().copied().collect();
    let eids = &eids;

    let mut dag: DagSpec<'_, EdpPart> = DagSpec::new();
    let efilter = dag.stage("efilter", eids.len(), Vec::new(), move |ctx, _| {
        let list = efilter_one(store, eids[ctx.partition], edp, |_| false);
        EdpPart::List(list, Instant::now())
    });
    // The report reads the lists. A partition completes exactly once,
    // so its stamp is that completion's.
    dag.keep(efilter);
    // The video store deduplicates extraction of incidentally shared
    // scenarios.
    let videntify = dag.stage(
        "videntify",
        eids.len(),
        vec![StageDep::narrow(efilter)],
        move |ctx, inputs| {
            let EdpPart::List(list, _) = &*inputs[0] else {
                unreachable!("videntify reads only efilter partitions");
            };
            let mut stage = VStage {
                video,
                config: &edp.vfilter,
                cache: &mut GalleryCache::new(),
                telemetry,
            };
            EdpPart::Outcome(stage.filter_one(eids[ctx.partition], list, &BTreeSet::new()))
        },
    );
    let start = Instant::now();
    let run = dag.run(config, telemetry, TraceCtx::root())?;
    let elapsed = start.elapsed();
    video.check_loads().map_err(JobError::Input)?;

    let mut lists: BTreeMap<Eid, ScenarioList> = BTreeMap::new();
    let mut e_end = start;
    for (&eid, part) in eids.iter().zip(&run.outputs[&efilter]) {
        let EdpPart::List(list, finished) = &**part else {
            unreachable!("the efilter stage produces lists");
        };
        lists.insert(eid, list.clone());
        e_end = e_end.max(*finished);
    }
    // Partition order is EID order.
    let outcomes = run.outputs[&videntify]
        .iter()
        .map(|part| match &**part {
            EdpPart::Outcome(outcome) => outcome.clone(),
            EdpPart::List(..) => unreachable!("the videntify stage produces outcomes"),
        })
        .collect();
    let e_stage = e_end - start;

    let selected = lists.values().flat_map(|l| l.iter().copied()).collect();
    Ok(MatchReport {
        outcomes,
        lists,
        selected_scenarios: selected,
        timings: StageTimings {
            e_stage,
            v_stage: elapsed.saturating_sub(e_stage),
        },
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

    #[test]
    fn efilter_isolates_the_target() {
        let (store, _) = world();
        let list = efilter_one(&store, Eid::from_u64(0), &EdpConfig::default(), |_| false);
        // t0c0 {0,1} ∩ t1c0 {0,2} = {0}: two scenarios suffice.
        assert_eq!(list.len(), 2);
    }

    #[test]
    fn efilter_cap_is_respected() {
        let (store, _) = world();
        let cfg = EdpConfig {
            max_scenarios_per_eid: Some(1),
            ..EdpConfig::default()
        };
        let list = efilter_one(&store, Eid::from_u64(0), &cfg, |_| false);
        assert_eq!(list.len(), 1);
    }

    #[test]
    fn efilter_of_unknown_eid_is_empty() {
        let (store, _) = world();
        let list = efilter_one(&store, Eid::from_u64(99), &EdpConfig::default(), |_| false);
        assert!(list.is_empty());
    }

    #[test]
    fn edp_matches_everyone_in_the_clean_world() {
        let (store, video) = world();
        let targets: BTreeSet<Eid> = (0..4).map(Eid::from_u64).collect();
        let report = match_edp(&store, &video, &targets, &EdpConfig::default()).unwrap();
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
        let cfg = EdpConfig::default();
        // Each of the 4 EIDs picks ~2 scenarios starting from its own
        // chronological scan; unioned they cover most of the pool.
        let total: BTreeSet<ScenarioId> = (0..4)
            .flat_map(|e| efilter_one(&store, Eid::from_u64(e), &cfg, |_| false))
            .collect();
        assert!(total.len() >= 4, "little overlap: {}", total.len());
    }

    #[test]
    fn parallel_edp_counts_into_the_run_handle() {
        use ev_telemetry::{names, TelemetryLevel};
        let (store, video) = world();
        let targets: BTreeSet<Eid> = (0..4).map(Eid::from_u64).collect();
        let tel = Telemetry::new(TelemetryLevel::Counters);
        let config = DagConfig::new(2);
        match_edp_parallel(
            &config,
            &store,
            &video,
            &targets,
            &EdpConfig::default(),
            &tel,
        )
        .unwrap();
        for name in [names::VFILTER_CANDIDATES_SCORED, names::KERNEL_BLOCKS_BUILT] {
            let counted = tel.registry().counter_value(name).unwrap_or(0);
            assert!(counted > 0, "{name} is {counted} under parallel EDP");
        }
    }

    #[test]
    fn parallel_edp_agrees_with_sequential() {
        let (store, video) = world();
        let targets: BTreeSet<Eid> = (0..4).map(Eid::from_u64).collect();
        let sequential = match_edp(&store, &video, &targets, &EdpConfig::default()).unwrap();
        let parallel = |targets: &BTreeSet<Eid>| {
            match_edp_parallel(
                &DagConfig::new(2),
                &store,
                &video,
                targets,
                &EdpConfig::default(),
                Telemetry::disabled(),
            )
            .unwrap()
        };
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
    fn efilter_one_reference(store: &EScenarioStore, eid: Eid, config: &EdpConfig) -> ScenarioList {
        let cap = config.max_scenarios_per_eid.unwrap_or(usize::MAX);
        let mut pool: Vec<&EScenario> = store
            .containing(eid)
            .filter(|s| s.contains_inclusive(eid))
            .collect();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(
            config.seed ^ eid.as_u64().wrapping_mul(0x9e3779b97f4a7c15),
        );
        pool.shuffle(&mut rng);
        let mut common = CoPresence::default();
        let mut list: ScenarioList = Vec::new();
        for scenario in pool {
            if list.len() >= cap || common.is_unique() {
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
        /// replaced listed, cap or no cap.
        #[test]
        fn efilter_without_reuse_is_the_reference_loop(
            world_seed in 0u64..40,
            eid in 0u64..12,
            seed in any::<u64>(),
            cap in 0usize..4,
        ) {
            let store = random_store(world_seed, 3, 10, 12);
            let config = EdpConfig {
                // 0 stands for no cap.
                max_scenarios_per_eid: (cap > 0).then_some(cap),
                seed,
                ..EdpConfig::default()
            };
            let eid = Eid::from_u64(eid);
            prop_assert_eq!(
                efilter_one(&store, eid, &config, |_| false),
                efilter_one_reference(&store, eid, &config)
            );
        }
    }
}
