//! The high-level matching API with elastic matching sizes.
//!
//! The paper supports "single, multiple and universal EID-VID matching"
//! (§I). [`EvMatcher`] wraps the whole pipeline behind three calls:
//!
//! * [`match_one`](EvMatcher::match_one) — one EID. Set splitting
//!   degenerates on a one-element universe (the partition starts fully
//!   split), so this path uses the per-EID greedy E-filtering of the EDP
//!   family, which is exactly what a single-target query wants.
//! * [`match_many`](EvMatcher::match_many) — a requested EID set, via
//!   set splitting + VID filtering: sequentially with refinement
//!   (Algorithms 1–2), or in parallel as one stage DAG (Algorithm 3).
//! * [`match_universal`](EvMatcher::match_universal) — every EID present
//!   in the E-data gets labeled; afterwards any query is an index lookup.
//!   "Note that the larger the matching size is, the less time it costs
//!   per EID-VID pair" (§I).

use crate::edp::{efilter_one, EdpConfig};
use crate::refine::{match_with_refinement, record_run, RefineConfig, RunFacts, SplitMode};
use crate::setsplit::SetSplitConfig;
use crate::types::{MatchReport, StageTimings};
use crate::vfilter::{GalleryCache, VFilterConfig, VStage};
use ev_core::ids::Eid;
use ev_dag::JobError;
use ev_store::{EScenarioStore, StoreBackend, VideoStore};
use ev_telemetry::Telemetry;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// How [`EvMatcher::match_many`] executes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ExecutionMode {
    /// Single-threaded pipeline with refinement (Algorithms 1–2).
    Sequential,
    /// The parallel pipeline (Algorithm 3): every splitting round plus
    /// VID filtering as **one submission** to the lineage-tracking
    /// stage-DAG scheduler on this many threads (see [`crate::dagflow`]).
    /// Independent rounds overlap instead of barriering, and a worker
    /// panic reruns only the lost partition, against inputs that are
    /// still cached. The report is byte-identical at every thread count.
    ///
    /// Algorithm 3 is the practical reading (vague members are
    /// non-members), one round, with every scenario list padded to a
    /// fixed length of 3: it runs no Algorithm 2, whose E-filter extends
    /// the sequential path's short unconfident lists instead. Of
    /// [`MatcherConfig`] it reads `vfilter` and the seed of
    /// `split.strategy`; it does **not** read `split.max_scenarios` or
    /// `max_rounds`, and [`SplitMode::Ideal`] is refused
    /// ([`JobError::InvalidConfig`]) rather than run as practical.
    Dag(usize),
}

/// Matcher configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatcherConfig {
    /// Splitting semantics: ideal or practical (vague zones).
    pub mode: SplitMode,
    /// Scenario selection for the splitting stage.
    pub split: SetSplitConfig,
    /// VID filtering settings.
    pub vfilter: VFilterConfig,
    /// Refinement round budget (sequential execution only).
    pub max_rounds: u32,
    /// Sequential or parallel execution.
    pub execution: ExecutionMode,
}

impl Default for MatcherConfig {
    /// Defaults to the **practical** splitting semantics: real E-data has
    /// drift, and ideal-mode lists would trust vague appearances that
    /// point at the wrong cell's footage. Use [`SplitMode::Ideal`] only
    /// on clean data.
    fn default() -> Self {
        MatcherConfig {
            mode: SplitMode::Practical,
            split: SetSplitConfig::default(),
            vfilter: VFilterConfig::default(),
            max_rounds: 3,
            execution: ExecutionMode::Sequential,
        }
    }
}

/// The facade over the EV-Matching pipeline.
#[derive(Debug)]
pub struct EvMatcher<'a> {
    estore: &'a EScenarioStore,
    video: &'a VideoStore,
    config: MatcherConfig,
    telemetry: Telemetry,
}

impl<'a> EvMatcher<'a> {
    /// Creates a matcher over the given stores.
    #[must_use]
    pub fn new(estore: &'a EScenarioStore, video: &'a VideoStore, config: MatcherConfig) -> Self {
        EvMatcher {
            estore,
            video,
            config,
            telemetry: Telemetry::disabled().clone(),
        }
    }

    /// Creates a matcher over any [`StoreBackend`] — the backend owns
    /// the stores (in memory, or loaded from an `ev-disk` directory)
    /// and the matcher borrows them for its lifetime.
    #[must_use]
    pub fn from_backend<B: StoreBackend>(backend: &'a B, config: MatcherConfig) -> Self {
        EvMatcher::new(backend.estore(), backend.video(), config)
    }

    /// Attaches a telemetry handle; every pipeline the matcher runs —
    /// including the stage-DAG scheduler in DAG mode — records spans
    /// and metrics through it.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.telemetry = telemetry.clone();
        self
    }

    /// Matches a single EID without touching any other
    /// ("we can find the VID corresponding to one specific EID without
    /// matching other EIDs and VIDs", §I).
    ///
    /// # Errors
    ///
    /// [`JobError::Input`] when footage the list selects failed to load
    /// (see [`VideoStore::check_loads`]).
    pub fn match_one(&self, eid: Eid) -> Result<MatchReport, JobError> {
        let mut span = self.telemetry.span("match_one", "pipeline");
        let e_start = Instant::now();
        let edp_cfg = EdpConfig {
            vfilter: self.config.vfilter,
            max_scenarios_per_eid: None,
            seed: 0,
        };
        let list = efilter_one(self.estore, eid, &edp_cfg, |_| false);
        let e_stage = e_start.elapsed();

        let v_start = Instant::now();
        let mut cache = GalleryCache::new();
        let outcome = VStage {
            video: self.video,
            config: &self.config.vfilter,
            cache: &mut cache,
            telemetry: &self.telemetry,
        }
        .filter_one(eid, &list, &BTreeSet::new());
        let v_stage = v_start.elapsed();
        self.video.check_loads().map_err(JobError::Input)?;

        let mut lists = BTreeMap::new();
        lists.insert(eid, list.clone());
        let report = MatchReport {
            outcomes: vec![outcome],
            lists,
            selected_scenarios: list.into_iter().collect(),
            timings: StageTimings { e_stage, v_stage },
            rounds: 1,
        };
        // A single-EID query does not split: nothing recorded, no bound.
        let facts = RunFacts {
            targets: 1,
            recorded: 0,
            fully_split: false,
            gallery_hits: cache.hits(),
            gallery_misses: cache.misses(),
        };
        record_run(&self.telemetry, &facts, report.timings);
        span.arg(
            "matched",
            serde::Value::Bool(report.outcomes[0].vid.is_some()),
        );
        drop(span);
        Ok(report)
    }

    /// Matches a set of EIDs simultaneously via EID set splitting.
    ///
    /// # Errors
    ///
    /// [`JobError::Input`] in either mode when footage a selected
    /// scenario needs failed to load — never a report computed without
    /// it (see [`VideoStore::check_loads`]); otherwise only in the DAG
    /// mode: [`JobError::InvalidConfig`] for [`SplitMode::Ideal`], which
    /// Algorithm 3 has no reading of, or when the scheduler rejects its
    /// configuration, and a task that exhausts its retry budget.
    pub fn match_many(&self, targets: &BTreeSet<Eid>) -> Result<MatchReport, JobError> {
        match &self.config.execution {
            ExecutionMode::Sequential => {
                let report = match_with_refinement(
                    self.estore,
                    self.video,
                    targets,
                    &RefineConfig {
                        mode: self.config.mode,
                        split: self.config.split,
                        vfilter: self.config.vfilter,
                        max_rounds: self.config.max_rounds,
                    },
                    &self.telemetry,
                );
                self.video.check_loads().map_err(JobError::Input)?;
                Ok(report)
            }
            ExecutionMode::Dag(threads) => {
                if self.config.mode == SplitMode::Ideal {
                    return Err(JobError::InvalidConfig(ev_core::Error::InvalidParameter {
                        name: "mode",
                        reason: "the stage DAG runs the practical setting only".into(),
                    }));
                }
                crate::dagflow::dag_match(
                    &ev_dag::DagConfig::new(*threads),
                    self.estore,
                    self.video,
                    targets,
                    self.split_seed(),
                    &self.config.vfilter,
                    &self.telemetry,
                )
            }
        }
    }

    /// The splitting seed implied by the selection strategy.
    fn split_seed(&self) -> u64 {
        match self.config.split.strategy {
            crate::setsplit::SelectionStrategy::RandomTime { seed } => seed,
            _ => 0,
        }
    }

    /// Universal matching: label every EID that appears anywhere in the
    /// E-data.
    ///
    /// # Errors
    ///
    /// Same conditions as [`match_many`](EvMatcher::match_many).
    pub fn match_universal(&self) -> Result<MatchReport, JobError> {
        let universe: BTreeSet<Eid> = self
            .estore
            .iter()
            .flat_map(|s| s.eids().collect::<Vec<_>>())
            .collect();
        self.match_many(&universe)
    }
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

    fn world() -> (EScenarioStore, VideoStore) {
        let layout: Vec<(u64, usize, Vec<u64>)> = vec![
            (0, 0, vec![0, 1]),
            (0, 1, vec![2, 3]),
            (1, 0, vec![0, 2]),
            (1, 1, vec![1, 3]),
            (2, 0, vec![0, 3]),
            (2, 1, vec![1, 2]),
        ];
        let mut es = Vec::new();
        let mut vs = Vec::new();
        for (t, c, people) in &layout {
            let mut e = EScenario::new(CellId::new(*c), Timestamp::new(*t));
            let mut v = VScenario::new(CellId::new(*c), Timestamp::new(*t));
            for &p in people {
                e.insert(Eid::from_u64(p), ZoneAttr::Inclusive);
                let mut f = vec![0.05; 4];
                f[p as usize] = 0.95;
                v.push(Detection {
                    vid: Vid::new(p),
                    feature: FeatureVector::new(f).unwrap(),
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

    #[test]
    fn match_one_finds_the_right_vid() {
        let (store, video) = world();
        let matcher = EvMatcher::new(&store, &video, MatcherConfig::default());
        let report = matcher.match_one(Eid::from_u64(2)).unwrap();
        assert_eq!(report.outcomes.len(), 1);
        assert_eq!(report.outcomes[0].vid, Some(Vid::new(2)));
        assert!(report.selected_count() >= 2);
    }

    #[test]
    fn match_one_counts_into_the_attached_handle() {
        use ev_telemetry::{names, TelemetryLevel};
        let (store, video) = world();
        let tel = Telemetry::new(TelemetryLevel::Counters);
        let matcher = EvMatcher::new(&store, &video, MatcherConfig::default()).with_telemetry(&tel);
        matcher.match_one(Eid::from_u64(2)).unwrap();
        for name in [names::VFILTER_CANDIDATES_SCORED, names::KERNEL_BLOCKS_BUILT] {
            let counted = tel.registry().counter_value(name).unwrap_or(0);
            assert!(counted > 0, "{name} is {counted} for a single-EID query");
        }
    }

    #[test]
    fn match_many_sequential() {
        let (store, video) = world();
        let matcher = EvMatcher::new(&store, &video, MatcherConfig::default());
        let targets: BTreeSet<Eid> = (0..4).map(Eid::from_u64).collect();
        let report = matcher.match_many(&targets).unwrap();
        assert_eq!(report.outcomes.len(), 4);
        for o in &report.outcomes {
            assert_eq!(o.vid.map(Vid::as_u64), Some(o.eid.as_u64()));
        }
    }

    #[test]
    fn match_many_dag() {
        let (store, video) = world();
        let config = MatcherConfig {
            execution: ExecutionMode::Dag(3),
            ..MatcherConfig::default()
        };
        let matcher = EvMatcher::new(&store, &video, config);
        let targets: BTreeSet<Eid> = (0..4).map(Eid::from_u64).collect();
        let report = matcher.match_many(&targets).unwrap();
        assert_eq!(report.outcomes.len(), 4);
        for o in &report.outcomes {
            assert_eq!(o.vid.map(Vid::as_u64), Some(o.eid.as_u64()));
        }
    }

    #[test]
    fn universal_matching_through_the_dag_is_one_submission() {
        let (store, video) = world();
        let config = MatcherConfig {
            execution: ExecutionMode::Dag(2),
            ..MatcherConfig::default()
        };
        let matcher = EvMatcher::new(&store, &video, config);
        let report = matcher.match_universal().unwrap();
        assert_eq!(report.outcomes.len(), 4, "4 distinct EIDs in E-data");
        assert!(report.majority_rate() > 0.9);
        assert_eq!(report.rounds, 1, "one DAG submission covers the job");
    }

    #[test]
    fn universal_matching_covers_every_eid_in_e_data() {
        let (store, video) = world();
        let matcher = EvMatcher::new(&store, &video, MatcherConfig::default());
        let report = matcher.match_universal().unwrap();
        assert_eq!(report.outcomes.len(), 4, "4 distinct EIDs in E-data");
        assert!(report.majority_rate() > 0.9);
    }

    #[test]
    fn practical_mode_through_the_facade() {
        let (store, video) = world();
        let config = MatcherConfig {
            mode: SplitMode::Practical,
            ..MatcherConfig::default()
        };
        let matcher = EvMatcher::new(&store, &video, config);
        let targets: BTreeSet<Eid> = (0..4).map(Eid::from_u64).collect();
        let report = matcher.match_many(&targets).unwrap();
        assert_eq!(report.outcomes.len(), 4);
    }
}
