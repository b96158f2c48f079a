//! The high-level matching API with elastic matching sizes, and the one
//! door to set splitting.
//!
//! The paper supports "single, multiple and universal EID-VID matching"
//! (§I). [`EvMatcher`] wraps the whole pipeline behind three calls:
//!
//! * [`match_one`](EvMatcher::match_one) — one EID. Set splitting
//!   degenerates on a one-element universe (the partition starts fully
//!   split), so this path is [`match_edp`] on that one EID, which is
//!   exactly what a single-target query wants.
//! * [`match_many`](EvMatcher::match_many) — a requested EID set, via
//!   set splitting + VID filtering with refinement (Algorithms 1–2), on
//!   the caller's thread or with its V stage scored on a thread pool
//!   (Algorithm 3, [`ExecutionMode::Dag`]): one pipeline, the same
//!   report.
//! * [`match_universal`](EvMatcher::match_universal) — every EID present
//!   in the E-data gets labeled; afterwards any query is an index lookup.
//!   "Note that the larger the matching size is, the less time it costs
//!   per EID-VID pair" (§I).

use crate::edp::match_edp;
use crate::refine::{record_run, run_rounds, RunFacts, SplitMode};
use crate::setsplit::SetSplitConfig;
use crate::types::MatchReport;
use ev_core::ids::Eid;
use ev_dag::JobError;
use ev_store::{EScenarioStore, StoreBackend, VideoStore};
use ev_telemetry::{Telemetry, TraceCtx};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// How [`EvMatcher::match_many`] executes. The mode changes only where
/// the work runs, never the report: both run Algorithms 1–2 and the
/// longest-first exclusion walk over the whole [`MatcherConfig`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ExecutionMode {
    /// The pipeline on the caller's thread.
    Sequential,
    /// The pipeline with each wave of the V stage's walk scored as one
    /// [`ev_dag::par_map`] on this many threads (see [`crate::dagflow`]);
    /// a panicking partition ends the run as
    /// [`JobError::WorkerPanicked`]. One thread runs the pipeline
    /// inline: a wave scores candidates its own locks rule out, work one
    /// thread cannot hide.
    Dag(usize),
}

/// Matcher configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatcherConfig {
    /// Splitting semantics: ideal or practical (vague zones).
    pub mode: SplitMode,
    /// Scenario selection for the splitting stage.
    pub split: SetSplitConfig,
    /// Refinement round budget.
    pub max_rounds: u32,
    /// Where the pipeline runs.
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
    /// including its parallel maps in DAG mode — records spans
    /// and metrics through it.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.telemetry = telemetry.clone();
        self
    }

    /// Matches a single EID without touching any other
    /// ("we can find the VID corresponding to one specific EID without
    /// matching other EIDs and VIDs", §I): [`match_edp`] on `{eid}` at
    /// one worker, seed 0.
    ///
    /// # Errors
    ///
    /// [`JobError::Input`] when footage the list selects failed to load
    /// (see [`VideoStore::check_loads`]).
    pub fn match_one(&self, eid: Eid) -> Result<MatchReport, JobError> {
        let mut span = self.telemetry.span("match_one", "pipeline");
        let (estore, video, tel) = (self.estore, self.video, &self.telemetry);
        let targets = BTreeSet::from([eid]);
        let report = match_edp(1, estore, video, &targets, 0, tel)?;
        // One list through one fresh cache: a miss per distinct
        // scenario, a hit per repeat.
        let list = &report.lists[&eid];
        let misses = list.iter().collect::<BTreeSet<_>>().len();
        // A single-EID query does not split: nothing recorded, no bound.
        let facts = RunFacts {
            targets: 1,
            recorded: 0,
            fully_split: false,
            gallery_hits: (list.len() - misses) as u64,
            gallery_misses: misses as u64,
        };
        record_run(tel, &facts, report.timings);
        span.arg(
            "matched",
            serde::Value::Bool(report.outcomes[0].vid.is_some()),
        );
        drop(span);
        Ok(report)
    }

    /// Matches a set of EIDs simultaneously via EID set splitting: on
    /// the caller's thread, or, when [`ExecutionMode::Dag`] names two or
    /// more threads, with every round's V stage scored on that many —
    /// one [`ev_dag::par_map`] per wave of the walk (see
    /// [`crate::dagflow`]).
    ///
    /// The report is the inline pipeline's (timings aside) at every
    /// thread count, and the run exports the same counters but
    /// `evm_vfilter_candidates_scored`: a pooled wave's lists are scored
    /// before the wave's own locks, so they count the candidates those
    /// locks rule out too.
    ///
    /// # Errors
    ///
    /// [`JobError::Input`] when footage a selected scenario needs failed
    /// to load — never a report computed without it (see
    /// [`VideoStore::check_loads`]); on two or more threads also what
    /// [`ev_dag::par_map`] returns (a refused worker thread, or a
    /// panicking partition).
    pub fn match_many(&self, targets: &BTreeSet<Eid>) -> Result<MatchReport, JobError> {
        let threads = match self.config.execution {
            ExecutionMode::Dag(threads) if threads >= 2 => Some(threads),
            ExecutionMode::Sequential | ExecutionMode::Dag(_) => None,
        };
        let tel = &self.telemetry;
        let ctx = TraceCtx::root();
        let mut span = tel.span_ctx("match_many", "pipeline", ctx);
        if let Some(threads) = threads {
            span.arg("threads", serde::Value::Int(threads as i128));
        }
        let pool = threads.map(|threads| (threads, ctx));
        let report = run_rounds(self.estore, self.video, targets, &self.config, tel, pool)?;
        self.video.check_loads().map_err(JobError::Input)?;
        span.arg("rounds", serde::Value::Int(i128::from(report.rounds)));
        Ok(report)
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

    /// `match_one` is EDP on the one EID at one worker, seed 0: the same
    /// outcome, list and selected scenarios. Its counters are those of
    /// one list scored through a fresh cache: EID 2's two scenarios
    /// fetched once each, three candidates scored.
    #[test]
    fn match_one_is_edp_on_the_one_eid() {
        use ev_telemetry::{names, TelemetryLevel};
        let (store, video) = world();
        let eid = Eid::from_u64(2);
        let tel = Telemetry::new(TelemetryLevel::Counters);
        let matcher = EvMatcher::new(&store, &video, MatcherConfig::default()).with_telemetry(&tel);
        let one = matcher.match_one(eid).unwrap();
        let edp = match_edp(
            1,
            &store,
            &video,
            &BTreeSet::from([eid]),
            0,
            Telemetry::disabled(),
        )
        .unwrap();
        assert_eq!(one.outcomes, edp.outcomes);
        assert_eq!(one.lists, edp.lists);
        assert_eq!(one.selected_scenarios, edp.selected_scenarios);
        assert_eq!(one.rounds, 1);
        let counter = |name| tel.registry().counter_value(name).unwrap_or(0);
        assert_eq!(counter(names::VFILTER_GALLERY_HITS), 0);
        assert_eq!(counter(names::VFILTER_GALLERY_MISSES), 2);
        assert_eq!(counter(names::VFILTER_CANDIDATES_SCORED), 3);
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
        assert!(report.outcomes.iter().all(crate::MatchOutcome::is_majority));
        assert_eq!(report.rounds, 1, "one round covers the job");
    }

    #[test]
    fn universal_matching_covers_every_eid_in_e_data() {
        let (store, video) = world();
        let matcher = EvMatcher::new(&store, &video, MatcherConfig::default());
        let report = matcher.match_universal().unwrap();
        assert_eq!(report.outcomes.len(), 4, "4 distinct EIDs in E-data");
        assert!(report.outcomes.iter().all(crate::MatchOutcome::is_majority));
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
