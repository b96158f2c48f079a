//! The matching pipeline on a thread pool (paper §V, Algorithm 3).
//!
//! The paper's Algorithm 3 is Algorithms 1–2 in MapReduce form, so the
//! parallel pipeline *is* the sequential one: [`dag_match`] runs
//! Algorithm 1, Algorithm 2's rounds and the longest-first exclusion
//! walk exactly as
//! [`match_with_refinement`](crate::refine::match_with_refinement)
//! does, and its report is that pipeline's at every thread count. The
//! pool takes the part of the work that needs no order — scoring round
//! 1's lists, before anything is locked — as **one stage-DAG
//! submission** on the [`ev_dag::dag`] scheduler:
//!
//! ```text
//! extract×4 ──► score×4 ──► finalize ──► outcomes, locks; rounds ≥ 2 inline
//! ```
//!
//! * `extract×4` — every distinct scenario round 1's lists name is
//!   extracted once and packed into its gallery; the footage goes at
//!   packing, the rule the sequential `GalleryCache` follows.
//! * `score×4` — each EID's quorum candidates scored against those
//!   galleries, shared and read-only, with nothing excluded. The
//!   scheduler releases the galleries once the last scorer is done.
//! * `finalize` — the longest-first walk over those scores: each EID's
//!   tally leaves out the VIDs locked before its turn. Exclusion only
//!   removes candidates (after the quorum count; a representative and a
//!   log-joint read the candidate's own observations alone), so that
//!   tally is, bit for bit, the outcome of scoring the EID with those
//!   VIDs excluded, which is what the inline walk does.
//!
//! Round 1's requests are then counted into the run's gallery cache as
//! the inline walk counts them, and rounds ≥ 2 — only the EIDs round 1
//! left unconfident — run inline from that cache, empty as the inline
//! walk leaves it. The stage geometry
//! (4 extract, 4 score partitions) is pinned, so every output is
//! independent of [`DagConfig::threads`] and of panic retries. Eager
//! scoring scores candidates the inline walk would have excluded first:
//! the pool buys its parallelism with that extra kernel work.

use crate::refine::{run_rounds, RefineConfig};
use crate::types::{MatchOutcome, MatchReport, ScenarioList};
use crate::vfilter::{longest_first, model_of, tally, CacheEntry, Scores, VFilterConfig};
use ev_core::ids::{Eid, Vid};
use ev_core::scenario::ScenarioId;
use ev_dag::dag::{DagConfig, DagSpec, StageDep};
use ev_dag::JobError;
use ev_store::{EScenarioStore, VideoStore};
use ev_telemetry::{Telemetry, TraceCtx};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Extract/score-stage partitions, pinned so the stage outputs are
/// independent of the thread count.
const V_PARTITIONS: usize = 4;

/// The partition payload flowing through the V-stage DAG.
enum Flow {
    /// `extract` partition: its share of the distinct listed scenarios,
    /// each packed into its gallery (`None`: the scenario has no
    /// footage).
    Galleries(Vec<(ScenarioId, Option<CacheEntry>)>),
    /// `score` partition: its share of the EIDs, each list's quorum
    /// candidates scored with nothing excluded.
    Scores(Vec<(Eid, Scores)>),
    /// `finalize`: the walk's outcomes in processing order and the VIDs
    /// it locked.
    Final(Vec<MatchOutcome>, BTreeSet<Vid>),
}

impl Flow {
    fn as_galleries(&self) -> &[(ScenarioId, Option<CacheEntry>)] {
        match self {
            Flow::Galleries(g) => g,
            _ => unreachable!("expected an extract partition"),
        }
    }
    fn as_scores(&self) -> &[(Eid, Scores)] {
        match self {
            Flow::Scores(s) => s,
            _ => unreachable!("expected a score partition"),
        }
    }
}

/// Round 1's V stage as one submission on `config`'s pool: extract and
/// pack every listed gallery, score every list, then walk the lists
/// longest first, locking the VID of every outcome `locks` accepts.
/// Returns the outcomes in processing order and the VIDs locked, as the
/// inline walk leaves them.
pub(crate) fn filter_round_1(
    config: &DagConfig,
    ctx: TraceCtx,
    video: &VideoStore,
    lists: &BTreeMap<Eid, ScenarioList>,
    vfilter: &VFilterConfig,
    locks: fn(&MatchOutcome) -> bool,
    tel: &Telemetry,
) -> Result<(Vec<MatchOutcome>, BTreeSet<Vid>), JobError> {
    let distinct: BTreeSet<ScenarioId> = lists.values().flatten().copied().collect();
    let distinct = &distinct;
    let mut dag: DagSpec<'_, Flow> = DagSpec::new();
    let extract = dag.stage("dag_extract", V_PARTITIONS, Vec::new(), move |ctx, _| {
        let mine = distinct.iter().skip(ctx.partition).step_by(V_PARTITIONS);
        let pack = |id| {
            video
                .extract(id)
                .map(|footage| CacheEntry::new(footage, tel))
        };
        Flow::Galleries(mine.map(|&id| (id, pack(id))).collect())
    });
    let score = dag.stage(
        "dag_score",
        V_PARTITIONS,
        vec![StageDep::shuffle(extract)],
        move |ctx, inputs| {
            let galleries: BTreeMap<ScenarioId, &CacheEntry> = (inputs.iter())
                .flat_map(|part| part.as_galleries())
                .filter_map(|(id, entry)| Some((*id, entry.as_ref()?)))
                .collect();
            let mine = lists.iter().skip(ctx.partition).step_by(V_PARTITIONS);
            let scored = mine.map(|(&eid, list)| {
                let entries = list.iter().filter_map(|id| galleries.get(id).copied());
                let model = model_of(entries.collect(), &BTreeSet::new());
                (eid, model.score(vfilter.metric, video, tel))
            });
            Flow::Scores(scored.collect())
        },
    );
    let finalize = dag.stage(
        "dag_finalize",
        1,
        vec![StageDep::shuffle(score)],
        move |_, inputs| {
            let scores: BTreeMap<Eid, &Scores> = (inputs.iter())
                .flat_map(|part| part.as_scores())
                .map(|(eid, scores)| (*eid, scores))
                .collect();
            let mut locked = BTreeSet::new();
            let outcomes = longest_first(
                lists,
                &mut locked,
                vfilter.exclusion,
                locks,
                |eid, _, locked| tally(eid, &scores[&eid].without(locked)),
            );
            Flow::Final(outcomes, locked)
        },
    );
    let mut outputs = dag.run(config, tel, ctx)?.outputs;
    // The run is over: its outputs hold the last reference to the
    // finaliser's one partition.
    let part = outputs
        .remove(&finalize)
        .and_then(|parts| parts.into_iter().next());
    let Some(Flow::Final(outcomes, locked)) = part.and_then(Arc::into_inner) else {
        unreachable!("finalize produces the walk's outcomes");
    };
    Ok((outcomes, locked))
}

/// The matching pipeline with round 1's V stage on `config`'s pool —
/// one submission per match, so a lost worker costs only the partition
/// it was computing. [`EvMatcher`] with [`ExecutionMode::Dag`] of two or
/// more threads runs through here; this entry uses the pool at any
/// thread count.
///
/// The report equals
/// [`match_with_refinement`](crate::refine::match_with_refinement)'s
/// over the same inputs (timings aside), whatever the thread count or
/// injected task loss, and the run epilogue exports the same counters
/// but `evm_vfilter_candidates_scored`, which counts every quorum
/// candidate of round 1.
///
/// [`EvMatcher`]: crate::matcher::EvMatcher
/// [`ExecutionMode::Dag`]: crate::matcher::ExecutionMode::Dag
///
/// # Errors
///
/// Propagates [`JobError`] from the scheduler, and fails with
/// [`JobError::Input`] when footage the V stages asked for failed to
/// load (see [`VideoStore::check_loads`]).
pub fn dag_match(
    config: &DagConfig,
    store: &EScenarioStore,
    video: &VideoStore,
    targets: &BTreeSet<Eid>,
    refine: &RefineConfig,
    telemetry: &Telemetry,
) -> Result<MatchReport, JobError> {
    let pipeline_ctx = TraceCtx::root();
    let mut pipeline_span = telemetry.span_ctx("dag_match", "pipeline", pipeline_ctx);
    pipeline_span.arg("threads", serde::Value::Int(config.threads as i128));
    let report = run_rounds(
        store,
        video,
        targets,
        refine,
        telemetry,
        Some((config, pipeline_ctx)),
    )?;
    video.check_loads().map_err(JobError::Input)?;
    pipeline_span.arg("rounds", serde::Value::Int(i128::from(report.rounds)));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refine::SplitMode;
    use ev_core::feature::FeatureVector;
    use ev_core::region::CellId;
    use ev_core::scenario::{Detection, EScenario, VScenario, ZoneAttr};
    use ev_core::time::Timestamp;
    use ev_telemetry::TelemetryLevel;
    use ev_vision::cost::CostModel;

    fn world() -> (EScenarioStore, VideoStore) {
        // 8 persons; the three timestamps split them by one bit each,
        // so everyone is distinguished.
        let layout: Vec<(u64, usize, Vec<u64>)> = vec![
            (0, 0, vec![0, 1, 2, 3]),
            (0, 1, vec![4, 5, 6, 7]),
            (1, 0, vec![0, 1, 4, 5]),
            (1, 1, vec![2, 3, 6, 7]),
            (2, 0, vec![0, 2, 4, 6]),
            (2, 1, vec![1, 3, 5, 7]),
        ];
        let mut es = Vec::new();
        let mut vs = Vec::new();
        for (t, c, people) in &layout {
            let mut e = EScenario::new(CellId::new(*c), Timestamp::new(*t));
            let mut v = VScenario::new(CellId::new(*c), Timestamp::new(*t));
            for &p in people {
                e.insert(Eid::from_u64(p), ZoneAttr::Inclusive);
                let mut f = vec![0.05; 8];
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

    fn targets() -> BTreeSet<Eid> {
        (0..8).map(Eid::from_u64).collect()
    }

    fn refine() -> RefineConfig {
        RefineConfig {
            mode: SplitMode::Practical,
            ..RefineConfig::default()
        }
    }

    fn run_match(threads: usize, telemetry: &Telemetry) -> (MatchReport, VideoStore) {
        // Fresh stores per run so extraction caching cannot leak across
        // runs.
        let (store, video) = world();
        let config = DagConfig::new(threads);
        let report = dag_match(&config, &store, &video, &targets(), &refine(), telemetry);
        (report.unwrap(), video)
    }

    #[test]
    fn dag_match_awards_every_vid_to_its_one_claimant() {
        let (report, _) = run_match(4, Telemetry::disabled());
        assert_eq!(report.outcomes.len(), 8);
        assert!(!report.selected_scenarios.is_empty());
        // VID = EID number in this world, so a right answer for all
        // eight also means no VID was awarded twice.
        for o in &report.outcomes {
            assert!(o.is_majority());
            assert_eq!(o.vid.map(Vid::as_u64), Some(o.eid.as_u64()));
        }
    }

    #[test]
    fn dag_match_exports_the_cover_block_count() {
        use ev_telemetry::names;
        let tel = Telemetry::new(TelemetryLevel::Counters);
        let (report, video) = run_match(2, &tel);
        // `world()` tells all eight targets apart.
        let blocks = tel.registry().gauge_value(names::SETSPLIT_BLOCKS);
        assert_eq!(blocks, Some(8.0), "the DAG path sets the gauge too");
        // Everyone is confident in round 1, so each list was asked for
        // once: a miss per gallery extracted, a hit per other entry.
        assert_eq!(report.rounds, 1);
        let counter = |name| tel.registry().counter(name).get();
        let misses = counter(names::VFILTER_GALLERY_MISSES);
        assert_eq!(misses, video.stats().extracted_scenarios as u64);
        let entries: usize = report.lists.values().map(Vec::len).sum();
        assert_eq!(
            counter(names::VFILTER_GALLERY_HITS) + misses,
            entries as u64
        );
    }

    /// Round 1's scorers read the galleries its extract partitions
    /// packed. Everyone is confident in round 1 here, so no later round
    /// re-fetches a released gallery and the store is asked once per
    /// selected scenario.
    #[test]
    fn extraction_warms_the_cache_before_scoring() {
        let (report, video) = run_match(2, Telemetry::disabled());
        assert_eq!(report.rounds, 1);
        let stats = video.stats();
        assert_eq!(
            stats.extracted_scenarios,
            report.selected_scenarios.len(),
            "each selected scenario is extracted exactly once"
        );
        assert_eq!(
            stats.cache_hits, 0,
            "scorers read the packed galleries, never the store again"
        );
    }

    #[test]
    fn report_splits_the_submission_wall_into_e_and_v() {
        let tel = Telemetry::new(TelemetryLevel::Full);
        let (report, _) = run_match(2, &tel);
        let timings = report.timings;
        assert!(timings.e_stage > std::time::Duration::ZERO);
        assert!(
            timings.v_stage > std::time::Duration::ZERO,
            "V follows E: {timings:?}"
        );
        // The pool's submission is part of the V stage, and e + v is no
        // longer than the pipeline span around the whole call.
        let events = tel.tracer().events();
        let dur_us = |name: &str| {
            let span = events.iter().find(|e| e.name == name && e.ph == 'X');
            u128::from(span.unwrap_or_else(|| panic!("no {name} span")).dur_us)
        };
        let total_us = timings.total().as_micros();
        assert!(
            dur_us("dag_run") <= timings.v_stage.as_micros(),
            "{timings:?}"
        );
        assert!(total_us <= dur_us("dag_match"), "{timings:?}");
    }
}
