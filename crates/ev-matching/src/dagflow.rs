//! The matching pipeline on a thread pool (paper §V, Algorithm 3).
//!
//! The paper's Algorithm 3 is Algorithms 1–2 in MapReduce form, so the
//! parallel pipeline *is* the sequential one: [`EvMatcher::match_many`]
//! under [`ExecutionMode::Dag`] runs Algorithm 1, Algorithm 2's rounds
//! and the longest-first exclusion walk exactly as it does inline, and
//! its report is the inline pipeline's at every thread count. All this
//! module adds is where a wave is scored:
//! the walk ([`VStage::filter_longest_first`]) takes each round's
//! longest-first order in waves, and the pool scores each wave as
//! **one [`par_map`]** of 4 partitions (`score_wave`):
//!
//! ```text
//!            ┌──────────── per wave of the longest-first order ────────────┐
//! lists ──►  fetch galleries ──► dag_score×4 ──► tally in order, lock, ──► outcomes,
//!            (calling thread)    (par_map)       release at last use        locks
//! ```
//!
//! * *fetch* — the caller extracts and packs the wave's galleries into
//!   the run's one gallery cache, counting hits and misses as the
//!   inline walk does.
//! * `dag_score×4` — each of the wave's lists scored against those
//!   galleries, shared and read-only, with the VIDs locked before the
//!   wave excluded.
//! * *tally* — the caller tallies the wave's EIDs in walk order, each
//!   without the VIDs locked since the wave was scored. Exclusion only
//!   removes candidates (after the quorum count; a representative and a
//!   log-joint read the candidate's own observations alone), so that
//!   tally is, bit for bit, the outcome of scoring the EID with every
//!   lock so far excluded, which is what the inline walk does. Each
//!   gallery goes once the last entry naming it is tallied.
//!
//! Every round runs this way. The map's geometry (4 score partitions)
//! is pinned, so every output is independent of the thread count.
//!
//! [`VStage::filter_longest_first`]: crate::vfilter::VStage::filter_longest_first
//! [`EvMatcher::match_many`]: crate::matcher::EvMatcher::match_many
//! [`ExecutionMode::Dag`]: crate::matcher::ExecutionMode::Dag

use crate::vfilter::{model_of, CacheEntry, Scores};
use ev_core::ids::Vid;
use ev_dag::{par_map, JobError};
use ev_store::VideoStore;
use ev_telemetry::{Telemetry, TraceCtx};
use std::collections::BTreeSet;

/// Score partitions, pinned so the map's outputs are independent of the
/// thread count.
const V_PARTITIONS: usize = 4;

/// One wave of the walk scored on `threads` workers: `wave[i]` is a
/// list's footage-bearing galleries in list order, scored with
/// `excluded` ruled out after the quorum count. Returns the scores in
/// `wave`'s order.
pub(crate) fn score_wave(
    threads: usize,
    ctx: TraceCtx,
    wave: &[Vec<&CacheEntry>],
    excluded: &BTreeSet<Vid>,
    video: &VideoStore,
    tel: &Telemetry,
) -> Result<Vec<Scores>, JobError> {
    let parts = par_map("dag_score", V_PARTITIONS, threads, tel, ctx, |p| {
        let mine = wave.iter().skip(p).step_by(V_PARTITIONS);
        mine.map(|entries| model_of(entries.clone(), excluded).score(video, tel))
            .collect::<Vec<Scores>>()
    })?;
    // Partition `p` scored lists `p`, `p + 4`, ….
    let mut parts: Vec<_> = parts.into_iter().map(Vec::into_iter).collect();
    let scores = (0..wave.len()).map(|i| parts[i % V_PARTITIONS].next());
    Ok(scores
        .map(|s| s.expect("every list is scored once"))
        .collect())
}

#[cfg(test)]
mod tests {
    use crate::matcher::{EvMatcher, ExecutionMode, MatcherConfig};
    use crate::types::MatchReport;
    use ev_core::feature::FeatureVector;
    use ev_core::ids::{Eid, Vid};
    use ev_core::region::CellId;
    use ev_core::scenario::{Detection, EScenario, VScenario, ZoneAttr};
    use ev_core::time::Timestamp;
    use ev_store::{EScenarioStore, VideoStore};
    use ev_telemetry::{Telemetry, TelemetryLevel};
    use ev_vision::cost::CostModel;
    use std::collections::BTreeSet;

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

    fn run_match(threads: usize, telemetry: &Telemetry) -> (MatchReport, VideoStore) {
        // Fresh stores per run so extraction caching cannot leak across
        // runs.
        let (store, video) = world();
        let config = MatcherConfig {
            execution: ExecutionMode::Dag(threads),
            ..MatcherConfig::default()
        };
        let report = EvMatcher::new(&store, &video, config)
            .with_telemetry(telemetry)
            .match_many(&targets());
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

    /// The calling thread fetches a wave's galleries into the run's
    /// cache before the pool scores the wave, and the scorers read only
    /// those. Everyone is confident in round 1 here, so no later round
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
        // The pool's map is part of the V stage, and e + v is no
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
        assert!(total_us <= dur_us("match_many"), "{timings:?}");
    }
}
