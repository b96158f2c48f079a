//! MapReduce parallelization of EV-Matching (paper §V, Algorithm 3).
//!
//! **Set splitting** runs as iterations of two chained jobs on the
//! [`ev_mapreduce`] engine. Each iteration:
//!
//! 1. *Preprocess* — pick a random unused timestamp, select the
//!    E-Scenarios snapshotted there that touch the requested EIDs, and
//!    put them next to the current partition blocks as a list of
//!    identified EID sets (paper Fig. 4).
//! 2. *Map* — for every EID of every set, emit `(eid, set id)`; the
//!    engine's shuffle groups by EID.
//! 3. *Reduce* — each EID's set-id list is its *membership signature*;
//!    emit `(signature, eid)`.
//! 4. *Merge* — a second shuffle groups EIDs by signature; each group is
//!    one block of the refined partition. Scenario ids on which sibling
//!    signatures differ are the iteration's *effective* scenarios.
//!
//! **VID filtering** parallelizes as the paper describes (§V-C): one job
//! extracts features for all selected V-Scenarios ("these visual
//! operations require no data dependency"), a second job routes each
//! EID's scenario list to one mapper for comparison. Exclusion-based
//! conflict resolution runs as a driver-side fixup afterwards, since
//! parallel mappers cannot see each other's matches.

use crate::setsplit::{attach_anchors, SplitOutput};
use crate::types::{IndexCounters, MatchOutcome, MatchReport, ScenarioList, StageTimings};
use crate::vfilter::{filter_one, VFilterConfig};
use ev_core::ids::{Eid, Vid};
use ev_core::partition::EidPartition;
use ev_core::scenario::ScenarioId;
use ev_mapreduce::{Emitter, JobError, JobMetrics, MapReduce, Mapper, Reducer};
use ev_store::{EScenarioStore, StoreBackend, VideoStore};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Identifier of an EID set flowing through a splitting iteration: either
/// a block of the current partition or an E-Scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum SetId {
    /// The `i`-th block of the current partition.
    Block(usize),
    /// An E-Scenario selected this iteration.
    Scenario(ScenarioId),
}

/// One identified EID set (the unit of work of the map stage).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EidSetRecord {
    /// The set's identity.
    pub id: SetId,
    /// Its member EIDs (already restricted to the requested universe).
    pub eids: Vec<Eid>,
}

/// Configuration of the parallel splitting driver.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParallelSplitConfig {
    /// Seed for the random timestamp order.
    pub seed: u64,
    /// Cap on splitting iterations (`None` = until the timestamps run
    /// out or the partition is fully split).
    pub max_iterations: Option<usize>,
}

/// Map stage of Algorithm 3: emit one `(eid, set id)` pair per
/// membership.
struct MembershipMapper;
impl Mapper<EidSetRecord> for MembershipMapper {
    type Key = Eid;
    type Value = SetId;
    fn map(&self, set: &EidSetRecord, out: &mut Emitter<Eid, SetId>) {
        for &eid in &set.eids {
            out.emit(eid, set.id);
        }
    }
}

/// Reduce stage: canonicalize each EID's set-id list into its signature.
struct SignatureReducer;
impl Reducer<Eid, SetId> for SignatureReducer {
    type Output = (Vec<SetId>, Eid);
    fn reduce(&self, key: &Eid, values: &[SetId]) -> Vec<(Vec<SetId>, Eid)> {
        let mut signature: Vec<SetId> = values.to_vec();
        signature.sort_unstable();
        signature.dedup();
        vec![(signature, *key)]
    }
}

/// Merge-job map stage: key by signature.
struct SignatureMapper;
impl Mapper<(Vec<SetId>, Eid)> for SignatureMapper {
    type Key = Vec<SetId>;
    type Value = Eid;
    fn map(&self, record: &(Vec<SetId>, Eid), out: &mut Emitter<Vec<SetId>, Eid>) {
        out.emit(record.0.clone(), record.1);
    }
}

/// Merge-job reduce stage: a signature group is a new partition block.
struct BlockReducer;
impl Reducer<Vec<SetId>, Eid> for BlockReducer {
    type Output = (Vec<SetId>, Vec<Eid>);
    fn reduce(&self, key: &Vec<SetId>, values: &[Eid]) -> Vec<(Vec<SetId>, Vec<Eid>)> {
        let mut eids = values.to_vec();
        eids.sort_unstable();
        eids.dedup();
        vec![(key.clone(), eids)]
    }
}

/// Runs EID set splitting as iterated MapReduce jobs (paper Algorithm 3).
///
/// Post-processing (anchors, padding, uniqueness) is answered from the
/// store's inverted index; engine job metrics accumulate into `metrics`.
///
/// # Errors
///
/// Propagates [`JobError`] from the engine.
pub fn parallel_split(
    engine: &MapReduce,
    store: &EScenarioStore,
    targets: &BTreeSet<Eid>,
    config: &ParallelSplitConfig,
) -> Result<SplitOutput, JobError> {
    parallel_split_impl(
        engine,
        store,
        targets,
        config,
        false,
        &mut JobMetrics::default(),
    )
}

/// Scan-based reference twin of [`parallel_split`]: identical driver, but
/// post-processing walks the store instead of the index. Kept for the
/// equivalence tests and benches.
///
/// # Errors
///
/// Propagates [`JobError`] from the engine.
pub fn parallel_split_scan(
    engine: &MapReduce,
    store: &EScenarioStore,
    targets: &BTreeSet<Eid>,
    config: &ParallelSplitConfig,
) -> Result<SplitOutput, JobError> {
    parallel_split_impl(
        engine,
        store,
        targets,
        config,
        true,
        &mut JobMetrics::default(),
    )
}

fn parallel_split_impl(
    engine: &MapReduce,
    store: &EScenarioStore,
    targets: &BTreeSet<Eid>,
    config: &ParallelSplitConfig,
    scan: bool,
    metrics: &mut JobMetrics,
) -> Result<SplitOutput, JobError> {
    let mut blocks: Vec<BTreeSet<Eid>> = if targets.is_empty() {
        Vec::new()
    } else {
        vec![targets.clone()]
    };
    let mut recorded: Vec<ScenarioId> = Vec::new();
    let mut lists: BTreeMap<Eid, ScenarioList> = targets.iter().map(|&e| (e, Vec::new())).collect();
    let mut examined = 0usize;

    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut times: Vec<_> = store.times().collect();
    times.shuffle(&mut rng);
    let max_iters = config.max_iterations.unwrap_or(usize::MAX);

    for (iteration, &t) in times.iter().enumerate() {
        if iteration >= max_iters || blocks.iter().all(|b| b.len() == 1) {
            break;
        }

        // ---- preprocess ----
        // Singleton blocks are already distinguished; only live blocks
        // enter the job.
        let (live, done): (Vec<BTreeSet<Eid>>, Vec<BTreeSet<Eid>>) =
            blocks.into_iter().partition(|b| b.len() > 1);
        if live.is_empty() {
            blocks = done;
            break;
        }
        let live_universe: BTreeSet<Eid> = live.iter().flatten().copied().collect();
        let mut inputs: Vec<EidSetRecord> = Vec::new();
        let mut scenario_members: BTreeMap<ScenarioId, Vec<Eid>> = BTreeMap::new();
        for scenario in store.at_time(t) {
            examined += 1;
            // Only confident (inclusive-zone) appearances drive splitting
            // and scenario lists; a drifted (vague) reading may point at
            // the wrong cell's footage (paper §IV-C2).
            let members: Vec<Eid> = scenario
                .iter()
                .filter(|(e, attr)| {
                    *attr == ev_core::scenario::ZoneAttr::Inclusive && live_universe.contains(e)
                })
                .map(|(e, _)| e)
                .collect();
            if !members.is_empty() {
                scenario_members.insert(scenario.id(), members.clone());
                inputs.push(EidSetRecord {
                    id: SetId::Scenario(scenario.id()),
                    eids: members,
                });
            }
        }
        if inputs.is_empty() {
            blocks = live.into_iter().chain(done).collect();
            continue;
        }
        for (i, block) in live.iter().enumerate() {
            inputs.push(EidSetRecord {
                id: SetId::Block(i),
                eids: block.iter().copied().collect(),
            });
        }

        // ---- map + reduce: signatures ----
        let signatures = engine.run(inputs, &MembershipMapper, &SignatureReducer)?;
        metrics.absorb(&signatures.metrics);
        // ---- merge: group by signature ----
        let merged = engine.run(signatures.output, &SignatureMapper, &BlockReducer)?;
        metrics.absorb(&merged.metrics);

        // Rebuild the partition and find the effective scenarios.
        let mut children_of: BTreeMap<usize, Vec<&Vec<SetId>>> = BTreeMap::new();
        let mut new_blocks: Vec<BTreeSet<Eid>> = done;
        for (signature, eids) in &merged.output {
            let block_id = signature.iter().find_map(|s| match s {
                SetId::Block(i) => Some(*i),
                SetId::Scenario(_) => None,
            });
            if let Some(b) = block_id {
                children_of.entry(b).or_default().push(signature);
            }
            new_blocks.push(eids.iter().copied().collect());
        }
        let mut effective: BTreeSet<ScenarioId> = BTreeSet::new();
        for children in children_of.values() {
            if children.len() < 2 {
                continue; // the block did not split
            }
            let union: BTreeSet<ScenarioId> = children
                .iter()
                .flat_map(|sig| sig.iter())
                .filter_map(|s| match s {
                    SetId::Scenario(id) => Some(*id),
                    SetId::Block(_) => None,
                })
                .collect();
            for id in union {
                let holders = children
                    .iter()
                    .filter(|sig| sig.contains(&SetId::Scenario(id)))
                    .count();
                if holders > 0 && holders < children.len() {
                    effective.insert(id);
                }
            }
        }
        for id in effective {
            recorded.push(id);
            if let Some(members) = scenario_members.get(&id) {
                for &eid in members {
                    if let Some(list) = lists.get_mut(&eid) {
                        list.push(id);
                    }
                }
            }
        }
        blocks = new_blocks;
    }

    attach_anchors(store, &mut lists, scan);
    crate::setsplit::extend_lists(store, &mut lists, 3, config.seed, true, scan);
    crate::setsplit::ensure_unique_against_universe(store, &mut lists, config.seed, true, scan);
    let partition = EidPartition::from_blocks(blocks)
        .expect("merge output blocks are disjoint by construction");
    Ok(SplitOutput {
        recorded,
        lists,
        partition,
        scenarios_examined: examined,
    })
}

/// Extraction job mapper: force feature extraction of one V-Scenario.
struct ExtractionMapper<'a> {
    video: &'a VideoStore,
}
impl Mapper<ScenarioId> for ExtractionMapper<'_> {
    type Key = ScenarioId;
    type Value = usize;
    fn map(&self, id: &ScenarioId, out: &mut Emitter<ScenarioId, usize>) {
        let detections = self.video.extract(*id).map_or(0, |s| s.len());
        out.emit(*id, detections);
    }
}

struct CountReducer;
impl Reducer<ScenarioId, usize> for CountReducer {
    type Output = (ScenarioId, usize);
    fn reduce(&self, key: &ScenarioId, values: &[usize]) -> Vec<(ScenarioId, usize)> {
        vec![(*key, values.iter().copied().max().unwrap_or(0))]
    }
}

/// Comparison job mapper: one EID's whole scenario list per record.
struct ComparisonMapper<'a> {
    video: &'a VideoStore,
    config: VFilterConfig,
}
impl Mapper<(Eid, ScenarioList)> for ComparisonMapper<'_> {
    type Key = Eid;
    type Value = MatchOutcome;
    fn map(&self, record: &(Eid, ScenarioList), out: &mut Emitter<Eid, MatchOutcome>) {
        let outcome = filter_one(
            record.0,
            &record.1,
            self.video,
            &self.config,
            &BTreeSet::new(),
        );
        out.emit(record.0, outcome);
    }
}

struct OutcomeReducer;
impl Reducer<Eid, MatchOutcome> for OutcomeReducer {
    type Output = MatchOutcome;
    fn reduce(&self, _key: &Eid, values: &[MatchOutcome]) -> Vec<MatchOutcome> {
        values.first().cloned().into_iter().collect()
    }
}

/// Parallel VID filtering (paper §V-C): extraction job, then comparison
/// job, then driver-side exclusion fixup for conflicting matches.
///
/// # Errors
///
/// Propagates [`JobError`] from the engine.
pub fn parallel_vfilter(
    engine: &MapReduce,
    video: &VideoStore,
    lists: &BTreeMap<Eid, ScenarioList>,
    config: &VFilterConfig,
) -> Result<Vec<MatchOutcome>, JobError> {
    // Job A: extract every distinct selected scenario in parallel.
    let distinct: Vec<ScenarioId> = lists
        .values()
        .flat_map(|l| l.iter().copied())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let _ = engine.run(distinct, &ExtractionMapper { video }, &CountReducer)?;

    // Job B: per-EID comparisons (extractions now all hit the cache).
    let inputs: Vec<(Eid, ScenarioList)> = lists.iter().map(|(&e, l)| (e, l.clone())).collect();
    let mapper = ComparisonMapper {
        video,
        config: VFilterConfig {
            exclusion: false,
            ..*config
        },
    };
    let result = engine.run(inputs, &mapper, &OutcomeReducer)?;
    let mut outcomes = result.output;

    if config.exclusion {
        resolve_conflicts(&mut outcomes, lists, video, config);
    }
    outcomes.sort_by_key(|o| o.eid);
    Ok(outcomes)
}

/// Driver-side exclusion: when several EIDs claim the same VID, the
/// strongest claim wins and the losers re-filter with the claimed VIDs
/// ruled out (sequentially — this tail is small).
pub(crate) fn resolve_conflicts(
    outcomes: &mut [MatchOutcome],
    lists: &BTreeMap<Eid, ScenarioList>,
    video: &VideoStore,
    config: &VFilterConfig,
) {
    for _ in 0..8 {
        let mut claims: BTreeMap<Vid, Vec<usize>> = BTreeMap::new();
        for (i, o) in outcomes.iter().enumerate() {
            if let Some(vid) = o.vid {
                if o.is_majority() {
                    claims.entry(vid).or_default().push(i);
                }
            }
        }
        let mut losers: Vec<usize> = Vec::new();
        for claimants in claims.values() {
            if claimants.len() < 2 {
                continue;
            }
            let winner = *claimants
                .iter()
                .max_by(|&&a, &&b| {
                    let oa = &outcomes[a];
                    let ob = &outcomes[b];
                    // total_cmp: a NaN score must not silently tie and
                    // hand the win to iteration order.
                    oa.vote_share
                        .total_cmp(&ob.vote_share)
                        .then(oa.confidence.total_cmp(&ob.confidence))
                        .then(ob.eid.cmp(&oa.eid))
                })
                .expect("claimants non-empty");
            losers.extend(claimants.iter().filter(|&&i| i != winner));
        }
        if losers.is_empty() {
            return;
        }
        let excluded: BTreeSet<Vid> = claims.keys().copied().collect();
        for i in losers {
            let eid = outcomes[i].eid;
            let list = lists.get(&eid).cloned().unwrap_or_default();
            outcomes[i] = filter_one(eid, &list, video, config, &excluded);
        }
    }
}

/// Full parallel pipeline: Algorithm 3 splitting, then parallel VID
/// filtering, assembled into a [`MatchReport`].
///
/// # Errors
///
/// Propagates [`JobError`] from the engine.
pub fn parallel_match_on<B: StoreBackend>(
    engine: &MapReduce,
    backend: &B,
    targets: &BTreeSet<Eid>,
    split_config: &ParallelSplitConfig,
    vfilter_config: &VFilterConfig,
) -> Result<MatchReport, JobError> {
    parallel_match(
        engine,
        backend.estore(),
        backend.video(),
        targets,
        split_config,
        vfilter_config,
    )
}

/// See [`parallel_match_on`]; this is the concrete-store form.
///
/// # Errors
///
/// Propagates [`JobError`] from the engine.
pub fn parallel_match(
    engine: &MapReduce,
    store: &EScenarioStore,
    video: &VideoStore,
    targets: &BTreeSet<Eid>,
    split_config: &ParallelSplitConfig,
    vfilter_config: &VFilterConfig,
) -> Result<MatchReport, JobError> {
    let tel = engine.telemetry().clone();
    let tel = &tel;
    // Root the causal tree at the pipeline span and re-parent the
    // engine under it, so every MapReduce job this query submits traces
    // back to it (the engine itself is cheap to clone — config + handles).
    let pipeline_ctx = ev_telemetry::TraceCtx::root();
    let mut pipeline_span = tel.span_ctx("parallel_match", "pipeline", pipeline_ctx);
    let engine = &engine.clone().with_parent_ctx(pipeline_ctx);
    let mut metrics = JobMetrics::default();
    let index_before = store.index().stats();
    let cache_hits_before = video.stats().cache_hits;
    let extracted_before = video.stats().extracted_scenarios;

    let e_start = Instant::now();
    let split = {
        let mut e_span = tel.span_ctx("parallel_split", "stage", pipeline_ctx.child());
        let out = parallel_split_impl(engine, store, targets, split_config, false, &mut metrics)?;
        e_span.arg(
            "examined",
            serde::Value::Int(out.scenarios_examined as i128),
        );
        e_span.arg("recorded", serde::Value::Int(out.recorded.len() as i128));
        out
    };
    let e_stage = e_start.elapsed();

    let v_start = Instant::now();
    let outcomes = {
        let mut v_span = tel.span_ctx("parallel_vfilter", "stage", pipeline_ctx.child());
        let out = parallel_vfilter(engine, video, &split.lists, vfilter_config)?;
        v_span.arg("eids", serde::Value::Int(split.lists.len() as i128));
        out
    };
    let v_stage = v_start.elapsed();

    let index_delta = store.index().stats().since(&index_before);
    let cache_hits = video.stats().cache_hits - cache_hits_before;
    let extracted = video.stats().extracted_scenarios - extracted_before;
    let index = IndexCounters {
        postings_probed: index_delta.postings_probed,
        // The parallel V stage shares extractions through the video
        // store's own cache rather than a driver-side gallery.
        cache_hits,
        scans_avoided: index_delta.scans_avoided,
    };
    metrics.record_index_counters(&index);

    let examined = split.scenarios_examined;
    let recorded_len = split.recorded.len();
    let report = MatchReport {
        outcomes,
        selected_scenarios: split.selected(),
        lists: split.lists,
        timings: StageTimings {
            e_stage,
            v_stage,
            index,
        },
        rounds: 1,
    };
    if tel.counters_on() {
        let registry = tel.registry();
        registry
            .counter(ev_telemetry::names::SETSPLIT_SCENARIOS_EXAMINED)
            .add(examined as u64);
        registry
            .counter(ev_telemetry::names::SETSPLIT_RECORDED)
            .add(recorded_len as u64);
        registry
            .counter(ev_telemetry::names::VFILTER_GALLERY_HITS)
            .add(cache_hits);
        registry
            .counter(ev_telemetry::names::VFILTER_GALLERY_MISSES)
            .add(extracted as u64);
        let total = cache_hits + extracted as u64;
        if total > 0 {
            registry
                .gauge(ev_telemetry::names::VFILTER_GALLERY_HIT_RATIO)
                .set(cache_hits as f64 / total as f64);
        }
        report.timings.record_to(registry);
        // fully_split stays false here even when the partition is fully
        // split: Algorithm 3 records whole timestamp snapshots, so the
        // Theorem 4.2/4.4 bounds on the recorded count do not apply.
        crate::refine::record_paper_gauges(
            registry,
            targets.len(),
            recorded_len,
            false,
            extracted as u64,
            &report,
        );
    }
    pipeline_span.arg("outcomes", serde::Value::Int(report.outcomes.len() as i128));
    drop(pipeline_span);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setsplit::{split_ideal, SetSplitConfig};
    use ev_core::feature::FeatureVector;
    use ev_core::region::CellId;
    use ev_core::scenario::{Detection, EScenario, VScenario, ZoneAttr};
    use ev_core::time::Timestamp;
    use ev_mapreduce::ClusterConfig;
    use ev_vision::cost::CostModel;

    fn world() -> (EScenarioStore, VideoStore) {
        // 8 persons; at time t, cell c holds persons {p : p mod 2^... }
        // binary-ish layout that fully distinguishes everyone.
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

    fn targets(raw: impl IntoIterator<Item = u64>) -> BTreeSet<Eid> {
        raw.into_iter().map(Eid::from_u64).collect()
    }

    fn engine() -> MapReduce {
        MapReduce::new(ClusterConfig {
            workers: 4,
            split_size: 2,
            reduce_partitions: 3,
            ..ClusterConfig::default()
        })
    }

    #[test]
    fn parallel_split_distinguishes_everyone() {
        let (store, _) = world();
        let out = parallel_split(
            &engine(),
            &store,
            &targets(0..8),
            &ParallelSplitConfig::default(),
        )
        .unwrap();
        assert!(out.fully_split(), "partition: {:?}", out.partition);
        // 3 timestamps x 2 scenarios, only ~half are effective (each
        // timestamp's two cells carry complementary information — one of
        // the two suffices at the first timestamp).
        assert!(out.recorded.len() <= 7, "Theorem 4.2: at most n-1");
        for eid in 0..8 {
            assert!(
                !out.lists[&Eid::from_u64(eid)].is_empty(),
                "every EID needs footage"
            );
        }
    }

    #[test]
    fn parallel_split_matches_sequential_partition_granularity() {
        let (store, _) = world();
        let parallel = parallel_split(
            &engine(),
            &store,
            &targets(0..8),
            &ParallelSplitConfig {
                seed: 3,
                max_iterations: None,
            },
        )
        .unwrap();
        let sequential = split_ideal(&store, &targets(0..8), &SetSplitConfig::default());
        assert_eq!(
            parallel.partition.block_count(),
            sequential.partition.block_count()
        );
    }

    #[test]
    fn parallel_split_respects_iteration_cap() {
        let (store, _) = world();
        let out = parallel_split(
            &engine(),
            &store,
            &targets(0..8),
            &ParallelSplitConfig {
                seed: 0,
                max_iterations: Some(1),
            },
        )
        .unwrap();
        assert!(!out.fully_split(), "one timestamp cannot split 8 EIDs");
    }

    #[test]
    fn parallel_split_empty_targets() {
        let (store, _) = world();
        let out = parallel_split(
            &engine(),
            &store,
            &BTreeSet::new(),
            &ParallelSplitConfig::default(),
        )
        .unwrap();
        assert!(out.recorded.is_empty());
        assert!(out.lists.is_empty());
    }

    #[test]
    fn parallel_vfilter_matches_everyone() {
        let (store, video) = world();
        let split = parallel_split(
            &engine(),
            &store,
            &targets(0..8),
            &ParallelSplitConfig::default(),
        )
        .unwrap();
        let outcomes =
            parallel_vfilter(&engine(), &video, &split.lists, &VFilterConfig::default()).unwrap();
        assert_eq!(outcomes.len(), 8);
        for o in &outcomes {
            assert_eq!(o.vid.map(Vid::as_u64), Some(o.eid.as_u64()));
        }
    }

    #[test]
    fn extraction_job_populates_the_cache() {
        let (store, video) = world();
        let split = parallel_split(
            &engine(),
            &store,
            &targets(0..8),
            &ParallelSplitConfig::default(),
        )
        .unwrap();
        let before = video.stats().extracted_scenarios;
        assert_eq!(before, 0);
        let _ =
            parallel_vfilter(&engine(), &video, &split.lists, &VFilterConfig::default()).unwrap();
        let stats = video.stats();
        let distinct: BTreeSet<ScenarioId> = split
            .lists
            .values()
            .flat_map(|l| l.iter().copied())
            .collect();
        assert_eq!(stats.extracted_scenarios, distinct.len());
        assert!(stats.cache_hits > 0, "comparison job reuses extractions");
    }

    #[test]
    fn parallel_match_end_to_end() {
        let (store, video) = world();
        let report = parallel_match(
            &engine(),
            &store,
            &video,
            &targets(0..8),
            &ParallelSplitConfig::default(),
            &VFilterConfig::default(),
        )
        .unwrap();
        assert_eq!(report.outcomes.len(), 8);
        assert!(report.majority_rate() > 0.9);
        assert!(!report.selected_scenarios.is_empty());
    }

    #[test]
    fn conflict_resolution_keeps_one_claimant_per_vid() {
        let (store, video) = world();
        let split = parallel_split(
            &engine(),
            &store,
            &targets(0..8),
            &ParallelSplitConfig::default(),
        )
        .unwrap();
        let outcomes =
            parallel_vfilter(&engine(), &video, &split.lists, &VFilterConfig::default()).unwrap();
        let mut seen: BTreeSet<Vid> = BTreeSet::new();
        for o in outcomes.iter().filter(|o| o.is_majority()) {
            let vid = o.vid.unwrap();
            assert!(seen.insert(vid), "VID {vid} claimed twice");
        }
    }
}
