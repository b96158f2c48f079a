//! The matching pipeline as one stage-DAG submission (ROADMAP item 3).
//!
//! [`parallel_match`](crate::parallel::parallel_match) submits two
//! MapReduce jobs *per splitting round*, each with a full barrier, and
//! only then starts VID filtering. This module declares the whole
//! computation — every round of Algorithm 3 set splitting *and* the
//! V stage — as a single [`DagSpec`] on the
//! [`ev_mapreduce::dag`] scheduler, so the expensive per-timestamp
//! snapshot scans all overlap instead of waiting for earlier rounds:
//!
//! ```text
//! init ──────────► sig(0)×4 ─► merge(0) ─► sig(1)×4 ─► merge(1) ─► … ─► assemble
//!  snap(0) ──────────┘▲           ▲            ▲                            │
//!  snap(1) ───────────┼───────────┼────────────┘                            │
//!  snap(…) (all run concurrently) ┘                          extract×4 ◄────┤
//!                                                                 │         │
//!                                               finalize ◄── score×4 ◄──────┘
//! ```
//!
//! * `snap(t)` — one stage per candidate timestamp: scan
//!   `store.at_time(t)` for inclusive-zone members of the target
//!   universe. No dependencies, so every round's scan runs as early as
//!   a worker is free. Scans for rounds the splitter never enters
//!   (because the partition is already fully split) are wasted work —
//!   the price of overlap; they cannot change the result.
//! * `sig(t)` — 4 pinned partitions computing each live EID's
//!   membership signature (the map+reduce of Algorithm 3's first job),
//!   reading `snap(t)` (narrow broadcast) and the previous round's
//!   state (narrow).
//! * `merge(t)` — a real shuffle over the signature partitions: group
//!   EIDs by signature (the second job), derive the refined blocks and
//!   the round's effective scenarios, and fold them into the carried
//!   round state. Replicates `parallel_split_impl`'s round logic
//!   branch for branch, so the final state is byte-identical.
//! * `assemble` — anchors, list padding and uniqueness fixups, exactly
//!   the sequential post-processing.
//! * `extract×4` / `score×4` / `finalize` — the V stage: warm the
//!   gallery cache, score per-EID slices with exclusion off, then one
//!   driver-equivalent conflict fixup.
//!
//! The stage geometry (4 signature partitions, 4 V partitions) is
//! pinned, so the outputs are a pure function of
//! `(store, video, targets, seed)` — independent of
//! [`DagConfig::threads`], of panic retries, and of lineage recomputes.
//! The equivalence tests assert the resulting [`MatchReport`] matches
//! the MapReduce path byte for byte (timings aside) and itself at every
//! thread count.

use crate::parallel::{resolve_conflicts, ParallelSplitConfig, SetId};
use crate::setsplit::{attach_anchors, SplitOutput};
use crate::types::{IndexCounters, MatchOutcome, MatchReport, ScenarioList, StageTimings};
use crate::vfilter::{filter_one, VFilterConfig};
use ev_core::ids::Eid;
use ev_core::partition::EidPartition;
use ev_core::scenario::{ScenarioId, ZoneAttr};
use ev_mapreduce::dag::{DagConfig, DagSpec, StageDep, StageId};
use ev_mapreduce::JobError;
use ev_store::{EScenarioStore, StoreBackend, VideoStore};
use ev_telemetry::{Telemetry, TraceCtx};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

/// Signature-stage partitions, pinned so the stage output is
/// independent of the thread count.
const SIG_PARTITIONS: usize = 4;
/// Extract/score-stage partitions, pinned for the same reason.
const V_PARTITIONS: usize = 4;

/// Splitter state carried from round to round through the merge chain.
#[derive(Debug, Clone, Default)]
struct RoundState {
    blocks: Vec<BTreeSet<Eid>>,
    recorded: Vec<ScenarioId>,
    lists: BTreeMap<Eid, ScenarioList>,
    examined: usize,
    /// The sequential loop would have `break`ed before this round.
    finished: bool,
}

/// The partition payload flowing through the matching DAG.
#[derive(Debug, Clone)]
enum Flow {
    /// `snap(t)`: every scenario at the timestamp (id, inclusive-zone
    /// members ∩ target universe — possibly empty) plus the examined
    /// count the round would charge.
    Snap {
        scenarios: Vec<(ScenarioId, Vec<Eid>)>,
        examined: usize,
    },
    /// `sig(t)` partition: (EID, membership signature) pairs for this
    /// partition's slice of the live universe.
    Sigs(Vec<(Eid, Vec<SetId>)>),
    /// Splitter state after a round (or the initial state).
    Round(RoundState),
    /// `extract` partition: galleries forced into the cache (the
    /// payload is the side effect).
    Extracted,
    /// `score`/`finalize`: match outcomes.
    Outcomes(Vec<MatchOutcome>),
    /// `assemble`: the finished split.
    Split(SplitOutput),
}

impl Flow {
    fn as_snap(&self) -> (&[(ScenarioId, Vec<Eid>)], usize) {
        match self {
            Flow::Snap {
                scenarios,
                examined,
            } => (scenarios, *examined),
            other => unreachable!("expected Snap, got {other:?}"),
        }
    }
    fn as_sigs(&self) -> &[(Eid, Vec<SetId>)] {
        match self {
            Flow::Sigs(s) => s,
            other => unreachable!("expected Sigs, got {other:?}"),
        }
    }
    fn as_round(&self) -> &RoundState {
        match self {
            Flow::Round(r) => r,
            other => unreachable!("expected Round, got {other:?}"),
        }
    }
    fn as_outcomes(&self) -> &[MatchOutcome] {
        match self {
            Flow::Outcomes(o) => o,
            other => unreachable!("expected Outcomes, got {other:?}"),
        }
    }
    fn as_split(&self) -> &SplitOutput {
        match self {
            Flow::Split(s) => s,
            other => unreachable!("expected Split, got {other:?}"),
        }
    }
}

/// The live blocks of a round, their universe, and the restricted
/// scenario sets — `parallel_split_impl`'s preprocess, recomputed
/// identically wherever a stage needs it.
struct RoundView {
    live: Vec<BTreeSet<Eid>>,
    done: Vec<BTreeSet<Eid>>,
    live_universe: BTreeSet<Eid>,
    /// Scenario id → members ∩ live universe (non-empty only), in
    /// snapshot order.
    scenario_sets: Vec<(ScenarioId, Vec<Eid>)>,
}

impl RoundView {
    fn build(state: &RoundState, snapshot: &[(ScenarioId, Vec<Eid>)]) -> RoundView {
        let (live, done): (Vec<BTreeSet<Eid>>, Vec<BTreeSet<Eid>>) =
            state.blocks.iter().cloned().partition(|b| b.len() > 1);
        let live_universe: BTreeSet<Eid> = live.iter().flatten().copied().collect();
        let scenario_sets: Vec<(ScenarioId, Vec<Eid>)> = snapshot
            .iter()
            .filter_map(|(id, members)| {
                let members: Vec<Eid> = members
                    .iter()
                    .filter(|e| live_universe.contains(e))
                    .copied()
                    .collect();
                (!members.is_empty()).then_some((*id, members))
            })
            .collect();
        RoundView {
            live,
            done,
            live_universe,
            scenario_sets,
        }
    }

    /// Is this round a no-op? Mirrors the sequential loop: it breaks
    /// when every block is a singleton and skips the round when no
    /// scenario at the timestamp touches the live universe.
    fn inactive(&self, state: &RoundState) -> bool {
        state.finished || state.blocks.iter().all(|b| b.len() == 1) || self.live.is_empty()
    }
}

/// One EID's membership signature: the sorted ids of every set
/// (restricted scenario or live block) containing it — what the first
/// job's shuffle+reduce produces for the EID.
fn signature_of(eid: Eid, view: &RoundView) -> Vec<SetId> {
    let mut sig: Vec<SetId> = view
        .scenario_sets
        .iter()
        .filter(|(_, members)| members.contains(&eid))
        .map(|(id, _)| SetId::Scenario(*id))
        .collect();
    sig.extend(
        view.live
            .iter()
            .enumerate()
            .filter(|(_, block)| block.contains(&eid))
            .map(|(i, _)| SetId::Block(i)),
    );
    sig.sort_unstable();
    sig
}

/// Builds the full matching DAG over `times` (already shuffled and
/// truncated to the round budget) and returns the spec plus the ids of
/// the `assemble` and `finalize` stages.
#[allow(clippy::too_many_lines)]
fn build_match_spec<'a>(
    store: &'a EScenarioStore,
    video: &'a VideoStore,
    targets: &'a BTreeSet<Eid>,
    times: &[ev_core::time::Timestamp],
    vfilter: &'a VFilterConfig,
    split_seed: u64,
    with_vstage: bool,
) -> (DagSpec<'a, Flow>, StageId, Option<StageId>) {
    let mut dag: DagSpec<'a, Flow> = DagSpec::new();

    let init = dag.stage("dag_init", 1, Vec::new(), move |_ctx, _inputs| {
        Flow::Round(RoundState {
            blocks: if targets.is_empty() {
                Vec::new()
            } else {
                vec![targets.clone()]
            },
            lists: targets.iter().map(|&e| (e, Vec::new())).collect(),
            ..RoundState::default()
        })
    });

    let mut prev_round = init;
    for &t in times {
        let snap = dag.stage("dag_snapshot", 1, Vec::new(), move |_ctx, _inputs| {
            let scenarios: Vec<(ScenarioId, Vec<Eid>)> = store
                .at_time(t)
                .map(|scenario| {
                    let members: Vec<Eid> = scenario
                        .iter()
                        .filter(|(e, attr)| *attr == ZoneAttr::Inclusive && targets.contains(e))
                        .map(|(e, _)| e)
                        .collect();
                    (scenario.id(), members)
                })
                .collect();
            let examined = scenarios.len();
            Flow::Snap {
                scenarios,
                examined,
            }
        });
        let sig = dag.stage(
            "dag_signatures",
            SIG_PARTITIONS,
            vec![StageDep::narrow(snap), StageDep::narrow(prev_round)],
            move |ctx, inputs| {
                let (snapshot, _) = inputs[0].as_snap();
                let state = inputs[1].as_round();
                let view = RoundView::build(state, snapshot);
                if view.inactive(state) || view.scenario_sets.is_empty() {
                    return Flow::Sigs(Vec::new());
                }
                let sigs: Vec<(Eid, Vec<SetId>)> = view
                    .live_universe
                    .iter()
                    .enumerate()
                    .filter(|(rank, _)| rank % SIG_PARTITIONS == ctx.partition)
                    .map(|(_, &eid)| (eid, signature_of(eid, &view)))
                    .collect();
                Flow::Sigs(sigs)
            },
        );
        let merge = dag.stage(
            "dag_merge",
            1,
            vec![
                StageDep::shuffle(sig),
                StageDep::narrow(snap),
                StageDep::narrow(prev_round),
            ],
            move |_ctx, inputs| {
                let (snapshot, snap_examined) = inputs[SIG_PARTITIONS].as_snap();
                let state = inputs[SIG_PARTITIONS + 1].as_round();
                let mut next = state.clone();
                if state.finished || state.blocks.iter().all(|b| b.len() == 1) {
                    // The sequential loop breaks before this round.
                    next.finished = true;
                    return Flow::Round(next);
                }
                let view = RoundView::build(state, snapshot);
                if view.live.is_empty() {
                    next.blocks = view.done;
                    next.finished = true;
                    return Flow::Round(next);
                }
                // Every scenario at the timestamp counts as examined
                // the moment the round is entered.
                next.examined += snap_examined;
                if view.scenario_sets.is_empty() {
                    // Nothing at this timestamp touches the live
                    // universe: the round is a no-op, but the loop
                    // reorders blocks as live ++ done.
                    next.blocks = view.live.into_iter().chain(view.done).collect();
                    return Flow::Round(next);
                }
                // The shuffle: group EIDs by signature, sorted by
                // signature — exactly the engine's key-ordered output.
                let mut groups: BTreeMap<Vec<SetId>, Vec<Eid>> = BTreeMap::new();
                for part in &inputs[..SIG_PARTITIONS] {
                    for (eid, sig) in part.as_sigs() {
                        groups.entry(sig.clone()).or_default().push(*eid);
                    }
                }
                for eids in groups.values_mut() {
                    eids.sort_unstable();
                    eids.dedup();
                }
                let scenario_members: BTreeMap<ScenarioId, &Vec<Eid>> = view
                    .scenario_sets
                    .iter()
                    .map(|(id, members)| (*id, members))
                    .collect();
                let mut children_of: BTreeMap<usize, Vec<&Vec<SetId>>> = BTreeMap::new();
                let mut new_blocks: Vec<BTreeSet<Eid>> = view.done;
                for (signature, eids) in &groups {
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
                    next.recorded.push(id);
                    if let Some(members) = scenario_members.get(&id) {
                        for &eid in *members {
                            if let Some(list) = next.lists.get_mut(&eid) {
                                list.push(id);
                            }
                        }
                    }
                }
                next.blocks = new_blocks;
                Flow::Round(next)
            },
        );
        prev_round = merge;
    }

    let assemble = dag.stage(
        "dag_assemble",
        1,
        vec![StageDep::narrow(prev_round)],
        move |_ctx, inputs| {
            let state = inputs[0].as_round();
            let mut lists = state.lists.clone();
            attach_anchors(store, &mut lists, false);
            crate::setsplit::extend_lists(store, &mut lists, 3, split_seed, true, false);
            crate::setsplit::ensure_unique_against_universe(
                store, &mut lists, split_seed, true, false,
            );
            let partition = EidPartition::from_blocks(state.blocks.clone())
                .expect("merge output blocks are disjoint by construction");
            Flow::Split(SplitOutput {
                recorded: state.recorded.clone(),
                lists,
                partition,
                scenarios_examined: state.examined,
            })
        },
    );
    dag.keep(assemble);
    if !with_vstage {
        return (dag, assemble, None);
    }

    let extract = dag.stage(
        "dag_extract",
        V_PARTITIONS,
        vec![StageDep::narrow(assemble)],
        move |ctx, inputs| {
            let split = inputs[0].as_split();
            let distinct: BTreeSet<ScenarioId> = split
                .lists
                .values()
                .flat_map(|l| l.iter().copied())
                .collect();
            for (_, &id) in distinct
                .iter()
                .enumerate()
                .filter(|(rank, _)| rank % V_PARTITIONS == ctx.partition)
            {
                let _ = video.extract(id);
            }
            Flow::Extracted
        },
    );
    let score = dag.stage(
        "dag_score",
        V_PARTITIONS,
        // The shuffle edge on extract is the cache-warm-up barrier the
        // MapReduce path gets from running its extraction job first.
        vec![StageDep::narrow(assemble), StageDep::shuffle(extract)],
        move |ctx, inputs| {
            let split = inputs[0].as_split();
            let score_config = VFilterConfig {
                exclusion: false,
                ..*vfilter
            };
            let outcomes: Vec<MatchOutcome> = split
                .lists
                .iter()
                .enumerate()
                .filter(|(rank, _)| rank % V_PARTITIONS == ctx.partition)
                .map(|(_, (&eid, list))| {
                    filter_one(eid, list, video, &score_config, &BTreeSet::new())
                })
                .collect();
            Flow::Outcomes(outcomes)
        },
    );
    let finalize = dag.stage(
        "dag_finalize",
        1,
        vec![StageDep::shuffle(score), StageDep::narrow(assemble)],
        move |_ctx, inputs| {
            let split = inputs[V_PARTITIONS].as_split();
            let mut outcomes: Vec<MatchOutcome> = inputs[..V_PARTITIONS]
                .iter()
                .flat_map(|p| p.as_outcomes().iter().cloned())
                .collect();
            // The MapReduce comparison job hands the fixup outcomes in
            // key (= EID) order; reproduce that before resolving.
            outcomes.sort_by_key(|o| o.eid);
            if vfilter.exclusion {
                resolve_conflicts(&mut outcomes, &split.lists, video, vfilter);
            }
            outcomes.sort_by_key(|o| o.eid);
            Flow::Outcomes(outcomes)
        },
    );
    dag.keep(finalize);
    (dag, assemble, Some(finalize))
}

/// The shuffled, budget-truncated timestamp order — identical to
/// `parallel_split_impl`'s draw.
fn round_times(
    store: &EScenarioStore,
    config: &ParallelSplitConfig,
) -> Vec<ev_core::time::Timestamp> {
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut times: Vec<_> = store.times().collect();
    times.shuffle(&mut rng);
    times.truncate(config.max_iterations.unwrap_or(usize::MAX).min(times.len()));
    times
}

/// Algorithm 3 set splitting as one DAG submission: all snapshot scans
/// overlap, rounds pipeline through the merge chain. Byte-identical to
/// [`parallel_split`](crate::parallel::parallel_split) at every thread
/// count.
///
/// # Errors
///
/// Propagates [`JobError`] from the scheduler (a partition that
/// exhausts [`FaultPlan::max_attempts`](ev_mapreduce::FaultPlan::max_attempts)
/// aborts the run).
pub fn dag_split(
    config: &DagConfig,
    store: &EScenarioStore,
    targets: &BTreeSet<Eid>,
    split_config: &ParallelSplitConfig,
    telemetry: &Telemetry,
) -> Result<SplitOutput, JobError> {
    let times = round_times(store, split_config);
    let video = VideoStore::new(Vec::new(), ev_vision::cost::CostModel::free());
    let vfilter = VFilterConfig::default();
    let (dag, assemble, _) = build_match_spec(
        store,
        &video,
        targets,
        &times,
        &vfilter,
        split_config.seed,
        false,
    );
    let run = dag.run(config, telemetry, TraceCtx::root())?;
    Ok(extract_split(&run.outputs[&assemble][0]))
}

fn extract_split(flow: &Arc<Flow>) -> SplitOutput {
    flow.as_split().clone()
}

/// Full matching pipeline over any [`StoreBackend`] as a single DAG
/// submission. See [`dag_match`].
///
/// # Errors
///
/// Propagates [`JobError`] from the scheduler.
pub fn dag_match_on<B: StoreBackend>(
    config: &DagConfig,
    backend: &B,
    targets: &BTreeSet<Eid>,
    split_config: &ParallelSplitConfig,
    vfilter_config: &VFilterConfig,
    telemetry: &Telemetry,
) -> Result<MatchReport, JobError> {
    dag_match(
        config,
        backend.estore(),
        backend.video(),
        targets,
        split_config,
        vfilter_config,
        telemetry,
    )
}

/// Full matching pipeline — every splitting round plus extraction,
/// scoring and conflict resolution — submitted as **one** stage DAG.
/// Universal matching ([`EvMatcher::match_universal`]
/// with [`ExecutionMode::Dag`]) runs through here: the whole job is a
/// single graph, so a lost worker costs only the partitions it was
/// computing.
///
/// The report is byte-identical (timings aside) to
/// [`parallel_match`](crate::parallel::parallel_match) at every thread
/// count.
///
/// [`EvMatcher::match_universal`]: crate::matcher::EvMatcher::match_universal
/// [`ExecutionMode::Dag`]: crate::matcher::ExecutionMode::Dag
///
/// # Errors
///
/// Propagates [`JobError`] from the scheduler.
pub fn dag_match(
    config: &DagConfig,
    store: &EScenarioStore,
    video: &VideoStore,
    targets: &BTreeSet<Eid>,
    split_config: &ParallelSplitConfig,
    vfilter_config: &VFilterConfig,
    telemetry: &Telemetry,
) -> Result<MatchReport, JobError> {
    let pipeline_ctx = TraceCtx::root();
    let mut pipeline_span = telemetry.span_ctx("dag_match", "pipeline", pipeline_ctx);
    pipeline_span.arg("threads", serde::Value::Int(config.threads as i128));
    let index_before = store.index().stats();
    let cache_hits_before = video.stats().cache_hits;
    let extracted_before = video.stats().extracted_scenarios;

    let times = round_times(store, split_config);
    let start = Instant::now();
    let (dag, assemble, finalize) = build_match_spec(
        store,
        video,
        targets,
        &times,
        vfilter_config,
        split_config.seed,
        true,
    );
    let run = dag.run(config, telemetry, pipeline_ctx)?;
    let elapsed = start.elapsed();
    let split = extract_split(&run.outputs[&assemble][0]);
    let finalize = finalize.expect("V stage requested");
    let outcomes = run.outputs[&finalize][0].as_outcomes().to_vec();

    let index_delta = store.index().stats().since(&index_before);
    let cache_hits = video.stats().cache_hits - cache_hits_before;
    let extracted = video.stats().extracted_scenarios - extracted_before;
    let index = IndexCounters {
        postings_probed: index_delta.postings_probed,
        cache_hits,
        scans_avoided: index_delta.scans_avoided,
    };

    let examined = split.scenarios_examined;
    let recorded_len = split.recorded.len();
    let report = MatchReport {
        outcomes,
        selected_scenarios: split.selected(),
        lists: split.lists,
        timings: StageTimings {
            // E and V work overlap inside the single submission, so the
            // whole wall time is charged to the E slot; a per-stage
            // split would be fiction here.
            e_stage: elapsed,
            v_stage: std::time::Duration::ZERO,
            index,
        },
        rounds: 1,
    };
    if telemetry.counters_on() {
        let registry = telemetry.registry();
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
        // As in the other parallel paths: Algorithm 3 records whole
        // timestamp snapshots, so the Theorem 4.2/4.4 bounds do not
        // apply and fully_split stays false.
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

/// The *shape* of an `R`-round splitter DAG with representative virtual
/// costs (snapshot scans dominate), for the makespan models in
/// `BENCH_dag`: [`DagSpec::virtual_makespan`] prices the overlapped
/// schedule, [`DagSpec::barriered_makespan`] the classic
/// stage-at-a-time engine on the same work.
#[must_use]
pub fn round_pipeline_shape(
    rounds: usize,
    snap_cost: u64,
    sig_cost: u64,
    merge_cost: u64,
) -> DagSpec<'static, u64> {
    let mut dag: DagSpec<'static, u64> = DagSpec::new();
    let init = dag.stage("dag_init", 1, Vec::new(), |_, _| 0);
    let mut prev = init;
    for _ in 0..rounds {
        let snap = dag.stage("dag_snapshot", 1, Vec::new(), |_, _| 0);
        dag.set_cost(snap, snap_cost);
        let sig = dag.stage(
            "dag_signatures",
            SIG_PARTITIONS,
            vec![StageDep::narrow(snap), StageDep::narrow(prev)],
            |_, _| 0,
        );
        dag.set_cost(sig, sig_cost);
        let merge = dag.stage(
            "dag_merge",
            1,
            vec![
                StageDep::shuffle(sig),
                StageDep::narrow(snap),
                StageDep::narrow(prev),
            ],
            |_, _| 0,
        );
        dag.set_cost(merge, merge_cost);
        prev = merge;
    }
    let assemble = dag.stage("dag_assemble", 1, vec![StageDep::narrow(prev)], |_, _| 0);
    dag.set_cost(assemble, merge_cost);
    dag
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::{parallel_match, parallel_split};
    use ev_core::feature::FeatureVector;
    use ev_core::ids::Vid;
    use ev_core::region::CellId;
    use ev_core::scenario::{Detection, EScenario, VScenario};
    use ev_core::time::Timestamp;
    use ev_mapreduce::{ClusterConfig, MapReduce};
    use ev_vision::cost::CostModel;

    fn world() -> (EScenarioStore, VideoStore) {
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

    #[test]
    fn dag_split_equals_the_mapreduce_split() {
        let (store, _) = world();
        for seed in [0, 3, 7] {
            let split_config = ParallelSplitConfig {
                seed,
                max_iterations: None,
            };
            let engine = MapReduce::new(ClusterConfig {
                workers: 2,
                split_size: 8,
                reduce_partitions: 4,
                ..ClusterConfig::default()
            });
            let reference = parallel_split(&engine, &store, &targets(), &split_config).unwrap();
            let dag = dag_split(
                &DagConfig::new(2),
                &store,
                &targets(),
                &split_config,
                Telemetry::disabled(),
            )
            .unwrap();
            assert_eq!(dag.recorded, reference.recorded, "seed={seed}");
            assert_eq!(dag.lists, reference.lists, "seed={seed}");
            assert_eq!(dag.partition, reference.partition, "seed={seed}");
            assert_eq!(
                dag.scenarios_examined, reference.scenarios_examined,
                "seed={seed}"
            );
        }
    }

    #[test]
    fn dag_split_respects_the_iteration_cap() {
        let (store, _) = world();
        let split_config = ParallelSplitConfig {
            seed: 0,
            max_iterations: Some(1),
        };
        let engine = MapReduce::new(ClusterConfig {
            workers: 1,
            split_size: 8,
            reduce_partitions: 4,
            ..ClusterConfig::default()
        });
        let reference = parallel_split(&engine, &store, &targets(), &split_config).unwrap();
        let dag = dag_split(
            &DagConfig::new(1),
            &store,
            &targets(),
            &split_config,
            Telemetry::disabled(),
        )
        .unwrap();
        assert!(!dag.fully_split(), "one timestamp cannot split 8 EIDs");
        assert_eq!(dag.partition, reference.partition);
        assert_eq!(dag.scenarios_examined, reference.scenarios_examined);
    }

    #[test]
    fn dag_split_empty_targets() {
        let (store, _) = world();
        let out = dag_split(
            &DagConfig::new(2),
            &store,
            &BTreeSet::new(),
            &ParallelSplitConfig {
                seed: 0,
                max_iterations: None,
            },
            Telemetry::disabled(),
        )
        .unwrap();
        assert!(out.recorded.is_empty());
        assert!(out.lists.is_empty());
    }

    #[test]
    fn dag_match_agrees_with_the_mapreduce_path() {
        let (store, video) = world();
        let split_config = ParallelSplitConfig {
            seed: 3,
            max_iterations: None,
        };
        let report = dag_match(
            &DagConfig::new(4),
            &store,
            &video,
            &targets(),
            &split_config,
            &VFilterConfig::default(),
            Telemetry::disabled(),
        )
        .unwrap();
        let (store2, video2) = world();
        let engine = MapReduce::new(ClusterConfig {
            workers: 1,
            split_size: 8,
            reduce_partitions: 4,
            ..ClusterConfig::default()
        });
        let reference = parallel_match(
            &engine,
            &store2,
            &video2,
            &targets(),
            &split_config,
            &VFilterConfig::default(),
        )
        .unwrap();
        assert_eq!(report.outcomes, reference.outcomes);
        assert_eq!(report.lists, reference.lists);
        assert_eq!(report.selected_scenarios, reference.selected_scenarios);
    }

    fn run_anytime(threads: usize, anytime: Option<crate::anytime::AnytimeConfig>) -> MatchReport {
        // Fresh stores per run so extraction caching cannot leak across
        // thread counts.
        let (store, video) = world();
        dag_match(
            &DagConfig::new(threads),
            &store,
            &video,
            &targets(),
            &ParallelSplitConfig {
                seed: 7,
                max_iterations: None,
            },
            &VFilterConfig {
                anytime,
                ..VFilterConfig::default()
            },
            Telemetry::disabled(),
        )
        .unwrap()
    }

    fn assert_same_report(report: &MatchReport, reference: &MatchReport, threads: usize) {
        assert_eq!(report.outcomes, reference.outcomes, "threads={threads}");
        assert_eq!(report.lists, reference.lists, "threads={threads}");
        assert_eq!(
            report.selected_scenarios, reference.selected_scenarios,
            "threads={threads}"
        );
    }

    #[test]
    fn anytime_report_is_thread_count_invariant() {
        // Approximate matching is a deterministic per-EID function of
        // (list, gallery, config); the scheduler must not perturb it.
        let approximate = Some(crate::anytime::AnytimeConfig {
            confidence: 0.6,
            budget_scenarios: Some(2),
        });
        let reference = run_anytime(1, approximate);
        for threads in [2, 4] {
            assert_same_report(&run_anytime(threads, approximate), &reference, threads);
        }
    }

    #[test]
    fn full_confidence_anytime_is_byte_identical_to_exact() {
        // `confidence: 1.0` with no budget is not approximate at all:
        // at every thread count the report must equal the default
        // config's, byte for byte.
        let exact = run_anytime(1, None);
        for threads in [1, 2, 4] {
            let report = run_anytime(threads, Some(crate::anytime::AnytimeConfig::default()));
            assert_same_report(&report, &exact, threads);
        }
    }

    #[test]
    fn round_pipeline_shape_overlaps() {
        let dag = round_pipeline_shape(6, 32, 2, 4);
        let barriered = dag.barriered_makespan(4);
        let overlapped = dag.virtual_makespan(4);
        assert!(
            overlapped < barriered,
            "snapshot scans must overlap: {overlapped} vs {barriered}"
        );
    }
}
