//! EV-Matching in parallel (paper §V, Algorithm 3) as **one stage-DAG
//! submission** on the [`ev_dag::dag`] scheduler.
//!
//! The paper parallelises EID set splitting as iterations of two
//! shuffles — one by EID, one by membership signature — followed by
//! parallel VID filtering (§V-C). This module declares every round of
//! that splitter *and* the V stage as a single [`DagSpec`], so rounds
//! pipeline through narrow and shuffle edges instead of waiting on job
//! barriers, and a lost worker costs only the partitions it was
//! computing:
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
//! Between `init` and `assemble` an EID is its **ordinal** — its index
//! in the sorted target universe, [`EidCover`]'s numbering — and the
//! carried round state is a handful of flat vectors over ordinals and
//! block ids, so what passes along an edge is small and a stage reads a
//! block by index, never by searching sets of EIDs.
//!
//! * `snap(t)` — Algorithm 3's *preprocess*, one stage per timestamp of
//!   the seeded random order: scan `store.at_time(t)` for
//!   inclusive-zone members of the target universe (paper Fig. 4's
//!   identified EID sets), as ordinals. No dependencies, so every
//!   round's scan runs as early as a worker is free. Scans for rounds
//!   the splitter never enters (because the partition is already fully
//!   split) are wasted work — the price of overlap; they cannot change
//!   the result.
//! * `sig(t)` — the *map + shuffle-by-EID + reduce* of a round: the map
//!   emits `(eid, set id)` for every set (live block or scenario at
//!   `t`) holding the EID, the shuffle groups by EID, the reduce sorts
//!   an EID's set ids into its *membership signature*. Here 4 pinned
//!   partitions each compute the signatures of their slice of the
//!   live EIDs, reading `snap(t)` (narrow broadcast) and the previous
//!   round's state (narrow).
//! * `merge(t)` — the *second shuffle, by signature*: a shuffle edge
//!   over the signature partitions, grouped by sorting; each group of
//!   equal signatures is one block of the refined partition, and the
//!   scenarios on which sibling signatures differ are the round's
//!   *effective* scenarios — judged against the partition the round
//!   began with, so two scenarios at one timestamp that split the same
//!   block both count. Both fold into the carried round state.
//! * `assemble` — back to EIDs: the list log grouped per EID, then
//!   anchors, list padding up to `PAD_LEN` and uniqueness fixups.
//!   Anchors and uniqueness are the sequential splitter's own passes;
//!   the pad is the DAG's alone, standing in for the Algorithm 2
//!   rounds it does not run. Its completion ends the E stage.
//! * `extract×4` / `score×4` / `finalize` — the V stage (§V-C): one
//!   stage extracts every selected V-Scenario ("these visual operations
//!   require no data dependency"), the next scores per-EID slices with
//!   exclusion off, and `finalize` resolves conflicting claims, since
//!   parallel scorers cannot see each other's matches. The `extract`
//!   partitions carry the footage they extracted and both later stages
//!   read them, so every scorer's gallery lookup finds it live in the
//!   [`VideoStore`] and natural release frees it when `finalize` ends:
//!   each selected frame is read once per match.
//!
//! The stage geometry (4 signature partitions, 4 V partitions) is
//! pinned, so the outputs are a pure function of
//! `(store, video, targets, seed)` — independent of
//! [`DagConfig::threads`] and of panic retries. The tests hold
//! [`dag_split`] to a literal reading of Algorithm 3, field for field,
//! at every thread count and under injected faults.

use crate::refine::{record_run, RunFacts};
use crate::setsplit::{attach_anchors, ensure_unique_against_universe, record_split, SplitOutput};
use crate::types::{MatchOutcome, MatchReport, ScenarioList, StageTimings};
use crate::vfilter::{GalleryCache, VFilterConfig, VStage};
use ev_core::ids::{Eid, Vid};
use ev_core::partition::EidCover;
use ev_core::scenario::{EScenario, ScenarioId, VScenario, ZoneAttr};
use ev_dag::dag::{DagConfig, DagSpec, StageDep, StageId, TaskCtx};
use ev_dag::JobError;
use ev_store::{EScenarioStore, VideoStore};
use ev_telemetry::{Telemetry, TraceCtx};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Signature-stage partitions, pinned so the stage output is
/// independent of the thread count.
const SIG_PARTITIONS: usize = 4;
/// Extract/score-stage partitions, pinned for the same reason.
const V_PARTITIONS: usize = 4;
/// The length `dag_assemble` pads every scenario list up to. The
/// sequential matcher pads nothing: a short list whose vote is not
/// confident goes to Algorithm 2, whose later rounds extend it with
/// EDP's E-filter. The DAG runs one round and no Algorithm 2, so the pad
/// is all the vote slack a short list gets here; it goes when the DAG
/// learns Algorithm 2 (ROADMAP item 2(b)).
const PAD_LEN: usize = 3;

/// One timestamp's scenarios in id order, each with the ordinals of its
/// inclusive-zone members inside the target universe (possibly none).
type Snapshot = Vec<(ScenarioId, Vec<u32>)>;

/// One live EID's membership signature in a round: the block holding it
/// and the (ascending) snapshot indices of the scenarios at the round's
/// timestamp holding it — what the shuffle-by-EID and its reduce
/// produce for the EID. The field order is load-bearing: the derived
/// order sorts by block first, then by scenario set, so `merge` finds
/// each refined block as a run of the sorted signatures, grouped by
/// parent block.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Signature {
    block: u32,
    scenarios: Vec<u32>,
    ordinal: u32,
}

/// Splitter state carried from round to round through the merge chain.
#[derive(Debug, Clone, Default)]
struct RoundState {
    /// Target ordinal → id of the block holding it.
    block_of: Vec<u32>,
    /// Block id → member count. A block that splits keeps its id for
    /// its first child and the other children are appended, so no id is
    /// ever vacated.
    block_len: Vec<u32>,
    recorded: Vec<ScenarioId>,
    /// Append-only log of list entries, `(ordinal, scenario)` in
    /// recording order; `assemble` groups it per EID once.
    list_log: Vec<(u32, ScenarioId)>,
    examined: usize,
    /// Every block is a singleton: the splitter has stopped, and later
    /// rounds pass the state through untouched.
    finished: bool,
}

impl RoundState {
    /// Whether the ordinal still shares its block — only such EIDs take
    /// part in a round.
    fn is_live(&self, ordinal: u32) -> bool {
        self.block_len[self.block_of[ordinal as usize] as usize] > 1
    }
}

/// The partition payload flowing through the matching DAG.
#[derive(Debug, Clone)]
enum Flow {
    /// `snap(t)`: every scenario at the timestamp; the round charges
    /// its length as examined.
    Snap(Snapshot),
    /// `sig(t)` partition: the signatures of this partition's slice of
    /// the live universe.
    Sigs(Vec<Signature>),
    /// Splitter state after a round (or the initial state).
    Round(RoundState),
    /// `extract` partition: the footage it extracted, held so the
    /// store serves every later request for it from this copy.
    Extracted(
        #[expect(dead_code, reason = "held, never read: dropping it is the release")]
        Vec<Arc<VScenario>>,
    ),
    /// `score`: match outcomes.
    Outcomes(Vec<MatchOutcome>),
    /// `finalize`: every outcome in EID order, and the scenario-list
    /// entries conflict resolution sent through `filter_one` again.
    Final(Vec<MatchOutcome>, u64),
    /// `assemble`: the finished split.
    Split(SplitOutput),
}

impl Flow {
    fn as_snap(&self) -> &Snapshot {
        match self {
            Flow::Snap(s) => s,
            other => unreachable!("expected Snap, got {other:?}"),
        }
    }
    fn as_sigs(&self) -> &[Signature] {
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

/// `sig(t)`, one partition: the signatures of every `SIG_PARTITIONS`-th
/// live ordinal, starting at the `partition`-th.
fn signatures(state: &RoundState, snapshot: &Snapshot, partition: usize) -> Vec<Signature> {
    if state.finished {
        return Vec::new();
    }
    // Ordinal → its signature's index in `sigs`; `u32::MAX`, which no
    // index reaches, for an ordinal that is not live or not this
    // partition's.
    let mut slot_of = vec![u32::MAX; state.block_of.len()];
    let mut sigs = Vec::new();
    let live = (0..state.block_of.len() as u32).filter(|&o| state.is_live(o));
    for o in live.skip(partition).step_by(SIG_PARTITIONS) {
        slot_of[o as usize] = sigs.len() as u32;
        sigs.push(Signature {
            block: state.block_of[o as usize],
            scenarios: Vec::new(),
            ordinal: o,
        });
    }
    // One pass over the snapshot in index order leaves every
    // signature's scenario set sorted.
    for (i, (_, members)) in snapshot.iter().enumerate() {
        for &o in members {
            if let Some(sig) = sigs.get_mut(slot_of[o as usize] as usize) {
                sig.scenarios.push(i as u32);
            }
        }
    }
    sigs
}

/// `merge(t)`: the state after the round at `snapshot`'s timestamp,
/// from the state before it and every live EID's signature.
fn merge_round(state: &RoundState, snapshot: &Snapshot, mut sigs: Vec<&Signature>) -> RoundState {
    let mut next = state.clone();
    if state.finished {
        // Fully split: the splitter stops before this round.
        return next;
    }
    // Every scenario at the timestamp counts as examined the moment
    // the round is entered.
    next.examined += snapshot.len();
    // The shuffle: sorted, each parent block is one run of signatures
    // and each of its refined children a run of equal scenario sets.
    sigs.sort_unstable();
    let mut holders = vec![0usize; snapshot.len()];
    let mut effective = vec![false; snapshot.len()];
    for parent in sigs.chunk_by(|a, b| a.block == b.block) {
        let children: Vec<&[&Signature]> =
            parent.chunk_by(|a, b| a.scenarios == b.scenarios).collect();
        if children.len() < 2 {
            continue; // the block did not split
        }
        for child in &children[1..] {
            let id = next.block_len.len() as u32;
            next.block_len.push(child.len() as u32);
            next.block_len[parent[0].block as usize] -= child.len() as u32;
            for sig in *child {
                next.block_of[sig.ordinal as usize] = id;
            }
        }
        // A scenario some of the siblings hold and some do not is what
        // told them apart.
        let held = || children.iter().flat_map(|c| &c[0].scenarios);
        for &i in held() {
            holders[i as usize] += 1;
        }
        for &i in held() {
            effective[i as usize] |= holders[i as usize] < children.len();
        }
        for &i in held() {
            holders[i as usize] = 0;
        }
    }
    for (i, (id, members)) in snapshot.iter().enumerate() {
        if effective[i] {
            next.recorded.push(*id);
            // Judged on the partition the round began with: an EID
            // that was already alone then takes nothing from it.
            let live = members.iter().filter(|&&o| state.is_live(o));
            next.list_log.extend(live.map(|&o| (o, *id)));
        }
    }
    next.finished = next.block_len.iter().all(|&len| len == 1);
    next
}

/// Declares one splitting round after the round (or `init`) that
/// produced `prev` — `snap`, `sig`×4 reading it and `prev`, `merge`
/// reading all three — and returns their ids in that order. The one
/// definition of the round geometry: the pipeline and the shape
/// `ablate-workers` prices are both built from it.
fn round_stages<'a, P: Send + Sync>(
    dag: &mut DagSpec<'a, P>,
    prev: StageId,
    snap: impl Fn(TaskCtx, &[Arc<P>]) -> P + Sync + 'a,
    sig: impl Fn(TaskCtx, &[Arc<P>]) -> P + Sync + 'a,
    merge: impl Fn(TaskCtx, &[Arc<P>]) -> P + Sync + 'a,
) -> [StageId; 3] {
    let snap = dag.stage("dag_snapshot", 1, Vec::new(), snap);
    let sig_deps = vec![StageDep::narrow(snap), StageDep::narrow(prev)];
    let sig = dag.stage("dag_signatures", SIG_PARTITIONS, sig_deps, sig);
    let merge_deps = vec![
        StageDep::shuffle(sig),
        StageDep::narrow(snap),
        StageDep::narrow(prev),
    ];
    [snap, sig, dag.stage("dag_merge", 1, merge_deps, merge)]
}

/// Builds the matching DAG for the sorted target `universe`, one round
/// per timestamp of the store in `split_seed`'s random order: the
/// splitter, plus the V stage over `v_stage`'s footage when given.
/// Returns the spec and the ids of the `assemble` and `finalize`
/// stages. `e_done` receives the instant `assemble` completes; the V
/// stage's scorers count into `telemetry`.
#[allow(clippy::too_many_lines)]
fn build_match_spec<'a>(
    store: &'a EScenarioStore,
    universe: &'a [Eid],
    split_seed: u64,
    e_done: &'a OnceLock<Instant>,
    v_stage: Option<(&'a VideoStore, &'a VFilterConfig)>,
    telemetry: &'a Telemetry,
) -> (DagSpec<'a, Flow>, StageId, Option<StageId>) {
    assert!(u32::try_from(universe.len()).is_ok(), "32-bit ordinals");
    let mut dag: DagSpec<'a, Flow> = DagSpec::new();

    let init = dag.stage("dag_init", 1, Vec::new(), move |_ctx, _inputs| {
        Flow::Round(RoundState {
            block_of: vec![0; universe.len()],
            block_len: Vec::from_iter((!universe.is_empty()).then_some(universe.len() as u32)),
            finished: universe.len() <= 1,
            ..RoundState::default()
        })
    });

    let mut prev_round = init;
    for t in round_times(store, split_seed) {
        let snap = move |_: TaskCtx, _: &[Arc<Flow>]| {
            // `at_time` yields in scenario-id order, so a snapshot
            // index orders scenarios exactly as their ids do.
            let scenarios = store.at_time(t).map(|scenario| {
                let members = scenario
                    .iter()
                    .filter(|(_, attr)| *attr == ZoneAttr::Inclusive)
                    .filter_map(|(e, _)| universe.binary_search(&e).ok())
                    .map(|ordinal| ordinal as u32)
                    .collect();
                (scenario.id(), members)
            });
            Flow::Snap(scenarios.collect())
        };
        let sig = |ctx: TaskCtx, inputs: &[Arc<Flow>]| {
            let (snapshot, state) = (inputs[0].as_snap(), inputs[1].as_round());
            Flow::Sigs(signatures(state, snapshot, ctx.partition))
        };
        let merge = |_: TaskCtx, inputs: &[Arc<Flow>]| {
            let (sigs, rest) = inputs.split_at(SIG_PARTITIONS);
            let sigs = sigs.iter().flat_map(|part| part.as_sigs()).collect();
            Flow::Round(merge_round(rest[1].as_round(), rest[0].as_snap(), sigs))
        };
        [_, _, prev_round] = round_stages(&mut dag, prev_round, snap, sig, merge);
    }

    let assemble = dag.stage(
        "dag_assemble",
        1,
        vec![StageDep::narrow(prev_round)],
        move |_ctx, inputs| {
            let state = inputs[0].as_round();
            let mut by_ordinal = vec![ScenarioList::new(); universe.len()];
            for &(ordinal, id) in &state.list_log {
                by_ordinal[ordinal as usize].push(id);
            }
            let mut lists: BTreeMap<Eid, ScenarioList> =
                universe.iter().copied().zip(by_ordinal).collect();
            attach_anchors(store, &mut lists, false);
            extend_lists(store, &mut lists, split_seed);
            ensure_unique_against_universe(store, &mut lists, split_seed, true);
            let mut blocks = vec![BTreeSet::new(); state.block_len.len()];
            for (&eid, &block) in universe.iter().zip(&state.block_of) {
                blocks[block as usize].insert(eid);
            }
            let partition = EidCover::from_blocks(blocks)
                .expect("every ordinal has one block and no block id is vacant");
            let split = SplitOutput {
                recorded: state.recorded.clone(),
                lists,
                partition,
                scenarios_examined: state.examined,
            };
            // The E stage ends here. `assemble` completes exactly once
            // (a lost attempt dies before its compute returns).
            let _ = e_done.set(Instant::now());
            Flow::Split(split)
        },
    );
    dag.keep(assemble);
    let Some((video, vfilter)) = v_stage else {
        return (dag, assemble, None);
    };

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
            let mine = distinct.iter().skip(ctx.partition).step_by(V_PARTITIONS);
            Flow::Extracted(mine.filter_map(|&id| video.extract(id)).collect())
        },
    );
    let score = dag.stage(
        "dag_score",
        V_PARTITIONS,
        // The shuffle edge on extract is the cache-warm-up barrier:
        // every gallery is extracted once, and held, before any scorer
        // reads it.
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
                .skip(ctx.partition)
                .step_by(V_PARTITIONS)
                .map(|(&eid, list)| {
                    VStage {
                        video,
                        config: &score_config,
                        cache: &mut GalleryCache::new(),
                        telemetry,
                    }
                    .filter_one(eid, list, &BTreeSet::new())
                })
                .collect();
            Flow::Outcomes(outcomes)
        },
    );
    let finalize = dag.stage(
        "dag_finalize",
        1,
        // Conflict resolution extracts again, so `finalize` reads the
        // extracted footage too: it is released when the match ends.
        vec![
            StageDep::shuffle(score),
            StageDep::narrow(assemble),
            StageDep::shuffle(extract),
        ],
        move |_ctx, inputs| {
            let split = inputs[V_PARTITIONS].as_split();
            let mut outcomes: Vec<MatchOutcome> = inputs[..V_PARTITIONS]
                .iter()
                .flat_map(|p| p.as_outcomes().iter().cloned())
                .collect();
            // Partition order is not EID order; the report lists
            // outcomes by EID (the fixup rewrites them in place).
            outcomes.sort_by_key(|o| o.eid);
            let refiltered = if vfilter.exclusion {
                resolve_conflicts(&mut outcomes, &split.lists, video, vfilter, telemetry)
            } else {
                0
            };
            Flow::Final(outcomes, refiltered)
        },
    );
    dag.keep(finalize);
    (dag, assemble, Some(finalize))
}

/// Exclusion after the fact: parallel scorers cannot see each other's
/// matches, so when several EIDs claim the same VID the strongest claim
/// wins and the losers re-filter with the claimed VIDs ruled out
/// (sequentially — this tail is small). Returns the scenario-list
/// entries the re-filtering asked galleries for.
fn resolve_conflicts(
    outcomes: &mut [MatchOutcome],
    lists: &BTreeMap<Eid, ScenarioList>,
    video: &VideoStore,
    config: &VFilterConfig,
    telemetry: &Telemetry,
) -> u64 {
    let mut refiltered = 0;
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
            break;
        }
        let excluded: BTreeSet<Vid> = claims.keys().copied().collect();
        for i in losers {
            let eid = outcomes[i].eid;
            let list = lists.get(&eid).cloned().unwrap_or_default();
            refiltered += list.len() as u64;
            outcomes[i] = VStage {
                video,
                config,
                cache: &mut GalleryCache::new(),
                telemetry,
            }
            .filter_one(eid, &list, &excluded);
        }
    }
    refiltered
}

/// The round order: every timestamp of the store, shuffled by `seed`.
fn round_times(store: &EScenarioStore, seed: u64) -> Vec<ev_core::time::Timestamp> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut times: Vec<_> = store.times().collect();
    times.shuffle(&mut rng);
    times
}

/// Pads short scenario lists up to [`PAD_LEN`] with extra scenarios
/// holding each EID inclusively, drawn in a seeded random order so
/// consecutive windows of the same dwell do not dominate.
fn extend_lists(store: &EScenarioStore, lists: &mut BTreeMap<Eid, ScenarioList>, seed: u64) {
    // Scenarios already selected for anyone: padding prefers these, so
    // one padded scenario serves several EIDs — the same reuse that makes
    // set splitting beat per-EID selection in the first place.
    let mut selected: BTreeSet<ScenarioId> = lists.values().flatten().copied().collect();
    for (&eid, list) in lists.iter_mut() {
        if list.len() >= PAD_LEN {
            continue;
        }
        let (mut reusable, mut fresh): (Vec<ScenarioId>, Vec<ScenarioId>) = store
            .containing(eid)
            .filter(|s| s.contains_inclusive(eid))
            .map(EScenario::id)
            .filter(|id| !list.contains(id))
            .partition(|id| selected.contains(id));
        let mut rng =
            ChaCha8Rng::seed_from_u64(seed ^ eid.as_u64().wrapping_mul(0x9e3779b97f4a7c15));
        reusable.shuffle(&mut rng);
        fresh.shuffle(&mut rng);
        let added: Vec<ScenarioId> = reusable
            .into_iter()
            .chain(fresh)
            .take(PAD_LEN - list.len())
            .collect();
        selected.extend(added.iter().copied());
        list.extend(added);
    }
}

/// Algorithm 3 set splitting as one DAG submission: all snapshot scans
/// overlap, rounds pipeline through the merge chain. `seed` fixes the
/// random timestamp order (and the list padding draws); the output is
/// the same at every thread count.
///
/// # Errors
///
/// Propagates [`JobError`] from the scheduler (a partition that
/// exhausts [`FaultPlan::max_attempts`](ev_dag::FaultPlan::max_attempts)
/// aborts the run).
pub fn dag_split(
    config: &DagConfig,
    store: &EScenarioStore,
    targets: &BTreeSet<Eid>,
    seed: u64,
    telemetry: &Telemetry,
) -> Result<SplitOutput, JobError> {
    let universe: Vec<Eid> = targets.iter().copied().collect();
    let e_done = OnceLock::new();
    let (dag, assemble, _) = build_match_spec(store, &universe, seed, &e_done, None, telemetry);
    let run = dag.run(config, telemetry, TraceCtx::root())?;
    Ok(run.outputs[&assemble][0].as_split().clone())
}

/// Full matching pipeline — every splitting round plus extraction,
/// scoring and conflict resolution — submitted as **one** stage DAG.
/// [`EvMatcher`] with [`ExecutionMode::Dag`] runs through here,
/// universal matching included: the whole job is a single graph, so a
/// lost worker costs only the partitions it was computing.
///
/// The report is byte-identical (timings aside) at every thread count.
/// `timings.e_stage` runs from submission to the completion of
/// `assemble` and `timings.v_stage` is the rest of the submission's
/// wall (every V stage depends on `assemble`, so V strictly follows
/// E); their sum is the wall time of the submission.
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
    split_seed: u64,
    vfilter_config: &VFilterConfig,
    telemetry: &Telemetry,
) -> Result<MatchReport, JobError> {
    let pipeline_ctx = TraceCtx::root();
    let mut pipeline_span = telemetry.span_ctx("dag_match", "pipeline", pipeline_ctx);
    pipeline_span.arg("threads", serde::Value::Int(config.threads as i128));
    let universe: Vec<Eid> = targets.iter().copied().collect();
    let e_done = OnceLock::new();
    let start = Instant::now();
    let (dag, assemble, finalize) = build_match_spec(
        store,
        &universe,
        split_seed,
        &e_done,
        Some((video, vfilter_config)),
        telemetry,
    );
    let run = dag.run(config, telemetry, pipeline_ctx)?;
    let elapsed = start.elapsed();
    video.check_loads().map_err(JobError::Input)?;
    let e_stage = e_done
        .get()
        .expect("a finished run computed assemble")
        .duration_since(start);
    let split = run.outputs[&assemble][0].as_split().clone();
    let finalize = finalize.expect("V stage requested");
    let Flow::Final(outcomes, refiltered) = &*run.outputs[&finalize][0] else {
        unreachable!("the finalize stage produces the final outcomes");
    };
    record_split(telemetry, &split);

    let recorded = split.recorded.len();
    let report = MatchReport {
        outcomes: outcomes.clone(),
        selected_scenarios: split.selected(),
        lists: split.lists,
        timings: StageTimings {
            e_stage,
            v_stage: elapsed.saturating_sub(e_stage),
        },
        rounds: 1,
    };
    if telemetry.counters_on() {
        // Every scorer fetched its own galleries, behind a warm-up that
        // extracted each distinct one once; what the run asked for is
        // the lists themselves, once each, plus what conflict resolution
        // redid.
        let lists = &report.lists;
        let requests: usize = lists.values().map(Vec::len).sum();
        let distinct: BTreeSet<ScenarioId> = lists.values().flatten().copied().collect();
        let facts = RunFacts {
            targets: targets.len(),
            recorded,
            // Algorithm 3 records whole timestamp snapshots, so the
            // Theorem 4.2/4.4 bounds on the recorded count do not apply
            // even when the partition is fully split.
            fully_split: false,
            gallery_hits: requests as u64 + refiltered - distinct.len() as u64,
            gallery_misses: distinct.len() as u64,
        };
        record_run(telemetry, &facts, report.timings);
    }
    pipeline_span.arg("outcomes", serde::Value::Int(report.outcomes.len() as i128));
    drop(pipeline_span);
    Ok(report)
}

/// The *shape* of an `R`-round splitter DAG with representative virtual
/// costs (snapshot scans dominate), for the makespan columns of
/// `ablate-workers`: [`DagSpec::virtual_makespan`] prices the overlapped
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
    let mut prev = dag.stage("dag_init", 1, Vec::new(), |_, _| 0);
    for _ in 0..rounds {
        let [snap, sig, merge] = round_stages(&mut dag, prev, |_, _| 0, |_, _| 0, |_, _| 0);
        dag.set_cost(snap, snap_cost);
        dag.set_cost(sig, sig_cost);
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
    use crate::setsplit::{split_ideal, SetSplitConfig};
    use ev_core::feature::FeatureVector;
    use ev_core::region::CellId;
    use ev_core::scenario::{Detection, EScenario, VScenario};
    use ev_core::time::Timestamp;
    use ev_dag::FaultPlan;
    use ev_telemetry::TelemetryLevel;
    use ev_vision::cost::CostModel;
    use proptest::prelude::*;
    use rand::Rng;

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

    /// Algorithm 3 read literally, with no stages and no signatures
    /// as data: each round groups the live EIDs by (their block, the
    /// scenarios at `t` holding them inclusively); a group is a refined
    /// block, and a scenario on which two sibling groups differ is
    /// effective. The oracle for [`dag_split`].
    fn algorithm3_reference(
        store: &EScenarioStore,
        targets: &BTreeSet<Eid>,
        seed: u64,
    ) -> SplitOutput {
        let mut blocks: Vec<BTreeSet<Eid>> = if targets.is_empty() {
            Vec::new()
        } else {
            vec![targets.clone()]
        };
        let mut recorded = Vec::new();
        let mut lists: BTreeMap<Eid, ScenarioList> =
            targets.iter().map(|&e| (e, Vec::new())).collect();
        let mut examined = 0;
        for t in round_times(store, seed) {
            if blocks.iter().all(|b| b.len() == 1) {
                break;
            }
            let (live, done): (Vec<_>, Vec<_>) = blocks.into_iter().partition(|b| b.len() > 1);
            examined += store.at_time(t).count();
            let mut groups: BTreeMap<(usize, BTreeSet<ScenarioId>), BTreeSet<Eid>> =
                BTreeMap::new();
            for (i, block) in live.iter().enumerate() {
                for &eid in block {
                    let seen = store
                        .at_time(t)
                        .filter(|s| s.contains_inclusive(eid))
                        .map(EScenario::id)
                        .collect();
                    groups.entry((i, seen)).or_default().insert(eid);
                }
            }
            if groups.keys().all(|(_, seen)| seen.is_empty()) {
                blocks = live.into_iter().chain(done).collect();
                continue;
            }
            let mut effective: BTreeSet<ScenarioId> = BTreeSet::new();
            for i in 0..live.len() {
                let siblings: Vec<&BTreeSet<ScenarioId>> = groups
                    .keys()
                    .filter(|(block, _)| *block == i)
                    .map(|(_, seen)| seen)
                    .collect();
                for &id in siblings.iter().flat_map(|seen| seen.iter()) {
                    if siblings.iter().any(|seen| !seen.contains(&id)) {
                        effective.insert(id);
                    }
                }
            }
            for id in effective {
                recorded.push(id);
                for ((_, seen), eids) in &groups {
                    if seen.contains(&id) {
                        for eid in eids {
                            lists.get_mut(eid).expect("live EIDs are targets").push(id);
                        }
                    }
                }
            }
            blocks = done.into_iter().chain(groups.into_values()).collect();
        }
        attach_anchors(store, &mut lists, false);
        extend_lists(store, &mut lists, seed);
        ensure_unique_against_universe(store, &mut lists, seed, true);
        SplitOutput {
            recorded,
            lists,
            partition: EidCover::from_blocks(blocks).unwrap(),
            scenarios_examined: examined,
        }
    }

    /// 12 people wander 3 cells for `ticks` ticks; a person may be heard
    /// in several cells at once, and a quarter of the readings are vague.
    fn random_store(seed: u64, ticks: u64) -> EScenarioStore {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut es = Vec::new();
        for t in 0..ticks {
            for c in 0..3 {
                let mut e = EScenario::new(CellId::new(c), Timestamp::new(t));
                for p in 0..12 {
                    if rng.gen_bool(1.0 / 3.0) {
                        let attr = if rng.gen_bool(0.25) {
                            ZoneAttr::Vague
                        } else {
                            ZoneAttr::Inclusive
                        };
                        e.insert(Eid::from_u64(p), attr);
                    }
                }
                if !e.is_empty() {
                    es.push(e);
                }
            }
        }
        EScenarioStore::from_scenarios(es)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The one differential test of the parallel splitter: the DAG
        /// equals the literal reference field for field, whatever the
        /// thread count or injected task loss.
        #[test]
        fn dag_split_is_algorithm_3_field_for_field(
            world_seed in 0u64..1000,
            ticks in 3u64..=40,
            seed in 0u64..8,
            flaky in any::<bool>(),
        ) {
            let store = random_store(world_seed, ticks);
            // Persons 10 and 11 are bystanders; EIDs 12 and 13 never appear.
            let targets: BTreeSet<Eid> =
                (0..10).chain(12..14).map(Eid::from_u64).collect();
            let reference = algorithm3_reference(&store, &targets, seed);
            for threads in [1, 2, 4] {
                let config = DagConfig {
                    faults: FaultPlan {
                        task_failure_rate: if flaky { 0.2 } else { 0.0 },
                        max_attempts: 40,
                        seed: world_seed,
                    },
                    ..DagConfig::new(threads)
                };
                let dag = dag_split(&config, &store, &targets, seed, Telemetry::disabled()).unwrap();
                prop_assert_eq!(&dag.recorded, &reference.recorded, "threads={}", threads);
                prop_assert_eq!(&dag.lists, &reference.lists, "threads={}", threads);
                prop_assert_eq!(&dag.partition, &reference.partition, "threads={}", threads);
                prop_assert_eq!(dag.scenarios_examined, reference.scenarios_examined);
            }
        }
    }

    #[test]
    fn complementary_scenarios_at_one_timestamp_are_both_recorded() {
        // Block {a, b}; at the one timestamp `a` is heard in cell 0 and
        // `b` in cell 1. Algorithm 3 judges effectiveness against the
        // partition the round began with, so both scenarios are
        // recorded; refining a cover scenario by scenario would record
        // the first and find the second with nothing left to split.
        let (a, b) = (Eid::from_u64(1), Eid::from_u64(2));
        let scenarios: Vec<EScenario> = [(0, a), (1, b)]
            .into_iter()
            .map(|(cell, eid)| {
                let mut e = EScenario::new(CellId::new(cell), Timestamp::new(0));
                e.insert(eid, ZoneAttr::Inclusive);
                e
            })
            .collect();
        let ids: Vec<ScenarioId> = scenarios.iter().map(EScenario::id).collect();
        let store = EScenarioStore::from_scenarios(scenarios);
        let targets = BTreeSet::from([a, b]);

        let out = dag_split(
            &DagConfig::new(2),
            &store,
            &targets,
            0,
            Telemetry::disabled(),
        );
        let out = out.unwrap();
        assert_eq!(out.recorded, ids, "both halves of the split are recorded");
        assert_eq!(out.lists[&a], [ids[0]]);
        assert_eq!(out.lists[&b], [ids[1]]);
        assert!(out.fully_split());
        assert_eq!(out.scenarios_examined, 2);

        let mut cover = EidCover::new(targets);
        let effective = store
            .iter()
            .filter(|s| cover.split(s.iter()).effective)
            .count();
        assert_eq!(effective, 1, "successive refinement records only one");
    }

    #[test]
    fn dag_split_distinguishes_everyone_at_sequential_granularity() {
        let (store, _) = world();
        let out = dag_split(
            &DagConfig::new(4),
            &store,
            &targets(),
            3,
            Telemetry::disabled(),
        )
        .unwrap();
        assert!(out.fully_split(), "partition: {:?}", out.partition);
        assert!(
            out.lists.values().all(|l| !l.is_empty()),
            "every EID needs footage"
        );
        let sequential = split_ideal(&store, &targets(), &SetSplitConfig::default());
        assert_eq!(
            out.partition.block_count(),
            sequential.partition.block_count()
        );
    }

    #[test]
    fn dag_split_empty_targets() {
        let (store, _) = world();
        let out = dag_split(
            &DagConfig::new(2),
            &store,
            &BTreeSet::new(),
            0,
            Telemetry::disabled(),
        )
        .unwrap();
        assert!(out.recorded.is_empty());
        assert!(out.lists.is_empty());
    }

    fn run_match(
        threads: usize,
        vfilter: &VFilterConfig,
        telemetry: &Telemetry,
    ) -> (MatchReport, VideoStore) {
        // Fresh stores per run so extraction caching cannot leak across
        // runs.
        let (store, video) = world();
        let report = dag_match(
            &DagConfig::new(threads),
            &store,
            &video,
            &targets(),
            7,
            vfilter,
            telemetry,
        )
        .unwrap();
        (report, video)
    }

    #[test]
    fn dag_match_awards_every_vid_to_its_one_claimant() {
        let (report, _) = run_match(4, &VFilterConfig::default(), Telemetry::disabled());
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
        let (report, video) = run_match(2, &VFilterConfig::default(), &tel);
        // `world()` tells all eight targets apart.
        let blocks = tel.registry().gauge_value(names::SETSPLIT_BLOCKS);
        assert_eq!(blocks, Some(8.0), "the DAG path sets the gauge too");
        // Nobody contests a VID there, so each list was scored once: a
        // miss per gallery the warm-up extracted, a hit per other entry.
        let counter = |name| tel.registry().counter(name).get();
        let misses = counter(names::VFILTER_GALLERY_MISSES);
        assert_eq!(misses, video.stats().extracted_scenarios as u64);
        let entries: usize = report.lists.values().map(Vec::len).sum();
        assert_eq!(
            counter(names::VFILTER_GALLERY_HITS) + misses,
            entries as u64
        );
    }

    #[test]
    fn extraction_warms_the_cache_before_scoring() {
        let (report, video) = run_match(2, &VFilterConfig::default(), Telemetry::disabled());
        let stats = video.stats();
        assert_eq!(
            stats.extracted_scenarios,
            report.selected_scenarios.len(),
            "each selected scenario is extracted exactly once"
        );
        assert!(stats.cache_hits > 0, "scoring reuses the extractions");
    }

    #[test]
    fn report_splits_the_submission_wall_into_e_and_v() {
        let tel = Telemetry::new(TelemetryLevel::Full);
        let (report, _) = run_match(2, &VFilterConfig::default(), &tel);
        let timings = report.timings;
        assert!(timings.e_stage > std::time::Duration::ZERO);
        assert!(
            timings.v_stage > std::time::Duration::ZERO,
            "V follows E: {timings:?}"
        );
        // e + v is the wall of the submission: no shorter than the
        // scheduler's own run span, no longer than the pipeline span
        // around the whole call.
        let events = tel.tracer().events();
        let dur_us = |name: &str| {
            let span = events.iter().find(|e| e.name == name && e.ph == 'X');
            u128::from(span.unwrap_or_else(|| panic!("no {name} span")).dur_us)
        };
        let total_us = timings.total().as_micros();
        assert!(dur_us("dag_run") <= total_us, "{timings:?}");
        assert!(total_us <= dur_us("dag_match"), "{timings:?}");
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
