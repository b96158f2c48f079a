//! VID filtering: the V stage (paper §IV-B2).
//!
//! For each EID, the V-Scenarios corresponding to its selected E-Scenario
//! list are extracted (through the [`VideoStore`], which charges the
//! vision cost model and caches reused scenarios). Every VID observed in
//! those scenarios is a candidate; a candidate's score is the joint
//! membership probability `Π_S P(VID ∈ S)` with
//! `P(VID ∈ S) = max_i sim(VID, VID_i)` (paper Eq. 1 and §IV-B2). In
//! every scenario the highest-scoring present candidate is *chosen*; the
//! matched VID is the majority of those per-scenario choices — exactly
//! the accuracy rule of paper §VI-B.
//!
//! Already-matched VIDs are *excluded* from later candidacies ("VIDs
//! that have been already matched may help distinguishing those remain
//! unmatched", §IV-A); EIDs are processed longest-list-first so the most
//! constrained matches land before they are needed for exclusion.
//!
//! # One context, one body per job
//!
//! Every caller — the refinement loop at any width, EDP, the single-EID
//! query — builds a [`VStage`] literal (footage, gallery cache,
//! telemetry handle) and calls one of its two methods. There is nothing
//! to configure: `sim` is normalized L2 (paper Eq. 1) and the walk's
//! caller says, through its `locks` predicate, which outcomes exclude
//! their VID. The scan
//! reads one dense candidate model (candidates are ordinals into a
//! VID-ascending vector, so every fold visits them in VID order), scores
//! it, and materialises its result through one tally. Given a pool, the
//! walk scores a wave of its order at once, each list with the VIDs
//! locked before the wave excluded, and tallies each EID without the
//! VIDs locked since — the same outcome bit for bit, since exclusion
//! only removes candidates.
//!
//! # Numerics and caching
//!
//! Joint membership probabilities are accumulated in **log space**
//! (`Σ ln P` instead of `Π P`): with long scenario lists the raw product
//! underflows to `0.0`, collapsing every candidate into a tie that was
//! silently broken by VID order. Scores are compared with
//! [`f64::total_cmp`] so a NaN probability cannot poison an argmax.
//!
//! A [`GalleryCache`] memoizes each extracted scenario's detections
//! grouped by VID and packed into the kernel's feature block, and lets
//! the footage go once it is packed. A walk shares one cache across all
//! its EIDs — scenario reuse across lists is the point of set splitting
//! — so each V-Scenario is fetched, regrouped and packed once per walk
//! that lists it, no matter how many EIDs its footage serves, and is
//! released after the last list entry of the walk that names it.

use crate::dagflow::score_wave;
use crate::types::{MatchOutcome, ScenarioList};
use ev_core::feature::{FeatureVector, Metric};
use ev_core::ids::{Eid, Vid};
use ev_core::kernel::{FeatureBlock, Kernel};
use ev_core::scenario::{ScenarioId, VScenario};
use ev_dag::JobError;
use ev_store::VideoStore;
use ev_telemetry::{names, Telemetry, TraceCtx};
use ev_vision::cost::CostModel;
use serde::{Deserialize, Serialize};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The distance behind `sim`, as [`filter_vids_cached`]'s callers name
/// it. [`Metric`] has one value, so the stage reads nothing here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct VFilterConfig {
    /// Feature distance metric behind `sim`: normalized L2.
    pub metric: Metric,
}

/// The **single argmax tie-break rule** of the V stage: a higher score
/// always wins; an *exact* score tie goes to the **lower VID**.
///
/// Both argmaxes of the majority pipeline — the per-scenario choice
/// (score = joint membership probability) and the majority vote itself
/// (score = vote count) — resolve ties through this one predicate, so
/// the sequential and DAG paths agree bit-for-bit on tied inputs.
/// Scores compare with [`f64::total_cmp`], so a NaN cannot poison the
/// ordering.
///
/// Returns `true` when `(score_b, b)` beats `(score_a, a)`.
#[inline]
pub(crate) fn beats(score_a: f64, a: Vid, score_b: f64, b: Vid) -> bool {
    match score_b.total_cmp(&score_a) {
        std::cmp::Ordering::Greater => true,
        std::cmp::Ordering::Equal => b < a,
        std::cmp::Ordering::Less => false,
    }
}

/// Argmax over the candidate ordinals in `among` under the canonical
/// [`beats`] tie-break; `vids` maps an ordinal to its VID. `beats` is a
/// strict total order on `(score, VID)` keys, so neither the visiting
/// order nor a repeated ordinal can change the result.
pub(crate) fn argmax(
    vids: &[Vid],
    among: impl IntoIterator<Item = usize>,
    score: impl Fn(usize) -> f64,
) -> Option<usize> {
    let mut best: Option<usize> = None;
    for c in among {
        if best.is_none_or(|b| beats(score(b), vids[b], score(c), vids[c])) {
            best = Some(c);
        }
    }
    best
}

/// Majority winner across per-scenario votes, under the same canonical
/// tie-break: most votes wins, an exact vote-count tie goes to the
/// lower VID. `None` when nobody holds a vote.
pub(crate) fn majority_winner(vids: &[Vid], counts: &[usize]) -> Option<usize> {
    let voted = (0..counts.len()).filter(|&c| counts[c] > 0);
    argmax(vids, voted, |c| counts[c] as f64)
}

/// One scenario's extracted gallery, in the form the V stage reads it:
/// its detection indices grouped by VID (sorted distinct `vids`, CSR
/// `starts`/`rows`), each group in detection order, and its features
/// packed into the kernel's SoA [`FeatureBlock`]. Concatenating a list's
/// groups in list order reproduces exactly the observation sequence a
/// direct detection walk would produce, and the block hands back the very
/// `f64`s it was packed from, so representatives computed through the
/// cache are bit-identical to ones computed from the footage.
pub(crate) struct CacheEntry {
    /// The distinct VIDs detected in the scenario, ascending.
    pub(crate) vids: Vec<Vid>,
    /// `rows[starts[g]..starts[g + 1]]` are group `g`'s detections.
    starts: Vec<usize>,
    rows: Vec<usize>,
    features: Features,
}

/// What a [`CacheEntry`] keeps of its gallery's features.
enum Features {
    /// The packed block. A property of the gallery alone — no EID or
    /// representative enters it — so it is packed once, at extraction,
    /// and the footage is released right there (DESIGN.md §6.6).
    Packed(FeatureBlock),
    /// A gallery whose rows disagree on dimensionality has no block: it
    /// keeps its footage for the representatives and scores membership
    /// `0` — the same condition under which the scalar path's per-pair
    /// error maps every membership of this gallery to `0`.
    Mixed(Arc<VScenario>),
}

impl CacheEntry {
    /// Groups `scenario`'s detections and packs its block. A
    /// mixed-dimensionality gallery fails validation **once** here —
    /// counted, with the scenario id in the error — instead of per pair
    /// in the hot loop.
    pub(crate) fn new(scenario: Arc<VScenario>, tel: &Telemetry) -> Self {
        let detections = scenario.detections();
        // One stable sort: within a VID the rows stay in detection order.
        let mut rows: Vec<usize> = (0..detections.len()).collect();
        rows.sort_by_key(|&i| detections[i].vid);
        let (mut vids, mut starts) = (Vec::new(), Vec::new());
        for (at, &i) in rows.iter().enumerate() {
            if vids.last() != Some(&detections[i].vid) {
                vids.push(detections[i].vid);
                starts.push(at);
            }
        }
        starts.push(rows.len());
        let gallery = scenario.id().to_string();
        let block = FeatureBlock::build(&gallery, detections.iter().map(|d| &d.feature));
        if tel.counters_on() {
            let name = match block {
                Ok(_) => names::KERNEL_BLOCKS_BUILT,
                Err(_) => names::KERNEL_GALLERIES_REJECTED,
            };
            tel.registry().counter(name).add(1);
        }
        let features = match block {
            Ok(block) => Features::Packed(block),
            Err(_) => Features::Mixed(scenario),
        };
        CacheEntry {
            vids,
            starts,
            rows,
            features,
        }
    }

    /// The detection indices of `vids[group]`, in detection order
    /// (never empty).
    pub(crate) fn group(&self, group: usize) -> &[usize] {
        &self.rows[self.starts[group]..self.starts[group + 1]]
    }

    /// Adds detection `row`'s feature to a candidate's running sum of
    /// `n` observations. The first observation fixes the dimension;
    /// malformed ones are ignored.
    fn observe(&self, row: usize, sum: &mut Vec<f64>, n: &mut f64) {
        fn add(sum: &mut Vec<f64>, n: &mut f64, dim: usize, values: impl Iterator<Item = f64>) {
            if *n == 0.0 {
                sum.resize(dim, 0.0);
            } else if dim != sum.len() {
                return;
            }
            for (s, x) in sum.iter_mut().zip(values) {
                *s += x;
            }
            *n += 1.0;
        }
        match &self.features {
            Features::Packed(block) => add(sum, n, block.dim(), block.row(row)),
            Features::Mixed(footage) => {
                let feature = &footage.detections()[row].feature;
                add(sum, n, feature.dim(), feature.components().iter().copied());
            }
        }
    }
}

/// Membership probability `P(VID ∈ S) = max_i sim(rep, f_i)` for one
/// `(candidate, scenario)` pair — the single scoring point of the scan
/// below.
///
/// Bitwise the scalar reference
/// `ev_vision::reid::membership_probability(..).unwrap_or(0.0)`: the
/// block kernel accumulates each row in scalar order (see
/// [`ev_core::kernel`]), and every error the scalar scan maps to `0.0`
/// (mixed-dimensionality gallery, candidate vs gallery dimension
/// mismatch, empty scenario) maps to `0.0` here too.
pub(crate) fn score_membership(rep: &FeatureVector, entry: &CacheEntry) -> f64 {
    let Features::Packed(block) = &entry.features else {
        return 0.0;
    };
    match Kernel::prepare(Metric::NormalizedL2, rep.dim()) {
        Ok(kernel) => kernel.score_max(rep, block).unwrap_or(0.0),
        Err(_) => 0.0,
    }
}

/// Per-candidate gallery cache for the V stage.
///
/// VID filtering revisits the same V-Scenarios over and over: across
/// EIDs (scenario reuse is the point of set splitting) and, under
/// exclusion, across refiltering rounds. The cache keeps each extracted
/// scenario's gallery grouped by VID and packed into its feature block,
/// so every revisit skips the [`VideoStore`] lookup, the regrouping pass
/// and the packing. Misses pay the extraction cost exactly as an
/// uncached extraction does; hits on a resident gallery touch no
/// footage, and the cache holds none but a mixed-dimension gallery's.
///
/// A walk ([`VStage::filter_longest_first`]) releases each gallery after
/// the last list entry of the walk that names it, so a round ends with
/// nothing resident (natural release, DESIGN.md §6.6). The counters
/// span the cache's life: a miss is a scenario's first fetch, every
/// other request a hit — a released gallery fetched again included,
/// which [`VideoStore::extract`] serves as a cache hit.
#[derive(Default)]
pub struct GalleryCache {
    entries: BTreeMap<ScenarioId, Option<CacheEntry>>,
    /// Every scenario the cache has been asked for, resident or not.
    fetched: BTreeSet<ScenarioId>,
    hits: u64,
    misses: u64,
    /// The most entries ever resident at once.
    #[cfg(test)]
    peak: usize,
}

impl GalleryCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        GalleryCache::default()
    }

    /// Requests for a scenario fetched before: resident galleries and
    /// released ones fetched again.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Distinct scenarios fetched (including scenarios that turned out
    /// to have no footage).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Counts a request for `id`: a miss on its first, a hit on every
    /// later one.
    fn count(&mut self, id: ScenarioId) {
        if self.fetched.insert(id) {
            self.misses += 1;
        } else {
            self.hits += 1;
        }
    }

    /// Makes sure `id`'s gallery is resident, extracting and packing it
    /// when it is not.
    fn ensure(&mut self, id: ScenarioId, video: &VideoStore, tel: &Telemetry) {
        self.count(id);
        if let Entry::Vacant(slot) = self.entries.entry(id) {
            slot.insert(video.extract(id).map(|s| CacheEntry::new(s, tel)));
            #[cfg(test)]
            {
                self.peak = self.peak.max(self.entries.len());
            }
        }
    }

    /// Drops `id`'s gallery; a later request fetches it again.
    fn release(&mut self, id: ScenarioId) {
        self.entries.remove(&id);
    }

    fn get(&self, id: ScenarioId) -> Option<&CacheEntry> {
        self.entries.get(&id).and_then(Option::as_ref)
    }
}

/// The candidate model of one EID's scenario list: candidate admission
/// (exclusion, quorum pruning), representatives, and who is present
/// where.
pub(crate) struct CandidateModel<'a> {
    /// The resident cache entries: footage-bearing scenarios, list order.
    pub(crate) entries: Vec<&'a CacheEntry>,
    /// The admitted candidates, ascending: the index *is* the candidate
    /// ordinal, so a fold over ordinals visits candidates in VID order.
    pub(crate) vids: Vec<Vid>,
    /// Each candidate's appearance representative.
    pub(crate) reps: Vec<FeatureVector>,
    /// Per entry, the `(candidate, group)` pairs present there,
    /// candidate-ascending.
    pub(crate) present: Vec<Vec<(usize, usize)>>,
}

/// [`model_of`] over `list`'s galleries, extracting the ones `cache`
/// does not hold yet.
pub(crate) fn candidate_model<'a>(
    list: &ScenarioList,
    video: &VideoStore,
    excluded: &BTreeSet<Vid>,
    cache: &'a mut GalleryCache,
    tel: &Telemetry,
) -> CandidateModel<'a> {
    for &id in list {
        cache.ensure(id, video, tel);
    }
    let cache: &'a GalleryCache = cache;
    model_of(
        list.iter().filter_map(|&id| cache.get(id)).collect(),
        excluded,
    )
}

/// The candidate model over a list's footage-bearing galleries, in list
/// order, with `excluded` VIDs ruled out after the quorum count.
pub(crate) fn model_of<'a>(
    entries: Vec<&'a CacheEntry>,
    excluded: &BTreeSet<Vid>,
) -> CandidateModel<'a> {
    // Candidate pruning (lossless for the final match): the matched VID
    // must win a strict majority of per-scenario votes, and a VID can
    // only be voted where it is present — so anyone present in fewer
    // than half the scenarios can never be the match. At high densities
    // this cuts the candidate set from "everyone in the neighbourhood"
    // to the handful sharing most of the EID's trajectory. Presence is a
    // run length in the sorted concatenation of the entries' distinct
    // VIDs.
    let mut seen: Vec<Vid> = entries.iter().flat_map(|e| &e.vids).copied().collect();
    seen.sort_unstable();
    let quorum = entries.len().div_ceil(2);
    let vids: Vec<Vid> = seen
        .chunk_by(|a, b| a == b)
        .filter(|run| run.len() >= quorum && !excluded.contains(&run[0]))
        .map(|run| run[0])
        .collect();

    // Both sides ascend, so presence is one merge per entry.
    let present: Vec<Vec<(usize, usize)>> = entries
        .iter()
        .map(|e| {
            let mut pairs = Vec::new();
            let mut c = 0;
            for (group, &vid) in e.vids.iter().enumerate() {
                while c < vids.len() && vids[c] < vid {
                    c += 1;
                }
                if vids.get(c) == Some(&vid) {
                    pairs.push((c, group));
                }
            }
            pairs
        })
        .collect();

    // Each candidate's appearance model: the component-wise mean of its
    // observed features, received in list order and, within a gallery,
    // detection order — exactly as a direct detection walk would visit
    // them (re-identification links the detections).
    let mut sums: Vec<Vec<f64>> = vec![Vec::new(); vids.len()];
    let mut n = vec![0.0f64; vids.len()];
    for (e, pairs) in entries.iter().zip(&present) {
        for &(c, group) in pairs {
            for &row in e.group(group) {
                e.observe(row, &mut sums[c], &mut n[c]);
            }
        }
    }
    let reps = sums
        .into_iter()
        .zip(n)
        .map(|(sums, n)| FeatureVector::from_clamped(sums.into_iter().map(|s| s / n.max(1.0))))
        .collect();
    CandidateModel {
        entries,
        vids,
        reps,
        present,
    }
}

impl CandidateModel<'_> {
    /// The scoring step of [`VStage::filter_one`]: each candidate's
    /// joint membership probability over the list (paper §IV-B2), in
    /// log space — `Σ ln P` survives the long lists that underflow `Π P`
    /// to a meaningless all-zero tie, and `ln(0) = -inf` keeps the veto
    /// semantics of an impossible scenario. Counts the candidates into
    /// `tel` and charges `video`'s cost model one comparison per
    /// (candidate, scenario): matching a candidate's appearance model
    /// against a gallery is one nearest-neighbour query in a real
    /// pipeline. A model with no candidates (no footage for the whole
    /// list, or every candidate excluded or quorum-pruned) scores
    /// nothing and counts nothing.
    pub(crate) fn score(self, video: &VideoStore, tel: &Telemetry) -> Scores {
        if !self.vids.is_empty() {
            if tel.counters_on() {
                tel.registry()
                    .counter(names::VFILTER_CANDIDATES_SCORED)
                    .add(self.vids.len() as u64);
            }
            let price = video.cost_model().v_comparison;
            if price > 0 {
                let pairs = (self.vids.len() * self.entries.len()) as u64;
                let _ = CostModel::charge(price * pairs);
            }
        }
        let log_joint = (self.reps.iter())
            .map(|rep| {
                let mut lp = 0.0;
                for e in &self.entries {
                    lp += score_membership(rep, e).ln();
                }
                lp
            })
            .collect();
        Scores {
            vids: self.vids,
            present: self.present,
            log_joint,
        }
    }
}

/// A list's candidates scored: who is in the running, where each one is
/// present, and each one's exact log-joint — what the one [`tally`]
/// reads.
pub(crate) struct Scores {
    /// The candidates, ascending: the index is the candidate ordinal.
    vids: Vec<Vid>,
    /// Per footage-bearing entry, the `(candidate, group)` pairs present
    /// there, candidate-ascending.
    present: Vec<Vec<(usize, usize)>>,
    /// Each candidate's `Σ ln P(VID ∈ S)` over the list.
    log_joint: Vec<f64>,
}

/// The **one tally**: per-scenario choice (the present candidate with
/// the largest joint probability), majority of those choices, and the
/// winner's confidence, margin and vote share — every argmax under the
/// canonical [`beats`] rule, from exact per-candidate log-joints — with
/// the `locked` VIDs out of the running.
///
/// Exclusion only removes candidates: the model drops excluded VIDs
/// after the quorum count, and a candidate's representative and
/// log-joint read its own observations alone. So scores computed with
/// fewer VIDs excluded — or none — tallied here give exactly
/// [`VStage::filter_one`] with `locked` excluded, bit for bit.
pub(crate) fn tally(eid: Eid, scores: &Scores, locked: &BTreeSet<Vid>) -> MatchOutcome {
    let (vids, log_joint) = (&scores.vids, &scores.log_joint);
    let running: Vec<bool> = vids.iter().map(|vid| !locked.contains(vid)).collect();
    let mut votes: Vec<Vid> = Vec::new();
    let mut counts = vec![0usize; vids.len()];
    for pairs in &scores.present {
        let present = pairs.iter().map(|&(c, _)| c).filter(|&c| running[c]);
        if let Some(c) = argmax(vids, present, |c| log_joint[c]) {
            votes.push(vids[c]);
            counts[c] += 1;
        }
    }
    // No winner means no votes at all — an empty-gallery/no-candidate
    // edge that flows to the explicit NoEvidence outcome (all-zero
    // fields, never `count / 0 = NaN`) instead of aborting the pipeline.
    let Some(winner) = majority_winner(vids, &counts) else {
        return MatchOutcome::no_evidence(eid);
    };
    let confidence = log_joint[winner].exp();
    let mut others = (0..vids.len())
        .filter(|&c| running[c] && c != winner)
        .peekable();
    let margin = if others.peek().is_some() {
        let runner_up = others
            .map(|c| log_joint[c])
            .fold(f64::NEG_INFINITY, f64::max);
        confidence - runner_up.exp()
    } else {
        1.0
    };
    MatchOutcome {
        eid,
        vid: Some(vids[winner]),
        vote_share: counts[winner] as f64 / votes.len() as f64,
        confidence,
        margin,
        votes,
    }
}

/// The longest-first order of the exclusion walk: EIDs in `lists`,
/// longest list first, ties by EID.
pub(crate) fn longest_first(lists: &BTreeMap<Eid, ScenarioList>) -> Vec<(Eid, &ScenarioList)> {
    let mut order: Vec<(Eid, &ScenarioList)> = lists.iter().map(|(&eid, l)| (eid, l)).collect();
    order.sort_by_key(|&(eid, list)| (std::cmp::Reverse(list.len()), eid));
    order
}

/// EIDs a pooled walk scores per `par_map`. A wave's galleries are all
/// resident while it is scored, and each EID of a wave also scores the
/// candidates the EIDs before it in the wave lock. Chosen on seeds 1–5
/// of universal matching at paper scale: waves of 16 to 128 peaked
/// within 1 MiB of each other; 64 scores 1.07× the inline walk's
/// candidates in 16 maps per 1 000 EIDs.
const WAVE: usize = 64;

/// The V stage's context: the footage, the gallery cache and the run's
/// telemetry handle. Built as a literal — a caller
/// that keeps neither a cache nor a profile writes
/// `&mut GalleryCache::new()` and [`Telemetry::disabled()`].
pub struct VStage<'a> {
    /// The footage scenario lists point into.
    pub video: &'a VideoStore,
    /// Extracted galleries and the request counters; share one across
    /// the walks of a run. A walk leaves none of its galleries resident.
    pub cache: &'a mut GalleryCache,
    /// Where the stage counts and traces.
    pub telemetry: &'a Telemetry,
}

impl VStage<'_> {
    /// Filters the VID for a single EID against its scenario list,
    /// treating `excluded` VIDs as already matched to someone else.
    #[must_use]
    pub fn filter_one(
        &mut self,
        eid: Eid,
        list: &ScenarioList,
        excluded: &BTreeSet<Vid>,
    ) -> MatchOutcome {
        let (video, tel) = (self.video, self.telemetry);
        let model = candidate_model(list, video, excluded, self.cache, tel);
        tally(eid, &model.score(video, tel), excluded)
    }

    /// Filters VIDs for every EID in `lists` through the longest-first
    /// exclusion walk: the VID of every outcome `locks` accepts joins
    /// `excluded` and is ruled out of the candidacies that follow.
    /// Outcomes come back in processing order.
    ///
    /// The walk takes the order in waves: one EID inline, 64 EIDs
    /// given a `pool`. For each wave it fetches the wave's galleries
    /// into the cache on the calling thread, scores each list with the
    /// VIDs locked before the wave excluded — inline, or as one
    /// `par_map` on the pool — and tallies the wave in order, ruling
    /// out the VIDs locked since. Exclusion only removes candidates, so
    /// every outcome is the inline walk's, bit for bit, at any width.
    /// Each gallery is released once the last entry naming it has been
    /// tallied, so the cache holds none of `lists`' galleries
    /// afterwards.
    ///
    /// It owns the `vfilter` stage span.
    ///
    /// # Errors
    ///
    /// Propagates the pool's [`JobError`]; an inline walk never fails.
    pub fn filter_longest_first(
        &mut self,
        lists: &BTreeMap<Eid, ScenarioList>,
        excluded: &mut BTreeSet<Vid>,
        locks: impl Fn(&MatchOutcome) -> bool,
        pool: Option<(usize, TraceCtx)>,
    ) -> Result<Vec<MatchOutcome>, JobError> {
        let mut stage_span = self.telemetry.span("vfilter", "stage");
        stage_span.arg("eids", serde::Value::Int(lists.len() as i128));
        let mut uses: BTreeMap<ScenarioId, usize> = BTreeMap::new();
        for &id in lists.values().flatten() {
            *uses.entry(id).or_insert(0) += 1;
        }
        let (video, tel) = (self.video, self.telemetry);
        let mut outcomes = Vec::with_capacity(lists.len());
        for wave in longest_first(lists).chunks(if pool.is_some() { WAVE } else { 1 }) {
            for &id in wave.iter().flat_map(|(_, list)| *list) {
                self.cache.ensure(id, video, tel);
            }
            let cache: &GalleryCache = self.cache;
            let galleries: Vec<Vec<&CacheEntry>> = (wave.iter())
                .map(|(_, list)| list.iter().filter_map(|&id| cache.get(id)).collect())
                .collect();
            let scores: Vec<Scores> = match pool {
                Some((threads, ctx)) => score_wave(threads, ctx, &galleries, excluded, video, tel)?,
                None => (galleries.into_iter())
                    .map(|entries| model_of(entries, excluded).score(video, tel))
                    .collect(),
            };
            for (&(eid, list), scores) in wave.iter().zip(scores) {
                let outcome = tally(eid, &scores, excluded);
                if locks(&outcome) {
                    excluded.extend(outcome.vid);
                }
                for id in list {
                    let left = uses.get_mut(id).expect("every listed id is counted");
                    *left -= 1;
                    if *left == 0 {
                        self.cache.release(*id);
                    }
                }
                outcomes.push(outcome);
            }
        }
        Ok(outcomes)
    }
}

/// VID filtering over a whole split, as the benchmark harness times it:
/// [`VStage::filter_longest_first`] locking in every majority match,
/// against a caller-owned [`GalleryCache`] (read its hit counters
/// afterwards; the walk releases every gallery it fetched), outcomes in
/// EID order. `_config` names the one metric and selects nothing.
#[must_use]
pub fn filter_vids_cached(
    lists: &BTreeMap<Eid, ScenarioList>,
    video: &VideoStore,
    _config: &VFilterConfig,
    cache: &mut GalleryCache,
) -> Vec<MatchOutcome> {
    let mut stage = VStage {
        video,
        cache,
        telemetry: Telemetry::disabled(),
    };
    let mut outcomes = stage
        .filter_longest_first(lists, &mut BTreeSet::new(), MatchOutcome::is_majority, None)
        .expect("an inline walk submits nothing to a pool");
    outcomes.sort_by_key(|o| o.eid);
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_core::region::CellId;
    use ev_core::scenario::{Detection, ScenarioId};
    use ev_core::time::Timestamp;
    use ev_telemetry::TelemetryLevel;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn fv(v: &[f64]) -> FeatureVector {
        FeatureVector::new(v.to_vec()).unwrap()
    }

    fn vscenario(cell: usize, time: u64, people: &[(u64, &[f64])]) -> VScenario {
        let mut s = VScenario::new(CellId::new(cell), Timestamp::new(time));
        for &(vid, f) in people {
            s.push(Detection {
                vid: Vid::new(vid),
                feature: fv(f),
            });
        }
        s
    }

    fn sid(cell: usize, time: u64) -> ScenarioId {
        ScenarioId::new(Timestamp::new(time), CellId::new(cell))
    }

    /// [`VStage::filter_one`] for a caller that keeps neither a cache
    /// nor a profile.
    fn filter_one(
        eid: Eid,
        list: &ScenarioList,
        video: &VideoStore,
        excluded: &BTreeSet<Vid>,
    ) -> MatchOutcome {
        VStage {
            video,
            cache: &mut GalleryCache::new(),
            telemetry: Telemetry::disabled(),
        }
        .filter_one(eid, list, excluded)
    }

    /// Person 1 has feature ~(0.9, 0.9); person 2 ~(0.1, 0.1);
    /// person 3 ~(0.9, 0.1).
    fn video() -> VideoStore {
        VideoStore::new(
            vec![
                vscenario(0, 0, &[(1, &[0.9, 0.9]), (2, &[0.1, 0.1])]),
                vscenario(1, 1, &[(1, &[0.88, 0.92]), (3, &[0.9, 0.1])]),
                vscenario(2, 2, &[(1, &[0.91, 0.89])]),
                vscenario(3, 3, &[(2, &[0.12, 0.1]), (3, &[0.88, 0.12])]),
            ],
            CostModel::free(),
        )
    }

    #[test]
    fn the_common_vid_wins() {
        let video = video();
        // EID X's list: scenarios 0, 1, 2 — only VID 1 appears in all.
        let list = vec![sid(0, 0), sid(1, 1), sid(2, 2)];
        let out = filter_one(Eid::from_u64(7), &list, &video, &BTreeSet::new());
        assert_eq!(out.vid, Some(Vid::new(1)));
        assert!(out.is_majority());
        assert_eq!(out.votes.len(), 3);
        assert!(out.vote_share >= 0.99);
        assert!(out.confidence > 0.8);
    }

    #[test]
    fn empty_list_is_unmatched() {
        let video = video();
        let out = filter_one(Eid::from_u64(7), &vec![], &video, &BTreeSet::new());
        assert!(out.vid.is_none());
    }

    #[test]
    fn unknown_scenarios_are_skipped() {
        let video = video();
        let out = filter_one(
            Eid::from_u64(7),
            &vec![sid(9, 9), sid(0, 0)],
            &video,
            &BTreeSet::new(),
        );
        // Only scenario (0,0) exists; its best candidate still wins.
        assert!(out.vid.is_some());
        assert_eq!(out.votes.len(), 1);
    }

    #[test]
    fn exclusion_rules_out_matched_vids() {
        let video = video();
        let list = vec![sid(0, 0)];
        let mut excluded = BTreeSet::new();
        excluded.insert(Vid::new(1));
        let out = filter_one(Eid::from_u64(7), &list, &video, &excluded);
        assert_eq!(out.vid, Some(Vid::new(2)), "VID 1 is spoken for");
        // Excluding everyone leaves no candidates.
        excluded.insert(Vid::new(2));
        let out = filter_one(Eid::from_u64(7), &list, &video, &excluded);
        assert!(out.vid.is_none());
    }

    #[test]
    fn filter_vids_processes_longest_lists_first() {
        let video = video();
        // EID 10's long list pins VID 1; EID 20's short list would also
        // prefer VID 1 but exclusion forces VID 2.
        let mut lists = BTreeMap::new();
        lists.insert(Eid::from_u64(10), vec![sid(0, 0), sid(1, 1), sid(2, 2)]);
        lists.insert(Eid::from_u64(20), vec![sid(0, 0)]);
        let outcomes = filter_vids_cached(
            &lists,
            &video,
            &VFilterConfig::default(),
            &mut GalleryCache::new(),
        );
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].eid, Eid::from_u64(10), "sorted by EID");
        assert_eq!(outcomes[0].vid, Some(Vid::new(1)));
        assert_eq!(outcomes[1].vid, Some(Vid::new(2)));
    }

    /// A walk whose `locks` accepts nothing excludes nothing: both
    /// EIDs take the best VID.
    #[test]
    fn without_exclusion_both_take_the_best_vid() {
        let video = video();
        let mut lists = BTreeMap::new();
        lists.insert(Eid::from_u64(10), vec![sid(0, 0), sid(1, 1), sid(2, 2)]);
        lists.insert(Eid::from_u64(20), vec![sid(0, 0)]);
        let mut excluded = BTreeSet::new();
        let outcomes = VStage {
            video: &video,
            cache: &mut GalleryCache::new(),
            telemetry: Telemetry::disabled(),
        }
        .filter_longest_first(&lists, &mut excluded, |_| false, None)
        .unwrap();
        assert_eq!(outcomes[0].vid, Some(Vid::new(1)));
        assert_eq!(outcomes[1].vid, Some(Vid::new(1)), "conflict allowed");
        assert!(excluded.is_empty());
    }

    #[test]
    fn majority_vote_tolerates_one_bad_scenario() {
        // VID 1 appears in scenarios 0-2; scenario 3 lacks it entirely
        // (missing VID). The majority still picks VID 1.
        let video = video();
        let list = vec![sid(0, 0), sid(1, 1), sid(2, 2), sid(3, 3)];
        let out = filter_one(Eid::from_u64(7), &list, &video, &BTreeSet::new());
        assert_eq!(out.vid, Some(Vid::new(1)));
        assert!(out.vote_share >= 0.75, "3 of 4 scenarios vote for VID 1");
    }

    #[test]
    fn zero_recorded_scenarios_yield_no_evidence_not_nan() {
        // Regression: an EID whose whole list has no footage used to be
        // one `count / votes.len()` away from a NaN vote share. It must
        // come back as the explicit NoEvidence shape with finite fields.
        let video = video();
        for list in [vec![], vec![sid(9, 9), sid(8, 8)]] {
            let out = filter_one(Eid::from_u64(7), &list, &video, &BTreeSet::new());
            assert!(out.is_no_evidence());
            assert!(!out.vote_share.is_nan());
            assert_eq!(out.vote_share, 0.0);
            assert!(!out.is_majority(), "NoEvidence can never be a majority");
        }
        // Excluding every candidate is also zero votes, not NaN.
        let excluded: BTreeSet<Vid> = [Vid::new(1), Vid::new(2)].into_iter().collect();
        let out = filter_one(Eid::from_u64(7), &vec![sid(0, 0)], &video, &excluded);
        assert!(out.is_no_evidence());
        assert!(!out.vote_share.is_nan());
    }

    #[test]
    fn both_argmaxes_break_ties_toward_the_lower_vid() {
        // The canonical rule itself.
        let (a, b) = (Vid::new(3), Vid::new(5));
        assert!(beats(1.0, b, 1.0, a), "equal score: lower VID wins");
        assert!(!beats(1.0, a, 1.0, b));
        assert!(beats(0.0, a, 1.0, b), "higher score wins regardless");
        assert!(!beats(1.0, a, 0.0, b));
        assert!(!beats(1.0, a, 1.0, a), "nothing beats itself");

        // Per-scenario argmax: candidates at exactly the same score,
        // visited out of order.
        let vids = [Vid::new(4), Vid::new(6), Vid::new(9)];
        assert_eq!(argmax(&vids, [2, 0, 1], |_| 0.25), Some(0));
        // Duplicates (one VID detected twice) change nothing.
        assert_eq!(argmax(&vids, [2, 0, 0], |_| 0.25), Some(0));

        // Majority vote: equal counts resolve to the lower VID too, and
        // a candidate nobody voted for is not in the running.
        let vids = [Vid::new(1), Vid::new(2), Vid::new(5), Vid::new(8)];
        assert_eq!(majority_winner(&vids, &[0, 2, 1, 2]), Some(1));
        assert_eq!(majority_winner(&vids, &[0, 0, 0, 0]), None);
    }

    #[test]
    fn tied_galleries_vote_identically_end_to_end() {
        // Two identical-feature candidates: every per-scenario score
        // ties, so the whole pipeline must settle on the lower VID —
        // deterministically, whichever path (sequential/DAG) scored it.
        let video = VideoStore::new(
            vec![
                vscenario(0, 0, &[(7, &[0.5, 0.5]), (4, &[0.5, 0.5])]),
                vscenario(1, 1, &[(4, &[0.5, 0.5]), (7, &[0.5, 0.5])]),
            ],
            CostModel::free(),
        );
        let out = filter_one(
            Eid::from_u64(1),
            &vec![sid(0, 0), sid(1, 1)],
            &video,
            &BTreeSet::new(),
        );
        assert_eq!(out.vid, Some(Vid::new(4)), "lower VID wins the tie");
        assert_eq!(out.votes, vec![Vid::new(4), Vid::new(4)]);
        assert!((out.vote_share - 1.0).abs() < 1e-12);
    }

    /// The production scorer against the scalar reference: same bits on
    /// random galleries, and `0.0` wherever the reference errors or has
    /// nothing to scan.
    #[test]
    fn score_membership_is_bitwise_the_scalar_reference() {
        // The entry comes through the cache's `ensure`; the reference
        // scans the footage the store hands out, not anything the
        // entry kept.
        let entry = |s: VScenario| {
            let id = s.id();
            let video = VideoStore::new(vec![s], CostModel::free());
            let mut cache = GalleryCache::new();
            cache.ensure(id, &video, Telemetry::disabled());
            (video, cache, id)
        };
        let check = |rep: &FeatureVector, e: &(VideoStore, GalleryCache, ScenarioId)| {
            let (video, cache, id) = e;
            let got = score_membership(rep, cache.get(*id).unwrap());
            let footage = video.extract(*id).unwrap();
            let want = ev_vision::reid::membership_probability(rep, &footage).unwrap_or(0.0);
            assert_eq!(got.to_bits(), want.to_bits(), "{got} vs {want}");
            got
        };

        let mut rng = ChaCha8Rng::seed_from_u64(0x5C0E);
        for _ in 0..60 {
            // Up to 20 rows: galleries on both sides of the 8-row lane.
            let (dim, rows) = (rng.gen_range(1..40usize), rng.gen_range(1..21u64));
            let mut random = || -> Vec<f64> { (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect() };
            let people: Vec<(u64, Vec<f64>)> = (0..rows).map(|v| (v, random())).collect();
            let rep = fv(&random());
            let people: Vec<(u64, &[f64])> = people.iter().map(|(v, f)| (*v, &f[..])).collect();
            let e = entry(vscenario(0, 0, &people));
            assert!(check(&rep, &e) > 0.0);
        }

        let rep = fv(&[0.9, 0.9]);
        let mixed = entry(vscenario(0, 1, &[(1, &[0.9, 0.9]), (2, &[0.1, 0.1, 0.7])]));
        let other_dim = entry(vscenario(0, 2, &[(1, &[0.9, 0.9, 0.9])]));
        let empty = entry(vscenario(0, 3, &[]));
        assert_eq!(check(&rep, &mixed), 0.0, "stray row dimension");
        assert_eq!(check(&rep, &other_dim), 0.0, "candidate dimension");
        assert_eq!(check(&rep, &empty), 0.0, "empty gallery");
    }

    /// The cache keeps the packed block, not the footage: after a
    /// `filter_one` over a resident store, each listed gallery's footage
    /// is held by the store and the test's handle alone. A
    /// mixed-dimension gallery has no block, so its entry is the one
    /// that still holds its footage.
    #[test]
    fn the_gallery_cache_holds_no_footage_but_a_mixed_gallery() {
        let mixed = sid(4, 4);
        let video = VideoStore::new(
            vec![
                vscenario(0, 0, &[(1, &[0.9, 0.9]), (2, &[0.1, 0.1])]),
                vscenario(1, 1, &[(1, &[0.88, 0.92]), (3, &[0.9, 0.1])]),
                vscenario(2, 2, &[(1, &[0.91, 0.89])]),
                vscenario(3, 3, &[]),
                vscenario(4, 4, &[(1, &[0.9, 0.9]), (2, &[0.1, 0.1, 0.7])]),
            ],
            CostModel::free(),
        );
        let list: ScenarioList = (0..5).map(|i| sid(i, i as u64)).collect();
        let tel = Telemetry::new(TelemetryLevel::Counters);
        let mut cache = GalleryCache::new();
        let out = VStage {
            video: &video,
            cache: &mut cache,
            telemetry: &tel,
        }
        .filter_one(Eid::from_u64(7), &list, &BTreeSet::new());
        assert_eq!(out.vid, Some(Vid::new(1)));
        assert_eq!(cache.misses(), 5);
        for &id in &list {
            let held = video.extract(id).unwrap();
            let holders = if id == mixed { 3 } else { 2 };
            assert_eq!(Arc::strong_count(&held), holders, "{id}");
        }
        let counted = |name| tel.registry().counter_value(name);
        assert_eq!(counted(names::KERNEL_BLOCKS_BUILT), Some(4));
        assert_eq!(counted(names::KERNEL_GALLERIES_REJECTED), Some(1));
    }

    /// Scenarios that exist but hold zero detections cast zero votes:
    /// the explicit NoEvidence outcome.
    #[test]
    fn empty_galleries_flow_to_no_evidence() {
        let video = VideoStore::new(
            vec![vscenario(0, 0, &[]), vscenario(1, 1, &[])],
            CostModel::free(),
        );
        let list = vec![sid(0, 0), sid(1, 1)];
        let out = filter_one(Eid::from_u64(9), &list, &video, &BTreeSet::new());
        assert!(out.is_no_evidence(), "{out:?}");
        assert!(!out.vote_share.is_nan());
    }

    #[test]
    fn mean_feature_averages_components() {
        // A candidate's representative is the mean of its observations
        // across the list.
        let video = VideoStore::new(
            vec![
                vscenario(0, 0, &[(1, &[0.2, 0.4])]),
                vscenario(1, 1, &[(1, &[0.4, 0.8])]),
            ],
            CostModel::free(),
        );
        let mut cache = GalleryCache::new();
        let list = vec![sid(0, 0), sid(1, 1)];
        let model = candidate_model(
            &list,
            &video,
            &BTreeSet::new(),
            &mut cache,
            Telemetry::disabled(),
        );
        assert_eq!(model.vids, vec![Vid::new(1)]);
        let m = model.reps[0].components();
        assert!((m[0] - 0.3).abs() < 1e-12);
        assert!((m[1] - 0.6).abs() < 1e-12);
    }

    /// A footage-bearing cache entry beside the footage the store hands
    /// out for it.
    type EntryAndFootage<'a> = (&'a CacheEntry, Arc<VScenario>);

    /// The candidate model as it stood before the dense one — per-EID
    /// maps keyed by VID — kept as the differential reference. It shares
    /// only the gallery cache's extraction with production (so its
    /// entries, hits and block counters are production's); it groups and
    /// averages the footage [`VideoStore::extract`] hands it, which it
    /// returns beside each entry.
    fn reference_model<'a>(
        list: &ScenarioList,
        video: &VideoStore,
        excluded: &BTreeSet<Vid>,
        cache: &'a mut GalleryCache,
        tel: &Telemetry,
    ) -> (Vec<EntryAndFootage<'a>>, BTreeMap<Vid, FeatureVector>) {
        for &id in list {
            cache.ensure(id, video, tel);
        }
        let cache: &'a GalleryCache = cache;
        let entries: Vec<EntryAndFootage> = list
            .iter()
            .filter_map(|&id| Some((cache.get(id)?, video.extract(id)?)))
            .collect();
        let groups: Vec<BTreeMap<Vid, Vec<usize>>> = entries
            .iter()
            .map(|(_, footage)| {
                let mut groups: BTreeMap<Vid, Vec<usize>> = BTreeMap::new();
                for (i, d) in footage.detections().iter().enumerate() {
                    groups.entry(d.vid).or_default().push(i);
                }
                groups
            })
            .collect();
        let mut presence: BTreeMap<Vid, usize> = BTreeMap::new();
        for g in &groups {
            for &vid in g.keys() {
                if !excluded.contains(&vid) {
                    *presence.entry(vid).or_insert(0) += 1;
                }
            }
        }
        let quorum = entries.len().div_ceil(2);
        let mut observations: BTreeMap<Vid, Vec<&FeatureVector>> = BTreeMap::new();
        for ((_, footage), g) in entries.iter().zip(&groups) {
            let detections = footage.detections();
            for (&vid, indices) in g {
                if presence.get(&vid).is_some_and(|&p| p >= quorum) {
                    observations
                        .entry(vid)
                        .or_default()
                        .extend(indices.iter().map(|&i| &detections[i].feature));
                }
            }
        }
        let representatives = observations
            .into_iter()
            .map(|(vid, obs)| {
                let dim = obs[0].dim();
                let mut sums = vec![0.0; dim];
                let mut n: f64 = 0.0;
                for o in obs.iter().filter(|o| o.dim() == dim) {
                    for (s, &c) in sums.iter_mut().zip(o.components()) {
                        *s += c;
                    }
                    n += 1.0;
                }
                let mean = FeatureVector::from_clamped(sums.into_iter().map(|s| s / n.max(1.0)));
                (vid, mean)
            })
            .collect();
        (entries, representatives)
    }

    /// The exact scan over [`reference_model`] with the vote → majority →
    /// margin tail as it stood before the one tally: the differential
    /// reference for [`VStage::filter_one`]. Scoring goes through
    /// production's [`score_membership`], which has its own scalar
    /// reference above.
    fn reference_filter_one(
        eid: Eid,
        list: &ScenarioList,
        video: &VideoStore,
        excluded: &BTreeSet<Vid>,
        cache: &mut GalleryCache,
        tel: &Telemetry,
    ) -> MatchOutcome {
        let (entries, representatives) = reference_model(list, video, excluded, cache, tel);
        if representatives.is_empty() {
            return MatchOutcome::no_evidence(eid);
        }
        if tel.counters_on() {
            tel.registry()
                .counter(names::VFILTER_CANDIDATES_SCORED)
                .add(representatives.len() as u64);
        }

        let mut log_joint: BTreeMap<Vid, f64> = BTreeMap::new();
        for (&vid, rep) in &representatives {
            let mut lp = 0.0;
            for (e, _) in &entries {
                lp += score_membership(rep, e).ln();
            }
            log_joint.insert(vid, lp);
        }
        let mut votes: Vec<Vid> = Vec::new();
        for (_, footage) in &entries {
            let mut best: Option<(f64, Vid)> = None;
            for vid in footage.vids().filter(|v| log_joint.contains_key(v)) {
                let s = log_joint[&vid];
                match best {
                    Some((bs, bv)) if !beats(bs, bv, s, vid) => {}
                    _ => best = Some((s, vid)),
                }
            }
            votes.extend(best.map(|(_, v)| v));
        }
        let mut counts: BTreeMap<Vid, usize> = BTreeMap::new();
        for &v in &votes {
            *counts.entry(v).or_insert(0) += 1;
        }
        let mut best: Option<(usize, Vid)> = None;
        for (&vid, &c) in &counts {
            match best {
                Some((bc, bv)) if !beats(bc as f64, bv, c as f64, vid) => {}
                _ => best = Some((c, vid)),
            }
        }
        let Some((count, winner)) = best else {
            return MatchOutcome::no_evidence(eid);
        };
        let confidence = log_joint[&winner].exp();
        let margin = if log_joint.len() > 1 {
            let runner_up = log_joint
                .iter()
                .filter(|(&v, _)| v != winner)
                .map(|(_, &lp)| lp)
                .fold(f64::NEG_INFINITY, f64::max);
            confidence - runner_up.exp()
        } else {
            1.0
        };
        MatchOutcome {
            eid,
            vid: Some(winner),
            vote_share: count as f64 / votes.len() as f64,
            confidence,
            margin,
            votes,
        }
    }

    /// A small adversarial world: six VIDs over up to seven galleries
    /// whose features come from a three-value palette (so exact score
    /// ties are common), with empty galleries, a VID detected twice in
    /// one gallery, stray-dimension rows (a mixed gallery) and whole
    /// galleries of another dimension (a candidate/gallery mismatch).
    fn adversarial_scenarios(rng: &mut ChaCha8Rng) -> Vec<VScenario> {
        fn feature(rng: &mut ChaCha8Rng, dim: usize) -> Vec<f64> {
            (0..dim)
                .map(|_| [0.25, 0.5, 0.75][rng.gen_range(0..3usize)])
                .collect()
        }
        let looks: Vec<Vec<f64>> = (0..6).map(|_| feature(rng, 3)).collect();
        (0..rng.gen_range(1..=7usize))
            .map(|i| {
                let gallery_dim = if rng.gen_bool(0.15) { 4 } else { 3 };
                let mut s = VScenario::new(CellId::new(i), Timestamp::new(i as u64));
                for _ in 0..rng.gen_range(0..=7usize) {
                    let vid = rng.gen_range(0..6usize);
                    let dim = if rng.gen_bool(0.1) { 2 } else { gallery_dim };
                    let f = if dim == 3 && rng.gen_bool(0.5) {
                        looks[vid].clone()
                    } else {
                        feature(rng, dim)
                    };
                    s.push(Detection {
                        vid: Vid::new(vid as u64),
                        feature: fv(&f),
                    });
                }
                s
            })
            .collect()
    }

    /// The longest-first walk as it stood before the countdown and the
    /// waves: each EID filtered with every lock so far excluded, every
    /// gallery resident in `cache` for the cache's life. The
    /// differential reference for [`VStage::filter_longest_first`].
    fn reference_longest_first(
        lists: &BTreeMap<Eid, ScenarioList>,
        video: &VideoStore,
        cache: &mut GalleryCache,
        excluded: &mut BTreeSet<Vid>,
    ) -> Vec<MatchOutcome> {
        let telemetry = Telemetry::disabled();
        let mut stage = VStage {
            video,
            cache,
            telemetry,
        };
        let mut outcomes = Vec::new();
        for (eid, list) in longest_first(lists) {
            let outcome = stage.filter_one(eid, list, excluded);
            if outcome.is_majority() {
                excluded.extend(outcome.vid);
            }
            outcomes.push(outcome);
        }
        outcomes
    }

    /// Runs two walks over random lists of `eids` EIDs on a pool of
    /// `pool` threads (or inline) against the never-releasing
    /// reference, sharing each side's cache across the walks as the
    /// rounds of a match do, so the second re-fetches what the first
    /// released — counted as hits. Checks that each walk leaves the
    /// cache empty; that outcomes (floats by bits), locks and
    /// `(hits, misses)` are the reference's; and returns, per walk, the
    /// most galleries resident at once with the largest overlap of the
    /// [first use, last use] intervals in walk order and the most
    /// distinct galleries of one wave.
    fn walk_against_the_reference(
        rng: &mut ChaCha8Rng,
        eids: std::ops::RangeInclusive<u64>,
        pool: Option<usize>,
    ) -> Result<Vec<(usize, usize, usize)>, TestCaseError> {
        let video = VideoStore::new(adversarial_scenarios(rng), CostModel::free());
        // Ids 7 and 8 have no footage.
        let ids: Vec<ScenarioId> = (0..9).map(|i| sid(i, i as u64)).collect();
        let (mut cache, mut ref_cache) = (GalleryCache::new(), GalleryCache::new());
        let (mut excluded, mut ref_excluded) = (BTreeSet::new(), BTreeSet::new());
        let mut peaks = Vec::new();
        for _walk in 0..2 {
            let lists: BTreeMap<Eid, ScenarioList> = (0..rng.gen_range(eids.clone()))
                .map(|e| {
                    let list = (0..rng.gen_range(0..=8usize))
                        .map(|_| ids[rng.gen_range(0..ids.len())])
                        .collect();
                    (Eid::from_u64(e), list)
                })
                .collect();
            cache.peak = 0;
            let got = VStage {
                video: &video,
                cache: &mut cache,
                telemetry: Telemetry::disabled(),
            }
            .filter_longest_first(
                &lists,
                &mut excluded,
                MatchOutcome::is_majority,
                pool.map(|threads| (threads, TraceCtx::root())),
            )
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert!(cache.entries.is_empty(), "{} resident", cache.entries.len());

            let mut span: BTreeMap<ScenarioId, (usize, usize)> = BTreeMap::new();
            for (at, outcome) in got.iter().enumerate() {
                for &id in &lists[&outcome.eid] {
                    span.entry(id).or_insert((at, at)).1 = at;
                }
            }
            let overlap = (0..got.len())
                .map(|at| span.values().filter(|&&(a, b)| a <= at && at <= b).count())
                .max()
                .unwrap_or(0);
            let wave = if pool.is_some() { WAVE } else { 1 };
            let widest = (got.chunks(wave))
                .map(|wave| {
                    let ids = wave.iter().flat_map(|o| &lists[&o.eid]);
                    ids.collect::<BTreeSet<_>>().len()
                })
                .max()
                .unwrap_or(0);
            peaks.push((cache.peak, overlap, widest));

            let want = reference_longest_first(&lists, &video, &mut ref_cache, &mut ref_excluded);
            prop_assert_eq!(got.len(), want.len());
            for (got, want) in got.iter().zip(&want) {
                prop_assert_eq!(
                    (got.eid, got.vid, &got.votes),
                    (want.eid, want.vid, &want.votes)
                );
                prop_assert_eq!(got.vote_share.to_bits(), want.vote_share.to_bits());
                prop_assert_eq!(got.confidence.to_bits(), want.confidence.to_bits());
                prop_assert_eq!(got.margin.to_bits(), want.margin.to_bits());
            }
            prop_assert_eq!(&excluded, &ref_excluded);
            prop_assert_eq!(
                (cache.hits(), cache.misses()),
                (ref_cache.hits(), ref_cache.misses())
            );
        }
        Ok(peaks)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The dense candidate model and the one tally against the
        /// map-keyed reference: the whole `MatchOutcome` (floats by
        /// bits, `votes` included), the gallery cache and the V-stage
        /// counters agree — over lists of even and odd footage-bearing
        /// length (the quorum edge), ids with no footage, every edge
        /// `adversarial_scenarios` builds, and empty and total exclusion;
        /// two lists share each side's cache.
        #[test]
        fn filter_one_is_bitwise_the_map_keyed_reference(
            world_seed in 0u64..1_000_000,
            exclude in 0u32..3,
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(world_seed);
            let scenarios = adversarial_scenarios(&mut rng);
            // Ids 7 and 8 have no footage.
            let ids: Vec<ScenarioId> = (0..9).map(|i| sid(i, i as u64)).collect();
            let lists: Vec<ScenarioList> = (0..2)
                .map(|_| {
                    (0..rng.gen_range(0..=8usize))
                        .map(|_| ids[rng.gen_range(0..ids.len())])
                        .collect()
                })
                .collect();
            let excluded: BTreeSet<Vid> = match exclude {
                0 => BTreeSet::new(),
                1 => (0..6).filter(|_| rng.gen_bool(0.3)).map(Vid::new).collect(),
                _ => (0..6).map(Vid::new).collect(),
            };
            let cost = CostModel { v_extraction: 3, v_comparison: 5 };
            let model_video = VideoStore::new(scenarios.clone(), CostModel::free());
            let (video, ref_video) = (
                VideoStore::new(scenarios.clone(), cost),
                VideoStore::new(scenarios, cost),
            );
            let (tel, ref_tel) = (
                Telemetry::new(TelemetryLevel::Counters),
                Telemetry::new(TelemetryLevel::Counters),
            );
            let (mut cache, mut ref_cache) = (GalleryCache::new(), GalleryCache::new());
            for (i, list) in lists.iter().enumerate() {
                let eid = Eid::from_u64(i as u64);
                // Who is in the running, and as what: outcomes alone
                // cannot see a representative once any gallery of the
                // list vetoes everyone with a dimension error.
                let bits = |f: &FeatureVector| -> Vec<u64> {
                    f.components().iter().map(|c| c.to_bits()).collect()
                };
                let (mut c, mut rc) = (GalleryCache::new(), GalleryCache::new());
                let off = Telemetry::disabled();
                let model = candidate_model(list, &model_video, &excluded, &mut c, off);
                let (_, representatives) =
                    reference_model(list, &model_video, &excluded, &mut rc, off);
                prop_assert_eq!(
                    model.vids.iter().copied().zip(model.reps.iter().map(bits)).collect::<Vec<_>>(),
                    representatives.iter().map(|(&v, r)| (v, bits(r))).collect::<Vec<_>>()
                );
                let got = VStage { video: &video, cache: &mut cache, telemetry: &tel }
                    .filter_one(eid, list, &excluded);
                let want = reference_filter_one(
                    eid, list, &ref_video, &excluded, &mut ref_cache, &ref_tel,
                );
                prop_assert_eq!((got.eid, got.vid, &got.votes), (want.eid, want.vid, &want.votes));
                prop_assert_eq!(got.vote_share.to_bits(), want.vote_share.to_bits());
                prop_assert_eq!(got.confidence.to_bits(), want.confidence.to_bits());
                prop_assert_eq!(got.margin.to_bits(), want.margin.to_bits());
            }
            prop_assert_eq!((cache.hits(), cache.misses()), (ref_cache.hits(), ref_cache.misses()));
            for name in [
                names::VFILTER_CANDIDATES_SCORED,
                names::KERNEL_BLOCKS_BUILT,
                names::KERNEL_GALLERIES_REJECTED,
            ] {
                prop_assert_eq!(
                    tel.registry().counter_value(name),
                    ref_tel.registry().counter_value(name),
                    "{}", name
                );
            }
        }

        /// The score/tally split is exact: every quorum candidate scored
        /// once with nothing excluded, then tallied with the locked VIDs
        /// ruled out, is [`VStage::filter_one`] with those locks, field
        /// for field (floats by bits) — over `adversarial_scenarios`'
        /// worlds (mixed-dimension galleries included), empty lists, ids
        /// with no footage and empty, random and total lock sets.
        #[test]
        fn tallying_eager_scores_without_the_locks_is_filter_one(
            world_seed in 0u64..1_000_000,
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(world_seed);
            let video = VideoStore::new(adversarial_scenarios(&mut rng), CostModel::free());
            // Ids 7 and 8 have no footage.
            let ids: Vec<ScenarioId> = (0..9).map(|i| sid(i, i as u64)).collect();
            let off = Telemetry::disabled();
            for i in 0..4u64 {
                let list: ScenarioList = (0..rng.gen_range(0..=8usize))
                    .map(|_| ids[rng.gen_range(0..ids.len())])
                    .collect();
                let locked: BTreeSet<Vid> = match rng.gen_range(0..3u32) {
                    0 => BTreeSet::new(),
                    1 => (0..6).filter(|_| rng.gen_bool(0.4)).map(Vid::new).collect(),
                    _ => (0..6).map(Vid::new).collect(),
                };
                let eid = Eid::from_u64(i);
                let mut cache = GalleryCache::new();
                let eager = candidate_model(&list, &video, &BTreeSet::new(), &mut cache, off)
                    .score(&video, off);
                let got = tally(eid, &eager, &locked);
                let want = filter_one(eid, &list, &video, &locked);
                prop_assert_eq!((got.eid, got.vid, &got.votes), (want.eid, want.vid, &want.votes));
                prop_assert_eq!(got.vote_share.to_bits(), want.vote_share.to_bits());
                prop_assert_eq!(got.confidence.to_bits(), want.confidence.to_bits());
                prop_assert_eq!(got.margin.to_bits(), want.margin.to_bits());
            }
        }

        /// The countdown: an inline walk fetches each gallery on its
        /// first use, drops it after its last, and leaves the cache
        /// empty; the most galleries resident at once is the largest
        /// overlap of the [first use, last use] intervals in walk
        /// order; and outcomes (floats by bits), locks and
        /// `(hits, misses)` are a never-releasing walk's.
        #[test]
        fn the_walk_holds_each_gallery_from_first_to_last_use(world_seed in 0u64..1_000_000) {
            let mut rng = ChaCha8Rng::seed_from_u64(world_seed);
            for (peak, overlap, _) in walk_against_the_reference(&mut rng, 0..=6, None)? {
                prop_assert_eq!(peak, overlap);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The same walk on a pool of 2 and of 4 workers, over up to
        /// three waves: outcomes (floats by bits), locks and
        /// `(hits, misses)` are the never-releasing inline walk's, each
        /// walk leaves the cache empty, and a wave holds its galleries
        /// until it is tallied — never more resident at once than the
        /// interval overlap plus one wave's distinct galleries.
        #[test]
        fn the_pooled_walk_is_the_inline_walk_at_every_width(world_seed in 0u64..1_000_000) {
            let eids = 0..=2 * WAVE as u64 + 6;
            for threads in [2, 4] {
                let mut rng = ChaCha8Rng::seed_from_u64(world_seed);
                let eids = eids.clone();
                let peaks = walk_against_the_reference(&mut rng, eids, Some(threads))?;
                for (peak, overlap, widest) in peaks {
                    prop_assert!(peak <= overlap + widest, "{} > {} + {}", peak, overlap, widest);
                }
            }
        }
    }
}
