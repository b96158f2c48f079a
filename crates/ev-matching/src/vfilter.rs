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
//! Already-matched VIDs can be *excluded* from later candidacies ("VIDs
//! that have been already matched may help distinguishing those remain
//! unmatched", §IV-A); EIDs are processed longest-list-first so the most
//! constrained matches land before they are needed for exclusion.
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
//! grouped by VID. [`filter_vids`] shares one cache across all EIDs —
//! scenario reuse across lists is the point of set splitting — so each
//! V-Scenario is fetched and regrouped once, no matter how many EIDs its
//! footage serves.

use crate::types::{MatchOutcome, ScenarioList};
use ev_core::feature::{FeatureVector, Metric};
use ev_core::ids::{Eid, Vid};
use ev_core::kernel::{FeatureBlock, Kernel};
use ev_core::scenario::{ScenarioId, VScenario};
use ev_store::VideoStore;
use ev_telemetry::{names, Telemetry};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;
use std::time::Instant;

/// Configuration of the VID filtering stage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VFilterConfig {
    /// Feature distance metric behind `sim`.
    pub metric: Metric,
    /// Rule already-matched VIDs out of later candidacies.
    pub exclusion: bool,
    /// Minimum winner margin for a match to count as confident (see
    /// [`MatchOutcome::is_confident`]).
    pub min_margin: f64,
    /// Anytime/approximate evaluation knobs. `None` (the default) runs
    /// the exhaustive scan; `Some` with an
    /// [`approximate`](crate::anytime::AnytimeConfig::approximate)
    /// configuration routes every `filter_one` through
    /// [`crate::anytime`]'s bounded early-terminating scorer.
    pub anytime: Option<crate::anytime::AnytimeConfig>,
}

impl Default for VFilterConfig {
    fn default() -> Self {
        VFilterConfig {
            metric: Metric::NormalizedL2,
            exclusion: true,
            min_margin: 0.01,
            anytime: None,
        }
    }
}

/// Multiply-shift hasher for internal identity keys (`Vid`/`Eid` wrap a
/// `u64`). The default SipHash is DoS-resistant but costs ~10× more per
/// op, and the candidate-model accumulation hashes thousands of ids per
/// EID on the hot path; synthetic ids need no DoS resistance.
#[derive(Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-u64 fields (FNV-1a); id keys never hit this.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        // Fold the entropy-rich high bits into the low bits the table
        // masks on.
        self.0 ^ (self.0 >> 31)
    }
}

pub(crate) type IdHashMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// The **single argmax tie-break rule** of the V stage: a higher score
/// always wins; an *exact* score tie goes to the **lower VID**.
///
/// Both argmaxes of the majority pipeline — the per-scenario choice
/// (score = joint membership probability) and the majority vote itself
/// (score = vote count) — resolve ties through this one predicate, so
/// the sequential, DAG and anytime paths agree bit-for-bit on tied
/// inputs. Scores compare with [`f64::total_cmp`], so a NaN cannot
/// poison the ordering.
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

/// Per-scenario argmax over the candidates present in a scenario, under
/// the canonical [`beats`] tie-break (lower VID wins exact ties).
pub(crate) fn scenario_vote(
    present: impl IntoIterator<Item = Vid>,
    score: impl Fn(Vid) -> f64,
) -> Option<Vid> {
    let mut best: Option<(f64, Vid)> = None;
    for vid in present {
        let s = score(vid);
        match best {
            Some((bs, bv)) if !beats(bs, bv, s, vid) => {}
            _ => best = Some((s, vid)),
        }
    }
    best.map(|(_, v)| v)
}

/// Majority winner across per-scenario votes, under the same canonical
/// tie-break: most votes wins, an exact vote-count tie goes to the
/// lower VID. Returns the winner and its vote count.
pub(crate) fn majority_winner(counts: &BTreeMap<Vid, usize>) -> Option<(Vid, usize)> {
    let mut best: Option<(usize, Vid)> = None;
    for (&vid, &c) in counts {
        match best {
            Some((bc, bv)) if !beats(bc as f64, bv, c as f64, vid) => {}
            _ => best = Some((c, vid)),
        }
    }
    best.map(|(c, v)| (v, c))
}

/// One scenario's extracted gallery: the V-Scenario handle plus its
/// detection indices grouped by VID, in detection order. Concatenating a
/// list's groups in list order reproduces exactly the observation
/// sequence a direct detection walk would produce, so representatives
/// computed through the cache are bit-identical to uncached ones.
pub(crate) struct CacheEntry {
    pub(crate) scenario: Arc<VScenario>,
    pub(crate) groups: BTreeMap<Vid, Vec<usize>>,
    /// Per-scenario feature bounding box behind the anytime upper bound
    /// (see [`crate::anytime`]). A property of the gallery alone — no
    /// EID or representative enters it — so it is computed at most once
    /// per scenario and shared by every EID that revisits the entry.
    pub(crate) bbox: std::cell::OnceCell<Option<crate::anytime::EntryBox>>,
    /// The scenario's detections packed into an SoA [`FeatureBlock`]
    /// for the batch kernel. Like `bbox`, a property of the gallery
    /// alone: packed at most once per cache entry and shared by every
    /// EID that revisits it. `None` means the gallery was rejected
    /// (rows disagree on dimensionality) — the same condition under
    /// which the scalar path's per-pair error maps every membership of
    /// this gallery to `0`.
    block: std::cell::OnceCell<Option<FeatureBlock>>,
}

impl CacheEntry {
    pub(crate) fn new(scenario: Arc<VScenario>, groups: BTreeMap<Vid, Vec<usize>>) -> Self {
        CacheEntry {
            scenario,
            groups,
            bbox: std::cell::OnceCell::new(),
            block: std::cell::OnceCell::new(),
        }
    }

    /// The scenario's detection-feature bounding box, computed on first
    /// use and memoized for the cache entry's lifetime.
    pub(crate) fn bbox(&self) -> &Option<crate::anytime::EntryBox> {
        self.bbox.get_or_init(|| crate::anytime::entry_box(self))
    }

    /// The scenario's SoA feature block, packed on first use and
    /// memoized for the cache entry's lifetime. A mixed-dimensionality
    /// gallery fails validation **once** here — counted, with the
    /// scenario id in the error — instead of per pair in the hot loop.
    pub(crate) fn block(&self, tel: &Telemetry) -> &Option<FeatureBlock> {
        self.block.get_or_init(|| {
            let gallery = self.scenario.id().to_string();
            let features = self.scenario.detections().iter().map(|d| &d.feature);
            match FeatureBlock::build(&gallery, features) {
                Ok(b) => {
                    if tel.counters_on() {
                        tel.registry().counter(names::KERNEL_BLOCKS_BUILT).add(1);
                    }
                    Some(b)
                }
                Err(_) => {
                    if tel.counters_on() {
                        tel.registry()
                            .counter(names::KERNEL_GALLERIES_REJECTED)
                            .add(1);
                    }
                    None
                }
            }
        })
    }
}

/// Membership probability `P(VID ∈ S) = max_i sim(rep, f_i)` for one
/// `(candidate, scenario)` pair — the single scoring point shared by
/// the exact scan below and the anytime refiner's exact evaluations.
///
/// Bitwise the scalar reference
/// `ev_vision::reid::membership_probability(..).unwrap_or(0.0)`: the
/// block kernel accumulates each row in scalar order (see
/// [`ev_core::kernel`]), and every error the scalar scan maps to `0.0`
/// (mixed-dimensionality gallery, candidate vs gallery dimension
/// mismatch, empty scenario) maps to `0.0` here too.
pub(crate) fn score_membership(
    rep: &FeatureVector,
    entry: &CacheEntry,
    metric: Metric,
    tel: &Telemetry,
) -> f64 {
    let Some(block) = entry.block(tel) else {
        return 0.0;
    };
    match Kernel::prepare(metric, rep.dim()) {
        Ok(kernel) => kernel.score_max(rep, block).unwrap_or(0.0),
        Err(_) => 0.0,
    }
}

/// Per-candidate gallery cache for the V stage.
///
/// VID filtering revisits the same V-Scenarios over and over: across
/// EIDs (scenario reuse is the point of set splitting) and, under
/// exclusion, across refiltering rounds. The cache keeps each extracted
/// scenario's gallery grouped by VID so every revisit skips both the
/// [`VideoStore`] lookup and the regrouping pass. Misses charge the cost
/// ledger exactly as the uncached path does; hits touch no footage.
#[derive(Default)]
pub struct GalleryCache {
    entries: BTreeMap<ScenarioId, Option<CacheEntry>>,
    hits: u64,
    misses: u64,
}

impl GalleryCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        GalleryCache::default()
    }

    /// Galleries served without touching the video store.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Galleries extracted and grouped on first sight (including
    /// scenarios that turned out to have no footage).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Makes sure `id`'s gallery is resident, extracting it on a miss.
    pub(crate) fn ensure(&mut self, id: ScenarioId, video: &VideoStore) {
        if self.entries.contains_key(&id) {
            self.hits += 1;
            return;
        }
        self.misses += 1;
        let entry = video.extract(id).map(|scenario| {
            let mut groups: BTreeMap<Vid, Vec<usize>> = BTreeMap::new();
            for (i, d) in scenario.detections().iter().enumerate() {
                groups.entry(d.vid).or_default().push(i);
            }
            CacheEntry::new(scenario, groups)
        });
        self.entries.insert(id, entry);
    }

    pub(crate) fn get(&self, id: ScenarioId) -> Option<&CacheEntry> {
        self.entries.get(&id).and_then(Option::as_ref)
    }
}

/// Builds the candidate model for one EID's scenario list: the resident
/// cache entries (footage-bearing scenarios, list order) and each
/// surviving candidate's appearance representative.
///
/// This is the **shared front half** of both the exact and the
/// [`crate::anytime`] scorers — candidate admission (exclusion, quorum
/// pruning) and representative computation happen here, once, so the
/// two paths can never disagree about who is even in the running.
pub(crate) fn candidate_model<'a>(
    list: &ScenarioList,
    video: &VideoStore,
    excluded: &BTreeSet<Vid>,
    cache: &'a mut GalleryCache,
) -> (Vec<&'a CacheEntry>, BTreeMap<Vid, FeatureVector>) {
    for &id in list {
        cache.ensure(id, video);
    }
    let cache: &'a GalleryCache = cache;
    let entries: Vec<&CacheEntry> = list.iter().filter_map(|&id| cache.get(id)).collect();
    if entries.is_empty() {
        return (entries, BTreeMap::new());
    }

    // Candidate pruning (lossless for the final match): the matched VID
    // must win a strict majority of per-scenario votes, and a VID can
    // only be voted where it is present — so anyone present in fewer
    // than half the scenarios can never be the match. At high densities
    // this cuts the candidate set from "everyone in the neighbourhood"
    // to the handful sharing most of the EID's trajectory.
    //
    // Presence is counted first so the observation vectors below are
    // only ever built for quorum survivors: a dense neighbourhood has
    // hundreds of transient VIDs per list and a handful of survivors,
    // and this pass is on the per-EID hot path. The `HashMap` is pure
    // accumulation — it is never iterated, so the map's nondeterministic
    // order cannot leak into results.
    let mut presence: IdHashMap<Vid, usize> = IdHashMap::default();
    for e in &entries {
        for &vid in e.groups.keys() {
            if !excluded.contains(&vid) {
                *presence.entry(vid).or_insert(0) += 1;
            }
        }
    }
    let quorum = entries.len().div_ceil(2);

    // Build each surviving candidate's appearance model: the mean of its
    // observed features across the list, in list order exactly as a
    // direct detection walk would visit them (re-identification links
    // the detections).
    let mut observations: BTreeMap<Vid, Vec<&FeatureVector>> = BTreeMap::new();
    for e in &entries {
        let detections = e.scenario.detections();
        for (&vid, indices) in &e.groups {
            if presence.get(&vid).is_some_and(|&p| p >= quorum) {
                observations
                    .entry(vid)
                    .or_default()
                    .extend(indices.iter().map(|&i| &detections[i].feature));
            }
        }
    }
    let representatives: BTreeMap<Vid, FeatureVector> = observations
        .into_iter()
        .map(|(vid, obs)| (vid, mean_feature(&obs)))
        .collect();
    (entries, representatives)
}

/// Filters the VID for a single EID against its scenario list, treating
/// `excluded` VIDs as already matched to someone else.
///
/// Convenience wrapper over [`filter_one_cached`] with a private,
/// call-local [`GalleryCache`]; batch callers should share one cache.
#[must_use]
pub fn filter_one(
    eid: Eid,
    list: &ScenarioList,
    video: &VideoStore,
    config: &VFilterConfig,
    excluded: &BTreeSet<Vid>,
) -> MatchOutcome {
    filter_one_cached(eid, list, video, config, excluded, &mut GalleryCache::new())
}

/// [`filter_one`] against a shared [`GalleryCache`].
#[must_use]
pub fn filter_one_cached(
    eid: Eid,
    list: &ScenarioList,
    video: &VideoStore,
    config: &VFilterConfig,
    excluded: &BTreeSet<Vid>,
    cache: &mut GalleryCache,
) -> MatchOutcome {
    filter_one_instrumented(
        eid,
        list,
        video,
        config,
        excluded,
        cache,
        Telemetry::disabled(),
    )
}

/// [`filter_one_cached`] with telemetry: counts candidates scored and,
/// at the full level, records a per-scenario scoring-latency histogram.
/// With a disabled handle this is exactly `filter_one_cached`.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn filter_one_instrumented(
    eid: Eid,
    list: &ScenarioList,
    video: &VideoStore,
    config: &VFilterConfig,
    excluded: &BTreeSet<Vid>,
    cache: &mut GalleryCache,
    tel: &Telemetry,
) -> MatchOutcome {
    // Anytime delegation: an approximate configuration routes the whole
    // EID through the bounded scorer. A non-approximate one (confidence
    // ≥ 1.0, no budget) falls through to the exhaustive scan below, so
    // `--confidence 1.0` is *exactly* the exact path.
    if let Some(at) = config.anytime {
        if at.approximate() {
            return crate::anytime::partial_filter_one_instrumented(
                eid, list, video, config, excluded, cache, tel,
            )
            .outcome;
        }
    }
    let (entries, representatives) = candidate_model(list, video, excluded, cache);
    if entries.is_empty() {
        // Nothing recorded / no footage for the whole list: there are
        // zero votes to take a majority over, so this is the explicit
        // NoEvidence shape (all-zero fields, never `count / 0 = NaN`).
        return MatchOutcome::no_evidence(eid);
    }
    if representatives.is_empty() {
        // Footage existed but every candidate was excluded or
        // quorum-pruned — still zero votes, same NoEvidence contract.
        return MatchOutcome::no_evidence(eid);
    }
    if tel.counters_on() {
        tel.registry()
            .counter(names::VFILTER_CANDIDATES_SCORED)
            .add(representatives.len() as u64);
    }
    // Per-scenario scoring latency is profiling-only: the clock reads
    // would dominate the membership computation at the counters level.
    let scoring_hist = tel
        .tracing_on()
        .then(|| tel.registry().histogram(names::VFILTER_SCORING_NS));

    // Joint membership probability per candidate (paper §IV-B2), in log
    // space: `Σ ln P` survives the long lists that underflow `Π P` to a
    // meaningless all-zero tie. `ln(0) = -inf` keeps the veto semantics
    // of an impossible scenario.
    let mut log_joint: BTreeMap<Vid, f64> = BTreeMap::new();
    for (&vid, rep) in &representatives {
        let mut lp = 0.0;
        for e in &entries {
            // One charged comparison per (candidate, scenario): matching
            // a candidate's appearance model against a scenario's gallery
            // is one nearest-neighbour query in a real pipeline.
            video.charge_comparison();
            let scoring_start = scoring_hist.as_ref().map(|_| Instant::now());
            lp += score_membership(rep, e, config.metric, tel).ln();
            if let (Some(hist), Some(start)) = (&scoring_hist, scoring_start) {
                hist.record(start.elapsed().as_nanos() as u64);
            }
        }
        log_joint.insert(vid, lp);
    }

    // Per-scenario choice: the present candidate with the largest joint
    // probability, ties resolved by the canonical [`beats`] rule (lower
    // VID) — the same rule the majority vote below uses.
    let mut votes: Vec<Vid> = Vec::new();
    for e in &entries {
        let choice = scenario_vote(
            e.scenario
                .vids()
                .filter(|v| representatives.contains_key(v)),
            |v| log_joint[&v],
        );
        if let Some(v) = choice {
            votes.push(v);
        }
    }
    if votes.is_empty() {
        return MatchOutcome::no_evidence(eid);
    }

    // Majority of the per-scenario choices, under the same tie-break.
    let mut counts: BTreeMap<Vid, usize> = BTreeMap::new();
    for &v in &votes {
        *counts.entry(v).or_insert(0) += 1;
    }
    // No winner means no votes at all — an empty-gallery/no-candidate
    // edge that must flow to the explicit NoEvidence outcome instead of
    // aborting the pipeline (the guard above makes this unreachable
    // today, but the edge belongs to the outcome domain, not a panic).
    let Some((winner, count)) = majority_winner(&counts) else {
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
    // `votes` is non-empty here (guarded above), so the share can never
    // be the `0 / 0 = NaN` that an empty list would produce.
    let vote_share = count as f64 / votes.len() as f64;
    debug_assert!(!vote_share.is_nan());
    MatchOutcome {
        eid,
        vid: Some(winner),
        vote_share,
        confidence,
        margin,
        votes,
    }
}

/// Filters VIDs for every EID in `lists`, longest list first, excluding
/// majority-matched VIDs from subsequent candidacies when
/// [`VFilterConfig::exclusion`] is on. Outcomes are returned in EID
/// order. One [`GalleryCache`] is shared across the whole batch; pass
/// your own through [`filter_vids_cached`] to read its hit counters.
#[must_use]
pub fn filter_vids(
    lists: &BTreeMap<Eid, ScenarioList>,
    video: &VideoStore,
    config: &VFilterConfig,
) -> Vec<MatchOutcome> {
    filter_vids_cached(lists, video, config, &mut GalleryCache::new())
}

/// [`filter_vids`] against a caller-owned [`GalleryCache`].
#[must_use]
pub fn filter_vids_cached(
    lists: &BTreeMap<Eid, ScenarioList>,
    video: &VideoStore,
    config: &VFilterConfig,
    cache: &mut GalleryCache,
) -> Vec<MatchOutcome> {
    filter_vids_instrumented(lists, video, config, cache, Telemetry::disabled())
}

/// [`filter_vids_cached`] with telemetry: records the batch's gallery
/// hit/miss deltas, the run-wide hit ratio and a stage span. With a
/// disabled handle this is exactly `filter_vids_cached`.
#[must_use]
pub fn filter_vids_instrumented(
    lists: &BTreeMap<Eid, ScenarioList>,
    video: &VideoStore,
    config: &VFilterConfig,
    cache: &mut GalleryCache,
    tel: &Telemetry,
) -> Vec<MatchOutcome> {
    let mut stage_span = tel.span("vfilter", "stage");
    let (hits_before, misses_before) = (cache.hits(), cache.misses());
    let mut order: Vec<(&Eid, &ScenarioList)> = lists.iter().collect();
    order.sort_by_key(|(eid, list)| (std::cmp::Reverse(list.len()), **eid));

    let mut excluded: BTreeSet<Vid> = BTreeSet::new();
    let mut outcomes: Vec<MatchOutcome> = Vec::with_capacity(lists.len());
    for (&eid, list) in order {
        let outcome = filter_one_instrumented(eid, list, video, config, &excluded, cache, tel);
        if config.exclusion && outcome.is_majority() {
            if let Some(vid) = outcome.vid {
                excluded.insert(vid);
            }
        }
        outcomes.push(outcome);
    }
    outcomes.sort_by_key(|o| o.eid);
    if tel.counters_on() {
        let registry = tel.registry();
        registry
            .counter(names::VFILTER_GALLERY_HITS)
            .add(cache.hits() - hits_before);
        registry
            .counter(names::VFILTER_GALLERY_MISSES)
            .add(cache.misses() - misses_before);
        let hits = registry
            .counter_value(names::VFILTER_GALLERY_HITS)
            .unwrap_or(0);
        let total = hits
            + registry
                .counter_value(names::VFILTER_GALLERY_MISSES)
                .unwrap_or(0);
        if total > 0 {
            registry
                .gauge(names::VFILTER_GALLERY_HIT_RATIO)
                .set(hits as f64 / total as f64);
        }
    }
    stage_span.arg("eids", serde::Value::Int(lists.len() as i128));
    drop(stage_span);
    outcomes
}

/// The pre-cache [`filter_vids`]: a fresh gallery per EID, so every list
/// entry re-extracts and regroups. Kept as the reference for the
/// cache-equivalence tests and the V-stage benchmark.
#[must_use]
pub fn filter_vids_uncached(
    lists: &BTreeMap<Eid, ScenarioList>,
    video: &VideoStore,
    config: &VFilterConfig,
) -> Vec<MatchOutcome> {
    let mut order: Vec<(&Eid, &ScenarioList)> = lists.iter().collect();
    order.sort_by_key(|(eid, list)| (std::cmp::Reverse(list.len()), **eid));

    let mut excluded: BTreeSet<Vid> = BTreeSet::new();
    let mut outcomes: Vec<MatchOutcome> = Vec::with_capacity(lists.len());
    for (&eid, list) in order {
        let outcome = filter_one(eid, list, video, config, &excluded);
        if config.exclusion && outcome.is_majority() {
            if let Some(vid) = outcome.vid {
                excluded.insert(vid);
            }
        }
        outcomes.push(outcome);
    }
    outcomes.sort_by_key(|o| o.eid);
    outcomes
}

/// Component-wise mean of a non-empty set of observations.
fn mean_feature(observations: &[&FeatureVector]) -> FeatureVector {
    let dim = observations[0].dim();
    let mut sums = vec![0.0; dim];
    let mut n: f64 = 0.0;
    for obs in observations {
        if obs.dim() != dim {
            continue; // ignore malformed observations
        }
        for (s, &c) in sums.iter_mut().zip(obs.components()) {
            *s += c;
        }
        n += 1.0;
    }
    FeatureVector::from_clamped(sums.into_iter().map(|s| s / n.max(1.0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_core::region::CellId;
    use ev_core::scenario::{Detection, ScenarioId};
    use ev_core::time::Timestamp;
    use ev_vision::cost::CostModel;

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
        let out = filter_one(
            Eid::from_u64(7),
            &list,
            &video,
            &VFilterConfig::default(),
            &BTreeSet::new(),
        );
        assert_eq!(out.vid, Some(Vid::new(1)));
        assert!(out.is_majority());
        assert_eq!(out.votes.len(), 3);
        assert!(out.vote_share >= 0.99);
        assert!(out.confidence > 0.8);
    }

    #[test]
    fn empty_list_is_unmatched() {
        let video = video();
        let out = filter_one(
            Eid::from_u64(7),
            &vec![],
            &video,
            &VFilterConfig::default(),
            &BTreeSet::new(),
        );
        assert!(out.vid.is_none());
    }

    #[test]
    fn unknown_scenarios_are_skipped() {
        let video = video();
        let out = filter_one(
            Eid::from_u64(7),
            &vec![sid(9, 9), sid(0, 0)],
            &video,
            &VFilterConfig::default(),
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
        let out = filter_one(
            Eid::from_u64(7),
            &list,
            &video,
            &VFilterConfig::default(),
            &excluded,
        );
        assert_eq!(out.vid, Some(Vid::new(2)), "VID 1 is spoken for");
        // Excluding everyone leaves no candidates.
        excluded.insert(Vid::new(2));
        let out = filter_one(
            Eid::from_u64(7),
            &list,
            &video,
            &VFilterConfig::default(),
            &excluded,
        );
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
        let outcomes = filter_vids(&lists, &video, &VFilterConfig::default());
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].eid, Eid::from_u64(10), "sorted by EID");
        assert_eq!(outcomes[0].vid, Some(Vid::new(1)));
        assert_eq!(outcomes[1].vid, Some(Vid::new(2)));
    }

    #[test]
    fn without_exclusion_both_take_the_best_vid() {
        let video = video();
        let mut lists = BTreeMap::new();
        lists.insert(Eid::from_u64(10), vec![sid(0, 0), sid(1, 1), sid(2, 2)]);
        lists.insert(Eid::from_u64(20), vec![sid(0, 0)]);
        let cfg = VFilterConfig {
            exclusion: false,
            ..VFilterConfig::default()
        };
        let outcomes = filter_vids(&lists, &video, &cfg);
        assert_eq!(outcomes[0].vid, Some(Vid::new(1)));
        assert_eq!(outcomes[1].vid, Some(Vid::new(1)), "conflict allowed");
    }

    #[test]
    fn majority_vote_tolerates_one_bad_scenario() {
        // VID 1 appears in scenarios 0-2; scenario 3 lacks it entirely
        // (missing VID). The majority still picks VID 1.
        let video = video();
        let list = vec![sid(0, 0), sid(1, 1), sid(2, 2), sid(3, 3)];
        let out = filter_one(
            Eid::from_u64(7),
            &list,
            &video,
            &VFilterConfig::default(),
            &BTreeSet::new(),
        );
        assert_eq!(out.vid, Some(Vid::new(1)));
        assert!(out.vote_share >= 0.75, "3 of 4 scenarios vote for VID 1");
    }

    #[test]
    fn comparisons_are_charged_to_the_ledger() {
        let video = VideoStore::new(
            vec![vscenario(0, 0, &[(1, &[0.9, 0.9]), (2, &[0.1, 0.1])])],
            CostModel {
                e_record: 0,
                v_extraction: 3,
                v_comparison: 5,
            },
        );
        let _ = filter_one(
            Eid::from_u64(1),
            &vec![sid(0, 0)],
            &video,
            &VFilterConfig::default(),
            &BTreeSet::new(),
        );
        // Extraction: 2 detections x 3 units; comparisons: 2 candidates x
        // 1 scenario x 5 units.
        assert_eq!(video.ledger().v_units(), 6 + 10);
    }

    #[test]
    fn zero_recorded_scenarios_yield_no_evidence_not_nan() {
        // Regression: an EID whose whole list has no footage used to be
        // one `count / votes.len()` away from a NaN vote share. It must
        // come back as the explicit NoEvidence shape with finite fields.
        let video = video();
        for list in [vec![], vec![sid(9, 9), sid(8, 8)]] {
            let out = filter_one(
                Eid::from_u64(7),
                &list,
                &video,
                &VFilterConfig::default(),
                &BTreeSet::new(),
            );
            assert!(out.is_no_evidence());
            assert!(!out.vote_share.is_nan());
            assert_eq!(out.vote_share, 0.0);
            assert!(!out.is_majority(), "NoEvidence can never be a majority");
        }
        // Excluding every candidate is also zero votes, not NaN.
        let excluded: BTreeSet<Vid> = [Vid::new(1), Vid::new(2)].into_iter().collect();
        let out = filter_one(
            Eid::from_u64(7),
            &vec![sid(0, 0)],
            &video,
            &VFilterConfig::default(),
            &excluded,
        );
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

        // Per-scenario argmax: two candidates at exactly the same score.
        let vote = scenario_vote([Vid::new(9), Vid::new(4), Vid::new(6)], |_| 0.25);
        assert_eq!(vote, Some(Vid::new(4)));
        // Duplicates (one VID detected twice) change nothing.
        let vote = scenario_vote([Vid::new(9), Vid::new(4), Vid::new(4)], |_| 0.25);
        assert_eq!(vote, Some(Vid::new(4)));

        // Majority vote: equal counts resolve to the lower VID too.
        let counts: BTreeMap<Vid, usize> = [(Vid::new(8), 2), (Vid::new(2), 2), (Vid::new(5), 1)]
            .into_iter()
            .collect();
        assert_eq!(majority_winner(&counts), Some((Vid::new(2), 2)));
    }

    #[test]
    fn tied_galleries_vote_identically_end_to_end() {
        // Two identical-feature candidates: every per-scenario score
        // ties, so the whole pipeline must settle on the lower VID —
        // deterministically, whichever path (sequential/DAG/anytime)
        // scored it.
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
            &VFilterConfig::default(),
            &BTreeSet::new(),
        );
        assert_eq!(out.vid, Some(Vid::new(4)), "lower VID wins the tie");
        assert_eq!(out.votes, vec![Vid::new(4), Vid::new(4)]);
        assert!((out.vote_share - 1.0).abs() < 1e-12);
    }

    /// The production scorer against the scalar reference: same bits on
    /// random galleries under every metric, and `0.0` wherever the
    /// reference errors or has nothing to scan.
    #[test]
    fn score_membership_is_bitwise_the_scalar_reference() {
        use rand::{Rng, SeedableRng};
        let entry = |s: VScenario| CacheEntry::new(Arc::new(s), BTreeMap::new());
        let check = |rep: &FeatureVector, e: &CacheEntry, metric: Metric| {
            let got = score_membership(rep, e, metric, Telemetry::disabled());
            let want =
                ev_vision::reid::membership_probability(rep, &e.scenario, metric).unwrap_or(0.0);
            assert_eq!(got.to_bits(), want.to_bits(), "{metric:?}: {got} vs {want}");
            got
        };
        let metrics = [Metric::NormalizedL2, Metric::NormalizedL1, Metric::Cosine];

        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x5C0E);
        for _ in 0..60 {
            // Up to 20 rows: galleries on both sides of the 8-row lane.
            let (dim, rows) = (rng.gen_range(1..40usize), rng.gen_range(1..21u64));
            let mut random = || -> Vec<f64> { (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect() };
            let people: Vec<(u64, Vec<f64>)> = (0..rows).map(|v| (v, random())).collect();
            let rep = fv(&random());
            let people: Vec<(u64, &[f64])> = people.iter().map(|(v, f)| (*v, &f[..])).collect();
            let e = entry(vscenario(0, 0, &people));
            for metric in metrics {
                assert!(check(&rep, &e, metric) > 0.0);
            }
        }

        let rep = fv(&[0.9, 0.9]);
        let mixed = entry(vscenario(0, 1, &[(1, &[0.9, 0.9]), (2, &[0.1, 0.1, 0.7])]));
        let other_dim = entry(vscenario(0, 2, &[(1, &[0.9, 0.9, 0.9])]));
        let empty = entry(vscenario(0, 3, &[]));
        for metric in metrics {
            assert_eq!(check(&rep, &mixed, metric), 0.0, "stray row dimension");
            assert_eq!(check(&rep, &other_dim, metric), 0.0, "candidate dimension");
            assert_eq!(check(&rep, &empty, metric), 0.0, "empty gallery");
        }
    }

    /// Scenarios that exist but hold zero detections cast zero votes:
    /// the explicit NoEvidence outcome, exact scan and anytime alike.
    #[test]
    fn empty_galleries_flow_to_no_evidence() {
        let video = VideoStore::new(
            vec![vscenario(0, 0, &[]), vscenario(1, 1, &[])],
            CostModel::free(),
        );
        let list = vec![sid(0, 0), sid(1, 1)];
        for anytime in [
            None,
            Some(crate::anytime::AnytimeConfig::with_confidence(0.5)),
        ] {
            let config = VFilterConfig {
                anytime,
                ..VFilterConfig::default()
            };
            let out = filter_one(Eid::from_u64(9), &list, &video, &config, &BTreeSet::new());
            assert!(out.is_no_evidence(), "{anytime:?}: {out:?}");
            assert!(!out.vote_share.is_nan());
        }
    }

    #[test]
    fn mean_feature_averages_components() {
        let a = fv(&[0.2, 0.4]);
        let b = fv(&[0.4, 0.8]);
        let m = mean_feature(&[&a, &b]);
        assert!((m.components()[0] - 0.3).abs() < 1e-12);
        assert!((m.components()[1] - 0.6).abs() < 1e-12);
    }
}
