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
//! # One context, one body per job
//!
//! Every caller — the refinement loop, the stage DAG, EDP, the
//! single-EID query — builds a [`VStage`] literal (footage,
//! configuration, gallery cache, telemetry handle) and calls one of its
//! three methods. Both scorers, the exact scan here and the bounded one
//! in [`crate::anytime`], read one dense candidate model (candidates
//! are ordinals into a VID-ascending vector, so every fold visits them
//! in VID order) and materialise their result through the one tally.
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
//! grouped by VID. A batch shares one cache across all its EIDs —
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
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

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
    /// configuration routes every [`VStage::filter_one`] through
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

/// One scenario's extracted gallery: the V-Scenario handle plus its
/// detection indices grouped by VID (sorted distinct `vids`, CSR
/// `starts`/`rows`), each group in detection order. Concatenating a
/// list's groups in list order reproduces exactly the observation
/// sequence a direct detection walk would produce, so representatives
/// computed through the cache are bit-identical to uncached ones.
pub(crate) struct CacheEntry {
    pub(crate) scenario: Arc<VScenario>,
    /// The distinct VIDs detected in the scenario, ascending.
    pub(crate) vids: Vec<Vid>,
    /// `rows[starts[g]..starts[g + 1]]` are group `g`'s detections.
    starts: Vec<usize>,
    rows: Vec<usize>,
    /// Per-scenario feature bounding box behind the anytime upper bound
    /// (see [`crate::anytime`]). A property of the gallery alone — no
    /// EID or representative enters it — so it is computed at most once
    /// per scenario and shared by every EID that revisits the entry.
    bbox: std::cell::OnceCell<Option<crate::anytime::EntryBox>>,
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
    pub(crate) fn new(scenario: Arc<VScenario>) -> Self {
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
        CacheEntry {
            scenario,
            vids,
            starts,
            rows,
            bbox: std::cell::OnceCell::new(),
            block: std::cell::OnceCell::new(),
        }
    }

    /// The detection indices of `vids[group]`, in detection order
    /// (never empty).
    pub(crate) fn group(&self, group: usize) -> &[usize] {
        &self.rows[self.starts[group]..self.starts[group + 1]]
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
            let block = FeatureBlock::build(&gallery, features).ok();
            if tel.counters_on() {
                let name = match block {
                    Some(_) => names::KERNEL_BLOCKS_BUILT,
                    None => names::KERNEL_GALLERIES_REJECTED,
                };
                tel.registry().counter(name).add(1);
            }
            block
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
/// ledger exactly as an uncached extraction does; hits touch no footage.
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
    fn ensure(&mut self, id: ScenarioId, video: &VideoStore) {
        if self.entries.contains_key(&id) {
            self.hits += 1;
            return;
        }
        self.misses += 1;
        self.entries
            .insert(id, video.extract(id).map(CacheEntry::new));
    }

    fn get(&self, id: ScenarioId) -> Option<&CacheEntry> {
        self.entries.get(&id).and_then(Option::as_ref)
    }
}

/// The candidate model of one EID's scenario list — the **shared front
/// half** of the exact and the [`crate::anytime`] scorers. Candidate
/// admission (exclusion, quorum pruning) and representative computation
/// happen here, once, so the two scorers can never disagree about who
/// is even in the running.
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

pub(crate) fn candidate_model<'a>(
    list: &ScenarioList,
    video: &VideoStore,
    excluded: &BTreeSet<Vid>,
    cache: &'a mut GalleryCache,
) -> CandidateModel<'a> {
    for &id in list {
        cache.ensure(id, video);
    }
    let cache: &'a GalleryCache = cache;
    let entries: Vec<&CacheEntry> = list.iter().filter_map(|&id| cache.get(id)).collect();

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
    // them (re-identification links the detections). The first
    // observation fixes the dimension; malformed ones are ignored.
    let mut sums: Vec<Vec<f64>> = vec![Vec::new(); vids.len()];
    let mut n = vec![0.0f64; vids.len()];
    for (e, pairs) in entries.iter().zip(&present) {
        let detections = e.scenario.detections();
        for &(c, group) in pairs {
            for &row in e.group(group) {
                let feature = &detections[row].feature;
                if n[c] == 0.0 {
                    sums[c].resize(feature.dim(), 0.0);
                } else if feature.dim() != sums[c].len() {
                    continue;
                }
                for (s, &x) in sums[c].iter_mut().zip(feature.components()) {
                    *s += x;
                }
                n[c] += 1.0;
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

/// The **one tally**: per-scenario choice (the present candidate with
/// the largest joint probability), majority of those choices, and the
/// winner's confidence, margin and vote share — every argmax under the
/// canonical [`beats`] rule. The exact scan and the anytime scorer's
/// exhaustion branch both materialise their outcome here, from exact
/// per-candidate log-joints.
pub(crate) fn tally(eid: Eid, model: &CandidateModel<'_>, log_joint: &[f64]) -> MatchOutcome {
    let mut votes: Vec<Vid> = Vec::new();
    let mut counts = vec![0usize; model.vids.len()];
    for pairs in &model.present {
        let present = pairs.iter().map(|&(c, _)| c);
        if let Some(c) = argmax(&model.vids, present, |c| log_joint[c]) {
            votes.push(model.vids[c]);
            counts[c] += 1;
        }
    }
    // No winner means no votes at all — an empty-gallery/no-candidate
    // edge that flows to the explicit NoEvidence outcome (all-zero
    // fields, never `count / 0 = NaN`) instead of aborting the pipeline.
    let Some(winner) = majority_winner(&model.vids, &counts) else {
        return MatchOutcome::no_evidence(eid);
    };
    let confidence = log_joint[winner].exp();
    let margin = if log_joint.len() > 1 {
        let runner_up = (0..log_joint.len())
            .filter(|&c| c != winner)
            .map(|c| log_joint[c])
            .fold(f64::NEG_INFINITY, f64::max);
        confidence - runner_up.exp()
    } else {
        1.0
    };
    MatchOutcome {
        eid,
        vid: Some(model.vids[winner]),
        vote_share: counts[winner] as f64 / votes.len() as f64,
        confidence,
        margin,
        votes,
    }
}

/// The V stage's context: the footage, the configuration, the gallery
/// cache and the run's telemetry handle. Built as a literal — a caller
/// that keeps neither a cache nor a profile writes
/// `&mut GalleryCache::new()` and [`Telemetry::disabled()`].
pub struct VStage<'a> {
    /// The footage scenario lists point into.
    pub video: &'a VideoStore,
    /// VID filtering settings.
    pub config: &'a VFilterConfig,
    /// Extracted galleries; share one across the EIDs of a batch.
    pub cache: &'a mut GalleryCache,
    /// Where the stage counts and traces.
    pub telemetry: &'a Telemetry,
}

impl VStage<'_> {
    /// Filters the VID for a single EID against its scenario list,
    /// treating `excluded` VIDs as already matched to someone else.
    ///
    /// An approximate [`VFilterConfig::anytime`] routes the whole EID
    /// through [`filter_partial`](Self::filter_partial). A
    /// non-approximate one (confidence ≥ 1.0, no budget) runs the
    /// exhaustive scan, so `--confidence 1.0` is *exactly* the exact
    /// path.
    #[must_use]
    pub fn filter_one(
        &mut self,
        eid: Eid,
        list: &ScenarioList,
        excluded: &BTreeSet<Vid>,
    ) -> MatchOutcome {
        if self.config.anytime.is_some_and(|at| at.approximate()) {
            return self.filter_partial(eid, list, excluded).outcome;
        }
        let (video, tel) = (self.video, self.telemetry);
        let model = candidate_model(list, video, excluded, self.cache);
        if model.vids.is_empty() {
            // No footage for the whole list, or every candidate was
            // excluded or quorum-pruned: zero votes to take a majority
            // over.
            return MatchOutcome::no_evidence(eid);
        }
        if tel.counters_on() {
            tel.registry()
                .counter(names::VFILTER_CANDIDATES_SCORED)
                .add(model.vids.len() as u64);
        }
        // Joint membership probability per candidate (paper §IV-B2), in
        // log space: `Σ ln P` survives the long lists that underflow
        // `Π P` to a meaningless all-zero tie. `ln(0) = -inf` keeps the
        // veto semantics of an impossible scenario.
        let log_joint: Vec<f64> = model
            .reps
            .iter()
            .map(|rep| {
                let mut lp = 0.0;
                for e in &model.entries {
                    // One charged comparison per (candidate, scenario):
                    // matching a candidate's appearance model against a
                    // scenario's gallery is one nearest-neighbour query
                    // in a real pipeline.
                    video.charge_comparison();
                    lp += score_membership(rep, e, self.config.metric, tel).ln();
                }
                lp
            })
            .collect();
        tally(eid, &model, &log_joint)
    }

    /// Filters VIDs for every EID in `lists`, longest list first (ties
    /// by EID). With [`VFilterConfig::exclusion`] on, the VID of every
    /// outcome `locks` accepts joins `excluded` and is ruled out of the
    /// candidacies that follow. Outcomes come back in processing order.
    ///
    /// This is the V stage's one exclusion loop, so it also owns the
    /// `vfilter` stage span.
    #[must_use]
    pub fn filter_longest_first(
        &mut self,
        lists: &BTreeMap<Eid, ScenarioList>,
        excluded: &mut BTreeSet<Vid>,
        locks: impl Fn(&MatchOutcome) -> bool,
    ) -> Vec<MatchOutcome> {
        let mut stage_span = self.telemetry.span("vfilter", "stage");
        stage_span.arg("eids", serde::Value::Int(lists.len() as i128));
        let mut order: Vec<(&Eid, &ScenarioList)> = lists.iter().collect();
        order.sort_by_key(|(eid, list)| (std::cmp::Reverse(list.len()), **eid));

        let mut outcomes: Vec<MatchOutcome> = Vec::with_capacity(lists.len());
        for (&eid, list) in order {
            let outcome = self.filter_one(eid, list, excluded);
            if self.config.exclusion && locks(&outcome) {
                excluded.extend(outcome.vid);
            }
            outcomes.push(outcome);
        }
        outcomes
    }
}

/// VID filtering over a whole split, as the benchmark harness times it:
/// [`VStage::filter_longest_first`] locking in every majority match,
/// against a caller-owned [`GalleryCache`] (read its hit counters
/// afterwards), outcomes in EID order.
#[must_use]
pub fn filter_vids_cached(
    lists: &BTreeMap<Eid, ScenarioList>,
    video: &VideoStore,
    config: &VFilterConfig,
    cache: &mut GalleryCache,
) -> Vec<MatchOutcome> {
    let mut stage = VStage {
        video,
        config,
        cache,
        telemetry: Telemetry::disabled(),
    };
    let mut outcomes =
        stage.filter_longest_first(lists, &mut BTreeSet::new(), MatchOutcome::is_majority);
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
    use ev_vision::cost::CostModel;
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
        config: &VFilterConfig,
        excluded: &BTreeSet<Vid>,
    ) -> MatchOutcome {
        VStage {
            video,
            config,
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
        let outcomes = filter_vids_cached(&lists, &video, &cfg, &mut GalleryCache::new());
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
        let entry = |s: VScenario| CacheEntry::new(Arc::new(s));
        let check = |rep: &FeatureVector, e: &CacheEntry, metric: Metric| {
            let got = score_membership(rep, e, metric, Telemetry::disabled());
            let want =
                ev_vision::reid::membership_probability(rep, &e.scenario, metric).unwrap_or(0.0);
            assert_eq!(got.to_bits(), want.to_bits(), "{metric:?}: {got} vs {want}");
            got
        };
        let metrics = [Metric::NormalizedL2, Metric::NormalizedL1, Metric::Cosine];

        let mut rng = ChaCha8Rng::seed_from_u64(0x5C0E);
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
        let model = candidate_model(&list, &video, &BTreeSet::new(), &mut cache);
        assert_eq!(model.vids, vec![Vid::new(1)]);
        let m = model.reps[0].components();
        assert!((m[0] - 0.3).abs() < 1e-12);
        assert!((m[1] - 0.6).abs() < 1e-12);
    }

    /// The candidate model as it stood before the dense one — per-EID
    /// maps keyed by VID — kept as the differential reference. It shares
    /// only the gallery cache's extraction with production.
    fn reference_model<'a>(
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
        let groups: Vec<BTreeMap<Vid, Vec<usize>>> = entries
            .iter()
            .map(|e| {
                let mut groups: BTreeMap<Vid, Vec<usize>> = BTreeMap::new();
                for (i, d) in e.scenario.detections().iter().enumerate() {
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
        for (e, g) in entries.iter().zip(&groups) {
            let detections = e.scenario.detections();
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
        config: &VFilterConfig,
        excluded: &BTreeSet<Vid>,
        cache: &mut GalleryCache,
        tel: &Telemetry,
    ) -> MatchOutcome {
        let (entries, representatives) = reference_model(list, video, excluded, cache);
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
            for e in &entries {
                video.charge_comparison();
                lp += score_membership(rep, e, config.metric, tel).ln();
            }
            log_joint.insert(vid, lp);
        }
        let mut votes: Vec<Vid> = Vec::new();
        for e in &entries {
            let mut best: Option<(f64, Vid)> = None;
            for vid in e.scenario.vids().filter(|v| log_joint.contains_key(v)) {
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The dense candidate model and the one tally against the
        /// map-keyed reference: the whole `MatchOutcome` (floats by
        /// bits, `votes` included), the cost ledger and the V-stage
        /// counters agree — over lists of even and odd footage-bearing
        /// length (the quorum edge), ids with no footage, every edge
        /// `adversarial_scenarios` builds, empty and total exclusion,
        /// and all three metrics; two lists share each side's cache.
        #[test]
        fn filter_one_is_bitwise_the_map_keyed_reference(
            world_seed in 0u64..1_000_000,
            metric in 0usize..3,
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
            let config = VFilterConfig {
                metric: [Metric::NormalizedL2, Metric::NormalizedL1, Metric::Cosine][metric],
                ..VFilterConfig::default()
            };
            let cost = CostModel { e_record: 0, v_extraction: 3, v_comparison: 5 };
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
                let model = candidate_model(list, &model_video, &excluded, &mut c);
                let (_, representatives) = reference_model(list, &model_video, &excluded, &mut rc);
                prop_assert_eq!(
                    model.vids.iter().copied().zip(model.reps.iter().map(bits)).collect::<Vec<_>>(),
                    representatives.iter().map(|(&v, r)| (v, bits(r))).collect::<Vec<_>>()
                );
                let got = VStage { video: &video, config: &config, cache: &mut cache, telemetry: &tel }
                    .filter_one(eid, list, &excluded);
                let want = reference_filter_one(
                    eid, list, &ref_video, &config, &excluded, &mut ref_cache, &ref_tel,
                );
                prop_assert_eq!((got.eid, got.vid, &got.votes), (want.eid, want.vid, &want.votes));
                prop_assert_eq!(got.vote_share.to_bits(), want.vote_share.to_bits());
                prop_assert_eq!(got.confidence.to_bits(), want.confidence.to_bits());
                prop_assert_eq!(got.margin.to_bits(), want.margin.to_bits());
            }
            prop_assert_eq!(video.ledger().v_units(), ref_video.ledger().v_units());
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
    }
}
