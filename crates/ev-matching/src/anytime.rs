//! Anytime VID filtering: the majority vote of [`crate::vfilter`] with
//! certified early termination (ROADMAP item 2).
//!
//! The exact V stage scores every `(candidate, scenario)` pair before
//! voting, yet the vote usually converges long before the scan ends.
//! This module stops early **without changing the answer it certifies**:
//!
//! 1. **Early termination of the majority vote.** Per-scenario votes are
//!    *settled* one by one; once the leading VID's settled-vote margin
//!    exceeds the number of still-unsettled scenarios, no remaining
//!    outcome can overturn it and the scan stops (`converged = true`
//!    means the reported VID provably equals the full-scan VID).
//! 2. **Similarity-bound pruning inside the per-scenario argmax.** For
//!    every pair a cheap `O(dim)` interval `[lb, ub]` brackets the exact
//!    membership probability: `lb` is the similarity to one sampled
//!    detection (the max over detections is at least any one of them),
//!    `ub` comes from the per-scenario bounding box of all detection
//!    features (under the `NormalizedL2`/`NormalizedL1` metrics the
//!    distance to the box lower-bounds the distance to every detection;
//!    `Cosine` falls back to the trivial bound `1`). A candidate whose
//!    upper bound cannot beat a rival's lower bound is *pruned*: it is
//!    never scored exactly.
//! 3. **Bounds for the caller.** A [`PartialMatchOutcome`] carries a
//!    vote-share interval that brackets the exact winner's share at any
//!    stopping point and tightens monotonically as scenarios settle.
//!
//! # Soundness invariants
//!
//! * Interval soundness: `lb ≤ P(VID ∈ S) ≤ ub`, maintained under IEEE
//!   rounding because every operation in the bound computation is the
//!   monotone image of the corresponding operation in
//!   [`FeatureVector::distance`].
//! * A scenario's vote settles for `v` only when `v`'s joint lower bound
//!   beats every present rival's joint upper bound under the canonical
//!   tie-break of `vfilter` (higher score wins, exact ties go to the
//!   lower VID) — so a settled vote equals the exact vote.
//! * `converged == true` only when the settled margin rules out every
//!   rival, so the reported VID equals the exhaustive scan's VID.
//! * `vote_share_low = a_w / m` and `vote_share_high = (a_w + u) / m`
//!   (settled votes for the leader `a_w`, unsettled scenarios `u`,
//!   votable scenarios `m`) bracket the exact winner's share even while
//!   the leader is still provisional.
//!
//! Work that is skipped is also not charged: the cost ledger sees one
//! comparison per *exactly scored* pair, so the paper's V-cost metric
//! reflects the savings. The cheap bounds ride on extraction (they touch
//! only already-extracted galleries) and are deliberately left off the
//! ledger.
//!
//! `--confidence 1.0` with no budget is **not** approximate:
//! [`VStage::filter_one`] runs the exhaustive scan for it, so the exact
//! path stays byte-identical at every thread count.
//!
//! The scorer lives here as [`VStage::filter_partial`]. It reads the
//! candidate model the exact scan reads (`vfilter::candidate_model`:
//! who is in the running, their representatives, who is present where)
//! and, when refinement runs to exhaustion, materialises its outcome
//! through the exact scan's tally (`vfilter::tally`).

use crate::types::{MatchOutcome, ScenarioList};
use crate::vfilter::{self, CacheEntry, VStage};
use ev_core::feature::{FeatureVector, Metric};
use ev_core::ids::{Eid, Vid};
use ev_telemetry::names;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Knobs of the anytime scorer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnytimeConfig {
    /// Target certainty in `[0, 1]` that the reported VID is the exact
    /// winner. The scan stops once its certainty reaches this value.
    /// Certainty is `1.0` exactly when the vote has **converged** (no
    /// unsettled scenario can overturn the leader), so any
    /// `confidence > 0.5` guarantees a converged — provably exact —
    /// VID; values `≤ 0.5` allow stopping earlier with only the
    /// interval guarantee. `1.0` (the default) disables approximation
    /// entirely unless a budget is set.
    pub confidence: f64,
    /// Cap on how many scenarios of the list (prefix, in list order)
    /// may receive *exact* scoring work. Scenarios past the budget
    /// still contribute their cheap bounds. `None` = unlimited.
    pub budget_scenarios: Option<usize>,
}

impl Default for AnytimeConfig {
    fn default() -> Self {
        AnytimeConfig {
            confidence: 1.0,
            budget_scenarios: None,
        }
    }
}

impl AnytimeConfig {
    /// A configuration targeting the given certainty, unlimited budget.
    #[must_use]
    pub fn with_confidence(confidence: f64) -> Self {
        AnytimeConfig {
            confidence,
            budget_scenarios: None,
        }
    }

    /// Caps exact scoring to the first `n` scenarios of each list.
    #[must_use]
    pub fn budget(mut self, n: usize) -> Self {
        self.budget_scenarios = Some(n);
        self
    }

    /// Whether this configuration actually approximates. A
    /// non-approximate configuration (`confidence ≥ 1.0`, no budget)
    /// must run the exhaustive scan so results stay byte-identical to
    /// the exact path.
    #[must_use]
    pub fn approximate(&self) -> bool {
        self.confidence < 1.0 || self.budget_scenarios.is_some()
    }
}

/// The anytime result for one EID: the (possibly provisional) winner,
/// a certified vote-share interval, and how much evidence backs it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartialMatchOutcome {
    /// The EID being matched.
    pub eid: Eid,
    /// Current vote leader (`None` when nothing has settled yet).
    /// Provably equal to the exhaustive scan's winner iff
    /// [`converged`](Self::converged).
    pub vid: Option<Vid>,
    /// Lower bound on the exact winner's vote share (`a_w / m`).
    pub vote_share_low: f64,
    /// Upper bound on the exact winner's vote share (`(a_w + u) / m`).
    pub vote_share_high: f64,
    /// Scenarios whose vote is settled (proven equal to the exact
    /// vote), out of [`scenarios_total`](Self::scenarios_total).
    pub scenarios_scored: usize,
    /// Scenarios that can vote at all (non-empty candidate presence) —
    /// the denominator of both share bounds.
    pub scenarios_total: usize,
    /// Whether the winner can no longer be overturned by the unsettled
    /// remainder. Implies `vid` equals the full-scan VID.
    pub converged: bool,
    /// Refinement rounds run before the stop rule fired (`0` = settled
    /// on cheap bounds alone).
    pub rounds: u32,
    /// Candidates never scored exactly anywhere — their similarity
    /// bounds alone proved they could not win.
    pub candidates_pruned: usize,
    /// The materialized [`MatchOutcome`] (conservative fields while
    /// unconverged: `vote_share` is the lower bound, `confidence` and
    /// `margin` use the winner's pessimistic joint bound). When the
    /// refinement ran to full exhaustion this is bit-identical to the
    /// exhaustive scan's outcome.
    pub outcome: MatchOutcome,
}

/// Per-scenario bounding box over all detection features, used for the
/// cheap membership upper bound. `None` when the scenario is empty or
/// its detections disagree on dimensionality (the exact scorer maps
/// that error case to probability `0`).
///
/// Boxes are a property of the gallery alone, so [`CacheEntry`]
/// memoizes them (see [`CacheEntry::bbox`]): across the EIDs of a batch
/// the box cost amortizes to once per scenario, just like extraction
/// and grouping.
pub(crate) struct EntryBox {
    dim: usize,
    lo: Vec<f64>,
    hi: Vec<f64>,
}

pub(crate) fn entry_box(entry: &CacheEntry) -> Option<EntryBox> {
    let dets = entry.scenario.detections();
    let first = dets.first()?;
    let dim = first.feature.dim();
    let mut lo = first.feature.components().to_vec();
    let mut hi = lo.clone();
    for d in &dets[1..] {
        if d.feature.dim() != dim {
            return None;
        }
        // f64::min/max are exact (no rounding), so the box stays a true
        // enclosure; iterator zips keep the loop vectorizable.
        for ((l, h), &c) in lo.iter_mut().zip(hi.iter_mut()).zip(d.feature.components()) {
            *l = l.min(c);
            *h = h.max(c);
        }
    }
    Some(EntryBox { dim, lo, hi })
}

/// Cheap `O(dim)` bounds on `P(VID ∈ S) = max_i sim(rep, f_i)`.
///
/// * `lb`: similarity to one sampled detection — the candidate's own
///   first detection when it appears in the scenario (a near-tight
///   sample), detection 0 otherwise. A max is at least any element, and
///   the sample is computed by the very code the exact scorer maxes
///   over, so `lb ≤ exact` holds bitwise.
/// * `ub`: box bound. For every detection `y` and dimension `i`,
///   `|x_i − y_i| ≥ g_i = max(0, lo_i − x_i, x_i − hi_i)`; float
///   subtraction, squaring, ordered summation, `sqrt`, division and
///   `min` are all monotone, so the computed box distance never exceeds
///   the computed distance to any detection and `ub ≥ exact` holds
///   bitwise. `Cosine` has no useful box bound and returns `1.0`.
fn cheap_bounds(
    rep: &FeatureVector,
    entry: &CacheEntry,
    bbox: &Option<EntryBox>,
    own_first: Option<usize>,
    metric: Metric,
) -> (f64, f64) {
    let dets = entry.scenario.detections();
    if dets.is_empty() {
        return (0.0, 0.0); // exact membership of an empty scenario is 0
    }
    let Some(bb) = bbox else {
        // Mixed dimensionalities: the exact scan's similarity errors and
        // `unwrap_or(0.0)` maps the whole membership to 0.
        return (0.0, 0.0);
    };
    if bb.dim != rep.dim() {
        return (0.0, 0.0); // same error path: exact value is 0
    }
    let sample = own_first.unwrap_or(0);
    let lb = rep.similarity(&dets[sample].feature, metric).unwrap_or(0.0);
    // The geometric core lives in `ev_core::kernel` next to the exact
    // distance formulas (one home per metric, so bounds and exact
    // scores cannot drift); `Cosine` has no useful box bound and comes
    // back as distance 0 — the vacuous `ub = 1.0`.
    let ub = 1.0 - ev_core::kernel::box_bound_distance(metric, rep.components(), &bb.lo, &bb.hi);
    (lb, ub.max(lb))
}

/// The all-zero partial outcome for an EID with no usable evidence.
fn no_evidence(eid: Eid) -> PartialMatchOutcome {
    PartialMatchOutcome {
        eid,
        vid: None,
        vote_share_low: 0.0,
        vote_share_high: 0.0,
        scenarios_scored: 0,
        scenarios_total: 0,
        converged: true, // nothing left that could change the answer
        rounds: 0,
        candidates_pruned: 0,
        outcome: MatchOutcome::no_evidence(eid),
    }
}

impl VStage<'_> {
    /// Anytime counterpart of [`filter_one`](VStage::filter_one): scores
    /// `eid` against its scenario list under `config.anytime` (defaults
    /// apply when `None`) and returns the bounded partial result —
    /// where `filter_one` goes when the configuration is approximate.
    #[must_use]
    pub fn filter_partial(
        &mut self,
        eid: Eid,
        list: &ScenarioList,
        excluded: &BTreeSet<Vid>,
    ) -> PartialMatchOutcome {
        let (video, config, tel) = (self.video, self.config, self.telemetry);
        let at = config.anytime.unwrap_or_default();
        let model = vfilter::candidate_model(list, video, excluded, self.cache);
        if model.vids.is_empty() {
            return no_evidence(eid);
        }
        if tel.counters_on() {
            // Parity with the exact path's candidate accounting.
            tel.registry()
                .counter(names::VFILTER_CANDIDATES_SCORED)
                .add(model.vids.len() as u64);
        }
        let (entries, cands, present) = (&model.entries, &model.vids, &model.present);
        let n_c = cands.len();
        let n_e = entries.len();
        // Interval state per (candidate, scenario): ln-space bounds on
        // the membership probability, refined to the exact value on
        // demand. Presence is determined by the gallery, not by scoring,
        // so `m` — the scenarios that can vote at all — is known upfront
        // and the share denominators never move. A present candidate's
        // own first detection is the lower bound's sample.
        let mut lnp_lo = vec![vec![0.0f64; n_e]; n_c];
        let mut lnp_hi = vec![vec![0.0f64; n_e]; n_c];
        for (ei, e) in entries.iter().enumerate() {
            let mut own = vec![None; n_c];
            for &(ci, group) in &present[ei] {
                own[ci] = Some(e.group(group)[0]);
            }
            for ci in 0..n_c {
                let (lb, ub) = cheap_bounds(&model.reps[ci], e, e.bbox(), own[ci], config.metric);
                lnp_lo[ci][ei] = lb.ln();
                lnp_hi[ci][ei] = ub.ln();
            }
        }
        let m = present.iter().filter(|p| !p.is_empty()).count();
        if m == 0 {
            return no_evidence(eid);
        }

        let budget_n = at.budget_scenarios.unwrap_or(usize::MAX).min(n_e);
        let mut refined = vec![vec![false; n_e]; n_c];
        let mut evals = vec![0usize; n_c];
        let mut settled: Vec<Option<usize>> = vec![None; n_e];
        let mut j_lo = vec![0.0f64; n_c];
        let mut j_hi = vec![0.0f64; n_c];
        let mut counts = vec![0usize; n_c];
        let mut unsettled = m;
        let mut rounds: u32 = 0;
        // The best and second-best candidate present in a scenario under
        // `key` (second-best so a candidate can exclude itself): `beats`
        // is a strict total order on `(score, vid)` keys, so "beats every
        // rival's key" ⇔ "beats the *maximum* rival key", and a top-2
        // scan replaces the quadratic pairwise check.
        let top2 = |pairs: &[(usize, usize)], key: &[f64]| {
            let better = |h: usize, c: usize| vfilter::beats(key[h], cands[h], key[c], cands[c]);
            let (mut first, mut second): (Option<usize>, Option<usize>) = (None, None);
            for &(ci, _) in pairs {
                if first.is_none_or(|h| better(h, ci)) {
                    second = first;
                    first = Some(ci);
                } else if second.is_none_or(|h| better(h, ci)) {
                    second = Some(ci);
                }
            }
            move |ci: usize| if first == Some(ci) { second } else { first }
        };

        let (leader, conv) = loop {
            // Joint interval per candidate: ordered fold over the list,
            // exactly the accumulation the exhaustive scan performs — so
            // a fully refined row reproduces the exact log-joint bitwise.
            for ci in 0..n_c {
                j_lo[ci] = lnp_lo[ci].iter().fold(0.0, |a, &b| a + b);
                j_hi[ci] = lnp_hi[ci].iter().fold(0.0, |a, &b| a + b);
            }

            // Settle votes: `v` takes a scenario once its joint lower
            // bound beats every present rival's upper bound under the
            // canonical `vfilter::beats` tie-break — then `v` is the
            // exact argmax no matter where inside their intervals the
            // true joints lie.
            for ei in 0..n_e {
                if settled[ei].is_some() || present[ei].is_empty() {
                    continue;
                }
                let rival_of = top2(&present[ei], &j_hi);
                for &(ci, _) in &present[ei] {
                    let wins = match rival_of(ci) {
                        None => true, // sole candidate: the vote is its own
                        Some(r) => vfilter::beats(j_hi[r], cands[r], j_lo[ci], cands[ci]),
                    };
                    if wins {
                        // At most one candidate can beat everyone else's
                        // optimistic key, so first-match order is
                        // immaterial.
                        settled[ei] = Some(ci);
                        counts[ci] += 1;
                        unsettled -= 1;
                        break;
                    }
                }
            }

            // Leader and the overtake-margin convergence check:
            // converged iff even granting every unsettled vote to the
            // best rival cannot beat the leader (ties resolved toward
            // the lower VID, as everywhere else).
            let leader = vfilter::majority_winner(cands, &counts);
            let conv = match leader {
                None => false,
                Some(w) => (0..n_c).all(|v| {
                    v == w
                        || counts[w] > counts[v] + unsettled
                        || (counts[w] == counts[v] + unsettled && cands[w] < cands[v])
                }),
            };
            let certainty = if conv {
                1.0
            } else {
                match leader {
                    None => 0.0,
                    Some(w) => {
                        let max_rival = (0..n_c)
                            .filter(|&v| v != w)
                            .map(|v| counts[v] + unsettled)
                            .max()
                            .unwrap_or(0);
                        if max_rival == 0 {
                            1.0
                        } else {
                            counts[w] as f64 / (counts[w] + max_rival) as f64
                        }
                    }
                }
            };
            if certainty >= at.confidence || unsettled == 0 {
                break (leader, conv);
            }

            // Refinement round. A candidate is *active* when it is
            // present in some unsettled scenario and not dominated there
            // — dominated iff the best rival *pessimistic* key beats its
            // own optimistic key. Dominated candidates are pruned: their
            // upper bound already proves they cannot win, and by
            // transitivity the eventual winner's lower bound will clear
            // them without further work.
            let mut active = vec![false; n_c];
            for ei in 0..n_e {
                if settled[ei].is_some() || present[ei].is_empty() {
                    continue;
                }
                let rival_of = top2(&present[ei], &j_lo);
                for &(ci, _) in &present[ei] {
                    let dominated = rival_of(ci)
                        .is_some_and(|r| vfilter::beats(j_hi[ci], cands[ci], j_lo[r], cands[r]));
                    if !dominated {
                        active[ci] = true;
                    }
                }
            }
            // Widest-interval-first: of every active `(candidate, entry)`
            // pair within budget, exactly score the one whose cheap
            // bounds leave the most ln-space slack — that is where an
            // exact value tightens a joint interval the most (for a
            // rival, typically a scenario it is absent from: the
            // optimistic box bound hides a large penalty there). One
            // pair per round, globally: the membership evaluations are
            // the expensive unit, the bound refold above is plain
            // additions, and a well-bounded candidate (the usual leader,
            // whose self-match samples are near-tight) must not burn
            // evaluations just because a rival still needs them.
            let mut best: Option<(f64, usize, usize)> = None;
            for ci in (0..n_c).filter(|&ci| active[ci]) {
                for e in (0..budget_n).filter(|&e| !refined[ci][e]) {
                    let gap = lnp_hi[ci][e] - lnp_lo[ci][e];
                    // `-inf - -inf` is NaN (a pair known to be exactly
                    // 0): nothing to learn, so order it last.
                    let gap = if gap.is_nan() { -1.0 } else { gap };
                    // Ties keep the earliest (candidate, entry) pair.
                    if best.is_none_or(|(bg, _, _)| gap > bg) {
                        best = Some((gap, ci, e));
                    }
                }
            }
            let Some((_, ci, ei)) = best else {
                // Budget exhausted: nothing left that may be scored.
                break (leader, conv);
            };
            // One charged comparison per exactly scored pair — the same
            // unit the exhaustive scan charges, so the ledger shows the
            // work actually done — at the same scoring point, so the
            // refined value can replace both bounds at once.
            video.charge_comparison();
            let lp =
                vfilter::score_membership(&model.reps[ci], entries[ei], config.metric, tel).ln();
            lnp_lo[ci][ei] = lp;
            lnp_hi[ci][ei] = lp;
            refined[ci][ei] = true;
            evals[ci] += 1;
            rounds += 1;
        };

        let candidates_pruned = evals.iter().filter(|&&e| e == 0).count();
        let fully_refined = refined.iter().all(|row| row.iter().all(|&r| r));
        let outcome = if fully_refined {
            // Exhaustion: every pair holds its exact value, so `j_lo` is
            // the exhaustive scan's log-joint and the shared tally makes
            // the outcome bit-identical to `filter_one`'s.
            vfilter::tally(eid, &model, &j_lo)
        } else {
            match leader {
                None => MatchOutcome::unmatched(eid),
                Some(w) => {
                    let confidence = j_lo[w].exp();
                    let margin = if n_c > 1 {
                        let rival = (0..n_c)
                            .filter(|&v| v != w)
                            .map(|v| j_hi[v])
                            .fold(f64::NEG_INFINITY, f64::max);
                        confidence - rival.exp()
                    } else {
                        1.0
                    };
                    MatchOutcome {
                        eid,
                        vid: Some(cands[w]),
                        vote_share: counts[w] as f64 / m as f64, // the sound lower bound
                        confidence,
                        margin,
                        votes: settled.iter().flatten().map(|&ci| cands[ci]).collect(),
                    }
                }
            }
        };

        let (low, high) = match leader {
            Some(w) => (
                counts[w] as f64 / m as f64,
                (counts[w] + unsettled) as f64 / m as f64,
            ),
            None => (0.0, 1.0),
        };
        PartialMatchOutcome {
            eid,
            vid: outcome.vid,
            vote_share_low: low,
            vote_share_high: high,
            scenarios_scored: m - unsettled,
            scenarios_total: m,
            converged: conv,
            rounds,
            candidates_pruned,
            outcome,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfilter::{GalleryCache, VFilterConfig};
    use ev_core::region::CellId;
    use ev_core::scenario::{Detection, ScenarioId, VScenario};
    use ev_core::time::Timestamp;
    use ev_store::VideoStore;
    use ev_telemetry::Telemetry;
    use ev_vision::cost::CostModel;

    fn stage<'a>(
        video: &'a VideoStore,
        config: &'a VFilterConfig,
        cache: &'a mut GalleryCache,
    ) -> VStage<'a> {
        VStage {
            video,
            config,
            cache,
            telemetry: Telemetry::disabled(),
        }
    }

    fn filter_one(
        eid: Eid,
        list: &ScenarioList,
        video: &VideoStore,
        config: &VFilterConfig,
        excluded: &BTreeSet<Vid>,
    ) -> MatchOutcome {
        stage(video, config, &mut GalleryCache::new()).filter_one(eid, list, excluded)
    }

    fn partial_filter_one(
        eid: Eid,
        list: &ScenarioList,
        video: &VideoStore,
        config: &VFilterConfig,
        excluded: &BTreeSet<Vid>,
    ) -> PartialMatchOutcome {
        stage(video, config, &mut GalleryCache::new()).filter_partial(eid, list, excluded)
    }

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

    /// A clearly separable corpus: VID 1 shows a stable appearance
    /// everywhere (its mean representative matches its detections
    /// almost perfectly), while VID 2 drifts, so its representative
    /// matches none of its own detections and its joint score stays
    /// well below VID 1's.
    fn separable_video() -> (VideoStore, ScenarioList) {
        let drift: [[f64; 2]; 8] = [
            [0.10, 0.10],
            [0.20, 0.15],
            [0.15, 0.25],
            [0.30, 0.10],
            [0.10, 0.30],
            [0.25, 0.25],
            [0.05, 0.20],
            [0.20, 0.05],
        ];
        let scenarios: Vec<VScenario> = (0..8)
            .map(|i| vscenario(i, i as u64, &[(1, &[0.9, 0.9]), (2, &drift[i])]))
            .collect();
        let list = (0..8).map(|i| sid(i, i as u64)).collect();
        (
            VideoStore::new(
                scenarios,
                CostModel {
                    e_record: 0,
                    v_extraction: 0,
                    v_comparison: 1,
                },
            ),
            list,
        )
    }

    fn approx_config(confidence: f64) -> VFilterConfig {
        VFilterConfig {
            anytime: Some(AnytimeConfig::with_confidence(confidence)),
            ..VFilterConfig::default()
        }
    }

    #[test]
    fn approximate_is_off_by_default() {
        assert!(!AnytimeConfig::default().approximate());
        assert!(AnytimeConfig::with_confidence(0.95).approximate());
        assert!(AnytimeConfig::default().budget(3).approximate());
        assert!(!AnytimeConfig::with_confidence(1.0).approximate());
    }

    #[test]
    fn converged_result_matches_the_exact_winner() {
        let (video, list) = separable_video();
        let exact = filter_one(
            Eid::from_u64(1),
            &list,
            &video,
            &VFilterConfig::default(),
            &BTreeSet::new(),
        );
        let partial = partial_filter_one(
            Eid::from_u64(1),
            &list,
            &video,
            &approx_config(0.95),
            &BTreeSet::new(),
        );
        assert!(partial.converged);
        assert_eq!(partial.vid, exact.vid);
        assert_eq!(partial.vid, Some(Vid::new(1)));
        assert!(partial.vote_share_low <= exact.vote_share + 1e-12);
        assert!(partial.vote_share_high >= exact.vote_share - 1e-12);
    }

    #[test]
    fn separable_corpus_skips_exact_work() {
        // Tight clusters settle on bounds alone: the ledger must show
        // strictly fewer charged comparisons than the exhaustive scan.
        let (video, list) = separable_video();
        let _ = filter_one(
            Eid::from_u64(1),
            &list,
            &video,
            &VFilterConfig::default(),
            &BTreeSet::new(),
        );
        let exact_units = video.ledger().v_units();

        let (video2, list2) = separable_video();
        let partial = partial_filter_one(
            Eid::from_u64(1),
            &list2,
            &video2,
            &approx_config(0.95),
            &BTreeSet::new(),
        );
        assert!(partial.converged);
        assert!(
            video2.ledger().v_units() < exact_units,
            "anytime {} should charge less than exact {}",
            video2.ledger().v_units(),
            exact_units
        );
    }

    #[test]
    fn via_vfilter_delegation_share_is_the_lower_bound() {
        let (video, list) = separable_video();
        let out = filter_one(
            Eid::from_u64(1),
            &list,
            &video,
            &approx_config(0.95),
            &BTreeSet::new(),
        );
        assert_eq!(out.vid, Some(Vid::new(1)));
        assert!(!out.vote_share.is_nan());
        assert!(out.is_majority(), "converged lower bound is a majority");
    }

    #[test]
    fn budget_zero_returns_bounds_only() {
        let (video, list) = separable_video();
        let cfg = VFilterConfig {
            anytime: Some(AnytimeConfig::with_confidence(0.95).budget(0)),
            ..VFilterConfig::default()
        };
        let partial = partial_filter_one(Eid::from_u64(1), &list, &video, &cfg, &BTreeSet::new());
        // No exact scoring is allowed; the interval must still bracket
        // the exact share and never report false convergence... unless
        // the bounds alone settled it, which is legitimate.
        assert!(partial.vote_share_low <= partial.vote_share_high);
        assert!(partial.vote_share_high <= 1.0 + 1e-12);
        if !partial.converged {
            assert!(partial.scenarios_scored < partial.scenarios_total);
        }
    }

    #[test]
    fn empty_list_is_no_evidence_and_converged() {
        let (video, _) = separable_video();
        let partial = partial_filter_one(
            Eid::from_u64(1),
            &vec![],
            &video,
            &approx_config(0.5),
            &BTreeSet::new(),
        );
        assert!(partial.converged);
        assert!(partial.vid.is_none());
        assert!(partial.outcome.is_no_evidence());
        assert_eq!(partial.vote_share_high, 0.0);
    }

    #[test]
    fn ambiguous_corpus_runs_to_exhaustion_bit_identically() {
        // Two candidates with identical features: no bound can separate
        // them, so the refinement must exhaust and reproduce the exact
        // outcome bit for bit (ties broken toward the lower VID).
        let scenarios = vec![
            vscenario(0, 0, &[(7, &[0.5, 0.5]), (4, &[0.5, 0.5])]),
            vscenario(1, 1, &[(4, &[0.5, 0.5]), (7, &[0.5, 0.5])]),
        ];
        let list: ScenarioList = vec![sid(0, 0), sid(1, 1)];
        let video = VideoStore::new(scenarios.clone(), CostModel::free());
        let exact = filter_one(
            Eid::from_u64(3),
            &list,
            &video,
            &VFilterConfig::default(),
            &BTreeSet::new(),
        );
        let video2 = VideoStore::new(scenarios, CostModel::free());
        let partial = partial_filter_one(
            Eid::from_u64(3),
            &list,
            &video2,
            &approx_config(0.95),
            &BTreeSet::new(),
        );
        assert_eq!(partial.outcome, exact);
        assert_eq!(partial.vid, Some(Vid::new(4)));
    }

    #[test]
    fn bounds_bracket_membership_on_random_galleries() {
        // Deterministic pseudo-random sweep: the cheap interval must
        // bracket the exact membership for every metric.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for trial in 0..200 {
            let dim = 1 + (trial % 5);
            let n_det = 1 + (trial % 4);
            let mut s = VScenario::new(CellId::new(0), Timestamp::new(0));
            for v in 0..n_det {
                let f: Vec<f64> = (0..dim).map(|_| next()).collect();
                s.push(Detection {
                    vid: Vid::new(v as u64),
                    feature: fv(&f),
                });
            }
            let entry = CacheEntry::new(std::sync::Arc::new(s));
            let bbox = entry_box(&entry);
            let rep_f: Vec<f64> = (0..dim).map(|_| next()).collect();
            let rep = fv(&rep_f);
            for metric in [Metric::NormalizedL2, Metric::NormalizedL1, Metric::Cosine] {
                let exact =
                    ev_vision::reid::membership_probability(&rep, &entry.scenario, metric).unwrap();
                let (lb, ub) = cheap_bounds(&rep, &entry, &bbox, None, metric);
                assert!(lb <= exact, "{metric:?}: lb {lb} > exact {exact}");
                assert!(ub >= exact, "{metric:?}: ub {ub} < exact {exact}");
            }
        }
    }
}
