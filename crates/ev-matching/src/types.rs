//! Shared result types for the matching pipelines.

use ev_core::ids::{Eid, Vid};
use ev_core::scenario::ScenarioId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// The E-Scenario list selected for one EID — its coarse-grained,
/// large-scale trajectory (paper §IV-B2).
pub type ScenarioList = Vec<ScenarioId>;

/// The winner margin above which a majority match counts as confident
/// (see [`MatchOutcome::is_confident`]).
const MIN_MARGIN: f64 = 0.01;

/// The result of matching one EID.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatchOutcome {
    /// The EID that was matched.
    pub eid: Eid,
    /// The matched VID: the majority winner across the scenario list, or
    /// `None` when filtering failed (no scenarios, or no majority).
    pub vid: Option<Vid>,
    /// The per-scenario argmax VIDs, in scenario-list order.
    pub votes: Vec<Vid>,
    /// Fraction of votes the winner received (`0.0` when unmatched).
    pub vote_share: f64,
    /// Joint membership probability of the winner over the list.
    pub confidence: f64,
    /// The winner's joint probability minus the best other candidate's
    /// (`1.0` when the winner was the only candidate). A (near-)zero
    /// margin means the scenario list cannot tell two VIDs apart.
    pub margin: f64,
}

impl MatchOutcome {
    /// An unmatched outcome for `eid`.
    #[must_use]
    pub(crate) fn unmatched(eid: Eid) -> Self {
        MatchOutcome {
            eid,
            vid: None,
            votes: Vec::new(),
            vote_share: 0.0,
            confidence: 0.0,
            margin: 0.0,
        }
    }

    /// The explicit **NoEvidence** outcome: the EID's scenario list
    /// produced zero usable votes (no recorded scenarios, no footage
    /// for them, or every candidate excluded/pruned), so there is
    /// nothing to take a majority over. The shape is all-zero — never
    /// `NaN`: `vote_share` must not be computed as `count / 0`. Unlike a
    /// vote-backed miss, its vote vector is empty.
    #[must_use]
    pub(crate) fn no_evidence(eid: Eid) -> Self {
        MatchOutcome::unmatched(eid)
    }

    /// Whether a VID was produced with a strict vote majority — the
    /// paper's accuracy rule ("the majority of the VIDs chosen from
    /// the scenarios for this EID is the right VID", §VI-B).
    #[must_use]
    pub fn is_majority(&self) -> bool {
        self.vid.is_some() && self.vote_share > 0.5
    }

    /// Whether the match is acceptable to the refinement loop: a strict
    /// majority *and* an unambiguous winner (margin above 0.01,
    /// `MIN_MARGIN`).
    #[must_use]
    pub fn is_confident(&self) -> bool {
        self.is_majority() && self.margin > MIN_MARGIN
    }
}

/// Wall-clock timings of the two pipeline stages (paper Figs. 8–9 report
/// E time, V time and their sum).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StageTimings {
    /// Time spent selecting scenarios from E-data.
    pub e_stage: Duration,
    /// Time spent extracting and comparing V-data.
    pub v_stage: Duration,
}

impl StageTimings {
    /// Total across both stages.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.e_stage + self.v_stage
    }
}

/// The full report of one matching run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MatchReport {
    /// One outcome per requested EID, in EID order.
    pub outcomes: Vec<MatchOutcome>,
    /// The scenario list selected for each EID.
    pub lists: BTreeMap<Eid, ScenarioList>,
    /// Every distinct scenario a list named, over every round and EID:
    /// the footage the V stage extracted, reuse counted once — the
    /// quantity of paper Figs. 5–6.
    pub selected_scenarios: BTreeSet<ScenarioId>,
    /// Stage timings.
    pub timings: StageTimings,
    /// Refinement rounds executed (1 when refining never triggered).
    pub rounds: u32,
}

impl MatchReport {
    /// Number of distinct scenarios selected (paper Fig. 5/6 metric).
    #[must_use]
    pub fn selected_count(&self) -> usize {
        self.selected_scenarios.len()
    }

    /// Average scenario-list length per EID (paper Fig. 7 metric).
    #[must_use]
    pub fn scenarios_per_eid(&self) -> f64 {
        if self.lists.is_empty() {
            return 0.0;
        }
        let total: usize = self.lists.values().map(Vec::len).sum();
        total as f64 / self.lists.len() as f64
    }

    /// The outcome for a specific EID, if it was requested.
    #[must_use]
    pub fn outcome_of(&self, eid: Eid) -> Option<&MatchOutcome> {
        self.outcomes.iter().find(|o| o.eid == eid)
    }
}

/// Read only by the tests.
#[cfg(test)]
impl MatchOutcome {
    /// Whether this outcome carries **no evidence at all**: no VID and
    /// an empty vote vector. Zero recorded scenarios must land here —
    /// with explicit `0.0` fields — rather than dividing by an empty
    /// vote count and leaking `NaN` into [`is_majority`] comparisons.
    ///
    /// [`is_majority`]: MatchOutcome::is_majority
    #[must_use]
    pub(crate) fn is_no_evidence(&self) -> bool {
        self.vid.is_none() && self.votes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(eid: u64, vid: Option<u64>, share: f64) -> MatchOutcome {
        MatchOutcome {
            eid: Eid::from_u64(eid),
            vid: vid.map(Vid::new),
            votes: Vec::new(),
            vote_share: share,
            confidence: share,
            margin: share,
        }
    }

    #[test]
    fn unmatched_outcome() {
        let o = MatchOutcome::unmatched(Eid::from_u64(1));
        assert!(o.vid.is_none());
        assert!(!o.is_majority());
    }

    #[test]
    fn no_evidence_is_explicit_and_nan_free() {
        let o = MatchOutcome::no_evidence(Eid::from_u64(9));
        assert!(o.is_no_evidence());
        assert!(!o.is_majority());
        assert_eq!(o.vote_share, 0.0, "0/0 must be 0.0, never NaN");
        assert!(!o.vote_share.is_nan());
        // A vote-backed outcome is not NoEvidence, even when wrong.
        let voted = MatchOutcome {
            votes: vec![Vid::new(3)],
            vid: Some(Vid::new(3)),
            ..MatchOutcome::unmatched(Eid::from_u64(9))
        };
        assert!(!voted.is_no_evidence());
    }

    #[test]
    fn majority_requires_vid_and_share() {
        assert!(outcome(1, Some(2), 0.8).is_majority());
        assert!(!outcome(1, Some(2), 0.5).is_majority(), "strict majority");
        assert!(!outcome(1, None, 0.9).is_majority());
    }

    #[test]
    fn timings_total() {
        let t = StageTimings {
            e_stage: Duration::from_millis(3),
            v_stage: Duration::from_millis(7),
        };
        assert_eq!(t.total(), Duration::from_millis(10));
    }

    #[test]
    fn report_aggregates() {
        use ev_core::region::CellId;
        use ev_core::time::Timestamp;
        let sid = |t| ScenarioId::new(Timestamp::new(t), CellId::new(0));
        let mut report = MatchReport::default();
        assert_eq!(report.scenarios_per_eid(), 0.0);
        report.outcomes = vec![outcome(1, Some(1), 0.9), outcome(2, None, 0.0)];
        report.lists.insert(Eid::from_u64(1), vec![sid(0), sid(1)]);
        report.lists.insert(Eid::from_u64(2), vec![sid(1)]);
        report.selected_scenarios = [sid(0), sid(1)].into_iter().collect();
        assert_eq!(report.selected_count(), 2);
        assert!((report.scenarios_per_eid() - 1.5).abs() < 1e-12);
        let majority: Vec<bool> = report
            .outcomes
            .iter()
            .map(MatchOutcome::is_majority)
            .collect();
        assert_eq!(majority, [true, false]);
        assert!(report.outcome_of(Eid::from_u64(2)).unwrap().vid.is_none());
        assert!(report.outcome_of(Eid::from_u64(3)).is_none());
    }
}
