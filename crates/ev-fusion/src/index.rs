//! The fused identity index.

use crate::trail::{ETrail, VSighting};
use ev_core::ids::{Eid, Vid};
use ev_core::region::CellId;
use ev_core::scenario::ScenarioId;
use ev_core::time::TimeRange;
use ev_matching::MatchReport;
use ev_store::{EScenarioStore, VideoStore};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// One matched person: the link between an electronic and a visual
/// identity, with the matcher's confidence.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FusedIdentity {
    /// The electronic identity.
    pub eid: Eid,
    /// The matched visual identity.
    pub vid: Vid,
    /// The matcher's vote share for this link.
    pub vote_share: f64,
    /// The matcher's joint membership probability for this link.
    pub confidence: f64,
}

/// The answer to a single fused query: both sides of one person's record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FusedProfile {
    /// The identity link.
    pub identity: FusedIdentity,
    /// The electronic trail (every scenario that heard the device).
    pub e_trail: ETrail,
    /// Visual sightings within the already-processed footage.
    pub v_sightings: Vec<VSighting>,
}

/// A co-location record: another identity seen together with the queried
/// one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Encounter {
    /// The other person's electronic identity.
    pub eid: Eid,
    /// Number of scenarios shared (electronic evidence).
    pub shared_scenarios: usize,
}

/// An index over the matched identities of one [`MatchReport`], answering
/// fused E+V queries without re-running any matching.
///
/// Only majority matches enter the index; ambiguous outcomes are not
/// trustworthy enough to label footage with.
#[derive(Debug)]
pub struct FusedIndex<'a> {
    estore: &'a EScenarioStore,
    video: &'a VideoStore,
    by_eid: BTreeMap<Eid, FusedIdentity>,
    /// Footage that the matching run already paid to extract.
    processed: BTreeSet<ScenarioId>,
}

impl<'a> FusedIndex<'a> {
    /// Builds the index from a finished matching run.
    #[must_use]
    pub fn build(estore: &'a EScenarioStore, video: &'a VideoStore, report: &MatchReport) -> Self {
        let mut by_eid = BTreeMap::new();
        for outcome in &report.outcomes {
            if !outcome.is_majority() {
                continue;
            }
            let Some(vid) = outcome.vid else { continue };
            let identity = FusedIdentity {
                eid: outcome.eid,
                vid,
                vote_share: outcome.vote_share,
                confidence: outcome.confidence,
            };
            by_eid.insert(outcome.eid, identity);
        }
        FusedIndex {
            estore,
            video,
            by_eid,
            processed: report.selected_scenarios.clone(),
        }
    }

    /// The identity link for an EID, if it was matched.
    #[must_use]
    pub(crate) fn identity_of_eid(&self, eid: Eid) -> Option<FusedIdentity> {
        self.by_eid.get(&eid).copied()
    }

    /// One query, both datasets: the full profile for an EID.
    #[must_use]
    pub fn profile_by_eid(&self, eid: Eid) -> Option<FusedProfile> {
        let identity = self.identity_of_eid(eid)?;
        Some(self.assemble(identity))
    }

    fn assemble(&self, identity: FusedIdentity) -> FusedProfile {
        let e_trail = ETrail::of(self.estore, identity.eid);
        let mut v_sightings: Vec<VSighting> = self
            .processed
            .iter()
            .filter_map(|&id| {
                let footage = self.video.extract(id)?;
                footage.contains(identity.vid).then_some(VSighting {
                    time: id.time,
                    cell: id.cell,
                })
            })
            .collect();
        v_sightings.sort_unstable();
        FusedProfile {
            identity,
            e_trail,
            v_sightings,
        }
    }

    /// Spatiotemporal search: fused identities present in any of `cells`
    /// during `range`, by electronic evidence (base-station captures).
    #[must_use]
    pub fn present_at(&self, cells: &[CellId], range: TimeRange) -> Vec<FusedIdentity> {
        let mut hits: BTreeSet<Eid> = BTreeSet::new();
        for scenario in self.estore.query(range, Some(cells)) {
            for eid in scenario.eids() {
                if self.by_eid.contains_key(&eid) {
                    hits.insert(eid);
                }
            }
        }
        hits.into_iter()
            .filter_map(|e| self.identity_of_eid(e))
            .collect()
    }

    /// Co-location analysis: every other matched identity that shared at
    /// least `min_shared` E-Scenarios with `eid`, strongest first.
    #[must_use]
    pub fn encounters(&self, eid: Eid, min_shared: usize) -> Vec<Encounter> {
        let mut counts: BTreeMap<Eid, usize> = BTreeMap::new();
        for scenario in self.estore.containing(eid) {
            for other in scenario.eids() {
                if other != eid && self.by_eid.contains_key(&other) {
                    *counts.entry(other).or_insert(0) += 1;
                }
            }
        }
        let mut encounters: Vec<Encounter> = counts
            .into_iter()
            .filter(|&(_, n)| n >= min_shared.max(1))
            .map(|(eid, shared_scenarios)| Encounter {
                eid,
                shared_scenarios,
            })
            .collect();
        encounters.sort_by_key(|e| (std::cmp::Reverse(e.shared_scenarios), e.eid));
        encounters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_core::feature::FeatureVector;
    use ev_core::scenario::{Detection, EScenario, VScenario, ZoneAttr};
    use ev_core::time::Timestamp;
    use ev_matching::{EvMatcher, MatcherConfig};
    use ev_vision::cost::CostModel;

    /// A tiny world where persons 0..4 visit deterministic cells.
    fn world() -> (EScenarioStore, VideoStore) {
        let layout: Vec<(u64, usize, Vec<u64>)> = vec![
            (0, 0, vec![0, 1]),
            (0, 1, vec![2, 3]),
            (10, 0, vec![0, 2]),
            (10, 1, vec![1, 3]),
            (20, 0, vec![0, 3]),
            (20, 1, vec![1, 2]),
        ];
        let mut es = Vec::new();
        let mut vs = Vec::new();
        for (t, c, people) in &layout {
            let mut e = EScenario::new(CellId::new(*c), Timestamp::new(*t));
            let mut v = VScenario::new(CellId::new(*c), Timestamp::new(*t));
            for &p in people {
                e.insert(Eid::from_u64(p), ZoneAttr::Inclusive);
                let mut f = vec![0.05; 4];
                f[p as usize] = 0.95;
                v.push(Detection {
                    vid: Vid::new(p),
                    feature: FeatureVector::new(f).expect("valid"),
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

    fn matched_index<'a>(
        estore: &'a EScenarioStore,
        video: &'a VideoStore,
    ) -> (FusedIndex<'a>, MatchReport) {
        let targets: BTreeSet<Eid> = (0..4).map(Eid::from_u64).collect();
        let matcher = EvMatcher::new(estore, video, MatcherConfig::default());
        let report = matcher.match_many(&targets).expect("sequential");
        (FusedIndex::build(estore, video, &report), report)
    }

    #[test]
    fn index_contains_all_majority_matches() {
        let (estore, video) = world();
        let (index, report) = matched_index(&estore, &video);
        assert!(report.outcomes.iter().any(|o| o.is_majority()));
        for o in &report.outcomes {
            let profile = index.profile_by_eid(o.eid);
            assert_eq!(profile.is_some(), o.is_majority(), "{:?}", o.eid);
        }
    }

    #[test]
    fn profiles_link_both_sides() {
        let (estore, video) = world();
        let (index, _) = matched_index(&estore, &video);
        let eid = Eid::from_u64(0);
        let profile = index.profile_by_eid(eid).expect("matched");
        assert_eq!(profile.identity.eid, eid);
        assert_eq!(profile.identity.vid, Vid::new(0));
        assert_eq!(profile.e_trail.len(), 3, "heard at t=0,10,20");
        assert!(
            !profile.v_sightings.is_empty(),
            "person 0 appears in processed footage"
        );
    }

    #[test]
    fn unknown_identities_return_none() {
        let (estore, video) = world();
        let (index, _) = matched_index(&estore, &video);
        assert!(index.profile_by_eid(Eid::from_u64(99)).is_none());
    }

    #[test]
    fn spatiotemporal_search_finds_occupants() {
        let (estore, video) = world();
        let (index, _) = matched_index(&estore, &video);
        let cells = [CellId::new(0)];
        let range = TimeRange::new(Timestamp::new(0), Timestamp::new(11));
        let found = index.present_at(&cells, range);
        // Cell 0 hosted {0,1} at t=0 and {0,2} at t=10.
        let eids: BTreeSet<u64> = found.iter().map(|i| i.eid.as_u64()).collect();
        assert!(eids.contains(&0));
        assert!(eids.contains(&1));
        assert!(eids.contains(&2));
        assert!(!eids.contains(&3));
        // An empty window finds nobody.
        let nobody = index.present_at(
            &cells,
            TimeRange::new(Timestamp::new(40), Timestamp::new(50)),
        );
        assert!(nobody.is_empty());
    }

    #[test]
    fn encounters_count_shared_scenarios() {
        let (estore, video) = world();
        let (index, _) = matched_index(&estore, &video);
        // Person 0 shares exactly one scenario with each of 1, 2, 3.
        let encounters = index.encounters(Eid::from_u64(0), 1);
        assert_eq!(encounters.len(), 3);
        for e in &encounters {
            assert_eq!(e.shared_scenarios, 1);
        }
        // Raising the threshold filters everyone out.
        assert!(index.encounters(Eid::from_u64(0), 2).is_empty());
    }

    #[test]
    fn profile_serializes() {
        let (estore, video) = world();
        let (index, _) = matched_index(&estore, &video);
        let profile = index.profile_by_eid(Eid::from_u64(1)).expect("matched");
        let json = serde_json::to_string(&profile).expect("serializable");
        let back: FusedProfile = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back.identity.eid, profile.identity.eid);
        assert_eq!(back.identity.vid, profile.identity.vid);
        // JSON float round-trips can differ in the last ULP.
        assert!((back.identity.confidence - profile.identity.confidence).abs() < 1e-12);
        assert_eq!(back.e_trail, profile.e_trail);
        assert_eq!(back.v_sightings, profile.v_sightings);
    }
}
