//! Inverted scenario index: EID → postings over an
//! [`EScenarioStore`](crate::EScenarioStore).
//!
//! The matching pipelines repeatedly ask two questions of the E-data:
//! *"which scenarios contain this EID?"* (set splitting, EDP
//! E-filtering, anchor and uniqueness-pass selection) and *"does this
//! scenario contain this EID?"* (split-gain evaluation). Both were answered by
//! linear scans over every scenario's membership map. This module
//! answers them from a one-time inverted build:
//!
//! for every EID, the sorted list of [`ScenarioId`]s that contain it
//! (its *postings*), with one bit per posting for its zone. Scenario ids
//! order as `(time, cell)`, which is exactly the store's iteration
//! order, so walking a posting list visits the same scenarios in the
//! same order as a full scan — the index-backed paths are drop-in
//! replacements with byte-identical results.
//!
//! The index also keeps usage counters (postings probed, membership
//! binary-searches, scans avoided) behind atomics so `&self` consumers
//! can report them through the pipeline metrics.

use ev_core::ids::Eid;
use ev_core::scenario::{EScenario, ScenarioId, ZoneAttr};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Snapshot of the index usage counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct IndexStatsSnapshot {
    /// Posting lists fetched (one per `postings`/`containing` call).
    pub postings_probed: u64,
    /// O(log n) membership queries answered by binary search.
    pub membership_queries: u64,
    /// Full-store scans avoided by answering from the index instead.
    pub scans_avoided: u64,
}

#[derive(Debug, Default)]
struct IndexStats {
    postings_probed: AtomicU64,
    membership_queries: AtomicU64,
    scans_avoided: AtomicU64,
}

/// An inverted index over one [`EScenarioStore`](crate::EScenarioStore).
///
/// Built once per store (lazily, behind
/// [`EScenarioStore::index`](crate::EScenarioStore::index)) and shared by
/// every pipeline that reads the store.
#[derive(Debug, Default)]
pub struct ScenarioIndex {
    /// EID → scenario ids containing it, ascending (= store order).
    postings: BTreeMap<Eid, Postings>,
    stats: IndexStats,
}

/// One EID's postings and, one bit per posting, whether that scenario
/// holds the EID in its inclusive zone.
#[derive(Debug, Default)]
struct Postings {
    ids: Vec<ScenarioId>,
    inclusive: Vec<u64>,
}

impl Postings {
    fn push(&mut self, id: ScenarioId, attr: ZoneAttr) {
        let at = self.ids.len();
        if at.is_multiple_of(64) {
            self.inclusive.push(0);
        }
        if attr == ZoneAttr::Inclusive {
            self.inclusive[at / 64] |= 1 << (at % 64);
        }
        self.ids.push(id);
    }
}

impl ScenarioIndex {
    /// Builds the index from scenarios already sorted in id order (the
    /// store's canonical order). One pass over every membership record.
    #[must_use]
    pub(crate) fn build<'a>(scenarios: impl IntoIterator<Item = &'a EScenario>) -> Self {
        let mut index = ScenarioIndex::default();
        index.extend(scenarios);
        index
    }

    /// Splices scenarios into the index *without* a rebuild.
    ///
    /// Every appended posting keeps its list sorted **only if** each new
    /// scenario id is greater than every id already indexed (scenario
    /// ids order time-major, so appending strictly-newer snapshots
    /// qualifies). Callers must guarantee that ordering — the
    /// append-only ingest path of
    /// [`EScenarioStore::ingest`](crate::EScenarioStore::ingest) does —
    /// and fall back to [`ScenarioIndex::build`] otherwise. Usage
    /// counters are preserved.
    pub(crate) fn extend<'a>(&mut self, scenarios: impl IntoIterator<Item = &'a EScenario>) {
        for s in scenarios {
            let id = s.id();
            for (eid, attr) in s.iter() {
                self.postings.entry(eid).or_default().push(id, attr);
            }
        }
    }

    /// The sorted posting list for `eid` (empty when the EID never
    /// appears). Ascending scenario-id order — identical to the order a
    /// full store scan would visit the containing scenarios.
    #[must_use]
    pub fn postings(&self, eid: Eid) -> &[ScenarioId] {
        self.stats.postings_probed.fetch_add(1, Ordering::Relaxed);
        self.stats.scans_avoided.fetch_add(1, Ordering::Relaxed);
        self.postings.get(&eid).map_or(&[], |p| p.ids.as_slice())
    }

    /// [`postings`](Self::postings) with each scenario's zone for `eid`:
    /// the inclusive appearances of an EID without a scenario look-up.
    pub fn zoned_postings(&self, eid: Eid) -> impl Iterator<Item = (ScenarioId, ZoneAttr)> + '_ {
        self.stats.postings_probed.fetch_add(1, Ordering::Relaxed);
        self.stats.scans_avoided.fetch_add(1, Ordering::Relaxed);
        let (ids, bits) = self.postings.get(&eid).map_or((&[][..], &[][..]), |p| {
            (p.ids.as_slice(), p.inclusive.as_slice())
        });
        ids.iter().enumerate().map(move |(at, &id)| {
            let attr = if bits[at / 64] >> (at % 64) & 1 == 1 {
                ZoneAttr::Inclusive
            } else {
                ZoneAttr::Vague
            };
            (id, attr)
        })
    }

    /// Whether scenario `id` contains `eid` — one binary search on the
    /// posting list instead of a scenario-map lookup per probe.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn contains(&self, eid: Eid, id: ScenarioId) -> bool {
        self.stats
            .membership_queries
            .fetch_add(1, Ordering::Relaxed);
        self.postings
            .get(&eid)
            .is_some_and(|p| p.ids.binary_search(&id).is_ok())
    }

    /// Number of distinct EIDs with at least one posting.
    #[must_use]
    pub fn eid_count(&self) -> usize {
        self.postings.len()
    }

    /// A snapshot of the usage counters.
    #[must_use]
    pub fn stats(&self) -> IndexStatsSnapshot {
        IndexStatsSnapshot {
            postings_probed: self.stats.postings_probed.load(Ordering::Relaxed),
            membership_queries: self.stats.membership_queries.load(Ordering::Relaxed),
            scans_avoided: self.stats.scans_avoided.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_core::region::CellId;
    use ev_core::scenario::ZoneAttr;
    use ev_core::time::Timestamp;

    fn scenario(cell: usize, time: u64, eids: &[u64]) -> EScenario {
        let mut s = EScenario::new(CellId::new(cell), Timestamp::new(time));
        for &e in eids {
            s.insert(Eid::from_u64(e), ZoneAttr::Inclusive);
        }
        s
    }

    fn sid(cell: usize, time: u64) -> ScenarioId {
        ScenarioId::new(Timestamp::new(time), CellId::new(cell))
    }

    fn index() -> ScenarioIndex {
        let scenarios = [
            scenario(0, 0, &[1, 2]),
            scenario(1, 0, &[3]),
            scenario(0, 1, &[1]),
            scenario(2, 2, &[2, 3]),
        ];
        ScenarioIndex::build(scenarios.iter())
    }

    #[test]
    fn postings_are_sorted_and_complete() {
        let idx = index();
        assert_eq!(idx.postings(Eid::from_u64(1)), &[sid(0, 0), sid(0, 1)]);
        assert_eq!(idx.postings(Eid::from_u64(3)), &[sid(1, 0), sid(2, 2)]);
        assert!(idx.postings(Eid::from_u64(9)).is_empty());
        assert_eq!(idx.eid_count(), 3);
        for p in idx.postings.values() {
            assert!(p.ids.windows(2).all(|w| w[0] < w[1]), "strictly ascending");
        }
    }

    #[test]
    fn zoned_postings_carry_each_scenarios_zone() {
        // 70 scenarios, so the zone bits span two words.
        let scenarios: Vec<EScenario> = (0..70)
            .map(|t| {
                let mut s = scenario(0, t, &[1]);
                if t % 3 == 0 {
                    s.insert(Eid::from_u64(1), ZoneAttr::Vague);
                }
                s
            })
            .collect();
        let idx = ScenarioIndex::build(scenarios.iter());
        let zoned: Vec<_> = idx.zoned_postings(Eid::from_u64(1)).collect();
        let expected: Vec<_> = scenarios
            .iter()
            .map(|s| (s.id(), s.attr(Eid::from_u64(1)).unwrap()))
            .collect();
        assert_eq!(zoned, expected);
        assert_eq!(idx.zoned_postings(Eid::from_u64(9)).count(), 0);
    }

    #[test]
    fn membership_queries_answer_in_log_time() {
        let idx = index();
        assert!(idx.contains(Eid::from_u64(2), sid(0, 0)));
        assert!(idx.contains(Eid::from_u64(2), sid(2, 2)));
        assert!(!idx.contains(Eid::from_u64(2), sid(0, 1)));
        assert!(!idx.contains(Eid::from_u64(9), sid(0, 0)));
    }

    #[test]
    fn stats_count_usage() {
        let idx = index();
        let _ = idx.postings(Eid::from_u64(1));
        let _ = idx.contains(Eid::from_u64(1), sid(0, 0));
        let stats = idx.stats();
        assert_eq!(stats.postings_probed, 1);
        assert_eq!(stats.membership_queries, 1);
        assert_eq!(stats.scans_avoided, 1, "postings() avoids a scan");
    }

    #[test]
    fn empty_store_indexes_cleanly() {
        let idx = ScenarioIndex::build(std::iter::empty());
        assert_eq!(idx.eid_count(), 0);
        assert!(idx.postings(Eid::from_u64(0)).is_empty());
    }
}
