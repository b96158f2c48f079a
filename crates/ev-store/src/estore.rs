//! The E-Scenario store: an indexed, queryable collection of E-Scenarios.

use crate::index::ScenarioIndex;
use ev_core::ids::Eid;
use ev_core::region::CellId;
use ev_core::scenario::{EScenario, ScenarioId};
use ev_core::time::{TimeRange, Timestamp};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// What one [`EScenarioStore::ingest`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestStats {
    /// Scenarios taken from the batch (collisions still count; the
    /// colliding newer scenario replaced the stored one).
    pub appended: usize,
    /// `true` when the batch forced a full index rebuild; `false` on
    /// the pure-append splice path, which does `O(batch)` index work.
    pub rebuilt: bool,
}

/// An immutable, indexed collection of E-Scenarios.
///
/// The scenarios are kept in one id-sorted vector. Ids order time-major,
/// so the vector is its own lookup structure: an id lookup, a time slice
/// and a range query are each a binary search over it. The inverted
/// EID → scenario index ([`ScenarioIndex`]) is built lazily on first use
/// and then shared by every pipeline reading the store.
#[derive(Debug)]
pub struct EScenarioStore {
    /// Sorted by id, no duplicates.
    scenarios: Vec<EScenario>,
    /// Lazily built inverted index. Excluded from equality, cloning and
    /// serialization: it is derived state, rebuilt on demand.
    inverted: OnceLock<ScenarioIndex>,
}

impl Clone for EScenarioStore {
    fn clone(&self) -> Self {
        EScenarioStore {
            scenarios: self.scenarios.clone(),
            // A clone starts with a fresh (unbuilt) index so its usage
            // counters are independent of the original's.
            inverted: OnceLock::new(),
        }
    }
}

impl PartialEq for EScenarioStore {
    fn eq(&self, other: &Self) -> bool {
        // The inverted index is derived from `scenarios`; comparing the
        // source of truth is enough.
        self.scenarios == other.scenarios
    }
}

impl Serialize for EScenarioStore {
    fn to_value(&self) -> serde::Value {
        // Only the scenarios are persisted; every index is rebuilt on
        // deserialization (they are pure functions of the scenarios).
        self.scenarios.to_value()
    }
}

impl Deserialize for EScenarioStore {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        Ok(EScenarioStore::from_scenarios(
            Vec::<EScenario>::from_value(value)?,
        ))
    }
}

impl EScenarioStore {
    /// Builds a store from scenarios. Later duplicates of the same
    /// scenario id replace earlier ones.
    #[must_use]
    pub fn from_scenarios(mut scenarios: Vec<EScenario>) -> Self {
        if !scenarios.is_sorted_by(|a, b| a.id() < b.id()) {
            // Stable, so each run of one id keeps its input order and
            // the last of the run is the one kept.
            scenarios.sort_by_key(EScenario::id);
            scenarios.dedup_by(|later, kept| {
                let repeat = later.id() == kept.id();
                if repeat {
                    std::mem::swap(later, kept);
                }
                repeat
            });
        }
        scenarios.shrink_to_fit();
        EScenarioStore {
            scenarios,
            inverted: OnceLock::new(),
        }
    }

    /// The scenarios from the first whose time is at least `t` on.
    fn since(&self, t: Timestamp) -> &[EScenario] {
        let start = self.scenarios.partition_point(|s| s.time() < t);
        &self.scenarios[start..]
    }

    /// The inverted EID → scenario index, built on first call and cached
    /// for the lifetime of the store.
    #[must_use]
    pub fn index(&self) -> &ScenarioIndex {
        self.inverted
            .get_or_init(|| ScenarioIndex::build(&self.scenarios))
    }

    /// Number of scenarios stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// Looks a scenario up by id.
    #[must_use]
    pub fn get(&self, id: ScenarioId) -> Option<&EScenario> {
        let at = self.scenarios.binary_search_by_key(&id, EScenario::id);
        at.ok().map(|i| &self.scenarios[i])
    }

    /// Iterates over all scenarios in id order.
    pub fn iter(&self) -> impl Iterator<Item = &EScenario> {
        self.scenarios.iter()
    }

    /// All distinct timestamps with at least one scenario, ascending.
    pub fn times(&self) -> impl Iterator<Item = Timestamp> + '_ {
        (self.scenarios.chunk_by(|a, b| a.time() == b.time())).map(|run| run[0].time())
    }

    /// Scenarios snapshotted at exactly `t`.
    pub fn at_time(&self, t: Timestamp) -> impl Iterator<Item = &EScenario> {
        self.since(t).iter().take_while(move |s| s.time() == t)
    }

    /// Spatiotemporal range query: scenarios within `range` and, if given,
    /// restricted to `cells`.
    pub fn query<'a>(
        &'a self,
        range: TimeRange,
        cells: Option<&'a [CellId]>,
    ) -> impl Iterator<Item = &'a EScenario> + 'a {
        (self.since(range.start).iter())
            .take_while(move |s| s.time() < range.end)
            .filter(move |s| cells.is_none_or(|cs| cs.contains(&s.cell())))
    }

    /// All scenarios containing `eid`, in id (= scan) order. Answered
    /// from the inverted index posting list — `O(|postings| log |store|)`
    /// instead of a full scan, with identical results.
    pub fn containing(&self, eid: Eid) -> impl Iterator<Item = &EScenario> {
        self.index()
            .postings(eid)
            .iter()
            .filter_map(move |&id| self.get(id))
    }

    /// Appends a batch of scenarios in place, splicing the indexes when
    /// possible instead of rebuilding them.
    ///
    /// The **fast path** applies when every scenario in `batch` has an
    /// id strictly greater than everything already stored (the common
    /// shape of an incremental ingest: today's snapshots all sort after
    /// yesterday's, because scenario ids order time-major). It appends
    /// to the scenario vector and — if the inverted index was already
    /// built — extends its posting lists in place, all in
    /// `O(batch × log |store|)` work. Posting lists
    /// stay sorted because every appended id is greater than every id
    /// already posted.
    ///
    /// Batches with collisions, out-of-order ids, or internal duplicates
    /// fall back to a full rebuild (`rebuilt = true` in the returned
    /// stats), preserving the later-wins semantics of
    /// [`EScenarioStore::from_scenarios`].
    pub fn ingest(&mut self, mut batch: Vec<EScenario>) -> IngestStats {
        if batch.is_empty() {
            return IngestStats {
                appended: 0,
                rebuilt: false,
            };
        }
        batch.sort_by_key(EScenario::id);
        let internally_unique = batch.windows(2).all(|w| w[0].id() < w[1].id());
        let after_existing = match self.scenarios.last() {
            Some(last) => batch[0].id() > last.id(),
            None => true,
        };
        if !(internally_unique && after_existing) {
            let mut all = std::mem::take(&mut self.scenarios);
            let appended = batch.len();
            all.extend(batch);
            *self = EScenarioStore::from_scenarios(all);
            return IngestStats {
                appended,
                rebuilt: true,
            };
        }

        // Fast path: pure append. Extend the built inverted index (if
        // any) rather than dropping it; `OnceLock::take` hands it back
        // for in-place splicing.
        if let Some(mut index) = self.inverted.take() {
            index.extend(batch.iter());
            let _ = self.inverted.set(index);
        }
        let appended = batch.len();
        self.scenarios.extend(batch);
        IngestStats {
            appended,
            rebuilt: false,
        }
    }

    /// Total number of (scenario, EID) membership records — the raw E-data
    /// volume, used by the cost accounting.
    #[must_use]
    pub fn record_count(&self) -> u64 {
        self.scenarios.iter().map(|s| s.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_core::scenario::ZoneAttr;

    fn scenario(cell: usize, time: u64, eids: &[u64]) -> EScenario {
        let mut s = EScenario::new(CellId::new(cell), Timestamp::new(time));
        for &e in eids {
            s.insert(Eid::from_u64(e), ZoneAttr::Inclusive);
        }
        s
    }

    /// The oracle for [`EScenarioStore::containing`]: walk every
    /// scenario's members.
    fn holding_by_walk(store: &EScenarioStore, eid: Eid) -> Vec<ScenarioId> {
        let holding = store.iter().filter(|s| s.contains(eid));
        holding.map(EScenario::id).collect()
    }

    fn store() -> EScenarioStore {
        EScenarioStore::from_scenarios(vec![
            scenario(0, 0, &[1, 2]),
            scenario(1, 0, &[3]),
            scenario(0, 1, &[1]),
            scenario(2, 2, &[2, 3]),
        ])
    }

    #[test]
    fn basic_lookup() {
        let s = store();
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        let id = ScenarioId::new(Timestamp::new(0), CellId::new(1));
        assert_eq!(s.get(id).unwrap().len(), 1);
        let missing = ScenarioId::new(Timestamp::new(9), CellId::new(9));
        assert!(s.get(missing).is_none());
    }

    #[test]
    fn duplicate_ids_are_replaced() {
        let s =
            EScenarioStore::from_scenarios(vec![scenario(0, 0, &[1]), scenario(0, 0, &[1, 2, 3])]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.iter().next().unwrap().len(), 3, "later wins");
    }

    #[test]
    fn time_index() {
        let s = store();
        assert_eq!(s.at_time(Timestamp::new(0)).count(), 2);
        assert_eq!(s.at_time(Timestamp::new(1)).count(), 1);
        assert_eq!(s.at_time(Timestamp::new(9)).count(), 0);
        let times: Vec<u64> = s.times().map(Timestamp::tick).collect();
        assert_eq!(times, vec![0, 1, 2]);
    }

    #[test]
    fn range_query_with_and_without_cells() {
        let s = store();
        let range = TimeRange::new(Timestamp::new(0), Timestamp::new(2));
        assert_eq!(s.query(range, None).count(), 3, "t in {{0, 1}}");
        let cells = [CellId::new(0)];
        assert_eq!(s.query(range, Some(&cells)).count(), 2);
        let empty = TimeRange::new(Timestamp::new(5), Timestamp::new(9));
        assert_eq!(s.query(empty, None).count(), 0);
    }

    #[test]
    fn containing_scans_memberships() {
        let s = store();
        assert_eq!(s.containing(Eid::from_u64(1)).count(), 2);
        assert_eq!(s.containing(Eid::from_u64(3)).count(), 2);
        assert_eq!(s.containing(Eid::from_u64(9)).count(), 0);
    }

    #[test]
    fn containing_matches_scan_reference() {
        let s = store();
        for e in 0..10 {
            let eid = Eid::from_u64(e);
            let indexed: Vec<ScenarioId> = s.containing(eid).map(EScenario::id).collect();
            assert_eq!(
                indexed,
                holding_by_walk(&s, eid),
                "order and content for EID {e}"
            );
        }
    }

    #[test]
    fn index_is_built_once_and_survives_clone() {
        let s = store();
        let first = s.index() as *const _;
        let second = s.index() as *const _;
        assert_eq!(first, second, "same cached index");
        let cloned = s.clone();
        assert_eq!(cloned, s, "clone equals original");
        assert_eq!(
            cloned.index().stats().postings_probed,
            0,
            "clone starts with fresh counters"
        );
    }

    #[test]
    fn serde_round_trip_rebuilds_indexes() {
        let s = store();
        let value = s.to_value();
        let back = EScenarioStore::from_value(&value).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.at_time(Timestamp::new(0)).count(), 2);
        assert_eq!(back.containing(Eid::from_u64(1)).count(), 2);
    }

    #[test]
    fn record_count_sums_memberships() {
        assert_eq!(store().record_count(), 6);
    }

    #[test]
    fn ingest_appends_splice_instead_of_rebuilding() {
        let mut s = store();
        // Build the inverted index and leave a fingerprint on its usage
        // counters; a rebuild would discard them.
        let _ = s.containing(Eid::from_u64(1)).count();
        assert_eq!(s.index().stats().postings_probed, 1);

        // Every batch id sorts after everything stored: splice path.
        let mut vague = scenario(1, 3, &[1]);
        vague.insert(Eid::from_u64(9), ZoneAttr::Vague);
        let stats = s.ingest(vec![vague, scenario(0, 4, &[2])]);
        assert_eq!(
            stats,
            IngestStats {
                appended: 2,
                rebuilt: false
            }
        );
        assert_eq!(
            s.index().stats().postings_probed,
            1,
            "the built index survived the ingest (no rebuild)"
        );

        // Spliced store answers queries exactly like a fresh rebuild.
        let rebuilt = EScenarioStore::from_scenarios(s.iter().cloned().collect());
        assert_eq!(s, rebuilt);
        for e in 0..10 {
            let eid = Eid::from_u64(e);
            let spliced: Vec<ScenarioId> = s.containing(eid).map(EScenario::id).collect();
            let scanned = holding_by_walk(&s, eid);
            let reference: Vec<ScenarioId> = rebuilt.containing(eid).map(EScenario::id).collect();
            assert_eq!(spliced, scanned, "EID {e}: index matches scan");
            assert_eq!(spliced, reference, "EID {e}: splice matches rebuild");
            let zones: Vec<_> = s.index().zoned_postings(eid).collect();
            let attrs = s.iter().filter_map(|sc| Some((sc.id(), sc.attr(eid)?)));
            assert_eq!(
                zones,
                attrs.collect::<Vec<_>>(),
                "EID {e}: zones splice too"
            );
        }
        assert_eq!(s.at_time(Timestamp::new(3)).count(), 1);
    }

    #[test]
    fn repeated_small_ingests_never_rebuild() {
        // The regression this guards: re-indexing the whole store per
        // batch makes N daily ingests O(N²·store). Appending
        // strictly-newer snapshots must stay on the splice path every
        // single time.
        let mut s = store();
        let _ = s.index();
        for day in 3..40u64 {
            let stats = s.ingest(vec![scenario(0, day, &[day]), scenario(1, day, &[1])]);
            assert!(!stats.rebuilt, "append-only batch for day {day} rebuilt");
        }
        assert_eq!(s.len(), 4 + 37 * 2);
        assert_eq!(s.containing(Eid::from_u64(1)).count(), 2 + 37);
    }

    #[test]
    fn colliding_or_out_of_order_ingest_falls_back_to_rebuild() {
        let mut s = store();
        let _ = s.index();
        // Collides with the stored (t0, c0) scenario.
        let stats = s.ingest(vec![scenario(0, 0, &[7])]);
        assert!(stats.rebuilt);
        let id = ScenarioId::new(Timestamp::new(0), CellId::new(0));
        assert!(s.get(id).unwrap().contains(Eid::from_u64(7)), "later wins");
        assert!(!s.get(id).unwrap().contains(Eid::from_u64(1)));

        // Internal duplicate: also a rebuild, last duplicate wins.
        let mut s2 = store();
        let stats = s2.ingest(vec![scenario(9, 9, &[1]), scenario(9, 9, &[2])]);
        assert!(stats.rebuilt);
        let id9 = ScenarioId::new(Timestamp::new(9), CellId::new(9));
        assert!(s2.get(id9).unwrap().contains(Eid::from_u64(2)));

        // Empty batch is a no-op either way.
        let stats = s2.ingest(vec![]);
        assert_eq!(
            stats,
            IngestStats {
                appended: 0,
                rebuilt: false
            }
        );
    }
}
