//! Inverted scenario index: EID → postings and (cell, time) → scenario
//! lookups over an [`EScenarioStore`](crate::EScenarioStore).
//!
//! The matching pipelines repeatedly ask two questions of the E-data:
//! *"which scenarios contain this EID?"* (set splitting, EDP
//! E-filtering, anchor/padding selection) and *"does this scenario
//! contain this EID?"* (split-gain evaluation). Both were answered by
//! linear scans over every scenario's membership map. This module
//! answers them from a one-time inverted build:
//!
//! * `postings` — for every EID, the sorted list of [`ScenarioId`]s that
//!   contain it. Scenario ids order as `(time, cell)`, which is exactly
//!   the store's iteration order, so walking a posting list visits the
//!   same scenarios in the same order as a full scan — the index-backed
//!   paths are drop-in replacements with byte-identical results.
//! * `slots` — `(cell, time)` → scenario id, for spatiotemporal point
//!   lookups.
//!
//! The index also keeps usage counters (postings probed, membership
//! binary-searches, scans avoided) behind atomics so `&self` consumers
//! can report them through the pipeline metrics.

use ev_core::ids::Eid;
use ev_core::region::CellId;
use ev_core::scenario::{EScenario, ScenarioId};
use ev_core::time::Timestamp;
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
    postings: BTreeMap<Eid, Vec<ScenarioId>>,
    /// (cell, time) → the scenario snapshotted there.
    slots: BTreeMap<(CellId, Timestamp), ScenarioId>,
    stats: IndexStats,
}

impl ScenarioIndex {
    /// Builds the index from scenarios already sorted in id order (the
    /// store's canonical order). One pass over every membership record.
    #[must_use]
    pub fn build<'a>(scenarios: impl IntoIterator<Item = &'a EScenario>) -> Self {
        let mut postings: BTreeMap<Eid, Vec<ScenarioId>> = BTreeMap::new();
        let mut slots = BTreeMap::new();
        for s in scenarios {
            let id = s.id();
            slots.insert((id.cell, id.time), id);
            for eid in s.eids() {
                postings.entry(eid).or_default().push(id);
            }
        }
        ScenarioIndex {
            postings,
            slots,
            stats: IndexStats::default(),
        }
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
    pub fn extend<'a>(&mut self, scenarios: impl IntoIterator<Item = &'a EScenario>) {
        for s in scenarios {
            let id = s.id();
            self.slots.insert((id.cell, id.time), id);
            for eid in s.eids() {
                self.postings.entry(eid).or_default().push(id);
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
        self.postings.get(&eid).map_or(&[], Vec::as_slice)
    }

    /// Whether scenario `id` contains `eid` — one binary search on the
    /// posting list instead of a scenario-map lookup per probe.
    #[must_use]
    pub fn contains(&self, eid: Eid, id: ScenarioId) -> bool {
        self.stats
            .membership_queries
            .fetch_add(1, Ordering::Relaxed);
        self.postings
            .get(&eid)
            .is_some_and(|p| p.binary_search(&id).is_ok())
    }

    /// Number of scenarios containing `eid`, without a scan.
    #[must_use]
    pub fn posting_len(&self, eid: Eid) -> usize {
        self.postings.get(&eid).map_or(0, Vec::len)
    }

    /// The scenario snapshotted at `(cell, time)`, if any.
    #[must_use]
    pub fn scenario_at(&self, cell: CellId, time: Timestamp) -> Option<ScenarioId> {
        self.slots.get(&(cell, time)).copied()
    }

    /// Number of distinct EIDs with at least one posting.
    #[must_use]
    pub fn eid_count(&self) -> usize {
        self.postings.len()
    }

    /// Iterates `(eid, posting list)` pairs in EID order.
    pub fn iter_postings(&self) -> impl Iterator<Item = (Eid, &[ScenarioId])> {
        self.postings.iter().map(|(&e, p)| (e, p.as_slice()))
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
    use ev_core::scenario::ZoneAttr;

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
        for (_, p) in idx.iter_postings() {
            assert!(p.windows(2).all(|w| w[0] < w[1]), "strictly ascending");
        }
    }

    #[test]
    fn membership_queries_answer_in_log_time() {
        let idx = index();
        assert!(idx.contains(Eid::from_u64(2), sid(0, 0)));
        assert!(idx.contains(Eid::from_u64(2), sid(2, 2)));
        assert!(!idx.contains(Eid::from_u64(2), sid(0, 1)));
        assert!(!idx.contains(Eid::from_u64(9), sid(0, 0)));
        assert_eq!(idx.posting_len(Eid::from_u64(2)), 2);
        assert_eq!(idx.posting_len(Eid::from_u64(9)), 0);
    }

    #[test]
    fn slot_lookup_finds_scenarios() {
        let idx = index();
        assert_eq!(
            idx.scenario_at(CellId::new(2), Timestamp::new(2)),
            Some(sid(2, 2))
        );
        assert_eq!(idx.scenario_at(CellId::new(2), Timestamp::new(0)), None);
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
