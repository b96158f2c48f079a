//! The video store: footage that becomes resident when it is extracted,
//! with cost-charged, cached V-Scenario extraction.

use ev_core::scenario::{ScenarioId, VScenario};
use ev_vision::cost::{CostLedger, CostModel};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Usage statistics of a [`VideoStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VideoStoreStats {
    /// Distinct V-Scenarios extracted so far.
    pub extracted_scenarios: usize,
    /// Extraction requests answered from the cache.
    pub cache_hits: u64,
    /// Total detections processed by extraction.
    pub extracted_detections: u64,
}

/// Somewhere encoded footage is kept until a match asks for it — one
/// committed segment file of an `ev-disk` corpus.
pub trait FootageSource: fmt::Debug + Send + Sync {
    /// Reads, verifies and decodes the V-Scenario `id`, whose encoded
    /// bytes are the `len` bytes at `offset` of this source.
    ///
    /// # Errors
    ///
    /// [`ev_core::Error::FootageUnavailable`] when the bytes cannot be
    /// read, fail their integrity check, do not decode, or decode to a
    /// scenario other than `id`.
    fn load(&self, id: ScenarioId, offset: u64, len: u32) -> ev_core::Result<VScenario>;
}

/// Where the encoded bytes of one V-Scenario live.
#[derive(Debug, Clone)]
pub struct FootageLocation {
    /// The source holding the bytes.
    pub source: Arc<dyn FootageSource>,
    /// Byte offset of the encoded scenario within the source.
    pub offset: u64,
    /// Encoded length in bytes.
    pub len: u32,
}

/// One footage entry: decoded in memory, or still where it is stored.
#[derive(Debug, Clone)]
enum Slot {
    Resident(Arc<VScenario>),
    Located {
        at: FootageLocation,
        /// Set by the first request: the decoded footage, or `None` when
        /// the load failed (the store has latched why).
        loaded: OnceLock<Option<Arc<VScenario>>>,
    },
}

impl Slot {
    /// The decoded footage, loading it on first use. `OnceLock` makes
    /// concurrent first requests for one slot load it once.
    fn footage(
        &self,
        id: ScenarioId,
        load_error: &OnceLock<ev_core::Error>,
    ) -> Option<&Arc<VScenario>> {
        match self {
            Slot::Resident(scenario) => Some(scenario),
            Slot::Located { at, loaded } => loaded
                .get_or_init(|| match at.source.load(id, at.offset, at.len) {
                    Ok(scenario) => Some(Arc::new(scenario)),
                    Err(e) => {
                        let _ = load_error.set(e);
                        None
                    }
                })
                .as_ref(),
        }
    }
}

/// The raw video corpus, keyed by scenario id.
///
/// Conceptually the store holds unprocessed footage; calling
/// [`extract`](VideoStore::extract) runs (simulated) human detection and
/// feature extraction, charging [`CostModel::v_extraction`] work units per
/// detection to the store's [`CostLedger`] and burning the equivalent
/// busy-work. Repeat extractions of the same scenario are free cache hits
/// — this is what makes scenario *reuse* across EIDs profitable for the
/// set-splitting algorithm.
///
/// # What is resident when
///
/// Footage handed over decoded ([`new`](VideoStore::new),
/// [`ingest`](VideoStore::ingest)) is resident from the start. Footage
/// the store was only told the location of
/// ([`located`](VideoStore::located) — how `ev-disk` opens a corpus) is
/// read and decoded by the first [`extract`](VideoStore::extract) that
/// asks for it (or a [`scenarios`](VideoStore::scenarios) walk) and then
/// stays resident until the store is dropped: there is no eviction, and
/// [`reset_usage`](VideoStore::reset_usage) resets accounting only. A
/// match therefore holds in memory the V-Scenarios it selected, not the
/// corpus.
///
/// A load that fails is never reported as "no footage": `extract`
/// returns `None` for it, but the store latches the first such error and
/// [`check_loads`](VideoStore::check_loads) returns it from then on —
/// every matching entry point checks after its V stage and fails rather
/// than report without that footage.
///
/// The store is `Sync`: parallel mappers may extract concurrently.
#[derive(Debug)]
pub struct VideoStore {
    footage: BTreeMap<ScenarioId, Slot>,
    cost: CostModel,
    ledger: CostLedger,
    state: Mutex<ExtractState>,
    load_error: OnceLock<ev_core::Error>,
}

#[derive(Debug, Default)]
struct ExtractState {
    processed: BTreeSet<ScenarioId>,
    cache_hits: u64,
    extracted_detections: u64,
}

impl VideoStore {
    /// Builds a store over pre-generated footage with the given cost
    /// model.
    #[must_use]
    pub fn new(scenarios: Vec<VScenario>, cost: CostModel) -> Self {
        let footage = scenarios
            .into_iter()
            .map(|s| (s.id(), Slot::Resident(Arc::new(s))))
            .collect();
        VideoStore::over(footage, cost)
    }

    /// Builds a store over footage that stays where `entries` says it is
    /// until first asked for. On a scenario-id collision the later entry
    /// wins.
    #[must_use]
    pub fn located(
        entries: impl IntoIterator<Item = (ScenarioId, FootageLocation)>,
        cost: CostModel,
    ) -> Self {
        let mut footage = BTreeMap::new();
        for (id, at) in entries {
            let loaded = OnceLock::new();
            footage.insert(id, Slot::Located { at, loaded });
        }
        VideoStore::over(footage, cost)
    }

    fn over(footage: BTreeMap<ScenarioId, Slot>, cost: CostModel) -> Self {
        VideoStore {
            footage,
            cost,
            ledger: CostLedger::new(),
            state: Mutex::new(ExtractState::default()),
            load_error: OnceLock::new(),
        }
    }

    /// Number of scenario footage entries (processed or not).
    #[must_use]
    pub fn len(&self) -> usize {
        self.footage.len()
    }

    /// Whether the store holds no footage.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.footage.is_empty()
    }

    /// Whether footage exists for `id`.
    #[must_use]
    pub fn contains(&self, id: ScenarioId) -> bool {
        self.footage.contains_key(&id)
    }

    /// Iterates the raw footage in scenario-id order *without*
    /// extracting it (no vision cost is charged). This is the
    /// persistence export path: `ev-disk` walks it to encode
    /// V-segments. Footage not resident yet is loaded as the walk
    /// reaches it; an entry whose load fails is skipped and latched, so
    /// a walk that must be complete ends with
    /// [`check_loads`](Self::check_loads).
    pub fn scenarios(&self) -> impl Iterator<Item = &VScenario> {
        self.footage
            .iter()
            .filter_map(|(&id, slot)| slot.footage(id, &self.load_error))
            .map(Arc::as_ref)
    }

    /// Fails with the first footage-load error since the store was
    /// built, if there was one.
    ///
    /// # Errors
    ///
    /// The latched [`ev_core::Error::FootageUnavailable`].
    pub fn check_loads(&self) -> ev_core::Result<()> {
        self.load_error.get().map_or(Ok(()), |e| Err(e.clone()))
    }

    /// Extracts the V-Scenario for `id`, charging extraction cost on the
    /// first call and serving from cache afterwards. Returns `None` when
    /// no footage covers `id` (e.g. nobody was detected there) — and
    /// also when its footage failed to load, which
    /// [`check_loads`](Self::check_loads) tells apart.
    #[must_use]
    pub fn extract(&self, id: ScenarioId) -> Option<Arc<VScenario>> {
        let scenario = self.footage.get(&id)?.footage(id, &self.load_error)?;
        let first_time = {
            let mut state = self.state.lock();
            if state.processed.contains(&id) {
                state.cache_hits += 1;
                false
            } else {
                state.processed.insert(id);
                state.extracted_detections += scenario.len() as u64;
                true
            }
        };
        if first_time {
            let units = self.cost.v_extraction * scenario.len() as u64;
            self.ledger.add_v(units);
            // Burn the work outside the lock so concurrent extractions of
            // different scenarios overlap.
            let _ = CostModel::charge(units);
        }
        Some(Arc::clone(scenario))
    }

    /// Compares two features' worth of work: charges one
    /// [`CostModel::v_comparison`] to the ledger and burns it. The caller
    /// performs the actual similarity computation.
    pub fn charge_comparison(&self) {
        self.ledger.add_v(self.cost.v_comparison);
        let _ = CostModel::charge(self.cost.v_comparison);
    }

    /// The cost ledger accumulating this store's simulated work.
    #[must_use]
    pub fn ledger(&self) -> &CostLedger {
        &self.ledger
    }

    /// The cost model in force.
    #[must_use]
    pub fn cost_model(&self) -> CostModel {
        self.cost
    }

    /// Current usage statistics.
    #[must_use]
    pub fn stats(&self) -> VideoStoreStats {
        let state = self.state.lock();
        VideoStoreStats {
            extracted_scenarios: state.processed.len(),
            cache_hits: state.cache_hits,
            extracted_detections: state.extracted_detections,
        }
    }

    /// Splices an ingest batch into the store in place. On a scenario-id
    /// collision the newer footage wins, and any cached extraction of
    /// the stale footage is forgotten so the next
    /// [`extract`](Self::extract) re-processes (and re-charges) the
    /// replacement. Returns the number of entries inserted or replaced.
    pub fn ingest(&mut self, batch: Vec<VScenario>) -> usize {
        let n = batch.len();
        let state = self.state.get_mut();
        for s in batch {
            let id = s.id();
            if self
                .footage
                .insert(id, Slot::Resident(Arc::new(s)))
                .is_some()
            {
                state.processed.remove(&id);
            }
        }
        n
    }

    /// Forgets all cached extractions and zeroes the ledger (for running
    /// several experiments against the same corpus). Accounting only:
    /// footage already loaded stays resident, and a latched load error
    /// stays latched.
    pub fn reset_usage(&self) {
        let mut state = self.state.lock();
        state.processed.clear();
        state.cache_hits = 0;
        state.extracted_detections = 0;
        self.ledger.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_core::feature::FeatureVector;
    use ev_core::region::CellId;
    use ev_core::scenario::Detection;
    use ev_core::time::Timestamp;
    use ev_core::Vid;

    fn vscenario(cell: usize, time: u64, vids: &[u64]) -> VScenario {
        let mut s = VScenario::new(CellId::new(cell), Timestamp::new(time));
        for &v in vids {
            s.push(Detection {
                vid: Vid::new(v),
                feature: FeatureVector::new(vec![0.5, 0.5]).unwrap(),
            });
        }
        s
    }

    fn store() -> VideoStore {
        VideoStore::new(
            vec![vscenario(0, 0, &[1, 2]), vscenario(1, 0, &[3])],
            CostModel {
                e_record: 1,
                v_extraction: 10,
                v_comparison: 5,
            },
        )
    }

    fn id(cell: usize, time: u64) -> ScenarioId {
        ScenarioId::new(Timestamp::new(time), CellId::new(cell))
    }

    #[test]
    fn extraction_returns_footage() {
        let s = store();
        assert_eq!(s.len(), 2);
        let v = s.extract(id(0, 0)).unwrap();
        assert_eq!(v.len(), 2);
        assert!(s.extract(id(9, 9)).is_none());
    }

    #[test]
    fn extraction_charges_once_and_caches() {
        let s = store();
        let _ = s.extract(id(0, 0));
        assert_eq!(s.ledger().v_units(), 20, "2 detections x 10 units");
        let _ = s.extract(id(0, 0));
        assert_eq!(s.ledger().v_units(), 20, "second extract is a cache hit");
        let stats = s.stats();
        assert_eq!(stats.extracted_scenarios, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.extracted_detections, 2);
    }

    #[test]
    fn comparison_charges_each_time() {
        let s = store();
        s.charge_comparison();
        s.charge_comparison();
        assert_eq!(s.ledger().v_units(), 10);
    }

    #[test]
    fn reset_usage_clears_everything() {
        let s = store();
        let _ = s.extract(id(0, 0));
        s.reset_usage();
        assert_eq!(s.ledger().total_units(), 0);
        assert_eq!(s.stats(), VideoStoreStats::default());
        // Extraction charges again after a reset.
        let _ = s.extract(id(0, 0));
        assert_eq!(s.ledger().v_units(), 20);
    }

    /// A source over in-memory scenarios that counts its loads and
    /// fails the ones listed in `broken`.
    #[derive(Debug, Default)]
    struct FakeSource {
        held: Vec<VScenario>,
        broken: Vec<u64>,
        loads: std::sync::atomic::AtomicU64,
    }

    impl FootageSource for FakeSource {
        fn load(&self, id: ScenarioId, offset: u64, _len: u32) -> ev_core::Result<VScenario> {
            self.loads
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if self.broken.contains(&offset) {
                return Err(ev_core::Error::FootageUnavailable {
                    scenario: id,
                    corrupt: true,
                    reason: "fake damage".into(),
                });
            }
            Ok(self.held[offset as usize].clone())
        }
    }

    /// A store whose every entry is located in `source`, at the offset
    /// that is its index there.
    fn located_store(source: &Arc<FakeSource>) -> VideoStore {
        let entries = source.held.iter().enumerate().map(|(i, s)| {
            let at = FootageLocation {
                source: Arc::clone(source) as Arc<dyn FootageSource>,
                offset: i as u64,
                len: 1,
            };
            (s.id(), at)
        });
        VideoStore::located(entries, CostModel::free())
    }

    fn loads(source: &FakeSource) -> u64 {
        source.loads.load(std::sync::atomic::Ordering::Relaxed)
    }

    #[test]
    fn located_footage_loads_on_first_extract_and_stays_resident() {
        let source = Arc::new(FakeSource {
            held: vec![vscenario(0, 0, &[1, 2]), vscenario(1, 0, &[3])],
            ..FakeSource::default()
        });
        let s = located_store(&source);
        assert_eq!(s.len(), 2, "located entries count as footage");
        assert!(s.contains(id(1, 0)));
        assert_eq!(loads(&source), 0, "building the store loads nothing");

        assert_eq!(s.extract(id(0, 0)).unwrap().len(), 2);
        let _ = s.extract(id(0, 0));
        s.reset_usage();
        let _ = s.extract(id(0, 0));
        assert_eq!(
            loads(&source),
            1,
            "loaded once; neither a repeat nor reset_usage reloads"
        );
        assert_eq!(s.stats().extracted_scenarios, 1);

        assert_eq!(s.scenarios().count(), 2, "a walk loads the rest");
        assert_eq!(loads(&source), 2);
        s.check_loads().unwrap();
    }

    #[test]
    fn a_failed_load_is_latched_not_reported_as_missing_footage() {
        let source = Arc::new(FakeSource {
            held: vec![vscenario(0, 0, &[1]), vscenario(1, 0, &[3])],
            broken: vec![1],
            ..FakeSource::default()
        });
        let s = located_store(&source);
        assert!(s.extract(id(0, 0)).is_some());
        s.check_loads().unwrap();

        assert!(s.extract(id(1, 0)).is_none());
        let err = s.check_loads().unwrap_err();
        assert!(
            matches!(&err, ev_core::Error::FootageUnavailable { scenario, .. } if *scenario == id(1, 0)),
            "{err:?}"
        );
        assert_eq!(
            s.stats().extracted_scenarios,
            1,
            "a failure extracts nothing"
        );

        // The failure is remembered, not retried, and survives the
        // operations that rebuild usage state.
        assert!(s.extract(id(1, 0)).is_none());
        assert_eq!(loads(&source), 2);
        assert_eq!(s.scenarios().count(), 1, "the walk skips it");
        s.reset_usage();
        assert_eq!(s.check_loads(), Err(err));
    }

    #[test]
    fn ingest_replaces_located_footage_with_resident() {
        let source = Arc::new(FakeSource {
            held: vec![vscenario(0, 0, &[1, 2])],
            ..FakeSource::default()
        });
        let mut s = located_store(&source);
        s.ingest(vec![vscenario(0, 0, &[5])]);
        assert_eq!(s.extract(id(0, 0)).unwrap().len(), 1);
        assert_eq!(loads(&source), 0, "the superseded location is never read");
    }

    #[test]
    fn concurrent_extraction_loads_each_located_scenario_once() {
        let source = Arc::new(FakeSource {
            held: (0..16).map(|i| vscenario(i, 0, &[i as u64])).collect(),
            ..FakeSource::default()
        });
        let s = located_store(&source);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for i in 0..16 {
                        assert!(s.extract(id(i, 0)).is_some());
                    }
                });
            }
        });
        assert_eq!(loads(&source), 16);
        assert_eq!(s.stats().extracted_scenarios, 16);
    }

    #[test]
    fn concurrent_extraction_charges_each_scenario_once() {
        let scenarios: Vec<VScenario> = (0..16).map(|i| vscenario(i, 0, &[i as u64])).collect();
        let s = Arc::new(VideoStore::new(
            scenarios,
            CostModel {
                e_record: 0,
                v_extraction: 7,
                v_comparison: 0,
            },
        ));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..16 {
                        let _ = s.extract(id(i, 0));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.ledger().v_units(), 16 * 7, "each scenario charged once");
        assert_eq!(s.stats().extracted_scenarios, 16);
    }
}
