//! The video store: footage that is resident while something holds it,
//! with cost-charged, cached V-Scenario extraction.

use ev_core::scenario::{ScenarioId, VScenario};
use ev_vision::cost::CostModel;
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Arc, OnceLock, Weak};

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

/// What a located slot remembers between requests.
#[derive(Debug)]
enum Loaded {
    /// The decoded footage while anyone holds it: dangling before the
    /// first load and after its last holder let go.
    Live(Weak<VScenario>),
    /// The load failed (the store has latched why): never retried.
    Failed,
}

/// One footage entry: decoded in memory, or still where it is stored.
#[derive(Debug)]
enum Slot {
    Resident(Arc<VScenario>),
    Located {
        at: FootageLocation,
        /// Locked across a load, so concurrent requests for one slot
        /// load it once.
        loaded: Mutex<Loaded>,
    },
}

impl Slot {
    /// The decoded footage: the live copy if anyone still holds one,
    /// otherwise read, verified and decoded again. `None` when the load
    /// fails, now or before (the store has latched why).
    fn footage(
        &self,
        id: ScenarioId,
        load_error: &OnceLock<ev_core::Error>,
    ) -> Option<Arc<VScenario>> {
        let (at, loaded) = match self {
            Slot::Resident(scenario) => return Some(Arc::clone(scenario)),
            Slot::Located { at, loaded } => (at, loaded),
        };
        let mut loaded = loaded.lock();
        let Loaded::Live(live) = &*loaded else {
            return None;
        };
        if let Some(scenario) = live.upgrade() {
            return Some(scenario);
        }
        match at.source.load(id, at.offset, at.len) {
            Ok(scenario) => {
                let scenario = Arc::new(scenario);
                *loaded = Loaded::Live(Arc::downgrade(&scenario));
                Some(scenario)
            }
            Err(e) => {
                let _ = load_error.set(e);
                *loaded = Loaded::Failed;
                None
            }
        }
    }
}

/// The raw video corpus, keyed by scenario id.
///
/// Conceptually the store holds unprocessed footage; calling
/// [`extract`](VideoStore::extract) runs (simulated) human detection and
/// feature extraction, burning [`CostModel::v_extraction`] work units per
/// detection. Repeat extractions of the same scenario are free cache hits
/// — this is what makes scenario *reuse* across EIDs profitable for the
/// set-splitting algorithm.
///
/// # What is resident when
///
/// Footage handed over decoded ([`new`](VideoStore::new),
/// [`ingest`](VideoStore::ingest)) is resident from the start. Footage
/// the store was only told the location of
/// ([`located`](VideoStore::located) — how `ev-disk` opens a corpus) is
/// read, verified and decoded by an [`extract`](VideoStore::extract)
/// that asks for it, and lives exactly as long as someone holds the
/// `Arc` it returned (**natural release**, the DAG's rule for its
/// partitions): while any holder lives, every `extract` shares that
/// copy; once the last one drops it, the next `extract` reads and
/// verifies the frame again. There is no capacity and no eviction. A
/// match therefore holds in memory the V-Scenarios it selected, for as
/// long as it runs — and a held store holds none between matches. The
/// one exception is a [`scenarios`](VideoStore::scenarios) walk, which
/// lends out `&VScenario` and so pins the corpus until the store is
/// dropped.
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
    state: Mutex<ExtractState>,
    load_error: OnceLock<ev_core::Error>,
    /// The located footage a [`scenarios`](Self::scenarios) walk
    /// loaded, in id order: held for as long as the store lives,
    /// because the walk lends it out.
    walked: OnceLock<Vec<Arc<VScenario>>>,
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
    /// until asked for. On a scenario-id collision the later entry wins.
    #[must_use]
    pub fn located(
        entries: impl IntoIterator<Item = (ScenarioId, FootageLocation)>,
        cost: CostModel,
    ) -> Self {
        let mut footage = BTreeMap::new();
        for (id, at) in entries {
            let slot = Slot::Located {
                at,
                loaded: Mutex::new(Loaded::Live(Weak::new())),
            };
            footage.insert(id, slot);
        }
        VideoStore::over(footage, cost)
    }

    fn over(footage: BTreeMap<ScenarioId, Slot>, cost: CostModel) -> Self {
        VideoStore {
            footage,
            cost,
            state: Mutex::new(ExtractState::default()),
            load_error: OnceLock::new(),
            walked: OnceLock::new(),
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
    /// V-segments. The first walk loads all located footage and keeps
    /// it until the store is dropped or next [`ingest`](Self::ingest)s
    /// (the walk lends it out for that long), so later walks and
    /// extracts load nothing; an entry whose
    /// load fails is skipped and latched, so a walk that must be
    /// complete ends with [`check_loads`](Self::check_loads).
    pub fn scenarios(&self) -> impl Iterator<Item = &VScenario> {
        let walked = self.walked.get_or_init(|| {
            let located = self
                .footage
                .iter()
                .filter(|(_, slot)| matches!(slot, Slot::Located { .. }));
            located
                .filter_map(|(&id, slot)| slot.footage(id, &self.load_error))
                .collect()
        });
        let mut walked = walked.iter().peekable();
        self.footage
            .iter()
            .filter_map(move |(&id, slot)| match slot {
                Slot::Resident(scenario) => Some(&**scenario),
                Slot::Located { .. } => walked.next_if(|s| s.id() == id).map(|s| &**s),
            })
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
    /// first call and counting a cache hit afterwards — also when the
    /// footage was released in between and is read again. Returns
    /// `None` when no footage covers `id` (e.g. nobody was detected
    /// there) — and also when its footage failed to load, which
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
            // Burn the work outside the lock so concurrent extractions of
            // different scenarios overlap.
            let _ = CostModel::charge(units);
        }
        Some(scenario)
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
        // The slots change under a walk's pins: the next walk pins afresh.
        self.walked = OnceLock::new();
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

    /// Forgets all cached extractions and zeroes the counters (for running
    /// several experiments against the same corpus). Accounting only:
    /// footage someone still holds stays shared, and a latched load
    /// error stays latched.
    pub fn reset_usage(&self) {
        let mut state = self.state.lock();
        state.processed.clear();
        state.cache_hits = 0;
        state.extracted_detections = 0;
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
        let _ = s.extract(id(0, 0));
        let stats = s.stats();
        assert_eq!(stats.extracted_scenarios, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.extracted_detections, 2);
    }

    #[test]
    fn reset_usage_clears_everything() {
        let s = store();
        let _ = s.extract(id(0, 0));
        s.reset_usage();
        assert_eq!(s.stats(), VideoStoreStats::default());
        // Extraction charges again after a reset.
        let _ = s.extract(id(0, 0));
        assert_eq!(s.stats().extracted_detections, 2);
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
    fn located_footage_lives_while_held_and_is_read_again_after() {
        let source = Arc::new(FakeSource {
            held: vec![vscenario(0, 0, &[1, 2]), vscenario(1, 0, &[3])],
            ..FakeSource::default()
        });
        let s = located_store(&source);
        assert_eq!(s.len(), 2, "located entries count as footage");
        assert!(s.contains(id(1, 0)));
        assert_eq!(loads(&source), 0, "building the store loads nothing");

        let held = s.extract(id(0, 0)).unwrap();
        assert_eq!(held.len(), 2);
        let again = s.extract(id(0, 0)).unwrap();
        s.reset_usage();
        let after_reset = s.extract(id(0, 0)).unwrap();
        assert_eq!(
            loads(&source),
            1,
            "one load while a holder lives; neither a repeat nor reset_usage reloads"
        );
        assert!(Arc::ptr_eq(&held, &again) && Arc::ptr_eq(&held, &after_reset));
        assert_eq!(s.stats().extracted_scenarios, 1);

        drop((held, again, after_reset));
        let reloaded = s.extract(id(0, 0)).unwrap();
        assert_eq!(
            loads(&source),
            2,
            "the last holder gone, the next extract reads again"
        );
        assert_eq!(*reloaded, source.held[0]);
        let stats = s.stats();
        assert_eq!(
            (stats.extracted_scenarios, stats.cache_hits),
            (1, 1),
            "a reload is not charged again"
        );
        drop(reloaded);

        assert_eq!(s.scenarios().count(), 2, "a walk loads what nobody holds");
        assert_eq!(loads(&source), 4);
        for _ in 0..3 {
            assert!(s.extract(id(0, 0)).is_some() && s.extract(id(1, 0)).is_some());
        }
        assert_eq!(
            loads(&source),
            4,
            "the walk pinned both: later extracts load nothing"
        );
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

        // The failure is remembered, not retried — though nothing holds
        // the slot, unlike released footage — and survives the
        // operations that rebuild usage state.
        assert!(s.extract(id(1, 0)).is_none());
        assert_eq!(loads(&source), 2);
        assert_eq!(s.scenarios().count(), 1, "the walk skips it");
        assert_eq!(
            loads(&source),
            3,
            "the walk reads only the released one again"
        );
        s.reset_usage();
        assert!(s.extract(id(1, 0)).is_none());
        assert_eq!(loads(&source), 3);
        assert_eq!(s.check_loads(), Err(err));
    }

    #[test]
    fn ingest_replaces_located_footage_with_resident() {
        let source = Arc::new(FakeSource {
            held: vec![
                vscenario(0, 0, &[1, 2]),
                vscenario(1, 0, &[3]),
                vscenario(2, 0, &[4]),
            ],
            ..FakeSource::default()
        });
        let mut s = located_store(&source);
        s.ingest(vec![vscenario(0, 0, &[5])]);
        assert_eq!(s.extract(id(0, 0)).unwrap().len(), 1);
        assert_eq!(loads(&source), 0, "the superseded location is never read");

        // After a walk pinned the located footage, an ingest replaces
        // one of those entries: the next walk shows the replacement
        // and every entry around it.
        assert_eq!(s.scenarios().count(), 3);
        assert_eq!(loads(&source), 2);
        s.ingest(vec![vscenario(1, 0, &[6, 7])]);
        let walked: Vec<usize> = s.scenarios().map(VScenario::len).collect();
        assert_eq!(walked, [1, 2, 1]);
    }

    #[test]
    fn concurrent_extractors_that_keep_what_they_get_share_one_load() {
        let source = Arc::new(FakeSource {
            held: (0..16).map(|i| vscenario(i, 0, &[i as u64])).collect(),
            ..FakeSource::default()
        });
        let s = located_store(&source);
        let kept: Vec<Vec<Arc<VScenario>>> = std::thread::scope(|scope| {
            let extractors: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| (0..16).map(|i| s.extract(id(i, 0)).unwrap()).collect()))
                .collect();
            extractors.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(loads(&source), 16);
        assert_eq!(s.stats().extracted_scenarios, 16);
        for copies in &kept {
            for (mine, first) in copies.iter().zip(&kept[0]) {
                assert!(Arc::ptr_eq(mine, first), "every extractor shares one copy");
            }
        }
        drop(kept);
        assert!(s.extract(id(3, 0)).is_some());
        assert_eq!(loads(&source), 17, "released once all eight let go");
    }

    #[test]
    fn concurrent_extraction_charges_each_scenario_once() {
        let scenarios: Vec<VScenario> = (0..16).map(|i| vscenario(i, 0, &[i as u64])).collect();
        let s = Arc::new(VideoStore::new(
            scenarios,
            CostModel {
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
        let stats = s.stats();
        assert_eq!(stats.extracted_detections, 16, "each scenario charged once");
        assert_eq!(stats.extracted_scenarios, 16);
        assert_eq!(stats.cache_hits, 7 * 16);
    }
}
