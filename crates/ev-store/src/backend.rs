//! [`StoreBackend`]: one trait over every way a corpus can be held.
//!
//! The matching pipelines only ever need two things from a corpus: the
//! indexed E-Scenario store and the video store. This trait abstracts
//! over where those live — built in memory ([`MemoryBackend`]), loaded
//! from a persistent segment directory (`ev_disk::DiskBackend`), or
//! generated (`ev_datagen::EvDataset`) — so `refine`, the incremental
//! updater and the stage-DAG pipeline run unchanged against any of them.

use crate::estore::EScenarioStore;
use crate::video::VideoStore;

/// A source of the two stores the matching pipelines read.
///
/// Implementations hand out references, so a backend materializes its
/// stores once (at construction or load) and every pipeline borrows
/// them; nothing about the trait forces a copy per run.
pub trait StoreBackend {
    /// The indexed E-Scenario store.
    fn estore(&self) -> &EScenarioStore;

    /// The video corpus with its cost model.
    fn video(&self) -> &VideoStore;
}

impl<B: StoreBackend + ?Sized> StoreBackend for &B {
    fn estore(&self) -> &EScenarioStore {
        (**self).estore()
    }

    fn video(&self) -> &VideoStore {
        (**self).video()
    }
}

/// A pair of already-borrowed stores is itself a backend — the adapter
/// that lets existing call sites holding `(&estore, &video)` feed the
/// backend-generic entry points without restructuring.
impl StoreBackend for (&EScenarioStore, &VideoStore) {
    fn estore(&self) -> &EScenarioStore {
        self.0
    }

    fn video(&self) -> &VideoStore {
        self.1
    }
}

/// The in-memory backend: owns both stores directly.
#[derive(Debug)]
pub struct MemoryBackend {
    estore: EScenarioStore,
    video: VideoStore,
}

impl MemoryBackend {
    /// Wraps already-built stores.
    #[must_use]
    pub fn new(estore: EScenarioStore, video: VideoStore) -> Self {
        MemoryBackend { estore, video }
    }

    /// Consumes the backend, handing the stores back.
    #[must_use]
    pub fn into_parts(self) -> (EScenarioStore, VideoStore) {
        (self.estore, self.video)
    }
}

impl StoreBackend for MemoryBackend {
    fn estore(&self) -> &EScenarioStore {
        &self.estore
    }

    fn video(&self) -> &VideoStore {
        &self.video
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_core::ids::Eid;
    use ev_core::region::CellId;
    use ev_core::scenario::{EScenario, ZoneAttr};
    use ev_core::time::Timestamp;
    use ev_vision::cost::CostModel;

    fn backend() -> MemoryBackend {
        let mut s = EScenario::new(CellId::new(0), Timestamp::new(0));
        s.insert(Eid::from_u64(1), ZoneAttr::Inclusive);
        MemoryBackend::new(
            EScenarioStore::from_scenarios(vec![s]),
            VideoStore::new(vec![], CostModel::default()),
        )
    }

    #[test]
    fn memory_backend_borrows_its_stores() {
        let b = backend();
        assert_eq!(b.estore().len(), 1);
        assert!(b.video().is_empty());
        // A reference to a backend is a backend.
        let by_ref: &dyn StoreBackend = &&b;
        assert_eq!(by_ref.estore().len(), 1);
    }

    #[test]
    fn store_pair_is_a_backend() {
        let b = backend();
        let (estore, video) = b.into_parts();
        let pair = (&estore, &video);
        assert_eq!(pair.estore().len(), 1);
        assert!(pair.video().is_empty());
    }
}
