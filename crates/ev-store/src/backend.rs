//! [`StoreBackend`]: one trait over every way a corpus can be held.
//!
//! The matching pipelines only ever need two things from a corpus: the
//! indexed E-Scenario store and the video store. This trait abstracts
//! over where those live — a borrowed pair of stores built in memory,
//! or a corpus loaded from a persistent segment directory
//! (`ev_disk::DiskBackend`) — so the matcher runs unchanged against
//! either.

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

#[cfg(test)]
mod tests {
    use super::*;
    use ev_core::ids::Eid;
    use ev_core::region::CellId;
    use ev_core::scenario::{EScenario, ZoneAttr};
    use ev_core::time::Timestamp;
    use ev_vision::cost::CostModel;

    #[test]
    fn store_pair_is_a_backend() {
        let mut s = EScenario::new(CellId::new(0), Timestamp::new(0));
        s.insert(Eid::from_u64(1), ZoneAttr::Inclusive);
        let estore = EScenarioStore::from_scenarios(vec![s]);
        let video = VideoStore::new(vec![], CostModel::default());
        let pair = (&estore, &video);
        assert_eq!(pair.estore().len(), 1);
        assert!(pair.video().is_empty());
        // A reference to a backend is a backend.
        let by_ref: &dyn StoreBackend = &&pair;
        assert_eq!(by_ref.estore().len(), 1);
    }
}
