//! [`DiskBackend`]: a loaded persistent corpus behind the
//! [`StoreBackend`] trait.
//!
//! Opening a backend replays the manifest and walks every committed
//! segment once, verifying it. E records are decoded into the same
//! [`EScenarioStore`] an all-RAM run would build; V records are only
//! located, and the [`VideoStore`] reads and decodes one when a match
//! extracts it (`DESIGN.md` §6.6). Every pipeline downstream of
//! [`StoreBackend`] is byte-for-byte oblivious to where the corpus came
//! from — what changes is that memory holds the footage a running match
//! selected, not the corpus.

use std::path::Path;

use ev_store::{EScenarioStore, StoreBackend, VideoStore};
use ev_telemetry::Telemetry;
use ev_vision::cost::CostModel;

use crate::error::DiskResult;
use crate::store::{DiskStore, RecoveryMode, RecoveryReport};

/// A persistent corpus, opened and recovered, its E-data loaded and its
/// V-data verified and indexed.
#[derive(Debug)]
pub struct DiskBackend {
    store: DiskStore,
    estore: EScenarioStore,
    video: VideoStore,
}

impl DiskBackend {
    /// Opens the corpus at `dir` in [`RecoveryMode::Strict`] and loads
    /// both stores (see [`DiskStore::load_estore`],
    /// [`DiskStore::load_video`]), charging video costs against `cost`.
    ///
    /// # Errors
    ///
    /// Any [`crate::DiskError`] from the open, recovery or load.
    pub fn open(dir: impl AsRef<Path>, cost: CostModel) -> DiskResult<Self> {
        DiskBackend::open_with(dir, cost, RecoveryMode::Strict, Telemetry::disabled())
    }

    /// As [`DiskBackend::open`], with an explicit recovery mode and a
    /// telemetry handle that receives the disk load spans and counters.
    ///
    /// # Errors
    ///
    /// Any [`crate::DiskError`] from the open, recovery or load.
    pub fn open_with(
        dir: impl AsRef<Path>,
        cost: CostModel,
        mode: RecoveryMode,
        telemetry: &Telemetry,
    ) -> DiskResult<Self> {
        let store = DiskStore::open_with(dir.as_ref(), mode, telemetry)?;
        let estore = store.load_estore()?;
        let video = store.load_video(cost)?;
        Ok(DiskBackend {
            store,
            estore,
            video,
        })
    }

    /// The underlying segment store (for appends or inspection).
    #[must_use]
    pub fn disk(&self) -> &DiskStore {
        &self.store
    }

    /// What recovery repaired while opening.
    #[must_use]
    pub fn recovery(&self) -> &RecoveryReport {
        self.store.recovery()
    }
}

impl StoreBackend for DiskBackend {
    fn estore(&self) -> &EScenarioStore {
        &self.estore
    }

    fn video(&self) -> &VideoStore {
        &self.video
    }
}
