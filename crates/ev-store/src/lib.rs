//! Spatiotemporal scenario database.
//!
//! The matching algorithms consume scenarios through two stores with very
//! different cost profiles:
//!
//! * [`EScenarioStore`] — cheap, fully materialized E-Scenarios with a
//!   time-major index and spatiotemporal range queries (the "big
//!   spatial data" side of the paper's related work);
//! * [`VideoStore`] — the raw video corpus. A V-Scenario is only *handles*
//!   until [`VideoStore::extract`] runs human detection and feature
//!   extraction on it, which charges the vision cost model. Extraction is
//!   cached: a V-Scenario reused for several EIDs is processed once
//!   (paper §IV-A: "we only need to process this V-Scenario once"). For
//!   a corpus opened from disk the handle is literal — a
//!   [`FootageLocation`] inside a [`FootageSource`] — and the footage
//!   is read and decoded by the first extraction that asks for it.
//!
//! # Example
//!
//! ```
//! use ev_core::{EScenario, ZoneAttr, Eid};
//! use ev_core::region::CellId;
//! use ev_core::time::Timestamp;
//! use ev_store::EScenarioStore;
//!
//! let mut s = EScenario::new(CellId::new(0), Timestamp::new(5));
//! s.insert(Eid::from_u64(1), ZoneAttr::Inclusive);
//! let store = EScenarioStore::from_scenarios(vec![s]);
//! assert_eq!(store.len(), 1);
//! assert_eq!(store.at_time(Timestamp::new(5)).count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod estore;
mod index;
mod video;

pub use backend::StoreBackend;
pub use estore::{EScenarioStore, IngestStats};
pub use index::{IndexStatsSnapshot, ScenarioIndex};
pub use video::{FootageLocation, FootageSource, VideoStore, VideoStoreStats};
