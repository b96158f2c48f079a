//! **evmatch** — a reproduction of *EV-Matching: Bridging Large Visual
//! Data and Electronic Data for Efficient Surveillance* (ICDCS 2017).
//!
//! Surveillance produces two complementary big datasets: cheap
//! **electronic** identity captures (WiFi MACs, IMSIs) with coarse
//! positions, and expensive **visual** footage from which appearance
//! identities can be extracted. EV-Matching fuses them: given the EIDs of
//! interest, it finds the VID of the person carrying each device using
//! only their spatiotemporal co-occurrence — touching as little video as
//! possible.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `ev-core` | identities, geometry, scenarios, partitions |
//! | [`telemetry`] | `ev-telemetry` | tracing spans, metrics registry, run profiles |
//! | [`mobility`] | `ev-mobility` | random-waypoint world simulation |
//! | [`sensing`] | `ev-sensing` | EID capture, drift, E-Scenario builders |
//! | [`vision`] | `ev-vision` | synthetic appearance, detection, re-id, costs |
//! | [`store`] | `ev-store` | scenario database and lazy video store |
//! | [`disk`] | `ev-disk` | persistent segmented corpus with crash-safe append |
//! | [`dag`] | `ev-dag` | the parallel map (`par_map`) and its job errors |
//! | [`matching`] | `ev-matching` | set splitting, VID filtering, EDP, Algorithm 3 |
//! | [`datagen`] | `ev-datagen` | end-to-end synthetic dataset generation |
//! | [`serve`] | (this crate) | streaming ingest service with live queries |
//!
//! # Quick start
//!
//! ```
//! use evmatch::prelude::*;
//!
//! // A small synthetic world (the paper uses 1000 people; see
//! // DatasetConfig::paper()).
//! let dataset = EvDataset::generate(&DatasetConfig {
//!     population: 60,
//!     duration: 150,
//!     ..DatasetConfig::default()
//! })
//! .unwrap();
//!
//! // Match 20 EIDs of interest simultaneously.
//! let targets = sample_targets(&dataset, 20, 42);
//! let matcher = EvMatcher::new(&dataset.estore, &dataset.video, MatcherConfig::default());
//! let report = matcher.match_many(&targets).unwrap();
//!
//! let stats = score_report(&dataset, &report);
//! assert!(stats.accuracy > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ev_core as core;
pub use ev_dag as dag;
pub use ev_datagen as datagen;
pub use ev_disk as disk;
pub use ev_matching as matching;
pub use ev_mobility as mobility;
pub use ev_sensing as sensing;
pub use ev_store as store;
pub use ev_telemetry as telemetry;
pub use ev_vision as vision;

pub mod serve;

/// The most common imports in one place.
pub mod prelude {
    pub use ev_core::{Eid, PersonId, Vid};
    pub use ev_datagen::{sample_targets, score_report, DatasetConfig, EvDataset};
    pub use ev_disk::{DiskBackend, DiskStore, RecoveryMode};
    pub use ev_matching::matcher::ExecutionMode;
    pub use ev_matching::refine::SplitMode;
    pub use ev_matching::{EvMatcher, MatchReport, MatcherConfig};
    pub use ev_store::{EScenarioStore, StoreBackend, VideoStore};
    pub use ev_telemetry::{Telemetry, TelemetryLevel};

    pub use crate::serve::{LiveCorpus, ServeAnswer, ServeConfig};
}
