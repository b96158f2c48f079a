//! Visual sensing substrate.
//!
//! The paper extracts visual identities from CUHK02 person snapshots using
//! human detection plus appearance features; this crate provides the
//! synthetic equivalent (see DESIGN.md §2): every person owns a
//! ground-truth appearance vector ([`AppearanceGallery`]); each detection
//! observes it with Gaussian noise ([`VScenarioBuilder`]); detections can
//! be missed ([`DetectionModel`], the paper's *missing VID* issue); and
//! re-identification scores follow the paper's probability model
//! ([`reid`]).
//!
//! V-data processing is the expensive side of EV-Matching. The
//! [`cost`] module models that expense with deterministic busy-work so the
//! E-stage ≪ V-stage asymmetry of the paper's Figures 8–9 emerges in real
//! wall-clock measurements.
//!
//! Building the corpus is the one place this crate starts threads:
//! [`VScenarioBuilder::build_windowed`] plans every observation's offset
//! in its ChaCha stream in one sequential pass and then makes the
//! observations on every core the process may use, dealt in grains to a
//! pool that [`VScenarioBuilder::build_windowed_beside`] shares with one
//! task of the caller's. There is no
//! thread-count parameter — the scenarios are bit-identical at any
//! worker count, because offsets come from the plan and not from which
//! thread fills (DESIGN.md §4d, "The generator's stream contract").
//!
//! # Example
//!
//! ```
//! use ev_core::region::GridRegion;
//! use ev_mobility::{World, WaypointParams};
//! use ev_vision::{AppearanceGallery, DetectionModel, VScenarioBuilder};
//!
//! let region = GridRegion::new(1000.0, 1000.0, 100.0, 10.0).unwrap();
//! let traces = World::random_waypoint(region.clone(), 20, WaypointParams::default(), 3)
//!     .unwrap()
//!     .run(30)
//!     .unwrap();
//! let gallery = AppearanceGallery::generate(20, 64, 5).unwrap();
//! let builder = VScenarioBuilder::new(region, gallery);
//! let scenarios = builder.build_windowed(&traces, DetectionModel::perfect(), 1, 9);
//! assert!(!scenarios.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
pub mod cost;
mod gallery;
pub mod reid;

pub use builder::{DetectionModel, VScenarioBuilder};
pub use gallery::AppearanceGallery;
