//! Electronic sensing substrate.
//!
//! This crate turns ground-truth trajectories into the **E-data** the
//! matching algorithms consume: per-tick EID capture events with realistic
//! localization error, and [`EScenario`](ev_core::EScenario)s built under
//! the *practical* model with electronic drift, vague-zone classification
//! and device-less people (missing EIDs, paper §IV-C).
//!
//! The physical story: one base station (or WiFi sniffer) per grid cell
//! hears the frames a device emits and estimates the device position with
//! a Gaussian range error. A device whose estimated position lands near a
//! cell border may be attributed to the wrong cell — exactly the
//! *drifting EID* problem the vague zone exists to absorb.
//!
//! The practical builder is one sequential consumer of its noise stream
//! (a dropped capture skips its position draw, so where a capture's
//! words sit depends on every draw before it) and never materialises the
//! capture log: a device's captures arrive with ticks ascending, so
//! [`EScenarioBuilder::build_practical`] folds them into per-window
//! tallies as they are drawn and sorts only those.
//! [`EScenarioBuilder::capture_log`] is the raw-E-data view over the same
//! capture loop (DESIGN.md §4d, "The generator's stream contract").
//!
//! # Example
//!
//! ```
//! use ev_core::region::GridRegion;
//! use ev_mobility::{World, WaypointParams};
//! use ev_sensing::{EidRoster, EScenarioBuilder, SensingNoise, WindowThresholds};
//!
//! let region = GridRegion::new(1000.0, 1000.0, 100.0, 10.0).unwrap();
//! let traces = World::random_waypoint(region.clone(), 30, WaypointParams::default(), 7)
//!     .run(50);
//! let roster = EidRoster::full(30);
//!
//! // Practical E-Scenarios: noisy captures over 10-tick windows.
//! let noise = SensingNoise::default();
//! let scenarios = EScenarioBuilder::new(region)
//!     .build_practical(&traces, &roster, noise, 10, WindowThresholds::default(), 7)
//!     .unwrap();
//! assert!(!scenarios.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod capture;
mod roster;

pub use builder::{EScenarioBuilder, WindowThresholds};
pub use capture::{CaptureEvent, SensingNoise};
pub use roster::EidRoster;

pub(crate) use ev_core::region::Zone;
