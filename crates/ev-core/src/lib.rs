//! Domain model for the EV-Matching system.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace: electronic identities ([`Eid`]), visual identities ([`Vid`]),
//! ground-truth persons ([`PersonId`]), planar geometry ([`geometry`]), the
//! discrete time model ([`time`]), the gridded surveillance region with
//! vague-zone classification ([`region`]), appearance feature vectors and
//! their distance metrics ([`feature`]), the EV-Scenario abstraction
//! ([`scenario`]), and the one partition-refinement data structure at the
//! heart of EID set splitting ([`partition::EidCover`]: a partition in the
//! ideal setting, an overlapping cover under vague zones).
//!
//! The types here are deliberately free of any algorithmic policy: the
//! matching algorithms live in `ev-matching`, the synthetic substrates in
//! `ev-mobility` / `ev-sensing` / `ev-vision`, and the parallel execution
//! engine in `ev-dag`.
//!
//! # Example
//!
//! ```
//! use ev_core::{Eid, Vid, scenario::{EScenario, ZoneAttr}, region::GridRegion};
//! use ev_core::geometry::Point;
//!
//! // A 1000 m x 1000 m region split into 100 m cells, with a 10 m vague band.
//! let region = GridRegion::new(1000.0, 1000.0, 100.0, 10.0).unwrap();
//! let cell = region.cell_at(Point::new(250.0, 730.0)).unwrap();
//!
//! let mut esc = EScenario::new(cell, 42.into());
//! esc.insert(Eid::from_u64(7), ZoneAttr::Inclusive);
//! assert!(esc.contains(Eid::from_u64(7)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod feature;
pub mod geometry;
pub mod ids;
pub mod kernel;
pub mod partition;
pub mod region;
pub mod scenario;
pub mod time;

pub use error::{Error, Result};
pub use feature::FeatureVector;
pub use ids::{Eid, PersonId, Vid};
pub use kernel::{FeatureBlock, Kernel};
pub use region::{CellId, GridRegion};
pub use scenario::{EScenario, EvScenario, ScenarioId, VScenario, ZoneAttr};
pub use time::{TimeRange, Timestamp};
