//! Mobility substrate: synthetic human movement over the surveillance
//! region.
//!
//! The paper's evaluation distributes human objects across a
//! 1000 m × 1000 m region and drives them with the **random waypoint
//! model** (Camp et al., *A survey of mobility models for ad hoc network
//! research*, 2002), controlling "location, velocity and acceleration
//! change" (paper §VI-A). This crate implements that model plus a simple
//! random-walk and a Manhattan street alternative, and a [`World`] that
//! steps a whole population tick by tick while recording ground-truth
//! trajectories.
//!
//! Every experiment rides on these trajectories: the density sweeps of
//! paper Figs. 6 and 9 and Table II vary how many simulated people
//! share a cell, and the `ablate-mobility` experiment swaps the model
//! (waypoint / walk / Manhattan) to show the paper's conclusions
//! survive street-constrained movement.
//!
//! # Example
//!
//! ```
//! use ev_mobility::{World, WaypointParams};
//! use ev_core::region::GridRegion;
//!
//! let region = GridRegion::new(1000.0, 1000.0, 100.0, 10.0).unwrap();
//! let mut world = World::random_waypoint(region, 50, WaypointParams::default(), 42);
//! let traces = world.run(100);
//! assert_eq!(traces.iter().count(), 50);
//! assert!(traces.iter().all(|(_, t)| t.positions.len() == 100));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod manhattan;
mod trace;
mod walk;
mod waypoint;
mod world;

pub use manhattan::ManhattanParams;
pub use trace::{TraceSet, Trajectory};
pub use walk::{RandomWalk, WalkParams};
pub use waypoint::{RandomWaypoint, WaypointParams};
pub use world::World;

use ev_core::geometry::{Point, Rect};
use rand_chacha::ChaCha8Rng;

/// A mobility model drives one person's position forward one tick at a
/// time within a bounding rectangle.
///
/// Implementations must keep the returned position inside `bounds` at all
/// times; the [`World`] debug-asserts this.
pub(crate) trait MobilityModel {
    /// Current position.
    fn position(&self) -> Point;

    /// Advances the model by one tick (one simulated second) and returns
    /// the new position.
    fn step(&mut self, bounds: Rect, rng: &mut ChaCha8Rng) -> Point;
}
