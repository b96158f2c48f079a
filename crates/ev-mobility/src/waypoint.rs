//! The random waypoint mobility model (Camp et al., 2002).
//!
//! Each person repeatedly: picks a uniformly random destination in the
//! region, a target speed uniform in `[min_speed, max_speed]`, walks toward
//! the destination while smoothly accelerating toward the target speed,
//! and on arrival pauses for a uniformly random time in
//! `[0, max_pause]` ticks.

use crate::MobilityModel;
use ev_core::geometry::{Point, Rect, Vector};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Parameters of the random waypoint model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WaypointParams {
    /// Minimum target walking speed in m/s.
    pub(crate) min_speed: f64,
    /// Maximum target walking speed in m/s.
    pub(crate) max_speed: f64,
    /// Maximum pause at a reached waypoint, in ticks.
    pub(crate) max_pause: u64,
    /// Maximum change of speed per tick (acceleration bound), in m/s².
    pub(crate) max_accel: f64,
}

impl Default for WaypointParams {
    /// Pedestrian defaults: 0.5–2.0 m/s walking speed, up to 30 s pauses,
    /// 0.5 m/s² acceleration.
    fn default() -> Self {
        WaypointParams {
            min_speed: 0.5,
            max_speed: 2.0,
            max_pause: 30,
            max_accel: 0.5,
        }
    }
}

impl WaypointParams {
    /// Validates the parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`ev_core::Error::InvalidParameter`] when speeds are
    /// non-positive, inverted, or the acceleration bound is non-positive.
    pub fn validate(&self) -> ev_core::Result<()> {
        if !self.min_speed.is_finite() || self.min_speed <= 0.0 {
            return Err(ev_core::Error::InvalidParameter {
                name: "min_speed",
                reason: format!("must be positive, got {}", self.min_speed),
            });
        }
        if !self.max_speed.is_finite() || self.max_speed < self.min_speed {
            return Err(ev_core::Error::InvalidParameter {
                name: "max_speed",
                reason: format!(
                    "must be at least min_speed ({}), got {}",
                    self.min_speed, self.max_speed
                ),
            });
        }
        if !self.max_accel.is_finite() || self.max_accel <= 0.0 {
            return Err(ev_core::Error::InvalidParameter {
                name: "max_accel",
                reason: format!("must be positive, got {}", self.max_accel),
            });
        }
        Ok(())
    }
}

/// Movement phase of a waypoint walker.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
enum Phase {
    /// Walking toward `target` at up to `target_speed`.
    Walking {
        /// Destination waypoint.
        target: Point,
        /// Speed to accelerate toward, m/s.
        target_speed: f64,
    },
    /// Paused at a waypoint for the remaining number of ticks.
    Paused {
        /// Ticks of pause remaining.
        remaining: u64,
    },
}

/// One person moving under the random waypoint model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomWaypoint {
    params: WaypointParams,
    position: Point,
    speed: f64,
    phase: Phase,
}

impl RandomWaypoint {
    /// Creates a walker at a uniformly random position inside `bounds`,
    /// initially paused for a random fraction of `max_pause` so a
    /// population does not start in lockstep.
    pub(crate) fn new(params: WaypointParams, bounds: Rect, rng: &mut ChaCha8Rng) -> Self {
        let position = random_point(bounds, rng);
        let remaining = if params.max_pause == 0 {
            0
        } else {
            rng.gen_range(0..=params.max_pause)
        };
        RandomWaypoint {
            params,
            position,
            speed: 0.0,
            phase: Phase::Paused { remaining },
        }
    }

    fn pick_new_leg(&mut self, bounds: Rect, rng: &mut ChaCha8Rng) {
        let target = random_point(bounds, rng);
        let target_speed = rng.gen_range(self.params.min_speed..=self.params.max_speed);
        self.phase = Phase::Walking {
            target,
            target_speed,
        };
    }
}

impl MobilityModel for RandomWaypoint {
    #[cfg(test)]
    fn position(&self) -> Point {
        self.position
    }

    fn step(&mut self, bounds: Rect, rng: &mut ChaCha8Rng) -> Point {
        match self.phase {
            Phase::Paused { remaining } => {
                self.speed = 0.0;
                if remaining == 0 {
                    self.pick_new_leg(bounds, rng);
                } else {
                    self.phase = Phase::Paused {
                        remaining: remaining - 1,
                    };
                }
            }
            Phase::Walking {
                target,
                target_speed,
            } => {
                // Accelerate (or decelerate) toward the leg's target speed,
                // bounded by max_accel per tick.
                let dv = (target_speed - self.speed)
                    .clamp(-self.params.max_accel, self.params.max_accel);
                self.speed = (self.speed + dv).max(0.0);
                let to_target = target - self.position;
                let dist = to_target.norm();
                if dist <= self.speed {
                    // Arrive this tick and pause.
                    self.position = target;
                    self.speed = 0.0;
                    let pause = if self.params.max_pause == 0 {
                        0
                    } else {
                        rng.gen_range(0..=self.params.max_pause)
                    };
                    self.phase = Phase::Paused { remaining: pause };
                } else {
                    let dir: Vector = to_target.normalized();
                    self.position = (self.position + dir * self.speed).clamped(bounds);
                }
            }
        }
        self.position
    }
}

/// Uniformly random point inside `bounds`.
pub(crate) fn random_point(bounds: Rect, rng: &mut ChaCha8Rng) -> Point {
    Point::new(
        rng.gen_range(bounds.min.x..=bounds.max.x),
        rng.gen_range(bounds.min.y..=bounds.max.y),
    )
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // explicit per-field mutation reads clearer in validation tests
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    fn bounds() -> Rect {
        Rect::from_size(1000.0, 1000.0)
    }

    #[test]
    fn default_params_are_valid() {
        WaypointParams::default().validate().unwrap();
    }

    #[test]
    fn invalid_params_are_rejected() {
        let mut p = WaypointParams::default();
        p.min_speed = 0.0;
        assert!(p.validate().is_err());
        let mut p = WaypointParams::default();
        p.max_speed = 0.1; // below min_speed
        assert!(p.validate().is_err());
        let mut p = WaypointParams::default();
        p.max_accel = -1.0;
        assert!(p.validate().is_err());
        let mut p = WaypointParams::default();
        p.max_speed = f64::NAN;
        assert!(p.validate().is_err());
    }

    #[test]
    fn walker_stays_in_bounds() {
        let mut r = rng(1);
        let mut w = RandomWaypoint::new(WaypointParams::default(), bounds(), &mut r);
        for _ in 0..5_000 {
            let p = w.step(bounds(), &mut r);
            assert!(bounds().contains(p), "escaped at {p}");
        }
    }

    #[test]
    fn speed_respects_limits_and_acceleration() {
        let mut r = rng(2);
        let params = WaypointParams::default();
        let mut w = RandomWaypoint::new(params, bounds(), &mut r);
        let mut prev_speed = w.speed;
        for _ in 0..5_000 {
            w.step(bounds(), &mut r);
            let s = w.speed;
            assert!(s <= params.max_speed + 1e-9, "over speed: {s}");
            assert!(s >= 0.0);
            // Acceleration bound holds except at arrivals (instant stop).
            if s > 0.0 && prev_speed > 0.0 {
                assert!(
                    (s - prev_speed).abs() <= params.max_accel + 1e-9,
                    "accel jump {prev_speed} -> {s}"
                );
            }
            prev_speed = s;
        }
    }

    #[test]
    fn walker_eventually_moves() {
        let mut r = rng(3);
        let mut w = RandomWaypoint::new(WaypointParams::default(), bounds(), &mut r);
        let start = w.position();
        let mut moved = false;
        for _ in 0..200 {
            if w.step(bounds(), &mut r).distance(start) > 1.0 {
                moved = true;
                break;
            }
        }
        assert!(moved, "walker never left its start position");
    }

    #[test]
    fn deterministic_under_same_seed() {
        let run = |seed| {
            let mut r = rng(seed);
            let mut w = RandomWaypoint::new(WaypointParams::default(), bounds(), &mut r);
            (0..100)
                .map(|_| w.step(bounds(), &mut r))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds diverge");
    }

    #[test]
    fn zero_pause_keeps_walking() {
        let mut r = rng(4);
        let params = WaypointParams {
            max_pause: 0,
            ..WaypointParams::default()
        };
        let mut w = RandomWaypoint::new(params, bounds(), &mut r);
        // With no pauses the walker should move in nearly every tick once
        // warmed up.
        let mut still = 0;
        let mut prev = w.position();
        for _ in 0..1_000 {
            let p = w.step(bounds(), &mut r);
            if p.distance(prev) < 1e-12 {
                still += 1;
            }
            prev = p;
        }
        // Allow the accelerate-from-zero ticks at each arrival.
        assert!(still < 100, "walker idle for {still}/1000 ticks");
    }
}
