//! A bounded random-walk mobility model, used as an ablation alternative
//! to the random waypoint model.

use crate::MobilityModel;
use ev_core::geometry::{Point, Rect, Vector};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Parameters of the random walk model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WalkParams {
    /// Constant walking speed in m/s.
    pub(crate) speed: f64,
    /// Ticks between direction changes.
    pub(crate) direction_hold: u64,
}

impl Default for WalkParams {
    fn default() -> Self {
        WalkParams {
            speed: 1.2,
            direction_hold: 20,
        }
    }
}

/// One person moving as a random walk: a uniformly random heading held for
/// `direction_hold` ticks, reflecting off the region borders.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomWalk {
    params: WalkParams,
    position: Point,
    heading: Vector,
    until_turn: u64,
}

impl RandomWalk {
    /// Creates a walker at a uniformly random position with a random
    /// heading.
    pub(crate) fn new(params: WalkParams, bounds: Rect, rng: &mut ChaCha8Rng) -> Self {
        let position = crate::waypoint::random_point(bounds, rng);
        RandomWalk {
            params,
            position,
            heading: random_heading(rng),
            until_turn: params.direction_hold,
        }
    }
}

fn random_heading(rng: &mut ChaCha8Rng) -> Vector {
    let theta = rng.gen_range(0.0..std::f64::consts::TAU);
    Vector::new(theta.cos(), theta.sin())
}

impl MobilityModel for RandomWalk {
    #[cfg(test)]
    fn position(&self) -> Point {
        self.position
    }

    fn step(&mut self, bounds: Rect, rng: &mut ChaCha8Rng) -> Point {
        if self.until_turn == 0 {
            self.heading = random_heading(rng);
            self.until_turn = self.params.direction_hold;
        } else {
            self.until_turn -= 1;
        }
        let mut next = self.position + self.heading * self.params.speed;
        // Reflect off the borders.
        if next.x < bounds.min.x || next.x > bounds.max.x {
            self.heading.dx = -self.heading.dx;
            next.x = next.x.clamp(bounds.min.x, bounds.max.x);
        }
        if next.y < bounds.min.y || next.y > bounds.max.y {
            self.heading.dy = -self.heading.dy;
            next.y = next.y.clamp(bounds.min.y, bounds.max.y);
        }
        self.position = next;
        self.position
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn bounds() -> Rect {
        Rect::from_size(100.0, 100.0)
    }

    #[test]
    fn walk_stays_in_bounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut w = RandomWalk::new(WalkParams::default(), bounds(), &mut rng);
        for _ in 0..10_000 {
            let p = w.step(bounds(), &mut rng);
            assert!(bounds().contains(p));
        }
    }

    #[test]
    fn walk_moves_every_tick() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut w = RandomWalk::new(WalkParams::default(), bounds(), &mut rng);
        let mut prev = w.position();
        for _ in 0..100 {
            let p = w.step(bounds(), &mut rng);
            assert!(p.distance(prev) > 0.0, "random walk never pauses");
            prev = p;
        }
    }

    #[test]
    fn walk_changes_direction() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let params = WalkParams {
            speed: 1.0,
            direction_hold: 5,
        };
        let mut w = RandomWalk::new(params, bounds(), &mut rng);
        let h0 = w.heading;
        for _ in 0..50 {
            w.step(bounds(), &mut rng);
        }
        assert_ne!(w.heading, h0);
    }

    #[test]
    fn reflection_reverses_component() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let params = WalkParams {
            speed: 10.0,
            direction_hold: u64::MAX, // never voluntarily turn
        };
        let mut w = RandomWalk::new(params, bounds(), &mut rng);
        // Force the walker toward the right wall.
        w.position = Point::new(95.0, 50.0);
        w.heading = Vector::new(1.0, 0.0);
        w.step(bounds(), &mut rng);
        assert!(w.heading.dx < 0.0, "heading must reflect off the wall");
    }
}
