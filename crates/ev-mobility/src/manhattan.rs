//! The Manhattan grid mobility model (Camp et al., 2002 §2.6): movement
//! constrained to a lattice of horizontal and vertical streets, turning
//! only at intersections — a better approximation of urban pedestrians
//! than free-space waypoints, and the standard robustness check for
//! mobility-dependent results.

use crate::MobilityModel;
use ev_core::geometry::{Point, Rect};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Parameters of the Manhattan grid model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ManhattanParams {
    /// Street spacing (block side) in metres.
    pub block: f64,
    /// Walking speed in m/s.
    pub(crate) speed: f64,
    /// Probability of turning (left or right) at an intersection.
    pub(crate) turn_probability: f64,
}

impl Default for ManhattanParams {
    /// 50 m blocks, 1.3 m/s walking speed, 40 % turns.
    fn default() -> Self {
        ManhattanParams {
            block: 50.0,
            speed: 1.3,
            turn_probability: 0.4,
        }
    }
}

impl ManhattanParams {
    /// Validates the parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`ev_core::Error::InvalidParameter`] on a non-positive
    /// block or speed, or a turn probability outside `[0, 1]`.
    pub fn validate(&self) -> ev_core::Result<()> {
        if !self.block.is_finite() || self.block <= 0.0 {
            return Err(ev_core::Error::InvalidParameter {
                name: "block",
                reason: format!("must be positive, got {}", self.block),
            });
        }
        if !self.speed.is_finite() || self.speed <= 0.0 {
            return Err(ev_core::Error::InvalidParameter {
                name: "speed",
                reason: format!("must be positive, got {}", self.speed),
            });
        }
        if !self.turn_probability.is_finite() || !(0.0..=1.0).contains(&self.turn_probability) {
            return Err(ev_core::Error::InvalidParameter {
                name: "turn_probability",
                reason: format!("must be in [0, 1], got {}", self.turn_probability),
            });
        }
        Ok(())
    }
}

/// Direction of travel along the street grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum Heading {
    East,
    West,
    North,
    South,
}

impl Heading {
    fn delta(self) -> (f64, f64) {
        match self {
            Heading::East => (1.0, 0.0),
            Heading::West => (-1.0, 0.0),
            Heading::North => (0.0, 1.0),
            Heading::South => (0.0, -1.0),
        }
    }

    fn turns(self) -> [Heading; 2] {
        match self {
            Heading::East | Heading::West => [Heading::North, Heading::South],
            Heading::North | Heading::South => [Heading::East, Heading::West],
        }
    }

    fn reverse(self) -> Heading {
        match self {
            Heading::East => Heading::West,
            Heading::West => Heading::East,
            Heading::North => Heading::South,
            Heading::South => Heading::North,
        }
    }
}

/// One pedestrian on the street grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct ManhattanWalk {
    params: ManhattanParams,
    position: Point,
    heading: Heading,
}

impl ManhattanWalk {
    /// Creates a walker snapped to a random intersection with a random
    /// heading.
    pub(crate) fn new(params: ManhattanParams, bounds: Rect, rng: &mut ChaCha8Rng) -> Self {
        let cols = (bounds.width() / params.block).floor().max(1.0) as u64;
        let rows = (bounds.height() / params.block).floor().max(1.0) as u64;
        let x = bounds.min.x + rng.gen_range(0..=cols) as f64 * params.block;
        let y = bounds.min.y + rng.gen_range(0..=rows) as f64 * params.block;
        let heading = match rng.gen_range(0..4) {
            0 => Heading::East,
            1 => Heading::West,
            2 => Heading::North,
            _ => Heading::South,
        };
        ManhattanWalk {
            params,
            position: Point::new(x, y).clamped(bounds),
            heading,
        }
    }

    /// Whether the walker currently stands (approximately) on an
    /// intersection of the street grid.
    fn at_intersection(&self, bounds: Rect) -> bool {
        let eps = self.params.speed; // within one step of the crossing
        let dx = (self.position.x - bounds.min.x) % self.params.block;
        let dy = (self.position.y - bounds.min.y) % self.params.block;
        let near = |v: f64| v < eps || (self.params.block - v) < eps;
        near(dx) && near(dy)
    }
}

impl MobilityModel for ManhattanWalk {
    fn position(&self) -> Point {
        self.position
    }

    fn step(&mut self, bounds: Rect, rng: &mut ChaCha8Rng) -> Point {
        if self.at_intersection(bounds) && rng.gen::<f64>() < self.params.turn_probability {
            let options = self.heading.turns();
            self.heading = options[usize::from(rng.gen::<bool>())];
        }
        let (dx, dy) = self.heading.delta();
        let next = Point::new(
            self.position.x + dx * self.params.speed,
            self.position.y + dy * self.params.speed,
        );
        if bounds.contains(next) {
            self.position = next;
        } else {
            // Dead end at the region border: turn around.
            self.heading = self.heading.reverse();
        }
        self.position
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn bounds() -> Rect {
        Rect::from_size(200.0, 200.0)
    }

    #[test]
    fn params_validate() {
        ManhattanParams::default().validate().unwrap();
        assert!(ManhattanParams {
            block: 0.0,
            ..ManhattanParams::default()
        }
        .validate()
        .is_err());
        assert!(ManhattanParams {
            speed: -1.0,
            ..ManhattanParams::default()
        }
        .validate()
        .is_err());
        assert!(ManhattanParams {
            turn_probability: 1.5,
            ..ManhattanParams::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn walker_stays_in_bounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut w = ManhattanWalk::new(ManhattanParams::default(), bounds(), &mut rng);
        for _ in 0..5_000 {
            let p = w.step(bounds(), &mut rng);
            assert!(bounds().contains(p));
        }
    }

    #[test]
    fn walker_stays_on_streets() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let params = ManhattanParams {
            block: 50.0,
            speed: 1.0,
            turn_probability: 0.5,
        };
        let mut w = ManhattanWalk::new(params, bounds(), &mut rng);
        for _ in 0..2_000 {
            let p = w.step(bounds(), &mut rng);
            // At least one coordinate lies on a street line (multiple of
            // the block size), up to numeric slack.
            let on = |v: f64| {
                let r = v % params.block;
                r < 1e-6 || (params.block - r) < 1e-6
            };
            assert!(on(p.x) || on(p.y), "walker left the street grid at {p}");
        }
    }

    #[test]
    fn walker_turns_eventually() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut w = ManhattanWalk::new(ManhattanParams::default(), bounds(), &mut rng);
        let initial = w.heading;
        let mut turned = false;
        for _ in 0..2_000 {
            w.step(bounds(), &mut rng);
            if w.heading != initial {
                turned = true;
                break;
            }
        }
        assert!(turned, "walker never changed heading");
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed: u64| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut w = ManhattanWalk::new(ManhattanParams::default(), bounds(), &mut rng);
            (0..200)
                .map(|_| w.step(bounds(), &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }
}
