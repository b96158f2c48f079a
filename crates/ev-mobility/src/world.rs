//! The simulated world: a population of mobility models stepped in
//! lockstep over a gridded region.

use crate::trace::{TraceSet, Trajectory};
use crate::walk::{RandomWalk, WalkParams};
use crate::waypoint::{RandomWaypoint, WaypointParams};
use crate::MobilityModel;
use ev_core::ids::PersonId;
use ev_core::region::GridRegion;
use ev_core::time::Timestamp;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A population of persons moving through a [`GridRegion`].
///
/// The world owns one mobility model per person and a deterministic,
/// seedable RNG; two worlds built with the same parameters and seed
/// produce identical trajectories.
pub struct World {
    region: GridRegion,
    movers: Vec<Box<dyn MobilityModel + Send>>,
    rng: ChaCha8Rng,
    now: Timestamp,
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("region", &self.region)
            .field("population", &self.movers.len())
            .field("now", &self.now)
            .finish()
    }
}

impl World {
    /// Creates a world of `population` persons all driven by the random
    /// waypoint model.
    #[must_use]
    pub fn random_waypoint(
        region: GridRegion,
        population: usize,
        params: WaypointParams,
        seed: u64,
    ) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let bounds = region.bounds();
        let movers = (0..population)
            .map(|_| {
                Box::new(RandomWaypoint::new(params, bounds, &mut rng))
                    as Box<dyn MobilityModel + Send>
            })
            .collect();
        World {
            region,
            movers,
            rng,
            now: Timestamp::ZERO,
        }
    }

    /// Creates a world of `population` persons all driven by the random
    /// walk model.
    #[must_use]
    pub fn random_walk(
        region: GridRegion,
        population: usize,
        params: WalkParams,
        seed: u64,
    ) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let bounds = region.bounds();
        let movers = (0..population)
            .map(|_| {
                Box::new(RandomWalk::new(params, bounds, &mut rng)) as Box<dyn MobilityModel + Send>
            })
            .collect();
        World {
            region,
            movers,
            rng,
            now: Timestamp::ZERO,
        }
    }

    /// Creates a world of `population` persons all driven by the
    /// Manhattan grid model.
    #[must_use]
    pub fn manhattan(
        region: GridRegion,
        population: usize,
        params: crate::ManhattanParams,
        seed: u64,
    ) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let bounds = region.bounds();
        let movers = (0..population)
            .map(|_| {
                Box::new(crate::manhattan::ManhattanWalk::new(
                    params, bounds, &mut rng,
                )) as Box<dyn MobilityModel + Send>
            })
            .collect();
        World {
            region,
            movers,
            rng,
            now: Timestamp::ZERO,
        }
    }

    /// Number of persons.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn population(&self) -> usize {
        self.movers.len()
    }

    /// The current simulation instant.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn now(&self) -> Timestamp {
        self.now
    }

    /// Advances every person by one tick.
    pub(crate) fn step(&mut self) {
        let bounds = self.region.bounds();
        for mover in &mut self.movers {
            let p = mover.step(bounds, &mut self.rng);
            debug_assert!(bounds.contains(p), "mobility model escaped the region");
        }
        self.now = self.now + 1;
    }

    /// Runs the world for `ticks` ticks, recording every person's position
    /// at every tick (the position *after* each step).
    ///
    /// Persons are assigned ids `0..population` in mover order.
    pub fn run(&mut self, ticks: u64) -> TraceSet {
        let mut traces: Vec<Trajectory> = (0..self.movers.len())
            .map(|_| Trajectory::new(self.now))
            .collect();
        for _ in 0..ticks {
            self.step();
            for (mover, trace) in self.movers.iter().zip(traces.iter_mut()) {
                trace.push(mover.position());
            }
        }
        let mut set = TraceSet::new();
        for (i, trace) in traces.into_iter().enumerate() {
            set.insert(PersonId::new(i as u64), trace);
        }
        set
    }
}

/// Read only by the tests.
#[cfg(test)]
impl World {
    /// Creates a world from externally constructed movers (mixing models).
    #[must_use]
    pub(crate) fn from_movers(
        region: GridRegion,
        movers: Vec<Box<dyn MobilityModel + Send>>,
        seed: u64,
    ) -> Self {
        World {
            region,
            movers,
            rng: ChaCha8Rng::seed_from_u64(seed),
            now: Timestamp::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region() -> GridRegion {
        GridRegion::new(1000.0, 1000.0, 100.0, 10.0).unwrap()
    }

    #[test]
    fn world_runs_and_records_everyone() {
        let mut w = World::random_waypoint(region(), 20, WaypointParams::default(), 1);
        let traces = w.run(50);
        assert_eq!(traces.person_count(), 20);
        assert_eq!(traces.duration(), 50);
        assert_eq!(w.now(), Timestamp::new(50));
        for (_, t) in traces.iter() {
            assert_eq!(t.len(), 50);
            for &p in &t.positions {
                assert!(region().bounds().contains(p));
            }
        }
    }

    #[test]
    fn same_seed_same_world() {
        let run =
            |seed| World::random_waypoint(region(), 10, WaypointParams::default(), seed).run(100);
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn random_walk_world() {
        let mut w = World::random_walk(region(), 5, WalkParams::default(), 9);
        let traces = w.run(30);
        assert_eq!(traces.person_count(), 5);
        // Walkers never pause, so each trajectory has positive length.
        for (_, t) in traces.iter() {
            assert!(t.path_length() > 0.0);
        }
    }

    #[test]
    fn consecutive_runs_continue_time() {
        let mut w = World::random_waypoint(region(), 3, WaypointParams::default(), 5);
        let first = w.run(10);
        let second = w.run(10);
        assert_eq!(first.get(PersonId::new(0)).unwrap().start, Timestamp::ZERO);
        assert_eq!(
            second.get(PersonId::new(0)).unwrap().start,
            Timestamp::new(10)
        );
    }

    #[test]
    fn mixed_model_world() {
        use crate::{RandomWalk, RandomWaypoint};
        use rand::SeedableRng;
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let bounds = region().bounds();
        let movers: Vec<Box<dyn MobilityModel + Send>> = vec![
            Box::new(RandomWaypoint::new(
                WaypointParams::default(),
                bounds,
                &mut rng,
            )),
            Box::new(RandomWalk::new(WalkParams::default(), bounds, &mut rng)),
        ];
        let mut w = World::from_movers(region(), movers, 1);
        assert_eq!(w.population(), 2);
        let traces = w.run(20);
        assert_eq!(traces.person_count(), 2);
    }

    #[test]
    fn manhattan_world_runs() {
        let mut w = World::manhattan(region(), 8, crate::ManhattanParams::default(), 4);
        let traces = w.run(40);
        assert_eq!(traces.person_count(), 8);
        for (_, t) in traces.iter() {
            for &p in &t.positions {
                assert!(region().bounds().contains(p));
            }
        }
    }
}
