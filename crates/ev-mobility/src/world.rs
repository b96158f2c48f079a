//! The simulated world: a population of mobility models stepped in
//! lockstep over a gridded region.

use crate::trace::{TraceSet, Trajectory};
use crate::walk::{RandomWalk, WalkParams};
use crate::waypoint::{RandomWaypoint, WaypointParams};
use crate::MobilityModel;
use ev_core::error::reserved;
use ev_core::geometry::Rect;
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
    ///
    /// # Errors
    ///
    /// Returns [`ev_core::Error::InvalidParameter`] if `population`
    /// movers cannot be allocated.
    pub fn random_waypoint(
        region: GridRegion,
        population: usize,
        params: WaypointParams,
        seed: u64,
    ) -> ev_core::Result<Self> {
        World::populate(region, population, seed, |bounds, rng| {
            Box::new(RandomWaypoint::new(params, bounds, rng))
        })
    }

    /// Creates a world of `population` persons all driven by the random
    /// walk model.
    ///
    /// # Errors
    ///
    /// As [`World::random_waypoint`].
    pub fn random_walk(
        region: GridRegion,
        population: usize,
        params: WalkParams,
        seed: u64,
    ) -> ev_core::Result<Self> {
        World::populate(region, population, seed, |bounds, rng| {
            Box::new(RandomWalk::new(params, bounds, rng))
        })
    }

    /// Creates a world of `population` persons all driven by the
    /// Manhattan grid model.
    ///
    /// # Errors
    ///
    /// As [`World::random_waypoint`].
    pub fn manhattan(
        region: GridRegion,
        population: usize,
        params: crate::ManhattanParams,
        seed: u64,
    ) -> ev_core::Result<Self> {
        World::populate(region, population, seed, |bounds, rng| {
            Box::new(crate::manhattan::ManhattanWalk::new(params, bounds, rng))
        })
    }

    /// `population` movers made in order from the `seed` stream, which
    /// the world then keeps stepping them with.
    fn populate(
        region: GridRegion,
        population: usize,
        seed: u64,
        mut mover: impl FnMut(Rect, &mut ChaCha8Rng) -> Box<dyn MobilityModel + Send>,
    ) -> ev_core::Result<Self> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let bounds = region.bounds();
        let mut movers = reserved("population", population)?;
        for _ in 0..population {
            movers.push(mover(bounds, &mut rng));
        }
        Ok(World {
            region,
            movers,
            rng,
            now: Timestamp::ZERO,
        })
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

    /// Runs the world for `ticks` ticks, recording every person's position
    /// at every tick (the position *after* each step).
    ///
    /// Persons are assigned ids `0..population` in mover order. One pass
    /// per tick: the position a mover's step returns goes straight into
    /// its trajectory, reserved up front to `ticks` positions.
    ///
    /// # Errors
    ///
    /// Returns [`ev_core::Error::InvalidParameter`] if the trajectories
    /// cannot be allocated.
    pub fn run(&mut self, ticks: u64) -> ev_core::Result<TraceSet> {
        let len = usize::try_from(ticks).map_err(|_| ev_core::Error::InvalidParameter {
            name: "duration",
            reason: format!("{ticks} ticks do not fit in memory"),
        })?;
        let mut traces: Vec<Trajectory> = reserved("population", self.movers.len())?;
        for _ in &self.movers {
            traces.push(Trajectory {
                start: self.now,
                positions: reserved("duration", len)?,
            });
        }
        let bounds = self.region.bounds();
        for _ in 0..ticks {
            for (mover, trace) in self.movers.iter_mut().zip(&mut traces) {
                let p = mover.step(bounds, &mut self.rng);
                debug_assert!(bounds.contains(p), "mobility model escaped the region");
                trace.push(p);
            }
        }
        self.now = self.now + ticks;
        Ok(into_trace_set(traces))
    }
}

/// Trajectories in mover order, keyed `0..` by person id.
fn into_trace_set(traces: Vec<Trajectory>) -> TraceSet {
    let mut set = TraceSet::new();
    for (i, trace) in traces.into_iter().enumerate() {
        set.insert(PersonId::new(i as u64), trace);
    }
    set
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

    /// Advances every person by one tick.
    fn step(&mut self) {
        let bounds = self.region.bounds();
        for mover in &mut self.movers {
            let p = mover.step(bounds, &mut self.rng);
            debug_assert!(bounds.contains(p), "mobility model escaped the region");
        }
        self.now = self.now + 1;
    }

    /// [`World::run`] as it was before the one pass: step everyone, then
    /// read everyone's position back, into trajectories that grow as they
    /// go. The reference the one pass must equal.
    fn run_two_pass(&mut self, ticks: u64) -> TraceSet {
        let mut traces: Vec<Trajectory> = (0..self.movers.len())
            .map(|_| Trajectory::new(self.now))
            .collect();
        for _ in 0..ticks {
            self.step();
            for (mover, trace) in self.movers.iter().zip(traces.iter_mut()) {
                trace.push(mover.position());
            }
        }
        into_trace_set(traces)
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
        let mut w = World::random_waypoint(region(), 20, WaypointParams::default(), 1).unwrap();
        let traces = w.run(50).unwrap();
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
        let run = |seed| {
            let w = World::random_waypoint(region(), 10, WaypointParams::default(), seed);
            w.unwrap().run(100).unwrap()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn random_walk_world() {
        let mut w = World::random_walk(region(), 5, WalkParams::default(), 9).unwrap();
        let traces = w.run(30).unwrap();
        assert_eq!(traces.person_count(), 5);
        // Walkers never pause, so each trajectory has positive length.
        for (_, t) in traces.iter() {
            assert!(t.path_length() > 0.0);
        }
    }

    #[test]
    fn consecutive_runs_continue_time() {
        let mut w = World::random_waypoint(region(), 3, WaypointParams::default(), 5).unwrap();
        let first = w.run(10).unwrap();
        let second = w.run(10).unwrap();
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
        let traces = w.run(20).unwrap();
        assert_eq!(traces.person_count(), 2);
    }

    #[test]
    fn manhattan_world_runs() {
        let mut w = World::manhattan(region(), 8, crate::ManhattanParams::default(), 4).unwrap();
        let traces = w.run(40).unwrap();
        assert_eq!(traces.person_count(), 8);
        for (_, t) in traces.iter() {
            for &p in &t.positions {
                assert!(region().bounds().contains(p));
            }
        }
    }

    /// Per person: its id, its start tick, then every coordinate by
    /// `to_bits`.
    fn bits(traces: &TraceSet) -> Vec<Vec<u64>> {
        traces
            .iter()
            .map(|(person, t)| {
                let points = t
                    .positions
                    .iter()
                    .flat_map(|p| [p.x.to_bits(), p.y.to_bits()]);
                [person.as_u64(), t.start.tick()]
                    .into_iter()
                    .chain(points)
                    .collect()
            })
            .collect()
    }

    proptest::proptest! {
        /// One pass per tick against the two-pass loop it replaced, for
        /// every model, over three consecutive runs of one world.
        #[test]
        fn one_pass_run_equals_the_two_pass_reference(
            model in 0usize..3,
            population in 0usize..30,
            ticks in proptest::collection::vec(0u64..80, 3),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let world = || match model {
                0 => World::random_waypoint(region(), population, WaypointParams::default(), seed),
                1 => World::random_walk(region(), population, WalkParams::default(), seed),
                _ => World::manhattan(region(), population, crate::ManhattanParams::default(), seed),
            }
            .unwrap();
            let (mut one, mut two) = (world(), world());
            for &n in &ticks {
                let got = one.run(n).unwrap();
                proptest::prop_assert_eq!(bits(&got), bits(&two.run_two_pass(n)));
                proptest::prop_assert_eq!(one.now(), two.now());
            }
        }
    }

    #[test]
    fn a_population_that_cannot_be_allocated_is_an_invalid_parameter() {
        let world = World::random_walk(region(), usize::MAX, WalkParams::default(), 1);
        assert!(matches!(
            world,
            Err(ev_core::Error::InvalidParameter {
                name: "population",
                ..
            })
        ));
    }
}
