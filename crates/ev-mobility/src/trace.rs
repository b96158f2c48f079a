//! Ground-truth trajectory recording.

use ev_core::geometry::Point;
use ev_core::ids::PersonId;
use ev_core::time::Timestamp;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The ground-truth trajectory of one person: their position at every tick
/// from `start` for `positions.len()` consecutive ticks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trajectory {
    /// First recorded tick.
    pub start: Timestamp,
    /// One position per tick, consecutive from `start`.
    pub positions: Vec<Point>,
}

impl Trajectory {
    /// Creates an empty trajectory starting at `start`.
    #[must_use]
    pub fn new(start: Timestamp) -> Self {
        Trajectory {
            start,
            positions: Vec::new(),
        }
    }

    /// Appends the next tick's position.
    pub fn push(&mut self, p: Point) {
        self.positions.push(p);
    }
}

/// The trajectories of a whole population over a common time span.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TraceSet {
    traces: BTreeMap<PersonId, Trajectory>,
}

impl TraceSet {
    /// Creates an empty trace set.
    #[must_use]
    pub fn new() -> Self {
        TraceSet::default()
    }

    /// Inserts or replaces a person's trajectory.
    pub fn insert(&mut self, person: PersonId, trajectory: Trajectory) {
        self.traces.insert(person, trajectory);
    }

    /// Iterates over `(person, trajectory)` pairs in person order.
    pub fn iter(&self) -> impl Iterator<Item = (PersonId, &Trajectory)> {
        self.traces.iter().map(|(&p, t)| (p, t))
    }
}

/// Read only by the tests.
#[cfg(test)]
impl Trajectory {
    /// Total path length in metres.
    #[must_use]
    pub(crate) fn path_length(&self) -> f64 {
        self.positions.windows(2).map(|w| w[0].distance(w[1])).sum()
    }

    /// Position at tick `t`, if recorded.
    #[must_use]
    pub(crate) fn at(&self, t: Timestamp) -> Option<Point> {
        let offset = t - self.start; // saturating: earlier t gives 0
        if t < self.start {
            return None;
        }
        self.positions.get(offset as usize).copied()
    }
}

#[cfg(test)]
impl TraceSet {
    /// Number of persons with a trajectory.
    #[must_use]
    pub(crate) fn person_count(&self) -> usize {
        self.traces.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trajectory_records_and_indexes() {
        let mut t = Trajectory::new(Timestamp::new(10));
        assert!(t.positions.is_empty());
        t.push(Point::new(0.0, 0.0));
        t.push(Point::new(3.0, 4.0));
        assert_eq!(t.positions.len(), 2);
        assert_eq!(t.at(Timestamp::new(10)), Some(Point::new(0.0, 0.0)));
        assert_eq!(t.at(Timestamp::new(11)), Some(Point::new(3.0, 4.0)));
        assert_eq!(t.at(Timestamp::new(12)), None);
        assert_eq!(t.at(Timestamp::new(9)), None, "before start");
    }

    #[test]
    fn path_length_sums_segments() {
        let mut t = Trajectory::new(Timestamp::ZERO);
        t.push(Point::new(0.0, 0.0));
        t.push(Point::new(3.0, 4.0));
        t.push(Point::new(3.0, 10.0));
        assert!((t.path_length() - 11.0).abs() < 1e-12);
        assert_eq!(Trajectory::new(Timestamp::ZERO).path_length(), 0.0);
    }

    #[test]
    fn trace_set_accessors() {
        let mut s = TraceSet::new();
        let mut t = Trajectory::new(Timestamp::ZERO);
        t.push(Point::new(1.0, 1.0));
        s.insert(PersonId::new(3), t.clone());
        assert_eq!(s.person_count(), 1);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![(PersonId::new(3), &t)]);
        let mut longer = t.clone();
        longer.push(Point::new(2.0, 2.0));
        s.insert(PersonId::new(3), longer.clone());
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            vec![(PersonId::new(3), &longer)]
        );
    }

    #[test]
    fn empty_trace_set_duration_is_zero() {
        assert_eq!(TraceSet::new().iter().count(), 0, "no trajectory, no tick");
        assert_eq!(TraceSet::new().person_count(), 0);
    }
}
