//! The discrete time model.
//!
//! The synthetic world advances in fixed *ticks* (one tick = one second of
//! simulated time by convention). EV-Scenarios are snapshots at a tick
//! (ideal setting) or aggregates over a window of ticks (practical setting,
//! paper §IV-C2).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Sub};

/// A discrete simulation timestamp (tick index).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Timestamp(u64);

impl Timestamp {
    /// The first instant of the simulation.
    pub const ZERO: Timestamp = Timestamp(0);

    /// Creates a timestamp from a raw tick index.
    #[must_use]
    pub const fn new(tick: u64) -> Self {
        Timestamp(tick)
    }

    /// Returns the raw tick index.
    #[must_use]
    pub const fn tick(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", self.0)
    }
}

impl From<u64> for Timestamp {
    fn from(tick: u64) -> Self {
        Timestamp(tick)
    }
}

impl Add<u64> for Timestamp {
    type Output = Timestamp;
    fn add(self, n: u64) -> Timestamp {
        Timestamp(self.0 + n)
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = u64;
    /// Number of ticks from `other` to `self`; saturates at zero when
    /// `other` is later.
    fn sub(self, other: Timestamp) -> u64 {
        self.0.saturating_sub(other.0)
    }
}

/// A half-open range of ticks `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TimeRange {
    /// First tick of the range (inclusive).
    pub start: Timestamp,
    /// One past the last tick of the range (exclusive).
    pub end: Timestamp,
}

impl TimeRange {
    /// Creates the half-open range `[start, end)`; an inverted pair
    /// collapses to the empty range at `start`.
    #[must_use]
    pub fn new(start: Timestamp, end: Timestamp) -> Self {
        TimeRange {
            start,
            end: if end < start { start } else { end },
        }
    }

    /// Whether tick `t` falls inside the range.
    #[must_use]
    pub fn contains(&self, t: Timestamp) -> bool {
        t >= self.start && t < self.end
    }
}

impl fmt::Display for TimeRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start.tick(), self.end.tick())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_arithmetic() {
        let t = Timestamp::new(10);
        assert_eq!(t + 5, Timestamp::new(15));
        assert_eq!(Timestamp::new(15) - t, 5);
        assert_eq!(t - Timestamp::new(15), 0, "subtraction saturates");
    }

    #[test]
    fn range_basics() {
        let r = TimeRange::new(Timestamp::new(5), Timestamp::new(8));
        assert!(r.contains(Timestamp::new(5)));
        assert!(r.contains(Timestamp::new(7)));
        assert!(!r.contains(Timestamp::new(8)), "end is exclusive");
        assert!(!r.contains(Timestamp::new(4)));
    }

    #[test]
    fn inverted_range_collapses_to_empty() {
        let r = TimeRange::new(Timestamp::new(9), Timestamp::new(3));
        assert_eq!((r.start, r.end), (Timestamp::new(9), Timestamp::new(9)));
        assert!(!r.contains(Timestamp::new(9)));
        assert!(!r.contains(Timestamp::new(3)));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Timestamp::new(7).to_string(), "t=7");
        assert_eq!(
            TimeRange::new(Timestamp::new(1), Timestamp::new(3)).to_string(),
            "[1, 3)"
        );
    }
}
