//! The visual processing cost model.
//!
//! In the paper's testbed, V-stage time dominates E-stage time because
//! human detection and feature extraction are computation-intensive
//! (§VI-B: "E stage costs negligible time while the time spent in V stage
//! dominates"). Our synthetic gallery makes extraction trivially cheap, so
//! the time figures would lose their shape without a cost model.
//!
//! [`CostModel`] restores the asymmetry with deterministic **busy-work**
//! ([`CostModel::charge`]) calibrated in abstract *work units*, so
//! parallel execution on `ev-dag`'s worker threads yields genuine
//! wall-clock speedups. Only the experiment figures price work; every
//! other caller runs [`CostModel::free`].

use serde::{Deserialize, Serialize};

/// Work-unit prices for the V-stage operations of the EV-Matching
/// pipeline.
///
/// One work unit corresponds to one iteration of the busy-work kernel
/// (roughly a few nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CostModel {
    /// Units to detect humans and extract features for **one detection**
    /// in a V-Scenario (the dominant cost).
    pub v_extraction: u64,
    /// Units to compare one candidate's appearance model against one
    /// scenario's gallery.
    pub v_comparison: u64,
}

impl Default for CostModel {
    /// Defaults chosen so V extraction dominates, matching the paper's
    /// regime (seconds of vision work per scenario), while keeping full
    /// experiment sweeps tractable on a single-core machine (~100 µs of
    /// busy-work per extracted detection at ~4e8 units/s).
    fn default() -> Self {
        CostModel {
            v_extraction: 50_000,
            v_comparison: 2_000,
        }
    }
}

impl CostModel {
    /// A zero-cost model (all prices zero) for tests that only care about
    /// algorithmic results.
    #[must_use]
    pub const fn free() -> Self {
        CostModel {
            v_extraction: 0,
            v_comparison: 0,
        }
    }

    /// Burns `units` of deterministic CPU work and returns a checksum
    /// (so the optimizer cannot elide the loop).
    pub fn charge(units: u64) -> u64 {
        let mut acc: u64 = 0x9e37_79b9_7f4a_7c15;
        for i in 0..units {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i | 1);
            acc ^= acc >> 29;
        }
        std::hint::black_box(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_model_makes_vision_dominant() {
        let m = CostModel::default();
        assert!(m.v_extraction > m.v_comparison);
        assert_eq!(CostModel::free().v_comparison, 0);
    }

    #[test]
    fn charge_is_deterministic_and_scales() {
        assert_eq!(CostModel::charge(1000), CostModel::charge(1000));
        assert_ne!(CostModel::charge(1000), CostModel::charge(1001));
        assert_eq!(CostModel::charge(0), CostModel::charge(0));
    }
}
