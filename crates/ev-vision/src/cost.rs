//! The visual processing cost model.
//!
//! In the paper's testbed, V-stage time dominates E-stage time because
//! human detection and feature extraction are computation-intensive
//! (§VI-B: "E stage costs negligible time while the time spent in V stage
//! dominates"). Our synthetic gallery makes extraction trivially cheap, so
//! the time figures would lose their shape without a cost model.
//!
//! [`CostModel`] restores the asymmetry two ways at once:
//!
//! * [`CostModel::charge`] performs deterministic **busy-work** calibrated
//!   in abstract *work units*, so parallel execution on the stage-DAG
//!   scheduler yields genuine wall-clock speedups; and
//! * a [`CostLedger`] tallies simulated work units per stage, giving
//!   machine-independent numbers the experiment harness can report
//!   alongside wall time.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Work-unit prices for the operations of the EV-Matching pipeline.
///
/// One work unit corresponds to one iteration of the busy-work kernel
/// (roughly a few nanoseconds; calibrate with [`CostModel::calibrate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CostModel {
    /// Units to scan one E-record during E-stage processing.
    pub e_record: u64,
    /// Units to detect humans and extract features for **one detection**
    /// in a V-Scenario (the dominant cost).
    pub v_extraction: u64,
    /// Units to compare two extracted feature vectors.
    pub v_comparison: u64,
}

impl Default for CostModel {
    /// Defaults chosen so V extraction dwarfs E-record handling, matching
    /// the paper's regime (seconds of vision work per scenario vs.
    /// microseconds per log row), while keeping full experiment sweeps
    /// tractable on a single-core machine (~100 µs of busy-work per
    /// extracted detection at ~4e8 units/s).
    fn default() -> Self {
        CostModel {
            e_record: 10,
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
            e_record: 0,
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

    /// Measures how many work units this machine executes per
    /// microsecond, for translating ledgers into estimated seconds.
    #[must_use]
    pub fn calibrate() -> f64 {
        let units = 2_000_000;
        let start = std::time::Instant::now();
        let _ = Self::charge(units);
        let elapsed = start.elapsed().as_secs_f64().max(1e-9);
        units as f64 / (elapsed * 1e6)
    }
}

/// A thread-safe tally of simulated work, split by pipeline stage.
#[derive(Debug, Default)]
pub struct CostLedger {
    e_units: AtomicU64,
    v_units: AtomicU64,
}

impl CostLedger {
    /// Creates an empty ledger.
    #[must_use]
    pub fn new() -> Self {
        CostLedger::default()
    }

    /// Adds `units` of E-stage work.
    pub fn add_e(&self, units: u64) {
        self.e_units.fetch_add(units, Ordering::Relaxed);
    }

    /// Adds `units` of V-stage work.
    pub fn add_v(&self, units: u64) {
        self.v_units.fetch_add(units, Ordering::Relaxed);
    }

    /// Total E-stage units so far.
    #[must_use]
    pub fn e_units(&self) -> u64 {
        self.e_units.load(Ordering::Relaxed)
    }

    /// Total V-stage units so far.
    #[must_use]
    pub fn v_units(&self) -> u64 {
        self.v_units.load(Ordering::Relaxed)
    }

    /// Total units across both stages.
    #[must_use]
    pub fn total_units(&self) -> u64 {
        self.e_units() + self.v_units()
    }

    /// Resets both counters to zero.
    pub fn reset(&self) {
        self.e_units.store(0, Ordering::Relaxed);
        self.v_units.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_model_makes_vision_dominant() {
        let m = CostModel::default();
        assert!(m.v_extraction > 1_000 * m.e_record);
        assert!(m.v_comparison > m.e_record);
    }

    #[test]
    fn charge_is_deterministic_and_scales() {
        assert_eq!(CostModel::charge(1000), CostModel::charge(1000));
        assert_ne!(CostModel::charge(1000), CostModel::charge(1001));
        assert_eq!(CostModel::charge(0), CostModel::charge(0));
    }

    #[test]
    fn calibration_reports_positive_throughput() {
        let per_us = CostModel::calibrate();
        assert!(per_us > 0.0);
    }

    #[test]
    fn ledger_accumulates_and_resets() {
        let ledger = CostLedger::new();
        ledger.add_e(5);
        ledger.add_e(7);
        ledger.add_v(100);
        assert_eq!(ledger.e_units(), 12);
        assert_eq!(ledger.v_units(), 100);
        assert_eq!(ledger.total_units(), 112);
        ledger.reset();
        assert_eq!(ledger.total_units(), 0);
    }

    #[test]
    fn ledger_is_thread_safe() {
        let ledger = std::sync::Arc::new(CostLedger::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let l = ledger.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        l.add_v(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ledger.v_units(), 8000);
    }
}
