//! Instrumentation and checks for the paper's analytical results
//! (§IV-D: Theorems 4.1–4.4).
//!
//! The paper proves properties of EID set splitting, and this module
//! turns them into something executable:
//!
//! * **Theorem 4.1** — the recorded scenarios alone suffice to
//!   distinguish the cohort: [`audit_split`] replays them against a
//!   fresh partition and checks it reaches the same granularity
//!   (`replay_consistent`).
//! * **Theorem 4.2** — the ideal setting needs between `log2(n)` and
//!   `n − 1` effective scenarios ([`theorem_4_2_bounds`]); the lower
//!   bound only binds fully-split runs.
//! * **Theorem 4.4** — the practical (vague-zone, Theorem 4.3) setting
//!   pays for drift tolerance with the wider upper bound of
//!   [`theorem_4_4_bounds`].
//!
//! [`audit_split`] backs the `evm_theorem_lower_bound` /
//! `evm_theorem_upper_bound` telemetry gauges that
//! `evmatch check-metrics` gates on, and [`list_length_stats`] computes
//! the per-EID list-length distribution whose mean is paper **Fig. 7**.
//! The bounds are asserted on real splits in
//! `crates/ev-matching/tests/index_equivalence.rs`.

use crate::setsplit::SplitOutput;
use ev_core::ids::Eid;
use ev_core::partition::EidCover;
use ev_core::scenario::ZoneAttr;
use ev_store::EScenarioStore;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// The scenario-count bounds of Theorem 4.2 (ideal setting):
/// `log2(n) ≤ #effective ≤ n − 1` to distinguish `n` EIDs.
#[must_use]
pub fn theorem_4_2_bounds(n: usize) -> (usize, usize) {
    if n <= 1 {
        return (0, 0);
    }
    let lower = (usize::BITS - (n - 1).leading_zeros()) as usize; // ceil(log2 n)
    (lower, n - 1)
}

/// The scenario-count bounds of Theorem 4.4 (practical setting):
/// `log2(n) ≤ #effective ≤ n²`.
#[must_use]
pub fn theorem_4_4_bounds(n: usize) -> (usize, usize) {
    if n <= 1 {
        return (0, 0);
    }
    (theorem_4_2_bounds(n).0, n * n)
}

/// A structured audit of a completed set-splitting run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SplitAudit {
    /// Requested universe size.
    pub universe: usize,
    /// EIDs distinguished by the run.
    pub distinguished: usize,
    /// Effective scenarios recorded.
    pub recorded: usize,
    /// Lower bound of Theorem 4.2 for this universe.
    pub lower_bound: usize,
    /// Upper bound of Theorem 4.2 for this universe.
    pub upper_bound: usize,
    /// Whether the recorded count is within the theorem's bounds
    /// (the lower bound only binds fully-split runs).
    pub within_bounds: bool,
    /// Whether replaying the recorded scenarios reproduces the final
    /// partition — the constructive core of Theorem 4.1.
    pub replay_consistent: bool,
}

/// Audits a [`SplitOutput`] against Theorems 4.1 and 4.2.
#[must_use]
pub fn audit_split(
    store: &EScenarioStore,
    targets: &BTreeSet<Eid>,
    out: &SplitOutput,
) -> SplitAudit {
    let n = targets.len();
    let (lower, upper) = theorem_4_2_bounds(n);
    let fully = out.fully_split();
    let within = out.recorded.len() <= upper && (!fully || out.recorded.len() >= lower);

    // Replay: the recorded scenarios alone must rebuild the same
    // partition granularity.
    let mut replay = EidCover::new(targets.iter().copied());
    for id in &out.recorded {
        if let Some(s) = store.get(*id) {
            replay.split(s.eids().map(|e| (e, ZoneAttr::Inclusive)));
        }
    }
    let replay_consistent = replay.block_count() == out.partition.block_count();

    SplitAudit {
        universe: n,
        distinguished: out.partition.distinguished().count(),
        recorded: out.recorded.len(),
        lower_bound: lower,
        upper_bound: upper,
        within_bounds: within,
        replay_consistent,
    }
}

/// Distribution statistics of per-EID scenario-list lengths (paper Fig. 7
/// reports the mean).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ListLengthStats {
    /// Number of lists.
    pub count: usize,
    /// Shortest list.
    pub min: usize,
    /// Longest list.
    pub max: usize,
    /// Mean length.
    pub mean: f64,
}

/// Computes list-length statistics for a splitting output.
#[must_use]
pub fn list_length_stats(out: &SplitOutput) -> ListLengthStats {
    let lengths: Vec<usize> = out.lists.values().map(Vec::len).collect();
    if lengths.is_empty() {
        return ListLengthStats {
            count: 0,
            min: 0,
            max: 0,
            mean: 0.0,
        };
    }
    ListLengthStats {
        count: lengths.len(),
        min: *lengths.iter().min().expect("non-empty"),
        max: *lengths.iter().max().expect("non-empty"),
        mean: lengths.iter().sum::<usize>() as f64 / lengths.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setsplit::{split_ideal, SetSplitConfig};
    use ev_core::region::CellId;
    use ev_core::scenario::{EScenario, ZoneAttr};
    use ev_core::time::Timestamp;

    #[test]
    fn bounds_formulas() {
        assert_eq!(theorem_4_2_bounds(0), (0, 0));
        assert_eq!(theorem_4_2_bounds(1), (0, 0));
        assert_eq!(theorem_4_2_bounds(2), (1, 1));
        assert_eq!(theorem_4_2_bounds(8), (3, 7));
        assert_eq!(theorem_4_2_bounds(9), (4, 8));
        assert_eq!(theorem_4_2_bounds(1000), (10, 999));
        assert_eq!(theorem_4_4_bounds(8), (3, 64));
        assert_eq!(theorem_4_4_bounds(1), (0, 0));
    }

    fn scenario(cell: usize, time: u64, eids: &[u64]) -> EScenario {
        let mut s = EScenario::new(CellId::new(cell), Timestamp::new(time));
        for &e in eids {
            s.insert(Eid::from_u64(e), ZoneAttr::Inclusive);
        }
        s
    }

    #[test]
    fn audit_of_a_clean_run_passes() {
        let store =
            EScenarioStore::from_scenarios(vec![scenario(0, 0, &[2, 3]), scenario(1, 1, &[1, 3])]);
        let targets: BTreeSet<Eid> = (0..4).map(Eid::from_u64).collect();
        let out = split_ideal(&store, &targets, &SetSplitConfig::default());
        let audit = audit_split(&store, &targets, &out);
        assert_eq!(audit.universe, 4);
        assert_eq!(audit.distinguished, 4);
        assert_eq!(audit.recorded, 2);
        assert!(audit.within_bounds, "{audit:?}");
        assert!(audit.replay_consistent);
    }

    #[test]
    fn audit_flags_partial_runs_consistently() {
        // Inseparable pair: never fully split, lower bound not binding.
        let store = EScenarioStore::from_scenarios(vec![scenario(0, 0, &[0, 1])]);
        let targets: BTreeSet<Eid> = (0..2).map(Eid::from_u64).collect();
        let out = split_ideal(&store, &targets, &SetSplitConfig::default());
        let audit = audit_split(&store, &targets, &out);
        assert_eq!(audit.distinguished, 0);
        assert!(audit.within_bounds);
        assert!(audit.replay_consistent);
    }

    #[test]
    fn list_stats() {
        let store =
            EScenarioStore::from_scenarios(vec![scenario(0, 0, &[2, 3]), scenario(1, 1, &[1, 3])]);
        let targets: BTreeSet<Eid> = (0..4).map(Eid::from_u64).collect();
        let out = split_ideal(&store, &targets, &SetSplitConfig::default());
        let stats = list_length_stats(&out);
        assert_eq!(stats.count, 4);
        assert!(stats.max >= 2, "EID 3 is in both scenarios");
        assert!(stats.mean > 0.0);
        assert_eq!(
            stats.min, 0,
            "EID 0 appears in no scenario at all, so no anchor exists"
        );
    }

    #[test]
    fn empty_output_stats() {
        let store = EScenarioStore::from_scenarios(vec![]);
        let targets: BTreeSet<Eid> = BTreeSet::new();
        let out = split_ideal(&store, &targets, &SetSplitConfig::default());
        let stats = list_length_stats(&out);
        assert_eq!(stats.count, 0);
        assert_eq!(stats.mean, 0.0);
    }
}
