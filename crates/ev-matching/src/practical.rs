//! EID set splitting for the practical setting with vague zones
//! (paper §IV-C2, Theorem 4.3) — the [`SplitMode::Practical`] entry point
//! of the one splitting loop in [`setsplit`](crate::setsplit).
//!
//! Drifting EIDs are handled inside
//! [`EidCover`](ev_core::partition::EidCover): an EID observed in a
//! scenario's vague zone is kept on both sides of the split. The scenario
//! list attached to each EID only includes scenarios where the EID was
//! observed *inclusively* — "we should try to avoid using EV-Scenarios
//! with the target EID in the vague zone to distinguish that EID".
//! Distinguished EIDs are pruned from the cover as they emerge (the
//! exclusion step of Theorem 4.1's proof), which lets vague duplicates
//! collapse and later scenarios work on smaller blocks.
//!
//! This is the splitting semantics behind every noisy-data result:
//! Tables I–II and the missing-rate robustness of Figs. 10–11 run it
//! (it is [`MatcherConfig`](crate::MatcherConfig)'s default), and the
//! `ablate-vague` experiment sweeps the vague-zone width it depends on.
//! Its scenario cost relative to the ideal Algorithm 1 is Theorem 4.4's
//! wider bound ([`analysis`](crate::analysis)).

use crate::setsplit::{split, SetSplitConfig, SplitMode, SplitOutput};
use ev_core::ids::Eid;
use ev_store::EScenarioStore;
use ev_telemetry::Telemetry;
use std::collections::BTreeSet;

/// The result of practical EID set splitting: the one [`SplitOutput`].
pub type PracticalSplitOutput = SplitOutput;

/// Runs practical-setting EID set splitting over `store` for `targets`.
#[must_use]
pub fn split_practical(
    store: &EScenarioStore,
    targets: &BTreeSet<Eid>,
    config: &SetSplitConfig,
) -> SplitOutput {
    split(
        store,
        targets,
        config,
        SplitMode::Practical,
        &BTreeSet::new(),
        Telemetry::disabled(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setsplit::tests::in_store_order;
    use ev_core::region::CellId;
    use ev_core::scenario::{EScenario, ZoneAttr};
    use ev_core::time::Timestamp;

    fn scenario(cell: usize, time: u64, inclusive: &[u64], vague: &[u64]) -> EScenario {
        let mut s = EScenario::new(CellId::new(cell), Timestamp::new(time));
        for &e in inclusive {
            s.insert(Eid::from_u64(e), ZoneAttr::Inclusive);
        }
        for &e in vague {
            s.insert(Eid::from_u64(e), ZoneAttr::Vague);
        }
        s
    }

    fn targets(raw: impl IntoIterator<Item = u64>) -> BTreeSet<Eid> {
        raw.into_iter().map(Eid::from_u64).collect()
    }

    #[test]
    fn clean_scenarios_split_like_ideal() {
        let store = EScenarioStore::from_scenarios(vec![
            scenario(0, 0, &[2, 3], &[]),
            scenario(1, 1, &[1, 3], &[]),
        ]);
        let out = in_store_order(&store, &targets(0..4), SplitMode::Practical);
        assert!(out.fully_split());
        assert_eq!(out.recorded.len(), 2);
        assert_eq!(out.lists[&Eid::from_u64(3)].len(), 2);
    }

    #[test]
    fn vague_appearances_are_excluded_from_lists() {
        let store = EScenarioStore::from_scenarios(vec![
            scenario(0, 0, &[0], &[1]),
            scenario(1, 1, &[1], &[]),
            scenario(2, 2, &[2], &[]),
        ]);
        let out = in_store_order(&store, &targets(0..3), SplitMode::Practical);
        // EID 1 was vague in the first scenario; only the second (where it
        // is inclusive) may appear in its list.
        for id in &out.lists[&Eid::from_u64(1)] {
            assert_ne!(id.time, Timestamp::new(0));
        }
    }

    #[test]
    fn drifting_eid_is_eventually_distinguished() {
        let store = EScenarioStore::from_scenarios(vec![
            scenario(0, 0, &[0], &[1]),
            scenario(0, 1, &[1], &[]),
            scenario(1, 2, &[2], &[]),
        ]);
        let out = in_store_order(&store, &targets(0..3), SplitMode::Practical);
        assert!(out.fully_split(), "cover: {:?}", out.partition);
    }

    #[test]
    fn all_vague_scenarios_never_split() {
        let store = EScenarioStore::from_scenarios(vec![
            scenario(0, 0, &[], &[0, 1]),
            scenario(1, 1, &[], &[0, 1]),
        ]);
        let out = in_store_order(&store, &targets(0..2), SplitMode::Practical);
        assert!(!out.fully_split());
        assert!(out.recorded.is_empty());
        // Anchors fall back to vague appearances when nothing better
        // exists.
        assert_eq!(out.lists[&Eid::from_u64(0)].len(), 1);
        assert_eq!(out.lists[&Eid::from_u64(0)][0].time, Timestamp::new(0));
    }

    #[test]
    fn anchors_prefer_a_later_inclusive_appearance() {
        // Nothing ever splits {0, 1}, so both lists come out empty and
        // need an anchor. EID 0 is first seen vague, then inclusive: the
        // later, trustworthy appearance is the anchor. EID 1 is inclusive
        // from the start.
        let store = EScenarioStore::from_scenarios(vec![
            scenario(0, 0, &[1], &[0]),
            scenario(1, 1, &[0, 1], &[]),
        ]);
        let out = in_store_order(&store, &targets(0..2), SplitMode::Practical);
        assert!(out.recorded.is_empty());
        let anchor = |e| out.lists[&Eid::from_u64(e)].as_slice();
        assert_eq!(anchor(0).len(), 1);
        assert_eq!(anchor(0)[0].time, Timestamp::new(1));
        assert_eq!(anchor(1)[0].time, Timestamp::new(0));
        // The ideal setting reads the vague appearance as an appearance.
        let ideal = in_store_order(&store, &targets(0..2), SplitMode::Ideal);
        assert_eq!(ideal.lists[&Eid::from_u64(0)][0].time, Timestamp::new(0));
    }

    #[test]
    fn random_time_is_deterministic() {
        let store = EScenarioStore::from_scenarios(vec![
            scenario(0, 0, &[0, 1], &[2]),
            scenario(1, 1, &[2], &[]),
            scenario(2, 2, &[0], &[]),
        ]);
        let cfg = SetSplitConfig { seed: 5 };
        let a = split_practical(&store, &targets(0..3), &cfg);
        let b = split_practical(&store, &targets(0..3), &cfg);
        assert_eq!(a.recorded, b.recorded);
    }

    #[test]
    fn selected_covers_all_lists() {
        let store = EScenarioStore::from_scenarios(vec![
            scenario(0, 0, &[0], &[1]),
            scenario(1, 1, &[1, 2], &[]),
        ]);
        let out = in_store_order(&store, &targets(0..3), SplitMode::Practical);
        let selected = out.selected();
        for list in out.lists.values() {
            for id in list {
                assert!(selected.contains(id));
            }
        }
    }
}
