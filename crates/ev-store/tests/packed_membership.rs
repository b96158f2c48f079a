//! An E-Scenario's packed members (EIDs ascending in one allocation,
//! one vague bit each) answer every question the EID → attribute map
//! they replaced answered, and serialize as that map did.

use ev_core::ids::Eid;
use ev_core::region::CellId;
use ev_core::scenario::{EScenario, ScenarioId, ZoneAttr};
use ev_core::time::Timestamp;
use ev_store::EScenarioStore;
use proptest::prelude::*;
use serde::Serialize;
use std::collections::BTreeMap;

/// The reference: the map an E-Scenario held before its members were
/// packed, filled in member order, so a repeated EID keeps its last
/// attribute.
fn reference(members: &[(Eid, ZoneAttr)]) -> BTreeMap<Eid, ZoneAttr> {
    members.iter().copied().collect()
}

/// An E-Scenario as it serialized when it held that map.
#[derive(Serialize)]
struct MapScenario {
    id: ScenarioId,
    eids: BTreeMap<Eid, ZoneAttr>,
}

fn members(raw: &[(u64, bool)]) -> Vec<(Eid, ZoneAttr)> {
    let attr = |vague| {
        if vague {
            ZoneAttr::Vague
        } else {
            ZoneAttr::Inclusive
        }
    };
    raw.iter()
        .map(|&(eid, vague)| (Eid::from_u64(eid), attr(vague)))
        .collect()
}

fn scenario(time: u64, members: &[(Eid, ZoneAttr)]) -> EScenario {
    EScenario::from_members(
        CellId::new(3),
        Timestamp::new(time),
        members.iter().copied(),
    )
}

#[test]
fn one_scenario_serializes_as_the_map_did() {
    let s = scenario(
        7,
        &members(&[(0xaabb_cc00_0102, true), (2, true), (1, false)]),
    );
    let store = EScenarioStore::from_scenarios(vec![s]);
    let json = serde_json::to_string(&store).unwrap();
    assert_eq!(
        json,
        r#"[{"id":{"time":7,"cell":3},"eids":{"1":"Inclusive","2":"Vague","187723558158594":"Vague"}}]"#
    );
    let back: EScenarioStore = serde_json::from_str(&json).unwrap();
    assert_eq!(back, store);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every query of a scenario built from any member sequence is the
    /// reference map's answer, 64-EID bit-word boundaries included.
    #[test]
    fn packed_members_answer_as_the_map(
        raw in prop::collection::vec((0u64..200, any::<bool>()), 0..150),
        probes in prop::collection::vec(0u64..220, 0..32),
    ) {
        let members = members(&raw);
        let map = reference(&members);
        let s = scenario(1, &members);
        prop_assert_eq!(s.iter().collect::<Vec<_>>(), map.iter().map(|(&e, &a)| (e, a)).collect::<Vec<_>>());
        prop_assert_eq!(s.eids().collect::<Vec<_>>(), map.keys().copied().collect::<Vec<_>>());
        prop_assert_eq!(s.len(), map.len());
        prop_assert_eq!(s.is_empty(), map.is_empty());
        let eids = members.iter().map(|&(eid, _)| eid);
        for eid in eids.chain(probes.iter().map(|&p| Eid::from_u64(p))) {
            prop_assert_eq!(s.contains(eid), map.contains_key(&eid));
            prop_assert_eq!(s.attr(eid), map.get(&eid).copied());
            prop_assert_eq!(
                s.contains_inclusive(eid),
                map.get(&eid) == Some(&ZoneAttr::Inclusive)
            );
        }
    }

    /// Two scenarios are equal exactly when their reference maps are,
    /// and a store of them round-trips through serde in the map's
    /// rendering.
    #[test]
    fn equality_and_serde_follow_the_map(
        a in prop::collection::vec((0u64..6, any::<bool>()), 0..8),
        b in prop::collection::vec((0u64..6, any::<bool>()), 0..8),
    ) {
        let (a, b) = (members(&a), members(&b));
        let (sa, sb) = (scenario(1, &a), scenario(1, &b));
        prop_assert_eq!(sa == sb, reference(&a) == reference(&b));

        let store = EScenarioStore::from_scenarios(vec![sa.clone(), scenario(2, &b)]);
        let json = serde_json::to_string(&store).unwrap();
        let rendered = [(1, &a), (2, &b)].map(|(time, members)| MapScenario {
            id: ScenarioId::new(Timestamp::new(time), CellId::new(3)),
            eids: reference(members),
        });
        prop_assert_eq!(&json, &serde_json::to_string(&rendered[..]).unwrap());
        let back: EScenarioStore = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&back, &store);
        prop_assert_eq!(back.get(sa.id()), Some(&sa));
    }
}
