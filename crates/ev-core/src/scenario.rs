//! The EV-Scenario abstraction (paper Definition 1).
//!
//! An **EV-Scenario** is a snapshot of the EID and VID sets appearing in a
//! specific spatial region (a grid cell) at a single time point — or, in
//! the practical setting, aggregated over a short time window. It is
//! comprised of an [`EScenario`] (EIDs only) and a [`VScenario`] (VIDs
//! only).
//!
//! E-Scenarios are cheap: they come straight from electronic capture logs.
//! V-Scenarios are expensive: extracting the VID set of a scenario means
//! running human detection and feature extraction over video. The entire
//! point of EID set splitting is to touch as few V-Scenarios as possible.

use crate::feature::FeatureVector;
use crate::ids::{Eid, Vid};
use crate::region::CellId;
use crate::time::Timestamp;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Identifier of one EV-Scenario: a (cell, timestamp) pair.
///
/// Scenario ids order by time first, then by cell, which matches how the
/// parallel splitting algorithm selects scenario batches (one random
/// timestamp per iteration, paper Algorithm 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ScenarioId {
    /// The snapshot instant (or window start in the practical setting).
    pub time: Timestamp,
    /// The spatial cell.
    pub cell: CellId,
}

impl ScenarioId {
    /// Creates a scenario id.
    #[must_use]
    pub const fn new(time: Timestamp, cell: CellId) -> Self {
        ScenarioId { time, cell }
    }
}

impl fmt::Display for ScenarioId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S({}, {})", self.time, self.cell)
    }
}

/// The zone attribute attached to an EID inside an E-Scenario
/// (paper §IV-C2): either confidently in the cell's interior, or in the
/// vague band along the border.
///
/// EIDs in the *exclusive* zone are simply absent from the scenario, so no
/// third variant is needed here (contrast with [`crate::region::Zone`],
/// which classifies arbitrary points).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ZoneAttr {
    /// The EID was observed firmly inside the cell.
    Inclusive,
    /// The EID was observed near the cell border; it may belong next door.
    Vague,
}

/// An E-Scenario: the set of EIDs heard in one cell at one time, each with
/// its zone attribute.
///
/// In the ideal setting every EID is [`ZoneAttr::Inclusive`]; the vague
/// attribute only appears under the practical drift model.
///
/// A scenario is a value whose EIDs are shared: a clone bumps a
/// reference count and never copies the membership map, and
/// [`insert`](Self::insert) copies it only when another clone still
/// reads it (copy-on-write).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EScenario {
    id: ScenarioId,
    eids: Arc<BTreeMap<Eid, ZoneAttr>>,
}

impl EScenario {
    /// Creates an empty E-Scenario for `cell` at `time`.
    #[must_use]
    pub fn new(cell: CellId, time: Timestamp) -> Self {
        EScenario {
            id: ScenarioId::new(time, cell),
            eids: Arc::default(),
        }
    }

    /// The scenario's identifier.
    #[must_use]
    pub fn id(&self) -> ScenarioId {
        self.id
    }

    /// The cell this scenario covers.
    #[must_use]
    pub fn cell(&self) -> CellId {
        self.id.cell
    }

    /// The snapshot instant.
    #[must_use]
    pub fn time(&self) -> Timestamp {
        self.id.time
    }

    /// Adds (or re-attributes) an EID. Returns the previous attribute if
    /// the EID was already present.
    pub fn insert(&mut self, eid: Eid, attr: ZoneAttr) -> Option<ZoneAttr> {
        Arc::make_mut(&mut self.eids).insert(eid, attr)
    }

    /// Whether the EID appears in this scenario (in either zone).
    #[must_use]
    pub fn contains(&self, eid: Eid) -> bool {
        self.eids.contains_key(&eid)
    }

    /// The zone attribute of `eid`, if present.
    #[must_use]
    pub fn attr(&self, eid: Eid) -> Option<ZoneAttr> {
        self.eids.get(&eid).copied()
    }

    /// Whether the EID appears with the [`ZoneAttr::Inclusive`] attribute.
    #[must_use]
    pub fn contains_inclusive(&self, eid: Eid) -> bool {
        self.attr(eid) == Some(ZoneAttr::Inclusive)
    }

    /// Number of EIDs in the scenario.
    #[must_use]
    pub fn len(&self) -> usize {
        self.eids.len()
    }

    /// Whether the scenario holds no EIDs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.eids.is_empty()
    }

    /// Iterates over `(eid, attr)` pairs in EID order.
    pub fn iter(&self) -> impl Iterator<Item = (Eid, ZoneAttr)> + '_ {
        self.eids.iter().map(|(&e, &a)| (e, a))
    }

    /// Iterates over all EIDs in the scenario, in order.
    pub fn eids(&self) -> impl Iterator<Item = Eid> + '_ {
        self.eids.keys().copied()
    }
}

/// One detected human figure in a V-Scenario: a VID handle together with
/// the appearance feature observed *in this scenario* (observations of the
/// same person differ across scenarios because of viewpoint and noise).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Detection {
    /// The visual identity of the detected figure.
    pub vid: Vid,
    /// The appearance descriptor extracted from this scenario's frames.
    pub feature: FeatureVector,
}

/// A V-Scenario: the set of human figures detected in one cell's video at
/// one time, after (expensive) extraction.
///
/// Like [`EScenario`], a value whose detections are shared: a clone
/// never copies them, and [`push`](Self::push) copies them only when
/// another clone still reads them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VScenario {
    id: ScenarioId,
    detections: Arc<Vec<Detection>>,
}

impl VScenario {
    /// Creates an empty V-Scenario for `cell` at `time`.
    #[must_use]
    pub fn new(cell: CellId, time: Timestamp) -> Self {
        VScenario {
            id: ScenarioId::new(time, cell),
            detections: Arc::default(),
        }
    }

    /// The scenario's identifier.
    #[must_use]
    pub fn id(&self) -> ScenarioId {
        self.id
    }

    /// The cell this scenario covers.
    #[must_use]
    pub fn cell(&self) -> CellId {
        self.id.cell
    }

    /// The snapshot instant.
    #[must_use]
    pub fn time(&self) -> Timestamp {
        self.id.time
    }

    /// Records a detection.
    pub fn push(&mut self, detection: Detection) {
        Arc::make_mut(&mut self.detections).push(detection);
    }

    /// The detections in this scenario.
    #[must_use]
    pub fn detections(&self) -> &[Detection] {
        &self.detections
    }

    /// Whether a figure with the given VID was detected.
    #[must_use]
    pub fn contains(&self, vid: Vid) -> bool {
        self.detections.iter().any(|d| d.vid == vid)
    }

    /// Number of detections.
    #[must_use]
    pub fn len(&self) -> usize {
        self.detections.len()
    }

    /// Whether no figures were detected.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.detections.is_empty()
    }

    /// Iterates over detected VIDs.
    pub fn vids(&self) -> impl Iterator<Item = Vid> + '_ {
        self.detections.iter().map(|d| d.vid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn esc() -> EScenario {
        let mut s = EScenario::new(CellId::new(3), Timestamp::new(7));
        s.insert(Eid::from_u64(1), ZoneAttr::Inclusive);
        s.insert(Eid::from_u64(2), ZoneAttr::Vague);
        s
    }

    #[test]
    fn scenario_id_orders_time_major() {
        let a = ScenarioId::new(Timestamp::new(1), CellId::new(9));
        let b = ScenarioId::new(Timestamp::new(2), CellId::new(0));
        assert!(a < b);
        let c = ScenarioId::new(Timestamp::new(1), CellId::new(10));
        assert!(a < c);
    }

    #[test]
    fn escenario_membership_and_attrs() {
        let s = esc();
        assert_eq!(s.len(), 2);
        assert!(s.contains(Eid::from_u64(1)));
        assert!(s.contains(Eid::from_u64(2)));
        assert!(!s.contains(Eid::from_u64(3)));
        assert!(s.contains_inclusive(Eid::from_u64(1)));
        assert!(!s.contains_inclusive(Eid::from_u64(2)));
        assert_eq!(s.attr(Eid::from_u64(2)), Some(ZoneAttr::Vague));
        assert_eq!(s.attr(Eid::from_u64(3)), None);
    }

    #[test]
    fn escenario_insert_returns_previous_attr() {
        let mut s = esc();
        let prev = s.insert(Eid::from_u64(2), ZoneAttr::Inclusive);
        assert_eq!(prev, Some(ZoneAttr::Vague));
        assert!(s.contains_inclusive(Eid::from_u64(2)));
        assert_eq!(s.len(), 2, "re-insert does not duplicate");
    }

    #[test]
    fn vscenario_detections() {
        let mut v = VScenario::new(CellId::new(3), Timestamp::new(7));
        assert!(v.is_empty());
        v.push(Detection {
            vid: Vid::new(4),
            feature: FeatureVector::new(vec![0.5, 0.5]).unwrap(),
        });
        assert_eq!(v.len(), 1);
        assert!(v.contains(Vid::new(4)));
        assert!(!v.contains(Vid::new(5)));
        assert_eq!(v.vids().collect::<Vec<_>>(), vec![Vid::new(4)]);
    }

    #[test]
    fn escenario_inclusive_iterator_filters() {
        let s = esc();
        let inc: Vec<Eid> = (s.iter())
            .filter(|&(_, attr)| attr == ZoneAttr::Inclusive)
            .map(|(eid, _)| eid)
            .collect();
        assert_eq!(inc, vec![Eid::from_u64(1)]);
        let all: Vec<Eid> = s.eids().collect();
        assert_eq!(all, vec![Eid::from_u64(1), Eid::from_u64(2)]);
    }

    fn vsc() -> VScenario {
        let mut v = VScenario::new(CellId::new(3), Timestamp::new(7));
        v.push(Detection {
            vid: Vid::new(4),
            feature: FeatureVector::new(vec![0.5, 0.5]).unwrap(),
        });
        v
    }

    #[test]
    fn clone_shares_the_payload() {
        let e = esc();
        let e2 = e.clone();
        assert!(Arc::ptr_eq(&e.eids, &e2.eids), "E clone shares the EIDs");
        assert_eq!(e, e2);
        let v = vsc();
        let v2 = v.clone();
        assert_eq!(v.detections().as_ptr(), v2.detections().as_ptr());
        assert_eq!(v, v2);
    }

    #[test]
    fn writes_to_a_clone_copy_on_write() {
        let e = esc();
        let mut e2 = e.clone();
        e2.insert(Eid::from_u64(3), ZoneAttr::Inclusive);
        assert_eq!(e, esc(), "the original is unchanged");
        assert_eq!((e.len(), e2.len()), (2, 3));
        assert!(!Arc::ptr_eq(&e.eids, &e2.eids));

        let v = vsc();
        let mut v2 = v.clone();
        v2.push(Detection {
            vid: Vid::new(5),
            feature: FeatureVector::new(vec![0.1, 0.9]).unwrap(),
        });
        assert_eq!(v, vsc(), "the original is unchanged");
        assert_eq!((v.len(), v2.len()), (1, 2));

        // A sole owner writes in place: nothing to copy.
        let mut owned = vsc();
        let before = Arc::as_ptr(&owned.detections);
        owned.push(vsc().detections()[0].clone());
        assert_eq!(Arc::as_ptr(&owned.detections), before);
    }

    #[test]
    fn scenario_display() {
        let id = ScenarioId::new(Timestamp::new(7), CellId::new(3));
        assert_eq!(id.to_string(), "S(t=7, cell#3)");
    }
}
