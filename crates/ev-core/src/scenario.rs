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
//!
//! Both are values whose payload is shared: a clone bumps a reference
//! count. An E-Scenario is built once from its members and never changes;
//! it keeps them in one allocation, the EIDs ascending followed by one
//! vague bit per EID, so a membership test is a binary search plus a bit
//! test and a scenario costs one allocation, whatever its size.

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
/// A scenario is a value built once from its members
/// ([`from_members`](Self::from_members)). Its EIDs live in one shared,
/// immutable allocation, so a clone bumps a reference count and never
/// copies them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EScenario {
    id: ScenarioId,
    eids: Members,
}

impl EScenario {
    /// Creates an empty E-Scenario for `cell` at `time`.
    #[must_use]
    pub fn new(cell: CellId, time: Timestamp) -> Self {
        Self::from_members(cell, time, [])
    }

    /// Creates the E-Scenario for `cell` at `time` holding `members`.
    ///
    /// The members may come in any order; an EID that repeats keeps the
    /// attribute of its last occurrence. Members already in strictly
    /// ascending EID order (what every builder and the disk encoder
    /// produce) are copied straight into the scenario's one allocation,
    /// which is why the iterator must be cloneable: one pass sizes the
    /// allocation and checks the order, the next fills it.
    #[must_use]
    pub fn from_members<I>(cell: CellId, time: Timestamp, members: I) -> Self
    where
        I: IntoIterator<Item = (Eid, ZoneAttr)>,
        I::IntoIter: Clone,
    {
        EScenario {
            id: ScenarioId::new(time, cell),
            eids: Members::new(members.into_iter()),
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
    ///
    /// A convenience for hand-built test fixtures: the members are
    /// immutable, so each call copies them into a fresh allocation.
    /// Builders collect their members and call
    /// [`from_members`](Self::from_members) once.
    pub fn insert(&mut self, eid: Eid, attr: ZoneAttr) -> Option<ZoneAttr> {
        let previous = self.attr(eid);
        self.eids = Members::new(self.eids.iter().chain([(eid, attr)]));
        previous
    }

    /// Whether the EID appears in this scenario (in either zone).
    #[must_use]
    pub fn contains(&self, eid: Eid) -> bool {
        self.eids.attr(eid).is_some()
    }

    /// The zone attribute of `eid`, if present.
    #[must_use]
    pub fn attr(&self, eid: Eid) -> Option<ZoneAttr> {
        self.eids.attr(eid)
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
        self.eids.0.is_empty()
    }

    /// Iterates over `(eid, attr)` pairs in EID order.
    pub fn iter(&self) -> impl Iterator<Item = (Eid, ZoneAttr)> + Clone + '_ {
        self.eids.iter()
    }

    /// Iterates over all EIDs in the scenario, in order.
    pub fn eids(&self) -> impl Iterator<Item = Eid> + Clone + '_ {
        self.eids.parts().0.iter().map(|&raw| Eid::from_raw(raw))
    }
}

/// An E-Scenario's members in one shared, immutable allocation: the `n`
/// EIDs ascending, then `ceil(n / 64)` words with one bit per EID, set
/// when that EID is [`ZoneAttr::Vague`].
///
/// The allocation's length alone gives `n`: `n + ceil(n / 64)` grows
/// strictly with `n`, and `ceil(words / 65)` recovers the bit words.
/// Bits past the last EID stay clear, so equal member sets are equal
/// words.
#[derive(Clone, PartialEq)]
struct Members(Arc<[u64]>);

impl Members {
    /// Packs `members`, given in any order; a repeated EID keeps its
    /// last attribute.
    fn new<I>(members: I) -> Self
    where
        I: Iterator<Item = (Eid, ZoneAttr)> + Clone,
    {
        let mut len = 0;
        let mut ascending = true;
        let mut last = None;
        for (eid, _) in members.clone() {
            ascending &= last.is_none_or(|prev| prev < eid);
            last = Some(eid);
            len += 1;
        }
        if ascending {
            return Self::from_ascending(members, len);
        }
        let mut sorted: Vec<(Eid, ZoneAttr)> = members.collect();
        sorted.sort_by_key(|&(eid, _)| eid);
        sorted.dedup_by(|later, kept| {
            let repeat = later.0 == kept.0;
            if repeat {
                kept.1 = later.1;
            }
            repeat
        });
        Self::from_ascending(sorted.iter().copied(), sorted.len())
    }

    /// Copies `len` members, EIDs strictly ascending, into one
    /// allocation of exactly their size.
    fn from_ascending(members: impl Iterator<Item = (Eid, ZoneAttr)>, len: usize) -> Self {
        // A trusted-length iterator collects into the shared slice with
        // one allocation; the sole owner then fills it in place.
        let mut words: Arc<[u64]> = std::iter::repeat_n(0, len + len.div_ceil(64)).collect();
        let slots = Arc::get_mut(&mut words).expect("a fresh allocation has one owner");
        let (eids, vague) = slots.split_at_mut(len);
        for (at, ((eid, attr), slot)) in members.zip(eids).enumerate() {
            *slot = eid.as_u64();
            if attr == ZoneAttr::Vague {
                vague[at / 64] |= 1 << (at % 64);
            }
        }
        Members(words)
    }

    /// The EIDs' raw values, ascending, and the vague bit words.
    fn parts(&self) -> (&[u64], &[u64]) {
        let words = self.0.len();
        self.0.split_at(words - words.div_ceil(65))
    }

    fn len(&self) -> usize {
        self.parts().0.len()
    }

    /// The attribute of `eid`, if it is a member.
    fn attr(&self, eid: Eid) -> Option<ZoneAttr> {
        let (eids, vague) = self.parts();
        let at = eids.binary_search(&eid.as_u64()).ok()?;
        Some(zone(vague, at))
    }

    fn iter(&self) -> impl Iterator<Item = (Eid, ZoneAttr)> + Clone + '_ {
        let (eids, vague) = self.parts();
        let eids = eids.iter().enumerate();
        eids.map(move |(at, &raw)| (Eid::from_raw(raw), zone(vague, at)))
    }
}

/// The attribute the vague bit words give the member at `at`.
fn zone(vague: &[u64], at: usize) -> ZoneAttr {
    if vague[at / 64] >> (at % 64) & 1 == 1 {
        ZoneAttr::Vague
    } else {
        ZoneAttr::Inclusive
    }
}

/// Renders as the EID → attribute map the members are.
impl fmt::Debug for Members {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Serializes as an EID → attribute map, in EID order.
impl Serialize for Members {
    fn to_value(&self) -> serde::Value {
        let key = |eid: Eid| serde::value::key_to_string(&eid.to_value());
        serde::Value::Obj(
            self.iter()
                .map(|(eid, attr)| (key(eid), attr.to_value()))
                .collect(),
        )
    }
}

/// Reads an EID → attribute map in any key order; a repeated key keeps
/// its last attribute.
impl Deserialize for Members {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let map = BTreeMap::<Eid, ZoneAttr>::from_value(v)?;
        Ok(Members::new(map.iter().map(|(&eid, &attr)| (eid, attr))))
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
        EScenario::from_members(
            CellId::new(3),
            Timestamp::new(7),
            [
                (Eid::from_u64(1), ZoneAttr::Inclusive),
                (Eid::from_u64(2), ZoneAttr::Vague),
            ],
        )
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
    fn escenario_members_sort_and_the_last_attr_wins() {
        let e = Eid::from_u64;
        let members = [
            (e(2), ZoneAttr::Inclusive),
            (e(1), ZoneAttr::Inclusive),
            (e(2), ZoneAttr::Vague),
        ];
        let s = EScenario::from_members(CellId::new(3), Timestamp::new(7), members);
        assert_eq!(s, esc());
        assert_eq!(s.len(), 2, "a repeat does not duplicate");
        assert!(EScenario::new(CellId::new(3), Timestamp::new(7)).is_empty());
    }

    #[test]
    fn escenario_bits_span_words_and_stay_canonical() {
        // 64, 65 and 130 members put the vague bits in one, two and
        // three words; every third EID is vague.
        for n in [0_u64, 1, 63, 64, 65, 129, 130] {
            let attr = |i: u64| {
                if i.is_multiple_of(3) {
                    ZoneAttr::Vague
                } else {
                    ZoneAttr::Inclusive
                }
            };
            let members = (0..n).map(|i| (Eid::from_u64(10 * i), attr(i)));
            let s = EScenario::from_members(CellId::new(0), Timestamp::ZERO, members.clone());
            assert_eq!(s.len() as u64, n);
            assert!(s.iter().eq(members.clone()), "{n} members");
            for i in 0..n {
                assert_eq!(s.attr(Eid::from_u64(10 * i)), Some(attr(i)));
                assert!(!s.contains(Eid::from_u64(10 * i + 1)));
            }
            let reversed: Vec<_> = members.rev().collect();
            let again = EScenario::from_members(CellId::new(0), Timestamp::ZERO, reversed);
            assert_eq!(again, s, "{n} members reversed");
        }
    }

    #[test]
    fn escenario_fits_in_four_words() {
        assert!(std::mem::size_of::<EScenario>() <= 32);
    }

    #[test]
    fn escenario_renders_as_its_map() {
        let base = esc();
        let s = EScenario::from_members(
            base.cell(),
            base.time(),
            base.iter()
                .chain([(Eid::from_u64(0xaabb_cc00_0102), ZoneAttr::Vague)]),
        );
        assert_eq!(
            serde_json::to_string(&s).unwrap(),
            r#"{"id":{"time":7,"cell":3},"eids":{"1":"Inclusive","2":"Vague","187723558158594":"Vague"}}"#
        );
        assert_eq!(
            format!("{s:?}"),
            "EScenario { id: ScenarioId { time: Timestamp(7), cell: CellId(3) }, eids: \
             {Eid(1): Inclusive, Eid(2): Vague, Eid(187723558158594): Vague} }"
        );
        // Hand-written input in any key order, with a repeated key,
        // reads back sorted with the last attribute.
        let hand =
            r#"{"id":{"time":7,"cell":3},"eids":{"2":"Inclusive","1":"Inclusive","2":"Vague"}}"#;
        assert_eq!(serde_json::from_str::<EScenario>(hand).unwrap(), esc());
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
        assert!(
            Arc::ptr_eq(&e.eids.0, &e2.eids.0),
            "E clone shares the EIDs"
        );
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
        assert!(!Arc::ptr_eq(&e.eids.0, &e2.eids.0));

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
