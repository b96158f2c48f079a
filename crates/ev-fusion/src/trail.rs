//! Trails: the per-identity spatiotemporal evidence on each side of the
//! fused dataset.

use ev_core::ids::Eid;
use ev_core::region::CellId;
use ev_core::scenario::ZoneAttr;
use ev_core::time::Timestamp;
use ev_store::EScenarioStore;
use serde::{Deserialize, Serialize};

/// One electronic observation: the device was heard in `cell` during the
/// window starting at `time`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct TrailPoint {
    /// Window start.
    pub time: Timestamp,
    /// The cell whose base station heard the device.
    pub cell: CellId,
    /// Confidence zone of the observation.
    pub attr: ZoneAttr,
}

/// The electronic trail of one EID: its coarse-grained trajectory
/// through the scenario grid, in time order.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ETrail {
    /// Observations in (time, cell) order.
    pub(crate) points: Vec<TrailPoint>,
}

impl ETrail {
    /// Reconstructs the trail of `eid` from the E-store.
    #[must_use]
    pub(crate) fn of(store: &EScenarioStore, eid: Eid) -> Self {
        let mut points: Vec<TrailPoint> = store
            .containing(eid)
            .filter_map(|s| {
                s.attr(eid).map(|attr| TrailPoint {
                    time: s.time(),
                    cell: s.cell(),
                    attr,
                })
            })
            .collect();
        points.sort_by_key(|p| (p.time, p.cell));
        ETrail { points }
    }

    /// Number of observations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the device was never heard.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Distinct cells the device was heard in.
    #[must_use]
    pub fn cells_visited(&self) -> Vec<CellId> {
        let mut cells: Vec<CellId> = self.points.iter().map(|p| p.cell).collect();
        cells.sort_unstable();
        cells.dedup();
        cells
    }
}

/// One visual sighting: the person's VID was detected in `cell`'s
/// footage at the window starting at `time`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VSighting {
    /// Window start.
    pub time: Timestamp,
    /// The cell whose camera filmed the person.
    pub cell: CellId,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_core::scenario::EScenario;

    fn store() -> EScenarioStore {
        let mk = |cell: usize, t: u64, eids: &[(u64, ZoneAttr)]| {
            let mut s = EScenario::new(CellId::new(cell), Timestamp::new(t));
            for &(e, attr) in eids {
                s.insert(Eid::from_u64(e), attr);
            }
            s
        };
        EScenarioStore::from_scenarios(vec![
            mk(0, 0, &[(1, ZoneAttr::Inclusive), (2, ZoneAttr::Inclusive)]),
            mk(1, 10, &[(1, ZoneAttr::Vague)]),
            mk(2, 20, &[(1, ZoneAttr::Inclusive)]),
            mk(0, 30, &[(2, ZoneAttr::Inclusive)]),
        ])
    }

    #[test]
    fn trail_reconstruction_is_time_ordered() {
        let trail = ETrail::of(&store(), Eid::from_u64(1));
        assert_eq!(trail.len(), 3);
        let times: Vec<u64> = trail.points.iter().map(|p| p.time.tick()).collect();
        assert_eq!(times, vec![0, 10, 20]);
        assert_eq!(trail.cells_visited().len(), 3);
    }

    #[test]
    fn unknown_eid_has_empty_trail() {
        let trail = ETrail::of(&store(), Eid::from_u64(9));
        assert!(trail.is_empty());
        assert!(trail.cells_visited().is_empty());
    }

    #[test]
    fn confident_filter_drops_vague_points() {
        // Each point keeps its zone, so a reader can keep the confident
        // (inclusive-zone) observations only.
        let trail = ETrail::of(&store(), Eid::from_u64(1));
        let attrs: Vec<_> = trail.points.iter().map(|p| p.attr).collect();
        assert_eq!(
            attrs,
            [ZoneAttr::Inclusive, ZoneAttr::Vague, ZoneAttr::Inclusive]
        );
    }
}
