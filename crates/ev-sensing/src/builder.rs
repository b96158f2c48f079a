//! E-Scenario construction from ground-truth trajectories.
//!
//! Construction aggregates noisy captures over a time window and
//! classifies each EID per cell by its occurrence fraction: "the EIDs
//! which appear mostly are considered in the inclusive zone, the ones who
//! appear adequately are considered in the vague zone, and the ones who
//! appear occasionally are considered in the exclusive zone" (paper
//! §IV-C2). Noise-free one-tick windows away from cell borders give the
//! paper's ideal setting (§IV-B): each EID inclusive in its true cell.

use crate::capture::{Capture, CaptureEvent, SensingNoise};
use crate::roster::EidRoster;
use ev_core::ids::Eid;
use ev_core::region::{CellId, GridRegion};
use ev_core::scenario::{EScenario, ZoneAttr};
use ev_core::time::Timestamp;
use ev_mobility::TraceSet;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};

/// Occurrence-fraction thresholds for window classification.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WindowThresholds {
    /// Fraction of window ticks at or above which an EID is *inclusive*.
    pub inclusive: f64,
    /// Fraction at or above which an EID is *vague* (below `inclusive`).
    pub vague: f64,
}

impl Default for WindowThresholds {
    /// Appear in ≥ 60 % of the window → inclusive; ≥ 20 % → vague.
    fn default() -> Self {
        WindowThresholds {
            inclusive: 0.6,
            vague: 0.2,
        }
    }
}

impl WindowThresholds {
    /// Validates `0 < vague <= inclusive <= 1`.
    ///
    /// # Errors
    ///
    /// Returns [`ev_core::Error::InvalidParameter`] on a violated bound.
    pub fn validate(&self) -> ev_core::Result<()> {
        let ok = self.vague > 0.0
            && self.vague <= self.inclusive
            && self.inclusive <= 1.0
            && self.vague.is_finite()
            && self.inclusive.is_finite();
        if !ok {
            return Err(ev_core::Error::InvalidParameter {
                name: "thresholds",
                reason: format!(
                    "require 0 < vague <= inclusive <= 1, got vague={} inclusive={}",
                    self.vague, self.inclusive
                ),
            });
        }
        Ok(())
    }
}

/// How often one device was heard in one cell during one window, and how
/// many of those hits were in the cell's inclusive zone. The field order
/// is the scenario order the derived `Ord` sorts rows into.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Tally {
    window: Timestamp,
    cell: CellId,
    eid: Eid,
    count: u64,
    deep_hits: u64,
}

/// Builds E-Scenarios (and raw capture logs) over a [`GridRegion`].
#[derive(Debug, Clone)]
pub struct EScenarioBuilder {
    region: GridRegion,
}

impl EScenarioBuilder {
    /// Creates a builder for `region`.
    #[must_use]
    pub fn new(region: GridRegion) -> Self {
        EScenarioBuilder { region }
    }

    /// Draws the noisy sensor's captures in the order the `seed` stream
    /// defines them — person-major, ticks ascending — handing each one
    /// that was heard to `sink`. The one capture loop: [`capture_log`]
    /// collects what it yields, [`build_practical`] folds it.
    ///
    /// [`capture_log`]: EScenarioBuilder::capture_log
    /// [`build_practical`]: EScenarioBuilder::build_practical
    fn for_each_capture(
        traces: &TraceSet,
        roster: &EidRoster,
        draws: DrawnAhead,
        mut sink: impl FnMut(CaptureEvent),
    ) {
        let DrawnAhead {
            noise,
            captures,
            mut rng,
        } = draws;
        let mut ahead = captures.into_iter();
        for (person, trajectory) in traces.iter() {
            let Some(eid) = roster.eid_of(person) else {
                continue;
            };
            for (offset, &pos) in trajectory.positions.iter().enumerate() {
                let time = trajectory.start + offset as u64;
                let capture = ahead.next().unwrap_or_else(|| noise.draw(&mut rng));
                if let Some(estimated) = capture.applied(pos) {
                    sink(CaptureEvent {
                        eid,
                        time,
                        estimated,
                    });
                }
            }
        }
    }

    /// Raw capture log: one [`CaptureEvent`] per (tick, carrier) that the
    /// noisy sensor actually heard. Deterministic for a given `seed`.
    #[must_use]
    pub fn capture_log(
        &self,
        traces: &TraceSet,
        roster: &EidRoster,
        noise: SensingNoise,
        seed: u64,
    ) -> Vec<CaptureEvent> {
        let mut log = Vec::new();
        let draws = DrawnAhead::none(noise, seed);
        Self::for_each_capture(traces, roster, draws, |event| log.push(event));
        log.sort_by_key(|e| (e.time, e.eid));
        log
    }

    /// Practical-setting E-Scenarios: aggregates the noisy captures over
    /// consecutive windows of `window` ticks and classifies each (EID,
    /// cell) pair by occurrence fraction against `thresholds`. The
    /// scenario timestamp is the window start.
    ///
    /// The captures are folded as they are drawn, never materialised: a
    /// device's captures arrive with ticks ascending, so its (cell,
    /// occurrences) tally for one window is complete when its next window
    /// starts, and only those tallies — about a tenth of the captures at
    /// the default window — are sorted into scenario order. The result is
    /// what windowing [`capture_log`](EScenarioBuilder::capture_log)'s
    /// output gives: counts do not depend on the order they are taken in.
    ///
    /// Estimated positions that fall outside the region (noise can push
    /// them out) are clamped back in, as a real deployment would attribute
    /// them to the nearest covered cell.
    ///
    /// # Errors
    ///
    /// Returns [`ev_core::Error::InvalidParameter`] if `window` is zero or
    /// the thresholds are invalid.
    pub fn build_practical(
        &self,
        traces: &TraceSet,
        roster: &EidRoster,
        noise: SensingNoise,
        window: u64,
        thresholds: WindowThresholds,
        seed: u64,
    ) -> ev_core::Result<Vec<EScenario>> {
        let draws = DrawnAhead::none(noise, seed);
        self.build_practical_from(traces, roster, window, thresholds, draws)
    }

    /// [`EScenarioBuilder::build_practical`] over a stream whose first
    /// draws were made ahead, by [`DrawnAhead::draw`]: the same scenarios.
    ///
    /// # Errors
    ///
    /// As [`EScenarioBuilder::build_practical`].
    pub fn build_practical_from(
        &self,
        traces: &TraceSet,
        roster: &EidRoster,
        window: u64,
        thresholds: WindowThresholds,
        draws: DrawnAhead,
    ) -> ev_core::Result<Vec<EScenario>> {
        let noise = draws.noise;
        if window == 0 {
            return Err(ev_core::Error::InvalidParameter {
                name: "window",
                reason: "window length must be at least one tick".into(),
            });
        }
        thresholds.validate()?;
        noise.validate()?;

        let bounds = self.region.bounds();
        // One row per cell a device was heard in during one window. A
        // roster gives each device to one person, so no key repeats.
        let mut rows: Vec<Tally> = Vec::new();
        // `rows[open_from..]` is the tally of the device and window being
        // drawn: a handful of cells, so a scanned list. A device's ticks
        // ascend, so its window is found by division only when a capture
        // falls past the open window's end.
        let mut open: Option<(Eid, Timestamp, u64)> = None;
        let mut open_from = 0;
        Self::for_each_capture(traces, roster, draws, |event| {
            let tick = event.time.tick();
            let win_start = match open {
                Some((eid, start, end)) if eid == event.eid && tick < end => start,
                _ => {
                    let start = (tick / window) * window;
                    open = Some((
                        event.eid,
                        Timestamp::new(start),
                        start.saturating_add(window),
                    ));
                    open_from = rows.len();
                    Timestamp::new(start)
                }
            };
            // Each capture is additionally classified against the cell's
            // vague-zone geometry (paper Fig. 2): estimates landing within
            // `vague_width` of the border are *vague hits* — they could
            // belong to the neighbouring cell.
            let Ok((cell, zone)) = self.region.locate(event.estimated.clamped(bounds)) else {
                return;
            };
            let deep = u64::from(zone == crate::Zone::Inclusive);
            match rows[open_from..].iter_mut().find(|row| row.cell == cell) {
                Some(row) => {
                    row.count += 1;
                    row.deep_hits += deep;
                }
                None => rows.push(Tally {
                    window: win_start,
                    cell,
                    eid: event.eid,
                    count: 1,
                    deep_hits: deep,
                }),
            }
        });
        rows.sort_unstable();

        let mut scenarios = Vec::new();
        for group in rows.chunk_by(|a, b| (a.window, a.cell) == (b.window, b.cell)) {
            let mut scenario = EScenario::new(group[0].cell, group[0].window);
            for row in group {
                let fraction = row.count as f64 / window as f64;
                if fraction < thresholds.vague {
                    continue; // exclusive, i.e. absent
                }
                // Inclusive needs both a dominant occurrence fraction and
                // a majority of hits safely away from the border.
                if fraction >= thresholds.inclusive && row.deep_hits * 2 > row.count {
                    scenario.insert(row.eid, ZoneAttr::Inclusive);
                } else {
                    scenario.insert(row.eid, ZoneAttr::Vague);
                }
            }
            if !scenario.is_empty() {
                scenarios.push(scenario);
            }
        }
        Ok(scenarios)
    }
}

/// Capture draws of a noise stream made before the trajectories they
/// apply to exist (`ev-datagen` draws them on a core mobility leaves
/// idle), and the stream positioned after them, for the rest.
#[derive(Debug)]
pub struct DrawnAhead {
    noise: SensingNoise,
    captures: Vec<Capture>,
    rng: ChaCha8Rng,
}

impl DrawnAhead {
    /// The `seed` stream with nothing drawn yet.
    fn none(noise: SensingNoise, seed: u64) -> Self {
        DrawnAhead {
            noise,
            captures: Vec::new(),
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Draws `noise`'s capture attempts from the `seed` stream in stream
    /// order until `stop` is set or `limit` are drawn (past the last
    /// attempt of a build they are never read). `stop` is looked at once
    /// every few hundred draws.
    #[must_use]
    pub fn draw(noise: SensingNoise, seed: u64, limit: usize, stop: &AtomicBool) -> Self {
        const BETWEEN_LOOKS: usize = 256;
        let mut ahead = DrawnAhead::none(noise, seed);
        while ahead.captures.len() < limit && !stop.load(Ordering::Relaxed) {
            let n = BETWEEN_LOOKS.min(limit - ahead.captures.len());
            let (rng, captures) = (&mut ahead.rng, &mut ahead.captures);
            captures.extend((0..n).map(|_| noise.draw(rng)));
        }
        ahead
    }
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;
    use ev_core::geometry::Point;
    use ev_core::ids::PersonId;
    use ev_mobility::{TraceSet, Trajectory};

    fn region() -> GridRegion {
        GridRegion::new(100.0, 100.0, 10.0, 1.0).unwrap()
    }

    /// A trace set with one person standing still at `p` for `ticks`.
    fn stationary(person: u64, p: Point, ticks: usize) -> TraceSet {
        let mut t = Trajectory::new(Timestamp::ZERO);
        for _ in 0..ticks {
            t.push(p);
        }
        let mut s = TraceSet::new();
        s.insert(PersonId::new(person), t);
        s
    }

    /// The paper's ideal setting (exact positions, everyone inclusive)
    /// is what the practical builder yields for people standing clear of
    /// the vague band, heard without noise in one-tick windows.
    fn ideal(traces: &TraceSet, roster: &EidRoster) -> Vec<EScenario> {
        let thresholds = WindowThresholds::default();
        EScenarioBuilder::new(region())
            .build_practical(traces, roster, SensingNoise::none(), 1, thresholds, 0)
            .unwrap()
    }

    fn merge(a: TraceSet, b: &TraceSet) -> TraceSet {
        let mut out = a;
        for (p, t) in b.iter() {
            out.insert(p, t.clone());
        }
        out
    }

    #[test]
    fn ideal_builder_places_eids_in_true_cells() {
        let traces = stationary(0, Point::new(15.0, 15.0), 3);
        let roster = EidRoster::full(1);
        let scenarios = ideal(&traces, &roster);
        assert_eq!(scenarios.len(), 3, "one scenario per tick");
        let eid = PersonId::new(0).canonical_eid();
        for s in &scenarios {
            assert_eq!(s.cell(), CellId::new(11));
            assert!(s.contains_inclusive(eid));
            assert_eq!(s.len(), 1);
        }
    }

    #[test]
    fn ideal_builder_skips_device_less_persons() {
        let traces = stationary(0, Point::new(15.0, 15.0), 2);
        let roster = EidRoster::with_missing(1, 1.0, 0);
        let scenarios = ideal(&traces, &roster);
        assert!(scenarios.is_empty());
    }

    #[test]
    fn ideal_builder_groups_cohabitants() {
        let a = stationary(0, Point::new(15.0, 15.0), 2);
        let b = stationary(1, Point::new(16.0, 14.0), 2);
        let traces = merge(a, &b);
        let roster = EidRoster::full(2);
        let scenarios = ideal(&traces, &roster);
        assert_eq!(scenarios.len(), 2);
        for s in &scenarios {
            assert_eq!(s.len(), 2, "both EIDs share the cell");
        }
    }

    #[test]
    fn capture_log_is_sorted_and_deterministic() {
        let traces = merge(
            stationary(0, Point::new(15.0, 15.0), 5),
            &stationary(1, Point::new(55.0, 55.0), 5),
        );
        let roster = EidRoster::full(2);
        let b = EScenarioBuilder::new(region());
        let log1 = b.capture_log(&traces, &roster, SensingNoise::default(), 42);
        let log2 = b.capture_log(&traces, &roster, SensingNoise::default(), 42);
        assert_eq!(log1, log2);
        assert!(log1
            .windows(2)
            .all(|w| (w[0].time, w[0].eid) <= (w[1].time, w[1].eid)));
        // Noiseless log has one event per (person, tick).
        let full = b.capture_log(&traces, &roster, SensingNoise::none(), 0);
        assert_eq!(full.len(), 10);
    }

    #[test]
    fn practical_builder_marks_center_dwellers_inclusive() {
        // Person parked at a cell centre, mild noise: every window
        // observation stays in the cell -> inclusive.
        let traces = stationary(0, Point::new(15.0, 15.0), 10);
        let roster = EidRoster::full(1);
        let noise = SensingNoise {
            sigma: 1.0,
            dropout: 0.0,
        };
        let scenarios = EScenarioBuilder::new(region())
            .build_practical(&traces, &roster, noise, 10, WindowThresholds::default(), 7)
            .unwrap();
        assert_eq!(scenarios.len(), 1);
        let eid = PersonId::new(0).canonical_eid();
        assert_eq!(scenarios[0].attr(eid), Some(ZoneAttr::Inclusive));
        assert_eq!(scenarios[0].time(), Timestamp::ZERO);
    }

    #[test]
    fn practical_builder_marks_border_dwellers_vague() {
        // Person parked exactly on a cell border with noticeable noise:
        // observations split between the two cells -> vague in both (or,
        // rarely, inclusive in one), never inclusive in both.
        let traces = stationary(0, Point::new(20.0, 15.0), 20);
        let roster = EidRoster::full(1);
        let noise = SensingNoise {
            sigma: 3.0,
            dropout: 0.0,
        };
        let scenarios = EScenarioBuilder::new(region())
            .build_practical(&traces, &roster, noise, 20, WindowThresholds::default(), 11)
            .unwrap();
        let eid = PersonId::new(0).canonical_eid();
        let inclusive = scenarios
            .iter()
            .filter(|s| s.attr(eid) == Some(ZoneAttr::Inclusive))
            .count();
        let vague = scenarios
            .iter()
            .filter(|s| s.attr(eid) == Some(ZoneAttr::Vague))
            .count();
        assert!(inclusive <= 1, "cannot be firmly in two cells at once");
        assert!(
            vague >= 1 || inclusive == 1,
            "border dweller must surface somewhere"
        );
    }

    #[test]
    fn practical_builder_validates_inputs() {
        let traces = stationary(0, Point::new(15.0, 15.0), 4);
        let roster = EidRoster::full(1);
        let b = EScenarioBuilder::new(region());
        assert!(b
            .build_practical(
                &traces,
                &roster,
                SensingNoise::none(),
                0,
                WindowThresholds::default(),
                0
            )
            .is_err());
        let bad = WindowThresholds {
            inclusive: 0.1,
            vague: 0.5,
        };
        assert!(b
            .build_practical(&traces, &roster, SensingNoise::none(), 4, bad, 0)
            .is_err());
        let bad_noise = SensingNoise {
            sigma: -1.0,
            dropout: 0.0,
        };
        assert!(b
            .build_practical(
                &traces,
                &roster,
                bad_noise,
                4,
                WindowThresholds::default(),
                0
            )
            .is_err());
    }

    #[test]
    fn practical_with_no_noise_equals_ideal_occupancy() {
        let traces = stationary(0, Point::new(35.0, 75.0), 10);
        let roster = EidRoster::full(1);
        let b = EScenarioBuilder::new(region());
        let practical = b
            .build_practical(
                &traces,
                &roster,
                SensingNoise::none(),
                10,
                WindowThresholds::default(),
                0,
            )
            .unwrap();
        assert_eq!(practical.len(), 1);
        let eid = PersonId::new(0).canonical_eid();
        assert_eq!(practical[0].attr(eid), Some(ZoneAttr::Inclusive));
        assert_eq!(
            practical[0].cell(),
            region().cell_at(Point::new(35.0, 75.0)).unwrap()
        );
    }

    #[test]
    fn dropout_below_vague_threshold_excludes_eid() {
        let traces = stationary(0, Point::new(15.0, 15.0), 10);
        let roster = EidRoster::full(1);
        // 95 % dropout: expected occurrence fraction ~0.05 < vague 0.2.
        let noise = SensingNoise {
            sigma: 0.0,
            dropout: 0.95,
        };
        let scenarios = EScenarioBuilder::new(region())
            .build_practical(&traces, &roster, noise, 10, WindowThresholds::default(), 3)
            .unwrap();
        // Either no scenario at all, or one without an inclusive EID.
        for s in &scenarios {
            assert_ne!(
                s.attr(PersonId::new(0).canonical_eid()),
                Some(ZoneAttr::Inclusive)
            );
        }
    }
}
