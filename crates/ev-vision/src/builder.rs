//! V-Scenario construction: human detection and feature extraction over
//! the synthetic video corpus.
//!
//! Feature extraction is the part of the V side the paper parallelises
//! "across V-Scenarios", and here it is `dim` Gaussian draws per
//! detection from **one** ChaCha stream — so the build runs in three
//! passes that keep the stream's layout while freeing the draws from its
//! order (DESIGN.md §4d):
//!
//! 1. **presence** — who was in which (window, cell), from the traces;
//! 2. **plan** — one sequential walk that makes every miss draw and gives
//!    each surviving detection the stream offset a single generator would
//!    have reached it at;
//! 3. **fill** — the plan cut into contiguous chunks, one scoped thread
//!    per chunk, each seeking its own generator to the recorded offsets
//!    and taking an observation's `4 × dim` words in one call.
//!
//! Offsets come from the plan, never from which thread fills, so the
//! scenarios are the same bits at any worker count.

use crate::gallery::{AppearanceGallery, WORDS_PER_GAUSSIAN};
use ev_core::ids::PersonId;
use ev_core::region::{CellId, GridRegion};
use ev_core::scenario::{Detection, VScenario};
use ev_core::time::Timestamp;
use ev_mobility::TraceSet;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The human-detection model: with probability `miss_rate` a person
/// present in a scenario produces **no** detection (occlusion or detector
/// failure — the paper's *missing VID* issue, §IV-C1). Detected persons
/// yield a feature observation with per-component noise `feature_sigma`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetectionModel {
    /// Probability that a present person is not detected in a scenario.
    pub miss_rate: f64,
    /// Standard deviation of per-component appearance observation noise.
    pub feature_sigma: f64,
}

impl DetectionModel {
    /// Perfect detector: never misses, observes exact features.
    #[must_use]
    pub const fn perfect() -> Self {
        DetectionModel {
            miss_rate: 0.0,
            feature_sigma: 0.0,
        }
    }

    /// A realistic default: 2 % misses (paper Fig. 11 starts at 2 %),
    /// moderate appearance noise.
    #[must_use]
    pub const fn realistic() -> Self {
        DetectionModel {
            miss_rate: 0.02,
            feature_sigma: 0.05,
        }
    }

    /// Validates the model parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ev_core::Error::InvalidParameter`] if `miss_rate` is
    /// outside `[0, 1]` or `feature_sigma` is negative or non-finite.
    pub fn validate(&self) -> ev_core::Result<()> {
        if !self.miss_rate.is_finite() || !(0.0..=1.0).contains(&self.miss_rate) {
            return Err(ev_core::Error::InvalidParameter {
                name: "miss_rate",
                reason: format!("must be in [0, 1], got {}", self.miss_rate),
            });
        }
        if !self.feature_sigma.is_finite() || self.feature_sigma < 0.0 {
            return Err(ev_core::Error::InvalidParameter {
                name: "feature_sigma",
                reason: format!("must be non-negative, got {}", self.feature_sigma),
            });
        }
        Ok(())
    }
}

/// Builds V-Scenarios from ground-truth trajectories and a gallery.
///
/// Every person physically present in a cell appears in that cell's
/// V-Scenario (subject to the detection model) — including people who
/// carry no electronic device. The VID attached to a detection is the
/// person's canonical VID, reflecting the paper's *VID consistency*
/// assumption (appearance-based re-identification links detections of the
/// same person across scenarios).
#[derive(Debug, Clone)]
pub struct VScenarioBuilder {
    region: GridRegion,
    gallery: AppearanceGallery,
}

impl VScenarioBuilder {
    /// Creates a builder over `region` using `gallery` as ground truth.
    #[must_use]
    pub fn new(region: GridRegion, gallery: AppearanceGallery) -> Self {
        VScenarioBuilder { region, gallery }
    }

    /// The gallery backing this builder.
    #[must_use]
    pub fn gallery(&self) -> &AppearanceGallery {
        &self.gallery
    }

    /// The region scenarios are built over.
    #[must_use]
    pub fn region(&self) -> &GridRegion {
        &self.region
    }

    /// Builds one V-Scenario per (tick, cell) with at least one detection.
    /// Deterministic for a given `seed`. Sorted by scenario id.
    #[must_use]
    pub fn build(&self, traces: &TraceSet, model: DetectionModel, seed: u64) -> Vec<VScenario> {
        self.build_windowed(traces, model, 1, seed)
    }

    /// Builds V-Scenarios aggregated over consecutive windows of `window`
    /// ticks (to pair with practical E-Scenarios built over the same
    /// window). A person is present in a (window, cell) if they occupied
    /// the cell at any tick of the window; each present person is detected
    /// at most once per scenario.
    ///
    /// Runs on every core the process may use; the result depends on
    /// `seed` alone (module docs).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    #[must_use]
    pub fn build_windowed(
        &self,
        traces: &TraceSet,
        model: DetectionModel,
        window: u64,
        seed: u64,
    ) -> Vec<VScenario> {
        let workers = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        self.build_windowed_on(traces, model, window, seed, workers)
    }

    /// [`VScenarioBuilder::build_windowed`] with the fill cut into at most
    /// `workers` chunks. The output does not depend on `workers`: every
    /// observation's stream offset comes from the plan.
    pub(crate) fn build_windowed_on(
        &self,
        traces: &TraceSet,
        model: DetectionModel,
        window: u64,
        seed: u64,
        workers: usize,
    ) -> Vec<VScenario> {
        assert!(window > 0, "window length must be at least one tick");
        let plan = self.plan(self.presence(traces, window), model, seed);
        let detections = fill_chunks(&plan.observations, workers, |chunk| {
            self.fill(chunk, model.feature_sigma, seed)
        });
        plan.assemble(detections)
    }

    /// Who was physically in which (window, cell): persons in id order.
    fn presence(&self, traces: &TraceSet, window: u64) -> Presence {
        let mut presence = Presence::new();
        for (person, trajectory) in traces.iter() {
            let mut last: Option<(Timestamp, CellId)> = None;
            for (offset, &pos) in trajectory.positions.iter().enumerate() {
                let t = trajectory.start + offset as u64;
                let win = Timestamp::new((t.tick() / window) * window);
                let Ok(cell) = self.region.cell_at(pos) else {
                    continue;
                };
                if last == Some((win, cell)) {
                    continue; // already recorded for this window
                }
                last = Some((win, cell));
                let entry = presence.entry((win, cell)).or_default();
                if entry.last() != Some(&person) {
                    entry.push(person);
                }
            }
        }
        presence
    }

    /// Walks `presence` in scenario order with a word cursor over the
    /// `seed` stream, consuming exactly what one sequential generator
    /// would: the miss draw is made here (2 words, only at a positive miss
    /// rate); an observation is only *scheduled* — its offset recorded and
    /// the cursor advanced past the `4 × dim` words it will read (only at
    /// a positive sigma, only for a person the gallery knows, mirroring
    /// where [`AppearanceGallery::observe`] returns before drawing).
    fn plan(&self, presence: Presence, model: DetectionModel, seed: u64) -> Plan {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let observation_words = if model.feature_sigma > 0.0 {
            (WORDS_PER_GAUSSIAN * self.gallery.dim()) as u64
        } else {
            0
        };
        let mut cursor = 0u64;
        let mut plan = Plan::default();
        for ((start, cell), persons) in presence {
            let before = plan.observations.len();
            for person in persons {
                if model.miss_rate > 0.0 {
                    rng.set_word_pos(cursor.into());
                    cursor += 2;
                    if rng.gen::<f64>() < model.miss_rate {
                        continue; // missed detection
                    }
                }
                if self.gallery.feature_of(person).is_some() {
                    plan.observations.push(Planned {
                        person,
                        offset: cursor,
                    });
                    cursor += observation_words;
                }
            }
            let detected = plan.observations.len() - before;
            if detected > 0 {
                plan.scenarios.push((start, cell, detected));
            }
        }
        plan
    }

    /// Makes the planned observations of `chunk`, each from the stream
    /// offset the plan gave it.
    fn fill(&self, chunk: &[Planned], sigma: f64, seed: u64) -> Vec<Detection> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        chunk
            .iter()
            .map(|planned| {
                rng.set_word_pos(planned.offset.into());
                let feature = self
                    .gallery
                    .observe(planned.person, sigma, &mut rng)
                    .expect("the plan schedules only persons the gallery knows");
                Detection {
                    vid: planned.person.canonical_vid(),
                    feature,
                }
            })
            .collect()
    }
}

/// (window start, cell) -> persons present.
type Presence = BTreeMap<(Timestamp, CellId), Vec<PersonId>>;

/// One scheduled observation: who is seen, and the word of the V-noise
/// stream at which its draws start.
#[derive(Debug)]
struct Planned {
    person: PersonId,
    offset: u64,
}

/// Everything the fill needs, and nothing that needs the stream's
/// history: 16 bytes per detection, dropped once the scenarios exist.
#[derive(Debug, Default)]
struct Plan {
    /// The non-empty scenarios in id order, each with how many
    /// consecutive `observations` are its detections.
    scenarios: Vec<(Timestamp, CellId, usize)>,
    observations: Vec<Planned>,
}

impl Plan {
    /// Groups `detections` (one per observation, in plan order) into the
    /// planned scenarios.
    fn assemble(self, detections: Vec<Detection>) -> Vec<VScenario> {
        let mut detections = detections.into_iter();
        self.scenarios
            .into_iter()
            .map(|(start, cell, detected)| {
                let mut scenario = VScenario::new(cell, start);
                for detection in detections.by_ref().take(detected) {
                    scenario.push(detection);
                }
                scenario
            })
            .collect()
    }
}

/// A chunk smaller than this is not worth a thread spawn (an observation
/// is a few microseconds). Tiny under test, so the property-scale
/// differentials really cut their small plans at every worker count.
const FILL_GRAIN: usize = if cfg!(test) { 8 } else { 256 };

/// Runs `fill` over `observations` cut into at most `workers` contiguous,
/// equally long chunks, one scoped thread per chunk, and concatenates the
/// results in plan order. A plan of fewer than two grains is one chunk
/// filled on the caller. A panicking worker panics the caller.
fn fill_chunks<F>(observations: &[Planned], workers: usize, fill: F) -> Vec<Detection>
where
    F: Fn(&[Planned]) -> Vec<Detection> + Sync,
{
    let chunks = workers.min(observations.len() / FILL_GRAIN).max(1);
    if chunks == 1 {
        return fill(observations);
    }
    let fill = &fill;
    std::thread::scope(|scope| {
        let handles: Vec<_> = observations
            .chunks(observations.len().div_ceil(chunks))
            .map(|chunk| scope.spawn(move || fill(chunk)))
            .collect();
        let mut detections = Vec::with_capacity(observations.len());
        for handle in handles {
            detections.extend(
                handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        detections
    })
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;
    use ev_core::geometry::Point;
    use ev_core::ids::PersonId;
    use ev_mobility::Trajectory;

    fn region() -> GridRegion {
        GridRegion::new(100.0, 100.0, 10.0, 1.0).unwrap()
    }

    fn stationary(person: u64, p: Point, ticks: usize) -> (PersonId, Trajectory) {
        let mut t = Trajectory::new(Timestamp::ZERO);
        for _ in 0..ticks {
            t.push(p);
        }
        (PersonId::new(person), t)
    }

    fn traces(people: Vec<(PersonId, Trajectory)>) -> TraceSet {
        let mut s = TraceSet::new();
        for (p, t) in people {
            s.insert(p, t);
        }
        s
    }

    #[test]
    fn perfect_detector_sees_everyone_every_tick() {
        let ts = traces(vec![
            stationary(0, Point::new(15.0, 15.0), 3),
            stationary(1, Point::new(16.0, 14.0), 3),
        ]);
        let b = VScenarioBuilder::new(region(), AppearanceGallery::generate(2, 16, 0));
        let scenarios = b.build(&ts, DetectionModel::perfect(), 0);
        assert_eq!(scenarios.len(), 3);
        for s in &scenarios {
            assert_eq!(s.len(), 2);
            assert!(s.contains(PersonId::new(0).canonical_vid()));
            assert!(s.contains(PersonId::new(1).canonical_vid()));
        }
    }

    #[test]
    fn device_less_people_still_appear_in_v_data() {
        // V-data knows nothing about EIDs: every body is detectable.
        let ts = traces(vec![stationary(0, Point::new(55.0, 55.0), 1)]);
        let b = VScenarioBuilder::new(region(), AppearanceGallery::generate(1, 16, 0));
        let scenarios = b.build(&ts, DetectionModel::perfect(), 0);
        assert_eq!(scenarios.len(), 1);
        assert_eq!(scenarios[0].len(), 1);
    }

    #[test]
    fn miss_rate_drops_roughly_that_fraction() {
        let ts = traces(vec![stationary(0, Point::new(15.0, 15.0), 1000)]);
        let model = DetectionModel {
            miss_rate: 0.3,
            feature_sigma: 0.0,
        };
        let b = VScenarioBuilder::new(region(), AppearanceGallery::generate(1, 16, 0));
        let scenarios = b.build(&ts, model, 1);
        // 1000 ticks, each a scenario with one person at 70 % detection.
        let detected = scenarios.len() as f64;
        assert!(
            (detected - 700.0).abs() < 60.0,
            "detected {detected} of 1000 at 30% miss rate"
        );
    }

    #[test]
    fn full_miss_rate_produces_no_scenarios() {
        let ts = traces(vec![stationary(0, Point::new(15.0, 15.0), 10)]);
        let model = DetectionModel {
            miss_rate: 1.0,
            feature_sigma: 0.0,
        };
        let b = VScenarioBuilder::new(region(), AppearanceGallery::generate(1, 16, 0));
        assert!(b.build(&ts, model, 1).is_empty());
    }

    #[test]
    fn windowed_build_detects_each_person_once_per_window() {
        let ts = traces(vec![stationary(0, Point::new(15.0, 15.0), 10)]);
        let b = VScenarioBuilder::new(region(), AppearanceGallery::generate(1, 16, 0));
        let scenarios = b.build_windowed(&ts, DetectionModel::perfect(), 5, 0);
        assert_eq!(scenarios.len(), 2, "10 ticks / window of 5");
        for s in &scenarios {
            assert_eq!(s.len(), 1);
        }
    }

    #[test]
    fn windowed_build_includes_cells_visited_mid_window() {
        // A person teleporting between two cells within one window shows
        // up in both cells' scenarios.
        let mut t = Trajectory::new(Timestamp::ZERO);
        for i in 0..4 {
            t.push(if i % 2 == 0 {
                Point::new(15.0, 15.0)
            } else {
                Point::new(55.0, 55.0)
            });
        }
        let ts = traces(vec![(PersonId::new(0), t)]);
        let b = VScenarioBuilder::new(region(), AppearanceGallery::generate(1, 16, 0));
        let scenarios = b.build_windowed(&ts, DetectionModel::perfect(), 4, 0);
        assert_eq!(scenarios.len(), 2, "present in both cells this window");
    }

    #[test]
    fn build_is_deterministic_per_seed() {
        let ts = traces(vec![stationary(0, Point::new(15.0, 15.0), 20)]);
        let model = DetectionModel {
            miss_rate: 0.5,
            feature_sigma: 0.1,
        };
        let b = VScenarioBuilder::new(region(), AppearanceGallery::generate(1, 16, 0));
        assert_eq!(b.build(&ts, model, 3), b.build(&ts, model, 3));
        assert_ne!(b.build(&ts, model, 3), b.build(&ts, model, 4));
    }

    #[test]
    fn detection_model_validation() {
        assert!(DetectionModel::perfect().validate().is_ok());
        assert!(DetectionModel::realistic().validate().is_ok());
        assert!(DetectionModel {
            miss_rate: 1.5,
            feature_sigma: 0.0
        }
        .validate()
        .is_err());
        assert!(DetectionModel {
            miss_rate: 0.0,
            feature_sigma: -0.1
        }
        .validate()
        .is_err());
    }

    #[test]
    #[should_panic(expected = "window length")]
    fn zero_window_panics() {
        let ts = traces(vec![]);
        let b = VScenarioBuilder::new(region(), AppearanceGallery::generate(1, 4, 0));
        let _ = b.build_windowed(&ts, DetectionModel::perfect(), 0, 0);
    }
}
