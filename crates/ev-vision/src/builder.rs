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
//! 3. **fill** — the plan dealt in grains of consecutive observations to
//!    a pool of `available_parallelism()` threads through one shared
//!    cursor, each thread seeking its own generator to the recorded
//!    offsets and taking an observation's `4 × dim` words in one call.
//!
//! A caller with a task of its own (`ev-datagen`'s E-sensing) hands it to
//! [`VScenarioBuilder::build_windowed_beside`], which runs it as one more
//! task of the same pool: that thread takes grains too once it is done.
//! Offsets come from the plan, never from which thread fills, so the
//! scenarios are the same bits at any worker count and any grain.

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
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

/// The human-detection model: with probability `miss_rate` a person
/// present in a scenario produces **no** detection (occlusion or detector
/// failure — the paper's *missing VID* issue, §IV-C1). Detected persons
/// yield a feature observation with per-component noise `feature_sigma`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetectionModel {
    /// Probability that a present person is not detected in a scenario.
    pub miss_rate: f64,
    /// Standard deviation of per-component appearance observation noise.
    pub(crate) feature_sigma: f64,
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

    /// Builds one V-Scenario per (tick, cell) with at least one detection.
    /// Deterministic for a given `seed`. Sorted by scenario id.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn build(
        &self,
        traces: &TraceSet,
        model: DetectionModel,
        seed: u64,
    ) -> Vec<VScenario> {
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
        let presence = || self.presence(traces, window);
        self.build_from(presence, model, window, seed, || ()).0
    }

    /// [`VScenarioBuilder::build_windowed`] with `beside` run as one task
    /// of the same pool of `available_parallelism()` threads: `beside` on
    /// one thread, presence + plan on another, and each thread, its task
    /// done, fills grains of the plan until none are left. At one CPU
    /// everything runs on the caller, `beside` first.
    ///
    /// The fill never reads the trajectories: this call drops its share
    /// of `traces` as soon as presence has been read from them, so a
    /// caller whose `beside` drops the other share frees them before the
    /// fill ends.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero, and re-raises a panic of `beside` or
    /// of any fill.
    pub fn build_windowed_beside<R: Send>(
        &self,
        traces: Arc<TraceSet>,
        model: DetectionModel,
        window: u64,
        seed: u64,
        beside: impl FnOnce() -> R + Send,
    ) -> (Vec<VScenario>, R) {
        let presence = move || {
            let presence = self.presence(&traces, window);
            drop(traces);
            presence
        };
        self.build_from(presence, model, window, seed, beside)
    }

    /// The pool run behind both public builds, given how to read presence.
    fn build_from<R: Send>(
        &self,
        presence: impl FnOnce() -> Presence + Send,
        model: DetectionModel,
        window: u64,
        seed: u64,
        beside: impl FnOnce() -> R + Send,
    ) -> (Vec<VScenario>, R) {
        assert!(window > 0, "window length must be at least one tick");
        let workers = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        let (plan, detections, side) = sense(
            workers,
            FILL_GRAIN,
            || self.plan(presence(), model, seed),
            beside,
            |words, grain| self.fill(grain, model.feature_sigma, seed, words),
        );
        (plan.assemble(detections), side)
    }

    /// Who was physically in which (window, cell): persons in id order.
    fn presence(&self, traces: &TraceSet, window: u64) -> Presence {
        let mut presence = Presence::new();
        for (person, trajectory) in traces.iter() {
            let mut last: Option<(Timestamp, CellId)> = None;
            // The window of the tick being read, and the tick it ends at:
            // ticks ascend, so it is found by division once per window.
            let (mut win, mut end) = (Timestamp::ZERO, 0);
            for (offset, &pos) in trajectory.positions.iter().enumerate() {
                let tick = trajectory.start.tick() + offset as u64;
                if tick >= end {
                    let start = (tick / window) * window;
                    (win, end) = (Timestamp::new(start), start.saturating_add(window));
                }
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

    /// Makes the planned observations of one grain, each from the stream
    /// offset the plan gave it, drawing through the worker's `words`.
    fn fill(
        &self,
        grain: &[Planned],
        sigma: f64,
        seed: u64,
        words: &mut Vec<u32>,
    ) -> Vec<Detection> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        grain
            .iter()
            .map(|planned| {
                rng.set_word_pos(planned.offset.into());
                let feature = self
                    .gallery
                    .observe(planned.person, sigma, &mut rng, words)
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
    fn assemble(self, mut detections: impl Iterator<Item = Detection>) -> Vec<VScenario> {
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

/// Observations a pool thread takes from the shared cursor at a time: a
/// millisecond or two of fill, so the cursor is touched rarely and the
/// threads still finish within a grain of one another.
const FILL_GRAIN: usize = 512;

/// The sensing pool. On `workers` threads (the caller among them): the
/// caller runs `plan`, a second thread `beside`, and every thread, its
/// task done (or at once, for the rest), waits for the plan and then
/// takes `grain` observations at a time from one shared cursor and
/// `fill`s them with a word buffer of its own. The grains come back in
/// plan order whoever filled them. At one worker it all runs on the
/// caller, `beside` first.
///
/// A panic in `plan`, `beside` or a `fill` re-raises in the caller once
/// every thread has stopped; the threads waiting on a plan that panicked
/// stop without filling.
fn sense<R: Send>(
    workers: usize,
    grain: usize,
    plan: impl FnOnce() -> Plan,
    beside: impl FnOnce() -> R + Send,
    fill: impl Fn(&mut Vec<u32>, &[Planned]) -> Vec<Detection> + Sync,
) -> (Plan, impl Iterator<Item = Detection>, R) {
    let cursor = AtomicUsize::new(0);
    let (plan, mut grains, side) = if workers <= 1 {
        let side = beside();
        let plan = plan();
        let grains = take_grains(&plan.observations, grain, &cursor, &fill);
        (plan, grains, side)
    } else {
        // Write-locked until the plan is in it: the pool threads' reads
        // wait for it, and find the lock poisoned if the plan panicked.
        let slot = RwLock::new(Plan::default());
        let (grains, side) = std::thread::scope(|scope| {
            let mut planned = slot.write().expect("no other thread has seen the lock");
            let take = || match slot.read() {
                Ok(plan) => take_grains(&plan.observations, grain, &cursor, &fill),
                Err(_) => Vec::new(),
            };
            let side = scope.spawn(move || (beside(), take()));
            let rest: Vec<_> = (2..workers).map(|_| scope.spawn(take)).collect();
            *planned = plan();
            drop(planned);
            let mut grains = take();
            let (side, theirs) = side.join().unwrap_or_else(|panic| resume_unwind(panic));
            grains.extend(theirs);
            for handle in rest {
                grains.extend(handle.join().unwrap_or_else(|panic| resume_unwind(panic)));
            }
            (grains, side)
        });
        let plan = slot
            .into_inner()
            .expect("a panicking plan re-raised in the scope");
        (plan, grains, side)
    };
    grains.sort_unstable_by_key(|&(start, _)| start);
    (plan, grains.into_iter().flat_map(|(_, grain)| grain), side)
}

/// Takes `grain` observations at a time from `cursor` until the plan is
/// exhausted, filling each through one word buffer; returns each grain
/// with the plan index it starts at.
fn take_grains(
    observations: &[Planned],
    grain: usize,
    cursor: &AtomicUsize,
    fill: impl Fn(&mut Vec<u32>, &[Planned]) -> Vec<Detection>,
) -> Vec<(usize, Vec<Detection>)> {
    // At most the whole plan, so the cursor cannot overflow.
    let grain = grain.clamp(1, observations.len().max(1));
    let mut words = Vec::new();
    let mut grains = Vec::new();
    loop {
        // Relaxed: the cursor hands out disjoint ranges of data every
        // thread already sees; the results travel through `join`.
        let start = cursor.fetch_add(grain, Ordering::Relaxed);
        if start >= observations.len() {
            return grains;
        }
        let end = (start + grain).min(observations.len());
        grains.push((start, fill(&mut words, &observations[start..end])));
    }
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
        let b = VScenarioBuilder::new(region(), AppearanceGallery::generate(2, 16, 0).unwrap());
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
        let b = VScenarioBuilder::new(region(), AppearanceGallery::generate(1, 16, 0).unwrap());
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
        let b = VScenarioBuilder::new(region(), AppearanceGallery::generate(1, 16, 0).unwrap());
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
        let b = VScenarioBuilder::new(region(), AppearanceGallery::generate(1, 16, 0).unwrap());
        assert!(b.build(&ts, model, 1).is_empty());
    }

    #[test]
    fn windowed_build_detects_each_person_once_per_window() {
        let ts = traces(vec![stationary(0, Point::new(15.0, 15.0), 10)]);
        let b = VScenarioBuilder::new(region(), AppearanceGallery::generate(1, 16, 0).unwrap());
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
        let b = VScenarioBuilder::new(region(), AppearanceGallery::generate(1, 16, 0).unwrap());
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
        let b = VScenarioBuilder::new(region(), AppearanceGallery::generate(1, 16, 0).unwrap());
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
        let b = VScenarioBuilder::new(region(), AppearanceGallery::generate(1, 4, 0).unwrap());
        let _ = b.build_windowed(&ts, DetectionModel::perfect(), 0, 0);
    }
}
