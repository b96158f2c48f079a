//! Differential tests: plan + fill against the sequential builder it
//! replaced, bit for bit.

use super::*;
use ev_mobility::{ManhattanParams, WalkParams, WaypointParams, World};
use proptest::prelude::*;
use std::sync::mpsc;

impl VScenarioBuilder {
    /// The builder as it was before the plan / fill split: one generator
    /// consumed front to back. The reference the shipped path must equal.
    fn build_windowed_sequential(
        &self,
        traces: &TraceSet,
        model: DetectionModel,
        window: u64,
        seed: u64,
    ) -> Vec<VScenario> {
        assert!(window > 0, "window length must be at least one tick");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // (window start, cell) -> persons present.
        let mut presence: BTreeMap<(Timestamp, CellId), Vec<ev_core::PersonId>> = BTreeMap::new();
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
        let mut scenarios = Vec::with_capacity(presence.len());
        for ((start, cell), persons) in presence {
            let mut scenario = VScenario::new(cell, start);
            for person in persons {
                if model.miss_rate > 0.0 && rng.gen::<f64>() < model.miss_rate {
                    continue; // missed detection
                }
                let words = &mut Vec::new();
                if let Some(feature) =
                    self.gallery
                        .observe(person, model.feature_sigma, &mut rng, words)
                {
                    scenario.push(Detection {
                        vid: person.canonical_vid(),
                        feature,
                    });
                }
            }
            if !scenario.is_empty() {
                scenarios.push(scenario);
            }
        }
        scenarios
    }
}

/// Ids, VIDs and every feature component by `to_bits` (`==` on `f64`
/// would let `-0.0` pass for `0.0`).
fn assert_bit_identical(got: &[VScenario], want: &[VScenario], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: scenario count");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.id(), w.id(), "{what}: scenario id");
        assert_eq!(g.len(), w.len(), "{what}: detections in {}", w.id());
        for (gd, wd) in g.detections().iter().zip(w.detections()) {
            assert_eq!(gd.vid, wd.vid, "{what}: vid in {}", w.id());
            let bits = |d: &Detection| -> Vec<u64> {
                d.feature.components().iter().map(|c| c.to_bits()).collect()
            };
            assert_eq!(bits(gd), bits(wd), "{what}: feature of {}", wd.vid);
        }
    }
}

/// Which of the pool's two tasks is done first: whichever the threads
/// make so, or one forced to wait for the other through a channel.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Finish {
    Either,
    BesideFirst,
    PlanFirst,
}

impl VScenarioBuilder {
    /// [`VScenarioBuilder::build_windowed_beside`] on a pool of `workers`
    /// threads dealing `grain` observations at a time, with a `beside`
    /// task that does no work but finish as `finish` says.
    fn build_windowed_on(
        &self,
        traces: &TraceSet,
        (model, window, seed): (DetectionModel, u64, u64),
        workers: usize,
        grain: usize,
        finish: Finish,
    ) -> Vec<VScenario> {
        let (planned, plan_heard) = mpsc::channel();
        let (beside_done, beside_heard) = mpsc::channel();
        let plan = move || {
            if finish == Finish::BesideFirst {
                beside_heard.recv().expect("the beside task signals");
            }
            let plan = self.plan(self.presence(traces, window), model, seed);
            let _ = planned.send(());
            plan
        };
        let beside = move || {
            if finish == Finish::PlanFirst {
                plan_heard.recv().expect("the plan signals");
            }
            let _ = beside_done.send(());
        };
        let fill = |words: &mut Vec<u32>, grain: &[Planned]| {
            self.fill(grain, model.feature_sigma, seed, words)
        };
        let (plan, detections, ()) = sense(workers, grain, plan, beside, fill);
        plan.assemble(detections)
    }
}

/// The shipped path at the host's worker count, then at 1, 2, 3 and 7
/// workers × every grain × every `finish` order (one worker runs its
/// `beside` task first, so it cannot wait for the plan), against the
/// sequential reference, which is returned.
fn assert_equals_sequential(
    builder: &VScenarioBuilder,
    traces: &TraceSet,
    how: (DetectionModel, u64, u64),
    grains: &[usize],
    finishes: &[Finish],
) -> Vec<VScenario> {
    let (model, window, seed) = how;
    let want = builder.build_windowed_sequential(traces, model, window, seed);
    assert_bit_identical(
        &builder.build_windowed(traces, model, window, seed),
        &want,
        "available_parallelism",
    );
    for workers in [1, 2, 3, 7] {
        for &grain in grains {
            for &finish in finishes {
                if workers == 1 && finish == Finish::PlanFirst {
                    continue;
                }
                assert_bit_identical(
                    &builder.build_windowed_on(traces, how, workers, grain, finish),
                    &want,
                    &format!("{workers} workers, grain {grain}, {finish:?}"),
                );
            }
        }
    }
    want
}

fn traces(
    region: &GridRegion,
    mobility: usize,
    population: usize,
    ticks: u64,
    seed: u64,
) -> TraceSet {
    let region = region.clone();
    let world = match mobility {
        0 => World::random_waypoint(region, population, WaypointParams::default(), seed),
        1 => World::random_walk(region, population, WalkParams::default(), seed),
        _ => World::manhattan(region, population, ManhattanParams::default(), seed),
    };
    world.unwrap().run(ticks).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn plan_and_fill_equal_the_sequential_builder_at_any_worker_count(
        (population, duration, seed) in (1usize..=40, 1u64..=120, any::<u64>()),
        (window, miss_rate, feature_sigma) in (0usize..3, 0usize..4, 0usize..2),
        (mobility, clustered, strangers) in (0usize..3, any::<bool>(), 0usize..3),
    ) {
        let window = [1, 5, 10][window];
        let model = DetectionModel {
            miss_rate: [0.0, 0.02, 0.3, 1.0][miss_rate],
            feature_sigma: [0.0, 0.05][feature_sigma],
        };
        let region = GridRegion::new(1000.0, 1000.0, 250.0, 10.0).unwrap();
        let traces = traces(&region, mobility, population, duration, seed);
        // The last `strangers` persons of the trace are unknown to the
        // gallery: present, never observed, and they draw nothing.
        let known = population.saturating_sub(strangers) as u64;
        let gallery = if clustered {
            AppearanceGallery::generate_clustered(known, 8, 5, 0.04, seed ^ 3)
        } else {
            AppearanceGallery::generate(known, 8, seed ^ 3)
        };
        let builder = VScenarioBuilder::new(region, gallery.unwrap());
        // A grain of one, of a few, the shipped grain and one longer
        // than any plan here.
        let grains = [1, 3, FILL_GRAIN, usize::MAX];
        let finishes = [Finish::Either, Finish::BesideFirst, Finish::PlanFirst];
        assert_equals_sequential(&builder, &traces, (model, window, seed ^ 4), &grains, &finishes);
    }
}

/// `(person, offset)` of `0..n` in order.
fn synthetic_plan(n: u64) -> Plan {
    Plan {
        scenarios: Vec::new(),
        observations: (0..n)
            .map(|i| Planned {
                person: PersonId::new(i),
                offset: i * 32,
            })
            .collect(),
    }
}

#[test]
fn chunks_cover_the_plan_in_order_whatever_the_worker_count() {
    let one = ev_core::feature::FeatureVector::new([0.5]).unwrap();
    for n in [0, 1, 1000] {
        let want: Vec<_> = (0..n).map(|i| PersonId::new(i).canonical_vid()).collect();
        for workers in [0, 1, 2, 3, 7, 64] {
            for grain in [0, 1, 3, FILL_GRAIN, 5000, usize::MAX] {
                // Grains that found their thread's word buffer empty:
                // at most one per thread, whatever the grain count.
                let fresh = AtomicUsize::new(0);
                let echo = |words: &mut Vec<u32>, chunk: &[Planned]| -> Vec<Detection> {
                    assert!(!chunk.is_empty() && chunk.len() <= grain.max(1));
                    if words.is_empty() {
                        fresh.fetch_add(1, Ordering::Relaxed);
                        words.push(0);
                    }
                    let detection = |p: &Planned| Detection {
                        vid: p.person.canonical_vid(),
                        feature: one.clone(),
                    };
                    chunk.iter().map(detection).collect()
                };
                let (plan, detections, side) =
                    sense(workers, grain, || synthetic_plan(n), || "beside", echo);
                let vids: Vec<_> = detections.map(|d| d.vid).collect();
                let what = format!("{n} observations, {workers} workers, grain {grain}");
                assert_eq!(vids, want, "{what}");
                assert_eq!(plan.observations.len(), n as usize, "{what}");
                assert_eq!(side, "beside", "{what}");
                assert!(fresh.into_inner() <= workers.max(1), "{what}");
            }
        }
    }
}

#[test]
#[should_panic(expected = "fill worker down")]
fn a_panicking_fill_worker_panics_the_build() {
    // Only the grain holding observation 334 fails; the others fill.
    let _ = sense(
        3,
        100,
        || synthetic_plan(1000),
        || (),
        |_, grain| {
            if grain.iter().any(|p| p.person == PersonId::new(334)) {
                panic!("fill worker down");
            }
            Vec::new()
        },
    );
}

#[test]
#[should_panic(expected = "plan down")]
fn a_panicking_plan_panics_the_build_and_frees_the_waiting_threads() {
    let _ = sense(
        4,
        FILL_GRAIN,
        || -> Plan { panic!("plan down") },
        || (),
        |_, _| Vec::new(),
    );
}

/// One benchmark corpus through [`assert_equals_sequential`]; returns
/// its scenario and detection counts.
fn benchmark_scale(
    side: f64,
    population: u64,
    ticks: u64,
    dim: usize,
    seed: u64,
) -> (usize, usize) {
    let region = GridRegion::new(1000.0, 1000.0, 1000.0 / side, 10.0).unwrap();
    let traces = traces(&region, 0, population as usize, ticks, seed);
    let gallery = AppearanceGallery::generate_clustered(population, dim, 250, 0.04, seed + 3);
    let builder = VScenarioBuilder::new(region, gallery.unwrap());
    let model = DetectionModel::realistic();
    let how = (model, 10, seed + 4);
    let want = assert_equals_sequential(&builder, &traces, how, &[FILL_GRAIN], &[Finish::Either]);
    (want.len(), want.iter().map(VScenario::len).sum())
}

/// The three corpora `benchmark/src/adapter.rs` generates (`dense`,
/// `paper` at 300 ticks, `serve`), seed 1. Run in release:
/// `cargo test --release -p ev-vision -- --ignored`.
#[test]
#[ignore = "benchmark scale; run in release (CI step \"Generator differential\")"]
fn plan_and_fill_equal_the_sequential_builder_at_benchmark_scale() {
    let (scenarios, detections) = benchmark_scale(4.0, 1000, 1500, 128, 1);
    assert_eq!(scenarios, 2400, "dense: 16 cells x 150 windows");
    assert_eq!(detections, 153_754, "dense at seed 1");
    benchmark_scale(10.0, 1000, 300, 64, 1);
    benchmark_scale(10.0, 600, 1500, 64, 1);
}
