//! Differential tests: plan + fill against the sequential builder it
//! replaced, bit for bit.

use super::*;
use ev_mobility::{ManhattanParams, WalkParams, WaypointParams, World};
use proptest::prelude::*;

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
                if let Some(feature) = self.gallery.observe(person, model.feature_sigma, &mut rng) {
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

/// The shipped path at the host's worker count and at 1, 2, 3 and 7
/// against the sequential reference, which is returned.
fn assert_equals_sequential(
    builder: &VScenarioBuilder,
    traces: &TraceSet,
    model: DetectionModel,
    window: u64,
    seed: u64,
) -> Vec<VScenario> {
    let want = builder.build_windowed_sequential(traces, model, window, seed);
    assert_bit_identical(
        &builder.build_windowed(traces, model, window, seed),
        &want,
        "available_parallelism",
    );
    for workers in [1, 2, 3, 7] {
        assert_bit_identical(
            &builder.build_windowed_on(traces, model, window, seed, workers),
            &want,
            &format!("{workers} workers"),
        );
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
    let mut world = match mobility {
        0 => World::random_waypoint(region, population, WaypointParams::default(), seed),
        1 => World::random_walk(region, population, WalkParams::default(), seed),
        _ => World::manhattan(region, population, ManhattanParams::default(), seed),
    };
    world.run(ticks)
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
        let builder = VScenarioBuilder::new(region, gallery);
        assert_equals_sequential(&builder, &traces, model, window, seed ^ 4);
    }
}

#[test]
fn chunks_cover_the_plan_in_order_whatever_the_worker_count() {
    let plan: Vec<Planned> = (0..1000)
        .map(|i| Planned {
            person: PersonId::new(i),
            offset: i * 32,
        })
        .collect();
    let echo = |chunk: &[Planned]| -> Vec<Detection> {
        chunk
            .iter()
            .map(|p| Detection {
                vid: p.person.canonical_vid(),
                feature: ev_core::feature::FeatureVector::new([0.5]).unwrap(),
            })
            .collect()
    };
    for workers in [0, 1, 2, 3, 7, 64, 5000] {
        let vids: Vec<_> = fill_chunks(&plan, workers, echo)
            .iter()
            .map(|d| d.vid)
            .collect();
        let want: Vec<_> = plan.iter().map(|p| p.person.canonical_vid()).collect();
        assert_eq!(vids, want, "{workers} workers");
    }
    assert!(fill_chunks(&[], 4, echo).is_empty());
}

#[test]
#[should_panic(expected = "fill worker down")]
fn a_panicking_fill_worker_panics_the_build() {
    let plan: Vec<Planned> = (0..1000)
        .map(|i| Planned {
            person: PersonId::new(i),
            offset: 0,
        })
        .collect();
    let _ = fill_chunks(&plan, 3, |chunk| {
        // Only the middle chunk fails; the others finish normally.
        if chunk[0].person == PersonId::new(334) {
            panic!("fill worker down");
        }
        Vec::new()
    });
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
    let builder = VScenarioBuilder::new(region, gallery);
    let model = DetectionModel::realistic();
    let want = assert_equals_sequential(&builder, &traces, model, 10, seed + 4);
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
