//! Differential tests: the streamed fold against the log → sort →
//! nested-map windowing it replaced.

use super::*;
use ev_mobility::{ManhattanParams, WalkParams, WaypointParams, World};
use proptest::prelude::*;
use std::collections::BTreeMap;

impl EScenarioBuilder {
    /// `capture_log` as it was before the shared capture loop.
    fn capture_log_reference(
        &self,
        traces: &TraceSet,
        roster: &EidRoster,
        noise: SensingNoise,
        seed: u64,
    ) -> Vec<CaptureEvent> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut log = Vec::new();
        for (person, trajectory) in traces.iter() {
            let Some(eid) = roster.eid_of(person) else {
                continue;
            };
            for (offset, &pos) in trajectory.positions.iter().enumerate() {
                let t = trajectory.start + offset as u64;
                if let Some(estimated) = noise.observe(pos, &mut rng) {
                    log.push(CaptureEvent {
                        eid,
                        time: t,
                        estimated,
                    });
                }
            }
        }
        log.sort_by_key(|e| (e.time, e.eid));
        log
    }

    /// `build_practical` as it was before the fold: materialise the
    /// sorted log, count every capture into a nested map, classify.
    fn build_practical_reference(
        &self,
        traces: &TraceSet,
        roster: &EidRoster,
        noise: SensingNoise,
        window: u64,
        thresholds: WindowThresholds,
        seed: u64,
    ) -> Vec<EScenario> {
        let log = self.capture_log_reference(traces, roster, noise, seed);
        let bounds = self.region.bounds();

        let mut counts: BTreeMap<(Timestamp, CellId), BTreeMap<Eid, (u64, u64)>> = BTreeMap::new();
        for event in &log {
            let win_start = Timestamp::new((event.time.tick() / window) * window);
            let clamped = event.estimated.clamped(bounds);
            let Ok(cell) = self.region.cell_at(clamped) else {
                continue;
            };
            let deep = self.region.zone_of(cell, clamped) == crate::Zone::Inclusive;
            let entry = counts
                .entry((win_start, cell))
                .or_default()
                .entry(event.eid)
                .or_insert((0, 0));
            entry.0 += 1;
            entry.1 += u64::from(deep);
        }

        let mut scenarios = Vec::new();
        for ((start, cell), eids) in counts {
            let mut members = Vec::new();
            for (eid, (count, deep_hits)) in eids {
                let fraction = count as f64 / window as f64;
                if fraction < thresholds.vague {
                    continue; // exclusive, i.e. absent
                }
                if fraction >= thresholds.inclusive && deep_hits * 2 > count {
                    members.push((eid, ZoneAttr::Inclusive));
                } else {
                    members.push((eid, ZoneAttr::Vague));
                }
            }
            if !members.is_empty() {
                scenarios.push(EScenario::from_members(cell, start, members));
            }
        }
        scenarios
    }
}

/// `ticks` of a world's trajectories, from tick `from`.
fn traces(
    region: &GridRegion,
    mobility: usize,
    population: usize,
    (from, ticks): (u64, u64),
    seed: u64,
) -> TraceSet {
    let region = region.clone();
    let world = match mobility {
        0 => World::random_waypoint(region, population, WaypointParams::default(), seed),
        1 => World::random_walk(region, population, WalkParams::default(), seed),
        _ => World::manhattan(region, population, ManhattanParams::default(), seed),
    };
    let mut world = world.unwrap();
    world.run(from).unwrap();
    world.run(ticks).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn streamed_fold_equals_windowing_the_sorted_log(
        (population, duration, seed) in (1usize..=40, 1u64..=120, any::<u64>()),
        (window, dropout, sigma) in (0usize..3, 0usize..3, 0usize..2),
        (mobility, missing, from) in (0usize..3, 0usize..2, 0u64..15),
        ahead in 0usize..4,
    ) {
        let window = [1, 5, 10][window];
        let noise = SensingNoise {
            sigma: [0.0, 8.0][sigma],
            dropout: [0.0, 0.02, 0.5][dropout],
        };
        let region = GridRegion::new(1000.0, 1000.0, 250.0, 10.0).unwrap();
        // Trajectories that may start mid-window.
        let traces = traces(&region, mobility, population, (from, duration), seed);
        let roster = EidRoster::with_missing(population as u64, [0.0, 0.5][missing], seed ^ 1);
        let builder = EScenarioBuilder::new(region);
        let thresholds = WindowThresholds::default();
        prop_assert_eq!(
            builder.capture_log(&traces, &roster, noise, seed ^ 2),
            builder.capture_log_reference(&traces, &roster, noise, seed ^ 2)
        );
        let want =
            builder.build_practical_reference(&traces, &roster, noise, window, thresholds, seed ^ 2);
        prop_assert_eq!(
            &builder
                .build_practical(&traces, &roster, noise, window, thresholds, seed ^ 2)
                .unwrap(),
            &want
        );
        // None of the stream, some, all of it or more drawn ahead.
        let attempts = roster.carrier_count() * duration as usize;
        let ahead = [0, 1, attempts / 2, attempts + 5][ahead];
        let draws = DrawnAhead::draw(noise, seed ^ 2, ahead, &AtomicBool::new(false));
        prop_assert_eq!(
            &builder
                .build_practical_from(&traces, &roster, window, thresholds, draws)
                .unwrap(),
            &want
        );
    }
}

/// One benchmark corpus through both windowings; returns the scenario
/// count.
fn benchmark_scale(side: f64, population: u64, ticks: u64, seed: u64) -> usize {
    let region = GridRegion::new(1000.0, 1000.0, 1000.0 / side, 10.0).unwrap();
    let traces = traces(&region, 0, population as usize, (0, ticks), seed);
    let roster = EidRoster::with_missing(population, 0.0, seed + 1);
    let builder = EScenarioBuilder::new(region);
    let (noise, thresholds) = (SensingNoise::default(), WindowThresholds::default());
    let want = builder.build_practical_reference(&traces, &roster, noise, 10, thresholds, seed + 2);
    let got = builder
        .build_practical(&traces, &roster, noise, 10, thresholds, seed + 2)
        .unwrap();
    assert_eq!(got, want);
    want.len()
}

/// The three corpora `benchmark/src/adapter.rs` generates (`dense`,
/// `paper` at 300 ticks, `serve`), seed 1. Run in release:
/// `cargo test --release -p ev-sensing -- --ignored`.
#[test]
#[ignore = "benchmark scale; run in release (CI step \"Generator differential\")"]
fn streamed_fold_equals_windowing_the_sorted_log_at_benchmark_scale() {
    assert_eq!(
        benchmark_scale(4.0, 1000, 1500, 1),
        2400,
        "dense: 16 cells x 150 windows"
    );
    assert!(benchmark_scale(10.0, 1000, 300, 1) > 0);
    assert!(benchmark_scale(10.0, 600, 1500, 1) > 0);
}

#[test]
fn draws_ahead_stop_at_the_limit_or_when_told() {
    let noise = SensingNoise::default();
    let drawn = |limit, stop| DrawnAhead::draw(noise, 7, limit, &AtomicBool::new(stop));
    assert_eq!(drawn(1000, false).captures.len(), 1000);
    assert_eq!(drawn(0, false).captures.len(), 0);
    assert_eq!(drawn(usize::MAX, true).captures.len(), 0);
}
