//! Property tests for the vision substrate: gallery separation, builder
//! consistency with ground truth, and the re-id probability model.

use ev_core::feature::FeatureVector;
use ev_core::geometry::Point;
use ev_core::ids::PersonId;
use ev_core::region::GridRegion;
use ev_core::time::Timestamp;
use ev_mobility::{TraceSet, Trajectory};
use ev_vision::reid::membership_probability;
use ev_vision::{AppearanceGallery, DetectionModel, VScenarioBuilder};
use proptest::prelude::*;

fn region() -> GridRegion {
    GridRegion::new(100.0, 100.0, 20.0, 2.0).expect("valid region")
}

fn traces(paths: &[Vec<(f64, f64)>]) -> TraceSet {
    let mut set = TraceSet::new();
    for (i, path) in paths.iter().enumerate() {
        let mut t = Trajectory::new(Timestamp::ZERO);
        for &(x, y) in path {
            t.push(Point::new(x, y));
        }
        set.insert(PersonId::new(i as u64), t);
    }
    set
}

fn arb_paths() -> impl Strategy<Value = Vec<Vec<(f64, f64)>>> {
    prop::collection::vec(
        prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), 5..20),
        1..6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A perfect detector films exactly the people physically present:
    /// every detection corresponds to a person who visited that cell in
    /// that window, and every visit produces a detection.
    #[test]
    fn perfect_detection_equals_presence(paths in arb_paths()) {
        let ts = traces(&paths);
        let gallery = AppearanceGallery::generate(paths.len() as u64, 8, 3).expect("small gallery");
        let builder = VScenarioBuilder::new(region(), gallery);
        let window = 5u64;
        let scenarios = builder.build_windowed(&ts, DetectionModel::perfect(), window, 0);
        // Reconstruct presence from the traces directly.
        use std::collections::BTreeSet;
        let mut presence: BTreeSet<(u64, usize, u64)> = BTreeSet::new();
        for (person, trajectory) in ts.iter() {
            for (offset, &pos) in trajectory.positions.iter().enumerate() {
                let t = offset as u64;
                let cell = region().cell_at(pos).expect("in region");
                presence.insert(((t / window) * window, cell.index(), person.as_u64()));
            }
        }
        let mut filmed: BTreeSet<(u64, usize, u64)> = BTreeSet::new();
        for s in &scenarios {
            for vid in s.vids() {
                filmed.insert((s.time().tick(), s.cell().index(), vid.as_u64()));
            }
        }
        prop_assert_eq!(filmed, presence);
    }

    /// Membership probability is a probability and symmetric in
    /// scenario content order.
    #[test]
    fn reid_probabilities_are_probabilities(
        candidate in prop::collection::vec(0.0f64..=1.0, 4),
        features in prop::collection::vec(prop::collection::vec(0.0f64..=1.0, 4), 0..6),
    ) {
        use ev_core::region::CellId;
        use ev_core::scenario::{Detection, VScenario};
        use ev_core::Vid;
        let cand = FeatureVector::new(candidate).expect("in range");
        let mut scenario = VScenario::new(CellId::new(0), Timestamp::ZERO);
        for (i, f) in features.iter().enumerate() {
            scenario.push(Detection {
                vid: Vid::new(i as u64),
                feature: FeatureVector::new(f.clone()).expect("in range"),
            });
        }
        let p = membership_probability(&cand, &scenario).expect("same dims");
        prop_assert!((0.0..=1.0).contains(&p), "{p}");
        let mut reversed = VScenario::new(CellId::new(0), Timestamp::ZERO);
        for d in scenario.detections().iter().rev() {
            reversed.push(d.clone());
        }
        let q = membership_probability(&cand, &reversed).expect("same dims");
        prop_assert_eq!(p.to_bits(), q.to_bits());
    }

    /// A candidate identical to some detection always achieves the
    /// maximal membership probability of 1.
    #[test]
    fn exact_match_has_probability_one(
        features in prop::collection::vec(prop::collection::vec(0.0f64..=1.0, 4), 1..6),
        pick in any::<prop::sample::Index>(),
    ) {
        use ev_core::region::CellId;
        use ev_core::scenario::{Detection, VScenario};
        use ev_core::Vid;
        let mut scenario = VScenario::new(CellId::new(0), Timestamp::ZERO);
        for (i, f) in features.iter().enumerate() {
            scenario.push(Detection {
                vid: Vid::new(i as u64),
                feature: FeatureVector::new(f.clone()).expect("in range"),
            });
        }
        let chosen = pick.get(&features);
        let cand = FeatureVector::new(chosen.clone()).expect("in range");
        let p = membership_probability(&cand, &scenario).expect("same dims");
        prop_assert!((p - 1.0).abs() < 1e-12);
    }

    /// Observation noise moves a descriptor strictly less (in
    /// expectation) than the gap to a different identity, for reasonable
    /// sigma — the premise that makes appearance matching work at all.
    #[test]
    fn observations_cluster_around_their_identity(seed in any::<u64>()) {
        let gallery = AppearanceGallery::generate(20, 64, seed).expect("small gallery");
        let mut rng = <rand_chacha::ChaCha8Rng as rand::SeedableRng>::seed_from_u64(seed);
        for p in 0..20u64 {
            let person = PersonId::new(p);
            let truth = gallery.feature_of(person).expect("exists");
            let obs = gallery.observe(person, 0.05, &mut rng, &mut Vec::new()).expect("exists");
            let self_dist = truth.distance(&obs).expect("same dims");
            let other = gallery
                .feature_of(PersonId::new((p + 1) % 20))
                .expect("exists");
            let other_dist = truth.distance(other).expect("same dims");
            prop_assert!(
                self_dist < other_dist,
                "person {p}: self {self_dist} vs other {other_dist}"
            );
        }
    }
}
