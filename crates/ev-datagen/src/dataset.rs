//! The generated dataset bundle.

use crate::config::DatasetConfig;
use ev_core::ids::{Eid, Vid};
use ev_core::region::GridRegion;
use ev_mobility::World;
use ev_sensing::{EScenarioBuilder, EidRoster};
use ev_store::{EScenarioStore, StoreBackend, VideoStore};
use ev_vision::{AppearanceGallery, VScenarioBuilder};
use std::collections::BTreeMap;

/// A fully generated synthetic EV world: the stores the algorithms
/// consume plus the ground truth the scorer needs.
#[derive(Debug)]
pub struct EvDataset {
    /// The configuration the dataset was generated from.
    pub config: DatasetConfig,
    /// The gridded region.
    pub region: GridRegion,
    /// Electronic scenarios (windowed, inclusive/vague attributed).
    pub estore: EScenarioStore,
    /// Video footage with lazily charged extraction.
    pub video: VideoStore,
    /// Device assignment (who carries which EID).
    pub roster: EidRoster,
    /// Ground-truth appearance models.
    pub gallery: AppearanceGallery,
    /// Ground truth: each carried EID's true VID.
    pub truth: BTreeMap<Eid, Vid>,
}

impl EvDataset {
    /// Generates a dataset: mobility world → electronic and visual
    /// sensing, side by side and on every core → stores. The dataset is a
    /// function of `config` alone: each stage draws from its own stream
    /// of `config.seed` and the visual fan-out plans its stream offsets
    /// before it spreads (DESIGN.md §4d).
    ///
    /// # Errors
    ///
    /// Returns [`ev_core::Error::InvalidParameter`] for an invalid
    /// configuration.
    pub fn generate(config: &DatasetConfig) -> ev_core::Result<Self> {
        config.validate()?;
        let region = GridRegion::new(
            config.width,
            config.height,
            config.cell_size,
            config.vague_width,
        )?;

        // 1. Mobility.
        let mut world = match config.mobility {
            crate::config::Mobility::RandomWaypoint(p) => {
                World::random_waypoint(region.clone(), config.population as usize, p, config.seed)
            }
            crate::config::Mobility::RandomWalk(p) => {
                World::random_walk(region.clone(), config.population as usize, p, config.seed)
            }
            crate::config::Mobility::Manhattan(p) => {
                World::manhattan(region.clone(), config.population as usize, p, config.seed)
            }
        };
        let traces = world.run(config.duration);

        // 2. Who carries a device, and what everyone looks like: both
        // cheap, both needed before any sensing starts.
        let roster = EidRoster::with_missing(
            config.population,
            config.eid_missing_rate,
            config.seed.wrapping_add(1),
        );
        let gallery = if config.appearance_clusters > 0 {
            AppearanceGallery::generate_clustered(
                config.population,
                config.feature_dim,
                config.appearance_clusters,
                config.appearance_spread,
                config.seed.wrapping_add(3),
            )
        } else {
            AppearanceGallery::generate(
                config.population,
                config.feature_dim,
                config.seed.wrapping_add(3),
            )
        };

        // 3. Electronic sensing as one task beside visual sensing (which
        // fans out itself): they only read `traces` and draw from
        // independent streams, `seed + 2` and `seed + 4`. Visual sensing
        // is independent of the roster: every body is filmed, device or
        // not.
        let ebuilder = EScenarioBuilder::new(region.clone());
        let vbuilder = VScenarioBuilder::new(region.clone(), gallery.clone());
        let (escenarios, vscenarios) = std::thread::scope(|scope| {
            let electronic = scope.spawn(|| {
                ebuilder.build_practical(
                    &traces,
                    &roster,
                    config.noise,
                    config.window,
                    config.thresholds,
                    config.seed.wrapping_add(2),
                )
            });
            let vscenarios = vbuilder.build_windowed(
                &traces,
                config.detection,
                config.window,
                config.seed.wrapping_add(4),
            );
            let escenarios = electronic
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            (escenarios, vscenarios)
        });
        let estore = EScenarioStore::from_scenarios(escenarios?);
        let video = VideoStore::new(vscenarios, config.cost);

        // 4. Ground truth.
        let truth = roster
            .iter()
            .map(|(person, eid)| (eid, person.canonical_vid()))
            .collect();

        Ok(EvDataset {
            config: *config,
            region,
            estore,
            video,
            roster,
            gallery,
            truth,
        })
    }

    /// All carried EIDs, in order.
    #[must_use]
    pub(crate) fn eids(&self) -> Vec<Eid> {
        self.truth.keys().copied().collect()
    }

    /// The true VID for `eid`, if that EID exists.
    #[must_use]
    pub fn true_vid(&self, eid: Eid) -> Option<Vid> {
        self.truth.get(&eid).copied()
    }
}

/// A generated dataset is itself a corpus backend, so the
/// backend-generic entry point (`EvMatcher::from_backend`) runs
/// directly against it.
impl StoreBackend for EvDataset {
    fn estore(&self) -> &EScenarioStore {
        &self.estore
    }

    fn video(&self) -> &VideoStore {
        &self.video
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Mobility;
    use ev_core::scenario::{ScenarioId, ZoneAttr};

    fn small() -> DatasetConfig {
        DatasetConfig {
            population: 40,
            duration: 100,
            ..DatasetConfig::default()
        }
    }

    #[test]
    fn generation_produces_consistent_stores() {
        let d = EvDataset::generate(&small()).unwrap();
        assert!(!d.estore.is_empty(), "E-scenarios exist");
        assert!(!d.video.is_empty(), "V-scenarios exist");
        assert_eq!(d.truth.len(), 40);
        assert_eq!(d.gallery.population(), 40);
        // Every E-scenario EID is a known carrier.
        for s in d.estore.iter() {
            for eid in s.eids() {
                assert!(d.roster.owner_of(eid).is_some());
            }
        }
    }

    /// The V side down to the bit, one row per detection: its scenario's
    /// id, its VID, every feature component by `to_bits`.
    fn video_bits(video: &VideoStore) -> Vec<(ScenarioId, Vid, Vec<u64>)> {
        video
            .scenarios()
            .flat_map(|s| {
                s.detections().iter().map(|d| {
                    let bits = d.feature.components().iter().map(|c| c.to_bits());
                    (s.id(), d.vid, bits.collect())
                })
            })
            .collect()
    }

    #[test]
    fn generation_is_deterministic() {
        let a = EvDataset::generate(&small()).unwrap();
        let b = EvDataset::generate(&small()).unwrap();
        assert_eq!(a.estore, b.estore);
        assert_eq!(a.truth, b.truth);
        assert_eq!(a.roster, b.roster);
        assert_eq!(a.gallery, b.gallery);
        let video = video_bits(&a.video);
        assert!(video.len() > 100);
        assert_eq!(video, video_bits(&b.video));
        let mut c_cfg = small();
        c_cfg.seed += 1;
        let c = EvDataset::generate(&c_cfg).unwrap();
        assert_ne!(a.estore, c.estore);
        assert_ne!(video, video_bits(&c.video));
    }

    /// `generate` against its sensing stages run through the builders'
    /// public API one after the other on this thread, as they ran before
    /// they overlapped.
    fn assert_equals_its_stages_in_sequence(config: &DatasetConfig) {
        let d = EvDataset::generate(config).unwrap();
        let Mobility::RandomWaypoint(params) = config.mobility else {
            panic!("written for the random-waypoint corpora");
        };
        let population = config.population as usize;
        let traces = World::random_waypoint(d.region.clone(), population, params, config.seed)
            .run(config.duration);
        let escenarios = EScenarioBuilder::new(d.region.clone())
            .build_practical(
                &traces,
                &d.roster,
                config.noise,
                config.window,
                config.thresholds,
                config.seed + 2,
            )
            .unwrap();
        assert_eq!(d.estore, EScenarioStore::from_scenarios(escenarios));
        let vscenarios = VScenarioBuilder::new(d.region.clone(), d.gallery.clone()).build_windowed(
            &traces,
            config.detection,
            config.window,
            config.seed + 4,
        );
        assert_eq!(
            video_bits(&d.video),
            video_bits(&VideoStore::new(vscenarios, config.cost))
        );
    }

    #[test]
    fn generation_equals_its_stages_in_sequence() {
        assert_equals_its_stages_in_sequence(&small());
    }

    /// The three corpora `benchmark/src/adapter.rs` generates, seed 1.
    /// Run in release: `cargo test --release -p ev-datagen -- --ignored`.
    #[test]
    #[ignore = "benchmark scale; run in release (CI step \"Generator differential\")"]
    fn generation_equals_its_stages_in_sequence_at_benchmark_scale() {
        let dense = DatasetConfig {
            feature_dim: 128,
            seed: 1,
            ..DatasetConfig::with_grid_side(4)
        };
        let paper = DatasetConfig {
            duration: 300,
            seed: 1,
            ..DatasetConfig::paper()
        };
        let serve = DatasetConfig {
            population: 600,
            duration: 1500,
            seed: 1,
            ..DatasetConfig::default()
        };
        for config in [dense, paper, serve] {
            assert_equals_its_stages_in_sequence(&config);
        }
    }

    #[test]
    fn missing_eids_shrink_the_truth_but_not_the_video() {
        let mut cfg = small();
        cfg.eid_missing_rate = 0.5;
        let d = EvDataset::generate(&cfg).unwrap();
        assert_eq!(d.truth.len(), 20, "half the population carries devices");
        // V data still sees everyone eventually: count distinct VIDs.
        let mut vids = std::collections::BTreeSet::new();
        for id in (0..d.config.duration).step_by(d.config.window as usize) {
            for cell in d.region.cells() {
                let sid =
                    ev_core::scenario::ScenarioId::new(ev_core::time::Timestamp::new(id), cell);
                if let Some(v) = d.video.extract(sid) {
                    vids.extend(v.vids());
                }
            }
        }
        assert!(vids.len() > 20, "device-less people are still filmed");
    }

    #[test]
    fn vague_attrs_appear_under_noise() {
        let mut cfg = small();
        cfg.population = 80;
        cfg.noise.sigma = 10.0;
        let d = EvDataset::generate(&cfg).unwrap();
        let vague = d
            .estore
            .iter()
            .flat_map(|s| s.iter())
            .filter(|(_, a)| *a == ZoneAttr::Vague)
            .count();
        assert!(vague > 0, "strong noise must produce vague attributions");
    }

    #[test]
    fn zero_noise_still_classifies_most_dwellers_inclusive() {
        let mut cfg = small();
        cfg.noise = ev_sensing::SensingNoise::none();
        let d = EvDataset::generate(&cfg).unwrap();
        let (mut inc, mut vague) = (0usize, 0usize);
        for s in d.estore.iter() {
            for (_, a) in s.iter() {
                match a {
                    ZoneAttr::Inclusive => inc += 1,
                    ZoneAttr::Vague => vague += 1,
                }
            }
        }
        assert!(
            inc > vague,
            "without noise, cell-crossings are the only vagueness source ({inc} vs {vague})"
        );
    }

    #[test]
    fn invalid_config_is_rejected_before_generation() {
        let mut cfg = small();
        cfg.window = 0;
        assert!(EvDataset::generate(&cfg).is_err());
    }
}
