//! Ground-truth appearance models.
//!
//! Stands in for the CUHK02 image corpus: each person has one canonical
//! appearance descriptor; every detection of that person observes a noisy
//! copy. Distinct persons get independently drawn vectors, which in a
//! `[0, 1]^d` cube are far apart with overwhelming probability for
//! d ≳ 32 — mirroring how real re-id features separate identities.
//!
//! An observation draws its noise in bulk: the `4 × dim` stream words its
//! `dim` Gaussian samples consume come out of the generator in one
//! [`ChaCha8Rng::fill_words`] call and are turned into samples four at a
//! time, in stream order, by the expressions a one-at-a-time draw uses —
//! same words, same bits, same position afterwards (DESIGN.md §4d). The
//! one-at-a-time observation stays in the tests as the reference.

use ev_core::error::reserved;
use ev_core::feature::FeatureVector;
use ev_core::ids::PersonId;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// The ground-truth appearance vectors of a population.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppearanceGallery {
    features: Vec<FeatureVector>,
    dim: usize,
}

impl AppearanceGallery {
    /// Generates a gallery for `population` persons with `dim`-dimensional
    /// descriptors, deterministically from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`ev_core::Error::InvalidParameter`] if `population`
    /// descriptors cannot be allocated.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero — a zero-dimensional appearance model is a
    /// programming error.
    pub fn generate(population: u64, dim: usize, seed: u64) -> ev_core::Result<Self> {
        assert!(dim > 0, "appearance dimension must be positive");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        AppearanceGallery::draw(population, dim, |_| {
            FeatureVector::from_clamped((0..dim).map(|_| rng.gen::<f64>()))
        })
    }

    /// Person `i`'s descriptor is `feature(i)`, for `i` in
    /// `0..population`, in that order.
    fn draw(
        population: u64,
        dim: usize,
        feature: impl FnMut(u64) -> FeatureVector,
    ) -> ev_core::Result<Self> {
        let len = usize::try_from(population).unwrap_or(usize::MAX);
        let mut features = reserved("population", len)?;
        features.extend((0..population).map(feature));
        Ok(AppearanceGallery { features, dim })
    }

    /// Number of persons in the gallery.
    #[must_use]
    pub fn population(&self) -> u64 {
        self.features.len() as u64
    }

    /// Descriptor dimensionality.
    #[must_use]
    pub(crate) fn dim(&self) -> usize {
        self.dim
    }

    /// The ground-truth descriptor of `person`, or `None` if out of range.
    #[must_use]
    pub fn feature_of(&self, person: PersonId) -> Option<&FeatureVector> {
        self.features.get(person.as_u64() as usize)
    }

    /// A noisy observation of `person`'s descriptor: each component gets
    /// independent Gaussian noise of standard deviation `sigma`, clamped
    /// back into `[0, 1]`. Returns `None` for unknown persons.
    ///
    /// `words` is scratch space for the stream words the noise takes: a
    /// caller observing many times passes the same buffer each time and
    /// allocates it once.
    #[must_use]
    pub fn observe(
        &self,
        person: PersonId,
        sigma: f64,
        rng: &mut ChaCha8Rng,
        words: &mut Vec<u32>,
    ) -> Option<FeatureVector> {
        let truth = self.feature_of(person)?;
        if sigma <= 0.0 {
            return Some(truth.clone());
        }
        words.resize(WORDS_PER_GAUSSIAN * self.dim, 0);
        rng.fill_words(words);
        // Built straight into the observation's shared storage.
        Some(FeatureVector::from_clamped(
            (truth.components().iter())
                .zip(words.chunks_exact(WORDS_PER_GAUSSIAN))
                .map(|(&c, w)| c + box_muller(unit(w[0], w[1]), unit(w[2], w[3])) * sigma),
        ))
    }
}

/// Stream words one Gaussian sample consumes: two `f64` draws of two
/// words each. The V-sensing plan advances its cursor by this much per
/// component (`builder.rs`).
pub(crate) const WORDS_PER_GAUSSIAN: usize = 4;

/// What `rng.gen::<f64>()` makes of two consecutive stream words, `lo`
/// drawn first: the `u64` that `next_u64` forms of them, through the
/// generator crate's own conversion.
fn unit(lo: u32, hi: u32) -> f64 {
    rand::unit_f64((u64::from(hi) << 32) | u64::from(lo))
}

impl AppearanceGallery {
    /// Generates a gallery whose identities fall into `clusters`
    /// appearance clusters: each person is their cluster's centroid plus
    /// per-component Gaussian offsets of standard deviation `spread`.
    ///
    /// Real person re-identification confuses people who dress or build
    /// alike; independent uniform descriptors are unrealistically
    /// separable. Clustered galleries reproduce the paper's ~90 %
    /// accuracy regime: same-cluster identities have high mutual
    /// similarity and genuinely compete during VID filtering.
    ///
    /// # Errors
    ///
    /// As [`AppearanceGallery::generate`].
    ///
    /// # Panics
    ///
    /// Panics if `dim` or `clusters` is zero.
    pub fn generate_clustered(
        population: u64,
        dim: usize,
        clusters: usize,
        spread: f64,
        seed: u64,
    ) -> ev_core::Result<Self> {
        assert!(dim > 0, "appearance dimension must be positive");
        assert!(clusters > 0, "need at least one appearance cluster");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let centroids: Vec<Vec<f64>> = (0..clusters)
            .map(|_| (0..dim).map(|_| rng.gen::<f64>()).collect())
            .collect();
        AppearanceGallery::draw(population, dim, |i| {
            let c = &centroids[(i as usize) % clusters];
            FeatureVector::from_clamped(c.iter().map(|&x| x + gaussian(&mut rng) * spread))
        })
    }
}

/// One standard-normal sample via Box–Muller, from its two uniform
/// draws in the order they are made.
fn box_muller(first: f64, second: f64) -> f64 {
    let u1 = 1.0 - first;
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * second).cos()
}

/// One standard-normal sample drawn from `rng`.
fn gaussian(rng: &mut ChaCha8Rng) -> f64 {
    let first: f64 = rng.gen();
    box_muller(first, rng.gen())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = AppearanceGallery::generate(10, 32, 1).unwrap();
        let b = AppearanceGallery::generate(10, 32, 1).unwrap();
        let c = AppearanceGallery::generate(10, 32, 2).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.population(), 10);
        assert_eq!(a.dim(), 32);
    }

    #[test]
    #[should_panic(expected = "dimension must be positive")]
    fn zero_dim_panics() {
        let _ = AppearanceGallery::generate(1, 0, 0).unwrap();
    }

    #[test]
    fn a_population_that_cannot_be_allocated_is_an_invalid_parameter() {
        for gallery in [
            AppearanceGallery::generate(u64::MAX, 4, 0),
            AppearanceGallery::generate_clustered(u64::MAX, 4, 2, 0.1, 0),
        ] {
            assert!(matches!(
                gallery,
                Err(ev_core::Error::InvalidParameter {
                    name: "population",
                    ..
                })
            ));
        }
    }

    #[test]
    fn unknown_person_has_no_feature() {
        let g = AppearanceGallery::generate(3, 8, 0).unwrap();
        assert!(g.feature_of(PersonId::new(2)).is_some());
        assert!(g.feature_of(PersonId::new(3)).is_none());
    }

    #[test]
    fn distinct_persons_are_well_separated() {
        let g = AppearanceGallery::generate(50, 64, 7).unwrap();
        for i in 0..50u64 {
            for j in (i + 1)..50 {
                let a = g.feature_of(PersonId::new(i)).unwrap();
                let b = g.feature_of(PersonId::new(j)).unwrap();
                let d = a.distance(b).unwrap();
                assert!(d > 0.15, "persons {i} and {j} too close: {d}");
            }
        }
    }

    #[test]
    fn observation_noise_is_small_relative_to_identity_gaps() {
        let g = AppearanceGallery::generate(10, 64, 3).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for i in 0..10u64 {
            let truth = g.feature_of(PersonId::new(i)).unwrap();
            let obs = g
                .observe(PersonId::new(i), 0.05, &mut rng, &mut Vec::new())
                .unwrap();
            let d = truth.distance(&obs).unwrap();
            assert!(d < 0.12, "observation drifted too far: {d}");
        }
    }

    impl AppearanceGallery {
        /// `observe` as it was before the words came out in bulk: one
        /// Gaussian drawn per component, straight from the generator.
        fn observe_by_draw(
            &self,
            person: PersonId,
            sigma: f64,
            rng: &mut ChaCha8Rng,
        ) -> FeatureVector {
            let truth = self.feature_of(person).unwrap();
            FeatureVector::from_clamped(
                truth
                    .components()
                    .iter()
                    .map(|&c| c + gaussian(rng) * sigma),
            )
        }
    }

    #[test]
    fn a_bulk_observation_is_the_one_at_a_time_observation_bit_for_bit() {
        // One buffer for every observation, growing and shrinking.
        let mut words = Vec::new();
        for dim in [1, 64, 3, 4, 128, 5, 16] {
            let g = AppearanceGallery::generate_clustered(6, dim, 2, 0.04, dim as u64).unwrap();
            // Every alignment of the first word within a ChaCha block.
            for start in 0..20u128 {
                let mut bulk = ChaCha8Rng::seed_from_u64(11);
                bulk.set_word_pos(start);
                let mut by_draw = bulk.clone();
                for person in 0..6 {
                    let person = PersonId::new(person);
                    let got = g.observe(person, 0.05, &mut bulk, &mut words).unwrap();
                    let want = g.observe_by_draw(person, 0.05, &mut by_draw);
                    let bits = |f: &FeatureVector| -> Vec<u64> {
                        f.components().iter().map(|c| c.to_bits()).collect()
                    };
                    assert_eq!(bits(&got), bits(&want), "dim {dim} from word {start}");
                    assert_eq!(bulk.get_word_pos(), by_draw.get_word_pos());
                }
            }
        }
    }

    #[test]
    fn zero_sigma_observation_is_exact() {
        let g = AppearanceGallery::generate(2, 16, 0).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let obs = g
            .observe(PersonId::new(1), 0.0, &mut rng, &mut Vec::new())
            .unwrap();
        assert_eq!(&obs, g.feature_of(PersonId::new(1)).unwrap());
    }

    #[test]
    fn observation_of_unknown_person_is_none() {
        let g = AppearanceGallery::generate(1, 4, 0).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert!(g
            .observe(PersonId::new(5), 0.1, &mut rng, &mut Vec::new())
            .is_none());
    }

    #[test]
    fn clustered_gallery_groups_identities() {
        let g = AppearanceGallery::generate_clustered(40, 32, 4, 0.05, 1).unwrap();
        assert_eq!(g.population(), 40);
        // Persons 0 and 4 share cluster 0; 0 and 1 do not.
        let a = g.feature_of(PersonId::new(0)).unwrap();
        let mate = g.feature_of(PersonId::new(4)).unwrap();
        let other = g.feature_of(PersonId::new(1)).unwrap();
        let d_mate = a.distance(mate).unwrap();
        let d_other = a.distance(other).unwrap();
        assert!(
            d_mate < d_other,
            "cluster mates must look more alike ({d_mate} vs {d_other})"
        );
        assert!(d_mate > 0.0, "but not identical");
    }

    #[test]
    #[should_panic(expected = "at least one appearance cluster")]
    fn zero_clusters_panics() {
        let _ = AppearanceGallery::generate_clustered(4, 8, 0, 0.1, 0).unwrap();
    }

    #[test]
    fn block_view_scores_bitwise_like_the_scalar_gallery() {
        use ev_core::feature::Metric;
        use ev_core::kernel::{FeatureBlock, Kernel};
        let g = AppearanceGallery::generate(37, 24, 4).unwrap();
        let block = FeatureBlock::build("appearance-gallery", g.features.iter()).unwrap();
        assert_eq!(block.len(), 37);
        assert_eq!(block.dim(), 24);
        let cand = g.feature_of(PersonId::new(5)).unwrap();
        let kernel = Kernel::prepare(Metric::NormalizedL2, 24).unwrap();
        let mut best = 0.0f64;
        for p in 0..37 {
            let truth = g.feature_of(PersonId::new(p)).unwrap();
            let scalar = cand.similarity(truth).unwrap();
            let row = FeatureBlock::build("person", [truth]).unwrap();
            let sim = kernel.score_max(cand, &row).unwrap();
            let want = 0.0f64.max(scalar).to_bits();
            assert_eq!(sim.to_bits(), want, "person {p}");
            best = best.max(scalar);
        }
        let max = kernel.score_max(cand, &block).unwrap();
        assert_eq!(best.to_bits(), max.to_bits());
    }

    #[test]
    fn observations_stay_in_unit_range() {
        let g = AppearanceGallery::generate(5, 16, 2).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut words = Vec::new();
        for _ in 0..100 {
            let obs = g
                .observe(PersonId::new(0), 0.5, &mut rng, &mut words)
                .unwrap();
            for &c in obs.components() {
                assert!((0.0..=1.0).contains(&c));
            }
        }
    }
}
