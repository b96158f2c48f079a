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
    /// # Panics
    ///
    /// Panics if `dim` is zero — a zero-dimensional appearance model is a
    /// programming error.
    #[must_use]
    pub fn generate(population: u64, dim: usize, seed: u64) -> Self {
        assert!(dim > 0, "appearance dimension must be positive");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let features = (0..population)
            .map(|_| FeatureVector::from_clamped((0..dim).map(|_| rng.gen::<f64>())))
            .collect();
        AppearanceGallery { features, dim }
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
    #[must_use]
    pub fn observe(
        &self,
        person: PersonId,
        sigma: f64,
        rng: &mut ChaCha8Rng,
    ) -> Option<FeatureVector> {
        let truth = self.feature_of(person)?;
        if sigma <= 0.0 {
            return Some(truth.clone());
        }
        let mut words = vec![0u32; WORDS_PER_GAUSSIAN * self.dim];
        rng.fill_words(&mut words);
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
    /// # Panics
    ///
    /// Panics if `dim` or `clusters` is zero.
    #[must_use]
    pub fn generate_clustered(
        population: u64,
        dim: usize,
        clusters: usize,
        spread: f64,
        seed: u64,
    ) -> Self {
        assert!(dim > 0, "appearance dimension must be positive");
        assert!(clusters > 0, "need at least one appearance cluster");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let centroids: Vec<Vec<f64>> = (0..clusters)
            .map(|_| (0..dim).map(|_| rng.gen::<f64>()).collect())
            .collect();
        let features = (0..population)
            .map(|i| {
                let c = &centroids[(i as usize) % clusters];
                FeatureVector::from_clamped(c.iter().map(|&x| x + gaussian(&mut rng) * spread))
            })
            .collect();
        AppearanceGallery { features, dim }
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
    use ev_core::feature::Metric;

    #[test]
    fn generation_is_deterministic() {
        let a = AppearanceGallery::generate(10, 32, 1);
        let b = AppearanceGallery::generate(10, 32, 1);
        let c = AppearanceGallery::generate(10, 32, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.population(), 10);
        assert_eq!(a.dim(), 32);
    }

    #[test]
    #[should_panic(expected = "dimension must be positive")]
    fn zero_dim_panics() {
        let _ = AppearanceGallery::generate(1, 0, 0);
    }

    #[test]
    fn unknown_person_has_no_feature() {
        let g = AppearanceGallery::generate(3, 8, 0);
        assert!(g.feature_of(PersonId::new(2)).is_some());
        assert!(g.feature_of(PersonId::new(3)).is_none());
    }

    #[test]
    fn distinct_persons_are_well_separated() {
        let g = AppearanceGallery::generate(50, 64, 7);
        for i in 0..50u64 {
            for j in (i + 1)..50 {
                let a = g.feature_of(PersonId::new(i)).unwrap();
                let b = g.feature_of(PersonId::new(j)).unwrap();
                let d = a.distance(b, Metric::NormalizedL2).unwrap();
                assert!(d > 0.15, "persons {i} and {j} too close: {d}");
            }
        }
    }

    #[test]
    fn observation_noise_is_small_relative_to_identity_gaps() {
        let g = AppearanceGallery::generate(10, 64, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for i in 0..10u64 {
            let truth = g.feature_of(PersonId::new(i)).unwrap();
            let obs = g.observe(PersonId::new(i), 0.05, &mut rng).unwrap();
            let d = truth.distance(&obs, Metric::NormalizedL2).unwrap();
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
        for dim in [1, 3, 4, 5, 16, 64, 128] {
            let g = AppearanceGallery::generate_clustered(6, dim, 2, 0.04, dim as u64);
            // Every alignment of the first word within a ChaCha block.
            for start in 0..20u128 {
                let mut bulk = ChaCha8Rng::seed_from_u64(11);
                bulk.set_word_pos(start);
                let mut by_draw = bulk.clone();
                for person in 0..6 {
                    let person = PersonId::new(person);
                    let got = g.observe(person, 0.05, &mut bulk).unwrap();
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
        let g = AppearanceGallery::generate(2, 16, 0);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let obs = g.observe(PersonId::new(1), 0.0, &mut rng).unwrap();
        assert_eq!(&obs, g.feature_of(PersonId::new(1)).unwrap());
    }

    #[test]
    fn observation_of_unknown_person_is_none() {
        let g = AppearanceGallery::generate(1, 4, 0);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert!(g.observe(PersonId::new(5), 0.1, &mut rng).is_none());
    }

    #[test]
    fn clustered_gallery_groups_identities() {
        let g = AppearanceGallery::generate_clustered(40, 32, 4, 0.05, 1);
        assert_eq!(g.population(), 40);
        // Persons 0 and 4 share cluster 0; 0 and 1 do not.
        let a = g.feature_of(PersonId::new(0)).unwrap();
        let mate = g.feature_of(PersonId::new(4)).unwrap();
        let other = g.feature_of(PersonId::new(1)).unwrap();
        let d_mate = a.distance(mate, Metric::NormalizedL2).unwrap();
        let d_other = a.distance(other, Metric::NormalizedL2).unwrap();
        assert!(
            d_mate < d_other,
            "cluster mates must look more alike ({d_mate} vs {d_other})"
        );
        assert!(d_mate > 0.0, "but not identical");
    }

    #[test]
    #[should_panic(expected = "at least one appearance cluster")]
    fn zero_clusters_panics() {
        let _ = AppearanceGallery::generate_clustered(4, 8, 0, 0.1, 0);
    }

    #[test]
    fn block_view_scores_bitwise_like_the_scalar_gallery() {
        use ev_core::kernel::{FeatureBlock, Kernel};
        let g = AppearanceGallery::generate(37, 24, 4);
        let block = FeatureBlock::build("appearance-gallery", g.features.iter()).unwrap();
        assert_eq!(block.len(), 37);
        assert_eq!(block.dim(), 24);
        let cand = g.feature_of(PersonId::new(5)).unwrap();
        for m in [Metric::NormalizedL2, Metric::NormalizedL1, Metric::Cosine] {
            let kernel = Kernel::prepare(m, 24).unwrap();
            let mut sims = vec![0.0; 37];
            kernel.score_into(cand, &block, &mut sims).unwrap();
            for (p, sim) in sims.iter().enumerate() {
                let truth = g.feature_of(PersonId::new(p as u64)).unwrap();
                let scalar = cand.similarity(truth, m).unwrap();
                assert_eq!(scalar.to_bits(), sim.to_bits(), "{m:?} person {p}");
            }
        }
    }

    #[test]
    fn observations_stay_in_unit_range() {
        let g = AppearanceGallery::generate(5, 16, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        for _ in 0..100 {
            let obs = g.observe(PersonId::new(0), 0.5, &mut rng).unwrap();
            for &c in obs.components() {
                assert!((0.0..=1.0).contains(&c));
            }
        }
    }
}
