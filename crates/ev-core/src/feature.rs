//! Appearance feature vectors and the similarity model of paper Eq. (1).
//!
//! A [`FeatureVector`] stands in for the appearance descriptor a person
//! re-identification pipeline would extract from an image crop (the paper
//! uses CUHK02 snapshots; see DESIGN.md §2 for the substitution). The paper
//! defines VID similarity as `sim(v1, v2) = 1 − dist(f1, f2)` where `dist`
//! is a *normalized* vector distance, so all metrics here map into `[0, 1]`.

use crate::error::{Error, Result};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The distance metric used to compare feature vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Metric {
    /// Euclidean distance normalized by the maximum possible distance of
    /// unit-box vectors (`sqrt(d)` for dimension `d`).
    #[default]
    NormalizedL2,
    /// Manhattan distance normalized by the dimension.
    NormalizedL1,
    /// Cosine distance `(1 − cos θ) / 2`, mapped into `[0, 1]`.
    Cosine,
}

/// A dense appearance descriptor with components in `[0, 1]`.
///
/// The components are immutable and shared: cloning a feature vector —
/// and so a [`Detection`](crate::scenario::Detection) or a whole
/// [`VScenario`](crate::scenario::VScenario) — bumps a reference count
/// instead of copying `dim × 8` bytes.
///
/// # Examples
///
/// ```
/// use ev_core::feature::{FeatureVector, Metric};
///
/// let a = FeatureVector::new(vec![0.0, 0.0, 0.0]).unwrap();
/// let b = FeatureVector::new(vec![1.0, 1.0, 1.0]).unwrap();
/// assert_eq!(a.similarity(&b, Metric::NormalizedL2).unwrap(), 0.0);
/// assert_eq!(a.similarity(&a, Metric::NormalizedL2).unwrap(), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureVector {
    components: Arc<[f64]>,
}

impl FeatureVector {
    /// Creates a feature vector, validating that every component is finite
    /// and within `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on an empty vector or on any
    /// out-of-range component.
    pub fn new(components: impl IntoIterator<Item = f64>) -> Result<Self> {
        // An exact-size source (a `Vec`, a mapped slice) is collected
        // straight into the shared allocation.
        let components: Arc<[f64]> = components.into_iter().collect();
        if components.is_empty() {
            return Err(Error::InvalidParameter {
                name: "components",
                reason: "feature vector must not be empty".into(),
            });
        }
        for (i, &c) in components.iter().enumerate() {
            if !c.is_finite() || !(0.0..=1.0).contains(&c) {
                return Err(Error::InvalidParameter {
                    name: "components",
                    reason: format!("component {i} = {c} is outside [0, 1]"),
                });
            }
        }
        Ok(FeatureVector { components })
    }

    /// Creates a feature vector by clamping every component into `[0, 1]`
    /// (non-finite components become `0`). Handy when adding observation
    /// noise to a ground-truth vector.
    #[must_use]
    pub fn from_clamped(components: impl IntoIterator<Item = f64>) -> Self {
        FeatureVector {
            components: components
                .into_iter()
                .map(|c| {
                    if c.is_finite() {
                        c.clamp(0.0, 1.0)
                    } else {
                        0.0
                    }
                })
                .collect(),
        }
    }

    /// Dimensionality of the descriptor.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.components.len()
    }

    /// Read-only view of the components.
    #[must_use]
    pub fn components(&self) -> &[f64] {
        &self.components
    }

    /// Normalized distance to `other` under `metric`; always in `[0, 1]`.
    ///
    /// The metric formulas themselves live in [`crate::kernel`] (shared
    /// with the batch block kernel and the anytime bounds, so the paths
    /// cannot drift); this method contributes the per-pair dimension
    /// check.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if dimensions differ.
    pub fn distance(&self, other: &FeatureVector, metric: Metric) -> Result<f64> {
        if self.dim() != other.dim() {
            return Err(Error::DimensionMismatch {
                left: self.dim(),
                right: other.dim(),
            });
        }
        Ok(crate::kernel::pair_distance(
            metric,
            &self.components,
            &other.components,
        ))
    }

    /// Paper Eq. (1): `sim(v1, v2) = 1 − dist(f1, f2)`; always in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if dimensions differ.
    pub fn similarity(&self, other: &FeatureVector, metric: Metric) -> Result<f64> {
        Ok(1.0 - self.distance(other, metric)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fv(v: &[f64]) -> FeatureVector {
        FeatureVector::new(v.to_vec()).unwrap()
    }

    #[test]
    fn construction_validates_range() {
        assert!(FeatureVector::new(vec![]).is_err());
        assert!(FeatureVector::new(vec![1.1]).is_err());
        assert!(FeatureVector::new(vec![-0.1]).is_err());
        assert!(FeatureVector::new(vec![f64::NAN]).is_err());
        assert!(FeatureVector::new(vec![0.0, 0.5, 1.0]).is_ok());
    }

    #[test]
    fn from_clamped_sanitizes() {
        let v = FeatureVector::from_clamped(vec![-1.0, 2.0, f64::NAN, 0.5]);
        assert_eq!(v.components(), &[0.0, 1.0, 0.0, 0.5]);
    }

    #[test]
    fn clone_shares_the_components() {
        let a = fv(&[0.2, 0.8, 0.5]);
        let b = a.clone();
        assert_eq!(a.components().as_ptr(), b.components().as_ptr());
        assert_eq!(a, b);
    }

    #[test]
    fn json_form_is_an_object_with_a_components_array() {
        let a = fv(&[0.25, 0.5, 1.0]);
        let json = serde_json::to_string(&a).unwrap();
        assert_eq!(json, r#"{"components":[0.25,0.5,1.0]}"#);
        assert_eq!(serde_json::from_str::<FeatureVector>(&json).unwrap(), a);
    }

    #[test]
    fn identical_vectors_have_similarity_one() {
        let a = fv(&[0.2, 0.8, 0.5]);
        for m in [Metric::NormalizedL2, Metric::NormalizedL1, Metric::Cosine] {
            assert!((a.similarity(&a, m).unwrap() - 1.0).abs() < 1e-12, "{m:?}");
        }
    }

    #[test]
    fn opposite_corners_have_similarity_zero_under_l_metrics() {
        let a = fv(&[0.0, 0.0]);
        let b = fv(&[1.0, 1.0]);
        assert!((a.distance(&b, Metric::NormalizedL2).unwrap() - 1.0).abs() < 1e-12);
        assert!((a.distance(&b, Metric::NormalizedL1).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_of_orthogonal_vectors_is_half() {
        let a = fv(&[1.0, 0.0]);
        let b = fv(&[0.0, 1.0]);
        assert!((a.distance(&b, Metric::Cosine).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cosine_zero_vector_is_neutral() {
        let a = fv(&[0.0, 0.0]);
        let b = fv(&[1.0, 0.5]);
        assert_eq!(a.distance(&b, Metric::Cosine).unwrap(), 0.5);
    }

    #[test]
    fn dimension_mismatch_is_an_error() {
        let a = fv(&[0.1, 0.2]);
        let b = fv(&[0.1, 0.2, 0.3]);
        assert!(matches!(
            a.distance(&b, Metric::NormalizedL2),
            Err(Error::DimensionMismatch { left: 2, right: 3 })
        ));
        assert!(a.similarity(&b, Metric::Cosine).is_err());
    }

    #[test]
    fn distance_is_symmetric() {
        let a = fv(&[0.1, 0.9, 0.4]);
        let b = fv(&[0.7, 0.2, 0.6]);
        for m in [Metric::NormalizedL2, Metric::NormalizedL1, Metric::Cosine] {
            let ab = a.distance(&b, m).unwrap();
            let ba = b.distance(&a, m).unwrap();
            assert!((ab - ba).abs() < 1e-12, "{m:?}");
        }
    }

    #[test]
    fn similarity_complements_distance() {
        let a = fv(&[0.3, 0.6]);
        let b = fv(&[0.5, 0.1]);
        let d = a.distance(&b, Metric::NormalizedL2).unwrap();
        let s = a.similarity(&b, Metric::NormalizedL2).unwrap();
        assert!((d + s - 1.0).abs() < 1e-12);
    }
}
