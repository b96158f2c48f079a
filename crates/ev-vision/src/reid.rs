//! Re-identification probability model (paper §IV-B2, following \[24\]).
//!
//! VID similarity reflects the probability that two VIDs represent the
//! same person. For a scenario `S` with detections `VID_1..VID_k`, the
//! paper simplifies:
//!
//! * `P(VID* ∈ S)  = max_i sim(VID*, VID_i)`
//! * `P(VID* ∉ S)  = 1 − max_i sim(VID*, VID_i)`
//!
//! and scores a candidate against an EID's scenario list as the product of
//! per-scenario membership probabilities. The V stage computes that
//! product in log space over the block kernel; this scalar scan is the
//! reference its membership scores are checked against bit for bit.

use ev_core::feature::FeatureVector;
use ev_core::scenario::VScenario;

/// `P(VID* ∈ S)`: the best similarity between the candidate feature and
/// any detection in the scenario. An empty scenario gives probability 0.
///
/// # Errors
///
/// Returns [`ev_core::Error::DimensionMismatch`] if the candidate's
/// dimensionality differs from the scenario's detections.
pub fn membership_probability(
    candidate: &FeatureVector,
    scenario: &VScenario,
) -> ev_core::Result<f64> {
    let mut best: f64 = 0.0;
    for detection in scenario.detections() {
        let sim = candidate.similarity(&detection.feature)?;
        best = best.max(sim);
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_core::region::CellId;
    use ev_core::scenario::Detection;
    use ev_core::time::Timestamp;
    use ev_core::Vid;

    fn fv(v: &[f64]) -> FeatureVector {
        FeatureVector::new(v.to_vec()).unwrap()
    }

    fn scenario(features: &[&[f64]]) -> VScenario {
        let mut s = VScenario::new(CellId::new(0), Timestamp::ZERO);
        for (i, f) in features.iter().enumerate() {
            s.push(Detection {
                vid: Vid::new(i as u64),
                feature: fv(f),
            });
        }
        s
    }

    #[test]
    fn membership_takes_the_best_match() {
        let s = scenario(&[&[0.0, 0.0], &[0.9, 0.9]]);
        let candidate = fv(&[1.0, 1.0]);
        let p = membership_probability(&candidate, &s).unwrap();
        // Closest detection is (0.9, 0.9): dist = sqrt(0.02)/sqrt(2) = 0.1.
        assert!((p - 0.9).abs() < 1e-9);
    }

    #[test]
    fn empty_scenario_has_zero_membership() {
        let s = scenario(&[]);
        let candidate = fv(&[0.5]);
        assert_eq!(membership_probability(&candidate, &s).unwrap(), 0.0);
    }

    #[test]
    fn dimension_mismatch_propagates() {
        let s = scenario(&[&[0.5, 0.5]]);
        let candidate = fv(&[0.5]);
        assert!(membership_probability(&candidate, &s).is_err());
    }
}
