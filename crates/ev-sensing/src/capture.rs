//! EID capture events and the electronic localization noise model.

use ev_core::geometry::Point;
use ev_core::ids::Eid;
use ev_core::time::Timestamp;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// One raw E-data record: an EID heard at a time, with the estimated
/// position of the emitting device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CaptureEvent {
    /// The captured electronic identity.
    pub eid: Eid,
    /// When the frame was heard.
    pub time: Timestamp,
    /// Estimated device position (true position plus localization error).
    pub(crate) estimated: Point,
}

/// The localization error model: isotropic Gaussian noise with standard
/// deviation `sigma` metres, plus a per-tick probability that the device
/// is not heard at all (duty-cycling, collisions).
///
/// The paper notes that "the range error of E localization is relatively
/// large" (§I); `sigma` controls how often estimated positions drift
/// across cell borders.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SensingNoise {
    /// Standard deviation of the position estimate, in metres.
    pub sigma: f64,
    /// Probability that a given tick produces no capture for a device.
    pub dropout: f64,
}

impl Default for SensingNoise {
    /// 8 m localization error, 2 % capture dropout.
    fn default() -> Self {
        SensingNoise {
            sigma: 8.0,
            dropout: 0.02,
        }
    }
}

impl SensingNoise {
    /// A noiseless, lossless sensor (the ideal setting).
    #[must_use]
    pub const fn none() -> Self {
        SensingNoise {
            sigma: 0.0,
            dropout: 0.0,
        }
    }

    /// Validates the noise parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ev_core::Error::InvalidParameter`] if `sigma` is negative
    /// or non-finite, or `dropout` is outside `[0, 1]`.
    pub fn validate(&self) -> ev_core::Result<()> {
        if !self.sigma.is_finite() || self.sigma < 0.0 {
            return Err(ev_core::Error::InvalidParameter {
                name: "sigma",
                reason: format!("must be non-negative and finite, got {}", self.sigma),
            });
        }
        if !self.dropout.is_finite() || !(0.0..=1.0).contains(&self.dropout) {
            return Err(ev_core::Error::InvalidParameter {
                name: "dropout",
                reason: format!("must be in [0, 1], got {}", self.dropout),
            });
        }
        Ok(())
    }

    /// Attempts to capture a device at true position `truth`; returns the
    /// estimated position or `None` on dropout.
    #[cfg(test)]
    pub(crate) fn observe(&self, truth: Point, rng: &mut ChaCha8Rng) -> Option<Point> {
        self.draw(rng).applied(truth)
    }

    /// What the stream decides for one capture attempt. Nothing drawn
    /// depends on where the device is, so the draws can be made before
    /// the trajectories exist.
    pub(crate) fn draw(&self, rng: &mut ChaCha8Rng) -> Capture {
        if self.dropout > 0.0 && rng.gen::<f64>() < self.dropout {
            return Capture::Dropped;
        }
        if self.sigma == 0.0 {
            return Capture::Exact;
        }
        let (nx, ny) = gaussian_pair(rng);
        Capture::Offset(nx * self.sigma, ny * self.sigma)
    }
}

/// One capture attempt's draw: heard or not, and the localization error
/// to add to the true position.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Capture {
    Dropped,
    Exact,
    Offset(f64, f64),
}

impl Capture {
    /// The estimated position of a device at `truth`, or `None` if the
    /// attempt was dropped.
    pub(crate) fn applied(self, truth: Point) -> Option<Point> {
        match self {
            Capture::Dropped => None,
            Capture::Exact => Some(truth),
            Capture::Offset(dx, dy) => Some(Point::new(truth.x + dx, truth.y + dy)),
        }
    }
}

/// Two independent standard-normal samples via Box–Muller.
fn gaussian_pair(rng: &mut ChaCha8Rng) -> (f64, f64) {
    // Draw u1 in (0, 1] to keep the log finite.
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = std::f64::consts::TAU * u2;
    (r * theta.cos(), r * theta.sin())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(123)
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(SensingNoise {
            sigma: -1.0,
            dropout: 0.0
        }
        .validate()
        .is_err());
        assert!(SensingNoise {
            sigma: f64::NAN,
            dropout: 0.0
        }
        .validate()
        .is_err());
        assert!(SensingNoise {
            sigma: 1.0,
            dropout: 1.5
        }
        .validate()
        .is_err());
        assert!(SensingNoise {
            sigma: 1.0,
            dropout: -0.1
        }
        .validate()
        .is_err());
        assert!(SensingNoise::default().validate().is_ok());
        assert!(SensingNoise::none().validate().is_ok());
    }

    #[test]
    fn noiseless_sensor_reports_truth() {
        let mut r = rng();
        let truth = Point::new(10.0, 20.0);
        assert_eq!(SensingNoise::none().observe(truth, &mut r), Some(truth));
    }

    #[test]
    fn noise_has_roughly_the_configured_sigma() {
        let mut r = rng();
        let noise = SensingNoise {
            sigma: 5.0,
            dropout: 0.0,
        };
        let truth = Point::new(0.0, 0.0);
        let n = 20_000;
        let mut sum_sq = 0.0;
        for _ in 0..n {
            let p = noise.observe(truth, &mut r).unwrap();
            sum_sq += p.x * p.x + p.y * p.y;
        }
        // E[x^2 + y^2] = 2 sigma^2 = 50.
        let mean_sq = sum_sq / n as f64;
        assert!(
            (mean_sq - 50.0).abs() < 2.5,
            "mean squared error {mean_sq} far from 50"
        );
    }

    #[test]
    fn noise_is_unbiased() {
        let mut r = rng();
        let noise = SensingNoise {
            sigma: 5.0,
            dropout: 0.0,
        };
        let truth = Point::new(100.0, 200.0);
        let n = 20_000;
        let (mut sx, mut sy) = (0.0, 0.0);
        for _ in 0..n {
            let p = noise.observe(truth, &mut r).unwrap();
            sx += p.x;
            sy += p.y;
        }
        assert!((sx / n as f64 - 100.0).abs() < 0.2);
        assert!((sy / n as f64 - 200.0).abs() < 0.2);
    }

    #[test]
    fn dropout_rate_is_respected() {
        let mut r = rng();
        let noise = SensingNoise {
            sigma: 0.0,
            dropout: 0.25,
        };
        let n = 20_000;
        let dropped = (0..n)
            .filter(|_| noise.observe(Point::ORIGIN, &mut r).is_none())
            .count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "dropout rate {rate}");
    }

    #[test]
    fn full_dropout_never_captures() {
        let mut r = rng();
        let noise = SensingNoise {
            sigma: 1.0,
            dropout: 1.0,
        };
        for _ in 0..100 {
            assert!(noise.observe(Point::ORIGIN, &mut r).is_none());
        }
    }
}
