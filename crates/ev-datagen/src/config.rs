//! Dataset generation parameters.

use ev_mobility::{ManhattanParams, WalkParams, WaypointParams};
use ev_sensing::{SensingNoise, WindowThresholds};
use ev_vision::cost::CostModel;
use ev_vision::DetectionModel;
use serde::{Deserialize, Serialize};

/// Which mobility model drives the synthetic population.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Mobility {
    /// Random waypoint (the paper's choice, §VI-A).
    RandomWaypoint(WaypointParams),
    /// Bounded random walk.
    RandomWalk(WalkParams),
    /// Manhattan street grid.
    Manhattan(ManhattanParams),
}

impl Mobility {
    /// Validates the wrapped parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`ev_core::Error::InvalidParameter`] from the wrapped
    /// model's validation.
    pub(crate) fn validate(&self) -> ev_core::Result<()> {
        match self {
            Mobility::RandomWaypoint(p) => p.validate(),
            // The random walk has no invalid states beyond NaN speeds,
            // which the builder tolerates; Manhattan validates itself.
            Mobility::RandomWalk(_) => Ok(()),
            Mobility::Manhattan(p) => p.validate(),
        }
    }
}

/// All knobs of the synthetic world (defaults follow paper §VI-A).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DatasetConfig {
    /// Number of human objects (paper: 1000).
    pub population: u64,
    /// Region width in metres (paper: 1000).
    pub width: f64,
    /// Region height in metres (paper: 1000).
    pub height: f64,
    /// Cell side length in metres (paper: "several cells"; default 100,
    /// giving a 10 × 10 grid).
    pub cell_size: f64,
    /// Vague band width in metres (practical setting, Fig. 2).
    pub vague_width: f64,
    /// Simulated duration in ticks (seconds).
    pub duration: u64,
    /// EV-Scenario aggregation window in ticks (§IV-C2).
    pub window: u64,
    /// The mobility model (§VI-A uses random waypoint, citing \[7\]).
    pub mobility: Mobility,
    /// Electronic localization noise and capture dropout.
    pub noise: SensingNoise,
    /// Occurrence thresholds for inclusive / vague classification.
    pub thresholds: WindowThresholds,
    /// Human detection model (miss rate = missing VIDs, Fig. 11).
    pub detection: DetectionModel,
    /// Fraction of the population carrying no device (missing EIDs,
    /// Fig. 10).
    pub eid_missing_rate: f64,
    /// Appearance feature dimensionality.
    pub feature_dim: usize,
    /// Number of appearance clusters (people who look alike); `0` draws
    /// every identity independently.
    pub appearance_clusters: usize,
    /// Per-component spread of identities around their cluster centroid.
    pub appearance_spread: f64,
    /// Visual processing cost model.
    pub cost: CostModel,
    /// Master seed; every stochastic stage derives its own stream.
    pub seed: u64,
}

impl Default for DatasetConfig {
    /// The paper's setup at a small default scale (override `population`
    /// and `duration` for full-size runs).
    fn default() -> Self {
        DatasetConfig {
            population: 100,
            width: 1000.0,
            height: 1000.0,
            cell_size: 100.0,
            vague_width: 10.0,
            duration: 300,
            window: 10,
            mobility: Mobility::RandomWaypoint(WaypointParams::default()),
            noise: SensingNoise::default(),
            thresholds: WindowThresholds::default(),
            detection: DetectionModel::realistic(),
            eid_missing_rate: 0.0,
            feature_dim: 64,
            appearance_clusters: 250,
            appearance_spread: 0.04,
            cost: CostModel::free(),
            seed: 42,
        }
    }
}

impl DatasetConfig {
    /// The paper's full-scale configuration: 1000 human objects in a
    /// 1000 m × 1000 m region (§VI-A).
    #[must_use]
    pub fn paper() -> Self {
        DatasetConfig {
            population: 1000,
            duration: 600,
            ..DatasetConfig::default()
        }
    }

    /// A paper-scale configuration over a `side` × `side` cell grid: the
    /// density control the figures sweep.
    ///
    /// The simulated duration scales inversely with `side`: spatiotemporal
    /// matching relies on people visiting several cells ("two people are
    /// rarely at the same position all the time", §III-B), so larger
    /// cells need proportionally longer observation, just as the paper's
    /// deployment watches "over previous months".
    #[must_use]
    pub fn with_grid_side(side: u32) -> Self {
        let base = DatasetConfig::paper();
        let side = side.max(1);
        DatasetConfig {
            cell_size: base.width / f64::from(side),
            duration: base.duration * 10 / u64::from(side.min(10)),
            ..base
        }
    }

    /// Number of grid cells implied by the region and cell size.
    #[must_use]
    pub(crate) fn cell_count(&self) -> u64 {
        let cols = (self.width / self.cell_size).ceil() as u64;
        let rows = (self.height / self.cell_size).ceil() as u64;
        cols * rows
    }

    /// Average EIDs per cell.
    #[must_use]
    pub fn density(&self) -> f64 {
        self.population as f64 / self.cell_count() as f64
    }

    /// Validates every embedded parameter set.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as
    /// [`ev_core::Error::InvalidParameter`].
    pub(crate) fn validate(&self) -> ev_core::Result<()> {
        if self.population == 0 {
            return Err(ev_core::Error::InvalidParameter {
                name: "population",
                reason: "need at least one person".into(),
            });
        }
        if self.duration == 0 {
            return Err(ev_core::Error::InvalidParameter {
                name: "duration",
                reason: "need at least one tick".into(),
            });
        }
        // One trajectory position per person per tick: a product that
        // does not fit a `u64` cannot be generated.
        if self.population.checked_mul(self.duration).is_none() {
            return Err(ev_core::Error::InvalidParameter {
                name: "population",
                reason: format!(
                    "{} people × {} ticks overflows the trajectories' size",
                    self.population, self.duration
                ),
            });
        }
        if self.window == 0 || self.window > self.duration {
            return Err(ev_core::Error::InvalidParameter {
                name: "window",
                reason: format!(
                    "window must be in [1, duration={}], got {}",
                    self.duration, self.window
                ),
            });
        }
        if !(0.0..=1.0).contains(&self.eid_missing_rate) {
            return Err(ev_core::Error::InvalidParameter {
                name: "eid_missing_rate",
                reason: format!("must be in [0, 1], got {}", self.eid_missing_rate),
            });
        }
        if self.feature_dim == 0 {
            return Err(ev_core::Error::InvalidParameter {
                name: "feature_dim",
                reason: "appearance features need at least one dimension".into(),
            });
        }
        if !self.appearance_spread.is_finite() || self.appearance_spread < 0.0 {
            return Err(ev_core::Error::InvalidParameter {
                name: "appearance_spread",
                reason: format!(
                    "must be non-negative and finite, got {}",
                    self.appearance_spread
                ),
            });
        }
        // Region geometry is validated by GridRegion::new; run it here so
        // errors surface before the expensive generation starts.
        ev_core::region::GridRegion::new(
            self.width,
            self.height,
            self.cell_size,
            self.vague_width,
        )?;
        self.mobility.validate()?;
        self.noise.validate()?;
        self.thresholds.validate()?;
        self.detection.validate()?;
        Ok(())
    }
}

/// Read only by the tests.
#[cfg(test)]
impl DatasetConfig {
    /// A configuration with (approximately) the given EID *density* —
    /// the average number of human objects per cell, the x-axis of paper
    /// Figs. 6 and 9.
    ///
    /// Following §VI-A, the 1000-object database and the 1000 m × 1000 m
    /// region stay fixed; density varies by re-dividing the region into
    /// fewer, larger cells. (A square grid cannot hit every density
    /// exactly; [`DatasetConfig::density`] reports the value actually
    /// achieved.)
    #[must_use]
    fn with_density(density: u64) -> Self {
        let base = DatasetConfig::paper();
        let target = base.population as f64 / density.max(1) as f64;
        // Pick the grid side whose achieved density is nearest the
        // request in log space (a square grid quantizes densities).
        let side = (1..=32)
            .min_by(|&a, &b| {
                let da = (target / f64::from(a * a)).ln().abs();
                let db = (target / f64::from(b * b)).ln().abs();
                // total_cmp: NaN (degenerate population) must not make
                // the comparator claim every pair is equal.
                da.total_cmp(&db)
            })
            .unwrap_or(1);
        Self::with_grid_side(side)
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // explicit per-field mutation reads clearer in validation tests
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        DatasetConfig::default().validate().unwrap();
        DatasetConfig::paper().validate().unwrap();
    }

    #[test]
    fn paper_config_matches_section_6a() {
        let c = DatasetConfig::paper();
        assert_eq!(c.population, 1000);
        assert_eq!(c.width, 1000.0);
        assert_eq!(c.height, 1000.0);
        assert_eq!(c.cell_count(), 100);
        assert!((c.density() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn density_constructor_rescales_the_grid() {
        let c = DatasetConfig::with_density(30);
        assert_eq!(c.population, 1000, "the database stays at 1000 objects");
        assert_eq!(c.cell_count(), 36, "6 x 6 grid of ~167 m cells");
        assert!((c.density() - 1000.0 / 36.0).abs() < 1e-9);
        assert!(c.validate().is_ok());

        assert_eq!(DatasetConfig::with_density(10).cell_count(), 100);
        assert_eq!(DatasetConfig::with_density(250).cell_count(), 4);
        assert!(DatasetConfig::with_density(250).validate().is_ok());

        // Density never decreases with the requested value.
        let achieved: Vec<f64> = [10, 30, 60, 100, 160, 250]
            .iter()
            .map(|&d| DatasetConfig::with_density(d).density())
            .collect();
        for w in achieved.windows(2) {
            assert!(w[1] >= w[0], "{achieved:?}");
        }
    }

    #[test]
    fn grid_side_constructor() {
        let c = DatasetConfig::with_grid_side(4);
        assert_eq!(c.cell_count(), 16);
        assert!((c.density() - 62.5).abs() < 1e-9);
        assert_eq!(DatasetConfig::with_grid_side(0).cell_count(), 1);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = DatasetConfig::default();
        c.population = 0;
        assert!(c.validate().is_err());

        let mut c = DatasetConfig::default();
        c.duration = 0;
        assert!(c.validate().is_err());

        for (population, duration) in [(u64::MAX, 300), (1 << 32, 1 << 32)] {
            let mut c = DatasetConfig::default();
            (c.population, c.duration) = (population, duration);
            assert!(matches!(
                c.validate(),
                Err(ev_core::Error::InvalidParameter {
                    name: "population",
                    ..
                })
            ));
        }

        let mut c = DatasetConfig::default();
        c.window = 0;
        assert!(c.validate().is_err());

        let mut c = DatasetConfig::default();
        c.window = c.duration + 1;
        assert!(c.validate().is_err());

        let mut c = DatasetConfig::default();
        c.eid_missing_rate = 1.5;
        assert!(c.validate().is_err());

        let mut c = DatasetConfig::default();
        c.feature_dim = 0;
        assert!(c.validate().is_err());

        for spread in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.04] {
            let mut c = DatasetConfig::default();
            c.appearance_spread = spread;
            assert!(
                matches!(
                    c.validate(),
                    Err(ev_core::Error::InvalidParameter {
                        name: "appearance_spread",
                        ..
                    })
                ),
                "spread {spread} must be rejected"
            );
        }
        let mut c = DatasetConfig::default();
        c.appearance_spread = 0.0;
        assert!(c.validate().is_ok(), "identical cluster mates are legal");

        let mut c = DatasetConfig::default();
        c.cell_size = -5.0;
        assert!(c.validate().is_err());

        let mut c = DatasetConfig::default();
        c.noise.dropout = 2.0;
        assert!(c.validate().is_err());
    }
}
