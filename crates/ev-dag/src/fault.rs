//! Fault-injection configuration: the plan carries the retry budget.

use serde::{Deserialize, Serialize};

/// Injected fault behaviour of a run.
///
/// Failures are drawn deterministically from `seed`, the partition and
/// the attempt number, so a map either always or never exercises a
/// given fault path for a fixed configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Probability that a task *attempt* fails and must be retried.
    pub task_failure_rate: f64,
    /// Maximum attempts per task before the job aborts.
    pub max_attempts: u32,
    /// Seed for the deterministic fault draws.
    pub seed: u64,
}

impl Default for FaultPlan {
    /// A healthy cluster: no faults, 4 attempts allowed.
    fn default() -> Self {
        FaultPlan {
            task_failure_rate: 0.0,
            max_attempts: 4,
            seed: 0,
        }
    }
}

/// SplitMix64: cheap deterministic per-(seed, task, attempt) draw.
fn fault_draw(seed: u64, task: u64, attempt: u64) -> f64 {
    let mut z = seed
        .wrapping_add(task.wrapping_mul(0xbf58476d1ce4e5b9))
        .wrapping_add(attempt.wrapping_mul(0x94d049bb133111eb));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

impl FaultPlan {
    /// Validates rates and bounds.
    ///
    /// # Errors
    ///
    /// Returns [`ev_core::Error::InvalidParameter`] if the failure rate
    /// is outside `[0, 1)` or `max_attempts` is zero.
    pub(crate) fn validate(&self) -> ev_core::Result<()> {
        if !self.task_failure_rate.is_finite() || !(0.0..1.0).contains(&self.task_failure_rate) {
            return Err(ev_core::Error::InvalidParameter {
                name: "task_failure_rate",
                reason: format!("must be in [0, 1), got {}", self.task_failure_rate),
            });
        }
        if self.max_attempts == 0 {
            return Err(ev_core::Error::InvalidParameter {
                name: "max_attempts",
                reason: "at least one attempt is required".into(),
            });
        }
        Ok(())
    }

    /// Does this attempt fail? Pure in (plan, task, attempt), so the
    /// fault story of a run repeats exactly whatever the schedule.
    pub(crate) fn attempt_fails(&self, task: usize, attempt: u32) -> bool {
        self.task_failure_rate > 0.0
            && fault_draw(self.seed, task as u64, attempt.into()) < self.task_failure_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_draw_is_deterministic_and_uniform() {
        let a = fault_draw(1, 2, 3);
        assert_eq!(a, fault_draw(1, 2, 3));
        assert_ne!(a, fault_draw(1, 2, 4));
        let mean: f64 = (0..10_000).map(|i| fault_draw(42, i, 0)).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn invalid_plans_are_rejected() {
        FaultPlan::default().validate().unwrap();
        let certain = FaultPlan {
            task_failure_rate: 1.0, // certain failure can never finish
            ..FaultPlan::default()
        };
        assert!(certain.validate().is_err());
        let no_attempts = FaultPlan {
            max_attempts: 0,
            ..FaultPlan::default()
        };
        assert!(no_attempts.validate().is_err());
    }
}
