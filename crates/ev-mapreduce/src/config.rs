//! Cluster and fault-injection configuration.

use serde::{Deserialize, Serialize};

/// Injected fault behaviour of the cluster.
///
/// Failures are drawn deterministically from `seed`, the stage, the task
/// and the attempt number, so a job either always or never exercises a
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

/// SplitMix64: cheap deterministic per-(seed, stage, task, attempt) draw.
fn fault_draw(seed: u64, stage: u64, task: u64, attempt: u64) -> f64 {
    let mut z = seed
        .wrapping_add(stage.wrapping_mul(0x9e3779b97f4a7c15))
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
    pub fn validate(&self) -> ev_core::Result<()> {
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

    /// Does this attempt fail? Pure in (plan, stage, task, attempt), so
    /// the fault story of a run repeats exactly whatever the schedule.
    pub(crate) fn attempt_fails(&self, stage: usize, task: usize, attempt: u32) -> bool {
        self.task_failure_rate > 0.0
            && fault_draw(self.seed, stage as u64, task as u64, attempt.into())
                < self.task_failure_rate
    }
}

/// Shape of the cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of worker threads ("nodes"). The paper's testbed has 14
    /// four-core machines; [`ClusterConfig::paper_cluster`] mirrors it.
    pub workers: usize,
    /// Input records per map split. Each split becomes one map task.
    pub split_size: usize,
    /// Number of reduce partitions (= reduce tasks).
    pub reduce_partitions: usize,
    /// Fault-injection plan.
    pub faults: FaultPlan,
}

impl Default for ClusterConfig {
    /// A small healthy cluster sized to the local machine.
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get().min(8))
            .unwrap_or(4);
        ClusterConfig {
            workers,
            split_size: 64,
            reduce_partitions: workers,
            faults: FaultPlan::default(),
        }
    }
}

impl ClusterConfig {
    /// The paper's 14-node cluster shape (14 workers). A laptop cannot
    /// *be* 14 machines: it runs the job on 14 threads, and
    /// [`JobMetrics::virtual_makespan_units`](crate::JobMetrics::virtual_makespan_units)
    /// prices the same job on 14 workers in host-independent virtual
    /// time.
    #[must_use]
    pub fn paper_cluster() -> Self {
        ClusterConfig {
            workers: 14,
            reduce_partitions: 14,
            ..ClusterConfig::default()
        }
    }

    /// A single-worker configuration — the sequential baseline.
    #[must_use]
    pub fn sequential() -> Self {
        ClusterConfig {
            workers: 1,
            reduce_partitions: 1,
            ..ClusterConfig::default()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ev_core::Error::InvalidParameter`] on zero workers,
    /// splits or partitions, or an invalid fault plan.
    pub fn validate(&self) -> ev_core::Result<()> {
        if self.workers == 0 {
            return Err(ev_core::Error::InvalidParameter {
                name: "workers",
                reason: "need at least one worker".into(),
            });
        }
        if self.split_size == 0 {
            return Err(ev_core::Error::InvalidParameter {
                name: "split_size",
                reason: "splits must hold at least one record".into(),
            });
        }
        if self.reduce_partitions == 0 {
            return Err(ev_core::Error::InvalidParameter {
                name: "reduce_partitions",
                reason: "need at least one reduce partition".into(),
            });
        }
        self.faults.validate()
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // explicit per-field mutation reads clearer in validation tests
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        ClusterConfig::default().validate().unwrap();
        ClusterConfig::paper_cluster().validate().unwrap();
        ClusterConfig::sequential().validate().unwrap();
    }

    #[test]
    fn paper_cluster_has_14_workers() {
        let c = ClusterConfig::paper_cluster();
        assert_eq!(c.workers, 14);
        assert_eq!(c.reduce_partitions, 14);
    }

    #[test]
    fn fault_draw_is_deterministic_and_uniform() {
        let a = fault_draw(1, 0, 2, 3);
        assert_eq!(a, fault_draw(1, 0, 2, 3));
        assert_ne!(a, fault_draw(1, 0, 2, 4));
        let mean: f64 = (0..10_000).map(|i| fault_draw(42, 0, i, 0)).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = ClusterConfig::default();
        c.workers = 0;
        assert!(c.validate().is_err());

        let mut c = ClusterConfig::default();
        c.split_size = 0;
        assert!(c.validate().is_err());

        let mut c = ClusterConfig::default();
        c.reduce_partitions = 0;
        assert!(c.validate().is_err());

        let mut c = ClusterConfig::default();
        c.faults.task_failure_rate = 1.0; // certain failure can never finish
        assert!(c.validate().is_err());

        let mut c = ClusterConfig::default();
        c.faults.max_attempts = 0;
        assert!(c.validate().is_err());
    }
}
