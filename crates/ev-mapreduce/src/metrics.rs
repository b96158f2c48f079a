//! Job execution metrics.

use ev_telemetry::{names, MetricsRegistry};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Counters and timings reported by a finished MapReduce job.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct JobMetrics {
    /// Number of map tasks (input splits).
    pub map_tasks: usize,
    /// Reduce partitions that received at least one key (an empty
    /// partition still runs, as a no-op task).
    pub reduce_tasks: usize,
    /// Total map-task attempts, including retries.
    pub map_attempts: u64,
    /// Attempts (map or reduce) that failed and were retried.
    pub failed_attempts: u64,
    /// Intermediate pairs leaving the map stage (after combining).
    pub shuffled_pairs: u64,
    /// Intermediate pairs before the combiner ran (equals
    /// `shuffled_pairs` when no combiner is configured).
    pub pre_combine_pairs: u64,
    /// Distinct keys seen by the reduce stage.
    pub distinct_keys: u64,
    /// Host-independent virtual time of the job: the
    /// [`DagSpec::virtual_makespan`](crate::DagSpec::virtual_makespan)
    /// of its two-stage spec on `workers` identical workers at one unit
    /// per task (the deterministic makespan the Figure 9
    /// cluster-scaling model reports).
    pub virtual_makespan_units: u64,
    /// Wall time from job start to the last map task's completion.
    pub map_time: Duration,
    /// Time reduce tasks spent merging and grouping their buckets,
    /// summed over partitions.
    pub shuffle_time: Duration,
    /// Wall time from the last map task's completion to the end of the
    /// job (the reduce tasks, shuffle merge included).
    pub reduce_time: Duration,
    /// End-to-end wall time.
    pub total_time: Duration,
}

impl JobMetrics {
    /// Combiner effectiveness: fraction of pairs eliminated before the
    /// shuffle (0 when no combining happened).
    #[must_use]
    pub fn combine_ratio(&self) -> f64 {
        if self.pre_combine_pairs == 0 {
            return 0.0;
        }
        1.0 - self.shuffled_pairs as f64 / self.pre_combine_pairs as f64
    }

    /// Adds every field to its canonical `evm_mapreduce_*` metric in
    /// `registry`.
    pub fn record_to(&self, registry: &MetricsRegistry) {
        registry
            .counter(names::MAPREDUCE_MAP_TASKS)
            .add(self.map_tasks as u64);
        registry
            .counter(names::MAPREDUCE_REDUCE_TASKS)
            .add(self.reduce_tasks as u64);
        registry
            .counter(names::MAPREDUCE_MAP_ATTEMPTS)
            .add(self.map_attempts);
        registry
            .counter(names::MAPREDUCE_FAILED_ATTEMPTS)
            .add(self.failed_attempts);
        registry
            .counter(names::MAPREDUCE_SHUFFLED_PAIRS)
            .add(self.shuffled_pairs);
        registry
            .counter(names::MAPREDUCE_PRE_COMBINE_PAIRS)
            .add(self.pre_combine_pairs);
        registry
            .counter(names::MAPREDUCE_DISTINCT_KEYS)
            .add(self.distinct_keys);
        registry
            .counter(names::MAPREDUCE_VIRTUAL_MAKESPAN_UNITS)
            .add(self.virtual_makespan_units);
        registry
            .gauge(names::MAPREDUCE_MAP_TIME_SECONDS)
            .set(self.map_time.as_secs_f64());
        registry
            .gauge(names::MAPREDUCE_SHUFFLE_TIME_SECONDS)
            .set(self.shuffle_time.as_secs_f64());
        registry
            .gauge(names::MAPREDUCE_REDUCE_TIME_SECONDS)
            .set(self.reduce_time.as_secs_f64());
        registry
            .gauge(names::MAPREDUCE_TOTAL_TIME_SECONDS)
            .set(self.total_time.as_secs_f64());
    }
}

/// Exports one `ev-exec` session's counters to the canonical
/// `evm_exec_*` metrics: aggregate counters, the per-session worker
/// count and queue-depth peak as gauges, and the per-worker executed
/// task counts as observations of the `evm_exec_worker_tasks`
/// histogram (its spread shows how evenly stealing balanced the load).
pub(crate) fn record_exec_stats(registry: &MetricsRegistry, stats: &ev_exec::ExecStats) {
    registry
        .counter(names::EXEC_TASKS_EXECUTED)
        .add(stats.tasks_executed);
    registry
        .counter(names::EXEC_TASKS_PANICKED)
        .add(stats.tasks_panicked);
    registry.counter(names::EXEC_STEAL_OPS).add(stats.steal_ops);
    registry
        .counter(names::EXEC_TASKS_STOLEN)
        .add(stats.tasks_stolen);
    registry
        .gauge(names::EXEC_WORKERS)
        .set(stats.threads as f64);
    registry
        .gauge(names::EXEC_QUEUE_DEPTH_PEAK)
        .set(stats.queue_depth_peak as f64);
    let histogram = registry.histogram(names::EXEC_WORKER_TASKS);
    for &count in &stats.per_worker_executed {
        histogram.record(count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    #[test]
    fn combine_ratio_handles_edge_cases() {
        let m = JobMetrics::default();
        assert_eq!(m.combine_ratio(), 0.0);
        let m = JobMetrics {
            pre_combine_pairs: 100,
            shuffled_pairs: 25,
            ..JobMetrics::default()
        };
        assert!((m.combine_ratio() - 0.75).abs() < 1e-12);
        let m = JobMetrics {
            pre_combine_pairs: 100,
            shuffled_pairs: 100,
            ..JobMetrics::default()
        };
        assert_eq!(m.combine_ratio(), 0.0);
    }

    /// Fills every serialized leaf with a distinct non-zero value so
    /// any field `record_to` forgets shows up as missing.
    fn distinct_metrics() -> JobMetrics {
        fn fill(value: &Value, next: &mut i128) -> Value {
            match value {
                Value::Int(_) => {
                    *next += 1;
                    Value::Int(*next)
                }
                Value::Obj(fields) => Value::Obj(
                    fields
                        .iter()
                        .map(|(k, v)| {
                            // Keep Duration nanos at zero so doubling
                            // secs never carries.
                            if k == "nanos" {
                                (k.clone(), Value::Int(0))
                            } else {
                                (k.clone(), fill(v, next))
                            }
                        })
                        .collect(),
                ),
                other => other.clone(),
            }
        }
        let template = JobMetrics::default().to_value();
        let mut next = 0i128;
        let filled = fill(&template, &mut next);
        JobMetrics::from_value(&filled).expect("JobMetrics round-trips")
    }

    /// Every serialized field must surface in the registry under its
    /// canonical name.
    #[test]
    fn record_to_exports_every_field() {
        let base = distinct_metrics();
        let registry = MetricsRegistry::new();
        base.record_to(&registry);
        let snapshot = registry.snapshot();
        let exported = |prefix: &str| {
            snapshot
                .counters
                .keys()
                .chain(snapshot.gauges.keys())
                .any(|k| k.starts_with(prefix))
        };
        for (field, _) in base.to_value().as_obj().unwrap() {
            assert!(
                exported(&format!("evm_mapreduce_{field}")),
                "field {field} not exported to the registry"
            );
        }
    }
}
