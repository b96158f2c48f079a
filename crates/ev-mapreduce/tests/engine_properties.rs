//! Property tests: the engine must compute exactly what a sequential
//! reference computes, for any input, any cluster shape, and any
//! (survivable) fault plan.

use ev_mapreduce::{ClusterConfig, Emitter, FaultPlan, JobError, MapReduce, Mapper, Reducer};
use ev_telemetry::{Telemetry, TelemetryLevel};
use proptest::prelude::*;
use serde::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};

/// Mapper: emit (value mod k, value) for each record.
struct ModMapper {
    k: u64,
}
impl Mapper<u64> for ModMapper {
    type Key = u64;
    type Value = u64;
    fn map(&self, input: &u64, out: &mut Emitter<u64, u64>) {
        out.emit(input % self.k, *input);
    }
}

/// Reducer: (key, sum, count, min, max) per group.
struct StatsReducer;
impl Reducer<u64, u64> for StatsReducer {
    type Output = (u64, u64, usize, u64, u64);
    fn reduce(&self, key: &u64, values: &[u64]) -> Vec<(u64, u64, usize, u64, u64)> {
        let sum = values.iter().sum();
        let min = *values.iter().min().expect("non-empty group");
        let max = *values.iter().max().expect("non-empty group");
        vec![(*key, sum, values.len(), min, max)]
    }
}

/// The sequential reference implementation.
fn reference(inputs: &[u64], k: u64) -> Vec<(u64, u64, usize, u64, u64)> {
    let mut groups: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for &v in inputs {
        groups.entry(v % k).or_default().push(v);
    }
    groups
        .into_iter()
        .map(|(key, values)| {
            (
                key,
                values.iter().sum(),
                values.len(),
                *values.iter().min().expect("non-empty"),
                *values.iter().max().expect("non-empty"),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn engine_matches_sequential_reference(
        inputs in prop::collection::vec(0u64..10_000, 0..300),
        k in 1u64..20,
        workers in 1usize..6,
        split_size in 1usize..40,
        reduce_partitions in 1usize..6,
    ) {
        let engine = MapReduce::new(ClusterConfig {
            workers,
            split_size,
            reduce_partitions,
            ..ClusterConfig::default()
        });
        let result = engine
            .run(inputs.clone(), &ModMapper { k }, &StatsReducer)
            .expect("healthy cluster");
        prop_assert_eq!(result.output, reference(&inputs, k));
    }

    #[test]
    fn faults_never_change_results(
        inputs in prop::collection::vec(0u64..10_000, 1..200),
        k in 1u64..10,
        failure_rate in 0.0f64..0.5,
        seed in any::<u64>(),
        workers in 1usize..5,
    ) {
        let engine = MapReduce::new(ClusterConfig {
            workers,
            split_size: 7,
            reduce_partitions: 3,
            faults: FaultPlan {
                task_failure_rate: failure_rate,
                max_attempts: 100,
                seed,
            },
        });
        let result = engine
            .run(inputs.clone(), &ModMapper { k }, &StatsReducer)
            .expect("100 attempts absorb any sub-certain failure rate");
        prop_assert_eq!(result.output, reference(&inputs, k));
    }

    #[test]
    fn metrics_are_internally_consistent(
        inputs in prop::collection::vec(0u64..1_000, 0..200),
        split_size in 1usize..50,
        failure_rate in 0.0f64..0.4,
        seed in any::<u64>(),
    ) {
        let tel = Telemetry::new(TelemetryLevel::Full);
        let engine = MapReduce::new(ClusterConfig {
            split_size,
            faults: FaultPlan {
                task_failure_rate: failure_rate,
                max_attempts: 100,
                seed,
            },
            ..ClusterConfig::default()
        })
        .with_telemetry(&tel);
        let result = engine
            .run(inputs.clone(), &ModMapper { k: 5 }, &StatsReducer)
            .expect("100 attempts absorb any sub-certain failure rate");
        let m = &result.metrics;
        prop_assert_eq!(m.map_tasks, inputs.len().div_ceil(split_size));
        prop_assert_eq!(m.shuffled_pairs, inputs.len() as u64);
        prop_assert_eq!(m.pre_combine_pairs, inputs.len() as u64);
        prop_assert_eq!(m.distinct_keys as usize, result.grouped.len());
        // The scheduler's own `task_failed` events are the independent
        // count: map attempts are the tasks plus exactly the failed map
        // attempts, and every failure of either stage is in the total.
        let failed_in = |stage: &str| {
            tel.tracer()
                .events()
                .iter()
                .filter(|e| e.name == "task_failed")
                .filter(|e| e.args.contains(&("stage".to_string(), Value::Str(stage.to_string()))))
                .count() as u64
        };
        prop_assert_eq!(m.map_attempts, m.map_tasks as u64 + failed_in("map"));
        prop_assert_eq!(m.failed_attempts, failed_in("map") + failed_in("reduce"));
    }
}

/// Mapper that counts its executions and always panics (a real
/// panic, not an injected fault).
struct AlwaysPanics<'a>(&'a AtomicU32);
impl Mapper<u64> for AlwaysPanics<'_> {
    type Key = u64;
    type Value = u64;
    fn map(&self, _input: &u64, _out: &mut Emitter<u64, u64>) {
        self.0.fetch_add(1, Ordering::Relaxed);
        panic!("mapper bug");
    }
}

/// One retry budget: `FaultPlan::max_attempts` is what the scheduler
/// honours, so a task that always fails runs exactly that many times
/// before the job aborts — typed by what the final loss was.
#[test]
fn max_attempts_bounds_real_panics_and_injected_faults_alike() {
    let cluster = |task_failure_rate| ClusterConfig {
        workers: 2,
        split_size: 1,
        reduce_partitions: 1,
        faults: FaultPlan {
            task_failure_rate,
            max_attempts: 2,
            seed: 1,
        },
    };
    let executions = AtomicU32::new(0);
    let err = MapReduce::new(cluster(0.0))
        .run(vec![7u64], &AlwaysPanics(&executions), &StatsReducer)
        .unwrap_err();
    assert!(
        matches!(&err, JobError::WorkerPanicked { stage: "map", message } if message.contains("mapper bug")),
        "got {err:?}"
    );
    assert_eq!(executions.load(Ordering::Relaxed), 2);

    let err = MapReduce::new(cluster(0.999_999))
        .run(vec![7u64], &ModMapper { k: 3 }, &StatsReducer)
        .unwrap_err();
    assert_eq!(
        err,
        JobError::TaskExhausted {
            stage: "map",
            task: 0,
            attempts: 2
        }
    );
}
