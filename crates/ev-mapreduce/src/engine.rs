//! The MapReduce job builder: split → map → shuffle → reduce, declared
//! as a two-stage [`DagSpec`] and run by the stage-DAG scheduler.

use crate::api::{Combiner, Emitter, HashPartitioner, Mapper, Partitioner, Reducer};
use crate::config::ClusterConfig;
use crate::dag::{DagConfig, DagSpec, StageDep};
use crate::metrics::JobMetrics;
use ev_telemetry::{Telemetry, TraceCtx};
use serde::Value;
use std::collections::BTreeMap;
use std::fmt;
use std::hash::Hash;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Errors a job can end with.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum JobError {
    /// The cluster configuration failed validation.
    InvalidConfig(ev_core::Error),
    /// A task lost its last allowed attempt to an injected
    /// [`FaultPlan`](crate::FaultPlan) fault.
    TaskExhausted {
        /// Which stage the task belonged to.
        stage: &'static str,
        /// Task index within the stage.
        task: usize,
        /// Attempts consumed.
        attempts: u32,
    },
    /// A task lost its last allowed attempt to a real panic. Panics
    /// are isolated per task attempt and retried like injected faults;
    /// this error means the retry budget ran out on one.
    WorkerPanicked {
        /// Which stage the task belonged to.
        stage: &'static str,
        /// The panic payload message of the final attempt.
        message: String,
    },
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::InvalidConfig(e) => write!(f, "invalid cluster configuration: {e}"),
            JobError::TaskExhausted {
                stage,
                task,
                attempts,
            } => write!(f, "{stage} task {task} failed after {attempts} attempts"),
            JobError::WorkerPanicked { stage, message } => {
                write!(
                    f,
                    "{stage} task panicked on every allowed attempt: {message}"
                )
            }
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::InvalidConfig(e) => Some(e),
            JobError::TaskExhausted { .. } | JobError::WorkerPanicked { .. } => None,
        }
    }
}

/// A finished job: outputs plus execution metrics.
#[derive(Debug, Clone)]
pub struct JobResult<K, T> {
    /// Flattened reduce outputs, ordered by key.
    pub output: Vec<T>,
    /// Reduce outputs grouped per key, ordered by key.
    pub grouped: Vec<(K, Vec<T>)>,
    /// Execution counters and timings.
    pub metrics: JobMetrics,
}

/// The MapReduce engine. Create one per cluster configuration and submit
/// jobs with [`run`](MapReduce::run) or
/// [`run_with`](MapReduce::run_with). Each job is one two-stage
/// [`DagSpec`] submission on `workers` threads.
#[derive(Debug, Clone)]
pub struct MapReduce {
    config: ClusterConfig,
    telemetry: Telemetry,
}

/// Reduce outputs grouped by key.
type Grouped<K, T> = Vec<(K, Vec<T>)>;

/// One partition of a job's two-stage spec.
enum Part<K, V, T> {
    /// A map task's output: its (possibly combined) pairs pre-bucketed
    /// by reduce partition, in emission order within each bucket.
    Map {
        buckets: Vec<Vec<(K, V)>>,
        /// Pairs emitted before the combiner ran.
        raw: u64,
        /// Failed attempts before this one.
        retries: u32,
        finished: Instant,
    },
    /// A reduce task's output, in key order.
    Reduce {
        groups: Grouped<K, T>,
        /// Time spent merging and grouping the partition's buckets.
        shuffle: Duration,
    },
}

impl MapReduce {
    /// Creates an engine with the given configuration and telemetry
    /// disabled.
    #[must_use]
    pub fn new(config: ClusterConfig) -> Self {
        MapReduce {
            config,
            telemetry: Telemetry::disabled().clone(),
        }
    }

    /// Attaches a telemetry handle: finished jobs record their
    /// [`JobMetrics`] into its registry, and at the `full` level every
    /// task attempt becomes a trace span with `task_failed` /
    /// `task_panicked` instant events.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.telemetry = telemetry.clone();
        self
    }

    /// The telemetry handle in force (the shared disabled instance by
    /// default).
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Runs a job with the default hash partitioner and no combiner.
    ///
    /// # Errors
    ///
    /// As [`run_with`](MapReduce::run_with).
    pub fn run<I, M, R>(
        &self,
        inputs: Vec<I>,
        mapper: &M,
        reducer: &R,
    ) -> Result<JobResult<M::Key, R::Output>, JobError>
    where
        I: Send + Sync,
        M: Mapper<I>,
        M::Key: Ord + Hash + Clone + Send + Sync,
        M::Value: Clone + Send + Sync,
        R: Reducer<M::Key, M::Value>,
        R::Output: Clone + Send + Sync,
    {
        self.run_with(
            inputs,
            mapper,
            reducer,
            None::<&NoCombiner>,
            &HashPartitioner,
        )
    }

    /// Runs a job with an optional combiner and a custom partitioner.
    ///
    /// The job is a two-stage [`DagSpec`]: a `map` stage with one
    /// partition per input split, whose output is pre-bucketed by the
    /// partitioner, and a `reduce` stage of `reduce_partitions`
    /// partitions on a shuffle edge — each merges its bucket from every
    /// map partition in map-task order (so value order does not depend
    /// on which worker ran what when), groups by key and reduces.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::InvalidConfig`] for a bad configuration,
    /// [`JobError::TaskExhausted`] if fault injection defeats the retry
    /// budget, or [`JobError::WorkerPanicked`] if a panicking mapper,
    /// combiner or reducer does.
    pub fn run_with<I, M, R, C, P>(
        &self,
        inputs: Vec<I>,
        mapper: &M,
        reducer: &R,
        combiner: Option<&C>,
        partitioner: &P,
    ) -> Result<JobResult<M::Key, R::Output>, JobError>
    where
        I: Send + Sync,
        M: Mapper<I>,
        M::Key: Ord + Hash + Clone + Send + Sync,
        M::Value: Clone + Send + Sync,
        R: Reducer<M::Key, M::Value>,
        R::Output: Clone + Send + Sync,
        C: Combiner<M::Key, M::Value>,
        P: Partitioner<M::Key>,
    {
        self.config.validate().map_err(JobError::InvalidConfig)?;
        let job_ctx = TraceCtx::root();
        let mut job_span = self.telemetry.span_ctx("mapreduce_job", "round", job_ctx);
        let job_start = Instant::now();
        let mut metrics = JobMetrics::default();

        let splits: Vec<&[I]> = inputs.chunks(self.config.split_size).collect();
        let partitions = self.config.reduce_partitions;
        if splits.is_empty() {
            return Ok(JobResult {
                output: Vec::new(),
                grouped: Vec::new(),
                metrics,
            });
        }

        let mut spec: DagSpec<'_, Part<M::Key, M::Value, R::Output>> = DagSpec::new();
        let splits = &splits;
        let map = spec.stage("map", splits.len(), Vec::new(), move |task, _| {
            let mut emitter = Emitter::new();
            for record in splits[task.partition] {
                mapper.map(record, &mut emitter);
            }
            let pairs = emitter.into_pairs();
            let raw = pairs.len() as u64;
            let mut buckets: Vec<Vec<(M::Key, M::Value)>> =
                (0..partitions).map(|_| Vec::new()).collect();
            let mut route = |k: M::Key, v: M::Value| {
                buckets[partitioner.partition(&k, partitions)].push((k, v));
            };
            match combiner {
                None => pairs.into_iter().for_each(|(k, v)| route(k, v)),
                Some(c) => {
                    // Group this task's pairs by key, combine each
                    // group locally.
                    let mut groups: BTreeMap<M::Key, Vec<M::Value>> = BTreeMap::new();
                    for (k, v) in pairs {
                        groups.entry(k).or_default().push(v);
                    }
                    for (k, vs) in groups {
                        for v in c.combine(&k, vs) {
                            route(k.clone(), v);
                        }
                    }
                }
            }
            Part::Map {
                buckets,
                raw,
                retries: task.attempt,
                finished: Instant::now(),
            }
        });
        // The job reads the map stage's counters after the run.
        spec.keep(map);
        let reduce = spec.stage(
            "reduce",
            partitions,
            vec![StageDep::shuffle(map)],
            move |task, maps| {
                let shuffle_start = Instant::now();
                let mut bucket: BTreeMap<&M::Key, Vec<M::Value>> = BTreeMap::new();
                for part in maps {
                    let Part::Map { buckets, .. } = &**part else {
                        unreachable!("the reduce stage reads only map partitions");
                    };
                    for (k, v) in &buckets[task.partition] {
                        bucket.entry(k).or_default().push(v.clone());
                    }
                }
                let shuffle = shuffle_start.elapsed();
                let groups = bucket
                    .into_iter()
                    .map(|(k, vs)| (k.clone(), reducer.reduce(k, &vs)))
                    .collect();
                Part::Reduce { groups, shuffle }
            },
        );

        metrics.map_tasks = splits.len();
        metrics.virtual_makespan_units = spec.virtual_makespan(self.config.workers);
        let mut run = spec.run(
            &DagConfig {
                threads: self.config.workers,
                cache_capacity: None,
                faults: self.config.faults,
            },
            &self.telemetry,
            job_ctx,
        )?;
        let job_end = Instant::now();

        let mut last_map = job_start;
        for part in &run.outputs[&map] {
            let Part::Map {
                buckets,
                raw,
                retries,
                finished,
            } = &**part
            else {
                unreachable!("the map stage produces map partitions");
            };
            metrics.map_attempts += 1 + u64::from(*retries);
            metrics.pre_combine_pairs += raw;
            metrics.shuffled_pairs += buckets.iter().map(|b| b.len() as u64).sum::<u64>();
            last_map = last_map.max(*finished);
        }
        metrics.failed_attempts = run.metrics.retries;
        metrics.map_time = last_map - job_start;
        metrics.reduce_time = job_end - last_map;

        // Merge partitions into key order.
        let mut grouped: Grouped<M::Key, R::Output> = Vec::new();
        for part in run.outputs.remove(&reduce).unwrap_or_default() {
            let Some(Part::Reduce { groups, shuffle }) = Arc::into_inner(part) else {
                unreachable!("the finished run holds the only handle to its reduce partitions");
            };
            metrics.reduce_tasks += usize::from(!groups.is_empty());
            metrics.shuffle_time += shuffle;
            grouped.extend(groups);
        }
        grouped.sort_by(|a, b| a.0.cmp(&b.0));
        metrics.distinct_keys = grouped.len() as u64;
        let output = grouped
            .iter()
            .flat_map(|(_, outs)| outs.iter())
            .cloned()
            .collect::<Vec<_>>();

        metrics.total_time = job_start.elapsed();
        if self.telemetry.counters_on() {
            metrics.record_to(self.telemetry.registry());
        }
        let flight = self.telemetry.flight();
        flight.counter_delta(
            ev_telemetry::names::MAPREDUCE_FAILED_ATTEMPTS,
            job_ctx,
            metrics.failed_attempts,
        );
        flight.span(
            "mapreduce_job",
            job_ctx,
            job_start,
            vec![
                (
                    "map_tasks".to_string(),
                    Value::Int(metrics.map_tasks as i128),
                ),
                (
                    "map_attempts".to_string(),
                    Value::Int(i128::from(metrics.map_attempts)),
                ),
            ],
        );
        job_span.arg("map_tasks", Value::Int(metrics.map_tasks as i128));
        job_span.arg("reduce_tasks", Value::Int(metrics.reduce_tasks as i128));
        job_span.arg("map_attempts", Value::Int(i128::from(metrics.map_attempts)));
        drop(job_span);
        Ok(JobResult {
            output,
            grouped,
            metrics,
        })
    }
}

/// Placeholder combiner type for [`MapReduce::run`]'s `None`.
struct NoCombiner;
impl<K, V> Combiner<K, V> for NoCombiner {
    fn combine(&self, _key: &K, values: Vec<V>) -> Vec<V> {
        values
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // explicit per-field mutation reads clearer in validation tests
mod tests {
    use super::*;
    use crate::config::FaultPlan;

    struct Tokenize;
    impl Mapper<String> for Tokenize {
        type Key = String;
        type Value = u64;
        fn map(&self, line: &String, out: &mut Emitter<String, u64>) {
            for w in line.split_whitespace() {
                out.emit(w.to_string(), 1);
            }
        }
    }

    struct Sum;
    impl Reducer<String, u64> for Sum {
        type Output = (String, u64);
        fn reduce(&self, key: &String, values: &[u64]) -> Vec<(String, u64)> {
            vec![(key.clone(), values.iter().sum())]
        }
    }

    struct SumCombiner;
    impl Combiner<String, u64> for SumCombiner {
        fn combine(&self, _key: &String, values: Vec<u64>) -> Vec<u64> {
            vec![values.iter().sum()]
        }
    }

    fn corpus(lines: usize) -> Vec<String> {
        (0..lines)
            .map(|i| format!("w{} w{} shared", i % 7, i % 13))
            .collect()
    }

    fn assert_wordcount_correct(output: &[(String, u64)], lines: usize) {
        let total: u64 = output.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 3 * lines as u64, "every token counted once");
        let shared = output.iter().find(|(w, _)| w == "shared").unwrap();
        assert_eq!(shared.1, lines as u64);
    }

    #[test]
    fn wordcount_end_to_end() {
        let engine = MapReduce::new(ClusterConfig::default());
        let result = engine.run(corpus(100), &Tokenize, &Sum).unwrap();
        assert_wordcount_correct(&result.output, 100);
        // Output is key-ordered.
        let keys: Vec<&String> = result.output.iter().map(|(k, _)| k).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert!(result.metrics.map_tasks >= 1);
        assert_eq!(result.metrics.failed_attempts, 0);
    }

    #[test]
    fn output_is_deterministic_across_runs_and_worker_counts() {
        let base = MapReduce::new(ClusterConfig::sequential())
            .run(corpus(200), &Tokenize, &Sum)
            .unwrap();
        for workers in [2, 4, 8] {
            let cfg = ClusterConfig {
                workers,
                reduce_partitions: 3,
                split_size: 17,
                ..ClusterConfig::default()
            };
            let r = MapReduce::new(cfg)
                .run(corpus(200), &Tokenize, &Sum)
                .unwrap();
            assert_eq!(r.output, base.output, "workers={workers}");
        }
    }

    #[test]
    fn empty_input_gives_empty_output() {
        let engine = MapReduce::new(ClusterConfig::default());
        let result = engine.run(Vec::<String>::new(), &Tokenize, &Sum).unwrap();
        assert!(result.output.is_empty());
        assert_eq!(result.metrics.map_tasks, 0);
        assert_eq!(result.metrics.reduce_tasks, 0);
    }

    #[test]
    fn combiner_reduces_shuffle_volume_without_changing_results() {
        let cfg = ClusterConfig {
            split_size: 50,
            ..ClusterConfig::default()
        };
        let engine = MapReduce::new(cfg);
        let plain = engine.run(corpus(200), &Tokenize, &Sum).unwrap();
        let combined = engine
            .run_with(
                corpus(200),
                &Tokenize,
                &Sum,
                Some(&SumCombiner),
                &HashPartitioner,
            )
            .unwrap();
        assert_eq!(plain.output, combined.output);
        assert!(
            combined.metrics.shuffled_pairs < plain.metrics.shuffled_pairs,
            "combiner must shrink the shuffle ({} vs {})",
            combined.metrics.shuffled_pairs,
            plain.metrics.shuffled_pairs
        );
        assert!(combined.metrics.combine_ratio() > 0.5);
        assert_eq!(plain.metrics.combine_ratio(), 0.0);
    }

    #[test]
    fn grouped_output_collects_per_key() {
        let engine = MapReduce::new(ClusterConfig::default());
        let result = engine.run(corpus(50), &Tokenize, &Sum).unwrap();
        assert_eq!(result.grouped.len(), result.output.len());
        for (k, outs) in &result.grouped {
            assert_eq!(outs.len(), 1);
            assert_eq!(&outs[0].0, k);
        }
    }

    #[test]
    fn injected_failures_are_retried_to_success() {
        let cfg = ClusterConfig {
            faults: FaultPlan {
                task_failure_rate: 0.4,
                max_attempts: 50,
                seed: 3,
            },
            split_size: 5,
            ..ClusterConfig::default()
        };
        let engine = MapReduce::new(cfg);
        let result = engine.run(corpus(100), &Tokenize, &Sum).unwrap();
        assert_wordcount_correct(&result.output, 100);
        assert!(
            result.metrics.failed_attempts > 0,
            "with 40% failure rate over 20 tasks some attempts must fail"
        );
    }

    #[test]
    fn retry_budget_exhaustion_aborts_the_job() {
        let cfg = ClusterConfig {
            faults: FaultPlan {
                task_failure_rate: 0.95,
                max_attempts: 2,
                seed: 1,
            },
            split_size: 1,
            ..ClusterConfig::default()
        };
        let engine = MapReduce::new(cfg);
        let err = engine.run(corpus(50), &Tokenize, &Sum).unwrap_err();
        match err {
            JobError::TaskExhausted { attempts, .. } => assert_eq!(attempts, 2),
            other => panic!("expected TaskExhausted, got {other:?}"),
        }
    }

    #[test]
    fn invalid_config_is_reported() {
        let mut cfg = ClusterConfig::default();
        cfg.workers = 0;
        let err = MapReduce::new(cfg)
            .run(corpus(10), &Tokenize, &Sum)
            .unwrap_err();
        assert!(matches!(err, JobError::InvalidConfig(_)));
        assert!(err.to_string().contains("worker"));
    }

    #[test]
    fn single_record_splits() {
        let cfg = ClusterConfig {
            split_size: 1,
            ..ClusterConfig::default()
        };
        let result = MapReduce::new(cfg)
            .run(corpus(10), &Tokenize, &Sum)
            .unwrap();
        assert_eq!(result.metrics.map_tasks, 10);
        assert_wordcount_correct(&result.output, 10);
    }

    #[test]
    fn custom_partitioner_is_honored() {
        /// Everything to partition 0.
        struct Zero;
        impl<K> Partitioner<K> for Zero {
            fn partition(&self, _key: &K, _partitions: usize) -> usize {
                0
            }
        }
        let cfg = ClusterConfig {
            reduce_partitions: 8,
            ..ClusterConfig::default()
        };
        let result = MapReduce::new(cfg)
            .run_with(corpus(30), &Tokenize, &Sum, None::<&SumCombiner>, &Zero)
            .unwrap();
        assert_eq!(result.metrics.reduce_tasks, 1, "only partition 0 is used");
        assert_wordcount_correct(&result.output, 30);
    }

    #[test]
    fn telemetry_records_job_metrics_and_events() {
        use ev_telemetry::{names, TelemetryLevel};
        let tel = Telemetry::new(TelemetryLevel::Full);
        let cfg = ClusterConfig {
            faults: FaultPlan {
                task_failure_rate: 0.4,
                max_attempts: 50,
                seed: 3,
            },
            split_size: 5,
            ..ClusterConfig::default()
        };
        let engine = MapReduce::new(cfg).with_telemetry(&tel);
        let result = engine.run(corpus(100), &Tokenize, &Sum).unwrap();
        assert_eq!(
            tel.registry().counter_value(names::MAPREDUCE_MAP_ATTEMPTS),
            Some(result.metrics.map_attempts),
            "registry must mirror the job's attempt counter"
        );
        assert_eq!(
            tel.registry()
                .counter_value(names::MAPREDUCE_FAILED_ATTEMPTS),
            Some(result.metrics.failed_attempts)
        );
        let events = tel.tracer().events();
        assert!(events.iter().any(|e| e.name == "task_failed"));
        assert!(events.iter().any(|e| e.cat == "task" && e.ph == 'X'));
        assert!(events.iter().any(|e| e.name == "dag_run"));
        assert!(events.iter().any(|e| e.name == "mapreduce_job"));
    }

    #[test]
    fn disabled_telemetry_leaves_results_unchanged() {
        let cfg = ClusterConfig {
            split_size: 7,
            ..ClusterConfig::default()
        };
        let plain = MapReduce::new(cfg.clone())
            .run(corpus(60), &Tokenize, &Sum)
            .unwrap();
        let tel = Telemetry::new(ev_telemetry::TelemetryLevel::Full);
        let traced = MapReduce::new(cfg)
            .with_telemetry(&tel)
            .run(corpus(60), &Tokenize, &Sum)
            .unwrap();
        assert_eq!(plain.output, traced.output);
        assert!(Telemetry::disabled().tracer().is_empty());
    }

    #[test]
    fn fault_story_repeats_run_to_run() {
        // `attempt_fails` is a pure function of seed/stage/task/attempt,
        // so two real-thread runs of one flaky plan lose exactly the
        // same attempts whatever the schedule.
        let cfg = ClusterConfig {
            workers: 4,
            reduce_partitions: 14,
            split_size: 4,
            faults: FaultPlan {
                task_failure_rate: 0.25,
                max_attempts: 50,
                seed: 21,
            },
        };
        let a = MapReduce::new(cfg.clone())
            .run(corpus(200), &Tokenize, &Sum)
            .unwrap();
        let b = MapReduce::new(cfg)
            .run(corpus(200), &Tokenize, &Sum)
            .unwrap();
        assert_wordcount_correct(&a.output, 200);
        assert_eq!(a.output, b.output);
        assert_eq!(a.metrics.map_attempts, b.metrics.map_attempts);
        assert_eq!(a.metrics.failed_attempts, b.metrics.failed_attempts);
        assert!(a.metrics.failed_attempts > 0, "25% failure rate must bite");
        assert!(a.metrics.map_attempts > a.metrics.map_tasks as u64);
    }

    #[test]
    fn virtual_makespan_shrinks_with_more_workers() {
        // The Figure 9 model: same job, wider virtual cluster, smaller
        // virtual makespan — 100 map tasks + 4 reduce tasks at one unit
        // each, whatever the host.
        let makespan = |workers: usize| {
            let cfg = ClusterConfig {
                workers,
                reduce_partitions: 4,
                split_size: 2,
                faults: FaultPlan::default(),
            };
            MapReduce::new(cfg)
                .run(corpus(200), &Tokenize, &Sum)
                .unwrap()
                .metrics
                .virtual_makespan_units
        };
        assert_eq!(
            (makespan(1), makespan(4), makespan(14)),
            (104, 25 + 1, 8 + 1)
        );
    }

    #[test]
    fn panicking_task_is_isolated_and_reported() {
        struct PanicOnThree;
        impl Mapper<String> for PanicOnThree {
            type Key = String;
            type Value = u64;
            fn map(&self, line: &String, _out: &mut Emitter<String, u64>) {
                assert!(!line.contains("w3"), "injected mapper panic");
            }
        }
        let cfg = ClusterConfig {
            split_size: 1,
            faults: FaultPlan {
                max_attempts: 3,
                ..FaultPlan::default()
            },
            ..ClusterConfig::default()
        };
        let err = MapReduce::new(cfg)
            .run(corpus(10), &PanicOnThree, &Sum)
            .unwrap_err();
        match err {
            JobError::WorkerPanicked { stage, message } => {
                assert_eq!(stage, "map");
                assert!(message.contains("injected mapper panic"), "got: {message}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }
}
