//! The job executor: split → map → shuffle → reduce with retries and
//! speculative execution.

use crate::api::{Combiner, Emitter, HashPartitioner, Mapper, Partitioner, Reducer};
use crate::config::{Backend, ClusterConfig, FaultPlan};
use crate::metrics::JobMetrics;
use ev_telemetry::{Telemetry, TraceCtx};
use serde::Value;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt;
use std::hash::Hash;
use std::time::Instant;

/// Errors a job can end with.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum JobError {
    /// The cluster configuration failed validation.
    InvalidConfig(ev_core::Error),
    /// A task exhausted its retry budget.
    TaskExhausted {
        /// Which stage the task belonged to.
        stage: &'static str,
        /// Task index within the stage.
        task: usize,
        /// Attempts consumed.
        attempts: u32,
    },
    /// A task panicked on the work-stealing backend and the panic
    /// exhausted its retry budget. Panics are isolated per task attempt
    /// and retried like injected failures; this error means every
    /// allowed attempt panicked.
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
/// [`run_with`](MapReduce::run_with).
#[derive(Debug, Clone)]
pub struct MapReduce {
    config: ClusterConfig,
    telemetry: Telemetry,
    parent_ctx: TraceCtx,
}

/// SplitMix64: cheap deterministic per-(seed, task, attempt) draw.
pub(crate) fn fault_draw(seed: u64, stage: u64, task: u64, attempt: u64) -> f64 {
    let mut z = seed
        .wrapping_add(stage.wrapping_mul(0x9e3779b97f4a7c15))
        .wrapping_add(task.wrapping_mul(0xbf58476d1ce4e5b9))
        .wrapping_add(attempt.wrapping_mul(0x94d049bb133111eb));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Burns `units` of deterministic CPU work (same kernel as the vision
/// cost model, duplicated to avoid a dependency cycle).
fn burn(units: u64) -> u64 {
    let mut acc: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in 0..units {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i | 1);
        acc ^= acc >> 29;
    }
    std::hint::black_box(acc)
}

/// Does this attempt fail, per the fault plan? Pure in (plan, stage,
/// task, attempt) — both backends consult the same draw.
pub(crate) fn attempt_fails(faults: &FaultPlan, stage_id: u64, task: usize, attempt: u32) -> bool {
    faults.task_failure_rate > 0.0
        && fault_draw(faults.seed, stage_id, task as u64, attempt.into()) < faults.task_failure_rate
}

/// Does this attempt straggle? Same determinism contract as
/// [`attempt_fails`], drawn from an independent stream.
fn attempt_straggles(faults: &FaultPlan, stage_id: u64, task: usize, attempt: u32) -> bool {
    faults.straggler_rate > 0.0
        && fault_draw(faults.seed ^ 0x5757, stage_id, task as u64, attempt.into())
            < faults.straggler_rate
}

/// A map task's payload: the (possibly combined) pairs plus the raw
/// pre-combine emit count.
type MapPayload<K, V> = (Vec<(K, V)>, u64);
/// Reduce outputs grouped by key.
type Grouped<K, T> = Vec<(K, Vec<T>)>;

enum TaskOutcome<T> {
    Done { task: usize, payload: T },
    Failed { task: usize },
}

/// Schedules the next attempt of `task` through `submit`, plus an
/// immediate speculative backup when the fault plan marks the attempt
/// straggling. Shared by both backends so attempt numbering, metrics
/// and telemetry events are identical regardless of how attempts
/// actually execute.
#[allow(clippy::too_many_arguments)]
fn schedule(
    task: usize,
    attempts_next: &mut [u32],
    metrics: &mut JobMetrics,
    submit: &mut dyn FnMut(usize, u32),
    faults: &FaultPlan,
    stage_id: u64,
    stage_name: &'static str,
    tel: &Telemetry,
    stage_ctx: TraceCtx,
) {
    let attempt = attempts_next[task];
    attempts_next[task] += 1;
    metrics.map_attempts += u64::from(stage_id == 0);
    submit(task, attempt);
    let straggles = attempt_straggles(faults, stage_id, task, attempt);
    if straggles {
        let args = vec![
            ("stage".to_string(), Value::Str(stage_name.to_string())),
            ("task".to_string(), Value::Int(task as i128)),
            ("attempt".to_string(), Value::Int(i128::from(attempt))),
        ];
        tel.event_ctx("straggler_detected", stage_ctx, args.clone());
        tel.flight().instant("straggler_detected", stage_ctx, args);
    }
    if straggles && faults.speculative_execution {
        let backup = attempts_next[task];
        attempts_next[task] += 1;
        metrics.speculative_attempts += 1;
        metrics.map_attempts += u64::from(stage_id == 0);
        let args = vec![
            ("stage".to_string(), Value::Str(stage_name.to_string())),
            ("task".to_string(), Value::Int(task as i128)),
            ("attempt".to_string(), Value::Int(i128::from(backup))),
        ];
        tel.event_ctx("speculative_launched", stage_ctx, args.clone());
        tel.flight()
            .instant("speculative_launched", stage_ctx, args);
        submit(task, backup);
    }
}

/// The [`ev_exec::ExecObserver`] bridging worker-side executor events
/// into telemetry: steals become `task_stolen` trace instants and
/// flight entries attributed to the stage's [`TraceCtx`], and task
/// durations feed the exact-latency reservoir behind the
/// `evm_exec_task_latency_p*` gauges. Shared with the stage-DAG
/// scheduler.
#[derive(Debug, Clone)]
pub(crate) struct TelemetryExecObserver {
    telemetry: Telemetry,
    stage: &'static str,
    ctx: TraceCtx,
}

impl TelemetryExecObserver {
    /// An observer attributing events to `stage` under `ctx`.
    pub(crate) fn new(telemetry: &Telemetry, stage: &'static str, ctx: TraceCtx) -> Self {
        TelemetryExecObserver {
            telemetry: telemetry.clone(),
            stage,
            ctx,
        }
    }
}

impl ev_exec::ExecObserver for TelemetryExecObserver {
    fn wants_timing(&self) -> bool {
        self.telemetry.counters_on()
    }

    fn steal(&self, thief: usize, victim: usize, moved: usize) {
        let args = vec![
            ("stage".to_string(), Value::Str(self.stage.to_string())),
            ("thief".to_string(), Value::Int(thief as i128)),
            ("victim".to_string(), Value::Int(victim as i128)),
            ("moved".to_string(), Value::Int(moved as i128)),
        ];
        self.telemetry
            .event_ctx("task_stolen", self.ctx, args.clone());
        self.telemetry
            .flight()
            .instant("task_stolen", self.ctx, args);
    }

    fn task_finished(&self, _ctx: ev_exec::WorkerCtx, dur_ns: u64, _panicked: bool) {
        if dur_ns > 0 {
            self.telemetry.task_latency().record(dur_ns);
        }
    }
}

impl MapReduce {
    /// Creates an engine with the given configuration and telemetry
    /// disabled.
    #[must_use]
    pub fn new(config: ClusterConfig) -> Self {
        MapReduce {
            config,
            telemetry: Telemetry::disabled().clone(),
            parent_ctx: TraceCtx::default(),
        }
    }

    /// Attaches a telemetry handle: finished jobs record their
    /// [`JobMetrics`] into its registry, and at the `full` level every
    /// task attempt becomes a trace span with retry / speculative /
    /// straggler instant events.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.telemetry = telemetry.clone();
        self
    }

    /// Parents every job span under `ctx` (e.g. a matching pipeline's
    /// span), so the exported trace links the job → round → task →
    /// attempt tree back to the query that submitted it. Jobs run
    /// without a parent start a fresh trace.
    #[must_use]
    pub fn with_parent_ctx(mut self, ctx: TraceCtx) -> Self {
        self.parent_ctx = ctx;
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
    /// Returns [`JobError::InvalidConfig`] for a bad configuration or
    /// [`JobError::TaskExhausted`] if fault injection defeats the retry
    /// budget.
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
        M::Value: Send + Sync,
        R: Reducer<M::Key, M::Value>,
        R::Output: Send + Clone,
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
    /// # Errors
    ///
    /// Returns [`JobError::InvalidConfig`] for a bad configuration or
    /// [`JobError::TaskExhausted`] if fault injection defeats the retry
    /// budget.
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
        M::Value: Send + Sync,
        R: Reducer<M::Key, M::Value>,
        R::Output: Send + Clone,
        C: Combiner<M::Key, M::Value>,
        P: Partitioner<M::Key>,
    {
        self.config.validate().map_err(JobError::InvalidConfig)?;
        let job_ctx = self.parent_ctx.child();
        let mut job_span = self.telemetry.span_ctx("mapreduce_job", "round", job_ctx);
        self.telemetry
            .flight()
            .instant("job_started", job_ctx, Vec::new());
        let job_start = Instant::now();
        let mut metrics = JobMetrics::default();

        // ---- split ----
        let splits: Vec<&[I]> = inputs.chunks(self.config.split_size).collect();
        metrics.map_tasks = splits.len();

        // ---- map ----
        let map_start = Instant::now();
        let map_outputs: Vec<MapPayload<M::Key, M::Value>> = self.run_stage(
            "map",
            0,
            job_ctx,
            splits.len(),
            &mut metrics,
            |task| {
                let mut emitter = Emitter::new();
                for record in splits[task] {
                    mapper.map(record, &mut emitter);
                }
                let pairs = emitter.into_pairs();
                let raw = pairs.len() as u64;
                let combined = match combiner {
                    None => pairs,
                    Some(c) => {
                        // Group this task's pairs by key, combine each
                        // group locally.
                        let mut groups: BTreeMap<M::Key, Vec<M::Value>> = BTreeMap::new();
                        for (k, v) in pairs {
                            groups.entry(k).or_default().push(v);
                        }
                        let mut combined = Vec::new();
                        for (k, vs) in groups {
                            for v in c.combine(&k, vs) {
                                combined.push((k.clone(), v));
                            }
                        }
                        combined
                    }
                };
                (combined, raw)
            },
            |payload: &MapPayload<M::Key, M::Value>| payload.1,
            &mut |m, raw| m.pre_combine_pairs += raw,
        )?;
        metrics.map_time = map_start.elapsed();

        // ---- shuffle: partition, route, sort, group ----
        let shuffle_start = Instant::now();
        let partitions = self.config.reduce_partitions;
        let mut buckets: Vec<BTreeMap<M::Key, Vec<M::Value>>> =
            (0..partitions).map(|_| BTreeMap::new()).collect();
        // Iterate tasks in task order so value order is deterministic
        // regardless of which worker ran which task when.
        for (pairs, _) in map_outputs {
            metrics.shuffled_pairs += pairs.len() as u64;
            for (k, v) in pairs {
                let p = partitioner.partition(&k, partitions);
                buckets[p].entry(k).or_default().push(v);
            }
        }
        if combiner.is_none() {
            metrics.pre_combine_pairs = metrics.shuffled_pairs;
        }
        metrics.distinct_keys = buckets.iter().map(|b| b.len() as u64).sum();
        metrics.shuffle_time = shuffle_start.elapsed();

        // ---- reduce ----
        let reduce_start = Instant::now();
        let nonempty: Vec<usize> = (0..partitions)
            .filter(|&p| !buckets[p].is_empty())
            .collect();
        metrics.reduce_tasks = nonempty.len();
        let reduced: Vec<Grouped<M::Key, R::Output>> = self.run_stage(
            "reduce",
            1,
            job_ctx,
            nonempty.len(),
            &mut metrics,
            |idx| {
                let bucket = &buckets[nonempty[idx]];
                bucket
                    .iter()
                    .map(|(k, vs)| (k.clone(), reducer.reduce(k, vs)))
                    .collect()
            },
            |_out: &Grouped<M::Key, R::Output>| 0,
            &mut |_m, _raw| {},
        )?;
        metrics.reduce_time = reduce_start.elapsed();

        // Merge partitions into key order.
        let mut grouped: Vec<(M::Key, Vec<R::Output>)> = reduced.into_iter().flatten().collect();
        grouped.sort_by(|a, b| a.0.cmp(&b.0));
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
        flight.counter_delta(
            ev_telemetry::names::MAPREDUCE_SPECULATIVE_ATTEMPTS,
            job_ctx,
            metrics.speculative_attempts,
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

    /// Runs one stage's tasks with retry, straggler simulation and
    /// speculative execution, dispatching on the configured
    /// [`Backend`]. `work` must be safe to run multiple times for the
    /// same task (pure).
    #[allow(clippy::too_many_arguments)]
    fn run_stage<T, F, S>(
        &self,
        stage_name: &'static str,
        stage_id: u64,
        job_ctx: TraceCtx,
        task_count: usize,
        metrics: &mut JobMetrics,
        work: F,
        size_of: S,
        on_raw: &mut dyn FnMut(&mut JobMetrics, u64),
    ) -> Result<Vec<T>, JobError>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
        S: Fn(&T) -> u64 + Sync,
    {
        if task_count == 0 {
            return Ok(Vec::new());
        }
        let stage_ctx = job_ctx.child();
        let mut stage_span = self.telemetry.span_ctx(stage_name, "stage", stage_ctx);
        stage_span.arg("tasks", Value::Int(task_count as i128));
        self.telemetry.flight().instant(
            "stage_started",
            stage_ctx,
            vec![
                ("stage".to_string(), Value::Str(stage_name.to_string())),
                ("tasks".to_string(), Value::Int(task_count as i128)),
            ],
        );
        let results = match self.config.backend {
            Backend::WorkStealing => self
                .run_stage_stealing(stage_name, stage_id, stage_ctx, task_count, metrics, &work)?,
            Backend::Simulated => self
                .run_stage_simulated(stage_name, stage_id, stage_ctx, task_count, metrics, &work)?,
        };
        let mut out = Vec::with_capacity(task_count);
        for payload in results {
            let payload = payload.expect("all tasks completed");
            on_raw(metrics, size_of(&payload));
            out.push(payload);
        }
        Ok(out)
    }

    /// The real-thread backend: every scheduled attempt becomes an
    /// `ev-exec` task on a work-stealing pool of `workers` OS threads.
    /// The driver loop below runs on the submitting thread and owns all
    /// retry / speculation bookkeeping; workers only execute attempts.
    ///
    /// A worker panic is isolated to its attempt and surfaces here as a
    /// failed attempt (retried up to the budget, then
    /// [`JobError::WorkerPanicked`]).
    #[allow(clippy::too_many_arguments)]
    fn run_stage_stealing<T, F>(
        &self,
        stage_name: &'static str,
        stage_id: u64,
        stage_ctx: TraceCtx,
        task_count: usize,
        metrics: &mut JobMetrics,
        work: &F,
    ) -> Result<Vec<Option<T>>, JobError>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let tel = &self.telemetry;
        let faults = self.config.faults;
        let overhead = self.config.task_overhead_units;
        let exec = ev_exec::Executor::new(self.config.workers);
        let observer = TelemetryExecObserver::new(tel, stage_name, stage_ctx);

        // One attempt, executed on whichever worker claims it. The
        // payload carries the attempt's TraceCtx (child of the stage
        // span), allocated at submission — so the span the worker
        // records is causally parented no matter which thread runs it,
        // or whether it was stolen first.
        let attempt_work =
            |_ctx: ev_exec::WorkerCtx, (task, attempt, attempt_ctx): (usize, u32, TraceCtx)| {
                let attempt_start = (tel.tracing_on() || tel.flight().enabled()).then(Instant::now);
                let close_span = |outcome: &'static str| {
                    if let Some(start) = attempt_start {
                        let args = vec![
                            ("stage".to_string(), Value::Str(stage_name.to_string())),
                            ("task".to_string(), Value::Int(task as i128)),
                            ("attempt".to_string(), Value::Int(i128::from(attempt))),
                            ("outcome".to_string(), Value::Str(outcome.to_string())),
                        ];
                        if tel.tracing_on() {
                            tel.tracer().complete_ctx(
                                format!("{stage_name}[{task}]#{attempt}"),
                                "task",
                                start,
                                attempt_ctx,
                                args.clone(),
                            );
                        }
                        tel.flight().span(
                            format!("{stage_name}[{task}]#{attempt}"),
                            attempt_ctx,
                            start,
                            args,
                        );
                    }
                };
                if attempt_fails(&faults, stage_id, task, attempt) {
                    tel.event_ctx(
                        "task_failed",
                        attempt_ctx,
                        vec![
                            ("stage".to_string(), Value::Str(stage_name.to_string())),
                            ("task".to_string(), Value::Int(task as i128)),
                            ("attempt".to_string(), Value::Int(i128::from(attempt))),
                        ],
                    );
                    close_span("failed");
                    return TaskOutcome::Failed { task };
                }
                // Fixed task overhead; stragglers burn a multiple.
                if overhead > 0 {
                    let units = if attempt_straggles(&faults, stage_id, task, attempt) {
                        overhead * faults.straggler_factor
                    } else {
                        overhead
                    };
                    let _ = burn(units);
                }
                let payload = work(task);
                close_span("done");
                TaskOutcome::Done { task, payload }
            };

        let (outcome, stats) = exec.session_observed(
            attempt_work,
            |handle| {
                let mut attempts_next: Vec<u32> = vec![0; task_count];
                let mut failures: Vec<u32> = vec![0; task_count];
                let mut results: Vec<Option<T>> = (0..task_count).map(|_| None).collect();
                let mut remaining = task_count;
                let mut submit = |task: usize, attempt: u32| {
                    handle.submit(task as u64, (task, attempt, stage_ctx.child()));
                };
                for task in 0..task_count {
                    schedule(
                        task,
                        &mut attempts_next,
                        metrics,
                        &mut submit,
                        &faults,
                        stage_id,
                        stage_name,
                        tel,
                        stage_ctx,
                    );
                }
                while remaining > 0 {
                    // Invariant: every unfinished task has at least one
                    // attempt outstanding (failures resubmit before the next
                    // recv), so the session cannot drain early.
                    let completion = handle
                        .recv()
                        .expect("unfinished tasks always have an attempt in flight");
                    let (task, panic_message) = match completion.result {
                        Ok(TaskOutcome::Done { task, payload }) => {
                            if results[task].is_none() {
                                results[task] = Some(payload);
                                remaining -= 1;
                            }
                            // Else: a speculative or duplicate attempt lost
                            // the race; drop its output.
                            continue;
                        }
                        Ok(TaskOutcome::Failed { task }) => (task, None),
                        Err(panic) => {
                            let task = completion.task as usize;
                            let args = vec![
                                ("stage".to_string(), Value::Str(stage_name.to_string())),
                                ("task".to_string(), Value::Int(task as i128)),
                                ("message".to_string(), Value::Str(panic.message.clone())),
                            ];
                            tel.event_ctx("task_panicked", stage_ctx, args.clone());
                            tel.flight().instant("task_panicked", stage_ctx, args);
                            (task, Some(panic.message))
                        }
                    };
                    if results[task].is_some() {
                        continue; // another attempt already won
                    }
                    metrics.failed_attempts += 1;
                    failures[task] += 1;
                    if failures[task] >= faults.max_attempts {
                        tel.flight().instant(
                            "retry_budget_exhausted",
                            stage_ctx,
                            vec![
                                ("stage".to_string(), Value::Str(stage_name.to_string())),
                                ("task".to_string(), Value::Int(task as i128)),
                                (
                                    "attempts".to_string(),
                                    Value::Int(i128::from(failures[task])),
                                ),
                            ],
                        );
                        return match panic_message {
                            Some(message) => {
                                tel.dump_flight("worker_panicked");
                                Err(JobError::WorkerPanicked {
                                    stage: stage_name,
                                    message,
                                })
                            }
                            None => {
                                tel.dump_flight("task_exhausted");
                                Err(JobError::TaskExhausted {
                                    stage: stage_name,
                                    task,
                                    attempts: failures[task],
                                })
                            }
                        };
                    }
                    let retry_args = vec![
                        ("stage".to_string(), Value::Str(stage_name.to_string())),
                        ("task".to_string(), Value::Int(task as i128)),
                        (
                            "failures".to_string(),
                            Value::Int(i128::from(failures[task])),
                        ),
                    ];
                    tel.event_ctx("retry_scheduled", stage_ctx, retry_args.clone());
                    tel.flight()
                        .instant("retry_scheduled", stage_ctx, retry_args);
                    schedule(
                        task,
                        &mut attempts_next,
                        metrics,
                        &mut submit,
                        &faults,
                        stage_id,
                        stage_name,
                        tel,
                        stage_ctx,
                    );
                }
                Ok(results)
            },
            &observer,
        );
        metrics.record_exec_session(&stats);
        if tel.counters_on() {
            crate::metrics::record_exec_stats(tel.registry(), &stats);
        }
        outcome
    }

    /// The deterministic backend: a single-threaded discrete-event
    /// simulation of a `workers`-node cluster running in *virtual
    /// time*. Each attempt costs `1 + task_overhead_units` virtual
    /// units (times `straggler_factor` when it straggles); attempts are
    /// list-scheduled onto the earliest-free simulated worker and
    /// complete in `(done_at, seq)` order, so failure retries and
    /// speculation races resolve identically on every run and every
    /// host. No wall clock is read for any scheduling decision.
    ///
    /// Only winning attempts execute `work` (losers are charged virtual
    /// time, not CPU), which makes this backend cheap enough for dense
    /// fault-injection sweeps and for the paper's Figure 9
    /// cluster-scaling model. The stage's virtual makespan accumulates
    /// into [`JobMetrics::virtual_makespan_units`].
    fn run_stage_simulated<T, F>(
        &self,
        stage_name: &'static str,
        stage_id: u64,
        stage_ctx: TraceCtx,
        task_count: usize,
        metrics: &mut JobMetrics,
        work: &F,
    ) -> Result<Vec<Option<T>>, JobError>
    where
        F: Fn(usize) -> T,
    {
        let tel = &self.telemetry;
        let faults = self.config.faults;
        let overhead = self.config.task_overhead_units;

        let mut attempts_next: Vec<u32> = vec![0; task_count];
        let mut failures: Vec<u32> = vec![0; task_count];
        let mut results: Vec<Option<T>> = (0..task_count).map(|_| None).collect();
        let mut remaining = task_count;

        // Simulated workers, keyed by the virtual time they free up;
        // ties break on worker index. Completion events order by
        // (done_at, seq): seq is the global submission number, so
        // simultaneous completions resolve in submission order.
        let mut free: BinaryHeap<Reverse<(u64, usize)>> =
            (0..self.config.workers).map(|w| Reverse((0, w))).collect();
        let mut events: BinaryHeap<Reverse<(u64, u64, usize, u32)>> = BinaryHeap::new();
        let mut seq: u64 = 0;
        let mut now: u64 = 0;

        fn assign(
            task: usize,
            attempt: u32,
            cost: u64,
            now: u64,
            free: &mut BinaryHeap<Reverse<(u64, usize)>>,
            events: &mut BinaryHeap<Reverse<(u64, u64, usize, u32)>>,
            seq: &mut u64,
        ) {
            let Reverse((free_at, worker)) = free.pop().expect("worker heap never empties");
            let start = free_at.max(now);
            let done = start + cost;
            free.push(Reverse((done, worker)));
            *seq += 1;
            events.push(Reverse((done, *seq, task, attempt)));
        }

        macro_rules! sim_schedule {
            ($task:expr) => {
                schedule(
                    $task,
                    &mut attempts_next,
                    metrics,
                    &mut |task, attempt| {
                        let units = if attempt_straggles(&faults, stage_id, task, attempt) {
                            overhead * faults.straggler_factor
                        } else {
                            overhead
                        };
                        assign(
                            task,
                            attempt,
                            1 + units,
                            now,
                            &mut free,
                            &mut events,
                            &mut seq,
                        );
                    },
                    &faults,
                    stage_id,
                    stage_name,
                    tel,
                    stage_ctx,
                )
            };
        }

        for task in 0..task_count {
            sim_schedule!(task);
        }

        while remaining > 0 {
            let Reverse((done_at, _seq, task, attempt)) = events
                .pop()
                .expect("unfinished tasks always have an attempt in flight");
            now = done_at;
            if attempt_fails(&faults, stage_id, task, attempt) {
                let fail_args = vec![
                    ("stage".to_string(), Value::Str(stage_name.to_string())),
                    ("task".to_string(), Value::Int(task as i128)),
                    ("attempt".to_string(), Value::Int(i128::from(attempt))),
                ];
                tel.event_ctx("task_failed", stage_ctx, fail_args.clone());
                tel.flight().instant("task_failed", stage_ctx, fail_args);
                if results[task].is_some() {
                    continue; // another attempt already won
                }
                metrics.failed_attempts += 1;
                failures[task] += 1;
                if failures[task] >= faults.max_attempts {
                    tel.flight().instant(
                        "retry_budget_exhausted",
                        stage_ctx,
                        vec![
                            ("stage".to_string(), Value::Str(stage_name.to_string())),
                            ("task".to_string(), Value::Int(task as i128)),
                            (
                                "attempts".to_string(),
                                Value::Int(i128::from(failures[task])),
                            ),
                        ],
                    );
                    tel.dump_flight("task_exhausted");
                    return Err(JobError::TaskExhausted {
                        stage: stage_name,
                        task,
                        attempts: failures[task],
                    });
                }
                let retry_args = vec![
                    ("stage".to_string(), Value::Str(stage_name.to_string())),
                    ("task".to_string(), Value::Int(task as i128)),
                    (
                        "failures".to_string(),
                        Value::Int(i128::from(failures[task])),
                    ),
                ];
                tel.event_ctx("retry_scheduled", stage_ctx, retry_args.clone());
                tel.flight()
                    .instant("retry_scheduled", stage_ctx, retry_args);
                sim_schedule!(task);
            } else if results[task].is_none() {
                results[task] = Some(work(task));
                remaining -= 1;
            }
            // Else: a speculative loser — its virtual cost was charged
            // to its worker, but `work` never runs for it.
        }
        metrics.virtual_makespan_units += now;
        Ok(results)
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
                ..FaultPlan::default()
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
                ..FaultPlan::default()
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
    fn speculative_execution_launches_backups_and_keeps_results_correct() {
        let cfg = ClusterConfig {
            faults: FaultPlan {
                straggler_rate: 0.5,
                straggler_factor: 4,
                speculative_execution: true,
                seed: 9,
                ..FaultPlan::default()
            },
            split_size: 5,
            task_overhead_units: 10_000,
            ..ClusterConfig::default()
        };
        let engine = MapReduce::new(cfg);
        let result = engine.run(corpus(100), &Tokenize, &Sum).unwrap();
        assert_wordcount_correct(&result.output, 100);
        assert!(
            result.metrics.speculative_attempts > 0,
            "half the tasks straggle; backups must launch"
        );
    }

    #[test]
    fn stragglers_without_speculation_still_finish() {
        let cfg = ClusterConfig {
            faults: FaultPlan {
                straggler_rate: 0.3,
                straggler_factor: 3,
                speculative_execution: false,
                seed: 5,
                ..FaultPlan::default()
            },
            split_size: 10,
            task_overhead_units: 1_000,
            ..ClusterConfig::default()
        };
        let result = MapReduce::new(cfg)
            .run(corpus(100), &Tokenize, &Sum)
            .unwrap();
        assert_wordcount_correct(&result.output, 100);
        assert_eq!(result.metrics.speculative_attempts, 0);
    }

    #[test]
    fn failures_and_speculation_compose() {
        let cfg = ClusterConfig {
            faults: FaultPlan {
                task_failure_rate: 0.2,
                straggler_rate: 0.3,
                straggler_factor: 2,
                speculative_execution: true,
                max_attempts: 50,
                seed: 11,
            },
            split_size: 4,
            task_overhead_units: 500,
            ..ClusterConfig::default()
        };
        let result = MapReduce::new(cfg)
            .run(corpus(100), &Tokenize, &Sum)
            .unwrap();
        assert_wordcount_correct(&result.output, 100);
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
                ..FaultPlan::default()
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
        assert!(events.iter().any(|e| e.name == "retry_scheduled"));
        assert!(events.iter().any(|e| e.cat == "task" && e.ph == 'X'));
        assert!(events.iter().any(|e| e.cat == "stage" && e.name == "map"));
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
    fn simulated_backend_is_deterministic_including_fault_metrics() {
        let cfg = ClusterConfig {
            workers: 14,
            reduce_partitions: 14,
            split_size: 4,
            backend: Backend::Simulated,
            task_overhead_units: 1_000, // virtual units only: never burned
            faults: FaultPlan {
                task_failure_rate: 0.25,
                straggler_rate: 0.3,
                straggler_factor: 4,
                speculative_execution: true,
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
        // The whole fault story is reproducible, not just the output:
        assert_eq!(a.metrics.map_attempts, b.metrics.map_attempts);
        assert_eq!(a.metrics.failed_attempts, b.metrics.failed_attempts);
        assert_eq!(
            a.metrics.speculative_attempts,
            b.metrics.speculative_attempts
        );
        assert_eq!(
            a.metrics.virtual_makespan_units,
            b.metrics.virtual_makespan_units
        );
        assert!(a.metrics.failed_attempts > 0, "25% failure rate must bite");
        assert!(a.metrics.speculative_attempts > 0);
        assert!(a.metrics.virtual_makespan_units > 0);
    }

    #[test]
    fn simulated_makespan_shrinks_with_more_workers() {
        // The Figure 9 model: same job, wider virtual cluster, smaller
        // virtual makespan. Exact values are asserted stable elsewhere;
        // here we pin the scaling direction.
        let makespan = |workers: usize| {
            let cfg = ClusterConfig {
                workers,
                reduce_partitions: 4,
                split_size: 2,
                backend: Backend::Simulated,
                task_overhead_units: 5_000,
                faults: FaultPlan::default(),
            };
            MapReduce::new(cfg)
                .run(corpus(200), &Tokenize, &Sum)
                .unwrap()
                .metrics
                .virtual_makespan_units
        };
        let (m1, m4, m14) = (makespan(1), makespan(4), makespan(14));
        assert!(m1 > m4, "1 worker ({m1}) must be slower than 4 ({m4})");
        assert!(m4 > m14, "4 workers ({m4}) must be slower than 14 ({m14})");
        assert!(
            m1 >= 3 * m4,
            "100 uniform map tasks should scale near-linearly to 4 workers ({m1} vs {m4})"
        );
    }

    #[test]
    fn work_stealing_backend_records_exec_session_stats() {
        let cfg = ClusterConfig {
            workers: 4,
            split_size: 5,
            ..ClusterConfig::default()
        };
        assert_eq!(cfg.backend, Backend::WorkStealing);
        let result = MapReduce::new(cfg)
            .run(corpus(100), &Tokenize, &Sum)
            .unwrap();
        assert_wordcount_correct(&result.output, 100);
        assert_eq!(
            result.metrics.virtual_makespan_units, 0,
            "real threads, no virtual time"
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

    #[test]
    fn fault_draw_is_deterministic_and_uniform() {
        let a = fault_draw(1, 0, 2, 3);
        assert_eq!(a, fault_draw(1, 0, 2, 3));
        assert_ne!(a, fault_draw(1, 0, 2, 4));
        let mean: f64 = (0..10_000).map(|i| fault_draw(42, 0, i, 0)).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }
}
