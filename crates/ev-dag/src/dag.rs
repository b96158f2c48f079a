//! Stage-DAG scheduler with partition lineage over the crate's FIFO pool.
//!
//! This is the crate's one scheduler. A whole computation is declared
//! up front as a **graph of stages**, each stage split into numbered
//! **partitions**, each partition produced by one task. Edges are
//! either
//!
//! * [`DepKind::Narrow`] — child partition `p` reads exactly one parent
//!   partition (`p % parent.partitions`, which covers both the
//!   identity 1:1 case and the 1→K broadcast case), or
//! * [`DepKind::Shuffle`] — every child partition reads *all* parent
//!   partitions, in partition-index order.
//!
//! The scheduler launches a partition the moment its inputs exist, so
//! independent branches (e.g. the splitter's per-timestamp snapshot
//! scans) overlap instead of barriering, on one worker-pool session
//! for the whole graph.
//!
//! # Lineage and recovery
//!
//! Produced partitions are cached as [`Arc`]s, one slot per task, and
//! released by one policy: when the last consumer task of a partition
//! completes and its stage is not [kept](DagSpec::keep), the slot is
//! emptied (**natural release**). There is no capacity budget and no
//! eviction, so a partition some unfinished task still reads is always
//! cached.
//!
//! Every stage records *how* its partitions are computed (its compute
//! closure plus its declared dependencies — the partition's
//! **lineage**), which is what makes a lost attempt cheap: a worker
//! panic loses exactly one in-flight partition, and only that partition
//! is rescheduled, against inputs that are still cached because the
//! lost attempt released nothing. After [`FaultPlan::max_attempts`]
//! consecutive losses the run aborts: [`JobError::TaskExhausted`] when
//! the last loss was an injected fault, [`JobError::WorkerPanicked`]
//! when it was a real panic.
//!
//! Determinism: a partition's value is a pure function of its lineage,
//! so a retry (and any schedule interleaving) reproduces the same
//! bytes — the property the `ev-matching` DAG pipeline leans on for its
//! thread-count-invariant `MatchReport`.
//!
//! # Example
//!
//! ```
//! use ev_dag::dag::{DagConfig, DagSpec, StageDep};
//! use ev_telemetry::{Telemetry, TraceCtx};
//!
//! let mut dag: DagSpec<'_, u64> = DagSpec::new();
//! let nums = dag.stage("nums", 4, Vec::new(), |ctx, _inputs| ctx.partition as u64);
//! let sum = dag.stage("sum", 1, vec![StageDep::shuffle(nums)], |_ctx, inputs| {
//!     inputs.iter().map(|p| **p).sum()
//! });
//! let run = dag
//!     .run(&DagConfig::new(2), Telemetry::disabled(), TraceCtx::default())
//!     .unwrap();
//! assert_eq!(*run.outputs[&sum][0], 6);
//! ```

use crate::{pool, FaultPlan, JobError};
use ev_telemetry::{names, MetricsRegistry, Telemetry, TraceCtx};
use serde::Value;
use std::collections::BTreeMap;
use std::sync::{Arc, Once};
use std::time::Instant;

/// Payload prefix of every [`FaultPlan`]-injected panic; the panic hook
/// and the exhaustion typing both key on it.
const INJECTED_FAULT: &str = "injected fault";

/// Silence the default panic-hook backtrace for *injected* fault
/// panics only. Every `FaultPlan` fault is a real `panic!` whose
/// `String` payload starts with [`INJECTED_FAULT`]; the pool's per-task
/// isolation always catches it, so the default hook's stderr backtrace
/// is pure noise (a high failure rate can print thousands). The
/// wrapper is installed once per process — it forwards every other
/// panic to the previously installed hook unchanged.
fn quiet_injected_fault_panics() {
    static QUIET_HOOK: Once = Once::new();
    QUIET_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.starts_with(INJECTED_FAULT));
            if !injected {
                prev(info);
            }
        }));
    });
}

/// Identifier of a stage within one [`DagSpec`], returned by
/// [`DagSpec::stage`]. Stages are numbered in insertion order and may
/// only depend on lower-numbered stages, so every spec is acyclic by
/// construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StageId(pub usize);

/// How a stage reads a parent stage's partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepKind {
    /// Child partition `p` reads parent partition `p % parent.partitions`.
    Narrow,
    /// Every child partition reads all parent partitions, in index order.
    Shuffle,
}

/// One dependency edge of a stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageDep {
    /// The producing stage.
    pub parent: StageId,
    /// Narrow or shuffle.
    pub kind: DepKind,
}

impl StageDep {
    /// A narrow edge on `parent`.
    #[must_use]
    pub fn narrow(parent: StageId) -> Self {
        StageDep {
            parent,
            kind: DepKind::Narrow,
        }
    }

    /// A shuffle edge on `parent`.
    #[must_use]
    pub fn shuffle(parent: StageId) -> Self {
        StageDep {
            parent,
            kind: DepKind::Shuffle,
        }
    }
}

/// Identity of the task computing one partition, passed to the stage's
/// compute closure. `attempt` distinguishes post-panic retries from
/// first runs (tests use it to panic exactly once).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskCtx {
    /// The stage's id.
    pub stage_id: StageId,
    /// Partition index within the stage.
    pub partition: usize,
    /// 0 for the first execution, +1 per retry after a lost attempt.
    pub(crate) attempt: u32,
}

type Compute<'a, P> = Box<dyn Fn(TaskCtx, &[Arc<P>]) -> P + Sync + 'a>;

struct Stage<'a, P> {
    name: &'static str,
    partitions: usize,
    deps: Vec<StageDep>,
    compute: Compute<'a, P>,
    keep: bool,
}

/// Scheduler configuration: thread count and the fault-injection plan
/// (which carries the retry budget).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DagConfig {
    /// Worker threads for the run's one pool session (min 1). A run
    /// never starts more workers than its graph has tasks: the rest
    /// could never be handed anything.
    pub threads: usize,
    /// Fault injection and retry budget: `task_failure_rate` draws
    /// become real in-worker panics (killing the attempt mid-stage),
    /// and a partition whose task is lost `max_attempts` times in a row
    /// — to injected faults or real panics — aborts the run.
    pub faults: FaultPlan,
}

impl DagConfig {
    /// A healthy configuration with `threads` workers and the default
    /// [`FaultPlan`] (no faults, 4 attempts).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        DagConfig {
            threads,
            faults: FaultPlan::default(),
        }
    }
}

/// Counters describing one DAG run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DagMetrics {
    /// Stages in the spec.
    pub stages: usize,
    /// Task attempts submitted to the executor (first runs + retries).
    pub tasks_submitted: u64,
    /// Attempts that panicked and were retried.
    pub retries: u64,
    /// High-water mark of live cached partitions.
    pub(crate) cache_peak: u64,
}

impl DagMetrics {
    /// Records the run's counters as `evm_dag_*` metrics.
    pub(crate) fn record_to(&self, registry: &MetricsRegistry) {
        registry
            .counter(names::DAG_TASKS_TOTAL)
            .add(self.tasks_submitted);
        registry.counter(names::DAG_TASK_RETRIES).add(self.retries);
        registry.gauge(names::DAG_STAGES).set(self.stages as f64);
        registry
            .gauge(names::DAG_CACHE_PEAK_PARTITIONS)
            .set(self.cache_peak as f64);
    }
}

/// Exports one pool session's shape to the canonical `evm_exec_*`
/// metrics: the worker count as a gauge and the per-worker executed
/// task counts as observations of the `evm_exec_worker_tasks` histogram
/// (its spread shows how evenly the shared queue fed the workers).
fn record_exec_stats(registry: &MetricsRegistry, per_worker_executed: &[u64]) {
    registry
        .gauge(names::EXEC_WORKERS)
        .set(per_worker_executed.len() as f64);
    let histogram = registry.histogram(names::EXEC_WORKER_TASKS);
    for &count in per_worker_executed {
        histogram.record(count);
    }
}

/// A finished DAG run: kept stages' partitions plus scheduler counters.
#[derive(Debug)]
pub struct DagRun<P> {
    /// Partitions (in index order) of every [kept](DagSpec::keep) or
    /// terminal stage.
    pub outputs: BTreeMap<StageId, Vec<Arc<P>>>,
    /// Scheduler counters.
    pub metrics: DagMetrics,
}

/// A declared stage graph over partition payloads of type `P`.
///
/// Build with [`stage`](DagSpec::stage), execute with
/// [`run`](DagSpec::run). The lifetime lets compute closures borrow
/// stores and configs from the caller's stack: the pool's workers are
/// scoped to the run.
pub struct DagSpec<'a, P> {
    stages: Vec<Stage<'a, P>>,
}

impl<P> Default for DagSpec<'_, P> {
    fn default() -> Self {
        DagSpec { stages: Vec::new() }
    }
}

/// Key of one partition: `(stage index, partition index)`.
type Part = (usize, usize);

/// The static task graph of a spec: one task per partition, numbered in
/// `(stage, partition)` order. [`DagSpec::run`] schedules over it.
struct TaskGraph {
    /// Task index → `(stage, partition)`.
    parts: Vec<Part>,
    /// Stage index → task index of its partition 0.
    offsets: Vec<usize>,
    /// Per task, the distinct tasks whose partitions it reads.
    inputs: Vec<Vec<usize>>,
    /// Per task, the tasks that read its partition, in task order.
    consumers: Vec<Vec<usize>>,
}

impl TaskGraph {
    fn index(&self, (stage, partition): Part) -> usize {
        self.offsets[stage] + partition
    }

    /// The scheduler's starting state: per task, how many distinct
    /// inputs it waits for (it is ready at zero).
    fn inputs_left(&self) -> Vec<usize> {
        self.inputs.iter().map(Vec::len).collect()
    }
}

impl<'a, P: Send + Sync> DagSpec<'a, P> {
    /// An empty spec.
    #[must_use]
    pub fn new() -> Self {
        DagSpec { stages: Vec::new() }
    }

    /// Declares a stage of `partitions` tasks computed by `compute`,
    /// reading `deps` (validated by [`run`](DagSpec::run): every parent
    /// must be an earlier stage and `partitions` non-zero). Returns the
    /// stage's id for later edges.
    pub fn stage(
        &mut self,
        name: &'static str,
        partitions: usize,
        deps: Vec<StageDep>,
        compute: impl Fn(TaskCtx, &[Arc<P>]) -> P + Sync + 'a,
    ) -> StageId {
        self.stages.push(Stage {
            name,
            partitions,
            deps,
            compute: Box::new(compute),
            keep: false,
        });
        StageId(self.stages.len() - 1)
    }

    /// Marks a stage's partitions as run outputs: they are returned
    /// from [`run`](DagSpec::run) and never released. Terminal stages
    /// (no consumers) are kept implicitly.
    pub fn keep(&mut self, id: StageId) {
        self.stages[id.0].keep = true;
    }

    fn validate(&self) -> Result<(), JobError> {
        for (i, stage) in self.stages.iter().enumerate() {
            if stage.partitions == 0 {
                return Err(JobError::InvalidConfig(ev_core::Error::InvalidParameter {
                    name: "partitions",
                    reason: format!(
                        "stage {:?} ({}) has zero partitions",
                        StageId(i),
                        stage.name
                    ),
                }));
            }
            for dep in &stage.deps {
                if dep.parent.0 >= i {
                    return Err(JobError::InvalidConfig(ev_core::Error::InvalidParameter {
                        name: "deps",
                        reason: format!(
                            "stage {:?} ({}) depends on {:?}, which is not an earlier stage",
                            StageId(i),
                            stage.name,
                            dep.parent
                        ),
                    }));
                }
            }
        }
        Ok(())
    }

    /// The input partitions of task `(stage, partition)`, in the
    /// deterministic declared-dependency order the compute closure sees.
    fn inputs_of(&self, stage: usize, partition: usize) -> Vec<Part> {
        let mut inputs = Vec::new();
        for dep in &self.stages[stage].deps {
            let parent = &self.stages[dep.parent.0];
            match dep.kind {
                DepKind::Narrow => inputs.push((dep.parent.0, partition % parent.partitions)),
                DepKind::Shuffle => {
                    inputs.extend((0..parent.partitions).map(|q| (dep.parent.0, q)))
                }
            }
        }
        inputs
    }

    /// Builds the static task graph.
    fn task_graph(&self) -> TaskGraph {
        let mut graph = TaskGraph {
            parts: Vec::new(),
            offsets: Vec::with_capacity(self.stages.len()),
            inputs: Vec::new(),
            consumers: Vec::new(),
        };
        for (s, stage) in self.stages.iter().enumerate() {
            graph.offsets.push(graph.parts.len());
            graph.parts.extend((0..stage.partitions).map(|p| (s, p)));
        }
        graph.consumers.resize(graph.parts.len(), Vec::new());
        for (task, &(s, p)) in graph.parts.iter().enumerate() {
            let mut distinct: Vec<usize> = self
                .inputs_of(s, p)
                .into_iter()
                .map(|input| graph.index(input))
                .collect();
            distinct.sort_unstable();
            distinct.dedup();
            for &input in &distinct {
                graph.consumers[input].push(task);
            }
            graph.inputs.push(distinct);
        }
        graph
    }

    /// Executes the graph on `config.threads` workers and returns the
    /// kept stages' partitions. `parent_ctx` roots the run's trace
    /// tree; each stage gets a child span so the flight recorder and
    /// `/tracez` attribute tasks to stage nodes.
    ///
    /// # Errors
    ///
    /// [`JobError::InvalidConfig`] if the spec or fault plan is
    /// malformed, or the OS refuses one of the worker threads
    /// `config.threads` asks for (the ones already started are shut down
    /// first; nothing ran). When one partition's task is lost
    /// [`FaultPlan::max_attempts`] times in a row:
    /// [`JobError::TaskExhausted`] if the final loss was an injected
    /// fault, [`JobError::WorkerPanicked`] if it was a real panic.
    #[allow(clippy::too_many_lines)]
    pub fn run(
        &self,
        config: &DagConfig,
        telemetry: &Telemetry,
        parent_ctx: TraceCtx,
    ) -> Result<DagRun<P>, JobError> {
        self.validate()?;
        config.faults.validate().map_err(JobError::InvalidConfig)?;
        let dag_ctx = parent_ctx.child();
        let mut dag_span = telemetry.span_ctx("dag_run", "pipeline", dag_ctx);
        dag_span.arg("stages", Value::Int(self.stages.len() as i128));
        let flight = telemetry.flight();
        flight.instant("job_started", dag_ctx, Vec::new());

        let stage_ctxs: Vec<TraceCtx> = self.stages.iter().map(|_| dag_ctx.child()).collect();
        if flight.enabled() {
            for (stage, &ctx) in self.stages.iter().zip(&stage_ctxs) {
                flight.instant(
                    "stage_started",
                    ctx,
                    vec![
                        ("stage".to_string(), Value::Str(stage.name.to_string())),
                        ("tasks".to_string(), Value::Int(stage.partitions as i128)),
                    ],
                );
            }
        }

        let graph = self.task_graph();
        // Stages whose outputs the run returns: explicitly kept ones
        // plus terminal ones (an edge always reads partition 0).
        let terminal = |s: usize| graph.consumers[graph.index((s, 0))].is_empty();
        let kept: Vec<bool> = (self.stages.iter().enumerate())
            .map(|(s, stage)| stage.keep || terminal(s))
            .collect();
        let tel = telemetry;
        let faults = &config.faults;
        if faults.task_failure_rate > 0.0 {
            quiet_injected_fault_panics();
        }

        // Worker side: unwrap the payload, optionally lose the attempt
        // to an injected panic, and run the partition's compute under a
        // per-attempt span.
        let work = |payload: Payload<P>| -> P {
            let Payload {
                stage,
                partition,
                attempt,
                inputs,
                ctx,
            } = payload;
            let name = self.stages[stage].name;
            let flight_on = tel.flight().enabled();
            let start = (flight_on || tel.counters_on()).then(Instant::now);
            let _latency = start
                .filter(|_| tel.counters_on())
                .map(|start| LatencyTimer { tel, start });
            let mut span = tel.span_ctx(format!("{name}[{partition}]"), "task", ctx);
            span.arg("stage", Value::Str(name.to_string()));
            span.arg("partition", Value::Int(partition as i128));
            span.arg("attempt", Value::Int(i128::from(attempt)));
            if faults.attempt_fails(stage, partition, attempt) {
                // A real panic, not a flagged failure: the attempt dies
                // mid-stage and the pool's per-task isolation catches it.
                panic!("{INJECTED_FAULT}: {name}[{partition}] attempt {attempt}");
            }
            let value = (self.stages[stage].compute)(
                TaskCtx {
                    stage_id: StageId(stage),
                    partition,
                    attempt,
                },
                &inputs,
            );
            // Completed attempts go to the flight recorder too, so a
            // post-mortem dump shows the healthy work around a crash.
            if let Some(start) = start.filter(|_| flight_on) {
                tel.flight().span(
                    format!("{name}[{partition}]#{attempt}"),
                    ctx,
                    start,
                    vec![
                        ("stage".to_string(), Value::Str(name.to_string())),
                        ("partition".to_string(), Value::Int(partition as i128)),
                        ("outcome".to_string(), Value::Str("done".to_string())),
                    ],
                );
            }
            value
        };

        // More workers than tasks could never all be handed something.
        let workers = config.threads.clamp(1, graph.parts.len().max(1));
        let session = pool::session(workers, work, |handle| {
            Driver {
                spec: self,
                graph: &graph,
                config,
                tel,
                kept: &kept,
                stage_ctxs: &stage_ctxs,
                deps_left: graph.inputs_left(),
                consumers_left: graph.consumers.iter().map(Vec::len).collect(),
                cache: graph.parts.iter().map(|_| None).collect(),
                live: 0,
                failures: vec![0; graph.parts.len()],
                metrics: DagMetrics {
                    stages: self.stages.len(),
                    ..DagMetrics::default()
                },
            }
            .run(handle)
        });
        let (driver_out, per_worker_executed) = session.map_err(|refused| {
            JobError::InvalidConfig(ev_core::Error::InvalidParameter {
                name: "threads",
                reason: format!("the OS refused one of {workers} worker threads: {refused}"),
            })
        })?;
        if telemetry.counters_on() {
            record_exec_stats(telemetry.registry(), &per_worker_executed);
        }
        let run = driver_out?;
        if telemetry.counters_on() {
            run.metrics.record_to(telemetry.registry());
        }
        dag_span.arg(
            "tasks_submitted",
            Value::Int(i128::from(run.metrics.tasks_submitted)),
        );
        Ok(run)
    }
}

/// What travels to a worker: the task's identity, its input partitions
/// and the per-attempt trace context.
struct Payload<P> {
    stage: usize,
    partition: usize,
    attempt: u32,
    inputs: Vec<Arc<P>>,
    ctx: TraceCtx,
}

/// Feeds one attempt's wall time to the exact-latency reservoir behind
/// the `evm_exec_task_latency_p*` gauges when dropped, so an attempt
/// that unwinds is timed like one that returns.
struct LatencyTimer<'t> {
    tel: &'t Telemetry,
    start: Instant,
}

impl Drop for LatencyTimer<'_> {
    fn drop(&mut self) {
        let ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.tel.task_latency().record(ns);
    }
}

/// Driver-side scheduler state for one run: a list scheduler over the
/// static [`TaskGraph`].
struct Driver<'d, 'a, P> {
    spec: &'d DagSpec<'a, P>,
    graph: &'d TaskGraph,
    config: &'d DagConfig,
    tel: &'d Telemetry,
    kept: &'d [bool],
    stage_ctxs: &'d [TraceCtx],
    /// Distinct inputs each task still waits for; it launches at zero.
    deps_left: Vec<usize>,
    /// Unfinished consumer tasks per partition; at zero a partition of
    /// a stage that is not kept is released.
    consumers_left: Vec<usize>,
    /// Produced and not yet released partitions, by task index.
    cache: Vec<Option<Arc<P>>>,
    /// Occupied `cache` slots.
    live: u64,
    /// Lost attempts per task, which is also its next attempt number.
    failures: Vec<u32>,
    metrics: DagMetrics,
}

impl<P: Send + Sync> Driver<'_, '_, P> {
    fn run(mut self, handle: &pool::Session<'_, Payload<P>, P>) -> Result<DagRun<P>, JobError> {
        let graph = self.graph;
        for task in 0..graph.parts.len() {
            if self.deps_left[task] == 0 {
                self.launch(task, handle);
            }
        }

        let mut remaining = graph.parts.len();
        while remaining > 0 {
            let Some((task, result)) = handle.recv() else {
                unreachable!("tasks remain but the session is drained");
            };
            match result {
                Err(message) => {
                    let max_attempts = self.config.faults.max_attempts;
                    self.failures[task] += 1;
                    let failures = self.failures[task];
                    self.metrics.retries += u64::from(failures < max_attempts);
                    let (s, p) = graph.parts[task];
                    let stage = self.spec.stages[s].name;
                    let injected = message.starts_with(INJECTED_FAULT);
                    let mut args = vec![
                        ("stage".to_string(), Value::Str(stage.to_string())),
                        ("task".to_string(), Value::Int(p as i128)),
                        ("failures".to_string(), Value::Int(i128::from(failures))),
                    ];
                    let event = if injected {
                        "task_failed"
                    } else {
                        args.push(("message".to_string(), Value::Str(message.clone())));
                        "task_panicked"
                    };
                    self.tel.event_ctx(event, self.stage_ctxs[s], args.clone());
                    self.tel
                        .flight()
                        .instant(event, self.stage_ctxs[s], args.clone());
                    if failures >= max_attempts {
                        self.tel.flight().instant(
                            "retry_budget_exhausted",
                            self.stage_ctxs[s],
                            args,
                        );
                        return Err(if injected {
                            self.tel.dump_flight("task_exhausted");
                            JobError::TaskExhausted {
                                stage,
                                task: p,
                                attempts: failures,
                            }
                        } else {
                            self.tel.dump_flight("worker_panicked");
                            JobError::WorkerPanicked { stage, message }
                        });
                    }
                    // Lineage recovery: only the lost partition is
                    // rescheduled. The lost attempt released nothing,
                    // so its inputs are still cached.
                    self.launch(task, handle);
                }
                Ok(value) => {
                    remaining -= 1;
                    self.cache[task] = Some(Arc::new(value));
                    self.live += 1;
                    self.metrics.cache_peak = self.metrics.cache_peak.max(self.live);
                    // A finished consumer releases the inputs it was
                    // the last reader of.
                    for &input in &graph.inputs[task] {
                        self.consumers_left[input] -= 1;
                        if self.consumers_left[input] == 0 && !self.kept[graph.parts[input].0] {
                            self.cache[input] = None;
                            self.live -= 1;
                        }
                    }
                    for &consumer in &graph.consumers[task] {
                        self.deps_left[consumer] -= 1;
                        if self.deps_left[consumer] == 0 {
                            self.launch(consumer, handle);
                        }
                    }
                }
            }
        }

        let mut outputs = BTreeMap::new();
        for (s, stage) in self.spec.stages.iter().enumerate() {
            if self.kept[s] {
                let parts: Vec<Arc<P>> = (0..stage.partitions)
                    .map(|p| self.cached(graph.index((s, p)), "kept partition cached"))
                    .collect();
                outputs.insert(StageId(s), parts);
            }
        }
        Ok(DagRun {
            outputs,
            metrics: self.metrics,
        })
    }

    fn cached(&self, task: usize, invariant: &str) -> Arc<P> {
        Arc::clone(self.cache[task].as_ref().expect(invariant))
    }

    /// Submits the next attempt of `task`. A first launch follows the
    /// completion of its last producer and a relaunch follows a lost
    /// attempt, which released nothing — either way every input is
    /// cached.
    fn launch(&mut self, task: usize, handle: &pool::Session<'_, Payload<P>, P>) {
        let (stage, partition) = self.graph.parts[task];
        let inputs: Vec<Arc<P>> = self
            .spec
            .inputs_of(stage, partition)
            .into_iter()
            .map(|input| self.cached(self.graph.index(input), "input present"))
            .collect();
        self.metrics.tasks_submitted += 1;
        handle.submit(
            task,
            Payload {
                stage,
                partition,
                attempt: self.failures[task],
                inputs,
                ctx: self.stage_ctxs[stage].child(),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_dag<P: Send + Sync>(dag: &DagSpec<'_, P>, config: &DagConfig) -> DagRun<P> {
        dag.run(config, Telemetry::disabled(), TraceCtx::default())
            .unwrap()
    }

    /// Diamond: a → (b, c) → d.
    fn diamond() -> (DagSpec<'static, u64>, StageId) {
        let mut dag: DagSpec<'static, u64> = DagSpec::new();
        let a = dag.stage("a", 2, Vec::new(), |ctx, _| ctx.partition as u64 + 1);
        let b = dag.stage("b", 2, vec![StageDep::narrow(a)], |_, i| *i[0] * 10);
        let c = dag.stage("c", 2, vec![StageDep::narrow(a)], |_, i| *i[0] * 100);
        let d = dag.stage(
            "d",
            1,
            vec![StageDep::shuffle(b), StageDep::shuffle(c)],
            |_, i| i.iter().map(|p| **p).sum(),
        );
        (dag, d)
    }

    #[test]
    fn diamond_computes_through_both_branches() {
        let (dag, d) = diamond();
        for threads in [1, 2, 4] {
            let run = run_dag(&dag, &DagConfig::new(threads));
            assert_eq!(*run.outputs[&d][0], 10 + 20 + 100 + 200);
            assert_eq!(run.metrics.stages, 4);
            assert_eq!(run.metrics.tasks_submitted, 7, "threads={threads}");
            assert_eq!(run.metrics.retries, 0);
            // Natural release: both `a` partitions are gone before `d`
            // lands, in every completion order.
            assert_eq!(run.metrics.cache_peak, 5, "threads={threads}");
        }
    }

    #[test]
    fn panic_retries_only_the_lost_partition() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let runs: Vec<AtomicU64> = (0..8).map(|_| AtomicU64::new(0)).collect();
        let mut dag: DagSpec<'_, u64> = DagSpec::new();
        let runs_ref = &runs;
        let a = dag.stage("a", 4, Vec::new(), move |ctx, _| {
            runs_ref[ctx.partition].fetch_add(1, Ordering::Relaxed);
            ctx.partition as u64
        });
        let b = dag.stage("b", 1, vec![StageDep::shuffle(a)], move |ctx, i| {
            runs_ref[4].fetch_add(1, Ordering::Relaxed);
            if ctx.partition == 0 && ctx.attempt == 0 {
                panic!("killed mid-shuffle");
            }
            i.iter().map(|p| **p).sum()
        });
        let run = dag
            .run(
                &DagConfig::new(2),
                Telemetry::disabled(),
                TraceCtx::default(),
            )
            .unwrap();
        assert_eq!(*run.outputs[&b][0], 6);
        assert_eq!(run.metrics.retries, 1);
        for (p, ran) in runs.iter().enumerate().take(4) {
            assert_eq!(ran.load(Ordering::Relaxed), 1, "partition a[{p}] ran once");
        }
        assert_eq!(
            runs[4].load(Ordering::Relaxed),
            2,
            "only the lost task reran"
        );
    }

    #[test]
    fn exhausted_retries_keep_worker_panicked_semantics() {
        let mut dag: DagSpec<'_, u64> = DagSpec::new();
        dag.stage("always_dies", 1, Vec::new(), |_, _| {
            panic!("unrecoverable");
        });
        let err = dag
            .run(
                &DagConfig {
                    faults: FaultPlan {
                        max_attempts: 2,
                        ..FaultPlan::default()
                    },
                    ..DagConfig::new(1)
                },
                Telemetry::disabled(),
                TraceCtx::default(),
            )
            .unwrap_err();
        match err {
            JobError::WorkerPanicked { stage, message } => {
                assert_eq!(stage, "always_dies");
                assert!(message.contains("unrecoverable"));
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }

    #[test]
    fn injected_faults_panic_and_recover() {
        use ev_telemetry::TelemetryLevel;
        let (dag, d) = diamond();
        let clean = run_dag(&dag, &DagConfig::new(2));
        let flaky = |threads| DagConfig {
            faults: FaultPlan {
                task_failure_rate: 0.4,
                max_attempts: 16,
                seed: 11,
            },
            ..DagConfig::new(threads)
        };
        let tel = Telemetry::new(TelemetryLevel::Full);
        let faulted = dag.run(&flaky(2), &tel, TraceCtx::root()).unwrap();
        assert_eq!(*faulted.outputs[&d][0], *clean.outputs[&d][0]);
        let retries = faulted.metrics.retries;
        assert!(retries > 0, "rate 0.4 over 7 tasks must hit");
        assert_eq!(
            faulted.metrics.tasks_submitted,
            7 + retries,
            "unaffected partitions never reran"
        );
        // The fault draw is pure in (seed, stage, task, attempt), so
        // the same attempts are lost whatever the schedule.
        assert_eq!(run_dag(&dag, &flaky(4)).metrics.retries, retries);
        // Each lost attempt is one `task_failed` event, and the
        // registry mirrors the run's counter.
        assert_eq!(
            tel.registry().counter_value(names::DAG_TASK_RETRIES),
            Some(retries)
        );
        let events = tel.tracer().events();
        let failed = events.iter().filter(|e| e.name == "task_failed").count();
        assert_eq!(failed as u64, retries);
        assert!(events.iter().any(|e| e.cat == "task" && e.ph == 'X'));
    }

    #[test]
    fn forward_and_zero_partition_specs_are_rejected() {
        let mut dag: DagSpec<'_, u64> = DagSpec::new();
        dag.stage("empty", 0, Vec::new(), |_, _| 0);
        assert!(matches!(
            dag.run(
                &DagConfig::new(1),
                Telemetry::disabled(),
                TraceCtx::default()
            ),
            Err(JobError::InvalidConfig(_))
        ));

        let mut dag: DagSpec<'_, u64> = DagSpec::new();
        dag.stage("self_loop", 1, vec![StageDep::narrow(StageId(0))], |_, _| 0);
        assert!(matches!(
            dag.run(
                &DagConfig::new(1),
                Telemetry::disabled(),
                TraceCtx::default()
            ),
            Err(JobError::InvalidConfig(_))
        ));
    }

    #[test]
    fn a_run_starts_at_most_one_worker_per_task() {
        use ev_telemetry::TelemetryLevel;
        let (dag, d) = diamond();
        let tel = Telemetry::new(TelemetryLevel::Counters);
        // 200 000 threads is more than an OS will start; the diamond
        // has 7 tasks, and an 8th worker could never be handed one.
        let run = dag
            .run(&DagConfig::new(200_000), &tel, TraceCtx::default())
            .unwrap();
        assert_eq!(*run.outputs[&d][0], 10 + 20 + 100 + 200);
        assert_eq!(tel.registry().gauge_value(names::EXEC_WORKERS), Some(7.0));
    }

    #[test]
    fn a_refused_worker_thread_is_an_invalid_config() {
        let (dag, _) = diamond();
        pool::REFUSE_SPAWN_AT.set(Some(1));
        let refused = dag.run(
            &DagConfig::new(4),
            Telemetry::disabled(),
            TraceCtx::default(),
        );
        pool::REFUSE_SPAWN_AT.set(None);
        match refused {
            Err(JobError::InvalidConfig(ev_core::Error::InvalidParameter { name, reason })) => {
                assert_eq!(name, "threads");
                assert!(
                    reason.contains("refused one of 4 worker threads"),
                    "{reason}"
                );
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        // Nothing is left behind: the same spec runs on the same thread.
        run_dag(&dag, &DagConfig::new(4));
    }

    #[test]
    fn outputs_are_thread_count_invariant() {
        let mut dag: DagSpec<'_, Vec<u64>> = DagSpec::new();
        let src = dag.stage("src", 8, Vec::new(), |ctx, _| {
            (0..10u64).map(|i| i * ctx.partition as u64).collect()
        });
        let mid = dag.stage("mid", 4, vec![StageDep::narrow(src)], |_, i| {
            i[0].iter().map(|x| x + 1).collect()
        });
        let sink = dag.stage(
            "sink",
            1,
            vec![StageDep::shuffle(mid), StageDep::shuffle(src)],
            |_, i| {
                let mut all: Vec<u64> = i.iter().flat_map(|p| p.iter().copied()).collect();
                all.sort_unstable();
                all
            },
        );
        let reference = run_dag(&dag, &DagConfig::new(1)).outputs[&sink][0].clone();
        for threads in [2, 4, 8] {
            let run = run_dag(&dag, &DagConfig::new(threads));
            assert_eq!(*run.outputs[&sink][0], *reference, "threads={threads}");
        }
    }
}
