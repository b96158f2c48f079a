//! [`par_map`]: a parallel map over numbered partitions, with per-partition
//! retry, on scoped worker threads. It runs both parallel jobs — each
//! wave of Algorithm 3's walk (`ev_matching::dagflow`, 4 pinned
//! partitions) and the EDP baseline's `efilter` and `videntify`
//! maps (`ev_matching::edp`, a partition per EID):
//!
//! * **Claims.** Workers are scoped threads that claim partition indices
//!   in index order from one shared atomic cursor. The calling thread is
//!   worker 0, so `threads` workers spawn `threads − 1` threads, and a
//!   map never starts more workers than it has partitions.
//! * **Start gate.** Spawned workers wait at a gate the caller opens
//!   after the last spawn succeeded. When the OS refuses a thread, the
//!   started ones are told to stop before the gate opens, so nothing
//!   runs, and the call returns [`JobError::InvalidConfig`]. Every
//!   started thread is joined before `par_map` returns.
//! * **Retry in place.** Each attempt runs under
//!   [`std::panic::catch_unwind`]. A lost attempt — an injected
//!   [`FaultPlan`] fault or a real panic — is retried by the worker that
//!   lost it, up to [`FaultPlan::max_attempts`] attempts. The first
//!   partition to exhaust its budget sets a stop flag that ends further
//!   claims, and the map returns [`JobError::TaskExhausted`] when the
//!   last loss was an injected fault, [`JobError::WorkerPanicked`] when
//!   it was a real panic.
//!
//! Determinism: outputs come back in partition order, and the fault draw
//! is pure in (seed, partition, attempt), so neither the outputs nor the
//! retry count depend on the thread count or the schedule.
//!
//! # Example
//!
//! ```
//! use ev_dag::dag::{par_map, DagConfig};
//! use ev_telemetry::{Telemetry, TraceCtx};
//!
//! let (tel, ctx) = (Telemetry::disabled(), TraceCtx::default());
//! let squares = par_map("square", 4, &DagConfig::new(2), tel, ctx, |p| p * p);
//! assert_eq!(squares.unwrap(), [0, 1, 4, 9]);
//! ```

use crate::{FaultPlan, JobError};
use ev_telemetry::{names, Telemetry, TraceCtx};
use serde::Value;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::time::Instant;

/// Payload prefix of every [`FaultPlan`]-injected panic; the panic hook
/// and the exhaustion typing both key on it.
const INJECTED_FAULT: &str = "injected fault";

/// Silence the default panic-hook backtrace for *injected* fault
/// panics only. Every `FaultPlan` fault is a real `panic!` whose
/// `String` payload starts with [`INJECTED_FAULT`]; the per-attempt
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

/// Map configuration: thread count and the fault-injection plan (which
/// carries the retry budget).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DagConfig {
    /// Workers, the calling thread included (min 1). A map never starts
    /// more workers than it has partitions: the rest could never claim
    /// one.
    pub threads: usize,
    /// Fault injection and retry budget: `task_failure_rate` draws
    /// become real in-worker panics (killing the attempt mid-task),
    /// and a partition whose task is lost `max_attempts` times in a row
    /// — to injected faults or real panics — aborts the map.
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

/// Runs `f` over partitions `0..parts` on `config.threads` workers and
/// returns the outputs in partition order (`parts == 0` gives an empty
/// `Vec`). The run is a `dag_run` span under `parent_ctx`, with one
/// stage context named `name` and a `name[p]` span per attempt; it
/// counts into `evm_dag_tasks_total`, `evm_dag_task_retries_total`,
/// `evm_exec_workers`, `evm_exec_worker_tasks` and the task-latency
/// reservoir.
///
/// # Errors
///
/// [`JobError::InvalidConfig`] if the fault plan is malformed, or the
/// OS refuses one of the worker threads `config.threads` asks for
/// (nothing ran). When one partition's task is lost
/// [`FaultPlan::max_attempts`] times in a row:
/// [`JobError::TaskExhausted`] if the final loss was an injected fault,
/// [`JobError::WorkerPanicked`] if it was a real panic.
pub fn par_map<T: Send>(
    name: &'static str,
    parts: usize,
    config: &DagConfig,
    telemetry: &Telemetry,
    parent_ctx: TraceCtx,
    f: impl Fn(usize) -> T + Sync,
) -> Result<Vec<T>, JobError> {
    config.faults.validate().map_err(JobError::InvalidConfig)?;
    let dag_ctx = parent_ctx.child();
    let mut dag_span = telemetry.span_ctx("dag_run", "pipeline", dag_ctx);
    let flight = telemetry.flight();
    flight.instant("job_started", dag_ctx, Vec::new());
    let stage_ctx = dag_ctx.child();
    flight.instant(
        "stage_started",
        stage_ctx,
        vec![
            ("stage".to_string(), Value::Str(name.to_string())),
            ("tasks".to_string(), Value::Int(parts as i128)),
        ],
    );
    if config.faults.task_failure_rate > 0.0 {
        quiet_injected_fault_panics();
    }

    let job = Job {
        name,
        parts,
        faults: &config.faults,
        tel: telemetry,
        ctx: stage_ctx,
        f: &f,
        cursor: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
        failure: OnceLock::new(),
    };
    let workers = config.threads.clamp(1, parts.max(1));
    let gate = Mutex::new(());
    let finished = std::thread::scope(|scope| {
        let open = gate.lock().expect("a fresh gate");
        let mut spawned = Vec::with_capacity(workers - 1);
        for w in 1..workers {
            let (job, gate) = (&job, &gate);
            #[cfg(test)]
            if REFUSE_SPAWN_AT.get() == Some(w) {
                job.stop.store(true, Ordering::Relaxed);
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            // `Builder`, not `scope.spawn`: a refused thread is an error
            // to return, not a panic.
            let spawn = std::thread::Builder::new()
                .name(format!("ev-dag-worker-{w}"))
                .spawn_scoped(scope, move || {
                    drop(gate.lock());
                    job.work()
                });
            match spawn {
                Ok(handle) => spawned.push(handle),
                Err(refused) => {
                    // Returning drops `open`: the started workers pass the
                    // gate, see the flag and claim nothing.
                    job.stop.store(true, Ordering::Relaxed);
                    return Err(refused);
                }
            }
        }
        drop(open);
        let mut finished = vec![job.work()];
        for handle in spawned {
            finished.push(handle.join().unwrap_or_else(|panic| resume_unwind(panic)));
        }
        Ok(finished)
    });
    let finished = finished.map_err(|refused| {
        JobError::InvalidConfig(ev_core::Error::InvalidParameter {
            name: "threads",
            reason: format!("the OS refused one of {workers} worker threads: {refused}"),
        })
    })?;
    // Read after every worker joined, so the counts are exact.
    let attempts: u64 = finished.iter().map(|done| done.attempts).sum();
    if telemetry.counters_on() {
        let registry = telemetry.registry();
        registry.gauge(names::EXEC_WORKERS).set(workers as f64);
        let histogram = registry.histogram(names::EXEC_WORKER_TASKS);
        for done in &finished {
            histogram.record(done.attempts);
        }
        if job.failure.get().is_none() {
            registry.counter(names::DAG_TASKS_TOTAL).add(attempts);
            let retries = finished.iter().map(|done| done.retries).sum();
            registry.counter(names::DAG_TASK_RETRIES).add(retries);
        }
    }
    if let Some(error) = job.failure.into_inner() {
        return Err(error);
    }
    dag_span.arg("tasks_submitted", Value::Int(i128::from(attempts)));
    let mut outputs: Vec<(usize, T)> = finished.into_iter().flat_map(|d| d.outputs).collect();
    outputs.sort_unstable_by_key(|&(partition, _)| partition);
    assert_eq!(outputs.len(), parts, "every partition completed once");
    Ok(outputs.into_iter().map(|(_, value)| value).collect())
}

/// What the workers of one [`par_map`] share.
struct Job<'a, F> {
    name: &'static str,
    parts: usize,
    faults: &'a FaultPlan,
    tel: &'a Telemetry,
    /// The stage context: failures are attributed to it, and each
    /// attempt's span is a child of it.
    ctx: TraceCtx,
    f: &'a F,
    /// The next partition to claim. Like `stop`, it publishes no other
    /// data (outputs travel through the joins, the error through its
    /// `OnceLock`), so `Relaxed` suffices.
    cursor: AtomicUsize,
    /// Set by the first exhaustion (or a refused spawn): no more claims.
    stop: AtomicBool,
    /// The first exhaustion's error.
    failure: OnceLock<JobError>,
}

/// One worker's share of a map.
struct Done<T> {
    /// `(partition, output)` of every partition it completed.
    outputs: Vec<(usize, T)>,
    /// Attempts it ran, lost ones included.
    attempts: u64,
    /// Lost attempts it ran again.
    retries: u64,
}

impl<T, F: Fn(usize) -> T + Sync> Job<'_, F> {
    /// Claims partitions until none is left or the map stops; a
    /// partition that exhausts its budget stops it, so its own worker
    /// ends at the flag like every other.
    fn work(&self) -> Done<T> {
        let mut done = Done {
            outputs: Vec::new(),
            attempts: 0,
            retries: 0,
        };
        while !self.stop.load(Ordering::Relaxed) {
            let partition = self.cursor.fetch_add(1, Ordering::Relaxed);
            if partition >= self.parts {
                break;
            }
            for attempt in 0.. {
                done.attempts += 1;
                match self.attempt(partition, attempt) {
                    Ok(value) => {
                        done.outputs.push((partition, value));
                        break;
                    }
                    Err(message) => {
                        if !self.lost(partition, attempt + 1, message) {
                            break;
                        }
                        done.retries += 1;
                    }
                }
            }
        }
        done
    }

    /// One attempt at `partition`, under its span and latency timer;
    /// `Err` carries a lost attempt's panic message.
    fn attempt(&self, partition: usize, attempt: u32) -> Result<T, String> {
        let (name, tel) = (self.name, self.tel);
        let flight_on = tel.flight().enabled();
        let start = (flight_on || tel.counters_on()).then(Instant::now);
        let _latency = start
            .filter(|_| tel.counters_on())
            .map(|start| LatencyTimer { tel, start });
        let ctx = self.ctx.child();
        let mut span = tel.span_ctx(format!("{name}[{partition}]"), "task", ctx);
        span.arg("stage", Value::Str(name.to_string()));
        span.arg("partition", Value::Int(partition as i128));
        span.arg("attempt", Value::Int(i128::from(attempt)));
        let value = catch_unwind(AssertUnwindSafe(|| {
            if self.faults.attempt_fails(partition, attempt) {
                // A real panic, not a flagged failure: the attempt dies
                // mid-task.
                panic!("{INJECTED_FAULT}: {name}[{partition}] attempt {attempt}");
            }
            (self.f)(partition)
        }))
        .map_err(|panic| panic_message(&*panic))?;
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
        Ok(value)
    }

    /// Records `partition`'s `failures`-th lost attempt and says whether
    /// it gets another. The first exhaustion stops the map, dumps the
    /// flight recorder and becomes the map's error.
    fn lost(&self, partition: usize, failures: u32, message: String) -> bool {
        let injected = message.starts_with(INJECTED_FAULT);
        let mut args = vec![
            ("stage".to_string(), Value::Str(self.name.to_string())),
            ("task".to_string(), Value::Int(partition as i128)),
            ("failures".to_string(), Value::Int(i128::from(failures))),
        ];
        let event = if injected {
            "task_failed"
        } else {
            args.push(("message".to_string(), Value::Str(message.clone())));
            "task_panicked"
        };
        self.tel.event_ctx(event, self.ctx, args.clone());
        let flight = self.tel.flight();
        flight.instant(event, self.ctx, args.clone());
        if failures < self.faults.max_attempts {
            return true;
        }
        flight.instant("retry_budget_exhausted", self.ctx, args);
        self.stop.store(true, Ordering::Relaxed);
        let (stage, task) = (self.name, partition);
        let (reason, error) = if injected {
            let attempts = failures;
            let error = JobError::TaskExhausted {
                stage,
                task,
                attempts,
            };
            ("task_exhausted", error)
        } else {
            let error = JobError::WorkerPanicked { stage, message };
            ("worker_panicked", error)
        };
        if self.failure.set(error).is_ok() {
            self.tel.dump_flight(reason);
        }
        false
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
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

#[cfg(test)]
thread_local! {
    /// Fault seam for the tests: the OS cannot be made to refuse a
    /// thread on demand, so a test sets the worker index (1 and up; the
    /// caller is worker 0) at which [`par_map`], called on the test's
    /// own thread, sees `WouldBlock`.
    pub(crate) static REFUSE_SPAWN_AT: std::cell::Cell<Option<usize>> =
        const { std::cell::Cell::new(None) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_telemetry::TelemetryLevel;
    use std::sync::atomic::AtomicU64;

    /// `par_map` named "m" over 7 partitions.
    fn map<T: Send>(
        config: &DagConfig,
        tel: &Telemetry,
        f: impl Fn(usize) -> T + Sync,
    ) -> Result<Vec<T>, JobError> {
        par_map("m", 7, config, tel, TraceCtx::root(), f)
    }

    fn retrying(max_attempts: u32, task_failure_rate: f64, threads: usize) -> DagConfig {
        let faults = FaultPlan {
            task_failure_rate,
            max_attempts,
            seed: 11,
        };
        DagConfig {
            faults,
            ..DagConfig::new(threads)
        }
    }

    #[test]
    fn panic_retries_only_the_lost_partition() {
        let runs: Vec<AtomicU64> = (0..7).map(|_| AtomicU64::new(0)).collect();
        let out = map(&DagConfig::new(2), Telemetry::disabled(), |p| {
            let run = runs[p].fetch_add(1, Ordering::Relaxed);
            assert!(p != 2 || run > 0, "killed on its first attempt");
            p
        });
        assert_eq!(out.unwrap(), (0..7).collect::<Vec<_>>());
        let runs: Vec<u64> = runs.into_iter().map(AtomicU64::into_inner).collect();
        assert_eq!(runs, [1, 1, 2, 1, 1, 1, 1], "only the lost partition reran");
    }

    #[test]
    fn exhausted_retries_keep_worker_panicked_semantics() {
        let tel = Telemetry::disabled();
        let err = map(&retrying(2, 0.0, 1), tel, |_| -> usize {
            panic!("unrecoverable")
        });
        match err {
            Err(JobError::WorkerPanicked { stage, message }) => {
                assert_eq!(stage, "m");
                assert!(message.contains("unrecoverable"));
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }

    #[test]
    fn injected_faults_panic_and_recover() {
        let tel = Telemetry::new(TelemetryLevel::Full);
        let out = map(&retrying(16, 0.4, 2), &tel, |p| p * 10).unwrap();
        assert_eq!(out, (0..7).map(|p| p * 10).collect::<Vec<_>>());
        let counter = |tel: &Telemetry, name| tel.registry().counter_value(name);
        let retries = counter(&tel, names::DAG_TASK_RETRIES).unwrap();
        assert!(retries > 0, "rate 0.4 over 7 tasks must hit");
        let tasks = counter(&tel, names::DAG_TASKS_TOTAL);
        assert_eq!(
            tasks,
            Some(7 + retries),
            "unaffected partitions never reran"
        );
        // The fault draw is pure in (seed, partition, attempt), so the
        // same attempts are lost whatever the schedule.
        let wide = Telemetry::new(TelemetryLevel::Counters);
        map(&retrying(16, 0.4, 4), &wide, |p| p).unwrap();
        assert_eq!(counter(&wide, names::DAG_TASK_RETRIES), Some(retries));
        // Each lost attempt is one `task_failed` event.
        let events = tel.tracer().events();
        let failed = events.iter().filter(|e| e.name == "task_failed").count();
        assert_eq!(failed as u64, retries);
        assert!(events.iter().any(|e| e.cat == "task" && e.ph == 'X'));
    }

    #[test]
    fn a_run_starts_at_most_one_worker_per_task() {
        let tel = Telemetry::new(TelemetryLevel::Counters);
        // 200 000 threads is more than an OS will start; the map has 7
        // partitions, and an 8th worker could never claim one.
        let out = map(&DagConfig::new(200_000), &tel, |p| p);
        assert_eq!(out.unwrap(), (0..7).collect::<Vec<_>>());
        assert_eq!(tel.registry().gauge_value(names::EXEC_WORKERS), Some(7.0));
    }

    #[test]
    fn a_refused_worker_thread_is_an_invalid_config() {
        REFUSE_SPAWN_AT.set(Some(1));
        let refused = map(&DagConfig::new(4), Telemetry::disabled(), |p| p);
        REFUSE_SPAWN_AT.set(None);
        match refused {
            Err(JobError::InvalidConfig(ev_core::Error::InvalidParameter { name, reason })) => {
                assert_eq!(name, "threads");
                let expected = "refused one of 4 worker threads";
                assert!(reason.contains(expected), "{reason}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        // Nothing is left behind: the same map runs on the same thread.
        map(&DagConfig::new(4), Telemetry::disabled(), |p| p).unwrap();
    }

    #[test]
    fn outputs_are_thread_count_invariant() {
        let f = |p: usize| (0..10u64).map(|i| i * p as u64).collect::<Vec<_>>();
        let tel = Telemetry::disabled();
        let reference = map(&DagConfig::new(1), tel, f).unwrap();
        for threads in [2, 4, 8] {
            let out = map(&DagConfig::new(threads), tel, f).unwrap();
            assert_eq!(out, reference, "threads={threads}");
        }
    }
}
