//! [`par_map`]: a parallel map over numbered partitions on scoped worker
//! threads. It runs both parallel jobs — each wave of Algorithm 3's
//! walk (`ev_matching::dagflow`, 4 pinned partitions) and the EDP
//! baseline's `efilter` and `videntify` maps (`ev_matching::edp`, a
//! partition per EID):
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
//! * **Stop.** Each partition runs once, under
//!   [`std::panic::catch_unwind`]. Every mapped closure is a pure
//!   function of its partition, so a panic would only repeat: the first
//!   one sets a stop flag that ends further claims, dumps the flight
//!   recorder, and the map returns [`JobError::WorkerPanicked`].
//!
//! Determinism: outputs come back in partition order, so they do not
//! depend on the thread count or the schedule.
//!
//! # Example
//!
//! ```
//! use ev_dag::par_map;
//! use ev_telemetry::{Telemetry, TraceCtx};
//!
//! let (tel, ctx) = (Telemetry::disabled(), TraceCtx::default());
//! let squares = par_map("square", 4, 2, tel, ctx, |p| p * p);
//! assert_eq!(squares.unwrap(), [0, 1, 4, 9]);
//! ```

use crate::JobError;
use ev_telemetry::{names, Telemetry, TraceCtx};
use serde::Value;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Runs `f` over partitions `0..parts` on `threads` workers, the calling
/// thread included (min 1, and never more than `parts`: the rest could
/// never claim one), and returns the outputs in partition order
/// (`parts == 0` gives an empty `Vec`). The run is a `dag_run` span
/// under `parent_ctx`, with one stage context named `name` and a
/// `name[p]` span per partition; it counts into `evm_dag_tasks_total`,
/// `evm_exec_workers`, `evm_exec_worker_tasks` and the task-latency
/// reservoir.
///
/// # Errors
///
/// [`JobError::InvalidConfig`] if the OS refuses one of the worker
/// threads (nothing ran); [`JobError::WorkerPanicked`] if a partition
/// panicked.
pub fn par_map<T: Send>(
    name: &'static str,
    parts: usize,
    threads: usize,
    telemetry: &Telemetry,
    parent_ctx: TraceCtx,
    f: impl Fn(usize) -> T + Sync,
) -> Result<Vec<T>, JobError> {
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

    let job = Job {
        name,
        parts,
        tel: telemetry,
        ctx: stage_ctx,
        f: &f,
        cursor: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
        failure: OnceLock::new(),
    };
    let workers = threads.clamp(1, parts.max(1));
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
    let tasks: u64 = finished.iter().map(|done| done.tasks).sum();
    if telemetry.counters_on() {
        let registry = telemetry.registry();
        registry.gauge(names::EXEC_WORKERS).set(workers as f64);
        let histogram = registry.histogram(names::EXEC_WORKER_TASKS);
        for done in &finished {
            histogram.record(done.tasks);
        }
        if job.failure.get().is_none() {
            registry.counter(names::DAG_TASKS_TOTAL).add(tasks);
        }
    }
    if let Some(error) = job.failure.into_inner() {
        return Err(error);
    }
    dag_span.arg("tasks_submitted", Value::Int(i128::from(tasks)));
    let mut outputs: Vec<(usize, T)> = finished.into_iter().flat_map(|d| d.outputs).collect();
    outputs.sort_unstable_by_key(|&(partition, _)| partition);
    assert_eq!(outputs.len(), parts, "every partition completed once");
    Ok(outputs.into_iter().map(|(_, value)| value).collect())
}

/// What the workers of one [`par_map`] share.
struct Job<'a, F> {
    name: &'static str,
    parts: usize,
    tel: &'a Telemetry,
    /// The stage context: a panic is attributed to it, and each task's
    /// span is a child of it.
    ctx: TraceCtx,
    f: &'a F,
    /// The next partition to claim. Like `stop`, it publishes no other
    /// data (outputs travel through the joins, the error through its
    /// `OnceLock`), so `Relaxed` suffices.
    cursor: AtomicUsize,
    /// Set by the first panic (or a refused spawn): no more claims.
    stop: AtomicBool,
    /// The first panic's error.
    failure: OnceLock<JobError>,
}

/// One worker's share of a map.
struct Done<T> {
    /// `(partition, output)` of every partition it completed.
    outputs: Vec<(usize, T)>,
    /// Partitions it ran, a panicked one included.
    tasks: u64,
}

impl<T, F: Fn(usize) -> T + Sync> Job<'_, F> {
    /// Claims partitions until none is left or the map stops; a
    /// partition that panics stops it, so its own worker ends at the
    /// flag like every other.
    fn work(&self) -> Done<T> {
        let mut done = Done {
            outputs: Vec::new(),
            tasks: 0,
        };
        while !self.stop.load(Ordering::Relaxed) {
            let partition = self.cursor.fetch_add(1, Ordering::Relaxed);
            if partition >= self.parts {
                break;
            }
            done.tasks += 1;
            match self.run(partition) {
                Ok(value) => done.outputs.push((partition, value)),
                Err(message) => self.panicked(partition, message),
            }
        }
        done
    }

    /// Runs `partition` under its span and latency timer; `Err` carries
    /// a panic's message.
    fn run(&self, partition: usize) -> Result<T, String> {
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
        let value = catch_unwind(AssertUnwindSafe(|| (self.f)(partition)))
            .map_err(|panic| panic_message(&*panic))?;
        // Completed tasks go to the flight recorder too, so a
        // post-mortem dump shows the healthy work around a crash.
        if let Some(start) = start.filter(|_| flight_on) {
            tel.flight().span(
                format!("{name}[{partition}]"),
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

    /// Records `partition`'s panic and stops the map. The first panic
    /// dumps the flight recorder and becomes the map's error.
    fn panicked(&self, partition: usize, message: String) {
        let args = vec![
            ("stage".to_string(), Value::Str(self.name.to_string())),
            ("task".to_string(), Value::Int(partition as i128)),
            ("message".to_string(), Value::Str(message.clone())),
        ];
        self.tel.event_ctx("task_panicked", self.ctx, args.clone());
        self.tel.flight().instant("task_panicked", self.ctx, args);
        self.stop.store(true, Ordering::Relaxed);
        let error = JobError::WorkerPanicked {
            stage: self.name,
            message,
        };
        if self.failure.set(error).is_ok() {
            self.tel.dump_flight("worker_panicked");
        }
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

/// Feeds one task's wall time to the exact-latency reservoir behind the
/// `evm_exec_task_latency_p*` gauges when dropped, so a task that
/// unwinds is timed like one that returns.
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

    /// `par_map` named "m" over 7 partitions.
    fn map<T: Send>(
        threads: usize,
        tel: &Telemetry,
        f: impl Fn(usize) -> T + Sync,
    ) -> Result<Vec<T>, JobError> {
        par_map("m", 7, threads, tel, TraceCtx::root(), f)
    }

    #[test]
    fn a_run_starts_at_most_one_worker_per_task() {
        let tel = Telemetry::new(TelemetryLevel::Counters);
        // 200 000 threads is more than an OS will start; the map has 7
        // partitions, and an 8th worker could never claim one.
        let out = map(200_000, &tel, |p| p);
        assert_eq!(out.unwrap(), (0..7).collect::<Vec<_>>());
        assert_eq!(tel.registry().gauge_value(names::EXEC_WORKERS), Some(7.0));
    }

    #[test]
    fn a_refused_worker_thread_is_an_invalid_config() {
        REFUSE_SPAWN_AT.set(Some(1));
        let refused = map(4, Telemetry::disabled(), |p| p);
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
        map(4, Telemetry::disabled(), |p| p).unwrap();
    }

    #[test]
    fn outputs_are_thread_count_invariant() {
        let f = |p: usize| (0..10u64).map(|i| i * p as u64).collect::<Vec<_>>();
        let tel = Telemetry::disabled();
        let reference = map(1, tel, f).unwrap();
        for threads in [2, 4, 8] {
            let out = map(threads, tel, f).unwrap();
            assert_eq!(out, reference, "threads={threads}");
        }
    }
}
