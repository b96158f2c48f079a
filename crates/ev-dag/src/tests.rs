//! Tests of [`par_map`]'s workers: claims, panic isolation and the
//! per-worker counts.

use crate::dag::REFUSE_SPAWN_AT;
use crate::{par_map, JobError};
use ev_telemetry::{names, Telemetry, TelemetryLevel, TraceCtx};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Maps `f` over `0..parts` on `threads` workers; returns the outputs
/// and the `evm_exec_worker_tasks` histogram's (workers, tasks).
fn run_all<T: Send>(
    threads: usize,
    parts: usize,
    f: impl Fn(usize) -> T + Sync,
) -> (Vec<T>, (u64, u64)) {
    let tel = Telemetry::new(TelemetryLevel::Counters);
    let out = par_map("m", parts, threads, &tel, TraceCtx::default(), f).unwrap();
    (out, per_worker(&tel))
}

fn per_worker(tel: &Telemetry) -> (u64, u64) {
    let histogram = tel.registry().histogram(names::EXEC_WORKER_TASKS);
    (histogram.count(), histogram.sum())
}

#[test]
fn completions_are_keyed_by_task_id() {
    let (out, per_worker) = run_all(4, 200, |x| x * 3);
    assert_eq!(out, (0..200).map(|x| x * 3).collect::<Vec<_>>());
    assert_eq!(per_worker, (4, 200));
}

#[test]
fn one_worker_runs_tasks_in_submission_order() {
    let order = Mutex::new(Vec::new());
    let (_, per_worker) = run_all(1, 100, |x| order.lock().unwrap().push(x));
    assert_eq!(
        order.into_inner().unwrap(),
        (0..100).collect::<Vec<_>>(),
        "one worker claims partitions in index order"
    );
    assert_eq!(per_worker, (1, 100));
}

#[test]
fn zero_threads_clamps_to_one() {
    let (out, per_worker) = run_all(0, 1, |x| x + 6);
    assert_eq!(out, [6]);
    assert_eq!(per_worker, (1, 1));
}

/// An empty map returns at once, on the calling thread alone.
#[test]
fn empty_session_recv_returns_none() {
    let (out, per_worker) = run_all(2, 0, |x| x);
    assert!(out.is_empty());
    assert_eq!(per_worker, (1, 0));
}

/// A panic is caught on its worker and becomes the map's error: the
/// caller does not unwind, every started worker joins and reports its
/// count, the panicked partition ran once and no partition ran twice.
#[test]
fn panics_are_isolated_per_task() {
    let runs: Vec<AtomicU64> = (0..30).map(|_| AtomicU64::new(0)).collect();
    let tel = Telemetry::new(TelemetryLevel::Counters);
    let out = par_map("m", 30, 3, &tel, TraceCtx::default(), |x| {
        runs[x].fetch_add(1, Ordering::Relaxed);
        assert!(x != 10, "injected panic on {x}");
        x
    });
    match out {
        Err(JobError::WorkerPanicked { stage, message }) => {
            assert_eq!(stage, "m");
            assert!(message.contains("injected panic on 10"), "{message}");
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    let runs: Vec<u64> = runs.into_iter().map(AtomicU64::into_inner).collect();
    assert_eq!(runs[10], 1, "the panicked partition ran once");
    assert!(runs.iter().all(|&r| r <= 1), "a partition reran: {runs:?}");
    let ran = runs.iter().sum::<u64>();
    assert_eq!(
        per_worker(&tel),
        (3, ran),
        "every worker joined and counted"
    );
    assert_eq!(tel.registry().counter_value(names::DAG_TASKS_TOTAL), None);
}

/// The first panic stops the claims: with one worker, nothing after
/// the panicking partition runs.
#[test]
fn driver_can_stop_early_and_drop_queued_tasks() {
    let ran = AtomicU64::new(0);
    let tel = Telemetry::new(TelemetryLevel::Counters);
    let err = par_map("m", 64, 1, &tel, TraceCtx::default(), |x| {
        ran.fetch_add(1, Ordering::Relaxed);
        assert!(x != 5, "doomed");
    });
    assert!(matches!(err, Err(JobError::WorkerPanicked { .. })));
    assert_eq!(ran.into_inner(), 6, "partitions 6.. were never claimed");
    assert_eq!(per_worker(&tel), (1, 6));
}

#[test]
fn stats_are_an_exact_post_join_snapshot_under_stress() {
    // The per-worker counts must be exact on every run, not just on
    // average: they are summed after the workers join. Hammer many
    // short maps (every third stopped by a panic at a varying
    // partition) and demand exact accounting against the task spans
    // and the partitions that ran each time.
    for iteration in 0..200u64 {
        let threads = [1, 2, 3, 4][(iteration % 4) as usize];
        let parts = 1 + (iteration as usize * 7) % 40;
        let doomed = (iteration % 3 == 0).then_some(iteration as usize * 5 % parts);
        let ran = AtomicU64::new(0);
        let tel = Telemetry::new(TelemetryLevel::Full);
        let out = par_map("m", parts, threads, &tel, TraceCtx::default(), |x| {
            ran.fetch_add(1, Ordering::Relaxed);
            assert!(Some(x) != doomed, "doomed");
            x
        });
        let events = tel.tracer().events();
        let spans = events.iter().filter(|e| e.cat == "task" && e.ph == 'X');
        let ctx = format!("iteration {iteration}");
        let (workers, executed) = per_worker(&tel);
        assert_eq!(executed, spans.count() as u64, "{ctx}");
        assert_eq!(executed, ran.into_inner(), "{ctx}");
        assert_eq!(workers, threads.min(parts) as u64, "{ctx}");
        assert_eq!(out.is_ok(), doomed.is_none(), "{ctx}");
        if out.is_ok() {
            let tasks = tel.registry().counter_value(names::DAG_TASKS_TOTAL);
            assert_eq!(tasks, Some(parts as u64), "{ctx}");
            assert_eq!(executed, parts as u64, "{ctx}");
        }
    }
}

#[test]
fn stats_roll_up_per_worker_counts() {
    let (out, per_worker) = run_all(2, 50, |x| x);
    assert_eq!(per_worker, (2, out.len() as u64));
}

#[test]
fn a_refused_spawn_is_an_error_after_joining_the_started_workers() {
    let ran = AtomicU64::new(0);
    let tel = Telemetry::new(TelemetryLevel::Counters);
    REFUSE_SPAWN_AT.set(Some(2));
    let refused = par_map("m", 8, 4, &tel, TraceCtx::default(), |_| {
        ran.fetch_add(1, Ordering::Relaxed)
    });
    REFUSE_SPAWN_AT.set(None);
    // Returning at all is the join: the scope waits for worker 1, which
    // passed the gate after the refusal and claimed nothing.
    assert!(matches!(refused, Err(JobError::InvalidConfig(_))));
    assert_eq!(ran.into_inner(), 0, "a refused spawn runs nothing");
    assert_eq!(tel.registry().gauge_value(names::EXEC_WORKERS), None);
}
