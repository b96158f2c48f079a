//! Property tests for `par_map`: for random partition counts and thread
//! counts, the outputs are the sequential map's in partition order, each
//! partition runs once, and a panicking partition ends the map.

use ev_dag::{par_map, JobError};
use ev_telemetry::{names, Telemetry, TelemetryLevel, TraceCtx};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

/// What one map did: its result, `evm_dag_tasks_total` and how often
/// `f` ran per partition.
struct Run {
    result: Result<Vec<usize>, JobError>,
    tasks: u64,
    runs: Vec<u32>,
}

fn run(parts: usize, threads: usize) -> Run {
    let tel = Telemetry::new(TelemetryLevel::Counters);
    let runs: Vec<AtomicU32> = (0..parts).map(|_| AtomicU32::new(0)).collect();
    let result = par_map("prop", parts, threads, &tel, TraceCtx::root(), |p| {
        runs[p].fetch_add(1, Ordering::Relaxed);
        // Earlier partitions take longer, so on two or more workers the
        // completion order is not the partition order.
        std::thread::sleep(Duration::from_micros(30 * (parts - p) as u64));
        p * p + 1
    });
    Run {
        result,
        tasks: tel
            .registry()
            .counter_value(names::DAG_TASKS_TOTAL)
            .unwrap_or(0),
        runs: runs.into_iter().map(AtomicU32::into_inner).collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A map returns `(0..parts).map(f)` at every thread count, runs
    /// each partition once and counts `parts` tasks.
    #[test]
    fn outputs_do_not_depend_on_the_thread_count(
        parts in 0usize..12,
        threads in 1usize..5,
    ) {
        let expected: Vec<usize> = (0..parts).map(|p| p * p + 1).collect();
        for run in [run(parts, threads), run(parts, 1)] {
            prop_assert_eq!(run.result.as_ref().ok(), Some(&expected));
            prop_assert_eq!(run.tasks, parts as u64);
            prop_assert!(run.runs.iter().all(|&r| r == 1), "{:?}", run.runs);
        }
    }
}

/// A partition that panics runs exactly once: the map returns
/// `WorkerPanicked` naming its stage and the panic's message.
#[test]
fn a_panicking_partition_runs_exactly_once() {
    let executions = AtomicU32::new(0);
    let tel = Telemetry::disabled();
    let err = par_map("doomed", 1, 2, tel, TraceCtx::root(), |_| {
        executions.fetch_add(1, Ordering::Relaxed);
        panic!("partition bug");
    })
    .unwrap_err();
    assert!(
        matches!(&err, JobError::WorkerPanicked { stage: "doomed", message } if message.contains("partition bug")),
        "got {err:?}"
    );
    assert_eq!(executions.load(Ordering::Relaxed), 1);
}
