//! Property tests for `par_map`: for random partition counts, thread
//! counts and fault plans, the outputs are the sequential map's in
//! partition order, every counted retry was run, and neither the
//! outputs nor the retry count depend on the thread count.

use ev_dag::{par_map, DagConfig, FaultPlan, JobError};
use ev_telemetry::{names, Telemetry, TelemetryLevel, TraceCtx};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

/// What one map did: its result, `evm_dag_tasks_total`,
/// `evm_dag_task_retries_total` and how often `f` ran per partition.
struct Run {
    result: Result<Vec<usize>, JobError>,
    tasks: u64,
    retries: u64,
    runs: Vec<u32>,
}

fn run(parts: usize, threads: usize, faults: FaultPlan) -> Run {
    let tel = Telemetry::new(TelemetryLevel::Counters);
    let runs: Vec<AtomicU32> = (0..parts).map(|_| AtomicU32::new(0)).collect();
    let config = DagConfig {
        faults,
        ..DagConfig::new(threads)
    };
    let result = par_map("prop", parts, &config, &tel, TraceCtx::root(), |p| {
        runs[p].fetch_add(1, Ordering::Relaxed);
        // Earlier partitions take longer, so on two or more workers the
        // completion order is not the partition order.
        std::thread::sleep(Duration::from_micros(30 * (parts - p) as u64));
        p * p + 1
    });
    let counter = |name| tel.registry().counter_value(name).unwrap_or(0);
    Run {
        result,
        tasks: counter(names::DAG_TASKS_TOTAL),
        retries: counter(names::DAG_TASK_RETRIES),
        runs: runs.into_iter().map(AtomicU32::into_inner).collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A successful map returns `(0..parts).map(f)`, counts
    /// `parts + retries` attempts and the same retries at every thread
    /// count; a map stopped by an exhaustion runs nothing past the doomed
    /// partition on one worker.
    #[test]
    fn outputs_do_not_depend_on_the_thread_count(
        parts in 0usize..12,
        threads in 1usize..5,
        flaky in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let faults = FaultPlan {
            task_failure_rate: if flaky { 0.2 } else { 0.0 },
            max_attempts: 2,
            seed,
        };
        let wide = run(parts, threads, faults);
        let narrow = run(parts, 1, faults);
        match (&wide.result, &narrow.result) {
            (Ok(outputs), Ok(reference)) => {
                let expected: Vec<usize> = (0..parts).map(|p| p * p + 1).collect();
                prop_assert_eq!(outputs, &expected);
                prop_assert_eq!(reference, &expected);
                prop_assert_eq!(wide.tasks, parts as u64 + wide.retries);
                prop_assert_eq!(wide.retries, narrow.retries);
                prop_assert!(flaky || wide.retries == 0, "a clean run retried");
            }
            (Err(_), Err(JobError::TaskExhausted { task, attempts, .. })) => {
                prop_assert_eq!(*attempts, 2);
                // One worker claims in index order and the exhaustion
                // stops it: partitions after `task` never ran.
                prop_assert!(narrow.runs[task + 1..].iter().all(|&r| r == 0));
            }
            _ => prop_assert!(false, "exhaustion depends on the thread count"),
        }
    }
}

/// One retry budget: a partition that always fails runs exactly
/// `faults.max_attempts` times before the map aborts — `WorkerPanicked`
/// for a real panic, `TaskExhausted` when the final loss was an
/// injected fault.
#[test]
fn an_always_failing_partition_aborts_after_exactly_max_attempts() {
    let config = |task_failure_rate| DagConfig {
        faults: FaultPlan {
            task_failure_rate,
            max_attempts: 2,
            seed: 1,
        },
        ..DagConfig::new(2)
    };
    let executions = AtomicU32::new(0);
    let tel = Telemetry::disabled();
    let err = par_map("doomed", 1, &config(0.0), tel, TraceCtx::root(), |_| {
        executions.fetch_add(1, Ordering::Relaxed);
        panic!("partition bug");
    })
    .unwrap_err();
    assert!(
        matches!(&err, JobError::WorkerPanicked { stage: "doomed", message } if message.contains("partition bug")),
        "got {err:?}"
    );
    assert_eq!(executions.load(Ordering::Relaxed), 2);

    let err = par_map("flaky", 1, &config(0.999_999), tel, TraceCtx::root(), |_| 0).unwrap_err();
    assert_eq!(
        err,
        JobError::TaskExhausted {
            stage: "flaky",
            task: 0,
            attempts: 2
        }
    );
}
