//! Property tests for the stage-DAG scheduler: for random DAG shapes
//! and thread counts, the execution order must respect every declared
//! dependency, and the outputs must depend neither on the thread count
//! nor on injected task loss.

use ev_dag::{DagConfig, DagMetrics, DagSpec, DepKind, FaultPlan, JobError, StageDep, StageId};
use ev_telemetry::{Telemetry, TraceCtx};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

/// A random DAG shape: per stage, a partition count plus raw dependency
/// draws (resolved modulo the number of earlier stages), and a thread
/// count to run it on.
type Shape = Vec<(usize, Vec<(usize, bool)>)>;

fn arb_shape() -> impl Strategy<Value = (Shape, usize)> {
    (
        prop::collection::vec(
            (
                1usize..4,
                prop::collection::vec((0usize..64, any::<bool>()), 0..3),
            ),
            1..7,
        ),
        1usize..5,
    )
}

/// Resolved edges per stage: `(parent index, kind)`, one per parent.
fn resolve(shape: &Shape) -> Vec<(usize, Vec<(usize, DepKind)>)> {
    shape
        .iter()
        .enumerate()
        .map(|(i, (partitions, raw))| {
            let mut edges: Vec<(usize, DepKind)> = Vec::new();
            if i > 0 {
                for &(draw, shuffle) in raw {
                    let parent = draw % i;
                    if edges.iter().any(|(p, _)| *p == parent) {
                        continue; // one edge per parent
                    }
                    let kind = if shuffle {
                        DepKind::Shuffle
                    } else {
                        DepKind::Narrow
                    };
                    edges.push((parent, kind));
                }
            }
            (*partitions, edges)
        })
        .collect()
}

/// The input partitions task `(stage, partition)` reads, from the
/// declared edge semantics: narrow → `p % parent_partitions`, shuffle →
/// every parent partition.
fn required_inputs(
    stages: &[(usize, Vec<(usize, DepKind)>)],
    stage: usize,
    partition: usize,
) -> Vec<(usize, usize)> {
    let mut inputs = Vec::new();
    for &(parent, kind) in &stages[stage].1 {
        let parent_partitions = stages[parent].0;
        match kind {
            DepKind::Narrow => inputs.push((parent, partition % parent_partitions)),
            DepKind::Shuffle => inputs.extend((0..parent_partitions).map(|q| (parent, q))),
        }
    }
    inputs
}

/// Execution-order log `(stage, partition)` per started task.
type StartLog = Vec<(usize, usize)>;
/// Kept/terminal outputs per stage: `(stage, partition values)`.
type StageOutputs = Vec<(usize, Vec<u64>)>;

fn run_shape(
    stages: &[(usize, Vec<(usize, DepKind)>)],
    config: &DagConfig,
) -> (StartLog, StageOutputs, DagMetrics) {
    let log: Mutex<Vec<(usize, usize)>> = Mutex::new(Vec::new());
    let mut dag: DagSpec<'_, u64> = DagSpec::new();
    for (partitions, edges) in stages {
        let deps: Vec<StageDep> = edges
            .iter()
            .map(|&(parent, kind)| match kind {
                DepKind::Narrow => StageDep::narrow(StageId(parent)),
                DepKind::Shuffle => StageDep::shuffle(StageId(parent)),
            })
            .collect();
        let log_ref = &log;
        dag.stage("prop_stage", *partitions, deps, move |ctx, inputs| {
            log_ref
                .lock()
                .unwrap()
                .push((ctx.stage_id.0, ctx.partition));
            let carried: u64 = inputs.iter().map(|i| **i).sum();
            carried + (ctx.stage_id.0 as u64) * 31 + ctx.partition as u64 + 1
        });
    }
    let run = dag
        .run(config, Telemetry::disabled(), TraceCtx::root())
        .expect("the retry budget covers every injected loss");
    let outputs: Vec<(usize, Vec<u64>)> = run
        .outputs
        .iter()
        .map(|(id, parts)| (id.0, parts.iter().map(|p| **p).collect()))
        .collect();
    drop(dag);
    (log.into_inner().unwrap(), outputs, run.metrics)
}

proptest! {
    /// Every task starts only after every partition it reads has
    /// already started (and, since a task is launched only on its
    /// inputs' *completion*, finished).
    #[test]
    fn execution_order_respects_declared_dependencies(
        (shape, threads) in arb_shape(),
    ) {
        let stages = resolve(&shape);
        let (order, _, _) = run_shape(&stages, &DagConfig::new(threads));

        let total: usize = stages.iter().map(|(p, _)| *p).sum();
        prop_assert_eq!(order.len(), total, "each task runs exactly once");
        let position: BTreeMap<(usize, usize), usize> = order
            .iter()
            .enumerate()
            .map(|(at, &task)| (task, at))
            .collect();
        prop_assert_eq!(position.len(), total, "no task ran twice");

        for (stage, (partitions, _)) in stages.iter().enumerate() {
            for partition in 0..*partitions {
                let at = position[&(stage, partition)];
                for input in required_inputs(&stages, stage, partition) {
                    prop_assert!(
                        position[&input] < at,
                        "task {:?} ran at {} before its input {:?} at {}",
                        (stage, partition),
                        at,
                        input,
                        position[&input],
                    );
                }
            }
        }
    }

    /// Kept/terminal outputs are a pure function of the DAG — neither
    /// the thread count nor injected task loss changes them. A lost
    /// attempt costs exactly one resubmission, and every relaunch finds
    /// its inputs still cached (`launch` panics otherwise, which would
    /// fail the run).
    #[test]
    fn outputs_do_not_depend_on_the_thread_count(
        (shape, threads) in arb_shape(),
        flaky in any::<bool>(),
    ) {
        let stages = resolve(&shape);
        let (_, reference, _) = run_shape(&stages, &DagConfig::new(1));
        let config = DagConfig {
            faults: FaultPlan {
                task_failure_rate: if flaky { 0.2 } else { 0.0 },
                max_attempts: 40,
                seed: threads as u64,
            },
            ..DagConfig::new(threads)
        };
        let (_, outputs, metrics) = run_shape(&stages, &config);
        prop_assert_eq!(outputs, reference);
        let total: usize = stages.iter().map(|(p, _)| *p).sum();
        prop_assert_eq!(metrics.tasks_submitted, total as u64 + metrics.retries);
        prop_assert!(flaky || metrics.retries == 0, "a clean run retried");
    }
}

/// One retry budget: the scheduler honours `faults.max_attempts`, so a
/// partition that always fails runs exactly that many times before the
/// run aborts — `WorkerPanicked` for a real panic, `TaskExhausted` when
/// the final loss was an injected fault.
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
    let mut dag: DagSpec<'_, u64> = DagSpec::new();
    dag.stage("doomed", 1, Vec::new(), |_, _| {
        executions.fetch_add(1, Ordering::Relaxed);
        panic!("partition bug");
    });
    let err = dag
        .run(&config(0.0), Telemetry::disabled(), TraceCtx::root())
        .unwrap_err();
    assert!(
        matches!(&err, JobError::WorkerPanicked { stage: "doomed", message } if message.contains("partition bug")),
        "got {err:?}"
    );
    assert_eq!(executions.load(Ordering::Relaxed), 2);

    let mut dag: DagSpec<'_, u64> = DagSpec::new();
    dag.stage("flaky", 1, Vec::new(), |_, _| 0);
    let err = dag
        .run(&config(0.999_999), Telemetry::disabled(), TraceCtx::root())
        .unwrap_err();
    assert_eq!(
        err,
        JobError::TaskExhausted {
            stage: "flaky",
            task: 0,
            attempts: 2
        }
    );
}
