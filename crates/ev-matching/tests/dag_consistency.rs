//! The DAG pipeline's contract: its [`MatchReport`] is byte-identical
//! (timings aside) to the MapReduce path at every thread count, and
//! stays byte-identical under injected worker loss and
//! cache pressure — with only the lost partitions recomputed, never the
//! whole job (ISSUE 10's fault-recovery acceptance test).

use ev_core::feature::FeatureVector;
use ev_core::ids::{Eid, Vid};
use ev_core::region::CellId;
use ev_core::scenario::{Detection, EScenario, VScenario, ZoneAttr};
use ev_core::time::Timestamp;
use ev_mapreduce::{ClusterConfig, DagConfig, FaultPlan, MapReduce};
use ev_matching::dagflow::dag_match;
use ev_matching::parallel::{parallel_match, ParallelSplitConfig};
use ev_matching::vfilter::VFilterConfig;
use ev_matching::MatchReport;
use ev_store::{EScenarioStore, VideoStore};
use ev_telemetry::{names, Telemetry, TelemetryLevel};
use ev_vision::cost::CostModel;
use std::collections::BTreeSet;

const PEOPLE: u64 = 12;
const TIMES: u64 = 5;

/// 12 people distributed over 5 timestamps × 2 cells by the bits of
/// their id, so set splitting needs several effective rounds. Fresh
/// stores per run: the video store's extraction cache is stateful and
/// must not leak between compared runs.
fn world() -> (EScenarioStore, VideoStore) {
    let mut es = Vec::new();
    let mut vs = Vec::new();
    for t in 0..TIMES {
        for c in 0..2u64 {
            let mut e = EScenario::new(CellId::new(c as usize), Timestamp::new(t));
            let mut v = VScenario::new(CellId::new(c as usize), Timestamp::new(t));
            for p in (0..PEOPLE).filter(|p| (p >> t) & 1 == c) {
                e.insert(Eid::from_u64(p), ZoneAttr::Inclusive);
                let mut f = vec![0.05; PEOPLE as usize];
                f[p as usize] = 0.95;
                v.push(Detection {
                    vid: Vid::new(p),
                    feature: FeatureVector::new(f).unwrap(),
                });
            }
            if !e.is_empty() {
                es.push(e);
                vs.push(v);
            }
        }
    }
    (
        EScenarioStore::from_scenarios(es),
        VideoStore::new(vs, CostModel::free()),
    )
}

fn targets() -> BTreeSet<Eid> {
    (0..PEOPLE).map(Eid::from_u64).collect()
}

fn split_config() -> ParallelSplitConfig {
    ParallelSplitConfig {
        seed: 7,
        max_iterations: None,
    }
}

fn run_dag(config: &DagConfig, telemetry: &Telemetry) -> MatchReport {
    let (store, video) = world();
    dag_match(
        config,
        &store,
        &video,
        &targets(),
        &split_config(),
        &VFilterConfig::default(),
        telemetry,
    )
    .expect("dag pipeline")
}

fn assert_reports_equal(a: &MatchReport, b: &MatchReport, what: &str) {
    assert_eq!(a.outcomes, b.outcomes, "{what}: outcomes");
    assert_eq!(a.lists, b.lists, "{what}: lists");
    assert_eq!(
        a.selected_scenarios, b.selected_scenarios,
        "{what}: selected scenarios"
    );
    assert_eq!(a.rounds, b.rounds, "{what}: rounds");
}

#[test]
fn dag_report_is_byte_identical_across_thread_counts() {
    let reference = run_dag(&DagConfig::new(1), Telemetry::disabled());
    assert!(
        reference.outcomes.iter().all(|o| o.vid.is_some()),
        "the fixture is separable; everyone must be matched"
    );
    for threads in [2, 4] {
        let report = run_dag(&DagConfig::new(threads), Telemetry::disabled());
        assert_reports_equal(&report, &reference, &format!("threads={threads}"));
    }
}

#[test]
fn dag_report_matches_the_mapreduce_path() {
    let dag = run_dag(&DagConfig::new(2), Telemetry::disabled());

    // The engine reference runs at the pinned job geometry the
    // real-thread path is compared at (split_size=8, reduce_partitions=4).
    let (store, video) = world();
    let engine = MapReduce::new(ClusterConfig {
        workers: 2,
        split_size: 8,
        reduce_partitions: 4,
        ..ClusterConfig::default()
    });
    let mapreduce = parallel_match(
        &engine,
        &store,
        &video,
        &targets(),
        &split_config(),
        &VFilterConfig::default(),
    )
    .expect("mapreduce pipeline");
    assert_reports_equal(&dag, &mapreduce, "vs mapreduce");
}

/// Injected worker panics lose partitions mid-run; lineage must retry
/// exactly the lost partitions (tasks = clean + retries + recomputes)
/// and the final report must not change.
#[test]
fn worker_loss_recomputes_only_lost_partitions() {
    let clean_tel = Telemetry::new(TelemetryLevel::Counters);
    let reference = run_dag(&DagConfig::new(2), &clean_tel);
    let clean_tasks = clean_tel.registry().counter(names::DAG_TASKS_TOTAL).get();
    assert!(clean_tasks > 0, "the run is observable");
    assert_eq!(
        clean_tel.registry().counter(names::DAG_TASK_RETRIES).get(),
        0,
        "no retries without faults"
    );

    let faulty_tel = Telemetry::new(TelemetryLevel::Counters);
    let faulty = run_dag(
        &DagConfig {
            faults: FaultPlan {
                task_failure_rate: 0.25,
                max_attempts: 24,
                seed: 9,
            },
            ..DagConfig::new(2)
        },
        &faulty_tel,
    );
    assert_reports_equal(&faulty, &reference, "after injected worker loss");

    let registry = faulty_tel.registry();
    let tasks = registry.counter(names::DAG_TASKS_TOTAL).get();
    let retries = registry.counter(names::DAG_TASK_RETRIES).get();
    let recomputed = registry.counter(names::DAG_RECOMPUTED_PARTITIONS).get();
    assert!(retries > 0, "a 25% failure rate must lose partitions");
    assert_eq!(
        tasks,
        clean_tasks + retries + recomputed,
        "only lost partitions reran — untouched partitions were not resubmitted"
    );
}

/// Cache pressure evicts partitions that later turn out to be needed;
/// the scheduler must recompute them from lineage without changing the
/// report.
#[test]
fn cache_pressure_recomputes_from_lineage_without_changing_the_report() {
    let reference = run_dag(&DagConfig::new(2), Telemetry::disabled());
    let tel = Telemetry::new(TelemetryLevel::Counters);
    let squeezed = run_dag(
        &DagConfig {
            cache_capacity: Some(2),
            ..DagConfig::new(2)
        },
        &tel,
    );
    assert_reports_equal(&squeezed, &reference, "under cache pressure");
    assert!(
        tel.registry().counter(names::DAG_CACHE_EVICTIONS).get() > 0,
        "capacity 2 must force evictions"
    );
}
