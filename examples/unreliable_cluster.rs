//! Matching on an unreliable cluster: the scheduler reruns each lost
//! task attempt from its lineage (the same compute over inputs that are
//! still cached), and the matching results come out identical to a
//! healthy run (paper §V-A: "task failure recovery [is]
//! managed by a master machine").
//!
//! The flaky run carries a full-level [`Telemetry`] handle, so after it
//! finishes we can replay the scheduler's lost attempts as a timeline
//! of trace events.
//!
//! ```text
//! cargo run --release --example unreliable_cluster
//! ```

use ev_telemetry::{names, TraceEvent};
use evmatch::dag::{DagConfig, FaultPlan};
use evmatch::matching::dagflow::dag_match;
use evmatch::matching::vfilter::VFilterConfig;
use evmatch::prelude::*;
use serde_json::Value;

/// Renders one instant event's args as `stage=dag_score task=3 failures=1`.
fn fmt_args(event: &TraceEvent) -> String {
    event
        .args
        .iter()
        .map(|(k, v)| match v {
            Value::Str(s) => format!("{k}={s}"),
            Value::Int(i) => format!("{k}={i}"),
            other => format!("{k}={other:?}"),
        })
        .collect::<Vec<_>>()
        .join(" ")
}

fn main() {
    let dataset = EvDataset::generate(&DatasetConfig {
        population: 150,
        duration: 300,
        ..DatasetConfig::default()
    })
    .expect("valid config");
    let targets = sample_targets(&dataset, 40, 9);

    let healthy = DagConfig::new(4);
    let flaky = DagConfig {
        faults: FaultPlan {
            task_failure_rate: 0.25,
            max_attempts: 20,
            seed: 99,
        },
        ..healthy
    };

    let run = |name: &str, cluster: &DagConfig, telemetry: &Telemetry| {
        dataset.video.reset_usage();
        let report = dag_match(
            cluster,
            &dataset.estore,
            &dataset.video,
            &targets,
            0,
            &VFilterConfig::default(),
            telemetry,
        )
        .expect("retries must absorb the injected failures");
        let stats = score_report(&dataset, &report);
        println!(
            "{name:>8}: accuracy {:.1}%, {} scenarios, E {:?} V {:?}",
            stats.percent(),
            report.selected_count(),
            report.timings.e_stage,
            report.timings.v_stage,
        );
        report
    };

    println!("matching {} EIDs on a 4-worker cluster...\n", targets.len());
    let clean = run("healthy", &healthy, Telemetry::disabled());
    let tel = Telemetry::new(TelemetryLevel::Full);
    let noisy = run("flaky", &flaky, &tel);

    // Replay the lost attempts, oldest first; each one below the retry
    // budget was resubmitted alone — no other partition reran.
    let timeline: Vec<TraceEvent> = tel
        .tracer()
        .events()
        .into_iter()
        .filter(|e| matches!(e.name.as_str(), "task_failed" | "task_panicked"))
        .collect();
    println!("\nfault-recovery timeline ({} events):", timeline.len());
    for event in &timeline {
        println!(
            "  {:>9.3} ms  {:<13} {}",
            event.ts_us as f64 / 1000.0,
            event.name,
            fmt_args(event)
        );
    }
    let registry = tel.registry();
    let counter = |name| registry.counter_value(name).unwrap_or(0);
    println!(
        "tasks: {} run / {} retried",
        counter(names::DAG_TASKS_TOTAL),
        counter(names::DAG_TASK_RETRIES),
    );
    assert!(
        timeline.iter().any(|e| e.name == "task_failed"),
        "a 25% failure rate must trigger at least one retry"
    );

    // Fault injection must not change what was computed — only how long
    // it took.
    let same = clean
        .outcomes
        .iter()
        .zip(&noisy.outcomes)
        .all(|(a, b)| a.eid == b.eid && a.vid == b.vid);
    println!("\nresults identical under 25% task failures: {same}");
    assert!(same, "fault tolerance must preserve results");
}
