//! Flight-recorder post-mortem integration: a worker panic mid-job must
//! leave a `flight-*.json` on disk whose entries attribute the failed
//! attempt to its job, stage and task — the artifact an operator reads
//! when a run died and the process is already gone.

use evmatch::dag::{DagConfig, DagSpec, FaultPlan, JobError};
use evmatch::prelude::*;
use evmatch::telemetry::TraceCtx;
use serde_json::Value;

/// Integer field of a parsed flight entry.
fn int_field(entry: &Value, key: &str) -> Option<i128> {
    match entry.get(key).or_else(|| entry.get("args")?.get(key))? {
        Value::Int(n) => Some(*n),
        _ => None,
    }
}

/// String field of a parsed flight entry.
fn str_field<'a>(entry: &'a Value, key: &str) -> Option<&'a str> {
    match entry.get(key).or_else(|| entry.get("args")?.get(key))? {
        Value::Str(s) => Some(s.as_str()),
        _ => None,
    }
}

#[test]
fn worker_panic_dumps_an_attributable_flight_recording() {
    let scratch = std::env::temp_dir().join(format!("evm-flight-test-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create scratch dir");

    let telemetry = Telemetry::new(TelemetryLevel::Counters);
    telemetry.flight().set_enabled(true);
    telemetry.set_flight_dir(Some(scratch.clone()));

    // One poisoned partition among healthy ones: the panic must be
    // attributed to its exact task, not just "the job died".
    let mut lines: Vec<String> = (0..8).map(|i| format!("line{i}")).collect();
    lines.insert(5, "poison".to_string());
    let mut dag: DagSpec<'_, usize> = DagSpec::new();
    let lines = &lines;
    dag.stage("map", lines.len(), Vec::new(), move |task, _| {
        let line = &lines[task.partition];
        assert!(!line.contains("poison"), "injected mapper panic");
        line.len()
    });
    let err = dag
        .run(
            &DagConfig {
                faults: FaultPlan {
                    max_attempts: 2,
                    ..FaultPlan::default()
                },
                ..DagConfig::new(2)
            },
            &telemetry,
            TraceCtx::root(),
        )
        .unwrap_err();
    assert!(
        matches!(err, JobError::WorkerPanicked { stage: "map", .. }),
        "expected WorkerPanicked, got {err:?}"
    );

    // Exactly one dump, named flight-*.json.
    let dumps: Vec<_> = std::fs::read_dir(&scratch)
        .expect("read scratch dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.starts_with("flight-") && name.ends_with(".json")
        })
        .collect();
    assert_eq!(dumps.len(), 1, "exactly one flight dump, got {dumps:?}");

    let text = std::fs::read_to_string(&dumps[0]).expect("read dump");
    let _ = std::fs::remove_dir_all(&scratch);
    let dump: Value = serde_json::from_str(&text).expect("dump must be valid JSON");
    assert_eq!(
        dump.get("reason"),
        Some(&Value::Str("worker_panicked".into()))
    );
    let entries = dump
        .get("entries")
        .and_then(Value::as_arr)
        .expect("entries array");

    // Reconstruct the causal chain from the serialized ids alone:
    // job_started names the job span, stage_started must be its child,
    // and the panic must hang off the stage with the poisoned task id.
    let job = entries
        .iter()
        .find(|e| str_field(e, "name") == Some("job_started"))
        .expect("job_started instant recorded");
    let trace_id = int_field(job, "trace_id").expect("job trace id");
    let job_span = int_field(job, "span_id").expect("job span id");

    let stage = entries
        .iter()
        .find(|e| str_field(e, "name") == Some("stage_started"))
        .expect("stage_started instant recorded");
    assert_eq!(str_field(stage, "stage"), Some("map"));
    assert_eq!(int_field(stage, "trace_id"), Some(trace_id));
    assert_eq!(
        int_field(stage, "parent_span_id"),
        Some(job_span),
        "stage span must be a child of the job span",
    );
    let stage_span = int_field(stage, "span_id").expect("stage span id");

    let panics: Vec<_> = entries
        .iter()
        .filter(|e| str_field(e, "name") == Some("task_panicked"))
        .collect();
    assert_eq!(
        panics.len(),
        2,
        "the poisoned task panics once per allowed attempt"
    );
    for p in &panics {
        assert_eq!(int_field(p, "trace_id"), Some(trace_id));
        assert_eq!(
            int_field(p, "span_id"),
            Some(stage_span),
            "panic must be attributed to the map stage span",
        );
        assert_eq!(
            int_field(p, "task"),
            Some(5),
            "panic must name the poisoned task",
        );
        assert!(
            str_field(p, "message").is_some_and(|m| m.contains("injected mapper panic")),
            "panic payload must survive into the dump",
        );
    }

    // Healthy attempts are in the recording too — the dump is a flight
    // recording of the whole run, not only the crash site.
    assert!(
        entries.iter().any(|e| {
            str_field(e, "name").is_some_and(|n| n.starts_with("map["))
                && int_field(e, "parent_span_id") == Some(stage_span)
                && str_field(e, "outcome") == Some("done")
        }),
        "completed attempt spans must appear, parented to the stage",
    );
    assert!(
        entries
            .iter()
            .any(|e| str_field(e, "name") == Some("retry_budget_exhausted")),
        "the exhaustion edge that triggered the dump must be recorded",
    );
}
