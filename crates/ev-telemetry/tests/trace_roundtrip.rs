//! Chrome-trace round-trip: a job → stage → task → attempt span tree
//! with failure and retry edges must survive export to JSON text and be
//! reconstructible from the parsed document alone — the exact contract
//! `--trace-out` hands to `chrome://tracing` and to post-mortem scripts
//! that join spans on `args.trace_id` / `args.span_id`.

use ev_telemetry::{TraceCtx, Tracer};
use serde::Value;
use std::time::Instant;

/// Integer field of a parsed trace-event object (top level or `args`).
fn int_field(event: &Value, key: &str) -> Option<i128> {
    let v = event
        .get(key)
        .or_else(|| event.get("args").and_then(|a| a.get(key)))?;
    match v {
        Value::Int(n) => Some(*n),
        _ => None,
    }
}

/// String field of a parsed trace-event object.
fn str_field<'a>(event: &'a Value, key: &str) -> Option<&'a str> {
    match event.get(key) {
        Some(Value::Str(s)) => Some(s.as_str()),
        _ => None,
    }
}

/// Finds the unique parsed event with the given name.
fn find<'a>(events: &'a [Value], name: &str) -> &'a Value {
    let mut hits = events.iter().filter(|e| str_field(e, "name") == Some(name));
    let first = hits
        .next()
        .unwrap_or_else(|| panic!("event {name} missing"));
    assert!(hits.next().is_none(), "event {name} not unique");
    first
}

#[test]
fn span_tree_with_steal_and_retry_edges_survives_serialization() {
    let tracer = Tracer::default();

    // Record the tree the engine records: one job span over one stage
    // span over three task attempts, with a failure edge carrying a
    // payload on the first and a retry edge (attempt 0 fails, attempt 1
    // succeeds) on the second task.
    let job = TraceCtx::root();
    let stage = job.child();
    let attempt_a = stage.child();
    let attempt_b0 = stage.child();
    let attempt_b1 = stage.child();

    let t0 = Instant::now();
    tracer.instant_ctx(
        "task_failed",
        "event",
        attempt_a,
        vec![("failures".to_string(), Value::Int(2))],
    );
    tracer.complete_ctx("extract[0]#0", "task", t0, attempt_a, Vec::new());
    tracer.instant_ctx("retry_scheduled", "event", attempt_b0, Vec::new());
    tracer.complete_ctx("extract[1]#0", "task", t0, attempt_b0, Vec::new());
    tracer.complete_ctx("extract[1]#1", "task", t0, attempt_b1, Vec::new());
    tracer.complete_ctx("dag_extract", "stage", t0, stage, Vec::new());
    tracer.complete_ctx("dag_run", "pipeline", t0, job, Vec::new());

    // Serialize to text and forget the in-memory events: everything
    // below works off the parsed document only.
    let text = tracer.chrome_trace_json();
    drop(tracer);
    let doc: Value = serde_json::from_str(&text).expect("export must re-parse");
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents array");
    assert_eq!(events.len(), 7, "all recorded events exported");

    // Every event of the tree carries the one trace id.
    let trace_id = int_field(find(events, "dag_run"), "trace_id").expect("job trace_id");
    for event in events {
        assert_eq!(
            int_field(event, "trace_id"),
            Some(trace_id),
            "{:?} lost its trace id",
            str_field(event, "name"),
        );
    }

    // Parent/child nesting: job → stage → each attempt, joined purely
    // on the serialized span ids.
    let job_span = int_field(find(events, "dag_run"), "span_id").expect("job span_id");
    let stage_event = find(events, "dag_extract");
    assert_eq!(int_field(stage_event, "parent_span_id"), Some(job_span));
    let stage_span = int_field(stage_event, "span_id").expect("stage span_id");
    for name in ["extract[0]#0", "extract[1]#0", "extract[1]#1"] {
        let attempt = find(events, name);
        assert_eq!(
            int_field(attempt, "parent_span_id"),
            Some(stage_span),
            "{name} must hang off the stage span",
        );
        assert_eq!(str_field(attempt, "ph"), Some("X"));
    }

    // Retry attempts are siblings — distinct spans under one parent.
    assert_ne!(
        int_field(find(events, "extract[1]#0"), "span_id"),
        int_field(find(events, "extract[1]#1"), "span_id"),
        "each attempt gets its own span id",
    );

    // Failure and retry instants survive as 'i' events attributed to
    // the exact attempt they happened to, payload intact.
    let failed = find(events, "task_failed");
    assert_eq!(str_field(failed, "ph"), Some("i"));
    assert_eq!(
        int_field(failed, "span_id"),
        int_field(find(events, "extract[0]#0"), "span_id"),
        "failure edge must name the lost attempt's span",
    );
    assert_eq!(
        int_field(failed, "failures"),
        Some(2),
        "instant args survive"
    );
    let retry = find(events, "retry_scheduled");
    assert_eq!(str_field(retry, "ph"), Some("i"));
    assert_eq!(
        int_field(retry, "span_id"),
        int_field(find(events, "extract[1]#0"), "span_id"),
        "retry edge must name the failed attempt's span",
    );
}
