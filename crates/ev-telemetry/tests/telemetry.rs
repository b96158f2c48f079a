//! Integration tests: histogram bucketing/merge/quantiles, Prometheus
//! exposition round-trips through the strict parser, and the Chrome
//! trace export matches the schema `chrome://tracing` loads.

use ev_telemetry::prometheus::{self, parse_exposition};
use ev_telemetry::{
    bucket_bound, bucket_index, Histogram, MetricsRegistry, Telemetry, TelemetryLevel, BUCKET_COUNT,
};
use serde_json::Value;

#[test]
fn histogram_bucket_boundaries() {
    // Bucket i covers (2^(i-1), 2^i]; 0 and 1 land in bucket 0.
    assert_eq!(bucket_index(0), 0);
    assert_eq!(bucket_index(1), 0);
    assert_eq!(bucket_index(2), 1);
    assert_eq!(bucket_index(3), 2);
    assert_eq!(bucket_index(4), 2);
    assert_eq!(bucket_index(5), 3);
    assert_eq!(bucket_index(1 << 20), 20);
    assert_eq!(bucket_index((1 << 20) + 1), 21);
    assert_eq!(bucket_index(u64::MAX), BUCKET_COUNT - 1);
    assert_eq!(bucket_bound(0), Some(1));
    assert_eq!(bucket_bound(10), Some(1024));
    assert_eq!(bucket_bound(BUCKET_COUNT - 1), None, "+Inf bucket");
    // Every sample lands in a bucket whose bound covers it.
    for v in [0u64, 1, 2, 7, 100, 4095, 4096, 4097, 1 << 30] {
        let i = bucket_index(v);
        if let Some(bound) = bucket_bound(i) {
            assert!(v <= bound, "{v} exceeds bucket bound {bound}");
        }
        if i > 0 {
            let lower = bucket_bound(i - 1).unwrap();
            assert!(v > lower, "{v} should be in a lower bucket than {i}");
        }
    }
}

#[test]
fn histogram_counts_and_sum() {
    let h = Histogram::default();
    for v in [1u64, 2, 3, 1000] {
        h.record(v);
    }
    assert_eq!(h.count(), 4);
    assert_eq!(h.sum(), 1006);
    let snap = h.snapshot();
    assert_eq!(snap.buckets.iter().sum::<u64>(), 4);
    assert_eq!(snap.buckets[bucket_index(1000)], 1);
    assert!((snap.mean() - 251.5).abs() < 1e-9);
}

#[test]
fn histogram_merge_is_bucketwise() {
    let a = Histogram::default();
    let b = Histogram::default();
    for v in 1..=100u64 {
        a.record(v);
        b.record(v * 1000);
    }
    a.merge(&b);
    assert_eq!(a.count(), 200);
    assert_eq!(a.sum(), 5050 + 5050 * 1000);
    let merged = a.snapshot();
    let b_snap = b.snapshot();
    for (i, &n) in b_snap.buckets.iter().enumerate() {
        assert!(merged.buckets[i] >= n, "bucket {i} lost samples in merge");
    }
}

#[test]
fn histogram_quantiles() {
    let h = Histogram::default();
    assert_eq!(h.quantile(0.5), None, "empty histogram has no quantiles");
    for v in 1..=1000u64 {
        h.record(v);
    }
    // p50 of 1..=1000 is 500 → bucket bound 512; p99 is 990 → 1024.
    assert_eq!(h.quantile(0.5), Some(512));
    assert_eq!(h.quantile(0.99), Some(1024));
    assert_eq!(h.quantile(0.0), Some(1), "q=0 is the first sample's bucket");
    assert_eq!(h.quantile(1.0), Some(1024));
}

#[test]
fn quantile_in_overflow_bucket_is_none() {
    let h = Histogram::default();
    h.record(u64::MAX);
    assert_eq!(h.quantile(0.5), None, "+Inf bucket has no finite bound");
}

fn populated_registry() -> MetricsRegistry {
    let registry = MetricsRegistry::new();
    registry.counter("evm_test_requests_total").add(42);
    registry.counter("evm_test_empty_total").add(0);
    registry.gauge("evm_test_ratio").set(0.375);
    registry.gauge("evm_test_whole").set(17.0);
    let h = registry.histogram("evm_test_latency_ns");
    for v in [1u64, 3, 900, 70_000] {
        h.record(v);
    }
    registry
}

#[test]
fn prometheus_round_trips_through_strict_parser() {
    let registry = populated_registry();
    let text = registry.prometheus_text();
    let parsed = parse_exposition(&text).expect("own output must parse strictly");

    assert_eq!(parsed.kind("evm_test_requests_total"), Some("counter"));
    assert_eq!(parsed.value("evm_test_requests_total"), Some(42.0));
    assert_eq!(parsed.value("evm_test_empty_total"), Some(0.0));
    assert_eq!(parsed.kind("evm_test_ratio"), Some("gauge"));
    assert_eq!(parsed.value("evm_test_ratio"), Some(0.375));
    assert_eq!(parsed.value("evm_test_whole"), Some(17.0));

    let hist = &parsed.families["evm_test_latency_ns"];
    assert_eq!(hist.kind, "histogram");
    assert_eq!(parsed.value("evm_test_latency_ns_count"), Some(4.0));
    assert_eq!(parsed.value("evm_test_latency_ns_sum"), Some(70_904.0));
    let buckets: Vec<&prometheus::Sample> = hist
        .samples
        .iter()
        .filter(|s| s.name == "evm_test_latency_ns_bucket")
        .collect();
    assert_eq!(buckets.len(), BUCKET_COUNT);
    // Cumulative counts are monotone and end at the total count.
    let values: Vec<f64> = buckets.iter().map(|s| s.value).collect();
    assert!(values.windows(2).all(|w| w[0] <= w[1]));
    assert_eq!(*values.last().unwrap(), 4.0);
    assert_eq!(
        buckets.last().unwrap().labels,
        vec![("le".to_string(), "+Inf".to_string())]
    );
}

#[test]
fn parser_rejects_malformed_expositions() {
    // Sample without a preceding TYPE.
    assert!(parse_exposition("evm_orphan 1\n").is_err());
    // Unknown type.
    assert!(parse_exposition("# TYPE x summary\nx 1\n").is_err());
    // Missing value.
    assert!(parse_exposition("# TYPE x counter\nx\n").is_err());
    // Unquoted label value.
    assert!(parse_exposition("# TYPE x counter\nx{le=1} 1\n").is_err());
    // Garbage value.
    assert!(parse_exposition("# TYPE x counter\nx one\n").is_err());
    // Duplicate TYPE declaration.
    assert!(parse_exposition("# TYPE x counter\n# TYPE x counter\nx 1\n").is_err());
    // Duplicate sample: which value would a reader take?
    assert!(parse_exposition("# TYPE x gauge\nx 1\nx NaN\n").is_err());
    let buckets = "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\n";
    assert!(parse_exposition(buckets).is_ok());
    // HELP comments and blank lines are fine.
    let ok = parse_exposition("# HELP x about x\n# TYPE x counter\n\nx 5\n").unwrap();
    assert_eq!(ok.value("x"), Some(5.0));
}

#[test]
fn chrome_trace_export_matches_schema() {
    let tel = Telemetry::new(TelemetryLevel::Full);
    {
        let mut pipeline = tel.span("match_many", "pipeline");
        pipeline.arg("targets", Value::Int(3));
        let _stage = tel.span("e_stage", "stage");
        tel.event("retry_scheduled", vec![("task".to_string(), Value::Int(7))]);
    }

    let text = tel.tracer().chrome_trace_json();
    let doc: Value = serde_json::from_str(&text).expect("export must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents array");
    assert_eq!(events.len(), 3);

    for e in events {
        // Required fields for chrome://tracing: name, ph, ts, pid, tid.
        for key in ["name", "cat", "ph", "ts", "pid", "tid"] {
            assert!(e.get(key).is_some(), "event missing {key}: {e:?}");
        }
        let ph = match e.get("ph") {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("ph must be a string, got {other:?}"),
        };
        match ph.as_str() {
            "X" => assert!(
                matches!(e.get("dur"), Some(Value::Int(d)) if *d >= 0),
                "complete events carry a duration"
            ),
            "i" => assert_eq!(
                e.get("s"),
                Some(&Value::Str("t".to_string())),
                "instants carry a scope"
            ),
            other => panic!("unexpected phase {other}"),
        }
        assert!(matches!(e.get("ts"), Some(Value::Int(t)) if *t >= 0));
    }

    // Spans closed inner-first: the stage span precedes the pipeline
    // span in the ring, and nests within it on the timeline.
    let name_of = |e: &Value| match e.get("name") {
        Some(Value::Str(s)) => s.clone(),
        _ => panic!("name"),
    };
    let names: Vec<String> = events.iter().map(name_of).collect();
    assert_eq!(names, vec!["retry_scheduled", "e_stage", "match_many"]);
}

#[test]
fn json_snapshot_export_has_all_sections() {
    let registry = populated_registry();
    let doc = registry.to_json();
    for key in ["counters", "gauges", "histograms"] {
        assert!(doc.get(key).is_some(), "snapshot JSON missing {key}");
    }
    let counters = doc.get("counters").unwrap();
    assert_eq!(
        counters.get("evm_test_requests_total"),
        Some(&Value::Int(42))
    );
}
