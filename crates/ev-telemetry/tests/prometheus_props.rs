//! Property tests for the Prometheus text exposition: the strict parser
//! answers `Ok` or `Err` on hostile text and never panics, and what the
//! renderer writes parses back to every value it rendered.

use ev_telemetry::prometheus::{parse_exposition, render, Sample};
use ev_telemetry::{bucket_bound, MetricsRegistry, MetricsSnapshot};
use proptest::prelude::*;

/// Pieces of the exposition grammar, so that random text reaches the
/// parser's later branches (labels, values, histogram suffixes) and not
/// only its first error.
const FRAGMENTS: &[&str] = &[
    "# TYPE x histogram\n",
    "# TYPE x counter\n",
    "# TYPE ",
    "# HELP ",
    "#",
    "gauge",
    "summary",
    "x",
    "x_bucket",
    "x_sum",
    "x_count",
    "x{",
    "{",
    "}",
    "} 1\n",
    "{le=\"1\"}",
    "le=",
    "le",
    "=",
    "\"",
    "\"1\"",
    ",",
    " ",
    "\t",
    "\n",
    "0",
    "-2.5e3",
    "NaN",
    "+Inf",
    "-Inf",
    "inf",
    "é",
    "\u{0}",
    "}{",
    "\"\"",
];

/// Text from `picks`: a fragment, or (past the fragments) the char of
/// the byte, which is two UTF-8 bytes above 127.
fn soup(picks: &[(usize, u8)]) -> String {
    let mut text = String::new();
    for &(pick, byte) in picks {
        match FRAGMENTS.get(pick) {
            Some(fragment) => text.push_str(fragment),
            None => text.push(char::from(byte)),
        }
    }
    text
}

/// A registry holding the drawn counters, gauges (any bit pattern:
/// NaN, infinities and subnormals too) and histograms.
fn snapshot_of(counters: &[u64], gauges: &[u64], histograms: &[Vec<u64>]) -> MetricsSnapshot {
    let registry = MetricsRegistry::new();
    for (i, &v) in counters.iter().enumerate() {
        registry.counter(&format!("evm_prop_counter_{i}")).add(v);
    }
    for (i, &bits) in gauges.iter().enumerate() {
        registry
            .gauge(&format!("evm_prop_gauge_{i}"))
            .set(f64::from_bits(bits));
    }
    for (i, samples) in histograms.iter().enumerate() {
        let histogram = registry.histogram(&format!("evm_prop_histogram_{i}"));
        samples.iter().for_each(|&v| histogram.record(v));
    }
    registry.snapshot()
}

/// Applies byte edits (replace, insert, delete at a drawn position) and
/// reads the result as UTF-8, lossily.
fn mutate(text: &str, edits: &[(u64, u8, u8)]) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for &(at, op, byte) in edits {
        let at = at as usize % (bytes.len() + 1);
        match op {
            0 if at < bytes.len() => bytes[at] = byte,
            1 => bytes.insert(at, byte),
            _ if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.push(byte),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Arbitrary text and byte-mutated valid expositions parse to `Ok`
    /// or `Err`; a panic fails the test.
    #[test]
    fn the_parser_never_panics(
        picks in prop::collection::vec((0usize..FRAGMENTS.len() + 8, 0u8..=255), 0..120),
        counters in prop::collection::vec(any::<u64>(), 0..4),
        gauges in prop::collection::vec(any::<u64>(), 0..4),
        histograms in prop::collection::vec(prop::collection::vec(any::<u64>(), 0..6), 0..3),
        edits in prop::collection::vec((any::<u64>(), 0u8..3, 0u8..=255), 1..10),
    ) {
        let _ = parse_exposition(&soup(&picks));
        let valid = render(&snapshot_of(&counters, &gauges, &histograms));
        prop_assert!(parse_exposition(&valid).is_ok());
        let _ = parse_exposition(&mutate(&valid, &edits));
    }

    /// Every counter, gauge and histogram sample the renderer writes
    /// parses back to the value it rendered; a NaN gauge to a NaN.
    #[test]
    fn a_rendered_snapshot_parses_back_to_its_values(
        counters in prop::collection::vec(any::<u64>(), 0..6),
        gauges in prop::collection::vec(any::<u64>(), 0..6),
        histograms in prop::collection::vec(prop::collection::vec(any::<u64>(), 0..10), 0..4),
    ) {
        let snapshot = snapshot_of(&counters, &gauges, &histograms);
        let text = render(&snapshot);
        let parsed = match parse_exposition(&text) {
            Ok(parsed) => parsed,
            Err(e) => return Err(TestCaseError::fail(format!("{e} in\n{text}"))),
        };
        for (name, &v) in &snapshot.counters {
            prop_assert_eq!(parsed.value(name), Some(v as f64));
        }
        for (name, &v) in &snapshot.gauges {
            let back = parsed.value(name);
            let same = back.is_some_and(|b| b == v || (b.is_nan() && v.is_nan()));
            prop_assert!(same, "gauge {} rendered {:?}, parsed back {:?}", name, v, back);
        }
        for (name, hist) in &snapshot.histograms {
            prop_assert_eq!(parsed.value(&format!("{name}_sum")), Some(hist.sum as f64));
            prop_assert_eq!(parsed.value(&format!("{name}_count")), Some(hist.count as f64));
            let bucket = format!("{name}_bucket");
            let buckets: Vec<&Sample> =
                parsed.families[name].samples.iter().filter(|s| s.name == bucket).collect();
            prop_assert_eq!(buckets.len(), hist.buckets.len());
            let mut cumulative = 0;
            for (i, (sample, &n)) in buckets.iter().zip(&hist.buckets).enumerate() {
                cumulative += n;
                let le = bucket_bound(i).map_or_else(|| "+Inf".to_string(), |b| b.to_string());
                prop_assert_eq!(&sample.labels, &vec![("le".to_string(), le)]);
                prop_assert_eq!(sample.value, cumulative as f64);
            }
        }
    }
}
