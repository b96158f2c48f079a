//! Telemetry substrate for the EV-Matching pipeline: hierarchical
//! tracing spans with Chrome-trace export, a global-free metrics
//! registry (counters / gauges / log-bucketed histograms) with
//! Prometheus text and JSON export, and the one catalogue of metric
//! names ([`names`]).
//!
//! # Cost model
//!
//! A [`Telemetry`] handle is an `Arc` around one atomic level byte, a
//! [`MetricsRegistry`] and a [`Tracer`]. Every instrumentation site
//! checks the level with a single relaxed atomic load
//! ([`Telemetry::counters_on`] / `tracing_on`) and does
//! nothing else when disabled, so `--telemetry off` runs are
//! bit-identical to uninstrumented code. Hot loops resolve metric
//! handles once and then pay one relaxed `fetch_add` per update.
//!
//! # Span taxonomy
//!
//! Spans nest `pipeline → stage → round → task`, carried in the event
//! `cat` field; ad-hoc markers (failed attempts, cache invalidations)
//! are instant events under `event`.

mod flight;
mod metrics;
pub mod names;
pub mod prometheus;
mod serve;
mod trace;

pub use flight::FlightRecorder;
pub use metrics::{
    bucket_bound, bucket_index, Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry,
    MetricsSnapshot, Reservoir, BUCKET_COUNT,
};
pub use serve::MetricsServer;
pub use trace::{TraceCtx, TraceEvent, Tracer};

use trace::DEFAULT_CAPACITY;

use parking_lot::Mutex;
use serde_json::Value;
use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// How much the pipeline records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TelemetryLevel {
    /// Record nothing; every site is a single relaxed load.
    #[default]
    Off,
    /// Update counters, gauges and histograms; no trace events.
    Counters,
    /// Counters plus tracing spans and instant events.
    Full,
}

impl TelemetryLevel {
    const fn from_u8(v: u8) -> TelemetryLevel {
        match v {
            0 => TelemetryLevel::Off,
            1 => TelemetryLevel::Counters,
            _ => TelemetryLevel::Full,
        }
    }
}

impl FromStr for TelemetryLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(TelemetryLevel::Off),
            "counters" => Ok(TelemetryLevel::Counters),
            "full" => Ok(TelemetryLevel::Full),
            other => Err(format!(
                "unknown telemetry level {other:?} (expected off|counters|full)"
            )),
        }
    }
}

impl fmt::Display for TelemetryLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TelemetryLevel::Off => "off",
            TelemetryLevel::Counters => "counters",
            TelemetryLevel::Full => "full",
        })
    }
}

#[derive(Debug)]
struct Inner {
    level: AtomicU8,
    registry: MetricsRegistry,
    tracer: Tracer,
    flight: FlightRecorder,
    flight_dir: Mutex<Option<PathBuf>>,
    dump_seq: AtomicU64,
    task_latency: Reservoir,
}

/// A cloneable handle to one run's telemetry state. Clones share the
/// same registry, tracer and level.
#[derive(Debug, Clone)]
pub struct Telemetry {
    inner: Arc<Inner>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::off()
    }
}

impl Telemetry {
    /// Fresh telemetry state recording at `level`.
    #[must_use]
    pub fn new(level: TelemetryLevel) -> Self {
        Telemetry::with_trace_capacity(level, DEFAULT_CAPACITY)
    }

    /// Fresh telemetry state whose tracer ring retains at most
    /// `capacity` events (smaller rings surface `evm_trace_dropped_total`
    /// sooner; the default is 65 536).
    #[must_use]
    pub fn with_trace_capacity(level: TelemetryLevel, capacity: usize) -> Self {
        let registry = MetricsRegistry::new();
        let tracer = Tracer::with_capacity(capacity);
        if level >= TelemetryLevel::Counters {
            // Ring evictions increment the registry counter live; an
            // `off` registry stays empty (sites record nothing).
            tracer.attach_drop_counter(registry.counter(names::TRACE_DROPPED));
        }
        Telemetry {
            inner: Arc::new(Inner {
                level: AtomicU8::new(level as u8),
                registry,
                tracer,
                flight: FlightRecorder::default(),
                flight_dir: Mutex::new(None),
                dump_seq: AtomicU64::new(0),
                task_latency: Reservoir::default(),
            }),
        }
    }

    /// Fresh telemetry state that records nothing.
    #[must_use]
    pub(crate) fn off() -> Self {
        Telemetry::new(TelemetryLevel::Off)
    }

    /// The shared always-off instance used by uninstrumented entry
    /// points, so plumbing a default costs one pointer copy.
    #[must_use]
    pub fn disabled() -> &'static Telemetry {
        static DISABLED: OnceLock<Telemetry> = OnceLock::new();
        DISABLED.get_or_init(Telemetry::off)
    }

    /// Current recording level.
    #[must_use]
    pub(crate) fn level(&self) -> TelemetryLevel {
        TelemetryLevel::from_u8(self.inner.level.load(Ordering::Relaxed))
    }

    /// Whether counter/gauge/histogram updates are recorded — the one
    /// relaxed load guarding each instrumentation site.
    #[inline]
    #[must_use]
    pub fn counters_on(&self) -> bool {
        self.inner.level.load(Ordering::Relaxed) >= TelemetryLevel::Counters as u8
    }

    /// Whether trace spans and events are recorded.
    #[inline]
    #[must_use]
    pub(crate) fn tracing_on(&self) -> bool {
        self.inner.level.load(Ordering::Relaxed) >= TelemetryLevel::Full as u8
    }

    /// The metrics registry shared by every clone.
    #[must_use]
    pub fn registry(&self) -> &MetricsRegistry {
        &self.inner.registry
    }

    /// The tracer shared by every clone.
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.inner.tracer
    }

    /// Opens a span; it records a complete (`'X'`) trace event when
    /// dropped. A no-op (no clock read) unless tracing is on.
    #[must_use]
    pub fn span(&self, name: impl Into<String>, cat: &'static str) -> Span<'_> {
        self.span_ctx(name, cat, TraceCtx::default())
    }

    /// Opens a span carrying causal identity. The context is retained
    /// even when tracing is off, but no clock is read and nothing is
    /// recorded.
    #[must_use]
    pub fn span_ctx(&self, name: impl Into<String>, cat: &'static str, ctx: TraceCtx) -> Span<'_> {
        if self.tracing_on() {
            Span {
                tracer: Some(&self.inner.tracer),
                name: name.into(),
                cat,
                start: Instant::now(),
                ctx,
                args: Vec::new(),
            }
        } else {
            Span {
                tracer: None,
                name: String::new(),
                cat,
                start: self.inner.tracer.epoch(),
                ctx,
                args: Vec::new(),
            }
        }
    }

    /// Records an instant event when tracing is on.
    pub fn event(&self, name: &str, args: Vec<(String, Value)>) {
        if self.tracing_on() {
            self.inner.tracer.instant(name, "event", args);
        }
    }

    /// Records an instant event attributed to `ctx` when tracing is on.
    pub fn event_ctx(&self, name: &str, ctx: TraceCtx, args: Vec<(String, Value)>) {
        if self.tracing_on() {
            self.inner.tracer.instant_ctx(name, "event", ctx, args);
        }
    }

    /// The always-on flight recorder shared by every clone. Disabled by
    /// default for library embedders; the CLI enables it per run.
    #[must_use]
    pub fn flight(&self) -> &FlightRecorder {
        &self.inner.flight
    }

    /// The bounded reservoir of task-attempt latencies (nanoseconds)
    /// backing the exact `evm_exec_task_latency_p*` gauges.
    #[must_use]
    pub fn task_latency(&self) -> &Reservoir {
        &self.inner.task_latency
    }

    /// Sets (or clears) the directory [`Telemetry::dump_flight`] writes
    /// into. Unset by default, making dumps a no-op for library users.
    pub fn set_flight_dir(&self, dir: Option<PathBuf>) {
        *self.inner.flight_dir.lock() = dir;
    }

    /// The currently configured flight-dump directory.
    #[must_use]
    pub(crate) fn flight_dir(&self) -> Option<PathBuf> {
        self.inner.flight_dir.lock().clone()
    }

    /// Dumps the flight-recorder ring to `flight-<ts>-<n>.json` in the
    /// configured dump directory and returns the path, or `None` when
    /// no directory is set (or the write fails — dumping is a crash
    /// path and must never panic or mask the original error).
    pub fn dump_flight(&self, reason: &str) -> Option<PathBuf> {
        let dir = self.flight_dir()?;
        let secs = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let n = self.inner.dump_seq.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("flight-{secs}-{n}.json"));
        let body = self.inner.flight.to_value(reason).to_json_pretty();
        if std::fs::create_dir_all(&dir).is_err() || std::fs::write(&path, body).is_err() {
            return None;
        }
        if self.counters_on() {
            self.inner.registry.counter(names::FLIGHT_DUMPS).inc();
        }
        Some(path)
    }

    /// Refreshes the derived metrics: mirrors tracer ring drops into
    /// `evm_trace_dropped_total` (covering `set_level` upgrades after
    /// construction), publishes exact p50/p90/p99 task-latency gauges
    /// from the reservoir, and sets the gallery hit ratio from its two
    /// counters. Called before every `/metrics` scrape and before
    /// profile export.
    pub fn sync_derived_metrics(&self) {
        if !self.counters_on() {
            return;
        }
        let dropped = self.inner.tracer.dropped();
        let counter = self.inner.registry.counter(names::TRACE_DROPPED);
        let counted = counter.get();
        if dropped > counted {
            counter.add(dropped - counted);
        }
        let latency = &self.inner.task_latency;
        if !latency.is_empty() {
            for (name, q) in [
                (names::EXEC_TASK_LATENCY_P50_NS, 0.50),
                (names::EXEC_TASK_LATENCY_P90_NS, 0.90),
                (names::EXEC_TASK_LATENCY_P99_NS, 0.99),
            ] {
                if let Some(v) = latency.quantile(q) {
                    self.inner.registry.gauge(name).set(v as f64);
                }
            }
        }
        let counted = |name| self.inner.registry.counter_value(name).unwrap_or(0);
        let hits = counted(names::VFILTER_GALLERY_HITS);
        let total = hits + counted(names::VFILTER_GALLERY_MISSES);
        if total > 0 {
            self.inner
                .registry
                .gauge(names::VFILTER_GALLERY_HIT_RATIO)
                .set(hits as f64 / total as f64);
        }
    }
}

/// An open tracing span; records itself on drop. Obtained from
/// [`Telemetry::span`].
#[derive(Debug)]
pub struct Span<'a> {
    tracer: Option<&'a Tracer>,
    name: String,
    cat: &'static str,
    start: Instant,
    ctx: TraceCtx,
    args: Vec<(String, Value)>,
}

impl Span<'_> {
    /// Attaches a key/value pair to the span's `args` payload.
    pub fn arg(&mut self, key: &str, value: Value) {
        if self.tracer.is_some() {
            self.args.push((key.to_string(), value));
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(tracer) = self.tracer {
            tracer.complete_ctx(
                std::mem::take(&mut self.name),
                self.cat,
                self.start,
                self.ctx,
                std::mem::take(&mut self.args),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_parse_and_order() {
        assert_eq!("off".parse::<TelemetryLevel>(), Ok(TelemetryLevel::Off));
        assert_eq!(
            "counters".parse::<TelemetryLevel>(),
            Ok(TelemetryLevel::Counters)
        );
        assert_eq!("full".parse::<TelemetryLevel>(), Ok(TelemetryLevel::Full));
        assert!("verbose".parse::<TelemetryLevel>().is_err());
        assert!(TelemetryLevel::Off < TelemetryLevel::Counters);
        assert!(TelemetryLevel::Counters < TelemetryLevel::Full);
        assert_eq!(TelemetryLevel::Full.to_string(), "full");
    }

    #[test]
    fn disabled_telemetry_records_nothing() {
        let tel = Telemetry::off();
        assert!(!tel.counters_on());
        assert!(!tel.tracing_on());
        {
            let mut span = tel.span("noop", "stage");
            span.arg("k", Value::Int(1));
        }
        tel.event("noop", Vec::new());
        assert!(tel.tracer().is_empty());
        assert!(tel.registry().snapshot().counters.is_empty());
    }

    #[test]
    fn clones_share_state() {
        let tel = Telemetry::new(TelemetryLevel::Counters);
        let other = tel.clone();
        other.registry().counter("shared").add(3);
        assert_eq!(tel.registry().counter_value("shared"), Some(3));
    }

    #[test]
    fn gallery_hit_ratio_follows_its_counters_across_queries() {
        let tel = Telemetry::new(TelemetryLevel::Counters);
        let ratio = || {
            tel.sync_derived_metrics();
            tel.registry().snapshot().gauges[names::VFILTER_GALLERY_HIT_RATIO]
        };
        tel.registry().counter(names::VFILTER_GALLERY_HITS).add(1);
        tel.registry().counter(names::VFILTER_GALLERY_MISSES).add(3);
        assert_eq!(ratio(), 0.25);
        // A second query on the same handle: the gauge describes the
        // accumulated counters, not the last query.
        tel.registry().counter(names::VFILTER_GALLERY_HITS).add(4);
        assert_eq!(ratio(), 0.625);
    }

    #[test]
    fn spans_record_complete_events() {
        let tel = Telemetry::new(TelemetryLevel::Full);
        {
            let mut span = tel.span("e_stage", "stage");
            span.arg("round", Value::Int(1));
        }
        tel.event("retry_scheduled", vec![("task".to_string(), Value::Int(7))]);
        let events = tel.tracer().events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "e_stage");
        assert_eq!(events[0].ph, 'X');
        assert_eq!(events[0].cat, "stage");
        assert_eq!(events[1].ph, 'i');
    }
}
