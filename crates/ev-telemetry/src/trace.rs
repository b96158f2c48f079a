//! Hierarchical tracing spans recorded into a bounded ring buffer,
//! exportable in the Chrome trace-event format (`chrome://tracing` /
//! Perfetto's `trace.json`).
//!
//! Events are appended under a single short mutex hold; when the ring
//! is full the oldest events are evicted and counted in `dropped`, so a
//! long run degrades to "most recent window" rather than unbounded
//! memory.

use crate::metrics::Counter;
use parking_lot::Mutex;
use serde_json::Value;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Default ring capacity (events retained).
pub(crate) const DEFAULT_CAPACITY: usize = 65_536;

static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Allocates a fresh process-unique span id (never 0). Ids are cheap —
/// one relaxed `fetch_add` — so callers may allocate them even when
/// tracing is off (the flight recorder attributes entries by these ids
/// regardless of the telemetry level).
#[must_use]
pub(crate) fn next_span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

/// Causal trace context: the identity of one span plus the ids linking
/// it to its trace and parent. Propagated by value from the job's entry
/// point through an `ev-dag` map's stage context into every attempt, so
/// distributed work can always be attributed to the job → stage → task
/// → attempt chain that caused it.
///
/// A zeroed context (`TraceCtx::default()`) means "no causal parent";
/// spans recorded under it start a fresh trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCtx {
    /// Trace the span belongs to (the root span's id). 0 = unset.
    pub trace_id: u64,
    /// This context's own span id. 0 = unset.
    pub span_id: u64,
    /// The causal parent's span id. 0 = root.
    pub(crate) parent_span: u64,
}

impl TraceCtx {
    /// A fresh root context: new trace, no parent.
    #[must_use]
    pub fn root() -> TraceCtx {
        let id = next_span_id();
        TraceCtx {
            trace_id: id,
            span_id: id,
            parent_span: 0,
        }
    }

    /// A child context: same trace, parented to this context's span.
    /// On an unset (`default`) context this is equivalent to
    /// [`TraceCtx::root`], so plumbing code never has to special-case
    /// "no caller context".
    #[must_use]
    pub fn child(&self) -> TraceCtx {
        if self.is_unset() {
            return TraceCtx::root();
        }
        TraceCtx {
            trace_id: self.trace_id,
            span_id: next_span_id(),
            parent_span: self.span_id,
        }
    }

    /// Whether this context carries no identity at all.
    #[must_use]
    pub(crate) fn is_unset(&self) -> bool {
        self.span_id == 0
    }
}

thread_local! {
    /// Small stable per-thread id for the `tid` trace field (thread 1 is
    /// the first thread that ever records an event).
    static TRACE_TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// The id this thread's events carry in the `tid` field.
#[must_use]
pub(crate) fn current_tid() -> u64 {
    TRACE_TID.with(|t| *t)
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (shown on the trace slice).
    pub name: String,
    /// Category — the span taxonomy level (`pipeline`, `stage`,
    /// `round`, `task`, `event`).
    pub cat: &'static str,
    /// Chrome phase: `'X'` (complete span) or `'i'` (instant).
    pub ph: char,
    /// Start offset from the tracer epoch, microseconds.
    pub ts_us: u64,
    /// Duration in microseconds (0 for instants).
    pub dur_us: u64,
    /// Recording thread id (see [`current_tid`]).
    pub(crate) tid: u64,
    /// Causal identity (all 0 when the event was recorded without a
    /// [`TraceCtx`]). Carried into the Chrome export inside `args` so
    /// the job→round→task→attempt tree can be reconstructed even after
    /// serialization.
    pub ctx: TraceCtx,
    /// Extra key/value payload rendered under `args`.
    pub args: Vec<(String, Value)>,
}

impl TraceEvent {
    /// The event as one Chrome trace-event object.
    #[must_use]
    pub(crate) fn to_value(&self, pid: u64) -> Value {
        let mut fields = vec![
            ("name".to_string(), Value::Str(self.name.clone())),
            ("cat".to_string(), Value::Str(self.cat.to_string())),
            ("ph".to_string(), Value::Str(self.ph.to_string())),
            ("ts".to_string(), Value::Int(i128::from(self.ts_us))),
            ("pid".to_string(), Value::Int(i128::from(pid))),
            ("tid".to_string(), Value::Int(i128::from(self.tid))),
        ];
        if self.ph == 'X' {
            fields.push(("dur".to_string(), Value::Int(i128::from(self.dur_us))));
        }
        if self.ph == 'i' {
            // Instant scope: thread-local, the narrowest marker.
            fields.push(("s".to_string(), Value::Str("t".to_string())));
        }
        let mut args = Vec::new();
        if !self.ctx.is_unset() {
            args.push((
                "trace_id".to_string(),
                Value::Int(i128::from(self.ctx.trace_id)),
            ));
            args.push((
                "span_id".to_string(),
                Value::Int(i128::from(self.ctx.span_id)),
            ));
            args.push((
                "parent_span_id".to_string(),
                Value::Int(i128::from(self.ctx.parent_span)),
            ));
        }
        args.extend(self.args.iter().cloned());
        if !args.is_empty() {
            fields.push(("args".to_string(), Value::Obj(args)));
        }
        Value::Obj(fields)
    }

    /// The event as a flat JSON object for the `/tracez` live endpoint:
    /// identity fields are explicit top-level keys rather than being
    /// folded into Chrome `args`.
    #[must_use]
    pub(crate) fn to_tracez_value(&self) -> Value {
        Value::Obj(vec![
            ("name".to_string(), Value::Str(self.name.clone())),
            ("cat".to_string(), Value::Str(self.cat.to_string())),
            ("ph".to_string(), Value::Str(self.ph.to_string())),
            ("ts_us".to_string(), Value::Int(i128::from(self.ts_us))),
            ("dur_us".to_string(), Value::Int(i128::from(self.dur_us))),
            ("tid".to_string(), Value::Int(i128::from(self.tid))),
            (
                "trace_id".to_string(),
                Value::Int(i128::from(self.ctx.trace_id)),
            ),
            (
                "span_id".to_string(),
                Value::Int(i128::from(self.ctx.span_id)),
            ),
            (
                "parent_span_id".to_string(),
                Value::Int(i128::from(self.ctx.parent_span)),
            ),
            ("args".to_string(), Value::Obj(self.args.clone())),
        ])
    }
}

/// The span/event recorder: a bounded ring of [`TraceEvent`]s sharing
/// one epoch, so exported timestamps are directly comparable.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    events: Mutex<VecDeque<TraceEvent>>,
    capacity: usize,
    dropped: AtomicU64,
    /// Registry counter mirroring `dropped` (`evm_trace_dropped_total`),
    /// attached once by `Telemetry::new` — the tracer itself stays
    /// registry-agnostic.
    drop_counter: OnceLock<Arc<Counter>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::with_capacity(DEFAULT_CAPACITY)
    }
}

impl Tracer {
    /// A tracer retaining at most `capacity` events.
    #[must_use]
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            events: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
            drop_counter: OnceLock::new(),
        }
    }

    /// Attaches the registry counter incremented on every ring
    /// eviction. Only the first call has an effect.
    pub(crate) fn attach_drop_counter(&self, counter: Arc<Counter>) {
        let _ = self.drop_counter.set(counter);
    }

    /// The tracer's epoch — span starts should be taken with
    /// `Instant::now()` and handed back to [`Tracer::complete`].
    #[must_use]
    pub(crate) fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Microseconds elapsed since the epoch.
    #[must_use]
    pub(crate) fn now_us(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    fn push(&self, event: TraceEvent) {
        let mut ring = self.events.lock();
        if ring.len() >= self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
            if let Some(counter) = self.drop_counter.get() {
                counter.inc();
            }
        }
        ring.push_back(event);
    }

    /// Records a complete (`'X'`) span carrying causal identity.
    pub fn complete_ctx(
        &self,
        name: impl Into<String>,
        cat: &'static str,
        start: Instant,
        ctx: TraceCtx,
        args: Vec<(String, Value)>,
    ) {
        let ts_us = u64::try_from(start.saturating_duration_since(self.epoch).as_micros())
            .unwrap_or(u64::MAX);
        let dur_us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.push(TraceEvent {
            name: name.into(),
            cat,
            ph: 'X',
            ts_us,
            dur_us,
            tid: current_tid(),
            ctx,
            args,
        });
    }

    /// Records an instant (`'i'`) event at the current time.
    pub(crate) fn instant(
        &self,
        name: impl Into<String>,
        cat: &'static str,
        args: Vec<(String, Value)>,
    ) {
        self.instant_ctx(name, cat, TraceCtx::default(), args);
    }

    /// Records an instant (`'i'`) event carrying causal identity — the
    /// context names the span the instant is an edge of (e.g. a
    /// `task_panicked` instant carries the stage span's context).
    pub fn instant_ctx(
        &self,
        name: impl Into<String>,
        cat: &'static str,
        ctx: TraceCtx,
        args: Vec<(String, Value)>,
    ) {
        self.push(TraceEvent {
            name: name.into(),
            cat,
            ph: 'i',
            ts_us: self.now_us(),
            dur_us: 0,
            tid: current_tid(),
            ctx,
            args,
        });
    }

    /// Events recorded so far, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().iter().cloned().collect()
    }

    /// The most recent `limit` events, oldest first.
    #[must_use]
    pub(crate) fn recent(&self, limit: usize) -> Vec<TraceEvent> {
        let ring = self.events.lock();
        let skip = ring.len().saturating_sub(limit);
        ring.iter().skip(skip).cloned().collect()
    }

    /// Number of events recorded (retained in the ring).
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Whether no events have been retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }

    /// Events evicted because the ring was full.
    #[must_use]
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The whole ring as a Chrome trace document
    /// (`{"traceEvents": [...]}`), loadable in `chrome://tracing`.
    #[must_use]
    pub(crate) fn chrome_trace(&self) -> Value {
        let events: Vec<Value> = self.events.lock().iter().map(|e| e.to_value(1)).collect();
        Value::Obj(vec![
            ("traceEvents".to_string(), Value::Arr(events)),
            ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
        ])
    }

    /// The trace as Chrome trace-event JSON (`traceEvents`), pretty-printed.
    #[must_use]
    pub fn chrome_trace_json(&self) -> String {
        self.chrome_trace().to_json_pretty()
    }
}
