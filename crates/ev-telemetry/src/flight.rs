//! Crash flight recorder: a fixed-size ring of recent spans and
//! instants that stays on even when tracing is off, so a
//! worker panic, a `JobError` exhaustion, or disk corruption can be
//! dumped as a replayable timeline instead of a one-line error.
//!
//! Slot claims are lock-free (`fetch_add` on a monotone sequence
//! number); each slot is guarded by its own micro-mutex held only for
//! the entry swap, so writers never contend unless they collide on the
//! same slot after a full ring wrap.

use crate::trace::{current_tid, TraceCtx};
use parking_lot::Mutex;
use serde_json::Value;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Default number of entries the ring retains.
pub(crate) const FLIGHT_CAPACITY: usize = 2048;

/// The kind of a flight-recorder entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlightKind {
    /// A completed span (`dur_us` is meaningful).
    Span,
    /// A point event.
    Instant,
}

impl FlightKind {
    /// Stable lowercase label used in dumps.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FlightKind::Span => "span",
            FlightKind::Instant => "instant",
        }
    }
}

/// One recorded flight entry.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FlightEntry {
    /// Ring sequence number (monotone; survives wraps, so a dump shows
    /// how many older entries were overwritten).
    pub seq: u64,
    /// Microseconds since the recorder epoch.
    pub ts_us: u64,
    /// Span duration in microseconds (0 for instants).
    pub dur_us: u64,
    /// Entry kind.
    pub kind: FlightKind,
    /// Span or instant name.
    pub name: String,
    /// Recording thread id (shared with the tracer's `tid` space).
    pub(crate) tid: u64,
    /// Causal identity — links the entry into the job→round→task tree.
    pub ctx: TraceCtx,
    /// Extra structured payload.
    pub args: Vec<(String, Value)>,
}

impl FlightEntry {
    /// The entry as a JSON object for `flight-*.json` dumps.
    #[must_use]
    pub(crate) fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("seq".to_string(), Value::Int(i128::from(self.seq))),
            ("ts_us".to_string(), Value::Int(i128::from(self.ts_us))),
            ("dur_us".to_string(), Value::Int(i128::from(self.dur_us))),
            (
                "kind".to_string(),
                Value::Str(self.kind.label().to_string()),
            ),
            ("name".to_string(), Value::Str(self.name.clone())),
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

/// The recorder: `capacity` slots overwritten round-robin. Recording
/// while disabled is a single relaxed load.
#[derive(Debug)]
pub struct FlightRecorder {
    epoch: Instant,
    enabled: AtomicBool,
    next_seq: AtomicU64,
    slots: Vec<Mutex<Option<FlightEntry>>>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::with_capacity(FLIGHT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A disabled recorder with `capacity` slots (see
    /// [`FlightRecorder::set_enabled`]).
    #[must_use]
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            next_seq: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Turns recording on or off. Off is the construction default so
    /// library embedders opt in; the CLI enables it for every run.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether entries are currently being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Total entries ever recorded (retained or overwritten).
    #[must_use]
    pub(crate) fn recorded(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }

    fn push(&self, mut entry: FlightEntry) {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        entry.seq = seq;
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        *slot.lock() = Some(entry);
    }

    /// Records a completed span that started at `start`.
    pub fn span(
        &self,
        name: impl Into<String>,
        ctx: TraceCtx,
        start: Instant,
        args: Vec<(String, Value)>,
    ) {
        if !self.enabled() {
            return;
        }
        let ts_us = u64::try_from(start.saturating_duration_since(self.epoch).as_micros())
            .unwrap_or(u64::MAX);
        let dur_us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.push(FlightEntry {
            seq: 0,
            ts_us,
            dur_us,
            kind: FlightKind::Span,
            name: name.into(),
            tid: current_tid(),
            ctx,
            args,
        });
    }

    /// Records a point event at the current time.
    pub fn instant(&self, name: impl Into<String>, ctx: TraceCtx, args: Vec<(String, Value)>) {
        if !self.enabled() {
            return;
        }
        let ts_us = u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.push(FlightEntry {
            seq: 0,
            ts_us,
            dur_us: 0,
            kind: FlightKind::Instant,
            name: name.into(),
            tid: current_tid(),
            ctx,
            args,
        });
    }

    /// The retained entries in sequence order (oldest first). Taken
    /// slot by slot; entries recorded concurrently with the snapshot
    /// may or may not be included.
    #[must_use]
    pub(crate) fn snapshot(&self) -> Vec<FlightEntry> {
        let mut entries: Vec<FlightEntry> = self
            .slots
            .iter()
            .filter_map(|slot| slot.lock().clone())
            .collect();
        entries.sort_by_key(|e| e.seq);
        entries
    }

    /// The snapshot as the body of a `flight-*.json` dump.
    #[must_use]
    pub(crate) fn to_value(&self, reason: &str) -> Value {
        let entries = self.snapshot();
        let retained = entries.len() as u64;
        let recorded = self.recorded();
        Value::Obj(vec![
            ("reason".to_string(), Value::Str(reason.to_string())),
            ("recorded".to_string(), Value::Int(i128::from(recorded))),
            ("retained".to_string(), Value::Int(i128::from(retained))),
            (
                "overwritten".to_string(),
                Value::Int(i128::from(recorded.saturating_sub(retained))),
            ),
            (
                "entries".to_string(),
                Value::Arr(entries.iter().map(FlightEntry::to_value).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = FlightRecorder::with_capacity(8);
        rec.instant("x", TraceCtx::default(), Vec::new());
        assert_eq!(rec.recorded(), 0);
        assert!(rec.snapshot().is_empty());
    }

    #[test]
    fn ring_overwrites_oldest_and_keeps_sequence() {
        let rec = FlightRecorder::with_capacity(4);
        rec.set_enabled(true);
        for i in 0..10u64 {
            rec.instant(format!("e{i}"), TraceCtx::default(), Vec::new());
        }
        let entries = rec.snapshot();
        assert_eq!(entries.len(), 4);
        let seqs: Vec<u64> = entries.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        assert_eq!(rec.recorded(), 10);
    }

    #[test]
    fn span_entries_carry_ctx_and_duration() {
        let rec = FlightRecorder::with_capacity(8);
        rec.set_enabled(true);
        let ctx = TraceCtx::root().child();
        let start = Instant::now();
        rec.span("attempt", ctx, start, vec![("task".into(), Value::Int(3))]);
        let entries = rec.snapshot();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].kind, FlightKind::Span);
        assert_eq!(entries[0].ctx, ctx);
        assert_eq!(entries[0].args[0].0, "task");
    }
}
