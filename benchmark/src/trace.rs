//! The harness's in-memory span recorder.
//!
//! Spans are recorded around the harness's own calls into each layer —
//! none are added inside the program. A disabled recorder runs the
//! closure and records nothing, so the untraced pass shares the op code
//! of the traced one.

use serde::Value;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to; spans of one op share it.
    pub op: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Starts the next op: spans recorded from here on carry its id.
    pub fn begin_op(&mut self) {
        self.op += 1;
    }

    /// Runs `f` inside a span named `name`, a child of the span open
    /// when it is called.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in seconds, of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Share of the time inside spans named `name` that their direct
    /// children cover.
    pub fn coverage(&self, name: &str) -> f64 {
        let self_ns = self_times(&self.spans);
        let (mut total, mut own) = (0u64, 0u64);
        for (span, self_ns) in self.spans.iter().zip(self_ns) {
            if span.name == name {
                total += span.end_ns - span.start_ns;
                own += self_ns;
            }
        }
        if total == 0 {
            return 0.0;
        }
        (total - own) as f64 / total as f64
    }

    /// The spans as Chrome-trace "complete" events.
    pub fn chrome_trace(&self) -> Value {
        let events = self
            .spans
            .iter()
            .map(|s| {
                Value::Obj(vec![
                    ("name".into(), Value::Str(s.name.into())),
                    ("ph".into(), Value::Str("X".into())),
                    ("pid".into(), Value::Int(1)),
                    ("tid".into(), Value::Int(1)),
                    ("ts".into(), Value::Float(s.start_ns as f64 / 1e3)),
                    (
                        "dur".into(),
                        Value::Float((s.end_ns - s.start_ns) as f64 / 1e3),
                    ),
                    (
                        "args".into(),
                        Value::Obj(vec![
                            ("op".into(), Value::Int(i128::from(s.op))),
                            (
                                "parent".into(),
                                s.parent.map_or(Value::Null, |p| Value::Int(p as i128)),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        Value::Obj(vec![("traceEvents".into(), Value::Arr(events))])
    }
}

/// Each span's self time: its duration minus the part of it that its
/// direct children cover. The harness is single-threaded, so children
/// of one span never overlap.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] -= span.end_ns - span.start_ns;
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 50, 90, Some(0)),
            span("b.inner", 60, 70, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 30, 10]);
    }

    #[test]
    fn recorder_nests_spans_and_tags_ops() {
        let mut rec = Recorder::new(true);
        rec.begin_op();
        let out = rec.span("op", |rec| rec.span("child", |_| 7));
        rec.begin_op();
        rec.span("op", |_| ());
        assert_eq!(out, 7);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            (spans[0].name, spans[0].parent, spans[0].op),
            ("op", None, 1)
        );
        assert_eq!((spans[1].name, spans[1].parent), ("child", Some(0)));
        assert_eq!(spans[2].op, 2);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(rec.durations("op").len(), 2);
    }

    #[test]
    fn coverage_is_child_time_over_span_time() {
        let mut rec = Recorder::new(true);
        rec.spans = vec![
            span("op", 0, 100, None),
            span("a", 0, 60, Some(0)),
            span("b", 60, 95, Some(0)),
        ];
        assert!((rec.coverage("op") - 0.95).abs() < 1e-12);
        assert_eq!(rec.coverage("absent"), 0.0);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.span("op", |_| 3), 3);
        assert!(rec.spans().is_empty());
    }
}
