//! The [`Recorder`] trait and its two stock implementations.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// A sink for the timing spans emitted by instrumented code: it answers
/// "where did the time go". What a simulation *did* is recorded
/// separately, by the engines' [`crate::EventLog`] handle.
///
/// All methods have empty default bodies, so the no-op implementation
/// ([`NoopRecorder`]) is literally `impl Recorder for NoopRecorder {}` and
/// every call site inlines to nothing.  Hot paths that would otherwise pay
/// to *construct* a span (formatting a name, reading a clock) should
/// check [`Recorder::enabled`] first:
///
/// ```
/// use seleth_obs::{NoopRecorder, Recorder};
///
/// fn work(rec: &dyn Recorder) {
///     if rec.enabled() {
///         let start = rec.now_ns();
///         // ... expensive annotation ...
///         rec.span("work", 0, start, rec.now_ns());
///     }
/// }
/// work(&NoopRecorder);
/// ```
///
/// Implementations must be safe to call from multiple worker threads
/// concurrently (`Send + Sync`).
pub trait Recorder: Send + Sync {
    /// Returns `true` if this recorder actually stores spans.  Callers may
    /// skip constructing expensive annotations when this is `false`.
    fn enabled(&self) -> bool {
        false
    }

    /// Current monotonic time in nanoseconds since the recorder's epoch.
    /// The no-op default returns 0.
    fn now_ns(&self) -> u64 {
        0
    }

    /// Records a completed span: `name` ran on `worker` from `start_ns` to
    /// `end_ns` (both relative to [`Recorder::now_ns`]'s epoch).
    fn span(&self, _name: &str, _worker: usize, _start_ns: u64, _end_ns: u64) {}
}

/// The recorder that records nothing.  Every method is the trait's empty
/// default, so instrumented code monomorphises/devirtualises to no-ops.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// A completed span captured by a [`TraceLog`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name, e.g. `"sweep:delay"` or `"task"`.
    pub name: String,
    /// Worker index the span ran on (0 for the coordinating thread).
    pub worker: usize,
    /// Start time in nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End time in nanoseconds since the trace epoch.
    pub end_ns: u64,
}

impl SpanEvent {
    /// Span duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Renders the span as one JSON-lines record.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"name\": {}, \"worker\": {}, \"start_ns\": {}, \"end_ns\": {}, \"dur_ns\": {}}}",
            crate::json::escape_string(&self.name),
            self.worker,
            self.start_ns,
            self.end_ns,
            self.duration_ns()
        )
    }
}

/// An in-memory span recorder backing the `--trace <path>` flag of
/// the study bins.
///
/// Spans are buffered under a mutex (tracing is opt-in, so contention on
/// the hot path only exists when the user asked for a trace) and can be
/// dumped as JSON lines with [`TraceLog::write_jsonl`].
#[derive(Debug)]
pub struct TraceLog {
    epoch: Instant,
    events: Mutex<Vec<SpanEvent>>,
}

impl Default for TraceLog {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceLog {
    /// Creates an empty trace log; its epoch is the moment of creation.
    #[must_use]
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
        }
    }

    /// Returns a snapshot of all recorded spans, in recording order.
    #[must_use]
    pub fn events(&self) -> Vec<SpanEvent> {
        match self.events.lock() {
            Ok(guard) => guard.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        }
    }

    /// Number of spans recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        match self.events.lock() {
            Ok(guard) => guard.len(),
            Err(poisoned) => poisoned.into_inner().len(),
        }
    }

    /// Returns `true` if no spans have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders all spans as a JSON-lines document (one span per line).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in self.events() {
            // Writing to a String cannot fail.
            let _ = writeln!(out, "{}", ev.to_json_line());
        }
        out
    }

    /// Writes the JSON-lines trace to `path`.
    ///
    /// # Errors
    /// Returns any I/O error from creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }
}

impl Recorder for TraceLog {
    fn enabled(&self) -> bool {
        true
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn span(&self, name: &str, worker: usize, start_ns: u64, end_ns: u64) {
        let ev = SpanEvent {
            name: name.to_string(),
            worker,
            start_ns,
            end_ns,
        };
        match self.events.lock() {
            Ok(mut guard) => guard.push(ev),
            Err(poisoned) => poisoned.into_inner().push(ev),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_recorder_is_disabled() {
        let rec = NoopRecorder;
        assert!(!rec.enabled());
        assert_eq!(rec.now_ns(), 0);
        rec.span("x", 0, 0, 1);
    }

    #[test]
    fn trace_log_records_spans_in_order() {
        let log = TraceLog::new();
        assert!(log.is_empty());
        log.span("a", 0, 10, 20);
        log.span("b", 1, 15, 40);
        let evs = log.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].name, "a");
        assert_eq!(evs[1].duration_ns(), 25);
    }

    #[test]
    fn jsonl_lines_parse_as_json() {
        let log = TraceLog::new();
        log.span("sweep:\"quoted\"", 2, 5, 9);
        let text = log.to_jsonl();
        let line = text.lines().next().expect("one line");
        let value = crate::json::parse_json(line).expect("valid json");
        assert_eq!(
            value.get("name").and_then(crate::json::JsonValue::as_str),
            Some("sweep:\"quoted\"")
        );
        assert_eq!(
            value.get("dur_ns").and_then(crate::json::JsonValue::as_f64),
            Some(4.0)
        );
    }

    #[test]
    fn now_ns_is_monotone() {
        let log = TraceLog::new();
        let a = log.now_ns();
        let b = log.now_ns();
        assert!(b >= a);
    }
}
