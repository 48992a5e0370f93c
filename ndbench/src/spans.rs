//! The benchmark's own span log: (name, start, end, parent) records kept
//! in memory and written into the run report at the end. It times calls
//! into the layers from outside, so it never touches the program's own
//! metrics or tracer.

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One closed (or still open, `end_ns == 0`) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Span name (`analysis`, `mpisim`, `mpisim.simulate`, …).
    pub name: &'static str,
    /// Nanoseconds since the log was created.
    pub start_ns: u64,
    /// Nanoseconds since the log was created; 0 while open.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Index of a span in its [`SpanLog`].
pub type SpanId = usize;

/// A thread-safe, append-only span log.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Mutex<Vec<(SpanRec, Instant)>>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Open a span; close it with [`SpanLog::close`].
    pub fn open(&self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = Instant::now();
        let mut spans = self.spans.lock().unwrap();
        spans.push((
            SpanRec {
                name,
                start_ns: (now - self.epoch).as_nanos() as u64,
                end_ns: 0,
                parent,
            },
            now,
        ));
        spans.len() - 1
    }

    /// Close span `id` and return its duration.
    pub fn close(&self, id: SpanId) -> Duration {
        let now = Instant::now();
        let mut spans = self.spans.lock().unwrap();
        let (rec, started) = &mut spans[id];
        rec.end_ns = (now - self.epoch).as_nanos() as u64;
        now - *started
    }

    /// Run `f` inside a span; returns its value and the span's duration.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let id = self.open(name, parent);
        let v = f();
        (v, self.close(id))
    }

    /// A copy of every span recorded so far.
    pub fn snapshot(&self) -> Vec<SpanRec> {
        self.spans
            .lock()
            .unwrap()
            .iter()
            .map(|(r, _)| r.clone())
            .collect()
    }
}

/// Milliseconds of a duration, with full precision.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_close() {
        let log = SpanLog::new();
        let outer = log.open("outer", None);
        let ((), inner) = log.time("inner", Some(outer), || {});
        let total = log.close(outer);
        assert!(inner <= total);
        let spans = log.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
    }
}
