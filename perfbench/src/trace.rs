//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into the simulator's
//! public API (no tracing is added inside the program).  Each span carries a
//! name, start, end, the span that was open when it started (its parent) and
//! the id of the cell it belongs to.  Spans stay in memory and are written
//! out once, as Chrome trace-event JSON, when the run ends.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

struct Span {
    name: &'static str,
    cell: u64,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// Records spans when enabled; when disabled every call is a no-op apart
/// from the timestamps the caller needs anyway.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Indices of the spans currently open, innermost last.
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span that encloses the spans recorded until [`Self::close`].
    pub fn open(&mut self, name: &'static str, cell: u64) {
        if !self.enabled {
            return;
        }
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            cell,
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let idx = self.open.pop().expect("close matches an open span");
        self.spans[idx].end = self.origin.elapsed();
    }

    /// Times `f` and records it as a leaf span under the innermost open span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        cell: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let start = Instant::now();
        let result = f();
        let end = Instant::now();
        if self.enabled {
            self.spans.push(Span {
                name,
                cell,
                parent: self.open.last().copied(),
                start: start.duration_since(self.origin),
                end: end.duration_since(self.origin),
            });
        }
        (result, end - start)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The recorded spans as Chrome trace-event JSON (complete `X` events;
    /// `args.span`/`args.parent` link each span to the one that caused it).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent},\"cell\":{}}}}}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                (s.end - s.start).as_secs_f64() * 1e6,
                s.cell,
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}
