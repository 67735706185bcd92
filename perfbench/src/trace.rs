//! Spans recorded by the benchmark around each public call it makes.
//!
//! A [`Tracer`] keeps spans in memory (name, parent, start, end) and is
//! written out once the run ends. A span's *self time* is its duration
//! minus the durations of its direct children. The disabled tracer runs
//! the closures and records nothing, so the untraced pass executes the
//! same code with no bookkeeping.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span; times are seconds since the tracer was created.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `routing.engine.splicer`.
    pub name: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, seconds since the tracer's origin.
    pub start_s: f64,
    /// End, seconds since the tracer's origin.
    pub end_s: f64,
}

impl Span {
    /// Wall seconds the span covers.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Per-name aggregate of recorded spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed duration.
    pub total_s: f64,
    /// Summed self time (duration minus direct children).
    pub self_s: f64,
}

/// In-memory span recorder; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans.
    pub fn enabled() -> Tracer {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::enabled()
        }
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_s = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_s,
            end_s: start_s,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_s = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Seconds covered by the outermost spans.
    pub fn traced_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_s)
            .sum()
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<String, SpanTotals> {
        let mut child_s = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_s[p] += span.duration_s();
            }
        }
        let mut out: BTreeMap<String, SpanTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_s) {
            let t = out.entry(span.name.clone()).or_default();
            t.count += 1;
            t.total_s += span.duration_s();
            t.self_s += span.duration_s() - children;
        }
        out
    }

    /// Writes the spans as JSON lines, one span per line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out`.
    pub fn write_jsonl(&self, mut out: impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_s\":{},\"end_s\":{}}}",
                s.name, s.start_s, s.end_s
            )?;
        }
        out.flush()
    }
}

/// Mean seconds of one span's bookkeeping: `n` empty spans, nested one
/// level like the benchmark's, recorded by a scratch tracer. Multiplied
/// by a run's span count, it is what tracing added to that run.
pub fn span_cost_s(n: usize) -> f64 {
    let mut t = Tracer::enabled();
    let clock = Instant::now();
    t.span("calibration", |t| {
        for _ in 1..n {
            t.span("routing.engine.splicer", |_| ());
        }
    });
    clock.elapsed().as_secs_f64() / n.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children() {
        let mut t = Tracer::enabled();
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let totals = t.totals();
        let outer = totals["outer"];
        let inner = totals["inner"];
        assert_eq!(outer.count, 1);
        assert!(inner.total_s >= 0.005);
        assert!((outer.self_s - (outer.total_s - inner.total_s)).abs() < 1e-12);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.traced_s(), outer.total_s);
    }

    #[test]
    fn span_cost_is_small_and_positive() {
        let cost = span_cost_s(1_000);
        assert!(cost > 0.0 && cost < 1e-3, "{cost}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
