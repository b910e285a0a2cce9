//! In-memory spans for the traced run.
//!
//! A span records one call across a layer boundary: its name, start and end
//! (nanoseconds since the tracer started), its parent span and the plan unit
//! it belongs to. Spans live in a thread-local buffer — the traced run is
//! single-threaded — so decorators deep inside a call can record spans
//! without any plumbing; [`finish`] hands them back when the run ends.
//!
//! Memory-model calls are far too many to keep one span each (a figure grid
//! makes millions of them); [`crate::timed::TimedModel`] aggregates them into
//! per-method counters instead.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

use simkit::json::Json;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Boundary name, e.g. `system.run`.
    pub name: &'static str,
    /// Index into [`Trace::units`] of the unit this span belongs to.
    pub unit: Option<usize>,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer started.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer started.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Everything one traced run recorded.
#[derive(Debug, Default, Clone)]
pub struct Trace {
    /// Spans in opening order.
    pub spans: Vec<Span>,
    /// Unit labels, indexed by [`Span::unit`].
    pub units: Vec<String>,
}

struct Tracer {
    epoch: Instant,
    trace: Trace,
    open: Vec<usize>,
    unit: Option<usize>,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts recording on this thread, discarding anything recorded before.
pub fn start() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            epoch: Instant::now(),
            trace: Trace::default(),
            open: Vec::new(),
            unit: None,
        })
    });
}

/// Stops recording and returns what was recorded (empty if never started).
pub fn finish() -> Trace {
    TRACER.with(|t| t.borrow_mut().take().map(|t| t.trace).unwrap_or_default())
}

/// Runs `f` with recording suspended on this thread.
pub fn untraced<R>(f: impl FnOnce() -> R) -> R {
    let saved = TRACER.with(|t| t.borrow_mut().take());
    let result = f();
    TRACER.with(|t| *t.borrow_mut() = saved);
    result
}

/// Runs `f` inside a span named `name`; a plain call when not recording.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let id = TRACER.with(|t| {
        t.borrow_mut().as_mut().map(|tracer| {
            let id = tracer.trace.spans.len();
            let now = tracer.epoch.elapsed().as_nanos() as u64;
            tracer.trace.spans.push(Span {
                name,
                unit: tracer.unit,
                parent: tracer.open.last().copied(),
                start_ns: now,
                end_ns: now,
            });
            tracer.open.push(id);
            id
        })
    });
    let result = f();
    if let Some(id) = id {
        TRACER.with(|t| {
            if let Some(tracer) = t.borrow_mut().as_mut() {
                tracer.trace.spans[id].end_ns = tracer.epoch.elapsed().as_nanos() as u64;
                tracer.open.pop();
            }
        });
    }
    result
}

/// Runs `f` with every span it opens tagged with the unit `label`.
pub fn in_unit<R>(label: impl FnOnce() -> String, f: impl FnOnce() -> R) -> R {
    let previous = TRACER.with(|t| {
        t.borrow_mut().as_mut().map(|tracer| {
            tracer.trace.units.push(label());
            let unit = tracer.trace.units.len() - 1;
            tracer.unit.replace(unit)
        })
    });
    let result = f();
    if let Some(previous) = previous {
        TRACER.with(|t| {
            if let Some(tracer) = t.borrow_mut().as_mut() {
                tracer.unit = previous;
            }
        });
    }
    result
}

/// Call count, total and self time of every span with one name.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Totals {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations, nanoseconds.
    pub total_ns: u64,
    /// Summed durations minus the parts covered by child spans.
    pub self_ns: u64,
}

impl Trace {
    /// Per-name totals. Self time subtracts each span's children, which
    /// never overlap on one thread.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut totals: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = totals.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += span.duration_ns();
            entry.self_ns += span.duration_ns() - children;
        }
        totals
    }

    /// Summed duration of the spans named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .sum()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for (id, span) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            let unit = span.unit.map_or("null".to_string(), |u| {
                Json::Str(self.units[u].clone()).to_string_compact()
            });
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{},\"unit\":{unit},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                span.name,
                opt(span.parent),
                span.start_ns,
                span.end_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_units_tag_spans() {
        start();
        span("outer", || {
            in_unit(
                || "u0".to_string(),
                || {
                    span("inner", || {
                        std::thread::sleep(std::time::Duration::from_millis(2))
                    })
                },
            )
        });
        let trace = finish();
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.spans[1].parent, Some(0));
        assert_eq!(trace.spans[1].unit, Some(0));
        assert_eq!(trace.spans[0].unit, None);
        let totals = trace.totals();
        let outer = totals["outer"];
        let inner = totals["inner"];
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(inner.self_ns, inner.total_ns);
        // Not recording: spans are plain calls.
        assert_eq!(span("x", || 7), 7);
        assert!(finish().spans.is_empty());
    }
}
