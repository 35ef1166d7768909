//! In-memory spans and time-stamped program events for the traced run.
//!
//! The benchmark opens a bench span around each call into a layer's public
//! functions; [`TimedChip`](crate::chip::TimedChip) adds a leaf span per chip
//! call, from whichever pool worker made it. The program's own
//! [`TraceEvent`]s arrive through the [`TraceSink`] impl and are stamped on
//! the same clock, which places them inside the bench spans. Everything stays
//! in memory until [`Recorder::write_jsonl`] at the end of the run.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use photon_trace::{TraceEvent, TraceHandle, TraceSink};

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (ids start at 1).
    pub id: u64,
    /// The bench span open when this one started (0 = none).
    pub parent: u64,
    /// Operation the span belongs to.
    pub op: u64,
    /// Layer-qualified name, e.g. `core.train` or `photonics.batch`.
    pub name: &'static str,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
    /// Work items the call covered: the batch size of a chip batch, else 1.
    pub items: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// A program event, stamped when it reached the sink.
#[derive(Debug, Clone)]
pub struct Stamped {
    /// Operation that was running.
    pub op: u64,
    /// Arrival, in ns since the recorder was created.
    pub at_ns: u64,
    /// The event as the program emitted it.
    pub event: TraceEvent,
}

/// Collects spans and events for one traced run.
#[derive(Debug)]
pub struct Recorder {
    t0: Instant,
    next_id: AtomicU64,
    /// Innermost open bench span; chip spans from pool workers take it as
    /// their parent.
    open: AtomicU64,
    op: AtomicU64,
    spans: Mutex<Vec<Span>>,
    events: Mutex<Vec<Stamped>>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Arc<Self> {
        Arc::new(Recorder {
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            open: AtomicU64::new(0),
            op: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            events: Mutex::new(Vec::new()),
        })
    }

    /// A trace handle whose events land in this recorder.
    pub fn trace_handle(self: &Arc<Self>) -> TraceHandle {
        TraceHandle::new(self.clone())
    }

    /// Tags everything recorded from now on with operation `op`.
    pub fn set_op(&self, op: u64) {
        self.op.store(op, Ordering::SeqCst);
    }

    /// Runs `f` inside a bench span named `name`.
    ///
    /// Bench spans nest by call order, so call this from the benchmark's
    /// main thread only.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let parent = self.open.swap(id, Ordering::SeqCst);
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.open.store(parent, Ordering::SeqCst);
        self.push(Span {
            id,
            parent,
            op: self.op.load(Ordering::SeqCst),
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            items: 1,
        });
        out
    }

    /// Records a leaf span from `start` to now under the open bench span.
    /// Safe to call from any thread.
    pub fn leaf(&self, name: &'static str, start: Instant, items: u64) {
        let end = Instant::now();
        self.push(Span {
            id: self.next_id.fetch_add(1, Ordering::SeqCst),
            parent: self.open.load(Ordering::SeqCst),
            op: self.op.load(Ordering::SeqCst),
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            items,
        });
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no span writer panics").clone()
    }

    /// Every event received so far, in arrival order.
    pub fn events(&self) -> Vec<Stamped> {
        self.events.lock().expect("no event writer panics").clone()
    }

    /// Writes every span and event as JSON lines to `path`.
    ///
    /// # Errors
    ///
    /// Propagates file creation and write errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = BufWriter::new(File::create(path)?);
        for s in self.spans() {
            writeln!(
                w,
                "{{\"span\":\"{}\",\"id\":{},\"parent\":{},\"op\":{},\"start_ns\":{},\"end_ns\":{},\"items\":{}}}",
                s.name, s.id, s.parent, s.op, s.start_ns, s.end_ns, s.items
            )?;
        }
        for e in self.events() {
            writeln!(
                w,
                "{{\"event\":{},\"op\":{},\"at_ns\":{}}}",
                e.event.to_json(),
                e.op,
                e.at_ns
            )?;
        }
        w.flush()
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.t0).as_nanos()).expect("runs last under 584 years")
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("no span writer panics").push(span);
    }
}

impl TraceSink for Recorder {
    fn record(&self, event: &TraceEvent) {
        let at_ns = self.ns(Instant::now());
        if let Ok(mut events) = self.events.lock() {
            events.push(Stamped {
                op: self.op.load(Ordering::SeqCst),
                at_ns,
                event: event.clone(),
            });
        }
    }
}

/// Runs `f` (inside a bench span when `rec` is given) and returns its
/// result with its wall time in seconds.
pub fn timed<T>(rec: Option<&Recorder>, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = match rec {
        Some(rec) => rec.span(name, f),
        None => f(),
    };
    (out, start.elapsed().as_secs_f64())
}

/// Nanoseconds of `[lo, hi)` covered by the union of `intervals`.
pub fn covered_ns(lo: u64, hi: u64, intervals: impl IntoIterator<Item = (u64, u64)>) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .into_iter()
        .map(|(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (a, b) in clipped {
        let a = a.max(reach);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// A span's self time in seconds: its duration minus the part of it that
/// `children` cover.
pub fn self_secs(span: &Span, children: &[&Span]) -> f64 {
    let covered = covered_ns(
        span.start_ns,
        span.end_ns,
        children.iter().map(|c| (c.start_ns, c.end_ns)),
    );
    (span.end_ns - span.start_ns - covered) as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_counts_overlaps_once() {
        assert_eq!(covered_ns(0, 100, [(10, 30), (20, 40), (50, 60)]), 40);
        assert_eq!(covered_ns(15, 55, [(10, 30), (20, 40), (50, 60)]), 30);
        assert_eq!(covered_ns(0, 10, [(20, 30)]), 0);
    }

    #[test]
    fn leaf_spans_take_the_open_bench_span_as_parent() {
        let rec = Recorder::new();
        rec.set_op(7);
        rec.span("outer", || {
            std::thread::scope(|s| {
                s.spawn(|| rec.leaf("chip", Instant::now(), 3));
            });
        });
        let spans = rec.spans();
        let outer = spans
            .iter()
            .find(|s| s.name == "outer")
            .expect("outer span");
        let chip = spans.iter().find(|s| s.name == "chip").expect("chip span");
        assert_eq!(chip.parent, outer.id);
        assert_eq!((chip.op, chip.items, outer.parent), (7, 3, 0));
    }
}
