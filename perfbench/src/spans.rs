//! In-memory span tracing around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, the span that was open when it
//! started (its parent) and an operation id shared by every span of one
//! timed operation. Spans stay in memory until the run ends; a layer's
//! self time is its spans' durations minus the parts their child spans
//! cover. With tracing off, [`Tracer::span`] only calls the closure.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `hwsim.record_run` or `op.seek`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation id shared by all spans of one timed operation.
    pub op: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans when enabled.
pub struct Tracer {
    enabled: Cell<bool>,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    next_op: Cell<u64>,
}

impl Tracer {
    /// A tracer, switched off until [`Tracer::set_enabled`].
    pub fn new() -> Self {
        Tracer {
            enabled: Cell::new(false),
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            next_op: Cell::new(0),
        }
    }

    /// Switches recording on or off for the spans opened from now on.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.set(enabled);
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled.get()
    }

    /// Runs `f` as a new operation: a root span under a fresh op id.
    pub fn op<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if self.enabled() {
            self.next_op.set(self.next_op.get() + 1);
        }
        self.span(name, f)
    }

    /// Runs `f` inside a span named `name`, a child of the open span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled() {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                op: self.next_op.get(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end_ns = self.now_ns();
        out
    }

    /// Number of spans recorded so far; pass it to [`Tracer::since`] to
    /// look at the spans of one stretch of work.
    pub fn mark(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Copies of the spans recorded since `mark`.
    pub fn since(&self, mark: usize) -> Vec<Span> {
        self.spans.borrow()[mark..].to_vec()
    }

    /// Every span recorded, rendered one JSON object per line.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Self time per span name, in seconds: each span's duration minus the
/// durations of its direct children. Parent indices refer to positions in
/// `spans`, whose first element may itself have a parent outside the
/// slice (such parents are ignored).
pub fn self_times(spans: &[Span], base: usize) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| p.checked_sub(base)) {
            if let Some(slot) = child_ns.get_mut(p) {
                *slot += s.duration_ns();
            }
        }
    }
    let mut out = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let own = s.duration_ns().saturating_sub(children);
        *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // op [0,100] ⊃ build [0,10], verify [10,90] ⊃ build [20,30], build [40,55]
        let spans = [
            span("op.bisect", 0, 100, None),
            span("apps.build", 0, 10, Some(0)),
            span("snap.verify", 10, 90, Some(0)),
            span("apps.build", 20, 30, Some(2)),
            span("apps.build", 40, 55, Some(2)),
        ];
        let t = self_times(&spans, 0);
        let ns = |name| (t[name] * 1e9).round() as u64;
        assert_eq!(ns("op.bisect"), 10);
        assert_eq!(ns("snap.verify"), 55);
        assert_eq!(ns("apps.build"), 35);
        // Self times partition the root's wall time.
        assert!((t.values().sum::<f64>() - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn self_time_handles_a_slice_starting_mid_trace() {
        let spans = [
            span("op.seek", 50, 80, Some(3)),
            span("snap.replay_from", 60, 75, Some(7)),
        ];
        let t = self_times(&spans, 7);
        assert_eq!((t["op.seek"] * 1e9).round() as u64, 15);
        assert_eq!((t["snap.replay_from"] * 1e9).round() as u64, 15);
    }

    #[test]
    fn tracer_records_parents_and_op_ids() {
        let t = Tracer::new();
        t.set_enabled(true);
        t.op("op.a", || t.span("x.inner", || ()));
        t.op("op.b", || ());
        let spans = t.since(0);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].op, spans[1].op);
        assert_ne!(spans[0].op, spans[2].op);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let off = Tracer::new();
        assert_eq!(off.op("op.a", || 7), 7);
        assert_eq!(off.mark(), 0);
    }
}
