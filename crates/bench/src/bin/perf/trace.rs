//! In-memory spans recorded from benchmark code only, written once at exit
//! as Chrome-trace JSON (`chrome://tracing`, Perfetto).
//!
//! Every workload has one driver thread and every span is opened on it, so
//! the recorder is single-threaded: a `Vec` of spans and a stack of open
//! ones behind `RefCell`s, shared through an `Rc`.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use crate::report::{json_number, json_string};

/// One closed interval of work at a layer boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Spans of one step share `(epoch, step)`.
    pub epoch: u32,
    pub step: u32,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    id: Cell<(u32, u32)>,
    /// Cleared for the untraced half of a traced run, so decorators that
    /// hold a handle stop recording without being rebuilt.
    enabled: Cell<bool>,
}

/// `None` is the untraced run: every `span` call is then a branch and
/// nothing else.
pub type Trace = Option<Rc<Tracer>>;

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    trace: &'a Trace,
    index: Option<usize>,
}

impl Tracer {
    pub fn new() -> Rc<Tracer> {
        Rc::new(Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            id: Cell::new((0, 0)),
            enabled: Cell::new(true),
        })
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    fn open_span(&self, name: &'static str) -> usize {
        let (epoch, step) = self.id.get();
        let mut spans = self.spans.borrow_mut();
        let index = spans.len();
        let parent = self.open.borrow().last().copied();
        let now = self.now_us();
        spans.push(Span { name, start_us: now, end_us: now, parent, epoch, step });
        self.open.borrow_mut().push(index);
        index
    }

    fn close_span(&self, index: usize) {
        let now = self.now_us();
        self.spans.borrow_mut()[index].end_us = now;
        let mut open = self.open.borrow_mut();
        if let Some(pos) = open.iter().rposition(|&i| i == index) {
            open.truncate(pos);
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Sets the `(epoch, step)` id stamped on spans opened from now on.
pub fn set_id(trace: &Trace, epoch: u32, step: u32) {
    if let Some(t) = trace {
        t.id.set((epoch, step));
    }
}

pub fn set_enabled(trace: &Trace, enabled: bool) {
    if let Some(t) = trace {
        t.enabled.set(enabled);
    }
}

/// Opens a span; pass the result to [`end`]. `None` when nothing records.
pub fn begin(trace: &Trace, name: &'static str) -> Option<usize> {
    trace.as_ref().filter(|t| t.enabled.get()).map(|t| t.open_span(name))
}

/// Closes a span opened by [`begin`], and any span still open inside it.
pub fn end(trace: &Trace, index: Option<usize>) {
    if let (Some(t), Some(i)) = (trace, index) {
        t.close_span(i);
    }
}

/// Opens a span that lasts until the returned guard drops.
pub fn span<'a>(trace: &'a Trace, name: &'static str) -> SpanGuard<'a> {
    SpanGuard { trace, index: begin(trace, name) }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        end(self.trace, self.index.take());
    }
}

/// Renders spans as Chrome-trace "complete" events. `extra` is spliced in
/// as further top-level members (the per-layer table), which trace viewers
/// ignore.
pub fn chrome_trace_json(spans: &[Span], extra: &[(String, String)]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "\n{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{},\"dur\":{},\
             \"args\":{{\"span\":{i},\"parent\":{parent},\"epoch\":{},\"step\":{}}}}}",
            json_string(s.name),
            json_number(s.start_us),
            json_number((s.end_us - s.start_us).max(0.0)),
            s.epoch,
            s.step,
        ));
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"");
    for (key, value) in extra {
        out.push_str(&format!(",\n{}:{value}", json_string(key)));
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent_and_id() {
        let trace: Trace = Some(Tracer::new());
        set_id(&trace, 3, 7);
        {
            let _outer = span(&trace, "step");
            let _inner = span(&trace, "fetch");
        }
        let _sibling = span(&trace, "next");
        drop(_sibling);
        let spans = trace.as_ref().unwrap().spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert_eq!((spans[1].epoch, spans[1].step), (3, 7));
        assert!(spans[0].end_us >= spans[1].end_us);
    }

    #[test]
    fn untraced_runs_record_nothing() {
        let trace: Trace = None;
        let _g = span(&trace, "anything");
        set_id(&trace, 1, 1);
        assert_eq!(begin(&trace, "more"), None);

        let paused: Trace = Some(Tracer::new());
        set_enabled(&paused, false);
        drop(span(&paused, "skipped"));
        set_enabled(&paused, true);
        drop(span(&paused, "kept"));
        let names: Vec<_> = paused.as_ref().unwrap().spans().iter().map(|s| s.name).collect();
        assert_eq!(names, ["kept"]);
    }

    #[test]
    fn chrome_trace_is_balanced_json() {
        let spans = vec![Span {
            name: "a\"b",
            start_us: 1.5,
            end_us: 4.0,
            parent: None,
            epoch: 0,
            step: 2,
        }];
        let json = chrome_trace_json(&spans, &[("per_layer".to_string(), "{}".to_string())]);
        assert!(json.contains("\"name\":\"a\\\"b\""));
        assert!(json.contains("\"dur\":2.5"));
        assert!(json.contains("\"per_layer\":{}"));
        let opens = json.matches('{').count();
        assert_eq!(opens, json.matches('}').count());
    }
}
