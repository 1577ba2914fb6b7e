//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is `(name, start, end, parent, thread)`. Spans are recorded by
//! the benchmark's own wrappers, kept in memory, and written out when the
//! run ends. A disabled tracer hands out inert guards that never read the
//! clock, so the untraced run executes the same code without the cost.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde::Value;

/// One finished span.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    /// Position in the tracer's id sequence.
    pub id: u32,
    /// `layer.operation`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The enclosing span on the same thread, else the running phase.
    pub parent: Option<u32>,
    /// Small per-process thread number (0 is the first thread that traced).
    pub thread: u32,
}

impl SpanRec {
    /// `end − start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Span recorder shared by every thread of a run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU32,
    /// Id + 1 of the running phase span; 0 when no phase is open.
    phase: AtomicU32,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    /// A tracer that records.
    pub fn enabled() -> Self {
        Self::new(true)
    }

    /// A tracer whose spans are inert.
    pub fn disabled() -> Self {
        Self::new(false)
    }

    fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            phase: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the tracer was created (0 when disabled).
    pub fn now_ns(&self) -> u64 {
        if self.enabled {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Opens a span that closes when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard { live: None };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let parent = stack.last().copied();
            stack.push(id);
            parent
        });
        let parent = parent.or_else(|| self.phase.load(Ordering::SeqCst).checked_sub(1));
        SpanGuard {
            live: Some(LiveSpan {
                tracer: self,
                id,
                name,
                parent,
                phase: false,
                start_ns: self.now_ns(),
            }),
        }
    }

    /// Opens a phase: a root span that also adopts every span other
    /// threads open while it runs and that has no parent of its own.
    pub fn phase(&self, name: &'static str) -> SpanGuard<'_> {
        let mut guard = self.span(name);
        if let Some(live) = guard.live.as_mut() {
            live.phase = true;
            self.phase.store(live.id + 1, Ordering::SeqCst);
        }
        guard
    }

    /// Every finished span so far, in the order they ended.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }
}

#[derive(Debug)]
struct LiveSpan<'a> {
    tracer: &'a Tracer,
    id: u32,
    name: &'static str,
    parent: Option<u32>,
    phase: bool,
    start_ns: u64,
}

/// Closes its span on drop.
#[derive(Debug)]
#[must_use = "a span ends when its guard drops"]
pub struct SpanGuard<'a> {
    live: Option<LiveSpan<'a>>,
}

impl SpanGuard<'_> {
    /// Ends the span now.
    pub fn end(self) {}

    /// Files the span under another name (a wait that turned out idle).
    pub fn rename(&mut self, name: &'static str) {
        if let Some(live) = self.live.as_mut() {
            live.name = name;
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else {
            return;
        };
        let end_ns = live.tracer.now_ns();
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(at) = stack.iter().rposition(|id| *id == live.id) {
                stack.truncate(at);
            }
        });
        if live.phase {
            live.tracer.phase.store(0, Ordering::SeqCst);
        }
        let rec = SpanRec {
            id: live.id,
            name: live.name,
            start_ns: live.start_ns,
            end_ns,
            parent: live.parent,
            thread: THREAD.with(|t| *t),
        };
        if let Ok(mut spans) = live.tracer.spans.lock() {
            spans.push(rec);
        }
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Default)]
pub struct SpanTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their durations minus what their same-thread children cover.
    pub self_ns: u64,
    /// Every duration, for percentiles.
    pub durations_ns: Vec<u64>,
}

impl SpanTotals {
    /// Total in seconds.
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }
}

/// Self time and totals per span name.
///
/// A span's self time is its duration minus the time its children *on the
/// same thread* cover: spans that other threads open while a phase runs
/// are adopted by the phase but run in parallel with it, so they take
/// nothing away from it.
pub fn totals_by_name(spans: &[SpanRec]) -> BTreeMap<&'static str, SpanTotals> {
    let mut thread_of = vec![u32::MAX; spans.iter().map(|s| s.id + 1).max().unwrap_or(0) as usize];
    for span in spans {
        thread_of[span.id as usize] = span.thread;
    }
    let mut child_ns = vec![0u64; thread_of.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            if thread_of[parent as usize] == span.thread {
                child_ns[parent as usize] += span.duration_ns();
            }
        }
    }
    let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for span in spans {
        let entry = totals.entry(span.name).or_default();
        let duration = span.duration_ns();
        entry.count += 1;
        entry.total_ns += duration;
        entry.self_ns += duration.saturating_sub(child_ns[span.id as usize]);
        entry.durations_ns.push(duration);
    }
    totals
}

/// The spans as a JSON array, one object per span.
pub fn spans_to_json(spans: &[SpanRec]) -> Value {
    Value::Array(
        spans
            .iter()
            .map(|span| {
                Value::Object(vec![
                    ("id".into(), Value::UInt(u64::from(span.id))),
                    ("name".into(), Value::String(span.name.into())),
                    ("start_ns".into(), Value::UInt(span.start_ns)),
                    ("end_ns".into(), Value::UInt(span.end_ns)),
                    (
                        "parent".into(),
                        span.parent
                            .map_or(Value::Null, |p| Value::UInt(u64::from(p))),
                    ),
                    ("thread".into(), Value::UInt(u64::from(span.thread))),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        {
            let _phase = tracer.phase("phase");
            let _span = tracer.span("layer.op");
        }
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_same_thread_children_only() {
        let tracer = Tracer::enabled();
        {
            let _phase = tracer.phase("phase");
            {
                let _child = tracer.span("layer.child");
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let _other = tracer.span("layer.other_thread");
                    std::thread::sleep(std::time::Duration::from_millis(5));
                });
            });
        }
        let spans = tracer.spans();
        let phase = spans.iter().find(|s| s.name == "phase").unwrap();
        let other = spans
            .iter()
            .find(|s| s.name == "layer.other_thread")
            .unwrap();
        assert_eq!(other.parent, Some(phase.id), "adopted by the phase");
        assert_ne!(other.thread, phase.thread);
        let totals = totals_by_name(&spans);
        let child = &totals["layer.child"];
        let phase_totals = &totals["phase"];
        assert_eq!(
            phase_totals.self_ns,
            phase_totals.total_ns - child.total_ns,
            "only the same-thread child is subtracted"
        );
    }
}
