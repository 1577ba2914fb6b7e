//! Window segmentation of trace streams.
//!
//! The tracing hardware delivers events in buffers of `N` consecutive
//! events; the paper's monitor uses such a buffer (or a fixed time slice,
//! 40 ms in the experiments) as its elementary processing unit.
//! [`WindowAssembler`] is the one windowing engine, in either form:
//!
//! * [`WindowAssembler::for_count`] — fixed number of events per window,
//! * [`WindowAssembler::for_time`] — fixed trace-time length per window,
//!
//! fed one event at a time ([`WindowAssembler::push`]) or wrapped around a
//! whole event iterator ([`WindowAssembler::windows`]).

use std::collections::VecDeque;
use std::convert::Infallible;
use std::iter::Fuse;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::{EventTypeId, Severity, Timestamp, TraceError, TraceEvent};

/// Sequential index of a window within a run, starting at zero.
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct WindowId(u64);

impl WindowId {
    /// Creates a window id from its raw index.
    pub const fn new(raw: u64) -> Self {
        WindowId(raw)
    }

    /// The raw index of this window.
    pub const fn index(self) -> u64 {
        self.0
    }

    /// The id of the window following this one.
    pub const fn next(self) -> WindowId {
        WindowId(self.0 + 1)
    }
}

impl std::fmt::Display for WindowId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "window#{}", self.0)
    }
}

/// A contiguous slice of the trace: the monitor's elementary processing
/// unit.
///
/// A window owns its events so it can be recorded (or dropped) wholesale
/// once the anomaly decision has been made.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Window {
    /// Sequential index of this window in the run.
    pub id: WindowId,
    /// Timestamp at which the window starts (inclusive).
    pub start: Timestamp,
    /// Timestamp at which the window ends (exclusive, except that a window
    /// ending at [`Timestamp::MAX`] holds the events at it); for
    /// count-based windows this is the timestamp of the last event plus
    /// one nanosecond.
    pub end: Timestamp,
    /// The events that fall inside the window, in timestamp order.
    pub events: Vec<TraceEvent>,
}

impl Window {
    /// Creates a window from its parts.
    pub fn new(id: WindowId, start: Timestamp, end: Timestamp, events: Vec<TraceEvent>) -> Self {
        Window {
            id,
            start,
            end,
            events,
        }
    }

    /// Number of events in the window.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the window contains no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Trace-time span covered by the window.
    pub fn duration(&self) -> Duration {
        self.end.saturating_since(self.start)
    }

    /// The midpoint of the window, used when matching windows against
    /// ground-truth intervals.
    pub fn midpoint(&self) -> Timestamp {
        // The mean of two `u64`s fits a `u64`; their sum may not.
        let sum = u128::from(self.start.as_nanos()) + u128::from(self.end.as_nanos());
        Timestamp::from_nanos((sum / 2) as u64)
    }

    /// Counts occurrences of each event type, producing a dense vector of
    /// length `dimensions`.
    ///
    /// Event types whose index is `>= dimensions` are counted in the last
    /// bucket so that information is not silently lost when a trace
    /// contains types unknown to the reference registry.
    ///
    /// # Panics
    ///
    /// Panics if `dimensions` is zero.
    pub fn type_counts(&self, dimensions: usize) -> Vec<u64> {
        let mut counts = Vec::new();
        self.type_counts_into(dimensions, &mut counts);
        counts
    }

    /// Like [`Window::type_counts`], but reusing the caller's buffer —
    /// `counts` is cleared and resized to `dimensions`. Hot monitoring
    /// loops call this once per window, so avoiding the allocation matters
    /// at fleet scale.
    ///
    /// # Panics
    ///
    /// Panics if `dimensions` is zero.
    pub fn type_counts_into(&self, dimensions: usize, counts: &mut Vec<u64>) {
        assert!(dimensions > 0, "dimensions must be non-zero");
        counts.clear();
        counts.resize(dimensions, 0);
        for ev in &self.events {
            let idx = ev.event_type.index().min(dimensions - 1);
            counts[idx] += 1;
        }
    }

    /// Number of events of exactly the given type.
    pub fn count_of(&self, event_type: EventTypeId) -> usize {
        self.events
            .iter()
            .filter(|ev| ev.event_type == event_type)
            .count()
    }

    /// Number of events at or above the given severity.
    pub fn count_at_least(&self, severity: Severity) -> usize {
        self.events
            .iter()
            .filter(|ev| ev.severity >= severity)
            .count()
    }

    /// Whether the window contains at least one error-severity event.
    pub fn has_error(&self) -> bool {
        self.events.iter().any(TraceEvent::is_error)
    }

    /// Raw encoded size of the window's events, used for trace-volume
    /// accounting (see [`TraceEvent::RAW_ENCODED_SIZE`]).
    pub fn raw_size_bytes(&self) -> usize {
        self.events.len() * TraceEvent::RAW_ENCODED_SIZE
    }
}

/// Where [`WindowAssembler`] closes a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Boundary {
    /// After this many events.
    Count(usize),
    /// At the end of a slot this many nanoseconds long.
    Time(u64),
}

/// Incremental, push-based window assembly: feed events one at a time,
/// closed windows are handed to a callback as soon as their boundary is
/// reached.
///
/// This is the engine behind both the pull-based [`WindowIter`]
/// ([`WindowAssembler::windows`]) and the streaming `ReductionSession` in
/// `endurance-core`: there is exactly one windowing implementation, so
/// pushing a stream event-by-event yields the same window sequence as
/// iterating it in one batch.
///
/// Memory is bounded by the current (open) window: closed windows are moved
/// out immediately.
///
/// ```rust
/// use trace_model::window::WindowAssembler;
/// use trace_model::{EventTypeId, TraceEvent, Timestamp};
///
/// let mut assembler = WindowAssembler::for_count(2).unwrap();
/// let mut closed = Vec::new();
/// for i in 0..5u64 {
///     let ev = TraceEvent::new(Timestamp::from_millis(i), EventTypeId::new(0), 0);
///     assembler
///         .push::<std::convert::Infallible>(ev, &mut |w| {
///             closed.push(w);
///             Ok(())
///         })
///         .unwrap();
/// }
/// assert_eq!(closed.len(), 2);
/// let trailing = assembler.finish().expect("one partial window remains");
/// assert_eq!(trailing.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct WindowAssembler {
    boundary: Boundary,
    next_id: WindowId,
    /// Events of the currently open window.
    buf: Vec<TraceEvent>,
    /// Recycled window buffer ([`WindowAssembler::recycle`]): the next
    /// window to close starts from this capacity instead of regrowing
    /// from empty, so a steady-state push loop stops allocating.
    spare: Vec<TraceEvent>,
    /// Start of the currently open window (time-based mode only).
    window_start: Timestamp,
    started: bool,
}

impl WindowAssembler {
    /// Creates an assembler emitting windows of exactly `size` events (the
    /// final window of a trace may be shorter).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidWindowConfig`] if `size` is zero.
    pub fn for_count(size: usize) -> Result<Self, TraceError> {
        if size == 0 {
            return Err(TraceError::InvalidWindowConfig(
                "count window size must be at least 1".into(),
            ));
        }
        Ok(WindowAssembler::new(Boundary::Count(size)))
    }

    /// Creates an assembler emitting windows covering `duration` of trace
    /// time each, aligned down to a multiple of `duration` from the first
    /// event. Gaps in the stream produce empty windows so window indexes
    /// stay aligned with trace time; empty windows mean "no activity",
    /// not a skipped slot.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidWindowConfig`] if `duration` is zero
    /// or does not fit a [`Timestamp`] (2^64 ns, about 584 years, or
    /// more).
    pub fn for_time(duration: Duration) -> Result<Self, TraceError> {
        match u64::try_from(duration.as_nanos()) {
            Ok(0) => Err(TraceError::InvalidWindowConfig(
                "time window duration must be non-zero".into(),
            )),
            Ok(nanos) => Ok(WindowAssembler::new(Boundary::Time(nanos))),
            Err(_) => Err(TraceError::InvalidWindowConfig(format!(
                "time window duration must be under 2^64 ns, got {duration:?}"
            ))),
        }
    }

    /// Wraps an event iterator into the iterator of its windows, the
    /// trailing partial window included: the pull form of
    /// [`WindowAssembler::push`] and [`WindowAssembler::finish`], yielding
    /// exactly the windows they would emit.
    pub fn windows<I>(self, events: I) -> WindowIter<I::IntoIter>
    where
        I: IntoIterator<Item = TraceEvent>,
    {
        WindowIter {
            events: events.into_iter().fuse(),
            assembler: self,
            ready: VecDeque::new(),
        }
    }

    fn new(boundary: Boundary) -> Self {
        WindowAssembler {
            boundary,
            next_id: WindowId::new(0),
            buf: Vec::new(),
            spare: Vec::new(),
            window_start: Timestamp::ZERO,
            started: false,
        }
    }

    /// Hands a spent window's event buffer back to the assembler.
    ///
    /// The buffer is cleared and kept as the backing store of a future
    /// window (the larger of the offered buffer and the current spare
    /// wins), so a caller that recycles every window it consumes runs
    /// the steady-state push loop without per-window allocations.
    pub fn recycle(&mut self, mut buf: Vec<TraceEvent>) {
        buf.clear();
        if buf.capacity() > self.spare.capacity() {
            self.spare = buf;
        }
    }

    /// Number of events buffered in the currently open window.
    pub fn buffered_events(&self) -> usize {
        self.buf.len()
    }

    /// Pushes one event, invoking `emit` for every window this closes
    /// (several when a time gap produces empty windows). `emit` may fail;
    /// the first error is propagated and the event is still consumed —
    /// it is filed into its correct window slot so the assembler's
    /// boundaries stay consistent and subsequent pushes continue in the
    /// next slot. The window handed to the failing `emit` call (and, for
    /// count windows, the events inside it) cannot be replayed; gap
    /// windows closed after a failure are necessarily empty and are
    /// dropped.
    ///
    /// **Out-of-order tolerance** (`docs/SCENARIOS.md` §6): events should
    /// arrive in non-decreasing timestamp order, but real fleet feeds
    /// reorder, duplicate and regress timestamps. The assembler never
    /// fails or panics on such input: a late event is filed into the
    /// window *open at its arrival* (it never reopens an already closed
    /// window), duplicates are kept (two identical events are two
    /// events), and when a window closes its contents are stably sorted
    /// by timestamp so downstream consumers (pmfs, codecs, stores) always
    /// see ordered events. Window *assignment* is therefore a
    /// deterministic function of the arrival sequence.
    ///
    /// # Errors
    ///
    /// Propagates the first error returned by `emit`.
    pub fn push<E>(
        &mut self,
        event: TraceEvent,
        emit: &mut dyn FnMut(Window) -> Result<(), E>,
    ) -> Result<(), E> {
        match self.boundary {
            Boundary::Count(size) => {
                self.buf.push(event);
                if self.buf.len() >= size {
                    let window = self.close_count_window();
                    emit(window)?;
                }
                Ok(())
            }
            Boundary::Time(length) => {
                let at = event.timestamp.as_nanos();
                if !self.started {
                    self.window_start = Timestamp::from_nanos(at / length * length);
                    self.started = true;
                }
                // Close every window (possibly empty gap windows) that ends
                // at or before this event. On emit failure keep closing —
                // the remaining gap windows are empty (the buffer drained
                // into the first close) — so the event below still lands
                // in its correct slot. Measured from the window's start, a
                // slot whose end would pass `Timestamp::MAX` never ends: it
                // holds every later event (docs/SCENARIOS.md §6).
                let mut failure: Option<E> = None;
                while at.saturating_sub(self.window_start.as_nanos()) >= length {
                    let window = self.close_time_window(length);
                    if failure.is_none() {
                        if let Err(error) = emit(window) {
                            failure = Some(error);
                        }
                    }
                }
                self.buf.push(event);
                match failure {
                    Some(error) => Err(error),
                    None => Ok(()),
                }
            }
        }
    }

    /// Flushes the trailing partial window, if any events are buffered.
    ///
    /// The assembler is reusable afterwards: window ids keep counting up
    /// and time windows continue from the next slot.
    pub fn finish(&mut self) -> Option<Window> {
        if self.buf.is_empty() {
            return None;
        }
        let window = match self.boundary {
            Boundary::Count(_) => self.close_count_window(),
            Boundary::Time(length) => self.close_time_window(length),
        };
        Some(window)
    }

    /// Whether `events` is already in non-decreasing timestamp order —
    /// the common case, where closing a window can skip the (allocating)
    /// stable sort entirely.
    fn is_ordered(events: &[TraceEvent]) -> bool {
        events
            .windows(2)
            .all(|pair| pair[0].timestamp <= pair[1].timestamp)
    }

    fn close_count_window(&mut self) -> Window {
        let mut buf = std::mem::replace(&mut self.buf, std::mem::take(&mut self.spare));
        // Stable, so same-timestamp events (duplicates, simultaneous
        // arrivals) keep their arrival order — see the push() tolerance
        // contract. Skipped when arrivals were already ordered: a stable
        // sort allocates its merge buffer even on sorted input, and the
        // ordered case is the steady state.
        if !Self::is_ordered(&buf) {
            buf.sort_by_key(|ev| ev.timestamp);
        }
        let start = buf
            .first()
            .map(|ev| ev.timestamp)
            .unwrap_or(Timestamp::ZERO);
        let end = buf
            .last()
            .map(|ev| Timestamp::from_nanos(ev.timestamp.as_nanos().saturating_add(1)))
            .unwrap_or(start);
        let id = self.next_id;
        self.next_id = id.next();
        Window::new(id, start, end, buf)
    }

    fn close_time_window(&mut self, length: u64) -> Window {
        let mut buf = std::mem::replace(&mut self.buf, std::mem::take(&mut self.spare));
        if !Self::is_ordered(&buf) {
            buf.sort_by_key(|ev| ev.timestamp);
        }
        let start = self.window_start;
        let end = Timestamp::from_nanos(start.as_nanos().saturating_add(length));
        self.window_start = end;
        let id = self.next_id;
        self.next_id = id.next();
        Window::new(id, start, end, buf)
    }
}

/// Iterator over the windows of an event iterator, made by
/// [`WindowAssembler::windows`].
#[derive(Debug)]
pub struct WindowIter<I> {
    events: Fuse<I>,
    assembler: WindowAssembler,
    /// Windows closed by the last push but not yet yielded (time gaps can
    /// close several windows per event).
    ready: VecDeque<Window>,
}

impl<I> Iterator for WindowIter<I>
where
    I: Iterator<Item = TraceEvent>,
{
    type Item = Window;

    fn next(&mut self) -> Option<Window> {
        while self.ready.is_empty() {
            let Some(event) = self.events.next() else {
                return self.assembler.finish();
            };
            let ready = &mut self.ready;
            let pushed = self.assembler.push::<Infallible>(event, &mut |window| {
                ready.push_back(window);
                Ok(())
            });
            if let Err(never) = pushed {
                match never {}
            }
        }
        self.ready.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventTypeId;

    fn ev_at(ms: u64, ty: u16) -> TraceEvent {
        TraceEvent::new(Timestamp::from_millis(ms), EventTypeId::new(ty), 0)
    }

    fn time_windows(millis: u64, events: Vec<TraceEvent>) -> Vec<Window> {
        WindowAssembler::for_time(Duration::from_millis(millis))
            .unwrap()
            .windows(events)
            .collect()
    }

    #[test]
    fn a_count_window_needs_an_event() {
        assert!(matches!(
            WindowAssembler::for_count(0),
            Err(TraceError::InvalidWindowConfig(_))
        ));
        assert!(WindowAssembler::for_count(5).is_ok());
    }

    #[test]
    fn a_time_window_is_longer_than_zero_and_shorter_than_2_pow_64_ns() {
        let refused = [
            Duration::ZERO,
            Duration::from_nanos(u64::MAX) + Duration::from_nanos(1),
            Duration::MAX,
        ];
        for duration in refused {
            assert!(
                matches!(
                    WindowAssembler::for_time(duration),
                    Err(TraceError::InvalidWindowConfig(_))
                ),
                "{duration:?}"
            );
        }
        // The longest length there is: one slot up to the end of time,
        // which then holds the events at `Timestamp::MAX` too.
        let at = |nanos| TraceEvent::new(Timestamp::from_nanos(nanos), EventTypeId::new(0), 0);
        let windows: Vec<_> = WindowAssembler::for_time(Duration::from_nanos(u64::MAX))
            .unwrap()
            .windows([at(7), at(u64::MAX), at(u64::MAX)])
            .collect();
        assert_eq!(windows.len(), 2);
        assert_eq!(
            (windows[0].start, windows[0].end),
            (Timestamp::ZERO, Timestamp::MAX)
        );
        assert_eq!(windows[0].len(), 1);
        assert_eq!(
            (windows[1].start, windows[1].end),
            (Timestamp::MAX, Timestamp::MAX)
        );
        assert_eq!(windows[1].len(), 2);
    }

    #[test]
    fn the_last_time_slot_holds_every_later_event() {
        // 10 ns slots: `u64::MAX` ends in 5, so the last whole slot is
        // [MAX - 15, MAX - 5) and the one after it would end past MAX.
        let mut assembler = WindowAssembler::for_time(Duration::from_nanos(10)).unwrap();
        let mut closed = Vec::new();
        for back in [25, 12, 2, 0, 0, 1] {
            let event = TraceEvent::new(
                Timestamp::from_nanos(u64::MAX - back),
                EventTypeId::new(0),
                back as u32,
            );
            assembler
                .push(event, &mut |window| {
                    // A slot that never ends would close forever here.
                    assert!(closed.len() < 2, "a window closed past the end of time");
                    closed.push(window);
                    Ok::<(), Infallible>(())
                })
                .unwrap();
        }
        let ranges: Vec<_> = closed.iter().map(|w| (w.start, w.end, w.len())).collect();
        let at = |back| Timestamp::from_nanos(u64::MAX - back);
        assert_eq!(ranges, vec![(at(25), at(15), 1), (at(15), at(5), 1)]);
        let last = assembler.finish().unwrap();
        assert_eq!((last.start, last.end), (at(5), Timestamp::MAX));
        assert_eq!(last.midpoint(), at(3));
        let payloads: Vec<_> = last.events.iter().map(|ev| ev.payload).collect();
        assert_eq!(payloads, vec![2, 1, 0, 0]);
    }

    #[test]
    fn a_count_window_at_the_end_of_time_ends_there() {
        let events = vec![
            ev_at(1, 0),
            TraceEvent::new(Timestamp::MAX, EventTypeId::new(0), 0),
        ];
        let windows: Vec<_> = WindowAssembler::for_count(2)
            .unwrap()
            .windows(events)
            .collect();
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].end, Timestamp::MAX);
    }

    #[test]
    fn count_windows_have_exact_size_except_last() {
        let events: Vec<_> = (0..23).map(|i| ev_at(i, 0)).collect();
        let windows: Vec<_> = WindowAssembler::for_count(10)
            .unwrap()
            .windows(events)
            .collect();
        assert_eq!(windows.len(), 3);
        assert_eq!(windows[0].len(), 10);
        assert_eq!(windows[1].len(), 10);
        assert_eq!(windows[2].len(), 3);
        assert_eq!(windows[0].id, WindowId::new(0));
        assert_eq!(windows[2].id, WindowId::new(2));
    }

    #[test]
    fn count_windows_on_empty_stream_is_empty() {
        let windows: Vec<_> = WindowAssembler::for_count(4)
            .unwrap()
            .windows(std::iter::empty())
            .collect();
        assert!(windows.is_empty());
    }

    #[test]
    fn time_windows_partition_by_duration() {
        // Events every 10ms for 100ms; 40ms windows -> windows of 4 events.
        let events: Vec<_> = (0..10).map(|i| ev_at(i * 10, 0)).collect();
        let windows = time_windows(40, events);
        assert_eq!(windows.len(), 3);
        assert_eq!(windows[0].len(), 4); // 0,10,20,30
        assert_eq!(windows[1].len(), 4); // 40,50,60,70
        assert_eq!(windows[2].len(), 2); // 80,90
        assert_eq!(windows[0].start, Timestamp::ZERO);
        assert_eq!(windows[1].start, Timestamp::from_millis(40));
    }

    #[test]
    fn time_windows_emit_empty_gap_windows() {
        // Events at 0ms and 100ms; 40ms windows -> window 1 is empty.
        let events = vec![ev_at(0, 0), ev_at(100, 0)];
        let windows = time_windows(40, events);
        assert_eq!(windows.len(), 3);
        assert_eq!(windows[0].len(), 1);
        assert!(windows[1].is_empty());
        assert_eq!(windows[2].len(), 1);
    }

    #[test]
    fn time_windows_align_to_first_event() {
        // First event at 85ms with 40ms windows -> first window starts at 80ms.
        let events = vec![ev_at(85, 0), ev_at(90, 0), ev_at(125, 0)];
        let windows = time_windows(40, events);
        assert_eq!(windows[0].start, Timestamp::from_millis(80));
        assert_eq!(windows[0].len(), 2);
        assert_eq!(windows[1].len(), 1);
    }

    #[test]
    fn window_type_counts_are_dense() {
        let events = vec![ev_at(0, 0), ev_at(1, 1), ev_at(2, 1), ev_at(3, 2)];
        let window = Window::new(
            WindowId::new(0),
            Timestamp::ZERO,
            Timestamp::from_millis(4),
            events,
        );
        assert_eq!(window.type_counts(3), vec![1, 2, 1]);
        // Overflowing types are folded into the last bucket.
        assert_eq!(window.type_counts(2), vec![1, 3]);
        assert_eq!(window.count_of(EventTypeId::new(1)), 2);
    }

    #[test]
    fn type_counts_into_reuses_and_resets_the_buffer() {
        let events = vec![ev_at(0, 0), ev_at(1, 1), ev_at(2, 1)];
        let window = Window::new(
            WindowId::new(0),
            Timestamp::ZERO,
            Timestamp::from_millis(3),
            events,
        );
        let mut counts = vec![99u64; 7];
        window.type_counts_into(2, &mut counts);
        assert_eq!(counts, vec![1, 2]);
        window.type_counts_into(4, &mut counts);
        assert_eq!(counts, vec![1, 2, 0, 0]);
        assert_eq!(counts, window.type_counts(4));
    }

    #[test]
    #[should_panic(expected = "dimensions must be non-zero")]
    fn window_type_counts_rejects_zero_dimensions() {
        let window = Window::new(WindowId::new(0), Timestamp::ZERO, Timestamp::ZERO, vec![]);
        let _ = window.type_counts(0);
    }

    #[test]
    fn window_error_detection() {
        let mut events = vec![ev_at(0, 0), ev_at(1, 1)];
        assert!(!Window::new(
            WindowId::new(0),
            Timestamp::ZERO,
            Timestamp::from_millis(2),
            events.clone()
        )
        .has_error());
        events.push(ev_at(2, 2).with_severity(Severity::Error));
        let window = Window::new(
            WindowId::new(0),
            Timestamp::ZERO,
            Timestamp::from_millis(3),
            events,
        );
        assert!(window.has_error());
        assert_eq!(window.count_at_least(Severity::Warning), 1);
    }

    #[test]
    fn window_geometry_helpers() {
        let window = Window::new(
            WindowId::new(7),
            Timestamp::from_millis(40),
            Timestamp::from_millis(80),
            vec![ev_at(50, 0)],
        );
        assert_eq!(window.duration(), Duration::from_millis(40));
        assert_eq!(window.midpoint(), Timestamp::from_millis(60));
        assert_eq!(window.raw_size_bytes(), TraceEvent::RAW_ENCODED_SIZE);
        assert_eq!(window.id.index(), 7);
        assert_eq!(window.id.next(), WindowId::new(8));
        assert_eq!(window.id.to_string(), "window#7");
    }

    #[test]
    fn windows_cover_all_events_exactly_once() {
        let events: Vec<_> = (0..250).map(|i| ev_at(i * 3, (i % 5) as u16)).collect();
        let total = events.len();
        for windower_size in [1usize, 7, 50, 251] {
            let windows: Vec<_> = WindowAssembler::for_count(windower_size)
                .unwrap()
                .windows(events.clone())
                .collect();
            let covered: usize = windows.iter().map(Window::len).sum();
            assert_eq!(covered, total);
        }
        let windows = time_windows(40, events.clone());
        let covered: usize = windows.iter().map(Window::len).sum();
        assert_eq!(covered, total);
    }
}
