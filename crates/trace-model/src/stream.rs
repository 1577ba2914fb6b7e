//! Sources and sinks of trace events.
//!
//! The monitoring pipeline is written against the [`EventSource`] and
//! [`EventSink`] traits so it can consume events from a simulator, a file,
//! or (in a real deployment) a hardware trace buffer, and record selected
//! windows to any storage backend.
//!
//! Multi-stream rigs (one event stream per device, pipeline or tenant) are
//! supported by tagging events with a [`StreamId`] and merging per-stream
//! sources with [`InterleavedStreams`]; the reduction engine opens one
//! sink per stream id.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{Timestamp, TraceError, TraceEvent, WindowId};

/// Metadata describing the window a recorded batch of events came from.
///
/// The recorder in `endurance-core` knows which window it is persisting;
/// storage backends that index their contents (the segment store in
/// `endurance-store`) receive this alongside the encoded bytes through
/// [`EventSink::record_window`] so replay can later seek straight to a
/// window by id or timestamp range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecordMeta {
    /// Sequential id of the recorded window within its run.
    pub window_id: WindowId,
    /// Timestamp at which the window starts (inclusive).
    pub start: Timestamp,
    /// Timestamp at which the window ends (exclusive).
    pub end: Timestamp,
}

/// Identifier of an event *stream* — one tracing source among many, such
/// as a device under test, a pipeline instance, or a tenant.
///
/// Stream ids are caller-assigned small integers; the sharded reduction
/// engine in `endurance-core` routes events to workers by (a function of)
/// this id.
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct StreamId(u32);

impl StreamId {
    /// Creates a stream id from its raw index.
    pub const fn new(raw: u32) -> Self {
        StreamId(raw)
    }

    /// The raw index of this stream.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw `u32` value of this id.
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stream#{}", self.0)
    }
}

impl From<u32> for StreamId {
    fn from(raw: u32) -> Self {
        StreamId(raw)
    }
}

/// Merges several per-stream event sources into one globally
/// timestamp-ordered stream of `(StreamId, TraceEvent)` pairs.
///
/// This models what a multi-stream endurance rig delivers to the host: the
/// tracing fabric funnels every device's events into one feed, each tagged
/// with its origin. Stream `i` of the input vector is tagged
/// [`StreamId::new`]`(i)`. Ties are broken by stream index, so the merge is
/// deterministic and per-stream order is always preserved.
///
/// ```rust
/// use trace_model::stream::InterleavedStreams;
/// use trace_model::{EventTypeId, MemorySource, Timestamp, TraceEvent};
///
/// let a = MemorySource::new(vec![
///     TraceEvent::new(Timestamp::from_millis(0), EventTypeId::new(0), 0),
///     TraceEvent::new(Timestamp::from_millis(20), EventTypeId::new(0), 0),
/// ])
/// .unwrap();
/// let b = MemorySource::new(vec![TraceEvent::new(
///     Timestamp::from_millis(10),
///     EventTypeId::new(1),
///     0,
/// )])
/// .unwrap();
/// let merged: Vec<_> = InterleavedStreams::new(vec![a, b]).collect();
/// assert_eq!(merged.len(), 3);
/// assert_eq!(merged[1].0.index(), 1); // the 10 ms event came from stream 1
/// ```
#[derive(Debug)]
pub struct InterleavedStreams<Src> {
    sources: Vec<Src>,
    /// The next (not yet yielded) event of each source, if any.
    heads: Vec<Option<TraceEvent>>,
    /// Min-heap over `(head timestamp, stream index)` — `O(log k)` per
    /// merged event instead of a linear scan, which matters at fleet
    /// scale. The index in the key makes ties deterministic (lowest
    /// stream first).
    order: std::collections::BinaryHeap<std::cmp::Reverse<(Timestamp, usize)>>,
}

impl<Src: EventSource> InterleavedStreams<Src> {
    /// Creates a merge over the given sources; source `i` becomes stream
    /// `i`.
    pub fn new(sources: Vec<Src>) -> Self {
        let mut sources = sources;
        let heads: Vec<Option<TraceEvent>> =
            sources.iter_mut().map(EventSource::next_event).collect();
        let order = heads
            .iter()
            .enumerate()
            .filter_map(|(idx, head)| {
                head.as_ref()
                    .map(|event| std::cmp::Reverse((event.timestamp, idx)))
            })
            .collect();
        InterleavedStreams {
            sources,
            heads,
            order,
        }
    }

    /// Number of input streams.
    pub fn stream_count(&self) -> usize {
        self.sources.len()
    }

    /// Returns the next tagged event in global timestamp order.
    pub fn next_tagged(&mut self) -> Option<(StreamId, TraceEvent)> {
        let std::cmp::Reverse((_, idx)) = self.order.pop()?;
        let event = self.heads[idx].take().expect("heap tracks live heads");
        self.heads[idx] = self.sources[idx].next_event();
        if let Some(next) = &self.heads[idx] {
            self.order.push(std::cmp::Reverse((next.timestamp, idx)));
        }
        Some((StreamId::new(idx as u32), event))
    }
}

impl<Src: EventSource> Iterator for InterleavedStreams<Src> {
    type Item = (StreamId, TraceEvent);

    fn next(&mut self) -> Option<Self::Item> {
        self.next_tagged()
    }
}

/// A producer of trace events in non-decreasing timestamp order.
///
/// The blanket implementation makes any `Iterator<Item = TraceEvent>`
/// usable as a source, so `vec.into_iter()` or a lazily-evaluated simulator
/// iterator both work.
pub trait EventSource {
    /// Returns the next event, or `None` when the trace is finished.
    fn next_event(&mut self) -> Option<TraceEvent>;

    /// Drains up to `max` events into `buf`, returning how many were read.
    ///
    /// This mirrors how tracing hardware hands data to the host: in chunks
    /// the size of its internal buffer, not event by event.
    fn fill(&mut self, buf: &mut Vec<TraceEvent>, max: usize) -> usize {
        let mut read = 0;
        while read < max {
            match self.next_event() {
                Some(ev) => {
                    buf.push(ev);
                    read += 1;
                }
                None => break,
            }
        }
        read
    }
}

impl<I> EventSource for I
where
    I: Iterator<Item = TraceEvent>,
{
    fn next_event(&mut self) -> Option<TraceEvent> {
        self.next()
    }
}

/// A consumer of trace events (typically a storage backend).
pub trait EventSink {
    /// Records a batch of events.
    ///
    /// # Errors
    ///
    /// Implementations return [`TraceError`] if the underlying storage
    /// fails; in-memory sinks are infallible in practice.
    fn record(&mut self, events: &[TraceEvent]) -> Result<(), TraceError>;

    /// Records a batch of events for which the compact binary encoding has
    /// already been produced by the caller.
    ///
    /// The recorder encodes every recorded window once for byte
    /// accounting; sinks that persist the encoded form (files, sockets)
    /// override this to write `encoded` directly instead of re-encoding
    /// the events. The default ignores `encoded` and forwards to
    /// [`EventSink::record`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`EventSink::record`].
    fn record_encoded(&mut self, events: &[TraceEvent], encoded: &[u8]) -> Result<(), TraceError> {
        let _ = encoded;
        self.record(events)
    }

    /// Records one whole window: the events, their pre-encoded bytes, and
    /// the window's identity ([`RecordMeta`]).
    ///
    /// Sinks that index what they store (segment stores, databases)
    /// override this to file the batch under its window id and timestamp
    /// range. The default ignores the metadata and forwards to
    /// [`EventSink::record_encoded`], so plain sinks are unaffected.
    ///
    /// # Errors
    ///
    /// Same conditions as [`EventSink::record`].
    fn record_window(
        &mut self,
        meta: &RecordMeta,
        events: &[TraceEvent],
        encoded: &[u8],
    ) -> Result<(), TraceError> {
        let _ = meta;
        self.record_encoded(events, encoded)
    }

    /// Number of events recorded so far.
    fn recorded_events(&self) -> usize;

    /// Number of bytes this sink accounts for the recorded events.
    fn recorded_bytes(&self) -> usize {
        self.recorded_events() * TraceEvent::RAW_ENCODED_SIZE
    }
}

/// An in-memory event source backed by a `Vec`, mostly useful in tests and
/// for replaying previously recorded traces.
#[derive(Debug, Clone, Default)]
pub struct MemorySource {
    events: Vec<TraceEvent>,
    cursor: usize,
}

impl MemorySource {
    /// Creates a source over the given events.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::OutOfOrder`] if the events are not in
    /// non-decreasing timestamp order.
    pub fn new(events: Vec<TraceEvent>) -> Result<Self, TraceError> {
        let mut previous = Timestamp::ZERO;
        for ev in &events {
            if ev.timestamp < previous {
                return Err(TraceError::OutOfOrder {
                    found: ev.timestamp,
                    previous,
                });
            }
            previous = ev.timestamp;
        }
        Ok(MemorySource { events, cursor: 0 })
    }

    /// Number of events remaining to be read.
    pub fn remaining(&self) -> usize {
        self.events.len() - self.cursor
    }
}

impl Iterator for MemorySource {
    type Item = TraceEvent;

    fn next(&mut self) -> Option<TraceEvent> {
        let ev = self.events.get(self.cursor).copied();
        if ev.is_some() {
            self.cursor += 1;
        }
        ev
    }
}

/// An in-memory sink that keeps every recorded event, used by tests and by
/// the evaluation harness to inspect exactly what was recorded.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    events: Vec<TraceEvent>,
    encoded_bytes: usize,
}

impl MemorySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// The recorded events, in recording order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events (same as [`EventSink::recorded_events`],
    /// available without importing the trait).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total compact-encoded bytes handed to this sink via
    /// [`EventSink::record_encoded`] (zero when only the un-encoded
    /// [`EventSink::record`] path was used).
    pub fn encoded_len(&self) -> usize {
        self.encoded_bytes
    }

    /// Consumes the sink and returns the recorded events.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

impl EventSink for MemorySink {
    fn record(&mut self, events: &[TraceEvent]) -> Result<(), TraceError> {
        self.events.extend_from_slice(events);
        Ok(())
    }

    fn record_encoded(&mut self, events: &[TraceEvent], encoded: &[u8]) -> Result<(), TraceError> {
        self.encoded_bytes += encoded.len();
        self.record(events)
    }

    fn recorded_events(&self) -> usize {
        self.events.len()
    }
}

/// A sink that discards events but still counts them; useful to measure
/// what *would* be recorded without paying for storage.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingSink {
    count: usize,
    encoded_bytes: usize,
}

impl CountingSink {
    /// Creates a sink with a zero count.
    pub fn new() -> Self {
        CountingSink::default()
    }

    /// Number of events counted (same as [`EventSink::recorded_events`],
    /// available without importing the trait).
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether nothing has been counted yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Total compact-encoded bytes offered via
    /// [`EventSink::record_encoded`] (the bytes themselves are discarded).
    pub fn encoded_len(&self) -> usize {
        self.encoded_bytes
    }
}

impl EventSink for CountingSink {
    fn record(&mut self, events: &[TraceEvent]) -> Result<(), TraceError> {
        self.count += events.len();
        Ok(())
    }

    fn record_encoded(&mut self, events: &[TraceEvent], encoded: &[u8]) -> Result<(), TraceError> {
        self.encoded_bytes += encoded.len();
        self.record(events)
    }

    fn recorded_events(&self) -> usize {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventTypeId;

    fn ev(ms: u64) -> TraceEvent {
        TraceEvent::new(Timestamp::from_millis(ms), EventTypeId::new(0), 0)
    }

    #[test]
    fn memory_source_yields_in_order() {
        let mut src = MemorySource::new(vec![ev(1), ev(2), ev(3)]).unwrap();
        assert_eq!(src.remaining(), 3);
        assert_eq!(
            src.next_event().unwrap().timestamp,
            Timestamp::from_millis(1)
        );
        assert_eq!(src.remaining(), 2);
        let rest: Vec<_> = src.collect();
        assert_eq!(rest.len(), 2);
    }

    #[test]
    fn memory_source_rejects_out_of_order() {
        let result = MemorySource::new(vec![ev(5), ev(3)]);
        assert!(matches!(result, Err(TraceError::OutOfOrder { .. })));
    }

    #[test]
    fn iterator_is_an_event_source() {
        let events = vec![ev(1), ev(2)];
        let mut it = events.into_iter();
        assert!(EventSource::next_event(&mut it).is_some());
        assert!(EventSource::next_event(&mut it).is_some());
        assert!(EventSource::next_event(&mut it).is_none());
    }

    #[test]
    fn fill_reads_in_chunks() {
        let mut src = MemorySource::new((0..10).map(ev).collect()).unwrap();
        let mut buf = Vec::new();
        assert_eq!(src.fill(&mut buf, 4), 4);
        assert_eq!(src.fill(&mut buf, 4), 4);
        assert_eq!(src.fill(&mut buf, 4), 2);
        assert_eq!(src.fill(&mut buf, 4), 0);
        assert_eq!(buf.len(), 10);
    }

    #[test]
    fn memory_sink_accumulates_and_accounts_bytes() {
        let mut sink = MemorySink::new();
        assert!(sink.is_empty());
        sink.record(&[ev(1), ev(2)]).unwrap();
        sink.record(&[ev(3)]).unwrap();
        assert_eq!(sink.recorded_events(), 3);
        assert_eq!(sink.recorded_bytes(), 3 * TraceEvent::RAW_ENCODED_SIZE);
        assert_eq!(sink.len(), 3);
        assert!(!sink.is_empty());
        assert_eq!(sink.encoded_len(), 0, "no encoded bytes were offered");
        assert_eq!(sink.events().len(), 3);
        assert_eq!(sink.into_events().len(), 3);
    }

    #[test]
    fn memory_sink_tracks_encoded_bytes() {
        let mut sink = MemorySink::new();
        sink.record_encoded(&[ev(1), ev(2)], &[0xAA; 7]).unwrap();
        sink.record_encoded(&[ev(3)], &[0xBB; 5]).unwrap();
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.encoded_len(), 12);
    }

    #[test]
    fn counting_sink_counts_without_storing() {
        let mut sink = CountingSink::new();
        assert!(sink.is_empty());
        sink.record(&[ev(1), ev(2), ev(3)]).unwrap();
        sink.record_encoded(&[ev(4)], &[0xCC; 9]).unwrap();
        assert_eq!(sink.recorded_events(), 4);
        assert_eq!(sink.len(), 4);
        assert!(!sink.is_empty());
        assert_eq!(sink.encoded_len(), 9);
        assert_eq!(sink.recorded_bytes(), 4 * TraceEvent::RAW_ENCODED_SIZE);
    }

    #[test]
    fn record_window_defaults_to_record_encoded() {
        let meta = RecordMeta {
            window_id: WindowId::new(3),
            start: Timestamp::from_millis(120),
            end: Timestamp::from_millis(160),
        };
        let mut sink = MemorySink::new();
        sink.record_window(&meta, &[ev(125)], &[1, 2, 3]).unwrap();
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.encoded_len(), 3);
    }

    #[test]
    fn stream_id_round_trips_raw_value() {
        let id = StreamId::new(7);
        assert_eq!(id.index(), 7);
        assert_eq!(id.as_u32(), 7);
        assert_eq!(StreamId::from(7u32), id);
        assert_eq!(id.to_string(), "stream#7");
    }

    #[test]
    fn interleave_merges_by_timestamp_with_stable_ties() {
        let a = MemorySource::new(vec![ev(0), ev(10), ev(30)]).unwrap();
        let b = MemorySource::new(vec![ev(5), ev(10), ev(20)]).unwrap();
        let mut merged = InterleavedStreams::new(vec![a, b]);
        assert_eq!(merged.stream_count(), 2);
        let tagged: Vec<(u32, u64)> = merged
            .by_ref()
            .map(|(stream, event)| (stream.as_u32(), event.timestamp.as_nanos() / 1_000_000))
            .collect();
        // Global timestamp order; the 10 ms tie goes to stream 0 first.
        assert_eq!(
            tagged,
            vec![(0, 0), (1, 5), (0, 10), (1, 10), (1, 20), (0, 30)]
        );
        assert_eq!(merged.next_tagged(), None);
    }

    #[test]
    fn interleave_preserves_per_stream_order() {
        let streams: Vec<Vec<TraceEvent>> = (0..3)
            .map(|s| (0..20).map(|i| ev(i * 7 + s)).collect())
            .collect();
        let sources: Vec<MemorySource> = streams
            .iter()
            .map(|evs| MemorySource::new(evs.clone()).unwrap())
            .collect();
        let mut unmerged: Vec<Vec<TraceEvent>> = vec![Vec::new(); 3];
        for (stream, event) in InterleavedStreams::new(sources) {
            unmerged[stream.index()].push(event);
        }
        assert_eq!(unmerged, streams);
    }
}
