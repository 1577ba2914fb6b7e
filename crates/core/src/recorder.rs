//! Recording sink for anomalous windows, with byte accounting.

use serde::{Deserialize, Serialize};

use trace_model::codec::{BinaryEncoder, TraceEncoder};
#[cfg(test)]
use trace_model::TraceEvent;
use trace_model::{EventSink, RecordMeta, Window};

use crate::CoreError;

/// Byte and window accounting for a recording session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecorderStats {
    /// Windows offered to the recorder (recorded or not).
    pub windows_seen: u64,
    /// Windows actually recorded.
    pub windows_recorded: u64,
    /// Events contained in the recorded windows.
    pub events_recorded: u64,
    /// Raw (fixed-width) size of *all* offered windows, i.e. what recording
    /// everything would have cost.
    pub total_raw_bytes: u64,
    /// Raw size of the recorded windows only.
    pub recorded_raw_bytes: u64,
    /// Size of the recorded windows after the compact binary encoding —
    /// what actually lands on the storage device.
    pub recorded_encoded_bytes: u64,
}

impl RecorderStats {
    /// Volume reduction factor versus recording the whole trace, using raw
    /// sizes for both (the paper compares like with like: 418 MB recorded
    /// vs 5.9 GB total).
    ///
    /// Returns infinity when nothing was recorded and the trace was
    /// non-empty, and 1.0 for an empty trace.
    pub fn reduction_factor(&self) -> f64 {
        if self.total_raw_bytes == 0 {
            return 1.0;
        }
        if self.recorded_raw_bytes == 0 {
            return f64::INFINITY;
        }
        self.total_raw_bytes as f64 / self.recorded_raw_bytes as f64
    }

    /// Fraction of the total trace volume that was recorded, in `[0, 1]`.
    pub fn recorded_fraction(&self) -> f64 {
        if self.total_raw_bytes == 0 {
            return 0.0;
        }
        self.recorded_raw_bytes as f64 / self.total_raw_bytes as f64
    }

    /// Folds another recorder's accounting into this one (used when the
    /// fleet engine consolidates per-stream reports).
    pub fn merge(&mut self, other: &RecorderStats) {
        self.windows_seen += other.windows_seen;
        self.windows_recorded += other.windows_recorded;
        self.events_recorded += other.events_recorded;
        self.total_raw_bytes += other.total_raw_bytes;
        self.recorded_raw_bytes += other.recorded_raw_bytes;
        self.recorded_encoded_bytes += other.recorded_encoded_bytes;
    }
}

/// Records anomalous windows into an [`EventSink`], encoding them with the
/// compact binary codec and keeping volume statistics.
#[derive(Debug)]
pub struct TraceRecorder<S> {
    sink: S,
    encoder: BinaryEncoder,
    stats: RecorderStats,
    scratch: Vec<u8>,
}

impl<S: EventSink> TraceRecorder<S> {
    /// Creates a recorder writing to `sink`.
    pub fn new(sink: S) -> Self {
        TraceRecorder {
            sink,
            encoder: BinaryEncoder::new(),
            stats: RecorderStats::default(),
            scratch: Vec::new(),
        }
    }

    /// Offers a window to the recorder. When `record` is true the window's
    /// events are written to the sink; either way the window is counted in
    /// the "total trace" accounting.
    ///
    /// # Errors
    ///
    /// Propagates sink and encoding errors.
    pub fn offer(&mut self, window: &Window, record: bool) -> Result<(), CoreError> {
        self.stats.windows_seen += 1;
        self.stats.total_raw_bytes += window.raw_size_bytes() as u64;
        if record {
            self.stats.windows_recorded += 1;
            self.stats.events_recorded += window.len() as u64;
            self.stats.recorded_raw_bytes += window.raw_size_bytes() as u64;
            // Encode exactly once: the same bytes serve the volume
            // accounting and the sink, so storage-backed sinks never have
            // to re-encode the window. The window's identity rides along
            // so indexing sinks can file the batch for seekable replay.
            self.scratch.clear();
            self.encoder.encode(&window.events, &mut self.scratch)?;
            self.stats.recorded_encoded_bytes += self.scratch.len() as u64;
            let meta = RecordMeta {
                window_id: window.id,
                start: window.start,
                end: window.end,
            };
            self.sink
                .record_window(&meta, &window.events, &self.scratch)?;
        }
        Ok(())
    }

    /// Current accounting.
    pub fn stats(&self) -> RecorderStats {
        self.stats
    }

    /// Read access to the underlying sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Consumes the recorder and returns the sink and the final accounting.
    pub fn into_parts(self) -> (S, RecorderStats) {
        (self.sink, self.stats)
    }
}

impl<S: EventSink + Default> Default for TraceRecorder<S> {
    fn default() -> Self {
        TraceRecorder::new(S::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_model::{EventTypeId, MemorySink, Timestamp, WindowId};

    fn window(id: u64, events: usize) -> Window {
        let start = Timestamp::from_millis(id * 40);
        let events: Vec<TraceEvent> = (0..events)
            .map(|i| {
                TraceEvent::new(
                    Timestamp::from_nanos(start.as_nanos() + i as u64 * 1_000),
                    EventTypeId::new((i % 3) as u16),
                    i as u32,
                )
            })
            .collect();
        Window::new(
            WindowId::new(id),
            start,
            Timestamp::from_millis((id + 1) * 40),
            events,
        )
    }

    #[test]
    fn only_recorded_windows_reach_the_sink() {
        let mut recorder = TraceRecorder::new(MemorySink::new());
        recorder.offer(&window(0, 10), false).unwrap();
        recorder.offer(&window(1, 10), true).unwrap();
        recorder.offer(&window(2, 10), false).unwrap();
        let stats = recorder.stats();
        assert_eq!(stats.windows_seen, 3);
        assert_eq!(stats.windows_recorded, 1);
        assert_eq!(stats.events_recorded, 10);
        assert_eq!(recorder.sink().recorded_events(), 10);
        assert_eq!(
            stats.total_raw_bytes,
            3 * 10 * TraceEvent::RAW_ENCODED_SIZE as u64
        );
        assert_eq!(
            stats.recorded_raw_bytes,
            10 * TraceEvent::RAW_ENCODED_SIZE as u64
        );
        assert!((stats.reduction_factor() - 3.0).abs() < 1e-12);
        assert!((stats.recorded_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn encoded_bytes_are_smaller_than_raw() {
        let mut recorder = TraceRecorder::new(MemorySink::new());
        recorder.offer(&window(0, 200), true).unwrap();
        let stats = recorder.stats();
        assert!(stats.recorded_encoded_bytes > 0);
        assert!(stats.recorded_encoded_bytes < stats.recorded_raw_bytes);
    }

    #[test]
    fn empty_session_has_neutral_statistics() {
        let recorder: TraceRecorder<MemorySink> = TraceRecorder::default();
        let stats = recorder.stats();
        assert_eq!(stats.reduction_factor(), 1.0);
        assert_eq!(stats.recorded_fraction(), 0.0);
    }

    #[test]
    fn recording_nothing_gives_infinite_reduction() {
        let mut recorder = TraceRecorder::new(MemorySink::new());
        recorder.offer(&window(0, 50), false).unwrap();
        assert!(recorder.stats().reduction_factor().is_infinite());
        let (sink, stats) = recorder.into_parts();
        assert_eq!(sink.recorded_events(), 0);
        assert_eq!(stats.windows_seen, 1);
    }
}
