//! Immutable, shareable point-in-time views of a store.
//!
//! A [`Snapshot`] is a frozen [`StoreReader`]: every lane loaded when it
//! was taken, shared behind an `Arc`. It answers every reader query —
//! the reader's own, through `Deref` — against exactly the windows
//! committed at that instant, forever: a writer appending to the store
//! after the capture is invisible to it. Snapshots are cheap to clone
//! and safe to query from many threads at once; their segment buffers
//! come from a shared [`SegmentCache`](crate::SegmentCache), so N clones
//! across N threads hold one copy of each resident segment, not N.

use std::ops::Deref;
use std::path::Path;
use std::sync::Arc;

use trace_model::TraceError;

use crate::reader::StoreReader;

/// An immutable point-in-time view of a store's committed windows.
///
/// Taken from a live reader with [`StoreReader::snapshot`] (sharing its
/// lanes and segment buffers) or opened standalone with
/// [`Snapshot::open`]. Clone freely: clones share everything. It
/// dereferences to the [`StoreReader`] whose every lane was loaded at
/// capture, so its queries are the reader's: a window committed after
/// the capture does not exist here, and a by-id lookup goes through the
/// id map the capture built. A snapshot taken from a live lane stays
/// valid for the life of that lane's writer (a live lane is append-only,
/// `docs/FORMAT.md` §6); a [`crate::Compactor`] pass run after the
/// writer is gone rewrites the layout underneath and surfaces as a
/// decode error on the affected reads.
///
/// ```rust
/// use endurance_store::{LaneWriter, Snapshot, StoreConfig};
/// use trace_model::{EventSink, EventTypeId, Timestamp, TraceEvent};
///
/// # fn main() -> Result<(), trace_model::TraceError> {
/// let dir = std::env::temp_dir().join(format!("snap-doc-{}", std::process::id()));
/// # let _ = std::fs::remove_dir_all(&dir);
/// let mut writer = LaneWriter::create(&dir, 0, StoreConfig::default())?;
/// writer.record(&[TraceEvent::new(Timestamp::from_micros(5), EventTypeId::new(1), 7)])?;
/// writer.close()?;
///
/// let snapshot = Snapshot::open(&dir)?;
/// let clone = snapshot.clone(); // shares the same buffers
/// assert_eq!(snapshot.lane_windows(0)?.len(), 1);
/// assert_eq!(clone.total_events(), 1);
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Snapshot(Arc<StoreReader>);

impl Snapshot {
    /// Opens `dir` and captures a snapshot of every lane in one step —
    /// the standalone path for processes that only serve reads. (A
    /// process that also holds a [`StoreReader`] should prefer
    /// [`StoreReader::snapshot`], which shares the reader's buffers.)
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] when the directory cannot be listed.
    /// Per-lane load failures are captured, not fatal: the affected
    /// lane's queries return the load error, other lanes serve normally.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, TraceError> {
        Ok(StoreReader::open(dir)?.snapshot())
    }

    /// Wraps a reader whose every lane is loaded ([`StoreReader::snapshot`]).
    pub(crate) fn new(reader: StoreReader) -> Self {
        Snapshot(Arc::new(reader))
    }
}

impl Deref for Snapshot {
    type Target = StoreReader;

    fn deref(&self) -> &StoreReader {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LaneWriter, SegmentCache, StoreConfig};
    use trace_model::codec::{BinaryEncoder, TraceEncoder};
    use trace_model::{EventSink, EventTypeId, RecordMeta, Timestamp, TraceEvent, WindowId};

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("endurance-snap-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn record(writer: &mut LaneWriter, id: u64, count: usize) -> Vec<TraceEvent> {
        let events: Vec<TraceEvent> = (0..count)
            .map(|i| {
                TraceEvent::new(
                    Timestamp::from_micros(id * 1_000 + i as u64 * 10),
                    EventTypeId::new((i % 3) as u16),
                    id as u32,
                )
            })
            .collect();
        let mut encoded = Vec::new();
        BinaryEncoder::new().encode(&events, &mut encoded).unwrap();
        let meta = RecordMeta {
            window_id: WindowId::new(id),
            start: Timestamp::from_micros(id * 1_000),
            end: Timestamp::from_micros((id + 1) * 1_000),
        };
        writer.record_window(&meta, &events, &encoded).unwrap();
        events
    }

    #[test]
    fn snapshots_are_frozen_at_capture_time() {
        let dir = temp_dir("frozen");
        let mut writer = LaneWriter::create(&dir, 0, StoreConfig::default()).unwrap();
        let first = record(&mut writer, 0, 4);
        writer.sync().unwrap();

        let snapshot = Snapshot::open(&dir).unwrap();
        assert_eq!(snapshot.lane_windows(0).unwrap().len(), 1);

        // Appends after the capture are invisible to the snapshot (and
        // to its clones), but a fresh snapshot sees them.
        record(&mut writer, 1, 4);
        writer.close().unwrap();
        let clone = snapshot.clone();
        assert_eq!(clone.lane_windows(0).unwrap().len(), 1);
        assert_eq!(
            clone.window_events(0, WindowId::new(0)).unwrap().unwrap(),
            first
        );
        assert!(clone.window_events(0, WindowId::new(1)).unwrap().is_none());
        assert_eq!(Snapshot::open(&dir).unwrap().total_events(), 8);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reader_snapshots_share_the_readers_cache_and_match_its_answers() {
        let dir = temp_dir("shared");
        let config = StoreConfig::default().with_segment_max_windows(2);
        let mut writer = LaneWriter::create(&dir, 0, config).unwrap();
        for id in 0..6u64 {
            record(&mut writer, id, 5);
        }
        writer.close().unwrap();

        let reader = StoreReader::open(&dir).unwrap();
        let snapshot = reader.snapshot();
        assert_eq!(snapshot.lane_ids(), reader.lane_ids());
        assert_eq!(snapshot.total_events(), reader.total_events());
        assert_eq!(
            snapshot.lane_events(0).unwrap(),
            reader.lane_events(0).unwrap()
        );
        assert_eq!(
            snapshot.lane_payload_bytes(0).unwrap(),
            reader.lane_payload_bytes(0).unwrap()
        );
        assert_eq!(
            snapshot
                .windows_in_range(
                    0,
                    Timestamp::from_micros(1_500),
                    Timestamp::from_micros(4_200)
                )
                .unwrap()
                .len(),
            reader
                .windows_in_range(
                    0,
                    Timestamp::from_micros(1_500),
                    Timestamp::from_micros(4_200)
                )
                .unwrap()
                .len()
        );
        // Snapshot reads populated the shared pool the reader also uses.
        assert!(reader.snapshot().recovery().clean);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Two runs of one fleet shape: the other run's frames are CRC-valid
    /// at this run's offsets, so only the paths can tell them apart.
    #[test]
    fn a_cache_over_another_directory_is_refused() {
        let (dir, other) = (temp_dir("cache-own"), temp_dir("cache-other"));
        for (run, dir) in [&dir, &other].into_iter().enumerate() {
            let mut writer = LaneWriter::create(dir, 0, StoreConfig::default()).unwrap();
            record(&mut writer, run as u64, 5);
            writer.close().unwrap();
        }
        let cache = Arc::new(SegmentCache::new(&other));
        match StoreReader::open_with_cache(&dir, Arc::clone(&cache)) {
            Err(TraceError::Io(error)) => {
                assert_eq!(error.kind(), std::io::ErrorKind::InvalidInput);
                let message = error.to_string();
                assert!(message.contains(dir.to_str().unwrap()), "{message}");
                assert!(message.contains(other.to_str().unwrap()), "{message}");
            }
            other => panic!("expected InvalidInput, got {other:?}"),
        }
        assert!(StoreReader::open_with_cache(&other, cache).is_ok());
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&other).ok();
    }

    #[test]
    fn queries_on_unknown_lanes_error() {
        let dir = temp_dir("unknown");
        let mut writer = LaneWriter::create(&dir, 0, StoreConfig::default()).unwrap();
        record(&mut writer, 0, 3);
        writer.close().unwrap();
        let snapshot = Snapshot::open(&dir).unwrap();
        assert!(snapshot.lane_windows(9).is_err());
        assert!(snapshot.window_events(9, WindowId::new(0)).is_err());
        assert_eq!(snapshot.window_entry(0, WindowId::new(7)).unwrap(), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshots_can_be_queried_from_many_threads() {
        let dir = temp_dir("threads");
        let mut writer = LaneWriter::create(&dir, 0, StoreConfig::default()).unwrap();
        let expected: Vec<Vec<TraceEvent>> = (0..8).map(|id| record(&mut writer, id, 6)).collect();
        writer.close().unwrap();
        let snapshot = Snapshot::open(&dir).unwrap();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let snapshot = snapshot.clone();
                let expected = expected.clone();
                std::thread::spawn(move || {
                    for (id, events) in expected.iter().enumerate() {
                        let got = snapshot
                            .window_events(0, WindowId::new(id as u64))
                            .unwrap()
                            .unwrap();
                        assert_eq!(&got, events);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
