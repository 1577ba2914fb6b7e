//! Immutable, shareable point-in-time views of a store.
//!
//! A [`Snapshot`] captures every lane's window index at one instant and
//! answers queries against exactly that set of windows, forever — a
//! writer appending to the store after the capture is invisible to it.
//! Snapshots are cheap to clone (`Arc`-shared) and safe to query from
//! many threads at once; their segment buffers come from a shared
//! [`SegmentCache`](crate::SegmentCache), so N clones across N threads
//! hold one copy of each resident segment, not N.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use trace_model::{Timestamp, TraceError, TraceEvent, WindowId};

use crate::index::{RecoveryReport, WindowEntry};
use crate::map::{SegmentCache, SegmentMap};
use crate::reader::{claimed_events, LoadedLane, StoreReader};

/// An immutable point-in-time view of a store's committed windows.
///
/// Taken from a live reader with [`StoreReader::snapshot`] (sharing its
/// segment buffers) or opened standalone with [`Snapshot::open`]. Clone
/// freely: clones share everything. Queries mirror the [`StoreReader`]
/// windowed read paths and answer from the captured index — a window
/// committed after the capture does not exist here. A snapshot taken
/// from a live lane stays valid for the life of that lane's writer (a
/// live lane is append-only, `docs/FORMAT.md` §6); a [`crate::Compactor`]
/// pass run after the writer is gone rewrites the layout underneath and
/// surfaces as a decode error on the affected reads, exactly like the
/// reader. A by-id query for a
/// window id the lane holds twice answers with the most recently
/// committed occurrence, as the reader's does (`docs/FORMAT.md` §4).
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
pub struct Snapshot {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    dir: PathBuf,
    recovery: RecoveryReport,
    /// Per lane: the captured view, or the rendered load error. Each
    /// view's map holds the shared [`SegmentCache`], keeping the pool
    /// alive for as long as any clone of the snapshot exists.
    lanes: BTreeMap<u32, Result<LaneView, String>>,
}

/// One lane's captured index plus lookup structures.
#[derive(Debug)]
struct LaneView {
    windows: Vec<WindowEntry>,
    /// Window id → position in `windows`; the last occurrence wins, the
    /// rule of `LaneIndex::latest`.
    by_id: HashMap<u64, usize>,
    /// Decode front (scratch buffers + codec state) over the shared
    /// cache; short lock per read, buffers themselves are shared.
    map: Mutex<SegmentMap>,
}

impl LaneView {
    fn new(cache: &Arc<SegmentCache>, lane: u32, windows: Vec<WindowEntry>) -> Self {
        let by_id = windows
            .iter()
            .enumerate()
            .map(|(at, entry)| (entry.window_id, at))
            .collect();
        LaneView {
            windows,
            by_id,
            map: Mutex::new(SegmentMap::shared(Arc::clone(cache), lane)),
        }
    }
}

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
        let reader = StoreReader::open(dir)?;
        Ok(reader.snapshot())
    }

    /// Captures a snapshot from already-loaded lane state (reader side).
    pub(crate) fn capture<'a>(
        dir: &Path,
        cache: Arc<SegmentCache>,
        recovery: RecoveryReport,
        lanes: impl Iterator<Item = (u32, Result<&'a LoadedLane, TraceError>)>,
    ) -> Self {
        let lanes = lanes
            .map(|(lane, loaded)| {
                let view = match loaded {
                    Ok(loaded) => Ok(LaneView::new(&cache, lane, loaded.index.windows.clone())),
                    Err(error) => Err(error.to_string()),
                };
                (lane, view)
            })
            .collect();
        Snapshot {
            inner: Arc::new(Inner {
                dir: dir.to_path_buf(),
                recovery,
                lanes,
            }),
        }
    }

    /// The store directory this snapshot was captured from.
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    /// What opening/recovery found at capture time.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.inner.recovery
    }

    /// Lanes captured, ascending.
    pub fn lane_ids(&self) -> Vec<u32> {
        self.inner.lanes.keys().copied().collect()
    }

    /// Number of captured lanes.
    pub fn lane_count(&self) -> usize {
        self.inner.lanes.len()
    }

    /// Total events across every captured lane (failed lanes contribute
    /// nothing; check [`Snapshot::lane_windows`] per lane when exactness
    /// matters).
    pub fn total_events(&self) -> u64 {
        self.inner
            .lanes
            .values()
            .filter_map(|lane| lane.as_ref().ok())
            .flat_map(|view| view.windows.iter())
            .map(|entry| u64::from(entry.events))
            .sum()
    }

    fn view(&self, lane: u32) -> Result<&LaneView, TraceError> {
        let slot = self
            .inner
            .lanes
            .get(&lane)
            .ok_or_else(|| TraceError::Decode {
                offset: 0,
                reason: format!("snapshot has no lane {lane}"),
            })?;
        slot.as_ref().map_err(|message| TraceError::Decode {
            offset: 0,
            reason: message.clone(),
        })
    }

    /// The captured window index of one lane, in recording order.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Decode`] for an unknown lane or one whose
    /// index failed to load at capture time.
    pub fn lane_windows(&self, lane: u32) -> Result<&[WindowEntry], TraceError> {
        self.view(lane).map(|view| view.windows.as_slice())
    }

    /// The captured index entry of one window, or `None` if the window
    /// was not committed at capture time.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Snapshot::lane_windows`].
    pub fn window_entry(
        &self,
        lane: u32,
        window_id: WindowId,
    ) -> Result<Option<WindowEntry>, TraceError> {
        let view = self.view(lane)?;
        Ok(view
            .by_id
            .get(&window_id.index())
            .map(|&at| view.windows[at]))
    }

    /// The encoded payload of one captured window (the exact bytes the
    /// recorder handed to the sink).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Snapshot::lane_windows`], plus
    /// [`TraceError::Decode`] on index/file disagreement (a
    /// [`crate::Compactor`] pass rewrote the closed lane under the
    /// snapshot, or corruption).
    pub fn window_payload(
        &self,
        lane: u32,
        window_id: WindowId,
    ) -> Result<Option<Vec<u8>>, TraceError> {
        let view = self.view(lane)?;
        let Some(&at) = view.by_id.get(&window_id.index()) else {
            return Ok(None);
        };
        let mut map = view.map.lock().expect("snapshot map poisoned");
        map.payload(&view.windows[at]).map(|p| Some(p.to_vec()))
    }

    /// The decoded events of one captured window.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Snapshot::window_payload`], plus payload
    /// decode errors.
    pub fn window_events(
        &self,
        lane: u32,
        window_id: WindowId,
    ) -> Result<Option<Vec<TraceEvent>>, TraceError> {
        let view = self.view(lane)?;
        let Some(&at) = view.by_id.get(&window_id.index()) else {
            return Ok(None);
        };
        let entry = &view.windows[at];
        let mut events = Vec::with_capacity(claimed_events(entry.events.into()));
        let mut map = view.map.lock().expect("snapshot map poisoned");
        map.decode_events_into(entry, &mut events)?;
        Ok(Some(events))
    }

    /// The captured windows whose `[start, end)` range intersects
    /// `[from, to)`, decoded, in recording order.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Snapshot::window_events`].
    pub fn windows_in_range(
        &self,
        lane: u32,
        from: Timestamp,
        to: Timestamp,
    ) -> Result<Vec<(WindowId, Vec<TraceEvent>)>, TraceError> {
        let view = self.view(lane)?;
        let mut map = view.map.lock().expect("snapshot map poisoned");
        let mut out = Vec::new();
        for entry in &view.windows {
            if entry.start_ns < to.as_nanos() && entry.end_ns > from.as_nanos() {
                let mut events = Vec::with_capacity(claimed_events(entry.events.into()));
                map.decode_events_into(entry, &mut events)?;
                out.push((WindowId::new(entry.window_id), events));
            }
        }
        Ok(out)
    }

    /// All events of one captured lane, decoded in recording order.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Snapshot::window_events`].
    pub fn lane_events(&self, lane: u32) -> Result<Vec<TraceEvent>, TraceError> {
        let view = self.view(lane)?;
        let mut map = view.map.lock().expect("snapshot map poisoned");
        let capacity: u64 = view.windows.iter().map(|e| u64::from(e.events)).sum();
        let mut events = Vec::with_capacity(claimed_events(capacity));
        for entry in &view.windows {
            map.decode_events_into(entry, &mut events)?;
        }
        Ok(events)
    }

    /// The concatenated encoded payloads of one captured lane, in
    /// recording order — byte-for-byte what a follower that tailed the
    /// lane from the start would have accumulated.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Snapshot::window_payload`].
    pub fn lane_payload_bytes(&self, lane: u32) -> Result<Vec<u8>, TraceError> {
        let view = self.view(lane)?;
        let mut map = view.map.lock().expect("snapshot map poisoned");
        let mut bytes = Vec::new();
        for entry in &view.windows {
            bytes.extend_from_slice(map.payload(entry)?);
        }
        Ok(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LaneWriter, StoreConfig, StoreReader};
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
