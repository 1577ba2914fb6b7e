//! Opening a store directory and answering every cold query on it.
//!
//! [`StoreReader`] holds the one body of each query — by id, by range,
//! whole lane — and a [`Snapshot`] is a frozen, shared reader whose
//! lanes are all loaded, so the two cannot answer differently.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use trace_model::{EventSource, Timestamp, TraceError, TraceEvent, WindowId};

use crate::index::{
    FallbackReason, LaneIndex, RecoveryReport, SidecarKind, TornTail, WindowEntry, SIDECAR_SCHEMA,
    SIDECAR_SCHEMA_V1, SIDECAR_SCHEMA_V2,
};
use crate::map::{SegmentCache, SegmentMap};
use crate::pack::{read_segment, PackedLane, PackedSegment};
use crate::segment::{
    decode_sidecar, frame_end, legacy_sidecar_file_name, list_store_dir, scan_segment,
    segment_file_name, sidecar_file_name, SEGMENT_HEADER_LEN,
};
use crate::snapshot::Snapshot;

/// A reopened trace store: every lane's window index, ready for replay.
///
/// Opening only enumerates the directory; **everything else is lazy,
/// per lane** — the first touch of a lane decodes its sidecar (or falls
/// back to the CRC-validating segment scanner when the sidecar cannot be
/// trusted: crash before it was written, torn tail, missing or damaged
/// file) and segment headers are validated when their segments are first
/// read. Replaying one lane of a 64-lane fleet store therefore decodes
/// one sidecar, not 64, and one damaged lane never blocks the others.
///
/// A sidecar is trusted only when it is intact, every segment file's
/// length matches its committed byte count (the clean-close case) and
/// every window row lies inside its segment; anything else falls back to
/// the scanner, which recovers every complete frame and reports the torn
/// tails. [`StoreReader::recovery`] says what happened, and why each
/// declined sidecar was declined — calling it forces every lane.
///
/// Every read path goes through the lane's one decode front over the
/// reader's [`SegmentCache`]: each segment is loaded once into a
/// contiguous buffer and frames are handed out as zero-copy slices (or
/// decoded from their stored blocks, for compressed frames),
/// CRC-validated on first touch — one buffered sequential pass for
/// full-lane replay instead of a seek and two reads per frame. Reads of
/// different lanes never wait on each other. A by-id query for a window
/// id the lane holds twice (a resumed lane recording a second session)
/// answers with the most recently committed occurrence
/// (`docs/FORMAT.md` §4).
///
/// ```rust
/// use endurance_store::{LaneWriter, StoreConfig, StoreReader};
/// use trace_model::{EventSink, EventTypeId, Timestamp, TraceEvent, WindowId};
///
/// # fn main() -> Result<(), trace_model::TraceError> {
/// let dir = std::env::temp_dir().join(format!("reader-doc-{}", std::process::id()));
/// # let _ = std::fs::remove_dir_all(&dir);
/// let mut writer = LaneWriter::create(&dir, 0, StoreConfig::default())?;
/// let events = vec![TraceEvent::new(Timestamp::from_micros(5), EventTypeId::new(1), 7)];
/// writer.record(&events)?;
/// writer.close()?;
///
/// let reader = StoreReader::open(&dir)?;
/// assert_eq!(reader.lane_ids(), vec![0]);
/// // Full-lane replay, and a seek straight to one window via the index.
/// assert_eq!(reader.lane_events(0)?, events);
/// let first = reader.lane_windows(0)?[0];
/// assert_eq!(
///     reader.window_events(0, WindowId::new(first.window_id))?,
///     Some(events)
/// );
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct StoreReader {
    dir: PathBuf,
    /// Shared with every [`Snapshot`] taken from this reader: a lane
    /// loads once, and its index never changes after.
    lanes: Arc<BTreeMap<u32, LaneSlot>>,
    recovery: OnceLock<RecoveryReport>,
    /// Pooled `Arc`-shared segment buffers: every lane's front, every
    /// [`LaneReplay`] and every [`Snapshot`] taken from this reader hit
    /// the same bytes.
    cache: Arc<SegmentCache>,
}

/// One lane's deferred state: its own segment files, its entry in the
/// newest pack that holds it, and the lane once loaded (errors are kept
/// as rendered strings so later touches resurface them).
#[derive(Debug)]
struct LaneSlot {
    seqs: Vec<u32>,
    packed: Option<PackedLane>,
    state: OnceLock<Result<ReadLane, String>>,
}

impl LaneSlot {
    /// The lane's packed segment, when it holds windows.
    fn packed_segment(&self) -> Option<&PackedSegment> {
        self.packed.as_ref().and_then(PackedLane::with_frames)
    }
}

/// A lane index plus what loading it found.
#[derive(Debug)]
pub(crate) struct LoadedLane {
    pub index: LaneIndex,
    pub torn: Vec<TornTail>,
    /// The sidecar the index came from, or why the scanner built it.
    pub sidecar: Result<SidecarKind, FallbackReason>,
}

/// A loaded lane as the read paths use it.
#[derive(Debug)]
struct ReadLane {
    loaded: LoadedLane,
    /// Window id → position in the index, the last occurrence winning;
    /// built by [`StoreReader::snapshot`], which serves point queries.
    by_id: OnceLock<HashMap<u64, usize>>,
    /// The lane's decode front; a short lock per query.
    front: Mutex<SegmentMap>,
}

impl ReadLane {
    fn windows(&self) -> &[WindowEntry] {
        &self.loaded.index.windows
    }

    /// The position of the entry a lookup of `window_id` answers with:
    /// the most recently committed occurrence (`docs/FORMAT.md` §4).
    /// Through the id map once a snapshot built it; until then by a scan
    /// back from the end, so a reader asked for a few windows never
    /// builds a map per lane.
    fn latest(&self, window_id: WindowId) -> Option<usize> {
        match self.by_id.get() {
            Some(by_id) => by_id.get(&window_id.index()).copied(),
            None => self.loaded.index.latest(window_id),
        }
    }

    fn entry(&self, window_id: WindowId) -> Option<&WindowEntry> {
        self.latest(window_id).map(|at| &self.windows()[at])
    }

    fn front(&self) -> MutexGuard<'_, SegmentMap> {
        self.front.lock().expect("lane decode front poisoned")
    }
}

impl StoreReader {
    /// Opens the store directory read-only.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] when the directory cannot be listed.
    /// Per-lane problems — cross-file corruption (a segment whose header
    /// names a different lane, say), unreadable files — surface lazily
    /// when that lane is first touched, so one damaged lane never blocks
    /// replaying the others. Torn tails are *not* errors; they are
    /// reported in [`StoreReader::recovery`].
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, TraceError> {
        let cache = Arc::new(SegmentCache::new(dir.as_ref()));
        Self::open_with_cache(dir, cache)
    }

    /// Opens the store directory read-only, pooling segment buffers in
    /// `cache`, which was created over the same directory (the same path
    /// value: the cache reads segment files from its own). A long-lived
    /// serving process reopening the store to observe new lanes or
    /// windows passes the same cache each time, so already-resident
    /// segment buffers (and their one-time CRC validations) carry over
    /// instead of being re-read.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StoreReader::open`], plus [`TraceError::Io`]
    /// (`InvalidInput`) for a cache created over another directory: it
    /// would serve that store's frames under this one's index.
    pub fn open_with_cache(
        dir: impl AsRef<Path>,
        cache: Arc<SegmentCache>,
    ) -> Result<Self, TraceError> {
        let dir = dir.as_ref().to_path_buf();
        if dir != cache.dir {
            return Err(TraceError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "store {} opened with a segment cache over {}",
                    dir.display(),
                    cache.dir.display()
                ),
            )));
        }
        let listing = list_store_dir(&dir, None)?;
        for pack in &listing.packs {
            if let Err(reason) = pack.index {
                cache.count_pack_index_fallback(reason);
            }
        }
        let lanes = listing
            .lanes
            .into_iter()
            .filter(|(_, files)| files.has_segments())
            .map(|(lane, files)| {
                let mut seqs = files.seqs;
                if files.journal {
                    // A crashed maintenance pass may have committed a
                    // merge without finishing its deletions; reading is
                    // read-only, so interpret the journal instead of
                    // completing it.
                    let replaced = crate::compact::segments_replaced_by_pending_merge(&dir, lane);
                    seqs.retain(|seq| !replaced.contains(seq));
                }
                (
                    lane,
                    LaneSlot {
                        seqs,
                        packed: files.packed,
                        state: OnceLock::new(),
                    },
                )
            })
            .collect();
        Ok(StoreReader {
            dir,
            lanes: Arc::new(lanes),
            recovery: OnceLock::new(),
            cache,
        })
    }

    /// What opening found: recovered windows/events per the sidecar or
    /// the scanner, and any torn tails. Forces every lazily-loaded lane.
    pub fn recovery(&self) -> &RecoveryReport {
        self.recovery.get_or_init(|| {
            let mut report = RecoveryReport {
                clean: true,
                ..RecoveryReport::default()
            };
            for &lane in self.lanes.keys() {
                match self.lane(lane) {
                    Ok(read) => {
                        let loaded = &read.loaded;
                        report.absorb_lane(&loaded.index, &loaded.torn, loaded.sidecar);
                    }
                    Err(_) => {
                        // The load error resurfaces when the lane's data
                        // is touched; the report just records the lane as
                        // unclean.
                        report.lanes += 1;
                        report.clean = false;
                    }
                }
            }
            report
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Lanes present in the store, ascending.
    pub fn lane_ids(&self) -> Vec<u32> {
        self.lanes.keys().copied().collect()
    }

    /// Number of lanes.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// The window index of one lane, surfacing index-load failures
    /// (unknown lane, unreadable or corrupt segments) as errors instead
    /// of an empty answer.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`]/[`TraceError::Decode`] when the lane is
    /// unknown or its index cannot be loaded.
    pub fn lane_windows(&self, lane: u32) -> Result<&[WindowEntry], TraceError> {
        self.lane(lane).map(ReadLane::windows)
    }

    /// The sum of `count` over every lane's index (forces every lane;
    /// failed lanes contribute nothing).
    fn total(&self, count: impl Fn(&LaneIndex) -> u64) -> u64 {
        self.lanes
            .keys()
            .filter_map(|&lane| self.lane(lane).ok())
            .map(|read| count(&read.loaded.index))
            .sum()
    }

    /// Total events across every lane (forces every lane). A lane whose
    /// index fails to load contributes nothing here — when exactness
    /// matters, walk [`StoreReader::lane_windows`] per lane (it surfaces
    /// the load error) or check [`StoreReader::recovery`] first.
    pub fn total_events(&self) -> u64 {
        self.total(LaneIndex::total_events)
    }

    /// Total encoded payload bytes across every lane — the exact bytes
    /// the recorder handed to the sinks (forces every lane; failed lanes
    /// contribute nothing, see [`StoreReader::total_events`]).
    pub fn total_payload_bytes(&self) -> u64 {
        self.total(LaneIndex::total_payload_bytes)
    }

    /// Total *stored* payload bytes across every lane — what the
    /// payloads occupy on disk under their frame codecs, excluding
    /// segment and frame headers. The gap between this and
    /// [`StoreReader::total_payload_bytes`] is what frame compression
    /// saved (forces every lane; failed lanes contribute nothing, see
    /// [`StoreReader::total_events`]).
    pub fn total_stored_bytes(&self) -> u64 {
        self.total(LaneIndex::total_stored_bytes)
    }

    /// Loads (or returns the already loaded) lane.
    fn lane(&self, lane: u32) -> Result<&ReadLane, TraceError> {
        let slot = self.lanes.get(&lane).ok_or_else(|| TraceError::Decode {
            offset: 0,
            reason: format!("store has no lane {lane}"),
        })?;
        let state = slot.state.get_or_init(|| {
            let loaded = load_lane(&self.dir, lane, &slot.seqs, slot.packed.as_ref())
                .map_err(|e| e.to_string())?;
            if let (Some(packed), Err(reason)) = (&slot.packed, loaded.sidecar) {
                // The pack's own fallback was counted when it was listed.
                if packed.index.is_ok() && slot.seqs.is_empty() {
                    self.cache.count_pack_index_fallback(reason);
                }
            }
            let packed = slot.packed_segment().copied();
            Ok(ReadLane {
                loaded,
                by_id: OnceLock::new(),
                front: Mutex::new(SegmentMap::shared(Arc::clone(&self.cache), lane, packed)),
            })
        });
        state.as_ref().map_err(|message| TraceError::Decode {
            offset: 0,
            reason: message.clone(),
        })
    }

    /// An immutable, cheaply cloneable [`Snapshot`] of everything this
    /// reader's lanes hold right now. Forces every lane and gives each
    /// an id → position map for point queries; the snapshot shares the
    /// loaded lanes, their decode fronts and the [`SegmentCache`] with
    /// this reader, which answers through the same maps from then on.
    pub fn snapshot(&self) -> Snapshot {
        let recovery = self.recovery().clone();
        for slot in self.lanes.values() {
            if let Some(Ok(read)) = slot.state.get() {
                read.by_id.get_or_init(|| {
                    let windows = read.windows().iter().enumerate();
                    windows.map(|(at, entry)| (entry.window_id, at)).collect()
                });
            }
        }
        Snapshot::new(StoreReader {
            dir: self.dir.clone(),
            lanes: Arc::clone(&self.lanes),
            recovery: OnceLock::from(recovery),
            cache: Arc::clone(&self.cache),
        })
    }

    /// The index entry of one recorded window, if the lane holds it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StoreReader::lane_windows`].
    pub fn window_entry(
        &self,
        lane: u32,
        window_id: WindowId,
    ) -> Result<Option<WindowEntry>, TraceError> {
        Ok(self.lane(lane)?.entry(window_id).copied())
    }

    /// The encoded payload of one indexed window (the bytes the recorder
    /// wrote).
    ///
    /// # Errors
    ///
    /// Same conditions as [`StoreReader::lane_windows`], plus
    /// [`TraceError::Decode`] on index/file disagreement (a
    /// [`crate::Compactor`] pass rewrote the closed lane under a
    /// [`Snapshot`], or corruption after recovery).
    pub fn window_payload(
        &self,
        lane: u32,
        window_id: WindowId,
    ) -> Result<Option<Vec<u8>>, TraceError> {
        let read = self.lane(lane)?;
        let Some(entry) = read.entry(window_id) else {
            return Ok(None);
        };
        let payload = read.front().payload(entry)?.to_vec();
        Ok(Some(payload))
    }

    /// The recorded windows surrounding `window_id` in recording order:
    /// up to `context` neighbours on each side plus the target itself,
    /// each paired with its payload bytes verbatim — exactly the encoded
    /// bytes the recorder wrote, with any frame-codec transformation
    /// already undone.
    ///
    /// Returns an empty vector when the lane does not hold `window_id`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StoreReader::window_payload`].
    pub fn windows_around(
        &self,
        lane: u32,
        window_id: WindowId,
        context: usize,
    ) -> Result<Vec<(WindowEntry, Vec<u8>)>, TraceError> {
        let read = self.lane(lane)?;
        let Some(target) = read.latest(window_id) else {
            return Ok(Vec::new());
        };
        let windows = read.windows();
        let from = target.saturating_sub(context);
        let to = (target + 1).saturating_add(context).min(windows.len());
        let mut front = read.front();
        windows[from..to]
            .iter()
            .map(|entry| Ok((*entry, front.payload(entry)?.to_vec())))
            .collect()
    }

    /// The decoded events of one indexed window.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StoreReader::window_payload`], plus payload
    /// decode errors.
    pub fn window_events(
        &self,
        lane: u32,
        window_id: WindowId,
    ) -> Result<Option<Vec<TraceEvent>>, TraceError> {
        let read = self.lane(lane)?;
        let Some(entry) = read.entry(window_id) else {
            return Ok(None);
        };
        let mut events = Vec::with_capacity(claimed_events(entry.events.into()));
        read.front().decode_events_into(entry, &mut events)?;
        Ok(Some(events))
    }

    /// Replays exactly the recorded windows whose `[start, end)` range
    /// intersects `[from, to)`, in recording order, decoding each frame
    /// zero-copy from its segment buffer.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StoreReader::window_events`].
    pub fn windows_in_range(
        &self,
        lane: u32,
        from: Timestamp,
        to: Timestamp,
    ) -> Result<Vec<(WindowId, Vec<TraceEvent>)>, TraceError> {
        let read = self.lane(lane)?;
        let (from, to) = (from.as_nanos(), to.as_nanos());
        let mut front = read.front();
        let mut out = Vec::new();
        for entry in read
            .windows()
            .iter()
            .filter(|entry| entry.start_ns < to && entry.end_ns > from)
        {
            let mut events = Vec::with_capacity(claimed_events(entry.events.into()));
            front.decode_events_into(entry, &mut events)?;
            out.push((WindowId::new(entry.window_id), events));
        }
        Ok(out)
    }

    /// All events of one lane, decoded in recording order in one buffered
    /// sequential pass (each segment is read with a single syscall).
    ///
    /// # Errors
    ///
    /// Same conditions as [`StoreReader::window_events`].
    pub fn lane_events(&self, lane: u32) -> Result<Vec<TraceEvent>, TraceError> {
        let read = self.lane(lane)?;
        let mut events = Vec::with_capacity(claimed_events(read.loaded.index.total_events()));
        let mut front = read.front();
        for entry in read.windows() {
            front.decode_events_into(entry, &mut events)?;
        }
        Ok(events)
    }

    /// The concatenated encoded payloads of one lane, in recording order
    /// — byte-for-byte what a memory sink accumulating `record_encoded`
    /// bytes, or a follower that tailed the lane from the start, holds.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StoreReader::window_payload`].
    pub fn lane_payload_bytes(&self, lane: u32) -> Result<Vec<u8>, TraceError> {
        let read = self.lane(lane)?;
        // Raw lengths are claims until decoded: reserve as a decoder would.
        let claimed = read.loaded.index.total_payload_bytes().min(1 << 20);
        let mut bytes = Vec::with_capacity(claimed as usize);
        let mut front = read.front();
        for entry in read.windows() {
            bytes.extend_from_slice(front.payload(entry)?);
        }
        Ok(bytes)
    }

    /// A lazy [`EventSource`] over one lane's recorded events, window by
    /// window in recording order — the replay side of the sink the run
    /// was recorded through. The replay has a decode front of its own
    /// over the reader's [`SegmentCache`], so a full-lane pass is one
    /// buffered sequential sweep that holds no lock between events.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Decode`] for an unknown lane. I/O or decode
    /// failures *during* replay end the stream early; check
    /// [`LaneReplay::error`] after draining.
    pub fn replay_lane(&self, lane: u32) -> Result<LaneReplay<'_>, TraceError> {
        let read = self.lane(lane)?;
        let packed = self
            .lanes
            .get(&lane)
            .and_then(LaneSlot::packed_segment)
            .copied();
        Ok(LaneReplay {
            map: SegmentMap::shared(Arc::clone(&self.cache), lane, packed),
            entries: read.windows().iter(),
            buffered: std::collections::VecDeque::new(),
            scratch: Vec::new(),
            error: None,
        })
    }
}

/// Lazily replays one lane's recorded events in recording order.
///
/// Produced by [`StoreReader::replay_lane`]; implements
/// [`trace_model::EventSource`], so it plugs anywhere a recorded trace is
/// consumed — including a fresh `ReductionSession`.
#[derive(Debug)]
pub struct LaneReplay<'a> {
    map: SegmentMap,
    entries: std::slice::Iter<'a, WindowEntry>,
    buffered: std::collections::VecDeque<TraceEvent>,
    scratch: Vec<TraceEvent>,
    error: Option<TraceError>,
}

impl LaneReplay<'_> {
    /// The error that ended replay early, if any.
    pub fn error(&self) -> Option<&TraceError> {
        self.error.as_ref()
    }
}

impl EventSource for LaneReplay<'_> {
    fn next_event(&mut self) -> Option<TraceEvent> {
        loop {
            if let Some(event) = self.buffered.pop_front() {
                return Some(event);
            }
            if self.error.is_some() {
                return None;
            }
            let entry = self.entries.next()?;
            self.scratch.clear();
            match self.map.decode_events_into(entry, &mut self.scratch) {
                Ok(_) => self.buffered.extend(self.scratch.drain(..)),
                Err(error) => {
                    self.error = Some(error);
                    return None;
                }
            }
        }
    }
}

/// The room to reserve for `events` events that frame meta claims: the
/// claim, up to 2^20 — a CRC-valid frame may claim 2^32 − 1, and nothing
/// is reserved on a claim that only decoding can confirm.
pub(crate) fn claimed_events(events: u64) -> usize {
    events.min(1 << 20) as usize
}

/// Loads one lane's index — from its own segments `seqs` and its entry
/// `packed` in the newest pack holding it — preferring the sidecar (the
/// pack index's rows, for a lane that has no segment of its own past its
/// packed one), falling back to the scanner.
pub(crate) fn load_lane(
    dir: &Path,
    lane: u32,
    seqs: &[u32],
    packed: Option<&PackedLane>,
) -> Result<LoadedLane, TraceError> {
    let declined = match try_index(dir, lane, seqs, packed) {
        Ok((index, kind)) => {
            return Ok(LoadedLane {
                index,
                torn: Vec::new(),
                sidecar: Ok(kind),
            })
        }
        Err(reason) => reason,
    };
    let (index, torn) = scan_lane(dir, lane, seqs, packed.and_then(PackedLane::with_frames))?;
    Ok(LoadedLane {
        index,
        torn,
        sidecar: Err(declined),
    })
}

/// The scanner half of [`load_lane`], and all of a resuming writer's
/// load: the intact frames of the lane's `packed` segment and of its own
/// segments `seqs`, and the torn tails behind them (a segment torn inside
/// its header is left out).
///
/// # Errors
///
/// As [`scan_segment`], and [`TraceError::Decode`] for a packed segment
/// whose frames stop short of its end: a pack is written whole, so that
/// is corruption, not a torn write.
pub(crate) fn scan_lane(
    dir: &Path,
    lane: u32,
    seqs: &[u32],
    packed: Option<&PackedSegment>,
) -> Result<(LaneIndex, Vec<TornTail>), TraceError> {
    let mut index = LaneIndex::new(lane);
    let mut torn = Vec::new();
    for seq in packed
        .map(|packed| packed.seq)
        .into_iter()
        .chain(seqs.iter().copied())
    {
        let (path, bytes) = read_segment(dir, lane, seq, packed, None)?;
        let scanned = scan_segment(&bytes, &path, lane, seq)?;
        match scanned.torn {
            Some(tail) if packed.is_some_and(|packed| packed.seq == seq) => {
                return Err(TraceError::Decode {
                    offset: tail.offset as usize,
                    reason: format!(
                        "{}: lane {lane} segment {seq}: no intact frame at offset {} of a \
                         packed segment",
                        path.display(),
                        tail.offset
                    ),
                })
            }
            tail => torn.extend(tail),
        }
        if scanned.committed_bytes > 0 {
            index.segments.push(scanned.meta);
            index.windows.extend(scanned.entries);
        }
    }
    Ok((index, torn))
}

/// Cuts each of `torn` off its segment, removing a segment torn inside
/// its header, and returns the bytes dropped: the one place recovery —
/// a resuming writer's or the compactor's — writes.
pub(crate) fn truncate_torn(dir: &Path, torn: &[TornTail]) -> Result<u64, TraceError> {
    let mut dropped = 0;
    for tail in torn {
        let path = dir.join(segment_file_name(tail.lane, tail.segment));
        if tail.offset == 0 {
            std::fs::remove_file(&path)?;
        } else {
            std::fs::OpenOptions::new()
                .write(true)
                .open(&path)?
                .set_len(tail.offset)?;
        }
        dropped += tail.dropped_bytes;
    }
    Ok(dropped)
}

/// The lane index a reader can take without scanning: for a lane whose
/// only segment is packed, its rows in the pack index (trusted when the
/// pack index was, and when they decode and lie inside the segment), or
/// else a sidecar a resumed writer left; otherwise its sidecar, per
/// [`try_sidecar`].
fn try_index(
    dir: &Path,
    lane: u32,
    seqs: &[u32],
    packed: Option<&PackedLane>,
) -> Result<(LaneIndex, SidecarKind), FallbackReason> {
    let segment = packed.and_then(PackedLane::with_frames);
    let (Some(packed), Some(segment), true) = (packed, segment, seqs.is_empty()) else {
        return try_sidecar(dir, lane, seqs, segment);
    };
    let from_pack = || {
        packed.index?;
        let rows = packed.rows.as_ref().ok_or(FallbackReason::Missing)?;
        let mut index = LaneIndex::new(lane);
        index.segments.push(segment.meta());
        index.windows = rows.decode().ok_or(FallbackReason::Unreadable)?;
        if !rows_lie_inside_their_segments(&index) {
            return Err(FallbackReason::RowOutOfBounds);
        }
        Ok((index, SidecarKind::Pack))
    };
    // A writer that resumed the lane since may have left a sidecar of it,
    // which names the packed segment; the pack index's reason is the
    // lane's when neither is trusted.
    from_pack().or_else(|reason| try_sidecar(dir, lane, seqs, Some(segment)).map_err(|_| reason))
}

/// Loads and validates a lane sidecar per `docs/FORMAT.md` §4: intact,
/// of schema 4 or (read only) 3, of the right lane, naming exactly the
/// lane's segments — its `packed` one, then its own files — with exactly
/// their lengths, every row inside its segment. The legacy JSON sidecar is
/// consulted only when the lane has no `.idx` at all — a damaged `.idx`
/// goes to the scanner, not to an older cache.
fn try_sidecar(
    dir: &Path,
    lane: u32,
    seqs: &[u32],
    packed: Option<&PackedSegment>,
) -> Result<(LaneIndex, SidecarKind), FallbackReason> {
    let (index, kind) = match std::fs::read(dir.join(sidecar_file_name(lane))) {
        Ok(bytes) => (decode_sidecar(&bytes)?, SidecarKind::Binary),
        Err(error) if error.kind() == std::io::ErrorKind::NotFound => {
            (read_legacy_sidecar(dir, lane)?, SidecarKind::LegacyJson)
        }
        Err(_) => return Err(FallbackReason::Unreadable),
    };
    if index.lane != lane {
        return Err(FallbackReason::LaneMismatch);
    }
    let on_disk = packed
        .map(|packed| packed.seq)
        .into_iter()
        .chain(seqs.iter().copied());
    if !index.segments.iter().map(|meta| meta.seq).eq(on_disk) {
        return Err(FallbackReason::SegmentListMismatch);
    }
    for meta in &index.segments {
        let len = match packed.filter(|packed| packed.seq == meta.seq) {
            Some(packed) => Some(packed.committed_bytes()),
            None => std::fs::metadata(dir.join(segment_file_name(lane, meta.seq)))
                .map(|file| file.len())
                .ok(),
        };
        if len != Some(meta.committed_bytes) {
            return Err(FallbackReason::LengthMismatch);
        }
    }
    if !rows_lie_inside_their_segments(&index) {
        return Err(FallbackReason::RowOutOfBounds);
    }
    Ok((index, kind))
}

/// Reads the JSON sidecar of a schema-1/2 store. Schema-1 sidecars
/// (written before frame compression existed) are normalised: every
/// entry is an identity frame whose raw length is its v1 body minus the
/// fixed meta block.
fn read_legacy_sidecar(dir: &Path, lane: u32) -> Result<LaneIndex, FallbackReason> {
    let text = match std::fs::read_to_string(dir.join(legacy_sidecar_file_name(lane))) {
        Ok(text) => text,
        Err(error) if error.kind() == std::io::ErrorKind::NotFound => {
            return Err(FallbackReason::Missing)
        }
        Err(_) => return Err(FallbackReason::Unreadable),
    };
    let mut index: LaneIndex =
        serde_json::from_str(&text).map_err(|_| FallbackReason::Unreadable)?;
    match index.schema {
        SIDECAR_SCHEMA_V2 => {}
        SIDECAR_SCHEMA_V1 => {
            for entry in &mut index.windows {
                entry.normalise_from_schema_v1();
            }
        }
        _ => return Err(FallbackReason::UnknownSchema),
    }
    index.schema = SIDECAR_SCHEMA;
    Ok(index)
}

/// Whether every window row addresses a frame that can exist: in a
/// listed segment, past the segment header, at or after the end of the
/// row before it in that segment, long enough for the segment's meta
/// block and ending within `committed_bytes`. The segment list was
/// already matched against the (ascending) on-disk sequence numbers.
/// Without this a sidecar with one wrong `offset` passes every
/// file-level check and turns a healthy window into a read error.
fn rows_lie_inside_their_segments(index: &LaneIndex) -> bool {
    // Per segment, the lowest offset its next row may start at.
    let mut free_from = vec![SEGMENT_HEADER_LEN; index.segments.len()];
    let mut at = 0;
    index.windows.iter().all(|entry| {
        // Rows come in recording order, so the segment rarely changes.
        if index.segments.get(at).map(|meta| meta.seq) != Some(entry.segment) {
            match index
                .segments
                .binary_search_by_key(&entry.segment, |meta| meta.seq)
            {
                Ok(found) => at = found,
                Err(_) => return false,
            }
        }
        let meta = &index.segments[at];
        let Some(end) = frame_end(meta.version, entry) else {
            return false;
        };
        let inside = entry.offset >= free_from[at] && end <= meta.committed_bytes;
        free_from[at] = end;
        inside
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LaneWriter, StoreConfig};
    use endurance_obs::Registry;
    use trace_model::codec::{BinaryEncoder, TraceEncoder};
    use trace_model::{EventSink, EventTypeId, RecordMeta};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "endurance-reader-test-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Six windows of five events, two a segment; the ids run 0, 1, 2,
    /// then 1, 2, 3 (a resumed lane restarts them, `docs/FORMAT.md` §4).
    fn write_lane(dir: &Path) {
        let config = StoreConfig::default().with_segment_max_windows(2);
        let mut writer = LaneWriter::create(dir, 0, config).unwrap();
        for (at, id) in [0u64, 1, 2, 1, 2, 3].into_iter().enumerate() {
            let start = at as u64 * 1_000;
            let events: Vec<TraceEvent> = (0..5)
                .map(|i| {
                    let ts = Timestamp::from_micros(start + i * 10);
                    TraceEvent::new(ts, EventTypeId::new(i as u16 % 3), at as u32)
                })
                .collect();
            let mut encoded = Vec::new();
            BinaryEncoder::new().encode(&events, &mut encoded).unwrap();
            let meta = RecordMeta {
                window_id: WindowId::new(id),
                start: Timestamp::from_micros(start),
                end: Timestamp::from_micros(start + 1_000),
            };
            writer.record_window(&meta, &events, &encoded).unwrap();
        }
        writer.close().unwrap();
    }

    /// A reader looks an id up by scanning back until its own snapshot
    /// builds the id maps, and answers the same either way.
    #[test]
    fn a_snapshot_gives_its_reader_the_id_maps_and_the_same_answers() {
        let dir = temp_dir("by-id");
        write_lane(&dir);
        let reader = StoreReader::open(&dir).unwrap();
        let answers = |reader: &StoreReader| {
            (0..5)
                .map(|id| reader.window_entry(0, WindowId::new(id)).unwrap())
                .collect::<Vec<_>>()
        };
        let scanned = answers(&reader);
        let lane = reader.lane(0).unwrap();
        assert!(lane.by_id.get().is_none());
        let snapshot = reader.snapshot();
        assert!(lane.by_id.get().is_some());
        assert_eq!(answers(&reader), scanned);
        assert_eq!(answers(&snapshot), scanned);
        // Ids 1 and 2 answer with their second occurrence; 4 is absent.
        let starts: Vec<_> = scanned.iter().map(|e| e.map(|e| e.start_ns)).collect();
        let ms = |at: u64| Some(at * 1_000_000);
        assert_eq!(starts, [ms(0), ms(3), ms(4), ms(5), None]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A lane replay reads the buffers the reader's queries loaded:
    /// draining it after `lane_events` hits the cache on every segment,
    /// reads no file and checks no CRC again.
    #[test]
    fn a_lane_replay_reads_through_the_readers_cache() {
        let dir = temp_dir("replay-cache");
        write_lane(&dir);
        let registry = Registry::new();
        let cache = Arc::new(SegmentCache::new(&dir).with_metrics(&registry));
        let counter = |name| registry.snapshot().counter(name).unwrap_or(0);
        let reader = StoreReader::open_with_cache(&dir, cache).unwrap();
        let events = reader.lane_events(0).unwrap();
        let (hits, misses, checks) = (
            counter("store_segcache_hits_total"),
            counter("store_segcache_misses_total"),
            counter("store_crc_validations_total"),
        );
        assert_eq!((misses, checks), (3, 6));
        let mut replay = reader.replay_lane(0).unwrap();
        let mut drained = Vec::new();
        replay.fill(&mut drained, usize::MAX);
        assert!(replay.error().is_none());
        assert_eq!(drained, events);
        assert_eq!(counter("store_segcache_hits_total"), hits + 3);
        assert_eq!(counter("store_segcache_misses_total"), misses);
        assert_eq!(counter("store_crc_validations_total"), checks);
        std::fs::remove_dir_all(&dir).ok();
    }
}
